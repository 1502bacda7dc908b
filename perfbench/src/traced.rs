//! The traced run. It loads the served snapshot in-process, replays the
//! workload's stream through each layer's public functions — every
//! call wrapped in a span this benchmark owns — and sends the same
//! requests over the wire, so the wire round trip can be split into
//! layer self times plus a residual.
//!
//! Every workload reports every layer: after its reads, each traced
//! run applies the writer's first operations in-process to a copy of
//! its snapshot (extraction, snapshot clone, index insert and remove),
//! and a workload without mesh reads probes the extraction cache with
//! those parts. The run fails if the decomposition is not
//! faithful: composed feature vectors must equal
//! `FeatureExtractor::extract` bit for bit and composed hits must equal
//! the wire answers.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdess_core::{
    load_from_path, multi_step_search_with_stats, CacheConfig, MultiStepPlan, Query, SearchHit,
    SearchServer, ShapeDatabase, ShapeId,
};
use tdess_dataset::synth_corpus;
use tdess_features::{
    geometric_params, higher_order_moments, moment_invariants, normalize, principal_moments,
    shape_distribution_d2, shell_histogram, D2Params, FeatureExtractor, FeatureKind, FeatureSet,
    NormalizedModel, ShellParams,
};
use tdess_geom::{mesh_moments, TriMesh, Vec3};
use tdess_index::{QueryStats, RTree, RTreeConfig};
use tdess_net::{proto, HitsReport, NetClient, Request, RequestEnvelope, Response};
use tdess_obs::Level;
use tdess_skeleton::{
    build_graph, prune_spurs, skeletonize_into, spectral_signature, ThinScratch, ThinningParams,
};
use tdess_voxel::{voxelize_into, FloodScratch, VoxelGrid, VoxelizeParams};

use crate::checks::same_hits;
use crate::procs::{self, TempDir, SYNTH_COUNT, SYNTH_SEED};
use crate::stats::{median, quantile};
use crate::timed::read_loop;
use crate::workload::{self, ReadBody, ReadStream, Workload, Write};
use crate::{connect, warmup_reads, Args, Metric, Outcome};

/// Reads replayed with spans.
fn replayed_reads(workload: Workload) -> usize {
    match workload {
        Workload::Example => 150,
        Workload::Features => 2800,
    }
}
/// Writer operations applied in-process after the reads.
const PROBE_WRITES: usize = 40;
/// Queries timed at each log level for `obs.stage_overhead_pct`.
const OBS_QUERIES: usize = 600;

/// One call into one layer.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index + 1 of the enclosing span, 0 for a root.
    parent: usize,
    /// The replayed request this call belongs to.
    req: usize,
}

/// Spans kept in memory, written out when the run ends.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: usize,
}

impl Tracer {
    fn begin(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().map_or(0, |&p| p + 1),
            req: self.req,
        });
        self.open.push(idx);
        idx
    }

    /// Closes span `idx`; returns its duration in µs.
    fn end(&mut self, idx: usize) -> f64 {
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        (end - span.start_ns) as f64 / 1e3
    }

    /// Runs `f` in a span; returns its result and duration in µs.
    fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let idx = self.begin(name);
        let r = f();
        (r, self.end(idx))
    }

    /// Each span's duration minus its children's, µs, by span name.
    fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let dur = |s: &Span| (s.end_ns - s.start_ns) as f64 / 1e3;
        let mut children = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                children[s.parent - 1] += dur(s);
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(children) {
            out.entry(s.name).or_default().push(dur(s) - c);
        }
        out
    }

    fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            text.push_str(&format!(
                "{{\"name\": \"{}\", \"start_us\": {:.3}, \"dur_us\": {:.3}, \"parent\": {}, \"req\": {}}}\n",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent,
                s.req
            ));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Reusable buffers of the composed extraction pipeline.
struct Scratch {
    voxels: VoxelGrid,
    skeleton: VoxelGrid,
    flood: FloodScratch,
    thin: ThinScratch,
}

/// State of one traced replay.
struct Replay<'a> {
    tr: Tracer,
    stream: &'a ReadStream,
    extractor: FeatureExtractor,
    snap: Arc<ShapeDatabase>,
    /// In-process stand-in for `tdess serve`: same snapshot, default
    /// cache.
    server: SearchServer,
    /// One tree per kind, STR-loaded from the snapshot's vectors.
    trees: Vec<RTree<ShapeId>>,
    client: NetClient,
    scratch: Scratch,
    /// Composed features of each example part seen so far.
    parts: HashMap<usize, FeatureSet>,
    /// Queries replayed, kept for the log-level comparison.
    queries: Vec<(FeatureSet, Query)>,
    /// Per-request samples by metric name.
    samples: BTreeMap<&'static str, Vec<f64>>,
    failed: usize,
}

impl Replay<'_> {
    fn push(&mut self, metric: &'static str, value: f64) {
        self.samples.entry(metric).or_default().push(value);
    }

    fn fail(&mut self, what: String) {
        eprintln!("perfbench: traced run: {what}");
        self.failed += 1;
    }

    /// Runs extraction stage by stage, as `FeatureExtractor` does.
    fn compose(&mut self, mesh: &TriMesh, normalized: &NormalizedModel) -> FeatureSet {
        let ex = self.extractor;
        let tr = &mut self.tr;
        let sc = &mut self.scratch;
        let root = tr.begin("features.extract");
        let ((mi, gp, pm, ho, d2, sh), _) = tr.call("features.mesh_vectors", || {
            (
                moment_invariants(&mesh_moments(mesh)),
                geometric_params(mesh, normalized),
                principal_moments(normalized),
                higher_order_moments(normalized),
                shape_distribution_d2(mesh, &D2Params::default()),
                shell_histogram(mesh, &ShellParams::default()),
            )
        });
        let params = VoxelizeParams {
            resolution: ex.voxel_resolution,
            ..Default::default()
        };
        tr.call("voxel.voxelize", || {
            voxelize_into(&normalized.mesh, &params, &mut sc.voxels, &mut sc.flood)
        });
        tr.call("skeleton.thin", || {
            skeletonize_into(
                &sc.voxels,
                &ThinningParams::default(),
                &mut sc.skeleton,
                &mut sc.thin,
            )
        });
        tr.call("skeleton.prune", || {
            prune_spurs(&mut sc.skeleton, (ex.voxel_resolution / 8).max(3))
        });
        let (graph, _) = tr.call("skeleton.graph", || build_graph(&sc.skeleton));
        let (eigenvalues, _) = tr.call("skeleton.spectrum", || {
            spectral_signature(&graph, ex.spectrum_dim)
        });
        tr.end(root);
        let filled = sc.voxels.count() as f64;
        let skeleton = sc.skeleton.count() as f64;
        self.push("voxel.filled", filled);
        self.push("skeleton.voxels", skeleton);
        let composed = FeatureSet {
            moment_invariants: mi.to_vec(),
            geometric: gp.to_vec(),
            principal_moments: pm.to_vec(),
            eigenvalues,
            higher_order: ho.to_vec(),
            shape_distribution: d2,
            shell_histogram: sh,
        };
        match ex.extract(mesh) {
            Ok(want) if same_features(&want, &composed) => {}
            _ => self.fail("composed features differ from FeatureExtractor::extract".into()),
        }
        composed
    }

    /// Replays read `i`: in-process through every layer, then over the
    /// wire.
    fn read(&mut self, i: usize) -> Result<(), String> {
        self.tr.req = i;
        let read = self.stream.read(i);
        let envelope = RequestEnvelope {
            trace_id: Some(tdess_obs::gen_trace_id()),
            request: self.stream.to_request(&read),
        };
        let root = self.tr.begin("replay");
        let (payload, t_enc) = self.tr.call("net.req_encode", || proto::encode(&envelope));
        let payload = payload.map_err(|e| e.to_string())?;
        let (decoded, t_dec) = self
            .tr
            .call("net.req_decode", || proto::decode_request(&payload));
        let (_, request) = decoded.map_err(|e| e.to_string())?;

        // The request as the server runs it, and the composed path's
        // feature set and first index query.
        let server = self.server.clone();
        let snap = Arc::clone(&self.snap);
        // `t_norm` is set on a warm cache hit.
        let (hits, t_srv, features, first, multistep, t_norm) = match &request {
            Request::SearchFeatures { features, query } => {
                let (hits, t) = self.tr.call("core.search_features", || {
                    server.search_features(features, query)
                });
                (hits, t, features.clone(), query.clone(), false, None)
            }
            Request::SearchMesh { mesh, .. } | Request::MultiStep { mesh, .. } => {
                let misses = server.cache_stats().map_or(0, |c| c.misses);
                let (hits, t) = self.tr.call("core.search_mesh", || match &request {
                    Request::SearchMesh { query, .. } => server.search_mesh(mesh, query),
                    _ => server.multi_step_mesh(mesh, &MultiStepPlan::paper_default()),
                });
                let hits = hits.map_err(|e| format!("read {i}: {e}"))?;
                let missed = server.cache_stats().map_or(0, |c| c.misses) > misses;
                let (normalized, t_norm) = self.tr.call("features.normalize", || normalize(mesh));
                let normalized = normalized.map_err(|e| format!("read {i}: {e}"))?;
                let ReadBody::Mesh { part, fresh } = read.body else {
                    return Err(format!("read {i} is not a mesh read"));
                };
                if missed != fresh {
                    self.fail(format!(
                        "read {i}: cache miss {missed}, first sighting {fresh}"
                    ));
                }
                let features = match self.parts.get(&part) {
                    Some(f) => f.clone(),
                    None => {
                        let f = self.compose(mesh, &normalized);
                        self.parts.insert(part, f.clone());
                        f
                    }
                };
                let first = match &request {
                    Request::SearchMesh { query, .. } => query.clone(),
                    _ => {
                        let plan = MultiStepPlan::paper_default();
                        Query::top_k(plan.steps[0], plan.candidates)
                    }
                };
                let multistep = matches!(request, Request::MultiStep { .. });
                (
                    hits,
                    t,
                    features,
                    first,
                    multistep,
                    (!missed).then_some(t_norm),
                )
            }
            _ => return Err(format!("read {i} is not a search")),
        };

        // Database search, its index call, and multi-step re-ranking,
        // each after one untimed call of the same query, so these
        // layers are compared with warm caches.
        std::hint::black_box(snap.search_with_stats(&features, &first, &mut QueryStats::default()));
        let mut stats = QueryStats::default();
        let (db_hits, t_sws) = self.tr.call("core.search_with_stats", || {
            snap.search_with_stats(&features, &first, &mut stats)
        });
        self.knn(&features, &first, &db_hits, t_sws);
        self.push("index.nodes_per_query", stats.nodes_visited as f64);
        self.push("index.entries_per_query", stats.entries_checked as f64);
        // Every fourth read runs multi-step, on the example stream as
        // its own request and elsewhere as a probe on the same query.
        let mut composed = db_hits;
        // What SearchServer ran after extracting: the search, or the
        // whole multi-step plan.
        let mut t_after_extract = t_sws;
        if multistep || i % 4 == 3 {
            let plan = MultiStepPlan::paper_default();
            std::hint::black_box(multi_step_search_with_stats(
                &snap,
                &features,
                &plan,
                &mut QueryStats::default(),
            ));
            let (ms_hits, t_ms) = self.tr.call("core.multistep", || {
                multi_step_search_with_stats(&snap, &features, &plan, &mut QueryStats::default())
            });
            // The first step of the plan is the query just timed only
            // when it was a multi-step request.
            if multistep {
                self.push("core.multistep_us", t_ms - t_sws);
                t_after_extract = t_ms;
                composed = ms_hits;
            } else {
                let mut st = QueryStats::default();
                let q1 = Query::top_k(plan.steps[0], plan.candidates);
                let (_, t1) = self.tr.call("core.search_with_stats", || {
                    snap.search_with_stats(&features, &q1, &mut st)
                });
                self.push("core.multistep_us", t_ms - t1);
            }
        }
        if let Some(t_norm) = t_norm {
            self.push("cache.hit_overhead_us", t_srv - t_norm - t_after_extract);
        }
        if composed != hits {
            self.fail(format!(
                "read {i}: composed hits differ from SearchServer's"
            ));
        }
        // SearchServer's own cost on top of the database search.
        let (_, t_sf) = self.tr.call("core.search_features", || {
            server.search_features(&features, &first)
        });
        self.push("core.server_overhead_us", t_sf - t_sws);
        self.queries.push((features, first));

        let (report, t_hr) = self
            .tr
            .call("core.hits_report", || HitsReport::new(&snap, &hits));
        let resp = Response::Hits(report);
        let (rpayload, t_re) = self.tr.call("net.resp_encode", || proto::encode(&resp));
        let rpayload = rpayload.map_err(|e| e.to_string())?;
        let (rdecoded, t_rd) = self
            .tr
            .call("net.resp_decode", || proto::decode::<Response>(&rpayload));
        let rdecoded = rdecoded.map_err(|e| e.to_string())?;
        self.tr.end(root);

        let client = &mut self.client;
        let (wire, t_wire) = self.tr.call("net.wire", || client.request(&request));
        match (wire, rdecoded) {
            (Ok(Response::Hits(got)), Response::Hits(want)) if same_hits(&got, &want) => {}
            _ => self.fail(format!(
                "read {i}: the wire answer differs from the composed one"
            )),
        }
        let residual = t_wire - (t_enc + t_dec + t_srv + t_hr + t_re + t_rd);
        self.push("net.wire_us", t_wire);
        self.push("net.residual_us", residual);
        self.push("trace.residual_share_pct", residual / t_wire * 100.0);
        self.push("net.req_bytes", payload.len() as f64);
        self.push("net.resp_bytes", rpayload.len() as f64);
        Ok(())
    }

    /// Times `RTree::knn` for the query's space (and, on a stream
    /// without high-dimensional queries, for D2 and shell too) and
    /// checks it against the database's hits.
    fn knn(&mut self, features: &FeatureSet, first: &Query, db_hits: &[SearchHit], t_sws: f64) {
        let k = match first.mode {
            tdess_core::QueryMode::TopK(k) => k,
            tdess_core::QueryMode::Threshold(_) => return,
        };
        let mut kinds = vec![first.kind];
        if matches!(self.stream, ReadStream::Example { .. }) {
            kinds.extend([FeatureKind::ShapeDistribution, FeatureKind::ShellHistogram]);
        }
        for kind in kinds {
            let tree = &self.trees[kind as usize];
            let q = features.get(kind);
            std::hint::black_box(tree.knn(q, k, &mut QueryStats::default()));
            let (found, t) = self
                .tr
                .call("index.knn", || tree.knn(q, k, &mut QueryStats::default()));
            let found: Vec<(ShapeId, u64)> =
                found.iter().map(|&(_, &id, d)| (id, d.to_bits())).collect();
            let hi = high_dimensional(kind);
            self.push(
                if hi {
                    "index.knn_hi_us"
                } else {
                    "index.knn_lo_us"
                },
                t,
            );
            if kind == first.kind {
                self.push("core.search_us", t_sws - t);
                let want: Vec<(ShapeId, u64)> = db_hits
                    .iter()
                    .map(|h| (h.id, h.distance.to_bits()))
                    .collect();
                if found != want {
                    self.fail("RTree::knn disagrees with ShapeDatabase::search_with_stats".into());
                }
            }
        }
    }

    /// Applies writer operations to a copy of the snapshot, as
    /// `SearchServer::insert`/`remove` do, with the index work split
    /// out. Returns the inserted parts with their composed features.
    fn writes(&mut self, ops: &[Write], first_req: usize) -> Vec<(ShapeId, TriMesh, FeatureSet)> {
        let mut db: ShapeDatabase = (*self.snap).clone();
        let mut trees = self.trees.clone();
        let mut inserted = Vec::new();
        for (k, op) in ops.iter().enumerate() {
            self.tr.req = first_req + k;
            let root = self.tr.begin("write");
            match op {
                Write::Insert { name, mesh } => {
                    let (normalized, _) = self.tr.call("features.normalize", || normalize(mesh));
                    let Ok(normalized) = normalized else {
                        self.fail(format!("write {k}: normalize failed"));
                        self.tr.end(root);
                        continue;
                    };
                    let features = self.compose(mesh, &normalized);
                    let (mut next, _) = self.tr.call("core.snapshot_clone", || db.clone());
                    let (name, part, fs) = (name.clone(), mesh.clone(), features.clone());
                    let (id, _) = self.tr.call("core.insert_apply", || {
                        next.insert_precomputed(name, part, fs)
                    });
                    self.tr.call("index.insert", || {
                        for kind in FeatureKind::ALL {
                            trees[kind as usize].insert(features.get(kind).to_vec(), id);
                        }
                    });
                    db = next;
                    inserted.push((id, mesh.clone(), features));
                }
                Write::Remove { id } => {
                    let (mut next, _) = self.tr.call("core.snapshot_clone", || db.clone());
                    let (removed, _) = self.tr.call("core.remove_apply", || next.remove(*id));
                    match removed {
                        Ok(shape) => {
                            let (all, _) = self.tr.call("index.remove", || {
                                FeatureKind::ALL.iter().all(|&kind| {
                                    trees[kind as usize]
                                        .remove(shape.features.get(kind), |&p| p == *id)
                                        .is_some()
                                })
                            });
                            if !all {
                                self.fail(format!("write {k}: shape {id} missing from a tree"));
                            }
                        }
                        Err(e) => self.fail(format!("write {k}: {e}")),
                    }
                    db = next;
                }
            }
            self.tr.end(root);
        }
        for (id, _, features) in &inserted {
            let hits = db.search(
                features,
                &Query::top_k(FeatureKind::PrincipalMoments, workload::TOP_K),
            );
            if !hits
                .iter()
                .take_while(|h| h.distance == 0.0)
                .any(|h| h.id == *id)
            {
                self.fail(format!(
                    "inserted shape {id} is not its own nearest neighbour"
                ));
            }
        }
        if db.len() != self.snap.len() {
            self.fail("the balanced writes changed the shape count".into());
        }
        inserted
    }

    /// On a stream without mesh reads: each written part queried cold
    /// and then warm through the cached in-process server.
    fn cache_probe(&mut self, parts: &[(ShapeId, TriMesh, FeatureSet)]) -> Result<(), String> {
        let server = SearchServer::with_cache((*self.snap).clone(), CacheConfig::default());
        let snap = server.snapshot();
        for (_, mesh, features) in parts {
            let query = Query::top_k(FeatureKind::PrincipalMoments, workload::TOP_K);
            server
                .search_mesh(mesh, &query)
                .map_err(|e| e.to_string())?;
            let (warm, t_srv) = self
                .tr
                .call("core.search_mesh", || server.search_mesh(mesh, &query));
            let (_, t_norm) = self.tr.call("features.normalize", || normalize(mesh));
            let (want, t_sws) = self.tr.call("core.search_with_stats", || {
                snap.search_with_stats(features, &query, &mut QueryStats::default())
            });
            if warm.map_err(|e| e.to_string())? != want {
                self.fail("a warm cache hit answered differently".into());
            }
            self.push("cache.hit_overhead_us", t_srv - t_norm - t_sws);
        }
        let c = server
            .cache_stats()
            .ok_or("the probe server has no cache")?;
        self.push(
            "cache.hit_ratio",
            c.hits as f64 / (c.hits + c.misses) as f64,
        );
        Ok(())
    }

    /// `SearchServer::search_features` at the shipped log level against
    /// `Off`, alternating which goes first, on the replayed queries.
    fn stage_overhead_pct(&self) -> f64 {
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for round in 0..3 {
            for (j, (features, query)) in self.queries.iter().take(OBS_QUERIES).enumerate() {
                for level in if (j + round) % 2 == 0 {
                    [Level::Info, Level::Off]
                } else {
                    [Level::Off, Level::Info]
                } {
                    tdess_obs::set_level(level);
                    let t0 = Instant::now();
                    std::hint::black_box(self.server.search_features(features, query));
                    let us = t0.elapsed().as_secs_f64() * 1e6;
                    if level == Level::Off {
                        off.push(us)
                    } else {
                        on.push(us)
                    }
                }
            }
        }
        tdess_obs::set_level(Level::Info);
        (median(&on) / median(&off) - 1.0) * 100.0
    }
}

fn high_dimensional(kind: FeatureKind) -> bool {
    matches!(
        kind,
        FeatureKind::ShapeDistribution | FeatureKind::ShellHistogram
    )
}

fn same_features(a: &FeatureSet, b: &FeatureSet) -> bool {
    FeatureKind::ALL.iter().all(|&k| {
        let (x, y) = (a.get(k), b.get(k));
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    })
}

/// `core.db_build_s`: `insert_batch_precomputed` of the snapshot's
/// shapes (the synthetic corpus regenerated, or the corpus shapes),
/// checked against the served snapshot.
fn db_build_s(workload: Workload, snap: &ShapeDatabase) -> Result<(f64, bool), String> {
    let extractor = *snap.extractor();
    let items = match workload.snapshot() {
        procs::Snapshot::Synthetic => synth_corpus(&extractor, SYNTH_SEED, SYNTH_COUNT)
            .map_err(|e| format!("synth corpus: {e}"))?,
        procs::Snapshot::Corpus => snap
            .shapes()
            .iter()
            .map(|s| (s.name.clone(), s.mesh.clone(), s.features.clone()))
            .collect(),
    };
    let mut db = ShapeDatabase::new(extractor);
    let t0 = Instant::now();
    db.insert_batch_precomputed(items);
    let secs = t0.elapsed().as_secs_f64();
    let same = db.len() == snap.len()
        && FeatureKind::ALL
            .iter()
            .all(|&k| db.dmax(k).to_bits() == snap.dmax(k).to_bits());
    Ok((secs, same))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    tdess_obs::set_level(Level::Info);
    let stream = ReadStream::new(w, args.seed)?;
    let dir = TempDir::new(&args.work_dir.join("tmp"), "traced")?;
    let (mut served, _) = procs::set_up(&args.tdess, w.snapshot(), dir)?;
    // The set-up layers are timed unpinned, as `setup_s` is: their tree
    // builds run on scoped threads.
    let t0 = Instant::now();
    let snap = load_from_path(&served.db).map_err(|e| format!("loading the snapshot: {e}"))?;
    let snapshot_load_s = t0.elapsed().as_secs_f64();
    let (db_build_s, same_build) = db_build_s(w, &snap)?;
    served.pin();

    // Untraced reads first: the baseline for the tracing overhead.
    let mut client = connect(&served)?;
    let warm = read_loop(
        &mut client,
        &stream,
        0..warmup_reads(w),
        Instant::now() + Duration::from_secs(60),
        |_| false,
    );
    let timed = read_loop(
        &mut client,
        &stream,
        warm.next..usize::MAX,
        Instant::now() + Duration::from_secs(args.seconds),
        |_| false,
    );
    let timed_p50_us = median(&timed.lat_ms) * 1e3;

    // A fresh server, so its cache starts where the in-process one does.
    served.restart(&args.tdess)?;
    served.pin();
    let trees = FeatureKind::ALL
        .iter()
        .map(|&kind| {
            let entries = snap
                .shapes()
                .iter()
                .map(|s| (s.features.get(kind).to_vec(), s.id))
                .collect();
            RTree::bulk_load(snap.extractor().dim(kind), RTreeConfig::default(), entries)
        })
        .collect();
    // The composed calls search the very snapshot the server holds.
    let server = SearchServer::with_cache(snap, CacheConfig::default());
    let snap = server.snapshot();
    let mut replay = Replay {
        tr: Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        },
        stream: &stream,
        extractor: *snap.extractor(),
        server,
        snap,
        trees,
        client: connect(&served)?,
        scratch: Scratch {
            voxels: VoxelGrid::new(1, 1, 1, Vec3::ZERO, 1.0),
            skeleton: VoxelGrid::new(1, 1, 1, Vec3::ZERO, 1.0),
            flood: FloodScratch::default(),
            thin: ThinScratch::default(),
        },
        parts: HashMap::new(),
        queries: Vec::new(),
        samples: BTreeMap::new(),
        failed: 0,
    };
    if !same_build {
        replay.fail("the rebuilt database differs from the served snapshot".into());
    }
    let reads = replayed_reads(w);
    for i in 0..reads {
        replay.read(i)?;
    }
    if let Some(c) = replay
        .server
        .cache_stats()
        .filter(|_| matches!(stream, ReadStream::Example { .. }))
    {
        replay.push(
            "cache.hit_ratio",
            c.hits as f64 / (c.hits + c.misses) as f64,
        );
    }
    let ops = workload::writes(
        args.seed,
        PROBE_WRITES / 2,
        PROBE_WRITES / 2,
        replay.snap.len(),
    );
    let inserted = replay.writes(&ops, reads);
    if !matches!(stream, ReadStream::Example { .. }) {
        replay.cache_probe(&inserted)?;
    }
    let stage_overhead_pct = replay.stage_overhead_pct();
    let trace_path = args
        .work_dir
        .join("traces")
        .join(format!("{}-{}.jsonl", w.name(), args.seed));
    replay.tr.write_jsonl(&trace_path)?;
    drop(served);

    let selfs = replay.tr.self_times();
    let s = &replay.samples;
    let wire_p50_us = median(s.get("net.wire_us").map_or(&[][..], Vec::as_slice));
    let med = |v: Option<&Vec<f64>>| median(v.map_or(&[][..], Vec::as_slice));
    let p99 = |v: Option<&Vec<f64>>| quantile(v.map_or(&[][..], Vec::as_slice), 0.99);
    let mean = |v: Option<&Vec<f64>>| {
        let v = v.map_or(&[][..], Vec::as_slice);
        v.iter().sum::<f64>() / v.len() as f64
    };
    let ms = |name: &str| {
        selfs
            .get(name)
            .map(|v| v.iter().map(|x| x / 1e3).collect::<Vec<_>>())
    };
    let metrics = vec![
        Metric {
            name: "net.req_bytes",
            value: med(s.get("net.req_bytes")),
            unit: "B",
        },
        Metric {
            name: "net.resp_bytes",
            value: med(s.get("net.resp_bytes")),
            unit: "B",
        },
        Metric {
            name: "net.req_encode_us",
            value: med(selfs.get("net.req_encode")),
            unit: "us",
        },
        Metric {
            name: "net.req_decode_us",
            value: med(selfs.get("net.req_decode")),
            unit: "us",
        },
        Metric {
            name: "net.resp_encode_us",
            value: med(selfs.get("net.resp_encode")),
            unit: "us",
        },
        Metric {
            name: "net.resp_decode_us",
            value: med(selfs.get("net.resp_decode")),
            unit: "us",
        },
        Metric {
            name: "net.residual_us",
            value: med(s.get("net.residual_us")),
            unit: "us",
        },
        Metric {
            name: "core.server_overhead_us",
            value: med(s.get("core.server_overhead_us")),
            unit: "us",
        },
        Metric {
            name: "core.search_us",
            value: med(s.get("core.search_us")),
            unit: "us",
        },
        Metric {
            name: "core.multistep_us",
            value: med(s.get("core.multistep_us")),
            unit: "us",
        },
        Metric {
            name: "core.hits_report_us",
            value: med(selfs.get("core.hits_report")),
            unit: "us",
        },
        Metric {
            name: "core.snapshot_clone_ms",
            value: med(ms("core.snapshot_clone").as_ref()),
            unit: "ms",
        },
        Metric {
            name: "core.snapshot_clone_ms_p99",
            value: p99(ms("core.snapshot_clone").as_ref()),
            unit: "ms",
        },
        Metric {
            name: "core.insert_apply_ms",
            value: med(ms("core.insert_apply").as_ref()),
            unit: "ms",
        },
        Metric {
            name: "core.remove_apply_ms",
            value: med(ms("core.remove_apply").as_ref()),
            unit: "ms",
        },
        Metric {
            name: "core.db_build_s",
            value: db_build_s,
            unit: "s",
        },
        Metric {
            name: "core.snapshot_load_s",
            value: snapshot_load_s,
            unit: "s",
        },
        Metric {
            name: "index.knn_lo_us",
            value: med(s.get("index.knn_lo_us")),
            unit: "us",
        },
        Metric {
            name: "index.knn_hi_us",
            value: med(s.get("index.knn_hi_us")),
            unit: "us",
        },
        Metric {
            name: "index.knn_hi_us_p99",
            value: p99(s.get("index.knn_hi_us")),
            unit: "us",
        },
        Metric {
            name: "index.nodes_per_query",
            value: mean(s.get("index.nodes_per_query")),
            unit: "count",
        },
        Metric {
            name: "index.entries_per_query",
            value: mean(s.get("index.entries_per_query")),
            unit: "count",
        },
        Metric {
            name: "index.insert_us",
            value: med(selfs.get("index.insert")),
            unit: "us",
        },
        Metric {
            name: "index.remove_us",
            value: med(selfs.get("index.remove")),
            unit: "us",
        },
        Metric {
            name: "cache.hit_ratio",
            value: med(s.get("cache.hit_ratio")),
            unit: "ratio",
        },
        Metric {
            name: "cache.hit_overhead_us",
            value: med(s.get("cache.hit_overhead_us")),
            unit: "us",
        },
        Metric {
            name: "features.normalize_ms",
            value: med(ms("features.normalize").as_ref()),
            unit: "ms",
        },
        Metric {
            name: "features.mesh_vectors_ms",
            value: med(ms("features.mesh_vectors").as_ref()),
            unit: "ms",
        },
        Metric {
            name: "voxel.voxelize_ms",
            value: med(ms("voxel.voxelize").as_ref()),
            unit: "ms",
        },
        Metric {
            name: "voxel.voxelize_ms_p99",
            value: p99(ms("voxel.voxelize").as_ref()),
            unit: "ms",
        },
        Metric {
            name: "voxel.filled",
            value: med(s.get("voxel.filled")),
            unit: "count",
        },
        Metric {
            name: "skeleton.thin_ms",
            value: med(ms("skeleton.thin").as_ref()),
            unit: "ms",
        },
        Metric {
            name: "skeleton.thin_ms_p99",
            value: p99(ms("skeleton.thin").as_ref()),
            unit: "ms",
        },
        Metric {
            name: "skeleton.voxels",
            value: med(s.get("skeleton.voxels")),
            unit: "count",
        },
        Metric {
            name: "skeleton.prune_ms",
            value: med(ms("skeleton.prune").as_ref()),
            unit: "ms",
        },
        Metric {
            name: "skeleton.graph_ms",
            value: med(ms("skeleton.graph").as_ref()),
            unit: "ms",
        },
        Metric {
            name: "skeleton.spectrum_ms",
            value: med(ms("skeleton.spectrum").as_ref()),
            unit: "ms",
        },
        Metric {
            name: "obs.stage_overhead_pct",
            value: stage_overhead_pct,
            unit: "%",
        },
        Metric {
            name: "trace.overhead_pct",
            value: (wire_p50_us / timed_p50_us - 1.0) * 100.0,
            unit: "%",
        },
        Metric {
            name: "trace.residual_share_pct",
            value: med(s.get("trace.residual_share_pct")),
            unit: "%",
        },
    ];
    eprintln!(
        "perfbench: traced {} reads and {} writes; wire p50 {wire_p50_us:.1} us traced vs {timed_p50_us:.1} us untraced; spans in {}",
        reads,
        ops.len(),
        trace_path.display()
    );
    let missing: Vec<&str> = metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    if !missing.is_empty() {
        replay.failed += 1;
        eprintln!("perfbench: traced run measured nothing for {missing:?}");
    }
    Ok(Outcome {
        correct: replay.failed == 0 && timed.failed == 0,
        attempted: timed.attempted + reads + ops.len(),
        failed: replay.failed + timed.failed,
        metrics,
    })
}
