//! Persistence and index-build behavior at 10³/10⁴/10⁵ shapes — the
//! scale regime of §2.3's "large synthetic databases", applied to the
//! storage layer.
//!
//! For each scale a synthetic corpus (feature vectors jittered around
//! the 26 family anchors, see `tdess_dataset::synth_corpus`) is
//! indexed and then:
//!
//! * **persistence** — the database is saved and re-loaded in the
//!   binary `TDSS` snapshot format and (at 10³/10⁴) in the JSON compat
//!   format, wall time for each; the JSON path is skipped at 10⁵
//!   because the serde value tree alone needs gigabytes of RAM there,
//!   which is precisely why the binary format exists;
//! * **index build** — every feature space's R-tree built by STR bulk
//!   loading vs one-at-a-time insertion, build wall time plus mean
//!   kNN node accesses over 100 stored-vector queries on each;
//! * **per-space kNN** — for each feature space, top-10 kNN wall time
//!   and entries checked per query over 100 unseen shapes (a corpus
//!   from another seed), on the bulk-loaded tree and again after
//!   one-at-a-time inserts of 20% more shapes from a third seed. The
//!   run exits
//!   non-zero if inserts leave any space checking more than
//!   [`CHURN_BOUND`]× the entries of its bulk-loaded tree;
//! * **equivalence** — search results from the re-loaded binary (and
//!   JSON, where produced) database are checked bit-identical to the
//!   in-memory database before any timing is trusted;
//! * **write latency** — the database is wrapped in a `SearchServer`,
//!   and `SearchServer::insert` (extraction included) of the same
//!   fixed set of real family parts, then `SearchServer::remove` of
//!   those ids, are timed one by one; p50/p90 per scale show how the
//!   cost of a write grows with database size. The parts are outliers
//!   among the synthetic shapes, so some of them end a diameter: the
//!   row counts the removes that recompute a space's `dmax` (a leaving
//!   vector at distance `dmax` from a stored one), the price of exact
//!   scores;
//! * **worst-case remove** — a synthetic shape beyond every stored one
//!   in every space, added before the server is built, ends every
//!   diameter, so its `SearchServer::remove` recomputes all seven:
//!   [`WITNESS_REMOVES`] fresh servers each time that remove.
//!
//! Outputs:
//! * `BENCH_scale.json` — machine-readable numbers;
//! * `results/tab_scale.txt` — the rendered table.
//!
//! `--smoke` runs the 10³ scale only: same code path, CI-sized.

use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tdess_bench::{quantile, write_bench_json, write_or_die, CORPUS_SEED};
use tdess_core::{
    load_from_path, save_to_path, save_to_path_binary, weighted_distance, Query, SearchHit,
    SearchServer, ShapeDatabase, Weights,
};
use tdess_dataset::{synth_corpus, Family};
use tdess_eval::render_table;
use tdess_features::{FeatureExtractor, FeatureKind, FeatureSet};
use tdess_geom::TriMesh;
use tdess_index::{QueryStats, RTree, RTreeConfig};

/// Anchor-extraction resolution. Only 26 meshes are ever voxelized, so
/// this is a fixed setup cost, not part of any measured interval.
const ANCHOR_RESOLUTION: usize = 24;

/// kNN queries per (scale, kind, structure) when counting node
/// accesses.
const QUERIES: usize = 100;

/// JSON save/load is only measured up to this many shapes; beyond it
/// the in-memory serde value tree dwarfs the database itself.
const JSON_MAX_SHAPES: usize = 10_000;

/// Timed inserts (and then removes) per scale.
const WRITES: usize = 50;

/// Timed removes of the shape that ends every diameter, per scale.
const WITNESS_REMOVES: usize = 5;

/// Entries a churned tree may check per query, as a multiple of its
/// bulk-loaded tree's; beyond it inserts have degraded the index.
const CHURN_BOUND: f64 = 1.25;

/// Seeds of the unseen query shapes and of the shapes inserted into
/// the bulk-loaded trees: neither the corpus's nor each other's, so the
/// inserted shapes sit no nearer the queries than the stored ones.
const QUERY_SEED: u64 = CORPUS_SEED + 2;
const INSERT_SEED: u64 = CORPUS_SEED + 3;

struct PersistNumbers {
    bin_bytes: u64,
    bin_save_s: f64,
    bin_load_s: f64,
    json: Option<(u64, f64, f64)>, // bytes, save s, load s
}

struct WriteNumbers {
    insert_p50_ms: f64,
    insert_p90_ms: f64,
    remove_p50_ms: f64,
    remove_p90_ms: f64,
    /// Removes that recomputed at least one space's `dmax`.
    recomputing_removes: usize,
    /// Median and slowest remove of the shape that ends every diameter.
    witness_remove_p50_ms: f64,
    witness_remove_max_ms: f64,
}

/// Top-10 kNN cost in one feature space: mean µs and entries checked
/// per unseen query, bulk-loaded and after inserts.
struct SpaceNumbers {
    kind: FeatureKind,
    bulk_us: f64,
    bulk_entries: f64,
    churned_us: f64,
    churned_entries: f64,
}

struct IndexNumbers {
    str_build_s: f64,
    incr_build_s: f64,
    str_nodes_per_query: f64,
    incr_nodes_per_query: f64,
}

fn main() {
    let smoke = tdess_bench::smoke();
    let scales: &[usize] = if smoke {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };

    let extractor = FeatureExtractor {
        voxel_resolution: ANCHOR_RESOLUTION,
        ..Default::default()
    };
    let dir = std::env::temp_dir().join("tdess_tab_scale");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: creating {}: {e}", dir.display());
        std::process::exit(1);
    }

    // The same real parts are inserted at every scale, so extraction
    // cost is held fixed and only the write path varies.
    let mut part_rng = StdRng::seed_from_u64(CORPUS_SEED + 1);
    let parts: Vec<(String, TriMesh)> = (0..WRITES)
        .map(|i| {
            let family = Family::ALL[i % Family::ALL.len()];
            (
                format!("write-{}-{i}", family.name()),
                family.generate(&mut part_rng),
            )
        })
        .collect();

    let mut rows = Vec::new();
    let mut write_rows = Vec::new();
    let mut space_rows = Vec::new();
    let mut degraded = Vec::new();
    let mut scale_json = Vec::new();
    for &n in scales {
        eprintln!("[setup] generating {n} synthetic shapes (seed {CORPUS_SEED})");
        let shapes = match synth_corpus(&extractor, CORPUS_SEED, n) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: anchor extraction: {e}");
                std::process::exit(1);
            }
        };

        let t0 = Instant::now();
        let mut db = ShapeDatabase::new(extractor);
        db.insert_batch_precomputed(shapes.clone());
        let db_build_s = t0.elapsed().as_secs_f64();
        eprintln!("[setup] database of {n} indexed in {db_build_s:.2}s");

        let index = index_numbers(&db, n);
        let spaces = space_numbers(&db, &extractor, n);
        let persist = persist_numbers(&db, n, &dir);
        let writes = write_numbers(db, &parts);

        rows.push(vec![
            n.to_string(),
            format!("{:.1}", persist.bin_bytes as f64 / 1e6),
            format!("{:.3}", persist.bin_save_s),
            format!("{:.3}", persist.bin_load_s),
            persist
                .json
                .map_or("- (skipped)".into(), |(_, s, _)| format!("{s:.3}")),
            persist
                .json
                .map_or("- (skipped)".into(), |(_, _, l)| format!("{l:.3}")),
            persist.json.map_or("-".into(), |(_, _, l)| {
                format!("{:.1}x", l / persist.bin_load_s.max(1e-12))
            }),
            format!("{:.3}", index.str_build_s),
            format!("{:.3}", index.incr_build_s),
            format!("{:.1}", index.str_nodes_per_query),
            format!("{:.1}", index.incr_nodes_per_query),
        ]);
        for sp in &spaces {
            let ratio = sp.churned_entries / sp.bulk_entries.max(1.0);
            if ratio > CHURN_BOUND {
                degraded.push(format!("{:?} at {n}: {ratio:.2}x", sp.kind));
            }
            space_rows.push(vec![
                n.to_string(),
                sp.kind.label().to_string(),
                format!("{:.1}", sp.bulk_us),
                format!("{:.0}", sp.bulk_entries),
                format!("{:.1}", sp.churned_us),
                format!("{:.0}", sp.churned_entries),
                format!("{ratio:.2}x"),
            ]);
        }
        write_rows.push(vec![
            n.to_string(),
            format!("{:.2}", writes.insert_p50_ms),
            format!("{:.2}", writes.insert_p90_ms),
            format!("{:.3}", writes.remove_p50_ms),
            format!("{:.3}", writes.remove_p90_ms),
            format!("{} of {WRITES}", writes.recomputing_removes),
            format!("{:.2}", writes.witness_remove_p50_ms),
            format!("{:.2}", writes.witness_remove_max_ms),
        ]);

        let persist_json = {
            let json_part = match persist.json {
                Some((bytes, save_s, load_s)) => serde_json::json!({
                    "bytes": bytes,
                    "save_s": save_s,
                    "load_s": load_s,
                    "load_speedup_binary_vs_json": load_s / persist.bin_load_s.max(1e-12),
                }),
                None => serde_json::json!(null),
            };
            serde_json::json!({
                "binary_bytes": persist.bin_bytes,
                "binary_save_s": persist.bin_save_s,
                "binary_load_s": persist.bin_load_s,
                "json": json_part,
                "json_skipped_above_shapes": JSON_MAX_SHAPES,
            })
        };
        let index_json = serde_json::json!({
            "str_build_s": index.str_build_s,
            "incremental_build_s": index.incr_build_s,
            "str_nodes_per_query": index.str_nodes_per_query,
            "incremental_nodes_per_query": index.incr_nodes_per_query,
        });
        let writes_json = serde_json::json!({
            "samples": WRITES,
            "insert_p50_ms": writes.insert_p50_ms,
            "insert_p90_ms": writes.insert_p90_ms,
            "remove_p50_ms": writes.remove_p50_ms,
            "remove_p90_ms": writes.remove_p90_ms,
            "removes_recomputing_dmax": writes.recomputing_removes,
            "witness_remove_samples": WITNESS_REMOVES,
            "witness_remove_p50_ms": writes.witness_remove_p50_ms,
            "witness_remove_max_ms": writes.witness_remove_max_ms,
        });
        let spaces_json: Vec<serde_json::Value> = spaces
            .iter()
            .map(|sp| {
                serde_json::json!({
                    "kind": format!("{:?}", sp.kind),
                    "bulk_knn_us": sp.bulk_us,
                    "bulk_entries_per_query": sp.bulk_entries,
                    "churned_knn_us": sp.churned_us,
                    "churned_entries_per_query": sp.churned_entries,
                })
            })
            .collect();
        scale_json.push(serde_json::json!({
            "shapes": n,
            "db_build_s": db_build_s,
            "persist": persist_json,
            "index": index_json,
            "knn_per_space": serde_json::Value::Arr(spaces_json),
            "writes": writes_json,
        }));
    }

    let headers = [
        "shapes",
        "bin MB",
        "bin save s",
        "bin load s",
        "json save s",
        "json load s",
        "load speedup",
        "STR build s",
        "incr build s",
        "STR nodes/q",
        "incr nodes/q",
    ];
    let table = render_table(&headers, &rows);
    let title = format!(
        "Persistence and index build at scale — synthetic corpora, binary vs JSON snapshots{}",
        if smoke { " [smoke]" } else { "" }
    );
    println!("\n{title}");
    println!("{table}");
    println!(
        "JSON format measured up to {JSON_MAX_SHAPES} shapes; larger databases are binary-only. \
         Build times sum all {} feature-space trees.",
        FeatureKind::ALL.len()
    );
    let write_headers = [
        "shapes",
        "insert p50 ms",
        "insert p90 ms",
        "remove p50 ms",
        "remove p90 ms",
        "removes recomputing dmax",
        "all-space witness remove p50 ms",
        "max ms",
    ];
    let write_table = render_table(&write_headers, &write_rows);
    let write_title = format!(
        "Write latency through SearchServer — {WRITES} inserts of real parts \
         (extraction included), then {WRITES} removes of those ids; and {WITNESS_REMOVES} \
         removes of a shape that ends the diameter in every space"
    );
    println!("\n{write_title}");
    println!("{write_table}");
    let space_headers = [
        "shapes",
        "space",
        "bulk µs/q",
        "bulk entries/q",
        "churned µs/q",
        "churned entries/q",
        "churned/bulk",
    ];
    let space_table = render_table(&space_headers, &space_rows);
    let space_title = format!(
        "Top-10 kNN per feature space — {QUERIES} unseen queries, on the bulk-loaded tree \
         and after one-at-a-time inserts of 20% more shapes (bound {CHURN_BOUND}x entries)"
    );
    println!("\n{space_title}");
    println!("{space_table}");

    let json = serde_json::json!({
        "corpus_seed": CORPUS_SEED,
        "anchor_resolution": ANCHOR_RESOLUTION,
        "queries_per_tree": QUERIES,
        "query_seed": QUERY_SEED,
        "insert_seed": INSERT_SEED,
        "churn_bound": CHURN_BOUND,
        "scales": serde_json::Value::Arr(scale_json),
    });
    write_bench_json("tab_scale", smoke, json);
    if !smoke {
        let _ = std::fs::create_dir_all("results");
        write_or_die(
            "results/tab_scale.txt",
            &format!(
                "{title}\n{table}\n\n{write_title}\n{write_table}\n\n{space_title}\n{space_table}\n"
            ),
        );
    }
    if !degraded.is_empty() {
        eprintln!(
            "error: inserts degraded the index past {CHURN_BOUND}x entries per query: {}",
            degraded.join(", ")
        );
        std::process::exit(1);
    }
}

/// Best wall time of `REPS` runs of `f` — the standard guard against a
/// single run eating a page-cache miss or scheduler hiccup.
fn best_of<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    const REPS: usize = 5;
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let out = f();
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    (best, last.expect("REPS is nonzero"))
}

/// Saves and re-loads `db` in both formats (best of three runs each),
/// verifying the round trips give bit-identical search results before
/// reporting any timing.
fn persist_numbers(db: &ShapeDatabase, n: usize, dir: &Path) -> PersistNumbers {
    let bin_path = dir.join(format!("scale_{n}.tdss"));
    let (bin_save_s, ()) = best_of(|| {
        if let Err(e) = save_to_path_binary(db, &bin_path) {
            eprintln!("error: binary save at {n}: {e}");
            std::process::exit(1);
        }
    });
    let bin_bytes = std::fs::metadata(&bin_path).map(|m| m.len()).unwrap_or(0);
    let (bin_load_s, from_bin) = best_of(|| match load_from_path(&bin_path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: binary load at {n}: {e}");
            std::process::exit(1);
        }
    });
    assert_identical_results(db, &from_bin, "binary");
    let _ = std::fs::remove_file(&bin_path);

    let json = if n <= JSON_MAX_SHAPES {
        let json_path = dir.join(format!("scale_{n}.json"));
        let (save_s, ()) = best_of(|| {
            if let Err(e) = save_to_path(db, &json_path) {
                eprintln!("error: json save at {n}: {e}");
                std::process::exit(1);
            }
        });
        let bytes = std::fs::metadata(&json_path).map(|m| m.len()).unwrap_or(0);
        let (load_s, from_json) = best_of(|| match load_from_path(&json_path) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("error: json load at {n}: {e}");
                std::process::exit(1);
            }
        });
        assert_identical_results(db, &from_json, "json");
        let _ = std::fs::remove_file(&json_path);
        Some((bytes, save_s, load_s))
    } else {
        eprintln!("[note] {n} shapes: JSON path skipped (> {JSON_MAX_SHAPES})");
        None
    };

    PersistNumbers {
        bin_bytes,
        bin_save_s,
        bin_load_s,
        json,
    }
}

/// kNN results from a re-loaded database must match the source bit for
/// bit — otherwise the timing numbers describe a different database.
fn assert_identical_results(a: &ShapeDatabase, b: &ShapeDatabase, format: &str) {
    if a.len() != b.len() {
        eprintln!(
            "error: {format} reload has {} of {} shapes",
            b.len(),
            a.len()
        );
        std::process::exit(1);
    }
    let step = (a.len() / 16).max(1);
    for shape in a.shapes().iter().step_by(step) {
        for kind in FeatureKind::ALL {
            let q = Query::top_k(kind, 10);
            let ha = a.search(&shape.features, &q);
            let hb = b.search(&shape.features, &q);
            let same = ha.len() == hb.len()
                && ha.iter().zip(&hb).all(|(x, y): (&SearchHit, &SearchHit)| {
                    x.id == y.id && x.distance.to_bits() == y.distance.to_bits()
                });
            if !same {
                eprintln!(
                    "error: {format} reload gives different {kind:?} results for `{}`",
                    shape.name
                );
                std::process::exit(1);
            }
        }
    }
}

/// Times `SearchServer::insert` of every part, then
/// `SearchServer::remove` of the ids just inserted, one write at a
/// time; the database ends at the size it started at. Then times the
/// worst-case remove ([`witness_remove_ms`]).
fn write_numbers(db: ShapeDatabase, parts: &[(String, TriMesh)]) -> WriteNumbers {
    let n = db.len();
    let mut witness_ms = witness_remove_ms(&db);
    let server = SearchServer::new(db);
    let mut insert_ms = Vec::with_capacity(parts.len());
    let mut ids = Vec::with_capacity(parts.len());
    for (name, mesh) in parts {
        let (name, mesh) = (name.clone(), mesh.clone());
        let t0 = Instant::now();
        let inserted = server.insert(name, mesh);
        insert_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match inserted {
            Ok(id) => ids.push(id),
            Err(e) => {
                eprintln!("error: insert at {n}: {e}");
                std::process::exit(1);
            }
        }
    }
    let mut remove_ms = Vec::with_capacity(ids.len());
    let mut recomputing_removes = 0;
    for id in ids {
        let recomputes = recomputes_dmax(&server.snapshot(), id);
        let t0 = Instant::now();
        let removed = server.remove(id);
        remove_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = removed {
            eprintln!("error: remove of {id} at {n}: {e}");
            std::process::exit(1);
        }
        recomputing_removes += usize::from(recomputes);
    }
    if server.len() != n {
        eprintln!(
            "error: {} shapes after balanced writes, expected {n}",
            server.len()
        );
        std::process::exit(1);
    }
    witness_ms.sort_by(f64::total_cmp);
    WriteNumbers {
        insert_p50_ms: quantile(&insert_ms, 0.5),
        insert_p90_ms: quantile(&insert_ms, 0.9),
        remove_p50_ms: quantile(&remove_ms, 0.5),
        remove_p90_ms: quantile(&remove_ms, 0.9),
        recomputing_removes,
        witness_remove_p50_ms: quantile(&witness_ms, 0.5),
        witness_remove_max_ms: witness_ms.last().copied().unwrap_or(f64::NAN),
    }
}

/// Whether removing shape `id` makes `db` recompute a space's `dmax`:
/// its vector lies at distance `dmax` (which is positive) from another
/// stored one — the condition `ShapeDatabase::remove` tests with
/// `RTree::farthest`, here by a scan.
fn recomputes_dmax(db: &ShapeDatabase, id: u64) -> bool {
    let Some(leaving) = db.get(id) else {
        return false;
    };
    FeatureKind::ALL.into_iter().any(|kind| {
        let dmax = db.dmax(kind);
        let x = leaving.features.get(kind);
        dmax > 0.0
            && db.shapes().iter().any(|s| {
                s.id != id && weighted_distance(x, s.features.get(kind), &Weights::unit()) >= dmax
            })
    })
}

/// Adds to a copy of `db` a synthetic shape beyond every stored one in
/// every space (each coordinate past the stored maximum by the stored
/// span plus one), so it ends every space's diameter, and times
/// `SearchServer::remove` of it on [`WITNESS_REMOVES`] fresh servers:
/// each remove recomputes all seven diameters.
fn witness_remove_ms(db: &ShapeDatabase) -> Vec<f64> {
    let Some(first) = db.shapes().iter().next() else {
        return Vec::new();
    };
    let beyond = |kind: FeatureKind| -> Vec<f64> {
        (0..db.extractor().dim(kind))
            .map(|d| {
                let values = db.shapes().iter().map(|s| s.features.get(kind)[d]);
                let (lo, hi) = values.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                    (lo.min(v), hi.max(v))
                });
                hi + (hi - lo) + 1.0
            })
            .collect()
    };
    let features = FeatureSet {
        moment_invariants: beyond(FeatureKind::MomentInvariants),
        geometric: beyond(FeatureKind::GeometricParams),
        principal_moments: beyond(FeatureKind::PrincipalMoments),
        eigenvalues: beyond(FeatureKind::Eigenvalues),
        higher_order: beyond(FeatureKind::HigherOrder),
        shape_distribution: beyond(FeatureKind::ShapeDistribution),
        shell_histogram: beyond(FeatureKind::ShellHistogram),
    };
    let mut with_witness = db.clone();
    let witness = with_witness.insert_precomputed("witness", first.mesh.clone(), features);
    (0..WITNESS_REMOVES)
        .map(|_| {
            let server = SearchServer::new(with_witness.clone());
            if !recomputes_dmax(&server.snapshot(), witness) {
                eprintln!("error: the witness shape ends no diameter");
                std::process::exit(1);
            }
            let t0 = Instant::now();
            let removed = server.remove(witness);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let restored = FeatureKind::ALL
                .iter()
                .all(|&k| server.snapshot().dmax(k).to_bits() == db.dmax(k).to_bits());
            if removed.is_err() || !restored {
                eprintln!("error: removing the witness did not restore every dmax");
                std::process::exit(1);
            }
            ms
        })
        .collect()
}

/// Per feature space: top-10 kNN over [`QUERIES`] unseen shapes on the
/// bulk-loaded tree, then on the same tree after one-at-a-time inserts
/// of `n / 5` more shapes from [`INSERT_SEED`]. Time is the fastest of
/// [`best_of`]'s passes; entry counts repeat exactly.
fn space_numbers(db: &ShapeDatabase, extractor: &FeatureExtractor, n: usize) -> Vec<SpaceNumbers> {
    let unseen = |seed, count| match synth_corpus(extractor, seed, count) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: unseen anchor extraction: {e}");
            std::process::exit(1);
        }
    };
    let (queries, extra) = (unseen(QUERY_SEED, QUERIES), unseen(INSERT_SEED, n / 5));
    let knn_cost = |tree: &RTree<u64>, kind: FeatureKind| {
        let mut stats = QueryStats::default();
        for (_, _, f) in &queries {
            std::hint::black_box(tree.knn(f.get(kind), 10, &mut stats));
        }
        let (best_s, ()) = best_of(|| {
            for (_, _, f) in &queries {
                std::hint::black_box(tree.knn(f.get(kind), 10, &mut QueryStats::default()));
            }
        });
        let q = queries.len() as f64;
        (best_s * 1e6 / q, stats.entries_checked as f64 / q)
    };
    FeatureKind::ALL
        .into_iter()
        .map(|kind| {
            let points: Vec<(&[f64], u64)> = db
                .shapes()
                .iter()
                .map(|s| (s.features.get(kind), s.id))
                .collect();
            let bulk = RTree::bulk_load(db.extractor().dim(kind), RTreeConfig::default(), points);
            let (bulk_us, bulk_entries) = knn_cost(&bulk, kind);
            let mut churned = bulk;
            for (i, (_, _, f)) in extra.iter().enumerate() {
                churned.insert(f.get(kind), (n + i) as u64 + 1);
            }
            let (churned_us, churned_entries) = knn_cost(&churned, kind);
            SpaceNumbers {
                kind,
                bulk_us,
                bulk_entries,
                churned_us,
                churned_entries,
            }
        })
        .collect()
}

/// Builds each feature space's tree twice — STR bulk load vs
/// incremental insertion — and compares build time and query node
/// accesses; both trees must return bit-identical distances.
fn index_numbers(db: &ShapeDatabase, n: usize) -> IndexNumbers {
    let config = RTreeConfig::default();
    let mut str_build_s = 0.0;
    let mut incr_build_s = 0.0;
    let mut str_stats = QueryStats::default();
    let mut incr_stats = QueryStats::default();
    let mut query_count = 0usize;
    for kind in FeatureKind::ALL {
        let dim = db.extractor().dim(kind);
        let points: Vec<(&[f64], u64)> = db
            .shapes()
            .iter()
            .map(|s| (s.features.get(kind), s.id))
            .collect();

        let t0 = Instant::now();
        let bulk: RTree<u64> = RTree::bulk_load(dim, config, points.clone());
        str_build_s += t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let mut incr: RTree<u64> = RTree::new(dim, config);
        for (p, id) in &points {
            incr.insert(p, *id);
        }
        incr_build_s += t0.elapsed().as_secs_f64();

        let step = (points.len() / QUERIES).max(1);
        for (p, _) in points.iter().step_by(step).take(QUERIES) {
            let a = bulk.knn(p, 10, &mut str_stats);
            let b = incr.knn(p, 10, &mut incr_stats);
            query_count += 1;
            // Same distances from both shapes of the same point set.
            let same = a.len() == b.len()
                && a.iter()
                    .zip(&b)
                    .all(|((_, _, da), (_, _, db))| da.to_bits() == db.to_bits());
            if !same {
                eprintln!("error: STR and incremental kNN disagree ({kind:?}, n={n})");
                std::process::exit(1);
            }
        }
    }
    IndexNumbers {
        str_build_s,
        incr_build_s,
        str_nodes_per_query: str_stats.nodes_visited as f64 / query_count as f64,
        incr_nodes_per_query: incr_stats.nodes_visited as f64 / query_count as f64,
    }
}
