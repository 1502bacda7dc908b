//! OBS-tier overhead: the cost of full instrumentation vs `TDESS_LOG=off`.
//!
//! Runs the same indexing + query workload over the standard corpus
//! twice: once with tracing disabled (`Level::Off` — stage timers
//! short-circuit before touching the clock, no spans, no recorder)
//! and once fully instrumented (`Level::Debug` with the JSON sink
//! pointed at `io::sink()`, plus request-span collection and a live
//! flight recorder on the mesh-query phase, so the numbers measure
//! event formatting, histogram recording, span bookkeeping, and tail
//! sampling — not terminal I/O). The delta is the price of
//! observability on the hot path.
//!
//! The workload has three phases:
//! * **index** — bulk extraction of the corpus (all five pipeline
//!   stages);
//! * **one-shot queries** — `search_features` on pre-extracted
//!   features (index search + similarity combine only);
//! * **mesh queries** — `multi_step_mesh` on raw meshes, each wrapped
//!   in a request span when instrumented, so `query_extract` and
//!   `rerank` record samples too (a regression against the earlier
//!   version of this bench, whose query loop never extracted and left
//!   `query_extract` at 0 samples).
//!
//! Outputs:
//! * `BENCH_obs_overhead.json` — machine-readable numbers;
//! * `results/tab_obs_overhead.txt` — the rendered table.
//!
//! `--smoke` runs a small corpus subset at low voxel resolution for
//! CI: same code path, seconds instead of minutes.

use std::time::{Duration, Instant};

use tdess_bench::{standard_corpus, write_bench_json, write_or_die, CORPUS_SEED, RESOLUTION};
use tdess_core::{bulk_insert, MultiStepPlan, Query, SearchServer, ShapeDatabase};
use tdess_eval::render_table;
use tdess_features::{FeatureExtractor, FeatureKind, FeatureSet};
use tdess_geom::TriMesh;
use tdess_obs::{FlightRecorder, Level, RecorderConfig, Stage, TraceGuard};

/// How many distinct corpus meshes the mesh-query phase cycles over.
/// Bounded: each query runs the full extraction pipeline uncached.
const MESH_QUERY_SUBSET: usize = 8;

/// Seconds spent in each phase of one workload pass.
struct Pass {
    index_s: f64,
    query_s: f64,
    mesh_query_s: f64,
}

/// Per-phase minimum across repetitions — the least-noise estimator
/// of a configuration's true cost.
fn min_pass(passes: &[Pass]) -> Pass {
    let min = |f: fn(&Pass) -> f64| passes.iter().map(f).fold(f64::INFINITY, f64::min);
    Pass {
        index_s: min(|p| p.index_s),
        query_s: min(|p| p.query_s),
        mesh_query_s: min(|p| p.mesh_query_s),
    }
}

fn main() {
    let smoke = tdess_bench::smoke();
    let (resolution, take, query_rounds, mesh_rounds, reps) = if smoke {
        (12, 12, 5, 2, 1)
    } else {
        // 200 query rounds: the one-shot phase is microseconds per
        // query, and a longer phase keeps a single context switch
        // from dominating its overhead percentage.
        (RESOLUTION, usize::MAX, 200, 5, 5)
    };

    let corpus = standard_corpus();
    let shapes: Vec<(String, TriMesh)> = corpus
        .shapes
        .iter()
        .take(take)
        .map(|s| (s.name.clone(), s.mesh.clone()))
        .collect();
    let n = shapes.len();
    eprintln!(
        "[setup] {n} shapes at voxel resolution {resolution} (seed {CORPUS_SEED}), \
         {query_rounds} query rounds, {mesh_rounds}x{} mesh queries",
        n.min(MESH_QUERY_SUBSET)
    );

    // The passes alternate off/instrumented for `reps` repetitions
    // and the table reports the per-phase minimum of each side:
    // single multi-threaded passes are scheduler-noise dominated
    // (observed swings of ±10% between identical runs), and the
    // minimum is the least-noise estimator of each configuration's
    // true cost.
    //
    // Off baseline: with tracing disabled the stage timers
    // short-circuit before touching the clock, no request spans are
    // opened, and no recorder exists. Instrumented: debug-level
    // events and per-stage histograms live, formatted JSON discarded
    // into `io::sink()` so the terminal is not part of the
    // measurement, and every mesh query collects a span tree that is
    // offered to a flight recorder running the default tail-sampling
    // policy.
    let recorder = FlightRecorder::new(RecorderConfig {
        capacity: 128,
        slow: Duration::from_secs(1),
        sample_one_in: 16,
    });
    let mut offs = Vec::new();
    let mut ons = Vec::new();
    for rep in 0..reps {
        let run_off = |offs: &mut Vec<Pass>| {
            tdess_obs::set_level(Level::Off);
            offs.push(run_pass(
                &shapes,
                resolution,
                query_rounds,
                mesh_rounds,
                None,
            ));
        };
        let run_on = |ons: &mut Vec<Pass>| {
            tdess_obs::set_level(Level::Debug);
            tdess_obs::set_sink(Box::new(std::io::sink()));
            ons.push(run_pass(
                &shapes,
                resolution,
                query_rounds,
                mesh_rounds,
                Some(&recorder),
            ));
        };
        // Alternate which side goes first so monotone warmup (page
        // cache, allocator arenas) does not systematically favor the
        // second pass of every pair.
        if rep % 2 == 0 {
            run_off(&mut offs);
            run_on(&mut ons);
        } else {
            run_on(&mut ons);
            run_off(&mut offs);
        }
        tdess_obs::set_level(Level::Info);
        tdess_obs::sink_to_stderr();
        eprintln!("[rep {}/{reps}] done", rep + 1);
    }
    let off = min_pass(&offs);
    let on = min_pass(&ons);

    let overhead = |base: f64, inst: f64| -> f64 {
        if base > 0.0 {
            (inst - base) / base * 100.0
        } else {
            f64::NAN
        }
    };
    let total = |p: &Pass| p.index_s + p.query_s + p.mesh_query_s;
    let rows = [
        ("index (extract all)", off.index_s, on.index_s),
        ("one-shot queries", off.query_s, on.query_s),
        ("mesh queries (traced)", off.mesh_query_s, on.mesh_query_s),
        ("total", total(&off), total(&on)),
    ];
    let table = render_table(
        &["phase", "TDESS_LOG=off s", "instrumented s", "overhead"],
        &rows
            .iter()
            .map(|&(phase, base, inst)| {
                vec![
                    phase.to_string(),
                    format!("{base:.3}"),
                    format!("{inst:.3}"),
                    format!("{:+.2}%", overhead(base, inst)),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let title = format!(
        "OBS-tier overhead — {n} shapes, {query_rounds} query rounds, \
         {mesh_rounds}x{} traced mesh queries, min of {reps} rep(s){}",
        n.min(MESH_QUERY_SUBSET),
        if smoke { " [smoke]" } else { "" }
    );
    println!("\n{title}");
    println!("{table}");

    // Every instrumented query stage must have recorded samples — the
    // whole point of the mesh-query phase is that `query_extract` and
    // `rerank` are hit too, so a zero count anywhere means the
    // comparison is vacuous for that stage. The write stages time
    // inserts and removes, which no measured class here sends.
    let stages = tdess_obs::stage_snapshots();
    for stage in Stage::ALL.into_iter().filter(|s| !s.is_write()) {
        let count = stages
            .iter()
            .find(|(s, _)| *s == stage)
            .map_or(0, |(_, snap)| snap.count());
        if count == 0 {
            eprintln!(
                "error: instrumented pass recorded no samples for stage {}",
                stage.name()
            );
            std::process::exit(1);
        }
    }

    // The flight recorder must have seen every traced mesh query.
    let rec = recorder.stats();
    let expected_traces = (reps * mesh_rounds * n.min(MESH_QUERY_SUBSET)) as u64;
    if rec.seen != expected_traces {
        eprintln!(
            "error: recorder saw {} traces, expected {expected_traces}",
            rec.seen
        );
        std::process::exit(1);
    }

    let json = serde_json::json!({
        "corpus_size": n,
        "voxel_resolution": resolution,
        "query_rounds": query_rounds,
        "reps": reps,
        "mesh_query_rounds": mesh_rounds,
        "mesh_query_subset": n.min(MESH_QUERY_SUBSET),
        "off": serde_json::json!({
            "index_s": off.index_s,
            "query_s": off.query_s,
            "mesh_query_s": off.mesh_query_s,
        }),
        "instrumented": serde_json::json!({
            "index_s": on.index_s,
            "query_s": on.query_s,
            "mesh_query_s": on.mesh_query_s,
        }),
        "overhead_pct": serde_json::json!({
            "index": overhead(off.index_s, on.index_s),
            "query": overhead(off.query_s, on.query_s),
            "mesh_query": overhead(off.mesh_query_s, on.mesh_query_s),
            "total": overhead(total(&off), total(&on)),
        }),
        "recorder": serde_json::json!({
            "seen": rec.seen,
            "kept_error": rec.kept_error,
            "kept_slow": rec.kept_slow,
            "kept_sampled": rec.kept_sampled,
            "skipped": rec.skipped,
        }),
        "stages_recorded": stages.iter().map(|(stage, snap)| serde_json::json!({
            "stage": stage.name(),
            "count": snap.count(),
            "p50_s": snap.quantile_seconds(0.5),
            "p90_s": snap.quantile_seconds(0.9),
            "p99_s": snap.quantile_seconds(0.99),
        })).collect::<Vec<_>>(),
    });
    write_bench_json("tab_obs_overhead", smoke, json);
    if !smoke {
        let _ = std::fs::create_dir_all("results");
        write_or_die(
            "results/tab_obs_overhead.txt",
            &format!("{title}\n{table}\n"),
        );
    }
}

/// One full workload pass: index the corpus (feature extraction runs
/// every pipeline stage), query each shape's own features for
/// `rounds` rounds, then run `mesh_rounds` rounds of multi-step
/// query-by-example over a bounded mesh subset. With `recorder` set,
/// each mesh query runs under a request span whose completed trace is
/// offered to the flight recorder — the full serving-path cost.
fn run_pass(
    shapes: &[(String, TriMesh)],
    resolution: usize,
    rounds: usize,
    mesh_rounds: usize,
    recorder: Option<&FlightRecorder>,
) -> Pass {
    let mut db = ShapeDatabase::new(FeatureExtractor {
        voxel_resolution: resolution,
        ..Default::default()
    });
    let t0 = Instant::now();
    if let Err(e) = bulk_insert(&mut db, shapes.to_vec(), 8) {
        eprintln!("error: corpus indexing failed: {e}");
        std::process::exit(1);
    }
    let index_s = t0.elapsed().as_secs_f64();

    let queries: Vec<FeatureSet> = db.shapes().iter().map(|s| s.features.clone()).collect();
    let server = SearchServer::new(db);
    let query = Query::top_k(FeatureKind::PrincipalMoments, 10);
    let t0 = Instant::now();
    for _ in 0..rounds {
        for features in &queries {
            let hits = server.search_features(features, &query);
            if hits.is_empty() {
                eprintln!("error: search returned no hits");
                std::process::exit(1);
            }
        }
    }
    let query_s = t0.elapsed().as_secs_f64();

    // Query-by-example: full extraction plus a two-step plan, so the
    // `query_extract` and `rerank` stages record. The candidate set
    // stays small to keep the phase representative of the paper's
    // retrieve-then-refine flow rather than dominating the pass.
    let plan = MultiStepPlan {
        steps: vec![FeatureKind::PrincipalMoments, FeatureKind::MomentInvariants],
        candidates: 10,
        presented: 5,
    };
    let subset = &shapes[..shapes.len().min(MESH_QUERY_SUBSET)];
    let t0 = Instant::now();
    for round in 0..mesh_rounds {
        for (i, (_, mesh)) in subset.iter().enumerate() {
            let guard = recorder.map(|_| {
                tdess_obs::begin_request(
                    &format!("bench-{round}-{i}"),
                    "MultiStepMesh",
                    Instant::now(),
                )
            });
            let hits = match server.multi_step_mesh(mesh, &plan) {
                Ok(hits) => hits,
                Err(e) => {
                    eprintln!("error: mesh query failed: {e}");
                    std::process::exit(1);
                }
            };
            if let (Some(guard), Some(recorder)) = (guard, recorder) {
                if let Some(trace) = TraceGuard::finish(guard, false) {
                    recorder.offer(trace);
                }
            }
            if hits.is_empty() {
                eprintln!("error: mesh query returned no hits");
                std::process::exit(1);
            }
        }
    }
    let mesh_query_s = t0.elapsed().as_secs_f64();
    Pass {
        index_s,
        query_s,
        mesh_query_s,
    }
}
