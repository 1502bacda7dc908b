//! Per-stage extraction latency: cold (fresh buffers every call) vs
//! warm (one reused `ExtractScratch`-style buffer set).
//!
//! Times voxelization, skeletonization, and the end-to-end feature
//! extraction per shape over the standard corpus and reports
//! p50/p90/p99 for both buffer regimes, verifying along the way that
//! the warm path reproduces the cold path bit for bit. When the
//! committed `BENCH_obs_overhead.json` is present (it recorded the
//! pre-scratch-buffer stage latencies over the same corpus and
//! resolution), the improvement of the current warm path against those
//! seeded numbers is reported too.
//!
//! Outputs:
//! * `BENCH_extract.json` — machine-readable numbers;
//! * `results/tab_extract.txt` — the rendered table.
//!
//! `--smoke` runs a small corpus subset at low voxel resolution for
//! CI: same code path, seconds instead of minutes.

use std::time::Instant;

use tdess_bench::{
    quantile, standard_corpus, write_bench_json, write_or_die, CORPUS_SEED, RESOLUTION,
};
use tdess_core::{bulk_insert, ShapeDatabase};
use tdess_eval::render_table;
use tdess_features::{normalize, ExtractScratch, FeatureExtractor};
use tdess_geom::{TriMesh, Vec3};
use tdess_obs::Level;
use tdess_skeleton::{skeletonize, skeletonize_into, ThinScratch, ThinningParams};
use tdess_voxel::{voxelize, voxelize_into, FloodScratch, VoxelGrid, VoxelizeParams};

/// p50/p90/p99 triple of one stage's latency samples (seconds, one
/// per shape).
fn quantiles(s: &[f64]) -> (f64, f64, f64) {
    (quantile(s, 0.5), quantile(s, 0.9), quantile(s, 0.99))
}

fn pct_faster(cold: f64, warm: f64) -> f64 {
    if cold > 0.0 {
        (cold - warm) / cold * 100.0
    } else {
        f64::NAN
    }
}

fn main() {
    let smoke = tdess_bench::smoke();
    let (resolution, take) = if smoke {
        (12, 12)
    } else {
        (RESOLUTION, usize::MAX)
    };

    let corpus = standard_corpus();
    let meshes: Vec<(String, TriMesh)> = corpus
        .shapes
        .iter()
        .take(take)
        .map(|s| (s.name.clone(), s.mesh.clone()))
        .collect();
    let n = meshes.len();
    eprintln!("[setup] {n} shapes at voxel resolution {resolution} (seed {CORPUS_SEED})");

    // Stage timers and events off: we time the stages ourselves and
    // want pure compute, not instrumentation.
    tdess_obs::set_level(Level::Off);

    let params = VoxelizeParams {
        resolution,
        ..Default::default()
    };
    let thin = ThinningParams::default();
    let extractor = FeatureExtractor {
        voxel_resolution: resolution,
        ..Default::default()
    };

    let normalized: Vec<TriMesh> = meshes
        .iter()
        .map(|(name, mesh)| match normalize(mesh) {
            Ok(nm) => nm.mesh,
            Err(e) => {
                eprintln!("error: normalize {name}: {e}");
                std::process::exit(1);
            }
        })
        .collect();

    // Cold: every call pays the grid and scratch allocations.
    let mut cold_vox = Vec::new();
    let mut cold_skel = Vec::new();
    let mut cold_extract = Vec::new();
    let mut cold_words: Vec<(Vec<u64>, Vec<u64>)> = Vec::with_capacity(n);
    for mesh in &normalized {
        let t0 = Instant::now();
        let grid = voxelize(mesh, &params);
        cold_vox.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let skel = skeletonize(&grid, &thin);
        cold_skel.push(t0.elapsed().as_secs_f64());
        cold_words.push((grid.words().to_vec(), skel.words().to_vec()));
    }
    for (_, mesh) in &meshes {
        let t0 = Instant::now();
        let mut scratch = ExtractScratch::default();
        if let Err(e) = extractor.extract_with_scratch(mesh, &mut scratch) {
            eprintln!("error: cold extract: {e}");
            std::process::exit(1);
        }
        cold_extract.push(t0.elapsed().as_secs_f64());
    }

    // Warm: one buffer set survives the whole corpus.
    let mut warm_vox = Vec::new();
    let mut warm_skel = Vec::new();
    let mut warm_extract = Vec::new();
    let mut grid = VoxelGrid::new(1, 1, 1, Vec3::ZERO, 1.0);
    let mut skel = VoxelGrid::new(1, 1, 1, Vec3::ZERO, 1.0);
    let mut flood = FloodScratch::default();
    let mut thin_scratch = ThinScratch::default();
    for (si, mesh) in normalized.iter().enumerate() {
        let t0 = Instant::now();
        voxelize_into(mesh, &params, &mut grid, &mut flood);
        warm_vox.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        skeletonize_into(&grid, &thin, &mut skel, &mut thin_scratch);
        warm_skel.push(t0.elapsed().as_secs_f64());
        // The whole comparison is void unless warm output is
        // bit-identical to cold.
        if grid.words() != cold_words[si].0 || skel.words() != cold_words[si].1 {
            eprintln!("error: warm path diverged from cold on shape {si}");
            std::process::exit(1);
        }
    }
    let mut scratch = ExtractScratch::default();
    for (_, mesh) in &meshes {
        let t0 = Instant::now();
        if let Err(e) = extractor.extract_with_scratch(mesh, &mut scratch) {
            eprintln!("error: warm extract: {e}");
            std::process::exit(1);
        }
        warm_extract.push(t0.elapsed().as_secs_f64());
    }

    // Contention-matched comparison against the seeded stage
    // histograms: the committed `BENCH_obs_overhead.json` recorded
    // per-stage p50 during an 8-way bulk insert of this corpus, so the
    // same workload is replayed here — comparing those numbers to the
    // single-threaded samples above would mistake scheduler contention
    // for speedup.
    let baseline = if smoke {
        None
    } else {
        seed_stage_p50s("BENCH_obs_overhead.json")
    };
    let replay = baseline.and_then(|_| {
        tdess_obs::set_level(Level::Debug);
        tdess_obs::set_sink(Box::new(std::io::sink()));
        let mut db = ShapeDatabase::new(extractor);
        if let Err(e) = bulk_insert(&mut db, meshes.clone(), 8) {
            eprintln!("error: replay indexing failed: {e}");
            std::process::exit(1);
        }
        tdess_obs::set_level(Level::Off);
        let stages = tdess_obs::stage_snapshots();
        let p50 = |name: &str| {
            stages
                .iter()
                .find(|(stage, _)| stage.name() == name)
                .map(|(_, snap)| snap.quantile_seconds(0.5))
        };
        p50("voxelize").zip(p50("skeletonize"))
    });

    tdess_obs::set_level(Level::Info);
    tdess_obs::sink_to_stderr();

    let stages = [
        ("voxelize", &cold_vox, &warm_vox),
        ("skeletonize", &cold_skel, &warm_skel),
        ("extract (end to end)", &cold_extract, &warm_extract),
    ];
    let rows: Vec<Vec<String>> = stages
        .iter()
        .map(|(name, cold, warm)| {
            let (c50, c90, c99) = quantiles(cold);
            let (w50, w90, w99) = quantiles(warm);
            vec![
                name.to_string(),
                format!("{:.2} / {:.2} / {:.2}", c50 * 1e3, c90 * 1e3, c99 * 1e3),
                format!("{:.2} / {:.2} / {:.2}", w50 * 1e3, w90 * 1e3, w99 * 1e3),
                format!("{:+.1}%", pct_faster(c50, w50)),
            ]
        })
        .collect();
    let table = render_table(
        &[
            "stage",
            "cold p50/p90/p99 ms",
            "warm p50/p90/p99 ms",
            "warm p50 gain",
        ],
        &rows,
    );
    let title = format!(
        "Extraction latency, cold vs warm scratch — {n} shapes at resolution {resolution}{}",
        if smoke { " [smoke]" } else { "" }
    );
    println!("\n{title}");
    println!("{table}");

    if let (Some((seed_vox, seed_skel)), Some((now_vox, now_skel))) = (baseline, replay) {
        println!(
            "vs seeded BENCH_obs_overhead.json (same 8-way indexing workload): \
             voxelize p50 {:.2} ms -> {:.2} ms ({:+.1}%), \
             skeletonize p50 {:.2} ms -> {:.2} ms ({:+.1}%)",
            seed_vox * 1e3,
            now_vox * 1e3,
            pct_faster(seed_vox, now_vox),
            seed_skel * 1e3,
            now_skel * 1e3,
            pct_faster(seed_skel, now_skel),
        );
    }

    // The vendored json! macro takes no nested object literals: build
    // the sub-objects bottom-up.
    let stage_json = |cold: &[f64], warm: &[f64]| {
        let (c50, c90, c99) = quantiles(cold);
        let (w50, w90, w99) = quantiles(warm);
        let cold = serde_json::json!({"p50_s": c50, "p90_s": c90, "p99_s": c99});
        let warm = serde_json::json!({"p50_s": w50, "p90_s": w90, "p99_s": w99});
        serde_json::json!({
            "cold": cold,
            "warm": warm,
            "warm_vs_cold_p50_pct": pct_faster(c50, w50),
        })
    };
    let stages_json = serde_json::json!({
        "voxelize": stage_json(&cold_vox, &warm_vox),
        "skeletonize": stage_json(&cold_skel, &warm_skel),
        "extract": stage_json(&cold_extract, &warm_extract),
    });
    let vs_seed = match (baseline, replay) {
        (Some((seed_vox, seed_skel)), Some((now_vox, now_skel))) => serde_json::json!({
            "source": "BENCH_obs_overhead.json stage histograms, replayed under the same 8-way indexing workload",
            "voxelize_seed_p50_s": seed_vox,
            "voxelize_now_p50_s": now_vox,
            "voxelize_improvement_pct": pct_faster(seed_vox, now_vox),
            "skeletonize_seed_p50_s": seed_skel,
            "skeletonize_now_p50_s": now_skel,
            "skeletonize_improvement_pct": pct_faster(seed_skel, now_skel),
        }),
        _ => serde_json::json!(null),
    };
    let json = serde_json::json!({
        "corpus_size": n,
        "voxel_resolution": resolution,
        "stages": stages_json,
        "vs_seed": vs_seed,
    });
    write_bench_json("tab_extract", smoke, json);
    if !smoke {
        let _ = std::fs::create_dir_all("results");
        write_or_die("results/tab_extract.txt", &format!("{title}\n{table}\n"));
    }
}

/// The (voxelize, skeletonize) p50 seconds recorded in a previous
/// `tab_obs_overhead` run, when its JSON sits in the working
/// directory.
fn seed_stage_p50s(path: &str) -> Option<(f64, f64)> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc: serde_json::Value = serde_json::from_str(&text).ok()?;
    let stages = doc.get("stages_recorded")?.as_arr()?;
    let p50 = |name: &str| -> Option<f64> {
        let stage = stages
            .iter()
            .find(|s| matches!(s.get("stage"), Some(serde_json::Value::Str(n)) if n == name))?;
        match stage.get("p50_s")? {
            serde_json::Value::Float(f) => Some(*f),
            serde_json::Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    };
    Some((p50("voxelize")?, p50("skeletonize")?))
}
