//! Extraction-cache effectiveness: cold vs warm vs Zipf-replay query
//! latency, plus the bit-exactness gate.
//!
//! Real retrieval front ends replay queries: benchmark protocols
//! re-run fixed query sets, interactive users re-submit the part they
//! are refining, and popularity is heavy-tailed. This bench drives the
//! corpus through a [`SearchServer`] built with the content-addressed
//! extraction cache (`tdess-cache`) and measures end-to-end
//! `search_mesh` latency per query:
//!
//! * **cold** — first pass over every corpus mesh (all misses);
//! * **warm** — second identical pass (all hits);
//! * **zipf** — a Zipf(s=1) replay over corpus ranks, the
//!   heavy-tailed mix a shared server actually sees;
//! * **uncached** — the warm workload on a cache-less server, as the
//!   baseline the cache is judged against.
//!
//! Before any timing, every corpus mesh is answered by both servers
//! and compared hit-for-hit — ids, similarities, and f64 distances
//! must be *bit-identical* between the cached (cold and warm) and
//! uncached paths. `--smoke` runs this same gate on a corpus subset at
//! low resolution for CI.
//!
//! Outputs: `BENCH_cache.json` and `results/tab_cache.txt`.

use std::time::Instant;

use tdess_bench::{
    quantile, standard_corpus, write_bench_json, write_or_die, CORPUS_SEED, RESOLUTION,
};
use tdess_core::{bulk_insert, CacheConfig, Query, SearchServer, ShapeDatabase};
use tdess_eval::render_table;
use tdess_features::{FeatureExtractor, FeatureKind};
use tdess_geom::TriMesh;

/// Zipf replay length as a multiple of the corpus size.
const REPLAY_FACTOR: usize = 5;

fn main() {
    let smoke = tdess_bench::smoke();
    let (resolution, take) = if smoke {
        (12, 12)
    } else {
        (RESOLUTION, usize::MAX)
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
        "[setup] indexing {n} shapes at voxel resolution {resolution} (seed {CORPUS_SEED})..."
    );
    let mut db = ShapeDatabase::new(FeatureExtractor {
        voxel_resolution: resolution,
        ..Default::default()
    });
    match bulk_insert(&mut db, shapes.clone(), 8) {
        Ok(_) => {}
        Err(e) => {
            eprintln!("error: corpus indexing failed: {e}");
            std::process::exit(1);
        }
    }
    let uncached = SearchServer::new(db.clone());
    let cached = SearchServer::with_cache(db, CacheConfig::default());
    eprintln!("[setup] done.");

    let query = Query::top_k(FeatureKind::PrincipalMoments, 10);

    // ── Bit-exactness gate ─────────────────────────────────────────
    // Every mesh, answered uncached vs cached-cold vs cached-warm:
    // the hit lists must agree exactly (same ids, same f64 bits in
    // distances and similarities — SearchHit equality is exact).
    eprintln!("[gate] comparing cached and uncached answers over {n} meshes...");
    for (name, mesh) in &shapes {
        let want = match uncached.search_mesh(mesh, &query) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("error: uncached query `{name}` failed: {e}");
                std::process::exit(1);
            }
        };
        let cold = match cached.search_mesh(mesh, &query) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("error: cached query `{name}` failed: {e}");
                std::process::exit(1);
            }
        };
        let warm = match cached.search_mesh(mesh, &query) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("error: warm query `{name}` failed: {e}");
                std::process::exit(1);
            }
        };
        if want != cold || want != warm {
            eprintln!("error: cached answers diverge from uncached for `{name}`");
            std::process::exit(1);
        }
    }
    let gate_stats = cached.cache_stats().unwrap_or_default();
    if gate_stats.misses != n as u64 {
        eprintln!(
            "error: expected {n} extractions during the gate, saw {}",
            gate_stats.misses
        );
        std::process::exit(1);
    }
    eprintln!(
        "[gate] ok — bit-identical over {n} meshes ({} hits / {} misses)",
        gate_stats.hits, gate_stats.misses
    );

    // ── Timed workloads ────────────────────────────────────────────
    // A fresh cached server so "cold" really is cold.
    let cached = match rebuild_cached(&shapes, resolution) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: rebuilding cached server: {e}");
            std::process::exit(1);
        }
    };

    let time_pass = |server: &SearchServer, meshes: &[&TriMesh]| -> Vec<f64> {
        let mut samples = Vec::with_capacity(meshes.len());
        for mesh in meshes {
            let t0 = Instant::now();
            match server.search_mesh(mesh, &query) {
                Ok(_) => samples.push(t0.elapsed().as_secs_f64()),
                Err(e) => {
                    eprintln!("error: timed query failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        samples
    };

    let all: Vec<&TriMesh> = shapes.iter().map(|(_, m)| m).collect();
    let replay = zipf_replay(n, n * REPLAY_FACTOR);
    let replay_meshes: Vec<&TriMesh> = replay.iter().map(|&i| all[i]).collect();

    eprintln!("[run] cold pass ({n} queries)...");
    let cold = time_pass(&cached, &all);
    eprintln!("[run] warm pass ({n} queries)...");
    let warm = time_pass(&cached, &all);
    eprintln!("[run] zipf replay ({} queries)...", replay_meshes.len());
    let zipf = time_pass(&cached, &replay_meshes);
    eprintln!("[run] uncached baseline ({n} queries)...");
    let base = time_pass(&uncached, &all);

    let stats = cached.cache_stats().unwrap_or_default();
    let rows: Vec<(&str, &Vec<f64>)> = vec![
        ("cold (all miss)", &cold),
        ("warm (all hit)", &warm),
        ("zipf replay s=1", &zipf),
        ("uncached", &base),
    ];
    let cold_p50 = p50(&cold);
    let warm_p50 = p50(&warm);
    let speedup = cold_p50 / warm_p50;

    let table = render_table(
        &[
            "workload", "queries", "p50 ms", "p90 ms", "mean ms", "total s",
        ],
        &rows
            .iter()
            .map(|(label, s)| {
                vec![
                    label.to_string(),
                    s.len().to_string(),
                    format!("{:.4}", p50(s) * 1e3),
                    format!("{:.4}", quantile(s, 0.9) * 1e3),
                    format!("{:.4}", mean(s) * 1e3),
                    format!("{:.3}", s.iter().sum::<f64>()),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\nExtraction cache — {n} corpus shapes, voxel resolution {resolution}{}",
        if smoke { " [smoke]" } else { "" }
    );
    println!("{table}");
    println!("warm p50 speedup over cold: {speedup:.1}x");
    println!(
        "cache after all runs: {} hits, {} misses, {} coalesced, {} evictions, {}/{} bytes",
        stats.hits,
        stats.misses,
        stats.coalesced_waits,
        stats.evictions,
        stats.resident_bytes,
        stats.capacity_bytes
    );

    if !smoke && speedup < 10.0 {
        eprintln!("error: warm p50 must be >=10x faster than cold, measured {speedup:.1}x");
        std::process::exit(1);
    }

    let json = serde_json::json!({
        "corpus_size": n,
        "voxel_resolution": resolution,
        "replay_len": replay_meshes.len(),
        "bit_exact_gate": "passed",
        "workloads": rows.iter().map(|(label, s)| serde_json::json!({
            "workload": label,
            "queries": s.len(),
            "p50_s": p50(s),
            "p90_s": quantile(s, 0.9),
            "mean_s": mean(s),
            "total_s": s.iter().sum::<f64>(),
        })).collect::<Vec<_>>(),
        "warm_speedup_p50": speedup,
        "cache": serde_json::json!({
            "hits": stats.hits,
            "misses": stats.misses,
            "coalesced_waits": stats.coalesced_waits,
            "evictions": stats.evictions,
            "resident_bytes": stats.resident_bytes,
            "capacity_bytes": stats.capacity_bytes,
        }),
    });
    write_bench_json("tab_cache", smoke, json);
    if !smoke {
        let _ = std::fs::create_dir_all("results");
        write_or_die(
            "results/tab_cache.txt",
            &format!(
                "Extraction cache — {n} corpus shapes, voxel resolution {resolution}\n{table}\nwarm p50 speedup over cold: {speedup:.1}x\n"
            ),
        );
    }
}

/// Builds a fresh cached server over the same corpus, so timing starts
/// from a genuinely empty cache.
fn rebuild_cached(shapes: &[(String, TriMesh)], resolution: usize) -> Result<SearchServer, String> {
    let mut db = ShapeDatabase::new(FeatureExtractor {
        voxel_resolution: resolution,
        ..Default::default()
    });
    bulk_insert(&mut db, shapes.to_vec(), 8).map_err(|e| e.to_string())?;
    Ok(SearchServer::with_cache(db, CacheConfig::default()))
}

/// A deterministic Zipf(s=1) replay over `n` ranks: inverse-CDF
/// sampling driven by an xorshift64* stream, so runs are reproducible
/// without pulling in an RNG crate.
fn zipf_replay(n: usize, len: usize) -> Vec<usize> {
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0;
    for rank in 1..=n {
        total += 1.0 / rank as f64;
        cdf.push(total);
    }
    let mut state: u64 = CORPUS_SEED | 1;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let word = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let u = (word >> 11) as f64 / (1u64 << 53) as f64 * total;
        let idx = cdf.partition_point(|&c| c < u).min(n - 1);
        out.push(idx);
    }
    out
}

fn p50(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}
