//! Double-run reproducibility gate — the dynamic complement of
//! `cargo xtask determinism`'s static taint analysis.
//!
//! The standard 113-shape corpus is built and indexed **twice, in
//! genuinely fresh processes** (the binary re-execs itself with
//! `--worker`, so each run gets its own address space, its own
//! `RandomState` hash seeds, and no shared allocator state). Each
//! worker persists the binary `TDSS` snapshot and a fixed query sweep
//! — every stored shape queried top-10 against every feature space,
//! hits serialized with bit-exact distance/similarity — and the parent
//! compares both artifacts **byte for byte**. Any divergence (hash
//! iteration order leaking into the snapshot, a clock stamp, an
//! unseeded RNG) fails the run.
//!
//! Outputs:
//! * `BENCH_repro.json` — machine-readable verdict and timings;
//! * `results/tab_repro.txt` — the rendered table.
//!
//! `--smoke` runs the same double build and comparison but skips the
//! rendered-table artifact: same gate, CI-sized output.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use tdess_bench::{standard_context, write_bench_json, write_or_die, CORPUS_SEED, RESOLUTION};
use tdess_core::{save_to_path_binary, Query};
use tdess_eval::render_table;
use tdess_features::FeatureKind;

/// Hits kept per (shape, feature space) in the fixed query sweep.
const TOP_K: usize = 10;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "--worker") {
        match args.get(pos + 1) {
            Some(dir) => worker(Path::new(dir)),
            None => {
                eprintln!("error: --worker needs a directory");
                std::process::exit(2);
            }
        }
        return;
    }
    let smoke = tdess_bench::smoke();

    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: locating own executable: {e}");
            std::process::exit(1);
        }
    };
    let base = std::env::temp_dir().join(format!("tdess_tab_repro_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let mut run_dirs: Vec<PathBuf> = Vec::new();
    let mut totals: Vec<f64> = Vec::new();
    for label in ["run_a", "run_b"] {
        let dir = base.join(label);
        eprintln!("[run] {label}: building the {RESOLUTION}³ index in a fresh process");
        let t0 = Instant::now();
        let status = Command::new(&exe).arg("--worker").arg(&dir).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("error: {label} worker exited with {s}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("error: spawning {label} worker: {e}");
                std::process::exit(1);
            }
        }
        totals.push(t0.elapsed().as_secs_f64());
        run_dirs.push(dir);
    }

    let snap_a = read_or_die(&run_dirs[0].join("snapshot.tdss"));
    let snap_b = read_or_die(&run_dirs[1].join("snapshot.tdss"));
    let res_a = read_or_die(&run_dirs[0].join("results.txt"));
    let res_b = read_or_die(&run_dirs[1].join("results.txt"));
    let (build_a, shapes) = read_meta(&run_dirs[0].join("meta.txt"));
    let (build_b, _) = read_meta(&run_dirs[1].join("meta.txt"));

    let snapshot_identical = snap_a == snap_b;
    let results_identical = res_a == res_b;
    if !snapshot_identical {
        let off = first_divergence(&snap_a, &snap_b);
        eprintln!(
            "error: snapshots differ ({} vs {} bytes, first divergence at byte {off}) — \
             the index build is not reproducible",
            snap_a.len(),
            snap_b.len(),
        );
    }
    if !results_identical {
        let line = res_a
            .split(|b| *b == b'\n')
            .zip(res_b.split(|b| *b == b'\n'))
            .position(|(a, b)| a != b)
            .map_or(0, |i| i + 1);
        eprintln!(
            "error: query results differ (first divergence at line {line}) — \
             search over the rebuilt index is not reproducible"
        );
    }
    if !snapshot_identical || !results_identical {
        std::process::exit(1);
    }
    let _ = std::fs::remove_dir_all(&base);

    let verdict = format!(
        "reproducible: {shapes} shapes, {} snapshot bytes and {} result lines byte-identical \
         across fresh processes",
        snap_a.len(),
        res_a.iter().filter(|b| **b == b'\n').count(),
    );
    let headers = ["run", "index build s", "total s", "snapshot bytes"];
    let rows = vec![
        vec![
            "a".into(),
            format!("{build_a:.2}"),
            format!("{:.2}", totals[0]),
            snap_a.len().to_string(),
        ],
        vec![
            "b".into(),
            format!("{build_b:.2}"),
            format!("{:.2}", totals[1]),
            snap_b.len().to_string(),
        ],
    ];
    let table = render_table(&headers, &rows);
    let title = format!(
        "Double-run reproducibility — fresh-process index builds, byte-exact gate{}",
        if smoke { " [smoke]" } else { "" }
    );
    println!("\n{title}");
    println!("{table}");
    println!("{verdict}");

    let json = serde_json::json!({
        "corpus_seed": CORPUS_SEED,
        "resolution": RESOLUTION,
        "shapes": shapes,
        "top_k": TOP_K,
        "snapshot_bytes": snap_a.len() as u64,
        "snapshot_identical": snapshot_identical,
        "results_identical": results_identical,
        "runs": serde_json::Value::Arr(vec![
            serde_json::json!({"build_s": build_a, "total_s": totals[0]}),
            serde_json::json!({"build_s": build_b, "total_s": totals[1]}),
        ]),
    });
    write_bench_json("tab_repro", smoke, json);
    if !smoke {
        let _ = std::fs::create_dir_all("results");
        write_or_die(
            "results/tab_repro.txt",
            &format!("{title}\n{table}\n{verdict}\n"),
        );
    }
}

/// One fresh-process build: index the standard corpus, persist the
/// binary snapshot, and serialize the fixed query sweep with bit-exact
/// scores. Everything written here is compared byte-for-byte by the
/// parent, so the serialization must itself be order-fixed: shapes in
/// insertion order, feature spaces in `FeatureKind::ALL` order.
fn worker(dir: &Path) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("error: creating {}: {e}", dir.display());
        std::process::exit(1);
    }
    let t0 = Instant::now();
    let ctx = standard_context();
    let build_s = t0.elapsed().as_secs_f64();

    if let Err(e) = save_to_path_binary(&ctx.db, &dir.join("snapshot.tdss")) {
        eprintln!("error: saving snapshot: {e}");
        std::process::exit(1);
    }

    let mut out = String::new();
    for shape in ctx.db.shapes() {
        for kind in FeatureKind::ALL {
            let q = Query::top_k(kind, TOP_K);
            out.push_str(&format!("{} {kind:?}", shape.name));
            for h in ctx.db.search(&shape.features, &q) {
                out.push_str(&format!(
                    " {}:{:016x}:{:016x}",
                    h.id,
                    h.distance.to_bits(),
                    h.similarity.to_bits(),
                ));
            }
            out.push('\n');
        }
    }
    write_or_die(dir.join("results.txt"), &out);
    write_or_die(
        dir.join("meta.txt"),
        &format!("{build_s} {}\n", ctx.db.len()),
    );
}

fn first_divergence(a: &[u8], b: &[u8]) -> usize {
    a.iter()
        .zip(b.iter())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()))
}

fn read_or_die(path: &Path) -> Vec<u8> {
    match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("error: reading {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Parses the worker's `meta.txt` (`<build_s> <shapes>`).
fn read_meta(path: &Path) -> (f64, usize) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: reading {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let mut parts = text.split_whitespace();
    let build_s = parts.next().and_then(|s| s.parse::<f64>().ok());
    let shapes = parts.next().and_then(|s| s.parse::<usize>().ok());
    match (build_s, shapes) {
        (Some(b), Some(n)) => (b, n),
        _ => {
            eprintln!(
                "error: malformed worker meta in {}: {text:?}",
                path.display()
            );
            std::process::exit(1);
        }
    }
}
