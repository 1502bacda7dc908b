//! `tdess` — command-line interface to the 3DESS shape-search system.
//!
//! Every subcommand and option is listed in `HELP`, which
//! `tdess help` prints.
//!
//! `query`, `multistep`, `info`, and every `remote` verb accept
//! `--json`: machine-readable output serializing the same payload
//! types the wire protocol uses ([`HitsReport`], [`InfoReport`],
//! [`tdess_net::StatsReport`]).
//!
//! Structured log events go to stderr as JSON lines; `TDESS_LOG`
//! (off|error|warn|info|debug|trace, default info) filters them —
//! `TDESS_LOG=warn` silences the operational banner, `TDESS_LOG=debug`
//! shows per-connection and per-request lifecycle events.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use threedess::cluster::HierarchyParams;
use threedess::core::{
    load_from_path, save_to_path_as, sniff_format, BrowseTree, CacheConfig, MultiStepPlan, Query,
    QueryMode, SearchServer, ServerMetrics, ShapeDatabase, SnapshotFormat, Weights,
};
use threedess::dataset::{build_corpus, synth_corpus};
use threedess::features::{FeatureExtractor, FeatureKind};
use threedess::geom::io::{load_mesh, save_mesh};
use threedess::geom::{render, RenderParams};
use threedess::net::{
    HitsReport, InfoReport, LatencyStats, NetClient, NetClientConfig, NetServer, NetServerConfig,
    StageStats,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    match cmd.as_str() {
        "corpus" => cmd_corpus(&args[1..]),
        "synth" => cmd_synth(&args[1..]),
        "index" => cmd_index(&args[1..]),
        "convert" => cmd_convert(&args[1..]),
        "info" => cmd_info(&args[1..]),
        "query" => cmd_query(&args[1..]),
        "multistep" => cmd_multistep(&args[1..]),
        "browse" => cmd_browse(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "remote" => cmd_remote(&args[1..]),
        "help" | "--help" | "-h" => {
            println!("{}\n\n{HELP}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: tdess <corpus|synth|index|convert|info|query|multistep|browse|serve|remote|help> ... (see `tdess help`)"
        .into()
}

/// Every subcommand with its options, as `tdess help` prints them.
const HELP: &str = "\
tdess corpus <dir>                         generate & export the 113-shape corpus
tdess synth  <db> --count N [options]      generate a large synthetic database
       --count N                shapes to generate    (required)
       --seed S                 RNG seed              (default 2004)
       --resolution N           voxel resolution      (default 48)
       --format json|binary     snapshot format       (default binary)
tdess index  <db.json> <mesh>...           create/extend a database from STL/OFF files
tdess convert <src> <dst> [--format F]     re-encode a snapshot (JSON <-> TDSS binary)
       --format json|binary     target format         (default: the other one)
tdess info   <db.json>                     database statistics
tdess query  <db.json> <mesh> [options]    query by example
       --kind mi|gp|pm|ev|ho    feature vector        (default pm)
       --top K                  top-K results         (default 10)
       --threshold S            similarity threshold instead of top-K
       --render DIR             write a PGM thumbnail per result
tdess multistep <db.json> <mesh> [options] multi-step search
       --steps a,b,...          features per step     (default pm,ev)
       --candidates K           candidate-set size    (default 30)
       --present R              presented results     (default 10)
tdess browse <db.json> [--kind pm]         print the browsing hierarchy
tdess serve  <db.json> [options]           serve the database over TCP
       --addr HOST:PORT         bind address          (default 127.0.0.1:7333)
       --workers N              worker threads        (default 4)
       --queue N                accept-queue depth    (default 64)
       --metrics-addr HOST:PORT also serve HTTP `GET /metrics`
                                (Prometheus), `/healthz` (liveness),
                                and `/traces` (Chrome trace JSON)
       --cache-bytes N          extraction-cache byte budget (default 268435456)
       --cache-off              disable the extraction cache
       --trace-sample N         flight-recorder sampling: keep 1-in-N
                                non-slow, non-error traces (default 16;
                                1 keeps everything)
tdess remote <addr> <verb> [options]       talk to a running server
       verbs: query <mesh>, multistep <mesh>, info, stats, ping,
              trace [--last N] [--slow] [--format chrome|jsonl]
       (query/multistep take the same flags as their local forms;
       trace pulls the server's flight recorder — `--slow` keeps
       only slow/error traces, `chrome` output loads in Perfetto)
";

/// Parses a `--format json|binary` flag value.
fn parse_format(s: &str) -> Result<SnapshotFormat, String> {
    match s {
        "json" => Ok(SnapshotFormat::Json),
        "binary" | "bin" => Ok(SnapshotFormat::Binary),
        other => Err(format!(
            "unknown snapshot format `{other}` (expected json|binary)"
        )),
    }
}

/// Parses a feature-kind flag value.
fn parse_kind(s: &str) -> Result<FeatureKind, String> {
    match s {
        "mi" => Ok(FeatureKind::MomentInvariants),
        "gp" => Ok(FeatureKind::GeometricParams),
        "pm" => Ok(FeatureKind::PrincipalMoments),
        "ev" => Ok(FeatureKind::Eigenvalues),
        "ho" => Ok(FeatureKind::HigherOrder),
        other => Err(format!(
            "unknown feature kind `{other}` (expected mi|gp|pm|ev|ho)"
        )),
    }
}

/// Parsed command line: positional arguments and `--flag value` pairs.
type ParsedArgs = (Vec<String>, Vec<(String, String)>);

/// Flags that take no value; present means "true".
const BOOL_FLAGS: &[&str] = &["json", "cache-off", "slow"];

/// Extracts `--flag value` pairs (and valueless [`BOOL_FLAGS`]);
/// returns (positional, flags).
fn split_flags(args: &[String]) -> Result<ParsedArgs, String> {
    let mut pos = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if BOOL_FLAGS.contains(&name) {
                flags.push((name.to_string(), "true".to_string()));
                continue;
            }
            let v = it
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.push((name.to_string(), v.clone()));
        } else {
            pos.push(a.clone());
        }
    }
    Ok((pos, flags))
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn has_flag(flags: &[(String, String)], name: &str) -> bool {
    flag(flags, name).is_some()
}

/// Prints a report (`HitsReport`, `InfoReport`, `StatsReport`) as the
/// one-line serde JSON the `--json` flag promises. The wire carries
/// hits as binary, so this is the reports' JSON, not the wire bytes.
fn print_json<T: serde::Serialize>(value: &T) -> Result<(), String> {
    println!(
        "{}",
        serde_json::to_string(value).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// Parses the shared `--kind/--top/--threshold` query flags.
fn parse_query_flags(flags: &[(String, String)]) -> Result<Query, String> {
    let kind = parse_kind(flag(flags, "kind").unwrap_or("pm"))?;
    let mode = if let Some(t) = flag(flags, "threshold") {
        QueryMode::Threshold(t.parse::<f64>().map_err(|e| e.to_string())?)
    } else {
        let k = flag(flags, "top")
            .map(|v| v.parse::<usize>().map_err(|e| e.to_string()))
            .transpose()?
            .unwrap_or(10);
        QueryMode::TopK(k)
    };
    Ok(Query {
        kind,
        weights: Weights::unit(),
        mode,
    })
}

/// Parses the shared `--steps/--candidates/--present` plan flags.
fn parse_plan_flags(flags: &[(String, String)]) -> Result<MultiStepPlan, String> {
    let steps: Vec<FeatureKind> = flag(flags, "steps")
        .unwrap_or("pm,ev")
        .split(',')
        .map(parse_kind)
        .collect::<Result<_, _>>()?;
    let candidates = flag(flags, "candidates")
        .map(|v| v.parse::<usize>().map_err(|e| e.to_string()))
        .transpose()?
        .unwrap_or(30);
    let presented = flag(flags, "present")
        .map(|v| v.parse::<usize>().map_err(|e| e.to_string()))
        .transpose()?
        .unwrap_or(10);
    Ok(MultiStepPlan {
        steps,
        candidates,
        presented,
    })
}

fn cmd_corpus(args: &[String]) -> Result<(), String> {
    let dir: PathBuf = args.first().ok_or("usage: tdess corpus <dir>")?.into();
    std::fs::create_dir_all(dir.join("meshes")).map_err(|e| e.to_string())?;
    let corpus = build_corpus(2004);
    for s in &corpus.shapes {
        let p = dir.join("meshes").join(format!("{}.off", s.name));
        save_mesh(&s.mesh, &p).map_err(|e| e.to_string())?;
    }
    println!(
        "wrote {} OFF files to {}",
        corpus.shapes.len(),
        dir.join("meshes").display()
    );
    Ok(())
}

fn cmd_index(args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_flags(args)?;
    let [db_path, meshes @ ..] = &pos[..] else {
        return Err(
            "usage: tdess index <db.json> <mesh>... [--resolution N] [--format json|binary]".into(),
        );
    };
    if meshes.is_empty() {
        return Err("no mesh files given".into());
    }
    let db_path = Path::new(db_path);
    // An existing database keeps its on-disk format; a new one
    // defaults to JSON (override with --format).
    let (mut db, format) = if db_path.exists() {
        let format = sniff_format(db_path).unwrap_or(SnapshotFormat::Json);
        (load_from_path(db_path).map_err(|e| e.to_string())?, format)
    } else {
        let resolution = flag(&flags, "resolution")
            .map(|v| v.parse::<usize>().map_err(|e| e.to_string()))
            .transpose()?
            .unwrap_or(48);
        let db = ShapeDatabase::new(FeatureExtractor {
            voxel_resolution: resolution,
            ..Default::default()
        });
        (db, SnapshotFormat::Json)
    };
    let format = flag(&flags, "format")
        .map(parse_format)
        .transpose()?
        .unwrap_or(format);
    for m in meshes {
        let path = Path::new(m);
        let mesh = load_mesh(path).map_err(|e| format!("{m}: {e}"))?;
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("shape")
            .to_string();
        let id = db
            .insert(name.clone(), mesh)
            .map_err(|e| format!("{m}: {e}"))?;
        println!("indexed {name} as id {id}");
    }
    save_to_path_as(&db, db_path, format).map_err(|e| e.to_string())?;
    println!(
        "database saved to {} ({} shapes)",
        db_path.display(),
        db.len()
    );
    Ok(())
}

fn cmd_convert(args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_flags(args)?;
    let [src, dst] = &pos[..] else {
        return Err("usage: tdess convert <src> <dst> [--format json|binary]".into());
    };
    let (src, dst) = (Path::new(src), Path::new(dst));
    let from = sniff_format(src).ok_or_else(|| format!("cannot read {}", src.display()))?;
    // Without --format, convert to the other encoding — that is what
    // "convert" means for a two-format system.
    let to = flag(&flags, "format")
        .map(parse_format)
        .transpose()?
        .unwrap_or(match from {
            SnapshotFormat::Json => SnapshotFormat::Binary,
            SnapshotFormat::Binary => SnapshotFormat::Json,
        });
    let db = load_from_path(src).map_err(|e| e.to_string())?;
    save_to_path_as(&db, dst, to).map_err(|e| e.to_string())?;
    println!(
        "converted {} ({from:?}) -> {} ({to:?}, {} shapes)",
        src.display(),
        dst.display(),
        db.len()
    );
    Ok(())
}

fn cmd_synth(args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_flags(args)?;
    let db_path = pos
        .first()
        .ok_or("usage: tdess synth <db> --count N [--seed S] [--resolution N] [--format F]")?;
    let count = flag(&flags, "count")
        .ok_or("synth needs --count N")?
        .parse::<usize>()
        .map_err(|e| e.to_string())?;
    let seed = flag(&flags, "seed")
        .map(|v| v.parse::<u64>().map_err(|e| e.to_string()))
        .transpose()?
        .unwrap_or(2004);
    let resolution = flag(&flags, "resolution")
        .map(|v| v.parse::<usize>().map_err(|e| e.to_string()))
        .transpose()?
        .unwrap_or(48);
    let format = flag(&flags, "format")
        .map(parse_format)
        .transpose()?
        .unwrap_or(SnapshotFormat::Binary);
    let extractor = FeatureExtractor {
        voxel_resolution: resolution,
        ..Default::default()
    };
    let shapes = synth_corpus(&extractor, seed, count).map_err(|e| e.to_string())?;
    let mut db = ShapeDatabase::new(extractor);
    db.insert_batch_precomputed(shapes);
    save_to_path_as(&db, Path::new(db_path), format).map_err(|e| e.to_string())?;
    println!("wrote {count} synthetic shapes (seed {seed}) to {db_path} ({format:?})");
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_flags(args)?;
    let db_path = pos.first().ok_or("usage: tdess info <db.json> [--json]")?;
    let db = load_from_path(Path::new(db_path)).map_err(|e| e.to_string())?;
    if has_flag(&flags, "json") {
        return print_json(&InfoReport::for_db(&db));
    }
    println!("shapes: {}", db.len());
    println!(
        "extractor: voxel resolution {}, spectrum dim {}",
        db.extractor().voxel_resolution,
        db.extractor().spectrum_dim
    );
    for kind in FeatureKind::ALL {
        println!(
            "  {:22} dim {:2}  dmax {:.4}",
            kind.label(),
            db.extractor().dim(kind),
            db.dmax(kind)
        );
    }
    for s in db.shapes().iter().take(20) {
        println!(
            "  #{:<4} {:24} {:6} tris",
            s.id,
            s.name,
            s.mesh.num_triangles()
        );
    }
    if db.len() > 20 {
        println!("  ... and {} more", db.len() - 20);
    }
    // Server-tier health check: probe every feature space with the
    // first shape's own features and report the query metrics.
    if !db.is_empty() {
        let server = SearchServer::new(db);
        let probe = server.snapshot().shapes()[0].features.clone();
        for kind in FeatureKind::ALL {
            server.search_features(&probe, &Query::top_k(kind, 5));
        }
        print_metrics(&server.metrics(), &StageStats::collect());
    }
    Ok(())
}

/// Prints the server's query counters and the stage latency rows in
/// the shared CLI footer format.
fn print_metrics(m: &ServerMetrics, stages: &[StageStats]) {
    println!("server metrics:");
    println!("  queries served: {}", m.queries_served);
    println!("  index: {}", m.index_stats);
    print_rows(
        "pipeline stages:",
        stages.iter().map(|s| (s.stage.as_str(), &s.latency)),
    );
}

/// Prints a titled block of latency rows (extremes, mean, quantiles);
/// nothing when there are none.
fn print_rows<'a>(title: &str, rows: impl Iterator<Item = (&'a str, &'a LatencyStats)>) {
    let mut rows = rows.peekable();
    if rows.peek().is_none() {
        return;
    }
    println!("{title}");
    for (label, lat) in rows {
        println!(
            "  {:18} min {:.3} ms  p50 {:.3} ms  p90 {:.3} ms  p99 {:.3} ms  max {:.3} ms  mean {:.3} ms  ({} samples)",
            label,
            lat.min_s * 1e3,
            lat.p50_s * 1e3,
            lat.p90_s * 1e3,
            lat.p99_s * 1e3,
            lat.max_s * 1e3,
            lat.mean_s * 1e3,
            lat.count
        );
    }
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_flags(args)?;
    let [db_path, mesh_path] = &pos[..] else {
        return Err(
            "usage: tdess query <db.json> <mesh> [--kind pm] [--top 10 | --threshold 0.9]".into(),
        );
    };
    let db = load_from_path(Path::new(db_path)).map_err(|e| e.to_string())?;
    let mesh = load_mesh(Path::new(mesh_path)).map_err(|e| e.to_string())?;
    let query = parse_query_flags(&flags)?;
    let server = SearchServer::new(db);
    let hits = server
        .search_mesh(&mesh, &query)
        .map_err(|e| e.to_string())?;
    let db = server.snapshot();
    if has_flag(&flags, "json") {
        return print_json(&HitsReport::new(&db, &hits));
    }
    println!("{} results ({})", hits.len(), query.kind.label());
    for (rank, h) in hits.iter().enumerate() {
        let s = db.get(h.id).expect("hit exists");
        println!(
            "{:3}. {:24} sim {:.3}  dist {:.4}",
            rank + 1,
            s.name,
            h.similarity,
            h.distance
        );
    }
    print_metrics(&server.metrics(), &StageStats::collect());
    // Optional result thumbnails — the SERVER tier's "3D view
    // generation" for terminals.
    if let Some(dir) = flag(&flags, "render") {
        let dir = Path::new(dir);
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        for (rank, h) in hits.iter().enumerate() {
            let s = db.get(h.id).expect("hit exists");
            let img = render(&s.mesh, &RenderParams::default());
            let p = dir.join(format!("{:02}-{}.pgm", rank + 1, s.name));
            img.save_pgm(&p).map_err(|e| e.to_string())?;
        }
        println!("thumbnails written to {}", dir.display());
    }
    Ok(())
}

fn cmd_multistep(args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_flags(args)?;
    let [db_path, mesh_path] = &pos[..] else {
        return Err("usage: tdess multistep <db.json> <mesh> [--steps pm,ev] [--candidates 30] [--present 10]".into());
    };
    let db = load_from_path(Path::new(db_path)).map_err(|e| e.to_string())?;
    let mesh = load_mesh(Path::new(mesh_path)).map_err(|e| e.to_string())?;
    let plan = parse_plan_flags(&flags)?;
    let server = SearchServer::new(db);
    let hits = server
        .multi_step_mesh(&mesh, &plan)
        .map_err(|e| e.to_string())?;
    let db = server.snapshot();
    if has_flag(&flags, "json") {
        return print_json(&HitsReport::new(&db, &hits));
    }
    println!("{} results (multi-step)", hits.len());
    for (rank, h) in hits.iter().enumerate() {
        let s = db.get(h.id).expect("hit exists");
        println!("{:3}. {:24} sim {:.3}", rank + 1, s.name, h.similarity);
    }
    print_metrics(&server.metrics(), &StageStats::collect());
    Ok(())
}

fn cmd_browse(args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_flags(args)?;
    let db_path = pos
        .first()
        .ok_or("usage: tdess browse <db.json> [--kind pm]")?;
    let db = load_from_path(Path::new(db_path)).map_err(|e| e.to_string())?;
    if db.is_empty() {
        return Err("database is empty".into());
    }
    let kind = parse_kind(flag(&flags, "kind").unwrap_or("pm"))?;
    let tree = BrowseTree::build(&db, kind, &HierarchyParams::default(), 7);
    print_node(&db, &tree, &mut tree.cursor(), 0);
    Ok(())
}

fn print_node(
    db: &ShapeDatabase,
    tree: &BrowseTree,
    cursor: &mut threedess::core::BrowseCursor<'_>,
    depth: usize,
) {
    let indent = "  ".repeat(depth);
    if cursor.is_leaf() {
        for id in cursor.shape_ids() {
            println!("{indent}- {}", db.get(id).expect("id exists").name);
        }
        return;
    }
    let n = cursor.num_children();
    for c in 0..n {
        let mut child = tree.cursor();
        for &step in cursor.path() {
            child.descend(step);
        }
        child.descend(c);
        println!("{indent}+ cluster {c} ({} shapes)", child.shape_ids().len());
        print_node(db, tree, &mut child, depth + 1);
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_flags(args)?;
    let db_path = pos.first().ok_or(
        "usage: tdess serve <db.json> [--addr 127.0.0.1:7333] [--workers 4] [--queue 64] [--metrics-addr 127.0.0.1:0] [--cache-bytes N] [--cache-off] [--trace-sample N]",
    )?;
    let db = load_from_path(Path::new(db_path)).map_err(|e| e.to_string())?;
    let addr = flag(&flags, "addr").unwrap_or("127.0.0.1:7333");
    let mut cfg = NetServerConfig::default();
    if let Some(w) = flag(&flags, "workers") {
        cfg.workers = w.parse::<usize>().map_err(|e| e.to_string())?;
    }
    if let Some(q) = flag(&flags, "queue") {
        cfg.queue_depth = q.parse::<usize>().map_err(|e| e.to_string())?;
    }
    // Tail-sampling rate for the flight recorder: keep 1-in-N traces
    // that are neither slow nor errored (those are always kept).
    // `--trace-sample 1` retains everything — handy for smoke tests
    // and short debugging sessions.
    if let Some(s) = flag(&flags, "trace-sample") {
        cfg.trace_sample_one_in = s
            .parse::<u64>()
            .map_err(|e| format!("--trace-sample: {e}"))?;
    }
    let shapes = db.len();
    // The extraction cache is on by default; `--cache-off` restores
    // the uncached extract-every-query behaviour.
    let search = if has_flag(&flags, "cache-off") {
        SearchServer::new(db)
    } else {
        let mut cache_cfg = CacheConfig::default();
        if let Some(b) = flag(&flags, "cache-bytes") {
            cache_cfg.max_bytes = b
                .parse::<u64>()
                .map_err(|e| format!("--cache-bytes: {e}"))?;
        }
        SearchServer::with_cache(db, cache_cfg)
    };
    let server = NetServer::bind(addr, search.clone(), cfg).map_err(|e| e.to_string())?;
    // Optional HTTP side-channel (Prometheus exposition, liveness,
    // request traces); kept alive for the life of the process by the
    // binding below.
    let metrics = match flag(&flags, "metrics-addr") {
        Some(maddr) => {
            let recorder = server.recorder();
            let health = search.clone();
            Some(
                threedess::net::MetricsServer::bind_routes(
                    maddr,
                    vec![
                        threedess::net::MetricsRoute::metrics(server.metrics_renderer()),
                        threedess::net::MetricsRoute::healthz(std::sync::Arc::new(move || {
                            health.metrics().snapshot_swaps
                        })),
                        threedess::net::MetricsRoute::traces(std::sync::Arc::new(move || {
                            tdess_obs::chrome_trace_json(&recorder.snapshot(0, false))
                        })),
                    ],
                )
                .map_err(|e| e.to_string())?,
            )
        }
        None => None,
    };
    // The first lines of output are machine-parseable: smoke tests and
    // scripts read the actual (possibly ephemeral) addresses from
    // them. Banner writes must not take the server down if the
    // launcher closes our stdout (`println!` panics on a broken pipe).
    {
        use std::io::Write;
        let mut out = std::io::stdout();
        let _ = writeln!(out, "listening on {}", server.local_addr());
        if let Some(m) = &metrics {
            let _ = writeln!(out, "metrics on {}", m.local_addr());
        }
        let _ = out.flush();
    }
    // Operational chatter goes through the leveled event API so
    // `TDESS_LOG=warn` runs a quiet server.
    tdess_obs::event!(
        Info,
        "tdess::serve",
        "serving {shapes} shapes from {db_path}"
    );
    // Serve until the process is terminated. Inserts mutate only the
    // in-memory snapshot; the file on disk is the startup state.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn cmd_remote(args: &[String]) -> Result<(), String> {
    let (pos, flags) = split_flags(args)?;
    let usage =
        "usage: tdess remote <addr> <query <mesh>|multistep <mesh>|info|stats|trace|ping> [flags]";
    let [addr, verb, rest @ ..] = &pos[..] else {
        return Err(usage.into());
    };
    let mut client =
        NetClient::connect(addr.as_str(), NetClientConfig::default()).map_err(|e| e.to_string())?;
    let json = has_flag(&flags, "json");
    match verb.as_str() {
        "query" => {
            let mesh_path = rest.first().ok_or(usage)?;
            let mesh = load_mesh(Path::new(mesh_path)).map_err(|e| e.to_string())?;
            let query = parse_query_flags(&flags)?;
            let report = client
                .search_mesh(&mesh, &query)
                .map_err(|e| e.to_string())?;
            if json {
                return print_json(&report);
            }
            println!("{} results ({})", report.hits.len(), query.kind.label());
            print_named_hits(&report);
            Ok(())
        }
        "multistep" => {
            let mesh_path = rest.first().ok_or(usage)?;
            let mesh = load_mesh(Path::new(mesh_path)).map_err(|e| e.to_string())?;
            let plan = parse_plan_flags(&flags)?;
            let report = client.multi_step(&mesh, &plan).map_err(|e| e.to_string())?;
            if json {
                return print_json(&report);
            }
            println!("{} results (multi-step)", report.hits.len());
            print_named_hits(&report);
            Ok(())
        }
        "info" => {
            let report = client.info().map_err(|e| e.to_string())?;
            if json {
                return print_json(&report);
            }
            println!("shapes: {}", report.shapes);
            println!(
                "extractor: voxel resolution {}, spectrum dim {}",
                report.voxel_resolution, report.spectrum_dim
            );
            for s in &report.spaces {
                println!("  {:22?} dim {:2}  dmax {:.4}", s.kind, s.dim, s.dmax);
            }
            Ok(())
        }
        "stats" => {
            let report = client.stats().map_err(|e| e.to_string())?;
            if json {
                return print_json(&report);
            }
            println!("shapes: {}", report.shapes);
            print_metrics(&report.server, &report.stages);
            print_rows(
                "requests:",
                report
                    .requests
                    .iter()
                    .map(|r| (r.request.as_str(), &r.latency)),
            );
            let t = &report.transport;
            println!(
                "transport: {} accepted, {} rejected, {} frames decoded, {} decode errors, {} requests served",
                t.connections_accepted,
                t.connections_rejected,
                t.frames_decoded,
                t.decode_errors,
                t.requests_served
            );
            if let Some(c) = &report.cache {
                println!(
                    "cache: {} hits, {} misses, {} coalesced, {} evictions, {} entries, {}/{} bytes",
                    c.hits,
                    c.misses,
                    c.coalesced_waits,
                    c.evictions,
                    c.entries,
                    c.resident_bytes,
                    c.capacity_bytes
                );
            } else {
                println!("cache: off");
            }
            Ok(())
        }
        "trace" => {
            let last = match flag(&flags, "last") {
                Some(v) => v.parse::<usize>().map_err(|e| format!("--last: {e}"))?,
                None => 0,
            };
            let report = client
                .traces(last, has_flag(&flags, "slow"))
                .map_err(|e| e.to_string())?;
            match flag(&flags, "format").unwrap_or("chrome") {
                // Perfetto / chrome://tracing loadable; pipe to a file.
                "chrome" => {
                    println!("{}", tdess_obs::chrome_trace_json(&report.traces));
                    Ok(())
                }
                // One RequestTrace JSON object per line, for jq-style
                // filtering.
                "jsonl" => {
                    for t in &report.traces {
                        println!(
                            "{}",
                            serde_json::to_string(t.as_ref()).map_err(|e| e.to_string())?
                        );
                    }
                    Ok(())
                }
                other => Err(format!("unknown trace format `{other}` (chrome|jsonl)")),
            }
        }
        "ping" => {
            client.ping().map_err(|e| e.to_string())?;
            println!("pong");
            Ok(())
        }
        other => Err(format!("unknown remote verb `{other}`\n{usage}")),
    }
}

/// Prints a ranked hit list the way the local query verbs do.
fn print_named_hits(report: &HitsReport) {
    for (rank, h) in report.hits.iter().enumerate() {
        println!(
            "{:3}. {:24} sim {:.3}  dist {:.4}",
            rank + 1,
            h.name,
            h.similarity,
            h.distance
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parsing() {
        assert_eq!(parse_kind("pm").unwrap(), FeatureKind::PrincipalMoments);
        assert_eq!(parse_kind("ev").unwrap(), FeatureKind::Eigenvalues);
        assert!(parse_kind("xx").is_err());
    }

    #[test]
    fn flag_splitting() {
        let args: Vec<String> = ["a.json", "--top", "5", "b.off", "--kind", "mi"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (pos, flags) = split_flags(&args).unwrap();
        assert_eq!(pos, vec!["a.json", "b.off"]);
        assert_eq!(flag(&flags, "top"), Some("5"));
        assert_eq!(flag(&flags, "kind"), Some("mi"));
        assert_eq!(flag(&flags, "missing"), None);
        // Trailing flag without value errors.
        let bad: Vec<String> = ["--top".to_string()].to_vec();
        assert!(split_flags(&bad).is_err());
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&["frobnicate".to_string()]).is_err());
        assert!(run(&[]).is_err());
        assert!(run(&["help".to_string()]).is_ok());
    }
}
