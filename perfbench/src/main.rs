//! `perfbench` — the repository benchmark: the shipped `tdess serve`
//! under two seeded workloads (`features`, `example`), measured end to
//! end over the wire, plus a traced in-process replay that splits the
//! same requests into per-layer costs.
//!
//! ```text
//! perfbench --workload features|example --seed N --seconds S --trace 0|1
//!           --tdess <path to the release tdess binary> --work-dir <dir>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Host
//! diagnostics and the traced-run summary go to standard error. See
//! `perfbench/README.md`.

mod checks;
mod host;
mod procs;
mod stats;
mod timed;
mod traced;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tdess_core::load_from_path;
use tdess_net::NetClient;

use checks::Fingerprint;
use host::HostProbe;
use procs::{Served, TempDir};
use stats::quantile;
use timed::{read_loop, write_loop, Pace};
use workload::{ReadBody, ReadStream, Workload};

/// Snapshot builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Writer ops before the measured ones.
const WRITE_WARMUP: usize = 4;
/// Pace of the measured writes: they span about twenty seconds of host
/// time, so one burst of host noise moves few of the samples beyond p90.
const WRITES_PACED_HZ: f64 = 20.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    tdess: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let workload = value("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload `{workload}` (features|example)"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        },
        tdess: PathBuf::from(value("--tdess")?),
        work_dir: PathBuf::from(value("--work-dir")?),
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A run's result line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        if args.trace {
            traced::run(&args)
        } else {
            timed_run(&args)
        }
    });
    match result {
        Ok(outcome) => {
            println!("{}", outcome.json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: the run was NOT correct; see the messages above");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Builds and serves the workload's snapshot `SETUP_REPS` times, keeps
/// the last server, and returns it with the median set-up time.
fn set_up(args: &Args) -> Result<(Served, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        // The previous server is reaped before the next build starts.
        drop(last.take());
        let dir = TempDir::new(&args.work_dir.join("tmp"), &format!("setup{rep}"))?;
        let (served, secs) = procs::set_up(&args.tdess, args.workload.snapshot(), dir)?;
        times.push(secs);
        last = Some(served);
    }
    let served = last.ok_or("no set-up ran")?;
    Ok((served, stats::median(&times)))
}

/// A connected client that has answered one ping.
fn connect(served: &Served) -> Result<NetClient, String> {
    let mut client =
        NetClient::connect_default(served.server.addr()).map_err(|e| format!("connect: {e}"))?;
    client.ping().map_err(|e| format!("ping: {e}"))?;
    Ok(client)
}

/// Writer ops of a run, warm-up included: `(inserts, removes)`. The
/// measured ops give two blocks of 100 inserts (see
/// `stats::block_quantile`) and, on `features`, two of removes. The
/// 113-shape `example` corpus has originals for only one block of
/// removes.
fn write_plan(workload: Workload) -> (usize, usize) {
    match workload {
        Workload::Features => (202, 202),
        Workload::Example => (204, 102),
    }
}

/// The cache misses the server has counted so far.
fn cache_misses(client: &mut NetClient) -> Result<u64, String> {
    Ok(client
        .stats()
        .map_err(|e| format!("Stats: {e}"))?
        .cache
        .map_or(0, |c| c.misses))
}

/// Reads before the measured phase: every kind and the first cold
/// extractions, kept out of the numbers.
fn warmup_reads(workload: Workload) -> usize {
    match workload {
        Workload::Example => 40,
        Workload::Features => 2000,
    }
}

/// The fixed sample of reads whose wire answers are checked: every
/// `stride`-th read (offset from the seed) of the first `span` reads
/// after the warm-up. The phase must complete all of them.
fn check_sample(workload: Workload, seed: u64) -> (usize, usize, usize) {
    let start = warmup_reads(workload);
    let (span, stride) = match workload {
        Workload::Example => (400, 25),
        Workload::Features => (2000, 10),
    };
    (
        start + (seed % stride as u64) as usize,
        start + span,
        stride,
    )
}

fn timed_run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let stream = ReadStream::new(w, args.seed)?;
    let (mut served, setup_s) = set_up(args)?;
    served.pin();
    let db = load_from_path(&served.db).map_err(|e| format!("loading the snapshot: {e}"))?;
    let stored = db.len();
    let (inserts, removes) = write_plan(w);
    let writes = workload::writes(args.seed, inserts, removes, stored);
    let mut reader = connect(&served)?;

    let warm = read_loop(
        &mut reader,
        &stream,
        0..warmup_reads(w),
        Instant::now() + Duration::from_secs(60),
        |_| false,
    );
    if warm.failed > 0 || warm.next < warmup_reads(w) {
        return Err("warm-up reads failed".into());
    }
    let mut fp = Fingerprint {
        digest: stream.digest() ^ workload::writes_digest(&writes),
        cache_misses: cache_misses(&mut reader)?,
        ..Default::default()
    };

    let (first, last, stride) = check_sample(w, args.seed);
    let keep = |i: usize| i >= first && i < last && (i - first).is_multiple_of(stride);
    let before = HostProbe::take();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let reads = read_loop(&mut reader, &stream, warm.next..usize::MAX, deadline, keep);
    let peak_rss_mb = served.server.peak_rss_mb()?;
    if reads.next >= stream.len() {
        eprintln!(
            "perfbench: warning: the request stream ran out after {} reads; the phase lasted {:.3} s, not {}",
            stream.len(),
            reads.elapsed_s,
            args.seconds
        );
    }
    let mut failed = reads.failed;
    if w == Workload::Example {
        // Every first sighting, and nothing else, misses the cache.
        let sent_fresh = (0..reads.next)
            .filter(|&i| matches!(stream.read(i).body, ReadBody::Mesh { fresh: true, .. }))
            .count() as u64;
        let misses = cache_misses(&mut reader)?;
        if misses != sent_fresh {
            eprintln!("perfbench: {misses} cache misses for {sent_fresh} first sightings");
            failed += 1;
        }
    }

    // Writes are measured after the read phase, never beside measured
    // reads, on a fresh server of the same snapshot: the read server's
    // heap and cache grow with the number of reads the phase completed,
    // which differs from run to run.
    drop(reader);
    served.restart(&args.tdess)?;
    served.pin();
    let mut writer = connect(&served)?;
    let warm_writes = write_loop(
        &mut writer,
        &writes[..WRITE_WARMUP],
        Pace::Closed,
        Instant::now(),
    );
    if warm_writes.failed > 0 {
        return Err("warm-up writes failed".into());
    }
    let wlog = write_loop(
        &mut writer,
        &writes[WRITE_WARMUP..],
        Pace::Paced(WRITES_PACED_HZ),
        Instant::now(),
    );
    let after = HostProbe::take();
    let late_p50 = quantile(&wlog.late_ms, 0.5);
    let late_max = quantile(&wlog.late_ms, 1.0);
    eprintln!(
        "perfbench: host {} writer_late_ms p50 {late_p50:.3} max {late_max:.3}",
        host::summary(&before, &after)
    );

    // Answer checks and the self-check, outside the timed phase.
    failed += warm_writes.failed + wlog.failed;
    if reads.next < last {
        return Err(format!(
            "the phase ended at read {} before the checked sample (up to {last}) completed",
            reads.next
        ));
    }
    failed += checks::check_reads(&stream, &db, &reads.kept, &mut fp)?;
    // Op indices of the measured writes are relative to their slice.
    let mut inserted = warm_writes.inserted;
    inserted.extend(wlog.inserted.iter().map(|&(id, k)| (id, k + WRITE_WARMUP)));
    let stride = if w == Workload::Example { 4 } else { 1 };
    let shapes = stored + inserts - removes;
    failed += checks::check_writes(&mut writer, shapes, &writes, &inserted, stride, &mut fp)?;
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    checks::self_check(
        &args.work_dir,
        checks::build_id(&[&args.tdess, &exe])?,
        w.name(),
        args.seed,
        |seed| {
            let writes = workload::writes(seed, inserts, removes, stored);
            Ok(ReadStream::new(w, seed)?.digest() ^ workload::writes_digest(&writes))
        },
        &fp,
    )?;

    let ms = |v: &[f64], q: f64| quantile(v, q);
    let bq = stats::block_quantile;
    for (what, n, q) in [
        ("reads", reads.lat_ms.len(), 0.99),
        ("inserts", wlog.insert_ms.len(), 0.9),
        ("removes", wlog.remove_ms.len(), 0.9),
    ] {
        if stats::beyond(n, q) < 10 {
            eprintln!(
                "perfbench: warning: only {} {what} beyond the reported p{}",
                stats::beyond(n, q),
                q * 100.0
            );
        }
    }
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "qps",
            value: reads.qps(),
            unit: "1/s",
        },
        Metric {
            name: "p50_ms",
            value: bq(&reads.lat_ms, 0.5),
            unit: "ms",
        },
        Metric {
            name: "p90_ms",
            value: bq(&reads.lat_ms, 0.9),
            unit: "ms",
        },
        Metric {
            name: "p99_ms",
            value: bq(&reads.lat_ms, 0.99),
            unit: "ms",
        },
        Metric {
            name: "insert_p50_ms",
            value: bq(&wlog.insert_ms, 0.5),
            unit: "ms",
        },
        Metric {
            name: "insert_p90_ms",
            value: bq(&wlog.insert_ms, 0.9),
            unit: "ms",
        },
        Metric {
            name: "remove_p50_ms",
            value: bq(&wlog.remove_ms, 0.5),
            unit: "ms",
        },
        Metric {
            name: "remove_p90_ms",
            value: bq(&wlog.remove_ms, 0.9),
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb,
            unit: "MB",
        },
    ];
    eprintln!(
        "perfbench: {} reads in {:.3} s ({:.1}/s; whole-phase p50 {:.4} p90 {:.4} p99 {:.4} ms), {} writes",
        reads.lat_ms.len(),
        reads.elapsed_s,
        reads.lat_ms.len() as f64 / reads.elapsed_s,
        ms(&reads.lat_ms, 0.5),
        ms(&reads.lat_ms, 0.9),
        ms(&reads.lat_ms, 0.99),
        wlog.attempted
    );
    Ok(Outcome {
        correct: failed == 0,
        attempted: reads.attempted + wlog.attempted + warm_writes.attempted,
        failed,
        metrics,
    })
}
