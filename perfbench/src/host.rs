//! Host diagnostics taken around a measured phase. They are reported,
//! never gated: they let a reader tell a disturbed run from a
//! regression.

use std::hint::black_box;
use std::time::Instant;

/// Host state at one instant.
pub struct HostProbe {
    /// Cumulative steal ticks from the `cpu` line of `/proc/stat`.
    steal_ticks: u64,
    /// The 1-minute load average.
    load1: f64,
    /// Milliseconds one fixed calibration loop took.
    calibration_ms: f64,
}

impl HostProbe {
    /// Reads `/proc` and times the calibration loop.
    pub fn take() -> HostProbe {
        HostProbe {
            steal_ticks: steal_ticks(),
            load1: load1(),
            calibration_ms: calibration_ms(),
        }
    }
}

/// One JSON object describing the host over a phase bounded by two
/// probes.
pub fn summary(before: &HostProbe, after: &HostProbe) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |p| p.get());
    format!(
        "{{\"available_parallelism\": {parallelism}, \"steal_ticks\": {}, \"load1_before\": {}, \"load1_after\": {}, \"calibration_ms_before\": {:.3}, \"calibration_ms_after\": {:.3}}}",
        after.steal_ticks.saturating_sub(before.steal_ticks),
        before.load1,
        after.load1,
        before.calibration_ms,
        after.calibration_ms,
    )
}

fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn load1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(f64::NAN)
}

/// A fixed amount of integer work (xorshift steps), timed.
fn calibration_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}
