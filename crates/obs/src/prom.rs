//! Prometheus text exposition (format version 0.0.4).
//!
//! [`PromText`] accumulates metric families with `# HELP` / `# TYPE`
//! annotations: plain counters and gauges, and labelled cumulative
//! histograms for latencies (per stage, per request kind), all over
//! the one bucket scheme of [`HistogramSnapshot`]. Empty snapshots are
//! skipped entirely rather than rendered as fake zeros.

use crate::hist::HistogramSnapshot;
use std::fmt::Write as _;

/// Incremental builder for a Prometheus `/metrics` page.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
}

impl PromText {
    /// Creates an empty page.
    pub fn new() -> PromText {
        PromText::default()
    }

    fn head(&mut self, name: &str, help: &str, ty: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {ty}");
    }

    /// Appends a monotonic counter.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.head(name, help, "counter");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// Appends a gauge.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.head(name, help, "gauge");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// Appends one labelled histogram family, one series per
    /// `(value, snapshot)` pair labelled `{label}="value"`: cumulative
    /// `_bucket{le=...}` lines over the non-empty buckets, a `+Inf`
    /// bucket, and `_sum`/`_count`. Series with no samples are
    /// skipped; the family is omitted when all are empty.
    pub fn stage_histograms(
        &mut self,
        name: &str,
        help: &str,
        label: &str,
        series: &[(&str, HistogramSnapshot)],
    ) {
        if series.iter().all(|(_, s)| s.is_empty()) {
            return;
        }
        self.head(name, help, "histogram");
        for (value, snap) in series {
            if snap.is_empty() {
                continue;
            }
            let mut cumulative = 0u64;
            for (upper_nanos, count) in snap.buckets() {
                cumulative += count;
                let _ = writeln!(
                    self.out,
                    "{name}_bucket{{{label}=\"{value}\",le=\"{}\"}} {cumulative}",
                    upper_nanos as f64 / 1e9
                );
            }
            let _ = writeln!(
                self.out,
                "{name}_bucket{{{label}=\"{value}\",le=\"+Inf\"}} {}",
                snap.count()
            );
            let _ = writeln!(
                self.out,
                "{name}_sum{{{label}=\"{value}\"}} {}",
                snap.sum_seconds()
            );
            let _ = writeln!(
                self.out,
                "{name}_count{{{label}=\"{value}\"}} {}",
                snap.count()
            );
        }
    }

    /// Finishes the page and returns the exposition body.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    #[test]
    fn counters_and_gauges_render_with_annotations() {
        let mut p = PromText::new();
        p.counter("tdess_queries_served_total", "Queries served.", 42);
        p.gauge("tdess_queue_depth", "Queued requests.", 3.0);
        let page = p.finish();
        assert!(page.contains("# HELP tdess_queries_served_total Queries served.\n"));
        assert!(page.contains("# TYPE tdess_queries_served_total counter\n"));
        assert!(page.contains("tdess_queries_served_total 42\n"));
        assert!(page.contains("# TYPE tdess_queue_depth gauge\n"));
        assert!(page.contains("tdess_queue_depth 3\n"));
    }

    #[test]
    fn stage_histogram_renders_cumulative_buckets_and_skips_empty_series() {
        let h = Histogram::new();
        h.record_nanos(5_000);
        h.record_nanos(50_000);
        let mut p = PromText::new();
        p.stage_histograms(
            "tdess_stage_duration_seconds",
            "Stage timings.",
            "stage",
            &[
                ("voxelize", h.snapshot()),
                ("rerank", HistogramSnapshot::empty()),
            ],
        );
        let page = p.finish();
        assert!(page.contains("# TYPE tdess_stage_duration_seconds histogram\n"));
        assert!(page
            .contains("tdess_stage_duration_seconds_bucket{stage=\"voxelize\",le=\"+Inf\"} 2\n"));
        assert!(page.contains("tdess_stage_duration_seconds_count{stage=\"voxelize\"} 2\n"));
        assert!(!page.contains("stage=\"rerank\""));
        // Cumulative counts never decrease along the bucket lines.
        let counts: Vec<u64> = page
            .lines()
            .filter(|l| l.contains("stage=\"voxelize\",le=") && !l.contains("+Inf"))
            .filter_map(|l| l.rsplit(' ').next())
            .filter_map(|v| v.parse().ok())
            .collect();
        assert!(!counts.is_empty());
        for w in counts.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn all_empty_stage_family_is_omitted() {
        let mut p = PromText::new();
        p.stage_histograms(
            "tdess_stage_duration_seconds",
            "Stage timings.",
            "stage",
            &[("eigen", HistogramSnapshot::empty())],
        );
        assert_eq!(p.finish(), "");
    }
}
