//! Order statistics over samples.

/// The nearest-rank `q`-quantile of `samples` (`q` in (0, 1]): the
/// smallest sample with at least `q·n` samples at or below it. NaN for
/// an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

/// The median (nearest-rank 0.5-quantile).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The `q`-quantile of a run's latencies: the median over blocks of
/// consecutive samples of each block's `q`-quantile. A block holds at
/// least enough samples for ten beyond its quantile (20 for p50, 100
/// for p90, 1000 for p99). A burst of host noise then moves the blocks
/// it hits, not the reported value.
pub fn block_quantile(samples: &[f64], q: f64) -> f64 {
    let size = (10.0 / (1.0 - q)).round() as usize;
    let per: Vec<f64> = blocks(samples.len(), size)
        .map(|(lo, hi)| quantile(&samples[lo..hi], q))
        .collect();
    median(&per)
}

/// `n` samples cut into as many consecutive blocks of at least `size`
/// as fit, the remainder spread over them; one block when fewer.
pub fn blocks(n: usize, size: usize) -> impl Iterator<Item = (usize, usize)> {
    let count = (n / size.max(1)).max(1);
    (0..count).map(move |b| (b * n / count, (b + 1) * n / count))
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie beyond the nearest-rank `q`-quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn blocks_cover_every_sample() {
        assert_eq!(blocks(201, 100).collect::<Vec<_>>(), [(0, 100), (100, 201)]);
        assert_eq!(blocks(50, 100).collect::<Vec<_>>(), [(0, 50)]);
    }

    #[test]
    fn a_burst_in_one_block_does_not_move_the_block_quantile() {
        let mut v: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        for x in &mut v[200..] {
            *x *= 2.0;
        }
        assert_eq!(block_quantile(&v, 0.9), 89.0);
    }
}
