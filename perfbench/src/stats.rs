//! Order statistics for the benchmark's reported numbers.
//!
//! Percentiles use the nearest-rank definition: the `q`-quantile of `n`
//! sorted samples is the sample at 1-based rank `ceil(q·n)`. That makes
//! the number of samples strictly beyond a reported percentile exact —
//! `n − ceil(q·n)` — which is what the reporting rule needs: a tail
//! percentile is only reported once at least [`MIN_BEYOND`] samples lie
//! beyond it (so p99 needs at least 1,000 samples).

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The `q`-quantile (`q` in `(0, 1]`) of already-sorted samples, or
/// `None` when there are none.
fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// How many of `n` samples lie strictly beyond the `q`-quantile.
fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Median of unsorted values (the nearest-rank median: the lower middle
/// value for even counts, so always an observed value), or `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// A latency distribution reduced to what the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples.
    pub n: usize,
    /// Median, in the samples' unit.
    pub p50: f64,
    /// 99th percentile, in the samples' unit.
    pub p99: f64,
    /// Samples strictly beyond `p99`.
    pub p99_beyond: usize,
}

impl Latency {
    /// Summarises `samples` (any order). `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Latency> {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Latency {
            n: v.len(),
            p50: quantile_sorted(&v, 0.50)?,
            p99: quantile_sorted(&v, 0.99)?,
            p99_beyond: beyond(v.len(), 0.99),
        })
    }

    /// `true` when p99 has at least [`MIN_BEYOND`] samples beyond it.
    pub fn p99_supported(&self) -> bool {
        self.p99_beyond >= MIN_BEYOND
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), Some(50.0));
        assert_eq!(quantile_sorted(&v, 0.99), Some(99.0));
        assert_eq!(quantile_sorted(&v, 1.0), Some(100.0));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        assert_eq!(quantile_sorted(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 999 samples leave only 9 beyond the 99th percentile.
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        let l = Latency::of(&short).unwrap();
        assert_eq!(l.p99_beyond, 9);
        assert!(!l.p99_supported());
        let long: Vec<f64> = (0..1000).map(f64::from).collect();
        let l = Latency::of(&long).unwrap();
        assert_eq!(l.n, 1000);
        assert_eq!(l.p99_beyond, 10);
        assert!(l.p99_supported());
        assert_eq!(l.p99, 989.0);
        assert_eq!(l.p50, 499.0);
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let a = [5.0, 1.0, 3.0, 2.0, 4.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(Latency::of(&a), Latency::of(&b));
        assert_eq!(median(&a), Some(3.0));
        assert_eq!(median(&[2.0, 1.0]), Some(1.0));
        assert_eq!(Latency::of(&[]), None);
    }
}
