//! Order statistics under the benchmark's reporting rule.
//!
//! A timing is reported as its median and the highest percentile (up
//! to p99) that has at least [`MIN_BEYOND`] samples beyond it, together
//! with the sample count. Failed or refused operations enter the
//! distribution as `+∞`, so they can only push a percentile up.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median and supported tail of one latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Samples in the distribution, failures included.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile actually reported, as a fraction (0.99 when
    /// the sample supports it).
    pub q: f64,
    /// Value at `q`.
    pub tail: f64,
}

impl Tail {
    /// Summarises `samples` (any order; `+∞` marks a failure), asking
    /// for p99 and falling back to the highest percentile the sample
    /// count supports. `None` when there are no samples.
    pub fn of(samples: &[f64]) -> Option<Tail> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let q = supported_quantile(sorted.len(), 0.99);
        Some(Tail {
            n: sorted.len(),
            p50: quantile_sorted(&sorted, 0.5),
            q,
            tail: quantile_sorted(&sorted, q),
        })
    }

    /// The reported tail percentile as a label, e.g. `p99` or `p95.8`.
    pub fn label(&self) -> String {
        let pct = (self.q * 1000.0).round() / 10.0;
        if pct.fract() == 0.0 {
            format!("p{pct:.0}")
        } else {
            format!("p{pct:.1}")
        }
    }
}

/// The rate a run sustains: the 10th percentile of its per-pass rates.
///
/// On a shared machine speed drifts between a steady base state and
/// faster, erratic phases lasting seconds. The median of a run then
/// depends on how much of it fell in fast phases; its slow side is the
/// steady state, and the 10th percentile reads it without being moved
/// by one stalled pass.
pub fn sustained_rate(rates: &[f64]) -> f64 {
    quantile(rates, 0.1)
}

/// The median latency a run sustains: the 90th percentile of its
/// per-slice medians (the mirror image of [`sustained_rate`]). A tail
/// percentile is summarised by the median over slices instead: stalls
/// move single slices' tails far more than machine phases do.
pub fn sustained_latency(per_slice: &[f64]) -> f64 {
    quantile(per_slice, 0.9)
}

/// Quantile `q` of `values` (any order). `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// The highest quantile `≤ wanted` with at least [`MIN_BEYOND`] of `n`
/// samples strictly above its rank, never below the median.
pub fn supported_quantile(n: usize, wanted: f64) -> f64 {
    if n == 0 {
        return 0.5;
    }
    let cap = 1.0 - MIN_BEYOND as f64 / n as f64;
    wanted.min(cap).max(0.5)
}

/// Linear-interpolated quantile of an ascending slice (the
/// "type 7" estimator). An infinite neighbour makes the result
/// infinite instead of NaN.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (a, b) = (sorted[lo], sorted[hi]);
    if lo == hi || a == b {
        return a;
    }
    if a.is_infinite() || b.is_infinite() {
        return f64::INFINITY;
    }
    a + (b - a) * (pos - lo as f64)
}

/// Median of `values` (any order). `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: exactly 10 lie beyond the 99th percentile.
        assert_eq!(supported_quantile(1000, 0.99), 0.99);
        // 500 samples support only p98.
        assert!((supported_quantile(500, 0.99) - 0.98).abs() < 1e-12);
        // Tiny samples never report below the median.
        assert_eq!(supported_quantile(12, 0.99), 0.5);
        assert_eq!(supported_quantile(0, 0.99), 0.5);
    }

    #[test]
    fn tail_reports_its_percentile_and_sample_count() {
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = Tail::of(&big).unwrap();
        assert_eq!(t.n, 2000);
        assert_eq!(t.q, 0.99);
        assert_eq!(t.label(), "p99");
        assert!((t.p50 - 1000.5).abs() < 1e-9);
        assert!((t.tail - 1980.01).abs() < 1e-6);

        let small: Vec<f64> = (1..=240).map(f64::from).collect();
        let t = Tail::of(&small).unwrap();
        assert_eq!(t.n, 240);
        assert!((t.q - (1.0 - 10.0 / 240.0)).abs() < 1e-12);
        assert_eq!(t.label(), "p95.8");
        // At least ten samples lie above the reported tail value.
        assert!(small.iter().filter(|&&v| v > t.tail).count() >= 10);
        assert!(Tail::of(&[]).is_none());
    }

    #[test]
    fn failures_enter_the_distribution_as_infinite() {
        // 1000 clean samples at 1 ms plus 11 failures: more than 1 %
        // failed, so p99 itself must be infinite.
        let mut s = vec![1.0; 1000];
        s.extend(std::iter::repeat_n(f64::INFINITY, 11));
        let t = Tail::of(&s).unwrap();
        assert_eq!(t.n, 1011);
        assert!(t.tail.is_infinite());
        assert_eq!(t.p50, 1.0);

        // A handful of failures still moves the tail up, never down.
        let mut s: Vec<f64> = (0..1000).map(|i| i as f64 / 1000.0).collect();
        let clean = Tail::of(&s).unwrap().tail;
        s.extend([f64::INFINITY; 5]);
        assert!(Tail::of(&s).unwrap().tail > clean);
    }

    #[test]
    fn sustained_estimates_read_the_slow_side() {
        // Eight passes in the steady state, two in a fast phase, one
        // stalled: the sustained rate sits in the steady state.
        let mut rates = vec![400.0; 8];
        rates.extend([600.0, 650.0, 50.0]);
        assert_eq!(sustained_rate(&rates), 400.0);
        // Latencies mirror it.
        let mut lat = vec![0.4; 8];
        lat.extend([0.2, 0.2, 9.0]);
        assert!((sustained_latency(&lat) - 0.4).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(quantile_sorted(&[1.0, f64::INFINITY], 0.5), f64::INFINITY);
    }
}
