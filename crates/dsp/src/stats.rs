//! Descriptive statistics, including circular statistics for phases.

use std::f64::consts::PI;

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance; `0.0` for slices shorter than 2.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Median (by copy + sort); `0.0` for an empty slice.
///
/// This is the estimator the paper's phase calibration (Eq. 1) applies to
/// the recent per-channel phase history.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Quantile via linear interpolation, `q ∈ [0, 1]`; `0.0` when empty.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    v[lo] * (1.0 - frac) + v[hi] * frac
}

/// Circular "median": the sample angle minimising the summed circular
/// distance to all others. `0.0` when empty.
///
/// More robust than a circular mean against the π-flips the Impinj
/// receive chain injects.
pub fn circular_median(phases: &[f64]) -> f64 {
    if phases.is_empty() {
        return 0.0;
    }
    let dist = |a: f64, b: f64| {
        let d = (a - b).rem_euclid(2.0 * PI);
        d.min(2.0 * PI - d)
    };
    let mut best = phases[0];
    let mut best_cost = f64::INFINITY;
    for &cand in phases {
        let cost: f64 = phases.iter().map(|&p| dist(cand, p)).sum();
        if cost < best_cost {
            best_cost = cost;
            best = cand;
        }
    }
    best
}

/// Ordinary least squares fit `y ≈ slope·x + intercept`.
///
/// Returns `(slope, intercept)`; `(0, mean(y))` for degenerate inputs.
/// Used to verify the linear phase-vs-frequency relation of Fig. 3.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    if xs.len() != ys.len() || xs.len() < 2 {
        return (0.0, mean(ys));
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
    }
    if sxx <= 0.0 {
        return (0.0, my);
    }
    let slope = sxy / sxx;
    (slope, my - slope * mx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_median_basic() {
        let xs = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert!((mean(&xs) - 22.0).abs() < 1e-12);
        assert_eq!(median(&xs), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn median_robust_to_outliers() {
        let clean = [1.0, 1.1, 0.9, 1.05, 0.95];
        let dirty = [1.0, 1.1, 0.9, 1.05, 50.0];
        assert!((median(&clean) - median(&dirty)).abs() < 0.2);
    }

    #[test]
    fn variance_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn quantiles() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 0.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.5), 2.0);
        assert!((quantile(&xs, 0.25) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_domain() {
        quantile(&[1.0], 1.5);
    }

    #[test]
    fn circular_median_picks_cluster() {
        let phases = [0.1, 0.12, 0.09, 3.0];
        let m = circular_median(&phases);
        assert!((m - 0.1).abs() < 0.05, "got {m}");
    }

    #[test]
    fn linear_fit_recovers_line() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.5 * x - 2.0).collect();
        let (slope, intercept) = linear_fit(&xs, &ys);
        assert!((slope - 3.5).abs() < 1e-9);
        assert!((intercept + 2.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(circular_median(&[]), 0.0);
        let (s, i) = linear_fit(&[], &[]);
        assert_eq!((s, i), (0.0, 0.0));
    }
}
