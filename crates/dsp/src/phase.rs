//! Phase wrapping and unwrapping helpers.
//!
//! RFID readers report phase modulo 2π (Section V of the paper). These
//! helpers wrap, unwrap and compare phases consistently.

use std::f64::consts::PI;

/// Wraps a phase to `(-π, π]`.
///
/// ```
/// use m2ai_dsp::phase::wrap;
/// assert!((wrap(3.0 * std::f64::consts::PI) - std::f64::consts::PI).abs() < 1e-12);
/// assert!((wrap(-0.1) + 0.1).abs() < 1e-12);
/// ```
pub fn wrap(phi: f64) -> f64 {
    let mut p = phi % (2.0 * PI);
    if p <= -PI {
        p += 2.0 * PI;
    } else if p > PI {
        p -= 2.0 * PI;
    }
    p
}

/// Wraps a phase to `[0, 2π)` — the convention of LLRP phase reports.
pub fn wrap_positive(phi: f64) -> f64 {
    let p = phi.rem_euclid(2.0 * PI);
    if p >= 2.0 * PI {
        0.0
    } else {
        p
    }
}

/// Shortest signed angular distance `a − b`, in `(-π, π]`.
pub fn difference(a: f64, b: f64) -> f64 {
    wrap(a - b)
}

/// Unwraps a sequence of wrapped phases into a continuous trajectory.
///
/// Consecutive jumps larger than π are interpreted as wraps.
///
/// ```
/// use m2ai_dsp::phase::{unwrap, wrap_positive};
/// let truth: Vec<f64> = (0..50).map(|t| 0.4 * t as f64).collect();
/// let wrapped: Vec<f64> = truth.iter().map(|&p| wrap_positive(p)).collect();
/// let un = unwrap(&wrapped);
/// for (a, b) in truth.iter().zip(&un) {
///     assert!(((a - b) - (truth[0] - un[0])).abs() < 1e-9);
/// }
/// ```
pub fn unwrap(phases: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(phases.len());
    let mut offset = 0.0;
    for (i, &p) in phases.iter().enumerate() {
        if i > 0 {
            let prev = phases[i - 1];
            let d = p - prev;
            if d > PI {
                offset -= 2.0 * PI;
            } else if d < -PI {
                offset += 2.0 * PI;
            }
        }
        out.push(p + offset);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_range() {
        for k in -10..=10 {
            let phi = 0.3 + k as f64 * 2.0 * PI;
            assert!((wrap(phi) - 0.3).abs() < 1e-9);
        }
        assert!(wrap(PI) <= PI && wrap(PI) > -PI);
        assert!(wrap(-PI) <= PI && wrap(-PI) > -PI);
    }

    #[test]
    fn wrap_positive_range() {
        for k in -5..=5 {
            let phi = 1.0 + k as f64 * 2.0 * PI;
            let w = wrap_positive(phi);
            assert!((0.0..2.0 * PI).contains(&w));
            assert!((w - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn difference_is_shortest_path() {
        assert!((difference(0.1, 2.0 * PI - 0.1) - 0.2).abs() < 1e-9);
        assert!((difference(2.0 * PI - 0.1, 0.1) + 0.2).abs() < 1e-9);
    }

    #[test]
    fn unwrap_recovers_linear_ramp() {
        let truth: Vec<f64> = (0..100).map(|t| -0.7 * t as f64).collect();
        let wrapped: Vec<f64> = truth.iter().map(|&p| wrap_positive(p)).collect();
        let un = unwrap(&wrapped);
        // Same shape up to a constant offset.
        let offset = un[0] - truth[0];
        for (a, b) in truth.iter().zip(&un) {
            assert!((b - a - offset).abs() < 1e-9);
        }
    }

    #[test]
    fn unwrap_empty_and_single() {
        assert!(unwrap(&[]).is_empty());
        assert_eq!(unwrap(&[1.5]), vec![1.5]);
    }
}
