//! Coherent backscatter channel response synthesis.
//!
//! A passive tag reflects the reader's own carrier, so the signal
//! observed at an antenna is a coherent **double sum over path pairs**:
//! energy travels reader→tag along path `p` and tag→reader along path
//! `q`, for every combination `(p, q)` (Section III-B, Eq. 5–6 of the
//! paper generalised beyond two paths). The `p = q` terms dominate and
//! carry round-trip phase `4πd/λ`; the cross terms are what make
//! multi-tag scenes "twist" (Fig. 2(c)).
//!
//! Array elements sit at `center − k·spacing·axis` (k = 0 is the
//! reference), so under the far-field approximation a path arriving at
//! angle θ reaches element `k` after an extra `k·spacing·cosθ` metres —
//! matching the `m2ai-dsp` steering-vector convention with
//! `round_trip = true`.

use crate::paths::PropagationPath;
use crate::SPEED_OF_LIGHT;
use m2ai_dsp::Complex;

/// One-way length of `path` as seen by array element `k` (far field).
pub fn element_path_length(path: &PropagationPath, k: usize, spacing_m: f64) -> f64 {
    path.length + k as f64 * spacing_m * path.aoa_deg.to_radians().cos()
}

/// Complex backscatter response at element `k` and frequency
/// `frequency_hz`, summed over all (downlink, uplink) path pairs.
///
/// The result has arbitrary absolute scale (amplitudes are normalised
/// to 1 m free space); phase is what matters downstream.
pub fn backscatter_response(
    paths: &[PropagationPath],
    k: usize,
    spacing_m: f64,
    frequency_hz: f64,
) -> Complex {
    let two_pi_over_lambda = 2.0 * std::f64::consts::PI * frequency_hz / SPEED_OF_LIGHT;
    // Precompute per-path one-way phasors at this element.
    let phasors: Vec<Complex> = paths
        .iter()
        .map(|p| {
            let len = element_path_length(p, k, spacing_m);
            Complex::from_polar(p.amplitude, -two_pi_over_lambda * len)
        })
        .collect();
    // Double sum factorises: (Σ_p a_p e^{-jβL_p})².
    let one_way: Complex = phasors.iter().copied().sum();
    one_way * one_way
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::PathKind;

    /// The 4-element response to one path, element 0 first.
    fn element_responses(p: &PropagationPath, spacing_m: f64) -> Vec<Complex> {
        (0..4)
            .map(|k| backscatter_response(std::slice::from_ref(p), k, spacing_m, F))
            .collect()
    }

    fn path(length: f64, aoa_deg: f64, amplitude: f64) -> PropagationPath {
        PropagationPath {
            length,
            aoa_deg,
            amplitude,
            kind: PathKind::Direct,
            blocked: false,
        }
    }

    const F: f64 = 910.25e6;

    #[test]
    fn single_path_round_trip_phase() {
        let d = 3.0;
        let p = path(d, 90.0, 1.0);
        let h = backscatter_response(&[p], 0, 0.04, F);
        let lambda = SPEED_OF_LIGHT / F;
        let expected = -4.0 * std::f64::consts::PI * d / lambda;
        let diff = (h.arg() - expected).rem_euclid(2.0 * std::f64::consts::PI);
        assert!(!(1e-6..=2.0 * std::f64::consts::PI - 1e-6).contains(&diff));
    }

    #[test]
    fn broadside_path_same_phase_at_all_elements() {
        // cos(90°) = 0: no inter-element phase shift.
        let p = path(4.0, 90.0, 1.0);
        let hs = element_responses(&p, 0.04);
        for k in 1..4 {
            assert!((hs[k] - hs[0]).norm() < 1e-9);
        }
    }

    #[test]
    fn endfire_path_phase_advances_per_element() {
        let p = path(4.0, 0.0, 1.0);
        let spacing = 0.04;
        let hs = element_responses(&p, spacing);
        let lambda = SPEED_OF_LIGHT / F;
        let expected_step = -4.0 * std::f64::consts::PI * spacing / lambda;
        for k in 1..4 {
            let step = (hs[k] / hs[k - 1]).arg();
            let err = (step - expected_step).rem_euclid(2.0 * std::f64::consts::PI);
            assert!(!(1e-6..=2.0 * std::f64::consts::PI - 1e-6).contains(&err));
        }
    }

    #[test]
    fn matches_dsp_steering_vector_convention() {
        // The per-element progression for a path at θ must equal the
        // round-trip steering vector of m2ai-dsp.
        use m2ai_dsp::music::{steering_vector, MusicConfig};
        let theta = 35.0;
        let spacing = 0.04;
        let lambda = SPEED_OF_LIGHT / F;
        let p = path(5.0, theta, 1.0);
        let hs = element_responses(&p, spacing);
        let cfg = MusicConfig {
            n_antennas: 4,
            spacing_wavelengths: spacing / lambda,
            round_trip: true,
            ..MusicConfig::paper_default()
        };
        let sv = steering_vector(&cfg, theta);
        for k in 0..4 {
            let want = (sv[k] / sv[0]).arg();
            let got = (hs[k] / hs[0]).arg();
            let err = (want - got).rem_euclid(2.0 * std::f64::consts::PI);
            assert!(
                !(1e-6..=2.0 * std::f64::consts::PI - 1e-6).contains(&err),
                "element {k}: want {want}, got {got}"
            );
        }
    }

    #[test]
    fn two_paths_include_cross_terms() {
        // |h| for two equal paths can reach 4× a single path's |h|
        // (amplitude (a+a)² = 4a²) — evidence the double sum is coherent.
        let p1 = path(3.0, 90.0, 1.0);
        let lambda = SPEED_OF_LIGHT / F;
        let p2 = path(3.0 + lambda, 90.0, 1.0); // in phase (integer λ)
        let h2 = backscatter_response(&[p1.clone(), p2], 0, 0.04, F);
        let h1 = backscatter_response(&[p1], 0, 0.04, F);
        assert!((h2.norm() / h1.norm() - 4.0).abs() < 0.01);
    }

    #[test]
    fn destructive_interference() {
        let p1 = path(3.0, 90.0, 1.0);
        let lambda = SPEED_OF_LIGHT / F;
        let p2 = path(3.0 + lambda / 2.0, 90.0, 1.0); // anti-phase one way
        let h = backscatter_response(&[p1, p2], 0, 0.04, F);
        // One-way sum cancels, so the squared response nearly vanishes.
        assert!(h.norm() < 1e-6);
    }

    #[test]
    fn amplitude_scales_quadratically() {
        let p = path(2.0, 60.0, 0.5);
        let h = backscatter_response(std::slice::from_ref(&p), 0, 0.04, F);
        assert!((h.norm() - 0.25).abs() < 1e-9);
    }
}
