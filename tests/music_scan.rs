//! The exact MUSIC grid scan against its per-angle oracle.
//!
//! `pseudospectrum` evaluates `‖E_nᴴ a(θ)‖²` over the whole angle grid
//! at once from a structure-of-arrays steering table, so the loops
//! vectorise. The oracle below is the per-angle loop it replaced,
//! rebuilt from public pieces (correlation, forward–backward average,
//! diagonal loading, eigendecomposition, source counting, steering
//! table). Every bin must match it bit for bit.

use m2ai::dsp::eigen::hermitian_eigen;
use m2ai::dsp::music::{
    correlation_matrix, estimate_sources_aic, estimate_sources_mdl, forward_backward_average,
    pseudospectrum, pseudospectrum_from_correlation, pseudospectrum_power_into, MusicConfig,
    MusicScratch, SourceCount, SteeringTable,
};
use m2ai::dsp::{CMatrix, Complex};
use proptest::prelude::*;

/// Smoothed correlation exactly as the pre-vectorisation code computed
/// it: per subarray window, accumulate outer products, scale by `1/T`,
/// add into the running sum; finally scale by `1/n_sub`.
fn smoothed_correlation(snaps: &[Vec<Complex>], l: usize) -> CMatrix {
    let n = snaps[0].len();
    let n_sub = n - l + 1;
    let mut acc = CMatrix::zeros(l, l);
    for start in 0..n_sub {
        let mut r = CMatrix::zeros(l, l);
        for snap in snaps {
            let w = &snap[start..start + l];
            for i in 0..l {
                for j in 0..l {
                    r[(i, j)] += w[i] * w[j].conj();
                }
            }
        }
        r.scale_in_place(Complex::new(1.0 / snaps.len() as f64, 0.0));
        acc.add_in_place(&r).unwrap();
    }
    acc.scale_in_place(Complex::new(1.0 / n_sub as f64, 0.0));
    acc
}

/// The per-angle MUSIC scan: returns the power of every grid bin and
/// the assumed source count, or `None` when the estimator errors.
fn oracle(r: &CMatrix, n_snapshots: usize, cfg: &MusicConfig) -> Option<(Vec<f64>, usize)> {
    cfg.validate().ok()?;
    let mut work = if cfg.forward_backward {
        forward_backward_average(r)
    } else {
        r.clone()
    };
    let n = work.rows();
    let load = cfg.diagonal_loading * (work.trace().ok()?.re / n as f64).max(1e-300);
    for i in 0..n {
        work[(i, i)] += Complex::new(load, 0.0);
    }
    let eig = hermitian_eigen(&work).ok()?;
    let m = match cfg.source_count {
        SourceCount::Fixed(m) => m.min(n.saturating_sub(1)),
        SourceCount::Mdl => estimate_sources_mdl(&eig.values, n_snapshots).clamp(1, n - 1),
        SourceCount::Aic => estimate_sources_aic(&eig.values, n_snapshots).clamp(1, n - 1),
    };
    let noise = eig.noise_subspace(m);
    let table = SteeringTable::for_config(&MusicConfig {
        n_antennas: n,
        ..cfg.clone()
    });
    let mut power = Vec::with_capacity(cfg.n_angles);
    for g in 0..cfg.n_angles {
        let a = table.vector(g);
        let mut denom = 0.0;
        for j in 0..noise.cols() {
            let mut dot = Complex::ZERO;
            for (i, av) in a.iter().enumerate() {
                dot += noise[(i, j)].conj() * *av;
            }
            denom += dot.norm_sqr();
        }
        power.push(1.0 / f64::max(denom, 1e-12));
    }
    Some((power, m))
}

/// Deterministic snapshots with entries in `[-1, 1]²`.
fn snapshots(seed: u64, n: usize, count: usize) -> Vec<Vec<Complex>> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    (0..count)
        .map(|_| (0..n).map(|_| Complex::new(next(), next())).collect())
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every public entry point of the exact scan (allocating, power-only
    /// with a reused scratch, and from a precomputed correlation) equals
    /// the per-angle oracle bitwise, for any array size, smoothing,
    /// forward–backward setting and source-count strategy.
    #[test]
    fn vectorised_scan_is_bitwise_the_per_angle_loop(
        n in 2usize..9,
        smoothing in any::<bool>(),
        sub_len in 2usize..9,
        forward_backward in any::<bool>(),
        source in 0usize..3,
        fixed in 0usize..9,
        n_angles in 2usize..200,
        spacing in 0.05f64..0.6,
        round_trip in any::<bool>(),
        n_snaps in 1usize..24,
        seed in any::<u64>(),
    ) {
        let cfg = MusicConfig {
            n_antennas: n,
            spacing_wavelengths: spacing,
            round_trip,
            n_angles,
            forward_backward,
            smoothing_subarray: smoothing.then_some(sub_len.min(n)),
            source_count: match source {
                0 => SourceCount::Fixed(fixed),
                1 => SourceCount::Mdl,
                _ => SourceCount::Aic,
            },
            diagonal_loading: 1e-6,
        };
        let snaps = snapshots(seed, n, n_snaps);
        let r = match cfg.smoothing_subarray {
            Some(l) => smoothed_correlation(&snaps, l),
            None => correlation_matrix(&snaps).unwrap(),
        };
        let (want, m) = oracle(&r, snaps.len(), &cfg).expect("well-formed input");

        let spec = pseudospectrum(&snaps, &cfg).unwrap();
        prop_assert_eq!(spec.source_count, m);
        prop_assert_eq!(bits(&spec.power), bits(&want));

        let from_r = pseudospectrum_from_correlation(&r, snaps.len(), &cfg).unwrap();
        prop_assert_eq!(from_r.source_count, m);
        prop_assert_eq!(bits(&from_r.power), bits(&want));

        // A scratch that last scanned another geometry must not leak it.
        let mut scratch = MusicScratch::default();
        let mut power = Vec::new();
        let other = MusicConfig::paper_default();
        pseudospectrum_power_into(&snapshots(seed ^ 1, 4, 8), &other, &mut scratch, &mut power)
            .unwrap();
        for _ in 0..2 {
            let got = pseudospectrum_power_into(&snaps, &cfg, &mut scratch, &mut power).unwrap();
            prop_assert_eq!(got, m);
            prop_assert_eq!(bits(&power), bits(&want));
        }
    }
}
