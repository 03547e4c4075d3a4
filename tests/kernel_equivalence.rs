//! Fast-vs-reference kernel equivalence (PR-3 satellite).
//!
//! The fast kernels use `mul_add` (fused multiply-add) in the *same*
//! accumulation order as the reference loops, so any output may differ
//! from the naive arithmetic by at most the per-step FMA rounding
//! (≤ 1 ulp each). These properties pin that contract across random
//! shapes, including the degenerate ones the lowering must not trip
//! over: `kernel = 1`, `c_in = 1`, a single timestep, single rows.
//!
//! Within one backend the contract is exact: packed `gemm_nt` equals a
//! plain dot loop, and batched `Conv1d`/encoder inference equals its
//! rows run one at a time, bit for bit (the last property group).
//!
//! Each pass picks its backend through the `KernelScratch` it is
//! handed, so the properties run side by side with no shared state.

use m2ai::core::frames::{FeatureMode, FrameLayout};
use m2ai::core::network::{build_model, Architecture};
use m2ai::kernels::{self, fast, reference, Backend, KernelScratch};
use m2ai::nn::layers::{Conv1d, Dense, Layer};
use m2ai::nn::lstm::Lstm;
use m2ai::nn::Parameterized;
use proptest::prelude::*;

/// Deterministic pseudo-random values in `(-1, 1)` (LCG; shapes are
/// proptest-driven, the payload only needs to be well-spread).
fn lcg_values(seed: u64, n: usize) -> Vec<f32> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 23) as f32) * 2.0 - 1.0
        })
        .collect()
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "shape mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

fn grads_of(p: &mut dyn Parameterized) -> Vec<f32> {
    let mut out = Vec::new();
    p.visit_params(&mut |_, g| out.extend_from_slice(g));
    out
}

/// Accumulated FMA-rounding slack for small shapes with O(1) values.
const TOL: f32 = 5e-4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All three GEMM storage layouts agree between backends.
    #[test]
    fn gemm_fast_matches_reference(
        m in 1usize..7,
        n in 1usize..7,
        k in 1usize..9,
        seed in any::<u64>(),
    ) {
        let a = lcg_values(seed, m * k);
        let b = lcg_values(seed ^ 0x9e37, k * n);
        let c0 = lcg_values(seed ^ 0x79b9, m * n);

        let mut c_fast = c0.clone();
        let mut c_ref = c0.clone();
        fast::gemm_nn(m, n, k, &a, &b, &mut c_fast);
        reference::gemm_nn(m, n, k, &a, &b, &mut c_ref);
        prop_assert!(max_abs_diff(&c_fast, &c_ref) <= TOL);

        // B stored [n × k] (dot-product layout).
        let bt = lcg_values(seed ^ 0x7f4a, n * k);
        let mut c_fast = c0.clone();
        let mut c_ref = c0.clone();
        fast::gemm_nt(m, n, k, &a, &bt, &mut c_fast);
        reference::gemm_nt(m, n, k, &a, &bt, &mut c_ref);
        prop_assert!(max_abs_diff(&c_fast, &c_ref) <= TOL);

        // A stored [k × m] (gradient-accumulation layout).
        let at = lcg_values(seed ^ 0x7c15, k * m);
        let mut c_fast = c0.clone();
        let mut c_ref = c0;
        fast::gemm_tn(m, n, k, &at, &b, &mut c_fast);
        reference::gemm_tn(m, n, k, &at, &b, &mut c_ref);
        prop_assert!(max_abs_diff(&c_fast, &c_ref) <= TOL);
    }

    /// Matrix–vector products (both orientations) agree between
    /// backends, accumulating into a non-zero `y`.
    #[test]
    fn gemv_fast_matches_reference(
        m in 1usize..9,
        k in 1usize..9,
        seed in any::<u64>(),
    ) {
        let a = lcg_values(seed, m * k);
        let x = lcg_values(seed ^ 0x1ce4, k);
        let y0 = lcg_values(seed ^ 0xe5b9, m);
        let mut y_fast = y0.clone();
        let mut y_ref = y0;
        fast::gemv(m, k, &a, &x, &mut y_fast);
        reference::gemv(m, k, &a, &x, &mut y_ref);
        prop_assert!(max_abs_diff(&y_fast, &y_ref) <= TOL);

        // Transposed: y[j] += Σ_r x[r]·a[r·n + j].
        let xt = lcg_values(seed ^ 0x1331, m);
        let z0 = lcg_values(seed ^ 0x11eb, k);
        let mut z_fast = z0.clone();
        let mut z_ref = z0;
        fast::gemv_t(m, k, &a, &xt, &mut z_fast);
        reference::gemv_t(m, k, &a, &xt, &mut z_ref);
        prop_assert!(max_abs_diff(&z_fast, &z_ref) <= TOL);
    }

}

// Large-shape properties get their own (smaller) case budget: each
// case multiplies several-hundred-dimension matrices in debug builds.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The fast kernels agree with `reference` at shapes of several
    /// hundred dimensions, past the small shapes the other properties
    /// draw, in all three storage layouts: many full 4-row and
    /// 16-column register blocks plus their remainders. Tolerance is
    /// banded by the accumulation length `k`.
    #[test]
    fn fast_matches_reference_at_large_shapes(
        m in 130usize..280,
        n in 96usize..170,
        k in 96usize..170,
        seed in any::<u64>(),
    ) {
        // FMA-rounding slack grows with the accumulation chain.
        let tol = 1e-4 + k as f32 * 2e-5;
        let a = lcg_values(seed, m * k);
        let b = lcg_values(seed ^ 0x9e37, k * n);
        let c0 = lcg_values(seed ^ 0x79b9, m * n);

        let mut c_fast = c0.clone();
        let mut c_ref = c0.clone();
        fast::gemm_nn(m, n, k, &a, &b, &mut c_fast);
        reference::gemm_nn(m, n, k, &a, &b, &mut c_ref);
        prop_assert!(max_abs_diff(&c_fast, &c_ref) <= tol);

        let bt = lcg_values(seed ^ 0x7f4a, n * k);
        let mut c_fast = c0.clone();
        let mut c_ref = c0.clone();
        fast::gemm_nt(m, n, k, &a, &bt, &mut c_fast);
        reference::gemm_nt(m, n, k, &a, &bt, &mut c_ref);
        prop_assert!(max_abs_diff(&c_fast, &c_ref) <= tol);

        let at = lcg_values(seed ^ 0x7c15, k * m);
        let mut c_fast = c0.clone();
        let mut c_ref = c0;
        fast::gemm_tn(m, n, k, &at, &b, &mut c_fast);
        reference::gemm_tn(m, n, k, &at, &b, &mut c_ref);
        prop_assert!(max_abs_diff(&c_fast, &c_ref) <= tol);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Dense` forward/backward agree between backends, and the batched
    /// entry points match the per-row ones under the fast backend.
    #[test]
    fn dense_fast_matches_reference(
        in_dim in 1usize..6,
        out_dim in 1usize..6,
        rows in 1usize..5,
        seed in any::<u64>(),
    ) {
        let xs = lcg_values(seed, rows * in_dim);
        let gs = lcg_values(seed ^ 0x0dd5, rows * out_dim);

        let run = |backend: Backend| {
            let mut s = KernelScratch::with_backend(backend);
            let mut d = Dense::new(in_dim, out_dim, 42);
            let mut ys = Vec::new();
            let mut gxs = Vec::new();
            for (x, g) in xs.chunks_exact(in_dim).zip(gs.chunks_exact(out_dim)) {
                ys.extend(d.forward_with(x, &mut s));
                gxs.extend(d.backward_batch_with(x, g, 1, &mut s));
            }
            let grads = grads_of(&mut d);
            (ys, gxs, grads)
        };
        let (y_f, gx_f, g_f) = run(Backend::Fast);
        let (y_r, gx_r, g_r) = run(Backend::Reference);
        prop_assert!(max_abs_diff(&y_f, &y_r) <= TOL);
        prop_assert!(max_abs_diff(&gx_f, &gx_r) <= TOL);
        prop_assert!(max_abs_diff(&g_f, &g_r) <= TOL);

        // Batched path vs the sequence of single-row calls.
        let (ys_b, gxs_b, g_b) = {
            let mut s = KernelScratch::with_backend(Backend::Fast);
            let mut d = Dense::new(in_dim, out_dim, 42);
            let ys = d.forward_batch_with(&xs, rows, &mut s);
            let gxs = d.backward_batch_with(&xs, &gs, rows, &mut s);
            let grads = grads_of(&mut d);
            (ys, gxs, grads)
        };
        prop_assert!(max_abs_diff(&ys_b, &y_f) <= TOL);
        prop_assert!(max_abs_diff(&gxs_b, &gx_f) <= TOL);
        prop_assert!(max_abs_diff(&g_b, &g_f) <= TOL);
    }

    /// `Conv1d` forward/backward agree between the im2col/GEMM lowering
    /// and the original window walk — including `kernel = 1` and
    /// `c_in = 1`.
    #[test]
    fn conv1d_fast_matches_reference(
        c_in in 1usize..4,
        c_out in 1usize..4,
        kernel in 1usize..4,
        stride in 1usize..3,
        extra in 0usize..6,
        seed in any::<u64>(),
    ) {
        let len_in = kernel + extra;
        let probe = Conv1d::new(c_in, len_in, c_out, kernel, stride, 42);
        let len_out = probe.len_out();
        let x = lcg_values(seed, c_in * len_in);
        let g = lcg_values(seed ^ 0x94d0, c_out * len_out);

        let run = |backend: Backend| {
            let mut s = KernelScratch::with_backend(backend);
            let conv = Conv1d::new(c_in, len_in, c_out, kernel, stride, 42);
            let mut layer = Layer::Conv1d(conv);
            let (y, gx) = match &mut layer {
                Layer::Conv1d(c) => (c.forward_with(&x, &mut s), c.backward_with(&x, &g, &mut s)),
                _ => unreachable!(),
            };
            let grads = grads_of(&mut layer);
            (y, gx, grads)
        };
        let (y_f, gx_f, g_f) = run(Backend::Fast);
        let (y_r, gx_r, g_r) = run(Backend::Reference);
        prop_assert!(max_abs_diff(&y_f, &y_r) <= TOL, "forward diverged");
        prop_assert!(max_abs_diff(&gx_f, &gx_r) <= TOL, "input grads diverged");
        prop_assert!(max_abs_diff(&g_f, &g_r) <= TOL, "weight grads diverged");
    }

    /// LSTM forward/backward-through-time agree between the fused-GEMM
    /// timestep path and the original per-gate loops — including a
    /// single-timestep sequence.
    #[test]
    fn lstm_fast_matches_reference(
        in_dim in 1usize..4,
        hidden in 1usize..5,
        t_len in 1usize..5,
        seed in any::<u64>(),
    ) {
        let xs: Vec<Vec<f32>> = (0..t_len)
            .map(|t| lcg_values(seed ^ (t as u64 * 0xbf58), in_dim))
            .collect();
        let gouts: Vec<Vec<f32>> = (0..t_len)
            .map(|t| lcg_values(seed ^ 0x476d ^ (t as u64 * 0x2545), hidden))
            .collect();

        let run = |backend: Backend| {
            let mut s = KernelScratch::with_backend(backend);
            let mut l = Lstm::new(in_dim, hidden, 7);
            let cache = l.forward_sequence_with(&xs, &mut s);
            let outputs: Vec<f32> = cache.outputs.iter().flatten().copied().collect();
            let gxs: Vec<f32> = l
                .backward_sequence_with(&cache, &gouts, &mut s)
                .iter()
                .flatten()
                .copied()
                .collect();
            let grads = grads_of(&mut l);
            (outputs, gxs, grads)
        };
        let (y_f, gx_f, g_f) = run(Backend::Fast);
        let (y_r, gx_r, g_r) = run(Backend::Reference);
        prop_assert!(max_abs_diff(&y_f, &y_r) <= TOL, "hidden states diverged");
        prop_assert!(max_abs_diff(&gx_f, &gx_r) <= TOL, "input grads diverged");
        prop_assert!(max_abs_diff(&g_f, &g_r) <= TOL, "weight grads diverged");
    }
}

/// True when both slices hold the same `f32` bit patterns.
fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs `rows` stacked inputs through `batched` in one call and through
/// `single` one row at a time, both on `backend`, returning both
/// outputs.
fn batched_and_per_row(
    backend: Backend,
    xs: &[f32],
    rows: usize,
    batched: impl Fn(&[f32], usize, &mut KernelScratch) -> Vec<f32>,
    single: impl Fn(&[f32], &mut KernelScratch) -> Vec<f32>,
) -> (Vec<f32>, Vec<f32>) {
    let mut scratch = KernelScratch::with_backend(backend);
    let all = batched(xs, rows, &mut scratch);
    let per_row = xs
        .chunks_exact(xs.len() / rows)
        .flat_map(|x| single(x, &mut scratch))
        .collect();
    (all, per_row)
}

/// Runs one `rows`-row backward into `batched` and `rows` one-row
/// backwards, in ascending row order, into `per_row` (a copy of the same
/// layer), after one shared warm-up backward so every gradient chain
/// continues from non-zero values, all on `backend`. Returns both
/// stacked `∂L/∂x` and both parameter-gradient sets.
#[allow(clippy::type_complexity)]
fn backward_batched_and_per_row<L: Parameterized + Clone>(
    backend: Backend,
    layer: &L,
    xs: &[f32],
    grads: &[f32],
    rows: usize,
    backward: impl Fn(&mut L, &[f32], &[f32], usize, &mut KernelScratch) -> Vec<f32>,
) -> ((Vec<f32>, Vec<f32>), (Vec<f32>, Vec<f32>)) {
    let (in_dim, out_dim) = (xs.len() / rows, grads.len() / rows);
    let mut scratch = KernelScratch::with_backend(backend);
    let mut batched = layer.clone();
    backward(
        &mut batched,
        &xs[..in_dim],
        &grads[..out_dim],
        1,
        &mut scratch,
    );
    let mut per_row = batched.clone();
    let gx_all = backward(&mut batched, xs, grads, rows, &mut scratch);
    let gx_rows: Vec<f32> = xs
        .chunks_exact(in_dim)
        .zip(grads.chunks_exact(out_dim))
        .flat_map(|(x, g)| backward(&mut per_row, x, g, 1, &mut scratch))
        .collect();
    (
        (gx_all, gx_rows),
        (grads_of(&mut batched), grads_of(&mut per_row)),
    )
}

// Batched inference must be bitwise, not banded: every output keeps
// one ascending-k `mul_add` chain however the operands are laid out.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Packed `fast::gemm_nt` (and its dispatcher) equals a plain
    /// ascending-k `mul_add` dot loop bit for bit, across row counts and
    /// `n`/`k` hitting the 16-wide, 4-wide and scalar column tails.
    #[test]
    fn packed_gemm_nt_is_bitwise_dot_loop(
        m in 1usize..=70,
        n in 1usize..40,
        k in 1usize..40,
        seed in any::<u64>(),
    ) {
        let a = lcg_values(seed, m * k);
        let b = lcg_values(seed ^ 0x7f4a, n * k);
        let c0 = lcg_values(seed ^ 0x79b9, m * n);
        let mut want = c0.clone();
        for i in 0..m {
            for j in 0..n {
                let mut s = want[i * n + j];
                for p in 0..k {
                    s = a[i * k + p].mul_add(b[j * k + p], s);
                }
                want[i * n + j] = s;
            }
        }
        let mut direct = c0.clone();
        fast::gemm_nt(m, n, k, &a, &b, &mut direct);
        prop_assert!(bits_equal(&direct, &want), "fast::gemm_nt changed bits");
        let mut dispatched = c0;
        kernels::gemm_nt(Backend::Fast, m, n, k, &a, &b, &mut dispatched);
        prop_assert!(bits_equal(&dispatched, &want), "dispatcher changed bits");
    }

    /// `Conv1d`'s one-GEMM batched forward equals its per-row forward
    /// bit for bit on the fast and reference paths.
    #[test]
    fn conv1d_batched_is_bitwise_per_row(
        c_in in 1usize..4,
        c_out in 1usize..5,
        kernel in 1usize..4,
        stride in 1usize..3,
        extra in 0usize..8,
        rows in 1usize..6,
        seed in any::<u64>(),
    ) {
        let len_in = kernel + extra;
        let xs = lcg_values(seed, rows * c_in * len_in);
        let plain = Conv1d::new(c_in, len_in, c_out, kernel, stride, 42);
        for (path, backend, conv) in [
            ("fast", Backend::Fast, &plain),
            ("reference", Backend::Reference, &plain),
        ] {
            let (all, per_row) = batched_and_per_row(
                backend,
                &xs,
                rows,
                |x, r, s| conv.forward_batch_with(x, r, s),
                |x, s| conv.forward_with(x, s),
            );
            prop_assert!(bits_equal(&all, &per_row), "{}: batch != per-row", path);
        }
    }

    /// The assembled encoder's batched forward equals its per-row
    /// forward bit for bit for every architecture and feature mode
    /// (the degraded modes get dense encoders, `LstmOnly` the identity),
    /// on the fast and reference paths.
    #[test]
    fn encoder_batched_is_bitwise_per_row(
        n_tags in 1usize..3,
        rows in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut cases = Vec::new();
        for arch in [Architecture::CnnLstm, Architecture::CnnOnly, Architecture::LstmOnly] {
            cases.push((FeatureMode::Joint, arch));
        }
        for mode in [
            FeatureMode::MusicOnly,
            FeatureMode::PeriodogramOnly,
            FeatureMode::PhaseOnly,
            FeatureMode::RssiOnly,
        ] {
            cases.push((mode, Architecture::CnnLstm));
        }
        for (mode, arch) in cases {
            let layout = FrameLayout::new(n_tags, 4, mode);
            let xs = lcg_values(seed, rows * layout.frame_dim());
            let plain = build_model(&layout, 12, arch, 5).encoder;
            for (path, backend, enc) in [
                ("fast", Backend::Fast, &plain),
                ("reference", Backend::Reference, &plain),
            ] {
                let (all, per_row) = batched_and_per_row(
                    backend,
                    &xs,
                    rows,
                    |x, r, s| enc.forward_batch_with(x, r, s),
                    |x, s| enc.forward_with(x, s),
                );
                prop_assert!(
                    bits_equal(&all, &per_row),
                    "{:?}/{:?} on {}: batch != per-row", mode, arch, path
                );
            }
        }
    }

    /// `Dense`'s batched forward equals its one-row forward bit for bit
    /// on the fast and reference paths, and a `rows`-row backward equals `rows` one-row backwards into the same layer (`gw`, `gb`
    /// and `gx`) on the fast and reference paths.
    #[test]
    fn dense_batched_is_bitwise_per_row(
        in_dim in 1usize..40,
        out_dim in 1usize..40,
        rows in 1usize..12,
        seed in any::<u64>(),
    ) {
        let xs = lcg_values(seed, rows * in_dim);
        let gs = lcg_values(seed ^ 0x0dd5, rows * out_dim);
        let plain = Dense::new(in_dim, out_dim, 42);
        for (path, backend, dense) in [
            ("fast", Backend::Fast, &plain),
            ("reference", Backend::Reference, &plain),
        ] {
            let (all, per_row) = batched_and_per_row(
                backend,
                &xs,
                rows,
                |x, r, s| dense.forward_batch_with(x, r, s),
                |x, s| dense.forward_with(x, s),
            );
            prop_assert!(bits_equal(&all, &per_row), "{}: batch != per-row", path);
        }
        for backend in [Backend::Fast, Backend::Reference] {
            let ((gx_all, gx_rows), (g_all, g_rows)) =
                backward_batched_and_per_row(backend, &plain, &xs, &gs, rows, |d, x, g, r, s| {
                    d.backward_batch_with(x, g, r, s)
                });
            prop_assert!(bits_equal(&gx_all, &gx_rows), "{:?}: gx differs", backend);
            prop_assert!(bits_equal(&g_all, &g_rows), "{:?}: gw/gb differ", backend);
        }
    }

    /// A `rows`-row `Conv1d` backward equals `rows` one-row backwards
    /// into the same layer, bit for bit in `gw`, `gb` and `gx`, on the
    /// fast and reference paths.
    #[test]
    fn conv1d_batched_backward_is_bitwise_per_row(
        c_in in 1usize..4,
        c_out in 1usize..5,
        kernel in 1usize..4,
        stride in 1usize..3,
        extra in 0usize..8,
        rows in 1usize..11,
        seed in any::<u64>(),
    ) {
        let len_in = kernel + extra;
        let conv = Conv1d::new(c_in, len_in, c_out, kernel, stride, 42);
        let xs = lcg_values(seed, rows * conv.in_dim());
        let gs = lcg_values(seed ^ 0x0dd5, rows * conv.out_dim());
        for backend in [Backend::Fast, Backend::Reference] {
            let ((gx_all, gx_rows), (g_all, g_rows)) =
                backward_batched_and_per_row(backend, &conv, &xs, &gs, rows, |c, x, g, r, s| {
                    c.backward_batch_with(x, g, r, s)
                });
            prop_assert!(bits_equal(&gx_all, &gx_rows), "{:?}: gx differs", backend);
            prop_assert!(bits_equal(&g_all, &g_rows), "{:?}: gw/gb differ", backend);
        }
    }

    /// The assembled encoder's batched training pass (cached forward
    /// over `rows` frames, then one backward) equals `rows` one-frame
    /// passes bit for bit: outputs, `∂L/∂x` and every parameter
    /// gradient, on the fast and reference paths.
    #[test]
    fn encoder_batched_backward_is_bitwise_per_row(
        n_tags in 1usize..3,
        rows in 1usize..11,
        seed in any::<u64>(),
    ) {
        for (mode, arch) in [
            (FeatureMode::Joint, Architecture::CnnLstm),
            (FeatureMode::Joint, Architecture::LstmOnly),
            (FeatureMode::PhaseOnly, Architecture::CnnLstm),
        ] {
            let layout = FrameLayout::new(n_tags, 4, mode);
            let xs = lcg_values(seed, rows * layout.frame_dim());
            let enc = build_model(&layout, 12, arch, 5).encoder;
            let feat = enc.forward(&xs[..layout.frame_dim()]).len();
            let gs = lcg_values(seed ^ 0x0dd5, rows * feat);
            for backend in [Backend::Fast, Backend::Reference] {
                let mut scratch = KernelScratch::with_backend(backend);
                let (all, _) = enc.forward_cached_batch_with(&xs, rows, &mut scratch);
                let per_row: Vec<f32> = xs
                    .chunks_exact(layout.frame_dim())
                    .flat_map(|x| enc.forward_cached_with(x, &mut scratch).0)
                    .collect();
                let outs = (all, per_row);
                let ((gx_all, gx_rows), (g_all, g_rows)) =
                    backward_batched_and_per_row(backend, &enc, &xs, &gs, rows, |e, x, g, r, s| {
                        let (_, cache) = e.forward_cached_batch_with(x, r, s);
                        e.backward_with(&cache, g, s)
                    });
                let tag = format!("{mode:?}/{arch:?} on {backend:?}");
                prop_assert!(bits_equal(&outs.0, &outs.1), "{}: outputs differ", tag);
                prop_assert!(bits_equal(&gx_all, &gx_rows), "{}: gx differs", tag);
                prop_assert!(bits_equal(&g_all, &g_rows), "{}: parameter grads differ", tag);
            }
        }
    }
}
