//! Shared `f32` compute kernels for the M²AI neural-network hot paths.
//!
//! Every inner loop of the CNN + stacked-LSTM engine (Eq. 17 of the
//! paper) is some flavour of matrix multiply. This crate provides that
//! one primitive in two interchangeable implementations:
//!
//! * [`reference`] — the naive scalar triple-loops the seed repository
//!   shipped with, preserved verbatim (same iteration order, same
//!   `acc += a * b` arithmetic). This is the semantic ground truth.
//! * [`fast`] — register-blocked microkernels built on [`f32::mul_add`]
//!   with 16- and 4-wide output blocking. With `+fma` codegen (see
//!   `.cargo/config.toml`) each accumulation step is a single hardware
//!   FMA; LLVM additionally SLP-vectorises the contiguous output
//!   blocks into AVX lanes. `gemm_nt` packs `Bᵀ` once per call so it
//!   runs the same vectorised loop as `gemm_nn`.
//!
//! ## Numerical contract
//!
//! Both paths accumulate **into** the caller-provided `C` operand
//! (`C += A·B`), visiting the reduction index `k` in strictly
//! ascending order with one product per step — no split accumulators,
//! no reassociation. The only difference is that the fast path fuses
//! each `a*b + acc` into one correctly-rounded FMA while the reference
//! path rounds the product first. Per output element the two results
//! therefore differ by at most 1 ulp per accumulation step, and the
//! fast result is the *more* accurate one. `tests/kernel_equivalence.rs`
//! (repo root) property-tests this envelope across random shapes.
//!
//! ## Backend choice
//!
//! Callers go through the top-level dispatchers ([`gemm_nn`] & co.),
//! which take the [`Backend`] as their first argument. There is no
//! process-wide setting: the NN layers pass the backend of the
//! [`KernelScratch`] they are handed, so two engines (or a benchmark
//! and its reference run) can use different backends side by side in
//! one process.
//!
//! ## Scratch arenas
//!
//! [`KernelScratch`] is the per-call kernel context: a trivially simple
//! buffer pool (`take` a zeroed `Vec<f32>`, `recycle` it when done)
//! plus its backend (default [`Backend::Fast`]). Threaded through the
//! NN layers it removes every steady-state im2col / gate / packing
//! allocation. [`with_thread_scratch`] offers a thread-local `Fast`
//! fallback for entry points without an explicit-scratch signature.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;

pub mod fast;
pub mod im2col;
pub mod reference;

/// Which kernel implementation the top-level dispatchers use.
///
/// A value, not a process setting: each [`KernelScratch`] carries one,
/// and every dispatcher takes it as its first argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Naive scalar loops — the seed repository's original arithmetic.
    Reference,
    /// Register-blocked `mul_add` microkernels (the default).
    #[default]
    Fast,
}

/// GEMM-timing metrics.
mod obs_metrics {
    use std::sync::OnceLock;
    use std::time::Instant;

    static GEMM_SECONDS: m2ai_obs::HistogramFamily = m2ai_obs::HistogramFamily::new(
        "m2ai_kernels_gemm_seconds",
        "wall seconds per dispatched GEMM, by multiply-add count \
         (small < 2^16, medium < 2^20, large >= 2^20)",
        "shape_class",
        m2ai_obs::latency_buckets,
    );

    /// The three shape-class children, resolved once: `time_gemm` sits
    /// on the per-dispatch hot path, so it must not take the family's
    /// lookup mutex per call.
    fn gemm_seconds() -> &'static [m2ai_obs::Histogram; 3] {
        static H: OnceLock<[m2ai_obs::Histogram; 3]> = OnceLock::new();
        H.get_or_init(|| {
            [
                GEMM_SECONDS.with("small"),
                GEMM_SECONDS.with("medium"),
                GEMM_SECONDS.with("large"),
            ]
        })
    }

    /// Times one dispatched GEMM; the histogram is keyed by a coarse
    /// flop class so tile-level wins are visible per shape regime.
    pub(super) fn time_gemm<R>(m: usize, n: usize, k: usize, f: impl FnOnce() -> R) -> R {
        if !m2ai_obs::enabled() {
            return f();
        }
        let [small, medium, large] = gemm_seconds();
        let flops = m.saturating_mul(n).saturating_mul(k);
        let h = if flops < 1 << 16 {
            small
        } else if flops < 1 << 20 {
            medium
        } else {
            large
        };
        let t0 = Instant::now();
        let out = f();
        h.observe(t0.elapsed().as_secs_f64());
        out
    }
}

/// C\[m×n\] += A\[m×k\] · B\[k×n\] (all row-major).
///
/// A single-row product (`m == 1`) is routed to [`gemv_t`] — the same
/// accumulation chains element for element (bit-exact on either
/// backend), but the matrix-vector blocking suits the skinny shape, so
/// batch-size-1 steps through the batched serving API pay no GEMM
/// overhead.
pub fn gemm_nn(
    backend: Backend,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    if m == 1 {
        // C[0,j] += Σ_p a[p]·b[p·n+j] is exactly y += Bᵀ·a.
        return gemv_t(backend, k, n, b, a, c);
    }
    obs_metrics::time_gemm(m, n, k, || match backend {
        Backend::Fast => fast::gemm_nn(m, n, k, a, b, c),
        Backend::Reference => reference::gemm_nn(m, n, k, a, b, c),
    })
}

/// C\[m×n\] += A\[m×k\] · Bᵀ where B is \[n×k\] row-major.
///
/// A single-row product (`m == 1`) is routed to [`gemv`] — bit-exact
/// (identical per-output accumulation chains) but without the blocked
/// GEMM's row machinery, so single-session steps through the batched
/// serving API keep gemv latency.
pub fn gemm_nt(
    backend: Backend,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    if m == 1 {
        // C[0,j] += Σ_p a[p]·b[j·k+p] is exactly y += B·a.
        return gemv(backend, n, k, b, a, c);
    }
    obs_metrics::time_gemm(m, n, k, || match backend {
        Backend::Fast => fast::gemm_nt(m, n, k, a, b, c),
        Backend::Reference => reference::gemm_nt(m, n, k, a, b, c),
    })
}

/// C\[m×n\] += Aᵀ · B where A is \[k×m\] and B is \[k×n\], row-major.
pub fn gemm_tn(
    backend: Backend,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    obs_metrics::time_gemm(m, n, k, || match backend {
        Backend::Fast => fast::gemm_tn(m, n, k, a, b, c),
        Backend::Reference => reference::gemm_tn(m, n, k, a, b, c),
    })
}

/// y\[m\] += A\[m×k\] · x\[k\] (row-major A).
pub fn gemv(backend: Backend, m: usize, k: usize, a: &[f32], x: &[f32], y: &mut [f32]) {
    match backend {
        Backend::Fast => fast::gemv(m, k, a, x, y),
        Backend::Reference => reference::gemv(m, k, a, x, y),
    }
}

/// y\[n\] += Aᵀ · x, i.e. `y[j] += Σ_r x[r] * a[r*n + j]` for A \[r×n\].
pub fn gemv_t(backend: Backend, r: usize, n: usize, a: &[f32], x: &[f32], y: &mut [f32]) {
    match backend {
        Backend::Fast => fast::gemv_t(r, n, a, x, y),
        Backend::Reference => reference::gemv_t(r, n, a, x, y),
    }
}

/// The per-call kernel context: a tiny LIFO pool of reusable `f32`
/// buffers plus the [`Backend`] every pass it is threaded through
/// dispatches on.
///
/// `take` hands out a zeroed buffer of the requested length (reusing a
/// previously recycled allocation when one exists); `recycle` returns
/// it. In the steady state of training/inference every `take` is a
/// `memset`, never a heap allocation.
#[derive(Debug, Default)]
pub struct KernelScratch {
    pool: Vec<Vec<f32>>,
    backend: Backend,
}

impl KernelScratch {
    /// Creates an empty pool on [`Backend::Fast`].
    pub fn new() -> Self {
        KernelScratch::default()
    }

    /// Creates an empty pool whose passes dispatch on `backend`.
    pub fn with_backend(backend: Backend) -> Self {
        KernelScratch {
            pool: Vec::new(),
            backend,
        }
    }

    /// The backend this context dispatches on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Returns a zeroed buffer of length `len`.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        match self.pool.pop() {
            Some(mut v) => {
                v.clear();
                v.resize(len, 0.0);
                v
            }
            None => vec![0.0; len],
        }
    }

    /// Returns a buffer to the pool for reuse.
    pub fn recycle(&mut self, v: Vec<f32>) {
        // Keep the pool bounded; dozens of live buffers would indicate
        // a recycle leak, not a workload.
        if self.pool.len() < 32 {
            self.pool.push(v);
        }
    }
}

thread_local! {
    static THREAD_SCRATCH: RefCell<KernelScratch> = RefCell::new(KernelScratch::new());
}

/// Runs `f` with this thread's shared [`KernelScratch`], which always
/// dispatches on [`Backend::Fast`].
///
/// Legacy entry points that predate the explicit `_with` signatures
/// route through here so they still allocate nothing in steady state.
/// Re-entrant calls (possible only if a caller nests legacy APIs) fall
/// back to a fresh temporary pool instead of panicking on the borrow.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut KernelScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut KernelScratch::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_backend_is_fast() {
        assert_eq!(KernelScratch::new().backend(), Backend::Fast);
        assert_eq!(
            KernelScratch::with_backend(Backend::Reference).backend(),
            Backend::Reference
        );
        with_thread_scratch(|s| assert_eq!(s.backend(), Backend::Fast));
    }

    #[test]
    fn gemm_nn_known_values() {
        // A = [[1,2],[3,4]], B = [[5,6],[7,8]] -> A*B = [[19,22],[43,50]]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        for f in [fast::gemm_nn, reference::gemm_nn] {
            let mut c = [0.0f32; 4];
            f(2, 2, 2, &a, &b, &mut c);
            assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
        }
    }

    #[test]
    fn gemm_accumulates_into_c() {
        let a = [1.0, 2.0];
        let b = [3.0, 4.0];
        let mut c = [10.0f32];
        fast::gemm_nn(1, 1, 2, &a, &b, &mut c);
        assert_eq!(c, [10.0 + 3.0 + 8.0]);
    }

    #[test]
    fn gemm_nt_matches_manual_transpose() {
        // A [1x3], B [2x3] (so B^T is [3x2]).
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let mut c = [0.0f32; 2];
        fast::gemm_nt(1, 2, 3, &a, &b, &mut c);
        assert_eq!(c, [4.0 + 10.0 + 18.0, 7.0 + 16.0 + 27.0]);
    }

    #[test]
    fn gemm_tn_matches_manual_transpose() {
        // A [2x2] (k x m), B [2x3] (k x n): C = A^T * B.
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [1.0, 0.0, 2.0, 0.0, 1.0, 1.0];
        let mut c = [0.0f32; 6];
        fast::gemm_tn(2, 3, 2, &a, &b, &mut c);
        // C[0,:] = 1*[1,0,2] + 3*[0,1,1] = [1,3,5]
        // C[1,:] = 2*[1,0,2] + 4*[0,1,1] = [2,4,8]
        assert_eq!(c, [1.0, 3.0, 5.0, 2.0, 4.0, 8.0]);
    }

    #[test]
    fn gemv_and_gemv_t_known_values() {
        let a = [1.0, 2.0, 3.0, 4.0]; // [[1,2],[3,4]]
        let x = [1.0, -1.0];
        let mut y = [0.0f32; 2];
        fast::gemv(2, 2, &a, &x, &mut y);
        assert_eq!(y, [-1.0, -1.0]);
        let mut yt = [0.0f32; 2];
        fast::gemv_t(2, 2, &a, &x, &mut yt);
        // y[j] = x[0]*a[0,j] + x[1]*a[1,j] = [1-3, 2-4]
        assert_eq!(yt, [-2.0, -2.0]);
    }

    #[test]
    fn one_row_gemm_nt_is_bitwise_gemv() {
        // The m == 1 GEMV path must be indistinguishable from the packed
        // multi-row kernel: same chains, same rounding, every element.
        let k = 13;
        let n = 9;
        let a: Vec<f32> = (0..k).map(|i| ((i * 37) as f32 * 0.013).sin()).collect();
        let b: Vec<f32> = (0..n * k)
            .map(|i| ((i * 17) as f32 * 0.007).cos())
            .collect();
        let mut via_dispatch = vec![0.25f32; n];
        gemm_nt(Backend::Fast, 1, n, k, &a, &b, &mut via_dispatch);
        let mut via_packed = vec![0.25f32; 2 * n];
        fast::gemm_nt(2, n, k, &a.repeat(2), &b, &mut via_packed);
        assert_eq!(via_dispatch, via_packed[..n]);
        assert_eq!(via_dispatch, via_packed[n..]);
    }

    #[test]
    fn one_row_gemm_nn_is_bitwise_gemv_t() {
        let k = 11;
        let n = 7;
        let a: Vec<f32> = (0..k).map(|i| ((i * 29) as f32 * 0.011).sin()).collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 13) as f32 * 0.009).cos())
            .collect();
        let mut via_dispatch = vec![-0.5f32; n];
        gemm_nn(Backend::Fast, 1, n, k, &a, &b, &mut via_dispatch);
        let mut via_blocked = vec![-0.5f32; n];
        fast::gemm_nn(1, n, k, &a, &b, &mut via_blocked);
        assert_eq!(via_dispatch, via_blocked);
    }

    #[test]
    fn scratch_reuses_allocations() {
        let mut s = KernelScratch::new();
        let v = s.take(16);
        let ptr = v.as_ptr();
        s.recycle(v);
        let v2 = s.take(8);
        assert_eq!(v2.as_ptr(), ptr);
        assert!(v2.iter().all(|&x| x == 0.0));
        assert_eq!(v2.len(), 8);
    }

    #[test]
    fn thread_scratch_is_reentrant_safe() {
        let out = with_thread_scratch(|s| {
            let v = s.take(4);
            let inner = with_thread_scratch(|s2| s2.take(2).len());
            s.recycle(v);
            inner
        });
        assert_eq!(out, 2);
    }
}
