//! Naive scalar kernels — the seed repository's original arithmetic.
//!
//! These mirror the triple-loops that used to live inline in
//! `crates/nn` (`Dense::forward`'s row dot products, `Conv1d`'s window
//! walks, the LSTM gate matmuls): one accumulator per output, reduction
//! index ascending, `acc += a * b` with the product rounded before the
//! add. They are the ground truth that [`crate::fast`] must match to
//! within FMA rounding. Do not "optimise" them.

/// C\[m×n\] += A\[m×k\] · B\[k×n\], row-major.
pub fn gemm_nn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_nn: A shape mismatch");
    assert_eq!(b.len(), k * n, "gemm_nn: B shape mismatch");
    assert_eq!(c.len(), m * n, "gemm_nn: C shape mismatch");
    for i in 0..m {
        for j in 0..n {
            let mut s = c[i * n + j];
            for p in 0..k {
                s += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = s;
        }
    }
}

/// C\[m×n\] += A\[m×k\] · Bᵀ where B is stored \[n×k\] row-major.
pub fn gemm_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_nt: A shape mismatch");
    assert_eq!(b.len(), n * k, "gemm_nt: B shape mismatch");
    assert_eq!(c.len(), m * n, "gemm_nt: C shape mismatch");
    for i in 0..m {
        for j in 0..n {
            let mut s = c[i * n + j];
            for p in 0..k {
                s += a[i * k + p] * b[j * k + p];
            }
            c[i * n + j] = s;
        }
    }
}

/// C\[m×n\] += Aᵀ · B where A is \[k×m\] and B is \[k×n\], row-major.
pub fn gemm_tn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), k * m, "gemm_tn: A shape mismatch");
    assert_eq!(b.len(), k * n, "gemm_tn: B shape mismatch");
    assert_eq!(c.len(), m * n, "gemm_tn: C shape mismatch");
    for i in 0..m {
        for j in 0..n {
            let mut s = c[i * n + j];
            for p in 0..k {
                s += a[p * m + i] * b[p * n + j];
            }
            c[i * n + j] = s;
        }
    }
}

/// y\[m\] += A\[m×k\] · x\[k\], row-major A.
pub fn gemv(m: usize, k: usize, a: &[f32], x: &[f32], y: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemv: A shape mismatch");
    assert_eq!(x.len(), k, "gemv: x length mismatch");
    assert_eq!(y.len(), m, "gemv: y length mismatch");
    for i in 0..m {
        let mut s = y[i];
        for p in 0..k {
            s += a[i * k + p] * x[p];
        }
        y[i] = s;
    }
}

/// y\[n\] += Aᵀ · x: `y[j] += Σ_r x[r] * a[r*n + j]` for A \[r×n\].
pub fn gemv_t(r: usize, n: usize, a: &[f32], x: &[f32], y: &mut [f32]) {
    assert_eq!(a.len(), r * n, "gemv_t: A shape mismatch");
    assert_eq!(x.len(), r, "gemv_t: x length mismatch");
    assert_eq!(y.len(), n, "gemv_t: y length mismatch");
    for row in 0..r {
        for j in 0..n {
            y[j] += x[row] * a[row * n + j];
        }
    }
}
