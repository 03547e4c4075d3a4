//! Register-blocked `mul_add` microkernels.
//!
//! Blocking strategy: each output element keeps exactly **one**
//! accumulator chain over ascending `k` (the crate's ordering
//! contract), so parallelism comes from working on a block of
//! *adjacent outputs* at once — independent FMA chains that LLVM
//! SLP-vectorises into packed FMA for the row-broadcast shapes
//! (`gemm_nn`/`gemm_tn`/`gemv_t`, where a `B` row is read
//! contiguously). `gemm_nt` reaches the same loop by packing `Bᵀ`
//! first; only the matrix-vector `gemv`, where each output reduces its
//! own row, keeps eight scalar chains. No reassociation ever happens
//! within a single output: the fast and reference backends round each
//! step identically except for the fused multiply-add (≤ 1 ulp per
//! step).

use std::cell::RefCell;

/// Width of the vectorised output block (two AVX2 `f32x8` lanes).
const NB: usize = 16;

/// Rows of `A` that [`gemm_nn`] runs together, sharing each `B` load.
const MB: usize = 4;

/// C\[m×n\] += A\[m×k\] · B\[k×n\], row-major.
///
/// Rows go in blocks of [`MB`]: each loaded `B` block feeds `MB` rows,
/// so `MB` × block-width independent FMA chains are in flight. Every
/// output still reduces its own single chain over ascending `k`.
pub fn gemm_nn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_nn: A shape mismatch");
    assert_eq!(b.len(), k * n, "gemm_nn: B shape mismatch");
    assert_eq!(c.len(), m * n, "gemm_nn: C shape mismatch");
    let mut i = 0;
    while i + MB <= m {
        gemm_nn_rows::<MB>(n, k, &a[i * k..(i + MB) * k], b, &mut c[i * n..]);
        i += MB;
    }
    for i in i..m {
        gemm_nn_rows::<1>(n, k, &a[i * k..(i + 1) * k], b, &mut c[i * n..]);
    }
}

/// [`gemm_nn`] for `R` rows (`a` is `R × k`), in column blocks of
/// [`NB`], then 4, then 1.
fn gemm_nn_rows<const R: usize>(n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let mut j = 0;
    while j + NB <= n {
        gemm_nn_block::<R, NB>(n, j, k, a, b, c);
        j += NB;
    }
    while j + 4 <= n {
        gemm_nn_block::<R, 4>(n, j, k, a, b, c);
        j += 4;
    }
    while j < n {
        gemm_nn_block::<R, 1>(n, j, k, a, b, c);
        j += 1;
    }
}

/// `C[:, j..j+W] += A · B[:, j..j+W]` for `R` rows: `R × W`
/// accumulators, one per output.
fn gemm_nn_block<const R: usize, const W: usize>(
    n: usize,
    j: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    let mut acc = [[0.0f32; W]; R];
    for (r, acc_r) in acc.iter_mut().enumerate() {
        acc_r.copy_from_slice(&c[r * n + j..r * n + j + W]);
    }
    for p in 0..k {
        let bp = &b[p * n + j..p * n + j + W];
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let av = a[r * k + p];
            for x in 0..W {
                acc_r[x] = av.mul_add(bp[x], acc_r[x]);
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        c[r * n + j..r * n + j + W].copy_from_slice(acc_r);
    }
}

/// C\[m×n\] += A\[m×k\] · Bᵀ where B is stored \[n×k\] row-major.
///
/// This is the natural layout for `Dense`/LSTM weights (`out × in`).
/// A single row is a matrix-vector product and goes to [`gemv`]. For
/// `m ≥ 2`, `Bᵀ` is packed once into a reused thread-local `[k×n]`
/// buffer and the product runs [`gemm_nn`]'s 16-wide row-broadcast
/// loop. Packing moves operands, not arithmetic: each output still
/// reduces one `mul_add` chain over ascending `k`, so the result is
/// bit-identical to the dot-product form.
pub fn gemm_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_nt: A shape mismatch");
    assert_eq!(b.len(), n * k, "gemm_nt: B shape mismatch");
    assert_eq!(c.len(), m * n, "gemm_nt: C shape mismatch");
    if m == 1 {
        // C[0,j] += Σ_p a[p]·b[j·k+p] is exactly y += B·a.
        return gemv(n, k, b, a, c);
    }
    if n == 0 || k == 0 {
        // Nothing to add; the packing below needs non-empty rows.
        return;
    }
    PACKED_B.with(|cell| {
        let mut bt = cell.borrow_mut();
        bt.clear();
        bt.resize(k * n, 0.0);
        // Write `Bᵀ` row by row: contiguous stores, strided loads.
        for (p, bt_row) in bt.chunks_exact_mut(n).enumerate() {
            for (slot, brow) in bt_row.iter_mut().zip(b.chunks_exact(k)) {
                *slot = brow[p];
            }
        }
        gemm_nn(m, n, k, a, &bt, c);
    })
}

thread_local! {
    /// [`gemm_nt`]'s packing buffer; it grows to the largest `Bᵀ` the
    /// thread has packed and is reused from then on.
    static PACKED_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// C\[m×n\] += Aᵀ · B where A is \[k×m\] and B is \[k×n\], row-major.
///
/// The gradient-accumulation shape: `gw += gradsᵀ · inputs` over a
/// batch/time axis `k`. `B` rows are contiguous, so the output block
/// packs exactly like [`gemm_nn`].
pub fn gemm_tn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), k * m, "gemm_tn: A shape mismatch");
    assert_eq!(b.len(), k * n, "gemm_tn: B shape mismatch");
    assert_eq!(c.len(), m * n, "gemm_tn: C shape mismatch");
    for i in 0..m {
        let crow = &mut c[i * n..(i + 1) * n];
        let mut j = 0;
        while j + NB <= n {
            let mut acc = [0.0f32; NB];
            acc.copy_from_slice(&crow[j..j + NB]);
            for p in 0..k {
                let av = a[p * m + i];
                let bp = &b[p * n + j..p * n + j + NB];
                for x in 0..NB {
                    acc[x] = av.mul_add(bp[x], acc[x]);
                }
            }
            crow[j..j + NB].copy_from_slice(&acc);
            j += NB;
        }
        while j + 4 <= n {
            let mut acc = [0.0f32; 4];
            acc.copy_from_slice(&crow[j..j + 4]);
            for p in 0..k {
                let av = a[p * m + i];
                let bp = &b[p * n + j..p * n + j + 4];
                for x in 0..4 {
                    acc[x] = av.mul_add(bp[x], acc[x]);
                }
            }
            crow[j..j + 4].copy_from_slice(&acc);
            j += 4;
        }
        while j < n {
            let mut s = crow[j];
            for p in 0..k {
                s = a[p * m + i].mul_add(b[p * n + j], s);
            }
            crow[j] = s;
            j += 1;
        }
    }
}

/// y\[m\] += A\[m×k\] · x\[k\], row-major A.
pub fn gemv(m: usize, k: usize, a: &[f32], x: &[f32], y: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemv: A shape mismatch");
    assert_eq!(x.len(), k, "gemv: x length mismatch");
    assert_eq!(y.len(), m, "gemv: y length mismatch");
    let mut i = 0;
    while i + 8 <= m {
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let a2 = &a[(i + 2) * k..(i + 3) * k];
        let a3 = &a[(i + 3) * k..(i + 4) * k];
        let a4 = &a[(i + 4) * k..(i + 5) * k];
        let a5 = &a[(i + 5) * k..(i + 6) * k];
        let a6 = &a[(i + 6) * k..(i + 7) * k];
        let a7 = &a[(i + 7) * k..(i + 8) * k];
        let mut acc = [0.0f32; 8];
        acc.copy_from_slice(&y[i..i + 8]);
        for (p, &xv) in x.iter().enumerate() {
            acc[0] = a0[p].mul_add(xv, acc[0]);
            acc[1] = a1[p].mul_add(xv, acc[1]);
            acc[2] = a2[p].mul_add(xv, acc[2]);
            acc[3] = a3[p].mul_add(xv, acc[3]);
            acc[4] = a4[p].mul_add(xv, acc[4]);
            acc[5] = a5[p].mul_add(xv, acc[5]);
            acc[6] = a6[p].mul_add(xv, acc[6]);
            acc[7] = a7[p].mul_add(xv, acc[7]);
        }
        y[i..i + 8].copy_from_slice(&acc);
        i += 8;
    }
    while i < m {
        let arow = &a[i * k..(i + 1) * k];
        let mut s = y[i];
        for (p, &xv) in x.iter().enumerate() {
            s = arow[p].mul_add(xv, s);
        }
        y[i] = s;
        i += 1;
    }
}

/// y\[n\] += Aᵀ · x: `y[j] += Σ_r x[r] * a[r*n + j]` for A \[r×n\].
///
/// Row-broadcast shape; the inner loop is element-wise over `j` and
/// auto-vectorises cleanly.
pub fn gemv_t(r: usize, n: usize, a: &[f32], x: &[f32], y: &mut [f32]) {
    assert_eq!(a.len(), r * n, "gemv_t: A shape mismatch");
    assert_eq!(x.len(), r, "gemv_t: x length mismatch");
    assert_eq!(y.len(), n, "gemv_t: y length mismatch");
    for (row, &xv) in x.iter().enumerate() {
        let arow = &a[row * n..(row + 1) * n];
        for (slot, &av) in y.iter_mut().zip(arow) {
            *slot = xv.mul_add(av, *slot);
        }
    }
}
