//! im2col lowering for 1-D convolutions.
//!
//! `Conv1d` over a `[c_in × len_in]` signal with window `kernel` and
//! `stride` becomes a single GEMM once the input windows are unrolled
//! into a `[c_in·kernel × len_out]` column matrix: row `ci*kernel + k`
//! holds sample `x[ci, j*stride + k]` for each output position `j`.
//! That row order matches the `(ci, k)` lexicographic walk of the
//! original 4-deep conv loop, so `W[c_out × c_in·kernel] · cols`
//! reproduces the naive accumulation order element-for-element. A batch
//! of inputs shares one column matrix, each input owning its own block
//! of `len_out` columns, so one GEMM convolves the whole batch.

/// Output length of a valid (no-padding) 1-D convolution.
///
/// # Panics
///
/// Panics if `kernel` is zero, larger than `len_in`, or `stride` is 0.
pub fn conv_len_out(len_in: usize, kernel: usize, stride: usize) -> usize {
    assert!(kernel > 0 && kernel <= len_in, "kernel/len mismatch");
    assert!(stride > 0, "stride must be positive");
    (len_in - kernel) / stride + 1
}

/// Unrolls `rows` stacked inputs (`xs`, `[rows × c_in·len_in]`,
/// row-major) into one shared column matrix `cols`
/// (`[c_in·kernel × rows·len_out]`, row-major). Row `r`'s windows fill
/// columns `r·len_out..(r+1)·len_out` of every column-matrix row, so
/// one GEMM convolves the whole batch.
pub fn im2col(
    xs: &[f32],
    rows: usize,
    c_in: usize,
    len_in: usize,
    kernel: usize,
    stride: usize,
    cols: &mut [f32],
) {
    let len_out = conv_len_out(len_in, kernel, stride);
    let n = rows * len_out;
    assert_eq!(
        xs.len(),
        rows * c_in * len_in,
        "im2col: input shape mismatch"
    );
    assert_eq!(cols.len(), c_in * kernel * n, "im2col: cols shape mismatch");
    // Row by row through `cols`: the stores stay contiguous, and only
    // the loads stride.
    for ci in 0..c_in {
        for k in 0..kernel {
            let dst = &mut cols[(ci * kernel + k) * n..(ci * kernel + k + 1) * n];
            for (seg, x) in dst
                .chunks_exact_mut(len_out)
                .zip(xs.chunks_exact(c_in * len_in))
            {
                let taps = x[ci * len_in + k..(ci + 1) * len_in].iter().step_by(stride);
                for (slot, &v) in seg.iter_mut().zip(taps) {
                    *slot = v;
                }
            }
        }
    }
}

/// Scatters a shared column-matrix gradient (`[c_in·kernel ×
/// rows·len_out]`, laid out as [`im2col`] builds it) back onto `rows`
/// stacked inputs (`gx`, `[rows × c_in·len_in]`):
/// `gx[r][ci, j*stride + k] += gcols[ci*kernel + k, r*len_out + j]`.
///
/// Inverse of [`im2col`] in the accumulate sense (overlapping windows
/// sum their contributions). Each input element sums its
/// contributions in ascending `k`, whatever `rows` is.
pub fn col2im_accumulate(
    gcols: &[f32],
    rows: usize,
    c_in: usize,
    len_in: usize,
    kernel: usize,
    stride: usize,
    gx: &mut [f32],
) {
    let len_out = conv_len_out(len_in, kernel, stride);
    let n = rows * len_out;
    assert_eq!(
        gcols.len(),
        c_in * kernel * n,
        "col2im: cols shape mismatch"
    );
    assert_eq!(
        gx.len(),
        rows * c_in * len_in,
        "col2im: output shape mismatch"
    );
    for ci in 0..c_in {
        for k in 0..kernel {
            let src = &gcols[(ci * kernel + k) * n..(ci * kernel + k + 1) * n];
            for (seg, x) in src
                .chunks_exact(len_out)
                .zip(gx.chunks_exact_mut(c_in * len_in))
            {
                let dst = &mut x[ci * len_in..(ci + 1) * len_in];
                for (j, &g) in seg.iter().enumerate() {
                    dst[j * stride + k] += g;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_out_matches_valid_conv() {
        assert_eq!(conv_len_out(5, 2, 1), 4);
        assert_eq!(conv_len_out(7, 3, 2), 3);
        assert_eq!(conv_len_out(4, 4, 1), 1);
        assert_eq!(conv_len_out(6, 1, 1), 6);
    }

    #[test]
    fn im2col_known_layout() {
        // 1 channel, len 4, kernel 2, stride 1 -> cols [2 x 3].
        let x = [10.0, 20.0, 30.0, 40.0];
        let mut cols = [0.0f32; 6];
        im2col(&x, 1, 1, 4, 2, 1, &mut cols);
        // row k=0: x[j], row k=1: x[j+1]
        assert_eq!(cols, [10.0, 20.0, 30.0, 20.0, 30.0, 40.0]);
    }

    #[test]
    fn im2col_places_each_row_in_its_own_columns() {
        // 2 rows, 1 channel, len 3, kernel 2, stride 1 -> cols [2 x 2·2].
        let xs = [1.0, 2.0, 3.0, 7.0, 8.0, 9.0];
        let mut cols = [0.0f32; 8];
        im2col(&xs, 2, 1, 3, 2, 1, &mut cols);
        // k=0: [row0 j=0,1 | row1 j=0,1], k=1: same shifted by one.
        assert_eq!(cols, [1.0, 2.0, 7.0, 8.0, 2.0, 3.0, 8.0, 9.0]);
    }

    #[test]
    fn im2col_two_channels_strided() {
        // 2 channels, len 5, kernel 3, stride 2 -> len_out 2, cols [6 x 2].
        let x = [0.0, 1.0, 2.0, 3.0, 4.0, 10.0, 11.0, 12.0, 13.0, 14.0];
        let mut cols = [0.0f32; 12];
        im2col(&x, 1, 2, 5, 3, 2, &mut cols);
        assert_eq!(
            cols,
            [
                0.0, 2.0, // ci=0 k=0
                1.0, 3.0, // ci=0 k=1
                2.0, 4.0, // ci=0 k=2
                10.0, 12.0, // ci=1 k=0
                11.0, 13.0, // ci=1 k=1
                12.0, 14.0, // ci=1 k=2
            ]
        );
    }

    #[test]
    fn col2im_accumulates_overlaps() {
        // kernel 2, stride 1 over len 3: position 1 is covered by two
        // windows (j=0,k=1) and (j=1,k=0).
        let gcols = [1.0, 2.0, 4.0, 8.0]; // rows: k=0 -> [1,2], k=1 -> [4,8]
        let mut gx = [0.0f32; 3];
        col2im_accumulate(&gcols, 1, 1, 3, 2, 1, &mut gx);
        assert_eq!(gx, [1.0, 2.0 + 4.0, 8.0]);
    }

    #[test]
    fn col2im_scatters_each_row_from_its_own_columns() {
        // The two-row layout of `im2col_places_each_row_in_its_own_columns`.
        let gcols = [1.0, 2.0, 7.0, 8.0, 3.0, 4.0, 9.0, 10.0];
        let mut gx = [0.0f32; 6];
        col2im_accumulate(&gcols, 2, 1, 3, 2, 1, &mut gx);
        assert_eq!(gx, [1.0, 2.0 + 3.0, 4.0, 7.0, 8.0 + 9.0, 10.0]);
    }
}
