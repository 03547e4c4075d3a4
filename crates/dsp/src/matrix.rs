//! Dense complex matrices (row-major), sized for antenna-array work.
//!
//! MUSIC on a 4-element array only ever touches tiny matrices, so this is
//! a simple implementation with no blocking or SIMD; clarity and
//! correctness win. What *does* matter at frame rate is allocation
//! churn, so the hot accumulation paths have in-place variants
//! ([`CMatrix::add_in_place`], [`CMatrix::scale_in_place`],
//! [`CMatrix::resize_to`], [`CMatrix::copy_from`]) that let callers
//! reuse one matrix across thousands of windows.

use crate::{Complex, DspError};

/// A dense, row-major complex matrix.
///
/// # Example
///
/// ```
/// use m2ai_dsp::{CMatrix, Complex};
/// let eye = CMatrix::identity(3);
/// let v = CMatrix::from_fn(3, 1, |i, _| Complex::new(i as f64, 0.0));
/// let w = eye.mul(&v).unwrap();
/// assert_eq!(w[(2, 0)], Complex::new(2.0, 0.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl CMatrix {
    /// Creates a zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![Complex::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex::ONE;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every entry.
    pub fn from_fn<F: FnMut(usize, usize) -> Complex>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = CMatrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Builds a matrix from a row-major slice.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::DimensionMismatch`] if `data.len() != rows*cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[Complex]) -> Result<Self, DspError> {
        if data.len() != rows * cols {
            return Err(DspError::DimensionMismatch(rows * cols, data.len()));
        }
        Ok(CMatrix {
            rows,
            cols,
            data: data.to_vec(),
        })
    }

    /// Builds a column vector from a slice.
    pub fn col_vector(data: &[Complex]) -> Self {
        CMatrix {
            rows: data.len(),
            cols: 1,
            data: data.to_vec(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[Complex] {
        &self.data
    }

    /// Extracts row `i` as a vector of complex values.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> Vec<Complex> {
        assert!(i < self.rows, "row index out of bounds");
        self.data[i * self.cols..(i + 1) * self.cols].to_vec()
    }

    /// Extracts column `j` as a vector of complex values.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn col(&self, j: usize) -> Vec<Complex> {
        assert!(j < self.cols, "column index out of bounds");
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Conjugate (Hermitian) transpose `Aᴴ`.
    pub fn hermitian_transpose(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Plain transpose `Aᵀ` (no conjugation).
    pub fn transpose(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Element-wise complex conjugate.
    pub fn conj(&self) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::DimensionMismatch`] if inner dimensions differ.
    pub fn mul(&self, rhs: &CMatrix) -> Result<CMatrix, DspError> {
        if self.cols != rhs.rows {
            return Err(DspError::DimensionMismatch(self.cols, rhs.rows));
        }
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == Complex::ZERO {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::DimensionMismatch`] on shape mismatch.
    pub fn add(&self, rhs: &CMatrix) -> Result<CMatrix, DspError> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(DspError::DimensionMismatch(
                self.rows * self.cols,
                rhs.rows * rhs.cols,
            ));
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| *a + *b)
            .collect();
        Ok(CMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, k: Complex) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| *z * k).collect(),
        }
    }

    /// Scales every entry in place — same arithmetic as
    /// [`CMatrix::scale`], no allocation.
    pub fn scale_in_place(&mut self, k: Complex) {
        for z in &mut self.data {
            *z *= k;
        }
    }

    /// Adds `rhs` into `self` element-wise (`self += rhs`) — same
    /// arithmetic as [`CMatrix::add`], no allocation.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::DimensionMismatch`] on shape mismatch.
    pub fn add_in_place(&mut self, rhs: &CMatrix) -> Result<(), DspError> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(DspError::DimensionMismatch(
                self.rows * self.cols,
                rhs.rows * rhs.cols,
            ));
        }
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += *b;
        }
        Ok(())
    }

    /// Reshapes `self` to `rows × cols` and zeroes every entry,
    /// reusing the existing storage when it is large enough.
    pub fn resize_to(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, Complex::ZERO);
    }

    /// Makes `self` an exact copy of `other`, reusing storage.
    pub fn copy_from(&mut self, other: &CMatrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Outer product `x · yᴴ` of two vectors (as column matrices).
    pub fn outer(x: &[Complex], y: &[Complex]) -> CMatrix {
        CMatrix::from_fn(x.len(), y.len(), |i, j| x[i] * y[j].conj())
    }

    /// Frobenius norm `‖A‖_F`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Sum of the squared magnitudes of all off-diagonal entries.
    ///
    /// The Jacobi eigensolver drives this quantity to zero.
    pub fn off_diagonal_energy(&self) -> f64 {
        let mut s = 0.0;
        for i in 0..self.rows {
            for j in 0..self.cols {
                if i != j {
                    s += self[(i, j)].norm_sqr();
                }
            }
        }
        s
    }

    /// `true` if `‖A - Aᴴ‖ ≤ tol · ‖A‖` (Hermitian within tolerance).
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let scale = self.frobenius_norm().max(1e-300);
        for i in 0..self.rows {
            for j in i..self.cols {
                if (self[(i, j)] - self[(j, i)].conj()).norm() > tol * scale {
                    return false;
                }
            }
        }
        true
    }

    /// Trace (sum of diagonal entries). Requires a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::NotSquare`] for non-square input.
    pub fn trace(&self) -> Result<Complex, DspError> {
        if !self.is_square() {
            return Err(DspError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok((0..self.rows).map(|i| self[(i, i)]).sum())
    }
}

impl std::ops::Index<(usize, usize)> for CMatrix {
    type Output = Complex;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex {
        &mut self.data[i * self.cols + j]
    }
}

impl std::fmt::Display for CMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>24}", self[(i, j)].to_string())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = CMatrix::from_fn(3, 3, |i, j| c((i + j) as f64, (i * j) as f64));
        let i3 = CMatrix::identity(3);
        assert_eq!(a.mul(&i3).unwrap(), a);
        assert_eq!(i3.mul(&a).unwrap(), a);
    }

    #[test]
    fn mul_dimension_check() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 3);
        assert_eq!(a.mul(&b), Err(DspError::DimensionMismatch(3, 2)));
    }

    #[test]
    fn hermitian_transpose_involution() {
        let a = CMatrix::from_fn(2, 4, |i, j| c(i as f64, j as f64));
        assert_eq!(a.hermitian_transpose().hermitian_transpose(), a);
    }

    #[test]
    fn outer_product_shape_and_values() {
        let x = [c(1.0, 1.0), c(2.0, 0.0)];
        let y = [c(0.0, 1.0), c(1.0, 0.0), c(1.0, 1.0)];
        let o = CMatrix::outer(&x, &y);
        assert_eq!((o.rows(), o.cols()), (2, 3));
        assert_eq!(o[(0, 0)], x[0] * y[0].conj());
        assert_eq!(o[(1, 2)], x[1] * y[2].conj());
    }

    #[test]
    fn outer_product_is_hermitian_when_self() {
        let x = [c(1.0, 2.0), c(-0.5, 0.3), c(0.1, -0.9)];
        let o = CMatrix::outer(&x, &x);
        assert!(o.is_hermitian(1e-12));
    }

    #[test]
    fn trace_and_norm() {
        let a = CMatrix::from_rows(2, 2, &[c(1.0, 0.0), c(2.0, 0.0), c(3.0, 0.0), c(4.0, 0.0)])
            .unwrap();
        assert_eq!(a.trace().unwrap(), c(5.0, 0.0));
        assert!((a.frobenius_norm() - (30.0f64).sqrt()).abs() < 1e-12);
        let rect = CMatrix::zeros(2, 3);
        assert!(rect.trace().is_err());
    }

    #[test]
    fn row_col_extraction() {
        let a = CMatrix::from_fn(3, 2, |i, j| c(i as f64, j as f64));
        assert_eq!(a.row(1), vec![c(1.0, 0.0), c(1.0, 1.0)]);
        assert_eq!(a.col(1), vec![c(0.0, 1.0), c(1.0, 1.0), c(2.0, 1.0)]);
    }

    #[test]
    fn from_rows_rejects_bad_length() {
        assert!(CMatrix::from_rows(2, 2, &[Complex::ZERO; 3]).is_err());
    }

    #[test]
    fn off_diagonal_energy_zero_for_diagonal() {
        let mut d = CMatrix::zeros(3, 3);
        for i in 0..3 {
            d[(i, i)] = c(i as f64 + 1.0, 0.0);
        }
        assert_eq!(d.off_diagonal_energy(), 0.0);
    }

    #[test]
    fn display_has_rows() {
        let a = CMatrix::identity(2);
        let s = a.to_string();
        assert_eq!(s.lines().count(), 2);
    }
}
