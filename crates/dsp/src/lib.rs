//! # m2ai-dsp — signal processing substrate for M2AI
//!
//! This crate implements, from first principles, every piece of signal
//! processing the M2AI pipeline (ICDCS 2018) relies on:
//!
//! * [`Complex`] arithmetic and [`phase`] wrapping/unwrapping helpers;
//! * a fast Fourier transform ([`fft`]) supporting arbitrary lengths
//!   (iterative radix-2 plus Bluestein's algorithm);
//! * windowed [`periodogram`] power-spectral-density estimation (Eq. 14–16
//!   of the paper) including Welch averaging;
//! * dense complex [`matrix`] algebra and a cyclic-Jacobi Hermitian
//!   [`eigen`]decomposition;
//! * the MUSIC pseudospectrum estimator ([`music`], Eq. 12) with
//!   forward–backward averaging, spatial smoothing and MDL/AIC source
//!   counting;
//! * descriptive [`stats`] (means, medians, circular statistics).
//!
//! The crate uses `f64` throughout and leans only on `m2ai-obs` for
//! instrumentation — no external dependencies.
//!
//! # Example
//!
//! ```
//! use m2ai_dsp::{Complex, fft::fft, music::{MusicConfig, pseudospectrum}};
//!
//! // FFT of a pure tone lands all energy in one bin.
//! let n = 64;
//! let tone: Vec<Complex> = (0..n)
//!     .map(|t| Complex::from_polar(1.0, 2.0 * std::f64::consts::PI * 4.0 * t as f64 / n as f64))
//!     .collect();
//! let spec = fft(&tone);
//! let peak = spec.iter().enumerate().max_by(|a, b| {
//!     a.1.norm().partial_cmp(&b.1.norm()).unwrap()
//! }).unwrap().0;
//! assert_eq!(peak, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod complex;
pub mod eigen;
pub mod fft;
pub mod matrix;
pub mod music;
pub mod periodogram;
pub mod phase;
pub mod stats;
pub mod window;

pub use complex::Complex;
pub use matrix::CMatrix;

/// Crate-wide error type.
///
/// All fallible public functions in this crate return `Result<_, DspError>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DspError {
    /// The input slice was empty where data was required.
    EmptyInput,
    /// Two inputs had incompatible dimensions; holds `(expected, got)`.
    DimensionMismatch(usize, usize),
    /// A matrix operation required a square matrix.
    NotSquare {
        /// number of rows
        rows: usize,
        /// number of columns
        cols: usize,
    },
    /// An iterative algorithm failed to converge within its budget.
    NoConvergence {
        /// the iteration budget that was exhausted
        iterations: usize,
    },
    /// A parameter was outside its valid domain.
    InvalidParameter(&'static str),
}

impl std::fmt::Display for DspError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DspError::EmptyInput => write!(f, "input must not be empty"),
            DspError::DimensionMismatch(expected, got) => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            DspError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}x{cols}")
            }
            DspError::NoConvergence { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
            DspError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl std::error::Error for DspError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let errors = [
            DspError::EmptyInput,
            DspError::DimensionMismatch(3, 4),
            DspError::NotSquare { rows: 2, cols: 3 },
            DspError::NoConvergence { iterations: 100 },
            DspError::InvalidParameter("alpha"),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DspError>();
    }
}
