//! Fast Fourier transforms.
//!
//! Two algorithms are provided behind the single entry points [`fft`] and
//! [`ifft`]:
//!
//! * an in-place, iterative radix-2 Cooley–Tukey transform for
//!   power-of-two lengths;
//! * Bluestein's chirp-z algorithm for every other length, built on top of
//!   the radix-2 kernel, so arbitrary-length transforms cost
//!   `O(n log n)` as well.
//!
//! The convention is the unnormalised forward DFT
//! `X[k] = Σ_t x[t]·e^{-2πi·kt/n}` with the inverse carrying the `1/n`
//! factor, matching Eq. (16) of the M2AI paper.

use crate::Complex;

/// Returns `true` if `n` is a power of two (and nonzero).
#[inline]
fn is_pow2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Computes the forward DFT of `input`, for any length.
///
/// Power-of-two lengths use the radix-2 kernel; other lengths use
/// Bluestein's algorithm. An empty input yields an empty output.
///
/// # Example
///
/// ```
/// use m2ai_dsp::{Complex, fft::{fft, ifft}};
/// let x: Vec<Complex> = (0..10).map(|t| Complex::new(t as f64, 0.0)).collect();
/// let back = ifft(&fft(&x));
/// for (a, b) in x.iter().zip(&back) {
///     assert!((*a - *b).norm() < 1e-9);
/// }
/// ```
pub fn fft(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    if n <= 1 {
        return input.to_vec();
    }
    if is_pow2(n) {
        let mut buf = input.to_vec();
        fft_pow2_in_place(&mut buf, false);
        buf
    } else {
        bluestein(input, false)
    }
}

/// Computes the inverse DFT of `input` (including the `1/n` scaling).
pub fn ifft(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    if n <= 1 {
        return input.to_vec();
    }
    let mut out = if is_pow2(n) {
        let mut buf = input.to_vec();
        fft_pow2_in_place(&mut buf, true);
        buf
    } else {
        bluestein(input, true)
    };
    let scale = 1.0 / n as f64;
    for z in &mut out {
        *z = z.scale(scale);
    }
    out
}

/// Computes the forward DFT of `buf`, reusing its storage.
///
/// Bitwise identical to [`fft`]; exists so hot paths can keep one
/// buffer alive across calls. Power-of-two lengths transform fully in
/// place; other lengths fall back to the (allocating) Bluestein chirp
/// transform and replace the buffer's contents.
pub fn fft_in_buffer(buf: &mut Vec<Complex>) {
    let n = buf.len();
    if n <= 1 {
        return;
    }
    if is_pow2(n) {
        fft_pow2_in_place(buf, false);
    } else {
        *buf = bluestein(buf, false);
    }
}

/// In-place radix-2 Cooley–Tukey FFT.
///
/// # Panics
///
/// Panics if `buf.len()` is not a power of two.
pub fn fft_pow2_in_place(buf: &mut [Complex], inverse: bool) {
    let n = buf.len();
    assert!(
        is_pow2(n),
        "fft_pow2_in_place requires a power-of-two length"
    );
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            buf.swap(i, j);
        }
    }
    // Butterfly stages.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        let mut i = 0;
        while i < n {
            let mut w = Complex::ONE;
            for k in 0..len / 2 {
                let u = buf[i + k];
                let v = buf[i + k + len / 2] * w;
                buf[i + k] = u + v;
                buf[i + k + len / 2] = u - v;
                w *= wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Bluestein's chirp-z transform for arbitrary lengths.
fn bluestein(input: &[Complex], inverse: bool) -> Vec<Complex> {
    let n = input.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    // Chirp: w[k] = e^{sign * i * π * k^2 / n}
    let mut chirp = Vec::with_capacity(n);
    for k in 0..n {
        // k^2 mod 2n avoids precision loss for large k.
        let k2 = (k as u64 * k as u64) % (2 * n as u64);
        chirp.push(Complex::cis(
            sign * std::f64::consts::PI * k2 as f64 / n as f64,
        ));
    }
    let m = (2 * n - 1).next_power_of_two();
    let mut a = vec![Complex::ZERO; m];
    let mut b = vec![Complex::ZERO; m];
    for k in 0..n {
        a[k] = input[k] * chirp[k];
        b[k] = chirp[k].conj();
    }
    for k in 1..n {
        b[m - k] = chirp[k].conj();
    }
    fft_pow2_in_place(&mut a, false);
    fft_pow2_in_place(&mut b, false);
    for k in 0..m {
        a[k] *= b[k];
    }
    fft_pow2_in_place(&mut a, true);
    let scale = 1.0 / m as f64;
    (0..n).map(|k| a[k].scale(scale) * chirp[k]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                (0..n)
                    .map(|t| {
                        x[t] * Complex::cis(-2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64)
                    })
                    .sum()
            })
            .collect()
    }

    fn max_err(a: &[Complex], b: &[Complex]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).norm())
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_naive_dft_pow2() {
        let x: Vec<Complex> = (0..16)
            .map(|t| Complex::new((t as f64).sin(), (t as f64 * 0.3).cos()))
            .collect();
        assert!(max_err(&fft(&x), &naive_dft(&x)) < 1e-9);
    }

    #[test]
    fn matches_naive_dft_non_pow2() {
        for n in [3usize, 5, 6, 7, 12, 15, 50, 100] {
            let x: Vec<Complex> = (0..n)
                .map(|t| Complex::new((t as f64 * 1.7).sin(), (t as f64 * 0.9).cos()))
                .collect();
            assert!(
                max_err(&fft(&x), &naive_dft(&x)) < 1e-8,
                "length {n} mismatch"
            );
        }
    }

    #[test]
    fn roundtrip_all_lengths() {
        for n in 1..=33 {
            let x: Vec<Complex> = (0..n)
                .map(|t| Complex::new(t as f64, (n - t) as f64))
                .collect();
            let back = ifft(&fft(&x));
            assert!(max_err(&x, &back) < 1e-8, "length {n} roundtrip");
        }
    }

    #[test]
    fn tone_lands_in_single_bin() {
        let n = 128;
        let f = 9;
        let x: Vec<Complex> = (0..n)
            .map(|t| Complex::cis(2.0 * std::f64::consts::PI * (f * t) as f64 / n as f64))
            .collect();
        let spec = fft(&x);
        for (k, z) in spec.iter().enumerate() {
            if k == f {
                assert!((z.norm() - n as f64).abs() < 1e-8);
            } else {
                assert!(z.norm() < 1e-8, "leakage at bin {k}");
            }
        }
    }

    #[test]
    fn parseval_theorem_holds() {
        // Eq. (16) context: the transform is unitary up to 1/n.
        let n = 48;
        let x: Vec<Complex> = (0..n)
            .map(|t| Complex::new((t as f64 * 0.11).cos(), (t as f64 * 0.07).sin()))
            .collect();
        let spec = fft(&x);
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8);
    }

    #[test]
    fn linearity() {
        let n = 20;
        let a: Vec<Complex> = (0..n).map(|t| Complex::new(t as f64, 0.5)).collect();
        let b: Vec<Complex> = (0..n).map(|t| Complex::new(0.2, t as f64)).collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let fs = fft(&sum);
        let expect: Vec<Complex> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(max_err(&fs, &expect) < 1e-9);
    }

    #[test]
    fn real_input_is_conjugate_symmetric() {
        let x: Vec<Complex> = (0..32)
            .map(|t| Complex::new((t as f64 * 0.37).sin(), 0.0))
            .collect();
        let spec = fft(&x);
        let n = spec.len();
        for k in 1..n {
            assert!((spec[k] - spec[n - k].conj()).norm() < 1e-9);
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert!(fft(&[]).is_empty());
        let one = [Complex::new(7.0, -1.0)];
        assert_eq!(fft(&one), one.to_vec());
        assert_eq!(ifft(&one), one.to_vec());
    }
}
