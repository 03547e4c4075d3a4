//! MUSIC (MUltiple SIgnal Classification) pseudospectrum estimation.
//!
//! Implements the angle-of-arrival estimator of Section III-C of the
//! paper: the spatial correlation matrix of array snapshots (Eq. 10) is
//! eigendecomposed, the eigenvectors split into signal and noise
//! subspaces (Eq. 11), and the pseudospectrum evaluated over a grid of
//! arrival angles (Eq. 12). Peaks of the pseudospectrum locate the
//! propagation paths.
//!
//! Extensions needed for RFID backscatter practice are included:
//!
//! * *round-trip phase*: a backscatter link accrues phase over the
//!   two-way distance, doubling the effective element spacing;
//! * *forward–backward averaging* and *subarray spatial smoothing*, which
//!   restore correlation-matrix rank when multipath components are
//!   mutually coherent (they are — they originate from one tag);
//! * *MDL / AIC* information-theoretic source counting.

use crate::eigen::hermitian_eigen;
use crate::{CMatrix, Complex, DspError};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// How many signal sources to assume when splitting subspaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceCount {
    /// Use exactly this many sources (clamped to `n_antennas - 1`).
    Fixed(usize),
    /// Estimate with Minimum Description Length model-order selection.
    Mdl,
    /// Estimate with the Akaike Information Criterion.
    Aic,
}

/// Configuration for the MUSIC estimator.
///
/// `spacing_wavelengths` is the physical element spacing divided by the
/// carrier wavelength (the paper uses λ/8 ⇒ `0.125`); with
/// `round_trip = true` (backscatter) the *effective* spacing doubles,
/// yielding the λ/4 separation discussed in Section V.
#[derive(Debug, Clone, PartialEq)]
pub struct MusicConfig {
    /// Number of array elements (antennas).
    pub n_antennas: usize,
    /// Element spacing in carrier wavelengths (d/λ).
    pub spacing_wavelengths: f64,
    /// If `true`, phase accrues over the round trip (backscatter links).
    pub round_trip: bool,
    /// Number of grid points spanning 0°..180° (the paper uses 180).
    pub n_angles: usize,
    /// Apply forward–backward averaging to the correlation matrix.
    pub forward_backward: bool,
    /// Optional subarray length for spatial smoothing (must be in
    /// `2..=n_antennas`); `None` disables smoothing.
    pub smoothing_subarray: Option<usize>,
    /// Source-count selection strategy.
    pub source_count: SourceCount,
    /// Diagonal loading added to the correlation matrix for numerical
    /// robustness (relative to its trace).
    pub diagonal_loading: f64,
}

impl MusicConfig {
    /// Configuration matching the paper's prototype: 4 antennas at λ/8
    /// spacing, backscatter round trip, 180 angle bins, FB averaging,
    /// 3-element smoothing, MDL source count.
    pub fn paper_default() -> Self {
        MusicConfig {
            n_antennas: 4,
            spacing_wavelengths: 0.125,
            round_trip: true,
            n_angles: 180,
            forward_backward: true,
            smoothing_subarray: Some(3),
            source_count: SourceCount::Mdl,
            diagonal_loading: 1e-6,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] when any field is out of
    /// its documented domain.
    pub fn validate(&self) -> Result<(), DspError> {
        if self.n_antennas < 2 {
            return Err(DspError::InvalidParameter("n_antennas must be >= 2"));
        }
        if self.spacing_wavelengths <= 0.0 || self.spacing_wavelengths.is_nan() {
            return Err(DspError::InvalidParameter(
                "spacing_wavelengths must be positive",
            ));
        }
        if self.n_angles < 2 {
            return Err(DspError::InvalidParameter("n_angles must be >= 2"));
        }
        if let Some(l) = self.smoothing_subarray {
            if l < 2 || l > self.n_antennas {
                return Err(DspError::InvalidParameter(
                    "smoothing_subarray must be in 2..=n_antennas",
                ));
            }
        }
        Ok(())
    }

    /// Effective per-element phase advance at broadside factor, i.e. the
    /// coefficient `2π·d_eff/λ` with `d_eff = 2d` for round-trip links.
    fn phase_factor(&self) -> f64 {
        let mult = if self.round_trip { 2.0 } else { 1.0 };
        2.0 * std::f64::consts::PI * mult * self.spacing_wavelengths
    }
}

impl Default for MusicConfig {
    fn default() -> Self {
        MusicConfig::paper_default()
    }
}

/// A sampled MUSIC pseudospectrum over arrival angle.
#[derive(Debug, Clone, PartialEq)]
pub struct MusicSpectrum {
    /// Angle grid in degrees (ascending over `[0, 180)`).
    pub angles_deg: Vec<f64>,
    /// Pseudospectrum power at each grid angle (linear scale).
    pub power: Vec<f64>,
    /// Number of sources assumed for the subspace split.
    pub source_count: usize,
}

impl MusicSpectrum {
    /// Finds local maxima, strongest first, separated by at least
    /// `min_separation_deg`.
    ///
    /// Returns `(angle_deg, power)` pairs.
    pub fn peaks(&self, max_peaks: usize, min_separation_deg: f64) -> Vec<(f64, f64)> {
        let n = self.power.len();
        let mut candidates: Vec<(f64, f64)> = (0..n)
            .filter(|&i| {
                let left = if i == 0 { f64::MIN } else { self.power[i - 1] };
                let right = if i + 1 == n {
                    f64::MIN
                } else {
                    self.power[i + 1]
                };
                self.power[i] >= left && self.power[i] > right
            })
            .map(|i| (self.angles_deg[i], self.power[i]))
            .collect();
        candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite powers"));
        let mut picked: Vec<(f64, f64)> = Vec::new();
        for (ang, pow) in candidates {
            if picked.len() >= max_peaks {
                break;
            }
            if picked
                .iter()
                .all(|&(a, _)| (a - ang).abs() >= min_separation_deg)
            {
                picked.push((ang, pow));
            }
        }
        picked
    }

    /// Normalises the power so the maximum is 1 (useful as a NN input).
    pub fn normalized(&self) -> MusicSpectrum {
        let max = self.power.iter().cloned().fold(f64::MIN, f64::max);
        let scale = if max > 0.0 { 1.0 / max } else { 0.0 };
        MusicSpectrum {
            angles_deg: self.angles_deg.clone(),
            power: self.power.iter().map(|p| p * scale).collect(),
            source_count: self.source_count,
        }
    }
}

/// Array steering vector `a(θ)` (Eq. 8) for an `n`-element ULA.
///
/// `theta_deg` is measured from endfire as in Fig. 4(c), so broadside is
/// 90°. The phase advance per element is `2π·d_eff·cosθ/λ`.
pub fn steering_vector(config: &MusicConfig, theta_deg: f64) -> Vec<Complex> {
    let psi = config.phase_factor() * theta_deg.to_radians().cos();
    (0..config.n_antennas)
        .map(|k| Complex::cis(-(k as f64) * psi))
        .collect()
}

/// The fields of [`MusicConfig`] that [`steering_vector`] depends on —
/// the cache key of [`SteeringTable`]. Spacing is keyed by its bit
/// pattern so distinct `f64` values never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SteeringKey {
    n_antennas: usize,
    n_angles: usize,
    spacing_bits: u64,
    round_trip: bool,
}

impl SteeringKey {
    fn of(config: &MusicConfig) -> Self {
        SteeringKey {
            n_antennas: config.n_antennas,
            n_angles: config.n_angles,
            spacing_bits: config.spacing_wavelengths.to_bits(),
            round_trip: config.round_trip,
        }
    }
}

type SteeringMap = HashMap<SteeringKey, Arc<Vec<Vec<Complex>>>>;

/// Process-wide cache of steering tables, shared across threads. The
/// number of distinct keys is bounded by the distinct array geometries
/// in play (a handful per process), so the map never needs eviction.
static STEERING_CACHE: OnceLock<Mutex<SteeringMap>> = OnceLock::new();

/// Hit/miss counters for the steering-table cache, resolved once per
/// process.
fn steering_cache_counters() -> &'static (m2ai_obs::Counter, m2ai_obs::Counter) {
    static C: OnceLock<(m2ai_obs::Counter, m2ai_obs::Counter)> = OnceLock::new();
    C.get_or_init(|| {
        let help = "steering-table cache lookups by result";
        (
            m2ai_obs::counter("m2ai_dsp_steering_cache_total", help, &[("result", "hit")]),
            m2ai_obs::counter("m2ai_dsp_steering_cache_total", help, &[("result", "miss")]),
        )
    })
}

/// Precomputed steering vectors over the estimator's angle grid.
///
/// [`pseudospectrum_from_correlation`] evaluates `a(θ)` at the same
/// `n_angles` grid points for every frame; this table computes them
/// once per array geometry and shares them (via `Arc`) across all
/// threads of the process.
///
/// **Invariance guarantee:** each entry is produced by calling
/// [`steering_vector`] itself at `θ = 180°·g/n_angles`, so `vector(g)`
/// is *bitwise identical* to the direct computation — caching can never
/// change a pseudospectrum.
#[derive(Debug, Clone)]
pub struct SteeringTable {
    vectors: Arc<Vec<Vec<Complex>>>,
}

impl SteeringTable {
    /// Fetches (or builds, on first use per geometry) the table for
    /// `config`'s grid.
    pub fn for_config(config: &MusicConfig) -> Self {
        let cache = STEERING_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = cache.lock().expect("steering cache poisoned");
        let key = SteeringKey::of(config);
        let (hits, misses) = steering_cache_counters();
        if let Some(vectors) = map.get(&key) {
            hits.inc();
            return SteeringTable {
                vectors: vectors.clone(),
            };
        }
        misses.inc();
        let vectors = Arc::new(
            (0..config.n_angles)
                .map(|g| {
                    let theta = 180.0 * g as f64 / config.n_angles as f64;
                    steering_vector(config, theta)
                })
                .collect::<Vec<_>>(),
        );
        map.insert(key, vectors.clone());
        SteeringTable { vectors }
    }

    /// The steering vector of grid point `g` (angle `180°·g/n_angles`).
    pub fn vector(&self, g: usize) -> &[Complex] {
        &self.vectors[g]
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// `true` if the grid is empty (never the case for a validated
    /// [`MusicConfig`]).
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }
}

/// Sample correlation matrix `R = (1/T)·Σ x xᴴ` (Eq. 10) of snapshots.
///
/// Each snapshot is one length-`N` observation across the array.
///
/// # Errors
///
/// * [`DspError::EmptyInput`] with no snapshots;
/// * [`DspError::DimensionMismatch`] if snapshots have differing lengths.
pub fn correlation_matrix(snapshots: &[Vec<Complex>]) -> Result<CMatrix, DspError> {
    let mut r = CMatrix::zeros(0, 0);
    correlation_matrix_into(snapshots, &mut r)?;
    Ok(r)
}

/// In-place variant of [`correlation_matrix`]: writes `R` into `out`,
/// reusing its storage across calls. Bitwise identical to the
/// allocating variant. On error, `out`'s contents are unspecified.
///
/// # Errors
///
/// See [`correlation_matrix`].
pub fn correlation_matrix_into(
    snapshots: &[Vec<Complex>],
    out: &mut CMatrix,
) -> Result<(), DspError> {
    let first = snapshots.first().ok_or(DspError::EmptyInput)?;
    let n = first.len();
    if n == 0 {
        return Err(DspError::EmptyInput);
    }
    out.resize_to(n, n);
    for snap in snapshots {
        if snap.len() != n {
            return Err(DspError::DimensionMismatch(n, snap.len()));
        }
        for i in 0..n {
            for j in 0..n {
                out[(i, j)] += snap[i] * snap[j].conj();
            }
        }
    }
    out.scale_in_place(Complex::new(1.0 / snapshots.len() as f64, 0.0));
    Ok(())
}

/// Sample correlation of the length-`len` window starting at `start` of
/// every snapshot, written into `out` — the same arithmetic (accumulate
/// every snapshot's outer product, then scale by `1/T`) and iteration
/// order as [`correlation_matrix`] on materialised sub-snapshots,
/// without allocating them.
///
/// Panics (like the slicing it replaces) if any snapshot is shorter
/// than `start + len`. `snapshots` must be non-empty.
fn windowed_correlation_into(
    snapshots: &[Vec<Complex>],
    start: usize,
    len: usize,
    out: &mut CMatrix,
) {
    out.resize_to(len, len);
    for snap in snapshots {
        let w = &snap[start..start + len];
        for i in 0..len {
            for j in 0..len {
                out[(i, j)] += w[i] * w[j].conj();
            }
        }
    }
    out.scale_in_place(Complex::new(1.0 / snapshots.len() as f64, 0.0));
}

/// Forward–backward averaging: `R_fb = (R + J·R*·J)/2` with `J` the
/// exchange matrix. Decorrelates up to two coherent sources.
pub fn forward_backward_average(r: &CMatrix) -> CMatrix {
    let mut out = CMatrix::zeros(0, 0);
    forward_backward_average_into(r, &mut out);
    out
}

/// In-place variant of [`forward_backward_average`]: writes `R_fb` into
/// `out`, reusing its storage. Bitwise identical to the allocating
/// variant. `out` must not alias `r`.
pub fn forward_backward_average_into(r: &CMatrix, out: &mut CMatrix) {
    let n = r.rows();
    out.resize_to(n, n);
    for i in 0..n {
        for j in 0..n {
            let flipped = r[(n - 1 - i, n - 1 - j)].conj();
            out[(i, j)] = (r[(i, j)] + flipped).scale(0.5);
        }
    }
}

/// Subarray spatial smoothing of snapshots.
///
/// Splits each length-`N` snapshot into `N - l + 1` overlapping
/// subarrays of length `l` and averages their correlation matrices,
/// restoring rank under coherent multipath at the cost of aperture.
///
/// # Errors
///
/// Propagates [`correlation_matrix`] errors;
/// [`DspError::InvalidParameter`] if `l` is out of `2..=N`.
pub fn spatially_smoothed_correlation(
    snapshots: &[Vec<Complex>],
    subarray_len: usize,
) -> Result<CMatrix, DspError> {
    let mut acc = CMatrix::zeros(0, 0);
    spatially_smoothed_correlation_into(
        snapshots,
        subarray_len,
        &mut acc,
        &mut CMatrix::zeros(0, 0),
    )?;
    Ok(acc)
}

/// In-place variant of [`spatially_smoothed_correlation`]: writes the
/// smoothed correlation into `acc`, using `r` as the per-subarray
/// buffer. Bitwise identical to the allocating variant.
fn spatially_smoothed_correlation_into(
    snapshots: &[Vec<Complex>],
    subarray_len: usize,
    acc: &mut CMatrix,
    r: &mut CMatrix,
) -> Result<(), DspError> {
    let first = snapshots.first().ok_or(DspError::EmptyInput)?;
    let n = first.len();
    if subarray_len < 2 || subarray_len > n {
        return Err(DspError::InvalidParameter(
            "subarray_len must be in 2..=snapshot_len",
        ));
    }
    let n_sub = n - subarray_len + 1;
    acc.resize_to(subarray_len, subarray_len);
    for start in 0..n_sub {
        windowed_correlation_into(snapshots, start, subarray_len, r);
        acc.add_in_place(r)?;
    }
    acc.scale_in_place(Complex::new(1.0 / n_sub as f64, 0.0));
    Ok(())
}

/// Estimates the number of sources from sorted eigenvalues via MDL.
///
/// `n_snapshots` is the number of observations that produced the
/// correlation matrix. The result is in `0..=n-1`.
pub fn estimate_sources_mdl(eigenvalues: &[f64], n_snapshots: usize) -> usize {
    select_model_order(eigenvalues, n_snapshots, true)
}

/// Estimates the number of sources via AIC (tends to overestimate).
pub fn estimate_sources_aic(eigenvalues: &[f64], n_snapshots: usize) -> usize {
    select_model_order(eigenvalues, n_snapshots, false)
}

fn select_model_order(eigenvalues: &[f64], n_snapshots: usize, mdl: bool) -> usize {
    let n = eigenvalues.len();
    if n < 2 {
        return 0;
    }
    let t = n_snapshots.max(1) as f64;
    let floor = 1e-12 * eigenvalues.first().copied().unwrap_or(1.0).max(1e-300);
    let lam: Vec<f64> = eigenvalues.iter().map(|&l| l.max(floor)).collect();
    let mut best_k = 0usize;
    let mut best_score = f64::INFINITY;
    for k in 0..n {
        let tail = &lam[k..];
        let m = tail.len() as f64;
        let geo = tail.iter().map(|l| l.ln()).sum::<f64>() / m;
        let arith = tail.iter().sum::<f64>() / m;
        let log_ratio = geo - arith.ln(); // ln(gmean/amean) ≤ 0
        let fit = -t * m * log_ratio;
        let penalty_terms = k as f64 * (2.0 * n as f64 - k as f64);
        let penalty = if mdl {
            0.5 * penalty_terms * t.ln()
        } else {
            penalty_terms
        };
        let score = fit + penalty;
        if score < best_score {
            best_score = score;
            best_k = k;
        }
    }
    best_k
}

/// Computes the MUSIC pseudospectrum (Eq. 12) from raw array snapshots.
///
/// Applies (in order) spatial smoothing, forward–backward averaging,
/// diagonal loading, eigendecomposition, source counting and the grid
/// scan `P(θ) = 1 / (aᴴ(θ)·E_n·E_nᴴ·a(θ))`.
///
/// # Errors
///
/// Propagates configuration and numerical errors from the stages above.
pub fn pseudospectrum(
    snapshots: &[Vec<Complex>],
    config: &MusicConfig,
) -> Result<MusicSpectrum, DspError> {
    let mut power = Vec::new();
    let m = pseudospectrum_power_into(snapshots, config, &mut MusicScratch::default(), &mut power)?;
    Ok(MusicSpectrum {
        angles_deg: angle_grid(config.n_angles),
        power,
        source_count: m,
    })
}

/// The scan's angle grid in degrees: `180°·g/n_angles` for each `g`.
fn angle_grid(n_angles: usize) -> Vec<f64> {
    (0..n_angles)
        .map(|g| 180.0 * g as f64 / n_angles as f64)
        .collect()
}

/// Reusable buffers of [`pseudospectrum_power_into`]: the correlation
/// matrices, the packed noise rows and the steering table of the last geometry scanned (so a caller that keeps
/// one scratch per array geometry skips the process-wide cache lookup).
/// Holds no state that affects results: a fresh scratch and a reused
/// one give bitwise-identical spectra.
#[derive(Debug, Clone, Default)]
pub struct MusicScratch {
    corr: CMatrix,
    sub: CMatrix,
    nh: Vec<Complex>,
    steering: Option<(SteeringKey, Arc<Vec<f64>>)>,
}

/// Allocation-lean core of [`pseudospectrum`]: writes the per-bin
/// linear power into `power` (cleared and resized to
/// `config.n_angles`) and returns the estimated source count. Bitwise
/// identical to `pseudospectrum(..).power`; skips the angle-grid
/// vector and, while `scratch` keeps scanning one geometry, the
/// steering-cache lookup. On error, `power`'s contents are
/// unspecified.
///
/// # Errors
///
/// See [`pseudospectrum`].
pub fn pseudospectrum_power_into(
    snapshots: &[Vec<Complex>],
    config: &MusicConfig,
    scratch: &mut MusicScratch,
    power: &mut Vec<f64>,
) -> Result<usize, DspError> {
    config.validate()?;
    match config.smoothing_subarray {
        Some(l) => {
            spatially_smoothed_correlation_into(snapshots, l, &mut scratch.corr, &mut scratch.sub)?
        }
        None => correlation_matrix_into(snapshots, &mut scratch.corr)?,
    }
    let sub = noise_subspace_of(&scratch.corr, snapshots.len(), config)?;
    let sub_cfg = subarray_config(config, sub.n);
    let key = SteeringKey::of(&sub_cfg);
    let steering = match &scratch.steering {
        Some((k, table)) if *k == key => table.clone(),
        _ => {
            let table = soa_steering(&sub_cfg);
            scratch.steering = Some((key, table.clone()));
            table
        }
    };
    exact_scan(&sub, &steering, config.n_angles, &mut scratch.nh, power);
    Ok(sub.source_count)
}

/// `config` resized to the `n`-element (possibly smoothed) subarray
/// the grid scan steers.
fn subarray_config(config: &MusicConfig, n: usize) -> MusicConfig {
    MusicConfig {
        n_antennas: n,
        ..config.clone()
    }
}

/// The subspace split of the pseudospectrum: everything in
/// [`pseudospectrum_from_correlation`] up to source counting. The full
/// eigensystem is handed back (rather than a materialised noise
/// matrix) so the scan packs its operand straight from the noise
/// eigenvector columns (`m..n`).
struct NoiseSubspace {
    /// Full eigensystem of the loaded, FB-averaged correlation.
    eig: crate::eigen::EigenDecomposition,
    /// Effective array size (rows of the correlation matrix).
    n: usize,
    /// Assumed number of sources.
    source_count: usize,
}

/// Forward–backward averaging, diagonal loading, eigendecomposition and
/// source counting — the prefix of the pseudospectrum shared by
/// [`pseudospectrum_power_into`] and [`pseudospectrum_from_correlation`].
fn noise_subspace_of(
    r: &CMatrix,
    n_snapshots: usize,
    config: &MusicConfig,
) -> Result<NoiseSubspace, DspError> {
    config.validate()?;
    let mut work = CMatrix::zeros(0, 0);
    if config.forward_backward {
        forward_backward_average_into(r, &mut work);
    } else {
        work.copy_from(r);
    }
    let mut r = work;
    let n = r.rows();
    // Diagonal loading keeps the eigensolver healthy on rank-deficient R.
    let load = config.diagonal_loading * (r.trace()?.re / n as f64).max(1e-300);
    for i in 0..n {
        r[(i, i)] += Complex::new(load, 0.0);
    }
    let eig = hermitian_eigen(&r)?;
    let m = match config.source_count {
        SourceCount::Fixed(m) => m.min(n.saturating_sub(1)),
        SourceCount::Mdl => estimate_sources_mdl(&eig.values, n_snapshots).clamp(1, n - 1),
        SourceCount::Aic => estimate_sources_aic(&eig.values, n_snapshots).clamp(1, n - 1),
    };
    Ok(NoiseSubspace {
        eig,
        n,
        source_count: m,
    })
}

/// Computes the MUSIC pseudospectrum from a pre-computed correlation
/// matrix (size may be the smoothed subarray size).
///
/// # Errors
///
/// See [`pseudospectrum`].
pub fn pseudospectrum_from_correlation(
    r: &CMatrix,
    n_snapshots: usize,
    config: &MusicConfig,
) -> Result<MusicSpectrum, DspError> {
    let sub = noise_subspace_of(r, n_snapshots, config)?;
    let steering = soa_steering(&subarray_config(config, sub.n));
    let mut power = Vec::new();
    exact_scan(
        &sub,
        &steering,
        config.n_angles,
        &mut Vec::new(),
        &mut power,
    );
    Ok(MusicSpectrum {
        angles_deg: angle_grid(config.n_angles),
        power,
        source_count: sub.source_count,
    })
}

/// Angles per block of [`exact_scan`]: a block's dot-product
/// accumulators live on the stack.
const SCAN_BLOCK: usize = 16;

/// The exact `f64` grid scan `P(θ_g) = 1 / max(‖E_nᴴ a(θ_g)‖², 1e-12)`
/// over a structure-of-arrays steering table (`soa`, `2n × n_angles`:
/// row `i` holds `Re a_g[i]` across the grid, row `n + i` holds
/// `Im a_g[i]`), writing `n_angles` powers into `power`; `nh` is
/// scratch.
///
/// The loops run over blocks of the angle grid innermost, so they
/// vectorise, while each angle keeps the per-angle loop's operation
/// order: the complex product as in `Complex::mul`, the `dot` fold from
/// zero over ascending `i`, `denom` accumulated over noise columns in
/// order, then the reciprocal. rustc never contracts `a * b + c` into an
/// FMA, so every bin is bitwise the per-angle result.
fn exact_scan(
    sub: &NoiseSubspace,
    soa: &[f64],
    n_angles: usize,
    nh: &mut Vec<Complex>,
    power: &mut Vec<f64>,
) {
    let (n, m) = (sub.n, sub.source_count);
    let vecs = &sub.eig.vectors;
    // E_nᴴ packed row-major: `nh[j*n + i] = conj(E_n[i, j])`.
    nh.clear();
    for j in m..n {
        nh.extend((0..n).map(|i| vecs[(i, j)].conj()));
    }
    power.clear();
    power.resize(n_angles, 0.0);
    for (block, denom) in power.chunks_mut(SCAN_BLOCK).enumerate() {
        let g0 = block * SCAN_BLOCK;
        for row in nh.chunks_exact(n) {
            let mut dot_re = [0.0f64; SCAN_BLOCK];
            let mut dot_im = [0.0f64; SCAN_BLOCK];
            for (i, h) in row.iter().enumerate() {
                let a_re = &soa[i * n_angles + g0..][..denom.len()];
                let a_im = &soa[(n + i) * n_angles + g0..][..denom.len()];
                for (((dr, di), &ar), &ai) in dot_re.iter_mut().zip(&mut dot_im).zip(a_re).zip(a_im)
                {
                    *dr += h.re * ar - h.im * ai;
                    *di += h.re * ai + h.im * ar;
                }
            }
            for ((d, dr), di) in denom.iter_mut().zip(dot_re).zip(dot_im) {
                *d += dr * dr + di * di;
            }
        }
    }
    for d in power.iter_mut() {
        *d = 1.0 / d.max(1e-12);
    }
}

type SoaSteeringMap = HashMap<SteeringKey, Arc<Vec<f64>>>;

/// Process-wide cache of the exact scan's structure-of-arrays `f64`
/// steering tables (layout in [`exact_scan`]), keyed like
/// [`STEERING_CACHE`]. Entries are copied from the shared
/// [`SteeringTable`], so they are bitwise the steering vectors.
static SOA_STEERING_CACHE: OnceLock<Mutex<SoaSteeringMap>> = OnceLock::new();

/// Fetches (or builds, once per geometry) `config`'s steering table in
/// the structure-of-arrays layout of [`exact_scan`].
fn soa_steering(config: &MusicConfig) -> Arc<Vec<f64>> {
    let cache = SOA_STEERING_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("steering cache poisoned");
    let key = SteeringKey::of(config);
    if let Some(table) = map.get(&key) {
        return table.clone();
    }
    let vectors = SteeringTable::for_config(config);
    let n = config.n_antennas;
    let n_angles = config.n_angles;
    let mut table = vec![0.0; 2 * n * n_angles];
    for g in 0..n_angles {
        for (i, z) in vectors.vector(g).iter().enumerate() {
            table[i * n_angles + g] = z.re;
            table[(n + i) * n_angles + g] = z.im;
        }
    }
    let table = Arc::new(table);
    map.insert(key, table.clone());
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds snapshots for uncorrelated unit sources at the given angles
    /// with per-snapshot random-ish phases (deterministic LCG).
    fn synth_snapshots(
        config: &MusicConfig,
        angles: &[f64],
        n_snaps: usize,
        noise: f64,
    ) -> Vec<Vec<Complex>> {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            // splitmix64: well-mixed, unlike a raw LCG whose consecutive
            // outputs are correlated enough to fake a third source.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        (0..n_snaps)
            .map(|_| {
                let phases: Vec<f64> = angles
                    .iter()
                    .map(|_| next() * std::f64::consts::PI)
                    .collect();
                (0..config.n_antennas)
                    .map(|k| {
                        let mut z = Complex::ZERO;
                        for (a_idx, &ang) in angles.iter().enumerate() {
                            let sv = steering_vector(config, ang);
                            z += sv[k] * Complex::cis(phases[a_idx]);
                        }
                        z + Complex::new(noise * next(), noise * next())
                    })
                    .collect()
            })
            .collect()
    }

    fn test_config(n: usize) -> MusicConfig {
        MusicConfig {
            n_antennas: n,
            spacing_wavelengths: 0.25,
            round_trip: false,
            n_angles: 360,
            forward_backward: true,
            smoothing_subarray: None,
            source_count: SourceCount::Fixed(1),
            diagonal_loading: 1e-9,
        }
    }

    #[test]
    fn single_source_peak_at_true_angle() {
        let cfg = test_config(4);
        for true_angle in [40.0, 90.0, 125.0] {
            let snaps = synth_snapshots(&cfg, &[true_angle], 64, 0.01);
            let spec = pseudospectrum(&snaps, &cfg).unwrap();
            let peaks = spec.peaks(1, 5.0);
            assert!(!peaks.is_empty());
            assert!(
                (peaks[0].0 - true_angle).abs() < 2.0,
                "expected {true_angle}, got {}",
                peaks[0].0
            );
        }
    }

    #[test]
    fn two_sources_resolved() {
        let mut cfg = test_config(6);
        cfg.source_count = SourceCount::Fixed(2);
        let snaps = synth_snapshots(&cfg, &[50.0, 120.0], 128, 0.02);
        let spec = pseudospectrum(&snaps, &cfg).unwrap();
        let peaks = spec.peaks(2, 10.0);
        assert_eq!(peaks.len(), 2);
        let mut got: Vec<f64> = peaks.iter().map(|p| p.0).collect();
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((got[0] - 50.0).abs() < 3.0, "got {got:?}");
        assert!((got[1] - 120.0).abs() < 3.0, "got {got:?}");
    }

    #[test]
    fn mdl_counts_sources() {
        let mut cfg = test_config(6);
        cfg.source_count = SourceCount::Mdl;
        let snaps = synth_snapshots(&cfg, &[45.0, 110.0], 256, 0.05);
        let r = correlation_matrix(&snaps).unwrap();
        let eig = hermitian_eigen(&r).unwrap();
        let m = estimate_sources_mdl(&eig.values, snaps.len());
        assert_eq!(m, 2, "eigenvalues {:?}", eig.values);
    }

    #[test]
    fn aic_at_least_mdl() {
        let lam = [10.0, 8.0, 0.1, 0.09, 0.11];
        let mdl = estimate_sources_mdl(&lam, 200);
        let aic = estimate_sources_aic(&lam, 200);
        assert!(aic >= mdl);
        assert_eq!(mdl, 2);
    }

    #[test]
    fn round_trip_doubles_phase_sensitivity() {
        let one_way = MusicConfig {
            round_trip: false,
            ..test_config(4)
        };
        let two_way = MusicConfig {
            round_trip: true,
            ..test_config(4)
        };
        let sv1 = steering_vector(&one_way, 40.0);
        let sv2 = steering_vector(&two_way, 40.0);
        let d1 = (sv1[1] / sv1[0]).arg();
        let d2 = (sv2[1] / sv2[0]).arg();
        // Phase advance doubles (mod 2π).
        let wrapped = crate::phase::wrap(2.0 * d1);
        assert!((crate::phase::wrap(d2 - wrapped)).abs() < 1e-9);
    }

    #[test]
    fn smoothing_resolves_coherent_paths() {
        // Two fully coherent paths (identical per-snapshot phase): plain
        // MUSIC fails (rank-1 R), FB + smoothing recovers both.
        let base = MusicConfig {
            n_antennas: 6,
            spacing_wavelengths: 0.25,
            round_trip: false,
            n_angles: 360,
            forward_backward: true,
            smoothing_subarray: Some(4),
            source_count: SourceCount::Fixed(2),
            diagonal_loading: 1e-9,
        };
        let angles = [60.0, 115.0];
        let mut state = 7u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let snaps: Vec<Vec<Complex>> = (0..128)
            .map(|_| {
                let common = Complex::cis(next() * std::f64::consts::PI);
                (0..base.n_antennas)
                    .map(|k| {
                        let mut z = Complex::ZERO;
                        for &ang in &angles {
                            let sv = steering_vector(&base, ang);
                            // same `common` factor → coherent
                            z += sv[k] * common;
                        }
                        z + Complex::new(0.01 * next(), 0.01 * next())
                    })
                    .collect()
            })
            .collect();
        let spec = pseudospectrum(&snaps, &base).unwrap();
        let peaks = spec.peaks(2, 10.0);
        assert_eq!(peaks.len(), 2, "peaks {peaks:?}");
        let mut got: Vec<f64> = peaks.iter().map(|p| p.0).collect();
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((got[0] - 60.0).abs() < 6.0, "got {got:?}");
        assert!((got[1] - 115.0).abs() < 6.0, "got {got:?}");
    }

    #[test]
    fn normalized_peaks_at_one() {
        let cfg = test_config(4);
        let snaps = synth_snapshots(&cfg, &[75.0], 32, 0.01);
        let spec = pseudospectrum(&snaps, &cfg).unwrap().normalized();
        let max = spec.power.iter().cloned().fold(f64::MIN, f64::max);
        assert!((max - 1.0).abs() < 1e-12);
        assert!(spec.power.iter().all(|&p| (0.0..=1.0 + 1e-12).contains(&p)));
    }

    #[test]
    fn config_validation() {
        let mut cfg = MusicConfig::paper_default();
        assert!(cfg.validate().is_ok());
        cfg.n_antennas = 1;
        assert!(cfg.validate().is_err());
        let mut cfg2 = MusicConfig::paper_default();
        cfg2.smoothing_subarray = Some(9);
        assert!(cfg2.validate().is_err());
        let mut cfg3 = MusicConfig::paper_default();
        cfg3.spacing_wavelengths = 0.0;
        assert!(cfg3.validate().is_err());
    }

    #[test]
    fn correlation_matrix_errors() {
        assert_eq!(correlation_matrix(&[]), Err(DspError::EmptyInput));
        let bad = vec![vec![Complex::ONE; 3], vec![Complex::ONE; 2]];
        assert!(correlation_matrix(&bad).is_err());
    }

    #[test]
    fn correlation_matrix_is_hermitian_psd() {
        let cfg = test_config(4);
        let snaps = synth_snapshots(&cfg, &[80.0], 16, 0.5);
        let r = correlation_matrix(&snaps).unwrap();
        assert!(r.is_hermitian(1e-10));
        let eig = hermitian_eigen(&r).unwrap();
        assert!(eig.values.iter().all(|&l| l > -1e-9));
    }

    #[test]
    fn forward_backward_preserves_hermitian() {
        let cfg = test_config(5);
        let snaps = synth_snapshots(&cfg, &[30.0, 140.0], 32, 0.1);
        let r = correlation_matrix(&snaps).unwrap();
        let fb = forward_backward_average(&r);
        assert!(fb.is_hermitian(1e-10));
        // Trace preserved.
        assert!((fb.trace().unwrap().re - r.trace().unwrap().re).abs() < 1e-9);
    }

    #[test]
    fn steering_table_matches_direct_computation_bitwise() {
        for cfg in [
            MusicConfig::paper_default(),
            test_config(3),
            MusicConfig {
                n_antennas: 2,
                spacing_wavelengths: 0.5,
                round_trip: true,
                n_angles: 91,
                ..MusicConfig::paper_default()
            },
        ] {
            let table = SteeringTable::for_config(&cfg);
            assert_eq!(table.len(), cfg.n_angles);
            assert!(!table.is_empty());
            for g in 0..cfg.n_angles {
                let theta = 180.0 * g as f64 / cfg.n_angles as f64;
                let direct = steering_vector(&cfg, theta);
                let cached = table.vector(g);
                assert_eq!(cached.len(), direct.len());
                for (c, d) in cached.iter().zip(&direct) {
                    assert_eq!(c.re.to_bits(), d.re.to_bits());
                    assert_eq!(c.im.to_bits(), d.im.to_bits());
                }
            }
        }
    }

    #[test]
    fn steering_table_is_shared_per_geometry() {
        let cfg = test_config(5);
        let a = SteeringTable::for_config(&cfg);
        let b = SteeringTable::for_config(&cfg);
        assert!(
            Arc::ptr_eq(&a.vectors, &b.vectors),
            "same geometry must share"
        );
        let mut other = cfg.clone();
        other.spacing_wavelengths = 0.3;
        let c = SteeringTable::for_config(&other);
        assert!(!Arc::ptr_eq(&a.vectors, &c.vectors));
    }

    #[test]
    fn peaks_respect_separation() {
        let spec = MusicSpectrum {
            angles_deg: (0..10).map(|i| i as f64).collect(),
            power: vec![0.0, 5.0, 0.0, 4.9, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0],
            source_count: 2,
        };
        let peaks = spec.peaks(3, 3.0);
        // 5.0 at angle 1 wins; 4.9 at angle 3 suppressed (within 3°); 3.0 kept.
        assert_eq!(peaks.len(), 2);
        assert_eq!(peaks[0].0, 1.0);
        assert_eq!(peaks[1].0, 7.0);
    }
}
