//! Streaming incremental feature extraction for the raw-ingest serve
//! path.
//!
//! [`crate::frames::FrameBuilder`] rebuilds every window from that
//! window's reads: it regroups rounds, recomputes the smoothed
//! covariance, and runs the exact `f64` pseudospectrum scan, even where
//! overlapping windows share rounds. A [`StreamExtractor`] instead
//! maintains per-tag state *across* windows:
//!
//! * readings are folded into per-round antenna slots once, at ingest
//!   ([`StreamExtractor::ingest`]) — no per-window rescans;
//! * the spatially smoothed covariance is maintained by rank-1
//!   add/retire updates ([`m2ai_dsp::stream::SlidingCovariance`]) as
//!   rounds enter and leave the window, preserving the
//!   forward–backward form (FB is applied downstream, to the streamed
//!   correlation, by the same prefix the batch path uses);
//! * per-antenna periodogram power is accumulated incrementally
//!   alongside (`Σ|x|²` per antenna over folded rounds);
//! * the 180-bin grid scan runs GEMM-lowered on `m2ai-kernels`
//!   ([`m2ai_dsp::music::pseudospectrum_from_correlation_gemm`]);
//! * tags fan out over `m2ai-par` under the builder's existing thread
//!   budget, with all mutation done serially *before* the fan-out so
//!   the parallel stage is read-only.
//!
//! ## Equivalence contract (property-tested)
//!
//! Incremental windows agree with the batch `FrameBuilder` within a
//! documented tolerance band: the `f64` covariance accumulator drifts
//! by rounding that add/retire does not cancel, and the `f32` GEMM scan
//! rounds the steering/noise operands. Every `refresh_every`-th window
//! (and always window 0) is a **refresh point**: the live rounds are
//! re-folded from scratch and features are computed by the *batch* code
//! path on the materialised snapshots — bitwise identical to
//! `FrameBuilder` on the same snapshot set, and zeroing accumulated
//! drift. `refresh_every = 1` therefore makes every window bitwise.
//!
//! ## Alignment contract
//!
//! Round membership is decided by round *index* `⌊t/round_duration⌋`,
//! so the frame duration must be an (approximate) integer multiple of
//! the round duration and window starts must land on round boundaries
//! (true for the paper timing: rounds of `n_antennas × 25 ms`, frames
//! of 0.4–0.5 s). [`StreamExtractor::try_new`] refuses misaligned
//! configurations, and callers fall back to the batch builder.
//! Readings within a float ulp of a window boundary can land on the
//! other side of the batch path's `[t0, t0 + frame)` time filter than
//! their round index suggests; the sync pass re-applies that exact
//! filter to the edge rounds' candidate slots, so membership matches
//! the batch builder bit for bit. Window starts passed to
//! [`StreamExtractor::extract`] must be non-decreasing (rounds behind
//! the newest window are retired and late readings for them dropped).

use crate::calibration::PhaseCalibrator;
use crate::frames::{
    periodogram_feature, spectrum_feature_into, FeatureMode, FrameBuilder, FrameQuality,
};
use m2ai_dsp::music::{pseudospectrum, pseudospectrum_power_gemm_into, MusicConfig};
use m2ai_dsp::stream::SlidingCovariance;
use m2ai_dsp::{CMatrix, Complex};
use m2ai_par::parallel_map;
use m2ai_rfsim::reading::TagReading;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Incremental covariance snapshot updates (`op = add | retire`).
static UPDATES: m2ai_obs::CounterFamily = m2ai_obs::CounterFamily::new(
    "m2ai_extract_stream_updates_total",
    "incremental sliding-window covariance snapshot updates by operation",
    "op",
);

/// Exact-recompute refresh windows.
fn refreshes() -> m2ai_obs::Counter {
    static C: OnceLock<m2ai_obs::Counter> = OnceLock::new();
    C.get_or_init(|| {
        m2ai_obs::counter(
            "m2ai_extract_stream_refreshes_total",
            "exact-recompute refresh windows of the streaming extractor",
            &[],
        )
    })
    .clone()
}

/// Per-thread reusable buffers for the incremental scan: the streamed
/// correlation matrix and the linear-power spectrum. Thread-local
/// because phase 2 of [`StreamExtractor::extract`] may run tags on a
/// thread pool.
struct ScanBuffers {
    r: CMatrix,
    power: Vec<f64>,
    compressed: Vec<f32>,
}

thread_local! {
    static SCAN_BUFFERS: std::cell::RefCell<ScanBuffers> =
        std::cell::RefCell::new(ScanBuffers {
            r: CMatrix::zeros(0, 0),
            power: Vec::new(),
            compressed: Vec::new(),
        });
}

/// `log10` for arguments in `(0, ∞)` via exponent split plus an
/// `atanh`-form series on the mantissa, absolute error below `1e-8` —
/// much cheaper than libm's correctly-rounded `log10`, and written
/// branch-free (bit twiddling, a comparison-mask select, one division,
/// a short Horner chain) so the compiler can auto-vectorise the
/// per-bin compression loop it sits in.
///
/// Only the *incremental* spectrum path uses this: its outputs carry a
/// documented ±1e-3 equivalence band versus the batch features, and an
/// `O(1e-8)` log error perturbs the final feature by `O(1e-9)` — noise
/// next to the covariance add/retire drift the band already absorbs.
/// Refresh windows and the batch builder keep libm `log10` bit-exactly.
#[inline(always)]
fn fast_log10(x: f64) -> f64 {
    let bits = x.to_bits();
    let e_raw = (((bits >> 52) & 0x7ff) as i64 - 1023) as f64;
    let m_raw = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52));
    // Branchless range reduction to m ∈ [√2/2, √2): halve (exactly) and
    // bump the exponent when the mantissa lands above √2.
    let over = f64::from(u8::from(m_raw > std::f64::consts::SQRT_2));
    let m = m_raw * (1.0 - 0.5 * over);
    let e = e_raw + over;
    // ln(m) = 2·atanh(t), t = (m−1)/(m+1); |t| ≤ 0.172 so the series
    // truncated at t⁹ is exact to ~2e-9.
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let p = 1.0 + t2 * (1.0 / 3.0 + t2 * (1.0 / 5.0 + t2 * (1.0 / 7.0 + t2 * (1.0 / 9.0))));
    let ln_m = 2.0 * t * p;
    (e * std::f64::consts::LN_2 + ln_m) * std::f64::consts::LOG10_E
}

/// Band-tolerant sibling of [`spectrum_feature_into`]: identical
/// normalise → log-compress → smooth pipeline, but with [`fast_log10`]
/// in the compression and a reused scratch buffer. Incremental windows
/// only; refresh windows go through the exact version.
fn spectrum_feature_into_approx(power: &[f64], compressed: &mut Vec<f32>, out: &mut [f32]) {
    let max = power.iter().cloned().fold(f64::MIN, f64::max);
    let scale = if max > 0.0 { 1.0 / max } else { 0.0 };
    compressed.clear();
    compressed.resize(power.len(), 0.0);
    for (c, &p) in compressed.iter_mut().zip(power) {
        *c = ((fast_log10((p * scale).max(1e-3)) / 3.0) + 1.0) as f32;
    }
    crate::frames::smooth_spectrum_into(compressed, out);
}

/// Wall time of one GEMM-lowered pseudospectrum scan.
fn scan_seconds() -> m2ai_obs::Histogram {
    static H: OnceLock<m2ai_obs::Histogram> = OnceLock::new();
    H.get_or_init(|| {
        m2ai_obs::histogram(
            "m2ai_extract_stream_scan_seconds",
            "GEMM-lowered pseudospectrum scan wall time",
            &[],
            &m2ai_obs::latency_buckets(),
        )
    })
    .clone()
}

/// Configuration of the streaming extraction path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingExtract {
    /// Exact-recompute cadence: every `refresh_every`-th window (and
    /// always the first) is rebuilt from scratch through the batch code
    /// path, bounding incremental drift. `1` (or `0`, treated as `1`)
    /// makes every window exact.
    pub refresh_every: u32,
}

impl Default for StreamingExtract {
    fn default() -> Self {
        StreamingExtract { refresh_every: 8 }
    }
}

/// Per-round ingest state for one tag: the candidate readings per
/// antenna slot, plus what (if anything) is currently folded into the
/// accumulators.
#[derive(Debug, Clone)]
struct RoundState {
    /// Candidates per antenna, sorted ascending by `(time_s, channel)`:
    /// `(time_s, channel, calibrated snapshot value)`. The batch path
    /// filters readings to `[t0, t0 + frame)` *before* last-wins slot
    /// overwriting, so which candidate wins depends on the window — a
    /// reading within a float ulp of the window end can be excluded even
    /// though its round index is inside the window. Keeping every
    /// distinct `(time, channel)` candidate (duplicates drop, keep
    /// first) lets [`RoundState::winners`] reproduce the batch choice
    /// exactly for any window. Slots hold one entry outside fault
    /// injection, so the lists stay tiny.
    slots: Vec<Vec<(f64, usize, Complex)>>,
    /// The snapshot currently folded into the accumulators, if any.
    folded: Option<Vec<Complex>>,
    /// Set when a slot changed since the last fold sync.
    dirty: bool,
}

impl RoundState {
    fn new(n_antennas: usize) -> Self {
        RoundState {
            slots: vec![Vec::new(); n_antennas],
            folded: None,
            dirty: true,
        }
    }

    /// The round's array snapshot under the window's time filter: per
    /// antenna, the last candidate with `time_s < t1` (the maximal
    /// `(time, channel)` key the batch overwrite loop would keep), or
    /// `None` if any antenna has no such candidate — the batch path's
    /// completeness rule. Candidates below the window start are pruned
    /// by the sync pass before this runs.
    fn winners(&self, t1: f64) -> Option<Vec<Complex>> {
        self.slots
            .iter()
            .map(|s| s.iter().rev().find(|e| e.0 < t1).map(|e| e.2))
            .collect()
    }

    /// Whether some candidate sits at or past the window end `t1` — its
    /// exclusion is temporary (the next window's `t1` is larger), so the
    /// fold must be recomputed next sync.
    fn right_excluded(&self, t1: f64) -> bool {
        self.slots
            .iter()
            .any(|s| s.last().is_some_and(|e| e.0 >= t1))
    }
}

/// All streaming state for one tag.
#[derive(Debug, Clone)]
struct TagState {
    rounds: BTreeMap<i64, RoundState>,
    cov: SlidingCovariance,
    /// `Σ|x_a|²` over folded rounds, per antenna.
    power: Vec<f64>,
    folded_rounds: usize,
}

/// Streaming per-tag feature extraction state over a sliding window.
///
/// Construction ([`StreamExtractor::try_new`]) clones the builder, so
/// the extractor is self-contained; `Clone` carries it through session
/// checkpoints.
#[derive(Debug, Clone)]
pub struct StreamExtractor {
    builder: FrameBuilder,
    music_cfg: MusicConfig,
    cfg: StreamingExtract,
    rounds_per_frame: i64,
    tags: Vec<TagState>,
    windows_emitted: u64,
    /// Rounds below this index were retired; late readings for them are
    /// dropped (the window has moved past).
    floor_round: i64,
}

impl StreamExtractor {
    /// Builds streaming state for `builder`'s geometry, or `None` when
    /// the configuration cannot be streamed — unsupported feature mode
    /// (`PhaseOnly` / `RssiOnly` have no covariance/power form) or a
    /// frame duration that is not an integer multiple of the round
    /// duration. Callers fall back to the batch builder on `None`.
    pub fn try_new(builder: &FrameBuilder, cfg: StreamingExtract) -> Option<Self> {
        let lay = builder.layout;
        if !matches!(
            lay.mode,
            FeatureMode::Joint | FeatureMode::MusicOnly | FeatureMode::PeriodogramOnly
        ) {
            return None;
        }
        let rd = builder.round_duration_s;
        if !rd.is_finite() || rd <= 0.0 || !builder.frame_duration_s.is_finite() {
            return None;
        }
        let rpf = (builder.frame_duration_s / rd).round();
        if rpf < 1.0 || (builder.frame_duration_s - rpf * rd).abs() > 1e-9 * rd.max(1.0) {
            return None;
        }
        let music_cfg = builder.music_config();
        let cov = SlidingCovariance::new(lay.n_antennas, music_cfg.smoothing_subarray).ok()?;
        let tags = (0..lay.n_tags)
            .map(|_| TagState {
                rounds: BTreeMap::new(),
                cov: cov.clone(),
                power: vec![0.0; lay.n_antennas],
                folded_rounds: 0,
            })
            .collect();
        Some(StreamExtractor {
            builder: builder.clone(),
            music_cfg,
            cfg: StreamingExtract {
                refresh_every: cfg.refresh_every.max(1),
            },
            rounds_per_frame: rpf as i64,
            tags,
            windows_emitted: 0,
            floor_round: i64::MIN,
        })
    }

    /// The calibrator in use (shared with the owning builder's clone).
    pub fn calibrator(&self) -> &PhaseCalibrator {
        &self.builder.calibrator
    }

    /// Number of windows emitted so far.
    pub fn windows_emitted(&self) -> u64 {
        self.windows_emitted
    }

    /// Whether the next [`Self::extract`] call will be a refresh
    /// (exact-recompute) window.
    pub fn next_is_refresh(&self) -> bool {
        self.windows_emitted
            .is_multiple_of(self.cfg.refresh_every as u64)
    }

    /// Folds one reading into its round slot — O(1), no window scan.
    ///
    /// Applies the same filters as the batch snapshot gatherer:
    /// non-finite time/phase/RSSI and out-of-range antennas or tags are
    /// dropped. Readings for already-retired rounds are dropped too.
    pub fn ingest(&mut self, r: &TagReading) {
        let lay = self.builder.layout;
        if !r.time_s.is_finite() || !r.phase_rad.is_finite() || !r.rssi_dbm.is_finite() {
            return;
        }
        if r.antenna >= lay.n_antennas || r.tag.0 >= lay.n_tags {
            return;
        }
        let round = (r.time_s / self.builder.round_duration_s).floor() as i64;
        if round < self.floor_round {
            return;
        }
        let phase = self.builder.calibrator.calibrate(r);
        let amp = 10f64.powf(r.rssi_dbm / 20.0);
        let z = Complex::from_polar(amp, 2.0 * phase);
        let n_ant = lay.n_antennas;
        let state = &mut self.tags[r.tag.0];
        let rs = state
            .rounds
            .entry(round)
            .or_insert_with(|| RoundState::new(n_ant));
        let slot = &mut rs.slots[r.antenna];
        // Sorted insert by (time, channel); on an equal key the
        // incumbent stays, matching the session buffer's duplicate-drop
        // (keep-first) semantics. Timestamps are finite here, so the
        // partial order is total.
        match slot.binary_search_by(|e| {
            (e.0, e.1)
                .partial_cmp(&(r.time_s, r.channel))
                .expect("finite times order totally")
        }) {
            Ok(_) => {}
            Err(pos) => {
                slot.insert(pos, (r.time_s, r.channel, z));
                rs.dirty = true;
            }
        }
    }

    /// Emits the frame for the window `[t0, t0 + frame_duration)`.
    ///
    /// Phase 1 (serial): retire rounds that slid out, re-fold dirty
    /// rounds inside the window. Phase 2 (parallel over tags,
    /// read-only): eigendecomposition + GEMM grid scan — or, on refresh
    /// windows, the exact batch feature path over materialised
    /// snapshots.
    pub fn extract(&mut self, t0: f64) -> (Vec<f32>, FrameQuality) {
        // Same stage family as the batch builder, so streaming windows
        // show up next to calibration/music/periodogram in dashboards.
        let _span = crate::frames::stage_seconds(crate::frames::Stage::StreamWindow).time();
        // Child of the pushing frame's trace (ambient; no-op when
        // unsampled) — separates the incremental scan from the rest of
        // the window close in a span tree.
        let _trace_span = m2ai_obs::trace::span("stream_extract");
        let rd = self.builder.round_duration_s;
        let k0 = (t0 / rd).round() as i64;
        let k1 = k0 + self.rounds_per_frame;
        // The same float sum the batch snapshot gatherer computes, so
        // the edge-of-window time filter compares identically.
        let t1 = t0 + self.builder.frame_duration_s;
        let refresh = self.next_is_refresh();
        self.windows_emitted += 1;

        let (mut adds, mut retires) = (0u64, 0u64);
        for state in &mut self.tags {
            sync_tag(state, k0, k1, t0, t1, refresh, &mut adds, &mut retires);
        }
        self.floor_round = self.floor_round.max(k0);
        if adds > 0 {
            UPDATES.with("add").add(adds);
        }
        if retires > 0 {
            UPDATES.with("retire").add(retires);
        }
        if refresh {
            refreshes().inc();
        }

        let tags = &self.tags;
        let builder = &self.builder;
        let music_cfg = &self.music_cfg;
        let lay = builder.layout;
        let parts = parallel_map(lay.n_tags, builder.parallelism, |tag| {
            let state = &tags[tag];
            if refresh {
                exact_tag_features(state, builder, music_cfg, k0, k1)
            } else {
                incremental_tag_features(state, builder, music_cfg)
            }
        });

        // Frame assembly — identical to the batch builder's.
        let mut frame = Vec::with_capacity(lay.frame_dim());
        for (spec_part, _, _) in &parts {
            frame.extend_from_slice(spec_part);
        }
        for (_, direct_part, _) in &parts {
            frame.extend_from_slice(direct_part);
        }
        for v in &mut frame {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
        let expected_rounds = (builder.frame_duration_s / builder.round_duration_s)
            .round()
            .max(1.0);
        let tag_coverage = parts
            .iter()
            .map(|(_, _, n_snaps)| ((*n_snaps as f64 / expected_rounds) as f32).clamp(0.0, 1.0))
            .collect();
        (frame, FrameQuality { tag_coverage })
    }
}

/// Phase-1 accumulator sync for one tag (serial; the only place that
/// mutates covariance/power state).
///
/// `t0`/`t1` are the window's exact time bounds (`t1 = t0 + frame`, the
/// same float sum the batch gatherer computes): candidates at the very
/// edge of the window can fall on the other side of the time filter
/// than their round index suggests, and the fold must follow the filter
/// to stay bit-compatible with the batch path.
#[allow(clippy::too_many_arguments)]
fn sync_tag(
    state: &mut TagState,
    k0: i64,
    k1: i64,
    t0: f64,
    t1: f64,
    refresh: bool,
    adds: &mut u64,
    retires: &mut u64,
) {
    let TagState {
        rounds,
        cov,
        power,
        folded_rounds,
    } = state;
    // Rounds that slid out of the window: retire and drop.
    while let Some((&idx, _)) = rounds.iter().next() {
        if idx >= k0 {
            break;
        }
        let rs = rounds.remove(&idx).expect("first key exists");
        if let Some(snap) = rs.folded {
            unfold(cov, power, folded_rounds, &snap);
            *retires += 1;
        }
    }
    // Left edge: candidates of round `k0` below the window start are
    // gone for good (starts are non-decreasing) — prune them, and refold
    // if one of them was folded in.
    if let Some(rs) = rounds.get_mut(&k0) {
        for slot in &mut rs.slots {
            let cut = slot.partition_point(|e| e.0 < t0);
            if cut > 0 {
                slot.drain(..cut);
                rs.dirty = true;
            }
        }
    }
    if refresh {
        // Exact rebuild: zero the accumulators and re-fold every
        // complete round in the window from its slots — resets drift.
        cov.clear();
        power.iter_mut().for_each(|p| *p = 0.0);
        *folded_rounds = 0;
        for (_, rs) in rounds.range_mut(k0..k1) {
            rs.folded = rs.winners(t1);
            if let Some(snap) = &rs.folded {
                fold(cov, power, folded_rounds, snap);
            }
            // A candidate past `t1` enters the filter next window, so
            // the fold must be redone then.
            rs.dirty = rs.right_excluded(t1);
        }
    } else {
        for (_, rs) in rounds.range_mut(k0..k1) {
            if !rs.dirty {
                continue;
            }
            if let Some(old) = rs.folded.take() {
                unfold(cov, power, folded_rounds, &old);
                *retires += 1;
            }
            rs.folded = rs.winners(t1);
            if let Some(snap) = &rs.folded {
                fold(cov, power, folded_rounds, snap);
                *adds += 1;
            }
            rs.dirty = rs.right_excluded(t1);
        }
    }
}

fn fold(
    cov: &mut SlidingCovariance,
    power: &mut [f64],
    folded_rounds: &mut usize,
    snap: &[Complex],
) {
    cov.add(snap).expect("snapshot length fixed by layout");
    for (p, z) in power.iter_mut().zip(snap) {
        *p += z.norm_sqr();
    }
    *folded_rounds += 1;
}

fn unfold(
    cov: &mut SlidingCovariance,
    power: &mut [f64],
    folded_rounds: &mut usize,
    snap: &[Complex],
) {
    cov.retire(snap).expect("retire of a folded snapshot");
    for (p, z) in power.iter_mut().zip(snap) {
        *p -= z.norm_sqr();
    }
    *folded_rounds -= 1;
}

/// Incremental (non-refresh) per-tag features: streamed correlation →
/// GEMM-lowered scan; periodogram from the running power sums.
fn incremental_tag_features(
    state: &TagState,
    builder: &FrameBuilder,
    music_cfg: &MusicConfig,
) -> (Vec<f32>, Vec<f32>, usize) {
    let lay = builder.layout;
    let has_spectrum = matches!(lay.mode, FeatureMode::Joint | FeatureMode::MusicOnly);
    let mut spec_part = vec![0.0f32; if has_spectrum { lay.n_angles } else { 0 }];
    let direct_per_tag = lay.direct_dim() / lay.n_tags.max(1);
    let mut direct_part = vec![0.0f32; direct_per_tag];
    let n_snaps = state.folded_rounds;

    if has_spectrum && n_snaps >= 2 {
        // Correlation and power buffers are reused across windows
        // (thread-local: phase 2 may fan out over a thread pool) — the
        // scan itself draws its GEMM operands from the kernel scratch,
        // so the whole incremental path is allocation-free in steady
        // state.
        SCAN_BUFFERS.with(|bufs| {
            let bufs = &mut *bufs.borrow_mut();
            if state.cov.correlation_into(&mut bufs.r).is_ok() {
                let ok = m2ai_kernels::with_thread_scratch(|scratch| {
                    let _span = scan_seconds().time();
                    pseudospectrum_power_gemm_into(
                        &bufs.r,
                        n_snaps,
                        music_cfg,
                        scratch,
                        &mut bufs.power,
                    )
                });
                if ok.is_ok() {
                    spectrum_feature_into_approx(&bufs.power, &mut bufs.compressed, &mut spec_part);
                }
            }
        });
    }
    if matches!(lay.mode, FeatureMode::Joint | FeatureMode::PeriodogramOnly) && n_snaps > 0 {
        for (d, &sum) in direct_part.iter_mut().zip(&state.power) {
            // Mean power over folded rounds: the running Σ|x|² divided
            // by the count — `mean_power` of the batch series, modulo
            // add/retire rounding (inside the equivalence band).
            *d = periodogram_feature(sum / n_snaps as f64);
        }
    }
    (spec_part, direct_part, n_snaps)
}

/// Refresh-window per-tag features: materialise the window's complete
/// snapshots (ascending round order, like the batch gatherer) and run
/// the exact batch feature arithmetic on them — bitwise identical to
/// `FrameBuilder`'s per-tag features on the same snapshot set.
fn exact_tag_features(
    state: &TagState,
    builder: &FrameBuilder,
    music_cfg: &MusicConfig,
    k0: i64,
    k1: i64,
) -> (Vec<f32>, Vec<f32>, usize) {
    let lay = builder.layout;
    let has_spectrum = matches!(lay.mode, FeatureMode::Joint | FeatureMode::MusicOnly);
    let mut spec_part = vec![0.0f32; if has_spectrum { lay.n_angles } else { 0 }];
    let direct_per_tag = lay.direct_dim() / lay.n_tags.max(1);
    let mut direct_part = vec![0.0f32; direct_per_tag];

    // After a refresh sync, `folded` is exactly the complete snapshot
    // of every round in the window.
    let snaps: Vec<Vec<Complex>> = state
        .rounds
        .range(k0..k1)
        .filter_map(|(_, rs)| rs.folded.clone())
        .collect();
    if has_spectrum && snaps.len() >= 2 {
        if let Ok(spec) = pseudospectrum(&snaps, music_cfg) {
            spectrum_feature_into(&spec.power, &mut Vec::new(), &mut spec_part);
        }
    }
    if matches!(lay.mode, FeatureMode::Joint | FeatureMode::PeriodogramOnly) {
        for a in 0..lay.n_antennas {
            let series: Vec<Complex> = snaps.iter().map(|s| s[a]).collect();
            if series.is_empty() {
                continue;
            }
            let p = m2ai_dsp::periodogram::mean_power(&series);
            direct_part[a] = periodogram_feature(p);
        }
    }
    let n_snaps = snaps.len();
    (spec_part, direct_part, n_snaps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::FrameLayout;
    use m2ai_rfsim::geometry::Point2;
    use m2ai_rfsim::reader::{Reader, ReaderConfig};
    use m2ai_rfsim::room::Room;
    use m2ai_rfsim::scene::SceneSnapshot;

    fn readings(n_tags: usize, seconds: f64) -> Vec<TagReading> {
        let cfg = ReaderConfig {
            hopping_offsets: false,
            phase_noise_std: 0.01,
            rssi_noise_db: 0.1,
            pi_ambiguity: true,
            ..ReaderConfig::default()
        };
        let mut reader = Reader::new(Room::rectangular("anechoic", 10.0, 8.0, 60.0), cfg, n_tags);
        let tags: Vec<Point2> = (0..n_tags)
            .map(|i| Point2::new(3.0 + i as f64 * 0.8, 3.0 + (i % 3) as f64 * 0.7))
            .collect();
        let scene = SceneSnapshot::with_tags(tags);
        reader.run(|_| scene.clone(), seconds)
    }

    fn builder(n_tags: usize, mode: FeatureMode, frame_s: f64) -> FrameBuilder {
        let layout = FrameLayout::new(n_tags, 4, mode);
        FrameBuilder::new(layout, PhaseCalibrator::disabled(n_tags, 4), frame_s)
    }

    fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    #[test]
    fn unsupported_configurations_refuse_streaming() {
        for mode in [FeatureMode::PhaseOnly, FeatureMode::RssiOnly] {
            let fb = builder(2, mode, 0.4);
            assert!(StreamExtractor::try_new(&fb, StreamingExtract::default()).is_none());
        }
        // Frame not an integer multiple of the 0.1 s round.
        let fb = builder(2, FeatureMode::Joint, 0.45);
        assert!(StreamExtractor::try_new(&fb, StreamingExtract::default()).is_none());
        let fb = builder(2, FeatureMode::Joint, 0.4);
        assert!(StreamExtractor::try_new(&fb, StreamingExtract::default()).is_some());
    }

    #[test]
    fn refresh_every_window_is_bitwise_batch() {
        let all = readings(2, 2.0);
        for mode in [
            FeatureMode::Joint,
            FeatureMode::MusicOnly,
            FeatureMode::PeriodogramOnly,
        ] {
            let fb = builder(2, mode, 0.4);
            let mut ex =
                StreamExtractor::try_new(&fb, StreamingExtract { refresh_every: 1 }).unwrap();
            for r in &all {
                ex.ingest(r);
            }
            for w in 0..4 {
                let t0 = w as f64 * 0.4;
                let (stream_frame, stream_q) = ex.extract(t0);
                let (batch_frame, batch_q) = fb.build_frame_with_quality(&all, t0);
                assert_eq!(stream_frame, batch_frame, "{mode:?} window {w}");
                assert_eq!(stream_q, batch_q, "{mode:?} window {w}");
            }
        }
    }

    #[test]
    fn fast_log10_matches_libm_within_1e8() {
        // The compression input range after clamping is [1e-3, ~1], but
        // check well beyond it: any positive normal must be accurate.
        let mut worst = 0.0f64;
        let mut x = 1e-6;
        while x < 1e6 {
            worst = worst.max((fast_log10(x) - x.log10()).abs());
            x *= 1.000_37;
        }
        assert!(worst < 1e-8, "fast_log10 worst abs error {worst:e}");
    }

    #[test]
    fn incremental_windows_stay_in_band_on_overlapping_hops() {
        let all = readings(3, 2.0);
        let fb = builder(3, FeatureMode::Joint, 0.4);
        let mut ex = StreamExtractor::try_new(&fb, StreamingExtract { refresh_every: 8 }).unwrap();
        for r in &all {
            ex.ingest(r);
        }
        // Hop of one round (0.1 s): heavy window overlap.
        let mut worst = 0.0f32;
        for w in 0..16 {
            let t0 = w as f64 * 0.1;
            let was_refresh = ex.next_is_refresh();
            let (stream_frame, _) = ex.extract(t0);
            let (batch_frame, _) = fb.build_frame_with_quality(&all, t0);
            let d = max_abs_diff(&stream_frame, &batch_frame);
            if was_refresh {
                assert_eq!(
                    stream_frame, batch_frame,
                    "refresh window {w} must be exact"
                );
            } else {
                worst = worst.max(d);
            }
        }
        assert!(worst < 1e-3, "incremental drift {worst} out of band");
    }

    #[test]
    fn ingest_after_extract_updates_later_windows() {
        let all = readings(1, 1.5);
        let fb = builder(1, FeatureMode::Joint, 0.5);
        let mut ex = StreamExtractor::try_new(&fb, StreamingExtract { refresh_every: 1 }).unwrap();
        // Feed only the first window's readings, extract, then feed the
        // rest — the arrival-order pattern of the serve path.
        let (early, late): (Vec<_>, Vec<_>) = all.iter().partition(|r| r.time_s < 0.5);
        for r in &early {
            ex.ingest(r);
        }
        let (f0, _) = ex.extract(0.0);
        assert_eq!(f0, fb.build_frame(&all, 0.0), "window 0");
        for r in &late {
            ex.ingest(r);
        }
        let (f1, _) = ex.extract(0.5);
        assert_eq!(f1, fb.build_frame(&all, 0.5), "window 1");
        assert_eq!(ex.windows_emitted(), 2);
    }

    #[test]
    fn faulty_readings_are_filtered_like_batch() {
        let mut all = readings(2, 1.0);
        for (i, r) in all.iter_mut().enumerate() {
            match i % 5 {
                0 => r.phase_rad = f64::NAN,
                1 => r.rssi_dbm = f64::INFINITY,
                2 => r.antenna = 17,
                _ => {}
            }
        }
        let fb = builder(2, FeatureMode::Joint, 0.5);
        let mut ex = StreamExtractor::try_new(&fb, StreamingExtract { refresh_every: 1 }).unwrap();
        for r in &all {
            ex.ingest(r);
        }
        let (frame, q) = ex.extract(0.0);
        let (batch, bq) = fb.build_frame_with_quality(&all, 0.0);
        assert_eq!(frame, batch);
        assert_eq!(q, bq);
        assert!(frame.iter().all(|v| v.is_finite()));
    }
}
