//! Spectrum-frame construction (Section IV-A, Fig. 5).
//!
//! A *frame* summarises one time window of reads. The full M²AI input
//! concatenates, per window:
//!
//! * the **pseudospectrum frame** — per tag, a 180-bin MUSIC angle
//!   spectrum computed from per-round array snapshots;
//! * the **periodogram frame** — per tag, one power value per antenna.
//!
//! ## The π-ambiguity and phase doubling
//!
//! The R420 reports `φ` or `φ + π` per link. Doubling every calibrated
//! phase (`z = A·e^{i·2φ}`) erases the ambiguity (`e^{i2(φ+π)} =
//! e^{i2φ}`) at the cost of doubling the effective array spacing —
//! which is exactly why the paper spaces antennas at λ/8: after the
//! backscatter round trip (×2) and the ambiguity doubling (×2) the
//! effective spacing is λ/2, the classic unambiguous limit.
//!
//! Four degraded feature modes reproduce the Fig. 16 ablation.

use crate::calibration::PhaseCalibrator;
use crate::error::Error;
use m2ai_dsp::music::{pseudospectrum_power_into, MusicConfig, MusicScratch, SourceCount};
use m2ai_dsp::Complex;
use m2ai_par::parallel_map;
use m2ai_rfsim::reading::TagReading;
use std::ops::Range;
use std::sync::OnceLock;

/// Per-stage extraction latency histograms (calibration snapshot
/// gathering, MUSIC pseudospectrum, periodogram), registered lazily per
/// stage label.
static STAGE_SECONDS: m2ai_obs::HistogramFamily = m2ai_obs::HistogramFamily::new(
    "m2ai_extract_stage_seconds",
    "feature-extraction stage wall time",
    "stage",
    m2ai_obs::latency_buckets,
);

/// A stage label of `m2ai_extract_stage_seconds`.
#[derive(Debug, Clone, Copy)]
enum Stage {
    /// Snapshot assembly: bucketing, Eq. 1 calibration, phase doubling.
    Calibration,
    /// MUSIC pseudospectrum.
    Music,
    /// Per-antenna periodogram power.
    Periodogram,
}

/// The stage's histogram, resolved once per process: the family's own
/// lookup takes a lock and a linear search on every call.
fn stage_seconds(stage: Stage) -> &'static m2ai_obs::Histogram {
    static HANDLES: [OnceLock<m2ai_obs::Histogram>; 3] = [const { OnceLock::new() }; 3];
    let label = match stage {
        Stage::Calibration => "calibration",
        Stage::Music => "music",
        Stage::Periodogram => "periodogram",
    };
    HANDLES[stage as usize].get_or_init(|| STAGE_SECONDS.with(label))
}

/// Turns a raw (linear-power) MUSIC pseudospectrum into the frame's
/// spectrum features: peak-normalise, then log-compress into [0, 1]
/// (30 dB floor), then smooth over ±2° so the conv encoder sees stable,
/// slightly-translated structure instead of 1-bin spikes (MUSIC peaks
/// are needle-sharp).
///
/// Writes `min(power.len(), out.len())` values into `out`;
/// `compressed` is scratch.
fn spectrum_feature_into(power: &[f64], compressed: &mut Vec<f32>, out: &mut [f32]) {
    // MusicSpectrum::normalized, fused: scale so the max is 1.
    let max = power.iter().cloned().fold(f64::MIN, f64::max);
    let scale = if max > 0.0 { 1.0 / max } else { 0.0 };
    compressed.clear();
    compressed.extend(
        power
            .iter()
            .map(|&p| (((p * scale).max(1e-3).log10() / 3.0) + 1.0) as f32),
    );
    smooth_spectrum_into(compressed, out);
}

/// The ±2° circular smoothing of [`spectrum_feature_into`].
fn smooth_spectrum_into(compressed: &[f32], out: &mut [f32]) {
    let n = compressed.len();
    const K: [f32; 9] = [0.03, 0.06, 0.12, 0.18, 0.22, 0.18, 0.12, 0.06, 0.03];
    if n < 9 {
        for (i, sp) in out.iter_mut().take(n).enumerate() {
            let mut acc = 0.0;
            for (o, w) in K.iter().enumerate() {
                let idx = (i + o + n - 4) % n;
                acc += w * compressed[idx];
            }
            *sp = acc;
        }
        return;
    }
    // Interior bins never wrap: their taps are the contiguous slice
    // `compressed[i-4 ..= i+4]`, so index them directly — the modular
    // form costs an integer division per tap, which dominates the whole
    // feature compression. Accumulation order matches the modular loop
    // tap for tap, so the result is bit-identical.
    for (i, sp) in out.iter_mut().enumerate().take(n - 4).skip(4) {
        let win = &compressed[i - 4..i + 5];
        let mut acc = 0.0;
        for (w, &c) in K.iter().zip(win) {
            acc += w * c;
        }
        *sp = acc;
    }
    // The first and last four bins wrap around the circular grid.
    for i in (0..4).chain(n - 4..n) {
        let mut acc = 0.0;
        for (o, w) in K.iter().enumerate() {
            let idx = (i + o + n - 4) % n;
            acc += w * compressed[idx];
        }
        out[i] = acc;
    }
}

/// Maps a mean backscatter power to the frame's direct feature: an
/// absolute log scale anchored at −80 dB, clamped to [0, 1.5].
fn periodogram_feature(p: f64) -> f32 {
    let db = 10.0 * (p + 1e-12).log10();
    (((db + 80.0) / 60.0).clamp(0.0, 1.5)) as f32
}

/// Which preprocessing feeds the network (Fig. 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureMode {
    /// Pseudospectrum + periodogram (full M²AI).
    Joint,
    /// MUSIC pseudospectrum only.
    MusicOnly,
    /// Periodogram (FFT power) only.
    PeriodogramOnly,
    /// Raw calibrated per-antenna phases (cos/sin encoded).
    PhaseOnly,
    /// Raw per-antenna RSSI means.
    RssiOnly,
}

impl FeatureMode {
    /// Display label used in the Fig. 16 table.
    pub fn label(self) -> &'static str {
        match self {
            FeatureMode::Joint => "M2AI (joint)",
            FeatureMode::MusicOnly => "MUSIC-based",
            FeatureMode::PeriodogramOnly => "FFT-based",
            FeatureMode::PhaseOnly => "Phase-based",
            FeatureMode::RssiOnly => "RSSI-based",
        }
    }
}

/// Dimensions of one feature frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameLayout {
    /// Tags in the scene (`n` in the paper's `n × 180`).
    pub n_tags: usize,
    /// Antenna ports (`N`).
    pub n_antennas: usize,
    /// Angle bins of the pseudospectrum (paper: 180).
    pub n_angles: usize,
    /// Active feature mode.
    pub mode: FeatureMode,
}

impl FrameLayout {
    /// Layout for the paper's default configuration.
    pub fn new(n_tags: usize, n_antennas: usize, mode: FeatureMode) -> Self {
        FrameLayout {
            n_tags,
            n_antennas,
            n_angles: 180,
            mode,
        }
    }

    /// Length of the conv-branch (spectrum) part of a frame.
    pub fn spectrum_dim(&self) -> usize {
        match self.mode {
            FeatureMode::Joint | FeatureMode::MusicOnly => self.n_tags * self.n_angles,
            _ => 0,
        }
    }

    /// Length of the directly-merged part of a frame.
    pub fn direct_dim(&self) -> usize {
        match self.mode {
            FeatureMode::Joint | FeatureMode::PeriodogramOnly | FeatureMode::RssiOnly => {
                self.n_tags * self.n_antennas
            }
            FeatureMode::MusicOnly => 0,
            FeatureMode::PhaseOnly => self.n_tags * self.n_antennas * 2,
        }
    }

    /// Total frame length.
    pub fn frame_dim(&self) -> usize {
        self.spectrum_dim() + self.direct_dim()
    }
}

/// Per-tag input quality of one built frame.
///
/// Coverage measures how much of the window's expected snapshot supply
/// actually arrived for each tag — the per-tag *coverage mask* of the
/// degradation contract. `0.0` means the tag was invisible for the
/// whole window (its frame region is all zeros), `1.0` that every
/// antenna round produced a usable snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameQuality {
    /// Fraction of expected per-round snapshots observed, per tag, in
    /// `[0, 1]`.
    pub tag_coverage: Vec<f32>,
}

impl FrameQuality {
    /// Mean coverage over all tags.
    pub fn mean_coverage(&self) -> f32 {
        if self.tag_coverage.is_empty() {
            return 0.0;
        }
        self.tag_coverage.iter().sum::<f32>() / self.tag_coverage.len() as f32
    }

    /// Tags with zero coverage (completely unseen this window).
    pub fn missing_tags(&self) -> Vec<usize> {
        self.tag_coverage
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == 0.0)
            .map(|(i, _)| i)
            .collect()
    }
}

/// One calibrated read of a tag, placed in its antenna round.
#[derive(Debug, Clone, Copy)]
struct RoundRead {
    round: i64,
    antenna: usize,
    z: Complex,
}

/// A frame's reads sorted out by tag (see [`FrameBuilder::gather`]).
#[derive(Debug, Clone, Default)]
struct Gathered {
    /// Calibrated, phase-doubled reads per tag, in input order.
    by_tag: Vec<Vec<RoundRead>>,
    /// Complete array snapshots, tag after tag; entries past the last
    /// tag's range are stale spares kept for reuse.
    snaps: Vec<Vec<Complex>>,
    /// Each tag's range in `snaps`.
    tag_snaps: Vec<Range<usize>>,
    /// One round's antenna slots during snapshot assembly.
    row: Vec<Option<Complex>>,
    /// Per `(tag, antenna)` RSSI sum and count (`RssiOnly`).
    rssi: Vec<(f64, usize)>,
    /// Per `(tag, antenna)` calibrated phasor sum (`PhaseOnly`).
    phasors: Vec<Complex>,
}

/// Per-tag buffers of the MUSIC and periodogram stages.
#[derive(Debug, Clone, Default)]
struct TagScratch {
    music: MusicScratch,
    power: Vec<f64>,
    compressed: Vec<f32>,
    series: Vec<Complex>,
}

/// Reusable buffers of frame construction. The caller owns them (a
/// [`crate::online::SessionWindow`] keeps one per session), so the
/// steady state allocates only the frames it returns. The contents
/// never affect a result: a fresh scratch and a reused one build
/// bitwise-identical frames.
#[derive(Debug, Clone, Default)]
pub(crate) struct FrameScratch {
    gathered: Gathered,
    tag: TagScratch,
}

/// Builds feature frames from calibrated reader output.
#[derive(Debug, Clone)]
pub struct FrameBuilder {
    /// Frame geometry and mode.
    pub layout: FrameLayout,
    /// Calibration to apply to every phase.
    pub calibrator: PhaseCalibrator,
    /// Window length of one frame in seconds.
    pub frame_duration_s: f64,
    /// Duration of one antenna round (`n_antennas × 25 ms`).
    pub round_duration_s: f64,
    /// Physical antenna spacing in wavelengths (λ/8 ⇒ 0.125).
    pub spacing_wavelengths: f64,
    /// Worker threads for frame construction (0 = all cores, 1 =
    /// serial). Output is bit-identical for every setting: per-tag and
    /// per-frame work is index-pure.
    pub parallelism: usize,
}

impl FrameBuilder {
    /// Creates a builder with the paper's timing (25 ms slots).
    pub fn new(layout: FrameLayout, calibrator: PhaseCalibrator, frame_duration_s: f64) -> Self {
        FrameBuilder {
            layout,
            calibrator,
            frame_duration_s,
            round_duration_s: layout.n_antennas as f64 * 0.025,
            spacing_wavelengths: 0.125,
            parallelism: 1,
        }
    }

    /// Sets the worker-thread count (builder style). `0` = all cores.
    #[must_use]
    pub fn with_parallelism(mut self, n_threads: usize) -> Self {
        self.parallelism = n_threads;
        self
    }

    /// MUSIC configuration implied by the layout (see the module docs
    /// for why the spacing doubles).
    pub fn music_config(&self) -> MusicConfig {
        let n = self.layout.n_antennas;
        MusicConfig {
            n_antennas: n,
            // Phase doubling ⇒ effective spacing 2d; the dsp layer then
            // applies the round-trip ×2 itself.
            spacing_wavelengths: 2.0 * self.spacing_wavelengths,
            round_trip: true,
            n_angles: self.layout.n_angles,
            forward_backward: true,
            smoothing_subarray: if n >= 4 { Some(3) } else { None },
            source_count: SourceCount::Mdl,
            diagonal_loading: 1e-6,
        }
    }

    /// Sorts the reads of the window `[t0, t0+frame)` into `g` in one
    /// pass: per tag, every usable read calibrated and phase-doubled
    /// (one `calibrate`/`powf`/`from_polar` each), plus the direct sums
    /// of the `RssiOnly`/`PhaseOnly` modes; then each tag's per-round
    /// array snapshots.
    ///
    /// A round contributes a snapshot only if every antenna read the
    /// tag in that round; within a round the last read of an antenna
    /// (in input order) wins, and snapshots come in ascending round
    /// order.
    fn gather<'a>(
        &self,
        readings: impl Iterator<Item = &'a TagReading>,
        t0: f64,
        g: &mut Gathered,
    ) {
        let lay = self.layout;
        let (n_tags, n_ant) = (lay.n_tags, lay.n_antennas);
        let t1 = t0 + self.frame_duration_s;
        g.by_tag.resize_with(n_tags, Vec::new);
        g.by_tag.iter_mut().for_each(Vec::clear);
        g.rssi.clear();
        g.phasors.clear();
        match lay.mode {
            FeatureMode::RssiOnly => g.rssi.resize(n_tags * n_ant, (0.0, 0)),
            FeatureMode::PhaseOnly => g.phasors.resize(n_tags * n_ant, Complex::ZERO),
            _ => {}
        }
        for r in readings {
            let (tag, antenna) = (r.tag.0, r.antenna);
            if tag >= n_tags || antenna >= n_ant {
                continue;
            }
            // Corrupted reports (NaN/Inf phase or RSSI) carry no usable
            // signal: treat them as missed reads. (This window test and
            // the direct modes' `t0 <= t < t1` differ only for a NaN
            // `t0`; each keeps its own.)
            if !(r.time_s < t0 || r.time_s >= t1)
                && r.time_s.is_finite()
                && r.phase_rad.is_finite()
                && r.rssi_dbm.is_finite()
            {
                let phase = self.calibrator.calibrate(r);
                let amp = 10f64.powf(r.rssi_dbm / 20.0);
                g.by_tag[tag].push(RoundRead {
                    round: (r.time_s / self.round_duration_s).floor() as i64,
                    antenna,
                    z: Complex::from_polar(amp, 2.0 * phase),
                });
            }
            let in_window = r.time_s >= t0 && r.time_s < t1;
            let link = tag * n_ant + antenna;
            match lay.mode {
                FeatureMode::RssiOnly if in_window && r.rssi_dbm.is_finite() => {
                    g.rssi[link].0 += r.rssi_dbm;
                    g.rssi[link].1 += 1;
                }
                FeatureMode::PhaseOnly if in_window && r.phase_rad.is_finite() => {
                    let phase = self.calibrator.calibrate(r);
                    g.phasors[link] += Complex::cis(2.0 * phase);
                }
                _ => {}
            }
        }

        let Gathered {
            by_tag,
            snaps,
            tag_snaps,
            row,
            ..
        } = g;
        tag_snaps.clear();
        let mut count = 0;
        for reads in by_tag.iter_mut() {
            // Time-sorted input (every window the session buffer hands
            // over) is already in round order; otherwise the stable
            // sort keeps input order within each round.
            if !reads.is_sorted_by_key(|r| r.round) {
                reads.sort_by_key(|r| r.round);
            }
            let start = count;
            for round in reads.chunk_by(|a, b| a.round == b.round) {
                row.clear();
                row.resize(n_ant, None);
                for r in round {
                    row[r.antenna] = Some(r.z);
                }
                if row.iter().all(Option::is_some) {
                    if count == snaps.len() {
                        snaps.push(Vec::with_capacity(n_ant));
                    }
                    snaps[count].clear();
                    snaps[count].extend(row.iter().flatten());
                    count += 1;
                }
            }
            tag_snaps.push(start..count);
        }
    }

    /// Spectrum and direct features of one tag from its gathered
    /// snapshots and sums, written into the tag's (zeroed) frame
    /// regions. Index-pure in `tag`, so frame construction can fan tags out across workers
    /// without changing a single bit of the output.
    fn tag_features_into(
        &self,
        tag: usize,
        g: &Gathered,
        music_cfg: &MusicConfig,
        ts: &mut TagScratch,
        spec_out: &mut [f32],
        direct_out: &mut [f32],
    ) {
        let lay = self.layout;
        let n_ant = lay.n_antennas;
        let snaps = &g.snaps[g.tag_snaps[tag].clone()];
        // Pseudospectrum part.
        if matches!(lay.mode, FeatureMode::Joint | FeatureMode::MusicOnly) && snaps.len() >= 2 {
            let _span = stage_seconds(Stage::Music).time();
            if pseudospectrum_power_into(snaps, music_cfg, &mut ts.music, &mut ts.power).is_ok() {
                spectrum_feature_into(&ts.power, &mut ts.compressed, spec_out);
            }
        }
        // Direct part.
        let links = tag * n_ant..(tag + 1) * n_ant;
        match lay.mode {
            FeatureMode::Joint | FeatureMode::PeriodogramOnly => {
                // Mean backscatter power per antenna (Parseval ⇒
                // the mean of the periodogram bins), on an absolute
                // log scale so the temporal power waveform of
                // radial gestures (squat/raise/push) stays visible
                // across frames.
                let _span = stage_seconds(Stage::Periodogram).time();
                for a in 0..n_ant {
                    ts.series.clear();
                    ts.series.extend(snaps.iter().map(|s| s[a]));
                    if ts.series.is_empty() {
                        continue;
                    }
                    let p = m2ai_dsp::periodogram::mean_power(&ts.series);
                    direct_out[a] = periodogram_feature(p);
                }
            }
            FeatureMode::RssiOnly => {
                for (d, &(sum, count)) in direct_out.iter_mut().zip(&g.rssi[links]) {
                    if count > 0 {
                        // Scale dBm into a small numeric range.
                        *d = ((sum / count as f64) / 20.0) as f32;
                    }
                }
            }
            FeatureMode::PhaseOnly => {
                for (d, &m) in direct_out.chunks_exact_mut(2).zip(&g.phasors[links]) {
                    if m.norm() > 0.0 {
                        let u = m.scale(1.0 / m.norm());
                        d[0] = u.re as f32;
                        d[1] = u.im as f32;
                    }
                }
            }
            FeatureMode::MusicOnly => {}
        }
    }

    /// Builds the frame covering `[t0, t0 + frame_duration)`.
    ///
    /// Tags unseen in the window contribute zeros (as an undetected tag
    /// would on real hardware). With [`FrameBuilder::parallelism`] > 1
    /// the per-tag pseudospectra are computed on a worker pool; the
    /// result is bit-identical to the serial computation.
    pub fn build_frame(&self, readings: &[TagReading], t0: f64) -> Vec<f32> {
        self.build_frame_with_quality(readings, t0).0
    }

    /// Like [`FrameBuilder::build_frame`], but also reports per-tag
    /// input [`FrameQuality`] so streaming callers can gate on
    /// coverage. The frame itself is bit-identical to `build_frame`'s.
    pub fn build_frame_with_quality(
        &self,
        readings: &[TagReading],
        t0: f64,
    ) -> (Vec<f32>, FrameQuality) {
        self.frame_into(
            readings.iter(),
            t0,
            self.parallelism,
            &mut FrameScratch::default(),
        )
    }

    /// Fallible frame construction: rejects non-finite window starts
    /// (data-dependent — e.g. a timestamp from a corrupted report)
    /// instead of silently building an empty frame.
    pub fn try_build_frame(&self, readings: &[TagReading], t0: f64) -> Result<Vec<f32>, Error> {
        if !t0.is_finite() {
            return Err(Error::NonFiniteInput {
                context: "window start t0",
            });
        }
        Ok(self.build_frame(readings, t0))
    }

    /// The frame of `[t0, t0 + frame_duration)` and its quality, built
    /// from `readings` (any superset of the window's reads, in input
    /// order) with `threads` workers and the caller's reusable buffers.
    pub(crate) fn frame_into<'a>(
        &self,
        readings: impl Iterator<Item = &'a TagReading>,
        t0: f64,
        threads: usize,
        scratch: &mut FrameScratch,
    ) -> (Vec<f32>, FrameQuality) {
        let lay = self.layout;
        {
            let _span = stage_seconds(Stage::Calibration).time();
            self.gather(readings, t0, &mut scratch.gathered);
        }
        let music_cfg = self.music_config();
        let spec_len = lay.spectrum_dim() / lay.n_tags.max(1);
        let direct_len = lay.direct_dim() / lay.n_tags.max(1);
        let mut frame = vec![0.0f32; lay.frame_dim()];
        let (spec, direct) = frame.split_at_mut(lay.spectrum_dim());
        let regions = |tag: usize| {
            (
                tag * spec_len..(tag + 1) * spec_len,
                tag * direct_len..(tag + 1) * direct_len,
            )
        };
        let g = &scratch.gathered;
        if threads == 1 {
            for tag in 0..lay.n_tags {
                let (s, d) = regions(tag);
                let ts = &mut scratch.tag;
                self.tag_features_into(tag, g, &music_cfg, ts, &mut spec[s], &mut direct[d]);
            }
        } else {
            let parts = parallel_map(lay.n_tags, threads, |tag| {
                let mut s = vec![0.0f32; spec_len];
                let mut d = vec![0.0f32; direct_len];
                let ts = &mut TagScratch::default();
                self.tag_features_into(tag, g, &music_cfg, ts, &mut s, &mut d);
                (s, d)
            });
            for (tag, (s, d)) in parts.into_iter().enumerate() {
                let (sr, dr) = regions(tag);
                spec[sr].copy_from_slice(&s);
                direct[dr].copy_from_slice(&d);
            }
        }
        // Degradation contract: an emitted frame never carries NaN/Inf,
        // whatever the inputs did. Clean frames are already finite, so
        // this pass is a bit-exact no-op on them.
        for v in &mut frame {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
        let expected_rounds = (self.frame_duration_s / self.round_duration_s)
            .round()
            .max(1.0);
        let tag_coverage = g
            .tag_snaps
            .iter()
            .map(|snaps| ((snaps.len() as f64 / expected_rounds) as f32).clamp(0.0, 1.0))
            .collect();
        (frame, FrameQuality { tag_coverage })
    }

    /// Builds a `T`-frame sample starting at `start_s`.
    ///
    /// The recording is dealt out to its frames in one pass, so each
    /// frame reads only its own window's reads. With
    /// [`FrameBuilder::parallelism`] > 1 the frames fan out across
    /// workers (one whole frame per task — the outer level parallelises,
    /// the per-tag level inside each frame stays serial to avoid
    /// oversubscription); the output is bit-identical either way, and
    /// to `build_frame` at each frame's start.
    pub fn build_sample(
        &self,
        readings: &[TagReading],
        start_s: f64,
        n_frames: usize,
    ) -> Vec<Vec<f32>> {
        let fd = self.frame_duration_s;
        let starts: Vec<f64> = (0..n_frames).map(|k| start_s + k as f64 * fd).collect();
        // Frame k holds a read iff `starts[k] <= t < starts[k] + fd`.
        // With a finite start and a positive finite duration both bounds
        // ascend in k, so the frames holding a read are one contiguous
        // run, found by two binary searches. Non-finite times land in
        // no frame, as the per-frame filter would decide. Any other
        // timing falls back to handing every frame the whole recording.
        let members = (start_s.is_finite() && fd.is_finite() && fd > 0.0).then(|| {
            let ends: Vec<f64> = starts.iter().map(|&t0| t0 + fd).collect();
            let mut members = vec![Vec::new(); n_frames];
            for (i, r) in readings.iter().enumerate() {
                let first = ends.partition_point(|&t1| t1 <= r.time_s);
                let last = starts.partition_point(|&t0| t0 <= r.time_s);
                for frame in members.iter_mut().take(last).skip(first) {
                    frame.push(i);
                }
            }
            members
        });
        parallel_map(n_frames, self.parallelism, |k| {
            let mut scratch = FrameScratch::default();
            let frame = match &members {
                Some(m) => {
                    let reads = m[k].iter().map(|&i| &readings[i]);
                    self.frame_into(reads, starts[k], 1, &mut scratch)
                }
                None => self.frame_into(readings.iter(), starts[k], 1, &mut scratch),
            };
            frame.0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2ai_rfsim::geometry::Point2;
    use m2ai_rfsim::reader::{Reader, ReaderConfig};
    use m2ai_rfsim::room::Room;
    use m2ai_rfsim::scene::SceneSnapshot;

    fn clean_reader_config() -> ReaderConfig {
        ReaderConfig {
            hopping_offsets: false,
            phase_noise_std: 0.01,
            rssi_noise_db: 0.1,
            pi_ambiguity: true,
            ..ReaderConfig::default()
        }
    }

    /// Room with essentially no multipath: very lossy walls.
    fn anechoic() -> Room {
        Room::rectangular("anechoic", 10.0, 8.0, 60.0)
    }

    #[test]
    fn layout_dimensions() {
        let l = FrameLayout::new(6, 4, FeatureMode::Joint);
        assert_eq!(l.spectrum_dim(), 1080);
        assert_eq!(l.direct_dim(), 24);
        assert_eq!(l.frame_dim(), 1104);
        assert_eq!(
            FrameLayout::new(6, 4, FeatureMode::MusicOnly).frame_dim(),
            1080
        );
        assert_eq!(
            FrameLayout::new(6, 4, FeatureMode::PeriodogramOnly).frame_dim(),
            24
        );
        assert_eq!(
            FrameLayout::new(6, 4, FeatureMode::PhaseOnly).frame_dim(),
            48
        );
        assert_eq!(
            FrameLayout::new(6, 4, FeatureMode::RssiOnly).frame_dim(),
            24
        );
    }

    #[test]
    fn frame_has_expected_shape_and_range() {
        let mut reader = Reader::new(anechoic(), clean_reader_config(), 1);
        let scene = SceneSnapshot::with_tags(vec![Point2::new(5.0, 4.0)]);
        let readings = reader.run(|_| scene.clone(), 1.0);
        let layout = FrameLayout::new(1, 4, FeatureMode::Joint);
        let cal = PhaseCalibrator::disabled(1, 4);
        let fb = FrameBuilder::new(layout, cal, 0.5);
        let frame = fb.build_frame(&readings, 0.0);
        assert_eq!(frame.len(), layout.frame_dim());
        assert!(frame.iter().all(|v| v.is_finite()));
        assert!(frame.iter().any(|&v| v > 0.0), "frame must not be empty");
        // Log-compressed + smoothed pseudospectrum peaks somewhere in
        // (0, 1]: the raw max of 1 is spread over the ±4° kernel.
        let max_spec = frame[..180].iter().cloned().fold(0.0f32, f32::max);
        assert!(max_spec > 0.15 && max_spec <= 1.0, "peak {max_spec}");
    }

    #[test]
    fn pseudospectrum_peak_near_true_angle() {
        // Tag broadside of the array: direct-path AoA is 90°.
        let mut reader = Reader::new(anechoic(), clean_reader_config(), 1);
        let scene = SceneSnapshot::with_tags(vec![Point2::new(5.0, 4.3)]);
        let readings = reader.run(|_| scene.clone(), 2.0);
        let layout = FrameLayout::new(1, 4, FeatureMode::MusicOnly);
        let fb = FrameBuilder::new(layout, PhaseCalibrator::disabled(1, 4), 2.0);
        let frame = fb.build_frame(&readings, 0.0);
        let peak = frame
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        assert!(
            (peak as f64 - 90.0).abs() < 12.0,
            "peak at {peak}°, expected ≈90°"
        );
    }

    #[test]
    fn empty_window_gives_zero_frame() {
        let layout = FrameLayout::new(2, 4, FeatureMode::Joint);
        let fb = FrameBuilder::new(layout, PhaseCalibrator::disabled(2, 4), 0.5);
        let frame = fb.build_frame(&[], 0.0);
        assert_eq!(frame.len(), layout.frame_dim());
        assert!(frame.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn sample_has_t_frames() {
        let mut reader = Reader::new(anechoic(), clean_reader_config(), 1);
        let scene = SceneSnapshot::with_tags(vec![Point2::new(5.0, 3.0)]);
        let readings = reader.run(|_| scene.clone(), 3.0);
        let layout = FrameLayout::new(1, 4, FeatureMode::Joint);
        let fb = FrameBuilder::new(layout, PhaseCalibrator::disabled(1, 4), 0.5);
        let sample = fb.build_sample(&readings, 0.0, 6);
        assert_eq!(sample.len(), 6);
        assert!(sample.iter().all(|f| f.len() == layout.frame_dim()));
    }

    #[test]
    fn phase_doubling_erases_pi_flips() {
        // Two readers identical except for the π ambiguity must produce
        // (nearly) identical joint frames after doubling.
        let mut with_amb = clean_reader_config();
        with_amb.pi_ambiguity = true;
        let mut without = clean_reader_config();
        without.pi_ambiguity = false;
        let scene = SceneSnapshot::with_tags(vec![Point2::new(4.5, 3.5)]);
        let run = |cfg: ReaderConfig| {
            let mut reader = Reader::new(anechoic(), cfg, 1);
            reader.run(|_| scene.clone(), 2.0)
        };
        let layout = FrameLayout::new(1, 4, FeatureMode::MusicOnly);
        let fb = FrameBuilder::new(layout, PhaseCalibrator::disabled(1, 4), 2.0);
        let fa = fb.build_frame(&run(with_amb), 0.0);
        let fs = fb.build_frame(&run(without), 0.0);
        let diff: f32 = fa.iter().zip(&fs).map(|(a, b)| (a - b).abs()).sum();
        let scale: f32 = fs.iter().map(|v| v.abs()).sum();
        assert!(diff / scale < 0.05, "relative diff {}", diff / scale);
    }

    #[test]
    fn all_modes_build_nonempty_frames() {
        let mut reader = Reader::new(anechoic(), clean_reader_config(), 2);
        let scene = SceneSnapshot::with_tags(vec![Point2::new(4.0, 3.0), Point2::new(6.0, 3.5)]);
        let readings = reader.run(|_| scene.clone(), 1.0);
        for mode in [
            FeatureMode::Joint,
            FeatureMode::MusicOnly,
            FeatureMode::PeriodogramOnly,
            FeatureMode::PhaseOnly,
            FeatureMode::RssiOnly,
        ] {
            let layout = FrameLayout::new(2, 4, mode);
            let fb = FrameBuilder::new(layout, PhaseCalibrator::disabled(2, 4), 1.0);
            let frame = fb.build_frame(&readings, 0.0);
            assert_eq!(frame.len(), layout.frame_dim(), "{mode:?}");
            assert!(
                frame.iter().any(|&v| v != 0.0),
                "{mode:?} produced an all-zero frame"
            );
        }
    }

    #[test]
    fn quality_tracks_coverage() {
        let mut reader = Reader::new(anechoic(), clean_reader_config(), 2);
        // Tag 1 far outside read range: zero coverage expected.
        let scene = SceneSnapshot::with_tags(vec![Point2::new(5.0, 3.0), Point2::new(50.0, 50.0)]);
        let readings = reader.run(|_| scene.clone(), 1.0);
        let layout = FrameLayout::new(2, 4, FeatureMode::Joint);
        let fb = FrameBuilder::new(layout, PhaseCalibrator::disabled(2, 4), 0.5);
        let (frame, q) = fb.build_frame_with_quality(&readings, 0.0);
        assert_eq!(frame, fb.build_frame(&readings, 0.0));
        assert_eq!(q.tag_coverage.len(), 2);
        assert!(q.tag_coverage[0] > 0.5, "near tag: {:?}", q.tag_coverage);
        assert_eq!(q.tag_coverage[1], 0.0, "unreadable tag");
        assert_eq!(q.missing_tags(), vec![1]);
        assert!(q.mean_coverage() > 0.0 && q.mean_coverage() < 1.0);
    }

    #[test]
    fn nan_readings_never_reach_the_frame() {
        let mut reader = Reader::new(anechoic(), clean_reader_config(), 1);
        let scene = SceneSnapshot::with_tags(vec![Point2::new(5.0, 3.0)]);
        let mut readings = reader.run(|_| scene.clone(), 1.0);
        for (i, r) in readings.iter_mut().enumerate() {
            match i % 3 {
                0 => r.phase_rad = f64::NAN,
                1 => r.rssi_dbm = f64::INFINITY,
                _ => {}
            }
        }
        for mode in [
            FeatureMode::Joint,
            FeatureMode::MusicOnly,
            FeatureMode::PeriodogramOnly,
            FeatureMode::PhaseOnly,
            FeatureMode::RssiOnly,
        ] {
            let layout = FrameLayout::new(1, 4, mode);
            let fb = FrameBuilder::new(layout, PhaseCalibrator::disabled(1, 4), 0.5);
            let frame = fb.build_frame(&readings, 0.0);
            assert!(
                frame.iter().all(|v| v.is_finite()),
                "{mode:?} leaked a non-finite value"
            );
        }
    }

    #[test]
    fn try_build_frame_rejects_non_finite_t0() {
        let layout = FrameLayout::new(1, 4, FeatureMode::Joint);
        let fb = FrameBuilder::new(layout, PhaseCalibrator::disabled(1, 4), 0.5);
        assert!(matches!(
            fb.try_build_frame(&[], f64::NAN),
            Err(crate::error::Error::NonFiniteInput { .. })
        ));
        assert!(fb.try_build_frame(&[], 0.0).is_ok());
    }

    #[test]
    fn mode_labels_are_distinct() {
        let labels: std::collections::HashSet<&str> = [
            FeatureMode::Joint,
            FeatureMode::MusicOnly,
            FeatureMode::PeriodogramOnly,
            FeatureMode::PhaseOnly,
            FeatureMode::RssiOnly,
        ]
        .iter()
        .map(|m| m.label())
        .collect();
        assert_eq!(labels.len(), 5);
    }
}
