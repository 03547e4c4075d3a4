//! Realtime (streaming) identification.
//!
//! The paper's deployment (Section V) streams LLRP reads to a backend
//! that identifies activities *in realtime*. [`OnlineIdentifier`]
//! packages that mode: push readings as they arrive, and it maintains a
//! sliding sequence of spectrum frames, emitting a prediction whenever
//! a fresh frame completes.
//!
//! ## Degradation contract
//!
//! Real streams lose reads. The identifier tracks a
//! [`HealthState`] per window:
//!
//! * **Healthy** — coverage is good; predictions flow normally.
//! * **Degraded** — the window was sparse (low per-tag coverage, a
//!   patched-in fallback spectrum, or no reads at all). Predictions
//!   still flow, flagged, and are gated on
//!   [`HealthConfig::min_confidence`].
//! * **Stale** — the stream has been silent past
//!   [`HealthConfig::stale_timeout_s`]: predictions are *suppressed*
//!   (emitting garbage from an empty room helps nobody) and the frame
//!   history plus fallback memory are cleared so a resuming stream
//!   starts from truth, not from the world before the gap. A window is
//!   stale when it has no reads and the newest reading before its end
//!   is at least the timeout old. That reading is tracked apart from
//!   the read buffer's trimming, so the rule does not depend on the
//!   history length.
//!
//! Recovery is hysteretic: after degradation, the identifier returns to
//! Healthy only after [`HealthConfig::recovery_windows`] consecutive
//! good windows. Out-of-order and duplicate readings are tolerated: the
//! window buffer keeps itself time-sorted and drops exact duplicates,
//! so retransmitted or interleaved LLRP reports cannot skew a frame.
//!
//! ## Read buffer
//!
//! The buffer is a ring of the last `history_len` frames' reads:
//! in-order reads are appended, late ones inserted at their sorted
//! place, and reads older than the history are trimmed off the front as
//! windows close. A closing window finds its reads with two binary
//! searches and hands the frame builder only that slice, so no
//! per-window work grows with the history length.

use crate::degrade::SpectrumFallback;
use crate::frames::{FrameBuilder, FrameScratch};
use m2ai_kernels::KernelScratch;
use m2ai_nn::model::SequenceClassifier;
use m2ai_rfsim::reading::TagReading;
use std::collections::VecDeque;

/// Cap on the per-session transition log: long-lived sessions must not
/// grow unbounded just for observability.
const TRANSITION_LOG_CAP: usize = 1024;

/// Stable label for a health state, used in metric label sets.
fn health_label(h: HealthState) -> &'static str {
    match h {
        HealthState::Healthy => "healthy",
        HealthState::Degraded => "degraded",
        HealthState::Stale => "stale",
    }
}

/// Global transition counter for the `from → to` edge, resolved once
/// per process (one counter per directed edge of the state machine).
fn transition_counter(from: HealthState, to: HealthState) -> m2ai_obs::Counter {
    static C: std::sync::OnceLock<Vec<((&'static str, &'static str), m2ai_obs::Counter)>> =
        std::sync::OnceLock::new();
    static EDGE_LABELS: [[(&str, &str); 2]; 6] = [
        [("from", "healthy"), ("to", "degraded")],
        [("from", "healthy"), ("to", "stale")],
        [("from", "degraded"), ("to", "healthy")],
        [("from", "degraded"), ("to", "stale")],
        [("from", "stale"), ("to", "healthy")],
        [("from", "stale"), ("to", "degraded")],
    ];
    let edges = C.get_or_init(|| {
        EDGE_LABELS
            .iter()
            .map(|labels| {
                (
                    (labels[0].1, labels[1].1),
                    m2ai_obs::counter(
                        "m2ai_core_health_transitions_total",
                        "session health state-machine transitions",
                        labels,
                    ),
                )
            })
            .collect()
    });
    let key = (health_label(from), health_label(to));
    edges
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, c)| c.clone())
        .expect("every directed edge is registered")
}

/// Window-quality instruments (coverage histogram + fallback patch
/// counter), resolved once per process.
fn window_quality() -> &'static (m2ai_obs::Histogram, m2ai_obs::Counter) {
    static Q: std::sync::OnceLock<(m2ai_obs::Histogram, m2ai_obs::Counter)> =
        std::sync::OnceLock::new();
    Q.get_or_init(|| {
        (
            m2ai_obs::histogram(
                "m2ai_core_frame_coverage_ratio",
                "mean per-tag coverage of each closed frame window",
                &[],
                &m2ai_obs::ratio_buckets(),
            ),
            m2ai_obs::counter(
                "m2ai_core_fallback_patches_total",
                "per-tag spectrum blocks patched from the fallback memory",
                &[],
            ),
        )
    })
}

/// Stream health as judged from window coverage and silence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Coverage is good; predictions are trustworthy.
    Healthy,
    /// Sparse/patched input; predictions carry reduced confidence.
    Degraded,
    /// The stream went silent; predictions are suppressed.
    Stale,
}

/// Thresholds of the health state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthConfig {
    /// Mean per-tag coverage below which a window counts as degraded.
    pub degraded_coverage: f32,
    /// Silence (no readings at all) longer than this marks the stream
    /// Stale and clears the sliding history.
    pub stale_timeout_s: f64,
    /// While Degraded, predictions with top-class probability below
    /// this are suppressed (`0.0` = emit everything, the default).
    pub min_confidence: f32,
    /// Consecutive good windows required to return to Healthy.
    pub recovery_windows: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            degraded_coverage: 0.4,
            stale_timeout_s: 2.0,
            min_confidence: 0.0,
            recovery_windows: 2,
        }
    }
}

/// A prediction emitted for one completed frame window.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlinePrediction {
    /// End time of the window that triggered this prediction.
    pub time_s: f64,
    /// Most likely activity class.
    pub class: usize,
    /// Class probabilities (mean per-frame softmax over the current
    /// frame history).
    pub probabilities: Vec<f32>,
    /// Stream health when this prediction was made.
    pub health: HealthState,
    /// Top-class probability (convenience copy).
    pub confidence: f32,
}

/// Outcome of one closed frame window, emitted by [`SessionWindow`].
///
/// The window layer owns read buffering, frame assembly and the health
/// state machine; what it *doesn't* own is inference. Consumers — the
/// single-stream [`OnlineIdentifier`] and the multi-session
/// [`crate::serve::ServeEngine`] — turn these events into predictions
/// their own way (full-window replay vs. incremental stepping).
#[derive(Debug, Clone, PartialEq)]
pub enum WindowEvent {
    /// A frame was assembled for the window ending at `time_s`.
    Frame {
        /// End time of the closed window.
        time_s: f64,
        /// The spectrum frame (fallback-patched, NaN-sanitised).
        frame: Vec<f32>,
        /// Stream health as of this window.
        health: HealthState,
    },
    /// The stream was silent past [`HealthConfig::stale_timeout_s`] at
    /// the window ending at `time_s`. The window has already cleared
    /// its own fallback memory; consumers must drop *their* history
    /// (frame deques, LSTM state) so a resuming stream starts fresh.
    Stale {
        /// End time of the silent window.
        time_s: f64,
    },
}

/// Per-session read buffering, frame windowing and health tracking.
///
/// Extracted from [`OnlineIdentifier`] so the serve engine can run N
/// of these (one per session slot) against a single shared model. The
/// type is a pure event source: push raw readings in, get
/// [`WindowEvent`]s out, with the out-of-order/duplicate tolerance and
/// the Healthy → Degraded → Stale machinery documented at module
/// level.
#[derive(Debug, Clone)]
pub struct SessionWindow {
    builder: FrameBuilder,
    /// Sliding-history length in frames; bounds the read buffer.
    history_len: usize,
    /// The sliding history's reads: sorted by `(time, tag, antenna,
    /// channel)`, deduplicated, oldest first.
    buffer: VecDeque<TagReading>,
    /// Newest timestamp trimmed off the buffer (`-∞` before the first
    /// trim), so the staleness rule sees the last reading however short
    /// the history is.
    trimmed_newest_s: f64,
    next_window_start: f64,
    health: HealthState,
    cfg: HealthConfig,
    fallback: SpectrumFallback,
    /// Consecutive good windows since the last degradation.
    good_streak: u32,
    /// Recorded health transitions, in order, capped at
    /// [`TRANSITION_LOG_CAP`] entries.
    transitions: Vec<(HealthState, HealthState)>,
    /// Reused frame-construction buffers.
    scratch: FrameScratch,
}

impl SessionWindow {
    /// Creates a window tracker.
    ///
    /// `history_len` is the consumer's sliding-history length in
    /// frames; the read buffer is trimmed to that horizon.
    ///
    /// # Panics
    ///
    /// Panics if `history_len` is zero.
    pub fn new(builder: FrameBuilder, history_len: usize, cfg: HealthConfig) -> Self {
        assert!(history_len > 0, "history must hold at least one frame");
        let fallback = SpectrumFallback::new(builder.layout);
        SessionWindow {
            builder,
            history_len,
            buffer: VecDeque::new(),
            trimmed_newest_s: f64::NEG_INFINITY,
            next_window_start: 0.0,
            health: HealthState::Healthy,
            cfg,
            fallback,
            good_streak: 0,
            transitions: Vec::new(),
            scratch: FrameScratch::default(),
        }
    }

    /// Current stream health.
    pub fn health(&self) -> HealthState {
        self.health
    }

    /// The health transitions this session has gone through, in order
    /// (`(from, to)` pairs; capped at an internal limit so long-lived
    /// sessions stay bounded).
    pub fn transitions(&self) -> &[(HealthState, HealthState)] {
        &self.transitions
    }

    /// Moves the state machine to `next`, recording the transition both
    /// locally and in the global metrics registry. A no-op when the
    /// state is unchanged.
    fn set_health(&mut self, next: HealthState) {
        if next == self.health {
            return;
        }
        let prev = self.health;
        self.health = next;
        if self.transitions.len() < TRANSITION_LOG_CAP {
            self.transitions.push((prev, next));
        }
        transition_counter(prev, next).inc();
    }

    /// The frame layout's flat dimension (what `Frame` events carry).
    pub fn frame_dim(&self) -> usize {
        self.builder.layout.frame_dim()
    }

    /// Inserts a reading into the time-sorted window buffer, dropping
    /// exact duplicates (same time, tag, antenna and channel — e.g. an
    /// LLRP retransmission).
    fn insert_sorted(&mut self, r: &TagReading) {
        // Key equality ⟺ "same physical read", so a strict comparison
        // both keeps the buffer sorted and exposes duplicates at the
        // insertion point. (Timestamps are finite here — `push`
        // rejects non-finite ones — so the partial order is total.)
        let key = |x: &TagReading| (x.time_s, x.tag.0, x.antenna, x.channel);
        // In-order arrival, the common case, appends.
        if self.buffer.back().is_none_or(|b| key(b) < key(r)) {
            self.buffer.push_back(r.clone());
            return;
        }
        let pos = self.buffer.partition_point(|x| key(x) < key(r));
        if pos == self.buffer.len() || key(&self.buffer[pos]) != key(r) {
            self.buffer.insert(pos, r.clone());
        }
    }

    /// Closes the window starting at `next_window_start`: builds the
    /// frame, applies the fallback, updates health, and emits one
    /// event.
    fn close_window(&mut self, out: &mut Vec<WindowEvent>) {
        let frame_len = self.builder.frame_duration_s;
        let window_start = self.next_window_start;
        let window_end = window_start + frame_len;
        // The buffer is time-sorted, so the window's reads are the run
        // `lo..hi` between two binary searches.
        let lo = self.buffer.partition_point(|b| b.time_s < window_start);
        let hi = self.buffer.partition_point(|b| b.time_s < window_end);
        let window_had_reads = hi > lo;

        // Staleness: nothing has arrived for `stale_timeout_s` as of
        // this window's end. Drop fallback memory — whatever was
        // happening before the gap is over — and tell the consumer to
        // do the same. (The newest pre-window reading is the last one
        // before `window_end`, in the buffer or trimmed off it; the
        // reading that *triggered* this close lies at or past the window
        // end and does not count. With no reading yet it is `-∞`.)
        let last_before = hi
            .checked_sub(1)
            .map_or(f64::NEG_INFINITY, |i| self.buffer[i].time_s)
            .max(self.trimmed_newest_s);
        let stale = !window_had_reads && window_end - last_before >= self.cfg.stale_timeout_s;
        if stale {
            self.set_health(HealthState::Stale);
            self.good_streak = 0;
            self.fallback.reset();
            self.advance();
            out.push(WindowEvent::Stale { time_s: window_end });
            return;
        }

        // Attach extraction to the pushing frame's trace (ambient
        // context; a no-op span when the push was unsampled).
        let mut extract_span = m2ai_obs::trace::span("extract");
        extract_span.set_time_s(window_end);
        let (mut frame, quality) = self.builder.frame_into(
            self.buffer.range(lo..hi),
            window_start,
            self.builder.parallelism,
            &mut self.scratch,
        );
        extract_span.end();
        let patched = self.fallback.observe_and_patch(&mut frame, &quality);
        let (coverage_hist, patch_counter) = window_quality();
        coverage_hist.observe(quality.mean_coverage() as f64);
        if patched > 0 {
            patch_counter.add(patched as u64);
        }

        // Health transition for this window.
        let degraded = !window_had_reads
            || patched > 0
            || quality.mean_coverage() < self.cfg.degraded_coverage;
        if degraded {
            self.set_health(HealthState::Degraded);
            self.good_streak = 0;
        } else {
            self.good_streak = self.good_streak.saturating_add(1);
            if self.health != HealthState::Healthy {
                // Hysteretic recovery: a formerly Stale stream passes
                // through Degraded while the streak builds.
                let next = if self.good_streak >= self.cfg.recovery_windows {
                    HealthState::Healthy
                } else {
                    HealthState::Degraded
                };
                self.set_health(next);
            }
        }

        self.advance();
        out.push(WindowEvent::Frame {
            time_s: window_end,
            frame,
            health: self.health,
        });
    }

    /// Moves to the next window and drops the readings older than the
    /// sliding history (a prefix of the sorted buffer).
    fn advance(&mut self) {
        let frame_len = self.builder.frame_duration_s;
        self.next_window_start += frame_len;
        let horizon = self.next_window_start - frame_len * self.history_len as f64;
        while let Some(b) = self.buffer.front().filter(|b| b.time_s < horizon) {
            self.trimmed_newest_s = self.trimmed_newest_s.max(b.time_s);
            self.buffer.pop_front();
        }
    }

    /// Pushes a batch of readings (need not be aligned to windows),
    /// appending one [`WindowEvent`] per frame window completed by
    /// this batch.
    ///
    /// Readings may arrive out of order and duplicated; the buffer
    /// sorts and dedups them. Windows close when a reading at or past
    /// the window end shows up. Non-finite timestamps are rejected
    /// outright (they cannot be ordered).
    pub fn push(&mut self, readings: &[TagReading], out: &mut Vec<WindowEvent>) {
        let frame_len = self.builder.frame_duration_s;
        for r in readings {
            if !r.time_s.is_finite() {
                continue;
            }
            self.insert_sorted(r);
            // Close every window that ends at or before this reading.
            while r.time_s >= self.next_window_start + frame_len {
                self.close_window(out);
            }
        }
    }
}

/// Streaming wrapper: reader stream in, per-window predictions out.
///
/// Single-stream consumer of [`SessionWindow`] events. Inference is
/// full-window replay (`try_predict_proba` over the sliding frame
/// history) through a persistent [`KernelScratch`], so the steady
/// state allocates nothing per window. For many concurrent streams on
/// one model, use [`crate::serve::ServeEngine`], which replaces the
/// replay with incremental batched stepping.
#[derive(Debug)]
pub struct OnlineIdentifier {
    window: SessionWindow,
    model: SequenceClassifier,
    /// Sliding window length in frames (the training `T`).
    history_len: usize,
    frames: VecDeque<Vec<f32>>,
    /// Predictions suppressed (Stale stream or gated confidence).
    suppressed: usize,
    /// Reused event buffer (drained every push).
    events: Vec<WindowEvent>,
    scratch: KernelScratch,
}

impl Clone for OnlineIdentifier {
    fn clone(&self) -> Self {
        OnlineIdentifier {
            window: self.window.clone(),
            model: self.model.clone(),
            history_len: self.history_len,
            frames: self.frames.clone(),
            suppressed: self.suppressed,
            events: Vec::new(),
            // The pool is a cache, not state: a fresh one is
            // behaviourally identical.
            scratch: KernelScratch::new(),
        }
    }
}

impl OnlineIdentifier {
    /// Creates a streaming identifier with the default [`HealthConfig`].
    ///
    /// `history_len` should match the `frames_per_sample` the model was
    /// trained with.
    ///
    /// # Panics
    ///
    /// Panics if `history_len` is zero.
    pub fn new(builder: FrameBuilder, model: SequenceClassifier, history_len: usize) -> Self {
        Self::with_health_config(builder, model, history_len, HealthConfig::default())
    }

    /// Creates a streaming identifier with explicit health thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `history_len` is zero.
    pub fn with_health_config(
        builder: FrameBuilder,
        model: SequenceClassifier,
        history_len: usize,
        health_cfg: HealthConfig,
    ) -> Self {
        OnlineIdentifier {
            window: SessionWindow::new(builder, history_len, health_cfg),
            model,
            history_len,
            frames: VecDeque::new(),
            suppressed: 0,
            events: Vec::new(),
            scratch: KernelScratch::new(),
        }
    }

    /// Number of frames currently in the sliding history.
    pub fn history_fill(&self) -> usize {
        self.frames.len()
    }

    /// Current stream health.
    pub fn health(&self) -> HealthState {
        self.window.health()
    }

    /// Number of predictions suppressed so far (Stale windows and
    /// confidence-gated Degraded windows).
    pub fn suppressed(&self) -> usize {
        self.suppressed
    }

    /// The health transitions this stream has gone through, in order.
    pub fn transitions(&self) -> &[(HealthState, HealthState)] {
        self.window.transitions()
    }

    /// Pushes a batch of readings (need not be aligned to windows);
    /// returns one prediction per frame window completed by this batch.
    ///
    /// Readings may arrive out of order and duplicated; the buffer
    /// sorts and dedups them. Windows close when a reading at or past
    /// the window end shows up. Non-finite timestamps are rejected
    /// outright (they cannot be ordered).
    pub fn push(&mut self, readings: &[TagReading]) -> Vec<OnlinePrediction> {
        let mut events = std::mem::take(&mut self.events);
        self.window.push(readings, &mut events);
        let mut out = Vec::new();
        for ev in events.drain(..) {
            match ev {
                WindowEvent::Stale { .. } => {
                    self.frames.clear();
                    self.suppressed += 1;
                }
                WindowEvent::Frame {
                    time_s,
                    frame,
                    health,
                } => {
                    self.frames.push_back(frame);
                    if self.frames.len() > self.history_len {
                        self.frames.pop_front();
                    }
                    if self.frames.len() == self.history_len {
                        self.predict(time_s, health, &mut out);
                    }
                }
            }
        }
        self.events = events;
        out
    }

    /// Replays the full frame history through the model and appends a
    /// prediction (or counts a suppression).
    fn predict(&mut self, time_s: f64, health: HealthState, out: &mut Vec<OnlinePrediction>) {
        self.frames.make_contiguous();
        let (seq, _) = self.frames.as_slices();
        let Ok(probabilities) = self.model.try_predict_proba_with(seq, &mut self.scratch) else {
            // Unscorable history (diverged model, non-finite output):
            // suppress rather than emit garbage.
            self.suppressed += 1;
            return;
        };
        let (class, confidence) =
            probabilities
                .iter()
                .enumerate()
                .fold((0usize, f32::NEG_INFINITY), |best, (i, &p)| {
                    if p > best.1 {
                        (i, p)
                    } else {
                        best
                    }
                });
        if health == HealthState::Degraded && confidence < self.window.cfg.min_confidence {
            self.suppressed += 1;
            return;
        }
        out.push(OnlinePrediction {
            time_s,
            class,
            probabilities,
            health,
            confidence,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::PhaseCalibrator;
    use crate::frames::{FeatureMode, FrameLayout};
    use crate::network::{build_model, Architecture};
    use m2ai_rfsim::geometry::Point2;
    use m2ai_rfsim::reader::{Reader, ReaderConfig};
    use m2ai_rfsim::room::Room;
    use m2ai_rfsim::scene::SceneSnapshot;

    fn stream(duration: f64) -> Vec<TagReading> {
        let mut reader = Reader::new(Room::hall(), ReaderConfig::default(), 1);
        let scene = SceneSnapshot::with_tags(vec![Point2::new(4.4, 3.0)]);
        reader.run(|_| scene.clone(), duration)
    }

    fn identifier(history: usize) -> OnlineIdentifier {
        let layout = FrameLayout::new(1, 4, FeatureMode::Joint);
        let builder = FrameBuilder::new(layout, PhaseCalibrator::disabled(1, 4), 0.5);
        let model = build_model(&layout, 12, Architecture::CnnLstm, 1);
        OnlineIdentifier::new(builder, model, history)
    }

    #[test]
    fn emits_after_history_fills() {
        let mut ident = identifier(4);
        // 1.9 s: only 3 full windows of 0.5 s close (a window closes
        // when a reading beyond its end arrives) → no prediction yet.
        let early = ident.push(&stream(1.9));
        assert!(early.is_empty(), "history not full yet: {early:?}");
        assert!(ident.history_fill() <= 4);
        // Continue the stream past 2.5 s: predictions appear.
        let rest: Vec<TagReading> = stream(4.0)
            .into_iter()
            .filter(|r| r.time_s >= 1.9)
            .collect();
        let preds = ident.push(&rest);
        assert!(!preds.is_empty());
        for p in &preds {
            assert!(p.class < 12);
            assert!((p.probabilities.iter().sum::<f32>() - 1.0).abs() < 1e-4);
            assert!(p.confidence > 0.0 && p.confidence <= 1.0);
        }
    }

    #[test]
    fn one_prediction_per_window() {
        let mut ident = identifier(2);
        let preds = ident.push(&stream(4.05));
        // Windows of 0.5 s over 4 s: 7 closed windows after the first
        // fills history (window k closes at reading past (k+1)·0.5).
        assert!(
            (5..=8).contains(&preds.len()),
            "got {} predictions",
            preds.len()
        );
        // Times strictly increase by one window.
        for w in preds.windows(2) {
            assert!((w[1].time_s - w[0].time_s - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn incremental_matches_batch() {
        let readings = stream(4.0);
        let mut batch_ident = identifier(3);
        let batch = batch_ident.push(&readings);
        let mut inc_ident = identifier(3);
        let mut incremental = Vec::new();
        for chunk in readings.chunks(17) {
            incremental.extend(inc_ident.push(chunk));
        }
        assert_eq!(batch, incremental);
    }

    #[test]
    fn healthy_on_a_clean_stream() {
        let mut ident = identifier(2);
        let preds = ident.push(&stream(4.0));
        assert!(!preds.is_empty());
        // A dense, continuous stream must not trip the state machine.
        assert!(
            preds.iter().all(|p| p.health == HealthState::Healthy),
            "clean stream flagged: {:?}",
            preds.iter().map(|p| p.health).collect::<Vec<_>>()
        );
        assert_eq!(ident.suppressed(), 0);
    }

    #[test]
    fn duplicates_are_dropped() {
        let readings = stream(4.0);
        let mut doubled = Vec::new();
        for r in &readings {
            doubled.push(r.clone());
            doubled.push(r.clone()); // exact retransmission
        }
        let mut a = identifier(2);
        let pa = a.push(&readings);
        let mut b = identifier(2);
        let pb = b.push(&doubled);
        assert_eq!(pa, pb, "duplicates must not skew frames");
    }

    #[test]
    fn out_of_order_within_window_matches_sorted() {
        let readings = stream(4.0);
        // Reverse inside small groups, keeping window boundaries: every
        // group stays inside one 0.5 s window (group span ≤ 0.1 s ≪
        // window), so no window-close trigger is reordered across a
        // boundary.
        let mut shuffled = Vec::new();
        for chunk in readings.chunks(4) {
            let mut g: Vec<TagReading> = chunk.to_vec();
            let all_same_window = g
                .iter()
                .all(|r| (r.time_s / 0.5).floor() == (g[0].time_s / 0.5).floor());
            if all_same_window {
                g.reverse();
            }
            shuffled.extend(g);
        }
        let mut a = identifier(2);
        let pa = a.push(&readings);
        let mut b = identifier(2);
        let pb = b.push(&shuffled);
        assert_eq!(pa, pb, "in-window reordering must not change output");
    }

    #[test]
    fn non_finite_timestamps_are_rejected() {
        let mut ident = identifier(2);
        let mut readings = stream(4.0);
        let mut poison = readings[0].clone();
        poison.time_s = f64::NAN;
        readings.insert(10, poison);
        let preds = ident.push(&readings);
        assert!(!preds.is_empty());
        for p in &preds {
            assert!(p.probabilities.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn goes_stale_on_silence_and_recovers() {
        let cfg = HealthConfig {
            stale_timeout_s: 1.0,
            ..HealthConfig::default()
        };
        let layout = FrameLayout::new(1, 4, FeatureMode::Joint);
        let builder = FrameBuilder::new(layout, PhaseCalibrator::disabled(1, 4), 0.5);
        let model = build_model(&layout, 12, Architecture::CnnLstm, 1);
        let mut ident = OnlineIdentifier::with_health_config(builder, model, 2, cfg);

        // 0–2 s of stream, then a 3 s gap, then stream again.
        let full = stream(7.0);
        let before: Vec<TagReading> = full.iter().filter(|r| r.time_s < 2.0).cloned().collect();
        let after: Vec<TagReading> = full.iter().filter(|r| r.time_s >= 5.0).cloned().collect();

        let p1 = ident.push(&before);
        assert!(!p1.is_empty());
        let suppressed_before = ident.suppressed();

        let p2 = ident.push(&after);
        // The silent windows are suppressed, not predicted.
        assert!(ident.suppressed() > suppressed_before, "gap must suppress");
        // After the gap the history refills and predictions resume.
        assert!(!p2.is_empty(), "stream resumption must recover");
        let last = p2.last().unwrap();
        assert!(last.probabilities.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "history")]
    fn zero_history_panics() {
        identifier(0);
    }
}
