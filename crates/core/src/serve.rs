//! Multi-session serving engine: incremental inference with
//! cross-session micro-batching.
//!
//! The paper's deployment mode (Section V) streams LLRP reads to a
//! backend identifying activities in realtime. Re-running the whole
//! CNN→LSTM window on every new frame would cost O(T) redundant work
//! per step. A [`ServeEngine`] serves N streams from **one shared
//! model** and advances each by *state*, not replay:
//!
//! * **Incremental stepping** — each session carries a
//!   [`StreamState`] (persistent LSTM hidden/cell state plus a window
//!   ring of per-frame softmax outputs), so a new frame costs one
//!   encoder + LSTM step instead of a T-frame forward pass.
//! * **Cross-session micro-batching** — each [`ServeEngine::tick`]
//!   coalesces up to [`ServeConfig::max_batch`] ready sessions into
//!   one batched step: per-session hidden states stack row-wise and
//!   the LSTM/head matmuls run as `[B × ·]` GEMMs on `m2ai-kernels`
//!   instead of B skinny GEMVs.
//!
//! ## Numerical contract
//!
//! The kernels compute every output element as one accumulator chain,
//! row-independent, so a batched tick is **bit-identical** to the same
//! sessions ticked serially, in any slot order — and a fresh session's
//! first full window is bit-identical to a full replay
//! ([`SequenceClassifier::predict_proba_with`]) of the same frames.
//! After the first window the engine *keeps* LSTM
//! context across window boundaries instead of replaying from zero;
//! that divergence is the point (context retention is what the paper's
//! Fig. 17 ablation shows matters) and is documented in DESIGN.md.
//!
//! ## Flow control
//!
//! * **Admission** — at most [`ServeConfig::max_sessions`] concurrent
//!   sessions; [`ServeEngine::open_session`] fails with
//!   [`ServeError::SessionsFull`] beyond that.
//! * **Backpressure** — per-session pending-event queues are bounded
//!   by [`ServeConfig::queue_capacity`]; when a push overflows one,
//!   the *oldest* pending events are shed (freshest data wins in a
//!   realtime identifier) and the shed count is reported.
//! * **Degradation** — each session runs the Healthy/Degraded/Stale
//!   machinery of its own [`SessionWindow`]; Stale windows reset the
//!   session's stream state, non-finite rows and low-confidence
//!   Degraded predictions are suppressed, never emitted.

use crate::frames::FrameBuilder;
use crate::online::{HealthConfig, HealthState, SessionWindow, WindowEvent};
use m2ai_kernels::KernelScratch;
use m2ai_nn::model::{SequenceClassifier, StreamState};
use m2ai_obs::trace::{self, SpanStatus, TraceContext};
use m2ai_rfsim::reading::TagReading;
use std::collections::VecDeque;
use std::fmt;

/// Process-wide serving instruments, registered once on first use.
struct ServeMetrics {
    /// Sum of pending window events across all open sessions.
    queue_depth: m2ai_obs::Gauge,
    /// Oldest-first backpressure sheds across all sessions.
    shed: m2ai_obs::Counter,
    /// Admission refusals by reason.
    sessions_full: m2ai_obs::Counter,
    /// Sessions advanced per non-empty tick.
    batch_size: m2ai_obs::Histogram,
    /// Wall time of each tick (including empty ones).
    tick_seconds: m2ai_obs::Histogram,
    /// Batched model-step wall time divided evenly over the rows of
    /// the batch.
    prediction_seconds: m2ai_obs::Histogram,
    /// Prediction outcomes: emitted vs the three suppression gates.
    emitted: m2ai_obs::Counter,
    suppressed_stale: m2ai_obs::Counter,
    suppressed_non_finite: m2ai_obs::Counter,
    suppressed_low_confidence: m2ai_obs::Counter,
}

fn serve_metrics() -> &'static ServeMetrics {
    static M: std::sync::OnceLock<ServeMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| {
        let outcome = |labels: &'static [(&'static str, &'static str)]| {
            m2ai_obs::counter(
                "m2ai_serve_predictions_total",
                "serve predictions by outcome",
                labels,
            )
        };
        ServeMetrics {
            queue_depth: m2ai_obs::gauge(
                "m2ai_serve_queue_depth",
                "pending window events across all open sessions",
                &[],
            ),
            shed: m2ai_obs::counter(
                "m2ai_serve_shed_total",
                "pending events shed (oldest first) by backpressure",
                &[],
            ),
            sessions_full: m2ai_obs::counter(
                "m2ai_serve_rejections_total",
                "admission refusals by reason",
                &[("reason", "sessions_full")],
            ),
            batch_size: m2ai_obs::histogram(
                "m2ai_serve_batch_size",
                "sessions advanced per non-empty tick",
                &[],
                &m2ai_obs::batch_buckets(),
            ),
            tick_seconds: m2ai_obs::histogram(
                "m2ai_serve_tick_seconds",
                "serve-engine tick wall time",
                &[],
                &m2ai_obs::latency_buckets(),
            ),
            prediction_seconds: m2ai_obs::histogram(
                "m2ai_serve_prediction_seconds",
                "per-prediction share of the batched model-step wall time",
                &[],
                &m2ai_obs::latency_buckets(),
            ),
            emitted: outcome(&[("outcome", "emitted")]),
            suppressed_stale: outcome(&[("outcome", "suppressed_stale")]),
            suppressed_non_finite: outcome(&[("outcome", "suppressed_non_finite")]),
            suppressed_low_confidence: outcome(&[("outcome", "suppressed_low_confidence")]),
        }
    })
}

/// Opaque handle to one open session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

/// Serving-engine limits and per-session health thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Admission-control cap on concurrent sessions.
    pub max_sessions: usize,
    /// Micro-batch window: at most this many sessions advance per
    /// [`ServeEngine::tick`].
    pub max_batch: usize,
    /// Bound on each session's pending-event queue; overflow sheds the
    /// oldest events.
    pub queue_capacity: usize,
    /// Sliding window length in frames (the training `T`).
    pub history_len: usize,
    /// Health thresholds applied per session.
    pub health: HealthConfig,
    /// Kernel backend of this engine's model passes (default
    /// [`m2ai_kernels::Backend::Fast`]).
    ///
    /// It seeds the engine's own [`KernelScratch`], so engines (and
    /// fabric shards) with different backends run side by side in one
    /// process without affecting each other.
    pub backend: m2ai_kernels::Backend,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_sessions: 64,
            max_batch: 64,
            queue_capacity: 32,
            history_len: 12,
            health: HealthConfig::default(),
            backend: m2ai_kernels::Backend::Fast,
        }
    }
}

/// Errors surfaced by the serving engine's flow control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control: `max_sessions` sessions are already open.
    SessionsFull,
    /// The [`SessionId`] does not name an open session.
    UnknownSession,
    /// A [`SessionCheckpoint`] was minted by an incompatible engine
    /// (different model geometry, class count or window length).
    CheckpointMismatch,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::SessionsFull => write!(f, "admission refused: max_sessions reached"),
            ServeError::UnknownSession => write!(f, "no such session"),
            ServeError::CheckpointMismatch => {
                write!(f, "checkpoint incompatible with this engine")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Outcome of feeding readings (or a frame) to one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PushReport {
    /// Window events enqueued for the next ticks.
    pub enqueued: usize,
    /// Oldest pending events shed by backpressure to stay within
    /// [`ServeConfig::queue_capacity`].
    pub shed: usize,
}

/// A prediction emitted by [`ServeEngine::tick`] for one session.
#[derive(Debug, Clone, PartialEq)]
pub struct ServePrediction {
    /// Session the prediction belongs to.
    pub session: SessionId,
    /// End time of the frame window that produced it.
    pub time_s: f64,
    /// Most likely activity class.
    pub class: usize,
    /// Window-mean class probabilities.
    pub probabilities: Vec<f32>,
    /// Session health when this prediction was made.
    pub health: HealthState,
    /// Top-class probability (convenience copy).
    pub confidence: f32,
    /// Trace identity of the frame that produced this prediction
    /// ([`TraceContext::NONE`] when the frame was unsampled; the
    /// `span_id` is the emit span, so callers can walk the tree).
    /// Purely observational — nothing downstream branches on it.
    pub trace: TraceContext,
}

/// One session slot: windowing, stream state, and the pending queue
/// between `push` and `tick`.
#[derive(Debug)]
struct Slot {
    id: SessionId,
    window: SessionWindow,
    state: StreamState,
    /// Queued events, each carrying the trace identity of the push
    /// that produced it (NONE when unsampled), so a frame's span tree
    /// survives the queue — and checkpoints, see below.
    pending: VecDeque<(WindowEvent, TraceContext)>,
    /// Pending events shed from this session's queue by backpressure.
    shed: usize,
}

/// A self-contained snapshot of one session: its windowing machinery,
/// stream state (LSTM carry + softmax ring) and still-pending events.
///
/// Minted by [`ServeEngine::export_session`] and adopted by
/// [`ServeEngine::restore_session`] on any engine built around the
/// same model and configuration — the restored session continues
/// bit-identically to the original (the snapshot is a deep copy; no
/// state is shared with the source engine). The supervision layer in
/// `m2ai-serve-fabric` ships these across shard restarts.
#[derive(Debug, Clone)]
pub struct SessionCheckpoint {
    window: SessionWindow,
    state: StreamState,
    /// Pending events keep their trace identity so a session migrated
    /// across a shard restart continues its span trees.
    pending: VecDeque<(WindowEvent, TraceContext)>,
    shed: usize,
}

impl SessionCheckpoint {
    /// Events that were still queued (un-ticked) at snapshot time.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Frames absorbed into the snapshot's probability ring.
    pub fn frames_seen(&self) -> usize {
        self.state.frames_seen()
    }

    /// The snapshotted stream state (e.g. for byte-level persistence
    /// via [`StreamState::to_bytes`]).
    pub fn state(&self) -> &StreamState {
        &self.state
    }
}

/// Multi-session serving engine over one shared model.
///
/// See the module docs for the architecture.
#[derive(Debug)]
pub struct ServeEngine {
    model: SequenceClassifier,
    /// Template for each session's frame windowing.
    builder: FrameBuilder,
    cfg: ServeConfig,
    slots: Vec<Option<Slot>>,
    next_id: u64,
    /// Round-robin start position for batch selection.
    cursor: usize,
    scratch: KernelScratch,
    /// Reused event buffer (drained every push).
    events: Vec<WindowEvent>,
    suppressed: usize,
    shed: usize,
}

impl ServeEngine {
    /// Creates an engine around a shared model.
    ///
    /// `builder` is cloned into every session, so all sessions share
    /// the frame layout and calibration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.history_len`, `cfg.max_sessions`, `cfg.max_batch`
    /// or `cfg.queue_capacity` is zero.
    pub fn new(model: SequenceClassifier, builder: FrameBuilder, cfg: ServeConfig) -> Self {
        assert!(cfg.history_len > 0, "history must hold at least one frame");
        assert!(cfg.max_sessions > 0, "need at least one session slot");
        assert!(cfg.max_batch > 0, "micro-batch window must be positive");
        assert!(cfg.queue_capacity > 0, "queue capacity must be positive");
        let slots = (0..cfg.max_sessions).map(|_| None).collect();
        let scratch = KernelScratch::with_backend(cfg.backend);
        ServeEngine {
            model,
            builder,
            cfg,
            slots,
            next_id: 0,
            cursor: 0,
            scratch,
            events: Vec::new(),
            suppressed: 0,
            shed: 0,
        }
    }

    /// Number of currently open sessions.
    pub fn sessions(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Predictions suppressed so far (Stale windows, non-finite
    /// outputs, confidence-gated Degraded windows) across all
    /// sessions.
    pub fn suppressed(&self) -> usize {
        self.suppressed
    }

    /// Pending events shed by backpressure so far, across all
    /// sessions.
    pub fn shed(&self) -> usize {
        self.shed
    }

    /// Total window events pending across all open sessions — the
    /// "is there work?" probe the serve fabric's shard workers use to
    /// decide whether a tick can make progress.
    pub fn pending(&self) -> usize {
        self.slots
            .iter()
            .flatten()
            .map(|slot| slot.pending.len())
            .sum()
    }

    /// Opens a session, subject to admission control.
    pub fn open_session(&mut self) -> Result<SessionId, ServeError> {
        let Some(free) = self.slots.iter().position(|s| s.is_none()) else {
            serve_metrics().sessions_full.inc();
            return Err(ServeError::SessionsFull);
        };
        let id = SessionId(self.next_id);
        self.next_id += 1;
        self.slots[free] = Some(Slot {
            id,
            window: SessionWindow::new(
                self.builder.clone(),
                self.cfg.history_len,
                self.cfg.health.clone(),
            ),
            state: self.model.stream_state(self.cfg.history_len),
            pending: VecDeque::new(),
            shed: 0,
        });
        Ok(id)
    }

    /// Deep-copies one session into a [`SessionCheckpoint`] — the
    /// session keeps running; the snapshot is independent.
    pub fn export_session(&self, id: SessionId) -> Result<SessionCheckpoint, ServeError> {
        let idx = self.find(id)?;
        let slot = self.slots[idx].as_ref().expect("found above");
        Ok(SessionCheckpoint {
            window: slot.window.clone(),
            state: slot.state.clone(),
            pending: slot.pending.clone(),
            shed: slot.shed,
        })
    }

    /// Snapshots every open session, in slot order.
    pub fn export_sessions(&self) -> Vec<(SessionId, SessionCheckpoint)> {
        self.slots
            .iter()
            .flatten()
            .map(|slot| {
                (
                    slot.id,
                    SessionCheckpoint {
                        window: slot.window.clone(),
                        state: slot.state.clone(),
                        pending: slot.pending.clone(),
                        shed: slot.shed,
                    },
                )
            })
            .collect()
    }

    /// Adopts a snapshot as a *new* session (fresh [`SessionId`]; the
    /// original's id belongs to the engine that minted it). Subject to
    /// the same admission control as [`ServeEngine::open_session`].
    ///
    /// # Errors
    ///
    /// [`ServeError::SessionsFull`] when no slot is free;
    /// [`ServeError::CheckpointMismatch`] when the snapshot's stream
    /// state does not match this engine's model geometry, class count
    /// or configured window length (the engine is left untouched).
    pub fn restore_session(&mut self, ckpt: SessionCheckpoint) -> Result<SessionId, ServeError> {
        let Some(free) = self.slots.iter().position(|s| s.is_none()) else {
            serve_metrics().sessions_full.inc();
            return Err(ServeError::SessionsFull);
        };
        let template = self.model.stream_state(self.cfg.history_len);
        if !ckpt.state.shape_matches(&template) || !ckpt.state.class_dim_is(self.model.n_classes())
        {
            return Err(ServeError::CheckpointMismatch);
        }
        let id = SessionId(self.next_id);
        self.next_id += 1;
        serve_metrics().queue_depth.add(ckpt.pending.len() as i64);
        self.slots[free] = Some(Slot {
            id,
            window: ckpt.window,
            state: ckpt.state,
            pending: ckpt.pending,
            shed: ckpt.shed,
        });
        Ok(id)
    }

    /// Closes a session, freeing its slot (pending events are
    /// discarded).
    pub fn close_session(&mut self, id: SessionId) -> Result<(), ServeError> {
        let idx = self.find(id)?;
        if let Some(slot) = &self.slots[idx] {
            serve_metrics()
                .queue_depth
                .add(-(slot.pending.len() as i64));
        }
        self.slots[idx] = None;
        Ok(())
    }

    /// Number of window events queued for one session.
    pub fn queue_len(&self, id: SessionId) -> Result<usize, ServeError> {
        let idx = self.find(id)?;
        Ok(self.slots[idx].as_ref().expect("found above").pending.len())
    }

    /// Pending events shed by backpressure for one session (the
    /// per-session share of [`ServeEngine::shed`]).
    pub fn session_shed(&self, id: SessionId) -> Result<usize, ServeError> {
        let idx = self.find(id)?;
        Ok(self.slots[idx].as_ref().expect("found above").shed)
    }

    fn find(&self, id: SessionId) -> Result<usize, ServeError> {
        self.slots
            .iter()
            .position(|s| s.as_ref().is_some_and(|slot| slot.id == id))
            .ok_or(ServeError::UnknownSession)
    }

    /// Feeds raw tag readings to one session. Completed frame windows
    /// are queued for the next [`ServeEngine::tick`]s; the queue sheds
    /// its oldest entries past [`ServeConfig::queue_capacity`].
    pub fn push(
        &mut self,
        id: SessionId,
        readings: &[TagReading],
    ) -> Result<PushReport, ServeError> {
        self.push_traced(id, readings, TraceContext::NONE)
    }

    /// [`ServeEngine::push`] carrying the frame's trace identity: the
    /// readings batch runs under `ctx` as the ambient trace context
    /// (so extraction spans attach to it) and every window event it
    /// completes is queued tagged with `ctx`.
    pub fn push_traced(
        &mut self,
        id: SessionId,
        readings: &[TagReading],
        ctx: TraceContext,
    ) -> Result<PushReport, ServeError> {
        let idx = self.find(id)?;
        let mut events = std::mem::take(&mut self.events);
        let slot = self.slots[idx].as_mut().expect("found above");
        trace::with_current(ctx, || slot.window.push(readings, &mut events));
        let report = Self::enqueue(
            slot,
            events.drain(..).map(|ev| (ev, ctx)),
            self.cfg.queue_capacity,
            &mut self.shed,
        );
        self.events = events;
        Ok(report)
    }

    /// Feeds one pre-extracted frame to a session, bypassing read
    /// buffering — the path for callers that already run their own
    /// feature extraction (and for benches that must not measure it).
    pub fn push_frame(
        &mut self,
        id: SessionId,
        time_s: f64,
        frame: Vec<f32>,
        health: HealthState,
    ) -> Result<PushReport, ServeError> {
        self.push_frame_traced(id, time_s, frame, health, TraceContext::NONE)
    }

    /// [`ServeEngine::push_frame`] carrying the frame's trace
    /// identity, queued alongside the event.
    pub fn push_frame_traced(
        &mut self,
        id: SessionId,
        time_s: f64,
        frame: Vec<f32>,
        health: HealthState,
        ctx: TraceContext,
    ) -> Result<PushReport, ServeError> {
        let idx = self.find(id)?;
        let slot = self.slots[idx].as_mut().expect("found above");
        let ev = match health {
            HealthState::Stale => WindowEvent::Stale { time_s },
            _ => WindowEvent::Frame {
                time_s,
                frame,
                health,
            },
        };
        Ok(Self::enqueue(
            slot,
            std::iter::once((ev, ctx)),
            self.cfg.queue_capacity,
            &mut self.shed,
        ))
    }

    fn enqueue(
        slot: &mut Slot,
        events: impl Iterator<Item = (WindowEvent, TraceContext)>,
        capacity: usize,
        total_shed: &mut usize,
    ) -> PushReport {
        let mut report = PushReport::default();
        for ev in events {
            if slot.pending.len() == capacity {
                if let Some((_, old_ctx)) = slot.pending.pop_front() {
                    // The shed frame's trace ends here, attributed —
                    // not a silent drop.
                    let mut sp = old_ctx.child("queue");
                    sp.set_session(slot.id.0);
                    sp.end_with(SpanStatus::Shed);
                }
                report.shed += 1;
            }
            slot.pending.push_back(ev);
            report.enqueued += 1;
        }
        *total_shed += report.shed;
        slot.shed += report.shed;
        let m = serve_metrics();
        m.shed.add(report.shed as u64);
        m.queue_depth
            .add(report.enqueued as i64 - report.shed as i64);
        report
    }

    /// The session the next tick would pop an event from first, or
    /// `None` when nothing is pending. Computed from the same
    /// round-robin scan [`ServeEngine::tick`] runs, *without*
    /// advancing anything — so a caller running `tick_limited(1)` can
    /// attribute a panic inside the tick to exactly this session (the
    /// serve fabric's poison-frame probation relies on that).
    pub fn next_ready(&self) -> Option<SessionId> {
        let n = self.slots.len();
        (0..n).find_map(|off| {
            let idx = (self.cursor + off) % n;
            self.slots[idx]
                .as_ref()
                .filter(|slot| !slot.pending.is_empty())
                .map(|slot| slot.id)
        })
    }

    /// Advances up to [`ServeConfig::max_batch`] ready sessions by one
    /// pending event each, running all their frame steps as one
    /// micro-batched model step. Returns the predictions emitted by
    /// sessions whose window ring is full (suppressions are counted,
    /// not returned).
    ///
    /// Selection is round-robin across slots between ticks, so no
    /// session starves when more than `max_batch` are ready; *within*
    /// a tick the batch is processed in slot order, which is
    /// observable only in output ordering — row independence makes the
    /// numbers identical under any order.
    pub fn tick(&mut self) -> Vec<ServePrediction> {
        self.tick_limited(self.cfg.max_batch)
    }

    /// [`ServeEngine::tick`] with a tighter batch cap for this call
    /// only (`max_batch = 1` steps exactly one session — the fabric's
    /// post-restart probation mode). The effective cap is the smaller
    /// of `max_batch` and [`ServeConfig::max_batch`]; numerics are
    /// batching-invariant, so the cap changes scheduling, never
    /// values.
    pub fn tick_limited(&mut self, max_batch: usize) -> Vec<ServePrediction> {
        let cap = max_batch.min(self.cfg.max_batch);
        let m = serve_metrics();
        let _tick_span = m.tick_seconds.time();
        let n = self.slots.len();
        // Pass 1: pick ready sessions round-robin and pop their next
        // event. Stale events act immediately (reset, suppress);
        // frames join the micro-batch.
        let mut rows: Vec<(usize, f64, Vec<f32>, HealthState, TraceContext)> = Vec::new();
        let mut picked = 0usize;
        let start = self.cursor;
        for off in 0..n {
            if picked == cap {
                break;
            }
            let idx = (start + off) % n;
            let Some(slot) = self.slots[idx].as_mut() else {
                continue;
            };
            let Some((ev, ctx)) = slot.pending.pop_front() else {
                continue;
            };
            picked += 1;
            // The next tick resumes the scan just past the last
            // session served, so a saturated batch window cannot
            // starve the slots behind it.
            self.cursor = (idx + 1) % n;
            match ev {
                WindowEvent::Stale { time_s } => {
                    slot.state.reset();
                    self.suppressed += 1;
                    m.suppressed_stale.inc();
                    let mut sp = ctx.child("emit");
                    sp.set_session(slot.id.0);
                    sp.set_time_s(time_s);
                    sp.end_with(SpanStatus::Stale);
                }
                WindowEvent::Frame {
                    time_s,
                    frame,
                    health,
                } => rows.push((idx, time_s, frame, health, ctx)),
            }
        }
        if picked > 0 {
            m.queue_depth.add(-(picked as i64));
        }
        if rows.is_empty() {
            return Vec::new();
        }
        m.batch_size.observe(rows.len() as f64);

        // Pass 2: gather disjoint &mut stream states in slot order
        // (rows are in round-robin order; sort by slot so one sweep
        // over `slots` lines up — numerically order-free, see above).
        rows.sort_by_key(|r| r.0);
        let frames: Vec<&[f32]> = rows.iter().map(|r| r.2.as_slice()).collect();
        let mut states: Vec<&mut StreamState> = Vec::with_capacity(rows.len());
        {
            let mut want = rows.iter().map(|r| r.0).peekable();
            for (i, s) in self.slots.iter_mut().enumerate() {
                if want.peek() == Some(&i) {
                    want.next();
                    states.push(&mut s.as_mut().expect("picked above").state);
                }
            }
        }
        // The batched step is one span per traced row (shared start /
        // end): each session's trace shows its share of the batch.
        let infer_start = rows.iter().any(|r| r.4.is_sampled()).then(trace::clock_us);
        let step_start = m2ai_obs::enabled().then(std::time::Instant::now);
        let probs = self
            .model
            .step_batch_with(&frames, &mut states, &mut self.scratch);
        if let Some(t0) = step_start {
            let per_row = t0.elapsed().as_secs_f64() / rows.len() as f64;
            m.prediction_seconds.observe_n(per_row, rows.len() as u64);
            if let Some(s0) = infer_start {
                let s1 = trace::clock_us();
                for (idx, _, _, _, ctx) in rows.iter().filter(|r| r.4.is_sampled()) {
                    let id = self.slots[*idx].as_ref().expect("picked above").id;
                    let mut sp = ctx.child_at("infer", s0);
                    sp.set_session(id.0);
                    sp.end_at(s1, SpanStatus::Ok);
                }
            }
        }

        // Pass 3: gate and emit.
        let mut out = Vec::new();
        for ((idx, time_s, _, health, ctx), probabilities) in rows.iter().zip(probs) {
            let slot = self.slots[*idx].as_ref().expect("picked above");
            if !slot.state.ready() {
                continue; // window ring still filling — no output yet
            }
            if probabilities.iter().any(|v| !v.is_finite()) {
                // Row independence keeps the other sessions' outputs
                // clean; this one is unscorable.
                self.suppressed += 1;
                m.suppressed_non_finite.inc();
                Self::end_suppressed(*ctx, slot.id, *time_s);
                continue;
            }
            let (class, confidence) = probabilities.iter().enumerate().fold(
                (0usize, f32::NEG_INFINITY),
                |best, (i, &p)| {
                    if p > best.1 {
                        (i, p)
                    } else {
                        best
                    }
                },
            );
            if *health == HealthState::Degraded && confidence < self.cfg.health.min_confidence {
                self.suppressed += 1;
                m.suppressed_low_confidence.inc();
                Self::end_suppressed(*ctx, slot.id, *time_s);
                continue;
            }
            m.emitted.inc();
            let mut sp = ctx.child("emit");
            sp.set_session(slot.id.0);
            sp.set_time_s(*time_s);
            let emit_ctx = sp.ctx();
            sp.end();
            out.push(ServePrediction {
                session: slot.id,
                time_s: *time_s,
                class,
                probabilities,
                health: *health,
                confidence,
                trace: emit_ctx,
            });
        }
        out
    }

    /// Annotated termination for a gated (never-emitted) prediction.
    fn end_suppressed(ctx: TraceContext, id: SessionId, time_s: f64) {
        let mut sp = ctx.child("emit");
        sp.set_session(id.0);
        sp.set_time_s(time_s);
        sp.end_with(SpanStatus::Suppressed);
    }

    /// Runs ticks until every pending queue is empty, collecting all
    /// predictions — the batch-mode convenience for tests and offline
    /// replay.
    pub fn drain(&mut self) -> Vec<ServePrediction> {
        let mut out = Vec::new();
        while self
            .slots
            .iter()
            .any(|s| s.as_ref().is_some_and(|slot| !slot.pending.is_empty()))
        {
            out.extend(self.tick());
        }
        out
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

    fn layout() -> FrameLayout {
        FrameLayout::new(1, 4, FeatureMode::Joint)
    }

    fn engine(cfg: ServeConfig) -> ServeEngine {
        let layout = layout();
        let builder = FrameBuilder::new(layout, PhaseCalibrator::disabled(1, 4), 0.5);
        let model = build_model(&layout, 12, Architecture::CnnLstm, 1);
        ServeEngine::new(model, builder, cfg)
    }

    fn stream(duration: f64) -> Vec<TagReading> {
        let mut reader = Reader::new(Room::hall(), ReaderConfig::default(), 1);
        let scene = SceneSnapshot::with_tags(vec![Point2::new(4.4, 3.0)]);
        reader.run(|_| scene.clone(), duration)
    }

    #[test]
    fn admission_control_caps_sessions() {
        let mut eng = engine(ServeConfig {
            max_sessions: 2,
            ..ServeConfig::default()
        });
        let a = eng.open_session().unwrap();
        let _b = eng.open_session().unwrap();
        assert_eq!(eng.open_session(), Err(ServeError::SessionsFull));
        eng.close_session(a).unwrap();
        assert!(eng.open_session().is_ok(), "slot must be reusable");
        assert_eq!(eng.sessions(), 2);
    }

    #[test]
    fn unknown_session_is_an_error() {
        let mut eng = engine(ServeConfig::default());
        let id = eng.open_session().unwrap();
        eng.close_session(id).unwrap();
        assert_eq!(eng.close_session(id), Err(ServeError::UnknownSession));
        assert_eq!(eng.push(id, &[]), Err(ServeError::UnknownSession));
        assert_eq!(eng.queue_len(id), Err(ServeError::UnknownSession));
    }

    #[test]
    fn backpressure_sheds_oldest() {
        let mut eng = engine(ServeConfig {
            queue_capacity: 3,
            history_len: 2,
            ..ServeConfig::default()
        });
        let id = eng.open_session().unwrap();
        let dim = layout().frame_dim();
        let mut shed = 0;
        for t in 0..5 {
            let rep = eng
                .push_frame(id, t as f64, vec![0.1; dim], HealthState::Healthy)
                .unwrap();
            shed += rep.shed;
        }
        assert_eq!(eng.queue_len(id).unwrap(), 3);
        assert_eq!(shed, 2);
        assert_eq!(eng.shed(), 2);
        assert_eq!(eng.session_shed(id).unwrap(), 2);
        assert_eq!(
            eng.session_shed(SessionId(99)),
            Err(ServeError::UnknownSession)
        );
        // The oldest events went; the newest survive. Steps still run.
        let preds = eng.drain();
        assert!(preds.iter().all(|p| p.time_s >= 2.0));
    }

    #[test]
    fn first_window_matches_replay_of_session_frames() {
        // A fresh serve session's first prediction must bit-match a full
        // replay of the first `history` frames a `SessionWindow` builds
        // from the same stream.
        let readings = stream(4.0);
        let layout = layout();
        let builder = FrameBuilder::new(layout, PhaseCalibrator::disabled(1, 4), 0.5);
        let model = build_model(&layout, 12, Architecture::CnnLstm, 1);
        let history = 3;
        let mut window = SessionWindow::new(builder.clone(), history, HealthConfig::default());
        let mut events = Vec::new();
        window.push(&readings, &mut events);
        let first_frames: Vec<(f64, Vec<f32>, HealthState)> = events
            .into_iter()
            .map_while(|ev| match ev {
                WindowEvent::Frame {
                    time_s,
                    frame,
                    health,
                } => Some((time_s, frame, health)),
                WindowEvent::Stale { .. } => None,
            })
            .take(history)
            .collect();
        assert_eq!(first_frames.len(), history);
        let seq: Vec<Vec<f32>> = first_frames.iter().map(|f| f.1.clone()).collect();
        let replay = model.predict_proba_with(&seq, &mut KernelScratch::new());
        let (replay_time_s, _, replay_health) = first_frames[history - 1];
        let replay_class = model.predict(&seq);

        let mut eng = ServeEngine::new(
            model,
            builder,
            ServeConfig {
                history_len: history,
                ..ServeConfig::default()
            },
        );
        let id = eng.open_session().unwrap();
        eng.push(id, &readings).unwrap();
        let served = eng.drain();
        assert!(!served.is_empty());
        let first = &served[0];
        assert_eq!(first.time_s, replay_time_s);
        assert_eq!(first.class, replay_class);
        assert_eq!(first.health, replay_health);
        assert_eq!(
            first.probabilities, replay,
            "first full window must bit-match the replay baseline"
        );
    }

    #[test]
    fn stale_resets_stream_state() {
        let cfg = ServeConfig {
            history_len: 2,
            health: HealthConfig {
                stale_timeout_s: 1.0,
                ..HealthConfig::default()
            },
            ..ServeConfig::default()
        };
        let mut eng = engine(cfg);
        let id = eng.open_session().unwrap();
        let full = stream(7.0);
        let before: Vec<TagReading> = full.iter().filter(|r| r.time_s < 2.0).cloned().collect();
        let after: Vec<TagReading> = full.iter().filter(|r| r.time_s >= 5.0).cloned().collect();
        eng.push(id, &before).unwrap();
        let p1 = eng.drain();
        assert!(!p1.is_empty());
        let suppressed_before = eng.suppressed();
        eng.push(id, &after).unwrap();
        let p2 = eng.drain();
        assert!(eng.suppressed() > suppressed_before, "gap must suppress");
        assert!(!p2.is_empty(), "stream resumption must recover");
        assert!(p2[0].time_s > p1.last().unwrap().time_s);
    }

    #[test]
    fn checkpoint_restore_continues_bitwise() {
        // Run one session to the midpoint, snapshot it, restore the
        // snapshot on a *fresh* engine, and feed both the same tail:
        // the prediction streams must be bit-identical.
        let cfg = ServeConfig {
            history_len: 2,
            ..ServeConfig::default()
        };
        let mut a = engine(cfg.clone());
        let id_a = a.open_session().unwrap();
        let dim = layout().frame_dim();
        let frame = |t: usize| -> Vec<f32> {
            (0..dim)
                .map(|j| ((t * dim + j) as f32 * 0.23).sin())
                .collect()
        };
        for t in 0..4 {
            a.push_frame(id_a, t as f64, frame(t), HealthState::Healthy)
                .unwrap();
        }
        let head = a.drain();
        let ckpt = a.export_session(id_a).unwrap();
        assert_eq!(ckpt.pending_len(), 0);
        assert_eq!(ckpt.frames_seen(), 2);

        let mut b = engine(cfg);
        let id_b = b.restore_session(ckpt).unwrap();
        for t in 4..8 {
            a.push_frame(id_a, t as f64, frame(t), HealthState::Healthy)
                .unwrap();
            b.push_frame(id_b, t as f64, frame(t), HealthState::Healthy)
                .unwrap();
        }
        let tail_a = a.drain();
        let tail_b = b.drain();
        assert_eq!(tail_a.len(), tail_b.len());
        assert_eq!(head.len() + tail_a.len(), 4 + 4 - 2 + 1);
        for (pa, pb) in tail_a.iter().zip(&tail_b) {
            assert_eq!(pa.time_s, pb.time_s);
            assert_eq!(pa.probabilities, pb.probabilities, "restored diverged");
        }
    }

    #[test]
    fn restore_preserves_pending_events() {
        let mut a = engine(ServeConfig {
            history_len: 2,
            ..ServeConfig::default()
        });
        let id = a.open_session().unwrap();
        let dim = layout().frame_dim();
        for t in 0..3 {
            a.push_frame(id, t as f64, vec![0.2; dim], HealthState::Healthy)
                .unwrap();
        }
        let ckpt = a.export_session(id).unwrap();
        assert_eq!(ckpt.pending_len(), 3);
        let mut b = engine(ServeConfig {
            history_len: 2,
            ..ServeConfig::default()
        });
        b.restore_session(ckpt).unwrap();
        assert_eq!(b.pending(), 3);
        assert_eq!(b.drain().len(), a.drain().len());
    }

    #[test]
    fn restore_rejects_incompatible_checkpoints() {
        let mut a = engine(ServeConfig {
            history_len: 2,
            ..ServeConfig::default()
        });
        let id = a.open_session().unwrap();
        // Absorb a frame so the softmax ring is non-empty (an empty
        // ring carries no class-count evidence).
        let dim = layout().frame_dim();
        a.push_frame(id, 0.0, vec![0.1; dim], HealthState::Healthy)
            .unwrap();
        a.drain();
        let ckpt = a.export_session(id).unwrap();
        // Same model, different window length → mismatch.
        let mut other_window = engine(ServeConfig {
            history_len: 5,
            ..ServeConfig::default()
        });
        assert_eq!(
            other_window.restore_session(ckpt.clone()).err(),
            Some(ServeError::CheckpointMismatch)
        );
        // Different class count → the buffered rows betray it.
        let layout = layout();
        let builder = FrameBuilder::new(layout, PhaseCalibrator::disabled(1, 4), 0.5);
        let wider = build_model(&layout, 48, Architecture::CnnLstm, 1);
        let mut other_model = ServeEngine::new(
            wider,
            builder,
            ServeConfig {
                history_len: 2,
                ..ServeConfig::default()
            },
        );
        assert_eq!(
            other_model.restore_session(ckpt.clone()).err(),
            Some(ServeError::CheckpointMismatch)
        );
        // Full engine → SessionsFull, not a silent drop.
        let mut full = engine(ServeConfig {
            max_sessions: 1,
            history_len: 2,
            ..ServeConfig::default()
        });
        full.open_session().unwrap();
        assert_eq!(
            full.restore_session(ckpt).err(),
            Some(ServeError::SessionsFull)
        );
        assert_eq!(
            a.export_session(SessionId(77)).err(),
            Some(ServeError::UnknownSession)
        );
    }

    #[test]
    fn next_ready_predicts_tick_order() {
        let mut eng = engine(ServeConfig {
            history_len: 2,
            ..ServeConfig::default()
        });
        assert_eq!(eng.next_ready(), None);
        let a = eng.open_session().unwrap();
        let b = eng.open_session().unwrap();
        let dim = layout().frame_dim();
        for t in 0..2 {
            for &id in &[a, b] {
                eng.push_frame(id, t as f64, vec![0.1; dim], HealthState::Healthy)
                    .unwrap();
            }
        }
        // tick_limited(1) must consume exactly the session next_ready
        // named, every time, until the queues run dry.
        let mut served = Vec::new();
        while let Some(next) = eng.next_ready() {
            let before: usize = eng.queue_len(next).unwrap();
            eng.tick_limited(1);
            assert_eq!(eng.queue_len(next).unwrap(), before - 1, "wrong session");
            served.push(next);
        }
        assert_eq!(served.len(), 4);
        assert_eq!(eng.pending(), 0);
    }

    #[test]
    fn round_robin_serves_everyone() {
        // More ready sessions than the batch window: all still drain.
        let mut eng = engine(ServeConfig {
            max_sessions: 6,
            max_batch: 2,
            history_len: 2,
            ..ServeConfig::default()
        });
        let dim = layout().frame_dim();
        let ids: Vec<SessionId> = (0..6).map(|_| eng.open_session().unwrap()).collect();
        for &id in &ids {
            for t in 0..3 {
                eng.push_frame(id, t as f64, vec![0.05; dim], HealthState::Healthy)
                    .unwrap();
            }
        }
        let preds = eng.drain();
        // 3 frames each, ring of 2 → predictions at t=1 and t=2 per
        // session.
        assert_eq!(preds.len(), 6 * 2);
        for &id in &ids {
            assert_eq!(preds.iter().filter(|p| p.session == id).count(), 2);
            assert_eq!(eng.queue_len(id).unwrap(), 0);
        }
    }
}
