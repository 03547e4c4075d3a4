//! Per-frame causal tracing: deterministic trace/span IDs, head-based
//! sampling, per-thread span buffers, a per-shard flight recorder, and
//! a Chrome `trace_event` exporter.
//!
//! ## Identity
//!
//! Trace and span IDs are u64s minted from a seed-driven splitmix64
//! counter ([`seed_trace_ids`]) — no wall-clock identity anywhere, so
//! two runs with the same seed mint the same IDs in the same order.
//! Timestamps are microseconds on the process-local monotonic clock
//! ([`clock_us`]), the same clock the registry's span timers use.
//!
//! ## Sampling and bit-neutrality
//!
//! [`TraceConfig::sample_one_in_n`] gates everything at the *head*: an
//! unsampled [`TraceContext`] is [`TraceContext::NONE`] and every span
//! operation on it is a no-op — no allocation, no atomics, no clock
//! reads. `sample_one_in_n = 0` (the default) turns tracing off
//! entirely, exactly like [`crate::set_enabled`]: the only work left
//! on the frame path is one relaxed load. Nothing in the pipeline ever
//! reads a trace to make a decision, so tracing on or off is
//! bit-neutral to all outputs (pinned by `tests/trace_propagation.rs`).
//!
//! ## Collection
//!
//! Completed spans land in a per-thread buffer (no locks on record)
//! and are batch-flushed into a bounded global collector; overflow
//! drops spans and counts them in `m2ai_trace_dropped_total`. Spans
//! attributed to a shard are additionally mirrored into that shard's
//! bounded [flight-recorder ring](flightrec_dump), dumped as versioned
//! JSON on panic, quarantine, kill, or explicit request.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Schema tag carried by every flight-recorder dump.
pub const FLIGHTREC_SCHEMA: &str = "m2ai-flightrec-v1";

/// Spans retained per shard in the flight-recorder ring.
const FLIGHTREC_CAP: usize = 512;

/// Per-thread buffer length that triggers a flush into the collector.
const LOCAL_FLUSH: usize = 64;

/// Default bound on the global span collector.
const DEFAULT_CAPACITY: usize = 1 << 16;

// ---------------------------------------------------------------------
// Clock and identity
// ---------------------------------------------------------------------

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the first use of the trace clock in this process
/// (monotonic; shared by every span and flight-recorder dump).
pub fn clock_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

static SAMPLE_ONE_IN_N: AtomicU32 = AtomicU32::new(0);
static SEED: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);
static NEXT_ID: AtomicU64 = AtomicU64::new(0);
static ARRIVALS: AtomicU64 = AtomicU64::new(0);

/// Head-based sampling configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Sample one in every `n` new traces; `0` disables tracing
    /// entirely (the default), `1` samples everything.
    pub sample_one_in_n: u32,
}

/// Installs the sampling configuration process-wide.
pub fn set_trace_config(cfg: TraceConfig) {
    SAMPLE_ONE_IN_N.store(cfg.sample_one_in_n, Ordering::Relaxed);
}

/// The sampling configuration currently in effect.
pub fn trace_config() -> TraceConfig {
    TraceConfig {
        sample_one_in_n: SAMPLE_ONE_IN_N.load(Ordering::Relaxed),
    }
}

/// Re-seeds the deterministic ID mint and resets the arrival counter,
/// so a fresh run mints a reproducible ID sequence.
pub fn seed_trace_ids(seed: u64) {
    SEED.store(seed, Ordering::Relaxed);
    NEXT_ID.store(0, Ordering::Relaxed);
    ARRIVALS.store(0, Ordering::Relaxed);
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mints one non-zero u64 ID from the seed-driven counter.
fn mint_id() -> u64 {
    let c = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let id = splitmix64(SEED.load(Ordering::Relaxed).wrapping_add(c));
    if id == 0 {
        1
    } else {
        id
    }
}

// ---------------------------------------------------------------------
// Context and spans
// ---------------------------------------------------------------------

/// Propagated trace identity: which trace a frame belongs to and which
/// span is its current parent. `Copy` and 16 bytes, so it rides on
/// frames, queue commands and checkpoints for free.
///
/// [`TraceContext::NONE`] (the `Default`) marks an unsampled frame:
/// every span operation on it is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// The trace this frame belongs to (`0` = unsampled).
    pub trace_id: u64,
    /// The span that should parent the next child (`0` = root).
    pub span_id: u64,
}

impl TraceContext {
    /// The unsampled context: all span operations are no-ops.
    pub const NONE: TraceContext = TraceContext {
        trace_id: 0,
        span_id: 0,
    };

    /// Whether this frame was head-sampled into a trace.
    #[inline]
    pub fn is_sampled(self) -> bool {
        self.trace_id != 0
    }

    /// Starts a child span now (no-op span when unsampled).
    #[inline]
    pub fn child(self, name: &'static str) -> Span {
        self.child_at(name, if self.is_sampled() { clock_us() } else { 0 })
    }

    /// Starts a child span with an explicit start timestamp — for
    /// callers that measured a region themselves (e.g. one batched
    /// model step attributed to every row of the batch).
    pub fn child_at(self, name: &'static str, start_us: u64) -> Span {
        if !self.is_sampled() {
            return Span { rec: None };
        }
        Span {
            rec: Some(SpanRecord {
                trace_id: self.trace_id,
                span_id: mint_id(),
                parent_id: self.span_id,
                name,
                status: SpanStatus::Ok,
                start_us,
                end_us: 0,
                shard: thread_shard(),
                session: -1,
                time_s: f64::NAN,
            }),
        }
    }
}

/// Why a span ended. Everything except `Ok` is an *annotated
/// termination* — the reasons a frame can leave the pipeline without
/// producing a prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanStatus {
    /// Completed normally.
    Ok,
    /// Dropped by backpressure (ingress queue or engine queue full).
    Shed,
    /// The session was quarantined as a poison source.
    Quarantined,
    /// The target shard was down or permanently dead.
    ShardDown,
    /// The engine panicked while this frame was in flight.
    Panicked,
    /// The stream went stale; the window was suppressed.
    Stale,
    /// The prediction was gated (non-finite or low confidence).
    Suppressed,
    /// Lost in-flight when a stalled worker's queue was abandoned.
    Lost,
}

impl SpanStatus {
    /// Stable lowercase label (used in dumps and exporters).
    pub fn as_str(self) -> &'static str {
        match self {
            SpanStatus::Ok => "ok",
            SpanStatus::Shed => "shed",
            SpanStatus::Quarantined => "quarantined",
            SpanStatus::ShardDown => "shard_down",
            SpanStatus::Panicked => "panicked",
            SpanStatus::Stale => "stale",
            SpanStatus::Suppressed => "suppressed",
            SpanStatus::Lost => "lost",
        }
    }
}

/// One completed span, as stored by the collector and the flight
/// recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's ID.
    pub span_id: u64,
    /// Parent span ID (`0` = root of the trace).
    pub parent_id: u64,
    /// Stage name (`'static`, allocation-free).
    pub name: &'static str,
    /// How the span ended.
    pub status: SpanStatus,
    /// Start, microseconds on the trace clock.
    pub start_us: u64,
    /// End, microseconds on the trace clock.
    pub end_us: u64,
    /// Shard attribution (`-1` = none).
    pub shard: i64,
    /// Session attribution (`-1` = none).
    pub session: i64,
    /// Frame-window end time the span is about (`NaN` = none).
    pub time_s: f64,
}

/// A live span. Ends (and records) on [`Span::end`], [`Span::end_with`]
/// or drop; a span started from an unsampled context holds nothing.
#[derive(Debug)]
#[must_use = "a span records when ended or dropped"]
pub struct Span {
    rec: Option<SpanRecord>,
}

impl Span {
    /// The context children of this span should use (propagates the
    /// trace across threads); [`TraceContext::NONE`] when unsampled.
    pub fn ctx(&self) -> TraceContext {
        self.rec
            .as_ref()
            .map(|r| TraceContext {
                trace_id: r.trace_id,
                span_id: r.span_id,
            })
            .unwrap_or(TraceContext::NONE)
    }

    /// Whether this span will record anything.
    pub fn is_recording(&self) -> bool {
        self.rec.is_some()
    }

    /// Attributes the span to a session.
    pub fn set_session(&mut self, session: u64) {
        if let Some(r) = self.rec.as_mut() {
            r.session = session as i64;
        }
    }

    /// Attributes the span to a shard.
    pub fn set_shard(&mut self, shard: usize) {
        if let Some(r) = self.rec.as_mut() {
            r.shard = shard as i64;
        }
    }

    /// Attaches the frame-window end time the span is about.
    pub fn set_time_s(&mut self, time_s: f64) {
        if let Some(r) = self.rec.as_mut() {
            r.time_s = time_s;
        }
    }

    /// Ends the span now with status `Ok`.
    pub fn end(self) -> Option<SpanRecord> {
        self.end_with(SpanStatus::Ok)
    }

    /// Ends the span now with an explicit status (annotated
    /// termination). Returns the record (also submitted to the
    /// collector) so callers can mirror it elsewhere.
    pub fn end_with(self, status: SpanStatus) -> Option<SpanRecord> {
        self.end_at(clock_us(), status)
    }

    /// Ends the span at an explicit timestamp — the counterpart of
    /// [`TraceContext::child_at`].
    pub fn end_at(mut self, end_us: u64, status: SpanStatus) -> Option<SpanRecord> {
        let mut rec = self.rec.take()?;
        rec.status = status;
        rec.end_us = end_us.max(rec.start_us);
        record(rec.clone());
        Some(rec)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(mut rec) = self.rec.take() {
            rec.end_us = clock_us().max(rec.start_us);
            record(rec);
        }
    }
}

/// Head-samples a new trace: returns a sampled root context for one in
/// every `sample_one_in_n` calls, [`TraceContext::NONE`] otherwise.
/// With sampling off (`0`) — or the registry disabled — the fast path
/// is a single relaxed load.
#[inline]
pub fn begin_trace() -> TraceContext {
    let n = SAMPLE_ONE_IN_N.load(Ordering::Relaxed);
    if n == 0 || !crate::enabled() {
        return TraceContext::NONE;
    }
    let k = ARRIVALS.fetch_add(1, Ordering::Relaxed);
    if !k.is_multiple_of(n as u64) {
        return TraceContext::NONE;
    }
    TraceContext {
        trace_id: mint_id(),
        span_id: 0,
    }
}

// ---------------------------------------------------------------------
// Ambient context
// ---------------------------------------------------------------------

thread_local! {
    static CURRENT: Cell<TraceContext> = const { Cell::new(TraceContext::NONE) };
}

struct CurrentGuard {
    prev: TraceContext,
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Runs `f` with `ctx` as the thread's ambient context (restored on
/// exit, panic included) — lets deep callees ([`span`]) attach to the
/// frame's trace without threading a parameter through every layer.
pub fn with_current<R>(ctx: TraceContext, f: impl FnOnce() -> R) -> R {
    let prev = CURRENT.with(|c| c.replace(ctx));
    let _guard = CurrentGuard { prev };
    f()
}

/// The thread's ambient context ([`TraceContext::NONE`] outside
/// [`with_current`]).
pub fn current() -> TraceContext {
    CURRENT.with(|c| c.get())
}

/// Starts a child of the ambient context (no-op span when none).
pub fn span(name: &'static str) -> Span {
    current().child(name)
}

// ---------------------------------------------------------------------
// Thread shard attribution
// ---------------------------------------------------------------------

thread_local! {
    static THREAD_SHARD: Cell<i64> = const { Cell::new(-1) };
}

/// Declares which shard this thread works for: spans recorded on the
/// thread inherit the attribution (and feed that shard's flight
/// recorder) unless overridden per span.
pub fn set_thread_shard(shard: Option<usize>) {
    THREAD_SHARD.with(|s| s.set(shard.map_or(-1, |v| v as i64)));
}

fn thread_shard() -> i64 {
    THREAD_SHARD.with(|s| s.get())
}

// ---------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------

static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);

fn collector() -> MutexGuard<'static, Vec<SpanRecord>> {
    static C: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    C.get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    static LOCAL: RefCell<Vec<SpanRecord>> = const { RefCell::new(Vec::new()) };
}

struct TraceCounters {
    spans: crate::Counter,
    dropped: crate::Counter,
    dumps: crate::Counter,
}

fn trace_counters() -> &'static TraceCounters {
    static C: OnceLock<TraceCounters> = OnceLock::new();
    C.get_or_init(|| TraceCounters {
        spans: crate::counter(
            "m2ai_trace_spans_total",
            "spans recorded by the tracing subsystem",
            &[],
        ),
        dropped: crate::counter(
            "m2ai_trace_dropped_total",
            "spans dropped by the bounded trace collector",
            &[],
        ),
        dumps: crate::counter(
            "m2ai_flightrec_dumps_total",
            "flight-recorder dumps (panic, quarantine, kill, explicit)",
            &[],
        ),
    })
}

fn record(rec: SpanRecord) {
    trace_counters().spans.inc();
    flightrec_feed(&rec);
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.push(rec);
        if l.len() >= LOCAL_FLUSH {
            flush_into_collector(&mut l);
        }
    });
}

fn flush_into_collector(local: &mut Vec<SpanRecord>) {
    if local.is_empty() {
        return;
    }
    let cap = CAPACITY.load(Ordering::Relaxed);
    let mut g = collector();
    let mut dropped = 0u64;
    for rec in local.drain(..) {
        if g.len() >= cap {
            dropped += 1;
        } else {
            g.push(rec);
        }
    }
    drop(g);
    trace_counters().dropped.add(dropped);
}

/// Flushes this thread's span buffer into the global collector. Worker
/// loops call it once per scheduling round; call it before
/// [`take_spans`] on any thread that recorded.
pub fn flush_thread_spans() {
    LOCAL.with(|l| flush_into_collector(&mut l.borrow_mut()));
}

/// Drains the global collector (flushing this thread's buffer first).
pub fn take_spans() -> Vec<SpanRecord> {
    flush_thread_spans();
    std::mem::take(&mut *collector())
}

/// Bounds the global span collector (existing overflow is kept; new
/// spans past the bound are dropped and counted).
pub fn set_trace_capacity(n: usize) {
    CAPACITY.store(n.max(1), Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

fn flightrec_rings() -> MutexGuard<'static, Vec<VecDeque<SpanRecord>>> {
    static R: OnceLock<Mutex<Vec<VecDeque<SpanRecord>>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn flightrec_dir() -> MutexGuard<'static, Option<PathBuf>> {
    static D: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    D.get_or_init(|| Mutex::new(None))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn flightrec_feed(rec: &SpanRecord) {
    if rec.shard < 0 {
        return;
    }
    let idx = rec.shard as usize;
    let mut rings = flightrec_rings();
    if idx >= rings.len() {
        rings.resize_with(idx + 1, VecDeque::new);
    }
    let ring = &mut rings[idx];
    if ring.len() == FLIGHTREC_CAP {
        ring.pop_front();
    }
    ring.push_back(rec.clone());
}

/// Directs flight-recorder dumps to `dir` (`None` keeps dumps
/// in-memory only: the JSON is still rendered and returned, and the
/// dump counter still advances).
pub fn set_flightrec_dir(dir: Option<PathBuf>) {
    *flightrec_dir() = dir;
}

fn push_hex(out: &mut String, v: u64) {
    out.push_str(&format!("\"0x{v:016x}\""));
}

fn span_json(out: &mut String, r: &SpanRecord) {
    out.push_str("{\"trace_id\":");
    push_hex(out, r.trace_id);
    out.push_str(",\"span_id\":");
    push_hex(out, r.span_id);
    out.push_str(",\"parent_id\":");
    push_hex(out, r.parent_id);
    out.push_str(&format!(
        ",\"name\":\"{}\",\"status\":\"{}\",\"start_us\":{},\"end_us\":{},\"shard\":{},\"session\":{},\"time_s\":{}}}",
        r.name,
        r.status.as_str(),
        r.start_us,
        r.end_us,
        r.shard,
        r.session,
        if r.time_s.is_finite() {
            format!("{:?}", r.time_s)
        } else {
            "null".to_string()
        },
    ));
}

/// Dumps shard `shard`'s flight-recorder ring as versioned JSON
/// ([`FLIGHTREC_SCHEMA`]): the last N span trees that touched the
/// shard, newest last. When a dump directory is configured
/// ([`set_flightrec_dir`]) the document is also written to
/// `flightrec-shard<k>-<seq>.json` there. Always advances
/// `m2ai_flightrec_dumps_total` and returns the document.
pub fn flightrec_dump(shard: usize, reason: &str) -> String {
    let spans: Vec<SpanRecord> = {
        let rings = flightrec_rings();
        rings
            .get(shard)
            .map(|r| r.iter().cloned().collect())
            .unwrap_or_default()
    };
    let traces: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.trace_id).collect();
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": \"{FLIGHTREC_SCHEMA}\",\n"));
    let reason_escaped: String = reason
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '-')
        .collect();
    out.push_str(&format!("  \"reason\": \"{reason_escaped}\",\n"));
    out.push_str(&format!("  \"shard\": {shard},\n"));
    out.push_str(&format!("  \"dumped_at_us\": {},\n", clock_us()));
    out.push_str(&format!("  \"traces\": {},\n", traces.len()));
    out.push_str("  \"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        span_json(&mut out, s);
    }
    if !spans.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    trace_counters().dumps.inc();
    let dir = flightrec_dir().clone();
    if let Some(dir) = dir {
        let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("flightrec-shard{shard}-{seq}.json"));
        // Best-effort: a dump must never take the pipeline down.
        let _ = std::fs::write(path, &out);
    }
    out
}

/// Lints a flight-recorder dump: schema tag, required top-level keys,
/// and per-span required keys. Returns one message per violation.
pub fn validate_flightrec_json(doc: &str) -> Vec<String> {
    let mut errs = Vec::new();
    if !doc.contains(&format!("\"schema\": \"{FLIGHTREC_SCHEMA}\"")) {
        errs.push(format!("missing schema tag {FLIGHTREC_SCHEMA:?}"));
    }
    for key in [
        "\"reason\":",
        "\"shard\":",
        "\"dumped_at_us\":",
        "\"spans\":",
    ] {
        if !doc.contains(key) {
            errs.push(format!("missing top-level key {key}"));
        }
    }
    let trimmed = doc.trim();
    if !trimmed.starts_with('{') || !trimmed.ends_with('}') {
        errs.push("document is not one JSON object".to_string());
    }
    let spans = doc.matches("\"trace_id\":").count();
    for key in [
        "\"span_id\":",
        "\"parent_id\":",
        "\"name\":",
        "\"status\":",
        "\"start_us\":",
        "\"end_us\":",
    ] {
        let n = doc.matches(key).count();
        if n != spans {
            errs.push(format!("{key} appears {n} times for {spans} spans"));
        }
    }
    errs
}

// ---------------------------------------------------------------------
// Chrome trace_event exporter
// ---------------------------------------------------------------------

/// Renders spans in the Chrome `trace_event` JSON format (complete
/// `"X"` events, microsecond timestamps), loadable in
/// `chrome://tracing` and Perfetto. `tid` is the shard (+1; tid 0 is
/// the unattributed lane), so each shard renders as its own track.
pub fn render_trace_events(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let tid = if s.shard >= 0 { s.shard + 1 } else { 0 };
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"m2ai\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}," ,
            s.name,
            s.start_us,
            s.end_us.saturating_sub(s.start_us).max(1),
            tid,
        ));
        out.push_str("\"args\":{\"trace_id\":");
        push_hex(&mut out, s.trace_id);
        out.push_str(",\"span_id\":");
        push_hex(&mut out, s.span_id);
        out.push_str(",\"parent_id\":");
        push_hex(&mut out, s.parent_id);
        out.push_str(&format!(
            ",\"status\":\"{}\",\"session\":{},\"shard\":{}}}}}",
            s.status.as_str(),
            s.session,
            s.shard,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises tests that touch the process-global sampling state.
    fn trace_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn sampling_off_mints_nothing() {
        let _g = trace_lock();
        set_trace_config(TraceConfig { sample_one_in_n: 0 });
        let ctx = begin_trace();
        assert_eq!(ctx, TraceContext::NONE);
        assert!(!ctx.is_sampled());
        let span = ctx.child("noop");
        assert!(!span.is_recording());
        assert!(span.end().is_none());
    }

    #[test]
    fn one_in_n_samples_every_nth() {
        let _g = trace_lock();
        seed_trace_ids(7);
        set_trace_config(TraceConfig { sample_one_in_n: 4 });
        let sampled: Vec<bool> = (0..12).map(|_| begin_trace().is_sampled()).collect();
        set_trace_config(TraceConfig { sample_one_in_n: 0 });
        assert_eq!(sampled.iter().filter(|&&s| s).count(), 3);
        assert!(sampled[0], "head sampling starts with the first arrival");
    }

    #[test]
    fn ids_are_deterministic_under_a_seed() {
        let _g = trace_lock();
        set_trace_config(TraceConfig { sample_one_in_n: 1 });
        seed_trace_ids(42);
        let a: Vec<u64> = (0..4).map(|_| begin_trace().trace_id).collect();
        seed_trace_ids(42);
        let b: Vec<u64> = (0..4).map(|_| begin_trace().trace_id).collect();
        set_trace_config(TraceConfig { sample_one_in_n: 0 });
        assert_eq!(a, b);
        assert!(a.iter().all(|&id| id != 0));
        assert_eq!(
            a.iter().collect::<std::collections::BTreeSet<_>>().len(),
            4,
            "ids must be distinct"
        );
    }

    #[test]
    fn spans_link_parents_and_reach_the_collector() {
        let _g = trace_lock();
        let _spans = take_spans();
        set_trace_config(TraceConfig { sample_one_in_n: 1 });
        seed_trace_ids(11);
        let root_ctx = begin_trace();
        let mut root = root_ctx.child("ingress");
        root.set_session(3);
        root.set_shard(1);
        let child = root.ctx().child("infer");
        let child_rec = child.end().expect("sampled span records");
        let root_rec = root.end().expect("sampled span records");
        set_trace_config(TraceConfig { sample_one_in_n: 0 });
        assert_eq!(child_rec.parent_id, root_rec.span_id);
        assert_eq!(child_rec.trace_id, root_rec.trace_id);
        assert_eq!(root_rec.parent_id, 0);
        assert_eq!(root_rec.session, 3);
        assert_eq!(root_rec.shard, 1);
        // Compare by span ID: `time_s` is NaN on these records, so
        // whole-record equality would be vacuously false.
        let collected = take_spans();
        assert!(collected.iter().any(|r| r.span_id == child_rec.span_id));
        assert!(collected.iter().any(|r| r.span_id == root_rec.span_id));
    }

    #[test]
    fn bounded_collector_drops_and_counts() {
        let _g = trace_lock();
        let _spans = take_spans();
        set_trace_config(TraceConfig { sample_one_in_n: 1 });
        seed_trace_ids(5);
        set_trace_capacity(4);
        let dropped_before = trace_counters().dropped.get();
        for _ in 0..3 * LOCAL_FLUSH {
            let ctx = begin_trace();
            ctx.child("flood").end();
        }
        flush_thread_spans();
        set_trace_config(TraceConfig { sample_one_in_n: 0 });
        set_trace_capacity(DEFAULT_CAPACITY);
        let kept = take_spans();
        assert!(kept.len() <= 4, "collector must stay bounded");
        assert!(
            trace_counters().dropped.get() > dropped_before,
            "overflow must be counted"
        );
    }

    #[test]
    fn flight_recorder_dumps_validate() {
        let _g = trace_lock();
        set_trace_config(TraceConfig { sample_one_in_n: 1 });
        seed_trace_ids(9);
        let ctx = begin_trace();
        let mut span = ctx.child("tick");
        span.set_shard(2);
        span.set_session(8);
        span.set_time_s(1.5);
        span.end_with(SpanStatus::Quarantined);
        set_trace_config(TraceConfig { sample_one_in_n: 0 });
        let _spans = take_spans();
        let doc = flightrec_dump(2, "unit-test");
        let errs = validate_flightrec_json(&doc);
        assert!(errs.is_empty(), "flightrec lint: {errs:?}");
        assert!(doc.contains("\"status\":\"quarantined\""));
        assert!(doc.contains("\"session\":8"));
        let empty = flightrec_dump(777, "no-such-shard");
        assert!(validate_flightrec_json(&empty).is_empty());
        assert!(empty.contains("\"spans\": []"));
    }

    #[test]
    fn chrome_export_renders_complete_events() {
        let rec = SpanRecord {
            trace_id: 0xABC,
            span_id: 2,
            parent_id: 1,
            name: "emit",
            status: SpanStatus::Ok,
            start_us: 10,
            end_us: 25,
            shard: 0,
            session: 4,
            time_s: 2.0,
        };
        let doc = render_trace_events(&[rec]);
        assert!(doc.contains("\"traceEvents\":["));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"ts\":10"));
        assert!(doc.contains("\"dur\":15"));
        assert!(doc.contains("\"tid\":1"));
        let empty = render_trace_events(&[]);
        assert!(empty.contains("\"traceEvents\":[\n]"));
    }

    #[test]
    fn ambient_context_nests_and_restores() {
        let _g = trace_lock();
        set_trace_config(TraceConfig { sample_one_in_n: 1 });
        seed_trace_ids(21);
        let ctx = begin_trace();
        assert_eq!(current(), TraceContext::NONE);
        with_current(ctx, || {
            assert_eq!(current(), ctx);
            let sp = span("deep");
            assert!(sp.is_recording());
            assert_eq!(sp.ctx().trace_id, ctx.trace_id);
            sp.end();
        });
        set_trace_config(TraceConfig { sample_one_in_n: 0 });
        assert_eq!(current(), TraceContext::NONE);
        assert!(!span("outside").is_recording());
        let _spans = take_spans();
    }

    #[test]
    fn unsampled_context_costs_no_ids() {
        let _g = trace_lock();
        set_trace_config(TraceConfig { sample_one_in_n: 0 });
        seed_trace_ids(13);
        let before = NEXT_ID.load(Ordering::Relaxed);
        for _ in 0..100 {
            let ctx = begin_trace();
            let span = ctx.child("hot");
            drop(span);
        }
        assert_eq!(
            NEXT_ID.load(Ordering::Relaxed),
            before,
            "sampling off must not touch the mint"
        );
    }
}
