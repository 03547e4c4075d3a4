//! `live`: raw-read sessions into one `ServeEngine` on the driver
//! thread — the paper's deployment mode. Closed-loop replay laps give
//! the capacity and the push-to-prediction latency. Open-loop slices
//! at a fixed offered rate, alternating with them, give the driver's
//! lag and the read-to-prediction latency from the due time, which is
//! reported but is not an end-to-end metric: on a shared machine it
//! varies far more between runs than any usable bound.

use crate::driver::{self, Completion, Target, WindowClock, WindowTally};
use crate::inputs::{self, Condition, Recordings, SESSIONS};
use crate::prom::Snapshot;
use crate::report::{self, Report};
use crate::stats::{self, Tail};
use crate::tracer::Tracer;
use crate::Args;
use m2ai_core::dataset::N_CLASSES;
use m2ai_core::network::{build_model, Architecture};
use m2ai_core::serve::{ServeConfig, ServeEngine, SessionId};
use m2ai_nn::model::SequenceClassifier;
use m2ai_rfsim::reading::TagReading;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// Offered load of the open-loop slices, raw reads per second across
/// all sessions (≈3.8× real time for 64 rooms): low enough that the
/// engine, ticking about one window at a time, stays far from
/// saturation.
pub const OFFERED_READS_PER_S: f64 = 50_000.0;

/// Closed-loop replay laps per measurement cycle.
const LAPS_PER_CYCLE: usize = 4;

/// Open-loop seconds per measurement cycle.
const OPEN_SLICE_S: f64 = 1.0;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Everything a serving workload needs, built during set-up.
pub struct ServeInputs {
    /// Condition (config + calibrated builder).
    pub cond: Condition,
    /// Per-session recordings.
    pub rec: Recordings,
    /// Replay order of one loop: `(time_s, session, round)`.
    pub sched: Vec<(f64, usize, usize)>,
    /// Untrained CNN+LSTM for the paper-default layout.
    pub model: SequenceClassifier,
}

/// Set-up shared by the serving workloads: calibration, session
/// recordings, model build.
pub fn serve_setup(seed: u64, tracer: &mut Tracer) -> ServeInputs {
    let cond = inputs::condition(seed);
    let rec = inputs::record_sessions(&cond, seed, tracer);
    let sched = inputs::schedule(&rec);
    let model = build_model(
        &cond.config.layout(),
        N_CLASSES,
        Architecture::CnnLstm,
        seed,
    );
    ServeInputs {
        cond,
        rec,
        sched,
        model,
    }
}

/// Runs set-up `SETUP_REPEATS` times; returns the last inputs and the
/// median set-up time.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

/// Item `i` of an endless replay: `(lap, session, round, replay time)`.
pub fn item(inp: &ServeInputs, i: usize) -> (usize, usize, usize, f64) {
    let n = inp.sched.len();
    let (t, s, k) = inp.sched[i % n];
    let lap = i / n;
    (lap, s, k, t + lap as f64 * inp.rec.period_s)
}

/// Open-loop due times, relative to the phase start, for the items
/// from `start` that fall within `budget_s` seconds at `reads_per_s`.
/// Replay laps tile the replay clock, so due times only increase.
pub fn open_loop_due(inp: &ServeInputs, start: usize, budget_s: f64, reads_per_s: f64) -> Vec<f64> {
    let stream_rate = inp.rec.reads_per_loop as f64 / inp.rec.period_s;
    let speedup = reads_per_s / stream_rate;
    let origin = item(inp, start).3;
    (start..)
        .map(|i| (item(inp, i).3 - origin) / speedup)
        .take_while(|&d| d < budget_s)
        .collect()
}

/// Client-side window ledger of one session: which windows its pushes
/// closed and when each was due, matched against predictions by window
/// end time.
#[derive(Debug, Clone, Default)]
pub struct SessionLedger {
    /// Window boundaries as the reads imply them.
    clock: WindowClock,
    /// Closed windows not yet matched: `(window end, due_s)`.
    open: VecDeque<(f64, f64)>,
    /// Conservation tally.
    pub tally: WindowTally,
}

impl SessionLedger {
    /// Records a push of `reads` due at `due_s`.
    pub fn pushed(&mut self, reads: &[TagReading], due_s: f64, frame_s: f64) {
        if let Some(last) = reads.iter().map(|r| r.time_s).reduce(f64::max) {
            let open = &mut self.open;
            self.clock
                .advance(last, frame_s, |end| open.push_back((end, due_s)));
            self.tally.closed = self.clock.closed;
        }
    }

    /// Matches a prediction for the window ending at `end`; returns the
    /// window's due time. Earlier unmatched windows were consumed
    /// silently (ring-fill, suppressed or shed) and are dropped.
    pub fn emitted(&mut self, end: f64) -> f64 {
        self.tally.emitted += 1;
        while let Some((e, due)) = self.open.pop_front() {
            if (e - end).abs() < 1e-6 {
                return due;
            }
        }
        f64::NAN
    }
}

/// The engine plus the client-side ledger.
struct LiveTarget<'a> {
    inp: &'a ServeInputs,
    engine: ServeEngine,
    ids: Vec<SessionId>,
    index: HashMap<SessionId, usize>,
    tracer: &'a mut Tracer,
    /// First schedule item of the current phase (items are relative).
    base: usize,
    buf: Vec<TagReading>,
    pushes_since_tick: usize,
    ledger: Vec<SessionLedger>,
    /// Windows the engine reports enqueued, per session.
    enqueued: Vec<u64>,
    bad_probs: u64,
    reads: u64,
    /// Enqueue instants of each session's pending windows (traced
    /// runs only), for queue wait.
    pending_since: Vec<VecDeque<Instant>>,
    queue_wait_ms: Vec<f64>,
}

impl<'a> LiveTarget<'a> {
    fn new(inp: &'a ServeInputs, tracer: &'a mut Tracer) -> Self {
        let cfg = ServeConfig {
            max_sessions: SESSIONS,
            max_batch: SESSIONS,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(inp.model.clone(), inp.cond.builder.clone(), cfg);
        let ids: Vec<SessionId> = (0..SESSIONS)
            .map(|_| engine.open_session().expect("64 sessions fit max_sessions"))
            .collect();
        let index = ids.iter().enumerate().map(|(i, id)| (*id, i)).collect();
        LiveTarget {
            inp,
            engine,
            ids,
            index,
            tracer,
            base: 0,
            buf: Vec::new(),
            pushes_since_tick: 0,
            ledger: vec![SessionLedger::default(); SESSIONS],
            enqueued: vec![0; SESSIONS],
            bad_probs: 0,
            reads: 0,
            pending_since: vec![VecDeque::new(); SESSIONS],
            queue_wait_ms: Vec::new(),
        }
    }

    /// Ticks until nothing is pending.
    fn tick_all(&mut self, out: &mut Vec<Completion>) {
        self.pushes_since_tick = 0;
        while self.engine.pending() > 0 {
            if self.tracer.is_on() {
                // Every session with a pending window advances by one
                // (max_batch covers all sessions).
                let t_tick = Instant::now();
                for q in &mut self.pending_since {
                    if let Some(t) = q.pop_front() {
                        self.queue_wait_ms
                            .push(t_tick.duration_since(t).as_secs_f64() * 1e3);
                    }
                }
            }
            let engine = &mut self.engine;
            let preds = self.tracer.call("ServeEngine::tick", || engine.tick());
            for p in preds {
                let s = self.index[&p.session];
                if !driver::probabilities_ok(&p.probabilities) {
                    self.bad_probs += 1;
                }
                out.push(Completion {
                    due_s: self.ledger[s].emitted(p.time_s),
                    ok: true,
                });
            }
        }
    }
}

impl Target for LiveTarget<'_> {
    fn offer(&mut self, i: usize, due_s: f64, out: &mut Vec<Completion>) {
        let (lap, s, k, _) = item(self.inp, self.base + i);
        inputs::fill_round(&self.inp.rec, s, k, lap, &mut self.buf);
        self.reads += self.buf.len() as u64;
        let frame = self.inp.cond.config.frame_duration_s;
        self.ledger[s].pushed(&self.buf, due_s, frame);
        let (engine, id, buf) = (&mut self.engine, self.ids[s], &self.buf);
        let t0 = self.tracer.is_on().then(Instant::now);
        let pushed = self
            .tracer
            .call("ServeEngine::push", || engine.push(id, buf));
        let lost = match pushed {
            Ok(rep) => {
                self.enqueued[s] += rep.enqueued as u64;
                if let Some(t0) = t0 {
                    let q = &mut self.pending_since[s];
                    q.extend(std::iter::repeat_n(t0, rep.enqueued));
                    for _ in 0..rep.shed.min(q.len()) {
                        q.pop_front();
                    }
                }
                rep.shed as u64
            }
            Err(_) => 1,
        };
        self.ledger[s].tally.failed += lost;
        for _ in 0..lost {
            out.push(Completion {
                due_s: f64::NAN,
                ok: false,
            });
        }
        self.pushes_since_tick += 1;
        if self.pushes_since_tick >= SESSIONS {
            self.tick_all(out);
        }
    }

    fn idle(&mut self, out: &mut Vec<Completion>) {
        self.tick_all(out);
    }

    fn finish(&mut self, out: &mut Vec<Completion>) {
        self.tick_all(out);
    }
}

/// Runs the `live` workload.
pub fn run(args: &Args, tracer: &mut Tracer) -> Report {
    let mut r = Report::default();
    let trace_run = tracer.is_on();
    let (inp, setup_s) = timed_setup(|| serve_setup(args.seed, tracer));
    r.set("setup_s", setup_s);
    set_rfsim_layer(&mut r, tracer);

    let mut target = LiveTarget::new(&inp, tracer);
    let lap_items = inp.sched.len();

    // Closed-loop laps and open-loop slices alternate for the whole run,
    // so both sample the same machine phases. Lap 0 fills the window
    // rings and is not counted. In the traced run every second lap is
    // traced, to measure tracing overhead.
    let (mut reads_rate, mut preds_rate) = (Vec::new(), Vec::new());
    let (mut traced_rate, mut untraced_rate) = (Vec::new(), Vec::new());
    let (mut lap_p50, mut lap_tail, mut lap_windows) = (Vec::new(), Vec::new(), 0);
    let (mut open_latency_ms, mut lag_ms) = (Vec::new(), Vec::new());
    let mut traced_delta = Snapshot::default();
    let mut traced_wall = 0.0;
    let span_mark = target.tracer.spans().len();
    let mut next = 0;
    let mut cycle = 0;
    let phase = Instant::now();
    while cycle < 3 || phase.elapsed().as_secs_f64() < args.seconds {
        for lap in 0..LAPS_PER_CYCLE {
            let trace_lap = trace_run && lap % 2 == 1;
            target.tracer.set_on(trace_lap);
            let before = trace_lap.then(Snapshot::take);
            let reads0 = target.reads;
            target.base = next;
            let root = target.tracer.begin(report::PASS);
            let pass = driver::run_closed_loop(&mut target, 0..lap_items);
            target.tracer.end(root);
            next += lap_items;
            if let Some(before) = before {
                traced_delta.accumulate(&Snapshot::take().delta(&before));
                traced_wall += pass.wall_s;
            }
            if next == lap_items {
                continue;
            }
            let reads = (target.reads - reads0) as f64 / pass.cpu_s;
            reads_rate.push(reads);
            preds_rate.push(pass.emitted as f64 / pass.cpu_s);
            if trace_lap {
                traced_rate.push(reads);
            } else {
                untraced_rate.push(reads);
            }
            if let Some(t) = Tail::of(&pass.latency_ms) {
                lap_p50.push(t.p50);
                lap_tail.push(t.tail);
                lap_windows = t.n;
            }
        }
        target.tracer.set_on(trace_run);
        target.base = next;
        let due = open_loop_due(&inp, next, OPEN_SLICE_S, OFFERED_READS_PER_S);
        next += due.len();
        let open = driver::run_open_loop(&mut target, &due);
        open_latency_ms.extend(open.latency_ms);
        lag_ms.extend(open.lag_ms);
        cycle += 1;
    }
    target.tracer.set_on(trace_run);
    let spans = target.tracer.by_name_within(report::PASS, span_mark);
    let traced_push_s = spans.get("ServeEngine::push").map_or(0.0, |s| s.total_s);
    let coverage = target.tracer.coverage(report::PASS, span_mark);
    let micros = |name: &str| {
        spans
            .get(name)
            .and_then(|s| Tail::of(&s.durations.iter().map(|d| d * 1e6).collect::<Vec<_>>()))
    };
    let push_tail = micros("ServeEngine::push");
    let tick_tail = micros("ServeEngine::tick");

    // Output checks.
    let tally: Vec<WindowTally> = target.ledger.iter().map(|l| l.tally).collect();
    let windows_match = tally
        .iter()
        .zip(&target.enqueued)
        .all(|(t, &e)| t.closed == e);
    r.check(
        "windows_closed",
        windows_match,
        "(engine window count equals the count the reads imply)".into(),
    );
    r.check(
        "probabilities",
        target.bad_probs == 0,
        format!(
            "({} predictions not finite or not summing to 1)",
            target.bad_probs
        ),
    );
    let conservation = driver::check_conservation(
        &tally,
        target.engine.suppressed() as u64,
        ServeConfig::default().history_len,
    );
    r.check(
        "conservation",
        conservation.is_ok(),
        conservation.err().unwrap_or_default(),
    );
    r.attempted = tally.iter().map(|t| t.closed).sum();
    r.failed = tally.iter().map(|t| t.failed).sum();

    r.note(format!(
        "live: {SESSIONS} sessions, 1 driver thread; {cycle} cycles of {LAPS_PER_CYCLE} \
         closed-loop laps ({} reads each) and a {OPEN_SLICE_S}-s open-loop slice at \
         {OFFERED_READS_PER_S} reads/s",
        inp.rec.reads_per_loop
    ));
    if let Some(t) = Tail::of(&open_latency_ms) {
        r.note(format!(
            "open loop: read-to-prediction latency from the due time, wall clock: \
             p50 {:.3} ms, {} {:.3} ms over {} windows",
            t.p50,
            t.label(),
            t.tail,
            t.n
        ));
    }
    if trace_run {
        r.set_tail("window.push_us_p50", "window.push_us_p99", push_tail);
        let extract = report::extraction_s(&traced_delta);
        r.set(
            "window.bookkeeping_share",
            ((traced_push_s - extract) / traced_wall.max(1e-12)).max(0.0),
        );
        r.set_tail("serve.tick_us_p50", "serve.tick_us_p99", tick_tail);
        r.set_tail(
            "serve.queue_wait_ms_p50",
            "serve.queue_wait_ms_p99",
            Tail::of(&target.queue_wait_ms),
        );
        r.set(
            "rfsim.reads_per_round",
            inp.rec.reads_per_loop as f64 / inp.rec.rounds_per_loop() as f64,
        );
        report::set_common_layers(
            &mut r,
            &traced_delta,
            traced_wall,
            &target.tracer.by_name(0),
        );
        r.set(
            "driver.lag_ms_p99",
            Tail::of(&lag_ms).map_or(0.0, |t| t.tail),
        );
        r.set("trace.coverage", coverage.unwrap_or(0.0));
        r.set(
            "trace.overhead_pct",
            (stats::median(&untraced_rate) / stats::median(&traced_rate) - 1.0) * 100.0,
        );
        r.check(
            "trace_coverage",
            coverage.unwrap_or(0.0) >= 0.9,
            format!(
                "({:.3} of closed-loop wall time in layer spans)",
                coverage.unwrap_or(0.0)
            ),
        );
        crate::fabric::probe(&inp, target.tracer, &mut r);
    } else {
        r.set("throughput_per_cpu_s", stats::sustained_rate(&reads_rate));
        r.set("preds_per_cpu_s", stats::sustained_rate(&preds_rate));
        r.set("latency_p50_ms", stats::sustained_latency(&lap_p50));
        r.set("latency_p99_ms", stats::median(&lap_tail));
        r.note(format!(
            "throughput_per_cpu_s: raw reads per CPU-second; latency: from the push that closed \
             a window to the tick that emitted it, per lap p50 and p{:.0} of its {lap_windows} \
             windows; rates and p50 sustained, p99 the median, over {} closed-loop laps",
            stats::supported_quantile(lap_windows, 0.99) * 100.0,
            reads_rate.len()
        ));
        r.set("peak_rss_mb", crate::sys::peak_rss_mb());
    }
    r
}

/// `rfsim.*` metrics from the set-up spans around
/// `Reader::inventory_round`.
pub fn set_rfsim_layer(r: &mut Report, tracer: &Tracer) {
    if !tracer.is_on() {
        return;
    }
    let spans = tracer.by_name(0);
    if let Some(s) = spans.get("Reader::inventory_round") {
        r.set("rfsim.round_us", s.total_s / s.count.max(1) as f64 * 1e6);
    }
}
