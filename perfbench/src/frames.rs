//! `frames`: the same sessions' frames, pre-extracted during set-up,
//! served through `push_frame`/`tick` by 64 closed-loop clients. Each
//! client pushes its next frame only after the tick that took its last
//! one returned, so every tick is a full batch. Extraction does no work
//! here; the model, the kernels and serve batching do nearly all of it.

use crate::inputs::SESSIONS;
use crate::live::{self, ServeInputs};
use crate::prom::Snapshot;
use crate::report::{self, Report};
use crate::stats::{self, Tail};
use crate::tracer::Tracer;
use crate::Args;
use m2ai_core::online::{HealthConfig, HealthState, SessionWindow, WindowEvent};
use m2ai_core::serve::{ServeConfig, ServeEngine, SessionId};
use std::time::Instant;

/// Rounds (one frame per client, then one tick) per measured pass.
const ROUNDS_PER_PASS: usize = 50;
/// Sessions re-run serially for the bitwise batching check.
const CHECK_SESSIONS: usize = 4;
/// Predictions per checked session compared bitwise.
const CHECK_PREDICTIONS: usize = 40;

/// One pre-extracted window event.
#[derive(Debug, Clone)]
struct Frame {
    time_s: f64,
    frame: Vec<f32>,
    health: HealthState,
}

/// Runs every session's recording through a public `SessionWindow`,
/// keeping the frame events.
fn pre_extract(inp: &ServeInputs, tracer: &mut Tracer) -> Vec<Vec<Frame>> {
    let history = ServeConfig::default().history_len;
    let mut events = Vec::new();
    inp.rec
        .sessions
        .iter()
        .map(|sess| {
            let mut w =
                SessionWindow::new(inp.cond.builder.clone(), history, HealthConfig::default());
            let mut frames = Vec::new();
            for round in &sess.rounds {
                tracer.call("SessionWindow::push", || w.push(&round.reads, &mut events));
                frames.extend(events.drain(..).map(|ev| match ev {
                    WindowEvent::Frame {
                        time_s,
                        frame,
                        health,
                    } => Frame {
                        time_s,
                        frame,
                        health,
                    },
                    WindowEvent::Stale { time_s } => Frame {
                        time_s,
                        frame: Vec::new(),
                        health: HealthState::Stale,
                    },
                }));
            }
            frames
        })
        .collect()
}

/// Frame `j` of a session's endless replay, time-shifted per lap.
fn frame_at(frames: &[Frame], j: usize, period_s: f64) -> (f64, Vec<f32>, HealthState) {
    let f = &frames[j % frames.len()];
    let lap = (j / frames.len()) as f64;
    (f.time_s + lap * period_s, f.frame.clone(), f.health)
}

fn new_engine(
    inp: &ServeInputs,
    max_batch: usize,
    sessions: usize,
) -> (ServeEngine, Vec<SessionId>) {
    let cfg = ServeConfig {
        max_sessions: SESSIONS,
        max_batch,
        ..ServeConfig::default()
    };
    let mut e = ServeEngine::new(inp.model.clone(), inp.cond.builder.clone(), cfg);
    let ids = (0..sessions)
        .map(|_| e.open_session().expect("sessions fit max_sessions"))
        .collect();
    (e, ids)
}

/// Runs the `frames` workload.
pub fn run(args: &Args, tracer: &mut Tracer) -> Report {
    let mut r = Report::default();
    let trace_run = tracer.is_on();
    let ((inp, frames), setup_s) = live::timed_setup(|| {
        let inp = live::serve_setup(args.seed, tracer);
        let frames = pre_extract(&inp, tracer);
        (inp, frames)
    });
    r.set("setup_s", setup_s);
    live::set_rfsim_layer(&mut r, tracer);
    let setup_spans = tracer.by_name(0);
    let micros = |d: &[f64]| Tail::of(&d.iter().map(|v| v * 1e6).collect::<Vec<_>>());
    if let Some(w) = setup_spans.get("SessionWindow::push") {
        r.set_tail(
            "window.push_us_p50",
            "window.push_us_p99",
            micros(&w.durations),
        );
    }

    let (mut engine, ids) = new_engine(&inp, SESSIONS, SESSIONS);
    let period = inp.rec.period_s;
    let mut next = vec![0usize; SESSIONS];
    // Per session: when its frame was pushed, as wall time (for queue
    // wait) and as this thread's CPU time (for latency, so time off the
    // CPU is not charged to the program).
    let mut pushed_at = vec![Instant::now(); SESSIONS];
    let mut pushed_cpu = vec![0.0; SESSIONS];
    let mut checked: Vec<Vec<Vec<f32>>> = vec![Vec::new(); CHECK_SESSIONS];
    let mut bad_probs = 0u64;
    let (mut attempted, mut emitted_total) = (0u64, 0u64);
    let (mut frame_rate, mut pred_rate) = (Vec::new(), Vec::new());
    let (mut pass_p50, mut pass_tail, mut latency_n, mut failed) = (Vec::new(), Vec::new(), 0, 0);
    let (mut traced_rate, mut untraced_rate) = (Vec::new(), Vec::new());
    let mut queue_wait_ms = Vec::new();
    let mut traced_delta = Snapshot::default();
    let mut traced_wall = 0.0;
    let span_mark = tracer.spans().len();

    // Pass 0 fills the window rings and is not counted. In the traced
    // run odd passes are traced and even passes are not.
    let phase = Instant::now();
    let mut pass = 0;
    while pass < 4 || phase.elapsed().as_secs_f64() < args.seconds {
        let trace_pass = trace_run && pass % 2 == 1;
        tracer.set_on(trace_pass);
        let before = trace_pass.then(Snapshot::take);
        let mut pass_latency = Vec::new();
        let sw = crate::sys::Stopwatch::start();
        let root = tracer.begin(report::PASS);
        for _ in 0..ROUNDS_PER_PASS {
            for (s, id) in ids.iter().enumerate() {
                let (time_s, frame, health) = frame_at(&frames[s], next[s], period);
                next[s] += 1;
                pushed_at[s] = Instant::now();
                pushed_cpu[s] = crate::sys::thread_cpu_s();
                let pushed = tracer.call("ServeEngine::push_frame", || {
                    engine.push_frame(*id, time_s, frame, health)
                });
                attempted += 1;
                if pushed.is_err() {
                    pass_latency.push(f64::INFINITY);
                }
            }
            let t_tick = Instant::now();
            let preds = tracer.call("ServeEngine::tick", || engine.tick());
            let done = crate::sys::thread_cpu_s();
            if trace_pass {
                queue_wait_ms.extend(
                    pushed_at
                        .iter()
                        .map(|t| t_tick.duration_since(*t).as_secs_f64() * 1e3),
                );
            }
            for p in preds {
                let s = ids
                    .iter()
                    .position(|id| *id == p.session)
                    .expect("own session");
                if !crate::driver::probabilities_ok(&p.probabilities) {
                    bad_probs += 1;
                }
                if s < CHECK_SESSIONS && checked[s].len() < CHECK_PREDICTIONS {
                    checked[s].push(p.probabilities);
                }
                pass_latency.push((done - pushed_cpu[s]) * 1e3);
            }
        }
        tracer.end(root);
        let (wall, cpu) = (sw.wall_s(), sw.cpu_s());
        if let Some(before) = before {
            traced_delta.accumulate(&Snapshot::take().delta(&before));
            traced_wall += wall;
        }
        emitted_total += pass_latency.iter().filter(|l| l.is_finite()).count() as u64;
        if pass > 0 {
            let rate = (ROUNDS_PER_PASS * SESSIONS) as f64 / cpu;
            frame_rate.push(rate);
            pred_rate.push(pass_latency.iter().filter(|l| l.is_finite()).count() as f64 / cpu);
            if trace_pass {
                traced_rate.push(rate);
            } else {
                untraced_rate.push(rate);
            }
            if let Some(t) = Tail::of(&pass_latency) {
                pass_p50.push(t.p50);
                pass_tail.push(t.tail);
                latency_n = t.n;
            }
            failed += pass_latency.iter().filter(|l| l.is_infinite()).count() as u64;
        }
        pass += 1;
    }
    tracer.set_on(trace_run);

    // Output checks, outside the timed region: a few sessions re-run
    // through a serial engine (max_batch = 1) must reproduce the
    // batched probabilities bit for bit.
    let (mut serial, serial_ids) = new_engine(&inp, 1, CHECK_SESSIONS);
    let mut bitwise = true;
    for (s, id) in serial_ids.iter().enumerate() {
        let mut got = Vec::new();
        let mut j = 0;
        while got.len() < checked[s].len() {
            let (time_s, frame, health) = frame_at(&frames[s], j, period);
            j += 1;
            serial
                .push_frame(*id, time_s, frame, health)
                .expect("open session");
            got.extend(serial.tick().into_iter().map(|p| p.probabilities));
        }
        bitwise &= got.iter().zip(&checked[s]).all(|(a, b)| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        });
    }
    r.check(
        "batched_equals_serial",
        bitwise && checked.iter().all(|c| c.len() == CHECK_PREDICTIONS),
        format!("({CHECK_SESSIONS} sessions × {CHECK_PREDICTIONS} predictions, bitwise)"),
    );
    r.check(
        "probabilities",
        bad_probs == 0,
        format!("({bad_probs} predictions not finite or not summing to 1)"),
    );
    r.attempted = attempted;
    r.failed = failed;
    r.note(format!(
        "frames: {SESSIONS} closed-loop clients, 1 thread, {pass} passes of {ROUNDS_PER_PASS} full ticks, \
         {emitted_total} predictions"
    ));

    if trace_run {
        let spans = tracer.by_name(span_mark);
        r.set_tail(
            "serve.tick_us_p50",
            "serve.tick_us_p99",
            spans
                .get("ServeEngine::tick")
                .and_then(|s| micros(&s.durations)),
        );
        r.set_tail(
            "serve.queue_wait_ms_p50",
            "serve.queue_wait_ms_p99",
            Tail::of(&queue_wait_ms),
        );
        report::set_common_layers(&mut r, &traced_delta, traced_wall, &tracer.by_name(0));
        let coverage = tracer.coverage(report::PASS, span_mark).unwrap_or(0.0);
        r.set("trace.coverage", coverage);
        r.set(
            "trace.overhead_pct",
            (stats::median(&untraced_rate) / stats::median(&traced_rate) - 1.0) * 100.0,
        );
        r.set(
            "rfsim.reads_per_round",
            inp.rec.reads_per_loop as f64 / inp.rec.rounds_per_loop() as f64,
        );
        r.check(
            "trace_coverage",
            coverage >= 0.9,
            format!("({coverage:.3} of timed wall time in layer spans)"),
        );
    } else {
        r.set("throughput_per_cpu_s", stats::sustained_rate(&frame_rate));
        r.set("preds_per_cpu_s", stats::sustained_rate(&pred_rate));
        r.set("latency_p50_ms", stats::sustained_latency(&pass_p50));
        r.set("latency_p99_ms", stats::median(&pass_tail));
        r.note(format!(
            "throughput_per_cpu_s: frames per CPU-second; latency: per pass, p50 and p{:.0} of its {latency_n} \
             predictions; rates and p50 sustained, p99 the median, over {} passes",
            stats::supported_quantile(latency_n, 0.99) * 100.0,
            frame_rate.len()
        ));
        r.set("peak_rss_mb", crate::sys::peak_rss_mb());
    }
    r
}
