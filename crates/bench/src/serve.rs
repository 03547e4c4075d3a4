//! Serving-engine benchmark and regression gate (serving PR).
//!
//! Measures multi-session streaming inference three ways on the same
//! 64-session workload:
//!
//! * **replay** — the pre-serving baseline: every new frame re-runs the
//!   model over the full 12-frame sliding window, one session at a
//!   time (what N independent `OnlineIdentifier`s cost);
//! * **step (serial)** — incremental stateful inference, one session
//!   per step: each frame costs a single encoder+LSTM step;
//! * **serve (batched)** — the `ServeEngine`: incremental steps for
//!   all ready sessions coalesced into one micro-batched GEMM tick.
//!
//! The emitted `BENCH_serve.json` doubles as the CI baseline. All
//! gated quantities are *dimensionless ratios against the same
//! machine's replay rate* (so runner speed cancels), plus an absolute
//! floor: the batched engine must beat replay by at least
//! [`MIN_SERVE_SPEEDUP`]× — the incremental step alone saves the
//! window length, batching compounds it.

use crate::throughput::{json_f64, parse_metric};
use m2ai_core::calibration::PhaseCalibrator;
use m2ai_core::frames::{FeatureMode, FrameBuilder, FrameLayout};
use m2ai_core::network::{build_model, Architecture};
use m2ai_core::online::HealthState;
use m2ai_core::serve::{ServeConfig, ServeEngine};
use m2ai_nn::model::{SequenceClassifier, StreamState};
use std::time::Instant;

use crate::header;

/// Concurrent streaming sessions in the workload.
const SESSIONS: usize = 64;

/// Sliding window length in frames (the training `T`).
const HISTORY: usize = 12;

/// Timed frame advances per session for the replay baseline (each one
/// is a full `HISTORY`-frame forward pass, so fewer suffice).
const REPLAY_STEPS: usize = 4;

/// Timed frame advances per session for the incremental paths.
/// Sized so one serve pass runs ~100 ms of timed work — short passes
/// made the serve/replay ratio swing with scheduler noise.
const STEP_STEPS: usize = 48;

/// Maximum tolerated drop of a replay-normalised rate vs baseline.
/// The ratio divides two independently measured rates, so run-to-run
/// spread compounds; 20% stays far from any real regression (losing
/// micro-batching alone costs ~47%).
const MAX_REGRESSION: f64 = 0.20;

/// Maximum tolerated growth of replay-normalised p50 latency.
const MAX_LATENCY_GROWTH: f64 = 0.5;

/// Maximum tolerated growth of replay-normalised p99 latency. Wider
/// than the p50 ceiling: even pooled over three passes the tail is the
/// noisiest quantile, but a sustained blow-up (a stall in every tick,
/// an accidental serialisation) moves it far beyond 2.5x.
const MAX_P99_GROWTH: f64 = 1.5;

/// Minimum batched-serve-over-replay predictions/sec speedup.
const MIN_SERVE_SPEEDUP: f64 = 5.0;

/// One serving measurement. Rates are predictions per second; the
/// latencies are per-prediction compute time inside a batched tick.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Concurrent sessions in the workload.
    pub sessions: f64,
    /// Full-window replay baseline, sessions served serially.
    pub predictions_per_sec_replay: f64,
    /// Incremental stepping, sessions served serially (batch = 1).
    pub predictions_per_sec_step_serial: f64,
    /// The `ServeEngine` micro-batched tick loop.
    pub predictions_per_sec_serve: f64,
    /// `predictions_per_sec_serve / predictions_per_sec_replay`.
    pub serve_speedup: f64,
    /// Sessions sustainable in realtime at one frame per 0.5 s window
    /// (`predictions_per_sec_serve × 0.5`).
    pub realtime_sessions_capacity: f64,
    /// Median per-prediction latency in a batched tick, microseconds.
    pub p50_latency_us: f64,
    /// 99th-percentile per-prediction latency, microseconds.
    pub p99_latency_us: f64,
    /// The p99 landed in the histogram's overflow bucket, so
    /// `p99_latency_us` is the last finite bound — a floor, not a
    /// measurement. The gate treats a saturated fresh p99 as a failure.
    pub p99_saturated: bool,
}

impl ServeReport {
    /// Renders the report as a small stable JSON document (hand-rolled;
    /// the workspace carries no serde). Key order is fixed.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"m2ai-serve-v1\",\n");
        for (key, v) in [
            ("sessions", self.sessions),
            (
                "predictions_per_sec_replay",
                self.predictions_per_sec_replay,
            ),
            (
                "predictions_per_sec_step_serial",
                self.predictions_per_sec_step_serial,
            ),
            ("predictions_per_sec_serve", self.predictions_per_sec_serve),
            ("serve_speedup", self.serve_speedup),
            (
                "realtime_sessions_capacity",
                self.realtime_sessions_capacity,
            ),
            ("p50_latency_us", self.p50_latency_us),
        ] {
            out.push_str(&format!("  \"{key}\": {},\n", json_f64(v)));
        }
        out.push_str(&format!(
            "  \"p99_latency_us\": {},\n",
            json_f64(self.p99_latency_us)
        ));
        out.push_str(&format!(
            "  \"p99_saturated\": {}\n",
            u8::from(self.p99_saturated)
        ));
        out.push('}');
        out.push('\n');
        out
    }

    /// Parses a report previously written by [`ServeReport::to_json`].
    ///
    /// Returns `None` if any expected key is missing or non-numeric.
    pub fn from_json(json: &str) -> Option<ServeReport> {
        Some(ServeReport {
            sessions: parse_metric(json, "sessions")?,
            predictions_per_sec_replay: parse_metric(json, "predictions_per_sec_replay")?,
            predictions_per_sec_step_serial: parse_metric(json, "predictions_per_sec_step_serial")?,
            predictions_per_sec_serve: parse_metric(json, "predictions_per_sec_serve")?,
            serve_speedup: parse_metric(json, "serve_speedup")?,
            realtime_sessions_capacity: parse_metric(json, "realtime_sessions_capacity")?,
            p50_latency_us: parse_metric(json, "p50_latency_us")?,
            p99_latency_us: parse_metric(json, "p99_latency_us")?,
            // Absent in pre-tagged baselines: treat as unsaturated.
            p99_saturated: parse_metric(json, "p99_saturated").is_some_and(|v| v != 0.0),
        })
    }
}

/// Deterministic synthetic spectrum frame (cheap splitmix-style hash;
/// the bench must measure inference, not feature extraction).
fn synth_frame(dim: usize, session: usize, step: usize) -> Vec<f32> {
    let mut state = (session as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((step as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
        | 1;
    (0..dim)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Map to [-0.5, 0.5): plenty of dynamic range, no overflow.
            ((state >> 11) as f32 / (1u64 << 53) as f32) - 0.5
        })
        .collect()
}

/// The fixed workload: a 2-tag/4-antenna joint layout, the paper's
/// CNN+LSTM model, `SESSIONS` streams of pre-built frames.
struct Workload {
    model: SequenceClassifier,
    builder: FrameBuilder,
    /// `frames[session][step]`, `HISTORY` warmup steps + `STEP_STEPS`
    /// timed steps each.
    frames: Vec<Vec<Vec<f32>>>,
}

fn workload() -> Workload {
    let layout = FrameLayout::new(2, 4, FeatureMode::Joint);
    let builder = FrameBuilder::new(layout, PhaseCalibrator::disabled(2, 4), 0.5);
    let model = build_model(&layout, 12, Architecture::CnnLstm, 1);
    let dim = layout.frame_dim();
    let frames = (0..SESSIONS)
        .map(|s| {
            (0..HISTORY + STEP_STEPS)
                .map(|t| synth_frame(dim, s, t))
                .collect()
        })
        .collect();
    Workload {
        model,
        builder,
        frames,
    }
}

/// Best-of-three rate measurement: scheduler preemption and frequency
/// ramps only ever make a pass slower, so the fastest pass is the
/// least-noisy estimate (same policy as the throughput bench).
fn best_rate(events_per_pass: usize, mut pass: impl FnMut()) -> f64 {
    pass(); // warmup
    let mut best = 0.0f64;
    for _ in 0..3 {
        let start = Instant::now();
        pass();
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        best = best.max(events_per_pass as f64 / secs);
    }
    best
}

/// Current snapshot of the engine's per-prediction latency histogram
/// (`m2ai_serve_prediction_seconds`), `None` until a `ServeEngine` has
/// registered it.
fn prediction_latency() -> Option<m2ai_obs::HistogramSnapshot> {
    match m2ai_obs::find("m2ai_serve_prediction_seconds", &[]) {
        Some(m2ai_obs::MetricValue::Histogram(h)) => Some(h),
        _ => None,
    }
}

/// Measures the report on the current machine (fast kernel backend).
pub fn run() -> ServeReport {
    header(
        "Serve",
        "multi-session streaming: replay vs incremental vs micro-batched",
    );
    let w = workload();

    // Replay baseline: per-session sliding window, full forward pass
    // per new frame, sessions visited round-robin like a fleet of
    // independent OnlineIdentifiers.
    let replay_rate = {
        let mut scratch = m2ai_kernels::KernelScratch::new();
        best_rate(SESSIONS * REPLAY_STEPS, || {
            for s in 0..SESSIONS {
                let mut window: Vec<Vec<f32>> = w.frames[s][..HISTORY].to_vec();
                for t in 0..REPLAY_STEPS {
                    window.remove(0);
                    window.push(w.frames[s][HISTORY + t].clone());
                    std::hint::black_box(w.model.predict_proba_with(&window, &mut scratch));
                }
            }
        })
    };

    // Incremental serial: one stream state per session, advanced one
    // frame at a time with batch = 1 (dispatches to the GEMV path).
    let step_rate = {
        let mut scratch = m2ai_kernels::KernelScratch::new();
        best_rate(SESSIONS * STEP_STEPS, || {
            let mut states: Vec<StreamState> = (0..SESSIONS)
                .map(|_| w.model.stream_state(HISTORY))
                .collect();
            for (s, state) in states.iter_mut().enumerate() {
                for f in &w.frames[s][..HISTORY] {
                    w.model.step_with(f, state, &mut scratch);
                }
            }
            for t in 0..STEP_STEPS {
                for (s, state) in states.iter_mut().enumerate() {
                    std::hint::black_box(w.model.step_with(
                        &w.frames[s][HISTORY + t],
                        state,
                        &mut scratch,
                    ));
                }
            }
        })
    };

    // Micro-batched serve engine: all sessions advance per tick. The
    // timed region is the steady-state tick loop; frame queuing is
    // untimed (the workload pre-builds frames precisely so extraction
    // stays out of the measurement). Per-prediction latency comes from
    // the engine's own `m2ai_serve_prediction_seconds` histogram —
    // snapshot deltas window the steady-state ticks out of warmup and
    // ring-filling noise, and the gate reads the same numbers an
    // operator would scrape.
    let (serve_rate, latency_window) = {
        // One pass returns (elapsed seconds, latency window of the
        // steady-state loop).
        let pass = || {
            let mut eng = ServeEngine::new(
                w.model.clone(),
                w.builder.clone(),
                ServeConfig {
                    max_sessions: SESSIONS,
                    max_batch: SESSIONS,
                    queue_capacity: HISTORY + STEP_STEPS,
                    history_len: HISTORY,
                    ..ServeConfig::default()
                },
            );
            let ids: Vec<_> = (0..SESSIONS)
                .map(|_| eng.open_session().expect("capacity"))
                .collect();
            for (s, &id) in ids.iter().enumerate() {
                for (t, f) in w.frames[s][..HISTORY].iter().enumerate() {
                    eng.push_frame(id, t as f64 * 0.5, f.clone(), HealthState::Healthy)
                        .expect("queue capacity");
                }
            }
            eng.drain(); // warm the states (ring-filling ticks), untimed
            for t in 0..STEP_STEPS {
                for (s, &id) in ids.iter().enumerate() {
                    eng.push_frame(
                        id,
                        (HISTORY + t) as f64 * 0.5,
                        w.frames[s][HISTORY + t].clone(),
                        HealthState::Healthy,
                    )
                    .expect("queue capacity");
                }
            }
            // Steady state: every session is ready, so each tick emits
            // one prediction per session until the queues run dry.
            let expected = SESSIONS * STEP_STEPS;
            let mut emitted = 0usize;
            let before = prediction_latency().expect("engine registered its metrics");
            let start = Instant::now();
            while emitted < expected {
                let preds = eng.tick();
                assert!(!preds.is_empty(), "tick starved before queues drained");
                emitted += preds.len();
            }
            let secs = start.elapsed().as_secs_f64().max(1e-9);
            let window = prediction_latency()
                .expect("engine registered its metrics")
                .delta(&before);
            (secs, window)
        };
        let _ = pass(); // warmup
        let mut pooled = m2ai_obs::HistogramDelta::new();
        let mut best = 0.0f64;
        for _ in 0..3 {
            let (secs, window) = pass();
            best = best.max((SESSIONS * STEP_STEPS) as f64 / secs);
            pooled.accumulate(&window);
        }
        (best, pooled)
    };

    // Stream-health smoke: one short *real-readings* session — faulty
    // reader, extraction from raw reads, a silence gap and a recovery —
    // so a `--metrics-out` export carries the full pipeline's counters
    // (reader faults, steering-cache hits, coverage, health
    // transitions), not just the pre-extracted-frame hot path. Runs
    // after the latency window is taken, so it cannot pollute the
    // gated numbers.
    stream_health_smoke();

    let p50 = latency_window.quantile(0.50);
    let p99 = latency_window.quantile(0.99);
    if p99.saturated {
        eprintln!(
            "serve bench: WARNING: p99 latency saturated the histogram \
             (reported value is the last finite bucket bound)"
        );
    }
    let report = ServeReport {
        sessions: SESSIONS as f64,
        predictions_per_sec_replay: replay_rate,
        predictions_per_sec_step_serial: step_rate,
        predictions_per_sec_serve: serve_rate,
        serve_speedup: serve_rate / replay_rate,
        realtime_sessions_capacity: serve_rate * 0.5,
        p50_latency_us: p50.value * 1e6,
        p99_latency_us: p99.value * 1e6,
        p99_saturated: p99.saturated,
    };
    println!("sessions            {:>10}", SESSIONS);
    println!(
        "replay              {:>10.0} predictions/sec",
        report.predictions_per_sec_replay
    );
    println!(
        "step (serial)       {:>10.0} predictions/sec",
        report.predictions_per_sec_step_serial
    );
    println!(
        "serve (batched)     {:>10.0} predictions/sec",
        report.predictions_per_sec_serve
    );
    println!(
        "serve speedup       {:>10.2}x over replay",
        report.serve_speedup
    );
    println!(
        "realtime capacity   {:>10.0} sessions @ 0.5 s frames",
        report.realtime_sessions_capacity
    );
    println!(
        "latency p50         {:>10.1} us/prediction",
        report.p50_latency_us
    );
    println!(
        "latency p99         {:>10.1} us/prediction",
        report.p99_latency_us
    );
    report
}

/// Pushes a short faulty stream with a silence gap through a one-tag
/// engine, driving the read → extract → serve path end to end (see the
/// call site in [`run`] for why).
fn stream_health_smoke() {
    use m2ai_rfsim::fault::FaultPlan;
    use m2ai_rfsim::geometry::Point2;
    use m2ai_rfsim::reader::{Reader, ReaderConfig};
    use m2ai_rfsim::room::Room;
    use m2ai_rfsim::scene::SceneSnapshot;

    let layout = FrameLayout::new(1, 4, FeatureMode::Joint);
    let builder = FrameBuilder::new(layout, PhaseCalibrator::disabled(1, 4), 0.5);
    let model = build_model(&layout, 12, Architecture::CnnLstm, 1);
    let mut eng = ServeEngine::new(
        model,
        builder,
        ServeConfig {
            history_len: 2,
            health: m2ai_core::online::HealthConfig {
                stale_timeout_s: 1.0,
                ..Default::default()
            },
            ..ServeConfig::default()
        },
    );
    let id = eng.open_session().expect("fresh engine has capacity");
    // Intensity 0.25: faults fire (the fault counters must move) but
    // enough complete 4-antenna snapshot rounds survive that several
    // windows reach MUSIC — so the steering-table cache records hits,
    // not just the first-build miss.
    let mut reader = Reader::new(Room::hall(), ReaderConfig::default(), 1)
        .with_fault_plan(FaultPlan::with_intensity(0.25, 7));
    let scene = SceneSnapshot::with_tags(vec![Point2::new(4.4, 3.0)]);
    let readings = reader.run(|_| scene.clone(), 7.0);
    // 0–2 s of stream, a 3 s silence, then stream again: the session
    // walks Healthy → Degraded/Stale → recovered.
    let before: Vec<_> = readings
        .iter()
        .filter(|r| r.time_s < 2.0)
        .cloned()
        .collect();
    let after: Vec<_> = readings
        .iter()
        .filter(|r| r.time_s >= 5.0)
        .cloned()
        .collect();
    eng.push(id, &before).expect("session open");
    eng.drain();
    eng.push(id, &after).expect("session open");
    eng.drain();
}

/// Pure regression gate: every failure is one human-readable line.
///
/// All comparisons are against *replay-normalised* quantities — the
/// incremental and batched rates divided by the same machine's replay
/// rate, and the p99 latency multiplied by it — so runner speed
/// cancels and only real relative regressions trip the gate. The
/// batched speedup is additionally held to the absolute
/// [`MIN_SERVE_SPEEDUP`] floor the PR promises.
pub fn regressions(fresh: &ServeReport, baseline: &ServeReport) -> Vec<String> {
    let mut failures = Vec::new();
    // A saturated fresh p99 means the tail ran off the end of the
    // latency histogram: the reported value is a floor, so the ceiling
    // comparison below would under-gate — fail loudly instead.
    if fresh.p99_saturated {
        failures.push(
            "p99_latency_us is saturated (tail beyond the histogram's last finite bucket)"
                .to_string(),
        );
    }
    // NaN-safe: a NaN speedup must fail the floor check, not pass it.
    if fresh.serve_speedup < MIN_SERVE_SPEEDUP || fresh.serve_speedup.is_nan() {
        failures.push(format!(
            "serve_speedup {:.2}x is below the {MIN_SERVE_SPEEDUP}x floor",
            fresh.serve_speedup
        ));
    }
    let norm_fresh = fresh.predictions_per_sec_replay;
    let norm_base = baseline.predictions_per_sec_replay;
    if norm_fresh <= 0.0 || norm_base <= 0.0 {
        failures.push("replay rate is non-positive; cannot normalise".to_string());
        return failures;
    }
    for (name, f, b) in [
        (
            "predictions_per_sec_step_serial",
            fresh.predictions_per_sec_step_serial,
            baseline.predictions_per_sec_step_serial,
        ),
        (
            "predictions_per_sec_serve",
            fresh.predictions_per_sec_serve,
            baseline.predictions_per_sec_serve,
        ),
    ] {
        let r_fresh = f / norm_fresh;
        let r_base = b / norm_base;
        let floor = (1.0 - MAX_REGRESSION) * r_base;
        // NaN-safe: NaN on either side counts as a regression.
        if r_fresh < floor || r_fresh.is_nan() || floor.is_nan() {
            failures.push(format!(
                "{name}: replay-normalised rate {r_fresh:.3} fell more than \
                 {:.0}% below baseline {r_base:.3}",
                100.0 * MAX_REGRESSION
            ));
        }
    }
    // Latency gates, both in units of replay per-prediction time. The
    // quantiles come from the engine's own m2ai-obs histogram pooled
    // over all timed passes, so the tail is an aggregate of ~150
    // ticks, not a single unlucky sample; p99 still gets a wider
    // ceiling than the median.
    for (name, f, b, growth) in [
        (
            "p50_latency_us",
            fresh.p50_latency_us,
            baseline.p50_latency_us,
            MAX_LATENCY_GROWTH,
        ),
        (
            "p99_latency_us",
            fresh.p99_latency_us,
            baseline.p99_latency_us,
            MAX_P99_GROWTH,
        ),
    ] {
        let l_fresh = f * 1e-6 * norm_fresh;
        let l_base = b * 1e-6 * norm_base;
        let ceiling = (1.0 + growth) * l_base;
        if l_fresh > ceiling || l_fresh.is_nan() || ceiling.is_nan() {
            failures.push(format!(
                "{name}: replay-normalised latency {l_fresh:.4} grew more than \
                 {:.0}% above baseline {l_base:.4}",
                100.0 * growth
            ));
        }
    }
    failures
}

/// Measures and writes the JSON baseline to `path`.
///
/// # Panics
///
/// Panics if `path` cannot be written.
pub fn run_and_write(path: &str) -> ServeReport {
    let report = run();
    std::fs::write(path, report.to_json()).expect("write serve report");
    println!("wrote {path}");
    report
}

/// Re-measures and gates against the baseline at `path`.
///
/// Returns `true` when no regression was detected; prints one line per
/// failure otherwise.
///
/// # Panics
///
/// Panics if `path` is missing or unparseable — the baseline is
/// checked in, so that is a repo defect, not a perf regression.
pub fn check(path: &str) -> bool {
    let json =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read serve baseline {path}: {e}"));
    let baseline =
        ServeReport::from_json(&json).unwrap_or_else(|| panic!("parse serve baseline {path}"));
    let fresh = run();
    let failures = regressions(&fresh, &baseline);
    if failures.is_empty() {
        println!("serve gate: PASS");
        true
    } else {
        for f in &failures {
            eprintln!("serve gate FAIL: {f}");
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(replay: f64, serial: f64, serve: f64, p50: f64, p99: f64) -> ServeReport {
        ServeReport {
            sessions: SESSIONS as f64,
            predictions_per_sec_replay: replay,
            predictions_per_sec_step_serial: serial,
            predictions_per_sec_serve: serve,
            serve_speedup: serve / replay,
            realtime_sessions_capacity: serve * 0.5,
            p50_latency_us: p50,
            p99_latency_us: p99,
            p99_saturated: false,
        }
    }

    #[test]
    fn json_roundtrips() {
        let r = report(100.0, 900.0, 1400.5, 600.25, 900.75);
        let back = ServeReport::from_json(&r.to_json()).expect("roundtrip");
        assert_eq!(back, r);
    }

    #[test]
    fn non_finite_becomes_null_and_fails_parse() {
        let mut r = report(100.0, 900.0, 1400.0, 600.0, 900.0);
        r.p99_latency_us = f64::NAN;
        let json = r.to_json();
        assert!(json.contains("\"p99_latency_us\": null"));
        assert!(ServeReport::from_json(&json).is_none());
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let r = report(100.0, 900.0, 1400.0, 600.0, 900.0);
        assert!(regressions(&r, &r).is_empty());
    }

    #[test]
    fn machine_speed_cancels_out() {
        // A uniformly 3x slower machine: rates shrink and latencies
        // stretch together; the normalised ratios are unchanged.
        let base = report(120.0, 960.0, 1500.0, 500.0, 800.0);
        let slow = report(40.0, 320.0, 500.0, 1500.0, 2400.0);
        assert!(regressions(&slow, &base).is_empty());
    }

    #[test]
    fn speedup_floor_is_absolute() {
        let base = report(100.0, 900.0, 1400.0, 600.0, 900.0);
        // Serve degraded to 4x replay: below the 5x floor (and a
        // normalised regression at once).
        let bad = report(100.0, 900.0, 400.0, 600.0, 900.0);
        let failures = regressions(&bad, &base);
        assert!(failures.iter().any(|f| f.contains("floor")));
        assert!(failures
            .iter()
            .any(|f| f.contains("predictions_per_sec_serve")));
    }

    #[test]
    fn serial_step_slowdown_trips_the_gate() {
        let base = report(100.0, 900.0, 1400.0, 600.0, 900.0);
        // The serial incremental path alone lost 30%.
        let bad = report(100.0, 630.0, 1400.0, 600.0, 900.0);
        let failures = regressions(&bad, &base);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("predictions_per_sec_step_serial"));
    }

    #[test]
    fn latency_blowup_trips_the_gate() {
        let base = report(100.0, 900.0, 1400.0, 600.0, 900.0);
        // Same rates, but the median doubled on the same machine.
        let bad = report(100.0, 900.0, 1400.0, 1200.0, 1800.0);
        let failures = regressions(&bad, &base);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("p50_latency_us"));
    }

    #[test]
    fn p99_blowup_trips_the_gate() {
        let base = report(100.0, 900.0, 1400.0, 600.0, 900.0);
        // Tail latency tripled on the same machine while the median
        // held: a sustained stall, not noise — the p99 gate must fire.
        let bad = report(100.0, 900.0, 1400.0, 600.0, 2700.0);
        let failures = regressions(&bad, &base);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("p99_latency_us"));
    }

    #[test]
    fn p99_within_its_wider_ceiling_passes() {
        let base = report(100.0, 900.0, 1400.0, 600.0, 900.0);
        // Double the baseline tail: above the p50 ceiling but inside
        // the 2.5x p99 allowance — the tail gets more slack.
        let noisy = report(100.0, 900.0, 1400.0, 600.0, 1800.0);
        assert!(regressions(&noisy, &base).is_empty());
    }

    #[test]
    fn synthetic_frames_are_deterministic_and_finite() {
        let a = synth_frame(368, 3, 7);
        let b = synth_frame(368, 3, 7);
        assert_eq!(a, b);
        assert_ne!(a, synth_frame(368, 4, 7));
        assert!(a.iter().all(|v| v.is_finite() && v.abs() <= 0.5));
    }

    #[test]
    fn saturated_p99_trips_the_gate() {
        let base = report(100.0, 900.0, 1400.0, 600.0, 900.0);
        let mut bad = report(100.0, 900.0, 1400.0, 600.0, 900.0);
        bad.p99_saturated = true;
        let failures = regressions(&bad, &base);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("saturated"));
    }

    #[test]
    fn saturation_flag_roundtrips_and_defaults_to_false() {
        let mut r = report(100.0, 900.0, 1400.0, 600.0, 900.0);
        r.p99_saturated = true;
        let back = ServeReport::from_json(&r.to_json()).expect("roundtrip");
        assert!(back.p99_saturated);
        // A baseline written before the flag existed still parses.
        let legacy = r.to_json().replace(",\n  \"p99_saturated\": 1", "");
        let back = ServeReport::from_json(&legacy).expect("legacy parse");
        assert!(!back.p99_saturated);
    }
}
