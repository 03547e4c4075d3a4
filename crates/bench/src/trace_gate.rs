//! Tracing gate (`experiments trace [--check]`) — the observability
//! PR's end-to-end contract, checked against the live fabric:
//!
//! 1. **Span-tree completeness under chaos**: a 2-shard fabric is
//!    driven through `KILLS` alternating shard kills at sampling
//!    1-in-1; every emitted prediction must carry a sampled trace whose
//!    emit span walks parent-by-parent to an ingress span recorded on
//!    the shard worker — one causally linked tree per frame even when
//!    the frame crossed a restart.
//! 2. **Shed / quarantine attribution**: a frozen shard's ingress
//!    sheds and a poisoned session's quarantine refusals must each
//!    terminate in an annotated span ([`SpanStatus::Shed`] /
//!    [`SpanStatus::Quarantined`]), one per observed event.
//! 3. **Flight-recorder postmortems**: every injected kill must leave
//!    a dump file validating against the `m2ai-flightrec-v1` schema.
//! 4. **Sampling-off bit-neutrality**: the same serve workload with
//!    tracing off and at sampling 1 must produce bitwise-identical
//!    predictions (trace identity aside — the only field allowed to
//!    differ).
//! 5. **Overhead**: at 1-in-`OVERHEAD_SAMPLE_N` head sampling the
//!    serve tick loop's time per prediction must stay within
//!    `MAX_OVERHEAD` of its tracing-off time. The two settings run
//!    in `OVERHEAD_PAIRS` back-to-back pairs, alternating which runs
//!    first, and the gate reads the median per-pair ratio, so drift
//!    over the run (frequency, cache, neighbours) hits both sides of
//!    every pair alike.
//!
//! Every check is absolute (no baseline JSON): the contract either
//! holds on this machine or it does not.

use m2ai_core::calibration::PhaseCalibrator;
use m2ai_core::frames::{FeatureMode, FrameBuilder, FrameLayout};
use m2ai_core::network::{build_model, Architecture};
use m2ai_core::online::HealthState;
use m2ai_core::serve::{ServeConfig, ServeEngine, ServePrediction};
use m2ai_nn::model::SequenceClassifier;
use m2ai_obs::trace::{self, SpanRecord, SpanStatus, TraceConfig};
use m2ai_serve_fabric::{
    FabricConfig, PushOutcome, ServeFabric, SessionKey, ShardThrottle, SupervisionConfig,
};
use std::time::{Duration, Instant};

use crate::header;

/// Streaming sessions in the chaos drive.
const SESSIONS: usize = 8;

/// Sliding window length in frames.
const HISTORY: usize = 12;

/// Shard kills injected during the chaos drive (the PR's contract).
const KILLS: usize = 4;

/// Frames pushed per session between kills.
const ROUND_FRAMES: usize = 6;

/// Head-sampling rate for the overhead check.
const OVERHEAD_SAMPLE_N: u32 = 64;

/// Maximum tolerated tick-loop slowdown at 1/64 sampling.
const MAX_OVERHEAD: f64 = 0.05;

/// Interleaved off/sampled pass pairs of the overhead comparison.
const OVERHEAD_PAIRS: usize = 15;

struct Workload {
    model: SequenceClassifier,
    builder: FrameBuilder,
    dim: usize,
}

fn workload() -> Workload {
    let layout = FrameLayout::new(1, 4, FeatureMode::Joint);
    let builder = FrameBuilder::new(layout, PhaseCalibrator::disabled(1, 4), 0.5);
    let model = build_model(&layout, 12, Architecture::CnnLstm, 1);
    Workload {
        model,
        builder,
        dim: layout.frame_dim(),
    }
}

/// Aggressive supervision so kill recovery happens in milliseconds.
fn supervision() -> SupervisionConfig {
    SupervisionConfig {
        heartbeat_interval: Duration::from_millis(5),
        stall_deadline: Duration::from_millis(250),
        checkpoint_interval: Duration::from_millis(50),
        restart_backoff: Duration::from_millis(10),
        backoff_max: Duration::from_millis(100),
        restart_budget: 64,
        ..SupervisionConfig::default()
    }
}

fn fabric_config(shards: usize, ingress_capacity: usize) -> FabricConfig {
    FabricConfig {
        shards,
        vnodes: 32,
        ingress_capacity,
        serve: ServeConfig {
            max_sessions: SESSIONS.max(8),
            max_batch: 32,
            queue_capacity: 1024,
            history_len: HISTORY,
            ..ServeConfig::default()
        },
        supervision: supervision(),
    }
}

/// Deterministic synthetic frame (same xorshift family as the other
/// benches; the gate measures tracing, not extraction).
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
            ((state >> 11) as f32 / (1u64 << 53) as f32) - 0.5
        })
        .collect()
}

fn push_round(fabric: &ServeFabric, w: &Workload, keys: &[SessionKey], from: usize, count: usize) {
    for t in from..from + count {
        for (s, &key) in keys.iter().enumerate() {
            fabric
                .push_frame_with_deadline(
                    key,
                    t as f64 * 0.5,
                    synth_frame(w.dim, s, t),
                    HealthState::Healthy,
                    Duration::from_secs(30),
                )
                .expect("push must survive a recovery window");
        }
    }
}

fn await_cond(what: &str, mut cond: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "trace gate timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Walks `span`'s parent chain inside `spans`; returns the names seen,
/// root-last. Stops (and reports what it has) on a missing parent.
fn parent_chain<'a>(spans: &'a [SpanRecord], mut span: &'a SpanRecord) -> Vec<&'static str> {
    let mut names = vec![span.name];
    // Parent id 0 is the trace root (the fabric-edge context carries
    // span_id 0); anything else must resolve to a recorded span.
    while span.parent_id != 0 {
        match spans
            .iter()
            .find(|s| s.span_id == span.parent_id && s.trace_id == span.trace_id)
        {
            Some(parent) => {
                names.push(parent.name);
                span = parent;
            }
            None => break,
        }
    }
    names
}

/// Chaos drive: KILLS alternating shard kills at sampling 1. Returns
/// failures from span-tree completeness and flight-recorder checks.
fn check_chaos_spans(w: &Workload) -> Vec<String> {
    let mut failures = Vec::new();

    // Fresh collector, deterministic IDs, everything sampled, dumps
    // into a throwaway directory keyed by pid.
    let _ = trace::take_spans();
    trace::seed_trace_ids(0x712a_ce00_1234_5678);
    trace::set_trace_config(TraceConfig { sample_one_in_n: 1 });
    let dump_dir = std::env::temp_dir().join(format!("m2ai-trace-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dump_dir).expect("create flight-recorder dir");
    trace::set_flightrec_dir(Some(dump_dir.clone()));
    let dumps_before = count_dumps(&dump_dir);

    let fabric = ServeFabric::new(w.model.clone(), w.builder.clone(), fabric_config(2, 512));
    let keys: Vec<SessionKey> = (0..SESSIONS)
        .map(|_| fabric.open_session().expect("fabric sized for the gate"))
        .collect();
    push_round(&fabric, w, &keys, 0, HISTORY);
    let mut preds: Vec<ServePrediction> =
        fabric.flush().into_iter().map(|p| p.prediction).collect();
    let mut pushed = HISTORY;
    for round in 0..KILLS {
        push_round(&fabric, w, &keys, pushed, ROUND_FRAMES);
        pushed += ROUND_FRAMES;
        preds.extend(fabric.flush().into_iter().map(|p| p.prediction));
        fabric.checkpoint_now().expect("live shards checkpoint");
        let victim = round % 2;
        fabric.kill_shard(victim).expect("victim shard is alive");
        await_cond("shard restart", || fabric.shard_alive(victim));
    }
    push_round(&fabric, w, &keys, pushed, ROUND_FRAMES);
    pushed += ROUND_FRAMES;
    preds.extend(fabric.flush().into_iter().map(|p| p.prediction));
    fabric.shutdown();

    let spans = trace::take_spans();
    trace::set_flightrec_dir(None);
    trace::set_trace_config(TraceConfig { sample_one_in_n: 0 });

    let expected = SESSIONS * (pushed - HISTORY + 1);
    println!(
        "chaos drive         {:>6} predictions over {KILLS} kills, {} spans",
        preds.len(),
        spans.len()
    );
    if preds.len() != expected {
        failures.push(format!(
            "chaos drive lost predictions: emitted {} of {expected}",
            preds.len()
        ));
    }

    // Every emitted prediction ends a complete span tree: its emit
    // span exists and parents back to an ingress span on some shard.
    let mut incomplete = 0usize;
    for p in &preds {
        if !p.trace.is_sampled() {
            failures.push(format!(
                "prediction for session {:?} at t={} carries no sampled trace",
                p.session, p.time_s
            ));
            continue;
        }
        let Some(emit) = spans
            .iter()
            .find(|s| s.span_id == p.trace.span_id && s.trace_id == p.trace.trace_id)
        else {
            incomplete += 1;
            continue;
        };
        let chain = parent_chain(&spans, emit);
        let ok = emit.name == "emit"
            && emit.status == SpanStatus::Ok
            && chain.contains(&"ingress")
            && spans
                .iter()
                .any(|s| s.trace_id == emit.trace_id && s.name == "ingress" && s.shard >= 0);
        if !ok {
            incomplete += 1;
        }
    }
    if incomplete > 0 {
        failures.push(format!(
            "{incomplete} of {} predictions lack a complete emit→ingress span tree",
            preds.len()
        ));
    }

    // One validating postmortem per injected kill.
    let dumps = count_dumps(&dump_dir).saturating_sub(dumps_before);
    println!("flightrec dumps     {dumps:>6} (>= {KILLS} required)");
    if dumps < KILLS {
        failures.push(format!(
            "only {dumps} flight-recorder dumps for {KILLS} injected kills"
        ));
    }
    if let Ok(entries) = std::fs::read_dir(&dump_dir) {
        for entry in entries.flatten() {
            let doc = std::fs::read_to_string(entry.path()).unwrap_or_default();
            for err in trace::validate_flightrec_json(&doc) {
                failures.push(format!("dump {:?}: {err}", entry.file_name()));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dump_dir);
    failures
}

fn count_dumps(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with("flightrec-"))
                .count()
        })
        .unwrap_or(0)
}

/// Shed + quarantine attribution: every refused data event terminates
/// in an annotated span.
fn check_attribution(w: &Workload) -> Vec<String> {
    let mut failures = Vec::new();
    let _ = trace::take_spans();
    trace::set_trace_config(TraceConfig { sample_one_in_n: 1 });

    // Freeze the only shard: the bounded ingress fills and pushes shed
    // at the fabric edge, each one a Shed-status ingress span.
    let fabric = ServeFabric::new(w.model.clone(), w.builder.clone(), fabric_config(1, 4));
    let key = fabric.open_session().expect("capacity");
    // `set_throttle` blocks until the worker acknowledges the freeze,
    // so every push below meets a non-consuming ingress.
    fabric.set_throttle(0, ShardThrottle::Freeze);
    let mut sheds = 0usize;
    for t in 0..32 {
        match fabric
            .push_frame(
                key,
                t as f64 * 0.5,
                synth_frame(w.dim, 0, t),
                HealthState::Healthy,
            )
            .expect("session open")
        {
            PushOutcome::Shed => sheds += 1,
            PushOutcome::Enqueued => {}
        }
    }
    fabric.set_throttle(0, ShardThrottle::Run);
    fabric.shutdown();
    let spans = trace::take_spans();
    let shed_spans = spans
        .iter()
        .filter(|s| s.name == "ingress" && s.status == SpanStatus::Shed)
        .count();
    println!("sheds attributed    {shed_spans:>6} of {sheds} observed");
    if sheds == 0 {
        failures.push("freeze produced no sheds; the attribution check did not run".into());
    }
    if shed_spans < sheds {
        failures.push(format!(
            "{} sheds but only {shed_spans} Shed-status ingress spans",
            sheds
        ));
    }

    // Poison a session until quarantine, then push once more: the
    // refusal must be a Quarantined-status span.
    let fabric = ServeFabric::new(
        w.model.clone(),
        w.builder.clone(),
        FabricConfig {
            supervision: SupervisionConfig {
                poison_threshold: 2,
                ..supervision()
            },
            ..fabric_config(1, 512)
        },
    );
    let victim = fabric.open_session().expect("capacity");
    for t in 0..8 {
        // Wrong-dimension frames panic the engine inside the worker.
        let _ = fabric.push_frame(
            victim,
            t as f64 * 0.5,
            vec![0.0f32; w.dim + 1],
            HealthState::Healthy,
        );
        if fabric.quarantined() >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    await_cond("quarantine", || fabric.quarantined() >= 1);
    let _ = trace::take_spans();
    let refused = fabric.push_frame(
        victim,
        100.0,
        synth_frame(w.dim, 0, 0),
        HealthState::Healthy,
    );
    fabric.shutdown();
    let spans = trace::take_spans();
    trace::set_trace_config(TraceConfig { sample_one_in_n: 0 });
    if !matches!(refused, Err(m2ai_serve_fabric::FabricError::Quarantined)) {
        failures.push(format!(
            "push to quarantined session returned {refused:?}, expected Err(Quarantined)"
        ));
    }
    let quarantine_spans = spans
        .iter()
        .filter(|s| s.name == "ingress" && s.status == SpanStatus::Quarantined)
        .count();
    println!("quarantine spans    {quarantine_spans:>6} (>= 1 required)");
    if quarantine_spans == 0 {
        failures.push("quarantine refusal left no Quarantined-status span".into());
    }
    failures
}

/// One deterministic serve drive; returns every prediction with the
/// trace identity blanked (the only field sampling may change). Each
/// frame is head-sampled as the fabric edge does, so the current
/// sampling rate decides which frames carry a trace.
fn serve_pass(w: &Workload, steps: usize) -> Vec<ServePrediction> {
    let mut eng = ServeEngine::new(
        w.model.clone(),
        w.builder.clone(),
        ServeConfig {
            max_sessions: SESSIONS,
            max_batch: SESSIONS,
            queue_capacity: HISTORY + steps,
            history_len: HISTORY,
            ..ServeConfig::default()
        },
    );
    let ids: Vec<_> = (0..SESSIONS)
        .map(|_| eng.open_session().expect("capacity"))
        .collect();
    for (s, &id) in ids.iter().enumerate() {
        for t in 0..HISTORY + steps {
            eng.push_frame_traced(
                id,
                t as f64 * 0.5,
                synth_frame(w.dim, s, t),
                HealthState::Healthy,
                trace::begin_trace(),
            )
            .expect("queue capacity");
        }
    }
    let mut preds = eng.drain();
    for p in &mut preds {
        p.trace = Default::default();
    }
    preds
}

/// Sampling-off vs sampling-1 bit-neutrality on the serve engine.
fn check_bit_neutrality(w: &Workload) -> Vec<String> {
    trace::set_trace_config(TraceConfig { sample_one_in_n: 0 });
    let off = serve_pass(w, 8);
    trace::set_trace_config(TraceConfig { sample_one_in_n: 1 });
    let on = serve_pass(w, 8);
    trace::set_trace_config(TraceConfig { sample_one_in_n: 0 });
    let _ = trace::take_spans();
    println!(
        "bit-neutrality      {:>6} predictions compared",
        off.len().min(on.len())
    );
    if off == on {
        Vec::new()
    } else {
        vec!["sampling-on predictions differ from sampling-off (bit-neutrality broken)".into()]
    }
}

/// Tick-loop overhead at 1/OVERHEAD_SAMPLE_N sampling: the median
/// over interleaved pairs of sampled-to-off time per prediction.
fn check_overhead(w: &Workload) -> Vec<String> {
    let steps = 48;
    let secs_per_pred = |n: u32| -> f64 {
        trace::set_trace_config(TraceConfig { sample_one_in_n: n });
        let t0 = Instant::now();
        let preds = serve_pass(w, steps);
        let secs = t0.elapsed().as_secs_f64();
        trace::set_trace_config(TraceConfig { sample_one_in_n: 0 });
        let _ = trace::take_spans();
        secs / preds.len() as f64
    };
    // Warm-up, one pass per side.
    secs_per_pred(0);
    secs_per_pred(OVERHEAD_SAMPLE_N);
    let mut ratios: Vec<f64> = (0..OVERHEAD_PAIRS)
        .map(|pair| {
            let (off, sampled) = if pair % 2 == 0 {
                let off = secs_per_pred(0);
                (off, secs_per_pred(OVERHEAD_SAMPLE_N))
            } else {
                let sampled = secs_per_pred(OVERHEAD_SAMPLE_N);
                (secs_per_pred(0), sampled)
            };
            sampled / off
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let overhead = ratios[OVERHEAD_PAIRS / 2] - 1.0;
    println!(
        "overhead @1/{OVERHEAD_SAMPLE_N}      {:>6.2}% (max {:.0}%)",
        overhead * 100.0,
        MAX_OVERHEAD * 100.0
    );
    // NaN-safe: a NaN overhead must fail.
    if overhead.le(&MAX_OVERHEAD) {
        Vec::new()
    } else {
        vec![format!(
            "tracing overhead {:.2}% at 1/{OVERHEAD_SAMPLE_N} sampling exceeds {:.0}%",
            overhead * 100.0,
            MAX_OVERHEAD * 100.0
        )]
    }
}

/// Silences panic reports from the engine panics injected on purpose
/// inside shard workers (same policy as the chaos bench).
fn quiet_shard_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let shard_thread = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("m2ai-shard-"));
        if !shard_thread {
            prev(info);
        }
    }));
}

/// The `experiments trace` gate. Returns `true` when every tracing
/// contract holds; prints one line per failure otherwise.
pub fn check() -> bool {
    header(
        "Trace",
        "tracing contracts: span trees under chaos, attribution, postmortems, overhead",
    );
    quiet_shard_panics();
    let w = workload();
    let mut failures = Vec::new();
    failures.extend(check_chaos_spans(&w));
    failures.extend(check_attribution(&w));
    failures.extend(check_bit_neutrality(&w));
    failures.extend(check_overhead(&w));
    if failures.is_empty() {
        println!("trace gate: PASS");
        true
    } else {
        for f in &failures {
            eprintln!("trace gate FAIL: {f}");
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parent_chain_walks_to_the_root() {
        let mk = |span_id, parent_id, name| SpanRecord {
            trace_id: 7,
            span_id,
            parent_id,
            name,
            status: SpanStatus::Ok,
            start_us: 0,
            end_us: 1,
            shard: -1,
            session: -1,
            time_s: f64::NAN,
        };
        let spans = vec![mk(1, 0, "ingress"), mk(2, 1, "infer"), mk(3, 1, "emit")];
        assert_eq!(parent_chain(&spans, &spans[2]), vec!["emit", "ingress"]);
        assert_eq!(parent_chain(&spans, &spans[0]), vec!["ingress"]);
    }

    #[test]
    fn synthetic_frames_are_deterministic() {
        assert_eq!(synth_frame(8, 1, 2), synth_frame(8, 1, 2));
        assert_ne!(synth_frame(8, 1, 2), synth_frame(8, 2, 2));
    }
}
