//! Trace-context propagation across the fabric's thread boundaries.
//!
//! The tracing subsystem's core promise: a context minted at the
//! fabric edge is carried on the `ShardCmd` into the worker thread,
//! re-parented through the ingress span, and surfaces on the emitted
//! prediction — one causally linked span tree per frame, even when
//! the frame's session migrated through a kill/restart in between.
//! These tests flip the process-global sampling configuration and
//! drain the process-global collector, so they serialise on a local
//! lock (the same pattern as `tests/observability.rs`).

use m2ai_core::calibration::PhaseCalibrator;
use m2ai_core::frames::{FeatureMode, FrameBuilder, FrameLayout};
use m2ai_core::network::{build_model, Architecture};
use m2ai_core::online::HealthState;
use m2ai_core::serve::{ServeConfig, ServeEngine};
use m2ai_obs::trace::{self, SpanStatus, TraceConfig};
use m2ai_serve_fabric::{FabricConfig, ServeFabric, SessionKey, SupervisionConfig};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const HISTORY: usize = 12;

fn layout() -> FrameLayout {
    FrameLayout::new(1, 4, FeatureMode::Joint)
}

fn builder() -> FrameBuilder {
    FrameBuilder::new(layout(), PhaseCalibrator::disabled(1, 4), 0.5)
}

fn fabric(shards: usize) -> ServeFabric {
    ServeFabric::new(
        build_model(&layout(), 12, Architecture::CnnLstm, 1),
        builder(),
        FabricConfig {
            shards,
            vnodes: 16,
            ingress_capacity: 256,
            serve: ServeConfig {
                history_len: HISTORY,
                queue_capacity: 256,
                ..ServeConfig::default()
            },
            supervision: SupervisionConfig {
                heartbeat_interval: Duration::from_millis(5),
                restart_backoff: Duration::from_millis(10),
                backoff_max: Duration::from_millis(100),
                ..SupervisionConfig::default()
            },
        },
    )
}

fn frame(dim: usize, step: usize) -> Vec<f32> {
    (0..dim)
        .map(|d| 0.05 + 0.01 * ((step + d) % 9) as f32)
        .collect()
}

fn push_steps(f: &ServeFabric, key: SessionKey, from: usize, count: usize) {
    let dim = layout().frame_dim();
    for t in from..from + count {
        f.push_frame_with_deadline(
            key,
            t as f64 * 0.5,
            frame(dim, t),
            HealthState::Healthy,
            Duration::from_secs(30),
        )
        .expect("push survives restarts");
    }
}

#[test]
fn emitted_predictions_walk_back_to_worker_ingress_spans() {
    let _g = lock();
    let _ = trace::take_spans();
    trace::set_trace_config(TraceConfig { sample_one_in_n: 1 });
    let f = fabric(2);
    let keys: Vec<SessionKey> = (0..3)
        .map(|_| f.open_session().expect("capacity"))
        .collect();
    for &key in &keys {
        push_steps(&f, key, 0, HISTORY + 4);
    }
    let preds: Vec<_> = f.flush();
    f.shutdown();
    let spans = trace::take_spans();
    trace::set_trace_config(TraceConfig { sample_one_in_n: 0 });

    assert_eq!(preds.len(), 3 * 5, "one prediction per full window");
    for p in &preds {
        let ctx = p.prediction.trace;
        assert!(ctx.is_sampled(), "sampling 1 must tag every prediction");
        let emit = spans
            .iter()
            .find(|s| s.span_id == ctx.span_id && s.trace_id == ctx.trace_id)
            .expect("emit span reaches the collector across the worker thread");
        assert_eq!(emit.name, "emit");
        assert_eq!(emit.status, SpanStatus::Ok);
        // The emit span's parent is the ingress span recorded on the
        // shard worker after the queue wait — same trace, shard-tagged.
        let ingress = spans
            .iter()
            .find(|s| s.span_id == emit.parent_id && s.trace_id == emit.trace_id)
            .expect("ingress parent span recorded");
        assert_eq!(ingress.name, "ingress");
        assert_eq!(
            ingress.shard, p.shard as i64,
            "ingress span carries the serving shard"
        );
        // The root context minted at the fabric edge has span id 0.
        assert_eq!(ingress.parent_id, 0, "ingress parents to the trace root");
    }
}

#[test]
fn span_trees_survive_a_kill_and_restart_migration() {
    let _g = lock();
    let _ = trace::take_spans();
    trace::set_trace_config(TraceConfig { sample_one_in_n: 1 });
    let f = fabric(2);
    let key = f.open_session().expect("capacity");
    push_steps(&f, key, 0, HISTORY);
    let mut preds = f.flush();
    f.checkpoint_now().expect("live shards checkpoint");
    f.kill_shard(0).expect("shard 0 alive");
    let t0 = Instant::now();
    while !(f.restarts() >= 1 && f.shard_alive(0)) {
        assert!(t0.elapsed() < Duration::from_secs(30), "restart timed out");
        std::thread::sleep(Duration::from_millis(2));
    }
    push_steps(&f, key, HISTORY, 4);
    preds.extend(f.flush());
    f.shutdown();
    let spans = trace::take_spans();
    trace::set_trace_config(TraceConfig { sample_one_in_n: 0 });

    assert_eq!(preds.len(), 5, "no prediction may be lost across the kill");
    // Predictions emitted by the post-restart incarnation still carry
    // complete trees: edge context → worker ingress → emit.
    for p in &preds {
        let ctx = p.prediction.trace;
        assert!(ctx.is_sampled());
        let emit = spans
            .iter()
            .find(|s| s.span_id == ctx.span_id && s.trace_id == ctx.trace_id)
            .expect("emit span");
        assert!(
            spans.iter().any(|s| s.span_id == emit.parent_id
                && s.trace_id == emit.trace_id
                && s.name == "ingress"),
            "emit must parent to an ingress span even after migration"
        );
    }
}

#[test]
fn sampling_off_leaves_no_spans_and_unsampled_predictions() {
    let _g = lock();
    trace::set_trace_config(TraceConfig { sample_one_in_n: 0 });
    let _ = trace::take_spans();
    let f = fabric(1);
    let key = f.open_session().expect("capacity");
    push_steps(&f, key, 0, HISTORY + 2);
    let preds = f.flush();
    f.shutdown();
    assert!(!preds.is_empty());
    for p in &preds {
        assert!(
            !p.prediction.trace.is_sampled(),
            "sampling off must produce TraceContext::NONE"
        );
    }
    assert!(
        trace::take_spans().is_empty(),
        "sampling off must record no spans at all"
    );
}

#[test]
fn killed_shard_leaves_a_validating_flight_recorder_dump() {
    let _g = lock();
    let _ = trace::take_spans();
    trace::set_trace_config(TraceConfig { sample_one_in_n: 1 });
    let dir = std::env::temp_dir().join(format!("m2ai-tracetest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("dump dir");
    trace::set_flightrec_dir(Some(dir.clone()));

    let f = fabric(1);
    let key = f.open_session().expect("capacity");
    push_steps(&f, key, 0, HISTORY);
    f.flush();
    f.checkpoint_now().expect("checkpoint");
    f.kill_shard(0).expect("alive");
    // `kill_shard` only queues the kill: wait for the restart, which
    // follows the dying worker's dump, not merely for a live shard.
    let t0 = Instant::now();
    while !(f.restarts() >= 1 && f.shard_alive(0)) {
        assert!(t0.elapsed() < Duration::from_secs(30), "restart timed out");
        std::thread::sleep(Duration::from_millis(2));
    }
    f.shutdown();
    trace::set_flightrec_dir(None);
    trace::set_trace_config(TraceConfig { sample_one_in_n: 0 });
    let _ = trace::take_spans();

    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("dump dir readable")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("flightrec-"))
        .collect();
    assert!(!dumps.is_empty(), "the kill must leave a postmortem dump");
    for d in &dumps {
        let doc = std::fs::read_to_string(d.path()).expect("dump readable");
        let errs = trace::validate_flightrec_json(&doc);
        assert!(
            errs.is_empty(),
            "dump {:?} invalid: {errs:?}",
            d.file_name()
        );
        assert!(doc.contains("m2ai-flightrec-v1"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn engine_exposes_traced_push_for_external_contexts() {
    let _g = lock();
    let _ = trace::take_spans();
    trace::set_trace_config(TraceConfig { sample_one_in_n: 1 });
    // Direct engine use (no fabric): a caller-minted context flows
    // through push_frame_traced into the emitted prediction's trace.
    let mut eng = ServeEngine::new(
        build_model(&layout(), 12, Architecture::CnnLstm, 1),
        builder(),
        ServeConfig {
            history_len: 2,
            ..ServeConfig::default()
        },
    );
    let id = eng.open_session().expect("capacity");
    let dim = layout().frame_dim();
    let root = trace::begin_trace();
    for t in 0..3 {
        eng.push_frame_traced(
            id,
            t as f64 * 0.5,
            frame(dim, t),
            HealthState::Healthy,
            root,
        )
        .expect("queue capacity");
    }
    let preds = eng.drain();
    trace::set_trace_config(TraceConfig { sample_one_in_n: 0 });
    let spans = trace::take_spans();
    assert!(!preds.is_empty());
    for p in &preds {
        assert_eq!(p.trace.trace_id, root.trace_id, "trace id must propagate");
        assert!(
            spans.iter().any(|s| s.span_id == p.trace.span_id),
            "emit span must be recorded"
        );
    }
}
