//! Single-shard oracle equivalence (serve-fabric PR).
//!
//! A `ServeFabric` with one shard is a bare `ServeEngine` behind a
//! thread and two queues — and the crate docs promise that wrapper is
//! *bitwise invisible*: per-session prediction streams out of the
//! fabric must equal the bare engine's, field for field, on both
//! kernel backends and on both ingestion paths (pre-extracted frames
//! and raw tag readings).
//!
//! Determinism is arranged, not hoped for: the shard is put in
//! [`ShardThrottle::HoldTicks`] while the whole trace is pushed, so
//! every event is queued before the first tick — exactly the state a
//! bare engine is in after pushing everything and before `drain()`.
//! The `flush()` barrier (which overrides `HoldTicks`) then ticks the
//! engine to empty the same way `drain()` does. Identical engine
//! state + identical tick schedule ⇒ identical micro-batches ⇒
//! bitwise-identical output.

use m2ai::core::calibration::PhaseCalibrator;
use m2ai::core::frames::{FeatureMode, FrameBuilder, FrameLayout};
use m2ai::core::network::{build_model, Architecture};
use m2ai::core::online::HealthState;
use m2ai::core::serve::PushReport;
use m2ai::core::serve::{ServeConfig, ServeEngine, ServePrediction, SessionId};
use m2ai::fabric::{FabricConfig, PushOutcome, ServeFabric, SessionKey, ShardThrottle};
use m2ai::kernels::Backend;
use m2ai::nn::model::SequenceClassifier;
use m2ai::rfsim::reader::{Reader, ReaderConfig};
use m2ai::rfsim::reading::TagReading;
use m2ai::rfsim::room::Room;
use m2ai::rfsim::scene::SceneSnapshot;

/// Sliding window length used throughout the suite.
const HISTORY: usize = 3;

/// Streams compared in the multi-session case.
const STREAMS: usize = 5;

/// Frames pushed per stream.
const STEPS: usize = 8;

fn layout() -> FrameLayout {
    FrameLayout::new(1, 4, FeatureMode::Joint)
}

fn builder() -> FrameBuilder {
    FrameBuilder::new(layout(), PhaseCalibrator::disabled(1, 4), 0.5)
}

fn model(arch: Architecture) -> SequenceClassifier {
    build_model(&layout(), 12, arch, 7)
}

fn serve_config(backend: Backend) -> ServeConfig {
    ServeConfig {
        history_len: HISTORY,
        queue_capacity: 1024,
        backend,
        ..ServeConfig::default()
    }
}

fn single_shard_config(backend: Backend) -> FabricConfig {
    FabricConfig {
        shards: 1,
        vnodes: 16,
        ingress_capacity: 4096,
        serve: serve_config(backend),
        // Supervision stays ON here: the equivalence suite pins that
        // heartbeats and periodic checkpoints never perturb numerics.
        supervision: Default::default(),
    }
}

/// Deterministic pseudo-random frame payload in `(-1, 1)` (same
/// generator as the serve equivalence suite).
fn synth_frame(seed: u64, step: usize) -> Vec<f32> {
    let dim = layout().frame_dim();
    let mut state = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(step as u64)
        | 1;
    (0..dim)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 23) as f32) * 2.0 - 1.0
        })
        .collect()
}

/// Pushes the whole trace into a held single-shard fabric, then
/// flushes; returns each stream's predictions keyed by open order.
fn run_fabric(
    m: &SequenceClassifier,
    backend: Backend,
) -> (Vec<SessionKey>, Vec<Vec<ServePrediction>>) {
    let fabric = ServeFabric::new(m.clone(), builder(), single_shard_config(backend));
    fabric.set_throttle(0, ShardThrottle::HoldTicks);
    let keys: Vec<SessionKey> = (0..STREAMS)
        .map(|_| fabric.open_session().expect("capacity"))
        .collect();
    for t in 0..STEPS {
        for (s, &key) in keys.iter().enumerate() {
            loop {
                match fabric
                    .push_frame(
                        key,
                        t as f64,
                        synth_frame(s as u64, t),
                        HealthState::Healthy,
                    )
                    .expect("session open")
                {
                    PushOutcome::Enqueued => break,
                    // Ingress full while the worker naps: retry, the
                    // worker drains even under HoldTicks.
                    PushOutcome::Shed => std::thread::yield_now(),
                }
            }
        }
    }
    let out = fabric.flush();
    let stats = fabric.shutdown();
    assert_eq!(stats.ingress_shed, 0, "retry loop re-pushed every shed");
    assert_eq!(stats.shards[0].engine_shed, 0, "queues sized for the trace");
    let streams = keys
        .iter()
        .map(|&k| {
            out.iter()
                .filter(|p| p.session == k)
                .map(|p| p.prediction.clone())
                .collect()
        })
        .collect();
    (keys, streams)
}

/// The bare-engine oracle over the same trace.
fn run_bare(
    m: &SequenceClassifier,
    backend: Backend,
) -> (Vec<SessionId>, Vec<Vec<ServePrediction>>) {
    let mut eng = ServeEngine::new(m.clone(), builder(), serve_config(backend));
    let ids: Vec<SessionId> = (0..STREAMS)
        .map(|_| eng.open_session().expect("capacity"))
        .collect();
    for t in 0..STEPS {
        for (s, &id) in ids.iter().enumerate() {
            eng.push_frame(id, t as f64, synth_frame(s as u64, t), HealthState::Healthy)
                .expect("queue capacity");
        }
    }
    let out = eng.drain();
    let streams = ids
        .iter()
        .map(|&id| out.iter().filter(|p| p.session == id).cloned().collect())
        .collect();
    (ids, streams)
}

/// Full-struct comparison of per-stream outputs: time, class,
/// probabilities, health, confidence — and even the engine-local
/// session ids, which a one-shard fabric allocates in the same order a
/// bare engine does.
fn assert_streams_identical(arch: Architecture, m: &SequenceClassifier, backend: Backend) {
    let (_, fabric_streams) = run_fabric(m, backend);
    let (_, bare_streams) = run_bare(m, backend);
    for (s, (got, want)) in fabric_streams.iter().zip(&bare_streams).enumerate() {
        assert!(
            !want.is_empty(),
            "{arch:?}: stream {s} oracle emitted nothing — vacuous test"
        );
        assert_eq!(
            got, want,
            "{arch:?}: stream {s} must be bitwise identical to the bare engine"
        );
    }
}

#[test]
fn single_shard_matches_bare_engine_fast_backend() {
    for arch in [
        Architecture::CnnLstm,
        Architecture::CnnOnly,
        Architecture::LstmOnly,
    ] {
        assert_streams_identical(arch, &model(arch), Backend::Fast);
    }
}

#[test]
fn single_shard_matches_bare_engine_reference_backend() {
    assert_streams_identical(
        Architecture::CnnLstm,
        &model(Architecture::CnnLstm),
        Backend::Reference,
    );
}

/// Simulated tag readings chunked the way a fabric caller would push
/// them (each chunk one ingress event / one `push` call).
fn reading_chunks() -> Vec<Vec<TagReading>> {
    let cfg = ReaderConfig {
        phase_noise_std: 0.02,
        ..ReaderConfig::default()
    };
    let mut reader = Reader::new(Room::hall(), cfg, 1);
    let scene = SceneSnapshot::with_tags(vec![m2ai::rfsim::geometry::Point2::new(4.4, 3.2)]);
    let readings = reader.run(|_| scene.clone(), 6.0);
    assert!(!readings.is_empty(), "reader produced no trace");
    readings.chunks(40).map(<[TagReading]>::to_vec).collect()
}

#[test]
fn single_shard_matches_bare_engine_on_raw_readings() {
    let m = model(Architecture::CnnLstm);
    let chunks = reading_chunks();

    // Oracle: frame extraction inside a bare engine.
    let mut eng = ServeEngine::new(m.clone(), builder(), serve_config(Backend::Fast));
    let id = eng.open_session().expect("capacity");
    let mut bare_shed = 0usize;
    for c in &chunks {
        let PushReport { shed, .. } = eng.push(id, c).expect("session open");
        bare_shed += shed;
    }
    let want: Vec<ServePrediction> = eng.drain();
    assert_eq!(bare_shed, 0, "queue sized for the trace");
    assert!(!want.is_empty(), "trace too short to emit — vacuous test");

    // Fabric: same chunks through the shard worker's extraction.
    let fabric = ServeFabric::new(m.clone(), builder(), single_shard_config(Backend::Fast));
    fabric.set_throttle(0, ShardThrottle::HoldTicks);
    let key = fabric.open_session().expect("capacity");
    for c in &chunks {
        loop {
            match fabric.push(key, c.clone()).expect("session open") {
                PushOutcome::Enqueued => break,
                PushOutcome::Shed => std::thread::yield_now(),
            }
        }
    }
    let got: Vec<ServePrediction> = fabric.flush().into_iter().map(|p| p.prediction).collect();
    fabric.shutdown();
    assert_eq!(
        got, want,
        "raw-readings path must be bitwise identical to the bare engine"
    );
}
