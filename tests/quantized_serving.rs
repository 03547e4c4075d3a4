//! Per-engine kernel choice and end-to-end quantized serving.
//!
//! * `ServeConfig::backend` is a per-engine value: engines on
//!   different backends — `Reference`, `Fast`, and `Fast` over an int8
//!   model — run concurrently in one process, and each one's
//!   predictions equal its solo run bit for bit.
//! * A model prepared with `prepare_quantized` serves int8 end to end
//!   through the fabric: sessions open, frames flow, predictions come
//!   out finite.
//!
//! Neither test sets a process-wide knob, so the two run in parallel
//! with no lock.

use m2ai::core::calibration::PhaseCalibrator;
use m2ai::core::frames::{FeatureMode, FrameBuilder, FrameLayout};
use m2ai::core::network::{build_model, Architecture};
use m2ai::core::online::HealthState;
use m2ai::core::serve::{ServeConfig, ServeEngine, ServePrediction};
use m2ai::fabric::{FabricConfig, PushOutcome, ServeFabric};
use m2ai::kernels::Backend;
use m2ai::nn::model::SequenceClassifier;
use std::sync::Barrier;

/// Sliding window length (the serving `T`).
const HISTORY: usize = 3;

fn layout() -> FrameLayout {
    FrameLayout::new(1, 4, FeatureMode::Joint)
}

fn builder() -> FrameBuilder {
    FrameBuilder::new(layout(), PhaseCalibrator::disabled(1, 4), 0.5)
}

fn model() -> SequenceClassifier {
    build_model(&layout(), 12, Architecture::CnnLstm, 7)
}

/// Deterministic pseudo-random frame payload in `(-1, 1)`.
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

/// A small calibration corpus shaped like the serving traffic.
fn calib_sequences() -> Vec<Vec<Vec<f32>>> {
    (0..4u64)
        .map(|s| (0..HISTORY).map(|t| synth_frame(s, t)).collect())
        .collect()
}

fn quantized_model() -> SequenceClassifier {
    let mut m = model();
    let calib = calib_sequences();
    m.prepare_quantized(calib.iter().map(|s| s.as_slice()));
    assert!(m.is_quantized(), "calibration must freeze quant state");
    m
}

/// Sessions and frames per session of the concurrency stream.
const SESSIONS: usize = 4;
const FRAMES_PER_SESSION: usize = 16;

/// Serves the fixed 4-session, 64-frame stream through one engine on
/// `backend`, one tick per time step, and returns every prediction in
/// emission order.
fn serve_stream(model: &SequenceClassifier, backend: Backend) -> Vec<ServePrediction> {
    let mut eng = ServeEngine::new(
        model.clone(),
        builder(),
        ServeConfig {
            history_len: HISTORY,
            backend,
            ..ServeConfig::default()
        },
    );
    let ids: Vec<_> = (0..SESSIONS)
        .map(|_| eng.open_session().expect("capacity"))
        .collect();
    let mut out = Vec::new();
    for t in 0..FRAMES_PER_SESSION {
        for (s, &id) in ids.iter().enumerate() {
            eng.push_frame(id, t as f64, synth_frame(s as u64, t), HealthState::Healthy)
                .expect("queue capacity");
        }
        out.extend(eng.tick());
    }
    out.extend(eng.drain());
    out
}

#[test]
fn engines_on_different_backends_run_concurrently_bitwise() {
    let f32_model = model();
    let int8_model = quantized_model();
    let engines = [
        ("reference", &f32_model, Backend::Reference),
        ("fast", &f32_model, Backend::Fast),
        ("fast-int8", &int8_model, Backend::Fast),
    ];
    let solo: Vec<_> = engines
        .iter()
        .map(|&(_, m, b)| serve_stream(m, b))
        .collect();
    assert!(
        solo.iter().all(|s| !s.is_empty()),
        "every engine must emit once windows fill"
    );
    // The backends must really differ, or the comparison below could
    // not tell one engine's kernels from another's.
    assert_ne!(solo[0], solo[1], "reference and fast agree bit for bit");
    assert_ne!(solo[1], solo[2], "int8 and f32 agree bit for bit");

    const ROUNDS: usize = 3;
    let start = Barrier::new(engines.len());
    let concurrent: Vec<Vec<_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = engines
            .iter()
            .map(|&(_, m, b)| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    (0..ROUNDS).map(|_| serve_stream(m, b)).collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("engine thread panicked"))
            .collect()
    });
    for ((name, _, _), (runs, want)) in engines.iter().zip(concurrent.iter().zip(&solo)) {
        for (round, got) in runs.iter().enumerate() {
            assert_eq!(
                got, want,
                "{name}: concurrent round {round} differs from its solo run"
            );
        }
    }
}

#[test]
fn fabric_serves_quantized_end_to_end() {
    let cfg = FabricConfig {
        shards: 2,
        vnodes: 16,
        ingress_capacity: 4096,
        serve: ServeConfig {
            history_len: HISTORY,
            queue_capacity: 1024,
            ..ServeConfig::default()
        },
        supervision: Default::default(),
    };
    let fabric = ServeFabric::new(quantized_model(), builder(), cfg);
    let keys: Vec<_> = (0..4)
        .map(|_| fabric.open_session().expect("capacity"))
        .collect();
    for t in 0..6 {
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
                    PushOutcome::Shed => std::thread::yield_now(),
                }
            }
        }
    }
    let out = fabric.flush();
    fabric.shutdown();
    assert!(
        !out.is_empty(),
        "quantized fabric must emit predictions once windows fill"
    );
    for p in &out {
        assert!(
            p.prediction.probabilities.iter().all(|v| v.is_finite()),
            "int8 serving must produce finite probabilities"
        );
    }
    for &key in &keys {
        assert!(
            out.iter().any(|p| p.session == key),
            "every stream must have produced at least one prediction"
        );
    }
}
