//! End-to-end fault-injection tests: the read→frame→predict pipeline
//! under the reader's fault model (`FaultPlan`).
//!
//! The contracts checked here:
//!
//! * `FaultPlan::none()` is a bit-exact no-op at every layer;
//! * fault injection is deterministic and thread-count invariant;
//! * read loss grows with fault intensity;
//! * no frame or prediction ever contains a non-finite value, no
//!   matter how hard the stream is faulted;
//! * training survives faulted data, and a `ServeEngine` session
//!   degrades and recovers instead of crashing.

use m2ai::core::dataset::{generate_dataset, ExperimentConfig};
use m2ai::core::frames::{FrameBuilder, FrameLayout};
use m2ai::core::network::build_model;
use m2ai::core::online::{HealthConfig, HealthState};
use m2ai::core::serve::{ServeConfig, ServeEngine};
use m2ai::prelude::*;
use m2ai::rfsim::geometry::Point2;

/// A small-but-real experimental condition (fast enough for CI).
fn small_config() -> ExperimentConfig {
    ExperimentConfig {
        n_persons: 1,
        tags_per_person: 2,
        samples_per_class: 2,
        frames_per_sample: 4,
        ..ExperimentConfig::paper_default()
    }
}

fn assert_bundles_identical(a: &m2ai::core::DatasetBundle, b: &m2ai::core::DatasetBundle) {
    assert_eq!(a.samples.len(), b.samples.len());
    for ((fa, la), (fb, lb)) in a.samples.iter().zip(&b.samples) {
        assert_eq!(la, lb);
        assert_eq!(fa.len(), fb.len());
        for (va, vb) in fa.iter().zip(fb) {
            assert_eq!(va.len(), vb.len());
            for (x, y) in va.iter().zip(vb) {
                assert_eq!(x.to_bits(), y.to_bits(), "frame values must be bit-equal");
            }
        }
    }
}

#[test]
fn none_plan_is_a_bit_exact_noop_end_to_end() {
    let clean = generate_dataset(&small_config());
    let mut cfg = small_config();
    cfg.faults = FaultPlan::with_intensity(0.0, 999); // seed must not matter at zero
    let zero = generate_dataset(&cfg);
    assert_bundles_identical(&clean, &zero);
}

#[test]
fn faulted_dataset_is_deterministic() {
    let mut cfg = small_config();
    cfg.faults = FaultPlan::with_intensity(0.6, 2026);
    let a = generate_dataset(&cfg);
    let b = generate_dataset(&cfg);
    assert_bundles_identical(&a, &b);
}

#[test]
fn faulted_dataset_is_thread_count_invariant() {
    let mut serial = small_config();
    serial.faults = FaultPlan::with_intensity(0.5, 7);
    serial.n_threads = 1;
    let mut parallel = serial.clone();
    parallel.n_threads = 8;
    assert_bundles_identical(&generate_dataset(&serial), &generate_dataset(&parallel));
}

#[test]
fn read_loss_grows_with_intensity() {
    let room = Room::laboratory();
    let scene = SceneSnapshot::with_tags(vec![Point2::new(2.0, 2.5), Point2::new(3.5, 2.5)]);
    let survivors = |intensity: f64| -> usize {
        let mut reader = Reader::new(room.clone(), ReaderConfig::default(), 2)
            .with_fault_plan(FaultPlan::with_intensity(intensity, 2026));
        reader.run(|_| scene.clone(), 4.0).len()
    };
    let counts: Vec<usize> = [0.0, 0.25, 0.5, 0.75, 1.0]
        .iter()
        .map(|&i| survivors(i))
        .collect();
    assert!(counts[0] > 0, "clean run must produce reads");
    for w in counts.windows(2) {
        assert!(
            w[1] <= w[0],
            "read count must not grow with intensity: {counts:?}"
        );
    }
    assert!(
        counts[4] < counts[0],
        "full intensity must destroy some reads: {counts:?}"
    );
}

#[test]
fn frames_stay_finite_under_maximum_faults() {
    let mut cfg = small_config();
    cfg.faults = FaultPlan::with_intensity(1.0, 13);
    let bundle = generate_dataset(&cfg);
    for (frames, _) in &bundle.samples {
        for frame in frames {
            assert_eq!(frame.len(), bundle.layout.frame_dim());
            assert!(
                frame.iter().all(|v| v.is_finite()),
                "faulted frame leaked a non-finite value"
            );
        }
    }
}

#[test]
fn training_survives_a_faulted_dataset() {
    let mut cfg = small_config();
    cfg.samples_per_class = 3;
    cfg.faults = FaultPlan::with_intensity(0.8, 5);
    let bundle = generate_dataset(&cfg);
    let outcome = train_m2ai(
        &bundle,
        &TrainOptions {
            epochs: 2,
            ..TrainOptions::fast()
        },
    );
    assert!(outcome.test_accuracy.is_finite());
    for &loss in &outcome.report.epoch_losses {
        assert!(loss.is_finite(), "training loss diverged on faulted data");
    }
}

/// Streams a faulted read sequence through a one-session serve engine:
/// the state machine may flag or suppress, but every emitted prediction
/// must be finite and well-formed.
#[test]
fn serve_engine_survives_a_faulted_stream() {
    let layout = FrameLayout::new(1, 4, FeatureMode::Joint);
    let builder = FrameBuilder::new(layout, PhaseCalibrator::disabled(1, 4), 0.5);
    let model = build_model(&layout, 12, Architecture::CnnLstm, 1);
    let mut engine = ServeEngine::new(
        model,
        builder,
        ServeConfig {
            history_len: 2,
            health: HealthConfig {
                stale_timeout_s: 1.0,
                ..HealthConfig::default()
            },
            ..ServeConfig::default()
        },
    );
    let id = engine.open_session().unwrap();

    let mut reader = Reader::new(Room::hall(), ReaderConfig::default(), 1)
        .with_fault_plan(FaultPlan::with_intensity(0.9, 2026));
    let scene = SceneSnapshot::with_tags(vec![Point2::new(4.4, 3.0)]);
    let readings = reader.run(|_| scene.clone(), 8.0);
    assert!(
        !readings.is_empty(),
        "some reads must survive 0.9 intensity"
    );

    engine.push(id, &readings).unwrap();
    let preds = engine.drain();
    for p in &preds {
        assert!(p.class < 12);
        assert!(p.confidence.is_finite());
        assert!(
            p.probabilities.iter().all(|v| v.is_finite()),
            "prediction leaked a non-finite probability"
        );
    }
    // Under 90 % fault intensity the stream must not look pristine end
    // to end: either some window was flagged or some output suppressed.
    let flagged = preds.iter().any(|p| p.health != HealthState::Healthy);
    assert!(
        flagged || engine.suppressed() > 0 || preds.is_empty(),
        "a heavily faulted stream reported uniformly healthy output"
    );
}

/// The reader's surviving reads under faults are a subset of the clean
/// stream (faults only remove or perturb; they never invent reads at
/// new instants).
#[test]
fn faults_never_invent_reads() {
    let room = Room::laboratory();
    let scene = SceneSnapshot::with_tags(vec![Point2::new(2.0, 2.5)]);
    let run = |plan: FaultPlan| -> Vec<TagReading> {
        let mut reader =
            Reader::new(room.clone(), ReaderConfig::default(), 1).with_fault_plan(plan);
        reader.run(|_| scene.clone(), 3.0)
    };
    let clean = run(FaultPlan::none());
    let faulted = run(FaultPlan::with_intensity(0.7, 3));
    assert!(faulted.len() <= clean.len());
    // Every surviving (time, tag, antenna, channel) identity appears in
    // the clean stream too.
    for f in &faulted {
        assert!(
            clean.iter().any(|c| c.time_s == f.time_s
                && c.tag == f.tag
                && c.antenna == f.antenna
                && c.channel == f.channel),
            "fault injection invented a read at t={}",
            f.time_s
        );
    }
}
