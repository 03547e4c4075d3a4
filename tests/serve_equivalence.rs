//! Serving-engine equivalence suite (serving PR).
//!
//! Pins the numerical contract DESIGN.md documents for the serving
//! path, at full model scale for every Fig. 17 architecture variant:
//!
//! * **incremental == replay** — a fresh `StreamState` stepped through
//!   a window reproduces the full-sequence `predict_proba` *bitwise*
//!   (the streaming step reduces exactly the accumulator chains the
//!   sequence forward does, on either kernel backend);
//! * **batched == serial** — one B-session micro-batched tick equals B
//!   single-session ticks bitwise (kernel rows are independent);
//! * **slot independence** — a property test over random slot churn,
//!   arrival interleavings and mid-stream departures: each session's
//!   predictions depend only on its own frame stream, never on which
//!   slot it landed in or who it shared ticks with;
//! * **per-engine backend** — `ServeConfig::backend` is a per-engine
//!   value: engines on `Reference` and `Fast` run concurrently in one
//!   process, and each one's predictions equal its solo run bit for
//!   bit.
//!
//! Tolerance is exact equality everywhere — the one *semantic*
//! divergence (LSTM context retained across windows after the first,
//! instead of replay-from-zero) is intentional and starts only after
//! the first full window, which these tests pin too.

use m2ai::core::calibration::PhaseCalibrator;
use m2ai::core::frames::{FeatureMode, FrameBuilder, FrameLayout};
use m2ai::core::network::{build_model, Architecture};
use m2ai::core::online::HealthState;
use m2ai::core::serve::{ServeConfig, ServeEngine, ServePrediction, SessionId};
use m2ai::kernels::{Backend, KernelScratch};
use m2ai::nn::model::SequenceClassifier;
use proptest::prelude::*;
use std::sync::{Barrier, OnceLock};

/// Sliding window length used throughout the suite.
const HISTORY: usize = 3;

fn layout() -> FrameLayout {
    FrameLayout::new(1, 4, FeatureMode::Joint)
}

fn builder() -> FrameBuilder {
    FrameBuilder::new(layout(), PhaseCalibrator::disabled(1, 4), 0.5)
}

fn model(arch: Architecture) -> SequenceClassifier {
    build_model(&layout(), 12, arch, 7)
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

const ALL_ARCHS: [Architecture; 3] = [
    Architecture::CnnLstm,
    Architecture::CnnOnly,
    Architecture::LstmOnly,
];

#[test]
fn incremental_step_matches_full_replay_bitwise() {
    for arch in ALL_ARCHS {
        let m = model(arch);
        let frames: Vec<Vec<f32>> = (0..HISTORY).map(|t| synth_frame(5, t)).collect();
        let mut state = m.stream_state(HISTORY);
        let mut last = Vec::new();
        for f in &frames {
            last = m.step(f, &mut state);
        }
        assert_eq!(
            last,
            m.predict_proba(&frames),
            "{arch:?}: incremental window must bit-match replay"
        );
    }
}

#[test]
fn incremental_step_matches_full_replay_on_reference_backend() {
    // The bit-exactness argument is per-backend (each computes one
    // accumulator chain per output); pin it on the naive kernels too.
    let mut scratch = KernelScratch::with_backend(Backend::Reference);
    let m = model(Architecture::CnnLstm);
    let frames: Vec<Vec<f32>> = (0..HISTORY).map(|t| synth_frame(6, t)).collect();
    let mut state = m.stream_state(HISTORY);
    let mut last = Vec::new();
    for f in &frames {
        last = m.step_with(f, &mut state, &mut scratch);
    }
    assert_eq!(last, m.predict_proba_with(&frames, &mut scratch));
}

/// Feeds `steps` frames of stream `seed` to one engine session and
/// returns its predictions.
fn run_single(m: &SequenceClassifier, seed: u64, steps: usize) -> Vec<ServePrediction> {
    let mut eng = ServeEngine::new(
        m.clone(),
        builder(),
        ServeConfig {
            history_len: HISTORY,
            ..ServeConfig::default()
        },
    );
    let id = eng.open_session().expect("capacity");
    for t in 0..steps {
        eng.push_frame(id, t as f64, synth_frame(seed, t), HealthState::Healthy)
            .expect("queue capacity");
    }
    eng.drain()
}

#[test]
fn batched_ticks_match_serial_ticks_bitwise() {
    const B: usize = 5;
    const STEPS: usize = 7;
    for arch in ALL_ARCHS {
        let m = model(arch);
        // Serial: each stream alone in its own engine.
        let serial: Vec<Vec<ServePrediction>> =
            (0..B as u64).map(|s| run_single(&m, s, STEPS)).collect();

        // Batched: all streams share one engine; every tick advances
        // all of them in one micro-batched step.
        let mut eng = ServeEngine::new(
            m.clone(),
            builder(),
            ServeConfig {
                history_len: HISTORY,
                ..ServeConfig::default()
            },
        );
        let ids: Vec<SessionId> = (0..B)
            .map(|_| eng.open_session().expect("capacity"))
            .collect();
        for t in 0..STEPS {
            for (s, &id) in ids.iter().enumerate() {
                eng.push_frame(id, t as f64, synth_frame(s as u64, t), HealthState::Healthy)
                    .expect("queue capacity");
            }
        }
        let batched = eng.drain();
        assert!(
            !batched.is_empty(),
            "{arch:?}: suite is vacuous if nothing is ever emitted"
        );

        for (s, &id) in ids.iter().enumerate() {
            let mine: Vec<&ServePrediction> = batched.iter().filter(|p| p.session == id).collect();
            assert_eq!(mine.len(), serial[s].len(), "{arch:?}: stream {s} count");
            for (b, a) in mine.iter().zip(&serial[s]) {
                assert_eq!(b.time_s, a.time_s, "{arch:?}: stream {s} timing");
                assert_eq!(
                    b.probabilities, a.probabilities,
                    "{arch:?}: stream {s} must bit-match its solo run"
                );
                assert_eq!(b.class, a.class);
            }
        }
    }
}

/// Shared model for the property test (building one per case would
/// dominate the runtime; the model is immutable so sharing is sound).
fn shared_model() -> &'static SequenceClassifier {
    static MODEL: OnceLock<SequenceClassifier> = OnceLock::new();
    MODEL.get_or_init(|| model(Architecture::CnnLstm))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Engine output per session is a pure function of that session's
    /// frame stream: random pre-churn (sessions opened and closed to
    /// scramble slot assignment), random open order and a random
    /// mid-stream departure must not change any surviving session's
    /// predictions.
    #[test]
    fn predictions_independent_of_slot_assignment_and_arrivals(
        churn in 0usize..4,
        order_seed in any::<u64>(),
        departing in 0usize..4,
        depart_after in 1usize..6,
    ) {
        const B: usize = 4;
        const STEPS: usize = 6;
        let m = shared_model();
        let mut eng = ServeEngine::new(
            m.clone(),
            builder(),
            ServeConfig {
                history_len: HISTORY,
                max_sessions: 16,
                ..ServeConfig::default()
            },
        );
        // Slot churn: occupy and free low slots so real sessions land
        // in scrambled positions.
        let dummies: Vec<SessionId> =
            (0..churn + 1).map(|_| eng.open_session().expect("capacity")).collect();
        for (i, &d) in dummies.iter().enumerate() {
            if i.is_multiple_of(2) {
                eng.close_session(d).expect("open above");
            }
        }
        // Open the real sessions in a seed-derived order.
        let mut open_order: Vec<usize> = (0..B).collect();
        let mut rng = order_seed | 1;
        for i in (1..B).rev() {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            open_order.swap(i, (rng >> 33) as usize % (i + 1));
        }
        let mut by_stream: Vec<Option<SessionId>> = vec![None; B];
        for &stream in &open_order {
            by_stream[stream] = Some(eng.open_session().expect("capacity"));
        }
        let ids: Vec<SessionId> =
            by_stream.into_iter().map(|id| id.expect("all opened")).collect();
        let mut open = [true; B];
        // Feed frames tick-aligned; one session departs mid-stream.
        let mut collected: Vec<ServePrediction> = Vec::new();
        for t in 0..STEPS {
            if t == depart_after && open[departing] {
                // Departure discards the session's queue; drain first
                // so its already-queued work is identical to the solo
                // run's prefix.
                collected.extend(eng.drain());
                eng.close_session(ids[departing]).expect("still open");
                open[departing] = false;
            }
            for (stream, &id) in ids.iter().enumerate() {
                if open[stream] {
                    eng.push_frame(id, t as f64, synth_frame(stream as u64, t), HealthState::Healthy)
                        .expect("queue capacity");
                }
            }
        }
        collected.extend(eng.drain());

        for stream in 0..B {
            // A departed stream still must have produced predictions
            // identical to a solo run over the frames it got to push.
            let steps = if open[stream] { STEPS } else { depart_after };
            let solo = run_single(m, stream as u64, steps);
            let mine: Vec<&ServePrediction> =
                collected.iter().filter(|p| p.session == ids[stream]).collect();
            prop_assert_eq!(mine.len(), solo.len());
            for (got, want) in mine.iter().zip(&solo) {
                prop_assert_eq!(got.time_s, want.time_s);
                prop_assert_eq!(&got.probabilities, &want.probabilities);
            }
        }
    }
}

/// Serves a fixed 4-session, 64-frame stream through one engine on
/// `backend`, one tick per time step, and returns every prediction in
/// emission order.
fn serve_stream(m: &SequenceClassifier, backend: Backend) -> Vec<ServePrediction> {
    const SESSIONS: usize = 4;
    const FRAMES_PER_SESSION: usize = 16;
    let mut eng = ServeEngine::new(
        m.clone(),
        builder(),
        ServeConfig {
            history_len: HISTORY,
            backend,
            ..ServeConfig::default()
        },
    );
    let ids: Vec<SessionId> = (0..SESSIONS)
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
    let m = model(Architecture::CnnLstm);
    let engines = [("reference", Backend::Reference), ("fast", Backend::Fast)];
    let solo: Vec<_> = engines.iter().map(|&(_, b)| serve_stream(&m, b)).collect();
    assert!(
        solo.iter().all(|s| !s.is_empty()),
        "every engine must emit once windows fill"
    );
    // The backends must really differ, or the comparison below could
    // not tell one engine's kernels from another's.
    assert_ne!(solo[0], solo[1], "reference and fast agree bit for bit");

    const ROUNDS: usize = 3;
    let start = Barrier::new(engines.len());
    let concurrent: Vec<Vec<_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = engines
            .iter()
            .map(|&(_, b)| {
                let (start, m) = (&start, &m);
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
    for ((name, _), (runs, want)) in engines.iter().zip(concurrent.iter().zip(&solo)) {
        for (round, got) in runs.iter().enumerate() {
            assert_eq!(
                got, want,
                "{name}: concurrent round {round} differs from its solo run"
            );
        }
    }
}
