//! Checkpoint/restore equivalence suite (supervision PR).
//!
//! The supervisor's zero-loss recovery story rests on one numerical
//! contract: a session snapshotted mid-stream and adopted by a *fresh*
//! engine continues **bitwise identically** to the uninterrupted
//! original. This file pins that contract at three layers, on both
//! kernel backends:
//!
//! * **`StreamState` bytes** — `to_bytes`/`from_bytes` round-trips the
//!   LSTM carries and the softmax ring exactly; stepping the restored
//!   state reproduces the original's outputs bit for bit;
//! * **engine sessions** — `export_session` at a random cut point
//!   (with events still *pending* in the queue) and `restore_session`
//!   into a fresh engine yields the same prediction stream as never
//!   having been interrupted, and the snapshot is a deep copy — the
//!   donor engine can keep running without disturbing it;
//! * **rejection** — a snapshot from a mismatched model geometry is
//!   refused with `CheckpointMismatch`, and corrupted bytes never
//!   deserialize.

use m2ai::core::calibration::PhaseCalibrator;
use m2ai::core::frames::{FeatureMode, FrameBuilder, FrameLayout};
use m2ai::core::network::{build_model, Architecture};
use m2ai::core::online::HealthState;
use m2ai::core::serve::{ServeConfig, ServeEngine, ServeError, ServePrediction};
use m2ai::kernels::{Backend, KernelScratch};
use m2ai::nn::model::{SequenceClassifier, StreamState};
use proptest::prelude::*;

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

fn serve_config() -> ServeConfig {
    ServeConfig {
        history_len: HISTORY,
        queue_capacity: 256,
        ..ServeConfig::default()
    }
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

/// Steps `state` through frames `[from, to)` of stream `seed` on
/// `scratch`'s backend, returning the last output.
fn step_range(
    m: &SequenceClassifier,
    state: &mut StreamState,
    scratch: &mut KernelScratch,
    seed: u64,
    from: usize,
    to: usize,
) -> Vec<f32> {
    let mut last = Vec::new();
    for t in from..to {
        last = m.step_with(&synth_frame(seed, t), state, scratch);
    }
    last
}

/// `StreamState` byte round-trip: the deserialized state continues the
/// stream bitwise-identically to the original, for every architecture
/// on the given backend.
fn assert_stream_roundtrip(backend: Backend, seed: u64, warm: usize, tail: usize) {
    let mut scratch = KernelScratch::with_backend(backend);
    for arch in ALL_ARCHS {
        let m = model(arch);
        let mut original = m.stream_state(HISTORY);
        step_range(&m, &mut original, &mut scratch, seed, 0, warm);

        let bytes = original.to_bytes();
        let mut restored = StreamState::from_bytes(&bytes).expect("round-trip");

        let want = step_range(&m, &mut original, &mut scratch, seed, warm, warm + tail);
        let got = step_range(&m, &mut restored, &mut scratch, seed, warm, warm + tail);
        assert_eq!(
            got, want,
            "{arch:?}: restored stream state diverged after {warm} warm steps"
        );
    }
}

/// Engine-level equivalence: an uninterrupted engine vs one whose
/// session was exported at `cut` (pending events included) and adopted
/// by a fresh engine. Prediction streams must concatenate bitwise.
fn assert_engine_roundtrip(
    backend: Backend,
    arch: Architecture,
    seed: u64,
    steps: usize,
    cut: usize,
) {
    let m = model(arch);
    let serve_config = || ServeConfig {
        backend,
        ..serve_config()
    };

    // Oracle: one engine, never interrupted.
    let mut oracle = ServeEngine::new(m.clone(), builder(), serve_config());
    let oid = oracle.open_session().expect("capacity");
    for t in 0..steps {
        oracle
            .push_frame(
                oid,
                t as f64 * 0.5,
                synth_frame(seed, t),
                HealthState::Healthy,
            )
            .expect("queue sized for trace");
    }
    let want: Vec<ServePrediction> = oracle.drain();

    // Donor: pushes up to `cut` *without draining*, so the snapshot
    // carries a non-trivial pending queue — the state a crash actually
    // interrupts.
    let mut donor = ServeEngine::new(m.clone(), builder(), serve_config());
    let did = donor.open_session().expect("capacity");
    for t in 0..cut {
        donor
            .push_frame(
                did,
                t as f64 * 0.5,
                synth_frame(seed, t),
                HealthState::Healthy,
            )
            .expect("queue sized for trace");
    }
    let ckpt = donor.export_session(did).expect("session open");
    assert_eq!(ckpt.pending_len(), cut, "nothing ticked before the export");

    // Deep-copy check: keep running (and then discard) the donor after
    // the export — the snapshot must not notice.
    donor
        .push_frame(
            did,
            99.0,
            synth_frame(seed ^ 0xDEAD, 0),
            HealthState::Healthy,
        )
        .expect("queue sized for trace");
    donor.drain();
    drop(donor);

    let mut heir = ServeEngine::new(m.clone(), builder(), serve_config());
    let hid = heir.restore_session(ckpt).expect("geometry matches");
    for t in cut..steps {
        heir.push_frame(
            hid,
            t as f64 * 0.5,
            synth_frame(seed, t),
            HealthState::Healthy,
        )
        .expect("queue sized for trace");
    }
    let got: Vec<ServePrediction> = heir.drain();

    assert_eq!(
        got.len(),
        want.len(),
        "{arch:?}: restored session lost or invented predictions \
         (cut {cut} of {steps})"
    );
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(
            (g.time_s, g.class, &g.probabilities, g.confidence, g.health),
            (w.time_s, w.class, &w.probabilities, w.confidence, w.health),
            "{arch:?}: restored stream diverged from the uninterrupted \
             oracle (cut {cut} of {steps})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Byte round-trip continuation is bitwise on the fast kernels.
    #[test]
    fn stream_state_bytes_roundtrip_bitwise_fast(
        seed in 0u64..1_000_000,
        warm in 1usize..8,
        tail in 1usize..5,
    ) {
        assert_stream_roundtrip(Backend::Fast, seed, warm, tail);
    }

    /// Same property on the reference kernels: the contract is
    /// per-backend, not an artifact of one kernel implementation.
    #[test]
    fn stream_state_bytes_roundtrip_bitwise_reference(
        seed in 0u64..1_000_000,
        warm in 1usize..8,
        tail in 1usize..5,
    ) {
        assert_stream_roundtrip(Backend::Reference, seed, warm, tail);
    }

    /// Export-at-a-random-cut → restore-into-a-fresh-engine equals the
    /// uninterrupted stream, for every architecture (fast kernels).
    #[test]
    fn session_checkpoint_restore_is_bitwise_fast(
        seed in 0u64..1_000_000,
        steps in (HISTORY + 2)..12usize,
        cut_frac in 0.1f64..0.9,
    ) {
        let cut = ((steps as f64 * cut_frac) as usize).clamp(1, steps - 1);
        for arch in ALL_ARCHS {
            assert_engine_roundtrip(Backend::Fast, arch, seed, steps, cut);
        }
    }

    /// The engine-level property on the reference kernels (one
    /// architecture keeps the slow backend's share of the suite small).
    #[test]
    fn session_checkpoint_restore_is_bitwise_reference(
        seed in 0u64..1_000_000,
        steps in (HISTORY + 2)..10usize,
        cut_frac in 0.1f64..0.9,
    ) {
        let cut = ((steps as f64 * cut_frac) as usize).clamp(1, steps - 1);
        assert_engine_roundtrip(Backend::Reference, Architecture::CnnLstm, seed, steps, cut);
    }
}

/// Geometry guard: a snapshot minted by one model must not be adopted
/// by an engine whose model disagrees on classes or feature width.
#[test]
fn mismatched_checkpoint_is_refused() {
    let donor_model = model(Architecture::CnnLstm);
    let mut donor = ServeEngine::new(donor_model.clone(), builder(), serve_config());
    let id = donor.open_session().expect("capacity");
    // Tick past a full window so the snapshot carries buffered softmax
    // rows — the class-dimension gate inspects those rows.
    for t in 0..HISTORY {
        donor
            .push_frame(id, t as f64 * 0.5, synth_frame(1, t), HealthState::Healthy)
            .expect("queue sized");
    }
    donor.drain();
    let ckpt = donor.export_session(id).expect("open");

    // Same layout, different class count: the snapshot's 12-wide
    // softmax rows cannot feed a 5-class engine.
    let other = build_model(&layout(), 5, Architecture::CnnLstm, 7);
    let mut heir = ServeEngine::new(other, builder(), serve_config());
    assert_eq!(
        heir.restore_session(ckpt).err(),
        Some(ServeError::CheckpointMismatch),
        "a class-count mismatch must be refused, not adopted"
    );

    // Different window length: refused by the structural gate even
    // with nothing buffered.
    let id2 = donor.open_session().expect("capacity");
    let fresh = donor.export_session(id2).expect("open");
    let mut longer = ServeEngine::new(
        donor_model,
        builder(),
        ServeConfig {
            history_len: HISTORY + 2,
            ..serve_config()
        },
    );
    assert_eq!(
        longer.restore_session(fresh).err(),
        Some(ServeError::CheckpointMismatch),
        "a window-length mismatch must be refused, not adopted"
    );
}

/// Corrupted persistence bytes never deserialize into a state.
#[test]
fn corrupted_stream_state_bytes_are_rejected() {
    let m = model(Architecture::CnnLstm);
    let mut state = m.stream_state(HISTORY);
    step_range(&m, &mut state, &mut KernelScratch::new(), 7, 0, 4);
    let bytes = state.to_bytes();

    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xFF;
    assert!(
        StreamState::from_bytes(&bad_magic).is_err(),
        "a corrupted magic must be rejected"
    );
    assert!(
        StreamState::from_bytes(&bytes[..bytes.len() - 3]).is_err(),
        "truncated bytes must be rejected"
    );
    assert!(
        StreamState::from_bytes(&[]).is_err(),
        "empty bytes must be rejected"
    );
}
