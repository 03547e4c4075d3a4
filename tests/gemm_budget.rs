//! GEMM budget of one batched serve tick and one training sample.
//!
//! A full 64-row tick of the paper-default CNN+LSTM runs the encoder
//! once over all rows, so it dispatches a fixed handful of GEMMs: one
//! per conv layer, one for the merge layer, two per LSTM layer and one
//! for the head (9 today). The budget is 12. One training sample of 10
//! frames runs the encoder's cached forward and its backward once over
//! all frames: 4 forward and 8 backward encoder GEMMs, 3 per LSTM
//! layer and 3 for the head (21 today, 109 when the encoder ran frame
//! by frame). The budget is 30.
//!
//! The counts come from the `m2ai_kernels_gemm_seconds` histogram,
//! which lives in a process-global registry; the tests in this file
//! take [`COUNT_LOCK`] so that neither adds dispatches to the other's
//! count, and no other test shares the binary.

use m2ai::core::dataset::ExperimentConfig;
use m2ai::core::network::{build_model, Architecture};
use m2ai::kernels::{Backend, KernelScratch};
use m2ai::nn::model::StreamState;
use m2ai::obs::{self, MetricValue};
use std::sync::Mutex;

/// Serialises the tests that count dispatches.
static COUNT_LOCK: Mutex<()> = Mutex::new(());

/// Rows in a full serve tick (the `frames` benchmark workload's batch).
const ROWS: usize = 64;
/// Largest GEMM count one full tick may dispatch.
const BUDGET: u64 = 12;
/// Largest GEMM count one training sample may dispatch.
const TRAIN_BUDGET: u64 = 30;

/// GEMMs dispatched so far, summed over the histogram's shape classes.
fn gemm_dispatches() -> u64 {
    ["small", "medium", "large"]
        .into_iter()
        .map(
            |class| match obs::find("m2ai_kernels_gemm_seconds", &[("shape_class", class)]) {
                Some(MetricValue::Histogram(h)) => h.count,
                _ => 0,
            },
        )
        .sum()
}

/// Deterministic pseudo-random frame payload in `(-1, 1)`.
fn synth_frame(row: usize, dim: usize) -> Vec<f32> {
    let mut state = (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..dim)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 23) as f32) * 2.0 - 1.0
        })
        .collect()
}

#[test]
fn full_tick_dispatches_at_most_the_gemm_budget() {
    let _guard = COUNT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert!(
        obs::enabled(),
        "GEMM dispatches are counted only when enabled"
    );
    let layout = ExperimentConfig::paper_default().layout();
    let model = build_model(&layout, 12, Architecture::CnnLstm, 1);
    let frames: Vec<Vec<f32>> = (0..ROWS)
        .map(|r| synth_frame(r, layout.frame_dim()))
        .collect();
    let rows: Vec<&[f32]> = frames.iter().map(|f| f.as_slice()).collect();
    let mut states: Vec<StreamState> = (0..ROWS).map(|_| model.stream_state(3)).collect();
    let mut scratch = KernelScratch::with_backend(Backend::Fast);

    let mut tick = |states: &mut [StreamState]| {
        let mut refs: Vec<&mut StreamState> = states.iter_mut().collect();
        let before = gemm_dispatches();
        model.step_batch_with(&rows, &mut refs, &mut scratch);
        gemm_dispatches() - before
    };
    // The first tick also resolves lazily registered instruments.
    tick(&mut states);
    let dispatched = tick(&mut states);
    assert!(dispatched > 0, "the GEMM histogram must see the tick");
    assert!(
        dispatched <= BUDGET,
        "a {ROWS}-row tick dispatched {dispatched} GEMMs (budget {BUDGET})"
    );
}

#[test]
fn training_sample_dispatches_at_most_the_gemm_budget() {
    let _guard = COUNT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert!(
        obs::enabled(),
        "GEMM dispatches are counted only when enabled"
    );
    let config = ExperimentConfig::paper_default();
    let layout = config.layout();
    let mut model = build_model(&layout, 12, Architecture::CnnLstm, 1);
    let frames: Vec<Vec<f32>> = (0..config.frames_per_sample)
        .map(|t| synth_frame(t, layout.frame_dim()))
        .collect();
    let mut scratch = KernelScratch::with_backend(Backend::Fast);

    let mut sample = |model: &mut m2ai::nn::model::SequenceClassifier| {
        let before = gemm_dispatches();
        model.loss_and_backprop_with(&frames, 3, &mut scratch);
        gemm_dispatches() - before
    };
    // The first sample also resolves lazily registered instruments.
    sample(&mut model);
    let dispatched = sample(&mut model);
    assert!(dispatched > 0, "the GEMM histogram must see the sample");
    assert!(
        dispatched <= TRAIN_BUDGET,
        "a {}-frame training sample dispatched {dispatched} GEMMs (budget {TRAIN_BUDGET})",
        frames.len()
    );
}
