//! Throughput benchmark and regression gate (GEMM-kernels PR).
//!
//! Measures the three pipeline rates the realtime claim rests on —
//! feature-extraction frames/sec, training samples/sec and online
//! predictions/sec — plus the same training workload under the naive
//! [`Backend::Reference`] kernels, whose ratio to the fast path is the
//! headline speedup of the GEMM lowering.
//!
//! The emitted `BENCH_throughput.json` doubles as the CI baseline:
//! [`check`] re-measures on the current machine and fails on a > 15 %
//! regression of any *machine-normalised* rate (each rate divided by
//! the same machine's reference-kernel training rate, so an absolute
//! slowdown of the runner cancels out) or if the fast-over-reference
//! training speedup drops below the 2× floor the PR promises.
//!
//! The tiled-GEMM PR adds a **parallel training gate**: a batched
//! dense training step (a 256-row forward + backward, the canonical
//! GEMM triple of batched training) measured under the single-thread
//! fast backend and again under [`Backend::FastParallel`]. On a
//! machine with ≥ 4 cores the parallel path must be ≥ 1.3× faster;
//! with fewer cores the tiled path cannot win and the gate logs a
//! skip. The report also carries a `cores` field (like BENCH_shard /
//! BENCH_chaos) so relative checks only compare like with like.

use m2ai_core::calibration::PhaseCalibrator;
use m2ai_core::frames::{FeatureMode, FrameBuilder, FrameLayout};
use m2ai_core::network::{build_model, Architecture};
use m2ai_kernels::{Backend, KernelScratch};
use m2ai_nn::layers::Dense;
use m2ai_nn::model::SequenceClassifier;
use m2ai_nn::Parameterized;
use m2ai_rfsim::geometry::Point2;
use m2ai_rfsim::reader::{Reader, ReaderConfig};
use m2ai_rfsim::reading::TagReading;
use m2ai_rfsim::room::Room;
use m2ai_rfsim::scene::SceneSnapshot;
use std::time::Instant;

use crate::header;

/// Frames cut per extracted sample (the paper's 12-scenario window).
const FRAMES_PER_SAMPLE: usize = 12;

/// Maximum tolerated drop of a machine-normalised rate vs baseline.
const MAX_REGRESSION: f64 = 0.15;

/// Minimum fast-over-reference training speedup.
const MIN_TRAIN_SPEEDUP: f64 = 2.0;

/// Absolute floor on the machine-normalised extraction rate
/// (`frames_per_sec_extract / samples_per_sec_train_reference`).
/// The checked-in baseline sits around 64; 20 is a disaster floor that
/// holds even when the relative checks are skipped on a core-count
/// mismatch — previously extraction had no gate at all in that case.
const MIN_EXTRACT_RATIO: f64 = 20.0;

/// Minimum parallel-over-single-thread batched-train speedup on a
/// machine with at least [`PARALLEL_GATE_CORES`] cores.
const MIN_PARALLEL_SPEEDUP: f64 = 1.3;

/// Core count below which the parallel gate is skipped with a log
/// line instead of enforced.
const PARALLEL_GATE_CORES: f64 = 4.0;

/// Rows per batched dense training step: large enough that every GEMM
/// in the triple (`Y = X·Wᵀ`, `∂W = ∂Yᵀ·X`, `∂X = ∂Y·W`) crosses the
/// tiled path's worthwhile threshold.
const BATCH_ROWS: usize = 256;

/// Width of the batched dense training layer (square: in = out).
const BATCH_DIM: usize = 256;

/// One throughput measurement (all rates in events per second).
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputReport {
    /// Feature-extraction frames/sec (12-frame samples, 6 tags, joint
    /// features, single-threaded builder).
    pub frames_per_sec_extract: f64,
    /// Training samples/sec under the fast GEMM kernels.
    pub samples_per_sec_train_fast: f64,
    /// Training samples/sec under the naive reference kernels.
    pub samples_per_sec_train_reference: f64,
    /// Whole-sample online predictions/sec (fast kernels).
    pub predictions_per_sec_online: f64,
    /// `samples_per_sec_train_fast / samples_per_sec_train_reference`.
    pub train_speedup: f64,
    /// Logical cores on the measuring machine.
    pub cores: f64,
    /// Batched dense training rows/sec, single-thread fast kernels.
    pub rows_per_sec_batch_train_fast: f64,
    /// Batched dense training rows/sec, tiled parallel kernels.
    pub rows_per_sec_batch_train_parallel: f64,
    /// `rows_per_sec_batch_train_parallel / rows_per_sec_batch_train_fast`.
    pub parallel_train_speedup: f64,
}

impl ThroughputReport {
    /// Renders the report as a small stable JSON document (hand-rolled;
    /// the workspace carries no serde). Key order is fixed.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"m2ai-throughput-v2\",\n");
        out.push_str(&format!(
            "  \"frames_per_sec_extract\": {},\n",
            json_f64(self.frames_per_sec_extract)
        ));
        out.push_str(&format!(
            "  \"samples_per_sec_train_fast\": {},\n",
            json_f64(self.samples_per_sec_train_fast)
        ));
        out.push_str(&format!(
            "  \"samples_per_sec_train_reference\": {},\n",
            json_f64(self.samples_per_sec_train_reference)
        ));
        out.push_str(&format!(
            "  \"predictions_per_sec_online\": {},\n",
            json_f64(self.predictions_per_sec_online)
        ));
        out.push_str(&format!(
            "  \"train_speedup\": {},\n",
            json_f64(self.train_speedup)
        ));
        out.push_str(&format!("  \"cores\": {},\n", json_f64(self.cores)));
        out.push_str(&format!(
            "  \"rows_per_sec_batch_train_fast\": {},\n",
            json_f64(self.rows_per_sec_batch_train_fast)
        ));
        out.push_str(&format!(
            "  \"rows_per_sec_batch_train_parallel\": {},\n",
            json_f64(self.rows_per_sec_batch_train_parallel)
        ));
        out.push_str(&format!(
            "  \"parallel_train_speedup\": {}\n",
            json_f64(self.parallel_train_speedup)
        ));
        out.push('}');
        out.push('\n');
        out
    }

    /// Parses a report previously written by [`ThroughputReport::to_json`].
    ///
    /// Returns `None` if any expected key is missing or non-numeric.
    pub fn from_json(json: &str) -> Option<ThroughputReport> {
        Some(ThroughputReport {
            frames_per_sec_extract: parse_metric(json, "frames_per_sec_extract")?,
            samples_per_sec_train_fast: parse_metric(json, "samples_per_sec_train_fast")?,
            samples_per_sec_train_reference: parse_metric(json, "samples_per_sec_train_reference")?,
            predictions_per_sec_online: parse_metric(json, "predictions_per_sec_online")?,
            train_speedup: parse_metric(json, "train_speedup")?,
            cores: parse_metric(json, "cores")?,
            rows_per_sec_batch_train_fast: parse_metric(json, "rows_per_sec_batch_train_fast")?,
            rows_per_sec_batch_train_parallel: parse_metric(
                json,
                "rows_per_sec_batch_train_parallel",
            )?,
            parallel_train_speedup: parse_metric(json, "parallel_train_speedup")?,
        })
    }
}

pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Extracts `"key": <number>` from a flat JSON document.
pub(crate) fn parse_metric(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let idx = json.find(&pat)?;
    let rest = json[idx + pat.len()..].trim_start();
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The fixed small workload every rate is measured on: a 5 s six-tag
/// recording, the paper-default joint frame layout and the CNN+LSTM
/// model. Identical to the `micro` bench workload so numbers line up.
struct Workload {
    builder: FrameBuilder,
    readings: Vec<TagReading>,
    frames: Vec<Vec<f32>>,
    model: SequenceClassifier,
}

fn workload() -> Workload {
    let mut reader = Reader::new(
        Room::laboratory(),
        ReaderConfig {
            n_antennas: 4,
            seed: 11,
            ..ReaderConfig::default()
        },
        6,
    );
    let scene = SceneSnapshot::with_tags(vec![
        Point2::new(5.5, 4.0),
        Point2::new(5.7, 4.2),
        Point2::new(5.9, 4.1),
        Point2::new(8.0, 4.3),
        Point2::new(8.2, 4.5),
        Point2::new(8.4, 4.2),
    ]);
    let readings = reader.run(|_| scene.clone(), 5.0);
    let layout = FrameLayout::new(6, 4, FeatureMode::Joint);
    let builder = FrameBuilder::new(layout, PhaseCalibrator::disabled(6, 4), 0.4);
    let frames = builder.build_sample(&readings, 0.0, FRAMES_PER_SAMPLE);
    let model = build_model(&layout, 12, Architecture::CnnLstm, 1);
    Workload {
        builder,
        readings,
        frames,
        model,
    }
}

/// Times `iters` repetitions of `f` (after one untimed warmup call)
/// and returns events per second given `events_per_iter`.
///
/// Takes the best of three timed passes: scheduler preemption and
/// frequency ramps only ever make a pass *slower*, so the fastest
/// pass is the least-noisy estimate of what the code can sustain.
fn rate(iters: usize, events_per_iter: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = 0.0f64;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        best = best.max((iters * events_per_iter) as f64 / secs);
    }
    best
}

fn available_cores() -> f64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as f64)
        .unwrap_or(1.0)
}

/// Rows/sec through one batched dense training step (forward +
/// backward over [`BATCH_ROWS`] rows) on `backend`. Every GEMM in the
/// step is large enough to cross the tiled path's worthwhile
/// threshold, so this is the workload the parallel gate compares
/// across backends.
fn batch_train_rate(iters: usize, backend: Backend) -> f64 {
    let mut layer = Dense::new(BATCH_DIM, BATCH_DIM, 17);
    let xs: Vec<f32> = (0..BATCH_ROWS * BATCH_DIM)
        .map(|i| ((i.wrapping_mul(2654435761)) & 0xffff) as f32 / 65536.0 - 0.5)
        .collect();
    let mut scratch = KernelScratch::with_backend(backend);
    rate(iters, BATCH_ROWS, || {
        let ys = layer.forward_batch_with(&xs, BATCH_ROWS, &mut scratch);
        std::hint::black_box(layer.backward_batch_with(&xs, &ys, BATCH_ROWS, &mut scratch));
        layer.visit_params(&mut |_, g| g.fill(0.0));
    })
}

/// Measures the report on the current machine.
pub fn run() -> ThroughputReport {
    header(
        "Throughput",
        "pipeline rates, fast vs reference kernel backends",
    );
    let w = workload();

    let frames_per_sec_extract = rate(6, FRAMES_PER_SAMPLE, || {
        std::hint::black_box(w.builder.build_sample(&w.readings, 0.0, FRAMES_PER_SAMPLE));
    });
    let predictions_per_sec_online = rate(60, 1, || {
        std::hint::black_box(w.model.predict(&w.frames));
    });
    let train = |iters: usize, backend: Backend| {
        let mut m = w.model.clone();
        let mut scratch = KernelScratch::with_backend(backend);
        rate(iters, 1, || {
            m.zero_grad();
            std::hint::black_box(m.loss_and_backprop_with(&w.frames, 3, &mut scratch));
        })
    };
    let samples_per_sec_train_fast = train(24, Backend::Fast);
    let samples_per_sec_train_reference = train(8, Backend::Reference);
    let rows_per_sec_batch_train_fast = batch_train_rate(8, Backend::Fast);
    let rows_per_sec_batch_train_parallel = batch_train_rate(8, Backend::FastParallel);

    let report = ThroughputReport {
        frames_per_sec_extract,
        samples_per_sec_train_fast,
        samples_per_sec_train_reference,
        predictions_per_sec_online,
        train_speedup: samples_per_sec_train_fast / samples_per_sec_train_reference,
        cores: available_cores(),
        rows_per_sec_batch_train_fast,
        rows_per_sec_batch_train_parallel,
        parallel_train_speedup: rows_per_sec_batch_train_parallel / rows_per_sec_batch_train_fast,
    };
    println!(
        "extraction    {:>10.1} frames/sec",
        report.frames_per_sec_extract
    );
    println!(
        "train (fast)  {:>10.1} samples/sec",
        report.samples_per_sec_train_fast
    );
    println!(
        "train (ref)   {:>10.1} samples/sec",
        report.samples_per_sec_train_reference
    );
    println!(
        "prediction    {:>10.1} samples/sec",
        report.predictions_per_sec_online
    );
    println!(
        "train speedup {:>10.2}x fast over reference",
        report.train_speedup
    );
    println!("cores         {:>10.0}", report.cores);
    println!(
        "batch (fast)  {:>10.1} rows/sec",
        report.rows_per_sec_batch_train_fast
    );
    println!(
        "batch (par)   {:>10.1} rows/sec",
        report.rows_per_sec_batch_train_parallel
    );
    println!(
        "par speedup   {:>10.2}x parallel over single-thread",
        report.parallel_train_speedup
    );
    report
}

/// Pure regression gate: every failure is one human-readable line.
///
/// Rates are compared *machine-normalised* — divided by that machine's
/// own reference-kernel training rate — so CI runner speed differences
/// cancel; only a real relative slowdown of a stage trips the gate. The
/// fast-over-reference training speedup is additionally held to the
/// absolute [`MIN_TRAIN_SPEEDUP`] floor.
pub fn regressions(fresh: &ThroughputReport, baseline: &ThroughputReport) -> Vec<String> {
    let mut failures = Vec::new();
    // NaN-safe: a NaN speedup must fail the floor check, not pass it.
    if fresh.train_speedup < MIN_TRAIN_SPEEDUP || fresh.train_speedup.is_nan() {
        failures.push(format!(
            "train_speedup {:.2}x is below the {MIN_TRAIN_SPEEDUP}x floor",
            fresh.train_speedup
        ));
    }
    // Parallel gate: absolute, core-aware. Below the core floor the
    // tiled path cannot win (it falls back to single-thread), so the
    // gate is skipped with a log line rather than enforced.
    if fresh.cores >= PARALLEL_GATE_CORES {
        // NaN-safe: NaN must fail, not pass.
        if !fresh.parallel_train_speedup.ge(&MIN_PARALLEL_SPEEDUP) {
            failures.push(format!(
                "parallel_train_speedup {:.2}x is below the {MIN_PARALLEL_SPEEDUP}x floor \
                 on {:.0} cores",
                fresh.parallel_train_speedup, fresh.cores
            ));
        }
    } else {
        println!(
            "throughput gate: {:.0} core(s) < {PARALLEL_GATE_CORES:.0}; \
             skipping the parallel train speedup gate",
            fresh.cores
        );
    }
    let norm_fresh = fresh.samples_per_sec_train_reference;
    let norm_base = baseline.samples_per_sec_train_reference;
    if norm_fresh <= 0.0 || norm_base <= 0.0 {
        failures.push("reference training rate is non-positive; cannot normalise".to_string());
        return failures;
    }
    // Extraction floor: machine-normalised but *absolute*, so it is
    // enforced even when core counts differ and the relative checks
    // below are skipped. NaN-safe: `!ge` fails on NaN.
    let extract_ratio = fresh.frames_per_sec_extract / norm_fresh;
    if !extract_ratio.ge(&MIN_EXTRACT_RATIO) {
        failures.push(format!(
            "frames_per_sec_extract is only {extract_ratio:.1}x the reference training \
             rate, below the {MIN_EXTRACT_RATIO}x floor"
        ));
    }
    // Relative checks only compare like with like: a 1-core baseline
    // says nothing about a multi-core runner's rates (and vice versa).
    if fresh.cores != baseline.cores {
        println!(
            "throughput gate: baseline cores {:.0} != fresh cores {:.0}; \
             skipping relative checks",
            baseline.cores, fresh.cores
        );
        return failures;
    }
    for (name, f, b) in [
        (
            "frames_per_sec_extract",
            fresh.frames_per_sec_extract,
            baseline.frames_per_sec_extract,
        ),
        (
            "samples_per_sec_train_fast",
            fresh.samples_per_sec_train_fast,
            baseline.samples_per_sec_train_fast,
        ),
        (
            "predictions_per_sec_online",
            fresh.predictions_per_sec_online,
            baseline.predictions_per_sec_online,
        ),
        (
            "rows_per_sec_batch_train_fast",
            fresh.rows_per_sec_batch_train_fast,
            baseline.rows_per_sec_batch_train_fast,
        ),
    ] {
        let r_fresh = f / norm_fresh;
        let r_base = b / norm_base;
        let floor = (1.0 - MAX_REGRESSION) * r_base;
        // NaN-safe: NaN on either side counts as a regression.
        if r_fresh < floor || r_fresh.is_nan() || floor.is_nan() {
            failures.push(format!(
                "{name}: normalised rate {r_fresh:.3} fell more than \
                 {:.0}% below baseline {r_base:.3}",
                100.0 * MAX_REGRESSION
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
pub fn run_and_write(path: &str) -> ThroughputReport {
    let report = run();
    std::fs::write(path, report.to_json()).expect("write throughput report");
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
    let json = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read throughput baseline {path}: {e}"));
    let baseline = ThroughputReport::from_json(&json)
        .unwrap_or_else(|| panic!("parse throughput baseline {path}"));
    let fresh = run();
    let failures = regressions(&fresh, &baseline);
    if failures.is_empty() {
        println!("throughput gate: PASS");
        true
    } else {
        for f in &failures {
            eprintln!("throughput gate FAIL: {f}");
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(extract: f64, fast: f64, reference: f64, predict: f64) -> ThroughputReport {
        ThroughputReport {
            // Scaled so the fixtures sit comfortably above the absolute
            // extraction floor (real ratios are ≈64x; these are ≈84x+).
            frames_per_sec_extract: extract * 20.0,
            samples_per_sec_train_fast: fast,
            samples_per_sec_train_reference: reference,
            predictions_per_sec_online: predict,
            train_speedup: fast / reference,
            cores: 1.0,
            rows_per_sec_batch_train_fast: fast * 10.0,
            rows_per_sec_batch_train_parallel: fast * 10.0,
            parallel_train_speedup: 1.0,
        }
    }

    #[test]
    fn json_roundtrips() {
        let r = report(120.5, 80.0, 20.0, 300.25);
        let back = ThroughputReport::from_json(&r.to_json()).expect("roundtrip");
        assert_eq!(back, r);
    }

    #[test]
    fn non_finite_becomes_null_and_fails_parse() {
        let mut r = report(1.0, 4.0, 2.0, 1.0);
        r.frames_per_sec_extract = f64::NAN;
        let json = r.to_json();
        assert!(json.contains("\"frames_per_sec_extract\": null"));
        assert!(ThroughputReport::from_json(&json).is_none());
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let r = report(100.0, 50.0, 20.0, 200.0);
        assert!(regressions(&r, &r).is_empty());
    }

    #[test]
    fn machine_speed_cancels_out() {
        // A uniformly 3x slower machine: all rates shrink together, the
        // normalised ratios are unchanged, the gate must stay green.
        let base = report(120.0, 60.0, 20.0, 240.0);
        let slow = report(40.0, 20.0, 20.0 / 3.0, 80.0);
        assert!(regressions(&slow, &base).is_empty());
    }

    #[test]
    fn relative_stage_slowdown_trips_the_gate() {
        let base = report(120.0, 60.0, 20.0, 240.0);
        // Extraction alone lost 30% relative to the reference anchor.
        let bad = report(84.0, 60.0, 20.0, 240.0);
        let failures = regressions(&bad, &base);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("frames_per_sec_extract"));
    }

    #[test]
    fn speedup_floor_is_absolute() {
        let base = report(120.0, 60.0, 20.0, 240.0);
        // Fast path degraded to 1.5x reference: normalised train_fast
        // regression AND the absolute floor both fire.
        let bad = report(120.0, 30.0, 20.0, 240.0);
        let failures = regressions(&bad, &base);
        assert!(failures.iter().any(|f| f.contains("floor")));
        assert!(failures
            .iter()
            .any(|f| f.contains("samples_per_sec_train_fast")));
    }

    #[test]
    fn parallel_gate_skips_below_core_floor() {
        let mut r = report(100.0, 50.0, 20.0, 200.0);
        r.cores = 1.0;
        r.parallel_train_speedup = 0.9; // would fail on 4 cores
        assert!(regressions(&r, &r).is_empty());
    }

    #[test]
    fn parallel_gate_enforced_at_four_cores() {
        let mut base = report(100.0, 50.0, 20.0, 200.0);
        base.cores = 4.0;
        base.parallel_train_speedup = 2.0;
        let mut bad = base.clone();
        bad.parallel_train_speedup = 1.1;
        let failures = regressions(&bad, &base);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("parallel_train_speedup"));
        // NaN must fail the floor, not sneak past it.
        bad.parallel_train_speedup = f64::NAN;
        assert!(!regressions(&bad, &base).is_empty());
        assert!(regressions(&base, &base).is_empty());
    }

    #[test]
    fn cores_mismatch_skips_relative_checks_only() {
        let base = report(120.0, 60.0, 20.0, 240.0);
        // Same machine-relative slowdown that trips the gate when the
        // core counts match...
        let mut bad = report(84.0, 60.0, 20.0, 240.0);
        assert!(!regressions(&bad, &base).is_empty());
        // ...is ignored when the baseline came from different iron.
        bad.cores = 8.0;
        bad.parallel_train_speedup = 2.0;
        assert!(regressions(&bad, &base).is_empty());
        // But absolute floors still apply across core counts.
        bad.train_speedup = 1.0;
        assert!(regressions(&bad, &base).iter().any(|f| f.contains("floor")));
    }

    #[test]
    fn extract_floor_holds_across_core_mismatch() {
        let base = report(120.0, 60.0, 20.0, 240.0);
        let mut bad = report(120.0, 60.0, 20.0, 240.0);
        bad.cores = 8.0; // relative checks are skipped on mismatch...
        bad.parallel_train_speedup = 2.0;
        assert!(regressions(&bad, &base).is_empty());
        // ...but a 5x machine-normalised extraction ratio is a disaster
        // the absolute floor must still catch.
        bad.frames_per_sec_extract = 100.0;
        let failures = regressions(&bad, &base);
        assert!(failures
            .iter()
            .any(|f| f.contains("frames_per_sec_extract") && f.contains("floor")));
        // NaN must trip the floor, not sneak past it.
        bad.frames_per_sec_extract = f64::NAN;
        assert!(!regressions(&bad, &base).is_empty());
    }

    #[test]
    fn batch_train_rate_regression_is_normalised() {
        let base = report(120.0, 60.0, 20.0, 240.0);
        let mut bad = base.clone();
        bad.rows_per_sec_batch_train_fast *= 0.5;
        let failures = regressions(&bad, &base);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("rows_per_sec_batch_train_fast"));
    }

    #[test]
    fn parse_metric_handles_last_key() {
        let json = "{\n  \"a\": 1.5,\n  \"train_speedup\": 3.25\n}\n";
        assert_eq!(parse_metric(json, "train_speedup"), Some(3.25));
        assert_eq!(parse_metric(json, "missing"), None);
    }
}
