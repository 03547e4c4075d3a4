//! Int8 quantized-inference accuracy gate.
//!
//! Trains the full M²AI pipeline once in f32, calibrates and freezes
//! the per-channel int8 weights (`prepare_quantized`), then scores the
//! frozen model on an *unseen* golden evaluation dataset before and
//! after. The headline number is the top-1 accuracy delta between
//! f32 and int8 inference, which the gate holds within one percentage
//! point.
//!
//! Everything is seed-driven and deterministic — dataset generation,
//! training (bitwise on the fast backend), calibration and the int8
//! arithmetic itself — so the emitted `BENCH_quant.json` doubles as an
//! exact CI baseline: [`check`] re-measures and compares the parsed
//! values for equality, then enforces the 1 pp delta gate on the fresh
//! measurement.

use m2ai_core::dataset::generate_dataset;

use crate::{base_config, base_options, header, json_f64, parse_metric, Budget};

/// Maximum tolerated top-1 accuracy drop of int8 vs f32, in
/// percentage points.
pub const MAX_DELTA_PP: f64 = 1.0;

/// Calibration sequences fed to `prepare_quantized` (taken from the
/// head of the training bundle, i.e. the distribution the activations
/// actually come from).
const CALIB_SAMPLES: usize = 32;

/// One quantized-accuracy measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantReport {
    /// Top-1 accuracy of the frozen f32 model on the golden eval set.
    pub f32_top1: f64,
    /// Top-1 accuracy of the same model with int8 state prepared.
    pub quant_top1: f64,
    /// `(f32_top1 - quant_top1) * 100` — positive when int8 is worse.
    pub delta_pp: f64,
    /// Golden evaluation samples scored.
    pub eval_samples: f64,
}

impl QuantReport {
    /// Renders the report as a small stable JSON document (hand-rolled;
    /// the workspace carries no serde). Key order is fixed.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"m2ai-quant-v1\",\n");
        out.push_str(&format!("  \"f32_top1\": {},\n", json_f64(self.f32_top1)));
        out.push_str(&format!(
            "  \"quant_top1\": {},\n",
            json_f64(self.quant_top1)
        ));
        out.push_str(&format!("  \"delta_pp\": {},\n", json_f64(self.delta_pp)));
        out.push_str(&format!(
            "  \"eval_samples\": {}\n",
            json_f64(self.eval_samples)
        ));
        out.push('}');
        out.push('\n');
        out
    }

    /// Parses a report previously written by [`QuantReport::to_json`].
    pub fn from_json(json: &str) -> Option<QuantReport> {
        Some(QuantReport {
            f32_top1: parse_metric(json, "f32_top1")?,
            quant_top1: parse_metric(json, "quant_top1")?,
            delta_pp: parse_metric(json, "delta_pp")?,
            eval_samples: parse_metric(json, "eval_samples")?,
        })
    }
}

/// Trains, scores the f32 model, then calibrates and scores it again
/// with int8 state prepared.
pub fn run(budget: Budget) -> QuantReport {
    header(
        "Quant",
        "int8 inference accuracy vs f32, frozen clean-trained model",
    );
    let cfg = base_config(budget);
    let bundle = generate_dataset(&cfg);
    let outcome = crate::train_m2ai(&bundle, &base_options(budget));
    println!(
        "clean training: {:5.1}% held-out accuracy",
        100.0 * outcome.test_accuracy
    );

    // Golden eval set: unseen recordings from the same deployment.
    let mut eval_cfg = cfg.clone();
    eval_cfg.seed = cfg.seed + 2000;
    let golden = generate_dataset(&eval_cfg);

    let mut model = outcome.model;
    let f32_top1 = m2ai_nn::train::evaluate(&model, &golden.samples);

    // Calibrate activation ranges on training-distribution sequences,
    // then freeze the int8 weights and score the int8 model.
    model.prepare_quantized(
        bundle
            .samples
            .iter()
            .take(CALIB_SAMPLES)
            .map(|(frames, _)| frames.as_slice()),
    );
    let quant_top1 = m2ai_nn::train::evaluate(&model, &golden.samples);

    let report = QuantReport {
        f32_top1,
        quant_top1,
        delta_pp: (f32_top1 - quant_top1) * 100.0,
        eval_samples: golden.samples.len() as f64,
    };
    println!(
        "golden eval   f32 {:5.1}%   int8 {:5.1}%   delta {:+.2} pp ({} samples)",
        100.0 * report.f32_top1,
        100.0 * report.quant_top1,
        report.delta_pp,
        report.eval_samples
    );
    report
}

/// Pure gate: every failure is one human-readable line.
///
/// The delta gate is absolute (and NaN-safe). The baseline comparison
/// is exact: the whole pipeline is deterministic f32/int8 arithmetic,
/// so any drift in the measured accuracies is a semantic change to
/// kernels, calibration or training — exactly what the gate exists to
/// catch.
pub fn regressions(fresh: &QuantReport, baseline: &QuantReport) -> Vec<String> {
    let mut failures = Vec::new();
    // NaN-safe: a NaN delta must fail the gate, not pass it.
    if !fresh.delta_pp.le(&MAX_DELTA_PP) {
        failures.push(format!(
            "int8 top-1 dropped {:.2} pp vs f32 (> {MAX_DELTA_PP} pp allowed)",
            fresh.delta_pp
        ));
    }
    if !fresh.eval_samples.gt(&0.0) {
        failures.push("golden eval set is empty; accuracy is vacuous".to_string());
    }
    for (name, f, b) in [
        ("f32_top1", fresh.f32_top1, baseline.f32_top1),
        ("quant_top1", fresh.quant_top1, baseline.quant_top1),
        ("eval_samples", fresh.eval_samples, baseline.eval_samples),
    ] {
        if f != b {
            failures.push(format!(
                "{name} = {f} differs from baseline {b}; the pipeline is \
                 deterministic, so re-baseline only with an intentional change"
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
pub fn run_and_write(budget: Budget, path: &str) -> QuantReport {
    let report = run(budget);
    std::fs::write(path, report.to_json()).expect("write quant report");
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
/// checked in, so that is a repo defect, not a regression.
pub fn check(budget: Budget, path: &str) -> bool {
    let json =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read quant baseline {path}: {e}"));
    let baseline =
        QuantReport::from_json(&json).unwrap_or_else(|| panic!("parse quant baseline {path}"));
    let fresh = run(budget);
    let failures = regressions(&fresh, &baseline);
    if failures.is_empty() {
        println!("quant gate: PASS");
        true
    } else {
        for f in &failures {
            eprintln!("quant gate FAIL: {f}");
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(f32_top1: f64, quant_top1: f64) -> QuantReport {
        QuantReport {
            f32_top1,
            quant_top1,
            delta_pp: (f32_top1 - quant_top1) * 100.0,
            eval_samples: 96.0,
        }
    }

    #[test]
    fn json_roundtrips() {
        let r = report(0.96875, 0.9583333333333334);
        let back = QuantReport::from_json(&r.to_json()).expect("roundtrip");
        assert_eq!(back, r);
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(0.97, 0.965);
        assert!(regressions(&r, &r).is_empty());
    }

    #[test]
    fn delta_gate_trips_past_one_point() {
        let bad = report(0.97, 0.95);
        let failures = regressions(&bad, &bad);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("pp"));
        // Quantization *helping* never trips the delta gate.
        let good = report(0.95, 0.97);
        assert!(regressions(&good, &good).is_empty());
        // NaN must fail, not pass.
        let mut nan = report(0.97, 0.97);
        nan.delta_pp = f64::NAN;
        assert!(!regressions(&nan, &nan).is_empty());
    }

    #[test]
    fn accuracy_drift_vs_baseline_trips() {
        let base = report(0.97, 0.965);
        let drifted = report(0.97, 0.9583333);
        let failures = regressions(&drifted, &base);
        assert!(failures.iter().any(|f| f.contains("quant_top1")));
    }

    #[test]
    fn empty_eval_set_is_vacuous() {
        let mut r = report(0.97, 0.965);
        r.eval_samples = 0.0;
        assert!(!regressions(&r, &r).is_empty());
    }
}
