//! The run's result: metrics, output checks, and the final JSON line.

use crate::prom::Snapshot;
use crate::stats::Tail;
use crate::tracer::NameStats;
use std::collections::BTreeMap;

/// Every end-to-end metric, with its unit, in output order. Each
/// workload reports all of them in its untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_cpu_s", "items/cpu-s"),
    ("preds_per_cpu_s", "preds/cpu-s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric, with its unit, in output order. Each
/// workload's traced run reports all of them; a layer the workload
/// does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rfsim.round_us", "us"),
    ("rfsim.reads_per_round", "count"),
    ("window.push_us_p50", "us"),
    ("window.push_us_p99", "us"),
    ("window.bookkeeping_share", "ratio"),
    ("extract.calibration_share", "ratio"),
    ("extract.music_share", "ratio"),
    ("extract.periodogram_share", "ratio"),
    ("extract.stream_window_share", "ratio"),
    ("extract.scan_us", "us"),
    ("frames.build_sample_ms", "ms"),
    ("serve.tick_us_p50", "us"),
    ("serve.tick_us_p99", "us"),
    ("serve.batch_rows_mean", "rows"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.shed", "count"),
    ("serve.suppressed", "count"),
    ("nn.model_share", "ratio"),
    ("kernels.gemm_calls.small", "count"),
    ("kernels.gemm_calls.medium", "count"),
    ("kernels.gemm_calls.large", "count"),
    ("kernels.gemm_s.small", "s"),
    ("kernels.gemm_s.medium", "s"),
    ("kernels.gemm_s.large", "s"),
    ("nn.fit_s", "s"),
    ("nn.epoch_ms", "ms"),
    ("nn.evaluate_s", "s"),
    ("nn.skipped_batches", "count"),
    ("dataset.generate_s", "s"),
    ("par.tasks", "count"),
    ("fabric.push_us_p99", "us"),
    ("fabric.poll_us_p99", "us"),
    ("fabric.ingress_wait_ms_p50", "ms"),
    ("fabric.ingress_wait_ms_p99", "ms"),
    ("fabric.shard_skew", "ratio"),
    ("fabric.retries", "count"),
    ("driver.lag_ms_p99", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("self_s.reader", "s"),
    ("self_s.window_push", "s"),
    ("self_s.serve_push", "s"),
    ("self_s.serve_push_frame", "s"),
    ("self_s.serve_tick", "s"),
    ("self_s.build_sample", "s"),
    ("self_s.generate_dataset", "s"),
    ("self_s.fit", "s"),
    ("self_s.evaluate", "s"),
    ("self_s.fabric_push", "s"),
    ("self_s.fabric_poll", "s"),
    ("self_s.driver", "s"),
];

/// Name of the root span around each timed pass; its self time is the
/// driver's own time and its children's share is `trace.coverage`.
pub const PASS: &str = "pass";

/// The layer entry points the benchmark wraps in spans, keyed by the
/// `self_s.*` metric that reports their self time.
pub const SPAN_LAYERS: &[(&str, &str)] = &[
    ("self_s.reader", "Reader::inventory_round"),
    ("self_s.window_push", "SessionWindow::push"),
    ("self_s.serve_push", "ServeEngine::push"),
    ("self_s.serve_push_frame", "ServeEngine::push_frame"),
    ("self_s.serve_tick", "ServeEngine::tick"),
    ("self_s.build_sample", "FrameBuilder::build_sample"),
    ("self_s.generate_dataset", "generate_dataset"),
    ("self_s.fit", "fit"),
    ("self_s.evaluate", "evaluate"),
    ("self_s.fabric_push", "ServeFabric::push_with_deadline"),
    ("self_s.fabric_poll", "ServeFabric::poll"),
];

/// Accumulates one run's output.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
    missing: Vec<&'static str>,
    checks: Vec<(String, bool, String)>,
    /// Operations attempted (closed windows, or training batches).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

impl Report {
    /// Sets metric `name` (must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
        self.missing.retain(|m| *m != name);
    }

    /// Sets a metric from the program's exported instruments, or marks
    /// it missing when the family is not exported.
    pub fn set_exported(&mut self, name: &'static str, value: Option<f64>) {
        match value {
            Some(v) => self.set(name, v),
            None => {
                self.set(name, 0.0);
                self.missing.push(name);
            }
        }
    }

    /// Sets the p50 and tail metrics from a distribution, and notes the
    /// sample count and which percentile the tail is.
    pub fn set_tail(&mut self, p50: &'static str, tail: &'static str, t: Option<Tail>) {
        match t {
            Some(t) => {
                self.set(p50, t.p50);
                self.set(tail, t.tail);
                self.note(format!("{tail}: {} of {} samples", t.label(), t.n));
            }
            None => {
                self.set(p50, 0.0);
                self.set(tail, 0.0);
            }
        }
    }

    /// Adds a human-readable line to the report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records an output check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push((name.to_string(), ok, detail));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1)
    }

    /// Prints the human-readable report, then the result JSON as the
    /// last line of standard output. `table` selects which metrics.
    pub fn print(&self, table: &[(&str, &str)]) {
        for line in &self.notes {
            println!("# {line}");
        }
        for (name, ok, detail) in &self.checks {
            println!(
                "# check {name}: {} {detail}",
                if *ok { "ok" } else { "FAILED" }
            );
        }
        for (name, unit) in table {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            let tag = if self.missing.contains(name) {
                "  (missing: no such family exported in this run)"
            } else {
                ""
            };
            println!("# {name} = {} {unit}{tag}", fmt_num(v));
        }
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    fmt_num(v)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A JSON number with all its digits. Non-finite values (an infinite
/// latency means failures reached that percentile) print as the
/// largest finite double, since JSON has no infinity.
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else if v.is_nan() {
        "0.0".to_string()
    } else {
        format!("{:?}", f64::MAX.copysign(v))
    }
}

/// Sets the per-layer metrics every workload derives the same way:
/// extraction stage shares, model share, kernel counts, serve counters
/// and batch size from the program's instruments (`delta` over the
/// traced timed regions, `wall_s` long), and each layer's self time
/// from the benchmark's spans.
pub fn set_common_layers(
    r: &mut Report,
    delta: &Snapshot,
    wall_s: f64,
    spans: &BTreeMap<&'static str, NameStats>,
) {
    let stage = |s: &str| {
        delta
            .hist("m2ai_extract_stage_seconds", Some(("stage", s)))
            .map(|h| h.sum)
    };
    let share = |v: Option<f64>| v.map(|s| if wall_s > 0.0 { s / wall_s } else { 0.0 });
    r.set_exported("extract.calibration_share", share(stage("calibration")));
    r.set_exported("extract.music_share", share(stage("music")));
    r.set_exported("extract.periodogram_share", share(stage("periodogram")));
    r.set_exported("extract.stream_window_share", share(stage("stream_window")));
    r.set_exported(
        "extract.scan_us",
        delta
            .hist("m2ai_extract_stream_scan_seconds", None)
            .map(|h| h.mean() * 1e6),
    );
    r.set_exported(
        "nn.model_share",
        share(
            delta
                .hist("m2ai_serve_prediction_seconds", None)
                .map(|h| h.sum),
        ),
    );
    set_kernel_layers(r, delta);
    r.set_exported(
        "serve.batch_rows_mean",
        delta.hist("m2ai_serve_batch_size", None).map(|h| h.mean()),
    );
    r.set_exported("serve.shed", delta.counter("m2ai_serve_shed_total", None));
    r.set_exported(
        "serve.suppressed",
        delta
            .counter("m2ai_serve_predictions_total", None)
            .map(|all| {
                all - delta
                    .counter("m2ai_serve_predictions_total", Some(("outcome", "emitted")))
                    .unwrap_or(0.0)
            }),
    );
    for (metric, span) in SPAN_LAYERS {
        r.set(metric, spans.get(span).map_or(0.0, |s| s.self_s));
    }
    r.set("self_s.driver", spans.get(PASS).map_or(0.0, |s| s.self_s));
}

/// GEMM calls and seconds per shape class from `delta`.
pub fn set_kernel_layers(r: &mut Report, delta: &Snapshot) {
    for (class, calls, secs) in [
        ("small", "kernels.gemm_calls.small", "kernels.gemm_s.small"),
        (
            "medium",
            "kernels.gemm_calls.medium",
            "kernels.gemm_s.medium",
        ),
        ("large", "kernels.gemm_calls.large", "kernels.gemm_s.large"),
    ] {
        let h = delta.hist("m2ai_kernels_gemm_seconds", Some(("shape_class", class)));
        r.set_exported(calls, h.as_ref().map(|h| h.count));
        r.set_exported(secs, h.as_ref().map(|h| h.sum));
    }
}

/// Extraction busy time in a delta: the batch stages, or the streaming
/// window stage when that covers more (it may contain batch stages on
/// its exact-refresh windows).
pub fn extraction_s(delta: &Snapshot) -> f64 {
    let stage = |s: &str| {
        delta
            .hist("m2ai_extract_stage_seconds", Some(("stage", s)))
            .map_or(0.0, |h| h.sum)
    };
    let batch = stage("calibration") + stage("music") + stage("periodogram");
    batch.max(stage("stream_window"))
}
