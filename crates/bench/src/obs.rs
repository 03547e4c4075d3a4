//! Observability smoke harness (`experiments obs`) and the
//! `--metrics-out` exporter shared by every subcommand.
//!
//! The smoke run drives a miniature read → extract → serve → train
//! workload purely to light up the pipeline's instrumentation, then
//! checks the registry against [`REQUIRED_METRICS`], validates both
//! exporters (JSON snapshot and Prometheus text) with the linters from
//! `m2ai-obs`, and fails loudly on any gap — the CI job that runs it
//! is the golden-schema gate for the metrics surface.

use m2ai_core::calibration::PhaseCalibrator;
use m2ai_core::frames::{FeatureMode, FrameBuilder, FrameLayout};
use m2ai_core::network::{build_model, Architecture};
use m2ai_core::online::HealthConfig;
use m2ai_core::serve::{ServeConfig, ServeEngine};
use m2ai_obs::export::{
    prometheus_text, snapshot_json, validate_prometheus, validate_snapshot_json,
};
use m2ai_rfsim::fault::FaultPlan;
use m2ai_rfsim::geometry::Point2;
use m2ai_rfsim::reader::{Reader, ReaderConfig};
use m2ai_rfsim::room::Room;
use m2ai_rfsim::scene::SceneSnapshot;

use crate::header;

/// Metric families every export must carry after the smoke workload —
/// the golden schema of the instrumentation surface. Adding a metric
/// to the pipeline means adding it here (and to DESIGN.md).
pub const REQUIRED_METRICS: &[&str] = &[
    "m2ai_reader_reads_total",
    "m2ai_reader_faults_total",
    "m2ai_dsp_steering_cache_total",
    "m2ai_extract_stage_seconds",
    "m2ai_par_tasks_total",
    "m2ai_motion_catalog_builds_total",
    "m2ai_kernels_gemm_seconds",
    "m2ai_nn_fit_epochs_total",
    "m2ai_nn_batches_skipped_total",
    "m2ai_nn_rollbacks_total",
    "m2ai_nn_forward_seconds",
    "m2ai_core_frame_coverage_ratio",
    "m2ai_core_fallback_patches_total",
    "m2ai_core_health_transitions_total",
    "m2ai_serve_queue_depth",
    "m2ai_serve_shed_total",
    "m2ai_serve_rejections_total",
    "m2ai_serve_batch_size",
    "m2ai_serve_tick_seconds",
    "m2ai_serve_prediction_seconds",
    "m2ai_serve_predictions_total",
    "m2ai_fabric_ingress_depth",
    "m2ai_fabric_ingress_shed_total",
    "m2ai_fabric_ingress_wait_seconds",
    "m2ai_fabric_sessions",
    "m2ai_fabric_predictions_total",
    "m2ai_fabric_tick_seconds",
    "m2ai_fabric_spill_total",
    "m2ai_fabric_rejections_total",
    "m2ai_fabric_heartbeats_total",
    "m2ai_fabric_restarts_total",
    "m2ai_fabric_checkpoints_total",
    "m2ai_fabric_checkpoint_seconds",
    "m2ai_fabric_quarantined_total",
    "m2ai_fabric_recovery_seconds",
    "m2ai_trace_spans_total",
    "m2ai_trace_dropped_total",
    "m2ai_flightrec_dumps_total",
    "m2ai_slo_burn_rate",
];

/// Counter families that must be *non-zero* after the smoke workload
/// (presence alone would also pass for a silently-dead instrument).
const NONZERO_COUNTERS: &[&str] = &[
    "m2ai_reader_reads_total",
    "m2ai_reader_faults_total",
    "m2ai_dsp_steering_cache_total",
    "m2ai_par_tasks_total",
    "m2ai_motion_catalog_builds_total",
    "m2ai_nn_fit_epochs_total",
    "m2ai_core_health_transitions_total",
    "m2ai_serve_predictions_total",
    "m2ai_fabric_predictions_total",
    "m2ai_fabric_heartbeats_total",
    "m2ai_fabric_restarts_total",
    "m2ai_fabric_checkpoints_total",
    "m2ai_trace_spans_total",
    "m2ai_trace_dropped_total",
    "m2ai_flightrec_dumps_total",
];

/// Histogram families that must have observations after the smoke
/// workload.
const NONZERO_HISTOGRAMS: &[&str] = &[
    "m2ai_extract_stage_seconds",
    "m2ai_kernels_gemm_seconds",
    "m2ai_nn_forward_seconds",
    "m2ai_core_frame_coverage_ratio",
    "m2ai_serve_batch_size",
    "m2ai_serve_tick_seconds",
    "m2ai_serve_prediction_seconds",
    "m2ai_fabric_tick_seconds",
    "m2ai_fabric_checkpoint_seconds",
    "m2ai_fabric_recovery_seconds",
    "m2ai_fabric_ingress_wait_seconds",
];

/// Drives a miniature end-to-end workload that touches every
/// instrumented stage: a faulty reader stream with a silence gap
/// through a serve engine (read/extract/serve metrics, health
/// transitions, steering cache), one tiny training run (nn fit
/// counters), one replay forward pass, and a scenario-catalogue build.
pub fn smoke_workload() {
    let _ = m2ai_motion::activity::catalog(2);

    let layout = FrameLayout::new(1, 4, FeatureMode::Joint);
    let model = build_model(&layout, 12, Architecture::CnnLstm, 1);

    // Faulty stream with a 3 s gap: Healthy → Degraded/Stale →
    // recovery, plus reader fault and steering-cache traffic. A
    // parallelism above 1 sends each window's tags through the
    // `m2ai-par` pool (one tag, so it stays on this thread), which
    // lights the par task counter.
    let mut eng = ServeEngine::new(
        model.clone(),
        FrameBuilder::new(layout, PhaseCalibrator::disabled(1, 4), 0.5).with_parallelism(2),
        ServeConfig {
            history_len: 2,
            health: HealthConfig {
                stale_timeout_s: 1.0,
                ..Default::default()
            },
            ..ServeConfig::default()
        },
    );
    let id = eng.open_session().expect("fresh engine has capacity");
    // Intensity 0.25: faults fire (the fault counters must move) but
    // enough complete 4-antenna snapshot rounds survive that several
    // windows reach MUSIC — so the steering-table cache records hits,
    // not just the first-build miss.
    let mut reader = Reader::new(Room::hall(), ReaderConfig::default(), 1)
        .with_fault_plan(FaultPlan::with_intensity(0.25, 7));
    let scene = SceneSnapshot::with_tags(vec![Point2::new(4.4, 3.0)]);
    let readings = reader.run(|_| scene.clone(), 7.0);
    let before: Vec<_> = readings
        .iter()
        .filter(|r| r.time_s < 2.0)
        .cloned()
        .collect();
    let after: Vec<_> = readings
        .iter()
        .filter(|r| r.time_s >= 5.0)
        .cloned()
        .collect();
    eng.push(id, &before).expect("session open");
    eng.drain();
    eng.push(id, &after).expect("session open");
    eng.drain();

    // A two-shard fabric over the same model: per-shard ingress /
    // session / prediction / tick families plus the fabric-wide
    // spill and rejection counters (registered on construction).
    // Tracing samples everything during the fabric segment so the
    // trace-span counter, the ingress-wait histogram and (via the
    // kill below) the flight-recorder dump counter all move.
    let prev_trace = m2ai_obs::trace::trace_config();
    m2ai_obs::trace::set_trace_config(m2ai_obs::trace::TraceConfig { sample_one_in_n: 1 });
    let fabric = m2ai_serve_fabric::ServeFabric::new(
        model.clone(),
        FrameBuilder::new(layout, PhaseCalibrator::disabled(1, 4), 0.5),
        m2ai_serve_fabric::FabricConfig {
            shards: 2,
            vnodes: 16,
            ingress_capacity: 64,
            serve: ServeConfig {
                history_len: 2,
                ..ServeConfig::default()
            },
            supervision: Default::default(),
        },
    );
    let dim = layout.frame_dim();
    for s in 0..3u64 {
        let key = fabric.open_session().expect("fresh fabric has capacity");
        for t in 0..4usize {
            let frame: Vec<f32> = (0..dim)
                .map(|d| 0.1 + 0.01 * ((s as usize + t + d) % 7) as f32)
                .collect();
            let _ = fabric
                .push_frame(
                    key,
                    t as f64 * 0.5,
                    frame,
                    m2ai_core::online::HealthState::Healthy,
                )
                .expect("session open");
        }
    }
    fabric.flush();
    // Supervision families: an explicit checkpoint (checkpoint counter
    // + latency histogram), then a kill + supervised restart (restart
    // counter + recovery histogram; heartbeats tick throughout).
    fabric
        .checkpoint_now()
        .expect("live shards must checkpoint");
    fabric.kill_shard(0).expect("shard 0 is alive");
    let t0 = std::time::Instant::now();
    while !(fabric.restarts() >= 1 && fabric.shard_alive(0)) {
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(30),
            "smoke workload: supervisor never restarted the killed shard"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    fabric.flush();
    fabric.shutdown();
    // Overflow the span collector on purpose (tiny capacity, one
    // burst, restore) so the dropped-span counter is provably alive.
    m2ai_obs::trace::set_trace_capacity(2);
    for _ in 0..8 {
        let ctx = m2ai_obs::trace::begin_trace();
        ctx.child("smoke_overflow").end();
    }
    m2ai_obs::trace::flush_thread_spans();
    m2ai_obs::trace::set_trace_capacity(1 << 16);
    m2ai_obs::trace::set_trace_config(prev_trace);
    // One SLO evaluation over the serve latency histogram publishes
    // the burn-rate gauge.
    if let Some(m2ai_obs::MetricValue::Histogram(h)) =
        m2ai_obs::find("m2ai_serve_prediction_seconds", &[])
    {
        let mut slo = m2ai_obs::SloMonitor::new(m2ai_obs::SloSpec {
            name: "smoke",
            target_latency_s: 0.1,
            error_budget: 0.01,
        });
        let now = m2ai_obs::trace::clock_us();
        slo.observe(
            now.saturating_sub(1_000_000),
            m2ai_obs::HistogramSnapshot {
                buckets: vec![0; h.buckets.len()],
                count: 0,
                sum: 0.0,
                bounds: h.bounds.clone(),
            },
        );
        slo.observe(now, h);
        let _ = slo.evaluate(
            now,
            &[m2ai_obs::BurnWindow {
                window_us: 1_000_000,
                threshold: 10.0,
            }],
        );
    }

    // One-epoch fit on two synthetic samples + one replay forward:
    // the nn counters and the replay-path latency histogram.
    let dim = FrameLayout::new(1, 4, FeatureMode::Joint).frame_dim();
    let samples: Vec<(Vec<Vec<f32>>, usize)> = (0..2)
        .map(|i| (vec![vec![0.1 + 0.05 * i as f32; dim]; 2], i))
        .collect();
    let mut fit_model = model.clone();
    let _ = m2ai_nn::train::fit(
        &mut fit_model,
        &samples,
        &m2ai_nn::train::TrainConfig {
            epochs: 1,
            n_threads: 1,
            ..Default::default()
        },
    );
    let mut scratch = m2ai_kernels::KernelScratch::new();
    let _ = model.predict_proba_with(&samples[0].0, &mut scratch);
}

/// Checks the live registry against the golden metric list. Returns
/// one human-readable line per gap.
pub fn registry_gaps() -> Vec<String> {
    let mut gaps = Vec::new();
    let snap = m2ai_obs::snapshot();
    for name in REQUIRED_METRICS {
        if !snap.iter().any(|m| m.name == *name) {
            gaps.push(format!("metric family {name} is not registered"));
        }
    }
    for name in NONZERO_COUNTERS {
        if m2ai_obs::counter_family_total(name) == 0 {
            gaps.push(format!("counter family {name} recorded nothing"));
        }
    }
    for name in NONZERO_HISTOGRAMS {
        let observed = snap.iter().any(|m| {
            m.name == *name
                && matches!(&m.value, m2ai_obs::MetricValue::Histogram(h) if h.count > 0)
        });
        if !observed {
            gaps.push(format!("histogram family {name} recorded nothing"));
        }
    }
    gaps
}

/// Writes the current registry to `path`: Prometheus text when the
/// path ends in `.prom` or `.txt`, the versioned JSON snapshot
/// otherwise.
///
/// # Panics
///
/// Panics if `path` cannot be written.
pub fn write_metrics(path: &str) {
    let body = if path.ends_with(".prom") || path.ends_with(".txt") {
        prometheus_text()
    } else {
        snapshot_json()
    };
    std::fs::write(path, body).unwrap_or_else(|e| panic!("write metrics to {path}: {e}"));
    println!("wrote {path}");
}

/// The `experiments obs` smoke gate: runs the workload, validates the
/// registry against the golden list and both exporters against their
/// linters. Returns `true` when everything passes; prints one line per
/// failure otherwise.
pub fn check() -> bool {
    header("Obs", "observability smoke: golden schema + exporter lint");
    smoke_workload();
    let mut failures = registry_gaps();
    for err in validate_snapshot_json(&snapshot_json()) {
        failures.push(format!("json snapshot: {err}"));
    }
    for err in validate_prometheus(&prometheus_text()) {
        failures.push(format!("prometheus text: {err}"));
    }
    let families: std::collections::BTreeSet<&str> =
        m2ai_obs::snapshot().iter().map(|m| m.name).collect();
    println!(
        "registered families  {:>6} ({} required)",
        families.len(),
        REQUIRED_METRICS.len()
    );
    if failures.is_empty() {
        println!("obs smoke: PASS");
        true
    } else {
        for f in &failures {
            eprintln!("obs smoke FAIL: {f}");
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_satisfies_the_golden_schema() {
        smoke_workload();
        let gaps = registry_gaps();
        assert!(gaps.is_empty(), "golden schema gaps: {gaps:?}");
    }

    #[test]
    fn exporters_lint_clean_after_smoke() {
        smoke_workload();
        let json_errs = validate_snapshot_json(&snapshot_json());
        assert!(json_errs.is_empty(), "json: {json_errs:?}");
        let prom_errs = validate_prometheus(&prometheus_text());
        assert!(prom_errs.is_empty(), "prometheus: {prom_errs:?}");
    }

    #[test]
    fn both_exporters_carry_the_same_registry() {
        smoke_workload();
        let prom = prometheus_text();
        let json = snapshot_json();
        for name in REQUIRED_METRICS {
            assert!(json.contains(name), "{name} missing from JSON snapshot");
            assert!(prom.contains(name), "{name} missing from Prometheus text");
        }
    }
}
