//! Chaos harness and recovery gate for the self-healing serve fabric
//! (supervision PR): `experiments chaos [--check]`.
//!
//! Injects the three failure classes the supervisor exists for —
//! worker crashes, silent stalls, poison input — into a live, loaded
//! fabric, and measures the recovery story end to end:
//!
//! * **crash recovery** — repeated shard kills under steady traffic;
//!   each kill is preceded by a flush + checkpoint, so the gate can
//!   demand *exactly zero* lost predictions (the in-flight window is
//!   empty by construction) while timing kill → serving-again;
//! * **stall detection** — a worker whose heartbeat flatlines (the
//!   `Stall` throttle) must be abandoned and replaced within a small
//!   multiple of the configured deadline;
//! * **quarantine** — input that panics the engine must cost exactly
//!   one session (the poisoned one) and nothing else;
//! * **checkpoint overhead** — steady-state throughput with an
//!   aggressive periodic checkpoint sweep vs none; the ratio is the
//!   price of the safety net and must stay small.
//!
//! ## Gate philosophy
//!
//! Correctness gates (lost predictions, eviction, quarantine blast
//! radius) are exact and machine-free. Timing gates (recovery p99,
//! stall detection) use generous absolute ceilings — they catch a
//! supervisor that stopped working, not scheduler jitter — and the
//! relative checks against a baseline only apply between runs on the
//! same core count.

use m2ai_core::calibration::PhaseCalibrator;
use m2ai_core::frames::{FeatureMode, FrameBuilder, FrameLayout};
use m2ai_core::network::{build_model, Architecture};
use m2ai_core::online::HealthState;
use m2ai_core::serve::ServeConfig;
use m2ai_nn::model::SequenceClassifier;
use m2ai_serve_fabric::{
    FabricConfig, FabricError, ServeFabric, SessionKey, ShardThrottle, SupervisionConfig,
};
use std::time::{Duration, Instant};

use crate::{header, json_f64, parse_metric};

/// Streaming sessions during the crash-recovery phase.
const SESSIONS: usize = 24;

/// Sliding window length in frames.
const HISTORY: usize = 6;

/// Shard kills injected during the crash phase (alternating shards).
const KILLS: usize = 4;

/// Frames pushed per session between kills.
const ROUND_FRAMES: usize = 5;

/// Timed arrivals per checkpoint-overhead pass.
const OVERHEAD_ARRIVALS: usize = 2000;

/// Periodic checkpoint cadence in the overhead phase (aggressive on
/// purpose: the gate prices the worst case).
const OVERHEAD_CKPT_EVERY: Duration = Duration::from_millis(10);

/// Absolute ceiling on the p99 kill → serving-again wall time. The
/// real path is a few restart backoffs plus session restores; seconds
/// of headroom absorb saturated CI runners.
const MAX_RECOVERY_P99_MS: f64 = 2_000.0;

/// Absolute ceiling on flatline → replacement-worker wall time
/// (configured stall deadline is 250 ms).
const MAX_STALL_DETECT_MS: f64 = 5_000.0;

/// Absolute ceiling on the checkpoint-overhead throughput ratio
/// (no-checkpoint rate / checkpointing rate).
const MAX_CHECKPOINT_OVERHEAD: f64 = 2.0;

/// Max tolerated relative growth of the timing metrics vs a baseline
/// from the same core count.
const MAX_TIMING_GROWTH: f64 = 4.0;

/// One chaos measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Cores the runner exposed (`std::thread::available_parallelism`).
    pub cores: f64,
    /// Sessions streaming through the crash phase.
    pub sessions: f64,
    /// Shard kills injected.
    pub kills: f64,
    /// Median kill → serving-again wall time, ms.
    pub recovery_p50_ms: f64,
    /// Worst observed recovery wall time, ms.
    pub recovery_p99_ms: f64,
    /// Stall flatline → replacement worker wall time, ms.
    pub stall_detect_ms: f64,
    /// Supervisor restarts across the crash phase.
    pub restarts: f64,
    /// Predictions lost across every kill (must be exactly zero).
    pub lost_predictions: f64,
    /// In-flight ingress events lost (must be exactly zero).
    pub lost_inflight: f64,
    /// Sessions evicted by failed migrations (must be exactly zero).
    pub evicted: f64,
    /// Sessions quarantined in the poison phase (must be exactly one).
    pub quarantined: f64,
    /// Predictions lost by the poison victim's *neighbor* (zero).
    pub collateral_lost: f64,
    /// Steady-state predictions/sec with no periodic checkpoints.
    pub rate_no_checkpoint: f64,
    /// Same workload with a 10 ms periodic checkpoint sweep.
    pub rate_checkpoint: f64,
    /// `rate_no_checkpoint / rate_checkpoint`.
    pub checkpoint_overhead_ratio: f64,
    /// The fabric's own `m2ai_fabric_recovery_seconds` histogram,
    /// windowed over the crash phase, put its p99 in the overflow
    /// bucket (recovery beyond the last finite bound, ~12 s). The
    /// gate fails on a saturated fresh value.
    pub recovery_p99_saturated: bool,
}

impl ChaosReport {
    /// Renders the report as a small stable JSON document (hand-rolled;
    /// the workspace carries no serde). Key order is fixed.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"m2ai-chaos-v1\",\n");
        for (key, v) in [
            ("cores", self.cores),
            ("sessions", self.sessions),
            ("kills", self.kills),
            ("recovery_p50_ms", self.recovery_p50_ms),
            ("recovery_p99_ms", self.recovery_p99_ms),
            ("stall_detect_ms", self.stall_detect_ms),
            ("restarts", self.restarts),
            ("lost_predictions", self.lost_predictions),
            ("lost_inflight", self.lost_inflight),
            ("evicted", self.evicted),
            ("quarantined", self.quarantined),
            ("collateral_lost", self.collateral_lost),
            ("rate_no_checkpoint", self.rate_no_checkpoint),
            ("rate_checkpoint", self.rate_checkpoint),
        ] {
            out.push_str(&format!("  \"{key}\": {},\n", json_f64(v)));
        }
        out.push_str(&format!(
            "  \"checkpoint_overhead_ratio\": {},\n",
            json_f64(self.checkpoint_overhead_ratio)
        ));
        out.push_str(&format!(
            "  \"recovery_p99_saturated\": {}\n",
            u8::from(self.recovery_p99_saturated)
        ));
        out.push('}');
        out.push('\n');
        out
    }

    /// Parses a report previously written by [`ChaosReport::to_json`].
    ///
    /// Returns `None` if any expected key is missing or non-numeric.
    pub fn from_json(json: &str) -> Option<ChaosReport> {
        Some(ChaosReport {
            cores: parse_metric(json, "cores")?,
            sessions: parse_metric(json, "sessions")?,
            kills: parse_metric(json, "kills")?,
            recovery_p50_ms: parse_metric(json, "recovery_p50_ms")?,
            recovery_p99_ms: parse_metric(json, "recovery_p99_ms")?,
            stall_detect_ms: parse_metric(json, "stall_detect_ms")?,
            restarts: parse_metric(json, "restarts")?,
            lost_predictions: parse_metric(json, "lost_predictions")?,
            lost_inflight: parse_metric(json, "lost_inflight")?,
            evicted: parse_metric(json, "evicted")?,
            quarantined: parse_metric(json, "quarantined")?,
            collateral_lost: parse_metric(json, "collateral_lost")?,
            rate_no_checkpoint: parse_metric(json, "rate_no_checkpoint")?,
            rate_checkpoint: parse_metric(json, "rate_checkpoint")?,
            checkpoint_overhead_ratio: parse_metric(json, "checkpoint_overhead_ratio")?,
            // Absent in pre-tagged baselines: treat as unsaturated.
            recovery_p99_saturated: parse_metric(json, "recovery_p99_saturated")
                .is_some_and(|v| v != 0.0),
        })
    }
}

/// The paper's 1-tag/4-antenna joint layout (small model keeps the
/// chaos phases fast; supervision behavior is model-size independent).
struct Workload {
    model: SequenceClassifier,
    builder: FrameBuilder,
    dim: usize,
}

fn workload() -> Workload {
    let layout = FrameLayout::new(1, 4, FeatureMode::Joint);
    let builder = FrameBuilder::new(layout, PhaseCalibrator::disabled(1, 4), 0.5);
    let model = build_model(&layout, 12, Architecture::CnnLstm, 1);
    Workload {
        model,
        builder,
        dim: layout.frame_dim(),
    }
}

/// Aggressive supervision knobs: failures are noticed in milliseconds
/// so the chaos run stays short.
fn chaos_supervision() -> SupervisionConfig {
    SupervisionConfig {
        heartbeat_interval: Duration::from_millis(5),
        stall_deadline: Duration::from_millis(250),
        checkpoint_interval: Duration::from_millis(50),
        restart_backoff: Duration::from_millis(10),
        backoff_max: Duration::from_millis(100),
        restart_budget: 64,
        ..SupervisionConfig::default()
    }
}

fn fabric_config(shards: usize, supervision: SupervisionConfig) -> FabricConfig {
    FabricConfig {
        shards,
        vnodes: 32,
        ingress_capacity: 512,
        serve: ServeConfig {
            max_sessions: SESSIONS.max(8),
            max_batch: 32,
            queue_capacity: 1024,
            history_len: HISTORY,
            ..ServeConfig::default()
        },
        supervision,
    }
}

/// Deterministic synthetic frame (xorshift-style; extraction is not
/// what this bench measures).
fn synth_frame(dim: usize, session: usize, step: usize) -> Vec<f32> {
    let mut state = (session as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((step as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
        | 1;
    (0..dim)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f32 / (1u64 << 53) as f32) - 0.5
        })
        .collect()
}

/// Pushes frames `[from, from + count)` to every session, riding
/// restarts via the deadline path.
fn push_round(fabric: &ServeFabric, w: &Workload, keys: &[SessionKey], from: usize, count: usize) {
    for t in from..from + count {
        for (s, &key) in keys.iter().enumerate() {
            fabric
                .push_frame_with_deadline(
                    key,
                    t as f64 * 0.5,
                    synth_frame(w.dim, s, t),
                    HealthState::Healthy,
                    Duration::from_secs(30),
                )
                .expect("push must survive a recovery window");
        }
    }
}

/// Spins until `cond` holds (panics after 30 s — the supervisor has
/// stopped supervising, which is exactly what this harness exists to
/// catch).
fn await_cond(what: &str, mut cond: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "chaos harness timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Crash phase: `KILLS` alternating shard kills under steady traffic.
/// Returns (recovery times ms, lost predictions, restarts, lost
/// in-flight, evicted).
fn measure_crashes(w: &Workload) -> (Vec<f64>, u64, u64, u64, u64) {
    let fabric = ServeFabric::new(
        w.model.clone(),
        w.builder.clone(),
        fabric_config(2, chaos_supervision()),
    );
    let keys: Vec<SessionKey> = (0..SESSIONS)
        .map(|_| fabric.open_session().expect("fabric sized for chaos"))
        .collect();

    push_round(&fabric, w, &keys, 0, HISTORY);
    let mut emitted = fabric.flush().len();
    let mut pushed = HISTORY;
    let mut recoveries_ms = Vec::with_capacity(KILLS);

    for round in 0..KILLS {
        push_round(&fabric, w, &keys, pushed, ROUND_FRAMES);
        pushed += ROUND_FRAMES;
        emitted += fabric.flush().len();
        // Drained + checkpointed: the in-flight window is empty, so
        // the kill may not cost a single prediction.
        fabric.checkpoint_now().expect("live shards checkpoint");
        let victim = round % 2;
        let t0 = Instant::now();
        fabric.kill_shard(victim).expect("victim shard is alive");
        await_cond("shard restart", || fabric.shard_alive(victim));
        recoveries_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    push_round(&fabric, w, &keys, pushed, ROUND_FRAMES);
    pushed += ROUND_FRAMES;
    emitted += fabric.flush().len();

    let stats = fabric.shutdown();
    let expected = SESSIONS * (pushed - HISTORY + 1);
    let lost = expected.saturating_sub(emitted) as u64;
    (
        recoveries_ms,
        lost,
        stats.restarts,
        stats.lost_inflight,
        stats.evicted,
    )
}

/// Stall phase: flatline one worker's heartbeat; time until the
/// supervisor has it replaced and serving again.
fn measure_stall(w: &Workload) -> f64 {
    let fabric = ServeFabric::new(
        w.model.clone(),
        w.builder.clone(),
        fabric_config(1, chaos_supervision()),
    );
    let key = fabric.open_session().expect("capacity");
    push_round(&fabric, w, &[key], 0, HISTORY);
    fabric.flush();
    fabric.checkpoint_now().expect("live shard checkpoints");

    fabric.set_throttle(0, ShardThrottle::Stall);
    let t0 = Instant::now();
    await_cond("stall replacement", || {
        fabric.restarts() >= 1 && fabric.shard_alive(0)
    });
    let detect_ms = t0.elapsed().as_secs_f64() * 1e3;

    // The replacement must actually serve: one more round emits.
    push_round(&fabric, w, &[key], HISTORY, ROUND_FRAMES);
    let out = fabric.flush();
    assert_eq!(
        out.len(),
        ROUND_FRAMES,
        "replacement worker must resume the checkpointed window"
    );
    let stats = fabric.shutdown();
    assert!(stats.stalls >= 1, "the flatline must register as a stall");
    detect_ms
}

/// Poison phase: wrong-dimension frames panic the engine until the
/// session is quarantined. Returns (quarantined, neighbor predictions
/// lost).
fn measure_quarantine(w: &Workload) -> (u64, u64) {
    let fabric = ServeFabric::new(
        w.model.clone(),
        w.builder.clone(),
        fabric_config(
            1,
            SupervisionConfig {
                poison_threshold: 2,
                ..chaos_supervision()
            },
        ),
    );
    let clean = fabric.open_session().expect("capacity");
    let victim = fabric.open_session().expect("capacity");
    push_round(&fabric, w, &[clean], 0, HISTORY);
    let mut emitted = fabric.flush().len();
    fabric.checkpoint_now().expect("live shard checkpoints");

    let poison = vec![0.25f32; w.dim + 3];
    let t0 = Instant::now();
    while !fabric.is_quarantined(victim) {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "poison never tripped the quarantine threshold"
        );
        match fabric.push_frame(victim, 0.0, poison.clone(), HealthState::Healthy) {
            Ok(_) => std::thread::sleep(Duration::from_millis(5)),
            Err(FabricError::Quarantined) => break,
            Err(e) => panic!("unexpected push error while poisoning: {e}"),
        }
    }
    push_round(&fabric, w, &[clean], HISTORY, ROUND_FRAMES);
    emitted += fabric.flush().len();
    let stats = fabric.shutdown();
    let expected = HISTORY + ROUND_FRAMES - HISTORY + 1;
    let collateral_lost = expected.saturating_sub(emitted) as u64;
    (stats.quarantined, collateral_lost)
}

/// Steady-state rate (best of 3 timed passes) with the given
/// checkpoint cadence.
fn measure_rate(w: &Workload, checkpoint_interval: Duration) -> f64 {
    let fabric = ServeFabric::new(
        w.model.clone(),
        w.builder.clone(),
        fabric_config(
            2,
            SupervisionConfig {
                checkpoint_interval,
                ..chaos_supervision()
            },
        ),
    );
    let keys: Vec<SessionKey> = (0..SESSIONS)
        .map(|_| fabric.open_session().expect("fabric sized for chaos"))
        .collect();
    push_round(&fabric, w, &keys, 0, HISTORY);
    fabric.flush();
    let mut step = HISTORY;
    let mut best = 0.0f64;
    for pass in 0..4 {
        let start = Instant::now();
        let mut emitted = 0usize;
        for i in 0..OVERHEAD_ARRIVALS {
            let s = i % SESSIONS;
            if s == 0 {
                step += 1;
            }
            fabric
                .push_frame_with_deadline(
                    keys[s],
                    step as f64 * 0.5,
                    synth_frame(w.dim, s, step),
                    HealthState::Healthy,
                    Duration::from_secs(30),
                )
                .expect("session open");
            if i % 256 == 255 {
                emitted += fabric.poll().len();
            }
        }
        emitted += fabric.flush().len();
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        assert_eq!(emitted, OVERHEAD_ARRIVALS, "steady state must not shed");
        if pass > 0 {
            // Pass 0 is warmup.
            best = best.max(OVERHEAD_ARRIVALS as f64 / secs);
        }
    }
    if checkpoint_interval > Duration::ZERO {
        assert!(
            fabric.checkpointed_sessions() > 0,
            "the periodic sweep must actually have checkpointed"
        );
    }
    drop(fabric.shutdown());
    best
}

/// Current snapshot of the fabric's recovery-latency histogram
/// (`None` until a fabric has registered its instruments).
fn recovery_hist() -> Option<m2ai_obs::HistogramSnapshot> {
    match m2ai_obs::find("m2ai_fabric_recovery_seconds", &[]) {
        Some(m2ai_obs::MetricValue::Histogram(h)) => Some(h),
        _ => None,
    }
}

fn available_cores() -> f64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as f64)
        .unwrap_or(1.0)
}

/// Silences the panic-hook reports from engine panics *injected on
/// purpose* inside shard worker threads (they are caught and counted
/// by the supervision layer); every other thread's panics still print.
/// The hook stays installed for the rest of the process — fine for the
/// one-shot `experiments` binary this runs in.
fn quiet_shard_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let shard_thread = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("m2ai-shard-"));
        if !shard_thread {
            prev(info);
        }
    }));
}

/// Measures the report on the current machine (fast kernel backend).
pub fn run() -> ChaosReport {
    header(
        "Chaos",
        "self-healing fabric: kill/stall/poison recovery + checkpoint overhead",
    );
    quiet_shard_panics();
    let w = workload();

    // Window the fabric's own recovery histogram over the crash phase
    // (the registry is process-global, so the delta isolates this run)
    // and pool it — a saturated p99 there means some recovery ran past
    // the last finite bucket, which the exact per-kill timings below
    // could only show as a blown ceiling.
    let recovery_hist_before = recovery_hist();
    let (mut recoveries_ms, lost, restarts, lost_inflight, evicted) = measure_crashes(&w);
    let mut recovery_window = m2ai_obs::HistogramDelta::new();
    if let Some(after) = recovery_hist() {
        recovery_window.accumulate(&match &recovery_hist_before {
            Some(before) => after.delta(before),
            None => after,
        });
    }
    recoveries_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite recoveries"));
    let q = |frac: f64| -> f64 {
        let idx = ((recoveries_ms.len() - 1) as f64 * frac).round() as usize;
        recoveries_ms[idx]
    };
    let stall_detect_ms = measure_stall(&w);
    let (quarantined, collateral_lost) = measure_quarantine(&w);
    let rate_no_checkpoint = measure_rate(&w, Duration::ZERO);
    let rate_checkpoint = measure_rate(&w, OVERHEAD_CKPT_EVERY);

    let report = ChaosReport {
        cores: available_cores(),
        sessions: SESSIONS as f64,
        kills: KILLS as f64,
        recovery_p50_ms: q(0.50),
        recovery_p99_ms: q(0.99),
        stall_detect_ms,
        restarts: restarts as f64,
        lost_predictions: lost as f64,
        lost_inflight: lost_inflight as f64,
        evicted: evicted as f64,
        quarantined: quarantined as f64,
        collateral_lost: collateral_lost as f64,
        rate_no_checkpoint,
        rate_checkpoint,
        checkpoint_overhead_ratio: rate_no_checkpoint / rate_checkpoint,
        recovery_p99_saturated: recovery_window.count() > 0
            && recovery_window.quantile(0.99).saturated,
    };
    println!("cores               {:>10.0}", report.cores);
    println!(
        "kills               {:>10.0} ({} restarts)",
        report.kills, report.restarts
    );
    println!("recovery p50        {:>10.1} ms", report.recovery_p50_ms);
    println!("recovery p99        {:>10.1} ms", report.recovery_p99_ms);
    println!("stall detect        {:>10.1} ms", report.stall_detect_ms);
    println!(
        "lost predictions    {:>10.0} (inflight {:.0}, evicted {:.0})",
        report.lost_predictions, report.lost_inflight, report.evicted
    );
    println!(
        "quarantined         {:>10.0} (collateral lost {:.0})",
        report.quarantined, report.collateral_lost
    );
    println!(
        "rate no-ckpt        {:>10.0} predictions/sec",
        report.rate_no_checkpoint
    );
    println!(
        "rate 10ms-ckpt      {:>10.0} predictions/sec",
        report.rate_checkpoint
    );
    println!(
        "ckpt overhead       {:>10.2}x",
        report.checkpoint_overhead_ratio
    );
    report
}

/// Pure regression gate: every failure is one human-readable line.
pub fn regressions(fresh: &ChaosReport, baseline: &ChaosReport) -> Vec<String> {
    let mut failures = Vec::new();
    // Exact correctness gates — machine-free, no tolerance.
    for (name, v, want) in [
        ("lost_predictions", fresh.lost_predictions, 0.0),
        ("lost_inflight", fresh.lost_inflight, 0.0),
        ("evicted", fresh.evicted, 0.0),
        ("collateral_lost", fresh.collateral_lost, 0.0),
        ("quarantined", fresh.quarantined, 1.0),
    ] {
        if v != want {
            failures.push(format!("{name} is {v:.0}, must be exactly {want:.0}"));
        }
    }
    if !fresh.restarts.ge(&fresh.kills) {
        failures.push(format!(
            "restarts {:.0} below the {:.0} injected kills",
            fresh.restarts, fresh.kills
        ));
    }
    if fresh.recovery_p99_saturated {
        failures.push(
            "recovery p99 saturated the m2ai_fabric_recovery_seconds histogram \
             (some recovery ran past the last finite bucket)"
                .to_string(),
        );
    }
    // Timing ceilings (NaN-safe: NaN must fail).
    if !fresh.recovery_p99_ms.le(&MAX_RECOVERY_P99_MS) {
        failures.push(format!(
            "recovery p99 {:.1} ms exceeds the {MAX_RECOVERY_P99_MS:.0} ms ceiling",
            fresh.recovery_p99_ms
        ));
    }
    if !fresh.stall_detect_ms.le(&MAX_STALL_DETECT_MS) {
        failures.push(format!(
            "stall detection {:.1} ms exceeds the {MAX_STALL_DETECT_MS:.0} ms ceiling",
            fresh.stall_detect_ms
        ));
    }
    if !fresh.checkpoint_overhead_ratio.le(&MAX_CHECKPOINT_OVERHEAD) {
        failures.push(format!(
            "checkpoint overhead {:.2}x exceeds the {MAX_CHECKPOINT_OVERHEAD:.1}x ceiling",
            fresh.checkpoint_overhead_ratio
        ));
    }
    // Relative checks only compare like with like.
    if fresh.cores != baseline.cores {
        println!(
            "chaos gate: baseline cores {:.0} != fresh cores {:.0}; skipping relative checks",
            baseline.cores, fresh.cores
        );
        return failures;
    }
    for (name, f, b) in [
        (
            "recovery_p99_ms",
            fresh.recovery_p99_ms,
            baseline.recovery_p99_ms,
        ),
        (
            "stall_detect_ms",
            fresh.stall_detect_ms,
            baseline.stall_detect_ms,
        ),
    ] {
        let ceiling = MAX_TIMING_GROWTH * b.max(1.0);
        if !f.le(&ceiling) {
            failures.push(format!(
                "{name}: {f:.1} ms grew more than {MAX_TIMING_GROWTH:.0}x over baseline {b:.1} ms"
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
pub fn run_and_write(path: &str) -> ChaosReport {
    let report = run();
    std::fs::write(path, report.to_json()).expect("write chaos report");
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
/// checked in, so that is a repo defect, not a recovery regression.
pub fn check(path: &str) -> bool {
    let json =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read chaos baseline {path}: {e}"));
    let baseline =
        ChaosReport::from_json(&json).unwrap_or_else(|| panic!("parse chaos baseline {path}"));
    let fresh = run();
    let failures = regressions(&fresh, &baseline);
    if failures.is_empty() {
        println!("chaos gate: PASS");
        true
    } else {
        for f in &failures {
            eprintln!("chaos gate FAIL: {f}");
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_report() -> ChaosReport {
        ChaosReport {
            cores: 4.0,
            sessions: SESSIONS as f64,
            kills: KILLS as f64,
            recovery_p50_ms: 15.0,
            recovery_p99_ms: 40.0,
            stall_detect_ms: 300.0,
            restarts: KILLS as f64 + 1.0,
            lost_predictions: 0.0,
            lost_inflight: 0.0,
            evicted: 0.0,
            quarantined: 1.0,
            collateral_lost: 0.0,
            rate_no_checkpoint: 5000.0,
            rate_checkpoint: 4500.0,
            checkpoint_overhead_ratio: 5000.0 / 4500.0,
            recovery_p99_saturated: false,
        }
    }

    #[test]
    fn gate_trips_on_saturated_recovery_histogram() {
        let base = clean_report();
        let mut sat = base.clone();
        sat.recovery_p99_saturated = true;
        assert!(regressions(&sat, &base)
            .iter()
            .any(|f| f.contains("saturated")));
        // A baseline written before the flag existed still parses.
        let legacy = base
            .to_json()
            .replace(",\n  \"recovery_p99_saturated\": 0", "");
        let back = ChaosReport::from_json(&legacy).expect("legacy parse");
        assert!(!back.recovery_p99_saturated);
    }

    #[test]
    fn json_roundtrips() {
        let r = clean_report();
        let back = ChaosReport::from_json(&r.to_json()).expect("roundtrip");
        assert_eq!(back, r);
    }

    #[test]
    fn clean_report_passes_its_own_gate() {
        let r = clean_report();
        assert!(regressions(&r, &r).is_empty());
    }

    #[test]
    fn gate_trips_on_any_lost_prediction() {
        let base = clean_report();
        let mut lossy = base.clone();
        lossy.lost_predictions = 1.0;
        assert!(regressions(&lossy, &base)
            .iter()
            .any(|f| f.contains("lost_predictions")));
    }

    #[test]
    fn gate_trips_on_slow_recovery_and_nan() {
        let base = clean_report();
        let mut slow = base.clone();
        slow.recovery_p99_ms = MAX_RECOVERY_P99_MS + 1.0;
        assert!(regressions(&slow, &base)
            .iter()
            .any(|f| f.contains("recovery p99")));
        let mut nan = base.clone();
        nan.recovery_p99_ms = f64::NAN;
        assert!(!regressions(&nan, &base).is_empty());
    }

    #[test]
    fn gate_trips_on_checkpoint_overhead_blowup() {
        let base = clean_report();
        let mut heavy = base.clone();
        heavy.checkpoint_overhead_ratio = MAX_CHECKPOINT_OVERHEAD + 0.5;
        assert!(regressions(&heavy, &base)
            .iter()
            .any(|f| f.contains("checkpoint overhead")));
    }

    #[test]
    fn relative_timing_checks_skip_across_core_counts() {
        let base = clean_report();
        let mut other = base.clone();
        other.cores = 8.0;
        other.stall_detect_ms = MAX_TIMING_GROWTH * base.stall_detect_ms * 2.0;
        // Above the relative ceiling but below the absolute one: only
        // the same-core comparison may trip.
        assert!(other.stall_detect_ms < MAX_STALL_DETECT_MS);
        assert!(regressions(&other, &base).is_empty());
        let mut same = other.clone();
        same.cores = base.cores;
        assert!(regressions(&same, &base)
            .iter()
            .any(|f| f.contains("stall_detect_ms")));
    }
}
