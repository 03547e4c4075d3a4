//! Shard-fabric benchmark and regression gate (serve-fabric PR).
//!
//! Drives the `m2ai-serve-fabric` with a **Zipf-skewed open-loop load
//! generator** — realistic serving traffic is never uniform; a few hot
//! sessions dominate — and measures:
//!
//! * **scaling** — aggregate end-to-end predictions/sec (push → emit)
//!   at 1, 2 and 4 shards over the same skewed arrival trace;
//! * **overload** — a deterministic saturation phase (frozen-ingress
//!   burst + sustained over-capacity arrivals against small queues)
//!   recording shed counts and the p50/p99 *sojourn* latency of the
//!   predictions that survive (push instant → prediction received).
//!
//! ## Gate philosophy
//!
//! Shard scaling is the one quantity in this workspace that cannot be
//! made machine-dimensionless: it needs physical cores. The gate is
//! therefore **core-aware**: on a machine with ≥ 4 cores the 4-shard
//! aggregate must reach [`SCALING_EFFICIENCY`] × 4 ≥ 2.5× the 1-shard
//! rate (the near-linear floor the PR promises); with fewer cores the
//! floor degrades to the parallelism actually available, bottoming
//! out at [`MIN_SCALING_1CORE`] on a single-core runner — where 4
//! time-shared workers can only be *checked for not collapsing*
//! (a global serialization or contention thrash drags the ratio far
//! below it). The measured core count is recorded in the JSON so a
//! baseline from one machine class is never silently compared against
//! another: cross-core-count baselines skip the relative checks and
//! rely on the absolute floors.
//!
//! Overload latency *is* normalised machine-free: the p99 sojourn is
//! multiplied by the same run's 1-shard service rate, giving "how many
//! service times deep is the tail" — a pure function of the queue
//! bounds that must not regress.

use crate::throughput::{json_f64, parse_metric};
use m2ai_core::calibration::PhaseCalibrator;
use m2ai_core::frames::{FeatureMode, FrameBuilder, FrameLayout};
use m2ai_core::network::{build_model, Architecture};
use m2ai_core::online::HealthState;
use m2ai_core::serve::ServeConfig;
use m2ai_nn::model::SequenceClassifier;
use m2ai_serve_fabric::{FabricConfig, PushOutcome, ServeFabric, SessionKey, ShardThrottle};
use std::time::Instant;

use crate::header;

/// Concurrent streaming sessions in the workload.
const SESSIONS: usize = 96;

/// Sliding window length in frames (the training `T`).
const HISTORY: usize = 12;

/// Zipf exponent of the session-popularity distribution (s = 1.0: the
/// hottest of 96 sessions draws ~19% of all arrivals).
const ZIPF_S: f64 = 1.0;

/// Timed arrivals per measurement pass.
const ARRIVALS: usize = 4000;

/// Shard counts swept for the scaling curve.
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Arrivals driven during the sustained overload phase.
const OVERLOAD_ARRIVALS: usize = 3000;

/// Ingress-queue bound during overload (deliberately small).
const OVERLOAD_INGRESS: usize = 64;

/// Per-session engine queue bound during overload.
const OVERLOAD_QUEUE: usize = 16;

/// Minimum per-core scaling efficiency when cores cover the shards:
/// 4 shards on ≥ 4 cores must aggregate ≥ 0.625 × 4 = 2.5× the
/// 1-shard rate.
const SCALING_EFFICIENCY: f64 = 0.625;

/// Scaling floor on a single-core machine, where extra shards can
/// only time-share: the gate only rejects collapse (lock convoys,
/// accidental global serialization), not the absent parallelism.
const MIN_SCALING_1CORE: f64 = 0.55;

/// Max tolerated drop of a scaling ratio vs the baseline, applied
/// only when the fresh and baseline core counts match.
const MAX_SCALING_REGRESSION: f64 = 0.25;

/// Max tolerated growth of the service-normalised overload p99
/// sojourn vs the baseline (same-core-count runs only). Queue-depth
/// arithmetic bounds the true value; 150% headroom covers scheduler
/// noise on saturated runners.
const MAX_P99_GROWTH: f64 = 1.5;

/// One fabric measurement. Rates are end-to-end predictions/sec.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Cores the runner exposed (`std::thread::available_parallelism`).
    pub cores: f64,
    /// Concurrent sessions in the workload.
    pub sessions: f64,
    /// Timed arrivals per pass.
    pub arrivals: f64,
    /// Aggregate predictions/sec with one shard.
    pub preds_per_sec_1shard: f64,
    /// Aggregate predictions/sec with two shards.
    pub preds_per_sec_2shard: f64,
    /// Aggregate predictions/sec with four shards.
    pub preds_per_sec_4shard: f64,
    /// `preds_per_sec_2shard / preds_per_sec_1shard`.
    pub scaling_2: f64,
    /// `preds_per_sec_4shard / preds_per_sec_1shard`.
    pub scaling_4: f64,
    /// Arrivals shed (ingress + engine queues) during overload.
    pub overload_shed: f64,
    /// Predictions that survived the overload phase.
    pub overload_emitted: f64,
    /// Median push→receive sojourn of surviving predictions, ms.
    pub overload_p50_sojourn_ms: f64,
    /// 99th-percentile sojourn, ms.
    pub overload_p99_sojourn_ms: f64,
}

impl ShardReport {
    /// Renders the report as a small stable JSON document (hand-rolled;
    /// the workspace carries no serde). Key order is fixed.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"m2ai-shard-v1\",\n");
        for (key, v) in [
            ("cores", self.cores),
            ("sessions", self.sessions),
            ("arrivals", self.arrivals),
            ("preds_per_sec_1shard", self.preds_per_sec_1shard),
            ("preds_per_sec_2shard", self.preds_per_sec_2shard),
            ("preds_per_sec_4shard", self.preds_per_sec_4shard),
            ("scaling_2", self.scaling_2),
            ("scaling_4", self.scaling_4),
            ("overload_shed", self.overload_shed),
            ("overload_emitted", self.overload_emitted),
            ("overload_p50_sojourn_ms", self.overload_p50_sojourn_ms),
        ] {
            out.push_str(&format!("  \"{key}\": {},\n", json_f64(v)));
        }
        out.push_str(&format!(
            "  \"overload_p99_sojourn_ms\": {}\n",
            json_f64(self.overload_p99_sojourn_ms)
        ));
        out.push('}');
        out.push('\n');
        out
    }

    /// Parses a report previously written by [`ShardReport::to_json`].
    ///
    /// Returns `None` if any expected key is missing or non-numeric.
    pub fn from_json(json: &str) -> Option<ShardReport> {
        Some(ShardReport {
            cores: parse_metric(json, "cores")?,
            sessions: parse_metric(json, "sessions")?,
            arrivals: parse_metric(json, "arrivals")?,
            preds_per_sec_1shard: parse_metric(json, "preds_per_sec_1shard")?,
            preds_per_sec_2shard: parse_metric(json, "preds_per_sec_2shard")?,
            preds_per_sec_4shard: parse_metric(json, "preds_per_sec_4shard")?,
            scaling_2: parse_metric(json, "scaling_2")?,
            scaling_4: parse_metric(json, "scaling_4")?,
            overload_shed: parse_metric(json, "overload_shed")?,
            overload_emitted: parse_metric(json, "overload_emitted")?,
            overload_p50_sojourn_ms: parse_metric(json, "overload_p50_sojourn_ms")?,
            overload_p99_sojourn_ms: parse_metric(json, "overload_p99_sojourn_ms")?,
        })
    }
}

/// splitmix64 step: the arrival stream's deterministic RNG.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn next_unit(state: &mut u64) -> f64 {
    (next_u64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Zipf sampler over `0..n` via its inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = *cdf.last().expect("n > 0");
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Deterministic synthetic spectrum frame (same splitmix-style hash as
/// the serve bench; the load generator must not measure extraction).
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

/// The shared workload: the paper's 2-tag/4-antenna joint layout and
/// CNN+LSTM model.
struct Workload {
    model: SequenceClassifier,
    builder: FrameBuilder,
    dim: usize,
}

fn workload() -> Workload {
    let layout = FrameLayout::new(2, 4, FeatureMode::Joint);
    let builder = FrameBuilder::new(layout, PhaseCalibrator::disabled(2, 4), 0.5);
    let model = build_model(&layout, 12, Architecture::CnnLstm, 1);
    Workload {
        model,
        builder,
        dim: layout.frame_dim(),
    }
}

fn fabric_config(shards: usize, ingress: usize, queue: usize) -> FabricConfig {
    FabricConfig {
        shards,
        vnodes: 64,
        ingress_capacity: ingress,
        serve: ServeConfig {
            // Every shard can hold the full population: the scaling
            // sweep measures throughput, not admission.
            max_sessions: SESSIONS,
            max_batch: 64,
            queue_capacity: queue,
            history_len: HISTORY,
            ..ServeConfig::default()
        },
        supervision: Default::default(),
    }
}

/// Opens the session population and fills every window ring
/// (untimed). Returns the keys and the per-session step cursors.
fn open_and_fill(fabric: &ServeFabric, w: &Workload) -> (Vec<SessionKey>, Vec<usize>) {
    let keys: Vec<SessionKey> = (0..SESSIONS)
        .map(|_| fabric.open_session().expect("fabric sized for population"))
        .collect();
    for t in 0..HISTORY {
        for (s, &key) in keys.iter().enumerate() {
            // Closed-loop fill: retry shed pushes after letting the
            // shard drain (only matters for the tiny overload queues).
            loop {
                match fabric
                    .push_frame(
                        key,
                        t as f64 * 0.5,
                        synth_frame(w.dim, s, t),
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
    fabric.flush();
    (keys, vec![HISTORY; SESSIONS])
}

/// Best-of-three aggregate rate at `shards` shards: push `ARRIVALS`
/// Zipf-skewed frames end to end and time until the last prediction is
/// collected. Shed-free by construction (queues sized for the trace),
/// so emitted == arrivals is asserted, doubling as a conservation
/// check.
fn measure_rate(w: &Workload, shards: usize) -> f64 {
    let fabric = ServeFabric::new(
        w.model.clone(),
        w.builder.clone(),
        fabric_config(shards, 4 * ARRIVALS.max(SESSIONS), ARRIVALS),
    );
    let (keys, mut step) = open_and_fill(&fabric, w);
    let zipf = Zipf::new(SESSIONS, ZIPF_S);
    let mut rng = 0x005E_ED0F_5A1D_u64 ^ shards as u64;
    let mut best = 0.0f64;
    for pass in 0..4 {
        let start = Instant::now();
        let mut emitted = 0usize;
        for i in 0..ARRIVALS {
            let s = zipf.sample(next_unit(&mut rng));
            let out = fabric
                .push_frame(
                    keys[s],
                    step[s] as f64 * 0.5,
                    synth_frame(w.dim, s, step[s]),
                    HealthState::Healthy,
                )
                .expect("session open");
            assert_eq!(out, PushOutcome::Enqueued, "scaling phase must not shed");
            step[s] += 1;
            if i % 256 == 255 {
                emitted += fabric.poll().len();
            }
        }
        emitted += fabric.flush().len();
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        assert_eq!(
            emitted, ARRIVALS,
            "every healthy arrival past the ring fill must emit"
        );
        if pass > 0 {
            // Pass 0 is warmup (page faults, branch history).
            best = best.max(ARRIVALS as f64 / secs);
        }
    }
    drop(fabric.shutdown());
    best
}

/// Overload phase at 4 shards with deliberately small queues: a
/// frozen-ingress burst makes shedding deterministic, then sustained
/// over-capacity arrivals measure the sojourn tail of survivors.
fn measure_overload(w: &Workload) -> (u64, usize, f64, f64) {
    let shards = 4;
    let fabric = ServeFabric::new(
        w.model.clone(),
        w.builder.clone(),
        fabric_config(shards, OVERLOAD_INGRESS, OVERLOAD_QUEUE),
    );
    let (keys, mut step) = open_and_fill(&fabric, w);
    let zipf = Zipf::new(SESSIONS, ZIPF_S);
    let mut rng = 0x00E4_10AD_5EED_u64;
    let epoch = Instant::now();
    let mut sojourns_ms: Vec<f64> = Vec::with_capacity(OVERLOAD_ARRIVALS);
    let mut shed = 0u64;
    let collect = |fabric: &ServeFabric, sojourns: &mut Vec<f64>| {
        let now_s = epoch.elapsed().as_secs_f64();
        for p in fabric.poll() {
            sojourns.push((now_s - p.prediction.time_s) * 1e3);
        }
    };
    // Phase 1: freeze every shard and push until the ingress queues
    // are provably saturated — sheds are guaranteed, not scheduled.
    for shard in 0..shards {
        fabric.set_throttle(shard, ShardThrottle::Freeze);
    }
    let burst = shards * OVERLOAD_INGRESS + 512;
    for _ in 0..burst {
        let s = zipf.sample(next_unit(&mut rng));
        let out = fabric
            .push_frame(
                keys[s],
                epoch.elapsed().as_secs_f64(),
                synth_frame(w.dim, s, step[s]),
                HealthState::Healthy,
            )
            .expect("session open");
        if out == PushOutcome::Shed {
            shed += 1;
        } else {
            step[s] += 1;
        }
    }
    assert!(shed > 0, "frozen ingress must shed past its bound");
    for shard in 0..shards {
        fabric.set_throttle(shard, ShardThrottle::Run);
    }
    // Phase 2: sustained arrivals as fast as the producer can push —
    // offered load exceeds the 4-shard service rate on any machine
    // because pushing is far cheaper than an LSTM step.
    for i in 0..OVERLOAD_ARRIVALS {
        let s = zipf.sample(next_unit(&mut rng));
        let out = fabric
            .push_frame(
                keys[s],
                epoch.elapsed().as_secs_f64(),
                synth_frame(w.dim, s, step[s]),
                HealthState::Healthy,
            )
            .expect("session open");
        if out == PushOutcome::Shed {
            shed += 1;
        } else {
            step[s] += 1;
        }
        if i % 128 == 127 {
            collect(&fabric, &mut sojourns_ms);
        }
    }
    let now_s = epoch.elapsed().as_secs_f64();
    for p in fabric.flush() {
        sojourns_ms.push((now_s - p.prediction.time_s) * 1e3);
    }
    collect(&fabric, &mut sojourns_ms);
    let stats = fabric.shutdown();
    let engine_shed: u64 = stats.shards.iter().map(|s| s.engine_shed).sum();
    shed += engine_shed;
    sojourns_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite sojourns"));
    let q = |frac: f64| -> f64 {
        if sojourns_ms.is_empty() {
            return f64::NAN;
        }
        let idx = ((sojourns_ms.len() - 1) as f64 * frac).round() as usize;
        sojourns_ms[idx]
    };
    (shed, sojourns_ms.len(), q(0.50), q(0.99))
}

fn available_cores() -> f64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as f64)
        .unwrap_or(1.0)
}

/// The core-aware scaling floor for `target` shards on `cores` cores.
fn scaling_floor(cores: f64, target: f64) -> f64 {
    let effective = cores.min(target);
    if effective >= 2.0 {
        SCALING_EFFICIENCY * effective
    } else {
        MIN_SCALING_1CORE
    }
}

/// Measures the report on the current machine (fast kernel backend).
pub fn run() -> ShardReport {
    header(
        "Shard",
        "sharded serve fabric: Zipf-skewed scaling + overload tail",
    );
    let w = workload();
    let mut rates = [0.0f64; SHARD_COUNTS.len()];
    for (i, &shards) in SHARD_COUNTS.iter().enumerate() {
        rates[i] = measure_rate(&w, shards);
        println!(
            "{shards} shard(s)          {:>10.0} predictions/sec (aggregate)",
            rates[i]
        );
    }
    let (shed, emitted, p50_ms, p99_ms) = measure_overload(&w);
    let report = ShardReport {
        cores: available_cores(),
        sessions: SESSIONS as f64,
        arrivals: ARRIVALS as f64,
        preds_per_sec_1shard: rates[0],
        preds_per_sec_2shard: rates[1],
        preds_per_sec_4shard: rates[2],
        scaling_2: rates[1] / rates[0],
        scaling_4: rates[2] / rates[0],
        overload_shed: shed as f64,
        overload_emitted: emitted as f64,
        overload_p50_sojourn_ms: p50_ms,
        overload_p99_sojourn_ms: p99_ms,
    };
    println!("cores               {:>10.0}", report.cores);
    println!("scaling 1→2         {:>10.2}x", report.scaling_2);
    println!("scaling 1→4         {:>10.2}x", report.scaling_4);
    println!(
        "overload shed       {:>10.0} of {} arrivals",
        report.overload_shed,
        burst_plus_sustained()
    );
    println!("overload emitted    {:>10.0}", report.overload_emitted);
    println!("overload p50        {:>10.2} ms sojourn", p50_ms);
    println!("overload p99        {:>10.2} ms sojourn", p99_ms);
    report
}

/// Total overload-phase arrivals (burst + sustained), for reporting.
fn burst_plus_sustained() -> usize {
    4 * OVERLOAD_INGRESS + 512 + OVERLOAD_ARRIVALS
}

/// Pure regression gate: every failure is one human-readable line.
pub fn regressions(fresh: &ShardReport, baseline: &ShardReport) -> Vec<String> {
    let mut failures = Vec::new();
    if fresh.preds_per_sec_1shard <= 0.0 || !fresh.preds_per_sec_1shard.is_finite() {
        failures.push("1-shard rate is non-positive; cannot normalise".to_string());
        return failures;
    }
    // Absolute core-aware scaling floors (NaN-safe: NaN must fail).
    for (name, scaling, target) in [
        ("scaling_2", fresh.scaling_2, 2.0),
        ("scaling_4", fresh.scaling_4, 4.0),
    ] {
        let floor = scaling_floor(fresh.cores, target);
        if !scaling.ge(&floor) {
            failures.push(format!(
                "{name} {scaling:.2}x is below the {floor:.2}x floor for {:.0} core(s)",
                fresh.cores
            ));
        }
    }
    // Overload semantics must hold on every machine.
    if !fresh.overload_shed.gt(&0.0) {
        failures.push("overload phase shed nothing: saturation never happened".to_string());
    }
    if !fresh.overload_emitted.gt(&0.0) {
        failures.push("overload phase emitted nothing: fabric stalled under load".to_string());
    }
    for (name, v) in [
        ("overload_p50_sojourn_ms", fresh.overload_p50_sojourn_ms),
        ("overload_p99_sojourn_ms", fresh.overload_p99_sojourn_ms),
    ] {
        if !v.is_finite() {
            failures.push(format!("{name} is not finite"));
        }
    }
    // Relative checks only compare like with like: a 1-core baseline
    // says nothing about a 4-core runner's scaling curve.
    if fresh.cores != baseline.cores {
        println!(
            "shard gate: baseline cores {:.0} != fresh cores {:.0}; skipping relative checks",
            baseline.cores, fresh.cores
        );
        return failures;
    }
    for (name, f, b) in [
        ("scaling_2", fresh.scaling_2, baseline.scaling_2),
        ("scaling_4", fresh.scaling_4, baseline.scaling_4),
    ] {
        let floor = (1.0 - MAX_SCALING_REGRESSION) * b;
        if !f.ge(&floor) {
            failures.push(format!(
                "{name}: {f:.2}x fell more than {:.0}% below baseline {b:.2}x",
                100.0 * MAX_SCALING_REGRESSION
            ));
        }
    }
    // Service-normalised overload tail: sojourn × 1-shard rate is
    // "how many service times deep the p99 sits" — machine-free.
    let norm_fresh = fresh.overload_p99_sojourn_ms * 1e-3 * fresh.preds_per_sec_1shard;
    let norm_base = baseline.overload_p99_sojourn_ms * 1e-3 * baseline.preds_per_sec_1shard;
    let ceiling = (1.0 + MAX_P99_GROWTH) * norm_base;
    if !norm_fresh.le(&ceiling) {
        failures.push(format!(
            "overload p99: service-normalised sojourn {norm_fresh:.1} grew more than \
             {:.0}% above baseline {norm_base:.1}",
            100.0 * MAX_P99_GROWTH
        ));
    }
    failures
}

/// Measures and writes the JSON baseline to `path`.
///
/// # Panics
///
/// Panics if `path` cannot be written.
pub fn run_and_write(path: &str) -> ShardReport {
    let report = run();
    std::fs::write(path, report.to_json()).expect("write shard report");
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
    let json =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read shard baseline {path}: {e}"));
    let baseline =
        ShardReport::from_json(&json).unwrap_or_else(|| panic!("parse shard baseline {path}"));
    let fresh = run();
    let failures = regressions(&fresh, &baseline);
    if failures.is_empty() {
        println!("shard gate: PASS");
        true
    } else {
        for f in &failures {
            eprintln!("shard gate FAIL: {f}");
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cores: f64, r1: f64, r2: f64, r4: f64, p99: f64) -> ShardReport {
        ShardReport {
            cores,
            sessions: SESSIONS as f64,
            arrivals: ARRIVALS as f64,
            preds_per_sec_1shard: r1,
            preds_per_sec_2shard: r2,
            preds_per_sec_4shard: r4,
            scaling_2: r2 / r1,
            scaling_4: r4 / r1,
            overload_shed: 100.0,
            overload_emitted: 900.0,
            overload_p50_sojourn_ms: 2.0,
            overload_p99_sojourn_ms: p99,
        }
    }

    #[test]
    fn json_roundtrips() {
        let r = report(4.0, 1000.0, 1800.0, 3200.0, 9.5);
        let back = ShardReport::from_json(&r.to_json()).expect("roundtrip");
        assert_eq!(back, r);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = Zipf::new(SESSIONS, ZIPF_S);
        let mut rng = 7u64;
        let mut counts = vec![0usize; SESSIONS];
        for _ in 0..20_000 {
            let s = zipf.sample(next_unit(&mut rng));
            assert!(s < SESSIONS);
            counts[s] += 1;
        }
        assert!(
            counts[0] > 10 * counts[SESSIONS - 1].max(1),
            "head must dominate tail: {} vs {}",
            counts[0],
            counts[SESSIONS - 1]
        );
    }

    #[test]
    fn core_aware_floor_shapes() {
        assert!((scaling_floor(4.0, 4.0) - 2.5).abs() < 1e-12);
        assert!((scaling_floor(8.0, 4.0) - 2.5).abs() < 1e-12);
        assert!((scaling_floor(2.0, 4.0) - 1.25).abs() < 1e-12);
        assert!((scaling_floor(1.0, 4.0) - MIN_SCALING_1CORE).abs() < 1e-12);
        assert!((scaling_floor(4.0, 2.0) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn gate_trips_on_collapse_and_nan() {
        let base = report(4.0, 1000.0, 1800.0, 3200.0, 9.5);
        let collapsed = report(4.0, 1000.0, 900.0, 800.0, 9.5);
        assert!(regressions(&collapsed, &base)
            .iter()
            .any(|f| f.contains("scaling_4")));
        let mut nan = base.clone();
        nan.scaling_4 = f64::NAN;
        assert!(!regressions(&nan, &base).is_empty());
    }

    #[test]
    fn gate_trips_on_tail_blowup_same_cores_only() {
        let base = report(4.0, 1000.0, 1800.0, 3200.0, 9.5);
        let mut slow = base.clone();
        slow.overload_p99_sojourn_ms = 100.0;
        assert!(regressions(&slow, &base)
            .iter()
            .any(|f| f.contains("overload p99")));
        let mut other_cores = slow.clone();
        other_cores.cores = 8.0;
        assert!(!regressions(&other_cores, &base)
            .iter()
            .any(|f| f.contains("overload p99")));
    }
}
