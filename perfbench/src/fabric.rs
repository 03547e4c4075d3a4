//! The fabric layer, measured inside `live`'s traced run: the same
//! streams through a `ServeFabric` with one shard per core, closed loop
//! (`push_with_deadline` + `poll`). It is the only part of the
//! benchmark that routes sessions and hands reads across threads.
//!
//! It is not a workload of its own: with the shard workers and the
//! driver sharing the cores, its open-loop latency varied by more than
//! any usable bound from run to run.

use crate::driver::{self, Completion, Target, WindowTally};
use crate::inputs::{self, SESSIONS};
use crate::live::{self, ServeInputs, SessionLedger};
use crate::prom::Snapshot;
use crate::report::Report;
use crate::stats::Tail;
use crate::tracer::Tracer;
use crate::train::nproc;
use m2ai_core::serve::ServeConfig;
use m2ai_rfsim::reading::TagReading;
use m2ai_serve_fabric::{FabricConfig, ServeFabric, SessionKey};
use std::collections::HashMap;
use std::time::Duration;

/// How long one push may retry against a full shard ingress before it
/// counts as a failure.
const PUSH_DEADLINE: Duration = Duration::from_secs(5);

struct FabricTarget<'a> {
    inp: &'a ServeInputs,
    fabric: ServeFabric,
    keys: Vec<SessionKey>,
    index: HashMap<u64, usize>,
    tracer: &'a mut Tracer,
    pushes_since_poll: usize,
    ledger: Vec<SessionLedger>,
    per_shard: Vec<u64>,
    bad_probs: u64,
    reads: u64,
}

impl FabricTarget<'_> {
    fn collect(
        &mut self,
        preds: Vec<m2ai_serve_fabric::FabricPrediction>,
        out: &mut Vec<Completion>,
    ) {
        for p in preds {
            let s = self.index[&p.session.raw()];
            if let Some(n) = self.per_shard.get_mut(p.shard) {
                *n += 1;
            }
            if !driver::probabilities_ok(&p.prediction.probabilities) {
                self.bad_probs += 1;
            }
            out.push(Completion {
                due_s: self.ledger[s].emitted(p.prediction.time_s),
                ok: true,
            });
        }
    }

    fn poll(&mut self, out: &mut Vec<Completion>) {
        self.pushes_since_poll = 0;
        let fabric = &self.fabric;
        let preds = self.tracer.call("ServeFabric::poll", || fabric.poll());
        self.collect(preds, out);
    }
}

impl Target for FabricTarget<'_> {
    fn offer(&mut self, i: usize, due_s: f64, out: &mut Vec<Completion>) {
        let (lap, s, k, _) = live::item(self.inp, i);
        let mut chunk = Vec::new();
        inputs::fill_round(&self.inp.rec, s, k, lap, &mut chunk);
        self.ledger[s].pushed(&chunk, due_s, self.inp.cond.config.frame_duration_s);
        self.reads += chunk.len() as u64;
        let (fabric, key, ledger) = (&self.fabric, self.keys[s], &mut self.ledger[s]);
        let delivered = self.tracer.call("ServeFabric::push_with_deadline", || {
            deliver(fabric, key, chunk, ledger)
        });
        if !delivered {
            out.push(Completion {
                due_s: f64::NAN,
                ok: false,
            });
        }
        self.pushes_since_poll += 1;
        if self.pushes_since_poll >= SESSIONS {
            self.poll(out);
        }
    }

    fn idle(&mut self, out: &mut Vec<Completion>) {
        self.poll(out);
    }

    fn finish(&mut self, out: &mut Vec<Completion>) {
        let preds = self.fabric.flush();
        self.collect(preds, out);
    }
}

/// Pushes one round's reads, retrying while the shard's ingress is
/// full. Only a push that never lands is a failure: the fabric counts
/// every retry as an ingress shed, and those are not failures.
fn deliver(
    fabric: &ServeFabric,
    key: SessionKey,
    reads: Vec<TagReading>,
    ledger: &mut SessionLedger,
) -> bool {
    let ok = fabric.push_with_deadline(key, reads, PUSH_DEADLINE).is_ok();
    if !ok {
        // The round's reads never reached the shard; they cannot be
        // tied to one window, so the push itself is the failure.
        ledger.tally.failed += 1;
    }
    ok
}

/// Replay laps through the fabric: one warm-up lap, then measured laps.
const LAPS: usize = 3;

/// Runs `live`'s streams through a fabric of one shard per core and
/// sets the `fabric.*` per-layer metrics and the fabric output checks.
pub fn probe(inp: &ServeInputs, tracer: &mut Tracer, r: &mut Report) {
    let shards = nproc();
    let cfg = FabricConfig {
        shards,
        serve: ServeConfig {
            max_sessions: SESSIONS,
            max_batch: SESSIONS,
            ..ServeConfig::default()
        },
        ..FabricConfig::default()
    };
    let fabric = ServeFabric::new(inp.model.clone(), inp.cond.builder.clone(), cfg);
    let keys: Vec<SessionKey> = (0..SESSIONS)
        .map(|_| fabric.open_session().expect("64 sessions fit the fabric"))
        .collect();
    let index = keys.iter().enumerate().map(|(i, k)| (k.raw(), i)).collect();
    let mut target = FabricTarget {
        inp,
        fabric,
        keys,
        index,
        tracer,
        pushes_since_poll: 0,
        ledger: vec![SessionLedger::default(); SESSIONS],
        per_shard: vec![0; shards],
        bad_probs: 0,
        reads: 0,
    };
    let lap_items = inp.sched.len();
    let warm_wall = driver::run_closed_loop(&mut target, 0..lap_items).wall_s;
    let before = Snapshot::take();
    let retries0 = target.fabric.ingress_shed();
    let span_mark = target.tracer.spans().len();
    let reads0 = target.reads;
    let wall = driver::run_closed_loop(&mut target, lap_items..LAPS * lap_items).wall_s;
    let delta = Snapshot::take().delta(&before);
    let retries = target.fabric.ingress_shed() - retries0;
    let spans = target.tracer.by_name(span_mark);
    let reads = target.reads - reads0;

    let FabricTarget {
        fabric,
        index,
        ledger,
        per_shard,
        bad_probs,
        ..
    } = target;
    let stats = fabric.shutdown();
    let mut tally: Vec<WindowTally> = ledger.iter().map(|l| l.tally).collect();
    for shard in &stats.shards {
        for (key, shed) in &shard.session_engine_shed {
            if let Some(&s) = index.get(key) {
                tally[s].failed += shed;
            }
        }
    }
    let suppressed: u64 = stats.shards.iter().map(|s| s.suppressed).sum();
    let conservation =
        driver::check_conservation(&tally, suppressed, ServeConfig::default().history_len);
    r.check(
        "fabric_conservation",
        conservation.is_ok(),
        conservation.err().unwrap_or_default(),
    );
    r.check(
        "fabric_probabilities",
        bad_probs == 0,
        format!("({bad_probs} predictions not finite or not summing to 1)"),
    );
    r.check(
        "fabric_no_restarts",
        stats.restarts == 0 && stats.lost_inflight == 0,
        format!(
            "({} restarts, {} in-flight events lost)",
            stats.restarts, stats.lost_inflight
        ),
    );
    let failed: u64 = tally.iter().map(|t| t.failed).sum();
    r.check(
        "fabric_no_failures",
        failed == 0,
        format!("({failed} windows lost; {retries} ingress retries are not failures)"),
    );
    r.note(format!(
        "fabric: {SESSIONS} sessions, {shards} shards, closed loop {} laps: {:.0} reads/s \
         (warm-up lap {:.0} reads/s)",
        LAPS - 1,
        reads as f64 / wall,
        inp.rec.reads_per_loop as f64 / warm_wall,
    ));

    let micros = |name: &str| {
        spans
            .get(name)
            .and_then(|s| Tail::of(&s.durations.iter().map(|d| d * 1e6).collect::<Vec<_>>()))
    };
    r.set(
        "fabric.push_us_p99",
        micros("ServeFabric::push_with_deadline").map_or(0.0, |t| t.tail),
    );
    r.set(
        "fabric.poll_us_p99",
        micros("ServeFabric::poll").map_or(0.0, |t| t.tail),
    );
    let wait = delta.hist("m2ai_fabric_ingress_wait_seconds", None);
    r.set_exported(
        "fabric.ingress_wait_ms_p50",
        wait.as_ref().map(|h| h.quantile(0.5) * 1e3),
    );
    r.set_exported(
        "fabric.ingress_wait_ms_p99",
        wait.as_ref().map(|h| h.quantile(0.99) * 1e3),
    );
    let mean = per_shard.iter().sum::<u64>() as f64 / per_shard.len() as f64;
    r.set(
        "fabric.shard_skew",
        per_shard.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0),
    );
    r.set("fabric.retries", retries as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2ai_core::calibration::PhaseCalibrator;
    use m2ai_core::frames::{FeatureMode, FrameBuilder, FrameLayout};
    use m2ai_core::network::{build_model, Architecture};
    use m2ai_serve_fabric::ShardThrottle;

    #[test]
    fn push_retries_are_not_failures() {
        let layout = FrameLayout::new(6, 4, FeatureMode::Joint);
        let builder = FrameBuilder::new(layout, PhaseCalibrator::disabled(6, 4), 0.5);
        let model = build_model(&layout, 12, Architecture::CnnLstm, 1);
        let cfg = FabricConfig {
            shards: 1,
            ingress_capacity: 1,
            ..FabricConfig::default()
        };
        let fabric = ServeFabric::new(model, builder, cfg);
        let key = fabric.open_session().expect("room for one session");
        // A frozen shard stops draining its one-slot ingress, so every
        // push after the first retries until the shard resumes.
        fabric.set_throttle(0, ShardThrottle::Freeze);
        let mut ledger = SessionLedger::default();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(30));
                fabric.set_throttle(0, ShardThrottle::Run);
            });
            for _ in 0..3 {
                assert!(deliver(&fabric, key, Vec::new(), &mut ledger));
            }
        });
        assert!(fabric.ingress_shed() > 0, "the frozen shard forced retries");
        assert_eq!(ledger.tally.failed, 0);
        fabric.shutdown();
    }
}
