//! The shard worker: owns one [`ServeEngine`], drains its bounded
//! ingress queue, and runs every engine call under `catch_unwind` so
//! a poisoned input cannot take the thread (and 1/N of all sessions)
//! down with it. Exits — normal or abnormal — are reported to the
//! supervisor as [`ShardEvent`]s.

use crate::fabric::{
    FabricPrediction, Inner, OutBatch, SessionKey, ShardCmd, ShardStats, ShardThrottle,
};
use crate::metrics::ShardInstruments;
use crate::supervisor::{ExitCause, ShardEvent};
use m2ai_core::serve::{ServeEngine, ServePrediction, SessionCheckpoint, SessionId};
use m2ai_obs::trace::{self, SpanStatus, TraceContext};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Commands drained per worker loop iteration before a tick gets a
/// chance to run — bounds ingress-vs-tick starvation both ways.
const CMD_BUDGET: usize = 64;

/// Everything a (re)spawned worker needs beyond the shared [`Inner`].
pub(crate) struct WorkerSpawn {
    pub shard: usize,
    /// Incarnation number, stamped on every output batch.
    pub epoch: u64,
    /// The ingress receiver — the original queue on first spawn, the
    /// inherited queue after a crash restart, or a fresh one after a
    /// stall abandonment.
    pub rx: Receiver<ShardCmd>,
    /// Sessions to resurrect before serving: `(key, checkpoint)`.
    /// `None` means no checkpoint existed — the session restarts with
    /// fresh stream context.
    pub restores: Vec<(u64, Option<SessionCheckpoint>)>,
    /// Restarting after an engine panic: tick one event at a time for
    /// a while so a recurring poison input is attributed exactly.
    pub probation: bool,
    /// Set by the supervisor when this incarnation has been abandoned
    /// (stall path) and must exit without touching shared state.
    pub retired: Arc<AtomicBool>,
    /// When the shard went down, for the recovery-latency histogram
    /// (`None` on first spawn).
    pub down_since: Option<Instant>,
}

/// Spawns a shard worker thread. Session restores run before the
/// first command is drained, so per-session FIFO order is preserved
/// across a restart: queued events land in an engine that has already
/// resumed from checkpoint.
pub(crate) fn spawn_worker(inner: Arc<Inner>, events: Sender<ShardEvent>, spawn: WorkerSpawn) {
    let name = format!("m2ai-shard-{}", spawn.shard);
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            let shard = spawn.shard;
            // Spans recorded on this thread (engine infer/emit spans)
            // carry the shard attribution and land in the shard's
            // flight-recorder ring.
            trace::set_thread_shard(Some(shard));
            let mut engine = inner.new_engine();
            let mut ids = HashMap::new();
            let mut keys = HashMap::new();
            let mut stats = ShardStats {
                shard,
                ..ShardStats::default()
            };
            let mut evict: Vec<u64> = Vec::new();
            for (key, ckpt) in spawn.restores {
                let admitted = match ckpt {
                    Some(c) => engine
                        .restore_session(c)
                        .inspect(|_| stats.restored += 1)
                        .or_else(|_| engine.open_session()),
                    None => engine.open_session(),
                };
                match admitted {
                    Ok(id) => {
                        ids.insert(key, id);
                        keys.insert(id, key);
                    }
                    Err(_) => evict.push(key),
                }
            }
            if !evict.is_empty() {
                // Routing admission reserves engine capacity, so this
                // is unreachable in practice — degrade gracefully
                // rather than panicking the fresh worker.
                let mut c = inner.lock_control();
                for key in evict {
                    if c.entries.remove(&key).is_some() {
                        c.table.release(key);
                        inner.shards[shard].ins.sessions.add(-1);
                        inner.ground.evicted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            if let Some(t0) = spawn.down_since {
                inner
                    .glob
                    .recovery_seconds
                    .observe(t0.elapsed().as_secs_f64());
            }
            let slot = &inner.shards[shard];
            let throttle = Arc::clone(&slot.throttle);
            let ack = Arc::clone(&slot.ack);
            let heartbeat = Arc::clone(&slot.heartbeat);
            let ins = slot.ins.clone();
            slot.down.store(false, Ordering::SeqCst);
            let worker = Worker {
                shard,
                epoch: spawn.epoch,
                engine,
                rx: spawn.rx,
                events,
                out: inner.out_tx.clone(),
                throttle,
                ack,
                heartbeat,
                retired: spawn.retired,
                ins,
                ids,
                keys,
                stats,
                probation_left: if spawn.probation {
                    inner.cfg.supervision.probation_ticks
                } else {
                    0
                },
                inner: Arc::clone(&inner),
            };
            worker.run();
        })
        .expect("spawn shard worker");
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum TickOutcome {
    /// Tick ran (possibly emitting predictions).
    Ok,
    /// Tick panicked but was attributed under probation; the worker
    /// keeps running.
    Handled,
    /// Tick panicked outside probation; the worker must exit and let
    /// the supervisor restart it.
    Fatal,
}

/// One shard's worker: owns the engine, its ingress receiver and the
/// key↔slot maps.
struct Worker {
    shard: usize,
    epoch: u64,
    engine: ServeEngine,
    rx: Receiver<ShardCmd>,
    events: Sender<ShardEvent>,
    out: Sender<OutBatch>,
    throttle: Arc<AtomicU8>,
    ack: Arc<AtomicU8>,
    heartbeat: Arc<AtomicU64>,
    retired: Arc<AtomicBool>,
    ins: ShardInstruments,
    ids: HashMap<u64, SessionId>,
    keys: HashMap<SessionId, u64>,
    stats: ShardStats,
    /// Remaining single-event probation ticks after a panic restart.
    probation_left: u32,
    inner: Arc<Inner>,
}

impl Worker {
    fn run(mut self) {
        loop {
            if self.inner.closing.load(Ordering::SeqCst) {
                return self.finish(ExitCause::Shutdown);
            }
            if self.retired.load(Ordering::SeqCst) {
                return self.finish(ExitCause::Retired);
            }
            let throttle = ShardThrottle::from_u8(self.throttle.load(Ordering::SeqCst));
            self.ack.store(throttle as u8, Ordering::SeqCst);
            if throttle == ShardThrottle::Stall {
                // Simulated wedge: acknowledged, then neither
                // heartbeats nor consumes. Only `closing` or the
                // supervisor's retire flag gets us out.
                std::thread::sleep(Duration::from_micros(200));
                continue;
            }
            self.heartbeat.fetch_add(1, Ordering::Relaxed);
            self.ins.heartbeats.inc();
            // Drain this thread's span buffer once per loop so sampled
            // spans reach the collector promptly (no-op when empty).
            trace::flush_thread_spans();
            if throttle == ShardThrottle::Freeze {
                std::thread::sleep(Duration::from_micros(100));
                continue;
            }
            let mut worked = false;
            for _ in 0..CMD_BUDGET {
                match self.rx.try_recv() {
                    Ok(cmd) => {
                        worked = true;
                        if let Some(cause) = self.apply(cmd) {
                            return self.finish(cause);
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return self.finish(ExitCause::Shutdown),
                }
            }
            if throttle != ShardThrottle::HoldTicks && self.engine.pending() > 0 {
                match self.guarded_tick() {
                    TickOutcome::Fatal => return self.finish(ExitCause::Panicked),
                    TickOutcome::Ok | TickOutcome::Handled => {}
                }
                worked = true;
            }
            if !worked {
                // Idle: block briefly so an idle shard costs ~nothing
                // but still re-reads its throttle regularly.
                match self.rx.recv_timeout(Duration::from_millis(1)) {
                    Ok(cmd) => {
                        if let Some(cause) = self.apply(cmd) {
                            return self.finish(cause);
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => return self.finish(ExitCause::Shutdown),
                }
            }
        }
    }

    /// Applies one command; `Some(cause)` means the worker must exit.
    fn apply(&mut self, cmd: ShardCmd) -> Option<ExitCause> {
        match cmd {
            ShardCmd::Open { key, reply } => {
                // The key may already be resident if this worker
                // restored it from the control table before the queued
                // Open was drained; the open still counts (it is the
                // one-to-one record of a successful `open_session`).
                if self.ids.contains_key(&key) {
                    self.stats.opened += 1;
                    let _ = reply.send(true);
                } else {
                    match self.engine.open_session() {
                        Ok(id) => {
                            self.ids.insert(key, id);
                            self.keys.insert(id, key);
                            self.stats.opened += 1;
                            let _ = reply.send(true);
                        }
                        Err(_) => {
                            let _ = reply.send(false);
                        }
                    }
                }
            }
            ShardCmd::Restore { key, ckpt, reply } => {
                if self.ids.contains_key(&key) {
                    let _ = reply.send(true);
                    return None;
                }
                let admitted = match ckpt {
                    Some(c) => self
                        .engine
                        .restore_session(*c)
                        .inspect(|_| self.stats.restored += 1)
                        .or_else(|_| self.engine.open_session()),
                    None => self.engine.open_session(),
                };
                match admitted {
                    Ok(id) => {
                        self.ids.insert(key, id);
                        self.keys.insert(id, key);
                        let _ = reply.send(true);
                    }
                    Err(_) => {
                        let _ = reply.send(false);
                    }
                }
            }
            ShardCmd::Close { key } => {
                if let Some(id) = self.ids.remove(&key) {
                    self.harvest_engine_shed(key, id);
                    self.keys.remove(&id);
                    let _ = self.engine.close_session(id);
                    self.stats.closed += 1;
                }
            }
            ShardCmd::Frame {
                key,
                time_s,
                frame,
                health,
                ctx,
                enqueued_us,
            } => {
                self.note_drained();
                let ictx = self.finish_ingress(ctx, enqueued_us, key);
                if let Some(&id) = self.ids.get(&key) {
                    let engine = &mut self.engine;
                    match catch_unwind(AssertUnwindSafe(|| {
                        engine.push_frame_traced(id, time_s, frame, health, ictx)
                    })) {
                        Ok(Ok(report)) => self.stats.engine_shed += report.shed as u64,
                        Ok(Err(_)) => {}
                        Err(_) => self.note_poison(Some(key)),
                    }
                }
            }
            ShardCmd::Readings {
                key,
                readings,
                ctx,
                enqueued_us,
            } => {
                self.note_drained();
                let ictx = self.finish_ingress(ctx, enqueued_us, key);
                if let Some(&id) = self.ids.get(&key) {
                    let engine = &mut self.engine;
                    match catch_unwind(AssertUnwindSafe(|| engine.push_traced(id, &readings, ictx)))
                    {
                        Ok(Ok(report)) => self.stats.engine_shed += report.shed as u64,
                        Ok(Err(_)) => {}
                        Err(_) => self.note_poison(Some(key)),
                    }
                }
            }
            ShardCmd::Checkpoint { reply } => {
                let snaps: Vec<(u64, SessionCheckpoint)> = self
                    .engine
                    .export_sessions()
                    .into_iter()
                    .filter_map(|(id, ck)| self.keys.get(&id).map(|&k| (k, ck)))
                    .collect();
                let _ = reply.send(snaps);
            }
            ShardCmd::Flush { reply } => {
                while self.engine.pending() > 0 {
                    // A long drain must not read as a stall.
                    self.heartbeat.fetch_add(1, Ordering::Relaxed);
                    match self.guarded_tick() {
                        TickOutcome::Fatal => return Some(ExitCause::Panicked),
                        TickOutcome::Ok | TickOutcome::Handled => {}
                    }
                }
                let _ = reply.send(());
            }
            ShardCmd::Die => {
                // Chaos-injected kill: leave a postmortem artifact
                // before the supervisor sees the abnormal exit.
                trace::flush_thread_spans();
                let _ = trace::flightrec_dump(self.shard, "kill");
                return Some(ExitCause::Killed);
            }
        }
        None
    }

    fn note_drained(&mut self) {
        self.ins.ingress_depth.add(-1);
        self.inner.shards[self.shard]
            .depth
            .fetch_sub(1, Ordering::Relaxed);
        self.stats.ingress_drained += 1;
    }

    /// Closes the queue-wait leg of a sampled data event: records an
    /// "ingress" span from `enqueued_us` (stamped at the fabric edge)
    /// to now, observes the wait in the shard's ingress-wait histogram,
    /// and returns the span's context so the engine's
    /// extract/infer/emit spans parent under it. Unsampled events pass
    /// straight through as [`TraceContext::NONE`].
    fn finish_ingress(&self, ctx: TraceContext, enqueued_us: u64, key: u64) -> TraceContext {
        if !ctx.is_sampled() {
            return ctx;
        }
        let now = trace::clock_us();
        let mut sp = ctx.child_at("ingress", enqueued_us);
        sp.set_session(key);
        sp.set_shard(self.shard);
        let out = sp.ctx();
        sp.end_at(now, SpanStatus::Ok);
        let wait_s = now.saturating_sub(enqueued_us) as f64 * 1e-6;
        self.ins.ingress_wait_seconds.observe(wait_s);
        out
    }

    /// One engine tick under `catch_unwind`. Under probation the tick
    /// is capped at a single event, with the culprit session computed
    /// beforehand ([`ServeEngine::next_ready`]) so a panic is
    /// attributed *exactly*; probation changes scheduling, never
    /// values (see the determinism contract).
    fn guarded_tick(&mut self) -> TickOutcome {
        if self.probation_left > 0 {
            let suspect = self
                .engine
                .next_ready()
                .and_then(|id| self.keys.get(&id).copied());
            let span = self.ins.tick_seconds.time();
            let engine = &mut self.engine;
            let result = catch_unwind(AssertUnwindSafe(|| engine.tick_limited(1)));
            span.end();
            match result {
                Ok(preds) => {
                    self.probation_left -= 1;
                    self.emit(preds);
                    TickOutcome::Ok
                }
                Err(_) => {
                    trace::flush_thread_spans();
                    let _ = trace::flightrec_dump(self.shard, "panic");
                    self.note_poison(suspect);
                    TickOutcome::Handled
                }
            }
        } else {
            let span = self.ins.tick_seconds.time();
            let engine = &mut self.engine;
            let result = catch_unwind(AssertUnwindSafe(|| engine.tick()));
            span.end();
            match result {
                Ok(preds) => {
                    self.emit(preds);
                    TickOutcome::Ok
                }
                Err(_) => {
                    // A full batch spans sessions, so the culprit is
                    // ambiguous — restart into probation and let the
                    // single-event ticks attribute it.
                    trace::flush_thread_spans();
                    let _ = trace::flightrec_dump(self.shard, "panic");
                    self.stats.poison_events += 1;
                    TickOutcome::Fatal
                }
            }
        }
    }

    /// Records an attributed engine panic against `key`; at the
    /// configured threshold the session is quarantined: ejected from
    /// the engine, the routing table and the checkpoint store, and its
    /// key permanently refuses data.
    fn note_poison(&mut self, suspect: Option<u64>) {
        self.stats.poison_events += 1;
        let Some(key) = suspect else { return };
        let threshold = self.inner.cfg.supervision.poison_threshold.max(1);
        let mut entry_existed = false;
        let tripped = {
            let mut c = self.inner.lock_control();
            let count = {
                let n = c.poison_counts.entry(key).or_insert(0);
                *n += 1;
                *n
            };
            if count < threshold || c.quarantined.contains(&key) {
                None
            } else {
                c.quarantined.insert(key);
                if c.entries.remove(&key).is_some() {
                    c.table.release(key);
                    entry_existed = true;
                }
                Some(count)
            }
        };
        let Some(count) = tripped else { return };
        if let Some(id) = self.ids.remove(&key) {
            self.harvest_engine_shed(key, id);
            self.keys.remove(&id);
            let _ = self.engine.close_session(id);
        }
        if entry_existed {
            self.ins.sessions.add(-1);
        }
        self.inner.lock_checkpoints().remove(&key);
        self.stats.quarantined += 1;
        self.inner
            .ground
            .quarantined
            .fetch_add(1, Ordering::Relaxed);
        self.inner.glob.quarantined.inc();
        trace::flush_thread_spans();
        let _ = trace::flightrec_dump(self.shard, "quarantine");
        eprintln!(
            "m2ai-fabric: shard {}: quarantined session {key} after {count} engine panics",
            self.shard
        );
    }

    fn emit(&mut self, preds: Vec<ServePrediction>) {
        if preds.is_empty() {
            return;
        }
        self.stats.predictions += preds.len() as u64;
        self.ins.predictions.add(preds.len() as u64);
        let batch: Vec<FabricPrediction> = preds
            .into_iter()
            .map(|p| FabricPrediction {
                session: SessionKey(self.keys[&p.session]),
                shard: self.shard,
                prediction: p,
            })
            .collect();
        // The collector may already be gone during teardown; the
        // predictions are simply dropped then.
        let _ = self.out.send((self.shard, self.epoch, batch));
    }

    /// Records a closing session's engine-side shed count into the
    /// shard stats (the engine forgets the count when the slot frees).
    fn harvest_engine_shed(&mut self, key: u64, id: SessionId) {
        if let Ok(shed) = self.engine.session_shed(id) {
            if shed > 0 {
                self.stats.session_engine_shed.push((key, shed as u64));
            }
        }
    }

    fn finish(mut self, cause: ExitCause) {
        // Whatever the exit cause, sampled spans buffered on this
        // thread must not die with it.
        trace::flush_thread_spans();
        let open: Vec<(u64, SessionId)> = self.ids.drain().collect();
        for (key, id) in open {
            self.harvest_engine_shed(key, id);
        }
        self.stats.suppressed = self.engine.suppressed() as u64;
        self.stats.engine_shed = self.engine.shed() as u64;
        let Worker {
            rx,
            events,
            stats,
            shard,
            epoch,
            ..
        } = self;
        // A retired (abandoned) incarnation's queue was already
        // replaced — dropping it here discards only already-counted
        // lost in-flight events. Every other exit hands the queue back
        // so a restarted worker inherits the un-drained commands.
        let rx = match cause {
            ExitCause::Retired => None,
            _ => Some(rx),
        };
        let _ = events.send(ShardEvent::Exited {
            shard,
            epoch,
            cause,
            stats,
            rx,
        });
    }
}
