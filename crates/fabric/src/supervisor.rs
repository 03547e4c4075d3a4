//! The fabric supervisor: watches shard-worker heartbeats, restarts
//! crashed or stalled workers with exponential backoff under a
//! restart budget, sweeps periodic session checkpoints, and — when a
//! shard exhausts its budget — migrates its sessions to ring
//! successors via the routing table.
//!
//! One supervisor thread per fabric. Workers report every exit as a
//! [`ShardEvent`]; the supervisor is the only component that spawns
//! replacement workers, so all restart bookkeeping is single-threaded.

use crate::fabric::{FabricStats, Inner, ShardCmd, ShardStats, ShardThrottle};
use crate::worker::{spawn_worker, WorkerSpawn};
use m2ai_core::serve::SessionCheckpoint;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Self-healing knobs for the fabric (see the crate docs'
/// "Self-healing" section).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisionConfig {
    /// Master switch. Disabled, the fabric behaves like the
    /// pre-supervision design: a crashed or stalled shard stays down
    /// (statistics are still collected at shutdown).
    pub enabled: bool,
    /// Supervisor scan cadence: how often heartbeats, due restarts
    /// and the checkpoint timer are checked.
    pub heartbeat_interval: Duration,
    /// A live worker whose heartbeat counter does not advance for
    /// this long is declared stalled: its queue is abandoned (lost
    /// in-flight events are counted), its output fenced off by epoch,
    /// and a replacement scheduled.
    pub stall_deadline: Duration,
    /// Cadence of the periodic checkpoint sweep. `Duration::ZERO`
    /// disables periodic sweeps ([`crate::ServeFabric::checkpoint_now`]
    /// still works).
    pub checkpoint_interval: Duration,
    /// Delay before the first restart of a shard; doubles per restart
    /// up to [`SupervisionConfig::backoff_max`].
    pub restart_backoff: Duration,
    /// Upper bound on the exponential restart backoff.
    pub backoff_max: Duration,
    /// Restarts allowed per shard over the fabric's lifetime; once
    /// exhausted the shard is declared dead and its sessions migrate
    /// to ring successors.
    pub restart_budget: u32,
    /// Attributed engine panics before a session is quarantined.
    pub poison_threshold: u32,
    /// Single-event probation ticks after a panic restart (exact
    /// poison attribution window).
    pub probation_ticks: u32,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        SupervisionConfig {
            enabled: true,
            heartbeat_interval: Duration::from_millis(5),
            stall_deadline: Duration::from_millis(1000),
            checkpoint_interval: Duration::from_millis(250),
            restart_backoff: Duration::from_millis(10),
            backoff_max: Duration::from_secs(1),
            restart_budget: 5,
            poison_threshold: 3,
            probation_ticks: 64,
        }
    }
}

/// Why a shard worker exited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExitCause {
    /// Fabric shutdown or channel teardown — no restart.
    Shutdown,
    /// `ShardCmd::Die` test hook — restart as a crash.
    Killed,
    /// The engine panicked outside probation — restart into probation.
    Panicked,
    /// The supervisor abandoned this incarnation after a missed
    /// heartbeat deadline; a replacement is already scheduled.
    Retired,
}

/// Worker-to-supervisor notifications.
pub(crate) enum ShardEvent {
    Exited {
        shard: usize,
        epoch: u64,
        cause: ExitCause,
        stats: ShardStats,
        /// The worker's ingress receiver, handed back so a restarted
        /// worker inherits the un-drained queue (absent for retired
        /// incarnations whose queue was already replaced).
        rx: Option<Receiver<ShardCmd>>,
    },
}

struct PendingRestart {
    at: Instant,
    rx: Option<Receiver<ShardCmd>>,
    probation: bool,
}

/// Supervisor-side view of one shard.
struct ShardSup {
    /// A live worker incarnation is believed to be running.
    up: bool,
    /// Permanently failed (budget exhausted, sessions migrated away).
    dead: bool,
    restarts_left: u32,
    backoff: Duration,
    pending: Option<PendingRestart>,
    last_beat: u64,
    beat_seen_at: Instant,
    /// When the shard most recently went down (for recovery latency).
    down_since: Option<Instant>,
    /// The current incarnation's retire flag.
    retired: Arc<AtomicBool>,
    /// Statistics merged across every incarnation.
    stats: ShardStats,
}

pub(crate) struct Supervisor {
    inner: Arc<Inner>,
    events_tx: Sender<ShardEvent>,
    events_rx: Receiver<ShardEvent>,
    states: Vec<ShardSup>,
    last_checkpoint: Instant,
    close_deadline: Option<Instant>,
}

impl Supervisor {
    pub(crate) fn new(
        inner: Arc<Inner>,
        events_tx: Sender<ShardEvent>,
        events_rx: Receiver<ShardEvent>,
        retired_flags: Vec<Arc<AtomicBool>>,
    ) -> Supervisor {
        let now = Instant::now();
        let sup = &inner.cfg.supervision;
        let states = retired_flags
            .into_iter()
            .enumerate()
            .map(|(shard, retired)| ShardSup {
                up: true,
                dead: false,
                restarts_left: sup.restart_budget,
                backoff: sup.restart_backoff,
                pending: None,
                last_beat: 0,
                beat_seen_at: now,
                down_since: None,
                retired,
                stats: ShardStats {
                    shard,
                    ..ShardStats::default()
                },
            })
            .collect();
        Supervisor {
            inner,
            events_tx,
            events_rx,
            states,
            last_checkpoint: now,
            close_deadline: None,
        }
    }

    pub(crate) fn run(mut self) -> FabricStats {
        let scan = self
            .inner
            .cfg
            .supervision
            .heartbeat_interval
            .max(Duration::from_millis(1));
        loop {
            match self.events_rx.recv_timeout(scan) {
                Ok(ev) => self.on_event(ev),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            while let Ok(ev) = self.events_rx.try_recv() {
                self.on_event(ev);
            }
            if self.inner.closing.load(Ordering::SeqCst) {
                if self.ready_to_close() {
                    break;
                }
                continue;
            }
            if self.inner.cfg.supervision.enabled {
                let now = Instant::now();
                self.scan_stalls(now);
                self.run_due_restarts(now);
                self.maybe_checkpoint(now);
            }
        }
        self.final_stats()
    }

    /// During shutdown: wait (bounded) for every live incarnation to
    /// report its exit so the final statistics are complete.
    fn ready_to_close(&mut self) -> bool {
        let deadline = *self
            .close_deadline
            .get_or_insert_with(|| Instant::now() + Duration::from_secs(10));
        self.states.iter().all(|s| !s.up) || Instant::now() >= deadline
    }

    fn on_event(&mut self, ev: ShardEvent) {
        let ShardEvent::Exited {
            shard,
            epoch,
            cause,
            stats,
            rx,
        } = ev;
        merge_stats(&mut self.states[shard].stats, stats);
        let slot = &self.inner.shards[shard];
        if epoch != slot.epoch.load(Ordering::SeqCst) {
            // An abandoned incarnation finally exited; its replacement
            // is already managed, so only its stats matter.
            return;
        }
        slot.down.store(true, Ordering::SeqCst);
        {
            let st = &mut self.states[shard];
            st.up = false;
            if st.down_since.is_none() {
                st.down_since = Some(Instant::now());
            }
        }
        match cause {
            ExitCause::Shutdown | ExitCause::Retired => {}
            ExitCause::Killed | ExitCause::Panicked => {
                if !self.inner.closing.load(Ordering::SeqCst) && self.inner.cfg.supervision.enabled
                {
                    self.schedule_restart(shard, rx, cause == ExitCause::Panicked);
                }
            }
        }
    }

    fn schedule_restart(&mut self, shard: usize, rx: Option<Receiver<ShardCmd>>, probation: bool) {
        if self.states[shard].dead || self.states[shard].pending.is_some() {
            return;
        }
        if self.states[shard].restarts_left == 0 {
            self.declare_dead(shard);
            return;
        }
        let st = &mut self.states[shard];
        st.restarts_left -= 1;
        let delay = st.backoff;
        st.backoff = (st.backoff * 2).min(self.inner.cfg.supervision.backoff_max);
        st.pending = Some(PendingRestart {
            at: Instant::now() + delay,
            rx,
            probation,
        });
    }

    fn scan_stalls(&mut self, now: Instant) {
        let deadline = self.inner.cfg.supervision.stall_deadline;
        for shard in 0..self.states.len() {
            if !self.states[shard].up || self.states[shard].dead {
                continue;
            }
            let beat = self.inner.shards[shard].heartbeat.load(Ordering::Relaxed);
            let st = &mut self.states[shard];
            if beat != st.last_beat {
                st.last_beat = beat;
                st.beat_seen_at = now;
                continue;
            }
            if now.duration_since(st.beat_seen_at) < deadline {
                continue;
            }
            self.abandon_stalled(shard, now);
        }
    }

    /// Declares a live worker stalled: flags it retired, resets its
    /// throttle, swaps in a fresh ingress queue (counting the
    /// abandoned in-flight events as lost), fences its future output
    /// behind the epoch floor, and schedules a replacement.
    fn abandon_stalled(&mut self, shard: usize, now: Instant) {
        self.states[shard].retired.store(true, Ordering::SeqCst);
        let slot = &self.inner.shards[shard];
        slot.throttle
            .store(ShardThrottle::Run as u8, Ordering::SeqCst);
        let lost = slot.depth.swap(0, Ordering::SeqCst);
        if lost > 0 {
            slot.ins.ingress_depth.add(-lost);
            self.inner
                .ground
                .lost_inflight
                .fetch_add(lost as u64, Ordering::Relaxed);
        }
        let (tx, rx) = sync_channel(self.inner.cfg.ingress_capacity);
        slot.swap_sender(tx);
        let epoch = slot.epoch.load(Ordering::SeqCst);
        slot.min_live_epoch.store(epoch + 1, Ordering::SeqCst);
        slot.down.store(true, Ordering::SeqCst);
        self.inner.ground.stalls.fetch_add(1, Ordering::Relaxed);
        // The wedged incarnation will never flush its own recorder;
        // dump what its spans already fed into the shard ring. The
        // swapped-away in-flight events are unrecoverable (counted in
        // `lost_inflight` above) — `SpanStatus::Lost` stays reserved.
        let _ = m2ai_obs::trace::flightrec_dump(shard, "stall");
        let st = &mut self.states[shard];
        st.up = false;
        st.down_since = Some(now);
        self.schedule_restart(shard, Some(rx), false);
    }

    fn run_due_restarts(&mut self, now: Instant) {
        for shard in 0..self.states.len() {
            let due = matches!(&self.states[shard].pending, Some(p) if p.at <= now);
            if !due {
                continue;
            }
            let p = self.states[shard]
                .pending
                .take()
                .expect("checked by `due` above");
            let slot = &self.inner.shards[shard];
            let epoch = slot.epoch.fetch_add(1, Ordering::SeqCst) + 1;
            let rx = match p.rx {
                Some(rx) => rx,
                None => {
                    let (tx, rx) = sync_channel(self.inner.cfg.ingress_capacity);
                    slot.swap_sender(tx);
                    rx
                }
            };
            // Resurrect every session the control plane still assigns
            // here, from its latest checkpoint when one exists.
            let restores: Vec<(u64, Option<SessionCheckpoint>)> = {
                let c = self.inner.lock_control();
                let ckpts = self.inner.lock_checkpoints();
                c.entries
                    .iter()
                    .filter(|(_, e)| e.shard == shard)
                    .map(|(k, _)| (*k, ckpts.get(k).cloned()))
                    .collect()
            };
            let retired = Arc::new(AtomicBool::new(false));
            self.states[shard].retired = Arc::clone(&retired);
            let down_since = self.states[shard].down_since.take();
            slot.ins.restarts.inc();
            self.inner.ground.restarts.fetch_add(1, Ordering::Relaxed);
            // Marker span so a trace timeline shows exactly when the
            // shard's replacement worker was launched (no-op when
            // sampling is off).
            {
                let ctx = m2ai_obs::trace::begin_trace();
                if ctx.is_sampled() {
                    let mut sp = ctx.child("shard_restart");
                    sp.set_shard(shard);
                    sp.end();
                }
            }
            spawn_worker(
                Arc::clone(&self.inner),
                self.events_tx.clone(),
                WorkerSpawn {
                    shard,
                    epoch,
                    rx,
                    restores,
                    probation: p.probation,
                    retired,
                    down_since,
                },
            );
            let st = &mut self.states[shard];
            st.up = true;
            st.last_beat = self.inner.shards[shard].heartbeat.load(Ordering::Relaxed);
            st.beat_seen_at = now;
        }
    }

    /// Restart budget exhausted: retire the shard from the ring and
    /// migrate its sessions to ring successors, restoring each from
    /// its last checkpoint on the target shard. Sessions that no shard
    /// can take are evicted (counted).
    fn declare_dead(&mut self, shard: usize) {
        self.states[shard].dead = true;
        let slot = &self.inner.shards[shard];
        slot.dead.store(true, Ordering::SeqCst);
        slot.down.store(true, Ordering::SeqCst);
        let lost = slot.depth.swap(0, Ordering::SeqCst);
        if lost > 0 {
            slot.ins.ingress_depth.add(-lost);
            self.inner
                .ground
                .lost_inflight
                .fetch_add(lost as u64, Ordering::Relaxed);
        }
        let moved: Vec<(u64, usize, bool)> = {
            let mut c = self.inner.lock_control();
            c.table.retire_shard(shard);
            let keys: Vec<u64> = c
                .entries
                .iter()
                .filter(|(_, e)| e.shard == shard)
                .map(|(k, _)| *k)
                .collect();
            let mut moved = Vec::new();
            for key in keys {
                c.table.release(key);
                match c.table.assign(key) {
                    Ok(p) => {
                        if let Some(e) = c.entries.get_mut(&key) {
                            e.shard = p.shard;
                        }
                        moved.push((key, p.shard, p.spilled));
                    }
                    Err(_) => {
                        c.entries.remove(&key);
                        slot.ins.sessions.add(-1);
                        self.inner.ground.evicted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            moved
        };
        for (key, target, spilled) in moved {
            slot.ins.sessions.add(-1);
            self.inner.shards[target].ins.sessions.add(1);
            if spilled {
                self.inner.ground.spills.fetch_add(1, Ordering::Relaxed);
                self.inner.glob.spills.inc();
            }
            let ckpt = self
                .inner
                .lock_checkpoints()
                .get(&key)
                .cloned()
                .map(Box::new);
            let (tx, rx) = sync_channel(1);
            let delivered = self
                .inner
                .send_with_deadline(
                    target,
                    ShardCmd::Restore {
                        key,
                        ckpt,
                        reply: tx,
                    },
                    Duration::from_millis(500),
                )
                .is_ok()
                && matches!(rx.recv_timeout(Duration::from_secs(2)), Ok(true));
            if !delivered {
                let mut c = self.inner.lock_control();
                if c.entries.remove(&key).is_some() {
                    c.table.release(key);
                    drop(c);
                    self.inner.shards[target].ins.sessions.add(-1);
                    self.inner.ground.evicted.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    fn maybe_checkpoint(&mut self, now: Instant) {
        let interval = self.inner.cfg.supervision.checkpoint_interval;
        if interval.is_zero() || now.duration_since(self.last_checkpoint) < interval {
            return;
        }
        self.last_checkpoint = now;
        // Best-effort: a shard that cannot reply in time keeps its
        // previous checkpoints.
        let _ = self.inner.checkpoint_all(Duration::from_millis(250));
    }

    fn final_stats(self) -> FabricStats {
        let Supervisor { inner, states, .. } = self;
        let g = &inner.ground;
        FabricStats {
            shards: states.into_iter().map(|s| s.stats).collect(),
            ingress_shed: g.ingress_shed.load(Ordering::Relaxed),
            spills: g.spills.load(Ordering::Relaxed),
            rejections: g.rejections.load(Ordering::Relaxed),
            restarts: g.restarts.load(Ordering::Relaxed),
            stalls: g.stalls.load(Ordering::Relaxed),
            quarantined: g.quarantined.load(Ordering::Relaxed),
            evicted: g.evicted.load(Ordering::Relaxed),
            lost_inflight: g.lost_inflight.load(Ordering::Relaxed),
        }
    }
}

fn merge_stats(acc: &mut ShardStats, s: ShardStats) {
    acc.opened += s.opened;
    acc.closed += s.closed;
    acc.predictions += s.predictions;
    acc.suppressed += s.suppressed;
    acc.engine_shed += s.engine_shed;
    acc.ingress_drained += s.ingress_drained;
    acc.restored += s.restored;
    acc.quarantined += s.quarantined;
    acc.poison_events += s.poison_events;
    acc.session_engine_shed.extend(s.session_engine_shed);
}
