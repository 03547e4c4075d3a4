//! The sharded serve fabric: N [`ServeEngine`] shards on dedicated
//! worker threads behind consistent-hash routing, supervised for
//! self-healing (see [`crate::supervisor`]).
//!
//! See the crate docs for the architecture and the determinism
//! contract; this module holds the shared state and the public
//! [`ServeFabric`] facade.

use crate::metrics::{fabric_instruments, shard_instruments, FabricInstruments, ShardInstruments};
use crate::router::{RouteError, RoutingTable};
use crate::supervisor::{ShardEvent, SupervisionConfig, Supervisor};
use crate::worker::{spawn_worker, WorkerSpawn};
use m2ai_core::frames::FrameBuilder;
use m2ai_core::online::HealthState;
use m2ai_core::serve::{ServeConfig, ServeEngine, ServePrediction, SessionCheckpoint};
use m2ai_nn::model::SequenceClassifier;
use m2ai_obs::trace::{self, SpanStatus, TraceContext};
use m2ai_rfsim::reading::TagReading;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError,
};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Commands a shard worker drains from its bounded ingress queue.
pub(crate) enum ShardCmd {
    /// Open an engine session for `key`; ack when the slot exists
    /// (`true`) or could not be created (`false`).
    Open { key: u64, reply: SyncSender<bool> },
    /// Close `key`'s engine session (pending events are discarded).
    Close { key: u64 },
    /// One pre-extracted frame for `key`. `ctx` is the trace context
    /// minted at the fabric edge ([`TraceContext::NONE`] when sampling
    /// is off) and `enqueued_us` the enqueue timestamp (0 when
    /// unsampled) so the worker can close the ingress-wait span.
    Frame {
        key: u64,
        time_s: f64,
        frame: Vec<f32>,
        health: HealthState,
        ctx: TraceContext,
        enqueued_us: u64,
    },
    /// A batch of raw tag readings for `key`; trace fields as on
    /// [`ShardCmd::Frame`].
    Readings {
        key: u64,
        readings: Vec<TagReading>,
        ctx: TraceContext,
        enqueued_us: u64,
    },
    /// Adopt a migrated session, resuming from `ckpt` when one exists
    /// (`None` restarts the session's stream context from scratch).
    Restore {
        key: u64,
        ckpt: Option<Box<SessionCheckpoint>>,
        reply: SyncSender<bool>,
    },
    /// Snapshot every resident session into checkpoints and reply with
    /// them (keyed by fabric session key).
    Checkpoint {
        reply: Sender<Vec<(u64, SessionCheckpoint)>>,
    },
    /// Tick until every pending queue is empty, then ack — the
    /// fabric-wide barrier underneath [`ServeFabric::flush`].
    Flush { reply: SyncSender<()> },
    /// Test hook: the worker exits as if it had crashed (the
    /// supervisor sees an abnormal exit and runs the restart path).
    Die,
}

/// Worker throttle states, used by tests and operational drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardThrottle {
    /// Normal operation: drain ingress, tick the engine.
    Run,
    /// Keep draining ingress into the engine, but do not tick — events
    /// pile up in the per-session queues (engine-side backpressure
    /// becomes deterministic).
    HoldTicks,
    /// Stop consuming the ingress entirely — the bounded queue fills
    /// and pushes shed at the fabric edge (ingress backpressure
    /// becomes deterministic). The worker keeps heartbeating, so the
    /// supervisor does not treat a frozen shard as stalled.
    Freeze,
    /// Test hook simulating a wedged worker: the worker acknowledges
    /// the throttle, then stops heartbeating and consuming entirely.
    /// The supervisor's missed-heartbeat deadline fires and replaces
    /// the worker (in-flight ingress events are counted as lost).
    Stall,
}

impl ShardThrottle {
    pub(crate) fn from_u8(v: u8) -> ShardThrottle {
        match v {
            1 => ShardThrottle::HoldTicks,
            2 => ShardThrottle::Freeze,
            3 => ShardThrottle::Stall,
            _ => ShardThrottle::Run,
        }
    }
}

/// Records an annotated "ingress" span termination (shed, shard-down,
/// quarantine refusal) on the caller's thread. A no-op when `ctx` is
/// unsampled, so the data plane stays bit-neutral with tracing off.
fn end_ingress_span(ctx: TraceContext, key: SessionKey, shard: Option<usize>, status: SpanStatus) {
    if !ctx.is_sampled() {
        return;
    }
    let mut sp = ctx.child("ingress");
    sp.set_session(key.0);
    if let Some(s) = shard {
        sp.set_shard(s);
    }
    sp.end_with(status);
}

/// Errors surfaced by the fabric's control and data planes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricError {
    /// Admission refused: every alive shard is at session capacity.
    FabricFull,
    /// The key does not name an open fabric session.
    UnknownSession,
    /// The session's shard worker has terminated permanently.
    ShardDown,
    /// A deadline elapsed before the operation completed.
    Timeout,
    /// The session was quarantined after repeatedly panicking the
    /// engine; its key no longer accepts data.
    Quarantined,
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::FabricFull => write!(f, "admission refused: every shard is full"),
            FabricError::UnknownSession => write!(f, "no such fabric session"),
            FabricError::ShardDown => write!(f, "shard worker terminated"),
            FabricError::Timeout => write!(f, "fabric operation deadline elapsed"),
            FabricError::Quarantined => {
                write!(f, "session quarantined after repeated engine panics")
            }
        }
    }
}

impl std::error::Error for FabricError {}

/// Outcome of a data-plane push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The event was queued on the session's shard.
    Enqueued,
    /// The shard's ingress queue was full; the event was dropped at
    /// the fabric edge and counted against the session.
    Shed,
}

/// Opaque fabric-wide session handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionKey(pub(crate) u64);

impl SessionKey {
    /// The raw routing key (stable for the session's lifetime).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A prediction emitted by some shard's engine, tagged with its fabric
/// session and shard.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricPrediction {
    /// Fabric-wide session handle the prediction belongs to.
    pub session: SessionKey,
    /// Shard index that served it.
    pub shard: usize,
    /// The engine's prediction (its `session` field is the *engine
    /// local* slot id, only unique within one shard).
    pub prediction: ServePrediction,
}

/// Fabric sizing knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricConfig {
    /// Number of engine shards (worker threads).
    pub shards: usize,
    /// Consistent-hash ring points per shard.
    pub vnodes: usize,
    /// Bound on each shard's ingress command queue; data pushed at a
    /// full queue is shed at the fabric edge.
    pub ingress_capacity: usize,
    /// Per-shard engine configuration. `serve.max_sessions` doubles as
    /// the router's per-shard session capacity.
    pub serve: ServeConfig,
    /// Self-healing knobs: heartbeat deadlines, restart backoff,
    /// checkpoint cadence and the poison-frame quarantine threshold.
    pub supervision: SupervisionConfig,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            shards: 4,
            vnodes: 64,
            ingress_capacity: 256,
            serve: ServeConfig::default(),
            supervision: SupervisionConfig::default(),
        }
    }
}

/// End-of-life statistics for one shard, returned by
/// [`ServeFabric::shutdown`]. With supervision enabled these aggregate
/// across every worker incarnation of the shard.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Sessions opened on this shard via the control plane.
    pub opened: u64,
    /// Sessions closed on this shard.
    pub closed: u64,
    /// Predictions its engine emitted.
    pub predictions: u64,
    /// Predictions its engine suppressed (stale / non-finite /
    /// low-confidence).
    pub suppressed: u64,
    /// Events shed from per-session engine queues (oldest-first
    /// backpressure inside the engine).
    pub engine_shed: u64,
    /// Data events the worker drained from its ingress queue.
    pub ingress_drained: u64,
    /// Sessions resumed from a checkpoint after a restart or
    /// migration onto this shard.
    pub restored: u64,
    /// Sessions this shard quarantined for repeated engine panics.
    pub quarantined: u64,
    /// Engine panics caught on this shard (attributed or not).
    pub poison_events: u64,
    /// Engine-side sheds per session key (non-zero entries only,
    /// harvested when sessions close and at shutdown).
    pub session_engine_shed: Vec<(u64, u64)>,
}

/// Whole-fabric statistics returned by [`ServeFabric::shutdown`].
#[derive(Debug, Clone, Default)]
pub struct FabricStats {
    /// Per-shard statistics, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Data events shed at shard ingresses (fabric edge).
    pub ingress_shed: u64,
    /// Sessions admitted by spilling past a full preferred shard.
    pub spills: u64,
    /// Admissions refused with every shard full.
    pub rejections: u64,
    /// Shard worker restarts performed by the supervisor.
    pub restarts: u64,
    /// Stalled workers abandoned on a missed-heartbeat deadline.
    pub stalls: u64,
    /// Sessions quarantined after repeated engine panics.
    pub quarantined: u64,
    /// Sessions evicted because migration off a dead shard failed.
    pub evicted: u64,
    /// In-flight ingress events lost when a stalled worker's queue was
    /// abandoned or a shard died permanently.
    pub lost_inflight: u64,
}

/// Control-plane state guarded by one mutex: the routing table, the
/// per-session shed counters shared with the data plane, and the
/// poison-frame ledger.
pub(crate) struct ControlState {
    pub(crate) table: RoutingTable,
    pub(crate) entries: HashMap<u64, SessionEntry>,
    pub(crate) next_key: u64,
    /// Attributed engine panics per session key.
    pub(crate) poison_counts: HashMap<u64, u32>,
    /// Keys quarantined after reaching the poison threshold.
    pub(crate) quarantined: HashSet<u64>,
}

pub(crate) struct SessionEntry {
    pub(crate) shard: usize,
    pub(crate) ingress_shed: Arc<AtomicU64>,
}

/// Ground-truth fabric counters (independent of the obs registry so
/// tests can cross-check the two).
#[derive(Default)]
pub(crate) struct GroundCounters {
    pub(crate) ingress_shed: AtomicU64,
    pub(crate) spills: AtomicU64,
    pub(crate) rejections: AtomicU64,
    pub(crate) restarts: AtomicU64,
    pub(crate) stalls: AtomicU64,
    pub(crate) quarantined: AtomicU64,
    pub(crate) evicted: AtomicU64,
    pub(crate) lost_inflight: AtomicU64,
}

/// Output batches are tagged with the emitting shard and its worker
/// epoch so [`ServeFabric::poll`] can drop late output from abandoned
/// (stalled) worker incarnations.
pub(crate) type OutBatch = (usize, u64, Vec<FabricPrediction>);

/// Per-shard shared state: the ingress sender (swappable when a
/// stalled worker's queue is abandoned), the worker-epoch fences, the
/// liveness flags and the heartbeat cell.
pub(crate) struct ShardSlot {
    sender: Mutex<SyncSender<ShardCmd>>,
    /// Incarnation counter; bumped on every worker (re)spawn.
    pub(crate) epoch: AtomicU64,
    /// Output batches from epochs below this are dropped at `poll` —
    /// bumped only when a stalled worker is abandoned, so a replaced
    /// worker's late emissions cannot interleave with its successor's.
    pub(crate) min_live_epoch: AtomicU64,
    /// No live worker right now (crashed / restarting).
    pub(crate) down: AtomicBool,
    /// Permanently failed: restart budget exhausted, sessions migrated.
    pub(crate) dead: AtomicBool,
    pub(crate) throttle: Arc<AtomicU8>,
    pub(crate) ack: Arc<AtomicU8>,
    /// Worker loop counter; a supervisor-observed flatline past the
    /// stall deadline marks the worker stalled.
    pub(crate) heartbeat: Arc<AtomicU64>,
    /// Data events currently in the ingress queue (ground truth behind
    /// the `m2ai_fabric_ingress_depth` gauge; read when abandoning a
    /// queue to count lost in-flight events).
    pub(crate) depth: AtomicI64,
    pub(crate) ins: ShardInstruments,
}

impl ShardSlot {
    /// Clones the current ingress sender (never holds the lock across
    /// a blocking send).
    pub(crate) fn sender(&self) -> SyncSender<ShardCmd> {
        self.sender
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    pub(crate) fn swap_sender(&self, tx: SyncSender<ShardCmd>) {
        *self.sender.lock().unwrap_or_else(|e| e.into_inner()) = tx;
    }
}

/// State shared between the facade, the shard workers and the
/// supervisor.
pub(crate) struct Inner {
    pub(crate) control: Mutex<ControlState>,
    pub(crate) shards: Vec<ShardSlot>,
    pub(crate) out_tx: Sender<OutBatch>,
    pub(crate) outputs: Mutex<Receiver<OutBatch>>,
    pub(crate) closing: AtomicBool,
    pub(crate) ground: GroundCounters,
    pub(crate) glob: &'static FabricInstruments,
    /// Last checkpoint per session key, fed by the supervisor's
    /// periodic sweep and [`ServeFabric::checkpoint_now`].
    pub(crate) checkpoints: Mutex<HashMap<u64, SessionCheckpoint>>,
    pub(crate) model: SequenceClassifier,
    pub(crate) builder: FrameBuilder,
    pub(crate) cfg: FabricConfig,
}

impl Inner {
    pub(crate) fn lock_control(&self) -> MutexGuard<'_, ControlState> {
        // Control mutations are small and never panic mid-update;
        // tolerate poison so one failed caller can't wedge the fabric.
        self.control.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn lock_checkpoints(&self) -> MutexGuard<'_, HashMap<u64, SessionCheckpoint>> {
        self.checkpoints.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Builds a fresh engine for a (re)spawned shard worker.
    pub(crate) fn new_engine(&self) -> ServeEngine {
        ServeEngine::new(
            self.model.clone(),
            self.builder.clone(),
            self.cfg.serve.clone(),
        )
    }

    /// Retries `try_send` against a shard's current ingress sender
    /// until it lands, the shard dies, or `deadline` elapses. The
    /// sender is re-read each attempt so a swap (stall abandonment)
    /// redirects the retry to the replacement queue.
    pub(crate) fn send_with_deadline(
        &self,
        shard: usize,
        mut cmd: ShardCmd,
        deadline: Duration,
    ) -> Result<(), FabricError> {
        let t0 = Instant::now();
        loop {
            if self.shards[shard].dead.load(Ordering::SeqCst) {
                return Err(FabricError::ShardDown);
            }
            match self.shards[shard].sender().try_send(cmd) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Full(c)) => {
                    if t0.elapsed() >= deadline {
                        return Err(FabricError::Timeout);
                    }
                    cmd = c;
                }
                Err(TrySendError::Disconnected(c)) => {
                    // Transient during a sender swap; the dead flag
                    // above catches the permanent case.
                    if t0.elapsed() >= deadline {
                        return Err(FabricError::ShardDown);
                    }
                    cmd = c;
                }
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Sweeps every live shard for session checkpoints and merges them
    /// into the store. Returns the number of sessions snapshotted;
    /// `Err(Timeout)` if any live shard failed to reply in time (the
    /// snapshots that did arrive are still stored).
    pub(crate) fn checkpoint_all(&self, per_shard: Duration) -> Result<usize, FabricError> {
        let t0 = Instant::now();
        let mut total = 0usize;
        let mut timed_out = false;
        for (shard, slot) in self.shards.iter().enumerate() {
            if slot.dead.load(Ordering::SeqCst) || slot.down.load(Ordering::SeqCst) {
                continue;
            }
            let (tx, rx) = channel();
            if self
                .send_with_deadline(shard, ShardCmd::Checkpoint { reply: tx }, per_shard)
                .is_err()
            {
                timed_out = true;
                continue;
            }
            match rx.recv_timeout(per_shard) {
                Ok(snaps) => {
                    total += snaps.len();
                    let mut store = self.lock_checkpoints();
                    for (key, ck) in snaps {
                        store.insert(key, ck);
                    }
                }
                Err(_) => timed_out = true,
            }
        }
        self.glob.checkpoints.add(total as u64);
        self.glob
            .checkpoint_seconds
            .observe(t0.elapsed().as_secs_f64());
        if timed_out {
            Err(FabricError::Timeout)
        } else {
            Ok(total)
        }
    }
}

/// N engine shards on dedicated worker threads behind consistent-hash
/// session routing, watched by a supervisor thread that restarts
/// crashed or stalled workers from session checkpoints. See the crate
/// docs.
pub struct ServeFabric {
    inner: Arc<Inner>,
    supervisor: Option<JoinHandle<FabricStats>>,
}

impl std::fmt::Debug for ServeFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeFabric")
            .field("shards", &self.inner.shards.len())
            .finish_non_exhaustive()
    }
}

impl ServeFabric {
    /// Spins up the fabric: builds the routing table, clones the model
    /// and frame builder into every shard, starts one worker thread
    /// per shard and the supervisor thread that watches them.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.shards`, `cfg.vnodes` or `cfg.ingress_capacity`
    /// is zero (the engine's own config asserts cover `cfg.serve`), or
    /// if a thread cannot be spawned.
    pub fn new(model: SequenceClassifier, builder: FrameBuilder, cfg: FabricConfig) -> Self {
        assert!(cfg.shards > 0, "need at least one shard");
        assert!(cfg.vnodes > 0, "need at least one virtual node");
        assert!(cfg.ingress_capacity > 0, "ingress must hold an event");
        let table = RoutingTable::new(cfg.shards, cfg.vnodes, cfg.serve.max_sessions);
        let (out_tx, out_rx) = channel();
        let mut shards = Vec::with_capacity(cfg.shards);
        let mut rxs = Vec::with_capacity(cfg.shards);
        for shard in 0..cfg.shards {
            let (tx, rx) = sync_channel(cfg.ingress_capacity);
            rxs.push(rx);
            shards.push(ShardSlot {
                sender: Mutex::new(tx),
                epoch: AtomicU64::new(0),
                min_live_epoch: AtomicU64::new(0),
                down: AtomicBool::new(true),
                dead: AtomicBool::new(false),
                throttle: Arc::new(AtomicU8::new(ShardThrottle::Run as u8)),
                ack: Arc::new(AtomicU8::new(ShardThrottle::Run as u8)),
                heartbeat: Arc::new(AtomicU64::new(0)),
                depth: AtomicI64::new(0),
                ins: shard_instruments(shard),
            });
        }
        let inner = Arc::new(Inner {
            control: Mutex::new(ControlState {
                table,
                entries: HashMap::new(),
                next_key: 0,
                poison_counts: HashMap::new(),
                quarantined: HashSet::new(),
            }),
            shards,
            out_tx,
            outputs: Mutex::new(out_rx),
            closing: AtomicBool::new(false),
            ground: GroundCounters::default(),
            glob: fabric_instruments(),
            checkpoints: Mutex::new(HashMap::new()),
            model,
            builder,
            cfg,
        });
        let (events_tx, events_rx) = channel::<ShardEvent>();
        let mut retired_flags = Vec::with_capacity(inner.cfg.shards);
        for (shard, rx) in rxs.into_iter().enumerate() {
            let retired = Arc::new(AtomicBool::new(false));
            retired_flags.push(Arc::clone(&retired));
            spawn_worker(
                Arc::clone(&inner),
                events_tx.clone(),
                WorkerSpawn {
                    shard,
                    epoch: 0,
                    rx,
                    restores: Vec::new(),
                    probation: false,
                    retired,
                    down_since: None,
                },
            );
        }
        let supervisor = Supervisor::new(Arc::clone(&inner), events_tx, events_rx, retired_flags);
        let handle = std::thread::Builder::new()
            .name("m2ai-fabric-supervisor".into())
            .spawn(move || supervisor.run())
            .expect("spawn fabric supervisor");
        ServeFabric {
            inner,
            supervisor: Some(handle),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// Open sessions across the whole fabric.
    pub fn sessions(&self) -> usize {
        self.inner.lock_control().entries.len()
    }

    /// The shard hosting `key`.
    pub fn shard_of(&self, key: SessionKey) -> Result<usize, FabricError> {
        self.inner
            .lock_control()
            .entries
            .get(&key.0)
            .map(|e| e.shard)
            .ok_or(FabricError::UnknownSession)
    }

    /// Data events shed at the fabric edge for one session (ingress
    /// backpressure; engine-side sheds are reported per shard in
    /// [`ShardStats`]).
    pub fn session_shed(&self, key: SessionKey) -> Result<u64, FabricError> {
        self.inner
            .lock_control()
            .entries
            .get(&key.0)
            .map(|e| e.ingress_shed.load(Ordering::Relaxed))
            .ok_or(FabricError::UnknownSession)
    }

    /// Total ingress-shed events across the fabric (ground truth,
    /// mirrored by the `m2ai_fabric_ingress_shed_total` family).
    pub fn ingress_shed(&self) -> u64 {
        self.inner.ground.ingress_shed.load(Ordering::Relaxed)
    }

    /// Sessions spilled past their preferred shard so far.
    pub fn spills(&self) -> u64 {
        self.inner.ground.spills.load(Ordering::Relaxed)
    }

    /// Admissions refused with every shard full so far.
    pub fn rejections(&self) -> u64 {
        self.inner.ground.rejections.load(Ordering::Relaxed)
    }

    /// Shard worker restarts the supervisor has performed so far.
    pub fn restarts(&self) -> u64 {
        self.inner.ground.restarts.load(Ordering::Relaxed)
    }

    /// Sessions quarantined after repeated engine panics so far.
    pub fn quarantined(&self) -> u64 {
        self.inner.ground.quarantined.load(Ordering::Relaxed)
    }

    /// Whether `key` has been quarantined (its data is refused with
    /// [`FabricError::Quarantined`]).
    pub fn is_quarantined(&self, key: SessionKey) -> bool {
        self.inner.lock_control().quarantined.contains(&key.0)
    }

    /// Whether `shard` currently has a live, serving worker (false
    /// while crashed/restarting and permanently once dead).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_alive(&self, shard: usize) -> bool {
        let slot = &self.inner.shards[shard];
        !slot.down.load(Ordering::SeqCst) && !slot.dead.load(Ordering::SeqCst)
    }

    /// Sessions currently held in the checkpoint store.
    pub fn checkpointed_sessions(&self) -> usize {
        self.inner.lock_checkpoints().len()
    }

    /// Opens a session: consistent-hash placement with capacity
    /// spill, then a synchronous slot open on the owning shard (so a
    /// returned key is immediately pushable and admission can never
    /// race ahead of the engine's slot table).
    pub fn open_session(&self) -> Result<SessionKey, FabricError> {
        let (key, shard, spilled) = {
            let mut c = self.inner.lock_control();
            let key = c.next_key;
            let placement = match c.table.assign(key) {
                Ok(p) => p,
                Err(RouteError::Full) | Err(RouteError::NoAliveShard) => {
                    self.inner.ground.rejections.fetch_add(1, Ordering::Relaxed);
                    self.inner.glob.rejections.inc();
                    return Err(FabricError::FabricFull);
                }
                Err(RouteError::DuplicateKey) => unreachable!("next_key is never reused"),
            };
            c.next_key += 1;
            c.entries.insert(
                key,
                SessionEntry {
                    shard: placement.shard,
                    ingress_shed: Arc::new(AtomicU64::new(0)),
                },
            );
            (key, placement.shard, placement.spilled)
        };
        if spilled {
            self.inner.ground.spills.fetch_add(1, Ordering::Relaxed);
            self.inner.glob.spills.inc();
        }
        self.inner.shards[shard].ins.sessions.add(1);
        let (ack_tx, ack_rx) = sync_channel(1);
        let outcome = self
            .inner
            .send_with_deadline(shard, ShardCmd::Open { key, reply: ack_tx }, OPEN_DEADLINE)
            .and_then(|()| match ack_rx.recv_timeout(OPEN_DEADLINE) {
                Ok(true) => Ok(()),
                Ok(false) => Err(FabricError::ShardDown),
                Err(RecvTimeoutError::Timeout) => Err(FabricError::Timeout),
                Err(RecvTimeoutError::Disconnected) => Err(FabricError::ShardDown),
            });
        if let Err(e) = outcome {
            let mut c = self.inner.lock_control();
            if c.entries.remove(&key).is_some() {
                c.table.release(key);
                drop(c);
                self.inner.shards[shard].ins.sessions.add(-1);
            }
            return Err(e);
        }
        Ok(SessionKey(key))
    }

    /// Closes a session. The close is queued in session order on its
    /// shard; the routing-table slot frees immediately, so a
    /// subsequent open can reuse the capacity (the shard's FIFO
    /// ingress guarantees the engine processes the close first).
    ///
    /// Closing a session on a dead or restarting shard succeeds: the
    /// control entry is gone, so the session is simply not resurrected
    /// at the next restart. Closing a quarantined key also succeeds.
    pub fn close_session(&self, key: SessionKey) -> Result<(), FabricError> {
        let shard = {
            let mut c = self.inner.lock_control();
            match c.entries.remove(&key.0) {
                Some(entry) => {
                    c.table.release(key.0);
                    entry.shard
                }
                None if c.quarantined.contains(&key.0) => return Ok(()),
                None => return Err(FabricError::UnknownSession),
            }
        };
        self.inner.shards[shard].ins.sessions.add(-1);
        self.inner.lock_checkpoints().remove(&key.0);
        // Best-effort: a dead shard's engine (and its session) is
        // already gone, and a restarting shard won't resurrect the
        // session because the control entry was removed above.
        let _ =
            self.inner
                .send_with_deadline(shard, ShardCmd::Close { key: key.0 }, CLOSE_DEADLINE);
        Ok(())
    }

    /// Feeds one pre-extracted frame to a session. Returns
    /// [`PushOutcome::Shed`] (never blocks) when the shard's ingress
    /// is full.
    pub fn push_frame(
        &self,
        key: SessionKey,
        time_s: f64,
        frame: Vec<f32>,
        health: HealthState,
    ) -> Result<PushOutcome, FabricError> {
        self.push_frame_traced(key, time_s, frame, health, trace::begin_trace())
    }

    /// [`ServeFabric::push_frame`] under a caller-provided trace
    /// context (e.g. one minted at the reader, so the trace covers
    /// ingest → ingress → infer → emit). Purely observational: the
    /// routing/shed behaviour is identical to `push_frame`.
    pub fn push_frame_traced(
        &self,
        key: SessionKey,
        time_s: f64,
        frame: Vec<f32>,
        health: HealthState,
        ctx: TraceContext,
    ) -> Result<PushOutcome, FabricError> {
        self.push_data(key, ctx, |key, enqueued_us| ShardCmd::Frame {
            key,
            time_s,
            frame,
            health,
            ctx,
            enqueued_us,
        })
    }

    /// Feeds raw tag readings to a session (the shard runs frame
    /// extraction inside its worker). The whole batch is one ingress
    /// event: it is enqueued or shed atomically.
    pub fn push(
        &self,
        key: SessionKey,
        readings: Vec<TagReading>,
    ) -> Result<PushOutcome, FabricError> {
        self.push_traced(key, readings, trace::begin_trace())
    }

    /// [`ServeFabric::push`] under a caller-provided trace context;
    /// see [`ServeFabric::push_frame_traced`].
    pub fn push_traced(
        &self,
        key: SessionKey,
        readings: Vec<TagReading>,
        ctx: TraceContext,
    ) -> Result<PushOutcome, FabricError> {
        self.push_data(key, ctx, |key, enqueued_us| ShardCmd::Readings {
            key,
            readings,
            ctx,
            enqueued_us,
        })
    }

    /// [`ServeFabric::push_frame`] with bounded retry: re-attempts a
    /// shed push every 100 µs until it enqueues or `deadline` elapses
    /// (then [`FabricError::Timeout`]). Each failed attempt still
    /// counts as a shed at the fabric edge.
    pub fn push_frame_with_deadline(
        &self,
        key: SessionKey,
        time_s: f64,
        frame: Vec<f32>,
        health: HealthState,
        deadline: Duration,
    ) -> Result<PushOutcome, FabricError> {
        let t0 = Instant::now();
        loop {
            match self.push_frame(key, time_s, frame.clone(), health)? {
                PushOutcome::Enqueued => return Ok(PushOutcome::Enqueued),
                PushOutcome::Shed => {
                    if t0.elapsed() >= deadline {
                        return Err(FabricError::Timeout);
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }
    }

    /// [`ServeFabric::push`] with bounded retry; see
    /// [`ServeFabric::push_frame_with_deadline`].
    pub fn push_with_deadline(
        &self,
        key: SessionKey,
        readings: Vec<TagReading>,
        deadline: Duration,
    ) -> Result<PushOutcome, FabricError> {
        let t0 = Instant::now();
        loop {
            match self.push(key, readings.clone())? {
                PushOutcome::Enqueued => return Ok(PushOutcome::Enqueued),
                PushOutcome::Shed => {
                    if t0.elapsed() >= deadline {
                        return Err(FabricError::Timeout);
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }
    }

    fn push_data(
        &self,
        key: SessionKey,
        ctx: TraceContext,
        make: impl FnOnce(u64, u64) -> ShardCmd,
    ) -> Result<PushOutcome, FabricError> {
        let (shard, shed) = {
            let c = self.inner.lock_control();
            match c.entries.get(&key.0) {
                Some(entry) => (entry.shard, Arc::clone(&entry.ingress_shed)),
                None if c.quarantined.contains(&key.0) => {
                    end_ingress_span(ctx, key, None, SpanStatus::Quarantined);
                    return Err(FabricError::Quarantined);
                }
                None => return Err(FabricError::UnknownSession),
            }
        };
        let slot = &self.inner.shards[shard];
        let enqueued_us = if ctx.is_sampled() {
            trace::clock_us()
        } else {
            0
        };
        match slot.sender().try_send(make(key.0, enqueued_us)) {
            Ok(()) => {
                slot.ins.ingress_depth.add(1);
                slot.depth.fetch_add(1, Ordering::Relaxed);
                Ok(PushOutcome::Enqueued)
            }
            Err(TrySendError::Full(_)) => {
                shed.fetch_add(1, Ordering::Relaxed);
                self.inner
                    .ground
                    .ingress_shed
                    .fetch_add(1, Ordering::Relaxed);
                slot.ins.ingress_shed.inc();
                end_ingress_span(ctx, key, Some(shard), SpanStatus::Shed);
                Ok(PushOutcome::Shed)
            }
            Err(TrySendError::Disconnected(_)) => {
                if slot.dead.load(Ordering::SeqCst) {
                    end_ingress_span(ctx, key, Some(shard), SpanStatus::ShardDown);
                    Err(FabricError::ShardDown)
                } else {
                    // Sender-swap race while a stalled worker is being
                    // replaced: the event is lost at the edge; account
                    // for it as a shed rather than surfacing an error.
                    shed.fetch_add(1, Ordering::Relaxed);
                    self.inner
                        .ground
                        .ingress_shed
                        .fetch_add(1, Ordering::Relaxed);
                    slot.ins.ingress_shed.inc();
                    end_ingress_span(ctx, key, Some(shard), SpanStatus::Shed);
                    Ok(PushOutcome::Shed)
                }
            }
        }
    }

    /// Drains every prediction the shards have emitted so far, in
    /// arrival order at the collector. Per-session order is the
    /// session's push order; cross-session (and cross-shard) order is
    /// unspecified — see the crate docs' determinism boundary. Output
    /// from abandoned (stalled) worker incarnations is dropped here.
    pub fn poll(&self) -> Vec<FabricPrediction> {
        let rx = self.inner.outputs.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::new();
        while let Ok((shard, epoch, batch)) = rx.try_recv() {
            if epoch
                >= self.inner.shards[shard]
                    .min_live_epoch
                    .load(Ordering::SeqCst)
            {
                out.extend(batch);
            }
        }
        out
    }

    /// Barrier with a deadline: waits until every live shard has
    /// drained its ingress queue *and* every engine's pending queues
    /// are empty, then returns all predictions emitted up to that
    /// point. Overrides [`ShardThrottle::HoldTicks`]. Dead shards are
    /// skipped; a shard that restarts mid-barrier is re-flushed.
    /// Returns [`FabricError::Timeout`] if the barrier does not
    /// complete in time (e.g. a frozen or stalled shard) — nothing is
    /// drained then, so a later `poll`/`flush` still sees the output.
    pub fn try_flush(&self, deadline: Duration) -> Result<Vec<FabricPrediction>, FabricError> {
        let t0 = Instant::now();
        let n = self.inner.shards.len();
        let mut pending: Vec<Option<Receiver<()>>> = (0..n).map(|_| None).collect();
        let mut done = vec![false; n];
        loop {
            let mut all = true;
            for shard in 0..n {
                if done[shard] {
                    continue;
                }
                let slot = &self.inner.shards[shard];
                if slot.dead.load(Ordering::SeqCst) {
                    done[shard] = true;
                    continue;
                }
                if pending[shard].is_none() {
                    let (tx, rx) = sync_channel(1);
                    match self.inner.send_with_deadline(
                        shard,
                        ShardCmd::Flush { reply: tx },
                        FLUSH_SLICE,
                    ) {
                        Ok(()) => pending[shard] = Some(rx),
                        Err(FabricError::ShardDown) => {
                            done[shard] = true;
                            continue;
                        }
                        Err(_) => {}
                    }
                }
                if let Some(rx) = &pending[shard] {
                    match rx.recv_timeout(FLUSH_SLICE) {
                        Ok(()) => {
                            done[shard] = true;
                            continue;
                        }
                        Err(RecvTimeoutError::Timeout) => {}
                        // The barrier command was lost with a replaced
                        // worker's queue; re-issue against the new one.
                        Err(RecvTimeoutError::Disconnected) => pending[shard] = None,
                    }
                }
                all = false;
            }
            if all {
                return Ok(self.poll());
            }
            if t0.elapsed() >= deadline {
                return Err(FabricError::Timeout);
            }
        }
    }

    /// [`ServeFabric::try_flush`] with a generous deadline; on timeout
    /// (e.g. a shard left in [`ShardThrottle::Freeze`]) it degrades to
    /// a plain [`ServeFabric::poll`] instead of blocking forever.
    pub fn flush(&self) -> Vec<FabricPrediction> {
        match self.try_flush(FLUSH_DEADLINE) {
            Ok(preds) => preds,
            Err(_) => self.poll(),
        }
    }

    /// Sets a shard's throttle and waits until its worker acknowledges
    /// the new state (so e.g. after `Freeze` returns, the worker is
    /// guaranteed not to consume another ingress event until resumed).
    /// Waits up to 30 s (covers a restart in progress); use
    /// [`ServeFabric::try_set_throttle`] for a typed deadline.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn set_throttle(&self, shard: usize, throttle: ShardThrottle) {
        let _ = self.try_set_throttle(shard, throttle, Duration::from_secs(30));
    }

    /// [`ServeFabric::set_throttle`] with a deadline: returns
    /// [`FabricError::Timeout`] if the worker does not acknowledge in
    /// time and [`FabricError::ShardDown`] against a dead shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn try_set_throttle(
        &self,
        shard: usize,
        throttle: ShardThrottle,
        deadline: Duration,
    ) -> Result<(), FabricError> {
        let slot = &self.inner.shards[shard];
        if slot.dead.load(Ordering::SeqCst) {
            return Err(FabricError::ShardDown);
        }
        slot.throttle.store(throttle as u8, Ordering::SeqCst);
        let t0 = Instant::now();
        // The worker re-reads the flag at the top of every loop
        // iteration (at most one 1 ms idle wait away); spin gently.
        while ShardThrottle::from_u8(slot.ack.load(Ordering::SeqCst)) != throttle {
            if self.inner.closing.load(Ordering::SeqCst) {
                return Ok(());
            }
            if slot.dead.load(Ordering::SeqCst) {
                return Err(FabricError::ShardDown);
            }
            if t0.elapsed() >= deadline {
                return Err(FabricError::Timeout);
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        Ok(())
    }

    /// Test hook: makes a shard's worker exit as if it had crashed.
    /// The supervisor observes the abnormal exit and runs the restart
    /// path (backoff, checkpoint restore, budget accounting). Queued
    /// ingress events survive — the replacement worker inherits the
    /// queue.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn kill_shard(&self, shard: usize) -> Result<(), FabricError> {
        assert!(shard < self.inner.shards.len(), "shard out of range");
        self.inner
            .send_with_deadline(shard, ShardCmd::Die, Duration::from_secs(1))
    }

    /// Synchronously checkpoints every session on every live shard
    /// into the fabric's checkpoint store (the supervisor also does
    /// this periodically). Returns the number of sessions snapshotted.
    pub fn checkpoint_now(&self) -> Result<usize, FabricError> {
        self.inner.checkpoint_all(Duration::from_secs(10))
    }

    /// Stops every worker and the supervisor, and collects final
    /// statistics. Pending ingress events and per-session queues are
    /// discarded; call [`ServeFabric::flush`] first for a graceful
    /// drain.
    pub fn shutdown(mut self) -> FabricStats {
        self.inner.closing.store(true, Ordering::SeqCst);
        match self.supervisor.take() {
            Some(handle) => handle.join().unwrap_or_default(),
            None => FabricStats::default(),
        }
    }
}

impl Drop for ServeFabric {
    fn drop(&mut self) {
        // Without an explicit shutdown, `closing` releases every
        // worker (they re-check it at least once per millisecond) and
        // the supervisor drains their exits and returns.
        self.inner.closing.store(true, Ordering::SeqCst);
    }
}

/// How long `open_session` waits for the owning shard to ack the slot
/// (covers a restart backoff in progress).
const OPEN_DEADLINE: Duration = Duration::from_secs(10);

/// Best-effort delivery window for queued session closes.
const CLOSE_DEADLINE: Duration = Duration::from_secs(5);

/// Per-round wait inside `try_flush` before re-checking deadlines.
const FLUSH_SLICE: Duration = Duration::from_millis(10);

/// Overall barrier deadline behind the legacy `flush()` facade.
const FLUSH_DEADLINE: Duration = Duration::from_secs(300);
