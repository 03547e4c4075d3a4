//! Sharded serve fabric: from one `ServeEngine` to N of them.
//!
//! A single [`ServeEngine`](m2ai_core::serve::ServeEngine) is a
//! single-threaded tick loop — one core's worth of micro-batched
//! incremental inference over at most `max_sessions` streams. The
//! fabric scales that out: **N engine shards pinned to dedicated
//! worker threads**, a consistent-hash router deciding which shard
//! owns which session, a **bounded ingress queue per shard**, and an
//! admission/shed policy that degrades gracefully under overload
//! instead of refusing globally.
//!
//! ```text
//!                 ┌────────────────────────────────────────────┐
//!  open/close ───►│ RoutingTable (hash ring + explicit pins,   │
//!                 │ per-shard load, capacity spill)            │
//!                 └──────────────┬─────────────────────────────┘
//!                                │ session → shard
//!  push/push_frame ──────────────┤
//!                ┌───────────────┼───────────────┐
//!                ▼               ▼               ▼
//!        bounded ingress   bounded ingress  bounded ingress   (try_send;
//!             │                  │               │             full ⇒ shed)
//!        ┌────▼─────┐      ┌─────▼────┐     ┌────▼─────┐
//!        │ worker 0 │      │ worker 1 │     │ worker N │  one thread each:
//!        │ServeEngine│     │ServeEngine│    │ServeEngine│ drain cmds, tick
//!        └────┬─────┘      └─────┬────┘     └────┬─────┘
//!             └──────────────────┴───────────────┘
//!                                │ Vec<FabricPrediction>
//!                                ▼
//!                        collector channel  ──► poll() / flush()
//! ```
//!
//! ## Routing
//!
//! Placement is two-layered ([`router`]): a salted-splitmix64
//! consistent-hash ring proposes a shard (stable under shard
//! addition: only ~1/N of sessions move), and an **explicit routing
//! table** records where each session actually lives. The two differ
//! exactly when admission *spilled* a session: if the preferred shard
//! is at `serve.max_sessions`, the session walks the ring to the next
//! alive shard with room. Only when every shard is full does
//! [`ServeFabric::open_session`] refuse with
//! [`FabricError::FabricFull`].
//!
//! ## Overload & shed policy
//!
//! Two bounded queues stand between a producer and a prediction, and
//! each sheds differently:
//!
//! * the **shard ingress** (capacity [`FabricConfig::ingress_capacity`])
//!   drops the *arriving* event when full ([`PushOutcome::Shed`]) —
//!   the edge never blocks a producer and never grows unbounded;
//! * the **per-session engine queue** (capacity
//!   `serve.queue_capacity`) sheds its *oldest* pending event —
//!   freshest data wins inside an admitted session.
//!
//! Both shed points are counted per session and exported through
//! `m2ai-obs` (per-shard `m2ai_fabric_*` families; see
//! [`ServeFabric::session_shed`] and [`ShardStats`]).
//!
//! ## Determinism boundary
//!
//! *Per-session* prediction order is guaranteed: a session's events
//! traverse one FIFO ingress into one engine, and the engine steps
//! them in order. *Numerics* are batching-invariant: the kernels
//! compute each output row as one accumulator chain, so whatever
//! micro-batches the scheduler happens to form, a session's
//! prediction values are bit-identical to the same frames stepped
//! serially — a fabric with one shard reproduces a bare `ServeEngine`
//! bit-for-bit (pinned by `tests/fabric_equivalence.rs`).
//! *Cross-session* (and cross-shard) interleaving in
//! [`ServeFabric::poll`] output is **not** deterministic; consumers
//! needing a global order must sort on `(time_s, session)` themselves.
//!
//! ## Self-healing (supervision)
//!
//! Worker failure is a first-class input (the `supervisor` module): every
//! engine call runs under `catch_unwind`, workers heartbeat once per
//! loop, and a dedicated supervisor thread
//!
//! * **restarts** a crashed worker (panic or [`ServeFabric::kill_shard`])
//!   with exponential backoff under a per-shard restart budget — the
//!   replacement inherits the un-drained ingress queue and resurrects
//!   every resident session from its last checkpoint;
//! * **abandons** a stalled worker whose heartbeat misses
//!   [`SupervisionConfig::stall_deadline`]: its queue is swapped out
//!   (in-flight events counted as lost), its late output fenced off by
//!   an epoch floor, and a replacement scheduled;
//! * **migrates** sessions off a shard that exhausts its budget: the
//!   routing table retires the shard and each session re-assigns to a
//!   ring successor, restored from checkpoint;
//! * **checkpoints** sessions periodically
//!   ([`SupervisionConfig::checkpoint_interval`], or on demand via
//!   [`ServeFabric::checkpoint_now`]) so restarts resume streams
//!   instead of losing context;
//! * **quarantines** poison inputs: a session whose data panics the
//!   engine [`SupervisionConfig::poison_threshold`] times (attributed
//!   exactly during single-event post-restart probation) is ejected and
//!   its key refuses further data with [`FabricError::Quarantined`].
//!
//! Supervision preserves the determinism contract: heartbeats,
//! checkpoints (clones) and probation (a batch-size cap) change
//! scheduling, never values.
//!
//! ## Test hooks
//!
//! [`ServeFabric::set_throttle`] can hold a shard's ticks
//! ([`ShardThrottle::HoldTicks`]), freeze its ingress consumption
//! entirely ([`ShardThrottle::Freeze`]), or simulate a wedged worker
//! ([`ShardThrottle::Stall`]); [`ServeFabric::kill_shard`] simulates a
//! crash. Together they make shed points, stall detection and the
//! restart path deterministic for the concurrency test battery — and
//! the throttles double as operational drain/brownout controls.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fabric;
mod metrics;
pub mod router;
mod supervisor;
mod worker;

pub use fabric::{
    FabricConfig, FabricError, FabricPrediction, FabricStats, PushOutcome, ServeFabric, SessionKey,
    ShardStats, ShardThrottle,
};
pub use supervisor::SupervisionConfig;
