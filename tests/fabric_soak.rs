//! Multi-threaded soak / churn test for the serve fabric (serve-fabric
//! PR).
//!
//! Several producer threads hammer one fabric concurrently: tracked
//! sessions streaming clean frames (checked for *exact* prediction
//! conservation afterwards), ephemeral sessions opened and closed
//! mid-flight to churn the routing table and engine slots, a
//! raw-readings session fed through a heavy [`FaultPlan`] (checked for
//! finite outputs only — faults legitimately suppress), and a
//! mid-soak throttle flip on shard 0. The whole thing runs under a
//! watchdog so a deadlock fails the test instead of hanging CI.
//!
//! What "no lost or duplicated predictions" means concretely:
//!
//! * a tracked session that pushed `STEPS` frames with zero sheds must
//!   emit exactly `STEPS - HISTORY + 1` predictions (the window ring
//!   eats the first `HISTORY - 1`);
//! * every session's prediction stream must have strictly increasing
//!   `time_s` — a duplicate or reordered emission would repeat or
//!   regress a timestamp (per-session FIFO is the fabric's ordering
//!   contract).

use m2ai::core::calibration::PhaseCalibrator;
use m2ai::core::frames::{FeatureMode, FrameBuilder, FrameLayout};
use m2ai::core::network::{build_model, Architecture};
use m2ai::core::online::HealthState;
use m2ai::core::serve::ServeConfig;
use m2ai::fabric::{FabricConfig, FabricPrediction, PushOutcome, ServeFabric, ShardThrottle};
use m2ai::rfsim::fault::FaultPlan;
use m2ai::rfsim::reader::{Reader, ReaderConfig};
use m2ai::rfsim::reading::TagReading;
use m2ai::rfsim::room::Room;
use m2ai::rfsim::scene::SceneSnapshot;
use std::collections::HashMap;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

/// Sliding window length (small model keeps the soak fast).
const HISTORY: usize = 3;

/// Producer threads pushing clean tracked/ephemeral traffic.
const PRODUCERS: usize = 3;

/// Tracked sessions opened per producer.
const ROUNDS: usize = 5;

/// Frames pushed per tracked session.
const STEPS: usize = 10;

/// Frames pushed per ephemeral (churned) session.
const EPHEMERAL_STEPS: usize = 4;

/// Hard wall-clock ceiling for the whole soak.
const WATCHDOG: Duration = Duration::from_secs(180);

fn layout() -> FrameLayout {
    FrameLayout::new(1, 4, FeatureMode::Joint)
}

fn synth_frame(seed: u64, step: usize) -> Vec<f32> {
    let dim = layout().frame_dim();
    let mut state = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(step as u64)
        | 1;
    (0..dim)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 23) as f32) * 2.0 - 1.0
        })
        .collect()
}

/// Simulated tag readings for the faulty raw-readings producer.
fn faulty_chunks() -> Vec<Vec<TagReading>> {
    let cfg = ReaderConfig {
        phase_noise_std: 0.02,
        ..ReaderConfig::default()
    };
    let mut reader = Reader::new(Room::hall(), cfg, 1);
    let scene = SceneSnapshot::with_tags(vec![m2ai::rfsim::geometry::Point2::new(4.4, 3.2)]);
    let readings = reader.run(|_| scene.clone(), 5.0);
    let plan = FaultPlan::with_intensity(0.6, 0xFA17);
    let faulted = plan.apply(readings);
    faulted.chunks(40).map(<[TagReading]>::to_vec).collect()
}

struct SoakOutcome {
    /// `(key, frames pushed)` for every tracked session.
    tracked: Vec<(m2ai::fabric::SessionKey, usize)>,
    /// Raw keys of churned sessions (already closed mid-soak).
    ephemeral_keys: Vec<u64>,
    /// Raw key of the faulty raw-readings session.
    fault_key: u64,
    /// Every prediction the fabric emitted, collector order.
    predictions: Vec<FabricPrediction>,
    /// Final stats out of `shutdown()`.
    stats: m2ai::fabric::FabricStats,
    /// Sessions opened / closed across all threads (ground truth).
    opened: usize,
    closed: usize,
}

/// The soak body — runs on a watchdog-supervised thread.
fn soak() -> SoakOutcome {
    let l = layout();
    let builder = FrameBuilder::new(l, PhaseCalibrator::disabled(1, 4), 0.5);
    let model = build_model(&l, 12, Architecture::CnnLstm, 7);
    let fabric = ServeFabric::new(
        model,
        builder,
        FabricConfig {
            shards: 2,
            vnodes: 32,
            ingress_capacity: 256,
            serve: ServeConfig {
                max_sessions: 32,
                history_len: HISTORY,
                queue_capacity: 256,
                ..ServeConfig::default()
            },
            supervision: Default::default(),
        },
    );
    let chunks = faulty_chunks();
    let mut tracked: Vec<(m2ai::fabric::SessionKey, usize)> = Vec::new();
    let mut ephemeral_keys: Vec<u64> = Vec::new();
    let mut fault_key = 0u64;
    let mut opened = 0usize;
    let mut closed = 0usize;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for producer in 0..PRODUCERS {
            let fabric = &fabric;
            handles.push(scope.spawn(move || {
                let mut my_tracked = Vec::new();
                let mut my_ephemeral = Vec::new();
                for round in 0..ROUNDS {
                    let seed = (producer * ROUNDS + round) as u64;
                    // One tracked session: stays open until the final
                    // flush so its queue is never discarded.
                    let key = fabric.open_session().expect("fabric sized for soak");
                    for t in 0..STEPS {
                        loop {
                            match fabric
                                .push_frame(
                                    key,
                                    t as f64 * 0.5,
                                    synth_frame(seed, t),
                                    HealthState::Healthy,
                                )
                                .expect("session open")
                            {
                                PushOutcome::Enqueued => break,
                                PushOutcome::Shed => std::thread::yield_now(),
                            }
                        }
                    }
                    my_tracked.push((key, STEPS));
                    // One ephemeral session: opened, poked, closed
                    // immediately — routing-table and slot churn.
                    let eph = fabric.open_session().expect("fabric sized for soak");
                    for t in 0..EPHEMERAL_STEPS {
                        // Sheds are fine here; the session is about to
                        // be closed anyway.
                        let _ = fabric
                            .push_frame(
                                eph,
                                t as f64 * 0.5,
                                synth_frame(seed ^ 0xEEEE, t),
                                HealthState::Healthy,
                            )
                            .expect("session open");
                    }
                    fabric.close_session(eph).expect("open above");
                    my_ephemeral.push(eph.raw());
                }
                (my_tracked, my_ephemeral)
            }));
        }
        // Fault producer: raw readings through a heavy fault plan.
        let fault_handle = {
            let fabric = &fabric;
            let chunks = &chunks;
            scope.spawn(move || {
                let key = fabric.open_session().expect("fabric sized for soak");
                for c in chunks {
                    loop {
                        match fabric.push(key, c.clone()).expect("session open") {
                            PushOutcome::Enqueued => break,
                            PushOutcome::Shed => std::thread::yield_now(),
                        }
                    }
                }
                key.raw()
            })
        };
        // Mid-soak throttle churn on shard 0: hold ticks briefly, then
        // resume — producers must keep making progress either way.
        fabric.set_throttle(0, ShardThrottle::HoldTicks);
        std::thread::sleep(Duration::from_millis(20));
        fabric.set_throttle(0, ShardThrottle::Run);
        for h in handles {
            let (t, e) = h.join().expect("producer panicked");
            opened += t.len() + e.len();
            closed += e.len();
            tracked.extend(t);
            ephemeral_keys.extend(e);
        }
        fault_key = fault_handle.join().expect("fault producer panicked");
        opened += 1;
    });
    // Everything pushed; the barrier drains every queue, after which
    // every surviving prediction has been delivered.
    let mut predictions = fabric.flush();
    for &(key, _) in &tracked {
        fabric
            .close_session(key)
            .expect("tracked sessions stay open");
    }
    predictions.extend(fabric.poll());
    let stats = fabric.shutdown();
    SoakOutcome {
        tracked,
        ephemeral_keys,
        fault_key,
        predictions,
        stats,
        opened,
        closed,
    }
}

#[test]
fn concurrent_soak_conserves_predictions_and_shuts_down_cleanly() {
    let (tx, rx) = channel();
    let worker = std::thread::spawn(move || {
        let outcome = soak();
        let _ = tx.send(outcome);
    });
    let outcome = match rx.recv_timeout(WATCHDOG) {
        Ok(o) => o,
        Err(RecvTimeoutError::Timeout) => {
            panic!("soak deadlocked: no result within {WATCHDOG:?}")
        }
        Err(RecvTimeoutError::Disconnected) => {
            worker.join().expect("soak thread panicked");
            unreachable!("disconnected without panic")
        }
    };
    worker.join().expect("soak thread panicked");

    // Group per session, preserving collector order (per-session FIFO).
    let mut per_session: HashMap<u64, Vec<&FabricPrediction>> = HashMap::new();
    for p in &outcome.predictions {
        per_session.entry(p.session.raw()).or_default().push(p);
    }

    // Exact conservation on tracked sessions: no loss, no duplication.
    for &(key, pushed) in &outcome.tracked {
        let key = key.raw();
        let got = per_session.get(&key).map_or(0, Vec::len);
        assert_eq!(
            got,
            pushed - HISTORY + 1,
            "tracked session {key}: pushed {pushed} clean frames, \
             expected exactly {} predictions, got {got}",
            pushed - HISTORY + 1
        );
    }

    // Ephemeral sessions may have been cut off mid-queue by close, but
    // can never emit more than their pushes could justify.
    for &key in &outcome.ephemeral_keys {
        let got = per_session.get(&key).map_or(0, Vec::len);
        assert!(
            got <= EPHEMERAL_STEPS.saturating_sub(HISTORY - 1),
            "ephemeral session {key} emitted {got} predictions from \
             {EPHEMERAL_STEPS} pushes"
        );
    }

    // Per-session order: strictly increasing window end times. A
    // duplicated or reordered delivery shows up here.
    for (key, preds) in &per_session {
        for w in preds.windows(2) {
            assert!(
                w[1].prediction.time_s > w[0].prediction.time_s,
                "session {key}: prediction times regressed \
                 ({} then {}) — duplicate or reorder",
                w[0].prediction.time_s,
                w[1].prediction.time_s
            );
        }
    }

    // Finite outputs everywhere, including the faulted session.
    for p in &outcome.predictions {
        assert!(
            p.prediction.confidence.is_finite(),
            "non-finite confidence escaped suppression"
        );
        assert!(
            p.prediction.probabilities.iter().all(|v| v.is_finite()),
            "non-finite probabilities escaped suppression"
        );
    }
    let _ = outcome.fault_key; // faults may legitimately suppress all output

    // Clean shutdown: the books balance.
    let opened: u64 = outcome.stats.shards.iter().map(|s| s.opened).sum();
    let closed: u64 = outcome.stats.shards.iter().map(|s| s.closed).sum();
    assert_eq!(
        opened as usize, outcome.opened,
        "every open reached a shard"
    );
    assert!(
        closed as usize >= outcome.closed,
        "mid-soak closes ({}) must all have been processed (saw {closed})",
        outcome.closed
    );
}
