//! Seeded inputs: the paper-default condition, and one simulated reader
//! recording per serving session.
//!
//! Everything derives from the benchmark seed alone. Inputs are
//! generated during set-up, never inside a timed region: the reader
//! simulator produces reads at about the rate the pipeline consumes
//! them.

use crate::tracer::Tracer;
use m2ai_core::calibration::PhaseCalibrator;
use m2ai_core::dataset::{learn_calibration, ExperimentConfig};
use m2ai_core::frames::FrameBuilder;
use m2ai_motion::activity::catalog;
use m2ai_motion::scene::ActivityScene;
use m2ai_motion::volunteer::Volunteer;
use m2ai_rfsim::fault::FaultPlan;
use m2ai_rfsim::geometry::{Point2, Vec2};
use m2ai_rfsim::reader::{Reader, ReaderConfig};
use m2ai_rfsim::reading::TagReading;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Serving sessions (rooms) per workload.
pub const SESSIONS: usize = 64;
/// One session in this many runs a fault plan.
pub const FAULTY_EVERY: usize = 8;
/// Fault intensity of the faulty sessions.
pub const FAULT_INTENSITY: f64 = 0.25;
/// Simulated seconds recorded per session; replays loop over it.
pub const RECORDING_S: f64 = 10.0;

/// The paper-default condition for one seed: configuration, room and
/// the calibrated frame builder every session shares.
#[derive(Debug, Clone)]
pub struct Condition {
    /// `ExperimentConfig::paper_default()` with the seed applied.
    pub config: ExperimentConfig,
    /// Frame builder with the learned phase calibration.
    pub builder: FrameBuilder,
}

/// Builds the condition: learns the calibration from a stationary
/// interval, as the paper's deployment procedure does.
pub fn condition(seed: u64) -> Condition {
    let mut config = ExperimentConfig::paper_default();
    config.seed = seed;
    let calibrator: PhaseCalibrator = learn_calibration(&config);
    let builder = FrameBuilder::new(config.layout(), calibrator, config.frame_duration_s);
    Condition { config, builder }
}

/// One inventory round of one session.
#[derive(Debug, Clone)]
pub struct Round {
    /// Round start on the shared replay clock, seconds.
    pub time_s: f64,
    /// Reads the round reported, stamped by the session's own clock.
    pub reads: Vec<TagReading>,
}

/// One session's recording.
#[derive(Debug, Clone)]
pub struct SessionRecording {
    /// Rounds in time order.
    pub rounds: Vec<Round>,
}

/// All sessions' recordings plus the loop geometry.
#[derive(Debug, Clone)]
pub struct Recordings {
    /// Per-session recordings.
    pub sessions: Vec<SessionRecording>,
    /// Loop length: replay loop `k` adds `k × period_s` to every time.
    pub period_s: f64,
    /// Total reads in one loop over all sessions.
    pub reads_per_loop: usize,
}

impl Recordings {
    /// Reader rounds in one loop over all sessions.
    pub fn rounds_per_loop(&self) -> usize {
        self.sessions.iter().map(|s| s.rounds.len()).sum()
    }
}

/// Simulates `SESSIONS` rooms for [`RECORDING_S`] each. Session `s`
/// performs a scenario from the 12-class two-person catalogue.
///
/// Sessions are staggered twice: session `s` reports its rounds
/// `s / SESSIONS` of a round into each replay round, so pushes spread
/// evenly; and its reader's clock runs `s / SESSIONS` of a frame ahead,
/// so windows (which close at multiples of the frame length on the
/// session's clock) close at evenly spread times too. Both offsets are
/// under one round, so replay laps tile the replay clock. Every session uses the condition's
/// reader deployment (so the shared calibration applies); one in
/// [`FAULTY_EVERY`] runs `FaultPlan::with_intensity(0.25, ·)`.
pub fn record_sessions(cond: &Condition, seed: u64, tracer: &mut Tracer) -> Recordings {
    let cfg = &cond.config;
    let room = cfg.room.build();
    let scenarios = catalog(cfg.n_persons);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E55_1095);
    let reader_cfg = ReaderConfig {
        n_antennas: cfg.n_antennas,
        array_center: Point2::new(room.width / 2.0, 0.3),
        array_axis: Vec2::new(1.0, 0.0),
        seed: cfg.seed,
        ..ReaderConfig::default()
    };
    let placement = room.clamp_inside(Point2::new(room.width / 2.0, 0.3 + cfg.distance_m), 0.8);
    let round_s = reader_cfg.round_duration_s();
    let mut sessions = Vec::with_capacity(SESSIONS);
    let mut reads_per_loop = 0;
    for s in 0..SESSIONS {
        let scenario = &scenarios[rng.gen_range(0..scenarios.len())];
        let volunteers: Vec<Volunteer> = (0..3)
            .map(|p| Volunteer::preset(rng.gen_range(0..10) + p))
            .collect();
        let j = cfg.placement_jitter_m;
        let spot = room.clamp_inside(
            Point2::new(
                placement.x + rng.gen_range(-j..=j),
                placement.y + rng.gen_range(-j..=j),
            ),
            0.8,
        );
        let scene = ActivityScene::with_placement(
            scenario,
            &volunteers,
            cfg.tags_per_person,
            rng.gen(),
            spot,
        );
        let mut reader = Reader::new(room.clone(), reader_cfg.clone(), cfg.n_tags());
        if s % FAULTY_EVERY == FAULTY_EVERY - 1 {
            reader.set_fault_plan(FaultPlan::with_intensity(FAULT_INTENSITY, rng.gen()));
        }
        let clock_s = s as f64 * cfg.frame_duration_s / SESSIONS as f64;
        let report_s = s as f64 * round_s / SESSIONS as f64;
        let n_rounds = (RECORDING_S / round_s).round() as usize;
        let mut rounds = Vec::with_capacity(n_rounds);
        for k in 0..n_rounds {
            let t = k as f64 * round_s;
            let snap = scene.snapshot(t);
            let mut reads = tracer.call("Reader::inventory_round", || {
                reader.inventory_round(&snap, t)
            });
            for r in &mut reads {
                r.time_s += clock_s;
            }
            reads_per_loop += reads.len();
            rounds.push(Round {
                time_s: t + report_s,
                reads,
            });
        }
        sessions.push(SessionRecording { rounds });
    }
    Recordings {
        sessions,
        period_s: RECORDING_S,
        reads_per_loop,
    }
}

/// The replay schedule: every round of every session in order of the
/// shared replay clock, as `(replay time_s, session, round)`.
pub fn schedule(rec: &Recordings) -> Vec<(f64, usize, usize)> {
    let mut items: Vec<(f64, usize, usize)> = rec
        .sessions
        .iter()
        .enumerate()
        .flat_map(|(s, sess)| {
            sess.rounds
                .iter()
                .enumerate()
                .map(move |(k, r)| (r.time_s, s, k))
        })
        .collect();
    items.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    items
}

/// Copies round `round` of `session`, shifted to replay loop `lap`,
/// into `buf`.
pub fn fill_round(
    rec: &Recordings,
    session: usize,
    round: usize,
    lap: usize,
    buf: &mut Vec<TagReading>,
) {
    let shift = lap as f64 * rec.period_s;
    buf.clear();
    buf.extend(rec.sessions[session].rounds[round].reads.iter().map(|r| {
        let mut r = r.clone();
        r.time_s += shift;
        r
    }));
}
