//! The Impinj-style frequency-hopping, antenna-multiplexing reader.
//!
//! Timing model (paper, Section V): each of the 4 antenna ports
//! inventories for 25 ms, so one full round over the array takes 100 ms —
//! well inside the 400 ms channel dwell, which is what makes the
//! pseudospectrum/periodogram estimation sound on this hardware.
//!
//! Impairments modelled: per-channel hopping phase offsets (Fig. 3),
//! the π phase-reporting ambiguity of the R420 receive chain, Gaussian
//! phase noise, RSSI noise + 0.5 dB quantisation, and range-dependent
//! read loss (passive tags stop harvesting beyond ~6 m).

use crate::channel::{HopSchedule, PhaseOffsets};
use crate::fault::FaultPlan;
use crate::geometry::{Point2, Vec2};
use crate::paths::{enumerate_paths, enumerate_paths_second_order};
use crate::reading::{TagId, TagReading};
use crate::response::backscatter_response;
use crate::room::Room;
use crate::scene::SceneSnapshot;
use crate::SPEED_OF_LIGHT;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reads-emitted counter (post-fault), resolved once per process.
fn reads_emitted() -> &'static m2ai_obs::Counter {
    static C: std::sync::OnceLock<m2ai_obs::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| {
        m2ai_obs::counter(
            "m2ai_reader_reads_total",
            "tag read reports emitted by the reader after fault injection",
            &[],
        )
    })
}

/// Reader configuration.
///
/// Defaults reproduce the paper's prototype: 4 antennas spaced 0.04 m
/// (λ/8), 25 ms per port, 400 ms dwell, π ambiguity on.
#[derive(Debug, Clone)]
pub struct ReaderConfig {
    /// Number of antenna ports (the R420 has at most 4).
    pub n_antennas: usize,
    /// Element spacing in metres (paper: λ/8 = 0.04 m).
    pub antenna_spacing_m: f64,
    /// Inventory duration per antenna port, seconds (paper: 25 ms).
    pub inventory_slot_s: f64,
    /// Channel dwell time, seconds (paper: 400 ms).
    pub dwell_s: f64,
    /// Array centre position in the room.
    pub array_center: Point2,
    /// Array axis (unit vector); AoA is measured from this axis.
    pub array_axis: Vec2,
    /// Std-dev of per-channel offset jitter around the linear law (rad).
    pub offset_jitter_std: f64,
    /// If `false`, hopping phase offsets are zeroed (ideal oscillator) —
    /// used by the Fig. 10 ablation's "no offsets to calibrate" control.
    pub hopping_offsets: bool,
    /// Gaussian phase noise std-dev per read (rad).
    pub phase_noise_std: f64,
    /// Gaussian RSSI noise std-dev (dB).
    pub rssi_noise_db: f64,
    /// RSSI quantisation step (dB); the R420 reports in 0.5 dB steps.
    pub rssi_quantum_db: f64,
    /// Model the π phase-reporting ambiguity.
    pub pi_ambiguity: bool,
    /// Range (m) at which read probability has fallen to 50 %.
    pub half_read_range_m: f64,
    /// Prune multipath components weaker than this linear amplitude.
    pub min_path_amplitude: f64,
    /// Trace second-order (double-bounce) wall reflections — richer
    /// multipath at ~2× path-enumeration cost (Section VII extension).
    pub second_order_reflections: bool,
    /// EPC Gen2 inventory capacity per 25 ms slot: reads are shared
    /// among responding tags, so per-tag read rate drops as tag count
    /// grows (`None` = unlimited, the default; the paper's population
    /// of ≤ 9 tags rarely saturates a slot).
    pub slot_capacity: Option<usize>,
    /// RNG seed (drives offsets, tag phases, noise, hop plan).
    pub seed: u64,
}

impl Default for ReaderConfig {
    fn default() -> Self {
        ReaderConfig {
            n_antennas: 4,
            antenna_spacing_m: 0.04,
            inventory_slot_s: 0.025,
            dwell_s: 0.4,
            array_center: Point2::new(5.0, 0.3),
            array_axis: Vec2::new(1.0, 0.0),
            offset_jitter_std: 0.08,
            hopping_offsets: true,
            phase_noise_std: 0.06,
            rssi_noise_db: 0.7,
            rssi_quantum_db: 0.5,
            pi_ambiguity: true,
            half_read_range_m: 6.0,
            min_path_amplitude: 1e-4,
            second_order_reflections: false,
            slot_capacity: None,
            seed: 0xD0_0D,
        }
    }
}

impl ReaderConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on out-of-domain values (the R420 cannot have 0 or more
    /// than 4 ports; timings must be positive).
    pub fn assert_valid(&self) {
        assert!(
            (1..=4).contains(&self.n_antennas),
            "n_antennas must be 1..=4 (R420 port count)"
        );
        assert!(self.antenna_spacing_m > 0.0, "spacing must be positive");
        assert!(self.inventory_slot_s > 0.0, "slot must be positive");
        assert!(self.dwell_s > 0.0, "dwell must be positive");
    }

    /// Duration of one full round over all antenna ports.
    pub fn round_duration_s(&self) -> f64 {
        self.inventory_slot_s * self.n_antennas as f64
    }
}

/// A simulated frequency-hopping RFID reader bound to a room.
#[derive(Debug)]
pub struct Reader {
    room: Room,
    config: ReaderConfig,
    schedule: HopSchedule,
    offsets: PhaseOffsets,
    /// Per-tag modulation phase offset (radians).
    tag_phases: Vec<f64>,
    rng: StdRng,
    /// Fault-injection plan applied to every emitted reading.
    faults: FaultPlan,
}

impl Reader {
    /// Creates a reader for `n_tags` tags in `room`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`ReaderConfig::assert_valid`]).
    pub fn new(room: Room, config: ReaderConfig, n_tags: usize) -> Self {
        config.assert_valid();
        let schedule = HopSchedule::with_dwell(config.seed, config.dwell_s);
        let offsets = if config.hopping_offsets {
            PhaseOffsets::sample(config.seed, config.offset_jitter_std, config.n_antennas)
        } else {
            PhaseOffsets::ideal(config.n_antennas)
        };
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xABCD_EF01);
        let tag_phases = (0..n_tags)
            .map(|_| rng.gen_range(0.0..2.0 * std::f64::consts::PI))
            .collect();
        Reader {
            room,
            config,
            schedule,
            offsets,
            tag_phases,
            rng,
            faults: FaultPlan::none(),
        }
    }

    /// Installs a fault-injection plan (see [`FaultPlan`]). The plan is
    /// a pure post-transform on the emitted readings: with
    /// [`FaultPlan::none`] the stream is bit-identical to a reader with
    /// no plan, and the plan never consumes the reader's RNG.
    ///
    /// # Panics
    ///
    /// Panics if the plan's knobs are out of domain (see
    /// [`FaultPlan::assert_valid`]).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        plan.assert_valid();
        self.faults = plan;
    }

    /// Builder-style variant of [`Reader::set_fault_plan`].
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.set_fault_plan(plan);
        self
    }

    /// The reader's configuration.
    pub fn config(&self) -> &ReaderConfig {
        &self.config
    }

    /// The room this reader operates in.
    pub fn room(&self) -> &Room {
        &self.room
    }

    /// Deterministic π-ambiguity flip for a (tag, antenna, channel)
    /// link: stable within a deployment but unknown to the application,
    /// like the real R420 behaviour.
    fn pi_flip(&self, tag: usize, antenna: usize, channel: usize) -> bool {
        if !self.config.pi_ambiguity {
            return false;
        }
        let mut h = self.config.seed ^ 0x9E37_79B9;
        for v in [tag as u64, antenna as u64, channel as u64] {
            h ^= v.wrapping_add(0x9E37_79B9_7F4A_7C15);
            h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^= h >> 31;
        }
        h & 1 == 1
    }

    /// Probability that a tag at distance `d` responds in one slot.
    fn read_probability(&self, d: f64) -> f64 {
        // Logistic fall-off around the harvesting limit; near-certain
        // reads at close range, none far beyond the limit.
        let x = (self.config.half_read_range_m - d) / 0.7;
        0.98 / (1.0 + (-x).exp())
    }

    /// Gaussian sample via Box–Muller.
    fn gauss(&mut self, std: f64) -> f64 {
        if std <= 0.0 {
            return 0.0;
        }
        let u1: f64 = self.rng.gen_range(1e-12..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Runs one inventory round (each antenna port once) starting at
    /// time `t`, against the given scene.
    pub fn inventory_round(&mut self, scene: &SceneSnapshot, t: f64) -> Vec<TagReading> {
        let mut out = Vec::new();
        for a in 0..self.config.n_antennas {
            let t_a = t + a as f64 * self.config.inventory_slot_s;
            let channel = self.schedule.channel_at(t_a);
            let freq = self.schedule.frequency_at(t_a);
            let mut reads_this_slot = 0usize;
            for (tag_idx, &pos) in scene.tag_positions.iter().enumerate() {
                if let Some(cap) = self.config.slot_capacity {
                    if reads_this_slot >= cap {
                        break; // Gen2 slot exhausted: remaining tags miss out
                    }
                }
                let d = pos.distance(self.config.array_center);
                let p_read = self.read_probability(d);
                if self.rng.gen_range(0.0..1.0) > p_read {
                    continue;
                }
                let paths = if self.config.second_order_reflections {
                    enumerate_paths_second_order(
                        &self.room,
                        pos,
                        self.config.array_center,
                        self.config.array_axis,
                        &scene.blockers,
                        self.config.min_path_amplitude,
                    )
                } else {
                    enumerate_paths(
                        &self.room,
                        pos,
                        self.config.array_center,
                        self.config.array_axis,
                        &scene.blockers,
                        self.config.min_path_amplitude,
                    )
                };
                let h = backscatter_response(&paths, a, self.config.antenna_spacing_m, freq);
                if h.norm() < 1e-12 {
                    continue; // deep fade: no decodable response
                }
                let tag_phase = self.tag_phases[tag_idx];
                let mut phase = h.arg()
                    + tag_phase
                    + self.offsets.offset(a, channel)
                    + self.gauss(self.config.phase_noise_std);
                if self.pi_flip(tag_idx, a, channel) {
                    phase += std::f64::consts::PI;
                }
                let phase = phase.rem_euclid(2.0 * std::f64::consts::PI);

                let rssi_raw =
                    20.0 * h.norm().log10() - 10.0 + self.gauss(self.config.rssi_noise_db);
                let q = self.config.rssi_quantum_db;
                let rssi = if q > 0.0 {
                    (rssi_raw / q).round() * q
                } else {
                    rssi_raw
                };

                let v = scene.velocity(tag_idx);
                let radial = v.dot((self.config.array_center - pos).normalized());
                let doppler = 2.0 * radial * freq / SPEED_OF_LIGHT + self.gauss(0.3);

                // The clean read happened (it consumed RNG and a Gen2
                // slot) even if the fault layer then loses the report.
                reads_this_slot += 1;
                let reading = TagReading {
                    time_s: t_a,
                    tag: TagId(tag_idx),
                    antenna: a,
                    channel,
                    frequency_hz: freq,
                    phase_rad: phase,
                    rssi_dbm: rssi,
                    doppler_hz: doppler,
                };
                if let Some(reading) = self.faults.transform(reading) {
                    out.push(reading);
                }
            }
        }
        reads_emitted().add(out.len() as u64);
        out
    }

    /// Runs the reader for `duration_s`, querying `scene_at` for the
    /// world state at the start of each inventory round.
    ///
    /// Returns all read reports in time order.
    pub fn run<F>(&mut self, mut scene_at: F, duration_s: f64) -> Vec<TagReading>
    where
        F: FnMut(f64) -> SceneSnapshot,
    {
        let round = self.config.round_duration_s();
        let mut out = Vec::new();
        let mut t = 0.0;
        while t < duration_s {
            let scene = scene_at(t);
            out.extend(self.inventory_round(&scene, t));
            t += round;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn static_scene(d: f64) -> SceneSnapshot {
        // Tag straight ahead of the default array centre (5.0, 0.3).
        SceneSnapshot::with_tags(vec![Point2::new(5.0, 0.3 + d)])
    }

    #[test]
    fn produces_readings_for_nearby_tag() {
        let mut reader = Reader::new(Room::hall(), ReaderConfig::default(), 1);
        let readings = reader.run(|_| static_scene(3.0), 2.0);
        // 20 rounds × 4 antennas ≈ 80 slots, high read probability.
        assert!(readings.len() > 80 / 2, "got {}", readings.len());
        for r in &readings {
            assert!((0.0..2.0 * std::f64::consts::PI).contains(&r.phase_rad));
            assert!(r.rssi_dbm < 0.0);
            assert!(r.channel < crate::channel::N_CHANNELS);
        }
    }

    #[test]
    fn read_rate_decays_with_distance() {
        let cfg = ReaderConfig::default();
        let mut near = Reader::new(Room::hall(), cfg.clone(), 1);
        let n_near = near.run(|_| static_scene(2.0), 4.0).len();
        let mut far = Reader::new(Room::hall(), cfg.clone(), 1);
        let n_far = far.run(|_| static_scene(6.5), 4.0).len();
        let mut gone = Reader::new(Room::hall(), cfg, 1);
        let n_gone = gone.run(|_| static_scene(15.0), 4.0).len();
        assert!(n_near > n_far, "near {n_near} vs far {n_far}");
        assert_eq!(n_gone, 0, "beyond range must not read");
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = ReaderConfig::default();
        let run1 = Reader::new(Room::hall(), cfg.clone(), 1).run(|_| static_scene(3.0), 1.0);
        let run2 = Reader::new(Room::hall(), cfg, 1).run(|_| static_scene(3.0), 1.0);
        assert_eq!(run1, run2);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg2 = ReaderConfig {
            seed: 99,
            ..ReaderConfig::default()
        };
        let run1 =
            Reader::new(Room::hall(), ReaderConfig::default(), 1).run(|_| static_scene(3.0), 1.0);
        let run2 = Reader::new(Room::hall(), cfg2, 1).run(|_| static_scene(3.0), 1.0);
        assert_ne!(run1, run2);
    }

    #[test]
    fn antennas_round_robin_within_round() {
        let mut reader = Reader::new(Room::hall(), ReaderConfig::default(), 1);
        let scene = static_scene(2.0);
        let readings = reader.inventory_round(&scene, 0.0);
        let antennas: Vec<usize> = readings.iter().map(|r| r.antenna).collect();
        // With a 2 m tag nearly every slot reads; antennas appear in order.
        assert!(antennas.len() >= 3);
        for w in antennas.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn channel_constant_within_round() {
        let mut reader = Reader::new(Room::hall(), ReaderConfig::default(), 2);
        let scene = SceneSnapshot::with_tags(vec![Point2::new(4.0, 3.0), Point2::new(6.0, 3.0)]);
        let readings = reader.inventory_round(&scene, 0.0);
        // Round duration 100 ms < dwell 400 ms ⇒ single channel.
        let channels: std::collections::HashSet<usize> =
            readings.iter().map(|r| r.channel).collect();
        assert_eq!(channels.len(), 1);
    }

    #[test]
    fn hopping_changes_channel_across_dwells() {
        let mut reader = Reader::new(Room::hall(), ReaderConfig::default(), 1);
        let readings = reader.run(|_| static_scene(3.0), 3.0);
        let channels: std::collections::HashSet<usize> =
            readings.iter().map(|r| r.channel).collect();
        assert!(channels.len() >= 3, "expected several dwells in 3 s");
    }

    #[test]
    fn stationary_tag_phase_stable_within_channel() {
        // Same channel + stationary scene ⇒ phase varies only by noise.
        let cfg = ReaderConfig {
            phase_noise_std: 0.0,
            rssi_noise_db: 0.0,
            ..ReaderConfig::default()
        };
        let mut reader = Reader::new(Room::hall(), cfg, 1);
        let scene = static_scene(3.0);
        let r1 = reader.inventory_round(&scene, 0.0);
        let r2 = reader.inventory_round(&scene, 0.1); // same dwell
        for (a, b) in r1.iter().zip(&r2) {
            assert_eq!(a.antenna, b.antenna);
            assert!((a.phase_rad - b.phase_rad).abs() < 1e-9);
        }
    }

    #[test]
    fn pi_ambiguity_flips_some_links() {
        let reader = Reader::new(Room::hall(), ReaderConfig::default(), 3);
        let mut flips = 0;
        let mut total = 0;
        for tag in 0..3 {
            for a in 0..4 {
                for c in 0..50 {
                    total += 1;
                    if reader.pi_flip(tag, a, c) {
                        flips += 1;
                    }
                }
            }
        }
        let frac = flips as f64 / total as f64;
        assert!((0.3..0.7).contains(&frac), "flip fraction {frac}");
    }

    #[test]
    fn rssi_is_quantised() {
        let mut reader = Reader::new(Room::hall(), ReaderConfig::default(), 1);
        let readings = reader.run(|_| static_scene(3.0), 1.0);
        for r in readings {
            let steps = r.rssi_dbm / 0.5;
            assert!((steps - steps.round()).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "n_antennas")]
    fn rejects_too_many_antennas() {
        let cfg = ReaderConfig {
            n_antennas: 5,
            ..ReaderConfig::default()
        };
        Reader::new(Room::hall(), cfg, 1);
    }

    #[test]
    fn slot_capacity_limits_reads_per_slot() {
        let scene = SceneSnapshot::with_tags(vec![
            Point2::new(4.0, 2.0),
            Point2::new(5.0, 2.0),
            Point2::new(6.0, 2.0),
        ]);
        let cfg = ReaderConfig {
            slot_capacity: Some(2),
            ..ReaderConfig::default()
        };
        let mut reader = Reader::new(Room::hall(), cfg, 3);
        let readings = reader.run(|_| scene.clone(), 2.0);
        // No (antenna, round) pair may exceed the capacity.
        use std::collections::HashMap;
        let mut per_slot: HashMap<(usize, i64), usize> = HashMap::new();
        for r in &readings {
            let round = (r.time_s / 0.025).round() as i64;
            *per_slot.entry((r.antenna, round)).or_default() += 1;
        }
        assert!(per_slot.values().all(|&c| c <= 2));
        // Tag 2 (enumerated last) is starved relative to tag 0.
        let count = |tag: usize| readings.iter().filter(|r| r.tag == TagId(tag)).count();
        assert!(count(0) >= count(2));
    }

    #[test]
    fn second_order_changes_the_channel() {
        let cfg2 = ReaderConfig {
            second_order_reflections: true,
            ..ReaderConfig::default()
        };
        let base = Reader::new(Room::laboratory(), ReaderConfig::default(), 1)
            .run(|_| static_scene(3.0), 0.5);
        let rich = Reader::new(Room::laboratory(), cfg2, 1).run(|_| static_scene(3.0), 0.5);
        assert_eq!(base.len(), rich.len());
        assert!(
            base.iter()
                .zip(&rich)
                .any(|(a, b)| (a.phase_rad - b.phase_rad).abs() > 1e-6),
            "double bounces must perturb phases"
        );
    }

    #[test]
    fn none_fault_plan_is_bit_identical() {
        let cfg = ReaderConfig::default();
        let clean = Reader::new(Room::hall(), cfg.clone(), 1).run(|_| static_scene(3.0), 2.0);
        let planned = Reader::new(Room::hall(), cfg, 1)
            .with_fault_plan(FaultPlan::none())
            .run(|_| static_scene(3.0), 2.0);
        assert_eq!(clean, planned);
    }

    #[test]
    fn faults_reduce_reads_without_perturbing_survivors_downstream() {
        // The fault layer must not consume reader RNG: surviving reads
        // are bit-identical to their clean counterparts.
        let cfg = ReaderConfig::default();
        let clean = Reader::new(Room::hall(), cfg.clone(), 1).run(|_| static_scene(3.0), 2.0);
        let plan = FaultPlan {
            seed: 77,
            miss_rate: 0.4,
            ..FaultPlan::none()
        };
        let faulted = Reader::new(Room::hall(), cfg, 1)
            .with_fault_plan(plan)
            .run(|_| static_scene(3.0), 2.0);
        assert!(faulted.len() < clean.len());
        // Every faulted reading appears verbatim in the clean stream.
        for r in &faulted {
            assert!(clean.contains(r));
        }
    }

    #[test]
    fn doppler_sign_tracks_motion() {
        let cfg = ReaderConfig {
            seed: 5,
            ..ReaderConfig::default()
        };
        let mut reader = Reader::new(Room::hall(), cfg, 1);
        // Tag moving toward the array at 1 m/s.
        let mut scene = static_scene(4.0);
        scene.tag_velocities = vec![Vec2::new(0.0, -1.0)];
        let readings = reader.run(|_| scene.clone(), 4.0);
        let mean_doppler: f64 =
            readings.iter().map(|r| r.doppler_hz).sum::<f64>() / readings.len() as f64;
        // 2·v·f/c ≈ 6 Hz at 910 MHz.
        assert!(mean_doppler > 3.0, "mean doppler {mean_doppler}");
    }
}
