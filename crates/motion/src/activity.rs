//! The catalogue of activity scenarios (the paper's Fig. 8 set).
//!
//! Each scenario assigns every person a whole-body [`Trajectory`] and a
//! (possibly sequenced) [`Gesture`] script. Four class pairs are
//! deliberately *order-mirrored* — identical position/gesture
//! distributions over the recording window, opposite temporal order
//! (A05/A06 and A07/A08 swap gesture sequences; A09/A10 orbit in
//! opposite directions; A11/A12 shuttle in opposite phase). A
//! classifier without temporal memory (per-frame CNN, time-averaged
//! SVM features) cannot beat a coin flip on those pairs, while the
//! LSTM separates them — the paper's argument for the CNN+LSTM design
//! (Fig. 9 and Fig. 17).

use crate::gesture::{Gesture, TagSite};
use crate::trajectory::Trajectory;
use crate::volunteer::Volunteer;
use m2ai_rfsim::geometry::Vec2;

/// Scenario-catalogue build counter, resolved once per process.
fn catalog_builds() -> &'static m2ai_obs::Counter {
    static C: std::sync::OnceLock<m2ai_obs::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| {
        m2ai_obs::counter(
            "m2ai_motion_catalog_builds_total",
            "activity scenario catalogues constructed",
            &[],
        )
    })
}

/// Identifier of an activity class (1-based, `A 01`…`A 12` as in
/// Table I of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActivityId(pub u8);

impl std::fmt::Display for ActivityId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "A {:02}", self.0)
    }
}

/// A timed sequence of gestures that repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct GestureScript {
    steps: Vec<(f64, Gesture)>,
    total_s: f64,
}

impl GestureScript {
    /// A script holding a single gesture forever.
    pub fn constant(g: Gesture) -> Self {
        GestureScript {
            steps: vec![(f64::INFINITY, g)],
            total_s: f64::INFINITY,
        }
    }

    /// A repeating sequence of `(duration_s, gesture)` steps.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty or a duration is not positive.
    pub fn sequence(steps: Vec<(f64, Gesture)>) -> Self {
        assert!(!steps.is_empty(), "script must have at least one step");
        assert!(
            steps.iter().all(|&(d, _)| d > 0.0),
            "durations must be positive"
        );
        let total_s = steps.iter().map(|&(d, _)| d).sum();
        GestureScript { steps, total_s }
    }

    /// The active gesture at time `t` and the time elapsed inside it.
    pub fn at(&self, t: f64) -> (Gesture, f64) {
        let (idx, local) = self.step_at(t);
        (self.steps[idx].1, local)
    }

    /// Index of the active step at time `t` and the time elapsed
    /// inside it.
    fn step_at(&self, t: f64) -> (usize, f64) {
        if self.total_s.is_infinite() {
            return (0, t);
        }
        let mut local = t.rem_euclid(self.total_s);
        for (i, &(d, _)) in self.steps.iter().enumerate() {
            if local < d {
                return (i, local);
            }
            local -= d;
        }
        // Floating-point edge: land on the final step.
        (
            self.steps.len() - 1,
            self.steps.last().expect("non-empty").0,
        )
    }

    /// Seconds over which consecutive steps cross-fade.
    const BLEND_S: f64 = 0.35;

    /// Tag offset of `site` at time `t`, for the given volunteer.
    ///
    /// At a step boundary the outgoing gesture keeps playing and fades
    /// out while the incoming one fades in (smoothstep over
    /// `BLEND_S` seconds) — limbs move continuously between
    /// gestures instead of teleporting to the next pose.
    pub fn offset(&self, site: TagSite, t: f64, vol: &Volunteer) -> Vec2 {
        let (idx, local) = self.step_at(t);
        let cur = self.steps[idx].1.offset(site, local, vol);
        if self.steps.len() < 2 || local >= Self::BLEND_S {
            return cur;
        }
        let prev_idx = (idx + self.steps.len() - 1) % self.steps.len();
        let (prev_d, prev_g) = self.steps[prev_idx];
        let prev = prev_g.offset(site, prev_d + local, vol);
        let u = local / Self::BLEND_S;
        let w = u * u * (3.0 - 2.0 * u);
        prev * (1.0 - w) + cur * w
    }
}

/// Everything one person does during a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct PersonProgram {
    /// Anchor offset from the scenario placement centre (metres).
    pub anchor_offset: Vec2,
    /// Whole-body trajectory.
    pub trajectory: Trajectory,
    /// Limb gesture script.
    pub script: GestureScript,
}

/// A complete multi-person activity scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityScenario {
    /// Class identifier.
    pub id: ActivityId,
    /// Human-readable description.
    pub name: &'static str,
    /// One program per participating person.
    pub programs: Vec<PersonProgram>,
}

impl ActivityScenario {
    /// Number of persons in the scenario.
    pub fn n_persons(&self) -> usize {
        self.programs.len()
    }
}

/// Standard anchor offsets for up to three persons.
fn anchors(n: usize) -> Vec<Vec2> {
    let all = [
        Vec2::new(-1.25, 0.0),
        Vec2::new(1.25, 0.0),
        Vec2::new(0.0, 1.5),
    ];
    all[..n].to_vec()
}

fn program(anchor: Vec2, trajectory: Trajectory, script: GestureScript) -> PersonProgram {
    PersonProgram {
        anchor_offset: anchor,
        trajectory,
        script,
    }
}

/// Builds the 12-scenario catalogue for `n_persons` ∈ {1, 2, 3}.
///
/// Two persons is the paper's default (Fig. 8); one and three persons
/// are the Fig. 11 variants. The twelve classes keep the same ids and
/// flavour across person counts so accuracies are comparable.
///
/// # Panics
///
/// Panics unless `n_persons` is 1, 2 or 3.
pub fn catalog(n_persons: usize) -> Vec<ActivityScenario> {
    assert!(
        (1..=3).contains(&n_persons),
        "scenarios defined for 1..=3 persons"
    );
    catalog_builds().inc();
    let a = anchors(n_persons);
    let wave = || GestureScript::constant(Gesture::Wave { freq_hz: 1.0 });
    let squat = || GestureScript::constant(Gesture::Squat { period_s: 2.5 });
    let raise = || GestureScript::constant(Gesture::RaiseArm { period_s: 2.0 });
    let push = || GestureScript::constant(Gesture::PushPull { period_s: 1.6 });
    let swing = || GestureScript::constant(Gesture::SwingArms { period_s: 1.2 });
    let still = || GestureScript::constant(Gesture::Still);
    // Order-mirrored gesture sequences: identical halves, swapped.
    let wave_then_squat = || {
        GestureScript::sequence(vec![
            (3.0, Gesture::Wave { freq_hz: 1.0 }),
            (3.0, Gesture::Squat { period_s: 2.5 }),
        ])
    };
    let squat_then_wave = || {
        GestureScript::sequence(vec![
            (3.0, Gesture::Squat { period_s: 2.5 }),
            (3.0, Gesture::Wave { freq_hz: 1.0 }),
        ])
    };
    let raise_then_push = || {
        GestureScript::sequence(vec![
            (3.0, Gesture::RaiseArm { period_s: 2.0 }),
            (3.0, Gesture::PushPull { period_s: 1.6 }),
        ])
    };
    let push_then_raise = || {
        GestureScript::sequence(vec![
            (3.0, Gesture::PushPull { period_s: 1.6 }),
            (3.0, Gesture::RaiseArm { period_s: 2.0 }),
        ])
    };
    let hold = Trajectory::Hold;
    let shuttle = |phase: f64| Trajectory::Shuttle {
        heading: Vec2::new(1.0, 0.0),
        half_length_m: 0.7,
        period_s: 4.0,
        phase,
    };
    let orbit = |center: Vec2, reverse: bool| Trajectory::Orbit {
        center_offset: center,
        period_s: 8.0,
        phase: 0.0,
        reverse,
    };

    let mut scenarios = Vec::with_capacity(12);
    for id in 1..=12u8 {
        let (name, programs): (&'static str, Vec<PersonProgram>) = match id {
            1 => (
                "all wave hands",
                a.iter().map(|&o| program(o, hold, wave())).collect(),
            ),
            2 => (
                "all squat",
                a.iter().map(|&o| program(o, hold, squat())).collect(),
            ),
            // With a single person, "wave vs squat" would collapse
            // onto class 1; the solo variants use the other two
            // gestures so all twelve classes stay distinct (Fig. 11).
            3 => (
                if n_persons == 1 {
                    "arm raises"
                } else {
                    "wave vs squat"
                },
                a.iter()
                    .enumerate()
                    .map(|(i, &o)| {
                        let script = if n_persons == 1 {
                            raise()
                        } else if i % 2 == 0 {
                            wave()
                        } else {
                            squat()
                        };
                        program(o, hold, script)
                    })
                    .collect(),
            ),
            4 => (
                if n_persons == 1 {
                    "push-pull"
                } else {
                    "arm raises vs push-pull"
                },
                a.iter()
                    .enumerate()
                    .map(|(i, &o)| {
                        let script = if n_persons == 1 {
                            push()
                        } else if i % 2 == 0 {
                            raise()
                        } else {
                            push()
                        };
                        program(o, hold, script)
                    })
                    .collect(),
            ),
            // Order-mirrored pair 1: gesture sequence A↔B.
            5 => (
                "wave then squat",
                a.iter()
                    .enumerate()
                    .map(|(i, &o)| {
                        program(o, hold, if i == 0 { wave_then_squat() } else { still() })
                    })
                    .collect(),
            ),
            6 => (
                "squat then wave",
                a.iter()
                    .enumerate()
                    .map(|(i, &o)| {
                        program(o, hold, if i == 0 { squat_then_wave() } else { still() })
                    })
                    .collect(),
            ),
            // Order-mirrored pair 2: a second sequence pair with a
            // waving partner.
            7 => (
                "raise then push (partner waves)",
                a.iter()
                    .enumerate()
                    .map(|(i, &o)| {
                        program(o, hold, if i == 0 { raise_then_push() } else { wave() })
                    })
                    .collect(),
            ),
            8 => (
                "push then raise (partner waves)",
                a.iter()
                    .enumerate()
                    .map(|(i, &o)| {
                        program(o, hold, if i == 0 { push_then_raise() } else { wave() })
                    })
                    .collect(),
            ),
            // Order-mirrored pair 3: orbit direction.
            9 => (
                "circle counter-clockwise",
                a.iter()
                    .map(|&o| program(o, orbit(-o, false), swing()))
                    .collect(),
            ),
            10 => (
                "circle clockwise",
                a.iter()
                    .map(|&o| program(o, orbit(-o, true), swing()))
                    .collect(),
            ),
            // Order-mirrored pair 4: shuttle phase.
            11 => (
                "pace starting right",
                a.iter()
                    .map(|&o| program(o, shuttle(0.0), swing()))
                    .collect(),
            ),
            12 => (
                "pace starting left",
                a.iter()
                    .map(|&o| program(o, shuttle(std::f64::consts::PI), swing()))
                    .collect(),
            ),
            _ => unreachable!(),
        };
        scenarios.push(ActivityScenario {
            id: ActivityId(id),
            name,
            programs,
        });
    }
    scenarios
}

/// Indices (0-based) of the order-mirrored class pairs — classes a
/// memoryless classifier cannot separate better than chance.
pub const ORDER_MIRRORED_PAIRS: [(usize, usize); 4] = [(4, 5), (6, 7), (8, 9), (10, 11)];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_scenarios_per_person_count() {
        for n in 1..=3 {
            let cat = catalog(n);
            assert_eq!(cat.len(), 12);
            for s in &cat {
                assert_eq!(s.n_persons(), n, "{}", s.id);
            }
        }
    }

    #[test]
    fn ids_are_one_based_and_unique() {
        let cat = catalog(2);
        let ids: Vec<u8> = cat.iter().map(|s| s.id.0).collect();
        assert_eq!(ids, (1..=12).collect::<Vec<u8>>());
        assert_eq!(cat[0].id.to_string(), "A 01");
    }

    #[test]
    #[should_panic(expected = "1..=3")]
    fn four_persons_unsupported() {
        catalog(4);
    }

    #[test]
    fn script_sequencing() {
        let s = GestureScript::sequence(vec![
            (2.0, Gesture::Wave { freq_hz: 1.0 }),
            (3.0, Gesture::Squat { period_s: 2.5 }),
        ]);
        assert!(matches!(s.at(0.5).0, Gesture::Wave { .. }));
        assert!(matches!(s.at(2.5).0, Gesture::Squat { .. }));
        // Wraps around after 5 s.
        assert!(matches!(s.at(5.5).0, Gesture::Wave { .. }));
        // Local time resets per step.
        assert!((s.at(2.5).1 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn constant_script_never_switches() {
        let s = GestureScript::constant(Gesture::Still);
        assert!(matches!(s.at(1e6).0, Gesture::Still));
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn empty_sequence_panics() {
        GestureScript::sequence(vec![]);
    }

    #[test]
    fn a05_a06_are_temporal_mirrors() {
        let cat = catalog(2);
        let a05 = &cat[4];
        let a06 = &cat[5];
        // Same gestures, opposite order: at t=1 s A05 waves while A06
        // squats, and vice versa at t=4 s.
        let g05_early = a05.programs[0].script.at(1.0).0;
        let g06_early = a06.programs[0].script.at(1.0).0;
        assert!(matches!(g05_early, Gesture::Wave { .. }));
        assert!(matches!(g06_early, Gesture::Squat { .. }));
        let g05_late = a05.programs[0].script.at(4.0).0;
        let g06_late = a06.programs[0].script.at(4.0).0;
        assert!(matches!(g05_late, Gesture::Squat { .. }));
        assert!(matches!(g06_late, Gesture::Wave { .. }));
    }

    #[test]
    fn mirrored_pairs_visit_identical_positions() {
        // A09/A10 (orbits) and A11/A12 (shuttles) must cover the same
        // point sets, only in opposite order.
        use crate::volunteer::Volunteer;
        use m2ai_rfsim::geometry::Point2;
        let cat = catalog(2);
        let vol = Volunteer::nominal();
        let anchor = Point2::new(5.0, 4.0);
        for &(i, j) in &[(8usize, 9usize), (10, 11)] {
            let ti = cat[i].programs[0].trajectory;
            let tj = cat[j].programs[0].trajectory;
            // Forward pass of one must match the time-reverse of the
            // other over a full period (up to phase alignment for the
            // shuttle pair: sin(π+w) = sin(-w)).
            for k in 0..40 {
                let t = k as f64 * 0.2;
                let p_fwd = ti.position(anchor, t, &vol);
                let p_rev = tj.position(anchor, -t, &vol);
                assert!(
                    p_fwd.distance(p_rev) < 1e-9,
                    "{} vs {} at t={t}",
                    cat[i].id,
                    cat[j].id
                );
            }
        }
    }

    #[test]
    fn anchors_are_distinct() {
        for n in 1..=3 {
            let cat = catalog(n);
            for s in &cat {
                for i in 0..s.programs.len() {
                    for j in (i + 1)..s.programs.len() {
                        let d =
                            (s.programs[i].anchor_offset - s.programs[j].anchor_offset).length();
                        assert!(d > 1.0, "{}: persons {i},{j} too close", s.id);
                    }
                }
            }
        }
    }

    #[test]
    fn order_mirrored_pairs_constant_is_consistent() {
        let cat = catalog(2);
        for &(i, j) in &ORDER_MIRRORED_PAIRS {
            assert!(i < cat.len() && j < cat.len());
            assert_ne!(cat[i].name, cat[j].name);
        }
    }
}
