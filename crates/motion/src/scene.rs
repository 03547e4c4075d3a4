//! Composition of scenarios + volunteers into reader-consumable scenes.

use crate::activity::ActivityScenario;
use crate::gesture::TagSite;
use crate::volunteer::Volunteer;
use m2ai_rfsim::geometry::{Point2, Vec2};
use m2ai_rfsim::scene::{Blocker, SceneSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A realised activity scene: a scenario performed by specific
/// volunteers at a specific spot in the room.
///
/// Tag ordering in the produced snapshots is person-major:
/// `person0·hand, person0·arm, person0·shoulder, person1·hand, …` —
/// the frame builders downstream rely on this ordering.
#[derive(Debug, Clone)]
pub struct ActivityScene {
    scenario: ActivityScenario,
    volunteers: Vec<Volunteer>,
    tags_per_person: usize,
    /// Placement centre of the scenario in room coordinates.
    pub placement: Point2,
    /// Small per-sample-instance start-time offset (so two recordings of
    /// the same activity never align exactly).
    pub time_offset: f64,
}

impl ActivityScene {
    /// Default placement ~4.5 m in front of the paper's default array
    /// position.
    pub const DEFAULT_PLACEMENT: Point2 = Point2::new(5.0, 4.8);

    /// Creates a scene with the default placement.
    ///
    /// `tags_per_person` selects the first 1..=3 of hand/arm/shoulder
    /// (the Fig. 15 knob). `seed` randomises the start-time offset.
    ///
    /// # Panics
    ///
    /// Panics if there are fewer volunteers than scenario persons or if
    /// `tags_per_person` is not in `1..=3`.
    pub fn new(
        scenario: &ActivityScenario,
        volunteers: &[Volunteer],
        tags_per_person: usize,
        seed: u64,
    ) -> Self {
        ActivityScene::with_placement(
            scenario,
            volunteers,
            tags_per_person,
            seed,
            Self::DEFAULT_PLACEMENT,
        )
    }

    /// Creates a scene centred at `placement`.
    ///
    /// # Panics
    ///
    /// See [`ActivityScene::new`].
    pub fn with_placement(
        scenario: &ActivityScenario,
        volunteers: &[Volunteer],
        tags_per_person: usize,
        seed: u64,
        placement: Point2,
    ) -> Self {
        assert!(
            volunteers.len() >= scenario.n_persons(),
            "need one volunteer per person"
        );
        assert!(
            (1..=3).contains(&tags_per_person),
            "tags_per_person must be 1..=3"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        ActivityScene {
            scenario: scenario.clone(),
            volunteers: volunteers[..scenario.n_persons()].to_vec(),
            tags_per_person,
            placement,
            time_offset: rng.gen_range(0.0..0.8),
        }
    }

    /// Number of tags in the produced snapshots.
    pub fn n_tags(&self) -> usize {
        self.scenario.n_persons() * self.tags_per_person
    }

    /// The scenario being performed.
    pub fn scenario(&self) -> &ActivityScenario {
        &self.scenario
    }

    /// World state at time `t`, ready for the simulated reader.
    pub fn snapshot(&self, t: f64) -> SceneSnapshot {
        let t = t + self.time_offset;
        let n_persons = self.scenario.n_persons();
        let mut tag_positions = Vec::with_capacity(self.n_tags());
        let mut blockers = Vec::with_capacity(n_persons);

        for i in 0..n_persons {
            let prog = &self.scenario.programs[i];
            let vol = &self.volunteers[i];
            let anchor = self.placement + prog.anchor_offset;
            let body = prog.trajectory.position(anchor, t, vol);
            let (sx, sy) = vol.sway(t);
            let body = body + Vec2::new(sx, sy);
            let heading = prog.trajectory.heading(t, vol);
            let heading_angle = heading.angle();

            for site in TagSite::ALL.iter().take(self.tags_per_person) {
                let rest = site.rest_offset() * vol.body_scale;
                let offset = rest + prog.script.offset(*site, t, vol);
                // Rotate body-frame offset into the room frame.
                let world = offset.rotated(heading_angle);
                tag_positions.push(body + world);
            }
            blockers.push(Blocker::person(body));
        }

        // Velocities by central difference (smooth trajectories).
        let dt = 5e-3;
        let ahead = self.positions_raw(t + dt);
        let behind = self.positions_raw(t - dt);
        let tag_velocities = ahead
            .iter()
            .zip(&behind)
            .map(|(a, b)| (*a - *b) * (1.0 / (2.0 * dt)))
            .collect();

        SceneSnapshot {
            tag_positions,
            tag_velocities,
            blockers,
        }
    }

    /// Tag positions only (used for velocity differencing), with `t`
    /// already offset.
    fn positions_raw(&self, t: f64) -> Vec<Point2> {
        let n_persons = self.scenario.n_persons();
        let mut out = Vec::with_capacity(self.n_tags());
        for i in 0..n_persons {
            let prog = &self.scenario.programs[i];
            let vol = &self.volunteers[i];
            let anchor = self.placement + prog.anchor_offset;
            let body = prog.trajectory.position(anchor, t, vol);
            let (sx, sy) = vol.sway(t);
            let body = body + Vec2::new(sx, sy);
            let heading_angle = prog.trajectory.heading(t, vol).angle();
            for site in TagSite::ALL.iter().take(self.tags_per_person) {
                let rest = site.rest_offset() * vol.body_scale;
                let offset = rest + prog.script.offset(*site, t, vol);
                out.push(body + offset.rotated(heading_angle));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::catalog;

    fn volunteers(n: usize) -> Vec<Volunteer> {
        (0..n).map(Volunteer::preset).collect()
    }

    #[test]
    fn snapshot_shape_matches_configuration() {
        for n_persons in 1..=3 {
            for tags in 1..=3 {
                let cat = catalog(n_persons);
                let scene = ActivityScene::new(&cat[0], &volunteers(3), tags, 1);
                let snap = scene.snapshot(0.5);
                assert_eq!(snap.tag_positions.len(), n_persons * tags);
                assert_eq!(snap.tag_velocities.len(), n_persons * tags);
                assert_eq!(snap.blockers.len(), n_persons);
            }
        }
    }

    #[test]
    fn snapshots_are_deterministic() {
        let cat = catalog(2);
        let s1 = ActivityScene::new(&cat[3], &volunteers(2), 3, 7);
        let s2 = ActivityScene::new(&cat[3], &volunteers(2), 3, 7);
        assert_eq!(s1.snapshot(1.23), s2.snapshot(1.23));
    }

    #[test]
    fn different_seeds_shift_time_offset() {
        let cat = catalog(2);
        let s1 = ActivityScene::new(&cat[0], &volunteers(2), 3, 1);
        let s2 = ActivityScene::new(&cat[0], &volunteers(2), 3, 2);
        assert_ne!(s1.time_offset, s2.time_offset);
        assert_ne!(s1.snapshot(1.0), s2.snapshot(1.0));
    }

    #[test]
    fn tags_stay_near_their_person() {
        let cat = catalog(2);
        let scene = ActivityScene::new(&cat[0], &volunteers(2), 3, 3);
        for i in 0..40 {
            let t = i as f64 * 0.25;
            let snap = scene.snapshot(t);
            for (tag_idx, pos) in snap.tag_positions.iter().enumerate() {
                let person = tag_idx / 3;
                let body = snap.blockers[person].center;
                assert!(
                    pos.distance(body) < 1.2,
                    "tag {tag_idx} strayed {} m at t={t}",
                    pos.distance(body)
                );
            }
        }
    }

    #[test]
    fn motion_is_continuous() {
        let cat = catalog(2);
        for scenario in &cat {
            let scene = ActivityScene::new(scenario, &volunteers(2), 3, 5);
            let mut prev = scene.snapshot(0.0);
            for i in 1..60 {
                let t = i as f64 * 0.05;
                let snap = scene.snapshot(t);
                for (a, b) in snap.tag_positions.iter().zip(&prev.tag_positions) {
                    assert!(
                        a.distance(*b) < 0.35,
                        "{}: jump of {} m at t={t}",
                        scenario.id,
                        a.distance(*b)
                    );
                }
                prev = snap;
            }
        }
    }

    #[test]
    fn velocities_match_finite_difference() {
        let cat = catalog(2);
        let scene = ActivityScene::new(&cat[0], &volunteers(2), 3, 9);
        let t = 1.0;
        let dt = 1e-3;
        let a = scene.snapshot(t - dt);
        let b = scene.snapshot(t + dt);
        let snap = scene.snapshot(t);
        for k in 0..snap.tag_positions.len() {
            let fd = (b.tag_positions[k] - a.tag_positions[k]) * (1.0 / (2.0 * dt));
            let v = snap.tag_velocities[k];
            assert!(
                (fd - v).length() < 0.2,
                "tag {k}: fd {:?} vs reported {:?}",
                fd,
                v
            );
        }
    }

    #[test]
    fn activities_produce_distinct_trajectories() {
        // Different classes must differ somewhere in tag space.
        let cat = catalog(2);
        let scenes: Vec<ActivityScene> = cat
            .iter()
            .map(|s| {
                let mut scene = ActivityScene::new(s, &volunteers(2), 3, 11);
                scene.time_offset = 0.0; // align for comparison
                scene
            })
            .collect();
        for i in 0..scenes.len() {
            for j in (i + 1)..scenes.len() {
                let mut max_gap: f64 = 0.0;
                for k in 0..40 {
                    let t = k as f64 * 0.2;
                    let a = scenes[i].snapshot(t);
                    let b = scenes[j].snapshot(t);
                    for (pa, pb) in a.tag_positions.iter().zip(&b.tag_positions) {
                        max_gap = max_gap.max(pa.distance(*pb));
                    }
                }
                assert!(
                    max_gap > 0.05,
                    "classes {} and {} indistinguishable",
                    cat[i].id,
                    cat[j].id
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "volunteer")]
    fn too_few_volunteers_panics() {
        let cat = catalog(2);
        ActivityScene::new(&cat[0], &volunteers(1), 3, 0);
    }

    #[test]
    #[should_panic(expected = "tags_per_person")]
    fn zero_tags_panics() {
        let cat = catalog(1);
        ActivityScene::new(&cat[0], &volunteers(1), 0, 0);
    }
}
