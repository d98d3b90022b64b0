//! Property tests for the paper's numeric invariants (Eq. 4–5):
//!
//! * STI values — combined and per-actor — always lie in `[0, 1]`.
//! * Reach-tube volumes are monotone in the obstacle set:
//!   `|T| ≤ |T^{/i}| ≤ |T^∅|` up to the documented ε-dedup tolerance
//!   (`iprism_contracts::TUBE_MONOTONE_REL_TOL` / `_ABS_TOL`).
//! * `StiEvaluator::evaluate` reproduces the naive reference, which builds
//!   every one of the `N + 2` tubes from scratch, bit for bit.
//!
//! These run the full reach-tube pipeline on randomized scenes, so the
//! contract checks inside `StiEvaluator::evaluate`, active in debug
//! builds, are exercised on every case as well.

use iprism_dynamics::{Trajectory, VehicleState};
use iprism_map::RoadMap;
use iprism_reach::{compute_reach_tube, ReachConfig};
use iprism_risk::{SceneActor, SceneSnapshot, StiEvaluator};
use iprism_sim::ActorId;
use iprism_units::Seconds;
use proptest::prelude::*;

fn parked(id: u32, x: f64, y: f64) -> SceneActor {
    SceneActor::new(
        ActorId(id),
        Trajectory::from_states(
            Seconds::new(0.0),
            Seconds::new(2.5),
            vec![VehicleState::new(x, y, 0.0, 0.0); 2],
        ),
        4.6,
        2.0,
    )
}

fn scene(ego_v: f64, ax: f64, ay: f64, bx: f64, by: f64) -> (RoadMap, SceneSnapshot) {
    let map = RoadMap::straight_road(3, 3.5, 600.0);
    let ego = VehicleState::new(100.0, 5.25, 0.0, ego_v);
    let snapshot = SceneSnapshot::new(0.0, ego, (4.6, 2.0))
        .with_actor(parked(1, ax, ay))
        .with_actor(parked(2, bx, by));
    (map, snapshot)
}

proptest! {
    #[test]
    fn sti_always_in_unit_interval(
        ego_v in 0.0..15.0f64,
        ax in 90.0..140.0f64, ay in 0.5..10.0f64,
        bx in 90.0..140.0f64, by in 0.5..10.0f64,
    ) {
        let (map, snapshot) = scene(ego_v, ax, ay, bx, by);
        let sti = StiEvaluator::new(ReachConfig::fast()).evaluate(&map, &snapshot);
        prop_assert!(
            (0.0..=1.0).contains(&sti.combined),
            "combined STI out of bounds: {}",
            sti.combined
        );
        for (id, v) in &sti.per_actor {
            prop_assert!(
                (0.0..=1.0).contains(v),
                "per-actor STI out of bounds for {id:?}: {v}"
            );
        }
        prop_assert!(sti.volume_all >= 0.0 && sti.volume_empty >= 0.0);
    }

    #[test]
    fn tube_volume_monotone_in_obstacle_set(
        ego_v in 0.0..15.0f64,
        ax in 90.0..140.0f64, ay in 0.5..10.0f64,
        bx in 90.0..140.0f64, by in 0.5..10.0f64,
    ) {
        let (map, snapshot) = scene(ego_v, ax, ay, bx, by);
        let cfg = {
            let mut c = ReachConfig::fast();
            c.ego_dims = (
                iprism_units::Meters::new(snapshot.ego_dims.0),
                iprism_units::Meters::new(snapshot.ego_dims.1),
            );
            c
        };
        let v_all = compute_reach_tube(&map, snapshot.ego, &snapshot.obstacles(), &cfg).volume();
        let v_empty = compute_reach_tube(&map, snapshot.ego, &[], &cfg).volume();
        let tol = |v: f64| v * (1.0 + iprism_contracts::TUBE_MONOTONE_REL_TOL)
            + iprism_contracts::TUBE_MONOTONE_ABS_TOL;
        let mut naive_sti = Vec::with_capacity(snapshot.actors.len());
        for actor in &snapshot.actors {
            let v_without = compute_reach_tube(
                &map,
                snapshot.ego,
                &snapshot.obstacles_without(actor.id),
                &cfg,
            )
            .volume();
            prop_assert!(
                v_all <= tol(v_without),
                "removing {:?} shrank the tube: |T|={v_all} vs |T^/i|={v_without}",
                actor.id
            );
            prop_assert!(
                v_without <= tol(v_empty),
                "counterfactual exceeds empty world: |T^/i|={v_without} vs |T^∅|={v_empty}"
            );
            let sti = if v_empty <= 0.0 {
                0.0
            } else {
                ((v_without - v_all) / v_empty).clamp(0.0, 1.0)
            };
            naive_sti.push((actor.id, sti.to_bits()));
        }

        // The evaluator derives `T^∅` and patches only the actors its
        // traced build blamed; the naive tubes above pin all of it.
        let sti = StiEvaluator::new(ReachConfig::fast()).evaluate(&map, &snapshot);
        prop_assert_eq!(sti.volume_all.to_bits(), v_all.to_bits());
        prop_assert_eq!(sti.volume_empty.to_bits(), v_empty.to_bits());
        let per_actor: Vec<(ActorId, u64)> =
            sti.per_actor.iter().map(|&(id, v)| (id, v.to_bits())).collect();
        prop_assert_eq!(per_actor, naive_sti);
    }
}
