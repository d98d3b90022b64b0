//! Ablation sweep over the reach-tube design choices DESIGN.md calls out:
//! dedup ε, horizon k, grid resolution and sampling mode, measured by (a)
//! STI on a reference cut-in scene and (b) wall-clock per evaluation.
//!
//! The point of the table: STI's *value* is stable across the computational
//! knobs (the metric measures geometry, not sampling artifacts) while the
//! cost varies by an order of magnitude — justifying the fast preset used
//! in the RL loop.

use iprism_bench::{time_ms, CommonArgs};
use iprism_dynamics::{Trajectory, VehicleState};
use iprism_map::RoadMap;
use iprism_reach::{ReachConfig, SamplingMode};
use iprism_risk::{SceneActor, SceneSnapshot, StiEvaluator};
use iprism_sim::ActorId;
use iprism_units::Seconds;

fn reference_scene() -> (RoadMap, SceneSnapshot) {
    let map = RoadMap::straight_road(2, 3.5, 400.0);
    // A cut-in caught mid-manoeuvre: actor crossing into the ego lane 14 m
    // ahead while a leader cruises further out.
    let cutter: Vec<VehicleState> = (0..21)
        .map(|i| {
            let t = i as f64 * 0.25;
            VehicleState::new(114.0 + 9.0 * t, (5.25 - 2.5 * t).max(1.75), -0.2, 9.0)
        })
        .collect();
    let lead: Vec<VehicleState> = (0..21)
        .map(|i| VehicleState::new(135.0 + 8.5 * i as f64 * 0.25, 1.75, 0.0, 8.5))
        .collect();
    let scene = SceneSnapshot::new(0.0, VehicleState::new(100.0, 1.75, 0.0, 10.0), (4.6, 2.0))
        .with_actor(SceneActor::new(
            ActorId(1),
            Trajectory::from_states(Seconds::new(0.0), Seconds::new(0.25), cutter),
            4.6,
            2.0,
        ))
        .with_actor(SceneActor::new(
            ActorId(2),
            Trajectory::from_states(Seconds::new(0.0), Seconds::new(0.25), lead),
            4.6,
            2.0,
        ));
    (map, scene)
}

fn main() {
    let args = CommonArgs::parse();
    let (map, scene) = reference_scene();

    println!("STI ablation on a reference mid-cut-in scene (two actors)\n");
    println!("{:<34}  {:>8}  {:>10}", "configuration", "STI", "ms/eval");
    println!("{}", "-".repeat(58));

    let mut rows: Vec<(String, f64, f64)> = Vec::new();
    let mut run = |label: String, cfg: ReachConfig| {
        let evaluator = StiEvaluator::new(cfg);
        let (sti, ms) = time_ms(5, || evaluator.evaluate_combined(&map, &scene));
        println!("{label:<34}  {sti:>8.3}  {ms:>10.2}");
        rows.push((label, sti, ms));
    };

    run("default".into(), ReachConfig::default());
    run("fast preset".into(), ReachConfig::fast());

    for eps in [0.75, 1.5, 3.0] {
        let c = ReachConfig {
            dedup_epsilon: eps,
            ..ReachConfig::default()
        };
        run(format!("dedup epsilon = {eps}"), c);
    }
    for horizon in [1.5, 2.5, 3.5] {
        let c = ReachConfig {
            horizon: iprism_units::Seconds::new(horizon),
            ..ReachConfig::default()
        };
        run(format!("horizon k = {horizon} s"), c);
    }
    for res in [0.25, 0.5, 1.0] {
        let c = ReachConfig {
            grid_resolution: iprism_units::Meters::new(res),
            ..ReachConfig::default()
        };
        run(format!("grid resolution = {res} m"), c);
    }
    for (name, mode) in [
        ("boundary (paper opt. 2)", SamplingMode::Boundary),
        ("extreme 3x3", SamplingMode::Extreme),
        ("uniform 3x5", SamplingMode::Uniform { na: 3, ns: 5 }),
        ("uniform 4x7", SamplingMode::Uniform { na: 4, ns: 7 }),
    ] {
        let c = ReachConfig {
            mode,
            ..ReachConfig::default()
        };
        run(format!("sampling: {name}"), c);
    }

    // Stability summary: spread of STI across every configuration.
    let stis: Vec<f64> = rows.iter().map(|(_, s, _)| *s).collect();
    let min = stis.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = stis.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    println!("\nSTI spread across all configurations: [{min:.3}, {max:.3}]");
    let times: Vec<f64> = rows.iter().map(|(_, _, t)| *t).collect();
    let tmin = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let tmax = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    println!("cost spread: {tmin:.2}–{tmax:.2} ms per evaluation");
    args.write_json(&rows);
}
