//! Regenerates EXPERIMENTS.md E11, the paper's §V-E execution overheads
//! (0.61 s per STI evaluation and 12 ms per SMC inference, in Python): the
//! cost per call of each stage the repository benchmark does not report on
//! its own. STI per recorded scene is the benchmark's `op_p50_ms` on its
//! `scene_stream` and `crowd_stream` workloads (`BENCHMARK.json`).
//!
//! Each row is the mean of a fixed number of calls after one warm-up call
//! ([`iprism_bench::time_ms`]); the whole table takes about a second.

use iprism_agents::{LbcAgent, MitigationPolicy};
use iprism_bench::{time_ms, CommonArgs};
use iprism_core::{train_smc, EnvConfig, SmcTrainConfig, FEATURE_DIM};
use iprism_dynamics::{ControlInput, Trajectory, VehicleState};
use iprism_map::RoadMap;
use iprism_reach::{compute_reach_tube, Obstacle, ReachConfig, SamplingMode};
use iprism_risk::{SceneActor, SceneSnapshot, StiEvaluator};
use iprism_rl::{DdqnAgent, Transition};
use iprism_scenarios::{sample_instances, Typology};
use iprism_sim::{Actor, ActorId, Behavior, Episode, EpisodeConfig, Goal, World};
use iprism_units::{Meters, Seconds};

/// A three-lane road with the ego at 10 m/s in the middle lane and `n`
/// actors ahead at 6 m/s, spread over the lanes 12 m apart.
fn scene_with_actors(n: usize) -> (RoadMap, SceneSnapshot) {
    let map = RoadMap::straight_road(3, 3.5, 600.0);
    let mut scene = SceneSnapshot::new(0.0, VehicleState::new(100.0, 5.25, 0.0, 10.0), (4.6, 2.0));
    for i in 0..n {
        let x = 115.0 + 12.0 * i as f64;
        let y = [1.75, 5.25, 8.75][i % 3];
        let states: Vec<VehicleState> = (0..11)
            .map(|k| VehicleState::new(x + 6.0 * 0.25 * k as f64, y, 0.0, 6.0))
            .collect();
        scene.actors.push(SceneActor::new(
            ActorId(i as u32 + 1),
            Trajectory::from_states(Seconds::new(0.0), Seconds::new(0.25), states),
            4.6,
            2.0,
        ));
    }
    (map, scene)
}

/// The ego at 10 m/s, 50 m behind a stopped car on a two-lane road.
fn hazard_world() -> (World, EpisodeConfig) {
    let map = RoadMap::straight_road(2, 3.5, 500.0);
    let mut world = World::new(map, VehicleState::new(30.0, 1.75, 0.0, 10.0), 0.1);
    world.spawn(Actor::vehicle(
        1,
        VehicleState::new(80.0, 1.75, 0.0, 0.0),
        Behavior::Idle,
    ));
    let config = EpisodeConfig {
        max_time: 12.0,
        goal: Goal::XThreshold(200.0),
        stop_on_collision: true,
    };
    (world, config)
}

fn main() {
    let args = CommonArgs::parse();
    let mut rows: Vec<(&str, f64)> = Vec::new();

    // The RL-loop path: traced factual build plus the derived `T^∅`.
    let (map, scene) = scene_with_actors(4);
    let fast = StiEvaluator::new(ReachConfig::fast());
    let (_, ms) = time_ms(50, || fast.evaluate_combined(&map, &scene));
    rows.push(("STI combined, fast preset, 4 actors", ms));

    // A barely trained SMC: the network costs the same either way.
    let mut smc = train_smc(
        vec![hazard_world()],
        LbcAgent::default(),
        &SmcTrainConfig::small_test(),
    )
    .smc;
    let (world, _) = hazard_world();
    let (_, ms) = time_ms(100, || smc.decide(&world));
    rows.push(("SMC inference (CVTR + STI + Q-net, Eq. 10)", ms));
    let features = vec![0.1; FEATURE_DIM];
    let (_, ms) = time_ms(100_000, || smc.agent().q_values(&features));
    rows.push(("Q-network forward", ms));

    // One step of SMC training past `learn_start`: `observe` stores the
    // transition and runs one minibatch update (`learn_batch`) on the
    // training network (19 features → 64 → 64 → 3 actions, batch 32).
    let ddqn = SmcTrainConfig::default().ddqn;
    let learn_start = ddqn.learn_start;
    let actions = EnvConfig::default().actions.len();
    let mut agent = DdqnAgent::new(FEATURE_DIM, actions, ddqn);
    let mut step = 0;
    let mut observe = || {
        let state = |k: usize| -> Vec<f64> {
            (0..FEATURE_DIM)
                .map(|j| ((k * 7 + j) % 13) as f64 / 13.0)
                .collect()
        };
        agent.observe(Transition {
            state: state(step),
            action: step % actions,
            reward: 0.1,
            next_state: state(step + 1),
            done: step % 50 == 49,
        });
        step += 1;
    };
    for _ in 0..learn_start {
        observe();
    }
    let (_, ms) = time_ms(1_000, &mut observe);
    rows.push(("D-DQN update (observe + learn_batch)", ms));

    // One episode's worth of untraced engine steps on a ghost cut-in.
    let spec = sample_instances(Typology::GhostCutIn, 1, args.config.seed).remove(0);
    let mut world = spec.build_world();
    let mut episode = Episode::begin_untraced(&world, spec.episode_config());
    let steps = episode.max_steps();
    let (_, ms) = time_ms(steps, || episode.step(&mut world, ControlInput::COAST));
    rows.push(("Simulator step (Episode::step, untraced)", ms));

    // One reach tube past a car parked 20 m ahead in the ego's lane.
    let parked = [Obstacle::new(
        Trajectory::from_states(
            Seconds::new(0.0),
            Seconds::new(2.5),
            vec![VehicleState::new(120.0, 5.25, 0.0, 0.0); 2],
        ),
        Meters::new(4.6),
        Meters::new(2.0),
    )];
    let tube_ms = |reps, mode| {
        let config = ReachConfig {
            mode,
            ..ReachConfig::default()
        };
        let (_, ms) = time_ms(reps, || {
            compute_reach_tube(&map, scene.ego, &parked, &config)
        });
        ms
    };
    let ms = tube_ms(30, SamplingMode::Boundary);
    rows.push(("Reach tube, boundary (paper opt. 2)", ms));
    let ms = tube_ms(10, SamplingMode::Uniform { na: 3, ns: 5 });
    rows.push(("Reach tube, uniform 3x5 (plain Alg. 1)", ms));

    println!("§V-E execution overheads (mean per call)\n");
    for (label, ms) in &rows {
        if *ms < 0.1 {
            println!("{label:<44} {:>9.2} µs", ms * 1e3);
        } else {
            println!("{label:<44} {ms:>9.2} ms");
        }
    }
    args.write_json(&rows);
}
