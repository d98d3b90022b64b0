//! The RL environment adapting simulated driving scenarios for D-DQN.

use std::sync::Arc;

use iprism_agents::MitigationAction;
use iprism_reach::ReachConfig;
use iprism_risk::{SceneSnapshot, StiEvaluator, TubeMemo};
use iprism_rl::{Environment, StepOutcome};
use iprism_sim::{EgoController, Episode, EpisodeConfig, Goal, World};
use serde::{Deserialize, Serialize};

use crate::{FeatureExtractor, RewardModel, RewardWeights, FEATURE_DIM};

/// Configuration of the [`MitigationEnv`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnvConfig {
    /// The discrete mitigation action set (index = RL action id).
    pub actions: Vec<MitigationAction>,
    /// The Eq. (8) reward weights.
    pub weights: RewardWeights,
    /// Reach-tube configuration for the in-loop STI (use a fast preset).
    pub reach: ReachConfig,
    /// Simulation steps per SMC decision (the paper's planning period of
    /// 0.1–0.3 s; 2 × 0.1 s here).
    pub decision_period: usize,
    /// Reference speed used to normalize path-completion progress (m/s).
    pub progress_ref_speed: f64,
    /// Whether the combined STI appears in the observation vector. The
    /// paper's SMC state is camera frames (no STI); our geometric features
    /// carry STI as the substitute for learned risk cues. The w/o-STI
    /// ablation of §V-C removes STI from the reward *and* (here) from the
    /// observation, so the ablated policy is fully risk-signal-free.
    pub sti_in_observation: bool,
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig {
            actions: MitigationAction::BRAKE_ACCEL.to_vec(),
            weights: RewardWeights::default(),
            reach: ReachConfig::fast(),
            decision_period: 2,
            progress_ref_speed: 10.0,
            sti_in_observation: true,
        }
    }
}

/// An episodic RL environment: a scenario template (world + episode rules)
/// driven by the wrapped ADS, with the RL agent supplying mitigation
/// actions that may overwrite the ADS control (Fig. 2's `⊗`).
///
/// Multiple templates round-robin across episodes (the paper trains on one
/// scenario per typology; passing several enables multi-scenario training).
///
/// Stepping composes the [`Episode`] engine from `iprism-sim` (untraced —
/// training needs no trajectory history): the engine advances the world,
/// while the env layers its RL semantics on top of the returned step events
/// (always break on an ego collision, regardless of `stop_on_collision`;
/// time out on wall-clock `max_time` rather than the engine's step budget).
#[derive(Debug)]
pub struct MitigationEnv<A> {
    templates: Vec<(World, EpisodeConfig)>,
    ads: A,
    config: EnvConfig,
    extractor: FeatureExtractor,
    reward: RewardModel,
    sti: StiEvaluator,
    world: World,
    engine: Episode,
    next_template: usize,
    goal_distance: f64,
}

impl<A: EgoController> MitigationEnv<A> {
    /// Creates an environment from scenario templates and an ADS.
    ///
    /// # Panics
    ///
    /// Panics when `templates` is empty, the action set is empty, or the
    /// decision period is zero.
    pub fn new(templates: Vec<(World, EpisodeConfig)>, ads: A, config: EnvConfig) -> Self {
        assert!(!templates.is_empty(), "need at least one scenario template");
        assert!(!config.actions.is_empty(), "need at least one action");
        assert!(config.decision_period >= 1, "decision period must be >= 1");
        let world = templates[0].0.clone();
        let episode = templates[0].1;
        let sti = StiEvaluator::new(config.reach.clone());
        let reward = RewardModel::new(config.weights);
        let goal_distance = goal_distance(&episode.goal, &world);
        let engine = Episode::begin_untraced(&world, episode);
        MitigationEnv {
            templates,
            ads,
            config,
            extractor: FeatureExtractor::new(),
            reward,
            sti,
            world,
            engine,
            next_template: 0,
            goal_distance,
        }
    }

    /// The current world (for inspection in tests and tooling).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Enables tube memoization on the internal STI evaluator's combined
    /// STI and returns the (shared) memo handle for inspection.
    ///
    /// Along an SMC episode the ego revisits identical states whenever
    /// episodes replay a shared action prefix (and near-identical ones when
    /// stopped or cruising steadily); against a static hazard the obstacle
    /// footprints recur too, so a [`MitigationEnv::current_sti`] call on a
    /// recurring state finds both of its tube volumes cached. The memo's
    /// key excludes the map (see [`TubeMemo`]), which is sound here because
    /// every scenario template is required to share one map.
    ///
    /// # Panics
    ///
    /// Panics when the scenario templates use different road maps — one memo
    /// must never serve two maps.
    pub fn enable_tube_memo(&mut self) -> Arc<TubeMemo> {
        assert!(
            self.templates_share_map(),
            "tube memoization needs all scenario templates on one map"
        );
        let memo = Arc::new(TubeMemo::new());
        self.sti = self.sti.clone().with_tube_memo(memo.clone());
        memo
    }

    /// Whether every scenario template uses the same road map — the
    /// soundness precondition of [`MitigationEnv::enable_tube_memo`].
    pub fn templates_share_map(&self) -> bool {
        let first = self.templates[0].0.map();
        self.templates.iter().all(|(w, _)| w.map() == first)
    }

    /// Combined STI of the current world via CVTR prediction (§IV-C).
    pub fn current_sti(&self) -> f64 {
        let scene = SceneSnapshot::from_world_cvtr(
            &self.world,
            self.config.reach.horizon,
            self.config.reach.dt,
        );
        self.sti.evaluate_combined(self.world.map(), &scene)
    }
}

fn goal_distance(goal: &Goal, world: &World) -> f64 {
    let ego = world.ego().position();
    match *goal {
        Goal::XThreshold(x) => (x - ego.x).max(0.0),
        Goal::Point { x, y, .. } => ego.distance(iprism_geom::Vec2::new(x, y)),
        Goal::None => -ego.x, // progress measured as raw +x movement
    }
}

impl<A: EgoController> Environment for MitigationEnv<A> {
    fn state_dim(&self) -> usize {
        FEATURE_DIM
    }

    fn num_actions(&self) -> usize {
        self.config.actions.len()
    }

    fn reset(&mut self) -> Vec<f64> {
        let (world, episode) = self.templates[self.next_template].clone();
        self.next_template = (self.next_template + 1) % self.templates.len();
        self.world = world;
        self.engine = Episode::begin_untraced(&self.world, episode);
        self.ads.reset();
        self.goal_distance = goal_distance(&self.engine.config().goal, &self.world);
        let sti = if self.config.sti_in_observation {
            self.current_sti()
        } else {
            0.0
        };
        self.extractor.features(&self.world, sti)
    }

    fn step(&mut self, action: usize) -> StepOutcome {
        let action = self.config.actions[action];
        let mut collided = false;
        let mut reached_goal = false;
        for _ in 0..self.config.decision_period {
            let ads_control = self.ads.control(&self.world);
            let control = action.to_control(&self.world).unwrap_or(ads_control);
            let events = self.engine.step(&mut self.world, control);
            if events.ego_collided() {
                collided = true;
                break;
            }
            if self
                .engine
                .config()
                .goal
                .reached(self.world.ego().position())
            {
                reached_goal = true;
                break;
            }
        }

        // Risk term: a collision means the escape routes are gone (STI 1).
        let sti = if collided { 1.0 } else { self.current_sti() };
        let observed_sti = if self.config.sti_in_observation {
            sti
        } else {
            0.0
        };

        // Path completion: normalized goal-distance decrease per decision.
        let new_distance = goal_distance(&self.engine.config().goal, &self.world);
        let step_time = self.config.decision_period as f64 * self.world.dt();
        let progress = ((self.goal_distance - new_distance)
            / (self.config.progress_ref_speed * step_time))
            .clamp(-1.0, 1.0);
        self.goal_distance = new_distance;

        let reward = self.reward.reward(sti, progress, action);
        let done = collided || reached_goal || self.world.time() >= self.engine.config().max_time;
        StepOutcome {
            state: self.extractor.features(&self.world, observed_sti),
            reward,
            done,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::float_cmp)] // exact comparisons are intentional in tests
    use super::*;
    use iprism_agents::LbcAgent;
    use iprism_dynamics::VehicleState;
    use iprism_map::RoadMap;
    use iprism_sim::{Actor, Behavior};

    fn lead_hazard_template() -> (World, EpisodeConfig) {
        let map = RoadMap::straight_road(2, 3.5, 500.0);
        let mut w = World::new(map, VehicleState::new(30.0, 1.75, 0.0, 10.0), 0.1);
        w.spawn(Actor::vehicle(
            1,
            VehicleState::new(75.0, 1.75, 0.0, 0.0),
            Behavior::Idle,
        ));
        let cfg = EpisodeConfig {
            max_time: 20.0,
            goal: Goal::XThreshold(200.0),
            stop_on_collision: true,
        };
        (w, cfg)
    }

    fn env() -> MitigationEnv<LbcAgent> {
        MitigationEnv::new(
            vec![lead_hazard_template()],
            LbcAgent::default(),
            EnvConfig::default(),
        )
    }

    #[test]
    fn dimensions() {
        let e = env();
        assert_eq!(e.state_dim(), FEATURE_DIM);
        assert_eq!(e.num_actions(), 3);
    }

    #[test]
    fn reset_restores_template() {
        let mut e = env();
        let s0 = e.reset();
        assert_eq!(s0.len(), FEATURE_DIM);
        // drive a while, then reset back to the template state
        for _ in 0..5 {
            e.step(0);
        }
        let moved_x = e.world().ego().x;
        let s1 = e.reset();
        assert_eq!(s0, s1);
        assert!(e.world().ego().x < moved_x);
    }

    #[test]
    fn rewards_are_finite_and_episode_terminates() {
        let mut e = env();
        let mut s = e.reset();
        let mut steps = 0;
        loop {
            let out = e.step(0); // always No-Op: LBC drives
            assert!(out.reward.is_finite());
            assert_eq!(out.state.len(), s.len());
            s = out.state;
            steps += 1;
            if out.done {
                break;
            }
            assert!(steps < 200, "episode must terminate");
        }
    }

    #[test]
    fn brake_action_overrides_ads() {
        let mut e = env();
        e.reset();
        let v0 = e.world().ego().v;
        e.step(1); // Brake
        assert!(e.world().ego().v < v0 - 0.5);
    }

    #[test]
    fn accelerate_action_overrides_ads() {
        let mut e = env();
        e.reset();
        let v0 = e.world().ego().v;
        e.step(2); // Accelerate
        assert!(e.world().ego().v > v0 + 0.3);
    }

    #[test]
    fn risk_term_rises_near_hazard() {
        let mut e = env();
        e.reset();
        let early = e.current_sti();
        // Accelerate toward the stopped car to raise the risk.
        let mut last = 0.0;
        for _ in 0..15 {
            let out = e.step(2);
            last = out.state[2]; // the STI feature
            if out.done {
                break;
            }
        }
        assert!(
            last > early,
            "STI should rise approaching hazard: {early} -> {last}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut e = env();
            e.reset();
            let mut rs = Vec::new();
            for i in 0..20 {
                let out = e.step(i % 3);
                rs.push(out.reward);
                if out.done {
                    break;
                }
            }
            rs
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn templates_round_robin() {
        let t1 = lead_hazard_template();
        let mut t2 = lead_hazard_template();
        t2.0.set_ego(VehicleState::new(10.0, 1.75, 0.0, 5.0));
        let mut e = MitigationEnv::new(vec![t1, t2], LbcAgent::default(), EnvConfig::default());
        e.reset();
        let x_first = e.world().ego().x;
        e.reset();
        let x_second = e.world().ego().x;
        assert_ne!(x_first, x_second);
        e.reset();
        assert_eq!(e.world().ego().x, x_first);
    }

    #[test]
    #[should_panic(expected = "template")]
    fn empty_templates_panic() {
        let _ = MitigationEnv::new(vec![], LbcAgent::default(), EnvConfig::default());
    }

    #[test]
    fn empty_tube_memo_speeds_repeats_without_changing_sti() {
        let mut plain = env();
        let mut memoized = env();
        let memo = memoized.enable_tube_memo();
        assert!(memo.is_empty());

        plain.reset();
        memoized.reset();
        let expect = plain.current_sti();
        assert_eq!(memoized.current_sti(), expect);
        let cached = memo.len();
        assert!(cached >= 1, "first evaluation must populate the memo");
        // A repeat query from the same state is a pure cache hit.
        assert_eq!(memoized.current_sti(), expect);
        assert_eq!(memo.len(), cached);
    }

    #[test]
    #[should_panic(expected = "one map")]
    fn memo_rejects_mixed_map_templates() {
        let t1 = lead_hazard_template();
        let mut t2 = lead_hazard_template();
        t2.0 = World::new(
            RoadMap::straight_road(3, 3.5, 400.0),
            VehicleState::new(30.0, 1.75, 0.0, 10.0),
            0.1,
        );
        let mut e = MitigationEnv::new(vec![t1, t2], LbcAgent::default(), EnvConfig::default());
        let _ = e.enable_tube_memo();
    }
}
