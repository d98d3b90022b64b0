//! The Safety-hazard Mitigation Controller: training and inference.

use std::path::Path;

use iprism_agents::{MitigationAction, MitigationPolicy};
use iprism_risk::{SceneSnapshot, StiEvaluator};
use iprism_rl::{train, DdqnAgent, DdqnConfig};
use iprism_sim::{EgoController, EpisodeConfig, World};
use serde::{Deserialize, Serialize};

use crate::{EnvConfig, FeatureExtractor, MitigationEnv};

/// Training configuration for [`train_smc`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SmcTrainConfig {
    /// D-DQN hyperparameters.
    pub ddqn: DdqnConfig,
    /// Environment configuration (action set, reward weights, STI preset).
    pub env: EnvConfig,
    /// Training episodes (the paper trains 100 per typology).
    pub episodes: usize,
    /// Memoize the tube volumes of the combined STI — both `|T|` and
    /// `|T^∅|`, every volume `evaluate_combined` computes — across the
    /// training run through one shared [`iprism_risk::TubeMemo`] (on by
    /// default; silently skipped when the scenario templates use different
    /// maps, where one shared memo would be unsound). Episodes reset to
    /// bit-identical template worlds, so the memo's repeat hits are exact
    /// and trained weights are unchanged — see the regression test. The
    /// field keeps its historical name.
    #[serde(default = "default_true")]
    pub empty_tube_memo: bool,
}

fn default_true() -> bool {
    true
}

impl Default for SmcTrainConfig {
    fn default() -> Self {
        let ddqn = DdqnConfig {
            hidden: vec![64, 64],
            epsilon: iprism_rl::EpsilonSchedule::new(1.0, 0.05, 1_500),
            max_steps_per_episode: 0, // the env terminates episodes itself
            ..DdqnConfig::default()
        };
        SmcTrainConfig {
            ddqn,
            env: EnvConfig::default(),
            episodes: 100,
            empty_tube_memo: default_true(),
        }
    }
}

impl SmcTrainConfig {
    /// A tiny configuration for unit tests.
    pub fn small_test() -> Self {
        let mut cfg = SmcTrainConfig {
            ddqn: DdqnConfig::small_test(),
            episodes: 3,
            ..SmcTrainConfig::default()
        };
        cfg.ddqn.max_steps_per_episode = 0;
        cfg
    }
}

/// The trained SMC policy (Fig. 2 inference path): extract the state
/// observation (including the CVTR-predicted combined STI), evaluate the
/// Q-network, take the argmax action (Eq. 10).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Smc {
    agent: DdqnAgent,
    actions: Vec<MitigationAction>,
    #[serde(skip, default = "FeatureExtractor::new")]
    extractor: FeatureExtractor,
    env_config: EnvConfig,
}

impl Smc {
    /// Wraps a trained agent as a mitigation policy.
    pub fn new(agent: DdqnAgent, env_config: EnvConfig) -> Self {
        Smc {
            agent,
            actions: env_config.actions.clone(),
            extractor: FeatureExtractor::new(),
            env_config,
        }
    }

    /// The underlying Q-network agent.
    pub fn agent(&self) -> &DdqnAgent {
        &self.agent
    }

    /// The action set (index order matches Q-network outputs).
    pub fn actions(&self) -> &[MitigationAction] {
        &self.actions
    }

    /// Saves the policy (weights + config) as JSON.
    ///
    /// # Errors
    ///
    /// Returns any I/O or serialization error.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let json = serde_json::to_string(self).map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Loads a policy saved with [`Smc::save`].
    ///
    /// # Errors
    ///
    /// Returns any I/O or deserialization error.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        serde_json::from_str(&json).map_err(std::io::Error::other)
    }
}

impl MitigationPolicy for Smc {
    fn decide(&mut self, world: &World) -> MitigationAction {
        let sti = if self.env_config.sti_in_observation {
            let scene = SceneSnapshot::from_world_cvtr(
                world,
                self.env_config.reach.horizon,
                self.env_config.reach.dt,
            );
            StiEvaluator::new(self.env_config.reach.clone()).evaluate_combined(world.map(), &scene)
        } else {
            0.0
        };
        let features = self.extractor.features(world, sti);
        let idx = self.agent.act_greedy(&features);
        self.actions[idx]
    }
}

/// A trained SMC plus its training history.
#[derive(Debug, Clone)]
pub struct TrainedSmc {
    /// The trained policy.
    pub smc: Smc,
    /// Undiscounted return per training episode.
    pub episode_returns: Vec<f64>,
    /// Steps per training episode.
    pub episode_lengths: Vec<usize>,
}

/// Trains an SMC with D-DQN on the given scenario templates, with `ads`
/// driving the ego whenever the SMC outputs No-Op — the paper's training
/// protocol (§III-B / §IV-B1: 100 episodes on the selected scenario of each
/// typology).
pub fn train_smc<A: EgoController>(
    templates: Vec<(World, EpisodeConfig)>,
    ads: A,
    config: &SmcTrainConfig,
) -> TrainedSmc {
    let mut env = MitigationEnv::new(templates, ads, config.env.clone());
    if config.empty_tube_memo && env.templates_share_map() {
        let _memo = env.enable_tube_memo();
    }
    let trained = train(&mut env, &config.ddqn, config.episodes);
    TrainedSmc {
        smc: Smc::new(trained.agent, config.env.clone()),
        episode_returns: trained.episode_returns,
        episode_lengths: trained.episode_lengths,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iprism_agents::LbcAgent;
    use iprism_dynamics::VehicleState;
    use iprism_map::RoadMap;
    use iprism_sim::{Actor, Behavior, Goal};

    fn template() -> (World, EpisodeConfig) {
        let map = RoadMap::straight_road(2, 3.5, 500.0);
        let mut w = World::new(map, VehicleState::new(30.0, 1.75, 0.0, 10.0), 0.1);
        w.spawn(Actor::vehicle(
            1,
            VehicleState::new(80.0, 1.75, 0.0, 0.0),
            Behavior::Idle,
        ));
        (
            w,
            EpisodeConfig {
                max_time: 12.0,
                goal: Goal::XThreshold(200.0),
                stop_on_collision: true,
            },
        )
    }

    #[test]
    fn training_produces_working_policy() {
        let trained = train_smc(
            vec![template()],
            LbcAgent::default(),
            &SmcTrainConfig::small_test(),
        );
        assert_eq!(trained.episode_returns.len(), 3);
        // Policy is callable on a fresh world.
        let (w, _) = template();
        let mut smc = trained.smc;
        let action = smc.decide(&w);
        assert!(MitigationAction::BRAKE_ACCEL.contains(&action));
    }

    #[test]
    fn training_is_deterministic() {
        let run = || {
            train_smc(
                vec![template()],
                LbcAgent::default(),
                &SmcTrainConfig::small_test(),
            )
            .episode_returns
        };
        assert_eq!(run(), run());
    }

    /// The default-on empty-tube memo must not change training: episodes
    /// reset to bit-identical template worlds, so every memo hit replays an
    /// exact earlier computation and the trained weights are byte-identical
    /// to a memo-free run.
    #[test]
    fn empty_tube_memo_leaves_trained_weights_unchanged() {
        let run = |memo: bool| {
            let mut cfg = SmcTrainConfig::small_test();
            cfg.empty_tube_memo = memo;
            let trained = train_smc(vec![template()], LbcAgent::default(), &cfg);
            let weights = serde_json::to_string(trained.smc.agent().network()).unwrap();
            (weights, trained.episode_returns)
        };
        let (memo_weights, memo_returns) = run(true);
        let (plain_weights, plain_returns) = run(false);
        assert_eq!(memo_returns, plain_returns);
        assert_eq!(memo_weights, plain_weights);
    }

    #[test]
    fn save_load_roundtrip() {
        let trained = train_smc(
            vec![template()],
            LbcAgent::default(),
            &SmcTrainConfig::small_test(),
        );
        let dir = std::env::temp_dir().join("iprism-smc-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("smc.json");
        trained.smc.save(&path).unwrap();
        let mut loaded = Smc::load(&path).unwrap();
        let (w, _) = template();
        let mut original = trained.smc.clone();
        assert_eq!(original.decide(&w), loaded.decide(&w));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(Smc::load(Path::new("/nonexistent/smc.json")).is_err());
    }
}
