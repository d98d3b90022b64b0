//! The iPrism framework — the paper's primary contribution, assembled.
//!
//! iPrism couples two components (Fig. 2 of the paper):
//!
//! 1. **Risk assessment** — the Safety-Threat Indicator (STI), computed by
//!    counterfactual reach-tube analysis (crates `iprism-reach` /
//!    `iprism-risk`), and
//! 2. **Risk mitigation** — the Safety-hazard Mitigation Controller
//!    ([`Smc`]), a Double-DQN policy over `{No-Op, Brake, Accelerate}`
//!    trained with the reward of Eq. (8):
//!    `r = α₀(1 − STI^combined) + α₁·r_pc + α₂·p_am`.
//!
//! The [`MitigationEnv`] adapts a simulated driving scenario (with any ADS
//! in the loop) into an RL environment; [`train_smc`] runs the paper's
//! training protocol; [`Iprism::attach`] wraps any ADS controller into an
//! iPrism-protected agent via the `⊗` arbiter.
//!
//! # Quick example
//!
//! ```
//! use iprism_agents::LbcAgent;
//! use iprism_core::{train_smc, Iprism, SmcTrainConfig};
//! use iprism_dynamics::VehicleState;
//! use iprism_map::RoadMap;
//! use iprism_sim::{Actor, Behavior, EpisodeConfig, Goal, World};
//!
//! // A hazard scenario: a stopped car ahead of a fast ego.
//! let map = RoadMap::straight_road(2, 3.5, 500.0);
//! let mut world = World::new(map, VehicleState::new(30.0, 1.75, 0.0, 10.0), 0.1);
//! world.spawn(Actor::vehicle(1, VehicleState::new(80.0, 1.75, 0.0, 0.0), Behavior::Idle));
//! let episode = EpisodeConfig { max_time: 12.0, goal: Goal::XThreshold(200.0), stop_on_collision: true };
//!
//! let trained = train_smc(
//!     vec![(world, episode)],
//!     LbcAgent::default(),
//!     &SmcTrainConfig::small_test(), // use ::default() for real training
//! );
//! let iprism = Iprism::new(trained.smc);
//! let mut protected = iprism.attach(LbcAgent::default());
//! // `protected` implements iprism_sim::EgoController.
//! # let _ = &mut protected;
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod env;
mod features;
mod iprism;
mod policy_cache;
mod reward;
mod smc;

pub use env::{EnvConfig, MitigationEnv};
pub use features::{FeatureExtractor, FEATURE_DIM};
pub use iprism::Iprism;
pub use policy_cache::TrainedPolicyCache;
pub use reward::{RewardModel, RewardWeights};
pub use smc::{train_smc, Smc, SmcTrainConfig, TrainedSmc};

/// The numeric-invariant contracts enforced across the workspace
/// (re-export of [`iprism_contracts`]); see `docs/INVARIANTS.md`.
pub use iprism_contracts as invariants;
