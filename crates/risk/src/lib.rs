//! Risk metrics for iPrism: STI (the paper's contribution) and the three
//! baselines it is compared against (TTC, Dist-CIPA, PKL), plus the LTFMA
//! lead-time heuristic of §V-A.
//!
//! All metrics evaluate a [`SceneSnapshot`]: the ego state plus every other
//! actor's trajectory over the analysis horizon. Snapshots are built either
//! from a recorded simulation [`iprism_sim::Trace`] (ground-truth futures,
//! used for offline characterization — §V-A/B/D) or from a live
//! [`iprism_sim::World`] via the CVTR predictor (used online by the SMC —
//! §IV-C), exactly mirroring the paper's two evaluation modes.
//!
//! # Quick example
//!
//! ```
//! use iprism_dynamics::{Trajectory, VehicleState};
//! use iprism_map::RoadMap;
//! use iprism_risk::{SceneActor, SceneSnapshot, StiEvaluator};
//! use iprism_sim::ActorId;
//! use iprism_units::Seconds;
//!
//! let map = RoadMap::straight_road(2, 3.5, 400.0);
//! // A stopped car 16 m ahead of a 10 m/s ego.
//! let ego = VehicleState::new(100.0, 1.75, 0.0, 10.0);
//! let blocker = Trajectory::from_states(
//!     Seconds::new(0.0), Seconds::new(2.5),
//!     vec![VehicleState::new(116.0, 1.75, 0.0, 0.0); 2]);
//! let scene = SceneSnapshot::new(0.0, ego, (4.6, 2.0))
//!     .with_actor(SceneActor::new(ActorId(1), blocker, 4.6, 2.0));
//!
//! let sti = StiEvaluator::default().evaluate(&map, &scene);
//! assert!(sti.combined > 0.1);       // the blocker removes escape routes
//! assert_eq!(sti.per_actor.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cipa;
mod ltfma;
mod memo;
mod metric;
mod pkl;
mod scene;
mod sti;
mod ttc;

pub use cipa::{dist_cipa, CIPA_RISK_DISTANCE};
pub use ltfma::{ltfma_seconds, ltfma_steps, RiskIndicator};
pub use memo::TubeMemo;
pub use metric::{DistCipaMetric, LtfmaMetric, RiskMetric, RiskScore, TtcMetric};
pub use pkl::{Pkl, PklModel, PklPlannerConfig};
pub use scene::{SceneActor, SceneSnapshot};
pub use sti::{resolve_threads, Sti, StiEvaluator, STI_THREADS_ENV};
pub use ttc::{time_to_collision, TTC_RISK_SECONDS};
