//! Vehicle dynamics for iPrism: the kinematic bicycle model, control limits,
//! timestamped trajectories and the constant-velocity-and-turn-rate (CVTR)
//! prediction model.
//!
//! The paper propagates ego states through a kinematic bicycle model
//! (reference [42] of the paper) when computing reach-tubes (Algorithm 1),
//! and predicts other actors' near-future trajectories with a CVTR model
//! (§IV-C) during SMC training and inference. Both live here.
//!
//! # Quick example
//!
//! ```
//! use iprism_dynamics::{BicycleModel, ControlInput, VehicleState};
//! use iprism_units::Seconds;
//!
//! let model = BicycleModel::default();
//! let state = VehicleState::new(0.0, 0.0, 0.0, 10.0);
//! let next = model.step(state, ControlInput::new(1.0, 0.0), Seconds::new(0.1));
//! assert!(next.x > state.x);          // moved forward
//! assert!(next.v > state.v);          // accelerated
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bicycle;
mod control;
mod cvtr;
mod state;
mod trajectory;

pub use bicycle::{BicycleModel, PreparedControl};
pub use control::{ControlAxes, ControlInput, ControlLimits};
pub use cvtr::CvtrModel;
pub use state::VehicleState;
pub use trajectory::{Trajectory, TrajectoryCursor};
