//! Sampled reach-tube computation — Algorithm 1 of the iPrism paper.
//!
//! A *reach-tube* is the set of states traversed by all dynamically feasible
//! ego trajectories over a horizon `[t, t+k]`. iPrism computes the ego's
//! escape routes as the reach-tube that avoids every obstacle trajectory and
//! stays on the drivable area; the tube *volume* (state-space occupancy on a
//! fixed grid) is the `|T|` appearing in the STI equations (4)–(5).
//!
//! The implementation follows the paper's Algorithm 1 plus both of its
//! optimizations:
//!
//! 1. **ε-deduplication** — a propagated state is dropped when it is within
//!    L2 distance ε of an already-visited state (implemented as quantized
//!    state hashing, the standard approximation);
//! 2. **boundary-control enumeration** — instead of uniform sampling,
//!    propagate only the control combinations `{0, a_max} × {φ_min, 0,
//!    φ_max}` ([`SamplingMode::Boundary`]). Uniform sampling with the
//!    extremes always included ([`SamplingMode::Uniform`]) is also
//!    implemented, mirroring the paper's footnote 5 comparison.
//!
//! # Quick example
//!
//! ```
//! use iprism_dynamics::VehicleState;
//! use iprism_map::RoadMap;
//! use iprism_reach::{compute_reach_tube, ReachConfig};
//!
//! let map = RoadMap::straight_road(2, 3.5, 400.0);
//! let ego = VehicleState::new(50.0, 1.75, 0.0, 10.0);
//! let tube = compute_reach_tube(&map, ego, &[], &ReachConfig::default());
//! assert!(tube.volume() > 0.0); // open road: plenty of escape routes
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod compute;
mod config;
mod obstacle;
mod patch;
mod slice_cache;
mod tube;

pub use compute::{compute_reach_tube, compute_reach_tube_cached};
pub use config::{ReachConfig, SamplingMode};
pub use obstacle::Obstacle;
pub use patch::{compute_reach_tube_traced, derive_empty_tube, patch_counterfactual, TubeBlame};
pub use slice_cache::SliceCache;
pub use tube::ReachTube;
