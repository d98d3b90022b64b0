//! Per-slice obstacle broadphase cache shared across counterfactual tubes.
//!
//! [`crate::compute_reach_tube`] tests every candidate ego state against
//! every obstacle at the candidate's time slice. The slice times are fixed
//! by the [`ReachConfig`], so each obstacle's interpolated footprint — and
//! its midpoint footprint for the anti-tunnelling check — is a function of
//! the slice index alone. The naive loop nevertheless re-interpolated the
//! trajectory and rebuilt the OBB for *every candidate*, an
//! O(candidates × obstacles) allocation-heavy inner loop.
//!
//! [`SliceCache`] precomputes, once per (obstacle, slice):
//!
//! * the obstacle's interpolated OBB at the slice time and at the slice
//!   midpoint (built through the exact same `Obstacle::footprint_at`
//!   arithmetic, so collision outcomes are bit-identical to the uncached
//!   path), with the sine and cosine of each OBB's heading, which every
//!   separating-axis test against it reads, and
//! * a conservative **reject AABB** per OBB — the OBB's bounding box
//!   inflated by the ego footprint's circumradius. A candidate whose centre
//!   lies outside the reject box provably cannot intersect the obstacle, so
//!   the broadphase skips the SAT narrow phase (and the ego-OBB
//!   construction) for the overwhelming majority of candidate/obstacle
//!   pairs.
//!
//! Storage is **slice-major structure-of-arrays**: one contiguous lane per
//! footprint component, laid out so that all obstacles of one time slice sit
//! next to each other (`slice_offset * n_obstacles + obstacle`). The verdict
//! scan walks exactly that axis — every candidate of a slice is tested
//! against every active obstacle of the same slice — so the hot loop streams
//! one dense lane segment per slice instead of hopping across per-obstacle
//! `Vec`s. [`SliceCache::slice_lanes`] hands the per-slice segments out as
//! plain slices, which also keeps the certified kernels free of indexing.
//!
//! The cache depends only on the obstacle list and the config — not on
//! which counterfactual subset of obstacles is active — so the STI
//! evaluator builds it **once** and shares it (immutably, hence safely
//! across threads) between the factual tube, the empty tube and all `N`
//! per-actor counterfactual tubes.
//!
//! The cache also answers reachability-level relevance queries
//! ([`SliceCache::interacts`]): an obstacle whose reject boxes all lie
//! beyond the ego's maximum kinematic reach can be dropped from the active
//! set — or its whole counterfactual tube skipped — with bit-identical
//! results.

use iprism_dynamics::VehicleState;
use iprism_geom::{Aabb, Meters, Obb, Vec2};

use crate::{Obstacle, ReachConfig};

/// Extra conservatism (m) added to every broadphase inflation so SAT's own
/// epsilon slack (touching boxes count as intersecting) can never produce a
/// hit that the broadphase rejected.
const BROADPHASE_SLACK: f64 = 1e-3;

/// One time slice's footprint lanes: entry `i` of each slice belongs to
/// obstacle `i` of the cache's obstacle list. All four lanes have length
/// [`SliceCache::obstacle_count`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct SliceLanes<'a> {
    /// Obstacle OBBs at the slice time, inflated by the safety margin.
    pub(crate) obbs: &'a [Obb],
    /// `obbs[i].pose.heading().sin_cos()`.
    pub(crate) trigs: &'a [(f64, f64)],
    /// Reject AABBs for `obbs`: candidates whose centre falls outside
    /// cannot intersect the corresponding OBB.
    pub(crate) rejects: &'a [Aabb],
    /// Obstacle OBBs at the slice midpoint (anti-tunnelling check).
    pub(crate) mid_obbs: &'a [Obb],
    /// `mid_obbs[i].pose.heading().sin_cos()`.
    pub(crate) mid_trigs: &'a [(f64, f64)],
    /// Reject AABBs for `mid_obbs`.
    pub(crate) mid_rejects: &'a [Aabb],
}

impl SliceLanes<'static> {
    /// Lanes of a slice with no obstacles (every scan is a no-op).
    pub(crate) const EMPTY: SliceLanes<'static> = SliceLanes {
        obbs: &[],
        trigs: &[],
        rejects: &[],
        mid_obbs: &[],
        mid_trigs: &[],
        mid_rejects: &[],
    };
}

/// Precomputed obstacle broadphase data for one [`ReachConfig`], shared by
/// every (counterfactual) reach-tube of an STI evaluation.
///
/// Build once with [`SliceCache::new`], then compute tubes over arbitrary
/// obstacle subsets with [`crate::compute_reach_tube_cached`].
#[derive(Debug, Clone)]
pub struct SliceCache {
    n_obstacles: usize,
    n_slices: usize,
    /// Slice-major lanes: entry `slice_offset * n_obstacles + obstacle`.
    obbs: Vec<Obb>,
    trigs: Vec<(f64, f64)>,
    rejects: Vec<Aabb>,
    mid_obbs: Vec<Obb>,
    mid_trigs: Vec<(f64, f64)>,
    mid_rejects: Vec<Aabb>,
    /// Per obstacle: union of every reject AABB — the obstacle's total
    /// swept extent over the horizon, already inflated for the broadphase.
    bounds: Vec<Aabb>,
    /// `horizon + dt` (s): conservative time span covering the discrete
    /// Euler propagation's overshoot past the nominal horizon.
    reach_span: f64,
    /// Largest acceleration magnitude the model can command (m/s²).
    accel_mag: f64,
}

impl SliceCache {
    /// Precomputes slice footprints and reject boxes for `obstacles`.
    ///
    /// The cache is tied to the `config` it was built with (slice times,
    /// safety margin and ego dimensions are baked in); compute tubes only
    /// with the same configuration.
    pub fn new(obstacles: &[Obstacle], config: &ReachConfig) -> Self {
        let n_slices = config.slices();
        let n_obstacles = obstacles.len();
        let (ego_len, ego_wid) = config.ego_dims;
        // Any point of the ego footprint is within the circumradius of its
        // centre, so inflating an obstacle box by it makes centre-point
        // containment a sound broadphase.
        let inflation = Meters::new(
            0.5 * (ego_len.get() * ego_len.get() + ego_wid.get() * ego_wid.get()).sqrt()
                + BROADPHASE_SLACK,
        );
        let total = n_slices * n_obstacles;
        let mut obbs = Vec::with_capacity(total);
        let mut trigs = Vec::with_capacity(total);
        let mut rejects = Vec::with_capacity(total);
        let mut mid_obbs = Vec::with_capacity(total);
        let mut mid_trigs = Vec::with_capacity(total);
        let mut mid_rejects = Vec::with_capacity(total);
        let mut bounds: Vec<Option<Aabb>> = vec![None; n_obstacles];
        // One monotone interpolation cursor per obstacle: the slice-major
        // write order still visits each obstacle's times in ascending order
        // (mid before slice, slice k before mid of slice k + 1).
        let mut cursors: Vec<_> = obstacles
            .iter()
            .map(|obstacle| {
                iprism_contracts::check_nonempty_trajectory(
                    "SliceCache::new",
                    obstacle.trajectory.is_empty(),
                );
                obstacle.trajectory.cursor()
            })
            .collect();
        for slice_idx in 1..=n_slices {
            // Exactly the times the uncached inner loop used.
            let slice_time = config.start_time + slice_idx as f64 * config.dt;
            let mid_time = slice_time - config.dt * 0.5;
            for (i, (obstacle, cursor)) in obstacles.iter().zip(&mut cursors).enumerate() {
                // Midpoint first: the cursor sweep must be monotone.
                let mid_state = cursor.state_at(mid_time).unwrap_or_default();
                let slice_state = cursor.state_at(slice_time).unwrap_or_default();
                let obb = obstacle.footprint_of(slice_state, config.safety_margin);
                let mid_obb = obstacle.footprint_of(mid_state, config.safety_margin);
                let reject = obb.aabb().inflated(inflation);
                let mid_reject = mid_obb.aabb().inflated(inflation);
                let union = reject.union(&mid_reject);
                bounds[i] = Some(bounds[i].map_or(union, |b| b.union(&union)));
                obbs.push(obb);
                trigs.push(obb.pose.heading().sin_cos());
                rejects.push(reject);
                mid_obbs.push(mid_obb);
                mid_trigs.push(mid_obb.pose.heading().sin_cos());
                mid_rejects.push(mid_reject);
            }
        }
        let limits = &config.model.limits;
        SliceCache {
            n_obstacles,
            n_slices,
            obbs,
            trigs,
            rejects,
            mid_obbs,
            mid_trigs,
            mid_rejects,
            bounds: bounds
                .into_iter()
                .map(|b| b.unwrap_or_else(|| Aabb::new(Vec2::new(0.0, 0.0), Vec2::new(0.0, 0.0))))
                .collect(),
            reach_span: (config.horizon + config.dt).get(),
            accel_mag: limits.accel_max.abs().max(limits.accel_min.abs()),
        }
    }

    /// Number of obstacles the cache was built over.
    pub fn obstacle_count(&self) -> usize {
        self.n_obstacles
    }

    /// Returns `true` when the cache holds no obstacles.
    pub fn is_empty(&self) -> bool {
        self.n_obstacles == 0
    }

    /// The footprint lanes of one time slice (`slice_offset` is
    /// `slice_idx - 1`), or `None` past the horizon.
    pub(crate) fn slice_lanes(&self, slice_offset: usize) -> Option<SliceLanes<'_>> {
        let lo = slice_offset.checked_mul(self.n_obstacles)?;
        let hi = lo.checked_add(self.n_obstacles)?;
        Some(SliceLanes {
            obbs: self.obbs.get(lo..hi)?,
            trigs: self.trigs.get(lo..hi)?,
            rejects: self.rejects.get(lo..hi)?,
            mid_obbs: self.mid_obbs.get(lo..hi)?,
            mid_trigs: self.mid_trigs.get(lo..hi)?,
            mid_rejects: self.mid_rejects.get(lo..hi)?,
        })
    }

    /// FNV-1a fingerprint of the `active` obstacles' interpolated slice
    /// footprints (slice and midpoint OBBs, in slice order).
    ///
    /// A cached tube computation sees the active obstacles *only* through
    /// these footprints, so two (ego, config)-identical computations whose
    /// active sets fingerprint equally are bit-identical — the fingerprint
    /// (not the obstacle identities or the start time, which both enter
    /// solely via the interpolated geometry) is a sound memoization key
    /// component. The empty set has its own well-defined fingerprint.
    pub fn fingerprint(&self, active: &[usize]) -> u64 {
        let mut h = fold(0xcbf2_9ce4_8422_2325, active.len() as u64);
        for &i in active {
            assert!(i < self.n_obstacles, "active index {i} out of range");
            for slice_offset in 0..self.n_slices {
                let idx = slice_offset * self.n_obstacles + i;
                for obb in [&self.obbs[idx], &self.mid_obbs[idx]] {
                    h = fold(h, obb.pose.x.to_bits());
                    h = fold(h, obb.pose.y.to_bits());
                    h = fold(h, obb.pose.theta.to_bits());
                    h = fold(h, obb.length.to_bits());
                    h = fold(h, obb.width.to_bits());
                }
            }
        }
        h
    }

    /// Conservative test of whether obstacle `index` can interact with any
    /// state the ego can reach over the horizon.
    ///
    /// `false` guarantees that no candidate of a reach computation from
    /// `ego` can ever collide with this obstacle, so dropping it from the
    /// active set — or skipping its counterfactual tube outright, reusing
    /// the factual volume — changes nothing, bit for bit. The bound is the
    /// ego's worst-case kinematic displacement (`|v|·k + ½·a·k²` over the
    /// padded span, plus slack), compared against the obstacle's swept,
    /// already-inflated broadphase bounds.
    pub fn interacts(&self, index: usize, ego: &VehicleState) -> bool {
        let span = self.reach_span;
        let radius = ego.v.abs() * span + 0.5 * self.accel_mag * span * span + 1.0;
        let reach = Aabb::new(
            ego.position() - Vec2::new(radius, radius),
            ego.position() + Vec2::new(radius, radius),
        );
        self.bounds[index].intersects(&reach)
    }
}

/// One FNV-1a step over the little-endian bytes of `bits`.
#[inline]
fn fold(mut h: u64, bits: u64) -> u64 {
    for b in bits.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use iprism_dynamics::Trajectory;
    use iprism_geom::Seconds;
    use proptest::prelude::*;

    fn obstacle_at(x: f64, y: f64) -> Obstacle {
        Obstacle::new(
            Trajectory::from_states(
                Seconds::new(0.0),
                Seconds::new(2.5),
                vec![VehicleState::new(x, y, 0.0, 0.0); 2],
            ),
            Meters::new(4.6),
            Meters::new(2.0),
        )
    }

    /// An obstacle turning through a full circle, across ±π, over the
    /// horizon: its slice and midpoint headings take many values.
    fn turning_obstacle() -> Obstacle {
        let states = (0..14)
            .map(|i| {
                let t = 0.25 * f64::from(i);
                let theta = iprism_geom::wrap_to_pi(2.0 + 2.4 * t);
                VehicleState::new(
                    120.0 + 6.0 * theta.cos(),
                    5.0 + 6.0 * theta.sin(),
                    theta,
                    6.0,
                )
            })
            .collect();
        Obstacle::new(
            Trajectory::from_states(Seconds::new(0.0), Seconds::new(0.25), states),
            Meters::new(4.6),
            Meters::new(2.0),
        )
    }

    #[test]
    fn cache_matches_uncached_footprints() {
        let cfg = ReachConfig::default();
        let obstacles = [obstacle_at(115.0, 5.25), turning_obstacle()];
        let cache = SliceCache::new(&obstacles, &cfg);
        assert_eq!(cache.obstacle_count(), 2);
        assert!(!cache.is_empty());
        for slice_offset in 0..cfg.slices() {
            let lanes = cache.slice_lanes(slice_offset).unwrap();
            assert_eq!(lanes.obbs.len(), 2);
            let slice_time = cfg.start_time + (slice_offset + 1) as f64 * cfg.dt;
            for (i, o) in obstacles.iter().enumerate() {
                let expect = o.footprint_at(slice_time, cfg.safety_margin);
                let expect_mid = o.footprint_at(slice_time - cfg.dt * 0.5, cfg.safety_margin);
                assert_eq!(
                    lanes.obbs[i], expect,
                    "slice {slice_offset} footprint {i} diverged"
                );
                assert_eq!(
                    lanes.mid_obbs[i], expect_mid,
                    "slice {slice_offset} midpoint {i} diverged"
                );
                // The cached pairs are the headings' own sine and cosine.
                for (trig, obb) in [(lanes.trigs[i], expect), (lanes.mid_trigs[i], expect_mid)] {
                    let (s, c) = obb.pose.heading().sin_cos();
                    assert_eq!(
                        (trig.0.to_bits(), trig.1.to_bits()),
                        (s.to_bits(), c.to_bits()),
                        "slice {slice_offset} heading pair {i} diverged"
                    );
                }
            }
        }
        assert!(cache.slice_lanes(cfg.slices()).is_none());
    }

    #[test]
    fn reject_boxes_enclose_obbs() {
        let cfg = ReachConfig::default();
        let o = obstacle_at(120.0, 1.75);
        let cache = SliceCache::new(std::slice::from_ref(&o), &cfg);
        for slice_offset in 0..cfg.slices() {
            let lanes = cache.slice_lanes(slice_offset).unwrap();
            for corner in lanes.obbs[0].corners() {
                assert!(lanes.rejects[0].contains(corner));
            }
            for corner in lanes.mid_obbs[0].corners() {
                assert!(lanes.mid_rejects[0].contains(corner));
            }
        }
    }

    #[test]
    fn slice_lanes_are_slice_major() {
        let cfg = ReachConfig::default();
        let a = obstacle_at(110.0, 5.25);
        let b = obstacle_at(120.0, 1.75);
        let cache = SliceCache::new(&[a.clone(), b.clone()], &cfg);
        for slice_offset in 0..cfg.slices() {
            let lanes = cache.slice_lanes(slice_offset).unwrap();
            assert_eq!(lanes.obbs.len(), 2);
            let slice_time = cfg.start_time + (slice_offset + 1) as f64 * cfg.dt;
            assert_eq!(lanes.obbs[0], a.footprint_at(slice_time, cfg.safety_margin));
            assert_eq!(lanes.obbs[1], b.footprint_at(slice_time, cfg.safety_margin));
        }
    }

    #[test]
    fn distant_obstacle_does_not_interact() {
        let cfg = ReachConfig::default();
        let near = obstacle_at(115.0, 5.25);
        let far = obstacle_at(500.0, 5.25);
        let cache = SliceCache::new(&[near, far], &cfg);
        let ego = VehicleState::new(100.0, 5.25, 0.0, 10.0);
        assert!(cache.interacts(0, &ego));
        assert!(!cache.interacts(1, &ego));
        // A much faster ego reaches further (150 m/s × 2.75 s ≈ 410 m).
        let fast = VehicleState::new(100.0, 5.25, 0.0, 150.0);
        assert!(cache.interacts(1, &fast));
    }

    #[test]
    fn empty_obstacle_list() {
        let cache = SliceCache::new(&[], &ReachConfig::default());
        assert_eq!(cache.obstacle_count(), 0);
        assert!(cache.is_empty());
        // Lanes exist (empty) for every slice offset: scans are no-ops.
        let lanes = cache.slice_lanes(0).unwrap();
        assert!(lanes.obbs.is_empty());
    }

    #[test]
    fn fingerprint_tracks_active_geometry() {
        let cfg = ReachConfig::default();
        let cache = SliceCache::new(&[obstacle_at(115.0, 5.25), obstacle_at(120.0, 1.75)], &cfg);
        // deterministic, and sensitive to the active set
        assert_eq!(cache.fingerprint(&[]), cache.fingerprint(&[]));
        assert_ne!(cache.fingerprint(&[]), cache.fingerprint(&[0]));
        assert_ne!(cache.fingerprint(&[0]), cache.fingerprint(&[1]));
        // identical interpolated geometry fingerprints equally even when it
        // lives at a different index of a different cache
        let solo = SliceCache::new(&[obstacle_at(120.0, 1.75)], &cfg);
        assert_eq!(cache.fingerprint(&[1]), solo.fingerprint(&[0]));
    }

    proptest! {
        /// Soundness of the broadphase: the set of candidates whose centre
        /// the reject box accepts is a superset of the candidates whose
        /// footprint intersects the obstacle OBB — so gating the SAT test on
        /// the reject box can never change a collision verdict.
        #[test]
        fn prop_broadphase_accepts_every_intersection(
            ox in 90.0..130.0f64, oy in 0.0..10.5f64, oth in -3.1..3.1f64,
            cx in 90.0..130.0f64, cy in 0.0..10.5f64, cth in -3.1..3.1f64,
        ) {
            let cfg = ReachConfig::default();
            let (ego_len, ego_wid) = cfg.ego_dims;
            let obstacle = Obstacle::new(
                Trajectory::from_states(
                    Seconds::new(0.0),
                    Seconds::new(2.5),
                    vec![VehicleState::new(ox, oy, oth, 0.0); 2],
                ),
                Meters::new(4.6),
                Meters::new(2.0),
            );
            let cache = SliceCache::new(std::slice::from_ref(&obstacle), &cfg);
            let cand = VehicleState::new(cx, cy, cth, 5.0);
            let fp = cand.footprint(ego_len, ego_wid);
            for slice_offset in 0..cfg.slices() {
                let lanes = cache.slice_lanes(slice_offset).unwrap();
                let (obb, reject) = (&lanes.obbs[0], &lanes.rejects[0]);
                let (mid_obb, mid_reject) = (&lanes.mid_obbs[0], &lanes.mid_rejects[0]);
                // No false rejects, for the slice and the midpoint boxes.
                if fp.intersects(obb) {
                    prop_assert!(reject.contains(cand.position()));
                }
                if fp.intersects(mid_obb) {
                    prop_assert!(mid_reject.contains(cand.position()));
                }
                // Equivalently: the prefiltered verdict equals the plain SAT
                // verdict (the hot path computes the left-hand side).
                let prefiltered =
                    reject.contains(cand.position()) && fp.intersects(obb);
                prop_assert_eq!(prefiltered, fp.intersects(obb));
            }
        }
    }
}
