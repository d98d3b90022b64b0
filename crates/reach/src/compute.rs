//! Algorithm 1: frontier-by-frontier reach-tube propagation.

use std::cmp::Ordering;

use iprism_dynamics::{ControlInput, PreparedControl, VehicleState};
use iprism_geom::{Aabb, Grid2, Meters, Obb, Pose, Radians, Vec2};
use iprism_map::RoadMap;

use crate::slice_cache::SliceLanes;
use crate::tube::PartialTube;
use crate::{Obstacle, ReachConfig, ReachTube, SamplingMode, SliceCache};

/// Filter verdict: the candidate survives every geometric filter.
pub(crate) const VERDICT_PASS: u32 = u32::MAX;
/// Filter verdict: the candidate's (shrunk) body leaves the drivable area.
pub(crate) const VERDICT_OFF_MAP: u32 = u32::MAX - 1;
// Any other verdict value is the *position within the active list* of the
// first obstacle whose slice (or midpoint) footprint the candidate hits.
// Positions — not raw cache indices — keep blame masks dense, and the
// active list maps them back when a counterfactual patch needs identity.

/// Computes the ego's escape-route reach-tube over `[t, t+k]`.
///
/// This is the paper's `Reach(M, X_{t:t+k}, x_t^ego)` (Algorithm 1): starting
/// from the ego state, controls are sampled per [`SamplingMode`] at every
/// time slice, states are propagated through the bicycle model, and a
/// propagated state survives only when the ego footprint there
///
/// * does not intersect any obstacle footprint at that slice's time (nor at
///   the slice midpoint, to suppress tunnelling), and
/// * stays fully inside the drivable area `M`.
///
/// Surviving states are ε-deduplicated (optimization 1). The tube volume is
/// measured on a fixed ego-centred occupancy grid whose extent depends only
/// on the ego state and the config — never on the obstacles — so the
/// volumes of the factual and counterfactual tubes in STI's Eq. (4)–(5) are
/// directly comparable.
pub fn compute_reach_tube(
    map: &RoadMap,
    ego: VehicleState,
    obstacles: &[Obstacle],
    config: &ReachConfig,
) -> ReachTube {
    let cache = SliceCache::new(obstacles, config);
    let active: Vec<usize> = (0..cache.obstacle_count()).collect();
    compute_reach_tube_cached(map, ego, &cache, &active, config)
}

/// [`compute_reach_tube`] over a precomputed [`SliceCache`] and an obstacle
/// subset.
///
/// `active` selects which cached obstacles participate (indices into the
/// obstacle list the cache was built from); the STI evaluator uses this to
/// compute the factual tube (`all`), the empty tube (`&[]`) and every
/// per-actor counterfactual tube (`all minus i`) from **one** shared cache,
/// instead of re-interpolating every obstacle trajectory per tube.
///
/// The result is bit-identical to calling [`compute_reach_tube`] with the
/// corresponding obstacle slice: the cache stores footprints built by the
/// same arithmetic, and its broadphase boxes only ever skip exact
/// separating-axis tests that must report "no collision".
///
/// This is the *reference* path: it rebuilds the whole tube from scratch for
/// whatever subset it is given. [`crate::compute_reach_tube_traced`] runs
/// the same propagation while recording blame, from which
/// [`crate::patch_counterfactual`] and [`crate::derive_empty_tube`] derive
/// the single-actor-removed and empty-world tubes incrementally; the
/// derived tubes are bit-identical to this function's.
///
/// # Panics
///
/// Panics when `config` is invalid, when an index in `active` is out of
/// bounds for the cache, or (in validating builds) when the ego state is
/// non-finite or its heading is unnormalized.
// iprism: hot-path(deterministic)
pub fn compute_reach_tube_cached(
    map: &RoadMap,
    ego: VehicleState,
    cache: &SliceCache,
    active: &[usize],
    config: &ReachConfig,
) -> ReachTube {
    let start = PartialTube::start(ego, ego_grid(&ego, config));
    tube_core(map, ego, start, cache, active, config, &mut NoTrace)
}

/// The propagation loop behind every build. It expands `tube` — a fresh
/// start from `ego`, or the copied prefix of a derived tube — slice by
/// slice from its frontier up to the horizon, against the obstacles
/// `active`.
///
/// The tracer observes, in deterministic order, exactly the events the
/// incremental patcher later needs: every fresh filter verdict (per parent,
/// keyed by candidate heading bits), parent boundaries, every newly
/// occupied grid cell, and per-slice truncation. [`NoTrace`] compiles all
/// of it away, so the reference path is unchanged by the instrumentation.
/// A traced build starts fresh, so its record covers every slice.
pub(crate) fn tube_core<T: TubeTrace>(
    map: &RoadMap,
    ego: VehicleState,
    mut tube: PartialTube,
    cache: &SliceCache,
    active: &[usize],
    config: &ReachConfig,
    tracer: &mut T,
) -> ReachTube {
    config.validate();
    iprism_contracts::check_finite_state(
        "compute_reach_tube ego",
        &[ego.x, ego.y, ego.theta, ego.v],
    );
    iprism_contracts::check_heading_normalized("compute_reach_tube ego", ego.theta);
    // Clamp and take `tan φ` once per control for the whole tube; stepping a
    // prepared control is bit-identical to stepping the raw one.
    let prepared = prepare_controls(config);
    let n_slices = config.slices();
    let dims = BodyDims::of(config);

    // Obstacles whose swept broadphase bounds the ego provably cannot reach
    // are dropped from the active set up front — for distant traffic this
    // empties the collision loop entirely.
    let active: Vec<u32> = active
        .iter()
        .copied()
        .filter(|&i| cache.interacts(i, &ego))
        .map(|i| i as u32)
        .collect();
    tracer.set_active(&active);

    // Buffers reused across slices (the per-slice allocations dominated the
    // small-scene profile).
    let mut candidates: Vec<VehicleState> = Vec::new();
    let mut cells = CellTable::new();
    // Per-parent filter verdicts keyed by exact heading bits; holds at most
    // one entry per distinct steering angle in the control set.
    let mut theta_memo: Vec<(u64, u32)> = Vec::with_capacity(prepared.len());
    // Tube-global sine/cosine memo: frontier headings recur heavily across
    // parents and slices (straight driving keeps most of the frontier at a
    // handful of headings), so one libm call per *distinct* heading serves
    // the whole tube.
    let mut trig = TrigTable::new();

    for slice_idx in tube.slice_count()..=n_slices {
        // All obstacles of this slice sit in one contiguous lane segment;
        // the active list picks the participating entries by index.
        let lanes = cache
            .slice_lanes(slice_idx - 1)
            .unwrap_or(SliceLanes::EMPTY);

        // Phase 1: generate every feasible candidate of this slice and mark
        // its swept segment. Marking happens for *all* feasible transitions
        // — including ones the ε-dedup below drops from further expansion —
        // so the volume measure does not depend on which duplicate becomes
        // the expansion representative.
        //
        // One Euler step moves the position by `v·cosθ·dt` regardless of the
        // control, so every candidate of a parent shares one position (and
        // one swept segment), and candidates sharing a steering angle share
        // their heading too. The geometric filters (drivability, slice and
        // midpoint collision) read only `(x, y, θ)` — never `v` — so their
        // verdict is computed once per distinct heading and the segment is
        // marked once per parent, with bit-identical results.
        candidates.clear();
        for &state in &tube.frontier {
            theta_memo.clear();
            let mut marked = false;
            // One sin/cos of the parent heading serves every control.
            let (sin_t, cos_t) = trig.memo_sin_cos(state.theta);
            for &p in &prepared {
                let cand = config
                    .model
                    .step_prepared(state, p, config.dt, sin_t, cos_t);
                if !cand.is_finite() {
                    continue;
                }
                let bits = cand.theta.to_bits();
                let code = match theta_memo.iter().find(|&&(b, _)| b == bits) {
                    Some(&(_, code)) => code,
                    None => {
                        let (sin_c, cos_c) = trig.memo_sin_cos(cand.theta);
                        let code =
                            verdict_for(map, &state, &cand, sin_c, cos_c, &dims, &lanes, &active);
                        theta_memo.push((bits, code));
                        tracer.record_verdict(bits, code);
                        code
                    }
                };
                if code != VERDICT_PASS {
                    continue;
                }
                if !marked {
                    tube.grid
                        .mark_segment_with(state.position(), cand.position(), |c| {
                            tracer.grid_cell(c);
                        });
                    marked = true;
                }
                candidates.push(cand);
            }
            tracer.parent_done();
        }

        // Phase 2: ε-dedup (optimization 1) with a *canonical* representative
        // per quantized state cell — the fastest candidate, ties broken by
        // full state ordering. Canonical selection makes the expansion
        // robust to pruning: removing candidates (because an obstacle
        // appeared) can only replace a representative with a slower one,
        // never with a farther-reaching one.
        //
        // Implemented as a single O(n) pass over a reused open-addressing
        // table ([`CellTable`]) keyed by the packed cell id ([`cell_key`]):
        // each insert either claims a fresh cell or replaces the stored
        // representative when the newcomer is canonically greater, so the
        // table ends holding exactly the per-cell canonical maximum — the
        // same states a (cell, canonical-descending) sort followed by
        // keep-first-per-cell selects, without the O(n log n) comparison
        // sort. The frontier order is fixed by the canonical sort below,
        // so probe order never leaks into the result.
        cells.begin(candidates.len());
        for &cand in &candidates {
            cells.insert(cell_key(&cand, config.dedup_epsilon), cand);
        }
        let mut next = cells.drain();
        next.sort_unstable_by(|a, b| canonical_order(b, a));
        let slice_truncated = next.len() > config.max_frontier;
        if slice_truncated {
            next.truncate(config.max_frontier);
            tube.truncated = true;
        }
        tracer.slice_done(slice_truncated);
        tube.frontier = next;
        tube.emit_frontier();
    }

    tube.finish()
}

/// Observer of the propagation events a traced build records.
///
/// Every hook is called at a deterministic point of [`tube_core`]'s
/// control flow, so a recording tracer reconstructs the build exactly.
pub(crate) trait TubeTrace {
    /// The interaction-filtered active set (cache indices) the build uses.
    fn set_active(&mut self, active: &[u32]);
    /// A fresh (memo-missed) filter verdict for candidate heading `bits`.
    fn record_verdict(&mut self, bits: u64, code: u32);
    /// The current parent's control loop finished.
    fn parent_done(&mut self);
    /// Grid cell `cell` became newly occupied.
    fn grid_cell(&mut self, cell: u32);
    /// The slice finished phase 2; `truncated` is its frontier-cap flag.
    fn slice_done(&mut self, truncated: bool);
}

/// The zero-cost tracer of the reference path: every hook is a no-op.
pub(crate) struct NoTrace;

impl TubeTrace for NoTrace {
    #[inline]
    fn set_active(&mut self, _active: &[u32]) {}
    #[inline]
    fn record_verdict(&mut self, _bits: u64, _code: u32) {}
    #[inline]
    fn parent_done(&mut self) {}
    #[inline]
    fn grid_cell(&mut self, _cell: u32) {}
    #[inline]
    fn slice_done(&mut self, _truncated: bool) {}
}

/// The per-tube prepared control set (mode-dependent sampling, clamped and
/// `tan φ`-folded once per control).
pub(crate) fn prepare_controls(config: &ReachConfig) -> Vec<PreparedControl> {
    let limits = &config.model.limits;
    // Borrow the fixed-size control arrays in place instead of allocating a
    // Vec per tube; only the uniform lattice needs heap storage.
    let boundary;
    let extreme;
    let lattice;
    let controls: &[ControlInput] = match config.mode {
        SamplingMode::Boundary => {
            boundary = limits.boundary_controls();
            &boundary
        }
        SamplingMode::Extreme => {
            extreme = limits.extreme_controls();
            &extreme
        }
        SamplingMode::Uniform { na, ns } => {
            lattice = limits.lattice(na, ns);
            &lattice
        }
    };
    controls.iter().map(|&u| config.model.prepare(u)).collect()
}

/// The ego-centred occupancy grid of a tube from `ego` under `config`:
/// extent depends only on the ego state and the config — never on the
/// obstacles — so factual, counterfactual and patched tubes of one scene
/// share identical grids and their volumes compare directly.
pub(crate) fn ego_grid(ego: &VehicleState, config: &ReachConfig) -> Grid2 {
    let (ego_len, _) = config.ego_dims;
    let k = config.horizon.get();
    let reach_radius =
        ego.v * k + 0.5 * config.model.limits.accel_max * k * k + ego_len.get() + 2.0;
    let grid_bounds = Aabb::new(
        ego.position() - Vec2::new(reach_radius, reach_radius),
        ego.position() + Vec2::new(reach_radius, reach_radius),
    );
    Grid2::new(grid_bounds, config.grid_resolution)
}

/// The two ego body boxes the filters read: the slightly shrunk drivability
/// body (roads have usable margins; without the allowance every tilted
/// state near a lane edge dies and the tube loses all lateral spread) and
/// the full collision footprint.
pub(crate) struct BodyDims {
    pub(crate) drive_len: Meters,
    pub(crate) drive_wid: Meters,
    pub(crate) ego_len: Meters,
    pub(crate) ego_wid: Meters,
}

impl BodyDims {
    pub(crate) fn of(config: &ReachConfig) -> Self {
        let (ego_len, ego_wid) = config.ego_dims;
        BodyDims {
            drive_len: (ego_len - 2.0 * config.drivable_margin).max(Meters::new(0.1)),
            drive_wid: (ego_wid - 2.0 * config.drivable_margin).max(Meters::new(0.1)),
            ego_len,
            ego_wid,
        }
    }
}

/// The ego body box at a state — bit-identical to
/// `VehicleState::footprint`, built through the assert-free [`Obb::raw`]
/// so certified panic-free kernels can construct it.
#[inline]
pub(crate) fn body_box(s: &VehicleState, length: Meters, width: Meters) -> Obb {
    Obb::raw(Pose::new(s.x, s.y, Radians::raw(s.theta)), length, width)
}

/// The full per-candidate filter verdict: [`VERDICT_OFF_MAP`] when the
/// (shrunk) body leaves the drivable area, otherwise the obstacle verdict
/// of [`obstacles_verdict`]. Reads only the candidate's pose — the verdict
/// is shared by every sibling candidate with the same heading. `sin_c`,
/// `cos_c` must be `cand.theta.sin_cos()` (callers may memoize; the memo
/// is bit-identical).
#[allow(clippy::too_many_arguments)] // internal hot-path helper
pub(crate) fn verdict_for(
    map: &RoadMap,
    state: &VehicleState,
    cand: &VehicleState,
    sin_c: f64,
    cos_c: f64,
    dims: &BodyDims,
    lanes: &SliceLanes<'_>,
    active: &[u32],
) -> u32 {
    let drive_fp = body_box(cand, dims.drive_len, dims.drive_wid);
    if !map.is_obb_drivable_trig(&drive_fp, sin_c, cos_c) {
        return VERDICT_OFF_MAP;
    }
    obstacles_verdict(state, cand, dims, lanes, active)
}

/// The obstacle half of the filter chain: the slice-footprint collision
/// scan followed by the anti-tunnelling midpoint scan. Returns
/// [`VERDICT_PASS`] or the *active-list position* of the first blocking
/// obstacle.
pub(crate) fn obstacles_verdict(
    state: &VehicleState,
    cand: &VehicleState,
    dims: &BodyDims,
    lanes: &SliceLanes<'_>,
    active: &[u32],
) -> u32 {
    if let Some(pos) = scan_hit(cand, dims, lanes.rejects, lanes.obbs, active) {
        return pos;
    }
    // Midpoint check against tunnelling through thin/fast actors.
    let mid = VehicleState::new(
        (state.x + cand.x) * 0.5,
        (state.y + cand.y) * 0.5,
        cand.theta,
        cand.v,
    );
    match scan_hit(&mid, dims, lanes.mid_rejects, lanes.mid_obbs, active) {
        Some(pos) => pos,
        None => VERDICT_PASS,
    }
}

/// Collision scan of one candidate against the active entries of a slice's
/// footprint lanes, with centre-point broadphase: the exact SAT test (and
/// the ego-OBB construction itself) only runs for obstacles whose reject
/// box contains the candidate's centre. Returns the active-list position of
/// the first hit.
fn scan_hit(
    cand: &VehicleState,
    dims: &BodyDims,
    rejects: &[Aabb],
    obbs: &[Obb],
    active: &[u32],
) -> Option<u32> {
    let center = cand.position();
    let mut ego_fp: Option<Obb> = None;
    for (pos, &ci) in active.iter().enumerate() {
        let Some(reject) = rejects.get(ci as usize) else {
            continue;
        };
        if !reject.contains_point(center) {
            continue;
        }
        let Some(obb) = obbs.get(ci as usize) else {
            continue;
        };
        let fp = ego_fp.get_or_insert_with(|| body_box(cand, dims.ego_len, dims.ego_wid));
        if fp.intersects(obb) {
            return Some(pos as u32);
        }
    }
    None
}

/// Order-preserving integer embedding of an `i64` (flipping the sign bit
/// maps the signed order onto the unsigned order).
#[inline]
fn zorder(v: i64) -> u64 {
    (v as u64) ^ (1 << 63)
}

/// Memo of `θ.sin_cos()` keyed by the exact bit pattern of `θ`, kept sorted
/// for binary-search lookup. On a hit it returns the pair libm produced for
/// those same input bits, so memoized trig is bit-identical to calling
/// `sin_cos` every time; only the (deterministic) call count changes.
///
/// The method is named `memo_sin_cos` (not `sin_cos`) so certified kernels
/// calling the primitive `f64::sin_cos` resolve unambiguously.
struct TrigTable {
    entries: Vec<(u64, f64, f64)>,
}

impl TrigTable {
    fn new() -> Self {
        TrigTable {
            entries: Vec::new(),
        }
    }

    fn memo_sin_cos(&mut self, theta: f64) -> (f64, f64) {
        let bits = theta.to_bits();
        match self.entries.binary_search_by_key(&bits, |e| e.0) {
            Ok(i) => (self.entries[i].1, self.entries[i].2),
            Err(i) => {
                let (s, c) = theta.sin_cos();
                self.entries.insert(i, (bits, s, c));
                (s, c)
            }
        }
    }
}

/// Reusable open-addressing scratch table mapping ε-dedup cells to their
/// canonical representative (the [`canonical_order`] maximum of every
/// candidate inserted for that cell).
///
/// Slots carry a generation tag so clearing between slices is O(1), and
/// hold only an index into a dense entry list of the cells claimed this
/// generation: the table stays 8 bytes a slot, and extraction touches only
/// occupied entries. The hash only steers probe placement — lookups compare
/// the full key, and the caller re-sorts the extracted states — so the
/// result is independent of the hash function and probe order.
struct CellTable {
    /// `(generation, entry index)`; a slot is live iff its tag equals the
    /// table's current generation.
    slots: Vec<(u32, u32)>,
    /// `(key, representative)` of every cell claimed this generation, in
    /// first-insertion order.
    entries: Vec<((u128, u128), VehicleState)>,
    generation: u32,
}

impl CellTable {
    fn new() -> Self {
        CellTable {
            slots: Vec::new(),
            entries: Vec::new(),
            generation: 0,
        }
    }

    /// Starts a new slice: O(1) clear, growing to hold `n` inserts at a load
    /// factor of at most one half.
    fn begin(&mut self, n: usize) {
        let want = (n.max(1) * 2).next_power_of_two();
        if self.slots.len() < want || self.generation == u32::MAX {
            self.slots.clear();
            self.slots.resize(want, (0, 0));
            self.generation = 1;
        } else {
            self.generation += 1;
        }
        self.entries.clear();
    }

    /// Inserts a candidate, keeping the canonical maximum per cell.
    fn insert(&mut self, key: (u128, u128), cand: VehicleState) {
        let mask = self.slots.len() - 1;
        let mut idx = (hash_cell(key) as usize) & mask;
        loop {
            let slot = &mut self.slots[idx];
            if slot.0 != self.generation {
                *slot = (self.generation, self.entries.len() as u32);
                self.entries.push((key, cand));
                return;
            }
            let entry = &mut self.entries[slot.1 as usize];
            if entry.0 == key {
                if canonical_order(&cand, &entry.1) == std::cmp::Ordering::Greater {
                    entry.1 = cand;
                }
                return;
            }
            idx = (idx + 1) & mask;
        }
    }

    /// Extracts the representatives (in unspecified order) and clears the
    /// entry list.
    fn drain(&mut self) -> Vec<VehicleState> {
        let next = self.entries.iter().map(|e| e.1).collect();
        self.entries.clear();
        next
    }
}

/// Mixes a packed cell key into a table index (splitmix-style finalizer).
/// Hash quality only affects probe length, never any result.
#[inline]
fn hash_cell(key: (u128, u128)) -> u64 {
    let mut h = (key.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= ((key.0 >> 64) as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= (key.1 as u64).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= ((key.1 >> 64) as u64).wrapping_mul(0xd6e8_feb8_6659_fd93);
    h ^= h >> 29;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 32)
}

/// The ε-dedup cell of a state as a pair of packed integers: each quantized
/// coordinate of [`quantize`] is embedded order-preserving in a `u64` and
/// packed high-to-low, so two states share a `cell_key` iff they share a
/// `quantize` tuple (the equality the [`CellTable`] dedups on) and the
/// lexicographic key order equals the tuple order (so key-sorted groupings
/// remain available at two machine-word comparisons per key).
pub(crate) fn cell_key(s: &VehicleState, eps: f64) -> (u128, u128) {
    let (qx, qy, qt, qv) = quantize(s, eps);
    (
        (u128::from(zorder(qx)) << 64) | u128::from(zorder(qy)),
        (u128::from(zorder(qt)) << 64) | u128::from(zorder(qv)),
    )
}

/// Quantizes a state for ε-dedup. Position dims are scaled by ε, heading by
/// 0.15 rad and speed by 1 m/s — a state is dropped when all four quantized
/// coordinates match a visited state, approximating the paper's L2-norm
/// threshold test in O(1).
fn quantize(s: &VehicleState, eps: f64) -> (i64, i64, i64, i64) {
    (
        (s.x / eps).round() as i64,
        (s.y / eps).round() as i64,
        (s.theta / 0.15).round() as i64,
        (s.v / 1.0).round() as i64,
    )
}

/// Deterministic total order on states: primarily by speed — the canonical
/// dedup representative is the fastest, farthest-reaching state — with
/// full-state tie-breaking for reproducibility. `total_cmp` keeps the order
/// total even for non-finite states, so the sort can never misbehave.
///
/// Two states comparing `Equal` are bit-identical (all four components
/// `total_cmp` equal), which is what lets the incremental patcher locate a
/// frontier state in the factual frontier by exact binary search.
pub(crate) fn canonical_order(a: &VehicleState, b: &VehicleState) -> Ordering {
    a.v.total_cmp(&b.v)
        .then(a.x.total_cmp(&b.x))
        .then(a.y.total_cmp(&b.y))
        .then(a.theta.total_cmp(&b.theta))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::float_cmp)] // exact comparisons are intentional in tests
    use super::*;
    use iprism_dynamics::Trajectory;
    use iprism_geom::Seconds;

    fn open_road() -> RoadMap {
        RoadMap::straight_road(3, 3.5, 600.0)
    }

    fn ego() -> VehicleState {
        VehicleState::new(100.0, 5.25, 0.0, 10.0)
    }

    fn stationary_obstacle(x: f64, y: f64) -> Obstacle {
        let states = vec![VehicleState::new(x, y, 0.0, 0.0); 2];
        Obstacle::new(
            Trajectory::from_states(Seconds::new(0.0), Seconds::new(3.0), states),
            Meters::new(4.6),
            Meters::new(2.0),
        )
    }

    #[test]
    fn open_road_has_large_tube() {
        let tube = compute_reach_tube(&open_road(), ego(), &[], &ReachConfig::default());
        assert!(!tube.is_empty());
        assert!(tube.volume() > 50.0, "volume {}", tube.volume());
        assert_eq!(tube.slices().len(), ReachConfig::default().slices() + 1);
    }

    #[test]
    fn obstacle_shrinks_tube() {
        let free = compute_reach_tube(&open_road(), ego(), &[], &ReachConfig::default());
        let blocked = compute_reach_tube(
            &open_road(),
            ego(),
            &[stationary_obstacle(115.0, 5.25)],
            &ReachConfig::default(),
        );
        assert!(blocked.volume() < free.volume());
        assert!(blocked.volume() > 0.0);
    }

    #[test]
    fn surrounded_ego_has_empty_tube() {
        // Box the ego in completely at close range.
        let obstacles = vec![
            stationary_obstacle(106.0, 5.25), // ahead
            stationary_obstacle(94.0, 5.25),  // behind
            stationary_obstacle(100.0, 8.75), // left
            stationary_obstacle(100.0, 1.75), // right
            stationary_obstacle(106.0, 8.75),
            stationary_obstacle(106.0, 1.75),
        ];
        let cfg = ReachConfig {
            mode: SamplingMode::Boundary,
            ..ReachConfig::default()
        };
        let tube = compute_reach_tube(&open_road(), ego(), &obstacles, &cfg);
        // With 10 m/s the ego cannot stop before 106 and cannot swerve.
        assert!(
            tube.volume() < 10.0,
            "nearly trapped ego should have tiny tube, got {}",
            tube.volume()
        );
    }

    #[test]
    fn off_map_start_yields_empty_tube() {
        let e = VehicleState::new(100.0, 50.0, 0.0, 10.0);
        let tube = compute_reach_tube(&open_road(), e, &[], &ReachConfig::default());
        assert!(tube.is_empty());
        assert_eq!(tube.volume(), 0.0);
    }

    #[test]
    fn faster_ego_reaches_more() {
        let slow = compute_reach_tube(
            &open_road(),
            VehicleState::new(100.0, 5.25, 0.0, 3.0),
            &[],
            &ReachConfig::default(),
        );
        let fast = compute_reach_tube(
            &open_road(),
            VehicleState::new(100.0, 5.25, 0.0, 15.0),
            &[],
            &ReachConfig::default(),
        );
        assert!(fast.volume() > slow.volume());
    }

    #[test]
    fn longer_horizon_grows_tube_volume() {
        let short = ReachConfig {
            horizon: Seconds::new(1.5),
            ..ReachConfig::default()
        };
        let long = ReachConfig {
            horizon: Seconds::new(3.0),
            ..ReachConfig::default()
        };
        let ts = compute_reach_tube(&open_road(), ego(), &[], &short);
        let tl = compute_reach_tube(&open_road(), ego(), &[], &long);
        // Same grid extents depend on horizon, so compare cell counts scaled
        // by resolution — volume in m² is comparable.
        assert!(tl.volume() > ts.volume());
    }

    #[test]
    fn sampling_modes_agree_qualitatively() {
        // Footnote 5 of the paper: optimized and unoptimized computations
        // differ only marginally. Check the obstacle-induced *relative*
        // shrinkage agrees in direction and rough magnitude.
        let obstacle = stationary_obstacle(112.0, 5.25);
        let modes = [
            SamplingMode::Boundary,
            SamplingMode::Extreme,
            SamplingMode::Uniform { na: 3, ns: 5 },
        ];
        let mut ratios = Vec::new();
        for mode in modes {
            let cfg = ReachConfig {
                mode,
                ..ReachConfig::default()
            };
            let free = compute_reach_tube(&open_road(), ego(), &[], &cfg);
            let blocked =
                compute_reach_tube(&open_road(), ego(), std::slice::from_ref(&obstacle), &cfg);
            ratios.push(blocked.volume() / free.volume());
        }
        for r in &ratios {
            assert!(*r > 0.0 && *r < 1.0, "ratios {ratios:?}");
        }
        // All modes should agree the obstacle removes 10–90% of the tube.
        for w in ratios.windows(2) {
            assert!((w[0] - w[1]).abs() < 0.35, "ratios {ratios:?}");
        }
    }

    #[test]
    fn moving_obstacle_blocks_future_not_present() {
        // An actor far ahead but closing fast: the tube should shrink less
        // than for the same actor parked at its *current* position... and
        // more than for no actor.
        let closing_states: Vec<VehicleState> = (0..14)
            .map(|i| {
                VehicleState::new(
                    150.0 - 8.0 * 0.25 * i as f64,
                    5.25,
                    std::f64::consts::PI,
                    8.0,
                )
            })
            .collect();
        let closing = Obstacle::new(
            Trajectory::from_states(Seconds::new(0.0), Seconds::new(0.25), closing_states),
            Meters::new(4.6),
            Meters::new(2.0),
        );
        let free = compute_reach_tube(&open_road(), ego(), &[], &ReachConfig::default());
        let blocked = compute_reach_tube(&open_road(), ego(), &[closing], &ReachConfig::default());
        assert!(blocked.volume() < free.volume());
    }

    #[test]
    fn deterministic() {
        let cfg = ReachConfig::default();
        let o = stationary_obstacle(115.0, 5.25);
        let a = compute_reach_tube(&open_road(), ego(), std::slice::from_ref(&o), &cfg);
        let b = compute_reach_tube(&open_road(), ego(), &[o], &cfg);
        assert_eq!(a.volume(), b.volume());
        assert_eq!(a.state_count(), b.state_count());
    }

    #[test]
    fn adding_obstacles_never_grows_the_tube_much() {
        // Approximate monotonicity (the property STI's sign depends on):
        // adding an obstacle may only shrink the measured volume, up to the
        // small dedup-representative noise documented in DESIGN.md §8.
        // Deterministic pseudo-random obstacle placements.
        let map = open_road();
        let mut cfg = ReachConfig::fast();
        cfg.max_frontier = 256;
        let base = compute_reach_tube(&map, ego(), &[], &cfg);
        let mut state = 0x1234_5678_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for _ in 0..16 {
            let x = 105.0 + 35.0 * next();
            let y = 1.75 + 7.0 * next();
            let blocked = compute_reach_tube(&map, ego(), &[stationary_obstacle(x, y)], &cfg);
            assert!(
                blocked.volume() <= base.volume() * 1.05 + 1.0,
                "obstacle at ({x:.1},{y:.1}) grew tube: {} -> {}",
                base.volume(),
                blocked.volume()
            );
        }
    }

    #[test]
    fn more_obstacles_monotonically_shrink() {
        // Nested obstacle sets: every superset yields a no-larger tube.
        let map = open_road();
        let cfg = ReachConfig::default();
        let obstacles = [
            stationary_obstacle(112.0, 5.25),
            stationary_obstacle(112.0, 8.75),
            stationary_obstacle(112.0, 1.75),
        ];
        let mut prev = compute_reach_tube(&map, ego(), &[], &cfg).volume();
        for k in 1..=3 {
            let v = compute_reach_tube(&map, ego(), &obstacles[..k], &cfg).volume();
            assert!(
                v <= prev * 1.05 + 1.0,
                "superset grew tube at k={k}: {prev} -> {v}"
            );
            prev = v;
        }
        assert!(
            prev < compute_reach_tube(&map, ego(), &[], &cfg).volume() * 0.8,
            "a full wall must shrink the tube substantially"
        );
    }

    proptest::proptest! {
        /// `cell_key` is an order-preserving (and equality-preserving)
        /// embedding of the `quantize` tuple, so the packed dedup sort
        /// groups and orders cells exactly like the tuple sort it replaced.
        #[test]
        fn prop_cell_key_orders_like_quantize_tuple(
            a in proptest::collection::vec(-1e7..1e7f64, 4),
            b in proptest::collection::vec(-1e7..1e7f64, 4),
        ) {
            let sa = VehicleState::new(a[0], a[1], a[2], a[3]);
            let sb = VehicleState::new(b[0], b[1], b[2], b[3]);
            for eps in [0.5, 1.5, 2.0] {
                let tuple_cmp = quantize(&sa, eps).cmp(&quantize(&sb, eps));
                let key_cmp = cell_key(&sa, eps).cmp(&cell_key(&sb, eps));
                proptest::prop_assert_eq!(tuple_cmp, key_cmp);
            }
        }

        /// The cached/prefiltered path over an arbitrary obstacle subset is
        /// bit-identical (full [`ReachTube`] equality: slices, grid and
        /// truncation flag) to building everything from scratch with only
        /// that subset materialized — i.e. neither the shared [`SliceCache`]
        /// nor any broadphase/relevance prefilter changes a collision
        /// verdict anywhere in the pipeline.
        #[test]
        fn prop_cached_subset_matches_direct(
            placements in proptest::collection::vec(
                (103.0..140.0f64, 0.5..10.0f64), 0..5),
            mask in 0u32..32,
        ) {
            let map = open_road();
            let cfg = ReachConfig::fast();
            let obstacles: Vec<Obstacle> = placements
                .iter()
                .map(|&(x, y)| stationary_obstacle(x, y))
                .collect();
            let cache = SliceCache::new(&obstacles, &cfg);
            let active: Vec<usize> = (0..obstacles.len())
                .filter(|i| mask & (1 << i) != 0)
                .collect();
            let subset: Vec<Obstacle> =
                active.iter().map(|&i| obstacles[i].clone()).collect();
            let cached = compute_reach_tube_cached(&map, ego(), &cache, &active, &cfg);
            let direct = compute_reach_tube(&map, ego(), &subset, &cfg);
            proptest::prop_assert_eq!(cached, direct);
        }
    }

    #[test]
    fn stationary_ego_small_but_nonempty_tube() {
        let e = VehicleState::new(100.0, 5.25, 0.0, 0.0);
        let tube = compute_reach_tube(&open_road(), e, &[], &ReachConfig::default());
        assert!(!tube.is_empty());
        // Can only accelerate forward from rest: small tube.
        let fast = compute_reach_tube(&open_road(), ego(), &[], &ReachConfig::default());
        assert!(tube.volume() < fast.volume());
    }
}
