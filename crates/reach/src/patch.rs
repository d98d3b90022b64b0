//! Blame-tracked incremental counterfactual tubes.
//!
//! STI (Eq. 4–5) needs `N + 2` reach-tubes per scene: the factual tube over
//! all actors, the empty tube, and one counterfactual tube per actor with
//! only that actor removed. The counterfactuals are overwhelmingly similar
//! to the factual tube — removing one actor can only *add* escape routes,
//! and a distant actor adds none — yet the reference path rebuilds each one
//! from scratch.
//!
//! This module derives every tube but the factual one from a single traced
//! build:
//!
//! 1. [`compute_reach_tube_traced`] runs the ordinary factual build once
//!    while recording *blame*: for every fresh filter verdict, which
//!    obstacle (by position in the interaction-filtered active list)
//!    produced the blocking, plus the exact per-parent verdict runs, the
//!    newly occupied grid cells and per-slice truncation flags
//!    ([`TubeBlame`]).
//! 2. [`patch_counterfactual`] then derives the tube with actor `i` removed
//!    by revisiting **only** what actor `i` touched. The leading slices
//!    whose blame mask lacks `i` are copied verbatim from the factual
//!    tube's SoA lanes and their recorded grid cells replayed; from the
//!    first affected slice on, the certified [`patch_slice`] kernel
//!    re-derives the frontier, reusing recorded verdicts wherever the
//!    removal provably cannot change them.
//! 3. [`derive_empty_tube`] derives the empty-world tube `T^∅` the same
//!    way: the leading slices in which no actor blocked anything are
//!    copied, and the build kernel itself resumes at the first blamed
//!    slice with nothing active. (A patch removing every actor would reuse
//!    almost no recorded verdict once the frontiers diverge, and pays a
//!    sort per slice: it measured slower than a fresh build.)
//!
//! The derived tubes are **bit-identical** to the reference rebuild
//! ([`crate::compute_reach_tube_cached`] over `all minus i`, or over
//! nothing): every reused verdict is justified by monotonicity (removing an
//! obstacle can never turn a pass into a fail, a still-active blocker keeps
//! blocking, and the drivable map never changes), and everything else is
//! recomputed with the same arithmetic in the same order. The property
//! tests at the bottom and the golden FNV suites in `crates/scenarios` gate
//! this equivalence.

use iprism_dynamics::{BicycleModel, PreparedControl, VehicleState};
use iprism_geom::{Grid2, Seconds};
use iprism_map::RoadMap;

use crate::compute::{
    canonical_order, cell_key, ego_grid, obstacles_verdict, prepare_controls, tube_core,
    verdict_for, BodyDims, NoTrace, TubeTrace, VERDICT_OFF_MAP, VERDICT_PASS,
};
use crate::slice_cache::SliceLanes;
use crate::tube::PartialTube;
use crate::{ReachConfig, ReachTube, SliceCache};

/// Blame record of one traced factual build: everything
/// [`patch_counterfactual`] needs to re-derive a one-actor-removed tube
/// without recomputing unaffected work.
///
/// All offset tables are flat and cumulative, so the record is a handful of
/// dense lanes rather than nested `Vec`s.
#[derive(Debug, Clone, Default)]
pub struct TubeBlame {
    /// The interaction-filtered active set (cache indices) the factual
    /// build ran over, in scan order. Verdict codes below refer to
    /// *positions in this list*.
    active: Vec<u32>,
    /// Flat verdict lanes: candidate heading bits and the verdict code
    /// ([`VERDICT_PASS`], [`VERDICT_OFF_MAP`] or a blaming active
    /// position), in recording order.
    verdict_bits: Vec<u64>,
    verdict_codes: Vec<u32>,
    /// Per-parent end offsets into the verdict lanes (cumulative across
    /// all slices).
    parent_ends: Vec<u32>,
    /// Per-slice end offsets into `parent_ends` (leading 0).
    slice_parents: Vec<u32>,
    /// Newly occupied grid cell indices, in mark order.
    cells: Vec<u32>,
    /// Per-slice end offsets into `cells` (leading 0).
    slice_cells: Vec<u32>,
    /// Per-slice blame mask: bit `p` is set when some verdict of the slice
    /// blamed active position `p < 64`; any blame at position ≥ 64
    /// saturates the mask to all-ones (conservatively affecting every
    /// actor).
    masks: Vec<u64>,
    /// Per-slice truncation flags.
    truncated: Vec<bool>,
}

impl TubeBlame {
    fn new() -> Self {
        TubeBlame {
            slice_parents: vec![0],
            slice_cells: vec![0],
            ..TubeBlame::default()
        }
    }

    /// The interaction-filtered active set (cache indices) of the traced
    /// build.
    pub fn active(&self) -> &[u32] {
        &self.active
    }

    /// `true` when no slice's blame involves `cache_index` — the patched
    /// tube for that actor is the factual tube verbatim.
    pub fn is_unblamed(&self, cache_index: usize) -> bool {
        match self.active.iter().position(|&c| c as usize == cache_index) {
            None => true,
            Some(pos) => {
                let bit = 1u64 << (pos as u32).min(63);
                self.masks.iter().all(|&m| m & bit == 0)
            }
        }
    }

    /// The first slice (slice 0 is the ego state) in which some verdict
    /// blamed an actor, or `None` when no actor blocked any candidate —
    /// then the empty-world tube `T^∅` is the factual tube itself.
    pub fn first_blamed_slice(&self) -> Option<usize> {
        let last = self.unblamed_prefix(u64::MAX);
        (last < self.masks.len()).then_some(last + 1)
    }

    /// The last slice before the first one whose blame mask meets `bits`
    /// (every recorded slice when none does): a tube derived by removing
    /// the actors of `bits` shares slices `0..=` this with the factual tube.
    fn unblamed_prefix(&self, bits: u64) -> usize {
        self.masks
            .iter()
            .position(|&m| m & bits != 0)
            .unwrap_or(self.masks.len())
    }
}

/// The recording tracer of [`compute_reach_tube_traced`].
struct BlameRecorder<'a> {
    blame: &'a mut TubeBlame,
    mask: u64,
}

impl TubeTrace for BlameRecorder<'_> {
    fn set_active(&mut self, active: &[u32]) {
        self.blame.active.clear();
        self.blame.active.extend_from_slice(active);
    }

    fn record_verdict(&mut self, bits: u64, code: u32) {
        self.blame.verdict_bits.push(bits);
        self.blame.verdict_codes.push(code);
        if code < VERDICT_OFF_MAP {
            // A blocking verdict: blame the active position. Positions past
            // the mask width saturate — every actor's fast path dies on
            // this slice, never the other way around.
            self.mask |= if code < 64 { 1u64 << code } else { u64::MAX };
        }
    }

    fn parent_done(&mut self) {
        self.blame
            .parent_ends
            .push(self.blame.verdict_bits.len() as u32);
    }

    fn grid_cell(&mut self, cell: u32) {
        self.blame.cells.push(cell);
    }

    fn slice_done(&mut self, truncated: bool) {
        self.blame
            .slice_parents
            .push(self.blame.parent_ends.len() as u32);
        self.blame.slice_cells.push(self.blame.cells.len() as u32);
        self.blame.masks.push(self.mask);
        self.blame.truncated.push(truncated);
        self.mask = 0;
    }
}

/// [`crate::compute_reach_tube_cached`] plus a [`TubeBlame`] record.
///
/// The returned tube is bit-identical to the untraced call — the tracer
/// only observes. The blame record feeds [`patch_counterfactual`].
pub fn compute_reach_tube_traced(
    map: &RoadMap,
    ego: VehicleState,
    cache: &SliceCache,
    active: &[usize],
    config: &ReachConfig,
) -> (ReachTube, TubeBlame) {
    let mut blame = TubeBlame::new();
    let tube = {
        let mut recorder = BlameRecorder {
            blame: &mut blame,
            mask: 0,
        };
        let start = PartialTube::start(ego, ego_grid(&ego, config));
        tube_core(map, ego, start, cache, active, config, &mut recorder)
    };
    (tube, blame)
}

/// The factual tube's slices `0..=last` (clamped to the tube) as the start
/// of a derived tube: the lanes copied, the grid cells those slices newly
/// occupied replayed onto a fresh ego grid, their truncation flags kept.
fn copy_prefix(
    tube: &ReachTube,
    blame: &TubeBlame,
    ego: &VehicleState,
    last: usize,
    config: &ReachConfig,
) -> PartialTube {
    let last = last.min(tube.slices().len().saturating_sub(1));
    let mut grid = ego_grid(ego, config);
    let cells_end = blame.slice_cells.get(last).copied().unwrap_or(0) as usize;
    for &cell in blame.cells.get(..cells_end).unwrap_or(&[]) {
        grid.occupy_index(cell as usize);
    }
    let truncated = blame.truncated.iter().take(last).any(|&t| t);
    tube.prefix(last, grid, truncated)
}

/// Derives the empty-world tube `T^∅` (no obstacle active) from a traced
/// factual build, bit-identical to [`crate::compute_reach_tube_cached`]
/// over the empty set.
///
/// A slice whose verdicts blamed no actor holds only passes and off-map
/// verdicts, which is what the empty world gives too; so while its parents
/// are the factual ones, the slice, the grid cells it marks and its
/// truncation flag are the factual ones. Every slice before
/// [`TubeBlame::first_blamed_slice`] is therefore copied, and the build
/// kernel resumes from there with nothing active. With no blamed slice,
/// `T^∅` is the factual tube.
///
/// `tube` and `blame` must come from one [`compute_reach_tube_traced`] call
/// over the same `cache` and `config`.
pub fn derive_empty_tube(
    map: &RoadMap,
    tube: &ReachTube,
    blame: &TubeBlame,
    cache: &SliceCache,
    config: &ReachConfig,
) -> ReachTube {
    let Some(first) = blame.first_blamed_slice() else {
        return tube.clone();
    };
    let Some(ego) = tube.slices().get(0).and_then(|s| s.get(0)) else {
        return tube.clone();
    };
    let start = copy_prefix(tube, blame, &ego, first - 1, config);
    tube_core(map, ego, start, cache, &[], config, &mut NoTrace)
}

/// Derives the counterfactual tube with cached obstacle `removed` deleted
/// from the traced build's active set, bit-identical to rebuilding via
/// [`crate::compute_reach_tube_cached`] with `removed` excluded.
///
/// `tube` and `blame` must come from one [`compute_reach_tube_traced`] call
/// over the same `cache` and `config` (the STI evaluator guarantees this by
/// construction). Slices provably untouched by `removed` are copied from
/// the factual tube; the rest run through the certified [`patch_slice`]
/// kernel, which reuses every recorded verdict the removal cannot change.
pub fn patch_counterfactual(
    map: &RoadMap,
    tube: &ReachTube,
    blame: &TubeBlame,
    cache: &SliceCache,
    removed: usize,
    config: &ReachConfig,
) -> ReachTube {
    config.validate();
    let removed_u32 = removed as u32;
    let Some(removed_pos) = blame.active.iter().position(|&c| c == removed_u32) else {
        // The actor never interacted: the reference rebuild filters to the
        // identical active set and reproduces the factual tube bit for bit.
        return tube.clone();
    };
    let removed_pos = removed_pos as u32;
    let reduced: Vec<u32> = blame
        .active
        .iter()
        .copied()
        .filter(|&c| c != removed_u32)
        .collect();
    let fslices = tube.slices();
    let Some(ego) = fslices.get(0).and_then(|s| s.get(0)) else {
        return tube.clone();
    };
    let prepared = prepare_controls(config);
    // Until the first slice blaming the removed actor, every slice is the
    // factual one: its parents are, and none of its verdicts involved the
    // actor.
    let last = blame.unblamed_prefix(1u64 << removed_pos.min(63));
    let mut out = copy_prefix(tube, blame, &ego, last, config);

    // Scratch the kernel works in (it cannot allocate): a per-parent
    // verdict memo and a candidate buffer sized for the worst slice.
    let empty_state = VehicleState::new(0.0, 0.0, 0.0, 0.0);
    let mut memo: Vec<(u64, u32)> = vec![(0, 0); prepared.len()];
    let mut buf: Vec<((u128, u128), VehicleState)> =
        vec![((0, 0), empty_state); config.max_frontier.max(1) * prepared.len()];

    let ctx = PatchCtx {
        map,
        model: &config.model,
        prepared: &prepared,
        dt: config.dt,
        dedup_epsilon: config.dedup_epsilon,
        max_frontier: config.max_frontier,
        dims: BodyDims::of(config),
        blame,
        reduced: &reduced,
        removed_pos,
    };

    // From the first affected slice on, the frontier may grow past the
    // factual one, so every later slice is patched.
    let mut factual_parents: Vec<VehicleState> = Vec::new();
    for slice_idx in out.slice_count()..=config.slices() {
        let so = slice_idx - 1;
        factual_parents.clear();
        if let Some(fparents) = fslices.get(so) {
            factual_parents.extend(fparents.iter());
        }
        let parents_base = blame.slice_parents.get(so).copied().unwrap_or(0) as usize;
        let lanes = cache.slice_lanes(so).unwrap_or(SliceLanes::EMPTY);
        let needed = out.frontier.len() * prepared.len();
        if buf.len() < needed {
            buf.resize(needed, ((0, 0), empty_state));
        }
        let (frontier_len, slice_truncated) = patch_slice(
            &ctx,
            &lanes,
            parents_base,
            &out.frontier,
            &factual_parents,
            &mut out.grid,
            &mut memo,
            &mut buf,
        );
        out.truncated |= slice_truncated;
        out.frontier.clear();
        out.frontier
            .extend(buf.iter().take(frontier_len).map(|entry| entry.1));
        out.emit_frontier();
    }
    out.finish()
}

/// The loop-invariant inputs of [`patch_slice`].
struct PatchCtx<'a> {
    map: &'a RoadMap,
    model: &'a BicycleModel,
    prepared: &'a [PreparedControl],
    dt: Seconds,
    dedup_epsilon: f64,
    max_frontier: usize,
    dims: BodyDims,
    blame: &'a TubeBlame,
    /// The counterfactual active set: the factual active list minus the
    /// removed actor, original order preserved.
    reduced: &'a [u32],
    /// The removed actor's position in the *factual* active list — the
    /// code recorded blames refer to.
    removed_pos: u32,
}

/// Re-derives one counterfactual slice from its (possibly diverged)
/// frontier, reusing recorded factual verdicts wherever removing the actor
/// provably cannot change them:
///
/// * recorded pass → pass (fewer obstacles cannot block more),
/// * recorded off-map → off-map (the map did not change),
/// * recorded blocking by a *different* actor → still blocked (that actor
///   is still active),
/// * recorded blocking by the removed actor → only the obstacle scans
///   re-run, against the reduced active set (drivability already passed),
/// * unrecorded heading or novel parent → the full filter chain runs.
///
/// Writes the deduplicated, canonically sorted frontier into the prefix of
/// `buf` and returns `(frontier_len, truncated)`. `memo` must hold at least
/// one slot per prepared control; `buf` at least `prev.len() ×
/// prepared.len()` (the wrapper sizes both — the kernel never allocates and
/// silently drops overflow rather than panicking).
#[allow(clippy::too_many_arguments)] // internal hot-path kernel
                                     // iprism: hot-path(no-panic, no-alloc, deterministic)
fn patch_slice(
    ctx: &PatchCtx<'_>,
    lanes: &SliceLanes<'_>,
    parents_base: usize,
    prev: &[VehicleState],
    factual_parents: &[VehicleState],
    grid: &mut Grid2,
    memo: &mut [(u64, u32)],
    buf: &mut [((u128, u128), VehicleState)],
) -> (usize, bool) {
    let mut cursor = 0usize;
    for (k, &state) in prev.iter().enumerate() {
        // The recorded verdict run of this parent, when it appeared in the
        // factual frontier. On the first patched slice the frontiers are
        // identical, so the run is simply the k-th of the slice; diverged
        // frontiers locate their factual twin by exact binary search
        // (canonical order ties are bit-identical states).
        let run = match find_factual_parent(factual_parents, k, &state) {
            Some(j) => {
                let g = parents_base + j;
                let lo = ctx
                    .blame
                    .parent_ends
                    .get(g.wrapping_sub(1))
                    .copied()
                    .unwrap_or(0) as usize;
                let hi = ctx.blame.parent_ends.get(g).copied().unwrap_or(0) as usize;
                match (
                    ctx.blame.verdict_bits.get(lo..hi),
                    ctx.blame.verdict_codes.get(lo..hi),
                ) {
                    (Some(bits), Some(codes)) => Some((bits, codes)),
                    _ => None,
                }
            }
            None => None,
        };
        let mut memo_len = 0usize;
        let mut marked = false;
        let (sin_t, cos_t) = state.theta.sin_cos();
        for &p in ctx.prepared {
            let cand = ctx
                .model
                .step_prepared_unchecked(state, p, ctx.dt, sin_t, cos_t);
            if !cand.is_finite() {
                continue;
            }
            let bits = cand.theta.to_bits();
            let mut memoized = None;
            for &(b, c) in memo.get(..memo_len).unwrap_or(&[]) {
                if b == bits {
                    memoized = Some(c);
                    break;
                }
            }
            let code = match memoized {
                Some(c) => c,
                None => {
                    let c = resolve_verdict(ctx, lanes, run, &state, &cand, bits);
                    if let Some(slot) = memo.get_mut(memo_len) {
                        *slot = (bits, c);
                        memo_len += 1;
                    }
                    c
                }
            };
            if code != VERDICT_PASS {
                continue;
            }
            if !marked {
                grid.mark_segment(state.position(), cand.position());
                marked = true;
            }
            if let Some(slot) = buf.get_mut(cursor) {
                *slot = (cell_key(&cand, ctx.dedup_epsilon), cand);
                cursor += 1;
            }
        }
    }

    // ε-dedup, canonical-representative selection and frontier ordering —
    // the same results the reference path's hash table produces, obtained
    // sort-first so the kernel needs no table: group by cell key with the
    // canonical maximum leading its group, keep each group's head, then
    // restore the canonical-descending frontier order.
    let Some(work) = buf.get_mut(..cursor) else {
        return (0, false);
    };
    work.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| canonical_order(&b.1, &a.1)));
    let mut kept = 0usize;
    let mut last_key: Option<(u128, u128)> = None;
    for read in 0..cursor {
        let entry = match work.get(read) {
            Some(&e) => e,
            None => break,
        };
        if last_key == Some(entry.0) {
            continue;
        }
        last_key = Some(entry.0);
        if let Some(slot) = work.get_mut(kept) {
            *slot = entry;
        }
        kept += 1;
    }
    let Some(frontier) = work.get_mut(..kept) else {
        return (0, false);
    };
    frontier.sort_unstable_by(|a, b| canonical_order(&b.1, &a.1));
    let truncated = kept > ctx.max_frontier;
    (kept.min(ctx.max_frontier), truncated)
}

/// The verdict of one memo-missed candidate heading, reusing the recorded
/// factual verdict when the removal cannot change it (see [`patch_slice`]).
fn resolve_verdict(
    ctx: &PatchCtx<'_>,
    lanes: &SliceLanes<'_>,
    run: Option<(&[u64], &[u32])>,
    state: &VehicleState,
    cand: &VehicleState,
    bits: u64,
) -> u32 {
    let recorded = match run {
        Some((run_bits, run_codes)) => lookup_run(run_bits, run_codes, bits),
        None => None,
    };
    match recorded {
        Some(c) if c == VERDICT_PASS => VERDICT_PASS,
        Some(c) if c == VERDICT_OFF_MAP => VERDICT_OFF_MAP,
        Some(c) if c != ctx.removed_pos => c,
        Some(_) => {
            // The removed actor was the blocker; drivability passed in the
            // factual build (a drive failure records off-map before any
            // obstacle scan), so only the obstacle scans re-run.
            obstacles_verdict(state, cand, &ctx.dims, lanes, ctx.reduced)
        }
        None => {
            let (sin_c, cos_c) = cand.theta.sin_cos();
            verdict_for(
                ctx.map,
                state,
                cand,
                sin_c,
                cos_c,
                &ctx.dims,
                lanes,
                ctx.reduced,
            )
        }
    }
}

/// Finds the factual-frontier index of `state`, trying the aligned position
/// `hint` first (frontiers are identical on the first patched slice) and
/// falling back to exact binary search over the canonical-descending
/// factual frontier.
fn find_factual_parent(
    factual_parents: &[VehicleState],
    hint: usize,
    state: &VehicleState,
) -> Option<usize> {
    if let Some(aligned) = factual_parents.get(hint) {
        if canonical_order(aligned, state) == std::cmp::Ordering::Equal {
            return Some(hint);
        }
    }
    factual_parents
        .binary_search_by(|probe| canonical_order(probe, state).reverse())
        .ok()
}

/// Linear lookup of a heading's recorded verdict in one parent's run. Runs
/// hold at most one entry per distinct steering angle, so the scan is a
/// handful of comparisons.
fn lookup_run(run_bits: &[u64], run_codes: &[u32], bits: u64) -> Option<u32> {
    for (i, &b) in run_bits.iter().enumerate() {
        if b == bits {
            return run_codes.get(i).copied();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::compute_reach_tube_cached;
    use crate::{Obstacle, SamplingMode};
    use iprism_dynamics::Trajectory;
    use iprism_geom::Meters;
    use proptest::prelude::*;

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

    /// An obstacle driving along the road at `speed` (negative: oncoming).
    fn moving_obstacle(x: f64, y: f64, speed: f64) -> Obstacle {
        let heading = if speed < 0.0 {
            std::f64::consts::PI
        } else {
            0.0
        };
        let states = (0..14)
            .map(|i| VehicleState::new(x + speed * 0.25 * f64::from(i), y, heading, speed.abs()))
            .collect();
        Obstacle::new(
            Trajectory::from_states(Seconds::new(0.0), Seconds::new(0.25), states),
            Meters::new(4.6),
            Meters::new(2.0),
        )
    }

    /// The traced factual build over every obstacle, `T^∅` derived from it,
    /// and `T^∅` rebuilt from scratch.
    fn empty_tubes(
        obstacles: &[Obstacle],
        cfg: &ReachConfig,
    ) -> (ReachTube, TubeBlame, ReachTube, ReachTube) {
        let map = open_road();
        let cache = SliceCache::new(obstacles, cfg);
        let all: Vec<usize> = (0..obstacles.len()).collect();
        let (tube, blame) = compute_reach_tube_traced(&map, ego(), &cache, &all, cfg);
        let derived = derive_empty_tube(&map, &tube, &blame, &cache, cfg);
        let rebuilt = compute_reach_tube_cached(&map, ego(), &cache, &[], cfg);
        (tube, blame, derived, rebuilt)
    }

    fn scene() -> Vec<Obstacle> {
        vec![
            stationary_obstacle(112.0, 5.25),
            stationary_obstacle(118.0, 8.75),
            stationary_obstacle(108.0, 1.75),
            stationary_obstacle(500.0, 5.25), // never interacts
        ]
    }

    #[test]
    fn traced_build_matches_untraced() {
        let map = open_road();
        let cfg = ReachConfig::default();
        let obstacles = scene();
        let cache = SliceCache::new(&obstacles, &cfg);
        let all: Vec<usize> = (0..obstacles.len()).collect();
        let (traced, blame) = compute_reach_tube_traced(&map, ego(), &cache, &all, &cfg);
        let plain = compute_reach_tube_cached(&map, ego(), &cache, &all, &cfg);
        assert_eq!(traced, plain);
        // The distant actor was interaction-filtered out of the active set.
        assert_eq!(blame.active(), &[0, 1, 2]);
        assert!(blame.is_unblamed(3));
    }

    #[test]
    fn patch_every_actor_matches_rebuild() {
        let map = open_road();
        let cfg = ReachConfig::default();
        let obstacles = scene();
        let cache = SliceCache::new(&obstacles, &cfg);
        let all: Vec<usize> = (0..obstacles.len()).collect();
        let (tube, blame) = compute_reach_tube_traced(&map, ego(), &cache, &all, &cfg);
        for removed in 0..obstacles.len() {
            let patched = patch_counterfactual(&map, &tube, &blame, &cache, removed, &cfg);
            let without: Vec<usize> = all.iter().copied().filter(|&i| i != removed).collect();
            let rebuilt = compute_reach_tube_cached(&map, ego(), &cache, &without, &cfg);
            assert_eq!(patched, rebuilt, "actor {removed} patch diverged");
        }
    }

    #[test]
    fn non_interacting_actor_patches_to_factual_clone() {
        let map = open_road();
        let cfg = ReachConfig::default();
        let obstacles = scene();
        let cache = SliceCache::new(&obstacles, &cfg);
        let all: Vec<usize> = (0..obstacles.len()).collect();
        let (tube, blame) = compute_reach_tube_traced(&map, ego(), &cache, &all, &cfg);
        let patched = patch_counterfactual(&map, &tube, &blame, &cache, 3, &cfg);
        assert_eq!(patched, tube);
    }

    #[test]
    fn empty_scene_traces_and_patches() {
        let map = open_road();
        let cfg = ReachConfig::default();
        let cache = SliceCache::new(&[], &cfg);
        let (tube, blame) = compute_reach_tube_traced(&map, ego(), &cache, &[], &cfg);
        assert!(!tube.is_empty());
        assert!(blame.active().is_empty());
        // Patching any index is a clone (nothing to remove).
        let patched = patch_counterfactual(&map, &tube, &blame, &cache, 0, &cfg);
        assert_eq!(patched, tube);
    }

    #[test]
    fn empty_derivation_without_blame_is_the_factual_tube() {
        // Beside the road: within the ego's broadphase reach, but every
        // candidate that could touch it has already left the map.
        let (tube, blame, derived, rebuilt) =
            empty_tubes(&[stationary_obstacle(115.0, 14.0)], &ReachConfig::default());
        assert_eq!(blame.active(), &[0]);
        assert_eq!(blame.first_blamed_slice(), None);
        assert_eq!(derived, tube);
        assert_eq!(derived, rebuilt);
    }

    #[test]
    fn empty_derivation_blamed_from_slice_one() {
        // Right ahead of the ego: it blocks candidates of the first slice,
        // so only slice 0 is shared.
        let (tube, blame, derived, rebuilt) =
            empty_tubes(&[stationary_obstacle(106.0, 5.25)], &ReachConfig::default());
        assert_eq!(blame.first_blamed_slice(), Some(1));
        assert_ne!(derived, tube);
        assert_eq!(derived, rebuilt);
    }

    #[test]
    fn empty_derivation_blamed_mid_horizon() {
        // Far ahead in the ego's lane: reached late in the horizon, so the
        // derived tube shares its leading slices with the factual one.
        let cfg = ReachConfig::default();
        let (tube, blame, derived, rebuilt) =
            empty_tubes(&[stationary_obstacle(128.0, 5.25)], &cfg);
        let first = blame
            .first_blamed_slice()
            .expect("the obstacle blocks late");
        assert!(
            1 < first && first < cfg.slices(),
            "first blamed slice {first}"
        );
        for i in 0..first {
            let (a, b) = (
                tube.slices().get(i).unwrap(),
                derived.slices().get(i).unwrap(),
            );
            assert!(a.iter().eq(b.iter()), "shared slice {i} differs");
        }
        assert_ne!(derived, tube);
        assert_eq!(derived, rebuilt);
    }

    proptest! {
        /// `T^∅` derived from a traced factual build equals the rebuild
        /// over the empty set in every field — slices, grid and truncation
        /// flag — across random stationary, leading and oncoming obstacles,
        /// both presets and every sampling mode.
        #[test]
        fn prop_empty_derivation_matches_rebuild(
            placements in proptest::collection::vec(
                (103.0..160.0f64, 0.5..10.0f64, -8.0..8.0f64), 0..9),
            default_preset in any::<bool>(),
            mode in 0usize..3,
        ) {
            let mut cfg = if default_preset {
                ReachConfig::default()
            } else {
                ReachConfig::fast()
            };
            cfg.mode = match mode {
                0 => SamplingMode::Boundary,
                1 => SamplingMode::Extreme,
                _ => SamplingMode::Uniform { na: 3, ns: 3 },
            };
            let obstacles: Vec<Obstacle> = placements
                .iter()
                .map(|&(x, y, speed)| moving_obstacle(x, y, speed))
                .collect();
            let (_, _, derived, rebuilt) = empty_tubes(&obstacles, &cfg);
            prop_assert_eq!(derived, rebuilt);
        }
    }

    proptest! {
        /// The load-bearing equivalence: for random scenes, sampling modes
        /// and removal choices, the patched counterfactual tube equals the
        /// full reference rebuild in every field — slices, grid occupancy
        /// and truncation flag.
        #[test]
        fn prop_patch_matches_rebuild(
            placements in proptest::collection::vec(
                (103.0..140.0f64, 0.5..10.0f64), 1..6),
            removed_seed in 0usize..8,
            boundary in any::<bool>(),
        ) {
            let map = open_road();
            let mut cfg = ReachConfig::fast();
            if boundary {
                cfg.mode = SamplingMode::Boundary;
            }
            let obstacles: Vec<Obstacle> = placements
                .iter()
                .map(|&(x, y)| stationary_obstacle(x, y))
                .collect();
            let removed = removed_seed % obstacles.len();
            let cache = SliceCache::new(&obstacles, &cfg);
            let all: Vec<usize> = (0..obstacles.len()).collect();
            let (tube, blame) =
                compute_reach_tube_traced(&map, ego(), &cache, &all, &cfg);
            let patched =
                patch_counterfactual(&map, &tube, &blame, &cache, removed, &cfg);
            let without: Vec<usize> =
                all.iter().copied().filter(|&i| i != removed).collect();
            let rebuilt =
                compute_reach_tube_cached(&map, ego(), &cache, &without, &cfg);
            prop_assert_eq!(patched, rebuilt);
        }
    }
}
