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
//! build. All of them run the one slice kernel of the reference path; only
//! their start and the record they read or write differ:
//!
//! 1. [`compute_reach_tube_traced`] runs the ordinary factual build once
//!    and keeps each slice's record as *blame* ([`TubeBlame`]): every
//!    parent's fresh verdict run, which obstacle (by position in the
//!    interaction-filtered active list) blocked a candidate, the newly
//!    occupied grid cells and per-slice truncation flags.
//! 2. [`patch_counterfactual`] then derives the tube with actor `i` removed
//!    by revisiting **only** what actor `i` touched. The leading slices
//!    whose blame mask lacks `i` are copied verbatim from the factual
//!    tube's SoA lanes and their recorded grid cells replayed; from the
//!    first affected slice on, the kernel re-derives the frontier with the
//!    factual record as its [`Basis`], reusing recorded verdicts wherever
//!    the removal provably cannot change them.
//! 3. [`derive_empty_tube`] derives the empty-world tube `T^∅` the same
//!    way: the leading slices in which no actor blocked anything are
//!    copied, and the build resumes at the first blamed slice with nothing
//!    active. (A patch removing every actor would reuse almost no recorded
//!    verdict once the frontiers diverge: it measured slower than a fresh
//!    build.)
//!
//! The derived tubes are **bit-identical** to the reference rebuild
//! ([`crate::compute_reach_tube_cached`] over `all minus i`, or over
//! nothing): every reused verdict is justified by monotonicity (removing an
//! obstacle can never turn a pass into a fail, a still-active blocker keeps
//! blocking, and the drivable map never changes), and everything else is
//! recomputed with the same arithmetic in the same order. The property
//! tests at the bottom and the golden FNV suites in `crates/scenarios` gate
//! this equivalence.

use std::cmp::Ordering;

use iprism_dynamics::VehicleState;
use iprism_map::RoadMap;

use crate::compute::{canonical_order, ego_grid, expand, interacting, Scratch, SliceOutcome};
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
    /// (pass, off-map or a blaming active position), in recording order.
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

    /// Appends the record of one traced slice, as the kernel left it in
    /// `scratch` and `out`.
    ///
    /// # Panics
    ///
    /// Panics when the kernel counted more new grid cells than the cell log
    /// held: the record must never be silently truncated.
    pub(crate) fn push_slice(&mut self, scratch: &Scratch, out: &SliceOutcome) {
        assert!(
            out.cells <= scratch.cells.len(),
            "cell log overflow: {} new cells, room for {}",
            out.cells,
            scratch.cells.len()
        );
        let base = self.verdict_bits.len() as u32;
        self.verdict_bits
            .extend_from_slice(&scratch.bits[..out.verdicts]);
        self.verdict_codes
            .extend_from_slice(&scratch.codes[..out.verdicts]);
        self.parent_ends
            .extend(scratch.ends[..out.parents].iter().map(|&end| base + end));
        self.slice_parents.push(self.parent_ends.len() as u32);
        self.cells.extend_from_slice(&scratch.cells[..out.cells]);
        self.slice_cells.push(self.cells.len() as u32);
        self.masks.push(out.mask);
        self.truncated.push(out.truncated);
    }
}

/// [`crate::compute_reach_tube_cached`] plus a [`TubeBlame`] record.
///
/// The returned tube is bit-identical to the untraced call — the record
/// only keeps what the kernel produced anyway. It feeds
/// [`patch_counterfactual`] and [`derive_empty_tube`].
pub fn compute_reach_tube_traced(
    map: &RoadMap,
    ego: VehicleState,
    cache: &SliceCache,
    active: &[usize],
    config: &ReachConfig,
) -> (ReachTube, TubeBlame) {
    config.validate();
    let active = interacting(cache, active, &ego);
    let mut blame = TubeBlame {
        active: active.clone(),
        slice_parents: vec![0],
        slice_cells: vec![0],
        ..TubeBlame::default()
    };
    let start = PartialTube::start(ego, ego_grid(&ego, config));
    let tube = expand(map, start, cache, &active, config, None, Some(&mut blame));
    (tube, blame)
}

/// The factual tube's slices `0..=last` (clamped to the tube) as the start
/// of a derived tube: the lanes copied, the grid cells those slices newly
/// occupied replayed onto a fresh ego grid, their truncation flags and
/// blame masks kept as the prefix's truncation and blocking flags.
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
    let blocked = blame.masks.iter().take(last).any(|&m| m != 0);
    tube.prefix(last, grid, truncated, blocked)
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
/// resumes from there with nothing active. With no blamed slice, `T^∅` is
/// the factual tube.
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
    config.validate();
    let Some(first) = blame.first_blamed_slice() else {
        return tube.clone();
    };
    let Some(ego) = tube.slices().get(0).and_then(|s| s.get(0)) else {
        return tube.clone();
    };
    let start = copy_prefix(tube, blame, &ego, first - 1, config);
    expand(map, start, cache, &[], config, None, None)
}

/// Derives the counterfactual tube with cached obstacle `removed` deleted
/// from the traced build's active set, bit-identical to rebuilding via
/// [`crate::compute_reach_tube_cached`] with `removed` excluded.
///
/// `tube` and `blame` must come from one [`compute_reach_tube_traced`] call
/// over the same `cache` and `config` (the STI evaluator guarantees this by
/// construction). Slices provably untouched by `removed` are copied from
/// the factual tube; the rest are expanded with the factual record as the
/// [`Basis`], reusing every recorded verdict the removal cannot change.
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
    let Some(ego) = tube.slices().get(0).and_then(|s| s.get(0)) else {
        return tube.clone();
    };
    // Until the first slice blaming the removed actor, every slice is the
    // factual one: its parents are, and none of its verdicts involved the
    // actor. From there on the frontier may grow past the factual one, so
    // every later slice is patched.
    let last = blame.unblamed_prefix(1u64 << removed_pos.min(63));
    let start = copy_prefix(tube, blame, &ego, last, config);
    let mut basis = Basis {
        tube,
        blame,
        removed: removed_pos,
        parents: Vec::new(),
        first: 0,
    };
    expand(map, start, cache, &reduced, config, Some(&mut basis), None)
}

/// The factual record a patch re-derives from: the traced build's tube and
/// blame, the removed actor's position in the traced active list, and the
/// factual parents of the slice being expanded.
pub(crate) struct Basis<'a> {
    tube: &'a ReachTube,
    blame: &'a TubeBlame,
    removed: u32,
    /// The factual frontier the current slice expands (canonical
    /// descending), and the record index of its first parent.
    parents: Vec<VehicleState>,
    first: usize,
}

impl Basis<'_> {
    /// Loads the factual parents of the slice expanding slice `parent_slice`.
    pub(crate) fn load_slice(&mut self, parent_slice: usize) {
        self.parents.clear();
        if let Some(parents) = self.tube.slices().get(parent_slice) {
            self.parents.extend(parents.iter());
        }
        self.first = self
            .blame
            .slice_parents
            .get(parent_slice)
            .copied()
            .unwrap_or(0) as usize;
    }

    /// The verdict run the factual build recorded for `state`, the `k`-th
    /// parent of the current slice, when it expanded the same parent. On
    /// the first patched slice the frontiers are identical, so the twin is
    /// simply the `k`-th factual parent; diverged frontiers locate it by
    /// exact binary search (canonical order ties are bit-identical states).
    pub(crate) fn run(&self, k: usize, state: &VehicleState) -> Option<Run<'_>> {
        let j = match self.parents.get(k) {
            Some(twin) if canonical_order(twin, state) == Ordering::Equal => k,
            _ => self
                .parents
                .binary_search_by(|probe| canonical_order(probe, state).reverse())
                .ok()?,
        };
        let g = self.first + j;
        let lo = self
            .blame
            .parent_ends
            .get(g.wrapping_sub(1))
            .copied()
            .unwrap_or(0) as usize;
        let hi = *self.blame.parent_ends.get(g)? as usize;
        Some(Run {
            bits: self.blame.verdict_bits.get(lo..hi)?,
            codes: self.blame.verdict_codes.get(lo..hi)?,
            removed: self.removed,
        })
    }
}

/// One factual parent's recorded verdict run, with the position of the
/// actor the patch removes.
#[derive(Clone, Copy)]
pub(crate) struct Run<'a> {
    bits: &'a [u64],
    codes: &'a [u32],
    pub(crate) removed: u32,
}

impl Run<'_> {
    /// The recorded verdict of heading `bits`. A run holds at most one
    /// entry per distinct steering angle, so the scan is a handful of
    /// comparisons.
    pub(crate) fn recorded(&self, bits: u64) -> Option<u32> {
        let i = self.bits.iter().position(|&b| b == bits)?;
        self.codes.get(i).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::compute_reach_tube_cached;
    use crate::{Obstacle, SamplingMode};
    use iprism_dynamics::Trajectory;
    use iprism_geom::{Meters, Seconds};
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

    /// The default (`true`) or fast preset under sampling mode `mode`
    /// (Boundary, Extreme, Uniform).
    fn preset(default_preset: bool, mode: usize) -> ReachConfig {
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
        cfg
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

    /// 66 parked cars behind the ego, 1.4 m apart in each of the three
    /// lanes: inside its interaction reach but never in its way, they fill
    /// active positions 0–65. The five blockers ahead then sit at positions
    /// past the 64-bit mask, so every slice they block is saturated.
    fn crowd() -> Vec<Obstacle> {
        let parked = (0..66).map(|i: u32| {
            stationary_obstacle(93.0 - 1.4 * f64::from(i / 3), 1.75 + 3.5 * f64::from(i % 3))
        });
        let blockers = [
            (109.0, 5.25),
            (116.0, 1.75),
            (122.0, 8.75),
            (128.0, 5.25),
            (134.0, 1.75),
        ]
        .map(|(x, y)| moving_obstacle(x, y, 3.0));
        parked.chain(blockers).collect()
    }

    #[test]
    fn patch_every_actor_matches_rebuild() {
        let map = open_road();
        for (cfg, obstacles) in [
            (ReachConfig::default(), scene()),
            (ReachConfig::default(), crowd()),
            (ReachConfig::fast(), crowd()),
        ] {
            let cache = SliceCache::new(&obstacles, &cfg);
            let all: Vec<usize> = (0..obstacles.len()).collect();
            let (tube, blame) = compute_reach_tube_traced(&map, ego(), &cache, &all, &cfg);
            if obstacles.len() > 64 {
                assert_eq!(blame.active().len(), obstacles.len());
                // Only the blockers block, and each of them saturates.
                assert!(blame.masks.iter().all(|&m| m == 0 || m == u64::MAX));
                assert!(blame.masks.contains(&u64::MAX), "no saturated slice");
                let derived = derive_empty_tube(&map, &tube, &blame, &cache, &cfg);
                let rebuilt = compute_reach_tube_cached(&map, ego(), &cache, &[], &cfg);
                assert_eq!(derived, rebuilt, "derived T^∅ diverged");
            }
            for removed in 0..obstacles.len() {
                let patched = patch_counterfactual(&map, &tube, &blame, &cache, removed, &cfg);
                let without: Vec<usize> = all.iter().copied().filter(|&i| i != removed).collect();
                let rebuilt = compute_reach_tube_cached(&map, ego(), &cache, &without, &cfg);
                assert_eq!(patched, rebuilt, "actor {removed} patch diverged");
                if blame.is_unblamed(removed) {
                    assert_eq!(rebuilt, tube, "unblamed actor {removed} changed the tube");
                }
            }
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

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// One FNV-1a step over byte `b`.
    fn fnv(h: u64, b: u8) -> u64 {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    }

    /// FNV-1a over every lane of a blame record, each lane prefixed by its
    /// length so that records differing only in lane boundaries differ.
    fn blame_fingerprint(blame: &TubeBlame) -> u64 {
        let wide = |lane: &[u32]| lane.iter().map(|&v| u64::from(v)).collect::<Vec<_>>();
        let lanes = [
            wide(&blame.active),
            blame.verdict_bits.clone(),
            wide(&blame.verdict_codes),
            wide(&blame.parent_ends),
            wide(&blame.slice_parents),
            wide(&blame.cells),
            wide(&blame.slice_cells),
            blame.masks.clone(),
            blame.truncated.iter().map(|&t| u64::from(t)).collect(),
        ];
        lanes.iter().fold(FNV_OFFSET, |h, lane| {
            std::iter::once(lane.len() as u64)
                .chain(lane.iter().copied())
                .flat_map(u64::to_le_bytes)
                .fold(h, fnv)
        })
    }

    /// FNV-1a over a tube's state lanes (slice by slice, each slice
    /// prefixed by its length), its truncation flag and its grid (through
    /// the grid's `Debug` image, which lists every cell).
    fn tube_fingerprint(tube: &ReachTube) -> u64 {
        let states = tube.slices().iter().flat_map(|slice| {
            std::iter::once(slice.len() as u64).chain(
                slice
                    .iter()
                    .flat_map(|s| [s.x, s.y, s.theta, s.v].map(f64::to_bits)),
            )
        });
        let h = states
            .chain([u64::from(tube.was_truncated())])
            .flat_map(u64::to_le_bytes)
            .fold(FNV_OFFSET, fnv);
        format!("{:?}", tube.grid()).bytes().fold(h, fnv)
    }

    /// Eight actors driving along the three lanes, leading and oncoming.
    fn moving_scene() -> Vec<Obstacle> {
        [
            (112.0, 5.25, 4.0),
            (125.0, 8.75, -6.0),
            (104.0, 1.75, 7.0),
            (140.0, 5.25, -8.0),
            (118.0, 1.75, 0.0),
            (131.0, 8.75, 5.0),
            (150.0, 1.75, -3.0),
            (109.0, 8.75, 2.0),
        ]
        .iter()
        .map(|&(x, y, speed)| moving_obstacle(x, y, speed))
        .collect()
    }

    /// The traced build's blame record is pinned lane for lane: the scene
    /// above, the three pinned `T^∅` regimes and an 8-actor moving scene,
    /// under both presets. A change to how the record is written must leave
    /// every recorded verdict, offset, cell and flag where it was.
    #[test]
    fn traced_blame_record_is_pinned() {
        let scenes = [
            scene(),
            vec![stationary_obstacle(115.0, 14.0)],
            vec![stationary_obstacle(106.0, 5.25)],
            vec![stationary_obstacle(128.0, 5.25)],
            moving_scene(),
        ];
        let map = open_road();
        let mut h = FNV_OFFSET;
        for cfg in [ReachConfig::default(), ReachConfig::fast()] {
            for obstacles in &scenes {
                let cache = SliceCache::new(obstacles, &cfg);
                let all: Vec<usize> = (0..obstacles.len()).collect();
                let (_, blame) = compute_reach_tube_traced(&map, ego(), &cache, &all, &cfg);
                h = (h ^ blame_fingerprint(&blame)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(
            h, 0xd312_6649_7bab_4e62,
            "blame record fingerprint {h:#018x}"
        );
    }

    /// Traced tubes and their blame records are pinned under every
    /// sampling mode: both presets sample in Boundary mode, so the golden
    /// suites and [`traced_blame_record_is_pinned`] never reach Extreme or
    /// Uniform, where a kernel that reordered candidates would go
    /// unnoticed. The constant was taken from the per-control kernel that
    /// stepped a flat control list, before expansion along the control axes
    /// replaced it.
    #[test]
    fn tubes_are_pinned_for_every_sampling_mode() {
        let modes = [
            SamplingMode::Boundary,
            SamplingMode::Extreme,
            SamplingMode::Uniform { na: 3, ns: 5 },
            SamplingMode::Uniform { na: 4, ns: 7 },
        ];
        let map = open_road();
        let mut h = FNV_OFFSET;
        for preset in [ReachConfig::default(), ReachConfig::fast()] {
            for mode in modes {
                let cfg = ReachConfig {
                    mode,
                    ..preset.clone()
                };
                for obstacles in [scene(), moving_scene()] {
                    let cache = SliceCache::new(&obstacles, &cfg);
                    let all: Vec<usize> = (0..obstacles.len()).collect();
                    let (tube, blame) = compute_reach_tube_traced(&map, ego(), &cache, &all, &cfg);
                    for part in [tube_fingerprint(&tube), blame_fingerprint(&blame)] {
                        h = (h ^ part).wrapping_mul(0x0100_0000_01b3);
                    }
                }
            }
        }
        assert_eq!(
            h, 0x6931_75d2_f91b_6ad5,
            "sampling-mode tube fingerprint {h:#018x}"
        );
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
            let cfg = preset(default_preset, mode);
            let obstacles: Vec<Obstacle> = placements
                .iter()
                .map(|&(x, y, speed)| moving_obstacle(x, y, speed))
                .collect();
            let (_, _, derived, rebuilt) = empty_tubes(&obstacles, &cfg);
            prop_assert_eq!(derived, rebuilt);
        }
    }

    proptest! {
        /// The load-bearing equivalence: for random stationary, leading and
        /// oncoming obstacles, both presets, every sampling mode and every
        /// removal choice, the patched counterfactual tube equals the full
        /// reference rebuild in every field — slices, grid occupancy and
        /// truncation flag.
        #[test]
        fn prop_patch_matches_rebuild(
            placements in proptest::collection::vec(
                (103.0..160.0f64, 0.5..10.0f64, -8.0..8.0f64), 1..9),
            removed_seed in 0usize..8,
            default_preset in any::<bool>(),
            mode in 0usize..3,
        ) {
            let map = open_road();
            let cfg = preset(default_preset, mode);
            let obstacles: Vec<Obstacle> = placements
                .iter()
                .map(|&(x, y, speed)| moving_obstacle(x, y, speed))
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
            // An actor the blame record never blamed blocked nothing: the
            // rebuild without it is the factual tube itself.
            if blame.is_unblamed(removed) {
                prop_assert_eq!(&rebuilt, &tube);
            }
            prop_assert_eq!(patched, rebuilt);
        }

        /// A tube in which no obstacle blocked any candidate is the
        /// empty-world tube: over `prop_patch_matches_rebuild`'s inputs,
        /// every fresh, traced, derived and patched tube that reports
        /// `!was_blocked()` equals the rebuild over no obstacle, which
        /// itself reports `false`. A traced tube is blocked exactly when
        /// its blame record blames a slice.
        #[test]
        fn prop_unblocked_tubes_are_the_empty_tube(
            placements in proptest::collection::vec(
                (103.0..160.0f64, 0.5..10.0f64, -8.0..8.0f64), 1..9),
            removed_seed in 0usize..8,
            default_preset in any::<bool>(),
            mode in 0usize..3,
        ) {
            let map = open_road();
            let cfg = preset(default_preset, mode);
            let obstacles: Vec<Obstacle> = placements
                .iter()
                .map(|&(x, y, speed)| moving_obstacle(x, y, speed))
                .collect();
            let removed = removed_seed % obstacles.len();
            let cache = SliceCache::new(&obstacles, &cfg);
            let all: Vec<usize> = (0..obstacles.len()).collect();
            let without: Vec<usize> =
                all.iter().copied().filter(|&i| i != removed).collect();
            let empty = compute_reach_tube_cached(&map, ego(), &cache, &[], &cfg);
            prop_assert!(!empty.was_blocked());
            let (traced, blame) =
                compute_reach_tube_traced(&map, ego(), &cache, &all, &cfg);
            prop_assert_eq!(traced.was_blocked(), blame.first_blamed_slice().is_some());
            let tubes = [
                ("fresh", compute_reach_tube_cached(&map, ego(), &cache, &all, &cfg)),
                ("fresh without", compute_reach_tube_cached(&map, ego(), &cache, &without, &cfg)),
                ("derived", derive_empty_tube(&map, &traced, &blame, &cache, &cfg)),
                ("patched", patch_counterfactual(&map, &traced, &blame, &cache, removed, &cfg)),
                ("traced", traced),
            ];
            for (label, tube) in &tubes {
                if !tube.was_blocked() {
                    prop_assert_eq!(tube, &empty, "unblocked {} tube", label);
                }
            }
        }
    }
}
