//! Algorithm 1: frontier-by-frontier reach-tube propagation.

use std::cell::RefCell;
use std::cmp::Ordering;

use iprism_dynamics::VehicleState;
use iprism_geom::{Aabb, Grid2, Meters, Obb, Pose, Radians, Vec2};
use iprism_map::RoadMap;
use iprism_units::MetersPerSecondSquared;

use crate::patch::{Basis, Run};
use crate::slice_cache::SliceLanes;
use crate::{Obstacle, ReachConfig, ReachTube, SamplingMode, SliceCache, TubeBlame};

/// Filter verdict: the candidate survives every geometric filter.
const VERDICT_PASS: u32 = u32::MAX;
/// Filter verdict: the candidate's (shrunk) body leaves the drivable area.
const VERDICT_OFF_MAP: u32 = u32::MAX - 1;
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
    config.validate();
    let active = interacting(cache, active, &ego);
    let start = ReachTube::start(ego, ego_grid(&ego, config));
    expand(map, start, cache, &active, config, None, None)
}

/// The cache indices of `active` that can interact with the ego, in scan
/// order. Obstacles whose swept broadphase bounds the ego provably cannot
/// reach are dropped up front — for distant traffic this empties the
/// collision loop entirely.
pub(crate) fn interacting(cache: &SliceCache, active: &[usize], ego: &VehicleState) -> Vec<u32> {
    active
        .iter()
        .copied()
        .filter(|&i| cache.interacts(i, ego))
        .map(|i| i as u32)
        .collect()
}

/// The one slice loop behind every tube. It expands `tube` — a fresh start
/// from the ego state, or a prefix copied from a traced build — slice by
/// slice from its last slice, the frontier, up to the horizon, against the
/// obstacles `active` (cache indices, in scan order), through
/// [`expand_slice`].
///
/// A patch passes the factual record as its `basis`, so each slice reuses
/// the verdicts the removal cannot change. The traced build passes its
/// `blame`, which each slice's record is appended to. Every other build
/// passes neither and ignores the record.
pub(crate) fn expand(
    map: &RoadMap,
    mut tube: ReachTube,
    cache: &SliceCache,
    active: &[u32],
    config: &ReachConfig,
    mut basis: Option<&mut Basis<'_>>,
    mut blame: Option<&mut TubeBlame>,
) -> ReachTube {
    // Clamp and take `tan φ` once per axis value for the whole tube;
    // stepping prepared values is bit-identical to stepping raw controls.
    let axes = prepare_controls(config);
    let ctx = Expansion {
        map,
        config,
        axes: &axes,
        dims: BodyDims::of(config),
        active,
    };
    let mut scratch = SCRATCH.take();
    if blame.is_some() {
        // A cell turns occupied at most once per tube, so no slice can
        // newly occupy more cells than the grid holds.
        let cells = scratch.cells.len().max(tube.grid().len());
        scratch.cells.resize(cells, 0);
    }
    // The pair each frontier state's admitting verdict computed; none for
    // the frontier the build starts from.
    let mut trigs: Vec<Trig> = Vec::new();
    check_states(tube.frontier());
    for slice_idx in tube.slice_count()..=config.slices() {
        // All obstacles of this slice sit in one contiguous lane segment;
        // the active list picks the participating entries by index.
        let lanes = cache
            .slice_lanes(slice_idx - 1)
            .unwrap_or(SliceLanes::EMPTY);
        if let Some(basis) = basis.as_deref_mut() {
            basis.load_slice(slice_idx - 1);
        }
        let (frontier, grid) = tube.frontier_and_grid();
        scratch.begin_slice(frontier.len(), &axes);
        let out = expand_slice(
            &ctx,
            &lanes,
            basis.as_deref(),
            (frontier, &trigs),
            grid,
            &mut scratch,
        );
        if let Some(blame) = blame.as_deref_mut() {
            blame.push_slice(&scratch, &out);
        }
        tube.truncated |= out.truncated;
        tube.blocked |= out.mask != 0;
        let survivors = scratch.table.entries.iter().take(out.frontier);
        trigs.clear();
        trigs.extend(survivors.clone().map(|&(_, _, trig)| trig));
        tube.push_slice(survivors.map(|&(_, state, _)| state));
        check_states(tube.frontier());
    }
    SCRATCH.set(scratch);
    tube
}

/// The state contracts of every state a tube holds (validating builds
/// only): finite components and a normalized heading. The kernel steps
/// without contracts, so the loop checks each frontier it emits.
fn check_states(states: &[VehicleState]) {
    for s in states {
        iprism_contracts::check_finite_state("reach-tube state", &[s.x, s.y, s.theta, s.v]);
        iprism_contracts::check_heading_normalized("reach-tube state", s.theta);
    }
}

/// The loop-invariant inputs of [`expand_slice`].
struct Expansion<'a> {
    map: &'a RoadMap,
    config: &'a ReachConfig,
    axes: &'a PreparedAxes,
    dims: BodyDims,
    /// The obstacles the build filters against: cache indices, in scan
    /// order.
    active: &'a [u32],
}

thread_local! {
    /// Each thread's [`Scratch`], kept from one tube to the next. Sizing it
    /// afresh for every tube allocates and zero-fills about 0.5 MB at the
    /// default frontier cap, which cost 10–14% of a default-preset build.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// The caller-sized buffers [`expand_slice`] works in, reused across slices
/// and tubes (the kernel itself never allocates).
#[derive(Default)]
pub(crate) struct Scratch {
    /// The slice's verdict memo, parent after parent: the fresh (heading
    /// bits, verdict) pairs of a parent are its verdict run.
    pub(crate) bits: Vec<u64>,
    pub(crate) codes: Vec<u32>,
    /// Per-parent end offsets into `bits`/`codes`.
    pub(crate) ends: Vec<u32>,
    /// The grid cells the slice newly occupied, in mark order, as far as
    /// the log reaches. A traced build sizes it to its grid; other builds
    /// ignore it.
    pub(crate) cells: Vec<u32>,
    /// The current parent's finite successor speeds with their dedup
    /// quanta, at most one per acceleration.
    speeds: Vec<(f64, u64)>,
    /// The current parent's passing successor headings with their dedup
    /// quanta and their sine and cosine (or [`NO_TRIG`]), at most one per
    /// steering value.
    headings: Vec<(f64, u64, Trig)>,
    /// The slice's ε-dedup table.
    table: CellTable,
}

impl Scratch {
    /// Readies the buffers for a slice of `parents` parents, each stepped
    /// under every control of `axes`, and starts a new dedup generation at
    /// a load factor of at most one half.
    fn begin_slice(&mut self, parents: usize, axes: &PreparedAxes) {
        let candidates = parents * axes.accels.len() * axes.steer_tans.len();
        if self.table.entries.len() < candidates {
            self.table.entries.resize(candidates, Default::default());
            self.bits.resize(candidates, 0);
            self.codes.resize(candidates, 0);
        }
        if self.ends.len() < parents {
            self.ends.resize(parents, 0);
        }
        if self.speeds.len() < axes.accels.len() {
            self.speeds.resize(axes.accels.len(), (0.0, 0));
        }
        if self.headings.len() < axes.steer_tans.len() {
            self.headings
                .resize(axes.steer_tans.len(), (0.0, 0, NO_TRIG));
        }
        let table = &mut self.table;
        let slots = (candidates.max(1) * 2).next_power_of_two();
        if table.slots.len() < slots || table.generation == u32::MAX {
            // Every slot of a fresh table is tagged 0, so none is live.
            table.slots.clear();
            table.slots.resize(slots, (0, 0));
            table.generation = 1;
        } else {
            table.generation += 1;
        }
    }
}

/// A dedup cell key or a frontier rank key: two packed integer pairs.
type Key = (u128, u128);

/// A heading's sine and cosine, `θ.sin_cos()`.
type Trig = (f64, f64);

/// The pair of a heading whose sine and cosine no verdict computed. A
/// finite heading's pair is never NaN, and a non-finite one's recomputes
/// to the same bits, so [`known_trig`] is exact.
const NO_TRIG: Trig = (f64::NAN, f64::NAN);

/// `trig`, or `θ.sin_cos()` where `trig` is [`NO_TRIG`].
#[inline]
fn known_trig(trig: Trig, theta: f64) -> Trig {
    if trig.0.is_nan() {
        theta.sin_cos()
    } else {
        trig
    }
}

/// The ε-dedup table of a slice: open-addressing slots of `(generation,
/// entry index)` over the claimed cells. A slot is live iff its tag equals
/// `generation`, so clearing between slices is O(1).
#[derive(Default)]
struct CellTable {
    slots: Vec<(u32, u32)>,
    generation: u32,
    /// `(key, representative, its heading's pair or NO_TRIG)` of every
    /// dedup cell claimed this slice, in first-claim order. The key is the
    /// cell key while the slice claims cells and the rank key once it ranks
    /// them; the kernel leaves the new frontier, ranked, at the head.
    entries: Vec<(Key, VehicleState, Trig)>,
}

/// The counts [`expand_slice`] reports next to what it left in [`Scratch`].
#[derive(Default)]
pub(crate) struct SliceOutcome {
    /// States in the new frontier: the head of the table's entries.
    frontier: usize,
    /// `true` when the frontier cap cut the slice.
    pub(crate) truncated: bool,
    /// Parents expanded, one `Scratch::ends` entry each.
    pub(crate) parents: usize,
    /// Fresh verdicts, the memo entries in `Scratch::bits`/`codes`.
    pub(crate) verdicts: usize,
    /// Grid cells newly occupied, logged only as far as `Scratch::cells`
    /// reaches.
    pub(crate) cells: usize,
    /// Blame mask of the fresh verdicts: bit `p` for a blocking active
    /// position `p < 64`, all-ones for any position ≥ 64. Meaningful for
    /// fresh builds, whose codes index their own active list.
    pub(crate) mask: u64,
}

/// Expands one slice: every parent in `prev` is stepped under every control
/// of the tube's two axes, the candidates are filtered, the swept segments
/// marked on `grid`, and the survivors ε-deduplicated into the new
/// frontier, which the kernel leaves ranked at the head of the table's
/// entries.
///
/// * **Axes.** One Euler step moves every candidate of a parent to the
///   same position, gives every steering value one heading and every
///   acceleration one speed. So the kernel takes one position and position
///   quantum per parent, one heading, verdict and heading quantum per
///   steering value, and one speed and speed quantum per acceleration;
///   each (acceleration, steering) pair, in acceleration-major order, only
///   claims its cell. Non-finite candidates are skipped.
/// * **Trigonometry.** Each heading's sine and cosine is computed at most
///   once: a parent takes the pair its admitting verdict computed (`prev`'s
///   second lane; a copied prefix or a reused verdict computed none, so
///   the parent computes it), a steering value whose heading has the
///   parent's exact bits takes the parent's pair, and the filters take the
///   candidate's pair and the cache's per-slice obstacle pairs.
/// * **Verdicts.** The filters read only a candidate's pose `(x, y, θ)`,
///   never `v`, so siblings sharing a heading share their verdict. A
///   per-parent memo keyed by exact heading bits holds one verdict per
///   distinct heading, in first-need order (two steering values give one
///   heading at `v = 0`). A memo miss is a *fresh* verdict
///   ([`resolve_verdict`]): without a `basis` the whole filter chain runs,
///   while a patch reuses the factual verdict wherever the removal cannot
///   change it.
/// * **Volume.** The segment of a parent is marked once when any of its
///   candidates passes — for *all* feasible transitions, including ones the
///   dedup below drops — so the volume does not depend on which duplicate
///   becomes the expansion representative.
/// * **Dedup** (optimization 1). Each dedup cell ([`cell_key`]) keeps a
///   *canonical* representative — the fastest candidate, ties broken by
///   full state ordering ([`canonical_order`]) — through a
///   generation-tagged open-addressing table. Removing candidates (because
///   an obstacle appeared) can therefore only replace a representative with
///   a slower one, never with a farther-reaching one. The representatives
///   are then ranked canonically descending by their integer [`rank_key`]
///   and capped at `max_frontier` (an overflowing slice selects its top
///   entries and sorts only those), so probe order never leaks into the
///   result.
///
/// The slice's record stays in `scratch` for a traced build to keep: each
/// parent's memo entries (its verdict run) and run end, the newly occupied
/// cells, and the returned blame mask and truncation flag.
///
/// `scratch` must be sized by [`Scratch::begin_slice`] for `prev`. The
/// kernel never allocates or panics: writes past a buffer are dropped,
/// except that new cells are still counted, so a caller that logs cells can
/// tell when its log was short.
// iprism: hot-path(no-panic, no-alloc, deterministic)
fn expand_slice(
    ctx: &Expansion<'_>,
    lanes: &SliceLanes<'_>,
    basis: Option<&Basis<'_>>,
    (prev, prev_trigs): (&[VehicleState], &[Trig]),
    grid: &mut Grid2,
    scratch: &mut Scratch,
) -> SliceOutcome {
    let config = ctx.config;
    let (model, dt, eps) = (&config.model, config.dt, config.dedup_epsilon);
    let mut out = SliceOutcome {
        parents: prev.len(),
        ..SliceOutcome::default()
    };
    let mut claimed = 0usize;
    for (k, &state) in prev.iter().enumerate() {
        let run = basis.and_then(|b| b.run(k, &state));
        let first = out.verdicts;
        // One sin/cos and one position serve every control.
        let trig = known_trig(prev_trigs.get(k).copied().unwrap_or(NO_TRIG), state.theta);
        let pos = model.step_position(&state, dt, trig.0, trig.1);
        let mut rows = 0;
        if pos.is_finite() {
            for &accel in &ctx.axes.accels {
                let v = model.step_speed(&state, accel, dt).get();
                if let (true, Some(row)) = (v.is_finite(), scratch.speeds.get_mut(rows)) {
                    *row = (v, quantum(v, SPEED_QUANTUM));
                    rows += 1;
                }
            }
        }
        // Without a finite speed the parent has no finite candidate, so it
        // needs no verdict.
        let steers = if rows > 0 {
            ctx.axes.steer_tans.as_slice()
        } else {
            &[]
        };
        let mut cols = 0;
        for &tan in steers {
            let theta = model.step_heading(&state, tan, dt).get();
            if !theta.is_finite() {
                continue;
            }
            let bits = theta.to_bits();
            // Straight ahead, or any steering at rest, keeps the parent's
            // heading bits and so its pair.
            let mut cand_trig = if bits == state.theta.to_bits() {
                trig
            } else {
                NO_TRIG
            };
            let code = match memo_lookup(scratch, first, out.verdicts, bits) {
                Some(code) => code,
                None => {
                    let cand = Pose::new(pos.x, pos.y, Radians::raw(theta));
                    let code =
                        resolve_verdict(ctx, lanes, run, &state, &cand, bits, &mut cand_trig);
                    if let (Some(b), Some(c)) = (
                        scratch.bits.get_mut(out.verdicts),
                        scratch.codes.get_mut(out.verdicts),
                    ) {
                        (*b, *c) = (bits, code);
                        out.verdicts += 1;
                    }
                    if code < VERDICT_OFF_MAP {
                        // A blocking verdict blames the active position.
                        // Positions past the mask width saturate: every
                        // actor's copied prefix ends here, never the other
                        // way around.
                        out.mask |= if code < 64 { 1u64 << code } else { u64::MAX };
                    }
                    code
                }
            };
            if let (VERDICT_PASS, Some(col)) = (code, scratch.headings.get_mut(cols)) {
                *col = (theta, quantum(theta, HEADING_QUANTUM), cand_trig);
                cols += 1;
            }
        }
        if cols > 0 {
            grid.mark_segment_with(state.position(), pos, |cell| {
                if let Some(slot) = scratch.cells.get_mut(out.cells) {
                    *slot = cell;
                }
                out.cells += 1;
            });
            let qpos = position_quanta(pos, eps);
            let headings = scratch.headings.get(..cols).unwrap_or_default();
            for &(v, qv) in scratch.speeds.get(..rows).unwrap_or_default() {
                for &(theta, qt, cand_trig) in headings {
                    let cand = VehicleState::new(pos.x, pos.y, theta, v);
                    let key = cell_key(qpos, qt, qv);
                    claimed = scratch.table.claim(claimed, key, cand, cand_trig);
                }
            }
        }
        if let Some(end) = scratch.ends.get_mut(k) {
            *end = out.verdicts as u32;
        }
    }
    let cap = config.max_frontier;
    let frontier = scratch.table.entries.get_mut(..claimed).unwrap_or_default();
    for entry in frontier.iter_mut() {
        entry.0 = rank_key(&entry.1);
    }
    let descending = |a: &(Key, VehicleState, Trig), b: &(Key, VehicleState, Trig)| b.0.cmp(&a.0);
    if claimed > cap {
        // `cap < claimed`: the selection index is in bounds.
        frontier.select_nth_unstable_by(cap, descending);
    }
    if let Some(top) = frontier.get_mut(..claimed.min(cap)) {
        top.sort_unstable_by(descending);
    }
    out.frontier = claimed.min(cap);
    out.truncated = claimed > cap;
    out
}

/// The memoized verdict of heading `bits` among the current parent's fresh
/// verdicts, memo entries `first..end`.
fn memo_lookup(scratch: &Scratch, first: usize, end: usize, bits: u64) -> Option<u32> {
    let i = scratch
        .bits
        .get(first..end)?
        .iter()
        .position(|&b| b == bits)?;
    scratch.codes.get(first + i).copied()
}

/// The fresh verdict of one memo-missed candidate heading. Without a
/// recorded `run` the whole filter chain runs. A patch reuses the factual
/// verdict of the same parent and heading wherever removing the actor
/// provably cannot change it:
///
/// * recorded pass → pass (fewer obstacles cannot block more),
/// * recorded off-map → off-map (the map did not change),
/// * recorded blocking by a *different* actor → still blocked (that actor
///   is still active),
/// * recorded blocking by the removed actor → only the obstacle scans
///   re-run (drivability passed: a drive failure records off-map before any
///   obstacle scan),
/// * unrecorded heading or novel parent → the whole filter chain runs.
///
/// A filter that runs reads the candidate heading's sine and cosine from
/// `trig`, computing and storing it there first when it is [`NO_TRIG`].
fn resolve_verdict(
    ctx: &Expansion<'_>,
    lanes: &SliceLanes<'_>,
    run: Option<Run<'_>>,
    state: &VehicleState,
    cand: &Pose,
    bits: u64,
    trig: &mut Trig,
) -> u32 {
    match run.and_then(|r| Some((r.recorded(bits)?, r.removed))) {
        Some((VERDICT_PASS, _)) => VERDICT_PASS,
        Some((VERDICT_OFF_MAP, _)) => VERDICT_OFF_MAP,
        Some((code, removed)) if code != removed => code,
        Some(_) => {
            *trig = known_trig(*trig, cand.theta);
            obstacles_verdict(state, cand, *trig, &ctx.dims, lanes, ctx.active)
        }
        None => {
            *trig = known_trig(*trig, cand.theta);
            verdict_for(ctx.map, state, cand, *trig, &ctx.dims, lanes, ctx.active)
        }
    }
}

impl CellTable {
    /// Files `cand`, with its heading's pair `trig` (or [`NO_TRIG`]), under
    /// its dedup cell `key`: an unclaimed cell appends an entry, a claimed
    /// one keeps the canonically greater state. Returns the new number of
    /// claimed cells.
    fn claim(&mut self, claimed: usize, key: Key, cand: VehicleState, trig: Trig) -> usize {
        let mask = self.slots.len().wrapping_sub(1);
        let mut idx = (hash_cell(key) as usize) & mask;
        for _ in 0..self.slots.len() {
            let Some(slot) = self.slots.get_mut(idx) else {
                break;
            };
            if slot.0 != self.generation {
                if let Some(entry) = self.entries.get_mut(claimed) {
                    *slot = (self.generation, claimed as u32);
                    *entry = (key, cand, trig);
                    return claimed + 1;
                }
                break;
            }
            if let Some(entry) = self.entries.get_mut(slot.1 as usize) {
                if entry.0 == key {
                    if canonical_order(&cand, &entry.1) == Ordering::Greater {
                        (entry.1, entry.2) = (cand, trig);
                    }
                    return claimed;
                }
            }
            idx = (idx + 1) & mask;
        }
        claimed
    }
}

/// A tube's sampled control set as its two prepared axes: the clamped
/// accelerations and the tangents of the clamped steering angles. Every
/// acceleration pairs with every steering value.
struct PreparedAxes {
    accels: Vec<MetersPerSecondSquared>,
    steer_tans: Vec<f64>,
}

/// The per-tube control axes (mode-dependent sampling), each value clamped
/// and `tan φ`-folded once.
fn prepare_controls(config: &ReachConfig) -> PreparedAxes {
    let (model, limits) = (&config.model, &config.model.limits);
    let axes = match config.mode {
        SamplingMode::Boundary => limits.boundary_axes(),
        SamplingMode::Extreme => limits.extreme_axes(),
        SamplingMode::Uniform { na, ns } => limits.lattice_axes(na, ns),
    };
    PreparedAxes {
        accels: axes
            .accels
            .iter()
            .map(|&a| model.prepare_accel(MetersPerSecondSquared::new(a)))
            .collect(),
        steer_tans: axes
            .steers
            .iter()
            .map(|&s| model.prepare_steer(Radians::raw(s)))
            .collect(),
    }
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
struct BodyDims {
    drive_len: Meters,
    drive_wid: Meters,
    ego_len: Meters,
    ego_wid: Meters,
}

impl BodyDims {
    fn of(config: &ReachConfig) -> Self {
        let (ego_len, ego_wid) = config.ego_dims;
        BodyDims {
            drive_len: (ego_len - 2.0 * config.drivable_margin).max(Meters::new(0.1)),
            drive_wid: (ego_wid - 2.0 * config.drivable_margin).max(Meters::new(0.1)),
            ego_len,
            ego_wid,
        }
    }
}

/// The ego body box at a pose — bit-identical to
/// `VehicleState::footprint`, built through the assert-free [`Obb::raw`]
/// so certified panic-free kernels can construct it.
#[inline]
fn body_box(pose: &Pose, length: Meters, width: Meters) -> Obb {
    Obb::raw(*pose, length, width)
}

/// The full per-candidate filter verdict: [`VERDICT_OFF_MAP`] when the
/// (shrunk) body leaves the drivable area, otherwise the obstacle verdict
/// of [`obstacles_verdict`]. Reads only the candidate's pose — the verdict
/// is shared by every sibling candidate with the same heading. `trig` must
/// be `cand.theta.sin_cos()` (callers may memoize; the memo is
/// bit-identical).
fn verdict_for(
    map: &RoadMap,
    state: &VehicleState,
    cand: &Pose,
    trig: Trig,
    dims: &BodyDims,
    lanes: &SliceLanes<'_>,
    active: &[u32],
) -> u32 {
    let drive_fp = body_box(cand, dims.drive_len, dims.drive_wid);
    if !map.is_obb_drivable_trig(&drive_fp, trig.0, trig.1) {
        return VERDICT_OFF_MAP;
    }
    obstacles_verdict(state, cand, trig, dims, lanes, active)
}

/// The obstacle half of the filter chain: the slice-footprint collision
/// scan followed by the anti-tunnelling midpoint scan. Returns
/// [`VERDICT_PASS`] or the *active-list position* of the first blocking
/// obstacle. `trig` is `cand.theta.sin_cos()`, which the midpoint pose
/// shares.
fn obstacles_verdict(
    state: &VehicleState,
    cand: &Pose,
    trig: Trig,
    dims: &BodyDims,
    lanes: &SliceLanes<'_>,
    active: &[u32],
) -> u32 {
    let slice = (lanes.rejects, lanes.obbs, lanes.trigs);
    if let Some(pos) = scan_hit(cand, trig, dims, slice, active) {
        return pos;
    }
    // Midpoint check against tunnelling through thin/fast actors.
    let mid = Pose::new(
        (state.x + cand.x) * 0.5,
        (state.y + cand.y) * 0.5,
        Radians::raw(cand.theta),
    );
    let mid_lanes = (lanes.mid_rejects, lanes.mid_obbs, lanes.mid_trigs);
    match scan_hit(&mid, trig, dims, mid_lanes, active) {
        Some(pos) => pos,
        None => VERDICT_PASS,
    }
}

/// Collision scan of one candidate against the active entries of a slice's
/// footprint lanes, with centre-point broadphase: the exact SAT test (and
/// the ego-OBB construction itself) only runs for obstacles whose reject
/// box contains the candidate's centre. `trig` is the candidate heading's
/// sine and cosine, and `lanes` the slice's reject boxes, OBBs and OBB
/// heading pairs. Returns the active-list position of the first hit.
fn scan_hit(
    cand: &Pose,
    trig: Trig,
    dims: &BodyDims,
    (rejects, obbs, trigs): (&[Aabb], &[Obb], &[Trig]),
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
        let (Some(obb), Some(&obb_trig)) = (obbs.get(ci as usize), trigs.get(ci as usize)) else {
            continue;
        };
        let fp = ego_fp.get_or_insert_with(|| body_box(cand, dims.ego_len, dims.ego_wid));
        if fp.intersects_given_trig(trig, obb, obb_trig) {
            return Some(pos as u32);
        }
    }
    None
}

/// The total-order bit image of a float: `a.total_cmp(&b)` equals
/// `total_order_bits(a).cmp(&total_order_bits(b))`. It is `total_cmp`'s own
/// signed-integer transform (negative floats have all bits but the sign
/// flipped) with the sign bit then flipped to order the result unsigned.
#[inline]
fn total_order_bits(f: f64) -> u64 {
    let bits = f.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) >> 1) ^ (1 << 63)
}

/// The integer image of [`canonical_order`]: the total-order bits of
/// `(v, x, y, θ)` packed high to low, so comparing two rank keys compares
/// the states canonically at two machine-word comparisons.
#[inline]
fn rank_key(s: &VehicleState) -> Key {
    (
        (u128::from(total_order_bits(s.v)) << 64) | u128::from(total_order_bits(s.x)),
        (u128::from(total_order_bits(s.y)) << 64) | u128::from(total_order_bits(s.theta)),
    )
}

/// Mixes a packed cell key into a table index (splitmix-style finalizer).
/// Hash quality only affects probe length, never any result.
#[inline]
fn hash_cell(key: Key) -> u64 {
    let mut h = (key.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= ((key.0 >> 64) as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= (key.1 as u64).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= ((key.1 >> 64) as u64).wrapping_mul(0xd6e8_feb8_6659_fd93);
    h ^= h >> 29;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 32)
}

/// The ε-dedup grid steps of the heading (rad) and speed (m/s) axes; the
/// position axes step by the configured ε. A state is dropped when all four
/// quanta match a visited state, approximating the paper's L2-norm
/// threshold test in O(1).
const HEADING_QUANTUM: f64 = 0.15;
const SPEED_QUANTUM: f64 = 1.0;

/// One coordinate's dedup quantum: `value / step` rounded, embedded
/// order-preserving in a `u64` (flipping the sign bit maps the signed
/// order onto the unsigned order).
#[inline]
fn quantum(value: f64, step: f64) -> u64 {
    ((value / step).round() as i64 as u64) ^ (1 << 63)
}

/// The position quanta of a candidate position, packed `x` high, `y` low.
#[inline]
fn position_quanta(p: Vec2, eps: f64) -> u128 {
    (u128::from(quantum(p.x, eps)) << 64) | u128::from(quantum(p.y, eps))
}

/// The ε-dedup cell of a candidate, assembled from the quanta of its axes:
/// the position quanta (one per parent), the heading quantum (one per
/// steering value) and the speed quantum (one per acceleration). Two
/// candidates share a cell iff all four quanta match, and the
/// lexicographic key order is the order of the quantum tuple `(x, y, θ,
/// v)`.
#[inline]
fn cell_key(position: u128, heading: u64, speed: u64) -> Key {
    (position, (u128::from(heading) << 64) | u128::from(speed))
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
        assert_eq!(tube.slice_count(), ReachConfig::default().slices() + 1);
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

    /// The reference ε-dedup quantization of a state: position by ε,
    /// heading by 0.15 rad, speed by 1 m/s.
    fn quantize(s: &VehicleState, eps: f64) -> (i64, i64, i64, i64) {
        (
            (s.x / eps).round() as i64,
            (s.y / eps).round() as i64,
            (s.theta / 0.15).round() as i64,
            (s.v / 1.0).round() as i64,
        )
    }

    /// The dedup cell key the kernel assembles for a state from its
    /// per-axis quanta.
    fn assembled_key(s: &VehicleState, eps: f64) -> Key {
        cell_key(
            position_quanta(s.position(), eps),
            quantum(s.theta, HEADING_QUANTUM),
            quantum(s.v, SPEED_QUANTUM),
        )
    }

    /// Any `f64` bit pattern, with NaNs of either sign, ±0, ±∞, subnormals,
    /// the extreme finite values and ordinary magnitudes drawn often.
    fn any_float() -> impl proptest::strategy::Strategy<Value = f64> {
        use proptest::strategy::Strategy;
        let special = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN
            f64::from_bits(0xfff8_0000_0000_0001), // negative NaN payload
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1), // smallest subnormal
            -f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
            f64::MAX,
            f64::MIN,
        ];
        (0u8..3, proptest::prelude::any::<u64>(), -1e3..1e3f64).prop_map(
            move |(kind, bits, small)| match kind {
                0 => f64::from_bits(bits),
                1 => special[(bits % special.len() as u64) as usize],
                _ => small,
            },
        )
    }

    proptest::proptest! {
        /// The cell key the kernel assembles from per-axis quanta is an
        /// order-preserving (and equality-preserving) embedding of the
        /// `quantize` tuple, so two candidates share a dedup cell iff they
        /// share a quantized state.
        #[test]
        fn prop_cell_key_orders_like_quantize_tuple(
            a in proptest::collection::vec(-1e7..1e7f64, 4),
            b in proptest::collection::vec(-1e7..1e7f64, 4),
        ) {
            let sa = VehicleState::new(a[0], a[1], a[2], a[3]);
            let sb = VehicleState::new(b[0], b[1], b[2], b[3]);
            for eps in [0.5, 1.5, 2.0] {
                let tuple_cmp = quantize(&sa, eps).cmp(&quantize(&sb, eps));
                let key_cmp = assembled_key(&sa, eps).cmp(&assembled_key(&sb, eps));
                proptest::prop_assert_eq!(tuple_cmp, key_cmp);
            }
        }

        /// The integer rank key orders every pair of states, over arbitrary
        /// bit patterns, exactly as `canonical_order` does; the frontier
        /// ranking by rank key is therefore the canonical ranking.
        #[test]
        fn prop_rank_key_orders_like_canonical_order(
            a in proptest::collection::vec(any_float(), 4),
            b in proptest::collection::vec(any_float(), 4),
            shared in proptest::collection::vec(proptest::prelude::any::<bool>(), 4),
        ) {
            // Components shared between the two states reach the
            // tie-breaking ones.
            let pick = |i: usize| if shared[i] { a[i] } else { b[i] };
            let sa = VehicleState::new(a[0], a[1], a[2], a[3]);
            let sb = VehicleState::new(pick(0), pick(1), pick(2), pick(3));
            for (x, y) in [(sa, sb), (sb, sa), (sa, sa)] {
                proptest::prop_assert_eq!(
                    rank_key(&x).cmp(&rank_key(&y)),
                    canonical_order(&x, &y)
                );
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
