//! The computed reach-tube and its volume measure.

use iprism_dynamics::VehicleState;
use iprism_geom::Grid2;
use serde::{Deserialize, Serialize};

/// The result of Algorithm 1: the surviving states per time slice plus the
/// occupancy grid measuring state-space volume.
///
/// Slice 0 always holds exactly the initial ego state; slices `1..` hold the
/// propagated, collision-free, deduplicated states. The *volume* counts grid
/// cells touched by slices `1..` — strictly future escape routes — so a tube
/// whose frontier dies immediately has volume 0 (no escape route).
///
/// States are stored structure-of-arrays: one contiguous lane per state
/// component (`x`, `y`, `theta`, `v`) plus a per-slice offset table. The
/// layout keeps each component cache-dense for the tubes derived from a
/// factual build, which copy its unaffected leading slices lane by lane
/// instead of walking per-state structs.
/// [`ReachTube::slices`] exposes the same slice/state view the
/// array-of-structs layout provided.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReachTube {
    xs: Vec<f64>,
    ys: Vec<f64>,
    thetas: Vec<f64>,
    vs: Vec<f64>,
    /// Slice `i` spans lane indices `offsets[i] .. offsets[i + 1]`; always
    /// starts with a leading 0, so `offsets.len()` is `slices + 1`.
    offsets: Vec<u32>,
    grid: Grid2,
    truncated: bool,
    blocked: bool,
}

impl ReachTube {
    /// A partial tube holding this tube's slices `0..=last` verbatim (one
    /// copy per lane) over `grid`, with `truncated` and `blocked` as its
    /// flags so far; its frontier is slice `last`, which must exist. The
    /// lanes reserve room for a tube of this one's size.
    pub(crate) fn prefix(
        &self,
        last: usize,
        grid: Grid2,
        truncated: bool,
        blocked: bool,
    ) -> PartialTube {
        let end = self.offsets.get(last + 1).copied().unwrap_or(0) as usize;
        let lane = |values: &[f64]| {
            let mut copy = Vec::with_capacity(values.len());
            copy.extend_from_slice(values.get(..end).unwrap_or(&[]));
            copy
        };
        let mut offsets = Vec::with_capacity(self.offsets.len());
        offsets.extend_from_slice(self.offsets.get(..last + 2).unwrap_or(&[0]));
        PartialTube {
            xs: lane(&self.xs),
            ys: lane(&self.ys),
            thetas: lane(&self.thetas),
            vs: lane(&self.vs),
            offsets,
            frontier: self
                .slices()
                .get(last)
                .map_or_else(Vec::new, |s| s.iter().collect()),
            frontier_trigs: Vec::new(),
            grid,
            truncated,
            blocked,
        }
    }

    /// View of the states per time slice (slice 0 is the initial state).
    #[inline]
    pub fn slices(&self) -> TubeSlices<'_> {
        TubeSlices { tube: self }
    }

    /// Total number of stored states across all slices.
    #[inline]
    pub fn state_count(&self) -> usize {
        self.xs.len()
    }

    /// Number of occupied volume cells (`|T|` in cell units).
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.grid.occupied_cells()
    }

    /// Tube volume in m² (occupied cells × cell area) — the `|T|` of
    /// Eq. (4)–(5).
    #[inline]
    pub fn volume(&self) -> f64 {
        self.grid.occupied_area()
    }

    /// The underlying occupancy grid.
    #[inline]
    pub fn grid(&self) -> &Grid2 {
        &self.grid
    }

    /// `true` when no future state survived — the paper's *safety hazard*
    /// condition (escape routes reduced to zero, §II).
    pub fn is_empty(&self) -> bool {
        self.slices().iter().skip(1).all(|s| s.is_empty())
    }

    /// The slice index after which the frontier died, if it did.
    pub fn frontier_death_slice(&self) -> Option<usize> {
        self.slices()
            .iter()
            .enumerate()
            .skip(1)
            .find(|(_, s)| s.is_empty())
            .map(|(i, _)| i)
    }

    /// `true` when the per-slice frontier cap bounded the expansion.
    ///
    /// Truncation is a normal part of keeping the computation cheap: the
    /// frontier is sorted canonically (fastest states first) before
    /// truncating, so the retained states are the tube's envelope and the
    /// volume remains a stable measure.
    #[inline]
    pub fn was_truncated(&self) -> bool {
        self.truncated
    }

    /// `true` when some obstacle blocked a candidate state of the tube.
    ///
    /// Obstacles enter a tube only through the verdicts that block its
    /// candidates, so a tube in which none did is, slice by slice, the
    /// empty-world tube `T^∅` of its ego state and configuration, bit for
    /// bit. The STI evaluator uses that to skip deriving `T^∅` when the
    /// factual tube or a lone blamed actor's counterfactual already is it.
    #[inline]
    pub fn was_blocked(&self) -> bool {
        self.blocked
    }
}

/// A tube under construction, slice by slice: the SoA lanes of the slices
/// emitted so far, the grid they marked, their truncation and blocking
/// flags, and the last emitted slice — the frontier the next slice expands,
/// with the heading sines and cosines its verdicts computed. A full build
/// starts from the ego state alone ([`PartialTube::start`]); a derived tube
/// starts from a copied prefix of a factual one ([`ReachTube::prefix`]).
pub(crate) struct PartialTube {
    xs: Vec<f64>,
    ys: Vec<f64>,
    thetas: Vec<f64>,
    vs: Vec<f64>,
    offsets: Vec<u32>,
    /// The last emitted slice's states, in stored order.
    pub(crate) frontier: Vec<VehicleState>,
    /// `frontier[i].theta.sin_cos()` where the verdict that admitted the
    /// state computed it, NaN where it did not; empty for a start or a
    /// copied prefix.
    pub(crate) frontier_trigs: Vec<(f64, f64)>,
    /// Cells marked by the emitted slices.
    pub(crate) grid: Grid2,
    /// `true` once an emitted slice hit the frontier cap.
    pub(crate) truncated: bool,
    /// `true` once an obstacle blocked a candidate of an emitted slice.
    pub(crate) blocked: bool,
}

impl PartialTube {
    /// A tube holding only slice 0, the initial state `ego`, over `grid`.
    pub(crate) fn start(ego: VehicleState, grid: Grid2) -> Self {
        PartialTube {
            xs: vec![ego.x],
            ys: vec![ego.y],
            thetas: vec![ego.theta],
            vs: vec![ego.v],
            offsets: vec![0, 1],
            frontier: vec![ego],
            frontier_trigs: Vec::new(),
            grid,
            truncated: false,
            blocked: false,
        }
    }

    /// Number of emitted slices, slice 0 included: the index of the next
    /// slice to emit.
    pub(crate) fn slice_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Emits `frontier` as the next slice.
    pub(crate) fn emit_frontier(&mut self) {
        for s in &self.frontier {
            self.xs.push(s.x);
            self.ys.push(s.y);
            self.thetas.push(s.theta);
            self.vs.push(s.v);
        }
        self.offsets.push(self.xs.len() as u32);
    }

    /// The finished tube.
    pub(crate) fn finish(self) -> ReachTube {
        ReachTube {
            xs: self.xs,
            ys: self.ys,
            thetas: self.thetas,
            vs: self.vs,
            offsets: self.offsets,
            grid: self.grid,
            truncated: self.truncated,
            blocked: self.blocked,
        }
    }
}

/// Borrowed per-slice view over a [`ReachTube`]'s SoA storage.
#[derive(Debug, Clone, Copy)]
pub struct TubeSlices<'a> {
    tube: &'a ReachTube,
}

impl<'a> TubeSlices<'a> {
    /// Number of slices (including slice 0).
    #[inline]
    pub fn len(&self) -> usize {
        self.tube.offsets.len().saturating_sub(1)
    }

    /// `true` when the tube stores no slices at all (never for computed
    /// tubes: slice 0 always exists).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The states of slice `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<SliceStates<'a>> {
        let lo = *self.tube.offsets.get(i)? as usize;
        let hi = *self.tube.offsets.get(i + 1)? as usize;
        Some(SliceStates {
            xs: self.tube.xs.get(lo..hi)?,
            ys: self.tube.ys.get(lo..hi)?,
            thetas: self.tube.thetas.get(lo..hi)?,
            vs: self.tube.vs.get(lo..hi)?,
        })
    }

    /// Iterates the slices in time order.
    pub fn iter(&self) -> impl Iterator<Item = SliceStates<'a>> + 'a {
        let view = *self;
        (0..view.len()).filter_map(move |i| view.get(i))
    }
}

/// One slice's states, borrowed lane-wise from the tube's SoA storage.
#[derive(Debug, Clone, Copy)]
pub struct SliceStates<'a> {
    xs: &'a [f64],
    ys: &'a [f64],
    thetas: &'a [f64],
    vs: &'a [f64],
}

impl<'a> SliceStates<'a> {
    /// Number of states in the slice.
    #[inline]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// `true` when the slice holds no states (a dead frontier).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The `i`-th state of the slice, materialized from the lanes.
    pub fn get(&self, i: usize) -> Option<VehicleState> {
        Some(VehicleState::new(
            *self.xs.get(i)?,
            *self.ys.get(i)?,
            *self.thetas.get(i)?,
            *self.vs.get(i)?,
        ))
    }

    /// Iterates the slice's states in stored (canonical) order.
    pub fn iter(&self) -> impl Iterator<Item = VehicleState> + 'a {
        self.xs
            .iter()
            .zip(self.ys)
            .zip(self.thetas)
            .zip(self.vs)
            .map(|(((&x, &y), &theta), &v)| VehicleState::new(x, y, theta, v))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::float_cmp)] // exact comparisons are intentional in tests
    use super::*;
    use iprism_geom::{Aabb, Meters, Vec2};

    fn tube_with(slices: Vec<Vec<VehicleState>>) -> ReachTube {
        let mut grid = Grid2::new(
            Aabb::new(Vec2::new(-50.0, -50.0), Vec2::new(50.0, 50.0)),
            Meters::new(0.5),
        );
        for s in slices.iter().skip(1).flatten() {
            grid.mark(s.position());
        }
        let mut tube = PartialTube::start(slices[0][0], grid);
        for slice in &slices[1..] {
            tube.frontier.clone_from(slice);
            tube.emit_frontier();
        }
        tube.finish()
    }

    #[test]
    fn empty_future_is_empty_tube() {
        let t = tube_with(vec![vec![VehicleState::default()], vec![], vec![]]);
        assert!(t.is_empty());
        assert_eq!(t.cell_count(), 0);
        assert_eq!(t.volume(), 0.0);
        assert_eq!(t.frontier_death_slice(), Some(1));
        assert_eq!(t.slices().len(), 3);
        assert_eq!(t.slices().get(1).unwrap().len(), 0);
    }

    #[test]
    fn volume_counts_future_slices_only() {
        let t = tube_with(vec![
            vec![VehicleState::new(0.0, 0.0, 0.0, 5.0)],
            vec![
                VehicleState::new(1.0, 0.0, 0.0, 5.0),
                VehicleState::new(2.0, 0.0, 0.0, 5.0),
            ],
        ]);
        assert!(!t.is_empty());
        assert_eq!(t.cell_count(), 2);
        assert!((t.volume() - 2.0 * 0.25).abs() < 1e-12);
        assert_eq!(t.state_count(), 3);
        assert_eq!(t.frontier_death_slice(), None);
    }

    #[test]
    fn soa_views_round_trip_states() {
        let states = vec![
            vec![VehicleState::new(0.0, 0.0, 0.1, 5.0)],
            vec![
                VehicleState::new(1.0, -0.5, 0.2, 5.5),
                VehicleState::new(2.0, 0.5, -0.2, 4.5),
            ],
            vec![],
        ];
        let t = tube_with(states.clone());
        let view = t.slices();
        assert_eq!(view.len(), states.len());
        assert!(!view.is_empty());
        for (i, expect) in states.iter().enumerate() {
            let slice = view.get(i).unwrap();
            assert_eq!(slice.len(), expect.len());
            let got: Vec<VehicleState> = slice.iter().collect();
            assert_eq!(&got, expect);
            for (j, s) in expect.iter().enumerate() {
                assert_eq!(slice.get(j), Some(*s));
            }
            assert_eq!(slice.get(expect.len()), None);
        }
        assert!(view.get(states.len()).is_none());
        // iter() visits the same slices as get()
        let lens: Vec<usize> = view.iter().map(|s| s.len()).collect();
        assert_eq!(lens, vec![1, 2, 0]);
    }

    #[test]
    fn prefix_resumes_to_the_same_tube() {
        let slices = vec![
            vec![VehicleState::new(0.0, 0.0, 0.0, 5.0)],
            vec![
                VehicleState::new(1.0, -0.5, 0.2, 5.5),
                VehicleState::new(2.0, 0.5, -0.2, 4.5),
            ],
            vec![VehicleState::new(3.0, 0.0, 0.0, 5.0)],
        ];
        let t = tube_with(slices.clone());
        assert_eq!(t.prefix(2, t.grid().clone(), false, false).finish(), t);
        // A shorter prefix ends at its frontier; emitting the remaining
        // slice restores the tube.
        let mut head = t.prefix(1, t.grid().clone(), false, false);
        assert_eq!(head.slice_count(), 2);
        assert_eq!(head.frontier, slices[1]);
        head.frontier.clone_from(&slices[2]);
        head.emit_frontier();
        assert_eq!(head.finish(), t);
        // Slice 0 alone is a fresh start from the same state.
        assert_eq!(
            t.prefix(0, t.grid().clone(), false, false).finish(),
            PartialTube::start(slices[0][0], t.grid().clone()).finish()
        );
    }

    #[test]
    fn truncation_flag() {
        let mut t = PartialTube::start(
            VehicleState::default(),
            Grid2::new(Aabb::new(Vec2::ZERO, Vec2::new(1.0, 1.0)), Meters::new(0.5)),
        );
        t.truncated = true;
        let t = t.finish();
        assert!(t.was_truncated());
        assert!(!t.was_blocked());
    }
}
