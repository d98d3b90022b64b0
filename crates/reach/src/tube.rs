//! The computed reach-tube and its volume measure.

use iprism_dynamics::VehicleState;
use iprism_geom::Grid2;

/// The result of Algorithm 1: the surviving states per time slice plus the
/// occupancy grid measuring state-space volume.
///
/// Slice 0 always holds exactly the initial ego state; slices `1..` hold the
/// propagated, collision-free, deduplicated states. The *volume* counts grid
/// cells touched by slices `1..` — strictly future escape routes — so a tube
/// whose frontier dies immediately has volume 0 (no escape route).
///
/// The states of every slice sit in one array, slice after slice, with a
/// per-slice offset table. A build appends slice after slice, so while it
/// runs the last slice is the frontier the next one expands.
#[derive(Debug, Clone, PartialEq)]
pub struct ReachTube {
    states: Vec<VehicleState>,
    /// Slice `i` spans `states[offsets[i]..offsets[i + 1]]`; always starts
    /// with a leading 0, so `offsets.len()` is `slices + 1`.
    offsets: Vec<u32>,
    grid: Grid2,
    /// `true` once a slice hit the frontier cap.
    pub(crate) truncated: bool,
    /// `true` once an obstacle blocked a candidate of a slice.
    pub(crate) blocked: bool,
}

impl ReachTube {
    /// The tube a fresh build starts from: slice 0, the initial state `ego`,
    /// alone over `grid`.
    pub(crate) fn start(ego: VehicleState, grid: Grid2) -> Self {
        ReachTube {
            states: vec![ego],
            offsets: vec![0, 1],
            grid,
            truncated: false,
            blocked: false,
        }
    }

    /// The tube a derived build starts from: this tube's slices `0..=last`
    /// (slice `last` must exist) over `grid`, with `truncated` and `blocked`
    /// as its flags so far. The copy reserves room for a tube of this one's
    /// size.
    pub(crate) fn prefix(&self, last: usize, grid: Grid2, truncated: bool, blocked: bool) -> Self {
        let end = self.offsets.get(last + 1).copied().unwrap_or(0) as usize;
        let mut states = Vec::with_capacity(self.states.len());
        states.extend_from_slice(self.states.get(..end).unwrap_or_default());
        let mut offsets = Vec::with_capacity(self.offsets.len());
        offsets.extend_from_slice(self.offsets.get(..last + 2).unwrap_or(&[0]));
        ReachTube {
            states,
            offsets,
            grid,
            truncated,
            blocked,
        }
    }

    /// Appends `states` as the next slice, the new frontier.
    pub(crate) fn push_slice(&mut self, states: impl IntoIterator<Item = VehicleState>) {
        self.states.extend(states);
        self.offsets.push(self.states.len() as u32);
    }

    /// The last slice: the frontier a build expands next.
    pub(crate) fn frontier(&self) -> &[VehicleState] {
        self.states.get(self.frontier_start()..).unwrap_or_default()
    }

    /// The frontier and the grid, borrowed together for the kernel that
    /// expands the one and marks the other.
    pub(crate) fn frontier_and_grid(&mut self) -> (&[VehicleState], &mut Grid2) {
        let lo = self.frontier_start();
        (self.states.get(lo..).unwrap_or_default(), &mut self.grid)
    }

    /// The index in `states` at which the last slice starts.
    fn frontier_start(&self) -> usize {
        self.offsets.iter().rev().nth(1).copied().unwrap_or(0) as usize
    }

    /// The states of slice `i` (slice 0 is the initial state), or `None`
    /// past the end.
    pub fn slice(&self, i: usize) -> Option<&[VehicleState]> {
        let lo = *self.offsets.get(i)? as usize;
        let hi = *self.offsets.get(i + 1)? as usize;
        self.states.get(lo..hi)
    }

    /// Number of slices, slice 0 included.
    #[inline]
    pub fn slice_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The slices in time order, each in stored (canonical) order.
    pub fn slices(&self) -> impl Iterator<Item = &[VehicleState]> + '_ {
        (0..self.slice_count()).filter_map(|i| self.slice(i))
    }

    /// Total number of stored states across all slices.
    #[inline]
    pub fn state_count(&self) -> usize {
        self.states.len()
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
        self.slices().skip(1).all(<[VehicleState]>::is_empty)
    }

    /// The slice index after which the frontier died, if it did.
    pub fn frontier_death_slice(&self) -> Option<usize> {
        self.slices()
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
        let mut tube = ReachTube::start(slices[0][0], grid);
        for slice in &slices[1..] {
            tube.push_slice(slice.iter().copied());
        }
        tube
    }

    #[test]
    fn empty_future_is_empty_tube() {
        let t = tube_with(vec![vec![VehicleState::default()], vec![], vec![]]);
        assert!(t.is_empty());
        assert_eq!(t.cell_count(), 0);
        assert_eq!(t.volume(), 0.0);
        assert_eq!(t.frontier_death_slice(), Some(1));
        assert_eq!(t.slice_count(), 3);
        assert_eq!(t.slice(1).unwrap().len(), 0);
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
    fn slice_views_round_trip_states() {
        let states = vec![
            vec![VehicleState::new(0.0, 0.0, 0.1, 5.0)],
            vec![
                VehicleState::new(1.0, -0.5, 0.2, 5.5),
                VehicleState::new(2.0, 0.5, -0.2, 4.5),
            ],
            vec![],
        ];
        let t = tube_with(states.clone());
        assert_eq!(t.slice_count(), states.len());
        for (i, expect) in states.iter().enumerate() {
            assert_eq!(t.slice(i).unwrap(), &expect[..]);
        }
        assert!(t.slice(states.len()).is_none());
        // slices() visits the same slices as slice(), the last one being
        // the frontier.
        assert!(t.slices().eq(states.iter().map(Vec::as_slice)));
        assert!(t.frontier().is_empty());
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
        assert_eq!(t.prefix(2, t.grid().clone(), false, false), t);
        // A shorter prefix ends at its frontier; appending the remaining
        // slice restores the tube.
        let mut head = t.prefix(1, t.grid().clone(), false, false);
        assert_eq!(head.slice_count(), 2);
        assert_eq!(head.frontier(), &slices[1][..]);
        head.push_slice(slices[2].iter().copied());
        assert_eq!(head, t);
        // Slice 0 alone is a fresh start from the same state.
        assert_eq!(
            t.prefix(0, t.grid().clone(), false, false),
            ReachTube::start(slices[0][0], t.grid().clone())
        );
    }

    #[test]
    fn truncation_flag() {
        let mut t = ReachTube::start(
            VehicleState::default(),
            Grid2::new(Aabb::new(Vec2::ZERO, Vec2::new(1.0, 1.0)), Meters::new(0.5)),
        );
        t.truncated = true;
        assert!(t.was_truncated());
        assert!(!t.was_blocked());
    }
}
