//! Oriented bounding boxes with separating-axis collision tests.
//!
//! Vehicle footprints throughout iPrism are modelled as oriented rectangles;
//! the separating-axis theorem (SAT) test here is the collision primitive of
//! both the simulator and the reach-tube computation.

use iprism_units::Meters;
use serde::{Deserialize, Serialize};

use crate::{Aabb, Pose, Segment, Vec2};

/// An oriented bounding box: a rectangle of given `length` × `width` centred
/// on a [`Pose`], with `length` along the pose's heading.
///
/// # Examples
///
/// ```
/// use iprism_geom::{Meters, Obb, Pose, Radians, Vec2};
///
/// let car = Obb::new(Pose::new(0.0, 0.0, Radians::new(0.0)), Meters::new(4.6), Meters::new(2.0));
/// assert!(car.contains(Vec2::new(2.2, 0.9)));
/// assert!(!car.contains(Vec2::new(2.4, 0.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Obb {
    /// Centre pose; `length` extends along `pose.theta`.
    pub pose: Pose,
    /// Extent along the heading (metres).
    pub length: f64,
    /// Extent perpendicular to the heading (metres).
    pub width: f64,
}

impl Obb {
    /// Creates an OBB centred at `pose`.
    ///
    /// # Panics
    ///
    /// Panics if `length` or `width` is negative or non-finite.
    pub fn new(pose: Pose, length: Meters, width: Meters) -> Self {
        let (length, width) = (length.get(), width.get());
        assert!(
            length >= 0.0 && width >= 0.0 && length.is_finite() && width.is_finite(),
            "OBB extents must be finite and non-negative (got {length} x {width})"
        );
        Obb {
            pose,
            length,
            width,
        }
    }

    /// Creates an OBB without validating the extents.
    ///
    /// Bit-identical to [`Obb::new`] whenever the extents are finite and
    /// non-negative; intended for panic-free hot paths whose extents come
    /// from configuration that was validated once up front.
    #[inline]
    #[must_use]
    pub fn raw(pose: Pose, length: Meters, width: Meters) -> Self {
        Obb {
            pose,
            length: length.get(),
            width: width.get(),
        }
    }

    /// The four corners in counter-clockwise order starting front-left.
    pub fn corners(&self) -> [Vec2; 4] {
        let (s, c) = self.pose.heading().sin_cos();
        self.corners_given_trig(s, c)
    }

    /// The four corners like [`Obb::corners`], with the heading's sine and
    /// cosine supplied by the caller. `sin_t`/`cos_t` must equal
    /// `self.pose.heading().sin_cos()` — hot paths that memoize that pair
    /// per distinct heading get bit-identical corners minus the trig call.
    // `sin_t`/`cos_t` are dimensionless trig ratios; `raw-f64-param` does
    // not flag them, so no waiver is needed.
    pub fn corners_given_trig(&self, sin_t: f64, cos_t: f64) -> [Vec2; 4] {
        // One sin/cos pair serves all four corners; the arithmetic per
        // corner is exactly `pose.to_world` (position + rotated offset), so
        // results are bit-identical to four independent transforms.
        let hl = self.length * 0.5;
        let hw = self.width * 0.5;
        let (s, c) = (sin_t, cos_t);
        let corner = |lx: f64, ly: f64| {
            Vec2::new(
                self.pose.x + (lx * c - ly * s),
                self.pose.y + (lx * s + ly * c),
            )
        };
        [
            corner(hl, hw),
            corner(-hl, hw),
            corner(-hl, -hw),
            corner(hl, -hw),
        ]
    }

    /// The four edges as segments, in corner order.
    pub fn edges(&self) -> [Segment; 4] {
        let [a, b, c, d] = self.corners();
        [
            Segment::new(a, b),
            Segment::new(b, c),
            Segment::new(c, d),
            Segment::new(d, a),
        ]
    }

    /// Rectangle area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.length * self.width
    }

    /// Centre position.
    #[inline]
    pub fn center(&self) -> Vec2 {
        self.pose.position()
    }

    /// The tight axis-aligned bounding box of the rectangle.
    pub fn aabb(&self) -> Aabb {
        // `corners()` is never empty, so the fallback is unreachable; it
        // exists to keep this path panic-free.
        Aabb::from_points(&self.corners())
            .unwrap_or_else(|| Aabb::new(self.center(), self.center()))
    }

    /// Returns the OBB uniformly inflated by `margin` on every side.
    pub fn inflated(&self, margin: Meters) -> Obb {
        Obb::new(
            self.pose,
            Meters::new(self.length) + margin * 2.0,
            Meters::new(self.width) + margin * 2.0,
        )
    }

    /// Returns `true` if the point is inside or on the boundary.
    pub fn contains(&self, p: Vec2) -> bool {
        let local = self.pose.to_local(p);
        local.x.abs() <= self.length * 0.5 + crate::EPSILON
            && local.y.abs() <= self.width * 0.5 + crate::EPSILON
    }

    /// Separating-axis overlap test with another OBB.
    ///
    /// Touching boxes count as intersecting. The test projects both boxes on
    /// the four face normals; for rectangles those are the only candidate
    /// separating axes.
    pub fn intersects(&self, other: &Obb) -> bool {
        self.intersects_given_trig(
            self.pose.heading().sin_cos(),
            other,
            other.pose.heading().sin_cos(),
        )
    }

    /// [`Obb::intersects`] with each box's heading sine and cosine supplied
    /// by the caller: `trig` must equal `self.pose.heading().sin_cos()` and
    /// `other_trig` `other.pose.heading().sin_cos()`. One pair per box
    /// serves its corners and both of its axes, so hot paths that already
    /// hold the pairs get the same verdict without a trig call.
    pub fn intersects_given_trig(
        &self,
        trig: (f64, f64),
        other: &Obb,
        other_trig: (f64, f64),
    ) -> bool {
        // Corners are computed once and reused for both the cheap AABB
        // rejection and the SAT projections (`aabb()` is defined as the
        // bounding box of these same corners, so the outcome is identical).
        let ca = self.corners_given_trig(trig.0, trig.1);
        let cb = other.corners_given_trig(other_trig.0, other_trig.1);
        if let (Some(abb), Some(bbb)) = (Aabb::from_points(&ca), Aabb::from_points(&cb)) {
            if !abb.intersects(&bbb) {
                return false;
            }
        }
        // `Pose::forward` is `(cos θ, sin θ)` and `Pose::left` its
        // perpendicular.
        let (fa, fb) = (
            Vec2::new(trig.1, trig.0),
            Vec2::new(other_trig.1, other_trig.0),
        );
        let axes = [fa, fa.perp(), fb, fb.perp()];
        for axis in axes {
            let (amin, amax) = project(&ca, axis);
            let (bmin, bmax) = project(&cb, axis);
            if amax < bmin - crate::EPSILON || bmax < amin - crate::EPSILON {
                return false;
            }
        }
        true
    }

    /// Minimum distance between the boundaries/interiors of two OBBs.
    ///
    /// Returns `0.0` when the boxes overlap.
    pub fn distance(&self, other: &Obb) -> f64 {
        if self.intersects(other) {
            return 0.0;
        }
        let mut best = f64::INFINITY;
        for ea in self.edges() {
            for cb in other.corners() {
                best = best.min(ea.distance_to_point(cb));
            }
        }
        for eb in other.edges() {
            for ca in self.corners() {
                best = best.min(eb.distance_to_point(ca));
            }
        }
        best
    }
}

fn project(points: &[Vec2; 4], axis: Vec2) -> (f64, f64) {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for p in points {
        let d = p.dot(axis);
        min = min.min(d);
        max = max.max(d);
    }
    (min, max)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::float_cmp)] // exact comparisons are intentional in tests
    use super::*;
    use iprism_units::Radians;
    use proptest::prelude::*;
    use std::f64::consts::FRAC_PI_4;

    fn car_at(x: f64, y: f64, theta: f64) -> Obb {
        Obb::new(
            Pose::new(x, y, Radians::new(theta)),
            Meters::new(4.6),
            Meters::new(2.0),
        )
    }

    #[test]
    fn corners_axis_aligned() {
        let o = Obb::new(
            Pose::new(0.0, 0.0, Radians::new(0.0)),
            Meters::new(4.0),
            Meters::new(2.0),
        );
        let c = o.corners();
        assert!(c[0].distance(Vec2::new(2.0, 1.0)) < 1e-12);
        assert!(c[1].distance(Vec2::new(-2.0, 1.0)) < 1e-12);
        assert!(c[2].distance(Vec2::new(-2.0, -1.0)) < 1e-12);
        assert!(c[3].distance(Vec2::new(2.0, -1.0)) < 1e-12);
    }

    #[test]
    fn overlap_and_separation() {
        let a = car_at(0.0, 0.0, 0.0);
        assert!(a.intersects(&car_at(4.0, 0.0, 0.0))); // bumper overlap
        assert!(!a.intersects(&car_at(10.0, 0.0, 0.0)));
        assert!(!a.intersects(&car_at(0.0, 2.5, 0.0))); // side by side, gap
        assert!(a.intersects(&car_at(0.0, 1.9, 0.0))); // side overlap
    }

    #[test]
    fn rotated_overlap() {
        let a = car_at(0.0, 0.0, 0.0);
        // Rotated box whose corner pokes into `a`.
        let b = car_at(3.5, 1.5, FRAC_PI_4);
        assert!(a.intersects(&b));
        // Same rotation, moved away.
        let c = car_at(6.0, 4.0, FRAC_PI_4);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn diagonal_gap_that_aabbs_miss() {
        // Two diagonal boxes whose AABBs overlap but which do not intersect.
        let a = Obb::new(
            Pose::new(0.0, 0.0, Radians::new(FRAC_PI_4)),
            Meters::new(4.0),
            Meters::new(0.5),
        );
        let b = Obb::new(
            Pose::new(2.5, -2.5, Radians::new(FRAC_PI_4)),
            Meters::new(4.0),
            Meters::new(0.5),
        );
        assert!(a.aabb().intersects(&b.aabb()));
        assert!(!a.intersects(&b));
    }

    #[test]
    fn gap_only_one_boxs_own_axis_sees() {
        // The bounding boxes overlap and `a`'s axes see overlap; only `b`'s
        // lateral axis separates them (by about 0.39 m). At π/4 sine and
        // cosine coincide, so this pair also pins which is which.
        let a = car_at(0.0, 0.0, 0.0);
        let b = car_at(3.0, -2.2, 0.6);
        assert!(a.aabb().intersects(&b.aabb()));
        assert!(!a.intersects(&b));
        assert!(!b.intersects(&a));
    }

    #[test]
    fn containment() {
        let o = car_at(5.0, 5.0, FRAC_PI_4);
        assert!(o.contains(o.center()));
        assert!(!o.contains(Vec2::new(0.0, 0.0)));
    }

    #[test]
    fn distance_zero_when_overlapping() {
        let a = car_at(0.0, 0.0, 0.0);
        assert_eq!(a.distance(&car_at(1.0, 0.0, 0.0)), 0.0);
        let d = a.distance(&car_at(10.0, 0.0, 0.0));
        assert!((d - (10.0 - 4.6)).abs() < 1e-9);
    }

    #[test]
    fn inflation_grows_area() {
        let o = car_at(0.0, 0.0, 0.3).inflated(Meters::new(0.5));
        assert!((o.length - 5.6).abs() < 1e-12);
        assert!((o.width - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "OBB extents")]
    fn negative_extent_panics() {
        let _ = Obb::new(Pose::default(), Meters::new(-1.0), Meters::new(2.0));
    }

    /// The separating-axis test as it took six `sin_cos` calls: corners
    /// through [`Obb::corners`] and axes through `forward()`/`left()`.
    fn intersects_reference(a: &Obb, b: &Obb) -> bool {
        let ca = a.corners();
        let cb = b.corners();
        if let (Some(abb), Some(bbb)) = (Aabb::from_points(&ca), Aabb::from_points(&cb)) {
            if !abb.intersects(&bbb) {
                return false;
            }
        }
        let axes = [
            a.pose.forward(),
            a.pose.left(),
            b.pose.forward(),
            b.pose.left(),
        ];
        axes.into_iter().all(|axis| {
            let (amin, amax) = project(&ca, axis);
            let (bmin, bmax) = project(&cb, axis);
            !(amax < bmin - crate::EPSILON || bmax < amin - crate::EPSILON)
        })
    }

    /// Headings at and one ulp either side of ±0, ±π/2 and ±π, or anywhere
    /// in `[-3.2, 3.2]`.
    fn heading_strategy() -> impl Strategy<Value = f64> {
        use std::f64::consts::{FRAC_PI_2, PI};
        let anchors = [0.0, -0.0, FRAC_PI_2, -FRAC_PI_2, PI, -PI];
        (any::<bool>(), 0..anchors.len(), -1i64..=1, -3.2..3.2f64).prop_map(
            move |(anchored, i, step, any_heading)| {
                if !anchored {
                    return any_heading;
                }
                // A bit step moves away from zero (+1) or towards it (-1);
                // at ±0 only away, to the smallest subnormal of that sign.
                let step = if anchors[i] == 0.0 { step.abs() } else { step };
                f64::from_bits(anchors[i].to_bits().wrapping_add_signed(step))
            },
        )
    }

    /// Pairs of boxes: `b` within 8 m of `a` with its own heading (where
    /// every axis can be the separating one), touching `a` along its
    /// forward axis, nested inside `a`, or identical.
    fn box_pair_strategy() -> impl Strategy<Value = (Obb, Obb)> {
        let extents = (0.5..8.0f64, 0.5..4.0f64);
        (
            (
                -30.0..30.0f64,
                -30.0..30.0f64,
                heading_strategy(),
                extents.clone(),
            ),
            (-8.0..8.0f64, -8.0..8.0f64, heading_strategy(), extents),
            0u8..6,
            0.0..1.0f64,
        )
            .prop_map(
                |((ax, ay, at, (al, aw)), (dx, dy, bt, (bl, bw)), kind, f)| {
                    let make = |x, y, t, l, w| {
                        Obb::new(
                            Pose::new(x, y, Radians::raw(t)),
                            Meters::new(l),
                            Meters::new(w),
                        )
                    };
                    let a = make(ax, ay, at, al, aw);
                    let b = match kind {
                        0..=2 => make(ax + dx, ay + dy, bt, bl, bw),
                        3 => {
                            // Nose to tail with `a`, same heading.
                            let gap = 0.5 * (al + bl);
                            let fwd = a.pose.forward();
                            make(ax + gap * fwd.x, ay + gap * fwd.y, at, bl, bw)
                        }
                        4 => make(ax, ay, at, al * f, aw * f),
                        _ => a,
                    };
                    (a, b)
                },
            )
    }

    fn obb_strategy() -> impl Strategy<Value = Obb> {
        (-30.0..30.0, -30.0..30.0, -3.2..3.2, 0.5..8.0, 0.5..4.0).prop_map(|(x, y, t, l, w)| {
            Obb::new(
                Pose::new(x, y, Radians::new(t)),
                Meters::new(l),
                Meters::new(w),
            )
        })
    }

    proptest! {
        /// The test given each box's sine and cosine gives the verdict of
        /// the six-`sin_cos` test, for nearby, touching, nested and
        /// identical boxes with headings at and next to ±0, ±π/2 and ±π.
        #[test]
        fn prop_intersects_given_trig_matches_intersects((a, b) in box_pair_strategy()) {
            let (ta, tb) = (a.pose.heading().sin_cos(), b.pose.heading().sin_cos());
            let expect = intersects_reference(&a, &b);
            prop_assert_eq!(a.intersects_given_trig(ta, &b, tb), expect);
            prop_assert_eq!(a.intersects(&b), expect);
            prop_assert_eq!(b.intersects_given_trig(tb, &a, ta), intersects_reference(&b, &a));
        }

        #[test]
        fn prop_intersects_symmetric(a in obb_strategy(), b in obb_strategy()) {
            prop_assert_eq!(a.intersects(&b), b.intersects(&a));
        }

        #[test]
        fn prop_self_intersects(a in obb_strategy()) {
            prop_assert!(a.intersects(&a));
            prop_assert!(a.contains(a.center()));
        }

        #[test]
        fn prop_corners_inside_aabb(a in obb_strategy()) {
            let bb = a.aabb().inflated(Meters::new(1e-9));
            for c in a.corners() {
                prop_assert!(bb.contains(c));
            }
        }

        #[test]
        fn prop_distance_positive_iff_disjoint(a in obb_strategy(), b in obb_strategy()) {
            let d = a.distance(&b);
            if a.intersects(&b) {
                prop_assert_eq!(d, 0.0);
            } else {
                prop_assert!(d > 0.0);
            }
        }

        #[test]
        fn prop_contained_corner_implies_intersection(a in obb_strategy(), b in obb_strategy()) {
            let corner_inside = b.corners().iter().any(|&c| a.contains(c));
            if corner_inside {
                prop_assert!(a.intersects(&b));
            }
        }
    }
}
