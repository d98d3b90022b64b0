//! Control inputs `u = (a, φ)` and their limits.

use iprism_units::{MetersPerSecond, MetersPerSecondSquared, Radians};
use serde::{Deserialize, Serialize};

/// A control input to the bicycle model: longitudinal acceleration and
/// front-wheel steering angle. This is the paper's `u = (a_t, φ_t)`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ControlInput {
    /// Longitudinal acceleration (m/s²); negative is braking.
    pub accel: f64,
    /// Front-wheel steering angle (rad); positive steers left.
    pub steer: f64,
}

impl ControlInput {
    /// Creates a control input.
    ///
    /// Takes raw `f64`s deliberately: this is the storage-layer constructor
    /// mirroring the serialized field layout, and control samples are built
    /// in bulk inside the reach-tube hot loops.
    #[inline]
    // iprism-lint: allow(raw-f64-param)
    pub const fn new(accel: f64, steer: f64) -> Self {
        ControlInput { accel, steer }
    }

    /// Creates a control input from dimensioned quantities.
    ///
    /// Prefer this over [`ControlInput::new`] outside the hot loops: the
    /// newtypes make it impossible to swap the two components or feed a
    /// speed where an acceleration belongs.
    #[inline]
    #[must_use]
    pub fn from_units(accel: MetersPerSecondSquared, steer: Radians) -> Self {
        ControlInput::new(accel.get(), steer.get())
    }

    /// The longitudinal acceleration as a dimensioned quantity.
    #[inline]
    #[must_use]
    pub fn acceleration(&self) -> MetersPerSecondSquared {
        MetersPerSecondSquared::new(self.accel)
    }

    /// The zero input (coast straight).
    pub const COAST: ControlInput = ControlInput {
        accel: 0.0,
        steer: 0.0,
    };
}

/// Admissible control ranges `[a_min, a_max] × [φ_min, φ_max]` plus a speed
/// envelope.
///
/// The reach-tube computation samples inside these bounds and always includes
/// the extreme values so that the tube boundary is covered (§III-A of the
/// paper). Defaults follow typical passenger-car values used in the paper's
/// reference [46]: braking to −6 m/s², acceleration to +3.5 m/s², steering
/// to ±35° and speeds in `[0, 30]` m/s.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControlLimits {
    /// Minimum (most negative) acceleration, i.e. hardest braking (m/s²).
    pub accel_min: f64,
    /// Maximum acceleration (m/s²).
    pub accel_max: f64,
    /// Minimum steering angle (rad, full right).
    pub steer_min: f64,
    /// Maximum steering angle (rad, full left).
    pub steer_max: f64,
    /// Minimum speed (m/s); vehicles do not reverse in this model.
    pub v_min: f64,
    /// Maximum speed (m/s).
    pub v_max: f64,
}

impl Default for ControlLimits {
    fn default() -> Self {
        ControlLimits {
            accel_min: -6.0,
            accel_max: 3.5,
            steer_min: -0.610_865_238_2, // -35°
            steer_max: 0.610_865_238_2,  // +35°
            v_min: 0.0,
            v_max: 30.0,
        }
    }
}

impl ControlLimits {
    /// Clamps a control input into the admissible ranges.
    pub fn clamp(&self, u: ControlInput) -> ControlInput {
        ControlInput::new(
            self.clamp_accel(u.acceleration()).get(),
            self.clamp_steer(Radians::raw(u.steer)).get(),
        )
    }

    /// Returns `true` if `u` lies inside the admissible ranges.
    pub fn contains(&self, u: ControlInput) -> bool {
        (self.accel_min..=self.accel_max).contains(&u.accel)
            && (self.steer_min..=self.steer_max).contains(&u.steer)
    }

    /// Clamps a speed into `[v_min, v_max]`.
    #[inline]
    pub fn clamp_speed(&self, v: MetersPerSecond) -> MetersPerSecond {
        MetersPerSecond::new(v.get().clamp(self.v_min, self.v_max))
    }

    /// Clamps an acceleration into `[accel_min, accel_max]`.
    #[inline]
    pub fn clamp_accel(&self, a: MetersPerSecondSquared) -> MetersPerSecondSquared {
        MetersPerSecondSquared::new(a.get().clamp(self.accel_min, self.accel_max))
    }

    /// Clamps a steering angle into `[steer_min, steer_max]`.
    #[inline]
    pub fn clamp_steer(&self, steer: Radians) -> Radians {
        Radians::raw(steer.get().clamp(self.steer_min, self.steer_max))
    }

    /// The hardest admissible braking as a positive deceleration magnitude
    /// (`-accel_min`). Zero or negative means the limits allow no braking
    /// at all, so stopping distances are unbounded.
    #[inline]
    #[must_use]
    pub fn max_braking(&self) -> MetersPerSecondSquared {
        MetersPerSecondSquared::new(-self.accel_min)
    }

    /// The acceleration bounds as dimensioned quantities `(min, max)`.
    #[inline]
    #[must_use]
    pub fn accel_bounds(&self) -> (MetersPerSecondSquared, MetersPerSecondSquared) {
        (
            MetersPerSecondSquared::new(self.accel_min),
            MetersPerSecondSquared::new(self.accel_max),
        )
    }

    /// The boundary control set of the paper's optimization 2 as its two
    /// axes: `{0, a_max} × {φ_min, 0, φ_max}`.
    ///
    /// Propagating only these six inputs traces the reach-tube boundary;
    /// intermediate trajectories are implied between them.
    pub fn boundary_axes(&self) -> ControlAxes {
        ControlAxes {
            accels: vec![0.0, self.accel_max],
            steers: vec![self.steer_min, 0.0, self.steer_max],
        }
    }

    /// The full extreme-control set `{a_min, 0, a_max} × {φ_min, 0, φ_max}`
    /// (nine inputs) as its two axes; it additionally covers hard braking.
    pub fn extreme_axes(&self) -> ControlAxes {
        ControlAxes {
            accels: vec![self.accel_min, 0.0, self.accel_max],
            steers: vec![self.steer_min, 0.0, self.steer_max],
        }
    }

    /// The uniform lattice of `na × ns` control samples spanning the
    /// admissible box as its two axes, endpoints included (so the boundary
    /// is always part of the samples, as Algorithm 1 requires).
    ///
    /// # Panics
    ///
    /// Panics when `na < 2` or `ns < 2`.
    pub fn lattice_axes(&self, na: usize, ns: usize) -> ControlAxes {
        assert!(na >= 2 && ns >= 2, "lattice needs at least 2x2 samples");
        ControlAxes {
            accels: spread(self.accel_min, self.accel_max, na),
            steers: spread(self.steer_min, self.steer_max, ns),
        }
    }
}

/// `n ≥ 2` evenly spaced values from `lo` to `hi`, both included.
fn spread(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    let den = (n - 1) as f64;
    (0..n).map(|i| lo + (i as f64 / den) * (hi - lo)).collect()
}

/// A sampled control set that is a product of two axes: every acceleration
/// paired with every steering angle, in acceleration-major order.
///
/// The product form is what makes reach-tube expansion cheap: one Euler
/// step gives every control of a parent state the same position, every
/// steering angle one heading and every acceleration one speed.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlAxes {
    /// Longitudinal accelerations (m/s²): the outer axis.
    pub accels: Vec<f64>,
    /// Front-wheel steering angles (rad): the inner axis.
    pub steers: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_limits_sane() {
        let l = ControlLimits::default();
        assert!(l.accel_min < 0.0 && l.accel_max > 0.0);
        assert!(l.steer_min < 0.0 && l.steer_max > 0.0);
        assert!(l.v_min <= l.v_max);
    }

    /// Exact set membership for clamped values, without a float `==` (which
    /// clippy's `float_cmp` rightly rejects): clamping returns bit-identical
    /// inputs, so `total_cmp` equality is the correct comparison.
    fn same(a: f64, b: f64) -> bool {
        a.total_cmp(&b) == std::cmp::Ordering::Equal
    }

    #[test]
    fn clamping() {
        let l = ControlLimits::default();
        let u = l.clamp(ControlInput::new(-100.0, 100.0));
        assert!(same(u.accel, l.accel_min));
        assert!(same(u.steer, l.steer_max));
        assert!(l.contains(u));
        assert!(!l.contains(ControlInput::new(99.0, 0.0)));
        assert!(same(
            l.clamp_speed(MetersPerSecond::new(1000.0)).get(),
            l.v_max
        ));
        assert!(same(
            l.clamp_speed(MetersPerSecond::new(-5.0)).get(),
            l.v_min
        ));
    }

    #[test]
    fn typed_constructor_matches_raw() {
        let u = ControlInput::from_units(MetersPerSecondSquared::new(-2.5), Radians::new(0.1));
        assert_eq!(u, ControlInput::new(-2.5, 0.1));
        assert!(same(u.acceleration().get(), -2.5));
    }

    #[test]
    fn typed_accel_clamp_and_bounds() {
        let l = ControlLimits::default();
        assert!(same(
            l.clamp_accel(MetersPerSecondSquared::new(-100.0)).get(),
            l.accel_min
        ));
        assert!(same(
            l.clamp_accel(MetersPerSecondSquared::new(100.0)).get(),
            l.accel_max
        ));
        assert!(same(l.max_braking().get(), 6.0));
        let (lo, hi) = l.accel_bounds();
        assert!(same(lo.get(), l.accel_min) && same(hi.get(), l.accel_max));
    }

    #[test]
    fn boundary_controls_match_paper() {
        let l = ControlLimits::default();
        let b = l.boundary_axes();
        // accelerations {0, a_max} × steering {min, 0, max}: six distinct
        // inputs.
        assert_eq!(b.accels, [0.0, l.accel_max]);
        assert_eq!(b.steers, [l.steer_min, 0.0, l.steer_max]);
    }

    #[test]
    fn extreme_controls_cover_braking() {
        let l = ControlLimits::default();
        let e = l.extreme_axes();
        assert_eq!(e.accels, [l.accel_min, 0.0, l.accel_max]);
        assert_eq!(e.steers, [l.steer_min, 0.0, l.steer_max]);
    }

    #[test]
    fn lattice_includes_endpoints() {
        let l = ControlLimits::default();
        let axes = l.lattice_axes(3, 5);
        assert_eq!(axes.accels.len(), 3);
        assert_eq!(axes.steers.len(), 5);
        assert_eq!(axes.accels.first(), Some(&l.accel_min));
        assert_eq!(axes.accels.last(), Some(&l.accel_max));
        assert_eq!(axes.steers.first(), Some(&l.steer_min));
        assert_eq!(axes.steers.last(), Some(&l.steer_max));
        for &a in &axes.accels {
            for &s in &axes.steers {
                assert!(l.contains(ControlInput::new(a, s)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "lattice")]
    fn tiny_lattice_panics() {
        let _ = ControlLimits::default().lattice_axes(1, 3);
    }

    proptest! {
        #[test]
        fn prop_clamp_is_contained(a in -100.0..100.0f64, s in -10.0..10.0f64) {
            let l = ControlLimits::default();
            prop_assert!(l.contains(l.clamp(ControlInput::new(a, s))));
        }

        #[test]
        fn prop_clamp_idempotent(a in -100.0..100.0f64, s in -10.0..10.0f64) {
            let l = ControlLimits::default();
            let once = l.clamp(ControlInput::new(a, s));
            prop_assert_eq!(once, l.clamp(once));
        }

        #[test]
        fn prop_lattice_within_limits(na in 2usize..8, ns in 2usize..8) {
            let l = ControlLimits::default();
            let axes = l.lattice_axes(na, ns);
            for &a in &axes.accels {
                for &s in &axes.steers {
                    prop_assert!(l.contains(ControlInput::new(a, s)));
                }
            }
        }
    }
}
