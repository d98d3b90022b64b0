//! Zero-cost physical-unit newtypes for the iPrism workspace.
//!
//! Unit bugs (degrees fed to `sin`, a speed used as a distance, a Δt in
//! milliseconds) are the classic silent killer in kinematic bicycle models:
//! nothing crashes, the reach tube is just wrong, and STI quietly loses its
//! meaning. This crate makes those bugs unrepresentable at API boundaries:
//!
//! * [`Meters`] — length / position components (m).
//! * [`Seconds`] — durations and timestamps (s).
//! * [`MetersPerSecond`] — speeds (m/s).
//! * [`MetersPerSecondSquared`] — accelerations (m/s²).
//! * [`Radians`] — angles and headings (rad), with normalization into
//!   `(-π, π]` that agrees with `iprism_contracts::check_heading_normalized`.
//!
//! Every type is a `#[repr(transparent)]` wrapper around one `f64`: the
//! newtypes vanish at codegen time, so the hot reach-tube loops pay nothing.
//! Dimensional arithmetic is implemented where it is meaningful —
//! `Meters / Seconds` is a [`MetersPerSecond`], `MetersPerSecond * Seconds`
//! is a [`Meters`] — and forbidden (fails to compile) everywhere else.
//!
//! The `cargo xtask lint --ast` rules `raw-f64-param` / `raw-f64-return` /
//! `angle-conv-outside-units` enforce that the public APIs of the
//! `dynamics`, `geom`, and `reach` crates use these types instead of raw
//! `f64` for physical quantities, and that `to_radians`/`to_degrees`
//! conversions appear only in this crate (see `docs/STATIC_ANALYSIS.md`).
//!
//! This crate sits at the bottom of the workspace (it depends only on the
//! serde shim), so every other crate can use it; the float-level angle
//! primitives [`wrap_to_pi`] and [`normalize_angle`] live here too and are
//! re-exported by `iprism-geom` for backwards compatibility.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::f64::consts::PI;

use serde::{Deserialize, Serialize};

/// Wraps an angle (radians) into `(-π, π]`.
///
/// This is the float-level primitive behind [`Radians::new`]; prefer the
/// newtype in API signatures.
///
/// # Examples
///
/// ```
/// use std::f64::consts::PI;
/// use iprism_units::wrap_to_pi;
///
/// assert!((wrap_to_pi(3.0 * PI) - PI).abs() < 1e-12);
/// assert!((wrap_to_pi(-3.0 * PI) - PI).abs() < 1e-12);
/// ```
#[inline]
#[must_use]
pub fn wrap_to_pi(angle: f64) -> f64 {
    // `%` is exact and returns its left operand whenever that is smaller
    // than 2π in magnitude, so an angle already in range (±0 included)
    // skips it bit-identically; NaN fails the test and takes the `%`.
    if -PI < angle && angle <= PI {
        return angle;
    }
    let two_pi = 2.0 * PI;
    let mut a = angle % two_pi;
    if a <= -PI {
        a += two_pi;
    } else if a > PI {
        a -= two_pi;
    }
    a
}

/// Wraps an angle (radians) into `[0, 2π)`.
#[inline]
#[must_use]
pub fn normalize_angle(angle: f64) -> f64 {
    let two_pi = 2.0 * PI;
    let a = angle % two_pi;
    if a < 0.0 {
        a + two_pi
    } else {
        a
    }
}

/// Implements the unit-preserving operator set shared by every newtype:
/// addition/subtraction/negation within the unit, scaling by a bare `f64`,
/// and the dimensionless ratio of two like quantities.
macro_rules! unit_ops {
    ($name:ident) => {
        impl std::ops::Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }
        impl std::ops::Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }
        impl std::ops::Neg for $name {
            type Output = $name;
            #[inline]
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }
        impl std::ops::Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }
        impl std::ops::Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }
        impl std::ops::Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }
        /// The ratio of two like quantities is dimensionless.
        impl std::ops::Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }
        impl std::ops::AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }
        impl std::ops::SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }
        impl From<$name> for f64 {
            #[inline]
            fn from(v: $name) -> f64 {
                v.0
            }
        }
    };
}

/// Implements the shared inherent helpers (`get`, `abs`, `min`/`max`/
/// `clamp`, finiteness, and a total order for sorting).
macro_rules! unit_helpers {
    ($name:ident, $symbol:literal) => {
        impl $name {
            /// The zero quantity.
            pub const ZERO: $name = $name(0.0);

            /// The wrapped `f64` value in the unit's canonical scale.
            #[inline]
            #[must_use]
            pub const fn get(self) -> f64 {
                self.0
            }

            /// Absolute value.
            #[inline]
            #[must_use]
            pub fn abs(self) -> $name {
                $name(self.0.abs())
            }

            /// The smaller of two quantities (NaN-propagating like `f64::min`).
            #[inline]
            #[must_use]
            pub fn min(self, other: $name) -> $name {
                $name(self.0.min(other.0))
            }

            /// The larger of two quantities.
            #[inline]
            #[must_use]
            pub fn max(self, other: $name) -> $name {
                $name(self.0.max(other.0))
            }

            /// Clamps into `[lo, hi]`.
            #[inline]
            #[must_use]
            pub fn clamp(self, lo: $name, hi: $name) -> $name {
                $name(self.0.clamp(lo.0, hi.0))
            }

            /// `true` when the value is neither NaN nor infinite.
            #[inline]
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Total order over the underlying bits (IEEE `totalOrder`);
            /// use for deterministic sorting instead of
            /// `partial_cmp(..).unwrap()`.
            #[inline]
            #[must_use]
            pub fn total_cmp(&self, other: &$name) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0)
            }
        }
        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{} {}", self.0, $symbol)
            }
        }
    };
}

/// A length or position component in metres.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[repr(transparent)]
pub struct Meters(f64);

impl Meters {
    /// Creates a length from a value in metres.
    #[inline]
    #[must_use]
    pub const fn new(value: f64) -> Self {
        Meters(value)
    }
}

unit_ops!(Meters);
unit_helpers!(Meters, "m");

/// A duration or timestamp in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[repr(transparent)]
pub struct Seconds(f64);

impl Seconds {
    /// Creates a duration from a value in seconds.
    #[inline]
    #[must_use]
    pub const fn new(value: f64) -> Self {
        Seconds(value)
    }
}

unit_ops!(Seconds);
unit_helpers!(Seconds, "s");

/// A speed in metres per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[repr(transparent)]
pub struct MetersPerSecond(f64);

impl MetersPerSecond {
    /// Creates a speed from a value in metres per second.
    #[inline]
    #[must_use]
    pub const fn new(value: f64) -> Self {
        MetersPerSecond(value)
    }
}

unit_ops!(MetersPerSecond);
unit_helpers!(MetersPerSecond, "m/s");

/// An acceleration in metres per second squared.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[repr(transparent)]
pub struct MetersPerSecondSquared(f64);

impl MetersPerSecondSquared {
    /// Creates an acceleration from a value in metres per second squared.
    #[inline]
    #[must_use]
    pub const fn new(value: f64) -> Self {
        MetersPerSecondSquared(value)
    }
}

unit_ops!(MetersPerSecondSquared);
unit_helpers!(MetersPerSecondSquared, "m/s^2");

/// An angle in radians.
///
/// [`Radians::new`] normalizes into `(-π, π]` — the same interval
/// `iprism_contracts::check_heading_normalized` enforces — so a
/// `Radians`-typed heading built through `new` is always contract-clean.
/// Arithmetic (`+`, `-`, scaling) is performed on the raw values and may
/// leave the interval; call [`Radians::wrapped`] to renormalize, or
/// [`Radians::raw`] to build an intentionally unnormalized angle (e.g. a
/// cumulative winding angle).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[repr(transparent)]
pub struct Radians(f64);

impl Radians {
    /// Creates an angle from a value in radians, wrapped into `(-π, π]`.
    ///
    /// NaN and infinite inputs pass through unchanged (there is no
    /// meaningful normalization for them); finiteness stays the caller's
    /// contract, as with raw `f64` angles.
    #[inline]
    #[must_use]
    pub fn new(value: f64) -> Self {
        Radians(wrap_to_pi(value))
    }

    /// Creates an angle without normalizing — for cumulative angles that
    /// intentionally exceed one turn.
    #[inline]
    #[must_use]
    pub const fn raw(value: f64) -> Self {
        Radians(value)
    }

    /// Converts an angle in degrees (the only degree→radian conversion
    /// point in the workspace; `angle-conv-outside-units` enforces this).
    #[inline]
    #[must_use]
    pub fn from_degrees(degrees: f64) -> Self {
        Radians::new(degrees.to_radians())
    }

    /// The angle expressed in degrees.
    #[inline]
    #[must_use]
    pub fn to_degrees(self) -> f64 {
        self.0.to_degrees()
    }

    /// A copy wrapped into `(-π, π]`.
    #[inline]
    #[must_use]
    pub fn wrapped(self) -> Self {
        Radians(wrap_to_pi(self.0))
    }

    /// Signed smallest difference `self − other`, wrapped into `(-π, π]`.
    #[inline]
    #[must_use]
    pub fn angle_diff(self, other: Radians) -> Radians {
        Radians(wrap_to_pi(self.0 - other.0))
    }

    /// Sine of the angle.
    #[inline]
    #[must_use]
    pub fn sin(self) -> f64 {
        self.0.sin()
    }

    /// Cosine of the angle.
    #[inline]
    #[must_use]
    pub fn cos(self) -> f64 {
        self.0.cos()
    }

    /// Tangent of the angle.
    #[inline]
    #[must_use]
    pub fn tan(self) -> f64 {
        self.0.tan()
    }

    /// Simultaneous sine and cosine.
    #[inline]
    #[must_use]
    pub fn sin_cos(self) -> (f64, f64) {
        self.0.sin_cos()
    }
}

unit_ops!(Radians);
unit_helpers!(Radians, "rad");

/// Distance over duration is a speed.
impl std::ops::Div<Seconds> for Meters {
    type Output = MetersPerSecond;
    #[inline]
    fn div(self, rhs: Seconds) -> MetersPerSecond {
        MetersPerSecond(self.0 / rhs.0)
    }
}

/// Speed times duration is a distance.
impl std::ops::Mul<Seconds> for MetersPerSecond {
    type Output = Meters;
    #[inline]
    fn mul(self, rhs: Seconds) -> Meters {
        Meters(self.0 * rhs.0)
    }
}

/// Duration times speed is a distance.
impl std::ops::Mul<MetersPerSecond> for Seconds {
    type Output = Meters;
    #[inline]
    fn mul(self, rhs: MetersPerSecond) -> Meters {
        Meters(self.0 * rhs.0)
    }
}

/// Distance over speed is a duration.
impl std::ops::Div<MetersPerSecond> for Meters {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: MetersPerSecond) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

/// Speed change over duration is an acceleration.
impl std::ops::Div<Seconds> for MetersPerSecond {
    type Output = MetersPerSecondSquared;
    #[inline]
    fn div(self, rhs: Seconds) -> MetersPerSecondSquared {
        MetersPerSecondSquared(self.0 / rhs.0)
    }
}

/// Acceleration times duration is a speed change.
impl std::ops::Mul<Seconds> for MetersPerSecondSquared {
    type Output = MetersPerSecond;
    #[inline]
    fn mul(self, rhs: Seconds) -> MetersPerSecond {
        MetersPerSecond(self.0 * rhs.0)
    }
}

/// Duration times acceleration is a speed change.
impl std::ops::Mul<MetersPerSecondSquared> for Seconds {
    type Output = MetersPerSecond;
    #[inline]
    fn mul(self, rhs: MetersPerSecondSquared) -> MetersPerSecond {
        MetersPerSecond(self.0 * rhs.0)
    }
}

/// Speed change over acceleration is the duration it takes.
impl std::ops::Div<MetersPerSecondSquared> for MetersPerSecond {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: MetersPerSecondSquared) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::float_cmp)] // exact comparisons are intentional in tests
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(Meters::new(3.5).get(), 3.5);
        assert_eq!(Seconds::new(0.25).get(), 0.25);
        assert_eq!(MetersPerSecond::new(30.0).get(), 30.0);
        assert_eq!(Meters::ZERO.get(), 0.0);
        assert_eq!(f64::from(Meters::new(2.0)), 2.0);
    }

    #[test]
    fn unit_preserving_arithmetic() {
        let a = Meters::new(3.0);
        let b = Meters::new(4.0);
        assert_eq!((a + b).get(), 7.0);
        assert_eq!((b - a).get(), 1.0);
        assert_eq!((-a).get(), -3.0);
        assert_eq!((a * 2.0).get(), 6.0);
        assert_eq!((2.0 * a).get(), 6.0);
        assert_eq!((b / 2.0).get(), 2.0);
        assert_eq!(b / a, 4.0 / 3.0); // like/like ratio is dimensionless
        let mut c = a;
        c += b;
        c -= Meters::new(1.0);
        assert_eq!(c.get(), 6.0);
    }

    #[test]
    fn cross_unit_arithmetic() {
        let d = Meters::new(10.0);
        let t = Seconds::new(2.0);
        let v = d / t;
        assert_eq!(v, MetersPerSecond::new(5.0));
        assert_eq!(v * t, d);
        assert_eq!(t * v, d);
        assert_eq!(d / v, t);
    }

    #[test]
    fn acceleration_arithmetic() {
        let dv = MetersPerSecond::new(6.0);
        let t = Seconds::new(2.0);
        let a = dv / t;
        assert_eq!(a, MetersPerSecondSquared::new(3.0));
        // Round trips back through multiplication on both sides.
        assert_eq!(a * t, dv);
        assert_eq!(t * a, dv);
        assert_eq!(dv / a, t);
        assert_eq!(format!("{}", MetersPerSecondSquared::new(-4.0)), "-4 m/s^2");
    }

    #[test]
    fn helpers() {
        assert_eq!(Meters::new(-2.0).abs().get(), 2.0);
        assert_eq!(Meters::new(1.0).max(Meters::new(2.0)).get(), 2.0);
        assert_eq!(Meters::new(1.0).min(Meters::new(2.0)).get(), 1.0);
        assert_eq!(
            Seconds::new(9.0)
                .clamp(Seconds::ZERO, Seconds::new(5.0))
                .get(),
            5.0
        );
        assert!(Meters::new(1.0).is_finite());
        assert!(!Meters::new(f64::NAN).is_finite());
        assert_eq!(
            Meters::new(1.0).total_cmp(&Meters::new(2.0)),
            std::cmp::Ordering::Less
        );
        assert!(Meters::new(1.0) < Meters::new(2.0));
        assert_eq!(format!("{}", MetersPerSecond::new(5.0)), "5 m/s");
        assert_eq!(format!("{}", Radians::new(0.0)), "0 rad");
    }

    #[test]
    fn radians_normalization_boundaries() {
        use std::f64::consts::PI;
        // π maps to π (the interval is half-open at -π).
        assert_eq!(Radians::new(PI).get(), PI);
        assert!((Radians::new(-PI).get() - PI).abs() < 1e-12);
        assert!((Radians::new(3.0 * PI).get() - PI).abs() < 1e-12);
        assert!(Radians::new(2.0 * PI).get().abs() < 1e-12);
        // `raw` leaves the value alone; `wrapped` normalizes it.
        assert_eq!(Radians::raw(7.0).get(), 7.0);
        assert!((Radians::raw(7.0).wrapped().get() - wrap_to_pi(7.0)).abs() < 1e-15);
    }

    #[test]
    fn degree_conversions() {
        use std::f64::consts::{FRAC_PI_2, PI};
        assert!((Radians::from_degrees(180.0).get() - PI).abs() < 1e-12);
        assert!((Radians::from_degrees(90.0).get() - FRAC_PI_2).abs() < 1e-12);
        assert!((Radians::from_degrees(-90.0).get() + FRAC_PI_2).abs() < 1e-12);
        assert!((Radians::new(PI).to_degrees() - 180.0).abs() < 1e-12);
        // 360° wraps to 0.
        assert!(Radians::from_degrees(360.0).get().abs() < 1e-12);
    }

    #[test]
    fn radians_trig_and_diff() {
        use std::f64::consts::FRAC_PI_2;
        let r = Radians::new(FRAC_PI_2);
        assert!((r.sin() - 1.0).abs() < 1e-12);
        assert!(r.cos().abs() < 1e-12);
        let (s, c) = r.sin_cos();
        assert_eq!((s, c), (r.sin(), r.cos()));
        // Smallest signed difference goes through the wrap.
        let a = Radians::new(std::f64::consts::PI - 0.01);
        let b = Radians::new(-std::f64::consts::PI + 0.01);
        assert!((a.angle_diff(b).get() + 0.02).abs() < 1e-9);
    }

    #[test]
    fn radians_new_agrees_with_contracts() {
        // Satellite: Radians::new normalization must satisfy the same
        // invariant `contracts::check_heading_normalized` enforces, for a
        // deterministic sweep over many magnitudes.
        let mut x = -1e6;
        while x < 1e6 {
            iprism_contracts::check_heading_normalized("Radians::new sweep", Radians::new(x).get());
            x += 7919.377; // irrational-ish stride, hits no exact multiples
        }
        iprism_contracts::check_heading_normalized("π", Radians::new(std::f64::consts::PI).get());
        iprism_contracts::check_heading_normalized("-π", Radians::new(-std::f64::consts::PI).get());
    }

    #[test]
    fn serde_roundtrip_is_transparent() {
        // The serde shim serializes newtype structs transparently, so a
        // `Meters` looks exactly like its `f64` on the wire.
        let m = Meters::new(2.5);
        assert_eq!(m.to_value(), 2.5f64.to_value());
        let back = Meters::from_value(&m.to_value()).unwrap();
        assert_eq!(back, m);
    }

    /// `wrap_to_pi` without its in-range fast path: always through `%`.
    fn wrap_to_pi_fmod(angle: f64) -> f64 {
        let two_pi = 2.0 * PI;
        let mut a = angle % two_pi;
        if a <= -PI {
            a += two_pi;
        } else if a > PI {
            a -= two_pi;
        }
        a
    }

    /// Any `f64` bit pattern, with ±0, ±π, ±2π and the floats next to
    /// them, ±∞, NaN payloads of either sign and subnormals drawn often.
    fn any_angle() -> impl Strategy<Value = f64> {
        let next = |x: f64, up: bool| {
            let bits = x.to_bits();
            // Away from or towards zero, by the sign of `x`.
            f64::from_bits(if up { bits + 1 } else { bits - 1 })
        };
        let two_pi = 2.0 * PI;
        let special = [
            0.0,
            -0.0,
            PI,
            -PI,
            next(PI, true),
            next(PI, false),
            next(-PI, true),
            next(-PI, false),
            two_pi,
            -two_pi,
            next(two_pi, false),
            next(-two_pi, false),
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff8_0000_dead_beef),
            f64::MAX,
            f64::MIN,
        ];
        (0u8..3, any::<u64>(), -20.0..20.0f64).prop_map(move |(kind, bits, small)| match kind {
            0 => f64::from_bits(bits),
            1 => special[(bits % special.len() as u64) as usize],
            _ => small,
        })
    }

    proptest! {
        /// Skipping `%` for angles already in `(-π, π]` returns the same
        /// bits as always taking it, over arbitrary bit patterns.
        #[test]
        fn prop_wrap_to_pi_fast_path_matches_fmod(a in any_angle()) {
            prop_assert_eq!(wrap_to_pi(a).to_bits(), wrap_to_pi_fmod(a).to_bits(), "angle {:e}", a);
        }

        #[test]
        fn prop_radians_new_in_interval(a in -1e6..1e6f64) {
            let r = Radians::new(a).get();
            prop_assert!(r > -std::f64::consts::PI - 1e-9);
            prop_assert!(r <= std::f64::consts::PI + 1e-9);
            iprism_contracts::check_heading_normalized("prop", r);
        }

        #[test]
        fn prop_wrap_preserves_direction(a in -100.0..100.0f64) {
            let (s1, c1) = a.sin_cos();
            let (s2, c2) = Radians::new(a).sin_cos();
            prop_assert!((s1 - s2).abs() < 1e-9 && (c1 - c2).abs() < 1e-9);
        }

        #[test]
        fn prop_speed_roundtrip(d in -1e3..1e3f64, t in 0.1..1e3f64) {
            let v = Meters::new(d) / Seconds::new(t);
            prop_assert!(((v * Seconds::new(t)).get() - d).abs() < 1e-9);
        }

        #[test]
        fn prop_accel_roundtrip(dv in -1e3..1e3f64, t in 0.1..1e3f64) {
            let a = MetersPerSecond::new(dv) / Seconds::new(t);
            prop_assert!(((a * Seconds::new(t)).get() - dv).abs() < 1e-9);
            prop_assert!(((MetersPerSecond::new(dv) / a).get() - t).abs() < 1e-9 || dv.abs() < 1e-12);
        }
    }
}
