//! Kinematic bicycle model (paper reference [42]).

use iprism_geom::Vec2;
use iprism_units::{Meters, MetersPerSecond, MetersPerSecondSquared, Radians, Seconds};
use serde::{Deserialize, Serialize};

use crate::{ControlInput, ControlLimits, Trajectory, VehicleState};

/// The kinematic bicycle model used to propagate ego states in the
/// reach-tube computation (Algorithm 1):
///
/// ```text
/// ẋ = v cos θ      θ̇ = (v / L) tan φ
/// ẏ = v sin θ      v̇ = a
/// ```
///
/// with wheelbase `L`. Integration is forward-Euler at the caller's Δt,
/// matching the time-slice discretization of the paper; a finer RK4-style
/// integrator is unnecessary at the Δt ≈ 0.1–0.5 s used there.
///
/// # Examples
///
/// ```
/// use iprism_dynamics::{BicycleModel, ControlInput, VehicleState};
/// use iprism_units::{Meters, Seconds};
///
/// let m = BicycleModel::new(Meters::new(2.9));
/// let s0 = VehicleState::new(0.0, 0.0, 0.0, 10.0);
/// // Full-left steering turns the heading left.
/// let s1 = m.step(s0, ControlInput::new(0.0, 0.5), Seconds::new(0.1));
/// assert!(s1.theta > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BicycleModel {
    /// Wheelbase `L`.
    pub wheelbase: Meters,
    /// Control/speed limits enforced during propagation.
    pub limits: ControlLimits,
}

/// A control input preprocessed by [`BicycleModel::prepare`] for repeated
/// propagation: sanitized, clamped, with the steering tangent taken once.
///
/// Only meaningful for the model (and limits) that prepared it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedControl {
    /// Clamped longitudinal acceleration (m/s²).
    pub accel: f64,
    /// `tan` of the clamped steering angle (dimensionless).
    pub steer_tan: f64,
}

impl PreparedControl {
    /// The clamped longitudinal acceleration as a dimensioned quantity.
    #[inline]
    #[must_use]
    pub fn acceleration(&self) -> MetersPerSecondSquared {
        MetersPerSecondSquared::new(self.accel)
    }
}

impl Default for BicycleModel {
    /// Typical passenger-car parameters (wheelbase 2.9 m, default limits),
    /// following the paper's reference [46].
    fn default() -> Self {
        BicycleModel::new(Meters::new(2.9))
    }
}

impl BicycleModel {
    /// Creates a model with the given wheelbase and default control limits.
    ///
    /// # Panics
    ///
    /// Panics when `wheelbase` is not strictly positive and finite.
    pub fn new(wheelbase: Meters) -> Self {
        assert!(
            wheelbase.get() > 0.0 && wheelbase.is_finite(),
            "wheelbase must be positive and finite, got {wheelbase}"
        );
        BicycleModel {
            wheelbase,
            limits: ControlLimits::default(),
        }
    }

    /// Creates a model with explicit limits.
    pub fn with_limits(wheelbase: Meters, limits: ControlLimits) -> Self {
        let mut m = BicycleModel::new(wheelbase);
        m.limits = limits;
        m
    }

    /// Propagates a state forward by `dt` seconds under control `u`.
    ///
    /// The control is clamped into the admissible ranges and the resulting
    /// speed into the speed envelope, so the output is always dynamically
    /// feasible. The heading is kept wrapped in `(-π, π]`.
    pub fn step(&self, state: VehicleState, u: ControlInput, dt: Seconds) -> VehicleState {
        let (sin_t, cos_t) = state.theta.sin_cos();
        self.step_prepared(state, self.prepare(u), dt, sin_t, cos_t)
    }

    /// Preprocesses a control for repeated propagation: sanitizes non-finite
    /// components (a faulty agent must not poison the simulation with NaNs —
    /// `clamp` propagates NaN), clamps into the admissible ranges and takes
    /// `tan φ` once. [`BicycleModel::step_prepared`] with the result is
    /// bit-identical to [`BicycleModel::step`] with the raw control.
    pub fn prepare(&self, u: ControlInput) -> PreparedControl {
        PreparedControl {
            accel: self.prepare_accel(u.acceleration()).get(),
            steer_tan: self.prepare_steer(Radians::raw(u.steer)),
        }
    }

    /// The acceleration half of [`BicycleModel::prepare`]: `accel`
    /// sanitized (non-finite becomes 0) and clamped into the limits.
    #[inline]
    pub fn prepare_accel(&self, accel: MetersPerSecondSquared) -> MetersPerSecondSquared {
        let a = accel.get();
        let a = if a.is_finite() { a } else { 0.0 };
        self.limits.clamp_accel(MetersPerSecondSquared::new(a))
    }

    /// The steering half of [`BicycleModel::prepare`]: the tangent of
    /// `steer` sanitized (non-finite becomes 0) and clamped into the
    /// limits.
    #[inline]
    pub fn prepare_steer(&self, steer: Radians) -> f64 {
        let s = steer.get();
        let s = if s.is_finite() { s } else { 0.0 };
        self.limits.clamp_steer(Radians::raw(s)).get().tan()
    }

    /// [`BicycleModel::step`] with the per-control and per-state
    /// trigonometry hoisted out: `p` carries the clamped control and its
    /// `tan φ`, and `sin_t`/`cos_t` must be `state.theta.sin_cos()`.
    ///
    /// The step is composed of [`BicycleModel::step_position`],
    /// [`BicycleModel::step_heading`] and [`BicycleModel::step_speed`],
    /// which the reach-tube expansion calls one axis at a time: every
    /// control of a parent state shares one position, every steering value
    /// one heading and every acceleration one speed. The arithmetic is
    /// exactly `step`'s, so results are **bit-identical** — only redundant
    /// work is removed.
    // `sin_t`/`cos_t` are dimensionless trig ratios; `raw-f64-param` does
    // not flag them, so no waiver is needed.
    pub fn step_prepared(
        &self,
        state: VehicleState,
        p: PreparedControl,
        dt: Seconds,
        sin_t: f64,
        cos_t: f64,
    ) -> VehicleState {
        debug_assert!(dt.get() >= 0.0, "negative dt");
        let position = self.step_position(&state, dt, sin_t, cos_t);
        let next = VehicleState::new(
            position.x,
            position.y,
            self.step_heading(&state, p.steer_tan, dt).get(),
            self.step_speed(&state, p.acceleration(), dt).get(),
        );
        if state.is_finite() {
            // Propagation preserves finiteness and heading normalization
            // whenever the input state was well-formed.
            iprism_contracts::check_finite_state(
                "BicycleModel::step",
                &[next.x, next.y, next.theta, next.v],
            );
            iprism_contracts::check_heading_normalized("BicycleModel::step", next.theta);
        }
        next
    }

    /// The position part of one Euler step from `state`, whose heading has
    /// sine `sin_t` and cosine `cos_t`. Every control moves a state to
    /// this one position.
    #[inline]
    pub fn step_position(&self, state: &VehicleState, dt: Seconds, sin_t: f64, cos_t: f64) -> Vec2 {
        let dt = dt.get();
        Vec2::new(
            state.x + state.v * cos_t * dt,
            state.y + state.v * sin_t * dt,
        )
    }

    /// The heading part of one Euler step from `state` under a prepared
    /// steering `tangent` (`tan φ`), wrapped into `(-π, π]`. It does not
    /// depend on the acceleration.
    #[inline]
    pub fn step_heading(&self, state: &VehicleState, tangent: f64, dt: Seconds) -> Radians {
        Radians::raw(iprism_geom::wrap_to_pi(
            state.theta + state.v / self.wheelbase.get() * tangent * dt.get(),
        ))
    }

    /// The speed part of one Euler step from `state` under a prepared
    /// acceleration, clamped into the speed envelope. It does not depend on
    /// the steering.
    #[inline]
    pub fn step_speed(
        &self,
        state: &VehicleState,
        accel: MetersPerSecondSquared,
        dt: Seconds,
    ) -> MetersPerSecond {
        self.limits
            .clamp_speed(MetersPerSecond::new(state.v + accel.get() * dt.get()))
    }

    /// Rolls out a constant control for `steps` steps of `dt` seconds and
    /// returns the trajectory (initial state included, `steps + 1` samples).
    pub fn rollout(
        &self,
        state: VehicleState,
        u: ControlInput,
        dt: Seconds,
        steps: usize,
    ) -> Trajectory {
        let mut traj = Trajectory::with_capacity(Seconds::new(0.0), dt, steps + 1);
        traj.push(state);
        let mut s = state;
        for _ in 0..steps {
            s = self.step(s, u, dt);
            traj.push(s);
        }
        traj
    }

    /// Rolls out a control *sequence*, applying `controls[i]` over step `i`.
    pub fn rollout_sequence(
        &self,
        state: VehicleState,
        controls: &[ControlInput],
        dt: Seconds,
    ) -> Trajectory {
        let mut traj = Trajectory::with_capacity(Seconds::new(0.0), dt, controls.len() + 1);
        traj.push(state);
        let mut s = state;
        for &u in controls {
            s = self.step(s, u, dt);
            traj.push(s);
        }
        traj
    }

    /// Distance covered from speed `v` to a full stop under maximum braking.
    pub fn stopping_distance(&self, v: MetersPerSecond) -> Meters {
        let b = self.limits.max_braking();
        if b.get() <= 0.0 {
            return Meters::new(f64::INFINITY);
        }
        let v = v.get();
        Meters::new(v * v / (2.0 * b.get()))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::float_cmp)] // exact comparisons are intentional in tests
    use super::*;
    use proptest::prelude::*;

    fn model() -> BicycleModel {
        BicycleModel::default()
    }

    #[test]
    fn straight_line_constant_speed() {
        let m = model();
        let s = m.step(
            VehicleState::new(0.0, 0.0, 0.0, 10.0),
            ControlInput::COAST,
            Seconds::new(0.5),
        );
        assert!((s.x - 5.0).abs() < 1e-12);
        assert_eq!(s.y, 0.0);
        assert_eq!(s.theta, 0.0);
        assert_eq!(s.v, 10.0);
    }

    #[test]
    fn braking_reduces_speed_to_zero_not_negative() {
        let m = model();
        let mut s = VehicleState::new(0.0, 0.0, 0.0, 2.0);
        for _ in 0..20 {
            s = m.step(s, ControlInput::new(-6.0, 0.0), Seconds::new(0.5));
        }
        assert_eq!(s.v, 0.0);
    }

    #[test]
    fn speed_saturates_at_vmax() {
        let m = model();
        let mut s = VehicleState::new(0.0, 0.0, 0.0, 29.0);
        for _ in 0..20 {
            s = m.step(s, ControlInput::new(3.5, 0.0), Seconds::new(1.0));
        }
        assert_eq!(s.v, m.limits.v_max);
    }

    #[test]
    fn steering_turns_heading() {
        let m = model();
        let left = m.step(
            VehicleState::new(0.0, 0.0, 0.0, 10.0),
            ControlInput::new(0.0, 0.3),
            Seconds::new(0.1),
        );
        let right = m.step(
            VehicleState::new(0.0, 0.0, 0.0, 10.0),
            ControlInput::new(0.0, -0.3),
            Seconds::new(0.1),
        );
        assert!(left.theta > 0.0);
        assert!(right.theta < 0.0);
        assert!((left.theta + right.theta).abs() < 1e-12); // symmetric
    }

    #[test]
    fn no_turn_at_zero_speed() {
        let m = model();
        let s = m.step(
            VehicleState::new(0.0, 0.0, 0.0, 0.0),
            ControlInput::new(0.0, 0.6),
            Seconds::new(0.5),
        );
        assert_eq!(s.theta, 0.0);
        assert_eq!(s.position(), iprism_geom::Vec2::ZERO);
    }

    #[test]
    fn control_clamped() {
        let m = model();
        // An insane steering command behaves like the max steering command.
        let wild = m.step(
            VehicleState::new(0.0, 0.0, 0.0, 10.0),
            ControlInput::new(0.0, 10.0),
            Seconds::new(0.1),
        );
        let maxed = m.step(
            VehicleState::new(0.0, 0.0, 0.0, 10.0),
            ControlInput::new(0.0, m.limits.steer_max),
            Seconds::new(0.1),
        );
        assert_eq!(wild, maxed);
    }

    #[test]
    fn rollout_length_and_continuity() {
        let m = model();
        let t = m.rollout(
            VehicleState::new(0.0, 0.0, 0.0, 10.0),
            ControlInput::COAST,
            Seconds::new(0.1),
            10,
        );
        assert_eq!(t.len(), 11);
        assert!((t.states()[10].x - 10.0).abs() < 1e-9);
    }

    #[test]
    fn rollout_sequence_applies_each_control() {
        let m = model();
        let controls = [ControlInput::new(3.5, 0.0), ControlInput::new(-6.0, 0.0)];
        let t = m.rollout_sequence(
            VehicleState::new(0.0, 0.0, 0.0, 10.0),
            &controls,
            Seconds::new(1.0),
        );
        assert_eq!(t.len(), 3);
        assert!((t.states()[1].v - 13.5).abs() < 1e-12);
        assert!((t.states()[2].v - 7.5).abs() < 1e-12);
    }

    #[test]
    fn stopping_distance_quadratic() {
        let m = model();
        let d10 = m.stopping_distance(MetersPerSecond::new(10.0));
        let d20 = m.stopping_distance(MetersPerSecond::new(20.0));
        assert!((d20 / d10 - 4.0).abs() < 1e-9);
        assert!((d10.get() - 100.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "wheelbase")]
    fn bad_wheelbase_panics() {
        let _ = BicycleModel::new(Meters::new(0.0));
    }

    #[test]
    fn non_finite_controls_are_sanitized() {
        // Failure injection: a faulty controller emitting NaN/∞ must not
        // corrupt the vehicle state.
        let m = model();
        let s0 = VehicleState::new(0.0, 0.0, 0.0, 10.0);
        for u in [
            ControlInput::new(f64::NAN, 0.0),
            ControlInput::new(0.0, f64::NAN),
            ControlInput::new(f64::INFINITY, f64::NEG_INFINITY),
        ] {
            let s1 = m.step(s0, u, Seconds::new(0.1));
            assert!(s1.is_finite(), "{u:?}");
        }
        // NaN controls behave exactly like coasting.
        let coast = m.step(s0, ControlInput::COAST, Seconds::new(0.1));
        let nan = m.step(s0, ControlInput::new(f64::NAN, f64::NAN), Seconds::new(0.1));
        assert_eq!(coast, nan);
    }

    #[test]
    fn turning_circle_returns_to_start() {
        // Driving a full circle at constant steer brings us back near the
        // starting point.
        let m = model();
        let steer = 0.3f64;
        let v = 5.0;
        let yaw_rate = v / m.wheelbase.get() * steer.tan();
        let period = std::f64::consts::TAU / yaw_rate;
        let dt = 0.001;
        let steps = (period / dt).round() as usize;
        let t = m.rollout(
            VehicleState::new(0.0, 0.0, 0.0, v),
            ControlInput::new(0.0, steer),
            Seconds::new(dt),
            steps,
        );
        let last = *t.states().last().unwrap();
        assert!(
            last.position().norm() < 0.2,
            "drift {}",
            last.position().norm()
        );
    }

    #[test]
    fn prepared_step_bit_identical_to_step() {
        let m = model();
        let controls = [
            ControlInput::new(0.0, 0.3),
            ControlInput::new(3.5, -0.61),
            ControlInput::new(-6.0, 0.0),
            ControlInput::new(f64::NAN, f64::INFINITY), // sanitized path
            ControlInput::new(99.0, -99.0),             // clamped path
        ];
        for u in controls {
            let p = m.prepare(u);
            for (theta, v) in [(0.0, 10.0), (1.2, 0.0), (-3.0, 29.5)] {
                let s = VehicleState::new(12.5, -3.25, theta, v);
                let (sin_t, cos_t) = s.theta.sin_cos();
                assert_eq!(
                    m.step(s, u, Seconds::new(0.3)),
                    m.step_prepared(s, p, Seconds::new(0.3), sin_t, cos_t),
                    "{u:?} at theta={theta} v={v}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn prop_prepared_step_matches_step(
            x in -1e3..1e3f64, y in -1e3..1e3f64, th in -3.0..3.0f64, v in 0.0..30.0f64,
            a in -10.0..10.0f64, s in -1.0..1.0f64, dt in 0.001..1.0f64,
        ) {
            let m = model();
            let state = VehicleState::new(x, y, th, v);
            let u = ControlInput::new(a, s);
            let (sin_t, cos_t) = state.theta.sin_cos();
            prop_assert_eq!(
                m.step(state, u, Seconds::new(dt)),
                m.step_prepared(state, m.prepare(u), Seconds::new(dt), sin_t, cos_t)
            );
        }

        #[test]
        fn prop_step_is_finite(
            x in -1e3..1e3f64, y in -1e3..1e3f64, th in -3.0..3.0f64, v in 0.0..30.0f64,
            a in -10.0..10.0f64, s in -1.0..1.0f64, dt in 0.001..1.0f64,
        ) {
            let m = model();
            let next = m.step(VehicleState::new(x, y, th, v), ControlInput::new(a, s), Seconds::new(dt));
            prop_assert!(next.is_finite());
            prop_assert!(next.v >= m.limits.v_min && next.v <= m.limits.v_max);
        }

        #[test]
        fn prop_displacement_bounded_by_speed(
            th in -3.0..3.0f64, v in 0.0..30.0f64,
            a in -10.0..10.0f64, s in -1.0..1.0f64, dt in 0.001..1.0f64,
        ) {
            let m = model();
            let s0 = VehicleState::new(0.0, 0.0, th, v);
            let s1 = m.step(s0, ControlInput::new(a, s), Seconds::new(dt));
            // Euler step moves exactly v*dt
            prop_assert!((s1.position().norm() - v * dt).abs() < 1e-9);
        }

        #[test]
        fn prop_heading_wrapped(
            th in -3.0..3.0f64, v in 0.0..30.0f64, s in -1.0..1.0f64,
        ) {
            let m = model();
            let next = m.step(VehicleState::new(0.0, 0.0, th, v), ControlInput::new(0.0, s), Seconds::new(0.5));
            prop_assert!(next.theta > -std::f64::consts::PI - 1e-9);
            prop_assert!(next.theta <= std::f64::consts::PI + 1e-9);
        }
    }
}
