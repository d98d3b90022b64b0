//! Numeric-invariant contracts for the iPrism workspace.
//!
//! iPrism is a *safety* metric: its outputs are only meaningful while a
//! small set of numeric invariants hold (see `docs/INVARIANTS.md` for the
//! full catalogue):
//!
//! * **STI bounds** — every STI value lies in `[0, 1]` (Eq. 4–5).
//! * **Reach-tube monotonicity** — removing obstacles never shrinks the
//!   escape-route volume: `|T| ≤ |T^{/i}| ≤ |T^∅|`, up to the documented
//!   ε-dedup tolerance (DESIGN.md §8).
//! * **Finite kinematics** — no state component is NaN or infinite.
//! * **Heading normalization** — headings stay wrapped in `(-π, π]`.
//!
//! Checks have `debug_assert!` semantics: active in debug builds (so
//! `cargo test` exercises them), compiled out entirely in `--release`
//! builds. Violations panic with a message naming the boundary that was
//! crossed.
//!
//! This crate sits below every other iPrism crate so the checks can run at
//! the public boundaries of `reach`, `risk`, `dynamics`, and `sim`;
//! `iprism-core` re-exports it as `iprism_core::invariants`.

/// `true` when contract checking is compiled in and active (debug builds).
#[inline]
#[must_use]
pub const fn validation_enabled() -> bool {
    cfg!(debug_assertions)
}

/// Relative slack for reach-tube monotonicity comparisons.
///
/// The ε-dedup optimization makes tube volumes *approximately* monotone in
/// the obstacle set: pruning a candidate can change which duplicate becomes
/// a cell's representative, moving the measured volume by a bounded amount
/// (DESIGN.md §8). The seed test-suite bounds this noise at 5% + 1 m² and
/// the contract uses the same envelope.
pub const TUBE_MONOTONE_REL_TOL: f64 = 0.05;

/// Absolute slack (m²) for reach-tube monotonicity comparisons.
pub const TUBE_MONOTONE_ABS_TOL: f64 = 1.0;

#[cold]
#[inline(never)]
fn contract_violated(message: &str) -> ! {
    // This crate IS the enforcement layer; a contract violation must abort
    // loudly in validating builds. (`no-panic-in-lib` does not apply here —
    // contracts sits outside the panic-banned crate set — so no waiver.)
    panic!("iPrism invariant violated: {message}");
}

macro_rules! ensure {
    ($cond:expr, $($fmt:tt)*) => {
        // `!cond` rather than the inverted operator: a NaN operand must
        // fail the contract, not pass it vacuously.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if validation_enabled() && !$cond {
            contract_violated(&format!($($fmt)*));
        }
    };
}

/// Checks an STI value is finite and inside `[0, 1]`.
///
/// `context` names the boundary, e.g. `"StiEvaluator::evaluate combined"`.
///
/// # Panics
///
/// Panics in validating builds when the invariant is violated.
#[inline]
pub fn check_sti(context: &str, sti: f64) {
    ensure!(
        sti.is_finite() && (0.0..=1.0).contains(&sti),
        "{context}: STI must be in [0, 1], got {sti}"
    );
}

/// Checks the counterfactual volume ordering `|T| ≤ |T^{/i}| ≤ |T^∅|`
/// behind Eq. (4)–(5), with the documented ε-dedup tolerance.
///
/// Pass the factual volume (`all` obstacles present), one counterfactual
/// volume (`minus_i`, actor *i* removed), and the empty-world volume.
///
/// # Panics
///
/// Panics in validating builds when a volume is negative/non-finite or the
/// ordering is violated beyond tolerance.
#[inline]
pub fn check_tube_monotone(context: &str, all: f64, minus_i: f64, empty: f64) {
    ensure!(
        all.is_finite() && minus_i.is_finite() && empty.is_finite(),
        "{context}: tube volumes must be finite, got |T|={all}, |T^/i|={minus_i}, |T^∅|={empty}"
    );
    ensure!(
        all >= 0.0 && minus_i >= 0.0 && empty >= 0.0,
        "{context}: tube volumes must be non-negative, got |T|={all}, |T^/i|={minus_i}, |T^∅|={empty}"
    );
    let bound = |smaller: f64| smaller * (1.0 + TUBE_MONOTONE_REL_TOL) + TUBE_MONOTONE_ABS_TOL;
    ensure!(
        all <= bound(minus_i),
        "{context}: removing an actor shrank the tube: |T|={all} > |T^/i|={minus_i} (+tol)"
    );
    ensure!(
        minus_i <= bound(empty),
        "{context}: counterfactual tube exceeds empty-world tube: |T^/i|={minus_i} > |T^∅|={empty} (+tol)"
    );
}

/// Checks every component of a kinematic state vector is finite.
///
/// Components are passed as a slice so this crate does not depend on the
/// dynamics crate's `VehicleState` type; callers pass `[x, y, θ, v]`.
///
/// # Panics
///
/// Panics in validating builds when any component is NaN or infinite.
#[inline]
pub fn check_finite_state(context: &str, components: &[f64]) {
    ensure!(
        components.iter().all(|c| c.is_finite()),
        "{context}: non-finite state component in {components:?}"
    );
}

/// Checks a heading is wrapped into `(-π, π]` (with a 1 ULP-scale margin
/// for the wrapping arithmetic itself).
///
/// # Panics
///
/// Panics in validating builds when the heading is outside the interval.
#[inline]
pub fn check_heading_normalized(context: &str, theta: f64) {
    const PI_MARGIN: f64 = core::f64::consts::PI + 1e-12;
    ensure!(
        theta.is_finite() && theta > -PI_MARGIN && theta <= PI_MARGIN,
        "{context}: heading must be wrapped to (-π, π], got {theta}"
    );
}

/// Checks a time sweep is monotone: `t` must not run backwards past the
/// previously observed time `last`.
///
/// Used by monotone-access fast paths (e.g. `TrajectoryCursor`) whose
/// amortized-O(1) guarantee is only sound for non-decreasing queries.
/// `last` may be `NEG_INFINITY` for the first query; a NaN `t` fails.
///
/// # Panics
///
/// Panics in validating builds when `t < last` or `t` is NaN.
#[inline]
pub fn check_monotone_time(context: &str, last: f64, t: f64) {
    ensure!(
        t >= last,
        "{context}: time sweep ran backwards ({t} after {last})"
    );
}

/// Checks a trajectory queried for interpolation actually has samples.
///
/// An empty trajectory inside an `Obstacle` would silently interpolate to a
/// default (origin) state and prune nothing; constructors reject it, so an
/// empty one reaching a query means the struct was corrupted through its
/// public fields.
///
/// # Panics
///
/// Panics in validating builds when `is_empty` is `true`.
#[inline]
pub fn check_nonempty_trajectory(context: &str, is_empty: bool) {
    ensure!(
        !is_empty,
        "{context}: trajectory has no samples; interpolation would fall back \
         to a zero-size footprint that prunes nothing"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_checks_are_silent() {
        check_sti("test", 0.0);
        check_sti("test", 1.0);
        check_sti("test", 0.37);
        check_tube_monotone("test", 10.0, 12.0, 20.0);
        // Within the documented dedup tolerance.
        check_tube_monotone("test", 12.4, 12.0, 12.1);
        check_finite_state("test", &[0.0, -5.0, 3.1, 22.0]);
        check_heading_normalized("test", core::f64::consts::PI);
        check_heading_normalized("test", -core::f64::consts::PI + 0.001);
        check_heading_normalized("test", 0.0);
    }

    #[test]
    #[should_panic(expected = "STI must be in [0, 1]")]
    fn sti_above_one_panics() {
        check_sti("test", 1.2);
    }

    #[test]
    #[should_panic(expected = "STI must be in [0, 1]")]
    fn sti_nan_panics() {
        check_sti("test", f64::NAN);
    }

    #[test]
    #[should_panic(expected = "exceeds empty-world tube")]
    fn tube_monotonicity_violation_panics() {
        check_tube_monotone("test", 5.0, 50.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "removing an actor shrank the tube")]
    fn tube_factual_above_counterfactual_panics() {
        check_tube_monotone("test", 50.0, 10.0, 60.0);
    }

    #[test]
    #[should_panic(expected = "non-finite state component")]
    fn non_finite_state_panics() {
        check_finite_state("test", &[0.0, f64::NAN, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "heading must be wrapped")]
    fn unwrapped_heading_panics() {
        check_heading_normalized("test", 7.0);
    }

    #[test]
    fn enabled_in_debug_tests() {
        // This test suite runs under the debug profile, so validation must
        // be active here.
        assert!(validation_enabled());
    }
}
