//! Fixture tests for the dataflow rules.
//!
//! Convention mirrors `ast_rules.rs`: every flow rule gets a firing, a
//! silent and a suppressed fixture, exercised through the public
//! `lint_sources` entry point. The workspace-clean golden test and the
//! report snapshot cover the flow rules with every other family.

use xtask::{lint_sources, Rule};

/// Reach-tube math: units flow through raw `f64` hot loops here.
const REACH_PATH: &str = "crates/reach/src/fixture.rs";
/// Risk aggregation: the parallel fan-out lives here.
const RISK_PATH: &str = "crates/risk/src/fixture.rs";
/// Integration tests are outside the lint scope entirely.
const TEST_PATH: &str = "crates/reach/tests/fixture.rs";

/// The flow rules and the waiver audit; fixtures here ignore the token
/// rules (an undocumented `pub fn f` is beside the point).
const FLOW_RULES: [Rule; 7] = [
    Rule::UnitMixedDim,
    Rule::UnitRawReentry,
    Rule::UnitAngleRaw,
    Rule::ParFloatAccum,
    Rule::ParSharedMut,
    Rule::UnorderedReduce,
    Rule::DeadWaiver,
];

/// Flow rules fired on one file, in reporting order.
fn fired(path: &str, source: &str) -> Vec<Rule> {
    let report = lint_sources(&[(path, source)]);
    let rules = report.diagnostics.into_iter().map(|d| d.rule);
    rules.filter(|r| FLOW_RULES.contains(r)).collect()
}

// ---------------------------------------------------------------- unit-mixed-dim

#[test]
fn mixed_dim_fires_on_distance_plus_accel_times_time() {
    // a·dt is a speed (m/s² · s), and a speed must not be added to a length.
    let bad = "pub fn f(d: Meters, a: MetersPerSecondSquared, dt: Seconds) -> f64 {\n\
               d.get() + a.get() * dt.get()\n}\n";
    assert_eq!(fired(REACH_PATH, bad), vec![Rule::UnitMixedDim]);
}

#[test]
fn mixed_dim_silent_on_euler_velocity_update() {
    // v + a·dt is the bicycle model's velocity update: speed + speed.
    let good = "pub fn f(v: MetersPerSecond, a: MetersPerSecondSquared, dt: Seconds) -> f64 {\n\
                v.get() + a.get() * dt.get()\n}\n";
    assert!(fired(REACH_PATH, good).is_empty());
}

#[test]
fn mixed_dim_suppressed_by_allow() {
    let waived = "pub fn f(d: Meters, t: Seconds) -> f64 {\n\
                  // iprism-lint: allow(unit-mixed-dim) — intentional in fixture\n\
                  d.get() + t.get()\n}\n";
    assert!(fired(REACH_PATH, waived).is_empty());
}

// ---------------------------------------------------------------- unit-raw-reentry

#[test]
fn raw_reentry_fires_when_a_length_becomes_a_speed() {
    let bad = "pub fn f(d: Meters) -> MetersPerSecond { MetersPerSecond::new(d.get()) }\n";
    assert_eq!(fired(REACH_PATH, bad), vec![Rule::UnitRawReentry]);
}

#[test]
fn raw_reentry_silent_on_matching_dimension() {
    let good = "pub fn f(v: MetersPerSecond) -> MetersPerSecond {\n\
                MetersPerSecond::new(v.get() * 0.5)\n}\n";
    assert!(fired(REACH_PATH, good).is_empty());
}

#[test]
fn raw_reentry_suppressed_by_allow() {
    let waived = "pub fn f(d: Meters) -> MetersPerSecond {\n\
                  // iprism-lint: allow(unit-raw-reentry) — deliberate reinterpretation\n\
                  MetersPerSecond::new(d.get())\n}\n";
    assert!(fired(REACH_PATH, waived).is_empty());
}

// ---------------------------------------------------------------- unit-angle-raw

#[test]
fn angle_raw_fires_on_trig_over_degrees() {
    // The `_deg` suffix marks the literal as degrees; sin() wants radians.
    let bad = "pub fn f() -> f64 { let bearing_deg = 30.0; bearing_deg.cos() }\n";
    assert_eq!(fired(REACH_PATH, bad), vec![Rule::UnitAngleRaw]);
}

#[test]
fn angle_raw_silent_on_trig_over_radians() {
    let good = "pub fn f(heading: Radians) -> f64 { heading.get().sin() }\n";
    assert!(fired(REACH_PATH, good).is_empty());
}

#[test]
fn angle_raw_suppressed_by_allow() {
    let waived = "pub fn f() -> f64 {\n\
                  let bearing_deg = 30.0;\n\
                  // iprism-lint: allow(unit-angle-raw) — fixture exercises the bad path\n\
                  bearing_deg.cos()\n}\n";
    assert!(fired(REACH_PATH, waived).is_empty());
}

// ---------------------------------------------------------------- par-float-accum

#[test]
fn par_accum_fires_on_parallel_sum() {
    let bad = "pub fn f(xs: &[f64]) -> f64 { xs.par_iter().map(|x| x * 2.0).sum() }\n";
    assert_eq!(fired(RISK_PATH, bad), vec![Rule::ParFloatAccum]);
}

#[test]
fn par_accum_fires_on_captured_accumulator() {
    let bad = "pub fn f(xs: &[f64]) -> f64 {\n\
               let mut total = 0.0;\n\
               parallel_map(xs, |x| { total += x; });\n\
               total\n}\n";
    assert_eq!(fired(RISK_PATH, bad), vec![Rule::ParFloatAccum]);
}

#[test]
fn par_accum_silent_on_ordered_collect() {
    // The sanctioned shape: map in parallel, fan in by index, reduce after.
    let good = "pub fn f(xs: &[f64]) -> Vec<f64> {\n\
                xs.par_iter().map(|x| x * 2.0).collect()\n}\n";
    assert!(fired(RISK_PATH, good).is_empty());
}

#[test]
fn par_accum_suppressed_by_allow() {
    let waived = "pub fn f(xs: &[f64]) -> f64 {\n\
                  // iprism-lint: allow(par-float-accum) — tolerance-tested downstream\n\
                  xs.par_iter().map(|x| x * 2.0).sum()\n}\n";
    assert!(fired(RISK_PATH, waived).is_empty());
}

// ---------------------------------------------------------------- par-shared-mut

#[test]
fn shared_mut_fires_on_lock_inside_parallel_closure() {
    let bad = "pub fn f(xs: &[f64]) {\n\
               parallel_map(xs, |x| { shared.lock().unwrap().push(*x); });\n}\n";
    assert_eq!(fired(RISK_PATH, bad), vec![Rule::ParSharedMut]);
}

#[test]
fn shared_mut_silent_outside_parallel_regions() {
    // Sequential lock use is fine; only parallel closures are constrained.
    let good = "pub fn f(m: &Mutex<Vec<f64>>) { m.lock().unwrap().push(1.0); }\n";
    assert!(fired(RISK_PATH, good).is_empty());
}

#[test]
fn shared_mut_suppressed_by_allow() {
    let waived = "pub fn f(xs: &[f64]) {\n\
                  // iprism-lint: allow(par-shared-mut) — counters only, order-free\n\
                  parallel_map(xs, |x| { shared.lock().unwrap().push(*x); });\n}\n";
    assert!(fired(RISK_PATH, waived).is_empty());
}

// ---------------------------------------------------------------- unordered-reduce

#[test]
fn unordered_reduce_fires_on_hash_map_values_sum() {
    let bad = "pub fn f(m: &HashMap<u32, f64>) -> f64 { m.values().sum() }\n";
    assert_eq!(fired(RISK_PATH, bad), vec![Rule::UnorderedReduce]);
}

#[test]
fn unordered_reduce_silent_on_btree_map() {
    let good = "pub fn f(m: &BTreeMap<u32, f64>) -> f64 { m.values().sum() }\n";
    assert!(fired(RISK_PATH, good).is_empty());
}

#[test]
fn unordered_reduce_suppressed_by_allow() {
    let waived = "pub fn f(m: &HashMap<u32, f64>) -> f64 {\n\
                  // iprism-lint: allow(unordered-reduce) — sum is order-insensitive enough here\n\
                  m.values().sum()\n}\n";
    assert!(fired(RISK_PATH, waived).is_empty());
}

// ---------------------------------------------------------------- dead-waiver

#[test]
fn dead_flow_waiver_fires() {
    let dead = "pub fn f(a: f64) -> f64 {\n\
                // iprism-lint: allow(par-float-accum)\n\
                a * 2.0\n}\n";
    assert_eq!(fired(REACH_PATH, dead), vec![Rule::DeadWaiver]);
}

#[test]
fn live_flow_waiver_is_not_dead() {
    let live = "pub fn f(d: Meters, t: Seconds) -> f64 {\n\
                // iprism-lint: allow(unit-mixed-dim)\n\
                d.get() + t.get()\n}\n";
    assert!(fired(REACH_PATH, live).is_empty());
}

#[test]
fn mixed_directive_reports_every_dead_name() {
    // One audit sees every family's findings, so a directive naming a flow
    // rule and a token rule is checked name by name.
    let mixed = "pub fn f(a: f64) -> f64 {\n\
                 // iprism-lint: allow(unit-mixed-dim, no-float-eq)\n\
                 a * 2.0\n}\n";
    assert_eq!(
        fired(REACH_PATH, mixed),
        vec![Rule::DeadWaiver, Rule::DeadWaiver]
    );
}

// ---------------------------------------------------------------- scope & counting

#[test]
fn test_code_is_outside_the_flow_scope() {
    let bad = "pub fn f(d: Meters, t: Seconds) -> f64 { d.get() + t.get() }\n";
    let report = lint_sources(&[(TEST_PATH, bad)]);
    assert_eq!(report.flow_functions, 0);
    assert!(report.diagnostics.is_empty());
}

#[test]
fn nested_functions_are_counted_as_their_own_units() {
    let src = "pub fn outer() -> f64 {\n\
               fn inner(x: f64) -> f64 { x }\n\
               inner(1.0)\n}\n";
    assert_eq!(lint_sources(&[(REACH_PATH, src)]).flow_functions, 2);
    assert!(fired(REACH_PATH, src).is_empty());
}
