//! Fixture tests for the token rules: every rule must fire on a bad
//! fixture, stay silent on the corresponding good fixture, and be
//! suppressed by an `iprism-lint: allow(<rule>)` directive. The waiver
//! audit, path classification and the report format are pinned here too.
//!
//! Paths select the rule families that apply (see `classify`): no-panic in
//! the numeric core crates, the wall-clock rule in sim/scenarios, the
//! determinism rules in sim/scenarios/reach/risk, the units-API rules in
//! dynamics/geom/reach, the NaN-hygiene rules in the numeric hot paths.

use xtask::{classify, lint_sources, Diagnostic, Report, Rule, ALL_RULES};

/// Determinism-critical, not a hot path, no units-API rules.
const SIM_PATH: &str = "crates/sim/src/fixture.rs";
/// Hot path + units params (but not the return rule).
const GEOM_PATH: &str = "crates/geom/src/fixture.rs";
/// Units params *and* returns + hot path.
const DYN_PATH: &str = "crates/dynamics/src/fixture.rs";
/// A numeric core crate: no-panic applies, the wall-clock rule does not.
const LIB_PATH: &str = "crates/risk/src/fixture.rs";
/// In the workspace but outside every scoped rule family.
const SHIM_PATH: &str = "shims/rand/src/fixture.rs";
/// The units layer itself: angle conversions are allowed here.
const UNITS_PATH: &str = "crates/units/src/fixture.rs";

/// The line-oriented checks among the token rules. Each fixture below
/// asserts on one side of this split, so a `pub fn` fixture for a
/// signature rule need not carry a doc comment, and vice versa.
const TEXT_RULES: [Rule; 4] = [
    Rule::NoPanicInLib,
    Rule::NoFloatEq,
    Rule::NoWallclockInSim,
    Rule::PubFnDocs,
];

fn diagnostics(path: &str, source: &str) -> Vec<Diagnostic> {
    lint_sources(&[(path, source)]).diagnostics
}

/// Every rule that fired, in report order.
fn all_fired(path: &str, source: &str) -> Vec<Rule> {
    diagnostics(path, source)
        .into_iter()
        .map(|d| d.rule)
        .collect()
}

/// The structural rules and the waiver audit that fired.
fn fired(path: &str, source: &str) -> Vec<Rule> {
    let mut rules = all_fired(path, source);
    rules.retain(|r| !TEXT_RULES.contains(r));
    rules
}

/// The line-oriented rules that fired.
fn text_fired(path: &str, source: &str) -> Vec<Rule> {
    let mut rules = all_fired(path, source);
    rules.retain(|r| TEXT_RULES.contains(r));
    rules
}

// ---------------------------------------------------------------- determinism

#[test]
fn hash_collections_fire_in_determinism_crates() {
    let bad = "use std::collections::HashMap;\nfn f() { let s: HashSet<u32> = HashSet::new(); }\n";
    let rules = fired(SIM_PATH, bad);
    assert_eq!(
        rules
            .iter()
            .filter(|r| **r == Rule::NoHashCollections)
            .count(),
        3,
        "got {rules:?}"
    );
}

#[test]
fn hash_collections_silent_on_btree_and_outside_scope() {
    let good =
        "use std::collections::BTreeMap;\nfn f() { let s: BTreeSet<u32> = BTreeSet::new(); }\n";
    assert!(fired(SIM_PATH, good).is_empty());
    // The same HashMap is fine outside the determinism-critical crates.
    let bad_elsewhere = "use std::collections::HashMap;\n";
    assert!(fired(SHIM_PATH, bad_elsewhere).is_empty());
    // ... and inside a #[cfg(test)] module of a determinism crate.
    let in_tests = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
    assert!(fired(SIM_PATH, in_tests).is_empty());
}

#[test]
fn hash_collections_suppressed_by_allow() {
    let waived = "// iprism-lint: allow(no-hash-collections)\nuse std::collections::HashMap;\n";
    assert!(fired(SIM_PATH, waived).is_empty());
}

#[test]
fn unseeded_rng_fires_in_determinism_crates() {
    let bad = "fn f() { let mut rng = rand::thread_rng(); let r = SmallRng::from_entropy(); }\n";
    let rules = fired(SIM_PATH, bad);
    assert_eq!(
        rules.iter().filter(|r| **r == Rule::NoUnseededRng).count(),
        2,
        "got {rules:?}"
    );
}

#[test]
fn unseeded_rng_silent_on_seeded_and_outside_scope() {
    let good = "fn f(seed: u64) { let mut rng = SmallRng::seed_from_u64(seed); }\n";
    assert!(fired(SIM_PATH, good).is_empty());
    let bad_elsewhere = "fn f() { let mut rng = rand::thread_rng(); }\n";
    assert!(fired(SHIM_PATH, bad_elsewhere).is_empty());
}

#[test]
fn unseeded_rng_suppressed_by_allow() {
    let waived =
        "fn f() { let mut rng = rand::thread_rng(); } // iprism-lint: allow(no-unseeded-rng)\n";
    assert!(fired(SIM_PATH, waived).is_empty());
}

// ------------------------------------------------------------- units: params

#[test]
fn raw_f64_param_fires_on_dimensioned_names() {
    let bad = "pub fn step(dt: f64, heading: f64) {}\n";
    let rules = fired(DYN_PATH, bad);
    assert_eq!(
        rules.iter().filter(|r| **r == Rule::RawF64Param).count(),
        2,
        "got {rules:?}"
    );
    // The message names the newtype to use.
    let mut diags = diagnostics(DYN_PATH, bad);
    diags.retain(|d| d.rule == Rule::RawF64Param);
    assert!(diags[0].message.contains("Seconds"), "{}", diags[0].message);
    assert!(diags[1].message.contains("Radians"), "{}", diags[1].message);
}

#[test]
fn raw_f64_param_silent_on_newtypes_quotients_and_private_fns() {
    // Already a newtype: nothing to flag.
    assert!(fired(DYN_PATH, "pub fn step(dt: Seconds) {}\n").is_empty());
    // Unit quotients (yaw_rate, time_scale) are exempt by design.
    assert!(fired(DYN_PATH, "pub fn turn(yaw_rate: f64, time_scale: f64) {}\n").is_empty());
    // Dimensionless raw f64s are fine.
    assert!(fired(DYN_PATH, "pub fn mix(alpha: f64, weight: f64) {}\n").is_empty());
    // Private and crate-private fns are not public API.
    assert!(fired(DYN_PATH, "fn step(dt: f64) {}\n").is_empty());
    assert!(fired(DYN_PATH, "pub(crate) fn step(dt: f64) {}\n").is_empty());
    // The rule only runs in the units-API crates.
    assert!(fired(SHIM_PATH, "pub fn step(dt: f64) {}\n").is_empty());
}

#[test]
fn raw_f64_param_suppressed_by_allow() {
    let waived = "/// Documented storage-layer constructor.\n// iprism-lint: allow(raw-f64-param)\npub fn raw(dt: f64) {}\n";
    assert!(fired(DYN_PATH, waived).is_empty());
}

// ------------------------------------------------------------ units: returns

#[test]
fn raw_f64_return_fires_on_dimension_promising_names() {
    let bad = "pub fn distance(&self) -> f64 { 0.0 }\n";
    assert_eq!(fired(DYN_PATH, bad), vec![Rule::RawF64Return]);
}

#[test]
fn raw_f64_return_silent_on_newtypes_neutral_names_and_other_crates() {
    // Returning the newtype satisfies the rule.
    assert!(fired(
        DYN_PATH,
        "pub fn distance(&self) -> Meters { Meters::new(0.0) }\n"
    )
    .is_empty());
    // A name outside the return vocabulary makes no dimensional promise.
    assert!(fired(DYN_PATH, "pub fn scale(&self) -> f64 { 1.0 }\n").is_empty());
    // geom is a param-rule crate but not a return-rule crate.
    assert!(fired(GEOM_PATH, "pub fn distance(&self) -> f64 { 0.0 }\n").is_empty());
}

#[test]
fn raw_f64_return_suppressed_by_allow() {
    let waived = "// iprism-lint: allow(raw-f64-return)\npub fn distance(&self) -> f64 { 0.0 }\n";
    assert!(fired(DYN_PATH, waived).is_empty());
}

// ---------------------------------------------------------- angle conversion

#[test]
fn angle_conv_fires_outside_units_crate() {
    let bad =
        "fn f(deg: f64) -> f64 { deg.to_radians() }\nfn g(rad: f64) -> f64 { rad.to_degrees() }\n";
    let rules = fired(GEOM_PATH, bad);
    assert_eq!(
        rules
            .iter()
            .filter(|r| **r == Rule::AngleConvOutsideUnits)
            .count(),
        2,
        "got {rules:?}"
    );
}

#[test]
fn angle_conv_silent_inside_units_crate() {
    let conv = "pub fn from_degrees(deg: f64) -> Radians { Radians::new(deg.to_radians()) }\n";
    assert!(fired(UNITS_PATH, conv).is_empty());
}

#[test]
fn angle_conv_suppressed_by_allow() {
    let waived = "fn f(deg: f64) -> f64 { deg.to_radians() } // iprism-lint: allow(angle-conv-outside-units)\n";
    assert!(fired(GEOM_PATH, waived).is_empty());
}

// ---------------------------------------------------------------- NaN panics

#[test]
fn partial_cmp_unwrap_fires_everywhere() {
    let bad = "fn best(xs: &[f64]) -> f64 {\n    *xs.iter().max_by(|a, b| a.partial_cmp(b).unwrap()).unwrap()\n}\n";
    // Fires even in crates outside every other rule family...
    assert!(fired(SHIM_PATH, bad).contains(&Rule::PartialCmpUnwrap));
    // ... and `.expect(..)` is just as much of a NaN panic.
    let bad_expect = "fn f(a: f64, b: f64) { a.partial_cmp(&b).expect(\"nan\"); }\n";
    assert!(fired(SHIM_PATH, bad_expect).contains(&Rule::PartialCmpUnwrap));
}

#[test]
fn partial_cmp_silent_on_total_cmp_and_handled_none() {
    let good =
        "fn best(xs: &[f64]) -> Option<f64> {\n    xs.iter().copied().max_by(f64::total_cmp)\n}\n";
    assert!(fired(SHIM_PATH, good).is_empty());
    let handled =
        "fn f(a: f64, b: f64) -> bool { a.partial_cmp(&b) == Some(std::cmp::Ordering::Less) }\n";
    assert!(fired(SHIM_PATH, handled).is_empty());
}

#[test]
fn partial_cmp_suppressed_by_allow() {
    let waived = "// iprism-lint: allow(partial-cmp-unwrap)\nfn f(a: f64, b: f64) { a.partial_cmp(&b).unwrap(); }\n";
    assert!(fired(SHIM_PATH, waived).is_empty());
}

// ------------------------------------------------------------- float division

#[test]
fn unguarded_float_div_fires_on_parenthesized_difference() {
    let bad = "fn slope(x0: f64, x1: f64, y0: f64, y1: f64) -> f64 { (y1 - y0) / (x1 - x0) }\n";
    assert_eq!(fired(GEOM_PATH, bad), vec![Rule::UnguardedFloatDiv]);
}

#[test]
fn unguarded_float_div_silent_when_guarded_or_not_a_difference() {
    // A `.max(eps)` guard inside the divisor group.
    let guarded = "fn slope(dy: f64, x0: f64, x1: f64) -> f64 { dy / ((x1 - x0).max(1e-9)) }\n";
    assert!(fired(GEOM_PATH, guarded).is_empty());
    // Sums cannot cancel to ~0 the way differences do.
    let sum = "fn f(a: f64, b: f64, c: f64) -> f64 { a / (b + c) }\n";
    assert!(fired(GEOM_PATH, sum).is_empty());
    // Unary minus is not a difference.
    let neg = "fn f(a: f64, b: f64) -> f64 { a / (-b) }\n";
    assert!(fired(GEOM_PATH, neg).is_empty());
    // The rule only runs in the hot-path crates.
    let bad_elsewhere = "fn f(a: f64, b: f64, c: f64) -> f64 { a / (b - c) }\n";
    assert!(fired(SHIM_PATH, bad_elsewhere).is_empty());
}

#[test]
fn unguarded_float_div_suppressed_by_allow() {
    let waived = "// The denominator is proven nonzero by the caller.\n// iprism-lint: allow(unguarded-float-div)\nfn f(a: f64, b: f64, c: f64) -> f64 { a / (b - c) }\n";
    assert!(fired(GEOM_PATH, waived).is_empty());
}

// --------------------------------------------------------------- float casts

#[test]
fn float_int_cast_fires_on_unrounded_values() {
    // A float literal cast straight to int.
    let lit = "fn f() -> usize { 3.7 as usize }\n";
    assert_eq!(fired(GEOM_PATH, lit), vec![Rule::FloatIntCast]);
    // A method that definitely produces an un-rounded float.
    let sqrt = "fn f(x: f64) -> usize { (x.sqrt()) as usize }\n";
    assert_eq!(fired(GEOM_PATH, sqrt), vec![Rule::FloatIntCast]);
    // Float arithmetic inside the parenthesized operand.
    let arith = "fn f(x: f64) -> usize { (x * 0.5) as usize }\n";
    assert_eq!(fired(GEOM_PATH, arith), vec![Rule::FloatIntCast]);
}

#[test]
fn float_int_cast_silent_on_rounded_ints_and_cold_crates() {
    // Explicit rounding first: the truncation is intentional and exact.
    assert!(fired(
        GEOM_PATH,
        "fn f(x: f64) -> usize { (x.floor()) as usize }\n"
    )
    .is_empty());
    assert!(fired(GEOM_PATH, "fn f(x: f64) -> i64 { (x.round()) as i64 }\n").is_empty());
    // Integer-to-integer casts are not this rule's business.
    assert!(fired(GEOM_PATH, "fn f(n: u32) -> usize { n as usize }\n").is_empty());
    assert!(fired(
        GEOM_PATH,
        "fn f(a: u32, b: u32) -> usize { (a + b) as usize }\n"
    )
    .is_empty());
    // Int→float widening is always fine.
    assert!(fired(GEOM_PATH, "fn f(n: usize) -> f64 { n as f64 }\n").is_empty());
    // The rule only runs in the hot-path crates.
    assert!(fired(SHIM_PATH, "fn f() -> usize { 3.7 as usize }\n").is_empty());
}

#[test]
fn float_int_cast_suppressed_by_allow() {
    let waived =
        "// iprism-lint: allow(float-int-cast)\nfn f(x: f64) -> usize { (x * 0.5) as usize }\n";
    assert!(fired(GEOM_PATH, waived).is_empty());
}

// ------------------------------------------------------------ episode engine

/// Outside every other rule family; the world-step rule still applies.
const EVAL_PATH: &str = "crates/eval/src/fixture.rs";

#[test]
fn world_step_fires_outside_sim() {
    let bad = "fn f(world: &mut World) { while !done { world.step(control); } }\n";
    assert_eq!(fired(EVAL_PATH, bad), vec![Rule::WorldStepOutsideSim]);
    // Derived bindings like `final_world` count as World receivers too.
    let derived = "fn f(final_world: &mut World) { final_world.step(control); }\n";
    assert_eq!(fired(EVAL_PATH, derived), vec![Rule::WorldStepOutsideSim]);
    // The message points at the episode engine.
    let diags = diagnostics(EVAL_PATH, bad);
    assert!(diags[0].message.contains("Episode"), "{}", diags[0].message);
}

#[test]
fn world_step_silent_inside_sim_and_on_engine_stepping() {
    // The one legitimate home of the stepping loop: the sim crate itself.
    let in_sim = "fn f(world: &mut World) { world.step(control); }\n";
    assert!(fired(SIM_PATH, in_sim).is_empty());
    // Stepping through the engine (world passed as an argument) is the
    // sanctioned pattern everywhere.
    let engine = "fn f(e: &mut Episode, world: &mut World) { e.step(world, control); }\n";
    assert!(fired(EVAL_PATH, engine).is_empty());
    // Other receivers named `step` are unrelated.
    let other = "fn f(iter: &mut Stepper) { iter.step(3); }\n";
    assert!(fired(EVAL_PATH, other).is_empty());
}

#[test]
fn world_step_suppressed_by_allow() {
    let waived = "// iprism-lint: allow(world-step-outside-sim)\nfn f(world: &mut World) { world.step(control); }\n";
    assert!(fired(EVAL_PATH, waived).is_empty());
}

// ---------------------------------------------------------- panics in libs

#[test]
fn no_panic_fires_on_unwrap_expect_and_panic_macros() {
    let bad = r#"
pub mod m {
    fn f(x: Option<u32>) -> u32 { x.unwrap() }
    fn g(x: Option<u32>) -> u32 { x.expect("present") }
    fn h() { panic!("boom"); }
    fn i() { unreachable!(); }
}
"#;
    let lines: Vec<usize> = diagnostics(LIB_PATH, bad)
        .iter()
        .filter(|d| d.rule == Rule::NoPanicInLib)
        .map(|d| d.line)
        .collect();
    assert_eq!(lines, vec![3, 4, 5, 6]);
}

#[test]
fn no_panic_ignores_tests_relatives_and_non_core_crates() {
    let good = r#"
fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }
fn g(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 1) }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1u32).unwrap(); panic!("fine in tests"); }
}
"#;
    assert!(text_fired(LIB_PATH, good).is_empty());

    // Same unwrap is fine outside the numeric core crates.
    let bad_elsewhere = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert!(!text_fired(LIB_PATH, bad_elsewhere).is_empty());
    assert!(text_fired(SHIM_PATH, bad_elsewhere).is_empty());
}

#[test]
fn no_panic_ignores_strings_and_comments() {
    let good = r#"
fn f() -> &'static str {
    // calling .unwrap() here would panic!(...)
    "contains .unwrap() and panic!(text)"
}
"#;
    assert!(text_fired(LIB_PATH, good).is_empty());
}

// ---------------------------------------------------------------- float eq

#[test]
fn float_eq_fires_on_literal_and_suffix_comparisons() {
    let bad = r#"
fn f(x: f64) -> bool { x == 0.0 }
fn g(x: f64) -> bool { x != 1.5 }
fn h(x: f64, y: f64) -> bool { x as f64 == y }
"#;
    assert_eq!(
        text_fired(SHIM_PATH, bad),
        vec![Rule::NoFloatEq; 3],
        "got {:?}",
        diagnostics(SHIM_PATH, bad)
    );
    // The message quotes both operands as written.
    let diags = diagnostics(SHIM_PATH, bad);
    assert!(
        diags[2].message.contains("(`x as f64 == y`)"),
        "{}",
        diags[2].message
    );
}

#[test]
fn float_eq_ignores_ints_ranges_tuple_fields_and_tests() {
    let good = r#"
fn f(x: u32) -> bool { x == 0 }
fn g(x: usize) -> bool { x != 15 }
fn h(pair: (u32, u32)) -> bool { pair.0 == pair.1 }
fn i(x: u32) -> bool { (0..=10).contains(&x) }
fn j(a: &str) -> bool { a == "0.5" }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert!(0.5 == 0.5); }
}
"#;
    assert!(
        text_fired(SHIM_PATH, good).is_empty(),
        "got {:?}",
        diagnostics(SHIM_PATH, good)
    );
}

// --------------------------------------------------------------- wall clock

#[test]
fn wallclock_fires_only_in_sim_code() {
    let bad = r#"
fn now() -> std::time::Instant { std::time::Instant::now() }
fn stamp() -> std::time::SystemTime { std::time::SystemTime::now() }
"#;
    let fired = text_fired(SIM_PATH, bad);
    assert!(
        fired
            .iter()
            .filter(|r| **r == Rule::NoWallclockInSim)
            .count()
            >= 2,
        "got {fired:?}"
    );
    // The identical code is allowed outside sim/scenario crates.
    assert!(text_fired(LIB_PATH, bad)
        .iter()
        .all(|r| *r != Rule::NoWallclockInSim));
}

#[test]
fn wallclock_fires_on_entropy_rngs() {
    // An entropy RNG in sim code is reported once, by the determinism rule
    // that covers sim, scenarios, reach and risk alike.
    let bad = "fn f() { let _r = rand::thread_rng(); }\n";
    assert_eq!(all_fired(SIM_PATH, bad), vec![Rule::NoUnseededRng]);
    let good = "fn f(seed: u64) { let _r = SmallRng::seed_from_u64(seed); }\n";
    assert!(all_fired(SIM_PATH, good).is_empty());
}

/// Each pair of rules that meet on one token covers a case the other
/// misses: the per-file rules police unmarked code in their crates, the
/// hot-path rules marked fns anywhere.
#[test]
fn overlapping_rules_fire_once_each() {
    let nn = "crates/nn/src/fixture.rs";
    let clock = "fn f() -> u64 {\n    let t = Instant::now();\n    0\n}\n";
    assert_eq!(all_fired(SIM_PATH, clock), vec![Rule::NoWallclockInSim]);
    let marked_clock = format!("// iprism: hot-path(deterministic)\n{clock}");
    assert_eq!(all_fired(nn, &marked_clock), vec![Rule::HotPathNondet]);

    let unwrap = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    assert_eq!(all_fired(SIM_PATH, unwrap), vec![Rule::NoPanicInLib]);
    let marked_unwrap = format!("// iprism: hot-path(no-panic)\n{unwrap}");
    assert_eq!(all_fired(nn, &marked_unwrap), vec![Rule::HotPathPanic]);
}

// --------------------------------------------------------------- doc coverage

#[test]
fn pub_fn_docs_fires_on_undocumented_public_fns() {
    let bad = "pub fn naked() {}\n";
    assert_eq!(text_fired(SHIM_PATH, bad), vec![Rule::PubFnDocs]);

    let bad_with_attr = "#[inline]\npub fn naked() {}\n";
    assert_eq!(text_fired(SHIM_PATH, bad_with_attr), vec![Rule::PubFnDocs]);
}

#[test]
fn pub_fn_docs_accepts_documented_restricted_and_test_fns() {
    let good = r#"
/// Documented.
pub fn documented() {}

/// Documented, with attributes between doc and fn.
#[inline]
#[must_use]
pub const fn documented_const() -> u32 { 0 }

pub(crate) fn crate_private() {}

fn private() {}

#[cfg(test)]
mod tests {
    pub fn helper_inside_tests() {}
}
"#;
    assert!(
        text_fired(SHIM_PATH, good).is_empty(),
        "got {:?}",
        diagnostics(SHIM_PATH, good)
    );
}

// ----------------------------------------------------------------- machinery

#[test]
fn rules_never_fire_inside_strings_or_comments() {
    let good = r#"
fn f() -> &'static str {
    // HashMap, thread_rng() and 3.7 as usize in a comment are fine
    "HashMap thread_rng to_radians partial_cmp(x).unwrap()"
}
"#;
    assert!(fired(SIM_PATH, good).is_empty());
    assert!(fired(GEOM_PATH, good).is_empty());
}

#[test]
fn allow_all_suppresses_every_rule() {
    let waived = "// iprism-lint: allow(all)\nuse std::collections::HashMap;\n";
    assert!(fired(SIM_PATH, waived).is_empty());
}

#[test]
fn allow_does_not_leak_past_the_next_code_line() {
    let too_far =
        "// iprism-lint: allow(no-hash-collections)\nfn ok() {}\nuse std::collections::HashMap;\n";
    // The use on line 3 still fires — and the directive, binding only to
    // line 2 where nothing can fire, is reported dead by the audit.
    assert_eq!(
        fired(SIM_PATH, too_far),
        vec![Rule::DeadWaiver, Rule::NoHashCollections]
    );
}

#[test]
fn allow_directive_suppresses_on_same_and_next_line() {
    let same_line =
        "fn f(x: Option<u32>) -> u32 { x.unwrap() } // iprism-lint: allow(no-panic-in-lib)\n";
    assert!(text_fired(LIB_PATH, same_line).is_empty());

    let line_above = r#"
// Justification for the waiver.
// iprism-lint: allow(no-panic-in-lib)
fn f(x: Option<u32>) -> u32 { x.unwrap() }
"#;
    assert!(text_fired(LIB_PATH, line_above).is_empty());

    // The waiver names a different rule: the finding stands.
    let wrong_rule = r#"
// iprism-lint: allow(no-float-eq)
fn f(x: Option<u32>) -> u32 { x.unwrap() }
"#;
    assert_eq!(text_fired(LIB_PATH, wrong_rule), vec![Rule::NoPanicInLib]);

    // And it does not leak past the next code line.
    let too_far = r#"
// iprism-lint: allow(no-panic-in-lib)
fn ok() {}
fn f(x: Option<u32>) -> u32 { x.unwrap() }
"#;
    assert_eq!(text_fired(LIB_PATH, too_far), vec![Rule::NoPanicInLib]);
}

#[test]
fn diagnostics_carry_line_col_and_rule_name() {
    let bad = "fn f() {\n    let m: HashMap<u32, u32> = HashMap::new();\n}\n";
    let diags = diagnostics(SIM_PATH, bad);
    assert_eq!(diags.len(), 2);
    assert_eq!((diags[0].line, diags[0].col), (2, 12));
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("crates/sim/src/fixture.rs:2:12: [no-hash-collections]"),
        "{rendered}"
    );
    // The line-oriented rules report a column too.
    let bad = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    let diags = diagnostics(LIB_PATH, bad);
    assert_eq!(diags.len(), 1);
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("crates/risk/src/fixture.rs:2:7: [no-panic-in-lib]"),
        "{rendered}"
    );
}

#[test]
fn json_report_is_well_formed() {
    let json = lint_sources(&[(SIM_PATH, "use std::collections::HashMap;\n")]).to_json();
    assert!(
        json.starts_with(r#"{"schema_version":4,"files_checked":1,"#),
        "{json}"
    );
    assert!(json.contains(r#""violations":[{"path":"crates/sim/src/fixture.rs","#));
    assert!(json.contains(r#""rule":"no-hash-collections""#));
    assert!(json.contains(r#""line":1"#));
    assert_eq!(
        Report::default().to_json(),
        r#"{"schema_version":4,"files_checked":0,"functions":0,"edges":0,"unresolved_edges":0,"hot_path_markers":0,"flow_functions":0,"violations":[]}"#
    );
}

/// One finding from each rule family: a text rule and a structural token
/// rule in sim code, a flow rule in reach code, a graph rule in nn code.
const SNAPSHOT_SOURCES: [(&str, &str); 3] = [
    (
        SIM_PATH,
        "use std::collections::HashMap;\n\nfn stamp() -> u64 {\n    let t = Instant::now();\n    0\n}\n",
    ),
    (
        "crates/reach/src/fixture.rs",
        "/// Metres plus seconds.\npub fn seeded_mixed(d: Meters, t: Seconds) -> f64 {\n    d.get() + t.get()\n}\n",
    ),
    (
        "crates/nn/src/fixture.rs",
        "// iprism: hot-path(no-alloc)\nfn hot(n: usize) -> Vec<u8> {\n    Vec::with_capacity(n)\n}\n",
    ),
];

/// Exact golden snapshot of the one report: the schema version, headline
/// counts, field order, escaping and sorting are all pinned; any
/// byte-level drift in the CI contract fails here first.
#[test]
fn one_report_snapshot() {
    assert_eq!(
        lint_sources(&SNAPSHOT_SOURCES).to_json(),
        concat!(
            r#"{"schema_version":4,"files_checked":3,"functions":3,"edges":0,"unresolved_edges":4,"hot_path_markers":1,"flow_functions":3,"violations":["#,
            r#"{"path":"crates/nn/src/fixture.rs","line":2,"col":4,"rule":"hot-path-alloc","message":"`hot` is marked hot-path(no-alloc) but reaches an allocation: hot: alloc via `Vec::with_capacity(..)` at crates/nn/src/fixture.rs:3:10"},"#,
            r#"{"path":"crates/reach/src/fixture.rs","line":3,"col":13,"rule":"unit-mixed-dim","message":"mixed-dimension arithmetic: length (m) + time (s); convert through the iprism-units newtypes first"},"#,
            r#"{"path":"crates/sim/src/fixture.rs","line":1,"col":23,"rule":"no-hash-collections","message":"`HashMap` in determinism-critical code: iteration order varies between runs; use `BTreeMap` (ordered) instead"},"#,
            r#"{"path":"crates/sim/src/fixture.rs","line":4,"col":13,"rule":"no-wallclock-in-sim","message":"`Instant` in simulation code; sims must be deterministic — use the step counter and seeded RNGs"}]}"#,
        )
    );
}

#[test]
fn json_report_sorts_diagnostics_by_position() {
    // Two violations emitted out of positional order across the file; the
    // report must serialize them (line 1, then line 2) regardless.
    let bad = "use std::collections::HashMap;\nuse std::collections::HashSet;\n";
    let json = lint_sources(&[(SIM_PATH, bad)]).to_json();
    let first = json.find(r#""line":1"#).expect("line-1 diagnostic present");
    let second = json.find(r#""line":2"#).expect("line-2 diagnostic present");
    assert!(first < second, "diagnostics must be sorted by position");
}

// ---------------------------------------------------------------- dead-waiver

#[test]
fn dead_waiver_fires_when_the_named_rule_cannot_fire() {
    let src = "// iprism-lint: allow(no-hash-collections)\nfn f() -> u32 {\n    1\n}\n";
    assert_eq!(fired(SIM_PATH, src), vec![Rule::DeadWaiver]);
}

#[test]
fn live_ast_waiver_is_silent() {
    let src = "// iprism-lint: allow(no-hash-collections)\nuse std::collections::HashMap;\n";
    assert!(fired(SIM_PATH, src).is_empty());
}

#[test]
fn waiver_of_a_live_text_rule_is_not_dead() {
    // `no-panic-in-lib` is a text-pass rule; the audit must consult the
    // text rules too before declaring a directive dead.
    let src = "fn f() {\n    // iprism-lint: allow(no-panic-in-lib)\n    panic!(\"boom\");\n}\n";
    assert!(fired(SIM_PATH, src).is_empty());
}

#[test]
fn dead_waiver_is_suppressed_by_its_own_allow() {
    let src =
        "// iprism-lint: allow(no-hash-collections, dead-waiver)\nfn f() -> u32 {\n    1\n}\n";
    assert!(fired(SIM_PATH, src).is_empty());
}

#[test]
fn prose_mentioning_allow_is_not_audited() {
    // Doc comments and placeholder syntax (`<rule>`) are prose, not
    // directives; neither may produce a dead-waiver diagnostic.
    let src = "/// Suppress with `iprism-lint: allow(no-float-eq)`.\n\
               // e.g. write `iprism-lint: allow(<rule>)` above the line\n\
               fn f() -> u32 {\n    1\n}\n";
    assert!(fired(SIM_PATH, src).is_empty());
}

#[test]
fn classification_matches_the_crate_map() {
    // Test/bench files are skipped entirely.
    assert!(classify("tests/end_to_end.rs").is_none());
    assert!(classify("crates/bench/benches/sti.rs").is_none());
    assert!(classify("crates/sim/tests/determinism.rs").is_none());
    assert!(classify("xtask/tests/ast_rules.rs").is_none());
    assert!(classify("crates/risk/src/sti.rs").is_some());

    let sim = classify("crates/sim/src/world.rs").unwrap();
    assert!(sim.panic_banned && sim.wallclock_banned);
    assert!(sim.determinism && !sim.hot_path && !sim.units_param_api);
    assert!(!sim.world_step, "sim owns the stepping loop");

    let shim = classify("shims/rand/src/lib.rs").unwrap();
    assert!(!shim.panic_banned && !shim.wallclock_banned && !shim.determinism);

    let eval = classify("crates/eval/src/mitigation.rs").unwrap();
    assert!(eval.world_step && !eval.determinism);

    let geom = classify("crates/geom/src/vec2.rs").unwrap();
    assert!(geom.hot_path && geom.units_param_api && !geom.units_return_api);

    let dynamics = classify("crates/dynamics/src/bicycle.rs").unwrap();
    assert!(dynamics.units_param_api && dynamics.units_return_api && dynamics.hot_path);

    let reach = classify("crates/reach/src/compute.rs").unwrap();
    assert!(reach.determinism && reach.units_param_api && reach.units_return_api);

    let units = classify("crates/units/src/lib.rs").unwrap();
    assert!(units.units_crate);

    let every_rule_name_roundtrips = ALL_RULES
        .iter()
        .all(|r| Rule::from_name(r.name()) == Some(*r));
    assert!(every_rule_name_roundtrips);
}
