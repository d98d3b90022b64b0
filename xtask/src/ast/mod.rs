//! The rule namespace of the lint pass: one [`Rule`] enum, one
//! [`Diagnostic`] type, one path classifier and one waiver parser and
//! dead-waiver audit, shared by every rule family.
//!
//! The families are modules of their own: the token rules in [`rules`]
//! (text-level checks such as `no-panic-in-lib`, and structural checks such
//! as `raw-f64-param`), the call-graph certification of hot-path markers in
//! [`graph`] (fed by [`extract`]), and the dataflow rules in [`flow`] (over
//! the CFGs of [`cfg`]). All of them read one [`lexer::Lexed`] per file.
//!
//! The rule catalogue, per-crate scoping, message format and the JSON
//! output schema are documented in `docs/STATIC_ANALYSIS.md`. Any finding
//! is waived with a justifying `// iprism-lint: allow(<rule>)` comment on
//! or directly above the line.

pub mod cfg;
pub mod extract;
pub mod flow;
pub mod graph;
pub mod lexer;
pub mod rules;

use std::ops::Range;

use extract::HotProp;
use lexer::Lexed;

/// Version stamp embedded in every JSON lint report so CI consumers can
/// detect format changes. Bump whenever the report shape changes.
///
/// v4: one pass, one report; the call-graph and dataflow headline counts
/// sit side by side in the one envelope.
pub const SCHEMA_VERSION: u32 = 4;

/// The rules enforced by `cargo xtask lint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!` in non-test
    /// library code of the numeric core crates.
    NoPanicInLib,
    /// No `==`/`!=` on floating-point operands outside tests.
    NoFloatEq,
    /// No wall-clock time in sim/scenario code.
    NoWallclockInSim,
    /// Every `pub fn` carries a doc comment.
    PubFnDocs,
    /// No `HashMap`/`HashSet` in determinism-critical crates: iteration
    /// order varies run to run.
    NoHashCollections,
    /// No OS-entropy RNGs (`thread_rng`, `from_entropy`, `OsRng`) in
    /// determinism-critical crates.
    NoUnseededRng,
    /// Public fns in the units-API crates must not take raw `f64` for
    /// physically-dimensioned parameters; use `iprism-units` newtypes.
    RawF64Param,
    /// Public fns in dynamics/reach whose names promise a dimensioned
    /// quantity must not return raw `f64`.
    RawF64Return,
    /// `to_radians`/`to_degrees` only inside `crates/units`.
    AngleConvOutsideUnits,
    /// `partial_cmp(..).unwrap()` panics on NaN; use `total_cmp`.
    PartialCmpUnwrap,
    /// Division by an unguarded parenthesized difference (`a / (b - c)`).
    UnguardedFloatDiv,
    /// Float→int `as` cast without an explicit rounding step.
    FloatIntCast,
    /// Manual `world.step(...)` calls outside `crates/sim`: stepping a
    /// `World` by hand bypasses the episode engine (outcome detection,
    /// tracing, observers); drive episodes through `iprism_sim::Episode`
    /// or `run_episode` instead.
    WorldStepOutsideSim,
    /// A fn marked `hot-path(no-panic)` transitively reaches a panic
    /// (`panic!`, `.unwrap()`, `assert!`, slice indexing). Graph rule.
    HotPathPanic,
    /// A fn marked `hot-path(no-alloc)` transitively reaches a heap
    /// allocation (`Vec::push`, `collect`, `format!`, ...). Graph rule.
    HotPathAlloc,
    /// A fn marked `hot-path(deterministic)` transitively reaches a
    /// nondeterminism source (wallclock, unseeded RNG, hash iteration).
    /// Graph rule.
    HotPathNondet,
    /// A malformed or dangling `// iprism: hot-path(...)` marker. Graph
    /// rule.
    HotPathMarker,
    /// Add/sub of two locals whose inferred physical dimensions differ
    /// (meters + seconds, radians + degrees, ...). Flow rule.
    UnitMixedDim,
    /// A raw `f64` that escaped one unit newtype (`.get()`/`.0`) re-enters
    /// a constructor of a *different* dimension unconverted. Flow rule.
    UnitRawReentry,
    /// Trigonometry on a value whose inferred dimension is not an angle in
    /// radians (degrees, or a non-angle quantity). Flow rule.
    UnitAngleRaw,
    /// Order-sensitive float accumulation in a parallel context: `+=` on
    /// captured state inside a parallel closure, or a reduction chained
    /// straight off a `par_iter` without an ordered collect. Flow rule.
    ParFloatAccum,
    /// Shared-mutable access (`.lock()`, `.borrow_mut()`, atomic writes)
    /// inside a closure handed to a parallel entry point. Flow rule.
    ParSharedMut,
    /// Iteration over an unordered hash collection feeding a reduction or
    /// collect. Flow rule.
    UnorderedReduce,
    /// A name in an `iprism-lint: allow(...)` directive that suppresses
    /// nothing.
    DeadWaiver,
}

/// All rules, in reporting order.
pub const ALL_RULES: [Rule; 24] = [
    Rule::NoPanicInLib,
    Rule::NoFloatEq,
    Rule::NoWallclockInSim,
    Rule::PubFnDocs,
    Rule::NoHashCollections,
    Rule::NoUnseededRng,
    Rule::RawF64Param,
    Rule::RawF64Return,
    Rule::AngleConvOutsideUnits,
    Rule::PartialCmpUnwrap,
    Rule::UnguardedFloatDiv,
    Rule::FloatIntCast,
    Rule::WorldStepOutsideSim,
    Rule::HotPathPanic,
    Rule::HotPathAlloc,
    Rule::HotPathNondet,
    Rule::HotPathMarker,
    Rule::UnitMixedDim,
    Rule::UnitRawReentry,
    Rule::UnitAngleRaw,
    Rule::ParFloatAccum,
    Rule::ParSharedMut,
    Rule::UnorderedReduce,
    Rule::DeadWaiver,
];

impl Rule {
    /// The kebab-case name used in diagnostics and `allow(...)` directives.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoPanicInLib => "no-panic-in-lib",
            Rule::NoFloatEq => "no-float-eq",
            Rule::NoWallclockInSim => "no-wallclock-in-sim",
            Rule::PubFnDocs => "pub-fn-docs",
            Rule::NoHashCollections => "no-hash-collections",
            Rule::NoUnseededRng => "no-unseeded-rng",
            Rule::RawF64Param => "raw-f64-param",
            Rule::RawF64Return => "raw-f64-return",
            Rule::AngleConvOutsideUnits => "angle-conv-outside-units",
            Rule::PartialCmpUnwrap => "partial-cmp-unwrap",
            Rule::UnguardedFloatDiv => "unguarded-float-div",
            Rule::FloatIntCast => "float-int-cast",
            Rule::WorldStepOutsideSim => "world-step-outside-sim",
            Rule::HotPathPanic => "hot-path-panic",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::HotPathNondet => "hot-path-nondet",
            Rule::HotPathMarker => "hot-path-marker",
            Rule::UnitMixedDim => "unit-mixed-dim",
            Rule::UnitRawReentry => "unit-raw-reentry",
            Rule::UnitAngleRaw => "unit-angle-raw",
            Rule::ParFloatAccum => "par-float-accum",
            Rule::ParSharedMut => "par-shared-mut",
            Rule::UnorderedReduce => "unordered-reduce",
            Rule::DeadWaiver => "dead-waiver",
        }
    }

    /// Parses a rule name as written inside `allow(...)`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }

    /// Rules that also fire inside `macro_rules!` bodies: a panic, float
    /// comparison, clock or entropy source in a template lands in every
    /// expansion. The structural rules skip macro bodies, which are not
    /// items.
    #[must_use]
    pub fn fires_in_macro_bodies(self) -> bool {
        matches!(
            self,
            Rule::NoPanicInLib | Rule::NoFloatEq | Rule::NoWallclockInSim | Rule::NoUnseededRng
        )
    }
}

/// A single lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based character column.
    pub col: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path,
            self.line,
            self.col,
            self.rule.name(),
            self.message
        )
    }
}

impl Diagnostic {
    /// Renders the diagnostic as a JSON object (hand-rolled: xtask has no
    /// dependencies).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"path":{},"line":{},"col":{},"rule":{},"message":{}}}"#,
            json_string(&self.path),
            self.line,
            self.col,
            json_string(self.rule.name()),
            json_string(&self.message)
        )
    }
}

/// Quotes and escapes `s` as a JSON string literal.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Which rule families apply to a file (decided from its path).
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// A numeric core crate: library code must not panic (reach/risk math
    /// must degrade gracefully, not abort the vehicle stack).
    pub panic_banned: bool,
    /// Sim/scenario code: no wall-clock time.
    pub wallclock_banned: bool,
    /// Determinism-critical: reach/risk math and everything the simulator
    /// replays must be bit-reproducible across runs.
    pub determinism: bool,
    /// Public fns must take unit newtypes for physical parameters.
    pub units_param_api: bool,
    /// Public fns with dimension-promising names must return unit newtypes.
    pub units_return_api: bool,
    /// Hot numeric paths: NaN-hygiene rules (division, casts) apply.
    pub hot_path: bool,
    /// The units layer itself (angle conversions are allowed here).
    pub units_crate: bool,
    /// Outside `crates/sim`: episodes must be stepped through the episode
    /// engine, never via manual `world.step(...)` loops.
    pub world_step: bool,
}

/// Crates whose library code must never panic.
const PANIC_BANNED_CRATES: [&str; 6] = [
    "crates/geom/",
    "crates/dynamics/",
    "crates/reach/",
    "crates/risk/",
    "crates/sim/",
    "crates/core/",
];

/// Crates whose code must not read the wall clock.
const WALLCLOCK_BANNED_CRATES: [&str; 2] = ["crates/sim/", "crates/scenarios/"];

/// Crates whose iteration order and entropy sources must be deterministic.
const DETERMINISM_CRATES: [&str; 4] = [
    "crates/sim/",
    "crates/scenarios/",
    "crates/reach/",
    "crates/risk/",
];

/// Crates whose public fn *parameters* must use unit newtypes.
const UNITS_PARAM_CRATES: [&str; 3] = ["crates/dynamics/", "crates/geom/", "crates/reach/"];

/// Crates whose public fn *returns* must use unit newtypes.
const UNITS_RETURN_CRATES: [&str; 2] = ["crates/dynamics/", "crates/reach/"];

/// Hot numeric paths where the NaN-hygiene rules apply.
const HOT_PATH_CRATES: [&str; 4] = [
    "crates/geom/",
    "crates/dynamics/",
    "crates/reach/",
    "crates/risk/",
];

/// Decides which rule families apply to `rel_path` (workspace relative,
/// forward slashes); `None` means the file is skipped entirely (test
/// binaries, benches, examples, fixtures, build scripts).
#[must_use]
pub fn classify(rel_path: &str) -> Option<FileClass> {
    let skip = rel_path.starts_with("tests/")
        || rel_path.contains("/tests/")
        || rel_path.starts_with("benches/")
        || rel_path.contains("/benches/")
        || rel_path.contains("/examples/")
        || rel_path.contains("/fixtures/")
        || rel_path.ends_with("build.rs")
        || rel_path.starts_with("target/")
        || rel_path.contains("/target/");
    if skip {
        return None;
    }
    let starts = |prefixes: &[&str]| prefixes.iter().any(|p| rel_path.starts_with(p));
    Some(FileClass {
        panic_banned: starts(&PANIC_BANNED_CRATES),
        wallclock_banned: starts(&WALLCLOCK_BANNED_CRATES),
        determinism: starts(&DETERMINISM_CRATES),
        units_param_api: starts(&UNITS_PARAM_CRATES),
        units_return_api: starts(&UNITS_RETURN_CRATES),
        hot_path: starts(&HOT_PATH_CRATES),
        units_crate: rel_path.starts_with("crates/units/"),
        world_step: !rel_path.starts_with("crates/sim/"),
    })
}

/// The `// iprism-lint: allow(<rule>, ...)` directives of one file, parsed
/// once. A directive waives its rules on its own line and, when it stands
/// on a comment-only line, down through the comment run to the first line
/// that is not comment-only. Directives inside test items are ignored, like
/// the test code itself.
#[derive(Debug, Clone)]
pub struct Waivers {
    /// Per 0-based line, the names its directive lists, each with its
    /// 0-based char column.
    names: Vec<Vec<(usize, String)>>,
    /// Per line, `true` when it holds a comment and no code.
    comment_only: Vec<bool>,
}

impl Waivers {
    /// Parses every directive of `file`.
    #[must_use]
    pub fn parse(file: &Lexed) -> Waivers {
        let names = file
            .comments
            .iter()
            .zip(&file.test)
            .map(|(comment, &test)| {
                if test {
                    Vec::new()
                } else {
                    parse_directive(comment)
                }
            })
            .collect();
        let comment_only = (0..file.lines.len())
            .map(|idx| file.comment_only(idx))
            .collect();
        Waivers {
            names,
            comment_only,
        }
    }

    /// Is `rule` waived on 0-based line `idx`: by a directive on that line,
    /// or on the contiguous run of comment-only lines directly above?
    #[must_use]
    pub fn allowed(&self, idx: usize, rule: Rule) -> bool {
        let waives = |l: usize| {
            self.names[l]
                .iter()
                .any(|(_, n)| n == "all" || n == rule.name())
        };
        waives(idx)
            || (0..idx)
                .rev()
                .take_while(|&l| self.comment_only[l])
                .any(waives)
    }

    /// The 0-based lines a directive on line `idx` waives (see
    /// [`Waivers::allowed`]).
    fn covered(&self, idx: usize) -> Range<usize> {
        let mut end = idx + 1;
        if self.comment_only[idx] {
            while end < self.comment_only.len() && self.comment_only[end] {
                end += 1;
            }
            end = (end + 1).min(self.comment_only.len());
        }
        idx..end
    }
}

/// Is this comment text a doc comment (`///`, `//!`, `/**`, `/*!`)?
/// Directives and markers in docs are prose, not policy.
pub(crate) fn is_doc_comment(comment: &str) -> bool {
    let t = comment.trim_start();
    ["///", "//!", "/**", "/*!"]
        .iter()
        .any(|d| t.starts_with(d))
}

/// Parses the `iprism-lint: allow(...)` directive in one line's comment
/// text into its names (including `all` and names that match no rule: the
/// audit reports those) and their 0-based char columns.
fn parse_directive(comment: &str) -> Vec<(usize, String)> {
    if is_doc_comment(comment) {
        return Vec::new();
    }
    let args = comment.find("iprism-lint:").and_then(|pos| {
        let start = pos + comment[pos..].find("allow(")? + "allow(".len();
        Some(start..start + comment[start..].find(')')?)
    });
    let Some(args) = args else {
        return Vec::new();
    };
    let mut names = Vec::new();
    let mut at = args.start;
    for raw in comment[args].split(',') {
        let name = raw.trim();
        if !name.is_empty() {
            let byte = at + raw.len() - raw.trim_start().len();
            names.push((comment[..byte].chars().count(), name.to_string()));
        }
        at += raw.len() + 1;
    }
    names
}

/// The one dead-waiver audit: every name in every directive must suppress
/// something on the lines the directive covers. `raw` holds the file's
/// pre-waiver findings. The three hot-path taint rules waive sources and
/// call edges, not findings, so `hot_live` answers for them: is there a
/// matching source (waived or not) or a call edge into a callee tainted
/// with that property on those lines?
pub(crate) fn audit(
    path: &str,
    waivers: &Waivers,
    raw: &[Diagnostic],
    hot_live: impl Fn(Range<usize>, HotProp) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    for (idx, names) in waivers.names.iter().enumerate() {
        let covered = waivers.covered(idx);
        let live = |rule: Rule| match HotProp::from_rule(rule) {
            Some(prop) => hot_live(covered.clone(), prop),
            None => raw
                .iter()
                .any(|d| d.rule == rule && covered.contains(&(d.line - 1))),
        };
        for (col, name) in names {
            // `dead-waiver` silences this audit rather than a finding, and
            // placeholder prose (`allow(<rule>)`, `allow(...)`) names no rule.
            let rule_syntax = name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-');
            if name == "dead-waiver" || !rule_syntax {
                continue;
            }
            let is_live = if name == "all" {
                ALL_RULES.into_iter().any(live)
            } else {
                Rule::from_name(name).is_some_and(live)
            };
            if !is_live && !waivers.allowed(idx, Rule::DeadWaiver) {
                out.push(Diagnostic {
                    path: path.to_string(),
                    line: idx + 1,
                    col: col + 1,
                    rule: Rule::DeadWaiver,
                    message: format!(
                        "waived rule `{name}` suppresses nothing here; remove it or fix \
                         the rule list"
                    ),
                });
            }
        }
    }
}
