//! Fixture and golden tests for the call-graph rules.
//!
//! Convention mirrors `ast_rules.rs`: every graph rule gets a firing, a
//! silent and a suppressed fixture. Fixtures are multi-file so each taint
//! is proven through a real (≥ 2-edge) cross-file call chain, and the
//! golden tests run the whole pass over the actual workspace tree.

use xtask::ast::extract::{extract_file, CallTarget, FileExtract, FnDef};
use xtask::ast::{lexer::lex, Waivers};
use xtask::{build_workspace_graph, lint_sources, run_lint, Diagnostic, Rule};

/// The graph rules and the waiver audit; fixtures here ignore the token
/// rules (an undocumented `pub fn leaf` is beside the point).
const GRAPH_RULES: [Rule; 5] = [
    Rule::HotPathPanic,
    Rule::HotPathAlloc,
    Rule::HotPathNondet,
    Rule::HotPathMarker,
    Rule::DeadWaiver,
];

fn graph_findings(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
    let mut diags = lint_sources(sources).diagnostics;
    diags.retain(|d| GRAPH_RULES.contains(&d.rule));
    diags
}

/// Graph rules fired by a fixture set, in reporting order.
fn fired(sources: &[(&str, &str)]) -> Vec<Rule> {
    graph_findings(sources).iter().map(|d| d.rule).collect()
}

fn first_message(sources: &[(&str, &str)]) -> String {
    graph_findings(sources)
        .first()
        .map(|d| d.message.clone())
        .unwrap_or_default()
}

fn extract(path: &str, src: &str) -> FileExtract {
    let file = lex(src);
    extract_file(path, &file, &Waivers::parse(&file), &mut Vec::new())
}

// ---------------------------------------------------------------- hot-path-alloc

const ALLOC_ROOT: &str = "\
// iprism: hot-path(no-alloc)
pub fn root() -> usize {
    middle()
}

fn middle() -> usize {
    leaf()
}
";

#[test]
fn alloc_taint_fires_through_a_two_edge_chain() {
    let leaf =
        "pub fn leaf() -> usize {\n    let mut v = Vec::new();\n    v.push(1);\n    v.len()\n}\n";
    let sources = [
        ("crates/a/src/lib.rs", ALLOC_ROOT),
        ("crates/b/src/lib.rs", leaf),
    ];
    assert_eq!(fired(&sources), vec![Rule::HotPathAlloc]);
    let msg = first_message(&sources);
    assert!(msg.contains("root → middle → leaf"), "chain missing: {msg}");
    assert!(msg.contains("alloc via"), "source missing: {msg}");
    assert!(
        msg.contains("crates/b/src/lib.rs:"),
        "location missing: {msg}"
    );
}

#[test]
fn alloc_taint_is_silent_without_a_source() {
    let leaf = "pub fn leaf() -> usize {\n    40 + 2\n}\n";
    assert!(fired(&[
        ("crates/a/src/lib.rs", ALLOC_ROOT),
        ("crates/b/src/lib.rs", leaf)
    ])
    .is_empty());
}

#[test]
fn alloc_taint_is_suppressed_by_a_source_waiver() {
    let leaf = "pub fn leaf() -> usize {\n    let mut v = Vec::new(); // iprism-lint: allow(hot-path-alloc) — test scratch\n    v.push(1); // iprism-lint: allow(hot-path-alloc) — test scratch\n    v.len()\n}\n";
    assert!(fired(&[
        ("crates/a/src/lib.rs", ALLOC_ROOT),
        ("crates/b/src/lib.rs", leaf)
    ])
    .is_empty());
}

#[test]
fn alloc_taint_is_suppressed_by_an_edge_waiver() {
    let root = "\
// iprism: hot-path(no-alloc)
pub fn root() -> usize {
    // iprism-lint: allow(hot-path-alloc) — cold init edge
    middle()
}

fn middle() -> usize {
    leaf()
}
";
    let leaf =
        "pub fn leaf() -> usize {\n    let mut v = Vec::new();\n    v.push(1);\n    v.len()\n}\n";
    assert!(fired(&[("crates/a/src/lib.rs", root), ("crates/b/src/lib.rs", leaf)]).is_empty());
}

// ---------------------------------------------------------------- hot-path-panic

const PANIC_ROOT: &str = "\
// iprism: hot-path(no-panic)
pub fn root(xs: &[f64]) -> f64 {
    middle(xs)
}

fn middle(xs: &[f64]) -> f64 {
    leaf(xs)
}
";

#[test]
fn panic_taint_fires_through_a_two_edge_chain() {
    let leaf = "pub fn leaf(xs: &[f64]) -> f64 {\n    xs.first().copied().unwrap()\n}\n";
    let sources = [
        ("crates/a/src/lib.rs", PANIC_ROOT),
        ("crates/b/src/lib.rs", leaf),
    ];
    assert_eq!(fired(&sources), vec![Rule::HotPathPanic]);
    let msg = first_message(&sources);
    assert!(msg.contains("root → middle → leaf"), "chain missing: {msg}");
    assert!(
        msg.contains("panic via `.unwrap(..)`"),
        "source missing: {msg}"
    );
}

#[test]
fn indexing_counts_as_a_panic_source() {
    let leaf = "pub fn leaf(xs: &[f64]) -> f64 {\n    xs[0]\n}\n";
    let sources = [
        ("crates/a/src/lib.rs", PANIC_ROOT),
        ("crates/b/src/lib.rs", leaf),
    ];
    assert_eq!(fired(&sources), vec![Rule::HotPathPanic]);
    assert!(first_message(&sources).contains("indexing"));
}

#[test]
fn panic_taint_is_silent_on_iterator_style_code() {
    let leaf = "pub fn leaf(xs: &[f64]) -> f64 {\n    xs.iter().copied().fold(0.0, f64::max)\n}\n";
    assert!(fired(&[
        ("crates/a/src/lib.rs", PANIC_ROOT),
        ("crates/b/src/lib.rs", leaf)
    ])
    .is_empty());
}

#[test]
fn panic_taint_is_suppressed_by_a_source_waiver() {
    let leaf = "pub fn leaf(xs: &[f64]) -> f64 {\n    // iprism-lint: allow(hot-path-panic) — precondition gate\n    xs.first().copied().unwrap()\n}\n";
    assert!(fired(&[
        ("crates/a/src/lib.rs", PANIC_ROOT),
        ("crates/b/src/lib.rs", leaf)
    ])
    .is_empty());
}

// ---------------------------------------------------------------- hot-path-nondet

const NONDET_ROOT: &str = "\
// iprism: hot-path(deterministic)
pub fn root() -> f64 {
    middle()
}

fn middle() -> f64 {
    leaf()
}
";

#[test]
fn nondet_taint_fires_through_a_two_edge_chain() {
    let leaf = "pub fn leaf() -> f64 {\n    let mut rng = thread_rng();\n    rng.gen()\n}\n";
    let sources = [
        ("crates/a/src/lib.rs", NONDET_ROOT),
        ("crates/b/src/lib.rs", leaf),
    ];
    assert_eq!(fired(&sources), vec![Rule::HotPathNondet]);
    let msg = first_message(&sources);
    assert!(msg.contains("root → middle → leaf"), "chain missing: {msg}");
    assert!(
        msg.contains("nondeterminism via `thread_rng`"),
        "source missing: {msg}"
    );
}

#[test]
fn nondet_taint_is_silent_on_seeded_code() {
    let leaf = "pub fn leaf() -> f64 {\n    let mut rng = ChaCha8Rng::seed_from_u64(7);\n    rng.gen()\n}\n";
    assert!(fired(&[
        ("crates/a/src/lib.rs", NONDET_ROOT),
        ("crates/b/src/lib.rs", leaf)
    ])
    .is_empty());
}

#[test]
fn nondet_taint_is_suppressed_by_a_waiver() {
    let leaf = "pub fn leaf() -> f64 {\n    let t = Instant::now(); // iprism-lint: allow(hot-path-nondet) — test only\n    t.elapsed().as_secs_f64()\n}\n";
    assert!(fired(&[
        ("crates/a/src/lib.rs", NONDET_ROOT),
        ("crates/b/src/lib.rs", leaf)
    ])
    .is_empty());
}

// ---------------------------------------------------------------- hot-path-marker

#[test]
fn marker_with_unknown_property_fires() {
    let src = "// iprism: hot-path(no-panics)\npub fn f() -> usize {\n    1\n}\n";
    assert_eq!(
        fired(&[("crates/a/src/lib.rs", src)]),
        vec![Rule::HotPathMarker]
    );
}

#[test]
fn dangling_marker_fires() {
    let src = "// iprism: hot-path(no-alloc)\n\npub struct S;\n";
    assert_eq!(
        fired(&[("crates/a/src/lib.rs", src)]),
        vec![Rule::HotPathMarker]
    );
}

#[test]
fn well_formed_marker_is_silent_and_counted() {
    let src =
        "// iprism: hot-path(no-panic, no-alloc, deterministic)\npub fn f() -> usize {\n    1\n}\n";
    assert!(fired(&[("crates/a/src/lib.rs", src)]).is_empty());
    assert_eq!(
        lint_sources(&[("crates/a/src/lib.rs", src)]).stats.markers,
        1
    );
}

#[test]
fn marker_error_is_suppressed_by_a_waiver() {
    let src = "// iprism-lint: allow(hot-path-marker)\n// iprism: hot-path(no-panics)\npub fn f() -> usize {\n    1\n}\n";
    // The allow sits in the comment run above the fn line the marker binds
    // to; marker errors report at the marker line, which the directive run
    // covers.
    assert!(fired(&[("crates/a/src/lib.rs", src)]).is_empty());
}

// ---------------------------------------------------------------- dead-waiver (graph side)

#[test]
fn dead_marker_waiver_fires() {
    let src =
        "pub fn f(a: usize) -> usize {\n    // iprism-lint: allow(hot-path-marker)\n    a + 1\n}\n";
    assert_eq!(
        fired(&[("crates/reach/src/fixture.rs", src)]),
        vec![Rule::DeadWaiver]
    );
}

#[test]
fn dead_hot_path_waiver_fires() {
    let src = "pub fn f() -> usize {\n    // iprism-lint: allow(hot-path-alloc)\n    1 + 1\n}\n";
    assert_eq!(
        fired(&[("crates/a/src/lib.rs", src)]),
        vec![Rule::DeadWaiver]
    );
}

#[test]
fn live_hot_path_waiver_is_silent() {
    let src = "pub fn f() -> Vec<usize> {\n    // iprism-lint: allow(hot-path-alloc)\n    Vec::new()\n}\n";
    assert!(fired(&[("crates/a/src/lib.rs", src)]).is_empty());
}

#[test]
fn edge_waiver_to_a_tainted_callee_is_live() {
    let root = "\
// iprism: hot-path(no-alloc)
pub fn root() -> usize {
    // iprism-lint: allow(hot-path-alloc) — cold edge
    leaf()
}
";
    let leaf =
        "pub fn leaf() -> usize {\n    let mut v = Vec::new();\n    v.push(1);\n    v.len()\n}\n";
    assert!(fired(&[("crates/a/src/lib.rs", root), ("crates/b/src/lib.rs", leaf)]).is_empty());
}

// ---------------------------------------------------------------- extraction details

#[test]
fn extractor_models_impls_methods_and_qualified_calls() {
    let src = "\
pub struct Engine {
    state: f64,
}

impl Engine {
    pub fn new() -> Engine {
        Engine { state: 0.0 }
    }

    fn helper(&self) -> f64 {
        self.state
    }

    pub fn run(&self) -> f64 {
        self.helper()
    }
}

pub fn boot() -> f64 {
    let e = Engine::new();
    e.run()
}
";
    let ex = extract("crates/a/src/lib.rs", src);
    let names: Vec<String> = ex.fns.iter().map(FnDef::display).collect();
    assert_eq!(
        names,
        vec!["Engine::new", "Engine::helper", "Engine::run", "boot"]
    );
    assert!(ex.fns[0].is_pub && !ex.fns[0].has_self);
    assert!(!ex.fns[1].is_pub && ex.fns[1].has_self);
    assert!(ex
        .calls
        .iter()
        .any(|c| c.target == CallTarget::SelfMethod("helper".to_string())));
    assert!(ex
        .calls
        .iter()
        .any(|c| c.target == CallTarget::Typed("Engine".to_string(), "new".to_string())));
    assert!(ex
        .calls
        .iter()
        .any(|c| c.target == CallTarget::Method("run".to_string())));
}

#[test]
fn test_code_is_excluded_from_the_graph() {
    let src = "\
pub fn lib_fn() -> usize {
    1
}

#[cfg(test)]
mod tests {
    fn helper() -> usize {
        panic!(\"only in tests\")
    }

    #[test]
    fn t() {
        assert_eq!(super::lib_fn(), helper());
    }
}
";
    let ex = extract("crates/a/src/lib.rs", src);
    assert_eq!(ex.fns.len(), 1, "test fns must not be extracted");
    assert!(
        ex.sources.is_empty(),
        "test-only panics must not seed taint"
    );
}

#[test]
fn unresolved_calls_are_counted_not_dropped() {
    let src = "pub fn f() -> usize {\n    no_such_function_anywhere()\n}\n";
    let report = lint_sources(&[("crates/a/src/lib.rs", src)]);
    assert_eq!(report.stats.unresolved, 1);
}

// ---------------------------------------------------------------- golden workspace tests

// Not inside a #[test] fn, so clippy.toml's allow-expect-in-tests misses it.
#[allow(clippy::expect_used)]
fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits one level below the workspace root")
        .to_path_buf()
}

#[test]
fn golden_training_chain_resolves_end_to_end() {
    let graph = build_workspace_graph(&workspace_root()).expect("workspace walk");
    let path = graph
        .find_path("train_smc", "DdqnAgent::learn_batch")
        .expect("train_smc must reach learn_batch");
    assert_eq!(path.first().map(String::as_str), Some("train_smc"));
    assert_eq!(
        path.last().map(String::as_str),
        Some("DdqnAgent::learn_batch")
    );
    assert!(path.len() >= 3, "expected a multi-hop chain, got {path:?}");

    let tail = graph
        .find_path("DdqnAgent::learn_batch", "Mlp::forward_batch_cached")
        .expect("learn_batch must reach the batched forward pass");
    assert_eq!(
        tail.len(),
        2,
        "learn_batch calls forward_batch_cached directly: {tail:?}"
    );

    assert!(
        graph
            .find_path("Mlp::forward_batch_cached", "Linear::forward_batch_scratch")
            .is_some(),
        "the batched forward pass must reach the per-layer kernel"
    );
}

#[test]
fn library_calls_never_resolve_into_the_benchmark_package() {
    // The benchmark's `TimedEnv::step` wraps an `Instant`; library code
    // does not depend on the benchmark package, so no library call may
    // resolve into it.
    let graph = build_workspace_graph(&workspace_root()).expect("workspace walk");
    for from in ["DdqnAgent::learn_batch", "train_smc"] {
        assert_eq!(
            graph.find_path(from, "TimedEnv::step"),
            None,
            "{from} must not reach the benchmark"
        );
    }
}

/// Every public way to a reach tube, fresh, traced, derived or patched, and
/// both STI scoring paths.
const TUBE_ENTRY_POINTS: [&str; 6] = [
    "compute_reach_tube_cached",
    "compute_reach_tube_traced",
    "derive_empty_tube",
    "patch_counterfactual",
    "StiEvaluator::evaluate",
    "StiEvaluator::evaluate_combined",
];

#[test]
fn golden_sti_chain_resolves_into_the_reach_kernel() {
    let graph = build_workspace_graph(&workspace_root()).expect("workspace walk");
    for entry in TUBE_ENTRY_POINTS {
        assert!(
            graph.find_path(entry, "expand_slice").is_some(),
            "{entry} must reach the reach-expansion kernel"
        );
    }
}

#[test]
fn workspace_graph_has_plausible_shape() {
    let graph = build_workspace_graph(&workspace_root()).expect("workspace walk");
    let stats = graph.stats();
    assert!(
        stats.functions > 300,
        "expected hundreds of fns, got {}",
        stats.functions
    );
    assert!(stats.edges > stats.functions, "graph should be edge-dense");
    assert!(
        stats.unresolved > 0,
        "std calls must surface as unresolved, not vanish"
    );
}

#[test]
fn reach_kernel_certifies_with_zero_waivers() {
    // Every reach tube runs one slice kernel, which carries the full
    // hot-path contract; its certification must come from the code alone,
    // not from waivers sprinkled through the reach crate.
    let root = workspace_root();
    let marker = "// iprism: hot-path(no-panic, no-alloc, deterministic)";
    let src_dir = root.join("crates/reach/src");
    let mut marked = Vec::new();
    for entry in std::fs::read_dir(&src_dir).expect("reach sources must exist") {
        let path = entry.expect("readable dir entry").path();
        let src = std::fs::read_to_string(&path).expect("readable source");
        assert!(
            !src.contains("iprism-lint: allow"),
            "{} must certify without waivers",
            path.display()
        );
        let lines: Vec<&str> = src.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if line.trim() == marker {
                marked.push(lines.get(i + 1).copied().unwrap_or_default().to_string());
            }
        }
    }
    assert_eq!(
        marked,
        ["fn expand_slice("],
        "exactly one reach fn, the slice kernel, carries the full hot-path marker"
    );

    // golden_sti_chain_resolves_into_the_reach_kernel proves every tube
    // entry point reaches the kernel; workspace_certifies_clean proves the
    // marker holds.
}

#[test]
fn workspace_certifies_clean() {
    let report = run_lint(&workspace_root()).expect("workspace walk");
    assert!(
        report.diagnostics.is_empty(),
        "cargo xtask lint must pass on the workspace:\n{}",
        report
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.stats.files > 100,
        "expected the whole workspace, got {} files",
        report.stats.files
    );
    assert!(
        report.stats.markers >= 4,
        "the four seeded hot paths must stay marked (got {})",
        report.stats.markers
    );
    assert!(
        report.flow_functions > 500,
        "expected hundreds of analysed functions, got {}",
        report.flow_functions
    );
}
