//! Workspace automation library behind `cargo xtask`.
//!
//! The flagship task is `cargo xtask lint`, one static-analysis pass over
//! every workspace `.rs` file. It walks the tree and loads the Cargo
//! dependency closure once, lexes each file once ([`ast::lexer`]), and runs
//! every rule family over that one lex:
//!
//! * **Token rules** ([`ast::rules`]): panic and float hygiene and doc
//!   coverage (`no-panic-in-lib`, `no-float-eq`, `no-wallclock-in-sim`,
//!   `pub-fn-docs`), determinism (`no-hash-collections`,
//!   `no-unseeded-rng`), dimensional safety (`raw-f64-param`,
//!   `raw-f64-return`, `angle-conv-outside-units`), NaN hygiene
//!   (`partial-cmp-unwrap`, `unguarded-float-div`, `float-int-cast`) and
//!   `world-step-outside-sim`.
//! * **Graph rules** ([`ast::graph`]): workspace call-graph taint
//!   propagation certifying `// iprism: hot-path(...)` markers
//!   (`hot-path-panic`, `hot-path-alloc`, `hot-path-nondet`,
//!   `hot-path-marker`).
//! * **Flow rules** ([`ast::flow`]): forward dataflow over per-function
//!   CFGs, unit-dimension tracking (`unit-mixed-dim`, `unit-raw-reentry`,
//!   `unit-angle-raw`) and parallel determinism (`par-float-accum`,
//!   `par-shared-mut`, `unordered-reduce`).
//!
//! A finding can be waived with a justifying comment,
//! `// iprism-lint: allow(<rule>[, <rule>...])`, on or directly above the
//! offending line; one audit then reports every waived name that
//! suppresses nothing (`dead-waiver`). The pass prints one report. The
//! rules are documented in `docs/STATIC_ANALYSIS.md` and
//! `docs/INVARIANTS.md`.

pub mod ast;

use std::path::{Path, PathBuf};

pub use ast::graph::{build_workspace_graph, CallGraph, DepClosure, GraphStats};
pub use ast::{classify, Diagnostic, FileClass, Rule, ALL_RULES, SCHEMA_VERSION};

use ast::{extract, flow, lexer, rules, Waivers};

/// The result of one lint pass.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Call-graph headline counts; `stats.files` counts every file linted.
    pub stats: GraphStats,
    /// Functions whose bodies the flow rules analysed.
    pub flow_functions: usize,
    /// Every finding, sorted by `(path, line, col, rule)`.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Renders the report as one JSON document: the headline counts, then
    /// the findings.
    #[must_use]
    pub fn to_json(&self) -> String {
        let s = self.stats;
        let items: Vec<String> = self.diagnostics.iter().map(Diagnostic::to_json).collect();
        format!(
            r#"{{"schema_version":{SCHEMA_VERSION},"files_checked":{},"functions":{},"edges":{},"unresolved_edges":{},"hot_path_markers":{},"flow_functions":{},"violations":[{}]}}"#,
            s.files,
            s.functions,
            s.edges,
            s.unresolved,
            s.markers,
            self.flow_functions,
            items.join(",")
        )
    }

    /// The headline counts as one line of text.
    #[must_use]
    pub fn summary(&self) -> String {
        let s = self.stats;
        format!(
            "{} files, {} functions ({} with dataflow), {} call edges ({} unresolved), \
             {} hot-path marker(s)",
            s.files, s.functions, self.flow_functions, s.edges, s.unresolved, s.markers
        )
    }
}

/// Lints in-memory sources as one workspace, each at its workspace-relative
/// path: the entry point of the fixture tests. Nothing narrows call
/// resolution, so every file's calls may resolve into every other.
#[must_use]
pub fn lint_sources(sources: &[(&str, &str)]) -> Report {
    lint(sources, None)
}

/// Lints every workspace `.rs` file under `workspace_root`.
///
/// # Errors
///
/// Returns any I/O error from walking or reading the tree.
pub fn run_lint(workspace_root: &Path) -> std::io::Result<Report> {
    let (sources, deps) = read_workspace(workspace_root)?;
    let sources: Vec<(&str, &str)> = sources
        .iter()
        .map(|(path, source)| (path.as_str(), source.as_str()))
        .collect();
    Ok(lint(&sources, Some(&deps)))
}

/// The one pass: each file is lexed once and its waivers parsed once; the
/// token, flow and marker findings are collected pre-waiver, the call graph
/// is certified over all files, then waivers filter the per-file findings
/// and one audit checks every waiver against them.
fn lint(sources: &[(&str, &str)], deps: Option<&DepClosure>) -> Report {
    let mut report = Report::default();
    let mut files = Vec::new();
    let mut extracts = Vec::new();
    for &(path, source) in sources {
        let Some(class) = classify(path) else {
            continue;
        };
        let file = lexer::lex(source);
        let waivers = Waivers::parse(&file);
        let mut raw = Vec::new();
        rules::check_tokens(path, &file, class, &mut raw);
        report.flow_functions += flow::analyse(path, &file, &mut raw);
        extracts.push(extract::extract_file(path, &file, &waivers, &mut raw));
        raw.sort();
        // Nested fns are analysed on their own and inside their parent.
        raw.dedup_by(|a, b| (a.line, a.col, a.rule) == (b.line, b.col, b.rule));
        files.push((path, waivers, raw));
    }
    let graph = CallGraph::build(extracts, deps);
    report.stats = graph.stats();
    let mut out = graph.violations();
    for (fi, (path, waivers, raw)) in files.iter().enumerate() {
        out.extend(
            raw.iter()
                .filter(|d| !waivers.allowed(d.line - 1, d.rule))
                .cloned(),
        );
        let hot_live = |lines, prop| graph.waiver_live(fi, lines, prop);
        ast::audit(path, waivers, raw, hot_live, &mut out);
    }
    out.sort();
    report.diagnostics = out;
    report
}

/// Reads every linted `.rs` file under `root` as `(relative path, source)`
/// pairs, and the dependency closure of every package the walk visits.
pub(crate) fn read_workspace(root: &Path) -> std::io::Result<(Vec<(String, String)>, DepClosure)> {
    let mut sources = Vec::new();
    let mut manifests = Vec::new();
    for path in walk(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if let Some(dir) = rel.strip_suffix("Cargo.toml") {
            let dir = dir.trim_end_matches('/').to_string();
            manifests.push((dir, std::fs::read_to_string(&path)?));
        } else if classify(&rel).is_some() {
            let source = std::fs::read_to_string(&path)?;
            sources.push((rel, source));
        }
    }
    Ok((sources, DepClosure::new(&manifests)))
}

/// Recursively collects the `.rs` files and `Cargo.toml` manifests under
/// `root`, pruning VCS and build-output directories. Paths come back sorted
/// for stable output.
fn walk(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") || name == "Cargo.toml" {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}
