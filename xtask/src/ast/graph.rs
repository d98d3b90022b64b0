//! Workspace call graph and hot-path taint propagation.
//!
//! The lint pass builds a best-effort call graph over every workspace `.rs`
//! file from the per-file extraction in [`super::extract`], then runs
//! fixed-point taint propagation for the three hot-path properties
//! (panic-reachability, allocation, nondeterminism). A function opts into
//! certification with a `// iprism: hot-path(...)` marker; any marked
//! function that transitively reaches a taint source is reported with its
//! full witness chain (`a → b → c: alloc via Vec::push at file:line`), so
//! every violation is a readable proof.
//!
//! Name resolution is deliberately best-effort: a call resolves to every
//! workspace `fn` whose name (and receiver shape) matches, narrowed by the
//! caller's Cargo dependency closure so e.g. an `.step(..)` in `crates/rl`
//! can never resolve into `crates/sim`, which `iprism-rl` does not depend
//! on. Calls with no workspace candidate (std, shims outside the closure)
//! are *unresolved*; their count is surfaced in the report so the soundness
//! gap is visible, not silent.
//!
//! Waivers reuse the standard `// iprism-lint: allow(<rule>)` mechanism
//! with the graph rule names: a waiver on a line kills the direct sources
//! on that line *and* cuts call edges originating there.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;

use super::extract::{extract_file, Call, CallTarget, FileExtract, HotProp, ALL_PROPS};
use super::lexer::lex;
use super::{Diagnostic, Waivers};

/// Call-graph headline numbers of a lint report.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphStats {
    /// Files included in the graph: every file the pass lints.
    pub files: usize,
    /// `fn` items extracted.
    pub functions: usize,
    /// Resolved call edges.
    pub edges: usize,
    /// Call sites with no workspace candidate (std/primitive methods,
    /// crates outside the caller's dependency closure).
    pub unresolved: usize,
    /// Functions carrying a `hot-path(...)` marker.
    pub markers: usize,
}

/// Workspace dependency closure, parsed from the `Cargo.toml` manifests.
/// Maps each crate directory to the set of crate directories its
/// `[dependencies]` transitively reach (including itself).
#[derive(Debug, Clone, Default)]
pub struct DepClosure {
    dirs: Vec<String>,
    closure: BTreeMap<String, Vec<String>>,
}

impl DepClosure {
    /// Builds the closure from `(package dir, Cargo.toml text)` pairs, the
    /// root package's dir being `""`. Files outside every listed package,
    /// or in one whose manifest names no package, get no narrowing.
    #[must_use]
    pub fn new(manifests: &[(String, String)]) -> DepClosure {
        let mut name_to_dir: BTreeMap<String, String> = BTreeMap::new();
        let mut deps_of: BTreeMap<String, Vec<String>> = BTreeMap::new(); // dir -> dep names
        for (dir, toml) in manifests {
            let (name, deps) = parse_manifest(toml);
            if let Some(name) = name {
                name_to_dir.insert(name, dir.clone());
            }
            deps_of.insert(dir.clone(), deps);
        }

        let mut closure = BTreeMap::new();
        for dir in deps_of.keys() {
            let mut reach = vec![dir.clone()];
            let mut queue = vec![dir.clone()];
            while let Some(d) = queue.pop() {
                for dep in deps_of.get(&d).into_iter().flatten() {
                    if let Some(dep_dir) = name_to_dir.get(dep) {
                        if !reach.contains(dep_dir) {
                            reach.push(dep_dir.clone());
                            queue.push(dep_dir.clone());
                        }
                    }
                }
            }
            closure.insert(dir.clone(), reach);
        }
        let mut dirs: Vec<String> = deps_of.into_keys().collect();
        // Longest prefix first so `crates/nn` wins over the root crate.
        dirs.sort_by_key(|d| std::cmp::Reverse(d.len()));
        DepClosure { dirs, closure }
    }

    fn dir_of(&self, rel_path: &str) -> Option<&str> {
        self.dirs
            .iter()
            .find(|d| {
                if d.is_empty() {
                    rel_path.starts_with("src/")
                } else {
                    rel_path.starts_with(&format!("{d}/"))
                }
            })
            .map(String::as_str)
    }

    /// May code in `caller_path` statically call code in `callee_path`?
    #[must_use]
    pub fn reaches(&self, caller_path: &str, callee_path: &str) -> bool {
        let (Some(a), Some(b)) = (self.dir_of(caller_path), self.dir_of(callee_path)) else {
            return true; // unknown layout: don't narrow
        };
        self.closure
            .get(a)
            .is_some_and(|set| set.iter().any(|d| d == b))
    }
}

/// Extracts the `[package] name` and `[dependencies]` keys from a
/// manifest. Hand-rolled single-pass scan: xtask has no TOML dependency.
fn parse_manifest(toml: &str) -> (Option<String>, Vec<String>) {
    let mut section = String::new();
    let mut name = None;
    let mut deps = Vec::new();
    for line in toml.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix('[') {
            section = rest.trim_end_matches(']').to_string();
            continue;
        }
        if section == "package" {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(value) = rest.strip_prefix('=') {
                    name = Some(value.trim().trim_matches('"').to_string());
                }
            }
        } else if section == "dependencies" {
            let key: String = line
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '-' || *c == '_')
                .collect();
            if !key.is_empty() && line[key.len()..].trim_start().starts_with(['=', '.']) {
                deps.push(key);
            }
        }
    }
    (name, deps)
}

/// One function node in the flattened workspace graph.
#[derive(Debug, Clone, Copy)]
struct Node {
    file: usize,
    local: usize,
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy)]
struct Edge {
    caller: usize,
    callee: usize,
    file: usize,
    line: usize,
}

/// How a marked function came to be tainted, per node.
#[derive(Debug, Clone)]
enum Witness {
    /// A direct source in the node's own body.
    Source {
        what: String,
        file: usize,
        line: usize,
        col: usize,
    },
    /// Tainted through the call edge at this index.
    Via(usize),
}

/// The resolved workspace call graph.
pub struct CallGraph {
    files: Vec<FileExtract>,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// Per node, indices of edges whose callee is that node.
    callers_of: Vec<Vec<usize>>,
    unresolved: usize,
    /// Per property (see [`HotProp::idx`]), per node: how it is tainted.
    taints: Vec<Vec<Option<Witness>>>,
}

impl CallGraph {
    /// Builds the graph from per-file extractions. `deps` narrows
    /// resolution to each caller's dependency closure when present.
    #[must_use]
    pub fn build(files: Vec<FileExtract>, deps: Option<&DepClosure>) -> CallGraph {
        let mut nodes = Vec::new();
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (li, def) in file.fns.iter().enumerate() {
                by_name.entry(&def.name).or_default().push(nodes.len());
                nodes.push(Node {
                    file: fi,
                    local: li,
                });
            }
        }
        let node_of = |fi: usize, li: usize| -> usize {
            files[..fi].iter().map(|f| f.fns.len()).sum::<usize>() + li
        };

        let mut edges = Vec::new();
        let mut unresolved = 0usize;
        for (fi, file) in files.iter().enumerate() {
            for call in &file.calls {
                let caller = node_of(fi, call.from_fn);
                let n = resolve(&files, &nodes, &by_name, deps, fi, call, caller, &mut edges);
                if n == 0 {
                    unresolved += 1;
                }
            }
        }

        let mut callers_of = vec![Vec::new(); nodes.len()];
        for (ei, e) in edges.iter().enumerate() {
            callers_of[e.callee].push(ei);
        }
        let mut graph = CallGraph {
            files,
            nodes,
            edges,
            callers_of,
            unresolved,
            taints: Vec::new(),
        };
        graph.taints = ALL_PROPS.iter().map(|&p| graph.taint(p)).collect();
        graph
    }

    fn def(&self, n: usize) -> &super::extract::FnDef {
        let node = self.nodes[n];
        &self.files[node.file].fns[node.local]
    }

    fn display(&self, n: usize) -> String {
        self.def(n).display()
    }

    /// Headline numbers (marker count included).
    #[must_use]
    pub fn stats(&self) -> GraphStats {
        GraphStats {
            files: self.files.len(),
            functions: self.nodes.len(),
            edges: self.edges.len(),
            unresolved: self.unresolved,
            markers: (0..self.nodes.len())
                .filter(|&n| !self.def(n).props.is_empty())
                .count(),
        }
    }

    /// Fixed-point (reverse-BFS) taint for one property: every node that
    /// can reach an unwaived source gets a shortest witness.
    fn taint(&self, prop: HotProp) -> Vec<Option<Witness>> {
        let mut witness: Vec<Option<Witness>> = vec![None; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        for (fi, file) in self.files.iter().enumerate() {
            for s in &file.sources {
                if s.prop != prop || self.waived(fi, s.line, prop) {
                    continue;
                }
                let n = self.node_of(fi, s.from_fn);
                if witness[n].is_none() {
                    witness[n] = Some(Witness::Source {
                        what: s.what.clone(),
                        file: fi,
                        line: s.line,
                        col: s.col,
                    });
                    queue.push_back(n);
                }
            }
        }
        while let Some(n) = queue.pop_front() {
            for &ei in &self.callers_of[n] {
                let e = self.edges[ei];
                if self.waived(e.file, e.line, prop) {
                    continue;
                }
                if witness[e.caller].is_none() {
                    witness[e.caller] = Some(Witness::Via(ei));
                    queue.push_back(e.caller);
                }
            }
        }
        witness
    }

    fn waived(&self, file: usize, line: usize, prop: HotProp) -> bool {
        self.files[file]
            .waived
            .get(line - 1)
            .is_some_and(|w| w[prop.idx()])
    }

    fn node_of(&self, fi: usize, li: usize) -> usize {
        self.files[..fi].iter().map(|f| f.fns.len()).sum::<usize>() + li
    }

    /// Runs certification: every marked fn that reaches an unwaived source
    /// of a property it demands, with its witness chain. Waivers act on
    /// sources and edges during taint, so these findings are final.
    #[must_use]
    pub fn violations(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for n in 0..self.nodes.len() {
            let def = self.def(n);
            for &prop in &def.props {
                let taint = &self.taints[prop.idx()];
                let Some(w) = &taint[n] else {
                    continue;
                };
                out.push(Diagnostic {
                    path: self.files[self.nodes[n].file].path.clone(),
                    line: def.line,
                    col: def.col,
                    rule: prop.rule(),
                    message: format!(
                        "`{}` is marked hot-path({}) but reaches {}: {}",
                        def.display(),
                        prop.marker_name(),
                        match prop {
                            HotProp::NoPanic => "a panic",
                            HotProp::NoAlloc => "an allocation",
                            HotProp::Deterministic => "a nondeterminism source",
                        },
                        self.chain(n, prop, w, taint)
                    ),
                });
            }
        }
        out
    }

    /// Is a waiver of `prop` on 0-based `lines` of file `fi` live: do the
    /// lines hold a matching source (waived or not: removing the waiver
    /// would seed it) or a call edge into a callee tainted with `prop` (the
    /// waiver is cutting that edge)?
    pub(crate) fn waiver_live(&self, fi: usize, lines: Range<usize>, prop: HotProp) -> bool {
        let covers = |line: usize| lines.contains(&(line - 1));
        self.files[fi]
            .sources
            .iter()
            .any(|s| s.prop == prop && covers(s.line))
            || self.edges.iter().any(|e| {
                e.file == fi && covers(e.line) && self.taints[prop.idx()][e.callee].is_some()
            })
    }

    /// Renders the witness chain `a → b → c: alloc via `what` at file:line:col`.
    fn chain(
        &self,
        start: usize,
        prop: HotProp,
        first: &Witness,
        taint: &[Option<Witness>],
    ) -> String {
        let mut names = vec![self.display(start)];
        let mut w = first;
        for _ in 0..self.nodes.len() {
            match w {
                Witness::Source {
                    what,
                    file,
                    line,
                    col,
                } => {
                    return format!(
                        "{}: {} via {} at {}:{}:{}",
                        names.join(" → "),
                        prop.label(),
                        what,
                        self.files[*file].path,
                        line,
                        col
                    );
                }
                Witness::Via(ei) => {
                    let callee = self.edges[*ei].callee;
                    names.push(self.display(callee));
                    match &taint[callee] {
                        Some(next) => w = next,
                        None => break,
                    }
                }
            }
        }
        format!(
            "{}: {} (witness truncated)",
            names.join(" → "),
            prop.label()
        )
    }

    /// Shortest call path between two functions named by `Type::name` or
    /// bare `name` (test/debug helper; used by the golden chain test).
    #[must_use]
    pub fn find_path(&self, from: &str, to: &str) -> Option<Vec<String>> {
        let matches = |n: usize, q: &str| {
            let def = self.def(n);
            def.name == q || def.display() == q
        };
        let mut fwd: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for (ei, e) in self.edges.iter().enumerate() {
            fwd[e.caller].push(ei);
        }
        let mut prev: Vec<Option<usize>> = vec![None; self.nodes.len()]; // node -> edge used
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        for (n, seen_n) in seen.iter_mut().enumerate() {
            if matches(n, from) {
                *seen_n = true;
                queue.push_back(n);
            }
        }
        while let Some(n) = queue.pop_front() {
            if matches(n, to) {
                let mut path = vec![self.display(n)];
                let mut cur = n;
                while let Some(ei) = prev[cur] {
                    cur = self.edges[ei].caller;
                    path.push(self.display(cur));
                }
                path.reverse();
                return Some(path);
            }
            for &ei in &fwd[n] {
                let m = self.edges[ei].callee;
                if !seen[m] {
                    seen[m] = true;
                    prev[m] = Some(ei);
                    queue.push_back(m);
                }
            }
        }
        None
    }
}

/// Resolves one call site, appending matching edges. Returns the number of
/// candidates found.
#[allow(clippy::too_many_arguments)]
fn resolve(
    files: &[FileExtract],
    nodes: &[Node],
    by_name: &BTreeMap<&str, Vec<usize>>,
    deps: Option<&DepClosure>,
    fi: usize,
    call: &Call,
    caller: usize,
    edges: &mut Vec<Edge>,
) -> usize {
    let name = call.target.name();
    let Some(cands) = by_name.get(name) else {
        return 0;
    };
    let caller_def = &files[nodes[caller].file].fns[nodes[caller].local];
    let shape_ok = |n: usize| -> bool {
        let def = &files[nodes[n].file].fns[nodes[n].local];
        match &call.target {
            CallTarget::Bare(_) => def.impl_type.is_none(),
            CallTarget::Method(_) => def.has_self,
            CallTarget::SelfMethod(_) => def.impl_type == caller_def.impl_type,
            CallTarget::Typed(ty, _) => def.impl_type.as_deref() == Some(ty),
        }
    };
    let dep_ok = |n: usize| -> bool {
        deps.is_none_or(|d| d.reaches(&files[fi].path, &files[nodes[n].file].path))
    };
    let mut matched: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&n| shape_ok(n) && dep_ok(n))
        .collect();
    // A `self.f(..)` in a trait default body (or with no same-impl match)
    // dispatches to implementors: fall back to any method of that name.
    if matched.is_empty() && matches!(call.target, CallTarget::SelfMethod(_)) {
        matched = cands
            .iter()
            .copied()
            .filter(|&n| {
                let def = &files[nodes[n].file].fns[nodes[n].local];
                (def.has_self || def.in_trait) && dep_ok(n)
            })
            .collect();
    }
    for &callee in &matched {
        edges.push(Edge {
            caller,
            callee,
            file: fi,
            line: call.line,
        });
    }
    matched.len()
}

/// Builds the call graph over the real workspace tree, as the lint pass
/// does; the golden call-chain tests query it.
///
/// # Errors
///
/// Returns any I/O error from walking or reading the tree.
pub fn build_workspace_graph(workspace_root: &Path) -> std::io::Result<CallGraph> {
    let (sources, deps) = crate::read_workspace(workspace_root)?;
    let files = sources
        .iter()
        .map(|(path, source)| {
            let file = lex(source);
            extract_file(path, &file, &Waivers::parse(&file), &mut Vec::new())
        })
        .collect();
    Ok(CallGraph::build(files, Some(&deps)))
}
