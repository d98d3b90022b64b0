//! Function/call extraction for the workspace call-graph pass.
//!
//! The call-graph rules need more than per-file token checks: they have to
//! know which `fn` items a file defines (name, receiver type, visibility)
//! and which calls each body makes, so the graph layer in [`super::graph`]
//! can resolve edges across crates and propagate taint. This module walks
//! a file's token stream once and produces that model, plus the two pieces
//! of per-file policy the graph consumes: hot-path certification markers
//! (`// iprism: hot-path(no-panic, no-alloc, deterministic)`) and the lines
//! where `iprism-lint: allow(hot-path-*)` waives a property.
//!
//! The extraction is deliberately best-effort — no type inference, no macro
//! expansion — and errs on the side of recording a call, leaving precision
//! to the resolution step (receiver-type and dependency-closure narrowing).

use super::lexer::{Kind, Lexed, Token};
use super::rules::{
    after_dot, call_open, macro_call, matching_close, pub_of_fn, skip_generics, NONDET_IDENTS,
};
use super::{Diagnostic, Rule, Waivers};

/// The three properties a hot-path marker can demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HotProp {
    /// No reachable `panic!`/`unwrap`/`expect`/`assert!` or slice indexing.
    NoPanic,
    /// No reachable heap allocation (`Vec::push`, `collect`, `format!`, ...).
    NoAlloc,
    /// No reachable wallclock, entropy or hash-iteration nondeterminism.
    Deterministic,
}

/// All properties, in reporting order.
pub const ALL_PROPS: [HotProp; 3] = [HotProp::NoPanic, HotProp::NoAlloc, HotProp::Deterministic];

impl HotProp {
    /// The spelling used inside a `hot-path(...)` marker.
    #[must_use]
    pub fn marker_name(self) -> &'static str {
        match self {
            HotProp::NoPanic => "no-panic",
            HotProp::NoAlloc => "no-alloc",
            HotProp::Deterministic => "deterministic",
        }
    }

    /// The lint rule that reports a violation of this property.
    #[must_use]
    pub fn rule(self) -> Rule {
        match self {
            HotProp::NoPanic => Rule::HotPathPanic,
            HotProp::NoAlloc => Rule::HotPathAlloc,
            HotProp::Deterministic => Rule::HotPathNondet,
        }
    }

    /// The property whose violations `rule` reports, if any.
    #[must_use]
    pub fn from_rule(rule: Rule) -> Option<HotProp> {
        ALL_PROPS.iter().copied().find(|p| p.rule() == rule)
    }

    /// Short noun used in taint-chain diagnostics (`... : alloc via ...`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            HotProp::NoPanic => "panic",
            HotProp::NoAlloc => "alloc",
            HotProp::Deterministic => "nondeterminism",
        }
    }

    /// Parses a marker property name.
    #[must_use]
    pub fn from_marker_name(name: &str) -> Option<HotProp> {
        ALL_PROPS.iter().copied().find(|p| p.marker_name() == name)
    }

    /// Index into per-line waiver arrays.
    #[must_use]
    pub fn idx(self) -> usize {
        match self {
            HotProp::NoPanic => 0,
            HotProp::NoAlloc => 1,
            HotProp::Deterministic => 2,
        }
    }
}

/// One `fn` item extracted from a file.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` type or `trait` name, when inside one.
    pub impl_type: Option<String>,
    /// `true` when defined inside a `trait { ... }` block (default methods
    /// and bodyless declarations).
    pub in_trait: bool,
    /// `true` when the first parameter is a `self` receiver.
    pub has_self: bool,
    /// `true` for bare `pub` items (not `pub(crate)`).
    pub is_pub: bool,
    /// 1-based line/column of the function name token.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Properties demanded by an attached `hot-path(...)` marker.
    pub props: Vec<HotProp>,
}

impl FnDef {
    /// `Type::name` when the fn lives in an impl/trait, else `name`.
    #[must_use]
    pub fn display(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// How a call site names its target; resolution narrows candidates
/// accordingly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallTarget {
    /// `foo(..)` or `module::foo(..)` — a free function.
    Bare(String),
    /// `recv.foo(..)` — a method on some receiver.
    Method(String),
    /// `self.foo(..)` / `Self::foo(..)` — narrowed to the enclosing impl.
    SelfMethod(String),
    /// `Type::foo(..)` — narrowed to impls of `Type`.
    Typed(String, String),
}

impl CallTarget {
    /// The bare callee name.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            CallTarget::Bare(n) | CallTarget::Method(n) | CallTarget::SelfMethod(n) => n,
            CallTarget::Typed(_, n) => n,
        }
    }
}

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Index into [`FileExtract::fns`] of the enclosing function.
    pub from_fn: usize,
    /// Target naming shape.
    pub target: CallTarget,
    /// 1-based call-site position.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

/// One direct taint source inside a function body.
#[derive(Debug, Clone)]
pub struct SourceHit {
    /// Index into [`FileExtract::fns`] of the enclosing function.
    pub from_fn: usize,
    /// Which property the source violates.
    pub prop: HotProp,
    /// Human-readable description (`` `.push(..)` ``, `` `vec![..]` ``).
    pub what: String,
    /// 1-based source position.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

/// Everything the graph layer needs to know about one file.
#[derive(Debug, Clone)]
pub struct FileExtract {
    /// Workspace-relative path.
    pub path: String,
    /// Extracted `fn` items.
    pub fns: Vec<FnDef>,
    /// Call expressions, in token order.
    pub calls: Vec<Call>,
    /// Direct taint sources, in token order.
    pub sources: Vec<SourceHit>,
    /// Per 0-based line, which properties are waived there.
    pub waived: Vec<[bool; 3]>,
}

/// Macro names that abort when invoked (`debug_assert*` is excluded: it
/// compiles out of release builds, which is what hot paths run).
const PANIC_MACROS: [&str; 7] = [
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Macro names that allocate.
const ALLOC_MACROS: [&str; 2] = ["format", "vec"];

/// Method names that allocate (or may reallocate) on their receiver.
const ALLOC_METHODS: [&str; 15] = [
    "push",
    "push_str",
    "collect",
    "to_vec",
    "to_string",
    "to_owned",
    "reserve",
    "reserve_exact",
    "resize",
    "resize_with",
    "extend",
    "extend_from_slice",
    "insert",
    "append",
    "with_capacity",
];

/// Owner types whose constructors count as allocation sources.
const ALLOC_TYPES: [&str; 9] = [
    "Vec",
    "VecDeque",
    "String",
    "Box",
    "Rc",
    "Arc",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
];

/// Constructor names that count as allocation on an [`ALLOC_TYPES`] owner.
const ALLOC_CTORS: [&str; 4] = ["new", "with_capacity", "from", "from_iter"];

/// Keywords that can never be a call or an indexed expression head.
const KEYWORDS: [&str; 36] = [
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "Self", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where",
];

fn is_keyword(word: &str) -> bool {
    KEYWORDS.contains(&word) || word == "while" || word == "union" || word == "yield"
}

fn lowercase_start(name: &str) -> bool {
    name.chars()
        .next()
        .is_some_and(|c| c.is_lowercase() || c == '_')
}

/// One brace frame; remembers what to restore when it closes.
enum Frame {
    Fn(Option<usize>),
    Impl(Option<(String, bool)>),
    Other,
}

/// Extracts the call-graph model from one file, appending malformed or
/// unattached hot-path markers to `errors` (pre-waiver, like every
/// per-file finding).
#[must_use]
pub fn extract_file(
    rel_path: &str,
    file: &Lexed,
    waivers: &Waivers,
    errors: &mut Vec<Diagnostic>,
) -> FileExtract {
    let tokens = &file.tokens;
    let skip = |line: usize| file.skipped(line);
    let mut out = FileExtract {
        path: rel_path.to_string(),
        fns: Vec::new(),
        calls: Vec::new(),
        sources: Vec::new(),
        waived: (0..file.lines.len())
            .map(|idx| ALL_PROPS.map(|p| waivers.allowed(idx, p.rule())))
            .collect(),
    };

    let mut stack: Vec<Frame> = Vec::new();
    let mut cur_fn: Option<usize> = None;
    let mut cur_impl: Option<(String, bool)> = None;
    let mut pending_fn: Option<usize> = None;
    let mut pending_impl: Option<(String, bool)> = None;

    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];

        // Skip attributes wholesale: `#[...]` / `#![...]`.
        if t.is_punct('#') {
            let open = if tokens.get(i + 1).is_some_and(|n| n.is_punct('[')) {
                Some(i + 1)
            } else if tokens.get(i + 1).is_some_and(|n| n.is_punct('!'))
                && tokens.get(i + 2).is_some_and(|n| n.is_punct('['))
            {
                Some(i + 2)
            } else {
                None
            };
            if let Some(open) = open {
                i = matching_close(tokens, open).map_or(tokens.len(), |close| close + 1);
                continue;
            }
        }

        if t.is_punct('{') {
            if let Some(f) = pending_fn.take() {
                // A spurious `-> impl Trait` in the signature must not leak.
                pending_impl = None;
                stack.push(Frame::Fn(cur_fn));
                cur_fn = Some(f);
            } else if let Some(ti) = pending_impl.take() {
                stack.push(Frame::Impl(cur_impl.take()));
                cur_impl = Some(ti);
            } else {
                stack.push(Frame::Other);
            }
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            match stack.pop() {
                Some(Frame::Fn(prev)) => cur_fn = prev,
                Some(Frame::Impl(prev)) => cur_impl = prev,
                _ => {}
            }
            i += 1;
            continue;
        }
        if t.is_punct(';') {
            // A `;` before the body means a bodyless trait declaration.
            pending_fn = None;
            i += 1;
            continue;
        }

        if t.is_ident("impl") && pending_fn.is_none() {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|n| n.is_punct('<')) {
                j = skip_generics(tokens, j).unwrap_or(j + 1);
            }
            let (first, after) = parse_type_path(tokens, j);
            let ty = if tokens.get(after).is_some_and(|n| n.is_ident("for")) {
                parse_type_path(tokens, after + 1).0
            } else {
                first
            };
            if let Some(ty) = ty {
                pending_impl = Some((ty, false));
            }
            i += 1;
            continue;
        }

        if t.is_ident("trait") && pending_fn.is_none() {
            if let Some(name) = tokens.get(i + 1).filter(|n| n.kind == Kind::Ident) {
                pending_impl = Some((name.text.clone(), true));
            }
            i += 1;
            continue;
        }

        if t.is_ident("fn") && tokens.get(i + 1).is_some_and(|n| n.kind == Kind::Ident) {
            let name_tok = &tokens[i + 1];
            if !skip(name_tok.line) {
                let idx = out.fns.len();
                out.fns.push(FnDef {
                    name: name_tok.text.clone(),
                    impl_type: cur_impl.as_ref().map(|(ty, _)| ty.clone()),
                    in_trait: cur_impl.as_ref().is_some_and(|&(_, t)| t),
                    has_self: fn_has_self(tokens, i + 2),
                    is_pub: pub_of_fn(tokens, i).is_some(),
                    line: name_tok.line,
                    col: name_tok.col,
                    props: Vec::new(),
                });
                pending_fn = Some(idx);
            }
            i += 2;
            continue;
        }

        // Call and source detection: only inside a fn body, outside the
        // signature region and outside test/macro lines.
        let scanning = cur_fn.is_some() && pending_fn.is_none() && !skip(t.line);
        if !scanning {
            i += 1;
            continue;
        }
        let f = cur_fn.unwrap_or_default();

        if t.is_punct('[') {
            if let Some(prev) = i.checked_sub(1).map(|p| &tokens[p]) {
                let indexes = (prev.kind == Kind::Ident && !is_keyword(&prev.text))
                    || prev.is_punct(')')
                    || prev.is_punct(']');
                if indexes {
                    let head = if prev.kind == Kind::Ident {
                        prev.text.as_str()
                    } else {
                        "(..)"
                    };
                    out.sources.push(SourceHit {
                        from_fn: f,
                        prop: HotProp::NoPanic,
                        what: format!("`{head}[..]` indexing"),
                        line: t.line,
                        col: t.col,
                    });
                }
            }
            i += 1;
            continue;
        }

        if t.kind == Kind::Ident {
            scan_ident(tokens, i, f, &mut out, cur_impl.as_ref());
        }
        i += 1;
    }

    attach_markers(file, &mut out, errors);
    out
}

/// Walks a type path (`a::b::Type<Args>`), returning its final type name
/// and the index where the walk stopped (`for`, `where`, `{` or `;`).
fn parse_type_path(tokens: &[Token], mut j: usize) -> (Option<String>, usize) {
    let mut name = None;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('{') || t.is_punct(';') || t.is_ident("for") || t.is_ident("where") {
            break;
        }
        if t.is_punct('<') {
            j = skip_generics(tokens, j).unwrap_or(j + 1);
            continue;
        }
        if t.kind == Kind::Ident && !t.is_ident("dyn") {
            name = Some(t.text.clone());
        }
        j += 1;
    }
    (name, j)
}

/// Does the parameter list starting at or after `k` open with a `self`
/// receiver? `k` points just past the fn name (possibly at generics).
fn fn_has_self(tokens: &[Token], mut k: usize) -> bool {
    if tokens.get(k).is_some_and(|t| t.is_punct('<')) {
        match skip_generics(tokens, k) {
            Some(after) => k = after,
            None => return false,
        }
    }
    if !tokens.get(k).is_some_and(|t| t.is_punct('(')) {
        return false;
    }
    let Some(close) = matching_close(tokens, k) else {
        return false;
    };
    tokens[k + 1..close]
        .iter()
        .find(|t| t.kind == Kind::Ident && !t.is_ident("mut"))
        .is_some_and(|t| t.is_ident("self"))
}

/// Classifies one identifier token inside a fn body: macro sources, method
/// calls/sources, qualified and bare calls, and plain nondeterminism idents.
fn scan_ident(
    tokens: &[Token],
    i: usize,
    f: usize,
    out: &mut FileExtract,
    cur_impl: Option<&(String, bool)>,
) {
    let t = &tokens[i];
    let name = t.text.as_str();
    let push_source = |out: &mut FileExtract, prop: HotProp, what: String| {
        out.sources.push(SourceHit {
            from_fn: f,
            prop,
            what,
            line: t.line,
            col: t.col,
        });
    };

    if macro_call(tokens, i) {
        if PANIC_MACROS.contains(&name) {
            push_source(out, HotProp::NoPanic, format!("`{name}!`"));
        } else if ALLOC_MACROS.contains(&name) {
            push_source(out, HotProp::NoAlloc, format!("`{name}![..]`"));
        }
        return;
    }

    let prev_dot = after_dot(tokens, i);
    let prev_path = i >= 2 && tokens[i - 1].is_punct(':') && tokens[i - 2].is_punct(':');

    if prev_dot {
        if (name == "unwrap" || name == "expect") && call_open(tokens, i) {
            push_source(out, HotProp::NoPanic, format!("`.{name}(..)`"));
        }
        if ALLOC_METHODS.contains(&name) && call_open(tokens, i) {
            push_source(out, HotProp::NoAlloc, format!("`.{name}(..)`"));
        }
        if lowercase_start(name) && !is_keyword(name) && call_open(tokens, i) {
            let target = if i >= 2 && tokens[i - 2].is_ident("self") {
                CallTarget::SelfMethod(name.to_string())
            } else {
                CallTarget::Method(name.to_string())
            };
            out.calls.push(Call {
                from_fn: f,
                target,
                line: t.line,
                col: t.col,
            });
        }
    } else if prev_path {
        if lowercase_start(name) && !is_keyword(name) && call_open(tokens, i) {
            if let Some(target) = qualified_target(tokens, i, name, cur_impl) {
                if let CallTarget::Typed(ty, ctor) = &target {
                    if ALLOC_TYPES.contains(&ty.as_str()) && ALLOC_CTORS.contains(&ctor.as_str()) {
                        push_source(out, HotProp::NoAlloc, format!("`{ty}::{ctor}(..)`"));
                    }
                }
                out.calls.push(Call {
                    from_fn: f,
                    target,
                    line: t.line,
                    col: t.col,
                });
            }
        }
    } else if lowercase_start(name)
        && !is_keyword(name)
        && call_open(tokens, i)
        && !(i >= 1 && tokens[i - 1].is_ident("fn"))
    {
        out.calls.push(Call {
            from_fn: f,
            target: CallTarget::Bare(name.to_string()),
            line: t.line,
            col: t.col,
        });
    }

    if NONDET_IDENTS.iter().any(|&(id, _)| id == name) {
        push_source(out, HotProp::Deterministic, format!("`{name}`"));
    }
}

/// Resolves the qualifier of a `Qual::name(..)` call into a target shape.
fn qualified_target(
    tokens: &[Token],
    i: usize,
    name: &str,
    cur_impl: Option<&(String, bool)>,
) -> Option<CallTarget> {
    let qual = qualifier_ident(tokens, i)?;
    if qual == "Self" {
        return Some(CallTarget::SelfMethod(name.to_string()));
    }
    if lowercase_start(&qual) {
        // `module::free_fn(..)` — modules are lowercase by convention.
        return Some(CallTarget::Bare(name.to_string()));
    }
    // `cur_impl` is unused today but kept in the signature so trait-context
    // narrowing can grow here without touching call sites.
    let _ = cur_impl;
    Some(CallTarget::Typed(qual, name.to_string()))
}

/// The identifier naming the path segment before `::name` at `i`; walks
/// back over `::<...>` generic arguments (`Vec::<f64>::new`).
fn qualifier_ident(tokens: &[Token], i: usize) -> Option<String> {
    let mut k = i.checked_sub(3)?;
    if tokens[k].is_punct('>') {
        let mut depth = 0i32;
        loop {
            let t = &tokens[k];
            if t.is_punct('>') {
                depth += 1;
            } else if t.is_punct('<') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k = k.checked_sub(1)?;
        }
        k = k.checked_sub(1)?;
        if tokens[k].is_punct(':') {
            k = k.checked_sub(2)?;
        }
    }
    (tokens[k].kind == Kind::Ident).then(|| tokens[k].text.clone())
}

/// A parsed marker comment: its 0-based column plus the parse outcome.
type ParsedMarker = (usize, Result<Vec<HotProp>, String>);

/// Binds `// iprism: hot-path(...)` markers to the fn below them and
/// reports malformed or dangling markers.
fn attach_markers(file: &Lexed, out: &mut FileExtract, errors: &mut Vec<Diagnostic>) {
    let mut markers: Vec<Option<ParsedMarker>> =
        file.comments.iter().map(|c| parse_marker(c)).collect();

    // Sort by line so the upward walk below sees fns in file order.
    let mut order: Vec<usize> = (0..out.fns.len()).collect();
    order.sort_by_key(|&fi| out.fns[fi].line);
    for fi in order {
        let fn_line = out.fns[fi].line;
        // Same line first (trailing marker), then the comment/attr run above.
        let mut at = Some(fn_line - 1).filter(|&l| markers[l].is_some());
        let mut l = fn_line - 1; // 0-based line above the fn
        while at.is_none() && l > 0 {
            l -= 1;
            let attr_line = file.code[l] && file.lines[l].trim_start().starts_with('#');
            if !file.comment_only(l) && !attr_line {
                break;
            }
            if markers[l].is_some() {
                at = Some(l);
            }
        }
        let Some(l) = at else {
            continue;
        };
        if let Some((col0, parsed)) = markers[l].take() {
            match parsed {
                Ok(props) => out.fns[fi].props = props,
                Err(err) => errors.push(marker_error(&out.path, l, col0, &err)),
            }
        }
    }

    for (idx, marker) in markers.into_iter().enumerate() {
        let Some((col0, parsed)) = marker else {
            continue;
        };
        if !file.skipped(idx + 1) {
            let err = match &parsed {
                Ok(_) => "marker is not attached to a function item",
                Err(err) => err,
            };
            errors.push(marker_error(&out.path, idx, col0, err));
        }
    }
}

/// A `hot-path-marker` finding for the marker at 0-based `line0`/`col0`.
fn marker_error(path: &str, line0: usize, col0: usize, err: &str) -> Diagnostic {
    Diagnostic {
        path: path.to_string(),
        line: line0 + 1,
        col: col0 + 1,
        rule: Rule::HotPathMarker,
        message: format!(
            "bad hot-path marker: {err} (expected `// iprism: hot-path(no-panic, no-alloc, \
             deterministic)` directly above a fn)"
        ),
    }
}

/// Parses a `hot-path(...)` marker out of one comment line. Returns the
/// 0-based char column of the directive and the parsed properties or an
/// error.
fn parse_marker(comment: &str) -> Option<ParsedMarker> {
    if super::is_doc_comment(comment) {
        return None;
    }
    let pos = comment.find("iprism:")?;
    let rest = &comment[pos + "iprism:".len()..];
    let hp = rest.find("hot-path")?;
    let after = &rest[hp + "hot-path".len()..];
    Some((comment[..pos].chars().count(), parse_marker_props(after)))
}

fn parse_marker_props(after: &str) -> Result<Vec<HotProp>, String> {
    let after = after.trim_start();
    let Some(args) = after.strip_prefix('(') else {
        return Err("missing `(...)` property list".to_string());
    };
    let Some(close) = args.find(')') else {
        return Err("unterminated property list".to_string());
    };
    let mut props = Vec::new();
    for raw in args[..close].split(',') {
        let name = raw.trim();
        if name.is_empty() {
            continue;
        }
        match HotProp::from_marker_name(name) {
            Some(p) => {
                if !props.contains(&p) {
                    props.push(p);
                }
            }
            None => return Err(format!("unknown property `{name}`")),
        }
    }
    if props.is_empty() {
        return Err("empty property list".to_string());
    }
    Ok(props)
}
