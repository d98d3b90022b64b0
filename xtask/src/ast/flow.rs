//! The dataflow rules: forward dataflow over the per-function CFG.
//!
//! Two analysis families run over every classified file:
//!
//! * **Unit-dimension tracking** — infers the physical dimension of each
//!   local (length, time, speed, acceleration, angle, dimensionless) from
//!   `iprism-units` newtype constructors, `.get()`/`.0` escapes and
//!   unit-suffixed literal bindings, propagates it through arithmetic, and
//!   flags mixed-dimension `+`/`-`, raw-f64 round-trips re-entering a
//!   constructor with the wrong dimension, and trigonometry bypassing
//!   `Radians`.
//! * **Parallel determinism** — finds closures handed to the `shims/rayon`
//!   entry points (plus `par_iter`-style chains) and flags order-sensitive
//!   accumulation into captured state, shared-mutable access (locks,
//!   `RefCell`, atomics) inside parallel closures, and reductions over
//!   unordered hash-collection iteration.
//!
//! The engine is a classic worklist fixed point: facts form a join
//! semilattice, `transfer` pushes a node's input fact through its tokens,
//! and joins happen where CFG edges meet. Analyses scan *every* token of a
//! node, so the graceful degradation in [`super::cfg`] only costs join
//! precision, never coverage. Hand-rolled, zero dependencies, like every
//! other rule family of the pass.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;

use super::cfg::{self, Cfg, CfgNode, NodeKind};
use super::lexer::{Kind, Lexed, Token};
use super::rules::{adjacent, matching_close, skip_generics};
use super::{Diagnostic, Rule};

/// One dataflow analysis: a join-semilattice fact plus a transfer function.
pub trait Analysis {
    /// The lattice element attached to each CFG edge.
    type Fact: Clone + PartialEq;
    /// The fact entering the function (seeded from the parameter list).
    fn boundary(&self) -> Self::Fact;
    /// The lattice join, applied where CFG edges meet.
    fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact;
    /// Pushes `fact` through one node, reporting violations into `sink`.
    fn transfer(
        &self,
        tokens: &[Token],
        node: &CfgNode,
        fact: &Self::Fact,
        sink: &mut Vec<Diagnostic>,
    ) -> Self::Fact;
}

/// Runs `analysis` to a fixed point over `cfg`, then replays each reachable
/// node once with its final input fact to collect diagnostics into `out`.
pub fn run_to_fixpoint<A: Analysis>(
    analysis: &A,
    tokens: &[Token],
    cfg: &Cfg,
    out: &mut Vec<Diagnostic>,
) {
    let n = cfg.nodes.len();
    let Some(entry) = cfg.entry else { return };
    let mut input: Vec<Option<A::Fact>> = vec![None; n];
    input[entry] = Some(analysis.boundary());
    let mut queued = vec![false; n];
    let mut work = VecDeque::new();
    work.push_back(entry);
    queued[entry] = true;
    let mut scratch = Vec::new();
    // Defensive budget: the lattices here have finite height, but a budget
    // keeps a surprise (e.g. a non-monotone transfer bug) from hanging CI.
    let mut budget = 64usize.saturating_mul(n.max(1));
    while let Some(v) = work.pop_front() {
        queued[v] = false;
        if budget == 0 {
            break;
        }
        budget -= 1;
        let Some(fact) = input[v].clone() else {
            continue;
        };
        scratch.clear();
        let out_v = analysis.transfer(tokens, &cfg.nodes[v], &fact, &mut scratch);
        for &s in &cfg.nodes[v].succs {
            let joined = match &input[s] {
                Some(cur) => analysis.join(cur, &out_v),
                None => out_v.clone(),
            };
            if input[s].as_ref() != Some(&joined) {
                input[s] = Some(joined);
                if !queued[s] {
                    queued[s] = true;
                    work.push_back(s);
                }
            }
        }
    }
    for (idx, node) in cfg.nodes.iter().enumerate() {
        if let Some(fact) = &input[idx] {
            let _ = analysis.transfer(tokens, node, fact, out);
        }
    }
}

// ---------------------------------------------------------------------------
// Unit-dimension tracking
// ---------------------------------------------------------------------------

/// A physical dimension in the unit lattice.
///
/// `Bot` is the polymorphic bottom (a bare numeric literal adapts to any
/// dimension); `Unknown` is top (gave up — never flagged against).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Dim {
    /// A bare literal: adapts to whatever it is combined with.
    Bot,
    /// Metres.
    Length,
    /// Seconds.
    Time,
    /// Metres per second.
    Speed,
    /// Metres per second squared.
    Accel,
    /// An angle tracked in radians.
    Radians,
    /// An angle tracked in degrees (only ever inferred, never a newtype).
    Degrees,
    /// Dimensionless (a ratio of like dimensions, or a trig result).
    Ratio,
    /// Top: no information.
    Unknown,
}

impl Dim {
    /// True for dimensions concrete enough to flag against.
    #[must_use]
    pub fn known(self) -> bool {
        !matches!(self, Dim::Bot | Dim::Unknown)
    }

    /// Human-readable label for diagnostics.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Dim::Length => "length (m)",
            Dim::Time => "time (s)",
            Dim::Speed => "speed (m/s)",
            Dim::Accel => "acceleration (m/s^2)",
            Dim::Radians => "angle (rad)",
            Dim::Degrees => "angle (deg)",
            Dim::Ratio => "dimensionless",
            Dim::Bot | Dim::Unknown => "unknown",
        }
    }

    fn join(a: Dim, b: Dim) -> Dim {
        if a == b {
            a
        } else if a == Dim::Bot {
            b
        } else if b == Dim::Bot {
            a
        } else {
            Dim::Unknown
        }
    }

    fn mul(a: Dim, b: Dim) -> Dim {
        match (a, b) {
            (Dim::Bot, x) | (x, Dim::Bot) => x,
            (Dim::Ratio, x) | (x, Dim::Ratio) => x,
            (Dim::Speed, Dim::Time) | (Dim::Time, Dim::Speed) => Dim::Length,
            (Dim::Accel, Dim::Time) | (Dim::Time, Dim::Accel) => Dim::Speed,
            _ => Dim::Unknown,
        }
    }

    fn div(a: Dim, b: Dim) -> Dim {
        match (a, b) {
            (x, Dim::Bot) | (x, Dim::Ratio) => x,
            (Dim::Bot, _) => Dim::Unknown,
            (x, y) if x == y && x.known() => Dim::Ratio,
            (Dim::Length, Dim::Time) => Dim::Speed,
            (Dim::Length, Dim::Speed) => Dim::Time,
            (Dim::Speed, Dim::Time) => Dim::Accel,
            (Dim::Speed, Dim::Accel) => Dim::Time,
            _ => Dim::Unknown,
        }
    }
}

/// The `iprism-units` newtypes and the dimensions they carry.
const UNIT_TYPES: [(&str, Dim); 5] = [
    ("Meters", Dim::Length),
    ("Seconds", Dim::Time),
    ("MetersPerSecond", Dim::Speed),
    ("MetersPerSecondSquared", Dim::Accel),
    ("Radians", Dim::Radians),
];

fn unit_dim(name: &str) -> Option<Dim> {
    UNIT_TYPES.iter().find(|(n, _)| *n == name).map(|&(_, d)| d)
}

/// Dimension implied by the last `_`-separated segment of a binding name
/// (`dt_s`, `gap_m`, `heading_rad`, ...). Applied only to pure-literal
/// `let` bindings with at least two name segments, so short names like
/// `m` or `s` never pick up a dimension by accident.
fn suffix_dim(name: &str) -> Option<Dim> {
    let mut segs = name.split('_').filter(|s| !s.is_empty());
    let first = segs.next()?;
    let last = segs.next_back().unwrap_or(first);
    if last == first {
        // Single-segment names carry no suffix convention.
        return None;
    }
    match last {
        "m" | "meters" | "km" => Some(Dim::Length),
        "s" | "sec" | "secs" | "seconds" | "ms" => Some(Dim::Time),
        "mps" => Some(Dim::Speed),
        "mps2" => Some(Dim::Accel),
        "rad" | "rads" | "radians" => Some(Dim::Radians),
        "deg" | "degs" | "degrees" => Some(Dim::Degrees),
        _ => None,
    }
}

type Env = BTreeMap<String, Dim>;

/// Unit-dimension tracking for one function.
pub struct UnitAnalysis<'a> {
    path: &'a str,
    params: &'a [cfg::Param],
}

impl Analysis for UnitAnalysis<'_> {
    type Fact = Env;

    fn boundary(&self) -> Env {
        let mut env = Env::new();
        for p in self.params {
            let dim =
                p.ty.iter()
                    .filter(|t| t.kind == Kind::Ident)
                    .find_map(|t| unit_dim(&t.text));
            if let Some(dim) = dim {
                env.insert(p.name.clone(), dim);
            }
        }
        env
    }

    fn join(&self, a: &Env, b: &Env) -> Env {
        let mut out = a.clone();
        for (k, &vb) in b {
            let va = out.get(k).copied().unwrap_or(Dim::Bot);
            out.insert(k.clone(), Dim::join(va, vb));
        }
        out
    }

    fn transfer(
        &self,
        tokens: &[Token],
        node: &CfgNode,
        fact: &Env,
        sink: &mut Vec<Diagnostic>,
    ) -> Env {
        let toks = &tokens[node.tokens.clone()];
        let mut env = fact.clone();
        match node.kind {
            NodeKind::Stmt => unit_stmt(self.path, toks, &mut env, sink),
            NodeKind::Cond | NodeKind::While => {
                // `if let` / `while let`: bind the pattern, evaluate the
                // scrutinee; a plain condition just gets scanned.
                if let Some(let_at) = toks.iter().position(|t| t.is_ident("let")) {
                    if let Some(eq) = find_standalone_eq(toks, let_at + 1) {
                        bind_unknown(&toks[let_at + 1..eq], &mut env);
                        eval_all(self.path, &toks[eq + 1..], &env, sink);
                        return env;
                    }
                }
                eval_all(self.path, &toks[1.min(toks.len())..], &env, sink);
            }
            NodeKind::ForHeader => {
                // `for <pat> in <iter>`: bind the pattern, scan the iterator.
                let in_at = toks.iter().position(|t| t.is_ident("in"));
                if let Some(in_at) = in_at {
                    bind_unknown(&toks[1.min(toks.len())..in_at], &mut env);
                    eval_all(self.path, &toks[in_at + 1..], &env, sink);
                } else {
                    eval_all(self.path, toks, &env, sink);
                }
            }
            NodeKind::MatchHead => {
                eval_all(self.path, &toks[1.min(toks.len())..], &env, sink);
            }
            NodeKind::ArmPattern => {
                // Pattern bindings shadow outer locals; the guard (after a
                // top-level `if`) is an expression and gets scanned.
                let guard = toks.iter().position(|t| t.is_ident("if"));
                let pat_end = guard.unwrap_or(toks.len());
                bind_unknown(&toks[..pat_end], &mut env);
                if let Some(g) = guard {
                    eval_all(self.path, &toks[g + 1..], &env, sink);
                }
            }
        }
        env
    }
}

/// Binds every plausible pattern identifier (lowercase-start, non-keyword)
/// to `Unknown`: shadowing must clobber any outer dimension.
fn bind_unknown(toks: &[Token], env: &mut Env) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != Kind::Ident || is_keyword(&t.text) {
            continue;
        }
        if !t
            .text
            .starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
        {
            continue;
        }
        // Skip path segments (`m::f`) and struct-field names (`x:` in
        // `Point { x: px }` binds `px`, not `x`).
        if toks.get(i + 1).is_some_and(|n| n.is_punct(':')) && !t.text.is_empty() {
            continue;
        }
        if i > 0 && toks[i - 1].is_punct(':') {
            // Could be a path tail; binding it Unknown is still safe.
        }
        env.insert(t.text.clone(), Dim::Unknown);
    }
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "match"
            | "while"
            | "for"
            | "loop"
            | "let"
            | "in"
            | "fn"
            | "return"
            | "break"
            | "continue"
            | "move"
            | "mut"
            | "ref"
            | "self"
            | "Self"
            | "as"
            | "unsafe"
            | "pub"
            | "crate"
            | "super"
            | "where"
            | "impl"
            | "dyn"
            | "true"
            | "false"
            | "struct"
            | "enum"
            | "trait"
            | "mod"
            | "use"
            | "const"
            | "static"
            | "async"
            | "await"
    )
}

/// Finds the `=` of a `let`/assignment at bracket depth 0 from `from`,
/// skipping `==`, `!=`, `<=`, `>=`, `=>` and `+=`-style compound forms.
fn find_standalone_eq(toks: &[Token], from: usize) -> Option<usize> {
    let mut depth = 0i32;
    for i in from..toks.len() {
        let t = &toks[i];
        if t.kind != Kind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "=" if depth == 0 => {
                let next_glued = toks
                    .get(i + 1)
                    .is_some_and(|n| (n.is_punct('=') || n.is_punct('>')) && adjacent(t, n));
                let prev_glued = i > from
                    && toks[i - 1].kind == Kind::Punct
                    && toks[i - 1].text.len() == 1
                    && "=!<>+-*/%&|^".contains(&toks[i - 1].text)
                    && adjacent(&toks[i - 1], t);
                if !next_glued && !prev_glued {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Transfer for an ordinary statement node: `let` bindings, simple
/// (compound) assignments, or a plain expression scan.
fn unit_stmt(path: &str, toks: &[Token], env: &mut Env, sink: &mut Vec<Diagnostic>) {
    let mut i = 0;
    // Skip leading attributes.
    while toks.get(i).is_some_and(|t| t.is_punct('#'))
        && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
    {
        i = matching_close(toks, i + 1).map_or(toks.len(), |close| close + 1);
    }
    let toks = &toks[i..];
    let end = toks
        .len()
        .saturating_sub(usize::from(toks.last().is_some_and(|t| t.is_punct(';'))));
    let toks = &toks[..end];
    if toks.is_empty() {
        return;
    }
    if toks[0].is_ident("let") {
        let mut j = 1;
        if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let simple = toks.get(j).is_some_and(|t| {
            t.kind == Kind::Ident
                && !is_keyword(&t.text)
                && toks
                    .get(j + 1)
                    .is_none_or(|n| n.is_punct(':') || n.is_punct('='))
        });
        let eq = find_standalone_eq(toks, j);
        if simple {
            let name = toks[j].text.clone();
            let ann_end = eq.unwrap_or(toks.len());
            let ann_dim = toks[j + 1..ann_end]
                .iter()
                .filter(|t| t.kind == Kind::Ident)
                .find_map(|t| unit_dim(&t.text));
            let rhs = eq.map(|e| &toks[e + 1..]);
            let rhs_dim = rhs.map(|r| eval_all(path, r, env, sink));
            let dim = match (ann_dim, rhs_dim) {
                (Some(a), _) => a,
                (None, Some(Dim::Bot)) => {
                    // A pure literal: a unit-suffixed name fixes the
                    // dimension; otherwise stay polymorphic.
                    let pure_literal = rhs.is_some_and(|r| {
                        let r: Vec<_> = r
                            .iter()
                            .filter(|t| !(t.is_punct('-') || t.is_punct('(') || t.is_punct(')')))
                            .collect();
                        r.len() == 1 && matches!(r[0].kind, Kind::Float | Kind::Int)
                    });
                    if pure_literal {
                        suffix_dim(&name).unwrap_or(Dim::Bot)
                    } else {
                        Dim::Bot
                    }
                }
                (None, Some(d)) => d,
                (None, None) => Dim::Unknown,
            };
            env.insert(name, dim);
        } else {
            // Destructuring: bind every pattern ident, then scan the rhs.
            let pat_end = eq.unwrap_or(toks.len());
            bind_unknown(&toks[1..pat_end], env);
            if let Some(eq) = eq {
                eval_all(path, &toks[eq + 1..], env, sink);
            }
        }
        return;
    }
    // Simple (compound) assignment to a plain local.
    if toks[0].kind == Kind::Ident && !is_keyword(&toks[0].text) {
        let name = &toks[0].text;
        if toks.len() > 1 && toks[1].is_punct('=') && find_standalone_eq(toks, 1) == Some(1) {
            let rhs_dim = eval_all(path, &toks[2..], env, sink);
            env.insert(name.clone(), rhs_dim);
            return;
        }
        let compound = toks.len() > 2
            && toks[1].kind == Kind::Punct
            && toks[1].text.len() == 1
            && "+-*/".contains(&toks[1].text)
            && toks[2].is_punct('=')
            && adjacent(&toks[1], &toks[2]);
        if compound {
            let lhs = env.get(name).copied().unwrap_or(Dim::Unknown);
            let rhs = eval_all(path, &toks[3..], env, sink);
            match toks[1].text.as_str() {
                "+" | "-" if lhs.known() && rhs.known() && lhs != rhs => {
                    sink.push(mixed_dim(path, &toks[1], lhs, rhs));
                }
                "*" => {
                    env.insert(name.clone(), Dim::mul(lhs, rhs));
                }
                "/" => {
                    env.insert(name.clone(), Dim::div(lhs, rhs));
                }
                _ => {}
            }
            return;
        }
    }
    eval_all(path, toks, env, sink);
}

fn mixed_dim(path: &str, at: &Token, lhs: Dim, rhs: Dim) -> Diagnostic {
    Diagnostic {
        path: path.to_string(),
        line: at.line,
        col: at.col,
        rule: Rule::UnitMixedDim,
        message: format!(
            "mixed-dimension arithmetic: {} {} {}; convert through the iprism-units newtypes first",
            lhs.label(),
            at.text,
            rhs.label()
        ),
    }
}

/// Scans a token region as a sequence of expressions, returning the
/// dimension of the *first* expression (the rhs value of a binding) while
/// reporting violations anywhere in the region.
fn eval_all(path: &str, toks: &[Token], env: &Env, sink: &mut Vec<Diagnostic>) -> Dim {
    let mut ev = Eval {
        toks,
        pos: 0,
        env,
        path,
        sink,
        depth: 0,
    };
    let mut first = None;
    while ev.pos < ev.toks.len() {
        let before = ev.pos;
        let d = ev.expr();
        if first.is_none() {
            first = Some(d);
        }
        if ev.pos == before {
            ev.pos += 1;
        }
    }
    first.unwrap_or(Dim::Unknown)
}

/// A recursive-descent expression scanner with dimension inference. It is
/// deliberately forgiving: anything it cannot shape evaluates to
/// [`Dim::Unknown`] and the outer loop in [`eval_all`] guarantees progress.
struct Eval<'a, 'b> {
    toks: &'a [Token],
    pos: usize,
    env: &'a Env,
    path: &'a str,
    sink: &'b mut Vec<Diagnostic>,
    depth: u32,
}

impl Eval<'_, '_> {
    fn report(&mut self, at: &Token, rule: Rule, message: String) {
        self.sink.push(Diagnostic {
            path: self.path.to_string(),
            line: at.line,
            col: at.col,
            rule,
            message,
        });
    }

    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos)
    }

    /// Is the punct at `pos` glued to the punct at `pos + 1`?
    fn glued(&self, c: char) -> bool {
        let (Some(a), Some(b)) = (self.toks.get(self.pos), self.toks.get(self.pos + 1)) else {
            return false;
        };
        b.is_punct(c) && adjacent(a, b)
    }

    fn expr(&mut self) -> Dim {
        self.depth += 1;
        if self.depth > 48 {
            self.depth -= 1;
            self.pos += 1;
            return Dim::Unknown;
        }
        let mut dim = self.add_level();
        while let Some(t) = self.peek() {
            if t.kind != Kind::Punct {
                break;
            }
            match t.text.as_str() {
                "=" if self.glued('=') => self.pos += 2,
                "!" if self.glued('=') => self.pos += 2,
                "<" | ">" => {
                    let extra = usize::from(self.glued('=') || self.glued('<') || self.glued('>'));
                    self.pos += 1 + extra;
                }
                "&" if self.glued('&') => self.pos += 2,
                "|" if self.glued('|') => self.pos += 2,
                "&" | "|" | "^" => self.pos += 1,
                "." if self.glued('.') => {
                    self.pos += 2;
                    if self.peek().is_some_and(|t| t.is_punct('=')) {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
            let before = self.pos;
            self.add_level();
            if self.pos == before {
                break;
            }
            dim = Dim::Unknown;
        }
        self.depth -= 1;
        dim
    }

    fn add_level(&mut self) -> Dim {
        let mut dim = self.mul_level();
        while let Some(t) = self.peek() {
            if !(t.is_punct('+') || t.is_punct('-')) {
                break;
            }
            // `->` ends the expression (closure/fn return type position).
            if t.is_punct('-')
                && self
                    .toks
                    .get(self.pos + 1)
                    .is_some_and(|n| n.is_punct('>') && adjacent(t, n))
            {
                break;
            }
            let op = self.pos;
            let compound = self.glued('=');
            self.pos += 1 + usize::from(compound);
            let before = self.pos;
            let rhs = self.mul_level();
            if self.pos == before {
                self.pos = op;
                break;
            }
            let lhs = dim;
            if lhs.known() && rhs.known() && lhs != rhs {
                let d = mixed_dim(self.path, &self.toks[op], lhs, rhs);
                self.sink.push(d);
            }
            dim = if compound {
                Dim::Unknown
            } else if lhs == rhs {
                lhs
            } else if lhs == Dim::Bot {
                rhs
            } else if rhs == Dim::Bot {
                lhs
            } else {
                Dim::Unknown
            };
        }
        dim
    }

    fn mul_level(&mut self) -> Dim {
        let mut dim = self.unary();
        while let Some(t) = self.peek() {
            let op = match t.text.as_str() {
                "*" | "/" | "%" if t.kind == Kind::Punct => t.text.clone(),
                _ => break,
            };
            let at = self.pos;
            let compound = self.glued('=');
            self.pos += 1 + usize::from(compound);
            let before = self.pos;
            let rhs = self.unary();
            if self.pos == before {
                self.pos = at;
                break;
            }
            dim = if compound {
                Dim::Unknown
            } else {
                match op.as_str() {
                    "*" => Dim::mul(dim, rhs),
                    "/" => Dim::div(dim, rhs),
                    _ => {
                        if dim == rhs {
                            dim
                        } else {
                            Dim::Unknown
                        }
                    }
                }
            };
        }
        dim
    }

    fn unary(&mut self) -> Dim {
        let mut saw_not = false;
        while let Some(t) = self.peek() {
            if t.is_punct('-') || t.is_punct('*') || t.is_punct('&') {
                self.pos += 1;
            } else if t.is_punct('!') && !self.glued('=') {
                saw_not = true;
                self.pos += 1;
            } else {
                break;
            }
        }
        let d = self.postfix();
        if saw_not {
            Dim::Unknown
        } else {
            d
        }
    }

    fn postfix(&mut self) -> Dim {
        let mut dim = self.primary();
        while let Some(t) = self.peek() {
            if t.is_punct('.') && !self.glued('.') {
                let Some(n) = self.toks.get(self.pos + 1) else {
                    break;
                };
                match n.kind {
                    Kind::Int | Kind::Float => {
                        // Tuple/newtype field: `.0` keeps the dimension.
                        dim = if n.text == "0" { dim } else { Dim::Unknown };
                        self.pos += 2;
                    }
                    Kind::Ident => {
                        // Skip an optional turbofish between name and `(`.
                        let mut open = self.pos + 2;
                        if self.toks.get(open).is_some_and(|t| t.is_punct(':'))
                            && self.toks.get(open + 1).is_some_and(|t| t.is_punct(':'))
                            && self.toks.get(open + 2).is_some_and(|t| t.is_punct('<'))
                        {
                            match skip_generics(self.toks, open + 2) {
                                Some(after) => open = after,
                                None => break,
                            }
                        }
                        if self.toks.get(open).is_some_and(|t| t.is_punct('(')) {
                            let Some(close) = matching_close(self.toks, open) else {
                                break;
                            };
                            let args = self.eval_args(open + 1, close);
                            let name = n.clone();
                            dim = self.method(dim, &name, &args);
                            self.pos = close + 1;
                        } else if n.is_ident("await") {
                            self.pos += 2;
                        } else {
                            dim = Dim::Unknown;
                            self.pos += 2;
                        }
                    }
                    _ => break,
                }
                continue;
            }
            if t.is_ident("as") {
                self.pos += 1;
                let keep = self
                    .peek()
                    .is_some_and(|t| t.is_ident("f64") || t.is_ident("f32"));
                if self.peek().is_some_and(|t| t.kind == Kind::Ident) {
                    self.pos += 1;
                }
                if !keep {
                    dim = Dim::Unknown;
                }
                continue;
            }
            if t.is_punct('?') {
                self.pos += 1;
                continue;
            }
            if t.is_punct('(') {
                // Calling an expression (closure call, fn-typed local).
                let Some(close) = matching_close(self.toks, self.pos) else {
                    break;
                };
                self.eval_args(self.pos + 1, close);
                self.pos = close + 1;
                dim = Dim::Unknown;
                continue;
            }
            if t.is_punct('[') {
                let Some(close) = matching_close(self.toks, self.pos) else {
                    break;
                };
                self.eval_args(self.pos + 1, close);
                self.pos = close + 1;
                continue;
            }
            break;
        }
        dim
    }

    /// Evaluates a comma-separated argument region, returning one dimension
    /// per argument (violations inside arguments are reported normally).
    fn eval_args(&mut self, lo: usize, hi: usize) -> Vec<Dim> {
        let saved = self.pos;
        let mut dims = Vec::new();
        let mut start = lo;
        let mut depth = 0i32;
        for i in lo..=hi {
            let at_end = i == hi;
            if !at_end {
                let t = &self.toks[i];
                if t.kind == Kind::Punct {
                    match t.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        _ => {}
                    }
                }
            }
            if at_end || (self.toks[i].is_punct(',') && depth == 0) {
                if i > start {
                    self.pos = start;
                    let mut first = None;
                    while self.pos < i {
                        let before = self.pos;
                        let d = self.expr_bounded(i);
                        if first.is_none() {
                            first = Some(d);
                        }
                        if self.pos == before {
                            self.pos += 1;
                        }
                    }
                    dims.push(first.unwrap_or(Dim::Unknown));
                }
                start = i + 1;
            }
        }
        self.pos = saved;
        dims
    }

    /// Like [`Eval::expr`] but refuses to scan past `hi` (used for argument
    /// sub-regions).
    fn expr_bounded(&mut self, hi: usize) -> Dim {
        // The recursive parser only ever consumes balanced regions, and an
        // argument region is balanced, so a plain expr() stays within it.
        let d = self.expr();
        if self.pos > hi {
            self.pos = hi;
        }
        d
    }

    /// The float/unit method table: how a method call transforms the
    /// receiver's dimension, with the angle-hygiene checks.
    fn method(&mut self, recv: Dim, name: &Token, _args: &[Dim]) -> Dim {
        match name.text.as_str() {
            "get" | "value" => recv,
            "abs" | "min" | "max" | "clamp" | "floor" | "ceil" | "round" | "trunc" | "signum"
            | "copysign" | "rem_euclid" => recv,
            "sin" | "cos" | "tan" | "sin_cos" => {
                if recv.known() && recv != Dim::Radians && recv != Dim::Ratio {
                    self.report(
                        name,
                        Rule::UnitAngleRaw,
                        format!(
                            "trigonometry on {}; route the angle through Radians \
                             (e.g. Radians::from_degrees) first",
                            recv.label()
                        ),
                    );
                }
                if name.text == "sin_cos" {
                    Dim::Unknown
                } else {
                    Dim::Ratio
                }
            }
            "to_radians" => {
                if recv == Dim::Radians {
                    self.report(
                        name,
                        Rule::UnitAngleRaw,
                        "to_radians() on a value already tracked as radians; \
                         this double-converts the angle"
                            .to_string(),
                    );
                }
                Dim::Radians
            }
            "to_degrees" => Dim::Degrees,
            "atan" | "asin" | "acos" | "atan2" => Dim::Radians,
            _ => Dim::Unknown,
        }
    }

    fn primary(&mut self) -> Dim {
        let Some(t) = self.peek() else {
            return Dim::Unknown;
        };
        match t.kind {
            Kind::Float | Kind::Int => {
                self.pos += 1;
                Dim::Bot
            }
            Kind::Str | Kind::Char | Kind::Lifetime => {
                self.pos += 1;
                Dim::Unknown
            }
            Kind::Ident => self.ident_primary(),
            Kind::Punct => match t.text.as_str() {
                "(" => {
                    let Some(close) = matching_close(self.toks, self.pos) else {
                        self.pos += 1;
                        return Dim::Unknown;
                    };
                    let dims = self.eval_args(self.pos + 1, close);
                    self.pos = close + 1;
                    if dims.len() == 1 {
                        dims[0]
                    } else {
                        Dim::Unknown
                    }
                }
                "{" => {
                    let Some(close) = matching_close(self.toks, self.pos) else {
                        self.pos += 1;
                        return Dim::Unknown;
                    };
                    self.eval_args(self.pos + 1, close);
                    self.pos = close + 1;
                    Dim::Unknown
                }
                "[" => {
                    let Some(close) = matching_close(self.toks, self.pos) else {
                        self.pos += 1;
                        return Dim::Unknown;
                    };
                    self.eval_args(self.pos + 1, close);
                    self.pos = close + 1;
                    Dim::Unknown
                }
                "|" => self.closure(),
                "#" => {
                    // Attribute on an expression: skip it, keep going.
                    if self.toks.get(self.pos + 1).is_some_and(|t| t.is_punct('[')) {
                        if let Some(close) = matching_close(self.toks, self.pos + 1) {
                            self.pos = close + 1;
                            return self.primary();
                        }
                    }
                    self.pos += 1;
                    Dim::Unknown
                }
                _ => Dim::Unknown,
            },
        }
    }

    fn closure(&mut self) -> Dim {
        // `|params| body` or `|| body`; the body is scanned like any other
        // expression (one level — blocks recurse through primary()).
        self.pos += 1;
        if self.peek().is_some_and(|t| t.is_punct('|')) {
            self.pos += 1;
        } else {
            let mut depth = 0i32;
            while let Some(t) = self.peek() {
                if t.kind == Kind::Punct {
                    match t.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "|" if depth == 0 => {
                            self.pos += 1;
                            break;
                        }
                        _ => {}
                    }
                }
                self.pos += 1;
            }
        }
        let before = self.pos;
        self.expr();
        if self.pos == before {
            self.pos += 1;
        }
        Dim::Unknown
    }

    fn ident_primary(&mut self) -> Dim {
        let first = self.toks[self.pos].clone();
        if is_keyword(&first.text) {
            self.pos += 1;
            if first.text == "move" {
                // `move |..| ..` — keep parsing the closure.
                return self.primary();
            }
            return Dim::Unknown;
        }
        // Macro invocation: scan the body, no dimension information.
        if self.toks.get(self.pos + 1).is_some_and(|t| t.is_punct('!')) {
            if let Some(close) = matching_close(self.toks, self.pos + 2) {
                self.eval_args(self.pos + 3, close);
                self.pos = close + 1;
                return Dim::Unknown;
            }
        }
        // Path: `A::B::C` (turbofish segments skipped).
        let mut segs: Vec<Token> = vec![first];
        self.pos += 1;
        loop {
            let colon2 = self.peek().is_some_and(|t| t.is_punct(':'))
                && self.toks.get(self.pos + 1).is_some_and(|t| t.is_punct(':'));
            if !colon2 {
                break;
            }
            let after = self.pos + 2;
            if self.toks.get(after).is_some_and(|t| t.is_punct('<')) {
                match skip_generics(self.toks, after) {
                    Some(next) => {
                        self.pos = next;
                        continue;
                    }
                    None => break,
                }
            }
            if self.toks.get(after).is_some_and(|t| t.kind == Kind::Ident) {
                segs.push(self.toks[after].clone());
                self.pos = after + 1;
                continue;
            }
            break;
        }
        let unit = segs
            .iter()
            .find_map(|s| unit_dim(&s.text).map(|d| (s.text.clone(), d)));
        if self.peek().is_some_and(|t| t.is_punct('(')) {
            let open = self.pos;
            let Some(close) = matching_close(self.toks, open) else {
                self.pos += 1;
                return Dim::Unknown;
            };
            let args = self.eval_args(open + 1, close);
            self.pos = close + 1;
            let last = segs.last().map(|s| s.text.as_str()).unwrap_or("");
            if let Some((unit_name, dim)) = unit {
                let name_tok = segs
                    .last()
                    .cloned()
                    .unwrap_or_else(|| self.toks[open].clone());
                match last {
                    "new" | "raw" => {
                        if let Some(&arg) = args.first() {
                            if arg.known() && arg != dim {
                                self.report(
                                    &name_tok,
                                    Rule::UnitRawReentry,
                                    format!(
                                        "raw value carrying {} re-enters {}::{} \
                                         (expects {}); convert before wrapping",
                                        arg.label(),
                                        unit_name,
                                        last,
                                        dim.label()
                                    ),
                                );
                            }
                        }
                        return dim;
                    }
                    "from_degrees" if dim == Dim::Radians => {
                        if let Some(&arg) = args.first() {
                            if arg.known() && arg != Dim::Degrees {
                                self.report(
                                    &name_tok,
                                    Rule::UnitRawReentry,
                                    format!(
                                        "Radians::from_degrees over a value carrying {}; \
                                         the argument must be degrees",
                                        arg.label()
                                    ),
                                );
                            }
                        }
                        return Dim::Radians;
                    }
                    _ => return Dim::Unknown,
                }
            }
            return Dim::Unknown;
        }
        if segs.len() == 1 {
            return self.env.get(&segs[0].text).copied().unwrap_or(Dim::Unknown);
        }
        // `Meters::ZERO`-style unit constants keep the unit's dimension.
        if segs.len() == 2 {
            if let Some((_, dim)) = unit {
                return dim;
            }
        }
        Dim::Unknown
    }
}

// ---------------------------------------------------------------------------
// Unordered hash-collection reductions
// ---------------------------------------------------------------------------

/// Tracks which locals hold `HashMap`/`HashSet` values, flagging
/// iterate-then-reduce chains whose result depends on hash iteration order.
pub struct HashAnalysis<'a> {
    path: &'a str,
    params: &'a [cfg::Param],
}

const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];
const HASH_ITERS: [&str; 8] = [
    "iter",
    "iter_mut",
    "into_iter",
    "values",
    "values_mut",
    "keys",
    "drain",
    "par_iter",
];
const REDUCERS: [&str; 6] = ["sum", "product", "fold", "reduce", "collect", "for_each"];

impl Analysis for HashAnalysis<'_> {
    type Fact = BTreeSet<String>;

    fn boundary(&self) -> BTreeSet<String> {
        self.params
            .iter()
            .filter(|p| {
                p.ty.iter()
                    .any(|t| t.kind == Kind::Ident && HASH_TYPES.contains(&t.text.as_str()))
            })
            .map(|p| p.name.clone())
            .collect()
    }

    fn join(&self, a: &BTreeSet<String>, b: &BTreeSet<String>) -> BTreeSet<String> {
        a.union(b).cloned().collect()
    }

    fn transfer(
        &self,
        tokens: &[Token],
        node: &CfgNode,
        fact: &BTreeSet<String>,
        sink: &mut Vec<Diagnostic>,
    ) -> BTreeSet<String> {
        let toks = &tokens[node.tokens.clone()];
        let mut fact = fact.clone();
        // Binding updates: `let [mut] name ... = rhs` / `name = rhs`.
        if node.kind == NodeKind::Stmt {
            let mut j = 0;
            let is_let = toks.first().is_some_and(|t| t.is_ident("let"));
            if is_let {
                j = 1;
                if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                    j += 1;
                }
            }
            let named = toks.get(j).is_some_and(|t| {
                t.kind == Kind::Ident
                    && !is_keyword(&t.text)
                    && toks
                        .get(j + 1)
                        .is_some_and(|n| n.is_punct(':') || n.is_punct('='))
            });
            if named && (is_let || find_standalone_eq(toks, j + 1).is_some()) {
                let name = toks[j].text.clone();
                let hashy = toks[j + 1..]
                    .iter()
                    .any(|t| t.kind == Kind::Ident && HASH_TYPES.contains(&t.text.as_str()));
                if hashy {
                    fact.insert(name);
                } else if is_let || find_standalone_eq(toks, j + 1) == Some(j + 1) {
                    fact.remove(&name);
                }
            }
        }
        // Violation scan: `tracked.iter() ... .sum()` within one node.
        for k in 0..toks.len() {
            if !toks[k].is_punct('.') {
                continue;
            }
            let Some(m) = toks.get(k + 1) else { continue };
            if m.kind != Kind::Ident || !HASH_ITERS.contains(&m.text.as_str()) {
                continue;
            }
            if !call_open(toks, k + 2).is_some_and(|o| toks.get(o).is_some_and(|t| t.is_punct('(')))
            {
                continue;
            }
            let recv_tracked =
                k > 0 && toks[k - 1].kind == Kind::Ident && fact.contains(&toks[k - 1].text);
            if !recv_tracked {
                continue;
            }
            let reduced = (k + 2..toks.len()).any(|r| {
                toks[r].is_punct('.')
                    && toks.get(r + 1).is_some_and(|t| {
                        t.kind == Kind::Ident && REDUCERS.contains(&t.text.as_str())
                    })
                    && call_open(toks, r + 2)
                        .is_some_and(|o| toks.get(o).is_some_and(|t| t.is_punct('(')))
            });
            if reduced {
                sink.push(Diagnostic {
                    path: self.path.to_string(),
                    line: m.line,
                    col: m.col,
                    rule: Rule::UnorderedReduce,
                    message: format!(
                        "reduction over `{}.{}()` depends on hash iteration order; \
                         use a BTree collection or sort before reducing",
                        toks[k - 1].text,
                        m.text
                    ),
                });
            }
        }
        fact
    }
}

/// Index of the call `(` after an optional turbofish starting at `at`.
fn call_open(toks: &[Token], at: usize) -> Option<usize> {
    if toks.get(at).is_some_and(|t| t.is_punct(':'))
        && toks.get(at + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(at + 2).is_some_and(|t| t.is_punct('<'))
    {
        return skip_generics(toks, at + 2);
    }
    Some(at)
}

// ---------------------------------------------------------------------------
// Parallel-determinism region checks
// ---------------------------------------------------------------------------

/// Functions whose closure arguments run on the `shims/rayon` thread pool.
const PAR_ENTRY_FNS: [&str; 7] = [
    "parallel_map",
    "fan_out",
    "sweep_map",
    "run_jobs",
    "install",
    "spawn",
    "ordered_parallel_map",
];

/// `par_iter`-style adaptors that start a parallel chain.
const PAR_ITER_METHODS: [&str; 3] = ["par_iter", "into_par_iter", "par_iter_mut"];

/// Chain adaptors whose closures execute in parallel.
const PAR_CHAIN_METHODS: [&str; 8] = [
    "map",
    "for_each",
    "filter",
    "filter_map",
    "flat_map",
    "inspect",
    "fold",
    "reduce",
];

/// Chain terminators that merge parallel results in nondeterministic order.
const PAR_REDUCE_METHODS: [&str; 4] = ["sum", "product", "reduce", "fold"];

/// Methods that reach through shared-mutable state.
const SHARED_MUT_METHODS: [&str; 13] = [
    "lock",
    "borrow_mut",
    "store",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "fetch_max",
    "fetch_min",
    "compare_exchange",
    "compare_exchange_weak",
];

/// One closure handed to a parallel entry point.
struct ParRegion {
    params: Range<usize>,
    body: Range<usize>,
}

/// Region-based parallel-determinism scan over one function body (no fixed
/// point needed: the checks are local to each parallel closure).
fn par_scan(path: &str, tokens: &[Token], body: Range<usize>, out: &mut Vec<Diagnostic>) {
    let (lo, hi) = (body.start, body.end);
    let mut regions = Vec::new();
    let mut i = lo;
    while i < hi {
        let t = &tokens[i];
        // `parallel_map(...)` / `scope.spawn(...)`-style entry points.
        if t.kind == Kind::Ident
            && PAR_ENTRY_FNS.contains(&t.text.as_str())
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            if let Some(close) = matching_close(tokens, i + 1) {
                collect_closures(tokens, i + 2, close.min(hi), &mut regions);
            }
        }
        // `.par_iter()`-style chains.
        if t.is_punct('.')
            && tokens.get(i + 1).is_some_and(|n| {
                n.kind == Kind::Ident && PAR_ITER_METHODS.contains(&n.text.as_str())
            })
            && tokens.get(i + 2).is_some_and(|n| n.is_punct('('))
        {
            if let Some(close) = matching_close(tokens, i + 2) {
                let mut p = close + 1;
                while p + 1 < hi && tokens[p].is_punct('.') && tokens[p + 1].kind == Kind::Ident {
                    let m = tokens[p + 1].clone();
                    let Some(open) = call_open(tokens, p + 2) else {
                        break;
                    };
                    if !tokens.get(open).is_some_and(|t| t.is_punct('(')) {
                        // Field access mid-chain: stop walking.
                        break;
                    }
                    let Some(c) = matching_close(tokens, open) else {
                        break;
                    };
                    if PAR_CHAIN_METHODS.contains(&m.text.as_str()) {
                        collect_closures(tokens, open + 1, c.min(hi), &mut regions);
                    }
                    if PAR_REDUCE_METHODS.contains(&m.text.as_str()) {
                        out.push(Diagnostic {
                            path: path.to_string(),
                            line: m.line,
                            col: m.col,
                            rule: Rule::ParFloatAccum,
                            message: format!(
                                "`.{}()` merges parallel results in nondeterministic order; \
                                 collect() in index order first, then reduce sequentially",
                                m.text
                            ),
                        });
                    }
                    p = c + 1;
                }
            }
        }
        i += 1;
    }
    for r in &regions {
        region_checks(path, tokens, r, out);
    }
}

/// Collects the closures lexically inside `[lo, hi)` (nested closures are
/// re-scanned as part of their enclosing region; the driver dedups).
fn collect_closures(tokens: &[Token], lo: usize, hi: usize, out: &mut Vec<ParRegion>) {
    let mut i = lo;
    while i < hi {
        let t = &tokens[i];
        let closure_ctx = i == lo
            || tokens[i - 1].is_punct('(')
            || tokens[i - 1].is_punct(',')
            || tokens[i - 1].is_punct('=')
            || tokens[i - 1].is_punct('{')
            || tokens[i - 1].is_ident("move");
        if !(t.is_punct('|') && closure_ctx) {
            i += 1;
            continue;
        }
        // Parameter list: to the matching `|` at bracket depth 0 (or the
        // immediately following `|` for `||`).
        let params_start = i + 1;
        let mut params_end = None;
        if tokens.get(i + 1).is_some_and(|n| n.is_punct('|')) {
            params_end = Some(i + 1);
        } else {
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < hi {
                let t = &tokens[j];
                if t.kind == Kind::Punct {
                    match t.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "|" if depth == 0 => {
                            params_end = Some(j);
                            break;
                        }
                        _ => {}
                    }
                }
                j += 1;
            }
        }
        let Some(pend) = params_end else {
            i += 1;
            continue;
        };
        // Body: a block, or the expression up to the top-level `,`.
        let mut body_start = pend + 1;
        // Skip a `-> Ty` return annotation.
        if tokens.get(body_start).is_some_and(|t| t.is_punct('-'))
            && tokens
                .get(body_start + 1)
                .is_some_and(|t| t.is_punct('>') && adjacent(&tokens[body_start], t))
        {
            let mut j = body_start + 2;
            while j < hi && !tokens[j].is_punct('{') {
                j += 1;
            }
            body_start = j;
        }
        let body_end = if tokens.get(body_start).is_some_and(|t| t.is_punct('{')) {
            matching_close(tokens, body_start)
                .map(|e| (e + 1).min(hi))
                .unwrap_or(hi)
        } else {
            let mut depth = 0i32;
            let mut j = body_start;
            while j < hi {
                let t = &tokens[j];
                if t.kind == Kind::Punct {
                    match t.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "," if depth == 0 => break,
                        _ => {}
                    }
                    if depth < 0 {
                        break;
                    }
                }
                j += 1;
            }
            j
        };
        out.push(ParRegion {
            params: params_start..pend,
            body: body_start..body_end,
        });
        i = pend + 1;
    }
}

/// Names declared *inside* a parallel region (closure params, `let` and
/// `for` bindings, nested closure params): mutation of these is private
/// per-item state, not captured shared state.
fn declared_names(tokens: &[Token], region: &ParRegion) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    collect_param_names(&tokens[region.params.clone()], &mut out);
    let (lo, hi) = (region.body.start, region.body.end);
    let mut i = lo;
    while i < hi {
        let t = &tokens[i];
        if t.is_ident("let") {
            let mut j = i + 1;
            while j < hi {
                let t = &tokens[j];
                if t.is_punct('=') || t.is_punct(';') || t.is_punct(':') {
                    break;
                }
                if t.kind == Kind::Ident && !is_keyword(&t.text) {
                    out.insert(t.text.clone());
                }
                j += 1;
            }
            i = j;
            continue;
        }
        if t.is_ident("for") {
            let mut j = i + 1;
            while j < hi && !tokens[j].is_ident("in") {
                if tokens[j].kind == Kind::Ident && !is_keyword(&tokens[j].text) {
                    out.insert(tokens[j].text.clone());
                }
                j += 1;
            }
            i = j;
            continue;
        }
        if t.is_punct('|') {
            let ctx = i == lo
                || tokens[i - 1].is_punct('(')
                || tokens[i - 1].is_punct(',')
                || tokens[i - 1].is_punct('=')
                || tokens[i - 1].is_punct('{')
                || tokens[i - 1].is_ident("move");
            if ctx {
                let mut depth = 0i32;
                let mut j = i + 1;
                while j < hi {
                    let t = &tokens[j];
                    if t.kind == Kind::Punct {
                        match t.text.as_str() {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => depth -= 1,
                            "|" if depth == 0 => break,
                            _ => {}
                        }
                    }
                    j += 1;
                }
                if j < hi {
                    collect_param_names(&tokens[i + 1..j], &mut out);
                    i = j + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

/// Binding names out of a closure parameter list (type annotations after a
/// top-level `:` are skipped).
fn collect_param_names(params: &[Token], out: &mut BTreeSet<String>) {
    let mut depth = 0i32;
    let mut in_type = false;
    for (i, t) in params.iter().enumerate() {
        if t.kind == Kind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth -= 1,
                ":" if depth == 0 => in_type = true,
                "," if depth == 0 => in_type = false,
                _ => {}
            }
            continue;
        }
        if !in_type && t.kind == Kind::Ident && !is_keyword(&t.text) {
            let _ = i;
            out.insert(t.text.clone());
        }
    }
}

/// The two per-region checks: order-sensitive accumulation into captured
/// state, and shared-mutable access.
fn region_checks(path: &str, tokens: &[Token], region: &ParRegion, out: &mut Vec<Diagnostic>) {
    let declared = declared_names(tokens, region);
    let (lo, hi) = (region.body.start, region.body.end);
    for k in lo..hi {
        let t = &tokens[k];
        if t.kind != Kind::Punct {
            continue;
        }
        // `base.path += ...` (also `-=`, `*=`, `/=`) on a captured base.
        if t.text.len() == 1
            && "+-*/".contains(&t.text)
            && tokens
                .get(k + 1)
                .is_some_and(|n| n.is_punct('=') && adjacent(t, n))
            && k > lo
        {
            let mut j = k - 1;
            if tokens[j].kind == Kind::Ident {
                // Walk a `a.b.c` chain back to its base.
                while j >= lo + 2
                    && tokens[j - 1].is_punct('.')
                    && tokens[j - 2].kind == Kind::Ident
                {
                    j -= 2;
                }
                let base = &tokens[j];
                if !is_keyword(&base.text) && !declared.contains(&base.text) || base.text == "self"
                {
                    out.push(Diagnostic {
                        path: path.to_string(),
                        line: t.line,
                        col: t.col,
                        rule: Rule::ParFloatAccum,
                        message: format!(
                            "`{}` accumulates into captured state inside a parallel closure; \
                             results merge in nondeterministic order — return per-item values \
                             and reduce after the ordered collect",
                            base.text
                        ),
                    });
                }
            }
        }
        // `.lock()` / `.borrow_mut()` / atomic writes inside the region.
        if t.is_punct('.')
            && tokens.get(k + 1).is_some_and(|n| {
                n.kind == Kind::Ident && SHARED_MUT_METHODS.contains(&n.text.as_str())
            })
            && tokens.get(k + 2).is_some_and(|n| n.is_punct('('))
        {
            let m = &tokens[k + 1];
            out.push(Diagnostic {
                path: path.to_string(),
                line: m.line,
                col: m.col,
                rule: Rule::ParSharedMut,
                message: format!(
                    "`.{}()` touches shared mutable state inside a parallel closure; \
                     keep parallel closures pure and fan results in via the ordered collect",
                    m.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Runs both analysis families over every fn of `file` outside test items
/// and macro bodies, appending pre-waiver findings to `out`. Returns the
/// number of functions analysed.
pub fn analyse(path: &str, file: &Lexed, out: &mut Vec<Diagnostic>) -> usize {
    let tokens = &file.tokens;
    let mut analysed = 0usize;
    let mut raw = Vec::new();
    for f in cfg::find_fns(tokens) {
        if file.skipped(f.line) {
            continue;
        }
        analysed += 1;
        let graph = cfg::build_cfg(tokens, f.body.clone());
        let unit = UnitAnalysis {
            path,
            params: &f.params,
        };
        run_to_fixpoint(&unit, tokens, &graph, &mut raw);
        let hash = HashAnalysis {
            path,
            params: &f.params,
        };
        run_to_fixpoint(&hash, tokens, &graph, &mut raw);
        par_scan(path, tokens, f.body.clone(), &mut raw);
    }
    out.extend(raw.into_iter().filter(|d| !file.skipped(d.line)));
    analysed
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = "crates/reach/src/fixture.rs";

    fn fired(src: &str, rule: Rule) -> bool {
        let mut out = Vec::new();
        analyse(FIXTURE, &crate::ast::lexer::lex(src), &mut out);
        out.iter().any(|d| d.rule == rule)
    }

    #[test]
    fn mixed_dimension_addition_fires() {
        let src = "pub fn f(d: Meters, t: Seconds) -> f64 { d.get() + t.get() }\n";
        assert!(fired(src, Rule::UnitMixedDim));
    }

    #[test]
    fn same_dimension_addition_is_silent() {
        let src = "pub fn f(a: Meters, b: Meters) -> f64 { a.get() + b.get() }\n";
        assert!(!fired(src, Rule::UnitMixedDim));
    }

    #[test]
    fn dimension_propagates_through_locals_and_branches() {
        let src = "pub fn f(v: MetersPerSecond, dt: Seconds, c: bool) -> f64 {\n\
                   let d = v.get() * dt.get();\n\
                   let x = if c { 1.0 } else { 2.0 };\n\
                   d + dt.get() + x\n}\n";
        // `d` is length, `dt` is time: the second `+` mixes them.
        assert!(fired(src, Rule::UnitMixedDim));
    }

    #[test]
    fn speed_times_time_is_length() {
        let src = "pub fn f(v: MetersPerSecond, dt: Seconds, d0: Meters) -> f64 {\n\
                   let d = v.get() * dt.get();\n\
                   d + d0.get()\n}\n";
        assert!(!fired(src, Rule::UnitMixedDim));
    }

    #[test]
    fn raw_reentry_with_wrong_dimension_fires() {
        let src = "pub fn f(t: Seconds) -> Meters { Meters::new(t.get()) }\n";
        assert!(fired(src, Rule::UnitRawReentry));
    }

    #[test]
    fn raw_reentry_with_matching_dimension_is_silent() {
        let src = "pub fn f(d: Meters) -> Meters { Meters::new(d.get() * 2.0) }\n";
        assert!(!fired(src, Rule::UnitRawReentry));
    }

    #[test]
    fn trig_on_degrees_fires() {
        let src = "pub fn f() -> f64 { let heading_deg = 45.0; heading_deg.sin() }\n";
        assert!(fired(src, Rule::UnitAngleRaw));
    }

    #[test]
    fn trig_on_radians_is_silent() {
        let src = "pub fn f(a: Radians) -> f64 { a.get().sin() }\n";
        assert!(!fired(src, Rule::UnitAngleRaw));
    }

    #[test]
    fn captured_accumulation_in_parallel_closure_fires() {
        let src = "pub fn f(xs: &[f64]) -> f64 {\n\
                   let mut total = 0.0;\n\
                   parallel_map(xs, |x| { total += x; });\n\
                   total\n}\n";
        assert!(fired(src, Rule::ParFloatAccum));
    }

    #[test]
    fn local_accumulation_in_parallel_closure_is_silent() {
        let src = "pub fn f(xs: &[Vec<f64>]) -> Vec<f64> {\n\
                   parallel_map(xs, |row| { let mut acc = 0.0; for v in row { acc += v; } acc })\n}\n";
        assert!(!fired(src, Rule::ParFloatAccum));
    }

    #[test]
    fn lock_in_parallel_closure_fires() {
        let src = "pub fn f(xs: &[f64]) {\n\
                   parallel_map(xs, |x| { shared.lock().unwrap().push(*x); });\n}\n";
        assert!(fired(src, Rule::ParSharedMut));
    }

    #[test]
    fn par_iter_sum_fires() {
        let src = "pub fn f(xs: &[f64]) -> f64 { xs.par_iter().map(|x| x * 2.0).sum() }\n";
        assert!(fired(src, Rule::ParFloatAccum));
    }

    #[test]
    fn hash_map_iterate_then_reduce_fires() {
        let src = "pub fn f(m: &HashMap<u32, f64>) -> f64 { m.values().sum() }\n";
        assert!(fired(src, Rule::UnorderedReduce));
    }

    #[test]
    fn btree_map_iterate_then_reduce_is_silent() {
        let src = "pub fn f(m: &BTreeMap<u32, f64>) -> f64 { m.values().sum() }\n";
        assert!(!fired(src, Rule::UnorderedReduce));
    }
}
