//! Per-function statement-level control-flow graphs over the token stream.
//!
//! The dataflow rules (see [`super::flow`]) need just enough control
//! structure to merge facts at join points: statements are nodes;
//! `if`/`else`, `while`, `for`, `loop` and `match` contribute branch edges
//! and loop back edges; and any construct the best-effort parser cannot
//! shape collapses into a single opaque statement node. That degradation is
//! graceful by design: analyses scan every token of a node, so an unshaped
//! region only loses *join precision*, never coverage.
//!
//! Hand-rolled like the rest of the `xtask` stack — the build environment
//! is offline, so `syn` is unavailable.

use std::ops::Range;

use super::lexer::{Kind, Token};
use super::rules::{matching_close, skip_generics, split_params};

/// What produced a CFG node; the transfer functions use this to decide how
/// to read the node's tokens (e.g. `for` headers bind their loop pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An ordinary statement (or an opaque region the parser gave up on).
    Stmt,
    /// An `if`/`else if` condition (may carry `let` pattern bindings).
    Cond,
    /// A `while` condition (may carry `let` pattern bindings).
    While,
    /// A `for <pat> in <iter>` header: binds the pattern, evaluates the
    /// iterator expression.
    ForHeader,
    /// A `match <scrutinee>` head.
    MatchHead,
    /// One match arm's pattern (plus guard, when present): binds every
    /// lowercase identifier in the pattern.
    ArmPattern,
}

/// One statement-level CFG node: a token range plus successor edges.
#[derive(Debug, Clone)]
pub struct CfgNode {
    /// Token index range (into the file token stream) this node covers.
    pub tokens: Range<usize>,
    /// How to interpret the tokens.
    pub kind: NodeKind,
    /// Successor node indices.
    pub succs: Vec<usize>,
}

/// A per-function control-flow graph.
#[derive(Debug, Clone, Default)]
pub struct Cfg {
    /// Nodes in creation order.
    pub nodes: Vec<CfgNode>,
    /// The function entry node, when the body is non-empty.
    pub entry: Option<usize>,
}

/// One function parameter: binding name plus its type tokens.
#[derive(Debug, Clone)]
pub struct Param {
    /// The parameter's binding name.
    pub name: String,
    /// The cloned type tokens (after the `:`).
    pub ty: Vec<Token>,
}

/// One `fn` item with a body, located in a file token stream.
#[derive(Debug, Clone)]
pub struct FnUnit {
    /// The function name.
    pub name: String,
    /// 1-based line of the `fn` name token.
    pub line: usize,
    /// Simple-binding parameters (destructuring patterns and `self`
    /// receivers are omitted — the analyses treat them as unknown).
    pub params: Vec<Param>,
    /// Token index range of the body, *exclusive* of the outer braces.
    pub body: Range<usize>,
}

/// Finds every `fn` item with a body. Nested fns are reported both as
/// their own unit and inside the enclosing body; the flow driver dedups
/// the resulting diagnostics by position.
#[must_use]
pub fn find_fns(tokens: &[Token]) -> Vec<FnUnit> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].is_ident("fn") && tokens.get(i + 1).is_some_and(|t| t.kind == Kind::Ident)) {
            i += 1;
            continue;
        }
        let name_tok = &tokens[i + 1];
        let mut j = i + 2;
        if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
            match skip_generics(tokens, j) {
                Some(after) => j = after,
                None => {
                    i += 1;
                    continue;
                }
            }
        }
        if !tokens.get(j).is_some_and(|t| t.is_punct('(')) {
            i += 1;
            continue;
        }
        let Some(close) = matching_close(tokens, j) else {
            i += 1;
            continue;
        };
        let params = split_params(&tokens[j + 1..close])
            .into_iter()
            .map(|(name, ty)| Param {
                name: name.text.clone(),
                ty: ty.to_vec(),
            })
            .collect();
        // Scan past the return type / where clause to the body `{` (or a
        // `;` for bodyless trait declarations).
        let mut k = close + 1;
        let mut open = None;
        while let Some(t) = tokens.get(k) {
            if t.is_punct('{') {
                open = Some(k);
                break;
            }
            if t.is_punct(';') {
                break;
            }
            k += 1;
        }
        let Some(open) = open else {
            i = k + 1;
            continue;
        };
        let Some(end) = matching_close(tokens, open) else {
            i += 1;
            continue;
        };
        out.push(FnUnit {
            name: name_tok.text.clone(),
            line: name_tok.line,
            params,
            body: open + 1..end,
        });
        // Continue *inside* the body so nested fns are found too.
        i = open + 1;
    }
    out
}

/// Builds the statement-level CFG for the body token range of one fn.
#[must_use]
pub fn build_cfg(tokens: &[Token], body: Range<usize>) -> Cfg {
    let mut cfg = Cfg::default();
    let (entry, _exits) = seq(tokens, body, &mut cfg);
    cfg.entry = entry;
    cfg
}

impl Cfg {
    fn push(&mut self, tokens: Range<usize>, kind: NodeKind) -> usize {
        self.nodes.push(CfgNode {
            tokens,
            kind,
            succs: Vec::new(),
        });
        self.nodes.len() - 1
    }

    fn link(&mut self, from: &[usize], to: usize) {
        for &f in from {
            if !self.nodes[f].succs.contains(&to) {
                self.nodes[f].succs.push(to);
            }
        }
    }
}

/// Parses a statement sequence, returning `(entry, exits)`: the first node
/// of the region and the set of nodes whose control falls out of it.
fn seq(tokens: &[Token], range: Range<usize>, cfg: &mut Cfg) -> (Option<usize>, Vec<usize>) {
    let mut entry = None;
    let mut exits: Vec<usize> = Vec::new();
    let mut i = range.start;
    while i < range.end {
        let (e, x, next) = stmt(tokens, i, range.end, cfg);
        debug_assert!(next > i, "statement parser must make progress");
        if let Some(e) = e {
            if entry.is_none() {
                entry = Some(e);
            }
            cfg.link(&exits, e);
            exits = x;
        }
        i = next.max(i + 1);
    }
    (entry, exits)
}

/// Parses one statement starting at `i`, returning its entry node, its
/// exit nodes and the index just past it.
fn stmt(
    tokens: &[Token],
    i: usize,
    hi: usize,
    cfg: &mut Cfg,
) -> (Option<usize>, Vec<usize>, usize) {
    let t = &tokens[i];
    if t.is_ident("if") {
        return if_stmt(tokens, i, hi, cfg);
    }
    if t.is_ident("while") || t.is_ident("for") {
        let kind = if t.is_ident("while") {
            NodeKind::While
        } else {
            NodeKind::ForHeader
        };
        let Some(open) = block_open(tokens, i + 1, hi) else {
            return opaque(tokens, i, hi, cfg);
        };
        let Some(end) = matching_close(tokens, open) else {
            return opaque(tokens, i, hi, cfg);
        };
        let header = cfg.push(i..open, kind);
        let (body_entry, body_exits) = seq(tokens, open + 1..end, cfg);
        if let Some(be) = body_entry {
            cfg.link(&[header], be);
            cfg.link(&body_exits, header);
        }
        return (Some(header), vec![header], end + 1);
    }
    if t.is_ident("loop") {
        let Some(open) = block_open(tokens, i + 1, hi) else {
            return opaque(tokens, i, hi, cfg);
        };
        let Some(end) = matching_close(tokens, open) else {
            return opaque(tokens, i, hi, cfg);
        };
        let (body_entry, body_exits) = seq(tokens, open + 1..end, cfg);
        if let Some(be) = body_entry {
            // Back edge; body exits also fall through (approximates `break`).
            cfg.link(&body_exits, be);
            return (Some(be), body_exits, end + 1);
        }
        return (None, Vec::new(), end + 1);
    }
    if t.is_ident("match") {
        return match_stmt(tokens, i, hi, cfg);
    }
    // Nested items (`fn`, `struct`, `impl`, ...) are not statements of the
    // enclosing body: a nested fn is analysed as its own unit, and scanning
    // its tokens with the *enclosing* function's environment would invent
    // bindings that do not exist there. Skip the whole item.
    if ["fn", "struct", "enum", "impl", "mod", "trait"]
        .iter()
        .any(|k| t.is_ident(k))
    {
        let mut depth = 0i32;
        let mut j = i;
        while j < hi {
            let t = &tokens[j];
            if t.kind == Kind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        let end = matching_close(tokens, j).unwrap_or(hi);
                        return (None, Vec::new(), (end + 1).max(i + 1));
                    }
                    ";" if depth == 0 => return (None, Vec::new(), j + 1),
                    _ => {}
                }
            }
            j += 1;
        }
        return (None, Vec::new(), hi);
    }
    // Plain statement: through the `;` at depth 0, or to the region end
    // (a trailing expression).
    let mut depth = 0i32;
    let mut j = i;
    while j < hi {
        let t = &tokens[j];
        if t.kind == Kind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth == 0 => {
                    let node = cfg.push(i..j + 1, NodeKind::Stmt);
                    return (Some(node), vec![node], j + 1);
                }
                _ => {}
            }
        }
        j += 1;
    }
    let node = cfg.push(i..hi, NodeKind::Stmt);
    (Some(node), vec![node], hi)
}

/// Fallback when a structured construct cannot be shaped: one opaque node
/// to the end of the region.
fn opaque(
    tokens: &[Token],
    i: usize,
    hi: usize,
    cfg: &mut Cfg,
) -> (Option<usize>, Vec<usize>, usize) {
    let _ = tokens;
    let node = cfg.push(i..hi, NodeKind::Stmt);
    (Some(node), vec![node], hi)
}

/// The first `{` at bracket depth 0 in `[from, hi)` — the block opener of a
/// condition/iterator header (Rust forbids bare struct literals there, so
/// the first depth-0 brace is the body).
fn block_open(tokens: &[Token], from: usize, hi: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().take(hi).skip(from) {
        if t.kind == Kind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => return Some(j),
                _ => {}
            }
        }
    }
    None
}

fn if_stmt(
    tokens: &[Token],
    i: usize,
    hi: usize,
    cfg: &mut Cfg,
) -> (Option<usize>, Vec<usize>, usize) {
    let Some(open) = block_open(tokens, i + 1, hi) else {
        return opaque(tokens, i, hi, cfg);
    };
    let Some(end) = matching_close(tokens, open) else {
        return opaque(tokens, i, hi, cfg);
    };
    let header = cfg.push(i..open, NodeKind::Cond);
    let (then_entry, then_exits) = seq(tokens, open + 1..end, cfg);
    let mut exits = Vec::new();
    match then_entry {
        Some(te) => {
            cfg.link(&[header], te);
            exits.extend(then_exits);
        }
        None => exits.push(header),
    }
    let mut next = end + 1;
    if tokens.get(next).is_some_and(|t| t.is_ident("else")) {
        if tokens.get(next + 1).is_some_and(|t| t.is_ident("if")) {
            let (ee, ex, after) = if_stmt(tokens, next + 1, hi, cfg);
            if let Some(ee) = ee {
                cfg.link(&[header], ee);
            }
            exits.extend(ex);
            next = after;
        } else if tokens.get(next + 1).is_some_and(|t| t.is_punct('{')) {
            let Some(eend) = matching_close(tokens, next + 1) else {
                return (Some(header), exits, hi);
            };
            let (else_entry, else_exits) = seq(tokens, next + 2..eend, cfg);
            match else_entry {
                Some(ee) => {
                    cfg.link(&[header], ee);
                    exits.extend(else_exits);
                }
                None => exits.push(header),
            }
            next = eend + 1;
        } else {
            exits.push(header);
        }
    } else {
        // No else: the condition can fall through.
        if !exits.contains(&header) {
            exits.push(header);
        }
    }
    (Some(header), exits, next)
}

fn match_stmt(
    tokens: &[Token],
    i: usize,
    hi: usize,
    cfg: &mut Cfg,
) -> (Option<usize>, Vec<usize>, usize) {
    let Some(open) = block_open(tokens, i + 1, hi) else {
        return opaque(tokens, i, hi, cfg);
    };
    let Some(end) = matching_close(tokens, open) else {
        return opaque(tokens, i, hi, cfg);
    };
    let head = cfg.push(i..open, NodeKind::MatchHead);
    let mut exits = Vec::new();
    let mut j = open + 1;
    while j < end {
        // Pattern (+ optional guard) runs to the `=>` at depth 0.
        let mut depth = 0i32;
        let mut arrow = None;
        let mut k = j;
        while k < end {
            let t = &tokens[k];
            if t.kind == Kind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "=" if depth == 0 && tokens.get(k + 1).is_some_and(|n| n.is_punct('>')) => {
                        arrow = Some(k);
                        break;
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        let Some(arrow) = arrow else {
            break;
        };
        let pat = cfg.push(j..arrow, NodeKind::ArmPattern);
        cfg.link(&[head], pat);
        let body_start = arrow + 2;
        let (arm_exits, after) = if tokens.get(body_start).is_some_and(|t| t.is_punct('{')) {
            let Some(bend) = matching_close(tokens, body_start) else {
                break;
            };
            let (be, bx) = seq(tokens, body_start + 1..bend, cfg);
            let exits = match be {
                Some(be) => {
                    cfg.link(&[pat], be);
                    bx
                }
                None => vec![pat],
            };
            let mut after = bend + 1;
            if tokens.get(after).is_some_and(|t| t.is_punct(',')) {
                after += 1;
            }
            (exits, after)
        } else {
            // Expression arm: to the `,` at depth 0 (or the match end).
            let mut depth = 0i32;
            let mut k = body_start;
            while k < end {
                let t = &tokens[k];
                if t.kind == Kind::Punct {
                    match t.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "," if depth == 0 => break,
                        _ => {}
                    }
                }
                k += 1;
            }
            let body = cfg.push(body_start..k, NodeKind::Stmt);
            cfg.link(&[pat], body);
            (vec![body], (k + 1).min(end))
        };
        exits.extend(arm_exits);
        j = after.max(j + 1);
    }
    if exits.is_empty() {
        exits.push(head);
    }
    (Some(head), exits, end + 1)
}

#[cfg(test)]
mod tests {
    use super::super::lexer::lex;
    use super::*;

    fn cfg_of(src: &str) -> (Vec<Token>, Cfg) {
        let tokens = lex(src).tokens;
        let fns = find_fns(&tokens);
        assert_eq!(fns.len(), 1, "expected one fn in fixture");
        let cfg = build_cfg(&tokens, fns[0].body.clone());
        (tokens, cfg)
    }

    #[test]
    fn straight_line_statements_chain() {
        let (_, cfg) = cfg_of("fn f() { let a = 1; let b = 2; let c = 3; }");
        assert_eq!(cfg.nodes.len(), 3);
        assert_eq!(cfg.entry, Some(0));
        assert_eq!(cfg.nodes[0].succs, vec![1]);
        assert_eq!(cfg.nodes[1].succs, vec![2]);
        assert!(cfg.nodes[2].succs.is_empty());
    }

    #[test]
    fn if_else_branches_rejoin() {
        let (_, cfg) =
            cfg_of("fn f(c: bool) { if c { let a = 1; } else { let b = 2; } let d = 3; }");
        // cond, then-stmt, else-stmt, join-stmt
        assert_eq!(cfg.nodes.len(), 4);
        let cond = cfg.entry.unwrap();
        assert_eq!(cfg.nodes[cond].kind, NodeKind::Cond);
        assert_eq!(cfg.nodes[cond].succs.len(), 2);
        let join = cfg.nodes.len() - 1;
        for &branch in &cfg.nodes[cond].succs {
            assert_eq!(cfg.nodes[branch].succs, vec![join]);
        }
    }

    #[test]
    fn if_without_else_falls_through() {
        let (_, cfg) = cfg_of("fn f(c: bool) { if c { let a = 1; } let d = 3; }");
        let cond = cfg.entry.unwrap();
        // Both the condition and the then-branch reach the join statement.
        let join = cfg.nodes.len() - 1;
        assert!(cfg.nodes[cond].succs.contains(&join));
    }

    #[test]
    fn while_loop_has_back_edge() {
        let (_, cfg) = cfg_of("fn f() { let mut i = 0; while i < 3 { i += 1; } let d = i; }");
        let header = 1;
        assert_eq!(cfg.nodes[header].kind, NodeKind::While);
        let body = 2;
        assert!(cfg.nodes[header].succs.contains(&body));
        assert!(cfg.nodes[body].succs.contains(&header), "back edge missing");
    }

    #[test]
    fn match_arms_branch_and_rejoin() {
        let (_, cfg) = cfg_of(
            "fn f(x: u8) { match x { 0 => { let a = 1; } _ => { let b = 2; } } let d = 3; }",
        );
        let head = cfg.entry.unwrap();
        assert_eq!(cfg.nodes[head].kind, NodeKind::MatchHead);
        assert_eq!(cfg.nodes[head].succs.len(), 2);
        let join = cfg.nodes.len() - 1;
        // Every arm body eventually reaches the join.
        for &pat in &cfg.nodes[head].succs {
            assert_eq!(cfg.nodes[pat].kind, NodeKind::ArmPattern);
            let body = cfg.nodes[pat].succs[0];
            assert!(cfg.nodes[body].succs.contains(&join));
        }
    }

    #[test]
    fn nested_items_are_skipped_in_the_enclosing_cfg() {
        let (tokens, cfg) = {
            let tokens = lex("fn outer() { fn inner(x: f64) { let y = x; } let z = 1; }").tokens;
            let fns = find_fns(&tokens);
            let cfg = build_cfg(&tokens, fns[0].body.clone());
            (tokens, cfg)
        };
        // The nested fn is its own unit; the outer CFG sees only `let z = 1;`.
        assert_eq!(cfg.nodes.len(), 1);
        let node = &cfg.nodes[cfg.entry.unwrap()];
        assert!(tokens[node.tokens.clone()].iter().any(|t| t.is_ident("z")));
    }

    #[test]
    fn fn_units_carry_params_and_nested_fns() {
        let tokens =
            lex("fn outer(dt: Seconds) { fn inner(x: f64) { let y = x; } let z = 1; }").tokens;
        let fns = find_fns(&tokens);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "outer");
        assert_eq!(fns[0].params.len(), 1);
        assert_eq!(fns[0].params[0].name, "dt");
        assert!(fns[0].params[0].ty.iter().any(|t| t.is_ident("Seconds")));
        assert_eq!(fns[1].name, "inner");
    }
}
