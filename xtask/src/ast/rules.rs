//! The token rules: panic and float hygiene, doc coverage, determinism,
//! dimensional safety, NaN hygiene and single-stepping-loop enforcement.
//!
//! Every check walks the token stream of one [`Lexed`] file and reports
//! findings through a `push(token, rule, message)` callback;
//! [`check_tokens`] drops findings in regions the rule skips, and the
//! driver applies the `iprism-lint: allow(...)` escape hatch.

use crate::ast::lexer::{Kind, Lexed, Token};
use crate::ast::{Diagnostic, FileClass, Rule};

/// Identifiers that make a run irreproducible, each with the per-file rule
/// that bans it. The call graph's `hot-path(deterministic)` taint treats
/// every one of them as a source.
pub(crate) const NONDET_IDENTS: [(&str, Rule); 8] = [
    ("thread_rng", Rule::NoUnseededRng),
    ("from_entropy", Rule::NoUnseededRng),
    ("OsRng", Rule::NoUnseededRng),
    ("ThreadRng", Rule::NoUnseededRng),
    ("Instant", Rule::NoWallclockInSim),
    ("SystemTime", Rule::NoWallclockInSim),
    ("HashMap", Rule::NoHashCollections),
    ("HashSet", Rule::NoHashCollections),
];

/// Macros that abort, as `no-panic-in-lib` bans them. (The call graph also
/// counts `assert!`, which the rule leaves to contracts.)
const PANIC_IN_LIB_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Parameter-name vocabulary: a `pub fn` parameter whose snake_case name
/// contains one of these segments carries physical units and must not be a
/// raw `f64`. The second element is the `iprism-units` newtype to suggest.
const PARAM_VOCAB: &[(&str, &str)] = &[
    ("dt", "Seconds"),
    ("time", "Seconds"),
    ("duration", "Seconds"),
    ("horizon", "Seconds"),
    ("theta", "Radians"),
    ("angle", "Radians"),
    ("heading", "Radians"),
    ("yaw", "Radians"),
    ("phi", "Radians"),
    ("steer", "Radians"),
    ("steering", "Radians"),
    ("speed", "MetersPerSecond"),
    ("vel", "MetersPerSecond"),
    ("velocity", "MetersPerSecond"),
    ("wheelbase", "Meters"),
    ("radius", "Meters"),
    ("margin", "Meters"),
    ("length", "Meters"),
    ("width", "Meters"),
    ("dist", "Meters"),
    ("distance", "Meters"),
    ("resolution", "Meters"),
];

/// Name segments that mark a quantity as a unit *quotient* (yaw_rate,
/// speed_ratio, time_scale): those are not representable by the four base
/// newtypes and are exempt from the param rule.
const QUOTIENT_SEGMENTS: &[&str] = &["rate", "ratio", "factor", "scale", "frac", "fraction"];

/// Return-name vocabulary for [`Rule::RawF64Return`] (scoped tighter than
/// the param vocabulary: only names that unambiguously promise a dimensioned
/// quantity).
const RETURN_VOCAB: &[&str] = &[
    "distance", "speed", "velocity", "heading", "time", "duration", "radius",
];

/// Methods that make a following float→int `as` cast explicit and exact
/// (rounding already happened, or the value was clamped onto a lattice).
const ROUNDING_METHODS: &[&str] = &[
    "floor",
    "ceil",
    "round",
    "trunc",
    "signum",
    "clamp",
    "min",
    "max",
    "rem_euclid",
    "div_euclid",
];

/// Methods that definitely produce an un-rounded float.
const FLOAT_METHODS: &[&str] = &[
    "sqrt",
    "powi",
    "powf",
    "exp",
    "ln",
    "log2",
    "log10",
    "sin",
    "cos",
    "tan",
    "asin",
    "acos",
    "atan",
    "atan2",
    "hypot",
    "to_radians",
    "to_degrees",
    "recip",
    "get",
    "norm",
];

/// Identifiers whose presence in a divisor expression counts as a guard.
const DIV_GUARDS: &[&str] = &["max", "abs", "hypot", "clamp", "EPSILON", "EPS"];

/// Integer type names that make an `as` cast a float→int truncation hazard.
const INT_TYPES: &[&str] = &[
    "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128",
];

/// Runs every token rule that `class` enables over `file`, appending
/// pre-waiver findings to `out`. Test items are skipped, and so are
/// `macro_rules!` bodies except for [`Rule::fires_in_macro_bodies`].
pub fn check_tokens(path: &str, file: &Lexed, class: FileClass, out: &mut Vec<Diagnostic>) {
    let tokens = &file.tokens;
    let mut push = |t: &Token, rule: Rule, message: String| {
        let idx = t.line - 1;
        if !file.test[idx] && (!file.macro_body[idx] || rule.fires_in_macro_bodies()) {
            out.push(Diagnostic {
                path: path.to_string(),
                line: t.line,
                col: t.col,
                rule,
                message,
            });
        }
    };
    if class.panic_banned {
        check_no_panic(tokens, &mut push);
    }
    check_float_eq(file, &mut push);
    check_pub_fn_docs(file, &mut push);
    check_nondet_idents(tokens, class, &mut push);
    if class.units_param_api || class.units_return_api {
        check_signatures(tokens, class, &mut push);
    }
    if !class.units_crate {
        check_angle_conv(tokens, &mut push);
    }
    check_partial_cmp_unwrap(tokens, &mut push);
    if class.hot_path {
        check_float_div(tokens, &mut push);
        check_float_int_cast(tokens, &mut push);
    }
    if class.world_step {
        check_world_step(tokens, &mut push);
    }
}

/// Receiver names the world-step rule treats as a `World`: the canonical
/// `world` binding plus derived bindings like `final_world`/`mut_world`.
fn is_world_receiver(t: &Token) -> bool {
    t.kind == Kind::Ident && (t.text == "world" || t.text.ends_with("_world"))
}

fn check_world_step(tokens: &[Token], push: &mut impl FnMut(&Token, Rule, String)) {
    for (i, t) in tokens.iter().enumerate() {
        if is_world_receiver(t)
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('.'))
            && tokens.get(i + 2).is_some_and(|n| n.is_ident("step"))
            && tokens.get(i + 3).is_some_and(|n| n.is_punct('('))
        {
            push(
                &tokens[i + 2],
                Rule::WorldStepOutsideSim,
                format!(
                    "`{}.step(...)` outside `crates/sim` bypasses the episode \
                     engine (outcome detection, tracing, observers); step \
                     through `iprism_sim::Episode` or `run_episode` instead",
                    t.text
                ),
            );
        }
    }
}

/// `.unwrap(..)`/`.expect(..)` calls and the `panic!` family, matched as
/// the call graph matches its panic sources: method-call position only, so
/// `#[expect(...)]` attributes and `unwrap_or` relatives never match.
fn check_no_panic(tokens: &[Token], push: &mut impl FnMut(&Token, Rule, String)) {
    for (i, t) in tokens.iter().enumerate() {
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && after_dot(tokens, i)
            && call_open(tokens, i)
        {
            push(
                t,
                Rule::NoPanicInLib,
                format!(
                    "`.{}()` in library code; return a Result, use \
                     `total_cmp`/`unwrap_or`, or justify with \
                     `// iprism-lint: allow(no-panic-in-lib)`",
                    t.text
                ),
            );
        } else if PANIC_IN_LIB_MACROS.contains(&t.text.as_str()) && macro_call(tokens, i) {
            push(
                t,
                Rule::NoPanicInLib,
                format!(
                    "`{}!` in library code; make the failure a Result or an invariant contract",
                    t.text
                ),
            );
        }
    }
}

/// `==`/`!=` with a float-looking operand on either side. An operand is
/// the run of tokens on the operator's line up to the nearest delimiter
/// (`,;()[]{}`, `=`, `<`, `>`, `!`) or boolean connective (`&&`, `||`).
fn check_float_eq(file: &Lexed, push: &mut impl FnMut(&Token, Rule, String)) {
    let tokens = &file.tokens;
    let punct_in = |k: usize, set: &str| {
        tokens
            .get(k)
            .is_some_and(|t| t.kind == Kind::Punct && set.contains(t.text.as_str()))
    };
    let joined = |k: usize| k + 1 < tokens.len() && adjacent(&tokens[k], &tokens[k + 1]);
    // One half of `&&` or `||`, spelled as two touching puncts.
    let connective = |k: usize| {
        let twin = |j: usize| joined(j) && tokens[j].text == tokens[j + 1].text;
        punct_in(k, "&|") && ((k > 0 && twin(k - 1)) || twin(k))
    };
    let lone_connective = |t: &Token| t.is_punct('&') || t.is_punct('|');
    let float_like =
        |t: &Token| t.kind == Kind::Float || t.text.contains("f64") || t.text.contains("f32");
    for (i, op) in tokens.iter().enumerate() {
        let is_eq = op.is_punct('=');
        if !(is_eq || op.is_punct('!')) || !punct_in(i + 1, "=") || !joined(i) {
            continue;
        }
        // Not the tail of `<=`, `>=`, `..=`, `+=`, ... nor the head of `===`.
        let tail = is_eq && i > 0 && joined(i - 1) && punct_in(i - 1, "<>=!+-*/%&|^.");
        if tail || (joined(i + 1) && punct_in(i + 2, "=")) {
            continue;
        }
        let stop =
            |k: usize| tokens[k].line != op.line || punct_in(k, ",;()[]{}=<>!") || connective(k);
        let mut lo = i;
        while lo > 0 && !stop(lo - 1) {
            lo -= 1;
        }
        let mut hi = i + 2;
        while hi < tokens.len() && !stop(hi) {
            hi += 1;
        }
        let mut left = &tokens[lo..i];
        while let [first, rest @ ..] = left {
            if !lone_connective(first) {
                break;
            }
            left = rest;
        }
        let mut right = &tokens[i + 2..hi];
        while let [rest @ .., last] = right {
            if !lone_connective(last) {
                break;
            }
            right = rest;
        }
        if left.iter().chain(right).any(float_like) {
            let op_text = if is_eq { "==" } else { "!=" };
            push(
                op,
                Rule::NoFloatEq,
                format!(
                    "float `{op_text}` comparison (`{} {op_text} {}`); compare with an \
                     epsilon, `total_cmp`, or bit patterns",
                    source_text(file, left),
                    source_text(file, right)
                ),
            );
        }
    }
}

/// The source text spanned by `window`, a run of tokens on one line.
fn source_text(file: &Lexed, window: &[Token]) -> String {
    let (Some(first), Some(last)) = (window.first(), window.last()) else {
        return String::new();
    };
    let end = last.col + last.text.chars().count();
    file.lines[first.line - 1]
        .chars()
        .skip(first.col - 1)
        .take(end - first.col)
        .collect()
}

/// Undocumented bare-`pub` fns, reported at the `pub` keyword.
fn check_pub_fn_docs(file: &Lexed, push: &mut impl FnMut(&Token, Rule, String)) {
    let tokens = &file.tokens;
    for f in 0..tokens.len() {
        if !tokens[f].is_ident("fn") {
            continue;
        }
        let name = tokens.get(f + 1).filter(|t| t.kind == Kind::Ident);
        if let (Some(vis), Some(name)) = (pub_of_fn(tokens, f), name) {
            if !is_documented(file, tokens[vis].line - 1) {
                push(
                    &tokens[vis],
                    Rule::PubFnDocs,
                    format!("public function `{}` has no doc comment", name.text),
                );
            }
        }
    }
}

/// Walks upward from the line above 0-based line `idx`, skipping
/// attributes and plain comments, until a doc comment or something else
/// is found.
fn is_documented(file: &Lexed, idx: usize) -> bool {
    for line in file.lines[..idx].iter().rev() {
        let line = line.trim();
        if line.starts_with("///") || line.starts_with("#[doc") || line.starts_with("/**") {
            return true;
        }
        let is_attr_start = line.starts_with("#[");
        let is_attr_tail = line.ends_with(']') && !line.contains('{');
        // Plain comments (e.g. `// iprism-lint: allow(...)` directives) may
        // sit between the doc comment and the item; keep walking.
        if !(is_attr_start || is_attr_tail || line.starts_with("//")) {
            return false;
        }
    }
    false
}

/// Identifiers from [`NONDET_IDENTS`], each under its own rule and scope.
fn check_nondet_idents(
    tokens: &[Token],
    class: FileClass,
    push: &mut impl FnMut(&Token, Rule, String),
) {
    for t in tokens {
        let Some(&(_, rule)) = NONDET_IDENTS.iter().find(|(id, _)| t.is_ident(id)) else {
            continue;
        };
        let message = match rule {
            Rule::NoUnseededRng if class.determinism => format!(
                "`{}` draws entropy from the OS: runs become irreproducible; \
                 seed explicitly with `SmallRng::seed_from_u64`",
                t.text
            ),
            Rule::NoWallclockInSim if class.wallclock_banned => format!(
                "`{}` in simulation code; sims must be deterministic — \
                 use the step counter and seeded RNGs",
                t.text
            ),
            Rule::NoHashCollections if class.determinism => format!(
                "`{}` in determinism-critical code: iteration order varies \
                 between runs; use `{}` (ordered) instead",
                t.text,
                if t.text == "HashMap" {
                    "BTreeMap"
                } else {
                    "BTreeSet"
                }
            ),
            _ => continue,
        };
        push(t, rule, message);
    }
}

fn check_angle_conv(tokens: &[Token], push: &mut impl FnMut(&Token, Rule, String)) {
    for t in tokens {
        if t.kind == Kind::Ident && matches!(t.text.as_str(), "to_radians" | "to_degrees") {
            push(
                t,
                Rule::AngleConvOutsideUnits,
                format!(
                    "`{}` outside `crates/units`: angle-unit conversions live in \
                     the units layer so degrees never leak into the geometry core",
                    t.text
                ),
            );
        }
    }
}

fn check_partial_cmp_unwrap(tokens: &[Token], push: &mut impl FnMut(&Token, Rule, String)) {
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("partial_cmp") || !tokens.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let Some(close) = matching_close(tokens, i + 1) else {
            continue;
        };
        if tokens.get(close + 1).is_some_and(|n| n.is_punct('.'))
            && tokens
                .get(close + 2)
                .is_some_and(|n| n.is_ident("unwrap") || n.is_ident("expect"))
        {
            push(
                &tokens[close + 2],
                Rule::PartialCmpUnwrap,
                "`partial_cmp(..).unwrap()` panics on NaN; use `total_cmp` for \
                 floats (or handle the `None` explicitly)"
                    .to_string(),
            );
        }
    }
}

fn check_float_div(tokens: &[Token], push: &mut impl FnMut(&Token, Rule, String)) {
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_punct('/') {
            continue;
        }
        // `/=` compound assignment: the divisor starts after the `=`.
        let mut j = i + 1;
        if tokens.get(j).is_some_and(|n| n.is_punct('=')) {
            j += 1;
        }
        if !tokens.get(j).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let Some(close) = matching_close(tokens, j) else {
            continue;
        };
        let group = &tokens[j + 1..close];
        let guarded = group
            .iter()
            .any(|g| g.kind == Kind::Ident && DIV_GUARDS.contains(&g.text.as_str()));
        if guarded {
            continue;
        }
        // A *binary* minus at the group's top level: the classic
        // catastrophic-cancellation divisor `a / (b - c)`.
        let mut depth = 0i32;
        let mut has_difference = false;
        for (k, g) in group.iter().enumerate() {
            match g.text.as_str() {
                "(" | "[" | "{" if g.kind == Kind::Punct => depth += 1,
                ")" | "]" | "}" if g.kind == Kind::Punct => depth -= 1,
                "-" if g.kind == Kind::Punct && depth == 0 => {
                    let binary = k > 0
                        && (matches!(group[k - 1].kind, Kind::Ident | Kind::Int | Kind::Float)
                            || group[k - 1].is_punct(')')
                            || group[k - 1].is_punct(']'));
                    if binary {
                        has_difference = true;
                    }
                }
                _ => {}
            }
        }
        if has_difference {
            push(
                t,
                Rule::UnguardedFloatDiv,
                "division by a parenthesized difference can hit a ~0 denominator \
                 and produce inf/NaN; guard it (`.max(eps)`, `.abs()` check) or \
                 restructure"
                    .to_string(),
            );
        }
    }
}

fn check_float_int_cast(tokens: &[Token], push: &mut impl FnMut(&Token, Rule, String)) {
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("as")
            || !tokens
                .get(i + 1)
                .is_some_and(|n| n.kind == Kind::Ident && INT_TYPES.contains(&n.text.as_str()))
        {
            continue;
        }
        if i == 0 {
            continue;
        }
        let prev = &tokens[i - 1];
        let fire = if prev.kind == Kind::Float {
            true
        } else if prev.is_punct(')') {
            let Some(open) = matching_open(tokens, i - 1) else {
                continue;
            };
            let method = (open >= 2 && tokens[open - 2].is_punct('.'))
                .then(|| tokens[open - 1].text.as_str())
                .filter(|_| tokens[open - 1].kind == Kind::Ident);
            match method {
                Some(m) if ROUNDING_METHODS.contains(&m) => false,
                Some(m) if FLOAT_METHODS.contains(&m) => true,
                _ => tokens[open + 1..i - 1].iter().any(float_evidence),
            }
        } else {
            false
        };
        if fire {
            push(
                t,
                Rule::FloatIntCast,
                "float→int `as` cast truncates silently (and saturates on \
                 NaN/overflow); make the rounding explicit with \
                 `.floor()`/`.ceil()`/`.round()` before the cast"
                    .to_string(),
            );
        }
    }
}

/// Is this token clear evidence that the surrounding expression is a float?
fn float_evidence(t: &Token) -> bool {
    t.kind == Kind::Float
        || (t.kind == Kind::Ident
            && (matches!(t.text.as_str(), "f64" | "f32")
                || FLOAT_METHODS.contains(&t.text.as_str())))
}

/// Scans `pub fn` signatures for raw-`f64` physical parameters and returns.
fn check_signatures(
    tokens: &[Token],
    class: FileClass,
    push: &mut impl FnMut(&Token, Rule, String),
) {
    for f in 0..tokens.len() {
        if !tokens[f].is_ident("fn") || pub_of_fn(tokens, f).is_none() {
            continue;
        }
        let Some(name_tok) = tokens.get(f + 1).filter(|t| t.kind == Kind::Ident) else {
            continue; // `fn(...)` pointer type, not an item
        };
        let mut k = f + 2;
        if tokens.get(k).is_some_and(|t| t.is_punct('<')) {
            let Some(after) = skip_generics(tokens, k) else {
                continue;
            };
            k = after;
        }
        if !tokens.get(k).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let Some(close) = matching_close(tokens, k) else {
            continue;
        };
        if class.units_param_api {
            for (name, ty) in split_params(&tokens[k + 1..close]) {
                check_one_param(name, ty, push);
            }
        }
        if class.units_return_api {
            check_return(tokens, name_tok, close, push);
        }
    }
}

/// Index of the bare `pub` that makes the `fn` at `f` public API, walking
/// back over qualifiers (`const`, `async`, `unsafe`, `extern "C"`); `None`
/// for private and `pub(crate)` fns.
pub(crate) fn pub_of_fn(tokens: &[Token], f: usize) -> Option<usize> {
    let mut j = f;
    while j > 0 {
        j -= 1;
        let t = &tokens[j];
        let qualifier = t.kind == Kind::Str
            || (t.kind == Kind::Ident
                && matches!(t.text.as_str(), "const" | "async" | "unsafe" | "extern"));
        if !qualifier {
            return t.is_ident("pub").then_some(j);
        }
    }
    None
}

/// Do `a` and `b` touch on one line? Multi-char operators lex as adjacent
/// single-char puncts.
pub(crate) fn adjacent(a: &Token, b: &Token) -> bool {
    a.line == b.line && a.col + a.text.len() == b.col
}

/// Is `tokens[i]` a method name: `.name`, but not `..name`?
pub(crate) fn after_dot(tokens: &[Token], i: usize) -> bool {
    i >= 1 && tokens[i - 1].is_punct('.') && !(i >= 2 && tokens[i - 2].is_punct('.'))
}

/// Is `tokens[i]` followed by call syntax (`(`, optionally after a
/// `::<...>` turbofish)?
pub(crate) fn call_open(tokens: &[Token], i: usize) -> bool {
    match tokens.get(i + 1) {
        Some(t) if t.is_punct('(') => true,
        Some(t)
            if t.is_punct(':')
                && tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
                && tokens.get(i + 3).is_some_and(|n| n.is_punct('<')) =>
        {
            skip_generics(tokens, i + 3)
                .is_some_and(|after| tokens.get(after).is_some_and(|n| n.is_punct('(')))
        }
        _ => false,
    }
}

/// Is `tokens[i]` a macro invocation: `name!` followed by a delimiter?
pub(crate) fn macro_call(tokens: &[Token], i: usize) -> bool {
    tokens.get(i + 1).is_some_and(|n| n.is_punct('!'))
        && tokens
            .get(i + 2)
            .is_some_and(|n| n.is_punct('(') || n.is_punct('[') || n.is_punct('{'))
}

/// Skips a balanced `<...>` generics list starting at `open`; returns the
/// index just past the closing `>`. An `->` inside (e.g. `F: Fn(f64) -> f64`)
/// does not close the list.
pub(crate) fn skip_generics(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = open;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !(i > 0 && tokens[i - 1].is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                return Some(i + 1);
            }
        }
        i += 1;
    }
    None
}

/// Splits a parameter-list token slice at top-level commas into
/// `(name_token, type_tokens)` pairs; `self` receivers and destructuring
/// patterns are skipped.
pub(crate) fn split_params(params: &[Token]) -> Vec<(&Token, &[Token])> {
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut paren = 0i32;
    let mut angle = 0i32;
    for i in 0..=params.len() {
        let at_end = i == params.len();
        if !at_end {
            let t = &params[i];
            if t.kind == Kind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => paren += 1,
                    ")" | "]" | "}" => paren -= 1,
                    "<" => angle += 1,
                    ">" if !(i > 0 && params[i - 1].is_punct('-')) => angle -= 1,
                    _ => {}
                }
            }
        }
        if at_end || (params[i].is_punct(',') && paren == 0 && angle == 0) {
            if let Some(pair) = parse_param(&params[start..i]) {
                out.push(pair);
            }
            start = i + 1;
        }
    }
    out
}

fn parse_param(param: &[Token]) -> Option<(&Token, &[Token])> {
    // The pattern:type separator is the first top-level `:` that is not `::`.
    let mut depth = 0i32;
    let mut colon = None;
    let mut i = 0;
    while i < param.len() {
        let t = &param[i];
        if t.kind == Kind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth -= 1,
                ":" if depth == 0 => {
                    if param.get(i + 1).is_some_and(|n| n.is_punct(':')) {
                        i += 1; // path `::`
                    } else {
                        colon = Some(i);
                        break;
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
    let colon = colon?;
    let (pattern, ty) = (&param[..colon], &param[colon + 1..]);
    // Simple binding only (optionally `mut name`); destructuring patterns
    // have no single name to check.
    let name = pattern
        .iter()
        .filter(|t| t.kind == Kind::Ident && t.text != "mut")
        .collect::<Vec<_>>();
    match name.as_slice() {
        [single] if pattern.iter().all(|t| t.kind == Kind::Ident) => Some((single, ty)),
        _ => None,
    }
}

fn check_one_param(name: &Token, ty: &[Token], push: &mut impl FnMut(&Token, Rule, String)) {
    if !type_is_bare_f64(ty) {
        return;
    }
    let ident = name.text.trim_start_matches('_');
    if ident.split('_').any(|seg| QUOTIENT_SEGMENTS.contains(&seg)) {
        return;
    }
    let Some((_, newtype)) = PARAM_VOCAB
        .iter()
        .find(|(seg, _)| ident.split('_').any(|s| s == *seg))
    else {
        return;
    };
    push(
        name,
        Rule::RawF64Param,
        format!(
            "public parameter `{}: f64` carries physical units; take \
             `{newtype}` from `iprism-units` so callers cannot transpose \
             arguments or mix unit conventions",
            name.text
        ),
    );
}

fn check_return(
    tokens: &[Token],
    name_tok: &Token,
    close: usize,
    push: &mut impl FnMut(&Token, Rule, String),
) {
    if !(tokens.get(close + 1).is_some_and(|t| t.is_punct('-'))
        && tokens.get(close + 2).is_some_and(|t| t.is_punct('>')))
    {
        return;
    }
    let mut ret = Vec::new();
    let mut depth = 0i32;
    for t in &tokens[close + 3..] {
        if t.kind == Kind::Punct {
            match t.text.as_str() {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" | ">" => depth -= 1,
                "{" | ";" if depth == 0 => break,
                _ => {}
            }
        }
        if t.is_ident("where") && depth == 0 {
            break;
        }
        ret.push(t.clone());
    }
    if !type_is_bare_f64(&ret) {
        return;
    }
    let name = name_tok.text.trim_start_matches('_');
    if !name.split('_').any(|seg| RETURN_VOCAB.contains(&seg)) {
        return;
    }
    push(
        name_tok,
        Rule::RawF64Return,
        format!(
            "public function `{}` promises a dimensioned quantity but returns \
             a raw `f64`; return the matching `iprism-units` newtype",
            name_tok.text
        ),
    );
}

/// Is the type token list a bare `f64` (possibly behind `&`/`mut`)?
fn type_is_bare_f64(ty: &[Token]) -> bool {
    let core: Vec<&Token> = ty
        .iter()
        .filter(|t| !(t.is_punct('&') || t.is_ident("mut") || t.kind == Kind::Lifetime))
        .collect();
    matches!(core.as_slice(), [only] if only.is_ident("f64"))
}

/// Index of the bracket closing the `(`, `[` or `{` at `open`.
pub(crate) fn matching_close(tokens: &[Token], open: usize) -> Option<usize> {
    let (o, c) = match tokens.get(open)?.text.as_str() {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        "{" => ('{', '}'),
        _ => return None,
    };
    let mut depth = 0i32;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Index of the `(` matching the `)` at `close`.
fn matching_open(tokens: &[Token], close: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = close;
    loop {
        let t = &tokens[i];
        if t.is_punct(')') {
            depth += 1;
        } else if t.is_punct('(') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
        if i == 0 {
            return None;
        }
        i -= 1;
    }
}
