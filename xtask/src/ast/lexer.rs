//! The lint pass's one front end: a self-contained Rust lexer producing
//! position-tagged tokens, plus the per-line facts that tokens alone do not
//! carry.
//!
//! The build environment is offline, so `proc-macro2`/`syn` are unavailable;
//! this lexer understands exactly the lexical grammar the rules need:
//! comments (kept per line, out of the token stream), string/raw-string/
//! byte-string literals, char literals vs lifetimes, numeric literals with a
//! float/int distinction, identifiers and single-character punctuation.
//! Multi-character operators come out as adjacent punctuation tokens (`->`
//! is `-` then `>`), which the rule matchers handle explicitly where it
//! matters.

/// Lexical class of a [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword (`fn`, `pub`, `f64`, `partial_cmp`, ...).
    Ident,
    /// Lifetime tick plus name (`'a`, `'static`).
    Lifetime,
    /// Integer literal (including hex/octal/binary and int-suffixed forms).
    Int,
    /// Floating-point literal (`1.5`, `1e-3`, `2f64`).
    Float,
    /// String, raw-string or byte-string literal (content not retained).
    Str,
    /// Char or byte-char literal (content not retained).
    Char,
    /// A single punctuation character.
    Punct,
}

/// One lexed token with its 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Lexical class.
    pub kind: Kind,
    /// Token text (empty for `Str`/`Char`, whose content is irrelevant
    /// to the rules and must never trigger them).
    pub text: String,
    /// 1-based source line.
    pub line: usize,
    /// 1-based character column.
    pub col: usize,
}

impl Token {
    /// Returns `true` when the token is the identifier `word`.
    #[must_use]
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == Kind::Ident && self.text == word
    }

    /// Returns `true` when the token is the punctuation character `c`.
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == Kind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// One lexed source file: the token stream plus the per-line facts the
/// rules read beyond tokens. Lines are 0-based here; tokens carry 1-based
/// positions.
#[derive(Debug, Clone)]
pub struct Lexed {
    /// Tokens in source order; whitespace and comments are dropped.
    pub tokens: Vec<Token>,
    /// Per line, the text of its comments with everything else blanked to
    /// spaces, so char columns match the source. Waiver directives and
    /// hot-path markers are read from here.
    pub comments: Vec<String>,
    /// Per line, `true` when a token starts or ends on it.
    pub code: Vec<bool>,
    /// Per line, the original source text.
    pub lines: Vec<String>,
    /// Per line, `true` inside a `#[cfg(test)]`, `#[test]` or `#[ignore]`
    /// item.
    pub test: Vec<bool>,
    /// Per line, `true` inside a `macro_rules!` definition.
    pub macro_body: Vec<bool>,
}

impl Lexed {
    /// Does 0-based line `idx` hold a comment and no code? A directive on
    /// such a line binds to the code below it.
    #[must_use]
    pub fn comment_only(&self, idx: usize) -> bool {
        !self.code[idx] && !self.comments[idx].trim().is_empty()
    }

    /// Is 1-based `line` inside a test item or a `macro_rules!` body? The
    /// structural rules skip both: test code may panic and allocate, and a
    /// macro body is a template, not an item.
    #[must_use]
    pub fn skipped(&self, line: usize) -> bool {
        self.test[line - 1] || self.macro_body[line - 1]
    }
}

/// Lexes `source` once, for every rule family.
#[must_use]
pub fn lex(source: &str) -> Lexed {
    let lines: Vec<String> = source.split('\n').map(str::to_string).collect();
    let mut lexer = Lexer {
        chars: source.chars().collect(),
        i: 0,
        line: 1,
        col: 1,
        in_comment: false,
        tokens: Vec::new(),
        comments: vec![String::new(); lines.len()],
        code: vec![false; lines.len()],
    };
    lexer.run();
    let test = mark_regions(&lexer.tokens, lines.len(), |tokens, i| {
        attr_text(tokens, i).is_some_and(|text| {
            text == "[test]"
                || text == "[ignore]"
                || ["cfg(test)", "cfg(all(test", "cfg(any(test"]
                    .iter()
                    .any(|p| text.contains(p))
        })
    });
    let macro_body = mark_regions(&lexer.tokens, lines.len(), |tokens, i| {
        tokens[i].is_ident("macro_rules") && tokens.get(i + 1).is_some_and(|t| t.is_punct('!'))
    });
    Lexed {
        tokens: lexer.tokens,
        comments: lexer.comments,
        code: lexer.code,
        lines,
        test,
        macro_body,
    }
}

/// The attribute opening at `tokens[hash]` (`#[...]` or `#![...]`) as its
/// token texts without spaces (`[cfg(test)]`), or `None` when no attribute
/// starts there.
fn attr_text(tokens: &[Token], hash: usize) -> Option<String> {
    if !tokens[hash].is_punct('#') {
        return None;
    }
    let mut i = hash + 1;
    if tokens.get(i)?.is_punct('!') {
        i += 1;
    }
    if !tokens.get(i)?.is_punct('[') {
        return None;
    }
    let mut text = String::new();
    let mut depth = 0i32;
    for t in &tokens[i..] {
        text.push_str(&t.text);
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
    }
    Some(text)
}

/// Marks, per line, the item starting at every token where `starts` holds.
fn mark_regions(
    tokens: &[Token],
    lines: usize,
    starts: impl Fn(&[Token], usize) -> bool,
) -> Vec<bool> {
    let mut marked = vec![false; lines];
    for i in 0..tokens.len() {
        if !marked[tokens[i].line - 1] && starts(tokens, i) {
            mark_item(tokens, i, &mut marked);
        }
    }
    marked
}

/// Marks the lines of the item that starts at `tokens[start]`: through the
/// matching `}` of its first `{`, or through its first `;` outside
/// brackets when that comes before any brace (`#[cfg(test)] use foo;`). A
/// `}` closing an *enclosing* scope also ends it, so a field-level
/// attribute never swallows the items after its struct. An item left open
/// runs to the end of the file.
fn mark_item(tokens: &[Token], start: usize, marked: &mut [bool]) {
    let mut brace = 0i32;
    let mut bracket = 0i32;
    let mut seen_brace = false;
    let mut end = marked.len();
    for t in &tokens[start..] {
        if t.kind != Kind::Punct {
            continue;
        }
        match t.text.as_str() {
            "[" => bracket += 1,
            "]" => bracket -= 1,
            "{" => {
                brace += 1;
                seen_brace = true;
            }
            "}" => {
                brace -= 1;
                if brace < 0 || (seen_brace && brace == 0) {
                    end = t.line;
                    break;
                }
            }
            ";" if !seen_brace && brace == 0 && bracket == 0 => {
                end = t.line;
                break;
            }
            _ => {}
        }
    }
    marked[tokens[start].line - 1..end].fill(true);
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: usize,
    col: usize,
    /// Inside a comment: [`Lexer::bump`] copies chars into `comments`.
    in_comment: bool,
    tokens: Vec<Token>,
    comments: Vec<String>,
    code: Vec<bool>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    /// Advances one char, maintaining the line/col counters and the
    /// comment text of the current line.
    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            if self.in_comment {
                self.comments[self.line - 1].push(c);
            }
            self.col += 1;
        }
        Some(c)
    }

    /// Starts copying a comment into its line's text, padded with spaces
    /// to the comment's column.
    fn open_comment(&mut self) {
        let text = &mut self.comments[self.line - 1];
        let pad = (self.col - 1).saturating_sub(text.chars().count());
        text.extend(std::iter::repeat_n(' ', pad));
        self.in_comment = true;
    }

    /// Consumes chars while `pred` holds, appending them to `text`.
    fn bump_while(&mut self, text: &mut String, pred: impl Fn(char) -> bool) {
        while let Some(c) = self.peek(0) {
            if !pred(c) {
                break;
            }
            self.bump();
            text.push(c);
        }
    }

    /// Emits a token that started at `line:col` and ends at the cursor.
    fn push(&mut self, kind: Kind, text: String, line: usize, col: usize) {
        self.code[line - 1] = true;
        self.code[self.line - 1] = true;
        self.tokens.push(Token {
            kind,
            text,
            line,
            col,
        });
    }

    fn run(&mut self) {
        while let Some(c) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            if c.is_whitespace() {
                self.bump();
            } else if c == '/' && self.peek(1) == Some('/') {
                self.open_comment();
                while self.peek(0).is_some_and(|c| c != '\n') {
                    self.bump();
                }
                self.in_comment = false;
            } else if c == '/' && self.peek(1) == Some('*') {
                self.open_comment();
                self.block_comment();
                self.in_comment = false;
            } else if let Some((prefix, hashes)) = self.raw_string_lookahead() {
                self.raw_string(prefix, hashes);
                self.push(Kind::Str, String::new(), line, col);
            } else if c == '"' || (c == 'b' && self.peek(1) == Some('"')) {
                if c == 'b' {
                    self.bump();
                }
                self.string_literal();
                self.push(Kind::Str, String::new(), line, col);
            } else if c == 'b' && self.peek(1) == Some('\'') {
                self.bump();
                self.char_literal();
                self.push(Kind::Char, String::new(), line, col);
            } else if c == '\'' {
                self.tick(line, col);
            } else if is_ident_start(c) {
                let mut text = String::new();
                self.bump_while(&mut text, is_ident_continue);
                self.push(Kind::Ident, text, line, col);
            } else if c.is_ascii_digit() {
                self.number(line, col);
            } else {
                self.bump();
                self.push(Kind::Punct, c.to_string(), line, col);
            }
        }
    }

    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => return,
            }
        }
    }

    /// Detects `r"`/`r#"`/`br#"` at the cursor; returns `(prefix_len, hashes)`.
    fn raw_string_lookahead(&self) -> Option<(usize, u32)> {
        let mut j = 0usize;
        if self.peek(j) == Some('b') {
            j += 1;
        }
        if self.peek(j) != Some('r') {
            return None;
        }
        j += 1;
        let mut hashes = 0u32;
        while self.peek(j) == Some('#') {
            hashes += 1;
            j += 1;
        }
        (self.peek(j) == Some('"')).then_some((j + 1, hashes))
    }

    fn raw_string(&mut self, prefix: usize, hashes: u32) {
        for _ in 0..prefix {
            self.bump();
        }
        loop {
            match self.peek(0) {
                Some('"') if (1..=hashes as usize).all(|k| self.peek(k) == Some('#')) => {
                    for _ in 0..=hashes as usize {
                        self.bump();
                    }
                    return;
                }
                Some(_) => {
                    self.bump();
                }
                None => return,
            }
        }
    }

    fn string_literal(&mut self) {
        self.bump(); // opening quote
        loop {
            match self.peek(0) {
                Some('\\') => {
                    self.bump();
                    self.bump();
                }
                Some('"') => {
                    self.bump();
                    return;
                }
                Some(_) => {
                    self.bump();
                }
                None => return,
            }
        }
    }

    fn char_literal(&mut self) {
        self.bump(); // opening tick
        if self.peek(0) == Some('\\') {
            self.bump();
            self.bump();
        } else {
            self.bump();
        }
        if self.peek(0) == Some('\'') {
            self.bump();
        }
    }

    /// A tick is either a char literal or a lifetime; disambiguate with the
    /// same lookahead rustc uses: `'X'` closes within two chars (or is an
    /// escape) → char literal, otherwise lifetime.
    fn tick(&mut self, line: usize, col: usize) {
        if self.peek(1) == Some('\\') || self.peek(2) == Some('\'') {
            self.char_literal();
            self.push(Kind::Char, String::new(), line, col);
        } else {
            self.bump();
            let mut text = String::from("'");
            self.bump_while(&mut text, is_ident_continue);
            self.push(Kind::Lifetime, text, line, col);
        }
    }

    fn number(&mut self, line: usize, col: usize) {
        let mut text = String::new();
        let mut is_float = false;
        if self.peek(0) == Some('0') && matches!(self.peek(1), Some('x' | 'o' | 'b')) {
            // Radix literal: never a float; suffix chars are hex digits too,
            // so just consume the alphanumeric run.
            self.bump_while(&mut text, is_ident_continue);
            self.push(Kind::Int, text, line, col);
            return;
        }
        self.bump_while(&mut text, |c| c.is_ascii_digit() || c == '_');
        // Fractional part: `1.5` or trailing `1.`; but not `1..2` (range) and
        // not `1.method()`.
        if self.peek(0) == Some('.')
            && self.peek(1) != Some('.')
            && !self.peek(1).is_some_and(is_ident_start)
        {
            is_float = true;
            if let Some(c) = self.bump() {
                text.push(c);
            }
            self.bump_while(&mut text, |c| c.is_ascii_digit() || c == '_');
        }
        // Exponent.
        if matches!(self.peek(0), Some('e' | 'E')) {
            let sign = usize::from(matches!(self.peek(1), Some('+' | '-')));
            if self.peek(1 + sign).is_some_and(|c| c.is_ascii_digit()) {
                is_float = true;
                for _ in 0..=sign {
                    if let Some(c) = self.bump() {
                        text.push(c);
                    }
                }
                self.bump_while(&mut text, |c| c.is_ascii_digit() || c == '_');
            }
        }
        // Type suffix (`1f64`, `10usize`).
        let suffix_start = text.len();
        self.bump_while(&mut text, is_ident_continue);
        if text[suffix_start..].starts_with('f') {
            is_float = true;
        }
        let kind = if is_float { Kind::Float } else { Kind::Int };
        self.push(kind, text, line, col);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(Kind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_puncts_and_positions() {
        let toks = lex("fn f(x: f64) {}").tokens;
        assert_eq!(
            toks[0],
            Token {
                kind: Kind::Ident,
                text: "fn".into(),
                line: 1,
                col: 1
            }
        );
        assert_eq!(toks[1].text, "f");
        assert!(toks[2].is_punct('('));
        assert_eq!(toks[5].text, "f64");
        let last = toks.last().unwrap();
        assert_eq!((last.line, last.col), (1, 15));
    }

    #[test]
    fn line_tracking_across_newlines() {
        let toks = lex("a\n  b\nc").tokens;
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
        assert_eq!((toks[2].line, toks[2].col), (3, 1));
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a // HashMap in a comment\nb /* thread_rng /* nested */ */ c"),
            vec![
                (Kind::Ident, "a".into()),
                (Kind::Ident, "b".into()),
                (Kind::Ident, "c".into()),
            ]
        );
    }

    #[test]
    fn strings_raw_strings_and_chars_drop_content() {
        let toks = kinds(r##"let s = "HashMap"; let r = r#"thread_rng "q" "#; let c = 'x';"##);
        assert!(toks
            .iter()
            .all(|(_, t)| t != "HashMap" && t != "thread_rng"));
        assert_eq!(toks.iter().filter(|(k, _)| *k == Kind::Str).count(), 2);
        assert_eq!(toks.iter().filter(|(k, _)| *k == Kind::Char).count(), 1);
    }

    #[test]
    fn byte_literals() {
        let toks = kinds(r##"let a = b'"'; let s = b"bytes"; let r = br#"raw"#;"##);
        assert_eq!(toks.iter().filter(|(k, _)| *k == Kind::Char).count(), 1);
        assert_eq!(toks.iter().filter(|(k, _)| *k == Kind::Str).count(), 2);
        // The quote inside b'"' must not have opened a string: the trailing
        // semicolons survive as punctuation.
        assert_eq!(toks.iter().filter(|(_, t)| t == ";").count(), 3);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'y'; let e = '\\n'; }");
        assert_eq!(toks.iter().filter(|(k, _)| *k == Kind::Lifetime).count(), 2);
        assert_eq!(toks.iter().filter(|(k, _)| *k == Kind::Char).count(), 2);
    }

    #[test]
    fn numeric_literals() {
        assert_eq!(
            kinds("1 1.5 1e-3 2f64 10usize 0xFF 1..2"),
            vec![
                (Kind::Int, "1".into()),
                (Kind::Float, "1.5".into()),
                (Kind::Float, "1e-3".into()),
                (Kind::Float, "2f64".into()),
                (Kind::Int, "10usize".into()),
                (Kind::Int, "0xFF".into()),
                (Kind::Int, "1".into()),
                (Kind::Punct, ".".into()),
                (Kind::Punct, ".".into()),
                (Kind::Int, "2".into()),
            ]
        );
    }

    #[test]
    fn tuple_field_access_is_not_a_float() {
        assert_eq!(
            kinds("pair.0.abs()"),
            vec![
                (Kind::Ident, "pair".into()),
                (Kind::Punct, ".".into()),
                (Kind::Int, "0".into()),
                (Kind::Punct, ".".into()),
                (Kind::Ident, "abs".into()),
                (Kind::Punct, "(".into()),
                (Kind::Punct, ")".into()),
            ]
        );
    }

    #[test]
    fn comments_keep_their_text_and_columns_per_line() {
        let f = lex("let x = 1; // trailing panic!()\n/* block */ let y = 2;\n");
        assert_eq!(f.comments[0].find("// trailing panic!()"), Some(11));
        assert_eq!(f.comments[1].trim_end(), "/* block */");
        assert!(f.code[0] && f.code[1] && !f.code[2]);
        assert!(!f.comment_only(0));
        assert_eq!(f.lines[1], "/* block */ let y = 2;");
    }

    #[test]
    fn nested_block_comments_close_at_matching_depth() {
        let f = lex("/* outer /* inner */ still comment */ let x = 1;\n/* a\n b */\n");
        assert!(f.comments[0].contains("still comment"));
        assert_eq!(f.tokens[0].text, "let");
        assert_eq!(f.tokens.len(), 5);
        // A block comment spanning lines is comment text on each of them.
        assert!(f.comment_only(1) && f.comment_only(2));
    }

    #[test]
    fn raw_string_after_keyword_is_one_literal() {
        // Regression: `return r"..."` once read as a normal string, so the
        // embedded backslash swallowed the closing quote and desynced the
        // rest of the file.
        let toks = kinds("fn p() -> &'static str { return r\"a\\\"; }\nlet t = 1;\n");
        assert_eq!(toks.iter().filter(|(k, _)| *k == Kind::Str).count(), 1);
        assert!(toks.ends_with(&[
            (Kind::Punct, "}".into()),
            (Kind::Ident, "let".into()),
            (Kind::Ident, "t".into()),
            (Kind::Punct, "=".into()),
            (Kind::Int, "1".into()),
            (Kind::Punct, ";".into()),
        ]));
        let toks = kinds("fn p() -> &'static [u8] { return br\"a\\\"; }\nx.unwrap();\n");
        assert!(toks.iter().any(|(_, t)| t == "unwrap"));
    }

    #[test]
    fn multi_hash_raw_strings_only_close_on_matching_hashes() {
        let toks = kinds("let s = r##\"inner \"# still inside\"##; let t = 1;\n");
        assert!(toks.iter().all(|(_, t)| t != "still" && t != "inside"));
        assert_eq!(toks.iter().filter(|(k, _)| *k == Kind::Str).count(), 1);
        assert!(toks.iter().any(|(_, t)| t == "t"));
    }

    #[test]
    fn byte_char_quote_does_not_open_a_string() {
        // Regression: `b'"'` once left the scanner inside a phantom string,
        // swallowing the rest of the file.
        let toks = kinds("let q = b'\"'; let x: Option<u32> = None; x.unwrap();\n");
        assert_eq!(toks.iter().filter(|(k, _)| *k == Kind::Char).count(), 1);
        assert!(toks.iter().any(|(_, t)| t == "unwrap"));
    }

    #[test]
    fn escapes_and_quote_chars_never_desync_the_stream() {
        for src in [
            r#"let s = "a\"b"; let t = 1;"#,
            r#"let q = '"'; let t = 1;"#,
            r"let a = b'\n'; let t = 1;",
            r##"fn p() -> &'static str { return r#"has "quotes""#; } let t = 1;"##,
            r#"let v = var"s"; let t = 1;"#,
        ] {
            let toks = kinds(src);
            assert!(
                toks.ends_with(&[
                    (Kind::Ident, "let".into()),
                    (Kind::Ident, "t".into()),
                    (Kind::Punct, "=".into()),
                    (Kind::Int, "1".into()),
                    (Kind::Punct, ";".into()),
                ]),
                "{src}: {toks:?}"
            );
        }
        // An identifier ending in `r` is not a raw-string prefix.
        assert!(kinds(r#"var"s""#).starts_with(&[(Kind::Ident, "var".into())]));
    }

    #[test]
    fn cfg_test_regions_run_through_the_closing_brace() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        assert_eq!(lex(src).test[0..6], [false, true, true, true, true, false]);
        let src = "#[cfg(test)]\nuse foo;\nfn after() {}\n#[test]\nfn t() {}\n";
        assert_eq!(lex(src).test[0..5], [true, true, false, true, true]);
    }

    #[test]
    fn field_level_attribute_does_not_swallow_later_items() {
        let src = "struct S {\n    #[cfg(test)]\n    probe: u32,\n}\nfn after() {}\n";
        assert_eq!(lex(src).test[0..5], [false, true, true, true, false]);
    }

    #[test]
    fn macro_rules_bodies_are_marked() {
        let f = lex("macro_rules! m {\n    () => {};\n}\nfn after() {}\n");
        assert_eq!(f.macro_body[0..4], [true, true, true, false]);
        assert!(f.skipped(2) && !f.skipped(4));
    }
}
