//! Item/scope parser: builds a brace tree over the token stream.
//!
//! Every `{ … }` becomes a [`Scope`] tagged with the item kind that
//! introduced it (`fn`, `mod`, `impl`, `match`, a loop, a `const`
//! initializer, or a plain block), its name when it has one, and whether
//! it sits inside a `#[cfg(test)]` / `#[test]` region. The rule matchers
//! use the tree to answer the questions the old line-regex linter could
//! not: *is this token in test code even though the `#[cfg(test)]`
//! attribute is 300 lines up?*, *is this literal inside a `const` timing
//! table?*, *which function does this violation belong to?*
//!
//! The same pass collects lint waivers from plain `//` comments:
//! `// lint: allow(rule)` waives `rule` on the comment's own line and on
//! the next code line (the two placements the codebase already uses).
//!
//! Waivers are only recognized in plain line comments — doc comments and
//! string literals merely *mentioning* `lint: allow` no longer count,
//! which the old substring matcher got wrong. Every waiver's usage is
//! tracked so the `dead-waiver` rule can flag the ones that suppress
//! nothing.

use crate::lexer::{Token, TokenKind};

/// What introduced a scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScopeKind {
    /// The file itself.
    Root,
    /// `mod name { … }`
    Mod,
    /// `fn name(…) { … }` (incl. closures' enclosing fn)
    Fn,
    /// `impl … { … }`
    Impl,
    /// `trait name { … }`
    Trait,
    /// `struct`/`enum`/`union` body
    Type,
    /// `match … { … }`
    Match,
    /// `for`/`while`/`loop` body
    Loop,
    /// The initializer braces of a `const`/`static` item (timing tables).
    Const,
    /// Any other brace pair: blocks, struct literals, closures.
    Block,
}

/// One node in the brace tree.
#[derive(Clone, Debug)]
pub struct Scope {
    /// Parent scope index; `None` for the root.
    pub parent: Option<usize>,
    /// What introduced the scope.
    pub kind: ScopeKind,
    /// The item's name, when the introducing item had one.
    pub name: Option<String>,
    /// `true` when this scope or an ancestor is `#[cfg(test)]` / `#[test]`.
    pub test: bool,
    /// Line of the opening brace (or 1 for the root).
    pub open_line: u32,
}

/// One `lint: allow(...)` waiver.
#[derive(Clone, Debug)]
pub struct Waiver {
    /// The rule ids being waived.
    pub rules: Vec<String>,
    /// Line of the waiver comment.
    pub line: u32,
    /// Line of the next code token after the comment (standalone-comment
    /// placement waives that line).
    pub next_code_line: u32,
    /// Innermost scope containing the comment.
    pub scope: usize,
}

/// The parsed structure of one file.
#[derive(Debug, Default)]
pub struct FileMap {
    /// All scopes; index 0 is the root.
    pub scopes: Vec<Scope>,
    /// Innermost scope index for each token (parallel to the lexer output).
    pub token_scope: Vec<usize>,
    /// All waivers found in the file.
    pub waivers: Vec<Waiver>,
}

impl FileMap {
    /// `true` when `scope` or any ancestor has the given kind.
    pub fn within_kind(&self, mut scope: usize, kind: ScopeKind) -> bool {
        loop {
            if self.scopes[scope].kind == kind {
                return true;
            }
            match self.scopes[scope].parent {
                Some(p) => scope = p,
                None => return false,
            }
        }
    }

    /// `true` when the token's scope chain is under `#[cfg(test)]`.
    pub fn in_test(&self, scope: usize) -> bool {
        self.scopes[scope].test
    }

    /// Human-readable scope path, e.g. `mod tests > fn replays`.
    pub fn path(&self, scope: usize) -> String {
        let mut parts = Vec::new();
        let mut s = scope;
        loop {
            let sc = &self.scopes[s];
            match (sc.kind, &sc.name) {
                (ScopeKind::Root, _) => {}
                (kind, Some(name)) => parts.push(format!("{} {name}", kind_word(kind))),
                (ScopeKind::Impl, None) => parts.push("impl".to_string()),
                _ => {}
            }
            match sc.parent {
                Some(p) => s = p,
                None => break,
            }
        }
        parts.reverse();
        if parts.is_empty() {
            "(file)".to_string()
        } else {
            parts.join(" > ")
        }
    }
}

fn kind_word(kind: ScopeKind) -> &'static str {
    match kind {
        ScopeKind::Mod => "mod",
        ScopeKind::Fn => "fn",
        ScopeKind::Trait => "trait",
        ScopeKind::Type => "type",
        ScopeKind::Const => "const",
        _ => "",
    }
}

/// Parses the token stream into a [`FileMap`].
pub fn parse(tokens: &[Token<'_>]) -> FileMap {
    let mut map = FileMap {
        scopes: vec![Scope {
            parent: None,
            kind: ScopeKind::Root,
            name: None,
            test: false,
            open_line: 1,
        }],
        token_scope: Vec::with_capacity(tokens.len()),
        waivers: Vec::new(),
    };
    let mut stack: Vec<usize> = vec![0];
    // The item header seen since the last statement boundary at the
    // current level: becomes the kind/name of the next `{`.
    let mut pending: Option<(ScopeKind, Option<String>)> = None;
    // A `#[cfg(test)]` / `#[test]` attribute is waiting for its item.
    let mut armed_test = false;

    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        let current = *stack.last().unwrap_or(&0);
        map.token_scope.push(current);

        match t.kind {
            TokenKind::LineComment => {
                collect_waivers(t, current, &mut map.waivers);
            }
            TokenKind::Ident => match t.text {
                "fn" => pending = Some((ScopeKind::Fn, next_ident(tokens, i))),
                "mod" => pending = Some((ScopeKind::Mod, next_ident(tokens, i))),
                "impl" => pending = Some((ScopeKind::Impl, None)),
                "trait" => pending = Some((ScopeKind::Trait, next_ident(tokens, i))),
                "struct" | "enum" | "union" => {
                    pending = Some((ScopeKind::Type, next_ident(tokens, i)))
                }
                "match" => pending = Some((ScopeKind::Match, None)),
                "for" | "while" | "loop"
                    // Only statement-level `for` opens a loop body; `for`
                    // inside generic bounds (`impl Trait for X`) is
                    // already shadowed by the pending impl.
                    if (pending.is_none() || matches!(pending, Some((ScopeKind::Loop, _)))) => {
                        pending = Some((ScopeKind::Loop, None));
                    }
                "const" | "static"
                    // `impl const Trait`/`const fn` modify another item;
                    // only arm a Const scope when no item is pending yet.
                    if pending.is_none() => {
                        pending = Some((ScopeKind::Const, next_ident(tokens, i)));
                    }
                _ => {}
            },
            TokenKind::Punct => match t.text {
                "#" => {
                    if let Some((end, is_test)) = attribute_extent(tokens, i) {
                        // Tokens of the attribute all live in the current
                        // scope.
                        for _ in i + 1..=end {
                            map.token_scope.push(current);
                        }
                        if is_test {
                            armed_test = true;
                        }
                        i = end;
                    }
                }
                "{" => {
                    let (kind, name) = pending.take().unwrap_or((ScopeKind::Block, None));
                    let test = map.scopes[current].test || std::mem::take(&mut armed_test);
                    map.scopes.push(Scope {
                        parent: Some(current),
                        kind,
                        name,
                        test,
                        open_line: t.line,
                    });
                    let id = map.scopes.len() - 1;
                    stack.push(id);
                    // The `{` itself belongs to the new scope.
                    *map.token_scope.last_mut().unwrap_or(&mut 0) = id;
                }
                "}" => {
                    if stack.len() > 1 {
                        stack.pop();
                    }
                    pending = None;
                }
                ";" => {
                    pending = None;
                    armed_test = false;
                }
                _ => {}
            },
            _ => {}
        }
        i += 1;
    }

    // Resolve each waiver's "next code line" now that lexing is complete.
    resolve_next_code_lines(tokens, &mut map.waivers);
    map
}

/// The next identifier after index `i`, used as the item name.
fn next_ident(tokens: &[Token<'_>], i: usize) -> Option<String> {
    tokens[i + 1..]
        .iter()
        .find(|t| !t.is_comment())
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.to_string())
}

/// For a `#` at index `i` starting `#[…]` or `#![…]`: returns the index of
/// the closing `]` and whether the attribute gates on `test`
/// (`#[cfg(test)]`, `#[cfg(all(test, …))]`, `#[test]`, `#[tokio::test]`…).
fn attribute_extent(tokens: &[Token<'_>], i: usize) -> Option<(usize, bool)> {
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.text == "!") {
        j += 1;
    }
    if tokens.get(j).is_none_or(|t| t.text != "[") {
        return None;
    }
    let mut depth = 0usize;
    let mut saw_test = false;
    let mut root: Option<&str> = None;
    for (k, t) in tokens.iter().enumerate().skip(j) {
        match (t.kind, t.text) {
            (TokenKind::Punct, "[") => depth += 1,
            (TokenKind::Punct, "]") => {
                depth -= 1;
                if depth == 0 {
                    let gates =
                        saw_test && matches!(root, Some("cfg") | Some("cfg_attr") | Some("test"));
                    return Some((k, gates));
                }
            }
            (TokenKind::Ident, text) => {
                if root.is_none() {
                    root = Some(text);
                }
                if text == "test" {
                    saw_test = true;
                }
            }
            _ => {}
        }
    }
    None
}

/// Parses `lint: allow(...)` occurrences out of one plain line comment.
fn collect_waivers(comment: &Token<'_>, scope: usize, out: &mut Vec<Waiver>) {
    let text = comment.text;
    let mut search = 0usize;
    while let Some(found) = text[search..].find("lint: allow") {
        let at = search + found + "lint: allow".len();
        let Some(rest) = text[at..].strip_prefix('(') else {
            search = at;
            continue;
        };
        let Some(close) = rest.find(')') else {
            search = at;
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if !rules.is_empty() {
            out.push(Waiver {
                rules,
                line: comment.line,
                next_code_line: comment.line, // fixed up afterwards
                scope,
            });
        }
        search = at + close;
    }
}

/// Computes, for each waiver, the line of the first code token after the
/// waiver comment — that is the line a standalone waiver covers.
fn resolve_next_code_lines(tokens: &[Token<'_>], waivers: &mut [Waiver]) {
    for w in waivers.iter_mut() {
        // A trailing waiver (code earlier on the same line) covers only its
        // own line; a standalone waiver comment covers the next code line.
        let trailing = tokens.iter().any(|t| !t.is_comment() && t.line == w.line);
        let next = if trailing {
            w.line
        } else {
            tokens
                .iter()
                .filter(|t| !t.is_comment())
                .find(|t| t.line > w.line)
                .map(|t| t.line)
                .unwrap_or(w.line)
        };
        w.next_code_line = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> (Vec<Token<'_>>, FileMap) {
        let toks = lex(src);
        let map = parse(&toks);
        (toks, map)
    }

    fn scope_of(src: &str, needle: &str) -> (FileMap, usize) {
        let toks = lex(src);
        let map = parse(&toks);
        let idx = toks
            .iter()
            .position(|t| t.text == needle)
            .unwrap_or_else(|| panic!("token {needle} not found"));
        let s = map.token_scope[idx];
        (map, s)
    }

    #[test]
    fn nested_items_get_kinds_and_names() {
        let src = "mod outer { impl Foo { fn bar() { let x = 1; } } }";
        let (map, s) = scope_of(src, "x");
        assert_eq!(map.path(s), "mod outer > impl > fn bar");
        assert_eq!(map.scopes[s].kind, ScopeKind::Fn);
    }

    #[test]
    fn cfg_test_marks_whole_region() {
        let src = "\
fn lib() { let a = 1; }
#[cfg(test)]
mod tests {
    fn t() { let b = 2; }
}
fn after() { let c = 3; }
";
        let (map, sa) = scope_of(src, "a");
        assert!(!map.in_test(sa));
        let (map, sb) = scope_of(src, "b");
        assert!(map.in_test(sb));
        let (map, sc) = scope_of(src, "c");
        assert!(!map.in_test(sc));
    }

    #[test]
    fn cfg_variants_and_test_attr_mark_scopes() {
        for attr in [
            "#[cfg(all(test, feature = \"x\"))]",
            "#[cfg(any(test, doc))]",
            "#[test]",
        ] {
            let src = format!("{attr}\nfn t() {{ let y = 1; }}");
            let (map, s) = scope_of(&src, "y");
            assert!(map.in_test(s), "{attr}");
        }
        // A cfg that does NOT gate on test must not mark; feature names
        // are string literals, so they cannot spoof the `test` ident.
        let (map, s) = scope_of(
            "#[cfg(feature = \"test_utils\")]\nfn f() { let y = 1; }",
            "y",
        );
        assert!(!map.in_test(s));
        let (map, s) = scope_of("#[cfg(feature = \"sanitize\")]\nfn f() { let y = 1; }", "y");
        assert!(!map.in_test(s));
    }

    #[test]
    fn braceless_cfg_test_item_does_not_open_region() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn lib() { let z = 1; }";
        let (map, s) = scope_of(src, "z");
        assert!(!map.in_test(s));
    }

    #[test]
    fn const_initializer_braces_are_const_scopes() {
        let src = "pub const NEXUS5: Cfg = Cfg { idle: SimDuration::from_ms(500) };";
        let (map, s) = scope_of(src, "from_ms");
        assert!(map.within_kind(s, ScopeKind::Const));
        // …but a plain fn body is not.
        let (map, s) = scope_of("fn f() { g(SimDuration::from_ms(5)); }", "from_ms");
        assert!(!map.within_kind(s, ScopeKind::Const));
    }

    #[test]
    fn loops_and_matches_get_kinds() {
        let (map, s) = scope_of("fn f() { for i in 0..3 { let q = i; } }", "q");
        assert!(map.within_kind(s, ScopeKind::Loop));
        let (map, s) = scope_of("fn f() { match x { _ => { let m = 1; } } }", "m");
        assert!(map.within_kind(s, ScopeKind::Match));
    }

    #[test]
    fn impl_trait_for_does_not_misfire_loop() {
        let (map, s) = scope_of(
            "impl Iterator for Foo { fn next(&mut self) { let v = 1; } }",
            "v",
        );
        assert!(!map.within_kind(s, ScopeKind::Loop));
        assert_eq!(map.path(s), "impl > fn next");
    }

    #[test]
    fn line_waivers_parse_with_targets() {
        let src = "\
// lint: allow(hot-path-alloc) -- reason
let v = Vec::new();
let w = vec![x.iter().sum::<f64>()]; // lint: allow(hot-path-alloc, float-accum)
";
        let (_toks, map) = parse_src(src);
        assert_eq!(map.waivers.len(), 2);
        assert_eq!(map.waivers[0].line, 1);
        assert_eq!(map.waivers[0].next_code_line, 2);
        assert_eq!(map.waivers[1].rules, vec!["hot-path-alloc", "float-accum"]);
        assert_eq!(map.waivers[1].line, 3);
    }

    #[test]
    fn doc_comments_and_strings_are_not_waivers() {
        let src = "\
/// waive with `// lint: allow(hot-path-alloc)` like so
fn f() { let s = \"// lint: allow(float-accum)\"; }
//! lint: allow(clock-domain)
";
        let (_toks, map) = parse_src(src);
        assert!(map.waivers.is_empty());
    }

    #[test]
    fn unbalanced_braces_do_not_panic() {
        let (_t, _m) = parse_src("} } fn f() { {");
    }
}
