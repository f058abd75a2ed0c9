//! The lint rules, evaluated over the token stream and scope tree.
//!
//! These are the rules rustc and clippy cannot express; everything they
//! can (hashers, panics, prints, wall clocks, docs, discarded results,
//! guard lifetimes) is `[workspace.lints]` in the root manifest plus
//! `clippy.toml` (DESIGN.md §12).
//!
//! * `nondet-iter` — iteration over hash-ordered collections whose order
//!   can leak into output, unless the same statement canonicalizes
//!   (sorts, collects into a `BTreeMap`/`BTreeSet`, or reduces
//!   order-insensitively). clippy's `iter_over_hash_type` sees only the
//!   `for`-loop form.
//! * `float-accum` — order-dependent floating-point reductions outside
//!   the modules that already canonicalize accumulation order.
//! * `clock-domain` — literal-argument `SimTime`/`SimDuration`
//!   constructors outside the timing-table modules and `const`/`static`
//!   initializers: magic durations belong in named constants.
//! * `hot-path-alloc` — `Vec::new()`/`vec![]` in the replay hot-path
//!   modules.
//!
//! `dead-waiver` is evaluated by the engine after all other rules ran, and
//! `workspace-lints` by the engine over the crate manifests.

use crate::lexer::{Token, TokenKind};
use crate::scope::{FileMap, ScopeKind};
use std::collections::BTreeSet;

/// Stable rule identifiers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Heap allocation in the replay hot-path modules.
    HotPathAlloc,
    /// Hash-order iteration that can reach output.
    NondetIter,
    /// Order-dependent float accumulation.
    FloatAccum,
    /// Magic-number durations outside timing tables.
    ClockDomain,
    /// A waiver that suppresses nothing.
    DeadWaiver,
    /// A crate manifest that does not inherit `[workspace.lints]`.
    WorkspaceLints,
}

/// All rules, in report order.
pub const ALL_RULES: &[Rule] = &[
    Rule::HotPathAlloc,
    Rule::NondetIter,
    Rule::FloatAccum,
    Rule::ClockDomain,
    Rule::DeadWaiver,
    Rule::WorkspaceLints,
];

impl Rule {
    /// The stable id used in reports and `lint: allow(...)` waivers.
    pub fn id(self) -> &'static str {
        match self {
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::NondetIter => "nondet-iter",
            Rule::FloatAccum => "float-accum",
            Rule::ClockDomain => "clock-domain",
            Rule::DeadWaiver => "dead-waiver",
            Rule::WorkspaceLints => "workspace-lints",
        }
    }

    /// Rule id → rule, for waiver validation.
    pub fn from_id(id: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.id() == id)
    }

    /// One-line explanation shown with each violation.
    pub fn message(self) -> &'static str {
        match self {
            Rule::HotPathAlloc => {
                "Vec::new()/vec![] in a replay hot-path module; reuse \
                 ReplayScratch/GcScratch buffers or the *_into APIs"
            }
            Rule::NondetIter => {
                "iteration over a hash-ordered collection; the visit order \
                 is arbitrary and can leak into replay output or scheduling \
                 decisions — sort the keys, collect into a BTreeMap/BTreeSet \
                 in the same statement, or reduce order-insensitively"
            }
            Rule::FloatAccum => {
                "order-dependent float accumulation; float addition does not \
                 commute, so a reordered iterator changes the result — \
                 accumulate integers, canonicalize the order first, or waive \
                 with a proof that the source order is fixed"
            }
            Rule::ClockDomain => {
                "integer-literal SimTime/SimDuration constructor outside a \
                 timing table; magic durations belong in named const timing \
                 parameters (hps_nand::timing) so the clock \
                 domain stays auditable"
            }
            Rule::DeadWaiver => {
                "this `lint: allow` suppresses nothing — the violation it \
                 covered is gone; delete the waiver"
            }
            Rule::WorkspaceLints => {
                "crate manifest lacks `[lints] workspace = true`, so the \
                 rules rustc and clippy enforce (DESIGN.md §12) skip it"
            }
        }
    }
}

/// How a file participates in the build, which decides rule applicability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// Code under `src/`, binaries included.
    Lib,
    /// Integration tests under `tests/`.
    Test,
    /// `examples/*`.
    Example,
}

/// Replay hot-path modules where steady-state heap allocation is banned.
const HOT_PATH_FILES: &[&str] = &[
    "crates/emmc/src/device.rs",
    "crates/emmc/src/distributor.rs",
    "crates/ftl/src/ftl.rs",
    "crates/ftl/src/gc.rs",
];

/// Modules allowed to construct literal-valued simulated times: the NAND
/// timing tables (Table V parameters) and the time type's own definition.
const CLOCK_OWNERS: &[&str] = &["crates/nand/src/timing.rs", "crates/core/src/time.rs"];

/// Modules whose job *is* float accumulation and that already canonicalize
/// the order (fixed bucket arrays, sorted merges).
const FLOAT_EXEMPT: &[&str] = &["crates/core/src/stats.rs", "crates/obs/src/registry.rs"];

/// Hash-ordered collection type names (std and the vendored Fx shims).
const HASH_TYPES: &[&str] = &["FxHashMap", "FxHashSet", "HashMap", "HashSet"];

/// Methods that iterate a collection in storage order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Markers that make a hash iteration order-safe when they appear in the
/// same statement: explicit sorts, ordered collection targets, and
/// order-insensitive reductions.
const ORDER_SAFE_MARKERS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "count",
    "len",
    "is_empty",
    "min",
    "max",
    "min_by",
    "min_by_key",
    "max_by",
    "max_by_key",
    "any",
    "all",
    "contains",
    "contains_key",
    "fold_commutative", // escape hatch name used nowhere yet
];

/// Integer turbofish targets that make `.sum::<T>()` order-insensitive.
const INT_SUM_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// One raw rule hit, before waiver filtering.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Hit {
    /// 1-based source line.
    pub line: u32,
    /// The rule that fired.
    pub rule: Rule,
    /// Scope the offending token lives in.
    pub scope: usize,
}

/// Everything the matchers need to know about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path, `/`-separated.
    pub rel: &'a str,
    /// Target kind.
    pub kind: FileKind,
    /// Comment-free tokens with joined operators; second element is the
    /// index into the lexed token stream (for scope lookup).
    pub code: &'a [(Token<'a>, usize)],
    /// Scope tree.
    pub map: &'a FileMap,
}

impl<'a> FileCtx<'a> {
    fn txt(&self, i: usize) -> &'a str {
        self.code.get(i).map(|(t, _)| t.text).unwrap_or("")
    }

    fn kind_at(&self, i: usize) -> Option<TokenKind> {
        self.code.get(i).map(|(t, _)| t.kind)
    }

    fn line(&self, i: usize) -> u32 {
        self.code.get(i).map(|(t, _)| t.line).unwrap_or(0)
    }

    fn scope(&self, i: usize) -> usize {
        self.code
            .get(i)
            .and_then(|(_, orig)| self.map.token_scope.get(*orig))
            .copied()
            .unwrap_or(0)
    }

    fn in_test(&self, i: usize) -> bool {
        self.kind == FileKind::Test || self.map.in_test(self.scope(i))
    }

    fn is_ident(&self, i: usize, text: &str) -> bool {
        self.code
            .get(i)
            .is_some_and(|(t, _)| t.kind == TokenKind::Ident && t.text == text)
    }
}

/// Runs every token rule over one file.
pub fn check(ctx: &FileCtx<'_>) -> Vec<Hit> {
    let mut hits = BTreeSet::new();
    hot_path_alloc(ctx, &mut hits);
    nondet_iter(ctx, &mut hits);
    float_accum(ctx, &mut hits);
    clock_domain(ctx, &mut hits);
    hits.into_iter().collect()
}

fn push(hits: &mut BTreeSet<Hit>, ctx: &FileCtx<'_>, i: usize, rule: Rule) {
    hits.insert(Hit {
        line: ctx.line(i),
        rule,
        scope: ctx.scope(i),
    });
}

/// `hot-path-alloc`: `Vec::new()` / `vec![]` outside test code in the
/// hot-path files.
fn hot_path_alloc(ctx: &FileCtx<'_>, hits: &mut BTreeSet<Hit>) {
    if !HOT_PATH_FILES.contains(&ctx.rel) {
        return;
    }
    for i in 0..ctx.code.len() {
        if ctx.in_test(i) {
            continue;
        }
        if ctx.is_ident(i, "Vec") && ctx.txt(i + 1) == "::" && ctx.txt(i + 2) == "new" {
            push(hits, ctx, i, Rule::HotPathAlloc);
        }
        if ctx.is_ident(i, "vec") && ctx.txt(i + 1) == "!" {
            push(hits, ctx, i, Rule::HotPathAlloc);
        }
    }
}

/// Collects names declared with a hash-ordered collection type in this
/// file: struct fields, `let` ascriptions, fn params
/// (`name: FxHashMap<..>`), and `let name = FxHashMap::default()` forms.
fn hash_typed_names<'a>(ctx: &FileCtx<'a>) -> BTreeSet<&'a str> {
    let mut names = BTreeSet::new();
    for i in 0..ctx.code.len() {
        if ctx.kind_at(i) != Some(TokenKind::Ident) || !HASH_TYPES.contains(&ctx.txt(i)) {
            continue;
        }
        // `name: [&][mut] [path::]FxHashMap<..>` — walk back to the colon.
        let mut j = i;
        while j >= 2 && ctx.txt(j - 1) == "::" && ctx.kind_at(j - 2) == Some(TokenKind::Ident) {
            j -= 2;
        }
        let mut k = j;
        while k >= 1 && matches!(ctx.txt(k - 1), "&" | "mut") {
            k -= 1;
        }
        if k >= 2 && ctx.txt(k - 1) == ":" && ctx.kind_at(k - 2) == Some(TokenKind::Ident) {
            names.insert(ctx.txt(k - 2));
        }
        // `let [mut] name = FxHashMap::default()` / `HashMap::new()` …
        if j >= 2 && ctx.txt(j - 1) == "=" {
            let mut k = j - 2;
            if ctx.kind_at(k) == Some(TokenKind::Ident) {
                let name = ctx.txt(k);
                if k >= 1 && ctx.txt(k - 1) == "mut" {
                    k -= 1;
                }
                if k >= 1 && ctx.is_ident(k - 1, "let") {
                    names.insert(name);
                }
            }
        }
    }
    names
}

/// `nondet-iter`: iteration over hash-ordered collections without a
/// same-statement canonicalization.
fn nondet_iter(ctx: &FileCtx<'_>, hits: &mut BTreeSet<Hit>) {
    if ctx.kind == FileKind::Test {
        return;
    }
    let names = hash_typed_names(ctx);
    if names.is_empty() {
        return;
    }
    for i in 0..ctx.code.len() {
        if ctx.in_test(i) {
            continue;
        }
        // Form 1: `for pat in [&][mut] [self.]name[.iter()…] {`
        if ctx.is_ident(i, "for") {
            if let Some((in_idx, body)) = for_loop_header(ctx, i) {
                if span_has_order_safe_marker(ctx, in_idx + 1, body) {
                    continue;
                }
                for j in in_idx + 1..body {
                    if ctx.kind_at(j) != Some(TokenKind::Ident) || !names.contains(&ctx.txt(j)) {
                        continue;
                    }
                    let next = ctx.txt(j + 1);
                    let method = ctx.txt(j + 2);
                    let iterates = next == "{"
                        || j + 1 == body
                        || (next == "." && ITER_METHODS.contains(&method));
                    if iterates {
                        push(hits, ctx, j, Rule::NondetIter);
                    }
                }
            }
            continue;
        }
        // Form 2: `[self.]name.iter()…` chains in expression position.
        if ctx.txt(i) == "."
            && ITER_METHODS.contains(&ctx.txt(i + 1))
            && ctx.txt(i + 2) == "("
            && ctx.kind_at(i.wrapping_sub(1)) == Some(TokenKind::Ident)
            && names.contains(&ctx.txt(i - 1))
        {
            let end = statement_end(ctx, i);
            let start = statement_start(ctx, i);
            if !span_has_order_safe_marker(ctx, start, end) && !int_sum_terminal(ctx, i, end) {
                push(hits, ctx, i - 1, Rule::NondetIter);
            }
        }
    }
}

/// For a `for` at index `i`: the index of its `in` keyword and of the `{`
/// opening the loop body.
fn for_loop_header(ctx: &FileCtx<'_>, i: usize) -> Option<(usize, usize)> {
    let mut in_idx = None;
    let mut depth = 0i32;
    for j in i + 1..ctx.code.len().min(i + 200) {
        match ctx.txt(j) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "in" if depth == 0 && in_idx.is_none() && ctx.kind_at(j) == Some(TokenKind::Ident) => {
                in_idx = Some(j)
            }
            "{" if depth == 0 => return in_idx.map(|k| (k, j)),
            ";" => return None,
            _ => {}
        }
    }
    None
}

/// First index after `i` that ends the enclosing statement: a `;` at
/// bracket depth 0 or a block `{` at depth 0.
fn statement_end(ctx: &FileCtx<'_>, i: usize) -> usize {
    let mut depth = 0i32;
    for j in i..ctx.code.len() {
        match ctx.txt(j) {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            ";" | "," if depth == 0 => return j,
            "{" | "}" if depth == 0 => return j,
            _ => {}
        }
    }
    ctx.code.len()
}

/// First index at or before `i` that begins the enclosing statement.
fn statement_start(ctx: &FileCtx<'_>, i: usize) -> usize {
    let mut j = i;
    while j > 0 {
        if matches!(ctx.txt(j - 1), ";" | "{" | "}") {
            break;
        }
        j -= 1;
    }
    j
}

/// `true` when the token span contains a canonicalization marker.
fn span_has_order_safe_marker(ctx: &FileCtx<'_>, start: usize, end: usize) -> bool {
    (start..end.min(ctx.code.len())).any(|j| {
        ctx.kind_at(j) == Some(TokenKind::Ident) && ORDER_SAFE_MARKERS.contains(&ctx.txt(j))
    })
}

/// `true` when the chain ends in an integer-typed `.sum::<T>()`.
fn int_sum_terminal(ctx: &FileCtx<'_>, start: usize, end: usize) -> bool {
    (start..end.min(ctx.code.len())).any(|j| {
        ctx.txt(j) == "sum"
            && ctx.txt(j + 1) == "::"
            && ctx.txt(j + 2) == "<"
            && INT_SUM_TYPES.contains(&ctx.txt(j + 3))
    })
}

/// `float-accum`: order-dependent floating-point reductions.
fn float_accum(ctx: &FileCtx<'_>, hits: &mut BTreeSet<Hit>) {
    if FLOAT_EXEMPT.contains(&ctx.rel) || matches!(ctx.kind, FileKind::Test | FileKind::Example) {
        return;
    }
    // Names declared as f64/f32 in this file (fields, params, ascriptions).
    let mut float_names: BTreeSet<&str> = BTreeSet::new();
    for i in 0..ctx.code.len() {
        if matches!(ctx.txt(i), "f64" | "f32")
            && i >= 2
            && ctx.txt(i - 1) == ":"
            && ctx.kind_at(i - 2) == Some(TokenKind::Ident)
        {
            float_names.insert(ctx.txt(i - 2));
        }
        if ctx.is_ident(i, "let") && ctx.txt(i + 1) == "mut" {
            let init = ctx.txt(i + 4);
            if ctx.txt(i + 3) == "="
                && ctx.kind_at(i + 4) == Some(TokenKind::Num)
                && (init.contains('.') || init.ends_with("f64") || init.ends_with("f32"))
            {
                float_names.insert(ctx.txt(i + 2));
            }
        }
    }
    for i in 0..ctx.code.len() {
        if ctx.in_test(i) {
            continue;
        }
        // `.sum::<f64>()` / `.product::<f64>()`
        if ctx.txt(i) == "."
            && matches!(ctx.txt(i + 1), "sum" | "product")
            && ctx.txt(i + 2) == "::"
            && ctx.txt(i + 3) == "<"
            && matches!(ctx.txt(i + 4), "f64" | "f32")
        {
            push(hits, ctx, i + 1, Rule::FloatAccum);
        }
        // `.fold(0.0, …)` with a float seed
        if ctx.txt(i) == "."
            && ctx.is_ident(i + 1, "fold")
            && ctx.txt(i + 2) == "("
            && ctx.kind_at(i + 3) == Some(TokenKind::Num)
            && (ctx.txt(i + 3).contains('.')
                || ctx.txt(i + 3).contains("f_")
                || ctx.txt(i + 3).ends_with("f64")
                || ctx.txt(i + 3).ends_with("f32"))
        {
            push(hits, ctx, i + 1, Rule::FloatAccum);
        }
        // `let s: f64 = ….sum();` — untyped sum with a float ascription
        if ctx.is_ident(i, "let") {
            let end = ctx
                .code
                .iter()
                .skip(i)
                .position(|(t, _)| t.text == ";")
                .map(|off| i + off)
                .unwrap_or(ctx.code.len());
            let has_float_ascription =
                (i..end).any(|j| ctx.txt(j) == ":" && matches!(ctx.txt(j + 1), "f64" | "f32"));
            let has_bare_sum = (i..end).any(|j| {
                ctx.txt(j) == "."
                    && matches!(ctx.txt(j + 1), "sum" | "product")
                    && ctx.txt(j + 2) == "("
            });
            if has_float_ascription && has_bare_sum {
                push(hits, ctx, i, Rule::FloatAccum);
            }
        }
        // `acc += …` on an f64 name inside a loop
        if ctx.kind_at(i) == Some(TokenKind::Ident)
            && float_names.contains(&ctx.txt(i))
            && ctx.txt(i + 1) == "+="
            && ctx.map.within_kind(ctx.scope(i), ScopeKind::Loop)
        {
            push(hits, ctx, i, Rule::FloatAccum);
        }
    }
}

/// `clock-domain`: literal-argument SimTime/SimDuration constructors
/// outside timing tables and const initializers.
fn clock_domain(ctx: &FileCtx<'_>, hits: &mut BTreeSet<Hit>) {
    if CLOCK_OWNERS.contains(&ctx.rel) || matches!(ctx.kind, FileKind::Test | FileKind::Example) {
        return;
    }
    for i in 0..ctx.code.len() {
        if !matches!(ctx.txt(i), "SimTime" | "SimDuration") {
            continue;
        }
        if ctx.txt(i + 1) != "::"
            || !ctx.txt(i + 2).starts_with("from_")
            || ctx.txt(i + 3) != "("
            || ctx.kind_at(i + 4) != Some(TokenKind::Num)
            || ctx.txt(i + 5) != ")"
        {
            continue;
        }
        if ctx.in_test(i) {
            continue;
        }
        // Zero is not a magic number: `from_ns(0)` etc. are just ZERO.
        let lit = ctx.txt(i + 4);
        if lit.trim_end_matches(|c: char| c.is_ascii_alphabetic()) == "0" {
            continue;
        }
        // Named constants are the sanctioned home for literal durations.
        if ctx.map.within_kind(ctx.scope(i), ScopeKind::Const) || const_statement(ctx, i) {
            continue;
        }
        push(hits, ctx, i, Rule::ClockDomain);
    }
}

/// `true` when the statement containing index `i` is a `const`/`static`
/// item (covers braceless initializers: `const D: SimDuration = …;`).
fn const_statement(ctx: &FileCtx<'_>, i: usize) -> bool {
    let start = statement_start(ctx, i);
    let mut j = start;
    while matches!(ctx.txt(j), "pub" | "(" | "crate" | "super" | "in" | ")") {
        j += 1;
    }
    matches!(ctx.txt(j), "const" | "static")
}
