//! Source rules the toolchain cannot express (DESIGN.md §12): every crate
//! opts into `[workspace.lints]`, and library code names its literal
//! simulated durations instead of writing them inline.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fs;
use std::path::{Path, PathBuf};

/// Files allowed to construct literal simulated times: the NAND timing
/// tables (Table V parameters) and the time types' own definitions.
const CLOCK_OWNERS: &[&str] = &["crates/nand/src/timing.rs", "crates/core/src/time.rs"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The root package's manifest and every `crates/*` manifest except the
/// vendored `proptest`, which keeps the lint settings it was vendored with.
fn manifests() -> Vec<PathBuf> {
    let mut out = vec![root().join("Cargo.toml")];
    for entry in fs::read_dir(root().join("crates")).unwrap() {
        let dir = entry.unwrap().path();
        if dir.file_name().unwrap() != "proptest" && dir.join("Cargo.toml").is_file() {
            out.push(dir.join("Cargo.toml"));
        }
    }
    out.sort();
    out
}

/// Every `.rs` file under `dir`, recursively, in path order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `true` when `manifest` has a `[lints]` table containing
/// `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

/// `true` when `code` (a trimmed line) opens a `const` or `static` item.
/// `const fn` is a function, not a named constant.
fn opens_const_item(code: &str) -> bool {
    let mut rest = code;
    if let Some(after) = rest.strip_prefix("pub") {
        rest = after.trim_start();
        if rest.starts_with('(') {
            rest = rest.split_once(')').map_or("", |(_, r)| r.trim_start());
        }
    }
    let item = rest
        .strip_prefix("const ")
        .or_else(|| rest.strip_prefix("static "));
    item.is_some_and(|r| !r.starts_with("fn ") && !r.starts_with("unsafe fn "))
}

/// `true` when `arg`, the text after an opening parenthesis, is a nonzero
/// integer literal and the closing parenthesis: `7)`, `1_500u64 )`.
fn is_nonzero_literal_arg(arg: &str) -> bool {
    let arg = arg.trim_start();
    let end = arg
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(arg.len());
    let (token, rest) = arg.split_at(end);
    let digits = token
        .split(|c: char| !(c.is_ascii_digit() || c == '_'))
        .next()
        .unwrap_or("");
    digits.contains(|c: char| ('1'..='9').contains(&c)) && rest.trim_start().starts_with(')')
}

/// `true` when `code` calls a `SimTime`/`SimDuration` constructor on a
/// nonzero integer literal.
fn builds_literal_time(code: &str) -> bool {
    ["SimTime::from_", "SimDuration::from_"].iter().any(|ty| {
        code.match_indices(ty).any(|(i, _)| {
            let args = code[i + ty.len()..]
                .trim_start_matches(|c: char| c.is_ascii_lowercase() || c == '_');
            args.strip_prefix('(').is_some_and(is_nonzero_literal_arg)
        })
    })
}

/// 1-based lines of `src` that build a `SimTime` or `SimDuration` from a
/// nonzero integer literal outside a `const`/`static` item. Comment lines
/// and everything from the first `#[cfg(test)]` on are skipped.
fn literal_durations(src: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    let mut in_const = false;
    for (n, line) in src.lines().enumerate() {
        let code = line.trim();
        if code.starts_with("#[cfg(test)]") {
            break;
        }
        if code.starts_with("//") {
            continue;
        }
        in_const |= opens_const_item(code);
        if !in_const && builds_literal_time(code) {
            hits.push(n + 1);
        }
        if in_const && code.ends_with(';') {
            in_const = false;
        }
    }
    hits
}

#[test]
fn every_crate_inherits_the_workspace_lints() {
    let missing: Vec<String> = manifests()
        .into_iter()
        .filter(|m| !inherits_workspace_lints(&fs::read_to_string(m).unwrap()))
        .map(|m| m.strip_prefix(root()).unwrap().display().to_string())
        .collect();
    assert!(
        missing.is_empty(),
        "without `[lints] workspace = true` these crates skip every \
         toolchain rule: {missing:?}"
    );
}

#[test]
fn library_code_names_its_literal_durations() {
    let mut files = Vec::new();
    for manifest in manifests() {
        rust_files(&manifest.parent().unwrap().join("src"), &mut files);
    }
    let mut hits = Vec::new();
    for file in &files {
        let rel = file.strip_prefix(root()).unwrap().to_str().unwrap();
        if CLOCK_OWNERS.contains(&rel) {
            continue;
        }
        for line in literal_durations(&fs::read_to_string(file).unwrap()) {
            hits.push(format!("{rel}:{line}"));
        }
    }
    assert!(
        files.contains(&root().join("crates/emmc/src/power.rs")),
        "the scan missed the crate sources"
    );
    assert!(
        hits.is_empty(),
        "integer-literal SimTime/SimDuration outside a timing table; name \
         the duration in a `const` (or move it to hps_nand::timing): {hits:?}"
    );
}

#[test]
fn literal_duration_scan_flags_inline_literals_only() {
    let src = "\
//! Seeded violation: magic integer duration outside a timing table.

/// A literal 7 ms with no named home.
pub fn delay() -> SimDuration {
    SimDuration::from_ms(7)
}
const GAP: SimDuration = SimDuration::from_ms(1);
pub(crate) const CFG: Cfg = Cfg {
    idle: SimDuration::from_ms(500),
};
pub const fn later() -> SimTime {
    SimTime::from_secs(3)
}
fn computed(n: u64) -> SimTime {
    // SimTime::from_ms(9) in a comment is not code.
    SimTime::from_ms(n) + SimTime::from_ns(0) + SimTime::from_us(0x10 + n)
}
#[cfg(test)]
mod tests {
    fn t() { let _ = SimTime::from_ms(3); }
}
";
    assert_eq!(literal_durations(src), vec![5, 12]);
}
