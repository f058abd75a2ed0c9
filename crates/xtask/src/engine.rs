//! Orchestration: walks the workspace, lints each file, applies waivers,
//! and runs the `dead-waiver` and `workspace-lints` passes.

use crate::lexer;
use crate::rules::{self, FileCtx, FileKind, Rule};
use crate::scope;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Vendored third-party shims: not ours to lint.
const SKIP_CRATES: &[&str] = &["proptest"];

/// The lint engine's own test corpus: seeded violations, never linted.
const FIXTURE_DIR: &str = "crates/xtask/tests/fixtures";

/// One reported violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable scope path (`mod x > fn y`).
    pub scope: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

/// Waiver accounting for the report.
#[derive(Clone, Copy, Debug, Default)]
pub struct WaiverStats {
    /// Waivers found.
    pub total: usize,
    /// Waivers that suppressed nothing (reported as `dead-waiver`).
    pub dead: usize,
    /// Violations suppressed by a waiver.
    pub suppressed: usize,
}

/// Result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Files scanned.
    pub files: usize,
    /// Violations that survived waivers, sorted by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Waiver accounting.
    pub waivers: WaiverStats,
}

impl Report {
    /// `true` when nothing fired.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Lints the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    for (path, rel, kind) in workspace_files(root)? {
        let src = fs::read_to_string(&path)?;
        report.files += 1;
        lint_source(&rel, kind, &src, &mut report);
    }
    for dir in package_dirs(root)? {
        let manifest = dir.join("Cargo.toml");
        // A virtual or missing root manifest has no package to opt in.
        let text = fs::read_to_string(&manifest).unwrap_or_default();
        if text.lines().any(|l| l.trim() == "[package]") && !inherits_workspace_lints(&text) {
            report.violations.push(Violation {
                file: relative(root, &manifest),
                line: 1,
                rule: Rule::WorkspaceLints,
                scope: "(manifest)".to_string(),
                excerpt: "[package]".to_string(),
            });
        }
    }
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Lints one file's source text, appending to `report`. Public so the
/// test suite can drive the whole pipeline on fixture strings.
pub fn lint_source(rel: &str, kind: FileKind, src: &str, report: &mut Report) {
    let tokens = lexer::lex(src);
    let map = scope::parse(&tokens);
    let code = lexer::join_puncts(&tokens);
    let ctx = FileCtx {
        rel,
        kind,
        code: &code,
        map: &map,
    };
    let hits = rules::check(&ctx);
    let lines: Vec<&str> = src.lines().collect();
    let excerpt = |line: u32| -> String {
        lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };

    let mut used = vec![false; map.waivers.len()];
    for hit in &hits {
        let matching = map.waivers.iter().position(|w| {
            w.rules.iter().any(|r| r == hit.rule.id())
                && (hit.line == w.line || hit.line == w.next_code_line)
        });
        if let Some(wi) = matching {
            used[wi] = true;
            report.waivers.suppressed += 1;
            continue;
        }
        report.violations.push(Violation {
            file: rel.to_string(),
            line: hit.line,
            rule: hit.rule,
            scope: map.path(hit.scope),
            excerpt: excerpt(hit.line),
        });
    }

    // dead-waiver: anything unused, plus waivers naming unknown rules.
    // Deliberately not waivable — a dead waiver is fixed by deletion.
    for (wi, w) in map.waivers.iter().enumerate() {
        report.waivers.total += 1;
        let unknown = w.rules.iter().any(|r| Rule::from_id(r).is_none());
        if !used[wi] || unknown {
            report.waivers.dead += 1;
            report.violations.push(Violation {
                file: rel.to_string(),
                line: w.line,
                rule: Rule::DeadWaiver,
                scope: map.path(w.scope),
                excerpt: excerpt(w.line),
            });
        }
    }
}

/// The workspace root plus every crate directory under `crates/`, minus
/// the vendored [`SKIP_CRATES`], sorted.
fn package_dirs(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            !SKIP_CRATES.contains(&name)
        })
        .collect();
    crate_dirs.sort();
    crate_dirs.insert(0, root.to_path_buf());
    Ok(crate_dirs)
}

/// `true` when the manifest has a `[lints]` table with `workspace = true`.
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

/// `path` relative to `root`, `/`-separated.
fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// All lintable files: `(absolute path, workspace-relative path, kind)`,
/// sorted for stable output.
fn workspace_files(root: &Path) -> io::Result<Vec<(PathBuf, String, FileKind)>> {
    let mut out = Vec::new();
    for base in package_dirs(root)? {
        for (sub, kind) in [
            ("src", FileKind::Lib),
            ("tests", FileKind::Test),
            ("examples", FileKind::Example),
        ] {
            for file in rust_files(&base.join(sub)) {
                let rel = relative(root, &file);
                if rel.starts_with(FIXTURE_DIR) {
                    continue;
                }
                out.push((file, rel, kind));
            }
        }
    }
    out.sort_by(|a, b| a.1.cmp(&b.1));
    Ok(out)
}

/// All `.rs` files under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out
}
