//! Report rendering: human text and machine-readable JSON.
//!
//! The JSON writer is hand-rolled (the workspace builds without crates.io
//! access, so no serde); the schema is stable and documented in
//! DESIGN.md §12:
//!
//! ```json
//! {
//!   "version": 3,
//!   "files": 123,
//!   "clean": false,
//!   "rules": ["hot-path-alloc", "..."],
//!   "waivers": {"total": 22, "dead": 0, "suppressed": 24},
//!   "violations": [
//!     {"file": "crates/x/src/y.rs", "line": 5, "rule": "nondet-iter",
//!      "scope": "fn export", "message": "...", "excerpt": "..."}
//!   ]
//! }
//! ```

use crate::engine::Report;
use crate::rules::ALL_RULES;
use std::fmt::Write as _;

/// Renders the human-readable report.
#[expect(clippy::let_underscore_must_use, reason = "String writes cannot fail")]
pub fn text(report: &Report) -> String {
    let mut out = String::new();
    for v in &report.violations {
        let _ = writeln!(
            out,
            "{}:{}: [{}] ({}) {}\n    {}",
            v.file,
            v.line,
            v.rule.id(),
            v.scope,
            v.rule.message(),
            v.excerpt
        );
    }
    let w = &report.waivers;
    let _ = writeln!(
        out,
        "xtask lint: {} file(s), {} violation(s); waivers: {} ({} dead, {} suppression(s))",
        report.files,
        report.violations.len(),
        w.total,
        w.dead,
        w.suppressed
    );
    out
}

/// Renders the machine-readable JSON report.
#[expect(clippy::let_underscore_must_use, reason = "String writes cannot fail")]
pub fn json(report: &Report) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"version\": 3,\n");
    let _ = writeln!(out, "  \"files\": {},", report.files);
    let _ = writeln!(out, "  \"clean\": {},", report.clean());
    out.push_str("  \"rules\": [");
    for (i, r) in ALL_RULES.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\"", r.id());
    }
    out.push_str("],\n");
    let w = &report.waivers;
    let _ = writeln!(
        out,
        "  \"waivers\": {{\"total\": {}, \"dead\": {}, \"suppressed\": {}}},",
        w.total, w.dead, w.suppressed
    );
    out.push_str("  \"violations\": [");
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        let _ = write!(out, "\"file\": {}, ", quote(&v.file));
        let _ = write!(out, "\"line\": {}, ", v.line);
        let _ = write!(out, "\"rule\": {}, ", quote(v.rule.id()));
        let _ = write!(out, "\"scope\": {}, ", quote(&v.scope));
        let _ = write!(out, "\"message\": {}, ", quote(v.rule.message()));
        let _ = write!(out, "\"excerpt\": {}", quote(&v.excerpt));
        out.push('}');
    }
    if !report.violations.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// JSON string escaping.
#[expect(clippy::let_underscore_must_use, reason = "String writes cannot fail")]
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Report, Violation};
    use crate::rules::Rule;

    fn sample() -> Report {
        let mut r = Report {
            files: 2,
            ..Default::default()
        };
        r.violations.push(Violation {
            file: "crates/a/src/lib.rs".into(),
            line: 3,
            rule: Rule::NondetIter,
            scope: "fn export".into(),
            excerpt: "for (k, v) in &self.map {".into(),
        });
        r
    }

    #[test]
    fn text_mentions_rule_and_scope() {
        let t = text(&sample());
        assert!(t.contains("[nondet-iter]"));
        assert!(t.contains("(fn export)"));
        assert!(t.contains("1 violation(s)"));
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let mut r = sample();
        r.violations[0].excerpt = "say \"hi\"\tnow".into();
        let j = json(&r);
        assert!(j.contains("\"rule\": \"nondet-iter\""));
        assert!(j.contains("say \\\"hi\\\"\\tnow"));
        assert!(j.contains("\"clean\": false"));
        // Minimal structural sanity: balanced braces/brackets.
        let opens = j.matches('{').count();
        let closes = j.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn empty_report_is_clean() {
        let r = Report::default();
        let j = json(&r);
        assert!(j.contains("\"clean\": true"));
        assert!(j.contains("\"violations\": []"));
    }
}
