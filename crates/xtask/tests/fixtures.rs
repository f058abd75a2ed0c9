//! Mutation-style fixture tests for the lint engine: every rule must
//! flag the one violation seeded in its fixture file, and the clean
//! fixture (full of lexer traps) must produce none. A rule that silently
//! stops matching breaks its test here before it rots in CI.

use xtask::engine::{lint_source, Report};
use xtask::rules::{FileKind, Rule};

fn lint(rel: &str, kind: FileKind, src: &str) -> Report {
    let mut report = Report::default();
    lint_source(rel, kind, src, &mut report);
    report
}

/// Asserts `rule` fires at least once when `src` is linted as `rel`.
fn assert_fires(rule: Rule, rel: &str, src: &str) {
    let report = lint(rel, FileKind::Lib, src);
    let seen: Vec<_> = report
        .violations
        .iter()
        .map(|v| (v.line, v.rule.id()))
        .collect();
    assert!(
        report.violations.iter().any(|v| v.rule == rule),
        "expected `{}` to fire on {rel}; violations seen: {seen:?}",
        rule.id()
    );
}

#[test]
fn hot_path_alloc_fires() {
    // Only meaningful under a hot-path file name.
    assert_fires(
        Rule::HotPathAlloc,
        "crates/ftl/src/gc.rs",
        include_str!("fixtures/hot_path_alloc.rs"),
    );
}

#[test]
fn hot_path_alloc_is_path_scoped() {
    let report = lint(
        "crates/core/src/fixture.rs",
        FileKind::Lib,
        include_str!("fixtures/hot_path_alloc.rs"),
    );
    assert!(
        !report
            .violations
            .iter()
            .any(|v| v.rule == Rule::HotPathAlloc),
        "hot-path-alloc must not fire outside the hot-path file list"
    );
}

#[test]
fn nondet_iter_fires() {
    assert_fires(
        Rule::NondetIter,
        "crates/core/src/fixture.rs",
        include_str!("fixtures/nondet_iter.rs"),
    );
}

#[test]
fn float_accum_fires() {
    assert_fires(
        Rule::FloatAccum,
        "crates/core/src/fixture.rs",
        include_str!("fixtures/float_accum.rs"),
    );
}

#[test]
fn clock_domain_fires() {
    assert_fires(
        Rule::ClockDomain,
        "crates/emmc/src/fixture.rs",
        include_str!("fixtures/clock_domain.rs"),
    );
}

#[test]
fn clock_domain_respects_owner_files() {
    let report = lint(
        "crates/nand/src/timing.rs",
        FileKind::Lib,
        include_str!("fixtures/clock_domain.rs"),
    );
    assert!(
        !report
            .violations
            .iter()
            .any(|v| v.rule == Rule::ClockDomain),
        "clock-domain must not fire inside a clock-owner file"
    );
}

#[test]
fn dead_waiver_fires() {
    assert_fires(
        Rule::DeadWaiver,
        "crates/core/src/fixture.rs",
        include_str!("fixtures/dead_waiver.rs"),
    );
}

#[test]
fn unknown_rule_in_waiver_is_a_dead_waiver() {
    let src = "/// Doc.\npub fn f() {\n    // lint: allow(no-such-rule)\n    let _x = 1;\n}\n";
    assert_fires(Rule::DeadWaiver, "crates/core/src/fixture.rs", src);
}

#[test]
fn clean_fixture_is_clean() {
    let report = lint(
        "crates/core/src/fixture.rs",
        FileKind::Lib,
        include_str!("fixtures/clean.rs"),
    );
    let seen: Vec<_> = report
        .violations
        .iter()
        .map(|v| (v.line, v.rule.id()))
        .collect();
    assert!(
        report.violations.is_empty(),
        "clean fixture must lint clean; violations seen: {seen:?}"
    );
    // Its one waiver is exercised, so nothing is dead.
    assert_eq!(report.waivers.dead, 0);
    assert_eq!(report.waivers.suppressed, 1);
}

#[test]
fn test_scoped_code_is_exempt_from_lib_rules() {
    let src = "/// Doc.\npub fn lib() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let v: Vec<f64> = Vec::new();\n        assert_eq!(v.iter().sum::<f64>(), 0.0);\n    }\n}\n";
    let report = lint("crates/ftl/src/gc.rs", FileKind::Lib, src);
    let seen: Vec<_> = report
        .violations
        .iter()
        .map(|v| (v.line, v.rule.id()))
        .collect();
    assert!(
        report.violations.is_empty(),
        "test-scoped alloc/float sums must be exempt; seen: {seen:?}"
    );
}

#[test]
fn manifests_must_inherit_workspace_lints() {
    let root = std::env::temp_dir().join(format!("xtask-fixture-ws-{}", std::process::id()));
    for (krate, lints) in [("core", ""), ("ftl", "\n[lints]\nworkspace = true\n")] {
        let dir = root.join("crates").join(krate);
        std::fs::create_dir_all(dir.join("src")).unwrap();
        let manifest = format!("[package]\nname = \"{krate}\"\n{lints}");
        std::fs::write(dir.join("Cargo.toml"), manifest).unwrap();
        std::fs::write(dir.join("src/lib.rs"), "//! Docs.\n").unwrap();
    }
    let report = xtask::engine::lint_workspace(&root).unwrap();
    std::fs::remove_dir_all(&root).ok();
    let flagged: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == Rule::WorkspaceLints)
        .map(|v| v.file.as_str())
        .collect();
    assert_eq!(
        flagged,
        ["crates/core/Cargo.toml"],
        "only the crate without `[lints] workspace = true` is flagged"
    );
}
