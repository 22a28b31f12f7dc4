//! Fixture-driven linter tests: each `tests/fixtures/*.rs` snippet is
//! analyzed under a chosen workspace-relative path (the path decides which
//! rules are in scope) and the exact rule ids and line numbers are
//! asserted. The fixtures are data, not compiled code.

use pv_analyze::{analyze_source, Config, Level};

/// Analyzes `src` as if it lived at `rel` inside the workspace and returns
/// the findings as sorted `(rule, line, level)` triples.
fn run(rel: &str, src: &str) -> Vec<(String, u32, Level)> {
    let a = analyze_source(rel, src, &Config::workspace_default());
    let mut v: Vec<_> = a
        .findings
        .iter()
        .map(|f| (f.rule.to_string(), f.line, f.level))
        .collect();
    v.sort();
    v
}

#[test]
fn hotpath_bad_flags_panic_and_indexing() {
    let src = include_str!("fixtures/hotpath_bad.rs");
    let f = run("crates/tensor/src/linalg.rs", src);
    assert_eq!(
        f,
        vec![
            ("hotpath-panic".to_string(), 4, Level::Deny),
            ("hotpath-slice-index".to_string(), 7, Level::Deny),
        ],
        "{f:?}"
    );
}

#[test]
fn hotpath_bad_outside_hot_paths_is_only_a_warning() {
    let src = include_str!("fixtures/hotpath_bad.rs");
    let f = run("crates/metrics/src/report.rs", src);
    assert_eq!(f, vec![("lib-panic".to_string(), 4, Level::Warn)], "{f:?}");
}

#[test]
fn hotpath_good_is_clean() {
    let src = include_str!("fixtures/hotpath_good.rs");
    assert_eq!(run("crates/tensor/src/conv.rs", src), vec![]);
}

#[test]
fn non_workspace_result_types() {
    let src = include_str!("fixtures/fallible_bad.rs");
    let f = run("crates/data/src/pgm.rs", src);
    assert_eq!(
        f,
        vec![
            ("fallible-api-error".to_string(), 5, Level::Deny),
            ("fallible-api-error".to_string(), 9, Level::Deny),
        ],
        "{f:?}"
    );
}

#[test]
fn justified_pragma_suppresses() {
    let src = include_str!("fixtures/pragma_good.rs");
    let a = analyze_source(
        "crates/metrics/src/report.rs",
        src,
        &Config::workspace_default(),
    );
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    assert_eq!(a.suppressed, 1);
}

#[test]
fn unjustified_or_unknown_pragmas_are_findings() {
    let src = include_str!("fixtures/pragma_bad.rs");
    let f = run("crates/metrics/src/report.rs", src);
    assert_eq!(
        f,
        vec![
            ("lib-panic".to_string(), 6, Level::Warn),
            ("pragma-invalid".to_string(), 5, Level::Deny),
            ("pragma-invalid".to_string(), 9, Level::Deny),
        ],
        "{f:?}"
    );
}

#[test]
fn lib_panic_is_warn_and_fails_only_under_deny_warnings() {
    let src = include_str!("fixtures/lib_warn.rs");
    let a = analyze_source("crates/nn/src/models.rs", src, &Config::workspace_default());
    let mut report = pv_analyze::Report::default();
    report.findings.extend(a.findings);
    report.suppressed += a.suppressed;
    report.files_scanned += 1;
    assert_eq!(report.warn_count(), 1);
    assert_eq!(report.deny_count(), 0);
    assert!(!report.fails(false));
    assert!(report.fails(true));
}
