//! `pv-analyze` — workspace invariant linter for the pruning-evaluation
//! reproduction.
//!
//! A dependency-free static-analysis layer that enforces the project's
//! engineering invariants over `crates/*/src/**/*.rs` that stock clippy
//! cannot express:
//!
//! - kernel hot paths reach no panic, implicit bounds check or loop-body
//!   allocation, directly or through a pv-tensor helper,
//! - locks in the serving path are taken in one global order,
//! - arithmetic on wire-derived lengths is checked,
//! - public fallible APIs return the workspace [`pv_tensor::Error`],
//! - lint suppressions always carry a written justification.
//!
//! Plain call bans live in `crates/clippy.toml` instead: clippy's
//! `disallowed-methods` keeps thread creation in `pv-tensor::par` and
//! `pv-serve::pool`, wall clocks in `pv-obs`, and environment reads at
//! their few sanctioned sites, and `disallowed-macros` keeps `println!`
//! and friends in the `cli`/`bench` crates. The Backend seam is plain Rust
//! visibility: pv-tensor's pack, microkernel and select modules are
//! private.
//!
//! The v2 pipeline is `lex` (a small Rust tokenizer that understands
//! nested block comments, raw strings, and lifetimes) → `parse` (a
//! tolerant recursive-descent parser) → `cfg` (per-function control-flow
//! graphs with reachability and loop depth) → `callgraph`
//! (interprocedural transitive queries) → `rules` (token-pattern and
//! dataflow detectors scoped per file/crate, with `#[cfg(test)]`
//! exemption) → `report` (text and JSON rendering plus gate semantics).
//! See DESIGN.md §9/§14 for the rule catalogue and the recipe for adding
//! a rule.
//!
//! Suppression pragmas live in line comments:
//!
//! ```text
//! // pv-analyze: allow(lib-panic) -- cache is set two lines above
//! // pv-analyze: allow-file(hotpath-slice-index) -- tile loops are bounds-proven
//! ```
//!
//! The `-- reason` is mandatory; a pragma without one (or naming an
//! unknown rule) is itself a deny-level finding.

pub mod callgraph;
pub mod cfg;
pub mod config;
pub mod lex;
pub mod parse;
pub mod report;
pub mod rules;

pub use config::{crate_of, Config, Level, Scope};
pub use report::{Finding, Report, REPORT_SCHEMA_VERSION};
pub use rules::{
    analyze_source, analyze_units, rule_by_id, FileAnalysis, RuleSpec, ALLOC_PATHS, HOT_PATHS,
    RULES,
};

use pv_tensor::Error;
use std::path::{Path, PathBuf};

/// Analyzes every `crates/*/src/**/*.rs` file under `root` (the
/// workspace directory) and aggregates the findings into a [`Report`].
///
/// Files are visited in sorted path order so reports are deterministic.
pub fn analyze_workspace(root: &Path, cfg: &Config) -> Result<Report, Error> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = read_dir_sorted(&crates_dir)?
        .into_iter()
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for cd in crate_dirs {
        let src = cd.join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    files.sort();

    // Two passes: build every unit first (lex/parse/CFG), then analyze
    // them together so the interprocedural rules can chase helpers
    // across files.
    let mut units = Vec::with_capacity(files.len());
    for path in &files {
        let rel = workspace_rel(root, path);
        let src = std::fs::read_to_string(path).map_err(|e| Error::io(path.display(), e))?;
        units.push(callgraph::build_unit(&rel, &src));
    }
    let mut report = Report::default();
    for fa in rules::analyze_units(&units, cfg) {
        report.findings.extend(fa.findings);
        report.suppressed += fa.suppressed;
        report.files_scanned += 1;
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// `path` relative to `root`, with forward slashes (the form the rule
/// scopes are written against).
fn workspace_rel(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Sorted entries of a directory.
fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, Error> {
    let mut out = Vec::new();
    let rd = std::fs::read_dir(dir).map_err(|e| Error::io(dir.display(), e))?;
    for entry in rd {
        let entry = entry.map_err(|e| Error::io(dir.display(), e))?;
        out.push(entry.path());
    }
    out.sort();
    Ok(out)
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), Error> {
    for path in read_dir_sorted(dir)? {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_rel_uses_forward_slashes() {
        let root = Path::new("/w");
        let p = Path::new("/w/crates/tensor/src/par.rs");
        assert_eq!(workspace_rel(root, p), "crates/tensor/src/par.rs");
    }

    #[test]
    fn analyze_workspace_walks_a_synthetic_tree() {
        let dir = std::env::temp_dir().join(format!("pv_analyze_walk_{}", std::process::id()));
        let src = dir.join("crates/demo/src");
        std::fs::create_dir_all(&src).expect("mkdir");
        std::fs::write(
            src.join("lib.rs"),
            "pub fn f() -> std::io::Result<()> { Ok(()) }\n",
        )
        .expect("write");
        std::fs::write(src.join("ok.rs"), "pub fn g() -> u8 { 1 }\n").expect("write");
        let rep = analyze_workspace(&dir, &Config::workspace_default()).expect("analyze succeeds");
        assert_eq!(rep.files_scanned, 2);
        assert_eq!(rep.deny_count(), 1);
        assert_eq!(rep.findings[0].rule, "fallible-api-error");
        assert_eq!(rep.findings[0].file, "crates/demo/src/lib.rs");
        std::fs::remove_dir_all(&dir).ok();
    }
}
