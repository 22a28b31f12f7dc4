//! The rule catalogue and the analysis engine (v2: AST/CFG/call-graph).
//!
//! Rules come in two families:
//!
//! - **Token rules** (`fallible-api-error`) match token patterns
//!   directly, with `#[cfg(test)]`/`#[test]` items masked out.
//! - **Dataflow rules** (`hotpath-panic`, `hotpath-slice-index`,
//!   `lib-panic`, `hotpath-alloc`, `lock-discipline`,
//!   `unchecked-frame-arith`) run over the parsed
//!   AST ([`crate::parse`]), the per-function CFG ([`crate::cfg`]), and
//!   the interprocedural call graph ([`crate::callgraph`]). Only
//!   *reachable* events fire (a panic behind `if false` is dead code,
//!   not a finding), and panic/allocation contracts are enforced
//!   *transitively*: a kernel calling a helper that unwraps is flagged
//!   at the call site.
//!
//! Findings can be suppressed by inline `pv-analyze: allow(...)` pragmas
//! carrying a mandatory justification (see [`crate::lex::Pragma`]); a
//! pragma that suppresses nothing is itself a `pragma-unused` warning.
//!
//! To add a rule: pick a kebab-case id, add a [`RuleSpec`] to [`RULES`]
//! (with an `explain` contract), implement a detector, dispatch it from
//! [`analyze_units`], and add good/bad fixtures under `tests/fixtures/`
//! (DESIGN.md §14 walks through an example).
//!
//! Plain call bans (threads, wall clocks, environment reads, console
//! output) are not rules here: `crates/clippy.toml` lists them for
//! clippy's `disallowed-methods`/`disallowed-macros`, and each
//! sanctioned call site carries an `#[expect]`.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{CallGraph, Origin, Unit};
use crate::cfg::{CfgEvent, EvKind, PANIC_MACROS};
use crate::config::{crate_of, Config, Level, Scope};
use crate::lex::{Lexed, Tok, TokKind};
use crate::parse::{Block, NodeKind};
use crate::report::Finding;

/// Kernel hot-path files: panics and implicit bounds checks here cost
/// either determinism guarantees or throughput.
pub const HOT_PATHS: &[&str] = &[
    "crates/tensor/src/linalg.rs",
    "crates/tensor/src/conv.rs",
    "crates/tensor/src/par.rs",
    "crates/tensor/src/pack.rs",
    "crates/tensor/src/microkernel.rs",
    "crates/tensor/src/select.rs",
    "crates/tensor/src/sparse.rs",
];

/// Files under the PR 6 steady-state no-allocation contract: the five
/// Backend implementation files plus the parallel runtime.
pub const ALLOC_PATHS: &[&str] = &[
    "crates/tensor/src/backend.rs",
    "crates/tensor/src/linalg.rs",
    "crates/tensor/src/pack.rs",
    "crates/tensor/src/microkernel.rs",
    "crates/tensor/src/select.rs",
    "crates/tensor/src/par.rs",
];

/// The files that handle PVSR/v1 wire data: the frame codec plus the
/// reactor's per-connection reassembly state machines and event loop,
/// which do length-prefix and buffer-offset arithmetic on bytes the
/// peer controls.
pub const PROTOCOL_FILES: &[&str] = &[
    "crates/serve/src/protocol.rs",
    "crates/serve/src/conn.rs",
    "crates/serve/src/reactor.rs",
];

/// Static description of one rule.
#[derive(Debug, Clone)]
pub struct RuleSpec {
    /// Stable kebab-case identifier (used in reports, pragmas, overrides).
    pub id: &'static str,
    /// Built-in severity before [`Config`] overrides.
    pub default_level: Level,
    /// Which files the rule scans.
    pub scope: Scope,
    /// One-line human description.
    pub summary: &'static str,
    /// Multi-line contract + example, printed by `analyze --explain`.
    pub explain: &'static str,
}

/// The workspace rule catalogue.
pub const RULES: &[RuleSpec] = &[
    RuleSpec {
        id: "hotpath-panic",
        default_level: Level::Deny,
        scope: Scope::Files(HOT_PATHS),
        summary: "no reachable unwrap/expect/panic!-family calls in kernel hot paths, including via helpers",
        explain: "Contract: kernel hot-path files must not reach a panic — not directly\n\
                  (.unwrap(), .expect(), panic!/unreachable!/todo!/unimplemented!) and not\n\
                  through a helper function in the tensor crate. Only CFG-reachable panics\n\
                  count: a panic behind `if false { ... }` or after `return` is dead code.\n\
                  \n\
                  Bad:  fn kernel(x: Option<f32>) { helper(x); }        // helper unwraps\n\
                  Bad:  let v = opt.unwrap();\n\
                  Good: let Some(v) = opt else { return Err(...) };",
    },
    RuleSpec {
        id: "hotpath-slice-index",
        default_level: Level::Deny,
        scope: Scope::Files(HOT_PATHS),
        summary: "no reachable slice indexing in kernel hot paths (iterators or chunked views instead)",
        explain: "Contract: hot-path kernels avoid `a[i]` indexing, which inserts an\n\
                  implicit bounds-check branch per access. Use iterators, chunks_exact,\n\
                  or split_at-style views whose bounds are hoisted out of the loop.\n\
                  Only CFG-reachable indexing sites fire.\n\
                  \n\
                  Bad:  for i in 0..n { acc += a[i] * b[i]; }\n\
                  Good: for (x, y) in a.iter().zip(b) { acc += x * y; }",
    },
    RuleSpec {
        id: "fallible-api-error",
        default_level: Level::Deny,
        scope: Scope::All,
        summary: "public fallible APIs must return the workspace Error type",
        explain: "Contract: every `pub fn ... -> Result<_, E>` uses the workspace\n\
                  `pv_tensor::Error` (or the `Result<T>` alias) so errors compose across\n\
                  crates without ad-hoc conversions. `pub(crate)` helpers are exempt.\n\
                  \n\
                  Bad:  pub fn load(p: &Path) -> io::Result<Model>\n\
                  Good: pub fn load(p: &Path) -> Result<Model>  // workspace alias",
    },
    RuleSpec {
        id: "lib-panic",
        default_level: Level::Warn,
        scope: Scope::AllExceptCrates(&["cli", "bench"]),
        summary: "library code avoids reachable unwrap/expect/panic! (return Error or document the contract)",
        explain: "Contract: library code returns `Error` instead of panicking; a panic\n\
                  that is truly unreachable carries a pragma citing the invariant that\n\
                  makes it so. Only CFG-reachable panics in non-test functions warn.\n\
                  \n\
                  Bad:  let cfg = map.get(key).unwrap();\n\
                  Good: let cfg = map.get(key).ok_or_else(|| Error::config(key))?;",
    },
    RuleSpec {
        id: "hotpath-alloc",
        default_level: Level::Deny,
        scope: Scope::Files(ALLOC_PATHS),
        summary: "no allocation reachable inside kernel loop bodies (steady-state no-alloc contract)",
        explain: "Contract: the Backend implementation files and the parallel runtime\n\
                  never allocate inside a loop body — Vec::new/with_capacity, Box::new,\n\
                  .to_vec()/.clone()/.collect(), vec!/format! — neither directly nor via\n\
                  a tensor-crate helper called from the loop. Packed-GEMM scratch comes\n\
                  from the thread-local pool (PR 6); allocation at loop depth 0 (setup)\n\
                  is allowed. Closures count at their definition site's loop depth.\n\
                  \n\
                  Bad:  for p in panels { let buf = vec![0.0; nr]; ... }\n\
                  Good: let buf = scratch.take(nr); for p in panels { ... }",
    },
    RuleSpec {
        id: "lock-discipline",
        default_level: Level::Deny,
        scope: Scope::CratesOrFiles {
            crates: &["serve"],
            files: &["crates/tensor/src/par.rs"],
        },
        summary: "consistent lock acquisition order; no catch_unwind/channel ops while holding a lock",
        explain: "Contract (serve + par): (1) any two locks are always acquired in the\n\
                  same order everywhere — an A-then-B site plus a B-then-A site is a\n\
                  deadlock waiting for load; (2) no std::panic::catch_unwind and no\n\
                  channel .send()/.recv() while a MutexGuard is live (a panicking or\n\
                  blocking payload would poison or stall the queue). Condvar waits on\n\
                  the guard's own mutex are the sanctioned exception.\n\
                  \n\
                  Bad:  let g = self.state.lock(); self.tx.send(job);\n\
                  Good: let job = { let g = self.state.lock(); g.pop() }; self.tx.send(job);",
    },
    RuleSpec {
        id: "unchecked-frame-arith",
        default_level: Level::Deny,
        scope: Scope::Files(PROTOCOL_FILES),
        summary: "arithmetic on wire-derived lengths must be checked_*/saturating_* before allocation or indexing",
        explain: "Contract: in the PVSR frame codec and the reactor's reassembly state\n\
                  machines (protocol.rs, conn.rs, reactor.rs), any integer derived from\n\
                  the wire (u8/u16/u32 reads, from_le_bytes, take() lengths, integer\n\
                  parameters) is attacker-controlled. Raw `+`/`-`/`*` on such a value\n\
                  can wrap and defeat a later bounds check; use checked_add/checked_mul/\n\
                  saturating_* and surface overflow as a typed BadRequest/Protocol error.\n\
                  \n\
                  Bad:  if self.pos + n > self.buf.len() { ... }   // pos+n can wrap\n\
                  Good: let end = self.pos.checked_add(n).ok_or_else(err)?;",
    },
    RuleSpec {
        id: "pragma-invalid",
        default_level: Level::Deny,
        scope: Scope::All,
        summary: "pv-analyze pragmas must name known rules and carry a `-- justification`",
        explain: "Contract: every suppression is auditable. A pragma must name at least\n\
                  one known rule and justify itself after `--`. Malformed pragmas are\n\
                  deny-level findings and are never themselves suppressible.\n\
                  \n\
                  Bad:  // pv-analyze: allow(lib-panic)\n\
                  Good: // pv-analyze: allow(lib-panic) -- cache is seeded two lines up",
    },
    RuleSpec {
        id: "pragma-unused",
        default_level: Level::Warn,
        scope: Scope::All,
        summary: "allow-pragmas must suppress at least one finding (stale suppressions rot)",
        explain: "Contract: a pragma that suppresses nothing is debt — the code it\n\
                  excused was fixed or deleted, and the pragma now hides future\n\
                  regressions. The v2 engine also proves some PR 3-era pragmas\n\
                  unnecessary (e.g. a panic the CFG shows unreachable). Delete the\n\
                  pragma or fix the code; only rules active for the file are counted,\n\
                  and like pragma-invalid this finding is not suppressible.",
    },
];

/// Looks up a rule by id.
pub fn rule_by_id(id: &str) -> Option<&'static RuleSpec> {
    RULES.iter().find(|r| r.id == id)
}

/// Result of analyzing one file.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Findings that survived scoping, severity, and pragmas.
    pub findings: Vec<Finding>,
    /// Findings discarded by an inline pragma.
    pub suppressed: usize,
}

/// Analyzes one source file in isolation. Convenience wrapper around
/// [`analyze_units`]; transitive queries still run, but can only chase
/// helpers defined in the same file.
pub fn analyze_source(rel: &str, src: &str, cfg: &Config) -> FileAnalysis {
    let unit = crate::callgraph::build_unit(rel, src);
    analyze_units(&[unit], cfg).pop().unwrap_or_default()
}

/// The v2 engine: analyzes a set of [`Unit`]s together so the
/// interprocedural rules can chase helpers across files. Returns one
/// [`FileAnalysis`] per unit, in order.
pub fn analyze_units(units: &[Unit], cfg: &Config) -> Vec<FileAnalysis> {
    let graph = CallGraph::new(units);
    let token_lines: Vec<Vec<u32>> = units
        .iter()
        .map(|u| u.lexed.tokens.iter().map(|t| t.line).collect())
        .collect();
    // used[ui][pi]: whether pragma pi of unit ui suppressed anything
    // (directly, or by excusing a transitively-reached callee event)
    let mut used: Vec<Vec<bool>> = units
        .iter()
        .map(|u| vec![false; u.lexed.pragmas.len()])
        .collect();

    let active = |id: &str, rel: &str| -> bool {
        rule_by_id(id).is_some_and(|r| {
            r.scope.contains(rel) && cfg.level_for(id, rel, r.default_level) != Level::Allow
        })
    };

    let mut raw: Vec<Vec<(&'static str, u32, String)>> = units.iter().map(|_| Vec::new()).collect();

    // Cross-unit pass: lock acquisition orders + lock-held hazards.
    lock_discipline(units, &active, &mut raw);

    // Transitive summaries are bounded to the tensor crate (kernels may
    // not reach panics/allocations through *any* tensor-crate helper).
    // The universe and exclusion predicates are constant per rule, so
    // one memo per rule stays valid across all callers.
    let tensor_universe = |rel: &str| crate_of(rel) == "tensor";
    let mut panic_memo: BTreeMap<(usize, usize), Option<Origin>> = BTreeMap::new();
    let mut alloc_memo: BTreeMap<(usize, usize), Option<Origin>> = BTreeMap::new();

    for (ui, unit) in units.iter().enumerate() {
        let rel = unit.rel.as_str();
        let toks = &unit.lexed.tokens;
        let mask = test_token_mask(toks);

        // --- token-family rule ---
        if active("fallible-api-error", rel) {
            for (line, what) in non_workspace_results(toks, &mask) {
                raw[ui].push(("fallible-api-error", line, what));
            }
        }

        // --- CFG-family rules: reachable events in non-test fns ---
        let hot = active("hotpath-panic", rel);
        let idx = active("hotpath-slice-index", rel);
        let lib = active("lib-panic", rel) && !HOT_PATHS.contains(&rel);
        let alo = active("hotpath-alloc", rel);

        for (fi, f) in unit.ast.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            for ev in &unit.cfgs[fi].events {
                if !ev.reachable {
                    continue;
                }
                if let Some(what) = panic_event(ev) {
                    if hot {
                        raw[ui].push((
                            "hotpath-panic",
                            ev.line,
                            format!("{what} in kernel hot path"),
                        ));
                    }
                    if lib {
                        raw[ui].push((
                            "lib-panic",
                            ev.line,
                            format!("{what} in library code (return Error or justify via pragma)"),
                        ));
                    }
                }
                if idx && matches!(ev.kind, EvKind::Index) {
                    raw[ui].push((
                        "hotpath-slice-index",
                        ev.line,
                        "slice indexing in kernel hot path".to_string(),
                    ));
                }
                if alo && ev.loop_depth >= 1 {
                    if let Some(what) = alloc_event(ev) {
                        raw[ui].push((
                            "hotpath-alloc",
                            ev.line,
                            format!(
                                "{what} allocates inside a kernel loop body (hoist to setup or use the scratch pool)"
                            ),
                        ));
                    }
                }
            }

            // Transitive closures: chase calls into tensor-crate helpers.
            if hot {
                for ev in &unit.cfgs[fi].events {
                    if !ev.reachable {
                        continue;
                    }
                    let EvKind::Call(path) = &ev.kind else {
                        continue;
                    };
                    let Some(name) = path.last() else { continue };
                    let Some(callee) = graph.resolve(units, ui, name, &tensor_universe) else {
                        continue;
                    };
                    if callee == (ui, fi) {
                        continue;
                    }
                    // Origins in hot-path files are reported there
                    // directly; a hotpath-panic or lib-panic pragma on
                    // the origin excuses the whole chain.
                    let mut excl = |eui: usize, eline: u32| -> bool {
                        if HOT_PATHS.contains(&units[eui].rel.as_str()) {
                            return true;
                        }
                        for r in ["hotpath-panic", "lib-panic"] {
                            if let Some(pi) =
                                suppressing_pragma(&units[eui].lexed, &token_lines[eui], r, eline)
                            {
                                used[eui][pi] = true;
                                return true;
                            }
                        }
                        false
                    };
                    if let Some(o) = graph.reaches(
                        units,
                        callee,
                        &tensor_universe,
                        &panic_event,
                        &mut excl,
                        &mut panic_memo,
                    ) {
                        raw[ui].push((
                            "hotpath-panic",
                            ev.line,
                            format!(
                                "call to `{name}` reaches {} at {}:{}",
                                o.what, o.file, o.line
                            ),
                        ));
                    }
                }
            }
            if alo {
                for ev in &unit.cfgs[fi].events {
                    if !ev.reachable || ev.loop_depth == 0 {
                        continue;
                    }
                    let EvKind::Call(path) = &ev.kind else {
                        continue;
                    };
                    if alloc_event(ev).is_some() {
                        continue; // already a direct finding
                    }
                    let Some(name) = path.last() else { continue };
                    let Some(callee) = graph.resolve(units, ui, name, &tensor_universe) else {
                        continue;
                    };
                    if callee == (ui, fi) {
                        continue;
                    }
                    let mut excl = |eui: usize, eline: u32| -> bool {
                        if let Some(pi) = suppressing_pragma(
                            &units[eui].lexed,
                            &token_lines[eui],
                            "hotpath-alloc",
                            eline,
                        ) {
                            used[eui][pi] = true;
                            return true;
                        }
                        false
                    };
                    if let Some(o) = graph.reaches(
                        units,
                        callee,
                        &tensor_universe,
                        &alloc_event,
                        &mut excl,
                        &mut alloc_memo,
                    ) {
                        raw[ui].push((
                            "hotpath-alloc",
                            ev.line,
                            format!(
                                "call to `{name}` inside a loop body reaches {} at {}:{}",
                                o.what, o.file, o.line
                            ),
                        ));
                    }
                }
            }
        }

        // --- taint rule: wire-derived arithmetic in the frame parser ---
        if active("unchecked-frame-arith", rel) {
            frame_arith(unit, &mut raw[ui]);
        }
    }

    // --- suppression, pragma validity, pragma liveness ---
    let mut out = Vec::with_capacity(units.len());
    for (ui, unit) in units.iter().enumerate() {
        let rel = unit.rel.as_str();
        let mut fa = FileAnalysis::default();

        // pragma validity findings are never themselves suppressible
        if active("pragma-invalid", rel) {
            for p in &unit.lexed.pragmas {
                let bad_reason = !p.has_reason;
                let no_rules = p.rules.is_empty();
                let unknown: Vec<&String> =
                    p.rules.iter().filter(|r| rule_by_id(r).is_none()).collect();
                if bad_reason || no_rules || !unknown.is_empty() {
                    let mut msg = String::from("invalid pv-analyze pragma:");
                    if no_rules {
                        msg.push_str(" no rules listed;");
                    }
                    for u in unknown {
                        msg.push_str(&format!(" unknown rule '{u}';"));
                    }
                    if bad_reason {
                        msg.push_str(" missing `-- justification`;");
                    }
                    fa.findings.push(Finding {
                        rule: "pragma-invalid",
                        level: cfg.level_for("pragma-invalid", rel, Level::Deny),
                        file: rel.to_string(),
                        line: p.line,
                        message: msg.trim_end_matches(';').to_string(),
                    });
                }
            }
        }

        for (rule, line, message) in std::mem::take(&mut raw[ui]) {
            if let Some(pi) = suppressing_pragma(&unit.lexed, &token_lines[ui], rule, line) {
                used[ui][pi] = true;
                fa.suppressed += 1;
                continue;
            }
            let level = cfg.level_for(
                rule,
                rel,
                rule_by_id(rule).map_or(Level::Deny, |r| r.default_level),
            );
            fa.findings.push(Finding {
                rule,
                level,
                file: rel.to_string(),
                line,
                message,
            });
        }

        // pragma-unused: a valid pragma whose named rules are active here
        // must have suppressed at least one finding. Not suppressible.
        if active("pragma-unused", rel) {
            for (pi, p) in unit.lexed.pragmas.iter().enumerate() {
                if used[ui][pi] {
                    continue;
                }
                let invalid = !p.has_reason
                    || p.rules.is_empty()
                    || p.rules.iter().any(|r| rule_by_id(r).is_none());
                if invalid {
                    continue; // already a pragma-invalid finding
                }
                // only evaluable when at least one named rule runs here
                if !p.rules.iter().any(|r| active(r, rel)) {
                    continue;
                }
                fa.findings.push(Finding {
                    rule: "pragma-unused",
                    level: cfg.level_for("pragma-unused", rel, Level::Warn),
                    file: rel.to_string(),
                    line: p.line,
                    message: format!(
                        "pragma suppresses nothing (allow({}) matched no finding) — delete it or fix the code",
                        p.rules.join(", ")
                    ),
                });
            }
        }

        fa.findings
            .sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));
        out.push(fa);
    }
    out
}

/// Matches direct panic events: `.unwrap()` / `.expect(...)` / the
/// `panic!` macro family. Doubles as the transitive-query matcher.
fn panic_event(ev: &CfgEvent) -> Option<String> {
    match &ev.kind {
        EvKind::Method { name, .. } if name == "unwrap" || name == "expect" => {
            Some(format!(".{name}()"))
        }
        EvKind::Macro(n) if PANIC_MACROS.contains(&n.as_str()) => Some(format!("{n}!")),
        _ => None,
    }
}

/// Container types whose `new`/`with_capacity` constructors allocate.
const ALLOC_CONTAINERS: &[&str] = &["Vec", "Box", "String", "VecDeque"];
/// Methods that allocate a fresh buffer.
const ALLOC_METHODS: &[&str] = &["to_vec", "clone", "collect"];

/// Matches allocation events (the hotpath-alloc vocabulary).
fn alloc_event(ev: &CfgEvent) -> Option<String> {
    match &ev.kind {
        EvKind::Call(path) => {
            let last = path.last()?;
            let qual = path.len().checked_sub(2).map(|q| path[q].as_str());
            if last == "with_capacity"
                || (last == "new" && qual.is_some_and(|q| ALLOC_CONTAINERS.contains(&q)))
            {
                return Some(format!("{}()", path.join("::")));
            }
            None
        }
        EvKind::Method { name, .. } if ALLOC_METHODS.contains(&name.as_str()) => {
            Some(format!(".{name}()"))
        }
        EvKind::Macro(n) if n == "vec" || n == "format" => Some(format!("{n}!")),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// lock-discipline
// ---------------------------------------------------------------------

/// One `A acquired, then B acquired while A held` observation.
struct LockPair {
    unit: usize,
    line: u32,
    first: String,
    second: String,
}

/// Scans every in-scope function for lock acquisition order and
/// lock-held hazards, then cross-checks all (A, B) acquisition pairs for
/// inversions. Findings are pushed into `raw` (pragma handling happens
/// centrally).
fn lock_discipline(
    units: &[Unit],
    active: &dyn Fn(&str, &str) -> bool,
    raw: &mut [Vec<(&'static str, u32, String)>],
) {
    let mut pairs: Vec<LockPair> = Vec::new();
    for (ui, unit) in units.iter().enumerate() {
        if !active("lock-discipline", &unit.rel) {
            continue;
        }
        for f in &unit.ast.fns {
            if f.is_test {
                continue;
            }
            let mut held: Vec<String> = Vec::new();
            walk_locks(&f.body, &mut held, ui, &mut pairs, &mut raw[ui]);
        }
    }
    for s in &pairs {
        if s.first == s.second {
            continue;
        }
        if let Some(o) = pairs
            .iter()
            .find(|o| o.first == s.second && o.second == s.first)
        {
            raw[s.unit].push((
                "lock-discipline",
                s.line,
                format!(
                    "lock order inversion: `{}` acquired before `{}` here, but `{}` before `{}` at {}:{}",
                    s.first, s.second, o.first, o.second, units[o.unit].rel, o.line
                ),
            ));
        }
    }
}

/// Walks one block. Guards bound by `let` stay held to the end of the
/// enclosing block; expression-position locks are transient (the guard
/// drops at the end of the statement) but still record ordering pairs.
/// Closure bodies start with a fresh held set (they run elsewhere).
fn walk_locks(
    b: &Block,
    held: &mut Vec<String>,
    ui: usize,
    pairs: &mut Vec<LockPair>,
    hazards: &mut Vec<(&'static str, u32, String)>,
) {
    let entry = held.len();
    walk_lock_nodes(b, held, ui, pairs, hazards);
    held.truncate(entry);
}

/// Node walker without a scope boundary — guards bound by `let`s in `b`
/// stay on `held` for the caller to truncate.
fn walk_lock_nodes(
    b: &Block,
    held: &mut Vec<String>,
    ui: usize,
    pairs: &mut Vec<LockPair>,
    hazards: &mut Vec<(&'static str, u32, String)>,
) {
    for node in b {
        match &node.kind {
            NodeKind::MethodCall { name, recv } => {
                if name == "lock" {
                    let label = lock_label(recv);
                    for h in held.iter() {
                        pairs.push(LockPair {
                            unit: ui,
                            line: node.line,
                            first: h.clone(),
                            second: label.clone(),
                        });
                    }
                } else if name == "send" || name == "recv" {
                    if let Some(holding) = held.last() {
                        hazards.push((
                            "lock-discipline",
                            node.line,
                            format!(
                                "`.{name}()` while holding lock `{holding}` (channel ops can block or panic; release the guard first)"
                            ),
                        ));
                    }
                }
            }
            NodeKind::Call { path } if path.last().is_some_and(|n| n == "catch_unwind") => {
                if let Some(holding) = held.last() {
                    hazards.push((
                        "lock-discipline",
                        node.line,
                        format!(
                            "catch_unwind while holding lock `{holding}` (an unwinding payload poisons the mutex)"
                        ),
                    ));
                }
            }
            NodeKind::Let { name, init, .. } => {
                // events inside the initializer see the outer held set;
                // a guard bound here stays held to the end of the
                // enclosing block (the caller truncates)
                walk_locks(init, held, ui, pairs, hazards);
                if let Some(recv) = find_lock_acquire(init) {
                    let label = if recv.is_empty() {
                        name.clone().unwrap_or_else(|| "lock".to_string())
                    } else {
                        recv
                    };
                    held.push(label);
                }
            }
            NodeKind::If {
                cond,
                then_b,
                else_b,
                ..
            } => {
                // `if let Ok(g) = m.lock()` holds the guard through both
                // branches; it drops when the `if` ends
                let start = held.len();
                walk_lock_nodes(cond, held, ui, pairs, hazards);
                walk_locks(then_b, held, ui, pairs, hazards);
                walk_locks(else_b, held, ui, pairs, hazards);
                held.truncate(start);
            }
            NodeKind::Loop { body } => {
                walk_locks(body, held, ui, pairs, hazards);
            }
            NodeKind::Match { arms } => {
                for arm in arms {
                    walk_locks(arm, held, ui, pairs, hazards);
                }
            }
            NodeKind::Braced { body } => {
                walk_locks(body, held, ui, pairs, hazards);
            }
            NodeKind::Closure { body } => {
                let mut fresh = Vec::new();
                walk_locks(body, &mut fresh, ui, pairs, hazards);
            }
            _ => {}
        }
    }
}

/// Receiver chain of the first `.lock()` in a block (top level or under
/// a braced/if wrapper), or `None` if the block acquires nothing.
fn find_lock_acquire(b: &Block) -> Option<String> {
    for node in b {
        match &node.kind {
            NodeKind::MethodCall { name, recv } if name == "lock" => {
                return Some(recv.clone());
            }
            NodeKind::Braced { body } => {
                if let Some(r) = find_lock_acquire(body) {
                    return Some(r);
                }
            }
            NodeKind::If { cond, .. } => {
                if let Some(r) = find_lock_acquire(cond) {
                    return Some(r);
                }
            }
            _ => {}
        }
    }
    None
}

/// Display label for a lock: its receiver chain, or a placeholder.
fn lock_label(recv: &str) -> String {
    if recv.is_empty() {
        "<lock>".to_string()
    } else {
        recv.to_string()
    }
}

// ---------------------------------------------------------------------
// unchecked-frame-arith
// ---------------------------------------------------------------------

/// Method names that read raw integers off the wire.
const WIRE_METHODS: &[&str] = &[
    "u8", "u16", "u32", "u64", "take", "read_u8", "read_u16", "read_u32", "read_u64",
];

/// Flags raw `+`/`-`/`*` arithmetic on wire-derived integers. Taint
/// sources: integer-typed parameters and `let`s initialized from wire
/// reads; taint propagates through `let` chains and is cleared by
/// `checked_*`/`saturating_*` initializers.
fn frame_arith(unit: &Unit, out: &mut Vec<(&'static str, u32, String)>) {
    for f in &unit.ast.fns {
        if f.is_test {
            continue;
        }
        let mut tainted: BTreeSet<String> = f
            .params
            .iter()
            .filter(|p| p.integer)
            .map(|p| p.name.clone())
            .collect();
        walk_taint(&f.body, &mut tainted, out);
    }
}

fn walk_taint(
    b: &Block,
    tainted: &mut BTreeSet<String>,
    out: &mut Vec<(&'static str, u32, String)>,
) {
    for node in b {
        match &node.kind {
            NodeKind::Let {
                name,
                init,
                init_idents,
            } => {
                walk_taint(init, tainted, out);
                if let Some(n) = name {
                    if init_has_sanitizer(init) {
                        tainted.remove(n);
                    } else if init_has_wire_read(init)
                        || init_idents.iter().any(|i| tainted.contains(i))
                    {
                        tainted.insert(n.clone());
                    } else if !init.is_empty() {
                        tainted.remove(n); // clean rebinding
                    }
                }
            }
            NodeKind::BinArith { op, lhs, rhs } => {
                if let Some(side) = [lhs, rhs].into_iter().find(|s| tainted.contains(*s)) {
                    out.push((
                        "unchecked-frame-arith",
                        node.line,
                        format!(
                            "unchecked `{op}` on wire-derived `{side}` (use checked_/saturating_ and surface overflow as BadRequest)"
                        ),
                    ));
                }
            }
            NodeKind::Loop { body } => walk_taint(body, tainted, out),
            NodeKind::If {
                cond,
                then_b,
                else_b,
                ..
            } => {
                walk_taint(cond, tainted, out);
                walk_taint(then_b, tainted, out);
                walk_taint(else_b, tainted, out);
            }
            NodeKind::Match { arms } => {
                for arm in arms {
                    walk_taint(arm, tainted, out);
                }
            }
            NodeKind::Closure { body } | NodeKind::Braced { body } => {
                walk_taint(body, tainted, out);
            }
            _ => {}
        }
    }
}

/// Whether an initializer reads an integer off the wire.
fn init_has_wire_read(b: &Block) -> bool {
    b.iter().any(|n| match &n.kind {
        NodeKind::MethodCall { name, .. } => WIRE_METHODS.contains(&name.as_str()),
        NodeKind::Call { path } => path.last().is_some_and(|s| s == "from_le_bytes"),
        NodeKind::Braced { body } => init_has_wire_read(body),
        _ => false,
    })
}

/// Whether an initializer routes through overflow-checked arithmetic.
fn init_has_sanitizer(b: &Block) -> bool {
    b.iter().any(|n| match &n.kind {
        NodeKind::MethodCall { name, .. } => {
            name.starts_with("checked_") || name.starts_with("saturating_") || name == "try_fold"
        }
        NodeKind::Braced { body } => init_has_sanitizer(body),
        _ => false,
    })
}

// ---------------------------------------------------------------------
// pragma suppression
// ---------------------------------------------------------------------

/// Index of the pragma excusing a finding of `rule` at `line`, if any.
///
/// Line-scoped pragmas cover their own line (trailing comment) and the
/// next token-bearing line (pragma on its own line above the code).
fn suppressing_pragma(lexed: &Lexed, token_lines: &[u32], rule: &str, line: u32) -> Option<usize> {
    lexed.pragmas.iter().position(|p| {
        if !p.has_reason || !p.rules.iter().any(|r| r == rule) {
            return false;
        }
        if p.file_scope || p.line == line {
            return true;
        }
        // next token-bearing line after the pragma
        token_lines
            .iter()
            .filter(|&&l| l > p.line)
            .min()
            .is_some_and(|&next| next == line)
    })
}

// ---------------------------------------------------------------------
// token-family detector (fallible-api-error)
// ---------------------------------------------------------------------

/// Marks every token that belongs to a `#[cfg(test)]` / `#[test]`
/// attributed item (typically the `mod tests { ... }` block).
fn test_token_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            let attr_end = match matching_close(toks, i + 1, '[', ']') {
                Some(e) => e,
                None => break,
            };
            let attr_toks = &toks[i + 2..attr_end];
            let is_test_attr = attr_toks.iter().any(|t| t.is_ident("test"))
                && (attr_toks.iter().any(|t| t.is_ident("cfg"))
                    || attr_toks.first().is_some_and(|t| t.is_ident("test")));
            if is_test_attr {
                // skip any further attributes, then the attributed item
                let mut j = attr_end + 1;
                while j + 1 < toks.len() && toks[j].is_punct('#') && toks[j + 1].is_punct('[') {
                    j = match matching_close(toks, j + 1, '[', ']') {
                        Some(e) => e + 1,
                        None => return mask,
                    };
                }
                let end = item_end(toks, j);
                for m in mask.iter_mut().take(end.min(toks.len())).skip(i) {
                    *m = true;
                }
                i = end;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Index just past the item starting at `start` (ends at `;` outside all
/// brackets, or at the matching `}` of its body).
fn item_end(toks: &[Tok], start: usize) -> usize {
    let (mut paren, mut bracket, mut brace) = (0i32, 0i32, 0i32);
    let mut j = start;
    while j < toks.len() {
        let t = &toks[j];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "{" => brace += 1,
                "}" => {
                    brace -= 1;
                    if brace == 0 {
                        return j + 1;
                    }
                }
                ";" if paren == 0 && bracket == 0 && brace == 0 => return j + 1,
                _ => {}
            }
        }
        j += 1;
    }
    toks.len()
}

/// Index of the token closing the bracket opened at `open_idx`.
fn matching_close(toks: &[Tok], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// `pub fn ... -> Result<_, E>` where `E` is not the workspace `Error`.
fn non_workspace_results(toks: &[Tok], mask: &[bool]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if mask[i] || !toks[i].is_ident("pub") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // pub(crate)/pub(super) are not public API
        if j < toks.len() && toks[j].is_punct('(') {
            i = matching_close(toks, j, '(', ')').map_or(toks.len(), |e| e + 1);
            continue;
        }
        // allow qualifiers between pub and fn (const, async, unsafe, extern)
        while j < toks.len()
            && toks[j].kind == TokKind::Ident
            && ["const", "async", "unsafe", "extern"].contains(&toks[j].text.as_str())
        {
            j += 1;
        }
        if j >= toks.len() || !toks[j].is_ident("fn") {
            i += 1;
            continue;
        }
        let fn_line = toks[j].line;
        let fn_name = toks.get(j + 1).map(|t| t.text.clone()).unwrap_or_default();
        // find the parameter list and skip it
        let mut k = j + 1;
        while k < toks.len() && !toks[k].is_punct('(') {
            k += 1;
        }
        let after_params = match matching_close(toks, k, '(', ')') {
            Some(e) => e + 1,
            None => break,
        };
        // return type region: `-> ... {` or `;` or `where`
        if after_params + 1 < toks.len()
            && toks[after_params].is_punct('-')
            && toks[after_params + 1].is_punct('>')
        {
            let mut r = after_params + 2;
            let mut region = Vec::new();
            while r < toks.len() {
                let t = &toks[r];
                if t.is_punct('{') || t.is_punct(';') || t.is_ident("where") {
                    break;
                }
                region.push(r);
                r += 1;
            }
            if let Some(msg) = bad_result_type(toks, &region) {
                out.push((fn_line, format!("pub fn {fn_name} {msg}")));
            }
            i = r;
            continue;
        }
        i = after_params;
    }
    out
}

/// Checks a return-type token region for a non-workspace `Result`.
fn bad_result_type(toks: &[Tok], region: &[usize]) -> Option<String> {
    for (pos, &ri) in region.iter().enumerate() {
        if !toks[ri].is_ident("Result") {
            continue;
        }
        // io::Result (any path ending ...io::Result) is never the
        // workspace alias
        if pos >= 2
            && toks[region[pos - 1]].is_punct(':')
            && toks[region[pos - 2]].is_punct(':')
            && pos >= 3
            && toks[region[pos - 3]].is_ident("io")
        {
            return Some("returns io::Result (use the workspace Error)".to_string());
        }
        // Result<...>: inspect the second top-level generic argument
        let next = region.get(pos + 1).copied();
        if next.is_none_or(|ni| !toks[ni].is_punct('<')) {
            continue;
        }
        let (mut angle, mut paren, mut bracket) = (0i32, 0i32, 0i32);
        let mut args: Vec<Vec<usize>> = vec![Vec::new()];
        for &ai in &region[pos + 1..] {
            let t = &toks[ai];
            match t.text.as_str() {
                "<" => {
                    angle += 1;
                    if angle == 1 {
                        continue;
                    }
                }
                ">" => {
                    angle -= 1;
                    if angle == 0 {
                        break;
                    }
                }
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "," if angle == 1 && paren == 0 && bracket == 0 => {
                    args.push(Vec::new());
                    continue;
                }
                _ => {}
            }
            let _ = (paren, bracket);
            if let Some(last) = args.last_mut() {
                last.push(ai);
            }
        }
        if args.len() < 2 {
            continue; // workspace `Result<T>` alias
        }
        let err_idents: Vec<&str> = args[1]
            .iter()
            .filter(|&&ei| toks[ei].kind == TokKind::Ident)
            .map(|&ei| toks[ei].text.as_str())
            .collect();
        let last_is_error = err_idents.last() == Some(&"Error");
        let routed_through_io = err_idents.contains(&"io");
        if !last_is_error || routed_through_io {
            let ty = err_idents.join("::");
            return Some(format!(
                "returns Result<_, {ty}> instead of the workspace Error"
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> Vec<Finding> {
        analyze_source(rel, src, &Config::workspace_default()).findings
    }

    #[test]
    fn hot_path_panics_flagged() {
        let f = run(
            "crates/tensor/src/linalg.rs",
            "fn f(x: Option<u8>) { x.unwrap(); panic!(\"no\"); }",
        );
        assert!(f.iter().any(|x| x.rule == "hotpath-panic" && x.line == 1));
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "
#[cfg(test)]
mod tests {
    fn t() { Some(1).unwrap(); }
}
";
        let f = run("crates/tensor/src/linalg.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn slice_indexing_only_in_hot_paths() {
        let src = "fn f(a: &[f32]) -> f32 { a[0] }";
        assert!(run("crates/tensor/src/conv.rs", src)
            .iter()
            .any(|x| x.rule == "hotpath-slice-index"));
        assert!(run("crates/nn/src/linear.rs", src)
            .iter()
            .all(|x| x.rule != "hotpath-slice-index"));
    }

    #[test]
    fn array_type_and_macro_brackets_not_flagged() {
        let src = "fn f() { let a: [f32; 2] = [0.0, 1.0]; let v = vec![1]; let [x, y] = a; }";
        let f = run("crates/tensor/src/conv.rs", src);
        assert!(f.iter().all(|x| x.rule != "hotpath-slice-index"), "{f:?}");
    }

    #[test]
    fn fallible_api_rule() {
        let bad = "pub fn f() -> io::Result<()> { Ok(()) }";
        assert!(run("crates/data/src/pgm.rs", bad)
            .iter()
            .any(|x| x.rule == "fallible-api-error"));
        let bad2 = "pub fn f() -> Result<u8, String> { Ok(1) }";
        assert!(run("crates/data/src/pgm.rs", bad2)
            .iter()
            .any(|x| x.rule == "fallible-api-error"));
        let good = "pub fn f() -> Result<u8, Error> { Ok(1) }\n\
                    pub fn g() -> Result<Vec<(usize, f64)>, pv_tensor::Error> { Ok(vec![]) }\n\
                    pub fn h() -> Result<u8> { Ok(1) }";
        let f = run("crates/data/src/pgm.rs", good);
        assert!(f.iter().all(|x| x.rule != "fallible-api-error"), "{f:?}");
        // pub(crate) is not public API
        let internal = "pub(crate) fn f() -> io::Result<()> { Ok(()) }";
        assert!(run("crates/data/src/pgm.rs", internal).is_empty());
    }

    #[test]
    fn lib_panic_is_warn_level() {
        let src = "fn f(x: Option<u8>) { x.expect(\"set\"); }";
        let f = run("crates/nn/src/optim.rs", src);
        let w = f.iter().find(|x| x.rule == "lib-panic").expect("flagged");
        assert_eq!(w.level, Level::Warn);
    }

    #[test]
    fn pragma_suppresses_with_reason() {
        let src = "
// pv-analyze: allow(lib-panic) -- velocity is set two lines above
fn f(x: Option<u8>) { x.expect(\"set\"); }
";
        let a = analyze_source("crates/nn/src/optim.rs", src, &Config::workspace_default());
        assert!(a.findings.iter().all(|x| x.rule != "lib-panic"));
        assert!(a.findings.iter().all(|x| x.rule != "pragma-unused"));
        assert_eq!(a.suppressed, 1);
    }

    #[test]
    fn pragma_without_reason_is_a_finding_and_does_not_suppress() {
        let src = "
// pv-analyze: allow(lib-panic)
fn f(x: Option<u8>) { x.expect(\"set\"); }
";
        let f = run("crates/nn/src/optim.rs", src);
        assert!(f.iter().any(|x| x.rule == "pragma-invalid"));
        assert!(f.iter().any(|x| x.rule == "lib-panic"), "not suppressed");
        assert!(
            f.iter().all(|x| x.rule != "pragma-unused"),
            "invalid, not unused"
        );
    }

    #[test]
    fn pragma_unknown_rule_is_flagged() {
        let src = "// pv-analyze: allow(not-a-rule) -- whatever\nfn f() {}\n";
        let f = run("crates/nn/src/optim.rs", src);
        assert!(f.iter().any(|x| x.rule == "pragma-invalid"));
    }

    #[test]
    fn file_pragma_suppresses_everywhere() {
        let src = "
// pv-analyze: allow-file(hotpath-slice-index) -- tile loops are bounds-proven
fn f(a: &[f32]) -> f32 { a[0] + a[1] }
fn g(a: &[f32]) -> f32 { a[2] }
";
        let a = analyze_source(
            "crates/tensor/src/conv.rs",
            src,
            &Config::workspace_default(),
        );
        assert!(a.findings.iter().all(|x| x.rule != "hotpath-slice-index"));
        assert_eq!(a.suppressed, 3);
    }

    #[test]
    fn overrides_change_levels() {
        let mut cfg = Config::workspace_default();
        cfg.set("lib-panic", Level::Deny);
        let src = "fn f(x: Option<u8>) { x.unwrap(); }";
        let a = analyze_source("crates/nn/src/optim.rs", src, &cfg);
        assert_eq!(a.findings[0].level, Level::Deny);
        cfg.set("lib-panic", Level::Allow);
        let a = analyze_source("crates/nn/src/optim.rs", src, &cfg);
        assert!(a.findings.is_empty());
    }

    // ------------------------------------------------------------------
    // v2: CFG reachability semantics
    // ------------------------------------------------------------------

    #[test]
    fn dead_branch_panic_does_not_fire() {
        let src = "fn f() {\n    if false {\n        panic!(\"dead\");\n    }\n}";
        let f = run("crates/tensor/src/linalg.rs", src);
        assert!(f.iter().all(|x| x.rule != "hotpath-panic"), "{f:?}");
        let f = run("crates/nn/src/optim.rs", src);
        assert!(f.iter().all(|x| x.rule != "lib-panic"), "{f:?}");
    }

    #[test]
    fn panic_after_return_does_not_fire() {
        let src = "fn f() -> u8 {\n    return 1;\n    Some(1).unwrap()\n}";
        let f = run("crates/tensor/src/linalg.rs", src);
        assert!(f.iter().all(|x| x.rule != "hotpath-panic"), "{f:?}");
    }

    #[test]
    fn transitive_panic_through_helper_fires_at_call_site() {
        let src = "fn helper(x: Option<u8>) -> u8 { x.unwrap() }\n";
        // helper lives in a non-hot-path tensor file; the kernel calls it
        let units = vec![
            crate::callgraph::build_unit("crates/tensor/src/scratch.rs", src),
            crate::callgraph::build_unit(
                "crates/tensor/src/linalg.rs",
                "fn kernel(x: Option<u8>) {\n    helper(x);\n}",
            ),
        ];
        let out = analyze_units(&units, &Config::workspace_default());
        let f = &out[1].findings;
        let hit = f
            .iter()
            .find(|x| x.rule == "hotpath-panic" && x.line == 2)
            .expect("transitive finding at the call site");
        assert!(
            hit.message.contains("crates/tensor/src/scratch.rs:1"),
            "{hit:?}"
        );
        assert!(hit.message.contains(".unwrap()"), "{hit:?}");
    }

    #[test]
    fn transitive_chase_stays_inside_tensor_crate() {
        let units = vec![
            crate::callgraph::build_unit(
                "crates/nn/src/helper.rs",
                "fn outside_helper(x: Option<u8>) -> u8 { x.unwrap() }",
            ),
            crate::callgraph::build_unit(
                "crates/tensor/src/linalg.rs",
                "fn kernel(x: Option<u8>) { outside_helper(x); }",
            ),
        ];
        let out = analyze_units(&units, &Config::workspace_default());
        assert!(out[1].findings.iter().all(|x| x.rule != "hotpath-panic"));
    }

    #[test]
    fn pragma_on_helper_excuses_transitive_chain_and_counts_as_used() {
        let src = "\
// pv-analyze: allow(lib-panic) -- scratch capacity is pre-validated
fn helper(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let units = vec![
            crate::callgraph::build_unit("crates/tensor/src/scratch.rs", src),
            crate::callgraph::build_unit(
                "crates/tensor/src/linalg.rs",
                "fn kernel(x: Option<u8>) { helper(x); }",
            ),
        ];
        let out = analyze_units(&units, &Config::workspace_default());
        assert!(out[1].findings.iter().all(|x| x.rule != "hotpath-panic"));
        // the pragma suppressed both the local lib-panic and the chain
        assert!(out[0].findings.iter().all(|x| x.rule != "pragma-unused"));
    }

    // ------------------------------------------------------------------
    // v2: hotpath-alloc
    // ------------------------------------------------------------------

    #[test]
    fn alloc_in_loop_body_flagged() {
        let src = "fn kernel(n: usize) {\n    for i in 0..n {\n        let buf = vec![0.0f32; 8];\n        let v = Vec::with_capacity(n);\n    }\n}";
        let f = run("crates/tensor/src/pack.rs", src);
        assert!(
            f.iter().any(|x| x.rule == "hotpath-alloc" && x.line == 3),
            "{f:?}"
        );
        assert!(
            f.iter().any(|x| x.rule == "hotpath-alloc" && x.line == 4),
            "{f:?}"
        );
    }

    #[test]
    fn alloc_at_setup_depth_not_flagged() {
        let src = "fn kernel(n: usize) {\n    let buf = Vec::with_capacity(n);\n    for i in 0..n {\n        step();\n    }\n}";
        let f = run("crates/tensor/src/pack.rs", src);
        assert!(f.iter().all(|x| x.rule != "hotpath-alloc"), "{f:?}");
    }

    #[test]
    fn alloc_scope_is_backend_impls_plus_par() {
        let src = "fn f(n: usize) { for i in 0..n { let v = vec![0u8; 4]; } }";
        assert!(run("crates/tensor/src/par.rs", src)
            .iter()
            .any(|x| x.rule == "hotpath-alloc"));
        // conv.rs is a hot path but not under the no-alloc contract
        assert!(run("crates/tensor/src/conv.rs", src)
            .iter()
            .all(|x| x.rule != "hotpath-alloc"));
    }

    #[test]
    fn transitive_alloc_through_helper_fires_at_loop_call_site() {
        let src = "fn helper(n: usize) -> Vec<f32> { let mut v = Vec::with_capacity(n); v }\nfn kernel(n: usize) {\n    for i in 0..n {\n        helper(n);\n    }\n}";
        let f = run("crates/tensor/src/pack.rs", src);
        let hit = f
            .iter()
            .find(|x| x.rule == "hotpath-alloc" && x.line == 4)
            .expect("transitive alloc finding");
        assert!(hit.message.contains("Vec::with_capacity"), "{hit:?}");
        // the helper call at depth 0 is fine
        assert!(
            f.iter()
                .all(|x| !(x.rule == "hotpath-alloc" && x.line == 1)),
            "{f:?}"
        );
    }

    // ------------------------------------------------------------------
    // v2: lock-discipline
    // ------------------------------------------------------------------

    #[test]
    fn lock_order_inversion_flagged_at_both_sites() {
        let units = vec![
            crate::callgraph::build_unit(
                "crates/serve/src/queue.rs",
                "fn a(s: &S) {\n    let g1 = s.jobs.lock();\n    let g2 = s.stats.lock();\n}",
            ),
            crate::callgraph::build_unit(
                "crates/serve/src/worker.rs",
                "fn b(s: &S) {\n    let g1 = s.stats.lock();\n    let g2 = s.jobs.lock();\n}",
            ),
        ];
        let out = analyze_units(&units, &Config::workspace_default());
        let q: Vec<_> = out[0]
            .findings
            .iter()
            .filter(|x| x.rule == "lock-discipline")
            .collect();
        let w: Vec<_> = out[1]
            .findings
            .iter()
            .filter(|x| x.rule == "lock-discipline")
            .collect();
        assert_eq!(q.len(), 1, "{q:?}");
        assert_eq!(w.len(), 1, "{w:?}");
        assert!(q[0].message.contains("inversion"), "{:?}", q[0]);
        assert!(
            q[0].message.contains("crates/serve/src/worker.rs:3"),
            "{:?}",
            q[0]
        );
    }

    #[test]
    fn consistent_lock_order_not_flagged() {
        let units = vec![crate::callgraph::build_unit(
            "crates/serve/src/queue.rs",
            "fn a(s: &S) {\n    let g1 = s.jobs.lock();\n    let g2 = s.stats.lock();\n}\nfn b(s: &S) {\n    let g1 = s.jobs.lock();\n    let g2 = s.stats.lock();\n}",
        )];
        let out = analyze_units(&units, &Config::workspace_default());
        assert!(out[0].findings.iter().all(|x| x.rule != "lock-discipline"));
    }

    #[test]
    fn send_while_holding_lock_flagged() {
        let src = "fn f(s: &S) {\n    let g = s.state.lock();\n    s.tx.send(1);\n}";
        let f = run("crates/serve/src/queue.rs", src);
        assert!(
            f.iter().any(|x| x.rule == "lock-discipline" && x.line == 3),
            "{f:?}"
        );
        // released first: fine
        let ok = "fn f(s: &S) {\n    let v = { let g = s.state.lock(); 1 };\n    s.tx.send(v);\n}";
        let f = run("crates/serve/src/queue.rs", ok);
        assert!(f.iter().all(|x| x.rule != "lock-discipline"), "{f:?}");
    }

    #[test]
    fn catch_unwind_while_holding_lock_flagged() {
        let src = "fn f(s: &S) {\n    let g = s.state.lock();\n    std::panic::catch_unwind(|| run());\n}";
        let f = run("crates/serve/src/pool.rs", src);
        assert!(
            f.iter().any(|x| x.rule == "lock-discipline" && x.line == 3),
            "{f:?}"
        );
    }

    #[test]
    fn condvar_wait_not_flagged() {
        let src = "fn f(s: &S) {\n    let g = s.state.lock();\n    let g = s.cv.wait(g);\n    s.cv.notify_all();\n}";
        let f = run("crates/serve/src/queue.rs", src);
        assert!(f.iter().all(|x| x.rule != "lock-discipline"), "{f:?}");
    }

    #[test]
    fn lock_discipline_scope_is_serve_plus_par() {
        let src = "fn f(s: &S) {\n    let g = s.state.lock();\n    s.tx.send(1);\n}";
        assert!(run("crates/tensor/src/par.rs", src)
            .iter()
            .any(|x| x.rule == "lock-discipline"));
        assert!(run("crates/nn/src/optim.rs", src)
            .iter()
            .all(|x| x.rule != "lock-discipline"));
    }

    // ------------------------------------------------------------------
    // v2: unchecked-frame-arith
    // ------------------------------------------------------------------

    #[test]
    fn wire_length_arithmetic_flagged() {
        let src = "fn frame(&mut self, n: usize) -> Result<()> {\n    let end = self.pos + n;\n    Ok(())\n}";
        let f = run("crates/serve/src/protocol.rs", src);
        assert!(
            f.iter()
                .any(|x| x.rule == "unchecked-frame-arith" && x.line == 2),
            "{f:?}"
        );
        // same code outside the protocol files is out of scope
        assert!(run("crates/serve/src/server.rs", src)
            .iter()
            .all(|x| x.rule != "unchecked-frame-arith"));
    }

    #[test]
    fn frame_arith_scope_covers_reactor_state_machines() {
        // conn.rs and reactor.rs do offset arithmetic on peer-controlled
        // bytes, so they sit under the same contract as the codec
        let src = "fn frame(&mut self, n: usize) -> Result<()> {\n    let end = self.pos + n;\n    Ok(())\n}";
        for file in ["crates/serve/src/conn.rs", "crates/serve/src/reactor.rs"] {
            assert!(
                run(file, src)
                    .iter()
                    .any(|x| x.rule == "unchecked-frame-arith"),
                "{file} must be in unchecked-frame-arith scope"
            );
        }
    }

    #[test]
    fn checked_arithmetic_not_flagged() {
        let src = "fn frame(&mut self, n: usize) -> Result<()> {\n    let end = self.pos.checked_add(n).ok_or_else(bad)?;\n    Ok(())\n}";
        let f = run("crates/serve/src/protocol.rs", src);
        assert!(f.iter().all(|x| x.rule != "unchecked-frame-arith"), "{f:?}");
    }

    #[test]
    fn taint_propagates_through_lets_and_wire_reads() {
        let src = "fn parse(&mut self) -> Result<()> {\n    let n = self.u32()?;\n    let m = n;\n    let total = m * 4;\n    Ok(())\n}";
        let f = run("crates/serve/src/protocol.rs", src);
        assert!(
            f.iter()
                .any(|x| x.rule == "unchecked-frame-arith" && x.line == 4),
            "{f:?}"
        );
    }

    #[test]
    fn sanitized_binding_clears_taint() {
        let src = "fn parse(&mut self, n: u32) -> Result<()> {\n    let n = n.checked_mul(4).ok_or_else(bad)?;\n    let total = n + 8;\n    Ok(())\n}";
        let f = run("crates/serve/src/protocol.rs", src);
        assert!(f.iter().all(|x| x.rule != "unchecked-frame-arith"), "{f:?}");
    }

    // ------------------------------------------------------------------
    // v2: pragma-unused
    // ------------------------------------------------------------------

    #[test]
    fn unused_pragma_warns() {
        let src = "// pv-analyze: allow(lib-panic) -- stale excuse\nfn f() -> u8 { 1 }\n";
        let f = run("crates/nn/src/optim.rs", src);
        let w = f
            .iter()
            .find(|x| x.rule == "pragma-unused")
            .expect("unused pragma flagged");
        assert_eq!(w.level, Level::Warn);
        assert_eq!(w.line, 1);
    }

    #[test]
    fn unused_pragma_for_inactive_rule_is_skipped() {
        // hotpath-panic does not run in nn/, so the pragma is unprovable
        let src =
            "// pv-analyze: allow(hotpath-panic) -- not applicable here\nfn f() -> u8 { 1 }\n";
        let f = run("crates/nn/src/optim.rs", src);
        assert!(f.iter().all(|x| x.rule != "pragma-unused"), "{f:?}");
    }

    #[test]
    fn pragma_proven_unnecessary_by_cfg_is_flagged() {
        // v1 flagged the dead panic, so this pragma used to be load-bearing;
        // the CFG proves the branch dead, so the pragma is now unused
        let src = "// pv-analyze: allow(hotpath-panic) -- branch never taken\nfn f() { if false { panic!(\"x\"); } }\n";
        let f = run("crates/tensor/src/linalg.rs", src);
        assert!(f.iter().any(|x| x.rule == "pragma-unused"), "{f:?}");
    }

    #[test]
    fn pragma_unused_is_not_suppressible() {
        let src = "// pv-analyze: allow(lib-panic, pragma-unused) -- trying to hide\nfn f() -> u8 { 1 }\n";
        let f = run("crates/nn/src/optim.rs", src);
        assert!(f.iter().any(|x| x.rule == "pragma-unused"), "{f:?}");
    }

    #[test]
    fn every_rule_has_an_explain() {
        for r in RULES {
            assert!(!r.explain.trim().is_empty(), "{} lacks explain", r.id);
            assert!(
                r.explain.contains("Contract"),
                "{} explain has no contract",
                r.id
            );
        }
    }
}
