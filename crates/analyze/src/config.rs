//! Rule severity levels, per-crate scoping, and override configuration.

use std::collections::BTreeMap;

/// How seriously a rule's findings are taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Rule disabled: findings are discarded.
    Allow,
    /// Reported, but only fails the gate under `--deny-warnings`.
    Warn,
    /// Reported and fails the gate.
    Deny,
}

impl Level {
    /// Lower-case name used in reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Level::Allow => "allow",
            Level::Warn => "warn",
            Level::Deny => "deny",
        }
    }
}

impl std::str::FromStr for Level {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "allow" => Ok(Level::Allow),
            "warn" => Ok(Level::Warn),
            "deny" => Ok(Level::Deny),
            other => Err(format!("unknown level '{other}'")),
        }
    }
}

/// Which files a rule applies to, expressed against workspace-relative
/// paths with forward slashes (e.g. `crates/tensor/src/par.rs`).
#[derive(Debug, Clone)]
pub enum Scope {
    /// Every scanned file.
    All,
    /// Exactly the listed files.
    Files(&'static [&'static str]),
    /// Every crate except the listed ones (the segment after `crates/`).
    AllExceptCrates(&'static [&'static str]),
    /// Union scope: files under any listed crate, plus the listed
    /// individual files (e.g. the serve crate *and* `tensor/src/par.rs`).
    CratesOrFiles {
        /// Crate names (segment after `crates/`).
        crates: &'static [&'static str],
        /// Additional workspace-relative files.
        files: &'static [&'static str],
    },
}

impl Scope {
    /// Whether `rel` (workspace-relative path) falls inside this scope.
    pub fn contains(&self, rel: &str) -> bool {
        match self {
            Scope::All => true,
            Scope::Files(fs) => fs.contains(&rel),
            Scope::AllExceptCrates(cs) => !cs.contains(&crate_of(rel)),
            Scope::CratesOrFiles { crates, files } => {
                crates.contains(&crate_of(rel)) || files.contains(&rel)
            }
        }
    }
}

/// The crate name a workspace-relative path belongs to (`""` for files
/// outside `crates/`, e.g. the umbrella `src/lib.rs`).
pub fn crate_of(rel: &str) -> &str {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
}

/// Severity overrides applied on top of each rule's built-in default:
/// global per-rule, or scoped to one crate via `rule@crate`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// `rule -> level` (global).
    pub rule_levels: BTreeMap<String, Level>,
    /// `(rule, crate) -> level` (wins over the global override).
    pub crate_levels: BTreeMap<(String, String), Level>,
}

impl Config {
    /// The workspace default: no overrides; every rule runs at its
    /// built-in level and scope.
    pub fn workspace_default() -> Self {
        Self::default()
    }

    /// Registers an override from a CLI-style spec: `rule` or
    /// `rule@crate`.
    pub fn set(&mut self, spec: &str, level: Level) {
        match spec.split_once('@') {
            Some((rule, krate)) => {
                self.crate_levels
                    .insert((rule.to_string(), krate.to_string()), level);
            }
            None => {
                self.rule_levels.insert(spec.to_string(), level);
            }
        }
    }

    /// Effective level for `rule` on the file `rel`, given its built-in
    /// `default`.
    pub fn level_for(&self, rule: &str, rel: &str, default: Level) -> Level {
        if let Some(l) = self
            .crate_levels
            .get(&(rule.to_string(), crate_of(rel).to_string()))
        {
            return *l;
        }
        if let Some(l) = self.rule_levels.get(rule) {
            return *l;
        }
        default
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_extracts_segment() {
        assert_eq!(crate_of("crates/tensor/src/par.rs"), "tensor");
        assert_eq!(crate_of("src/lib.rs"), "");
    }

    #[test]
    fn scope_membership() {
        let s = Scope::Files(&["crates/tensor/src/par.rs"]);
        assert!(s.contains("crates/tensor/src/par.rs"));
        assert!(!s.contains("crates/tensor/src/lib.rs"));
        let s = Scope::AllExceptCrates(&["cli", "bench"]);
        assert!(s.contains("crates/core/src/lib.rs"));
        assert!(!s.contains("crates/cli/src/main.rs"));
        let s = Scope::CratesOrFiles {
            crates: &["serve"],
            files: &["crates/tensor/src/par.rs"],
        };
        assert!(s.contains("crates/serve/src/batcher.rs"));
        assert!(s.contains("crates/tensor/src/par.rs"));
        assert!(!s.contains("crates/tensor/src/linalg.rs"));
    }

    #[test]
    fn overrides_precedence() {
        let mut c = Config::workspace_default();
        assert_eq!(
            c.level_for("r", "crates/nn/src/x.rs", Level::Deny),
            Level::Deny
        );
        c.set("r", Level::Allow);
        assert_eq!(
            c.level_for("r", "crates/nn/src/x.rs", Level::Deny),
            Level::Allow
        );
        c.set("r@nn", Level::Warn);
        assert_eq!(
            c.level_for("r", "crates/nn/src/x.rs", Level::Deny),
            Level::Warn
        );
        assert_eq!(
            c.level_for("r", "crates/core/src/x.rs", Level::Deny),
            Level::Allow
        );
    }

    #[test]
    fn level_parse_and_name() {
        assert_eq!("deny".parse::<Level>().expect("parses"), Level::Deny);
        assert!("nope".parse::<Level>().is_err());
        assert_eq!(Level::Warn.name(), "warn");
    }
}
