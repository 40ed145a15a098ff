//! `logdiver-lint`: static verification of the classification rule set plus
//! a workspace invariant linter.
//!
//! Two analyzers share one [`Finding`] model:
//!
//! 1. **Rule-set verifier** ([`rules`]) — proves properties of a
//!    [`logdiver::filter::PatternTable`] that the runtime takes on faith:
//!    no earlier rule shadows a later one, every cross-category lexical
//!    overlap is resolved by declared intent (with a concrete witness string
//!    replayed through `classify`), every [`ErrorCategory`] is reachable,
//!    and the craylog simulator's templates classify back to their own
//!    categories. The substring-conjunction pattern language makes all of
//!    these *decidable* — see DESIGN.md §14 for the argument.
//!
//! 2. **Workspace invariant linter** ([`source`]) — a token-level scan
//!    ([`lexer`]) of the workspace sources enforcing repo policy: no panic
//!    paths in the guarded pipeline/stream modules, no wall-clock reads or
//!    thread spawns outside the sanctioned sites, and no wall-clock types
//!    in checkpointable state. Escapes go through
//!    `// lint: allow(<rule>) <reason>` annotations, reason required.
//!
//! 3. **Interprocedural analyzer** ([`graph`]) — a workspace symbol table
//!    and intra-workspace call graph built on the same lexer, propagating
//!    two effect summaries bottom-up: *may panic* (so the guarded scopes
//!    are panic-free through helper calls, not just lexically) and
//!    *may block / acquires locks* (so lock-order cycles and blocking
//!    syscalls under held guards surface with a concrete call-chain
//!    witness). See DESIGN.md §19 for the soundness posture.
//!
//! 4. **Protocol-contract verifier** ([`contract`]) — extracts the
//!    `ERR code=<kebab>` vocabulary from serve emit sites, the client
//!    `Session` matcher, DESIGN.md, and the declared catalog in
//!    `logdiver_types::protocol`, and proves the sets agree.
//!
//! Findings carry `file:line`, a stable rule id, a message, and a fix hint;
//! [`report`] renders them as text or JSON.
//!
//! [`ErrorCategory`]: logdiver_types::ErrorCategory

pub mod contract;
pub mod driver;
pub mod graph;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;

use serde::Serialize;

/// How serious a finding is. `--deny warnings` promotes warnings to
/// failures; errors always fail the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Level {
    /// Should be fixed or explicitly waived, but does not fail `lint`
    /// unless `--deny warnings` is set.
    Warning,
    /// A broken invariant; always fails the run.
    Error,
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Level::Warning => "warning",
            Level::Error => "error",
        })
    }
}

/// One diagnostic from either analyzer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Finding {
    /// Workspace-relative path, or `<ruleset>` for table findings.
    pub file: String,
    /// 1-based line for source findings; the 1-based rule position for
    /// table findings.
    pub line: u32,
    /// Stable rule id (one of [`RULES`]).
    pub rule: &'static str,
    /// Severity.
    pub level: Level,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub hint: String,
    /// For ambiguity findings: a concrete message that demonstrates the
    /// problem, verified against `classify` (JSON `null` when absent).
    pub witness: Option<String>,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {}:{}: [{}] {}",
            self.level, self.file, self.line, self.rule, self.message
        )?;
        if let Some(w) = &self.witness {
            write!(f, "\n    witness: {w:?}")?;
        }
        write!(f, "\n    hint: {}", self.hint)
    }
}

/// Every rule id either analyzer can emit, with its level and a one-line
/// description (`logdiver lint --help` material, and the allowlist the
/// `bad-allow` check validates annotations against).
pub const RULES: &[(&str, Level, &str)] = &[
    (
        "shadowed-rule",
        Level::Error,
        "an earlier pattern matches everything a later pattern matches, so the later rule is dead",
    ),
    (
        "ambiguous-pair",
        Level::Warning,
        "two rules of different categories lexically overlap with no declared ordering intent",
    ),
    (
        "misresolved-pair",
        Level::Error,
        "the witness for an overlapping pair is hijacked by an unrelated third rule",
    ),
    (
        "unreachable-category",
        Level::Error,
        "an ErrorCategory has no pattern producing it",
    ),
    (
        "stale-waiver",
        Level::Warning,
        "an OverlapWaiver names rules that do not overlap (or do not exist), or lacks a reason",
    ),
    (
        "template-drift",
        Level::Error,
        "a craylog simulator template no longer classifies to its own category",
    ),
    (
        "noise-matched",
        Level::Error,
        "a craylog noise template matches the pattern table",
    ),
    (
        "no-panic",
        Level::Error,
        "unwrap/expect/panic!/todo!/unimplemented! in guarded non-test code",
    ),
    (
        "wall-clock",
        Level::Error,
        "Instant::now/SystemTime::now outside the sanctioned timing sites",
    ),
    (
        "thread-spawn",
        Level::Error,
        "std::thread::spawn outside the executor, the streaming engine, and the CLI",
    ),
    (
        "checkpoint-state-clock",
        Level::Error,
        "a wall-clock type named in checkpointable-state modules",
    ),
    (
        "hot-path-alloc",
        Level::Warning,
        "a per-record allocation (to_string/to_owned/String::from/format!) in the zero-copy \
         parse/filter hot path",
    ),
    (
        "bad-allow",
        Level::Warning,
        "a lint allow annotation with an unknown rule id or no reason",
    ),
    (
        "panic-path",
        Level::Error,
        "a call in guarded scope reaches unwrap/expect/panic! through an unguarded helper \
         (witness: the shortest call chain to the panic site)",
    ),
    (
        "lock-order",
        Level::Error,
        "two locks are acquired in opposite orders on different call paths, or a lock is \
         re-acquired while already held (witness: both acquisition chains)",
    ),
    (
        "blocking-under-lock",
        Level::Error,
        "a blocking operation (fs/network/channel/sleep) runs while a serve/stream lock guard \
         is held, possibly through helper calls",
    ),
    (
        "unhandled-code",
        Level::Error,
        "the server emits a non-Fatal protocol code the client Session has no match arm for",
    ),
    (
        "phantom-code",
        Level::Error,
        "the client handles (or the catalog declares) a protocol code no serve site emits",
    ),
    (
        "undocumented-code",
        Level::Warning,
        "an emitted protocol code missing from DESIGN.md's response-code grammar",
    ),
    (
        "uncentralized-code",
        Level::Warning,
        "a protocol code spelled as a string literal instead of a logdiver_types::protocol \
         constant",
    ),
];

/// Looks a rule id up in [`RULES`].
pub fn rule_level(rule: &str) -> Option<Level> {
    RULES
        .iter()
        .find(|(id, _, _)| *id == rule)
        .map(|(_, level, _)| *level)
}

/// Declared module-level rule allowances: `(workspace-relative path, rule
/// id, reason)`.
///
/// Some modules are *architecturally* exempt from a rule — their entire
/// job is the thing the rule bans elsewhere. Scattering per-line
/// `// lint: allow` comments through such a file buries the real policy
/// decision in noise; declaring the allowance here keeps it in one
/// audited place, with the reason next to it, printed by
/// `logdiver lint --rules` alongside the rules themselves.
///
/// An allowance waives exactly one rule for exactly one file. Everything
/// else in the file — and every other file in its crate — is still
/// linted, so e.g. a `thread::spawn` creeping into the serve *core*
/// (`server.rs`, which must stay deterministic for the equivalence
/// proptests) is still flagged.
pub const MODULE_ALLOWANCES: &[(&str, &str, &str)] = &[
    (
        "crates/serve/src/daemon.rs",
        "thread-spawn",
        "the daemon's accept loop spawns one lockstep handler per connection plus one idle \
         ticker; all state lives behind one mutex in the deterministic ServeCore, which stays \
         under the ban",
    ),
    (
        "crates/serve/src/daemon.rs",
        "wall-clock",
        "the idle ticker sleeps on a wall-clock cadence to advance watermarks between pushes; \
         the duration never enters ServeCore, checkpoints, or any analysis result",
    ),
    (
        "crates/craylog/src/templates.rs",
        "hot-path-alloc",
        "the template corpus *renders* message strings for the simulator and tests; it is the \
         emit side, never on the parse hot path",
    ),
    (
        "crates/craylog/src/anonymize.rs",
        "hot-path-alloc",
        "anonymization rewrites lines into fresh strings by design; it runs in offline \
         data-prep tooling, not in the per-record parse loop",
    ),
    (
        "crates/serve/src/daemon.rs",
        "blocking-under-lock",
        "the daemon deliberately holds the fleet mutex across pump and checkpoint: the \
         deterministic ServeCore is single-writer by contract, and the equivalence proptests \
         depend on no interleaving inside a sweep; stalls are bounded by --deadline-ms shedding",
    ),
    (
        "crates/serve/src/daemon.rs",
        "uncentralized-code",
        "the --help text quotes the wire spelling of the shed and limit codes for operators; \
         prose inside a usage string, not an emit site",
    ),
];

/// The declared reason when `path` carries a module-level allowance for
/// `rule`, `None` otherwise.
pub fn module_allowance(path: &str, rule: &str) -> Option<&'static str> {
    MODULE_ALLOWANCES
        .iter()
        .find(|(p, r, _)| *p == path && *r == rule)
        .map(|(_, _, reason)| *reason)
}

/// The combined result of a lint run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct LintReport {
    /// All findings, rule-set first, then source findings in path order.
    pub findings: Vec<Finding>,
}

impl LintReport {
    /// Number of error-level findings.
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.level == Level::Error)
            .count()
    }

    /// Number of warning-level findings.
    pub fn warnings(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.level == Level::Warning)
            .count()
    }

    /// True when the run should fail: any error, or (with `deny_warnings`)
    /// any finding at all.
    pub fn failed(&self, deny_warnings: bool) -> bool {
        if deny_warnings {
            !self.findings.is_empty()
        } else {
            self.errors() > 0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique_and_looked_up() {
        let mut seen = std::collections::HashSet::new();
        for (id, level, desc) in RULES {
            assert!(seen.insert(*id), "duplicate rule id {id}");
            assert!(!desc.is_empty());
            assert_eq!(rule_level(id), Some(*level));
        }
        assert_eq!(rule_level("no-such-rule"), None);
    }

    #[test]
    fn failed_respects_deny() {
        let mut r = LintReport::default();
        assert!(!r.failed(false));
        assert!(!r.failed(true));
        r.findings.push(Finding {
            file: "<ruleset>".into(),
            line: 1,
            rule: "ambiguous-pair",
            level: Level::Warning,
            message: "m".into(),
            hint: "h".into(),
            witness: None,
        });
        assert!(!r.failed(false));
        assert!(r.failed(true));
        assert_eq!(r.warnings(), 1);
        assert_eq!(r.errors(), 0);
    }
}
