//! The workspace invariant linter.
//!
//! Scans `crates/**` Rust sources (skipping `tests/` and `benches/`
//! directories and `#[cfg(test)]` regions) for repo-policy violations:
//!
//! - **`no-panic`** — `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!`
//!   in the guarded pipeline modules (`core::{parse, filter, coalesce,
//!   matcher, classify, pipeline, exec}`), the checkpoint codec
//!   (`types::codec`) and the placement set it decodes (`types::ranges`),
//!   and everything in `crates/stream/src`, `crates/serve/src`, and
//!   `crates/client/src`. These are the crash-safety-bearing paths: a
//!   panic there kills a streaming
//!   coordinator mid-checkpoint, a multi-tenant daemon reading a hostile
//!   checkpoint file, or an unattended push client mid-replay.
//! - **`wall-clock`** — `Instant::now`/`SystemTime::now` anywhere except
//!   the CLI, the bench crate, and `core/src/exec.rs`. Determinism
//!   (parallel == serial, resume == uninterrupted) depends on the engine
//!   never reading the host clock.
//! - **`thread-spawn`** — `std::thread::spawn` outside the same exempt
//!   set. Concurrency is confined to the executor and the streaming
//!   engine's audited pool (which carries explicit allows).
//! - **`checkpoint-state-clock`** — the *types* `Instant`/`SystemTime`
//!   named at all in checkpointable-state modules; state that survives a
//!   resume must be wall-clock-free by construction.
//! - **`hot-path-alloc`** — `.to_string()`/`.to_owned()`/`String::from`/
//!   `format!` in the zero-copy hot path (all of `crates/craylog/src` plus
//!   `core::{parse, filter}`). The multi-M-lines/sec throughput contract
//!   rests on the per-record loop never allocating; an allocation that
//!   sneaks in shows up as a silent 2-3× regression, not a test failure.
//!   Cold paths (error display, `materialize()`, quarantine rendering)
//!   carry per-line allows; whole modules that exist to build strings
//!   (templates, anonymize) carry module allowances.
//!
//! Escapes: `// lint: allow(<rule>) <reason>` on the finding's line or the
//! line above. The reason is mandatory and the rule id must exist —
//! violations of the annotation grammar are themselves findings
//! (**`bad-allow`**).
//!
//! Modules whose whole purpose is the banned operation (e.g. the serve
//! daemon's socket shell, which exists to spawn connection handlers and
//! tick a timer) carry declared allowances in
//! [`crate::MODULE_ALLOWANCES`] instead of per-line comment spam: one
//! `(path, rule, reason)` entry waives that one rule for that one file,
//! visible in `logdiver lint --rules` next to the rules it waives.

use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer;
use crate::{Finding, Level};

/// `core` modules under the `no-panic` guard (the deterministic pipeline
/// spine; the rest of `core` is reporting/analysis code where a panic is
/// an ordinary bug, not a crash-safety hole).
const GUARDED_CORE: &[&str] = &[
    "parse.rs",
    "filter.rs",
    "coalesce.rs",
    "matcher.rs",
    "classify.rs",
    "pipeline.rs",
    "exec.rs",
];

/// Modules whose state ends up inside checkpoints (or defines the logical
/// clock): no wall-clock *type* may appear at all.
const CHECKPOINT_STATE: &[&str] = &[
    "crates/stream/src/checkpoint.rs",
    "crates/stream/src/state.rs",
    "crates/stream/src/index.rs",
    "crates/stream/src/health.rs",
    "crates/core/src/checkpoint.rs",
    "crates/serve/src/store.rs",
    "crates/types/src/time.rs",
    "crates/types/src/codec.rs",
];

/// Is `path` (workspace-relative, `/`-separated) under the panic guard?
/// The serve crate is included wholesale: a panic in a tenant's ingest
/// path kills the daemon for every other tenant. The push client is too:
/// it runs unattended inside rolling-restart scripts, where a panic turns
/// a recoverable wire fault into silent data loss.
pub(crate) fn no_panic_scope(path: &str) -> bool {
    if let Some(rest) = path.strip_prefix("crates/core/src/") {
        return GUARDED_CORE.contains(&rest);
    }
    path.starts_with("crates/stream/src/")
        || path.starts_with("crates/serve/src/")
        || path.starts_with("crates/client/src/")
        // The checkpoint decoder: its input is whatever is on disk.
        || path == "crates/types/src/codec.rs"
        // Placement ranges: decoded from checkpoints, built from log lines.
        || path == "crates/types/src/ranges.rs"
}

/// Is `path` in the zero-copy allocation guard? All of craylog (the
/// parsers) plus the two core stages that run per record before
/// materialization.
fn hot_path_alloc_scope(path: &str) -> bool {
    path.starts_with("crates/craylog/src/")
        || path == "crates/core/src/parse.rs"
        || path == "crates/core/src/filter.rs"
}

/// Files allowed to read the wall clock / spawn threads freely: the CLI
/// (progress display, watch loops), the bench harness, and the executor.
fn clock_exempt(path: &str) -> bool {
    path.starts_with("crates/cli/")
        || path.starts_with("crates/bench/")
        || path == "crates/core/src/exec.rs"
}

/// True when the path contains a `tests` or `benches` directory component —
/// integration tests and benchmarks are exempt wholesale.
pub(crate) fn in_exempt_dir(path: &str) -> bool {
    path.split('/').any(|c| c == "tests" || c == "benches")
}

fn finding(
    path: &str,
    line: u32,
    rule: &'static str,
    message: String,
    hint: &str,
    out: &mut Vec<Finding>,
) {
    out.push(Finding {
        file: path.to_string(),
        line,
        rule,
        level: crate::rule_level(rule).unwrap_or(Level::Error),
        message,
        hint: hint.to_string(),
        witness: None,
    });
}

/// The identifier token ending immediately before byte `at` in `line`, if
/// `at` is preceded by `::`.
fn path_qualifier(line: &str, at: usize) -> Option<&str> {
    let before = &line[..at];
    let before = before.strip_suffix("::")?;
    let start = before
        .rfind(|c: char| !lexer::is_ident_char(c))
        .map(|i| i + 1)
        .unwrap_or(0);
    let ident = &before[start..];
    (!ident.is_empty()).then_some(ident)
}

/// Lints one file's text under its workspace-relative path. Pure: the
/// mutation self-tests feed it doctored copies of real sources.
pub fn lint_source(path: &str, text: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    if in_exempt_dir(path) || !path.ends_with(".rs") {
        return out;
    }
    let src = lexer::scan(text);

    // Annotation grammar first: a malformed allow silently not applying is
    // the worst failure mode a lint escape hatch can have.
    for a in &src.allows {
        if crate::rule_level(&a.rule).is_none() {
            finding(
                path,
                a.line,
                "bad-allow",
                format!("allow names unknown rule {:?}", a.rule),
                "use one of the rule ids from `logdiver lint --rules`",
                &mut out,
            );
        } else if a.reason.trim().is_empty() {
            finding(
                path,
                a.line,
                "bad-allow",
                format!("allow({}) has no reason", a.rule),
                "write `// lint: allow(<rule>) <why this site is sound>`",
                &mut out,
            );
        }
    }

    // A declared module-level allowance waives one rule for one file.
    let waived = |rule: &str| crate::module_allowance(path, rule).is_some();
    let guard_panics = no_panic_scope(path) && !waived("no-panic");
    let exempt_clock = clock_exempt(path);
    let guard_wall_clock = !exempt_clock && !waived("wall-clock");
    let guard_spawn = !exempt_clock && !waived("thread-spawn");
    let guard_state = CHECKPOINT_STATE.contains(&path) && !waived("checkpoint-state-clock");
    let guard_alloc = hot_path_alloc_scope(path) && !waived("hot-path-alloc");

    for (idx, line) in src.lines.iter().enumerate() {
        let ln = idx as u32 + 1;
        if src.is_test_line(ln) {
            continue;
        }

        if guard_panics && !src.allowed("no-panic", ln) {
            for method in ["unwrap", "expect"] {
                for at in lexer::ident_positions(line, method) {
                    if line[..at].ends_with('.') {
                        finding(
                            path,
                            ln,
                            "no-panic",
                            format!(".{method}() in guarded non-test code"),
                            "return a typed error, provide an infallible fallback, or annotate \
                             with `// lint: allow(no-panic) <invariant>`",
                            &mut out,
                        );
                    }
                }
            }
            for mac in ["panic", "todo", "unimplemented"] {
                for at in lexer::ident_positions(line, mac) {
                    if line[at + mac.len()..].starts_with('!') {
                        finding(
                            path,
                            ln,
                            "no-panic",
                            format!("{mac}! in guarded non-test code"),
                            "convert the condition into a typed error on the stage's error \
                             path",
                            &mut out,
                        );
                    }
                }
            }
        }

        if guard_wall_clock && !src.allowed("wall-clock", ln) {
            for at in lexer::ident_positions(line, "now") {
                if let Some(q) = path_qualifier(line, at) {
                    if q == "Instant" || q == "SystemTime" {
                        finding(
                            path,
                            ln,
                            "wall-clock",
                            format!("{q}::now() outside the sanctioned timing sites"),
                            "thread a logical Timestamp through instead; wall-clock reads \
                             belong in the CLI or core/src/exec.rs",
                            &mut out,
                        );
                    }
                }
            }
        }

        if guard_spawn && !src.allowed("thread-spawn", ln) {
            for at in lexer::ident_positions(line, "spawn") {
                if path_qualifier(line, at) == Some("thread") {
                    finding(
                        path,
                        ln,
                        "thread-spawn",
                        "std::thread::spawn outside the executor".to_string(),
                        "route parallelism through core::exec::par_map (or annotate an audited \
                         engine site with `// lint: allow(thread-spawn) <determinism argument>`)",
                        &mut out,
                    );
                }
            }
        }

        if guard_alloc && !src.allowed("hot-path-alloc", ln) {
            for method in ["to_string", "to_owned"] {
                for at in lexer::ident_positions(line, method) {
                    if line[..at].ends_with('.') {
                        finding(
                            path,
                            ln,
                            "hot-path-alloc",
                            format!(".{method}() in the zero-copy hot path"),
                            "keep the field a borrowed &[u8]/&str (resolve through Sym or \
                             materialize() off the hot path), or annotate the cold site with \
                             `// lint: allow(hot-path-alloc) <why this never runs per record>`",
                            &mut out,
                        );
                    }
                }
            }
            for at in lexer::ident_positions(line, "from") {
                if path_qualifier(line, at) == Some("String") {
                    finding(
                        path,
                        ln,
                        "hot-path-alloc",
                        "String::from in the zero-copy hot path".to_string(),
                        "borrow instead of owning; per-record strings are what the rewrite \
                         removed",
                        &mut out,
                    );
                }
            }
            for at in lexer::ident_positions(line, "format") {
                if line[at + "format".len()..].starts_with('!') {
                    finding(
                        path,
                        ln,
                        "hot-path-alloc",
                        "format! in the zero-copy hot path".to_string(),
                        "build rejection reasons as &'static str (CraylogFault) and render \
                         text only at the quarantine/report boundary",
                        &mut out,
                    );
                }
            }
        }

        if guard_state && !src.allowed("checkpoint-state-clock", ln) {
            for ty in ["Instant", "SystemTime"] {
                if !lexer::ident_positions(line, ty).is_empty() {
                    finding(
                        path,
                        ln,
                        "checkpoint-state-clock",
                        format!("wall-clock type {ty} named in checkpointable state"),
                        "checkpointed state must be wall-clock-free so resume is \
                         deterministic; carry a logical Timestamp or drop the field",
                        &mut out,
                    );
                }
            }
        }
    }
    out
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

fn collect_rs(dir: &Path, acc: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, acc);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            acc.push(path);
        }
    }
}

/// Reads every `.rs` file under `<root>/crates` as
/// `(workspace-relative path, text)` pairs, in sorted path order — the
/// shared input for the per-file linter and the interprocedural
/// analyzers ([`crate::graph`], [`crate::contract`]).
///
/// # Errors
///
/// Returns a message when a discovered source file cannot be read.
pub fn collect_workspace(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files);
    let mut out = Vec::new();
    for file in files {
        let rel: String = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let text = fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        out.push((rel, text));
    }
    Ok(out)
}

/// Lints every `.rs` file under `<root>/crates`, in sorted path order.
///
/// # Errors
///
/// Returns a message when a discovered source file cannot be read.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let files = collect_workspace(root)?;
    let mut findings = Vec::new();
    for (rel, text) in &files {
        findings.extend(lint_source(rel, text));
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_are_as_documented() {
        assert!(no_panic_scope("crates/core/src/classify.rs"));
        assert!(no_panic_scope("crates/stream/src/engine.rs"));
        assert!(no_panic_scope("crates/serve/src/server.rs"));
        assert!(no_panic_scope("crates/serve/src/daemon.rs"));
        assert!(no_panic_scope("crates/client/src/session.rs"));
        assert!(no_panic_scope("crates/client/src/net.rs"));
        assert!(no_panic_scope("crates/types/src/codec.rs"));
        assert!(no_panic_scope("crates/types/src/ranges.rs"));
        assert!(!no_panic_scope("crates/types/src/nodeset.rs"));
        assert!(!no_panic_scope("crates/core/src/report.rs"));
        assert!(!no_panic_scope("crates/stats/src/lib.rs"));
        assert!(clock_exempt("crates/cli/src/main.rs"));
        assert!(clock_exempt("crates/core/src/exec.rs"));
        assert!(!clock_exempt("crates/core/src/pipeline.rs"));
        assert!(in_exempt_dir("crates/stream/tests/chaos.rs"));
        assert!(in_exempt_dir("crates/bench/benches/perf_stream.rs"));
        assert!(!in_exempt_dir("crates/stream/src/engine.rs"));
    }

    #[test]
    fn unwrap_in_guarded_code_is_flagged_and_allows_work() {
        let bad = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let got = lint_source("crates/core/src/classify.rs", bad);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rule, "no-panic");
        assert_eq!(got[0].line, 1);

        let allowed = "// lint: allow(no-panic) caller checked is_some\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(lint_source("crates/core/src/classify.rs", allowed).is_empty());

        // Outside the guard, unwrap is not a finding.
        assert!(lint_source("crates/stats/src/lib.rs", bad).is_empty());
        // In a test region, not a finding either.
        let test_only = "#[cfg(test)]\nmod tests { fn f(x: Option<u8>) -> u8 { x.unwrap() } }\n";
        assert!(lint_source("crates/core/src/classify.rs", test_only).is_empty());
    }

    #[test]
    fn unwrap_or_is_not_a_panic_path() {
        let ok = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n";
        assert!(lint_source("crates/core/src/classify.rs", ok).is_empty());
        let arc = "fn f(a: std::sync::Arc<u8>) { let _ = std::sync::Arc::try_unwrap(a); }\n";
        assert!(lint_source("crates/core/src/classify.rs", arc).is_empty());
    }

    #[test]
    fn wall_clock_and_spawn_are_scoped() {
        let clock = "fn f() { let _t = std::time::Instant::now(); }\n";
        let got = lint_source("crates/stream/src/engine.rs", clock);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rule, "wall-clock");
        assert!(lint_source("crates/cli/src/main.rs", clock).is_empty());
        assert!(lint_source("crates/core/src/exec.rs", clock).is_empty());

        let spawn = "fn f() { std::thread::spawn(|| {}); }\n";
        let got = lint_source("crates/craylog/src/lib.rs", spawn);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rule, "thread-spawn");
        // `scope.spawn` (the executor's audited API) is not std::thread.
        let scoped = "fn f() { scope.spawn(|| {}); }\n";
        assert!(lint_source("crates/craylog/src/lib.rs", scoped).is_empty());
    }

    #[test]
    fn module_allowances_waive_exactly_their_file_and_rule() {
        let spawn = "fn f() { std::thread::spawn(|| {}); }\n";
        let clock = "fn f() { let _t = std::time::Instant::now(); }\n";
        // The daemon's declared allowances cover spawn and clock there...
        assert!(lint_source("crates/serve/src/daemon.rs", spawn).is_empty());
        assert!(lint_source("crates/serve/src/daemon.rs", clock).is_empty());
        // ...but not in the deterministic serve core next door...
        assert_eq!(
            lint_source("crates/serve/src/server.rs", spawn)[0].rule,
            "thread-spawn"
        );
        assert_eq!(
            lint_source("crates/serve/src/server.rs", clock)[0].rule,
            "wall-clock"
        );
        // ...and not other rules in the daemon itself: serve is under the
        // panic guard, allowance or no allowance.
        let bad = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(
            lint_source("crates/serve/src/daemon.rs", bad)[0].rule,
            "no-panic"
        );
        assert_eq!(
            lint_source("crates/serve/src/tenant.rs", bad)[0].rule,
            "no-panic"
        );
    }

    #[test]
    fn module_allowances_are_well_formed() {
        for (path, rule, reason) in crate::MODULE_ALLOWANCES {
            assert!(
                crate::rule_level(rule).is_some(),
                "allowance for {path} names unknown rule {rule:?}"
            );
            assert!(
                !reason.trim().is_empty(),
                "allowance {path}/{rule} has no reason"
            );
            // A dangling path would make the allowance silently inert.
            let root =
                find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
            assert!(
                root.join(path).is_file(),
                "allowance path {path} does not exist"
            );
        }
    }

    #[test]
    fn checkpoint_state_bans_the_type_not_just_the_call() {
        let field = "pub struct S { started: std::time::Instant }\n";
        let got = lint_source("crates/stream/src/state.rs", field);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rule, "checkpoint-state-clock");
        // The same field is fine in a non-state module (wall-clock only
        // fires on ::now()).
        assert!(lint_source("crates/stream/src/config.rs", field).is_empty());
    }

    #[test]
    fn hot_path_alloc_is_scoped_and_token_exact() {
        assert!(hot_path_alloc_scope("crates/craylog/src/syslog.rs"));
        assert!(hot_path_alloc_scope("crates/core/src/parse.rs"));
        assert!(hot_path_alloc_scope("crates/core/src/filter.rs"));
        assert!(!hot_path_alloc_scope("crates/core/src/pipeline.rs"));
        assert!(!hot_path_alloc_scope("crates/stream/src/engine.rs"));

        for bad in [
            "fn f(x: u8) -> String { x.to_string() }\n",
            "fn f(x: &str) -> String { x.to_owned() }\n",
            "fn f() -> String { String::from(\"x\") }\n",
            "fn f(x: u8) -> String { format!(\"{x}\") }\n",
        ] {
            let got = lint_source("crates/craylog/src/syslog.rs", bad);
            assert_eq!(got.len(), 1, "{bad}");
            assert_eq!(got[0].rule, "hot-path-alloc");
            // Outside the guard the same code is fine.
            assert!(lint_source("crates/core/src/coalesce.rs", bad).is_empty());
        }

        // Token-exactness: look-alikes must not trip.
        for ok in [
            "fn f(x: &[u8]) -> Vec<u8> { x.to_vec() }\n",
            "fn f() { let _ = Vec::from([1u8]); }\n",
            "fn f(x: u8) { let _ = x.to_string_lossy_not_really(); }\n",
            "// to_string() discussed in a comment; \"format!\" in a string\n",
        ] {
            assert!(
                lint_source("crates/craylog/src/syslog.rs", ok).is_empty(),
                "{ok}"
            );
        }

        // An annotated cold site is suppressed.
        let allowed = "// lint: allow(hot-path-alloc) materialize() is the explicit cold exit\n\
                       fn f(x: &str) -> String { x.to_owned() }\n";
        assert!(lint_source("crates/craylog/src/syslog.rs", allowed).is_empty());

        // Module allowances cover the emit-side modules wholesale.
        let bad = "fn f(x: u8) -> String { format!(\"{x}\") }\n";
        assert!(lint_source("crates/craylog/src/templates.rs", bad).is_empty());
        assert!(lint_source("crates/craylog/src/anonymize.rs", bad).is_empty());
    }

    #[test]
    fn bad_allows_are_flagged() {
        let unknown = "// lint: allow(no-such-rule) because\nfn f() {}\n";
        let got = lint_source("crates/core/src/classify.rs", unknown);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rule, "bad-allow");

        let unreasoned = "fn f(x: Option<u8>) -> u8 {\n// lint: allow(no-panic)\nx.unwrap() }\n";
        let got = lint_source("crates/core/src/classify.rs", unreasoned);
        // The allow still suppresses, but is itself a warning.
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rule, "bad-allow");
        assert_eq!(got[0].level, crate::Level::Warning);
    }

    #[test]
    fn comments_and_strings_do_not_trip_rules() {
        let src = "// calls unwrap() conceptually\nfn f() { let s = \"panic! Instant::now\"; let _ = s; }\n";
        assert!(lint_source("crates/core/src/classify.rs", src).is_empty());
        assert!(lint_source("crates/stream/src/state.rs", src).is_empty());
    }
}
