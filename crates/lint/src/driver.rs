//! The command-line driver, shared by the `logdiver-lint` binary and the
//! `logdiver lint` subcommand.

use std::path::PathBuf;

use logdiver::filter::PatternTable;

use crate::rules::{verify_table, TableCheckOptions};
use crate::source::{collect_workspace, find_workspace_root, lint_source};
use crate::{report, LintReport, MODULE_ALLOWANCES, RULES};

/// Parsed command-line options.
pub struct Options {
    /// Emit the machine-readable JSON envelope instead of text.
    pub json: bool,
    /// Fail on warnings too, not just errors.
    pub deny_warnings: bool,
    /// Workspace root override; autodetected from the cwd when `None`.
    pub root: Option<PathBuf>,
    /// Print the rule catalog and exit.
    pub list_rules: bool,
}

/// Parses `--json`, `--deny warnings`, `--root DIR`, `--rules`.
///
/// # Errors
///
/// A usage message on an unknown or malformed argument (also for
/// `--help`, which callers print and exit 0 or 2 as appropriate).
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        deny_warnings: false,
        root: None,
        list_rules: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        // Accept both `--name value` and `--name=value`.
        let (name, inline) = match arg.split_once('=') {
            Some((n, v)) => (n, Some(v)),
            None => (arg.as_str(), None),
        };
        let mut value = || inline.or_else(|| it.next().map(String::as_str));
        match name {
            "--json" if inline.is_none() => opts.json = true,
            "--rules" if inline.is_none() => opts.list_rules = true,
            "--deny" => match value() {
                Some("warnings") => opts.deny_warnings = true,
                other => {
                    return Err(format!(
                        "--deny takes `warnings`, got {}",
                        other.unwrap_or("nothing")
                    ))
                }
            },
            "--root" => {
                let dir = value().ok_or("--root takes a directory")?;
                opts.root = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => {
                return Err(
                    "usage: logdiver-lint [--json] [--deny warnings] [--root DIR] [--rules]\n\
                     \n\
                     exit status:\n\
                     \x20 0  clean (or --rules)\n\
                     \x20 1  findings failed the run (any error, or any finding with --deny \
                     warnings)\n\
                     \x20 2  usage error (bad flag or argument)\n\
                     \x20 3  analyzer internal error (unreadable workspace/DESIGN.md, or an \
                     analyzer panic)"
                        .to_string(),
                )
            }
            _ => return Err(format!("unknown argument {arg:?} (try --help)")),
        }
    }
    Ok(opts)
}

/// The rule catalog, one line per rule, as `--rules` prints it — followed
/// by the declared module-level allowances so the policy's waivers are as
/// visible as the policy itself.
pub fn rule_catalog() -> String {
    let mut out = String::new();
    for (id, level, desc) in RULES {
        out.push_str(&format!("{level:>7}  {id:<22} {desc}\n"));
    }
    if !MODULE_ALLOWANCES.is_empty() {
        out.push_str("\nmodule allowances (whole-file waivers, declared in the catalog):\n");
        for (path, rule, reason) in MODULE_ALLOWANCES {
            out.push_str(&format!("  allow  {rule:<22} {path}\n         {reason}\n"));
        }
    }
    out
}

/// Runs all four analyzers — rule-set verifier, per-file linter,
/// interprocedural graph analysis, protocol-contract verifier — over the
/// curated table and the workspace under `root` (autodetected when
/// `None`). Sources are read once and shared.
///
/// # Errors
///
/// A message when no workspace root can be found, a source file or
/// DESIGN.md cannot be read, or an analyzer panics — all of which are
/// *internal* errors (exit 3), distinct from findings (exit 1).
pub fn run_analyzers(root: Option<PathBuf>) -> Result<LintReport, String> {
    let root = root
        .or_else(|| find_workspace_root(&std::env::current_dir().unwrap_or_default()))
        .ok_or("cannot find a workspace root (no Cargo.toml with [workspace]); use --root")?;
    let files = collect_workspace(&root)?;
    let design = std::fs::read_to_string(root.join("DESIGN.md"))
        .map_err(|e| format!("cannot read {}: {e}", root.join("DESIGN.md").display()))?;
    let mut report = LintReport::default();
    report.findings.extend(verify_table(
        &PatternTable::curated(),
        &TableCheckOptions::default(),
    ));
    for (rel, text) in &files {
        report.findings.extend(lint_source(rel, text));
    }
    // The interprocedural analyzers parse arbitrary workspace source with
    // heuristics; a panic in them is an analyzer bug, not a finding, and
    // must not masquerade as either "clean" or "findings".
    let deep = std::panic::catch_unwind(|| {
        let mut v = crate::graph::analyze(&files);
        v.extend(crate::contract::analyze(&files, &design));
        v
    })
    .map_err(|_| "analyzer panic in graph/contract analysis (this is a lint bug)".to_string())?;
    report.findings.extend(deep);
    Ok(report)
}

/// Full driver: parse, analyze, render to stdout. Returns the process exit
/// status (0 pass, 1 findings failed the run, 2 usage error, 3 analyzer
/// internal error).
pub fn run(args: &[String]) -> u8 {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    if opts.list_rules {
        print!("{}", rule_catalog());
        return 0;
    }
    let report = match run_analyzers(opts.root) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("lint: {msg}");
            return 3;
        }
    };
    if opts.json {
        println!("{}", report::render_json(&report));
    } else {
        print!("{}", report::render_text(&report));
    }
    u8::from(report.failed(opts.deny_warnings))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn args_parse() {
        let o = parse_args(&s(&["--json", "--deny", "warnings"])).unwrap();
        assert!(o.json && o.deny_warnings && o.root.is_none());
        for form in [&["--root", "/tmp/x"][..], &["--root=/tmp/x"]] {
            let o = parse_args(&s(form)).unwrap();
            assert_eq!(o.root.as_deref(), Some(std::path::Path::new("/tmp/x")));
        }
        assert!(parse_args(&s(&["--deny=warnings"])).unwrap().deny_warnings);
        assert!(parse_args(&s(&["--json=yes"])).is_err());
        assert!(parse_args(&s(&["--deny", "everything"])).is_err());
        assert!(parse_args(&s(&["--frobnicate"])).is_err());
        assert!(parse_args(&s(&["--help"])).is_err());
    }

    #[test]
    fn rule_catalog_lists_every_rule() {
        let cat = rule_catalog();
        for (id, _, _) in RULES {
            assert!(cat.contains(id), "missing {id}");
        }
    }
}
