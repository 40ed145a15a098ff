//! The CLI's own smoke tests live in `crates/cli/tests/smoke.rs` (where the
//! binary path is available); this cross-crate test exercises the same
//! reproduce path through the library API to keep it covered here too, and
//! holds the `lint` and `serve` subcommands to the exit codes of the
//! standalone binaries they share a parser with.

use bw_sim::SimConfig;
use logdiver::report;
use logdiver_integration::run_end_to_end;

#[test]
fn full_report_renders_from_a_real_run() {
    let e2e = run_end_to_end(SimConfig::scaled(64, 2).with_seed(55));
    let text = report::full_report(&e2e.analysis.metrics, &e2e.analysis.stats);
    for needle in ["T2", "T3", "F1", "F2", "F3", "T4", "F6", "F5", "T5"] {
        assert!(text.contains(needle), "missing {needle} in report");
    }
}

/// A workspace binary, found next to this test's own executable
/// (`target/<profile>/deps/cli_smoke-*` → `target/<profile>/<name>`). Only
/// a cross-crate test can run a subcommand and its standalone twin side by
/// side; `cargo test` on the workspace builds all three before it runs.
fn exit_code(bin: &str, args: &[&str]) -> i32 {
    let exe = std::env::current_exe().unwrap();
    let path = exe.parent().unwrap().parent().unwrap().join(bin);
    assert!(
        path.exists(),
        "{} is not built; run `cargo test` (or `cargo build`) on the whole workspace",
        path.display()
    );
    let out = std::process::Command::new(path)
        .args(args)
        .output()
        .unwrap();
    out.status.code().expect("exited, not signalled")
}

/// `logdiver lint` is `logdiver-lint`: a bad `--deny` value is a usage
/// error (2), not an analyzer failure (3).
#[test]
fn lint_subcommand_and_binary_agree_on_usage_errors() {
    assert_eq!(exit_code("logdiver-lint", &["--deny", "bogus"]), 2);
    assert_eq!(exit_code("logdiver", &["lint", "--deny", "bogus"]), 2);
}

/// `logdiver serve` is `logdiver-serve`: a flag value the daemon refuses
/// is a usage error (2), not a failed run (1).
#[test]
fn serve_subcommand_and_binary_agree_on_usage_errors() {
    for bad in [
        &["--shards", "0"][..],
        &["--max-line", "0"],
        &["--shards", "many"],
    ] {
        assert_eq!(exit_code("logdiver-serve", bad), 2, "{bad:?}");
        let sub: Vec<&str> = std::iter::once("serve")
            .chain(bad.iter().copied())
            .collect();
        assert_eq!(exit_code("logdiver", &sub), 2, "{bad:?}");
    }
}
