//! The standalone `logdiver-serve` binary. `logdiver serve` runs the same
//! [`logdiver_serve::daemon::run_cli`].

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(logdiver_serve::daemon::run_cli(&args))
}
