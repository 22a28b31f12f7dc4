//! `pv-e2e-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints one `workload metric value unit` line per metric, writes the
//! report with its provenance to `target/bench/e2e/<workload>.json`, and
//! ends with the one-line JSON result. Exits non-zero when set-up fails or
//! any output is wrong.

use pv_e2e_bench::{out_dir, run, Args, USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pv-e2e-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pv-e2e-bench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for m in report.metrics.iter().chain(&report.extra) {
        println!("{} {} {} {}", args.workload, m.name, m.value, m.unit);
    }
    for p in &report.problems {
        eprintln!("pv-e2e-bench: {}: wrong: {p}", args.workload);
    }
    for w in &report.warnings {
        eprintln!("pv-e2e-bench: {}: warning: {w}", args.workload);
    }
    let path = out_dir().join(format!("{}.json", args.workload));
    if let Err(e) = std::fs::write(&path, report.to_json(&args.workload)) {
        eprintln!("pv-e2e-bench: write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
