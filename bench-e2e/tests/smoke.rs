//! Runs every workload at toy sizes through the command line, untraced and
//! traced, and checks the result line the benchmark contract asks for:
//! correct outputs and exactly the catalogued metrics, each nonzero where
//! the contract needs it.

use pv_e2e_bench::{layers, END_TO_END, WORKLOADS};
use std::process::Command;

fn run(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_pv-e2e-bench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

/// The value of metric `name` in a result line.
fn value(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {line}"));
    line[at + key.len()..]
        .split(',')
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{name} has no numeric value in {line}"))
}

#[test]
fn every_workload_reports_the_contract_metrics() {
    for w in WORKLOADS {
        let line = run(w, false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(line.contains("\"failed\": 0,"), "{line}");
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len(), "{line}");
        for (name, _, _) in END_TO_END {
            assert!(
                value(&line, name) > 0.0,
                "{w}: {name} must be positive: {line}"
            );
        }

        let line = run(w, true);
        assert!(line.starts_with("{\"correct\": true, "), "{line}");
        let catalogue = layers::catalogue();
        assert_eq!(line.matches("\"unit\"").count(), catalogue.len(), "{line}");
        for (name, _, _) in &catalogue {
            assert!(value(&line, name).is_finite(), "{w}: {name}");
        }
        assert_eq!(value(&line, "obs.dropped_spans"), 0.0, "{w}");
        assert!(value(&line, "obs.spans") > 0.0, "{w}");
        assert!(value(&line, "nn.forward_b8.ms") > 0.0, "{w}");
    }
}

#[test]
fn a_bad_command_line_exits_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_pv-e2e-bench"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("the benchmark starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
