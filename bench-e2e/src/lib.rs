//! End-to-end benchmark of the pruneval workspace.
//!
//! Four workloads, one per process run (`--workload`):
//!
//! * `study_fig2` — the researcher's path: `pruneval fig2` on resnet20, a
//!   cold family build into a fresh artifact cache plus three curves, then
//!   a warm rebuild from that cache plus the same curves;
//! * `serve_dense`, `serve_sparse`, `serve_family` — the operator's path:
//!   a 4096-wide MLP pinned to the packed backend, the same MLP pruned to
//!   95% and pinned to the sparse backend, and a pruned resnet20 family
//!   admitted from a checkpoint and hot-reloaded while it serves.
//!
//! Every workload reports the same end-to-end metrics ([`END_TO_END`]) with
//! tracing off. `--trace 1` installs the pv-obs recorder, reruns the
//! workload, and reports the per-layer catalogue instead
//! ([`layers::catalogue`]). Outputs are checked on every run.

pub mod layers;
mod loadgen;
mod serving;
mod stats;
mod study;

use std::fmt::Write as _;
use std::path::PathBuf;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["study_fig2", "serve_dense", "serve_sparse", "serve_family"];

/// `(name, unit, better)` of the end-to-end metrics every workload reports
/// with tracing off. A job is a served request, or a study session.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("p50_ms", "ms", "lower"),
    ("p90_ms", "ms", "lower"),
    ("capacity_per_s", "1/s", "higher"),
    ("rss_peak_mib", "MiB", "lower"),
];

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seeds model initialisation, request inputs and the study config.
    pub seed: u64,
    /// How long the measured phases of one run take, in seconds.
    pub seconds: f64,
    /// Install the recorder and report per-layer metrics.
    pub trace: bool,
    /// Toy sizes, for the package's own test.
    pub smoke: bool,
}

/// Usage text printed on a bad command line.
pub const USAGE: &str =
    "usage: pv-e2e-bench --workload <study_fig2|serve_dense|serve_sparse|serve_family> \
[--seed N] [--seconds S] [--trace 0|1] [--smoke]";

impl Args {
    /// Parses `--flag value` pairs.
    ///
    /// # Errors
    ///
    /// Names the flag that is unknown, lacks a value, or has a bad one.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut out = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            smoke: false,
        };
        while let Some(flag) = args.next() {
            if flag == "--smoke" {
                out.smoke = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => out.workload = value,
                "--seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => {
                    out.seconds = value.parse().map_err(|e| bad(&e))?;
                    if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                        return Err(bad(&"must lie in (0, 600]"));
                    }
                }
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"must be 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&out.workload.as_str()) {
            return Err(format!("unknown workload '{}'", out.workload));
        }
        Ok(out)
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric with a literal name.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Jobs sent: served requests, or study sessions.
    pub attempted: usize,
    /// Jobs refused, failed, or answered with the wrong output.
    pub failed: usize,
    /// Output checks that failed, beyond the per-job ones.
    pub problems: Vec<String>,
    /// Measurement checks that failed: the outputs were right, but the
    /// numbers deserve suspicion (layers that do not add up to the whole, a
    /// late generator, a full recorder).
    pub warnings: Vec<String>,
    /// The metrics the benchmark contract names: end-to-end without
    /// tracing, the per-layer catalogue with it.
    pub metrics: Vec<Metric>,
    /// Context printed and written out but not regression-checked.
    pub extra: Vec<Metric>,
    /// What was measured, and on what.
    pub provenance: Vec<(String, String)>,
}

impl Report {
    /// Whether every job and every check came out right.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Records the end-to-end metrics, in [`END_TO_END`] order, from the
    /// set-up time, the job latency median and 90th percentile, and the
    /// capacity; the peak RSS is read here, at the end of the run.
    fn end_to_end(
        &mut self,
        setup_s: f64,
        p50_ms: f64,
        p90_ms: f64,
        capacity: f64,
    ) -> Result<(), String> {
        let values = [setup_s, p50_ms, p90_ms, capacity, stats::rss_peak_mib()?];
        self.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), v)| Metric::new(name, v, unit))
            .collect();
        Ok(())
    }

    /// The last line of standard output: the result object of the
    /// benchmark contract.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The whole report, provenance included, as a JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let mut s = format!("{{\n  \"workload\": \"{workload}\",\n  \"provenance\": {{");
        for (i, (k, v)) in self.provenance.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\n    \"{}\": \"{}\"", escape(k), escape(v));
        }
        let _ = write!(
            s,
            "\n  }},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"problems\": [{}],\n  \"warnings\": [{}],\n  \"metrics\": [",
            self.correct(),
            self.attempted,
            self.failed,
            json_strings(&self.problems),
            json_strings(&self.warnings),
        );
        for (i, m) in self.metrics.iter().chain(&self.extra).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n    {{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("\n  ]\n}\n");
        s
    }
}

/// Where a run writes its report, trace and temporary files (relative to the
/// directory the benchmark runs in).
pub fn out_dir() -> PathBuf {
    PathBuf::from("target/bench/e2e")
}

/// Runs one workload.
///
/// # Errors
///
/// Returns a description of the first set-up, transport or I/O failure;
/// wrong outputs are counted in the report instead.
pub fn run(args: &Args) -> Result<Report, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut report = match args.workload.as_str() {
        "study_fig2" => study::run(args)?,
        "serve_dense" => serving::run(serving::Kind::Dense, args)?,
        "serve_sparse" => serving::run(serving::Kind::Sparse, args)?,
        _ => serving::run(serving::Kind::Family, args)?,
    };
    let mut provenance = vec![
        ("commit".to_string(), commit()),
        (
            "nproc".to_string(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "PV_NUM_THREADS".to_string(),
            std::env::var("PV_NUM_THREADS").unwrap_or_else(|_| "default".into()),
        ),
        (
            "default_backend".to_string(),
            pv_tensor::current_backend().name().to_string(),
        ),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), args.trace.to_string()),
        ("smoke".to_string(), args.smoke.to_string()),
    ];
    provenance.append(&mut report.provenance);
    report.provenance = provenance;
    for m in report.metrics.iter().chain(&report.extra) {
        if !m.value.is_finite() {
            report
                .problems
                .push(format!("{} is not a finite number", m.name));
        }
    }
    Ok(report)
}

pub(crate) fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Writes a traced run as a chrome trace next to the report.
pub(crate) fn write_trace(workload: &str, snap: &pv_obs::TraceSnapshot) -> Result<(), String> {
    let path = out_dir().join(format!("{workload}.trace.json"));
    std::fs::write(&path, snap.to_chrome_trace())
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// The commit the benchmark runs on, from `.git` when there is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_strings(list: &[String]) -> String {
    list.iter()
        .map(|p| format!("\"{}\"", escape(p)))
        .collect::<Vec<_>>()
        .join(", ")
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_contract_command_line() {
        let a = args(&[
            "--workload",
            "serve_dense",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, "serve_dense");
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 10.0, true, false)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "serve_dense", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "serve_dense", "--seconds"]).is_err());
        assert!(args(&["--workload", "serve_dense", "--seconds", "0"]).is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.end_to_end(0.5, 1.0, 2.0, 3.0).expect("reads VmHWM");
        let line = r.result_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));
    }

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// workloads and metrics this package reports.
    #[test]
    fn benchmark_json_matches_the_catalogues() {
        let Ok(spec) = std::fs::read_to_string("../BENCHMARK.json") else {
            return; // checked where the repository is present
        };
        for w in WORKLOADS {
            assert!(spec.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
        for (name, unit, better) in END_TO_END
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u, b))
            .chain(layers::catalogue())
        {
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = spec.matches("\"better\"").count();
        assert_eq!(listed, END_TO_END.len() + layers::catalogue().len());
    }
}
