//! Per-layer metrics of a traced run, read from the pv-obs recorder.
//!
//! The layers are the workspace's crates. `tensor` numbers come from the
//! kernel-hook spans (`matmul_a_bt 8x256x4096 [packed/packed4x64]`), the
//! `core`/`nn`/`ckpt` numbers from the spans those crates already emit, the
//! `serve` numbers from its histograms and counters, and the rest from
//! calls the benchmark times itself. Every workload reports the whole
//! catalogue; a layer a workload never enters reads 0.

use crate::stats;
use crate::Metric;
use pv_obs::{SpanRecord, TraceSnapshot};
use std::collections::BTreeMap;

/// Kernels reported by name, in catalogue order.
const KERNELS: [&str; 8] = [
    "conv2d_forward",
    "conv2d_backward",
    "im2col",
    "maxpool2d",
    "matmul",
    "matmul_at_b",
    "matmul_a_bt",
    "matvec",
];

/// Kernels whose span shape gives a FLOP count.
const FLOP_KERNELS: [&str; 6] = [
    "conv2d_forward",
    "conv2d_backward",
    "matmul",
    "matmul_at_b",
    "matmul_a_bt",
    "matvec",
];

/// Routines the shape-keyed selector and the sparse backend choose from.
const ROUTINES: [&str; 6] = [
    "packed4x64",
    "packed4x16",
    "packed4x1",
    "direct",
    "csr_abt",
    "csr_matvec",
];

/// `(name, unit, better)` of every per-layer metric, in report order.
/// Times and counts named without "mean" are per job: per served request,
/// or per study session.
pub fn catalogue() -> Vec<(String, &'static str, &'static str)> {
    let mut c = Vec::new();
    for k in KERNELS {
        c.push((format!("tensor.{k}.self_ms"), "ms", "lower"));
        c.push((format!("tensor.{k}.calls"), "count", "lower"));
    }
    for k in FLOP_KERNELS {
        c.push((format!("tensor.{k}.gflops"), "GFLOP/s", "higher"));
    }
    c.push(("tensor.matmul_a_bt.gbps".into(), "GB/s", "higher"));
    for r in ROUTINES {
        c.push((format!("tensor.routine.{r}.ms"), "ms", "lower"));
    }
    let fixed: &[(&str, &'static str, &'static str)] = &[
        ("tensor.kernel_share", "%", "higher"),
        ("nn.train.ms", "ms", "lower"),
        ("nn.train.steps_per_sec", "1/s", "higher"),
        ("nn.forward_b1.ms", "ms", "lower"),
        ("nn.forward_b8.ms", "ms", "lower"),
        ("prune.ms", "ms", "lower"),
        ("prune.wt.ms", "ms", "lower"),
        ("prune.csr_prepare.ms", "ms", "lower"),
        ("core.train_parent.ms", "ms", "lower"),
        ("core.train_separate.ms", "ms", "lower"),
        ("core.cycles.ms", "ms", "lower"),
        ("core.curves_on.ms", "ms", "lower"),
        ("core.build_family_warm.ms", "ms", "lower"),
        ("data.generate_split.ms", "ms", "lower"),
        ("ckpt.cache_store.ms", "ms", "lower"),
        ("ckpt.cache_load.ms", "ms", "lower"),
        ("ckpt.cache_bytes", "bytes", "lower"),
        ("ckpt.load_family.ms", "ms", "lower"),
        ("serve.request.mean_ms", "ms", "lower"),
        ("serve.batch_exec.mean_ms", "ms", "lower"),
        ("serve.queue_wait.mean_ms", "ms", "lower"),
        ("serve.queue_depth.peak", "count", "lower"),
        ("serve.batch_size.mean", "count", "higher"),
        ("serve.client_overhead.mean_ms", "ms", "lower"),
        ("serve.codec.encode_us", "us", "lower"),
        ("serve.codec.decode_us", "us", "lower"),
        ("serve.reload.ms", "ms", "lower"),
        ("serve.worker_refreshes", "count", "lower"),
        ("serve.busy", "count", "lower"),
        ("serve.failed", "count", "lower"),
        ("serve.bad_frames", "count", "lower"),
        ("obs.overhead_pct", "%", "lower"),
        ("obs.spans", "count", "lower"),
        ("obs.dropped_spans", "count", "lower"),
        ("loadgen.samples", "count", "higher"),
        ("loadgen.late_p99_ms", "ms", "lower"),
        ("loadgen.p99_ms", "ms", "lower"),
    ];
    c.extend(fixed.iter().map(|&(n, u, b)| (n.to_string(), u, b)));
    c
}

/// Per-layer values gathered during one traced run.
#[derive(Debug, Default)]
pub(crate) struct Layers {
    values: BTreeMap<String, f64>,
}

impl Layers {
    /// Sets one metric (the name must be in [`catalogue`]).
    pub(crate) fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            catalogue().iter().any(|(n, _, _)| n == name),
            "{name} is not in the per-layer catalogue"
        );
        self.values.insert(name.to_string(), value);
    }

    /// The value set for `name`, or 0.
    pub(crate) fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Every catalogue metric, in catalogue order.
    pub(crate) fn into_metrics(self) -> Vec<Metric> {
        catalogue()
            .into_iter()
            .map(|(name, unit, _)| Metric {
                value: self.get(&name),
                name,
                unit,
            })
            .collect()
    }

    /// Kernel self time, calls, achieved rates and routine times from the
    /// `tensor` spans, per job; `wall_ns` is the traced window, for the
    /// kernel share.
    pub(crate) fn kernels(&mut self, snap: &TraceSnapshot, jobs: f64, wall_ns: u64) {
        let kernels: Vec<Kernel<'_>> = snap
            .spans
            .iter()
            .filter(|s| s.cat == "tensor")
            .map(Kernel::parse)
            .collect();
        let (self_ns, outermost_ns) = self_times(&kernels);
        let mut per: BTreeMap<&str, [f64; 5]> = BTreeMap::new(); // self, calls, flops, bytes, ns
        let mut routine_ns: BTreeMap<&str, f64> = BTreeMap::new();
        for (k, own) in kernels.iter().zip(&self_ns) {
            let e = per.entry(k.name).or_default();
            let [m, kk, n] = k.shape.map(|d| d as f64);
            let flops = if k.name == "conv2d_backward" {
                // two products: the weight gradient and the input gradient
                4.0 * m * kk * n
            } else {
                2.0 * m * kk * n
            };
            e[0] += *own as f64;
            e[1] += 1.0;
            e[2] += flops;
            e[3] += 4.0 * (m * kk + n * kk + m * n);
            e[4] += k.span.duration_ns() as f64;
            *routine_ns.entry(k.routine).or_default() += k.span.duration_ns() as f64;
        }
        for k in KERNELS {
            let [own, calls, flops, bytes, ns] = per.get(k).copied().unwrap_or_default();
            self.set(&format!("tensor.{k}.self_ms"), own / 1e6 / jobs);
            self.set(&format!("tensor.{k}.calls"), calls / jobs);
            if FLOP_KERNELS.contains(&k) && ns > 0.0 {
                self.set(&format!("tensor.{k}.gflops"), flops / ns);
            }
            if k == "matmul_a_bt" && ns > 0.0 {
                self.set("tensor.matmul_a_bt.gbps", bytes / ns);
            }
        }
        for r in ROUTINES {
            let ns = routine_ns.get(r).copied().unwrap_or(0.0);
            self.set(&format!("tensor.routine.{r}.ms"), ns / 1e6 / jobs);
        }
        self.set(
            "tensor.kernel_share",
            100.0 * outermost_ns as f64 / wall_ns.max(1) as f64,
        );
    }

    /// Span counts and the recorder's drop count.
    pub(crate) fn obs(&mut self, snap: &TraceSnapshot, overhead_pct: f64) {
        self.set("obs.overhead_pct", overhead_pct);
        self.set("obs.spans", snap.spans.len() as f64);
        self.set("obs.dropped_spans", snap.dropped_spans as f64);
    }
}

/// Total duration of the spans of category `cat` whose name satisfies
/// `pick`, in milliseconds.
pub(crate) fn span_ms(snap: &TraceSnapshot, cat: &str, pick: impl Fn(&SpanRecord) -> bool) -> f64 {
    snap.spans
        .iter()
        .filter(|s| s.cat == cat && pick(s))
        .map(|s| s.duration_ns() as f64 / 1e6)
        .sum()
}

/// Mean sample of a histogram (0 when absent). pv-obs histograms hold
/// nanoseconds, except `serve/batch_size`, which holds plain counts.
pub(crate) fn hist_mean(snap: &TraceSnapshot, name: &str) -> f64 {
    snap.histograms.get(name).map_or(0.0, |h| h.mean_ns())
}

/// Mean of a nanosecond histogram, in milliseconds (0 when absent).
pub(crate) fn hist_mean_ms(snap: &TraceSnapshot, name: &str) -> f64 {
    hist_mean(snap, name) / 1e6
}

/// Final value of a counter series (0 when absent).
pub(crate) fn counter(snap: &TraceSnapshot, name: &str) -> f64 {
    snap.counters
        .get(name)
        .and_then(|s| s.last())
        .map_or(0.0, |p| p.1)
}

/// Largest value a gauge series took (0 when absent).
pub(crate) fn gauge_max(snap: &TraceSnapshot, name: &str) -> f64 {
    snap.gauges
        .get(name)
        .map_or(0.0, |s| s.iter().map(|p| p.1).fold(0.0, f64::max))
}

/// Mean of a gauge series' points (0 when absent).
pub(crate) fn gauge_mean(snap: &TraceSnapshot, name: &str) -> f64 {
    let points: Vec<f64> = snap
        .gauges
        .get(name)
        .map(|s| s.iter().map(|p| p.1).collect())
        .unwrap_or_default();
    stats::mean(&points)
}

/// One kernel span with its name split into family, shape and routine.
struct Kernel<'a> {
    span: &'a SpanRecord,
    name: &'a str,
    routine: &'a str,
    shape: [usize; 3],
}

impl<'a> Kernel<'a> {
    /// Parses `name MxKxN [backend/routine]`; shape and tag are optional.
    fn parse(span: &'a SpanRecord) -> Self {
        let full: &str = &span.name;
        let (head, tag) = match full.split_once(" [") {
            Some((h, t)) => (h, t.trim_end_matches(']')),
            None => (full, ""),
        };
        let mut parts = head.split_whitespace();
        let name = parts.next().unwrap_or("");
        let mut shape = [0usize; 3];
        if let Some(dims) = parts.next() {
            for (slot, d) in shape.iter_mut().zip(dims.split('x')) {
                *slot = d.parse().unwrap_or(0);
            }
        }
        let routine = tag.split_once('/').map_or("", |(_, r)| r);
        Self {
            span,
            name,
            routine,
            shape,
        }
    }
}

/// Self time of every kernel span (its duration minus the kernel spans
/// nested directly inside it on the same lane), plus the total duration of
/// the outermost kernel spans.
fn self_times(kernels: &[Kernel<'_>]) -> (Vec<u64>, u64) {
    let mut own: Vec<u64> = kernels.iter().map(|k| k.span.duration_ns()).collect();
    let mut order: Vec<usize> = (0..kernels.len()).collect();
    order.sort_by_key(|&i| {
        let s = kernels[i].span;
        (s.lane, s.start_ns, std::cmp::Reverse(s.end_ns), s.seq)
    });
    let mut outermost = 0u64;
    let mut stack: Vec<usize> = Vec::new();
    for i in order {
        let s = kernels[i].span;
        while let Some(&top) = stack.last() {
            let t = kernels[top].span;
            if t.lane == s.lane && t.start_ns <= s.start_ns && s.end_ns <= t.end_ns {
                break;
            }
            stack.pop();
        }
        match stack.last() {
            Some(&parent) => own[parent] = own[parent].saturating_sub(s.duration_ns()),
            None => outermost += s.duration_ns(),
        }
        stack.push(i);
    }
    (own, outermost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn span(name: &'static str, lane: u64, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            name: Cow::Borrowed(name),
            cat: "tensor",
            lane,
            depth: 0,
            start_ns,
            end_ns,
            seq: start_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_kernels_on_the_same_lane_only() {
        let snap = TraceSnapshot {
            spans: vec![
                span("conv2d_forward 64x27x4 [packed/im2col_gemm]", 0, 0, 100),
                span("im2col 64x27x0 [packed]", 0, 10, 30),
                span("matmul_a_bt 64x27x4 [packed/direct]", 0, 40, 90),
                span("matmul_a_bt 8x16x4 [packed/direct]", 1, 20, 60),
            ],
            ..TraceSnapshot::default()
        };
        let mut l = Layers::default();
        l.kernels(&snap, 1.0, 200);
        assert_eq!(l.get("tensor.conv2d_forward.self_ms"), 30.0 / 1e6);
        assert_eq!(l.get("tensor.im2col.self_ms"), 20.0 / 1e6);
        assert_eq!(l.get("tensor.matmul_a_bt.self_ms"), 90.0 / 1e6);
        assert_eq!(l.get("tensor.matmul_a_bt.calls"), 2.0);
        assert_eq!(l.get("tensor.routine.direct.ms"), 90.0 / 1e6);
        // outermost spans: the conv (100) and lane 1's product (40)
        assert_eq!(l.get("tensor.kernel_share"), 70.0);
        let flops = 2.0 * 64.0 * 27.0 * 4.0 + 2.0 * 8.0 * 16.0 * 4.0;
        assert_eq!(l.get("tensor.matmul_a_bt.gflops"), flops / 90.0);
    }

    #[test]
    fn catalogue_names_are_unique_and_valid() {
        let c = catalogue();
        let mut names: Vec<&str> = c.iter().map(|(n, _, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), c.len());
        assert!(c.iter().all(|(n, _, _)| n.len() <= 64
            && n.chars()
                .all(|ch| ch.is_ascii_alphanumeric() || "_.-".contains(ch))));
    }
}
