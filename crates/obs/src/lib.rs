//! `pv-obs`: dependency-free structured tracing, metrics, and profiling
//! for the pruneval workspace.
//!
//! The paper reproduction lives and dies by *measurements*, so the
//! workspace needs to see inside its own hot loops — how long each prune
//! cycle trains, whether the pv-ckpt cache is actually hitting, where
//! matmul time goes — without giving up the determinism contract enforced
//! by clippy (`crates/clippy.toml` bans `Instant::now()` in every library
//! crate but this one). pv-obs squares that circle with **clock
//! injection**:
//!
//! * a [`Clock`] trait supplies time; [`MonotonicClock`] is constructed
//!   once at the CLI/bench edge, [`FakeClock`] drives tests so traces are
//!   byte-for-byte reproducible;
//! * a [`Recorder`] collects nested [spans](tracer::SpanRecord),
//!   counters/gauges, and log₂ [histograms](tracer::Histogram); pv-par
//!   worker threads buffer spans locally and merge deterministically;
//! * [`TraceSnapshot`] exports to chrome-trace JSON (`chrome://tracing`,
//!   Perfetto) or a lossless pv-obs JSON schema (see [`export`]).
//!
//! # Instrumentation model
//!
//! Library crates never construct clocks. They call the free functions in
//! this module — [`span`], [`counter_add`], [`gauge_set`],
//! [`histogram_ns`] — which are **no-ops until a recorder is
//! [installed](install)**, so experiment code pays one atomic load when
//! tracing is off. The CLI installs a [`MonotonicClock`]-backed recorder
//! at startup and exports on `--trace <path>` / `--metrics`; benches and
//! tests install or hold [`FakeClock`] recorders locally.
//!
//! Kernel-level profiling crosses the dependency graph the other way
//! (pv-tensor cannot depend on pv-obs), so pv-tensor exposes a
//! [`pv_tensor::profile::KernelHook`] seam; [`install`] registers an
//! adapter that timestamps every tiled matmul/conv kernel into the global
//! recorder as `cat: "tensor"` spans plus per-kernel histograms.
//!
//! ```
//! use pv_obs::{FakeClock, Recorder};
//!
//! let rec = Recorder::new(FakeClock::stepping(1_000));
//! {
//!     let _outer = rec.span("core", "build_family");
//!     let _inner = rec.span("nn", "train");
//!     rec.gauge_set("train/loss", 0.5);
//! }
//! let snap = rec.snapshot();
//! assert_eq!(snap.spans.len(), 2);
//! assert!(snap.to_chrome_trace().contains("\"ph\":\"X\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod export;
pub mod tracer;

pub use clock::{Clock, FakeClock, MonotonicClock};
pub use tracer::{Histogram, Recorder, SpanGuard, SpanRecord, TraceSnapshot, DEFAULT_MAX_SPANS};

use std::sync::OnceLock;

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// Installs `rec` as the process-global recorder and registers the
/// pv-tensor kernel hook. Returns `false` (leaving the existing recorder
/// in place) if one was already installed; first install wins, matching
/// `OnceLock` semantics.
pub fn install(rec: Recorder) -> bool {
    let installed = GLOBAL.set(rec).is_ok();
    if installed {
        // ignore a lost race: some other hook was set first, kernel spans
        // just flow to that one
        let _ = pv_tensor::profile::set_kernel_hook(&KERNEL_HOOK);
    }
    installed
}

/// The installed global recorder, if any.
pub fn global() -> Option<&'static Recorder> {
    GLOBAL.get()
}

/// Opens a span on the global recorder; `None` (a no-op) when tracing is
/// not installed. Bind the result: `let _span = pv_obs::span("nn", "train");`
pub fn span(cat: &'static str, name: &'static str) -> Option<SpanGuard> {
    global().map(|r| r.span(cat, name))
}

/// Like [`span`] but with a lazily formatted name (`|| format!("cycle{i:02}")`);
/// the closure only runs when tracing is installed.
pub fn span_dyn(cat: &'static str, name: impl FnOnce() -> String) -> Option<SpanGuard> {
    global().map(|r| r.span(cat, name()))
}

/// Adds to a counter series on the global recorder (no-op when none).
pub fn counter_add(name: &'static str, delta: f64) {
    if let Some(r) = global() {
        r.counter_add(name, delta);
    }
}

/// Appends a gauge point on the global recorder (no-op when none).
pub fn gauge_set(name: &'static str, value: f64) {
    if let Some(r) = global() {
        r.gauge_set(name, value);
    }
}

/// Records a histogram sample on the global recorder (no-op when none).
pub fn histogram_ns(name: &'static str, ns: u64) {
    if let Some(r) = global() {
        r.histogram_ns(name, ns);
    }
}

/// The global recorder's clock, or 0 when none is installed. Library code
/// may use matching `now_ns()` pairs for coarse durations without ever
/// touching `Instant` itself.
pub fn now_ns() -> u64 {
    global().map_or(0, Recorder::now_ns)
}

/// Adapter from the pv-tensor kernel seam to the global recorder: each
/// kernel invocation becomes a `cat: "tensor"` span (attributed to the
/// calling thread's lane/depth) and a sample in a per-kernel histogram.
struct ObsKernelHook;

static KERNEL_HOOK: ObsKernelHook = ObsKernelHook;

impl pv_tensor::profile::KernelHook for ObsKernelHook {
    fn begin(&self) -> u64 {
        now_ns()
    }

    fn end(&self, name: &'static str, begin_token: u64) {
        if let Some(r) = global() {
            let end = r.now_ns();
            r.record_complete("tensor", name, begin_token, end);
            r.histogram_ns(name, end.saturating_sub(begin_token));
        }
    }

    fn end_call(&self, call: &pv_tensor::profile::KernelCall, begin_token: u64) {
        if let Some(r) = global() {
            let end = r.now_ns();
            let [m, k, n] = call.shape;
            // Span names carry the problem shape, the executing backend,
            // and the selected routine so `--trace` output attributes
            // time to the implementation that spent it, e.g.
            // `matmul 256x256x256 [packed/packed4x64]`. Formatting only
            // runs with a recorder installed, so untraced kernels stay
            // allocation-free.
            let tag = match (call.backend.is_empty(), call.routine.is_empty()) {
                (true, true) => None,
                (true, false) => Some(call.routine.to_string()),
                (false, true) => Some(call.backend.to_string()),
                (false, false) => Some(format!("{}/{}", call.backend, call.routine)),
            };
            let name = match (tag, call.shape == [0; 3]) {
                (None, true) => std::borrow::Cow::Borrowed(call.name),
                (None, false) => std::borrow::Cow::Owned(format!("{} {m}x{k}x{n}", call.name)),
                (Some(t), true) => std::borrow::Cow::Owned(format!("{} [{t}]", call.name)),
                (Some(t), false) => {
                    std::borrow::Cow::Owned(format!("{} {m}x{k}x{n} [{t}]", call.name))
                }
            };
            r.record_complete("tensor", name, begin_token, end);
            let dur = end.saturating_sub(begin_token);
            // Three histogram families: per kernel (`matmul`), per
            // backend (`packed`), and — when a selector ran — per routine
            // (`packed4x64`), so the metrics summary shows where kernel
            // time went across backends and routines.
            r.histogram_ns(call.name, dur);
            if !call.backend.is_empty() {
                r.histogram_ns(call.backend, dur);
            }
            if !call.routine.is_empty() {
                r.histogram_ns(call.routine, dur);
            }
        }
    }
}
