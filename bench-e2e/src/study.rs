//! The study workload (`study_fig2`): a researcher building Figure 2.
//!
//! One job is one session of `pruneval fig2` on resnet20 pruned by weight
//! thresholding (repetition 0): a cold `build_family_with` into a fresh
//! artifact cache plus the prune-accuracy curves on the nominal test set,
//! the alternative test set and ℓ∞ noise 0.1 (eval seed 1), then a warm
//! rebuild from that cache plus the same three curves. Training kernels
//! (conv forward and backward, im2col) dominate the cold half; the warm
//! half reads the checkpoints the cold half wrote; the serving layers sit
//! idle. Sessions run back to back; the capacity is sessions per second.
//!
//! The study runs at `Scale::Smoke`: the network and batch size of the
//! `Quick` scale, so the kernel shapes are the same, with fewer samples and
//! epochs, so that one run holds several sessions.

use crate::layers::{self, Layers};
use crate::stats::{median, median_ms, ms_since, quantile};
use crate::{err, Args, Metric, Report};
use pruneval::{
    build_family_with, preset, try_inputs_for, ArtifactCache, Distribution, ExperimentConfig,
    FamilyBuildOptions, Scale, StudyFamily,
};
use pv_metrics::PruneAccuracyCurve;
use pv_nn::Mode;
use pv_prune::WeightThresholding;
use std::path::Path;
use std::time::Instant;

/// The distributions of Figure 2, as `pruneval fig2` evaluates them.
const DISTS: [Distribution; 3] = [
    Distribution::Nominal,
    Distribution::AltTestSet,
    Distribution::Noise(0.1),
];
/// Calls timed for the data-generation median.
const SPLIT_CALLS: usize = 5;

/// The resnet20 study config, seeded by `--seed`.
pub(crate) fn resnet20(seed: u64) -> ExperimentConfig {
    let mut cfg = preset("resnet20", Scale::Smoke).expect("resnet20 is a preset");
    cfg.seed = seed;
    cfg
}

/// One session's timings and results. `warm_ns` is the warm half's span
/// on the recorder's clock (zeros when none is installed).
struct Session {
    cold_ms: f64,
    warm_ms: f64,
    warm_ns: (u64, u64),
    cache_bytes: u64,
    curves: Vec<PruneAccuracyCurve>,
    /// Whether the warm curves equal the cold ones.
    warm_matches: bool,
}

/// One session; also returns the family its cold half built.
fn session(cfg: &ExperimentConfig, cache_dir: &Path) -> Result<(Session, StudyFamily), String> {
    if cache_dir.exists() {
        std::fs::remove_dir_all(cache_dir).map_err(err)?;
    }
    let cache = ArtifactCache::new(cache_dir);
    let opts = FamilyBuildOptions {
        rep: 0,
        robust: None,
        cache: Some(&cache),
    };
    let t = Instant::now();
    let (family, cold) = build_and_measure(cfg, &opts)?;
    let cold_ms = ms_since(t);
    let cache_bytes = dir_bytes(cache_dir);
    let (t, start_ns) = (Instant::now(), pv_obs::now_ns());
    let (_, warm) = build_and_measure(cfg, &opts)?;
    let warm_ms = ms_since(t);
    let s = Session {
        cold_ms,
        warm_ms,
        warm_ns: (start_ns, pv_obs::now_ns()),
        cache_bytes,
        warm_matches: warm == cold,
        curves: cold,
    };
    Ok((s, family))
}

/// One half of a session: the family build and the Figure 2 curves.
fn build_and_measure(
    cfg: &ExperimentConfig,
    opts: &FamilyBuildOptions<'_>,
) -> Result<(StudyFamily, Vec<PruneAccuracyCurve>), String> {
    let mut family = build_family_with(cfg, &WeightThresholding, opts).map_err(err)?;
    let curves = DISTS.iter().map(|d| family.curve_on(d, 1)).collect();
    Ok((family, curves))
}

/// Total size of the files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |rd| {
        rd.flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

/// Runs sessions back to back until `seconds` have passed (at least one).
/// A session whose warm curves differ from its cold ones, or whose curves
/// differ from `reference`, counts as failed.
fn sessions(
    cfg: &ExperimentConfig,
    cache_dir: &Path,
    seconds: f64,
    reference: &[PruneAccuracyCurve],
    report: &mut Report,
) -> Result<(Vec<Session>, f64), String> {
    let t0 = Instant::now();
    let mut done: Vec<Session> = Vec::new();
    while done.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let (s, _) = session(cfg, cache_dir)?;
        if !s.warm_matches || s.curves != reference {
            report.failed += 1;
        }
        report.attempted += 1;
        done.push(s);
    }
    Ok((done, t0.elapsed().as_secs_f64()))
}

/// Runs the study workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let cfg = resnet20(args.seed);
    let cache_dir = crate::out_dir()
        .join("tmp")
        .join(format!("study-cache-{}", args.seed));
    let mut report = Report::default();
    report.provenance.push((
        "model.resnet20".into(),
        format!(
            "{} parameters, Scale::Smoke ({} train / {} test samples, {} epochs, {} cycles), WT",
            cfg.arch.build(&cfg.name, &cfg.task, 0).total_param_count(),
            cfg.n_train,
            cfg.n_test,
            cfg.train.epochs,
            cfg.cycles
        ),
    ));
    // set-up: the first session of the process. Besides a full session it
    // pays the one-time costs (thread start-up, allocator growth, first
    // page faults) later sessions do not, and its curves are the reference
    // the later ones must reproduce bit for bit.
    let t = Instant::now();
    let (first, family) = session(&cfg, &cache_dir)?;
    let setup_s = t.elapsed().as_secs_f64();
    if !first.warm_matches {
        report
            .problems
            .push("the first session's warm curves differ from its cold ones".into());
    }
    if args.trace {
        return traced(args, &cfg, &cache_dir, &first, family, report);
    }
    let (done, elapsed_s) = sessions(&cfg, &cache_dir, args.seconds, &first.curves, &mut report)?;
    let total: Vec<f64> = done.iter().map(|s| s.cold_ms + s.warm_ms).collect();
    let cold: Vec<f64> = done.iter().map(|s| s.cold_ms).collect();
    let warm: Vec<f64> = done.iter().map(|s| s.warm_ms).collect();
    report.end_to_end(
        setup_s,
        median(&total),
        quantile(&total, 0.9),
        done.len() as f64 / elapsed_s,
    )?;
    report.extra = vec![
        Metric::new("study.sessions", done.len() as f64, "count"),
        Metric::new("study_cold_ms", median(&cold), "ms"),
        Metric::new("study_warm_ms", median(&warm), "ms"),
    ];
    Ok(report)
}

/// The traced rerun: one more untraced session as the overhead baseline,
/// then sessions under the recorder.
fn traced(
    args: &Args,
    cfg: &ExperimentConfig,
    cache_dir: &Path,
    first: &Session,
    mut family: StudyFamily,
    mut report: Report,
) -> Result<Report, String> {
    let (base, _) = sessions(cfg, cache_dir, 0.0, &first.curves, &mut report)?;
    let base_ms = base[0].cold_ms + base[0].warm_ms;
    let x = try_inputs_for(&family.parent, &family.test_set).map_err(err)?;
    let parent = &mut family.parent;
    let mut forward = |n: usize| {
        let batch = x.slice_first_axis(0, n);
        median_ms(20, || {
            std::hint::black_box(parent.forward(&batch, Mode::Eval));
        })
    };
    let (b1, b8) = (forward(1), forward(8));
    let split_ms = median_ms(SPLIT_CALLS, || {
        std::hint::black_box(pv_data::generate_split(
            &cfg.task,
            cfg.n_train,
            cfg.n_test,
            cfg.rep_seed(0),
        ));
    });

    let rec = pv_obs::Recorder::new(pv_obs::MonotonicClock::new());
    if !pv_obs::install(rec.clone()) {
        return Err("a pv-obs recorder was already installed in this process".into());
    }
    let t0 = Instant::now();
    let (done, _) = sessions(cfg, cache_dir, args.seconds, &first.curves, &mut report)?;
    let snap = rec.snapshot();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    crate::write_trace(&args.workload, &snap)?;

    let n = done.len() as f64;
    let traced_ms: Vec<f64> = done.iter().map(|s| s.cold_ms + s.warm_ms).collect();
    let within = |s: &pv_obs::SpanRecord, r: (u64, u64)| r.0 <= s.start_ns && s.end_ns <= r.1;
    let in_warm = |s: &pv_obs::SpanRecord| done.iter().any(|d| within(s, d.warm_ns));
    let mut l = Layers::default();
    l.kernels(&snap, n, wall_ns);
    l.obs(&snap, 100.0 * (median(&traced_ms) / base_ms - 1.0));
    l.set(
        "nn.train.ms",
        layers::span_ms(&snap, "nn", |s| s.name == "train") / n,
    );
    l.set(
        "nn.train.steps_per_sec",
        layers::gauge_mean(&snap, "train/steps_per_sec"),
    );
    l.set("nn.forward_b1.ms", b1);
    l.set("nn.forward_b8.ms", b8);
    l.set(
        "prune.ms",
        layers::span_ms(&snap, "core", |s| s.name == "prune") / n,
    );
    for (metric, span) in [
        ("core.train_parent.ms", "train_parent"),
        ("core.train_separate.ms", "train_separate"),
        ("core.curves_on.ms", "curves_on"),
    ] {
        l.set(
            metric,
            layers::span_ms(&snap, "core", |s| s.name == span) / n,
        );
    }
    l.set(
        "core.cycles.ms",
        layers::span_ms(&snap, "core", |s| s.name.starts_with("cycle")) / n,
    );
    l.set(
        "core.build_family_warm.ms",
        layers::span_ms(&snap, "core", |s| s.name == "build_family" && in_warm(s)) / n,
    );
    l.set("data.generate_split.ms", split_ms);
    l.set(
        "ckpt.cache_store.ms",
        layers::span_ms(&snap, "ckpt", |s| s.name == "cache_store") / n,
    );
    l.set(
        "ckpt.cache_load.ms",
        layers::span_ms(&snap, "ckpt", |s| s.name == "cache_load") / n,
    );
    l.set(
        "ckpt.cache_bytes",
        done.iter().map(|s| s.cache_bytes as f64).sum::<f64>() / n,
    );

    // add-up check: inside the cold halves, the family build and curve
    // spans account for the time the benchmark measured around them
    let cold_ms: f64 = done.iter().map(|s| s.cold_ms).sum();
    let spans_ms = layers::span_ms(&snap, "core", |s| {
        (s.name == "build_family" || s.name == "curves_on") && !in_warm(s)
    });
    report.extra = vec![
        Metric::new("addup.study_cold_ms", cold_ms / n, "ms"),
        Metric::new("addup.core_spans_ms", spans_ms / n, "ms"),
    ];
    if (spans_ms - cold_ms).abs() > 0.05 * cold_ms {
        report.warnings.push(format!(
            "add-up: core spans cover {spans_ms:.1} ms of the {cold_ms:.1} ms cold builds"
        ));
    }
    if snap.dropped_spans > 0 {
        report
            .warnings
            .push(format!("the recorder dropped {} spans", snap.dropped_spans));
    }
    report.metrics = l.into_metrics();
    Ok(report)
}
