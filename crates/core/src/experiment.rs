//! Experiment runners: train a parent, produce the family of pruned
//! networks (one per prune–retrain cycle), and evaluate curves, prune
//! potential, and excess error across distributions.

use crate::artifact::family_cache_key;
use crate::config::ExperimentConfig;
use crate::distributions::Distribution;
use pv_ckpt::{checkpoint_to_network, network_to_checkpoint, ArtifactCache};
use pv_data::{corruption_augment, generate_split, CorruptionSplit, Dataset};
use pv_metrics::{try_excess_error_difference, PruneAccuracyCurve};
use pv_nn::{train, Network, TrainConfig};
use pv_prune::{PruneContext, PruneMethod};
use pv_tensor::error::Result;
use pv_tensor::par;
use pv_tensor::{Error, Rng, Tensor};

/// Evaluation batch size used everywhere (memory bound, not a result knob).
pub const EVAL_BATCH: usize = 128;

/// Adapts a dataset's NCHW images to a network's expected input shape
/// (flattening for MLPs, pass-through for CNNs).
///
/// Fails with [`Error::ShapeMismatch`] when the dataset's per-sample
/// element count does not match the network's input shape.
pub fn try_inputs_for(net: &Network, ds: &Dataset) -> Result<Tensor> {
    let images = ds.images();
    let per_sample: usize = ds.image_shape().iter().product();
    let expected: usize = net.input_shape().iter().product();
    if per_sample != expected {
        return Err(Error::ShapeMismatch {
            name: "network input".into(),
            expected: net.input_shape().to_vec(),
            actual: ds.image_shape().to_vec(),
        });
    }
    Ok(if net.input_shape().len() == 1 {
        images.reshape(&[ds.len(), per_sample])
    } else {
        images.clone()
    })
}

/// Panicking convenience wrapper around [`try_inputs_for`].
///
/// # Panics
///
/// Panics if the dataset's per-sample element count does not match the
/// network's input shape.
pub fn inputs_for(net: &Network, ds: &Dataset) -> Tensor {
    match try_inputs_for(net, ds) {
        Ok(t) => t,
        // pv-analyze: allow(lib-panic) -- documented panicking convenience wrapper over try_inputs_for
        Err(e) => panic!("dataset does not fit network input: {e}"),
    }
}

/// Test error (%) of a network on a dataset.
pub fn eval_error_pct(net: &Network, ds: &Dataset) -> f64 {
    let x = inputs_for(net, ds);
    net.test_error_pct(&x, ds.labels(), EVAL_BATCH)
}

/// One pruned model of a family: the snapshot after a prune–retrain cycle.
#[derive(Debug, Clone)]
pub struct PrunedModel {
    /// Target overall prune ratio of this cycle (schedule value).
    pub target_ratio: f64,
    /// Achieved prune ratio over prunable weights.
    pub achieved_ratio: f64,
    /// Achieved FLOP reduction.
    pub flop_reduction: f64,
    /// The network.
    pub network: Network,
}

/// A full study family: the trained parent, an independently initialized
/// "separate" network trained on the same data, and the pruned models of
/// every cycle (Section 3.2's experimental unit).
#[derive(Debug, Clone)]
pub struct StudyFamily {
    /// The trained, unpruned parent.
    pub parent: Network,
    /// A separately initialized, unpruned network trained on the same data.
    pub separate: Network,
    /// Pruned snapshots, one per cycle, ascending prune ratio.
    pub pruned: Vec<PrunedModel>,
    /// Training split.
    pub train_set: Dataset,
    /// Nominal test split.
    pub test_set: Dataset,
    /// The generating task.
    pub task: pv_data::TaskSpec,
    /// Pruning method name.
    pub method: String,
}

/// Optional robust-training setup: corruptions folded into every training
/// and retraining batch (Section 6).
#[derive(Debug, Clone)]
pub struct RobustTraining<'a> {
    /// The train/test corruption split (Table 11).
    pub split: &'a CorruptionSplit,
    /// Corruption severity used during training.
    pub severity: u8,
}

fn train_with_optional_augment(
    net: &mut Network,
    x: &Tensor,
    y: &[usize],
    cfg: &TrainConfig,
    robust: Option<&RobustTraining<'_>>,
    is_flat: bool,
    image_shape: &[usize],
) {
    match robust {
        None => {
            train(net, x, y, cfg, None);
        }
        Some(r) => {
            let split = r.split;
            let severity = r.severity;
            let shape = image_shape.to_vec();
            let mut base = corruption_augment(split, severity);
            // corruptions act on NCHW; round-trip through the image shape
            // when the network consumes flat inputs
            let mut hook = move |batch: &mut Tensor, rng: &mut Rng| {
                if is_flat {
                    let n = batch.dim(0);
                    let mut full = vec![n];
                    full.extend_from_slice(&shape);
                    let mut img = batch.reshape(&full);
                    base(&mut img, rng);
                    *batch = img.reshape(&[n, shape.iter().product()]);
                } else {
                    base(batch, rng);
                }
            };
            train(net, x, y, cfg, Some(&mut hook));
        }
    }
}

/// Options of one [`build_family_with`] invocation beyond the config and
/// method: which repetition, the optional robust-training setup, and the
/// optional artifact cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct FamilyBuildOptions<'a> {
    /// Repetition index (derives the seed via `cfg.rep_seed`).
    pub rep: usize,
    /// Section 6 corruption-augmented (re)training, when enabled.
    pub robust: Option<&'a RobustTraining<'a>>,
    /// Artifact cache to resume from / populate, when enabled.
    pub cache: Option<&'a ArtifactCache>,
}

/// Loads a cached component into `net`; `Ok(false)` means a cache miss
/// (or no cache configured) and the caller must build it fresh.
fn cache_load(
    cache: Option<&ArtifactCache>,
    key: Option<&str>,
    file: &str,
    net: &mut Network,
) -> Result<bool> {
    let (Some(cache), Some(key)) = (cache, key) else {
        return Ok(false);
    };
    if !cache.contains(key, file) {
        pv_obs::counter_add("ckpt/cache_miss", 1.0);
        return Ok(false);
    }
    checkpoint_to_network(&cache.load(key, file)?, net)?;
    pv_obs::counter_add("ckpt/cache_hit", 1.0);
    Ok(true)
}

fn cache_store(
    cache: Option<&ArtifactCache>,
    key: Option<&str>,
    file: &str,
    net: &mut Network,
) -> Result<()> {
    let (Some(cache), Some(key)) = (cache, key) else {
        return Ok(());
    };
    cache.store(key, file, &network_to_checkpoint(net))
}

/// Builds a [`StudyFamily`] for one repetition: generate data, train parent
/// and separate networks, then run the iterative prune–retrain schedule,
/// snapshotting the network after every cycle.
///
/// With a cache in `opts`, every component (`parent`, `separate`, each
/// `cycleNN`) is loaded instead of trained when its artifact exists under
/// the family's [`family_cache_key`], and stored right after being built
/// otherwise — so an interrupted run resumes at the first missing cycle and
/// a repeated run performs **zero** training steps. Checkpoints carry the
/// complete optimizer-visible state (values, masks, momentum, batch-norm
/// statistics) and the whole workspace is bitwise deterministic, so cached,
/// resumed, and fresh builds are indistinguishable bit for bit.
pub fn build_family_with(
    cfg: &ExperimentConfig,
    method: &dyn PruneMethod,
    opts: &FamilyBuildOptions<'_>,
) -> Result<StudyFamily> {
    let _span = pv_obs::span("core", "build_family");
    let rep = opts.rep;
    let robust = opts.robust;
    let key = opts
        .cache
        .map(|_| family_cache_key(cfg, method.name(), rep, robust));
    let key = key.as_deref();
    if key.is_some() {
        // declare the series so a fully-warm (or fully-cold) run still
        // exports both, with an explicit zero instead of a missing name
        pv_obs::counter_add("ckpt/cache_hit", 0.0);
        pv_obs::counter_add("ckpt/cache_miss", 0.0);
    }

    let seed = cfg.rep_seed(rep);
    let (train_set, test_set) = generate_split(&cfg.task, cfg.n_train, cfg.n_test, seed);
    let is_flat = matches!(cfg.arch, crate::config::ArchSpec::Mlp { .. });

    let mut parent = cfg.arch.build(&cfg.name, &cfg.task, seed.wrapping_add(11));
    let mut separate = cfg.arch.build(
        &format!("{}-sep", cfg.name),
        &cfg.task,
        seed.wrapping_add(271),
    );
    // static shape gate: catch an inconsistent architecture before any
    // training step rather than mid-epoch inside a kernel
    parent.infer_shapes()?;

    let x = try_inputs_for(&parent, &train_set)?;
    let y = train_set.labels();
    let mut tc = cfg.train.clone();
    tc.seed = seed;
    if !cache_load(opts.cache, key, "parent", &mut parent)? {
        let _span = pv_obs::span("core", "train_parent");
        train_with_optional_augment(
            &mut parent,
            &x,
            y,
            &tc,
            robust,
            is_flat,
            &cfg.task.image_shape(),
        );
        cache_store(opts.cache, key, "parent", &mut parent)?;
    }
    tc.seed = seed.wrapping_add(1);
    if !cache_load(opts.cache, key, "separate", &mut separate)? {
        let _span = pv_obs::span("core", "train_separate");
        train_with_optional_augment(
            &mut separate,
            &x,
            y,
            &tc,
            robust,
            is_flat,
            &cfg.task.image_shape(),
        );
        cache_store(opts.cache, key, "separate", &mut separate)?;
    }

    // sensitivity batch for data-informed methods: a training subsample
    // (the paper uses validation data; a train subsample avoids test leak)
    let ctx = if method.is_data_informed() {
        let mut rng = Rng::new(seed.wrapping_add(999));
        let sub = train_set.subsample(cfg.n_train.min(64), &mut rng);
        PruneContext::with_batch(try_inputs_for(&parent, &sub)?)
    } else {
        PruneContext::data_free()
    };

    let targets = cfg.target_ratios();
    let mut net = parent.clone();
    let mut pruned = Vec::with_capacity(cfg.cycles);
    for (i, &target) in targets.iter().enumerate() {
        let _cycle_span = pv_obs::span_dyn("core", || format!("cycle{i:02}"));
        let file = format!("cycle{i:02}");
        if !cache_load(opts.cache, key, &file, &mut net)? {
            {
                let _span = pv_obs::span("core", "prune");
                method.prune(&mut net, cfg.per_cycle_ratio, &ctx);
            }
            let mut rc = cfg.train.clone();
            rc.seed = seed.wrapping_add(100 + i as u64);
            train_with_optional_augment(
                &mut net,
                &x,
                y,
                &rc,
                robust,
                is_flat,
                &cfg.task.image_shape(),
            );
            cache_store(opts.cache, key, &file, &mut net)?;
        }
        pruned.push(PrunedModel {
            target_ratio: target,
            achieved_ratio: net.prune_ratio(),
            flop_reduction: net.flop_reduction(),
            network: net.clone(),
        });
    }

    Ok(StudyFamily {
        parent,
        separate,
        pruned,
        train_set,
        test_set,
        task: cfg.task.clone(),
        method: method.name().to_string(),
    })
}

/// Cacheless convenience wrapper around [`build_family_with`].
///
/// `robust` switches on the Section 6 corruption-augmented (re)training.
///
/// # Panics
///
/// Panics if the task's images do not fit the architecture's input shape
/// (the only fallible step when no cache is involved).
pub fn build_family(
    cfg: &ExperimentConfig,
    method: &dyn PruneMethod,
    rep: usize,
    robust: Option<&RobustTraining<'_>>,
) -> StudyFamily {
    let opts = FamilyBuildOptions {
        rep,
        robust,
        cache: None,
    };
    match build_family_with(cfg, method, &opts) {
        Ok(f) => f,
        // pv-analyze: allow(lib-panic) -- documented panicking convenience wrapper over build_family_with
        Err(e) => panic!("family build failed: {e}"),
    }
}

impl StudyFamily {
    /// Measures the prune-accuracy curve of the family on one distribution.
    ///
    /// The x-coordinates are the achieved prune ratios; the reference error
    /// is the parent's error on the same realized dataset.
    pub fn curve_on(&mut self, dist: &Distribution, eval_seed: u64) -> PruneAccuracyCurve {
        self.curves_on(std::slice::from_ref(dist), eval_seed)
            .pop()
            // pv-analyze: allow(lib-panic) -- curves_on returns one curve per requested distribution
            .expect("one curve")
    }

    /// Measures prune-accuracy curves on several distributions in one
    /// sweep, returned in `dists` order.
    ///
    /// The whole `(model × distribution)` grid runs in parallel: datasets
    /// are realized concurrently ([`Distribution::realize`] is seed-pure),
    /// the parent is scored on each distribution by its own worker, and
    /// each pruned model evaluates every distribution on its own worker,
    /// all of them borrowing the family's networks. Every grid cell is
    /// independent, so the curves are identical to the serial
    /// per-distribution sweep.
    pub fn curves_on(&self, dists: &[Distribution], eval_seed: u64) -> Vec<PruneAccuracyCurve> {
        if dists.is_empty() {
            return Vec::new();
        }
        let _span = pv_obs::span("core", "curves_on");
        let (task, test_set) = (&self.task, &self.test_set);
        let datasets: Vec<Dataset> =
            par::parallel_map(dists.len(), |i| dists[i].realize(task, test_set, eval_seed));
        let unpruned: Vec<f64> = par::parallel_map(datasets.len(), |i| {
            eval_error_pct(&self.parent, &datasets[i])
        });
        let grid: Vec<Vec<(f64, f64)>> = par::parallel_map(self.pruned.len(), |i| {
            let pm = &self.pruned[i];
            datasets
                .iter()
                .map(|ds| (pm.achieved_ratio, eval_error_pct(&pm.network, ds)))
                .collect()
        });
        (0..dists.len())
            .map(|di| {
                let points = grid.iter().map(|row| row[di]).collect();
                PruneAccuracyCurve::new(unpruned[di], points)
            })
            .collect()
    }

    /// Prune potential (Definition 1) on one distribution.
    pub fn potential_on(&mut self, dist: &Distribution, delta_pct: f64, eval_seed: u64) -> f64 {
        self.curve_on(dist, eval_seed).prune_potential(delta_pct)
    }

    /// The difference-in-excess-error series `ê − e` (Appendix D.5): the
    /// shifted errors are averaged pointwise over `shifted_dists` before
    /// differencing against the nominal curve.
    ///
    /// Fails with [`Error::Metric`] when `shifted_dists` is empty (the
    /// curves themselves share a grid by construction, so the underlying
    /// [`try_excess_error_difference`] cannot fail after that gate).
    pub fn try_excess_error_series(
        &mut self,
        shifted_dists: &[Distribution],
        eval_seed: u64,
    ) -> Result<Vec<(f64, f64)>> {
        if shifted_dists.is_empty() {
            return Err(Error::Metric(
                "excess-error series needs at least one shifted distribution".into(),
            ));
        }
        let mut all = Vec::with_capacity(1 + shifted_dists.len());
        all.push(Distribution::Nominal);
        all.extend_from_slice(shifted_dists);
        let mut curves = self.curves_on(&all, eval_seed);
        let nominal = curves.remove(0);
        let avg = try_average_curves(&curves)?;
        try_excess_error_difference(&nominal, &avg)
    }

    /// Panicking convenience wrapper around
    /// [`StudyFamily::try_excess_error_series`].
    ///
    /// # Panics
    ///
    /// Panics if `shifted_dists` is empty.
    pub fn excess_error_series(
        &mut self,
        shifted_dists: &[Distribution],
        eval_seed: u64,
    ) -> Vec<(f64, f64)> {
        match self.try_excess_error_series(shifted_dists, eval_seed) {
            Ok(s) => s,
            // pv-analyze: allow(lib-panic) -- documented panicking convenience wrapper over try_excess_error_series
            Err(e) => panic!("{e}"),
        }
    }
}

/// Pointwise average of curves measured on the same ratio grid.
///
/// Fails with [`Error::Metric`] when `curves` is empty and with
/// [`Error::ShapeMismatch`] when the grids differ in length.
pub fn try_average_curves(curves: &[PruneAccuracyCurve]) -> Result<PruneAccuracyCurve> {
    let Some(first) = curves.first() else {
        return Err(Error::Metric("cannot average zero curves".into()));
    };
    let n = curves.len() as f64;
    let grid_len = first.points.len();
    let unpruned = curves.iter().map(|c| c.unpruned_error_pct).sum::<f64>() / n;
    let mut points = Vec::with_capacity(grid_len);
    for i in 0..grid_len {
        let ratio = first.points[i].0;
        let mut err = 0.0;
        for c in curves {
            if c.points.len() != grid_len {
                return Err(Error::ShapeMismatch {
                    name: "prune-accuracy curve grid".into(),
                    expected: vec![grid_len],
                    actual: vec![c.points.len()],
                });
            }
            err += c.points[i].1;
        }
        points.push((ratio, err / n));
    }
    Ok(PruneAccuracyCurve::new(unpruned, points))
}

/// Panicking convenience wrapper around [`try_average_curves`].
///
/// # Panics
///
/// Panics if `curves` is empty or the grids differ in length.
pub fn average_curves(curves: &[PruneAccuracyCurve]) -> PruneAccuracyCurve {
    match try_average_curves(curves) {
        Ok(c) => c,
        // pv-analyze: allow(lib-panic) -- documented panicking convenience wrapper over try_average_curves
        Err(e) => panic!("{e}"),
    }
}

/// Prune potentials of one family on many distributions (one figure-6 bar
/// group), evaluated as a single parallel `(model × distribution)` sweep.
pub fn potentials_by_distribution(
    family: &mut StudyFamily,
    dists: &[Distribution],
    delta_pct: f64,
    eval_seed: u64,
) -> Vec<(String, f64)> {
    let curves = family.curves_on(dists, eval_seed);
    dists
        .iter()
        .zip(curves)
        .map(|(d, c)| (d.label(), c.prune_potential(delta_pct)))
        .collect()
}

/// Aggregate row of the overparameterization tables (Tables 2 / 9 / 10 /
/// 12 / 13): average and minimum prune potential over the train- and
/// test-distribution sets, one value per repetition.
#[derive(Debug, Clone, Default)]
pub struct OverparamMeasurement {
    /// Average potential over the train-side distributions, per repetition.
    pub avg_train: Vec<f64>,
    /// Average potential over the test-side distributions, per repetition.
    pub avg_test: Vec<f64>,
    /// Minimum potential over the train-side distributions, per repetition.
    pub min_train: Vec<f64>,
    /// Minimum potential over the test-side distributions, per repetition.
    pub min_test: Vec<f64>,
}

/// Runs the full repetition loop for one (config, method) pair and
/// aggregates prune potentials over train-side and test-side distribution
/// sets.
///
/// Repetitions are fully independent (each derives everything from its own
/// `rep_seed`), so they run in parallel — one family build plus evaluation
/// sweep per worker — with results collected in repetition order.
pub fn overparameterization_study(
    cfg: &ExperimentConfig,
    method: &dyn PruneMethod,
    train_dists: &[Distribution],
    test_dists: &[Distribution],
    robust: Option<&RobustTraining<'_>>,
) -> OverparamMeasurement {
    let per_rep: Vec<([f64; 2], [f64; 2])> = par::parallel_map(cfg.repetitions, |rep| {
        let family = build_family(cfg, method, rep, robust);
        let eval_seed = cfg.rep_seed(rep) ^ 0xE7A1;
        let delta = cfg.delta_pct;
        let train_p: Vec<f64> = family
            .curves_on(train_dists, eval_seed)
            .iter()
            .map(|c| c.prune_potential(delta))
            .collect();
        let test_p: Vec<f64> = family
            .curves_on(test_dists, eval_seed)
            .iter()
            .map(|c| c.prune_potential(delta))
            .collect();
        (
            [mean_of(&train_p), min_of(&train_p)],
            [mean_of(&test_p), min_of(&test_p)],
        )
    });
    let mut out = OverparamMeasurement::default();
    for ([avg_train, min_train], [avg_test, min_test]) in per_rep {
        out.avg_train.push(avg_train);
        out.avg_test.push(avg_test);
        out.min_train.push(min_train);
        out.min_test.push(min_test);
    }
    out
}

fn mean_of(xs: &[f64]) -> f64 {
    pv_tensor::stats::mean(xs)
}

fn min_of(xs: &[f64]) -> f64 {
    pv_tensor::stats::minimum(xs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArchSpec;
    use pv_data::TaskSpec;
    use pv_nn::Schedule;
    use pv_prune::WeightThresholding;

    fn quick_cfg() -> ExperimentConfig {
        ExperimentConfig {
            name: "quick".into(),
            arch: ArchSpec::Mlp {
                hidden: vec![32],
                batch_norm: false,
            },
            task: TaskSpec::tiny(),
            n_train: 128,
            n_test: 64,
            train: TrainConfig {
                epochs: 6,
                batch_size: 32,
                schedule: Schedule::constant(0.1),
                momentum: 0.9,
                nesterov: false,
                weight_decay: 1e-4,
                seed: 0,
            },
            cycles: 3,
            per_cycle_ratio: 0.5,
            repetitions: 2,
            delta_pct: 0.5,
            seed: 42,
        }
    }

    #[test]
    fn family_builds_and_prunes_progressively() {
        let cfg = quick_cfg();
        let mut fam = build_family(&cfg, &WeightThresholding, 0, None);
        assert_eq!(fam.pruned.len(), 3);
        assert!(fam.pruned[0].achieved_ratio < fam.pruned[1].achieved_ratio);
        assert!(fam.pruned[1].achieved_ratio < fam.pruned[2].achieved_ratio);
        // parent is dense, pruned nets track targets
        assert_eq!(fam.parent.prune_ratio(), 0.0);
        assert!((fam.pruned[2].achieved_ratio - 0.875).abs() < 0.02);
        // parent learned the task well
        let err = eval_error_pct(&fam.parent, &fam.test_set.clone());
        assert!(err < 25.0, "parent test error {err}%");
    }

    #[test]
    fn curve_and_potential_behave() {
        let cfg = quick_cfg();
        let mut fam = build_family(&cfg, &WeightThresholding, 0, None);
        let curve = fam.curve_on(&Distribution::Nominal, 1);
        assert_eq!(curve.points.len(), 3);
        let p_nominal = curve.prune_potential(2.0);
        assert!(p_nominal >= 0.0);
        // heavy noise should not increase the potential
        let p_noise = fam.potential_on(&Distribution::Noise(0.5), 2.0, 1);
        assert!(
            p_noise <= p_nominal + 1e-9,
            "noise {p_noise} vs nominal {p_nominal}"
        );
    }

    #[test]
    fn excess_error_series_has_grid_shape() {
        let cfg = quick_cfg();
        let mut fam = build_family(&cfg, &WeightThresholding, 0, None);
        let series =
            fam.excess_error_series(&[Distribution::Noise(0.2), Distribution::Noise(0.3)], 1);
        assert_eq!(series.len(), 3);
        assert!(series.iter().all(|(r, _)| (0.0..=1.0).contains(r)));
    }

    #[test]
    fn try_average_curves_rejects_bad_input() {
        assert!(matches!(try_average_curves(&[]), Err(Error::Metric(_))));
        let a = PruneAccuracyCurve::new(1.0, vec![(0.5, 2.0)]);
        let b = PruneAccuracyCurve::new(1.0, vec![(0.5, 2.0), (0.9, 3.0)]);
        let err = try_average_curves(&[a, b]).unwrap_err();
        assert!(matches!(err, Error::ShapeMismatch { .. }), "{err:?}");
    }

    #[test]
    fn try_excess_error_series_rejects_empty_dists() {
        let mut cfg = quick_cfg();
        cfg.train.epochs = 1;
        cfg.cycles = 1;
        let mut fam = build_family(&cfg, &WeightThresholding, 0, None);
        let err = fam.try_excess_error_series(&[], 1).unwrap_err();
        assert!(matches!(err, Error::Metric(_)), "{err:?}");
    }

    #[test]
    fn average_curves_mean() {
        let a = PruneAccuracyCurve::new(1.0, vec![(0.5, 2.0)]);
        let b = PruneAccuracyCurve::new(3.0, vec![(0.5, 6.0)]);
        let avg = average_curves(&[a, b]);
        assert_eq!(avg.unpruned_error_pct, 2.0);
        assert_eq!(avg.points, vec![(0.5, 4.0)]);
    }

    #[test]
    fn overparameterization_study_shapes() {
        let mut cfg = quick_cfg();
        cfg.repetitions = 2;
        cfg.train.epochs = 3;
        let m = overparameterization_study(
            &cfg,
            &WeightThresholding,
            &[Distribution::Nominal],
            &[Distribution::Noise(0.3)],
            None,
        );
        assert_eq!(m.avg_train.len(), 2);
        assert_eq!(m.min_test.len(), 2);
        for rep in 0..2 {
            // min <= avg always
            assert!(m.min_train[rep] <= m.avg_train[rep] + 1e-12);
            assert!(m.min_test[rep] <= m.avg_test[rep] + 1e-12);
        }
    }

    #[test]
    fn inputs_for_flattens_for_mlp() {
        let cfg = quick_cfg();
        let (train_set, _) = generate_split(&cfg.task, 8, 4, 1);
        let net = cfg.arch.build("m", &cfg.task, 2);
        let x = inputs_for(&net, &train_set);
        assert_eq!(x.shape(), &[8, cfg.task.input_dim()]);
    }

    #[test]
    fn try_inputs_for_rejects_mismatched_task() {
        let cfg = quick_cfg();
        let net = cfg.arch.build("m", &cfg.task, 2);
        let mut big = cfg.task.clone();
        big.height *= 2;
        let (wrong, _) = generate_split(&big, 4, 4, 1);
        let err = try_inputs_for(&net, &wrong).unwrap_err();
        assert!(matches!(err, Error::ShapeMismatch { .. }), "{err:?}");
    }

    fn family_fingerprint(fam: &mut StudyFamily) -> Vec<u32> {
        let mut bits = Vec::new();
        let mut add = |net: &mut Network| {
            net.visit_params_named(&mut |_, p| {
                bits.extend(p.value.data().iter().map(|v| v.to_bits()));
                if let Some(m) = &p.mask {
                    bits.extend(m.data().iter().map(|v| v.to_bits()));
                }
            });
        };
        add(&mut fam.parent);
        add(&mut fam.separate);
        for pm in &mut fam.pruned {
            add(&mut pm.network);
        }
        bits
    }

    #[test]
    fn cached_build_resumes_bitwise_identically() {
        let mut cfg = quick_cfg();
        cfg.train.epochs = 2;
        let root = std::env::temp_dir().join("pv_core_cache_resume_test");
        std::fs::remove_dir_all(&root).ok();
        let cache = ArtifactCache::new(&root);
        let opts = FamilyBuildOptions {
            rep: 0,
            robust: None,
            cache: Some(&cache),
        };
        let mut cold = build_family_with(&cfg, &WeightThresholding, &opts).expect("cold");
        let reference = family_fingerprint(&mut cold);

        // fully warm: every component loads from the cache
        let mut warm = build_family_with(&cfg, &WeightThresholding, &opts).expect("warm");
        assert_eq!(family_fingerprint(&mut warm), reference);

        // partial resume: drop one mid-schedule artifact, rebuild just it
        let key = family_cache_key(&cfg, WeightThresholding.name(), 0, None);
        std::fs::remove_file(cache.path_for(&key, "cycle01")).expect("evict cycle01");
        let mut resumed = build_family_with(&cfg, &WeightThresholding, &opts).expect("resume");
        assert_eq!(family_fingerprint(&mut resumed), reference);
        std::fs::remove_dir_all(&root).ok();
    }
}
