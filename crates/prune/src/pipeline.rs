//! The iterative prune–retrain pipeline (Algorithm 1 of the paper).

use crate::method::{PruneContext, PruneMethod};
use pv_nn::{train, Network, TrainConfig};
use pv_tensor::Tensor;

/// Per-cycle record of a [`PruneRetrain`] run.
#[derive(Debug, Clone)]
pub struct CycleRecord {
    /// 1-based cycle number.
    pub cycle: usize,
    /// Overall prune ratio (over prunable weights) after this cycle.
    pub prune_ratio: f64,
    /// FLOP reduction after this cycle.
    pub flop_reduction: f64,
    /// Final retraining loss of the cycle.
    pub retrain_loss: f64,
}

/// Result of a [`PruneRetrain`] run.
#[derive(Debug, Clone)]
pub struct PruneOutcome {
    /// The pruned (and retrained) network.
    pub network: Network,
    /// Achieved overall prune ratio over prunable weights.
    pub prune_ratio: f64,
    /// Achieved FLOP reduction.
    pub flop_reduction: f64,
    /// One record per cycle.
    pub history: Vec<CycleRecord>,
}

/// How each cycle retrains (the comparison of Renda et al., 2020, which
/// the paper's pipeline builds on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetrainMode {
    /// Learning-rate rewinding: replay the full original LR schedule each
    /// cycle. The paper's (and Renda et al.'s recommended) protocol.
    #[default]
    LrRewind,
    /// Fine-tuning: retrain at the schedule's final (small) learning rate.
    /// The classic Han et al. protocol; typically weaker.
    FineTune,
}

/// Configuration of Algorithm 1 (`PRUNERETRAIN`): `n_cycles` prune–retrain
/// cycles, each retraining with the *same* hyperparameters as the original
/// training run (the paper's protocol, following Renda et al., 2020).
#[derive(Debug, Clone)]
pub struct PruneRetrain {
    /// Number of prune–retrain cycles (`n_cycles`).
    pub cycles: usize,
    /// Retraining hyperparameters (`n_train`, `ρ_train`); reuse the
    /// training config for the paper's protocol.
    pub retrain: TrainConfig,
    /// Retraining protocol (LR rewinding by default).
    pub mode: RetrainMode,
}

impl PruneRetrain {
    /// Creates a pipeline with the given cycle count and retraining config
    /// (LR rewinding, the paper's protocol).
    pub fn new(cycles: usize, retrain: TrainConfig) -> Self {
        assert!(cycles > 0, "need at least one prune-retrain cycle");
        Self {
            cycles,
            retrain,
            mode: RetrainMode::LrRewind,
        }
    }

    /// Switches the retraining protocol.
    #[must_use]
    pub fn with_mode(mut self, mode: RetrainMode) -> Self {
        self.mode = mode;
        self
    }

    /// The training config actually used for a retraining cycle under the
    /// configured mode.
    fn cycle_config(&self) -> TrainConfig {
        match self.mode {
            RetrainMode::LrRewind => self.retrain.clone(),
            RetrainMode::FineTune => {
                let mut cfg = self.retrain.clone();
                let last_lr = cfg.schedule.lr_at(cfg.epochs.saturating_sub(1), cfg.epochs);
                cfg.schedule = pv_nn::Schedule::constant(last_lr);
                cfg
            }
        }
    }

    /// The per-cycle *relative* prune ratio needed to reach `target`
    /// overall sparsity after `cycles` cycles: solves
    /// `(1 − r)^cycles = 1 − target`.
    pub fn per_cycle_ratio(&self, target: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&target) || target == 0.0,
            "target must be in [0, 1)"
        );
        1.0 - (1.0 - target).powf(1.0 / self.cycles as f64)
    }

    /// Runs Algorithm 1 starting from a trained parent network: iteratively
    /// prune `per_cycle_ratio(target)` of the remaining structures and
    /// retrain, `cycles` times.
    ///
    /// `ctx` must carry a sensitivity batch if `method` is data-informed.
    /// The parent is left untouched; the pruned network is returned.
    pub fn run(
        &self,
        parent: &Network,
        method: &dyn PruneMethod,
        target: f64,
        train_inputs: &Tensor,
        train_labels: &[usize],
        ctx: &PruneContext,
    ) -> PruneOutcome {
        self.run_with_augment(
            parent,
            method,
            target,
            train_inputs,
            train_labels,
            ctx,
            None,
        )
    }

    /// [`PruneRetrain::run`] with an optional retraining augmentation hook
    /// (used by the robust-pruning experiments of Section 6).
    #[allow(clippy::too_many_arguments)]
    pub fn run_with_augment(
        &self,
        parent: &Network,
        method: &dyn PruneMethod,
        target: f64,
        train_inputs: &Tensor,
        train_labels: &[usize],
        ctx: &PruneContext,
        mut augment: Option<pv_nn::BatchAugment<'_>>,
    ) -> PruneOutcome {
        if method.is_data_informed() {
            assert!(
                ctx.sensitivity_batch.is_some(),
                "{} is data-informed and needs a sensitivity batch",
                method.name()
            );
        }
        let rel = self.per_cycle_ratio(target);
        let mut net = parent.clone();
        let mut history = Vec::with_capacity(self.cycles);
        for cycle in 1..=self.cycles {
            method.prune(&mut net, rel, ctx);
            let mut cfg = self.cycle_config();
            // decorrelate batch shuffling across cycles, deterministically
            cfg.seed = self.retrain.seed.wrapping_add(cycle as u64 * 0x9E37);
            let report = match augment.as_mut() {
                Some(f) => train(&mut net, train_inputs, train_labels, &cfg, Some(&mut **f)),
                None => train(&mut net, train_inputs, train_labels, &cfg, None),
            };
            // belt and braces: the optimizer projects after every step, but
            // re-assert the masks at the cycle boundary so a future
            // optimizer or augmentation path that forgets to project cannot
            // silently regrow pruned weights across cycles
            net.project_masks();
            history.push(CycleRecord {
                cycle,
                prune_ratio: net.prune_ratio(),
                flop_reduction: net.flop_reduction(),
                retrain_loss: report.final_loss(),
            });
        }
        audit_mask_enforcement(&mut net, method.is_structured(), self.cycles, target);
        PruneOutcome {
            prune_ratio: net.prune_ratio(),
            flop_reduction: net.flop_reduction(),
            network: net,
            history,
        }
    }
}

/// End-of-run mask audit — the contract the sparse serving path relies on:
/// a pruned network's zeros are *real*, not just intended.
///
/// Panics if any mask-zero coordinate holds a nonzero value, gradient, or
/// momentum entry (retraining regrew a pruned weight), or — for
/// unstructured methods, whose `target` is a global weight fraction — if
/// the mask-implied prune ratio missed the target by more than integer
/// rounding allows. Structured targets are per-layer *row* fractions with
/// the classifier exempt, so no global weight-ratio identity holds there.
fn audit_mask_enforcement(net: &mut Network, structured: bool, cycles: usize, target: f64) {
    let mut escaped: Vec<String> = Vec::new();
    net.visit_params_named(&mut |name, p| {
        let Some(mask) = &p.mask else { return };
        let md = mask.data();
        for (field, data) in [("value", p.value.data()), ("grad", p.grad.data())] {
            if md.iter().zip(data).any(|(&m, &v)| m == 0.0 && v != 0.0) {
                escaped.push(format!("{name}.{field}"));
            }
        }
        if let Some(vel) = &p.velocity {
            if md
                .iter()
                .zip(vel.data())
                .any(|(&m, &v)| m == 0.0 && v != 0.0)
            {
                escaped.push(format!("{name}.velocity"));
            }
        }
    });
    assert!(
        escaped.is_empty(),
        "mask enforcement violated: pruned coordinates regrew in {escaped:?}"
    );
    if structured || target == 0.0 {
        return;
    }
    let total = net.prunable_param_count();
    if total == 0 {
        return;
    }
    // each cycle rounds its global quota to a whole number of weights
    let slack = (cycles + 1) as f64 / total as f64 + 1e-9;
    let achieved = net.prune_ratio();
    assert!(
        (achieved - target).abs() <= slack,
        "prune-retrain audit: achieved prune ratio {achieved:.6} missed target \
         {target:.6} beyond rounding slack {slack:.6}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unstructured::WeightThresholding;
    use pv_nn::{models, Schedule};
    use pv_tensor::Rng;

    fn toy_task(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        // 4 well-separated gaussian clusters in 8-D
        let mut rng = Rng::new(seed);
        let mut xs = Vec::with_capacity(n * 8);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 4;
            ys.push(class);
            for d in 0..8 {
                let center = if d % 4 == class { 1.5 } else { 0.0 };
                xs.push(center + 0.3 * rng.normal() as f32);
            }
        }
        (Tensor::from_vec(vec![n, 8], xs), ys)
    }

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 8,
            batch_size: 32,
            schedule: Schedule::constant(0.1),
            momentum: 0.9,
            nesterov: false,
            weight_decay: 1e-4,
            seed: 1,
        }
    }

    #[test]
    fn per_cycle_ratio_composes_to_target() {
        let p = PruneRetrain::new(3, quick_cfg());
        let r = p.per_cycle_ratio(0.875);
        assert!((r - 0.5).abs() < 1e-9); // (1-0.5)^3 = 0.125
        let kept = (1.0 - r).powi(3);
        assert!((kept - 0.125).abs() < 1e-9);
    }

    #[test]
    fn prune_retrain_reaches_target_and_retains_accuracy() {
        let (x, y) = toy_task(256, 2);
        let mut parent = models::mlp("m", 8, &[32, 32], 4, false, 3);
        train(&mut parent, &x, &y, &quick_cfg(), None);
        let base_acc = parent.accuracy(&x, &y, 64);
        assert!(
            base_acc > 0.95,
            "parent should master the toy task, got {base_acc}"
        );

        let pipeline = PruneRetrain::new(2, quick_cfg());
        let outcome = pipeline.run(
            &parent,
            &WeightThresholding,
            0.8,
            &x,
            &y,
            &PruneContext::data_free(),
        );
        assert!(
            (outcome.prune_ratio - 0.8).abs() < 0.02,
            "ratio {}",
            outcome.prune_ratio
        );
        assert_eq!(outcome.history.len(), 2);
        assert!(outcome.history[0].prune_ratio < outcome.history[1].prune_ratio);
        let pruned = outcome.network;
        let acc = pruned.accuracy(&x, &y, 64);
        assert!(acc > 0.9, "pruned accuracy collapsed to {acc}");

        // parent untouched
        let mut parent = parent;
        assert_eq!(parent.prune_ratio(), 0.0);
    }

    #[test]
    fn pipeline_is_deterministic() {
        let (x, y) = toy_task(64, 5);
        let mut parent = models::mlp("m", 8, &[16], 4, false, 6);
        let cfg = TrainConfig {
            epochs: 2,
            ..quick_cfg()
        };
        train(&mut parent, &x, &y, &cfg, None);
        let pipeline = PruneRetrain::new(2, cfg);
        let ctx = PruneContext::data_free();
        let a = pipeline.run(&parent, &WeightThresholding, 0.5, &x, &y, &ctx);
        let b = pipeline.run(&parent, &WeightThresholding, 0.5, &x, &y, &ctx);
        assert_eq!(a.prune_ratio, b.prune_ratio);
        assert_eq!(
            a.network.accuracy(&x, &y, 64),
            b.network.accuracy(&x, &y, 64)
        );
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_cycles_panics() {
        PruneRetrain::new(0, quick_cfg());
    }

    #[test]
    fn fine_tune_uses_final_learning_rate() {
        let mut cfg = quick_cfg();
        cfg.schedule = Schedule {
            base_lr: 0.1,
            warmup_epochs: 0,
            decay: pv_nn::LrDecay::MultiStep {
                milestones: vec![2],
                gamma: 0.1,
            },
        };
        let pipeline = PruneRetrain::new(1, cfg).with_mode(RetrainMode::FineTune);
        let cycle_cfg = pipeline.cycle_config();
        // final LR of the rewound schedule is 0.01; fine-tuning holds it
        assert!((cycle_cfg.schedule.lr_at(0, cycle_cfg.epochs) - 0.01).abs() < 1e-12);
        assert!(
            (cycle_cfg
                .schedule
                .lr_at(cycle_cfg.epochs - 1, cycle_cfg.epochs)
                - 0.01)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn both_retrain_modes_run_and_hit_target() {
        let (x, y) = toy_task(128, 9);
        let mut parent = models::mlp("m", 8, &[24], 4, false, 10);
        let cfg = TrainConfig {
            epochs: 6,
            ..quick_cfg()
        };
        train(&mut parent, &x, &y, &cfg, None);
        let ctx = PruneContext::data_free();
        for mode in [RetrainMode::LrRewind, RetrainMode::FineTune] {
            let pipeline = PruneRetrain::new(2, cfg.clone()).with_mode(mode);
            let outcome = pipeline.run(&parent, &WeightThresholding, 0.7, &x, &y, &ctx);
            assert!((outcome.prune_ratio - 0.7).abs() < 0.02, "{mode:?}");
            assert!(
                outcome.network.accuracy(&x, &y, 64) > 0.6,
                "{mode:?} collapsed"
            );
        }
    }
}
