//! Ablations of the PRUNERETRAIN design choices (Algorithm 1):
//!
//! 1. **retraining** — pruning without retraining collapses long before
//!    the pipeline's prune potential;
//! 2. **iterative vs one-shot** — reaching the same target sparsity in one
//!    cycle vs several (the paper follows Renda et al.'s iterative
//!    protocol);
//! 3. **informed vs random criteria** — WT/FT against the uniform-random
//!    baselines.

use pruneval::{eval_error_pct, inputs_for, preset, Distribution};
use pv_bench::{banner, scale, Stopwatch};
use pv_data::generate_split;
use pv_nn::train;
use pv_prune::{
    FilterThresholding, PruneContext, PruneMethod, PruneRetrain, RandomFilterPruning,
    RandomWeightPruning, WeightThresholding,
};

fn main() {
    banner(
        "Ablation — retraining, iterative schedule, and informed criteria",
        "each pipeline ingredient of Algorithm 1 is load-bearing",
    );
    let cfg = preset("resnet20", scale()).expect("known preset");
    let (train_set, test_set) = generate_split(&cfg.task, cfg.n_train, cfg.n_test, cfg.rep_seed(0));
    let mut parent = cfg
        .arch
        .build(&cfg.name, &cfg.task, cfg.rep_seed(0).wrapping_add(11));
    let x = inputs_for(&parent, &train_set);
    let y = train_set.labels().to_vec();
    let mut tc = cfg.train.clone();
    tc.seed = cfg.rep_seed(0);
    let mut sw = Stopwatch::new();
    train(&mut parent, &x, &y, &tc, None);
    sw.lap("parent training");
    let parent_err = eval_error_pct(&parent, &test_set);
    println!("parent test error: {parent_err:.2}%\n");

    let target = 0.85;
    let ctx = PruneContext::data_free();

    // 1) no retraining: one-shot prune, evaluate directly
    println!(
        "[1] retraining ablation at target PR {:.0}%:",
        100.0 * target
    );
    for (label, method) in [
        ("WT", &WeightThresholding as &dyn PruneMethod),
        ("FT", &FilterThresholding as &dyn PruneMethod),
    ] {
        let mut no_retrain = parent.clone();
        method.prune(&mut no_retrain, target, &ctx);
        let err_no = eval_error_pct(&no_retrain, &test_set);

        let pipeline = PruneRetrain::new(cfg.cycles, tc.clone());
        let outcome = pipeline.run(&parent, method, target, &x, &y, &ctx);
        let with_retrain = outcome.network;
        let err_with = eval_error_pct(&with_retrain, &test_set);
        println!(
            "  {label}: no-retrain error {err_no:6.2}%  vs  prune-retrain {err_with:6.2}%  \
             (retraining recovers {:.2} points)",
            err_no - err_with
        );
    }
    sw.lap("retraining ablation");

    // 2) one-shot vs iterative at the same target
    println!(
        "\n[2] iterative-schedule ablation (WT, target PR {:.0}%):",
        100.0 * target
    );
    for cycles in [1usize, 2, cfg.cycles] {
        let pipeline = PruneRetrain::new(cycles, tc.clone());
        let outcome = pipeline.run(&parent, &WeightThresholding, target, &x, &y, &ctx);
        let net = outcome.network;
        let err = eval_error_pct(&net, &test_set);
        println!(
            "  {cycles} cycle(s): achieved PR {:.1}%, error {err:6.2}%",
            100.0 * outcome.prune_ratio
        );
    }
    sw.lap("iterative ablation");

    // 3) informed criteria vs random baselines (with retraining)
    println!(
        "\n[3] criterion ablation at target PR {:.0}% (with retraining):",
        100.0 * target
    );
    let rand_wt = RandomWeightPruning::new(7);
    let rand_ft = RandomFilterPruning::new(7);
    let pairs: [(&str, &dyn PruneMethod, &dyn PruneMethod); 2] = [
        ("weights", &WeightThresholding, &rand_wt),
        ("filters", &FilterThresholding, &rand_ft),
    ];
    for (what, informed, random) in pairs {
        let pipeline = PruneRetrain::new(cfg.cycles, tc.clone());
        let informed_net = pipeline
            .run(&parent, informed, target, &x, &y, &ctx)
            .network;
        let random_net = pipeline.run(&parent, random, target, &x, &y, &ctx).network;
        let err_informed = eval_error_pct(&informed_net, &test_set);
        let err_random = eval_error_pct(&random_net, &test_set);
        // also compare under a shift
        let shifted = Distribution::Noise(0.2).realize(&cfg.task, &test_set, 3);
        let shift_informed = eval_error_pct(&informed_net, &shifted);
        let shift_random = eval_error_pct(&random_net, &shifted);
        println!(
            "  {what}: {} {err_informed:6.2}% vs {} {err_random:6.2}%  \
             (under noise: {shift_informed:6.2}% vs {shift_random:6.2}%)",
            informed.name(),
            random.name()
        );
    }
    sw.lap("criterion ablation");
}
