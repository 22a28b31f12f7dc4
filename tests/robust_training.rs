//! Integration tests of the Section 6 robust-training pipeline.

use pruneval::robust::{split_distributions, PAPER_SEVERITY};
use pruneval::{build_family, preset, RobustTraining, Scale};
use pv_data::CorruptionSplit;
use pv_prune::WeightThresholding;

fn smoke_cfg() -> pruneval::ExperimentConfig {
    let mut cfg = preset("mlp", Scale::Smoke)
        .expect("known preset")
        .with_epochs(12);
    cfg.n_train = 384;
    cfg.cycles = 3;
    cfg
}

#[test]
fn robust_family_builds_and_differs_from_nominal() {
    let cfg = smoke_cfg();
    let split = CorruptionSplit::paper_default();
    let robust = RobustTraining {
        split: &split,
        severity: PAPER_SEVERITY,
    };

    let nominal = build_family(&cfg, &WeightThresholding, 0, None);
    let robustly = build_family(&cfg, &WeightThresholding, 0, Some(&robust));

    // the augmentation must actually change the learned function
    let test = nominal.test_set.clone();
    let e_nom = pruneval::eval_error_pct(&nominal.parent, &test);
    let e_rob = pruneval::eval_error_pct(&robustly.parent, &test);
    assert_ne!(e_nom, e_rob, "augmentation had no effect at all");
    // and both still learn the task
    assert!(e_nom < 35.0, "nominal parent error {e_nom}%");
    assert!(e_rob < 45.0, "robust parent error {e_rob}%");
}

#[test]
fn robust_training_helps_on_trained_corruptions() {
    let mut cfg = smoke_cfg().with_epochs(24);
    cfg.n_train = 512;
    let split = CorruptionSplit::paper_default();
    let robust = RobustTraining {
        split: &split,
        severity: PAPER_SEVERITY,
    };
    let (train_dists, _) = split_distributions(&split);

    let nominal = build_family(&cfg, &WeightThresholding, 0, None);
    let robustly = build_family(&cfg, &WeightThresholding, 0, Some(&robust));

    // averaged over the corruption distributions seen in training, the
    // robust parent should do at least as well as the nominal parent
    let corr_dists = &train_dists[1..]; // skip Nominal
    let mut nom_err = 0.0;
    let mut rob_err = 0.0;
    for d in corr_dists {
        let ds = d.realize(&cfg.task, &nominal.test_set, 5);
        nom_err += pruneval::eval_error_pct(&nominal.parent, &ds);
        rob_err += pruneval::eval_error_pct(&robustly.parent, &ds);
    }
    // allow a small tolerance: at this scale augmentation halves the
    // effective clean-sample count (sum over 8 corruption distributions)
    assert!(
        rob_err <= nom_err + 4.0,
        "robust parent worse on trained corruptions: {rob_err} vs {nom_err}"
    );
}

#[test]
fn split_distributions_are_exclusive() {
    let split = CorruptionSplit::paper_default();
    let (train, test) = split_distributions(&split);
    use pruneval::Distribution;
    let names = |v: &[Distribution]| -> Vec<String> { v.iter().map(|d| d.label()).collect() };
    let tn = names(&train);
    let te = names(&test);
    for n in &tn {
        assert!(!te.contains(n), "distribution {n} on both sides");
    }
}
