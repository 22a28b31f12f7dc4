//! End-to-end integration tests: the full train → prune → evaluate
//! pipeline at smoke scale, checking the paper's qualitative orderings.

use pruneval::{build_family, preset, Distribution, Scale};
use pv_metrics::noise_similarity;
use pv_prune::WeightThresholding;
use pv_tensor::Rng;

fn smoke_family() -> pruneval::StudyFamily {
    // enough training to actually learn at smoke scale
    let mut cfg = preset("mlp", Scale::Smoke)
        .expect("known preset")
        .with_epochs(16);
    cfg.n_train = 512;
    cfg.cycles = 4;
    build_family(&cfg, &WeightThresholding, 0, None)
}

#[test]
fn parent_learns_and_pruned_models_track_targets() {
    let fam = smoke_family();
    let test = fam.test_set.clone();
    let parent_err = pruneval::eval_error_pct(&fam.parent, &test);
    assert!(parent_err < 30.0, "parent failed to learn ({parent_err}%)");
    // prune ratios increase monotonically and approach the schedule
    for pair in fam.pruned.windows(2) {
        assert!(pair[0].achieved_ratio < pair[1].achieved_ratio);
    }
    let last = fam.pruned.last().expect("cycles ran");
    assert!((last.achieved_ratio - last.target_ratio).abs() < 0.05);
    assert!(last.flop_reduction > 0.5);
}

#[test]
fn pruned_networks_are_functionally_closer_to_parent_than_separate() {
    // Section 4's headline: prediction agreement under noise is higher for
    // pruned children than for a separately trained network.
    let fam = smoke_family();
    let images = pruneval::inputs_for(&fam.parent, &fam.test_set.clone());
    let mut rng = Rng::new(3);
    let first_pruned = &fam.pruned[0].network;
    let sim_pruned = noise_similarity(&fam.parent, first_pruned, &images, 0.05, 3, &mut rng);
    let mut rng = Rng::new(3);
    let sim_separate = noise_similarity(&fam.parent, &fam.separate, &images, 0.05, 3, &mut rng);
    assert!(
        sim_pruned.matching_predictions >= sim_separate.matching_predictions,
        "pruned {} vs separate {}",
        sim_pruned.matching_predictions,
        sim_separate.matching_predictions
    );
    assert!(sim_pruned.softmax_l2 <= sim_separate.softmax_l2 + 0.05);
}

#[test]
fn heavy_shift_does_not_increase_prune_potential() {
    let mut fam = smoke_family();
    let delta = 2.0;
    let nominal = fam.potential_on(&Distribution::Nominal, delta, 1);
    let noisy = fam.potential_on(&Distribution::Noise(0.6), delta, 1);
    assert!(
        noisy <= nominal + 1e-9,
        "potential under heavy noise ({noisy}) exceeds nominal ({nominal})"
    );
}

#[test]
fn whole_pipeline_is_deterministic() {
    let a = smoke_family();
    let b = smoke_family();
    let test = a.test_set.clone();
    assert_eq!(
        pruneval::eval_error_pct(&a.parent, &test),
        pruneval::eval_error_pct(&b.parent, &test)
    );
    for (pa, pb) in a.pruned.iter().zip(&b.pruned) {
        assert_eq!(pa.achieved_ratio, pb.achieved_ratio);
        assert_eq!(
            pruneval::eval_error_pct(&pa.network, &test),
            pruneval::eval_error_pct(&pb.network, &test)
        );
    }
}

#[test]
fn curves_share_the_ratio_grid_across_distributions() {
    let mut fam = smoke_family();
    let nominal = fam.curve_on(&Distribution::Nominal, 1);
    let shifted = fam.curve_on(&Distribution::Noise(0.2), 1);
    assert_eq!(nominal.points.len(), shifted.points.len());
    for (a, b) in nominal.points.iter().zip(&shifted.points) {
        assert!((a.0 - b.0).abs() < 1e-12);
    }
    // excess-error series is computable on that grid
    let series = fam.excess_error_series(&[Distribution::Noise(0.2)], 1);
    assert_eq!(series.len(), nominal.points.len());
}
