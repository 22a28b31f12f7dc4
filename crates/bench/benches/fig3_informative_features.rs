//! Figure 3 (and Figures 12–15): confidence heatmaps on the 10% most
//! informative pixels, across the unpruned parent, pruned models of
//! increasing prune ratio, and a separately trained network.
//!
//! Pass `PV_GREEDY=1` to use the full greedy BackSelect instead of the
//! one-shot approximation (slower, closer to Carter et al.).

use pruneval::{inputs_for, preset};
use pv_bench::{banner, build_family_cached, scale, Stopwatch};
use pv_metrics::{confidence_heatmap, SelectionMode};
use pv_nn::Network;
use pv_prune::{FilterThresholding, PruneMethod, WeightThresholding};
use pv_tensor::Rng;

fn main() {
    banner(
        "Figure 3 — confidence on informative pixels (10% kept), WT and FT",
        "pixels informative to the parent suffice for its pruned children \
         but not for a separately trained network; at extreme prune ratios \
         the features stop transferring",
    );
    let mode = if std::env::var("PV_GREEDY").is_ok() {
        SelectionMode::Greedy
    } else {
        SelectionMode::OneShot
    };
    let cfg = preset("mlp", scale()).expect("known preset");
    let n_images = match scale() {
        pruneval::Scale::Smoke => 4,
        pruneval::Scale::Quick => 16,
        pruneval::Scale::Full => 64,
    };
    let methods: [&dyn PruneMethod; 2] = [&WeightThresholding, &FilterThresholding];
    let mut sw = Stopwatch::new();
    for method in methods {
        let family = build_family_cached(&cfg, method, 0, None);
        sw.lap(&format!("{} family", method.name()));

        let mut rng = Rng::new(99);
        let sample = family.test_set.subsample(n_images, &mut rng);
        let images = inputs_for(&family.parent, &sample);
        let labels = sample.labels().to_vec();

        let mut models: Vec<(String, Network)> =
            vec![("parent".to_string(), family.parent.clone())];
        for pm in &family.pruned {
            models.push((format!("PR{:.2}", pm.achieved_ratio), pm.network.clone()));
        }
        models.push(("separate".to_string(), family.separate.clone()));

        let hm = confidence_heatmap(&models, &images, &labels, 0.10, mode);
        println!(
            "\n  method {} ({mode:?}, {n_images} images):",
            method.name()
        );
        for line in hm.to_table().lines() {
            println!("  {line}");
        }
        sw.lap("heatmap");

        // the paper's headline check: parent features transfer to pruned
        // children better than to the separate network
        let parent_row = &hm.matrix[0];
        let n = parent_row.len();
        let to_first_pruned = parent_row[1];
        let to_separate = parent_row[n - 1];
        println!(
            "  check: parent features -> first pruned child {:.3} vs separate {:.3} ({})",
            to_first_pruned,
            to_separate,
            if to_first_pruned >= to_separate {
                "as in paper"
            } else {
                "MISMATCH"
            }
        );
    }
}
