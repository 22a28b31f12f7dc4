//! Figure 4 (and Figures 16–27): functional similarity of pruned networks
//! to their unpruned parent under ℓ∞ input noise — matching predictions
//! and softmax ℓ₂ difference — compared against a separately trained
//! network.

use pruneval::{inputs_for, preset};
use pv_bench::{banner, build_family_cached, scale, Stopwatch};
use pv_data::noise_levels;
use pv_metrics::similarity_sweep;
use pv_nn::Network;
use pv_prune::{FilterThresholding, PruneMethod, Sipp, WeightThresholding};

fn main() {
    banner(
        "Figure 4 — noise similarity of pruned networks to their parent",
        "pruned networks match the parent's predictions far more often than \
         a separately trained network; similarity decreases with prune ratio",
    );
    let cfg = preset("mlp", scale()).expect("known preset");
    let repeats = match scale() {
        pruneval::Scale::Smoke => 2,
        pruneval::Scale::Quick => 10,
        pruneval::Scale::Full => 40,
    };
    let methods: [&dyn PruneMethod; 3] = [&WeightThresholding, &Sipp, &FilterThresholding];
    let mut sw = Stopwatch::new();
    for method in methods {
        let family = build_family_cached(&cfg, method, 0, None);
        sw.lap(&format!("{} family", method.name()));
        let images = inputs_for(&family.parent, &family.test_set);

        let mut others: Vec<(String, Network)> = family
            .pruned
            .iter()
            .map(|pm| (format!("PR{:.2}", pm.achieved_ratio), pm.network.clone()))
            .collect();
        others.push(("separate".to_string(), family.separate.clone()));

        let sweeps = similarity_sweep(
            &family.parent,
            &others,
            &images,
            &noise_levels(),
            repeats,
            31,
        );
        println!(
            "\n  method {} — fraction of matching predictions:",
            method.name()
        );
        print!("  {:>10}", "noise");
        for s in &sweeps {
            print!(" {:>9}", s.label);
        }
        println!();
        for (i, &eps) in noise_levels().iter().enumerate() {
            print!("  {eps:>10.2}");
            for s in &sweeps {
                print!(" {:>9.3}", s.points[i].1.matching_predictions);
            }
            println!();
        }
        println!("  method {} — softmax L2 difference:", method.name());
        for (i, &eps) in noise_levels().iter().enumerate() {
            print!("  {eps:>10.2}");
            for s in &sweeps {
                print!(" {:>9.3}", s.points[i].1.softmax_l2);
            }
            println!();
        }
        sw.lap("similarity sweep");

        // paper check: pruned models *within the commensurate range* are
        // more similar to the parent than the separate net (Figure 4 shows
        // correlation decreasing as we prune more, so the extreme tail is
        // excluded, matching the paper's "pruned beyond commensurate
        // accuracy" caveat)
        let sep = sweeps.last().expect("separate net present");
        let commensurate = &sweeps[..(sweeps.len() - 1).min(2)];
        let mut ok = true;
        for s in commensurate {
            for (p, sp) in s.points.iter().zip(&sep.points) {
                if p.1.matching_predictions + 5e-3 < sp.1.matching_predictions {
                    ok = false;
                }
            }
        }
        println!("  check: commensurately pruned models >= separate in matching predictions: {ok}");
    }
}
