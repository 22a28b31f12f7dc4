//! Quickstart: train a network, prune it with the four methods of the
//! paper, and see how far "commensurate test accuracy" really carries —
//! the headline experiment of *Lost in Pruning* (MLSys 2021) in one file.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pruneval::{build_family, eval_error_pct, preset, Distribution, Scale};
use pv_data::Corruption;
use pv_prune::{FilterThresholding, PruneMethod, WeightThresholding};

fn main() {
    let scale = Scale::from_env();
    let cfg = preset("resnet20", scale).expect("resnet20 is a known preset");
    println!("== pruneval quickstart ==");
    println!(
        "model: {} ({:?}), task: {} classes @ {}x{}x{}",
        cfg.name, cfg.arch, cfg.task.classes, cfg.task.channels, cfg.task.height, cfg.task.width
    );
    println!(
        "train: {} samples, {} epochs; {} prune-retrain cycles\n",
        cfg.n_train, cfg.train.epochs, cfg.cycles
    );

    let methods: Vec<Box<dyn PruneMethod>> =
        vec![Box::new(WeightThresholding), Box::new(FilterThresholding)];

    for method in methods {
        let t0 = std::time::Instant::now();
        let mut family = build_family(&cfg, method.as_ref(), 0, None);
        let parent_err = eval_error_pct(&family.parent, &family.test_set.clone());
        println!(
            "[{}] parent test error: {parent_err:.2}%  (built in {:.1?})",
            method.name(),
            t0.elapsed()
        );

        // prune-accuracy curve on nominal data
        let nominal = family.curve_on(&Distribution::Nominal, 1);
        for (ratio, err) in &nominal.points {
            println!("  PR {ratio:5.3} -> test error {err:6.2}%");
        }

        // Definition 1: prune potential, nominal vs shifted
        let delta = cfg.delta_pct;
        let p_nom = nominal.prune_potential(delta);
        let p_noise = family.potential_on(&Distribution::Noise(0.15), delta, 1);
        let p_gauss =
            family.potential_on(&Distribution::Corruption(Corruption::Gauss, 3), delta, 1);
        println!("  prune potential (delta {delta}%):");
        println!("    nominal      {:5.1}%", 100.0 * p_nom);
        println!("    noise(0.15)  {:5.1}%", 100.0 * p_noise);
        println!("    Gauss(s3)    {:5.1}%", 100.0 * p_gauss);
        println!();
    }
    println!("The drop from the nominal to the shifted prune potential is the");
    println!("paper's core finding: test accuracy alone overestimates how much");
    println!("of a network you can safely remove.");
}
