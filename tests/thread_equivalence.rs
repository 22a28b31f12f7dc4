//! End-to-end serial-vs-parallel equivalence: forward passes, accuracy,
//! function distance, and prune-accuracy curves must be **bitwise
//! identical** at `PV_NUM_THREADS=1` and any higher thread count.

use pruneval::experiment::build_family;
use pruneval::{ArchSpec, Distribution, ExperimentConfig};
use pv_data::TaskSpec;
use pv_metrics::{confidence_heatmap, noise_similarity, SelectionMode};
use pv_nn::{models, Mode, Schedule, TrainConfig};
use pv_prune::WeightThresholding;
use pv_tensor::par::set_thread_override;
use pv_tensor::{Rng, Tensor};
use std::sync::Mutex;

/// Serializes tests in this binary around the process-wide thread override.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn assert_thread_count_invariant<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    set_thread_override(Some(1));
    let serial = f();
    for threads in [2, 4] {
        set_thread_override(Some(threads));
        let parallel = f();
        assert_eq!(serial, parallel, "divergence at {threads} threads");
    }
    set_thread_override(None);
}

fn quick_cfg() -> ExperimentConfig {
    ExperimentConfig {
        name: "par-eq".into(),
        arch: ArchSpec::Mlp {
            hidden: vec![16],
            batch_norm: false,
        },
        task: TaskSpec::tiny(),
        n_train: 64,
        n_test: 48,
        train: TrainConfig {
            epochs: 2,
            batch_size: 16,
            schedule: Schedule::constant(0.1),
            momentum: 0.9,
            nesterov: false,
            weight_decay: 1e-4,
            seed: 0,
        },
        cycles: 2,
        per_cycle_ratio: 0.5,
        repetitions: 1,
        delta_pct: 0.5,
        seed: 21,
    }
}

#[test]
fn network_forward_and_accuracy_are_thread_count_invariant() {
    let mut rng = Rng::new(31);
    let net = models::mini_resnet("r", (1, 12, 12), 5, 3, 1, 2);
    let x = Tensor::rand_uniform(&[9, 1, 12, 12], 0.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..9).map(|i| i % 5).collect();

    assert_thread_count_invariant(|| {
        let mut n = net.clone();
        n.forward(&x, Mode::Eval)
    });
    // batch of 2 forces the multi-batch parallel path
    assert_thread_count_invariant(|| net.accuracy(&x, &labels, 2).to_bits());
}

#[test]
fn training_is_thread_count_invariant() {
    // Gradients flow through the parallel matmul/conv backward kernels;
    // identically seeded training must stay bit-for-bit reproducible.
    assert_thread_count_invariant(|| {
        let cfg = quick_cfg();
        let mut fam = build_family(&cfg, &WeightThresholding, 0, None);
        let x = pruneval::experiment::inputs_for(&fam.parent, &fam.test_set);
        fam.parent.forward(&x, Mode::Eval)
    });
}

#[test]
fn noise_similarity_is_thread_count_invariant() {
    let a = models::mlp("a", 12, &[16], 4, false, 3);
    let b = models::mlp("b", 12, &[16], 4, false, 91);
    let mut rng = Rng::new(17);
    let images = Tensor::rand_uniform(&[24, 12], 0.0, 1.0, &mut rng);
    assert_thread_count_invariant(|| {
        let sim = noise_similarity(&a, &b, &images, 0.05, 4, &mut Rng::new(5));
        (sim.matching_predictions.to_bits(), sim.softmax_l2.to_bits())
    });
}

#[test]
fn confidence_heatmap_is_thread_count_invariant() {
    let base = models::mlp("m", 16, &[12], 3, false, 7);
    let mut rng = Rng::new(23);
    let images = Tensor::rand_uniform(&[5, 16], 0.0, 1.0, &mut rng);
    let labels = vec![0, 1, 2, 0, 1];
    let models_vec = vec![("a".to_string(), base.clone()), ("b".to_string(), base)];
    assert_thread_count_invariant(|| {
        let hm = confidence_heatmap(&models_vec, &images, &labels, 0.25, SelectionMode::OneShot);
        hm.matrix
            .iter()
            .map(|row| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            .collect::<Vec<_>>()
    });
}

#[test]
fn prune_curves_are_thread_count_invariant() {
    // Build the family once (training invariance is covered above), then
    // sweep the evaluation grid under different thread counts.
    let cfg = quick_cfg();
    let fam = build_family(&cfg, &WeightThresholding, 0, None);
    let dists = [
        Distribution::Nominal,
        Distribution::Noise(0.1),
        Distribution::AltTestSet,
    ];
    assert_thread_count_invariant(|| {
        fam.curves_on(&dists, 9)
            .into_iter()
            .map(|c| {
                (
                    c.unpruned_error_pct.to_bits(),
                    c.points
                        .iter()
                        .map(|(r, e)| (r.to_bits(), e.to_bits()))
                        .collect::<Vec<_>>(),
                )
            })
            .collect::<Vec<_>>()
    });
}
