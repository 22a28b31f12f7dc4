//! Whole-network backend equivalence: a mini_resnet forward pass must be
//! **bitwise identical** under every registered kernel backend.
//!
//! The per-kernel conformance suite (pv-tensor's
//! `tests/backend_conformance.rs`) proves each GEMM/conv primitive
//! matches the scalar oracle; this test closes the loop at the network
//! level, where dozens of kernel calls, batch-norm folds, and residual
//! adds compose. Any backend that drifts by one ULP anywhere in the
//! chain fails `assert_eq!` on the raw `f32` storage.
//!
//! The same file holds `Network::infer` to the eval-mode forward pass,
//! bit for bit, under every backend and every serving configuration:
//! dense, WT-pruned with CSR sidecars, and FT-pruned then compacted.

use pv_nn::{models, Mode, Network, ParamKind};
use pv_tensor::{all_backends, with_backend, Rng, Tensor, DEFAULT_MAX_DENSITY, SCALAR};

/// Forward the same freshly seeded network under `backend` and return the
/// logits. Each call rebuilds the network so running-stat mutation in one
/// pass cannot leak into the next.
fn logits_under(backend: &'static dyn pv_tensor::Backend, mode: Mode) -> Tensor {
    let mut net = models::mini_resnet("be", (3, 16, 16), 10, 8, 2, 2);
    let x = Tensor::rand_uniform(&[4, 3, 16, 16], -1.0, 1.0, &mut Rng::new(33));
    with_backend(backend, || net.forward(&x, mode))
}

#[test]
fn mini_resnet_forward_is_bitwise_identical_across_backends() {
    for mode in [Mode::Eval, Mode::Train] {
        let want = logits_under(&SCALAR, mode);
        assert!(want.data().iter().all(|v| v.is_finite()));
        for be in all_backends() {
            let got = logits_under(*be, mode);
            assert_eq!(
                got,
                want,
                "mini_resnet {mode:?} forward diverged between the '{}' backend and the scalar oracle",
                be.name()
            );
        }
    }
}

#[test]
fn training_step_is_bitwise_identical_across_backends() {
    // one forward/backward/update cycle: gradients flow through each
    // backend's conv2d_backward and GEMM transposes
    let step = |backend: &'static dyn pv_tensor::Backend| -> Vec<f32> {
        let mut net = models::mini_resnet("be", (3, 16, 16), 10, 8, 2, 2);
        let x = Tensor::rand_uniform(&[4, 3, 16, 16], -1.0, 1.0, &mut Rng::new(57));
        let y = vec![0usize, 3, 7, 9];
        with_backend(backend, || {
            let logits = net.forward(&x, Mode::Train);
            let out = pv_nn::cross_entropy(&logits, &y);
            net.backward(&out.grad_logits);
            pv_nn::sgd_step(&mut net, 0.05, 0.9, false, 5e-4);
            net.forward(&x, Mode::Eval).data().to_vec()
        })
    };
    let want = step(&SCALAR);
    for be in all_backends() {
        let got = step(*be);
        assert!(
            got.iter()
                .zip(&want)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "post-step logits diverged on the '{}' backend",
            be.name()
        );
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A batch-norm MLP whose running statistics have left their defaults.
fn warmed_mlp(seed: u64) -> Network {
    let mut net = models::mlp("mlp", 32, &[64, 48], 10, true, seed);
    let x = Tensor::rand_uniform(&[16, 32], -1.0, 1.0, &mut Rng::new(seed + 1));
    net.forward(&x, Mode::Train);
    net
}

/// 95% of the weights masked by global magnitude, as WT prunes, with CSR
/// sidecars built for every weight sparse enough for the CSR kernels.
fn wt_pruned_with_csr() -> Network {
    let mut net = warmed_mlp(3);
    let mut magnitudes = Vec::new();
    net.visit_params(&mut |p| {
        if p.kind == ParamKind::Weight {
            magnitudes.extend(p.value.data().iter().map(|v| v.abs()));
        }
    });
    magnitudes.sort_by(f32::total_cmp);
    let threshold = magnitudes[magnitudes.len() * 95 / 100];
    net.visit_params(&mut |p| {
        if p.kind == ParamKind::Weight {
            p.set_mask(p.value.map(|v| f32::from(v.abs() >= threshold)));
        }
    });
    assert!(
        net.prepare_sparse(DEFAULT_MAX_DENSITY) > 0,
        "no CSR sidecar"
    );
    net
}

/// Half of every hidden layer's neurons removed by smallest weight-row
/// norm, as FT prunes, then physically compacted away.
fn ft_pruned_compacted() -> Network {
    let mut net = warmed_mlp(4);
    net.visit_prunable(&mut |l| {
        if l.is_classifier() {
            return;
        }
        let (units, len) = (l.out_units(), l.unit_len());
        let mut order: Vec<usize> = (0..units).collect();
        let w = l.weight().value.data();
        let norm = |r: usize| {
            w[r * len..(r + 1) * len]
                .iter()
                .map(|v| v.abs())
                .sum::<f32>()
        };
        order.sort_by(|&a, &b| norm(a).total_cmp(&norm(b)));
        let mut keep = vec![1.0f32; units];
        for &r in &order[..units / 2] {
            keep[r] = 0.0;
        }
        l.weight_mut()
            .set_mask(Tensor::from_fn(&[units, len], |i| keep[i / len]));
        let row = Tensor::from_vec(vec![units], keep);
        if let Some(b) = l.bias_mut() {
            b.set_mask(row.clone());
        }
        for p in l.coupled_mut() {
            p.set_mask(row.clone());
        }
    });
    net.compact().expect("row-structured masks compact")
}

#[test]
fn infer_is_bitwise_eval_forward_under_every_backend() {
    let mut resnet = models::mini_resnet("be", (3, 16, 16), 10, 8, 2, 2);
    let warm = Tensor::rand_uniform(&[4, 3, 16, 16], -1.0, 1.0, &mut Rng::new(71));
    resnet.forward(&warm, Mode::Train);
    let nets = [
        ("mini_resnet", resnet),
        ("WT 95% + CSR", wt_pruned_with_csr()),
        ("FT + compact", ft_pruned_compacted()),
    ];
    for (name, net) in nets {
        let mut shape = vec![5];
        shape.extend_from_slice(net.input_shape());
        let x = Tensor::rand_uniform(&shape, -1.0, 1.0, &mut Rng::new(72));
        for be in all_backends() {
            let mut fwd = net.clone();
            let (inferred, forward) =
                with_backend(*be, || (net.infer(&x), fwd.forward(&x, Mode::Eval)));
            assert_eq!(
                bits(&inferred),
                bits(&forward),
                "{name}: infer differs from forward(Eval) on the '{}' backend",
                be.name()
            );
        }
    }
}
