//! Criterion micro-benchmarks of the core primitives: matmul, convolution,
//! the four pruning methods, BackSelect steps, and corruption throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use pv_data::{generate, Corruption, TaskSpec};
use pv_metrics::{backselect_order, SelectionMode};
use pv_nn::{cross_entropy, models, Mode, Network};
use pv_prune::{all_methods, PruneContext};
use pv_tensor::{conv2d_forward, matmul, ConvGeometry, Rng, Tensor};

fn bench_tensor_ops(c: &mut Criterion) {
    let mut rng = Rng::new(1);
    let a = Tensor::rand_uniform(&[64, 128], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(&[128, 64], -1.0, 1.0, &mut rng);
    c.bench_function("matmul 64x128x64", |bencher| {
        bencher.iter(|| std::hint::black_box(matmul(&a, &b)))
    });

    let x = Tensor::rand_uniform(&[8, 4, 16, 16], -1.0, 1.0, &mut rng);
    let w = Tensor::rand_uniform(&[8, 4 * 9], -1.0, 1.0, &mut rng);
    let bias = Tensor::zeros(&[8]);
    let g = ConvGeometry::new(3, 1, 1);
    c.bench_function("conv2d 8x4x16x16 -> 8ch", |bencher| {
        bencher.iter(|| std::hint::black_box(conv2d_forward(&x, &w, &bias, g)))
    });
}

fn bench_training_step(c: &mut Criterion) {
    let mut net = models::mini_resnet("r", (1, 16, 16), 10, 4, 1, 1);
    let mut rng = Rng::new(2);
    let x = Tensor::rand_uniform(&[32, 1, 16, 16], 0.0, 1.0, &mut rng);
    let y: Vec<usize> = (0..32).map(|i| i % 10).collect();
    c.bench_function("resnet fwd+bwd batch32", |bencher| {
        bencher.iter(|| {
            net.zero_grads();
            let logits = net.forward(&x, Mode::Train);
            let out = cross_entropy(&logits, &y);
            std::hint::black_box(net.backward(&out.grad_logits));
        })
    });
}

fn bench_prune_methods(c: &mut Criterion) {
    let mut rng = Rng::new(3);
    let batch = Tensor::rand_uniform(&[16, 256], 0.0, 1.0, &mut rng);
    for method in all_methods() {
        let make_net = || -> Network { models::mlp("m", 256, &[128, 64], 10, false, 7) };
        let ctx = if method.is_data_informed() {
            PruneContext::with_batch(batch.clone())
        } else {
            PruneContext::data_free()
        };
        c.bench_function(
            &format!("prune {} mlp 42k params", method.name()),
            |bencher| {
                bencher.iter_with_setup(make_net, |mut net| {
                    method.prune(&mut net, 0.5, &ctx);
                    std::hint::black_box(net.prune_ratio());
                })
            },
        );
    }
}

fn bench_backselect(c: &mut Criterion) {
    let net = models::mlp("m", 64, &[32], 4, false, 5);
    let mut rng = Rng::new(6);
    let img = Tensor::rand_uniform(&[1, 64], 0.0, 1.0, &mut rng);
    c.bench_function("backselect one-shot 64px", |bencher| {
        bencher
            .iter(|| std::hint::black_box(backselect_order(&net, &img, 0, SelectionMode::OneShot)))
    });
}

fn bench_corruptions(c: &mut Criterion) {
    let ds = generate(&TaskSpec::cifar_like(), 64, 1);
    let images = ds.images().clone();
    for corr in [
        Corruption::Gauss,
        Corruption::Defocus,
        Corruption::Elastic,
        Corruption::Jpeg,
    ] {
        c.bench_function(
            &format!("corrupt {} batch64 16x16", corr.name()),
            |bencher| {
                bencher.iter(|| {
                    let mut rng = Rng::new(2);
                    std::hint::black_box(corr.apply_batch(&images, 3, &mut rng))
                })
            },
        );
    }
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_tensor_ops, bench_training_step, bench_prune_methods, bench_backselect, bench_corruptions
}
criterion_main!(micro);
