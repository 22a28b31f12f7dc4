//! Consistency tests between the greedy and one-shot BackSelect variants,
//! and heatmap semantics.

use pv_metrics::{
    apply_pixel_mask, backselect_order, confidence, confidence_heatmap, keep_top_fraction,
    SelectionMode,
};
use pv_nn::models;
use pv_tensor::{Rng, Tensor};

#[test]
fn greedy_and_oneshot_agree_on_linear_models() {
    // For a single-layer (linear) classifier the marginal effect of each
    // pixel is independent, so both variants must find the same most
    // informative pixel.
    let mut rng = Rng::new(1);
    for seed in 0..5u64 {
        let mut net = models::mlp("m", 12, &[12], 3, false, seed);
        // make the first layer the identity-ish so pixels act independently
        net.visit_prunable(&mut |l| {
            if l.unit_len() == 12 && l.out_units() == 12 {
                let mut w = Tensor::zeros(&[12, 12]);
                for i in 0..12 {
                    w.set2(i, i, 1.0);
                }
                l.weight_mut().value = w;
            }
        });
        let img = Tensor::rand_uniform(&[1, 12], 0.2, 1.0, &mut rng);
        let class = net.predict(&img)[0];
        let greedy = backselect_order(&net, &img, class, SelectionMode::Greedy);
        let oneshot = backselect_order(&net, &img, class, SelectionMode::OneShot);
        assert_eq!(
            greedy.last(),
            oneshot.last(),
            "seed {seed}: most-informative pixel disagrees"
        );
    }
}

#[test]
fn keeping_everything_preserves_confidence() {
    let net = models::mlp("m", 16, &[8], 3, false, 2);
    let mut rng = Rng::new(3);
    let img = Tensor::rand_uniform(&[1, 16], 0.0, 1.0, &mut rng);
    let class = net.predict(&img)[0];
    let base = confidence(&net, &img, class);
    let order = backselect_order(&net, &img, class, SelectionMode::OneShot);
    let keep = keep_top_fraction(&order, 1.0);
    let masked = apply_pixel_mask(&img, &keep);
    assert_eq!(masked, img);
    assert_eq!(confidence(&net, &masked, class), base);
}

#[test]
fn informative_subset_beats_anti_subset() {
    // keeping the top-25% informative pixels should preserve more
    // confidence than keeping the bottom-25%, on average over images
    let net = models::mlp("m", 16, &[16], 3, false, 5);
    let mut rng = Rng::new(6);
    let mut top_total = 0.0;
    let mut bottom_total = 0.0;
    for _ in 0..12 {
        let img = Tensor::rand_uniform(&[1, 16], 0.0, 1.0, &mut rng);
        let class = net.predict(&img)[0];
        let order = backselect_order(&net, &img, class, SelectionMode::Greedy);
        let keep_top = keep_top_fraction(&order, 0.25);
        let keep_bottom: Vec<bool> = {
            // invert: keep the first-removed quarter instead
            let k = keep_top.iter().filter(|&&b| b).count();
            let mut v = vec![false; order.len()];
            for &p in &order[..k] {
                v[p] = true;
            }
            v
        };
        top_total += f64::from(confidence(&net, &apply_pixel_mask(&img, &keep_top), class));
        bottom_total += f64::from(confidence(
            &net,
            &apply_pixel_mask(&img, &keep_bottom),
            class,
        ));
    }
    assert!(
        top_total > bottom_total,
        "informative pixels ({top_total}) not better than uninformative ({bottom_total})"
    );
}

#[test]
fn heatmap_rows_index_generators() {
    // two very different models: the row for model A must be computed from
    // A's subsets — verify by checking the diagonal is not constant across
    // a model swap
    let mut rng = Rng::new(7);
    let a = models::mlp("a", 9, &[12], 3, false, 10);
    let b = models::mlp("b", 9, &[12], 3, false, 20);
    let images = Tensor::rand_uniform(&[4, 9], 0.0, 1.0, &mut rng);
    let labels = vec![0, 1, 2, 0];
    let ms1 = vec![("a".to_string(), a.clone()), ("b".to_string(), b.clone())];
    let hm1 = confidence_heatmap(&ms1, &images, &labels, 0.3, SelectionMode::OneShot);
    let ms2 = vec![("b".to_string(), b), ("a".to_string(), a)];
    let hm2 = confidence_heatmap(&ms2, &images, &labels, 0.3, SelectionMode::OneShot);
    // entry (a-row, a-col) must be invariant to ordering
    assert!((hm1.matrix[0][0] - hm2.matrix[1][1]).abs() < 1e-6);
    assert!((hm1.matrix[0][1] - hm2.matrix[1][0]).abs() < 1e-6);
}
