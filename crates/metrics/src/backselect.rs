//! BackSelect (Carter et al., 2019): greedy backward selection of
//! informative pixels, and the cross-model confidence heatmaps of the
//! paper's Figure 3 / Figures 12–15.

use pv_nn::Network;
use pv_tensor::par;
use pv_tensor::Tensor;

/// How the pixel importance ordering is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionMode {
    /// The full greedy procedure of Carter et al.: repeatedly mask the
    /// pixel whose removal reduces the target-class confidence least.
    /// Cost: O(P²) single-image forward passes (batched per step).
    Greedy,
    /// A single-pass approximation: rank pixels by the confidence drop of
    /// masking each one alone. Cost: O(P) forwards.
    OneShot,
}

/// Number of maskable pixels of a per-sample shape (spatial positions for
/// images, coordinates for flat inputs).
fn pixel_count(sample_shape: &[usize]) -> usize {
    match sample_shape.len() {
        3 => sample_shape[1] * sample_shape[2],
        1 => sample_shape[0],
        // pv-analyze: allow(lib-panic) -- documented # Panics contract on input rank
        n => panic!("backselect supports [C,H,W] or [D] inputs, got rank {n}"),
    }
}

/// Zeroes pixel `p` (all channels) of every sample in a batch.
fn mask_pixel(batch: &mut Tensor, p: usize) {
    let shape = batch.shape().to_vec();
    match shape.len() {
        4 => {
            let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
            let plane = h * w;
            let d = batch.data_mut();
            for ni in 0..n {
                for ci in 0..c {
                    d[(ni * c + ci) * plane + p] = 0.0;
                }
            }
        }
        2 => {
            let (n, dim) = (shape[0], shape[1]);
            let d = batch.data_mut();
            for ni in 0..n {
                d[ni * dim + p] = 0.0;
            }
        }
        // pv-analyze: allow(lib-panic) -- documented # Panics contract on batch rank
        r => panic!("mask_pixel expects a batch of rank 2 or 4, got {r}"),
    }
}

/// Applies a pixel mask (1 = keep) to one image (`[1, ...]`).
pub fn apply_pixel_mask(image: &Tensor, keep: &[bool]) -> Tensor {
    let mut out = image.clone();
    for (p, &k) in keep.iter().enumerate() {
        if !k {
            mask_pixel(&mut out, p);
        }
    }
    out
}

/// Softmax confidence of `net` toward `class` on a single image (`[1, ...]`).
pub fn confidence(net: &Network, image: &Tensor, class: usize) -> f32 {
    let probs = net.infer(image).softmax_rows();
    probs.at2(0, class)
}

/// Computes the BackSelect pixel ordering for one image: pixels in the
/// order they were *removed*, least informative first. The suffix of the
/// returned order therefore holds the most informative pixels.
///
/// `class` is the class whose confidence drives the selection (the paper
/// uses the generating model's predicted class).
///
/// # Panics
///
/// Panics if `image` is not a single sample (`[1, ...]`).
pub fn backselect_order(
    net: &Network,
    image: &Tensor,
    class: usize,
    mode: SelectionMode,
) -> Vec<usize> {
    assert_eq!(image.dim(0), 1, "backselect operates on a single image");
    let n_pixels = pixel_count(&image.shape()[1..]);
    match mode {
        SelectionMode::OneShot => {
            // one batched forward: row p = image with pixel p masked
            let mut batch = Tensor::concat_first_axis(&vec![image; n_pixels]);
            let inner: usize = image.shape()[1..].iter().product();
            // mask pixel p in row p only
            {
                let shape = batch.shape().to_vec();
                let d = batch.data_mut();
                for p in 0..n_pixels {
                    match shape.len() {
                        4 => {
                            let (c, h, w) = (shape[1], shape[2], shape[3]);
                            let plane = h * w;
                            for ci in 0..c {
                                d[p * inner + ci * plane + p] = 0.0;
                            }
                        }
                        _ => d[p * inner + p] = 0.0,
                    }
                }
            }
            let probs = net.infer(&batch).softmax_rows();
            let mut scored: Vec<(usize, f32)> =
                (0..n_pixels).map(|p| (p, probs.at2(p, class))).collect();
            // high remaining confidence after masking = uninformative pixel;
            // remove those first
            // pv-analyze: allow(lib-panic) -- confidences come from softmax outputs, which are finite
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("NaN confidence"));
            scored.into_iter().map(|(p, _)| p).collect()
        }
        SelectionMode::Greedy => {
            let mut keep = vec![true; n_pixels];
            let mut current = image.clone();
            let mut order = Vec::with_capacity(n_pixels);
            for _step in 0..n_pixels {
                let remaining: Vec<usize> = (0..n_pixels).filter(|&p| keep[p]).collect();
                if remaining.len() == 1 {
                    order.push(remaining[0]);
                    break;
                }
                // batch: candidate r = current image with pixel r also masked
                let mut batch = Tensor::concat_first_axis(&vec![&current; remaining.len()]);
                let inner: usize = image.shape()[1..].iter().product();
                {
                    let shape = batch.shape().to_vec();
                    let d = batch.data_mut();
                    for (row, &p) in remaining.iter().enumerate() {
                        match shape.len() {
                            4 => {
                                let (c, h, w) = (shape[1], shape[2], shape[3]);
                                let plane = h * w;
                                for ci in 0..c {
                                    d[row * inner + ci * plane + p] = 0.0;
                                }
                            }
                            _ => d[row * inner + p] = 0.0,
                        }
                    }
                }
                let probs = net.infer(&batch).softmax_rows();
                let mut best_row = 0;
                for r in 1..remaining.len() {
                    if probs.at2(r, class) > probs.at2(best_row, class) {
                        best_row = r;
                    }
                }
                let victim = remaining[best_row];
                keep[victim] = false;
                mask_pixel(&mut current, victim);
                order.push(victim);
            }
            order
        }
    }
}

/// Keep-mask retaining the `frac` most informative pixels of an ordering.
///
/// # Panics
///
/// Panics if `frac` is outside `[0, 1]`.
pub fn keep_top_fraction(order: &[usize], frac: f64) -> Vec<bool> {
    assert!((0.0..=1.0).contains(&frac), "fraction must be in [0, 1]");
    let n = order.len();
    let k = ((frac * n as f64).round() as usize).min(n);
    let mut keep = vec![false; n];
    for &p in &order[n - k..] {
        keep[p] = true;
    }
    keep
}

/// A cross-model confidence heatmap (Figure 3): entry `[i][j]` is the mean
/// confidence of model `j` toward the *true* class when shown only the
/// pixels informative to model `i`.
#[derive(Debug, Clone)]
pub struct ConfidenceHeatmap {
    /// Model labels, indexing both axes (rows = subset generator,
    /// columns = evaluator).
    pub labels: Vec<String>,
    /// Row-major confidence matrix.
    pub matrix: Vec<Vec<f64>>,
}

impl ConfidenceHeatmap {
    /// Renders the heatmap as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let width = self
            .labels
            .iter()
            .map(|l| l.len())
            .max()
            .unwrap_or(8)
            .max(6);
        out.push_str(&format!("{:>width$} |", "gen\\eval", width = width));
        for l in &self.labels {
            out.push_str(&format!(" {l:>width$}", width = width));
        }
        out.push('\n');
        for (i, l) in self.labels.iter().enumerate() {
            out.push_str(&format!("{l:>width$} |", width = width));
            for v in &self.matrix[i] {
                out.push_str(&format!(" {v:>width$.3}", width = width));
            }
            out.push('\n');
        }
        out
    }
}

/// Builds the Figure 3 heatmap: for each generator model, compute
/// informative-pixel subsets (toward its own predicted class) on each
/// image, then evaluate every model's confidence toward the true class on
/// the masked images.
///
/// `keep_frac` is the fraction of pixels retained (the paper keeps 10%).
///
/// Images are processed in parallel, every worker borrowing the whole
/// model set; per-image confidence contributions are folded into the
/// matrix in image order, so the result is bitwise identical for any
/// thread count.
pub fn confidence_heatmap(
    models: &[(String, Network)],
    images: &Tensor,
    true_labels: &[usize],
    keep_frac: f64,
    mode: SelectionMode,
) -> ConfidenceHeatmap {
    assert_eq!(images.dim(0), true_labels.len(), "label count mismatch");
    let n_models = models.len();
    let n_images = images.dim(0);
    let contributions: Vec<Vec<f64>> = par::parallel_map(n_images, |img_idx| {
        let image = images.slice_first_axis(img_idx, img_idx + 1);
        let true_class = true_labels[img_idx];
        let mut contrib = vec![0.0f64; n_models * n_models];
        // generator i picks its informative subset
        for (i, (_, gen)) in models.iter().enumerate() {
            let predicted = gen.predict(&image)[0];
            let order = backselect_order(gen, &image, predicted, mode);
            let masked = apply_pixel_mask(&image, &keep_top_fraction(&order, keep_frac));
            // all models evaluate the masked image
            for (j, (_, eval)) in models.iter().enumerate() {
                contrib[i * n_models + j] = f64::from(confidence(eval, &masked, true_class));
            }
        }
        contrib
    });
    let mut matrix = vec![vec![0.0f64; n_models]; n_models];
    for contrib in contributions {
        for i in 0..n_models {
            for j in 0..n_models {
                matrix[i][j] += contrib[i * n_models + j];
            }
        }
    }
    for row in &mut matrix {
        for v in row.iter_mut() {
            *v /= n_images as f64;
        }
    }
    ConfidenceHeatmap {
        labels: models.iter().map(|(l, _)| l.clone()).collect(),
        matrix,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_nn::models;
    use pv_tensor::Rng;

    #[test]
    fn order_is_a_permutation() {
        let net = models::mlp("m", 16, &[16], 3, false, 1);
        let mut rng = Rng::new(2);
        let img = Tensor::rand_uniform(&[1, 16], 0.0, 1.0, &mut rng);
        for mode in [SelectionMode::OneShot, SelectionMode::Greedy] {
            let order = backselect_order(&net, &img, 0, mode);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..16).collect::<Vec<_>>(), "{mode:?}");
        }
    }

    #[test]
    fn greedy_keeps_the_decisive_pixel_last() {
        // A network that only reads input coordinate 3: that pixel must be
        // the most informative (= last removed).
        let mut net = models::mlp("m", 8, &[4], 2, false, 3);
        net.visit_prunable(&mut |l| {
            let cols = l.unit_len();
            let w = l.weight_mut();
            if cols == 8 {
                let mut v = Tensor::zeros(&[4, 8]);
                for r in 0..4 {
                    v.set2(r, 3, if r % 2 == 0 { 2.0 } else { -2.0 });
                }
                w.value = v;
            }
        });
        let img = Tensor::from_vec(vec![1, 8], vec![0.5; 8]);
        let class = net.predict(&img)[0];
        let order = backselect_order(&net, &img, class, SelectionMode::Greedy);
        assert_eq!(*order.last().expect("nonempty"), 3, "order {order:?}");
        let one_shot = backselect_order(&net, &img, class, SelectionMode::OneShot);
        assert_eq!(*one_shot.last().expect("nonempty"), 3);
    }

    #[test]
    fn keep_top_fraction_masks_correct_count() {
        let order: Vec<usize> = (0..10).collect();
        let keep = keep_top_fraction(&order, 0.3);
        assert_eq!(keep.iter().filter(|&&k| k).count(), 3);
        // the last three removed are kept
        assert!(keep[7] && keep[8] && keep[9]);
        assert!(!keep[0]);
    }

    #[test]
    fn works_on_conv_images() {
        let net = models::mini_resnet("r", (1, 8, 8), 3, 2, 1, 4);
        let mut rng = Rng::new(5);
        let img = Tensor::rand_uniform(&[1, 1, 8, 8], 0.0, 1.0, &mut rng);
        let order = backselect_order(&net, &img, 0, SelectionMode::OneShot);
        assert_eq!(order.len(), 64);
        let keep = keep_top_fraction(&order, 0.1);
        let masked = apply_pixel_mask(&img, &keep);
        // ~90% of pixels should be zeroed
        let zeros = masked.data().iter().filter(|&&v| v == 0.0).count();
        assert!(zeros >= 56, "only {zeros} pixels masked");
    }

    #[test]
    fn heatmap_diagonal_dominates_for_identical_models() {
        let mut rng = Rng::new(6);
        let base = models::mlp("m", 16, &[16], 3, false, 7);
        let models_vec = vec![
            ("a".to_string(), base.clone()),
            ("b".to_string(), base.clone()),
        ];
        let images = Tensor::rand_uniform(&[3, 16], 0.0, 1.0, &mut rng);
        let labels = vec![0, 1, 2];
        let hm = confidence_heatmap(&models_vec, &images, &labels, 0.25, SelectionMode::OneShot);
        assert_eq!(hm.matrix.len(), 2);
        // identical models must agree exactly
        assert!((hm.matrix[0][0] - hm.matrix[0][1]).abs() < 1e-6);
        let table = hm.to_table();
        assert!(table.contains("gen\\eval"));
    }
}
