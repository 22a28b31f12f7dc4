//! Channel-wise batch normalization.
//!
//! [`BatchNormCore`] operates on the matrix view of activations — one row
//! per (sample × spatial position), one column per channel — so the same
//! code normalizes both fully connected (`[N, F]`) and convolutional
//! (`[N, C, H, W]`, via `nchw_to_matrix`) activations.

use crate::param::{Param, ParamKind};
use pv_tensor::Tensor;

/// Cached intermediates from a training-mode forward pass.
#[derive(Debug, Clone)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
}

/// Batch normalization over the last axis of a `[rows, channels]` matrix.
#[derive(Debug, Clone)]
pub struct BatchNormCore {
    /// Scale (γ), one per channel; prunable methods mask it together with
    /// the owning layer's filters.
    pub gamma: Param,
    /// Shift (β), one per channel.
    pub beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

impl BatchNormCore {
    /// Creates a batch-norm over `channels` features (γ=1, β=0, running
    /// statistics at the standard-normal defaults).
    pub fn new(channels: usize) -> Self {
        Self {
            gamma: Param::new(Tensor::ones(&[channels]), ParamKind::Gain),
            beta: Param::new(Tensor::zeros(&[channels]), ParamKind::Shift),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Number of normalized channels.
    pub fn channels(&self) -> usize {
        self.gamma.len()
    }

    /// Calls `f` with `"{prefix}running_mean"` / `"{prefix}running_var"` and
    /// mutable views of the running statistics — the non-trainable buffers a
    /// checkpoint must carry so eval-mode forwards reproduce bitwise.
    pub fn visit_buffers_named(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut [f32])) {
        f(&format!("{prefix}running_mean"), &mut self.running_mean);
        f(&format!("{prefix}running_var"), &mut self.running_var);
    }

    /// Restricts the batch-norm to the channels in `keep` (ascending row
    /// indices of the owning layer), gathering γ/β and the running
    /// statistics. Masks and optimizer state on γ/β are dropped — after
    /// physical compaction every surviving channel is live — and the
    /// forward cache is cleared.
    ///
    /// # Panics
    ///
    /// Panics if any index in `keep` is out of range.
    pub fn gather_channels(&mut self, keep: &[usize]) {
        self.gamma = Param::new(self.gamma.value.gather_first_axis(keep), ParamKind::Gain);
        self.beta = Param::new(self.beta.value.gather_first_axis(keep), ParamKind::Shift);
        self.running_mean = keep.iter().map(|&j| self.running_mean[j]).collect();
        self.running_var = keep.iter().map(|&j| self.running_var[j]).collect();
        self.cache = None;
    }

    /// Forward pass on a `[rows, channels]` matrix. Training mode
    /// normalizes with the batch statistics, updates the running ones and
    /// caches for backward; eval mode is [`BatchNormCore::eval_matrix`].
    ///
    /// # Panics
    ///
    /// Panics if `x` is not 2-D with `channels` columns, or (in training
    /// mode) has fewer than 2 rows.
    pub fn forward_matrix(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train {
            return self.eval_matrix(x);
        }
        let (rows, c) = self.check_matrix(x);
        assert!(
            rows >= 2,
            "batch norm needs at least 2 rows in training mode"
        );
        let mut out = x.clone();
        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        let xd = x.data();
        for r in 0..rows {
            for (m, &v) in mean.iter_mut().zip(&xd[r * c..(r + 1) * c]) {
                *m += v;
            }
        }
        let inv_rows = 1.0 / rows as f32;
        for m in &mut mean {
            *m *= inv_rows;
        }
        for r in 0..rows {
            for j in 0..c {
                let d = xd[r * c + j] - mean[j];
                var[j] += d * d;
            }
        }
        for v in &mut var {
            *v *= inv_rows;
        }
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let od = out.data_mut();
        for r in 0..rows {
            for j in 0..c {
                od[r * c + j] = (od[r * c + j] - mean[j]) * inv_std[j];
            }
        }
        // running statistics (unbiased variance, matching common practice)
        let unbias = rows as f32 / (rows as f32 - 1.0);
        for j in 0..c {
            self.running_mean[j] =
                (1.0 - self.momentum) * self.running_mean[j] + self.momentum * mean[j];
            self.running_var[j] =
                (1.0 - self.momentum) * self.running_var[j] + self.momentum * var[j] * unbias;
        }
        self.cache = Some(BnCache {
            x_hat: out.clone(),
            inv_std,
        });
        self.affine_in_place(&mut out);
        out
    }

    /// Eval-mode batch norm on a `[rows, channels]` matrix: normalizes with
    /// the running statistics and applies the affine, writing nothing.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not 2-D with `channels` columns.
    pub fn eval_matrix(&self, x: &Tensor) -> Tensor {
        let (rows, c) = self.check_matrix(x);
        let mut out = x.clone();
        let od = out.data_mut();
        for r in 0..rows {
            for j in 0..c {
                let inv = 1.0 / (self.running_var[j] + self.eps).sqrt();
                od[r * c + j] = (od[r * c + j] - self.running_mean[j]) * inv;
            }
        }
        self.affine_in_place(&mut out);
        out
    }

    /// `(rows, channels)` of a matrix view this batch norm accepts.
    fn check_matrix(&self, x: &Tensor) -> (usize, usize) {
        assert_eq!(x.ndim(), 2, "batch norm expects a matrix view");
        assert_eq!(x.dim(1), self.channels(), "channel count mismatch");
        (x.dim(0), x.dim(1))
    }

    /// `y = γ·x̂ + β` over a normalized `[rows, channels]` matrix.
    fn affine_in_place(&self, out: &mut Tensor) {
        let (rows, c) = (out.dim(0), out.dim(1));
        let g = self.gamma.value.data();
        let b = self.beta.value.data();
        let od = out.data_mut();
        for r in 0..rows {
            for j in 0..c {
                od[r * c + j] = od[r * c + j] * g[j] + b[j];
            }
        }
    }

    /// Backward pass; must follow a training-mode forward.
    ///
    /// # Panics
    ///
    /// Panics if no training-mode forward preceded this call.
    pub fn backward_matrix(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            // pv-analyze: allow(lib-panic) -- documented contract: backward requires a preceding Train-mode forward
            .expect("batch norm backward without train forward");
        let (rows, c) = (grad_out.dim(0), grad_out.dim(1));
        assert_eq!(cache.x_hat.shape(), grad_out.shape(), "grad shape mismatch");
        let gd = grad_out.data();
        let xh = cache.x_hat.data();

        let mut sum_dy = vec![0.0f32; c];
        let mut sum_dy_xhat = vec![0.0f32; c];
        for r in 0..rows {
            for j in 0..c {
                let dy = gd[r * c + j];
                sum_dy[j] += dy;
                sum_dy_xhat[j] += dy * xh[r * c + j];
            }
        }
        // parameter grads
        for j in 0..c {
            self.gamma.grad.data_mut()[j] += sum_dy_xhat[j];
            self.beta.grad.data_mut()[j] += sum_dy[j];
        }
        // input grad
        let g = self.gamma.value.data();
        let n = rows as f32;
        let mut grad_in = Tensor::zeros(grad_out.shape());
        let gi = grad_in.data_mut();
        for r in 0..rows {
            for j in 0..c {
                let dy = gd[r * c + j];
                gi[r * c + j] = g[j] * cache.inv_std[j] / n
                    * (n * dy - sum_dy[j] - xh[r * c + j] * sum_dy_xhat[j]);
            }
        }
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_tensor::Rng;

    #[test]
    fn train_forward_normalizes_columns() {
        let mut rng = Rng::new(1);
        let x = Tensor::rand_uniform(&[64, 3], -2.0, 5.0, &mut rng);
        let mut bn = BatchNormCore::new(3);
        let y = bn.forward_matrix(&x, true);
        for j in 0..3 {
            let col: Vec<f32> = (0..64).map(|r| y.at2(r, j)).collect();
            let mean: f32 = col.iter().sum::<f32>() / 64.0;
            let var: f32 = col.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut rng = Rng::new(2);
        let mut bn = BatchNormCore::new(2);
        // feed many batches so running stats converge to the data stats
        for _ in 0..200 {
            let x = Tensor::randn(&[32, 2], 3.0, 2.0, &mut rng);
            bn.forward_matrix(&x, true);
        }
        let x = Tensor::randn(&[256, 2], 3.0, 2.0, &mut rng);
        let y = bn.forward_matrix(&x, false);
        // eval output should be approximately standardized
        let mean = y.mean();
        assert!(mean.abs() < 0.15, "eval mean {mean}");
    }

    #[test]
    fn backward_finite_difference() {
        let mut rng = Rng::new(3);
        let x = Tensor::rand_uniform(&[8, 2], -1.0, 1.0, &mut rng);
        let mut bn = BatchNormCore::new(2);
        bn.gamma.value = Tensor::from_vec(vec![2], vec![1.3, 0.7]);
        bn.beta.value = Tensor::from_vec(vec![2], vec![0.1, -0.2]);

        // loss = weighted sum of outputs to get a non-trivial grad_out
        let w = Tensor::rand_uniform(&[8, 2], -1.0, 1.0, &mut rng);
        let loss = |bn: &mut BatchNormCore, x: &Tensor| -> f32 {
            bn.forward_matrix(x, true).mul(&w).sum()
        };

        let _ = bn.forward_matrix(&x, true);
        let grad_in = bn.backward_matrix(&w);

        let eps = 1e-3;
        for k in [0usize, 3, 7, 12, 15] {
            let mut xp = x.clone();
            xp.data_mut()[k] += eps;
            let mut xm = x.clone();
            xm.data_mut()[k] -= eps;
            let mut bn2 = bn.clone();
            let fp = loss(&mut bn2, &xp);
            let fm = loss(&mut bn2, &xm);
            let num = (fp - fm) / (2.0 * eps);
            let ana = grad_in.data()[k];
            assert!((num - ana).abs() < 2e-2, "coord {k}: {num} vs {ana}");
        }
        // gamma/beta grads by finite differences
        for j in 0..2 {
            let mut bp = bn.clone();
            bp.gamma.value.data_mut()[j] += eps;
            let mut bm = bn.clone();
            bm.gamma.value.data_mut()[j] -= eps;
            let num = (loss(&mut bp, &x) - loss(&mut bm, &x)) / (2.0 * eps);
            let ana = bn.gamma.grad.data()[j];
            assert!((num - ana).abs() < 2e-2, "gamma {j}: {num} vs {ana}");

            let mut bp = bn.clone();
            bp.beta.value.data_mut()[j] += eps;
            let mut bm = bn.clone();
            bm.beta.value.data_mut()[j] -= eps;
            let num = (loss(&mut bp, &x) - loss(&mut bm, &x)) / (2.0 * eps);
            let ana = bn.beta.grad.data()[j];
            assert!((num - ana).abs() < 2e-2, "beta {j}: {num} vs {ana}");
        }
    }

    #[test]
    fn gather_channels_keeps_selected_stats() {
        let mut rng = Rng::new(9);
        let mut bn = BatchNormCore::new(4);
        for _ in 0..5 {
            let x = Tensor::randn(&[16, 4], 1.0, 2.0, &mut rng);
            bn.forward_matrix(&x, true);
        }
        bn.gamma.value = Tensor::from_vec(vec![4], vec![1.0, 2.0, 3.0, 4.0]);
        bn.beta.value = Tensor::from_vec(vec![4], vec![-1.0, -2.0, -3.0, -4.0]);
        let full = bn.clone();
        bn.gather_channels(&[1, 3]);
        assert_eq!(bn.channels(), 2);
        assert_eq!(bn.gamma.value.data(), &[2.0, 4.0]);
        assert_eq!(bn.beta.value.data(), &[-2.0, -4.0]);
        // eval forward on the kept columns matches the full batch-norm
        let x = Tensor::randn(&[8, 4], 0.0, 1.0, &mut rng);
        let y_full = full.eval_matrix(&x);
        let x_kept = Tensor::from_fn(&[8, 2], |i| x.at2(i / 2, [1, 3][i % 2]));
        let y_kept = bn.eval_matrix(&x_kept);
        for r in 0..8 {
            assert_eq!(y_kept.at2(r, 0), y_full.at2(r, 1));
            assert_eq!(y_kept.at2(r, 1), y_full.at2(r, 3));
        }
    }

    #[test]
    #[should_panic(expected = "backward without train forward")]
    fn backward_without_forward_panics() {
        let mut bn = BatchNormCore::new(2);
        bn.backward_matrix(&Tensor::zeros(&[4, 2]));
    }
}
