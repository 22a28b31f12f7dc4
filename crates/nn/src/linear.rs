//! Fully connected block: linear transform + optional batch-norm + optional
//! ReLU, fused into a single prunable unit.

use crate::batchnorm::BatchNormCore;
use crate::init::he_std;
use crate::layer::{relu_gate, relu_in_place, Layer, Mode, PrunableLayer, UnitKind};
use crate::param::{Param, ParamKind};
use pv_tensor::{matmul, matmul_a_bt, matmul_at_b, Rng, Tensor};

/// A fully connected layer (`y = ReLU(BN(x·Wᵀ + b))`, both BN and ReLU
/// optional).
///
/// The weight is stored `[out, in]`, so row `j` holds neuron `j` — the unit
/// addressed by structured pruning.
#[derive(Debug, Clone)]
pub struct LinearBlock {
    label: String,
    weight: Param,
    bias: Param,
    bn: Option<BatchNormCore>,
    relu: bool,
    classifier: bool,
    cache_input: Option<Tensor>,
    cache_relu_mask: Option<Tensor>,
    input_sens: Option<Tensor>,
}

impl LinearBlock {
    /// Creates a He-initialized linear block.
    pub fn new(label: impl Into<String>, in_dim: usize, out_dim: usize, rng: &mut Rng) -> Self {
        let std = he_std(in_dim);
        Self {
            label: label.into(),
            weight: Param::new(
                Tensor::randn(&[out_dim, in_dim], 0.0, std, rng),
                ParamKind::Weight,
            ),
            bias: Param::new(Tensor::zeros(&[out_dim]), ParamKind::Bias),
            bn: None,
            relu: false,
            classifier: false,
            cache_input: None,
            cache_relu_mask: None,
            input_sens: None,
        }
    }

    /// Adds batch normalization after the linear transform.
    pub fn with_batch_norm(mut self) -> Self {
        self.bn = Some(BatchNormCore::new(self.weight.value.dim(0)));
        self
    }

    /// Adds a ReLU activation at the end of the block.
    pub fn with_relu(mut self) -> Self {
        self.relu = true;
        self
    }

    /// Marks this block as the final classifier (exempt from structured
    /// pruning).
    pub fn as_classifier(mut self) -> Self {
        self.classifier = true;
        self
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight.value.dim(1)
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weight.value.dim(0)
    }

    /// Physically shrinks the block to the output units in `keep_out` and
    /// the input coordinates in `keep_in` (ascending index lists; `None`
    /// keeps the axis intact) — the compact-layer constructor behind
    /// [`crate::network::Network::compact`].
    ///
    /// Weight rows/columns, bias entries, and batch-norm channels are
    /// gathered; masks and optimizer state are dropped (every surviving
    /// entry is live after compaction) and forward caches cleared.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range for its axis.
    pub fn compact_in_place(&mut self, keep_out: Option<&[usize]>, keep_in: Option<&[usize]>) {
        let (out0, in0) = (self.out_dim(), self.in_dim());
        let all_out: Vec<usize>;
        let rows: &[usize] = match keep_out {
            Some(k) => k,
            None => {
                all_out = (0..out0).collect();
                &all_out
            }
        };
        let all_in: Vec<usize>;
        let cols: &[usize] = match keep_in {
            Some(k) => k,
            None => {
                all_in = (0..in0).collect();
                &all_in
            }
        };
        let wd = self.weight.value.data();
        let mut w = Vec::with_capacity(rows.len() * cols.len());
        for &r in rows {
            assert!(r < out0, "compaction row {r} out of range");
            for &c in cols {
                assert!(c < in0, "compaction column {c} out of range");
                w.push(wd[r * in0 + c]);
            }
        }
        self.weight = Param::new(
            Tensor::from_vec(vec![rows.len(), cols.len()], w),
            ParamKind::Weight,
        );
        self.bias = Param::new(self.bias.value.gather_first_axis(rows), ParamKind::Bias);
        if let Some(bn) = &mut self.bn {
            bn.gather_channels(rows);
        }
        self.cache_input = None;
        self.cache_relu_mask = None;
        self.input_sens = None;
    }

    /// Panics unless `x` is an `[N, in_dim]` batch.
    fn check_input(&self, x: &Tensor) {
        assert_eq!(x.ndim(), 2, "LinearBlock expects [N, in] input");
        assert_eq!(
            x.dim(1),
            self.in_dim(),
            "input width mismatch in {}",
            self.label
        );
    }
}

impl Layer for LinearBlock {
    fn infer_shape(
        &self,
        input: &[usize],
        report: &mut crate::shape::ShapeReport,
    ) -> Result<Vec<usize>, pv_tensor::Error> {
        crate::shape::require_rank(&self.label, input, 1)?;
        if input[0] != self.in_dim() {
            return Err(pv_tensor::Error::ShapeMismatch {
                name: format!("{} (input width)", self.label),
                expected: vec![self.in_dim()],
                actual: vec![input[0]],
            });
        }
        let out = vec![self.out_dim()];
        report.push(self.describe(), input, &out);
        Ok(out)
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.check_input(x);
        // mean |x_j| over the batch: the data-informed sensitivity a(x)
        let mut sens = x.map(f32::abs).sum_rows();
        sens.scale_in_place(1.0 / x.dim(0) as f32);
        self.input_sens = Some(sens);
        if mode == Mode::Eval {
            return self.infer(x);
        }

        let mut y = matmul_a_bt(x, &self.weight.value);
        y.add_row_broadcast(&self.bias.value);
        if let Some(bn) = &mut self.bn {
            y = bn.forward_matrix(&y, true);
        }
        self.cache_input = Some(x.clone());
        if self.relu {
            let mask = y.map(relu_gate);
            y.mul_assign(&mask);
            self.cache_relu_mask = Some(mask);
        }
        y
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        self.check_input(x);
        let mut y = matmul_a_bt(x, &self.weight.value);
        y.add_row_broadcast(&self.bias.value);
        if let Some(bn) = &self.bn {
            y = bn.eval_matrix(&y);
        }
        if self.relu {
            relu_in_place(&mut y);
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cache_input
            .take()
            // pv-analyze: allow(lib-panic) -- documented contract: backward requires a preceding Train-mode forward
            .expect("LinearBlock backward without forward");
        let mut g = grad_out.clone();
        if self.relu {
            // pv-analyze: allow(lib-panic) -- ReLU cache is written by the same Train-mode forward
            let mask = self.cache_relu_mask.take().expect("missing ReLU cache");
            g.mul_assign(&mask);
        }
        if let Some(bn) = &mut self.bn {
            g = bn.backward_matrix(&g);
        }
        // dW += gᵀ·x ; db += Σ rows(g) ; dx = g·W
        self.weight.grad.add_assign(&matmul_at_b(&g, &x));
        self.bias.grad.add_assign(&g.sum_rows());
        matmul(&g, &self.weight.value)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
        if let Some(bn) = &mut self.bn {
            f(&mut bn.gamma);
            f(&mut bn.beta);
        }
    }

    fn visit_params_named(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        f(&format!("{prefix}{}.weight", self.label), &mut self.weight);
        f(&format!("{prefix}{}.bias", self.label), &mut self.bias);
        if let Some(bn) = &mut self.bn {
            f(&format!("{prefix}{}.bn.gamma", self.label), &mut bn.gamma);
            f(&format!("{prefix}{}.bn.beta", self.label), &mut bn.beta);
        }
    }

    fn visit_buffers_named(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut [f32])) {
        if let Some(bn) = &mut self.bn {
            bn.visit_buffers_named(&format!("{prefix}{}.bn.", self.label), f);
        }
    }

    fn visit_prunable(&mut self, f: &mut dyn FnMut(&mut dyn PrunableLayer)) {
        f(self);
    }

    fn flops_per_sample(&self) -> u64 {
        2 * self.weight.value.len() as u64
    }

    fn describe(&self) -> String {
        format!(
            "linear({}->{}){}{}{}",
            self.in_dim(),
            self.out_dim(),
            if self.bn.is_some() { "+bn" } else { "" },
            if self.relu { "+relu" } else { "" },
            if self.classifier { " [clf]" } else { "" },
        )
    }

    fn as_linear(&self) -> Option<&LinearBlock> {
        Some(self)
    }

    fn as_linear_mut(&mut self) -> Option<&mut LinearBlock> {
        Some(self)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl PrunableLayer for LinearBlock {
    fn label(&self) -> &str {
        &self.label
    }

    fn weight(&self) -> &Param {
        &self.weight
    }

    fn weight_mut(&mut self) -> &mut Param {
        &mut self.weight
    }

    fn bias_mut(&mut self) -> Option<&mut Param> {
        Some(&mut self.bias)
    }

    fn coupled_mut(&mut self) -> Vec<&mut Param> {
        match &mut self.bn {
            Some(bn) => vec![&mut bn.gamma, &mut bn.beta],
            None => Vec::new(),
        }
    }

    fn out_units(&self) -> usize {
        self.weight.value.dim(0)
    }

    fn unit_len(&self) -> usize {
        self.weight.value.dim(1)
    }

    fn is_classifier(&self) -> bool {
        self.classifier
    }

    fn unit_kind(&self) -> UnitKind {
        UnitKind::Linear
    }

    fn dense_flops(&self) -> u64 {
        2 * self.weight.value.len() as u64
    }

    fn input_sensitivity(&self) -> Option<&Tensor> {
        self.input_sens.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_manual_affine() {
        let mut rng = Rng::new(1);
        let mut l = LinearBlock::new("l", 3, 2, &mut rng);
        l.weight.value = Tensor::from_vec(vec![2, 3], vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5]);
        l.bias.value = Tensor::from_vec(vec![2], vec![0.1, -0.1]);
        let x = Tensor::from_vec(vec![1, 3], vec![2.0, 4.0, 6.0]);
        let y = l.forward(&x, Mode::Eval);
        assert!((y.at2(0, 0) - (2.0 - 6.0 + 0.1)).abs() < 1e-6);
        assert!((y.at2(0, 1) - (1.0 + 2.0 + 3.0 - 0.1)).abs() < 1e-6);
    }

    #[test]
    fn relu_clamps_negative() {
        let mut rng = Rng::new(2);
        let mut l = LinearBlock::new("l", 2, 2, &mut rng).with_relu();
        l.weight.value = Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, -1.0, 0.0]);
        l.bias.value = Tensor::zeros(&[2]);
        let x = Tensor::from_vec(vec![1, 2], vec![3.0, 0.0]);
        let y = l.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[3.0, 0.0]);
        // the gate multiplies, so the negative pre-activation leaves -0.0,
        // and infer must keep that sign exactly as forward does
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y), vec![3.0f32.to_bits(), (-0.0f32).to_bits()]);
        assert_eq!(bits(&l.infer(&x)), bits(&y));
    }

    #[test]
    fn backward_finite_difference_with_bn_and_relu() {
        let mut rng = Rng::new(3);
        let l0 = LinearBlock::new("l", 4, 3, &mut rng)
            .with_batch_norm()
            .with_relu();
        let x = Tensor::rand_uniform(&[6, 4], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[6, 3], -1.0, 1.0, &mut rng); // loss weights

        let loss =
            |l: &mut LinearBlock, x: &Tensor| -> f32 { l.forward(x, Mode::Train).mul(&w).sum() };

        let mut l = l0.clone();
        let _ = l.forward(&x, Mode::Train);
        let grad_in = l.backward(&w);

        let eps = 1e-3;
        // input grads
        for k in [0usize, 5, 11, 23] {
            let mut xp = x.clone();
            xp.data_mut()[k] += eps;
            let mut xm = x.clone();
            xm.data_mut()[k] -= eps;
            let mut lc = l0.clone();
            let num = (loss(&mut lc, &xp) - loss(&mut lc, &xm)) / (2.0 * eps);
            let ana = grad_in.data()[k];
            assert!((num - ana).abs() < 3e-2, "input {k}: {num} vs {ana}");
        }
        // weight grads
        for k in [0usize, 4, 7, 11] {
            let mut lp = l0.clone();
            lp.weight.value.data_mut()[k] += eps;
            let mut lm = l0.clone();
            lm.weight.value.data_mut()[k] -= eps;
            let num = (loss(&mut lp, &x) - loss(&mut lm, &x)) / (2.0 * eps);
            let ana = l.weight.grad.data()[k];
            assert!((num - ana).abs() < 3e-2, "weight {k}: {num} vs {ana}");
        }
    }

    #[test]
    fn input_sensitivity_is_mean_abs() {
        let mut rng = Rng::new(4);
        let mut l = LinearBlock::new("l", 2, 2, &mut rng);
        let x = Tensor::from_vec(vec![2, 2], vec![1.0, -2.0, 3.0, 0.0]);
        let _ = l.forward(&x, Mode::Eval);
        let s = l.input_sensitivity().expect("sensitivity recorded");
        assert_eq!(s.data(), &[2.0, 1.0]);
    }

    #[test]
    fn masked_weights_stay_zero_through_backward() {
        let mut rng = Rng::new(5);
        let mut l = LinearBlock::new("l", 3, 3, &mut rng);
        let mut mask = Tensor::ones(&[3, 3]);
        mask.data_mut()[4] = 0.0;
        l.weight.set_mask(mask);
        assert_eq!(l.weight.value.data()[4], 0.0);
        let x = Tensor::rand_uniform(&[4, 3], -1.0, 1.0, &mut rng);
        let y = l.forward(&x, Mode::Train);
        let _ = l.backward(&Tensor::ones(y.shape()));
        l.weight.project();
        assert_eq!(l.weight.value.data()[4], 0.0);
        assert_eq!(l.weight.grad.data()[4], 0.0);
    }
}
