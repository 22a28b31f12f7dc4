//! Convolutional block: conv2d + optional batch-norm + optional ReLU, fused
//! into a single prunable unit whose rows are output filters.

use crate::batchnorm::BatchNormCore;
use crate::init::he_std;
use crate::layer::{relu_gate, relu_in_place, Layer, Mode, PrunableLayer, UnitKind};
use crate::param::{Param, ParamKind};
use pv_tensor::{
    conv2d_backward, conv2d_forward, im2col, matrix_to_nchw, nchw_to_matrix, ConvGeometry, Rng,
    Tensor,
};

/// Cached state from a training-mode forward pass.
#[derive(Debug, Clone)]
struct ConvCache {
    cols: Tensor,
    input_hw: (usize, usize),
    relu_mask: Option<Tensor>,
    out_hw: (usize, usize),
    batch: usize,
}

/// A convolutional layer (`y = ReLU(BN(conv(x)))`, BN and ReLU optional).
///
/// The weight is the flattened filter bank `[out_c, in_c*kh*kw]`; row `j` is
/// filter `j`, the unit addressed by structured pruning (FT, PFP).
#[derive(Debug, Clone)]
pub struct ConvBlock {
    label: String,
    geometry: ConvGeometry,
    in_c: usize,
    out_c: usize,
    /// Spatial size this block expects, fixed at model-construction time so
    /// FLOPs are known without running data through the network.
    in_hw: (usize, usize),
    weight: Param,
    bias: Param,
    bn: Option<BatchNormCore>,
    relu: bool,
    classifier: bool,
    cache: Option<ConvCache>,
    input_sens: Option<Tensor>,
}

impl ConvBlock {
    /// Creates a He-initialized convolution block.
    ///
    /// `in_hw` is the expected input spatial size (used for FLOP
    /// accounting; forward accepts any size).
    pub fn new(
        label: impl Into<String>,
        in_c: usize,
        out_c: usize,
        geometry: ConvGeometry,
        in_hw: (usize, usize),
        rng: &mut Rng,
    ) -> Self {
        let fan_in = in_c * geometry.kh * geometry.kw;
        let std = he_std(fan_in);
        Self {
            label: label.into(),
            geometry,
            in_c,
            out_c,
            in_hw,
            weight: Param::new(
                Tensor::randn(&[out_c, fan_in], 0.0, std, rng),
                ParamKind::Weight,
            ),
            bias: Param::new(Tensor::zeros(&[out_c]), ParamKind::Bias),
            bn: None,
            relu: false,
            classifier: false,
            cache: None,
            input_sens: None,
        }
    }

    /// Adds batch normalization over the output channels.
    pub fn with_batch_norm(mut self) -> Self {
        self.bn = Some(BatchNormCore::new(self.out_c));
        self
    }

    /// Adds a ReLU activation at the end of the block.
    pub fn with_relu(mut self) -> Self {
        self.relu = true;
        self
    }

    /// Marks this convolution as the final (per-pixel) classifier of a
    /// dense-prediction network, exempting it from structured pruning.
    pub fn as_classifier_conv(mut self) -> Self {
        self.classifier = true;
        self
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_c
    }

    /// Number of output channels (filters).
    pub fn out_channels(&self) -> usize {
        self.out_c
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> ConvGeometry {
        self.geometry
    }

    /// Expected output spatial size for the construction-time input size.
    pub fn out_hw(&self) -> (usize, usize) {
        self.geometry.output_size(self.in_hw.0, self.in_hw.1)
    }

    /// Panics unless `x` is an NCHW batch with `in_channels` channels.
    fn check_input(&self, x: &Tensor) {
        assert_eq!(x.ndim(), 4, "ConvBlock expects NCHW input");
        assert_eq!(x.dim(1), self.in_c, "channel mismatch in {}", self.label);
    }
}

/// The data-informed sensitivity of SiPP/PFP at the receptive-field level:
/// mean `|col_j|` over all output positions of the unfolded input `cols`.
fn receptive_field_sensitivity(cols: &Tensor) -> Tensor {
    let mut sens = cols.map(f32::abs).sum_rows();
    sens.scale_in_place(1.0 / cols.dim(0) as f32);
    sens
}

impl Layer for ConvBlock {
    fn infer_shape(
        &self,
        input: &[usize],
        report: &mut crate::shape::ShapeReport,
    ) -> Result<Vec<usize>, pv_tensor::Error> {
        crate::shape::require_rank(&self.label, input, 3)?;
        if input[0] != self.in_c {
            return Err(pv_tensor::Error::ShapeMismatch {
                name: format!("{} (input channels)", self.label),
                expected: vec![self.in_c],
                actual: vec![input[0]],
            });
        }
        let (oh, ow) =
            crate::shape::checked_output_size(&self.label, self.geometry, input[1], input[2])?;
        let out = vec![self.out_c, oh, ow];
        report.push(self.describe(), input, &out);
        Ok(out)
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.check_input(x);
        if mode == Mode::Eval {
            self.input_sens = Some(receptive_field_sensitivity(&im2col(x, self.geometry)));
            return self.infer(x);
        }
        let (h, w) = (x.dim(2), x.dim(3));
        let fwd = conv2d_forward(x, &self.weight.value, &self.bias.value, self.geometry);
        self.input_sens = Some(receptive_field_sensitivity(&fwd.cols));

        let mut y = fwd.output;
        let (n, oh, ow) = (y.dim(0), y.dim(2), y.dim(3));
        if let Some(bn) = &mut self.bn {
            let m = nchw_to_matrix(&y);
            let m = bn.forward_matrix(&m, true);
            y = matrix_to_nchw(&m, n, self.out_c, oh, ow);
        }
        let mut relu_mask = None;
        if self.relu {
            let mask = y.map(relu_gate);
            y.mul_assign(&mask);
            relu_mask = Some(mask);
        }
        self.cache = Some(ConvCache {
            cols: fwd.cols,
            input_hw: (h, w),
            relu_mask,
            out_hw: (oh, ow),
            batch: n,
        });
        y
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        self.check_input(x);
        let mut y = conv2d_forward(x, &self.weight.value, &self.bias.value, self.geometry).output;
        if let Some(bn) = &self.bn {
            let (n, oh, ow) = (y.dim(0), y.dim(2), y.dim(3));
            let m = bn.eval_matrix(&nchw_to_matrix(&y));
            y = matrix_to_nchw(&m, n, self.out_c, oh, ow);
        }
        if self.relu {
            relu_in_place(&mut y);
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            // pv-analyze: allow(lib-panic) -- documented contract: backward requires a preceding Train-mode forward
            .expect("ConvBlock backward without forward");
        let mut g = grad_out.clone();
        if let Some(mask) = &cache.relu_mask {
            g.mul_assign(mask);
        }
        if let Some(bn) = &mut self.bn {
            let m = nchw_to_matrix(&g);
            let m = bn.backward_matrix(&m);
            g = matrix_to_nchw(&m, cache.batch, self.out_c, cache.out_hw.0, cache.out_hw.1);
        }
        let back = conv2d_backward(
            &g,
            &cache.cols,
            &self.weight.value,
            self.in_c,
            cache.input_hw.0,
            cache.input_hw.1,
            self.geometry,
        );
        self.weight.grad.add_assign(&back.grad_weight);
        self.bias.grad.add_assign(&back.grad_bias);
        back.grad_input
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
        self.dense_flops()
    }

    fn describe(&self) -> String {
        format!(
            "conv{}x{}({}->{})/s{}{}{}",
            self.geometry.kh,
            self.geometry.kw,
            self.in_c,
            self.out_c,
            self.geometry.stride,
            if self.bn.is_some() { "+bn" } else { "" },
            if self.relu { "+relu" } else { "" },
        )
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl PrunableLayer for ConvBlock {
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
        self.out_c
    }

    fn unit_len(&self) -> usize {
        self.weight.value.dim(1)
    }

    fn is_classifier(&self) -> bool {
        self.classifier
    }

    fn unit_kind(&self) -> UnitKind {
        UnitKind::Conv
    }

    fn dense_flops(&self) -> u64 {
        let (oh, ow) = self.out_hw();
        2 * (oh * ow) as u64 * self.weight.value.len() as u64
    }

    fn input_sensitivity(&self) -> Option<&Tensor> {
        self.input_sens.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_and_flops() {
        let mut rng = Rng::new(1);
        let b = ConvBlock::new("c", 3, 8, ConvGeometry::new(3, 1, 1), (8, 8), &mut rng);
        assert_eq!(b.out_hw(), (8, 8));
        assert_eq!(b.dense_flops(), 2 * 64 * (8 * 27) as u64);
        let mut b = b;
        let x = Tensor::rand_uniform(&[2, 3, 8, 8], -1.0, 1.0, &mut rng);
        let y = b.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[2, 8, 8, 8]);
    }

    #[test]
    fn backward_finite_difference_with_bn_relu() {
        let mut rng = Rng::new(2);
        let b0 = ConvBlock::new("c", 2, 3, ConvGeometry::new(3, 1, 1), (4, 4), &mut rng)
            .with_batch_norm()
            .with_relu();
        let x = Tensor::rand_uniform(&[2, 2, 4, 4], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[2, 3, 4, 4], -1.0, 1.0, &mut rng);
        let loss =
            |b: &mut ConvBlock, x: &Tensor| -> f32 { b.forward(x, Mode::Train).mul(&w).sum() };

        let mut b = b0.clone();
        let _ = b.forward(&x, Mode::Train);
        let grad_in = b.backward(&w);

        let eps = 1e-3;
        for k in [0usize, 13, 31, 63] {
            let mut xp = x.clone();
            xp.data_mut()[k] += eps;
            let mut xm = x.clone();
            xm.data_mut()[k] -= eps;
            let mut bc = b0.clone();
            let num = (loss(&mut bc, &xp) - loss(&mut bc, &xm)) / (2.0 * eps);
            let ana = grad_in.data()[k];
            assert!((num - ana).abs() < 5e-2, "input {k}: {num} vs {ana}");
        }
        for k in [0usize, 17, 35, 53] {
            let mut bp = b0.clone();
            bp.weight.value.data_mut()[k] += eps;
            let mut bm = b0.clone();
            bm.weight.value.data_mut()[k] -= eps;
            let num = (loss(&mut bp, &x) - loss(&mut bm, &x)) / (2.0 * eps);
            let ana = b.weight.grad.data()[k];
            assert!((num - ana).abs() < 5e-2, "weight {k}: {num} vs {ana}");
        }
    }

    #[test]
    fn sensitivity_has_receptive_field_length() {
        let mut rng = Rng::new(3);
        let mut b = ConvBlock::new("c", 3, 4, ConvGeometry::new(3, 1, 1), (6, 6), &mut rng);
        let x = Tensor::rand_uniform(&[1, 3, 6, 6], -1.0, 1.0, &mut rng);
        let _ = b.forward(&x, Mode::Eval);
        assert_eq!(b.input_sensitivity().expect("recorded").len(), 3 * 9);
    }
}
