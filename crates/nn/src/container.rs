//! Composite layers: sequential chains, residual blocks, and densely
//! connected blocks.

use crate::convblock::ConvBlock;
use crate::layer::{relu_gate, relu_in_place, Layer, Mode, PrunableLayer};
use crate::param::Param;
use crate::shape::ShapeReport;
use pv_tensor::{concat_channels, slice_channels, Error, Tensor};

/// A chain of layers applied in order.
#[derive(Clone, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({})", self.describe())
    }
}

impl Sequential {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer (builder style).
    #[must_use]
    pub fn then(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of direct children.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the chain has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Direct children in forward order (compaction's structural walk).
    pub(crate) fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to the direct children.
    pub(crate) fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.forward(&h, mode);
            #[cfg(feature = "sanitize")]
            crate::sanitize::check_finite("forward output", &layer.describe(), &h);
        }
        h
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let mut h = x.clone();
        for layer in &self.layers {
            h = layer.infer(&h);
            #[cfg(feature = "sanitize")]
            crate::sanitize::check_finite("forward output", &layer.describe(), &h);
        }
        h
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
            #[cfg(feature = "sanitize")]
            crate::sanitize::check_finite("backward input-gradient", &layer.describe(), &g);
        }
        g
    }

    fn infer_shape(&self, input: &[usize], report: &mut ShapeReport) -> Result<Vec<usize>, Error> {
        let mut shape = input.to_vec();
        for layer in &self.layers {
            shape = layer.infer_shape(&shape, report)?;
        }
        Ok(shape)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_params_named(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params_named(prefix, f);
        }
    }

    fn visit_buffers_named(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut [f32])) {
        for layer in &mut self.layers {
            layer.visit_buffers_named(prefix, f);
        }
    }

    fn visit_prunable(&mut self, f: &mut dyn FnMut(&mut dyn PrunableLayer)) {
        for layer in &mut self.layers {
            layer.visit_prunable(f);
        }
    }

    fn flops_per_sample(&self) -> u64 {
        self.layers.iter().map(|l| l.flops_per_sample()).sum()
    }

    fn describe(&self) -> String {
        self.layers
            .iter()
            .map(|l| l.describe())
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// A pre-built residual block: `y = ReLU(body(x) + shortcut(x))`.
///
/// The shortcut is the identity unless a projection (1×1 strided conv) is
/// supplied to match shapes, as in ResNet.
#[derive(Clone)]
pub struct Residual {
    body: Sequential,
    shortcut: Option<ConvBlock>,
    relu_mask: Option<Tensor>,
}

impl std::fmt::Debug for Residual {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Residual({})", self.describe())
    }
}

impl Residual {
    /// Creates a residual block with an identity shortcut.
    pub fn new(body: Sequential) -> Self {
        Self {
            body,
            shortcut: None,
            relu_mask: None,
        }
    }

    /// Creates a residual block with a projection shortcut (used when the
    /// body changes the channel count or spatial resolution).
    pub fn with_projection(body: Sequential, shortcut: ConvBlock) -> Self {
        Self {
            body,
            shortcut: Some(shortcut),
            relu_mask: None,
        }
    }
}

impl Layer for Residual {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let b = self.body.forward(x, mode);
        let s = match &mut self.shortcut {
            Some(proj) => proj.forward(x, mode),
            None => x.clone(),
        };
        let mut y = b.add(&s);
        let mask = y.map(relu_gate);
        y.mul_assign(&mask);
        if mode == Mode::Train {
            self.relu_mask = Some(mask);
        }
        y
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let b = self.body.infer(x);
        let mut y = match &self.shortcut {
            Some(proj) => b.add(&proj.infer(x)),
            None => b.add(x),
        };
        relu_in_place(&mut y);
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self
            .relu_mask
            .take()
            // pv-analyze: allow(lib-panic) -- documented contract: backward requires a preceding Train-mode forward
            .expect("Residual backward without forward");
        let mut g = grad_out.clone();
        g.mul_assign(&mask);
        let gb = self.body.backward(&g);
        let gs = match &mut self.shortcut {
            Some(proj) => proj.backward(&g),
            None => g,
        };
        gb.add(&gs)
    }

    fn infer_shape(&self, input: &[usize], report: &mut ShapeReport) -> Result<Vec<usize>, Error> {
        let body_out = self.body.infer_shape(input, report)?;
        let shortcut_out = match &self.shortcut {
            Some(proj) => proj.infer_shape(input, report)?,
            None => input.to_vec(),
        };
        if body_out != shortcut_out {
            return Err(Error::ShapeMismatch {
                name: "residual (body vs shortcut)".to_string(),
                expected: body_out,
                actual: shortcut_out,
            });
        }
        Ok(body_out)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.body.visit_params(f);
        if let Some(proj) = &mut self.shortcut {
            proj.visit_params(f);
        }
    }

    fn visit_params_named(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        self.body.visit_params_named(prefix, f);
        if let Some(proj) = &mut self.shortcut {
            proj.visit_params_named(prefix, f);
        }
    }

    fn visit_buffers_named(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut [f32])) {
        self.body.visit_buffers_named(prefix, f);
        if let Some(proj) = &mut self.shortcut {
            proj.visit_buffers_named(prefix, f);
        }
    }

    fn visit_prunable(&mut self, f: &mut dyn FnMut(&mut dyn PrunableLayer)) {
        self.body.visit_prunable(f);
        if let Some(proj) = &mut self.shortcut {
            proj.visit_prunable(f);
        }
    }

    fn flops_per_sample(&self) -> u64 {
        self.body.flops_per_sample() + self.shortcut.as_ref().map_or(0, |p| p.flops_per_sample())
    }

    fn describe(&self) -> String {
        match &self.shortcut {
            Some(p) => format!("res[{} | {}]", self.body.describe(), p.describe()),
            None => format!("res[{}]", self.body.describe()),
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// A densely connected block (DenseNet-style): every inner convolution sees
/// the channel-concatenation of the block input and all previous inner
/// outputs, and the block output is the concatenation of everything.
#[derive(Clone)]
pub struct DenseBlock {
    layers: Vec<ConvBlock>,
    /// Channel counts of [input, out(layer 0), out(layer 1), ...].
    channel_plan: Vec<usize>,
    cache_features: Option<Vec<Tensor>>,
}

impl std::fmt::Debug for DenseBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DenseBlock({})", self.describe())
    }
}

impl DenseBlock {
    /// Creates a dense block from inner convolutions.
    ///
    /// `in_channels` is the channel count of the block input; layer `i` must
    /// accept `in_channels + Σ_{j<i} out(j)` channels.
    ///
    /// # Panics
    ///
    /// Panics if the channel bookkeeping of the provided layers is
    /// inconsistent.
    pub fn new(in_channels: usize, layers: Vec<ConvBlock>) -> Self {
        let mut plan = vec![in_channels];
        let mut expect_in = in_channels;
        for l in &layers {
            assert_eq!(
                l.in_channels(),
                expect_in,
                "dense layer expects {expect_in} input channels"
            );
            plan.push(l.out_channels());
            expect_in += l.out_channels();
        }
        Self {
            layers,
            channel_plan: plan,
            cache_features: None,
        }
    }

    /// Total output channels of the block.
    pub fn out_channels(&self) -> usize {
        self.channel_plan.iter().sum()
    }
}

impl Layer for DenseBlock {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let mut features: Vec<Tensor> = vec![x.clone()];
        for layer in &mut self.layers {
            let input = if features.len() == 1 {
                features[0].clone()
            } else {
                concat_channels(&features.iter().collect::<Vec<_>>())
            };
            let y = layer.forward(&input, mode);
            features.push(y);
        }
        let out = concat_channels(&features.iter().collect::<Vec<_>>());
        if mode == Mode::Train {
            self.cache_features = Some(features);
        }
        out
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let mut features: Vec<Tensor> = vec![x.clone()];
        for layer in &self.layers {
            let y = if features.len() == 1 {
                layer.infer(&features[0])
            } else {
                layer.infer(&concat_channels(&features.iter().collect::<Vec<_>>()))
            };
            features.push(y);
        }
        concat_channels(&features.iter().collect::<Vec<_>>())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let features = self
            .cache_features
            .take()
            // pv-analyze: allow(lib-panic) -- documented contract: backward requires a preceding Train-mode forward
            .expect("DenseBlock backward without forward");
        let n_feats = features.len();
        // split output gradient into per-feature slices
        let mut feat_grads: Vec<Tensor> = Vec::with_capacity(n_feats);
        let mut off = 0;
        for f in &features {
            let c = f.dim(1);
            feat_grads.push(slice_channels(grad_out, off, off + c));
            off += c;
        }
        // walk inner layers in reverse; layer i consumed concat(features[..=i])
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let g_out = feat_grads[i + 1].clone();
            let g_in = layer.backward(&g_out);
            // distribute g_in over features[0..=i]
            let mut off = 0;
            for (j, fg) in feat_grads.iter_mut().enumerate().take(i + 1) {
                let c = self.channel_plan[j];
                fg.add_assign(&slice_channels(&g_in, off, off + c));
                off += c;
            }
        }
        feat_grads.swap_remove(0)
    }

    fn infer_shape(&self, input: &[usize], report: &mut ShapeReport) -> Result<Vec<usize>, Error> {
        crate::shape::require_rank("dense block", input, 3)?;
        let (h, w) = (input[1], input[2]);
        if input[0] != self.channel_plan[0] {
            return Err(Error::ShapeMismatch {
                name: "dense block (input channels)".to_string(),
                expected: vec![self.channel_plan[0]],
                actual: vec![input[0]],
            });
        }
        let mut seen = self.channel_plan[0];
        for (i, layer) in self.layers.iter().enumerate() {
            let out = layer.infer_shape(&[seen, h, w], report)?;
            // inner convolutions must preserve the spatial size, or the
            // channel concatenation in forward() would be ill-formed
            if out != [self.channel_plan[i + 1], h, w] {
                return Err(Error::ShapeMismatch {
                    name: format!("dense block (inner layer {i})"),
                    expected: vec![self.channel_plan[i + 1], h, w],
                    actual: out,
                });
            }
            seen += self.channel_plan[i + 1];
        }
        Ok(vec![seen, h, w])
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_params_named(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params_named(prefix, f);
        }
    }

    fn visit_buffers_named(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut [f32])) {
        for layer in &mut self.layers {
            layer.visit_buffers_named(prefix, f);
        }
    }

    fn visit_prunable(&mut self, f: &mut dyn FnMut(&mut dyn PrunableLayer)) {
        for layer in &mut self.layers {
            layer.visit_prunable(f);
        }
    }

    fn flops_per_sample(&self) -> u64 {
        self.layers.iter().map(|l| l.flops_per_sample()).sum()
    }

    fn describe(&self) -> String {
        format!(
            "dense[{}]",
            self.layers
                .iter()
                .map(|l| l.describe())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearBlock;
    use pv_tensor::{ConvGeometry, Rng};

    #[test]
    fn sequential_forward_composes() {
        let mut rng = Rng::new(1);
        let mut seq = Sequential::new()
            .then(LinearBlock::new("a", 4, 8, &mut rng).with_relu())
            .then(LinearBlock::new("b", 8, 3, &mut rng));
        let x = Tensor::rand_uniform(&[2, 4], -1.0, 1.0, &mut rng);
        let y = seq.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[2, 3]);
        assert_eq!(seq.len(), 2);
    }

    #[test]
    fn sequential_backward_finite_difference() {
        let mut rng = Rng::new(2);
        let seq0 = Sequential::new()
            .then(LinearBlock::new("a", 3, 5, &mut rng).with_relu())
            .then(LinearBlock::new("b", 5, 2, &mut rng));
        let x = Tensor::rand_uniform(&[4, 3], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[4, 2], -1.0, 1.0, &mut rng);

        let mut seq = seq0.clone();
        let _ = seq.forward(&x, Mode::Train);
        let grad_in = seq.backward(&w);

        let eps = 1e-3;
        for k in [0usize, 5, 11] {
            let mut xp = x.clone();
            xp.data_mut()[k] += eps;
            let mut xm = x.clone();
            xm.data_mut()[k] -= eps;
            let mut s = seq0.clone();
            let fp = s.forward(&xp, Mode::Train).mul(&w).sum();
            let fm = s.forward(&xm, Mode::Train).mul(&w).sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - grad_in.data()[k]).abs() < 3e-2, "coord {k}");
        }
    }

    #[test]
    fn residual_identity_gradient_sums_paths() {
        let mut rng = Rng::new(3);
        let g = ConvGeometry::new(3, 1, 1);
        let body = Sequential::new()
            .then(ConvBlock::new("c1", 2, 2, g, (4, 4), &mut rng).with_relu())
            .then(ConvBlock::new("c2", 2, 2, g, (4, 4), &mut rng));
        let res0 = Residual::new(body);
        let x = Tensor::rand_uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut rng);

        let mut res = res0.clone();
        let _ = res.forward(&x, Mode::Train);
        let grad_in = res.backward(&w);

        let eps = 1e-3;
        for k in [0usize, 9, 21, 31] {
            let mut xp = x.clone();
            xp.data_mut()[k] += eps;
            let mut xm = x.clone();
            xm.data_mut()[k] -= eps;
            let mut r = res0.clone();
            let fp = r.forward(&xp, Mode::Train).mul(&w).sum();
            let fm = r.forward(&xm, Mode::Train).mul(&w).sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - grad_in.data()[k]).abs() < 5e-2, "coord {k}");
        }
    }

    #[test]
    fn residual_projection_changes_shape() {
        let mut rng = Rng::new(4);
        let g = ConvGeometry::new(3, 2, 1);
        let body = Sequential::new()
            .then(ConvBlock::new("c1", 2, 4, g, (4, 4), &mut rng).with_relu())
            .then(ConvBlock::new(
                "c2",
                4,
                4,
                ConvGeometry::new(3, 1, 1),
                (2, 2),
                &mut rng,
            ));
        let proj = ConvBlock::new("p", 2, 4, ConvGeometry::new(1, 2, 0), (4, 4), &mut rng);
        let mut res = Residual::with_projection(body, proj);
        let x = Tensor::rand_uniform(&[2, 2, 4, 4], -1.0, 1.0, &mut rng);
        let y = res.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[2, 4, 2, 2]);
    }

    #[test]
    fn dense_block_concatenates_and_backprops() {
        let mut rng = Rng::new(5);
        let g = ConvGeometry::new(3, 1, 1);
        let l1 = ConvBlock::new("d1", 2, 3, g, (4, 4), &mut rng).with_relu();
        let l2 = ConvBlock::new("d2", 5, 3, g, (4, 4), &mut rng).with_relu();
        let block0 = DenseBlock::new(2, vec![l1, l2]);
        assert_eq!(block0.out_channels(), 8);

        let x = Tensor::rand_uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[1, 8, 4, 4], -1.0, 1.0, &mut rng);

        let mut block = block0.clone();
        let y = block.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[1, 8, 4, 4]);
        let grad_in = block.backward(&w);
        assert_eq!(grad_in.shape(), x.shape());

        let eps = 1e-3;
        for k in [0usize, 13, 27, 31] {
            let mut xp = x.clone();
            xp.data_mut()[k] += eps;
            let mut xm = x.clone();
            xm.data_mut()[k] -= eps;
            let mut b = block0.clone();
            let fp = b.forward(&xp, Mode::Train).mul(&w).sum();
            let fm = b.forward(&xm, Mode::Train).mul(&w).sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - grad_in.data()[k]).abs() < 5e-2, "coord {k}");
        }
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn dense_block_channel_mismatch_panics() {
        let mut rng = Rng::new(6);
        let g = ConvGeometry::new(3, 1, 1);
        let l1 = ConvBlock::new("d1", 2, 3, g, (4, 4), &mut rng);
        let l2 = ConvBlock::new("d2", 4, 3, g, (4, 4), &mut rng); // should be 5
        DenseBlock::new(2, vec![l1, l2]);
    }
}
