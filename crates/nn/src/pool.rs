//! Parameter-free layers: max pooling, global average pooling, flattening.

use crate::layer::{Layer, Mode, PrunableLayer};
use crate::param::Param;
use pv_tensor::{
    global_avg_pool_backward, global_avg_pool_forward, maxpool2d_backward, maxpool2d_forward,
    ConvGeometry, Tensor,
};

/// 2-D max pooling.
#[derive(Debug, Clone)]
pub struct MaxPool {
    geometry: ConvGeometry,
    cache: Option<(Vec<usize>, Vec<usize>)>, // (argmax, input shape)
}

impl MaxPool {
    /// Square max pooling with the given window and stride.
    pub fn new(kernel: usize, stride: usize) -> Self {
        Self {
            geometry: ConvGeometry::new(kernel, stride, 0),
            cache: None,
        }
    }
}

impl Layer for MaxPool {
    fn infer_shape(
        &self,
        input: &[usize],
        report: &mut crate::shape::ShapeReport,
    ) -> Result<Vec<usize>, pv_tensor::Error> {
        crate::shape::require_rank("maxpool", input, 3)?;
        let (oh, ow) =
            crate::shape::checked_output_size("maxpool", self.geometry, input[1], input[2])?;
        let out = vec![input[0], oh, ow];
        report.push(self.describe(), input, &out);
        Ok(out)
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        if mode == Mode::Eval {
            return self.infer(x);
        }
        let fwd = maxpool2d_forward(x, self.geometry);
        self.cache = Some((fwd.argmax, x.shape().to_vec()));
        fwd.output
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        maxpool2d_forward(x, self.geometry).output
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // pv-analyze: allow(lib-panic) -- documented contract: backward requires a preceding Train-mode forward
        let (argmax, shape) = self.cache.take().expect("MaxPool backward without forward");
        maxpool2d_backward(grad_out, &argmax, &shape)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn visit_prunable(&mut self, _f: &mut dyn FnMut(&mut dyn PrunableLayer)) {}

    fn flops_per_sample(&self) -> u64 {
        0
    }

    fn describe(&self) -> String {
        format!(
            "maxpool{}x{}/s{}",
            self.geometry.kh, self.geometry.kw, self.geometry.stride
        )
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Global average pooling `[N, C, H, W] → [N, C]`.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    cache_hw: Option<(usize, usize)>,
}

impl GlobalAvgPool {
    /// Creates the layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn infer_shape(
        &self,
        input: &[usize],
        report: &mut crate::shape::ShapeReport,
    ) -> Result<Vec<usize>, pv_tensor::Error> {
        crate::shape::require_rank("gap", input, 3)?;
        let out = vec![input[0]];
        report.push(self.describe(), input, &out);
        Ok(out)
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        if mode == Mode::Train {
            self.cache_hw = Some((x.dim(2), x.dim(3)));
        }
        self.infer(x)
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        global_avg_pool_forward(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (h, w) = self
            .cache_hw
            .take()
            // pv-analyze: allow(lib-panic) -- documented contract: backward requires a preceding Train-mode forward
            .expect("GlobalAvgPool backward without forward");
        global_avg_pool_backward(grad_out, h, w)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn visit_prunable(&mut self, _f: &mut dyn FnMut(&mut dyn PrunableLayer)) {}

    fn flops_per_sample(&self) -> u64 {
        0
    }

    fn describe(&self) -> String {
        "gap".to_string()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Flattens `[N, ...]` to `[N, prod(...)]`.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cache_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates the layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn infer_shape(
        &self,
        input: &[usize],
        report: &mut crate::shape::ShapeReport,
    ) -> Result<Vec<usize>, pv_tensor::Error> {
        if input.is_empty() {
            return Err(pv_tensor::Error::ShapeMismatch {
                name: "flatten (rank)".to_string(),
                expected: vec![1],
                actual: vec![0],
            });
        }
        let out = vec![input.iter().product()];
        report.push(self.describe(), input, &out);
        Ok(out)
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        if mode == Mode::Train {
            self.cache_shape = Some(x.shape().to_vec());
        }
        self.infer(x)
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let n = x.dim(0);
        x.reshape(&[n, x.len() / n])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .cache_shape
            .take()
            // pv-analyze: allow(lib-panic) -- documented contract: backward requires a preceding Train-mode forward
            .expect("Flatten backward without forward");
        grad_out.reshape(&shape)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn visit_prunable(&mut self, _f: &mut dyn FnMut(&mut dyn PrunableLayer)) {}

    fn flops_per_sample(&self) -> u64 {
        0
    }

    fn describe(&self) -> String {
        "flatten".to_string()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::from_fn(&[2, 3, 2, 2], |i| i as f32);
        let y = f.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[2, 12]);
        let g = f.backward(&y);
        assert_eq!(g.shape(), x.shape());
        assert_eq!(g, x);
    }

    #[test]
    fn maxpool_layer_backward_routes() {
        let mut p = MaxPool::new(2, 2);
        let x = Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32);
        let y = p.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
        let g = p.backward(&Tensor::ones(&[1, 1, 2, 2]));
        assert_eq!(g.sum(), 4.0);
        assert_eq!(g.data()[5], 1.0);
    }

    #[test]
    fn gap_layer() {
        let mut p = GlobalAvgPool::new();
        let x = Tensor::ones(&[2, 3, 4, 4]);
        let y = p.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[2, 3]);
        assert!((y.mean() - 1.0).abs() < 1e-6);
        let g = p.backward(&Tensor::ones(&[2, 3]));
        assert_eq!(g.shape(), &[2, 3, 4, 4]);
        assert!((g.sum() - 6.0).abs() < 1e-5);
    }
}
