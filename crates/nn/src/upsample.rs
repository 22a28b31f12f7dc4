//! Nearest-neighbour spatial upsampling (used by the dense-prediction
//! head of the DeeplabV3 analogue).

use crate::layer::{Layer, Mode, PrunableLayer};
use crate::param::Param;
use pv_tensor::Tensor;

/// Nearest-neighbour upsampling by an integer factor.
#[derive(Debug, Clone)]
pub struct NearestUpsample {
    factor: usize,
}

impl NearestUpsample {
    /// Creates an upsampler.
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0`.
    pub fn new(factor: usize) -> Self {
        assert!(factor > 0, "upsample factor must be positive");
        Self { factor }
    }

    /// The upsampling factor.
    pub fn factor(&self) -> usize {
        self.factor
    }
}

impl Layer for NearestUpsample {
    fn infer_shape(
        &self,
        input: &[usize],
        report: &mut crate::shape::ShapeReport,
    ) -> Result<Vec<usize>, pv_tensor::Error> {
        crate::shape::require_rank("upsample", input, 3)?;
        let out = vec![input[0], input[1] * self.factor, input[2] * self.factor];
        report.push(self.describe(), input, &out);
        Ok(out)
    }

    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        self.infer(x)
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.ndim(), 4, "NearestUpsample expects NCHW input");
        let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let f = self.factor;
        let mut out = Tensor::zeros(&[n, c, h * f, w * f]);
        let xd = x.data();
        let od = out.data_mut();
        let (oh, ow) = (h * f, w * f);
        for ni in 0..n {
            for ci in 0..c {
                let src = (ni * c + ci) * h * w;
                let dst = (ni * c + ci) * oh * ow;
                for y in 0..oh {
                    for xw in 0..ow {
                        od[dst + y * ow + xw] = xd[src + (y / f) * w + (xw / f)];
                    }
                }
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // adjoint of replication = sum over each f×f block
        assert_eq!(grad_out.ndim(), 4);
        let (n, c, oh, ow) = (
            grad_out.dim(0),
            grad_out.dim(1),
            grad_out.dim(2),
            grad_out.dim(3),
        );
        let f = self.factor;
        assert!(
            oh % f == 0 && ow % f == 0,
            "gradient not divisible by factor"
        );
        let (h, w) = (oh / f, ow / f);
        let mut grad_in = Tensor::zeros(&[n, c, h, w]);
        let gd = grad_out.data();
        let gi = grad_in.data_mut();
        for ni in 0..n {
            for ci in 0..c {
                let src = (ni * c + ci) * oh * ow;
                let dst = (ni * c + ci) * h * w;
                for y in 0..oh {
                    for xw in 0..ow {
                        gi[dst + (y / f) * w + (xw / f)] += gd[src + y * ow + xw];
                    }
                }
            }
        }
        grad_in
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn visit_prunable(&mut self, _f: &mut dyn FnMut(&mut dyn PrunableLayer)) {}

    fn flops_per_sample(&self) -> u64 {
        0
    }

    fn describe(&self) -> String {
        format!("upsample x{}", self.factor)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_tensor::Rng;

    #[test]
    fn forward_replicates() {
        let mut up = NearestUpsample::new(2);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = up.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 1, 4, 4]);
        assert_eq!(
            y.data(),
            &[1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 3.0, 3.0, 4.0, 4.0]
        );
    }

    #[test]
    fn backward_is_adjoint() {
        let mut up = NearestUpsample::new(2);
        let mut rng = Rng::new(1);
        let x = Tensor::rand_uniform(&[1, 2, 3, 3], -1.0, 1.0, &mut rng);
        let y = up.forward(&x, Mode::Train);
        let g = Tensor::rand_uniform(y.shape(), -1.0, 1.0, &mut rng);
        let gi = up.backward(&g);
        // <up(x), g> == <x, up^T(g)>
        let lhs: f32 = y.data().iter().zip(g.data()).map(|(&a, &b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(gi.data()).map(|(&a, &b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3);
    }

    #[test]
    fn factor_one_is_identity() {
        let mut up = NearestUpsample::new(1);
        let x = Tensor::from_fn(&[2, 1, 2, 2], |i| i as f32);
        assert_eq!(up.forward(&x, Mode::Eval), x);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_factor_panics() {
        NearestUpsample::new(0);
    }
}
