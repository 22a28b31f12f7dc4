//! The dense, row-major, `f32` [`Tensor`] type and its element-wise algebra.

use crate::rng::Rng;
use std::fmt;

/// A dense row-major tensor of `f32` values.
///
/// `Tensor` is the single numeric container used throughout the workspace:
/// network parameters, activations, gradients, images, and masks are all
/// tensors. The representation is always contiguous, which keeps the
/// implementation simple and the access patterns predictable.
///
/// # Examples
///
/// ```
/// use pv_tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
/// let b = Tensor::ones(&[2, 3]);
/// let c = a.add(&b);
/// assert_eq!(c.data(), &[2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
/// ```
#[derive(Clone)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
    /// Cached CSR view of a sparse 2-D tensor, built on demand by
    /// [`Tensor::ensure_csr`] and shared across clones through the `Arc`,
    /// so copying a prepared network neither rebuilds nor duplicates it.
    /// Derived state: every mutation drops it, and it never participates
    /// in equality or serialization.
    csr: Option<std::sync::Arc<crate::sparse::Csr>>,
}

impl PartialEq for Tensor {
    /// Structural equality on shape and dense contents. The cached CSR
    /// sidecar is derived state and never participates: a tensor with a
    /// sidecar equals its sidecar-free twin.
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data == other.data
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{:?}, ... {} values]",
                &self.data[..8],
                self.data.len()
            )
        }
    }
}

impl Default for Tensor {
    /// An empty 0-element tensor of shape `[0]`.
    fn default() -> Self {
        Self {
            shape: vec![0],
            data: Vec::new(),
            csr: None,
        }
    }
}

fn num_elements(shape: &[usize]) -> usize {
    shape.iter().product()
}

impl Tensor {
    // ---------------------------------------------------------------- ctors

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; num_elements(shape)],
            csr: None,
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self {
            shape: shape.to_vec(),
            data: vec![value; num_elements(shape)],
            csr: None,
        }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `shape`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Self {
        assert_eq!(
            num_elements(&shape),
            data.len(),
            "shape {shape:?} incompatible with buffer of length {}",
            data.len()
        );
        Self {
            shape,
            data,
            csr: None,
        }
    }

    /// Builds a tensor by calling `f` with each flat index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let n = num_elements(shape);
        Self {
            shape: shape.to_vec(),
            data: (0..n).map(&mut f).collect(),
            csr: None,
        }
    }

    /// I.i.d. uniform samples in `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut Rng) -> Self {
        Self::from_fn(shape, |_| rng.uniform_in(lo, hi))
    }

    /// I.i.d. normal samples with the given mean and standard deviation.
    pub fn randn(shape: &[usize], mean: f32, std: f32, rng: &mut Rng) -> Self {
        Self::from_fn(shape, |_| rng.normal_with(mean, std))
    }

    // ------------------------------------------------------------ accessors

    /// The shape of the tensor.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying contiguous buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying buffer.
    ///
    /// Handing out mutable access invalidates any cached CSR sidecar —
    /// the caller may change the sparsity pattern.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.csr = None;
        &mut self.data
    }

    /// Counts of `(NaN, ±Inf)` elements — the probe behind the `sanitize`
    /// feature's per-layer numeric checks.
    pub fn non_finite_counts(&self) -> (usize, usize) {
        let mut nan = 0;
        let mut inf = 0;
        for &v in &self.data {
            if v.is_nan() {
                nan += 1;
            } else if v.is_infinite() {
                inf += 1;
            }
        }
        (nan, inf)
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Size of dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d >= self.ndim()`.
    #[inline]
    pub fn dim(&self, d: usize) -> usize {
        self.shape[d]
    }

    /// Flat index for a 2-D position.
    #[inline]
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.ndim(), 2);
        self.data[i * self.shape[1] + j]
    }

    /// Sets a 2-D position.
    #[inline]
    pub fn set2(&mut self, i: usize, j: usize, v: f32) {
        debug_assert_eq!(self.ndim(), 2);
        let cols = self.shape[1];
        self.csr = None;
        self.data[i * cols + j] = v;
    }

    /// Flat index for a 4-D position (`[n, c, h, w]` layout).
    #[inline]
    pub fn idx4(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert_eq!(self.ndim(), 4);
        ((n * self.shape[1] + c) * self.shape[2] + h) * self.shape[3] + w
    }

    /// Value at a 4-D position.
    #[inline]
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.idx4(n, c, h, w)]
    }

    /// Sets a 4-D position.
    #[inline]
    pub fn set4(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
        let i = self.idx4(n, c, h, w);
        self.csr = None;
        self.data[i] = v;
    }

    // ------------------------------------------------------------- reshape

    /// Returns a tensor with the same buffer and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Self {
        assert_eq!(
            num_elements(shape),
            self.data.len(),
            "cannot reshape {:?} ({} elems) to {shape:?}",
            self.shape,
            self.data.len()
        );
        Self {
            shape: shape.to_vec(),
            data: self.data.clone(),
            csr: None,
        }
    }

    /// In-place variant of [`Tensor::reshape`].
    pub fn reshape_in_place(&mut self, shape: &[usize]) {
        assert_eq!(num_elements(shape), self.data.len());
        self.csr = None;
        self.shape = shape.to_vec();
    }

    // --------------------------------------------------------- elementwise

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, mut f: impl FnMut(f32) -> f32) -> Self {
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
            csr: None,
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, mut f: impl FnMut(f32) -> f32) {
        self.csr = None;
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise combination of two same-shape tensors.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_map(&self, other: &Self, mut f: impl FnMut(f32, f32) -> f32) -> Self {
        assert_eq!(self.shape, other.shape, "shape mismatch in zip_map");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Self {
            shape: self.shape.clone(),
            data,
            csr: None,
        }
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a * b)
    }

    /// In-place element-wise addition.
    pub fn add_assign(&mut self, other: &Self) {
        assert_eq!(self.shape, other.shape, "shape mismatch in add_assign");
        self.csr = None;
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += alpha * other` (axpy).
    pub fn add_scaled(&mut self, other: &Self, alpha: f32) {
        assert_eq!(self.shape, other.shape, "shape mismatch in add_scaled");
        self.csr = None;
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// In-place element-wise (Hadamard) product.
    pub fn mul_assign(&mut self, other: &Self) {
        assert_eq!(self.shape, other.shape, "shape mismatch in mul_assign");
        self.csr = None;
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a *= b;
        }
    }

    /// Multiplies every element by a scalar, producing a new tensor.
    pub fn scale(&self, alpha: f32) -> Self {
        self.map(|x| x * alpha)
    }

    /// In-place scalar multiply.
    pub fn scale_in_place(&mut self, alpha: f32) {
        self.map_in_place(|x| x * alpha);
    }

    /// Adds a scalar to every element, producing a new tensor.
    pub fn add_scalar(&self, c: f32) -> Self {
        self.map(|x| x + c)
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill(&mut self, value: f32) {
        self.csr = None;
        self.data.fill(value);
    }

    /// Clamps all elements to `[lo, hi]` in place.
    pub fn clamp_in_place(&mut self, lo: f32, hi: f32) {
        self.map_in_place(|x| x.clamp(lo, hi));
    }

    // ------------------------------------------------------ rows/broadcast

    /// Adds a bias row-vector to each row of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 2-D or `bias.len() != self.dim(1)`.
    pub fn add_row_broadcast(&mut self, bias: &Self) {
        assert_eq!(self.ndim(), 2, "add_row_broadcast requires a matrix");
        let (rows, cols) = (self.shape[0], self.shape[1]);
        assert_eq!(bias.len(), cols, "bias length mismatch");
        self.csr = None;
        for r in 0..rows {
            let row = &mut self.data[r * cols..(r + 1) * cols];
            for (x, &b) in row.iter_mut().zip(bias.data()) {
                *x += b;
            }
        }
    }

    /// Returns row `r` of a 2-D tensor as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.ndim(), 2, "row() requires a matrix");
        let cols = self.shape[1];
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Copies rows `[start, end)` of the first axis into a new tensor.
    ///
    /// Works for any rank: the first axis is treated as the batch axis.
    pub fn slice_first_axis(&self, start: usize, end: usize) -> Self {
        assert!(!self.shape.is_empty() && start <= end && end <= self.shape[0]);
        let inner: usize = self.shape[1..].iter().product();
        let mut shape = self.shape.clone();
        shape[0] = end - start;
        Self {
            shape,
            data: self.data[start * inner..end * inner].to_vec(),
            csr: None,
        }
    }

    /// Copies the rows of the first axis selected by `indices`.
    pub fn gather_first_axis(&self, indices: &[usize]) -> Self {
        assert!(!self.shape.is_empty());
        let inner: usize = self.shape[1..].iter().product();
        let mut shape = self.shape.clone();
        shape[0] = indices.len();
        let mut data = Vec::with_capacity(indices.len() * inner);
        for &i in indices {
            assert!(i < self.shape[0], "gather index {i} out of bounds");
            data.extend_from_slice(&self.data[i * inner..(i + 1) * inner]);
        }
        Self {
            shape,
            data,
            csr: None,
        }
    }

    /// Concatenates tensors along the first axis.
    ///
    /// # Panics
    ///
    /// Panics if the trailing shapes differ or the input is empty.
    pub fn concat_first_axis(parts: &[&Self]) -> Self {
        assert!(!parts.is_empty(), "concat of zero tensors");
        let tail = &parts[0].shape[1..];
        let mut rows = 0;
        for p in parts {
            assert_eq!(&p.shape[1..], tail, "trailing shape mismatch in concat");
            rows += p.shape[0];
        }
        let mut shape = parts[0].shape.clone();
        shape[0] = rows;
        let mut data = Vec::with_capacity(rows * tail.iter().product::<usize>());
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Self {
            shape,
            data,
            csr: None,
        }
    }

    /// Transposes a 2-D tensor.
    pub fn transpose2(&self) -> Self {
        assert_eq!(self.ndim(), 2, "transpose2 requires a matrix");
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = Self::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        out
    }

    // ----------------------------------------------------------- reductions

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Euclidean norm of the flattened tensor.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Sum of absolute values.
    pub fn l1_norm(&self) -> f32 {
        self.data.iter().map(|x| x.abs()).sum()
    }

    /// Number of non-zero elements.
    pub fn count_nonzero(&self) -> usize {
        self.data.iter().filter(|&&x| x != 0.0).count()
    }

    /// Index of the maximum in each row of a 2-D tensor (ties go to the
    /// first occurrence).
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.ndim(), 2, "argmax_rows requires a matrix");
        let (rows, cols) = (self.shape[0], self.shape[1]);
        (0..rows)
            .map(|r| {
                let row = &self.data[r * cols..(r + 1) * cols];
                let mut best = 0;
                for (j, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }

    /// Column-wise sum of a 2-D tensor (returns a `[cols]` tensor).
    pub fn sum_rows(&self) -> Self {
        assert_eq!(self.ndim(), 2, "sum_rows requires a matrix");
        let (rows, cols) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; cols];
        for r in 0..rows {
            for (o, &x) in out.iter_mut().zip(&self.data[r * cols..(r + 1) * cols]) {
                *o += x;
            }
        }
        Self {
            shape: vec![cols],
            data: out,
            csr: None,
        }
    }

    // -------------------------------------------------------------- softmax

    /// Row-wise numerically stable softmax of a 2-D tensor.
    pub fn softmax_rows(&self) -> Self {
        assert_eq!(self.ndim(), 2, "softmax_rows requires a matrix");
        let (rows, cols) = (self.shape[0], self.shape[1]);
        let mut out = self.clone();
        out.csr = None;
        for r in 0..rows {
            let row = &mut out.data[r * cols..(r + 1) * cols];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut z = 0.0;
            for x in row.iter_mut() {
                *x = (*x - m).exp();
                z += *x;
            }
            let inv = 1.0 / z;
            for x in row.iter_mut() {
                *x *= inv;
            }
        }
        out
    }

    /// Row-wise log-softmax of a 2-D tensor.
    pub fn log_softmax_rows(&self) -> Self {
        assert_eq!(self.ndim(), 2, "log_softmax_rows requires a matrix");
        let (rows, cols) = (self.shape[0], self.shape[1]);
        let mut out = self.clone();
        out.csr = None;
        for r in 0..rows {
            let row = &mut out.data[r * cols..(r + 1) * cols];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let z: f32 = row.iter().map(|&x| (x - m).exp()).sum();
            let log_z = m + z.ln();
            for x in row.iter_mut() {
                *x -= log_z;
            }
        }
        out
    }

    // -------------------------------------------------------------- sparse

    /// The cached CSR view of this tensor, if [`Tensor::ensure_csr`] built
    /// one and no mutation has invalidated it since.
    ///
    /// The sparse backend uses this as its routing signal: a weight with a
    /// sidecar runs the CSR kernels, everything else falls back to dense.
    #[inline]
    pub fn csr(&self) -> Option<&crate::sparse::Csr> {
        self.csr.as_deref()
    }

    /// Builds and caches a CSR sidecar when this is a non-empty 2-D tensor
    /// whose nonzero density is at or below `max_density`; returns whether
    /// a sidecar is present afterwards.
    ///
    /// Idempotent (an existing sidecar is kept), and a no-op — returning
    /// `false` — for non-matrices and for tensors too dense to profit from
    /// sparse kernels. Clones share the sidecar through an `Arc`, so
    /// preparing a model once covers every per-worker copy of it.
    pub fn ensure_csr(&mut self, max_density: f32) -> bool {
        if self.csr.is_some() {
            return true;
        }
        if self.ndim() != 2 || self.is_empty() {
            return false;
        }
        let csr = crate::sparse::Csr::from_dense(self);
        if csr.density() <= f64::from(max_density) {
            self.csr = Some(std::sync::Arc::new(csr));
            true
        } else {
            false
        }
    }

    /// Drops the cached CSR sidecar (if any).
    pub fn clear_csr(&mut self) {
        self.csr = None;
    }

    /// Whether all elements are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute element-wise difference to another tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch in max_abs_diff");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl FromIterator<f32> for Tensor {
    /// Collects into a 1-D tensor.
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        let data: Vec<f32> = iter.into_iter().collect();
        Self {
            shape: vec![data.len()],
            data,
            csr: None,
        }
    }
}

impl From<Vec<f32>> for Tensor {
    /// Wraps a buffer as a 1-D tensor.
    fn from(data: Vec<f32>) -> Self {
        Self {
            shape: vec![data.len()],
            data,
            csr: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_shape() {
        let z = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(z.len(), 24);
        assert_eq!(z.ndim(), 3);
        assert_eq!(z.sum(), 0.0);
        let o = Tensor::ones(&[5]);
        assert_eq!(o.sum(), 5.0);
        let f = Tensor::full(&[2, 2], 3.0);
        assert_eq!(f.mean(), 3.0);
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn from_vec_shape_mismatch_panics() {
        Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn elementwise_algebra() {
        let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(vec![2, 2], vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(a.add(&b).data(), &[11.0, 22.0, 33.0, 44.0]);
        assert_eq!(b.sub(&a).data(), &[9.0, 18.0, 27.0, 36.0]);
        assert_eq!(a.mul(&b).data(), &[10.0, 40.0, 90.0, 160.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0, 8.0]);
        let mut c = a.clone();
        c.add_scaled(&b, 0.5);
        assert_eq!(c.data(), &[6.0, 12.0, 18.0, 24.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose2();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.at2(0, 1), 4.0);
        assert_eq!(t.transpose2(), a);
    }

    #[test]
    fn softmax_rows_are_distributions() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(s.row(r).iter().all(|&x| x > 0.0));
        }
        // softmax is monotone in the logits
        assert!(s.at2(0, 2) > s.at2(0, 1));
    }

    #[test]
    fn log_softmax_matches_softmax() {
        let a = Tensor::from_vec(vec![1, 4], vec![0.3, -1.2, 2.0, 0.0]);
        let s = a.softmax_rows();
        let ls = a.log_softmax_rows();
        for j in 0..4 {
            assert!((ls.at2(0, j).exp() - s.at2(0, j)).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let a = Tensor::from_vec(vec![1, 3], vec![1000.0, 1001.0, 999.0]);
        let s = a.softmax_rows();
        assert!(s.all_finite());
        assert!((s.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn argmax_rows_and_ties() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 5.0, 5.0, -1.0, -2.0, -0.5]);
        assert_eq!(a.argmax_rows(), vec![1, 2]);
    }

    #[test]
    fn slice_and_gather_and_concat() {
        let a = Tensor::from_vec(vec![3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s = a.slice_first_axis(1, 3);
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.data(), &[3.0, 4.0, 5.0, 6.0]);
        let g = a.gather_first_axis(&[2, 0]);
        assert_eq!(g.data(), &[5.0, 6.0, 1.0, 2.0]);
        let c = Tensor::concat_first_axis(&[&s, &g]);
        assert_eq!(c.shape(), &[4, 2]);
        assert_eq!(c.data()[0], 3.0);
        assert_eq!(c.data()[7], 2.0);
    }

    #[test]
    fn broadcast_bias() {
        let mut a = Tensor::zeros(&[2, 3]);
        let b = Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]);
        a.add_row_broadcast(&b);
        assert_eq!(a.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![2, 2], vec![-3.0, 4.0, 0.0, 1.0]);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.min(), -3.0);
        assert_eq!(a.l1_norm(), 8.0);
        assert!((a.l2_norm() - (26.0f32).sqrt()).abs() < 1e-6);
        assert_eq!(a.count_nonzero(), 3);
        let sr = a.sum_rows();
        assert_eq!(sr.data(), &[-3.0, 5.0]);
    }

    #[test]
    fn rand_tensors_are_seed_deterministic() {
        let mut r1 = Rng::new(9);
        let mut r2 = Rng::new(9);
        let a = Tensor::rand_uniform(&[4, 4], -1.0, 1.0, &mut r1);
        let b = Tensor::rand_uniform(&[4, 4], -1.0, 1.0, &mut r2);
        assert_eq!(a, b);
        assert!(a.data().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn csr_sidecar_lifecycle() {
        // 2 nonzeros out of 8 → density 0.25
        let mut t = Tensor::from_vec(vec![2, 4], vec![0.0, 3.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0]);
        assert!(t.csr().is_none());
        assert!(!t.ensure_csr(0.1), "too dense for threshold 0.1");
        assert!(t.ensure_csr(0.25));
        let csr = t.csr().expect("sidecar built");
        assert_eq!(csr.nnz(), 2);
        // idempotent: a second call keeps the sidecar even below threshold
        assert!(t.ensure_csr(0.0));

        // clones share the sidecar; equality ignores it
        let c = t.clone();
        assert!(c.csr().is_some());
        let mut plain = Tensor::from_vec(vec![2, 4], vec![0.0, 3.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0]);
        assert_eq!(t, plain);
        assert_eq!(plain, t);

        // any mutation drops the cache (the clone keeps its own copy)
        t.set2(0, 0, 7.0);
        assert!(t.csr().is_none());
        assert!(c.csr().is_some());
        assert!(plain.ensure_csr(1.0));
        plain.fill(0.5);
        assert!(plain.csr().is_none());
        plain.ensure_csr(1.0);
        plain.data_mut()[0] = 0.0;
        assert!(plain.csr().is_none());

        // non-matrices never build one
        let mut v = Tensor::zeros(&[4]);
        assert!(!v.ensure_csr(1.0));
    }

    #[test]
    fn idx4_layout_is_nchw() {
        let mut t = Tensor::zeros(&[2, 3, 4, 5]);
        t.set4(1, 2, 3, 4, 7.0);
        assert_eq!(t.data()[((3 + 2) * 4 + 3) * 5 + 4], 7.0);
        assert_eq!(t.at4(1, 2, 3, 4), 7.0);
    }
}
