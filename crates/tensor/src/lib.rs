//! # pv-tensor
//!
//! A minimal, dependency-free, fully deterministic `f32` tensor library —
//! the numeric substrate of the `pruneval` workspace, which reproduces
//! *Lost in Pruning: The Effects of Pruning Neural Networks beyond Test
//! Accuracy* (Liebenwein et al., MLSys 2021) in Rust.
//!
//! The crate provides exactly what the study's networks need and nothing
//! more:
//!
//! * [`Tensor`] — dense row-major storage with element-wise algebra,
//!   reductions, and row-wise softmax;
//! * [`backend`] — the pluggable kernel seam: every hot kernel is a
//!   [`Backend`] trait method, with [`PackedBackend`] (production),
//!   [`SparseBackend`] (CSR kernels for pruned weights), and
//!   [`ScalarBackend`] (the bitwise oracle) selected at runtime via
//!   `PV_BACKEND` or a [`with_backend`] scope;
//! * [`sparse`] — CSR weight storage ([`Csr`]) behind the sparse
//!   backend, cached per tensor via [`Tensor::ensure_csr`];
//! * [`matmul`] / [`matmul_at_b`] / [`matmul_a_bt`] — the three dense
//!   products required by a linear layer and its backward pass; on the
//!   packed backend they are routed per problem shape by [`fn@select`]
//!   through BLIS-style packed panels and an [`MR`]`×`[`NR`] register
//!   microkernel, bitwise identical to the scalar backend. The packing,
//!   microkernel and selector modules are private: only the shape
//!   queries ([`fn@select`], [`select_matvec`], [`Routine`], [`Variant`])
//!   and the tile geometry are public, so every caller goes through a
//!   [`Backend`];
//! * [`conv2d_forward`] / [`conv2d_backward`] and pooling — im2col-based
//!   convolution with exact gradients, composed from each backend's own
//!   GEMMs;
//! * [`Rng`] — a seedable PCG32 generator so every experiment in the
//!   workspace is bit-for-bit reproducible;
//! * [`par`] — a zero-dependency `std::thread::scope` parallel runtime
//!   (`PV_NUM_THREADS`) whose disjoint-chunk scheduling keeps every result
//!   bitwise identical for any thread count;
//! * [`profile`] — the kernel-timing seam pv-obs hooks into (a no-op
//!   unless a hook is registered);
//! * [`stats`] — small descriptive statistics used in reporting;
//! * [`Error`] — the workspace-wide typed error enum (re-exported as
//!   `pruneval::Error`), hosted here at the root of the dependency graph.
//!
//! # Examples
//!
//! ```
//! use pv_tensor::{matmul, Rng, Tensor};
//!
//! let mut rng = Rng::new(0);
//! let x = Tensor::randn(&[4, 8], 0.0, 1.0, &mut rng);
//! let w = Tensor::randn(&[8, 3], 0.0, 0.1, &mut rng);
//! let logits = matmul(&x, &w);
//! let probs = logits.softmax_rows();
//! assert_eq!(probs.shape(), &[4, 3]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod conv;
pub mod error;
pub mod linalg;
mod microkernel;
mod pack;
pub mod par;
pub mod profile;
pub mod rng;
mod select;
pub mod sparse;
pub mod stats;
pub mod tensor;

pub use backend::{
    all_backends, backend_by_name, current_backend, with_backend, Backend, PackedBackend,
    ScalarBackend, SparseBackend, PACKED, SCALAR, SPARSE,
};
pub use conv::{
    col2im, concat_channels, conv2d_backward, conv2d_forward, global_avg_pool_backward,
    global_avg_pool_forward, im2col, matrix_to_nchw, maxpool2d_backward, maxpool2d_forward,
    nchw_to_matrix, slice_channels, ConvBackward, ConvForward, ConvGeometry, PoolForward,
};
pub use error::Error;
pub use linalg::{matmul, matmul_a_bt, matmul_at_b, matvec};
pub use microkernel::{MR, NR, NR_NARROW};
pub use rng::Rng;
pub use select::{select, select_matvec, Routine, Variant};
pub use sparse::{Csr, DEFAULT_MAX_DENSITY};
pub use tensor::Tensor;
