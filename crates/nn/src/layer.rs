//! The [`Layer`] abstraction: forward/backward with cached state, parameter
//! visitation, and structured-pruning hooks.

use crate::param::Param;
use crate::shape::ShapeReport;
use pv_tensor::{Error, Tensor};

/// Whether a forward pass is part of training (batch statistics, caching for
/// backward) or evaluation (running statistics, no caching requirements).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: batch-norm uses batch statistics and layers cache
    /// activations for the next backward pass.
    Train,
    /// Inference: batch-norm uses running statistics.
    Eval,
}

/// What kind of computation a prunable leaf performs; structured pruning
/// treats rows of the weight matrix as neurons (linear) or filters (conv).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitKind {
    /// A fully connected layer; a "unit" is an output neuron.
    Linear,
    /// A convolution; a "unit" is an output filter/channel.
    Conv,
}

/// A leaf layer that pruning methods can operate on.
///
/// Both unstructured methods (WT, SiPP — scoring individual weight entries)
/// and structured methods (FT, PFP — scoring whole rows, i.e.
/// filters/neurons) address layers through this interface. The weight is
/// always a 2-D matrix whose rows are output units.
pub trait PrunableLayer {
    /// Human-readable identifier (unique within a network by construction).
    fn label(&self) -> &str;

    /// The layer's weight parameter, shape `[out_units, unit_len]`.
    fn weight(&self) -> &Param;

    /// Mutable access to the weight parameter.
    fn weight_mut(&mut self) -> &mut Param;

    /// The bias parameter, if present (`[out_units]`).
    fn bias_mut(&mut self) -> Option<&mut Param>;

    /// Batch-norm affine parameters coupled to this layer's output units
    /// (masked together with pruned rows in structured pruning).
    fn coupled_mut(&mut self) -> Vec<&mut Param>;

    /// Number of output units (rows of the weight matrix).
    fn out_units(&self) -> usize;

    /// Length of one unit's weight row.
    fn unit_len(&self) -> usize;

    /// Whether this is the final classifier layer (never pruned
    /// structurally, as in the reference torchprune implementation).
    fn is_classifier(&self) -> bool;

    /// The layer kind (linear or convolution).
    fn unit_kind(&self) -> UnitKind;

    /// Dense multiply-accumulate count per input sample.
    fn dense_flops(&self) -> u64;

    /// Mean absolute activation of each *input* coordinate, cached from the
    /// most recent forward pass — the `a(x)` term used by the data-informed
    /// methods SiPP and PFP. Length `unit_len`. `None` if no forward pass
    /// ran since construction.
    fn input_sensitivity(&self) -> Option<&Tensor>;
}

/// A differentiable network component.
///
/// Layers own their parameters and cache whatever they need during
/// [`Layer::forward`] in `Train` mode so that the next [`Layer::backward`]
/// call can produce exact gradients.
///
/// The visitation methods are the only way external code (optimizer, pruning
/// methods, statistics) reaches the parameters, which keeps containers free
/// to nest arbitrarily.
///
/// `Send + Sync` is a supertrait so one `&Network` can be shared by the
/// `pv-par` workers of an evaluation sweep and by every serving worker,
/// each calling [`Layer::infer`] on it; layers are plain owned data, so
/// every implementor satisfies it structurally.
pub trait Layer: Send + Sync {
    /// Computes the layer output. In `Train` mode the layer caches its
    /// inputs/intermediates for the following `backward`; in both modes a
    /// prunable leaf records its input sensitivity. `Eval` mode returns
    /// exactly what [`Layer::infer`] returns.
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor;

    /// The eval-mode forward pass through a shared reference: the bits of
    /// `forward(x, Mode::Eval)`, with nothing cached and no sensitivity
    /// recorded. Inference paths (evaluation sweeps, serving) call this;
    /// only pruning needs the sensitivities `forward` writes.
    fn infer(&self, x: &Tensor) -> Tensor;

    /// Propagates `grad_out` (gradient w.r.t. this layer's output) to the
    /// gradient w.r.t. its input, accumulating parameter gradients.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called without a preceding `Train`
    /// forward pass.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Statically maps a per-sample input shape (no batch axis, e.g.
    /// `[3, 16, 16]` or `[256]`) to this layer's output shape without
    /// allocating activations or touching parameters.
    ///
    /// Leaves append a record to `report`; containers recurse. Returns
    /// [`Error::ShapeMismatch`] when the layer cannot accept `input` —
    /// wrong rank, wrong channel/feature count, or a conv/pool window
    /// that does not fit.
    ///
    /// This is a *required* method: a new layer cannot be added to the
    /// workspace without declaring its shape semantics, which is what the
    /// preset validation in `pruneval-core` and the checkpoint-load check
    /// in `pv-ckpt` rely on.
    fn infer_shape(&self, input: &[usize], report: &mut ShapeReport) -> Result<Vec<usize>, Error>;

    /// Calls `f` on every parameter of the layer (depth-first, forward
    /// order).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Calls `f` with a stable hierarchical name and a mutable reference to
    /// every parameter, in exactly the same order as [`Layer::visit_params`].
    ///
    /// Containers pass `prefix` through unchanged; leaves emit
    /// `"{prefix}{label}.{field}"` names such as `s0b0c0.weight`,
    /// `fc0.bias`, or `stem.bn.gamma`. Leaf labels are unique within a
    /// network by construction, so the emitted names form a collision-free
    /// state dictionary — the single addressing scheme used by checkpoint
    /// save/load and future serving.
    ///
    /// The default implementation visits nothing, which is correct for
    /// parameter-free layers (pooling, flatten, upsample).
    fn visit_params_named(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        let _ = (prefix, f);
    }

    /// Calls `f` with a stable hierarchical name and a mutable view of every
    /// non-trainable buffer (currently the batch-norm running statistics,
    /// named `"{prefix}{label}.bn.running_mean"` / `…running_var`).
    ///
    /// Buffers are exposed as slices so callers can read or overwrite them
    /// but never change their length. The default implementation visits
    /// nothing (correct for layers without buffers).
    fn visit_buffers_named(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut [f32])) {
        let _ = (prefix, f);
    }

    /// Calls `f` on every prunable leaf in forward order.
    fn visit_prunable(&mut self, f: &mut dyn FnMut(&mut dyn PrunableLayer));

    /// Downcast hook for structured-prune compaction: `Some(self)` when
    /// this leaf is a [`crate::linear::LinearBlock`] — the only layer kind
    /// [`crate::network::Network::compact`] can physically shrink today.
    /// The default (`None`) marks a layer as non-compactable, which makes
    /// compaction refuse the whole network rather than silently skip it.
    fn as_linear(&self) -> Option<&crate::linear::LinearBlock> {
        None
    }

    /// Mutable counterpart of [`Layer::as_linear`].
    fn as_linear_mut(&mut self) -> Option<&mut crate::linear::LinearBlock> {
        None
    }

    /// Dense multiply-accumulate count per input sample, summed over all
    /// leaves.
    fn flops_per_sample(&self) -> u64;

    /// Short human-readable description, e.g. `conv3x3(16->32)/s2`.
    fn describe(&self) -> String;

    /// Clones the layer behind a box (layers are used as trait objects, so
    /// `Clone` cannot be required directly).
    fn clone_box(&self) -> Box<dyn Layer>;
}

/// ReLU as a multiply by this 0/1 gate (`1` where `v > 0`). A multiply
/// keeps the sign of zero (`-3.0 * 0.0 == -0.0`) where `max(v, 0.0)` would
/// not, so [`Layer::infer`], which gates in place, and training, which
/// keeps the gate as its backward mask, produce the same bits.
pub(crate) fn relu_gate(v: f32) -> f32 {
    if v > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Applies ReLU in place through [`relu_gate`].
pub(crate) fn relu_in_place(y: &mut Tensor) {
    y.map_in_place(|v| v * relu_gate(v));
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}
