//! Neural-network layers with explicit forward/backward passes.
//!
//! Every layer caches its forward-pass intermediates under a caller-supplied
//! [`Slot`] (minibatch id), so several minibatches can be in flight at once —
//! the property pipeline-parallel execution depends on (paper §4,
//! "Intermediate State"). The slot's backward pass consumes the cache in
//! two halves: the input gradient, then the weight gradient.

mod activation;
mod conv;
mod dropout;
mod embedding;
mod gru;
mod linear;
mod lstm;
mod norm;
mod pool;

pub use activation::{Relu, Sigmoid, Softmax, Tanh};
pub use conv::{conv2d_direct, conv2d_direct_backward, Conv2d};
pub use dropout::Dropout;
pub use embedding::Embedding;
pub use gru::Gru;
pub use linear::Linear;
pub use lstm::{Lstm, SeqLast};
pub use norm::Scale;
pub use pool::{AvgPool2d, Flatten, MaxPool2d, Reshape};

use crate::tensor::Tensor;

/// Identifier for an in-flight minibatch whose activations a layer must keep.
pub type Slot = u64;

/// State kept per in-flight minibatch, keyed by [`Slot`]. A stage holds
/// at most NOAM minibatches at once, so a scan over a short `Vec` finds
/// a slot in a few compares: nothing is hashed, and once the `Vec` has
/// grown to the pipeline's depth nothing is allocated either.
#[derive(Debug, Clone)]
pub struct SlotMap<T> {
    entries: Vec<(Slot, T)>,
}

impl<T> Default for SlotMap<T> {
    fn default() -> Self {
        SlotMap::new()
    }
}

impl<T> SlotMap<T> {
    /// An empty map.
    pub const fn new() -> Self {
        SlotMap {
            entries: Vec::new(),
        }
    }

    /// Keep `value` under `slot`, returning what `slot` held before.
    pub fn insert(&mut self, slot: Slot, value: T) -> Option<T> {
        match self.entries.iter_mut().find(|(s, _)| *s == slot) {
            Some((_, old)) => Some(std::mem::replace(old, value)),
            None => {
                self.entries.push((slot, value));
                None
            }
        }
    }

    /// What `slot` holds, to change in place.
    pub fn get_mut(&mut self, slot: Slot) -> Option<&mut T> {
        self.entries
            .iter_mut()
            .find(|(s, _)| *s == slot)
            .map(|(_, v)| v)
    }

    /// Take what `slot` holds out of the map.
    pub fn remove(&mut self, slot: Slot) -> Option<T> {
        let i = self.entries.iter().position(|(s, _)| *s == slot)?;
        Some(self.entries.swap_remove(i).1)
    }

    /// Drop every slot's state.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The state of every slot held, in no particular order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().map(|(_, v)| v)
    }
}

/// A trainable parameter: value plus accumulated gradient.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name (for checkpoints and debugging), e.g. `"fc1.weight"`.
    pub name: String,
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

impl Param {
    /// Wrap an initial value with a zero gradient.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param {
            name: name.into(),
            value,
            grad,
        }
    }

    /// Reset the gradient to zero (in place — keeps the buffer). An empty
    /// gradient, one [`Layer::reset_grads`] left for the next backward to
    /// overwrite, becomes a zeroed one.
    pub fn zero_grad(&mut self) {
        if self.grad.len() == self.value.len() {
            self.grad.fill(0.0);
        } else {
            self.grad = Tensor::zeros(self.value.shape());
        }
    }
}

/// A neural-network layer.
///
/// `forward` stores whatever it needs under `slot`. The backward pass for
/// the same slot has two halves, as a PipeDream stage runs it (§3.3): the
/// input half, [`Layer::backward_input`], computes the gradient w.r.t. the
/// layer input, which goes upstream, and keeps in the slot what the weight
/// gradient needs; the weight half, [`Layer::backward_weight`], consumes it
/// and stores each parameter's gradient into [`Param::grad`].
/// [`Layer::backward`] runs both.
pub trait Layer: Send {
    /// Short human-readable layer name.
    fn name(&self) -> &str;

    /// Forward pass for the minibatch identified by `slot`.
    fn forward(&mut self, x: &Tensor, slot: Slot) -> Tensor;

    /// The input half of `slot`'s backward pass: the gradient w.r.t. the
    /// layer input, or `None` when `input_grad` is off and nobody reads it
    /// (a model's first layer). Takes the output gradient by value, so a
    /// layer whose weight half reads it keeps it in the slot uncopied, and
    /// any other hands it back to the pool.
    fn backward_input(&mut self, grad_out: Tensor, slot: Slot, input_grad: bool) -> Option<Tensor>;

    /// The weight half of `slot`'s backward pass, after its input half:
    /// adds each parameter's gradient into [`Param::grad`] — or writes it,
    /// where [`Layer::reset_grads`] left the gradient empty. Layers whose
    /// input half computes the weight gradients in the same loops (GRU and
    /// LSTM, where backpropagation through time couples the two; `Conv2d`,
    /// one pass per image) have stored them there and inherit this no-op,
    /// as do layers without parameters.
    fn backward_weight(&mut self, _slot: Slot) {}

    /// `slot`'s whole backward pass, its input half then its weight half:
    /// the input gradient, with the parameter gradients stored.
    fn backward(&mut self, grad_out: &Tensor, slot: Slot) -> Tensor {
        let dx = self.backward_input(grad_out.clone(), slot, true);
        self.backward_weight(slot);
        dx.expect("an input gradient was asked for")
    }

    /// Call `f` on each trainable parameter, in order (stateless layers
    /// have none). Every walk over the parameters is built on this and
    /// [`Layer::visit_params_mut`], so the per-minibatch ones — weight
    /// swaps, the optimizer step — collect nothing.
    fn visit_params<'a>(&'a self, _f: &mut dyn FnMut(&'a Param)) {}

    /// Call `f` on each trainable parameter, mutably, in order.
    fn visit_params_mut<'a>(&'a mut self, _f: &mut dyn FnMut(&'a mut Param)) {}

    /// The layer's trainable parameters, collected.
    fn params(&self) -> Vec<&Param> {
        let mut params = Vec::new();
        self.visit_params(&mut |p| params.push(p));
        params
    }

    /// Mutable access to the trainable parameters, collected.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = Vec::new();
        self.visit_params_mut(&mut |p| params.push(p));
        params
    }

    /// Output shape for a given input shape (batch dimension included).
    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize>;

    /// Approximate FLOPs per *sample* for the forward pass given the
    /// per-sample input shape (no batch dimension). Used by the profiler.
    fn flops_per_sample(&self, _input_shape: &[usize]) -> f64 {
        0.0
    }

    /// Drop all cached per-slot state (e.g. after a pipeline flush).
    fn clear_slots(&mut self);

    /// Drop the cached state of a single in-flight minibatch without
    /// touching the others. Activation recomputation calls this right
    /// after a forward pass; the stash is rebuilt by a second forward
    /// just before the slot's backward. Stateless layers inherit the
    /// no-op.
    fn clear_slot(&mut self, _slot: Slot) {}

    /// Bytes of per-slot forward state currently cached — the live
    /// activation stash the runtime's memory gauges report. Stateless
    /// layers hold nothing.
    fn cached_bytes(&self) -> u64 {
        0
    }

    /// Number of scalar parameters.
    fn param_count(&self) -> usize {
        let mut count = 0;
        self.visit_params(&mut |p| count += p.value.len());
        count
    }

    /// Zero all parameter gradients.
    fn zero_grad(&mut self) {
        self.visit_params_mut(&mut |p| p.zero_grad());
    }

    /// Give the parameters, in order, gradient buffers for the backward
    /// passes of the next update, from `stale`: one tensor per parameter,
    /// its contents unspecified (a gradient-sync round's spent deposit), or
    /// none. By default each is zeroed for the passes to add into. A layer
    /// whose first backward pass overwrites its gradients instead (`Linear`)
    /// may leave them empty and hand the buffers back to the pool. Returns
    /// the floats left empty.
    fn reset_grads(&mut self, stale: &mut dyn Iterator<Item = Tensor>) -> u64 {
        self.visit_params_mut(&mut |p| match stale.next() {
            Some(t) => {
                p.grad = t;
                p.zero_grad();
            }
            None => p.zero_grad(),
        });
        0
    }

    /// Snapshot the current parameter values (for weight stashing and
    /// checkpointing).
    fn snapshot(&self) -> Vec<Tensor> {
        let mut values = Vec::new();
        self.visit_params(&mut |p| values.push(p.value.clone()));
        values
    }

    /// Exchange the parameter values with `values` (one tensor per
    /// parameter, in [`Layer::params`] order): O(#params) pointer swaps,
    /// no element is copied. Weight stashing runs a pass under an older
    /// version by swapping it in and, with the same call, back out.
    fn swap_values(&mut self, values: &mut [Tensor]) {
        let mut values = values.iter_mut();
        self.visit_params_mut(&mut |p| {
            let v = values.next().expect("parameter count mismatch");
            assert_eq!(p.value.shape(), v.shape(), "parameter shape mismatch");
            std::mem::swap(&mut p.value, v);
        });
        assert!(values.next().is_none(), "parameter count mismatch");
    }

    /// Clone the layer into a box — used to replicate pipeline stages
    /// across data-parallel workers.
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Restore parameter values from a snapshot taken with [`Layer::snapshot`].
    fn restore(&mut self, snapshot: &[Tensor]) {
        let mut snapshot = snapshot.iter();
        self.visit_params_mut(&mut |p| {
            let s = snapshot.next().expect("snapshot/parameter count mismatch");
            assert_eq!(p.value.shape(), s.shape(), "snapshot shape mismatch");
            p.value.copy_from(s);
        });
        assert!(
            snapshot.next().is_none(),
            "snapshot/parameter count mismatch"
        );
    }
}

/// `dx` as [`Layer::backward_input`] returns it: itself if `input_grad`,
/// else `None`, its buffer back in the pool.
pub(crate) fn keep(dx: Tensor, input_grad: bool) -> Option<Tensor> {
    if input_grad {
        Some(dx)
    } else {
        dx.recycle();
        None
    }
}

/// An ordered chain of layers, itself usable as a [`Layer`].
///
/// [`Sequential::split_off`] partitions a model into pipeline stages:
///
/// ```
/// use pipedream_tensor::init::rng;
/// use pipedream_tensor::layers::{Linear, Relu};
/// use pipedream_tensor::{Layer, Sequential, Tensor};
///
/// let mut r = rng(0);
/// let model = Sequential::new("mlp")
///     .push(Linear::new(4, 8, &mut r))
///     .push(Relu::new())
///     .push(Linear::new(8, 2, &mut r));
/// let stages = model.split_off(&[2]); // stage 0: layers 0..2, stage 1: rest
/// assert_eq!(stages.len(), 2);
/// assert_eq!(stages[1].output_shape(&[5, 8]), vec![5, 2]);
/// ```
pub struct Sequential {
    name: String,
    layers: Vec<Box<dyn Layer>>,
}

impl Clone for Sequential {
    fn clone(&self) -> Self {
        Sequential {
            name: self.name.clone(),
            layers: self.layers.iter().map(|l| l.clone_box()).collect(),
        }
    }
}

impl Sequential {
    /// An empty container named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Sequential {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// Append a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Append a boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Consume the container, yielding its layers (used to reassemble a
    /// full model from trained pipeline stages).
    pub fn into_layers(self) -> Vec<Box<dyn Layer>> {
        self.layers
    }

    /// Number of layers in the chain.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Borrow the contained layers.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutably borrow the contained layers (used by the profiler to time
    /// each layer individually).
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Split the model into consecutive stages at the given layer-boundary
    /// indices. `boundaries = [b_1, …]` means stage 0 holds layers
    /// `0..b_1`, stage 1 holds `b_1..b_2`, etc. Consumes `self`.
    pub fn split_off(self, boundaries: &[usize]) -> Vec<Sequential> {
        let n = self.layers.len();
        let mut cuts = vec![0usize];
        cuts.extend_from_slice(boundaries);
        cuts.push(n);
        assert!(
            cuts.windows(2).all(|w| w[0] < w[1]),
            "stage boundaries must be strictly increasing and within 1..{n}"
        );
        let mut stages = Vec::with_capacity(cuts.len() - 1);
        let mut layers = self.layers.into_iter();
        for (i, w) in cuts.windows(2).enumerate() {
            let mut stage = Sequential::new(format!("{}:stage{}", self.name, i));
            for _ in w[0]..w[1] {
                stage.layers.push(layers.next().expect("boundary in range"));
            }
            stages.push(stage);
        }
        stages
    }

    /// Per-layer output shapes for an input of `input_shape` (with batch dim).
    pub fn shapes(&self, input_shape: &[usize]) -> Vec<Vec<usize>> {
        let mut shape = input_shape.to_vec();
        let mut out = Vec::with_capacity(self.layers.len());
        for l in &self.layers {
            shape = l.output_shape(&shape);
            out.push(shape.clone());
        }
        out
    }
}

impl Layer for Sequential {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: &Tensor, slot: Slot) -> Tensor {
        // Each layer caches whatever it needs internally, so intermediate
        // activations are dead once the next layer has consumed them —
        // recycle their storage instead of dropping it.
        let mut cur: Option<Tensor> = None;
        for l in &mut self.layers {
            let next = l.forward(cur.as_ref().unwrap_or(x), slot);
            if let Some(prev) = cur.replace(next) {
                prev.recycle();
            }
        }
        cur.unwrap_or_else(|| x.clone())
    }

    /// Last layer to first, each taking the gradient the one above it
    /// returned; only the first may be asked for none.
    fn backward_input(&mut self, grad_out: Tensor, slot: Slot, input_grad: bool) -> Option<Tensor> {
        let mut cur = grad_out;
        for (i, l) in self.layers.iter_mut().enumerate().rev() {
            cur = l.backward_input(cur, slot, input_grad || i > 0)?;
        }
        keep(cur, input_grad)
    }

    fn backward_weight(&mut self, slot: Slot) {
        for l in self.layers.iter_mut().rev() {
            l.backward_weight(slot);
        }
    }

    fn reset_grads(&mut self, stale: &mut dyn Iterator<Item = Tensor>) -> u64 {
        self.layers.iter_mut().map(|l| l.reset_grads(stale)).sum()
    }

    fn visit_params<'a>(&'a self, f: &mut dyn FnMut(&'a Param)) {
        for l in &self.layers {
            l.visit_params(f);
        }
    }

    fn visit_params_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param)) {
        for l in &mut self.layers {
            l.visit_params_mut(f);
        }
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        let mut shape = input_shape.to_vec();
        for l in &self.layers {
            shape = l.output_shape(&shape);
        }
        shape
    }

    fn flops_per_sample(&self, input_shape: &[usize]) -> f64 {
        let mut shape = input_shape.to_vec();
        let mut flops = 0.0;
        for l in &self.layers {
            flops += l.flops_per_sample(&shape[1..]);
            shape = l.output_shape(&shape);
        }
        flops
    }

    fn clear_slots(&mut self) {
        for l in &mut self.layers {
            l.clear_slots();
        }
    }

    fn clear_slot(&mut self, slot: Slot) {
        for l in &mut self.layers {
            l.clear_slot(slot);
        }
    }

    fn cached_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.cached_bytes()).sum()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::rng;

    fn tiny_mlp() -> Sequential {
        let mut r = rng(42);
        Sequential::new("mlp")
            .push(Linear::new(4, 8, &mut r))
            .push(Relu::new())
            .push(Linear::new(8, 3, &mut r))
    }

    #[test]
    fn sequential_forward_shape() {
        let mut m = tiny_mlp();
        let x = Tensor::zeros(&[5, 4]);
        let y = m.forward(&x, 0);
        assert_eq!(y.shape(), &[5, 3]);
        assert_eq!(m.output_shape(&[5, 4]), vec![5, 3]);
    }

    #[test]
    fn split_off_partitions_layers() {
        let m = tiny_mlp();
        let stages = m.split_off(&[1]);
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].len(), 1);
        assert_eq!(stages[1].len(), 2);
    }

    #[test]
    fn split_stages_compose_to_same_function() {
        let mut whole = tiny_mlp();
        let stages = tiny_mlp().split_off(&[2]);
        let (mut s0, mut s1) = {
            let mut it = stages.into_iter();
            (it.next().unwrap(), it.next().unwrap())
        };
        let x = Tensor::from_vec(&[2, 4], (0..8).map(|i| i as f32 * 0.1).collect());
        let y_whole = whole.forward(&x, 0);
        let y_split = s1.forward(&s0.forward(&x, 0), 0);
        for (a, b) in y_whole.data().iter().zip(y_split.data().iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut m = tiny_mlp();
        let snap = m.snapshot();
        // Perturb.
        for p in m.params_mut() {
            let shape = p.value.shape().to_vec();
            p.value = Tensor::full(&shape, 9.0);
        }
        m.restore(&snap);
        for (p, s) in m.params().iter().zip(snap.iter()) {
            assert_eq!(&p.value, s);
        }
    }

    #[test]
    fn swap_values_exchanges_and_is_its_own_inverse() {
        let mut m = tiny_mlp();
        let original = m.snapshot();
        let mut other: Vec<Tensor> = original
            .iter()
            .map(|t| Tensor::full(t.shape(), 9.0))
            .collect();
        m.swap_values(&mut other);
        assert_eq!(other, original, "the old values came out");
        assert!(m.params().iter().all(|p| p.value.data()[0] == 9.0));
        m.swap_values(&mut other);
        assert_eq!(m.snapshot(), original);
    }

    #[test]
    fn param_count_sums_layers() {
        let m = tiny_mlp();
        // 4*8 + 8 + 8*3 + 3 = 67
        assert_eq!(m.param_count(), 67);
    }

    /// The bits of every gradient a layer holds.
    fn grad_bits(l: &dyn Layer) -> Vec<Vec<u32>> {
        let mut bits = Vec::new();
        l.visit_params(&mut |p| bits.push(p.grad.data().iter().map(|g| g.to_bits()).collect()));
        bits
    }

    /// Every layer type, on both GEMM backends: `backward` is
    /// `backward_input` then `backward_weight`, bit for bit, with two
    /// slots in flight and every input half run before the weight halves;
    /// only the layers that fuse the two (`fused`) store a weight gradient
    /// in the input half. Without an input gradient the input half returns
    /// none and the weight half stores the same gradients.
    #[test]
    fn every_backward_is_its_input_half_then_its_weight_half() {
        use crate::gemm::{set_thread_backend, Backend};
        use crate::init::normal;
        let mut r = rng(7);
        let cases: Vec<(Box<dyn Layer>, Vec<usize>, bool)> = vec![
            (Box::new(Linear::new(6, 5, &mut r)), vec![4, 6], false),
            (
                Box::new(Conv2d::new(2, 3, 3, 2, 1, &mut r)),
                vec![2, 2, 5, 5],
                true,
            ),
            (Box::new(Embedding::new(7, 4, &mut r)), vec![3, 5], false),
            (Box::new(Gru::new(3, 4, &mut r)), vec![2, 3, 3], true),
            (Box::new(Lstm::new(3, 4, &mut r)), vec![2, 3, 3], true),
            (Box::new(Scale::new(5)), vec![4, 5], false),
            (Box::new(MaxPool2d::new(2)), vec![2, 2, 4, 4], false),
            (Box::new(AvgPool2d::new(2)), vec![2, 2, 4, 4], false),
            (Box::new(Relu::new()), vec![4, 5], false),
            (Box::new(Sigmoid::new()), vec![4, 5], false),
            (Box::new(Tanh::new()), vec![4, 5], false),
            (Box::new(Softmax::new()), vec![4, 5], false),
            (Box::new(Dropout::new(0.3, 11)), vec![4, 5], false),
            (Box::new(Reshape::new(&[2, 3])), vec![4, 6], false),
            (Box::new(Flatten::new()), vec![4, 2, 3], false),
            (Box::new(SeqLast::new()), vec![4, 3, 5], false),
            (Box::new(tiny_mlp()), vec![4, 4], false),
        ];
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for backend in [Backend::Fast, Backend::Naive] {
            set_thread_backend(backend);
            for (layer, shape, fused) in &cases {
                let case = format!("{} on {backend:?}", layer.name());
                let (mut whole, mut halves, mut no_dx) =
                    (layer.clone_box(), layer.clone_box(), layer.clone_box());
                let mut grads = Vec::new();
                for slot in 0..2u64 {
                    let x = if layer.name().starts_with("embedding") {
                        let n = shape.iter().product::<usize>() as u64;
                        Tensor::from_vec(
                            shape,
                            (0..n).map(|i| ((i * 5 + slot) % 7) as f32).collect(),
                        )
                    } else {
                        normal(shape, 1.0, &mut rng(slot))
                    };
                    let y = whole.forward(&x, slot);
                    halves.forward(&x, slot).recycle();
                    no_dx.forward(&x, slot).recycle();
                    grads.push(normal(y.shape(), 1.0, &mut rng(slot + 10)));
                }
                let slots = [1u64, 0];
                let dx: Vec<Tensor> = slots
                    .iter()
                    .map(|&s| whole.backward(&grads[s as usize], s))
                    .collect();
                let before = grad_bits(&*halves);
                for (&s, dx) in slots.iter().zip(&dx) {
                    let split = halves.backward_input(grads[s as usize].clone(), s, true);
                    let split = split.expect("an input gradient was asked for");
                    assert_eq!(dx.shape(), split.shape(), "{case}");
                    assert_eq!(bits(dx), bits(&split), "{case}: dx, slot {s}");
                    let none = no_dx.backward_input(grads[s as usize].clone(), s, false);
                    assert!(none.is_none(), "{case}");
                }
                assert_eq!(grad_bits(&*halves) != before, *fused, "{case}: input half");
                for &s in &slots {
                    halves.backward_weight(s);
                    no_dx.backward_weight(s);
                }
                assert_eq!(grad_bits(&*whole), grad_bits(&*halves), "{case}");
                assert_eq!(grad_bits(&*whole), grad_bits(&*no_dx), "{case}: no dx");
                for l in [&halves, &no_dx] {
                    assert_eq!(l.cached_bytes(), 0, "{case}: the halves consume the slots");
                }
            }
        }
        set_thread_backend(Backend::Fast);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bad_boundaries_rejected() {
        tiny_mlp().split_off(&[2, 2]);
    }
}
