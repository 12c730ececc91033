//! Token embedding layer.

use super::{Layer, Param, Slot, SlotMap};
use crate::init;
use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// Lookup table mapping integer token ids to dense vectors.
///
/// Input is `[batch, seq]` of token ids stored as `f32` (rounded to the
/// nearest integer); output is `[batch, seq, dim]`. The backward pass
/// scatter-adds output gradients into the rows that were looked up.
#[derive(Clone)]
pub struct Embedding {
    name: String,
    table: Param,
    vocab: usize,
    dim: usize,
    /// Each in-flight minibatch's token ids, and — between the two halves
    /// of its backward pass — its output gradient.
    saved_ids: SlotMap<(Vec<usize>, Option<Tensor>)>,
}

impl Embedding {
    /// Normal(0, 0.1)-initialized embedding table.
    pub fn new(vocab: usize, dim: usize, rng: &mut StdRng) -> Self {
        Embedding {
            name: format!("embedding{vocab}x{dim}"),
            table: Param::new("table", init::normal(&[vocab, dim], 0.1, rng)),
            vocab,
            dim,
            saved_ids: SlotMap::new(),
        }
    }
}

impl Layer for Embedding {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: &Tensor, slot: Slot) -> Tensor {
        let (b, t) = (x.shape()[0], x.shape().get(1).copied().unwrap_or(1));
        let ids: Vec<usize> = x
            .data()
            .iter()
            .map(|&v| {
                let id = v.round() as usize;
                assert!(id < self.vocab, "token id {id} ≥ vocab {}", self.vocab);
                id
            })
            .collect();
        let mut out = Tensor::zeros(&[b, t, self.dim]);
        let table = self.table.value.data();
        let od = out.data_mut();
        for (i, &id) in ids.iter().enumerate() {
            od[i * self.dim..(i + 1) * self.dim]
                .copy_from_slice(&table[id * self.dim..(id + 1) * self.dim]);
        }
        self.saved_ids.insert(slot, (ids, None));
        out
    }

    /// Token ids have no gradient: zeros, one per id. Keeps the output
    /// gradient for the weight half.
    fn backward_input(&mut self, grad_out: Tensor, slot: Slot, input_grad: bool) -> Option<Tensor> {
        let name = &self.name;
        let (ids, g) = self
            .saved_ids
            .get_mut(slot)
            .unwrap_or_else(|| panic!("{name}: no saved ids for slot {slot}"));
        *g = Some(grad_out);
        input_grad.then(|| Tensor::zeros(&[ids.len()]))
    }

    /// Scatter-adds each position's output gradient into its token's row.
    fn backward_weight(&mut self, slot: Slot) {
        let (ids, g) = self
            .saved_ids
            .remove(slot)
            .unwrap_or_else(|| panic!("{}: no saved ids for slot {slot}", self.name));
        let g = g.unwrap_or_else(|| panic!("{}: weight half before input half", self.name));
        let gd = g.data();
        let tg = self.table.grad.data_mut();
        for (i, &id) in ids.iter().enumerate() {
            for d in 0..self.dim {
                tg[id * self.dim + d] += gd[i * self.dim + d];
            }
        }
        g.recycle();
    }

    fn visit_params<'a>(&'a self, f: &mut dyn FnMut(&'a Param)) {
        f(&self.table);
    }

    fn visit_params_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param)) {
        f(&mut self.table);
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        let t = input_shape.get(1).copied().unwrap_or(1);
        vec![input_shape[0], t, self.dim]
    }

    fn flops_per_sample(&self, input_shape: &[usize]) -> f64 {
        // A lookup is a copy, not FLOPs; count the copied elements.
        input_shape.iter().product::<usize>() as f64 * self.dim as f64
    }

    fn clear_slots(&mut self) {
        self.saved_ids.clear();
    }

    fn clear_slot(&mut self, slot: Slot) {
        if let Some((_, Some(g))) = self.saved_ids.remove(slot) {
            g.recycle();
        }
    }

    fn cached_bytes(&self) -> u64 {
        self.saved_ids
            .values()
            .map(|(ids, g)| ids.len() as u64 * 8 + g.as_ref().map_or(0, |g| g.len() as u64 * 4))
            .sum()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::rng;

    #[test]
    fn lookup_returns_table_rows() {
        let mut e = Embedding::new(4, 3, &mut rng(1));
        let x = Tensor::from_vec(&[1, 2], vec![2.0, 0.0]);
        let y = e.forward(&x, 0);
        assert_eq!(y.shape(), &[1, 2, 3]);
        let table = e.table.value.clone();
        assert_eq!(&y.data()[0..3], &table.data()[6..9]);
        assert_eq!(&y.data()[3..6], &table.data()[0..3]);
    }

    #[test]
    fn backward_scatter_adds() {
        let mut e = Embedding::new(3, 2, &mut rng(2));
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]); // same token twice
        e.forward(&x, 0);
        let g = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        e.backward(&g, 0);
        let tg = e.table.grad.data();
        assert_eq!(&tg[2..4], &[4.0, 6.0]); // row 1 accumulated both
        assert_eq!(&tg[0..2], &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "vocab")]
    fn out_of_vocab_panics() {
        let mut e = Embedding::new(2, 2, &mut rng(3));
        e.forward(&Tensor::from_vec(&[1, 1], vec![5.0]), 0);
    }
}
