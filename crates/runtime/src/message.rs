//! Messages exchanged between stage workers.
//!
//! Tensor payloads are backed by the thread-local buffer pool
//! (`pipedream_tensor::pool`). Ownership of the buffer travels with the
//! message: the *consuming* worker calls [`Tensor::recycle`] once it is
//! done, which parks the storage in the consumer's pool. In steady-state
//! 1F1B each channel carries a constant number of in-flight tensors per
//! direction, and an activation going down is paid back by a gradient of
//! the same shape coming up, so after warm-up every send is served by a
//! buffer recycled from an earlier minibatch. Nothing else on a
//! minibatch's path drops a pooled buffer either — the input stage
//! recycles the input gradient it has nobody to send to, superseded weight
//! versions are overwritten in place (`pipedream_core::stash`), gradient
//! sync hands every replica back one buffer set for the one it deposited —
//! so the pipeline stops allocating: `crates/runtime/tests/
//! steady_state_pool.rs` holds the pool's miss counter still.
//!
//! The coordinator is sent nothing at all. What a worker learns per
//! minibatch (losses, weight versions), and when it failed if it did, goes
//! into its own [`crate::report::WorkerLog`], which comes back through the
//! join handle.

use pipedream_tensor::Tensor;

/// What one stage worker sends a neighbour about one minibatch.
#[derive(Debug)]
pub enum Msg {
    /// Activation flowing forward from stage `s` to stage `s+1`.
    Act {
        /// Minibatch id.
        mb: u64,
        /// Weight version pinned at the input stage (vertical sync only;
        /// 0 otherwise).
        version_tag: u64,
        /// Output activations of the producing stage. The receiver owns
        /// the buffer and recycles it after its forward pass consumes it.
        data: Tensor,
    },
    /// Gradient flowing backward from stage `s` to stage `s-1`.
    Grad {
        /// Minibatch id.
        mb: u64,
        /// Gradient w.r.t. the consuming stage's output activations. The
        /// receiver owns the buffer and recycles it after its backward
        /// pass.
        data: Tensor,
    },
    /// Sent forward in place of minibatch `mb`'s activation by a worker
    /// that skipped its forward because a drain cut the run before `mb`
    /// ([`crate::control`]). The receiver skips the forward too and passes
    /// the marker on, so the cut reaches every stage along the edges the
    /// activation would have taken.
    Cut {
        /// Minibatch id.
        mb: u64,
    },
}

impl Msg {
    /// The minibatch the message is about.
    pub fn mb(&self) -> u64 {
        match *self {
            Msg::Act { mb, .. } | Msg::Grad { mb, .. } | Msg::Cut { mb } => mb,
        }
    }
}
