//! A from-scratch dense tensor and neural-network library.
//!
//! The PipeDream paper trains real DNNs on GPUs through PyTorch. This crate
//! is the substitute substrate: plain-`f32` tensors, layers with explicit
//! forward/backward passes, SGD/Adam optimizers, losses, and synthetic
//! datasets — enough to *actually train* small models through the
//! pipeline-parallel runtime (`pipedream-runtime`) and demonstrate the
//! paper's §3.3 claims about gradient validity under weight stashing.
//!
//! Design notes:
//!
//! * **Per-minibatch activation slots.** Pipelined training keeps several
//!   minibatches in flight per stage, so a layer's forward pass stores its
//!   cached activations under a caller-supplied [`Slot`] (minibatch id) and
//!   the backward pass for that slot pops them. This mirrors PipeDream's
//!   "intermediate state" management (§4): activation stashes live until the
//!   corresponding backward pass completes.
//! * **Explicit backward.** There is no general autograd tape; every layer
//!   implements its own gradient. Finite-difference tests in each module
//!   keep the math honest.
//! * **No `unsafe`**, no external BLAS: matrix multiplies go through the
//!   [`gemm`] module's register-blocked tiled kernel (packed panels, an
//!   `MR×NR` micro-kernel the compiler can autovectorize), with the seed
//!   scalar kernel retained as the reference side of a differential test
//!   suite. Scratch buffers come from a thread-local size-classed
//!   [`pool`], so steady-state training does not allocate per minibatch.

// Indexed loops over matrix rows/columns are the clearest notation for the
// hand-written gradient math in this crate; iterator rewrites obscure it.
#![allow(clippy::needless_range_loop)]

pub mod data;
pub mod gemm;
pub mod gradcheck;
pub mod init;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod pool;
pub mod tensor;

pub use layers::{Layer, Param, Sequential, Slot, SlotMap};
pub use loss::{mse_loss, softmax_cross_entropy, LossOutput};
pub use optim::{Adam, Grad, GradSet, Optimizer, Sgd, Update};
pub use tensor::Tensor;
