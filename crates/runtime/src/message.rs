//! Messages exchanged between stage workers and the coordinator.
//!
//! Tensor payloads are backed by the thread-local buffer pool
//! (`pipedream_tensor::pool`). Ownership of the buffer travels with the
//! message: the *consuming* worker calls [`Tensor::recycle`] once it is
//! done, which parks the storage in the consumer's pool. In steady-state
//! 1F1B each channel carries a constant number of in-flight tensors per
//! direction, so after warm-up every send is served by a buffer recycled
//! from an earlier minibatch and the pipeline stops allocating.

use pipedream_tensor::Tensor;

/// Activation flowing forward from stage `s` to stage `s+1`.
#[derive(Debug, Clone)]
pub struct ActMsg {
    /// Minibatch id.
    pub mb: u64,
    /// Weight version pinned at the input stage (vertical sync only;
    /// 0 otherwise).
    pub version_tag: u64,
    /// Output activations of the producing stage. The receiver owns the
    /// buffer and recycles it after its forward pass consumes it.
    pub data: Tensor,
}

/// Gradient flowing backward from stage `s` to stage `s-1`.
#[derive(Debug, Clone)]
pub struct GradMsg {
    /// Minibatch id.
    pub mb: u64,
    /// Gradient w.r.t. the consuming stage's output activations. The
    /// receiver owns the buffer and recycles it after its backward pass.
    pub data: Tensor,
}

/// Metric events sent to the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricMsg {
    /// Loss/accuracy of one minibatch, measured at the output stage.
    Loss {
        /// Minibatch id.
        mb: u64,
        /// Mean cross-entropy loss.
        loss: f32,
        /// Correctly classified samples.
        correct: usize,
        /// Samples in the minibatch.
        count: usize,
    },
    /// Which weight version a stage used for a minibatch's forward pass
    /// (drives the Figure-9 / staleness-formula checks).
    FwdVersion {
        /// Pipeline stage.
        stage: usize,
        /// Minibatch id.
        mb: u64,
        /// Local weight version (number of updates applied before this
        /// forward pass).
        version: u64,
    },
    /// Per-worker stash/staleness observations, sent once when the
    /// worker's op sequence completes successfully.
    StageObs(crate::report::StageObsRecord),
    /// Periodic liveness signal, sent only when a fault hook is installed.
    /// A worker that stops heartbeating without finishing is presumed
    /// dead (§4: failures are detected, then all stages restart from the
    /// last complete checkpoint).
    Heartbeat {
        /// Global worker id.
        worker: usize,
        /// Ops executed so far.
        ops_done: u64,
    },
    /// A worker failed with a typed error. Injected kills do *not* send
    /// this — a crashed machine doesn't announce itself — but surviving
    /// peers that fail as collateral do.
    Failure {
        /// Failing stage.
        stage: usize,
        /// Failing replica.
        replica: usize,
        /// The error, rendered (the typed value travels via the worker's
        /// join handle).
        message: String,
    },
}
