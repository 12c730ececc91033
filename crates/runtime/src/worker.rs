//! A pipeline-stage worker thread.
//!
//! Each worker owns one replica of one stage's layers and executes its
//! static 1F1B-RR op sequence: receive an activation, run the stage
//! forward, ship the output downstream; receive a gradient, run the stage
//! backward with the correct weight version, ship the input gradient
//! upstream, synchronize gradients across replicas if the stage is
//! replicated, apply the update. The op *order* comes from
//! [`pipedream_core::schedule::Schedule`]; the worker blocks on channels
//! when data has not arrived yet, exactly like PipeDream's runtime blocks
//! on its work queues (§4). A drain cut travels the same channels: a
//! worker that skips a forward because of it sends a [`Msg::Cut`] in place
//! of the activation, so no wait ever needs to look at the gate.
//!
//! **Weights.** The live weights are the model's own `Param::value`s, and
//! the optimizer steps them in place. Which version a minibatch's passes
//! run under is the [`VersionStore`]'s decision (weight stashing, vertical
//! sync or 2BW, one store for all three); a pass under a superseded
//! version swaps that version's tensors with the model's for its duration
//! — pointer swaps, and none at all when the version is the live one, as
//! in every pass of the output stage. Weights are *copied* in one place,
//! `StageWorker::apply_update`, at most once per update and only when
//! the version the optimizer is about to overwrite is still needed, into
//! the buffers of a version that has retired.
//!
//! **Reporting.** Losses, forward weight versions and the peak
//! observations go into the worker's own [`WorkerLog`] and come back with
//! the result of [`StageWorker::run`], on failure as on success; nothing
//! is sent to the coordinator per minibatch.
//!
//! Failures are *typed*: instead of panicking, a worker that loses a peer
//! (or is killed by an installed [`FaultHook`]) returns a
//! [`WorkerError`] through its join handle and, unless silently killed,
//! stamps the time it failed into its log, which is how the coordinator
//! dates the failure (§4's failure detection + checkpoint restart).

use crate::checkpoint;
use crate::control::RunControl;
use crate::data::TrainData;
use crate::fault::{FaultAction, FaultHook, SendAction, WorkerError};
use crate::message::Msg;
use crate::report::{LossRecord, StageObsRecord, VersionRecord, WorkerLog};
use crate::sync::{GradSyncGroup, SyncError};
use crate::trainer::{LrSchedule, OptimKind, Semantics};
use pipedream_core::schedule::{keeps_activations, Op, UpdateRule};
use pipedream_core::stash::{ScheduleKind, VersionPolicy, VersionStore};
use pipedream_obs::{Recorder, SpanKind};
use pipedream_tensor::{pool, softmax_cross_entropy, Layer, Sequential, SlotMap, Tensor};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a stage worker needs to run.
pub struct StageWorker<'a> {
    /// Stage index in the pipeline.
    pub stage: usize,
    /// Replica index within the stage.
    pub replica: usize,
    /// Total pipeline stages.
    pub num_stages: usize,
    /// This replica's copy of the stage layers.
    pub model: Sequential,
    /// Static op sequence for this worker.
    pub ops: Vec<Op>,
    /// Execution semantics (stashing / naive / vertical sync / GPipe).
    pub semantics: Semantics,
    /// Memory schedule variant (2BW double-buffered updates, activation
    /// recomputation). Only meaningful under [`Semantics::Stashed`].
    pub schedule_kind: ScheduleKind,
    /// When this worker applies an update (and so, on a replicated stage,
    /// enters a gradient-sync round). Under 2BW it carries the
    /// gradient-accumulation group size, a multiple of every stage's replica
    /// count, ≥ the pipeline's in-flight depth.
    pub updates: UpdateRule,
    /// Replica count of this worker's own stage (group-end detection).
    pub stage_replicas: usize,
    /// Lcm of every stage's replica count: a gradient-sync round of every
    /// stage closes each time this many minibatches complete.
    pub replica_lcm: u64,
    /// Total minibatches the run schedules (partial-final-group handling).
    pub total_mbs: u64,
    /// Optimizer configuration.
    pub optim: OptimKind,
    /// Activations and cut markers from upstream (None for the input
    /// stage).
    pub fwd_in: Option<Receiver<Msg>>,
    /// Gradients from downstream (None for the output stage).
    pub grad_in: Option<Receiver<Msg>>,
    /// Senders to each replica of the next stage (empty for the output
    /// stage).
    pub fwd_out: Vec<Sender<Msg>>,
    /// Senders to each replica of the previous stage (empty for the input
    /// stage).
    pub grad_out: Vec<Sender<Msg>>,
    /// Gradient sync group (replicated stages only).
    pub sync: Option<Arc<GradSyncGroup>>,
    /// Dataset view (inputs for stage 0, labels for the last stage).
    pub data: &'a TrainData<'a>,
    /// Checkpoint directory (replica 0 dumps at epoch boundaries).
    pub checkpoint_dir: Option<PathBuf>,
    /// Also checkpoint every `k` minibatches mid-epoch (tightens the §4
    /// redo bound from ≤ 1 epoch to ≤ `k` minibatches).
    pub checkpoint_every: Option<u64>,
    /// Per-epoch learning-rate schedule.
    pub lr_schedule: LrSchedule,
    /// Trace recorder for this worker's track. Disabled (a no-op branch
    /// per use, like the fault hook seam) unless a `TraceSession` is
    /// attached to the run.
    pub recorder: Recorder,
    /// Fault-injection hook, if any. `None` in production runs: the
    /// fault-free path costs one `Option` check per op.
    pub hook: Option<Arc<dyn FaultHook>>,
    /// Drain gate shared across the run, if the caller may cut the run at
    /// a consistent minibatch boundary (see [`crate::control`]). `None`
    /// costs one `Option` check per op. The input stage asks it to admit
    /// each forward, the others skip ops past a fixed cut; a forward
    /// skipped either way sends a [`Msg::Cut`] downstream in place of its
    /// activation, which is how a worker already waiting learns of the cut.
    pub control: Option<Arc<RunControl>>,
}

/// Per-run mutable state.
struct WorkerState {
    optimizer: Box<dyn pipedream_tensor::Optimizer>,
    /// Superseded weight versions in-flight minibatches still need, under
    /// the policy the semantics prescribe; `None` for the semantics that
    /// keep no versions (naive, GPipe).
    store: Option<VersionStore<Vec<Tensor>>>,
    /// Backward passes whose gradients no update has applied yet (a 2BW
    /// group's, a GPipe flush group's; at most one otherwise).
    pending: u32,
    /// Recompute: retained stage inputs per in-flight minibatch — the only
    /// activation state kept between a minibatch's forward and backward.
    saved_inputs: SlotMap<Tensor>,
    /// Recompute: the minibatch whose forward kept its layers' caches
    /// because its backward runs next ([`keeps_activations`]).
    kept: Option<u64>,
    /// Loss gradients awaiting the backward op (output stage only).
    pending_loss_grad: SlotMap<Tensor>,
    /// Messages from upstream, and from downstream, that arrived before
    /// their op.
    early_fwd: SlotMap<Msg>,
    early_grad: SlotMap<Msg>,
    /// Updates applied so far (the worker's local version counter).
    updates: u64,
    /// Receive timeout from the fault hook (None = block forever).
    recv_timeout: Option<Duration>,
    /// Peak in-flight minibatches holding a stashed weight version.
    stash_depth_max: usize,
    /// Peak distinct weight snapshots held at once.
    versions_held_max: usize,
    /// Peak updates applied between a minibatch's forward version and its
    /// backward pass (§3.3 staleness). Under 2BW the unit is group
    /// updates (generations).
    staleness_max: u64,
    /// Peak bytes of live activation state (layer stashes + retained
    /// recompute inputs + pending loss gradients), sampled after every
    /// forward and recompute pass.
    activation_bytes_max: u64,
    /// Total microseconds spent re-running forward passes before backward
    /// (recompute kinds only).
    recompute_us: u64,
    /// Losses and forward versions recorded so far.
    log: WorkerLog,
}

impl StageWorker<'_> {
    /// Run the worker to completion; returns its log and the trained
    /// stage model, or the typed error it died with. All failures except
    /// a silent [`WorkerError::Killed`] also stamp
    /// [`WorkerLog::failed_at`].
    ///
    /// A dying worker of a *replicated* stage poisons its gradient-sync
    /// group first — even on a silent kill, standing in for the broken
    /// transport a real machine failure produces — so partners blocked in
    /// `allreduce` wake with [`WorkerError::SyncStalled`] instead of
    /// waiting for a contribution that will never arrive. A worker whose
    /// partner poisoned the group first reports the partner's loss as
    /// [`WorkerError::SyncStalled`] even when a channel disconnect reached
    /// it before the round did.
    pub fn run(mut self) -> (WorkerLog, Result<Sequential, WorkerError>) {
        let policy = match (self.semantics, self.updates) {
            (Semantics::Stashed, UpdateRule::TwoBw { group }) => {
                Some(VersionPolicy::TwoBw { group })
            }
            (Semantics::Stashed, _) => Some(VersionPolicy::Stashing),
            (Semantics::VerticalSync, _) => Some(VersionPolicy::VerticalSync),
            (Semantics::Naive | Semantics::GPipe { .. }, _) => None,
        };
        // One version record per forward op, and one loss record on the
        // output stage: room for all of them up front.
        let forwards = self.ops.len() / 2 + 1;
        let loss_records = if self.stage + 1 == self.num_stages {
            forwards
        } else {
            0
        };
        let mut st = WorkerState {
            optimizer: self.optim.build(),
            store: policy.map(VersionStore::new),
            pending: 0,
            saved_inputs: SlotMap::new(),
            kept: None,
            pending_loss_grad: SlotMap::new(),
            early_fwd: SlotMap::new(),
            early_grad: SlotMap::new(),
            updates: 0,
            recv_timeout: self.hook.as_ref().and_then(|h| h.recv_timeout()),
            stash_depth_max: 0,
            versions_held_max: 0,
            staleness_max: 0,
            activation_bytes_max: 0,
            recompute_us: 0,
            log: WorkerLog {
                losses: Vec::with_capacity(loss_records),
                versions: Vec::with_capacity(forwards),
                obs: None,
                failed_at: None,
            },
        };
        // Gradients start at zero, and every update leaves them so
        // (`Optimizer::step` zeroes them): a backward accumulates into them
        // without clearing them first.
        self.model.zero_grad();
        let outcome = match self.run_ops(&mut st) {
            Ok(()) => {
                // Peak stash depth / staleness, so the coordinator can
                // check the §3.3 memory and staleness formulas against a
                // real run.
                st.log.obs = Some(StageObsRecord {
                    stage: self.stage,
                    replica: self.replica,
                    stash_depth_max: st.stash_depth_max,
                    versions_held_max: st.versions_held_max,
                    staleness_max: st.staleness_max,
                    activation_bytes_max: st.activation_bytes_max,
                    recompute_us: st.recompute_us,
                });
                (st.log, Ok(self.model))
            }
            Err(mut e) => {
                // The death shows on this worker's own timeline track, so
                // a fault-injected kill is visible next to the spans
                // around it.
                self.recorder.instant(SpanKind::Fault);
                if let Some(group) = &self.sync {
                    // A dying replica poisons its group before its channels
                    // drop, so a disconnect it caused finds the group
                    // poisoned already: name the lost partner, not the
                    // cascade that reached this worker first.
                    let cascade = match e {
                        WorkerError::UpstreamLost { mb, .. }
                        | WorkerError::DownstreamLost { mb, .. }
                        | WorkerError::PeerSendFailed { mb, .. } => Some(mb),
                        _ => None,
                    };
                    let partner = group.poisoned_by().filter(|&r| r != self.replica);
                    if let (Some(mb), Some(lost)) = (cascade, partner) {
                        e = WorkerError::SyncStalled {
                            stage: self.stage,
                            replica: self.replica,
                            mb,
                            reason: SyncError::PeerLost { replica: lost }.to_string(),
                        };
                    }
                    group.poison(self.replica);
                }
                if !e.is_injected() {
                    st.log.failed_at = Some(Instant::now());
                }
                (st.log, Err(e))
            }
        };
        // This thread's buffer-pool counts join the process-wide totals
        // before its result is handed over, not only once its thread
        // locals are torn down.
        pool::publish_thread_stats();
        outcome
    }

    fn run_ops(&mut self, st: &mut WorkerState) -> Result<(), WorkerError> {
        let ops = std::mem::take(&mut self.ops);
        for (ops_done, &op) in ops.iter().enumerate() {
            // Drain gate: the input stage asks to admit each minibatch's
            // forward (fixing the cut when a drain is pending); everyone
            // else skips any op whose minibatch fell at or beyond the cut.
            // A skipped op never runs, so no fault fires on it either; a
            // skipped forward still sends its cut marker.
            if let Some(gate) = &self.control {
                let skip = match op {
                    Op::Forward { mb } if self.stage == 0 => !gate.admit(mb),
                    Op::Forward { mb } | Op::Backward { mb } => gate.skipped(mb),
                    Op::Flush => false,
                };
                if skip {
                    if let Op::Forward { mb } = op {
                        self.send_cut(mb);
                    }
                    continue;
                }
            }
            if let Some(hook) = &self.hook {
                // The hook names minibatches of the logical run.
                let logical = match op {
                    Op::Forward { mb } => Op::Forward {
                        mb: self.data.id(mb),
                    },
                    Op::Backward { mb } => Op::Backward {
                        mb: self.data.id(mb),
                    },
                    Op::Flush => Op::Flush,
                };
                if hook.before_op(self.stage, self.replica, &logical) == FaultAction::Kill {
                    // Die like a crashed machine: no failure stamp; the
                    // peers it leaves behind fail of it and stamp theirs.
                    return Err(WorkerError::Killed {
                        stage: self.stage,
                        replica: self.replica,
                        mb: logical.minibatch().unwrap_or(u64::MAX),
                    });
                }
            }
            match op {
                Op::Forward { mb } => {
                    let keep = ops
                        .get(ops_done + 1)
                        .is_some_and(|&next| keeps_activations(op, next));
                    let span = self.recorder.begin();
                    let r = self.forward(st, mb, keep);
                    self.recorder
                        .end_in_epoch(span, SpanKind::Fwd { mb }, self.trace_epoch(mb));
                    r?
                }
                Op::Backward { mb } => {
                    let span = self.recorder.begin();
                    let r = self.backward(st, mb);
                    self.recorder
                        .end_in_epoch(span, SpanKind::Bwd { mb }, self.trace_epoch(mb));
                    r?
                }
                Op::Flush => self.update_after(st, Op::Flush)?,
            }
        }
        // A drained run ends here with every stage having processed the
        // exact same minibatch prefix; each stage dumps a checkpoint at the
        // cut so the caller gets a consistent state to repartition and
        // resume from — written, like every dump, by the stage's replica 0.
        // Idempotent with its periodic checkpoint at the same point (atomic
        // rename of identical content).
        let cut = self.control.as_ref().and_then(|g| g.cut());
        if let Some(last) = cut.filter(|&c| c > 0).map(|c| c - 1) {
            if let Some(dir) = self.dump_dir(last) {
                self.checkpoint(dir, last, false)?;
            }
        }
        Ok(())
    }

    /// Where to dump the stage's parameters as they stand once segment
    /// minibatch `last` is complete, if this worker dumps there. Replica 0
    /// writes for the stage, so each file has one writer: it runs the first
    /// minibatch of every gradient-sync round, and the round's all_reduce
    /// leaves it holding the whole round, like every other replica. A point
    /// admits a dump only where every stage's round is closed (`last + 1` a
    /// multiple of the replica lcm; on a fresh run, or one resumed from
    /// such a dump, so is `done`); anywhere else a stage's weights would
    /// already hold a later minibatch of its round.
    fn dump_dir(&self, last: u64) -> Option<&Path> {
        self.checkpoint_dir
            .as_deref()
            .filter(|_| self.replica == 0 && (last + 1).is_multiple_of(self.replica_lcm))
    }

    /// Dump the stage's parameters as they stand now that segment
    /// minibatch `mb` — and so `id(mb) + 1` minibatches of the logical run
    /// — has completed (§4). `tell_hook` announces the file to the fault
    /// hook, which may damage it: the epoch-end dumps of the op loop.
    fn checkpoint(&self, dir: &Path, mb: u64, tell_hook: bool) -> Result<(), WorkerError> {
        let (done, epoch) = (self.data.id(mb) + 1, self.data.epoch_of(mb));
        let span = self.recorder.begin();
        checkpoint::save_stage(dir, self.stage, done, &self.model.snapshot()).map_err(|e| {
            WorkerError::CheckpointWrite {
                stage: self.stage,
                epoch,
                message: e.to_string(),
            }
        })?;
        self.recorder
            .end_in_epoch(span, SpanKind::Checkpoint, epoch as u32);
        if let (true, Some(hook)) = (tell_hook, &self.hook) {
            hook.on_checkpoint_written(
                &checkpoint::stage_path(dir, self.stage, done),
                self.stage,
                epoch,
            );
        }
        Ok(())
    }

    /// Wait for minibatch `mb`'s message: from upstream for a forward (its
    /// activation, or a cut marker in its place), from downstream for a
    /// `backward` (its gradient). Messages for other minibatches that come
    /// first wait for their own op. A plain blocking receive unless the
    /// fault hook set a receive timeout; a disconnect means the peer was
    /// lost, since a peer leaves nothing this worker still waits for
    /// unsent.
    fn recv(&self, st: &mut WorkerState, mb: u64, backward: bool) -> Result<Msg, WorkerError> {
        let (rx, early) = if backward {
            (&self.grad_in, &mut st.early_grad)
        } else {
            (&self.fwd_in, &mut st.early_fwd)
        };
        if let Some(m) = early.remove(mb) {
            return Ok(m);
        }
        let rx = rx
            .as_ref()
            .expect("a worker waits only on a neighbour it has");
        let stage = self.stage;
        let lost = || match backward {
            true => WorkerError::DownstreamLost { stage, mb },
            false => WorkerError::UpstreamLost { stage, mb },
        };
        // The blocking path: record it as a `RecvWait` span (nested inside
        // the surrounding op's span on this worker's track).
        let wait = self.recorder.begin();
        let result = loop {
            let m = match st.recv_timeout {
                None => rx.recv().map_err(|_| lost()),
                Some(t) => rx.recv_timeout(t).map_err(|e| match e {
                    RecvTimeoutError::Timeout => WorkerError::Stalled { stage, mb },
                    RecvTimeoutError::Disconnected => lost(),
                }),
            };
            match m {
                Ok(m) if m.mb() != mb => {
                    early.insert(m.mb(), m);
                }
                m => break m,
            }
        };
        self.recorder
            .end_in_epoch(wait, SpanKind::RecvWait { mb }, self.trace_epoch(mb));
        result
    }

    /// Send a cut marker in place of minibatch `mb`'s activation, to the
    /// replica 1F1B-RR routes it to. That replica may already have skipped
    /// the minibatch at its own gate and finished, so a failed send is
    /// no failure; the fault hook never sees a marker.
    fn send_cut(&self, mb: u64) {
        if !self.fwd_out.is_empty() {
            let dst = (mb % self.fwd_out.len() as u64) as usize;
            let _ = self.fwd_out[dst].send(Msg::Cut { mb });
        }
    }

    /// Epoch identity for a minibatch's trace spans (0 for synthetic ids
    /// like the GPipe flush's `u64::MAX`).
    fn trace_epoch(&self, mb: u64) -> u32 {
        if mb == u64::MAX {
            return 0;
        }
        self.data.epoch_of(mb) as u32
    }

    /// Run minibatch `mb`'s forward pass and ship its output (or, on the
    /// output stage, compute its loss). `keep`: its backward is this
    /// worker's next op, so a recomputing stage keeps the activations.
    fn forward(&mut self, st: &mut WorkerState, mb: u64, keep: bool) -> Result<(), WorkerError> {
        let (input, mut version_tag) = if self.stage == 0 {
            (self.data.input(mb), 0)
        } else {
            match self.recv(st, mb, false)? {
                Msg::Act {
                    data, version_tag, ..
                } => (data, version_tag),
                // Upstream skipped the minibatch: a drain cut the run
                // before it. Skip it here too, and pass the cut on.
                Msg::Cut { .. } => {
                    self.send_cut(mb);
                    return Ok(());
                }
                Msg::Grad { .. } => unreachable!("gradients travel upstream"),
            }
        };

        // Pin the weight version the semantics prescribe for this
        // minibatch; under vertical sync and 2BW it may trail the live one.
        let version = match st.store.as_mut() {
            Some(store) => {
                if self.semantics == Semantics::VerticalSync && self.stage == 0 {
                    version_tag = store.live();
                }
                let pinned = store.begin_forward(mb, version_tag).map_err(|version| {
                    WorkerError::VersionMissing {
                        stage: self.stage,
                        mb,
                        version,
                    }
                })?;
                st.stash_depth_max = st.stash_depth_max.max(store.in_flight());
                st.versions_held_max = st.versions_held_max.max(store.versions_held());
                if self.semantics == Semantics::Stashed {
                    self.recorder
                        .instant_in_epoch(SpanKind::StashPush { mb }, self.trace_epoch(mb));
                }
                pinned
            }
            None => st.updates,
        };
        st.log.versions.push(VersionRecord {
            stage: self.stage,
            mb: self.data.id(mb),
            version,
        });

        self.swap_weights(st, version);
        let out = self.model.forward(&input, mb);
        self.swap_weights(st, version);
        if !self.recomputes() {
            // The stage's layers saved their own copies; the inbound
            // activation (or dataset minibatch) is dead — pool its buffer.
            input.recycle();
        } else if keep {
            // The backward runs next, under the same pinned weights: the
            // layers' caches are exactly what a recompute would rebuild.
            st.kept = Some(mb);
            input.recycle();
        } else {
            // Drop the per-layer activation stash now; only the stage
            // input is retained, from which a second forward pass rebuilds
            // the stash right before this minibatch's backward.
            self.model.clear_slot(mb);
            st.saved_inputs.insert(mb, input);
        }
        st.activation_bytes_max = st.activation_bytes_max.max(self.live_activation_bytes(st));

        if self.stage + 1 < self.num_stages {
            match self.hook.as_ref().map_or(SendAction::Deliver, |h| {
                h.on_forward_send(self.stage, self.data.id(mb))
            }) {
                SendAction::Deliver => {}
                SendAction::Delay(d) => {
                    // An injected straggler delay stalls this worker's send
                    // path; record it so the analyzer can attribute the
                    // downstream wait to this stage's backpressure.
                    let stall = self.recorder.begin();
                    std::thread::sleep(d);
                    self.recorder.end_in_epoch(
                        stall,
                        SpanKind::SendWait { mb },
                        self.trace_epoch(mb),
                    );
                }
                SendAction::Drop => return Ok(()), // lost on the wire
            }
            let dst = (mb % self.fwd_out.len() as u64) as usize;
            self.fwd_out[dst]
                .send(Msg::Act {
                    mb,
                    version_tag,
                    data: out,
                })
                .map_err(|_| WorkerError::PeerSendFailed {
                    stage: self.stage,
                    mb,
                    backward: false,
                })?;
        } else {
            // Output stage: compute the loss now; the gradient is consumed
            // by this minibatch's backward op.
            let labels = self.data.labels(mb);
            let loss = softmax_cross_entropy(&out, labels);
            out.recycle();
            st.log.losses.push(LossRecord {
                mb: self.data.id(mb),
                loss: loss.loss,
                correct: loss.correct,
                count: labels.len(),
            });
            st.pending_loss_grad.insert(mb, loss.grad);
        }
        Ok(())
    }

    fn backward(&mut self, st: &mut WorkerState, mb: u64) -> Result<(), WorkerError> {
        // Apply the epoch's learning rate before the update lands.
        let epoch = self.data.epoch_of(mb);
        st.optimizer
            .set_learning_rate(self.lr_schedule.lr_at(self.optim.base_lr(), epoch));
        let grad_out = if self.stage + 1 == self.num_stages {
            st.pending_loss_grad
                .remove(mb)
                .expect("loss gradient pending from forward")
        } else {
            match self.recv(st, mb, true)? {
                Msg::Grad { data, .. } => data,
                _ => unreachable!("only gradients travel upstream"),
            }
        };

        // Run the backward pass against the weight version the paper's
        // semantics prescribe: with a store, the one the forward pinned.
        debug_assert!(
            st.pending > 0 || self.grads_are_zero(),
            "a backward that starts accumulating finds the gradients zero"
        );
        let grad_in = match self.semantics {
            Semantics::Stashed | Semantics::VerticalSync => {
                let store = st.store.as_ref().expect("these semantics keep versions");
                let version = store.version_for(mb);
                // Staleness this minibatch saw: updates applied since its
                // forward's version (§3.3: `n − 1 − stage` in steady state
                // under stashing; group updates under 2BW).
                st.staleness_max = st.staleness_max.max(store.live() - version);
                self.swap_weights(st, version);
                self.recompute_forward(st, mb);
                let g = self.backward_pass(&grad_out, mb);
                self.swap_weights(st, version);
                st.store
                    .as_mut()
                    .expect("checked above")
                    .complete_backward(mb);
                if self.semantics == Semantics::Stashed {
                    self.recorder
                        .instant_in_epoch(SpanKind::StashPop { mb }, self.trace_epoch(mb));
                }
                g
            }
            // Naive: invalid gradients — backward with whatever the weights
            // are *now*, which generally differ from the forward's. GPipe:
            // the live weights are the group's; the flush applies the
            // accumulated gradients.
            Semantics::Naive | Semantics::GPipe { .. } => self.backward_pass(&grad_out, mb),
        };
        // Layers saved what they needed during forward; the inbound
        // gradient is dead after the backward pass.
        grad_out.recycle();

        // The input gradient goes upstream before this backward's update,
        // and so before any gradient-sync round the update enters: the
        // upstream stage's next ops may be what lets the round's other
        // replicas reach it.
        if let Some(grad_in) = grad_in {
            let dst = (mb % self.grad_out.len() as u64) as usize;
            self.grad_out[dst]
                .send(Msg::Grad { mb, data: grad_in })
                .map_err(|_| WorkerError::PeerSendFailed {
                    stage: self.stage,
                    mb,
                    backward: true,
                })?;
        }

        // 2BW accumulates a group's gradients and updates once per *full*
        // group; GPipe at the flush; everything else after every backward.
        st.pending += 1;
        self.update_after(st, Op::Backward { mb })?;

        // Per-stage checkpoints (§4), written after gradient sync makes
        // replicas identical — as of `last`, the close of the round `mb`
        // belongs to: a dump at every epoch boundary, plus — when
        // `checkpoint_every = Some(k)` — one every `k` minibatches of an
        // epoch, so recovery redoes at most `k` minibatches instead of an
        // epoch; either only where the point admits one (`dump_dir`).
        let last = mb + self.stage_replicas as u64 - 1;
        if let Some(dir) = self.dump_dir(last) {
            let epoch_end = self.data.is_epoch_end(last);
            let periodic = |k| (self.data.mb_in_epoch(last) + 1).is_multiple_of(k);
            if epoch_end || self.checkpoint_every.is_some_and(periodic) {
                self.checkpoint(dir, last, epoch_end)?;
            }
        }
        Ok(())
    }

    /// The model's backward pass for `mb`: the input gradient, or `None`
    /// at the input stage, where nobody upstream wants it and only the
    /// parameter gradients are computed.
    fn backward_pass(&mut self, grad_out: &Tensor, mb: u64) -> Option<Tensor> {
        if self.stage > 0 {
            Some(self.model.backward(grad_out, mb))
        } else {
            self.model.backward_params(grad_out, mb);
            None
        }
    }

    /// Bytes of live activation state right now: the layers' per-slot
    /// stashes plus the retained recompute inputs plus pending loss
    /// gradients — what the `activation_bytes` obs gauge reports.
    fn live_activation_bytes(&self, st: &WorkerState) -> u64 {
        self.model.cached_bytes()
            + st.saved_inputs
                .values()
                .map(|t| t.len() as u64 * 4)
                .sum::<u64>()
            + st.pending_loss_grad
                .values()
                .map(|t| t.len() as u64 * 4)
                .sum::<u64>()
    }

    /// Apply an update if `op`, just run, closes one by the run's
    /// [`UpdateRule`] — the rule `Schedule::stuck` refused the run by — on
    /// the mean of the gradients accumulated since the last update.
    fn update_after(&mut self, st: &mut WorkerState, op: Op) -> Result<(), WorkerError> {
        if !self
            .updates
            .updates_after(op, st.pending, self.stage_replicas, self.total_mbs)
        {
            return Ok(());
        }
        // The mean of one gradient is that gradient: no pass over it.
        if st.pending > 1 {
            let scale = 1.0 / st.pending as f32;
            self.model
                .visit_params_mut(&mut |p| p.grad.scale_inplace(scale));
        }
        self.apply_update(st, op.minibatch().unwrap_or(u64::MAX))?;
        st.pending = 0;
        Ok(())
    }

    /// Whether this stage drops activations after a forward and recomputes
    /// them before the backward (recompute kinds, under weight stashing).
    fn recomputes(&self) -> bool {
        self.schedule_kind.uses_recompute() && self.semantics == Semantics::Stashed
    }

    /// Whether every gradient of the stage is zero, as every update leaves
    /// them (for debug assertions).
    fn grads_are_zero(&self) -> bool {
        self.model
            .params()
            .iter()
            .all(|p| p.grad.data().iter().all(|&g| g == 0.0))
    }

    /// Recompute kinds: rebuild the dropped activation stash by re-running
    /// the stage forward from the retained input, under the already
    /// swapped-in pinned weight version — so the subsequent backward is
    /// bit-identical to vanilla. No-op otherwise, and for the minibatch
    /// whose forward kept its caches.
    fn recompute_forward(&mut self, st: &mut WorkerState, mb: u64) {
        if !self.recomputes() || st.kept.take() == Some(mb) {
            return;
        }
        let input = st
            .saved_inputs
            .remove(mb)
            .unwrap_or_else(|| panic!("no retained input for minibatch {mb}"));
        let t0 = Instant::now();
        let span = self.recorder.begin();
        let out = self.model.forward(&input, mb);
        self.recorder
            .end_in_epoch(span, SpanKind::Recompute { mb }, self.trace_epoch(mb));
        st.recompute_us += t0.elapsed().as_micros() as u64;
        out.recycle();
        input.recycle();
        st.activation_bytes_max = st.activation_bytes_max.max(self.live_activation_bytes(st));
    }

    /// Exchange the model's weights with superseded version `version`; a
    /// no-op when `version` is the live one (or no versions are kept).
    /// Called in pairs around a pass: the second call undoes the first.
    fn swap_weights(&mut self, st: &mut WorkerState, version: u64) {
        if let Some(w) = st.store.as_mut().and_then(|s| s.superseded(version)) {
            self.model.swap_values(w);
        }
    }

    /// Average gradients across replicas (if replicated), then apply the
    /// update to the live weights, bumping the local version counter.
    ///
    /// A failed rendezvous — a partner replica died and poisoned the
    /// group, or the sync deadline expired — surfaces as
    /// [`WorkerError::SyncStalled`], cascading teardown exactly like a
    /// channel disconnect.
    fn apply_update(&mut self, st: &mut WorkerState, mb: u64) -> Result<(), WorkerError> {
        let epoch = self.trace_epoch(mb);
        if let Some(sync) = &self.sync {
            // The gradient tensors themselves go into the round, which
            // hands back one buffer set for the one deposited: nothing is
            // copied in, nothing allocated.
            let mut grads = Vec::new();
            self.model.visit_params_mut(&mut |p| {
                grads.push(std::mem::replace(&mut p.grad, Tensor::zeros(&[0])))
            });
            // Deposit/release instants bracket the rendezvous so the trace
            // can link this replica's contribution to the round completing.
            self.recorder
                .instant_in_epoch(SpanKind::SyncDeposit { mb }, epoch);
            let avg =
                sync.allreduce(self.replica, grads)
                    .map_err(|e| WorkerError::SyncStalled {
                        stage: self.stage,
                        replica: self.replica,
                        mb,
                        reason: e.to_string(),
                    })?;
            self.recorder
                .instant_in_epoch(SpanKind::SyncRelease { mb }, epoch);
            let mut avg = avg.into_iter();
            self.model
                .visit_params_mut(&mut |p| p.grad = avg.next().expect("one average a gradient"));
        }
        let opt_span = self.recorder.begin();
        if let Some(store) = st.store.as_mut() {
            // The one place weights are copied: the optimizer is about to
            // overwrite a version something still needs.
            let model = &self.model;
            store.advance(|retired| match retired {
                Some(mut w) => {
                    let mut dst = w.iter_mut();
                    model.visit_params(&mut |p| {
                        if let Some(t) = dst.next() {
                            t.copy_from(&p.value);
                        }
                    });
                    w
                }
                None => model.snapshot(),
            });
            if self.schedule_kind.uses_two_bw() {
                st.versions_held_max = st.versions_held_max.max(store.versions_held());
            }
        }
        st.optimizer.step_layer(&mut self.model);
        st.updates += 1;
        self.recorder
            .end_in_epoch(opt_span, SpanKind::OptStep { mb }, epoch);
        Ok(())
    }
}
