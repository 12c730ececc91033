//! A pipeline-stage worker, stepped.
//!
//! Each worker owns one replica of one stage's layers and executes its
//! static 1F1B-RR op sequence: take an activation, run the stage forward,
//! ship the output downstream; take a gradient, run the stage backward
//! with the correct weight version, ship the input gradient upstream,
//! synchronize gradients across replicas if the stage is replicated,
//! apply the update. The op *order* comes from
//! [`pipedream_core::schedule::Schedule`].
//!
//! **Stepped.** A worker never blocks. [`Running::poll`] runs ops until
//! the next one waits on something not there yet — a message not yet in
//! its early map, a gradient-sync round not yet open for its deposit or
//! not yet complete, an injected send delay not yet due — and returns
//! what it waits on ([`Poll::Wait`]). Messages reach it through
//! [`Running::deliver`], a peer's end through [`Running::peer_ended`];
//! a sync round calls its waker. What runs next is the executor's choice
//! ([`crate::executor`]), like PipeDream's runtime draining its work
//! queues (§4), so workers that share a thread hand off to each other
//! without the kernel. A drain cut travels as a message: a worker that
//! skips a forward because of it sends a [`Msg::Cut`] in place of the
//! activation, so no wait ever needs to look at the gate.
//!
//! **Weights.** The live weights are the model's own `Param::value`s, and
//! the optimizer steps them in place. Which version a minibatch's passes
//! run under is the [`VersionStore`]'s decision (weight stashing, vertical
//! sync or 2BW, one store for all three); a pass under a superseded
//! version swaps that version's tensors with the model's for its duration
//! — pointer swaps, and none at all when the version is the live one, as
//! in every pass of the output stage. Weights are never copied: when the
//! version an update supersedes is still needed, the optimizer writes the
//! next weights into the buffers of a version that has retired and the
//! two sets trade places (`StageWorker::step_weights`).
//!
//! **Backward.** A backward runs its two halves (§3.3) under the version
//! its forward pinned: the input half, whose gradient goes upstream at
//! once, then the weight half, which stores the weight gradients
//! ([`Layer::backward_weight`]). Every semantics takes this one path.
//!
//! **Updates.** An update is one pass over the stage's weights, reading
//! the gradients where the weight halves stored them: in the parameters,
//! or, on a replicated stage, in the round's deposits, averaged as read.
//!
//! **Tracing.** An op's span covers what the op did without waiting: a
//! `RecvWait` span runs from when the worker found its message missing to
//! when it came back to it, before the op's own span; a send delay's
//! `SendWait` and a round's `GradSync` that had to wait follow the span
//! of the op they belong to. So a thread-mate's compute never lands
//! inside another worker's op span.
//!
//! **Reporting.** Losses, forward weight versions and the peak
//! observations go into the worker's own [`WorkerLog`] and come back from
//! [`Running::finish`], on failure as on success; nothing is sent to the
//! coordinator per minibatch.
//!
//! Failures are *typed*: instead of panicking, a worker that loses a peer
//! (or is killed by an installed [`FaultHook`]) ends with a
//! [`WorkerError`] and, unless silently killed, stamps the time it failed
//! into its log, which is how the coordinator dates the failure (§4's
//! failure detection + checkpoint restart).

use crate::checkpoint;
use crate::control::RunControl;
use crate::data::TrainData;
use crate::executor::Link;
use crate::fault::{FaultAction, FaultHook, SendAction, WorkerError};
use crate::message::Msg;
use crate::report::{LossRecord, StageObsRecord, VersionRecord, WorkerLog};
use crate::sync::{GradSyncGroup, SyncError};
use crate::trainer::{LrSchedule, OptimKind, Semantics};
use pipedream_core::schedule::{keeps_activations, Op, UpdateRule};
use pipedream_core::stash::{ScheduleKind, VersionPolicy, VersionStore};
use pipedream_obs::{Recorder, SpanKind, SpanStart};
use pipedream_tensor::{
    pool, softmax_cross_entropy, Grad, GradSet, Layer, Optimizer, Sequential, SlotMap, Tensor,
    Update,
};
use std::path::{Path, PathBuf};
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
    /// Each replica of the next stage (empty for the output stage).
    pub(crate) fwd_out: Vec<Link>,
    /// Each replica of the previous stage (empty for the input stage).
    pub(crate) grad_out: Vec<Link>,
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

/// What [`Running::poll`] left the worker doing.
pub(crate) enum Poll {
    /// Waiting: for a message, a peer's end or a sync round's wake — or,
    /// if given, until that instant (a receive or sync deadline, a send
    /// delay), whichever comes first.
    Wait(Option<Instant>),
    /// Every op ran, or the worker failed.
    Done(Result<(), WorkerError>),
}

/// How far the current op got.
enum Phase {
    /// Neither the drain gate nor the fault hook has seen it.
    Start,
    /// It passed both, and waits for its message.
    Admitted,
    /// Its forward ran; the activation for replica `dst` leaves when an
    /// injected delay ends at `due`.
    Delayed {
        mb: u64,
        due: Instant,
        stall: SpanStart,
        dst: usize,
        msg: Msg,
    },
    /// The update it closes waits in a gradient-sync round.
    Syncing(Round),
}

/// An update in a gradient-sync round.
struct Round {
    /// The op the update closes, and the minibatch it is dated by.
    op: Op,
    mb: u64,
    /// The gradients, until the round takes them.
    set: Option<Arc<GradSet>>,
    /// When the round began (its deadline counts from here), and its span.
    since: Instant,
    span: SpanStart,
    /// The span of the backward the update closes, while it is open: a
    /// round that has to wait ends it.
    bwd: Option<SpanStart>,
}

/// What one step of [`StageWorker::step`] did.
enum Step {
    /// The op is done.
    Next,
    /// The op waits ([`Poll::Wait`]).
    Wait(Option<Instant>),
}

/// Per-run mutable state.
struct WorkerState {
    optimizer: Box<dyn pipedream_tensor::Optimizer>,
    /// The op to run next, and how far it got.
    next: usize,
    phase: Phase,
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
    /// Workers of the previous and of the next stage still running: a
    /// message missing once they are all gone never comes.
    live_up: usize,
    live_down: usize,
    /// The message wait under way: its span's start, and when it stalls.
    waiting: Option<(SpanStart, Option<Instant>)>,
    /// Updates applied so far (the worker's local version counter).
    updates: u64,
    /// Receive timeout from the fault hook (None = wait forever).
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
    /// Replicated stages: the two gradient sets this replica deposits into
    /// sync rounds in turn, each empty while its tensors accumulate in the
    /// model. When a round completes, every replica has read the round
    /// before it, so the set deposited there comes back to accumulate the
    /// next gradients: a round allocates nothing and waits for no reader.
    sets: [Arc<GradSet>; 2],
    /// Which of `sets` the next round takes.
    next_set: usize,
    /// The round being read: every replica's deposit, in replica order.
    round: Vec<Arc<GradSet>>,
    /// The stage's parameters, and their floats.
    params: usize,
    param_floats: u64,
    /// Floats whose gradient buffer the last `reset_grads` left empty: the
    /// first backward pass after it writes them instead of adding.
    lazy_floats: u64,
    /// Weight and gradient bytes read and written by updates so far (see
    /// [`StageObsRecord::weight_bytes`]), and backward passes run.
    weight_bytes: u64,
    backwards: u64,
    /// Losses and forward versions recorded so far.
    log: WorkerLog,
}

/// A started worker: its configuration and where its run stands.
pub(crate) struct Running<'a> {
    w: StageWorker<'a>,
    st: WorkerState,
}

impl<'a> StageWorker<'a> {
    /// Ready the worker to run its ops: its state built, its gradients
    /// ready to accumulate into.
    pub(crate) fn start(mut self) -> Running<'a> {
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
        let (mut params, mut param_floats) = (0, 0);
        self.model.visit_params(&mut |p| {
            params += 1;
            param_floats += p.value.len() as u64;
        });
        let mut st = WorkerState {
            optimizer: self.optim.build(),
            next: 0,
            phase: Phase::Start,
            store: policy.map(VersionStore::new),
            pending: 0,
            saved_inputs: SlotMap::new(),
            kept: None,
            pending_loss_grad: SlotMap::new(),
            early_fwd: SlotMap::new(),
            early_grad: SlotMap::new(),
            live_up: self.grad_out.len(),
            live_down: self.fwd_out.len(),
            waiting: None,
            updates: 0,
            recv_timeout: self.hook.as_ref().and_then(|h| h.recv_timeout()),
            stash_depth_max: 0,
            versions_held_max: 0,
            staleness_max: 0,
            activation_bytes_max: 0,
            recompute_us: 0,
            sets: Default::default(),
            next_set: 0,
            round: Vec::with_capacity(self.stage_replicas),
            params,
            param_floats,
            lazy_floats: 0,
            weight_bytes: 0,
            backwards: 0,
            log: WorkerLog {
                losses: Vec::with_capacity(loss_records),
                versions: Vec::with_capacity(forwards),
                obs: None,
                failed_at: None,
            },
        };
        // Gradients start at zero, and every update leaves them so (the
        // step zeroes them, or a sync round's `reset_grads` readies them):
        // a backward accumulates into them without clearing them first, or
        // writes those `reset_grads` left empty.
        if self.sync.is_some() {
            st.lazy_floats = self.model.reset_grads(&mut std::iter::empty());
        } else {
            self.model.zero_grad();
        }
        Running { w: self, st }
    }
}

impl Running<'_> {
    /// Run ops until the next one waits on something not there yet, or
    /// until none is left or the worker failed.
    pub(crate) fn poll(&mut self) -> Poll {
        let (w, st) = (&mut self.w, &mut self.st);
        while st.next < w.ops.len() {
            match w.step(st) {
                Ok(Step::Next) => st.next += 1,
                Ok(Step::Wait(until)) => return Poll::Wait(until),
                Err(e) => return Poll::Done(Err(e)),
            }
        }
        Poll::Done(w.end_of_ops())
    }

    /// A message for this worker arrived: it waits in the early map for
    /// its op.
    pub(crate) fn deliver(&mut self, msg: Msg) {
        let early = match msg {
            Msg::Grad { .. } => &mut self.st.early_grad,
            Msg::Act { .. } | Msg::Cut { .. } => &mut self.st.early_fwd,
        };
        early.insert(msg.mb(), msg);
    }

    /// A worker of `stage` ended, having sent all it ever will. Whether
    /// it was a peer of this worker's.
    pub(crate) fn peer_ended(&mut self, stage: usize) -> bool {
        if stage + 1 == self.w.stage {
            self.st.live_up -= 1;
        } else if stage == self.w.stage + 1 {
            self.st.live_down -= 1;
        } else {
            return false;
        }
        true
    }

    /// The worker cannot go on (its thread is unwinding): fail its sync
    /// group, so no partner waits for it.
    pub(crate) fn abandon(&self) {
        if let Some(group) = &self.w.sync {
            group.poison(self.w.replica);
        }
    }

    /// End the run with `outcome`; returns the worker's log and the
    /// trained stage model, or the typed error it died with. All failures
    /// except a silent [`WorkerError::Killed`] also stamp
    /// [`WorkerLog::failed_at`].
    ///
    /// A dying worker of a *replicated* stage poisons its gradient-sync
    /// group first — even on a silent kill, standing in for the broken
    /// transport a real machine failure produces — so partners waiting in
    /// a round wake with [`WorkerError::SyncStalled`] instead of waiting
    /// for a contribution that will never arrive. A worker whose partner
    /// poisoned the group first reports the partner's loss as
    /// [`WorkerError::SyncStalled`] even when a lost peer reached it
    /// before the round did.
    pub(crate) fn finish(
        self,
        outcome: Result<(), WorkerError>,
    ) -> (WorkerLog, Result<Sequential, WorkerError>) {
        let Running { w: mut me, mut st } = self;
        let outcome = match outcome {
            Ok(()) => {
                // The stage goes back with zeroed gradients, none left
                // empty by the last sync round.
                me.model.zero_grad();
                // Peak stash depth / staleness, so the coordinator can
                // check the §3.3 memory and staleness formulas against a
                // real run.
                st.log.obs = Some(StageObsRecord {
                    stage: me.stage,
                    replica: me.replica,
                    stash_depth_max: st.stash_depth_max,
                    versions_held_max: st.versions_held_max,
                    staleness_max: st.staleness_max,
                    activation_bytes_max: st.activation_bytes_max,
                    recompute_us: st.recompute_us,
                    weight_bytes: st.weight_bytes,
                    backwards: st.backwards,
                });
                (st.log, Ok(me.model))
            }
            Err(mut e) => {
                // The death shows on this worker's own timeline track, so
                // a fault-injected kill is visible next to the spans
                // around it.
                me.recorder.instant(SpanKind::Fault);
                if let Some(group) = &me.sync {
                    // A dying replica poisons its group before its peers
                    // learn it ended, so a lost peer it caused finds the
                    // group poisoned already: name the lost partner, not
                    // the cascade that reached this worker first.
                    let cascade = match e {
                        WorkerError::UpstreamLost { mb, .. }
                        | WorkerError::DownstreamLost { mb, .. }
                        | WorkerError::PeerSendFailed { mb, .. } => Some(mb),
                        _ => None,
                    };
                    let partner = group.poisoned_by().filter(|&r| r != me.replica);
                    if let (Some(mb), Some(lost)) = (cascade, partner) {
                        e = WorkerError::SyncStalled {
                            stage: me.stage,
                            replica: me.replica,
                            mb,
                            reason: SyncError::PeerLost { replica: lost }.to_string(),
                        };
                    }
                    group.poison(me.replica);
                }
                if !e.is_injected() {
                    st.log.failed_at = Some(Instant::now());
                }
                (st.log, Err(e))
            }
        };
        // This thread's buffer-pool counts join the process-wide totals
        // before the result is handed over, not only once its thread
        // locals are torn down.
        pool::publish_thread_stats();
        outcome
    }
}

impl StageWorker<'_> {
    /// Advance op `st.next` as far as it goes without waiting.
    fn step(&mut self, st: &mut WorkerState) -> Result<Step, WorkerError> {
        let op = self.ops[st.next];
        let phase = match std::mem::replace(&mut st.phase, Phase::Start) {
            Phase::Start => {
                if self.gate_skips(op) {
                    // A skipped op never runs, so no fault fires on it
                    // either; a skipped forward still sends its cut marker.
                    if let Op::Forward { mb } = op {
                        self.send_cut(mb);
                    }
                    return Ok(Step::Next);
                }
                self.fault_before(op)?;
                Phase::Admitted
            }
            phase => phase,
        };
        match phase {
            Phase::Start => unreachable!("the op was admitted above"),
            Phase::Admitted => match op {
                Op::Forward { mb } => {
                    let keep = self
                        .ops
                        .get(st.next + 1)
                        .is_some_and(|&next| keeps_activations(op, next));
                    self.forward(st, mb, keep)
                }
                Op::Backward { mb } => self.backward(st, mb),
                Op::Flush => self.update(st, op, None),
            },
            Phase::Delayed {
                mb,
                due,
                stall,
                dst,
                msg,
            } => {
                if Instant::now() < due {
                    st.phase = Phase::Delayed {
                        mb,
                        due,
                        stall,
                        dst,
                        msg,
                    };
                    return Ok(Step::Wait(Some(due)));
                }
                // An injected straggler delay stalls this worker's send
                // path; record it so the analyzer can attribute the
                // downstream wait to this stage's backpressure.
                self.recorder
                    .end_in_epoch(stall, SpanKind::SendWait { mb }, self.trace_epoch(mb));
                self.send(&self.fwd_out[dst], msg, false)?;
                Ok(Step::Next)
            }
            Phase::Syncing(round) => self.sync(st, round),
        }
    }

    /// Drain gate: the input stage asks to admit each minibatch's forward
    /// (fixing the cut when a drain is pending); everyone else skips any
    /// op whose minibatch fell at or beyond the cut.
    fn gate_skips(&self, op: Op) -> bool {
        let Some(gate) = &self.control else {
            return false;
        };
        match op {
            Op::Forward { mb } if self.stage == 0 => !gate.admit(mb),
            Op::Forward { mb } | Op::Backward { mb } => gate.skipped(mb),
            Op::Flush => false,
        }
    }

    /// Ask the fault hook about `op` (named by the logical run's
    /// minibatch): a kill ends the worker here.
    fn fault_before(&self, op: Op) -> Result<(), WorkerError> {
        let Some(hook) = &self.hook else {
            return Ok(());
        };
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
            // Die like a crashed machine: no failure stamp; the peers it
            // leaves behind fail of it and stamp theirs.
            return Err(WorkerError::Killed {
                stage: self.stage,
                replica: self.replica,
                mb: logical.minibatch().unwrap_or(u64::MAX),
            });
        }
        Ok(())
    }

    /// Every op ran. A drained run ends here with every stage having
    /// processed the exact same minibatch prefix; each stage dumps a
    /// checkpoint at the cut so the caller gets a consistent state to
    /// repartition and resume from — written, like every dump, by the
    /// stage's replica 0. Idempotent with its periodic checkpoint at the
    /// same point (atomic rename of identical content).
    fn end_of_ops(&self) -> Result<(), WorkerError> {
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

    /// Take minibatch `mb`'s message, if it is there: from upstream for a
    /// forward (its activation, or a cut marker in its place), from
    /// downstream for a `backward` (its gradient). `None` starts a wait,
    /// or goes on with the one under way. A wait fails once every peer it
    /// could come from has ended, since a peer leaves nothing unsent that
    /// this worker still waits for, and — when the fault hook set a
    /// receive timeout — once the timeout has passed since the wait began.
    fn take(
        &self,
        st: &mut WorkerState,
        mb: u64,
        backward: bool,
    ) -> Result<Option<Msg>, WorkerError> {
        let (early, live) = if backward {
            (&mut st.early_grad, st.live_down)
        } else {
            (&mut st.early_fwd, st.live_up)
        };
        let found = early.remove(mb);
        let stage = self.stage;
        let failed = if found.is_some() {
            None
        } else if live == 0 {
            Some(match backward {
                true => WorkerError::DownstreamLost { stage, mb },
                false => WorkerError::UpstreamLost { stage, mb },
            })
        } else {
            let timeout = st.recv_timeout;
            let (_, stall) = *st.waiting.get_or_insert_with(|| {
                (self.recorder.begin(), timeout.map(|t| Instant::now() + t))
            });
            match stall {
                Some(at) if Instant::now() >= at => Some(WorkerError::Stalled { stage, mb }),
                _ => return Ok(None),
            }
        };
        // The wait, if there was one, is over.
        if let Some((span, _)) = st.waiting.take() {
            self.recorder
                .end_in_epoch(span, SpanKind::RecvWait { mb }, self.trace_epoch(mb));
        }
        match failed {
            Some(e) => Err(e),
            None => Ok(found),
        }
    }

    /// The step result of a worker that goes on waiting for a message.
    fn awaiting(st: &mut WorkerState) -> Step {
        st.phase = Phase::Admitted;
        Step::Wait(st.waiting.and_then(|(_, stall)| stall))
    }

    /// Send `msg` to `to`; a peer that has ended fails the send.
    fn send(&self, to: &Link, msg: Msg, backward: bool) -> Result<(), WorkerError> {
        let mb = msg.mb();
        to.send(msg).map_err(|_| WorkerError::PeerSendFailed {
            stage: self.stage,
            mb,
            backward,
        })
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
    /// output stage, compute its loss), once its input is there. `keep`:
    /// its backward is this worker's next op, so a recomputing stage keeps
    /// the activations.
    fn forward(&mut self, st: &mut WorkerState, mb: u64, keep: bool) -> Result<Step, WorkerError> {
        let (input, mut version_tag) = if self.stage == 0 {
            (self.data.input(mb), 0)
        } else {
            match self.take(st, mb, false)? {
                None => return Ok(Self::awaiting(st)),
                Some(Msg::Act {
                    data, version_tag, ..
                }) => (data, version_tag),
                // Upstream skipped the minibatch: a drain cut the run
                // before it. Skip it here too, and pass the cut on.
                Some(Msg::Cut { .. }) => {
                    self.send_cut(mb);
                    return Ok(Step::Next);
                }
                Some(Msg::Grad { .. }) => unreachable!("gradients travel upstream"),
            }
        };
        let epoch = self.trace_epoch(mb);
        let span = self.recorder.begin();

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
                });
                let pinned = match pinned {
                    Ok(v) => v,
                    Err(e) => {
                        self.recorder
                            .end_in_epoch(span, SpanKind::Fwd { mb }, epoch);
                        return Err(e);
                    }
                };
                st.stash_depth_max = st.stash_depth_max.max(store.in_flight());
                st.versions_held_max = st.versions_held_max.max(store.versions_held());
                if self.semantics == Semantics::Stashed {
                    self.recorder
                        .instant_in_epoch(SpanKind::StashPush { mb }, epoch);
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

        let sent = if self.stage + 1 < self.num_stages {
            let dst = (mb % self.fwd_out.len() as u64) as usize;
            let msg = Msg::Act {
                mb,
                version_tag,
                data: out,
            };
            match self.hook.as_ref().map_or(SendAction::Deliver, |h| {
                h.on_forward_send(self.stage, self.data.id(mb))
            }) {
                SendAction::Deliver => self.send(&self.fwd_out[dst], msg, false),
                SendAction::Delay(d) => {
                    // The activation waits on a timer; the thread does not.
                    self.recorder
                        .end_in_epoch(span, SpanKind::Fwd { mb }, epoch);
                    let due = Instant::now() + d;
                    st.phase = Phase::Delayed {
                        mb,
                        due,
                        stall: self.recorder.begin(),
                        dst,
                        msg,
                    };
                    return Ok(Step::Wait(Some(due)));
                }
                SendAction::Drop => Ok(()), // lost on the wire
            }
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
            Ok(())
        };
        self.recorder
            .end_in_epoch(span, SpanKind::Fwd { mb }, epoch);
        sent.map(|()| Step::Next)
    }

    /// Run minibatch `mb`'s backward pass once its gradient is there, ship
    /// the input gradient upstream, and apply the update it closes.
    fn backward(&mut self, st: &mut WorkerState, mb: u64) -> Result<Step, WorkerError> {
        let grad_out = if self.stage + 1 == self.num_stages {
            st.pending_loss_grad
                .remove(mb)
                .expect("loss gradient pending from forward")
        } else {
            match self.take(st, mb, true)? {
                None => return Ok(Self::awaiting(st)),
                Some(Msg::Grad { data, .. }) => data,
                Some(_) => unreachable!("only gradients travel upstream"),
            }
        };
        let span = self.recorder.begin();
        // Apply the epoch's learning rate before the update lands.
        let epoch = self.data.epoch_of(mb);
        st.optimizer
            .set_learning_rate(self.lr_schedule.lr_at(self.optim.base_lr(), epoch));

        // Run the backward pass against the weight version the paper's
        // semantics prescribe: with a store, the one the forward pinned.
        // Naive: invalid gradients — backward with whatever the weights are
        // *now*, which generally differ from the forward's. GPipe: the live
        // weights are the group's; the flush applies the accumulated
        // gradients.
        debug_assert!(
            st.pending > 0 || self.grads_are_zero(),
            "a backward that starts accumulating finds the gradients zero"
        );
        let version = match st.store.as_ref() {
            Some(store) => {
                let version = store.version_for(mb);
                // Staleness this minibatch saw: updates applied since its
                // forward's version (§3.3: `n − 1 − stage` in steady state
                // under stashing; group updates under 2BW).
                st.staleness_max = st.staleness_max.max(store.live() - version);
                version
            }
            None => st.updates,
        };
        self.swap_weights(st, version);
        self.recompute_forward(st, mb);
        // The input half; at the input stage nobody upstream wants its
        // gradient, so only what the weight half needs is kept.
        let grad_in = self.model.backward_input(grad_out, mb, self.stage > 0);
        // The input gradient goes upstream before the weight half, and so
        // before this backward's update and any gradient-sync round it
        // enters: the upstream stage's next ops may be what lets the
        // round's other replicas reach it.
        let sent = grad_in.map_or(Ok(()), |data| {
            let dst = (mb % self.grad_out.len() as u64) as usize;
            self.send(&self.grad_out[dst], Msg::Grad { mb, data }, true)
        });
        self.model.backward_weight(mb);
        self.swap_weights(st, version);
        if let Some(store) = st.store.as_mut() {
            store.complete_backward(mb);
            if self.semantics == Semantics::Stashed {
                self.recorder
                    .instant_in_epoch(SpanKind::StashPop { mb }, self.trace_epoch(mb));
            }
        }
        st.backwards += 1;
        if let Err(e) = sent {
            self.recorder
                .end_in_epoch(span, SpanKind::Bwd { mb }, self.trace_epoch(mb));
            return Err(e);
        }

        // 2BW accumulates a group's gradients and updates once per *full*
        // group; GPipe at the flush; everything else after every backward.
        st.pending += 1;
        self.update(st, Op::Backward { mb }, Some(span))
    }

    /// Apply an update if `op`, just run, closes one by the run's
    /// [`UpdateRule`] — the rule `Schedule::stuck` refused the run by — on
    /// the mean of the gradients accumulated since the last update; then
    /// finish the op. `bwd` is the span of a backward `op`.
    ///
    /// On a replicated stage the update reads the gradient-sync round's
    /// deposits in place, so it enters the round first ([`Self::sync`]).
    fn update(
        &mut self,
        st: &mut WorkerState,
        op: Op,
        bwd: Option<SpanStart>,
    ) -> Result<Step, WorkerError> {
        if !self
            .updates
            .updates_after(op, st.pending, self.stage_replicas, self.total_mbs)
        {
            return self.after_op(op, bwd);
        }
        let mb = op.minibatch().unwrap_or(u64::MAX);
        // What the backward passes since the last update stored: each pass
        // a read and a write of every gradient, except where the first pass
        // wrote into a buffer `reset_grads` left empty.
        st.weight_bytes += 8 * st.param_floats * st.pending as u64 - 4 * st.lazy_floats;
        if self.sync.is_none() {
            self.step_weights(st, mb, false);
            return self.after_op(op, bwd);
        }
        // The gradient tensors themselves go into the round: nothing is
        // copied in.
        let q = st.next_set;
        let set = Arc::get_mut(&mut st.sets[q])
            .expect("a set whose tensors the model holds is held by no round");
        set.count = st.pending;
        self.model.visit_params_mut(&mut |p| {
            set.grads
                .push(std::mem::replace(&mut p.grad, Tensor::zeros(&[0])))
        });
        // Deposit/release instants bracket the rendezvous so the trace
        // can link this replica's contribution to the round completing.
        self.recorder
            .instant_in_epoch(SpanKind::SyncDeposit { mb }, self.trace_epoch(mb));
        let round = Round {
            op,
            mb,
            set: Some(Arc::clone(&st.sets[q])),
            since: Instant::now(),
            span: self.recorder.begin(),
            bwd,
        };
        self.sync(st, round)
    }

    /// Take a step in the gradient-sync round; once the round is collected,
    /// apply the update from it and finish the op.
    ///
    /// A failed round — a partner replica died and poisoned the group, or
    /// the sync deadline expired — surfaces as
    /// [`WorkerError::SyncStalled`], cascading teardown exactly like a lost
    /// peer.
    fn sync(&mut self, st: &mut WorkerState, mut round: Round) -> Result<Step, WorkerError> {
        let group = self.sync.as_ref().expect("a round needs a group");
        let epoch = self.trace_epoch(round.mb);
        match group.poll_round(self.replica, &mut round.set, &mut st.round, round.since) {
            Ok(true) => self.recorder.end(round.span, SpanKind::GradSync),
            Ok(false) => {
                // The wait is not the backward's: its span ends here.
                if let Some(bwd) = round.bwd.take() {
                    self.recorder
                        .end_in_epoch(bwd, SpanKind::Bwd { mb: round.mb }, epoch);
                }
                let deadline = group.deadline().map(|d| round.since + d);
                st.phase = Phase::Syncing(round);
                return Ok(Step::Wait(deadline));
            }
            Err(e) => {
                self.recorder.end(round.span, SpanKind::Stalled);
                if let Some(bwd) = round.bwd {
                    self.recorder
                        .end_in_epoch(bwd, SpanKind::Bwd { mb: round.mb }, epoch);
                }
                return Err(WorkerError::SyncStalled {
                    stage: self.stage,
                    replica: self.replica,
                    mb: round.mb,
                    reason: e.to_string(),
                });
            }
        }
        self.recorder
            .instant_in_epoch(SpanKind::SyncRelease { mb: round.mb }, epoch);
        // The round is complete, so every replica has read the one before
        // it: the set deposited there comes back for the next gradients —
        // zeroed, or, where the next pass writes them, to the pool. Nothing
        // is allocated after the first round.
        let q = st.next_set;
        let prev = Arc::get_mut(&mut st.sets[q ^ 1])
            .expect("every replica has read the round before a complete one");
        st.lazy_floats = self.model.reset_grads(&mut prev.grads.drain(..));
        st.weight_bytes += 4 * (st.param_floats - st.lazy_floats);
        st.next_set = q ^ 1;
        self.step_weights(st, round.mb, true);
        self.after_op(round.op, round.bwd)
    }

    /// What follows op `op` once its update, if any, is applied: per-stage
    /// checkpoints (§4), written after gradient sync makes replicas
    /// identical — as of `last`, the close of the round a backward's
    /// minibatch belongs to: a dump at every epoch boundary, plus — when
    /// `checkpoint_every = Some(k)` — one every `k` minibatches of an
    /// epoch, so recovery redoes at most `k` minibatches instead of an
    /// epoch; either only where the point admits one (`dump_dir`). Ends
    /// the backward's span `bwd`, if it is still open.
    fn after_op(&self, op: Op, bwd: Option<SpanStart>) -> Result<Step, WorkerError> {
        let Op::Backward { mb } = op else {
            return Ok(Step::Next);
        };
        let last = mb + self.stage_replicas as u64 - 1;
        let mut written = Ok(());
        if let Some(dir) = self.dump_dir(last) {
            let epoch_end = self.data.is_epoch_end(last);
            let periodic = |k| (self.data.mb_in_epoch(last) + 1).is_multiple_of(k);
            if epoch_end || self.checkpoint_every.is_some_and(periodic) {
                written = self.checkpoint(dir, last, epoch_end);
            }
        }
        if let Some(span) = bwd {
            self.recorder
                .end_in_epoch(span, SpanKind::Bwd { mb }, self.trace_epoch(mb));
        }
        written.map(|()| Step::Next)
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

    /// Apply the update to the live weights — from the gradient-sync
    /// round's deposits, read in place, when `synced`, else from the
    /// stage's own gradients — bumping the local version counter.
    fn step_weights(&mut self, st: &mut WorkerState, mb: u64, synced: bool) {
        let grad = if synced {
            Grad::Round(&st.round)
        } else {
            Grad::Own { count: st.pending }
        };
        let opt_span = self.recorder.begin();
        let (model, optimizer, params) = (&mut self.model, &mut *st.optimizer, st.params);
        let bytes = match st.store.as_mut() {
            Some(store) => {
                // When the version this update supersedes is still needed,
                // the next one is written into a retired version's buffers
                // and the two trade places: the store keeps the old live
                // tensors, and no weight is copied.
                let mut bytes = None;
                store.advance(|retired| {
                    let mut next = retired.unwrap_or_else(|| {
                        let mut fresh = Vec::with_capacity(params);
                        model.visit_params(&mut |p| fresh.push(Tensor::scratch(p.value.shape())));
                        fresh
                    });
                    bytes = Some(run_update(model, optimizer, params, grad, Some(&mut next)));
                    model.swap_values(&mut next);
                    next
                });
                if self.schedule_kind.uses_two_bw() {
                    st.versions_held_max = st.versions_held_max.max(store.versions_held());
                }
                bytes.unwrap_or_else(|| run_update(model, optimizer, params, grad, None))
            }
            None => run_update(model, optimizer, params, grad, None),
        };
        st.weight_bytes += bytes;
        st.round.clear();
        st.updates += 1;
        st.pending = 0;
        self.recorder
            .end_in_epoch(opt_span, SpanKind::OptStep { mb }, self.trace_epoch(mb));
    }
}

/// One optimizer update of `model`'s `params` parameters from `grad`, the
/// next values written into `next` if given. Returns the weight and
/// gradient bytes it read and wrote ([`Update::bytes`]).
fn run_update(
    model: &mut Sequential,
    optimizer: &mut dyn Optimizer,
    params: usize,
    grad: Grad<'_>,
    next: Option<&mut Vec<Tensor>>,
) -> u64 {
    let mut update = Update::new(optimizer, params, grad, next.map(|n| &mut n[..]));
    model.visit_params_mut(&mut |p| update.param(p));
    update.bytes()
}
