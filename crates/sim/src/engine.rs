//! The resource model every pipeline executor runs on.
//!
//! [`Engine`] owns what the hardware does with an op once an executor has
//! chosen it — compute occupying the worker, the transfer and the gradient
//! sync occupying its NIC, both timelines and the summary — so the static
//! pass ([`crate::pipeline`]) and the dynamic run ([`crate::dynamic`])
//! differ only in where the op order comes from: a static op list, or the
//! one 1F1B-RR policy stepped with this engine as its clock (one policy,
//! two clocks). What is constant per worker
//! or per stage (durations, the links to both neighbour stages, the place
//! among the stage's replicas, the stage's all_reduce time) is worked out
//! once in [`Engine::new`], so computing, sending and syncing only add and
//! compare: the [`Topology`] is not consulted after construction, and
//! nothing is allocated while ops execute.

use crate::pipeline::SimResult;
use crate::timeline::{Timeline, WorkKind};
use pipedream_core::estimates::stage_memory;
use pipedream_core::schedule::{keeps_activations, Op, UpdateRule};
use pipedream_core::{PipelineConfig, ScheduleKind, StagePlan};
use pipedream_hw::Topology;
use pipedream_model::LayerCosts;

/// One worker's message to one replica of a neighbouring stage.
#[derive(Clone, Copy)]
struct Route {
    dst: usize,
    bytes: u64,
    /// Seconds the message holds the sender's NIC.
    wire_s: f64,
    /// Seconds from departure to arrival (latency + wire).
    transfer_s: f64,
}

/// A receiving worker and the arrival time.
pub(crate) type Delivery = (usize, f64);

/// A worker's place among the replicas of its stage.
#[derive(Clone, Copy)]
pub(crate) struct Replica {
    index: u64,
    of: u64,
}

impl Replica {
    /// Whether 1F1B-RR routes minibatch `mb` to this replica.
    pub(crate) fn receives(self, mb: u64) -> bool {
        self.of == 1 || mb % self.of == self.index
    }
}

pub(crate) struct Worker {
    stage: usize,
    pub(crate) replica: Replica,
    /// When the current op finishes.
    pub(crate) free_at: f64,
    nic_free: f64,
    /// Earliest start of the next forward, which must see synced weights.
    pub(crate) fwd_barrier: f64,
    fwd_s: f64,
    /// A backward; under a recompute kind it re-runs the forward first.
    bwd_s: f64,
    /// A backward whose forward's activations are still cached: nothing
    /// ran on the worker in between ([`keeps_activations`]).
    bwd_kept_s: f64,
    /// The op the worker ran last (a flush before the first).
    last: Op,
    /// Indexed by the receiving stage's replica; empty at the output stage.
    next: Vec<Route>,
    /// Likewise towards the input stage.
    prev: Vec<Route>,
}

/// Gradient sync of one stage.
struct StageSync {
    /// Seconds one all_reduce of the stage's weights holds each replica's
    /// NIC.
    allreduce_s: f64,
    /// One replica's share of the ring traffic.
    share_bytes: u64,
}

pub(crate) struct Engine<'a> {
    costs: &'a LayerCosts,
    config: &'a PipelineConfig,
    kind: ScheduleKind,
    num_minibatches: u64,
    /// When a replicated stage syncs: the update rule `kind` implies.
    updates: UpdateRule,
    workers: Vec<Worker>,
    syncs: Vec<StageSync>,
    timeline: Timeline,
    comm_timeline: Timeline,
    comm_bytes: u64,
    makespan: f64,
    /// End times of stage-0 backward passes: minibatch completions.
    stage0_done: Vec<f64>,
}

impl<'a> Engine<'a> {
    /// `workers` yields each worker's `(stage, forwards, backwards)`, the
    /// passes it will run, which size its timeline rows; `speeds` is empty
    /// for uniform workers.
    pub(crate) fn new(
        costs: &'a LayerCosts,
        topo: &'a Topology,
        config: &'a PipelineConfig,
        kind: ScheduleKind,
        speeds: &[f64],
        num_minibatches: u64,
        workers: impl Iterator<Item = (usize, usize, usize)>,
    ) -> Self {
        let stages = config.stages();
        let assignment = config.worker_assignment();
        let updates = if kind.uses_two_bw() {
            UpdateRule::TwoBw {
                group: config.two_bw_group(config.noam()),
            }
        } else {
            UpdateRule::EveryBackward
        };
        let sync = |(s, replicas): (&StagePlan, &Vec<usize>)| {
            let weight_bytes = costs.weight_bytes(s.first_layer, s.last_layer);
            let r = s.replicas as f64;
            StageSync {
                allreduce_s: topo.allreduce_time_spanning(replicas, weight_bytes),
                share_bytes: (2.0 * (r - 1.0) / r * weight_bytes as f64) as u64,
            }
        };
        let (mut timeline, mut comm_timeline) = (Timeline::default(), Timeline::default());
        let mut completions = 0;
        let worker = |(w, (stage, forwards, backwards)): (usize, (usize, usize, usize))| {
            let replicas = &assignment[stage];
            // The message over a boundary is the output activation of the
            // stage before it, or that activation's gradient.
            let routes = |to: usize| {
                let bytes = costs.activation_bytes(stages[stage.min(to)].last_layer);
                let route = |&dst: &usize| {
                    let link = topo.link_between(w, dst).expect("distinct workers");
                    Route {
                        dst,
                        bytes,
                        wire_s: bytes as f64 / link.bandwidth_bytes_per_sec,
                        transfer_s: link.transfer_time(bytes),
                    }
                };
                let replicas = assignment.get(to).into_iter().flatten();
                replicas.map(route).collect()
            };
            let next: Vec<Route> = routes(stage + 1);
            let prev: Vec<Route> = stage.checked_sub(1).map_or_else(Vec::new, routes);
            // One interval per pass, per message where there is a stage to
            // send to, and per sync: every backward of a replicated stage,
            // or under 2BW the one that closes each full update group (the
            // group size is a multiple of the replica count, so each replica
            // closes each). A backward with nowhere to send completes its
            // minibatch.
            let sends = if next.is_empty() { 0 } else { forwards }
                + if prev.is_empty() { 0 } else { backwards };
            let syncs = match (replicas.len(), updates) {
                (1, _) => 0,
                (_, UpdateRule::TwoBw { group }) => {
                    backwards.min((num_minibatches / group) as usize)
                }
                _ => backwards,
            };
            if prev.is_empty() {
                completions += backwards;
            }
            let (passes, messages) = (forwards + backwards, sends + syncs);
            timeline.per_worker.push(Vec::with_capacity(passes));
            comm_timeline.per_worker.push(Vec::with_capacity(messages));
            let layers = &costs.layers[stages[stage].first_layer..=stages[stage].last_layer];
            let fwd_s: f64 = layers.iter().map(|l| l.fwd_s).sum();
            let bwd_s: f64 = layers.iter().map(|l| l.bwd_s).sum();
            // Recomputation re-runs the forward to rebuild the activations
            // it dropped.
            let recompute_s = if kind.uses_recompute() { fwd_s } else { 0.0 };
            let speed = speeds.get(w).copied().unwrap_or(1.0);
            Worker {
                stage,
                replica: Replica {
                    index: (w - replicas[0]) as u64,
                    of: replicas.len() as u64,
                },
                free_at: 0.0,
                nic_free: 0.0,
                fwd_barrier: 0.0,
                fwd_s: fwd_s / speed,
                bwd_s: (bwd_s + recompute_s) / speed,
                bwd_kept_s: bwd_s / speed,
                last: Op::Flush,
                next,
                prev,
            }
        };
        let workers = workers.enumerate().map(worker).collect();
        Engine {
            workers,
            syncs: stages.iter().zip(&assignment).map(sync).collect(),
            costs,
            config,
            kind,
            num_minibatches,
            updates,
            timeline,
            comm_timeline,
            comm_bytes: 0,
            makespan: 0.0,
            stage0_done: Vec::with_capacity(completions),
        }
    }

    /// Worker `w`'s clocks.
    pub(crate) fn worker(&self, w: usize) -> &Worker {
        &self.workers[w]
    }

    /// Run `op` on worker `w` as soon as its input (`ready`) and the worker
    /// allow, with its effects: a backward syncs a replicated stage's
    /// weights, and both passes send to the neighbouring stage. `None` when
    /// nothing is sent: a flush, the output stage's forward, and the input
    /// stage's backward, where the minibatch completes. A backward right
    /// after its own forward recomputes nothing, whatever the kind.
    pub(crate) fn execute(&mut self, w: usize, ready: f64, op: Op) -> Option<Delivery> {
        let worker = &mut self.workers[w];
        let dur = match op {
            Op::Forward { .. } => worker.fwd_s,
            Op::Backward { .. } if keeps_activations(worker.last, op) => worker.bwd_kept_s,
            Op::Backward { .. } => worker.bwd_s,
            Op::Flush => 0.0,
        };
        worker.last = op;
        let start = ready.max(worker.free_at);
        let end = start + dur;
        worker.free_at = end;
        if dur > 0.0 {
            self.timeline.record(w, start, end, WorkKind::from_op(op));
            self.makespan = self.makespan.max(end);
        }
        match op {
            Op::Forward { mb } => self.emit_transfer(w, true, mb, end),
            Op::Backward { mb } => {
                self.emit_sync(w, mb, start);
                let sent = self.emit_transfer(w, false, mb, end);
                if sent.is_none() {
                    self.stage0_done.push(end);
                }
                sent
            }
            Op::Flush => None,
        }
    }

    /// Outgoing transfers serialize on the producing worker's NIC and take
    /// latency + bytes/bandwidth on the link to the replica 1F1B-RR routes
    /// the minibatch to.
    fn emit_transfer(&mut self, w: usize, forward: bool, mb: u64, end: f64) -> Option<Delivery> {
        let worker = &mut self.workers[w];
        let route = match if forward { &worker.next } else { &worker.prev }.as_slice() {
            [] => return None,
            [only] => *only,
            routes => routes[(mb % routes.len() as u64) as usize],
        };
        let depart = end.max(worker.nic_free);
        worker.nic_free = depart + route.wire_s;
        let arrive = depart + route.transfer_s;
        self.comm_timeline.record(w, depart, arrive, WorkKind::Sync);
        self.comm_bytes += route.bytes;
        Some((route.dst, arrive))
    }

    /// Wait-free backpropagation streams each layer's gradient as soon as
    /// its backward completes, so the all_reduce departs at backward
    /// *start* and overlaps with the pass; it gates the worker's next
    /// forward, which needs the updated weights. Under 2BW a replica
    /// accumulates locally and joins one all_reduce per full update group:
    /// the stage syncs where [`UpdateRule::updates_after`] says it updates.
    /// How long the all_reduce takes is the stage's constant.
    fn emit_sync(&mut self, w: usize, mb: u64, start: f64) {
        let worker = &mut self.workers[w];
        let (rule, replicas) = (self.updates, worker.replica.of as usize);
        let n = self.num_minibatches;
        if replicas == 1 || !rule.updates_after(Op::Backward { mb }, 1, replicas, n) {
            return;
        }
        let sync = &self.syncs[worker.stage];
        let depart = start.max(worker.nic_free);
        let done = depart + sync.allreduce_s;
        worker.nic_free = done;
        worker.fwd_barrier = done;
        self.comm_timeline.record(w, depart, done, WorkKind::Sync);
        self.comm_bytes += sync.share_bytes;
    }

    /// Close the run. `in_flight(w)` is the pipeline depth worker `w`
    /// reached, which sizes its weight versions and activation stashes.
    pub(crate) fn summarize(mut self, in_flight: impl Fn(usize) -> u64) -> SimResult {
        // Steady-state per-minibatch time over the middle half of stage-0
        // backward completions.
        self.stage0_done.sort_unstable_by(f64::total_cmp);
        let n = self.stage0_done.len();
        let per_minibatch_s = if n >= 4 {
            let (lo, hi) = (n / 4, 3 * n / 4);
            (self.stage0_done[hi] - self.stage0_done[lo]) / (hi - lo) as f64
        } else {
            self.makespan / n.max(1) as f64
        };
        let (costs, kind) = (self.costs, self.kind);
        let peak_memory = |(w, worker): (usize, &Worker)| {
            let plan = &self.config.stages()[worker.stage];
            stage_memory(costs, worker.stage, plan, in_flight(w), kind).total()
        };
        SimResult {
            peak_memory_bytes: self.workers.iter().enumerate().map(peak_memory).collect(),
            mean_utilization: self.timeline.mean_utilization_over(self.makespan),
            samples_per_sec: costs.batch as f64 / per_minibatch_s,
            per_minibatch_s,
            makespan: self.makespan,
            comm_bytes: self.comm_bytes,
            timeline: self.timeline,
            comm_timeline: self.comm_timeline,
        }
    }
}
