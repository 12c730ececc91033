//! Static work schedules (paper §3.2).
//!
//! PipeDream's 1F1B-RR produces "a static schedule of operators that each
//! worker runs repeatedly, keeping utilization high across all workers."
//! This module generates those per-worker operation sequences:
//!
//! * [`Schedule::one_f_one_b`] — 1F1B with round-robin replica routing
//!   (1F1B-RR when stages are replicated): the input stage admits `NOAM`
//!   minibatches per replica at startup, then every worker alternates
//!   between the forward pass of a new minibatch and the backward pass of
//!   an earlier one, preferring backward work when it is available.
//! * [`Schedule::model_parallel`] — the degenerate one-minibatch-in-flight
//!   schedule of Figure 2 (vanilla model parallelism).
//! * [`Schedule::gpipe`] — GPipe's microbatch schedule (Figure 3): `m`
//!   forward passes, then `m` backward passes, then a pipeline flush with a
//!   synchronous weight update.
//!
//! The sequences carry no timing: the simulator executes them against a
//! hardware model (stalling on data dependencies), and the training runtime
//! executes them against real tensors. The 1F1B-RR policy behind the first
//! three is written once, in [`Schedule::generate`], and stepped by a
//! [`Clock`]: one policy, two clocks. The canonical clock generates
//! the static op lists; the simulator's engine as the clock is its dynamic
//! executor (`pipedream_sim::simulate_dynamic`).

use crate::config::PipelineConfig;
use crate::estimates::in_flight_at_stage;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One operation in a worker's static schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Op {
    /// Forward pass of the given minibatch through this worker's stage.
    Forward {
        /// Minibatch id.
        mb: u64,
    },
    /// Backward pass of the given minibatch (weight update applied
    /// immediately after, as in PipeDream's default semantics).
    Backward {
        /// Minibatch id.
        mb: u64,
    },
    /// Pipeline flush: apply accumulated weight gradients synchronously
    /// (GPipe only).
    Flush,
}

impl Op {
    /// The minibatch this op works on, if any.
    pub fn minibatch(&self) -> Option<u64> {
        match self {
            Op::Forward { mb } | Op::Backward { mb } => Some(*mb),
            Op::Flush => None,
        }
    }
}

/// Whether `next`, run right after `op` on the same worker, is the backward
/// of the minibatch `op` forwarded. Nothing runs between the two passes,
/// so a stage that recomputes activations keeps that forward's caches
/// instead of dropping them and rebuilding them under the same weights.
/// This holds on the output stage of every 1F1B schedule, on every stage
/// of a depth-1 ([`Schedule::model_parallel`]) schedule, and for the last
/// microbatch of each GPipe group. The runtime asks it one op ahead, the
/// simulator one op behind.
pub fn keeps_activations(op: Op, next: Op) -> bool {
    matches!((op, next), (Op::Forward { mb: f }, Op::Backward { mb: b }) if f == b)
}

/// When a worker applies a weight update. On a replicated stage every
/// update follows a gradient all_reduce in which each replica's `k`-th
/// update meets the other replicas' `k`-th, so this is also when a worker
/// waits for its stage's other replicas. The trainer's workers decide
/// their updates by it, and [`Schedule::stuck`] plays schedules against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateRule {
    /// After every backward: weight stashing, vertical sync, and the naive
    /// no-stashing strawman.
    EveryBackward,
    /// PipeDream-2BW: after the backward that closes a full group of
    /// `group` minibatches, on the group's accumulated gradients (a partial
    /// trailing group's never apply, like data ending mid-group).
    TwoBw {
        /// Minibatches per gradient-accumulation group.
        group: u64,
    },
    /// GPipe: at each flush that follows a backward, on the flushed
    /// group's accumulated gradients.
    AtFlush,
}

impl UpdateRule {
    /// Whether `op`, run by a replica of a stage with `replicas` replicas
    /// in a schedule of `total` minibatches, applies an update, with
    /// `pending` backwards accumulated since the last one (`op` included).
    pub fn updates_after(self, op: Op, pending: u32, replicas: usize, total: u64) -> bool {
        match (self, op) {
            (UpdateRule::EveryBackward, Op::Backward { .. }) => true,
            (UpdateRule::TwoBw { group }, Op::Backward { mb }) => {
                // The replica's last backward of its group: its next one
                // falls in a later group, or past the end of the run.
                let next = mb + replicas as u64;
                (next / group > mb / group || next >= total) && (mb / group + 1) * group <= total
            }
            (UpdateRule::AtFlush, Op::Flush) => pending > 0,
            _ => false,
        }
    }
}

/// Message kinds, as indices into a worker's arrival flags in
/// [`Schedule::stuck`].
const ACT: usize = 0;
const GRAD: usize = 1;

/// When an op ends on the clock [`Schedule::generate`] steps the 1F1B-RR
/// policy by. The policy decides which op an idle worker picks; the clock
/// says how long that keeps the worker and when the output reaches the
/// worker that consumes it.
pub trait Clock {
    /// Worker `w` picks `op` at time `at`: when the worker is free again,
    /// and when the op's output arrives (ignored for the input stage's
    /// backward, which sends nothing).
    fn run(&mut self, w: usize, at: f64, op: Op) -> (f64, f64);
}

/// The paper's canonical timing (Figures 2–4), which fixes every static op
/// list: a forward takes one tick, a backward two, and an op's output
/// arrives the moment it ends.
struct Canonical;

impl Clock for Canonical {
    fn run(&mut self, _w: usize, at: f64, op: Op) -> (f64, f64) {
        let ticks = match op {
            Op::Forward { .. } => 1.0,
            _ => 2.0,
        };
        (at + ticks, at + ticks)
    }
}

/// The schedule of one worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerSchedule {
    /// Global worker id.
    pub worker: usize,
    /// Pipeline stage this worker runs.
    pub stage: usize,
    /// Replica index within the stage.
    pub replica: usize,
    /// Operations in execution order.
    pub ops: Vec<Op>,
}

/// A full static schedule: one op sequence per worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// The configuration the schedule was generated for.
    pub config: PipelineConfig,
    /// Per-worker schedules, indexed by global worker id.
    pub workers: Vec<WorkerSchedule>,
    /// Number of minibatches scheduled.
    pub num_minibatches: u64,
}

impl Schedule {
    /// The 1F1B / 1F1B-RR schedule with the configuration's NOAM.
    ///
    /// ```
    /// use pipedream_core::{PipelineConfig, Schedule};
    ///
    /// let config = PipelineConfig::straight(4, &[0, 1, 2]);
    /// let s = Schedule::one_f_one_b(&config, 8);
    /// s.validate().unwrap();
    /// // The output stage alternates strictly from the start: F0 B0 F1 B1…
    /// use pipedream_core::schedule::Op;
    /// assert_eq!(s.workers[3].ops[0], Op::Forward { mb: 0 });
    /// assert_eq!(s.workers[3].ops[1], Op::Backward { mb: 0 });
    /// ```
    pub fn one_f_one_b(config: &PipelineConfig, num_minibatches: u64) -> Schedule {
        Self::generate(config, num_minibatches, config.noam(), true, &mut Canonical)
    }

    /// Vanilla model parallelism: at most one minibatch in flight
    /// (Figure 2). Only meaningful for straight pipelines.
    pub fn model_parallel(config: &PipelineConfig, num_minibatches: u64) -> Schedule {
        Self::generate(config, num_minibatches, 1, true, &mut Canonical)
    }

    /// A pipelined schedule with an explicit in-flight limit per input
    /// replica (used for the Figure-18 pipeline-depth sweep).
    pub fn with_depth(config: &PipelineConfig, num_minibatches: u64, depth: usize) -> Schedule {
        Self::generate(config, num_minibatches, depth.max(1), true, &mut Canonical)
    }

    /// Ablation of 1F1B's backward-priority rule: workers prefer *forward*
    /// work whenever it is admissible, falling back to backward passes only
    /// when no forward is available. Same in-flight caps as 1F1B. Used by
    /// the scheduling-policy ablation to show why the paper's rule matters.
    pub fn forward_priority(config: &PipelineConfig, num_minibatches: u64) -> Schedule {
        Self::generate(
            config,
            num_minibatches,
            config.noam(),
            false,
            &mut Canonical,
        )
    }

    /// GPipe's schedule: groups of `microbatches` forwards then backwards,
    /// separated by flushes. Requires a straight (unreplicated) pipeline,
    /// matching the paper's GPipe comparison (§5.4).
    pub fn gpipe(config: &PipelineConfig, num_minibatches: u64, microbatches: u64) -> Schedule {
        assert!(
            config.stages().iter().all(|s| s.replicas == 1),
            "GPipe schedules support straight pipelines only"
        );
        assert!(microbatches >= 1);
        let num_stages = config.num_stages();
        let mut workers = Vec::with_capacity(num_stages);
        for stage in 0..num_stages {
            let mut ops = Vec::new();
            let mut mb = 0u64;
            while mb < num_minibatches {
                let hi = (mb + microbatches).min(num_minibatches);
                for f in mb..hi {
                    ops.push(Op::Forward { mb: f });
                }
                // Backward in reverse order, as GPipe drains the pipeline.
                for b in (mb..hi).rev() {
                    ops.push(Op::Backward { mb: b });
                }
                ops.push(Op::Flush);
                mb = hi;
            }
            workers.push(WorkerSchedule {
                worker: stage,
                stage,
                replica: 0,
                ops,
            });
        }
        Schedule {
            config: config.clone(),
            workers,
            num_minibatches,
        }
    }

    /// The one 1F1B-RR policy, stepped by `clock`: one policy, two clocks.
    /// On the canonical clock (a forward takes one tick, a backward two,
    /// and an output arrives as its op ends) it generates every static op
    /// list. With the simulator's engine as the clock it is the dynamic
    /// executor (`pipedream_sim::simulate_dynamic`), and the op lists it
    /// returns are the order that run chose.
    ///
    /// Whenever a worker is idle it picks the earliest-arrived backward if
    /// one has arrived (backward priority gives the strict F/B alternation
    /// in steady state), otherwise the earliest-arrived forward;
    /// `prefer_backward = false` swaps the two for the ablation. A worker
    /// takes a new forward only while it has fewer minibatches in flight
    /// than its cap: `depth` on the input stage, whose replica `r` admits
    /// minibatches `r, r + r0, r + 2·r0, …`, and the §3.3 memory bound of
    /// the stage within `depth` elsewhere. Outputs go to the replica
    /// 1F1B-RR routes the minibatch to. The stepper is event-driven: it
    /// visits the workers in id order at each time something frees a
    /// worker or reaches an idle one, and jumps to the next such time.
    pub fn generate<C: Clock>(
        config: &PipelineConfig,
        num_minibatches: u64,
        depth: usize,
        prefer_backward: bool,
        clock: &mut C,
    ) -> Schedule {
        /// Minibatches that have reached a worker, in arrival order, each
        /// with its arrival time.
        type Arrivals = VecDeque<(f64, u64)>;
        struct Worker {
            stage: usize,
            free_at: f64,
            in_flight: usize,
            cap: usize,
            fwd: Arrivals,
            bwd: Arrivals,
            /// The input replica's next minibatch to admit.
            admit: u64,
        }
        let num_stages = config.num_stages();
        let assignment = config.worker_assignment();
        let r0 = config.stages()[0].replicas as u64;
        let mut schedules: Vec<WorkerSchedule> = Vec::with_capacity(config.total_workers());
        let mut workers: Vec<Worker> = Vec::with_capacity(config.total_workers());
        for (stage, replicas) in assignment.iter().enumerate() {
            for (replica, &worker) in replicas.iter().enumerate() {
                let cap = match stage {
                    0 => depth,
                    s => in_flight_at_stage(config, s).min(depth).max(1),
                };
                schedules.push(WorkerSchedule {
                    worker,
                    stage,
                    replica,
                    ops: Vec::new(),
                });
                workers.push(Worker {
                    stage,
                    free_at: 0.0,
                    in_flight: 0,
                    cap,
                    fwd: VecDeque::new(),
                    bwd: VecDeque::new(),
                    admit: replica as u64,
                });
            }
        }
        // Queues stay sorted by arrival; a tie keeps the order of sending.
        let deliver = |queue: &mut Arrivals, at: f64, mb: u64| {
            if queue.back().is_some_and(|&(t, _)| t > at) {
                queue.insert(queue.partition_point(|&(t, _)| t <= at), (at, mb));
            } else {
                queue.push_back((at, mb));
            }
        };
        // `f64::min` without its NaN handling: no time is NaN.
        let earlier = |a: f64, b: f64| if a < b { a } else { b };
        let front = |queue: &Arrivals| queue.front().map_or(f64::INFINITY, |&(t, _)| t);
        let mut completed = 0u64;
        let mut now = 0.0f64;
        while completed < num_minibatches {
            // The earliest time at which a worker frees or a message
            // reaches an idle worker.
            let mut next = f64::INFINITY;
            for w in 0..workers.len() {
                let worker = &mut workers[w];
                if worker.free_at > now {
                    next = earlier(worker.free_at, next);
                    continue;
                }
                let stage = worker.stage;
                // When the oldest backward and the next admissible forward
                // arrive(d); infinite when there is none.
                let bwd = front(&worker.bwd);
                let fwd = if worker.in_flight >= worker.cap {
                    f64::INFINITY
                } else if stage > 0 {
                    front(&worker.fwd)
                } else if worker.admit < num_minibatches {
                    now
                } else {
                    f64::INFINITY
                };
                let op = if fwd <= now && (bwd > now || !prefer_backward) {
                    worker.in_flight += 1;
                    let mb = if stage == 0 {
                        worker.admit += r0;
                        worker.admit - r0
                    } else {
                        worker.fwd.pop_front().expect("arrived").1
                    };
                    Op::Forward { mb }
                } else if bwd <= now {
                    worker.in_flight -= 1;
                    Op::Backward {
                        mb: worker.bwd.pop_front().expect("arrived").1,
                    }
                } else {
                    // Idle until a message reaches it.
                    next = earlier(earlier(bwd, fwd), next);
                    continue;
                };
                let (free_at, arrives) = clock.run(w, now, op);
                worker.free_at = free_at;
                next = earlier(free_at, next);
                schedules[w].ops.push(op);
                let (queue, mb) = match op {
                    Op::Forward { mb } if stage + 1 < num_stages => {
                        let dst = assignment[stage + 1][config.replica_for(stage + 1, mb)];
                        (&mut workers[dst].fwd, mb)
                    }
                    // The output stage computes the loss itself.
                    Op::Forward { mb } => (&mut workers[w].bwd, mb),
                    Op::Backward { mb } if stage > 0 => {
                        let dst = assignment[stage - 1][config.replica_for(stage - 1, mb)];
                        (&mut workers[dst].bwd, mb)
                    }
                    _ => {
                        completed += 1;
                        continue;
                    }
                };
                next = earlier(arrives, next);
                deliver(queue, arrives, mb);
            }
            assert!(
                next.is_finite() || completed >= num_minibatches,
                "schedule generation deadlocked with {completed}/{num_minibatches} done"
            );
            now = next;
        }
        Schedule {
            config: config.clone(),
            workers: schedules,
            num_minibatches,
        }
    }

    /// Validate schedule invariants; returns a description of the first
    /// violation, if any. Checked invariants:
    ///
    /// 1. every worker's ops touch only minibatches routed to its replica;
    /// 2. per worker, each minibatch has exactly one forward and one
    ///    backward, in that order (Flush ops excepted);
    /// 3. a minibatch's forward and backward land on the *same* worker
    ///    (the 1F1B-RR correctness requirement of §3.2);
    /// 4. all `num_minibatches` minibatches appear at every stage.
    pub fn validate(&self) -> Result<(), String> {
        for ws in &self.workers {
            let replicas = self.config.stages()[ws.stage].replicas;
            let mut seen_fwd = std::collections::HashSet::new();
            let mut seen_bwd = std::collections::HashSet::new();
            for op in &ws.ops {
                match *op {
                    Op::Forward { mb } => {
                        if mb % replicas as u64 != ws.replica as u64 {
                            return Err(format!(
                                "worker {} (stage {} replica {}) ran forward of mb {mb}",
                                ws.worker, ws.stage, ws.replica
                            ));
                        }
                        if !seen_fwd.insert(mb) {
                            return Err(format!("worker {}: duplicate forward {mb}", ws.worker));
                        }
                    }
                    Op::Backward { mb } => {
                        if !seen_fwd.contains(&mb) {
                            return Err(format!(
                                "worker {}: backward of {mb} before its forward",
                                ws.worker
                            ));
                        }
                        if !seen_bwd.insert(mb) {
                            return Err(format!("worker {}: duplicate backward {mb}", ws.worker));
                        }
                    }
                    Op::Flush => {}
                }
            }
            if seen_fwd != seen_bwd {
                return Err(format!(
                    "worker {}: {} forwards but {} backwards",
                    ws.worker,
                    seen_fwd.len(),
                    seen_bwd.len()
                ));
            }
        }
        // Coverage per stage.
        for stage in 0..self.config.num_stages() {
            let count: usize = self
                .workers
                .iter()
                .filter(|w| w.stage == stage)
                .map(|w| {
                    w.ops
                        .iter()
                        .filter(|o| matches!(o, Op::Forward { .. }))
                        .count()
                })
                .sum();
            if count as u64 != self.num_minibatches {
                return Err(format!(
                    "stage {stage} saw {count} forwards, expected {}",
                    self.num_minibatches
                ));
            }
        }
        Ok(())
    }

    /// The workers whose op lists cannot run to their end when every
    /// worker updates by `updates`, each as `(worker id, the op it would
    /// block on for good)`; empty when every list can.
    ///
    /// The generator's canonical clock knows nothing of the all_reduce that
    /// couples a replicated stage's updates, so some replication patterns
    /// schedule an op that can never start: 38 of the 340 patterns of at
    /// most four stages on at most four replicas each, the shallowest
    /// `2-3-4`, `3-2-4` and `3-4-4` (`tests/stuck_patterns.rs` pins the
    /// list). In each, a replica waits in a gradient-sync round for a
    /// partner's backward whose inputs, through the other stages' op
    /// orders, wait on that very round. This plays every op list against
    /// the trainer's blocking rules instead, computing nothing:
    ///
    /// * a forward past the input stage waits for its activation, which the
    ///   upstream replica that ran the minibatch sends to the replica
    ///   1F1B-RR routes it to; a backward below the output stage waits for
    ///   its gradient in the same way;
    /// * an op sends its activation or input gradient first; then, if it
    ///   updates on a replicated stage, it enters the stage's next
    ///   gradient-sync round and waits until every replica of the stage has
    ///   entered it;
    /// * channels are unbounded, so a send never blocks.
    ///
    /// Every rule is monotone — a message once sent stays delivered, a
    /// round once entered stays entered — so the order workers are stepped
    /// in does not matter: an op that cannot start here cannot start in
    /// the trainer.
    pub fn stuck(&self, updates: UpdateRule) -> Vec<(usize, Op)> {
        let stages = self.config.stages();
        let assignment = self.config.worker_assignment();
        let n = self.workers.len();
        // Per worker: the next op, the sync rounds entered, whether the
        // next op has entered its round, and the backwards since the last
        // update.
        let mut next = vec![0; n];
        let mut rounds = vec![0u64; n];
        let mut in_round = vec![false; n];
        let mut pending = vec![0u32; n];
        // Activations and gradients delivered to each worker, by
        // `mb / replicas` (a worker receives only the minibatches routed
        // to it).
        let mut arrived: Vec<[Vec<bool>; 2]> = self
            .workers
            .iter()
            .map(|w| {
                let slots = self
                    .num_minibatches
                    .div_ceil(stages[w.stage].replicas as u64) as usize;
                [vec![false; slots], vec![false; slots]]
            })
            .collect();
        let mut ready: Vec<usize> = (0..n).collect();
        while let Some(id) = ready.pop() {
            let w = &self.workers[id];
            let replicas = stages[w.stage].replicas;
            let peers = &assignment[w.stage];
            while let Some(&op) = w.ops.get(next[id]) {
                let input = match op {
                    Op::Forward { mb } if w.stage > 0 => Some((ACT, mb)),
                    Op::Backward { mb } if w.stage + 1 < stages.len() => Some((GRAD, mb)),
                    _ => None,
                };
                let slot = |mb: u64| (mb / replicas as u64) as usize;
                if input.is_some_and(|(kind, mb)| !arrived[id][kind][slot(mb)]) {
                    break;
                }
                // The op's message goes out before its update's round.
                let send = match op {
                    Op::Forward { mb } if w.stage + 1 < stages.len() => {
                        Some((w.stage + 1, ACT, mb))
                    }
                    Op::Backward { mb } if w.stage > 0 => Some((w.stage - 1, GRAD, mb)),
                    _ => None,
                };
                if let Some((stage, kind, mb)) = send {
                    let r = stages[stage].replicas as u64;
                    let to = assignment[stage][(mb % r) as usize];
                    arrived[to][kind][(mb / r) as usize] = true;
                    ready.push(to);
                }
                let mut accumulated = pending[id] + u32::from(matches!(op, Op::Backward { .. }));
                if updates.updates_after(op, accumulated, replicas, self.num_minibatches) {
                    if replicas > 1 {
                        if !in_round[id] {
                            in_round[id] = true;
                            rounds[id] += 1;
                            ready.extend(peers);
                        }
                        if peers.iter().any(|&p| rounds[p] < rounds[id]) {
                            break;
                        }
                        in_round[id] = false;
                    }
                    accumulated = 0;
                }
                pending[id] = accumulated;
                next[id] += 1;
            }
        }
        self.workers
            .iter()
            .zip(&next)
            .filter_map(|(w, &at)| w.ops.get(at).map(|&op| (w.worker, op)))
            .collect()
    }

    /// The repeating steady-state op pattern of `worker` — the paper's
    /// "static schedule of operators that each worker runs repeatedly".
    ///
    /// Skips the startup phase and the drain tail, then finds the shortest
    /// cycle of op *kinds* (forward/backward, with minibatch ids abstracted
    /// to strides) that tiles the steady region. For a balanced straight
    /// pipeline under 1F1B this is `[Backward, Forward]`; a replica of an
    /// `r`-way stage sees the same pattern with minibatch stride `r`.
    /// Returns `None` when the schedule is too short to have a steady state.
    pub fn steady_state_pattern(&self, worker: usize) -> Option<Vec<&'static str>> {
        let ops = &self.workers[worker].ops;
        if ops.len() < 8 {
            return None;
        }
        // Steady region: middle half.
        let kinds: Vec<&'static str> = ops[ops.len() / 4..3 * ops.len() / 4]
            .iter()
            .map(|o| match o {
                Op::Forward { .. } => "F",
                Op::Backward { .. } => "B",
                Op::Flush => "|",
            })
            .collect();
        // Shortest period that tiles the region.
        for period in 1..=kinds.len() / 2 {
            if kinds
                .iter()
                .enumerate()
                .all(|(i, k)| *k == kinds[i % period])
            {
                return Some(kinds[..period].to_vec());
            }
        }
        None
    }

    /// Maximum number of minibatches simultaneously holding stashed state at
    /// any worker (forward done, backward not yet) — the memory-relevant
    /// pipeline depth actually realised by the schedule.
    pub fn peak_in_flight(&self, worker: usize) -> usize {
        let mut depth = 0usize;
        let mut peak = 0usize;
        for op in &self.workers[worker].ops {
            match op {
                Op::Forward { .. } => {
                    depth += 1;
                    peak = peak.max(depth);
                }
                Op::Backward { .. } => depth -= 1,
                Op::Flush => {}
            }
        }
        peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn straight(stages: usize) -> PipelineConfig {
        PipelineConfig::straight(stages, &(0..stages - 1).collect::<Vec<_>>())
    }

    #[test]
    fn figure4_startup_and_steady_state() {
        // 4-stage straight pipeline (Figure 4): stage 0 admits NOAM = 4
        // minibatches before its first backward.
        let config = straight(4);
        let s = Schedule::one_f_one_b(&config, 12);
        s.validate().unwrap();
        let ops0 = &s.workers[0].ops;
        let first_bwd = ops0
            .iter()
            .position(|o| matches!(o, Op::Backward { .. }))
            .unwrap();
        let fwd_before: Vec<u64> = ops0[..first_bwd]
            .iter()
            .filter_map(|o| o.minibatch())
            .collect();
        assert_eq!(
            fwd_before,
            vec![0, 1, 2, 3],
            "startup admits NOAM minibatches"
        );
        // Steady state: strict F/B alternation on stage 0 after startup.
        let steady = &ops0[first_bwd..ops0.len() - 4];
        for pair in steady.chunks(2) {
            assert!(matches!(pair[0], Op::Backward { .. }));
            if pair.len() > 1 {
                assert!(matches!(pair[1], Op::Forward { .. }));
            }
        }
    }

    #[test]
    fn last_stage_alternates_from_the_start() {
        let config = straight(4);
        let s = Schedule::one_f_one_b(&config, 8);
        let ops = &s.workers[3].ops;
        // Output stage: F0 B0 F1 B1 … (1F1B with NOAM 1 locally).
        assert_eq!(ops[0], Op::Forward { mb: 0 });
        assert_eq!(ops[1], Op::Backward { mb: 0 });
        assert_eq!(ops[2], Op::Forward { mb: 1 });
        assert_eq!(ops[3], Op::Backward { mb: 1 });
    }

    #[test]
    fn model_parallel_has_one_in_flight() {
        let config = straight(4);
        let s = Schedule::model_parallel(&config, 6);
        s.validate().unwrap();
        for w in 0..4 {
            assert_eq!(s.peak_in_flight(w), 1);
        }
    }

    #[test]
    fn one_f_one_b_peak_in_flight_decreases_along_pipeline() {
        // §3.3: stage s of an n-stage pipeline stashes n − s versions.
        let config = straight(4);
        let s = Schedule::one_f_one_b(&config, 20);
        assert_eq!(s.peak_in_flight(0), 4);
        assert_eq!(s.peak_in_flight(1), 3);
        assert_eq!(s.peak_in_flight(2), 2);
        assert_eq!(s.peak_in_flight(3), 1);
    }

    #[test]
    fn figure8_round_robin_routing() {
        // 2-1 configuration (Figure 8): replica 0 of stage 0 handles even
        // minibatches, replica 1 odd ones, worker 2 handles all.
        let config = PipelineConfig::from_counts(&[(1, 2), (1, 1)]);
        let s = Schedule::one_f_one_b(&config, 10);
        s.validate().unwrap();
        for op in &s.workers[0].ops {
            assert_eq!(op.minibatch().unwrap() % 2, 0);
        }
        for op in &s.workers[1].ops {
            assert_eq!(op.minibatch().unwrap() % 2, 1);
        }
        let w2_fwds: Vec<u64> = s.workers[2]
            .ops
            .iter()
            .filter_map(|o| match o {
                Op::Forward { mb } => Some(*mb),
                _ => None,
            })
            .collect();
        assert_eq!(w2_fwds, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn gpipe_groups_and_flushes() {
        let config = straight(3);
        let s = Schedule::gpipe(&config, 8, 4);
        s.validate().unwrap();
        let ops = &s.workers[0].ops;
        // First group: F0..F3, B3..B0, Flush.
        assert_eq!(
            &ops[..9],
            &[
                Op::Forward { mb: 0 },
                Op::Forward { mb: 1 },
                Op::Forward { mb: 2 },
                Op::Forward { mb: 3 },
                Op::Backward { mb: 3 },
                Op::Backward { mb: 2 },
                Op::Backward { mb: 1 },
                Op::Backward { mb: 0 },
                Op::Flush,
            ]
        );
        let flushes = ops.iter().filter(|o| matches!(o, Op::Flush)).count();
        assert_eq!(flushes, 2);
    }

    #[test]
    #[should_panic(expected = "straight pipelines only")]
    fn gpipe_rejects_replication() {
        let config = PipelineConfig::from_counts(&[(1, 2), (1, 1)]);
        Schedule::gpipe(&config, 4, 2);
    }

    #[test]
    fn schedules_are_deterministic() {
        let config = PipelineConfig::from_counts(&[(2, 2), (1, 1), (1, 1)]);
        let a = Schedule::one_f_one_b(&config, 16);
        let b = Schedule::one_f_one_b(&config, 16);
        assert_eq!(a, b, "1F1B-RR is a static schedule");
    }

    #[test]
    fn validate_catches_foreign_minibatch() {
        let config = PipelineConfig::from_counts(&[(1, 2), (1, 1)]);
        let mut s = Schedule::one_f_one_b(&config, 4);
        // Corrupt: give worker 0 (even replica) an odd minibatch.
        s.workers[0].ops.push(Op::Forward { mb: 3 });
        assert!(s.validate().is_err());
    }

    #[test]
    fn depth_limits_in_flight() {
        let config = straight(4);
        for depth in 1..=6 {
            let s = Schedule::with_depth(&config, 24, depth);
            s.validate().unwrap();
            assert_eq!(s.peak_in_flight(0), depth.min(24));
        }
    }

    #[test]
    fn steady_state_is_one_forward_one_backward() {
        // §3.2: "each stage alternates between performing its forward pass
        // for a minibatch and its backward pass for an earlier minibatch"
        // — the steady-state pattern has period 2 for every stage of a
        // balanced straight pipeline.
        let config = straight(4);
        let s = Schedule::one_f_one_b(&config, 64);
        for w in 0..4 {
            let pat = s
                .steady_state_pattern(w)
                .expect("long run has steady state");
            assert_eq!(pat.len(), 2, "worker {w}: {pat:?}");
            assert!(
                pat.contains(&"F") && pat.contains(&"B"),
                "worker {w}: {pat:?}"
            );
        }
    }

    #[test]
    fn gpipe_steady_pattern_is_not_alternating() {
        // GPipe's groups produce runs of Fs then runs of Bs — never the
        // period-2 alternation.
        let config = straight(4);
        let s = Schedule::gpipe(&config, 64, 4);
        let pat = s.steady_state_pattern(0).expect("steady state");
        assert!(pat.len() > 2, "{pat:?}");
    }

    /// The minibatches whose activations `worker` keeps for the backward
    /// right after their forward.
    fn kept(s: &Schedule, worker: usize) -> Vec<u64> {
        let ops = &s.workers[worker].ops;
        ops.windows(2)
            .filter(|w| keeps_activations(w[0], w[1]))
            .filter_map(|w| w[0].minibatch())
            .collect()
    }

    #[test]
    fn keeps_activations_only_for_its_own_backward_next() {
        let (f, b) = (|mb| Op::Forward { mb }, |mb| Op::Backward { mb });
        assert!(keeps_activations(f(3), b(3)));
        for (op, next) in [
            (f(3), b(2)),
            (f(3), f(4)),
            (b(3), b(3)),
            (b(3), f(3)),
            (f(3), Op::Flush),
            (Op::Flush, b(3)),
        ] {
            assert!(!keeps_activations(op, next), "{op:?} then {next:?}");
        }
    }

    #[test]
    fn one_f_one_b_keeps_activations_on_the_output_stage_only() {
        let s = Schedule::one_f_one_b(&straight(4), 8);
        assert_eq!(kept(&s, 3), (0..8).collect::<Vec<_>>());
        for w in 0..3 {
            assert_eq!(kept(&s, w), Vec::<u64>::new(), "stage {w}");
        }
        // Replicated: the replicas of the input stage wait on the output
        // stage's backward; the output stage keeps every minibatch.
        let config = PipelineConfig::from_counts(&[(1, 2), (1, 1)]);
        let rr = Schedule::one_f_one_b(&config, 8);
        assert!(kept(&rr, 0).is_empty() && kept(&rr, 1).is_empty());
        assert_eq!(kept(&rr, 2), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn model_parallel_keeps_activations_everywhere() {
        let s = Schedule::model_parallel(&straight(4), 6);
        for w in 0..4 {
            assert_eq!(kept(&s, w), (0..6).collect::<Vec<_>>(), "stage {w}");
        }
    }

    #[test]
    fn data_parallel_keeps_activations_on_every_replica() {
        let s = Schedule::one_f_one_b(&PipelineConfig::data_parallel(4, 2), 8);
        assert_eq!(kept(&s, 0), vec![0, 2, 4, 6]);
        assert_eq!(kept(&s, 1), vec![1, 3, 5, 7]);
    }

    #[test]
    fn gpipe_keeps_the_last_microbatch_of_each_group() {
        // Groups {0,1,2}, {3,4,5}, {6,7}: each group's last forward is
        // followed by its own backward, as torchgpipe's `except_last`.
        let s = Schedule::gpipe(&straight(3), 8, 3);
        for w in 0..3 {
            assert_eq!(kept(&s, w), vec![2, 5, 7], "stage {w}");
        }
    }

    #[test]
    fn two_bw_updates_once_per_full_group() {
        // Two replicas, groups of 4, 10 minibatches: replica 0 runs
        // 0 2 4 6 8, replica 1 runs 1 3 5 7 9; the trailing group 8..12 is
        // partial and never applies.
        let rule = UpdateRule::TwoBw { group: 4 };
        let updates = |first: u64| -> Vec<u64> {
            (first..10)
                .step_by(2)
                .filter(|&mb| rule.updates_after(Op::Backward { mb }, 1, 2, 10))
                .collect()
        };
        assert_eq!(updates(0), vec![2, 6]);
        assert_eq!(updates(1), vec![3, 7]);
        assert!(!rule.updates_after(Op::Forward { mb: 2 }, 1, 2, 10));
        // A flush updates only under GPipe, and only after a backward.
        assert!(UpdateRule::AtFlush.updates_after(Op::Flush, 3, 1, 10));
        assert!(!UpdateRule::AtFlush.updates_after(Op::Flush, 0, 1, 10));
        assert!(!UpdateRule::AtFlush.updates_after(Op::Backward { mb: 0 }, 1, 1, 10));
        assert!(!UpdateRule::EveryBackward.updates_after(Op::Flush, 1, 1, 10));
    }

    #[test]
    fn stuck_names_the_ops_the_sync_round_blocks() {
        // `3-2-4`: the input stage's first replica blocks at its backward
        // of minibatch 9, and none of the nine workers gets to its end.
        let config = PipelineConfig::from_counts(&[(1, 3), (1, 2), (1, 4)]);
        let s = Schedule::one_f_one_b(&config, 24);
        for rule in [UpdateRule::EveryBackward, UpdateRule::TwoBw { group: 12 }] {
            let stuck = s.stuck(rule);
            assert_eq!(stuck[0], (0, Op::Backward { mb: 9 }), "{rule:?}");
            assert_eq!(stuck.len(), 9, "{rule:?}");
        }
        // Without the rounds (no replicas, or no update ever) nothing is stuck.
        assert!(s.stuck(UpdateRule::AtFlush).is_empty());
        for config in [
            PipelineConfig::from_counts(&[(1, 1), (1, 2)]),
            PipelineConfig::from_counts(&[(1, 2), (1, 1)]),
            PipelineConfig::from_counts(&[(1, 1), (1, 4)]),
            PipelineConfig::from_counts(&[(1, 1), (1, 2), (1, 1)]),
            PipelineConfig::data_parallel(4, 2),
            straight(4),
        ] {
            let s = Schedule::one_f_one_b(&config, 16);
            assert_eq!(s.stuck(UpdateRule::EveryBackward), vec![], "{config}");
        }
        let gpipe = Schedule::gpipe(&straight(3), 8, 4);
        assert_eq!(gpipe.stuck(UpdateRule::AtFlush), vec![]);
    }

    #[test]
    fn all_minibatches_complete_with_many_replicas() {
        let config = PipelineConfig::from_counts(&[(1, 3), (2, 2), (1, 1)]);
        let s = Schedule::one_f_one_b(&config, 30);
        s.validate().unwrap();
    }
}
