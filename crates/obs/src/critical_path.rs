//! The one fold over a trace: typed bubble attribution of every stage
//! track, and on top of it the per-minibatch dependency DAG and its
//! critical path.
//!
//! Per-stage busy/comm/bubble fractions say a stage idled; they cannot
//! say *which dependency* put that idle time on the end-to-end critical
//! path. This module reads any [`TraceSnapshot`] — live or parsed back
//! from a Chrome trace, measured or simulated — and produces two exact
//! accountings:
//!
//! 1. **Per-stage wall-clock attribution** (`fold`, public as
//!    [`attribute_window`]): every nanosecond of every stage track inside
//!    a window is assigned a [`BubbleCause`]. A track is tiled once,
//!    clipped to the window and counted in integer nanoseconds, so its
//!    causes sum to the window *by construction* and adjacent windows add
//!    up cause by cause to the window spanning them. This is the only
//!    place in the crate that maps a [`SpanKind`] to a cause or resolves
//!    nesting: [`crate::analysis::stage_times`],
//!    [`crate::live::LiveProfiler`] and
//!    [`crate::drift::detect_replica_lag`] are projections of it, through
//!    the two groupings [`BubbleCause::group`] and
//!    [`BubbleCause::is_service`].
//! 2. **Critical-path attribution** ([`analyze_trace`]): walking binding
//!    predecessors backward from the last span to finish (the same-track
//!    predecessor or the cross-stage data producer, whichever ended
//!    later), the run's makespan telescopes into per-stage, per-cause
//!    critical-path segments that also sum exactly to wall clock. A
//!    stage's share of the critical path is the honest measure of how
//!    much it bottlenecks the run — speeding up anything else cannot
//!    help.
//!
//! [`what_if`] turns the attribution into an Amdahl-style estimator:
//! scale one stage's per-minibatch service time and predict the
//! end-to-end steady-state gain, validated against the discrete-event
//! simulator in the integration tests.

use crate::analysis::measured_per_minibatch_s;
use crate::event::SpanKind;
use crate::recorder::{TraceSnapshot, TrackEvents};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Where a slice of a stage's wall clock went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BubbleCause {
    /// Useful forward/backward compute — not a bubble.
    Compute,
    /// Blocked on an upstream activation or downstream gradient arriving
    /// (`recv_wait` spans): the sender is the bottleneck.
    WaitUpstream,
    /// Blocked (or throttled) sending to a peer (`send_wait` spans) —
    /// includes injected send delays, which stall the sender's clock.
    Backpressure,
    /// Gradient all-reduce rendezvous across stage replicas.
    GradSync,
    /// Re-running the forward pass to rebuild dropped activations
    /// (recompute schedules).
    Recompute,
    /// 2BW update-group barrier: the coalesced grad-sync a double-buffered
    /// schedule pays once per group instead of once per minibatch.
    TwoBwBarrier,
    /// Optimizer step applying the update.
    OptimizerStep,
    /// Checkpoint writes.
    Checkpoint,
    /// Fault-injection stalls (`stalled` spans, gaps around `fault`
    /// instants).
    Injection,
    /// Pipeline fill/drain: idle before a track's first span or after its
    /// last one.
    FillDrain,
    /// Interior idle not attributable to any recorded dependency.
    Idle,
}

impl BubbleCause {
    /// Every cause, in display order.
    pub const ALL: [BubbleCause; 11] = [
        BubbleCause::Compute,
        BubbleCause::WaitUpstream,
        BubbleCause::Backpressure,
        BubbleCause::GradSync,
        BubbleCause::Recompute,
        BubbleCause::TwoBwBarrier,
        BubbleCause::OptimizerStep,
        BubbleCause::Checkpoint,
        BubbleCause::Injection,
        BubbleCause::FillDrain,
        BubbleCause::Idle,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            BubbleCause::Compute => "compute",
            BubbleCause::WaitUpstream => "wait_upstream",
            BubbleCause::Backpressure => "backpressure",
            BubbleCause::GradSync => "grad_sync",
            BubbleCause::Recompute => "recompute",
            BubbleCause::TwoBwBarrier => "2bw_barrier",
            BubbleCause::OptimizerStep => "optimizer_step",
            BubbleCause::Checkpoint => "checkpoint",
            BubbleCause::Injection => "injection",
            BubbleCause::FillDrain => "fill_drain",
            BubbleCause::Idle => "idle",
        }
    }

    /// Grouping 1 — the three-way split every dashboard column, gauge and
    /// `StageTimes` fraction shows: the worker is *busy* running the
    /// model, blocked on a peer (*comm*), or neither (*bubble*).
    pub fn group(self) -> CauseGroup {
        match self {
            BubbleCause::Compute | BubbleCause::Recompute | BubbleCause::OptimizerStep => {
                CauseGroup::Busy
            }
            BubbleCause::WaitUpstream
            | BubbleCause::Backpressure
            | BubbleCause::GradSync
            | BubbleCause::TwoBwBarrier => CauseGroup::Comm,
            BubbleCause::Checkpoint
            | BubbleCause::Injection
            | BubbleCause::FillDrain
            | BubbleCause::Idle => CauseGroup::Bubble,
        }
    }

    /// Grouping 2 — per-minibatch *service*: time only this stage can
    /// absorb, so it bounds the stage's steady-state rate. Waiting on a
    /// peer is not service (a faster peer removes it); a send stall is,
    /// because it holds this worker's clock — which is how an injected
    /// straggler delay reaches the drift detector and [`what_if`].
    pub fn is_service(self) -> bool {
        matches!(
            self,
            BubbleCause::Compute
                | BubbleCause::Backpressure
                | BubbleCause::Recompute
                | BubbleCause::OptimizerStep
                | BubbleCause::Checkpoint
        )
    }
}

/// The coarse split of [`BubbleCause::group`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CauseGroup {
    /// Forward/backward compute, recompute, optimizer step.
    Busy,
    /// Blocked on a receive, a send or a gradient-sync rendezvous.
    Comm,
    /// Everything else: fill/drain, idle, checkpoint writes, injections.
    Bubble,
}

/// Nanoseconds per cause; an exact partition of some wall-clock interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CauseBreakdown {
    /// Useful compute time (seconds). The remaining fields are bubbles.
    pub compute_s: f64,
    /// Upstream/downstream receive waits.
    pub wait_upstream_s: f64,
    /// Send-side stalls (including injected delays).
    pub backpressure_s: f64,
    /// Replica gradient-sync rendezvous.
    pub grad_sync_s: f64,
    /// Activation recomputation.
    pub recompute_s: f64,
    /// 2BW update-group barriers.
    pub two_bw_barrier_s: f64,
    /// Optimizer steps.
    pub optimizer_step_s: f64,
    /// Checkpoint writes.
    pub checkpoint_s: f64,
    /// Fault-injection stalls.
    pub injection_s: f64,
    /// Pipeline fill/drain idle.
    pub fill_drain_s: f64,
    /// Unattributed interior idle.
    pub idle_s: f64,
}

impl CauseBreakdown {
    /// Add `seconds` to one cause bucket.
    pub fn add(&mut self, cause: BubbleCause, seconds: f64) {
        *self.slot(cause) += seconds;
    }

    /// Seconds attributed to `cause`.
    pub fn get(&self, cause: BubbleCause) -> f64 {
        // Read through the one cause → field table, on a copy.
        *{ *self }.slot(cause)
    }

    fn slot(&mut self, cause: BubbleCause) -> &mut f64 {
        match cause {
            BubbleCause::Compute => &mut self.compute_s,
            BubbleCause::WaitUpstream => &mut self.wait_upstream_s,
            BubbleCause::Backpressure => &mut self.backpressure_s,
            BubbleCause::GradSync => &mut self.grad_sync_s,
            BubbleCause::Recompute => &mut self.recompute_s,
            BubbleCause::TwoBwBarrier => &mut self.two_bw_barrier_s,
            BubbleCause::OptimizerStep => &mut self.optimizer_step_s,
            BubbleCause::Checkpoint => &mut self.checkpoint_s,
            BubbleCause::Injection => &mut self.injection_s,
            BubbleCause::FillDrain => &mut self.fill_drain_s,
            BubbleCause::Idle => &mut self.idle_s,
        }
    }

    /// Sum across every cause.
    pub fn total_s(&self) -> f64 {
        BubbleCause::ALL.iter().map(|&c| self.get(c)).sum()
    }

    /// Mean seconds of [`BubbleCause::is_service`] time per minibatch on
    /// one replica (0 when none completed) — the measured counterpart of
    /// the planner's per-replica `StagePrediction::compute_s`.
    pub(crate) fn service_per_mb_s(&self, minibatches: u64) -> f64 {
        if minibatches == 0 {
            return 0.0;
        }
        let service = BubbleCause::ALL.iter().filter(|c| c.is_service());
        service.map(|&c| self.get(c)).sum::<f64>() / minibatches as f64
    }

    /// Gradient-sync rendezvous time under either cadence.
    pub(crate) fn sync_s(&self) -> f64 {
        self.grad_sync_s + self.two_bw_barrier_s
    }

    /// Largest bubble bucket, if any time was lost at all.
    pub fn top_bubble(&self) -> Option<(BubbleCause, f64)> {
        BubbleCause::ALL
            .iter()
            .filter(|&&c| c != BubbleCause::Compute)
            .map(|&c| (c, self.get(c)))
            .filter(|&(_, s)| s > 0.0)
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// One stage's exact wall-clock accounting, summed over replica tracks.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageAttribution {
    /// Pipeline stage index.
    pub stage: usize,
    /// Replica tracks contributing (breakdown totals `wall × tracks`).
    pub tracks: usize,
    /// Where the stage's time went.
    pub breakdown: CauseBreakdown,
    /// Backward passes completed across the stage's replicas.
    pub minibatches: u64,
    /// Effective per-minibatch *service* time: work only this stage can
    /// absorb (compute + send stalls + recompute + optimizer + checkpoint)
    /// divided by minibatches and replica count — the quantity the
    /// Amdahl what-if scales.
    pub service_per_mb_s: f64,
}

/// One stage's share of the run's critical path.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CpContribution {
    /// Pipeline stage index.
    pub stage: usize,
    /// Critical-path seconds owned by this stage.
    pub seconds: f64,
    /// What the stage was doing during its critical-path segments.
    pub breakdown: CauseBreakdown,
}

/// The full causal analysis of one trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CriticalPathReport {
    /// Wall clock of the trace (latest event end), seconds.
    pub wall_s: f64,
    /// Minibatches completed (max across stages).
    pub minibatches: u64,
    /// Measured steady-state seconds per minibatch (middle-half slope of
    /// stage-0 backward completions).
    pub per_minibatch_s: f64,
    /// Exact per-stage wall-clock attribution.
    pub per_stage: Vec<StageAttribution>,
    /// Per-stage critical-path share, indexed by stage (unranked; the
    /// seconds sum to `wall_s`).
    pub critical_path: Vec<CpContribution>,
    /// Spans on the critical path.
    pub cp_nodes: usize,
}

impl CriticalPathReport {
    /// Stages ranked by critical-path share, biggest bottleneck first.
    pub fn ranked(&self) -> Vec<&CpContribution> {
        let mut v: Vec<&CpContribution> = self.critical_path.iter().collect();
        v.sort_by(|a, b| b.seconds.total_cmp(&a.seconds).then(a.stage.cmp(&b.stage)));
        v
    }

    /// The stage owning the largest critical-path share.
    pub fn bottleneck_stage(&self) -> Option<usize> {
        self.ranked().first().map(|c| c.stage)
    }

    /// Per-stage attribution entry.
    pub fn stage(&self, stage: usize) -> Option<&StageAttribution> {
        self.per_stage.iter().find(|s| s.stage == stage)
    }
}

/// Amdahl-style prediction for speeding up one stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WhatIf {
    /// Stage being hypothetically sped up.
    pub stage: usize,
    /// Fractional service-time reduction applied (0.3 = 30% faster).
    pub speedup_frac: f64,
    /// Measured steady-state seconds per minibatch before the change.
    pub baseline_per_mb_s: f64,
    /// Predicted steady-state seconds per minibatch after the change.
    pub predicted_per_mb_s: f64,
    /// Predicted end-to-end gain: `1 - predicted/baseline`.
    pub predicted_gain_frac: f64,
}

/// How one toplevel span (or the gap before it) spends its time.
struct Node {
    stage: usize,
    kind: SpanKind,
    start_ns: u64,
    end_ns: u64,
    /// `(start, end, cause)` pieces tiling `[start_ns, end_ns]` exactly.
    pieces: Vec<(u64, u64, BubbleCause)>,
}

fn cause_of(kind: SpanKind, two_bw: bool) -> Option<BubbleCause> {
    Some(match kind {
        SpanKind::Fwd { .. } | SpanKind::Bwd { .. } => BubbleCause::Compute,
        SpanKind::RecvWait { .. } => BubbleCause::WaitUpstream,
        SpanKind::SendWait { .. } => BubbleCause::Backpressure,
        SpanKind::GradSync => {
            if two_bw {
                BubbleCause::TwoBwBarrier
            } else {
                BubbleCause::GradSync
            }
        }
        SpanKind::Recompute { .. } => BubbleCause::Recompute,
        SpanKind::OptStep { .. } => BubbleCause::OptimizerStep,
        SpanKind::Checkpoint => BubbleCause::Checkpoint,
        SpanKind::Stalled => BubbleCause::Injection,
        // Instant bookkeeping events carry no duration.
        SpanKind::StashPush { .. }
        | SpanKind::StashPop { .. }
        | SpanKind::SyncDeposit { .. }
        | SpanKind::SyncRelease { .. }
        | SpanKind::Fault
        | SpanKind::Recovery
        | SpanKind::Reconfig => return None,
    })
}

/// Partition a stage track into toplevel spans, each pre-sliced into
/// `(start, end, cause)` pieces: nested spans get their own cause, the
/// uncovered remainder inherits the toplevel span's cause. A toplevel
/// `RecvWait` right before a forward or backward of its minibatch, and a
/// toplevel `SendWait` right after a forward of its minibatch, are pieces
/// of that op's node, as if nested in it.
fn build_nodes(stage: usize, track: &TrackEvents) -> Vec<Node> {
    // A sparse optimizer-step cadence (2BW gradient accumulation, GPipe
    // flush) means the per-group grad-sync is a *group barrier*, not a
    // per-minibatch rendezvous.
    let bwds = track
        .events
        .iter()
        .filter(|e| matches!(e.kind, SpanKind::Bwd { .. }))
        .count();
    let opts = track
        .events
        .iter()
        .filter(|e| matches!(e.kind, SpanKind::OptStep { .. }))
        .count();
    let two_bw = opts > 0 && opts * 2 <= bwds;

    let mut nodes: Vec<Node> = Vec::new();
    let mut spans: Vec<_> = track.events.iter().filter(|e| !e.is_instant()).collect();
    // At equal starts the enclosing (longer) span must be toplevel —
    // simulated traces emit a Fwd/Bwd and its nested RecvWait with the
    // same start timestamp.
    spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.end_ns.cmp(&a.end_ns)));
    let mut i = 0;
    while i < spans.len() {
        let top = spans[i];
        let top_cause = cause_of(top.kind, two_bw).unwrap_or(BubbleCause::Idle);
        let mut pieces: Vec<(u64, u64, BubbleCause)> = Vec::new();
        let mut covered = top.start_ns;
        let mut j = i + 1;
        while j < spans.len() && spans[j].start_ns < top.end_ns {
            let nested = spans[j];
            if let Some(cause) = cause_of(nested.kind, two_bw) {
                let s = nested.start_ns.max(covered);
                let e = nested.end_ns.min(top.end_ns);
                if e > s {
                    if s > covered {
                        pieces.push((covered, s, top_cause));
                    }
                    pieces.push((s, e, cause));
                    covered = e;
                }
            }
            j += 1;
        }
        if top.end_ns > covered {
            pieces.push((covered, top.end_ns, top_cause));
        }
        // A worker that shares its thread records a wait for an op's
        // message just before the op's span, and an injected send delay
        // just after it, instead of inside: the op's node takes them in,
        // as it takes in the waits nested inside it.
        let prev = nodes.last_mut().filter(|prev| {
            matches!(
                (prev.kind, top.kind),
                (SpanKind::RecvWait { mb: a }, SpanKind::Fwd { mb: b } | SpanKind::Bwd { mb: b })
                | (SpanKind::Fwd { mb: a }, SpanKind::SendWait { mb: b }) if a == b
            )
        });
        match prev {
            Some(prev) => {
                let cause = match top.kind {
                    SpanKind::SendWait { .. } => BubbleCause::Backpressure,
                    _ => top_cause,
                };
                if top.start_ns > prev.end_ns {
                    prev.pieces.push((prev.end_ns, top.start_ns, cause));
                }
                prev.pieces.append(&mut pieces);
                prev.end_ns = prev.end_ns.max(top.end_ns);
                if !matches!(top.kind, SpanKind::SendWait { .. }) {
                    prev.kind = top.kind;
                }
            }
            None => nodes.push(Node {
                stage,
                kind: top.kind,
                start_ns: top.start_ns,
                end_ns: top.end_ns,
                pieces,
            }),
        }
        i = j;
    }
    nodes
}

/// Clip a node's pieces to `[from, to]` and accumulate into `out`
/// (nanosecond-exact).
fn add_pieces(out: &mut CauseBreakdown, node: &Node, from: u64, to: u64) {
    for &(s, e, cause) in &node.pieces {
        let cs = s.max(from);
        let ce = e.min(to);
        if ce > cs {
            out.add(cause, (ce - cs) as f64 * 1e-9);
        }
    }
}

/// Why a track sat idle over `[from, to]`, a gap no span covers: a fault
/// instant inside makes it an injection, before the first span it is
/// pipeline fill, anywhere else plain idle.
fn gap_cause(fault_instants: &[u64], from: u64, to: u64, before_first: bool) -> BubbleCause {
    if fault_instants.iter().any(|&f| f >= from && f <= to) {
        BubbleCause::Injection
    } else if before_first {
        BubbleCause::FillDrain
    } else {
        BubbleCause::Idle
    }
}

/// What one stage track — or, merged by [`Fold::per_stage`], one stage —
/// did inside a window: the exact per-cause tiling of the window plus the
/// discrete events that completed in it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Window {
    /// Replica tracks merged in; the causes sum to `window × tracks`.
    pub tracks: usize,
    /// Nanoseconds per cause, indexed in [`BubbleCause::ALL`] order.
    pub cause_ns: [u64; BubbleCause::ALL.len()],
    /// Toplevel forward span time in the window (nested waits included).
    pub fwd_ns: u64,
    /// Toplevel backward span time in the window.
    pub bwd_ns: u64,
    /// Backward passes that completed in the window.
    pub minibatches: u64,
    /// Service time of each minibatch whose toplevel backward completed in
    /// the window, over all of its spans on the track (a forward that ran
    /// in an earlier window still counts) — the percentile samples.
    pub mb_service_ns: Vec<u64>,
    /// Stash pushes minus pops in the window.
    pub stash_delta: i64,
}

impl Window {
    /// The tiling as a [`CauseBreakdown`] (one conversion per cause).
    pub(crate) fn breakdown(&self) -> CauseBreakdown {
        let mut out = CauseBreakdown::default();
        for c in BubbleCause::ALL {
            out.add(c, self.cause_ns[c as usize] as f64 * 1e-9);
        }
        out
    }

    /// `[busy, comm, bubble]` fractions of a `window_ns` window, averaged
    /// over replicas. They sum to 1 because the tiling is exact; an empty
    /// window is all bubble.
    pub(crate) fn fracs(&self, window_ns: u64) -> [f64; 3] {
        let denom = window_ns as f64 * self.tracks as f64;
        if denom == 0.0 {
            return [0.0, 0.0, 1.0];
        }
        [CauseGroup::Busy, CauseGroup::Comm, CauseGroup::Bubble].map(|g| {
            let group = BubbleCause::ALL.iter().filter(|c| c.group() == g);
            group.map(|&c| self.cause_ns[c as usize]).sum::<u64>() as f64 / denom
        })
    }

    /// [`CauseBreakdown::service_per_mb_s`] of this window.
    pub(crate) fn service_per_mb_s(&self) -> f64 {
        self.breakdown().service_per_mb_s(self.minibatches)
    }
}

/// One stage track's share of a [`Fold`].
pub(crate) struct TrackFold {
    /// Index into the snapshot's `tracks`.
    pub track: usize,
    /// Pipeline stage the track belongs to.
    pub stage: usize,
    /// What the track did inside the window.
    pub window: Window,
    nodes: Vec<Node>,
}

/// Every stage track of a snapshot folded over one window.
pub(crate) struct Fold {
    /// Window end: the trace's wall clock for a to-the-end window.
    pub to_ns: u64,
    /// Window length.
    pub window_ns: u64,
    /// Per stage track, in snapshot order.
    pub tracks: Vec<TrackFold>,
    fault_instants: Vec<u64>,
}

impl Fold {
    /// Replica tracks merged per stage, indexed by stage (highest stage
    /// index + 1 entries).
    pub(crate) fn per_stage(&self) -> Vec<Window> {
        let num_stages = self.tracks.iter().map(|t| t.stage + 1).max().unwrap_or(0);
        let mut out = vec![Window::default(); num_stages];
        for t in &self.tracks {
            let (st, w) = (&mut out[t.stage], &t.window);
            st.tracks += w.tracks;
            for (a, b) in st.cause_ns.iter_mut().zip(w.cause_ns) {
                *a += b;
            }
            st.fwd_ns += w.fwd_ns;
            st.bwd_ns += w.bwd_ns;
            st.minibatches += w.minibatches;
            st.mb_service_ns.extend(&w.mb_service_ns);
            st.stash_delta += w.stash_delta;
        }
        out
    }

    fn attribution(&self) -> Vec<StageAttribution> {
        let stages = self.per_stage().into_iter().enumerate();
        stages
            .map(|(stage, w)| StageAttribution {
                stage,
                tracks: w.tracks,
                breakdown: w.breakdown(),
                minibatches: w.minibatches,
                service_per_mb_s: w.service_per_mb_s() / w.tracks.max(1) as f64,
            })
            .collect()
    }
}

/// The fold. Each stage track is tiled once — fill before its first span,
/// the pieces of its toplevel spans, typed gaps between them, drain after
/// the last — and the tiling is clipped to the window. `Some(to_ns)` is
/// the half-open `[from_ns, to_ns)` a live sampler takes (a span ending
/// exactly at the sample point belongs to the next window); `None` runs to
/// the end of the trace and is closed, `[from_ns, wall]`, so the last
/// completion counts. Discrete events (backward completions, stash
/// instants) belong to the window their end falls in.
pub(crate) fn fold(snap: &TraceSnapshot, from_ns: u64, to_ns: Option<u64>) -> Fold {
    let closed = to_ns.is_none();
    let to_ns = to_ns.unwrap_or_else(|| snap.wall_ns());
    let ends_inside = |end_ns: u64| end_ns >= from_ns && (closed || end_ns < to_ns);
    let clip = |s: u64, e: u64| e.min(to_ns).saturating_sub(s.max(from_ns));

    // Fault instants anywhere in the run mark surrounding gaps as
    // injection-caused rather than plain idle.
    let fault_instants: Vec<u64> = snap
        .tracks
        .iter()
        .flat_map(|t| t.events.iter())
        .filter(|e| e.is_instant() && matches!(e.kind, SpanKind::Fault | SpanKind::Stalled))
        .map(|e| e.start_ns)
        .collect();

    let mut tracks = Vec::new();
    for (ti, track) in snap.tracks.iter().enumerate() {
        let Some(stage) = track.stage else { continue };
        let mut w = Window {
            tracks: 1,
            ..Window::default()
        };
        for e in track.events.iter().filter(|e| ends_inside(e.end_ns)) {
            match e.kind {
                SpanKind::Bwd { .. } if !e.is_instant() => w.minibatches += 1,
                SpanKind::StashPush { .. } => w.stash_delta += 1,
                SpanKind::StashPop { .. } => w.stash_delta -= 1,
                _ => {}
            }
        }
        let nodes = build_nodes(stage, track);
        // Service so far of minibatches still awaiting their backward.
        let mut in_flight: HashMap<u64, u64> = HashMap::new();
        let mut cursor = 0u64;
        for node in &nodes {
            if node.start_ns > cursor {
                let cause = gap_cause(&fault_instants, cursor, node.start_ns, cursor == 0);
                w.cause_ns[cause as usize] += clip(cursor, node.start_ns);
            }
            let mut service = 0u64;
            for &(s, e, cause) in &node.pieces {
                w.cause_ns[cause as usize] += clip(s, e);
                if cause.is_service() {
                    service += e - s;
                }
            }
            let in_window = clip(node.start_ns, node.end_ns);
            match node.kind {
                SpanKind::Bwd { mb } => {
                    w.bwd_ns += in_window;
                    let whole = in_flight.remove(&mb).unwrap_or(0) + service;
                    if ends_inside(node.end_ns) {
                        w.mb_service_ns.push(whole);
                    }
                }
                kind => {
                    if matches!(kind, SpanKind::Fwd { .. }) {
                        w.fwd_ns += in_window;
                    }
                    if let Some(mb) = kind.minibatch() {
                        *in_flight.entry(mb).or_default() += service;
                    }
                }
            }
            cursor = node.end_ns;
        }
        w.cause_ns[BubbleCause::FillDrain as usize] += clip(cursor, to_ns);
        tracks.push(TrackFold {
            track: ti,
            stage,
            window: w,
            nodes,
        });
    }
    Fold {
        to_ns,
        window_ns: to_ns.saturating_sub(from_ns),
        tracks,
        fault_instants,
    }
}

/// Per-stage attribution of one window of a trace; [`analyze_trace`]'s
/// `per_stage` is the window `(0, None)`. `Some(to_ns)` is the half-open
/// `[from_ns, to_ns)`, `None` the closed `[from_ns, wall]`. Every stage's
/// causes sum to `tracks × window` in integer nanoseconds, and adjacent
/// windows sum cause by cause to the window spanning them.
pub fn attribute_window(
    snap: &TraceSnapshot,
    from_ns: u64,
    to_ns: Option<u64>,
) -> Vec<StageAttribution> {
    fold(snap, from_ns, to_ns).attribution()
}

/// The ids of minibatch `mb`'s spans on `stage`, in a list of
/// `(stage, mb, id)` sorted ascending.
fn spans_of(sorted: &[(usize, u64, usize)], stage: usize, mb: u64) -> &[(usize, u64, usize)] {
    let from = sorted.partition_point(|&(s, m, _)| (s, m) < (stage, mb));
    let len = sorted[from..].partition_point(|&(s, m, _)| (s, m) == (stage, mb));
    &sorted[from..from + len]
}

/// Reconstruct the dependency DAG of a trace, attribute every nanosecond
/// of every stage track to a [`BubbleCause`], and extract the critical
/// path. Works on measured snapshots, parsed Chrome traces, and simulated
/// snapshots ([`crate::simtrace`]) alike.
pub fn analyze_trace(snap: &TraceSnapshot) -> CriticalPathReport {
    let whole = fold(snap, 0, None);
    let per_stage = whole.attribution();
    let (wall_s, num_stages) = (whole.to_ns as f64 * 1e-9, per_stage.len());
    let fault_instants = whole.fault_instants;

    // Node ids run track by track, so a node's same-track predecessor is
    // the id before it unless it opens its track.
    let mut all_nodes: Vec<Node> = Vec::new();
    let mut opens_track: Vec<bool> = Vec::new();
    for t in whole.tracks {
        opens_track.extend((0..t.nodes.len()).map(|i| i == 0));
        all_nodes.extend(t.nodes);
    }
    // Producer lookup: Fwd / Bwd node ids sorted by (stage, mb), so one
    // minibatch's spans on one stage are a run, in id order.
    let mut fwds: Vec<(usize, u64, usize)> = Vec::new();
    let mut bwds: Vec<(usize, u64, usize)> = Vec::new();
    for (id, n) in all_nodes.iter().enumerate() {
        match n.kind {
            SpanKind::Fwd { mb } => fwds.push((n.stage, mb, id)),
            SpanKind::Bwd { mb } => bwds.push((n.stage, mb, id)),
            _ => {}
        }
    }
    fwds.sort_unstable();
    bwds.sort_unstable();
    let last_stage = num_stages.saturating_sub(1);

    let mut critical_path: Vec<CpContribution> = (0..num_stages)
        .map(|stage| CpContribution {
            stage,
            ..CpContribution::default()
        })
        .collect();
    let mut cp_nodes = 0usize;

    if let Some(start) = (0..all_nodes.len()).max_by_key(|&i| (all_nodes[i].end_ns, i)) {
        let mut visited = vec![false; all_nodes.len()];
        let mut cur = start;
        let mut steps = 0usize;
        loop {
            visited[cur] = true;
            cp_nodes += 1;
            steps += 1;
            let node = &all_nodes[cur];
            // Binding predecessor: whoever released this span last — the
            // previous span on the same worker, or the cross-stage data
            // producer (Fwd feeds the next stage's Fwd; Bwd feeds the
            // previous stage's Bwd; the last stage's Bwd follows its own
            // Fwd).
            let producers = match node.kind {
                SpanKind::Fwd { mb } if node.stage > 0 => spans_of(&fwds, node.stage - 1, mb),
                SpanKind::Bwd { mb } if node.stage < last_stage => {
                    spans_of(&bwds, node.stage + 1, mb)
                }
                SpanKind::Bwd { mb } => spans_of(&fwds, node.stage, mb),
                _ => &[],
            };
            let producer = producers
                .iter()
                .map(|&(_, _, id)| id)
                .filter(|&id| all_nodes[id].end_ns <= node.end_ns && !visited[id])
                .max_by_key(|&id| all_nodes[id].end_ns);
            let same_track = (!opens_track[cur])
                .then(|| cur - 1)
                .filter(|&id| !visited[id]);
            let pred = [producer, same_track]
                .into_iter()
                .flatten()
                .max_by_key(|&id| all_nodes[id].end_ns);

            let from = pred.map(|id| all_nodes[id].end_ns).unwrap_or(0);
            let cp = &mut critical_path[node.stage];
            // Slack before the span started: fill at the chain's origin,
            // scheduler idle elsewhere (injection if a fault sits inside).
            if node.start_ns > from {
                let cause = gap_cause(&fault_instants, from, node.start_ns, pred.is_none());
                cp.seconds += (node.start_ns - from) as f64 * 1e-9;
                cp.breakdown
                    .add(cause, (node.start_ns - from) as f64 * 1e-9);
            }
            let seg_from = from.max(node.start_ns).min(node.end_ns);
            cp.seconds += (node.end_ns - seg_from) as f64 * 1e-9;
            add_pieces(&mut cp.breakdown, node, seg_from, node.end_ns);

            match pred {
                Some(p) if steps <= all_nodes.len() => cur = p,
                _ => break,
            }
        }
    }

    CriticalPathReport {
        wall_s,
        minibatches: per_stage.iter().map(|s| s.minibatches).max().unwrap_or(0),
        per_minibatch_s: measured_per_minibatch_s(snap),
        per_stage,
        critical_path,
        cp_nodes,
    }
}

/// Amdahl-style what-if: shrink `stage`'s per-minibatch service time by
/// `speedup_frac` and predict the steady-state per-minibatch time. The
/// pipeline's steady-state rate is set by its slowest stage, so the
/// prediction moves only by however much the *maximum* service time
/// moves — speeding up a non-bottleneck stage predicts (correctly) no
/// gain.
pub fn what_if(report: &CriticalPathReport, stage: usize, speedup_frac: f64) -> WhatIf {
    let services: Vec<f64> = report
        .per_stage
        .iter()
        .map(|s| s.service_per_mb_s)
        .collect();
    let old_max = services.iter().copied().fold(0.0f64, f64::max);
    // Steady state can't outrun the bottleneck stage's service time, and
    // short traces have no reliable slope at all — the service bound is
    // the floor of the baseline.
    let baseline = report.per_minibatch_s.max(old_max);
    let mut adjusted = services;
    if let Some(s) = adjusted.get_mut(stage) {
        *s *= 1.0 - speedup_frac;
    }
    let new_max = adjusted.iter().copied().fold(0.0f64, f64::max);
    let predicted = (baseline - (old_max - new_max)).max(new_max).max(0.0);
    WhatIf {
        stage,
        speedup_frac,
        baseline_per_mb_s: baseline,
        predicted_per_mb_s: predicted,
        predicted_gain_frac: if baseline > 0.0 {
            1.0 - predicted / baseline
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    const MS: u64 = 1_000_000;

    fn span(kind: SpanKind, start_ms: u64, end_ms: u64) -> Event {
        Event::span(kind, start_ms * MS, end_ms * MS)
    }

    /// Hand-built 3-stage trace with known bubble causes. Stage 1 is a
    /// straggler: every forward carries a 6 ms injected send delay
    /// (send_wait nested in fwd), keeping stage 1 continuously busy
    /// (2 ms compute + 6 ms delay per forward) while stage 2 starves
    /// between minibatches and stage 0 idles awaiting gradients.
    ///
    /// Layout (ms), 4 minibatches, fwd/bwd 2 ms everywhere, wall 44:
    ///   stage0: fwd_k [2k, 2k+2]; bwd0 34-38 (recv_wait 34-36),
    ///           bwd_k [36+2k, 38+2k] for k≥1
    ///   stage1: fwd_k [2+8k, 10+8k] (send_wait [4+8k, 10+8k]),
    ///           bwd_k [34+2k, 36+2k]
    ///   stage2: fwd0 10-12, bwd0 12-14; for k≥1 fwd_k [6+8k, 12+8k]
    ///           (recv_wait [6+8k, 10+8k]), bwd_k [12+8k, 14+8k]
    fn straggler_snap() -> TraceSnapshot {
        use crate::recorder::TrackEvents;
        let mut s0 = vec![
            span(SpanKind::Bwd { mb: 0 }, 34, 38),
            span(SpanKind::RecvWait { mb: 0 }, 34, 36),
        ];
        let mut s1 = Vec::new();
        let mut s2 = vec![
            span(SpanKind::Fwd { mb: 0 }, 10, 12),
            span(SpanKind::Bwd { mb: 0 }, 12, 14),
        ];
        for k in 0..4u64 {
            s0.push(span(SpanKind::Fwd { mb: k }, 2 * k, 2 * k + 2));
            if k >= 1 {
                s0.push(span(SpanKind::Bwd { mb: k }, 36 + 2 * k, 38 + 2 * k));
                s2.push(span(SpanKind::Fwd { mb: k }, 6 + 8 * k, 12 + 8 * k));
                s2.push(span(SpanKind::RecvWait { mb: k }, 6 + 8 * k, 10 + 8 * k));
                s2.push(span(SpanKind::Bwd { mb: k }, 12 + 8 * k, 14 + 8 * k));
            }
            s1.push(span(SpanKind::Fwd { mb: k }, 2 + 8 * k, 10 + 8 * k));
            s1.push(span(SpanKind::SendWait { mb: k }, 4 + 8 * k, 10 + 8 * k));
            s1.push(span(SpanKind::Bwd { mb: k }, 34 + 2 * k, 36 + 2 * k));
        }
        for events in [&mut s0, &mut s1, &mut s2] {
            events.sort_by_key(|e| (e.start_ns, e.end_ns));
        }
        TraceSnapshot {
            tracks: vec![
                TrackEvents {
                    name: "stage0.replica0".into(),
                    stage: Some(0),
                    events: s0,
                    dropped: 0,
                },
                TrackEvents {
                    name: "stage1.replica0".into(),
                    stage: Some(1),
                    events: s1,
                    dropped: 0,
                },
                TrackEvents {
                    name: "stage2.replica0".into(),
                    stage: Some(2),
                    events: s2,
                    dropped: 0,
                },
            ],
        }
    }

    #[test]
    fn attribution_is_an_exact_partition_of_wall_clock() {
        let report = analyze_trace(&straggler_snap());
        assert!((report.wall_s - 0.044).abs() < 1e-12);
        for st in &report.per_stage {
            assert_eq!(st.tracks, 1);
            let total = st.breakdown.total_s();
            assert!(
                (total - report.wall_s).abs() < 1e-9,
                "stage {} attribution {total} != wall {}",
                st.stage,
                report.wall_s
            );
        }
        // And the critical path tiles wall clock exactly too.
        let cp_total: f64 = report.critical_path.iter().map(|c| c.seconds).sum();
        assert!((cp_total - report.wall_s).abs() < 1e-9, "cp {cp_total}");
        let cp_breakdown: f64 = report
            .critical_path
            .iter()
            .map(|c| c.breakdown.total_s())
            .sum();
        assert!((cp_breakdown - report.wall_s).abs() < 1e-9);
    }

    #[test]
    fn golden_causes_on_the_hand_built_trace() {
        let report = analyze_trace(&straggler_snap());
        let ms = 1e-3;
        // Stage 0: 8 ms fwd + 8 ms bwd compute, 2 ms nested recv_wait,
        // 26 ms interior idle (8→34), 0 fill/drain (its first span starts
        // at 0 and its last ends at wall).
        let s0 = &report.per_stage[0].breakdown;
        assert!((s0.compute_s - 16.0 * ms).abs() < 1e-9);
        assert!((s0.wait_upstream_s - 2.0 * ms).abs() < 1e-9);
        assert!((s0.idle_s - 26.0 * ms).abs() < 1e-9);
        assert!((s0.fill_drain_s - 0.0).abs() < 1e-9);
        // Stage 1 (the straggler): 4 × 6 ms injected send delay reads as
        // backpressure; compute is fwd(4×2)+bwd(4×2)=16 ms; 2 ms fill +
        // 2 ms drain; zero interior idle — it never stops working.
        let s1 = &report.per_stage[1].breakdown;
        assert!((s1.backpressure_s - 24.0 * ms).abs() < 1e-9);
        assert!((s1.compute_s - 16.0 * ms).abs() < 1e-9);
        assert!((s1.fill_drain_s - 4.0 * ms).abs() < 1e-9);
        assert!((s1.idle_s - 0.0).abs() < 1e-12);
        // Stage 2 (downstream of the straggler): starves 4 ms per
        // minibatch on upstream, plus 10 ms fill + 6 ms drain.
        let s2 = &report.per_stage[2].breakdown;
        assert_eq!(s2.top_bubble().unwrap().0, BubbleCause::FillDrain);
        assert!((s2.wait_upstream_s - 12.0 * ms).abs() < 1e-9);
        // Excluding fill/drain (warmup), wait_upstream dominates stage 2's
        // interior bubbles.
        assert!(s2.wait_upstream_s >= s2.idle_s.max(s2.backpressure_s));
        // The straggler stage owns the largest critical-path share.
        assert_eq!(report.bottleneck_stage(), Some(1));
        let ranked = report.ranked();
        assert_eq!(ranked[0].stage, 1);
        assert!(ranked[0].seconds > ranked[1].seconds);
        // Stage 1's critical-path time is dominated by its own
        // backpressure + compute, i.e. the injected delay is on the path.
        let cp1 = &report.critical_path[1];
        assert!(cp1.breakdown.backpressure_s > 0.0);
        // Services: stage 1 is the bottleneck service too.
        let svc: Vec<f64> = report
            .per_stage
            .iter()
            .map(|s| s.service_per_mb_s)
            .collect();
        assert!(svc[1] > svc[0] && svc[1] > svc[2], "{svc:?}");
    }

    #[test]
    fn what_if_scales_only_the_bottleneck() {
        let report = analyze_trace(&straggler_snap());
        // Removing stage 1's delay (6 of 10 ms service → 60% faster).
        let w = what_if(&report, 1, 6.0 / 10.0);
        assert!(w.predicted_per_mb_s < w.baseline_per_mb_s);
        assert!(w.predicted_gain_frac > 0.0);
        // Speeding up a non-bottleneck stage predicts no gain.
        let w0 = what_if(&report, 0, 0.5);
        assert!(w0.predicted_gain_frac.abs() < 1e-9);
    }

    #[test]
    fn two_bw_barrier_reclassifies_sparse_sync() {
        use crate::recorder::TrackEvents;
        // 4 backwards, 1 optimizer step → 2BW cadence: grad_sync reads as
        // a group barrier.
        let snap = TraceSnapshot {
            tracks: vec![TrackEvents {
                name: "stage0.replica0".into(),
                stage: Some(0),
                events: vec![
                    span(SpanKind::Bwd { mb: 0 }, 0, 4),
                    span(SpanKind::Bwd { mb: 1 }, 4, 8),
                    span(SpanKind::Bwd { mb: 2 }, 8, 12),
                    span(SpanKind::Bwd { mb: 3 }, 12, 20),
                    span(SpanKind::GradSync, 14, 18),
                    span(SpanKind::OptStep { mb: 3 }, 18, 20),
                ],
                dropped: 0,
            }],
        };
        let report = analyze_trace(&snap);
        let b = &report.per_stage[0].breakdown;
        assert!((b.two_bw_barrier_s - 4e-3).abs() < 1e-9);
        assert!((b.grad_sync_s - 0.0).abs() < 1e-12);
        assert!((b.optimizer_step_s - 2e-3).abs() < 1e-9);
        // Dense opt-step cadence keeps GradSync as GradSync.
        let snap2 = TraceSnapshot {
            tracks: vec![TrackEvents {
                name: "stage0.replica0".into(),
                stage: Some(0),
                events: vec![
                    span(SpanKind::Bwd { mb: 0 }, 0, 8),
                    span(SpanKind::GradSync, 2, 4),
                    span(SpanKind::OptStep { mb: 0 }, 6, 8),
                ],
                dropped: 0,
            }],
        };
        let b2 = &analyze_trace(&snap2).per_stage[0].breakdown;
        assert!((b2.grad_sync_s - 2e-3).abs() < 1e-9);
        assert!((b2.two_bw_barrier_s - 0.0).abs() < 1e-12);
    }

    /// Every bit of a report, folded FNV-1a style into one word.
    fn report_bits(r: &CriticalPathReport) -> u64 {
        let mut words = vec![
            r.wall_s.to_bits(),
            r.minibatches,
            r.per_minibatch_s.to_bits(),
        ];
        let causes = |b: &CauseBreakdown| BubbleCause::ALL.map(|c| b.get(c).to_bits());
        for s in &r.per_stage {
            words.extend([s.stage as u64, s.tracks as u64, s.minibatches]);
            words.extend(causes(&s.breakdown));
            words.push(s.service_per_mb_s.to_bits());
        }
        for c in &r.critical_path {
            words.extend([c.stage as u64, c.seconds.to_bits()]);
            words.extend(causes(&c.breakdown));
        }
        words.push(r.cp_nodes as u64);
        words.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The trace `obs-analyze` analyzes: a simulated 4-stage 1F1B run of
    /// 128 minibatches at unequal stage speeds.
    fn sim_snap() -> TraceSnapshot {
        use pipedream_core::schedule::Schedule;
        use pipedream_core::PipelineConfig;
        use pipedream_hw::{Device, LinkModel, Precision, Topology};
        use pipedream_sim::PipelineSim;
        let costs = pipedream_model::zoo::uniform(8, 1e9, 100_000, 1_000_000).costs(
            &Device::v100(),
            32,
            Precision::Fp32,
        );
        let config = PipelineConfig::straight(8, &[1, 3, 5]);
        let topo = Topology::flat(Device::v100(), 4, LinkModel::new(1e10, 1e-6), "obs");
        let schedule = Schedule::one_f_one_b(&config, 128);
        let sim = PipelineSim::new(&costs, &topo, &schedule)
            .with_worker_speeds(vec![1.0, 0.8, 1.25, 0.9])
            .run();
        crate::simtrace::sim_to_snapshot(&sim, &config)
    }

    #[test]
    fn report_bits_are_pinned() {
        use crate::chrome::parse_chrome_trace;
        let golden = |doc: &str| parse_chrome_trace(doc).expect("golden parses");
        let cases = [
            ("straggler", straggler_snap(), 10, 0x4355_4d36_8dd8_0d45),
            (
                "chrome_trace.json",
                golden(include_str!("../tests/golden/chrome_trace.json")),
                5,
                0x4eba_7021_3eee_9245,
            ),
            (
                "chrome_trace_replicated.json",
                golden(include_str!("../tests/golden/chrome_trace_replicated.json")),
                12,
                0x4067_d665_5ae2_264f,
            ),
            ("obs-analyze", sim_snap(), 262, 0x35da_db82_72e8_a219),
        ];
        for (name, snap, cp_nodes, bits) in cases {
            let report = analyze_trace(&snap);
            assert_eq!(
                (report.cp_nodes, report_bits(&report)),
                (cp_nodes, bits),
                "{name}: (cp_nodes, bits) = ({}, {:#x})",
                report.cp_nodes,
                report_bits(&report)
            );
        }
    }

    #[test]
    fn empty_trace_is_harmless() {
        let report = analyze_trace(&TraceSnapshot::default());
        assert_eq!(report.wall_s, 0.0);
        assert!(report.per_stage.is_empty());
        assert_eq!(report.bottleneck_stage(), None);
        let w = what_if(&report, 0, 0.5);
        assert_eq!(w.predicted_gain_frac, 0.0);
    }
}
