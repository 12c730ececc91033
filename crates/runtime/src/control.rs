//! Cooperative run control: draining a live pipeline to a consistent
//! minibatch boundary.
//!
//! A reconfiguration (PipeDream re-partitioning a running pipeline) must
//! stop the pipeline at a point where every stage has processed exactly
//! the same prefix of minibatches — otherwise the per-stage checkpoints
//! cut at that point describe *different* model versions and resuming
//! from them silently corrupts training. [`RunControl`] implements that
//! barrier without a global pause: the input stage asks [`RunControl::admit`]
//! before injecting each minibatch, and once a drain is requested the gate
//! picks a **cut** `C` with the invariant
//!
//! > `C ≥ frontier` (every minibatch already admitted is `< C`), and
//! > `C` is a multiple of the lcm of all stage replica counts,
//!
//! so every admitted minibatch flows through the whole pipeline and
//! completes its backward pass everywhere, every minibatch `≥ C` is
//! skipped everywhere, and each replica of a replicated stage performs
//! exactly `C / replicas` backward passes — gradient-sync rounds stay
//! aligned and no replica blocks in an `allreduce` its partners never
//! join. Non-input workers consult [`RunControl::skipped`] per op. A
//! worker that skips a forward — refused at admission, or past the cut —
//! sends a cut marker ([`crate::message::Msg::Cut`]) in place of its
//! activation, along the edge 1F1B-RR routes the activation on, and a
//! worker already waiting for that activation skips the forward when the
//! marker arrives. A drained run is therefore the undrained run's
//! dependency graph with some ops made free: it inherits the static
//! schedule's freedom from deadlock, and no receive ever polls the gate.
//!
//! After its op loop ends, replica 0 of every stage writes a checkpoint
//! at the cut, giving the caller a consistent state (the §4 checkpoint
//! machinery) to repartition and resume from.
//!
//! Minibatch ids here are the *segment's*: the gate indexes the run's own
//! schedule, which counts from 0 also when the run resumed a logical run
//! part-way, and 1F1B-RR routing and the replica rounds the cut aligns to
//! are defined on those ids. What leaves the segment is translated once:
//! a cut `C` of a run that started with `done` minibatches completed is the
//! checkpoint `stage{s}_mb{done + C}.json` and
//! `TrainReport::drained_at = Some(done + C)`.

use pipedream_core::lcm;
use std::sync::Mutex;

#[derive(Debug)]
struct GateState {
    /// A drain was requested; the cut is fixed at the next admit.
    requested: bool,
    /// The chosen cut: minibatches `< cut` complete, `≥ cut` are skipped.
    cut: Option<u64>,
    /// One past the highest minibatch admitted so far.
    frontier: u64,
    /// Cut alignment: lcm of all stage replica counts (0 = unconfigured).
    round: u64,
    /// Extra caller-requested cut alignment, folded into `round` when the
    /// cut is fixed (see [`RunControl::request_drain_aligned`]).
    extra_align: u64,
    /// Total scheduled minibatches this run; the cut never exceeds it.
    limit: u64,
    /// Deterministic drain point requested before the run was configured.
    preset: Option<u64>,
}

impl GateState {
    /// The effective cut alignment: the run's replica round combined with
    /// any extra alignment a reconfiguring caller asked for.
    fn alignment(&self) -> u64 {
        lcm(self.round.max(1), self.extra_align.max(1))
    }
}

/// Shared drain gate for one pipeline run (see the module docs).
///
/// Cloneable via `Arc`; the trainer configures it at launch and hands it
/// to every stage worker. Thread-safe: all state sits behind one mutex
/// taken once per minibatch admission / skip check.
#[derive(Debug)]
pub struct RunControl {
    state: Mutex<GateState>,
}

impl Default for RunControl {
    fn default() -> Self {
        Self::new()
    }
}

impl RunControl {
    /// A fresh gate with no drain pending.
    pub fn new() -> Self {
        RunControl {
            state: Mutex::new(GateState {
                requested: false,
                cut: None,
                frontier: 0,
                round: 0,
                extra_align: 1,
                limit: u64::MAX,
                preset: None,
            }),
        }
    }

    /// Called by the trainer at launch: `round` is the lcm of all stage
    /// replica counts (cut alignment), `limit` the run's total scheduled
    /// minibatches — whole rounds, so a cut clamped to it stays aligned.
    /// Applies any deterministic [`RunControl::drain_at`]
    /// registered before the run started.
    pub fn configure(&self, round: u64, limit: u64) {
        let mut s = self.state.lock().unwrap();
        s.round = round.max(1);
        s.limit = limit;
        if let Some(p) = s.preset.take() {
            let c = round_up(p.max(s.frontier), s.alignment()).min(s.limit);
            s.cut = Some(c);
        }
    }

    /// Ask to drain: the cut is fixed at the *next* input-stage admission,
    /// at the first aligned boundary not below the current frontier.
    /// Idempotent; a no-op once a cut is already fixed.
    pub fn request_drain(&self) {
        let mut s = self.state.lock().unwrap();
        if s.cut.is_none() {
            s.requested = true;
        }
    }

    /// Ask to drain at a cut that is additionally a multiple of `align`
    /// (on top of the run's own replica round). A reconfiguring caller
    /// uses this when the *resumed* run may use a different replica
    /// layout: its gradient-sync rounds must also divide the work cleanly,
    /// or a replica blocks in an `allreduce` its partners never join.
    /// Idempotent; a no-op once a cut is already fixed.
    pub fn request_drain_aligned(&self, align: u64) {
        let mut s = self.state.lock().unwrap();
        if s.cut.is_none() {
            s.extra_align = lcm(s.extra_align, align.max(1));
            s.requested = true;
        }
    }

    /// Deterministically drain at minibatch `mb` (rounded up to the cut
    /// alignment, clamped to the run length). For tests and benchmarks
    /// that need a reproducible cut; may be called before or after the
    /// trainer configures the gate.
    pub fn drain_at(&self, mb: u64) {
        let mut s = self.state.lock().unwrap();
        if s.cut.is_some() {
            return;
        }
        if s.round == 0 {
            s.preset = Some(mb);
        } else {
            let c = round_up(mb.max(s.frontier), s.alignment()).min(s.limit);
            s.cut = Some(c);
        }
    }

    /// Input-stage admission check for minibatch `mb`'s forward pass.
    /// Fixes the cut if a drain is pending, at the first aligned boundary
    /// not below the frontier — what was admitted, not which minibatch
    /// asks, so on a replicated input stage the cut does not depend on
    /// which replica asks first. Returns `false` when the minibatch falls
    /// at or beyond the cut and must be skipped.
    pub fn admit(&self, mb: u64) -> bool {
        let mut s = self.state.lock().unwrap();
        if let Some(c) = s.cut {
            return mb < c;
        }
        if s.requested {
            let c = round_up(s.frontier, s.alignment()).min(s.limit);
            s.cut = Some(c);
            return mb < c;
        }
        s.frontier = s.frontier.max(mb + 1);
        true
    }

    /// Whether minibatch `mb` falls at or beyond a fixed cut (workers skip
    /// its ops entirely). `false` while no cut is fixed.
    pub fn skipped(&self, mb: u64) -> bool {
        matches!(self.state.lock().unwrap().cut, Some(c) if mb >= c)
    }

    /// The fixed cut, if any: the number of this run's minibatches (from
    /// its own start) that fully completed before the drain.
    pub fn cut(&self) -> Option<u64> {
        self.state.lock().unwrap().cut
    }
}

fn round_up(x: u64, to: u64) -> u64 {
    x.div_ceil(to) * to
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_everything_without_a_drain() {
        let g = RunControl::new();
        g.configure(1, 100);
        for mb in 0..100 {
            assert!(g.admit(mb));
        }
        assert_eq!(g.cut(), None);
        assert!(!g.skipped(99));
    }

    #[test]
    fn cut_lands_at_or_after_the_frontier() {
        let g = RunControl::new();
        g.configure(1, 100);
        for mb in 0..7 {
            assert!(g.admit(mb));
        }
        g.request_drain();
        // Next admission fixes the cut at the frontier: mb 7 is refused.
        assert!(!g.admit(7));
        assert_eq!(g.cut(), Some(7));
        assert!(g.skipped(7));
        assert!(!g.skipped(6));
    }

    #[test]
    fn cut_aligns_to_the_replica_round() {
        let g = RunControl::new();
        g.configure(4, 100);
        for mb in 0..6 {
            assert!(g.admit(mb));
        }
        g.request_drain();
        // Frontier 6 rounds up to the next multiple of 4: minibatches 6
        // and 7 still run so each of 4 replicas completes 2 backwards.
        assert!(g.admit(6));
        assert!(g.admit(7));
        assert!(!g.admit(8));
        assert_eq!(g.cut(), Some(8));
    }

    #[test]
    fn aligned_request_folds_extra_alignment_into_the_cut() {
        let g = RunControl::new();
        g.configure(2, 100);
        for mb in 0..5 {
            assert!(g.admit(mb));
        }
        // The resumed run might use 3-replica stages: the cut must be a
        // multiple of lcm(2, 3) = 6.
        g.request_drain_aligned(3);
        assert!(g.admit(5));
        assert!(!g.admit(6));
        assert_eq!(g.cut(), Some(6));
    }

    #[test]
    fn preset_drain_survives_configure_and_clamps() {
        let g = RunControl::new();
        g.drain_at(10);
        g.configure(4, 100);
        assert_eq!(g.cut(), Some(12));

        let g = RunControl::new();
        g.drain_at(1000);
        g.configure(1, 64);
        assert_eq!(g.cut(), Some(64));
    }
}
