//! Weight stashing, vertical sync and 2BW double buffering (paper §3.3).
//!
//! In a naively pipelined system a minibatch's forward pass runs with one
//! weight version and its backward pass with another — producing invalid
//! gradients. **Weight stashing** keeps one weight version per in-flight
//! minibatch: the forward pass uses the latest version, and the backward
//! pass for the same minibatch retrieves exactly that version.
//!
//! [`VersionStore`] is the one bookkeeper for all three ways the runtime
//! picks that version ([`VersionPolicy`]): the latest (weight stashing),
//! the one the input stage tagged the minibatch with (**vertical sync**),
//! or generation `g − 1` for a minibatch of group `g` (PipeDream-2BW).
//! The *live* weights — the ones the optimizer steps — never enter the
//! store; they stay with their owner (the stage's model). The store holds
//! only **superseded** versions that something still needs, so the
//! paper's "at most one version per in-flight minibatch" is a bound on
//! memory and costs no time:
//!
//! * a pass under the live version touches nothing; a pass under a
//!   superseded one borrows it ([`VersionStore::superseded`]) and the
//!   caller swaps it with the live weights for the pass's duration;
//! * the only copy is the one [`VersionStore::advance`] asks for,
//!   immediately before an update overwrites the live weights in place,
//!   and only when the version about to be overwritten is still needed.
//!   It is written into the buffers of a version that has retired, so a
//!   pipeline in steady state takes nothing from the allocator.
//!
//! [`staleness`] encodes the paper's update formulas so tests (and the
//! runtime's trace checker) can assert exactly which version each stage is
//! expected to use.

use serde::{Deserialize, Serialize};

/// Which memory/staleness schedule variant a stashed pipeline runs.
///
/// Vanilla 1F1B (§3.3) stashes one weight version per in-flight minibatch
/// and keeps every layer's activations until the backward pass. The two
/// memory-efficient variants ("Memory-Efficient Pipeline-Parallel DNN
/// Training", Narayanan et al.) relax each axis independently, so they
/// compose:
///
/// * [`ScheduleKind::TwoBW`] — double-buffered weight updates: gradients
///   are accumulated over fixed groups of minibatches and applied once per
///   group, and every minibatch of group `g` runs both passes against
///   generation `g − 1` — so at most **2** weight versions are ever held,
///   independent of pipeline depth, at a uniform staleness of 1 group
///   update ([`staleness::two_bw_delay`]).
/// * [`ScheduleKind::Recompute`] — activation recomputation: each stage
///   drops its per-layer activation stash right after the forward pass,
///   keeping only the stage *input*, and re-runs the forward (under the
///   stashed weight version, so gradients are bit-identical) immediately
///   before the backward — the activation stash shrinks from O(depth)
///   minibatches to O(1). A forward whose backward is the worker's very
///   next op keeps its stash and skips the re-run
///   ([`keeps_activations`](crate::schedule::keeps_activations)): the
///   output stage under 1F1B, every stage of a depth-1 schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ScheduleKind {
    /// The paper's default: weight stashing, full activation stashes.
    #[default]
    Vanilla1F1B,
    /// Double-buffered weight updates (≤ 2 versions held).
    TwoBW,
    /// Drop activations after forward, recompute before backward (unless
    /// the backward comes next).
    Recompute,
    /// Both memory optimizations at once.
    TwoBWRecompute,
}

impl ScheduleKind {
    /// All four variants, in severity order (for sweeps and benches).
    pub fn all() -> [ScheduleKind; 4] {
        [
            ScheduleKind::Vanilla1F1B,
            ScheduleKind::TwoBW,
            ScheduleKind::Recompute,
            ScheduleKind::TwoBWRecompute,
        ]
    }

    /// Does this kind use double-buffered (2BW) weight updates?
    pub fn uses_two_bw(self) -> bool {
        matches!(self, ScheduleKind::TwoBW | ScheduleKind::TwoBWRecompute)
    }

    /// Does this kind recompute activations before the backward pass?
    pub fn uses_recompute(self) -> bool {
        matches!(self, ScheduleKind::Recompute | ScheduleKind::TwoBWRecompute)
    }

    /// Canonical CLI/wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ScheduleKind::Vanilla1F1B => "vanilla",
            ScheduleKind::TwoBW => "2bw",
            ScheduleKind::Recompute => "recompute",
            ScheduleKind::TwoBWRecompute => "2bw-recompute",
        }
    }

    /// Parse a CLI/wire spelling (several aliases per variant).
    pub fn parse(s: &str) -> Option<ScheduleKind> {
        match s.to_ascii_lowercase().as_str() {
            "vanilla" | "1f1b" | "vanilla-1f1b" => Some(ScheduleKind::Vanilla1F1B),
            "2bw" | "twobw" | "two-bw" => Some(ScheduleKind::TwoBW),
            "recompute" | "recomputation" => Some(ScheduleKind::Recompute),
            "2bw-recompute" | "twobw-recompute" | "recompute-2bw" => {
                Some(ScheduleKind::TwoBWRecompute)
            }
            _ => None,
        }
    }
}

impl std::fmt::Display for ScheduleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which version a minibatch's two passes run under, and which superseded
/// versions are kept although no in-flight minibatch pins them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionPolicy {
    /// Weight stashing (§3.3): the live version at forward time. A
    /// superseded version retires the moment its last pin goes —
    /// "parameters are discarded once a backward pass that uses fresher
    /// parameters is performed" (§4).
    Stashing,
    /// Vertical sync (§3.3): the version the input stage pinned and sent
    /// along with the activations, which trails this stage's live version.
    /// Tags never decrease from one minibatch to the next, so every
    /// version from the oldest pinned tag on is kept for the forwards
    /// still to come (while nothing is pinned: from the last such tag).
    VerticalSync,
    /// PipeDream-2BW: minibatches come in groups of `group` consecutive
    /// ids with one update per group, and group `g` runs against
    /// generation `(g − 1).max(0)`, so that
    /// `W(g+1) = W(g) − ν · ∇f(W(g−1))`. Version `live − 1` is kept as the
    /// double buffer. With `group ≥` the pipeline's in-flight depth, group
    /// `g − 2` has drained before group `g` starts, and at most **two**
    /// generations exist at any time.
    TwoBw {
        /// Minibatches per gradient-accumulation group (≥ 1).
        group: u64,
    },
}

/// The weight versions one pipeline stage has to keep, by id: version `v`
/// is the weights after `v` updates.
///
/// ```
/// use pipedream_core::stash::{VersionPolicy, VersionStore};
///
/// let mut live = vec![0.0f32];              // owned by the caller
/// let mut store = VersionStore::new(VersionPolicy::Stashing);
/// let v = store.begin_forward(7, 0).unwrap(); // minibatch 7 pins version 0
/// store.advance(|_| live.clone());          // still pinned: saved, once
/// live[0] = 1.0;                            // the update, in place
/// // Minibatch 7's backward still sees the weights its forward used:
/// assert_eq!(store.superseded(v).unwrap()[0], 0.0);
/// store.complete_backward(7);
/// assert_eq!(store.versions_held(), 1);     // only the live one is left
/// store.advance(|_| unreachable!("nothing pins version 1: no copy"));
/// ```
#[derive(Debug, Clone)]
pub struct VersionStore<W> {
    policy: VersionPolicy,
    /// Id of the live version: the number of updates so far.
    live: u64,
    /// Superseded versions still needed, as `(id, weights)`. At most a
    /// pipeline depth of them, so a linear scan beats a map and the
    /// steady state never allocates.
    held: Vec<(u64, W)>,
    /// In-flight minibatches, as `(minibatch, pinned version)`.
    pinned: Vec<(u64, u64)>,
    /// Vertical sync: the oldest version a forward may still name.
    floor: u64,
    /// Weights of retired versions, for the next save to overwrite.
    spare: Vec<W>,
}

impl<W> VersionStore<W> {
    /// An empty store: version 0 is live and nothing is in flight.
    pub fn new(policy: VersionPolicy) -> Self {
        if let VersionPolicy::TwoBw { group } = policy {
            assert!(group >= 1, "2BW group must hold at least one minibatch");
        }
        VersionStore {
            policy,
            live: 0,
            held: Vec::new(),
            pinned: Vec::new(),
            floor: 0,
            spare: Vec::new(),
        }
    }

    /// Id of the live version (= updates applied so far).
    pub fn live(&self) -> u64 {
        self.live
    }

    /// Pin the version the policy prescribes for both passes of `mb` and
    /// return its id. `tag` is the version the input stage pinned, which
    /// only [`VersionPolicy::VerticalSync`] reads. `Err` names the
    /// prescribed version if it was never produced or has retired — a
    /// scheduling-invariant breach (a 2BW group shorter than the in-flight
    /// depth, a tag that went backwards). Panics if `mb` is already in
    /// flight.
    pub fn begin_forward(&mut self, mb: u64, tag: u64) -> Result<u64, u64> {
        assert!(
            !self.pinned.iter().any(|&(m, _)| m == mb),
            "minibatch {mb} already has a pinned version"
        );
        let version = match self.policy {
            VersionPolicy::Stashing => self.live,
            VersionPolicy::VerticalSync => tag,
            VersionPolicy::TwoBw { group } => (mb / group).saturating_sub(1),
        };
        if version != self.live && !self.held.iter().any(|&(v, _)| v == version) {
            return Err(version);
        }
        self.pinned.push((mb, version));
        self.retire_unneeded();
        Ok(version)
    }

    /// The version pinned for `mb`.
    pub fn version_for(&self, mb: u64) -> u64 {
        self.pinned
            .iter()
            .find(|&&(m, _)| m == mb)
            .unwrap_or_else(|| panic!("no pinned version for minibatch {mb}"))
            .1
    }

    /// The weights of `version` if it is superseded, for the caller to
    /// swap with the live weights around a pass (and swap back after);
    /// `None` if `version` is the live one and the pass needs no swap.
    pub fn superseded(&mut self, version: u64) -> Option<&mut W> {
        self.held
            .iter_mut()
            .find(|(v, _)| *v == version)
            .map(|(_, w)| w)
    }

    /// `mb`'s backward pass is done: unpin its version and retire what
    /// nothing needs any more.
    pub fn complete_backward(&mut self, mb: u64) {
        let at = self
            .pinned
            .iter()
            .position(|&(m, _)| m == mb)
            .unwrap_or_else(|| panic!("no pinned version for minibatch {mb}"));
        self.pinned.swap_remove(at);
        self.retire_unneeded();
    }

    /// The caller is about to overwrite the live weights with an update.
    /// If the version being overwritten is still needed — pinned, or kept
    /// by the policy — `save` must return a copy of it, written into the
    /// retired weights it is handed when there are any. Returns the new
    /// live id.
    pub fn advance(&mut self, save: impl FnOnce(Option<W>) -> W) -> u64 {
        let old = self.live;
        let needed =
            self.policy != VersionPolicy::Stashing || self.pinned.iter().any(|&(_, v)| v == old);
        self.live += 1;
        // First, so that a 2BW double buffer that just became `live − 2`
        // hands its weights to the save below: two buffers, not three.
        self.retire_unneeded();
        if needed {
            let saved = save(self.spare.pop());
            self.held.push((old, saved));
        }
        self.live
    }

    fn retire_unneeded(&mut self) {
        if self.policy == VersionPolicy::VerticalSync {
            if let Some(oldest) = self.pinned.iter().map(|&(_, v)| v).min() {
                self.floor = oldest;
            }
        }
        let mut i = 0;
        while i < self.held.len() {
            let v = self.held[i].0;
            let kept = match self.policy {
                VersionPolicy::Stashing => false,
                VersionPolicy::VerticalSync => v >= self.floor,
                VersionPolicy::TwoBw { .. } => v + 1 == self.live,
            };
            if kept || self.pinned.iter().any(|&(_, p)| p == v) {
                i += 1;
            } else {
                self.spare.push(self.held.swap_remove(i).1);
            }
        }
    }

    /// Number of minibatches currently holding a pin.
    pub fn in_flight(&self) -> usize {
        self.pinned.len()
    }

    /// Number of *distinct* weight versions in existence (the live one
    /// plus the superseded ones held) — the quantity bounding PipeDream's
    /// memory overhead (§3.3), which 2BW caps at 2.
    pub fn versions_held(&self) -> usize {
        self.held.len() + 1
    }
}

/// The paper's staleness formulas (§3.3), for an `n`-stage straight
/// pipeline with stages indexed from 0.
pub mod staleness {
    /// Weight stashing: stage `s` (0-indexed) of `n` computes minibatch
    /// `t`'s gradient with weights delayed `n − 1 − s` update steps —
    /// `w^(t−n+1)` at the first stage through `w^(t)` at the last.
    pub fn weight_stashing_delay(stage: usize, n: usize) -> usize {
        assert!(stage < n);
        n - 1 - stage
    }

    /// Weight stashing on a replicated stage, counted in gradient-sync
    /// rounds: a stage on `replicas` replicas applies one update per round
    /// of `replicas` consecutive minibatches, and minibatch `t` (of round
    /// `⌊t / replicas⌋`) runs `⌈W / replicas⌉ − 1` rounds behind, where `W`
    /// counts the workers from this stage to the output stage. On a
    /// straight pipeline that is [`weight_stashing_delay`]. The trainer
    /// runs exactly this on `2-1`, `2-2`, `1-2-1`, `2-2-1`, `3-1` and data
    /// parallelism, but not on `1-2`, `1-3`, `1-4`, `2-3`, `2-4`, `1-1-2`
    /// or `1-2-2`, whose warm-up 1F1B-RR orders differently.
    pub fn replicated_stashing_delay(workers_from_stage: usize, replicas: usize) -> usize {
        assert!(replicas >= 1 && workers_from_stage >= replicas);
        workers_from_stage.div_ceil(replicas) - 1
    }

    /// Vertical sync: every stage uses the version pinned at the input
    /// stage, i.e. a uniform delay of `n − 1` steps.
    pub fn vertical_sync_delay(_stage: usize, n: usize) -> usize {
        n - 1
    }

    /// Data parallelism with BSP: no staleness.
    pub fn bsp_delay(_stage: usize, _n: usize) -> usize {
        0
    }

    /// PipeDream-2BW double-buffered updates: every stage computes group
    /// `g`'s gradient against generation `g − 1` while generation `g` is
    /// the latest — a **uniform** delay of exactly 1 group update at every
    /// stage (the warm-up groups 0 and 1 run at delay 0, before any or
    /// only one update exists), independent of pipeline depth.
    pub fn two_bw_delay(_stage: usize, _n: usize) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stage in miniature: live weights next to their store, driven the
    /// way the runtime's worker drives them.
    struct Stage<W> {
        live: W,
        store: VersionStore<W>,
    }

    impl<W: Clone> Stage<W> {
        fn new(policy: VersionPolicy, initial: W) -> Self {
            Stage {
                live: initial,
                store: VersionStore::new(policy),
            }
        }

        /// Forward of `mb`; returns the weights it ran under.
        fn forward(&mut self, mb: u64, tag: u64) -> W {
            let v = self.store.begin_forward(mb, tag).expect("version held");
            self.weights(v)
        }

        /// The weights `mb`'s backward runs under.
        fn backward_weights(&mut self, mb: u64) -> W {
            let v = self.store.version_for(mb);
            self.weights(v)
        }

        fn weights(&mut self, version: u64) -> W {
            self.store
                .superseded(version)
                .map_or_else(|| self.live.clone(), |w| w.clone())
        }

        fn update(&mut self, f: impl FnOnce(&mut W)) -> u64 {
            let live = &self.live;
            let id = self.store.advance(|_| live.clone());
            f(&mut self.live);
            id
        }
    }

    #[test]
    fn backward_sees_forward_version() {
        let mut s = Stage::new(VersionPolicy::Stashing, vec![1.0f32]);
        let w_fwd = s.forward(0, 0);
        // Two updates land while mb 0 is in flight.
        s.update(|w| w[0] = 2.0);
        s.update(|w| w[0] = 3.0);
        assert_eq!(s.backward_weights(0), w_fwd);
        assert_eq!(w_fwd[0], 1.0);
        assert_eq!(s.live[0], 3.0);
        s.store.complete_backward(0);
        assert_eq!(s.store.in_flight(), 0);
        assert_eq!(s.store.versions_held(), 1);
    }

    #[test]
    fn versions_held_bounded_by_in_flight_plus_one() {
        let mut s = Stage::new(VersionPolicy::Stashing, 0u64);
        for mb in 0..4 {
            s.forward(mb, 0);
            s.update(|w| *w += 1);
        }
        assert_eq!(s.store.in_flight(), 4);
        assert_eq!(s.store.versions_held(), 5);
        for mb in 0..4 {
            s.store.complete_backward(mb);
        }
        assert_eq!(s.store.versions_held(), 1);
    }

    #[test]
    fn a_version_is_saved_once_and_only_while_pinned() {
        let mut s = Stage::new(VersionPolicy::Stashing, 7i32);
        s.forward(0, 0);
        s.forward(1, 0);
        assert_eq!(s.store.version_for(0), s.store.version_for(1));
        assert_eq!(s.store.versions_held(), 1, "no copy until an update lands");
        let mut saves = 0;
        s.store.advance(|spare| {
            assert!(spare.is_none(), "nothing has retired yet");
            saves += 1;
            7
        });
        s.store.complete_backward(0);
        s.store.complete_backward(1);
        // Version 1 is pinned by nobody: overwriting it needs no copy, and
        // the next save is handed version 0's retired weights.
        s.store.advance(|_| unreachable!("unpinned version saved"));
        s.forward(2, 0);
        s.store.advance(|spare| {
            saves += 1;
            spare.expect("version 0 retired")
        });
        assert_eq!(saves, 2);
    }

    #[test]
    #[should_panic(expected = "already has a pinned version")]
    fn double_forward_rejected() {
        let mut store = VersionStore::<u8>::new(VersionPolicy::Stashing);
        let _ = store.begin_forward(3, 0);
        let _ = store.begin_forward(3, 0);
    }

    #[test]
    #[should_panic(expected = "no pinned version")]
    fn backward_without_forward_rejected() {
        VersionStore::<u8>::new(VersionPolicy::Stashing).version_for(1);
    }

    #[test]
    fn figure9_weight_versions() {
        // Figure 9: minibatch 5 on stage 0 (machine 1) uses weights that
        // include minibatch 1's update; on stage 2 (machine 3) weights that
        // include updates from minibatches 1–3. Model stage 0 of a 4-stage
        // pipeline: updates from mb 1 land before mb 5's forward.
        let mut s = Stage::new(VersionPolicy::Stashing, Vec::<u64>::new());
        // Startup: forwards of 1..4 (paper numbers minibatches from 1).
        for mb in 1..=4 {
            s.forward(mb, 0);
        }
        // mb 1's backward completes; its update lands; then mb 5 forward.
        s.store.complete_backward(1);
        s.update(|w| w.push(1));
        assert_eq!(s.forward(5, 0), vec![1], "mb 5 sees exactly update 1");
        // Stage keeps serving mb 5's backward with that same version even
        // after more updates.
        for mb in 2..=4 {
            s.store.complete_backward(mb);
            s.update(|w| w.push(mb));
        }
        assert_eq!(s.backward_weights(5), vec![1]);
        assert_eq!(s.live, vec![1, 2, 3, 4]);
    }

    #[test]
    fn vertical_sync_keeps_versions_from_the_oldest_tag_on() {
        // A downstream stage: its own version runs ahead of the tags.
        let mut s = Stage::new(VersionPolicy::VerticalSync, 10i64);
        assert_eq!(s.forward(0, 0), 10);
        s.store.complete_backward(0);
        // Nothing is pinned, yet mb 1 was tagged 0 upstream: v0 is kept.
        s.update(|w| *w += 1);
        s.update(|w| *w += 1);
        assert_eq!(s.store.versions_held(), 3);
        assert_eq!(s.forward(1, 0), 10);
        // A newer tag retires everything older than the oldest pinned one.
        s.store.complete_backward(1);
        assert_eq!(s.forward(2, 2), 12);
        assert_eq!(s.store.versions_held(), 1);
        assert_eq!(s.store.begin_forward(3, 1), Err(1), "version 1 has retired");
    }

    #[test]
    fn two_bw_holds_at_most_two_generations() {
        // Group of 4 minibatches on a depth-4 pipeline stage: simulate the
        // 1F1B interleaving at the input stage (fwd k after bwd k−4) for
        // many groups and check the two-version bound throughout.
        let mut s = Stage::new(VersionPolicy::TwoBw { group: 4 }, vec![0u64]);
        let total = 32u64;
        let (mut next_fwd, mut next_bwd) = (0u64, 0u64);
        let mut max_held = 0usize;
        while next_bwd < total {
            if next_fwd < total && next_fwd < next_bwd + 4 {
                s.forward(next_fwd, 0);
                next_fwd += 1;
            } else {
                s.store.complete_backward(next_bwd);
                next_bwd += 1;
                if next_bwd.is_multiple_of(4) {
                    let g = next_bwd / 4 - 1;
                    s.update(|w| w.push(g));
                }
            }
            max_held = max_held.max(s.store.versions_held());
        }
        assert_eq!(
            max_held, 2,
            "2BW must hold exactly 2 generations in steady state"
        );
        assert_eq!(s.store.live(), total / 4);
    }

    #[test]
    fn two_bw_runs_group_g_against_generation_g_minus_one() {
        // W(g+1) = W(g) − ν∇f(W(g−1)): the generation pinned for group g's
        // passes must be g−1 (0 for the warm-up groups 0 and 1).
        let mut s = Stage::new(VersionPolicy::TwoBw { group: 2 }, 0i64);
        for group in 0..5u64 {
            for mb in (group * 2)..(group * 2 + 2) {
                let pinned = s.forward(mb, 0);
                assert_eq!(s.store.version_for(mb), group.saturating_sub(1));
                assert_eq!(pinned, group.saturating_sub(1) as i64 * 10);
                assert_eq!(s.backward_weights(mb), pinned);
                s.store.complete_backward(mb);
            }
            assert_eq!(s.update(|w| *w += 10), group + 1);
        }
    }

    #[test]
    fn two_bw_rejects_a_group_ahead_of_its_buffer() {
        // Minibatch 8 of group 4 needs generation 3, which only exists
        // after 3 group updates — pinning it fresh is an invariant breach.
        let mut store = VersionStore::<u8>::new(VersionPolicy::TwoBw { group: 2 });
        assert_eq!(store.begin_forward(8, 0), Err(3));
        assert_eq!(store.in_flight(), 0);
    }

    #[test]
    fn staleness_formulas() {
        use staleness::*;
        // 4-stage pipeline: delays 3, 2, 1, 0 with stashing.
        assert_eq!(weight_stashing_delay(0, 4), 3);
        assert_eq!(weight_stashing_delay(3, 4), 0);
        // Unreplicated, a sync round is one minibatch.
        for s in 0..4 {
            assert_eq!(
                replicated_stashing_delay(4 - s, 1),
                weight_stashing_delay(s, 4)
            );
        }
        // `2-1`: stage 0 runs one round behind; data parallelism none.
        assert_eq!(replicated_stashing_delay(3, 2), 1);
        assert_eq!(replicated_stashing_delay(4, 4), 0);
        // Vertical sync: uniform n−1 = 3.
        for s in 0..4 {
            assert_eq!(vertical_sync_delay(s, 4), 3);
        }
        assert_eq!(bsp_delay(2, 4), 0);
        // 2BW: uniform delay 1 regardless of stage or depth.
        for s in 0..4 {
            assert_eq!(two_bw_delay(s, 4), 1);
        }
        assert_eq!(two_bw_delay(0, 64), 1);
    }

    #[test]
    fn schedule_kind_axes_and_spellings() {
        use ScheduleKind::*;
        assert!(!Vanilla1F1B.uses_two_bw() && !Vanilla1F1B.uses_recompute());
        assert!(TwoBW.uses_two_bw() && !TwoBW.uses_recompute());
        assert!(!Recompute.uses_two_bw() && Recompute.uses_recompute());
        assert!(TwoBWRecompute.uses_two_bw() && TwoBWRecompute.uses_recompute());
        // Every canonical spelling parses back to itself.
        for k in ScheduleKind::all() {
            assert_eq!(ScheduleKind::parse(k.as_str()), Some(k), "{k}");
            assert_eq!(ScheduleKind::parse(&k.to_string().to_uppercase()), Some(k));
        }
        assert_eq!(ScheduleKind::parse("1f1b"), Some(Vanilla1F1B));
        assert_eq!(ScheduleKind::parse("twobw"), Some(TwoBW));
        assert_eq!(ScheduleKind::parse("quantum"), None);
        assert_eq!(ScheduleKind::default(), Vanilla1F1B);
    }
}
