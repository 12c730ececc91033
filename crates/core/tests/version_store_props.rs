//! [`VersionStore`] against a naive reference that clones the prescribed
//! version at every pin, over random legal interleavings of forward,
//! backward and update under all three policies. The store is driven the
//! way the runtime's worker drives it: live weights outside the store, a
//! pass under a superseded version by swapping it in and back out, one
//! `advance` immediately before each in-place update.

use pipedream_core::stash::{VersionPolicy, VersionStore};
use proptest::prelude::*;
use std::collections::HashMap;

type Weights = Vec<u64>;

/// One stage: the store under test next to the reference.
struct Stage {
    store: VersionStore<Weights>,
    live: Weights,
    /// Every version there ever was, by id (the reference's memory).
    history: Vec<Weights>,
    /// Reference: a clone of the prescribed version, taken at the pin.
    cloned_at_pin: HashMap<u64, Weights>,
    copies: usize,
    updates: usize,
}

impl Stage {
    fn new(policy: VersionPolicy) -> Self {
        let live = vec![1, 2, 3];
        Stage {
            store: VersionStore::new(policy),
            history: vec![live.clone()],
            live,
            cloned_at_pin: HashMap::new(),
            copies: 0,
            updates: 0,
        }
    }

    /// The weights a pass under `version` computes with.
    fn pass(&mut self, version: u64) -> Weights {
        if let Some(w) = self.store.superseded(version) {
            std::mem::swap(&mut self.live, w);
        }
        let seen = self.live.clone();
        if let Some(w) = self.store.superseded(version) {
            std::mem::swap(&mut self.live, w);
        }
        seen
    }

    /// Forward of `mb`, which the policy must run under `prescribed`.
    fn forward(&mut self, mb: u64, tag: u64, prescribed: u64) -> Result<(), TestCaseError> {
        let reference = self.history[prescribed as usize].clone();
        prop_assert_eq!(self.store.begin_forward(mb, tag), Ok(prescribed));
        prop_assert_eq!(&self.pass(prescribed), &reference, "forward of mb {}", mb);
        self.cloned_at_pin.insert(mb, reference);
        Ok(())
    }

    fn backward(&mut self, mb: u64) -> Result<(), TestCaseError> {
        let version = self.store.version_for(mb);
        let reference = self.cloned_at_pin.remove(&mb).expect("forward ran");
        prop_assert_eq!(&self.pass(version), &reference, "backward of mb {}", mb);
        self.store.complete_backward(mb);
        Ok(())
    }

    fn update(&mut self, delta: u64) -> Result<(), TestCaseError> {
        let (live, copies) = (&self.live, &mut self.copies);
        let id = self.store.advance(|retired| {
            *copies += 1;
            match retired {
                Some(mut w) => {
                    w.clone_from(live);
                    w
                }
                None => live.clone(),
            }
        });
        for x in &mut self.live {
            *x = x.wrapping_mul(31).wrapping_add(delta);
        }
        self.history.push(self.live.clone());
        self.updates += 1;
        prop_assert_eq!(id as usize, self.updates);
        prop_assert!(self.copies <= self.updates, "at most one copy per update");
        Ok(())
    }

    fn finish(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(&self.live, self.history.last().expect("version 0"));
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Weight stashing, backward in order (1F1B) or in any order: every
    /// pass sees its forward's weights, at most one version per in-flight
    /// minibatch plus the live one exists, and an update copies only when
    /// an in-flight minibatch pins the version it overwrites.
    #[test]
    fn stashing_matches_the_cloning_reference(
        ops in proptest::collection::vec((0u8..3, any::<u64>()), 1..80),
        in_order in any::<bool>(),
    ) {
        let mut s = Stage::new(VersionPolicy::Stashing);
        let mut in_flight: Vec<u64> = Vec::new();
        let mut next_fwd = 0u64;
        for (op, r) in ops {
            match op {
                0 => {
                    s.forward(next_fwd, 0, s.store.live())?;
                    in_flight.push(next_fwd);
                    next_fwd += 1;
                }
                1 if !in_flight.is_empty() => {
                    let at = if in_order { 0 } else { r as usize % in_flight.len() };
                    s.backward(in_flight.remove(at))?;
                }
                _ => {
                    let live = s.store.live();
                    let pinned = in_flight.iter().any(|&mb| s.store.version_for(mb) == live);
                    let before = s.copies;
                    s.update(r)?;
                    prop_assert_eq!(s.copies - before, pinned as usize);
                }
            }
            prop_assert!(s.store.versions_held() <= in_flight.len() + 1);
            prop_assert_eq!(s.store.in_flight(), in_flight.len());
        }
        s.finish()?;
    }

    /// Vertical sync at a downstream stage: the tag trails the local
    /// version by whatever the upstream stages' lead is, never decreases,
    /// and names a version that is still there. Exactly the versions from
    /// the oldest tag still needed up to the live one exist.
    #[test]
    fn vertical_sync_matches_the_cloning_reference(
        ops in proptest::collection::vec((0u8..3, any::<u64>()), 1..80),
    ) {
        let mut s = Stage::new(VersionPolicy::VerticalSync);
        let mut in_flight: Vec<(u64, u64)> = Vec::new(); // (mb, tag), oldest first
        let mut next_fwd = 0u64;
        let mut last_tag = 0u64;
        for (op, r) in ops {
            match op {
                0 => {
                    let live = s.store.live();
                    let tag = last_tag + r % (live - last_tag + 1);
                    s.forward(next_fwd, tag, tag)?;
                    in_flight.push((next_fwd, tag));
                    last_tag = tag;
                    next_fwd += 1;
                }
                1 if !in_flight.is_empty() => s.backward(in_flight.remove(0).0)?,
                _ => s.update(r)?,
            }
            let oldest_needed = in_flight.first().map_or(last_tag, |&(_, tag)| tag);
            prop_assert_eq!(
                s.store.versions_held() as u64,
                s.store.live() - oldest_needed + 1
            );
        }
        s.finish()?;
    }

    /// 2BW: 1F1B with an in-flight depth within the group size, one update
    /// at the end of every *full* group (the run may end mid-group). Group
    /// `g` runs against generation `g − 1`, and never more than two
    /// generations exist.
    #[test]
    fn two_bw_matches_the_cloning_reference(
        group in 1u64..6,
        depth_slack in 0u64..6,
        total in 1u64..40,
        choices in proptest::collection::vec((any::<bool>(), any::<u64>()), 120),
    ) {
        let depth = group - depth_slack % group; // 1..=group
        let mut s = Stage::new(VersionPolicy::TwoBw { group });
        let (mut next_fwd, mut next_bwd) = (0u64, 0u64);
        for (prefer_forward, r) in choices {
            let may_forward = next_fwd < total && next_fwd - next_bwd < depth;
            if may_forward && (prefer_forward || next_fwd == next_bwd) {
                s.forward(next_fwd, 0, (next_fwd / group).saturating_sub(1))?;
                next_fwd += 1;
            } else if next_bwd < next_fwd {
                s.backward(next_bwd)?;
                next_bwd += 1;
                if next_bwd.is_multiple_of(group) {
                    s.update(r)?;
                    prop_assert_eq!(s.store.live(), next_bwd / group);
                }
            }
            prop_assert!(s.store.versions_held() <= 2, "2BW holds two buffers");
        }
        prop_assert_eq!(next_bwd, total, "120 choices drain 40 minibatches");
        s.finish()?;
    }
}
