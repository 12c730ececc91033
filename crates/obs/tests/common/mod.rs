//! Trace generators shared by the integration tests: arbitrary snapshots
//! over the full span-kind space, with arbitrary overlap and nesting.
#![allow(dead_code)]

use pipedream_obs::{Event, SpanKind, TraceSnapshot, TrackEvents};
use proptest::prelude::*;

/// Span kinds in use: [`kind`] maps `0..KINDS` onto all of them.
pub const KINDS: u8 = 16;

/// The `k`th span kind, carrying `mb` if it carries a minibatch.
pub fn kind(k: u8, mb: u64) -> SpanKind {
    match k {
        0 => SpanKind::Fwd { mb },
        1 => SpanKind::Bwd { mb },
        2 => SpanKind::RecvWait { mb },
        3 => SpanKind::SendWait { mb },
        4 => SpanKind::StashPush { mb },
        5 => SpanKind::StashPop { mb },
        6 => SpanKind::GradSync,
        7 => SpanKind::Checkpoint,
        8 => SpanKind::Stalled,
        9 => SpanKind::Fault,
        10 => SpanKind::Recovery,
        11 => SpanKind::Reconfig,
        12 => SpanKind::Recompute { mb },
        13 => SpanKind::SyncDeposit { mb },
        14 => SpanKind::SyncRelease { mb },
        _ => SpanKind::OptStep { mb },
    }
}

/// Any span kind, exercised across the full tag space (instants too).
fn arb_kind() -> impl Strategy<Value = SpanKind> {
    (0..KINDS, 0u64..4).prop_map(|(k, mb)| kind(k, mb))
}

fn arb_event() -> impl Strategy<Value = Event> {
    (arb_kind(), 0u64..50_000_000, 0u64..5_000_000, 0u32..3).prop_map(
        |(kind, start, dur, epoch)| {
            let mut ev = Event::span(
                kind,
                start,
                if kind.is_instant_kind() {
                    start
                } else {
                    start + dur
                },
            );
            ev.epoch = epoch;
            ev
        },
    )
}

/// Instant kinds get zero duration so they render as `ph:"i"`.
trait InstantKind {
    fn is_instant_kind(&self) -> bool;
}
impl InstantKind for SpanKind {
    fn is_instant_kind(&self) -> bool {
        matches!(
            self,
            SpanKind::StashPush { .. }
                | SpanKind::StashPop { .. }
                | SpanKind::SyncDeposit { .. }
                | SpanKind::SyncRelease { .. }
                | SpanKind::Fault
                | SpanKind::Recovery
                | SpanKind::Reconfig
        )
    }
}

fn arb_track(i: usize) -> impl Strategy<Value = TrackEvents> {
    proptest::collection::vec(arb_event(), 0..24).prop_map(move |mut events| {
        events.sort_by_key(|e| (e.start_ns, e.end_ns));
        TrackEvents {
            name: format!("stage{i}.replica0"),
            stage: Some(i),
            events,
            dropped: 0,
        }
    })
}

pub fn arb_snapshot() -> impl Strategy<Value = TraceSnapshot> {
    (arb_track(0), arb_track(1), any::<bool>()).prop_map(|(t0, t1, supervisor)| {
        let mut tracks = vec![t0, t1];
        if supervisor {
            tracks.push(TrackEvents {
                name: "supervisor".into(),
                stage: None,
                events: vec![Event::span(SpanKind::Fault, 123_456, 123_456)],
                dropped: 0,
            });
        }
        TraceSnapshot { tracks }
    })
}
