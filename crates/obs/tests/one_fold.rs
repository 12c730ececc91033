//! One fold over a trace: `analyze_trace`, `stage_times` and
//! `LiveProfiler` are projections of the same windowed `BubbleCause`
//! attribution, so on any trace — however spans overlap, nest or straddle
//! a cut — windows tile exactly in integer nanoseconds, adjacent windows
//! add up cause by cause, and every view reports the same numbers.

mod common;

use common::arb_snapshot;
use pipedream_obs::{
    analyze_trace, attribute_window, stage_times, BubbleCause, CauseBreakdown, LiveProfiler,
    StageAttribution,
};
use proptest::prelude::*;

/// Seconds back to the integer nanoseconds they were converted from.
fn ns(seconds: f64) -> u64 {
    (seconds * 1e9).round() as u64
}

fn cause_ns(b: &CauseBreakdown) -> Vec<u64> {
    BubbleCause::ALL.iter().map(|&c| ns(b.get(c))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn windows_tile_and_every_view_agrees(
        snap in arb_snapshot(),
        cut in (0.0f64..=1.0, 0.0f64..=1.0),
    ) {
        let wall = snap
            .tracks
            .iter()
            .flat_map(|t| t.events.iter().map(|e| e.end_ns))
            .max()
            .unwrap_or(0);
        let a = (cut.0.min(cut.1) * wall as f64) as u64;
        let b = (cut.0.max(cut.1) * wall as f64) as u64;

        // [0,a) + [a,b) + [b,wall] == [0,wall], cause by cause, and each
        // window's causes sum to tracks × window.
        let whole = attribute_window(&snap, 0, None);
        let parts = [
            (a, attribute_window(&snap, 0, Some(a))),
            (b - a, attribute_window(&snap, a, Some(b))),
            (wall - b, attribute_window(&snap, b, None)),
        ];
        for (stage, st) in whole.iter().enumerate() {
            let mut sum = vec![0u64; BubbleCause::ALL.len()];
            for (len, part) in &parts {
                let p: &StageAttribution = &part[stage];
                prop_assert_eq!(p.tracks, st.tracks);
                let causes = cause_ns(&p.breakdown);
                prop_assert_eq!(causes.iter().sum::<u64>(), len * p.tracks as u64);
                for (s, c) in sum.iter_mut().zip(causes) {
                    *s += c;
                }
            }
            prop_assert_eq!(&sum, &cause_ns(&st.breakdown));
            prop_assert_eq!(sum.iter().sum::<u64>(), wall * st.tracks as u64);
            let mbs: u64 = parts.iter().map(|(_, part)| part[stage].minibatches).sum();
            prop_assert_eq!(mbs, st.minibatches);
        }

        // analyze_trace's per-stage attribution is the whole-trace window.
        let report = analyze_trace(&snap);
        prop_assert_eq!(&report.per_stage, &whole);

        // stage_times and the live replay are projections of it.
        let times = stage_times(&snap);
        let live = LiveProfiler::replay(&snap);
        prop_assert_eq!(times.len(), whole.len());
        prop_assert_eq!(live.stages.len(), whole.len());
        for ((st, lv), at) in times.iter().zip(&live.stages).zip(&whole) {
            prop_assert_eq!(st.breakdown, at.breakdown);
            prop_assert_eq!(
                (st.busy_frac, st.comm_frac, st.bubble_frac),
                (lv.busy_frac, lv.comm_frac, lv.bubble_frac)
            );
            prop_assert!((st.busy_frac + st.comm_frac + st.bubble_frac - 1.0).abs() < 1e-12);
            prop_assert_eq!(st.compute_per_minibatch_s(), lv.compute_per_mb_s);
            prop_assert_eq!(st.compute_per_minibatch_s(), at.service_per_mb_s * at.tracks as f64);
            prop_assert_eq!((st.minibatches, st.sync_s), (lv.minibatches, lv.sync_s));
            prop_assert_eq!(st.sync_s, at.breakdown.grad_sync_s + at.breakdown.two_bw_barrier_s);
        }
    }
}
