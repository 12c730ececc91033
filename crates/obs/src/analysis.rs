//! Post-run trace analysis: per-stage aggregates, conversion to the
//! simulator's [`Timeline`] for ASCII/SVG rendering, and validation of a
//! measured run against planner-predicted stage times and simulated
//! steady-state throughput (the feedback loop the paper closes by
//! profiling before partitioning, §3.1).

use crate::critical_path::{fold, CauseBreakdown};
use crate::event::SpanKind;
use crate::metrics::MetricsRegistry;
use crate::recorder::TraceSnapshot;
use pipedream_sim::{Timeline, WorkKind};
use serde::{Deserialize, Serialize};

/// One pipeline stage over a whole trace, summed over its replica tracks:
/// the per-stage projection of the [`crate::critical_path`] fold, so every
/// number here is a sum of the causes `pipedream analyze` prints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StageTimes {
    /// Pipeline stage index.
    pub stage: usize,
    /// Number of tracks (replicas) contributing.
    pub tracks: usize,
    /// Total forward span time (includes nested receive waits).
    pub fwd_s: f64,
    /// Total backward span time (includes whatever nests inside: receive
    /// waits, recompute, the gradient-sync rendezvous, the optimizer step).
    pub bwd_s: f64,
    /// Total gradient-sync rendezvous time (`grad_sync` + `2bw_barrier`).
    pub sync_s: f64,
    /// Total time blocked on a peer's send or receive (`wait_upstream` +
    /// `backpressure`).
    pub recv_wait_s: f64,
    /// Total checkpoint write time.
    pub checkpoint_s: f64,
    /// Backward passes completed (minibatches finished by this stage).
    pub minibatches: u64,
    /// Where the stage's wall clock went, cause by cause.
    pub breakdown: CauseBreakdown,
    /// Fraction of wall time in the busy group, averaged over replicas.
    pub busy_frac: f64,
    /// Fraction of wall time in the comm group — send/receive waits plus
    /// the gradient-sync rendezvous — averaged over replicas.
    pub comm_frac: f64,
    /// Pipeline bubble: the rest of the wall clock, neither compute nor
    /// communication. The three fractions partition the wall clock.
    pub bubble_frac: f64,
}

impl StageTimes {
    /// Pure forward/backward compute: everything nested inside the spans
    /// (waits, recompute, rendezvous, optimizer step) is its own cause.
    pub fn compute_s(&self) -> f64 {
        self.breakdown.compute_s
    }

    /// Mean per-minibatch service time on one replica (0 when no backward
    /// completed) — the number [`validate`] and the drift detector hold
    /// against the planner's prediction.
    pub fn compute_per_minibatch_s(&self) -> f64 {
        self.breakdown.service_per_mb_s(self.minibatches)
    }
}

/// Per-stage times of a whole trace. Tracks without a stage (supervisor,
/// coordinator) are ignored.
pub fn stage_times(snap: &TraceSnapshot) -> Vec<StageTimes> {
    let whole = fold(snap, 0, None);
    let stages = whole.per_stage().into_iter().enumerate();
    stages
        .map(|(stage, w)| {
            let breakdown = w.breakdown();
            let [busy_frac, comm_frac, bubble_frac] = w.fracs(whole.window_ns);
            StageTimes {
                stage,
                tracks: w.tracks,
                fwd_s: w.fwd_ns as f64 * 1e-9,
                bwd_s: w.bwd_ns as f64 * 1e-9,
                sync_s: breakdown.sync_s(),
                recv_wait_s: breakdown.wait_upstream_s + breakdown.backpressure_s,
                checkpoint_s: breakdown.checkpoint_s,
                minibatches: w.minibatches,
                breakdown,
                busy_frac,
                comm_frac,
                bubble_frac,
            }
        })
        .collect()
}

/// Convert a measured snapshot into the simulator's [`Timeline`] so the
/// same `render_timeline` / `render_svg` code draws real runs. One lane
/// per track; stash/receive bookkeeping and instant events are omitted
/// (they nest inside or annotate the compute spans).
pub fn to_timeline(snap: &TraceSnapshot) -> Timeline {
    let mut tl = Timeline::new(snap.tracks.len());
    for (w, track) in snap.tracks.iter().enumerate() {
        for ev in &track.events {
            if ev.is_instant() {
                continue;
            }
            let kind = match ev.kind {
                SpanKind::Fwd { mb } => WorkKind::Forward(mb),
                SpanKind::Bwd { mb } => WorkKind::Backward(mb),
                SpanKind::GradSync => WorkKind::Sync,
                SpanKind::Checkpoint => WorkKind::Checkpoint,
                SpanKind::Stalled => WorkKind::Stall,
                _ => continue,
            };
            tl.record(w, ev.start_ns as f64 * 1e-9, ev.end_ns as f64 * 1e-9, kind);
        }
    }
    tl
}

/// Measured-vs-predicted comparison for one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageValidation {
    /// Pipeline stage index.
    pub stage: usize,
    /// Measured per-minibatch service time (waits on peers excluded).
    pub measured_s: f64,
    /// Planner-predicted per-minibatch stage time.
    pub predicted_s: f64,
    /// `measured / predicted - 1`; positive means slower than planned.
    pub error_frac: f64,
}

/// Outcome of diffing a measured run against the planner's per-stage
/// predictions and the simulator's steady-state throughput.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceValidation {
    /// Per-stage measured service vs predicted compute time.
    pub per_stage: Vec<StageValidation>,
    /// Measured steady-state seconds per minibatch (slope of the middle
    /// half of stage-0 backward completions).
    pub measured_per_minibatch_s: f64,
    /// Simulated steady-state seconds per minibatch.
    pub simulated_per_minibatch_s: f64,
    /// `measured / simulated - 1` for per-minibatch time; positive means
    /// the real pipeline is slower than the simulation.
    pub throughput_error_frac: f64,
    /// Measured samples/second at the given minibatch size.
    pub measured_samples_per_sec: f64,
    /// Simulated samples/second at the given minibatch size.
    pub simulated_samples_per_sec: f64,
}

/// Steady-state seconds per minibatch, measured as the slope of stage-0
/// backward completion times. The middle half of the completions is used
/// so warmup (pipeline fill) and drain don't skew the estimate.
pub fn measured_per_minibatch_s(snap: &TraceSnapshot) -> f64 {
    let mut ends: Vec<u64> = snap
        .tracks
        .iter()
        .filter(|t| t.stage == Some(0))
        .flat_map(|t| t.events.iter())
        .filter(|e| matches!(e.kind, SpanKind::Bwd { .. }))
        .map(|e| e.end_ns)
        .collect();
    ends.sort_unstable();
    let len = ends.len();
    if len < 2 {
        return 0.0;
    }
    let q = len / 4;
    let (lo, hi) = (q, len - 1 - q);
    if hi <= lo {
        return (ends[len - 1] - ends[0]) as f64 * 1e-9 / (len - 1) as f64;
    }
    (ends[hi] - ends[lo]) as f64 * 1e-9 / (hi - lo) as f64
}

/// Diff a measured snapshot against planner-predicted per-stage times and
/// the simulator's steady-state per-minibatch time. `minibatch_size` is
/// the number of samples per minibatch, used to express throughput in
/// samples/second.
pub fn validate(
    snap: &TraceSnapshot,
    predicted_stage_s: &[f64],
    simulated_per_minibatch_s: f64,
    minibatch_size: usize,
) -> TraceValidation {
    // `a / b - 1`, and samples/second at a per-minibatch time; 0 when the
    // reference is missing.
    let error_frac = |a: f64, b: f64| if b > 0.0 { a / b - 1.0 } else { 0.0 };
    let samples_per_sec = |per_mb_s: f64| {
        if per_mb_s > 0.0 {
            minibatch_size as f64 / per_mb_s
        } else {
            0.0
        }
    };
    let per_stage = stage_times(snap)
        .iter()
        .map(|st| {
            let predicted = predicted_stage_s.get(st.stage).copied().unwrap_or(0.0);
            let measured = st.compute_per_minibatch_s();
            StageValidation {
                stage: st.stage,
                measured_s: measured,
                predicted_s: predicted,
                error_frac: error_frac(measured, predicted),
            }
        })
        .collect();
    let measured_mb = measured_per_minibatch_s(snap);
    TraceValidation {
        per_stage,
        measured_per_minibatch_s: measured_mb,
        simulated_per_minibatch_s,
        throughput_error_frac: error_frac(measured_mb, simulated_per_minibatch_s),
        measured_samples_per_sec: samples_per_sec(measured_mb),
        simulated_samples_per_sec: samples_per_sec(simulated_per_minibatch_s),
    }
}

/// Fold a snapshot into registry gauges/histograms: per-stage busy%,
/// comm% and bubble%, per-kind span duration histograms, and the total
/// events lost to the rings' drop-oldest policy.
///
/// Emits the labeled series only: `pipedream_stage_*{stage="N"}` gauges
/// and the `pipedream_span_seconds{kind="..."}` histogram family. The
/// pre-5.x flat names (`stage2_busy_frac`, `span_seconds_fwd`) were kept
/// behind a `flat_compat` shim for one release and are now gone.
pub fn record_snapshot_metrics(metrics: &MetricsRegistry, snap: &TraceSnapshot) {
    for st in stage_times(snap) {
        let stage = st.stage.to_string();
        let labels: [(&str, &str); 1] = [("stage", stage.as_str())];
        for (name, value) in [
            ("pipedream_stage_busy_frac", st.busy_frac),
            ("pipedream_stage_comm_frac", st.comm_frac),
            ("pipedream_stage_bubble_frac", st.bubble_frac),
            ("pipedream_stage_sync_wait_seconds", st.sync_s),
        ] {
            metrics.gauge_labeled(name, &labels).set(value);
        }
    }
    let mut dropped = 0;
    for track in &snap.tracks {
        dropped += track.dropped;
        for ev in &track.events {
            if !ev.is_instant() {
                metrics
                    .histogram_labeled("pipedream_span_seconds", &[("kind", ev.kind.name())])
                    .observe_secs(ev.duration_s());
            }
        }
    }
    metrics.counter("trace_events_dropped_total").add(dropped);
}

/// Record tensor buffer-pool activity for a run: how many scratch-buffer
/// requests were served from the free lists versus freshly allocated.
/// The runtime passes *deltas* over a training run, so in steady state a
/// healthy pipeline shows `tensor_pool_misses_total` flat while
/// `tensor_pool_hits_total` grows with minibatch count.
pub fn record_pool_metrics(metrics: &MetricsRegistry, hits: u64, misses: u64) {
    metrics.counter("tensor_pool_hits_total").add(hits);
    metrics.counter("tensor_pool_misses_total").add(misses);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::recorder::TrackEvents;

    const MS: u64 = 1_000_000;

    fn span(kind: SpanKind, start_ms: u64, end_ms: u64) -> Event {
        Event::span(kind, start_ms * MS, end_ms * MS)
    }

    /// Two stages, one track each: stage 0 does 4 fwd/bwd pairs with the
    /// backwards completing every 10 ms in steady state.
    fn sample() -> TraceSnapshot {
        let mut s0 = Vec::new();
        for mb in 0..4u64 {
            let t = mb * 10;
            s0.push(span(SpanKind::Fwd { mb }, t, t + 3));
            s0.push(span(SpanKind::RecvWait { mb }, t + 1, t + 2));
            s0.push(span(SpanKind::Bwd { mb }, t + 4, t + 8));
        }
        let s1 = vec![
            span(SpanKind::Fwd { mb: 0 }, 3, 6),
            span(SpanKind::Bwd { mb: 0 }, 6, 9),
            span(SpanKind::Checkpoint, 30, 34),
        ];
        TraceSnapshot {
            tracks: vec![
                TrackEvents {
                    name: "stage0.replica0".into(),
                    stage: Some(0),
                    events: s0,
                    dropped: 2,
                },
                TrackEvents {
                    name: "stage1.replica0".into(),
                    stage: Some(1),
                    events: s1,
                    dropped: 0,
                },
            ],
        }
    }

    #[test]
    fn stage_times_aggregate_and_subtract_waits() {
        let st = stage_times(&sample());
        assert_eq!(st.len(), 2);
        assert_eq!(st[0].minibatches, 4);
        assert!((st[0].fwd_s - 4.0 * 3e-3).abs() < 1e-9);
        assert!((st[0].recv_wait_s - 4.0 * 1e-3).abs() < 1e-9);
        // compute = 4*(3+4) - 4*1 = 24 ms
        assert!((st[0].compute_s() - 24e-3).abs() < 1e-9);
        assert!((st[0].compute_per_minibatch_s() - 6e-3).abs() < 1e-9);
        assert!((st[1].checkpoint_s - 4e-3).abs() < 1e-9);
        assert!(st[0].busy_frac > 0.0 && st[0].busy_frac <= 1.0);
        // Communication (the 4 ms of receive waits over a 38 ms wall) is
        // its own fraction, not part of the bubble.
        assert!(
            (st[0].comm_frac - 4.0 / 38.0).abs() < 1e-9,
            "{}",
            st[0].comm_frac
        );
        for s in &st {
            assert!(
                (s.busy_frac + s.comm_frac + s.bubble_frac - 1.0).abs() < 1e-12,
                "stage {}: fractions must sum to 1",
                s.stage
            );
            assert!(s.bubble_frac >= 0.0 && s.comm_frac >= 0.0);
        }
    }

    /// A replica records its gradient-sync rendezvous *inside* the
    /// backward span when the round keeps it on its thread. It is
    /// communication, once: not also compute.
    #[test]
    fn nested_grad_sync_is_comm_not_compute() {
        use crate::critical_path::analyze_trace;
        // One stage on two replicas, 4 back-to-back minibatches each:
        // fwd 2 ms, then an 8 ms bwd holding 3 ms of compute, a 4 ms
        // rendezvous and a 1 ms optimizer step.
        let replica = |r: usize| {
            let mut events = Vec::new();
            for k in 0..4u64 {
                let (mb, t) = (2 * k + r as u64, 10 * k);
                events.push(span(SpanKind::Fwd { mb }, t, t + 2));
                events.push(span(SpanKind::Bwd { mb }, t + 2, t + 10));
                events.push(span(SpanKind::GradSync, t + 5, t + 9));
                events.push(span(SpanKind::OptStep { mb }, t + 9, t + 10));
            }
            TrackEvents {
                name: format!("stage0.replica{r}"),
                stage: Some(0),
                events,
                dropped: 0,
            }
        };
        let snap = TraceSnapshot {
            tracks: vec![replica(0), replica(1)],
        };
        let st = stage_times(&snap)[0];
        assert_eq!((st.tracks, st.minibatches), (2, 8));
        // Per replica, of 40 ms: 20 compute + 4 optimizer, 16 rendezvous.
        assert!((st.busy_frac - 0.6).abs() < 1e-12, "{}", st.busy_frac);
        assert!((st.comm_frac - 0.4).abs() < 1e-12, "{}", st.comm_frac);
        assert!(st.bubble_frac.abs() < 1e-12, "{}", st.bubble_frac);
        assert!((st.busy_frac + st.comm_frac + st.bubble_frac - 1.0).abs() < 1e-12);
        assert!((st.compute_s() - 40e-3).abs() < 1e-9, "{}", st.compute_s());
        let b = analyze_trace(&snap).per_stage[0].breakdown;
        assert_eq!(st.sync_s, b.grad_sync_s + b.two_bw_barrier_s);
        assert!((st.sync_s - 32e-3).abs() < 1e-9);
        // (20 compute + 4 optimizer) / 4 minibatches on each replica.
        assert!((st.compute_per_minibatch_s() - 6e-3).abs() < 1e-9);
    }

    /// Spans that are not nested in a forward or backward keep their own
    /// cause: recompute and the optimizer step are the stage working, a
    /// stall and a checkpoint write are not.
    #[test]
    fn toplevel_spans_are_typed_not_dropped() {
        let snap = TraceSnapshot {
            tracks: vec![TrackEvents {
                name: "stage0.replica0".into(),
                stage: Some(0),
                events: vec![
                    span(SpanKind::Fwd { mb: 0 }, 0, 2),
                    span(SpanKind::Recompute { mb: 0 }, 2, 5),
                    span(SpanKind::Bwd { mb: 0 }, 5, 8),
                    span(SpanKind::OptStep { mb: 0 }, 8, 10),
                    span(SpanKind::Stalled, 10, 14),
                    span(SpanKind::Checkpoint, 14, 20),
                ],
                dropped: 0,
            }],
        };
        let st = stage_times(&snap)[0];
        assert!((st.busy_frac - 0.5).abs() < 1e-12, "{}", st.busy_frac);
        assert_eq!(st.comm_frac, 0.0);
        assert!((st.bubble_frac - 0.5).abs() < 1e-12, "{}", st.bubble_frac);
        assert!((st.compute_s() - 5e-3).abs() < 1e-9);
        assert!((st.breakdown.recompute_s - 3e-3).abs() < 1e-9);
        assert!((st.breakdown.injection_s - 4e-3).abs() < 1e-9);
        // The live view of the same trace is the same projection.
        let live = crate::live::LiveProfiler::replay(&snap).stages[0];
        assert_eq!(
            (live.busy_frac, live.comm_frac, live.bubble_frac),
            (st.busy_frac, st.comm_frac, st.bubble_frac)
        );
        assert_eq!(live.compute_per_mb_s, st.compute_per_minibatch_s());
    }

    #[test]
    fn timeline_conversion_maps_kinds_and_skips_bookkeeping() {
        let tl = to_timeline(&sample());
        assert_eq!(tl.per_worker.len(), 2);
        // RecvWait spans are skipped: 4 fwd + 4 bwd on stage 0.
        assert_eq!(tl.per_worker[0].len(), 8);
        assert!(tl.per_worker[1]
            .iter()
            .any(|i| i.kind == WorkKind::Checkpoint));
        assert!((tl.makespan() - 38e-3).abs() < 1e-9);
    }

    #[test]
    fn steady_state_slope_uses_middle_half() {
        // Backward completions at 8, 18, 28, 38 ms → slope 10 ms/mb.
        let mb = measured_per_minibatch_s(&sample());
        assert!((mb - 10e-3).abs() < 1e-9, "got {mb}");
    }

    #[test]
    fn validate_reports_per_stage_and_throughput_error() {
        let v = validate(&sample(), &[6e-3, 12e-3], 8e-3, 16);
        assert_eq!(v.per_stage.len(), 2);
        // Stage 0 measured exactly matches the prediction.
        assert!(v.per_stage[0].error_frac.abs() < 1e-9);
        // Stage 1: 6 ms of compute plus its 4 ms toplevel checkpoint write
        // is 10 ms of service (what `analyze_trace` reports) against the
        // predicted 12 ms.
        assert!((v.per_stage[1].error_frac + 1.0 / 6.0).abs() < 1e-9);
        // 10 ms measured vs 8 ms simulated → +25%.
        assert!((v.throughput_error_frac - 0.25).abs() < 1e-9);
        assert!((v.measured_samples_per_sec - 16.0 / 10e-3).abs() < 1e-6);
    }

    #[test]
    fn pool_metrics_accumulate_as_counters() {
        let reg = MetricsRegistry::new();
        record_pool_metrics(&reg, 100, 7);
        record_pool_metrics(&reg, 50, 0);
        assert_eq!(reg.counter("tensor_pool_hits_total").get(), 150);
        assert_eq!(reg.counter("tensor_pool_misses_total").get(), 7);
    }

    #[test]
    fn snapshot_metrics_fold_into_registry() {
        let reg = MetricsRegistry::new();
        record_snapshot_metrics(&reg, &sample());
        assert_eq!(reg.counter("trace_events_dropped_total").get(), 2);
        let labels: [(&str, &str); 1] = [("stage", "0")];
        assert!(
            reg.gauge_labeled("pipedream_stage_busy_frac", &labels)
                .get()
                > 0.0
        );
        assert!(
            reg.gauge_labeled("pipedream_stage_comm_frac", &labels)
                .get()
                > 0.0
        );
        assert_eq!(
            reg.histogram_labeled("pipedream_span_seconds", &[("kind", "bwd")])
                .count(),
            5
        );
        let text = reg.render_prometheus();
        assert!(
            text.contains("pipedream_stage_bubble_frac{stage=\"0\"}"),
            "labeled stage gauges in the dump:\n{text}"
        );
    }

    #[test]
    fn snapshot_metrics_emit_labeled_series_only() {
        let reg = MetricsRegistry::new();
        record_snapshot_metrics(&reg, &sample());
        let text = reg.render_prometheus();
        assert!(
            !text.contains("stage0_busy_frac"),
            "flat names gone:\n{text}"
        );
        assert!(!text.contains("span_seconds_bwd"));
        assert!(text.contains("pipedream_stage_busy_frac{stage=\"0\"}"));
        assert!(text.contains("pipedream_span_seconds_bucket{kind=\"bwd\",le="));
    }
}
