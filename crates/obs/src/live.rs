//! Continuous re-profiling: a [`LiveProfiler`] periodically drains the
//! per-worker event rings into rolling-window per-stage measured costs
//! (EWMA + p50/p99) and publishes them through the [`MetricsRegistry`],
//! closing the gap between the paper's one-shot offline profile (§3.1)
//! and what the pipeline is doing *right now*.
//!
//! Each [`LiveProfiler::sample`] call snapshots the session and runs the
//! [`crate::critical_path`] fold over the window since the previous
//! sample — the same attribution `pipedream analyze` prints, clipped to
//! `[last_sample, now)` — then rolls the per-stage result into the EWMA,
//! percentile and stash-depth state it keeps across windows. Offline it
//! is the same projection: [`LiveProfiler::replay`] folds a parsed
//! snapshot as one whole-trace window, which is what `pipedream inspect
//! --from-trace` uses.

use crate::analysis::to_timeline;
use crate::critical_path::fold;
use crate::metrics::MetricsRegistry;
use crate::recorder::{TraceSession, TraceSnapshot, TrackEvents};
use pipedream_sim::render_timeline;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// Per-mb compute samples kept per stage for the rolling percentiles.
const PERCENTILE_WINDOW: usize = 512;

/// Default EWMA smoothing factor: ~63% of the weight in the last 10
/// samples.
const DEFAULT_ALPHA: f64 = 0.1;

/// Rolling-window statistics for one pipeline stage at one sample point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StageWindowStats {
    /// Pipeline stage index.
    pub stage: usize,
    /// Replica tracks contributing.
    pub tracks: usize,
    /// Minibatches (backward completions) finished inside the window.
    pub minibatches: u64,
    /// Mean per-minibatch service time over this window — compute plus
    /// whatever else only this stage can absorb (send stalls, recompute,
    /// optimizer step; waits on peers excluded) — 0 when the window saw no
    /// completed minibatch.
    pub compute_per_mb_s: f64,
    /// Exponentially weighted moving average of `compute_per_mb_s`
    /// across sample windows.
    pub ewma_compute_per_mb_s: f64,
    /// Median per-minibatch service time over the recent-sample buffer.
    pub p50_compute_s: f64,
    /// 99th-percentile per-minibatch service time over the buffer.
    pub p99_compute_s: f64,
    /// Fraction of window wall time spent computing.
    pub busy_frac: f64,
    /// Fraction spent blocked on sends/receives/gradient sync.
    pub comm_frac: f64,
    /// The rest of the window: fill/drain, idle, checkpoints, injections.
    pub bubble_frac: f64,
    /// Gradient-sync time inside the window (summed over replicas).
    pub sync_s: f64,
    /// Current stash depth: cumulative stash pushes minus pops.
    pub stash_depth: i64,
}

/// One live sample: per-stage window stats plus run-level aggregates.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LiveSnapshot {
    /// Session-relative time of this sample, seconds.
    pub t_s: f64,
    /// Window length (time since the previous sample), seconds.
    pub window_s: f64,
    /// Per-stage rolling statistics.
    pub stages: Vec<StageWindowStats>,
    /// Stage-0 backward completions inside this window.
    pub window_minibatches: u64,
    /// Cumulative stage-0 backward completions seen across all samples.
    pub minibatches_total: u64,
    /// Window throughput in minibatches/second.
    pub throughput_mb_per_s: f64,
    /// Cumulative events lost to ring overflow (reported, never hidden).
    pub events_dropped: u64,
}

impl LiveSnapshot {
    /// Stage index with the largest EWMA per-minibatch compute time —
    /// the *measured* bottleneck (None before any minibatch completes).
    pub fn bottleneck_stage(&self) -> Option<usize> {
        self.stages
            .iter()
            .filter(|s| s.ewma_compute_per_mb_s > 0.0)
            .max_by(|a, b| {
                a.ewma_compute_per_mb_s
                    .partial_cmp(&b.ewma_compute_per_mb_s)
                    .unwrap()
            })
            .map(|s| s.stage)
    }

    /// Measured per-stage per-minibatch times (EWMA), indexed by stage.
    /// Stages that have not completed a minibatch yet report 0.
    pub fn measured_stage_s(&self) -> Vec<f64> {
        self.stages
            .iter()
            .map(|s| s.ewma_compute_per_mb_s)
            .collect()
    }
}

/// Per-stage accumulator state carried across sample windows.
#[derive(Default)]
struct StageState {
    ewma_compute_per_mb_s: f64,
    recent_compute_s: VecDeque<f64>,
    stash_depth: i64,
}

/// Everything the profiler remembers between windows.
struct Rolling {
    alpha: f64,
    minibatches_total: u64,
    stages: Vec<StageState>,
}

/// Periodically drains a [`TraceSession`]'s rings into rolling-window
/// per-stage measured costs.
pub struct LiveProfiler {
    session: Arc<TraceSession>,
    last_ns: u64,
    publish: bool,
    rolling: Rolling,
}

impl LiveProfiler {
    /// Profiler over `session`, publishing each sample's gauges into the
    /// session's metrics registry.
    pub fn new(session: Arc<TraceSession>) -> Self {
        LiveProfiler {
            session,
            last_ns: 0,
            publish: true,
            rolling: Rolling::new(DEFAULT_ALPHA),
        }
    }

    /// Override the EWMA smoothing factor (0 < alpha <= 1; larger tracks
    /// the latest window more aggressively).
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.rolling.alpha = alpha.clamp(1e-6, 1.0);
        self
    }

    /// Disable publishing to the metrics registry (pure aggregation).
    pub fn without_publish(mut self) -> Self {
        self.publish = false;
        self
    }

    /// Drain everything that finished since the last call into a fresh
    /// [`LiveSnapshot`] and publish its gauges.
    pub fn sample(&mut self) -> LiveSnapshot {
        let now_ns = self.session.elapsed_ns();
        let snap = self.session.snapshot();
        let live = self.fold_window(&snap, self.last_ns, now_ns);
        self.last_ns = now_ns;
        if self.publish {
            publish_live_metrics(self.session.metrics(), &live);
        }
        live
    }

    /// Fold an already-captured snapshot as a single window spanning the
    /// whole trace (so the EWMA equals the window mean). This is the
    /// offline entry point: `inspect --from-trace` parses a Chrome trace
    /// back into a [`TraceSnapshot`] and replays it here.
    pub fn replay(snap: &TraceSnapshot) -> LiveSnapshot {
        Rolling::new(1.0).fold_window(snap, 0, None)
    }

    /// Fold the half-open window `[from_ns, to_ns)` into the rolling state.
    fn fold_window(&mut self, snap: &TraceSnapshot, from_ns: u64, to_ns: u64) -> LiveSnapshot {
        self.rolling.fold_window(snap, from_ns, Some(to_ns))
    }
}

impl Rolling {
    fn new(alpha: f64) -> Self {
        Rolling {
            alpha,
            minibatches_total: 0,
            stages: Vec::new(),
        }
    }

    /// Project one window of the attribution fold onto per-stage window
    /// statistics, updating the rolling state.
    fn fold_window(
        &mut self,
        snap: &TraceSnapshot,
        from_ns: u64,
        to_ns: Option<u64>,
    ) -> LiveSnapshot {
        let window = fold(snap, from_ns, to_ns);
        let per_stage = window.per_stage();
        if self.stages.len() < per_stage.len() {
            self.stages
                .resize_with(per_stage.len(), StageState::default);
        }
        let window_s = window.window_ns as f64 * 1e-9;
        let window_minibatches = per_stage.first().map_or(0, |w| w.minibatches);
        self.minibatches_total += window_minibatches;

        let mut stages = Vec::with_capacity(per_stage.len());
        for (stage, w) in per_stage.iter().enumerate() {
            let state = &mut self.stages[stage];
            state.stash_depth += w.stash_delta;
            let samples = w.mb_service_ns.iter().map(|&ns| ns as f64 * 1e-9);
            state.recent_compute_s.extend(samples);
            let stale = state
                .recent_compute_s
                .len()
                .saturating_sub(PERCENTILE_WINDOW);
            state.recent_compute_s.drain(..stale);
            let breakdown = w.breakdown();
            let compute_per_mb_s = breakdown.service_per_mb_s(w.minibatches);
            if w.minibatches > 0 {
                state.ewma_compute_per_mb_s = if state.ewma_compute_per_mb_s == 0.0 {
                    compute_per_mb_s
                } else {
                    self.alpha * compute_per_mb_s + (1.0 - self.alpha) * state.ewma_compute_per_mb_s
                };
            }
            let (p50, p99) = percentiles(&state.recent_compute_s);
            let [busy_frac, comm_frac, bubble_frac] = w.fracs(window.window_ns);
            stages.push(StageWindowStats {
                stage,
                tracks: w.tracks,
                minibatches: w.minibatches,
                compute_per_mb_s,
                ewma_compute_per_mb_s: state.ewma_compute_per_mb_s,
                p50_compute_s: p50,
                p99_compute_s: p99,
                busy_frac,
                comm_frac,
                bubble_frac,
                sync_s: breakdown.sync_s(),
                stash_depth: state.stash_depth,
            });
        }

        LiveSnapshot {
            t_s: window.to_ns as f64 * 1e-9,
            window_s,
            stages,
            window_minibatches,
            minibatches_total: self.minibatches_total,
            throughput_mb_per_s: if window_s > 0.0 {
                window_minibatches as f64 / window_s
            } else {
                0.0
            },
            events_dropped: snap.tracks.iter().map(|t| t.dropped).sum(),
        }
    }
}

/// (p50, p99) of the sample buffer, 0 when empty.
fn percentiles(samples: &VecDeque<f64>) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let mut sorted: Vec<f64> = samples.iter().copied().collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
    (at(0.50), at(0.99))
}

/// Publish one live sample as labeled gauges/counters.
pub fn publish_live_metrics(metrics: &MetricsRegistry, live: &LiveSnapshot) {
    for s in &live.stages {
        let stage = s.stage.to_string();
        let labels: [(&str, &str); 1] = [("stage", stage.as_str())];
        for (name, value) in [
            ("compute_per_mb_seconds", s.ewma_compute_per_mb_s),
            ("p50_seconds", s.p50_compute_s),
            ("p99_seconds", s.p99_compute_s),
            ("busy_frac", s.busy_frac),
            ("comm_frac", s.comm_frac),
            ("bubble_frac", s.bubble_frac),
            ("stash_depth", s.stash_depth as f64),
        ] {
            let gauge = metrics.gauge_labeled(&format!("pipedream_live_{name}"), &labels);
            gauge.set(value);
        }
    }
    metrics
        .gauge("pipedream_live_throughput_mb_per_sec")
        .set(live.throughput_mb_per_s);
    metrics
        .gauge("pipedream_live_minibatches_total")
        .set(live.minibatches_total as f64);
    metrics.counter("pipedream_live_samples_total").inc();
}

/// One status line for `train --watch`:
/// time, progress (with ETA when the target is known), window throughput,
/// per-stage busy%, and the measured bottleneck stage.
pub fn render_live_status(live: &LiveSnapshot, total_mbs: Option<u64>) -> String {
    let mut out = format!("[{:7.1}s]", live.t_s);
    match total_mbs {
        Some(total) if total > 0 => {
            let done = live.minibatches_total.min(total);
            out.push_str(&format!(
                " mb {done}/{total} ({:3.0}%)",
                done as f64 / total as f64 * 100.0
            ));
            let rate = live.throughput_mb_per_s;
            if rate > 0.0 && done < total {
                out.push_str(&format!(" eta {:.0}s", (total - done) as f64 / rate));
            }
        }
        _ => out.push_str(&format!(" mb {}", live.minibatches_total)),
    }
    out.push_str(&format!(" | {:6.1} mb/s | busy%", live.throughput_mb_per_s));
    for s in &live.stages {
        out.push_str(&format!(" {:3.0}", s.busy_frac * 100.0));
    }
    if let Some(b) = live.bottleneck_stage() {
        out.push_str(&format!(" | bottleneck s{b}"));
    }
    if live.events_dropped > 0 {
        out.push_str(&format!(" | dropped {}", live.events_dropped));
    }
    out
}

/// Multi-line dashboard for `pipedream top`: a per-stage table (EWMA,
/// p50/p99, busy/comm/bubble, stash depth) above an ASCII timeline of the
/// most recent `window_s` seconds, re-rendered through the simulator's
/// timeline renderer.
pub fn render_live_dashboard(
    live: &LiveSnapshot,
    snap: &TraceSnapshot,
    window_s: f64,
    cols: usize,
) -> String {
    let mut out = format!(
        "t={:.1}s  mb={}  {:.1} mb/s  dropped={}\n",
        live.t_s, live.minibatches_total, live.throughput_mb_per_s, live.events_dropped
    );
    out.push_str("stage  ewma/mb   p50       p99       busy%  comm%  bubble%  stash  mbs\n");
    for s in &live.stages {
        out.push_str(&format!(
            "{:>5}  {:8.2e}  {:8.2e}  {:8.2e}  {:5.1}  {:5.1}  {:7.1}  {:>5}  {}\n",
            s.stage,
            s.ewma_compute_per_mb_s,
            s.p50_compute_s,
            s.p99_compute_s,
            s.busy_frac * 100.0,
            s.comm_frac * 100.0,
            s.bubble_frac * 100.0,
            s.stash_depth,
            s.minibatches,
        ));
    }
    let tl = to_timeline(&tail_window(snap, window_s));
    let rendered = render_timeline(&tl, cols);
    if !rendered.is_empty() {
        out.push_str(&format!("last {window_s:.1}s:\n"));
        out.push_str(&rendered);
    }
    out
}

/// Restrict a snapshot to spans ending in the last `window_s` seconds and
/// rebase times so the window starts at 0 (the ASCII renderer scales from
/// zero to makespan).
fn tail_window(snap: &TraceSnapshot, window_s: f64) -> TraceSnapshot {
    let from_ns = snap
        .wall_ns()
        .saturating_sub((window_s.max(0.0) * 1e9) as u64);
    TraceSnapshot {
        tracks: snap
            .tracks
            .iter()
            .map(|t| TrackEvents {
                name: t.name.clone(),
                stage: t.stage,
                dropped: t.dropped,
                events: t
                    .events
                    .iter()
                    .filter(|e| e.end_ns > from_ns)
                    .map(|e| crate::event::Event {
                        kind: e.kind,
                        start_ns: e.start_ns.max(from_ns) - from_ns,
                        end_ns: e.end_ns - from_ns,
                        epoch: e.epoch,
                    })
                    .collect(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, SpanKind};

    const MS: u64 = 1_000_000;

    fn span(kind: SpanKind, start_ms: u64, end_ms: u64) -> Event {
        Event::span(kind, start_ms * MS, end_ms * MS)
    }

    /// Stage 0 completes a minibatch every 10 ms: fwd 3 ms (1 ms nested
    /// wait) + bwd 4 ms, for `n` minibatches starting at t=0.
    fn steady_track(n: u64) -> TrackEvents {
        let mut ev = Vec::new();
        for mb in 0..n {
            let t = mb * 10;
            ev.push(span(SpanKind::Fwd { mb }, t, t + 3));
            ev.push(span(SpanKind::RecvWait { mb }, t + 1, t + 2));
            ev.push(span(SpanKind::Bwd { mb }, t + 4, t + 8));
            ev.push(span(SpanKind::StashPush { mb }, t, t));
            ev.push(span(SpanKind::StashPop { mb }, t + 4, t + 4));
        }
        TrackEvents {
            name: "stage0.replica0".into(),
            stage: Some(0),
            events: ev,
            dropped: 0,
        }
    }

    fn snap_of(tracks: Vec<TrackEvents>) -> TraceSnapshot {
        TraceSnapshot { tracks }
    }

    #[test]
    fn replay_aggregates_whole_trace() {
        let live = LiveProfiler::replay(&snap_of(vec![steady_track(4)]));
        assert_eq!(live.stages.len(), 1);
        let s = &live.stages[0];
        assert_eq!(s.minibatches, 4);
        // Per-mb compute: 3 + 4 − 1 = 6 ms.
        assert!(
            (s.compute_per_mb_s - 6e-3).abs() < 1e-9,
            "{}",
            s.compute_per_mb_s
        );
        assert!((s.ewma_compute_per_mb_s - 6e-3).abs() < 1e-9);
        assert!((s.p50_compute_s - 6e-3).abs() < 1e-9);
        assert_eq!(live.minibatches_total, 4);
        assert_eq!(s.stash_depth, 0);
        assert!((s.busy_frac + s.comm_frac + s.bubble_frac - 1.0).abs() < 1e-12);
    }

    #[test]
    fn windows_partition_by_completion_time() {
        let snap = snap_of(vec![steady_track(4)]);
        let mut p = LiveProfiler::new(TraceSession::new()).without_publish();
        // First window: [0, 20 ms] sees mbs 0 and 1.
        let w1 = p.fold_window(&snap, 0, 20 * MS);
        assert_eq!(w1.window_minibatches, 2);
        assert_eq!(w1.minibatches_total, 2);
        // Second window: (20, 40 ms] sees mbs 2 and 3, nothing recounted.
        let w2 = p.fold_window(&snap, 20 * MS, 40 * MS);
        assert_eq!(w2.window_minibatches, 2);
        assert_eq!(w2.minibatches_total, 4);
        assert!((w2.throughput_mb_per_s - 100.0).abs() < 1e-6);
    }

    /// A forward that straddles the sample point is split at it: each
    /// window is tiled exactly, so nothing needs clamping into range.
    #[test]
    fn straddling_span_is_clipped_to_each_window() {
        let snap = snap_of(vec![TrackEvents {
            name: "stage0.replica0".into(),
            stage: Some(0),
            events: vec![
                span(SpanKind::Fwd { mb: 0 }, 5, 25),
                span(SpanKind::RecvWait { mb: 0 }, 6, 18),
                span(SpanKind::Bwd { mb: 0 }, 25, 30),
            ],
            dropped: 0,
        }]);
        let mut p = LiveProfiler::new(TraceSession::new()).without_publish();
        // [0, 20): 5 ms fill, 1 + 2 ms of the forward's compute around its
        // 12 ms wait.
        let w1 = p.fold_window(&snap, 0, 20 * MS).stages[0];
        assert!((w1.busy_frac - 0.15).abs() < 1e-12, "{}", w1.busy_frac);
        assert!((w1.comm_frac - 0.6).abs() < 1e-12, "{}", w1.comm_frac);
        assert!((w1.bubble_frac - 0.25).abs() < 1e-12, "{}", w1.bubble_frac);
        assert_eq!(w1.minibatches, 0);
        // [20, 40): the forward's last 5 ms, the backward, 10 ms drain.
        let w2 = p.fold_window(&snap, 20 * MS, 40 * MS).stages[0];
        assert!((w2.busy_frac - 0.5).abs() < 1e-12, "{}", w2.busy_frac);
        assert_eq!(w2.comm_frac, 0.0);
        assert_eq!(w2.minibatches, 1);
        // The percentile sample is the whole minibatch (8 + 5 ms), the
        // window mean only what ran inside the window.
        assert!((w2.p50_compute_s - 13e-3).abs() < 1e-9);
        assert!((w2.compute_per_mb_s - 10e-3).abs() < 1e-9);
    }

    #[test]
    fn ewma_tracks_a_slowdown() {
        // 4 fast minibatches (6 ms compute), then 4 slow ones (16 ms:
        // fwd stretched by a 10 ms injected delay).
        let mut ev = steady_track(4).events;
        for mb in 4..8u64 {
            let t = 40 + (mb - 4) * 20;
            ev.push(span(SpanKind::Fwd { mb }, t, t + 13));
            ev.push(span(SpanKind::RecvWait { mb }, t + 1, t + 2));
            ev.push(span(SpanKind::Bwd { mb }, t + 14, t + 18));
        }
        let snap = snap_of(vec![TrackEvents {
            name: "stage0.replica0".into(),
            stage: Some(0),
            events: ev,
            dropped: 0,
        }]);
        let mut p = LiveProfiler::new(TraceSession::new())
            .with_alpha(0.5)
            .without_publish();
        let fast = p.fold_window(&snap, 0, 40 * MS);
        assert!((fast.stages[0].ewma_compute_per_mb_s - 6e-3).abs() < 1e-9);
        let slow = p.fold_window(&snap, 40 * MS, 120 * MS);
        // Window mean jumps to 16 ms; EWMA(0.5) lands halfway.
        assert!((slow.stages[0].compute_per_mb_s - 16e-3).abs() < 1e-9);
        assert!((slow.stages[0].ewma_compute_per_mb_s - 11e-3).abs() < 1e-9);
        // p99 over the full buffer sees the slow tail.
        assert!((slow.stages[0].p99_compute_s - 16e-3).abs() < 1e-9);
        assert_eq!(slow.bottleneck_stage(), Some(0));
    }

    #[test]
    fn empty_window_keeps_ewma_and_reports_zero_rate() {
        let snap = snap_of(vec![steady_track(2)]);
        let mut p = LiveProfiler::new(TraceSession::new()).without_publish();
        p.fold_window(&snap, 0, 20 * MS);
        let idle = p.fold_window(&snap, 20 * MS, 30 * MS);
        assert_eq!(idle.window_minibatches, 0);
        assert_eq!(idle.throughput_mb_per_s, 0.0);
        // EWMA holds its last estimate rather than decaying to 0.
        assert!((idle.stages[0].ewma_compute_per_mb_s - 6e-3).abs() < 1e-9);
        assert_eq!(idle.minibatches_total, 2);
    }

    #[test]
    fn live_sample_publishes_labeled_gauges() {
        let session = TraceSession::new();
        let rec = session.stage_recorder("stage0.replica0", 0);
        let start = rec.begin();
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.end(start, SpanKind::Bwd { mb: 0 });
        let mut p = LiveProfiler::new(session.clone());
        let live = p.sample();
        assert_eq!(live.minibatches_total, 1);
        let text = session.metrics().render_prometheus();
        assert!(
            text.contains("pipedream_live_compute_per_mb_seconds{stage=\"0\"}"),
            "labeled live gauges missing:\n{text}"
        );
        assert!(text.contains("pipedream_live_throughput_mb_per_sec"));
        assert_eq!(
            session
                .metrics()
                .counter("pipedream_live_samples_total")
                .get(),
            1
        );
    }

    #[test]
    fn status_line_reports_progress_and_eta() {
        let mut live = LiveProfiler::replay(&snap_of(vec![steady_track(4)]));
        live.throughput_mb_per_s = 2.0;
        let line = render_live_status(&live, Some(8));
        assert!(line.contains("mb 4/8"), "{line}");
        assert!(line.contains("eta 2s"), "{line}");
        assert!(line.contains("bottleneck s0"), "{line}");
        let open_ended = render_live_status(&live, None);
        assert!(open_ended.contains("mb 4"), "{open_ended}");
    }

    #[test]
    fn dashboard_renders_table_and_recent_timeline() {
        let snap = snap_of(vec![steady_track(4)]);
        let live = LiveProfiler::replay(&snap);
        let dash = render_live_dashboard(&live, &snap, 0.02, 40);
        assert!(dash.contains("stage  ewma/mb"), "{dash}");
        assert!(
            dash.contains("last 0.0s:") || dash.contains("last"),
            "{dash}"
        );
        // The timeline section rendered at least one worker lane.
        assert!(dash.lines().count() > 3, "{dash}");
    }
}
