//! Runtime observability for the PipeDream reproduction: lock-free
//! per-worker event rings, a process-wide metrics registry, Chrome
//! `trace_event` export, and measured-vs-planned validation.
//!
//! The subsystem is built around two ideas:
//!
//! 1. **Recording must be free when off and cheap when on.** Workers hold
//!    a [`Recorder`] — a clonable handle that is a single branch when
//!    disabled (mirroring the runtime's `FaultHook` seam) and a clock
//!    read plus a lock-free ring push when enabled. Each worker gets its
//!    own fixed-capacity [`EventRing`] that drops the oldest events once
//!    full, so tracing never allocates on the hot path and never stalls
//!    the pipeline.
//! 2. **Measured runs should close the loop with the planner.** The paper
//!    partitions from profiles (§3.1); [`analysis::validate`] diffs what
//!    a traced run actually did against the planner's predicted per-stage
//!    times and the simulator's steady-state throughput, so a bad
//!    partition or an optimistic profile shows up as a number, not a
//!    hunch.
//!
//! A typical run: create a [`TraceSession`], hand each stage worker a
//! recorder from [`TraceSession::stage_recorder`], train, then
//! [`TraceSession::snapshot`] and export with
//! [`chrome::render_chrome_trace`] (open in Perfetto) or fold into the
//! [`MetricsRegistry`] with [`analysis::record_snapshot_metrics`] and dump
//! Prometheus text via [`MetricsRegistry::render_prometheus`].
//!
//! The live layer closes the loop while the run is still going: a
//! [`LiveProfiler`] periodically drains the rings into rolling-window
//! per-stage costs (EWMA + p50/p99), a [`DriftDetector`] compares them
//! hysteretically against planner [`StagePrediction`]s to flag
//! stragglers and bottleneck shifts, and [`advise_replan`] feeds the
//! measured costs back into the partitioner to check whether a different
//! plan would beat the current one (with the simulated-throughput delta).
//!
//! Every number above is a projection of one attribution: the
//! [`critical_path`] fold assigns each nanosecond of each stage track a
//! [`BubbleCause`], and [`stage_times`], [`LiveProfiler`],
//! [`detect_replica_lag`] and [`analyze_trace`] only sum, window or walk
//! it — so what `pipedream analyze` prints is what the control loop acted
//! on.
//!
//! [`StagePrediction`]: pipedream_core::StagePrediction

pub mod advisor;
pub mod analysis;
pub mod chrome;
pub mod critical_path;
pub mod drift;
pub mod event;
pub mod live;
pub mod metrics;
pub mod recorder;
pub mod ring;
pub mod simtrace;

pub use advisor::{advise_replan, measured_layer_costs, ReplanAdvice};
pub use analysis::{
    measured_per_minibatch_s, record_pool_metrics, record_snapshot_metrics, stage_times,
    to_timeline, validate, StageTimes, StageValidation, TraceValidation,
};
pub use chrome::{
    parse_chrome_trace, render_chrome_trace, write_chrome_trace, write_chrome_trace_session,
};
pub use critical_path::{
    analyze_trace, attribute_window, what_if, BubbleCause, CauseBreakdown, CauseGroup,
    CpContribution, CriticalPathReport, StageAttribution, WhatIf,
};
pub use drift::{
    detect_replica_lag, DriftConfig, DriftDetector, DriftReport, ReplicaLag, StageDrift,
};
pub use event::{Event, SpanKind};
pub use live::{
    publish_live_metrics, render_live_dashboard, render_live_status, LiveProfiler, LiveSnapshot,
    StageWindowStats,
};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use recorder::{Recorder, SpanStart, TraceSession, TraceSnapshot, TrackEvents};
pub use ring::EventRing;
pub use simtrace::sim_to_snapshot;
