//! Tracing must be cheap enough to leave on: an instrumented run may cost
//! at most ~5% wall-clock over an uninstrumented one (plus a small
//! absolute slack to absorb scheduler noise on loaded CI machines).

use pipedream_core::PipelineConfig;
use pipedream_runtime::trainer::train_pipeline;
use pipedream_runtime::{LrSchedule, OptimKind, Semantics, TrainOpts};
use pipedream_tensor::data::blobs;
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Linear, Tanh};
use pipedream_tensor::Sequential;

fn mlp(seed: u64) -> Sequential {
    let mut r = rng(seed);
    Sequential::new("mlp")
        .push(Linear::new(8, 48, &mut r))
        .push(Tanh::new())
        .push(Linear::new(48, 48, &mut r))
        .push(Tanh::new())
        .push(Linear::new(48, 48, &mut r))
        .push(Tanh::new())
        .push(Linear::new(48, 48, &mut r))
        .push(Linear::new(48, 4, &mut r))
}

fn wall_time(session: Option<std::sync::Arc<pipedream_obs::TraceSession>>) -> f64 {
    let data = blobs(512, 8, 4, 0.6, 7);
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let opts = TrainOpts {
        epochs: 3,
        batch: 16,
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
        },
        semantics: Semantics::Stashed,
        lr_schedule: LrSchedule::Constant,
        checkpoint_dir: None,
        checkpoint_every: None,
        resume: false,
        depth: None,
        obs: session,
        ..TrainOpts::default()
    };
    let (_, report) = train_pipeline(mlp(3), &config, &data, &opts);
    report.wall_time_s
}

#[test]
fn tracing_overhead_under_five_percent() {
    // Min-of-3 on each side filters out one-off scheduler hiccups; the
    // absolute slack term dominates at these tiny wall times, so the 5%
    // multiplier is what matters as runs get longer.
    let disabled = (0..3)
        .map(|_| wall_time(None))
        .fold(f64::INFINITY, f64::min);
    let enabled = (0..3)
        .map(|_| wall_time(Some(pipedream_obs::TraceSession::new())))
        .fold(f64::INFINITY, f64::min);
    assert!(
        enabled <= disabled * 1.05 + 0.12,
        "tracing overhead too high: enabled {enabled:.3}s vs disabled {disabled:.3}s"
    );
}

/// Wall time of an instrumented run with a concurrent `--watch`-style
/// sampler draining the rings every few milliseconds.
fn wall_time_watched() -> f64 {
    let session = pipedream_obs::TraceSession::new();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let watcher = {
        let session = session.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut profiler = pipedream_obs::LiveProfiler::new(session);
            let mut samples = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                profiler.sample();
                samples += 1;
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            (samples, profiler.sample())
        })
    };
    let wall = wall_time(Some(session));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let (samples, last) = watcher.join().expect("watcher thread");
    // The watcher must have actually been sampling the run, not idling.
    assert!(samples > 0, "watcher never sampled");
    assert!(
        last.minibatches_total > 0,
        "watcher saw no minibatches across the whole run"
    );
    wall
}

#[test]
fn watch_snapshots_keep_overhead_under_five_percent() {
    // The live profiler drains full ring snapshots concurrently with the
    // hot path; the seqlock rings make that read-side work invisible to
    // the workers, so the same <5% bound must hold with --watch on.
    let disabled = (0..3)
        .map(|_| wall_time(None))
        .fold(f64::INFINITY, f64::min);
    let watched = (0..3)
        .map(|_| wall_time_watched())
        .fold(f64::INFINITY, f64::min);
    assert!(
        watched <= disabled * 1.05 + 0.12,
        "watch-mode overhead too high: watched {watched:.3}s vs disabled {disabled:.3}s"
    );
}

/// The trainer folds the buffer pool's hit/miss delta into the metrics
/// registry, so a healthy run's Prometheus dump carries nonzero
/// `tensor_pool_hits_total` (reuse happening) alongside a bounded
/// `tensor_pool_misses_total` (warm-up allocations only).
#[test]
fn pool_counters_land_in_metrics_registry() {
    let session = pipedream_obs::TraceSession::new();
    wall_time(Some(session.clone()));
    let metrics = session.metrics();
    let hits = metrics.counter("tensor_pool_hits_total").get();
    let misses = metrics.counter("tensor_pool_misses_total").get();
    assert!(hits > 0, "training never reused a pooled buffer");
    assert!(
        hits > misses,
        "pool mostly missing: {hits} hits vs {misses} misses"
    );
    let dump = metrics.render_prometheus();
    assert!(
        dump.contains("tensor_pool_hits_total") && dump.contains("tensor_pool_misses_total"),
        "pool counters missing from Prometheus dump:\n{dump}"
    );
}

#[test]
fn session_captures_without_perturbing_results() {
    // The instrumented run must be numerically identical to the bare one —
    // recording is pure observation.
    let data = blobs(256, 8, 4, 0.6, 7);
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let mk = |obs| TrainOpts {
        epochs: 2,
        batch: 16,
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
        },
        semantics: Semantics::Stashed,
        lr_schedule: LrSchedule::Constant,
        checkpoint_dir: None,
        checkpoint_every: None,
        resume: false,
        depth: None,
        obs,
        ..TrainOpts::default()
    };
    let session = pipedream_obs::TraceSession::new();
    let (_, bare) = train_pipeline(mlp(11), &config, &data, &mk(None));
    let (_, traced) = train_pipeline(mlp(11), &config, &data, &mk(Some(session.clone())));
    for (a, b) in bare.per_epoch.iter().zip(traced.per_epoch.iter()) {
        assert_eq!(a.loss, b.loss, "epoch {}", a.epoch);
    }
    // And the session actually saw the run: every worker track has
    // forward and backward spans.
    let snap = session.snapshot();
    assert_eq!(snap.tracks.len(), 4);
    for t in &snap.tracks {
        assert!(
            t.events
                .iter()
                .any(|e| matches!(e.kind, pipedream_obs::SpanKind::Fwd { .. })),
            "track {} has no forward spans",
            t.name
        );
        assert!(
            t.events
                .iter()
                .any(|e| matches!(e.kind, pipedream_obs::SpanKind::Bwd { .. })),
            "track {} has no backward spans",
            t.name
        );
        assert_eq!(t.dropped, 0, "ring overflowed on track {}", t.name);
    }
}
