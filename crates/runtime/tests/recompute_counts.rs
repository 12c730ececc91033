//! Recomputation runs exactly where a stage dropped activations — counted
//! in trace spans, not timed. A forward whose backward is the worker's next
//! op keeps its caches (`pipedream_core::schedule::keeps_activations`):
//! under 1F1B that is every minibatch of the output stage, under a depth-1
//! schedule every minibatch of every stage, and on a one-stage
//! (data-parallel) configuration every minibatch of every replica.

use pipedream_core::stash::ScheduleKind;
use pipedream_core::PipelineConfig;
use pipedream_obs::{SpanKind, TraceSession};
use pipedream_runtime::trainer::train_pipeline;
use pipedream_runtime::{TrainOpts, TrainReport};
use pipedream_tensor::data::blobs;
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Linear, Relu, Scale, Tanh};
use pipedream_tensor::Sequential;

fn mlp(seed: u64) -> Sequential {
    let mut r = rng(seed);
    Sequential::new("mlp8")
        .push(Linear::new(8, 32, &mut r))
        .push(Tanh::new())
        .push(Linear::new(32, 32, &mut r))
        .push(Relu::new())
        .push(Linear::new(32, 32, &mut r))
        .push(Tanh::new())
        .push(Scale::new(32))
        .push(Linear::new(32, 4, &mut r))
}

/// One epoch of 16 minibatches of 16 samples.
const N: usize = 16;

fn opts(schedule: ScheduleKind) -> TrainOpts {
    TrainOpts {
        epochs: 1,
        batch: 16,
        schedule,
        ..TrainOpts::default()
    }
}

/// Train traced; returns the report and the `Recompute` spans per stage.
fn recompute_spans(config: &PipelineConfig, opts: TrainOpts) -> (TrainReport, Vec<usize>) {
    let session = TraceSession::new();
    let opts = TrainOpts {
        obs: Some(session.clone()),
        ..opts
    };
    let (_, report) = train_pipeline(mlp(3), config, &blobs(256, 8, 4, 0.6, 7), &opts);
    let mut spans = vec![0; config.num_stages()];
    for track in session.snapshot().tracks {
        if let Some(stage) = track.stage {
            spans[stage] += track
                .events
                .iter()
                .filter(|e| matches!(e.kind, SpanKind::Recompute { .. }))
                .count();
        }
    }
    (report, spans)
}

#[test]
fn one_f_one_b_recomputes_everywhere_but_on_the_output_stage() {
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let (report, spans) = recompute_spans(&config, opts(ScheduleKind::Recompute));
    assert_eq!(spans, vec![N, N, N, 0]);
    assert_eq!(spans.iter().sum::<usize>(), (config.num_stages() - 1) * N);
    let output = report.stage_obs.iter().find(|o| o.stage == 3).unwrap();
    assert_eq!(output.recompute_us, 0, "the output stage never recomputes");
}

#[test]
fn a_depth_one_schedule_never_recomputes() {
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let depth_one = TrainOpts {
        depth: Some(1),
        ..opts(ScheduleKind::Recompute)
    };
    let (report, spans) = recompute_spans(&config, depth_one);
    assert_eq!(spans, vec![0; 4]);
    assert_eq!(report.per_minibatch.len(), N);
}

#[test]
fn data_parallel_never_recomputes_and_trains_like_two_bw() {
    let config = PipelineConfig::data_parallel(8, 2);
    let (recompute, spans) = recompute_spans(&config, opts(ScheduleKind::TwoBWRecompute));
    assert_eq!(spans, vec![0]);
    let (two_bw, _) = recompute_spans(&config, opts(ScheduleKind::TwoBW));
    let bits = |r: &TrainReport| -> Vec<(u64, u32)> {
        r.per_minibatch
            .iter()
            .map(|&(mb, loss)| (mb, loss.to_bits()))
            .collect()
    };
    assert_eq!(recompute.per_minibatch.len(), N);
    assert_eq!(bits(&recompute), bits(&two_bw));
}
