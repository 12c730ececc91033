//! The buffer pool's promise for recurrent stages: a GRU or LSTM stage
//! that drops its step caches after every forward and rebuilds them before
//! the backward (activation recomputation) hands those caches back to the
//! pool, so in steady state it misses the pool less than once per
//! minibatch. The miss counter is process-wide, as in
//! `steady_state_pool.rs`: hence one `#[test]` in this file.

use pipedream_core::stash::ScheduleKind;
use pipedream_core::PipelineConfig;
use pipedream_runtime::trainer::train_pipeline;
use pipedream_runtime::TrainOpts;
use pipedream_tensor::data::{blobs, Dataset};
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Gru, Linear, Lstm, Reshape, SeqLast};
use pipedream_tensor::{pool, Layer, Sequential};

/// Samples of 8 features read as 2 steps of 4; stage 0 is the reshape and
/// the recurrent layer, stage 1 the last step's classifier.
fn model(recurrent: Box<dyn Layer>) -> Sequential {
    let mut m = Sequential::new("rnn").push(Reshape::new(&[2, 4]));
    m.push_boxed(recurrent);
    m.push(SeqLast::new()).push(Linear::new(8, 4, &mut rng(5)))
}

/// 16 minibatches of 16 samples per epoch.
fn data() -> Dataset {
    blobs(256, 8, 4, 0.6, 7)
}

/// Pool misses of one whole `train_pipeline` call over `epochs` epochs.
fn misses(recurrent: &dyn Layer, epochs: usize) -> u64 {
    let opts = TrainOpts {
        epochs,
        schedule: ScheduleKind::Recompute,
        ..TrainOpts::default()
    };
    let config = PipelineConfig::straight(4, &[1]);
    let before = pool::global_stats().misses;
    train_pipeline(model(recurrent.clone_box()), &config, &data(), &opts);
    pool::global_stats().misses - before
}

#[test]
fn a_recomputing_recurrent_stage_recycles_its_step_caches() {
    let cases: [(&str, Box<dyn Layer>); 2] = [
        ("GRU", Box::new(Gru::new(4, 8, &mut rng(3)))),
        ("LSTM", Box::new(Lstm::new(4, 8, &mut rng(3)))),
    ];
    for (name, recurrent) in &cases {
        // 32 minibatches, then 64: the second 32 may miss fewer than 32
        // times.
        let (n, two_n) = (misses(recurrent.as_ref(), 2), misses(recurrent.as_ref(), 4));
        assert!(n > 0, "{name}: warm-up allocates, or nothing is counted");
        assert!(
            two_n.saturating_sub(n) < 32,
            "{name}: minibatches 32..64 missed the pool {} time(s)",
            two_n as i64 - n as i64
        );
    }
}
