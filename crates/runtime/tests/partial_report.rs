//! The worker log's promise, held from outside the crate: what a worker
//! computed before the pipeline collapsed is in the partial report,
//! although it never sent any of it to the coordinator.

use pipedream_core::schedule::Op;
use pipedream_core::PipelineConfig;
use pipedream_runtime::fault::{FaultAction, FaultHook, WorkerError};
use pipedream_runtime::trainer::{train_pipeline, try_train_pipeline};
use pipedream_runtime::{TrainOpts, VersionRecord};
use pipedream_tensor::data::{blobs, Dataset};
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Linear, Relu, Scale, Tanh};
use pipedream_tensor::Sequential;
use std::sync::{Arc, Mutex};

fn mlp(seed: u64) -> Sequential {
    let mut r = rng(seed);
    Sequential::new("log-mlp")
        .push(Linear::new(8, 32, &mut r))
        .push(Tanh::new())
        .push(Linear::new(32, 32, &mut r))
        .push(Relu::new())
        .push(Linear::new(32, 32, &mut r))
        .push(Tanh::new())
        .push(Scale::new(32))
        .push(Linear::new(32, 4, &mut r))
}

/// 16 minibatches of 16 samples per epoch.
fn data() -> Dataset {
    blobs(256, 8, 4, 0.6, 7)
}

/// Lets every op through but one, and remembers what it let through.
struct KillAndWatch {
    stage: usize,
    mb: u64,
    seen: Mutex<Vec<(usize, Op)>>,
}

impl FaultHook for KillAndWatch {
    fn before_op(&self, stage: usize, _replica: usize, op: &Op) -> FaultAction {
        if stage == self.stage && *op == (Op::Forward { mb: self.mb }) {
            return FaultAction::Kill;
        }
        self.seen.lock().unwrap().push((stage, *op));
        FaultAction::Continue
    }
}

#[test]
fn a_killed_run_reports_every_loss_computed_and_every_forward_begun() {
    let config = PipelineConfig::straight(8, &[3]);
    let opts = TrainOpts {
        epochs: 2,
        batch: 16,
        ..TrainOpts::default()
    };
    let (_, clean) = train_pipeline(mlp(3), &config, &data(), &opts);

    // The output stage dies on reaching minibatch k's forward.
    let k = 21u64;
    let watch = Arc::new(KillAndWatch {
        stage: 1,
        mb: k,
        seen: Mutex::new(Vec::new()),
    });
    let hook: Arc<dyn FaultHook> = watch.clone();
    let Err(err) = try_train_pipeline(mlp(3), &config, &data(), &opts, Some(hook)) else {
        panic!("a killed run fails");
    };
    assert!(matches!(
        err.errors[0],
        WorkerError::Killed { stage: 1, mb, .. } if mb == k
    ));

    // Every loss the output stage computed before it died, and they are
    // the losses of the run that was not killed.
    assert_eq!(err.partial.per_minibatch, clean.per_minibatch[..k as usize]);
    assert_eq!(err.partial.per_epoch[0], clean.per_epoch[0]);
    assert_eq!(err.partial.per_epoch[1].samples, (k as usize - 16) * 16);

    // Every forward that began, on the stage that died and on the one
    // that ran ahead of it into the collapse. (The input stage's forward
    // cannot fail before it records its version; the output stage's could
    // only on a receive, and its upstream outlived it.)
    let mut begun: Vec<(u64, usize)> = watch
        .seen
        .lock()
        .unwrap()
        .iter()
        .filter_map(|&(stage, op)| match op {
            Op::Forward { mb } => Some((mb, stage)),
            _ => None,
        })
        .collect();
    begun.sort_unstable();
    let traced: Vec<(u64, usize)> = err
        .partial
        .version_trace
        .iter()
        .map(|&VersionRecord { stage, mb, .. }| (mb, stage))
        .collect();
    assert_eq!(traced, begun);
    assert_eq!(traced.iter().filter(|&&(_, s)| s == 1).count(), k as usize);
    assert!(traced.iter().filter(|&&(_, s)| s == 0).count() >= k as usize);
    // A worker that did not reach the end of its ops has no peaks to give.
    assert!(err.partial.stage_obs.is_empty());
}
