//! Figure 11: statistical efficiency — the paper shows PipeDream's
//! accuracy per epoch tracking data parallelism's.
//!
//! What this measures on the real runtime is the mechanism behind that
//! claim (§3.3): a 4-stage 1F1B pipeline with weight stashing computes the
//! delayed-SGD recurrence `train_delayed_sgd` runs on one thread, bit for
//! bit, while the same pipeline without stashing (naive) does not. The
//! per-epoch losses of one seed, beside sequential SGD's, are printed as
//! they come; one run ranks nothing.

use crate::util::format_table;
use pipedream_core::PipelineConfig;
use pipedream_runtime::{
    train_delayed_sgd, train_pipeline, train_sequential, OptimKind, Semantics, TrainOpts,
};
use pipedream_tensor::data::blobs;
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Linear, Relu, Tanh};
use pipedream_tensor::{Layer, Sequential};
use std::fmt;

/// The measurement: per-epoch training losses, and how each pipelined run
/// compares with the stashed recurrence minibatch by minibatch.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// Per-epoch loss, sequential SGD.
    pub sequential: Vec<f32>,
    /// Per-epoch loss, 4-stage 1F1B with weight stashing.
    pub stashed: Vec<f32>,
    /// Per-epoch loss, 4-stage naive pipelining.
    pub naive: Vec<f32>,
    /// Whether the stashed run's every minibatch loss and every final
    /// parameter equal the recurrence's, bit for bit.
    pub stashed_is_recurrence: bool,
    /// The first minibatch whose naive loss differs from the recurrence's.
    pub naive_first_deviation: Option<u64>,
    /// The largest `|naive − recurrence|` loss, and its minibatch.
    pub naive_largest_deviation: (u64, f32),
}

fn mlp(seed: u64) -> Sequential {
    let mut r = rng(seed);
    Sequential::new("fig11")
        .push(Linear::new(8, 48, &mut r))
        .push(Tanh::new())
        .push(Linear::new(48, 48, &mut r))
        .push(Relu::new())
        .push(Linear::new(48, 48, &mut r))
        .push(Tanh::new())
        .push(Linear::new(48, 48, &mut r))
        .push(Linear::new(48, 4, &mut r))
}

/// Run the experiment for `epochs` epochs of 16 minibatches.
pub fn run(epochs: usize) -> Fig11 {
    let data = blobs(256, 8, 4, 1.0, 2);
    let opts = TrainOpts {
        epochs,
        batch: 16,
        optim: OptimKind::Sgd {
            lr: 0.04,
            momentum: 0.9,
        },
        semantics: Semantics::Stashed,
        ..TrainOpts::default()
    };
    let naive_opts = TrainOpts {
        semantics: Semantics::Naive,
        ..opts.clone()
    };
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let (_, seq) = train_sequential(mlp(3), &data, &opts);
    let (stash_model, stash) = train_pipeline(mlp(3), &config, &data, &opts);
    let (_, naive) = train_pipeline(mlp(3), &config, &data, &naive_opts);
    let (oracle_model, oracle) = train_delayed_sgd(mlp(3), &config, &data, &opts);

    let loss_bits =
        |losses: &[(u64, f32)]| -> Vec<u32> { losses.iter().map(|l| l.1.to_bits()).collect() };
    let weight_bits = |m: &Sequential| -> Vec<u32> {
        m.snapshot()
            .iter()
            .flat_map(|t| t.data().iter().map(|w| w.to_bits()))
            .collect()
    };
    let stashed_is_recurrence = loss_bits(&stash.per_minibatch) == loss_bits(&oracle)
        && weight_bits(&stash_model) == weight_bits(&oracle_model);
    let deviations = naive
        .per_minibatch
        .iter()
        .zip(&oracle)
        .map(|(&(mb, got), &(_, want))| (mb, (got - want).abs()));
    let naive_first_deviation = deviations.clone().find(|d| d.1 > 0.0).map(|d| d.0);
    let naive_largest_deviation =
        deviations.fold((0, 0.0), |worst, d| if d.1 > worst.1 { d } else { worst });
    let per_epoch =
        |r: &pipedream_runtime::TrainReport| r.per_epoch.iter().map(|e| e.loss).collect();
    Fig11 {
        sequential: per_epoch(&seq),
        stashed: per_epoch(&stash),
        naive: per_epoch(&naive),
        stashed_is_recurrence,
        naive_first_deviation,
        naive_largest_deviation,
    }
}

impl fmt::Display for Fig11 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let naive_below = self
            .naive
            .iter()
            .zip(&self.stashed)
            .filter(|(n, s)| n < s)
            .count();
        writeln!(
            f,
            "Figure 11: statistical efficiency, measured on the real runtime\n\n\
             Mean training loss per epoch of one seed: sequential SGD, and a 4-stage 1F1B\n\
             pipeline (small MLP, 4-class blobs, SGD with momentum 0.9) with weight\n\
             stashing and without it (naive). Naive's loss is below stashing's on {naive_below}\n\
             of {} epochs: one run ranks neither.",
            self.naive.len()
        )?;
        let header = ["epoch", "sequential", "1F1B+stash", "naive"];
        let rows: Vec<Vec<String>> = (0..self.sequential.len())
            .map(|e| {
                vec![
                    e.to_string(),
                    format!("{:.4}", self.sequential[e]),
                    format!("{:.4}", self.stashed[e]),
                    format!("{:.4}", self.naive[e]),
                ]
            })
            .collect();
        writeln!(f, "{}", format_table(&header, &rows))?;
        if self.stashed_is_recurrence {
            writeln!(f, "1F1B+stash equals the delayed-SGD oracle: bitwise")?;
        } else {
            writeln!(f, "1F1B+stash DIFFERS from the delayed-SGD oracle")?;
        }
        let (mb, worst) = self.naive_largest_deviation;
        match self.naive_first_deviation {
            Some(first) => writeln!(
                f,
                "naive strays from the stashed oracle from minibatch {first} on: largest \
                 per-minibatch loss deviation {worst:.4}, at minibatch {mb}"
            ),
            None => writeln!(f, "naive EQUALS the stashed oracle"),
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn stashing_is_the_recurrence_and_naive_is_not() {
        let f = super::run(4);
        assert!(f.stashed_is_recurrence, "{f}");
        assert!(f.naive_first_deviation.is_some(), "{f}");
        assert!(f.naive_largest_deviation.1 > 1e-3, "{f}");
    }
}
