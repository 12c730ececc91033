//! `memory-sweep`: the memory-efficient schedules, end to end.
//!
//! The PipeDream-2BW argument in one experiment, on the `huge-lm` zoo
//! model (8 transformer-ish blocks × 800 MB of fp32 weights = 6.4 GB, far
//! beyond one worker):
//!
//! 1. **Planning.** Under a hard 4 GiB/worker budget the §3.1 planner
//!    proves vanilla 1F1B weight stashing infeasible — the input stage of
//!    any 4-worker partition must stash one weight version per in-flight
//!    minibatch, and every candidate oversubscribes, so `try_plan`
//!    returns the typed `MemoryInfeasible` (not a panic, not a bogus
//!    plan). The same planner under the same budget *does* find a plan
//!    for the memory-efficient schedules: 2BW caps the stash at two
//!    generations (2 × 1.6 GB for a 2-layer stage), and recomputation
//!    shrinks the activation stash to the stage input.
//! 2. **Training.** The winning partition is then trained **for real** on
//!    a faithfully scaled-down replica of the model (the same 8-layer
//!    shape, ~50 000× smaller) under `ScheduleKind::TwoBWRecompute`,
//!    checkpoints on — and the per-stage gauges must confirm the planner's
//!    premise: at most 2 weight versions ever held, recomputation
//!    actually exercised, loss falling, final checkpoint complete.

use crate::util::format_table;
use pipedream_core::estimates::memory_footprint_for;
use pipedream_core::stash::ScheduleKind;
use pipedream_core::{config_fingerprint, PipelineConfig, PlanError, Planner};
use pipedream_hw::{Device, LinkModel, Topology};
use pipedream_model::zoo;
use pipedream_runtime::checkpoint;
use pipedream_runtime::trainer::train_pipeline;
use pipedream_runtime::{LrSchedule, OptimKind, Semantics, TrainOpts};
use pipedream_tensor::data::blobs;
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::Linear;
use pipedream_tensor::Sequential;
use serde::Serialize;
use std::fmt;

const WORKERS: usize = 4;
/// Hard per-worker budget: below the 6.4 GB the model needs under
/// vanilla stashing on any 4-way split, above the ~3.2 GB a 2BW split
/// needs.
const LIMIT_BYTES: u64 = 4 * (1 << 30);
/// Minibatch size for the scaled-down training run.
const BATCH: usize = 32;
/// Hidden width of the scaled-down proxy (huge-lm in miniature: the same
/// 8-layer all-weights shape).
const WIDTH: usize = 64;

/// The real model the winning partition trains: 8 Linear layers mirroring
/// huge-lm's 8 uniform weight-bearing blocks.
fn proxy_model(seed: u64) -> Sequential {
    let mut r = rng(seed);
    let mut m = Sequential::new("huge-lm-proxy").push(Linear::new(16, WIDTH, &mut r));
    for _ in 0..6 {
        let lin = Linear::new(WIDTH, WIDTH, &mut r);
        m.push_boxed(Box::new(lin));
    }
    m.push_boxed(Box::new(Linear::new(WIDTH, 4, &mut r)));
    m
}

/// One schedule's fate under the shared budget.
#[derive(Debug, Clone, Serialize)]
pub struct ScheduleOutcome {
    /// Schedule id (`vanilla`, `2bw`, `recompute`, `2bw-recompute`).
    pub schedule: String,
    /// Whether the constrained planner found any partition.
    pub feasible: bool,
    /// Chosen partition label (empty when infeasible).
    pub plan_label: String,
    /// Worst per-stage predicted footprint of the chosen plan, bytes
    /// (0 when infeasible).
    pub predicted_peak_bytes: u64,
    /// The planner's error rendering when infeasible (empty otherwise).
    pub error: String,
}

/// Everything the sweep decided and measured.
#[derive(Debug, Clone, Serialize)]
pub struct MemorySweep {
    /// Model the planner was asked to place.
    pub model: String,
    /// The shared per-worker budget, bytes.
    pub limit_bytes: u64,
    /// Planner outcome per schedule, in `ScheduleKind::all()` order.
    pub outcomes: Vec<ScheduleOutcome>,
    /// Partition the 2BW+recompute run actually trained.
    pub trained_label: String,
    /// `config_fingerprint` of that partition, hex.
    pub trained_fingerprint: String,
    /// First and final epoch losses of the real (scaled-down) run.
    pub first_loss: f32,
    pub final_loss: f32,
    /// Max weight versions any stage ever held (the ≤ 2 gate).
    pub versions_held_max: usize,
    /// Max live activation bytes any stage measured.
    pub activation_bytes_max: u64,
    /// Total recomputation time across stages, milliseconds.
    pub recompute_ms: f64,
    /// Epoch of the last complete checkpoint (completion proof).
    pub checkpoint_epoch: Option<usize>,
    /// Epochs trained.
    pub epochs: usize,
    /// Wall time of the training run, seconds.
    pub wall_time_s: f64,
}

/// Run the sweep: prove vanilla infeasible on huge-lm, then train the
/// feasible 2BW+recompute partition's scaled-down replica to completion.
pub fn run(epochs: usize) -> MemorySweep {
    let profile = zoo::huge_lm();
    let topo = Topology::flat(
        Device::v100(),
        WORKERS,
        LinkModel::from_gbytes(10.0, 1e-6),
        "cluster-a",
    );

    let mut outcomes = Vec::new();
    let mut trained_config: Option<PipelineConfig> = None;
    for kind in ScheduleKind::all() {
        let planner = Planner::new(&profile, &topo)
            .with_schedule(kind)
            .with_memory_limit(LIMIT_BYTES);
        match planner.try_plan() {
            Ok(plan) => {
                let peak = memory_footprint_for(planner.costs(), &plan.config, kind)
                    .iter()
                    .map(|s| s.total())
                    .max()
                    .unwrap_or(0);
                if kind == ScheduleKind::TwoBWRecompute {
                    trained_config = Some(plan.config.clone());
                }
                outcomes.push(ScheduleOutcome {
                    schedule: kind.as_str().to_string(),
                    feasible: true,
                    plan_label: plan.config.label(),
                    predicted_peak_bytes: peak,
                    error: String::new(),
                });
            }
            Err(e @ PlanError::MemoryInfeasible { .. }) => {
                outcomes.push(ScheduleOutcome {
                    schedule: kind.as_str().to_string(),
                    feasible: false,
                    plan_label: String::new(),
                    predicted_peak_bytes: 0,
                    error: e.to_string(),
                });
            }
            Err(e) => panic!("unexpected planner error under the budget: {e}"),
        }
    }

    // Train the efficient schedule's partition for real (scaled down),
    // with checkpoints.
    let config = trained_config.expect("2bw-recompute must be feasible under the budget");
    let ckpt = std::env::temp_dir().join(format!("pd-memory-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt);
    let data = blobs(512, 16, 4, 0.7, 11);
    let opts = TrainOpts {
        epochs,
        batch: BATCH,
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
        },
        semantics: Semantics::Stashed,
        schedule: ScheduleKind::TwoBWRecompute,
        lr_schedule: LrSchedule::Constant,
        checkpoint_dir: Some(ckpt.clone()),
        ..TrainOpts::default()
    };
    let (_, report) = train_pipeline(proxy_model(5), &config, &data, &opts);
    let checkpoint_epoch = checkpoint::latest_complete(&ckpt, config.num_stages())
        .map(|done| (done as usize - 1) / data.num_minibatches(BATCH));
    let _ = std::fs::remove_dir_all(&ckpt);

    MemorySweep {
        model: profile.name.clone(),
        limit_bytes: LIMIT_BYTES,
        outcomes,
        trained_label: config.label(),
        trained_fingerprint: format!("{:016x}", config_fingerprint(&config)),
        first_loss: report.per_epoch.first().map(|e| e.loss).unwrap_or(f32::NAN),
        final_loss: report.final_loss(),
        versions_held_max: report
            .stage_obs
            .iter()
            .map(|o| o.versions_held_max)
            .max()
            .unwrap_or(0),
        activation_bytes_max: report
            .stage_obs
            .iter()
            .map(|o| o.activation_bytes_max)
            .max()
            .unwrap_or(0),
        recompute_ms: report.stage_obs.iter().map(|o| o.recompute_us).sum::<u64>() as f64 / 1e3,
        checkpoint_epoch,
        epochs,
        wall_time_s: report.wall_time_s,
    }
}

impl MemorySweep {
    /// CSV: one row per schedule under the shared budget.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("schedule,feasible,plan,predicted_peak_bytes\n");
        for o in &self.outcomes {
            out.push_str(&format!(
                "{},{},{},{}\n",
                o.schedule, o.feasible, o.plan_label, o.predicted_peak_bytes
            ));
        }
        out
    }

    /// The whole sweep as JSON (saved as `memory-sweep.json`).
    pub fn sweep_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("sweep serializes")
    }
}

impl fmt::Display for MemorySweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Planning {} onto {} workers under a hard {:.1} GiB/worker budget:\n",
            self.model,
            WORKERS,
            self.limit_bytes as f64 / (1u64 << 30) as f64
        )?;
        let header = ["schedule", "planner verdict", "plan", "peak (GiB)"];
        let rows: Vec<Vec<String>> = self
            .outcomes
            .iter()
            .map(|o| {
                vec![
                    o.schedule.clone(),
                    if o.feasible {
                        "feasible".into()
                    } else {
                        "INFEASIBLE".into()
                    },
                    if o.feasible {
                        o.plan_label.clone()
                    } else {
                        o.error.clone()
                    },
                    if o.feasible {
                        format!("{:.2}", o.predicted_peak_bytes as f64 / (1u64 << 30) as f64)
                    } else {
                        "-".into()
                    },
                ]
            })
            .collect();
        f.write_str(&format_table(&header, &rows))?;
        writeln!(
            f,
            "\n2bw-recompute trained to completion on {} ({}, scaled-down replica): \
             {} epochs, loss {:.4} -> {:.4}, last checkpoint epoch {}",
            self.trained_label,
            self.trained_fingerprint,
            self.epochs,
            self.first_loss,
            self.final_loss,
            self.checkpoint_epoch
                .map(|e| e.to_string())
                .unwrap_or_else(|| "NONE".into())
        )?;
        writeln!(
            f,
            "gauges: versions_held_max {} (2BW bound: 2), live activations \
             peak {} KiB, recompute time {:.1} ms (wall {:.2}s)",
            self.versions_held_max,
            self.activation_bytes_max >> 10,
            self.recompute_ms,
            self.wall_time_s
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ISSUE's acceptance gate for the sweep: vanilla is provably
    /// infeasible under the budget, 2BW+recompute plans AND trains to
    /// completion (checkpoint present), and the measured gauges confirm
    /// the ≤ 2 weight-version bound.
    #[test]
    fn vanilla_infeasible_but_2bw_recompute_trains() {
        let r = run(2);
        let vanilla = &r.outcomes[0];
        assert_eq!(vanilla.schedule, "vanilla");
        assert!(!vanilla.feasible, "vanilla should not fit: {r}");
        assert!(
            vanilla.error.contains("memory limit"),
            "typed error missing: {}",
            vanilla.error
        );
        let both = r
            .outcomes
            .iter()
            .find(|o| o.schedule == "2bw-recompute")
            .unwrap();
        assert!(both.feasible, "2bw-recompute should fit: {r}");
        assert!(both.predicted_peak_bytes <= r.limit_bytes);
        assert_eq!(r.checkpoint_epoch, Some(1), "training must checkpoint");
        assert!(r.final_loss.is_finite() && r.final_loss < r.first_loss);
        assert!(r.versions_held_max <= 2, "2BW bound violated: {r}");
        assert!(r.recompute_ms > 0.0, "recompute must actually run");
        // The rendering carries the verdict strings CI greps for.
        let text = r.to_string();
        assert!(text.contains("INFEASIBLE"), "{text}");
        assert!(text.contains("trained to completion"), "{text}");
        // And the JSON artifact parses back.
        let v: serde_json::Value = serde_json::from_str(&r.sweep_json()).unwrap();
        assert_eq!(
            v.get("limit_bytes").and_then(|x| x.as_u64()),
            Some(r.limit_bytes)
        );
    }
}
