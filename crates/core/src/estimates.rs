//! Communication-volume and memory-footprint estimators
//! (paper Figures 16 and 17, §3.3 "Memory Overhead").

use crate::config::{PipelineConfig, StagePlan};
use crate::stash::ScheduleKind;
use pipedream_model::LayerCosts;
use serde::{Deserialize, Serialize};

/// Total bytes moved across the cluster per *training sample* under
/// data-parallel BSP with `workers` workers: every iteration each worker
/// sends and receives `(m−1)/m · Σ|w_l|`, amortised over `m · G` samples.
pub fn dp_bytes_per_sample(costs: &LayerCosts, workers: usize) -> f64 {
    if workers <= 1 {
        return 0.0;
    }
    let m = workers as f64;
    let w: u64 = costs.weight_bytes_all();
    // Total traffic per iteration: m workers × 2(m−1)/m·w = 2(m−1)·w,
    // over m·G samples.
    2.0 * (m - 1.0) * w as f64 / (m * costs.batch as f64)
}

/// Total bytes moved per training sample under a pipeline-parallel
/// configuration: activation + gradient traffic across each stage boundary,
/// plus gradient all_reduce traffic for replicated stages.
pub fn pp_bytes_per_sample(costs: &LayerCosts, config: &PipelineConfig) -> f64 {
    let g = costs.batch as f64;
    let mut bytes = 0.0f64;
    // Every sample crosses each boundary twice (activations forward,
    // gradients backward).
    for stage in &config.stages()[..config.num_stages() - 1] {
        bytes += 2.0 * costs.activation_bytes(stage.last_layer) as f64 / g;
    }
    // Replicated stages synchronize weight gradients. Each replica runs a
    // backward pass once every r minibatches, so a full r-way all_reduce
    // (total traffic 2(r−1)·w) is amortised over r·G samples.
    for stage in config.stages() {
        let r = stage.replicas as f64;
        if stage.replicas > 1 {
            let w = costs.weight_bytes(stage.first_layer, stage.last_layer) as f64;
            bytes += 2.0 * (r - 1.0) * w / (r * g);
        }
    }
    bytes
}

/// Fractional reduction in communication of `config` relative to DP over
/// the same worker count (the paper quotes ">85% reduction for VGG-16,
/// AWD LM").
pub fn communication_reduction(costs: &LayerCosts, config: &PipelineConfig) -> f64 {
    let dp = dp_bytes_per_sample(costs, config.total_workers());
    if dp == 0.0 {
        return 0.0;
    }
    1.0 - pp_bytes_per_sample(costs, config) / dp
}

/// Estimated peak memory of one worker of each stage, in bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageMemory {
    /// Stage index.
    pub stage: usize,
    /// Weight bytes × stashed versions.
    pub weight_bytes: u64,
    /// Activation-stash bytes across in-flight minibatches.
    pub activation_bytes: u64,
}

impl StageMemory {
    /// Total estimated footprint.
    pub fn total(&self) -> u64 {
        self.weight_bytes + self.activation_bytes
    }
}

/// Number of minibatches in flight at `stage` under 1F1B — stage `s` of an
/// `n`-stage pipeline stashes state for
/// `⌈ (workers at stage s and later) / replicas_s ⌉` minibatches (which
/// reduces to `n − s` for straight pipelines and 1 for data parallelism).
pub fn in_flight_at_stage(config: &PipelineConfig, stage: usize) -> usize {
    let downstream: usize = config.stages()[stage..].iter().map(|s| s.replicas).sum();
    downstream.div_ceil(config.stages()[stage].replicas)
}

/// Per-stage memory estimate for a pipeline configuration (per worker).
///
/// Each in-flight minibatch holds one weight version and one activation
/// stash of every layer in the stage (§3.3): with `n` in flight the stage
/// stores `n` weight versions and `n` activation sets.
pub fn memory_footprint(costs: &LayerCosts, config: &PipelineConfig) -> Vec<StageMemory> {
    memory_footprint_for(costs, config, ScheduleKind::Vanilla1F1B)
}

/// The bytes a stage's *input* activations occupy per minibatch — what a
/// recomputing stage must retain for every in-flight minibatch so it can
/// re-run its forward pass. Stage 0's input is the training data itself;
/// its size is approximated by the first layer's activation volume (the
/// profile does not record raw input bytes, and for the huge-model regime
/// this term is negligible against weights).
fn stage_input_bytes(costs: &LayerCosts, first_layer: usize) -> u64 {
    if first_layer == 0 {
        costs.activation_bytes(0)
    } else {
        costs.activation_bytes(first_layer - 1)
    }
}

/// Schedule-aware memory estimate of one worker of stage `stage`, whose
/// layers are `plan`'s, with `in_flight` minibatches in flight.
///
/// The vanilla model is `versions × weights + versions × activations` with
/// `versions = in_flight`. The memory-efficient variants shrink each term
/// independently:
///
/// * **2BW** caps weight versions at `min(2, in_flight)` — double-buffered
///   group updates never hold more than two generations;
/// * **recompute** replaces the per-minibatch activation stash with the
///   stage *input* per in-flight minibatch plus **one** full activation
///   set as the recompute workspace (the stage re-runs its forward for a
///   single minibatch at a time, right before that minibatch's backward).
///
/// The planner's estimate ([`memory_footprint_for`], at the 1F1B depth)
/// and the simulator's `peak_memory_bytes` (at the depth each worker
/// reached) are both this function.
pub fn stage_memory(
    costs: &LayerCosts,
    stage: usize,
    plan: &StagePlan,
    in_flight: u64,
    kind: ScheduleKind,
) -> StageMemory {
    let versions = if kind.uses_two_bw() {
        in_flight.min(2)
    } else {
        in_flight
    };
    let weights = costs.weight_bytes(plan.first_layer, plan.last_layer);
    let acts: u64 = (plan.first_layer..=plan.last_layer)
        .map(|l| costs.activation_bytes(l))
        .sum();
    let activation_bytes = if kind.uses_recompute() {
        in_flight * stage_input_bytes(costs, plan.first_layer) + acts
    } else {
        acts * in_flight
    };
    StageMemory {
        stage,
        weight_bytes: weights * versions,
        activation_bytes,
    }
}

/// Schedule-aware per-stage memory estimate (per worker): [`stage_memory`]
/// of every stage at its 1F1B in-flight depth.
pub fn memory_footprint_for(
    costs: &LayerCosts,
    config: &PipelineConfig,
    kind: ScheduleKind,
) -> Vec<StageMemory> {
    config
        .stages()
        .iter()
        .enumerate()
        .map(|(si, s)| stage_memory(costs, si, s, in_flight_at_stage(config, si) as u64, kind))
        .collect()
}

/// Memory footprint of one data-parallel worker: one weight copy (plus one
/// gradient buffer) and one activation set for the single in-flight
/// minibatch.
pub fn dp_memory_footprint(costs: &LayerCosts) -> StageMemory {
    let n = costs.num_layers();
    StageMemory {
        stage: 0,
        weight_bytes: 2 * costs.weight_bytes(0, n - 1),
        activation_bytes: (0..n).map(|l| costs.activation_bytes(l)).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipedream_hw::{Device, Precision};
    use pipedream_model::zoo;

    fn vgg_costs() -> LayerCosts {
        zoo::vgg16().costs(&Device::v100(), 64, Precision::Fp32)
    }

    #[test]
    fn dp_bytes_grow_with_workers() {
        let c = vgg_costs();
        let b4 = dp_bytes_per_sample(&c, 4);
        let b16 = dp_bytes_per_sample(&c, 16);
        assert!(b16 > b4);
        assert_eq!(dp_bytes_per_sample(&c, 1), 0.0);
    }

    #[test]
    fn vgg_pipeline_reduces_communication_over_85_percent() {
        // §3: ">85% reduction for VGG-16" with its best non-DP config.
        let c = vgg_costs();
        let config = PipelineConfig::from_counts(&[(13, 15), (3, 1)]);
        let red = communication_reduction(&c, &config);
        assert!(red > 0.85, "reduction {red}");
    }

    #[test]
    fn awd_lm_straight_pipeline_reduces_communication_88_percent() {
        // §5.2: straight config "reduces communication by 88% compared to
        // DP" on 4 workers.
        let m = zoo::awd_lm();
        let c = m.costs(&Device::v100(), 80, Precision::Fp32);
        let config = PipelineConfig::straight(m.num_layers(), &[1, 3, 5]);
        let red = communication_reduction(&c, &config);
        assert!(red > 0.70, "reduction {red}");
    }

    #[test]
    fn resnet_dp_communicates_less_than_pipeline() {
        // §5.5 / Figure 17: for ResNet-50, the best non-DP configuration
        // communicates *more* than DP — activations dominate weights.
        let m = zoo::resnet50();
        let c = m.costs(&Device::v100(), 128, Precision::Fp32);
        let config = PipelineConfig::straight(m.num_layers(), &[4, 8, 13]);
        assert!(communication_reduction(&c, &config) < 0.0);
    }

    #[test]
    fn in_flight_matches_straight_pipeline_rule() {
        let c = PipelineConfig::straight(8, &[1, 3, 5]);
        assert_eq!(in_flight_at_stage(&c, 0), 4);
        assert_eq!(in_flight_at_stage(&c, 1), 3);
        assert_eq!(in_flight_at_stage(&c, 2), 2);
        assert_eq!(in_flight_at_stage(&c, 3), 1);
        let dp = PipelineConfig::data_parallel(8, 4);
        assert_eq!(in_flight_at_stage(&dp, 0), 1);
    }

    #[test]
    fn pipeline_worst_stage_memory_on_par_with_dp() {
        // §3.3: "PipeDream's peak per-worker memory usage is on par with
        // data parallelism."
        let c = vgg_costs();
        let config = PipelineConfig::straight(16, &[3, 7, 11]);
        let per_stage = memory_footprint(&c, &config);
        let peak = per_stage.iter().map(|s| s.total()).max().unwrap();
        let dp = dp_memory_footprint(&c).total();
        assert!(
            peak <= dp * 2,
            "pipeline peak {peak} should be on par with DP {dp}"
        );
    }

    #[test]
    fn memory_footprint_has_one_entry_per_stage() {
        let c = vgg_costs();
        let config = PipelineConfig::from_counts(&[(13, 2), (2, 1), (1, 1)]);
        let mem = memory_footprint(&c, &config);
        assert_eq!(mem.len(), 3);
        assert!(mem.iter().all(|m| m.total() > 0));
    }

    #[test]
    fn vanilla_footprint_is_the_default_kind() {
        let c = vgg_costs();
        let config = PipelineConfig::straight(16, &[3, 7, 11]);
        assert_eq!(
            memory_footprint(&c, &config),
            memory_footprint_for(&c, &config, ScheduleKind::Vanilla1F1B)
        );
    }

    #[test]
    fn two_bw_caps_weight_versions_at_two() {
        let c = vgg_costs();
        let config = PipelineConfig::straight(16, &[3, 7, 11]);
        let vanilla = memory_footprint_for(&c, &config, ScheduleKind::Vanilla1F1B);
        let two_bw = memory_footprint_for(&c, &config, ScheduleKind::TwoBW);
        for (si, (v, t)) in vanilla.iter().zip(&two_bw).enumerate() {
            let in_flight = in_flight_at_stage(&config, si) as u64;
            let one_version = v.weight_bytes / in_flight;
            assert_eq!(t.weight_bytes, one_version * in_flight.min(2));
            // Activations untouched by 2BW alone.
            assert_eq!(t.activation_bytes, v.activation_bytes);
        }
        // The input stage of a 4-deep pipeline halves its weight memory.
        assert!(two_bw[0].weight_bytes * 2 == vanilla[0].weight_bytes);
    }

    #[test]
    fn recompute_shrinks_activation_stash_to_o1() {
        // An activation-heavy model: recompute keeps 1 full activation set
        // plus in-flight stage inputs instead of in-flight full sets.
        let m = zoo::uniform(8, 1e9, 10_000_000, 1_000);
        let c = m.costs(&Device::v100(), 32, Precision::Fp32);
        let config = PipelineConfig::straight(8, &[1, 3, 5]);
        let vanilla = memory_footprint_for(&c, &config, ScheduleKind::Vanilla1F1B);
        let rec = memory_footprint_for(&c, &config, ScheduleKind::Recompute);
        // Stage 0: 4 in flight, 2 layers. Vanilla stashes 4×2 activation
        // sets; recompute keeps 4 inputs + 2 layers of workspace.
        let per_layer = c.activation_bytes(0);
        assert_eq!(vanilla[0].activation_bytes, 4 * 2 * per_layer);
        assert_eq!(rec[0].activation_bytes, 4 * per_layer + 2 * per_layer);
        // Weight term is untouched by recompute alone.
        assert_eq!(rec[0].weight_bytes, vanilla[0].weight_bytes);
        assert!(rec[0].total() < vanilla[0].total());
    }

    #[test]
    fn combined_kind_takes_both_reductions() {
        let c = vgg_costs();
        let config = PipelineConfig::straight(16, &[3, 7, 11]);
        let both = memory_footprint_for(&c, &config, ScheduleKind::TwoBWRecompute);
        let two_bw = memory_footprint_for(&c, &config, ScheduleKind::TwoBW);
        let rec = memory_footprint_for(&c, &config, ScheduleKind::Recompute);
        for ((b, t), r) in both.iter().zip(&two_bw).zip(&rec) {
            assert_eq!(b.weight_bytes, t.weight_bytes);
            assert_eq!(b.activation_bytes, r.activation_bytes);
            // Elementwise, combined never exceeds recompute alone (same
            // activation term, fewer weight versions). Against 2BW alone
            // the tail stage can gain the stage-input pin, so only the
            // input stage — where recompute pays off — is compared.
            assert!(b.total() <= r.total());
        }
        assert!(both[0].total() < two_bw[0].total());
        let peak = |f: &[StageMemory]| f.iter().map(|s| s.total()).max().unwrap();
        assert!(peak(&both) <= peak(&rec));
    }
}
