//! Pipeline configurations: how layers map to stages and stages to workers.
//!
//! The paper writes configurations as per-stage replica counts: `"15-1"` is
//! two stages with the first replicated over 15 workers; a `"straight"`
//! configuration is `1-1-…-1`; plain data parallelism over 16 workers is a
//! single 16-way-replicated stage, written `"16"`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One pipeline stage: an inclusive range of model layers plus the number of
/// workers the stage is replicated across.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StagePlan {
    /// First layer index (inclusive).
    pub first_layer: usize,
    /// Last layer index (inclusive).
    pub last_layer: usize,
    /// Number of workers running this stage data-parallel (≥ 1).
    pub replicas: usize,
}

impl StagePlan {
    /// Build a stage covering `[first, last]` with `replicas` workers.
    pub fn new(first_layer: usize, last_layer: usize, replicas: usize) -> Self {
        assert!(first_layer <= last_layer, "empty stage layer range");
        assert!(replicas >= 1, "stage needs at least one replica");
        StagePlan {
            first_layer,
            last_layer,
            replicas,
        }
    }

    /// Number of layers in the stage.
    pub fn num_layers(&self) -> usize {
        self.last_layer - self.first_layer + 1
    }
}

/// A full pipeline configuration: consecutive stages covering every layer.
///
/// ```
/// use pipedream_core::PipelineConfig;
///
/// // VGG-16's Table-1 configuration: 13 conv layers over 15 workers,
/// // 3 FC layers on one.
/// let c = PipelineConfig::from_counts(&[(13, 15), (3, 1)]);
/// assert_eq!(c.label(), "15-1");
/// assert_eq!(c.total_workers(), 16);
/// assert_eq!(c.noam(), 2); // ⌈16 / 15⌉ minibatches per input replica
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PipelineConfig {
    stages: Vec<StagePlan>,
}

impl PipelineConfig {
    /// Build from a stage list; panics unless stages are consecutive,
    /// start at layer 0, and have ≥ 1 replica each.
    pub fn new(stages: Vec<StagePlan>) -> Self {
        assert!(!stages.is_empty(), "configuration needs at least one stage");
        assert_eq!(stages[0].first_layer, 0, "stage 0 must start at layer 0");
        for w in stages.windows(2) {
            assert_eq!(
                w[1].first_layer,
                w[0].last_layer + 1,
                "stages must cover consecutive layer ranges"
            );
        }
        PipelineConfig { stages }
    }

    /// Vanilla data parallelism: one stage holding all `num_layers` layers,
    /// replicated over `workers` workers.
    pub fn data_parallel(num_layers: usize, workers: usize) -> Self {
        PipelineConfig::new(vec![StagePlan::new(0, num_layers - 1, workers)])
    }

    /// A straight pipeline (no replication) with stage boundaries *after*
    /// the given layer indices. `boundaries = [3, 7]` over 10 layers gives
    /// stages `[0..=3]`, `[4..=7]`, `[8..=9]`.
    pub fn straight(num_layers: usize, boundaries: &[usize]) -> Self {
        let mut stages = Vec::with_capacity(boundaries.len() + 1);
        let mut first = 0usize;
        for &b in boundaries {
            stages.push(StagePlan::new(first, b, 1));
            first = b + 1;
        }
        stages.push(StagePlan::new(first, num_layers - 1, 1));
        PipelineConfig::new(stages)
    }

    /// Build from per-stage `(layers, replicas)` pairs laid out
    /// consecutively: `from_counts(&[(13, 15), (3, 1)])` is VGG-16's
    /// `15-1` over 16 layers.
    pub fn from_counts(counts: &[(usize, usize)]) -> Self {
        let mut stages = Vec::with_capacity(counts.len());
        let mut first = 0usize;
        for &(layers, replicas) in counts {
            stages.push(StagePlan::new(first, first + layers - 1, replicas));
            first += layers;
        }
        PipelineConfig::new(stages)
    }

    /// The stages, in pipeline order.
    pub fn stages(&self) -> &[StagePlan] {
        &self.stages
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Total number of workers consumed.
    pub fn total_workers(&self) -> usize {
        self.stages.iter().map(|s| s.replicas).sum()
    }

    /// Total number of model layers covered.
    pub fn num_layers(&self) -> usize {
        self.stages.last().unwrap().last_layer + 1
    }

    /// Whether this is vanilla data parallelism (single stage).
    pub fn is_data_parallel(&self) -> bool {
        self.stages.len() == 1
    }

    /// Whether this is a straight pipeline (multiple stages, no replication).
    pub fn is_straight(&self) -> bool {
        self.stages.len() > 1 && self.stages.iter().all(|s| s.replicas == 1)
    }

    /// `NUM_OPT_ACTIVE_MINIBATCHES` (§3.2): minibatches admitted *per input
    /// stage replica* to keep the pipeline full in steady state —
    /// `⌈ workers / input-stage replicas ⌉`.
    pub fn noam(&self) -> usize {
        self.total_workers().div_ceil(self.stages[0].replicas)
    }

    /// Total in-flight minibatches across all input replicas
    /// (`noam × input-stage replicas`).
    pub fn max_in_flight(&self) -> usize {
        self.noam() * self.stages[0].replicas
    }

    /// The lcm of all stage replica counts: every count of complete
    /// minibatches that leaves all gradient-sync rounds aligned is a
    /// multiple of this.
    pub fn replica_lcm(&self) -> u64 {
        self.stages.iter().fold(1, |l, s| lcm(l, s.replicas as u64))
    }

    /// 2BW gradient-accumulation group size for an in-flight depth of
    /// `depth`: at least the depth (so group g's double buffer —
    /// generation g−1, produced by group g−2's update — always exists when
    /// pinned), rounded up to a multiple of every stage's replica count
    /// (so each replica contributes to every full group's gradient-sync
    /// round).
    pub fn two_bw_group(&self, depth: usize) -> u64 {
        let l = self.replica_lcm();
        (depth.max(1) as u64).div_ceil(l) * l
    }

    /// Per-stage lists of global worker ids (workers are numbered stage by
    /// stage, replicas within a stage consecutive).
    pub fn worker_assignment(&self) -> Vec<Vec<usize>> {
        let mut next = 0usize;
        self.stages
            .iter()
            .map(|s| {
                let ws: Vec<usize> = (next..next + s.replicas).collect();
                next += s.replicas;
                ws
            })
            .collect()
    }

    /// Stage index owning global worker `w`, plus the replica index within
    /// that stage.
    pub fn stage_of_worker(&self, w: usize) -> (usize, usize) {
        let mut base = 0usize;
        for (si, s) in self.stages.iter().enumerate() {
            if w < base + s.replicas {
                return (si, w - base);
            }
            base += s.replicas;
        }
        panic!("worker {w} out of range (total {})", self.total_workers());
    }

    /// Stage index containing model layer `l`.
    pub fn stage_of_layer(&self, l: usize) -> usize {
        self.stages
            .iter()
            .position(|s| s.first_layer <= l && l <= s.last_layer)
            .unwrap_or_else(|| panic!("layer {l} not covered"))
    }

    /// The replica of `stage` that minibatch `mb` is routed to under the
    /// deterministic round-robin rule of 1F1B-RR (§3.2): the forward and
    /// backward pass of a minibatch always land on the same replica.
    pub fn replica_for(&self, stage: usize, mb: u64) -> usize {
        (mb % self.stages[stage].replicas as u64) as usize
    }

    /// Paper-style label: `"16"` for DP, `"straight"` for 1-1-…-1, else the
    /// dash notation such as `"15-1"` or `"2-1-1"`.
    pub fn label(&self) -> String {
        if self.is_data_parallel() {
            format!("{}", self.stages[0].replicas)
        } else if self.is_straight() {
            "straight".to_string()
        } else {
            self.to_string()
        }
    }

    /// Check the configuration against a model: every layer covered exactly
    /// once and `num_layers` matching.
    pub fn validate(&self, num_layers: usize) -> Result<(), String> {
        if self.num_layers() != num_layers {
            return Err(format!(
                "configuration covers {} layers, model has {num_layers}",
                self.num_layers()
            ));
        }
        Ok(())
    }
}

impl fmt::Display for PipelineConfig {
    /// The dash notation: per-stage replica counts, e.g. `15-1`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.stages.iter().map(|s| s.replicas.to_string()).collect();
        write!(f, "{}", parts.join("-"))
    }
}

/// Least common multiple, with 0 treated as "no constraint" (`lcm(0, b)`
/// is `b`, never 0).
pub fn lcm(a: u64, b: u64) -> u64 {
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    if a == 0 || b == 0 {
        a.max(b).max(1)
    } else {
        a / gcd(a, b) * b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcm_of_replica_counts() {
        assert_eq!(lcm(1, 1), 1);
        assert_eq!(lcm(2, 3), 6);
        assert_eq!(lcm(4, 2), 4);
        assert_eq!(lcm(0, 5), 5);
    }

    #[test]
    fn two_bw_group_covers_depth_and_every_replica_count() {
        let c = PipelineConfig::from_counts(&[(2, 3), (2, 2)]);
        assert_eq!(c.replica_lcm(), 6);
        for depth in 0..=13 {
            let g = c.two_bw_group(depth);
            assert!(g >= depth.max(1) as u64);
            for s in c.stages() {
                assert_eq!(g % s.replicas as u64, 0);
            }
            // Longhand: the depth rounded up to a multiple of lcm(3, 2).
            assert_eq!(g, (depth.max(1) as u64).div_ceil(6) * 6);
        }
        // noam = ⌈5/3⌉ = 2 → one lcm-sized group.
        assert_eq!(c.two_bw_group(c.noam()), 6);
        let straight = PipelineConfig::straight(4, &[0, 1, 2]);
        assert_eq!(straight.two_bw_group(straight.noam()), 4);
    }

    #[test]
    fn vgg_15_1_notation() {
        let c = PipelineConfig::from_counts(&[(13, 15), (3, 1)]);
        assert_eq!(c.to_string(), "15-1");
        assert_eq!(c.label(), "15-1");
        assert_eq!(c.total_workers(), 16);
        assert_eq!(c.num_layers(), 16);
        assert!(!c.is_straight());
        assert!(!c.is_data_parallel());
    }

    #[test]
    fn straight_label() {
        let c = PipelineConfig::straight(8, &[1, 3, 5]);
        assert_eq!(c.label(), "straight");
        assert_eq!(c.to_string(), "1-1-1-1");
        assert!(c.is_straight());
        assert_eq!(c.noam(), 4);
    }

    #[test]
    fn dp_label_is_worker_count() {
        let c = PipelineConfig::data_parallel(50, 16);
        assert_eq!(c.label(), "16");
        assert!(c.is_data_parallel());
        assert_eq!(c.noam(), 1, "DP admits one minibatch per replica");
    }

    #[test]
    fn noam_matches_paper_formula() {
        // 4-stage straight pipeline on 4 workers → NOAM 4 (Figure 4).
        assert_eq!(PipelineConfig::straight(4, &[0, 1, 2]).noam(), 4);
        // 2-1 configuration on 3 workers → ⌈3/2⌉ = 2 per input replica,
        // i.e. 4 total in flight (Figure 8): one extra minibatch per
        // replica covers the cross-stage round-trip latency.
        let c = PipelineConfig::from_counts(&[(1, 2), (1, 1)]);
        assert_eq!(c.noam(), 2);
        assert_eq!(c.max_in_flight(), 4);
    }

    #[test]
    fn worker_assignment_is_consecutive() {
        let c = PipelineConfig::from_counts(&[(2, 2), (1, 1), (1, 1)]);
        let ws = c.worker_assignment();
        assert_eq!(ws, vec![vec![0, 1], vec![2], vec![3]]);
        assert_eq!(c.stage_of_worker(1), (0, 1));
        assert_eq!(c.stage_of_worker(3), (2, 0));
    }

    #[test]
    fn round_robin_routing_is_deterministic() {
        let c = PipelineConfig::from_counts(&[(1, 2), (1, 1)]);
        // Even minibatches to replica 0, odd to replica 1 (Figure 8).
        assert_eq!(c.replica_for(0, 0), 0);
        assert_eq!(c.replica_for(0, 1), 1);
        assert_eq!(c.replica_for(0, 2), 0);
        assert_eq!(c.replica_for(1, 5), 0);
    }

    #[test]
    fn stage_of_layer_lookup() {
        let c = PipelineConfig::from_counts(&[(3, 1), (2, 1)]);
        assert_eq!(c.stage_of_layer(0), 0);
        assert_eq!(c.stage_of_layer(2), 0);
        assert_eq!(c.stage_of_layer(3), 1);
    }

    #[test]
    fn validate_rejects_wrong_layer_count() {
        let c = PipelineConfig::from_counts(&[(3, 1), (2, 1)]);
        assert!(c.validate(5).is_ok());
        assert!(c.validate(6).is_err());
    }

    #[test]
    #[should_panic(expected = "consecutive")]
    fn non_consecutive_stages_rejected() {
        PipelineConfig::new(vec![StagePlan::new(0, 1, 1), StagePlan::new(3, 4, 1)]);
    }
}
