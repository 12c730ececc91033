//! Layer-granularity simulation of data-parallel training (BSP and ASP).
//!
//! Models the paper's data-parallel baseline with **wait-free
//! backpropagation** (§2.1): each layer's weight gradients are all_reduced
//! as soon as that layer's backward pass completes, overlapping
//! communication with the remaining backward compute. Whatever
//! communication extends past the end of compute is a **communication
//! stall** — the quantity plotted in Figures 1 and 12.

use pipedream_hw::Topology;
use pipedream_model::LayerCosts;
use serde::{Deserialize, Serialize};

/// Result of simulating one data-parallel training iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DpResult {
    /// Wall time of one iteration (compute + exposed communication).
    pub iteration_s: f64,
    /// Pure compute time (forward + backward).
    pub compute_s: f64,
    /// Communication stall: iteration − compute.
    pub stall_s: f64,
    /// Stall as a fraction of the iteration — the paper's "communication
    /// overhead" (Figure 1's y-axis).
    pub stall_fraction: f64,
    /// Aggregate throughput in samples/second (`workers × batch /
    /// iteration`).
    pub samples_per_sec: f64,
    /// Bytes sent+received per worker per iteration.
    pub bytes_per_worker: u64,
    /// Per-topology-level wire bytes per iteration (innermost first) —
    /// Figure 1's takeaway 2: DP pushes the *same* gradient bytes over both
    /// the fast and the slow levels of a hierarchical network.
    pub bytes_per_level: Vec<u64>,
}

impl std::fmt::Display for DpResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "iteration {:.3} ms (compute {:.3} ms, stall {:.0}%), {:.0} samples/s",
            self.iteration_s * 1e3,
            self.compute_s * 1e3,
            self.stall_fraction * 100.0,
            self.samples_per_sec
        )
    }
}

/// Simulate one BSP iteration of data parallelism over the first `workers`
/// workers of `topo`, with wait-free backpropagation.
pub fn simulate_dp(costs: &LayerCosts, topo: &Topology, workers: usize) -> DpResult {
    assert!(workers >= 1 && workers <= topo.total_workers());
    let n = costs.num_layers();
    let compute: f64 = costs.total_compute_all();

    if workers == 1 {
        return DpResult {
            iteration_s: compute,
            compute_s: compute,
            stall_s: 0.0,
            stall_fraction: 0.0,
            samples_per_sec: costs.batch as f64 / compute,
            bytes_per_worker: 0,
            bytes_per_level: vec![0; topo.num_levels()],
        };
    }

    let participants: Vec<usize> = (0..workers).collect();

    // Forward pass, then backward from the last layer toward the first;
    // layer l's all_reduce (hierarchical: every spanned level contributes a
    // phase) is enqueued on the NIC when its backward ends.
    let fwd: f64 = costs.layers.iter().map(|l| l.fwd_s).sum();
    let mut t = fwd;
    let mut nic = t;
    let mut bytes_per_worker = 0u64;
    let mut bytes_per_level = vec![0u64; topo.num_levels()];
    // Width of each level's ring phase: the occupied level-(k-1)
    // components of one level-k component.
    let ring_widths: Vec<usize> = (1..=topo.num_levels())
        .map(|level| {
            let sub = topo.workers_per_component(level - 1);
            workers.div_ceil(sub).min(topo.arity(level))
        })
        .collect();
    for l in (0..n).rev() {
        t += costs.layers[l].bwd_s;
        let w = costs.layers[l].weight_bytes;
        if w > 0 {
            let depart = t.max(nic);
            nic = depart + topo.allreduce_time_spanning(&participants, w);
            bytes_per_worker += (2.0 * (workers as f64 - 1.0) / workers as f64 * w as f64) as u64;
            // Per-level wire traffic of the hierarchical all_reduce: each
            // spanned level carries the full gradient in its ring phase.
            for (slot, &m) in bytes_per_level.iter_mut().zip(&ring_widths) {
                if m > 1 {
                    *slot += (2.0 * (m as f64 - 1.0) * w as f64) as u64;
                }
            }
        }
    }
    let iteration = t.max(nic);
    DpResult {
        iteration_s: iteration,
        compute_s: compute,
        stall_s: iteration - compute,
        stall_fraction: (iteration - compute) / iteration,
        samples_per_sec: workers as f64 * costs.batch as f64 / iteration,
        bytes_per_worker,
        bytes_per_level,
    }
}

/// One iteration of asynchronous-parallel (ASP) data parallelism: gradient
/// pushes never block compute, so the iteration time is pure compute. The
/// price is statistical, not systems, efficiency, which nothing here
/// trains: `repro asp` prints the paper's measurement of it (§5.2).
pub fn simulate_asp_iteration(costs: &LayerCosts, workers: usize) -> DpResult {
    let compute = costs.total_compute_all();
    DpResult {
        iteration_s: compute,
        compute_s: compute,
        stall_s: 0.0,
        stall_fraction: 0.0,
        samples_per_sec: workers as f64 * costs.batch as f64 / compute,
        bytes_per_worker: 0,
        bytes_per_level: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipedream_hw::{ClusterPreset, Device, Precision, ServerKind};
    use pipedream_model::zoo;

    #[test]
    fn single_worker_has_no_stall() {
        let costs = zoo::vgg16().costs(&Device::v100(), 64, Precision::Fp32);
        let topo = ClusterPreset::B.with_servers(1);
        let r = simulate_dp(&costs, &topo, 1);
        assert_eq!(r.stall_s, 0.0);
        assert_eq!(r.bytes_per_worker, 0);
    }

    #[test]
    fn stall_grows_with_worker_count() {
        // Figure 1 takeaway 3: communication overheads increase with the
        // number of data-parallel workers.
        let costs = zoo::vgg16().costs(&Device::v100(), 64, Precision::Fp32);
        let topo = ServerKind::PcieV100x4.cluster(8); // 32 GPUs
        let s4 = simulate_dp(&costs, &topo, 4).stall_fraction;
        let s16 = simulate_dp(&costs, &topo, 16).stall_fraction;
        let s32 = simulate_dp(&costs, &topo, 32).stall_fraction;
        assert!(s4 < s16 && s16 <= s32 + 1e-9, "{s4} {s16} {s32}");
    }

    #[test]
    fn dense_models_stall_more_than_resnet() {
        // Figure 1 takeaway 1: DP scales well for ResNet-50 (compact conv
        // weights) but poorly for VGG/AWD-LM (dense FC/LSTM weights).
        let topo = ServerKind::PcieV100x4.cluster(4); // 16 GPUs
        let resnet = zoo::resnet50();
        let vgg = zoo::vgg16();
        let lm = zoo::awd_lm();
        let r = simulate_dp(
            &resnet.costs(&Device::v100(), 128, Precision::Fp32),
            &topo,
            16,
        );
        let v = simulate_dp(&vgg.costs(&Device::v100(), 64, Precision::Fp32), &topo, 16);
        let l = simulate_dp(&lm.costs(&Device::v100(), 80, Precision::Fp32), &topo, 16);
        assert!(
            v.stall_fraction > r.stall_fraction + 0.15,
            "vgg {} resnet {}",
            v.stall_fraction,
            r.stall_fraction
        );
        assert!(
            l.stall_fraction > r.stall_fraction + 0.15,
            "lm {} resnet {}",
            l.stall_fraction,
            r.stall_fraction
        );
    }

    #[test]
    fn crossing_servers_spikes_overhead() {
        // Figure 1 takeaway 2: overheads spike when scaling past one server
        // — sharpest for the dense-weight GNMT-8 on NVLink servers, where
        // intra-server sync is nearly free but Ethernet is not.
        let costs = zoo::gnmt8().costs(&Device::v100(), 64, Precision::Fp32);
        let topo = ServerKind::NvlinkV100x8.cluster(2);
        let within = simulate_dp(&costs, &topo, 8).stall_fraction;
        let across = simulate_dp(&costs, &topo, 16).stall_fraction;
        assert!(across > within + 0.2, "within {within} across {across}");
    }

    #[test]
    fn faster_gpus_increase_overhead() {
        // Figure 1 takeaway 4: from 1080 Ti to V100, communication
        // overheads increase (compute shrinks, bytes stay).
        let vgg = zoo::vgg16();
        let slow = vgg.costs(&Device::gtx_1080ti(), 64, Precision::Fp32);
        let fast = vgg.costs(&Device::v100(), 64, Precision::Fp32);
        // Same 25 Gbps inter-server fabric for both.
        let topo = ServerKind::Pcie1080Ti8.cluster(2);
        let s_slow = simulate_dp(&slow, &topo, 16).stall_fraction;
        let s_fast = simulate_dp(&fast, &topo, 16).stall_fraction;
        assert!(s_fast > s_slow, "fast {s_fast} slow {s_slow}");
    }

    #[test]
    fn fp16_has_higher_relative_overhead() {
        // Figure 12: mixed precision computes ~3× faster but only halves
        // the bytes, so the stall fraction grows.
        let gnmt = zoo::gnmt8();
        let topo = ServerKind::NvlinkV100x8.cluster(2);
        let fp32 = simulate_dp(&gnmt.costs(&Device::v100(), 64, Precision::Fp32), &topo, 16);
        let fp16 = simulate_dp(&gnmt.costs(&Device::v100(), 64, Precision::Fp16), &topo, 16);
        assert!(
            fp16.stall_fraction > fp32.stall_fraction,
            "fp16 {} fp32 {}",
            fp16.stall_fraction,
            fp32.stall_fraction
        );
    }

    #[test]
    fn dp_result_displays_stall() {
        let costs = zoo::vgg16().costs(&Device::v100(), 64, Precision::Fp32);
        let topo = ServerKind::PcieV100x4.cluster(4);
        let text = simulate_dp(&costs, &topo, 16).to_string();
        assert!(text.contains("stall"));
        assert!(text.contains("samples/s"));
    }

    #[test]
    fn asp_iteration_is_pure_compute() {
        let costs = zoo::gnmt8().costs(&Device::v100(), 64, Precision::Fp32);
        let r = simulate_asp_iteration(&costs, 16);
        assert_eq!(r.stall_s, 0.0);
        assert!((r.iteration_s - costs.total_compute_all()).abs() < 1e-12);
    }

    #[test]
    fn same_bytes_cross_fast_and_slow_levels() {
        // Figure 1 takeaway 2: "the same number of bytes are sent over both
        // high- and low-bandwidth channels" — DP's gradients traverse the
        // slow Ethernet level in full, no matter how fast NVLink is.
        let costs = zoo::vgg16().costs(&Device::v100(), 64, Precision::Fp32);
        let topo = ServerKind::NvlinkV100x8.cluster(2);
        let r = simulate_dp(&costs, &topo, 16);
        assert_eq!(r.bytes_per_level.len(), 2);
        assert!(r.bytes_per_level[0] > 0, "intra-server phase carries bytes");
        assert!(r.bytes_per_level[1] > 0, "inter-server phase carries bytes");
        // Single server: no inter-server traffic.
        let single = simulate_dp(&costs, &topo, 8);
        assert_eq!(single.bytes_per_level[1], 0);
    }

    #[test]
    fn wait_free_backprop_overlaps_some_communication() {
        // The stall must be smaller than total communication time (some of
        // it hides under backward compute).
        let costs = zoo::vgg16().costs(&Device::v100(), 64, Precision::Fp32);
        let topo = ServerKind::PcieV100x4.cluster(4);
        let r = simulate_dp(&costs, &topo, 16);
        let participants: Vec<usize> = (0..16).collect();
        let total_comm: f64 = costs
            .layers
            .iter()
            .filter(|l| l.weight_bytes > 0)
            .map(|l| topo.allreduce_time_spanning(&participants, l.weight_bytes))
            .sum();
        assert!(
            r.stall_s < total_comm,
            "stall {} comm {}",
            r.stall_s,
            total_comm
        );
        assert!(r.stall_s > 0.0);
    }
}
