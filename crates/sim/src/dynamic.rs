//! Dynamic pipeline execution: one policy, two clocks.
//!
//! The paper argues a *static* 1F1B-RR schedule suffices: it is "executed
//! without expensive distributed coordination" and keeps utilization high.
//! The static op lists come from stepping the 1F1B-RR policy
//! ([`Schedule::generate`]) on the canonical clock, where a backward takes
//! twice a forward. This module steps the *same* policy on the engine's
//! clock — the modelled compute, transfer and gradient-sync times — so
//! workers choose their work at run time, and the claim can be checked:
//! the static schedule's steady-state throughput matches the dynamic run's.
//! The two differ only in the timing the policy sees, and the op lists a
//! dynamic run chose replay through [`PipelineSim::run`](crate::PipelineSim)
//! to the same result, bit for bit.

use crate::engine::Engine;
use crate::pipeline::SimResult;
use pipedream_core::schedule::{Clock, Op, Schedule};
use pipedream_core::{PipelineConfig, ScheduleKind};
use pipedream_hw::Topology;
use pipedream_model::LayerCosts;

/// The engine as the policy's clock: an op starts when it is picked, a
/// forward not before the worker's synced weights, and its output arrives
/// when the engine delivers it (the output stage's loss at once).
impl Clock for Engine<'_> {
    fn run(&mut self, w: usize, at: f64, op: Op) -> (f64, f64) {
        let ready = match op {
            Op::Forward { .. } => at.max(self.worker(w).fwd_barrier),
            _ => at,
        };
        let sent = self.execute(w, ready, op);
        let free_at = self.worker(w).free_at;
        (free_at, sent.map_or(free_at, |(_, arrive)| arrive))
    }
}

/// Simulate `num_minibatches` through `config` with workers picking work
/// dynamically under the 1F1B-RR policy (backward priority, per-stage
/// in-flight caps, round-robin routing), timed by the engine.
pub fn simulate_dynamic(
    costs: &LayerCosts,
    topo: &Topology,
    config: &PipelineConfig,
    num_minibatches: u64,
) -> SimResult {
    config
        .validate(costs.num_layers())
        .expect("configuration covers the model");
    assert!(config.total_workers() <= topo.total_workers());
    // Replica `r` of `R` runs minibatches `r, r + R, …`.
    let passes = config.stages().iter().enumerate().flat_map(|(stage, s)| {
        let of = s.replicas as u64;
        (0..of).map(move |r| {
            let passes = num_minibatches.saturating_sub(r).div_ceil(of) as usize;
            (stage, passes, passes)
        })
    });
    let kind = ScheduleKind::Vanilla1F1B;
    let mut engine = Engine::new(costs, topo, config, kind, &[], num_minibatches, passes);
    let chosen = Schedule::generate(config, num_minibatches, config.noam(), true, &mut engine);
    engine.summarize(|w| chosen.peak_in_flight(w).max(1) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipedream_core::schedule::Schedule;
    use pipedream_hw::{Device, LinkModel, Precision};
    use pipedream_model::zoo;

    fn topo(n: usize) -> Topology {
        Topology::flat(Device::v100(), n, LinkModel::from_gbytes(10.0, 1e-6), "d")
    }

    #[test]
    fn dynamic_matches_static_on_balanced_pipeline() {
        // The paper's claim: a static schedule loses nothing vs dynamic
        // decisions. On a balanced 4-stage pipeline the steady-state rates
        // must agree closely.
        let profile = zoo::uniform(4, 2e9, 50_000, 100_000);
        let costs = profile.costs(&Device::v100(), 32, Precision::Fp32);
        let topo = topo(4);
        let config = PipelineConfig::straight(4, &[0, 1, 2]);
        let stat = crate::simulate_pipeline(&costs, &topo, &Schedule::one_f_one_b(&config, 64));
        let dynamic = simulate_dynamic(&costs, &topo, &config, 64);
        let ratio = stat.per_minibatch_s / dynamic.per_minibatch_s;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "static {} vs dynamic {}",
            stat.per_minibatch_s,
            dynamic.per_minibatch_s
        );
    }

    #[test]
    fn dynamic_matches_static_on_vgg_config() {
        let model = zoo::vgg16();
        let costs = model.costs(&Device::v100(), 64, Precision::Fp32);
        let topo = topo(4);
        let config = PipelineConfig::from_counts(&[(13, 3), (3, 1)]);
        let stat = crate::simulate_pipeline(&costs, &topo, &Schedule::one_f_one_b(&config, 48));
        let dynamic = simulate_dynamic(&costs, &topo, &config, 48);
        let ratio = stat.per_minibatch_s / dynamic.per_minibatch_s;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "static {} vs dynamic {}",
            stat.per_minibatch_s,
            dynamic.per_minibatch_s
        );
    }

    #[test]
    fn dynamic_conserves_bytes() {
        let profile = zoo::uniform(4, 1e9, 10_000, 10_000);
        let costs = profile.costs(&Device::v100(), 32, Precision::Fp32);
        let topo = topo(4);
        let config = PipelineConfig::straight(4, &[0, 1, 2]);
        let stat = crate::simulate_pipeline(&costs, &topo, &Schedule::one_f_one_b(&config, 32));
        let dynamic = simulate_dynamic(&costs, &topo, &config, 32);
        assert_eq!(stat.comm_bytes, dynamic.comm_bytes);
    }
}
