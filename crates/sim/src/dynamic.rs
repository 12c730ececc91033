//! Dynamic (policy-driven) pipeline execution.
//!
//! The paper argues a *static* 1F1B-RR schedule suffices: it is "executed
//! without expensive distributed coordination" and keeps utilization high.
//! This module provides the natural alternative — workers choose work
//! dynamically at run time (backward priority, NOAM admission) with the
//! real hardware timings — so the claim can be checked: the static
//! schedule's steady-state throughput matches the dynamic executor's.
//!
//! (The static generator in `pipedream-core` decides op *order* under
//! canonical 1:2 forward:backward timing; the dynamic executor decides
//! under the *actual* modelled timings. If stages are imbalanced in
//! unusual ways the two can diverge slightly — the test suite bounds the
//! gap.)

use crate::engine::Engine;
use crate::pipeline::SimResult;
use pipedream_core::estimates::in_flight_at_stage;
use pipedream_core::schedule::Op;
use pipedream_core::{PipelineConfig, ScheduleKind};
use pipedream_hw::Topology;
use pipedream_model::LayerCosts;
use std::collections::VecDeque;

/// Simulate `num_minibatches` through `config` with workers picking work
/// dynamically under the 1F1B-RR policy (backward priority, per-stage
/// in-flight caps, round-robin routing). The policy lives here; what an
/// op costs and causes is the engine's, shared with the static pass.
pub fn simulate_dynamic(
    costs: &LayerCosts,
    topo: &Topology,
    config: &PipelineConfig,
    num_minibatches: u64,
) -> SimResult {
    config
        .validate(costs.num_layers())
        .expect("configuration covers the model");
    let workers = config.total_workers();
    assert!(workers <= topo.total_workers());
    let stages = config.stages();

    // Per-worker policy state.
    struct W {
        stage: usize,
        in_flight: usize,
        cap: usize,
        fwd_ready: VecDeque<(u64, f64)>, // (mb, available time)
        bwd_ready: VecDeque<(u64, f64)>,
        next_admit: u64,
    }
    let r0 = stages[0].replicas;
    let mut ws: Vec<W> = (0..workers)
        .map(|w| {
            let (stage, replica) = config.stage_of_worker(w);
            W {
                stage,
                in_flight: 0,
                cap: in_flight_at_stage(config, stage),
                fwd_ready: VecDeque::new(),
                bwd_ready: VecDeque::new(),
                next_admit: replica as u64,
            }
        })
        .collect();
    let mut engine = Engine::new(
        costs,
        topo,
        config,
        ScheduleKind::Vanilla1F1B,
        &[],
        num_minibatches,
        ws.iter().map(|st| {
            let share = num_minibatches.div_ceil(stages[st.stage].replicas as u64) as usize;
            (st.stage, share, share)
        }),
    );
    let mut completed = 0u64;

    // Event-driven: repeatedly pick the worker that can start the earliest
    // op. The policy at each worker: earliest-available backward if any,
    // else earliest-available admissible forward.
    while completed < num_minibatches {
        // Choose (worker, op, start time) minimizing start time,
        // respecting per-worker policy (backward priority *at that worker*).
        let mut best: Option<(usize, Op, f64)> = None;
        for (w, st) in ws.iter().enumerate() {
            let (free_at, fwd_barrier) = (engine.worker(w).free_at, engine.worker(w).fwd_barrier);
            // Candidate at this worker, honoring backward priority: the
            // earliest-ready backward beats any forward *if it can start no
            // later than the worker would otherwise idle*; we approximate
            // the policy by preferring backward when both are ready at the
            // worker's free time, else taking whichever is ready sooner.
            let earliest =
                |q: &VecDeque<(u64, f64)>| q.iter().copied().min_by(|a, b| a.1.total_cmp(&b.1));
            let bwd = earliest(&st.bwd_ready).map(|(mb, t)| (Op::Backward { mb }, t.max(free_at)));
            let fwd = if st.in_flight >= st.cap {
                None
            } else if st.stage == 0 {
                (st.next_admit < num_minibatches).then_some((st.next_admit, fwd_barrier))
            } else {
                earliest(&st.fwd_ready).map(|(mb, t)| (mb, t.max(fwd_barrier)))
            };
            let fwd = fwd.map(|(mb, t)| (Op::Forward { mb }, t.max(free_at)));
            let cand = match (bwd, fwd) {
                (Some(b), Some(f)) => Some(if b.1 <= f.1 { b } else { f }),
                (b, f) => b.or(f),
            };
            if let Some((op, start)) = cand {
                if best.is_none_or(|(_, _, t)| start < t) {
                    best = Some((w, op, start));
                }
            }
        }
        let (w, op, ready) = best.expect("policy deadlock: no runnable op with work remaining");
        let sent = engine.execute(w, ready, op);
        match op {
            Op::Backward { mb } => {
                ws[w].bwd_ready.retain(|&(m, _)| m != mb);
                ws[w].in_flight -= 1;
                match sent {
                    Some((dst, arrive)) => ws[dst].bwd_ready.push_back((mb, arrive)),
                    None => completed += 1,
                }
            }
            Op::Forward { mb } => {
                ws[w].in_flight += 1;
                if ws[w].stage == 0 {
                    ws[w].next_admit += r0 as u64;
                } else {
                    ws[w].fwd_ready.retain(|&(m, _)| m != mb);
                }
                match sent {
                    Some((dst, arrive)) => ws[dst].fwd_ready.push_back((mb, arrive)),
                    // The output stage computes the loss right away.
                    None => ws[w].bwd_ready.push_back((mb, engine.worker(w).free_at)),
                }
            }
            Op::Flush => unreachable!("the policy never flushes"),
        }
    }
    engine.summarize(|w| ws[w].cap.max(1) as u64)
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
