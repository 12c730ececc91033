//! Property-based tests (proptest) over the core data structures and
//! invariants — DESIGN.md §7.

use pipedream::core::schedule::{Op, Schedule};
use pipedream::core::stash::{VersionPolicy, VersionStore};
use pipedream::core::{PipelineConfig, Planner, StagePlan};
use pipedream::hw::{Device, LinkModel, Precision, Topology};
use pipedream::model::zoo;
use pipedream::sim::simulate_pipeline;
use proptest::prelude::*;

/// Arbitrary small pipeline configurations: 1–4 stages over 4–10 layers,
/// 1–3 replicas each.
fn arb_config() -> impl Strategy<Value = PipelineConfig> {
    (2usize..=4, proptest::collection::vec(1usize..=3, 1..=4)).prop_map(
        |(layers_per_stage, replica_counts)| {
            let mut stages = Vec::new();
            let mut first = 0usize;
            for &r in &replica_counts {
                stages.push(StagePlan::new(first, first + layers_per_stage - 1, r));
                first += layers_per_stage;
            }
            PipelineConfig::new(stages)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every generated 1F1B-RR schedule satisfies the legality invariants
    /// (per-worker F-before-B, round-robin ownership, full coverage).
    #[test]
    fn one_f_one_b_schedules_are_legal(config in arb_config(), n in 1u64..40) {
        let s = Schedule::one_f_one_b(&config, n);
        prop_assert!(s.validate().is_ok(), "{:?}", s.validate());
    }

    /// The realized in-flight depth never exceeds the §3.3 bound:
    /// stage s stashes at most ⌈workers-from-s / replicas_s⌉ minibatches.
    #[test]
    fn in_flight_respects_memory_bound(config in arb_config(), n in 1u64..40) {
        let s = Schedule::one_f_one_b(&config, n);
        for w in 0..config.total_workers() {
            let (stage, _) = config.stage_of_worker(w);
            let bound = pipedream::core::estimates::in_flight_at_stage(&config, stage);
            prop_assert!(
                s.peak_in_flight(w) <= bound,
                "worker {w} (stage {stage}): {} > {bound}",
                s.peak_in_flight(w)
            );
        }
    }

    /// GPipe schedules respect flush-group structure: between consecutive
    /// flushes every forward precedes every backward.
    #[test]
    fn gpipe_groups_are_well_formed(stages in 2usize..5, n in 1u64..30, m in 1u64..8) {
        let config = PipelineConfig::straight(stages, &(0..stages-1).collect::<Vec<_>>());
        let s = Schedule::gpipe(&config, n, m);
        prop_assert!(s.validate().is_ok());
        for ws in &s.workers {
            let mut seen_bwd_in_group = false;
            for op in &ws.ops {
                match op {
                    Op::Forward { .. } => prop_assert!(!seen_bwd_in_group, "F after B within a group"),
                    Op::Backward { .. } => seen_bwd_in_group = true,
                    Op::Flush => seen_bwd_in_group = false,
                }
            }
        }
    }

    /// Weight stash: the backward version always equals the forward
    /// version, no matter how updates interleave.
    #[test]
    fn stash_backward_version_equals_forward(ops in proptest::collection::vec(0u8..3, 1..60)) {
        let mut live = 0u64; // the weights themselves, which the store never owns
        let mut stash = VersionStore::new(VersionPolicy::Stashing);
        let mut next_fwd = 0u64;
        let mut in_flight: Vec<(u64, u64)> = Vec::new(); // (mb, version at fwd)
        for op in ops {
            match op {
                0 => {
                    let v = stash.live();
                    stash.begin_forward(next_fwd, 0).expect("the live version is there");
                    in_flight.push((next_fwd, v));
                    next_fwd += 1;
                }
                1 if !in_flight.is_empty() => {
                    let (mb, v) = in_flight.remove(0);
                    prop_assert_eq!(stash.version_for(mb), v);
                    stash.complete_backward(mb);
                }
                _ => {
                    stash.advance(|_| live);
                    live += 1;
                }
            }
            // Memory bound: versions held ≤ in-flight + 1 (§3.3).
            prop_assert!(stash.versions_held() <= in_flight.len() + 1);
        }
    }

    /// The planner's chosen bottleneck is a lower bound achievable by the
    /// simulator within a modest tolerance for any uniform model, and its
    /// config always uses every worker.
    #[test]
    fn planner_configs_are_complete_and_simulable(
        layers in 3usize..8,
        workers in 1usize..5,
        flops_exp in 8.0f64..10.0,
    ) {
        let profile = zoo::uniform(layers, 10f64.powf(flops_exp), 10_000, 100_000);
        let topo = Topology::flat(Device::v100(), workers, LinkModel::from_gbytes(8.0, 1e-5), "p");
        let plan = Planner::new(&profile, &topo).try_plan().expect("plan");
        prop_assert_eq!(plan.config.total_workers(), workers);
        prop_assert!(plan.config.validate(layers).is_ok());
        let costs = profile.costs(&topo.device, profile.default_batch, Precision::Fp32);
        let sim = simulate_pipeline(&costs, &topo, &Schedule::one_f_one_b(&plan.config, 24));
        // The simulator adds NIC serialization and sync barriers, so it can
        // only be moderately slower than the analytic bound — never faster
        // than 1.05× the prediction.
        prop_assert!(sim.per_minibatch_s >= plan.bottleneck_s * 0.95,
            "sim {} faster than planner bound {}", sim.per_minibatch_s, plan.bottleneck_s);
    }

    /// Round-robin routing: forward and backward of a minibatch land on
    /// the same worker in every generated schedule.
    #[test]
    fn rr_routes_fwd_and_bwd_to_same_worker(config in arb_config(), n in 1u64..30) {
        let s = Schedule::one_f_one_b(&config, n);
        for ws in &s.workers {
            let fwds: std::collections::HashSet<u64> = ws.ops.iter()
                .filter_map(|o| match o { Op::Forward { mb } => Some(*mb), _ => None })
                .collect();
            for op in &ws.ops {
                if let Op::Backward { mb } = op {
                    prop_assert!(fwds.contains(mb),
                        "worker {} backward {mb} without its forward", ws.worker);
                }
            }
        }
    }
}

mod runtime_properties {
    use pipedream::core::PipelineConfig;
    use pipedream::runtime::{
        train_pipeline, train_sequential, LrSchedule, OptimKind, Semantics, TrainOpts,
    };
    use pipedream::tensor::data::blobs;
    use pipedream::tensor::init::rng;
    use pipedream::tensor::layers::{Linear, Relu, Tanh};
    use pipedream::tensor::Sequential;
    use proptest::prelude::*;

    fn mlp(seed: u64) -> Sequential {
        let mut r = rng(seed);
        Sequential::new("prop-mlp")
            .push(Linear::new(6, 24, &mut r))
            .push(Tanh::new())
            .push(Linear::new(24, 24, &mut r))
            .push(Relu::new())
            .push(Linear::new(24, 24, &mut r))
            .push(Linear::new(24, 3, &mut r))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// For any stage split of the 6-layer MLP, pipelined training with
        /// weight stashing completes, reports every epoch, and lands within
        /// a loose band of sequential SGD's final loss.
        #[test]
        fn any_split_trains_close_to_sequential(
            b1 in 1usize..5,
            seed in 0u64..1000,
        ) {
            let data = blobs(128, 6, 3, 0.6, seed);
            let opts = TrainOpts {
                epochs: 4,
                batch: 16,
                optim: OptimKind::Sgd { lr: 0.05, momentum: 0.0 },
                semantics: Semantics::Stashed,
                lr_schedule: LrSchedule::Constant,
                checkpoint_dir: None,
                checkpoint_every: None,
                resume: false,
                depth: None,
                obs: None,
                ..TrainOpts::default()
            };
            let config = PipelineConfig::straight(6, &[b1]);
            let (_, seq) = train_sequential(mlp(seed), &data, &opts);
            let (_, pipe) = train_pipeline(mlp(seed), &config, &data, &opts);
            prop_assert_eq!(pipe.per_epoch.len(), 4);
            prop_assert!(pipe.final_loss().is_finite());
            // Staleness ≤ 1 step at lr 0.05: stays near sequential.
            prop_assert!(
                pipe.final_loss() < seq.final_loss() + 0.3,
                "pipe {} vs seq {}",
                pipe.final_loss(),
                seq.final_loss()
            );
        }
    }
}
