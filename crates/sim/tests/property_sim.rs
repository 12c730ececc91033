//! Property-based tests for the discrete-event simulator.

use pipedream_core::schedule::{Op, Schedule, WorkerSchedule};
use pipedream_core::{PipelineConfig, StagePlan};
use pipedream_hw::{Device, LinkModel, Precision, Topology};
use pipedream_model::zoo;
use pipedream_sim::{simulate_dp, simulate_dynamic, simulate_pipeline, SimResult, WorkKind};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = PipelineConfig> {
    (1usize..=3, proptest::collection::vec(1usize..=3, 1..=3)).prop_map(
        |(layers_per_stage, reps)| {
            let mut stages = Vec::new();
            let mut first = 0;
            for &r in &reps {
                stages.push(StagePlan::new(first, first + layers_per_stage - 1, r));
                first += layers_per_stage;
            }
            PipelineConfig::new(stages)
        },
    )
}

/// The op lists a dynamic run chose, read back from its compute timeline
/// (every op takes time, so every op left an interval).
fn chosen_schedule(config: &PipelineConfig, n: u64, r: &SimResult) -> Schedule {
    let workers = r
        .timeline
        .per_worker
        .iter()
        .enumerate()
        .map(|(worker, row)| {
            let (stage, replica) = config.stage_of_worker(worker);
            let ops = row
                .iter()
                .map(|i| match i.kind {
                    WorkKind::Forward(mb) => Op::Forward { mb },
                    WorkKind::Backward(mb) => Op::Backward { mb },
                    other => panic!("compute row holds {other:?}"),
                })
                .collect();
            WorkerSchedule {
                worker,
                stage,
                replica,
                ops,
            }
        })
        .collect();
    Schedule {
        config: config.clone(),
        workers,
        num_minibatches: n,
    }
}

fn topo(workers: usize, gbytes: f64) -> Topology {
    Topology::flat(
        Device::v100(),
        workers,
        LinkModel::from_gbytes(gbytes, 1e-6),
        "prop",
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Conservation: every worker's busy time is within the makespan and
    /// per-minibatch time is positive and finite.
    #[test]
    fn conservation_laws(config in arb_config(), n in 4u64..24, flops_exp in 8.0f64..10.0) {
        let profile = zoo::uniform(config.num_layers(), 10f64.powf(flops_exp), 10_000, 50_000);
        let costs = profile.costs(&Device::v100(), 16, Precision::Fp32);
        let t = topo(config.total_workers(), 10.0);
        let r = simulate_pipeline(&costs, &t, &Schedule::one_f_one_b(&config, n));
        prop_assert!(r.per_minibatch_s.is_finite() && r.per_minibatch_s > 0.0);
        for w in 0..config.total_workers() {
            prop_assert!(r.timeline.busy(w) <= r.makespan + 1e-9);
        }
        prop_assert!(r.mean_utilization > 0.0 && r.mean_utilization <= 1.0 + 1e-9);
    }

    /// More bandwidth never slows a pipeline down.
    #[test]
    fn bandwidth_monotonicity(config in arb_config(), n in 8u64..24) {
        let profile = zoo::uniform(config.num_layers(), 1e9, 100_000, 200_000);
        let costs = profile.costs(&Device::v100(), 16, Precision::Fp32);
        let slow = simulate_pipeline(
            &costs,
            &topo(config.total_workers(), 0.5),
            &Schedule::one_f_one_b(&config, n),
        );
        let fast = simulate_pipeline(
            &costs,
            &topo(config.total_workers(), 50.0),
            &Schedule::one_f_one_b(&config, n),
        );
        prop_assert!(
            fast.per_minibatch_s <= slow.per_minibatch_s * 1.0001,
            "fast {} slow {}",
            fast.per_minibatch_s,
            slow.per_minibatch_s
        );
    }

    /// DP stall fraction is in [0, 1) and iteration ≥ compute.
    #[test]
    fn dp_invariants(workers in 1usize..8, flops_exp in 8.0f64..11.0, weights in 1_000u64..10_000_000) {
        let profile = zoo::uniform(5, 10f64.powf(flops_exp), 10_000, weights);
        let costs = profile.costs(&Device::v100(), 16, Precision::Fp32);
        let t = topo(workers.max(1), 5.0);
        let r = simulate_dp(&costs, &t, workers.max(1));
        prop_assert!(r.iteration_s >= r.compute_s - 1e-12);
        prop_assert!((0.0..1.0).contains(&r.stall_fraction));
        prop_assert!(r.samples_per_sec > 0.0);
    }

    /// The static 1F1B schedule's throughput stays within 15% of the
    /// dynamic policy executor across random uniform pipelines — the
    /// paper's static-schedule-suffices claim.
    #[test]
    fn static_schedule_tracks_dynamic_policy(
        stages in 2usize..5,
        n in 16u64..48,
        flops_exp in 8.5f64..10.0,
    ) {
        let config = PipelineConfig::straight(stages, &(0..stages - 1).collect::<Vec<_>>());
        let profile = zoo::uniform(stages, 10f64.powf(flops_exp), 20_000, 50_000);
        let costs = profile.costs(&Device::v100(), 16, Precision::Fp32);
        let t = topo(stages, 10.0);
        let stat = simulate_pipeline(&costs, &t, &Schedule::one_f_one_b(&config, n));
        let dynamic = simulate_dynamic(&costs, &t, &config, n);
        let ratio = stat.per_minibatch_s / dynamic.per_minibatch_s;
        prop_assert!(
            (0.85..=1.15).contains(&ratio),
            "static {} dynamic {}",
            stat.per_minibatch_s,
            dynamic.per_minibatch_s
        );
    }

    /// A dynamic run is the static pass over the op lists it chose: engine
    /// times depend only on each worker's op order and its messages'
    /// arrivals, and the policy starts an op the moment both allow it.
    #[test]
    fn dynamic_run_equals_a_replay_of_its_choice(
        config in arb_config(),
        n in 1u64..40,
        flops_exp in 8.0f64..10.0,
        gbytes in 0.05f64..20.0,
    ) {
        let profile = zoo::uniform(config.num_layers(), 10f64.powf(flops_exp), 200_000, 2_000_000);
        let costs = profile.costs(&Device::v100(), 16, Precision::Fp32);
        let t = topo(config.total_workers(), gbytes);
        let dynamic = simulate_dynamic(&costs, &t, &config, n);
        let chosen = chosen_schedule(&config, n, &dynamic);
        chosen.validate().map_err(TestCaseError::fail)?;
        let replay = simulate_pipeline(&costs, &t, &chosen);
        prop_assert_eq!(&replay.timeline, &dynamic.timeline);
        prop_assert_eq!(&replay.comm_timeline, &dynamic.comm_timeline);
        for (name, a, b) in [
            ("makespan", replay.makespan, dynamic.makespan),
            ("per_minibatch_s", replay.per_minibatch_s, dynamic.per_minibatch_s),
            ("samples_per_sec", replay.samples_per_sec, dynamic.samples_per_sec),
            ("mean_utilization", replay.mean_utilization, dynamic.mean_utilization),
        ] {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "{} {} vs {}", name, a, b);
        }
        prop_assert_eq!(replay.comm_bytes, dynamic.comm_bytes);
        prop_assert_eq!(&replay.peak_memory_bytes, &dynamic.peak_memory_bytes);
    }

    /// Throughput scales with device speed: doubling sustained FLOPs on a
    /// compute-bound pipeline roughly halves per-minibatch time.
    #[test]
    fn device_speed_scaling(config in arb_config(), n in 8u64..24) {
        let profile = zoo::uniform(config.num_layers(), 1e10, 1_000, 1_000);
        let slow_dev = Device { name: "slow".into(), peak_flops: 5e12, efficiency: 0.9, mem_bytes: 16 << 30 };
        let fast_dev = Device { name: "fast".into(), peak_flops: 10e12, efficiency: 0.9, mem_bytes: 16 << 30 };
        let w = config.total_workers();
        let link = LinkModel::from_gbytes(100.0, 0.0);
        let t_slow = Topology::flat(slow_dev.clone(), w, link, "s");
        let t_fast = Topology::flat(fast_dev.clone(), w, link, "f");
        let c_slow = profile.costs(&slow_dev, 16, Precision::Fp32);
        let c_fast = profile.costs(&fast_dev, 16, Precision::Fp32);
        let r_slow = simulate_pipeline(&c_slow, &t_slow, &Schedule::one_f_one_b(&config, n));
        let r_fast = simulate_pipeline(&c_fast, &t_fast, &Schedule::one_f_one_b(&config, n));
        let ratio = r_slow.per_minibatch_s / r_fast.per_minibatch_s;
        prop_assert!((1.8..=2.2).contains(&ratio), "speed ratio {ratio}");
    }
}

/// A dynamic run reserves each timeline row for exactly the intervals its
/// worker records: replica `r` of `R` runs `(n − r) / R` passes, rounded up.
#[test]
fn dynamic_rows_are_reserved_exactly() {
    let costs = zoo::uniform(3, 1e9, 10_000, 10_000).costs(&Device::v100(), 32, Precision::Fp32);
    let configs = [
        PipelineConfig::straight(3, &[0, 1]),
        PipelineConfig::from_counts(&[(1, 1), (1, 2), (1, 1)]),
        PipelineConfig::from_counts(&[(3, 4)]),
    ];
    for config in &configs {
        for n in [1, 2, 3, 49, 50] {
            let r = simulate_dynamic(&costs, &topo(4, 10.0), config, n);
            for (name, timeline) in [("compute", &r.timeline), ("comm", &r.comm_timeline)] {
                for (w, row) in timeline.per_worker.iter().enumerate() {
                    assert_eq!(
                        row.len(),
                        row.capacity(),
                        "{config} x{n}: {name} row of worker {w}"
                    );
                }
            }
        }
    }
}
