//! Equivalence is the engine's spec.
//!
//! An op's start and end depend only on its own worker's previous op and
//! on the arrival of its message, so every dependency-respecting order of
//! resolving a schedule yields the same floats. `reference` below is the
//! naive way to do that — re-poll every worker until a whole pass makes no
//! progress, with hash-map arrival tables keyed by `(worker, minibatch)` —
//! and `PipelineSim::run` must agree with it bit for bit.

use pipedream_core::schedule::{keeps_activations, Op, Schedule, WorkerSchedule};
use pipedream_core::{PipelineConfig, Planner, ScheduleKind, StagePlan};
use pipedream_hw::{ClusterPreset, Device, Level, LinkModel, Precision, Topology};
use pipedream_model::{zoo, LayerCosts};
use pipedream_sim::{PipelineSim, SimResult, Timeline, WorkKind};
use proptest::prelude::*;
use std::collections::HashMap;

/// The naive resolver: a fixpoint over whole-cluster passes.
fn reference(
    costs: &LayerCosts,
    topo: &Topology,
    schedule: &Schedule,
    kind: ScheduleKind,
    speeds: &[f64],
) -> SimResult {
    let config = &schedule.config;
    let (workers, stages) = (config.total_workers(), config.stages());
    let assignment = config.worker_assignment();
    let group = config.two_bw_group(config.noam());
    let n = schedule.num_minibatches;
    let layers = |s: &StagePlan| &costs.layers[s.first_layer..=s.last_layer];
    let weights = |s: &StagePlan| costs.weight_bytes(s.first_layer, s.last_layer);
    let mut avail_fwd: HashMap<(usize, u64), f64> = HashMap::new();
    let mut avail_bwd: HashMap<(usize, u64), f64> = HashMap::new();
    let (mut free, mut nic, mut barrier) = (
        vec![0.0f64; workers],
        vec![0.0; workers],
        vec![0.0; workers],
    );
    let mut next_op = vec![0usize; workers];
    let (mut timeline, mut comm) = (Timeline::new(workers), Timeline::new(workers));
    let (mut comm_bytes, mut stage0_done) = (0u64, Vec::new());
    let mut progress = true;
    while std::mem::take(&mut progress) {
        for w in 0..workers {
            let ws = &schedule.workers[w];
            let stage = ws.stage;
            while let Some(&op) = ws.ops.get(next_op[w]) {
                let ready = match op {
                    Op::Forward { .. } if stage == 0 => Some(barrier[w]),
                    Op::Forward { mb } => avail_fwd.get(&(w, mb)).map(|&t| t.max(barrier[w])),
                    Op::Backward { .. } if stage == stages.len() - 1 => Some(0.0),
                    Op::Backward { mb } => avail_bwd.get(&(w, mb)).copied(),
                    Op::Flush => Some(0.0),
                };
                let Some(ready) = ready else { break };
                let fwd: f64 = layers(&stages[stage]).iter().map(|l| l.fwd_s).sum();
                let bwd: f64 = layers(&stages[stage]).iter().map(|l| l.bwd_s).sum();
                // A backward recomputes only what its forward dropped: not
                // when it runs right after that forward.
                let kept = next_op[w]
                    .checked_sub(1)
                    .is_some_and(|i| keeps_activations(ws.ops[i], op));
                let dur = match op {
                    Op::Forward { .. } => fwd,
                    Op::Backward { .. } if kind.uses_recompute() && !kept => bwd + fwd,
                    Op::Backward { .. } => bwd,
                    Op::Flush => 0.0,
                } / speeds.get(w).copied().unwrap_or(1.0);
                let start = ready.max(free[w]);
                let end = start + dur;
                free[w] = end;
                if dur > 0.0 {
                    timeline.record(w, start, end, WorkKind::from_op(op));
                }
                next_op[w] += 1;
                progress = true;
                if let Op::Backward { mb } = op {
                    let r = stages[stage].replicas;
                    let next = mb + r as u64;
                    let syncs_now = !kind.uses_two_bw()
                        || (next / group > mb / group || next >= n)
                            && (mb / group + 1) * group <= n;
                    if r > 1 && syncs_now {
                        let sync = topo
                            .allreduce_time_spanning(&assignment[stage], weights(&stages[stage]));
                        let depart = start.max(nic[w]);
                        nic[w] = depart + sync;
                        barrier[w] = depart + sync;
                        comm.record(w, depart, depart + sync, WorkKind::Sync);
                        comm_bytes += (2.0 * (r as f64 - 1.0) / r as f64
                            * weights(&stages[stage]) as f64)
                            as u64;
                    }
                }
                let mut send = |forward: bool, mb: u64| {
                    let to = if forward { stage + 1 } else { stage - 1 };
                    let dst = assignment[to][config.replica_for(to, mb)];
                    let bytes = costs.activation_bytes(stages[stage.min(to)].last_layer);
                    let link = topo.link_between(w, dst).expect("distinct workers");
                    let depart = end.max(nic[w]);
                    nic[w] = depart + bytes as f64 / link.bandwidth_bytes_per_sec;
                    let arrive = depart + link.transfer_time(bytes);
                    comm.record(w, depart, arrive, WorkKind::Sync);
                    comm_bytes += bytes;
                    let table = if forward {
                        &mut avail_fwd
                    } else {
                        &mut avail_bwd
                    };
                    table.insert((dst, mb), arrive);
                };
                match op {
                    Op::Forward { mb } if stage + 1 < stages.len() => send(true, mb),
                    Op::Backward { mb } if stage > 0 => send(false, mb),
                    Op::Backward { .. } => stage0_done.push(end),
                    _ => {}
                }
            }
        }
    }
    for (w, done) in next_op.iter().enumerate() {
        assert_eq!(
            *done,
            schedule.workers[w].ops.len(),
            "worker {w} deadlocked at op {done}"
        );
    }
    let makespan = timeline.makespan();
    stage0_done.sort_by(f64::total_cmp);
    let done = stage0_done.len();
    let per_minibatch_s = if done >= 4 {
        let (lo, hi) = (done / 4, 3 * done / 4);
        (stage0_done[hi] - stage0_done[lo]) / (hi - lo) as f64
    } else {
        makespan / done.max(1) as f64
    };
    let peak_memory_bytes = (0..workers)
        .map(|w| {
            let s = &stages[schedule.workers[w].stage];
            let in_flight = schedule.peak_in_flight(w).max(1) as u64;
            let versions = if kind.uses_two_bw() {
                in_flight.min(2)
            } else {
                in_flight
            };
            let acts: u64 = (s.first_layer..=s.last_layer)
                .map(|l| costs.activation_bytes(l))
                .sum();
            let input = costs.activation_bytes(s.first_layer.saturating_sub(1));
            let act_term = if kind.uses_recompute() {
                in_flight * input + acts
            } else {
                in_flight * acts
            };
            versions * weights(s) + act_term
        })
        .collect();
    SimResult {
        // Worker by worker, each against a freshly scanned makespan.
        mean_utilization: (0..workers).map(|w| timeline.utilization(w)).sum::<f64>()
            / workers as f64,
        samples_per_sec: costs.batch as f64 / per_minibatch_s,
        per_minibatch_s,
        makespan,
        comm_bytes,
        timeline,
        comm_timeline: comm,
        peak_memory_bytes,
    }
}

fn assert_bit_identical(got: &SimResult, want: &SimResult, what: &str) {
    assert_eq!(got.timeline, want.timeline, "{what}: timeline");
    assert_eq!(
        got.comm_timeline, want.comm_timeline,
        "{what}: comm_timeline"
    );
    for (name, g, w) in [
        ("makespan", got.makespan, want.makespan),
        ("per_minibatch_s", got.per_minibatch_s, want.per_minibatch_s),
        ("samples_per_sec", got.samples_per_sec, want.samples_per_sec),
        (
            "mean_utilization",
            got.mean_utilization,
            want.mean_utilization,
        ),
    ] {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: {name} {g} vs {w}");
    }
    assert_eq!(got.comm_bytes, want.comm_bytes, "{what}: comm_bytes");
    assert_eq!(
        got.peak_memory_bytes, want.peak_memory_bytes,
        "{what}: peak memory"
    );
}

fn engine(
    costs: &LayerCosts,
    topo: &Topology,
    schedule: &Schedule,
    kind: ScheduleKind,
    speeds: &[f64],
) -> SimResult {
    let sim = PipelineSim::new(costs, topo, schedule).with_schedule(kind);
    if speeds.is_empty() {
        sim.run()
    } else {
        sim.with_worker_speeds(speeds.to_vec()).run()
    }
}

/// SplitMix64: the case's secondary draws (layer costs, speeds, topology
/// shape) all come from the one generated seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn engine_matches_naive_reference(
        replicas in proptest::collection::vec(1usize..=4, 1..=12),
        n in 1u64..=96,
        kind in 0usize..4,
        generator in 0usize..5,
        slow_link in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut mix = Mix(seed);
        // GPipe schedules exist for straight pipelines only.
        let replicas: Vec<usize> = if generator == 1 { vec![1; replicas.len()] } else { replicas };
        let mut stages = Vec::new();
        let mut first = 0;
        for &r in &replicas {
            let layers = 1 + (mix.next() % 2) as usize;
            stages.push(StagePlan::new(first, first + layers - 1, r));
            first += layers;
        }
        let config = PipelineConfig::new(stages);
        let mut costs = zoo::uniform(first, 1e9, 20_000, 200_000)
            .costs(&Device::v100(), 16, Precision::Fp32);
        for l in &mut costs.layers {
            let f = 0.5 + mix.unit();
            l.fwd_s *= f;
            l.bwd_s *= 0.5 + mix.unit();
            l.activation_bytes = (l.activation_bytes as f64 * f) as u64;
        }
        let workers = config.total_workers();
        let (inner, outer) = if slow_link {
            (LinkModel::from_gbytes(0.05, 2e-5), LinkModel::from_gbps(0.1, 1e-4))
        } else {
            (LinkModel::new(1e13, 0.0), LinkModel::from_gbytes(10.0, 1e-6))
        };
        // Flat, or servers of four so replicated stages span two levels.
        let topo = if mix.next() & 1 == 0 {
            Topology::flat(Device::v100(), workers, inner, "flat")
        } else {
            Topology::new(Device::v100(), vec![
                Level { name: "intra".into(), arity: 4, link: inner },
                Level { name: "inter".into(), arity: workers.div_ceil(4), link: outer },
            ])
        };
        let schedule = match generator {
            0 => Schedule::one_f_one_b(&config, n),
            1 => Schedule::gpipe(&config, n, 1 + mix.next() % 8),
            2 => Schedule::model_parallel(&config, n),
            3 => Schedule::forward_priority(&config, n),
            _ => Schedule::with_depth(&config, n, 1 + (mix.next() % 6) as usize),
        };
        let speeds: Vec<f64> = if mix.next() & 1 == 0 {
            Vec::new()
        } else {
            (0..workers).map(|_| 0.25 + 1.5 * mix.unit()).collect()
        };
        let kind = ScheduleKind::all()[kind];
        let want = reference(&costs, &topo, &schedule, kind, &speeds);
        let got = engine(&costs, &topo, &schedule, kind, &speeds);
        assert_bit_identical(&got, &want, &format!("{config} x{n} {kind} generator {generator}"));
    }
}

fn straight(stages: usize) -> (LayerCosts, Topology, PipelineConfig) {
    let costs =
        zoo::uniform(stages, 1e9, 10_000, 10_000).costs(&Device::v100(), 32, Precision::Fp32);
    let topo = Topology::flat(Device::v100(), stages, LinkModel::new(1e11, 1e-6), "deep");
    let config = PipelineConfig::straight(stages, &(0..stages - 1).collect::<Vec<_>>());
    (costs, topo, config)
}

/// The shapes on which a whole-cluster pass advances one stage, so the
/// naive resolver needs O(minibatches × stages) passes.
#[test]
fn deep_pipelines_match_reference() {
    let (costs, topo, config) = straight(256);
    let mp = Schedule::model_parallel(&config, 64);
    let kind = ScheduleKind::Vanilla1F1B;
    assert_bit_identical(
        &engine(&costs, &topo, &mp, kind, &[]),
        &reference(&costs, &topo, &mp, kind, &[]),
        "256-stage model_parallel",
    );
    let (costs, topo, config) = straight(512);
    let ofob = Schedule::one_f_one_b(&config, 64);
    assert_bit_identical(
        &engine(&costs, &topo, &ofob, kind, &[]),
        &reference(&costs, &topo, &ofob, kind, &[]),
        "512-stage one_f_one_b",
    );
}

fn hand_built(config: &PipelineConfig, ops: Vec<Vec<Op>>, num_minibatches: u64) -> Schedule {
    let workers = ops
        .into_iter()
        .enumerate()
        .map(|(worker, ops)| {
            let (stage, replica) = config.stage_of_worker(worker);
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
        num_minibatches,
    }
}

#[test]
#[should_panic(expected = "worker 0 deadlocked at op 0")]
fn backward_before_its_forward_deadlocks() {
    let (costs, topo, config) = straight(2);
    let (f, b) = (Op::Forward { mb: 0 }, Op::Backward { mb: 0 });
    let schedule = hand_built(&config, vec![vec![b, f], vec![f, b]], 1);
    PipelineSim::new(&costs, &topo, &schedule).run();
}

/// A message goes to the replica 1F1B-RR routes it to; the other replica
/// waiting for it is a deadlock, not a delivery.
#[test]
#[should_panic(expected = "worker 2 deadlocked at op 0")]
fn misrouted_forward_deadlocks() {
    let costs = zoo::uniform(2, 1e9, 10_000, 10_000).costs(&Device::v100(), 32, Precision::Fp32);
    let topo = Topology::flat(Device::v100(), 3, LinkModel::new(1e11, 1e-6), "rr");
    let config = PipelineConfig::from_counts(&[(1, 1), (1, 2)]);
    let (f, b) = (Op::Forward { mb: 0 }, Op::Backward { mb: 0 });
    // Minibatch 0 belongs to replica 0 of stage 1 (worker 1), not worker 2.
    let schedule = hand_built(&config, vec![vec![f, b], vec![f, b], vec![f, b]], 1);
    PipelineSim::new(&costs, &topo, &schedule).run();
}

/// `per_minibatch_s` on runs too short for a middle half: the makespan
/// over the minibatches that finished, or the makespan itself when none
/// did (a forward-only schedule).
#[test]
fn per_minibatch_fallback_on_tiny_runs() {
    let (costs, topo, config) = straight(2);
    for n in 1..=3u64 {
        let r = PipelineSim::new(&costs, &topo, &Schedule::one_f_one_b(&config, n)).run();
        assert_eq!(
            r.per_minibatch_s.to_bits(),
            (r.makespan / n as f64).to_bits(),
            "{n} minibatches"
        );
    }
    let f = |mb| Op::Forward { mb };
    let forward_only = hand_built(&config, vec![vec![f(0), f(1)], vec![f(0), f(1)]], 2);
    let r = PipelineSim::new(&costs, &topo, &forward_only).run();
    assert!(r.makespan > 0.0);
    assert_eq!(r.per_minibatch_s.to_bits(), r.makespan.to_bits());
    assert_bit_identical(
        &r,
        &reference(&costs, &topo, &forward_only, ScheduleKind::Vanilla1F1B, &[]),
        "forward-only",
    );
}

/// Pins taken from the fixpoint engine before it was replaced: the 8 zoo
/// models × presets A/B at 4 servers × the 4 schedule kinds, planner's
/// configuration, 256 minibatches; the `recompute` and `2bw-recompute`
/// rows re-taken once a backward right after its own forward stopped
/// paying for a recompute (the `vanilla` and `2bw` rows did not move).
/// Columns: model, preset, kind, makespan bits, per_minibatch_s bits,
/// mean_utilization bits, comm_bytes, max peak_memory_bytes, interval
/// count.
const PINS: &str = include_str!("engine_pins.tsv");

#[test]
fn golden_pins_hold() {
    let mut table = String::new();
    for (model, preset, costs, topo, config) in planned_population() {
        let schedule = Schedule::one_f_one_b(&config, 256);
        for kind in ScheduleKind::all() {
            let r = engine(&costs, &topo, &schedule, kind, &[]);
            let intervals: usize = [&r.timeline, &r.comm_timeline]
                .iter()
                .flat_map(|t| t.per_worker.iter().map(Vec::len))
                .sum();
            table.push_str(&format!(
                "{model}\t{preset}\t{kind}\t{:016x}\t{:016x}\t{:016x}\t{}\t{}\t{intervals}\n",
                r.makespan.to_bits(),
                r.per_minibatch_s.to_bits(),
                r.mean_utilization.to_bits(),
                r.comm_bytes,
                r.peak_memory_bytes
                    .iter()
                    .max()
                    .expect("at least one worker"),
            ));
        }
    }
    assert_eq!(table.lines().count(), 64);
    for (got, want) in table.lines().zip(PINS.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(table, PINS, "computed table:\n{table}");
}

/// The planner's configuration for each of the 8 zoo models on presets A
/// and B at 4 servers: shallow, mostly replicated, what `best_plan` and the
/// replan advisor simulate.
fn planned_population() -> Vec<(String, &'static str, LayerCosts, Topology, PipelineConfig)> {
    let mut models = zoo::all_models();
    models.push(zoo::huge_lm());
    let mut population = Vec::new();
    for profile in &models {
        for preset in [ClusterPreset::A, ClusterPreset::B] {
            let topo = preset.with_servers(4);
            let plan = Planner::new(profile, &topo)
                .try_plan()
                .expect("zoo models plan");
            let costs = profile.costs(&topo.device, profile.default_batch, Precision::Fp32);
            population.push((
                profile.name.clone(),
                preset.name(),
                costs,
                topo,
                plan.config,
            ));
        }
    }
    population
}

/// The ledger's `sim-plans` population, whole: every sync of every
/// replicated stage against a reference that asks the topology each time.
#[test]
fn planned_configs_match_reference() {
    for (model, preset, costs, topo, config) in planned_population() {
        let schedule = Schedule::one_f_one_b(&config, 2048);
        for kind in ScheduleKind::all() {
            assert_bit_identical(
                &engine(&costs, &topo, &schedule, kind, &[]),
                &reference(&costs, &topo, &schedule, kind, &[]),
                &format!("{model} on {preset} as {config} under {kind}"),
            );
        }
    }
}

/// Each timeline row is allocated once, for exactly the intervals its
/// worker records: a row that ends with spare or regrown capacity means
/// the engine's count of passes, sends and syncs is off.
#[test]
fn timeline_rows_are_reserved_exactly() {
    let costs = zoo::uniform(3, 1e9, 10_000, 10_000).costs(&Device::v100(), 32, Precision::Fp32);
    let topo = Topology::flat(Device::v100(), 4, LinkModel::new(1e11, 1e-6), "rows");
    let configs = [
        PipelineConfig::straight(3, &[0, 1]),
        PipelineConfig::from_counts(&[(1, 1), (1, 2), (1, 1)]),
        PipelineConfig::from_counts(&[(3, 4)]),
    ];
    for config in &configs {
        // 50 minibatches leave a partial 2BW update group at the end.
        let schedule = Schedule::one_f_one_b(config, 50);
        for kind in [ScheduleKind::Vanilla1F1B, ScheduleKind::TwoBW] {
            let r = engine(&costs, &topo, &schedule, kind, &[]);
            for (name, timeline) in [("compute", &r.timeline), ("comm", &r.comm_timeline)] {
                for (w, row) in timeline.per_worker.iter().enumerate() {
                    assert_eq!(
                        row.len(),
                        row.capacity(),
                        "{config} under {kind}: {name} row of worker {w}"
                    );
                }
            }
        }
    }
}
