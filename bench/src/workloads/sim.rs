//! `sim-deep` and `sim-plans`: host time of the pipeline simulator, on
//! deep straight pipelines and on the shallow replicated plans the planner
//! chooses.

use super::{fold32, probe_model_and_hw, time_median, LayerMetrics, Rep, Workload};
use crate::gen;
use crate::span::Tracer;
use crate::stats::median;
use pipedream_core::schedule::Schedule;
use pipedream_core::{PipelineConfig, Planner, ScheduleKind};
use pipedream_hw::{ClusterPreset, Device, LinkModel, Precision, Topology};
use pipedream_model::{zoo, LayerCosts, ModelProfile};
use pipedream_sim::{simulate_dp, simulate_pipeline, PipelineSim, SimResult};
use rand::Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Intervals the run emitted: the simulator's unit of work.
fn events(r: &SimResult) -> u64 {
    let count =
        |t: &pipedream_sim::Timeline| t.per_worker.iter().map(|w| w.len() as u64).sum::<u64>();
    count(&r.timeline) + count(&r.comm_timeline)
}

/// Checksum over the bits of the simulated statistics: a change meant only
/// to speed the simulator up must leave it as it is.
fn stat_checksum(r: &SimResult) -> u64 {
    let mut h = r.makespan.to_bits().rotate_left(17) ^ r.samples_per_sec.to_bits();
    for &b in &r.peak_memory_bytes {
        h = h.rotate_left(7) ^ b;
    }
    h
}

/// The eight named models of the zoo.
pub fn zoo_models() -> Vec<ModelProfile> {
    let mut models = zoo::all_models();
    models.push(zoo::huge_lm());
    models
}

struct DeepCase {
    label: &'static str,
    minibatches: u64,
    costs: LayerCosts,
    config: PipelineConfig,
    topo: Topology,
    schedule: Schedule,
}

/// (metric suffix, stages, minibatches): sized so the 512-stage case is
/// most of the simulator's time.
const DEEP: [(&str, usize, u64); 3] = [("d8", 8, 8192), ("d64", 64, 2048), ("d512", 512, 512)];

pub struct SimDeep {
    cases: Vec<DeepCase>,
    seed: u64,
    reps: u64,
    /// Host seconds per call, by case label (traced repetitions only).
    times: BTreeMap<&'static str, Vec<f64>>,
    events: BTreeMap<&'static str, u64>,
    checksum: u64,
}

impl SimDeep {
    pub fn new(seed: u64) -> SimDeep {
        let mut rng = gen::rng(seed, 0);
        let cases = DEEP
            .iter()
            .map(|&(label, stages, minibatches)| {
                // One layer per stage, so depth is the only variable; the
                // seed moves each layer's cost by up to 2 %.
                let mut costs = zoo::uniform(stages, 1e9, 10_000, 10_000).costs(
                    &Device::v100(),
                    32,
                    Precision::Fp32,
                );
                for l in &mut costs.layers {
                    let f = 1.0 + 0.04 * (rng.gen::<f64>() - 0.5);
                    l.fwd_s *= f;
                    l.bwd_s *= f;
                }
                let boundaries: Vec<usize> = (0..stages - 1).collect();
                let config = PipelineConfig::straight(stages, &boundaries);
                let topo =
                    Topology::flat(Device::v100(), stages, LinkModel::new(1e11, 1e-6), "deep");
                let schedule = Schedule::one_f_one_b(&config, minibatches);
                DeepCase {
                    label,
                    minibatches,
                    costs,
                    config,
                    topo,
                    schedule,
                }
            })
            .collect();
        SimDeep {
            cases,
            seed,
            reps: 0,
            times: BTreeMap::new(),
            events: BTreeMap::new(),
            checksum: 0,
        }
    }
}

impl Workload for SimDeep {
    fn rep(&mut self, t: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        let mut total_events = 0;
        let mut checksum = 0;
        let order = gen::shuffled(self.cases.len(), &mut gen::rng(self.seed, 1 + self.reps));
        self.reps += 1;
        for i in order {
            let case = &self.cases[i];
            let t0 = Instant::now();
            let r = t.span("sim", "simulate_pipeline", |_| {
                simulate_pipeline(&case.costs, &case.topo, &case.schedule)
            });
            let secs = t0.elapsed().as_secs_f64();
            rep.secs += secs;
            rep.ops_us.push(secs * 1e6);
            if case.label == "d512" {
                rep.slow_us.push(secs * 1e6);
            }
            let n = events(&r);
            total_events += n;
            checksum ^= stat_checksum(&r).rotate_left(i as u32);
            rep.attempted += 1;
            rep.check(
                r.makespan.is_finite() && r.makespan > 0.0 && r.samples_per_sec > 0.0,
                || {
                    format!(
                        "{}: makespan {} samples/s {}",
                        case.label, r.makespan, r.samples_per_sec
                    )
                },
            );
            if t.is_on() {
                self.times.entry(case.label).or_default().push(secs);
                self.events.insert(case.label, n);
            }
            black_box(r);
        }
        self.checksum = checksum;
        rep.work = total_events as f64;
        rep.exact = vec![
            ("sim.events", total_events),
            ("sim.stat_checksum", fold32(checksum)),
        ];
        rep
    }

    fn layer_metrics(&mut self, t: &mut Tracer, out: &mut LayerMetrics) {
        let per_case: BTreeMap<&str, f64> =
            self.times.iter().map(|(k, v)| (*k, median(v))).collect();
        let total: f64 = per_case.values().sum();
        for (label, metric) in [
            ("d8", "sim.events_per_s.d8"),
            ("d64", "sim.events_per_s.d64"),
            ("d512", "sim.events_per_s.d512"),
        ] {
            out.insert(metric, self.events[label] as f64 / per_case[label]);
        }
        let deep = self
            .cases
            .iter()
            .find(|c| c.label == "d512")
            .expect("d512 case");
        out.insert(
            "sim.us_per_sim_mb.d512",
            per_case["d512"] * 1e6 / deep.minibatches as f64,
        );
        out.insert("sim.time_frac.d512", per_case["d512"] / total);
        out.insert("sim.events", self.events.values().sum::<u64>() as f64);
        out.insert("sim.stat_checksum", fold32(self.checksum) as f64);
        let build_s = t.span("core", "Schedule::one_f_one_b", |_| {
            time_median(3, || {
                black_box(Schedule::one_f_one_b(&deep.config, deep.minibatches));
            })
        });
        out.insert("core.schedule_build_ms", build_s * 1e3);
        probe_model_and_hw(t, out);
    }
}

struct PlanCase {
    costs: LayerCosts,
    topo: Topology,
    schedule: Schedule,
    replicated: bool,
}

/// Minibatches each planned configuration is simulated for.
const PLAN_MINIBATCHES: u64 = 2048;

pub struct SimPlans {
    cases: Vec<PlanCase>,
    seed: u64,
    reps: u64,
    plan_us: Vec<f64>,
    /// (events, host seconds) of traced calls, by class.
    rr: (u64, f64),
    two_bw_recompute: (u64, f64),
    dp_us: Vec<f64>,
    events: u64,
    checksum: u64,
}

impl SimPlans {
    pub fn new(seed: u64) -> SimPlans {
        let mut cases = Vec::new();
        let mut plan_us = Vec::new();
        for profile in zoo_models() {
            for preset in [ClusterPreset::A, ClusterPreset::B] {
                let topo = preset.with_servers(4);
                let t0 = Instant::now();
                let plan = Planner::new(&profile, &topo)
                    .try_plan()
                    .expect("zoo models plan on presets A and B");
                plan_us.push(t0.elapsed().as_secs_f64() * 1e6);
                let costs = profile.costs(&topo.device, profile.default_batch, Precision::Fp32);
                let schedule = Schedule::one_f_one_b(&plan.config, PLAN_MINIBATCHES);
                cases.push(PlanCase {
                    replicated: plan.config.stages().iter().any(|s| s.replicas > 1),
                    costs,
                    topo,
                    schedule,
                });
            }
        }
        SimPlans {
            cases,
            seed,
            reps: 0,
            plan_us,
            rr: (0, 0.0),
            two_bw_recompute: (0, 0.0),
            dp_us: Vec::new(),
            events: 0,
            checksum: 0,
        }
    }
}

impl Workload for SimPlans {
    fn rep(&mut self, t: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        let kinds = ScheduleKind::all();
        let mut total_events = 0;
        let mut checksum = 0;
        let order = gen::shuffled(
            self.cases.len() * kinds.len(),
            &mut gen::rng(self.seed, 1 + self.reps),
        );
        self.reps += 1;
        for slot in order {
            let (case, kind) = (&self.cases[slot / kinds.len()], kinds[slot % kinds.len()]);
            let t0 = Instant::now();
            let r = t.span("sim", "PipelineSim::run", |_| {
                PipelineSim::new(&case.costs, &case.topo, &case.schedule)
                    .with_schedule(kind)
                    .run()
            });
            let secs = t0.elapsed().as_secs_f64();
            rep.secs += secs;
            rep.ops_us.push(secs * 1e6);
            let n = events(&r);
            total_events += n;
            checksum ^= stat_checksum(&r).rotate_left(slot as u32 % 64);
            rep.attempted += 1;
            rep.check(r.makespan.is_finite() && r.makespan > 0.0, || {
                format!("{} under {kind}: makespan {}", case.costs.model, r.makespan)
            });
            if kind == ScheduleKind::TwoBWRecompute {
                rep.slow_us.push(secs * 1e6);
            }
            if t.is_on() {
                if kind == ScheduleKind::TwoBWRecompute {
                    self.two_bw_recompute.0 += n;
                    self.two_bw_recompute.1 += secs;
                }
                if kind == ScheduleKind::Vanilla1F1B && case.replicated {
                    self.rr.0 += n;
                    self.rr.1 += secs;
                }
            }
            black_box(r);
        }
        // The data-parallel baseline `best_plan` and `repro` compare every
        // plan against, on the same costs.
        for (i, case) in self.cases.iter().enumerate() {
            let t0 = Instant::now();
            let r = t.span("sim", "simulate_dp", |_| {
                simulate_dp(&case.costs, &case.topo, case.topo.total_workers())
            });
            let secs = t0.elapsed().as_secs_f64();
            rep.secs += secs;
            rep.attempted += 1;
            rep.check(
                r.samples_per_sec.is_finite() && r.samples_per_sec > 0.0,
                || {
                    format!(
                        "simulate_dp {}: {} samples/s",
                        case.costs.model, r.samples_per_sec
                    )
                },
            );
            checksum ^= r.iteration_s.to_bits().rotate_left(i as u32);
            if t.is_on() {
                self.dp_us.push(secs * 1e6);
            }
        }
        self.events = total_events;
        self.checksum = checksum;
        rep.work = total_events as f64;
        rep.exact = vec![
            ("sim.events", total_events),
            ("sim.stat_checksum", fold32(checksum)),
        ];
        rep
    }

    fn layer_metrics(&mut self, t: &mut Tracer, out: &mut LayerMetrics) {
        out.insert("sim.events_per_s.rr", self.rr.0 as f64 / self.rr.1);
        out.insert(
            "sim.events_per_s.2bw-recompute",
            self.two_bw_recompute.0 as f64 / self.two_bw_recompute.1,
        );
        out.insert("sim.dp_us", median(&self.dp_us));
        out.insert("sim.events", self.events as f64);
        out.insert("sim.stat_checksum", fold32(self.checksum) as f64);
        out.insert("core.plan_hier_us_p50", median(&self.plan_us));
        let build_s = t.span("core", "Schedule::one_f_one_b", |_| {
            time_median(5, || {
                for case in &self.cases {
                    black_box(Schedule::one_f_one_b(
                        &case.schedule.config,
                        PLAN_MINIBATCHES,
                    ));
                }
            })
        });
        out.insert(
            "core.schedule_build_ms",
            build_s * 1e3 / self.cases.len() as f64,
        );
        probe_model_and_hw(t, out);
    }
}
