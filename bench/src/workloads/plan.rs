//! `plan-scale`: the §3.1 partitioner alone, from zoo-sized requests to
//! deep synthetic models where the DP's layers × workers growth lives.

use super::sim::zoo_models;
use super::{fold32, probe_model_and_hw, time_median, LayerMetrics, Rep, Workload};
use crate::gen;
use crate::span::Tracer;
use crate::stats::median;
use pipedream_core::{
    config_fingerprint, fingerprint_plan_request, Plan, PlanError, Planner, ScheduleKind,
};
use pipedream_hw::{ClusterPreset, Precision, Topology};
use pipedream_model::{zoo, ModelProfile};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Strategy {
    Hier,
    Flat,
    Greedy,
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    /// A paper model on a paper cluster: the typical request.
    Zoo(Strategy),
    /// `huge-lm` under a 4 GiB budget, one call per schedule kind.
    MemLimit,
    /// `zoo::uniform(n, ..)` with n ≥ 32.
    Deep,
}

struct Call {
    profile: usize,
    topo: usize,
    strategy: Strategy,
    memory: Option<(u64, ScheduleKind)>,
    class: Class,
    /// Metric the call's own time is reported under, if it has one.
    named: Option<&'static str>,
}

const GIB: u64 = 1 << 30;
const PRESETS: [ClusterPreset; 3] = [ClusterPreset::A, ClusterPreset::B, ClusterPreset::C];
const SERVERS: [usize; 3] = [1, 4, 8];

fn topo_index(preset: ClusterPreset, servers: usize) -> usize {
    let p = PRESETS
        .iter()
        .position(|&x| x == preset)
        .expect("known preset");
    let s = SERVERS
        .iter()
        .position(|&x| x == servers)
        .expect("known server count");
    p * SERVERS.len() + s
}

pub struct PlanScale {
    profiles: Vec<ModelProfile>,
    topos: Vec<Topology>,
    calls: Vec<Call>,
    seed: u64,
    reps: u64,
    by_class: BTreeMap<Class, Vec<f64>>,
    named_ms: BTreeMap<&'static str, Vec<f64>>,
    infeasible: u64,
    checksum: u64,
}

impl PlanScale {
    pub fn new(seed: u64) -> PlanScale {
        let mut profiles = zoo_models();
        let zoo_count = profiles.len();
        let huge_lm = profiles
            .iter()
            .position(|p| p.name == "huge-lm")
            .expect("huge-lm in zoo");
        let deep_base = profiles.len();
        for n in [32, 64, 128] {
            profiles.push(zoo::uniform(n, 1e9, 100_000, 1_000_000));
        }
        let topos: Vec<Topology> = PRESETS
            .iter()
            .flat_map(|p| SERVERS.iter().map(move |&s| p.with_servers(s)))
            .collect();

        let mut calls = Vec::new();
        for profile in 0..zoo_count {
            for topo in 0..topos.len() {
                for strategy in [Strategy::Hier, Strategy::Flat, Strategy::Greedy] {
                    calls.push(Call {
                        profile,
                        topo,
                        strategy,
                        memory: None,
                        class: Class::Zoo(strategy),
                        named: None,
                    });
                }
            }
        }
        for kind in ScheduleKind::all() {
            calls.push(Call {
                profile: huge_lm,
                topo: topo_index(ClusterPreset::A, 1),
                strategy: Strategy::Flat,
                memory: Some((4 * GIB, kind)),
                class: Class::MemLimit,
                named: None,
            });
        }
        // (model, preset, servers, strategy, own metric). The heaviest
        // flat call, 64 layers on 64 workers, takes a second and is timed
        // once per traced run instead (see `layer_metrics`); 128 layers
        // flat on 64 workers takes 17 s and is left out.
        let deep = [
            (0, ClusterPreset::B, 8, Strategy::Flat, None),
            (1, ClusterPreset::A, 4, Strategy::Flat, None),
            (2, ClusterPreset::A, 4, Strategy::Hier, None),
            (
                2,
                ClusterPreset::B,
                8,
                Strategy::Hier,
                Some("core.plan_hier_ms.u128-w64"),
            ),
        ];
        for (model, preset, servers, strategy, named) in deep {
            calls.push(Call {
                profile: deep_base + model,
                topo: topo_index(preset, servers),
                strategy,
                memory: None,
                class: Class::Deep,
                named,
            });
        }
        PlanScale {
            profiles,
            topos,
            calls,
            seed,
            reps: 0,
            by_class: BTreeMap::new(),
            named_ms: BTreeMap::new(),
            infeasible: 0,
            checksum: 0,
        }
    }

    fn run(&self, call: &Call) -> Result<Plan, PlanError> {
        let mut planner = Planner::new(&self.profiles[call.profile], &self.topos[call.topo]);
        if let Some((bytes, kind)) = call.memory {
            planner = planner.with_memory_limit(bytes).with_schedule(kind);
        }
        match call.strategy {
            Strategy::Hier => planner.try_plan(),
            Strategy::Flat => planner.try_plan_flat(),
            Strategy::Greedy => planner.try_plan_greedy(),
        }
    }
}

impl Workload for PlanScale {
    fn rep(&mut self, t: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        let mut checksum = 0u64;
        let mut infeasible = 0;
        let order = gen::shuffled(self.calls.len(), &mut gen::rng(self.seed, self.reps));
        self.reps += 1;
        for i in order {
            let call = &self.calls[i];
            let t0 = Instant::now();
            let result = t.span("core", "Planner::try_plan", |_| self.run(call));
            let secs = t0.elapsed().as_secs_f64();
            rep.secs += secs;
            rep.ops_us.push(secs * 1e6);
            if call.class == Class::Deep {
                rep.slow_us.push(secs * 1e6);
            }
            rep.attempted += 1;
            let model = &self.profiles[call.profile];
            // Under a 4 GiB budget only the 2BW kinds (two weight versions)
            // fit huge-lm; the other two must say so with the typed error.
            let must_fail = matches!(call.memory, Some((_, kind)) if !kind.uses_two_bw());
            match &result {
                Ok(plan) => {
                    checksum ^= config_fingerprint(&plan.config).rotate_left(i as u32 % 64);
                    rep.check(!must_fail, || {
                        format!("{}: planned under an infeasible budget", model.name)
                    });
                    rep.check(plan.config.validate(model.num_layers()).is_ok(), || {
                        format!(
                            "{}: plan {} fails validate",
                            model.name,
                            plan.config.label()
                        )
                    });
                }
                Err(PlanError::MemoryInfeasible { .. }) if must_fail => infeasible += 1,
                Err(e) => rep.failures.push(format!("{}: {e}", model.name)),
            }
            if t.is_on() {
                self.by_class
                    .entry(call.class)
                    .or_default()
                    .push(secs * 1e6);
                if let Some(name) = call.named {
                    self.named_ms.entry(name).or_default().push(secs * 1e3);
                }
            }
        }
        self.infeasible = infeasible;
        self.checksum = checksum;
        rep.work = self.calls.len() as f64;
        rep.exact = vec![
            ("core.plan_checksum", fold32(checksum)),
            ("core.plans_infeasible", infeasible),
        ];
        rep
    }

    fn layer_metrics(&mut self, t: &mut Tracer, out: &mut LayerMetrics) {
        for (class, metric) in [
            (Class::Zoo(Strategy::Hier), "core.plan_hier_us_p50"),
            (Class::Zoo(Strategy::Flat), "core.plan_flat_us_p50"),
            (Class::Zoo(Strategy::Greedy), "core.plan_greedy_us_p50"),
            (Class::MemLimit, "core.plan_memlimit_us_p50"),
        ] {
            out.insert(metric, median(&self.by_class[&class]));
        }
        for (name, ms) in &self.named_ms {
            out.insert(name, median(ms));
        }
        let (u64_layers, w64) = (
            &self.profiles[self.profiles.len() - 2],
            &self.topos[topo_index(ClusterPreset::B, 8)],
        );
        let t0 = Instant::now();
        let heaviest = t.span("core", "Planner::try_plan_flat", |_| {
            Planner::new(u64_layers, w64).try_plan_flat()
        });
        out.insert(
            "core.plan_flat_ms.u64-w64",
            t0.elapsed().as_secs_f64() * 1e3,
        );
        black_box(heaviest.expect("64 uniform layers plan on 64 workers"));
        out.insert("core.plans_infeasible", self.infeasible as f64);
        out.insert("core.plan_checksum", fold32(self.checksum) as f64);

        let vgg = zoo::vgg16();
        let topo = ClusterPreset::A.with_servers(4);
        let planner = Planner::new(&vgg, &topo);
        let config = planner.try_plan().expect("vgg16 plans on 4x4 (A)").config;
        let evaluate_s = t.span("core", "Planner::try_evaluate", |_| {
            time_median(200, || {
                black_box(planner.try_evaluate(&config).expect("own plan evaluates"));
            })
        });
        out.insert("core.evaluate_us", evaluate_s * 1e6);
        let fingerprint_s = t.span("core", "fingerprint_plan_request", |_| {
            time_median(200, || {
                black_box(
                    fingerprint_plan_request(
                        &vgg,
                        &topo,
                        vgg.default_batch,
                        Precision::Fp32,
                        "hierarchical",
                        None,
                        ScheduleKind::Vanilla1F1B,
                    )
                    .expect("finite costs fingerprint"),
                );
            })
        });
        out.insert("core.fingerprint_ns", fingerprint_s * 1e9);
        probe_model_and_hw(t, out);
    }
}
