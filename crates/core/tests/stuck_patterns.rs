//! Which replication patterns, and which of the planner's zoo plans,
//! `Schedule::stuck` refuses, pinned.
//!
//! Patterns: every pattern of 1–4 stages on 1–4 replicas each (340 in
//! all), one layer per stage, under `one_f_one_b` with the largest
//! multiple of the replica lcm up to 64 minibatches, one update per
//! backward. Zoo plans: every zoo model and `huge-lm` on clusters A, B and
//! C at 1, 2, 4 and 8 servers, planned by `try_plan`, `try_plan_flat` and
//! `try_plan_greedy`, under `one_f_one_b` with the largest multiple of the
//! replica lcm up to 64, 512 and 2048 minibatches, one update per backward
//! and 2BW over a group of `two_bw_group(noam)`. The 1F1B-RR generator
//! does not know the gradient-sync round that couples a replicated
//! stage's updates, so these schedule an op that can never start, and the
//! trainer refuses them. A sync-aware generator shrinks both lists; they
//! should reach zero.

use pipedream_core::schedule::{Schedule, UpdateRule};
use pipedream_core::{PipelineConfig, Planner};
use pipedream_hw::ClusterPreset;
use pipedream_model::zoo;

/// The refused patterns, in sweep order (fewest stages first).
const REFUSED: [&str; 38] = [
    "2-3-4", "3-2-4", "3-4-4", "1-2-3-3", "1-3-1-4", "1-3-2-2", "1-3-2-4", "1-4-2-2", "1-4-2-3",
    "1-4-2-4", "1-4-3-2", "1-4-3-3", "1-4-3-4", "2-2-3-3", "2-2-3-4", "2-3-2-3", "2-3-3-3",
    "2-3-3-4", "2-3-4-3", "2-3-4-4", "2-4-2-3", "2-4-3-3", "2-4-3-4", "3-2-3-3", "3-2-3-4",
    "3-2-4-3", "3-3-2-4", "3-3-4-4", "3-4-1-2", "3-4-1-3", "3-4-1-4", "3-4-3-4", "3-4-4-4",
    "4-2-3-3", "4-2-4-3", "4-3-2-4", "4-3-4-2", "4-3-4-4",
];

#[test]
fn the_refused_replication_patterns_are_pinned() {
    let mut refused = Vec::new();
    let mut patterns = 0;
    for stages in 1..=4u32 {
        for code in 0..4usize.pow(stages) {
            let replicas: Vec<usize> = (0..stages)
                .map(|i| code / 4usize.pow(stages - 1 - i) % 4 + 1)
                .collect();
            let counts: Vec<(usize, usize)> = replicas.iter().map(|&r| (1, r)).collect();
            let config = PipelineConfig::from_counts(&counts);
            let minibatches = 64 - 64 % config.replica_lcm();
            let schedule = Schedule::one_f_one_b(&config, minibatches);
            patterns += 1;
            if !schedule.stuck(UpdateRule::EveryBackward).is_empty() {
                let names: Vec<String> = replicas.iter().map(usize::to_string).collect();
                refused.push(names.join("-"));
            }
        }
    }
    assert_eq!(patterns, 340);
    assert_eq!(refused, REFUSED, "{} refused", refused.len());
}

/// The zoo plans refused, in sweep order: planner, model, cluster ×
/// servers, pattern, minibatches, update rule, stuck workers.
const REFUSED_PLANS: [&str; 7] = [
    "try_plan GNMT-8 Ax8 1-3-20-2-2-1-1-2 n=60 every-backward stuck=32",
    "try_plan GNMT-8 Ax8 1-3-20-2-2-1-1-2 n=480 every-backward stuck=32",
    "try_plan GNMT-8 Ax8 1-3-20-2-2-1-1-2 n=2040 every-backward stuck=32",
    "try_plan_flat GNMT-8 Bx4 1-10-1-20 n=60 every-backward stuck=32",
    "try_plan_flat GNMT-8 Bx4 1-10-1-20 n=500 every-backward stuck=32",
    "try_plan_flat GNMT-8 Bx4 1-10-1-20 n=2040 every-backward stuck=32",
    "try_plan_flat huge-lm Bx4 8-12-12 n=48 every-backward stuck=32",
];

#[test]
fn the_refused_zoo_plans_are_pinned() {
    let mut models = zoo::all_models();
    models.push(zoo::huge_lm());
    let mut refused = Vec::new();
    for model in &models {
        for preset in [ClusterPreset::A, ClusterPreset::B, ClusterPreset::C] {
            for servers in [1, 2, 4, 8] {
                let topo = preset.with_servers(servers);
                let planner = Planner::new(model, &topo);
                let plans = [
                    ("try_plan", planner.try_plan()),
                    ("try_plan_flat", planner.try_plan_flat()),
                    ("try_plan_greedy", planner.try_plan_greedy()),
                ];
                for (name, plan) in plans {
                    let Ok(plan) = plan else { continue };
                    let config = &plan.config;
                    let lcm = config.replica_lcm();
                    for cap in [64, 512, 2048] {
                        let minibatches = cap - cap % lcm;
                        if minibatches == 0 {
                            continue;
                        }
                        let schedule = Schedule::one_f_one_b(config, minibatches);
                        let rules = [
                            ("every-backward", UpdateRule::EveryBackward),
                            (
                                "2bw",
                                UpdateRule::TwoBw {
                                    group: config.two_bw_group(config.noam()),
                                },
                            ),
                        ];
                        for (rule, updates) in rules {
                            let stuck = schedule.stuck(updates);
                            if !stuck.is_empty() {
                                refused.push(format!(
                                    "{name} {} {preset:?}x{servers} {config} n={minibatches} {rule} stuck={}",
                                    model.name,
                                    stuck.len()
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(refused, REFUSED_PLANS, "{} refused", refused.len());
}
