//! The §3.1 solver against an oracle: the straightforward form of the same
//! DP, which fills every row of every level and sums a stage's compute and
//! weights afresh for each split candidate it evaluates. Every plan must
//! come out equal, the bottleneck's bits included, because the solver
//! only reorganises that work: tie-breaking, the order a cell's
//! candidates are visited in, and every floating-point sum stay as here.

use pipedream_core::{PipelineConfig, Plan, PlanError, Planner, ScheduleKind, StagePlan};
use pipedream_hw::{allreduce_time, p2p_time, ClusterPreset, Device, Level, LinkModel, Topology};
use pipedream_model::profile::LayerCost;
use pipedream_model::{zoo, LayerCosts, ModelProfile};
use proptest::prelude::*;

mod oracle {
    //! The solver as it stood before its per-level `T^k` table, over the
    //! public API: every row of every level, per-candidate
    //! `total_compute` / `weight_bytes` / `t_single`.

    use super::*;

    #[derive(Clone, Copy, Debug)]
    enum Choice {
        Single,
        Split { s: usize, m_prime: usize },
    }

    struct LevelTable {
        n: usize,
        max_m: usize,
        vals: Vec<f64>,
        choices: Vec<Choice>,
    }

    impl LevelTable {
        fn new(n: usize, max_m: usize) -> Self {
            LevelTable {
                n,
                max_m,
                vals: vec![f64::INFINITY; n * n * (max_m + 1)],
                choices: vec![Choice::Single; n * n * (max_m + 1)],
            }
        }

        fn idx(&self, i: usize, j: usize, m: usize) -> usize {
            (i * self.n + j) * (self.max_m + 1) + m
        }

        fn get(&self, i: usize, j: usize, m: usize) -> f64 {
            self.vals[self.idx(i, j, m)]
        }

        fn set(&mut self, i: usize, j: usize, m: usize, v: f64, c: Choice) {
            let idx = self.idx(i, j, m);
            self.vals[idx] = v;
            self.choices[idx] = c;
        }

        fn choice(&self, i: usize, j: usize, m: usize) -> Choice {
            self.choices[self.idx(i, j, m)]
        }
    }

    struct Oracle<'a> {
        costs: &'a LayerCosts,
        topo: &'a Topology,
    }

    impl Oracle<'_> {
        fn t_single(&self, i: usize, j: usize, m: usize, inner: f64, link: &LinkModel) -> f64 {
            if m == 1 {
                return inner;
            }
            let w_bytes = self.costs.weight_bytes(i, j);
            let comm = allreduce_time(link, w_bytes, m);
            inner.max(comm) / m as f64
        }

        fn solve_level(
            &self,
            inner: &dyn Fn(usize, usize) -> f64,
            max_m: usize,
            link: &LinkModel,
        ) -> LevelTable {
            let n = self.costs.num_layers();
            let mut table = LevelTable::new(n, max_m);
            for m in 1..=max_m {
                for i in 0..n {
                    for j in i..n {
                        let mut best = self.t_single(i, j, m, inner(i, j), link);
                        let mut choice = Choice::Single;
                        for s in i..j {
                            let act = 2.0 * p2p_time(link, self.costs.activation_bytes(s));
                            for m_prime in 1..m {
                                let head = table.get(i, s, m - m_prime);
                                if head >= best {
                                    continue;
                                }
                                let tail = self.t_single(s + 1, j, m_prime, inner(s + 1, j), link);
                                let cand = head.max(act).max(tail);
                                if cand < best {
                                    best = cand;
                                    choice = Choice::Split { s, m_prime };
                                }
                            }
                        }
                        table.set(i, j, m, best, choice);
                    }
                }
            }
            table
        }

        fn reconstruct_level(
            table: &LevelTable,
            i: usize,
            j: usize,
            m: usize,
            unit_plan: &dyn Fn(usize, usize) -> Vec<StagePlan>,
            out: &mut Vec<StagePlan>,
        ) {
            match table.choice(i, j, m) {
                Choice::Single => {
                    for st in unit_plan(i, j) {
                        out.push(StagePlan::new(
                            st.first_layer,
                            st.last_layer,
                            st.replicas * m,
                        ));
                    }
                }
                Choice::Split { s, m_prime } => {
                    Self::reconstruct_level(table, i, s, m - m_prime, unit_plan, out);
                    for st in unit_plan(s + 1, j) {
                        out.push(StagePlan::new(
                            st.first_layer,
                            st.last_layer,
                            st.replicas * m_prime,
                        ));
                    }
                }
            }
        }

        fn reconstruct_from(
            &self,
            k: usize,
            tables: &[LevelTable],
            i: usize,
            j: usize,
            m: usize,
        ) -> Vec<StagePlan> {
            let table = &tables[k - 1];
            let unit_plan: Box<dyn Fn(usize, usize) -> Vec<StagePlan>> = if k == 1 {
                Box::new(|a: usize, b: usize| vec![StagePlan::new(a, b, 1)])
            } else {
                let prev_m = self.topo.arity(k - 1);
                Box::new(move |a: usize, b: usize| {
                    self.reconstruct_from(k - 1, tables, a, b, prev_m)
                })
            };
            let mut out = Vec::new();
            Self::reconstruct_level(table, i, j, m, &unit_plan, &mut out);
            out
        }

        fn plan(&self) -> (Vec<StagePlan>, f64) {
            let n = self.costs.num_layers();
            let sum_compute = |i: usize, j: usize| self.costs.total_compute(i, j);
            let mut tables: Vec<LevelTable> = Vec::with_capacity(self.topo.num_levels());
            for k in 1..=self.topo.num_levels() {
                let link = *self.topo.link(k);
                let max_m = self.topo.arity(k);
                let table = if k == 1 {
                    self.solve_level(&sum_compute, max_m, &link)
                } else {
                    let prev = tables.last().unwrap();
                    let prev_m = self.topo.arity(k - 1);
                    let inner = |i: usize, j: usize| prev.get(i, j, prev_m);
                    self.solve_level(&inner, max_m, &link)
                };
                tables.push(table);
            }
            let top = self.topo.num_levels();
            let stages = self.reconstruct_from(top, &tables, 0, n - 1, self.topo.arity(top));
            let bottleneck = tables[top - 1].get(0, n - 1, self.topo.arity(top));
            (stages, bottleneck)
        }

        fn plan_flat(&self) -> (Vec<StagePlan>, f64) {
            let n = self.costs.num_layers();
            let workers = self.topo.total_workers();
            let link = *self.topo.link(self.topo.num_levels());
            let sum_compute = |i: usize, j: usize| self.costs.total_compute(i, j);
            let table = self.solve_level(&sum_compute, workers, &link);
            let unit = |a: usize, b: usize| vec![StagePlan::new(a, b, 1)];
            let mut stages = Vec::new();
            Self::reconstruct_level(&table, 0, n - 1, workers, &unit, &mut stages);
            (stages, table.get(0, n - 1, workers))
        }
    }

    fn finish_plan(costs: &LayerCosts, stages: Vec<StagePlan>, bottleneck: f64) -> Plan {
        let config = PipelineConfig::new(stages);
        Plan {
            noam: config.noam(),
            samples_per_sec: costs.batch as f64 / bottleneck,
            bottleneck_s: bottleneck,
            config,
        }
    }

    fn constrain_memory(
        planner: &Planner<'_>,
        topo: &Topology,
        limit: Option<u64>,
        plan: Plan,
    ) -> Result<Plan, PlanError> {
        let Some(limit) = limit else {
            return Ok(plan);
        };
        if planner.config_fits_memory(&plan.config, limit) {
            return Ok(plan);
        }
        let n = planner.costs().num_layers();
        let mut candidates = planner.enumerate_configs();
        for d in 2..=topo.total_workers().min(n) {
            if let Some(b) = planner.balanced_boundaries(d) {
                let cfg = PipelineConfig::straight(n, &b);
                if !candidates.contains(&cfg) {
                    candidates.push(cfg);
                }
            }
        }
        candidates
            .into_iter()
            .filter(|c| planner.config_fits_memory(c, limit))
            .filter_map(|c| planner.try_evaluate(&c).ok())
            .min_by(|a, b| a.bottleneck_s.partial_cmp(&b.bottleneck_s).unwrap())
            .ok_or(PlanError::MemoryInfeasible {
                limit_bytes: limit,
                schedule: planner.schedule(),
            })
    }

    /// What `try_plan` (`flat == false`) or `try_plan_flat` returned
    /// before the rewrite, for a `planner` over `topo` built with memory
    /// limit `limit`.
    pub fn plan(
        planner: &Planner<'_>,
        topo: &Topology,
        flat: bool,
        limit: Option<u64>,
    ) -> Result<Plan, PlanError> {
        let oracle = Oracle {
            costs: planner.costs(),
            topo,
        };
        let (stages, bottleneck) = if flat {
            oracle.plan_flat()
        } else {
            oracle.plan()
        };
        let plan = finish_plan(planner.costs(), stages, bottleneck);
        constrain_memory(planner, topo, limit, plan)
    }
}

/// Equal, with every `f64` compared by its bits.
fn same(a: &Result<Plan, PlanError>, b: &Result<Plan, PlanError>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            a == b
                && a.bottleneck_s.to_bits() == b.bottleneck_s.to_bits()
                && a.samples_per_sec.to_bits() == b.samples_per_sec.to_bits()
        }
        _ => a == b,
    }
}

/// Both entry points of `planner` against the oracle's.
fn check(planner: &Planner<'_>, topo: &Topology, limit: Option<u64>) -> Result<(), String> {
    for flat in [false, true] {
        let got = if flat {
            planner.try_plan_flat()
        } else {
            planner.try_plan()
        };
        let want = oracle::plan(planner, topo, flat, limit);
        if !same(&got, &want) {
            return Err(format!(
                "{} on {} workers ({} levels, flat {flat}, limit {limit:?}): \
                 got {got:?}, oracle {want:?}",
                planner.costs().model,
                topo.total_workers(),
                topo.num_levels(),
            ));
        }
    }
    Ok(())
}

// Discrete palettes, so equal stage times (and with them ties between
// split candidates) are common even when the layers differ.
const FWD_MS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];
const ACT_BYTES: [u64; 4] = [0, 100_000, 1_000_000, 20_000_000];
const WEIGHT_BYTES: [u64; 4] = [0, 400_000, 4_000_000, 400_000_000];
const GBYTES: [f64; 3] = [1.0, 10.0, 100.0];

/// `shape` 0: every layer is layer 0 (all costs tied); 1: each layer from
/// the palettes; 2: as 1 with even layers' compute scaled by `jitter`.
fn costs(layers: &[(usize, usize, usize)], shape: usize, jitter: f64) -> LayerCosts {
    LayerCosts {
        model: format!("prop-{}", layers.len()),
        batch: 32,
        layers: layers
            .iter()
            .enumerate()
            .map(|(l, &(f, a, w))| {
                let (f, a, w) = if shape == 0 { layers[0] } else { (f, a, w) };
                let scale = if shape == 2 && l % 2 == 0 {
                    jitter
                } else {
                    1.0
                };
                let fwd_s = FWD_MS[f] * 1e-3 * scale;
                LayerCost {
                    name: format!("l{l}"),
                    fwd_s,
                    bwd_s: 2.0 * fwd_s,
                    activation_bytes: ACT_BYTES[a],
                    weight_bytes: WEIGHT_BYTES[w],
                }
            })
            .collect(),
    }
}

/// Levels innermost first; the outermost level's arity is cut to 8, and
/// every arity so that at most 128 workers exist, which keeps the flat
/// oracle's `O(N³·W²)` affordable. Lower levels of up to 16 units and flat
/// levels of up to 128 workers give the solver worker columns longer than
/// one vector register, ending in every remainder.
fn topology(levels: &[(usize, usize, bool)], latency: bool) -> Topology {
    let mut workers = 1;
    let top = levels.len() - 1;
    let levels = levels
        .iter()
        .enumerate()
        .map(|(k, &(arity, bw, shared))| {
            let arity = if k == top { arity.min(8) } else { arity };
            let arity = arity.min(128 / workers);
            workers *= arity;
            let link = LinkModel::from_gbytes(GBYTES[bw], if latency { 5e-6 } else { 0.0 });
            Level {
                name: format!("l{k}"),
                arity,
                link: if shared { link.shared_medium() } else { link },
            }
        })
        .collect();
    Topology::new(Device::v100(), levels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn solver_matches_the_oracle(
        layers in proptest::collection::vec((0usize..4, 0usize..4, 0usize..4), 1..=24),
        (shape, jitter) in (0usize..3, 0.5f64..2.0),
        (levels, latency) in (
            proptest::collection::vec((1usize..=16, 0usize..3, any::<bool>()), 1..=3),
            any::<bool>(),
        ),
        (limit_log2, kind) in (0u32..=13, 0usize..4),
    ) {
        let topo = topology(&levels, latency);
        // Past 64 workers, at most 15 layers keep the flat oracle's
        // `N³·W²` within its cost at 24 layers on 64 workers.
        let keep = if topo.total_workers() > 64 { 15 } else { 24 };
        let costs = costs(&layers[..layers.len().min(keep)], shape, jitter);
        let planner = Planner::from_costs(costs.clone(), &topo);
        check(&planner, &topo, None).map_err(TestCaseError::fail)?;
        // Budgets from 32 MiB to 256 GiB: feasible, repaired and
        // infeasible plans all occur.
        let limit = 1u64 << (25 + limit_log2);
        let limited = Planner::from_costs(costs, &topo)
            .with_schedule(ScheduleKind::all()[kind])
            .with_memory_limit(limit);
        check(&limited, &topo, Some(limit)).map_err(TestCaseError::fail)?;
    }
}

/// The ledger's `plan-scale` zoo requests: every zoo model and `huge-lm`
/// on presets A/B/C × 1/4/8 servers, and `huge-lm` on one Cluster-A
/// server under a 4 GiB budget for every schedule kind.
#[test]
fn zoo_population_matches_the_oracle() {
    let mut models = zoo::all_models();
    models.push(zoo::huge_lm());
    for model in &models {
        for preset in [ClusterPreset::A, ClusterPreset::B, ClusterPreset::C] {
            for servers in [1, 4, 8] {
                let topo = preset.with_servers(servers);
                check(&Planner::new(model, &topo), &topo, None).unwrap();
            }
        }
    }
    let (huge_lm, topo, limit) = (zoo::huge_lm(), ClusterPreset::A.with_servers(1), 4 << 30);
    for kind in ScheduleKind::all() {
        let planner = Planner::new(&huge_lm, &topo)
            .with_memory_limit(limit)
            .with_schedule(kind);
        check(&planner, &topo, Some(limit)).unwrap();
    }
}

/// `plan-scale`'s four deep calls, one request each, and 128 layers
/// hierarchical on the other deep shapes: A×8, B×4, and C×4, whose lower
/// level has arity 1 and so no split at all.
#[test]
fn deep_population_matches_the_oracle() {
    let deep = |n| zoo::uniform(n, 1e9, 100_000, 1_000_000);
    let calls: [(ModelProfile, ClusterPreset, usize, bool); 7] = [
        (deep(32), ClusterPreset::B, 8, true),
        (deep(64), ClusterPreset::A, 4, true),
        (deep(128), ClusterPreset::A, 4, false),
        (deep(128), ClusterPreset::B, 8, false),
        (deep(128), ClusterPreset::A, 8, false),
        (deep(128), ClusterPreset::B, 4, false),
        (deep(128), ClusterPreset::C, 4, false),
    ];
    for (model, preset, servers, flat) in &calls {
        let topo = preset.with_servers(*servers);
        let planner = Planner::new(model, &topo);
        let got = if *flat {
            planner.try_plan_flat()
        } else {
            planner.try_plan()
        };
        let want = oracle::plan(&planner, &topo, *flat, None);
        assert!(same(&got, &want), "{}: {got:?} vs {want:?}", model.name);
    }
}
