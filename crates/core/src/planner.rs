//! PipeDream's partitioning optimizer (paper §3.1).
//!
//! Implements the paper's hierarchical dynamic program. Let
//! `A^k(i→j, m)` be the time of the slowest stage in the optimal pipeline
//! over layers `i..=j` using `m` workers at level `k`:
//!
//! ```text
//! T^k(i→j, m) = (1/m) · max( A^{k-1}(i→j, m_{k-1}),
//!                            2(m-1)/m · Σ_{l=i..j} |w_l| / B_k )
//! A^k(i→j, m) = min( T^k(i→j, m),
//!                    min_{i≤s<j} min_{1≤m'<m}
//!                        max( A^k(i→s, m−m'), 2·a_s/B_k, T^k(s+1→j, m') ) )
//! A^0(i→j, ·) = Σ T_l       A^k(i→j, 1) = A^{k-1}(i→j, m_{k-1})
//! ```
//!
//! The first term of the `max` in `T^k` is compute (with one level-`k-1`
//! component as the substrate); the second is the data-parallel all_reduce
//! for the stage's weights; `2·a_s/B_k` is the activation + gradient
//! traffic across the stage boundary.
//!
//! Each level first tabulates `T^k(a→j, m)` for every `a ≤ j` and `m`
//! (`O(N²·m_k)` all_reduce estimates, the bottom level's compute sums one
//! running fold per start layer), each run `T^k(a→·, m)` contiguous in `j`.
//! Every level below the top fills all rows `i`, because the level above
//! reads `A^{k-1}(a→b, m_{k-1})` for every `(a, b)`; the top level fills
//! row `i = 0` only, the one row its splits `A^L(0→s, m−m')` and the answer
//! `A^L(0→N−1, m_L)` read.
//!
//! A level fills one row `i` at a time over a block `best[m][j]` contiguous
//! in `j`, started from `T^k(i→j, m)`. For each split `s` ascending, cell
//! `(i, s)` is final (only splits before `s` reach it), and each width `m`
//! takes `max(max(A^k(i→s, m−m'), 2·a_s/B_k), T^k(s+1→j, m'))` for every
//! `j > s` at once, `m'` ascending: one broadcast head against one run of
//! the tail, eight cells `j` to a vector, each vector held in registers
//! while every `m'` passes over it. A width whose heads all reach the
//! largest `best[m][j > s]` is skipped, and so is each head that does.
//! Every cell `(j, m)` still meets its candidates in `(s, m')` order and
//! takes one only on a strict `<`, so it keeps the first strict minimum in
//! that order: the same values and choices as solving each `m` on its own.
//!
//! Lower levels have arity 4 or 8: a worker column is shorter than one
//! vector, while `j` runs over up to `N` cells. The top level uses the same
//! loop on its one row. Its worker column is long (up to 128 on a flat
//! level), and filling it one cell `(0, j)` at a time, vectorized across
//! `m`, is the alternative; but that loop loads and stores `best[m]` once
//! per `(s, m')`, where this one keeps a vector of cells in registers
//! across all `m'`. It measured 1.3× slower over the zoo's flat requests
//! and 3× slower on 64 layers over 64 workers.
//!
//! Tables hold only the cells `i ≤ j` of the rows filled (`LevelTable`).
//! The total complexity is `O(Σ_{k<L} N³·m_k² + N²·m_L²)`. The paper
//! reports < 8 s for every model/cluster pair; the ledger's `plan-scale`
//! workload (`bench/`, `core.plan_*` metrics) measures this
//! implementation.
//!
//! Two planning modes are provided:
//!
//! * [`Planner::try_plan`] — the paper's hierarchical DP, solving level by
//!   level (within a server first, then across servers).
//! * [`Planner::try_plan_flat`] — the same DP run at a single level over
//!   all workers with the outermost (slowest) bandwidth. This can express
//!   configurations that cross server granularity, such as the `15-1`
//!   VGG-16 config of Table 1, and is what the Table-1 experiments use
//!   on multi-server clusters.

use crate::config::{PipelineConfig, StagePlan};
use crate::stash::ScheduleKind;
use pipedream_hw::{allreduce_time, p2p_time, LinkModel, Precision, Topology};
use pipedream_model::{LayerCosts, ModelProfile};
use serde::{Deserialize, Serialize};

/// The planner's output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// Chosen configuration.
    pub config: PipelineConfig,
    /// Predicted effective time per minibatch at the bottleneck stage
    /// (seconds) — the DP objective `A^L(0→N, m_L)`.
    pub bottleneck_s: f64,
    /// Predicted steady-state throughput in samples/second
    /// (`per-GPU minibatch / bottleneck_s`).
    pub samples_per_sec: f64,
    /// `NUM_OPT_ACTIVE_MINIBATCHES` for the chosen configuration.
    pub noam: usize,
}

/// Typed failure from the validated planning entry points
/// ([`Planner::try_plan`] and friends). Anything long-running (the
/// `pipedream serve` daemon) maps these to a 400 instead of dying.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlanError {
    /// The model profile has no layers.
    EmptyProfile,
    /// The topology has no levels, a zero arity somewhere, or zero total
    /// workers.
    NoWorkers,
    /// The per-GPU minibatch size is zero.
    ZeroBatch,
    /// A layer cost is NaN or negative (message names the layer).
    InvalidCosts(String),
    /// No partition satisfies the per-worker memory limit.
    MemoryInfeasible {
        /// The budget that nothing fit under, in bytes.
        limit_bytes: u64,
        /// The schedule kind the memory model assumed.
        schedule: ScheduleKind,
    },
    /// A configuration handed to the evaluator does not match the model.
    InvalidConfig(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::EmptyProfile => write!(f, "model profile has no layers"),
            PlanError::NoWorkers => write!(f, "topology has no workers"),
            PlanError::ZeroBatch => write!(f, "per-GPU minibatch size is zero"),
            PlanError::InvalidCosts(msg) => write!(f, "invalid layer costs: {msg}"),
            PlanError::MemoryInfeasible {
                limit_bytes,
                schedule,
            } => write!(
                f,
                "no feasible partition: every configuration exceeds the memory limit \
                 ({limit_bytes} bytes per worker under the {schedule} schedule)"
            ),
            PlanError::InvalidConfig(msg) => {
                write!(f, "configuration does not match model: {msg}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Planner-predicted timing of a single pipeline stage, as produced by
/// [`Planner::predicted_stage_times`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StagePrediction {
    /// Pipeline stage index.
    pub stage: usize,
    /// Predicted forward + backward compute for one minibatch on one
    /// replica (seconds).
    pub compute_s: f64,
    /// Predicted weight all_reduce time across the stage's replicas
    /// (seconds; 0 for unreplicated stages).
    pub sync_s: f64,
    /// Predicted effective per-minibatch time:
    /// `max(compute, sync) / replicas`.
    pub effective_s: f64,
}

/// The partitioning optimizer: binds a model profile to a topology.
///
/// ```
/// use pipedream_core::Planner;
/// use pipedream_hw::ClusterPreset;
/// use pipedream_model::zoo;
///
/// // The paper's headline case: VGG-16 on 4 Cluster-A servers → 15-1.
/// let topo = ClusterPreset::A.with_servers(4);
/// let plan = Planner::new(&zoo::vgg16(), &topo).try_plan_flat().unwrap();
/// assert_eq!(plan.config.label(), "15-1");
///
/// // …and ResNet-50 stays data-parallel (§5.2).
/// let plan = Planner::new(&zoo::resnet50(), &topo).try_plan().unwrap();
/// assert!(plan.config.is_data_parallel());
/// ```
pub struct Planner<'a> {
    costs: LayerCosts,
    topo: &'a Topology,
    /// Optional per-device memory budget (§3.1: the optimizer "takes into
    /// account … memory capacity of the compute devices"). Stages whose
    /// weight versions + activation stashes cannot fit are infeasible.
    memory_limit: Option<u64>,
    /// The schedule variant the memory model assumes — 2BW caps weight
    /// versions at 2, recomputation shrinks the activation stash to O(1),
    /// so a model infeasible under vanilla stashing may still plan.
    schedule: ScheduleKind,
}

/// What cell `(i, j, m)` chose, packed into 8 bytes so that the cells'
/// choices are updated in the same vector lanes as their values: `m' = 0`
/// means layers `i..=j` form one stage replicated over the `m` units of
/// this level; otherwise the cell splits after layer `s` into a
/// sub-pipeline on `m − m'` units and a single stage on `m'` units.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Choice(u64);

impl Choice {
    const SINGLE: Choice = Choice(0);

    fn split(s: usize, m_prime: usize) -> Choice {
        Choice((s as u64) << 32 | m_prime as u64)
    }

    /// `Some((s, m'))` for a split, `None` for a single stage.
    fn split_point(self) -> Option<(usize, usize)> {
        let m_prime = self.0 as u32 as usize;
        (m_prime != 0).then_some(((self.0 >> 32) as usize, m_prime))
    }
}

/// One DP table for a level: `A(i→j, m)` and its choice for the cells
/// `i ≤ j` of the first `rows` rows and every `1 ≤ m ≤ max_m`. Cells are
/// stored row by row and, within a row, by `j`, each with its `max_m`
/// values contiguous.
struct LevelTable {
    n: usize,
    max_m: usize,
    vals: Vec<f64>,
    choices: Vec<Choice>,
}

impl LevelTable {
    /// An empty table with room for `rows` rows, filled row by row in
    /// storage order.
    fn with_capacity(rows: usize, n: usize, max_m: usize) -> Self {
        let len = Self::cells_before(n, rows) * max_m;
        LevelTable {
            n,
            max_m,
            vals: Vec::with_capacity(len),
            choices: Vec::with_capacity(len),
        }
    }

    /// Cells in the rows before row `i`: row `r` holds `n − r`.
    fn cells_before(n: usize, i: usize) -> usize {
        i * (2 * n + 1 - i) / 2
    }

    fn idx(&self, i: usize, j: usize, m: usize) -> usize {
        debug_assert!(i <= j && j < self.n && (1..=self.max_m).contains(&m));
        (Self::cells_before(self.n, i) + j - i) * self.max_m + m - 1
    }

    fn get(&self, i: usize, j: usize, m: usize) -> f64 {
        self.vals[self.idx(i, j, m)]
    }

    fn choice(&self, i: usize, j: usize, m: usize) -> Choice {
        self.choices[self.idx(i, j, m)]
    }
}

/// Lanes of `f64` one vector register holds with AVX-512; the runs of
/// [`StageTable`] are padded to a whole number of them.
const WIDTH: usize = 8;

/// `T^k(a→j, m)` for every `a ≤ j` and `1 ≤ m ≤ max_m`. Row `a` holds one
/// run per `m`, `T^k(a→j, m)` for `j = a..n` contiguous in `j` and padded
/// with `+∞` to a whole number of vectors, so the tails `T^k(s+1→j, m')`
/// one split offers the cells `j > s` are a single run.
struct StageTable {
    n: usize,
    max_m: usize,
    /// Where row `a` starts in `vals`, and one past the last row.
    starts: Vec<usize>,
    vals: Vec<f64>,
}

impl StageTable {
    /// Padded length of the runs of row `a` over `n` layers.
    fn run_len(n: usize, a: usize) -> usize {
        (n - a).next_multiple_of(WIDTH)
    }

    /// Row `a`, its `max_m` runs one after another, and their length.
    fn row(&self, a: usize) -> (&[f64], usize) {
        let row = &self.vals[self.starts[a]..self.starts[a + 1]];
        (row, Self::run_len(self.n, a))
    }

    /// `T^k(a→j, m)` for `j = a..`, padded.
    fn run(&self, a: usize, m: usize) -> &[f64] {
        let (row, len) = self.row(a);
        &row[(m - 1) * len..m * len]
    }
}

/// `Σ T_l` over `a..=j` for every `j = a..n`, appended to `out`: one
/// running fold that adds the same terms in the same order as
/// `LayerCosts::total_compute(a, j)`, from the same `-0.0`, so every sum is
/// bit-identical to it.
fn compute_sums(costs: &LayerCosts, a: usize, out: &mut Vec<f64>) {
    let mut sum = -0.0;
    out.extend(costs.layers[a..].iter().map(|l| {
        sum += l.total_s();
        sum
    }));
}

/// `T^k` as in the paper: effective per-minibatch time of a single stage
/// holding `w_bytes` of weights, replicated across `m` units, where one
/// unit's compute time is `inner` and the all_reduce runs over `link`.
fn t_single(inner: f64, w_bytes: u64, m: usize, link: &LinkModel) -> f64 {
    if m == 1 {
        return inner;
    }
    inner.max(allreduce_time(link, w_bytes, m)) / m as f64
}

impl<'a> Planner<'a> {
    /// Plan `profile` on `topo` with the paper's defaults: the model's
    /// per-GPU minibatch size and fp32.
    pub fn new(profile: &ModelProfile, topo: &'a Topology) -> Self {
        Planner::with_options(profile, topo, profile.default_batch, Precision::Fp32)
    }

    /// Plan with an explicit per-GPU minibatch size and precision.
    pub fn with_options(
        profile: &ModelProfile,
        topo: &'a Topology,
        batch: usize,
        precision: Precision,
    ) -> Self {
        Planner {
            costs: profile.costs(&topo.device, batch, precision),
            topo,
            memory_limit: None,
            schedule: ScheduleKind::default(),
        }
    }

    /// Construct directly from pre-computed layer costs (e.g. a measured
    /// profile from `pipedream_model::profiler`).
    pub fn from_costs(costs: LayerCosts, topo: &'a Topology) -> Self {
        Planner {
            costs,
            topo,
            memory_limit: None,
            schedule: ScheduleKind::default(),
        }
    }

    /// Constrain plans to an explicit per-worker memory budget in bytes.
    pub fn with_memory_limit(mut self, bytes: u64) -> Self {
        self.memory_limit = Some(bytes);
        self
    }

    /// Plan for a specific schedule variant: the memory model (and so the
    /// feasible set under [`Planner::with_memory_limit`]) follows the
    /// kind's stash policy.
    pub fn with_schedule(mut self, kind: ScheduleKind) -> Self {
        self.schedule = kind;
        self
    }

    /// The schedule variant the memory model assumes.
    pub fn schedule(&self) -> ScheduleKind {
        self.schedule
    }

    /// The layer costs the planner operates on.
    pub fn costs(&self) -> &LayerCosts {
        &self.costs
    }

    /// Solve one level of the DP for rows `i < rows`, which is every row or
    /// row 0 only. `below` is the level underneath, whose full-width cells
    /// `A^{k-1}(a→j, m_{k-1})` are this level's units (`None` at the bottom,
    /// where a unit's compute is `Σ T_l`); `max_m` is this level's arity and
    /// `link` its link model.
    fn solve_level(
        &self,
        below: Option<&LevelTable>,
        max_m: usize,
        rows: usize,
        link: &LinkModel,
    ) -> LevelTable {
        let n = self.costs.num_layers();
        let mut w_prefix = vec![0u64; n + 1];
        for (l, layer) in self.costs.layers.iter().enumerate() {
            w_prefix[l + 1] = w_prefix[l] + layer.weight_bytes;
        }
        let runs: usize = (0..n).map(|a| StageTable::run_len(n, a)).sum();
        let mut stage = StageTable {
            n,
            max_m,
            starts: Vec::with_capacity(n + 1),
            vals: Vec::with_capacity(runs * max_m),
        };
        for a in 0..n {
            // The run for `m = 1` is the unit's own time, `A^{k-1}(a→j,
            // m_{k-1})` or `Σ T_l`; every wider run derives from it.
            let at = stage.vals.len();
            stage.starts.push(at);
            match below {
                None => compute_sums(&self.costs, a, &mut stage.vals),
                Some(prev) => stage
                    .vals
                    .extend((a..n).map(|j| prev.get(a, j, prev.max_m))),
            }
            let len = StageTable::run_len(n, a);
            stage.vals.resize(at + len, f64::INFINITY);
            for m in 2..=max_m {
                let from = stage.vals.len();
                stage.vals.extend_from_within(at..at + len);
                let run = stage.vals[from..from + n - a].iter_mut().enumerate();
                for (d, t) in run {
                    let w_bytes = w_prefix[a + d + 1] - w_prefix[a];
                    *t = t_single(*t, w_bytes, m, link);
                }
            }
        }
        stage.starts.push(stage.vals.len());
        let act: Vec<f64> = (0..n)
            .map(|s| 2.0 * p2p_time(link, self.costs.activation_bytes(s)))
            .collect();
        Self::fill_rows(&stage, &act, rows)
    }

    /// Rows `i < rows` of a level, one row at a time, over a working block
    /// `best[m][j]` / `choice[m][j]` that is contiguous in `j` (see the
    /// module docs), copied row by row into the table's layout.
    fn fill_rows(stage: &StageTable, act: &[f64], rows: usize) -> LevelTable {
        let (n, max_m) = (stage.n, stage.max_m);
        // A split's padded run reaches up to `WIDTH − 1` cells past `n`.
        // They hold `−∞`, which no candidate (the tail's padding is `+∞`)
        // replaces and no maximum picks, and are never copied out.
        let stride = n + WIDTH;
        let mut best = vec![f64::NEG_INFINITY; max_m * stride];
        let mut choice = vec![Choice::SINGLE; max_m * stride];
        // The tail widths one `(s, m)` offers: `(first vector of the tail's
        // run, head, choice)`.
        let mut offers = Vec::with_capacity(max_m);
        let mut table = LevelTable::with_capacity(rows, n, max_m);
        for i in 0..rows {
            for m in 1..=max_m {
                let at = (m - 1) * stride;
                best[at + i..at + n].copy_from_slice(&stage.run(i, m)[..n - i]);
                choice[at + i..at + n].fill(Choice::SINGLE);
            }
            for (s, &act) in act.iter().enumerate().take(n - 1).skip(i) {
                #[cfg(test)]
                tests::LANES
                    .with(|c| c.set(c.get() + ((n - 1 - s) * max_m * (max_m - 1) / 2) as u64));
                let (tails, len) = stage.row(s + 1);
                let (tails, _) = tails.as_chunks::<WIDTH>();
                // The least head `max(A(i→s, m − m'), 2·a_s)` over `m' < m`.
                let mut lowest = f64::INFINITY;
                for m in 2..=max_m {
                    let head = best[(m - 2) * stride + s].max(act);
                    lowest = if head < lowest { head } else { lowest };
                    // The largest `best[m][j]` over the cells `j > s`: a
                    // head that reaches it can lower none of them.
                    let at = (m - 1) * stride + s + 1;
                    let (cells, _) = best[at..at + len].as_chunks::<WIDTH>();
                    let mut widest = [f64::NEG_INFINITY; WIDTH];
                    for c in cells {
                        for l in 0..WIDTH {
                            widest[l] = if c[l] > widest[l] { c[l] } else { widest[l] };
                        }
                    }
                    let open = widest.into_iter().fold(f64::NEG_INFINITY, f64::max);
                    if lowest >= open {
                        continue;
                    }
                    offers.clear();
                    for m_prime in 1..m {
                        let head = best[(m - m_prime - 1) * stride + s].max(act);
                        if head < open {
                            let first = (m_prime - 1) * len / WIDTH;
                            offers.push((first, head, Choice::split(s, m_prime)));
                        }
                    }
                    // One vector of cells at a time, held in registers
                    // while every offer passes over it in `m'` order.
                    let (best, _) = best[at..at + len].as_chunks_mut::<WIDTH>();
                    let (choice, _) = choice[at..at + len].as_chunks_mut::<WIDTH>();
                    for (v, (b, ch)) in best.iter_mut().zip(choice).enumerate() {
                        let (mut bv, mut cv) = (*b, *ch);
                        for &(first, head, split) in &offers {
                            let t = &tails[first + v];
                            for l in 0..WIDTH {
                                let cand = head.max(t[l]);
                                let better = cand < bv[l];
                                bv[l] = if better { cand } else { bv[l] };
                                cv[l] = if better { split } else { cv[l] };
                            }
                        }
                        (*b, *ch) = (bv, cv);
                    }
                }
            }
            // Row `i` into the table's layout: cell by cell, `m` contiguous.
            let at = table.vals.len();
            table.vals.resize(at + (n - i) * max_m, 0.0);
            table.choices.resize(at + (n - i) * max_m, Choice::SINGLE);
            for m in 0..max_m {
                let cells = (i..n).map(|j| m * stride + j);
                let slots = (at + m..table.vals.len()).step_by(max_m);
                for (slot, cell) in slots.zip(cells) {
                    table.vals[slot] = best[cell];
                    table.choices[slot] = choice[cell];
                }
            }
        }
        table
    }

    /// Flatten the stage list chosen at one level. `unit_plans[i][j]` gives
    /// the stage list of one lower-level component spanning `i..=j`
    /// (`None` at the bottom level, where a unit is a single worker).
    fn reconstruct_level(
        table: &LevelTable,
        i: usize,
        j: usize,
        m: usize,
        unit_plan: &dyn Fn(usize, usize) -> Vec<StagePlan>,
        out: &mut Vec<StagePlan>,
    ) {
        match table.choice(i, j, m).split_point() {
            None => {
                // Replicating a unit whose internal plan may itself be a
                // pipeline: each internal stage gets m× the replicas, which
                // preserves aggregate per-stage throughput under 1F1B-RR.
                for st in unit_plan(i, j) {
                    out.push(StagePlan::new(
                        st.first_layer,
                        st.last_layer,
                        st.replicas * m,
                    ));
                }
            }
            Some((s, m_prime)) => {
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

    /// Exact per-worker memory footprint check for a configuration under
    /// the planner's schedule kind: vanilla stashing holds
    /// `⌈workers-from-s / r_s⌉` weight versions and activation sets per
    /// stage (§3.3); 2BW caps versions at 2 and recomputation shrinks the
    /// activation stash to stage inputs + one workspace.
    pub fn config_fits_memory(&self, config: &PipelineConfig, limit: u64) -> bool {
        crate::estimates::memory_footprint_for(&self.costs, config, self.schedule)
            .iter()
            .all(|m| m.total() <= limit)
    }

    /// Apply the optional memory constraint: keep `plan` if its
    /// configuration fits; otherwise search the candidate family (plus
    /// balanced straight pipelines of every depth) for the
    /// fastest-predicted feasible configuration.
    fn constrain_memory(&self, plan: Plan) -> Result<Plan, PlanError> {
        let Some(limit) = self.memory_limit else {
            return Ok(plan);
        };
        if self.config_fits_memory(&plan.config, limit) {
            return Ok(plan);
        }
        let n = self.costs.num_layers();
        let mut candidates = self.enumerate_configs();
        for d in 2..=self.topo.total_workers().min(n) {
            if let Some(b) = self.balanced_boundaries(d) {
                let cfg = PipelineConfig::straight(n, &b);
                if !candidates.contains(&cfg) {
                    candidates.push(cfg);
                }
            }
        }
        candidates
            .into_iter()
            .filter(|c| self.config_fits_memory(c, limit))
            .filter_map(|c| self.try_evaluate(&c).ok())
            .min_by(|a, b| a.bottleneck_s.total_cmp(&b.bottleneck_s))
            .ok_or(PlanError::MemoryInfeasible {
                limit_bytes: limit,
                schedule: self.schedule,
            })
    }

    /// Validate the planning inputs once, shared by every entry point:
    /// the DP recurrences assume ≥ 1 layer, ≥ 1 worker, a positive batch,
    /// and finite non-negative layer costs. Rejecting here turns what
    /// would be index-underflow panics or NaN-poisoned `min`s into typed
    /// errors a server can map to a 400.
    fn validate_inputs(&self) -> Result<(), PlanError> {
        if self.costs.num_layers() == 0 {
            return Err(PlanError::EmptyProfile);
        }
        if self.topo.levels.is_empty() || self.topo.total_workers() == 0 {
            return Err(PlanError::NoWorkers);
        }
        if self.costs.batch == 0 {
            return Err(PlanError::ZeroBatch);
        }
        for l in &self.costs.layers {
            for (what, v) in [("fwd_s", l.fwd_s), ("bwd_s", l.bwd_s)] {
                if v.is_nan() || v < 0.0 {
                    return Err(PlanError::InvalidCosts(format!(
                        "layer {} has {what} = {v}",
                        l.name
                    )));
                }
            }
        }
        for level in &self.topo.levels {
            let b = level.link.bandwidth_bytes_per_sec;
            // NaN must fail this check too, not just zero/negative.
            if b.is_nan() || b <= 0.0 {
                return Err(PlanError::InvalidCosts(format!(
                    "level {} has bandwidth {b} bytes/s",
                    level.name
                )));
            }
        }
        Ok(())
    }

    /// The paper's hierarchical DP: solve each level bottom-up and
    /// reconstruct the flattened configuration. Inputs are validated;
    /// degenerate ones come back as a typed [`PlanError`].
    pub fn try_plan(&self) -> Result<Plan, PlanError> {
        self.validate_inputs()?;
        let n = self.costs.num_layers();
        let top = self.topo.num_levels();
        let mut tables: Vec<LevelTable> = Vec::with_capacity(top);
        for k in 1..=top {
            // The level above reads every row of this one; nothing reads
            // the top level beyond row 0.
            let rows = if k == top { 1 } else { n };
            let table =
                self.solve_level(tables.last(), self.topo.arity(k), rows, self.topo.link(k));
            tables.push(table);
        }

        // Reconstruct from the top level down.
        let stages = self.reconstruct_from(top, &tables, 0, n - 1, self.topo.arity(top));
        let bottleneck = tables[top - 1].get(0, n - 1, self.topo.arity(top));
        self.constrain_memory(self.finish_plan(stages, bottleneck))
    }

    /// The flat variant: a single DP level over *all* workers with the
    /// topology's slowest bandwidth. Can express worker-granular
    /// configurations (e.g. `15-1`) that the hierarchical DP quantizes to
    /// server granularity. Inputs are validated as in
    /// [`Planner::try_plan`].
    pub fn try_plan_flat(&self) -> Result<Plan, PlanError> {
        self.validate_inputs()?;
        let n = self.costs.num_layers();
        let workers = self.topo.total_workers();
        let link = self.topo.link(self.topo.num_levels());
        let table = self.solve_level(None, workers, 1, link); // row 0 only
        let unit = |a: usize, b: usize| vec![StagePlan::new(a, b, 1)];
        let mut stages = Vec::new();
        Self::reconstruct_level(&table, 0, n - 1, workers, &unit, &mut stages);
        let bottleneck = table.get(0, n - 1, workers);
        self.constrain_memory(self.finish_plan(stages, bottleneck))
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
            Box::new(move |a: usize, b: usize| self.reconstruct_from(k - 1, tables, a, b, prev_m))
        };
        let mut out = Vec::new();
        Self::reconstruct_level(table, i, j, m, &unit_plan, &mut out);
        out
    }

    fn finish_plan(&self, stages: Vec<StagePlan>, bottleneck: f64) -> Plan {
        debug_assert!(
            bottleneck.is_finite(),
            "validated inputs always yield a finite bottleneck"
        );
        let config = PipelineConfig::new(stages);
        debug_assert!(config.validate(self.costs.num_layers()).is_ok());
        Plan {
            noam: config.noam(),
            samples_per_sec: self.costs.batch as f64 / bottleneck,
            bottleneck_s: bottleneck,
            config,
        }
    }

    /// Analytically evaluate an arbitrary configuration under the same cost
    /// model the DP uses, but with *topology-aware* bandwidths derived from
    /// the canonical worker assignment (stage all_reduces use the slowest
    /// link their replicas span; boundary transfers use the link between
    /// the adjacent stages' workers). Used for the Figure-15
    /// predicted-vs-real comparison and the Table-1 baselines. Inputs and
    /// `config` are validated; a mismatch is a typed [`PlanError`].
    pub fn try_evaluate(&self, config: &PipelineConfig) -> Result<Plan, PlanError> {
        self.validate_inputs()?;
        config
            .validate(self.costs.num_layers())
            .map_err(PlanError::InvalidConfig)?;
        let assignment = config.worker_assignment();
        let mut bottleneck = 0.0f64;
        for (si, stage) in config.stages().iter().enumerate() {
            let (i, j, m) = (stage.first_layer, stage.last_layer, stage.replicas);
            // Compute + weight sync.
            let compute = self.costs.total_compute(i, j);
            let stage_time = if m > 1 {
                let w = self.costs.weight_bytes(i, j);
                compute.max(self.topo.allreduce_time_spanning(&assignment[si], w)) / m as f64
            } else {
                compute
            };
            bottleneck = bottleneck.max(stage_time);
            // Boundary activation + gradient traffic to the next stage.
            if si + 1 < config.num_stages() {
                let a = self.costs.activation_bytes(j);
                let from = *assignment[si].last().unwrap();
                let to = assignment[si + 1][0];
                if let Some(link) = self.topo.link_between(from, to) {
                    bottleneck = bottleneck.max(2.0 * p2p_time(link, a));
                }
            }
        }
        Ok(Plan {
            config: config.clone(),
            bottleneck_s: bottleneck,
            samples_per_sec: self.costs.batch as f64 / bottleneck,
            noam: config.noam(),
        })
    }

    /// Per-stage predicted times for `config` under the same cost model as
    /// [`Planner::try_evaluate`], broken out per stage instead of reduced to
    /// the bottleneck. Used by the observability subsystem to diff
    /// measured stage times against the plan (`repro trace-validate`).
    ///
    /// Panics on a config that does not match the model; see
    /// [`Planner::try_predicted_stage_times`] for the checked variant.
    pub fn predicted_stage_times(&self, config: &PipelineConfig) -> Vec<StagePrediction> {
        self.try_predicted_stage_times(config)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Planner::predicted_stage_times`] with typed errors instead of
    /// panics — the variant the live replan loop uses, where a degenerate
    /// config must never kill the run.
    pub fn try_predicted_stage_times(
        &self,
        config: &PipelineConfig,
    ) -> Result<Vec<StagePrediction>, PlanError> {
        config
            .validate(self.costs.num_layers())
            .map_err(PlanError::InvalidConfig)?;
        let assignment = config.worker_assignment();
        Ok(config
            .stages()
            .iter()
            .enumerate()
            .map(|(si, stage)| {
                let (i, j, m) = (stage.first_layer, stage.last_layer, stage.replicas);
                let compute_s = self.costs.total_compute(i, j);
                let sync_s = if m > 1 {
                    let w = self.costs.weight_bytes(i, j);
                    self.topo.allreduce_time_spanning(&assignment[si], w)
                } else {
                    0.0
                };
                StagePrediction {
                    stage: si,
                    compute_s,
                    sync_s,
                    effective_s: compute_s.max(sync_s) / m as f64,
                }
            })
            .collect())
    }

    /// Enumerate a family of candidate configurations for this model and
    /// worker count: data parallelism, straight pipelines of various
    /// depths (compute-balanced splits), and two-stage replicated splits
    /// (`k`-`W−k`). Used by the Figure-15 scatter.
    pub fn enumerate_configs(&self) -> Vec<PipelineConfig> {
        let n = self.costs.num_layers();
        let workers = self.topo.total_workers();
        let mut out = vec![PipelineConfig::data_parallel(n, workers)];
        // The straight pipeline using every worker, if the model is deep
        // enough.
        if workers >= 2 && workers <= n {
            if let Some(b) = self.balanced_boundaries(workers) {
                out.push(PipelineConfig::straight(n, &b));
            }
        }
        // Shallower pipelines padded out with replication: `d` stages, each
        // replicated workers/d ways (requires d | workers).
        let mut d = 2;
        while d < workers && d <= n {
            if workers.is_multiple_of(d) {
                if let Some(b) = self.balanced_boundaries(d) {
                    let r = workers / d;
                    let mut stages = Vec::with_capacity(d);
                    let mut first = 0usize;
                    for &bnd in &b {
                        stages.push(StagePlan::new(first, bnd, r));
                        first = bnd + 1;
                    }
                    stages.push(StagePlan::new(first, n - 1, r));
                    out.push(PipelineConfig::new(stages));
                }
            }
            d *= 2;
        }
        // Two-stage replicated configs k-(W−k): at each split point the
        // compute-proportional replica count, plus the extreme (W−1)-1.
        // A single worker admits no two-stage split at all.
        if workers < 2 {
            return out;
        }
        for s in 0..n - 1 {
            let head = self.costs.total_compute(0, s);
            let tail = self.costs.total_compute(s + 1, n - 1);
            let ideal =
                ((head / (head + tail) * workers as f64).round() as usize).clamp(1, workers - 1);
            for k in [ideal, workers - 1] {
                let cfg = PipelineConfig::new(vec![
                    StagePlan::new(0, s, k),
                    StagePlan::new(s + 1, n - 1, workers - k),
                ]);
                if !out.contains(&cfg) {
                    out.push(cfg);
                }
            }
        }
        out
    }

    /// Boundaries that split the model into `d` compute-balanced stages,
    /// or `None` if `d` exceeds the layer count.
    pub fn balanced_boundaries(&self, d: usize) -> Option<Vec<usize>> {
        self.weighted_boundaries(&vec![1.0; d])
    }

    /// A greedy baseline partitioner (planner ablation): split the model
    /// into compute-balanced stages at every feasible depth `d | W`, assign
    /// `W/d` replicas to each stage, and keep the best by the analytic
    /// evaluator. Misses the asymmetric configurations the DP finds (e.g.
    /// `15-1`); the ablation quantifies the gap. Inputs are validated as
    /// in [`Planner::try_plan`].
    pub fn try_plan_greedy(&self) -> Result<Plan, PlanError> {
        self.validate_inputs()?;
        let n = self.costs.num_layers();
        let workers = self.topo.total_workers();
        let mut best: Option<Plan> = None;
        let mut consider = |config: PipelineConfig| {
            let Ok(plan) = self.try_evaluate(&config) else {
                return;
            };
            if best
                .as_ref()
                .map(|b| plan.bottleneck_s < b.bottleneck_s)
                .unwrap_or(true)
            {
                best = Some(plan);
            }
        };
        consider(PipelineConfig::data_parallel(n, workers));
        for d in 2..=workers.min(n) {
            if !workers.is_multiple_of(d) {
                continue;
            }
            let Some(b) = self.balanced_boundaries(d) else {
                continue;
            };
            let r = workers / d;
            let mut stages = Vec::with_capacity(d);
            let mut first = 0usize;
            for &bnd in &b {
                stages.push(StagePlan::new(first, bnd, r));
                first = bnd + 1;
            }
            stages.push(StagePlan::new(first, n - 1, r));
            consider(PipelineConfig::new(stages));
        }
        Ok(best.expect("at least DP is considered"))
    }

    /// Boundaries that split the model into `speeds.len()` stages whose
    /// compute loads are proportional to the stage workers' `speeds` —
    /// platform diversity (§2.3): a half-speed worker gets half the layers'
    /// compute, so the pipeline's bottleneck stays balanced.
    pub fn weighted_boundaries(&self, speeds: &[f64]) -> Option<Vec<usize>> {
        let d = speeds.len();
        let n = self.costs.num_layers();
        if d > n || d < 2 {
            return None;
        }
        assert!(speeds.iter().all(|&s| s > 0.0), "speeds must be positive");
        let speed_total: f64 = speeds.iter().sum();
        let total = self.costs.total_compute_all();
        // Cumulative compute share each boundary should sit at.
        let mut cum_share = Vec::with_capacity(d - 1);
        let mut acc_share = 0.0;
        for &sp in &speeds[..d - 1] {
            acc_share += sp / speed_total;
            cum_share.push(acc_share * total);
        }
        let mut boundaries = Vec::with_capacity(d - 1);
        let mut acc = 0.0;
        for l in 0..n {
            acc += self.costs.layers[l].total_s();
            if boundaries.len() < d - 1 && acc >= cum_share[boundaries.len()] {
                // Don't let trailing stages run out of layers.
                let remaining_layers = n - l - 1;
                let remaining_stages = d - 1 - boundaries.len();
                if remaining_layers >= remaining_stages {
                    boundaries.push(l);
                }
            }
        }
        while boundaries.len() < d - 1 {
            // Fall back: put missing boundaries right before the end.
            let next = n - (d - 1 - boundaries.len()) - 1;
            if boundaries.last().is_some_and(|&b| b >= next) {
                return None;
            }
            boundaries.push(next);
        }
        Some(boundaries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipedream_hw::{ClusterPreset, Device, Level, LinkModel};
    use pipedream_model::zoo;
    use std::cell::Cell;

    thread_local! {
        /// Split candidates `(s, m', m)` that `solve_level` offered its
        /// cells on this thread, counted before any is skipped.
        pub(super) static LANES: Cell<u64> = const { Cell::new(0) };
    }

    /// Candidates offered while `f` runs.
    fn candidates_of(f: impl FnOnce()) -> u64 {
        let before = LANES.with(Cell::get);
        f();
        LANES.with(Cell::get) - before
    }

    /// Candidates one level of arity `m` offers over `n` layers: cell
    /// `(i, j)` has `j−i` splits `s`, each offering every `m' < m` to the
    /// `m − m'` widths above it, `C(m, 2)` lanes; so the level has `C(m, 2)`
    /// times `Σ_{i≤j} (j−i) = C(n+1, 3)` with every row solved, or times
    /// `Σ_j j = C(n, 2)` with row 0 only.
    fn level_candidates(n: u64, m: u64, all_rows: bool) -> u64 {
        let pairs = if all_rows {
            (n + 1) * n * (n - 1) / 6
        } else {
            n * (n - 1) / 2
        };
        pairs * (m * (m - 1) / 2)
    }

    #[test]
    fn top_level_solves_row_zero_only() {
        let profile = zoo::uniform(12, 1e9, 100_000, 1_000_000);
        let flat = flat_topo(6, 10.0);
        let visited = candidates_of(|| {
            Planner::new(&profile, &flat).try_plan_flat().unwrap();
        });
        assert_eq!(visited, level_candidates(12, 6, false));

        // Hierarchical: every row below the top, row 0 at the top.
        let link = LinkModel::from_gbytes(10.0, 0.0);
        let level = |arity| Level {
            name: "l".into(),
            arity,
            link,
        };
        let topo = Topology::new(Device::v100(), vec![level(3), level(4), level(5)]);
        let visited = candidates_of(|| {
            Planner::new(&profile, &topo).try_plan().unwrap();
        });
        assert_eq!(
            visited,
            level_candidates(12, 3, true)
                + level_candidates(12, 4, true)
                + level_candidates(12, 5, false)
        );
    }

    #[test]
    fn triangular_index_is_one_to_one() {
        for (n, max_m) in [(1, 1), (1, 4), (5, 1), (7, 3), (12, 8)] {
            let profile = zoo::uniform(n, 1e9, 100_000, 1_000_000);
            let topo = flat_topo(max_m, 10.0);
            let planner = Planner::new(&profile, &topo);
            for rows in [1, n] {
                let table = planner.solve_level(None, max_m, rows, topo.link(1));
                // Storage order is row, then j ≥ i, then m: the cells of
                // `rows` rows land on consecutive indices from 0 and fill
                // the table exactly.
                let mut next = 0;
                for i in 0..rows {
                    for j in i..n {
                        for m in 1..=max_m {
                            assert_eq!(
                                table.idx(i, j, m),
                                next,
                                "n {n} rows {rows}: ({i}, {j}, {m})"
                            );
                            next += 1;
                        }
                    }
                }
                let room = LevelTable::cells_before(n, rows) * max_m;
                assert_eq!((table.vals.len(), table.choices.len()), (next, next));
                assert_eq!(room, next, "n {n} rows {rows} max_m {max_m}");
            }
        }
    }

    #[test]
    fn row_fill_and_row_zero_fill_agree() {
        // The two shapes of a level: row 0 of a fill of every row (a lower
        // level) equals a fill of row 0 only (the top level), values and
        // choices, bit for bit.
        for (n, max_m) in [(1, 1), (1, 4), (5, 1), (7, 3), (12, 8), (24, 16)] {
            let mut profile = zoo::uniform(n, 1e9, 100_000, 1_000_000);
            for (l, layer) in profile.layers.iter_mut().enumerate() {
                layer.flops_fwd *= [1.0, 0.5, 3.0, 1.25][l % 4];
                layer.weight_params *= [1, 4, 1, 64][l % 4];
                layer.activation_elems *= [1, 40, 2, 1][l % 4];
            }
            let topo = flat_topo(max_m, 10.0);
            let planner = Planner::new(&profile, &topo);
            let all = planner.solve_level(None, max_m, n, topo.link(1));
            let zero = planner.solve_level(None, max_m, 1, topo.link(1));
            for j in 0..n {
                for m in 1..=max_m {
                    let at = format!("n {n} max_m {max_m}: (0, {j}, {m})");
                    assert_eq!(
                        all.get(0, j, m).to_bits(),
                        zero.get(0, j, m).to_bits(),
                        "{at}"
                    );
                    assert_eq!(all.choice(0, j, m), zero.choice(0, j, m), "{at}");
                }
            }
        }
    }

    #[test]
    fn compute_sums_equal_total_compute_bitwise() {
        let mut jittered = zoo::uniform(64, 1e9, 100_000, 1_000_000);
        for (l, layer) in jittered.layers.iter_mut().enumerate() {
            layer.flops_fwd *= 1.0 + 0.37 * ((l * 7919) % 13) as f64;
        }
        // A sum of one `-0.0` layer keeps its sign only from a `-0.0` start.
        jittered.layers[0].flops_fwd = -0.0;
        let mut models = zoo::all_models();
        models.extend([zoo::huge_lm(), jittered]);
        let topo = flat_topo(1, 10.0);
        let mut sums = Vec::new();
        for model in &models {
            let costs = Planner::new(model, &topo).costs;
            let n = costs.num_layers();
            for a in 0..n {
                sums.clear();
                compute_sums(&costs, a, &mut sums);
                assert_eq!(sums.len(), n - a);
                for (j, sum) in (a..n).zip(&sums) {
                    let want = costs.total_compute(a, j);
                    assert_eq!(sum.to_bits(), want.to_bits(), "{}: ({a}, {j})", model.name);
                }
            }
        }
    }

    #[test]
    fn choice_packs_split_points() {
        assert_eq!(Choice::SINGLE.split_point(), None);
        for (s, m_prime) in [(0, 1), (7, 3), (127, 127), (u32::MAX as usize, 1)] {
            assert_eq!(Choice::split(s, m_prime).split_point(), Some((s, m_prime)));
        }
        assert_eq!(std::mem::size_of::<Choice>(), 8);
    }

    fn flat_topo(n: usize, gbytes: f64) -> Topology {
        Topology::flat(
            Device::v100(),
            n,
            LinkModel::from_gbytes(gbytes, 0.0),
            "test",
        )
    }

    /// Brute force over all (partition, replication) assignments for small
    /// models on a flat topology, mirroring the DP's cost model exactly.
    fn brute_force(planner: &Planner<'_>, workers: usize, link: &LinkModel) -> f64 {
        let n = planner.costs.num_layers();
        fn go(
            p: &Planner<'_>,
            first: usize,
            workers_left: usize,
            link: &LinkModel,
            n: usize,
        ) -> f64 {
            if first == n {
                return if workers_left == 0 {
                    0.0
                } else {
                    f64::INFINITY
                };
            }
            if workers_left == 0 {
                return f64::INFINITY;
            }
            let mut best = f64::INFINITY;
            for last in first..n {
                for m in 1..=workers_left {
                    let stage = t_single(
                        p.costs.total_compute(first, last),
                        p.costs.weight_bytes(first, last),
                        m,
                        link,
                    );
                    let boundary = if last + 1 < n {
                        2.0 * p2p_time(link, p.costs.activation_bytes(last))
                    } else {
                        0.0
                    };
                    let rest = go(p, last + 1, workers_left - m, link, n);
                    // A trailing unused-worker plan is not allowed: all
                    // workers must be consumed, as in the DP.
                    let cand = stage.max(boundary).max(rest);
                    if cand < best {
                        best = cand;
                    }
                }
            }
            best
        }
        go(planner, 0, workers, link, n)
    }

    #[test]
    fn flat_dp_matches_brute_force_small() {
        for seed_layers in [3usize, 4, 5] {
            let profile = zoo::uniform(seed_layers, 2e9, 50_000, 400_000);
            for workers in [2usize, 3, 4] {
                let topo = flat_topo(workers, 10.0);
                let planner = Planner::new(&profile, &topo);
                let plan = planner.try_plan_flat().unwrap();
                let bf = brute_force(&planner, workers, topo.link(1));
                assert!(
                    (plan.bottleneck_s - bf).abs() / bf < 1e-9,
                    "layers {seed_layers} workers {workers}: dp {} vs bf {bf}",
                    plan.bottleneck_s
                );
            }
        }
    }

    #[test]
    fn flat_dp_matches_brute_force_skewed() {
        // Heavily skewed model: one huge layer.
        let mut profile = zoo::uniform(4, 1e9, 20_000, 100_000);
        profile.layers[2].flops_fwd = 10e9;
        profile.layers[2].weight_params = 50_000_000;
        let topo = flat_topo(4, 12.0);
        let planner = Planner::new(&profile, &topo);
        let plan = planner.try_plan_flat().unwrap();
        let bf = brute_force(&planner, 4, topo.link(1));
        assert!((plan.bottleneck_s - bf).abs() / bf < 1e-9);
    }

    #[test]
    fn single_worker_plan_is_whole_model() {
        let profile = zoo::uniform(6, 1e9, 1000, 1000);
        let topo = flat_topo(1, 10.0);
        let plan = Planner::new(&profile, &topo).try_plan().unwrap();
        assert_eq!(plan.config.num_stages(), 1);
        assert_eq!(plan.config.total_workers(), 1);
    }

    #[test]
    fn plan_uses_all_workers() {
        for model in [zoo::vgg16(), zoo::resnet50(), zoo::gnmt8()] {
            let topo = ClusterPreset::A.with_servers(4);
            let plan = Planner::new(&model, &topo).try_plan().unwrap();
            assert_eq!(
                plan.config.total_workers(),
                16,
                "{}: {}",
                model.name,
                plan.config
            );
            plan.config.validate(model.num_layers()).unwrap();
        }
    }

    #[test]
    fn resnet50_prefers_data_parallelism() {
        // §5.2: "PipeDream's optimizer recommends data parallelism for
        // ResNet-50 because its weight representations are small and its
        // outputs are large."
        let topo = ClusterPreset::A.with_servers(4);
        let plan = Planner::new(&zoo::resnet50(), &topo).try_plan().unwrap();
        assert!(
            plan.config.is_data_parallel(),
            "expected DP, got {}",
            plan.config
        );
    }

    #[test]
    fn vgg16_puts_fc_layers_unreplicated() {
        // Table 1: VGG-16 on 4×4 Cluster-A → 15-1: conv layers heavily
        // replicated, the huge FC layers on a single unreplicated stage.
        let topo = ClusterPreset::A.with_servers(4);
        let plan = Planner::new(&zoo::vgg16(), &topo).try_plan_flat().unwrap();
        let stages = plan.config.stages();
        assert!(stages.len() >= 2, "got {}", plan.config);
        let last = stages.last().unwrap();
        assert_eq!(
            last.replicas, 1,
            "FC stage must be unreplicated: {}",
            plan.config
        );
        assert!(
            last.first_layer >= 13,
            "last stage should hold the FC layers: {}",
            plan.config
        );
        let first = &stages[0];
        assert!(
            first.replicas >= 8,
            "conv stage should be heavily replicated: {}",
            plan.config
        );
    }

    #[test]
    fn awd_lm_prefers_pipeline_over_dp() {
        // §5.2: AWD-LM has 0.41 GB of dense weights → straight pipeline.
        let topo = ClusterPreset::A.with_servers(1);
        let plan = Planner::new(&zoo::awd_lm(), &topo).try_plan().unwrap();
        assert!(
            !plan.config.is_data_parallel(),
            "expected a pipeline, got {}",
            plan.config
        );
    }

    #[test]
    fn hierarchical_never_beats_flat() {
        // The flat DP searches a superset of worker assignments (it is not
        // quantized to server granularity), so its predicted bottleneck can
        // only be ≤ the hierarchical one — but both use different bandwidth
        // assumptions, so compare only when the topology is single-level.
        let topo = ClusterPreset::B.with_servers(1);
        for model in [zoo::vgg16(), zoo::gnmt8()] {
            let planner = Planner::new(&model, &topo);
            let h = planner.try_plan().unwrap();
            let f = planner.try_plan_flat().unwrap();
            assert!(
                (h.bottleneck_s - f.bottleneck_s).abs() / f.bottleneck_s < 1e-9,
                "{}: hierarchical {} flat {}",
                model.name,
                h.bottleneck_s,
                f.bottleneck_s
            );
        }
    }

    #[test]
    fn evaluate_agrees_with_plan_on_flat_topology() {
        let profile = zoo::uniform(8, 2e9, 100_000, 500_000);
        let topo = flat_topo(4, 10.0);
        let planner = Planner::new(&profile, &topo);
        let plan = planner.try_plan_flat().unwrap();
        let eval = planner.try_evaluate(&plan.config).unwrap();
        // evaluate() uses per-link bandwidths; on a flat topology they are
        // identical to the DP's, so predictions should agree closely.
        assert!(
            (eval.bottleneck_s - plan.bottleneck_s).abs() / plan.bottleneck_s < 0.05,
            "eval {} vs plan {}",
            eval.bottleneck_s,
            plan.bottleneck_s
        );
    }

    #[test]
    fn predicted_stage_times_match_evaluate_bottleneck() {
        let profile = zoo::uniform(8, 2e9, 100_000, 500_000);
        let topo = flat_topo(4, 10.0);
        let planner = Planner::new(&profile, &topo);
        let plan = planner.try_plan_flat().unwrap();
        let preds = planner.predicted_stage_times(&plan.config);
        assert_eq!(preds.len(), plan.config.num_stages());
        for (si, p) in preds.iter().enumerate() {
            assert_eq!(p.stage, si);
            assert!(p.compute_s > 0.0);
            let m = plan.config.stages()[si].replicas;
            assert!((p.effective_s - p.compute_s.max(p.sync_s) / m as f64).abs() < 1e-15);
            if m == 1 {
                assert_eq!(p.sync_s, 0.0);
            }
        }
        // The slowest predicted stage is the bottleneck evaluate() reports,
        // unless a boundary link dominates.
        let eval = planner.try_evaluate(&plan.config).unwrap();
        let worst = preds.iter().map(|p| p.effective_s).fold(0.0, f64::max);
        assert!(worst <= eval.bottleneck_s + 1e-12);
    }

    #[test]
    fn balanced_boundaries_cover_model() {
        let profile = zoo::vgg16();
        let topo = flat_topo(4, 10.0);
        let planner = Planner::new(&profile, &topo);
        let b = planner.balanced_boundaries(4).unwrap();
        assert_eq!(b.len(), 3);
        let config = PipelineConfig::straight(16, &b);
        config.validate(16).unwrap();
    }

    #[test]
    fn enumerate_includes_dp_and_straight() {
        let profile = zoo::vgg16();
        let topo = flat_topo(16, 10.0);
        let planner = Planner::new(&profile, &topo);
        let configs = planner.enumerate_configs();
        assert!(configs.iter().any(|c| c.is_data_parallel()));
        assert!(configs.iter().any(|c| c.is_straight()));
        for c in &configs {
            c.validate(16).unwrap();
            assert_eq!(c.total_workers(), 16, "{c}");
        }
    }

    #[test]
    fn dp_planner_never_loses_to_greedy() {
        // Planner ablation: on a single-level topology the DP and the
        // greedy baseline optimize the same objective, and the DP's search
        // space strictly contains greedy's — so its bottleneck can only
        // be ≤.
        for model in [zoo::vgg16(), zoo::gnmt8(), zoo::awd_lm()] {
            let topo = flat_topo(4, 4.0);
            let planner = Planner::new(&model, &topo);
            let dp = planner
                .try_evaluate(&planner.try_plan_flat().unwrap().config)
                .unwrap();
            let greedy = planner.try_plan_greedy().unwrap();
            assert!(
                dp.bottleneck_s <= greedy.bottleneck_s * 1.01,
                "{}: dp {} vs greedy {}",
                model.name,
                dp.bottleneck_s,
                greedy.bottleneck_s
            );
        }
    }

    #[test]
    fn greedy_misses_vgg_asymmetric_config() {
        // The ablation's point: VGG-16 needs the asymmetric 15-1 that only
        // the DP finds; greedy's best symmetric option is measurably worse.
        let model = zoo::vgg16();
        let topo = ClusterPreset::A.with_servers(4);
        let planner = Planner::new(&model, &topo);
        let dp = planner
            .try_evaluate(&planner.try_plan_flat().unwrap().config)
            .unwrap();
        let greedy = planner.try_plan_greedy().unwrap();
        assert!(
            dp.samples_per_sec > 1.2 * greedy.samples_per_sec,
            "dp {} vs greedy {}",
            dp.samples_per_sec,
            greedy.samples_per_sec
        );
    }

    #[test]
    fn throughput_improves_with_more_workers() {
        let profile = zoo::vgg16();
        let t4 = flat_topo(4, 10.0);
        let t8 = flat_topo(8, 10.0);
        let p4 = Planner::new(&profile, &t4).try_plan().unwrap();
        let p8 = Planner::new(&profile, &t8).try_plan().unwrap();
        assert!(p8.samples_per_sec > p4.samples_per_sec);
    }
}

#[cfg(test)]
mod memory_tests {
    use super::*;
    use pipedream_hw::{Device, LinkModel};
    use pipedream_model::zoo;

    fn flat(n: usize) -> Topology {
        Topology::flat(Device::v100(), n, LinkModel::from_gbytes(10.0, 0.0), "m")
    }

    #[test]
    fn memory_limit_forces_a_split() {
        // A model whose whole weight set does not fit one device with its
        // in-flight versions must be split even when compute alone would
        // prefer data parallelism (small weights in the comm term would not
        // trigger a split here: compute dominates).
        let profile = zoo::uniform(8, 1e11, 1_000, 200_000_000); // 8 × 800 MB, compute-heavy
        let topo = flat(4);
        let unconstrained = Planner::new(&profile, &topo).try_plan_flat().unwrap();
        assert!(unconstrained.config.is_data_parallel());
        // 5 GB budget: DP would store 6.4 GB of weights per worker, so a
        // replicated-front split (e.g. 3-1) is required.
        let constrained = Planner::new(&profile, &topo)
            .with_memory_limit(5 << 30)
            .try_plan_flat()
            .unwrap();
        assert!(
            constrained.config.num_stages() >= 2,
            "expected a split, got {}",
            constrained.config
        );
        // Every stage obeys the budget (§3.3 bound, exact).
        let planner = Planner::new(&profile, &topo).with_memory_limit(5 << 30);
        assert!(planner.config_fits_memory(&constrained.config, 5 << 30));
    }

    #[test]
    fn feasible_models_unchanged_by_generous_limit() {
        let profile = zoo::vgg16();
        let topo = flat(4);
        let free = Planner::new(&profile, &topo).try_plan_flat().unwrap();
        let limited = Planner::new(&profile, &topo)
            .with_memory_limit(64 << 30)
            .try_plan_flat()
            .unwrap();
        assert_eq!(free.config, limited.config);
    }

    #[test]
    fn impossible_budget_is_a_typed_error() {
        let profile = zoo::uniform(4, 1e9, 1_000, 500_000_000);
        let topo = flat(2);
        let err = Planner::new(&profile, &topo)
            .with_memory_limit(1 << 20) // 1 MB: nothing fits
            .try_plan_flat()
            .unwrap_err();
        assert!(matches!(err, PlanError::MemoryInfeasible { .. }));
        assert!(err.to_string().contains("memory limit"), "{err}");
    }

    #[test]
    fn two_bw_recompute_unlocks_a_vanilla_infeasible_model() {
        // The huge-model regime: 8 × 800 MB of weights. Under vanilla
        // stashing every candidate on 4 workers holds ≥ 8 layer-versions
        // at its worst stage (in-flight × layers/stage is invariant for a
        // uniform model) ≈ 6.4 GB, but 2BW caps the depth-4 straight
        // pipeline's input stage at 2 versions × 2 layers ≈ 3.2 GB.
        let profile = zoo::uniform(8, 1e11, 1_000, 200_000_000);
        let topo = flat(4);
        let limit = 4u64 << 30;
        let err = Planner::new(&profile, &topo)
            .with_memory_limit(limit)
            .try_plan_flat()
            .unwrap_err();
        assert!(
            matches!(
                err,
                PlanError::MemoryInfeasible {
                    limit_bytes,
                    schedule: ScheduleKind::Vanilla1F1B,
                } if limit_bytes == limit
            ),
            "{err:?}"
        );
        let plan = Planner::new(&profile, &topo)
            .with_memory_limit(limit)
            .with_schedule(ScheduleKind::TwoBWRecompute)
            .try_plan_flat()
            .expect("2bw-recompute must plan under the same budget");
        let planner = Planner::new(&profile, &topo).with_schedule(ScheduleKind::TwoBWRecompute);
        assert!(planner.config_fits_memory(&plan.config, limit));
    }

    #[test]
    fn schedule_kind_only_relaxes_the_feasible_set() {
        // Anything feasible under vanilla stays feasible (and identical)
        // under the memory-efficient kinds: their footprints are ≤.
        let profile = zoo::vgg16();
        let topo = flat(4);
        let vanilla = Planner::new(&profile, &topo)
            .with_memory_limit(64 << 30)
            .try_plan_flat()
            .unwrap();
        for kind in ScheduleKind::all() {
            let plan = Planner::new(&profile, &topo)
                .with_memory_limit(64 << 30)
                .with_schedule(kind)
                .try_plan_flat()
                .unwrap();
            assert_eq!(plan.config, vanilla.config, "{kind}");
        }
    }
}
