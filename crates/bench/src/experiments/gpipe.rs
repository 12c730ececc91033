//! §5.4 "Comparison to Inter-batch Parallelism": GPipe on GNMT-16 with 16
//! GPUs, same partitioning as PipeDream, at two pipeline depths:
//! `m = NOAM` and the largest depth that fits memory. Flushes cost GPipe
//! 35–71% of PipeDream's throughput in the paper.

use crate::util::format_table;
use pipedream_core::schedule::Schedule;
use pipedream_core::{PipelineConfig, Planner, ScheduleKind};
use pipedream_hw::{ClusterPreset, Precision};
use pipedream_model::zoo;
use pipedream_sim::{simulate_pipeline, PipelineSim};
use std::fmt;

/// One cluster's comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Cluster name.
    pub cluster: String,
    /// GPipe throughput slowdown vs PipeDream at `m = NOAM`.
    pub slowdown_at_noam: f64,
    /// Paper's slowdown at `m = NOAM`.
    pub paper_at_noam: f64,
    /// Slowdown at the largest memory-feasible depth (we use 2 × NOAM).
    pub slowdown_at_max: f64,
    /// Paper's slowdown at max depth.
    pub paper_at_max: f64,
}

/// The comparison table.
#[derive(Debug, Clone)]
pub struct GpipeComparison {
    /// One row per cluster.
    pub rows: Vec<Row>,
}

/// Run the comparison.
pub fn run() -> GpipeComparison {
    let model = zoo::gnmt16();
    let cases = [
        (ClusterPreset::A, 4usize, 0.55, 0.35),
        (ClusterPreset::B, 2usize, 0.71, 0.42),
    ];
    let rows = cases
        .into_iter()
        .map(|(cluster, servers, paper_noam, paper_max)| {
            let topo = cluster.with_servers(servers);
            let costs = model.costs(&topo.device, model.default_batch, Precision::Fp32);
            // GPipe "does not provide an algorithm for partitioning work
            // across stages, so we use the same partitions as PipeDream":
            // the balanced straight pipeline over all 16 workers (GNMT-16
            // has 19 layers, so a 16-deep straight pipeline exists).
            let planner = Planner::new(&model, &topo);
            let workers = topo.total_workers();
            let boundaries = planner
                .balanced_boundaries(workers)
                .expect("GNMT-16 splits 16 ways");
            let config = PipelineConfig::straight(model.num_layers(), &boundaries);
            let noam = config.noam() as u64;
            let n_mbs = 192u64;
            // Compare whole-run throughput (makespan-based): GPipe's cost
            // is its recurring flush bubbles, which per-minibatch sampling
            // between flushes would miss.
            // GPipe trades compute for memory: it discards activation
            // stashes and recomputes them in the backward pass (§2.2), so
            // its rows pay the recompute penalty — except on each group's
            // last microbatch, whose backward runs right after its forward
            // (torchgpipe's `except_last`).
            let pd = simulate_pipeline(&costs, &topo, &Schedule::one_f_one_b(&config, n_mbs));
            let gpipe = |microbatches: u64| {
                PipelineSim::new(
                    &costs,
                    &topo,
                    &Schedule::gpipe(&config, n_mbs, microbatches),
                )
                .with_schedule(ScheduleKind::Recompute)
                .run()
            };
            let gp_noam = gpipe(noam);
            let gp_max = gpipe(2 * noam);
            Row {
                cluster: cluster.name().to_string(),
                slowdown_at_noam: 1.0 - pd.makespan / gp_noam.makespan,
                paper_at_noam: paper_noam,
                slowdown_at_max: 1.0 - pd.makespan / gp_max.makespan,
                paper_at_max: paper_max,
            }
        })
        .collect();
    GpipeComparison { rows }
}

impl fmt::Display for GpipeComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "§5.4 GPipe comparison (GNMT-16, 16 GPUs, same partitioning)\n"
        )?;
        let header = [
            "cluster",
            "slowdown @ m=NOAM",
            "(paper)",
            "slowdown @ max depth",
            "(paper)",
        ];
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.cluster.clone(),
                    format!("{:.0}%", r.slowdown_at_noam * 100.0),
                    format!("{:.0}%", r.paper_at_noam * 100.0),
                    format!("{:.0}%", r.slowdown_at_max * 100.0),
                    format!("{:.0}%", r.paper_at_max * 100.0),
                ]
            })
            .collect();
        write!(f, "{}", format_table(&header, &rows))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn gpipe_loses_throughput_to_flushes() {
        let c = super::run();
        for r in &c.rows {
            assert!(
                r.slowdown_at_noam > 0.2,
                "{}: slowdown {:.2}",
                r.cluster,
                r.slowdown_at_noam
            );
            // Deeper pipelines amortise flushes: max-depth slowdown is
            // smaller than NOAM-depth slowdown.
            assert!(
                r.slowdown_at_max < r.slowdown_at_noam,
                "{}: {:.2} vs {:.2}",
                r.cluster,
                r.slowdown_at_max,
                r.slowdown_at_noam
            );
        }
    }
}
