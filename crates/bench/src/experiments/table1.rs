//! Table 1: PipeDream vs data parallelism — auto-chosen configuration,
//! epoch-time speedup, and time-to-accuracy speedup for every (model,
//! cluster) pair the paper evaluates.
//!
//! Nothing here trains the paper's models, so the epochs each system
//! needs come from the paper: a row's TTA speedup is its simulated epoch
//! speedup times the paper's own TTA / epoch-speedup ratio for that row.

use crate::util::{best_plan, dp_throughput, format_table};
use pipedream_hw::{ClusterPreset, Precision};
use pipedream_model::{zoo, ModelProfile};
use std::fmt;

/// One Table-1 row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Model name.
    pub model: String,
    /// `servers × gpus (cluster)` label, e.g. `"4x4 (A)"`.
    pub setup: String,
    /// Configuration PipeDream's optimizer picked (paper notation).
    pub config: String,
    /// The paper's reported configuration.
    pub paper_config: &'static str,
    /// Simulated epoch-time speedup over DP.
    pub epoch_speedup: f64,
    /// The paper's epoch-time speedup.
    pub paper_epoch_speedup: f64,
    /// Time-to-accuracy speedup: the simulated epoch speedup times the
    /// paper's TTA / epoch-speedup ratio for this row (None where the
    /// paper reports N/A).
    pub tta_speedup: Option<f64>,
    /// The paper's TTA speedup (None where the paper reports N/A).
    pub paper_tta_speedup: Option<f64>,
}

/// The reproduced table.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Rows in the paper's order.
    pub rows: Vec<Row>,
}

fn model_by_name(name: &str) -> ModelProfile {
    match name {
        "VGG-16" => zoo::vgg16(),
        "ResNet-50" => zoo::resnet50(),
        "AlexNet" => zoo::alexnet(),
        "GNMT-16" => zoo::gnmt16(),
        "GNMT-8" => zoo::gnmt8(),
        "AWD-LM" => zoo::awd_lm(),
        "S2VT" => zoo::s2vt(),
        _ => panic!("unknown model {name}"),
    }
}

/// The paper's rows: (model, servers, cluster, paper config, paper epoch
/// speedup, paper TTA speedup).
#[allow(clippy::type_complexity)]
// GNMT-16's published speedup happens to be 3.14× — a coincidence, not π.
#[allow(clippy::approx_constant)]
pub fn paper_rows() -> Vec<(
    &'static str,
    usize,
    ClusterPreset,
    &'static str,
    f64,
    Option<f64>,
)> {
    use ClusterPreset::*;
    vec![
        ("VGG-16", 4, A, "15-1", 5.28, Some(5.28)),
        ("VGG-16", 2, B, "15-1", 2.98, Some(2.46)),
        ("ResNet-50", 4, A, "16", 1.0, Some(1.0)),
        ("ResNet-50", 2, B, "16", 1.0, Some(1.0)),
        ("AlexNet", 4, A, "15-1", 4.92, None),
        ("AlexNet", 2, B, "15-1", 2.04, None),
        ("GNMT-16", 1, A, "straight", 1.46, Some(2.2)),
        ("GNMT-16", 4, A, "straight", 2.34, Some(2.92)),
        ("GNMT-16", 2, B, "straight", 3.14, Some(3.14)),
        ("GNMT-8", 1, A, "straight", 1.5, Some(1.5)),
        ("GNMT-8", 3, A, "straight", 2.95, Some(2.95)),
        ("GNMT-8", 2, B, "16", 1.0, Some(1.0)),
        ("AWD-LM", 1, A, "straight", 4.25, Some(4.25)),
        ("S2VT", 4, ClusterPreset::C, "2-1-1", 3.01, Some(3.01)),
    ]
}

/// Run the whole table. `n_mbs` controls simulation length per cell
/// (64 is plenty for steady state).
pub fn run(n_mbs: u64) -> Table1 {
    let mut rows = Vec::new();
    for (model_name, servers, cluster, paper_config, paper_epoch, paper_tta) in paper_rows() {
        let model = model_by_name(model_name);
        let topo = cluster.with_servers(servers);
        let costs = model.costs(&topo.device, model.default_batch, Precision::Fp32);
        let dp_sps = dp_throughput(&costs, &topo);
        let (config, sim) = best_plan(&model, &topo, n_mbs);
        // If the chosen pipeline is no better than DP, PipeDream deploys DP.
        let (label, pd_sps) = if sim.samples_per_sec <= dp_sps || config.is_data_parallel() {
            (format!("{}", topo.total_workers()), dp_sps)
        } else {
            (config.label(), sim.samples_per_sec)
        };
        let epoch_speedup = pd_sps / dp_sps;
        let tta_speedup = paper_tta.map(|tta| epoch_speedup * tta / paper_epoch);
        rows.push(Row {
            model: model_name.to_string(),
            setup: format!("{servers}x{} ({})", topo.arity(1), cluster_letter(cluster)),
            config: label,
            paper_config,
            epoch_speedup,
            paper_epoch_speedup: paper_epoch,
            tta_speedup,
            paper_tta_speedup: paper_tta,
        });
    }
    Table1 { rows }
}

fn cluster_letter(c: ClusterPreset) -> &'static str {
    match c {
        ClusterPreset::A => "A",
        ClusterPreset::B => "B",
        ClusterPreset::C => "C",
    }
}

impl Table1 {
    /// Find a row by model and setup substring.
    pub fn row(&self, model: &str, setup_contains: &str) -> Option<&Row> {
        self.rows
            .iter()
            .find(|r| r.model == model && r.setup.contains(setup_contains))
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 1: PipeDream speedup over data parallelism\n")?;
        let header = [
            "model",
            "setup",
            "config",
            "(paper)",
            "epoch speedup",
            "(paper)",
            "TTA speedup",
            "(paper)",
        ];
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.model.clone(),
                    r.setup.clone(),
                    r.config.clone(),
                    r.paper_config.to_string(),
                    format!("{:.2}x", r.epoch_speedup),
                    format!("{:.2}x", r.paper_epoch_speedup),
                    r.tta_speedup
                        .map(|v| format!("{v:.2}x"))
                        .unwrap_or_else(|| "N/A".into()),
                    r.paper_tta_speedup
                        .map(|v| format!("{v:.2}x"))
                        .unwrap_or_else(|| "N/A".into()),
                ]
            })
            .collect();
        write!(f, "{}", format_table(&header, &rows))?;
        writeln!(
            f,
            "\nTTA speedup = simulated epoch speedup x the paper's TTA / epoch-speedup \
             ratio for the row (Table 1)"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shapes_match_paper() {
        let t = run(48);
        // ResNet-50: DP wins on both clusters (speedup 1×, config "16").
        for setup in ["4x4 (A)", "2x8 (B)"] {
            let r = t.row("ResNet-50", setup).unwrap();
            assert_eq!(r.config, "16", "{setup}");
            assert!((r.epoch_speedup - 1.0).abs() < 1e-9);
        }
        // VGG-16 on Cluster-A: a non-DP config wins by a wide margin.
        let vgg = t.row("VGG-16", "4x4").unwrap();
        assert_ne!(vgg.config, "16");
        assert!(vgg.epoch_speedup > 2.0, "{}", vgg.epoch_speedup);
        // AWD-LM on one Cluster-A server: pipeline wins.
        let lm = t.row("AWD-LM", "1x4").unwrap();
        assert!(lm.epoch_speedup > 1.5, "{}", lm.epoch_speedup);
        // GNMT-16 on 4x4 (A): pipeline wins.
        let g = t.row("GNMT-16", "4x4").unwrap();
        assert!(g.epoch_speedup > 1.5, "{}", g.epoch_speedup);
        // A TTA speedup scales the epoch speedup by the paper's ratio, and
        // exists where the paper's does.
        for r in &t.rows {
            let want = r
                .paper_tta_speedup
                .map(|tta| r.epoch_speedup * tta / r.paper_epoch_speedup);
            assert_eq!(r.tta_speedup, want, "{} {}", r.model, r.setup);
        }
    }
}
