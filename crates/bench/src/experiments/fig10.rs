//! Figure 10: VGG-16 on 16 GPUs, Cluster-A and Cluster-B — PipeDream vs
//! data parallelism.
//!
//! The paper plots top-1 accuracy against training time. Nothing here
//! trains VGG-16, so the figure's time axis is what this reproduces:
//! simulated hours per epoch (ImageNet-1K's 1.28 M images), printed beside
//! the paper's own speedups for the same two setups (Table 1).

use crate::experiments::table1::paper_rows;
use crate::util::{best_plan, dp_throughput, format_table};
use pipedream_hw::{ClusterPreset, Precision};
use pipedream_model::zoo;
use std::fmt;

/// ImageNet-1K training-set size.
pub const IMAGENET_SAMPLES: f64 = 1_281_167.0;

/// One cluster's two systems.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Cluster name, e.g. `"Cluster-A"`.
    pub cluster: String,
    /// Simulated hours per epoch, PipeDream's best plan.
    pub pipedream_hours: f64,
    /// Simulated hours per epoch, data parallelism.
    pub dp_hours: f64,
    /// The paper's epoch-time speedup for this setup (Table 1).
    pub paper_epoch_speedup: f64,
    /// The paper's time-to-68% speedup for this setup (Table 1).
    pub paper_tta_speedup: f64,
}

impl Setup {
    /// Simulated epoch-time speedup of PipeDream over data parallelism.
    pub fn epoch_speedup(&self) -> f64 {
        self.dp_hours / self.pipedream_hours
    }
}

/// The figure: Cluster-A (4 servers) and Cluster-B (2 servers).
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// Both setups.
    pub setups: Vec<Setup>,
}

/// Run the experiment.
pub fn run() -> Fig10 {
    let model = zoo::vgg16();
    let mut setups = Vec::new();
    for (cluster, servers) in [(ClusterPreset::A, 4usize), (ClusterPreset::B, 2usize)] {
        let topo = cluster.with_servers(servers);
        let costs = model.costs(&topo.device, model.default_batch, Precision::Fp32);
        let dp_sps = dp_throughput(&costs, &topo);
        let (_, pd_sim) = best_plan(&model, &topo, 48);
        let pd_sps = pd_sim.samples_per_sec.max(dp_sps);
        let hours = |sps: f64| IMAGENET_SAMPLES / sps / 3600.0;
        let (.., paper_epoch, paper_tta) = paper_rows()
            .into_iter()
            .find(|r| r.0 == "VGG-16" && r.1 == servers && r.2 == cluster)
            .expect("Table 1 has the setup");
        setups.push(Setup {
            cluster: cluster.name().to_string(),
            pipedream_hours: hours(pd_sps),
            dp_hours: hours(dp_sps),
            paper_epoch_speedup: paper_epoch,
            paper_tta_speedup: paper_tta.expect("VGG-16 has a target"),
        });
    }
    Fig10 { setups }
}

impl Fig10 {
    /// CSV: `series,hours_per_epoch` rows.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,hours_per_epoch\n");
        for s in &self.setups {
            out.push_str(&format!(
                "{} PipeDream,{:.3}\n",
                s.cluster, s.pipedream_hours
            ));
            out.push_str(&format!("{} DP,{:.3}\n", s.cluster, s.dp_hours));
        }
        out
    }
}

impl fmt::Display for Fig10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 10: VGG-16 on 16 GPUs, simulated hours per epoch\n"
        )?;
        let header = [
            "cluster",
            "PipeDream h/epoch",
            "DP h/epoch",
            "epoch speedup",
            "(paper)",
            "paper TTA speedup",
        ];
        let rows: Vec<Vec<String>> = self
            .setups
            .iter()
            .map(|s| {
                vec![
                    s.cluster.clone(),
                    format!("{:.2}", s.pipedream_hours),
                    format!("{:.2}", s.dp_hours),
                    format!("{:.2}x", s.epoch_speedup()),
                    format!("{:.2}x", s.paper_epoch_speedup),
                    format!("{:.2}x", s.paper_tta_speedup),
                ]
            })
            .collect();
        write!(f, "{}", format_table(&header, &rows))?;
        writeln!(
            f,
            "\nThe paper's verdict (Figure 10, Table 1): PipeDream reaches 68% top-1 \
             sooner than data parallelism on both clusters, by the TTA speedups above."
        )
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn pipedream_epochs_are_shorter_on_both_clusters() {
        let f = super::run();
        for s in &f.setups {
            assert!(
                s.epoch_speedup() > 1.0,
                "{}: {}",
                s.cluster,
                s.epoch_speedup()
            );
        }
        // Cluster-B's faster interconnects shorten data parallelism's epoch.
        assert!(f.setups[1].dp_hours < f.setups[0].dp_hours);
    }
}
