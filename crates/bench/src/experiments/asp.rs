//! §5.2 "Comparison to Asynchronous Parallelism": ASP removes every
//! synchronization stall, and pays in statistical efficiency — the paper
//! measured it 7.4× slower than PipeDream to reach 48% accuracy on VGG-16
//! (4 Cluster-B servers), and it never reached the 68% target.
//!
//! Nothing here trains VGG-16, so that verdict is the paper's; what this
//! reproduces is each system's simulated hours per epoch, which are close:
//! ASP's slowdown is not one of throughput.

use crate::experiments::fig10::IMAGENET_SAMPLES;
use crate::util::best_plan;
use pipedream_hw::{ClusterPreset, Precision};
use pipedream_model::zoo;
use pipedream_sim::simulate_asp_iteration;
use std::fmt;

/// The comparison's numbers.
#[derive(Debug, Clone)]
pub struct AspComparison {
    /// ASP's simulated hours per epoch.
    pub asp_hours_per_epoch: f64,
    /// PipeDream's simulated hours per epoch, best plan.
    pub pipedream_hours_per_epoch: f64,
}

/// Run the comparison on 4 Cluster-B servers (32 GPUs).
pub fn run() -> AspComparison {
    let model = zoo::vgg16();
    let topo = ClusterPreset::B.with_servers(4);
    let costs = model.costs(&topo.device, model.default_batch, Precision::Fp32);

    // ASP is pure compute; PipeDream runs its best config.
    let asp_sps = simulate_asp_iteration(&costs, topo.total_workers()).samples_per_sec;
    let (_, pd_sim) = best_plan(&model, &topo, 48);
    let hours = |sps: f64| IMAGENET_SAMPLES / sps / 3600.0;
    AspComparison {
        asp_hours_per_epoch: hours(asp_sps),
        pipedream_hours_per_epoch: hours(pd_sim.samples_per_sec),
    }
}

impl AspComparison {
    /// ASP's hours per epoch over PipeDream's.
    pub fn epoch_ratio(&self) -> f64 {
        self.asp_hours_per_epoch / self.pipedream_hours_per_epoch
    }
}

impl fmt::Display for AspComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "§5.2 ASP comparison (VGG-16, 4 Cluster-B servers)\n")?;
        writeln!(
            f,
            "hours per epoch: ASP {:.3}, PipeDream {:.3} (ASP / PipeDream {:.2}x)",
            self.asp_hours_per_epoch,
            self.pipedream_hours_per_epoch,
            self.epoch_ratio()
        )?;
        writeln!(
            f,
            "The paper's verdict (§5.2): ASP took 7.4x longer than PipeDream to reach \
             48% top-1, and never reached the 68% target."
        )
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn asp_epochs_take_about_as_long_as_pipedreams() {
        // With no synchronization ASP keeps pace with the pipeline per
        // epoch, so the paper's 7.4x to 48% is not a matter of throughput.
        let c = super::run();
        let r = c.epoch_ratio();
        assert!((0.5..2.0).contains(&r), "ASP / PipeDream epoch time {r}");
    }
}
