//! `repro verify`: re-check every paper-shape claim in one run and print a
//! PASS/FAIL table — EXPERIMENTS.md as an executable artifact.
//!
//! Each check re-derives its numbers from the same experiment code the
//! figures use; the unit-test suite asserts the same claims, but this
//! command gives a downstream user a one-shot, human-readable audit.

use crate::experiments as e;
use crate::util::format_table;
use pipedream_hw::ServerKind;
use std::fmt;

/// One verified claim.
#[derive(Debug, Clone)]
pub struct Check {
    /// Paper artifact the claim comes from.
    pub artifact: &'static str,
    /// The claim, in one line.
    pub claim: &'static str,
    /// Measured value, rendered.
    pub measured: String,
    /// Whether the shape holds.
    pub pass: bool,
}

/// The verification report.
#[derive(Debug, Clone)]
pub struct Verification {
    /// All checks, in paper order.
    pub checks: Vec<Check>,
}

impl Verification {
    /// Whether every check passed.
    pub fn all_pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }
}

/// Run every check. Takes a couple of minutes of simulation.
pub fn run() -> Verification {
    let mut checks = Vec::new();
    let mut push = |artifact, claim, measured: String, pass| {
        checks.push(Check {
            artifact,
            claim,
            measured,
            pass,
        })
    };

    // Figure 1.
    let fig1 = e::fig1::run();
    let resnet32 = fig1.stall(ServerKind::PcieV100x4, "ResNet-50", 32);
    let gnmt32 = fig1.stall(ServerKind::PcieV100x4, "GNMT-8", 32);
    push(
        "Fig 1",
        "dense-weight models stall far more than ResNet-50 at 32 GPUs",
        format!(
            "GNMT-8 {:.0}% vs ResNet-50 {:.0}%",
            gnmt32 * 100.0,
            resnet32 * 100.0
        ),
        gnmt32 > resnet32 + 0.2,
    );
    let nv8 = fig1.stall(ServerKind::NvlinkV100x8, "GNMT-8", 8);
    let nv16 = fig1.stall(ServerKind::NvlinkV100x8, "GNMT-8", 16);
    push(
        "Fig 1",
        "overhead spikes when crossing the server boundary",
        format!("{:.0}% → {:.0}%", nv8 * 100.0, nv16 * 100.0),
        nv16 > nv8 + 0.2,
    );

    // Figures 2–4.
    let mp = e::timelines::fig2();
    let gp = e::timelines::fig3();
    let pd = e::timelines::fig4();
    push(
        "Figs 2–4",
        "1F1B beats GPipe beats model parallelism on the same stages",
        format!(
            "{:.1}/{:.1}/{:.1} ms per minibatch",
            pd.sim.per_minibatch_s * 1e3,
            gp.sim.per_minibatch_s * 1e3,
            mp.sim.per_minibatch_s * 1e3
        ),
        pd.sim.per_minibatch_s < gp.sim.per_minibatch_s
            && gp.sim.per_minibatch_s < mp.sim.per_minibatch_s,
    );

    // Figure 9 (real runtime).
    let fig9 = e::fig9::run();
    let staleness_ok = fig9.version(5, 0) == Some(3)
        && fig9.version(5, 1) == Some(4)
        && fig9.version(5, 2) == Some(5);
    push(
        "Fig 9",
        "stage s uses version mb − (n−1−s) — the §3.3 staleness formula, measured",
        format!(
            "mb 5 versions: {:?} {:?} {:?}",
            fig9.version(5, 0),
            fig9.version(5, 1),
            fig9.version(5, 2)
        ),
        staleness_ok,
    );

    // Table 1.
    let t1 = e::table1::run(64);
    let vgg = t1.row("VGG-16", "4x4").unwrap();
    push(
        "Table 1",
        "VGG-16 on 4×4 (A): a conv-replicated pipeline wins big over DP",
        format!("{} at {:.2}x", vgg.config, vgg.epoch_speedup),
        vgg.config != "16" && vgg.epoch_speedup > 2.0,
    );
    let resnet = t1.row("ResNet-50", "4x4").unwrap();
    push(
        "Table 1",
        "ResNet-50: the optimizer falls back to data parallelism",
        resnet.config.clone(),
        resnet.config == "16",
    );
    let pipeline_rows = t1
        .rows
        .iter()
        .filter(|r| r.paper_config != "16" && r.epoch_speedup > 1.0)
        .count();
    let paper_pipeline_rows = t1.rows.iter().filter(|r| r.paper_config != "16").count();
    push(
        "Table 1",
        "every paper pipeline-wins row is a pipeline-wins row here",
        format!("{pipeline_rows}/{paper_pipeline_rows}"),
        pipeline_rows == paper_pipeline_rows,
    );

    // Figure 11 (real runtime statistical efficiency).
    let fig11 = e::fig11::run(14);
    push(
        "Fig 11",
        "1F1B+stash is the §3.3 delayed-SGD recurrence bit for bit; naive is not",
        format!(
            "stash bitwise: {}, naive largest |Δloss| {:.3}",
            fig11.stashed_is_recurrence, fig11.naive_largest_deviation.1
        ),
        fig11.stashed_is_recurrence && fig11.naive_first_deviation.is_some(),
    );

    // Figure 13.
    let fig13 = e::fig13::run();
    push(
        "Fig 13",
        "PipeDream's epoch beats 1024+LARS's, the batch that converges in Fig 13",
        format!("{:.1}x shorter", fig13.speedup_over_converging()),
        fig13.speedup_over_converging() > 1.0,
    );

    // Figure 14.
    let fig14 = e::fig14::run();
    let min_pp = fig14
        .rows
        .iter()
        .map(|r| r.pipeline_over_mp)
        .fold(f64::INFINITY, f64::min);
    push(
        "Fig 14",
        "pipelining alone ≥ 2× over model parallelism for all four models",
        format!("min {min_pp:.2}x"),
        min_pp >= 2.0,
    );

    // Figure 15.
    let fig15 = e::fig15::run();
    push(
        "Fig 15",
        "predicted and simulated throughput strongly correlate",
        format!("Pearson r = {:.3}", fig15.correlation),
        fig15.correlation > 0.9,
    );

    // Figure 17.
    let fig17 = e::fig17::run();
    let vgg17 = fig17.row("VGG-16").unwrap();
    let resnet17 = fig17.row("ResNet-50").unwrap();
    push(
        "Fig 17",
        "pipelining slashes VGG's bytes/sample but inflates ResNet-50's",
        format!(
            "VGG {:+.0}%, ResNet {:+.0}%",
            (1.0 - vgg17.pp_bytes / vgg17.dp_bytes) * 100.0,
            (1.0 - resnet17.pp_bytes / resnet17.dp_bytes) * 100.0
        ),
        vgg17.pp_bytes < vgg17.dp_bytes && resnet17.pp_bytes > resnet17.dp_bytes,
    );

    // Figure 18.
    let fig18 = e::fig18::run();
    let t1d = fig18.points[0].samples_per_sec;
    let tn = fig18.points[fig18.noam - 1].samples_per_sec;
    let t7 = fig18.points[6].samples_per_sec;
    push(
        "Fig 18",
        "throughput saturates at NOAM; memory keeps growing past it",
        format!(
            "{t1d:.0} → {tn:.0} → {t7:.0} samples/s; memory {:.2} → {:.2} GB",
            fig18.points[0].peak_memory as f64 / 1e9,
            fig18.points[6].peak_memory as f64 / 1e9
        ),
        tn > 1.5 * t1d
            && t7 <= tn * 1.01
            && fig18.points[6].peak_memory > fig18.points[0].peak_memory,
    );

    // §5.2 ASP / §5.4 GPipe.
    let asp = e::asp::run();
    push(
        "§5.2",
        "ASP's epoch takes about PipeDream's: its 7.4x to 48% is no throughput loss",
        format!("ASP / PipeDream epoch time {:.2}x", asp.epoch_ratio()),
        (0.5..2.0).contains(&asp.epoch_ratio()),
    );
    let gpipe = e::gpipe::run();
    push(
        "§5.4",
        "GPipe loses throughput to flushes+recompute; deeper pipelines amortise",
        format!(
            "A: {:.0}%→{:.0}%, B: {:.0}%→{:.0}%",
            gpipe.rows[0].slowdown_at_noam * 100.0,
            gpipe.rows[0].slowdown_at_max * 100.0,
            gpipe.rows[1].slowdown_at_noam * 100.0,
            gpipe.rows[1].slowdown_at_max * 100.0
        ),
        gpipe
            .rows
            .iter()
            .all(|r| r.slowdown_at_noam > 0.2 && r.slowdown_at_max < r.slowdown_at_noam),
    );

    // §5.5 optimizer.
    let opt = e::opt::run();
    push(
        "§5.5",
        "the optimizer plans every model/cluster pair in far under 8 s",
        format!(
            "max {:.3} s over {} pairs",
            opt.max_seconds(),
            opt.rows.len()
        ),
        opt.max_seconds() < 8.0,
    );

    Verification { checks }
}

impl fmt::Display for Verification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Paper-shape verification (see EXPERIMENTS.md)\n")?;
        let header = ["", "artifact", "claim", "measured"];
        let rows: Vec<Vec<String>> = self
            .checks
            .iter()
            .map(|c| {
                vec![
                    if c.pass { "PASS" } else { "FAIL" }.to_string(),
                    c.artifact.to_string(),
                    c.claim.to_string(),
                    c.measured.clone(),
                ]
            })
            .collect();
        writeln!(f, "{}", format_table(&header, &rows))?;
        writeln!(
            f,
            "{}",
            if self.all_pass() {
                "all shapes hold"
            } else {
                "SOME SHAPES FAILED"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_claim_passes() {
        let v = super::run();
        for c in &v.checks {
            assert!(
                c.pass,
                "[{}] {} — measured {}",
                c.artifact, c.claim, c.measured
            );
        }
        assert!(v.checks.len() >= 14);
    }
}
