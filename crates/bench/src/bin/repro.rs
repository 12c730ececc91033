//! `repro` — regenerate the PipeDream paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro <experiment>…           # one or more of the ids below
//! repro all                     # everything, in paper order
//! repro all --save out/         # also write per-experiment .txt (and .csv
//!                               # for the data figures) into out/
//! repro list                    # list available experiments
//! repro --check results/        # regenerate the checked experiments in
//!                               # memory and byte-compare their files
//! ```
//!
//! Experiment ids: fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11
//! fig12 fig13 fig14 fig15 fig16 fig17 fig18 table1 table2 table3 asp gpipe
//! opt ablations trend verify sensitivity recovery trace-validate
//! drift-replan memory-sweep.
//!
//! `--check` covers the experiments in `CHECKED`, whose files are
//! simulated or computed and so reproduce byte for byte. It skips the
//! host-timed `fig6 fig11 opt verify`; it exits non-zero and names every
//! file that differs or is missing.

use pipedream_bench::experiments as e;
use std::fs;
use std::path::{Path, PathBuf};

const ALL: &[&str] = &[
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "table1",
    "table2",
    "table3",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "asp",
    "gpipe",
    "opt",
    "ablations",
    "trend",
    "verify",
    "sensitivity",
    "recovery",
    "trace-validate",
    "drift-replan",
    "memory-sweep",
];

/// The experiments `--check` regenerates: every saved one except the
/// host-timed `fig6`, `fig11`, `opt` and `verify`.
const CHECKED: &[&str] = &[
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "table1",
    "table2",
    "table3",
    "asp",
    "gpipe",
    "ablations",
    "trend",
    "sensitivity",
];

/// Run one experiment; returns `(title, rendered text, optional CSV,
/// optional SVG, optional extra named artifacts)`.
#[allow(clippy::type_complexity)]
fn run_one(
    id: &str,
) -> Option<(
    &'static str,
    String,
    Option<String>,
    Option<String>,
    Option<Vec<(String, String)>>,
)> {
    // drift-replan carries extra JSON artifacts (the drift report, the
    // advisor's recommended plan, and the applied run's reconfiguration
    // record); every other experiment has none.
    if id == "drift-replan" {
        let r = e::drift_replan::run(3);
        let applied = e::drift_replan::run_applied(2);
        return Some((
            "Live drift detection, replan advisor, and applied reconfiguration",
            format!("{r}\n{applied}"),
            Some(r.to_csv()),
            None,
            Some(vec![
                ("drift-report.json".to_string(), r.drift_report_json()),
                (
                    "recommended-plan.json".to_string(),
                    r.recommended_plan_json(),
                ),
                (
                    "reconfig-report.json".to_string(),
                    applied.reconfig_report_json(),
                ),
            ]),
        ));
    }
    // memory-sweep saves the full sweep record as JSON next to its table.
    if id == "memory-sweep" {
        let r = e::memory_sweep::run(2);
        return Some((
            "Memory-efficient schedules: 2BW + recomputation under a hard budget",
            r.to_string(),
            Some(r.to_csv()),
            None,
            Some(vec![("memory-sweep.json".to_string(), r.sweep_json())]),
        ));
    }
    let out = match id {
        "fig1" => {
            let r = e::fig1::run();
            (
                "Figure 1: DP communication overhead",
                r.to_string(),
                Some(r.to_csv()),
                None,
            )
        }
        "fig2" => {
            let f = e::timelines::fig2();
            (
                "Figure 2: model-parallel timeline",
                f.to_string(),
                None,
                Some(f.to_svg()),
            )
        }
        "fig3" => {
            let f = e::timelines::fig3();
            (
                "Figure 3: GPipe timeline",
                f.to_string(),
                None,
                Some(f.to_svg()),
            )
        }
        "fig4" => {
            let f = e::timelines::fig4();
            (
                "Figure 4: PipeDream 1F1B timeline",
                f.to_string(),
                None,
                Some(f.to_svg()),
            )
        }
        "fig5" => (
            "Figure 5: compute/communication overlap",
            e::timelines::fig5().to_string(),
            None,
            None,
        ),
        "fig6" => (
            "Figure 6: PipeDream's automated workflow (executed)",
            e::fig6_7::fig6().to_string(),
            None,
            None,
        ),
        "fig7" => (
            "Figure 7: hierarchical hardware topology",
            e::fig6_7::fig7().to_string(),
            None,
            None,
        ),
        "fig8" => {
            let f = e::timelines::fig8();
            (
                "Figure 8: 1F1B-RR on a 2-1 configuration",
                f.to_string(),
                None,
                Some(f.to_svg()),
            )
        }
        "fig9" => (
            "Figure 9: weight stashing versions (real runtime)",
            e::fig9::run().to_string(),
            None,
            None,
        ),
        "table1" => (
            "Table 1: PipeDream vs data parallelism",
            e::table1::run(64).to_string(),
            None,
            None,
        ),
        "table2" => (
            "Table 2: cluster characteristics",
            e::table2::run().to_string(),
            None,
            None,
        ),
        "table3" => (
            "Table 3: cloud vs dedicated DP slowdown",
            e::table3::run().to_string(),
            None,
            None,
        ),
        "fig10" => {
            let r = e::fig10::run();
            (
                "Figure 10: VGG-16 accuracy vs time",
                r.to_string(),
                Some(r.to_csv()),
                None,
            )
        }
        "fig11" => (
            "Figure 11: accuracy vs epoch (statistical efficiency)",
            e::fig11::run(16).to_string(),
            None,
            None,
        ),
        "fig12" => {
            let r = e::fig12::run();
            (
                "Figure 12: fp16 vs fp32 DP overhead",
                r.to_string(),
                Some(r.to_csv()),
                None,
            )
        }
        "fig13" => (
            "Figure 13: large minibatches + LARS",
            e::fig13::run().to_string(),
            None,
            None,
        ),
        "fig14" => (
            "Figure 14: vs model/hybrid parallelism",
            e::fig14::run().to_string(),
            None,
            None,
        ),
        "fig15" => {
            let r = e::fig15::run();
            (
                "Figure 15: predicted vs simulated throughput",
                r.to_string(),
                Some(r.to_csv()),
                None,
            )
        }
        "fig16" => (
            "Figure 16: memory footprint",
            e::fig16::run().to_string(),
            None,
            None,
        ),
        "fig17" => (
            "Figure 17: bytes per sample",
            e::fig17::run().to_string(),
            None,
            None,
        ),
        "fig18" => {
            let r = e::fig18::run();
            (
                "Figure 18: pipeline depth sweep",
                r.to_string(),
                Some(r.to_csv()),
                None,
            )
        }
        "asp" => (
            "§5.2: ASP comparison",
            e::asp::run().to_string(),
            None,
            None,
        ),
        "gpipe" => (
            "§5.4: GPipe comparison",
            e::gpipe::run().to_string(),
            None,
            None,
        ),
        "opt" => (
            "§5.5: optimizer runtime",
            e::opt::run().to_string(),
            None,
            None,
        ),
        "sensitivity" => (
            "Calibration sensitivity sweep",
            e::sensitivity::run().to_string(),
            None,
            None,
        ),
        "recovery" => {
            let r = e::recovery::run(4);
            (
                "Fault tolerance (§4): recovery from injected failures",
                r.to_string(),
                Some(r.to_csv()),
                None,
            )
        }
        "trace-validate" => {
            let r = e::trace_validate::run(3);
            (
                "Trace validation: measured vs planned stage times",
                r.to_string(),
                Some(r.to_csv()),
                None,
            )
        }
        "trend" => (
            "Intro claim: faster GPUs shift the bottleneck to communication",
            e::trend::run().to_string(),
            None,
            None,
        ),
        "verify" => (
            "Paper-shape verification",
            e::verify::run().to_string(),
            None,
            None,
        ),
        "ablations" => (
            "Ablations: 1F1B priority rule, CoW stashing, NOAM",
            e::ablations::run().to_string(),
            None,
            None,
        ),
        _ => return None,
    };
    let (title, text, csv, svg) = out;
    Some((title, text, csv, svg, None))
}

/// Run one experiment: its title and the files `--save` writes for it, as
/// `(name, contents)`, its rendered text first.
fn run_files(id: &str) -> Option<(&'static str, Vec<(String, String)>)> {
    let (title, text, csv, svg, extras) = run_one(id)?;
    let mut files = vec![(format!("{id}.txt"), text)];
    files.extend(csv.map(|csv| (format!("{id}.csv"), csv)));
    files.extend(svg.map(|svg| (format!("{id}.svg"), svg)));
    files.extend(extras.into_iter().flatten());
    Some((title, files))
}

/// Regenerate every experiment in [`CHECKED`] and compare its files with
/// those in `dir`; returns the names that differ or are missing.
fn check(dir: &Path) -> Vec<String> {
    let mut differ = Vec::new();
    for id in CHECKED {
        let (_, files) = run_files(id).expect("checked experiments exist");
        for (name, contents) in files {
            let same = fs::read(dir.join(&name)).is_ok_and(|saved| saved == contents.as_bytes());
            println!("{} {name}", if same { "same   " } else { "DIFFERS" });
            if !same {
                differ.push(name);
            }
        }
    }
    differ
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "list" {
        println!("available experiments: {}", ALL.join(" "));
        println!("usage: repro <id>… | all | list  [--save <dir>]");
        println!("       repro --check <dir>   (skips the host-timed fig6 fig11 opt verify)");
        return;
    }
    if args[0] == "--check" {
        let Some(dir) = args.get(1) else {
            eprintln!("usage: repro --check <dir>");
            std::process::exit(2);
        };
        let differ = check(Path::new(dir));
        if !differ.is_empty() {
            eprintln!(
                "{} file(s) differ from {dir}: {}",
                differ.len(),
                differ.join(" ")
            );
            std::process::exit(1);
        }
        println!("all files of {} experiments match {dir}", CHECKED.len());
        return;
    }
    let save_dir: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--save")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        ALL.to_vec()
    } else {
        args.iter()
            .take_while(|a| *a != "--save")
            .map(String::as_str)
            .collect()
    };
    if let Some(dir) = &save_dir {
        fs::create_dir_all(dir).expect("create save dir");
    }
    for id in ids {
        let Some((title, files)) = run_files(id) else {
            eprintln!("unknown experiment '{id}'; try `repro list`");
            std::process::exit(1);
        };
        println!("{}", "=".repeat(78));
        println!("[{id}] {title}");
        println!("{}", "=".repeat(78));
        println!("{}", files[0].1);
        if let Some(dir) = &save_dir {
            for (name, contents) in files {
                fs::write(dir.join(&name), contents).expect("write artifact");
            }
        }
    }
}
