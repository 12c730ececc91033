//! `pipedream-ledger`: the repository's benchmark.
//!
//! ```text
//! pipedream-ledger run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! pipedream-ledger check A.json B.json
//! ```
//!
//! `run --workload W` runs one workload in this process and prints, as the
//! last line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics` (every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`). Without
//! `--workload` it runs every workload, each in a child process of its
//! own, and writes the whole result set to `--out`.

mod affinity;
mod calib;
mod check;
mod gen;
mod report;
mod span;
mod spec;
mod stats;
mod workloads;

use report::{Measured, WorkloadResult};
use span::{Tracer, HARNESS};
use spec::Spec;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{LayerMetrics, Rep, Workload};

/// Times set-up is run, to report the median.
const SETUPS: usize = 3;

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String], spec: &Spec) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: spec.run_seconds as f64,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => {
                if !spec.workloads.contains(value) {
                    return Err(format!(
                        "unknown workload {value:?} (one of: {})",
                        spec.workloads.join(", ")
                    ));
                }
                parsed.workload = Some(value.clone());
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set the workload up [`SETUPS`] times over, keeping the last. Set-up is
/// building the inputs plus one untimed warm-up repetition.
fn set_up(name: &str, seed: u64) -> (Box<dyn Workload>, Vec<report::Setup>) {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = workload.take() {
            previous.teardown();
        }
        let before = calib::reading();
        let t0 = Instant::now();
        let mut fresh =
            workloads::build(name, seed).expect("workload names come from BENCHMARK.json");
        let warm_up = fresh.rep(&mut Tracer::new(false));
        workload = Some(fresh);
        let secs = t0.elapsed().as_secs_f64();
        setups.push(report::Setup {
            secs,
            slowdown: warm_up
                .slowdown
                .unwrap_or_else(|| (before + calib::reading()) / 2.0),
        });
    }
    (workload.expect("SETUPS is at least 1"), setups)
}

/// Every per-layer metric of the definition: from the workload's traced
/// repetitions and probes, and from the harness's own spans, which are
/// then written to `bench/out/trace-<workload>.json`.
fn per_layer(
    spec: &Spec,
    workload: &mut dyn Workload,
    tracer: &mut Tracer,
    reps: &[Rep],
    result: &mut WorkloadResult,
) {
    let mut layers = LayerMetrics::new();
    tracer.set_rep(reps.len() as u32);
    tracer.span(HARNESS, "probes", |t| {
        workload.layer_metrics(t, &mut layers)
    });
    let slowdowns: Vec<f64> = reps.iter().map(Rep::slowdown).collect();
    layers.insert("harness.host_slowdown", stats::median(&slowdowns));
    // Self time per layer and repetition; the probes' spans come after the
    // last repetition's and are not the workload.
    let spans = tracer.spans();
    let probes_from = spans
        .iter()
        .position(|s| s.rep as usize == reps.len())
        .unwrap_or(spans.len());
    let self_ms = span::layer_self_ms(&spans[..probes_from]);
    for m in &spec.per_layer {
        let value = match m.name.strip_suffix(".self_ms") {
            Some(layer) => self_ms.get(layer).copied().unwrap_or(0.0) / reps.len() as f64,
            // A layer this workload never calls reads 0.
            None => layers.remove(m.name.as_str()).unwrap_or(0.0),
        };
        result
            .metrics
            .insert(m.name.clone(), Measured::single(value, &m.unit));
    }
    assert!(
        layers.is_empty(),
        "per-layer metrics not in BENCHMARK.json: {:?}",
        layers.keys()
    );

    let path = out_dir().join(format!("trace-{}.json", result.workload));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut out = std::io::BufWriter::new(f);
            span::write_trace(&mut out, &result.workload, spans)?;
            std::io::Write::flush(&mut out)
        });
    if let Err(e) = written {
        result.fail(format!("writing {}: {e}", path.display()));
    }
}

/// Every end-to-end metric of the definition; one that reads 0 is a failure.
fn end_to_end(spec: &Spec, reps: &[Rep], setups: &[report::Setup], result: &mut WorkloadResult) {
    let mut computed = report::end_to_end(reps, setups, peak_rss_mb());
    for m in &spec.end_to_end {
        let mut measured = computed
            .remove(m.name.as_str())
            .unwrap_or_else(|| panic!("end-to-end metric {} is not computed", m.name));
        measured.unit = m.unit.clone();
        if measured.value <= 0.0 || !measured.value.is_finite() {
            result.fail(format!("{} reads {}", m.name, measured.value));
        }
        result.metrics.insert(m.name.clone(), measured);
    }
}

/// Run one workload in this process.
fn run_one(spec: &Spec, name: &str, args: &RunArgs) -> WorkloadResult {
    let (mut workload, setups) = set_up(name, args.seed);
    // A traced run spends half its time in repetitions and leaves the
    // rest for the direct probes of single functions.
    let mut tracer = Tracer::new(args.trace);
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut reps: Vec<Rep> = Vec::new();
    let started = Instant::now();
    let mut reading = calib::reading();
    while reps.len() < 2 || started.elapsed().as_secs_f64() < budget {
        tracer.set_rep(reps.len() as u32);
        let mut rep = tracer.span(HARNESS, "repetition", |t| workload.rep(t));
        let before = std::mem::replace(&mut reading, calib::reading());
        rep.slowdown.get_or_insert((before + reading) / 2.0);
        reps.push(rep);
    }
    let mut result = WorkloadResult::new(name, args.seed, args.trace, args.seconds, &reps);
    if args.trace {
        per_layer(spec, workload.as_mut(), &mut tracer, &reps, &mut result);
    } else {
        end_to_end(spec, &reps, &setups, &mut result);
    }
    workload.teardown();
    result
}

fn host_facts() -> serde_json::Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report::object([
        ("nproc", serde_json::Value::Uint(nproc as u64)),
        ("cpu", serde_json::Value::String(cpu)),
        ("rustc", serde_json::Value::String(rustc)),
    ])
}

/// Run `name` in a child process of its own and read its result back.
fn run_child(name: &str, args: &RunArgs, trace: bool) -> Result<WorkloadResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let child = Command::new(exe)
        .args(["run", "--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&child.stdout);
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix(report::DETAIL_PREFIX))
        .ok_or_else(|| {
            format!(
                "{name}: child printed no result (exit {:?})",
                child.status.code()
            )
        })?;
    WorkloadResult::from_json(detail)
}

fn run_all(spec: &Spec, args: &RunArgs) -> ExitCode {
    let mut ok = true;
    let mut workloads = serde_json::Map::new();
    for name in &spec.workloads {
        let mut entry = serde_json::Map::new();
        let mut results = Vec::new();
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            match run_child(name, args, trace) {
                Ok(r) => {
                    r.print();
                    ok &= r.correct();
                    entry.insert(
                        if trace { "per_layer" } else { "end_to_end" }.into(),
                        r.to_json(),
                    );
                    results.push(r);
                }
                Err(e) => {
                    eprintln!("FAIL {e}");
                    ok = false;
                }
            }
        }
        if let [plain, traced] = results.as_slice() {
            // The same seed must give the same counts, checksums and loss
            // bits with the harness's spans on as with them off.
            for (key, value) in &plain.exact {
                if traced.exact.get(key) != Some(value) {
                    eprintln!(
                        "FAIL {name}: {key} is {value} untraced, {:?} traced",
                        traced.exact.get(key)
                    );
                    ok = false;
                }
            }
            let overhead = 1.0 - traced.throughput_per_s / plain.throughput_per_s;
            println!(
                "{name:16} {:32} {overhead:>16.4} ratio",
                "tracing_overhead_frac"
            );
            entry.insert(
                "tracing_overhead_frac".into(),
                serde_json::Value::Float(overhead),
            );
        }
        workloads.insert(name.clone(), serde_json::Value::Object(entry));
    }
    if let Some(path) = &args.out {
        let doc = report::object([
            ("host", host_facts()),
            ("seed", serde_json::Value::Uint(args.seed)),
            ("seconds", serde_json::Value::Float(args.seconds)),
            ("workloads", serde_json::Value::Object(workloads)),
        ]);
        let text = serde_json::to_string_pretty(&doc).expect("results serialize");
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("FAIL writing {}: {e}", path.display());
            ok = false;
        } else {
            println!("wrote {}", path.display());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: pipedream-ledger run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
         \x20      pipedream-ledger check A.json B.json"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = spec::load();
    match args.first().map(String::as_str) {
        Some("run") => {
            let run = match parse_run_args(&args[1..], &spec) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            };
            match &run.workload {
                None => run_all(&spec, &run),
                Some(name) => {
                    let result = run_one(&spec, name, &run);
                    result.print();
                    println!(
                        "{}{}",
                        report::DETAIL_PREFIX,
                        serde_json::to_string(&result.to_json()).expect("serializes")
                    );
                    println!("{}", result.contract_line());
                    if result.correct() {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
            }
        }
        Some("check") if args.len() == 3 => check::run(&spec, &args[1], &args[2]),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn run_arguments_parse_in_the_drivers_form() {
        let spec = spec::load();
        let a = parse_run_args(
            &args(&[
                "--workload",
                "sim-deep",
                "--seed",
                "42",
                "--seconds",
                "3",
                "--trace",
                "1",
            ]),
            &spec,
        )
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("sim-deep"), 42, 3.0, true)
        );
        let d = parse_run_args(&[], &spec).unwrap();
        assert_eq!(
            (d.workload, d.seed, d.seconds, d.trace),
            (None, 1, spec.run_seconds as f64, false)
        );
    }

    #[test]
    fn bad_run_arguments_are_refused() {
        let spec = spec::load();
        for bad in [
            &["--workload", "no-such"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--trace", "2"],
            &["--seed"],
            &["--frobnicate", "1"],
        ] {
            assert!(parse_run_args(&args(bad), &spec).is_err(), "{bad:?}");
        }
    }

    /// Every workload named in BENCHMARK.json can be built, and nothing
    /// else can.
    #[test]
    fn workload_registry_matches_the_definition() {
        let spec = spec::load();
        assert!(workloads::build("no-such-workload", 1).is_none());
        for name in &spec.workloads {
            workloads::build(name, 1)
                .unwrap_or_else(|| panic!("{name} is not registered"))
                .teardown();
        }
    }
}
