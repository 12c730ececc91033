//! Hand-rolled argument parsing (the workspace's dependency policy excludes
//! CLI frameworks; the grammar is small enough to parse directly).

use pipedream_core::ScheduleKind;
use std::collections::HashMap;

/// Usage text shown by `pipedream help`.
pub const USAGE: &str = "\
pipedream — generalized pipeline parallelism for DNN training (SOSP '19)

USAGE:
  pipedream plan     --model <NAME|@profile.json> --cluster <A|B|C> --servers N
                     [--batch N] [--flat] [--memory-limit-gb G] [--json]
                     [--schedule vanilla|2bw|recompute|2bw-recompute]
                     [--topology @topo.json]
  pipedream simulate --model <NAME|@profile.json> --cluster <A|B|C> --servers N
                     [--config 15-1|straight|dp|auto] [--minibatches N]
                     [--timeline] [--json] [--topology @topo.json]
                     [--trace out.json]
  pipedream dp       --model <NAME|@profile.json> --cluster <A|B|C> --servers N
                     [--gpus N] [--fp16] [--json] [--topology @topo.json]
  pipedream train    [--stages N] [--epochs N] [--batch N] [--lr X]
                     [--semantics stashed|naive|vsync|gpipe] [--seed N]
                     [--schedule vanilla|2bw|recompute|2bw-recompute]
                     [--fault kill:stage=S,mb=N | delay:stage=S,mb=N,ms=M |
                              drop:stage=S,mb=N | corrupt:stage=S,epoch=E |
                              straggle:stage=S,ms=M  (several joined by ;)]
                     [--checkpoint-dir DIR] [--checkpoint-every K]
                     [--report file.json] [--trace out.json] [--metrics]
                     [--timeline] [--watch] [--auto-replan]
  pipedream top      [--stages N] [--epochs N] [--batch N] [--seed N]
                     [--refresh-ms M] [--auto-replan]
  pipedream analyze  <trace.json> [--top N] [--what-if stage=S,speedup=F]
                     [--sim sim_trace.json] [--json]
  pipedream serve    [--addr HOST:PORT] [--threads N] [--queue N]
                     [--cache N] [--shards N] [--deadline-ms M]
                     [--for-secs S]
  pipedream export   (--model <NAME> | --cluster <A|B|C> --servers N)
                     [--out file.json]
  pipedream inspect  (--model <NAME|@profile.json> | --from-trace out.json)
                     [--batch N]
  pipedream help

MODELS: vgg16 resnet50 alexnet gnmt8 gnmt16 awd-lm s2vt huge-lm, or @file.json with a
serialized ModelProfile. TOPOLOGY: @file.json with a serialized Topology
overrides --cluster/--servers. `train --watch` prints a live status line per
snapshot window; `top` runs a demo training job under a live ASCII dashboard;
`inspect --from-trace` replays a saved Chrome trace into measured per-stage
costs (combine with --model to diff measured against profiled). `serve`
runs the planning daemon (POST /plan, /simulate, /validate; GET /metrics,
/healthz) with a sharded plan cache; --for-secs 0 serves until killed.
`--schedule` selects the memory-efficient execution schedule: `2bw`
(double-buffered weight updates, ≤ 2 stashed versions), `recompute`
(drop activation stashes in the forward pass and rebuild them before the
backward), or `2bw-recompute` (both). For `plan` it changes the memory
model the partitioner checks `--memory-limit-gb` against; for `train`
(stashed semantics only) it changes what the workers stash.
`train --fault` injects faults at logical minibatch ids: a segment a fault
brings down restarts from the newest checkpoint every stage completed, as
often as faults fire; `straggle:` slows every send of a stage and never
kills. `--checkpoint-every K` adds a dump every K minibatches of an epoch;
on a replicated configuration a dump is taken only where the minibatches
done are a multiple of the lcm of the replica counts (every gradient-sync
round closed), so other points are skipped.
`train --auto-replan` runs under the autopilot: if the live profile drifts
off-plan, the pipeline drains to a checkpoint, repartitions onto the
advisor's plan, and resumes — committing or rolling back after a measured
probation window (requires --checkpoint-dir, or a temp dir is used). It
combines with any --fault: a fault in any segment is recovered the same way.
`top --auto-replan` runs the same autopilot demo and adds a control-plane
status line (state-machine position, reconfiguration attempts / commits /
rollbacks, last downtime) to every dashboard frame.
`analyze` reconstructs the per-minibatch dependency DAG of a saved Chrome
trace (from `train --trace` or `simulate --trace`), ranks stages by their
critical-path share with per-cause bubble attribution, and predicts the
end-to-end gain of speeding a stage up (`--what-if stage=2,speedup=0.3`);
`--sim` diffs the measured critical path against a simulated trace's,
stage by stage.
";

/// A parsed subcommand.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `pipedream plan …`
    Plan(PlanArgs),
    /// `pipedream simulate …`
    Simulate(SimulateArgs),
    /// `pipedream dp …`
    Dp(DpArgs),
    /// `pipedream train …`
    Train(TrainArgs),
    /// `pipedream top …`
    Top(TopArgs),
    /// `pipedream serve …`
    Serve(ServeArgs),
    /// `pipedream export …`
    Export(ExportArgs),
    /// `pipedream inspect …`
    Inspect(InspectArgs),
    /// `pipedream analyze …`
    Analyze(AnalyzeArgs),
    /// `pipedream help`
    Help,
}

/// Arguments for `analyze`: offline critical-path analysis of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeArgs {
    /// Chrome trace to analyze (from `train --trace` or `simulate --trace`).
    pub trace: String,
    /// Rows to show in the ranked bottleneck report.
    pub top: usize,
    /// What-if estimate: speed stage S up by fraction F in (0, 1].
    pub what_if: Option<(usize, f64)>,
    /// Simulated trace to diff the measured critical path against.
    pub sim: Option<String>,
    /// Emit JSON instead of text.
    pub json: bool,
}

/// Arguments for `inspect`.
#[derive(Debug, Clone, PartialEq)]
pub struct InspectArgs {
    /// Zoo model name or `@path.json`. Optional when `--from-trace` is
    /// given; when both are present the measured table prints next to
    /// the profiled one.
    pub model: Option<String>,
    /// Per-GPU minibatch override.
    pub batch: Option<usize>,
    /// Replay a saved Chrome trace into measured per-stage costs.
    pub from_trace: Option<String>,
}

/// Arguments for `top`: a self-contained demo training run rendered as a
/// live dashboard.
#[derive(Debug, Clone, PartialEq)]
pub struct TopArgs {
    /// Pipeline stages.
    pub stages: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch: usize,
    /// RNG seed.
    pub seed: u64,
    /// Dashboard refresh interval in milliseconds.
    pub refresh_ms: u64,
    /// Run the demo under the autopilot and surface its control-plane
    /// state (reconfiguration ladder, attempts, verdicts) per frame.
    pub auto_replan: bool,
}

/// Arguments for `serve`: the planning daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Bind address (port 0 picks a free port).
    pub addr: String,
    /// Worker threads.
    pub threads: usize,
    /// Bounded connection-queue depth.
    pub queue: usize,
    /// Plan-cache entry bound.
    pub cache: usize,
    /// Plan-cache shard count.
    pub shards: usize,
    /// Default per-request deadline in ms (0 = none).
    pub deadline_ms: u64,
    /// Serve for this many seconds then exit gracefully (0 = forever).
    pub for_secs: u64,
}

/// Arguments for `export`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportArgs {
    /// Zoo model to export as a profile JSON, if any.
    pub model: Option<String>,
    /// Cluster preset to export as a topology JSON, if any.
    pub cluster: Option<char>,
    /// Servers for the topology export.
    pub servers: usize,
    /// Output path (stdout if omitted).
    pub out: Option<String>,
}

/// Target selection shared by the model-based subcommands.
#[derive(Debug, Clone, PartialEq)]
pub struct Target {
    /// Zoo model name or `@path.json`.
    pub model: String,
    /// Cluster preset letter.
    pub cluster: char,
    /// Number of servers.
    pub servers: usize,
    /// Optional `@path.json` topology override.
    pub topology: Option<String>,
}

/// Arguments for `plan`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanArgs {
    /// What to plan for.
    pub target: Target,
    /// Per-GPU minibatch override.
    pub batch: Option<usize>,
    /// Use the worker-granular flat DP.
    pub flat: bool,
    /// Per-worker memory budget in GiB.
    pub memory_limit_gb: Option<f64>,
    /// Execution schedule the memory model assumes.
    pub schedule: ScheduleKind,
    /// Emit JSON instead of text.
    pub json: bool,
}

/// Arguments for `simulate`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateArgs {
    /// What to simulate.
    pub target: Target,
    /// Configuration: `auto` (plan it), `dp`, `straight`, or dash notation.
    pub config: String,
    /// Minibatches to run.
    pub minibatches: u64,
    /// Render the ASCII timeline.
    pub timeline: bool,
    /// Emit JSON instead of text.
    pub json: bool,
    /// Write the simulated run as a Chrome trace to this path; the output
    /// uses the same schema as `train --trace` so `analyze` accepts both.
    pub trace: Option<String>,
}

/// Arguments for `dp`.
#[derive(Debug, Clone, PartialEq)]
pub struct DpArgs {
    /// What to simulate.
    pub target: Target,
    /// Worker count (defaults to the whole cluster).
    pub gpus: Option<usize>,
    /// Use fp16.
    pub fp16: bool,
    /// Emit JSON instead of text.
    pub json: bool,
}

/// Arguments for `train`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainArgs {
    /// Pipeline stages.
    pub stages: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Learning rate.
    pub lr: f32,
    /// Semantics: stashed | naive | vsync | gpipe.
    pub semantics: String,
    /// Memory-efficient schedule variant (stashed semantics only).
    pub schedule: ScheduleKind,
    /// RNG seed.
    pub seed: u64,
    /// Fault-injection plan (e.g. `kill:stage=1,mb=37`, several joined by
    /// `;`), recovered from by the relaunch loop.
    pub fault: Option<String>,
    /// Checkpoint directory (per-stage epoch-boundary checkpoints; defaults
    /// to a temp dir when `--fault` needs one).
    pub checkpoint_dir: Option<String>,
    /// Also checkpoint every K minibatches mid-epoch, tightening the
    /// recovery redo bound to ≤ K minibatches. On a replicated
    /// configuration only points where the minibatches done are a multiple
    /// of the replica lcm take a dump.
    pub checkpoint_every: Option<u64>,
    /// Write the final TrainReport as JSON to this path.
    pub report: Option<String>,
    /// Write a Chrome trace_event JSON of the run to this path.
    pub trace: Option<String>,
    /// Print the session's metrics in Prometheus text format.
    pub metrics: bool,
    /// Render the measured run as an ASCII timeline.
    pub timeline: bool,
    /// Print a live status line (throughput, per-stage busy%, ETA) per
    /// snapshot window while training.
    pub watch: bool,
    /// Run under the autopilot: reconfigure the pipeline live if the
    /// measured profile drifts off-plan.
    pub auto_replan: bool,
}

/// Parsing failure with a user-facing message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

fn flags(args: &[String]) -> Result<(HashMap<String, String>, Vec<String>), ParseError> {
    let mut map = HashMap::new();
    let mut bare = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            // Boolean flags take no value; everything else consumes one.
            let boolean = matches!(
                name,
                "flat" | "json" | "timeline" | "fp16" | "metrics" | "watch" | "auto-replan"
            );
            if boolean {
                map.insert(name.to_string(), "true".to_string());
            } else {
                let v = it
                    .next()
                    .ok_or_else(|| ParseError(format!("--{name} needs a value")))?;
                map.insert(name.to_string(), v.clone());
            }
        } else {
            bare.push(a.clone());
        }
    }
    Ok((map, bare))
}

fn get<T: std::str::FromStr>(
    map: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, ParseError> {
    match map.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| ParseError(format!("--{key}: cannot parse '{v}'"))),
    }
}

fn schedule(map: &HashMap<String, String>) -> Result<ScheduleKind, ParseError> {
    match map.get("schedule") {
        None => Ok(ScheduleKind::Vanilla1F1B),
        Some(v) => ScheduleKind::parse(v).ok_or_else(|| {
            ParseError(format!(
                "--schedule: '{v}' is not vanilla, 2bw, recompute or 2bw-recompute"
            ))
        }),
    }
}

/// `stage=S,speedup=F` — the what-if spec for `analyze`.
fn parse_what_if(v: &str) -> Result<(usize, f64), ParseError> {
    let mut stage = None;
    let mut speedup = None;
    for part in v.split(',') {
        match part.split_once('=') {
            Some(("stage", s)) => stage = s.trim().parse::<usize>().ok(),
            Some(("speedup", s)) => speedup = s.trim().parse::<f64>().ok(),
            _ => {}
        }
    }
    match (stage, speedup) {
        (Some(s), Some(f)) if f > 0.0 && f <= 1.0 => Ok((s, f)),
        _ => Err(ParseError(
            "--what-if: expected stage=S,speedup=F with 0 < F ≤ 1".into(),
        )),
    }
}

fn target(map: &HashMap<String, String>) -> Result<Target, ParseError> {
    let model = map
        .get("model")
        .cloned()
        .ok_or_else(|| ParseError("--model is required".into()))?;
    let cluster = map
        .get("cluster")
        .map(|c| c.to_ascii_uppercase())
        .unwrap_or_else(|| "A".to_string());
    let cluster = cluster
        .chars()
        .next()
        .filter(|c| ['A', 'B', 'C'].contains(c))
        .ok_or_else(|| ParseError("--cluster must be A, B or C".into()))?;
    let servers = get(map, "servers", 1usize)?;
    if servers == 0 {
        return Err(ParseError("--servers must be ≥ 1".into()));
    }
    Ok(Target {
        model,
        cluster,
        servers,
        topology: map.get("topology").cloned(),
    })
}

/// Parse a full argument list (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some(sub) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    let (map, bare) = flags(rest)?;
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "plan" => Ok(Command::Plan(PlanArgs {
            target: target(&map)?,
            batch: map
                .get("batch")
                .map(|v| {
                    v.parse()
                        .map_err(|_| ParseError("--batch: not a number".into()))
                })
                .transpose()?,
            flat: map.contains_key("flat"),
            memory_limit_gb: map
                .get("memory-limit-gb")
                .map(|v| {
                    v.parse()
                        .map_err(|_| ParseError("--memory-limit-gb: not a number".into()))
                })
                .transpose()?,
            schedule: schedule(&map)?,
            json: map.contains_key("json"),
        })),
        "simulate" => Ok(Command::Simulate(SimulateArgs {
            target: target(&map)?,
            config: map.get("config").cloned().unwrap_or_else(|| "auto".into()),
            minibatches: get(&map, "minibatches", 48u64)?,
            timeline: map.contains_key("timeline"),
            json: map.contains_key("json"),
            trace: map.get("trace").cloned(),
        })),
        "dp" => Ok(Command::Dp(DpArgs {
            target: target(&map)?,
            gpus: map
                .get("gpus")
                .map(|v| {
                    v.parse()
                        .map_err(|_| ParseError("--gpus: not a number".into()))
                })
                .transpose()?,
            fp16: map.contains_key("fp16"),
            json: map.contains_key("json"),
        })),
        "inspect" => {
            let model = map.get("model").cloned();
            let from_trace = map.get("from-trace").cloned();
            if model.is_none() && from_trace.is_none() {
                return Err(ParseError(
                    "inspect needs --model and/or --from-trace".into(),
                ));
            }
            Ok(Command::Inspect(InspectArgs {
                model,
                batch: map
                    .get("batch")
                    .map(|v| {
                        v.parse()
                            .map_err(|_| ParseError("--batch: not a number".into()))
                    })
                    .transpose()?,
                from_trace,
            }))
        }
        "export" => {
            let cluster = match map.get("cluster") {
                None => None,
                Some(c) => {
                    let ch = c
                        .to_ascii_uppercase()
                        .chars()
                        .next()
                        .filter(|c| ['A', 'B', 'C'].contains(c))
                        .ok_or_else(|| ParseError("--cluster must be A, B or C".into()))?;
                    Some(ch)
                }
            };
            let model = map.get("model").cloned();
            if model.is_none() && cluster.is_none() {
                return Err(ParseError("export needs --model and/or --cluster".into()));
            }
            Ok(Command::Export(ExportArgs {
                model,
                cluster,
                servers: get(&map, "servers", 1usize)?,
                out: map.get("out").cloned(),
            }))
        }
        "train" => Ok(Command::Train(TrainArgs {
            stages: get(&map, "stages", 4usize)?,
            epochs: get(&map, "epochs", 10usize)?,
            batch: get(&map, "batch", 16usize)?,
            lr: get(&map, "lr", 0.05f32)?,
            semantics: map
                .get("semantics")
                .cloned()
                .unwrap_or_else(|| "stashed".into()),
            schedule: schedule(&map)?,
            seed: get(&map, "seed", 1u64)?,
            fault: map.get("fault").cloned(),
            checkpoint_dir: map.get("checkpoint-dir").cloned(),
            checkpoint_every: map
                .get("checkpoint-every")
                .map(|v| {
                    v.parse::<u64>()
                        .ok()
                        .filter(|&k| k >= 1)
                        .ok_or_else(|| ParseError("--checkpoint-every: need a number ≥ 1".into()))
                })
                .transpose()?,
            report: map.get("report").cloned(),
            trace: map.get("trace").cloned(),
            metrics: map.contains_key("metrics"),
            timeline: map.contains_key("timeline"),
            watch: map.contains_key("watch"),
            auto_replan: map.contains_key("auto-replan"),
        })),
        "serve" => {
            let a = ServeArgs {
                addr: map
                    .get("addr")
                    .cloned()
                    .unwrap_or_else(|| "127.0.0.1:7100".into()),
                threads: get(&map, "threads", 2usize)?,
                queue: get(&map, "queue", 64usize)?,
                cache: get(&map, "cache", 256usize)?,
                shards: get(&map, "shards", 8usize)?,
                deadline_ms: get(&map, "deadline-ms", 0u64)?,
                for_secs: get(&map, "for-secs", 0u64)?,
            };
            if a.threads == 0 || a.queue == 0 || a.cache == 0 || a.shards == 0 {
                return Err(ParseError(
                    "--threads, --queue, --cache and --shards must be ≥ 1".into(),
                ));
            }
            Ok(Command::Serve(a))
        }
        "analyze" => {
            let trace = bare
                .first()
                .cloned()
                .or_else(|| map.get("trace").cloned())
                .ok_or_else(|| {
                    ParseError("analyze needs a trace path: pipedream analyze <trace.json>".into())
                })?;
            Ok(Command::Analyze(AnalyzeArgs {
                trace,
                top: get(&map, "top", 8usize)?,
                what_if: map.get("what-if").map(|v| parse_what_if(v)).transpose()?,
                sim: map.get("sim").cloned(),
                json: map.contains_key("json"),
            }))
        }
        "top" => Ok(Command::Top(TopArgs {
            stages: get(&map, "stages", 4usize)?,
            epochs: get(&map, "epochs", 10usize)?,
            batch: get(&map, "batch", 16usize)?,
            seed: get(&map, "seed", 1u64)?,
            refresh_ms: get(&map, "refresh-ms", 250u64)?,
            auto_replan: map.contains_key("auto-replan"),
        })),
        other => Err(ParseError(format!(
            "unknown subcommand '{other}'; try `pipedream help`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn plan_parses_full() {
        let cmd = parse(&s(&[
            "plan",
            "--model",
            "vgg16",
            "--cluster",
            "a",
            "--servers",
            "4",
            "--flat",
            "--json",
            "--memory-limit-gb",
            "16",
        ]))
        .unwrap();
        let Command::Plan(a) = cmd else { panic!() };
        assert_eq!(a.target.model, "vgg16");
        assert_eq!(a.target.cluster, 'A');
        assert_eq!(a.target.servers, 4);
        assert!(a.flat && a.json);
        assert_eq!(a.memory_limit_gb, Some(16.0));
        assert_eq!(a.schedule, ScheduleKind::Vanilla1F1B);
    }

    #[test]
    fn schedule_flag_parses_on_plan_and_train() {
        let cmd = parse(&s(&[
            "plan",
            "--model",
            "vgg16",
            "--schedule",
            "2bw-recompute",
        ]))
        .unwrap();
        let Command::Plan(a) = cmd else { panic!() };
        assert_eq!(a.schedule, ScheduleKind::TwoBWRecompute);

        let cmd = parse(&s(&["train", "--schedule", "2bw"])).unwrap();
        let Command::Train(a) = cmd else { panic!() };
        assert_eq!(a.schedule, ScheduleKind::TwoBW);
        let cmd = parse(&s(&["train"])).unwrap();
        let Command::Train(a) = cmd else { panic!() };
        assert_eq!(a.schedule, ScheduleKind::Vanilla1F1B);

        assert!(parse(&s(&["train", "--schedule", "3bw"])).is_err());
        assert!(parse(&s(&["plan", "--model", "vgg16", "--schedule", "x"])).is_err());
    }

    #[test]
    fn simulate_defaults() {
        let cmd = parse(&s(&["simulate", "--model", "gnmt8"])).unwrap();
        let Command::Simulate(a) = cmd else { panic!() };
        assert_eq!(a.config, "auto");
        assert_eq!(a.minibatches, 48);
        assert_eq!(a.target.servers, 1);
        assert!(!a.timeline);
    }

    #[test]
    fn train_defaults_and_overrides() {
        let cmd = parse(&s(&["train", "--semantics", "gpipe", "--epochs", "3"])).unwrap();
        let Command::Train(a) = cmd else { panic!() };
        assert_eq!(a.semantics, "gpipe");
        assert_eq!(a.epochs, 3);
        assert_eq!(a.stages, 4);
        assert_eq!(a.fault, None);
        assert_eq!(a.trace, None);
        assert!(!a.metrics && !a.timeline);
    }

    #[test]
    fn train_trace_flags_parse() {
        let cmd = parse(&s(&[
            "train",
            "--trace",
            "/tmp/run.json",
            "--metrics",
            "--timeline",
            "--epochs",
            "2",
        ]))
        .unwrap();
        let Command::Train(a) = cmd else { panic!() };
        assert_eq!(a.trace.as_deref(), Some("/tmp/run.json"));
        assert!(a.metrics);
        assert!(a.timeline);
        assert_eq!(a.epochs, 2);
        // --trace is a value flag: bare `--trace` must be rejected.
        assert!(parse(&s(&["train", "--trace"])).is_err());
    }

    #[test]
    fn train_fault_flag_parses() {
        let cmd = parse(&s(&[
            "train",
            "--fault",
            "kill:stage=1,mb=37",
            "--checkpoint-dir",
            "/tmp/ck",
        ]))
        .unwrap();
        let Command::Train(a) = cmd else { panic!() };
        assert_eq!(a.fault.as_deref(), Some("kill:stage=1,mb=37"));
        assert_eq!(a.checkpoint_dir.as_deref(), Some("/tmp/ck"));
        assert_eq!(a.checkpoint_every, None);
    }

    #[test]
    fn train_checkpoint_every_and_report_parse() {
        let cmd = parse(&s(&[
            "train",
            "--checkpoint-every",
            "8",
            "--report",
            "/tmp/report.json",
        ]))
        .unwrap();
        let Command::Train(a) = cmd else { panic!() };
        assert_eq!(a.checkpoint_every, Some(8));
        assert_eq!(a.report.as_deref(), Some("/tmp/report.json"));
        assert!(parse(&s(&["train", "--checkpoint-every", "0"])).is_err());
        assert!(parse(&s(&["train", "--checkpoint-every", "x"])).is_err());
    }

    #[test]
    fn train_watch_flag_parses() {
        let cmd = parse(&s(&["train", "--watch", "--epochs", "2"])).unwrap();
        let Command::Train(a) = cmd else { panic!() };
        assert!(a.watch);
        assert_eq!(a.epochs, 2);
        let cmd = parse(&s(&["train"])).unwrap();
        let Command::Train(a) = cmd else { panic!() };
        assert!(!a.watch);
    }

    #[test]
    fn top_defaults_and_overrides() {
        let cmd = parse(&s(&["top"])).unwrap();
        let Command::Top(a) = cmd else { panic!() };
        assert_eq!(a.stages, 4);
        assert_eq!(a.refresh_ms, 250);
        assert!(!a.auto_replan);
        let cmd = parse(&s(&[
            "top",
            "--stages",
            "2",
            "--refresh-ms",
            "100",
            "--auto-replan",
        ]))
        .unwrap();
        let Command::Top(a) = cmd else { panic!() };
        assert_eq!(a.stages, 2);
        assert_eq!(a.refresh_ms, 100);
        assert!(a.auto_replan);
    }

    #[test]
    fn inspect_accepts_model_or_trace() {
        let cmd = parse(&s(&["inspect", "--model", "vgg16"])).unwrap();
        let Command::Inspect(a) = cmd else { panic!() };
        assert_eq!(a.model.as_deref(), Some("vgg16"));
        assert_eq!(a.from_trace, None);
        let cmd = parse(&s(&["inspect", "--from-trace", "/tmp/run.json"])).unwrap();
        let Command::Inspect(a) = cmd else { panic!() };
        assert_eq!(a.model, None);
        assert_eq!(a.from_trace.as_deref(), Some("/tmp/run.json"));
        let cmd = parse(&s(&[
            "inspect",
            "--model",
            "vgg16",
            "--from-trace",
            "/tmp/run.json",
        ]))
        .unwrap();
        let Command::Inspect(a) = cmd else { panic!() };
        assert!(a.model.is_some() && a.from_trace.is_some());
        // Neither is an error.
        assert!(parse(&s(&["inspect"])).is_err());
    }

    #[test]
    fn serve_defaults_and_overrides() {
        let cmd = parse(&s(&["serve"])).unwrap();
        let Command::Serve(a) = cmd else { panic!() };
        assert_eq!(a.addr, "127.0.0.1:7100");
        assert_eq!(a.threads, 2);
        assert_eq!(a.queue, 64);
        assert_eq!(a.cache, 256);
        assert_eq!(a.for_secs, 0);
        let cmd = parse(&s(&[
            "serve",
            "--addr",
            "0.0.0.0:9000",
            "--threads",
            "4",
            "--cache",
            "512",
            "--deadline-ms",
            "250",
            "--for-secs",
            "30",
        ]))
        .unwrap();
        let Command::Serve(a) = cmd else { panic!() };
        assert_eq!(a.addr, "0.0.0.0:9000");
        assert_eq!(a.threads, 4);
        assert_eq!(a.cache, 512);
        assert_eq!(a.deadline_ms, 250);
        assert_eq!(a.for_secs, 30);
        assert!(parse(&s(&["serve", "--threads", "0"])).is_err());
    }

    #[test]
    fn missing_model_is_an_error() {
        assert!(parse(&s(&["plan", "--cluster", "A"])).is_err());
    }

    #[test]
    fn bad_cluster_rejected() {
        assert!(parse(&s(&["plan", "--model", "vgg16", "--cluster", "Z"])).is_err());
    }

    #[test]
    fn missing_flag_value_rejected() {
        assert!(parse(&s(&["plan", "--model"])).is_err());
    }

    #[test]
    fn unknown_subcommand_rejected() {
        assert!(parse(&s(&["frobnicate"])).is_err());
    }

    #[test]
    fn analyze_takes_positional_trace() {
        let cmd = parse(&s(&["analyze", "/tmp/run.json"])).unwrap();
        let Command::Analyze(a) = cmd else { panic!() };
        assert_eq!(a.trace, "/tmp/run.json");
        assert_eq!(a.top, 8);
        assert_eq!(a.what_if, None);
        assert_eq!(a.sim, None);
        assert!(!a.json);
        // --trace works as an alias for the positional form.
        let cmd = parse(&s(&["analyze", "--trace", "/tmp/run.json"])).unwrap();
        let Command::Analyze(a) = cmd else { panic!() };
        assert_eq!(a.trace, "/tmp/run.json");
        // No trace at all is an error.
        assert!(parse(&s(&["analyze"])).is_err());
    }

    #[test]
    fn analyze_what_if_and_sim_parse() {
        let cmd = parse(&s(&[
            "analyze",
            "/tmp/run.json",
            "--what-if",
            "stage=2,speedup=0.3",
            "--sim",
            "/tmp/sim.json",
            "--top",
            "3",
            "--json",
        ]))
        .unwrap();
        let Command::Analyze(a) = cmd else { panic!() };
        assert_eq!(a.what_if, Some((2, 0.3)));
        assert_eq!(a.sim.as_deref(), Some("/tmp/sim.json"));
        assert_eq!(a.top, 3);
        assert!(a.json);
        // Malformed or out-of-range what-if specs are rejected.
        assert!(parse(&s(&["analyze", "t.json", "--what-if", "stage=2"])).is_err());
        assert!(parse(&s(&["analyze", "t.json", "--what-if", "stage=2,speedup=0"])).is_err());
        assert!(parse(&s(&[
            "analyze",
            "t.json",
            "--what-if",
            "stage=2,speedup=1.5"
        ]))
        .is_err());
    }

    #[test]
    fn simulate_trace_flag_parses() {
        let cmd = parse(&s(&[
            "simulate",
            "--model",
            "vgg16",
            "--trace",
            "/tmp/sim.json",
        ]))
        .unwrap();
        let Command::Simulate(a) = cmd else { panic!() };
        assert_eq!(a.trace.as_deref(), Some("/tmp/sim.json"));
    }
}
