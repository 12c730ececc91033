//! A workload's result: its metrics with their spread, its failure count,
//! and the values a second run of the same seed must reproduce exactly.

use crate::stats::{iqr_frac, median, percentile, sorted};
use crate::workloads::Rep;
use serde_json::{Map, Value};
use std::collections::BTreeMap;

/// A child process prints its full result on one line that starts with
/// this, before the last line, which is the four-key summary.
pub const DETAIL_PREFIX: &str = "detail ";

#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// At the reference host speed (see `calib`); memory is as read.
    pub value: f64,
    /// As the clock read it, before calibration.
    pub raw: f64,
    pub unit: String,
    /// Inter-quartile range of the per-repetition samples as a share of
    /// their median, and how many samples there were.
    pub iqr_frac: f64,
    pub samples: usize,
}

impl Measured {
    pub fn single(value: f64, unit: &str) -> Measured {
        Measured {
            value,
            raw: value,
            unit: unit.to_string(),
            iqr_frac: 0.0,
            samples: 1,
        }
    }

    /// The `p` quantile of `calibrated` beside its spread and the same
    /// quantile of `raw`.
    fn quantile(p: f64, calibrated: &[f64], raw: &[f64]) -> Measured {
        Measured {
            value: percentile(&sorted(calibrated), p),
            raw: percentile(&sorted(raw), p),
            unit: String::new(),
            iqr_frac: iqr_frac(calibrated),
            samples: calibrated.len(),
        }
    }
}

/// Interference from the host only ever slows a repetition down, so a run's
/// value is the quartile of its per-repetition samples on the good side,
/// not the median. (A higher quantile repeats worse: calibration errs both
/// ways, and so does the mix of hits and misses a repetition draws.)
const FAST_RATE: f64 = 0.75;
const FAST_TIME: f64 = 0.25;

pub fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One set-up: the seconds it took and the host's slowdown meanwhile.
pub struct Setup {
    pub secs: f64,
    pub slowdown: f64,
}

/// Work per second of each repetition: at the reference host speed, and
/// as the clock read it.
fn throughputs(reps: &[Rep]) -> (Vec<f64>, Vec<f64>) {
    let raw: Vec<f64> = reps.iter().map(|r| r.work / r.secs).collect();
    let calibrated = reps
        .iter()
        .zip(&raw)
        .map(|(r, t)| t * r.slowdown())
        .collect();
    (calibrated, raw)
}

/// The end-to-end metrics every workload reports, by name. Each repetition
/// gives one sample of each (for a latency, the median over its operations),
/// divided by the host's slowdown during that repetition.
pub fn end_to_end(
    reps: &[Rep],
    setups: &[Setup],
    peak_rss_mb: f64,
) -> BTreeMap<&'static str, Measured> {
    let (throughput, raw_throughput) = throughputs(reps);
    let latency = |pick: fn(&Rep) -> &Vec<f64>| {
        let raw: Vec<f64> = reps.iter().map(|r| median(pick(r))).collect();
        let calibrated: Vec<f64> = reps
            .iter()
            .zip(&raw)
            .map(|(r, us)| us / r.slowdown())
            .collect();
        Measured::quantile(FAST_TIME, &calibrated, &raw)
    };
    let setup_s: Vec<f64> = setups.iter().map(|s| s.secs / s.slowdown).collect();
    let raw_setup_s: Vec<f64> = setups.iter().map(|s| s.secs).collect();
    BTreeMap::from([
        ("setup_s", Measured::quantile(0.5, &setup_s, &raw_setup_s)),
        ("peak_rss_mb", Measured::single(peak_rss_mb, "")),
        (
            "throughput_per_s",
            Measured::quantile(FAST_RATE, &throughput, &raw_throughput),
        ),
        ("op_p50_us", latency(|r| &r.ops_us)),
        ("slow_op_p50_us", latency(|r| &r.slow_us)),
    ])
}

#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub seconds: f64,
    pub reps: usize,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, Measured>,
    pub exact: BTreeMap<String, u64>,
    /// Work per second (fast quartile over the repetitions), traced or not:
    /// the difference between the two runs is the tracing overhead.
    pub throughput_per_s: f64,
    /// The samples of each repetition, in order, as the clock read them
    /// (`throughput_per_s`, `op_p50_us`, `slow_op_p50_us`), and the host's
    /// `slowdown` meanwhile: what the metrics above are computed from.
    pub per_rep: BTreeMap<String, Vec<f64>>,
}

impl WorkloadResult {
    pub fn new(
        workload: &str,
        seed: u64,
        traced: bool,
        seconds: f64,
        reps: &[Rep],
    ) -> WorkloadResult {
        let mut failures: Vec<String> = reps
            .iter()
            .flat_map(|r| r.failures.iter().cloned())
            .collect();
        let first = &reps[0].exact;
        for (i, rep) in reps.iter().enumerate().skip(1) {
            for (a, b) in first.iter().zip(&rep.exact) {
                if a != b {
                    failures.push(format!(
                        "{}: {} in repetition 0, {} in repetition {i}",
                        a.0, a.1, b.1
                    ));
                }
            }
        }
        let (throughput, _) = throughputs(reps);
        WorkloadResult {
            workload: workload.to_string(),
            seed,
            traced,
            seconds,
            reps: reps.len(),
            attempted: reps.iter().map(|r| r.attempted).sum(),
            failures,
            metrics: BTreeMap::new(),
            exact: first.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            throughput_per_s: percentile(&sorted(&throughput), FAST_RATE),
            per_rep: [
                (
                    "throughput_per_s",
                    reps.iter().map(|r| r.work / r.secs).collect(),
                ),
                (
                    "op_p50_us",
                    reps.iter().map(|r| median(&r.ops_us)).collect(),
                ),
                (
                    "slow_op_p50_us",
                    reps.iter().map(|r| median(&r.slow_us)).collect(),
                ),
                ("slowdown", reps.iter().map(Rep::slowdown).collect()),
            ]
            .into_iter()
            .map(|(k, v): (&str, Vec<f64>)| (k.to_string(), v))
            .collect(),
        }
    }

    pub fn fail(&mut self, message: String) {
        self.failures.push(message);
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Every metric by name with its unit, one per line.
    pub fn print(&self) {
        for (name, m) in &self.metrics {
            println!(
                "{:16} {name:32} {:>16.4} {:8} iqr {:.4} n={} raw {:.4}",
                self.workload, m.value, m.unit, m.iqr_frac, m.samples, m.raw
            );
        }
        for (name, value) in &self.exact {
            println!("{:16} {name:32} {value:>16} exact", self.workload);
        }
        let failed_frac = self.failures.len() as f64 / self.attempted.max(1) as f64;
        println!(
            "{:16} {:32} {failed_frac:>16.6} ratio    {} of {} operations, {} repetitions",
            self.workload,
            "failed_frac",
            self.failures.len(),
            self.attempted,
            self.reps
        );
        for f in self.failures.iter().take(10) {
            eprintln!("FAIL {}: {f}", self.workload);
        }
    }

    /// The one-line summary: `correct`, `attempted`, `failed`, `metrics`.
    pub fn contract_line(&self) -> String {
        let metrics: Map = self
            .metrics
            .iter()
            .map(|(name, m)| {
                let fields = [
                    ("value", Value::Float(m.value)),
                    ("unit", Value::String(m.unit.clone())),
                ];
                (name.clone(), object(fields))
            })
            .collect();
        let line = object([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Uint(self.attempted.max(1))),
            ("failed", Value::Uint(self.failures.len() as u64)),
            ("metrics", Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("finite numbers serialize")
    }

    pub fn to_json(&self) -> Value {
        let metrics: Map = self
            .metrics
            .iter()
            .map(|(name, m)| {
                let fields = [
                    ("value", Value::Float(m.value)),
                    ("raw", Value::Float(m.raw)),
                    ("unit", Value::String(m.unit.clone())),
                    ("iqr_frac", Value::Float(m.iqr_frac)),
                    ("samples", Value::Uint(m.samples as u64)),
                ];
                (name.clone(), object(fields))
            })
            .collect();
        let exact: Map = self
            .exact
            .iter()
            .map(|(k, v)| (k.clone(), Value::Uint(*v)))
            .collect();
        let per_rep: Map = self
            .per_rep
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    Value::Array(v.iter().map(|x| Value::Float(*x)).collect()),
                )
            })
            .collect();
        object([
            ("workload", Value::String(self.workload.clone())),
            ("seed", Value::Uint(self.seed)),
            ("traced", Value::Bool(self.traced)),
            ("seconds", Value::Float(self.seconds)),
            ("repetitions", Value::Uint(self.reps as u64)),
            ("attempted", Value::Uint(self.attempted)),
            ("failed", Value::Uint(self.failures.len() as u64)),
            (
                "failures",
                Value::Array(
                    self.failures
                        .iter()
                        .take(20)
                        .cloned()
                        .map(Value::String)
                        .collect(),
                ),
            ),
            ("throughput_per_s", Value::Float(self.throughput_per_s)),
            ("per_rep", Value::Object(per_rep)),
            ("metrics", Value::Object(metrics)),
            ("exact", Value::Object(exact)),
        ])
    }

    pub fn from_value(v: &Value) -> Result<WorkloadResult, String> {
        let field = |key: &str| v.get(key).ok_or_else(|| format!("result has no \"{key}\""));
        let number = |key: &str| {
            field(key)?
                .as_f64()
                .ok_or_else(|| format!("\"{key}\" is not a number"))
        };
        let count = |key: &str| {
            field(key)?
                .as_u64()
                .ok_or_else(|| format!("\"{key}\" is not a count"))
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in field("metrics")?
            .as_object()
            .ok_or("\"metrics\" is not an object")?
            .iter()
        {
            let get = |key: &str| {
                m.get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{name}: no \"{key}\""))
            };
            metrics.insert(
                name.clone(),
                Measured {
                    value: get("value")?,
                    raw: get("raw")?,
                    unit: m
                        .get("unit")
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    iqr_frac: get("iqr_frac")?,
                    samples: get("samples")? as usize,
                },
            );
        }
        let exact = field("exact")?
            .as_object()
            .ok_or("\"exact\" is not an object")?
            .iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|v| (k.clone(), v))
                    .ok_or_else(|| format!("exact {k} is not a count"))
            })
            .collect::<Result<_, _>>()?;
        let failures = field("failures")?
            .as_array()
            .ok_or("\"failures\" is not a list")?
            .iter()
            .filter_map(|f| f.as_str().map(str::to_string))
            .collect();
        Ok(WorkloadResult {
            workload: field("workload")?
                .as_str()
                .ok_or("\"workload\" is not a string")?
                .to_string(),
            seed: count("seed")?,
            traced: field("traced")?
                .as_bool()
                .ok_or("\"traced\" is not a flag")?,
            seconds: number("seconds")?,
            reps: count("repetitions")? as usize,
            attempted: count("attempted")?,
            failures,
            metrics,
            exact,
            throughput_per_s: number("throughput_per_s")?,
            per_rep: field("per_rep")?
                .as_object()
                .ok_or("\"per_rep\" is not an object")?
                .iter()
                .map(|(k, v)| {
                    let samples = v
                        .as_array()
                        .ok_or_else(|| format!("per_rep {k} is not a list"))?;
                    Ok((
                        k.clone(),
                        samples.iter().filter_map(Value::as_f64).collect(),
                    ))
                })
                .collect::<Result<_, String>>()?,
        })
    }

    pub fn from_json(text: &str) -> Result<WorkloadResult, String> {
        let v: Value =
            serde_json::from_str(text).map_err(|e| format!("result is not JSON: {e}"))?;
        WorkloadResult::from_value(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    fn rep(work: f64, secs: f64, loss_bits: u64) -> Rep {
        Rep {
            work,
            secs,
            ops_us: vec![10.0, 20.0, 30.0],
            slow_us: vec![100.0],
            attempted: 3,
            failures: Vec::new(),
            exact: vec![("train.final_loss_bits", loss_bits)],
            slowdown: Some(1.0),
        }
    }

    fn setup(secs: f64) -> Setup {
        Setup {
            secs,
            slowdown: 1.0,
        }
    }

    fn result(reps: &[Rep]) -> WorkloadResult {
        let spec = spec::load();
        let mut r = WorkloadResult::new("sim-deep", 7, false, 8.0, reps);
        for (name, mut m) in end_to_end(reps, &[setup(0.5), setup(0.4), setup(0.6)], 12.5) {
            m.unit = spec
                .end_to_end
                .iter()
                .find(|s| s.name == name)
                .unwrap()
                .unit
                .clone();
            r.metrics.insert(name.to_string(), m);
        }
        r
    }

    #[test]
    fn every_end_to_end_metric_of_the_definition_is_computed_and_no_other() {
        let spec = spec::load();
        let computed = end_to_end(&[rep(100.0, 2.0, 1)], &[setup(0.5)], 12.5);
        let mut defined: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        defined.sort_unstable();
        assert_eq!(computed.keys().copied().collect::<Vec<_>>(), defined);
    }

    #[test]
    fn a_metric_is_the_fast_quartile_of_its_per_repetition_samples() {
        let reps: Vec<Rep> = [1.0, 2.0, 4.0, 5.0, 10.0]
            .iter()
            .map(|&secs| Rep {
                ops_us: vec![secs, 10.0 * secs, 100.0 * secs],
                slow_us: vec![1000.0 * secs],
                ..rep(100.0, secs, 1)
            })
            .collect();
        let r = result(&reps);
        // Throughputs 100, 50, 25, 20, 10: the third quartile is 50.
        assert_eq!(r.metrics["throughput_per_s"].value, 50.0);
        assert_eq!(r.throughput_per_s, 50.0);
        assert_eq!(r.metrics["throughput_per_s"].samples, 5);
        // Per-repetition medians 10, 20, 40, 50, 100: the first quartile is 20.
        assert_eq!(r.metrics["op_p50_us"].value, 20.0);
        assert_eq!(r.metrics["slow_op_p50_us"].value, 2000.0);
        assert!(r.metrics["op_p50_us"].iqr_frac > 1.0);
        // Set-up is the plain median of its three samples.
        assert_eq!(r.metrics["setup_s"].value, 0.5);
        assert_eq!((r.attempted, r.correct()), (15, true));
    }

    #[test]
    fn times_are_stated_at_the_reference_host_speed() {
        // The second repetition ran on a host twice as slow: same work,
        // twice the seconds, twice the latencies.
        let slow = Rep {
            ops_us: vec![20.0, 40.0, 60.0],
            slow_us: vec![200.0],
            slowdown: Some(2.0),
            ..rep(100.0, 4.0, 1)
        };
        let m = end_to_end(
            &[rep(100.0, 2.0, 1), slow],
            &[Setup {
                secs: 3.0,
                slowdown: 1.5,
            }],
            1.0,
        );
        assert_eq!(
            (m["throughput_per_s"].value, m["throughput_per_s"].iqr_frac),
            (50.0, 0.0)
        );
        assert_eq!(m["throughput_per_s"].raw, 43.75);
        assert_eq!(
            (m["op_p50_us"].value, m["slow_op_p50_us"].value),
            (20.0, 100.0)
        );
        assert_eq!((m["op_p50_us"].raw, m["slow_op_p50_us"].raw), (25.0, 125.0));
        assert_eq!((m["setup_s"].value, m["setup_s"].raw), (2.0, 3.0));
    }

    #[test]
    fn a_value_that_differs_between_repetitions_is_a_failure() {
        let r = result(&[rep(1.0, 1.0, 5), rep(1.0, 1.0, 5), rep(1.0, 1.0, 6)]);
        assert!(!r.correct());
        assert_eq!(r.failures.len(), 1);
        assert!(
            r.failures[0].contains("train.final_loss_bits"),
            "{:?}",
            r.failures
        );
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_the_defined_metrics() {
        let spec = spec::load();
        let r = result(&[rep(100.0, 1.0, 1), rep(100.0, 2.0, 1)]);
        let line: Value = serde_json::from_str(&r.contract_line()).unwrap();
        let keys: Vec<&String> = line.as_object().unwrap().iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(line.get("attempted").unwrap().as_u64(), Some(6));
        assert_eq!(line.get("failed").unwrap().as_u64(), Some(0));
        let metrics = line.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), spec.end_to_end.len());
        for m in &spec.end_to_end {
            let got = metrics
                .get(&m.name)
                .unwrap_or_else(|| panic!("{} missing", m.name));
            assert_eq!(got.get("unit").unwrap().as_str(), Some(m.unit.as_str()));
            assert!(got.get("value").unwrap().as_f64().unwrap() > 0.0);
            assert_eq!(got.as_object().unwrap().len(), 2);
        }
    }

    #[test]
    fn a_result_survives_the_trip_through_json() {
        let mut r = result(&[rep(100.0, 1.0, 1), rep(100.0, 3.0, 2)]);
        r.fail("setup_s reads 0".into());
        let back =
            WorkloadResult::from_json(&serde_json::to_string(&r.to_json()).unwrap()).unwrap();
        assert_eq!(back, r);
        assert!(WorkloadResult::from_json("{}").is_err());
    }
}
