//! `check A.json B.json`: do two result sets of the same commit agree
//! within the benchmark's own bounds?

use crate::report::WorkloadResult;
use crate::spec::Spec;
use serde_json::Value;
use std::process::ExitCode;

#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// Within the bound, and both runs' spreads are too.
    Same,
    /// The runs' own spread is wider than the bound: no verdict either way.
    Unresolved,
    Differs,
}

pub struct Line {
    pub workload: String,
    pub metric: String,
    pub verdict: Verdict,
    pub note: String,
}

/// The untraced result of every workload in a result set.
fn results(doc: &Value) -> Result<Vec<WorkloadResult>, String> {
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or("no \"workloads\" object")?;
    workloads
        .iter()
        .filter_map(|(_, entry)| entry.get("end_to_end"))
        .map(WorkloadResult::from_value)
        .collect()
}

/// Compare every end-to-end metric and every exact value of the workloads
/// present in both sets.
pub fn compare(spec: &Spec, a: &Value, b: &Value) -> Result<Vec<Line>, String> {
    let mut lines = Vec::new();
    let (left, right) = (results(a)?, results(b)?);
    for ra in &left {
        let Some(rb) = right.iter().find(|r| r.workload == ra.workload) else {
            continue;
        };
        if ra.seed != rb.seed {
            return Err(format!(
                "{}: seeds {} and {} differ",
                ra.workload, ra.seed, rb.seed
            ));
        }
        for (key, va) in &ra.exact {
            let vb = rb.exact.get(key);
            lines.push(Line {
                workload: ra.workload.clone(),
                metric: key.clone(),
                verdict: if vb == Some(va) {
                    Verdict::Same
                } else {
                    Verdict::Differs
                },
                note: format!("{va} vs {vb:?} (must repeat exactly)"),
            });
        }
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let (Some(ma), Some(mb)) = (ra.metrics.get(&m.name), rb.metrics.get(&m.name)) else {
                return Err(format!(
                    "{}: {} missing from a result set",
                    ra.workload, m.name
                ));
            };
            let diff = (mb.value - ma.value).abs() / ma.value.abs().max(f64::MIN_POSITIVE);
            let spread = ma.iqr_frac.max(mb.iqr_frac);
            let verdict = if diff > bound {
                Verdict::Differs
            } else if spread > bound {
                Verdict::Unresolved
            } else {
                Verdict::Same
            };
            lines.push(Line {
                workload: ra.workload.clone(),
                metric: m.name.clone(),
                verdict,
                note: format!(
                    "{:.4} vs {:.4} {} (differ {:.3}, spread {:.3}, bound {bound})",
                    ma.value, mb.value, m.unit, diff, spread
                ),
            });
        }
    }
    if lines.is_empty() {
        return Err("the two result sets share no workload".into());
    }
    Ok(lines)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn run(spec: &Spec, a: &str, b: &str) -> ExitCode {
    let lines = match load(a)
        .and_then(|a| Ok((a, load(b)?)))
        .and_then(|(a, b)| compare(spec, &a, &b))
    {
        Ok(lines) => lines,
        Err(e) => {
            eprintln!("check: {e}");
            return ExitCode::from(2);
        }
    };
    let mut differs = 0;
    for l in &lines {
        let tag = match l.verdict {
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => {
                differs += 1;
                "DIFFERS"
            }
        };
        println!("{tag:10} {:16} {:28} {}", l.workload, l.metric, l.note);
    }
    let unresolved = lines
        .iter()
        .filter(|l| l.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} compared, {differs} differ, {unresolved} unresolved",
        lines.len()
    );
    if differs == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{object, Measured};
    use crate::spec;

    fn set(throughput: f64, iqr: f64, checksum: u64) -> Value {
        let spec = spec::load();
        let mut r = WorkloadResult::new(
            "sim-deep",
            1,
            false,
            8.0,
            &[crate::workloads::Rep {
                work: 1.0,
                secs: 1.0,
                exact: vec![("sim.stat_checksum", checksum)],
                slowdown: Some(1.0),
                ..Default::default()
            }],
        );
        for m in &spec.end_to_end {
            let value = if m.name == "throughput_per_s" {
                throughput
            } else {
                5.0
            };
            let measured = Measured {
                iqr_frac: if m.name == "throughput_per_s" {
                    iqr
                } else {
                    0.01
                },
                ..Measured::single(value, &m.unit)
            };
            r.metrics.insert(m.name.clone(), measured);
        }
        object([(
            "workloads",
            object([("sim-deep", object([("end_to_end", r.to_json())]))]),
        )])
    }

    fn throughput_bound(spec: &Spec) -> f64 {
        spec.end_to_end
            .iter()
            .find(|m| m.name == "throughput_per_s")
            .unwrap()
            .bound
            .unwrap()
    }

    fn verdict_of<'a>(lines: &'a [Line], metric: &str) -> &'a Verdict {
        &lines.iter().find(|l| l.metric == metric).unwrap().verdict
    }

    #[test]
    fn agreement_within_the_bound_is_same() {
        let spec = spec::load();
        let nearly = 100.0 * (1.0 + throughput_bound(&spec) * 0.9);
        let lines = compare(&spec, &set(100.0, 0.01, 9), &set(nearly, 0.02, 9)).unwrap();
        assert!(lines.iter().all(|l| l.verdict == Verdict::Same));
        assert_eq!(lines.len(), spec.end_to_end.len() + 1);
    }

    #[test]
    fn a_metric_beyond_its_bound_differs_in_either_direction() {
        let spec = spec::load();
        let beyond = throughput_bound(&spec) * 1.1;
        for other in [100.0 * (1.0 - beyond), 100.0 * (1.0 + beyond)] {
            let lines = compare(&spec, &set(100.0, 0.01, 9), &set(other, 0.01, 9)).unwrap();
            assert_eq!(verdict_of(&lines, "throughput_per_s"), &Verdict::Differs);
            assert_eq!(verdict_of(&lines, "op_p50_us"), &Verdict::Same);
        }
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_same() {
        let spec = spec::load();
        let wide = throughput_bound(&spec) * 1.5;
        let lines = compare(&spec, &set(100.0, 0.01, 9), &set(101.0, wide, 9)).unwrap();
        assert_eq!(verdict_of(&lines, "throughput_per_s"), &Verdict::Unresolved);
    }

    #[test]
    fn a_checksum_that_does_not_repeat_differs() {
        let spec = spec::load();
        let lines = compare(&spec, &set(100.0, 0.01, 9), &set(100.0, 0.01, 10)).unwrap();
        assert_eq!(verdict_of(&lines, "sim.stat_checksum"), &Verdict::Differs);
    }

    #[test]
    fn sets_with_nothing_in_common_are_an_error() {
        let spec = spec::load();
        let empty = object([("workloads", object([]))]);
        assert!(compare(&spec, &empty, &set(1.0, 0.0, 1)).is_err());
        assert!(compare(&spec, &object([]), &set(1.0, 0.0, 1)).is_err());
    }
}
