//! The benchmark's definition, read from the `BENCHMARK.json` at the root
//! of the repository (compiled in): the one place that names workloads
//! and metrics and fixes units, directions and bounds.

use serde_json::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// A name starts with a letter or digit and is made of at most 64
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn text<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("BENCHMARK.json: missing string \"{key}\""))
}

fn metrics(doc: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    let list = doc
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: missing list \"{key}\""))?;
    list.iter()
        .map(|m| {
            let name = text(m, "name")?;
            if !valid_name(name) {
                return Err(format!("BENCHMARK.json: bad metric name {name:?}"));
            }
            let better = match text(m, "better")? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("BENCHMARK.json: {name}: better={other:?}")),
            };
            Ok(MetricSpec {
                name: name.to_string(),
                unit: text(m, "unit")?.to_string(),
                better,
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

pub fn parse(doc: &str) -> Result<Spec, String> {
    let doc: Value = serde_json::from_str(doc).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: missing list \"workloads\"")?
        .iter()
        .map(|w| text(w, "name").map(str::to_string))
        .collect::<Result<Vec<_>, _>>()?;
    if let Some(bad) = workloads.iter().find(|w| !valid_name(w)) {
        return Err(format!("BENCHMARK.json: bad workload name {bad:?}"));
    }
    Ok(Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_u64)
            .ok_or("BENCHMARK.json: missing \"run_seconds\"")?,
        workloads,
        end_to_end: metrics(&doc, "end_to_end")?,
        per_layer: metrics(&doc, "per_layer")?,
    })
}

pub fn load() -> Spec {
    parse(BENCHMARK_JSON).expect("the committed BENCHMARK.json is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_letters_digits_underscore_dot_dash() {
        for good in [
            "setup_s",
            "sim.events_per_s.d512",
            "runtime.cause.2bw_barrier",
            "2bw",
            "a-b",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "-x",
            "_x",
            "a b",
            "a/b",
            "µs",
            "a%",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn committed_definition_parses_and_has_the_required_shape() {
        let spec = load();
        assert_eq!(spec.workloads.len(), 8);
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        for m in &spec.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
            assert!(
                bound <= setup.bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let mut names: Vec<&String> = spec
            .workloads
            .iter()
            .chain(spec.end_to_end.iter().map(|m| &m.name))
            .chain(spec.per_layer.iter().map(|m| &m.name))
            .collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
    }

    /// A per-layer metric no workload computes would silently read 0
    /// everywhere. (The other direction, a computed metric the definition
    /// lacks, stops the traced run.)
    #[test]
    fn every_per_layer_metric_is_computed_by_some_workload() {
        let sources = [
            include_str!("main.rs"),
            include_str!("workloads/mod.rs"),
            include_str!("workloads/train.rs"),
            include_str!("workloads/plan.rs"),
            include_str!("workloads/sim.rs"),
            include_str!("workloads/serve.rs"),
            include_str!("workloads/obs.rs"),
        ]
        .concat();
        let layers = [
            "tensor", "hw", "model", "core", "sim", "obs", "runtime", "serve", "harness",
        ];
        for m in &load().per_layer {
            match m.name.strip_suffix(".self_ms") {
                Some(layer) => assert!(layers.contains(&layer), "{}: no such layer", m.name),
                None => assert!(
                    sources.contains(&format!("\"{}\"", m.name)),
                    "{} is computed nowhere",
                    m.name
                ),
            }
        }
    }

    #[test]
    fn malformed_definitions_are_refused() {
        assert!(parse("{}").is_err());
        assert!(parse("not json").is_err());
        let bad_name = r#"{"run_seconds":1,"workloads":[{"name":"a b","why":""}],
            "end_to_end":[],"per_layer":[]}"#;
        assert!(parse(bad_name).is_err());
        let bad_dir = r#"{"run_seconds":1,"workloads":[],"per_layer":[],
            "end_to_end":[{"name":"x","unit":"s","better":"sideways","bound":0.1}]}"#;
        assert!(parse(bad_dir).is_err());
    }
}
