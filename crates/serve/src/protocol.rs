//! The JSON request/response protocol and its handlers.
//!
//! Three POST endpoints over the planning stack:
//!
//! * `/plan` — run the §3.1 partitioner (hierarchical or flat)
//!   for a `(model, topology)` pair. Results are memoized in the sharded
//!   plan cache keyed by the canonical input fingerprint, rendered: the
//!   miss prints the plan once and every answer splices those bytes.
//! * `/simulate` — discrete-event-simulate a configuration (planned or
//!   caller-provided) under 1F1B and report throughput/memory.
//! * `/validate` — check a caller-provided configuration against a model
//!   and return the planner's prediction for it.
//!
//! Requests are parsed by hand from the JSON `Value` tree rather than
//! derived structs: every missing or ill-typed field becomes a precise
//! 400 message, and the daemon never panics on wire input.

use crate::cache::ShardedLruCache;
use pipedream_core::schedule::Schedule;
use pipedream_core::{
    fingerprint_plan_request, PipelineConfig, Plan, PlanError, Planner, ScheduleKind, StagePlan,
};
use pipedream_hw::{ClusterPreset, Precision, Topology};
use pipedream_model::{zoo, ModelProfile};
use pipedream_sim::simulate_pipeline;
use serde::{Deserialize, Value};
use serde_json::Map;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// An error to ship back as an HTTP status + JSON body.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiError {
    /// HTTP status (400 for bad requests, 500 for internal faults).
    pub status: u16,
    /// Human-readable cause, returned as `{"error": ...}`.
    pub message: String,
}

impl ApiError {
    /// A 400 with `message`.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ApiError {
            status: 400,
            message: message.into(),
        }
    }
}

impl From<PlanError> for ApiError {
    fn from(e: PlanError) -> Self {
        ApiError::bad_request(e.to_string())
    }
}

/// A plan as the cache holds it: the plan, and the two pieces of the
/// `/plan` response that depend on it alone, rendered once by the miss
/// that computed it.
#[derive(Debug)]
pub struct CachedPlan {
    plan: Plan,
    /// `plan.config.label()` as a JSON string, quotes included.
    label_json: Box<str>,
    /// `plan` as compact JSON.
    plan_json: Box<str>,
}

impl CachedPlan {
    /// A plan that does not print (a non-finite float) is a 500 carrying
    /// the printer's message, and is not cached.
    fn render(plan: Plan) -> Result<Self, ApiError> {
        let unprintable = |e: serde_json::Error| ApiError {
            status: 500,
            message: e.to_string(),
        };
        Ok(CachedPlan {
            label_json: serde_json::to_string(&plan.config.label())
                .map_err(unprintable)?
                .into(),
            plan_json: serde_json::to_string(&plan).map_err(unprintable)?.into(),
            plan,
        })
    }

    /// The plan the renderings were printed from.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }
}

/// The plan cache: fingerprint → rendered plan. Planning errors are
/// returned to every coalesced waiter but never cached (see
/// [`ShardedLruCache`]).
pub type PlanCache = ShardedLruCache<Arc<CachedPlan>, ApiError>;

/// Which partitioner a request selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// The paper's level-by-level hierarchical DP (default).
    Hierarchical,
    /// The single-level DP over all workers (Table-1 style configs).
    Flat,
}

impl PlanMode {
    fn as_str(self) -> &'static str {
        match self {
            PlanMode::Hierarchical => "hierarchical",
            PlanMode::Flat => "flat",
        }
    }
}

/// A fully resolved planning target: everything the partitioner needs.
pub struct PlanTarget {
    /// The model profile (zoo or inline).
    pub profile: Arc<ModelProfile>,
    /// The cluster (preset or inline).
    pub topo: Arc<Topology>,
    /// Per-GPU minibatch size.
    pub batch: usize,
    /// Arithmetic precision.
    pub precision: Precision,
    /// Which partitioner to run.
    pub mode: PlanMode,
    /// Optional per-worker memory budget.
    pub memory_limit: Option<u64>,
    /// Execution schedule the memory model assumes.
    pub schedule: ScheduleKind,
}

fn parse_body(body: &[u8]) -> Result<Value, ApiError> {
    let text =
        std::str::from_utf8(body).map_err(|_| ApiError::bad_request("body is not valid UTF-8"))?;
    if text.trim().is_empty() {
        return Err(ApiError::bad_request("empty body; expected a JSON object"));
    }
    let v: Value = serde_json::from_str(text)
        .map_err(|e| ApiError::bad_request(format!("invalid JSON: {e}")))?;
    if !v.is_object() {
        return Err(ApiError::bad_request("body must be a JSON object"));
    }
    Ok(v)
}

/// The zoo profile a model name selects, built once per process: the
/// memo is keyed by the lowercased name and stores only names
/// `zoo::by_name` accepts, so it holds at most one entry per zoo alias.
fn zoo_profile(name: &str) -> Option<Arc<ModelProfile>> {
    static MEMO: OnceLock<Mutex<HashMap<String, Arc<ModelProfile>>>> = OnceLock::new();
    const HELD: &str = "the zoo memo's lock holders cannot panic";
    let memo = MEMO.get_or_init(Default::default);
    let key = name.to_ascii_lowercase();
    if let Some(profile) = memo.lock().expect(HELD).get(&key) {
        return Some(Arc::clone(profile));
    }
    let profile = Arc::new(zoo::by_name(&key)?);
    Some(Arc::clone(
        memo.lock().expect(HELD).entry(key).or_insert(profile),
    ))
}

fn resolve_profile(body: &Value) -> Result<Arc<ModelProfile>, ApiError> {
    if let Some(inline) = body.get("profile") {
        return ModelProfile::from_value(inline)
            .map(Arc::new)
            .map_err(|e| ApiError::bad_request(format!("bad inline profile: {e}")));
    }
    match body.get("model") {
        Some(v) => {
            let name = v
                .as_str()
                .ok_or_else(|| ApiError::bad_request("\"model\" must be a string"))?;
            zoo_profile(name).ok_or_else(|| {
                ApiError::bad_request(format!(
                    "unknown model {name:?} (try vgg16, resnet50, alexnet, gnmt8, gnmt16, \
                     awd-lm, s2vt, or pass an inline \"profile\")"
                ))
            })
        }
        None => Err(ApiError::bad_request(
            "request needs \"model\" (zoo name) or \"profile\" (inline profile object)",
        )),
    }
}

/// The topology a preset selects at `servers` servers, built once per
/// process. `servers` is validated to 1..=1024 before it gets here, so the
/// memo holds at most 3 × 1024 entries.
fn preset_topology(preset: ClusterPreset, servers: usize) -> Arc<Topology> {
    type Memo = Mutex<HashMap<(ClusterPreset, usize), Arc<Topology>>>;
    static MEMO: OnceLock<Memo> = OnceLock::new();
    const HELD: &str = "the topology memo's lock holders cannot panic";
    let memo = MEMO.get_or_init(Default::default);
    if let Some(topo) = memo.lock().expect(HELD).get(&(preset, servers)) {
        return Arc::clone(topo);
    }
    let topo = Arc::new(preset.with_servers(servers));
    Arc::clone(
        memo.lock()
            .expect(HELD)
            .entry((preset, servers))
            .or_insert(topo),
    )
}

fn resolve_topology(body: &Value) -> Result<Arc<Topology>, ApiError> {
    if let Some(inline) = body.get("topology") {
        return Topology::from_value(inline)
            .map(Arc::new)
            .map_err(|e| ApiError::bad_request(format!("bad inline topology: {e}")));
    }
    let preset = match body.get("preset") {
        None => ClusterPreset::A,
        Some(v) => match v.as_str().map(str::to_ascii_lowercase).as_deref() {
            Some("a") => ClusterPreset::A,
            Some("b") => ClusterPreset::B,
            Some("c") => ClusterPreset::C,
            _ => {
                return Err(ApiError::bad_request(
                    "\"preset\" must be \"a\", \"b\", or \"c\"",
                ))
            }
        },
    };
    let servers = match body.get("servers") {
        None => 4,
        Some(v) => v
            .as_u64()
            .filter(|n| (1..=1024).contains(n))
            .ok_or_else(|| ApiError::bad_request("\"servers\" must be an integer in 1..=1024"))?
            as usize,
    };
    Ok(preset_topology(preset, servers))
}

/// Parse the shared target fields of a request body.
pub fn parse_target(body: &Value) -> Result<PlanTarget, ApiError> {
    let profile = resolve_profile(body)?;
    let topo = resolve_topology(body)?;
    let batch = match body.get("batch") {
        None => profile.default_batch,
        Some(v) => v
            .as_u64()
            .filter(|&n| n >= 1)
            .ok_or_else(|| ApiError::bad_request("\"batch\" must be a positive integer"))?
            as usize,
    };
    let precision = match body.get("precision") {
        None => Precision::Fp32,
        Some(v) => match v.as_str() {
            Some("fp32") => Precision::Fp32,
            Some("fp16") => Precision::Fp16,
            _ => {
                return Err(ApiError::bad_request(
                    "\"precision\" must be \"fp32\" or \"fp16\"",
                ))
            }
        },
    };
    let mode = match body.get("mode") {
        None => PlanMode::Hierarchical,
        Some(v) => match v.as_str() {
            Some("hierarchical") => PlanMode::Hierarchical,
            Some("flat") => PlanMode::Flat,
            _ => {
                return Err(ApiError::bad_request(
                    "\"mode\" must be \"hierarchical\" or \"flat\"",
                ))
            }
        },
    };
    let memory_limit = match body.get("memory_limit_bytes") {
        None => None,
        Some(v) => Some(v.as_u64().filter(|&n| n >= 1).ok_or_else(|| {
            ApiError::bad_request("\"memory_limit_bytes\" must be a positive integer")
        })?),
    };
    let schedule = match body.get("schedule") {
        None => ScheduleKind::Vanilla1F1B,
        Some(v) => v.as_str().and_then(ScheduleKind::parse).ok_or_else(|| {
            ApiError::bad_request(
                "\"schedule\" must be \"vanilla\", \"2bw\", \"recompute\", or \
                     \"2bw-recompute\"",
            )
        })?,
    };
    Ok(PlanTarget {
        profile,
        topo,
        batch,
        precision,
        mode,
        memory_limit,
        schedule,
    })
}

fn parse_config(body: &Value, key: &str) -> Result<Option<PipelineConfig>, ApiError> {
    let Some(v) = body.get(key) else {
        return Ok(None);
    };
    let rows = v.as_array().ok_or_else(|| {
        ApiError::bad_request(format!(
            "\"{key}\" must be an array of [first_layer, last_layer, replicas] triples"
        ))
    })?;
    let mut stages = Vec::with_capacity(rows.len());
    for row in rows {
        let triple = row.as_array().filter(|t| t.len() == 3).ok_or_else(|| {
            ApiError::bad_request(format!(
                "each \"{key}\" stage must be a [first_layer, last_layer, replicas] triple"
            ))
        })?;
        let nums: Vec<u64> = triple
            .iter()
            .map(|x| x.as_u64())
            .collect::<Option<_>>()
            .ok_or_else(|| {
                ApiError::bad_request(format!(
                    "\"{key}\" stage fields must be non-negative integers"
                ))
            })?;
        if nums[1] < nums[0] {
            return Err(ApiError::bad_request(format!(
                "stage last_layer {} precedes first_layer {}",
                nums[1], nums[0]
            )));
        }
        if nums[2] == 0 {
            return Err(ApiError::bad_request("stage replicas must be >= 1"));
        }
        stages.push(StagePlan::new(
            nums[0] as usize,
            nums[1] as usize,
            nums[2] as usize,
        ));
    }
    // Pre-check what `PipelineConfig::new` would assert, so wire input
    // yields a 400 instead of a panic.
    if stages.is_empty() {
        return Err(ApiError::bad_request(format!(
            "\"{key}\" needs at least one stage"
        )));
    }
    if stages[0].first_layer != 0 {
        return Err(ApiError::bad_request("stage 0 must start at layer 0"));
    }
    for w in stages.windows(2) {
        if w[1].first_layer != w[0].last_layer + 1 {
            return Err(ApiError::bad_request(format!(
                "stages must cover consecutive layers: {}..{} then {}..{}",
                w[0].first_layer, w[0].last_layer, w[1].first_layer, w[1].last_layer
            )));
        }
    }
    Ok(Some(PipelineConfig::new(stages)))
}

fn run_planner(target: &PlanTarget) -> Result<Plan, ApiError> {
    let mut planner = Planner::with_options(
        &target.profile,
        &target.topo,
        target.batch,
        target.precision,
    );
    if let Some(bytes) = target.memory_limit {
        planner = planner.with_memory_limit(bytes);
    }
    planner = planner.with_schedule(target.schedule);
    let plan = match target.mode {
        PlanMode::Hierarchical => planner.try_plan(),
        PlanMode::Flat => planner.try_plan_flat(),
    }?;
    Ok(plan)
}

fn fingerprint(target: &PlanTarget) -> Result<u64, ApiError> {
    fingerprint_plan_request(
        &target.profile,
        &target.topo,
        target.batch,
        target.precision,
        target.mode.as_str(),
        target.memory_limit,
        target.schedule,
    )
    .map_err(|e| ApiError::bad_request(e.to_string()))
}

fn json(v: impl serde::Serialize) -> Result<Value, ApiError> {
    serde_json::to_value(&v).map_err(|e| ApiError {
        status: 500,
        message: format!("response serialization failed: {e}"),
    })
}

/// The rendered plan for `target` under `key`, and whether this call ran
/// the DP (false = cache hit or coalesced onto a concurrent request).
fn cached_plan(
    cache: &PlanCache,
    key: u64,
    target: &PlanTarget,
) -> Result<(Arc<CachedPlan>, bool), ApiError> {
    let mut computed = false;
    let plan = cache.get_or_compute(key, || {
        computed = true;
        CachedPlan::render(run_planner(target)?).map(Arc::new)
    })?;
    Ok((plan, computed))
}

/// `POST /plan`: partition the model, memoized through `cache`.
///
/// Returns the response body, a JSON object with the keys `fingerprint`,
/// `cached`, `label`, `mode` and `plan` in that order, plus whether the DP
/// actually ran in this request (false = cache hit or coalesced onto a
/// concurrent request). The body is spliced from the cached renderings,
/// so a hit builds no tree and prints no plan.
pub fn handle_plan(cache: &PlanCache, body: &[u8]) -> Result<(String, bool), ApiError> {
    let req = parse_body(body)?;
    let target = parse_target(&req)?;
    let key = fingerprint(&target)?;
    let (plan, computed) = cached_plan(cache, key, &target)?;
    let body = format!(
        "{{\"fingerprint\":\"{key:016x}\",\"cached\":{},\"label\":{},\"mode\":\"{}\",\"plan\":{}}}",
        !computed,
        plan.label_json,
        target.mode.as_str(),
        plan.plan_json,
    );
    Ok((body, computed))
}

/// `POST /simulate`: run the discrete-event simulator for the requested
/// (or planned) configuration and summarize.
pub fn handle_simulate(cache: &PlanCache, body: &[u8]) -> Result<Value, ApiError> {
    let req = parse_body(body)?;
    let target = parse_target(&req)?;
    let config = match parse_config(&req, "config")? {
        Some(c) => c,
        None => {
            // No explicit config: plan one (through the cache — the DP
            // dominates, the simulation itself is the cheap part).
            let key = fingerprint(&target)?;
            cached_plan(cache, key, &target)?.0.plan.config.clone()
        }
    };
    let minibatches = match req.get("minibatches") {
        None => 4 * config.num_stages().max(1) as u64,
        Some(v) => v
            .as_u64()
            .filter(|n| (1..=10_000).contains(n))
            .ok_or_else(|| {
                ApiError::bad_request("\"minibatches\" must be an integer in 1..=10000")
            })?,
    };
    let planner = Planner::with_options(
        &target.profile,
        &target.topo,
        target.batch,
        target.precision,
    );
    planner.try_evaluate(&config)?; // typed 400 on config/model mismatch
    let schedule = Schedule::one_f_one_b(&config, minibatches);
    let sim = simulate_pipeline(planner.costs(), &target.topo, &schedule);
    let mut out = Map::new();
    out.insert("label".into(), Value::String(config.label()));
    out.insert("minibatches".into(), Value::Uint(minibatches));
    out.insert("makespan_s".into(), Value::Float(sim.makespan));
    out.insert("per_minibatch_s".into(), Value::Float(sim.per_minibatch_s));
    out.insert("samples_per_sec".into(), Value::Float(sim.samples_per_sec));
    out.insert("comm_bytes".into(), Value::Uint(sim.comm_bytes));
    out.insert(
        "mean_utilization".into(),
        Value::Float(sim.mean_utilization),
    );
    out.insert(
        "peak_memory_bytes".into(),
        Value::Uint(sim.peak_memory_bytes.iter().copied().max().unwrap_or(0)),
    );
    Ok(Value::Object(out))
}

/// `POST /validate`: check a caller-provided configuration against the
/// model and return the planner's prediction for it. A *mismatched*
/// configuration is a successful validation with `valid: false`; only a
/// malformed request is a 400.
pub fn handle_validate(body: &[u8]) -> Result<Value, ApiError> {
    let req = parse_body(body)?;
    let target = parse_target(&req)?;
    let config = parse_config(&req, "config")?
        .ok_or_else(|| ApiError::bad_request("\"config\" is required for /validate"))?;
    let planner = Planner::with_options(
        &target.profile,
        &target.topo,
        target.batch,
        target.precision,
    );
    let mut out = Map::new();
    out.insert("label".into(), Value::String(config.label()));
    match planner.try_evaluate(&config) {
        Ok(plan) => {
            out.insert("valid".into(), Value::Bool(true));
            out.insert("plan".into(), json(&plan)?);
        }
        Err(e @ (PlanError::InvalidConfig(_) | PlanError::MemoryInfeasible { .. })) => {
            out.insert("valid".into(), Value::Bool(false));
            out.insert("reason".into(), Value::String(e.to_string()));
        }
        Err(e) => return Err(e.into()), // degenerate profile/topology → 400
    }
    Ok(Value::Object(out))
}

/// Render an [`ApiError`] as its JSON body.
pub fn error_body(err: &ApiError) -> String {
    let mut out = Map::new();
    out.insert("error".into(), Value::String(err.message.clone()));
    out.insert("status".into(), Value::Uint(err.status as u64));
    serde_json::to_string(&Value::Object(out)).unwrap_or_else(|_| "{\"error\":\"?\"}".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> PlanCache {
        ShardedLruCache::new(32, 4)
    }

    /// `handle_plan`'s body, parsed.
    fn post_plan(cache: &PlanCache, body: &[u8]) -> Result<(Value, bool), ApiError> {
        let (text, computed) = handle_plan(cache, body)?;
        Ok((serde_json::from_str(&text).unwrap(), computed))
    }

    #[test]
    fn plan_round_trip_and_cache_hit() {
        let cache = cache();
        let body = br#"{"model": "vgg16", "preset": "a", "servers": 4, "mode": "flat"}"#;
        let (v1, computed1) = post_plan(&cache, body).unwrap();
        let (v2, computed2) = post_plan(&cache, body).unwrap();
        assert!(computed1, "first request runs the DP");
        assert!(!computed2, "second request hits the cache");
        assert_eq!(v1.get("label"), v2.get("label"));
        assert_eq!(v2.get("cached"), Some(&Value::Bool(true)));
        let plan = v1.get("plan").unwrap();
        assert!(plan.get("samples_per_sec").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn bad_requests_are_400_not_panics() {
        let cache = cache();
        for body in [
            &b"not json"[..],
            br#"{"model": "nonexistent-model"}"#,
            br#"{"model": "vgg16", "servers": 0}"#,
            br#"{"model": "vgg16", "batch": 0}"#,
            br#"{"model": "vgg16", "precision": "fp8"}"#,
            br#"{"model": "vgg16", "mode": "quantum"}"#,
            br#"{"model": "vgg16", "schedule": "3bw"}"#,
            br#"{"model": "vgg16", "memory_limit_bytes": 0}"#,
            br#"{}"#,
            br#"[1, 2, 3]"#,
        ] {
            let err = handle_plan(&cache, body).unwrap_err();
            assert_eq!(err.status, 400, "{}", err.message);
        }
        // The greedy baseline is an ablation, not a service mode.
        let err = handle_plan(&cache, br#"{"model": "vgg16", "mode": "greedy"}"#).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(
            err.message.contains("\"hierarchical\"") && err.message.contains("\"flat\""),
            "{}",
            err.message
        );
    }

    #[test]
    fn a_zoo_name_resolves_to_one_profile_per_process() {
        let profile = zoo_profile("gnmt-16").unwrap();
        assert_eq!(*profile, zoo::gnmt16());
        assert!(Arc::ptr_eq(&profile, &zoo_profile("GNMT-16").unwrap()));
        assert!(zoo_profile("gnmt-17").is_none());
    }

    #[test]
    fn a_preset_resolves_to_one_topology_per_process() {
        let body = |text: &str| serde_json::from_str::<Value>(text).unwrap();
        let topo = resolve_topology(&body(r#"{"preset": "b", "servers": 3}"#)).unwrap();
        assert_eq!(*topo, ClusterPreset::B.with_servers(3));
        let again = resolve_topology(&body(r#"{"preset": "B", "servers": 3}"#)).unwrap();
        assert!(Arc::ptr_eq(&topo, &again));
        let other = resolve_topology(&body(r#"{"preset": "b", "servers": 4}"#)).unwrap();
        assert_eq!(*other, ClusterPreset::B.with_servers(4));
    }

    #[test]
    fn inline_profile_plans_and_fingerprints_like_the_zoo() {
        // JSON cannot carry NaN, so a wire profile is NaN-free by
        // construction (the fingerprint layer's NaN rejection guards the
        // in-process path; see core's fingerprint tests). What the wire
        // must guarantee: an inline profile identical to a zoo model
        // canonicalizes to the same fingerprint and hits its cache entry.
        let cache = cache();
        let profile_json = serde_json::to_string(&zoo::alexnet()).unwrap();
        let inline = format!("{{\"profile\": {profile_json}, \"servers\": 1}}");
        let (v1, computed1) = post_plan(&cache, inline.as_bytes()).unwrap();
        let (v2, computed2) = post_plan(&cache, br#"{"model": "alexnet", "servers": 1}"#).unwrap();
        assert!(
            computed1 && !computed2,
            "inline and zoo share the cache key"
        );
        assert_eq!(v1.get("fingerprint"), v2.get("fingerprint"));
        assert_eq!(v1.get("plan"), v2.get("plan"));
    }

    #[test]
    fn schedule_keys_the_cache_and_relaxes_memory_limits() {
        let cache = cache();
        // Same target, different schedules → distinct cache entries.
        let vanilla = br#"{"model": "alexnet", "servers": 1}"#;
        let two_bw = br#"{"model": "alexnet", "servers": 1, "schedule": "2bw"}"#;
        let (v1, c1) = post_plan(&cache, vanilla).unwrap();
        let (v2, c2) = post_plan(&cache, two_bw).unwrap();
        assert!(c1 && c2, "different schedules must not share a cache key");
        assert_ne!(v1.get("fingerprint"), v2.get("fingerprint"));

        // huge-lm under a tight budget: vanilla stashing is infeasible,
        // 2BW + recomputation plans fine.
        let tight = br#"{"model": "huge-lm", "preset": "a", "servers": 4, "mode": "flat",
                         "memory_limit_bytes": 4294967296}"#;
        let err = handle_plan(&cache, tight).unwrap_err();
        assert_eq!(err.status, 400, "{}", err.message);
        assert!(err.message.contains("memory"), "{}", err.message);
        let relaxed = br#"{"model": "huge-lm", "preset": "a", "servers": 4, "mode": "flat",
                           "memory_limit_bytes": 4294967296,
                           "schedule": "2bw-recompute"}"#;
        let (v, _) = post_plan(&cache, relaxed).unwrap();
        assert!(v.get("plan").is_some());
    }

    #[test]
    fn simulate_summarizes_throughput() {
        let cache = cache();
        let body = br#"{"model": "alexnet", "preset": "a", "servers": 2, "minibatches": 8}"#;
        let v = handle_simulate(&cache, body).unwrap();
        assert!(v.get("samples_per_sec").unwrap().as_f64().unwrap() > 0.0);
        assert!(v.get("makespan_s").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(v.get("minibatches"), Some(&Value::Uint(8)));
        // The implicit plan went through the cache.
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn validate_accepts_and_rejects_configs() {
        // alexnet has 8 profiled layers on preset A.
        let ok_body = br#"{"model": "alexnet", "preset": "a", "servers": 1,
                           "config": [[0, 3, 2], [4, 7, 2]]}"#;
        let v = handle_validate(ok_body).unwrap();
        assert_eq!(v.get("valid"), Some(&Value::Bool(true)));
        assert_eq!(v.get("label").unwrap().as_str(), Some("2-2"));

        // Covers 6 layers of an 8-layer model → valid: false, not a 400.
        let mismatched = br#"{"model": "alexnet", "preset": "a", "servers": 1,
                              "config": [[0, 5, 4]]}"#;
        let v = handle_validate(mismatched).unwrap();
        assert_eq!(v.get("valid"), Some(&Value::Bool(false)));
        assert!(v
            .get("reason")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("layers"));

        // Structurally broken config → 400.
        let broken = br#"{"model": "alexnet", "config": [[2, 5, 1]]}"#;
        assert_eq!(handle_validate(broken).unwrap_err().status, 400);
        let gap = br#"{"model": "alexnet", "config": [[0, 2, 1], [4, 7, 1]]}"#;
        assert_eq!(handle_validate(gap).unwrap_err().status, 400);
    }
}
