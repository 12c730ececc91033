//! Cache correctness at the protocol level.
//!
//! The load-bearing property of a memoizing planner: a cache *hit* must
//! be indistinguishable from a cold computation — byte-identical response
//! JSON — across the whole request space (model × preset × servers ×
//! batch × mode × precision), and both must be the bytes a response
//! printed from one JSON tree reads. Plus the concurrency guarantee the
//! serving layer leans on: N racing requests for one cold key run the DP
//! once.

use pipedream_core::{fingerprint_plan_request, Plan};
use pipedream_model::zoo;
use pipedream_serve::cache::ShardedLruCache;
use pipedream_serve::protocol::{handle_plan, parse_target, PlanCache};
use pipedream_serve::PlanMode;
use proptest::prelude::*;
use serde::Value;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

fn fresh_cache() -> PlanCache {
    ShardedLruCache::new(64, 4)
}

/// `handle_plan`'s body, parsed.
fn plan_value(cache: &PlanCache, body: &[u8]) -> (Value, bool) {
    let (text, computed) = handle_plan(cache, body).unwrap();
    (serde_json::from_str(&text).unwrap(), computed)
}

/// Serialize the response with the `cached` marker (the only legitimate
/// difference between a cold and warm answer) stripped.
fn canonical_response(v: &Value) -> String {
    let mut out = serde_json::Map::new();
    for (k, val) in v.as_object().expect("response is an object").iter() {
        if k != "cached" {
            out.insert(k.clone(), val.clone());
        }
    }
    serde_json::to_string(&Value::Object(out)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn warm_hit_is_byte_identical_to_cold_compute(
        model_i in 0usize..4,
        preset_i in 0usize..3,
        servers in 1usize..4,
        batch_shift in 0u32..3,
        mode_i in 0usize..2,
        fp16 in any::<bool>(),
    ) {
        // alexnet-sized models keep the DP fast enough for 48 cases on
        // one core; vgg16/resnet are covered by the unit tests.
        let model = ["alexnet", "awd-lm", "s2vt", "gnmt8"][model_i];
        let preset = ["a", "b", "c"][preset_i];
        let mode = ["hierarchical", "flat"][mode_i];
        let batch = 16u64 << batch_shift;
        let precision = if fp16 { "fp16" } else { "fp32" };
        let body = format!(
            "{{\"model\":\"{model}\",\"preset\":\"{preset}\",\"servers\":{servers},\
             \"batch\":{batch},\"mode\":\"{mode}\",\"precision\":\"{precision}\"}}"
        );

        // Cold compute in one cache, warm hit in the same cache, and an
        // independent cold compute in a second cache: all three agree.
        let cache_a = fresh_cache();
        let (cold, computed_cold) = plan_value(&cache_a, body.as_bytes());
        let (warm, computed_warm) = plan_value(&cache_a, body.as_bytes());
        let cache_b = fresh_cache();
        let (cold2, _) = plan_value(&cache_b, body.as_bytes());

        prop_assert!(computed_cold, "first request must run the DP");
        prop_assert!(!computed_warm, "second request must hit");
        prop_assert_eq!(canonical_response(&cold), canonical_response(&warm));
        prop_assert_eq!(canonical_response(&cold), canonical_response(&cold2));
        prop_assert_eq!(warm.get("cached"), Some(&Value::Bool(true)));
    }
}

/// The `/plan` body as one JSON tree prints it: a `Map` in the
/// response's key order with the plan lowered by `to_value`.
fn tree_rendering(key: u64, cached: bool, mode: &str, plan: &Plan) -> String {
    let mut out = serde_json::Map::new();
    out.insert("fingerprint".into(), Value::String(format!("{key:016x}")));
    out.insert("cached".into(), Value::Bool(cached));
    out.insert("label".into(), Value::String(plan.config.label()));
    out.insert("mode".into(), Value::String(mode.into()));
    out.insert("plan".into(), serde_json::to_value(plan).unwrap());
    serde_json::to_string(&Value::Object(out)).unwrap()
}

#[test]
fn spliced_bodies_match_the_tree_rendering() {
    // Every serve-mixed key, then an inline profile equal to a zoo model
    // and the knobs that key space leaves at their defaults.
    let mut requests = Vec::new();
    for model in [
        "vgg16", "resnet50", "alexnet", "gnmt16", "gnmt8", "awd-lm", "s2vt", "huge-lm",
    ] {
        for preset in ["a", "b"] {
            for servers in 1..=4 {
                for mode in ["hierarchical", "flat"] {
                    for schedule in ["vanilla", "2bw"] {
                        requests.push(format!(
                            "{{\"model\":\"{model}\",\"preset\":\"{preset}\",\"servers\":{servers},\
                             \"mode\":\"{mode}\",\"schedule\":\"{schedule}\"}}"
                        ));
                    }
                }
            }
        }
    }
    assert_eq!(requests.len(), 256);
    let vgg16 = serde_json::to_string(&zoo::vgg16()).unwrap();
    requests.push(format!("{{\"profile\":{vgg16},\"servers\":2}}"));
    requests.extend(
        [
            r#"{"model":"gnmt8","preset":"b","servers":2,"precision":"fp16"}"#,
            r#"{"model":"resnet50","servers":3,"mode":"flat","batch":7}"#,
            r#"{"model":"vgg16","servers":2,"memory_limit_bytes":17179869184}"#,
            r#"{"model":"huge-lm","servers":4,"mode":"flat","memory_limit_bytes":4294967296,
                "schedule":"2bw-recompute"}"#,
        ]
        .map(String::from),
    );

    for request in &requests {
        let cache = fresh_cache();
        let (cold, computed) = handle_plan(&cache, request.as_bytes()).unwrap();
        let (warm, recomputed) = handle_plan(&cache, request.as_bytes()).unwrap();
        assert!(computed && !recomputed, "{request}");

        let target = parse_target(&serde_json::from_str(request).unwrap()).unwrap();
        let mode = match target.mode {
            PlanMode::Hierarchical => "hierarchical",
            PlanMode::Flat => "flat",
        };
        let key = fingerprint_plan_request(
            &target.profile,
            &target.topo,
            target.batch,
            target.precision,
            mode,
            target.memory_limit,
            target.schedule,
        )
        .unwrap();
        let resident = cache
            .get_or_compute(key, || panic!("{request} is not resident"))
            .unwrap();
        assert_eq!(
            cold,
            tree_rendering(key, false, mode, resident.plan()),
            "{request}"
        );
        assert_eq!(
            warm,
            tree_rendering(key, true, mode, resident.plan()),
            "{request}"
        );
    }
}

#[test]
fn churn_never_exceeds_the_size_bound() {
    // 200 distinct keys through a 16-entry cache: residency stays under
    // the bound and the eviction counter accounts for every discard.
    let cache: ShardedLruCache<Vec<u8>, ()> = ShardedLruCache::new(16, 4);
    for round in 0..4u64 {
        for key in 0..50u64 {
            let k = round * 1000 + key;
            cache.get_or_compute(k, || Ok(vec![k as u8; 64])).unwrap();
            assert!(
                cache.len() <= cache.capacity(),
                "round {round} key {key}: {} entries > bound {}",
                cache.len(),
                cache.capacity()
            );
        }
    }
    let s = cache.stats();
    assert_eq!(s.misses, 200);
    assert_eq!(s.evictions, s.misses - cache.len() as u64);
}

#[test]
fn concurrent_same_key_requests_run_the_dp_once() {
    // The coalescing proof at the protocol layer: 6 threads fire the
    // same cold /plan request; the `computed` flag (true exactly when
    // this request's closure ran the DP) must be set once.
    let cache: Arc<PlanCache> = Arc::new(fresh_cache());
    let dp_runs = Arc::new(AtomicUsize::new(0));
    let body = br#"{"model": "vgg16", "preset": "a", "servers": 4, "mode": "flat"}"#;
    let threads: Vec<_> = (0..6)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let dp_runs = Arc::clone(&dp_runs);
            thread::spawn(move || {
                let (v, computed) = plan_value(&cache, body);
                if computed {
                    dp_runs.fetch_add(1, Ordering::Relaxed);
                }
                serde_json::to_string(v.get("plan").unwrap()).unwrap()
            })
        })
        .collect();
    let answers: Vec<String> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    assert_eq!(
        dp_runs.load(Ordering::Relaxed),
        1,
        "exactly one DP execution for one in-flight key"
    );
    assert!(
        answers.windows(2).all(|w| w[0] == w[1]),
        "every caller got the same plan"
    );
    let s = cache.stats();
    assert_eq!(s.misses, 1);
    assert_eq!(s.hits + s.coalesced, 5);
}
