//! Which replication patterns `Schedule::stuck` refuses, pinned.
//!
//! Every pattern of 1–4 stages on 1–4 replicas each (340 in all), one
//! layer per stage, under `one_f_one_b` with the largest multiple of the
//! replica lcm up to 64 minibatches, one update per backward. The 1F1B-RR
//! generator does not know the gradient-sync round that couples a
//! replicated stage's updates, so these patterns schedule an op that can
//! never start. A sync-aware generator shrinks the list; it should reach
//! zero.

use pipedream_core::schedule::{Schedule, UpdateRule};
use pipedream_core::PipelineConfig;

/// The refused patterns, in sweep order (fewest stages first).
const REFUSED: [&str; 38] = [
    "2-3-4", "3-2-4", "3-4-4", "1-2-3-3", "1-3-1-4", "1-3-2-2", "1-3-2-4", "1-4-2-2", "1-4-2-3",
    "1-4-2-4", "1-4-3-2", "1-4-3-3", "1-4-3-4", "2-2-3-3", "2-2-3-4", "2-3-2-3", "2-3-3-3",
    "2-3-3-4", "2-3-4-3", "2-3-4-4", "2-4-2-3", "2-4-3-3", "2-4-3-4", "3-2-3-3", "3-2-3-4",
    "3-2-4-3", "3-3-2-4", "3-3-4-4", "3-4-1-2", "3-4-1-3", "3-4-1-4", "3-4-3-4", "3-4-4-4",
    "4-2-3-3", "4-2-4-3", "4-3-2-4", "4-3-4-2", "4-3-4-4",
];

#[test]
fn the_refused_replication_patterns_are_pinned() {
    let mut refused = Vec::new();
    let mut patterns = 0;
    for stages in 1..=4u32 {
        for code in 0..4usize.pow(stages) {
            let replicas: Vec<usize> = (0..stages)
                .map(|i| code / 4usize.pow(stages - 1 - i) % 4 + 1)
                .collect();
            let counts: Vec<(usize, usize)> = replicas.iter().map(|&r| (1, r)).collect();
            let config = PipelineConfig::from_counts(&counts);
            let minibatches = 64 - 64 % config.replica_lcm();
            let schedule = Schedule::one_f_one_b(&config, minibatches);
            patterns += 1;
            if !schedule.stuck(UpdateRule::EveryBackward).is_empty() {
                let names: Vec<String> = replicas.iter().map(usize::to_string).collect();
                refused.push(names.join("-"));
            }
        }
    }
    assert_eq!(patterns, 340);
    assert_eq!(refused, REFUSED, "{} refused", refused.len());
}
