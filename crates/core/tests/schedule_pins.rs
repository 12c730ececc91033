//! Every static op list the 1F1B-RR generator emits, pinned.
//!
//! `schedule_pins.tsv` holds one row per generated schedule: the variant,
//! the replication pattern (one layer per stage, replica counts joined by
//! `-`), the minibatch count, the total op count and an FNV-1a hash of
//! every worker's `(worker, stage, replica, ops)`. The rows cover straight
//! pipelines of 1–16 stages; rising, falling and ragged replication,
//! including the patterns whose op lists the trainer refuses as stuck;
//! every constructor the generator serves (`1f1b`, `mp`, `fwd` for
//! `forward_priority`, `dN` for `with_depth(N)` with `N` from 1 to NOAM+2);
//! and minibatch counts that are and are not multiples of the replica lcm.

use pipedream_core::schedule::{Op, Schedule};
use pipedream_core::PipelineConfig;

const PINS: &str = include_str!("schedule_pins.tsv");

/// FNV-1a over every worker's identity and op list.
fn fingerprint(s: &Schedule) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for w in &s.workers {
        eat(w.worker as u64);
        eat(w.stage as u64);
        eat(w.replica as u64);
        eat(w.ops.len() as u64);
        for op in &w.ops {
            match *op {
                Op::Forward { mb } => (eat(0), eat(mb)),
                Op::Backward { mb } => (eat(1), eat(mb)),
                Op::Flush => (eat(2), ()),
            };
        }
    }
    h
}

fn patterns() -> Vec<Vec<usize>> {
    let mut patterns: Vec<Vec<usize>> = (1..=16).map(|s| vec![1; s]).collect();
    for p in [
        // Rising; the first five are the stuck patterns.
        &[1, 2][..],
        &[1, 3],
        &[2, 4],
        &[1, 1, 2],
        &[1, 2, 2],
        &[1, 4],
        &[1, 2, 3],
        &[1, 1, 1, 2],
        // Falling.
        &[2, 1],
        &[3, 1],
        &[4, 1],
        &[15, 1],
        &[4, 2],
        &[2, 1, 1],
        &[3, 2, 1],
        &[4, 2, 1],
        &[2, 2, 1],
        // Ragged.
        &[1, 2, 1],
        &[2, 1, 2],
        &[3, 1, 2],
        &[2, 3, 1],
        &[1, 3, 1, 2],
        &[2, 1, 3, 1],
        &[3, 2, 2, 1, 1],
        // Data parallel.
        &[2],
        &[4],
    ] {
        patterns.push(p.to_vec());
    }
    patterns
}

fn table() -> String {
    let mut out = String::new();
    for replicas in patterns() {
        let counts: Vec<(usize, usize)> = replicas.iter().map(|&r| (1, r)).collect();
        let config = PipelineConfig::from_counts(&counts);
        let label = replicas
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join("-");
        let lcm = config.replica_lcm();
        for n in [1, 4 * lcm, 12 * lcm + 1] {
            let mut variants = vec![
                ("1f1b".to_string(), Schedule::one_f_one_b(&config, n)),
                ("mp".to_string(), Schedule::model_parallel(&config, n)),
                ("fwd".to_string(), Schedule::forward_priority(&config, n)),
            ];
            for depth in 1..=config.noam() + 2 {
                let s = Schedule::with_depth(&config, n, depth);
                variants.push((format!("d{depth}"), s));
            }
            for (variant, s) in variants {
                let ops: usize = s.workers.iter().map(|w| w.ops.len()).sum();
                out.push_str(&format!(
                    "{variant}\t{label}\t{n}\t{ops}\t{:016x}\n",
                    fingerprint(&s)
                ));
            }
        }
    }
    out
}

#[test]
fn generated_schedules_match_their_pins() {
    let table = table();
    for (got, want) in table.lines().zip(PINS.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(table.lines().count(), PINS.lines().count());
}
