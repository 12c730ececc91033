//! `pipedream inspect --from-trace` and `pipedream analyze` read the same
//! attribution: on one recorded straggler trace, the busy / comm / bubble
//! percentages the inspect table prints are the grouped per-cause seconds
//! of `analyze --json`, stage by stage.

use pipedream_cli::{parse, run};
use pipedream_obs::{BubbleCause, CauseGroup, CriticalPathReport};

fn run_line(line: &str) -> String {
    let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
    run(parse(&argv).expect("parses")).unwrap_or_else(|e| panic!("`{line}`: {e}"))
}

#[test]
fn inspect_percentages_are_analyze_causes_grouped() {
    let dir = std::env::temp_dir().join(format!("pd-inspect-agrees-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("straggler.json");
    run_line(&format!(
        "train --stages 3 --epochs 3 --fault straggle:stage=1,ms=3 --trace {}",
        trace.display()
    ));
    let table = run_line(&format!("inspect --from-trace {}", trace.display()));
    let json = run_line(&format!("analyze {} --json", trace.display()));
    std::fs::remove_dir_all(&dir).unwrap();

    let doc: serde_json::Value = serde_json::from_str(&json).expect("analyze --json parses");
    let report: CriticalPathReport =
        serde_json::from_value(doc.get("report").expect("has a report").clone())
            .expect("report deserializes");
    assert_eq!(report.per_stage.len(), 3);
    // The straggler's stall must be visible, or the test compares nothing.
    assert!(report.per_stage[1].breakdown.backpressure_s > 0.0);

    // Table rows: stage mbs mean/mb p50 p99 busy% comm% bubble%.
    let rows: Vec<Vec<f64>> = table
        .lines()
        .filter_map(|l| l.split_whitespace().map(|c| c.parse().ok()).collect())
        .filter(|r: &Vec<f64>| r.len() == 8)
        .collect();
    assert_eq!(rows.len(), report.per_stage.len(), "{table}");
    for (row, st) in rows.iter().zip(&report.per_stage) {
        assert_eq!(row[0] as usize, st.stage);
        assert_eq!(row[1] as u64, st.minibatches);
        let denom = report.wall_s * st.tracks as f64;
        let pct = |g: CauseGroup| {
            let group = BubbleCause::ALL.iter().filter(|c| c.group() == g);
            group.map(|&c| st.breakdown.get(c)).sum::<f64>() / denom * 100.0
        };
        let grouped = [
            pct(CauseGroup::Busy),
            pct(CauseGroup::Comm),
            pct(CauseGroup::Bubble),
        ];
        for (printed, grouped) in row[5..].iter().zip(grouped) {
            // One printed decimal: equal up to its rounding.
            assert!(
                (printed - grouped).abs() <= 0.05 + 1e-9,
                "stage {}: inspect prints {printed}, analyze groups to {grouped:.3}\n{table}",
                st.stage
            );
        }
        // The per-minibatch column is analyze's service (per replica).
        let service_ms = st.service_per_mb_s * st.tracks as f64 * 1e3;
        assert!((row[2] - service_ms).abs() <= 0.0005 + 1e-9, "{table}");
    }
}
