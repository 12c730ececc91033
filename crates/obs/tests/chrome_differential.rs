//! `parse_chrome_trace` reads a trace through `serde_json`'s pull reader
//! and never builds a `Value`. The tree walk it replaced is kept here as
//! the oracle: on exporter output bent every way a foreign or damaged
//! file can be bent — keys reordered, repeated, missing or unknown,
//! values of the wrong type, numbers respelt, names escaped, elements
//! that are not objects, a cut at any byte — both must return the same
//! snapshot or both must refuse.

mod common;

use common::{arb_snapshot, kind, KINDS};
use pipedream_obs::{
    parse_chrome_trace, render_chrome_trace, Event, SpanKind, TraceSnapshot, TrackEvents,
};
use proptest::prelude::*;
use serde_json::Value;
use std::collections::BTreeMap;

// ---- the oracle: the tree walk, as it was ------------------------------

/// Inverse of `SpanKind::name`, found by asking every kind for its name.
fn kind_from_name(name: &str, mb: u64) -> Option<SpanKind> {
    (0..KINDS).map(|k| kind(k, mb)).find(|k| k.name() == name)
}

fn ns_from_us(us: f64) -> u64 {
    (us * 1_000.0).round().max(0.0) as u64
}

fn parse_by_tree_walk(doc: &str) -> Result<TraceSnapshot, String> {
    let v: Value = serde_json::from_str(doc).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    let mut order: Vec<u64> = Vec::new();
    let mut tracks: BTreeMap<u64, TrackEvents> = BTreeMap::new();
    for ev in events {
        let tid = ev.get("tid").and_then(|t| t.as_u64()).unwrap_or(0);
        let name = ev.get("name").and_then(|n| n.as_str()).unwrap_or("");
        let ph = ev.get("ph").and_then(|p| p.as_str()).unwrap_or("");
        let track = tracks.entry(tid).or_insert_with(|| {
            order.push(tid);
            TrackEvents {
                name: format!("track{tid}"),
                stage: None,
                events: Vec::new(),
                dropped: 0,
            }
        });
        match ph {
            "M" if name == "thread_name" => {
                if let Some(n) = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|n| n.as_str())
                {
                    track.name = n.to_string();
                    track.stage = n
                        .strip_prefix("stage")
                        .and_then(|rest| rest.split('.').next())
                        .and_then(|digits| digits.parse::<usize>().ok());
                }
            }
            "X" | "i" => {
                let mb = ev
                    .get("args")
                    .and_then(|a| a.get("mb"))
                    .and_then(|m| m.as_u64())
                    .unwrap_or(0);
                let Some(kind) = kind_from_name(name, mb) else {
                    continue;
                };
                let epoch = ev
                    .get("args")
                    .and_then(|a| a.get("epoch"))
                    .and_then(|e| e.as_u64())
                    .unwrap_or(0) as u32;
                let ts = ev.get("ts").and_then(|t| t.as_f64()).unwrap_or(0.0);
                let start_ns = ns_from_us(ts);
                let end_ns = if ph == "X" {
                    // (`+` until the reader took over; a `ts` near u64::MAX
                    // ns overflowed it.)
                    let dur = ev.get("dur").and_then(|d| d.as_f64()).unwrap_or(0.0);
                    start_ns.saturating_add(ns_from_us(dur))
                } else {
                    start_ns
                };
                track.events.push(Event {
                    kind,
                    start_ns,
                    end_ns,
                    epoch,
                });
            }
            _ => {}
        }
    }
    Ok(TraceSnapshot {
        tracks: order
            .into_iter()
            .map(|tid| tracks.remove(&tid).unwrap())
            .collect(),
    })
}

/// Both readers on `doc`: the same snapshot, or two refusals.
fn agree(doc: &str) -> Result<(), String> {
    match (parse_by_tree_walk(doc), parse_chrome_trace(doc)) {
        (Err(_), Err(_)) => Ok(()),
        (Ok(want), Ok(got)) if format!("{want:?}") == format!("{got:?}") => Ok(()),
        (want, got) => Err(format!(
            "on {doc}\n tree walk: {want:?}\n    reader: {got:?}"
        )),
    }
}

// ---- documents as text is free to spell them ---------------------------

/// JSON with what a `Value` cannot hold: keys that repeat, and scalars in
/// whatever spelling (`1`, `1.000`, `1e0`, `"1"`).
#[derive(Debug, Clone)]
enum Doc {
    Raw(String),
    Array(Vec<Doc>),
    Object(Vec<(String, Doc)>),
}

impl Doc {
    fn of(v: &Value) -> Doc {
        match v {
            Value::Array(a) => Doc::Array(a.iter().map(Doc::of).collect()),
            Value::Object(m) => {
                Doc::Object(m.iter().map(|(k, v)| (k.clone(), Doc::of(v))).collect())
            }
            scalar => Doc::Raw(serde_json::to_string(scalar).unwrap()),
        }
    }

    fn raw(text: &str) -> Doc {
        Doc::Raw(text.to_string())
    }

    fn print(&self, out: &mut String) {
        match self {
            Doc::Raw(text) => out.push_str(text),
            Doc::Array(a) => {
                out.push('[');
                for (i, d) in a.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "" });
                    d.print(out);
                }
                out.push(']');
            }
            Doc::Object(entries) => {
                out.push('{');
                for (i, (k, d)) in entries.iter().enumerate() {
                    out.push_str(if i > 0 { ", " } else { "" });
                    out.push_str(&serde_json::to_string(k).unwrap());
                    out.push_str(" : ");
                    d.print(out);
                }
                out.push('}');
            }
        }
    }
}

/// Every character as a `\u` escape (a surrogate pair beyond U+FFFF).
fn spelt_out(s: &str) -> String {
    let units = s.encode_utf16().map(|u| format!("\\u{u:04x}"));
    format!("\"{}\"", units.collect::<String>())
}

struct Bend(TestRng);

impl Bend {
    fn below(&mut self, n: usize) -> usize {
        self.0.usize_inclusive(0, n - 1)
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }

    /// A value of any type, as a number field or a name field might
    /// wrongly hold.
    fn any_value(&mut self) -> Doc {
        Doc::raw(self.pick(&[
            "0",
            "7",
            "7.0",
            "7.25",
            "-7",
            "-0",
            "1e3",
            "2.5E-1",
            "1e19",
            "1e30",
            "4294967297",
            "18446744073709551615",
            "18446744073709551616",
            "-9223372036854775808",
            "null",
            "true",
            "false",
            "\"\"",
            "\"fwd\"",
            "\"X\"",
            "\"7\"",
            "\"stage3.x\"",
            "[]",
            "[1,[2,{\"a\":[]}]]",
            "{}",
            "{\"mb\":3}",
            "{\"name\":\"stage9.r\",\"mb\":1,\"epoch\":2}",
            "{\"k\":{\"k\":[null,{\"k\":\"}\"}]},\"k\":1}",
        ]))
    }

    /// Respell a number that stands for the same value, or nearly.
    fn respell(&mut self, d: &mut Doc) {
        let Doc::Raw(text) = d else { return };
        let Ok(x) = text.parse::<f64>() else { return };
        *text = match self.below(5) {
            0 => format!("{}", x.trunc()),
            1 => format!("{x:.3}"),
            2 => format!("{x:e}"),
            3 => format!("{}.0", x.trunc()),
            _ => format!("{}E+0", x),
        };
    }

    fn object(&mut self, entries: &mut Vec<(String, Doc)>, depth: usize) {
        for (key, d) in entries.iter_mut() {
            match key.as_str() {
                "ts" | "dur" | "tid" | "mb" | "epoch" if self.one_in(3) => self.respell(d),
                "name" | "ph" if self.one_in(8) => {
                    if let Doc::Raw(text) = d {
                        if let Ok(s) = serde_json::from_str::<String>(text) {
                            *text = spelt_out(&s);
                        }
                    }
                }
                "args" if depth == 0 => {
                    if let Doc::Object(inner) = d {
                        self.object(inner, 1);
                    }
                }
                _ => {}
            }
            if self.one_in(12) {
                *d = self.any_value();
            }
        }
        let known = [
            "name", "cat", "ph", "s", "ts", "dur", "pid", "tid", "args", "mb", "epoch", "id",
        ];
        while self.one_in(3) && !entries.is_empty() {
            let at = self.below(entries.len() + 1);
            match self.below(4) {
                // A key again, with its own value or some other.
                0 => {
                    let (k, d) = entries[self.below(entries.len())].clone();
                    let d = if self.one_in(2) { d } else { self.any_value() };
                    entries.insert(at, (k, d));
                }
                // A known key the element may not have had, or has.
                1 => {
                    let k = self.pick(&known).to_string();
                    let d = self.any_value();
                    entries.insert(at, (k, d));
                }
                // A key nobody knows.
                2 => {
                    let d = self.any_value();
                    entries.insert(at, ("x-vendor".to_string(), d));
                }
                _ => {
                    entries.remove(self.below(entries.len()));
                }
            }
        }
        if self.one_in(3) {
            for i in (1..entries.len()).rev() {
                entries.swap(i, self.below(i + 1));
            }
        }
    }

    fn document(&mut self, doc: &mut Doc) {
        let Doc::Object(top) = doc else {
            unreachable!("the exporter writes an object")
        };
        for (_, events) in top.iter_mut().filter(|(k, _)| k == "traceEvents") {
            let Doc::Array(events) = events else {
                unreachable!()
            };
            for ev in events.iter_mut() {
                if self.one_in(25) {
                    *ev = self.any_value(); // often not an object at all
                } else if let Doc::Object(entries) = ev {
                    self.object(entries, 0);
                }
            }
        }
        if self.one_in(4) {
            // `traceEvents` twice: the later one counts, array or not.
            let again = match self.below(3) {
                0 => top[0].1.clone(),
                1 => Doc::Array(vec![self.any_value(), self.any_value()]),
                _ => self.any_value(),
            };
            let at = self.below(top.len() + 1);
            top.insert(at, ("traceEvents".to_string(), again));
        }
        if self.one_in(4) {
            let d = self.any_value();
            top.insert(self.below(top.len() + 1), ("otherData".to_string(), d));
        }
        if self.one_in(40) {
            *doc = self.any_value();
        }
    }
}

fn awkward_names(snap: &mut TraceSnapshot, bend: &mut Bend) {
    for t in &mut snap.tracks {
        if bend.one_in(3) {
            t.name = bend
                .pick(&[
                    "stage1.we\"ird\\name",
                    "stage2.\u{1f600}.replica0",
                    "stage3\ttab\nnewline\u{1}",
                    "stage.",
                    "stage18446744073709551616.r",
                    "stagé4.r",
                    "",
                ])
                .to_string();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reader_and_tree_walk_agree_on_bent_traces(snap in arb_snapshot(), seed in any::<u32>()) {
        let mut bend = Bend(TestRng::deterministic("bent trace", seed));
        let mut snap = snap;
        awkward_names(&mut snap, &mut bend);
        let rendered = render_chrome_trace(&snap);
        agree(&rendered).map_err(TestCaseError::fail)?;

        let mut doc = Doc::of(&serde_json::from_str(&rendered).unwrap());
        bend.document(&mut doc);
        let mut text = String::new();
        doc.print(&mut text);
        agree(&text).map_err(TestCaseError::fail)?;

        // Damage: a structural byte dropped in anywhere (often into a
        // string, often fatal), then the file cut short.
        let mut bytes = text.into_bytes();
        let at = bend.below(bytes.len());
        bytes[at] = bend.pick(&["{", "}", "[", "]", ",", ":", "\"", "\\", " ", "0", "e", ".", "-", "n", "\n"]).as_bytes()[0];
        if let Ok(damaged) = String::from_utf8(bytes) {
            agree(&damaged).map_err(TestCaseError::fail)?;
            let mut cut = bend.below(damaged.len());
            while !damaged.is_char_boundary(cut) {
                cut -= 1;
            }
            agree(&damaged[..cut]).map_err(TestCaseError::fail)?;
        }
    }
}

#[test]
fn a_trace_cut_at_any_byte_is_refused_by_both() {
    let snap = TraceSnapshot {
        tracks: vec![
            TrackEvents {
                name: "stage0.re\"plica\u{1f600}".into(),
                stage: Some(0),
                events: vec![
                    Event::span(SpanKind::Fwd { mb: 3 }, 1_500, 11_500),
                    Event {
                        epoch: 2,
                        ..Event::span(SpanKind::StashPush { mb: 3 }, 12_000, 12_000)
                    },
                ],
                dropped: 0,
            },
            TrackEvents {
                name: "supervisor".into(),
                stage: None,
                events: vec![Event::span(SpanKind::Fault, 70_000, 70_000)],
                dropped: 0,
            },
        ],
    };
    let doc = render_chrome_trace(&snap);
    let whole = doc.trim_end();
    assert!(parse_chrome_trace(whole).is_ok());
    for cut in (0..whole.len()).filter(|&i| whole.is_char_boundary(i)) {
        assert!(
            parse_chrome_trace(&whole[..cut]).is_err(),
            "accepted {:?}",
            &whole[..cut]
        );
        assert_eq!(agree(&whole[..cut]), Ok(()));
    }
}

#[test]
fn documents_the_tree_walk_special_cased() {
    for doc in [
        // Not a trace, though JSON.
        "[]",
        "7",
        "{}",
        r#"{"traceEvents":{}}"#,
        r#"{"traceEvents":[],"traceEvents":null}"#,
        // A trace: the last `traceEvents` is an array.
        r#"{"traceEvents":null,"traceEvents":[]}"#,
        r#"{"traceEvents":[{"tid":1}],"traceEvents":[{"tid":2}]}"#,
        // Elements that are not objects still open track 0.
        r#"{"traceEvents":[7,"x",[],null]}"#,
        // The last `args` counts, whole: its `mb` is gone, not inherited.
        r#"{"traceEvents":[{"name":"fwd","ph":"X","ts":1,"dur":1,"args":{"mb":5},"args":{"epoch":1}}]}"#,
        r#"{"traceEvents":[{"name":"fwd","ph":"X","ts":1,"dur":1,"args":{"mb":5},"args":7}]}"#,
        r#"{"traceEvents":[{"name":"fwd","ph":"X","ts":1,"dur":1,"args":{"mb":5,"mb":"x"}}]}"#,
        // Keys are compared unescaped.
        r#"{"traceEvents":[{"n\u0061me":"fwd","\u0070h":"X","ts":2.5,"dur":1}]}"#,
        // Times beyond u64 nanoseconds saturate.
        r#"{"traceEvents":[{"name":"fwd","ph":"X","ts":1e30,"dur":1e30}]}"#,
        r#"{"traceEvents":[{"name":"fwd","ph":"X","ts":-5,"dur":-5}]}"#,
        // An epoch beyond u32 wraps as the cast always did.
        r#"{"traceEvents":[{"name":"fwd","ph":"i","args":{"epoch":4294967297}}]}"#,
        // Invalid JSON after the events were already read.
        r#"{"traceEvents":[{"name":"fwd","ph":"X"}],"x":01}"#,
        r#"{"traceEvents":[]} x"#,
    ] {
        assert_eq!(agree(doc), Ok(()));
    }
    let last_args =
        r#"{"traceEvents":[{"name":"fwd","ph":"X","args":{"mb":5},"args":{"epoch":1}}]}"#;
    let ev = parse_chrome_trace(last_args).unwrap().tracks[0].events[0];
    assert_eq!((ev.kind, ev.epoch), (SpanKind::Fwd { mb: 0 }, 1));
}

#[test]
fn nesting_past_the_limit_is_an_error_not_an_abort() {
    // 10 KB of `[` overflowed a 2 MiB stack in the recursive parser.
    for doc in [
        "[".repeat(10_000),
        format!("{{\"traceEvents\":[{{\"args\":{}", "[".repeat(10_000)),
        format!("{{\"traceEvents\":[],\"x\":{}", "{\"k\":".repeat(10_000)),
    ] {
        let err = parse_chrome_trace(&doc).unwrap_err();
        assert!(err.contains("recursion limit exceeded"), "{err}");
        assert!(parse_by_tree_walk(&doc).is_err());
    }
}
