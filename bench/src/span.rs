//! The harness's own spans: one around every call it makes into a crate's
//! public function, recorded from outside the crates. Kept in memory and
//! written out when the workload ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Layer name of spans that are the harness's own work (load generation,
/// model construction, checks) rather than a call into a crate.
pub const HARNESS: &str = "harness";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Crate the call went into, or [`HARNESS`].
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Repetition the span belongs to: spans of one repetition share it.
    pub rep: u32,
}

/// Records spans when on; when off, [`Tracer::span`] is one branch and
/// never reads the clock.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    rep: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Run `f` inside a span. Spans opened by `f` through the tracer it is
    /// handed become children of this one.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            layer,
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }
}

/// Per span: its duration minus the part of that interval its child spans
/// cover (counted by their union, should children overlap).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total self time per layer, milliseconds.
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer).or_insert(0.0) += ns as f64 / 1e6;
    }
    out
}

/// Write the spans as one JSON document.
pub fn write_trace(out: &mut impl Write, workload: &str, spans: &[Span]) -> io::Result<()> {
    writeln!(out, "{{\"workload\":\"{workload}\",\"spans\":[")?;
    let selfs = self_times_ns(spans);
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{i},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"rep\":{},\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}{comma}",
            s.layer, s.name, s.rep, s.start_ns, s.end_ns
        )?;
    }
    writeln!(out, "]}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            layer: "core",
            name: "x",
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100, child 10..60, grandchild 20..30 (inside the child).
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_by_their_union() {
        // 10..50 and 30..80 cover 70 ns of the parent, not 90; a third
        // lies inside them.
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 80, Some(0)),
            span(35, 45, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn a_child_outliving_its_parent_is_clipped() {
        let spans = [span(10, 50, None), span(40, 90, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![30, 50]);
    }

    #[test]
    fn tracer_nests_spans_under_the_one_open() {
        let mut t = Tracer::new(true);
        t.set_rep(3);
        t.span(HARNESS, "rep", |t| {
            t.span("core", "plan", |_| ());
            t.span("serve", "post", |c| c.span("serve", "inner", |_| ()));
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[2].parent, s[2].rep), (Some(0), 3));
        assert_eq!(s[3].parent, Some(2));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        let by_layer = layer_self_ms(s);
        assert_eq!(
            by_layer.keys().copied().collect::<Vec<_>>(),
            vec!["core", HARNESS, "serve"]
        );
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("core", "plan", |_| 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn trace_file_is_valid_json_with_one_entry_per_span() {
        let spans = [span(0, 100, None), span(10, 60, Some(0))];
        let mut buf = Vec::new();
        write_trace(&mut buf, "w", &spans).unwrap();
        let v: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&buf).unwrap()).unwrap();
        let arr = v.get("spans").and_then(|s| s.as_array()).unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("self_ns").and_then(|x| x.as_u64()), Some(50));
        assert!(arr[0].get("parent").unwrap().is_null());
    }
}
