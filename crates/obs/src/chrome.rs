//! Chrome `trace_event` JSON export.
//!
//! Produces the JSON Array Format variant of the Trace Event spec inside a
//! `{"traceEvents": [...]}` envelope, loadable in `chrome://tracing` and
//! Perfetto. One thread (`tid`) per track: a `thread_name` metadata event
//! names it, complete (`"ph":"X"`) events carry the spans, instant
//! (`"ph":"i"`) events mark faults/recoveries, and **flow events**
//! (`"ph":"s"`/`"f"`) draw the causal arrows between tracks — activation
//! send→recv, gradient send→recv, stash push→pop, allreduce
//! deposit→release, and recompute→backward. Timestamps are microseconds
//! with nanosecond precision kept in the fraction.
//!
//! Flow events are *derived* from the span identities at export time, not
//! recorded: the ring stays allocation-free and the arrows are a pure
//! function of the snapshot, so re-exporting a parsed trace reproduces
//! them byte-for-byte. Endpoints are paired without maps: the arrival
//! bindings and the allreduce deposits and releases are collected in
//! track order, stably sorted by `(stage, minibatch)` once, and found by
//! binary search, so the first binding of a key still wins and the sync
//! rounds come out in key order. An arrow's id is appended digit by digit
//! like every other field of its line.
//!
//! The document is built by hand rather than through a serializer so the
//! byte output is deterministic for golden-file tests, and it is written
//! track-by-track through [`write_chrome_trace`] so a long many-stage run
//! never holds every track's event vector (or the whole document) in
//! memory at once — only the current track plus a compact flow-endpoint
//! index. Every array element is formatted into one reused line buffer
//! and handed to the sink in one write.
//!
//! [`parse_chrome_trace`] is the inverse: it reads an exported document
//! back into a [`TraceSnapshot`] so the live-profiler aggregation and the
//! critical-path analyzer can run offline over a saved `--trace out.json`
//! (`pipedream inspect --from-trace`, `pipedream analyze`). Flow events
//! are skipped on parse (they are re-derived on the next render). It
//! drives `serde_json`'s pull [`Reader`] itself and folds each event into
//! its track as it is read: no value tree, and nothing allocated per
//! event. The numbers the exporter writes have no exponent and, for a run
//! shorter than eleven days, at most 15 digits, so the reader answers
//! them from the digits it scanned, without parsing the text again.

use crate::event::{Event, SpanKind};
use crate::recorder::{TraceSession, TraceSnapshot, TrackEvents};
use serde_json::{Kind, Number, Reader};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write};

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One endpoint of a derived flow arrow.
#[derive(Debug, Clone, Copy)]
struct FlowPoint {
    tid: usize,
    stage: usize,
    mb: u64,
    epoch: u32,
    ts_ns: u64,
}

/// Cross-track flow pairing state, fed one track at a time. Only compact
/// endpoint tuples are retained, never whole tracks. Endpoints that pair
/// by `(stage, mb)` are kept in arrival order and sorted by that key,
/// stably, once every track is in ([`FlowIndex::for_each_point`]), so the
/// first of several with one key is still the one found first.
#[derive(Default)]
struct FlowIndex {
    /// Forward-span ends on stage tracks (activation producers).
    fwd_ends: Vec<FlowPoint>,
    /// Backward-span ends on stage tracks (gradient producers).
    bwd_ends: Vec<FlowPoint>,
    /// Arrival binding per forward span: the first `RecvWait{mb}` nested
    /// inside it, else the span start. Paired by (stage, mb), first wins.
    recv_in_fwd: Vec<FlowPoint>,
    /// Same for backward spans.
    recv_in_bwd: Vec<FlowPoint>,
    /// Same-track stash push→pop pairs.
    stash: Vec<(FlowPoint, FlowPoint)>,
    /// Same-track recompute-end→backward-start pairs.
    recompute: Vec<(FlowPoint, FlowPoint)>,
    /// Allreduce deposits; a round, keyed (stage, mb), completes at its
    /// latest one.
    deposits: Vec<FlowPoint>,
    /// Allreduce releases; each ends an arrow of its round.
    releases: Vec<FlowPoint>,
}

impl FlowPoint {
    fn key(&self) -> (usize, u64) {
        (self.stage, self.mb)
    }
}

/// The run of a slice sorted by [`FlowPoint::key`] that has key `key`.
fn with_key(sorted: &[FlowPoint], key: (usize, u64)) -> &[FlowPoint] {
    let from = sorted.partition_point(|p| p.key() < key);
    let len = sorted[from..].partition_point(|p| p.key() == key);
    &sorted[from..from + len]
}

/// What an arrow's id says after its name: three labelled numbers, so
/// `act:e0:mb3:s1` is `[(":e", 0), (":mb", 3), (":s", 1)]`.
type ArrowId = [(&'static str, u64); 3];

/// The events of one kind on a track, grouped by minibatch and in track
/// order within one.
struct ByMb<'a>(Vec<(u64, &'a Event)>);

impl<'a> ByMb<'a> {
    fn new(events: &'a [Event], mb_of: impl Fn(SpanKind) -> Option<u64>) -> Self {
        let mut of_kind: Vec<_> = events
            .iter()
            .filter_map(|ev| Some((mb_of(ev.kind)?, ev)))
            .collect();
        of_kind.sort_by_key(|&(mb, _)| mb); // stable
        ByMb(of_kind)
    }

    /// The first event of minibatch `mb` that `wanted` accepts.
    fn find(&self, mb: u64, wanted: impl Fn(&Event) -> bool) -> Option<&'a Event> {
        let from = self.0.partition_point(|&(m, _)| m < mb);
        self.0[from..]
            .iter()
            .take_while(|&&(m, _)| m == mb)
            .map(|&(_, ev)| ev)
            .find(|ev| wanted(ev))
    }
}

impl FlowIndex {
    fn index_track(&mut self, tid: usize, track: &TrackEvents) {
        let Some(stage) = track.stage else {
            return; // supervisor/control tracks carry no dataflow
        };
        // Per-minibatch views of the track for the containment /
        // succession checks below.
        let recvs = ByMb::new(&track.events, |k| match k {
            SpanKind::RecvWait { mb } => Some(mb),
            _ => None,
        });
        let pops = ByMb::new(&track.events, |k| match k {
            SpanKind::StashPop { mb } => Some(mb),
            _ => None,
        });
        let bwds = ByMb::new(&track.events, |k| match k {
            SpanKind::Bwd { mb } => Some(mb),
            _ => None,
        });
        let point = |mb: u64, epoch: u32, ts_ns: u64| FlowPoint {
            tid,
            stage,
            mb,
            epoch,
            ts_ns,
        };
        for ev in &track.events {
            match ev.kind {
                SpanKind::Fwd { mb } if !ev.is_instant() => {
                    self.fwd_ends.push(point(mb, ev.epoch, ev.end_ns));
                    let bind = recvs
                        .find(mb, |r| r.start_ns >= ev.start_ns && r.end_ns <= ev.end_ns)
                        .map_or(ev.start_ns, |r| r.start_ns);
                    self.recv_in_fwd.push(point(mb, ev.epoch, bind));
                }
                SpanKind::Bwd { mb } if !ev.is_instant() => {
                    self.bwd_ends.push(point(mb, ev.epoch, ev.end_ns));
                    let bind = recvs
                        .find(mb, |r| r.start_ns >= ev.start_ns && r.end_ns <= ev.end_ns)
                        .map_or(ev.start_ns, |r| r.start_ns);
                    self.recv_in_bwd.push(point(mb, ev.epoch, bind));
                }
                SpanKind::StashPush { mb } => {
                    if let Some(pop) = pops.find(mb, |p| p.start_ns >= ev.start_ns) {
                        self.stash.push((
                            point(mb, ev.epoch, ev.start_ns),
                            point(mb, ev.epoch, pop.start_ns),
                        ));
                    }
                }
                SpanKind::Recompute { mb } if !ev.is_instant() => {
                    if let Some(bwd) = bwds.find(mb, |b| b.start_ns >= ev.end_ns) {
                        self.recompute.push((
                            point(mb, ev.epoch, ev.end_ns),
                            point(mb, ev.epoch, bwd.start_ns),
                        ));
                    }
                }
                SpanKind::SyncDeposit { mb } => {
                    self.deposits.push(point(mb, ev.epoch, ev.start_ns));
                }
                SpanKind::SyncRelease { mb } => {
                    self.releases.push(point(mb, ev.epoch, ev.start_ns));
                }
                _ => {}
            }
        }
    }

    /// Visit every paired flow as its `"s"` endpoint followed by its
    /// `"f"` endpoint(s), in a deterministic order: `visit(name, ph, id,
    /// point)`, `id` being the same for all endpoints of one arrow.
    fn for_each_point(
        mut self,
        mut visit: impl FnMut(&str, &str, &ArrowId, &FlowPoint) -> io::Result<()>,
    ) -> io::Result<()> {
        for keyed in [
            &mut self.recv_in_fwd,
            &mut self.recv_in_bwd,
            &mut self.deposits,
            &mut self.releases,
        ] {
            keyed.sort_by_key(FlowPoint::key); // stable
        }
        let mut arrow = |name: &str, id: ArrowId, from: &FlowPoint, to: &[FlowPoint]| {
            visit(name, "s", &id, from)?;
            to.iter().try_for_each(|p| visit(name, "f", &id, p))
        };
        // Ids of arrows between stages, and of arrows along one track.
        let across = |p: &FlowPoint| {
            [
                (":e", p.epoch.into()),
                (":mb", p.mb),
                (":s", p.stage as u64),
            ]
        };
        let along = |p: &FlowPoint| [(":t", p.tid as u64), (":e", p.epoch.into()), (":mb", p.mb)];
        let one = std::slice::from_ref;
        for p in &self.fwd_ends {
            if let Some(c) = with_key(&self.recv_in_fwd, (p.stage + 1, p.mb)).first() {
                arrow("act", across(p), p, one(c))?;
            }
        }
        for p in &self.bwd_ends {
            if p.stage == 0 {
                continue;
            }
            if let Some(c) = with_key(&self.recv_in_bwd, (p.stage - 1, p.mb)).first() {
                arrow("grad", across(p), p, one(c))?;
            }
        }
        for (push, pop) in &self.stash {
            arrow("stash", along(push), push, one(pop))?;
        }
        // Rounds in key order; each needs a deposit and a release.
        let mut rest = &self.releases[..];
        while let Some(first) = rest.first() {
            let (stage, mb) = first.key();
            let (releases, after) = rest.split_at(rest.partition_point(|p| p.key() == (stage, mb)));
            rest = after;
            // The round completes at the *last* deposit (the first of
            // several at that time).
            let deposits = with_key(&self.deposits, (stage, mb)).iter();
            if let Some(d) = deposits.reduce(|d, p| if d.ts_ns < p.ts_ns { p } else { d }) {
                let id = [(":s", stage as u64), (":e", d.epoch.into()), (":mb", mb)];
                arrow("sync", id, d, releases)?;
            }
        }
        for (rec, bwd) in &self.recompute {
            arrow("recompute", along(rec), rec, one(bwd))?;
        }
        Ok(())
    }
}

/// The one buffer every element of the `traceEvents` array is formatted
/// into. Its pieces are appended directly (a line is a dozen constant
/// strings around half a dozen integers), not through `fmt`.
#[derive(Default)]
struct Line(Vec<u8>);

impl Line {
    fn str(&mut self, s: &str) -> &mut Self {
        self.0.extend_from_slice(s.as_bytes());
        self
    }

    /// `n` in decimal, two digits a step.
    fn int(&mut self, n: u64) -> &mut Self {
        const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
                                    2021222324252627282930313233343536373839\
                                    4041424344454647484950515253545556575859\
                                    6061626364656667686970717273747576777879\
                                    8081828384858687888990919293949596979899";
        let mut text = [0u8; 20]; // u64::MAX has 20 digits
        let mut at = text.len();
        let mut rest = n;
        while rest >= 10 {
            let pair = (rest % 100) as usize * 2;
            rest /= 100;
            at -= 2;
            text[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        }
        // A last single digit, or the one digit of 0.
        if rest > 0 || at == text.len() {
            at -= 1;
            text[at] = b'0' + rest as u8;
        }
        self.0.extend_from_slice(&text[at..]);
        self
    }

    /// Nanoseconds as microseconds, the remainder as a 3-digit fraction.
    fn us(&mut self, ns: u64) -> &mut Self {
        let (whole, frac) = (ns / 1000, ns % 1000);
        let digit = |d: u64| b'0' + d as u8;
        self.int(whole);
        let point = [
            b'.',
            digit(frac / 100),
            digit(frac / 10 % 10),
            digit(frac % 10),
        ];
        self.0.extend_from_slice(&point);
        self
    }

    /// Append a track's `thread_name` metadata event.
    fn thread_name(&mut self, tid: usize, name: &str) {
        self.str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":")
            .int(tid as u64)
            .str(",\"args\":{\"name\":\"")
            .str(&escape(name))
            .str("\"}}");
    }

    /// Append one span or instant.
    fn event(&mut self, tid: usize, ev: &Event) {
        self.str("{\"name\":\"")
            .str(ev.kind.name())
            .str("\",\"cat\":\"")
            .str(ev.kind.category());
        if ev.is_instant() {
            self.str("\",\"ph\":\"i\",\"s\":\"t\",\"ts\":")
                .us(ev.start_ns);
        } else {
            self.str("\",\"ph\":\"X\",\"ts\":")
                .us(ev.start_ns)
                .str(",\"dur\":")
                .us(ev.end_ns - ev.start_ns);
        }
        self.str(",\"pid\":0,\"tid\":").int(tid as u64);
        match (ev.kind.minibatch(), ev.epoch) {
            (Some(mb), 0) => self.str(",\"args\":{\"mb\":").int(mb).str("}}"),
            (Some(mb), e) => self
                .str(",\"args\":{\"mb\":")
                .int(mb)
                .str(",\"epoch\":")
                .int(e.into())
                .str("}}"),
            (None, 0) => self.str("}"),
            (None, e) => self.str(",\"args\":{\"epoch\":").int(e.into()).str("}}"),
        };
    }

    /// Append one endpoint of a flow arrow.
    fn flow_point(&mut self, name: &str, ph: &str, id: &ArrowId, p: &FlowPoint) {
        self.str("{\"name\":\"")
            .str(name)
            .str("\",\"cat\":\"flow\",\"ph\":\"")
            .str(ph)
            .str(if ph == "f" { "\",\"bp\":\"e" } else { "" })
            .str("\",\"id\":\"")
            .str(name);
        for &(label, n) in id {
            self.str(label).int(n);
        }
        self.str("\",\"ts\":")
            .us(p.ts_ns)
            .str(",\"pid\":0,\"tid\":")
            .int(p.tid as u64)
            .str("}");
    }
}

/// Write a Chrome trace document incrementally: each track is serialized
/// and released before the next is pulled from the iterator, so peak
/// memory is one track's events plus the compact flow index — not the
/// whole snapshot and not the whole document. Tracks may be owned or
/// borrowed.
pub fn write_chrome_trace<W: Write, T: std::borrow::Borrow<TrackEvents>>(
    tracks: impl IntoIterator<Item = T>,
    out: &mut W,
) -> io::Result<()> {
    out.write_all(b"{\"traceEvents\":[\n")?;
    let mut line = Line::default();
    let mut first = true;
    // Start the next element: behind the separator from the one before.
    let mut begin = |line: &mut Line| {
        line.0.clear();
        if !std::mem::take(&mut first) {
            line.str(",\n");
        }
    };
    let mut flows = FlowIndex::default();
    for (tid, track) in tracks.into_iter().enumerate() {
        let track: &TrackEvents = std::borrow::Borrow::borrow(&track);
        begin(&mut line);
        line.thread_name(tid, &track.name);
        out.write_all(&line.0)?;
        for ev in &track.events {
            begin(&mut line);
            line.event(tid, ev);
            out.write_all(&line.0)?;
        }
        flows.index_track(tid, track);
    }
    flows.for_each_point(|name, ph, id, p| {
        begin(&mut line);
        line.flow_point(name, ph, id, p);
        out.write_all(&line.0)
    })?;
    out.write_all(b"\n],\"displayTimeUnit\":\"ms\"}\n")?;
    Ok(())
}

/// Stream a live session to `out`, snapshotting one track at a time
/// (bounded memory: at most one track's event vector is live at once).
pub fn write_chrome_trace_session<W: Write>(session: &TraceSession, out: &mut W) -> io::Result<()> {
    let mut next = 0;
    write_chrome_trace(
        std::iter::from_fn(move || {
            let t = session.track_snapshot(next);
            next += 1;
            t
        }),
        out,
    )
}

/// Render a snapshot as a Chrome trace_event JSON document (buffered
/// convenience over [`write_chrome_trace`]; byte-identical output).
pub fn render_chrome_trace(snap: &TraceSnapshot) -> String {
    let mut buf = Vec::new();
    write_chrome_trace(&snap.tracks, &mut buf).expect("in-memory write");
    String::from_utf8(buf).expect("exporter writes UTF-8")
}

/// Span kind from its exported name + optional `args.mb` payload.
fn kind_from_name(name: &str, mb: u64) -> Option<SpanKind> {
    Some(match name {
        "fwd" => SpanKind::Fwd { mb },
        "bwd" => SpanKind::Bwd { mb },
        "grad_sync" => SpanKind::GradSync,
        "stash_push" => SpanKind::StashPush { mb },
        "stash_pop" => SpanKind::StashPop { mb },
        "checkpoint" => SpanKind::Checkpoint,
        "recv_wait" => SpanKind::RecvWait { mb },
        "send_wait" => SpanKind::SendWait { mb },
        "stalled" => SpanKind::Stalled,
        "fault" => SpanKind::Fault,
        "recovery" => SpanKind::Recovery,
        "reconfig" => SpanKind::Reconfig,
        "recompute" => SpanKind::Recompute { mb },
        "sync_deposit" => SpanKind::SyncDeposit { mb },
        "sync_release" => SpanKind::SyncRelease { mb },
        "opt_step" => SpanKind::OptStep { mb },
        _ => return None,
    })
}

/// Microsecond float (with nanosecond fraction) back to nanoseconds.
fn ns_from_us(us: f64) -> u64 {
    (us * 1_000.0).round().max(0.0) as u64
}

/// The fields of one `traceEvents` element that the snapshot is built
/// from, each as a `Value` tree would answer for it: a repeated key
/// counts once, with its last value; a key that is missing or holds the
/// wrong type reads as zero or empty (so does everything, for an element
/// that is not an object).
#[derive(Default)]
struct RawEvent<'a> {
    tid: u64,
    name: Cow<'a, str>,
    ph: Cow<'a, str>,
    ts_us: f64,
    dur_us: f64,
    /// `args.name`: the track's name, on a `thread_name` event.
    label: Option<Cow<'a, str>>,
    mb: u64,
    epoch: u64,
}

fn number_or_skip(r: &mut Reader<'_>) -> Result<Option<Number>, serde_json::Error> {
    if r.peek()? == Kind::Number {
        r.number().map(Some)
    } else {
        r.skip().map(|()| None)
    }
}

fn string_or_skip<'a>(r: &mut Reader<'a>) -> Result<Option<Cow<'a, str>>, serde_json::Error> {
    if r.peek()? == Kind::String {
        r.string().map(Some)
    } else {
        r.skip().map(|()| None)
    }
}

impl<'a> RawEvent<'a> {
    fn read(r: &mut Reader<'a>) -> Result<Self, serde_json::Error> {
        let mut ev = RawEvent::default();
        if r.peek()? != Kind::Object {
            r.skip()?;
            return Ok(ev);
        }
        let u64_or_0 = |n: Option<Number>| n.and_then(Number::as_u64).unwrap_or(0);
        let f64_or_0 = |n: Option<Number>| n.map_or(0.0, Number::as_f64);
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "tid" => ev.tid = u64_or_0(number_or_skip(r)?),
                "name" => ev.name = string_or_skip(r)?.unwrap_or_default(),
                "ph" => ev.ph = string_or_skip(r)?.unwrap_or_default(),
                "ts" => ev.ts_us = f64_or_0(number_or_skip(r)?),
                "dur" => ev.dur_us = f64_or_0(number_or_skip(r)?),
                "args" => {
                    (ev.label, ev.mb, ev.epoch) = (None, 0, 0);
                    if r.peek()? != Kind::Object {
                        r.skip()?;
                        continue;
                    }
                    r.begin_object()?;
                    while let Some(key) = r.next_key()? {
                        match &*key {
                            "name" => ev.label = string_or_skip(r)?,
                            "mb" => ev.mb = u64_or_0(number_or_skip(r)?),
                            "epoch" => ev.epoch = u64_or_0(number_or_skip(r)?),
                            _ => r.skip()?,
                        }
                    }
                }
                _ => r.skip()?,
            }
        }
        Ok(ev)
    }
}

/// Read the `traceEvents` array into tracks, in first-appearance order
/// of their `tid` (matching export order).
fn read_events(r: &mut Reader<'_>) -> Result<Vec<TrackEvents>, serde_json::Error> {
    let mut tracks: Vec<TrackEvents> = Vec::new();
    let mut by_tid: BTreeMap<u64, usize> = BTreeMap::new();
    r.begin_array()?;
    while r.next_element()? {
        let ev = RawEvent::read(r)?;
        let at = *by_tid.entry(ev.tid).or_insert_with(|| {
            tracks.push(TrackEvents {
                name: format!("track{}", ev.tid),
                stage: None,
                events: Vec::new(),
                dropped: 0,
            });
            tracks.len() - 1
        });
        let track = &mut tracks[at];
        match &*ev.ph {
            "M" if ev.name == "thread_name" => {
                if let Some(n) = ev.label {
                    track.stage = n
                        .strip_prefix("stage")
                        .and_then(|rest| rest.split('.').next())
                        .and_then(|digits| digits.parse::<usize>().ok());
                    track.name = n.into_owned();
                }
            }
            "X" | "i" => {
                let Some(kind) = kind_from_name(&ev.name, ev.mb) else {
                    continue;
                };
                let start_ns = ns_from_us(ev.ts_us);
                let end_ns = if ev.ph == "X" {
                    start_ns.saturating_add(ns_from_us(ev.dur_us))
                } else {
                    start_ns
                };
                track.events.push(Event {
                    kind,
                    start_ns,
                    end_ns,
                    epoch: ev.epoch as u32,
                });
            }
            _ => {} // flow ("s"/"t"/"f") and other phases: derived, not stored
        }
    }
    Ok(tracks)
}

/// Read the whole document; `None` if it is JSON but holds no
/// `traceEvents` array. As in a `Value` tree, the last `traceEvents` key
/// of the top-level object is the one that counts.
fn read_document(r: &mut Reader<'_>) -> Result<Option<Vec<TrackEvents>>, serde_json::Error> {
    let mut tracks = None;
    if r.peek()? == Kind::Object {
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            if key != "traceEvents" {
                r.skip()?;
            } else if r.peek()? == Kind::Array {
                tracks = Some(read_events(r)?);
            } else {
                r.skip()?;
                tracks = None;
            }
        }
    } else {
        r.skip()?;
    }
    r.end()?;
    Ok(tracks)
}

/// Parse an exported Chrome trace document back into a [`TraceSnapshot`].
///
/// Track identity comes from the `thread_name` metadata events (one per
/// `tid`); a stage index is recovered from the `stageN.` name prefix the
/// runtime uses, leaving supervisor/coordinator tracks stage-less.
/// Unrecognized event names are skipped (a trace may come from a newer
/// build), flow events (`ph` `"s"`/`"t"`/`"f"`) are skipped because they
/// are re-derived on render, but a document without `traceEvents` is an
/// error, as is one that is not JSON anywhere, in the events or around
/// them.
pub fn parse_chrome_trace(doc: &str) -> Result<TraceSnapshot, String> {
    let tracks = read_document(&mut Reader::new(doc)).map_err(|e| format!("invalid JSON: {e}"))?;
    let tracks = tracks.ok_or_else(|| "missing traceEvents array".to_string())?;
    Ok(TraceSnapshot { tracks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, SpanKind};
    use crate::recorder::TrackEvents;

    fn sample() -> TraceSnapshot {
        TraceSnapshot {
            tracks: vec![
                TrackEvents {
                    name: "stage0.replica0".into(),
                    stage: Some(0),
                    events: vec![
                        Event::span(SpanKind::Fwd { mb: 0 }, 1_500, 11_500),
                        Event::span(SpanKind::Bwd { mb: 0 }, 25_000, 45_250),
                        Event {
                            kind: SpanKind::Checkpoint,
                            start_ns: 50_000,
                            end_ns: 60_000,
                            epoch: 1,
                        },
                    ],
                    dropped: 0,
                },
                TrackEvents {
                    name: "stage1.replica0".into(),
                    stage: Some(1),
                    events: vec![
                        Event::span(SpanKind::Fwd { mb: 0 }, 11_900, 18_000),
                        Event::span(SpanKind::RecvWait { mb: 0 }, 12_000, 13_000),
                        Event::span(SpanKind::StashPush { mb: 0 }, 14_000, 14_000),
                        Event::span(SpanKind::Bwd { mb: 0 }, 21_000, 24_000),
                        Event::span(SpanKind::StashPop { mb: 0 }, 21_500, 21_500),
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
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_events() {
        let doc = render_chrome_trace(&sample());
        let v: serde_json::Value = serde_json::from_str(&doc).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        // 3 metadata + 6 spans + 3 instants + 3 derived flows × 2 endpoints.
        assert_eq!(events.len(), 18);
        let f = |i: usize, k: &str| events[i].get(k).unwrap().clone();
        assert_eq!(f(0, "ph").as_str(), Some("M"));
        assert_eq!(
            f(0, "args").get("name").unwrap().as_str(),
            Some("stage0.replica0")
        );
        assert_eq!(f(1, "ph").as_str(), Some("X"));
        assert_eq!(f(1, "name").as_str(), Some("fwd"));
        assert_eq!(f(1, "args").get("mb").unwrap().as_u64(), Some(0));
        // µs timestamps: 1500 ns → 1.5 µs.
        assert_eq!(f(1, "ts").as_f64(), Some(1.5));
        assert_eq!(f(1, "dur").as_f64(), Some(10.0));
        // The epoch-1 checkpoint carries its epoch.
        assert_eq!(f(3, "name").as_str(), Some("checkpoint"));
        assert_eq!(f(3, "args").get("epoch").unwrap().as_u64(), Some(1));
        // Flow events close the document: act (fwd@0 → recv@1), grad
        // (bwd@1 → bwd-start@0), stash (push → pop on stage 1).
        let flows: Vec<_> = events
            .iter()
            .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("flow"))
            .collect();
        assert_eq!(flows.len(), 6);
        assert_eq!(flows[0].get("name").unwrap().as_str(), Some("act"));
        assert_eq!(flows[0].get("ph").unwrap().as_str(), Some("s"));
        assert_eq!(flows[0].get("ts").unwrap().as_f64(), Some(11.5));
        assert_eq!(flows[1].get("ph").unwrap().as_str(), Some("f"));
        assert_eq!(flows[1].get("bp").unwrap().as_str(), Some("e"));
        assert_eq!(flows[1].get("ts").unwrap().as_f64(), Some(12.0));
        assert_eq!(flows[1].get("tid").unwrap().as_u64(), Some(1));
        assert_eq!(flows[2].get("name").unwrap().as_str(), Some("grad"));
        assert_eq!(flows[4].get("name").unwrap().as_str(), Some("stash"));
        assert_eq!(flows[0].get("id"), flows[1].get("id"));
    }

    #[test]
    fn numbers_are_written_as_fmt_writes_them() {
        let mut cases = vec![0, 1, 9, 10, 99, 100, 101, 999, 1_000, 1_001, 123_456_789];
        cases.extend([u64::MAX / 1000, u64::MAX - 1, u64::MAX]);
        cases.extend((0..20).map(|p| 10u64.pow(p)));
        for n in cases {
            let mut line = Line::default();
            line.int(n).str(" ").us(n);
            let text = format!("{n} {}.{:03}", n / 1000, n % 1000);
            assert_eq!(String::from_utf8(line.0).unwrap(), text);
        }
    }

    #[test]
    fn names_are_escaped() {
        let mut snap = sample();
        snap.tracks[0].name = "we\"ird\\name".into();
        let doc = render_chrome_trace(&snap);
        assert!(serde_json::from_str::<serde_json::Value>(&doc).is_ok());
    }

    #[test]
    fn parse_round_trips_the_rendered_trace() {
        let snap = sample();
        let doc = render_chrome_trace(&snap);
        let back = parse_chrome_trace(&doc).expect("parses");
        assert_eq!(back.tracks.len(), 3);
        assert_eq!(back.tracks[0].name, "stage0.replica0");
        assert_eq!(back.tracks[0].stage, Some(0));
        assert_eq!(back.tracks[1].stage, Some(1));
        assert_eq!(back.tracks[2].name, "supervisor");
        assert_eq!(back.tracks[2].stage, None);
        // Every span survives with nanosecond-exact times and epochs (the
        // export keeps the ns remainder in the µs fraction).
        for (b, s) in back.tracks.iter().zip(snap.tracks.iter()) {
            assert_eq!(b.events, s.events);
        }
        // And the re-render (flows re-derived) is byte-identical.
        assert_eq!(render_chrome_trace(&back), doc);
    }

    #[test]
    fn sync_and_recompute_flows_are_derived() {
        let snap = TraceSnapshot {
            tracks: vec![
                TrackEvents {
                    name: "stage0.replica0".into(),
                    stage: Some(0),
                    events: vec![
                        Event::span(SpanKind::SyncDeposit { mb: 4 }, 1_000, 1_000),
                        Event::span(SpanKind::SyncRelease { mb: 4 }, 3_000, 3_000),
                        Event::span(SpanKind::Recompute { mb: 4 }, 4_000, 5_000),
                        Event::span(SpanKind::Bwd { mb: 4 }, 5_000, 9_000),
                    ],
                    dropped: 0,
                },
                TrackEvents {
                    name: "stage0.replica1".into(),
                    stage: Some(0),
                    events: vec![
                        Event::span(SpanKind::SyncDeposit { mb: 4 }, 2_000, 2_000),
                        Event::span(SpanKind::SyncRelease { mb: 4 }, 3_100, 3_100),
                    ],
                    dropped: 0,
                },
            ],
        };
        let doc = render_chrome_trace(&snap);
        let v: serde_json::Value = serde_json::from_str(&doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let sync: Vec<_> = events
            .iter()
            .filter(|e| {
                e.get("name").and_then(|n| n.as_str()) == Some("sync")
                    && e.get("cat").and_then(|c| c.as_str()) == Some("flow")
            })
            .collect();
        // One "s" at the round-completing (latest) deposit + two "f"s.
        assert_eq!(sync.len(), 3);
        assert_eq!(sync[0].get("ph").unwrap().as_str(), Some("s"));
        assert_eq!(sync[0].get("ts").unwrap().as_f64(), Some(2.0));
        assert_eq!(sync[0].get("tid").unwrap().as_u64(), Some(1));
        assert!(sync[1..]
            .iter()
            .all(|e| e.get("ph").and_then(|p| p.as_str()) == Some("f")));
        let rec: Vec<_> = events
            .iter()
            .filter(|e| {
                e.get("name").and_then(|n| n.as_str()) == Some("recompute")
                    && e.get("cat").and_then(|c| c.as_str()) == Some("flow")
            })
            .collect();
        assert_eq!(rec.len(), 2);
        assert_eq!(rec[0].get("ts").unwrap().as_f64(), Some(5.0));
        assert_eq!(rec[1].get("ts").unwrap().as_f64(), Some(5.0));
        // Round-trip stays byte-faithful with flows present.
        let back = parse_chrome_trace(&doc).unwrap();
        assert_eq!(render_chrome_trace(&back), doc);
    }

    #[test]
    fn streaming_writer_is_incremental_and_byte_identical() {
        use std::cell::RefCell;
        use std::rc::Rc;

        let snap = sample();
        let buffered = render_chrome_trace(&snap);

        // Shared sink the lazy iterator can inspect mid-stream.
        #[derive(Clone)]
        struct SharedSink(Rc<RefCell<Vec<u8>>>);
        impl Write for SharedSink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let sink = SharedSink(Rc::new(RefCell::new(Vec::new())));
        let probe = Rc::clone(&sink.0);
        let tracks: Vec<TrackEvents> = snap.tracks.clone();
        let mut i = 0;
        let lazy = std::iter::from_fn(move || {
            if i > 0 {
                // Bounded memory: track i-1 must be fully serialized to the
                // sink *before* track i is pulled — the writer never
                // buffers all tracks (or the whole document) first.
                let so_far = String::from_utf8(probe.borrow().clone()).unwrap();
                assert!(
                    so_far.contains(&format!("\"name\":\"{}\"", tracks[i - 1].name)),
                    "track {} pulled before track {} was written",
                    i,
                    i - 1
                );
            }
            let t = tracks.get(i).cloned();
            i += 1;
            t
        });
        let mut out = sink.clone();
        write_chrome_trace(lazy, &mut out).unwrap();
        let streamed = String::from_utf8(sink.0.borrow().clone()).unwrap();
        assert_eq!(streamed, buffered);
    }

    #[test]
    fn session_streaming_matches_snapshot_render() {
        let session = TraceSession::with_capacity(16);
        let r0 = session.stage_recorder("stage0.replica0", 0);
        let r1 = session.stage_recorder("stage1.replica0", 1);
        let s = r0.begin();
        r0.end_in_epoch(s, SpanKind::Fwd { mb: 0 }, 0);
        let s = r1.begin();
        r1.end_in_epoch(s, SpanKind::Fwd { mb: 0 }, 0);
        let mut buf = Vec::new();
        write_chrome_trace_session(&session, &mut buf).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            render_chrome_trace(&session.snapshot())
        );
    }

    #[test]
    fn parse_rejects_non_trace_documents() {
        assert!(parse_chrome_trace("not json").is_err());
        assert!(parse_chrome_trace("{\"foo\":1}").is_err());
        // Unknown event names are skipped, not fatal.
        let doc = "{\"traceEvents\":[{\"name\":\"mystery\",\"ph\":\"X\",\
                    \"ts\":1.0,\"dur\":2.0,\"pid\":0,\"tid\":0}]}";
        let snap = parse_chrome_trace(doc).expect("parses");
        assert_eq!(snap.tracks.len(), 1);
        assert!(snap.tracks[0].events.is_empty());
    }

    #[test]
    fn golden_file_matches() {
        let doc = render_chrome_trace(&sample());
        let golden = include_str!("../tests/golden/chrome_trace.json");
        assert_eq!(
            doc, golden,
            "Chrome trace output drifted from tests/golden/chrome_trace.json; \
             update the golden file if the change is intentional"
        );
    }

    /// The arrows [`sample`] lacks: stage 0 on two replicas with two
    /// allreduce rounds (the second's deposits tie), recompute before
    /// backward on stage 1, epochs past 0, and a minibatch whose forward
    /// ran twice on each stage (a rerun after recovery), so two arrows
    /// compete for the first arrival binding.
    fn replicated_sample() -> TraceSnapshot {
        let at = |kind, start_ns, end_ns, epoch| Event {
            kind,
            start_ns,
            end_ns,
            epoch,
        };
        TraceSnapshot {
            tracks: vec![
                TrackEvents {
                    name: "stage0.replica0".into(),
                    stage: Some(0),
                    events: vec![
                        at(SpanKind::Fwd { mb: 0 }, 1_000, 3_000, 1),
                        at(SpanKind::StashPush { mb: 0 }, 2_000, 2_000, 1),
                        at(SpanKind::Fwd { mb: 2 }, 5_000, 7_000, 1),
                        at(SpanKind::StashPush { mb: 2 }, 6_000, 6_000, 1),
                        at(SpanKind::Bwd { mb: 0 }, 20_000, 24_000, 1),
                        at(SpanKind::RecvWait { mb: 0 }, 20_000, 21_000, 1),
                        at(SpanKind::StashPop { mb: 0 }, 20_500, 20_500, 1),
                        at(SpanKind::SyncDeposit { mb: 0 }, 24_000, 24_000, 1),
                        at(SpanKind::SyncRelease { mb: 0 }, 30_500, 30_500, 1),
                        at(SpanKind::Bwd { mb: 2 }, 31_000, 33_000, 1),
                        at(SpanKind::StashPop { mb: 2 }, 31_000, 31_000, 1),
                        at(SpanKind::SyncDeposit { mb: 2 }, 33_000, 33_000, 1),
                        at(SpanKind::SyncRelease { mb: 2 }, 34_000, 34_000, 1),
                        at(SpanKind::Fwd { mb: 0 }, 39_000, 39_500, 2),
                    ],
                    dropped: 0,
                },
                TrackEvents {
                    name: "stage0.replica1".into(),
                    stage: Some(0),
                    events: vec![
                        at(SpanKind::Fwd { mb: 1 }, 3_000, 5_000, 1),
                        at(SpanKind::Bwd { mb: 1 }, 26_000, 30_000, 1),
                        at(SpanKind::RecvWait { mb: 1 }, 26_000, 27_000, 1),
                        at(SpanKind::SyncDeposit { mb: 0 }, 30_000, 30_000, 1),
                        at(SpanKind::SyncRelease { mb: 0 }, 30_600, 30_600, 1),
                        at(SpanKind::SyncDeposit { mb: 2 }, 33_000, 33_000, 1),
                        at(SpanKind::SyncRelease { mb: 2 }, 34_100, 34_100, 1),
                    ],
                    dropped: 0,
                },
                TrackEvents {
                    name: "stage1.replica0".into(),
                    stage: Some(1),
                    events: vec![
                        at(SpanKind::Fwd { mb: 0 }, 3_500, 8_000, 1),
                        at(SpanKind::RecvWait { mb: 0 }, 3_600, 4_000, 1),
                        at(SpanKind::Fwd { mb: 1 }, 8_000, 10_000, 1),
                        at(SpanKind::Fwd { mb: 2 }, 10_000, 12_000, 1),
                        at(SpanKind::Recompute { mb: 0 }, 12_000, 14_000, 1),
                        at(SpanKind::Bwd { mb: 0 }, 14_000, 19_000, 1),
                        at(SpanKind::Recompute { mb: 1 }, 19_000, 21_000, 1),
                        at(SpanKind::Bwd { mb: 1 }, 21_000, 25_000, 1),
                        at(SpanKind::Bwd { mb: 2 }, 25_000, 28_000, 1),
                        at(SpanKind::Fwd { mb: 0 }, 40_000, 41_000, 2),
                        at(SpanKind::RecvWait { mb: 0 }, 40_100, 40_200, 2),
                    ],
                    dropped: 0,
                },
                TrackEvents {
                    name: "supervisor".into(),
                    stage: None,
                    events: vec![
                        at(SpanKind::Fault, 37_000, 37_000, 1),
                        at(SpanKind::Recovery, 38_000, 38_000, 2),
                    ],
                    dropped: 0,
                },
            ],
        }
    }

    #[test]
    fn replicated_golden_file_matches() {
        let doc = render_chrome_trace(&replicated_sample());
        let golden = include_str!("../tests/golden/chrome_trace_replicated.json");
        assert_eq!(
            doc, golden,
            "Chrome trace output drifted from tests/golden/chrome_trace_replicated.json; \
             update the golden file if the change is intentional"
        );
        let back = parse_chrome_trace(&doc).expect("parses");
        assert_eq!(render_chrome_trace(&back), doc);
    }
}
