//! Trace sessions and the zero-cost per-worker [`Recorder`] handle.
//!
//! A [`TraceSession`] owns one [`EventRing`] per registered track (one
//! track per worker, plus coordinator/supervisor tracks), a shared
//! [`MetricsRegistry`], and the session epoch all timestamps are relative
//! to. Workers hold a [`Recorder`]: a cloneable handle that is a single
//! branch when disabled — mirroring the runtime's `Option<Arc<dyn
//! FaultHook>>` seam — and two `Instant` reads plus a lock-free ring push
//! when enabled.

use crate::event::{Event, SpanKind};
use crate::metrics::MetricsRegistry;
use crate::ring::EventRing;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Default per-track ring capacity (events). At ~40 bytes per slot this
/// is ~1.3 MB per worker, enough for tens of thousands of ops before
/// drop-oldest kicks in.
pub const DEFAULT_RING_CAPACITY: usize = 32_768;

struct Track {
    name: String,
    /// Pipeline stage this track belongs to, when it is a stage worker.
    stage: Option<usize>,
    ring: Arc<EventRing>,
}

/// A live tracing + metrics session covering one (possibly restarted)
/// training run.
pub struct TraceSession {
    t0: Instant,
    capacity: usize,
    tracks: Mutex<Vec<Track>>,
    metrics: MetricsRegistry,
}

impl fmt::Debug for TraceSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSession")
            .field("tracks", &self.tracks().len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl TraceSession {
    /// New session with the default per-track ring capacity.
    pub fn new() -> Arc<Self> {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// New session retaining at most `capacity` events per track.
    pub fn with_capacity(capacity: usize) -> Arc<Self> {
        Arc::new(TraceSession {
            t0: Instant::now(),
            capacity,
            tracks: Mutex::new(Vec::new()),
            metrics: MetricsRegistry::new(),
        })
    }

    /// The registered tracks. Every change is one push, so a poisoned
    /// lock's list is whole.
    fn tracks(&self) -> MutexGuard<'_, Vec<Track>> {
        self.tracks.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register a new track (e.g. `"supervisor"`) and return its recorder.
    /// Duplicate names are allowed — a restarted run re-registers its
    /// workers and gets fresh rows on the timeline.
    pub fn recorder(&self, name: &str) -> Recorder {
        self.register(name, None)
    }

    /// Register a track owned by pipeline stage `stage`.
    pub fn stage_recorder(&self, name: &str, stage: usize) -> Recorder {
        self.register(name, Some(stage))
    }

    fn register(&self, name: &str, stage: Option<usize>) -> Recorder {
        let ring = Arc::new(EventRing::new(self.capacity));
        self.tracks().push(Track {
            name: name.to_string(),
            stage,
            ring: Arc::clone(&ring),
        });
        Recorder(Some(RecorderInner { ring, t0: self.t0 }))
    }

    /// The session's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Nanoseconds since the session started.
    pub fn elapsed_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Snapshot every track's retained events, oldest first per track.
    pub fn snapshot(&self) -> TraceSnapshot {
        TraceSnapshot {
            tracks: (0..self.track_count())
                .filter_map(|i| self.track_snapshot(i))
                .collect(),
        }
    }

    /// Number of registered tracks right now.
    pub fn track_count(&self) -> usize {
        self.tracks().len()
    }

    /// Snapshot a single track by registration index, without touching the
    /// other rings — the streaming trace writer drains one track at a time
    /// so only one track's events are materialized at once.
    pub fn track_snapshot(&self, index: usize) -> Option<TrackEvents> {
        let (name, stage, ring) = {
            let tracks = self.tracks();
            let t = tracks.get(index)?;
            (t.name.clone(), t.stage, Arc::clone(&t.ring))
        };
        let (mut events, dropped) = ring.snapshot();
        events.sort_by_key(|e| e.start_ns);
        Some(TrackEvents {
            name,
            stage,
            events,
            dropped,
        })
    }
}

/// All events of one track, extracted from its ring.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrackEvents {
    /// Track name (worker or supervisor label).
    pub name: String,
    /// Pipeline stage, when the track is a stage worker.
    pub stage: Option<usize>,
    /// Retained events, ordered by start time.
    pub events: Vec<Event>,
    /// Events lost to the ring's drop-oldest policy.
    pub dropped: u64,
}

impl TrackEvents {
    /// Replica id recovered from the `…replicaM` naming convention the
    /// trainer uses for stage-worker tracks (`stage{N}.replica{M}`);
    /// `None` for supervisor/control tracks.
    pub fn replica(&self) -> Option<usize> {
        let idx = self.name.rfind("replica")?;
        self.name[idx + "replica".len()..].parse().ok()
    }
}

/// A point-in-time extraction of every track in a session.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TraceSnapshot {
    /// One entry per registered track, in registration order.
    pub tracks: Vec<TrackEvents>,
}

impl TraceSnapshot {
    /// Wall clock of the trace: the latest event end across all tracks.
    pub(crate) fn wall_ns(&self) -> u64 {
        self.tracks
            .iter()
            .flat_map(|t| t.events.iter().map(|e| e.end_ns))
            .max()
            .unwrap_or(0)
    }

    /// Latest event end across all tracks, in seconds.
    pub fn span_s(&self) -> f64 {
        self.wall_ns() as f64 * 1e-9
    }
}

#[derive(Clone)]
struct RecorderInner {
    ring: Arc<EventRing>,
    t0: Instant,
}

/// Per-worker recording handle. `Recorder::default()` (or a disabled
/// session) is a no-op: [`Recorder::begin`] and [`Recorder::end`] cost one
/// branch each and never read the clock.
#[derive(Clone, Default)]
pub struct Recorder(Option<RecorderInner>);

/// Opaque span start token returned by [`Recorder::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanStart(u64);

impl Recorder {
    /// A recorder that drops everything.
    pub fn disabled() -> Recorder {
        Recorder(None)
    }

    /// Whether events are actually recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Mark the start of a span. Reads the clock only when enabled.
    #[inline]
    pub fn begin(&self) -> SpanStart {
        match &self.0 {
            Some(inner) => SpanStart(inner.t0.elapsed().as_nanos() as u64),
            None => SpanStart(0),
        }
    }

    /// Complete a span started with [`Recorder::begin`], tagged epoch 0.
    #[inline]
    pub fn end(&self, start: SpanStart, kind: SpanKind) {
        self.end_in_epoch(start, kind, 0);
    }

    /// Complete a span started with [`Recorder::begin`], tagged with the
    /// training epoch it belongs to.
    #[inline]
    pub fn end_in_epoch(&self, start: SpanStart, kind: SpanKind, epoch: u32) {
        if let Some(inner) = &self.0 {
            let now = inner.t0.elapsed().as_nanos() as u64;
            inner.ring.push(Event {
                kind,
                start_ns: start.0,
                end_ns: now.max(start.0),
                epoch,
            });
        }
    }

    /// Record an instant (zero-duration) event, tagged epoch 0.
    #[inline]
    pub fn instant(&self, kind: SpanKind) {
        self.instant_in_epoch(kind, 0);
    }

    /// Record an instant event tagged with its training epoch.
    #[inline]
    pub fn instant_in_epoch(&self, kind: SpanKind, epoch: u32) {
        if let Some(inner) = &self.0 {
            let now = inner.t0.elapsed().as_nanos() as u64;
            inner.ring.push(Event {
                kind,
                start_ns: now,
                end_ns: now,
                epoch,
            });
        }
    }
}

// `Recorder` appears inside `Debug`-derived runtime types; keep the
// representation to its enabled/disabled state.
impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Recorder").field(&self.is_enabled()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::default();
        assert!(!r.is_enabled());
        let s = r.begin();
        r.end(s, SpanKind::GradSync);
        r.instant(SpanKind::Fault);
        // Nothing to snapshot; just must not panic.
    }

    #[test]
    fn session_collects_per_track_events() {
        let session = TraceSession::with_capacity(128);
        let a = session.stage_recorder("stage0", 0);
        let b = session.recorder("supervisor");
        let s = a.begin();
        thread::sleep(Duration::from_millis(2));
        a.end(s, SpanKind::Fwd { mb: 3 });
        b.instant(SpanKind::Fault);
        let snap = session.snapshot();
        assert_eq!(snap.tracks.len(), 2);
        assert_eq!(snap.tracks[0].stage, Some(0));
        assert_eq!(snap.tracks[0].events.len(), 1);
        let e = snap.tracks[0].events[0];
        assert_eq!(e.kind, SpanKind::Fwd { mb: 3 });
        assert!(e.duration_s() >= 0.002, "slept 2ms, got {}", e.duration_s());
        assert_eq!(snap.tracks[1].name, "supervisor");
        assert!(snap.tracks[1].events[0].is_instant());
        assert!(snap.span_s() > 0.0);
    }

    #[test]
    fn epoch_tagged_recording_and_replica_parsing() {
        let session = TraceSession::with_capacity(8);
        let r = session.stage_recorder("stage2.replica1", 2);
        let s = r.begin();
        r.end_in_epoch(s, SpanKind::Bwd { mb: 5 }, 3);
        r.instant_in_epoch(SpanKind::SyncDeposit { mb: 5 }, 3);
        let snap = session.snapshot();
        let track = &snap.tracks[0];
        assert_eq!(track.replica(), Some(1));
        assert_eq!(track.events[0].epoch, 3);
        assert_eq!(track.events[1].epoch, 3);
        // Non-worker tracks have no replica.
        let sup = session.recorder("supervisor");
        sup.instant(SpanKind::Fault);
        let snap = session.snapshot();
        assert_eq!(snap.tracks[1].replica(), None);
        assert_eq!(snap.tracks[1].events[0].epoch, 0);
    }

    #[test]
    fn per_track_snapshot_matches_full_snapshot() {
        let session = TraceSession::with_capacity(8);
        let a = session.stage_recorder("stage0.replica0", 0);
        let b = session.recorder("supervisor");
        a.instant(SpanKind::StashPush { mb: 1 });
        b.instant(SpanKind::Recovery);
        assert_eq!(session.track_count(), 2);
        let full = session.snapshot();
        for i in 0..session.track_count() {
            let one = session.track_snapshot(i).unwrap();
            assert_eq!(one.name, full.tracks[i].name);
            assert_eq!(one.events, full.tracks[i].events);
        }
        assert!(session.track_snapshot(99).is_none());
    }

    #[test]
    fn duplicate_track_names_get_fresh_rows() {
        let session = TraceSession::with_capacity(8);
        let a = session.recorder("w0");
        let b = session.recorder("w0");
        a.instant(SpanKind::Fault);
        b.instant(SpanKind::Recovery);
        let snap = session.snapshot();
        assert_eq!(snap.tracks.len(), 2);
        assert_eq!(snap.tracks[0].events[0].kind, SpanKind::Fault);
        assert_eq!(snap.tracks[1].events[0].kind, SpanKind::Recovery);
    }
}
