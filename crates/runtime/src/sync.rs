//! Gradient synchronization across stage replicas.
//!
//! PipeDream synchronizes weight updates across the replicas of a
//! data-parallel stage before applying them (§4, "Parameter State"). The
//! replicas of a stage process *different* minibatches under round-robin
//! routing, but each performs the same number of backward passes at the
//! same cadence, so a round-based all_reduce is deadlock-free: the `k`-th
//! backward pass of every replica contributes to round `k`.
//!
//! That deadlock-freedom argument assumes every participant stays alive.
//! A replica that crashes mid-round would strand its partners inside the
//! rendezvous forever, so the group is **unstrandable** by construction:
//!
//! * [`GradSyncGroup::allreduce`] is fallible — it returns
//!   [`SyncError::PeerLost`] the moment the group is poisoned and
//!   [`SyncError::Timeout`] when the configured deadline expires;
//! * a dying participant (typed worker error, fault-injected kill, or
//!   channel disconnect) calls [`GradSyncGroup::poison`], waking every
//!   blocked partner immediately;
//! * a participant that *panics* inside the rendezvous — even between its
//!   deposit and the wake-up notification — poisons the group from the
//!   drop glue of an internal in-flight guard, so a partial round is
//!   always detectable and never waits on a notification that was lost
//!   with the panicking thread;
//! * the first participant to hit its deadline also poisons the group, so
//!   one detected stall fails the whole rendezvous fast instead of
//!   serializing `replicas` individual timeouts.

use pipedream_obs::{Recorder, SpanKind};
use pipedream_tensor::Tensor;
use std::fmt;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Why an all_reduce rendezvous failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncError {
    /// A participant died (or timed out) and poisoned the group; every
    /// other participant observes this error instead of blocking forever.
    PeerLost {
        /// The replica that poisoned the group.
        replica: usize,
    },
    /// This participant's own deadline expired with the round incomplete.
    /// The group is poisoned as a side effect, so partners fail with
    /// [`SyncError::PeerLost`] rather than waiting out their own deadlines.
    Timeout {
        /// How long this participant waited before giving up.
        waited_ms: u64,
    },
}

impl fmt::Display for SyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncError::PeerLost { replica } => {
                write!(f, "gradient sync poisoned: replica {replica} lost")
            }
            SyncError::Timeout { waited_ms } => {
                write!(f, "gradient sync deadline expired after {waited_ms} ms")
            }
        }
    }
}

impl std::error::Error for SyncError {}

struct State {
    deposits: Vec<Option<Vec<Tensor>>>,
    average: Option<Vec<Tensor>>,
    /// The round's other deposits, summed into `average` already: every
    /// collector but the last copies the average into one of them, so each
    /// replica leaves with one buffer set for the one it brought and a
    /// round allocates nothing.
    spent: Vec<Vec<Tensor>>,
    collected: usize,
    /// Replica that poisoned the group, if any. Once set the group is
    /// permanently failed: every current and future `allreduce` errs.
    poisoned: Option<usize>,
}

/// A reusable all_reduce rendezvous for one replicated stage (or a BSP
/// data-parallel worker group).
pub struct GradSyncGroup {
    replicas: usize,
    /// Upper bound on any single blocking wait inside `allreduce`; `None`
    /// blocks until completion or poisoning.
    deadline: Option<Duration>,
    /// Per-replica trace recorders (empty when tracing is off): the time
    /// spent inside a rendezvous is recorded as a `GradSync` span on the
    /// calling replica's track, or `Stalled` when the round fails.
    recorders: Vec<Recorder>,
    state: Mutex<State>,
    cv: Condvar,
}

/// Poisons the group if an in-flight `allreduce` unwinds before
/// completing its round — e.g. a tensor op panicking between the deposit
/// and the wake-up notification. Disarmed on every orderly exit.
struct InFlightGuard<'a> {
    group: &'a GradSyncGroup,
    replica: usize,
    armed: bool,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.group.poison(self.replica);
        }
    }
}

impl GradSyncGroup {
    /// Group for `replicas` participants with no wait deadline (waits end
    /// only on round completion or poisoning).
    pub fn new(replicas: usize) -> Self {
        Self::build(replicas, None)
    }

    /// Group for `replicas` participants whose blocking waits give up
    /// (and poison the group) after `deadline`.
    pub fn with_deadline(replicas: usize, deadline: Duration) -> Self {
        Self::build(replicas, Some(deadline))
    }

    fn build(replicas: usize, deadline: Option<Duration>) -> Self {
        assert!(replicas >= 1);
        GradSyncGroup {
            replicas,
            deadline,
            recorders: Vec::new(),
            state: Mutex::new(State {
                deposits: vec![None; replicas],
                average: None,
                spent: Vec::with_capacity(replicas),
                collected: 0,
                poisoned: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Attach one trace [`Recorder`] per replica (indexed by replica id).
    /// With recorders attached, each `allreduce` call records its
    /// rendezvous time as a span on the caller's track.
    pub fn with_recorders(mut self, recorders: Vec<Recorder>) -> Self {
        assert!(recorders.is_empty() || recorders.len() == self.replicas);
        self.recorders = recorders;
        self
    }

    /// Number of participants.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The configured per-wait deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The group's state. A participant that panicked while holding the
    /// lock left a partial round behind, which its in-flight guard reports
    /// by poisoning the *group*; the lock itself stays usable.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The replica that poisoned the group, if the group is poisoned.
    pub fn poisoned_by(&self) -> Option<usize> {
        self.lock().poisoned
    }

    /// Mark `replica` as lost, failing the group permanently and waking
    /// every blocked participant with [`SyncError::PeerLost`]. Idempotent;
    /// the first poisoner wins.
    pub fn poison(&self, replica: usize) {
        let mut st = self.lock();
        if st.poisoned.is_none() {
            st.poisoned = Some(replica);
        }
        self.cv.notify_all();
    }

    /// Sleep while `blocked` holds of the state: `Err(PeerLost)` once the
    /// group is poisoned, `Err(Timeout)` (poisoning the group) once
    /// `start + deadline` passes.
    fn wait_while<'a>(
        &self,
        mut st: MutexGuard<'a, State>,
        replica: usize,
        start: Instant,
        blocked: impl Fn(&State) -> bool,
    ) -> Result<MutexGuard<'a, State>, SyncError> {
        loop {
            if let Some(p) = st.poisoned {
                return Err(SyncError::PeerLost { replica: p });
            }
            if !blocked(&st) {
                return Ok(st);
            }
            st = match self.deadline {
                None => self.cv.wait(st).unwrap_or_else(PoisonError::into_inner),
                Some(limit) => {
                    let waited = start.elapsed();
                    if waited >= limit {
                        // First to give up poisons, so partners fail fast.
                        st.poisoned = Some(replica);
                        self.cv.notify_all();
                        return Err(SyncError::Timeout {
                            waited_ms: waited.as_millis() as u64,
                        });
                    }
                    self.cv
                        .wait_timeout(st, limit - waited)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
    }

    /// Contribute this replica's gradients and receive the element-wise
    /// average across all replicas. Blocks until every replica of the
    /// current round has contributed, the group's deadline expires, or a
    /// peer is lost — the latter two fail with a typed [`SyncError`]
    /// instead of hanging.
    ///
    /// The tensors handed back are the round's own deposits — the average
    /// is computed in place in one, and copied into the others — so every
    /// replica leaves with one buffer set for the one it brought and a
    /// round neither allocates nor drops a buffer.
    pub fn allreduce(&self, replica: usize, grads: Vec<Tensor>) -> Result<Vec<Tensor>, SyncError> {
        assert!(replica < self.replicas);
        if self.replicas == 1 {
            return Ok(grads);
        }
        match self.recorders.get(replica) {
            None => self.allreduce_inner(replica, grads),
            Some(rec) => {
                let span = rec.begin();
                let result = self.allreduce_inner(replica, grads);
                rec.end(
                    span,
                    if result.is_ok() {
                        SpanKind::GradSync
                    } else {
                        SpanKind::Stalled
                    },
                );
                result
            }
        }
    }

    fn allreduce_inner(
        &self,
        replica: usize,
        grads: Vec<Tensor>,
    ) -> Result<Vec<Tensor>, SyncError> {
        let start = Instant::now();
        let mut guard = InFlightGuard {
            group: self,
            replica,
            armed: false,
        };
        // Wait for the previous round to fully drain before depositing.
        let mut st = self.wait_while(self.lock(), replica, start, |st| {
            st.deposits[replica].is_some() || st.average.is_some()
        })?;
        st.deposits[replica] = Some(grads);
        // From the deposit until this round's result is consumed, an
        // unwind would leave a partial round behind: arm the poison guard.
        guard.armed = true;
        if st.deposits.iter().all(Option::is_some) {
            // Last depositor computes the average, in place in the first
            // deposit.
            let st = &mut *st;
            let mut deposits = st
                .deposits
                .iter_mut()
                .map(|d| d.take().expect("all deposited"));
            let mut avg = deposits.next().expect("at least one replica");
            for d in deposits {
                for (a, t) in avg.iter_mut().zip(d.iter()) {
                    a.axpy(1.0, t);
                }
                st.spent.push(d);
            }
            let scale = 1.0 / self.replicas as f32;
            for t in &mut avg {
                t.scale_inplace(scale);
            }
            st.average = Some(avg);
            self.cv.notify_all();
        } else {
            st = self.wait_while(st, replica, start, |st| st.average.is_none())?;
        }
        st.collected += 1;
        let out = if st.collected == self.replicas {
            // Last collector: the round is over, the average itself goes.
            st.collected = 0;
            self.cv.notify_all();
            st.average.take().expect("average present")
        } else {
            let st = &mut *st;
            let mut out = st.spent.pop().expect("one spent deposit per collector");
            for (o, a) in out
                .iter_mut()
                .zip(st.average.as_ref().expect("average present"))
            {
                o.copy_from(a);
            }
            out
        };
        guard.armed = false;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, RecvTimeoutError};
    use std::sync::Arc;
    use std::thread;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_slice(v)
    }

    /// Run `f` on a watchdog: panic if it does not finish within `limit`.
    /// A reintroduced all_reduce hang fails the test instead of wedging
    /// the whole test run.
    fn with_hard_timeout<T: Send + 'static>(
        limit: Duration,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        let (tx, rx) = channel();
        thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(limit) {
            Ok(v) => v,
            Err(RecvTimeoutError::Timeout) => panic!("deadlocked: no result within {limit:?}"),
            Err(RecvTimeoutError::Disconnected) => panic!("worker panicked before producing"),
        }
    }

    #[test]
    fn single_replica_is_identity() {
        let g = GradSyncGroup::new(1);
        let out = g.allreduce(0, vec![t(&[1.0, 2.0])]).unwrap();
        assert_eq!(out[0].data(), &[1.0, 2.0]);
    }

    #[test]
    fn two_replicas_average() {
        let g = Arc::new(GradSyncGroup::new(2));
        let g2 = Arc::clone(&g);
        let h = thread::spawn(move || g2.allreduce(1, vec![t(&[3.0])]).unwrap());
        let a = g.allreduce(0, vec![t(&[1.0])]).unwrap();
        let b = h.join().unwrap();
        assert_eq!(a[0].data(), &[2.0]);
        assert_eq!(b[0].data(), &[2.0]);
    }

    #[test]
    fn many_rounds_do_not_deadlock() {
        let g = Arc::new(GradSyncGroup::new(3));
        let mut handles = Vec::new();
        for r in 0..3 {
            let g = Arc::clone(&g);
            handles.push(thread::spawn(move || {
                let mut sum = 0.0f32;
                for round in 0..50 {
                    let out = g.allreduce(r, vec![t(&[(r + round) as f32])]).unwrap();
                    sum += out[0].data()[0];
                }
                sum
            }));
        }
        let sums: Vec<f32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every replica sees the identical averages.
        assert!((sums[0] - sums[1]).abs() < 1e-4);
        assert!((sums[1] - sums[2]).abs() < 1e-4);
        // Round k average = mean(k, k+1, k+2) = k+1.
        let expected: f32 = (0..50).map(|k| k as f32 + 1.0).sum();
        assert!(
            (sums[0] - expected).abs() < 1e-3,
            "{} vs {expected}",
            sums[0]
        );
    }

    /// The headline guarantee: one of three replicas dies mid-round and
    /// both survivors return `SyncError::PeerLost` within the deadline
    /// rather than deadlocking. Run under a hard watchdog so a regression
    /// fails the test instead of hanging it.
    #[test]
    fn killed_replica_fails_survivors_within_deadline() {
        with_hard_timeout(Duration::from_secs(10), || {
            let g = Arc::new(GradSyncGroup::with_deadline(3, Duration::from_secs(5)));
            let mut survivors = Vec::new();
            for r in 0..2usize {
                let g = Arc::clone(&g);
                survivors.push(thread::spawn(move || {
                    // Round 0 completes (all three deposit), round 1 is
                    // where replica 2 has died.
                    g.allreduce(r, vec![t(&[1.0])]).unwrap();
                    let start = Instant::now();
                    let err = g.allreduce(r, vec![t(&[2.0])]).unwrap_err();
                    (err, start.elapsed())
                }));
            }
            // Replica 2 completes round 0, then "crashes" before round 1:
            // its teardown path poisons the group.
            let g2 = Arc::clone(&g);
            let killed = thread::spawn(move || {
                g2.allreduce(2, vec![t(&[3.0])]).unwrap();
                thread::sleep(Duration::from_millis(50));
                g2.poison(2);
            });
            killed.join().unwrap();
            for h in survivors {
                let (err, waited) = h.join().unwrap();
                assert_eq!(err, SyncError::PeerLost { replica: 2 });
                assert!(
                    waited < Duration::from_secs(5),
                    "survivor should wake well before the deadline, waited {waited:?}"
                );
            }
            assert_eq!(g.poisoned_by(), Some(2));
        });
    }

    /// Without an explicit poison, the deadline bounds the wait: the
    /// blocked survivors fail with Timeout/PeerLost instead of hanging.
    #[test]
    fn missing_peer_times_out_and_poisons() {
        with_hard_timeout(Duration::from_secs(10), || {
            let g = Arc::new(GradSyncGroup::with_deadline(3, Duration::from_millis(100)));
            let mut handles = Vec::new();
            for r in 0..2usize {
                let g = Arc::clone(&g);
                handles.push(thread::spawn(move || {
                    g.allreduce(r, vec![t(&[1.0])]).unwrap_err()
                }));
            }
            let errs: Vec<SyncError> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            // The first to expire reports Timeout and poisons; the other
            // either also timed out or observed the poison.
            assert!(errs.iter().any(|e| matches!(e, SyncError::Timeout { .. })
                || matches!(e, SyncError::PeerLost { .. })));
            assert!(g.poisoned_by().is_some());
            // The group stays failed: later rounds err immediately.
            assert!(matches!(
                g.allreduce(0, vec![t(&[9.0])]),
                Err(SyncError::PeerLost { .. })
            ));
        });
    }

    /// A depositor that panics between its deposit and the round's
    /// completion poisons the group from the in-flight guard's drop glue,
    /// so the partial round is detectable (the sync.rs:57 missed-wakeup
    /// regression).
    #[test]
    fn panicking_depositor_poisons_partial_round() {
        with_hard_timeout(Duration::from_secs(10), || {
            let g = Arc::new(GradSyncGroup::new(2));
            let g2 = Arc::clone(&g);
            let panicker = thread::spawn(move || {
                // Deposit second (replica 0 deposits immediately below), so
                // this thread is the round's averaging depositor; the
                // mismatched tensor lengths make the averaging panic *after*
                // both deposits are in — exactly the deposit→notify window.
                thread::sleep(Duration::from_millis(100));
                let _ = g2.allreduce(1, vec![t(&[1.0, 2.0, 3.0])]);
            });
            let err = g.allreduce(0, vec![t(&[1.0])]).unwrap_err();
            assert!(panicker.join().is_err(), "depositor should have panicked");
            assert_eq!(err, SyncError::PeerLost { replica: 1 });
            assert_eq!(g.poisoned_by(), Some(1));
        });
    }

    #[test]
    fn allreduce_records_gradsync_spans() {
        let session = pipedream_obs::TraceSession::with_capacity(64);
        let r0 = session.stage_recorder("s0.r0", 0);
        let r1 = session.stage_recorder("s0.r1", 0);
        let g = Arc::new(GradSyncGroup::new(2).with_recorders(vec![r0, r1]));
        let g2 = Arc::clone(&g);
        let h = thread::spawn(move || g2.allreduce(1, vec![t(&[3.0])]).unwrap());
        g.allreduce(0, vec![t(&[1.0])]).unwrap();
        h.join().unwrap();
        let snap = session.snapshot();
        assert_eq!(snap.tracks.len(), 2);
        for track in &snap.tracks {
            assert_eq!(track.events.len(), 1, "one sync span on {}", track.name);
            assert_eq!(track.events[0].kind, SpanKind::GradSync);
        }
    }

    #[test]
    fn failed_allreduce_records_stalled_span() {
        let session = pipedream_obs::TraceSession::with_capacity(64);
        let r0 = session.stage_recorder("s0.r0", 0);
        let g = GradSyncGroup::with_deadline(2, Duration::from_millis(50))
            .with_recorders(vec![r0, Recorder::disabled()]);
        assert!(g.allreduce(0, vec![t(&[1.0])]).is_err());
        let snap = session.snapshot();
        assert_eq!(snap.tracks[0].events[0].kind, SpanKind::Stalled);
    }

    #[test]
    fn poisoned_group_rejects_all_future_rounds() {
        let g = GradSyncGroup::new(3);
        g.poison(1);
        g.poison(2); // idempotent: first poisoner wins
        assert_eq!(g.poisoned_by(), Some(1));
        assert_eq!(
            g.allreduce(0, vec![t(&[1.0])]),
            Err(SyncError::PeerLost { replica: 1 })
        );
    }
}
