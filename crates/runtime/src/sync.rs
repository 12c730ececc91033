//! Gradient synchronization across stage replicas.
//!
//! PipeDream synchronizes weight updates across the replicas of a
//! data-parallel stage before applying them (§4, "Parameter State"). The
//! replicas of a stage process *different* minibatches under round-robin
//! routing, but each performs the same number of backward passes at the
//! same cadence, so a round-based all_reduce is deadlock-free: the `k`-th
//! backward pass of every replica contributes to round `k`.
//!
//! **Averaged as read.** A round hands each replica every deposit, in
//! replica order, to read where it lies: the optimizer step of each
//! replica averages the deposits as it reads them
//! ([`pipedream_tensor::Grad::Round`]), so the group itself writes no
//! average and no copy of one. A deposit is an `Arc<GradSet>`; the group
//! and every reader drop their clones before the depositor uses the set
//! again, which [`GradSyncGroup::round`]'s caller arranges by depositing
//! two sets in turn: once round `k + 1` completes, every replica has
//! finished reading round `k`.
//!
//! **Stepped or blocking.** A stage worker takes part through
//! [`GradSyncGroup::poll_round`], which never blocks: it deposits when the
//! round is open for the replica, collects once the round is complete,
//! and otherwise says "not yet" and calls the replica's [`Waker`] when
//! that changes — the round completes, its last reader lets go of it, or
//! the group is poisoned. That is how a worker that shares its thread with
//! others waits without holding the thread. [`GradSyncGroup::round`] and
//! [`GradSyncGroup::allreduce`] are the same steps with a condition
//! variable wait between them, for callers that own their thread.
//!
//! That deadlock-freedom argument assumes every participant stays alive.
//! A replica that crashes mid-round would strand its partners inside the
//! rendezvous forever, so the group is **unstrandable** by construction:
//!
//! * every way in is fallible — it returns [`SyncError::PeerLost`] the
//!   moment the group is poisoned and [`SyncError::Timeout`] when the
//!   configured deadline, counted from when the participant began its
//!   round, expires;
//! * a dying participant (typed worker error, fault-injected kill, or
//!   channel disconnect) calls [`GradSyncGroup::poison`], waking every
//!   waiting partner immediately;
//! * a participant that *panics* inside a round step — the last
//!   depositor's shape check — poisons the group from the drop glue of an
//!   internal in-flight guard, so a partial round is always detectable and
//!   never waits on a wake that was lost with the panicking thread;
//! * the first participant to hit its deadline also poisons the group, so
//!   one detected stall fails the whole rendezvous fast instead of
//!   serializing `replicas` individual timeouts.

use pipedream_tensor::optim::round_mean;
use pipedream_tensor::{GradSet, Tensor};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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
    /// This round's deposits, by replica.
    deposits: Vec<Option<Arc<GradSet>>>,
    /// Replicas whose last step found the round not ready for them: the
    /// next change of the round wakes them.
    waiting: Vec<bool>,
    /// Every replica has deposited: the round is out for collection.
    complete: bool,
    /// Replicas that collected this round's deposits.
    collected: usize,
    /// Replica that poisoned the group, if any. Once set the group is
    /// permanently failed: every current and future round errs.
    poisoned: Option<usize>,
}

/// How a stepped participant is told that its round may have moved on: a
/// call from whichever thread moved it.
pub type Waker = Box<dyn Fn() + Send + Sync>;

/// A reusable all_reduce rendezvous for one replicated stage (or a BSP
/// data-parallel worker group).
pub struct GradSyncGroup {
    replicas: usize,
    /// Upper bound on any single blocking wait inside `allreduce`; `None`
    /// blocks until completion or poisoning.
    deadline: Option<Duration>,
    /// Per-replica wakers of stepped participants (empty when every
    /// participant blocks in [`GradSyncGroup::round`]).
    wakers: Vec<Waker>,
    state: Mutex<State>,
    cv: Condvar,
}

/// Poisons the group if a round step unwinds — the last depositor's shape
/// check panicking between the deposit and the wake-up. Disarmed on every
/// orderly exit.
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
            wakers: Vec::new(),
            state: Mutex::new(State {
                deposits: vec![None; replicas],
                waiting: vec![false; replicas],
                complete: false,
                collected: 0,
                poisoned: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Attach one [`Waker`] per replica (indexed by replica id), called
    /// when a round a [`GradSyncGroup::poll_round`] found not ready may
    /// have become ready for that replica.
    pub fn with_wakers(mut self, wakers: Vec<Waker>) -> Self {
        assert!(wakers.is_empty() || wakers.len() == self.replicas);
        self.wakers = wakers;
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
    /// every waiting participant with [`SyncError::PeerLost`]. Idempotent;
    /// the first poisoner wins.
    pub fn poison(&self, replica: usize) {
        let mut st = self.lock();
        if st.poisoned.is_none() {
            st.poisoned = Some(replica);
        }
        self.wake(&mut st);
    }

    /// The round moved on: wake every blocked participant, and every
    /// stepped one whose last step found it not ready.
    fn wake(&self, st: &mut State) {
        self.cv.notify_all();
        for (replica, waiting) in st.waiting.iter_mut().enumerate() {
            if std::mem::take(waiting) {
                if let Some(wake) = self.wakers.get(replica) {
                    wake();
                }
            }
        }
    }

    /// One step of `replica`'s part in the current round, never blocking:
    /// deposit `set` (taking it) once the round is open for the replica —
    /// every replica has collected the round before — then collect the
    /// round, every deposit in replica order, into `deposits` once every
    /// replica has deposited. `Ok(true)`: collected. `Ok(false)`: not yet,
    /// and the replica's [`Waker`] is called when that may have changed;
    /// step again with what is left of `set`. `started` is when the
    /// replica began the round: once the group's deadline has passed since
    /// then, the step fails with [`SyncError::Timeout`] and poisons the
    /// group. Fails with [`SyncError::PeerLost`] once the group is
    /// poisoned.
    ///
    /// The caller drops what it collected before it deposits again, and
    /// uses a set again only once the round after the one it went into
    /// has completed: by then every replica has read it. Panics (poisoning
    /// the group) if the deposits disagree in shape.
    pub fn poll_round(
        &self,
        replica: usize,
        set: &mut Option<Arc<GradSet>>,
        deposits: &mut Vec<Arc<GradSet>>,
        started: Instant,
    ) -> Result<bool, SyncError> {
        assert!(replica < self.replicas);
        let mut guard = InFlightGuard {
            group: self,
            replica,
            armed: true,
        };
        let done = self.step(&mut self.lock(), replica, set, deposits, started);
        guard.armed = false;
        done
    }

    fn step(
        &self,
        st: &mut State,
        replica: usize,
        set: &mut Option<Arc<GradSet>>,
        deposits: &mut Vec<Arc<GradSet>>,
        started: Instant,
    ) -> Result<bool, SyncError> {
        st.waiting[replica] = false;
        if let Some(p) = st.poisoned {
            return Err(SyncError::PeerLost { replica: p });
        }
        if set.is_some() {
            if st.deposits[replica].is_some() {
                // The round before is still being read.
                return self.not_yet(st, replica, started);
            }
            st.deposits[replica] = set.take();
            if st.deposits.iter().all(Option::is_some) {
                // The last depositor checks the round is one: every
                // replica's gradients of the same shapes.
                let first = st.deposits[0].as_ref().expect("all deposited");
                for d in st.deposits.iter().flatten() {
                    assert!(
                        d.grads.len() == first.grads.len()
                            && d.grads
                                .iter()
                                .zip(&first.grads)
                                .all(|(a, b)| a.shape() == b.shape()),
                        "gradient sync: replicas deposited gradients of different shapes"
                    );
                }
                st.complete = true;
                self.wake(st);
            }
        }
        if !st.complete {
            return self.not_yet(st, replica, started);
        }
        deposits.clear();
        deposits.extend(
            st.deposits
                .iter()
                .map(|d| Arc::clone(d.as_ref().expect("all deposited"))),
        );
        st.collected += 1;
        if st.collected == self.replicas {
            // Last collector: the round is over and the group lets go of it.
            st.collected = 0;
            st.complete = false;
            st.deposits.iter_mut().for_each(|d| *d = None);
            self.wake(st);
        }
        Ok(true)
    }

    /// The round is not ready for `replica`: fail it if its deadline has
    /// passed (first to give up poisons, so partners fail fast), else mark
    /// it waiting.
    fn not_yet(&self, st: &mut State, replica: usize, started: Instant) -> Result<bool, SyncError> {
        if let Some(limit) = self.deadline {
            let waited = started.elapsed();
            if waited >= limit {
                st.poisoned = Some(replica);
                self.wake(st);
                return Err(SyncError::Timeout {
                    waited_ms: waited.as_millis() as u64,
                });
            }
        }
        st.waiting[replica] = true;
        Ok(false)
    }

    /// Deposit `set` as `replica`'s part of the current round and collect
    /// the round: every deposit, in replica order, into `deposits`, for the
    /// caller to read where they lie. Blocks until every replica of the
    /// round has deposited, the group's deadline expires, or a peer is lost
    /// — the latter two fail with a typed [`SyncError`] instead of hanging.
    /// [`GradSyncGroup::poll_round`]'s steps, with a wait between them;
    /// the same rules for `set` hold.
    pub fn round(
        &self,
        replica: usize,
        set: Arc<GradSet>,
        deposits: &mut Vec<Arc<GradSet>>,
    ) -> Result<(), SyncError> {
        assert!(replica < self.replicas);
        let started = Instant::now();
        let mut guard = InFlightGuard {
            group: self,
            replica,
            armed: true,
        };
        let mut set = Some(set);
        let mut st = self.lock();
        while !self.step(&mut st, replica, &mut set, deposits, started)? {
            st = match self.deadline {
                None => self.cv.wait(st).unwrap_or_else(PoisonError::into_inner),
                Some(limit) => {
                    let left = limit.saturating_sub(started.elapsed());
                    self.cv
                        .wait_timeout(st, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
        guard.armed = false;
        Ok(())
    }

    /// Contribute this replica's gradients and receive the element-wise
    /// average across all replicas: [`GradSyncGroup::round`] for a caller
    /// that wants the average written out. Each replica reads every
    /// deposit and writes the whole average into tensors from its thread's
    /// pool; the last reader of a deposit gives its tensors back to its
    /// own pool, so a caller that recycles what it gets mostly draws
    /// recycled buffers. Fails as `round` does.
    pub fn allreduce(&self, replica: usize, grads: Vec<Tensor>) -> Result<Vec<Tensor>, SyncError> {
        if self.replicas == 1 {
            return Ok(grads);
        }
        let mut deposits = Vec::with_capacity(self.replicas);
        self.round(
            replica,
            Arc::new(GradSet { grads, count: 1 }),
            &mut deposits,
        )?;
        let mean = deposits[0]
            .grads
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let mut t = Tensor::scratch(g.shape());
                round_mean(&deposits, i, 0, t.data_mut());
                t
            })
            .collect();
        for set in deposits.drain(..).filter_map(Arc::into_inner) {
            set.grads.into_iter().for_each(Tensor::recycle);
        }
        Ok(mean)
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

    fn set(v: &[f32], count: u32) -> Arc<GradSet> {
        Arc::new(GradSet {
            grads: vec![t(v)],
            count,
        })
    }

    #[test]
    fn a_round_hands_every_replica_the_deposits_themselves_in_replica_order() {
        let g = Arc::new(GradSyncGroup::new(3));
        let deposits: Vec<Arc<GradSet>> = (0..3).map(|r| set(&[r as f32], r + 1)).collect();
        let handles: Vec<_> = (0..3)
            .map(|r| {
                let (g, mine) = (Arc::clone(&g), Arc::clone(&deposits[r]));
                thread::spawn(move || {
                    let mut round = Vec::new();
                    g.round(r, mine, &mut round).unwrap();
                    round
                })
            })
            .collect();
        for h in handles {
            let round = h.join().unwrap();
            assert_eq!(round.len(), 3);
            for (got, want) in round.iter().zip(&deposits) {
                // Read where it lies: the very tensors deposited.
                assert!(Arc::ptr_eq(got, want));
            }
        }
    }

    #[test]
    fn a_deposit_is_free_again_once_the_next_round_completes() {
        // Each replica deposits two sets in turn. Once round k + 1 is
        // complete, every replica has read round k, so the set deposited
        // there has no other holder: it can be written without a copy.
        let g = Arc::new(GradSyncGroup::new(2));
        let handles: Vec<_> = (0..2)
            .map(|r| {
                let g = Arc::clone(&g);
                thread::spawn(move || {
                    let mut sets = [set(&[0.0], 1), set(&[0.0], 1)];
                    let mut round = Vec::new();
                    let mut sums = Vec::new();
                    for k in 0..40 {
                        let q = k % 2;
                        Arc::get_mut(&mut sets[q])
                            .expect("read by every replica")
                            .grads[0]
                            .data_mut()[0] = (k * 2 + r) as f32;
                        g.round(r, Arc::clone(&sets[q]), &mut round).unwrap();
                        let mut mean = [0.0f32];
                        round_mean(&round, 0, 0, &mut mean);
                        sums.push(mean[0]);
                        round.clear();
                    }
                    sums
                })
            })
            .collect();
        for h in handles {
            let sums = h.join().unwrap();
            let want: Vec<f32> = (0..40).map(|k| (4 * k + 1) as f32 / 2.0).collect();
            assert_eq!(sums, want);
        }
    }

    #[test]
    fn the_mean_as_read_rounds_as_the_all_reduce_did() {
        // Each deposit scaled by 1 / its count, summed in replica order,
        // the sum scaled by 1 / replicas: bit for bit the tensor ops an
        // all-reduce into one buffer ran.
        let vals = [
            [0.1f32, -3.7, 1e-7, 2.5],
            [7.3, 0.2, -1e-6, 1.25],
            [-0.4, 9.9, 3.3, -2.0],
        ];
        for counts in [[1, 1, 1], [2, 1, 3], [4, 4, 4]] {
            for replicas in 2..=3 {
                let sets: Vec<Arc<GradSet>> =
                    (0..replicas).map(|r| set(&vals[r], counts[r])).collect();
                let mut got = [0.0f32; 4];
                round_mean(&sets, 0, 0, &mut got);
                let mut want = t(&vals[0]);
                if counts[0] > 1 {
                    want.scale_inplace(1.0 / counts[0] as f32);
                }
                for r in 1..replicas {
                    let mut d = t(&vals[r]);
                    if counts[r] > 1 {
                        d.scale_inplace(1.0 / counts[r] as f32);
                    }
                    want.axpy(1.0, &d);
                }
                want.scale_inplace(1.0 / replicas as f32);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&got),
                    bits(want.data()),
                    "counts {counts:?}, {replicas} replicas"
                );
            }
        }
    }

    /// Two replicas stepped on one thread: a step that finds the round not
    /// ready says so and wakes the replica once it may be; every step of a
    /// failed group errs, and poisoning wakes a waiting replica.
    #[test]
    fn a_stepped_round_waits_without_blocking_and_wakes_the_waiting() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let woken: Arc<[AtomicUsize; 2]> = Arc::new(Default::default());
        let wakers = (0..2)
            .map(|r| {
                let woken = Arc::clone(&woken);
                Box::new(move || {
                    woken[r].fetch_add(1, Ordering::SeqCst);
                }) as Waker
            })
            .collect();
        let g = GradSyncGroup::new(2).with_wakers(wakers);
        let now = Instant::now();
        let woke = |r: usize| woken[r].load(Ordering::SeqCst);
        let (mut a, mut b) = (Some(set(&[1.0], 1)), Some(set(&[3.0], 1)));
        let (mut ra, mut rb) = (Vec::new(), Vec::new());
        // Replica 0 deposits; the round is not complete.
        assert_eq!(g.poll_round(0, &mut a, &mut ra, now), Ok(false));
        assert!(a.is_none(), "the round took the deposit");
        assert_eq!(woke(0), 0);
        // Replica 1 completes it, which wakes replica 0, and collects.
        assert_eq!(g.poll_round(1, &mut b, &mut rb, now), Ok(true));
        assert_eq!((woke(0), woke(1)), (1, 0));
        // Replica 1's next round is not open until replica 0 has read.
        let mut b = Some(set(&[5.0], 1));
        assert_eq!(g.poll_round(1, &mut b, &mut rb, now), Ok(false));
        assert!(b.is_some(), "a closed round takes no deposit");
        assert_eq!(g.poll_round(0, &mut None, &mut ra, now), Ok(true));
        let mut mean = [0.0f32];
        round_mean(&ra, 0, 0, &mut mean);
        assert_eq!(mean, [2.0]);
        assert_eq!(woke(1), 1, "the last reader opens the next round");
        assert_eq!(g.poll_round(1, &mut b, &mut rb, now), Ok(false));
        // Replica 0 dies: replica 1, waiting, is woken into the failure.
        g.poison(0);
        assert_eq!(woke(1), 2);
        assert_eq!(
            g.poll_round(1, &mut None, &mut rb, now),
            Err(SyncError::PeerLost { replica: 0 })
        );
    }

    /// A stepped replica whose deadline has passed since it began its
    /// round fails with `Timeout` and poisons the group.
    #[test]
    fn a_stepped_round_times_out_from_when_it_began() {
        let g = GradSyncGroup::with_deadline(2, Duration::from_millis(20));
        let began = Instant::now();
        let mut round = Vec::new();
        let mut a = Some(set(&[1.0], 1));
        assert_eq!(g.poll_round(0, &mut a, &mut round, began), Ok(false));
        thread::sleep(Duration::from_millis(25));
        assert!(matches!(
            g.poll_round(0, &mut a, &mut round, began),
            Err(SyncError::Timeout { .. })
        ));
        assert_eq!(g.poisoned_by(), Some(0));
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
