//! The executor: stage workers stepped on as many threads as the process
//! has CPUs.
//!
//! PipeDream's runtime has each stage drain a work queue (§4). Here every
//! stage worker is a stepped state machine ([`Running::poll`]), and
//! [`Executor::run`] spreads the run's workers over `T` threads — one
//! contiguous block of workers each, workers numbered stage by stage — so
//! only block boundaries cross threads. Each thread owns one inbox, which
//! carries the messages for its workers, a gradient-sync round's wakes
//! and the notices that a peer ended. A thread polls its ready workers
//! one at a time; a worker runs until its next op waits, and the thread
//! blocks on its inbox only once none of its workers can run, with a
//! timeout at the earliest deadline one of them waits for (a receive or
//! sync deadline, an injected send delay). So a hand-off between two
//! workers of one thread is a channel push, not a wake-up and a context
//! switch, and with one worker per thread this is one thread per worker
//! blocking in its receive.
//!
//! Which ready worker runs next changes no result: a worker's op order is
//! its own, a message waits in its early map for its op, and a sync round
//! reads the deposits in replica order. [`next_ready`] takes the one
//! ready the longest; a test may draw it at random instead, from a seed
//! (see [`Stepping`]).
//!
//! A worker that ends — its ops done, or failed — has sent everything it
//! ever will, so its peers' threads get an [`Note::Ended`] after its last
//! message: a peer waiting for a message from it alone fails typed, as a
//! closed channel made it fail when each worker had its own. A send to a
//! worker that has ended fails. A thread that panics ends its workers the
//! same way, their sync groups poisoned, so no peer is stranded.

use crate::fault::WorkerError;
use crate::message::Msg;
use crate::report::WorkerLog;
use crate::sync::Waker;
use crate::worker::{Poll, Running, StageWorker};
use pipedream_tensor::Sequential;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// What a thread's inbox carries, each for one of its workers.
pub(crate) enum Note {
    /// A message for the worker.
    Msg(usize, Msg),
    /// The worker's gradient-sync round may have moved on.
    Wake(usize),
    /// Worker `.0` ended: its neighbours on the thread hear from it no
    /// more.
    Ended(usize),
}

/// Where a worker sends to one peer.
#[derive(Clone)]
pub(crate) struct Link {
    worker: usize,
    inbox: Sender<Note>,
    ended: Arc<[AtomicBool]>,
}

impl Link {
    /// Send `msg` to the peer. Fails once the peer has ended.
    pub(crate) fn send(&self, msg: Msg) -> Result<(), Msg> {
        if self.ended[self.worker].load(Ordering::Acquire) {
            return Err(msg);
        }
        self.inbox
            .send(Note::Msg(self.worker, msg))
            .map_err(|e| match e.0 {
                Note::Msg(_, msg) => msg,
                _ => unreachable!("a message was sent"),
            })
    }
}

/// How a run's workers are stepped, past the default: a test's seeded
/// interleavings.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Stepping {
    /// Threads to run on; `None` takes one per CPU the process may use,
    /// at most one per worker.
    pub threads: Option<usize>,
    /// Draw the next ready worker of each thread at random from this seed
    /// instead of taking the one ready the longest.
    pub seed: Option<u64>,
}

/// One run's threads, their inboxes, and who sits where.
pub(crate) struct Executor {
    shared: Shared,
    /// Each thread's inbox, receiving end.
    receivers: Vec<Receiver<Note>>,
    seed: Option<u64>,
}

impl Executor {
    /// The threads for workers of stages `stage_of` (workers numbered
    /// stage by stage): one per CPU the process may use, at most one per
    /// worker, unless `stepping` says otherwise.
    pub(crate) fn new(stage_of: Vec<usize>, stepping: Stepping) -> Executor {
        let workers = stage_of.len();
        let cpus = || thread::available_parallelism().map_or(1, |n| n.get());
        let threads = stepping
            .threads
            .unwrap_or_else(cpus)
            .clamp(1, workers.max(1));
        // Thread `t` owns workers `⌊t·W/T⌋ .. ⌊(t+1)·W/T⌋`.
        let thread_of = (0..workers)
            .map(|w| ((w + 1) * threads - 1) / workers)
            .collect();
        let (inboxes, receivers) = (0..threads).map(|_| channel()).unzip();
        Executor {
            shared: Shared {
                stage_of,
                thread_of,
                inboxes,
                ended: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            },
            receivers,
            seed: stepping.seed,
        }
    }

    /// How many threads the run uses.
    pub(crate) fn threads(&self) -> usize {
        self.receivers.len()
    }

    /// Where to send to `worker`.
    pub(crate) fn link(&self, worker: usize) -> Link {
        Link {
            worker,
            inbox: self.shared.inbox_of(worker),
            ended: Arc::clone(&self.shared.ended),
        }
    }

    /// What wakes `worker` when its sync round moves on.
    pub(crate) fn waker(&self, worker: usize) -> Waker {
        let inbox = self.shared.inbox_of(worker);
        Box::new(move || {
            // A thread that has gone has no worker left to wake.
            let _ = inbox.send(Note::Wake(worker));
        })
    }

    /// Run `workers` (in worker order) to their ends; every worker's log
    /// and result, in worker order.
    pub(crate) fn run(
        self,
        workers: Vec<StageWorker<'_>>,
    ) -> Vec<(WorkerLog, Result<Sequential, WorkerError>)> {
        let Executor {
            shared,
            receivers,
            seed,
        } = self;
        assert_eq!(workers.len(), shared.stage_of.len());
        let mut workers = workers.into_iter();
        thread::scope(|scope| {
            let handles: Vec<_> = receivers
                .into_iter()
                .enumerate()
                .map(|(t, inbox)| {
                    let first = shared.thread_of.partition_point(|&u| u < t);
                    let count = shared.thread_of[first..].partition_point(|&u| u == t);
                    let block: Vec<_> = workers.by_ref().take(count).collect();
                    let rng = seed.map(|s| s ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                    let shared = &shared;
                    scope.spawn(move || {
                        let mut thread = Thread {
                            shared,
                            first,
                            inbox,
                            slots: block.into_iter().map(Slot::new).collect(),
                            ready: (0..count).collect(),
                            rng,
                        };
                        thread.run()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker thread panicked"))
                .collect()
        })
    }
}

/// What every thread of a run reads.
struct Shared {
    /// The stage of each worker, and its thread.
    stage_of: Vec<usize>,
    thread_of: Vec<usize>,
    /// Each thread's inbox.
    inboxes: Vec<Sender<Note>>,
    /// Workers that have ended.
    ended: Arc<[AtomicBool]>,
}

impl Shared {
    /// The inbox of `worker`'s thread.
    fn inbox_of(&self, worker: usize) -> Sender<Note> {
        self.inboxes[self.thread_of[worker]].clone()
    }

    /// Worker `w` ended: say so to the threads of the stages next to it,
    /// after whatever it sent them.
    fn ended(&self, w: usize) {
        self.ended[w].store(true, Ordering::Release);
        let stage = self.stage_of[w];
        let mut told: Option<usize> = None;
        for (v, &s) in self.stage_of.iter().enumerate() {
            let t = self.thread_of[v];
            if s.abs_diff(stage) == 1 && told != Some(t) {
                // Workers are numbered stage by stage, so one thread's
                // neighbours of `w` come one after the other.
                let _ = self.inboxes[t].send(Note::Ended(w));
                told = Some(t);
            }
        }
    }
}

/// One worker on a thread.
struct Slot<'a> {
    /// The worker, until it ends.
    run: Option<Running<'a>>,
    /// What it ended with.
    out: Option<(WorkerLog, Result<Sequential, WorkerError>)>,
    /// In the ready queue.
    queued: bool,
    /// When it must run again whatever arrives.
    wake_at: Option<Instant>,
}

impl<'a> Slot<'a> {
    fn new(worker: StageWorker<'a>) -> Slot<'a> {
        Slot {
            run: Some(worker.start()),
            out: None,
            queued: true,
            wake_at: None,
        }
    }
}

/// One thread of a run: its block of workers from `first` on.
struct Thread<'s, 'a> {
    shared: &'s Shared,
    first: usize,
    inbox: Receiver<Note>,
    slots: Vec<Slot<'a>>,
    /// Local indices of the workers that may run.
    ready: VecDeque<usize>,
    rng: Option<u64>,
}

impl Thread<'_, '_> {
    fn run(&mut self) -> Vec<(WorkerLog, Result<Sequential, WorkerError>)> {
        if let Err(panic) = panic::catch_unwind(AssertUnwindSafe(|| self.step_all())) {
            // End every worker still running, so none of their peers waits
            // for them, and let the panic go on.
            for (i, slot) in self.slots.iter_mut().enumerate() {
                if let Some(run) = slot.run.take() {
                    run.abandon();
                    self.shared.ended(self.first + i);
                }
            }
            panic::resume_unwind(panic);
        }
        self.slots
            .iter_mut()
            .map(|s| s.out.take().expect("every worker ended"))
            .collect()
    }

    /// Poll ready workers until every one has ended.
    fn step_all(&mut self) {
        let mut live = self.slots.len();
        while live > 0 {
            while let Ok(note) = self.inbox.try_recv() {
                self.take(note);
            }
            if self.slots.iter().any(|s| s.wake_at.is_some()) {
                let now = Instant::now();
                for i in 0..self.slots.len() {
                    if self.slots[i].wake_at.is_some_and(|at| at <= now) {
                        self.queue(i);
                    }
                }
            }
            if let Some(i) = next_ready(&mut self.ready, self.rng.as_mut()) {
                let slot = &mut self.slots[i];
                slot.queued = false;
                slot.wake_at = None;
                let run = slot.run.as_mut().expect("only a running worker is queued");
                match run.poll() {
                    Poll::Wait(until) => slot.wake_at = until,
                    Poll::Done(outcome) => {
                        let run = slot.run.take().expect("it just ran");
                        slot.out = Some(run.finish(outcome));
                        live -= 1;
                        self.shared.ended(self.first + i);
                    }
                }
                continue;
            }
            // Nothing can run: wait for a note, or the earliest deadline.
            let note = match self.slots.iter().filter_map(|s| s.wake_at).min() {
                None => Some(self.inbox.recv().expect("the thread holds its own inbox")),
                Some(at) => match self
                    .inbox
                    .recv_timeout(at.saturating_duration_since(Instant::now()))
                {
                    Ok(note) => Some(note),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => {
                        unreachable!("the thread holds its own inbox")
                    }
                },
            };
            if let Some(note) = note {
                self.take(note);
            }
        }
    }

    /// Queue local worker `i` to run, unless it is queued or ended.
    fn queue(&mut self, i: usize) {
        let slot = &mut self.slots[i];
        if !slot.queued && slot.run.is_some() {
            slot.queued = true;
            self.ready.push_back(i);
        }
    }

    fn take(&mut self, note: Note) {
        match note {
            Note::Msg(w, msg) => {
                let i = w - self.first;
                // A worker that has ended drops what still comes for it.
                if let Some(run) = self.slots[i].run.as_mut() {
                    run.deliver(msg);
                    self.queue(i);
                }
            }
            Note::Wake(w) => self.queue(w - self.first),
            Note::Ended(w) => {
                let stage = self.shared.stage_of[w];
                for i in 0..self.slots.len() {
                    if let Some(run) = self.slots[i].run.as_mut() {
                        if run.peer_ended(stage) {
                            self.queue(i);
                        }
                    }
                }
            }
        }
    }
}

/// Which ready worker runs next: the one ready the longest, or — given a
/// generator state — one drawn at random.
pub(crate) fn next_ready(ready: &mut VecDeque<usize>, rng: Option<&mut u64>) -> Option<usize> {
    match rng {
        None => ready.pop_front(),
        Some(_) if ready.is_empty() => None,
        Some(state) => {
            // SplitMix64.
            *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            ready.swap_remove_back((z % ready.len() as u64) as usize)
        }
    }
}

#[cfg(test)]
mod interleavings;
