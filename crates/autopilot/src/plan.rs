//! Deterministic fault-injection plans.
//!
//! A plan names faults and the exact points in the schedule where they
//! fire, so every run of a faulted training job fails identically —
//! recovery tests stay reproducible. Specs are compact strings, designed
//! for a CLI flag; a plan lists one or more, separated by `;`:
//!
//! ```text
//! kill:stage=1,mb=37            crash stage 1 (replica 0) at minibatch 37
//! kill:stage=1,replica=1,mb=37  crash a specific replica
//! delay:stage=0,mb=5,ms=40      delay one activation send by 40 ms
//! drop:stage=0,mb=5             lose one activation send on the wire
//! corrupt:stage=2,epoch=1       corrupt stage 2's epoch-1 checkpoint
//! corrupt:stage=2,epoch=1,mode=truncate   …by truncating it instead
//! straggle:stage=1,ms=3         delay *every* activation send from stage 1
//! kill:stage=1,mb=20;kill:stage=0,mb=45   two kills
//! ```
//!
//! Minibatch ids are the logical run's — the runtime shows a hook
//! `done + mb` — so a plan installed in every segment of a run names the
//! same minibatch in whichever segment executes it. Each fault fires once
//! (an atomic one-shot that records the instant it fired, which the
//! relaunch loop subtracts from the coordinator's detection time), except
//! `straggle`: a persistent slowdown that fires on every matching send and
//! never kills, modelling a degraded host for the drift detector and the
//! replan advisor, where a one-shot fault would vanish between profiler
//! windows.
//!
//! The runtime executes a send delay inside the worker's forward pass as a
//! `SendWait` span nested in the recorded `Fwd`. The trace attribution
//! types that stall as `backpressure` — part of the stage's per-minibatch
//! *service* time, because only this stage can absorb it — so the drift
//! detector sees a straggler run over its predicted time, and `pipedream
//! analyze` shows the same seconds as its downstream neighbour's
//! `wait_upstream`. The injection point is the forward *send*, so a
//! delayed stage must not be the last one (which sends nothing
//! downstream).

use pipedream_core::schedule::Op;
use pipedream_runtime::fault::{FaultAction, FaultHook, SendAction};
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How a `corrupt:` fault damages the checkpoint file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptMode {
    /// Overwrite the file with non-JSON garbage.
    Garbage,
    /// Cut the file in half mid-JSON, like a writer that died without the
    /// atomic rename.
    Truncate,
}

/// One fault of a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Crash `stage`/`replica` just before it executes its op for
    /// minibatch `mb` — a silent death, like a machine failure.
    Kill {
        /// Stage to kill.
        stage: usize,
        /// Replica within the stage.
        replica: usize,
        /// Minibatch whose op triggers the crash.
        mb: u64,
    },
    /// Delay `stage`'s activation send for minibatch `mb` once.
    Delay {
        /// Sending stage.
        stage: usize,
        /// Delayed minibatch.
        mb: u64,
        /// Delay duration.
        ms: u64,
    },
    /// Drop `stage`'s activation send for minibatch `mb` once. The
    /// receiver stalls until the plan's receive timeout expires, then
    /// fails; the relaunch loop restarts from the last checkpoint.
    Drop {
        /// Sending stage.
        stage: usize,
        /// Dropped minibatch.
        mb: u64,
    },
    /// Corrupt the checkpoint `stage` writes at the end of `epoch`.
    Corrupt {
        /// Stage whose checkpoint is damaged.
        stage: usize,
        /// Epoch of the damaged checkpoint.
        epoch: usize,
        /// Kind of damage.
        mode: CorruptMode,
    },
    /// Delay every activation send from `stage`, for the whole run.
    Straggle {
        /// Slowed-down stage.
        stage: usize,
        /// Delay per send.
        ms: u64,
    },
}

/// A fault-injection plan; implements the runtime's [`FaultHook`].
pub struct FaultPlan {
    spec: String,
    /// Each fault with its own spec, in the order listed.
    faults: Vec<(Fault, String)>,
    /// One-shot faults fired so far (index into `faults`), in firing
    /// order, with the instant each fired.
    fired: Mutex<Vec<(usize, Instant)>>,
    /// Sends delayed by `straggle:` faults.
    straggled: AtomicU64,
}

/// Parse one `kind:k=v,...` fault.
fn parse_fault(spec: &str) -> Result<Fault, String> {
    let (kind, rest) = spec
        .split_once(':')
        .ok_or_else(|| format!("fault spec '{spec}' missing ':' (want kind:k=v,...)"))?;
    let mut stage = None;
    let mut replica = 0usize;
    let mut mb = None;
    let mut ms = None;
    let mut epoch = None;
    let mut mode = CorruptMode::Garbage;
    for pair in rest.split(',').filter(|p| !p.is_empty()) {
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| format!("fault spec field '{pair}' is not k=v"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("fault spec field '{k}={v}' is not a number"))
        };
        match k {
            "stage" => stage = Some(num(v)? as usize),
            "replica" => replica = num(v)? as usize,
            "mb" => mb = Some(num(v)?),
            "ms" => ms = Some(num(v)?),
            "epoch" => epoch = Some(num(v)?),
            "mode" => {
                mode = match v {
                    "garbage" => CorruptMode::Garbage,
                    "truncate" => CorruptMode::Truncate,
                    _ => return Err(format!("unknown corrupt mode '{v}'")),
                }
            }
            _ => return Err(format!("unknown fault spec field '{k}'")),
        }
    }
    let stage = stage.ok_or_else(|| format!("fault spec '{spec}' missing stage="))?;
    let need = |field: Option<u64>, name: &str| {
        field.ok_or_else(|| format!("fault spec '{spec}' missing {name}="))
    };
    Ok(match kind {
        "kill" => Fault::Kill {
            stage,
            replica,
            mb: need(mb, "mb")?,
        },
        "delay" => Fault::Delay {
            stage,
            mb: need(mb, "mb")?,
            ms: need(ms, "ms")?,
        },
        "drop" => Fault::Drop {
            stage,
            mb: need(mb, "mb")?,
        },
        "corrupt" => Fault::Corrupt {
            stage,
            epoch: need(epoch, "epoch")? as usize,
            mode,
        },
        "straggle" => Fault::Straggle {
            stage,
            ms: need(ms, "ms")?,
        },
        _ => {
            return Err(format!(
                "unknown fault kind '{kind}' (want kill|delay|drop|corrupt|straggle)"
            ))
        }
    })
}

impl FaultPlan {
    /// Parse a plan from its spec string: one or more faults separated by
    /// `;` (see the module docs for the grammar).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let faults = spec
            .split(';')
            .map(|one| parse_fault(one).map(|f| (f, one.to_string())))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FaultPlan {
            spec: spec.to_string(),
            faults,
            fired: Mutex::new(Vec::new()),
            straggled: AtomicU64::new(0),
        })
    }

    /// The plan's faults, in the order listed.
    pub fn faults(&self) -> impl Iterator<Item = &Fault> {
        self.faults.iter().map(|(f, _)| f)
    }

    /// The spec string, for reports.
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// Whether any fault has fired.
    pub fn fired(&self) -> bool {
        self.straggled() > 0 || !self.fired_shots().is_empty()
    }

    /// Number of sends `straggle:` faults have delayed so far.
    pub fn straggled(&self) -> u64 {
        self.straggled.load(Ordering::Relaxed)
    }

    /// The one-shot faults fired so far, in firing order: each with its
    /// own spec and the instant it fired.
    pub fn fired_shots(&self) -> Vec<(&Fault, &str, Instant)> {
        self.fired
            .lock()
            .unwrap()
            .iter()
            .map(|&(i, at)| (&self.faults[i].0, self.faults[i].1.as_str(), at))
            .collect()
    }

    /// Whether a fault matching `kind` has yet to fire.
    fn pending(&self, kind: impl Fn(&Fault) -> bool) -> bool {
        let fired = self.fired.lock().expect("no panic holds the fired log");
        (self.faults.iter().enumerate())
            .any(|(i, (f, _))| kind(f) && fired.iter().all(|s| s.0 != i))
    }

    /// Claim fault `i`'s one shot; true exactly once.
    fn fire(&self, i: usize) -> bool {
        let mut fired = self.fired.lock().expect("no panic holds the fired log");
        let first = fired.iter().all(|&(j, _)| j != i);
        if first {
            fired.push((i, Instant::now()));
        }
        first
    }
}

impl FaultHook for FaultPlan {
    fn before_op(&self, stage: usize, replica: usize, op: &Op) -> FaultAction {
        for (i, (fault, _)) in self.faults.iter().enumerate() {
            if let Fault::Kill {
                stage: s,
                replica: r,
                mb,
            } = *fault
            {
                if stage == s && replica == r && op.minibatch() == Some(mb) && self.fire(i) {
                    return FaultAction::Kill;
                }
            }
        }
        FaultAction::Continue
    }

    fn on_forward_send(&self, stage: usize, mb: u64) -> SendAction {
        // One-shots first: a straggler on the same stage must not shadow
        // them.
        let mut straggle = None;
        for (i, (fault, _)) in self.faults.iter().enumerate() {
            match *fault {
                Fault::Delay {
                    stage: s,
                    mb: m,
                    ms,
                } if stage == s && mb == m && self.fire(i) => {
                    return SendAction::Delay(Duration::from_millis(ms))
                }
                Fault::Drop { stage: s, mb: m } if stage == s && mb == m && self.fire(i) => {
                    return SendAction::Drop
                }
                Fault::Straggle { stage: s, ms } if stage == s => straggle = Some(ms),
                _ => {}
            }
        }
        match straggle {
            Some(ms) => {
                self.straggled.fetch_add(1, Ordering::Relaxed);
                SendAction::Delay(Duration::from_millis(ms))
            }
            None => SendAction::Deliver,
        }
    }

    fn on_checkpoint_written(&self, path: &Path, stage: usize, epoch: usize) {
        for (i, (fault, _)) in self.faults.iter().enumerate() {
            if let Fault::Corrupt {
                stage: s,
                epoch: e,
                mode,
            } = *fault
            {
                if stage == s && epoch == e && self.fire(i) {
                    match mode {
                        CorruptMode::Garbage => {
                            let _ = fs::write(path, "\x7fELF not a checkpoint");
                        }
                        CorruptMode::Truncate => {
                            if let Ok(full) = fs::read(path) {
                                let _ = fs::write(path, &full[..full.len() / 2]);
                            }
                        }
                    }
                }
            }
        }
    }

    fn recv_timeout(&self) -> Option<Duration> {
        // Only a drop can stall a worker forever; bound waits while one is
        // still to fire, so the stalled receiver fails and the relaunch
        // loop takes over. A segment started after it fired waits as the
        // fault-free runtime does.
        self.pending(|f| matches!(f, Fault::Drop { .. }))
            .then_some(Duration::from_millis(400))
    }

    fn sync_deadline(&self) -> Option<Duration> {
        // A kill or drop still to fire may strand a replicated stage
        // mid-all_reduce; tighten the production deadline so the
        // survivors' SyncStalled surfaces (and the relaunch loop restarts)
        // within test-scale time. Once they have fired, the production
        // deadline holds again.
        self.pending(|f| matches!(f, Fault::Kill { .. } | Fault::Drop { .. }))
            .then_some(Duration::from_secs(2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(spec: &str) -> Fault {
        let p = FaultPlan::parse(spec).unwrap();
        assert_eq!(p.faults().count(), 1);
        let fault = p.faults().next().unwrap().clone();
        fault
    }

    #[test]
    fn parses_every_kind() {
        assert_eq!(
            one("kill:stage=1,mb=37"),
            Fault::Kill {
                stage: 1,
                replica: 0,
                mb: 37
            }
        );
        assert_eq!(
            one("kill:stage=2,replica=1,mb=9"),
            Fault::Kill {
                stage: 2,
                replica: 1,
                mb: 9
            }
        );
        assert_eq!(
            one("delay:stage=0,mb=5,ms=40"),
            Fault::Delay {
                stage: 0,
                mb: 5,
                ms: 40
            }
        );
        assert_eq!(one("drop:stage=0,mb=5"), Fault::Drop { stage: 0, mb: 5 });
        assert_eq!(
            one("corrupt:stage=2,epoch=1,mode=truncate"),
            Fault::Corrupt {
                stage: 2,
                epoch: 1,
                mode: CorruptMode::Truncate
            }
        );
        assert_eq!(
            one("straggle:stage=1,ms=3"),
            Fault::Straggle { stage: 1, ms: 3 }
        );
    }

    #[test]
    fn a_list_is_its_faults_in_order() {
        let p = FaultPlan::parse("kill:stage=1,mb=24;kill:stage=0,mb=45").unwrap();
        assert_eq!(p.spec(), "kill:stage=1,mb=24;kill:stage=0,mb=45");
        let mbs: Vec<_> = p
            .faults()
            .map(|f| match f {
                Fault::Kill { mb, .. } => *mb,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(mbs, vec![24, 45]);
        // Each fires at its own point; the shots name their own specs.
        assert_eq!(
            p.before_op(0, 0, &Op::Forward { mb: 45 }),
            FaultAction::Kill
        );
        assert_eq!(
            p.before_op(1, 0, &Op::Forward { mb: 24 }),
            FaultAction::Kill
        );
        let specs: Vec<&str> = p.fired_shots().iter().map(|s| s.1).collect();
        assert_eq!(specs, vec!["kill:stage=0,mb=45", "kill:stage=1,mb=24"]);
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(FaultPlan::parse("kill").is_err());
        assert!(FaultPlan::parse("explode:stage=1,mb=2").is_err());
        assert!(FaultPlan::parse("kill:stage=1").is_err()); // missing mb
        assert!(FaultPlan::parse("kill:mb=2").is_err()); // missing stage
        assert!(FaultPlan::parse("kill:stage=x,mb=2").is_err());
        assert!(FaultPlan::parse("corrupt:stage=1,epoch=0,mode=eat").is_err());
        assert!(FaultPlan::parse("straggle:stage=1").is_err()); // missing ms

        // Malformed lists: an empty entry, or a bad one among good ones.
        assert!(FaultPlan::parse("kill:stage=1,mb=2;").is_err());
        assert!(FaultPlan::parse(";;").is_err());
        assert!(FaultPlan::parse("kill:stage=1,mb=2;explode:stage=0").is_err());
    }

    #[test]
    fn kill_fires_exactly_once_at_the_right_op() {
        let p = FaultPlan::parse("kill:stage=1,mb=3").unwrap();
        assert_eq!(
            p.before_op(0, 0, &Op::Forward { mb: 3 }),
            FaultAction::Continue
        );
        assert_eq!(
            p.before_op(1, 0, &Op::Forward { mb: 2 }),
            FaultAction::Continue
        );
        assert!(!p.fired());
        assert_eq!(p.before_op(1, 0, &Op::Forward { mb: 3 }), FaultAction::Kill);
        assert!(p.fired());
        assert_eq!(p.fired_shots().len(), 1);
        // One-shot: a replay of the same op no longer kills.
        assert_eq!(
            p.before_op(1, 0, &Op::Backward { mb: 3 }),
            FaultAction::Continue
        );
        assert_eq!(p.fired_shots().len(), 1);
    }

    #[test]
    fn delay_fires_once() {
        let p = FaultPlan::parse("delay:stage=0,mb=5,ms=40").unwrap();
        assert_eq!(p.on_forward_send(0, 4), SendAction::Deliver);
        assert_eq!(
            p.on_forward_send(0, 5),
            SendAction::Delay(Duration::from_millis(40))
        );
        assert_eq!(p.on_forward_send(0, 5), SendAction::Deliver);
        assert_eq!(p.fired_shots().len(), 1);
    }

    #[test]
    fn straggle_fires_on_every_matching_send_and_never_kills() {
        let p = FaultPlan::parse("straggle:stage=1,ms=5;drop:stage=1,mb=2").unwrap();
        let slow = SendAction::Delay(Duration::from_millis(5));
        for mb in 0..4 {
            assert_eq!(
                p.before_op(1, 0, &Op::Forward { mb }),
                FaultAction::Continue
            );
            assert_eq!(p.on_forward_send(0, mb), SendAction::Deliver);
            // The drop keeps its one shot; every other send straggles.
            let want = if mb == 2 { SendAction::Drop } else { slow };
            assert_eq!(p.on_forward_send(1, mb), want);
        }
        assert_eq!(p.on_forward_send(1, 2), slow);
        assert_eq!(p.straggled(), 4);
        assert!(p.fired());
        // Only the drop is a shot: a straggler never triggers a restart.
        let kinds: Vec<&Fault> = p.fired_shots().iter().map(|s| s.0).collect();
        assert_eq!(kinds, vec![&Fault::Drop { stage: 1, mb: 2 }]);
    }

    #[test]
    fn waits_are_bounded_only_while_a_kill_or_drop_is_pending() {
        let p = FaultPlan::parse("drop:stage=0,mb=5").unwrap();
        assert!(p.recv_timeout().is_some());
        assert!(p.sync_deadline().is_some());
        assert_eq!(p.on_forward_send(0, 4), SendAction::Deliver);
        assert_eq!(p.on_forward_send(0, 5), SendAction::Drop);
        // One-shot: spent, so a segment launched from here on waits as the
        // fault-free runtime does.
        assert_eq!(p.on_forward_send(0, 5), SendAction::Deliver);
        assert!(p.recv_timeout().is_none());
        assert!(p.sync_deadline().is_none());
        // A kill tightens only the sync deadline, until it fires; a
        // straggler, for its whole run, never does.
        let p = FaultPlan::parse("straggle:stage=0,ms=3;kill:stage=1,mb=4").unwrap();
        assert!(p.recv_timeout().is_none());
        assert_eq!(p.sync_deadline(), Some(Duration::from_secs(2)));
        assert_eq!(p.before_op(1, 0, &Op::Forward { mb: 4 }), FaultAction::Kill);
        assert_eq!(p.sync_deadline(), None);
    }
}
