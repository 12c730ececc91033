//! Keeping a workload on one CPU.
//!
//! On the two shared vCPUs this benchmark runs on, waking a thread on the
//! other vCPU costs 20 to 75 µs depending on what the host is doing, against
//! 2 µs for a context switch on the same one, and the scheduler moves a
//! client and the server thread that answers it together or apart for
//! minutes at a time. A request-reply latency measured across that is the
//! hypervisor's, not the program's. A workload that ping-pongs between
//! threads therefore pins itself, and every thread started after, to one CPU.

/// A `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

#[cfg(target_os = "linux")]
fn get() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: pid 0 is the calling thread; `set` is a live, writable buffer
    // of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    (rc == 0).then_some(set)
}

#[cfg(target_os = "linux")]
fn set(set: &CpuSet) -> bool {
    // SAFETY: pid 0 is the calling thread; `set` is a live buffer of exactly
    // the size passed, which the call only reads.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn get() -> Option<CpuSet> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set(_: &CpuSet) -> bool {
    false
}

/// The highest-numbered CPU of `allowed` alone (CPU 0 takes most of a
/// guest's interrupts), or `None` if `allowed` is empty.
fn last_cpu_only(allowed: &CpuSet) -> Option<CpuSet> {
    let word = allowed.iter().rposition(|&w| w != 0)?;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << (63 - allowed[word].leading_zeros());
    Some(one)
}

/// While this lives, the thread that made it runs on one CPU, and so does
/// every thread it starts (a new thread inherits its parent's CPU set).
pub struct Pinned {
    before: CpuSet,
}

impl Pinned {
    /// Pin the calling thread to the last CPU it may run on. `None`, and
    /// nothing changed, where the platform cannot.
    pub fn to_one_cpu() -> Option<Pinned> {
        let before = get()?;
        set(&last_cpu_only(&before)?).then_some(Pinned { before })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        set(&self.before);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_last_allowed_cpu_is_chosen() {
        let mut allowed: CpuSet = [0; 16];
        assert_eq!(last_cpu_only(&allowed), None);
        allowed[0] = 0b1011;
        allowed[1] = 0b0110;
        let one = last_cpu_only(&allowed).unwrap();
        assert_eq!((one[0], one[1]), (0, 0b0100));
        assert!(one[2..].iter().all(|&w| w == 0));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_narrows_to_one_cpu_and_dropping_restores() {
        let before = get().unwrap();
        {
            let _pin = Pinned::to_one_cpu().unwrap();
            let during = get().unwrap();
            assert_eq!(during.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            let inherited = std::thread::spawn(get).join().unwrap().unwrap();
            assert_eq!(inherited, during);
        }
        assert_eq!(get().unwrap(), before);
    }
}
