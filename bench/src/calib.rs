//! Host-speed calibration.
//!
//! The sandbox this benchmark runs in changes speed by up to a quarter
//! for seconds at a time, in two ways. Its clock steps between two
//! frequencies a fifth apart every few seconds (a dependent integer chain
//! reads 0.75 ms or 0.62 ms), and neighbours on the same core thrash its
//! caches in millisecond bursts that for minutes take a quarter of the time
//! (sorting 64 KB reads 80 µs or 150 µs while the chain reads the same).
//! A ten-second run sits inside one or two such stretches, so raw times do
//! not repeat within a tenth from run to run whatever is measured. The
//! harness therefore times a fixed piece of work before and after every
//! repetition, [`reading`], and states each repetition's times at a
//! reference speed: `time / slowdown`. The work lives here, in the
//! benchmark, so no change to the crates can move it.
//!
//! It is the integer chain and the sort, weighted 1 : 2. Over repetitions
//! of `plan-scale`, `obs-analyze`, `sim-plans` and `train-compute` timed
//! with both beside them, the spread left after dividing by the chain
//! alone was 0.27, 0.27, 0.03, 0.18 (the first two on a noisy host), by
//! the sort alone 0.12, 0.11, 0.03, 0.19, and by this mix 0.16, 0.12, 0.03,
//! 0.12; on a quiet host all three leave 0.04 to 0.08.
//!
//! A workload whose time goes into the kernel's socket path follows
//! neither: on `serve-mixed` a repetition's latencies and throughput move
//! by a third between stretches in which the chain reads the same
//! (correlation 0.4), but they do follow a message echoed over a loopback
//! connection (0.85; the spread between repetitions falls from 0.31 to
//! 0.09). That workload therefore reads its slowdown from an [`Echo`] it
//! repeats between its requests, and the harness takes a repetition's
//! slowdown from [`reading`] only where the workload has not measured its
//! own.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// Steps of the xorshift chain in one spin. Each step depends on the one
/// before, so the loop can be neither vectorised nor folded.
const STEPS: u64 = 400_000;

/// What one spin and one sort take at the reference speed (about what
/// they take on the container this benchmark was written in). Only fixes
/// the scale.
const REFERENCE_SPIN_S: f64 = 0.75e-3;
const REFERENCE_SORT_S: f64 = 82e-6;

/// Sorts in one reading, of this many pseudo-random `u64`s (64 KB) each.
const SORTS: usize = 25;
const SORT_ITEMS: usize = 8192;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn spin_once() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..STEPS {
        xorshift(&mut x);
    }
    black_box(x);
    t0.elapsed().as_secs_f64()
}

/// Seconds one spin takes right now: the median of five, so that one
/// preempted spin does not count.
fn spin() -> f64 {
    let samples: Vec<f64> = (0..5).map(|_| spin_once()).collect();
    crate::stats::median(&samples)
}

/// Seconds one sort takes right now: the mean of [`SORTS`], because the
/// bursts it is there to see are shorter than one of them.
fn sort() -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let unsorted: Vec<u64> = (0..SORT_ITEMS).map(|_| xorshift(&mut x)).collect();
    let mut total = 0.0;
    for _ in 0..SORTS {
        let mut items = unsorted.clone();
        let t0 = Instant::now();
        items.sort_unstable();
        black_box(&items);
        total += t0.elapsed().as_secs_f64();
    }
    total / SORTS as f64
}

/// How much slower than the reference speed the host runs right now.
pub fn reading() -> f64 {
    (spin() / REFERENCE_SPIN_S + 2.0 * sort() / REFERENCE_SORT_S) / 3.0
}

/// Both ends of one loopback TCP connection, held by the calling thread.
pub struct Echo {
    near: TcpStream,
    far: TcpStream,
}

/// Round trips in one echo, bytes each way, and what one echo takes at the
/// reference speed.
const ROUND_TRIPS: usize = 25;
const MESSAGE: usize = 256;
const REFERENCE_ECHO_S: f64 = 75e-6;

impl Echo {
    pub fn new() -> Echo {
        let connect = || -> std::io::Result<Echo> {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let near = TcpStream::connect(listener.local_addr()?)?;
            let (far, _) = listener.accept()?;
            near.set_nodelay(true)?;
            far.set_nodelay(true)?;
            Ok(Echo { near, far })
        };
        connect().expect("a loopback connection for the echo reference")
    }

    /// One echo: the seconds it took, and how much slower than the
    /// reference speed that is. The caller takes the median of many.
    pub fn once(&mut self) -> (f64, f64) {
        let mut buf = [0u8; MESSAGE];
        let mut hop = |from: &mut TcpStream, to: &mut TcpStream| {
            from.write_all(&buf)
                .and_then(|()| to.read_exact(&mut buf))
                .expect("the echo connection stays open")
        };
        let t0 = Instant::now();
        for _ in 0..ROUND_TRIPS {
            hop(&mut self.near, &mut self.far);
            hop(&mut self.far, &mut self.near);
        }
        let secs = t0.elapsed().as_secs_f64();
        (secs, secs / REFERENCE_ECHO_S)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_takes_measurable_time_and_grows_with_the_work() {
        let one = spin();
        assert!(one > 1e-5, "spin of {one} s was optimised away");
        let t0 = Instant::now();
        for _ in 0..20 {
            spin_once();
        }
        assert!(t0.elapsed().as_secs_f64() > 5.0 * one);
    }

    #[test]
    fn a_reading_is_near_one_on_a_machine_like_the_reference() {
        assert!(sort() > 1e-6);
        let r = reading();
        assert!((0.05..50.0).contains(&r), "reading {r}");
    }

    #[test]
    fn an_echo_takes_measurable_time() {
        let mut echo = Echo::new();
        let (secs, slowdown) = echo.once();
        assert!(
            secs > 1e-6 && (0.02..100.0).contains(&slowdown),
            "{secs} s, {slowdown}"
        );
    }
}
