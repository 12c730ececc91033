//! Thread-local, size-classed buffer pool for `f32` scratch.
//!
//! Every tensor allocation in this crate (zeros, clones, matmul outputs,
//! im2col scratch, …) draws from a per-thread free list of `Vec<f32>`
//! buffers bucketed by power-of-two capacity. Buffers come back via
//! [`give`] (or [`crate::Tensor::recycle`]); once training reaches steady
//! state every minibatch's working set is served from the free lists and
//! the allocator drops out of the hot path entirely — the property the
//! pipeline runtime relies on for stable step times.
//!
//! The pool is deliberately simple:
//!
//! * **Thread-local.** No locks, no sharing. A buffer allocated on one
//!   worker thread and recycled on another simply migrates pools, which
//!   is fine — a free list does not care where its buffers were born.
//! * **Size-classed.** Requests round up to the next power of two (min
//!   64 elements), so a recycled buffer is reusable by any request of
//!   its class and below-capacity fragmentation is bounded at 2×.
//! * **Bounded.** Each class keeps at most `MAX_FREE_PER_CLASS`
//!   buffers; extras are dropped to the allocator so a transient spike
//!   cannot pin memory forever.
//!
//! Hit/miss counters are kept per thread, in the thread's own pool, so a
//! take or a give touches no shared cache line. A thread adds its counts
//! to the process-wide totals ([`global_stats`], folded into the
//! observability `MetricsRegistry` by the runtime as
//! `tensor_pool_hits_total` / `tensor_pool_misses_total`) when it calls
//! [`publish_thread_stats`] — a pipeline stage worker does as it finishes —
//! when it reads [`global_stats`] itself, and when it exits.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Smallest size class, log2 (64 elements = 256 bytes).
const MIN_CLASS_BITS: u32 = 6;
/// Number of size classes: 64 … 2³¹ elements.
const NUM_CLASSES: usize = 26;
/// Free buffers retained per class before extras go back to the
/// allocator.
const MAX_FREE_PER_CLASS: usize = 16;

/// Pool counters (per-thread or process-wide snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Requests served from a free list (no allocation).
    pub hits: u64,
    /// Requests that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers returned to the pool.
    pub returned: u64,
}

static GLOBAL_HITS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_MISSES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_RETURNED: AtomicU64 = AtomicU64::new(0);

struct Pool {
    free: Vec<Vec<Vec<f32>>>,
    stats: PoolStats,
    /// The part of `stats` already added to the process-wide totals.
    published: PoolStats,
}

impl Pool {
    fn new() -> Self {
        Pool {
            free: (0..NUM_CLASSES).map(|_| Vec::new()).collect(),
            stats: PoolStats::default(),
            published: PoolStats::default(),
        }
    }

    /// Add the counts since the last publication to the process-wide
    /// totals.
    fn publish(&mut self) {
        let (now, then) = (self.stats, self.published);
        GLOBAL_HITS.fetch_add(now.hits - then.hits, Ordering::Relaxed);
        GLOBAL_MISSES.fetch_add(now.misses - then.misses, Ordering::Relaxed);
        GLOBAL_RETURNED.fetch_add(now.returned - then.returned, Ordering::Relaxed);
        self.published = now;
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.publish();
    }
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::new());
}

/// Size class serving a request of `n` elements (rounds up), or `None`
/// for `n = 0` or absurdly large requests.
fn class_for_request(n: usize) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let bits = usize::BITS - (n - 1).leading_zeros();
    let bits = bits.max(MIN_CLASS_BITS);
    let idx = (bits - MIN_CLASS_BITS) as usize;
    (idx < NUM_CLASSES).then_some(idx)
}

/// Size class a buffer of capacity `cap` can serve (rounds down).
fn class_for_capacity(cap: usize) -> Option<usize> {
    if cap < (1 << MIN_CLASS_BITS) {
        return None;
    }
    let bits = usize::BITS - 1 - cap.leading_zeros();
    let idx = (bits - MIN_CLASS_BITS) as usize;
    Some(idx.min(NUM_CLASSES - 1))
}

/// An empty `Vec<f32>` with capacity ≥ `n`.
pub fn take_empty(n: usize) -> Vec<f32> {
    let Some(class) = class_for_request(n) else {
        return Vec::with_capacity(n);
    };
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if let Some(mut buf) = pool.free[class].pop() {
            pool.stats.hits += 1;
            buf.clear();
            buf
        } else {
            pool.stats.misses += 1;
            // Allocate the full class size so the buffer lands back in
            // this class when recycled.
            Vec::with_capacity(1 << (class as u32 + MIN_CLASS_BITS))
        }
    })
}

/// A zero-filled `Vec<f32>` of length `n`.
pub fn take_zeroed(n: usize) -> Vec<f32> {
    let mut v = take_empty(n);
    v.resize(n, 0.0);
    v
}

/// A `Vec<f32>` of length `n` whose contents are unspecified: for a
/// buffer every element of which the caller writes before it reads any.
/// A recycled buffer keeps what it held, so only the part of it past its
/// old length is filled (with zeros), and in steady state nothing is.
pub fn take_any(n: usize) -> Vec<f32> {
    let Some(class) = class_for_request(n) else {
        return vec![0.0; n];
    };
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let mut buf = if let Some(buf) = pool.free[class].pop() {
            pool.stats.hits += 1;
            buf
        } else {
            pool.stats.misses += 1;
            Vec::with_capacity(1 << (class as u32 + MIN_CLASS_BITS))
        };
        if buf.len() >= n {
            buf.truncate(n);
        } else {
            buf.resize(n, 0.0);
        }
        buf
    })
}

/// A pooled copy of `src`.
pub fn take_copy(src: &[f32]) -> Vec<f32> {
    let mut v = take_empty(src.len());
    v.extend_from_slice(src);
    v
}

/// Return a buffer to the current thread's pool. Buffers smaller than
/// the minimum class (or overflowing a full class) are dropped.
pub fn give(v: Vec<f32>) {
    let Some(class) = class_for_capacity(v.capacity()) else {
        return;
    };
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.free[class].len() < MAX_FREE_PER_CLASS {
            pool.free[class].push(v);
            pool.stats.returned += 1;
        }
    });
}

/// This thread's pool counters (deterministic; unaffected by other
/// threads — use in unit tests).
pub fn thread_stats() -> PoolStats {
    POOL.with(|p| p.borrow().stats)
}

/// Add this thread's counts since its last publication to the
/// process-wide totals [`global_stats`] reads. A thread whose counts must
/// be in the totals by the time another thread reads them calls this
/// before it hands over its result; its exit publishes them too, but may
/// come after.
pub fn publish_thread_stats() {
    // A thread tearing down its locals has published its pool already.
    let _ = POOL.try_with(|p| p.borrow_mut().publish());
}

/// Process-wide pool counters: every thread's published counts (see
/// [`publish_thread_stats`]), the calling thread's own up to now. What
/// the runtime folds into the metrics registry.
pub fn global_stats() -> PoolStats {
    publish_thread_stats();
    PoolStats {
        hits: GLOBAL_HITS.load(Ordering::Relaxed),
        misses: GLOBAL_MISSES.load(Ordering::Relaxed),
        returned: GLOBAL_RETURNED.load(Ordering::Relaxed),
    }
}

/// Drop every free buffer held by this thread's pool (stats are kept).
pub fn clear_thread_pool() {
    POOL.with(|p| {
        for class in p.borrow_mut().free.iter_mut() {
            class.clear();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_round_up_requests_and_down_capacities() {
        assert_eq!(class_for_request(0), None);
        assert_eq!(class_for_request(1), Some(0));
        assert_eq!(class_for_request(64), Some(0));
        assert_eq!(class_for_request(65), Some(1));
        assert_eq!(class_for_request(128), Some(1));
        assert_eq!(class_for_capacity(63), None);
        assert_eq!(class_for_capacity(64), Some(0));
        assert_eq!(class_for_capacity(127), Some(0));
        assert_eq!(class_for_capacity(128), Some(1));
    }

    #[test]
    fn round_trip_reuses_buffer() {
        clear_thread_pool();
        let before = thread_stats();
        let v = take_zeroed(100);
        assert_eq!(v.len(), 100);
        assert!(v.capacity() >= 128, "allocates the full class");
        give(v);
        let v2 = take_zeroed(120); // same class (65..=128)
        assert_eq!(v2.len(), 120);
        assert!(v2.iter().all(|&x| x == 0.0));
        let after = thread_stats();
        assert_eq!(after.hits - before.hits, 1);
        assert_eq!(after.misses - before.misses, 1);
        assert_eq!(after.returned - before.returned, 1);
    }

    #[test]
    fn steady_state_stops_missing() {
        clear_thread_pool();
        for step in 0..100 {
            let before = thread_stats().misses;
            let a = take_zeroed(300);
            let b = take_copy(&a);
            give(a);
            give(b);
            if step > 0 {
                assert_eq!(thread_stats().misses, before, "step {step} allocated");
            }
        }
    }

    #[test]
    fn free_lists_are_bounded() {
        clear_thread_pool();
        for _ in 0..(MAX_FREE_PER_CLASS + 10) {
            give(Vec::with_capacity(256));
        }
        POOL.with(|p| {
            let pool = p.borrow();
            let class = class_for_capacity(256).unwrap();
            assert_eq!(pool.free[class].len(), MAX_FREE_PER_CLASS);
        });
    }

    #[test]
    fn take_any_reuses_contents_without_a_fill() {
        clear_thread_pool();
        let before = thread_stats();
        let mut old = Vec::with_capacity(128);
        old.resize(100, 7.0);
        give(old);
        let v = take_any(80);
        assert_eq!(v, vec![7.0; 80], "a recycled buffer is not refilled");
        give(v);
        let v = take_any(120);
        assert_eq!(v.len(), 120);
        assert!(
            v[80..].iter().all(|&x| x == 0.0),
            "only the new tail is filled"
        );
        let after = thread_stats();
        assert_eq!((after.hits - before.hits, after.misses), (2, before.misses));
    }

    #[test]
    fn zero_len_requests_bypass_pool() {
        let before = thread_stats();
        let v = take_empty(0);
        assert_eq!(v.capacity(), 0);
        give(v);
        assert_eq!(thread_stats(), before);
    }
}
