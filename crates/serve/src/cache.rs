//! Sharded, size-bounded LRU cache with in-flight request coalescing.
//!
//! The plan cache spares a serving daemon re-running the §3.1 DP per
//! request: the partitioner is a pure function of its fingerprinted
//! inputs (see `pipedream_core::fingerprint`), so a hit is exactly as good
//! as a cold computation. The daemon caches each plan as the JSON its
//! `/plan` response splices in (`protocol::CachedPlan`), printed once by
//! the miss that computed it. On the ledger's `serve-mixed` workload
//! (`pipedream-ledger run --workload serve-mixed --seconds 12`, seeds 1, 3
//! and 7, 2-vCPU Xeon @ 2.1 GHz, values at the ledger's reference host
//! speed) a hit is answered in 9.9–10.2 µs at the median and a miss, which
//! runs the DP, in 17.0–17.7 µs. The hit's handler, called in a tight loop, takes
//! ~4 µs: parsing the body ~1 µs, resolving the target ~0.5 µs, the
//! fingerprint 1–2 µs, the lookup ~30 ns (`serve.cache_get_ns`) and one
//! `format!`. The rest of a hit is HTTP framing, the socket and the
//! per-request metrics. Three design points, in the style of a
//! concurrent-hash-shard (CLHS) map:
//!
//! * **Sharding.** Keys hash across `N` independently locked shards, so
//!   concurrent requests for different models do not contend on one lock.
//!   The fingerprint is already a high-quality 64-bit hash; the shard
//!   index is its low bits.
//! * **LRU per shard, bounded globally.** Each shard holds at most
//!   `capacity / N` entries and evicts its least-recently-used entry on
//!   overflow. Shards are small (tens of entries), so LRU is an O(shard)
//!   scan over a `Vec` rather than a linked list — simpler and
//!   cache-friendly. A zoo-sized plan takes 4.3 µs at the median
//!   (`plan-scale`'s `op_p50_us`, same host and run length), so the scan
//!   must stay short to be worth it.
//! * **Coalescing.** When many requests race on the same cold key (the
//!   thundering herd at daemon start), exactly one becomes the *leader*
//!   and runs the computation; the rest block on a condvar and receive a
//!   clone of the leader's result. If the leader dies without delivering
//!   (a panic unwinding through the compute closure), waiters observe the
//!   abandonment and retry — one of them becomes the next leader — so a
//!   crashed computation never wedges the key forever.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Monotonic counters describing cache behaviour since construction.
///
/// `hits + misses + coalesced` equals the number of `get_or_compute`
/// calls that completed (retries after a leader abandonment count again).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Calls answered from a resident entry.
    pub hits: u64,
    /// Calls that ran the computation (as leader).
    pub misses: u64,
    /// Entries discarded to stay under the size bound.
    pub evictions: u64,
    /// Calls that waited on another request's in-flight computation
    /// instead of running their own.
    pub coalesced: u64,
}

#[derive(Default)]
struct StatCells {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    coalesced: AtomicU64,
}

/// State of one in-flight computation, shared between the leader and any
/// coalesced waiters.
enum InflightState<V, E> {
    /// Leader still computing.
    Pending,
    /// Leader finished; waiters clone this.
    Done(Result<V, E>),
    /// Leader unwound without delivering; waiters must retry.
    Abandoned,
}

struct Inflight<V, E> {
    state: Mutex<InflightState<V, E>>,
    cv: Condvar,
}

/// Cleans up if the leader unwinds before delivering: deregisters the
/// in-flight entry (so a retrying waiter can become the next leader,
/// rather than re-finding the dead flight forever) and marks the flight
/// `Abandoned` + notifies.
struct LeaderGuard<'a, V, E> {
    shard: &'a Mutex<Shard<V, E>>,
    key: u64,
    flight: &'a Arc<Inflight<V, E>>,
    delivered: bool,
}

impl<V, E> Drop for LeaderGuard<'_, V, E> {
    fn drop(&mut self) {
        if !self.delivered {
            let mut shard = self.shard.lock().unwrap();
            if let Some(f) = shard.inflight.get(&self.key) {
                if Arc::ptr_eq(f, self.flight) {
                    shard.inflight.remove(&self.key);
                }
            }
            drop(shard);
            *self.flight.state.lock().unwrap() = InflightState::Abandoned;
            self.flight.cv.notify_all();
        }
    }
}

struct Entry<V> {
    key: u64,
    value: V,
    last_used: u64,
}

struct Shard<V, E> {
    entries: Vec<Entry<V>>,
    inflight: HashMap<u64, Arc<Inflight<V, E>>>,
    /// Logical clock for LRU ordering, bumped on every touch.
    tick: u64,
}

impl<V, E> Shard<V, E> {
    fn new() -> Self {
        Shard {
            entries: Vec::new(),
            inflight: HashMap::new(),
            tick: 0,
        }
    }

    fn lookup(&mut self, key: u64) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.iter_mut().find(|e| e.key == key).map(|e| {
            e.last_used = tick;
            &e.value
        })
    }

    /// Insert, evicting the LRU entry if the shard is at capacity.
    /// Returns how many entries were evicted (0 or 1).
    fn insert(&mut self, key: u64, value: V, capacity: usize) -> u64 {
        self.tick += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == key) {
            e.value = value;
            e.last_used = self.tick;
            return 0;
        }
        let mut evicted = 0;
        if self.entries.len() >= capacity {
            if let Some(lru) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            {
                self.entries.swap_remove(lru);
                evicted = 1;
            }
        }
        self.entries.push(Entry {
            key,
            value,
            last_used: self.tick,
        });
        evicted
    }
}

/// A sharded LRU cache keyed by 64-bit fingerprints.
///
/// `V` is the cached value (cloned out on every hit); `E` is the
/// computation's error type. Errors are **not** cached — a failed
/// computation propagates to the leader and all coalesced waiters, but
/// the next request for that key retries from scratch.
pub struct ShardedLruCache<V, E> {
    shards: Vec<Mutex<Shard<V, E>>>,
    capacity_per_shard: usize,
    stats: StatCells,
}

impl<V: Clone, E: Clone> ShardedLruCache<V, E> {
    /// A cache holding at most `capacity` entries across `shards` shards
    /// (both clamped to ≥ 1; per-shard capacity rounds up so the global
    /// bound is `max(capacity, shards)`).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let capacity_per_shard = capacity.max(1).div_ceil(shards);
        ShardedLruCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            capacity_per_shard,
            stats: StatCells::default(),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard<V, E>> {
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    /// The number of resident entries, summed over shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().entries.len())
            .sum()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The maximum number of resident entries.
    pub fn capacity(&self) -> usize {
        self.capacity_per_shard * self.shards.len()
    }

    /// A snapshot of the hit/miss/eviction/coalesced counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            coalesced: self.stats.coalesced.load(Ordering::Relaxed),
        }
    }

    /// Look up `key`, running `compute` on a miss. Concurrent calls with
    /// the same cold key coalesce: one runs `compute`, the rest wait and
    /// share the result. `Ok` results are cached; `Err` results are
    /// returned (to everyone waiting) but not cached.
    pub fn get_or_compute<F>(&self, key: u64, compute: F) -> Result<V, E>
    where
        F: FnOnce() -> Result<V, E>,
    {
        let mut compute = Some(compute);
        loop {
            let (flight, leading) = {
                let mut shard = self.shard(key).lock().unwrap();
                if let Some(v) = shard.lookup(key) {
                    self.stats.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(v.clone());
                }
                match shard.inflight.get(&key) {
                    Some(f) => (Arc::clone(f), false),
                    None => {
                        let f = Arc::new(Inflight {
                            state: Mutex::new(InflightState::Pending),
                            cv: Condvar::new(),
                        });
                        shard.inflight.insert(key, Arc::clone(&f));
                        (f, true)
                    }
                }
            };

            if leading {
                // Leader: compute outside the shard lock so other keys in
                // this shard stay servable. The guard publishes
                // `Abandoned` if `compute` panics, so waiters retry
                // instead of hanging.
                let mut guard = LeaderGuard {
                    shard: self.shard(key),
                    key,
                    flight: &flight,
                    delivered: false,
                };
                let result = (compute.take().expect("leader computes at most once"))();
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                {
                    let mut shard = self.shard(key).lock().unwrap();
                    if let Ok(v) = &result {
                        let evicted = shard.insert(key, v.clone(), self.capacity_per_shard);
                        self.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
                    }
                    shard.inflight.remove(&key);
                }
                *flight.state.lock().unwrap() = InflightState::Done(result.clone());
                guard.delivered = true;
                flight.cv.notify_all();
                return result;
            }

            // Waiter: block until the leader delivers or abandons. On
            // abandonment, loop back — our compute closure is unspent, so
            // we can race to become the next leader.
            self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
            let mut state = flight.state.lock().unwrap();
            loop {
                match &*state {
                    InflightState::Pending => state = flight.cv.wait(state).unwrap(),
                    InflightState::Done(r) => return r.clone(),
                    InflightState::Abandoned => break,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    #[test]
    fn hit_after_miss() {
        let cache: ShardedLruCache<String, ()> = ShardedLruCache::new(8, 2);
        let a = cache.get_or_compute(42, || Ok("plan".to_string())).unwrap();
        let b = cache
            .get_or_compute(42, || panic!("must not recompute"))
            .unwrap();
        assert_eq!(a, b);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn errors_propagate_and_are_not_cached() {
        let cache: ShardedLruCache<String, String> = ShardedLruCache::new(8, 2);
        let err = cache
            .get_or_compute(7, || Err("bad profile".to_string()))
            .unwrap_err();
        assert_eq!(err, "bad profile");
        // The key is retried, not poisoned.
        let ok = cache.get_or_compute(7, || Ok("fine".to_string())).unwrap();
        assert_eq!(ok, "fine");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn eviction_respects_global_bound() {
        let cache: ShardedLruCache<u64, ()> = ShardedLruCache::new(16, 4);
        for key in 0..200 {
            cache.get_or_compute(key, || Ok(key * 2)).unwrap();
        }
        assert!(cache.len() <= cache.capacity(), "{} entries", cache.len());
        let s = cache.stats();
        assert_eq!(s.misses, 200);
        assert_eq!(s.evictions, 200 - cache.len() as u64);
    }

    #[test]
    fn lru_keeps_the_hot_entry() {
        // Single shard so the eviction order is deterministic.
        let cache: ShardedLruCache<u64, ()> = ShardedLruCache::new(2, 1);
        cache.get_or_compute(1, || Ok(10)).unwrap();
        cache.get_or_compute(2, || Ok(20)).unwrap();
        cache.get_or_compute(1, || Ok(10)).unwrap(); // touch 1 → 2 is LRU
        cache.get_or_compute(3, || Ok(30)).unwrap(); // evicts 2
        let recomputed = AtomicUsize::new(0);
        cache
            .get_or_compute(1, || {
                recomputed.fetch_add(1, Ordering::Relaxed);
                Ok(10)
            })
            .unwrap();
        assert_eq!(recomputed.load(Ordering::Relaxed), 0, "1 stayed resident");
        cache
            .get_or_compute(2, || {
                recomputed.fetch_add(1, Ordering::Relaxed);
                Ok(20)
            })
            .unwrap();
        assert_eq!(recomputed.load(Ordering::Relaxed), 1, "2 was evicted");
    }

    #[test]
    fn coalescing_runs_compute_once_for_concurrent_same_key() {
        let cache: Arc<ShardedLruCache<u64, ()>> = Arc::new(ShardedLruCache::new(8, 2));
        let runs = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let runs = Arc::clone(&runs);
                thread::spawn(move || {
                    cache
                        .get_or_compute(99, move || {
                            runs.fetch_add(1, Ordering::Relaxed);
                            // Hold the herd long enough that they pile up.
                            thread::sleep(std::time::Duration::from_millis(30));
                            Ok(4242)
                        })
                        .unwrap()
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), 4242);
        }
        assert_eq!(
            runs.load(Ordering::Relaxed),
            1,
            "exactly one DP execution per unique in-flight key"
        );
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits + s.coalesced, 7);
    }

    #[test]
    fn abandoned_leader_does_not_wedge_the_key() {
        let cache: Arc<ShardedLruCache<u64, ()>> = Arc::new(ShardedLruCache::new(8, 1));
        let c2 = Arc::clone(&cache);
        // Leader panics mid-compute.
        let leader = thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c2.get_or_compute(5, || -> Result<u64, ()> {
                    thread::sleep(std::time::Duration::from_millis(20));
                    panic!("DP crashed")
                })
            }));
        });
        thread::sleep(std::time::Duration::from_millis(5));
        // This call either coalesces onto the doomed leader (then retries
        // as the new leader) or races in after the abandonment; either
        // way it must complete.
        let v = cache.get_or_compute(5, || Ok(55)).unwrap();
        assert_eq!(v, 55);
        leader.join().unwrap();
    }
}
