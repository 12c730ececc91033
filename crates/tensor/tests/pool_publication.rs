//! A thread counts its buffer-pool takes and gives in its own pool and
//! adds them to the process-wide totals as it finishes. The totals are
//! process-wide, hence one `#[test]` in this file: no other test's
//! threads may publish while it reads them.

use pipedream_tensor::pool;

#[test]
fn a_joined_threads_counts_are_in_the_process_totals() {
    const N: u64 = 50;
    let before = pool::global_stats();
    let counted = std::thread::spawn(|| {
        for i in 0..N as usize {
            // Two sizes, so the thread both misses and hits.
            let v = pool::take_zeroed(100 + (i % 2) * 1000);
            pool::give(v);
        }
        pool::thread_stats()
    })
    .join()
    .expect("pool thread");
    let after = pool::global_stats();
    assert_eq!(counted.returned, N);
    assert_eq!(counted.hits + counted.misses, N);
    assert!(counted.hits > 0 && counted.misses > 0, "{counted:?}");
    assert_eq!(after.hits - before.hits, counted.hits);
    assert_eq!(after.misses - before.misses, counted.misses);
    assert_eq!(after.returned - before.returned, counted.returned);
}
