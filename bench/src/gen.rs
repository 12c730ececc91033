//! Seeded input generators. The crates under test never see the seed,
//! only what these produce from it.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A generator for one purpose (`stream`) of one `--seed`, so that two
/// uses of the same seed inside a workload do not replay each other.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// `0..n` in seeded random order.
pub fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    order
}

/// How many of `total` draws from Zipf(`s`) over ranks `0..n` go to each
/// rank in expectation (rank `k` in proportion to `1 / (k + 1)^s`), rounded
/// by largest remainder so that the counts sum to `total`. A workload that
/// replays exactly these counts in seeded order does the same work on every
/// seed; only the order, and with it what is still cached, differs.
pub fn zipf_counts(n: usize, s: f64, total: usize) -> Vec<usize> {
    assert!(n > 0, "Zipf needs at least one rank");
    let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
    let scale = total as f64 / weights.iter().sum::<f64>();
    let mut counts: Vec<usize> = weights.iter().map(|w| (w * scale) as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    let remainder = |k: usize| weights[k] * scale - counts[k] as f64;
    by_remainder.sort_by(|&a, &b| remainder(b).total_cmp(&remainder(a)));
    let short = total - counts.iter().sum::<usize>();
    for &k in &by_remainder[..short] {
        counts[k] += 1;
    }
    counts
}

/// `counts[k]` copies of each `k`, in seeded random order.
pub fn shuffled_multiset(counts: &[usize], rng: &mut StdRng) -> Vec<usize> {
    let mut items: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(k, &c)| std::iter::repeat_n(k, c))
        .collect();
    items.shuffle(rng);
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64) -> Vec<usize> {
        shuffled_multiset(&zipf_counts(256, 1.0, 2000), &mut rng(seed, 1))
    }

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
        assert_eq!(shuffled(100, &mut rng(3, 0)), shuffled(100, &mut rng(3, 0)));
        assert_ne!(shuffled(100, &mut rng(3, 0)), shuffled(100, &mut rng(4, 0)));
        assert_ne!(shuffled(100, &mut rng(3, 0)), shuffled(100, &mut rng(3, 1)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut order = shuffled(500, &mut rng(1, 0));
        order.sort_unstable();
        assert_eq!(order, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_counts_sum_to_the_total_and_favour_low_ranks() {
        for total in [1, 255, 2000, 8000] {
            assert_eq!(zipf_counts(256, 1.0, total).iter().sum::<usize>(), total);
        }
        let counts = zipf_counts(256, 1.0, 8000);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
        // P(rank 0) = 1 / H_256 = 0.163; P(rank < 64) = H_64 / H_256 = 0.775.
        assert!((1306..=1307).contains(&counts[0]), "{}", counts[0]);
        let head: usize = counts[..64].iter().sum();
        assert!((6165..=6229).contains(&head), "{head}");
        assert!(counts[255] >= 5);
    }

    #[test]
    fn a_shuffled_multiset_keeps_its_counts() {
        let counts = zipf_counts(256, 1.0, 2000);
        let d = draws(1);
        for (k, &c) in counts.iter().enumerate() {
            assert_eq!(d.iter().filter(|&&x| x == k).count(), c, "rank {k}");
        }
    }
}
