//! Hierarchical interconnect topology (paper §3.1, Figure 7).
//!
//! PipeDream's optimizer assumes the machine topology is hierarchical:
//! level `k` is comprised of `m_k` components of level `k-1`, connected by
//! links of bandwidth `B_k`. `m_0 = 1` — a single compute device. For a
//! two-level cluster of 2 servers × 4 GPUs, `m_1 = 4` (GPUs per server,
//! intra-server bandwidth `B_1`) and `m_2 = 2` (servers, inter-server
//! bandwidth `B_2`).

use crate::device::Device;
use crate::link::LinkModel;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// One level of the bandwidth hierarchy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Level {
    /// Human-readable name, e.g. `"intra-server (NVLink)"`.
    pub name: String,
    /// `m_k`: number of level `k-1` components grouped at this level.
    pub arity: usize,
    /// Link model (bandwidth + latency) for links at this level.
    pub link: LinkModel,
}

/// A hierarchical machine topology.
///
/// ```
/// use pipedream_hw::ClusterPreset;
///
/// let topo = ClusterPreset::B.with_servers(2); // 2 × 8 V100 (NVLink)
/// assert_eq!(topo.total_workers(), 16);
/// // NVLink inside a server, Ethernet across:
/// assert!(topo.link_between(0, 7).unwrap().bandwidth_bytes_per_sec
///     > topo.link_between(7, 8).unwrap().bandwidth_bytes_per_sec);
/// ```
///
/// `levels[0]` is level 1 in the paper's numbering (the innermost
/// interconnect, grouping `levels[0].arity` devices); the last entry is the
/// outermost level. The total worker count is the product of all arities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    /// The accelerator installed at every leaf of the hierarchy.
    pub device: Device,
    /// Bandwidth levels, innermost first. Must be non-empty.
    pub levels: Vec<Level>,
}

impl Topology {
    /// Build a topology; panics if `levels` is empty or any arity is zero.
    pub fn new(device: Device, levels: Vec<Level>) -> Self {
        assert!(!levels.is_empty(), "topology needs at least one level");
        assert!(
            levels.iter().all(|l| l.arity >= 1),
            "every level must group at least one component"
        );
        Topology { device, levels }
    }

    /// A flat (single-level) topology of `n` devices joined by one link model.
    pub fn flat(device: Device, n: usize, link: LinkModel, name: &str) -> Self {
        Topology::new(
            device,
            vec![Level {
                name: name.to_string(),
                arity: n,
                link,
            }],
        )
    }

    /// Total number of workers (product of level arities).
    pub fn total_workers(&self) -> usize {
        self.levels.iter().map(|l| l.arity).product()
    }

    /// Number of levels in the hierarchy (`L` in the paper).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// `m_k` for level `k` (1-indexed as in the paper).
    pub fn arity(&self, k: usize) -> usize {
        self.levels[k - 1].arity
    }

    /// Link model for level `k` (1-indexed as in the paper).
    pub fn link(&self, k: usize) -> &LinkModel {
        &self.levels[k - 1].link
    }

    /// Number of workers contained in one component of level `k`
    /// (1-indexed); `workers_per_component(0) == 1`.
    pub fn workers_per_component(&self, k: usize) -> usize {
        self.levels[..k].iter().map(|l| l.arity).product()
    }

    /// Bandwidth (bytes/s) of the slowest link crossed when worker `a` talks
    /// to worker `b`, with workers numbered depth-first so that workers
    /// `i·m..(i+1)·m` share each level-1 component of size `m`.
    ///
    /// Returns `None` when `a == b` (no link crossed).
    pub fn link_between(&self, a: usize, b: usize) -> Option<&LinkModel> {
        if a == b {
            return None;
        }
        // Find the innermost level whose component contains both workers.
        for k in 1..=self.num_levels() {
            let span = self.workers_per_component(k);
            if a / span == b / span {
                return Some(self.link(k));
            }
        }
        // Workers outside any common component should be impossible for
        // valid indices, but treat it as crossing the outermost level.
        Some(self.link(self.num_levels()))
    }

    /// Time for a hierarchical all_reduce of `bytes` across the workers in
    /// `set`: NCCL-style collectives reduce within each level before
    /// crossing the next, so every spanned level contributes a phase. The
    /// phase at level `k` runs among the occupied level-`k-1` components of
    /// each level-`k` component (the widest such group sets the cost), and
    /// the total is the sum of the per-level phases.
    pub fn allreduce_time_spanning(&self, set: &[usize], bytes: u64) -> f64 {
        if set.len() <= 1 {
            return 0.0;
        }
        // Workers are numbered depth-first, so ascending worker order is
        // ascending (component, sub-component) order at every level and one
        // scan per level counts the occupied sub-components. Stage replicas
        // and data-parallel participants arrive ascending; only another
        // order pays for a sorted copy.
        let sorted = if set.is_sorted() {
            Cow::Borrowed(set)
        } else {
            let mut copy = set.to_vec();
            copy.sort_unstable();
            Cow::Owned(copy)
        };
        let mut total = 0.0;
        let mut sub_span = 1;
        for level in &self.levels {
            let span = sub_span * level.arity;
            // `occupied` counts the sub-components seen so far in the
            // current component.
            let (mut occupied, mut widest) = (1, 1);
            for pair in sorted.windows(2) {
                let (prev, w) = (pair[0], pair[1]);
                if w / span != prev / span {
                    occupied = 1;
                } else if w / sub_span != prev / sub_span {
                    occupied += 1;
                    widest = widest.max(occupied);
                }
            }
            if widest > 1 {
                total += crate::link::allreduce_time(&level.link, bytes, widest);
            }
            sub_span = span;
        }
        total
    }

    /// Render the topology as a text tree (the shape of the paper's
    /// Figure 7), listing each level's bandwidth and every worker.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let top = self.num_levels();
        let top_link = self.link(top);
        let _ = writeln!(
            out,
            "cluster ── B{top} = {:.2} GB/s{}",
            top_link.bandwidth_bytes_per_sec / 1e9,
            if top_link.shared { " (shared)" } else { "" }
        );
        let outer = if top >= 2 { self.arity(top) } else { 1 };
        let inner = self.workers_per_component(top.saturating_sub(1)).max(1);
        for comp in 0..outer {
            if top >= 2 {
                let l = self.link(1);
                let _ = writeln!(
                    out,
                    "├── component {comp} ── B1 = {:.2} GB/s{}",
                    l.bandwidth_bytes_per_sec / 1e9,
                    if l.shared { " (shared)" } else { "" }
                );
            }
            for w in 0..inner.min(self.total_workers()) {
                let worker = comp * inner + w;
                if worker < self.total_workers() {
                    let _ = writeln!(out, "│    ├── worker {worker} [{}]", self.device.name);
                }
            }
        }
        let _ = writeln!(out, "{} workers total", self.total_workers());
        out
    }

    /// Slowest link crossed by a collective spanning workers `set`
    /// (e.g. an all_reduce across stage replicas). Returns `None` for a
    /// singleton set.
    pub fn slowest_link_spanning(&self, set: &[usize]) -> Option<&LinkModel> {
        let mut slowest: Option<&LinkModel> = None;
        for (i, &a) in set.iter().enumerate() {
            for &b in &set[i + 1..] {
                if let Some(l) = self.link_between(a, b) {
                    match slowest {
                        Some(s) if s.bandwidth_bytes_per_sec <= l.bandwidth_bytes_per_sec => {}
                        _ => slowest = Some(l),
                    }
                }
            }
        }
        slowest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkModel;

    fn two_level() -> Topology {
        // 2 servers × 4 GPUs; fast intra (10 GB/s), slow inter (1.25 GB/s).
        Topology::new(
            Device::v100(),
            vec![
                Level {
                    name: "intra".into(),
                    arity: 4,
                    link: LinkModel::new(10e9, 5e-6),
                },
                Level {
                    name: "inter".into(),
                    arity: 2,
                    link: LinkModel::new(1.25e9, 20e-6),
                },
            ],
        )
    }

    #[test]
    fn worker_count_is_product_of_arities() {
        assert_eq!(two_level().total_workers(), 8);
    }

    #[test]
    fn link_between_same_server_is_fast() {
        let t = two_level();
        let l = t.link_between(0, 3).unwrap();
        assert_eq!(l.bandwidth_bytes_per_sec, 10e9);
    }

    #[test]
    fn link_between_servers_is_slow() {
        let t = two_level();
        let l = t.link_between(3, 4).unwrap();
        assert_eq!(l.bandwidth_bytes_per_sec, 1.25e9);
    }

    #[test]
    fn link_between_self_is_none() {
        assert!(two_level().link_between(2, 2).is_none());
    }

    #[test]
    fn slowest_link_spanning_servers() {
        let t = two_level();
        // Replicas 2 and 5 live on different servers.
        let l = t.slowest_link_spanning(&[2, 5]).unwrap();
        assert_eq!(l.bandwidth_bytes_per_sec, 1.25e9);
        // Replicas within one server only cross the fast link.
        let l = t.slowest_link_spanning(&[0, 1, 2]).unwrap();
        assert_eq!(l.bandwidth_bytes_per_sec, 10e9);
        assert!(t.slowest_link_spanning(&[3]).is_none());
    }

    #[test]
    fn workers_per_component_accumulates() {
        let t = two_level();
        assert_eq!(t.workers_per_component(0), 1);
        assert_eq!(t.workers_per_component(1), 4);
        assert_eq!(t.workers_per_component(2), 8);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_levels_rejected() {
        Topology::new(Device::v100(), vec![]);
    }

    #[test]
    fn hierarchical_allreduce_sums_levels() {
        let t = two_level();
        let bytes = 1u64 << 30;
        // Within one server: only the intra phase.
        let intra = t.allreduce_time_spanning(&[0, 1, 2, 3], bytes);
        let expected_intra = crate::link::allreduce_time(t.link(1), bytes, 4);
        assert!((intra - expected_intra).abs() < 1e-12);
        // Across both servers: intra phase + inter phase.
        let both = t.allreduce_time_spanning(&[0, 1, 2, 3, 4, 5, 6, 7], bytes);
        let expected_inter = crate::link::allreduce_time(t.link(2), bytes, 2);
        assert!(
            (both - (expected_intra + expected_inter)).abs() < 1e-12,
            "both {both} vs {expected_intra} + {expected_inter}"
        );
        assert!(both > intra, "crossing servers must cost more");
    }

    #[test]
    fn describe_lists_all_workers() {
        let t = two_level();
        let d = t.describe();
        assert!(d.contains("worker 0") && d.contains("worker 7"));
        assert!(d.contains("8 workers total"));
        assert!(d.contains("B2"));
    }

    #[test]
    fn hierarchical_allreduce_singleton_is_free() {
        let t = two_level();
        assert_eq!(t.allreduce_time_spanning(&[3], 1 << 20), 0.0);
        assert_eq!(t.allreduce_time_spanning(&[], 1 << 20), 0.0);
    }

    #[test]
    fn hierarchical_allreduce_two_workers_one_per_server() {
        let t = two_level();
        // Workers 0 and 4 sit on different servers: only the inter phase
        // (each server has a single occupied sub-component).
        let time = t.allreduce_time_spanning(&[0, 4], 1 << 30);
        let expected = crate::link::allreduce_time(t.link(2), 1 << 30, 2);
        assert!((time - expected).abs() < 1e-12);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::link::LinkModel;
    use proptest::prelude::*;

    fn arb_topology() -> impl Strategy<Value = Topology> {
        (1usize..=8, 1usize..=4, 1.0f64..50.0, 0.1f64..10.0).prop_map(|(a1, a2, b1, b2)| {
            Topology::new(
                crate::Device::v100(),
                vec![
                    Level {
                        name: "l1".into(),
                        arity: a1,
                        link: LinkModel::from_gbytes(b1, 1e-6),
                    },
                    Level {
                        name: "l2".into(),
                        arity: a2,
                        link: LinkModel::from_gbytes(b2, 1e-5),
                    },
                ],
            )
        })
    }

    /// `allreduce_time_spanning` as it was first written: per level, a map
    /// from each occupied component to the set of its occupied
    /// sub-components.
    fn allreduce_time_spanning_by_sets(topo: &Topology, set: &[usize], bytes: u64) -> f64 {
        use std::collections::{HashMap, HashSet};
        if set.len() <= 1 {
            return 0.0;
        }
        let mut total = 0.0;
        for k in 1..=topo.num_levels() {
            let sub_span = topo.workers_per_component(k - 1);
            let span = topo.workers_per_component(k);
            let mut counts = HashMap::new();
            for &w in set {
                counts
                    .entry(w / span)
                    .or_insert_with(HashSet::new)
                    .insert(w / sub_span);
            }
            let widest = counts.values().map(|s| s.len()).max().unwrap_or(1);
            if widest > 1 {
                total += crate::link::allreduce_time(topo.link(k), bytes, widest);
            }
        }
        total
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The sort-and-scan count agrees bit for bit with the set-based
        /// one on 1-3 levels (arity 1 included) and on worker sets that are
        /// unsorted, sparse, repeated, empty or a singleton.
        #[test]
        fn allreduce_matches_set_based_reference(
            arities in proptest::collection::vec(1usize..=5, 1..=3),
            draws in proptest::collection::vec(0usize..1000, 0..=24),
            ascending in any::<bool>(),
            bytes in 0u64..4_000_000_000,
        ) {
            let levels = arities.iter().enumerate().map(|(k, &arity)| Level {
                name: format!("l{}", k + 1),
                arity,
                // Slower and longer-latency links further out.
                link: LinkModel::from_gbytes(40.0 / (1 + 3 * k) as f64, 1e-6 * (1 + 4 * k) as f64),
            });
            let topo = Topology::new(crate::Device::v100(), levels.collect());
            let mut set: Vec<usize> = draws.iter().map(|d| d % topo.total_workers()).collect();
            if ascending {
                set.sort_unstable();
            }
            let got = topo.allreduce_time_spanning(&set, bytes);
            let want = allreduce_time_spanning_by_sets(&topo, &set, bytes);
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{:?} on arities {:?}: {} vs {}", set, arities, got, want
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// link_between is symmetric and None exactly on the diagonal.
        #[test]
        fn link_between_is_symmetric(topo in arb_topology(), a in 0usize..32, b in 0usize..32) {
            let w = topo.total_workers();
            let (a, b) = (a % w, b % w);
            let ab = topo.link_between(a, b).map(|l| l.bandwidth_bytes_per_sec);
            let ba = topo.link_between(b, a).map(|l| l.bandwidth_bytes_per_sec);
            prop_assert_eq!(ab, ba);
            prop_assert_eq!(ab.is_none(), a == b);
        }

        /// Hierarchical all_reduce time is monotone in bytes and in the
        /// participant set (supersets cost at least as much).
        #[test]
        fn allreduce_monotone(topo in arb_topology(), bytes in 1u64..1_000_000_000) {
            let w = topo.total_workers();
            let all: Vec<usize> = (0..w).collect();
            let half: Vec<usize> = (0..w.div_ceil(2)).collect();
            let t_half = topo.allreduce_time_spanning(&half, bytes);
            let t_all = topo.allreduce_time_spanning(&all, bytes);
            prop_assert!(t_all >= t_half - 1e-12, "all {t_all} vs half {t_half}");
            let t_double = topo.allreduce_time_spanning(&all, bytes.saturating_mul(2));
            prop_assert!(t_double >= t_all - 1e-12);
        }

        /// Worker numbering: every worker belongs to exactly one level-1
        /// component, and components partition the workers.
        #[test]
        fn components_partition_workers(topo in arb_topology()) {
            let w = topo.total_workers();
            let span = topo.workers_per_component(1);
            let mut seen = vec![false; w];
            for comp in 0..w.div_ceil(span) {
                for i in 0..span {
                    let worker = comp * span + i;
                    if worker < w {
                        prop_assert!(!seen[worker]);
                        seen[worker] = true;
                    }
                }
            }
            prop_assert!(seen.iter().all(|&s| s));
        }
    }
}
