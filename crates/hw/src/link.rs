//! Link and collective-communication time models.
//!
//! Point-to-point transfers follow the classic latency + bandwidth model.
//! `all_reduce` follows the paper's cost model (§3.1): with `m` participants
//! each worker sends and receives `(m-1)/m · bytes`, which matches a
//! bandwidth-optimal ring all_reduce.

use serde::{Deserialize, Serialize};

/// A bidirectional link characterised by bandwidth and per-message latency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkModel {
    /// Sustained bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Per-message latency in seconds (propagation + software overhead).
    pub latency_sec: f64,
    /// Whether the medium is *shared* among all endpoints (a PCIe tree,
    /// where every GPU's traffic funnels through one root complex) rather
    /// than point-to-point (NVLink, switched Ethernet). On a shared medium
    /// the ring all_reduce loses its `m`-way parallelism: every step all
    /// participants contend for the same root link.
    pub shared: bool,
}

impl LinkModel {
    /// Build a point-to-point link model; panics on non-positive bandwidth.
    pub fn new(bandwidth_bytes_per_sec: f64, latency_sec: f64) -> Self {
        assert!(bandwidth_bytes_per_sec > 0.0, "bandwidth must be positive");
        assert!(latency_sec >= 0.0, "latency must be non-negative");
        LinkModel {
            bandwidth_bytes_per_sec,
            latency_sec,
            shared: false,
        }
    }

    /// Mark the link as a shared medium (see [`LinkModel::shared`]).
    pub fn shared_medium(mut self) -> Self {
        self.shared = true;
        self
    }

    /// Convenience constructor from a bandwidth quoted in Gbit/s (how
    /// Ethernet links are specified in Table 2).
    pub fn from_gbps(gbps: f64, latency_sec: f64) -> Self {
        LinkModel::new(gbps * 1e9 / 8.0, latency_sec)
    }

    /// Convenience constructor from a bandwidth quoted in GByte/s (how
    /// NVLink/PCIe are specified in §2.3).
    pub fn from_gbytes(gbytes: f64, latency_sec: f64) -> Self {
        LinkModel::new(gbytes * 1e9, latency_sec)
    }

    /// Time to move `bytes` point-to-point over this link.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency_sec + bytes as f64 / self.bandwidth_bytes_per_sec
    }
}

/// Point-to-point transfer time of `bytes` over `link`.
pub fn p2p_time(link: &LinkModel, bytes: u64) -> f64 {
    link.transfer_time(bytes)
}

/// Time for an all_reduce of `bytes` across `m` workers whose slowest
/// common link is `link` (ring algorithm; the paper's §3.1 cost model).
///
/// Each worker sends `(m-1)/m · bytes` and receives the same amount over
/// `2(m-1)` ring steps, so the wall time on point-to-point links is
/// `2(m-1)/m · bytes / B + 2(m-1) · latency`. On a **shared** medium the
/// per-step transfers serialize through the common root, costing `m×` more:
/// `2(m-1) · bytes / B` — which is why data parallelism scales poorly on
/// shared-PCIe servers (Figure 1a/1b).
#[inline]
pub fn allreduce_time(link: &LinkModel, bytes: u64, m: usize) -> f64 {
    assert!(m >= 1, "all_reduce needs at least one participant");
    if m == 1 {
        return 0.0;
    }
    let steps = 2 * (m - 1);
    let mut wire_bytes = 2.0 * (m as f64 - 1.0) / m as f64 * bytes as f64;
    if link.shared {
        wire_bytes *= m as f64;
    }
    wire_bytes / link.bandwidth_bytes_per_sec + steps as f64 * link.latency_sec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gbps_conversion() {
        let l = LinkModel::from_gbps(10.0, 0.0);
        assert!((l.bandwidth_bytes_per_sec - 1.25e9).abs() < 1.0);
    }

    #[test]
    fn transfer_time_includes_latency() {
        let l = LinkModel::new(1e9, 1e-3);
        let t = l.transfer_time(1_000_000);
        assert!((t - (1e-3 + 1e-3)).abs() < 1e-12);
    }

    #[test]
    fn allreduce_single_worker_is_free() {
        let l = LinkModel::new(1e9, 1e-6);
        assert_eq!(allreduce_time(&l, 1 << 30, 1), 0.0);
    }

    #[test]
    fn allreduce_grows_with_participants() {
        let l = LinkModel::new(1e9, 0.0);
        let t2 = allreduce_time(&l, 1 << 20, 2);
        let t8 = allreduce_time(&l, 1 << 20, 8);
        // (m-1)/m factor: 0.5 for m=2 vs 0.875 for m=8.
        assert!(t8 > t2);
        assert!((t8 / t2 - 0.875 / 0.5).abs() < 1e-9);
    }

    #[test]
    fn allreduce_approaches_2x_bytes_over_bandwidth() {
        let l = LinkModel::new(1e9, 0.0);
        let bytes = 1u64 << 30;
        let t = allreduce_time(&l, bytes, 1000);
        let bound = 2.0 * bytes as f64 / 1e9;
        assert!(t < bound && t > 0.99 * bound);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        LinkModel::new(0.0, 0.0);
    }
}
