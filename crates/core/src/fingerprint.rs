//! Canonical fingerprints of planning inputs.
//!
//! The partitioner is a pure function of `(model profile, topology,
//! batch, precision, mode, memory limit)`, which makes its results
//! memoizable — the serving layer (`pipedream-serve`) keys its plan cache
//! on a fingerprint of that tuple. For the cache to behave, the
//! fingerprint must be *canonical*: two logically identical inputs must
//! hash identically regardless of how they were produced, and no two
//! distinct inputs should collide by construction sloppiness (field
//! reordering, ambiguous concatenation, `-0.0` vs `0.0`).
//!
//! The hasher is FNV-1a over a canonical byte stream:
//!
//! * every variable-length field (strings, layer lists) is length-prefixed
//!   so adjacent fields cannot alias each other;
//! * floats are hashed by IEEE-754 bit pattern with `-0.0` canonicalized
//!   to `+0.0` (they compare equal, so they must hash equal);
//! * `NaN` is **rejected** — `NaN != NaN`, so a NaN-bearing profile can
//!   never be a well-defined cache key and the caller gets a typed error
//!   instead of a poisoned cache entry.

use pipedream_hw::{Precision, Topology};
use pipedream_model::{LayerCosts, ModelProfile};

/// A float that cannot key a cache: the input contained a `NaN`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FingerprintError {
    /// Which field held the NaN, e.g. `"layer conv1_1 flops_fwd"`.
    pub context: String,
}

impl std::fmt::Display for FingerprintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot fingerprint NaN in {}", self.context)
    }
}

impl std::error::Error for FingerprintError {}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64-bit hasher over a canonical byte encoding.
///
/// Not cryptographic, and nothing checks a match: the serving layer keys
/// its plan cache on the 64-bit value alone, so two distinct requests
/// that collide are answered with whichever plan was cached first. Among
/// `n` distinct requests the chance of any collision is about
/// `n² / 2⁶⁵` — below 10⁻⁹ for the first 190 000 — assuming FNV-1a
/// spreads these inputs like a random function, which it is not built to
/// guarantee against inputs chosen to collide.
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    state: u64,
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Fingerprinter { state: FNV_OFFSET }
    }
}

impl Fingerprinter {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hash raw bytes (no length prefix — callers frame their own fields).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Hash a `u64` as 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Hash a `usize` (widened so 32- and 64-bit hosts agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Hash a boolean as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_bytes(&[v as u8]);
    }

    /// Hash a string, length-prefixed so `("ab", "c")` and `("a", "bc")`
    /// differ.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Hash a float by canonical bit pattern: `-0.0` folds into `+0.0`
    /// (they compare equal), `NaN` is rejected with `context()` in the
    /// error. `context` runs only for a NaN, so naming the field costs
    /// nothing on the way every valid input takes. Infinities are legal —
    /// they are self-equal and arise transiently in cost arithmetic.
    pub fn write_f64(
        &mut self,
        v: f64,
        context: impl FnOnce() -> String,
    ) -> Result<(), FingerprintError> {
        if v.is_nan() {
            return Err(FingerprintError { context: context() });
        }
        let canonical = if v == 0.0 { 0.0f64 } else { v };
        self.write_u64(canonical.to_bits());
        Ok(())
    }

    /// The 64-bit fingerprint of everything written so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Fold a [`ModelProfile`] into `h` canonically.
pub fn fingerprint_profile(
    h: &mut Fingerprinter,
    profile: &ModelProfile,
) -> Result<(), FingerprintError> {
    h.write_str("profile");
    h.write_str(&profile.name);
    h.write_usize(profile.default_batch);
    h.write_u64(profile.input_elems);
    h.write_usize(profile.layers.len());
    for l in &profile.layers {
        h.write_str(&l.name);
        h.write_f64(l.flops_fwd, || format!("layer {} flops_fwd", l.name))?;
        h.write_f64(l.bwd_factor, || format!("layer {} bwd_factor", l.name))?;
        h.write_u64(l.activation_elems);
        h.write_u64(l.weight_params);
    }
    Ok(())
}

/// Fold materialized [`LayerCosts`] into `h` canonically — used when a
/// plan is requested from measured costs rather than an abstract profile.
pub fn fingerprint_costs(
    h: &mut Fingerprinter,
    costs: &LayerCosts,
) -> Result<(), FingerprintError> {
    h.write_str("costs");
    h.write_str(&costs.model);
    h.write_usize(costs.batch);
    h.write_usize(costs.layers.len());
    for l in &costs.layers {
        h.write_str(&l.name);
        h.write_f64(l.fwd_s, || format!("layer {} fwd_s", l.name))?;
        h.write_f64(l.bwd_s, || format!("layer {} bwd_s", l.name))?;
        h.write_u64(l.activation_bytes);
        h.write_u64(l.weight_bytes);
    }
    Ok(())
}

/// Fold a [`Topology`] (device + bandwidth hierarchy) into `h`.
pub fn fingerprint_topology(
    h: &mut Fingerprinter,
    topo: &Topology,
) -> Result<(), FingerprintError> {
    h.write_str("topology");
    h.write_str(&topo.device.name);
    h.write_f64(topo.device.peak_flops, || "device peak_flops".into())?;
    h.write_f64(topo.device.efficiency, || "device efficiency".into())?;
    h.write_u64(topo.device.mem_bytes);
    h.write_usize(topo.levels.len());
    for level in &topo.levels {
        h.write_str(&level.name);
        h.write_usize(level.arity);
        h.write_f64(level.link.bandwidth_bytes_per_sec, || {
            format!("level {} bandwidth", level.name)
        })?;
        h.write_f64(level.link.latency_sec, || {
            format!("level {} latency", level.name)
        })?;
        h.write_bool(level.link.shared);
    }
    Ok(())
}

/// Fold a [`crate::PipelineConfig`] (the planner's *answer*) into `h`:
/// stage boundaries and replica counts, length-prefixed. Infallible —
/// configs hold no floats.
pub fn fingerprint_config(h: &mut Fingerprinter, config: &crate::PipelineConfig) {
    h.write_str("config");
    h.write_usize(config.num_stages());
    for s in config.stages() {
        h.write_usize(s.first_layer);
        h.write_usize(s.last_layer);
        h.write_usize(s.replicas);
    }
}

/// Canonical 64-bit fingerprint of a [`crate::PipelineConfig`] alone. Two
/// plans with equal fingerprints assign the same layers and replicas to the
/// same stages, so an *applied* reconfiguration can be matched against
/// the advisor's *recommended* plan (and against serve-cache entries)
/// across report files.
pub fn config_fingerprint(config: &crate::PipelineConfig) -> u64 {
    let mut h = Fingerprinter::new();
    fingerprint_config(&mut h, config);
    h.finish()
}

/// Canonical fingerprint of a full plan request: the `(profile, topology,
/// hw spec)` triple plus the planning knobs that change the answer. Two
/// requests with equal fingerprints get byte-identical plans; the serve
/// cache keys on this.
pub fn fingerprint_plan_request(
    profile: &ModelProfile,
    topo: &Topology,
    batch: usize,
    precision: Precision,
    mode: &str,
    memory_limit: Option<u64>,
    schedule: crate::ScheduleKind,
) -> Result<u64, FingerprintError> {
    let mut h = Fingerprinter::new();
    fingerprint_profile(&mut h, profile)?;
    fingerprint_topology(&mut h, topo)?;
    h.write_usize(batch);
    h.write_str(match precision {
        Precision::Fp32 => "fp32",
        Precision::Fp16 => "fp16",
    });
    h.write_str(mode);
    match memory_limit {
        Some(bytes) => {
            h.write_bool(true);
            h.write_u64(bytes);
        }
        None => h.write_bool(false),
    }
    h.write_str(schedule.as_str());
    Ok(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipedream_hw::{ClusterPreset, Device, LinkModel};
    use pipedream_model::zoo;

    fn fp(
        profile: &ModelProfile,
        topo: &Topology,
        batch: usize,
        mode: &str,
        mem: Option<u64>,
    ) -> u64 {
        fingerprint_plan_request(
            profile,
            topo,
            batch,
            Precision::Fp32,
            mode,
            mem,
            crate::ScheduleKind::Vanilla1F1B,
        )
        .unwrap()
    }

    #[test]
    fn identical_inputs_hash_identically() {
        let topo = ClusterPreset::A.with_servers(4);
        let a = fp(&zoo::vgg16(), &topo, 64, "flat", None);
        let b = fp(&zoo::vgg16(), &topo.clone(), 64, "flat", None);
        assert_eq!(a, b);
    }

    #[test]
    fn every_knob_changes_the_fingerprint() {
        let topo = ClusterPreset::A.with_servers(4);
        let base = fp(&zoo::vgg16(), &topo, 64, "flat", None);
        assert_ne!(base, fp(&zoo::resnet50(), &topo, 64, "flat", None));
        assert_ne!(
            base,
            fp(
                &zoo::vgg16(),
                &ClusterPreset::A.with_servers(2),
                64,
                "flat",
                None
            )
        );
        assert_ne!(
            base,
            fp(
                &zoo::vgg16(),
                &ClusterPreset::B.with_servers(4),
                64,
                "flat",
                None
            )
        );
        assert_ne!(base, fp(&zoo::vgg16(), &topo, 32, "flat", None));
        assert_ne!(base, fp(&zoo::vgg16(), &topo, 64, "hierarchical", None));
        assert_ne!(base, fp(&zoo::vgg16(), &topo, 64, "flat", Some(16 << 30)));
        assert_ne!(
            fingerprint_plan_request(
                &zoo::vgg16(),
                &topo,
                64,
                Precision::Fp16,
                "flat",
                None,
                crate::ScheduleKind::Vanilla1F1B,
            )
            .unwrap(),
            base
        );
        assert_ne!(
            fingerprint_plan_request(
                &zoo::vgg16(),
                &topo,
                64,
                Precision::Fp32,
                "flat",
                None,
                crate::ScheduleKind::TwoBWRecompute,
            )
            .unwrap(),
            base
        );
    }

    #[test]
    fn single_bit_layer_cost_change_changes_fingerprint() {
        let topo = ClusterPreset::A.with_servers(1);
        let a = zoo::vgg16();
        let mut b = zoo::vgg16();
        b.layers[7].flops_fwd = f64::from_bits(b.layers[7].flops_fwd.to_bits() + 1);
        assert_ne!(
            fp(&a, &topo, 64, "flat", None),
            fp(&b, &topo, 64, "flat", None)
        );
    }

    #[test]
    fn negative_zero_is_canonicalized() {
        let mut a = Fingerprinter::new();
        a.write_f64(0.0, || "x".into()).unwrap();
        let mut b = Fingerprinter::new();
        b.write_f64(-0.0, || "x".into()).unwrap();
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn nan_is_rejected_with_context() {
        let mut profile = zoo::alexnet();
        profile.layers[2].bwd_factor = f64::NAN;
        let topo = ClusterPreset::A.with_servers(1);
        let err = fingerprint_plan_request(
            &profile,
            &topo,
            64,
            Precision::Fp32,
            "flat",
            None,
            crate::ScheduleKind::Vanilla1F1B,
        )
        .unwrap_err();
        assert!(err.context.contains("bwd_factor"), "{err}");
        assert!(err.to_string().contains("NaN"), "{err}");
    }

    #[test]
    fn nan_in_a_link_or_a_cost_names_its_field() {
        let profile = zoo::alexnet();
        let topo = ClusterPreset::A.with_servers(2);
        let level = topo.levels[0].name.clone();
        let plan_err = |topo: &Topology| {
            fingerprint_plan_request(
                &profile,
                topo,
                64,
                Precision::Fp32,
                "flat",
                None,
                crate::ScheduleKind::Vanilla1F1B,
            )
            .unwrap_err()
        };
        let mut bad = topo.clone();
        bad.levels[0].link.bandwidth_bytes_per_sec = f64::NAN;
        assert_eq!(plan_err(&bad).context, format!("level {level} bandwidth"));
        let mut bad = topo.clone();
        bad.levels[0].link.latency_sec = f64::NAN;
        assert_eq!(plan_err(&bad).context, format!("level {level} latency"));

        let mut costs = profile.costs(&topo.device, 32, Precision::Fp32);
        let layer = costs.layers[3].name.clone();
        costs.layers[3].bwd_s = f64::NAN;
        let err = fingerprint_costs(&mut Fingerprinter::new(), &costs).unwrap_err();
        assert_eq!(err.context, format!("layer {layer} bwd_s"));
        costs.layers[1].fwd_s = f64::NAN;
        let err = fingerprint_costs(&mut Fingerprinter::new(), &costs).unwrap_err();
        assert_eq!(err.context, format!("layer {} fwd_s", costs.layers[1].name));
    }

    #[test]
    fn length_prefix_prevents_field_aliasing() {
        let mut a = Fingerprinter::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fingerprinter::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn costs_fingerprint_distinguishes_measured_profiles() {
        let d = Device::v100();
        let base = zoo::alexnet().costs(&d, 32, Precision::Fp32);
        let mut skewed = base.clone();
        skewed.layers[0].fwd_s *= 1.5;
        let mut ha = Fingerprinter::new();
        fingerprint_costs(&mut ha, &base).unwrap();
        let mut hb = Fingerprinter::new();
        fingerprint_costs(&mut hb, &skewed).unwrap();
        assert_ne!(ha.finish(), hb.finish());
        // And a verbatim clone agrees.
        let mut hc = Fingerprinter::new();
        fingerprint_costs(&mut hc, &base.clone()).unwrap();
        assert_eq!(ha.finish(), hc.finish());
    }

    #[test]
    fn config_fingerprint_tracks_partition_and_replication() {
        use crate::{PipelineConfig, StagePlan};
        let straight = PipelineConfig::straight(8, &[3]);
        let same = PipelineConfig::new(vec![StagePlan::new(0, 3, 1), StagePlan::new(4, 7, 1)]);
        assert_eq!(config_fingerprint(&straight), config_fingerprint(&same));
        let moved = PipelineConfig::straight(8, &[4]);
        assert_ne!(config_fingerprint(&straight), config_fingerprint(&moved));
        let replicated =
            PipelineConfig::new(vec![StagePlan::new(0, 3, 2), StagePlan::new(4, 7, 1)]);
        assert_ne!(
            config_fingerprint(&straight),
            config_fingerprint(&replicated)
        );
    }

    #[test]
    fn topology_link_flags_matter() {
        let d = Device::v100();
        let shared = Topology::flat(
            d.clone(),
            4,
            LinkModel::new(4e9, 1e-5).shared_medium(),
            "pcie",
        );
        let p2p = Topology::flat(d, 4, LinkModel::new(4e9, 1e-5), "pcie");
        let profile = zoo::alexnet();
        assert_ne!(
            fp(&profile, &shared, 32, "flat", None),
            fp(&profile, &p2p, 32, "flat", None)
        );
    }
}
