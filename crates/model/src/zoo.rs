//! Profiles of the paper's seven models, derived from their published
//! architectures.
//!
//! The paper's profiler measures `(T_l, a_l, w_l)` on a real GPU; here the
//! triple is computed from layer dimensions: weights and activations from
//! shape arithmetic, compute from FLOP counts. The property every PipeDream
//! result rests on is preserved: convolutional models (ResNet-50, and the
//! conv portion of VGG/AlexNet) have **small weights and large activations**,
//! while fully-connected/LSTM models (VGG's classifier, AlexNet's
//! classifier, GNMT, AWD-LM, S2VT) have **large weights and small
//! activations** — which is exactly what drives the optimizer toward data
//! parallelism for the former and pipelined straight/hybrid configurations
//! for the latter.
//!
//! Image models fuse each convolution with its activation/pooling into one
//! profiled layer (the activation size recorded is what actually crosses to
//! the next layer, i.e. post-pooling), matching how the paper's profiler
//! groups PyTorch modules.

use crate::profile::{LayerProfile, ModelProfile};

/// Builder that walks spatial dimensions through a convolutional trunk —
/// public so users can assemble profiles of their own architectures without
/// hand-computing FLOPs and activation shapes.
///
/// ```
/// use pipedream_model::zoo::ConvNetBuilder;
///
/// let mut b = ConvNetBuilder::new(3, 32, 32);
/// b.conv("c1", 16, 3, 1, 1, 2).conv("c2", 32, 3, 1, 1, 2).fc("head", 10);
/// let profile = b.build("tiny-cnn", 32, 3 * 32 * 32);
/// assert_eq!(profile.num_layers(), 3);
/// ```
pub struct ConvNetBuilder {
    layers: Vec<LayerProfile>,
    ch: u64,
    h: u64,
    w: u64,
}

impl ConvNetBuilder {
    /// Start a trunk at `channels × h × w` input resolution.
    pub fn new(channels: u64, h: u64, w: u64) -> Self {
        ConvNetBuilder {
            layers: Vec::new(),
            ch: channels,
            h,
            w,
        }
    }

    /// Convolution (+ReLU) with square kernel `k`, given stride/padding,
    /// optionally followed by a `pool`× max-pool that shrinks the output
    /// actually shipped to the next layer (`pool = 1` for none).
    pub fn conv(
        &mut self,
        name: &str,
        out_ch: u64,
        k: u64,
        stride: u64,
        pad: u64,
        pool: u64,
    ) -> &mut Self {
        let oh = (self.h + 2 * pad - k) / stride + 1;
        let ow = (self.w + 2 * pad - k) / stride + 1;
        let flops = 2.0 * (k * k * self.ch * out_ch * oh * ow) as f64;
        let (oh, ow) = (oh / pool, ow / pool);
        self.layers.push(LayerProfile::new(
            name,
            flops,
            out_ch * oh * ow,
            k * k * self.ch * out_ch + out_ch,
        ));
        self.ch = out_ch;
        self.h = oh;
        self.w = ow;
        self
    }

    /// ResNet bottleneck block (1×1 → 3×3 → 1×1 with expansion 4), fused
    /// into one profiled layer. `stride` applies to the 3×3 conv;
    /// `downsample` adds the 1×1 projection shortcut.
    pub fn bottleneck(
        &mut self,
        name: &str,
        mid_ch: u64,
        stride: u64,
        downsample: bool,
    ) -> &mut Self {
        let in_ch = self.ch;
        let out_ch = mid_ch * 4;
        let (oh, ow) = (self.h / stride, self.w / stride);
        let mut params = in_ch * mid_ch + mid_ch // 1x1 reduce
            + 9 * mid_ch * mid_ch + mid_ch       // 3x3
            + mid_ch * out_ch + out_ch; // 1x1 expand
        let mut flops = 2.0
            * ((in_ch * mid_ch * self.h * self.w)
                + (9 * mid_ch * mid_ch * oh * ow)
                + (mid_ch * out_ch * oh * ow)) as f64;
        if downsample {
            params += in_ch * out_ch + out_ch;
            flops += 2.0 * (in_ch * out_ch * oh * ow) as f64;
        }
        self.layers
            .push(LayerProfile::new(name, flops, out_ch * oh * ow, params));
        self.ch = out_ch;
        self.h = oh;
        self.w = ow;
        self
    }

    /// Global average pool: collapses the spatial extent to 1×1 (folded
    /// into the preceding layer's shipped activation size, as the paper's
    /// profiler would observe).
    pub fn global_avg_pool(&mut self) -> &mut Self {
        if let Some(last) = self.layers.last_mut() {
            last.activation_elems = self.ch;
        }
        self.h = 1;
        self.w = 1;
        self
    }

    /// Fully-connected (+ReLU) layer; flattens whatever spatial extent is
    /// left.
    pub fn fc(&mut self, name: &str, out_features: u64) -> &mut Self {
        let in_features = self.ch * self.h * self.w;
        self.layers.push(LayerProfile::new(
            name,
            2.0 * (in_features * out_features) as f64,
            out_features,
            in_features * out_features + out_features,
        ));
        self.ch = out_features;
        self.h = 1;
        self.w = 1;
        self
    }

    /// Finish the trunk into a [`ModelProfile`].
    pub fn build(self, name: &str, default_batch: usize, input_elems: u64) -> ModelProfile {
        ModelProfile {
            name: name.into(),
            layers: self.layers,
            default_batch,
            input_elems,
        }
    }
}

/// One (unidirectional) LSTM layer profile: `seq` timesteps over hidden
/// width `h` with input width `h` (4 gates, input + recurrent matmuls).
/// Public for assembling custom recurrent-model profiles.
pub fn lstm_layer(name: &str, hidden: u64, seq: u64) -> LayerProfile {
    let params = 4 * (hidden * hidden + hidden * hidden + hidden);
    let flops = 2.0 * seq as f64 * (8 * hidden * hidden) as f64;
    LayerProfile::new(name, flops, seq * hidden, params)
}

/// VGG-16 on ImageNet (224×224): 13 conv layers + 3 FC, ≈ 138 M params.
/// Paper per-GPU batch: 64.
pub fn vgg16() -> ModelProfile {
    let mut b = ConvNetBuilder::new(3, 224, 224);
    b.conv("conv1_1", 64, 3, 1, 1, 1)
        .conv("conv1_2", 64, 3, 1, 1, 2)
        .conv("conv2_1", 128, 3, 1, 1, 1)
        .conv("conv2_2", 128, 3, 1, 1, 2)
        .conv("conv3_1", 256, 3, 1, 1, 1)
        .conv("conv3_2", 256, 3, 1, 1, 1)
        .conv("conv3_3", 256, 3, 1, 1, 2)
        .conv("conv4_1", 512, 3, 1, 1, 1)
        .conv("conv4_2", 512, 3, 1, 1, 1)
        .conv("conv4_3", 512, 3, 1, 1, 2)
        .conv("conv5_1", 512, 3, 1, 1, 1)
        .conv("conv5_2", 512, 3, 1, 1, 1)
        .conv("conv5_3", 512, 3, 1, 1, 2)
        .fc("fc6", 4096)
        .fc("fc7", 4096)
        .fc("fc8", 1000);
    b.build("VGG-16", 64, 3 * 224 * 224)
}

/// AlexNet on 224×224 inputs: 5 conv + 3 FC, ≈ 61 M params.
/// Paper per-GPU batch: 256 (synthetic data).
pub fn alexnet() -> ModelProfile {
    let mut b = ConvNetBuilder::new(3, 224, 224);
    b.conv("conv1", 96, 11, 4, 2, 2)
        .conv("conv2", 256, 5, 1, 2, 2)
        .conv("conv3", 384, 3, 1, 1, 1)
        .conv("conv4", 384, 3, 1, 1, 1)
        .conv("conv5", 256, 3, 1, 1, 2)
        .fc("fc6", 4096)
        .fc("fc7", 4096)
        .fc("fc8", 1000);
    b.build("AlexNet", 256, 3 * 224 * 224)
}

/// ResNet-50 on ImageNet: stem + 16 bottleneck blocks + FC, ≈ 25.6 M params.
/// Paper per-GPU batch: 128.
pub fn resnet50() -> ModelProfile {
    let mut b = ConvNetBuilder::new(3, 224, 224);
    b.conv("conv1", 64, 7, 2, 3, 2);
    let stages: [(u64, usize, &str); 4] = [
        (64, 3, "conv2"),
        (128, 4, "conv3"),
        (256, 6, "conv4"),
        (512, 3, "conv5"),
    ];
    for (si, &(mid, blocks, prefix)) in stages.iter().enumerate() {
        for blk in 0..blocks {
            let stride = if blk == 0 && si > 0 { 2 } else { 1 };
            b.bottleneck(&format!("{prefix}_{}", blk + 1), mid, stride, blk == 0);
        }
    }
    b.global_avg_pool();
    b.fc("fc", 1000);
    b.build("ResNet-50", 128, 3 * 224 * 224)
}

/// GNMT with `n` LSTM layers (paper: GNMT-8 / GNMT-16), hidden 1024,
/// vocab 32 k, WMT16-typical sequence length 50. Embedding and
/// softmax-projection layers bracket the LSTM stack; a small attention
/// layer sits mid-stack.
fn gnmt(n_lstm: usize) -> ModelProfile {
    const HIDDEN: u64 = 1024;
    const VOCAB: u64 = 32_000;
    const SEQ: u64 = 50;
    let mut layers = vec![LayerProfile::new(
        "embed_src",
        SEQ as f64 * HIDDEN as f64, // lookup ≈ copy cost
        SEQ * HIDDEN,
        VOCAB * HIDDEN,
    )];
    let half = n_lstm / 2;
    for i in 0..n_lstm {
        if i == half {
            // Decoder side starts: target embedding + attention.
            layers.push(LayerProfile::new(
                "embed_tgt",
                SEQ as f64 * HIDDEN as f64,
                SEQ * HIDDEN,
                VOCAB * HIDDEN,
            ));
            layers.push(LayerProfile::new(
                "attention",
                2.0 * (SEQ * SEQ * HIDDEN) as f64,
                SEQ * HIDDEN,
                2 * HIDDEN * HIDDEN,
            ));
        }
        let side = if i < half { "enc" } else { "dec" };
        layers.push(lstm_layer(&format!("lstm_{side}{i}"), HIDDEN, SEQ));
    }
    layers.push(LayerProfile::new(
        "softmax_proj",
        2.0 * (SEQ * HIDDEN * VOCAB) as f64,
        SEQ * VOCAB,
        HIDDEN * VOCAB + VOCAB,
    ));
    ModelProfile {
        name: format!("GNMT-{n_lstm}"),
        layers,
        default_batch: 64,
        input_elems: SEQ,
    }
}

/// GNMT with 8 LSTM layers. Paper per-GPU batch: 64.
pub fn gnmt8() -> ModelProfile {
    gnmt(8)
}

/// GNMT with 16 LSTM layers. Paper per-GPU batch: 64.
pub fn gnmt16() -> ModelProfile {
    gnmt(16)
}

/// AWD language model on PTB: six LSTM layers (paper §5.2) totalling
/// ≈ 0.41 GB of parameters with embedding + tied softmax. Per-GPU batch 80.
pub fn awd_lm() -> ModelProfile {
    const HIDDEN: u64 = 1350;
    const VOCAB: u64 = 10_000;
    const SEQ: u64 = 70;
    let mut layers = vec![LayerProfile::new(
        "embed",
        SEQ as f64 * HIDDEN as f64,
        SEQ * HIDDEN,
        VOCAB * HIDDEN,
    )];
    for i in 0..6 {
        layers.push(lstm_layer(&format!("lstm{i}"), HIDDEN, SEQ));
    }
    layers.push(LayerProfile::new(
        "softmax_proj",
        2.0 * (SEQ * HIDDEN * VOCAB) as f64,
        SEQ * VOCAB,
        HIDDEN * VOCAB + VOCAB,
    ));
    ModelProfile {
        name: "AWD-LM".into(),
        layers,
        default_batch: 80,
        input_elems: SEQ,
    }
}

/// S2VT video-captioning model: frame-feature encoder (fc7 4096-d inputs,
/// ~40 sampled frames per clip), two LSTM layers of width 500, word
/// projection over the MSVD vocabulary. Paper per-GPU batch 80, Cluster-C.
pub fn s2vt() -> ModelProfile {
    const FRAMES: u64 = 40;
    const HIDDEN: u64 = 500;
    const VOCAB: u64 = 13_000;
    let layers = vec![
        LayerProfile::new(
            "frame_fc",
            2.0 * (FRAMES * 4096 * HIDDEN) as f64,
            FRAMES * HIDDEN,
            4096 * HIDDEN + HIDDEN,
        ),
        lstm_layer("lstm_video", HIDDEN, FRAMES),
        lstm_layer("lstm_text", HIDDEN, FRAMES),
        LayerProfile::new(
            "word_proj",
            2.0 * (FRAMES * HIDDEN * VOCAB) as f64,
            FRAMES * VOCAB,
            HIDDEN * VOCAB + VOCAB,
        ),
    ];
    ModelProfile {
        name: "S2VT".into(),
        layers,
        default_batch: 80,
        input_elems: FRAMES * 4096,
    }
}

/// A uniform synthetic model: `n` identical layers. Useful for schedule and
/// planner tests where perfectly balanceable work is wanted.
pub fn uniform(n: usize, flops: f64, act_elems: u64, weight_params: u64) -> ModelProfile {
    ModelProfile {
        name: format!("uniform-{n}"),
        layers: (0..n)
            .map(|i| LayerProfile::new(format!("l{i}"), flops, act_elems, weight_params))
            .collect(),
        default_batch: 32,
        input_elems: act_elems,
    }
}

/// A deliberately weight-heavy language model for memory-schedule
/// studies: eight transformer-ish blocks of 200 M parameters each
/// (≈ 6.4 GB of fp32 weights total, ≈ 800 MB per layer) with tiny
/// activations, so weight *versions* dominate the per-worker footprint.
/// Under vanilla 1F1B stashing on a 4-worker pipeline every candidate
/// partition holds ≥ 8 layer-versions at its worst stage; PipeDream-2BW
/// caps that at 2 versions, which is what makes this model plannable
/// under budgets where vanilla is `MemoryInfeasible`.
pub fn huge_lm() -> ModelProfile {
    ModelProfile {
        name: "huge-lm".into(),
        layers: (0..8)
            .map(|i| LayerProfile::new(format!("block{i}"), 1e11, 1_000, 200_000_000))
            .collect(),
        default_batch: 32,
        input_elems: 1_000,
    }
}

/// All seven paper models, in the order they appear in Table 1.
pub fn all_models() -> Vec<ModelProfile> {
    vec![
        vgg16(),
        resnet50(),
        alexnet(),
        gnmt16(),
        gnmt8(),
        awd_lm(),
        s2vt(),
    ]
}

/// One spelling of each model [`by_name`] knows, for messages that list
/// them.
pub const NAMES: &[&str] = &[
    "vgg16", "resnet50", "alexnet", "gnmt8", "gnmt16", "awd-lm", "s2vt", "huge-lm",
];

/// The zoo model a user means by `name` (case-insensitive, with the
/// spellings the CLI and the planner daemon accept), if any.
pub fn by_name(name: &str) -> Option<ModelProfile> {
    Some(match name.to_ascii_lowercase().as_str() {
        "vgg16" | "vgg-16" => vgg16(),
        "resnet50" | "resnet-50" => resnet50(),
        "alexnet" => alexnet(),
        "gnmt8" | "gnmt-8" => gnmt8(),
        "gnmt16" | "gnmt-16" => gnmt16(),
        "awd-lm" | "awdlm" | "lm" => awd_lm(),
        "s2vt" => s2vt(),
        "huge-lm" | "hugelm" => huge_lm(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipedream_hw::Precision;

    #[test]
    fn by_name_knows_every_model_and_its_aliases() {
        for m in all_models().into_iter().chain([huge_lm()]) {
            assert_eq!(by_name(&m.name).map(|p| p.name), Some(m.name.clone()));
        }
        assert_eq!(by_name("ResNet-50").map(|p| p.name), Some(resnet50().name));
        assert_eq!(by_name("lm").map(|p| p.name), Some(awd_lm().name));
        assert!(by_name("vgg19").is_none());
    }

    #[test]
    fn every_listed_name_resolves_and_every_model_is_listed() {
        let mut listed: Vec<String> = NAMES.iter().map(|n| by_name(n).expect(n).name).collect();
        let mut every: Vec<String> = all_models()
            .into_iter()
            .chain([huge_lm()])
            .map(|m| m.name)
            .collect();
        listed.sort();
        every.sort();
        assert_eq!(listed, every);
    }

    #[test]
    fn vgg16_matches_published_size() {
        let m = vgg16();
        let params = m.total_params();
        // Published: ≈ 138 M parameters, ≈ 123.6 M of them in the FCs.
        assert!((params as f64 - 138.4e6).abs() / 138.4e6 < 0.01, "{params}");
        let fc_params: u64 = m.layers[13..].iter().map(|l| l.weight_params).sum();
        assert!(fc_params > 120_000_000);
        assert_eq!(m.num_layers(), 16);
    }

    #[test]
    fn resnet50_matches_published_size() {
        let m = resnet50();
        let params = m.total_params();
        // Published ≈ 25.6 M (ours omits batch-norm params, ~53 k).
        assert!((params as f64 - 25.5e6).abs() / 25.5e6 < 0.03, "{params}");
        assert_eq!(m.num_layers(), 1 + 16 + 1);
    }

    #[test]
    fn alexnet_matches_published_size() {
        let params = alexnet().total_params();
        assert!((params as f64 - 61e6).abs() / 61e6 < 0.05, "{params}");
    }

    #[test]
    fn awd_lm_is_0_41_gb() {
        let bytes = awd_lm().total_weight_bytes(Precision::Fp32);
        let gb = bytes as f64 / (1 << 30) as f64;
        assert!((gb - 0.41).abs() < 0.03, "{gb} GB");
    }

    #[test]
    fn gnmt16_has_8_more_lstms_than_gnmt8() {
        assert_eq!(gnmt16().num_layers() - gnmt8().num_layers(), 8);
        let extra = gnmt16().total_params() - gnmt8().total_params();
        // 8 extra LSTM layers at ≈ 8.4 M params each.
        assert!((extra as f64 - 8.0 * 8.4e6).abs() / (8.0 * 8.4e6) < 0.01);
    }

    #[test]
    fn conv_models_have_small_weights_big_activations() {
        // The key asymmetry PipeDream exploits (§2.1): for ResNet-50 conv
        // layers, activations dominate weights; for VGG's FC layers, the
        // reverse.
        let r = resnet50();
        let conv = &r.layers[4];
        assert!(conv.activation_elems * 32 > conv.weight_params);
        let v = vgg16();
        let fc6 = &v.layers[13];
        assert!(fc6.weight_params > fc6.activation_elems * 1000);
    }

    #[test]
    fn vgg_flops_are_plausible() {
        // Published VGG-16 forward ≈ 15.5 GFLOPs/sample (multiply-add
        // counted as 2 FLOPs ⇒ ≈ 31 G). Accept the 25–40 G band.
        let flops: f64 = vgg16().layers.iter().map(|l| l.flops_fwd).sum();
        assert!(flops > 25e9 && flops < 40e9, "{flops:.3e}");
    }

    #[test]
    fn resnet_flops_are_plausible() {
        // Published ≈ 4.1 GFLOPs MAC ⇒ ≈ 8.2 G with 2-FLOP convention.
        let flops: f64 = resnet50().layers.iter().map(|l| l.flops_fwd).sum();
        assert!(flops > 6e9 && flops < 11e9, "{flops:.3e}");
    }

    #[test]
    fn uniform_model_is_uniform() {
        let m = uniform(5, 1e9, 100, 200);
        assert_eq!(m.num_layers(), 5);
        assert!(m.layers.iter().all(|l| l.weight_params == 200));
    }

    #[test]
    fn all_models_round_trip_through_json() {
        for m in all_models() {
            let json = serde_json::to_string(&m).unwrap();
            let back: crate::ModelProfile = serde_json::from_str(&json).unwrap();
            assert_eq!(back, m, "{} JSON round trip", m.name);
        }
    }

    #[test]
    fn all_models_are_nonempty_and_named() {
        let models = all_models();
        assert_eq!(models.len(), 7);
        for m in &models {
            assert!(m.num_layers() >= 4, "{} too small", m.name);
            assert!(m.total_params() > 1_000_000);
        }
    }
}
