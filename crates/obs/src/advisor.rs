//! The replan advisor: feeds *measured* per-stage times back into the
//! partitioning optimizer (paper §3.1) and reports whether a different
//! partition/replication would beat the current one, with the
//! simulated-throughput delta.
//!
//! The planner wants per-*layer* costs but the live profiler measures
//! per-*stage* times, so the advisor scales the offline baseline
//! [`LayerCosts`] layer by layer: every layer in stage `s` has its
//! forward/backward costs multiplied by `measured_s[s] / predicted_s[s]`.
//! That keeps the intra-stage cost *shape* from the offline profile
//! while matching the inter-stage *totals* to what the pipeline is
//! actually doing — exactly the information a repartition needs (a
//! straggling stage gets more expensive, so the DP moves layers off it
//! or throws replicas at it).

use pipedream_core::estimates::memory_footprint_for;
use pipedream_core::{config_fingerprint, PipelineConfig, PlanError, StagePrediction};
use pipedream_core::{Planner, Schedule, ScheduleKind};
use pipedream_hw::Topology;
use pipedream_model::LayerCosts;
use pipedream_sim::PipelineSim;
use serde::{Deserialize, Serialize};

/// Outcome of one replan evaluation. Serializable so the recommended
/// plan can be saved as a CI artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplanAdvice {
    /// Label of the configuration the pipeline is running.
    pub current_label: String,
    /// Label of the configuration the planner recommends under measured
    /// costs (may equal `current_label`).
    pub recommended_label: String,
    /// True when the recommendation differs from the current config.
    pub changed: bool,
    /// `core::fingerprint` of the current pipeline configuration, for
    /// matching applied plans against recommendations across reports and
    /// serve-cache entries.
    pub current_plan_fingerprint: u64,
    /// `core::fingerprint` of the recommended pipeline configuration.
    pub recommended_plan_fingerprint: u64,
    /// DP objective (bottleneck seconds/minibatch) of the current config
    /// under measured costs.
    pub current_bottleneck_s: f64,
    /// DP objective of the recommended config under measured costs.
    pub recommended_bottleneck_s: f64,
    /// Simulated steady-state throughput of the current config under
    /// measured costs (samples/second).
    pub current_sim_samples_per_sec: f64,
    /// Simulated throughput of the recommended config (samples/second).
    pub recommended_sim_samples_per_sec: f64,
    /// `recommended_sim / current_sim` (1.0 when unchanged).
    pub sim_speedup: f64,
    /// The recommended configuration itself.
    pub recommended_config: PipelineConfig,
    /// The measured-scaled layer costs the recommendation was planned
    /// from, for reproducibility.
    pub measured_costs: LayerCosts,
    /// True when the replan was forced by memory pressure: the current
    /// configuration's estimated footprint exceeds the advisor's budget,
    /// so the recommendation stands even without a throughput win.
    pub memory_driven: bool,
}

/// Scale the baseline per-layer costs so each stage's total compute
/// matches its measured time. Stages with no measurement yet (or a zero
/// prediction) keep their baseline costs.
pub fn measured_layer_costs(
    baseline: &LayerCosts,
    config: &PipelineConfig,
    predictions: &[StagePrediction],
    measured_stage_s: &[f64],
) -> LayerCosts {
    let mut out = baseline.clone();
    for (si, stage) in config.stages().iter().enumerate() {
        let predicted = predictions
            .iter()
            .find(|p| p.stage == si)
            .map(|p| p.compute_s)
            .unwrap_or(0.0);
        let measured = measured_stage_s.get(si).copied().unwrap_or(0.0);
        if predicted <= 0.0 || measured <= 0.0 {
            continue;
        }
        let ratio = measured / predicted;
        for l in stage.first_layer..=stage.last_layer {
            if let Some(layer) = out.layers.get_mut(l) {
                layer.fwd_s *= ratio;
                layer.bwd_s *= ratio;
            }
        }
    }
    out
}

/// Re-run the partitioner over measured costs and compare against the
/// running configuration. `sim_minibatches` sets the schedule length for
/// the steady-state throughput simulation (enough to amortize fill/drain;
/// 48 is plenty for small pipelines). Degenerate inputs come back as typed
/// [`PlanError`]s, never panics — a live training run depends on this.
///
/// The replan is memory- and schedule-aware: the repartition DP only
/// considers candidates whose estimated per-worker footprint fits
/// `memory_limit` under `schedule` (per `estimates::memory_footprint_for`;
/// `None` is unconstrained), and the throughput simulation charges the
/// schedule's recompute cost. A budget changes the recommendation two
/// ways:
///
/// * a faster candidate is rejected because it does not fit, and
/// * when the *current* configuration itself exceeds the budget, the best
///   fitting plan is recommended even if it is slower (`memory_driven`),
///   because the alternative is an OOM, not a slowdown.
///
/// When no partition fits at all, the planner's typed
/// [`PlanError::MemoryInfeasible`] surfaces — the caller's cue to retry
/// under a more memory-efficient [`ScheduleKind`].
#[allow(clippy::too_many_arguments)]
pub fn advise_replan(
    baseline: &LayerCosts,
    topo: &Topology,
    current: &PipelineConfig,
    measured_stage_s: &[f64],
    sim_minibatches: u64,
    memory_limit: Option<u64>,
    schedule: ScheduleKind,
) -> Result<ReplanAdvice, PlanError> {
    let base_planner = Planner::from_costs(baseline.clone(), topo);
    let predictions = base_planner.try_predicted_stage_times(current)?;
    let measured = measured_layer_costs(baseline, current, &predictions, measured_stage_s);

    let mut planner = Planner::from_costs(measured.clone(), topo).with_schedule(schedule);
    if let Some(bytes) = memory_limit {
        planner = planner.with_memory_limit(bytes);
    }
    let current_plan = planner.try_evaluate(current)?;
    let best = planner.try_plan_flat()?;
    let current_oversubscribed = memory_limit.is_some_and(|limit| {
        memory_footprint_for(&measured, current, schedule)
            .iter()
            .any(|s| s.total() > limit)
    });
    // Only advise a change when the DP objective actually improves
    // (plan_flat can tie with the current config under different labels) —
    // unless the incumbent no longer fits in memory, where any fitting
    // plan beats an OOM.
    let memory_driven = current_oversubscribed && best.config != *current;
    let (recommended, changed) = if best.config != *current
        && (memory_driven || best.bottleneck_s < current_plan.bottleneck_s)
    {
        (best, true)
    } else {
        (current_plan.clone(), false)
    };

    let simulated_samples_per_sec = |config: &PipelineConfig| {
        let schedule_1f1b = Schedule::one_f_one_b(config, sim_minibatches);
        PipelineSim::new(&measured, topo, &schedule_1f1b)
            .with_schedule(schedule)
            .run()
            .samples_per_sec
    };
    let sim_cur = simulated_samples_per_sec(current);
    let sim_rec = if changed {
        simulated_samples_per_sec(&recommended.config)
    } else {
        sim_cur
    };

    Ok(ReplanAdvice {
        current_label: current.label(),
        recommended_label: recommended.config.label(),
        changed,
        current_plan_fingerprint: config_fingerprint(current),
        recommended_plan_fingerprint: config_fingerprint(&recommended.config),
        current_bottleneck_s: current_plan.bottleneck_s,
        recommended_bottleneck_s: recommended.bottleneck_s,
        current_sim_samples_per_sec: sim_cur,
        recommended_sim_samples_per_sec: sim_rec,
        sim_speedup: if sim_cur > 0.0 {
            sim_rec / sim_cur
        } else {
            1.0
        },
        recommended_config: recommended.config,
        measured_costs: measured,
        memory_driven,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipedream_hw::{Device, LinkModel};
    use pipedream_model::profile::LayerCost;

    /// 4 uniform layers: 1 ms forward, 2 ms backward each.
    fn uniform_costs() -> LayerCosts {
        LayerCosts {
            model: "test".into(),
            batch: 8,
            layers: (0..4)
                .map(|i| LayerCost {
                    name: format!("l{i}"),
                    fwd_s: 1e-3,
                    bwd_s: 2e-3,
                    activation_bytes: 1024,
                    weight_bytes: 4096,
                })
                .collect(),
        }
    }

    fn topo2() -> Topology {
        Topology::flat(Device::v100(), 2, LinkModel::new(1e14, 0.0), "test")
    }

    #[test]
    fn measured_costs_scale_only_the_straggling_stage() {
        let baseline = uniform_costs();
        let config = PipelineConfig::straight(4, &[1]);
        let topo = topo2();
        let preds = Planner::from_costs(baseline.clone(), &topo)
            .try_predicted_stage_times(&config)
            .unwrap();
        // Stage 0 measured at 3× its prediction, stage 1 on target.
        let measured = measured_layer_costs(
            &baseline,
            &config,
            &preds,
            &[preds[0].compute_s * 3.0, preds[1].compute_s],
        );
        assert!((measured.layers[0].fwd_s - 3e-3).abs() < 1e-9);
        assert!((measured.layers[1].bwd_s - 6e-3).abs() < 1e-9);
        assert!((measured.layers[2].fwd_s - 1e-3).abs() < 1e-9);
        assert!((measured.layers[3].bwd_s - 2e-3).abs() < 1e-9);
    }

    #[test]
    fn unmeasured_stages_keep_baseline_costs() {
        let baseline = uniform_costs();
        let config = PipelineConfig::straight(4, &[1]);
        let topo = topo2();
        let preds = Planner::from_costs(baseline.clone(), &topo)
            .try_predicted_stage_times(&config)
            .unwrap();
        let measured = measured_layer_costs(&baseline, &config, &preds, &[0.0, 0.0]);
        assert_eq!(measured, baseline);
    }

    #[test]
    fn advisor_beats_a_degraded_partition() {
        let baseline = uniform_costs();
        let config = PipelineConfig::straight(4, &[1]);
        let topo = topo2();
        let preds = Planner::from_costs(baseline.clone(), &topo)
            .try_predicted_stage_times(&config)
            .unwrap();
        // Stage 0 straggling at 3×: the balanced 2-2 split is now 9 ms vs
        // 6 ms, so a repartition (or data parallelism) must win.
        let advice = advise_replan(
            &baseline,
            &topo,
            &config,
            &[preds[0].compute_s * 3.0, preds[1].compute_s],
            48,
            None,
            ScheduleKind::Vanilla1F1B,
        )
        .unwrap();
        assert!(advice.changed, "advisor kept a degraded plan: {advice:?}");
        assert!(
            advice.recommended_bottleneck_s < advice.current_bottleneck_s,
            "DP objective did not improve: {advice:?}"
        );
        assert!(
            advice.recommended_sim_samples_per_sec > advice.current_sim_samples_per_sec,
            "simulated throughput did not improve: {advice:?}"
        );
        assert!(advice.sim_speedup > 1.0);
        assert_ne!(
            advice.current_plan_fingerprint, advice.recommended_plan_fingerprint,
            "a changed plan must carry a distinct fingerprint"
        );
        assert_eq!(
            advice.recommended_plan_fingerprint,
            config_fingerprint(&advice.recommended_config)
        );
    }

    #[test]
    fn healthy_pipeline_keeps_its_plan() {
        let baseline = uniform_costs();
        let topo = topo2();
        // Run the planner's own choice with on-target measurements.
        let best = Planner::from_costs(baseline.clone(), &topo)
            .try_plan_flat()
            .unwrap();
        let preds = Planner::from_costs(baseline.clone(), &topo)
            .try_predicted_stage_times(&best.config)
            .unwrap();
        let measured: Vec<f64> = preds.iter().map(|p| p.compute_s).collect();
        let advice = advise_replan(
            &baseline,
            &topo,
            &best.config,
            &measured,
            48,
            None,
            ScheduleKind::Vanilla1F1B,
        )
        .unwrap();
        assert!(!advice.changed, "flapped on a healthy plan: {advice:?}");
        assert_eq!(advice.sim_speedup, 1.0);
        assert_eq!(advice.current_label, advice.recommended_label);
    }

    #[test]
    fn memory_pressure_forces_a_replan_and_infeasibility_is_typed() {
        // Weight-heavy regime so stashed versions dominate: 1 MB of
        // weights and 1 KB of activations per layer. On 2 workers the
        // balanced straight split `4-4`... here `2+2` layers peaks at
        // stage 0 with 2 versions × 2 MB ≈ 4.2 MB; the unbalanced `1+3`
        // split peaks at stage 1 with 1 version × 3 MB ≈ 3.1 MB.
        let mut baseline = uniform_costs();
        for l in &mut baseline.layers {
            l.weight_bytes = 1 << 20;
            l.activation_bytes = 1 << 10;
        }
        let topo = topo2();
        let config = PipelineConfig::straight(4, &[1]); // 2 stages, depth 2
        let preds = Planner::from_costs(baseline.clone(), &topo)
            .try_predicted_stage_times(&config)
            .unwrap();
        let measured: Vec<f64> = preds.iter().map(|p| p.compute_s).collect();

        // Unconstrained (and generously constrained): the healthy plan
        // is kept.
        let advise = |limit, schedule| {
            advise_replan(&baseline, &topo, &config, &measured, 24, limit, schedule)
        };
        let free = advise(None, ScheduleKind::Vanilla1F1B).unwrap();
        assert!(!free.memory_driven && !free.changed);
        let roomy = advise(Some(1 << 30), ScheduleKind::Vanilla1F1B).unwrap();
        assert_eq!(roomy.recommended_label, free.recommended_label);
        assert!(!roomy.memory_driven && !roomy.changed);

        // 1 MB fits nothing — the typed error surfaces, no panic.
        let err = advise(Some(1 << 20), ScheduleKind::Vanilla1F1B).unwrap_err();
        assert!(matches!(err, PlanError::MemoryInfeasible { .. }), "{err:?}");

        // 3.3 MB: the incumbent balanced split no longer fits but the
        // unbalanced one does — the advisor must move off the incumbent
        // even though the DP objective gets *worse* (3 layers on one
        // worker), because staying put means an OOM.
        let squeezed = advise(Some(3_300_000), ScheduleKind::Vanilla1F1B).unwrap();
        assert!(squeezed.memory_driven && squeezed.changed, "{squeezed:?}");
        assert_ne!(
            squeezed.recommended_plan_fingerprint,
            config_fingerprint(&config)
        );

        // A 1 MB budget stays infeasible even under 2BW + recompute —
        // one layer's weights alone exceed it — and the error carries
        // the schedule it was evaluated under.
        let err2 = advise(Some(1 << 20), ScheduleKind::TwoBWRecompute).unwrap_err();
        assert!(
            matches!(err2, PlanError::MemoryInfeasible { .. }),
            "{err2:?}"
        );
    }

    #[test]
    fn advice_round_trips_through_json() {
        let baseline = uniform_costs();
        let config = PipelineConfig::straight(4, &[1]);
        let topo = topo2();
        let preds = Planner::from_costs(baseline.clone(), &topo)
            .try_predicted_stage_times(&config)
            .unwrap();
        let advice = advise_replan(
            &baseline,
            &topo,
            &config,
            &[preds[0].compute_s * 3.0, preds[1].compute_s],
            24,
            None,
            ScheduleKind::Vanilla1F1B,
        )
        .unwrap();
        let json = serde_json::to_string(&advice).unwrap();
        let back: ReplanAdvice = serde_json::from_str(&json).unwrap();
        assert_eq!(back, advice);
    }
}
