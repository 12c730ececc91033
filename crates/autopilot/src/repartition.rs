//! Checkpointed repartition: re-split a drained per-stage checkpoint
//! along a *different* plan's stage boundaries.
//!
//! The drain protocol leaves one parameter file per stage of the *old*
//! configuration, all cut after the same number of minibatches. A new
//! plan generally has different stage boundaries (and possibly a
//! different stage *count*), so its workers cannot read those files
//! directly. The repartitioner reassembles the full model from the old
//! stage files — restoring each old stage's parameters into the matching
//! slice of a template model — then re-splits at the new boundaries and
//! writes one file per *new* stage into a fresh generation directory,
//! under the same `done`. Generations never share a directory, so a
//! rollback can still resume the old plan from its own untouched files.

use crate::pilot::AutopilotError;
use pipedream_core::PipelineConfig;
use pipedream_runtime::checkpoint::{load_stage, save_stage};
use pipedream_tensor::{Layer, Sequential};
use std::path::Path;

/// Layer indices where a config's stages begin (excluding layer 0) —
/// the `split_off` boundary list.
fn boundaries(config: &PipelineConfig) -> Vec<usize> {
    let stages = config.stages();
    stages[..stages.len() - 1]
        .iter()
        .map(|s| s.last_layer + 1)
        .collect()
}

/// Re-split the checkpoint taken at `done` completed minibatches from
/// `old_config`'s stage layout (files in `old_dir`) to `new_config`'s
/// (files written into `new_dir`). `template` must be an architecture-identical model — its
/// layer *structure* is used to rebuild the full parameter vector; its
/// parameter *values* are fully overwritten by the checkpoint before
/// anything is saved. Fails with [`AutopilotError::Checkpoint`] when a
/// plan's stage boundaries do not cover the template, an old-generation
/// stage file is missing or unreadable, or a new one cannot be written.
pub fn repartition_checkpoint(
    old_dir: &Path,
    old_config: &PipelineConfig,
    new_dir: &Path,
    new_config: &PipelineConfig,
    template: Sequential,
    done: u64,
) -> Result<(), AutopilotError> {
    let fail = |e: String| AutopilotError::Checkpoint(format!("repartition: {e}"));
    let num_layers = template.len();
    old_config.validate(num_layers).map_err(fail)?;
    new_config.validate(num_layers).map_err(fail)?;

    // Rebuild the full model at the drain point: restore each old
    // stage's parameters into the matching slice of the template.
    let mut old_stages = template.split_off(&boundaries(old_config));
    for (si, stage_model) in old_stages.iter_mut().enumerate() {
        let params = load_stage(old_dir, si, done).map_err(|e| fail(e.to_string()))?;
        stage_model.restore(&params);
    }
    let mut full = Sequential::new("repartitioned");
    for stage_model in old_stages {
        for layer in stage_model.into_layers() {
            full.push_boxed(layer);
        }
    }

    // Re-split at the new boundaries and save each new stage under the
    // *same* `done`, into its own generation directory.
    let new_stages = full.split_off(&boundaries(new_config));
    for (si, stage_model) in new_stages.iter().enumerate() {
        save_stage(new_dir, si, done, &stage_model.snapshot()).map_err(|e| fail(e.to_string()))?;
    }
    Ok(())
}
