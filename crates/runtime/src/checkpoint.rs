//! Per-stage checkpointing (paper §4).
//!
//! "Checkpoints don't require expensive global coordination. Each stage
//! dumps its model parameters locally when it performs the backward pass
//! for the last minibatch in an epoch." A dump is a JSON file of the
//! stage's parameter tensors, and a place in a training run is one number,
//! **`done`: how many minibatches of the logical run have completed**. So
//! there is one file layout, `stage{s}_mb{done}.json`: the epoch-end dump
//! of §4 is the one at `done = (e + 1) · minibatches_per_epoch`, a
//! `checkpoint_every` or drain-cut dump is any other `done`, and integer
//! order is training order. (Directories written before this layout, with
//! `_epoch{e}` in their file names, are not read.)
//!
//! Loading distinguishes *missing* checkpoints from *corrupt* ones
//! ([`CheckpointError`]): a truncated or garbled file — e.g. from a crash
//! mid-write on a filesystem without atomic rename, or disk corruption —
//! must not wedge recovery. [`latest_complete`] therefore treats an
//! unreadable stage file the same as an absent one and falls back to the
//! newest `done` whose *every* stage file parses.

use pipedream_tensor::Tensor;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Why a checkpoint could not be loaded.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read (missing, permissions, ...).
    Io(io::Error),
    /// The file exists but does not parse as a parameter dump — a
    /// truncated or corrupted write.
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// Parse failure detail.
        message: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Corrupt { path, message } => {
                write!(f, "corrupt checkpoint {}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// The one file-name pattern ([`latest_complete`] parses it back).
fn file_name(stage: usize, done: u64) -> String {
    format!("stage{stage}_mb{done}.json")
}

/// Path of stage `stage`'s dump taken when `done` minibatches of the
/// logical run had completed.
pub fn stage_path(dir: &Path, stage: usize, done: u64) -> PathBuf {
    dir.join(file_name(stage, done))
}

/// Write stage `stage`'s parameters as of `done` completed minibatches.
/// Atomic write-then-rename: a crash mid-write leaves only a `.tmp`
/// litter file, never a torn file that could be picked as "latest".
pub fn save_stage(dir: &Path, stage: usize, done: u64, params: &[Tensor]) -> io::Result<()> {
    let json = serde_json::to_string(params).map_err(io::Error::other)?;
    fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(".{}.tmp", file_name(stage, done)));
    fs::write(&tmp, json)?;
    fs::rename(tmp, stage_path(dir, stage, done))
}

/// Load stage `stage`'s parameters as of `done` completed minibatches.
pub fn load_stage(dir: &Path, stage: usize, done: u64) -> Result<Vec<Tensor>, CheckpointError> {
    let path = stage_path(dir, stage, done);
    let json = fs::read_to_string(&path)?;
    serde_json::from_str(&json).map_err(|e| CheckpointError::Corrupt {
        path,
        message: e.to_string(),
    })
}

/// The largest `done` for which *all* `stages` files exist **and parse** —
/// where a restarted run resumes (§4: "restarting entails starting from
/// the last successfully created checkpoint for all stages"). A missing,
/// half-written or corrupted stage file disqualifies its `done`, falling
/// back to the newest fully intact one; with `checkpoint_every = k` that is
/// at most `k` minibatches behind the fault.
pub fn latest_complete(dir: &Path, stages: usize) -> Option<u64> {
    let mut dones: Vec<u64> = fs::read_dir(dir)
        .ok()?
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            name.strip_prefix("stage0_mb")?
                .strip_suffix(".json")?
                .parse()
                .ok()
        })
        .collect();
    dones.sort_unstable();
    // Newest first, so validation loads as few files as possible in the
    // common (uncorrupted) case.
    dones
        .into_iter()
        .rev()
        .find(|&done| (0..stages).all(|s| load_stage(dir, s, done).is_ok()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::env;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = env::temp_dir().join(format!("pipedream-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn round_trip() {
        let dir = tmpdir("rt");
        let params = vec![Tensor::from_slice(&[1.0, 2.0]), Tensor::zeros(&[2, 2])];
        save_stage(&dir, 0, 3, &params).unwrap();
        let loaded = load_stage(&dir, 0, 3).unwrap();
        assert_eq!(loaded, params);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_distinguishes_missing_from_corrupt() {
        let dir = tmpdir("corrupt-kind");
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            load_stage(&dir, 0, 0),
            Err(CheckpointError::Io(_))
        ));
        fs::write(
            stage_path(&dir, 0, 0),
            "[{\"shape\": [2
",
        )
        .unwrap(); // half-written
        assert!(matches!(
            load_stage(&dir, 0, 0),
            Err(CheckpointError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_is_none() {
        assert_eq!(latest_complete(Path::new("/nonexistent-pd"), 1), None);
    }

    proptest! {
        /// Over any set of `(stage, done)` files, some of them cut short
        /// mid-JSON as if the writer died without the atomic rename,
        /// `latest_complete` is the largest `done` whose every stage file
        /// parses; `.tmp` litter of a crashed write never counts.
        #[test]
        fn latest_complete_is_the_newest_fully_intact_done(
            files in proptest::collection::vec((0usize..2, 0u64..6, any::<bool>()), 0..24),
            litter in proptest::collection::vec((0usize..2, 0u64..9), 0..4),
        ) {
            let dir = tmpdir("prop");
            fs::create_dir_all(&dir).unwrap();
            let p = vec![Tensor::from_slice(&[0.5, 1.5])];
            // A later write of the same file replaces the earlier one.
            let mut intact = std::collections::HashMap::new();
            for &(stage, done, truncate) in &files {
                save_stage(&dir, stage, done, &p).unwrap();
                if truncate {
                    let path = stage_path(&dir, stage, done);
                    let full = fs::read_to_string(&path).unwrap();
                    fs::write(&path, &full[..full.len() / 2]).unwrap();
                }
                intact.insert((stage, done), !truncate);
            }
            for &(stage, done) in &litter {
                fs::write(dir.join(format!(".{}.tmp", file_name(stage, done))), "[").unwrap();
            }
            let want = (0..6u64)
                .rev()
                .find(|&d| (0..2).all(|s| intact.get(&(s, d)) == Some(&true)));
            prop_assert_eq!(latest_complete(&dir, 2), want);
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}
