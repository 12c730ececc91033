//! Shared training-data view for stage workers.

use pipedream_tensor::data::Dataset;
use pipedream_tensor::{pool, Tensor};

/// Read-only dataset view shared (via `Arc`) by the input stage (which
/// needs minibatch inputs) and the output stage (which needs labels).
///
/// Minibatch ids are global across epochs: with a start offset of `start`
/// within-epoch minibatches (0 for a fresh run), id `mb` maps to epoch
/// `(mb + start) / minibatches_per_epoch` and within-epoch index
/// `(mb + start) % minibatches_per_epoch`. The offset lets a run resumed
/// from a mid-epoch checkpoint seek the dataloader to the restored
/// minibatch instead of replaying the epoch from its first sample. Every
/// epoch visits minibatches in the same order — the datasets are
/// pre-shuffled at generation time, keeping all execution modes comparable
/// input-for-input.
#[derive(Debug, Clone)]
pub struct TrainData {
    dataset: Dataset,
    batch: usize,
    mbs_per_epoch: usize,
    /// Within-epoch minibatch offset the run starts at (mid-epoch resume).
    start: usize,
}

impl TrainData {
    /// Wrap a dataset with a minibatch size.
    pub fn new(dataset: Dataset, batch: usize) -> Self {
        Self::with_start(dataset, batch, 0)
    }

    /// Like [`TrainData::new`], but the run's first minibatch (global id 0)
    /// maps to within-epoch index `start_mb` — the dataloader seek used
    /// when resuming from a mid-epoch `(epoch, minibatch)` checkpoint.
    pub fn with_start(dataset: Dataset, batch: usize, start_mb: usize) -> Self {
        assert!(batch >= 1);
        let mbs_per_epoch = dataset.num_minibatches(batch);
        assert!(mbs_per_epoch >= 1, "dataset is empty");
        assert!(
            start_mb < mbs_per_epoch,
            "start offset {start_mb} out of range (epoch has {mbs_per_epoch} minibatches)"
        );
        TrainData {
            dataset,
            batch,
            mbs_per_epoch,
            start: start_mb,
        }
    }

    /// Minibatches per epoch.
    pub fn minibatches_per_epoch(&self) -> usize {
        self.mbs_per_epoch
    }

    /// Configured minibatch size.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Within-epoch offset the run starts at (0 unless resumed mid-epoch).
    pub fn start_offset(&self) -> usize {
        self.start
    }

    /// Epoch that minibatch `mb` belongs to (relative to the run's start:
    /// add the trainer's epoch offset for the absolute epoch number).
    pub fn epoch_of(&self, mb: u64) -> usize {
        ((mb + self.start as u64) / self.mbs_per_epoch as u64) as usize
    }

    /// Within-epoch index of minibatch `mb`.
    pub fn mb_in_epoch(&self, mb: u64) -> u64 {
        (mb + self.start as u64) % self.mbs_per_epoch as u64
    }

    /// Whether `mb` is the last minibatch of its epoch.
    pub fn is_epoch_end(&self, mb: u64) -> bool {
        (mb as usize + self.start + 1).is_multiple_of(self.mbs_per_epoch)
    }

    /// Dataset rows `lo..hi` that make up minibatch `mb` (the epoch's
    /// last one may be short).
    fn rows(&self, mb: u64) -> std::ops::Range<usize> {
        let lo = self.mb_in_epoch(mb) as usize * self.batch;
        lo..(lo + self.batch).min(self.dataset.len())
    }

    /// Input tensor for minibatch `mb`, in a buffer from the caller's
    /// pool: the input stage recycles it after its forward pass.
    pub fn input(&self, mb: u64) -> Tensor {
        let rows = self.rows(mb);
        let d = self.dataset.features();
        let data = pool::take_copy(&self.dataset.x.data()[rows.start * d..rows.end * d]);
        Tensor::from_vec(&[rows.len(), d], data)
    }

    /// Labels for minibatch `mb`, borrowed from the dataset.
    pub fn labels(&self, mb: u64) -> &[usize] {
        &self.dataset.y[self.rows(mb)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipedream_tensor::data::blobs;

    #[test]
    fn epoch_arithmetic() {
        let d = TrainData::new(blobs(40, 4, 2, 0.3, 1), 8);
        assert_eq!(d.minibatches_per_epoch(), 5);
        assert_eq!(d.epoch_of(0), 0);
        assert_eq!(d.epoch_of(4), 0);
        assert_eq!(d.epoch_of(5), 1);
        assert!(d.is_epoch_end(4));
        assert!(!d.is_epoch_end(5));
    }

    #[test]
    fn same_minibatch_across_epochs() {
        let d = TrainData::new(blobs(16, 4, 2, 0.3, 2), 8);
        assert_eq!(d.input(0), d.input(2));
        assert_eq!(d.labels(1), d.labels(3));
    }

    #[test]
    fn mid_epoch_start_offset_shifts_mapping() {
        // 5 minibatches/epoch, resumed at within-epoch index 3: global mb 0
        // is epoch 0's minibatch 3, mb 1 finishes epoch 0, mb 2 opens
        // epoch 1.
        let d = TrainData::with_start(blobs(40, 4, 2, 0.3, 1), 8, 3);
        assert_eq!(d.start_offset(), 3);
        assert_eq!(d.mb_in_epoch(0), 3);
        assert_eq!(d.epoch_of(0), 0);
        assert!(!d.is_epoch_end(0));
        assert!(d.is_epoch_end(1));
        assert_eq!(d.epoch_of(2), 1);
        assert_eq!(d.mb_in_epoch(2), 0);
        // The data served matches the unshifted view of the same indices.
        let fresh = TrainData::new(blobs(40, 4, 2, 0.3, 1), 8);
        assert_eq!(d.input(0), fresh.input(3));
        assert_eq!(d.labels(2), fresh.labels(5));
    }

    #[test]
    fn short_final_minibatch() {
        let d = TrainData::new(blobs(20, 4, 2, 0.3, 3), 8);
        assert_eq!(d.minibatches_per_epoch(), 3);
        assert_eq!(d.input(2).rows(), 4);
        assert_eq!(d.labels(2).len(), 4);
        // Each half is what `Dataset::minibatch` hands out as a pair.
        for mb in 0..3 {
            let (x, y) = d.dataset().minibatch(mb, 8);
            assert_eq!((d.input(mb as u64), d.labels(mb as u64)), (x, &y[..]));
        }
    }
}
