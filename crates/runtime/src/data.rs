//! Shared training-data view for stage workers.

use pipedream_tensor::data::Dataset;
use pipedream_tensor::{pool, Tensor};
use std::borrow::Cow;

/// Read-only dataset view shared by the input stage (which needs minibatch
/// inputs) and the output stage (which needs labels). The trainer's view
/// borrows the caller's dataset; [`TrainData::new`] owns one.
///
/// A run is one *segment* of a logical training run: it starts after
/// `start` minibatches of that run have completed (0 for a fresh run, the
/// checkpoint's `done` for a resumed one) and numbers its own minibatches
/// from 0, as its schedule does. Every method takes such a segment-local
/// `mb` and answers about the logical run: minibatch `mb` is the run's
/// minibatch [`TrainData::id`]` = start + mb`, in epoch
/// `id / minibatches_per_epoch` at index `id % minibatches_per_epoch` — so
/// a resumed run reads the samples, epoch numbers and learning rates the
/// uninterrupted run would have. Every epoch visits minibatches in the
/// same order — the datasets are pre-shuffled at generation time, keeping
/// all execution modes comparable input-for-input.
#[derive(Debug, Clone)]
pub struct TrainData<'a> {
    dataset: Cow<'a, Dataset>,
    batch: usize,
    mbs_per_epoch: u64,
    /// Minibatches of the logical run completed before this segment.
    start: u64,
}

impl TrainData<'static> {
    /// Wrap a dataset with a minibatch size.
    pub fn new(dataset: Dataset, batch: usize) -> Self {
        Self::over(Cow::Owned(dataset), batch, 0)
    }
}

impl<'a> TrainData<'a> {
    /// A view of a borrowed dataset, for a segment that starts after
    /// `done` minibatches of the logical run (a resume from that
    /// checkpoint; 0 for a fresh run).
    pub fn with_start(dataset: &'a Dataset, batch: usize, done: u64) -> Self {
        Self::over(Cow::Borrowed(dataset), batch, done)
    }

    fn over(dataset: Cow<'a, Dataset>, batch: usize, done: u64) -> Self {
        assert!(batch >= 1);
        let mbs_per_epoch = dataset.num_minibatches(batch) as u64;
        assert!(mbs_per_epoch >= 1, "dataset is empty");
        TrainData {
            dataset,
            batch,
            mbs_per_epoch,
            start: done,
        }
    }

    /// Minibatches per epoch.
    pub fn minibatches_per_epoch(&self) -> usize {
        self.mbs_per_epoch as usize
    }

    /// Configured minibatch size.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Logical-run id of segment minibatch `mb`; `id(mb) + 1` minibatches
    /// are done once it completes.
    pub fn id(&self, mb: u64) -> u64 {
        self.start + mb
    }

    /// Epoch of the logical run that minibatch `mb` belongs to.
    pub fn epoch_of(&self, mb: u64) -> usize {
        (self.id(mb) / self.mbs_per_epoch) as usize
    }

    /// Within-epoch index of minibatch `mb`.
    pub fn mb_in_epoch(&self, mb: u64) -> u64 {
        self.id(mb) % self.mbs_per_epoch
    }

    /// Whether `mb` is the last minibatch of its epoch.
    pub fn is_epoch_end(&self, mb: u64) -> bool {
        (self.id(mb) + 1).is_multiple_of(self.mbs_per_epoch)
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
    fn a_resumed_segment_answers_about_the_logical_run() {
        // 5 minibatches/epoch, resumed with 8 done: segment mb 0 is epoch
        // 1's minibatch 3, mb 1 finishes epoch 1, mb 2 opens epoch 2.
        let dataset = blobs(40, 4, 2, 0.3, 1);
        let d = TrainData::with_start(&dataset, 8, 8);
        assert_eq!(d.id(0), 8);
        assert_eq!(d.mb_in_epoch(0), 3);
        assert_eq!(d.epoch_of(0), 1);
        assert!(!d.is_epoch_end(0));
        assert!(d.is_epoch_end(1));
        assert_eq!(d.epoch_of(2), 2);
        assert_eq!(d.mb_in_epoch(2), 0);
        // The data served is what the uninterrupted run reads there.
        let fresh = TrainData::new(dataset.clone(), 8);
        assert_eq!(d.input(0), fresh.input(8));
        assert_eq!(d.labels(2), fresh.labels(10));
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
