//! Horovod-style gradient bucket fusion.
//!
//! Horovod's tensor-fusion buffer coalesces small gradients into few
//! large allreduces and launches each as soon as the layers feeding it
//! have finished backward. This module provides the deterministic core:
//! [`FusionConfig`] (the fusion threshold + overlap switch, a [`Trainer`]
//! option) and [`FusionBuffer`], which owns the flat gradient and
//! partitions it into size-targeted, **layer-aligned** buckets. A bucket
//! is a range of that one persistent buffer, so steady-state packing and
//! exchange do zero heap allocation.
//!
//! Bucket boundary rules (documented in DESIGN.md §11):
//! * buckets are contiguous ranges of the flat gradient, covering whole
//!   top-level layers — a parameter tensor is never split;
//! * a bucket closes once it holds ≥ `bucket_bytes` of gradient, so every
//!   bucket except possibly the last meets the threshold;
//! * backward runs back-to-front, so buckets become ready in descending
//!   flat order; a bucket is complete right after the backward of its
//!   lowest-indexed parameterised layer.
//!
//! Bit-exactness across bucket counts rests on the exchange being
//! partition-invariant: the trainer reduces every bucket with
//! `msa_net::collectives::pipeline_allreduce`, whose element-wise fold
//! order depends only on rank order, never on how the flat gradient was
//! cut (asserted in `pipeline_allreduce_is_partition_invariant`).
//!
//! [`Trainer`]: crate::trainer::Trainer

use crate::compress::{sparse_allreduce_mean, TopKCompressor};
use msa_net::codec::bf16_allreduce_with;
use msa_net::tune::{tuned_allreduce_with, DecisionTable};
use msa_net::{collectives, Arena, Communicator, GradCodec, PointToPoint};
use nn::Sequential;
use std::sync::Arc;
use tensor::Tensor;

/// Which allreduce each fusion bucket dispatches through.
///
/// The default keeps the PR 5 contract: every bucket goes through
/// `pipeline_allreduce`, whose fold order is partition-invariant, so the
/// result is bit-identical for *every* `bucket_bytes`. `Tuned` trades
/// that cross-partition guarantee for measured speed: each bucket runs
/// the decision table's winner for its (ranks, bytes). Selection depends
/// only on the bucket's byte length, so the fused and serialized paths
/// of the *same* partition still pick identical algorithms bucket for
/// bucket — fused ≡ serialized stays bit-exact per partition; only
/// equality *across different* `bucket_bytes` is given up (different
/// algorithms fold in different orders).
#[derive(Debug, Clone, Default)]
pub enum ExchangeDispatch {
    /// Partition-invariant pipeline chain for every bucket (PR 5
    /// behaviour, bit-identical across bucket sizes).
    #[default]
    Pipeline,
    /// Per-bucket measured-winner dispatch through a
    /// [`msa_net::tune::DecisionTable`].
    Tuned(Arc<DecisionTable>),
}

impl ExchangeDispatch {
    /// Wraps a decision table for tuned dispatch.
    pub fn tuned(table: DecisionTable) -> Self {
        ExchangeDispatch::Tuned(Arc::new(table))
    }

    /// Allreduces one bucket segment through the configured path.
    pub fn reduce_bucket<C: PointToPoint + ?Sized>(
        &self,
        c: &C,
        seg: &mut [f32],
        scratch: &mut Arena,
    ) {
        match self {
            ExchangeDispatch::Pipeline => collectives::pipeline_allreduce_with(c, seg, scratch),
            ExchangeDispatch::Tuned(table) => tuned_allreduce_with(c, seg, scratch, table),
        }
    }

    /// Allreduce-**mean** of one bucket segment under a wire codec.
    ///
    /// * [`GradCodec::Dense32`] — the configured dispatch
    ///   ([`ExchangeDispatch::reduce_bucket`]) followed by the division
    ///   by `size()`: exactly the seed sequence, bit-identical to the
    ///   pre-codec trainer.
    /// * [`GradCodec::Bf16`] — the bf16-wire pipeline chain (half the
    ///   wire bytes; partition-invariant like the dense chain, so
    ///   bit-equality across bucket sizes is preserved), then the same
    ///   division.
    /// * [`GradCodec::SparseTopK`] — [`sparse_allreduce_mean`] with this
    ///   bucket's error-feedback `compressor` (required; the residual is
    ///   per-bucket state). The sparse path divides internally.
    ///
    /// The division lives here so every codec leaves the segment holding
    /// the *mean* — callers never divide.
    pub fn reduce_bucket_codec<C: Communicator + ?Sized>(
        &self,
        c: &C,
        seg: &mut [f32],
        scratch: &mut Arena,
        codec: GradCodec,
        compressor: Option<&mut TopKCompressor>,
    ) {
        let n = c.size() as f32;
        match codec {
            GradCodec::Dense32 => {
                self.reduce_bucket(c, seg, scratch);
                for x in seg.iter_mut() {
                    *x /= n;
                }
            }
            GradCodec::Bf16 => {
                bf16_allreduce_with(c, seg, scratch);
                for x in seg.iter_mut() {
                    *x /= n;
                }
            }
            GradCodec::SparseTopK { .. } => {
                let comp = compressor
                    // lint: allow(unwrap) -- the trainer builds one compressor per bucket whenever the sparse codec is selected
                    .expect("SparseTopK needs this bucket's error-feedback compressor");
                sparse_allreduce_mean(c, seg, comp);
            }
        }
    }
}

/// How the trainer exchanges gradients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FusionConfig {
    /// Fusion-buffer target in bytes (Horovod's fusion threshold).
    /// `None` — the default — keeps the seed behaviour: one
    /// whole-gradient exchange after backward completes.
    pub bucket_bytes: Option<usize>,
    /// Run each bucket's allreduce concurrently with the remaining
    /// backward pass (comm progress on a dedicated thread-pool lane) and
    /// price the step as `max(compute_tail, comm)` per bucket.
    pub overlap: bool,
}

impl FusionConfig {
    /// The serialized seed schedule: one exchange after backward.
    pub fn unfused() -> Self {
        Self::default()
    }

    /// Fused + overlapped exchange with the given fusion threshold.
    pub fn fused(bucket_bytes: usize) -> Self {
        assert!(bucket_bytes > 0, "fusion threshold must be positive");
        FusionConfig {
            bucket_bytes: Some(bucket_bytes),
            overlap: true,
        }
    }

    /// Overrides the overlap switch (builder style).
    pub fn overlap(mut self, on: bool) -> Self {
        self.overlap = on;
        self
    }
}

/// One fusion bucket: a layer-aligned contiguous range of the flat
/// gradient.
#[derive(Debug)]
pub struct Bucket {
    /// Flat gradient range `[start, end)` this bucket covers.
    pub start: usize,
    pub end: usize,
    /// Lowest-indexed top-level layer with parameters in this bucket.
    /// Backward visits layers in descending order, so the bucket's
    /// gradients are final right after this layer's backward.
    pub first_layer: usize,
}

impl Bucket {
    /// Scalars in this bucket.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the bucket covers no parameters (never constructed).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Layer-aligned partition of the flat gradient into fusion buckets,
/// plus the flat gradient itself: each bucket is a range of it.
#[derive(Debug)]
pub struct FusionBuffer {
    buckets: Vec<Bucket>,
    /// `spans[i]` = layer `i`'s `[start, end)` range of the flat
    /// gradient (empty span for stateless layers).
    spans: Vec<(usize, usize)>,
    /// `bucket_of[i]` = index of the bucket holding layer `i`'s
    /// parameters (meaningless for empty spans).
    bucket_of: Vec<usize>,
    /// The flat gradient, persistent across steps so packing and
    /// exchanging it allocate nothing.
    grad: Vec<f32>,
}

impl FusionBuffer {
    /// Partitions `total` flat gradient scalars, laid out as
    /// `layer_spans` (from [`nn::Sequential::layer_param_spans`]), into
    /// buckets of at least `bucket_bytes` (`None` ⇒ one bucket). Models
    /// with no parameters yield zero buckets.
    pub fn new(layer_spans: &[(usize, usize)], total: usize, bucket_bytes: Option<usize>) -> Self {
        debug_assert_eq!(layer_spans.last().map_or(0, |s| s.1), total);
        let threshold = bucket_bytes.unwrap_or(usize::MAX);
        let mut buckets: Vec<Bucket> = Vec::new();
        let mut bucket_of = vec![usize::MAX; layer_spans.len()];
        let mut open: Option<Bucket> = None;
        for (i, &(start, end)) in layer_spans.iter().enumerate() {
            if start == end {
                continue;
            }
            let b = open.get_or_insert(Bucket {
                start,
                end: start,
                first_layer: i,
            });
            b.end = end;
            b.first_layer = b.first_layer.min(i);
            bucket_of[i] = buckets.len();
            if (b.end - b.start) * size_of::<f32>() >= threshold {
                // lint: allow(unwrap) -- `open` was just populated above
                buckets.push(open.take().expect("bucket is open"));
            }
        }
        if let Some(b) = open {
            buckets.push(b);
        }
        FusionBuffer {
            buckets,
            spans: layer_spans.to_vec(),
            bucket_of,
            grad: vec![0.0; total],
        }
    }

    /// The buckets in ascending flat order.
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// The flat gradient as last packed (and, once every bucket has been
    /// reduced in place, exchanged).
    pub(crate) fn grad(&self) -> &[f32] {
        &self.grad
    }

    /// Runs `model`'s backward pass, copying each layer's parameter
    /// gradients into its range of the flat gradient (zero-allocation).
    /// Right after a bucket's lowest-indexed layer finishes,
    /// `on_bucket(bidx, range)` receives that bucket's range.
    ///
    /// Backward runs back-to-front, so buckets complete in descending
    /// flat order and the ranges still being packed always form the
    /// prefix `grad[..b.start]`: each completed bucket is split off that
    /// prefix, and the `&mut` range handed out is disjoint from every
    /// later write. The caller may therefore reduce it in place, inline
    /// or on another lane, while backward continues.
    pub(crate) fn backward<'a>(
        &'a mut self,
        model: &mut Sequential,
        grad_out: &Tensor,
        mut on_bucket: impl FnMut(usize, &'a mut [f32]),
    ) {
        let FusionBuffer {
            buckets,
            spans,
            bucket_of,
            grad,
        } = self;
        let mut packing: &'a mut [f32] = grad.as_mut_slice();
        model.backward_with(grad_out, |i, layer| {
            let (start, end) = spans[i];
            if start == end {
                return;
            }
            nn::param::copy_grads_into(&layer.params(), &mut packing[start..end]);
            let bidx = bucket_of[i];
            if i == buckets[bidx].first_layer {
                let (rest, done) = std::mem::take(&mut packing).split_at_mut(buckets[bidx].start);
                packing = rest;
                on_bucket(bidx, done);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unfused_is_one_bucket_covering_everything() {
        let spans = [(0, 40), (40, 40), (40, 58)];
        let fb = FusionBuffer::new(&spans, 58, None);
        assert_eq!(fb.buckets().len(), 1);
        let b = &fb.buckets()[0];
        assert_eq!((b.start, b.end, b.first_layer), (0, 58, 0));
        assert!(!b.is_empty());
    }

    #[test]
    fn buckets_align_to_layer_boundaries_and_meet_the_threshold() {
        // Layers of 10/6/0/8/4 floats, 32-byte threshold (8 floats).
        let spans = [(0, 10), (10, 16), (16, 16), (16, 24), (24, 28)];
        let fb = FusionBuffer::new(&spans, 28, Some(32));
        let got: Vec<(usize, usize, usize)> = fb
            .buckets()
            .iter()
            .map(|b| (b.start, b.end, b.first_layer))
            .collect();
        // Layer 0 alone meets the threshold; 1+3 fuse; 4 trails.
        assert_eq!(got, vec![(0, 10, 0), (10, 24, 1), (24, 28, 4)]);
        // Every bucket except the last meets the threshold.
        for b in &fb.buckets()[..fb.buckets().len() - 1] {
            assert!(b.len() * size_of::<f32>() >= 32);
        }
        // Buckets tile the flat gradient.
        assert_eq!(fb.buckets()[0].start, 0);
        assert_eq!(fb.buckets().last().unwrap().end, 28);
        for w in fb.buckets().windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn tiny_threshold_gives_one_bucket_per_parameterised_layer() {
        let spans = [(0, 3), (3, 3), (3, 7), (7, 12)];
        let fb = FusionBuffer::new(&spans, 12, Some(1));
        assert_eq!(fb.buckets().len(), 3);
        assert_eq!(fb.buckets()[1].first_layer, 2);
    }

    #[test]
    fn parameterless_model_has_no_buckets() {
        let fb = FusionBuffer::new(&[(0, 0), (0, 0)], 0, Some(1024));
        assert!(fb.buckets().is_empty());
    }

    #[test]
    fn backward_hands_out_each_bucket_back_to_front_over_the_packed_gradient() {
        use nn::Layer as _;
        let mut rng = tensor::Rng::seed(3);
        let mut model = Sequential::new()
            .push(nn::Dense::new(4, 3, &mut rng))
            .push(nn::Relu::new())
            .push(nn::Dense::new(3, 2, &mut rng));
        let x = Tensor::from_vec((0..8).map(|i| i as f32 * 0.1).collect(), &[2, 4]);
        let out = model.forward(&x, true);
        let g = Tensor::from_vec(vec![1.0; out.data().len()], out.shape());
        let mut fb = FusionBuffer::new(&model.layer_param_spans(), model.param_count(), Some(1));
        let mut seen = Vec::new();
        fb.backward(&mut model, &g, |bidx, seg| seen.push((bidx, seg.len())));
        // One bucket per Dense (15 and 8 scalars), completed last-first.
        assert_eq!(seen, vec![(1, 8), (0, 15)]);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(fb.grad()), bits(&model.grads_vec()));
    }
}
