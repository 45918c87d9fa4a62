//! Order-preserving batch executors over the pool.
//!
//! The seed shim cloned items into one `Vec` per batch before handing
//! them to threads; these executors move elements straight out of the
//! input vector's buffer and write results straight into per-slot
//! positions of the output, so a parallel stage costs O(1) allocations
//! (input buffer reuse + one output buffer), not O(items).
//!
//! # Safety invariants
//!
//! * The input `Vec`'s length is set to 0 before any block runs, so its
//!   buffer never double-drops; each element is moved out exactly once
//!   via `ptr::read` by whichever thread claimed the (disjoint) block
//!   containing it. The buffer itself outlives `run_blocks`, which does
//!   not return until every block finished.
//! * Results are written exactly once per slot via `ptr::write` into a
//!   `Vec<MaybeUninit<_>>` that is converted to `Vec<R>` only after
//!   `run_blocks` returns (all slots initialised).
//! * On panic inside a user closure, [`BlockIter`]'s `Drop` drops the
//!   unconsumed tail of that block; elements of unclaimed blocks and
//!   already-written results are leaked (never double-dropped) while the
//!   panic propagates.

#![allow(unsafe_code)]

use crate::pool;
use std::mem::{ManuallyDrop, MaybeUninit};

/// Raw-pointer capture that may cross to worker threads. Sound because
/// every executor hands each thread a disjoint index range.
struct Shared<T>(*mut T);
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Shared<T> {
    /// Method (not field) access so closures capture the `Sync` wrapper,
    /// not the raw pointer, under edition-2021 disjoint capture.
    fn ptr(&self) -> *mut T {
        self.0
    }
}

/// Consuming iterator over one block's element range; moves items out of
/// the (already length-zeroed) input buffer and drops whatever the user
/// closure did not consume.
pub(crate) struct BlockIter<T> {
    base: *mut T,
    i: usize,
    end: usize,
}

impl<T> Iterator for BlockIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        if self.i >= self.end {
            return None;
        }
        // SAFETY: indices in [i, end) belong exclusively to this block
        // and each is read at most once (i advances past it).
        let v = unsafe { self.base.add(self.i).read() };
        self.i += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.end - self.i;
        (left, Some(left))
    }
}

impl<T> ExactSizeIterator for BlockIter<T> {}

impl<T> Drop for BlockIter<T> {
    fn drop(&mut self) {
        for _ in self.by_ref() {}
    }
}

/// Takes ownership of `items`'s buffer for raw reads: returns the base
/// pointer and the vector (length zeroed, capacity intact) that must be
/// kept alive until all reads finish.
fn disarm<T>(mut items: Vec<T>) -> (*mut T, Vec<T>) {
    let ptr = items.as_mut_ptr();
    // SAFETY: 0 <= capacity; elements beyond len 0 are moved out exactly
    // once by the executors before the vec drops.
    unsafe { items.set_len(0) };
    (ptr, items)
}

/// Converts a fully-initialised `MaybeUninit` buffer into `Vec<R>`.
fn finalize<R>(out: Vec<MaybeUninit<R>>) -> Vec<R> {
    let mut out = ManuallyDrop::new(out);
    // SAFETY: every slot was written exactly once (run_blocks returned,
    // so all blocks completed without panicking).
    unsafe { Vec::from_raw_parts(out.as_mut_ptr().cast::<R>(), out.len(), out.capacity()) }
}

/// Elements per block when a stage over `n` elements is split across
/// the pool: at most `4 × pool width` contiguous blocks, so uneven
/// elements self-balance through the atomic index. Every block is this
/// long except the last. Callers that size per-block scratch (conv's
/// worker groups, matmul's row blocks) use it to line up with the pool.
pub fn block_len(n: usize) -> usize {
    let blocks = (pool::current_num_threads() * 4).clamp(1, n.max(1));
    n.div_ceil(blocks).max(1)
}

/// Applies `f` to every element, in parallel, preserving order. The
/// per-element results land in their original positions.
pub(crate) fn consume_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let batch = block_len(n);
    let blocks = n.div_ceil(batch);

    let (in_ptr, _hold) = disarm(items);
    let mut out: Vec<MaybeUninit<R>> = Vec::with_capacity(n);
    out.resize_with(n, MaybeUninit::uninit);
    let inp = Shared(in_ptr);
    let outp = Shared(out.as_mut_ptr());

    pool::run_blocks(blocks, &|b| {
        let start = b * batch;
        let end = usize::min(start + batch, n);
        for i in start..end {
            // SAFETY: block ranges are disjoint; each slot read/written once.
            let x = unsafe { inp.ptr().add(i).read() };
            let r = f(x);
            unsafe { outp.ptr().add(i).write(MaybeUninit::new(r)) };
        }
    });
    finalize(out)
}

/// Splits `items` into contiguous chunks of `chunk` elements (last chunk
/// short) and reduces each chunk with `f`, in parallel; returns the
/// per-chunk results in chunk order. This is the primitive behind
/// `fold` (chunk = ⌈n/threads⌉ batches, matching the seed shim's batch
/// partition exactly) and `sum` (fixed 256-element blocks, preserving
/// the seed's machine-independent f32 tree).
pub(crate) fn consume_chunks<T, R, F>(items: Vec<T>, chunk: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(BlockIter<T>) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let chunk = chunk.max(1);
    let blocks = n.div_ceil(chunk);

    let (in_ptr, _hold) = disarm(items);
    let mut out: Vec<MaybeUninit<R>> = Vec::with_capacity(blocks);
    out.resize_with(blocks, MaybeUninit::uninit);
    let inp = Shared(in_ptr);
    let outp = Shared(out.as_mut_ptr());

    pool::run_blocks(blocks, &|b| {
        let start = b * chunk;
        let end = usize::min(start + chunk, n);
        let it = BlockIter {
            base: inp.ptr(),
            i: start,
            end,
        };
        let r = f(it);
        // SAFETY: slot b is written exactly once, by this block.
        unsafe { outp.ptr().add(b).write(MaybeUninit::new(r)) };
    });
    finalize(out)
}
