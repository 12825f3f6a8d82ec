//! Minimal rayon-compatible data-parallel iterators for offline builds.
//!
//! The model mirrors rayon's: a parallel iterator is a *splittable producer*
//! over contiguous index ranges.  Terminal operations cut the producer into
//! contiguous pieces and drive the pieces on the crate's **persistent
//! work-stealing pool** (see [`pool`]): the global pool is lazily created on
//! first use, honours `RAYON_NUM_THREADS`, and its long-lived workers serve
//! every subsequent terminal op, so hot tensor ops no longer pay a thread
//! spawn/join per call.  `for_each` side effects and `collect` results are
//! gathered in piece order and ordering-identical to the sequential path.
//! Fold-style reductions (`sum`) combine per-piece partials, so — exactly as
//! with real rayon — floating-point sums may regroup at piece boundaries and
//! depend on the piece count; code needing bit-stable aggregates should
//! `collect` and reduce sequentially (as `gld_core`'s block pipeline does).
//!
//! Scheduling, in brief:
//!
//! * work is split into *more pieces than workers* (`OVERSPLIT`-chunked,
//!   bounded below by `with_min_len`), and whichever worker frees up first
//!   takes the next piece — skewed per-piece costs no longer leave workers
//!   idle behind one contiguous expensive span;
//! * the submitting thread helps drain its own batch, so terminal ops
//!   complete even when every pool worker is busy (nested parallelism is
//!   deadlock-free by construction);
//! * workloads below an automatic weight threshold run inline on the calling
//!   thread; `with_min_len(n)` doubles as the opt-in for small-`len`
//!   workloads whose per-item cost is large (e.g. compressing one temporal
//!   block per item), exactly as before — it bounds the minimum items per
//!   piece like rayon's and marks the iterator as worth parallelising
//!   regardless of the weight heuristic;
//! * [`pool::join_all`] exposes the pool directly as one fork-join batch of
//!   borrowing jobs (the block executor in `gld-core` runs both directions
//!   on it).

#![deny(unsafe_code)]

pub mod pool;

pub use pool::{current_num_threads, ThreadPool};

use std::ops::Range;

/// Total `f32`-element-sized work below which a terminal op stays inline.
const AUTO_PARALLEL_WEIGHT: usize = 16_384;

/// Pieces per worker a terminal op is cut into: with a shared batch queue, a
/// few extra pieces per worker let fast workers absorb skew instead of
/// idling, while keeping per-piece dispatch overhead negligible.
const OVERSPLIT: usize = 4;

fn worker_count() -> usize {
    pool::current_num_threads()
}

/// A splittable, contiguous parallel producer.
pub trait ParallelIterator: Sized + Send {
    /// Item produced for the consumer.
    type Item: Send;
    /// Sequential driver for one piece.
    type SeqIter: Iterator<Item = Self::Item> + Send;

    /// Number of items left.
    fn len(&self) -> usize;

    /// True when no items remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated total work in element-ops (drives the auto threshold).
    fn weight(&self) -> usize {
        self.len()
    }

    /// Explicit minimum items per piece, when set via [`Self::with_min_len`].
    fn min_split_len(&self) -> Option<usize> {
        None
    }

    /// Splits into `[0, index)` and `[index, len)` pieces.
    fn split_at(self, index: usize) -> (Self, Self);

    /// Converts the remaining range into a sequential iterator.
    fn into_seq(self) -> Self::SeqIter;

    /// Bounds the minimum number of items a piece may hold and opts the
    /// iterator into parallel execution even when `len` is small.
    fn with_min_len(self, min: usize) -> MinLen<Self> {
        MinLen {
            inner: self,
            min: min.max(1),
        }
    }

    /// Maps every item through `f`.
    fn map<T, F>(self, f: F) -> Map<Self, F>
    where
        T: Send,
        F: Fn(Self::Item) -> T + Sync + Send + Clone,
    {
        Map { inner: self, f }
    }

    /// Pairs items positionally with `other` (lengths must match, as in
    /// rayon's indexed zip).
    fn zip<B: ParallelIterator>(self, other: B) -> Zip<Self, B> {
        assert_eq!(self.len(), other.len(), "zip length mismatch");
        Zip { a: self, b: other }
    }

    /// Attaches the global item index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate {
            inner: self,
            offset: 0,
        }
    }

    /// Consumes every item with `f`, in parallel on the persistent pool.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        self.for_each_init(|| (), |(), item| f(item));
    }

    /// [`Self::for_each`] with a scratch value: `init` runs once for every
    /// piece the pool executes (once in all when the work stays inline) and
    /// `f` gets that value, mutably, with each item of the piece.
    fn for_each_init<T, INIT, F>(self, init: INIT, f: F)
    where
        INIT: Fn() -> T + Sync + Send,
        F: Fn(&mut T, Self::Item) + Sync + Send,
    {
        let run = |piece: Self| {
            let mut scratch = init();
            piece.into_seq().for_each(|item| f(&mut scratch, item));
        };
        let mut pieces = split_for_drive(self);
        if pieces.len() == 1 {
            return run(pieces.remove(0));
        }
        let run = &run;
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = pieces
            .into_iter()
            .map(|piece| Box::new(move || run(piece)) as Box<dyn FnOnce() + Send + '_>)
            .collect();
        pool::join_all(jobs);
    }

    /// Sums the items, combining per-piece partial sums in piece order.
    /// Pieces follow the pool's shared chunking (several per worker), so one
    /// expensive span is stolen piecemeal instead of serialising a worker.
    fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>,
    {
        let mut pieces = split_for_drive(self);
        if pieces.len() == 1 {
            return pieces.remove(0).into_seq().sum();
        }
        let mut partials: Vec<Option<S>> = Vec::new();
        partials.resize_with(pieces.len(), || None);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = pieces
            .into_iter()
            .zip(partials.iter_mut())
            .map(|(piece, slot)| {
                Box::new(move || *slot = Some(piece.into_seq().sum::<S>()))
                    as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool::join_all(jobs);
        partials
            .into_iter()
            .map(|slot| slot.expect("pool batch completed every piece"))
            .sum()
    }

    /// Collects the items in order (per-piece buffers concatenated in piece
    /// order, pieces executed work-stealing style on the pool).
    fn collect<C>(self) -> C
    where
        C: FromIterator<Self::Item>,
    {
        let mut pieces = split_for_drive(self);
        if pieces.len() == 1 {
            return pieces.remove(0).into_seq().collect();
        }
        let mut gathered: Vec<Option<Vec<Self::Item>>> = Vec::new();
        gathered.resize_with(pieces.len(), || None);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = pieces
            .into_iter()
            .zip(gathered.iter_mut())
            .map(|(piece, slot)| {
                Box::new(move || *slot = Some(piece.into_seq().collect::<Vec<_>>()))
                    as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool::join_all(jobs);
        gathered
            .into_iter()
            .flat_map(|slot| slot.expect("pool batch completed every piece"))
            .collect()
    }
}

fn split_for_drive<I: ParallelIterator>(iter: I) -> Vec<I> {
    let len = iter.len();
    if len == 0 {
        return vec![iter];
    }
    // Every terminal op shares this chunking: aim for OVERSPLIT pieces per
    // worker (never splitting below an explicit `with_min_len`), so the
    // pool's first-free-worker-takes-next-piece scheduling absorbs skewed
    // per-piece costs instead of leaving workers idle.  A single-worker
    // pool gains nothing from splitting — everything stays inline on the
    // calling thread, exactly as the pre-pool shim behaved.  `target` is
    // only evaluated on the arms that go parallel, so sub-threshold
    // workloads never touch (and never lazily spawn) the global pool.
    let target = || {
        let workers = worker_count();
        if workers == 1 {
            1
        } else {
            workers.saturating_mul(OVERSPLIT)
        }
    };
    let pieces = match iter.min_split_len() {
        Some(min) => len.div_ceil(min).min(target()),
        None if iter.weight() >= AUTO_PARALLEL_WEIGHT && len >= 2 => target(),
        None => 1,
    }
    .clamp(1, len);
    let mut out = Vec::with_capacity(pieces);
    let mut rest = iter;
    let mut remaining = len;
    let mut left = pieces;
    while left > 1 {
        let take = remaining.div_ceil(left);
        let (head, tail) = rest.split_at(take);
        out.push(head);
        rest = tail;
        remaining -= take;
        left -= 1;
    }
    out.push(rest);
    out
}

// ---------------------------------------------------------------------------
// Producers
// ---------------------------------------------------------------------------

/// Parallel `&[T]` iterator.
pub struct Iter<'a, T: Sync> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for Iter<'a, T> {
    type Item = &'a T;
    type SeqIter = std::slice::Iter<'a, T>;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at(index.min(self.slice.len()));
        (Iter { slice: a }, Iter { slice: b })
    }

    fn into_seq(self) -> Self::SeqIter {
        self.slice.iter()
    }
}

/// Parallel `&mut [T]` iterator.
pub struct IterMut<'a, T: Send> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParallelIterator for IterMut<'a, T> {
    type Item = &'a mut T;
    type SeqIter = std::slice::IterMut<'a, T>;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = index.min(self.slice.len());
        let (a, b) = self.slice.split_at_mut(mid);
        (IterMut { slice: a }, IterMut { slice: b })
    }

    fn into_seq(self) -> Self::SeqIter {
        self.slice.iter_mut()
    }
}

/// Parallel non-overlapping `&[T]` chunks.
pub struct Chunks<'a, T: Sync> {
    slice: &'a [T],
    chunk: usize,
}

impl<'a, T: Sync> ParallelIterator for Chunks<'a, T> {
    type Item = &'a [T];
    type SeqIter = std::slice::Chunks<'a, T>;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk)
    }

    fn weight(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = (index * self.chunk).min(self.slice.len());
        let (a, b) = self.slice.split_at(mid);
        (
            Chunks {
                slice: a,
                chunk: self.chunk,
            },
            Chunks {
                slice: b,
                chunk: self.chunk,
            },
        )
    }

    fn into_seq(self) -> Self::SeqIter {
        self.slice.chunks(self.chunk)
    }
}

/// Parallel non-overlapping `&mut [T]` chunks.
pub struct ChunksMut<'a, T: Send> {
    slice: &'a mut [T],
    chunk: usize,
}

impl<'a, T: Send> ParallelIterator for ChunksMut<'a, T> {
    type Item = &'a mut [T];
    type SeqIter = std::slice::ChunksMut<'a, T>;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk)
    }

    fn weight(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = (index * self.chunk).min(self.slice.len());
        let (a, b) = self.slice.split_at_mut(mid);
        (
            ChunksMut {
                slice: a,
                chunk: self.chunk,
            },
            ChunksMut {
                slice: b,
                chunk: self.chunk,
            },
        )
    }

    fn into_seq(self) -> Self::SeqIter {
        self.slice.chunks_mut(self.chunk)
    }
}

/// Parallel `Range<usize>` iterator.
pub struct RangeIter {
    range: Range<usize>,
}

impl ParallelIterator for RangeIter {
    type Item = usize;
    type SeqIter = Range<usize>;

    fn len(&self) -> usize {
        self.range.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = (self.range.start + index).min(self.range.end);
        (
            RangeIter {
                range: self.range.start..mid,
            },
            RangeIter {
                range: mid..self.range.end,
            },
        )
    }

    fn into_seq(self) -> Self::SeqIter {
        self.range
    }
}

// ---------------------------------------------------------------------------
// Adapters
// ---------------------------------------------------------------------------

/// See [`ParallelIterator::with_min_len`].
pub struct MinLen<I> {
    inner: I,
    min: usize,
}

impl<I: ParallelIterator> ParallelIterator for MinLen<I> {
    type Item = I::Item;
    type SeqIter = I::SeqIter;

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn weight(&self) -> usize {
        self.inner.weight()
    }

    fn min_split_len(&self) -> Option<usize> {
        Some(self.min)
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.inner.split_at(index);
        (
            MinLen {
                inner: a,
                min: self.min,
            },
            MinLen {
                inner: b,
                min: self.min,
            },
        )
    }

    fn into_seq(self) -> Self::SeqIter {
        self.inner.into_seq()
    }
}

/// See [`ParallelIterator::map`].
pub struct Map<I, F> {
    inner: I,
    f: F,
}

impl<I, T, F> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    T: Send,
    F: Fn(I::Item) -> T + Sync + Send + Clone,
{
    type Item = T;
    type SeqIter = std::iter::Map<I::SeqIter, F>;

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn weight(&self) -> usize {
        self.inner.weight()
    }

    fn min_split_len(&self) -> Option<usize> {
        self.inner.min_split_len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.inner.split_at(index);
        (
            Map {
                inner: a,
                f: self.f.clone(),
            },
            Map {
                inner: b,
                f: self.f,
            },
        )
    }

    fn into_seq(self) -> Self::SeqIter {
        self.inner.into_seq().map(self.f)
    }
}

/// See [`ParallelIterator::zip`].
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: ParallelIterator, B: ParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);
    type SeqIter = std::iter::Zip<A::SeqIter, B::SeqIter>;

    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }

    fn weight(&self) -> usize {
        self.a.weight().max(self.b.weight())
    }

    fn min_split_len(&self) -> Option<usize> {
        match (self.a.min_split_len(), self.b.min_split_len()) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        }
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a1, a2) = self.a.split_at(index);
        let (b1, b2) = self.b.split_at(index);
        (Zip { a: a1, b: b1 }, Zip { a: a2, b: b2 })
    }

    fn into_seq(self) -> Self::SeqIter {
        self.a.into_seq().zip(self.b.into_seq())
    }
}

/// See [`ParallelIterator::enumerate`].
pub struct Enumerate<I> {
    inner: I,
    offset: usize,
}

/// Sequential driver for [`Enumerate`] (tracks the global offset).
pub struct SeqEnumerate<I> {
    inner: I,
    next: usize,
}

impl<I: Iterator> Iterator for SeqEnumerate<I> {
    type Item = (usize, I::Item);

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.inner.next()?;
        let idx = self.next;
        self.next += 1;
        Some((idx, item))
    }
}

impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);
    type SeqIter = SeqEnumerate<I::SeqIter>;

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn weight(&self) -> usize {
        self.inner.weight()
    }

    fn min_split_len(&self) -> Option<usize> {
        self.inner.min_split_len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.inner.split_at(index);
        (
            Enumerate {
                inner: a,
                offset: self.offset,
            },
            Enumerate {
                inner: b,
                offset: self.offset + index,
            },
        )
    }

    fn into_seq(self) -> Self::SeqIter {
        SeqEnumerate {
            inner: self.inner.into_seq(),
            next: self.offset,
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// `par_iter`/`par_chunks` on shared slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over shared references.
    fn par_iter(&self) -> Iter<'_, T>;
    /// Parallel iterator over non-overlapping chunks.
    fn par_chunks(&self, chunk: usize) -> Chunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> Iter<'_, T> {
        Iter { slice: self }
    }

    fn par_chunks(&self, chunk: usize) -> Chunks<'_, T> {
        assert!(chunk > 0, "chunk size must be positive");
        Chunks { slice: self, chunk }
    }
}

/// `par_iter_mut`/`par_chunks_mut` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over mutable references.
    fn par_iter_mut(&mut self) -> IterMut<'_, T>;
    /// Parallel iterator over non-overlapping mutable chunks.
    fn par_chunks_mut(&mut self, chunk: usize) -> ChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> IterMut<'_, T> {
        IterMut { slice: self }
    }

    fn par_chunks_mut(&mut self, chunk: usize) -> ChunksMut<'_, T> {
        assert!(chunk > 0, "chunk size must be positive");
        ChunksMut { slice: self, chunk }
    }
}

/// Conversion into a parallel iterator (`0..n`, `Vec`, references).
pub trait IntoParallelIterator {
    /// Produced item type.
    type Item: Send;
    /// Producer type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Converts `self`.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    type Iter = RangeIter;

    fn into_par_iter(self) -> RangeIter {
        RangeIter { range: self }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Item = &'a T;
    type Iter = Iter<'a, T>;

    fn into_par_iter(self) -> Iter<'a, T> {
        Iter { slice: self }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;
    type Iter = Iter<'a, T>;

    fn into_par_iter(self) -> Iter<'a, T> {
        Iter { slice: self }
    }
}

/// Everything a consumer normally imports.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelIterator, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let data: Vec<usize> = (0..10_000).collect();
        let doubled: Vec<usize> = data.par_iter().with_min_len(1).map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_mutates_every_chunk() {
        let mut data = vec![0f32; 100_000];
        data.par_chunks_mut(1000)
            .enumerate()
            .for_each(|(i, chunk)| {
                for v in chunk.iter_mut() {
                    *v = i as f32;
                }
            });
        assert_eq!(data[0], 0.0);
        assert_eq!(data[99_999], 99.0);
        assert_eq!(data[50_500], 50.0);
    }

    #[test]
    fn zip_sum_matches_sequential() {
        let a: Vec<f32> = (0..50_000).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..50_000).map(|i| (i % 7) as f32).collect();
        let par: f64 = a
            .par_iter()
            .zip(b.par_iter())
            .map(|(&x, &y)| x as f64 * y as f64)
            .sum();
        let seq: f64 = a
            .iter()
            .zip(b.iter())
            .map(|(&x, &y)| x as f64 * y as f64)
            .sum();
        assert_eq!(par, seq);
    }

    #[test]
    fn small_workloads_run_inline_but_stay_correct() {
        let data = [1, 2, 3];
        let out: Vec<i32> = data.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn range_into_par_iter() {
        let squares: Vec<usize> = (0..1000)
            .into_par_iter()
            .with_min_len(8)
            .map(|i| i * i)
            .collect();
        assert_eq!(squares[31], 961);
        assert_eq!(squares.len(), 1000);
    }
}
