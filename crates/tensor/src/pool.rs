//! Persistent worker pool shared by every parallel kernel in the workspace.
//!
//! The pool spawns its workers lazily on first use and keeps them alive for
//! the life of the process, so hot-path kernels (matmul, conv, DTW, …) pay a
//! channel send per parallel region instead of an OS `thread::spawn` per call.
//!
//! ## Sizing
//!
//! The worker count is read once, at first use:
//!
//! * `STSM_NUM_THREADS` — explicit thread count (`1` disables parallelism);
//! * otherwise [`std::thread::available_parallelism`].
//!
//! [`with_max_threads`] additionally caps the parallelism of the *calling
//! thread* (used by tests and benchmarks to compare serial vs parallel runs
//! in-process without touching the environment).
//!
//! ## Determinism contract
//!
//! [`par_chunks`] hands out disjoint index ranges; callers must write only to
//! the output region owned by each range. Because every output element is
//! computed by exactly one closure invocation with a serial inner loop, the
//! result is bit-identical for *any* thread count, including the inline
//! serial path. For reductions, [`par_map_chunks`] uses a chunk size that is
//! independent of the thread count and returns the per-chunk results in chunk
//! order, so a caller that folds them left-to-right performs the same
//! floating-point additions regardless of how many workers ran.
//!
//! ## Nesting and panics
//!
//! The calling thread participates in executing chunks, so a parallel region
//! entered from inside a pool worker degrades gracefully to (mostly) inline
//! execution instead of deadlocking when all workers are busy. A panic inside
//! any chunk is caught, the region drains, and the panic is re-raised on the
//! calling thread.

use crate::telemetry;
use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A type-erased unit of work shipped to a pool worker.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct Pool {
    sender: Sender<Job>,
    threads: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// Per-thread cap on parallelism (`usize::MAX` = uncapped); see
    /// [`with_max_threads`].
    static THREAD_CAP: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Thread count from `STSM_NUM_THREADS`, falling back to the machine's
/// available parallelism when unset or unparsable.
fn configured_threads() -> usize {
    let fallback = || std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    match std::env::var("STSM_NUM_THREADS") {
        Ok(v) => v.trim().parse::<usize>().ok().filter(|&n| n >= 1).unwrap_or_else(fallback),
        Err(_) => fallback(),
    }
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let threads = configured_threads();
        let (sender, receiver) = channel::<Job>();
        // Workers share the one receiver; each holds the lock only while it
        // waits for the next job, never while running it.
        let receiver = Arc::new(Mutex::new(receiver));
        // The calling thread always participates, so `threads` total
        // parallelism needs `threads - 1` workers.
        for idx in 1..threads {
            let rx = Arc::clone(&receiver);
            std::thread::Builder::new()
                .name(format!("stsm-pool-{idx}"))
                .spawn(move || loop {
                    let job = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
                    match job {
                        Ok(job) => job(),
                        Err(_) => break,
                    }
                })
                .expect("failed to spawn stsm worker thread");
        }
        Pool { sender, threads }
    })
}

/// Total parallelism of the pool (workers + the calling thread). Always ≥ 1.
pub fn num_threads() -> usize {
    pool().threads
}

/// Effective parallelism for the calling thread (pool size ∩ local cap).
fn effective_threads() -> usize {
    THREAD_CAP.with(|c| c.get()).min(pool().threads).max(1)
}

/// Runs `f` with this thread's parallel regions capped at `cap` threads
/// (`1` forces the inline serial path). The cap nests and is restored on
/// exit, including on panic. Results are bit-identical across caps — this
/// exists so tests and benchmarks can compare code paths, not results.
pub fn with_max_threads<R>(cap: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_CAP.with(|c| c.set(self.0));
        }
    }
    let prev = THREAD_CAP.with(|c| c.replace(cap.max(1)));
    let _restore = Restore(prev);
    f()
}

/// Minimum total inner-loop operations a region must carry before dispatch
/// to the pool pays for itself; smaller regions run inline on the calling
/// thread. A region at this size is ~50 µs of serial arithmetic, an order of
/// magnitude above the channel-send + wakeup cost of a dispatch — below it,
/// parallelism shows up as the *negative* speedups the kernel bench used to
/// record for small `bmm` and `dtw_all_pairs` shapes.
pub const INLINE_WORK_THRESHOLD: usize = 1 << 19;

/// Minimum inner-loop operations one chunk should carry once a region does
/// go parallel, so per-chunk claim overhead stays amortized.
pub const MIN_CHUNK_WORK: usize = 1 << 16;

/// Work-aware variant of [`par_chunks`]: `item_work` approximates the
/// inner-loop operations per item (MACs for matmul strips, DP cells for DTW
/// pairs). Regions below [`INLINE_WORK_THRESHOLD`] total operations take the
/// inline path without touching the pool, and parallel chunks are sized so
/// each carries at least [`MIN_CHUNK_WORK`] operations.
///
/// The chunking depends only on `n_items` and `item_work`, never on the
/// thread count observed at runtime, so the determinism contract of
/// [`par_chunks`] carries over unchanged.
pub fn par_chunks_weighted<F>(n_items: usize, item_work: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if n_items == 0 {
        return;
    }
    let item_work = item_work.max(1);
    if n_items.saturating_mul(item_work) < INLINE_WORK_THRESHOLD {
        telemetry::count("pool.region.inline", 1);
        f(0..n_items);
        return;
    }
    par_chunks(n_items, MIN_CHUNK_WORK.div_ceil(item_work), f)
}

/// Splits `0..n_items` into chunks of at least `min_chunk` indices and runs
/// `f` on each chunk, using the pool when the range is large enough. Chunks
/// are disjoint and cover every index exactly once. `f` must only touch
/// output owned by the range it receives (see [`SliceWriter`]).
///
/// Runs inline (single chunk) when the pool has one thread, the local cap is
/// 1, or `n_items <= min_chunk`.
pub fn par_chunks<F>(n_items: usize, min_chunk: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if n_items == 0 {
        return;
    }
    let min_chunk = min_chunk.max(1);
    let threads = effective_threads();
    if threads <= 1 || n_items <= min_chunk {
        telemetry::count("pool.region.inline", 1);
        f(0..n_items);
        return;
    }
    // ~4 chunks per thread: coarse enough to amortize dispatch, fine enough
    // for dynamic claiming to balance skewed per-chunk work.
    let chunk = min_chunk.max(n_items.div_ceil(threads * 4));
    let n_chunks = n_items.div_ceil(chunk);
    if n_chunks <= 1 {
        telemetry::count("pool.region.inline", 1);
        f(0..n_items);
        return;
    }
    let helpers = (threads - 1).min(n_chunks - 1);
    telemetry::count("pool.region.parallel", 1);
    telemetry::count("pool.helper_dispatch", helpers as u64);
    run_region(n_items, chunk, n_chunks, helpers, &f);
}

/// Splits `0..n_items` into fixed chunks of exactly `chunk` indices (the last
/// may be short), maps each through `f` in parallel, and returns the results
/// **in chunk order**. The chunking does not depend on the thread count, so
/// reductions that fold the returned vector left-to-right are bit-identical
/// for any parallelism (serial included).
pub fn par_map_chunks<R, F>(n_items: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let chunk = chunk.max(1);
    if n_items == 0 {
        return Vec::new();
    }
    let n_chunks = n_items.div_ceil(chunk);
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(n_chunks, || None);
    {
        let slots = SliceWriter::new(&mut out);
        par_chunks(n_chunks, 1, |cs: Range<usize>| {
            for c in cs {
                let lo = c * chunk;
                let hi = (lo + chunk).min(n_items);
                let value = f(lo..hi);
                // Safety: slot `c` belongs to exactly one claimed chunk index.
                unsafe { slots.slice(c..c + 1)[0] = Some(value) };
            }
        });
    }
    out.into_iter().map(|r| r.expect("pool chunk result missing")).collect()
}

/// Shared state of one parallel region. Helpers claim chunk indices from
/// `next`; the submitting thread closes the region and waits for `active`
/// helpers to drain before the borrowed closure goes out of scope.
struct Region {
    next: AtomicUsize,
    n_chunks: usize,
    chunk: usize,
    n_items: usize,
    /// The caller's closure with its lifetime erased. Only dereferenced by
    /// helpers that registered in `active` before `closed` was set — the
    /// caller blocks until they finish, keeping the borrow alive.
    f: *const (dyn Fn(Range<usize>) + Sync),
    state: Mutex<RegionState>,
    done: Condvar,
}

struct RegionState {
    closed: bool,
    active: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

// Safety: `f` is only dereferenced while the submitting thread keeps the
// closure alive (see `Region::f`); everything else is synchronized.
unsafe impl Send for Region {}
unsafe impl Sync for Region {}

fn run_region(
    n_items: usize,
    chunk: usize,
    n_chunks: usize,
    helpers: usize,
    f: &(dyn Fn(Range<usize>) + Sync),
) {
    // Safety: lifetime erasure only — the CloseGuard below keeps the caller
    // (and thus the closure's borrows) alive past every dereference.
    let f_erased: *const (dyn Fn(Range<usize>) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(Range<usize>) + Sync), &'static (dyn Fn(Range<usize>) + Sync)>(
            f,
        )
    };
    let region = Arc::new(Region {
        next: AtomicUsize::new(0),
        n_chunks,
        chunk,
        n_items,
        f: f_erased,
        state: Mutex::new(RegionState { closed: false, active: 0, panic: None }),
        done: Condvar::new(),
    });
    for _ in 0..helpers {
        let region = Arc::clone(&region);
        pool().sender.send(Box::new(move || helper_main(region))).expect("stsm pool is gone");
    }
    // Close the region and wait out in-flight helpers even if the caller's
    // own chunk panics — the closure's borrows must outlive every helper.
    struct CloseGuard<'a>(&'a Region);
    impl Drop for CloseGuard<'_> {
        fn drop(&mut self) {
            let region = self.0;
            region.next.store(region.n_chunks, Ordering::Relaxed);
            let mut st = region.state.lock().expect("pool region lock");
            st.closed = true;
            while st.active > 0 {
                st = region.done.wait(st).expect("pool region wait");
            }
        }
    }
    {
        let _guard = CloseGuard(&region);
        claim_chunks(&region, f);
    }
    let panic = region.state.lock().expect("pool region lock").panic.take();
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
}

/// Body of a helper job: register, claim chunks until the region drains,
/// record a panic if one escapes the closure.
fn helper_main(region: Arc<Region>) {
    {
        let mut st = region.state.lock().expect("pool region lock");
        if st.closed {
            return; // region already finished; `f` may be dangling — don't touch it
        }
        st.active += 1;
    }
    // Safety: registration above succeeded before `closed`, so the caller is
    // blocked in `CloseGuard` until we deregister; the closure is alive.
    let f = unsafe { &*region.f };
    let result = catch_unwind(AssertUnwindSafe(|| claim_chunks(&region, f)));
    let mut st = region.state.lock().expect("pool region lock");
    st.active -= 1;
    if let Err(payload) = result {
        // Poison the counter so no further chunks start, keep the first panic.
        region.next.store(region.n_chunks, Ordering::Relaxed);
        if st.panic.is_none() {
            st.panic = Some(payload);
        }
    }
    drop(st);
    region.done.notify_all();
}

fn claim_chunks(region: &Region, f: &(dyn Fn(Range<usize>) + Sync)) {
    loop {
        let c = region.next.fetch_add(1, Ordering::Relaxed);
        if c >= region.n_chunks {
            // Undo the overshoot so long-lived regions cannot creep toward
            // overflow however many stragglers poll an exhausted counter.
            region.next.store(region.n_chunks, Ordering::Relaxed);
            return;
        }
        let lo = c * region.chunk;
        let hi = (lo + region.chunk).min(region.n_items);
        f(lo..hi);
    }
}

/// A `&mut [T]` that can be sliced from several threads at once, for kernels
/// that partition one output buffer into disjoint regions. The caller
/// promises disjointness; the type only carries the pointer across threads.
pub struct SliceWriter<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// Safety: hands out mutable access only through `slice`, whose contract
// requires disjoint ranges; `T: Send` makes moving values across threads ok.
unsafe impl<T: Send> Send for SliceWriter<'_, T> {}
unsafe impl<T: Send> Sync for SliceWriter<'_, T> {}

impl<'a, T> SliceWriter<'a, T> {
    /// Wraps an exclusive slice for disjoint parallel writes.
    pub fn new(slice: &'a mut [T]) -> Self {
        SliceWriter { ptr: slice.as_mut_ptr(), len: slice.len(), _marker: PhantomData }
    }

    /// Length of the underlying buffer.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mutable view of `range`.
    ///
    /// # Safety
    ///
    /// Concurrent callers must pass disjoint ranges; `range` must lie inside
    /// the buffer.
    #[allow(clippy::mut_from_ref)] // disjointness is the caller's contract
    pub unsafe fn slice(&self, range: Range<usize>) -> &mut [T] {
        debug_assert!(range.start <= range.end && range.end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.end - range.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn pool_has_at_least_one_thread() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn chunks_cover_every_index_exactly_once() {
        for (n_items, min_chunk) in [(1usize, 1usize), (7, 3), (1000, 7), (1024, 1), (5, 100)] {
            let counts: Vec<AtomicU32> = (0..n_items).map(|_| AtomicU32::new(0)).collect();
            par_chunks(n_items, min_chunk, |r| {
                for i in r {
                    counts[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            for (i, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "index {i} of {n_items}");
            }
        }
    }

    #[test]
    fn map_chunks_returns_results_in_chunk_order() {
        let starts = par_map_chunks(103, 10, |r| r.start);
        let expected: Vec<usize> = (0..11).map(|c| c * 10).collect();
        assert_eq!(starts, expected);
        // Chunking is fixed: the same call under a serial cap yields the same
        // chunk boundaries.
        let serial = with_max_threads(1, || par_map_chunks(103, 10, |r| (r.start, r.end)));
        let parallel = par_map_chunks(103, 10, |r| (r.start, r.end));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let caught = std::panic::catch_unwind(|| {
            par_chunks(100, 1, |r| {
                if r.contains(&57) {
                    panic!("boom in chunk");
                }
            });
        });
        assert!(caught.is_err(), "panic must reach the caller");
        // The pool keeps working after a panicking region.
        let sum = AtomicUsize::new(0);
        par_chunks(100, 1, |r| {
            sum.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn thread_cap_changes_path_not_results() {
        let run = |cap: usize| {
            with_max_threads(cap, || {
                let mut out = vec![0.0f32; 4096];
                {
                    let w = SliceWriter::new(&mut out);
                    par_chunks(4096, 16, |r| {
                        // Safety: ranges are disjoint by the par_chunks contract.
                        let s = unsafe { w.slice(r.clone()) };
                        for (o, i) in s.iter_mut().zip(r) {
                            *o = (i as f32).sin() * 0.25 + (i as f32).sqrt();
                        }
                    });
                }
                out
            })
        };
        let serial = run(1);
        for cap in [2, 7, usize::MAX] {
            assert_eq!(serial, run(cap), "cap {cap}");
        }
    }

    #[test]
    fn nested_regions_complete() {
        let total = AtomicUsize::new(0);
        par_chunks(8, 1, |outer| {
            for _ in outer {
                par_chunks(64, 4, |inner| {
                    total.fetch_add(inner.len(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 64);
    }

    #[test]
    fn with_max_threads_restores_on_panic() {
        let _ = std::panic::catch_unwind(|| {
            with_max_threads(1, || panic!("escape"));
        });
        // Back to uncapped: a large region is allowed to parallelize again
        // (we can only observe that nothing deadlocks / misbehaves).
        let sum = AtomicUsize::new(0);
        par_chunks(256, 1, |r| {
            sum.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 256);
    }
}
