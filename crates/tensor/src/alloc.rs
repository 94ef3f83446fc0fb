//! Size-classed buffer recycling for tensor storage.
//!
//! STSM rebuilds the whole autograd tape every training step over a freshly
//! re-masked subgraph, so a run constructs and drops thousands of `Vec<f32>`
//! buffers per step. This module keeps those buffers alive across steps: an
//! allocation request is served from a thread-safe free list keyed by
//! capacity class, and [`crate::Tensor`] returns its buffer here on drop when
//! the storage `Arc` is uniquely owned (shared storage is never recycled —
//! the copy-on-write contract stays intact). Dropping the tape at the end of
//! a step therefore refills the pool for the next one.
//!
//! ## Size classes
//!
//! Buffers are binned by power-of-two capacity. A request of `n` elements is
//! served from the smallest class whose buffers hold `n`, and a pool miss
//! allocates exactly that class size, so every buffer the pool issues has a
//! capacity of exactly 2^k for some class k. Buffers below
//! [`MIN_POOLED_LEN`] elements are cheaper to malloc than to lock a free
//! list for; buffers above [`MAX_POOLED_LEN`] are dropped to bound resident
//! memory. Each class keeps at most [`MAX_BUFS_PER_CLASS`] buffers.
//!
//! ## Admission
//!
//! [`recycle`] / [`recycle_u16`] admit a buffer only when its capacity is
//! exactly a class size — a buffer the pool could have issued. Any other
//! buffer goes back to the system allocator. Such *foreign* buffers come
//! from code that builds a `Vec` itself and hands it to
//! [`crate::Tensor::from_vec`] (e.g. a `Vec::with_capacity(rows · t_total)`
//! gather of whole series, once per fit or epoch): filing one under a
//! neighbouring class would let the class grow by a buffer the workload never
//! requests at that size again, so repeated fits would pile buffers up to
//! every class's cap. The session cache follows the same rule, so its drain
//! on [`session_end`] moves only admitted buffers. Sites that create buffers
//! a fit keeps and later drops (the weight initializers, the copy-on-write
//! copy in [`crate::Tensor::data_mut`]) take them from the pool, so each such
//! buffer returned to a class was also taken from it.
//!
//! ## Always on
//!
//! Recycling (and the fused kernels built on top of it; see
//! [`crate::Tape::addmm`]) is unconditional. Pooling never changes results:
//! pooled buffers are length-reset before reuse and every kernel writes or
//! zeroes each output element exactly as a fresh allocation would — see the
//! equivalence tests in `tests/fused_equivalence.rs`.
//!
//! ## Session caches
//!
//! Inference sessions ([`crate::InferSession`]) install a *thread-local*
//! session cache via [`session_begin`]/[`session_end`]. While installed, the
//! cache is consulted before the global classes and absorbs recycled buffers
//! up to a much larger per-class cap ([`MAX_SESSION_BUFS_PER_CLASS`]), so a
//! forward pass that repeats every window (bind once, predict many) reaches
//! steady state with essentially zero fresh allocations — the global
//! [`MAX_BUFS_PER_CLASS`] cap never truncates the working set. On the final
//! [`session_end`] the cached buffers drain back into the global classes (up
//! to their caps) and the rest are released.
//!
//! ## Allocation counters
//!
//! Buffer requests served fresh from the system allocator vs reused from the
//! pool feed the [`crate::telemetry`] registry as the `alloc.fresh` /
//! `alloc.reused` counters whenever `STSM_TELEMETRY` is on. Buffers of at
//! least [`MIN_POOLED_LEN`] elements the pool turns away — a foreign
//! capacity, or a full class in [`recycle`] or in the [`session_end`] drain —
//! count as `alloc.refused`.

use std::cell::RefCell;
use std::sync::{Arc, Mutex, OnceLock};

/// Smallest buffer length (in `f32` elements) worth pooling: 64 elements.
pub const MIN_POOLED_LEN: usize = 1 << MIN_CLASS_LOG2;

/// Largest buffer length kept in the pool: 2²⁴ elements (64 MiB).
pub const MAX_POOLED_LEN: usize = 1 << MAX_CLASS_LOG2;

/// Maximum buffers retained per size class.
///
/// A training step holds far more same-class buffers than this (hundreds
/// of (N_sub·T, H) matrices of class 2¹⁵ on `train-pemsbay`), so most of
/// them go back to the system allocator each step. A cap of 1024 was
/// measured and not taken: it raised `train-pemsbay` peak RSS from 65.7 to
/// 75 MB (+14 %) with full-graph contrastive views, and from 62.5 to
/// 67.2 MB (+7.5 %) with the readout pass, and gained no throughput either
/// time.
pub const MAX_BUFS_PER_CLASS: usize = 64;

/// Maximum buffers retained per size class in a thread-local session cache
/// (see [`session_begin`]). Generous on purpose: a session holds exactly one
/// window's working set, which it replays every prediction.
pub const MAX_SESSION_BUFS_PER_CLASS: usize = 4096;

const MIN_CLASS_LOG2: u32 = 6;
const MAX_CLASS_LOG2: u32 = 24;
const NUM_CLASSES: usize = (MAX_CLASS_LOG2 - MIN_CLASS_LOG2 + 1) as usize;

/// Free lists, one per power-of-two capacity class. Class `i` holds buffers
/// of capacity exactly `2^(6+i)`.
static CLASSES: [Mutex<Vec<Vec<f32>>>; NUM_CLASSES] =
    [const { Mutex::new(Vec::new()) }; NUM_CLASSES];

/// Free lists for 16-bit storage (f16/bf16 bit patterns), mirroring
/// [`CLASSES`]. Classes are keyed by *element* count, so a half buffer of a
/// class holds half the bytes of its f32 counterpart; pooling per dtype keeps
/// reset/recycle zero-alloc for quantized inference sessions too.
static CLASSES_U16: [Mutex<Vec<Vec<u16>>>; NUM_CLASSES] =
    [const { Mutex::new(Vec::new()) }; NUM_CLASSES];

thread_local! {
    /// The calling thread's session cache, when one is installed.
    static SESSION: RefCell<Option<SessionCache>> = const { RefCell::new(None) };
}

/// Depth-counted thread-local free lists installed for the lifetime of an
/// inference session (nesting shares one cache). Half-precision storage gets
/// its own per-class lists so a quantized session recycles per dtype.
struct SessionCache {
    depth: usize,
    classes: Vec<Vec<Vec<f32>>>,
    classes_u16: Vec<Vec<Vec<u16>>>,
}

/// Installs (or re-enters) the calling thread's session cache. Must be paired
/// with [`session_end`]; [`crate::InferSession`] does this via RAII.
pub fn session_begin() {
    SESSION.with(|s| {
        let mut s = s.borrow_mut();
        match s.as_mut() {
            Some(c) => c.depth += 1,
            None => {
                *s = Some(SessionCache {
                    depth: 1,
                    classes: (0..NUM_CLASSES).map(|_| Vec::new()).collect(),
                    classes_u16: (0..NUM_CLASSES).map(|_| Vec::new()).collect(),
                })
            }
        }
    });
}

/// Leaves the session cache; the final leave drains the cached buffers back
/// into the global classes (up to their caps) and drops the remainder.
pub fn session_end() {
    let drained = SESSION.with(|s| {
        let mut s = s.borrow_mut();
        let c = s.as_mut()?;
        c.depth -= 1;
        if c.depth == 0 {
            s.take()
        } else {
            None
        }
    });
    if let Some(cache) = drained {
        for (class, bufs) in cache.classes.into_iter().enumerate() {
            drain_into(&mut lock(class), class, bufs);
        }
        for (class, bufs) in cache.classes_u16.into_iter().enumerate() {
            drain_into(&mut lock_u16(class), class, bufs);
        }
    }
}

/// Moves a session cache's `bufs` of `class` into the global `list` up to
/// its cap; the rest are released and counted as refused. The cache only
/// ever holds buffers [`recycle`] admitted to `class`.
fn drain_into<T>(list: &mut Vec<Vec<T>>, class: usize, bufs: Vec<Vec<T>>) {
    let room = MAX_BUFS_PER_CLASS.saturating_sub(list.len());
    count_refused(bufs.len().saturating_sub(room));
    for buf in bufs.into_iter().take(room) {
        debug_assert_eq!(capacity_class(buf.capacity()), Some(class));
        list.push(buf);
    }
}

/// Pops a session-cached buffer of `class`, if a cache is installed.
fn session_take(class: usize) -> Option<Vec<f32>> {
    SESSION.with(|s| s.borrow_mut().as_mut().and_then(|c| c.classes[class].pop()))
}

/// Deposits `buf` into the session cache; gives it back when no cache is
/// installed on this thread or the class is full.
fn session_put(class: usize, buf: Vec<f32>) -> Option<Vec<f32>> {
    SESSION.with(|s| match s.borrow_mut().as_mut() {
        Some(c) if c.classes[class].len() < MAX_SESSION_BUFS_PER_CLASS => {
            c.classes[class].push(buf);
            None
        }
        _ => Some(buf),
    })
}

/// [`session_take`] for 16-bit storage buffers.
fn session_take_u16(class: usize) -> Option<Vec<u16>> {
    SESSION.with(|s| s.borrow_mut().as_mut().and_then(|c| c.classes_u16[class].pop()))
}

/// [`session_put`] for 16-bit storage buffers.
fn session_put_u16(class: usize, buf: Vec<u16>) -> Option<Vec<u16>> {
    SESSION.with(|s| match s.borrow_mut().as_mut() {
        Some(c) if c.classes_u16[class].len() < MAX_SESSION_BUFS_PER_CLASS => {
            c.classes_u16[class].push(buf);
            None
        }
        _ => Some(buf),
    })
}

/// Number of buffers the calling thread's session cache holds in the class
/// serving `n`-element requests.
#[cfg(test)]
pub(crate) fn session_cached_in_class_of(n: usize) -> usize {
    let Some(class) = request_class(n) else { return 0 };
    SESSION.with(|s| s.borrow().as_ref().map_or(0, |c| c.classes[class].len()))
}

/// Class index serving requests of `n` elements (capacity rounded up), or
/// `None` when `n` is outside the pooled range.
fn request_class(n: usize) -> Option<usize> {
    if n == 0 || n > MAX_POOLED_LEN {
        return None;
    }
    let c = n.next_power_of_two().trailing_zeros().max(MIN_CLASS_LOG2);
    Some((c - MIN_CLASS_LOG2) as usize)
}

/// Class index of a buffer of capacity `cap` when `cap` is exactly a class
/// size (a power of two in `[MIN_POOLED_LEN, MAX_POOLED_LEN]`, the capacity
/// a pool miss allocates), or `None` for any other capacity.
fn capacity_class(cap: usize) -> Option<usize> {
    if !cap.is_power_of_two() || !(MIN_POOLED_LEN..=MAX_POOLED_LEN).contains(&cap) {
        return None;
    }
    Some((cap.trailing_zeros() - MIN_CLASS_LOG2) as usize)
}

fn lock(class: usize) -> std::sync::MutexGuard<'static, Vec<Vec<f32>>> {
    // A panic while holding the lock leaves only plain Vecs behind, which
    // are safe to keep using.
    CLASSES[class].lock().unwrap_or_else(|e| e.into_inner())
}

fn lock_u16(class: usize) -> std::sync::MutexGuard<'static, Vec<Vec<u16>>> {
    CLASSES_U16[class].lock().unwrap_or_else(|e| e.into_inner())
}

/// Pops a pooled buffer able to hold `n` elements, cleared to length 0.
/// Returns `None` when `n` is outside the pooled range or the class is empty.
fn take(n: usize) -> Option<Vec<f32>> {
    let class = request_class(n)?;
    let mut buf = match session_take(class) {
        Some(buf) => buf,
        None => lock(class).pop()?,
    };
    buf.clear();
    Some(buf)
}

/// Returns `buf` to its capacity class — the thread's session cache when one
/// is installed, the global free list otherwise. Drops it (counted as
/// `alloc.refused`) when its capacity is not exactly a class size or the
/// class is full.
pub fn recycle(buf: Vec<f32>) {
    let Some(class) = admit(buf.capacity()) else { return };
    let Some(buf) = session_put(class, buf) else { return };
    push_capped(&mut lock(class), buf);
}

/// [`capacity_class`] for a buffer handed to [`recycle`]/[`recycle_u16`],
/// counting a buffer of at least [`MIN_POOLED_LEN`] elements that is not
/// admitted as `alloc.refused` (smaller ones are never pooled by design).
fn admit(cap: usize) -> Option<usize> {
    let class = capacity_class(cap);
    if class.is_none() && cap >= MIN_POOLED_LEN {
        count_refused(1);
    }
    class
}

/// Pushes `buf` onto a global free list unless it already holds
/// [`MAX_BUFS_PER_CLASS`] buffers, in which case `buf` is dropped.
fn push_capped<T>(list: &mut Vec<Vec<T>>, buf: Vec<T>) {
    if list.len() < MAX_BUFS_PER_CLASS {
        list.push(buf);
    } else {
        count_refused(1);
    }
}

/// [`take`] for 16-bit storage buffers.
fn take_u16(n: usize) -> Option<Vec<u16>> {
    let class = request_class(n)?;
    let mut buf = match session_take_u16(class) {
        Some(buf) => buf,
        None => lock_u16(class).pop()?,
    };
    buf.clear();
    Some(buf)
}

/// [`recycle`] for 16-bit storage buffers (f16/bf16 tensor storage).
pub fn recycle_u16(buf: Vec<u16>) {
    let Some(class) = admit(buf.capacity()) else { return };
    let Some(buf) = session_put_u16(class, buf) else { return };
    push_capped(&mut lock_u16(class), buf);
}

/// The shared empty storage a [`crate::Tensor`] leaves behind after handing
/// its buffer back in `Drop`.
pub(crate) fn empty_shared() -> Arc<Vec<f32>> {
    static EMPTY: OnceLock<Arc<Vec<f32>>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::new(Vec::new())))
}

/// [`empty_shared`] for 16-bit storage.
pub(crate) fn empty_shared_u16() -> Arc<Vec<u16>> {
    static EMPTY: OnceLock<Arc<Vec<u16>>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::new(Vec::new())))
}

/// Number of buffers currently pooled in the class serving `n`-element
/// requests (0 when `n` is outside the pooled range).
pub fn pooled_in_class_of(n: usize) -> usize {
    request_class(n).map_or(0, |c| lock(c).len())
}

/// Number of buffers currently pooled in each global `f32` class, smallest
/// class first (class `i` holds capacity `MIN_POOLED_LEN << i`).
#[doc(hidden)]
pub fn pooled_counts() -> [usize; NUM_CLASSES] {
    std::array::from_fn(|c| lock(c).len())
}

/// Empties every free list, releasing the memory to the system allocator.
pub fn clear() {
    for class in &CLASSES {
        class.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
    for class in &CLASSES_U16 {
        class.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

#[inline]
fn count_fresh() {
    crate::telemetry::count("alloc.fresh", 1);
}

#[inline]
fn count_reused() {
    crate::telemetry::count("alloc.reused", 1);
}

#[inline]
fn count_refused(n: usize) {
    if n > 0 {
        crate::telemetry::count("alloc.refused", n as u64);
    }
}

/// A zero-filled buffer of length `n`, reusing a pooled buffer when one is
/// available. Identical contents to `vec![0.0; n]` either way.
pub fn buf_zeroed(n: usize) -> Vec<f32> {
    match take(n) {
        Some(mut buf) => {
            count_reused();
            buf.resize(n, 0.0);
            buf
        }
        None => {
            count_fresh();
            // Round a poolable miss up to its class size so the buffer is
            // reusable for any request of the class once recycled.
            match request_class(n) {
                Some(_) => {
                    let mut buf = Vec::with_capacity(n.next_power_of_two().max(MIN_POOLED_LEN));
                    buf.resize(n, 0.0);
                    buf
                }
                None => vec![0.0; n],
            }
        }
    }
}

/// A buffer of length `n` filled with `v`; pooled like [`buf_zeroed`].
pub fn buf_filled(n: usize, v: f32) -> Vec<f32> {
    let mut buf = buf_zeroed(n);
    if v != 0.0 {
        buf.iter_mut().for_each(|x| *x = v);
    }
    buf
}

/// An empty buffer with capacity for at least `n` elements, for callers that
/// `push`/`extend` exactly `n` values; pooled like [`buf_zeroed`].
pub fn buf_with_capacity(n: usize) -> Vec<f32> {
    match take(n) {
        Some(buf) => {
            count_reused();
            buf
        }
        None => {
            count_fresh();
            match request_class(n) {
                Some(_) => Vec::with_capacity(n.next_power_of_two().max(MIN_POOLED_LEN)),
                None => Vec::with_capacity(n),
            }
        }
    }
}

/// [`buf_with_capacity`] for 16-bit storage (f16/bf16 tensor buffers),
/// served from the dedicated u16 pool.
pub fn buf_u16_with_capacity(n: usize) -> Vec<u16> {
    match take_u16(n) {
        Some(buf) => {
            count_reused();
            buf
        }
        None => {
            count_fresh();
            match request_class(n) {
                Some(_) => Vec::with_capacity(n.next_power_of_two().max(MIN_POOLED_LEN)),
                None => Vec::with_capacity(n),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    // Each test drains and reuses a size class no other test (or the rest of
    // the suite) plausibly touches, because the pool is process-global.

    fn drain(n: usize) {
        while take(n).is_some() {}
    }

    #[test]
    fn request_rounds_up_capacity_is_exact() {
        assert_eq!(request_class(1), Some(0));
        assert_eq!(request_class(64), Some(0));
        assert_eq!(request_class(65), Some(1));
        assert_eq!(request_class(128), Some(1));
        assert_eq!(request_class(MAX_POOLED_LEN), Some(NUM_CLASSES - 1));
        assert_eq!(request_class(MAX_POOLED_LEN + 1), None);
        assert_eq!(request_class(0), None);
        assert_eq!(capacity_class(63), None);
        assert_eq!(capacity_class(64), Some(0));
        assert_eq!(capacity_class(127), None);
        assert_eq!(capacity_class(128), Some(1));
        assert_eq!(capacity_class(2 * MAX_POOLED_LEN), None);
    }

    #[test]
    fn foreign_capacity_is_not_pooled() {
        // Class 2^16: an exact-capacity gather of 100,000 elements would
        // have filed there by rounding down; a class-sized buffer still does.
        let n = 1 << 16;
        drain(n);
        recycle(Vec::with_capacity(100_000));
        assert!(take(n).is_none(), "foreign f32 buffer was pooled");
        recycle(Vec::with_capacity(n));
        assert!(take(n).is_some(), "class-sized f32 buffer should be pooled");
        drain(n);
    }

    #[test]
    fn foreign_capacity_is_not_pooled_u16() {
        let n = 1 << 16; // u16 class 2^16, unused by the other u16 tests
        while take_u16(n).is_some() {}
        recycle_u16(Vec::with_capacity(100_000));
        assert!(take_u16(n).is_none(), "foreign u16 buffer was pooled");
        recycle_u16(Vec::with_capacity(n));
        assert!(take_u16(n).is_some(), "class-sized u16 buffer should be pooled");
        while take_u16(n).is_some() {}
    }

    #[test]
    fn session_cache_admits_and_drains_only_class_sized_buffers() {
        let n = 1 << 17; // unique class; 150,000 rounds down to it
        drain(n);
        session_begin();
        recycle(Vec::with_capacity(150_000));
        assert!(take(n).is_none(), "foreign buffer entered the session cache");
        recycle(Vec::with_capacity(150_000));
        recycle(Vec::with_capacity(n));
        session_end();
        // Only the class-sized buffer drains into the global class.
        assert_eq!(pooled_in_class_of(n), 1);
        drain(n);
    }

    #[test]
    fn recycled_buffer_serves_its_class() {
        // Unique class: ~2^20 elements.
        let n = (1 << 20) + 7;
        drain(n);
        recycle(Vec::with_capacity(1 << 21)); // floor class == ceil class of n
        let buf = take(n).expect("pooled buffer should serve request");
        assert!(buf.capacity() >= n);
        assert!(buf.is_empty());
        // A request one class up must not see it.
        recycle(buf);
        drain((1 << 21) + 1);
        assert!(take((1 << 21) + 1).is_none());
        drain(n);
    }

    #[test]
    fn dropping_unique_tensor_recycles_shared_does_not() {
        let n = (1 << 22) + 3; // unique class, ~16 MiB
        drain(n);
        let t = Tensor::zeros([n]);
        let t2 = t.clone();
        drop(t); // storage still shared with t2 — must not be recycled
        assert!(take(n).is_none(), "shared buffer was recycled");
        drop(t2); // now uniquely owned — recycled
        let buf = take(n).expect("unique buffer should be recycled");
        assert!(buf.capacity() >= n);
        drain(n);
    }

    #[test]
    fn cross_thread_return() {
        let n = (1 << 23) + 11; // unique class, ~32 MiB
        drain(n);
        std::thread::spawn(move || drop(Tensor::zeros([n]))).join().unwrap();
        assert!(take(n).is_some(), "buffer recycled on another thread not visible");
        drain(n);
    }

    #[test]
    fn session_cache_bypasses_global_cap_and_drains_on_end() {
        let n = (1usize << 19) + 9; // unique class, ~2 MiB
        let cap = n.next_power_of_two();
        drain(n);
        session_begin();
        // More buffers than the global cap admits all fit in the session.
        for _ in 0..(MAX_BUFS_PER_CLASS + 8) {
            recycle(Vec::with_capacity(cap));
        }
        for _ in 0..(MAX_BUFS_PER_CLASS + 8) {
            assert!(take(n).is_some(), "session-cached buffer should serve");
        }
        assert!(take(n).is_none());
        // Recycle a few, then end the session: they drain globally.
        for _ in 0..4 {
            recycle(Vec::with_capacity(cap));
        }
        session_end();
        assert_eq!(pooled_in_class_of(n), 4);
        drain(n);
    }

    #[test]
    fn nested_sessions_share_one_cache() {
        let n = (1usize << 18) + 3; // unique class
        let cap = n.next_power_of_two();
        drain(n);
        session_begin();
        session_begin();
        recycle(Vec::with_capacity(cap));
        session_end();
        // Still cached: the outer session is alive.
        assert!(take(n).is_some());
        session_end();
        drain(n);
    }

    #[test]
    fn u16_pool_is_separate_and_recycles() {
        let n = (1usize << 17) + 5; // unique class
        let cap = n.next_power_of_two();
        while take_u16(n).is_some() {}
        recycle_u16(Vec::with_capacity(cap));
        let buf = take_u16(n).expect("pooled u16 buffer should serve");
        assert!(buf.capacity() >= n && buf.is_empty());
        // The f32 pool must never see 16-bit buffers and vice versa.
        while take(n).is_some() {}
        recycle_u16(buf);
        assert!(take(n).is_none());
        assert!(take_u16(n).is_some());
        while take_u16(n).is_some() {}
    }

    #[test]
    fn session_cache_holds_u16_buffers() {
        let n = (1usize << 16) + 1; // unique class
        let cap = n.next_power_of_two();
        while take_u16(n).is_some() {}
        session_begin();
        recycle_u16(Vec::with_capacity(cap));
        assert!(take_u16(n).is_some(), "session-cached u16 buffer should serve");
        recycle_u16(Vec::with_capacity(cap));
        session_end();
        // Drained into the global u16 class on the final end.
        assert!(take_u16(n).is_some());
        while take_u16(n).is_some() {}
    }

    #[test]
    fn buffers_match_plain_allocation() {
        let n = 130;
        // Seed the pool with a dirty buffer to prove reuse re-zeroes.
        let mut dirty = Vec::with_capacity(256);
        dirty.resize(256, 7.25f32);
        recycle(dirty);
        let z = buf_zeroed(n);
        assert_eq!(z, vec![0.0; n]);
        recycle(z);
        let f = buf_filled(n, 3.5);
        assert_eq!(f, vec![3.5; n]);
        let c = buf_with_capacity(n);
        assert!(c.is_empty() && c.capacity() >= n);
    }
}
