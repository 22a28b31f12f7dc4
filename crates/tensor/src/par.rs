//! Zero-dependency parallel execution layer (`pv-par`).
//!
//! A small `std::thread::scope`-based runtime used by every hot path in the
//! workspace: cache-blocked matmul, batched convolution, and the sweep-level
//! loops in the evaluation layer. There is deliberately no work-stealing pool
//! and no external dependency — work is split into **disjoint contiguous
//! chunks**, each chunk is computed by exactly one thread with the same
//! inner-loop order the serial code would use, and reductions combine fixed
//! chunk partials in index order. Together those rules make every result
//! **bitwise identical for any thread count**, which is what keeps the
//! golden-RNG and determinism tests passing under `PV_NUM_THREADS=N`.
//!
//! Worker count resolution, in priority order:
//! 1. a programmatic override installed via [`set_thread_override`]
//!    (used by the equivalence tests and benches),
//! 2. the `PV_NUM_THREADS` environment variable (read once per process),
//! 3. [`std::thread::available_parallelism`].
//!
//! Nested parallelism is suppressed: inside a worker, [`num_threads`]
//! reports 1, so a parallel evaluation sweep that calls into parallel
//! matmul runs the inner kernels serially instead of oversubscribing.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// True while the current thread is executing inside a `pv-par` worker;
    /// used to run nested parallel calls serially.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Programmatic thread-count override; 0 means "no override".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Cached `PV_NUM_THREADS` / `available_parallelism` resolution.
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

/// Minimum number of scalar operations below which parallel dispatch is not
/// worth the thread-spawn overhead and work runs serially.
///
/// Calibrated against the packed GEMM path: a `std::thread::scope` spawn
/// round-trip costs tens of microseconds, during which the microkernel
/// retires on the order of 10⁶ multiply-adds — so anything under ~10⁵
/// scalar ops is cheaper to run in place. The old `1 << 15` threshold let
/// small shapes (per-layer products in `mini_resnet` at batch 32) fan out
/// for sub-spawn-cost work, which is where the 0.9× "speedups" in earlier
/// `BENCH_kernels.json` rows came from.
pub const MIN_PARALLEL_WORK: usize = 1 << 17;

/// Number of consecutive indices summed per partial in
/// [`parallel_sum_f64`]. Fixed (independent of thread count) so the
/// reduction tree — and therefore the floating-point result — never changes
/// with parallelism.
const REDUCE_CHUNK: usize = 64;

fn env_threads() -> usize {
    *ENV_THREADS.get_or_init(|| {
        #[expect(
            clippy::disallowed_methods,
            reason = "PV_NUM_THREADS only sizes the pool; results are bitwise thread-count-invariant"
        )]
        let env = std::env::var("PV_NUM_THREADS");
        if let Ok(v) = env {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The number of worker threads parallel helpers will use right now.
///
/// Returns 1 inside a `pv-par` worker (nested parallelism runs serially).
/// Otherwise resolves the override installed by [`set_thread_override`],
/// then `PV_NUM_THREADS`, then `available_parallelism`.
pub fn num_threads() -> usize {
    if IN_WORKER.with(|w| w.get()) {
        return 1;
    }
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => env_threads(),
        n => n,
    }
}

/// Installs (`Some(n)`) or clears (`None`) a process-wide thread-count
/// override taking precedence over `PV_NUM_THREADS`.
///
/// Intended for tests and benchmarks that compare thread counts within one
/// process. `Some(0)` is treated as `Some(1)`. Because every `pv-par`
/// helper is thread-count invariant bit-for-bit, concurrent callers cannot
/// change each other's *results*, only their parallelism.
pub fn set_thread_override(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.map_or(0, |n| n.max(1)), Ordering::Relaxed);
}

/// Whether `work` scalar operations are enough to amortize thread dispatch
/// ([`MIN_PARALLEL_WORK`]) given the current [`num_threads`].
pub fn worth_parallelizing(work: usize) -> bool {
    num_threads() > 1 && work >= MIN_PARALLEL_WORK
}

/// How many workers to fan `work` scalar operations out to: enough that
/// every worker gets at least [`MIN_PARALLEL_WORK`] ops, capped at
/// [`num_threads`]. Returns 1 (run serially, spawn nothing) for work
/// below the threshold — the scheduling half of the small-shape fix
/// described on [`MIN_PARALLEL_WORK`].
pub fn worker_count(work: usize) -> usize {
    let t = num_threads();
    if t <= 1 || work < MIN_PARALLEL_WORK {
        return 1;
    }
    t.min(work / MIN_PARALLEL_WORK)
}

/// Splits `data` into consecutive chunks of `chunk_len` elements (the last
/// may be shorter) and calls `f(chunk_index, chunk)` for every chunk,
/// distributing contiguous runs of chunks across worker threads.
///
/// Each chunk is visited exactly once by exactly one thread, so any
/// per-chunk computation that only writes its own chunk is deterministic
/// regardless of thread count.
pub fn parallel_for_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be nonzero");
    let n_chunks = data.len().div_ceil(chunk_len);
    let workers = num_threads().min(n_chunks);
    if workers <= 1 {
        for (ci, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(ci, chunk);
        }
        return;
    }
    // Carve the slice into one contiguous run of whole chunks per worker.
    let chunks_per_worker = n_chunks.div_ceil(workers);
    let mut parts: Vec<(usize, &mut [T])> = Vec::with_capacity(workers);
    let mut rest = data;
    let mut next_chunk = 0;
    while !rest.is_empty() {
        let take = (chunks_per_worker * chunk_len).min(rest.len());
        let (head, tail) = rest.split_at_mut(take);
        parts.push((next_chunk, head));
        next_chunk += chunks_per_worker;
        rest = tail;
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "pv-par is the sanctioned home of scoped worker threads"
    )]
    std::thread::scope(|s| {
        for (first_chunk, part) in parts {
            let f = &f;
            s.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                for (off, chunk) in part.chunks_mut(chunk_len).enumerate() {
                    f(first_chunk + off, chunk);
                }
                IN_WORKER.with(|w| w.set(false));
            });
        }
    });
}

/// Like [`parallel_for_chunks_mut`] for two equally chunked slices that a
/// kernel must write in lockstep (e.g. max-pool outputs plus argmax
/// indices). Calls `f(chunk_index, a_chunk, b_chunk)`.
///
/// `a.len()` must divide into the same number of `chunk_a`-sized chunks as
/// `b.len()` into `chunk_b`-sized ones.
pub fn parallel_for_chunks_mut2<A, B, F>(
    a: &mut [A],
    chunk_a: usize,
    b: &mut [B],
    chunk_b: usize,
    f: F,
) where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    assert!(chunk_a > 0 && chunk_b > 0, "chunk lengths must be nonzero");
    let n_chunks = a.len().div_ceil(chunk_a);
    assert_eq!(
        n_chunks,
        b.len().div_ceil(chunk_b),
        "mismatched chunk counts"
    );
    let workers = num_threads().min(n_chunks);
    if workers <= 1 {
        for (ci, (ca, cb)) in a.chunks_mut(chunk_a).zip(b.chunks_mut(chunk_b)).enumerate() {
            f(ci, ca, cb);
        }
        return;
    }
    let chunks_per_worker = n_chunks.div_ceil(workers);
    let mut parts: Vec<(usize, &mut [A], &mut [B])> = Vec::with_capacity(workers);
    let (mut rest_a, mut rest_b) = (a, b);
    let mut next_chunk = 0;
    while !rest_a.is_empty() {
        let take_a = (chunks_per_worker * chunk_a).min(rest_a.len());
        let take_b = (chunks_per_worker * chunk_b).min(rest_b.len());
        let (ha, ta) = rest_a.split_at_mut(take_a);
        let (hb, tb) = rest_b.split_at_mut(take_b);
        parts.push((next_chunk, ha, hb));
        next_chunk += chunks_per_worker;
        rest_a = ta;
        rest_b = tb;
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "pv-par is the sanctioned home of scoped worker threads"
    )]
    std::thread::scope(|s| {
        for (first_chunk, pa, pb) in parts {
            let f = &f;
            s.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                for (off, (ca, cb)) in pa
                    .chunks_mut(chunk_a)
                    .zip(pb.chunks_mut(chunk_b))
                    .enumerate()
                {
                    f(first_chunk + off, ca, cb);
                }
                IN_WORKER.with(|w| w.set(false));
            });
        }
    });
}

/// Evaluates `f(i)` for `i in 0..n` and returns the results in index order,
/// splitting contiguous index ranges across worker threads.
pub fn parallel_map<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    parallel_map_with(n, || (), |(), i| f(i))
}

/// Evaluates `f(&mut state, i)` for `i in 0..n` with one `init()`-created
/// state per worker thread, returning results in index order.
///
/// The state is where callers park expensive per-worker scratch such as a
/// cloned [`Network`](https://docs.rs/pv-nn) — each worker clones once and
/// reuses it across its whole contiguous index range. Results depend only
/// on `i` as long as `f` is pure given a fresh state, so thread count never
/// changes the output.
pub fn parallel_map_with<S, R, I, F>(n: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let workers = num_threads().min(n);
    if workers <= 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let per_worker = n.div_ceil(workers);
    let ranges: Vec<(usize, usize)> = (0..workers)
        .map(|w| (w * per_worker, ((w + 1) * per_worker).min(n)))
        .collect();
    let mut out: Vec<R> = Vec::with_capacity(n);
    #[expect(
        clippy::disallowed_methods,
        reason = "pv-par is the sanctioned home of scoped worker threads"
    )]
    std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .into_iter()
            .filter(|(lo, hi)| lo < hi)
            .map(|(lo, hi)| {
                let (init, f) = (&init, &f);
                s.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    let mut state = init();
                    let part: Vec<R> = (lo..hi).map(|i| f(&mut state, i)).collect();
                    IN_WORKER.with(|w| w.set(false));
                    part
                })
            })
            .collect();
        for h in handles {
            // pv-analyze: allow(hotpath-panic) -- propagating a worker panic preserves the original panic message
            out.extend(h.join().expect("pv-par worker panicked"));
        }
    });
    out
}

/// Evaluates `f(i, &mut items[i])` for every element and returns the
/// results in index order, splitting `items` into contiguous per-worker
/// sub-slices.
pub fn parallel_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    let workers = num_threads().min(n);
    if workers <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let per_worker = n.div_ceil(workers);
    let mut parts: Vec<(usize, &mut [T])> = Vec::with_capacity(workers);
    let mut rest = items;
    let mut next = 0;
    while !rest.is_empty() {
        let take = per_worker.min(rest.len());
        let (head, tail) = rest.split_at_mut(take);
        parts.push((next, head));
        next += take;
        rest = tail;
    }
    let mut out: Vec<R> = Vec::with_capacity(n);
    #[expect(
        clippy::disallowed_methods,
        reason = "pv-par is the sanctioned home of scoped worker threads"
    )]
    std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|(lo, part)| {
                let f = &f;
                s.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    let res: Vec<R> = part
                        .iter_mut()
                        .enumerate()
                        .map(|(off, t)| f(lo + off, t))
                        .collect();
                    IN_WORKER.with(|w| w.set(false));
                    res
                })
            })
            .collect();
        for h in handles {
            // pv-analyze: allow(hotpath-panic) -- propagating a worker panic preserves the original panic message
            out.extend(h.join().expect("pv-par worker panicked"));
        }
    });
    out
}

/// Sums `f(i)` over `i in 0..n` with a deterministic reduction: indices are
/// grouped into fixed 64-element chunks summed left-to-right, and the chunk
/// partials are added in chunk order. Both the serial and parallel paths
/// use the identical tree, so the result is bitwise identical for any
/// thread count.
pub fn parallel_sum_f64<F>(n: usize, f: F) -> f64
where
    F: Fn(usize) -> f64 + Sync,
{
    let n_chunks = n.div_ceil(REDUCE_CHUNK);
    let chunk_sum = |ci: usize| -> f64 {
        let lo = ci * REDUCE_CHUNK;
        let hi = (lo + REDUCE_CHUNK).min(n);
        let mut acc = 0.0;
        for i in lo..hi {
            acc += f(i);
        }
        acc
    };
    let partials = parallel_map(n_chunks, chunk_sum);
    partials.into_iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests that install thread overrides.
    fn with_override<R>(n: usize, body: impl FnOnce() -> R) -> R {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LOCK.lock().unwrap();
        set_thread_override(Some(n));
        let r = body();
        set_thread_override(None);
        r
    }

    #[test]
    fn chunks_mut_visits_every_chunk_once() {
        for threads in [1, 2, 3, 8] {
            with_override(threads, || {
                let mut data = vec![0u32; 103];
                parallel_for_chunks_mut(&mut data, 10, |ci, chunk| {
                    for v in chunk.iter_mut() {
                        *v += 1 + ci as u32;
                    }
                });
                for (i, v) in data.iter().enumerate() {
                    assert_eq!(*v, 1 + (i / 10) as u32, "index {i} threads {threads}");
                }
            });
        }
    }

    #[test]
    fn chunks_mut2_keeps_slices_in_lockstep() {
        with_override(3, || {
            let mut a = vec![0usize; 12];
            let mut b = vec![0usize; 24];
            parallel_for_chunks_mut2(&mut a, 2, &mut b, 4, |ci, ca, cb| {
                ca.iter_mut().for_each(|v| *v = ci);
                cb.iter_mut().for_each(|v| *v = ci * 10);
            });
            assert_eq!(a, vec![0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]);
            assert!(b
                .chunks(4)
                .enumerate()
                .all(|(ci, c)| c.iter().all(|&v| v == ci * 10)));
        });
    }

    #[test]
    fn map_preserves_index_order() {
        for threads in [1, 2, 5] {
            with_override(threads, || {
                let out = parallel_map(17, |i| i * i);
                assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
            });
        }
    }

    #[test]
    fn map_with_reuses_one_state_per_worker() {
        with_override(4, || {
            let inits = std::sync::atomic::AtomicUsize::new(0);
            let out = parallel_map_with(
                32,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<usize>::new()
                },
                |scratch, i| {
                    scratch.push(i);
                    i
                },
            );
            assert_eq!(out, (0..32).collect::<Vec<_>>());
            assert!(inits.load(Ordering::Relaxed) <= 4);
        });
    }

    #[test]
    fn map_mut_passes_global_indices() {
        with_override(3, || {
            let mut items = vec![100usize; 10];
            let out = parallel_map_mut(&mut items, |i, t| {
                *t += i;
                *t
            });
            assert_eq!(out, (0..10).map(|i| 100 + i).collect::<Vec<_>>());
            assert_eq!(items, (0..10).map(|i| 100 + i).collect::<Vec<_>>());
        });
    }

    #[test]
    fn sum_is_bitwise_thread_count_invariant() {
        let f = |i: usize| ((i as f64) * 0.1).sin() / ((i + 1) as f64);
        let expected = with_override(1, || parallel_sum_f64(1000, f));
        for threads in [2, 3, 4, 7] {
            let got = with_override(threads, || parallel_sum_f64(1000, f));
            assert_eq!(expected.to_bits(), got.to_bits(), "threads {threads}");
        }
    }

    #[test]
    fn nested_parallelism_is_serial() {
        with_override(4, || {
            let nested: Vec<usize> = parallel_map(4, |_| num_threads());
            assert!(nested.iter().all(|&n| n == 1));
            assert_eq!(num_threads(), 4);
        });
    }

    #[test]
    fn worth_parallelizing_respects_threshold() {
        with_override(4, || {
            assert!(worth_parallelizing(MIN_PARALLEL_WORK));
            assert!(!worth_parallelizing(MIN_PARALLEL_WORK - 1));
        });
        with_override(1, || {
            assert!(!worth_parallelizing(usize::MAX));
        });
    }

    #[test]
    fn worker_count_scales_with_work() {
        with_override(8, || {
            assert_eq!(worker_count(0), 1);
            assert_eq!(worker_count(MIN_PARALLEL_WORK - 1), 1);
            // enough for some workers but not all eight
            assert_eq!(worker_count(3 * MIN_PARALLEL_WORK), 3);
            // saturates at the thread count
            assert_eq!(worker_count(100 * MIN_PARALLEL_WORK), 8);
        });
        with_override(1, || {
            assert_eq!(worker_count(usize::MAX), 1);
        });
    }
}
