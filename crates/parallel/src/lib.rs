//! Deterministic scoped-thread parallelism.
//!
//! Every fan-out in the workspace — batch encode/decode, experiment
//! trials, skew profiling — funnels through these helpers so the
//! parallelism rules live in one place:
//!
//! - **Determinism**: results are a pure function of the inputs. Work item
//!   `i` always computes `f(i)`, results are returned in index order, and
//!   the thread count can never change a result — only how the items are
//!   sliced across threads.
//! - **Scoped threads**: no `'static` bounds, so closures can borrow the
//!   pipeline, payloads, and pools directly.
//! - **One thread-count policy**: [`max_threads`] honors the
//!   `DNA_SKEW_THREADS` environment variable (useful to pin experiments or
//!   prove thread-count independence) and otherwise uses the available
//!   parallelism.
//!
//! # Examples
//!
//! ```
//! let squares = dna_parallel::parallel_map(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//!
//! // Identical results at any explicit thread count.
//! let serial = dna_parallel::parallel_map_with(8, 1, |i| i * 3);
//! let wide = dna_parallel::parallel_map_with(8, 7, |i| i * 3);
//! assert_eq!(serial, wide);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The worker-thread budget: `DNA_SKEW_THREADS` when set to a positive
/// integer, otherwise [`std::thread::available_parallelism`].
pub fn max_threads() -> usize {
    if let Ok(v) = std::env::var("DNA_SKEW_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
        eprintln!(
            "warning: ignoring invalid DNA_SKEW_THREADS value {v:?} (want a positive integer)"
        );
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Runs `f(0), f(1), …, f(n-1)` across up to [`max_threads`] scoped
/// threads and returns the results in index order.
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_with(n, max_threads(), f)
}

/// [`parallel_map`] with an explicit thread budget. `threads` only changes
/// how items are sliced across workers — never the results.
pub fn parallel_map_with<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_init_with(n, threads, || (), |(), i| f(i))
}

/// [`parallel_map`] with a per-worker workspace: each worker thread calls
/// `init()` exactly once and threads the resulting value mutably through
/// every item it processes. This is how batch decode reuses scratch
/// buffers across units without sharing them across threads.
///
/// Determinism contract: `f` must give the same result for a given item
/// regardless of the workspace's prior use (workspaces are caches, not
/// state), which keeps results independent of the thread count.
///
/// # Examples
///
/// ```
/// // Each worker reuses one scratch buffer across its items.
/// let out = dna_parallel::parallel_map_init(
///     4,
///     Vec::new,
///     |buf: &mut Vec<usize>, i| {
///         buf.clear();
///         buf.extend(0..=i);
///         buf.iter().sum::<usize>()
///     },
/// );
/// assert_eq!(out, vec![0, 1, 3, 6]);
/// ```
pub fn parallel_map_init<W, T, I, F>(n: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, usize) -> T + Sync,
{
    parallel_map_init_with(n, max_threads(), init, f)
}

/// [`parallel_map_init`] with an explicit thread budget. `threads` only
/// changes how items are sliced across workers (and thus how many
/// workspaces are created) — never the results.
pub fn parallel_map_init_with<W, T, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, usize) -> T + Sync,
{
    parallel_map_slots_init_with(&mut vec![(); n], threads, init, |w, i, ()| f(w, i))
}

/// [`parallel_map_init`] over disjoint mutable slots: item `i` is also
/// handed `&mut slots[i]`, so workers fill a caller's buffer in place —
/// for example one chunk each of `buf.chunks_mut(len)` — instead of
/// returning owned copies of it. The same determinism contract holds.
///
/// # Examples
///
/// ```
/// let mut buf = vec![0u8; 6];
/// let mut chunks: Vec<&mut [u8]> = buf.chunks_mut(2).collect();
/// let sums = dna_parallel::parallel_map_slots_init(&mut chunks, || (), |(), i, chunk| {
///     chunk.fill(i as u8);
///     i * 2
/// });
/// assert_eq!(sums, vec![0, 2, 4]);
/// assert_eq!(buf, [0, 0, 1, 1, 2, 2]);
/// ```
pub fn parallel_map_slots_init<S, W, T, I, F>(slots: &mut [S], init: I, f: F) -> Vec<T>
where
    S: Send,
    T: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, usize, &mut S) -> T + Sync,
{
    parallel_map_slots_init_with(slots, max_threads(), init, f)
}

/// [`parallel_map_slots_init`] with an explicit thread budget: the one
/// fan-out every `parallel_map*` variant runs on.
fn parallel_map_slots_init_with<S, W, T, I, F>(
    slots: &mut [S],
    threads: usize,
    init: I,
    f: F,
) -> Vec<T>
where
    S: Send,
    T: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, usize, &mut S) -> T + Sync,
{
    let n = slots.len();
    let threads = threads.clamp(1, n.max(1));
    if n == 0 {
        return Vec::new();
    }
    if threads == 1 {
        let mut w = init();
        return slots
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| f(&mut w, i, slot))
            .collect();
    }
    let chunk = n.div_ceil(threads);
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let run = |tid: usize, slots: &mut [S], results: &mut [Option<T>]| {
        let mut w = init();
        for (off, (slot, out)) in slots.iter_mut().zip(results).enumerate() {
            *out = Some(f(&mut w, tid * chunk + off, slot));
        }
    };
    std::thread::scope(|scope| {
        let mut parts = slots
            .chunks_mut(chunk)
            .zip(results.chunks_mut(chunk))
            .enumerate();
        // The calling thread works the first chunk instead of waiting.
        let first = parts.next();
        let handles: Vec<_> = parts
            .map(|(tid, (slots, results))| scope.spawn(move || run(tid, slots, results)))
            .collect();
        if let Some((tid, (slots, results))) = first {
            run(tid, slots, results);
        }
        for h in handles {
            h.join().expect("parallel_map worker panicked");
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("all slots filled"))
        .collect()
}

/// Folds `step(acc, 0), …, step(acc, n-1)` into per-chunk accumulators
/// (created by `init`) across up to [`max_threads`] scoped threads, then
/// merges them into `init()` with `merge` **in chunk order**, so the
/// result is deterministic whenever `merge` is associative over ordered
/// chunks (e.g. element-wise addition).
pub fn parallel_fold<A, I, S, M>(n: usize, init: I, step: S, merge: M) -> A
where
    A: Send,
    I: Fn() -> A + Sync,
    S: Fn(&mut A, usize) + Sync,
    M: Fn(&mut A, A),
{
    let threads = max_threads().clamp(1, n.max(1));
    let chunk = n.div_ceil(threads);
    let chunks: Vec<A> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for tid in 0..threads {
            let lo = tid * chunk;
            let hi = ((tid + 1) * chunk).min(n);
            if lo >= hi {
                break;
            }
            let (init, step) = (&init, &step);
            handles.push(scope.spawn(move || {
                let mut acc = init();
                for i in lo..hi {
                    step(&mut acc, i);
                }
                acc
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel_fold worker panicked"))
            .collect()
    });
    let mut total = init();
    for part in chunks {
        merge(&mut total, part);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let got = parallel_map(100, |i| i * 2);
        assert_eq!(got, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_is_thread_count_independent() {
        let reference = parallel_map_with(37, 1, |i| i.wrapping_mul(0x9E37) ^ 0xA5);
        for threads in [2, 3, 8, 64] {
            assert_eq!(
                parallel_map_with(37, threads, |i| i.wrapping_mul(0x9E37) ^ 0xA5),
                reference,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn map_handles_degenerate_sizes() {
        assert_eq!(parallel_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(1, |i| i + 41), vec![41]);
        assert_eq!(parallel_map_with(3, 100, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn map_init_matches_plain_map_at_any_thread_count() {
        let reference = parallel_map_with(41, 1, |i| i * i + 1);
        for threads in [1, 2, 3, 8, 64] {
            let got = parallel_map_init_with(41, threads, Vec::<usize>::new, |scratch, i| {
                scratch.push(i); // workspace state must not affect results
                i * i + 1
            });
            assert_eq!(got, reference, "threads = {threads}");
        }
    }

    #[test]
    fn slots_are_filled_in_place_at_any_thread_count() {
        let reference: Vec<u8> = (0..23u8).flat_map(|i| [i, i ^ 0x5A, i]).collect();
        for threads in [1, 2, 3, 8, 64] {
            let mut buf = vec![0u8; 23 * 3];
            let mut chunks: Vec<&mut [u8]> = buf.chunks_mut(3).collect();
            let got = parallel_map_slots_init_with(
                &mut chunks,
                threads,
                || (),
                |(), i, chunk| {
                    chunk.copy_from_slice(&[i as u8, i as u8 ^ 0x5A, i as u8]);
                    i
                },
            );
            assert_eq!(got, (0..23).collect::<Vec<_>>(), "threads = {threads}");
            assert_eq!(buf, reference, "threads = {threads}");
        }
    }

    #[test]
    fn fold_sums_match_serial() {
        let total = parallel_fold(
            1000,
            || vec![0u64; 4],
            |acc, i| acc[i % 4] += i as u64,
            |acc, part| {
                for (a, p) in acc.iter_mut().zip(part) {
                    *a += p;
                }
            },
        );
        let mut expected = vec![0u64; 4];
        for i in 0..1000u64 {
            expected[(i % 4) as usize] += i;
        }
        assert_eq!(total, expected);
    }

    #[test]
    fn threads_env_override_is_bounded() {
        // Regardless of the env var, max_threads is at least 1.
        assert!(max_threads() >= 1);
    }
}
