//! Minimal parallel map runner.
//!
//! Two kinds of work run through here: the experiment harness's sweeps of
//! hundreds of independent (tree, workload, algorithm, parameter) cells,
//! and the sharded engine's per-shard drains. Each item is pure CPU work
//! with no shared mutable state, so the classic pattern from *Rust Atomics
//! and Locks* applies: spawn scoped threads (`std::thread::scope`), hand
//! out work items one ticket at a time (self-balancing — fast items simply
//! grab more tickets), and collect results into pre-sized slots guarded by
//! a `Mutex` only at the cheap hand-back moment.
//!
//! The ticket counter is the items' own iterator behind a `Mutex`: a
//! worker locks it only to take the next `(index, item)` pair, which keeps
//! the `&mut` hand-out of [`parallel_map_mut`] in safe code. We
//! deliberately do not pull in a full work-stealing runtime: items are
//! coarse (a shard's whole batch, or a sweep cell of milliseconds to
//! seconds), so one lock per item costs nothing next to the item itself.

use std::sync::Mutex;

/// Applies `f(index, item)` to every item of `items` on `threads` scoped
/// workers that take items one at a time, and returns the results in input
/// order — the one scheduling scheme behind both public maps.
///
/// Falls back to a plain sequential loop on the calling thread (no spawn,
/// no lock) when `threads <= 1` or there is at most one item.
///
/// # Panics
/// Propagates panics from `f` (the scope joins all workers first).
fn run_tickets<I, R, F>(items: I, threads: usize, f: F) -> Vec<R>
where
    I: ExactSizeIterator + Send,
    R: Send,
    F: Fn(usize, I::Item) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let tickets = Mutex::new(items.enumerate());
    // Result slots, filled exactly once each.
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                // The ticket lock is released at the end of this statement,
                // before `f` runs.
                let ticket = tickets.lock().expect("parallel worker panicked").next();
                let Some((i, item)) = ticket else { break };
                let r = f(i, item);
                results.lock().expect("parallel worker panicked")[i] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .expect("parallel worker panicked")
        .into_iter()
        .map(|slot| slot.expect("every ticket produces a result"))
        .collect()
}

/// Applies `f` to every item on `threads` worker threads and returns the
/// results in input order (see [`run_tickets`]).
fn parallel_map_threads<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    run_tickets(items.iter(), threads, |_, item| f(item))
}

/// Applies `f` to every item **in place** on `threads` worker threads and
/// returns the results in input order. The mutable sibling of
/// [`parallel_map`]: workers take `(index, &mut T)` tickets one at a time,
/// so `f` needs no locking on the items themselves, and a heavy item never
/// pins the items after it to the same worker (results are handed back
/// through a mutex exactly once per item).
///
/// This is the execution primitive of the sharded engine
/// (`otc-sim::engine`): shards are independent `&mut` states driven in
/// parallel during batch ingestion and `ShardedEngine::map_shards`. Shard
/// loads are uneven (a FIB shard's load is its subtries' traffic, not
/// their size), and the ticket hand-out gives the next shard to whichever
/// worker frees up first.
///
/// Falls back to a plain sequential loop on the calling thread when
/// `threads <= 1` or the input has at most one element.
///
/// # Panics
/// Propagates panics from `f` (the scope joins all workers first).
pub fn parallel_map_mut<T, R, F>(items: &mut [T], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    run_tickets(items.iter_mut(), threads, f)
}

/// Applies `f` to every item on `available_parallelism()` worker threads
/// and returns the results in input order. Work is handed out one item at
/// a time as tickets, so uneven items balance themselves; a single item or
/// a single-CPU host runs sequentially.
///
/// ```
/// let squares = otc_util::parallel_map((0u64..100).collect(), |&x| x * x);
/// assert_eq!(squares[9], 81);
/// ```
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    parallel_map_threads(items, threads, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..500).collect();
        let out = parallel_map_threads(items, 8, |&x| x * x);
        for (i, &y) in out.iter().enumerate() {
            assert_eq!(y, (i as u64) * (i as u64));
        }
    }

    #[test]
    fn sequential_fallback_matches() {
        let items: Vec<u64> = (0..100).collect();
        let seq = parallel_map_threads(items.clone(), 1, |&x| x + 1);
        let par = parallel_map_threads(items, 7, |&x| x + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = parallel_map_threads(Vec::<u32>::new(), 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        let out = parallel_map_threads(vec![41], 4, |&x| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with wildly different costs must still all complete.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map_threads(items, 4, |&x| {
            let mut acc = 0u64;
            let rounds = if x % 8 == 0 { 200_000 } else { 10 };
            for i in 0..rounds {
                acc = acc.wrapping_add(i ^ x);
            }
            acc
        });
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn more_threads_than_items() {
        let out = parallel_map_threads(vec![1, 2, 3], 64, |&x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn default_thread_count_runs() {
        let out = parallel_map((0..32).collect::<Vec<u64>>(), |&x| x % 3);
        assert_eq!(out.len(), 32);
    }

    #[test]
    fn map_mut_mutates_and_preserves_order() {
        let mut items: Vec<u64> = (0..100).collect();
        let out = parallel_map_mut(&mut items, 4, |i, x| {
            *x += 1;
            (i as u64) * 2
        });
        for (i, &x) in items.iter().enumerate() {
            assert_eq!(x, i as u64 + 1);
        }
        for (i, &r) in out.iter().enumerate() {
            assert_eq!(r, (i as u64) * 2);
        }
    }

    #[test]
    fn map_mut_sequential_fallback_matches() {
        let mut a: Vec<u64> = (0..37).collect();
        let mut b = a.clone();
        // Uneven items, so the eight workers' ticket order varies run to run.
        let work = |i: usize, x: &mut u64| {
            *x = spin(100 + (*x % 13) * 500, *x);
            *x + i as u64
        };
        let ra = parallel_map_mut(&mut a, 1, work);
        let rb = parallel_map_mut(&mut b, 8, work);
        assert_eq!(ra, rb);
        assert_eq!(a, b);
    }

    #[test]
    fn map_mut_empty_and_more_threads_than_items() {
        let mut empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = parallel_map_mut(&mut empty, 4, |_, &mut x| x);
        assert!(out.is_empty());
        let mut small = vec![1u32, 2, 3];
        let out = parallel_map_mut(&mut small, 64, |_, x| *x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn map_mut_calls_f_exactly_once_per_index() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        for threads in [2, 3, 8, 64] {
            let mut items: Vec<u64> = (0..57).collect();
            let per_index: Vec<AtomicUsize> =
                (0..items.len()).map(|_| AtomicUsize::new(0)).collect();
            let out = parallel_map_mut(&mut items, threads, |i, x| {
                per_index[i].fetch_add(1, Ordering::Relaxed);
                *x += 1;
                i
            });
            assert!(per_index.iter().all(|c| c.load(Ordering::Relaxed) == 1), "{threads} threads");
            assert_eq!(out, (0..57).collect::<Vec<usize>>());
            assert_eq!(items, (1..58).collect::<Vec<u64>>());
        }
    }

    /// Spins for `rounds` iterations; the result depends on every round.
    fn spin(rounds: u64, seed: u64) -> u64 {
        let mut acc = seed;
        for i in 0..rounds {
            acc = acc.rotate_left(5) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        acc
    }

    #[test]
    fn map_mut_keeps_input_order_with_a_heavy_first_item() {
        // Item 0 costs 100x the rest, and there are more items than
        // threads: the worker holding item 0 falls behind while the others
        // take every later ticket, yet results still come back in order.
        let mut items: Vec<u64> = (0..40).collect();
        let expected: Vec<(usize, u64)> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| (i, spin(if i == 0 { 200_000 } else { 2_000 }, x)))
            .collect();
        let out = parallel_map_mut(&mut items, 3, |i, x| {
            (i, spin(if i == 0 { 200_000 } else { 2_000 }, *x))
        });
        assert_eq!(out, expected);
    }
}
