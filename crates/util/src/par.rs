//! Minimal parallel sweep runner.
//!
//! The experiment harness evaluates hundreds of independent (tree, workload,
//! algorithm, parameter) cells. Each cell is pure CPU work with no shared
//! mutable state, so the classic pattern from *Rust Atomics and Locks*
//! applies: spawn scoped threads (`std::thread::scope`), hand out work
//! items through a single `AtomicUsize` ticket counter (self-balancing —
//! fast cells simply grab more tickets), and collect results into
//! pre-sized slots guarded by a `Mutex` only at the cheap hand-back
//! moment.
//!
//! We deliberately do not pull in a full work-stealing runtime: the sweep
//! granularity is coarse (milliseconds to seconds per cell), so a ticket
//! counter achieves the same utilisation with a fraction of the machinery.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item on `threads` worker threads and returns the
/// results in input order.
///
/// Falls back to a plain sequential map when `threads <= 1` or the input has
/// at most one element, so callers never pay thread spawn cost for trivial
/// sweeps.
///
/// # Panics
/// Propagates panics from `f` (the scope joins all workers first).
fn parallel_map_threads<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let n = items.len();
    let next = AtomicUsize::new(0);
    // Result slots, filled exactly once each; Mutex<Vec<Option<R>>> keeps the
    // code safe-and-simple — contention is negligible because workers hold
    // the lock only to move a finished result into its slot.
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let items_ref = &items;
    let f_ref = &f;
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f_ref(&items_ref[i]);
                results.lock().expect("sweep worker panicked")[i] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .expect("sweep worker panicked")
        .into_iter()
        .map(|slot| slot.expect("every ticket produces a result"))
        .collect()
}

/// Applies `f` to every item **in place** on `threads` worker threads and
/// returns the results in input order. The mutable sibling of
/// [`parallel_map`]: each worker owns a contiguous chunk of the
/// slice, so `f` gets `(index, &mut T)` with no locking on the items
/// themselves (results are handed back through a mutex exactly once per
/// item).
///
/// This is the execution primitive of the sharded engine
/// (`otc-sim::engine`): shards are independent `&mut` states driven in
/// parallel during batch ingestion. Static chunking (not a ticket counter)
/// keeps the item count's worth of spawns down — shard counts are small
/// and per-shard work is balanced by construction.
///
/// Falls back to a plain sequential loop when `threads <= 1` or the input
/// has at most one element.
///
/// # Panics
/// Propagates panics from `f` (the scope joins all workers first).
pub fn parallel_map_mut<T, R, F>(items: &mut [T], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = n.div_ceil(threads.min(n));
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let f_ref = &f;
    let results_ref = &results;
    std::thread::scope(|scope| {
        for (w, slice) in items.chunks_mut(chunk).enumerate() {
            scope.spawn(move || {
                for (off, item) in slice.iter_mut().enumerate() {
                    let i = w * chunk + off;
                    let r = f_ref(i, item);
                    results_ref.lock().expect("parallel worker panicked")[i] = Some(r);
                }
            });
        }
    });
    results
        .into_inner()
        .expect("parallel worker panicked")
        .into_iter()
        .map(|slot| slot.expect("every item produces a result"))
        .collect()
}

/// Applies `f` to every item on `available_parallelism()` worker threads
/// and returns the results in input order. Work is handed out one item at
/// a time through an atomic ticket counter, so uneven items balance
/// themselves; a single item or a single-CPU host runs sequentially.
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
        let ra = parallel_map_mut(&mut a, 1, |i, x| *x + i as u64);
        let rb = parallel_map_mut(&mut b, 8, |i, x| *x + i as u64);
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
}
