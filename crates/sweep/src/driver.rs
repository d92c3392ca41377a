//! The sharded fan-out: scoped worker threads pulling cells off a shared
//! atomic cursor.
//!
//! Design constraints: the offline build has no rayon/crossbeam, so the
//! driver is plain `std::thread::scope` (structured — workers cannot
//! outlive the call); cells are claimed one at a time from an
//! `AtomicUsize`, so a slow cell (say, a worst-case `n = 10⁶` cover run)
//! never stalls the other workers behind a static partition; and each
//! worker buffers `(index, result)` pairs locally, so the hot path takes
//! no locks and the output order is *always* the input cell order,
//! whatever the thread interleaving was.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The default worker-thread count: the machine's available parallelism
/// (1 if that cannot be determined).
pub fn thread_count() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f(index, &cells[index])` for every cell, fanned across `threads`
/// scoped worker threads, and returns the results **in cell order**.
///
/// `f` must be pure in the cell (no dependence on thread identity or
/// execution order) for the output to be reproducible; all the runners in
/// this crate derive their randomness from the cell seed, so re-running
/// with a different thread count produces identical results.
///
/// # Panics
///
/// Panics if `threads == 0`, or if `f` panicked on any cell (the sweep
/// still runs every other cell to completion first — see
/// [`run_sharded_checked`], of which this is the propagate-everything
/// wrapper).
pub fn run_sharded<C, R, F>(cells: &[C], threads: usize, f: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(usize, &C) -> R + Sync,
{
    run_sharded_checked(cells, threads, f)
        .into_iter()
        .enumerate()
        .map(|(i, r)| match r {
            Ok(r) => r,
            Err(msg) => panic!("sweep cell {i} panicked: {msg}"),
        })
        .collect()
}

/// [`run_sharded`] with per-cell panic containment: each invocation of `f`
/// runs under [`std::panic::catch_unwind`], so one poisoned cell reports
/// as an `Err` (carrying the panic message) in its slot instead of killing
/// the whole sweep — the other cells' results survive. Results are in cell
/// order, like [`run_sharded`].
///
/// The `AssertUnwindSafe` is sound here because a panicking `f` can leak
/// no broken state into later cells: `f` is `Fn` (shared reference only)
/// and every cell's result is written exactly once from the cell that
/// computed it.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn run_sharded_checked<C, R, F>(cells: &[C], threads: usize, f: F) -> Vec<Result<R, String>>
where
    C: Sync,
    R: Send,
    F: Fn(usize, &C) -> R + Sync,
{
    assert!(threads > 0, "need at least one worker thread");
    let workers = threads.min(cells.len()).max(1);
    let cursor = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, Result<R, String>)> = Vec::with_capacity(cells.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| {
                let mut local: Vec<(usize, Result<R, String>)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= cells.len() {
                        break;
                    }
                    let cell = &cells[i];
                    let result =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, cell)))
                            .map_err(|payload| {
                                payload
                                    .downcast_ref::<String>()
                                    .map(String::as_str)
                                    .or_else(|| payload.downcast_ref::<&str>().copied())
                                    .unwrap_or("non-string panic payload")
                                    .to_owned()
                            });
                    local.push((i, result));
                }
                local
            }));
        }
        for h in handles {
            tagged.extend(h.join().expect("sweep worker died outside a cell"));
        }
    });
    debug_assert_eq!(tagged.len(), cells.len());
    // Restore input order: indices are a permutation of 0..len.
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_in_cell_order_any_thread_count() {
        let cells: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = cells.iter().map(|c| c * c).collect();
        for threads in [1, 2, 3, 8, 200] {
            let got = run_sharded(&cells, threads, |_, &c| c * c);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn empty_cell_list() {
        let got: Vec<u32> = run_sharded(&[] as &[u32], 4, |_, &c| c);
        assert!(got.is_empty());
    }

    #[test]
    fn index_matches_cell() {
        let cells: Vec<usize> = (0..50).collect();
        let got = run_sharded(&cells, 4, |i, &c| (i, c));
        assert!(got.iter().all(|&(i, c)| i == c));
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let cells: Vec<u8> = vec![0; 64];
        run_sharded(&cells, 7, |_, _| {
            RUNS.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(RUNS.load(Ordering::Relaxed), 64);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        run_sharded(&[1u8], 0, |_, &c| c);
    }

    #[test]
    fn checked_contains_panics_per_cell() {
        let cells: Vec<u32> = (0..20).collect();
        let results = run_sharded_checked(&cells, 4, |_, &c| {
            assert!(c % 7 != 3, "poisoned cell {c}");
            c * 2
        });
        assert_eq!(results.len(), cells.len());
        for (i, r) in results.iter().enumerate() {
            if i % 7 == 3 {
                let msg = r.as_ref().expect_err("cell poisoned");
                assert!(msg.contains("poisoned cell"), "{msg}");
            } else {
                assert_eq!(*r.as_ref().expect("healthy cell"), 2 * i as u32);
            }
        }
    }

    #[test]
    #[should_panic(expected = "sweep cell 3 panicked")]
    fn unchecked_propagates_the_first_poisoned_cell() {
        let cells: Vec<u32> = (0..8).collect();
        run_sharded(&cells, 2, |_, &c| {
            assert!(c != 3, "boom");
            c
        });
    }
}
