//! Dependency-free scoped-thread parallelism helpers.
//!
//! The batched routing engine (`brsmn-core::engine`) exploits the
//! frame-level parallelism the BRSMN has by construction: distinct
//! multicast assignments ("frames") are completely independent, so a batch
//! can be spread across a worker pool ([`par_map`]).
//!
//! Everything here is built on [`std::thread::scope`] — no external thread
//! pool. Workers pull indices from a shared atomic counter, so load balances
//! dynamically, while results are reassembled by index so output order is
//! **deterministic** regardless of scheduling.

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Resolves a requested worker count: `0` means "one per hardware thread",
/// any other value is used as given (minimum 1).
pub fn effective_workers(requested: usize) -> usize {
    resolve_workers(
        requested,
        thread::available_parallelism().ok().map(|p| p.get()),
    )
}

/// Pure core of [`effective_workers`], taking the detected hardware
/// parallelism explicitly so restricted environments can be simulated in
/// tests. `requested == 0` falls back to `detected`; a failed (`None`) or
/// degenerate (`Some(0)`) detection clamps to 1 worker — never an empty
/// pool.
pub fn resolve_workers(requested: usize, detected: Option<usize>) -> usize {
    if requested == 0 {
        detected.unwrap_or(1).max(1)
    } else {
        requested
    }
}

/// Maps `f` over `items` on `workers` scoped threads, returning results in
/// input order.
///
/// Work distribution is dynamic (a shared atomic cursor), so uneven frames
/// do not leave workers idle; the output vector is reassembled by index, so
/// the result is identical to `items.iter().enumerate().map(f).collect()`
/// regardless of thread scheduling. `workers` is resolved through
/// [`effective_workers`] and capped at `items.len()`; with a single worker
/// (or a single item) no threads are spawned at all.
///
/// ```
/// let squares = brsmn_rbn::par::par_map(&[1u64, 2, 3, 4], 2, |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, U, F>(items: &[T], workers: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let workers = effective_workers(workers).min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, U)>> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| panic::resume_unwind(e)))
            .collect()
    });

    let mut out: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    for chunk in per_worker {
        for (i, u) in chunk {
            debug_assert!(out[i].is_none(), "index {i} produced twice");
            out[i] = Some(u);
        }
    }
    out.into_iter()
        .map(|slot| slot.expect("every index visited exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        for workers in [1, 2, 4, 7] {
            let out = par_map(&items, workers, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_unbalanced_load() {
        // Make early items much heavier than late ones; order must hold.
        let items: Vec<usize> = (0..64).collect();
        let out = par_map(&items, 4, |_, &x| {
            let spin = if x < 4 { 20_000 } else { 10 };
            let mut acc = x as u64;
            for i in 0..spin {
                acc = acc.wrapping_mul(31).wrapping_add(i);
            }
            (x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(i, *x);
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(par_map(&[9u32], 4, |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn effective_workers_resolution() {
        assert!(effective_workers(0) >= 1);
        assert_eq!(effective_workers(3), 3);
        assert_eq!(effective_workers(1), 1);
    }

    #[test]
    fn resolve_workers_clamps_restricted_environments() {
        // Detection failed entirely (e.g. sandboxed cgroup with no CPU info).
        assert_eq!(resolve_workers(0, None), 1);
        // Detection "succeeded" but reported zero CPUs.
        assert_eq!(resolve_workers(0, Some(0)), 1);
        // Normal detection passes through.
        assert_eq!(resolve_workers(0, Some(8)), 8);
        // Explicit requests are never overridden by detection.
        assert_eq!(resolve_workers(3, None), 3);
        assert_eq!(resolve_workers(3, Some(16)), 3);
    }

    #[test]
    fn par_map_with_zero_workers_in_restricted_mock() {
        // Regression: a batch must still complete when auto-detection would
        // resolve to the 1-worker floor.
        let workers = resolve_workers(0, Some(0));
        let items: Vec<usize> = (0..16).collect();
        let out = par_map(&items, workers, |_, &x| x + 1);
        assert_eq!(out, (1..17).collect::<Vec<_>>());
    }
}
