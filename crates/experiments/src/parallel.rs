//! Deterministic parallel driver for the experiment sweeps.
//!
//! Every experiment in this crate is embarrassingly parallel — thousands
//! of independent benchmark instances (or grid points) whose results are
//! folded into summary rows. The contract here is **bit-determinism**:
//! the output of a sweep is a pure function of its configuration,
//! independent of the worker count and of OS scheduling. Two mechanisms
//! deliver it:
//!
//! 1. [`parallel_map`] hands workers instance *indices* (dynamic
//!    load-balancing over an atomic counter) and sorts the results by
//!    index, so the assembled output vector is the same at any thread
//!    count — including 1, which doesn't spawn at all.
//! 2. [`instance_seed`] derives every instance's RNG stream from
//!    `(base seed, task count, instance index)` instead of threading one
//!    sequential stream through the sweep, so instance `k` generates the
//!    same benchmark no matter which worker runs it, or when.
//!
//! No external dependencies: plain `std::thread::scope`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Number of workers to use by default: the host's available
/// parallelism, or 1 if it cannot be determined.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `job(index)` for every index in `0..count` across up to
/// `threads` workers and returns the results in index order.
///
/// `threads == 0` selects [`available_threads`]. The result is
/// bit-identical at every thread count as long as `job` is a pure
/// function of its index (instances must not share mutable state —
/// derive per-instance RNGs with [`instance_seed`]).
///
/// # Panics
///
/// Panics when `job` panics in any worker (the scope join re-raises;
/// single-threaded runs propagate the original payload directly).
///
/// # Examples
///
/// ```
/// use csa_experiments::parallel_map;
///
/// let serial = parallel_map(100, 1, |i| i * i);
/// let threaded = parallel_map(100, 4, |i| i * i);
/// assert_eq!(serial, threaded);
/// assert_eq!(serial[7], 49);
/// ```
pub fn parallel_map<T, F>(count: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = if threads == 0 {
        available_threads()
    } else {
        threads
    }
    .min(count.max(1));
    if threads <= 1 {
        return (0..count).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(count));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let result = job(i);
                // The lock is held only to push, which leaves the vector
                // valid, so a poisoned lock still holds good results.
                done.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push((i, result));
            });
        }
    });
    let mut results = done.into_inner().unwrap_or_else(PoisonError::into_inner);
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, result)| result).collect()
}

/// Best-effort extraction of a panic payload's message (the `&str` or
/// `String` forms `panic!` produces); anything else is reported opaquely.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `job` once, catching a panic as `Err` carrying its message: the
/// one containment under [`parallel_map_catching`]'s slots and the
/// `csa-monitor` engine's per-request assessment (DESIGN.md §14), which
/// reports the `Err` as a quarantine with the request's replay seed.
///
/// # Examples
///
/// ```
/// use csa_experiments::catch_panic;
///
/// assert_eq!(catch_panic(|| 7), Ok(7));
/// let caught = catch_panic(|| -> u8 { panic!("bad instance") });
/// assert_eq!(caught.unwrap_err(), "bad instance");
/// ```
pub fn catch_panic<T>(job: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(job))
        .map_err(|payload| panic_message(payload.as_ref()))
}

/// [`parallel_map`] with per-index panic isolation: a worker panic is
/// caught by [`catch_panic`] and stored as that index's `Err` (carrying
/// the panic message) instead of poisoning the whole scope — one
/// pathological instance can no longer kill a multi-hour sweep. Every
/// other index still completes, and the ordering/determinism contract of
/// [`parallel_map`] is unchanged.
///
/// The sweep orchestrator (`orchestrate.rs`) routes every shard through
/// this variant and records `Err` slots as quarantined instances with
/// their replay seeds (DESIGN.md §11) — the `Err` payload is the panic
/// message alone, so callers needing replay coordinates must derive
/// them from the index.
///
/// # Examples
///
/// ```
/// use csa_experiments::parallel_map_catching;
///
/// let out = parallel_map_catching(4, 2, |i| {
///     if i == 2 { panic!("bad instance"); }
///     i * 10
/// });
/// assert_eq!(out[0], Ok(0));
/// assert_eq!(out[3], Ok(30));
/// assert_eq!(out[2].as_ref().unwrap_err(), "bad instance");
/// ```
pub fn parallel_map_catching<T, F>(count: usize, threads: usize, job: F) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map(count, threads, |i| catch_panic(|| job(i)))
}

/// Derives the RNG seed of one benchmark instance from the sweep's base
/// seed, the task count `n`, and the instance index.
///
/// The task count enters as `base_seed ^ ((n as u64) << 32)` — the
/// (now explicitly parenthesized) per-`n` derivation the drivers used
/// historically — and the instance index is then mixed through a
/// SplitMix64 finalizer so that the streams of neighbouring instances
/// are decorrelated. Every experiment driver in this crate derives its
/// per-instance generators through this one helper, which is what makes
/// sharding instances across workers seed-stable.
///
/// # Examples
///
/// ```
/// use csa_experiments::instance_seed;
///
/// // Pure and collision-averse in every argument.
/// assert_eq!(instance_seed(2017, 8, 42), instance_seed(2017, 8, 42));
/// assert_ne!(instance_seed(2017, 8, 42), instance_seed(2017, 8, 43));
/// assert_ne!(instance_seed(2017, 8, 42), instance_seed(2017, 4, 42));
/// assert_ne!(instance_seed(2017, 8, 42), instance_seed(2018, 8, 42));
/// ```
pub fn instance_seed(base_seed: u64, n: usize, instance_index: usize) -> u64 {
    let mut z = (base_seed ^ ((n as u64) << 32))
        .wrapping_add((instance_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // SplitMix64 finalizer (Steele, Lea & Flood 2014).
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn map_results_are_in_index_order_at_any_thread_count() {
        let expected: Vec<usize> = (0..257).map(|i| i * 3 + 1).collect();
        for threads in [1, 2, 3, 4, 16] {
            assert_eq!(
                parallel_map(257, threads, |i| i * 3 + 1),
                expected,
                "threads = {threads}"
            );
        }
        // threads = 0 selects available parallelism.
        assert_eq!(parallel_map(257, 0, |i| i * 3 + 1), expected);
    }

    #[test]
    fn map_handles_empty_and_tiny_inputs() {
        assert_eq!(parallel_map(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(1, 8, |i| i + 9), vec![9]);
    }

    #[test]
    fn seeds_are_unique_across_a_sweep() {
        let mut seen = BTreeSet::new();
        for n in [4usize, 8, 12, 16, 20] {
            for k in 0..10_000 {
                seen.insert(instance_seed(2017, n, k));
            }
        }
        assert_eq!(seen.len(), 5 * 10_000, "seed collision inside a sweep");
    }

    #[test]
    fn catching_map_isolates_panics_per_index() {
        for threads in [1, 4] {
            let out = parallel_map_catching(8, threads, |i| {
                if i % 3 == 2 {
                    panic!("boom {i}");
                }
                i + 100
            });
            for (i, slot) in out.iter().enumerate() {
                if i % 3 == 2 {
                    assert_eq!(slot.as_ref().unwrap_err(), &format!("boom {i}"));
                } else {
                    assert_eq!(slot.as_ref().unwrap(), &(i + 100));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panics_propagate() {
        let _ = parallel_map(8, 4, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}
