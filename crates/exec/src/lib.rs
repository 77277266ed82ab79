//! Deterministic host-parallel execution for the EdgeMM workspace.
//!
//! Every simulation in this workspace is a pure function of its inputs, so
//! host parallelism must never be able to change a result — only how fast it
//! arrives. This crate provides the one sanctioned way to use more than one
//! host core:
//!
//! * [`Pool`] — a thread-count policy. The pool owns no threads between
//!   calls; workers live exactly as long as the call that spawned them (a
//!   [`std::thread::scope`]), so there is no global state, no shutdown
//!   ordering, and nothing to leak across tests.
//! * [`Pool::par_map`] — maps a function over a slice and returns the
//!   results **in input order, regardless of completion order**. Workers
//!   pull indices from a shared atomic counter, tag each result with the
//!   index it came from, and the caller reassembles the output by index.
//!   Panics are captured per item and re-raised after every worker has
//!   drained; when several items panic, the one with the **smallest input
//!   index** wins, so the observed failure is the same one a serial run
//!   would hit first. A `par_map` may run inside another's worker.
//!
//! # Determinism argument
//!
//! `par_map(items, f)` computes exactly the multiset `{ f(i, &items[i]) }`
//! that the serial loop computes: `f` receives the same `(index, item)`
//! pairs, and the output vector is ordered by `index`, not by completion
//! time. As long as `f` itself is a pure function of its arguments (the
//! workspace simulators are — wall-clock and randomized hashing are banned
//! by `edgemm-lint`), the result is byte-identical to the serial run for
//! every thread count. The only shared mutation is the work-stealing index
//! counter, which decides *who* computes an item, never *what* is computed.
//!
//! # Thread-count policy
//!
//! [`Pool::from_env`] reads the `EDGEMM_THREADS` environment variable:
//! unset, unparsable, or `0` means [`std::thread::available_parallelism`];
//! `1` selects a strict serial fallback that **never spawns a thread**
//! (every closure runs inline on the caller's stack); `N >= 2` spawns up to
//! `N` workers per call.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// The thread count [`Pool::from_env`] resolves to: `EDGEMM_THREADS` if set
/// to a positive integer, otherwise [`std::thread::available_parallelism`].
fn threads_from_env() -> usize {
    match std::env::var("EDGEMM_THREADS") {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => host_parallelism(),
        },
        Err(_) => host_parallelism(),
    }
}

/// The host's available parallelism (`1` if it cannot be determined).
pub fn host_parallelism() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// A scoped thread pool with a fixed target thread count.
///
/// The pool is just a thread-count policy: threads are spawned inside each
/// [`Pool::par_map`] call and joined before it returns. A pool with
/// `threads() == 1` is a strict serial executor that never spawns — useful
/// both as the `EDGEMM_THREADS=1` determinism baseline and for nesting
/// (inner work can run serially inside outer workers).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool sized from the `EDGEMM_THREADS` policy (see crate docs).
    pub fn from_env() -> Self {
        Self {
            threads: threads_from_env(),
        }
    }

    /// A strict serial pool: every closure runs inline, no thread is ever
    /// spawned.
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// A pool targeting exactly `threads` workers (`0` is clamped to `1`).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this pool runs everything inline on the caller's thread.
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// Maps `f(index, &items[index])` over `items`, returning results in
    /// input order regardless of which worker finished first.
    ///
    /// At most `min(self.threads(), items.len())` workers are spawned; with
    /// one worker (or one item) the map runs inline without spawning.
    ///
    /// # Panics
    ///
    /// If any `f` call panics, the panic is re-raised on the caller's
    /// thread after all workers drain. When several items panic, the
    /// payload of the **smallest input index** is the one re-raised — the
    /// same failure a serial run observes first.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return items
                .iter()
                .enumerate()
                .map(|(index, item)| f(index, item))
                .collect();
        }

        // Work-stealing index counter: decides only *who* computes an item.
        let next = AtomicUsize::new(0);
        let worker = || {
            let mut chunk: Vec<(usize, thread::Result<R>)> = Vec::new();
            loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= n {
                    break;
                }
                let outcome = catch_unwind(AssertUnwindSafe(|| f(index, &items[index])));
                chunk.push((index, outcome));
            }
            chunk
        };

        let mut slots: Vec<Option<thread::Result<R>>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            for handle in handles {
                let chunk = match handle.join() {
                    Ok(chunk) => chunk,
                    // `f` panics are caught inside the worker, so a failed
                    // join means the worker loop itself died; re-raise.
                    Err(payload) => resume_unwind(payload),
                };
                for (index, outcome) in chunk {
                    slots[index] = Some(outcome);
                }
            }
        });

        let mut results = Vec::with_capacity(n);
        let mut first_panic: Option<Box<dyn Any + Send>> = None;
        for (index, slot) in slots.into_iter().enumerate() {
            match slot {
                Some(Ok(result)) => results.push(result),
                Some(Err(payload)) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
                // The counter hands out each index exactly once and every
                // claimed index is recorded, so an empty slot is impossible.
                None => panic!("par_map: item {index} was never executed"),
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;
    use std::time::Duration;

    fn square(i: usize, x: &u64) -> u64 {
        let _ = i;
        x * x
    }

    #[test]
    fn par_map_on_empty_input_returns_empty() {
        let items: [u64; 0] = [];
        assert!(Pool::serial().par_map(&items, square).is_empty());
        assert!(Pool::with_threads(4).par_map(&items, square).is_empty());
    }

    #[test]
    fn par_map_matches_the_serial_map() {
        let items: Vec<u64> = (0..97).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 4, 16, 200] {
            assert_eq!(Pool::with_threads(threads).par_map(&items, square), serial);
        }
    }

    #[test]
    fn results_come_back_in_input_order_under_adversarial_delays() {
        // Later items finish first: item i sleeps (n - i) ms, so completion
        // order is the exact reverse of input order.
        let items: Vec<u64> = (0..24).collect();
        let n = items.len() as u64;
        let out = Pool::with_threads(8).par_map(&items, |i, x| {
            thread::sleep(Duration::from_millis(n - i as u64));
            *x * 10
        });
        let expected: Vec<u64> = items.iter().map(|x| x * 10).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn the_smallest_index_panic_wins() {
        // Index 5 panics immediately; index 2 panics late. The re-raised
        // payload must still be index 2's — smallest input index, not first
        // to fail.
        let items: Vec<u64> = (0..8).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            Pool::with_threads(4).par_map(&items, |i, _x| {
                if i == 2 {
                    thread::sleep(Duration::from_millis(50));
                    panic!("boom at item 2");
                }
                if i == 5 {
                    panic!("boom at item 5");
                }
                i
            })
        }));
        let payload = match result {
            Err(payload) => payload,
            Ok(_) => panic!("par_map should have panicked"),
        };
        let message = match payload.downcast_ref::<&str>() {
            Some(message) => (*message).to_string(),
            None => panic!("payload should be the original panic message"),
        };
        assert_eq!(message, "boom at item 2");
    }

    #[test]
    #[should_panic(expected = "single failure propagates")]
    fn a_single_panic_propagates_with_its_payload() {
        let items: Vec<u64> = (0..4).collect();
        Pool::with_threads(2).par_map(&items, |i, _x| {
            if i == 3 {
                panic!("single failure propagates");
            }
            i
        });
    }

    #[test]
    fn a_serial_pool_never_spawns() {
        let main_id = thread::current().id();
        let items: Vec<u64> = (0..16).collect();
        let ids: Vec<ThreadId> = Pool::serial().par_map(&items, |_, _| thread::current().id());
        assert!(ids.iter().all(|id| *id == main_id));
    }

    #[test]
    fn a_parallel_pool_runs_items_off_the_caller_thread() {
        let main_id = thread::current().id();
        let items: Vec<u64> = (0..16).collect();
        let ids = Pool::with_threads(4).par_map(&items, |_, _| thread::current().id());
        // Workers are always spawned threads; the caller only merges.
        assert!(ids.iter().all(|id| *id != main_id));
    }

    #[test]
    fn nested_par_map_composes() {
        // A `par_map` inside a `par_map` worker: each outer item maps its
        // own inner slice on the same pool, and both levels come back in
        // input order.
        let pool = Pool::with_threads(3);
        let outer: Vec<u64> = (0..4).collect();
        let inner: Vec<u64> = (0..10).collect();
        let nested = pool.par_map(&outer, |_, &o| pool.par_map(&inner, |_, &i| o * 100 + i));
        let expected: Vec<Vec<u64>> = outer
            .iter()
            .map(|&o| inner.iter().map(|&i| o * 100 + i).collect())
            .collect();
        assert_eq!(nested, expected);
    }

    #[test]
    fn with_threads_clamps_zero_to_one() {
        assert_eq!(Pool::with_threads(0).threads(), 1);
        assert!(Pool::with_threads(0).is_serial());
        assert!(!Pool::with_threads(2).is_serial());
    }

    #[test]
    fn env_override_controls_from_env() {
        // Sole test that touches the env var, so no cross-test race.
        std::env::set_var("EDGEMM_THREADS", "3");
        assert_eq!(Pool::from_env().threads(), 3);
        std::env::set_var("EDGEMM_THREADS", "1");
        assert!(Pool::from_env().is_serial());
        std::env::set_var("EDGEMM_THREADS", "not-a-number");
        assert!(Pool::from_env().threads() >= 1);
        std::env::set_var("EDGEMM_THREADS", "0");
        assert!(Pool::from_env().threads() >= 1);
        std::env::remove_var("EDGEMM_THREADS");
        assert!(Pool::from_env().threads() >= 1);
        assert_eq!(Pool::from_env().threads(), host_parallelism());
    }
}
