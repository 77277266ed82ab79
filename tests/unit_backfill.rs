//! Direct workspace-level unit tests for two substrate contracts:
//!
//! * `edgemm-event`: same-cycle FIFO pop order holds under *interleaved*
//!   push/pop — the event queue's seq counter never resets mid-stream, so
//!   draining due events and scheduling follow-ups at the same cycle stays
//!   deterministic. No engine uses the queue; the repository benchmark
//!   still times it.
//! * `edgemm-exec`: `Pool::par_map` captures per-item panics and re-raises
//!   the **smallest-index** payload, regardless of which worker failed
//!   first — the guarantee that makes parallel-sweep failures reproducible
//!   under any thread count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;
use std::time::Duration;

use edgemm::units::Cycles;
use edgemm_event::EventQueue;
use edgemm_exec::Pool;

#[test]
fn event_queue_same_cycle_fifo_holds_under_interleaved_push_pop() {
    let mut queue = EventQueue::new();
    let mut popped = Vec::new();
    // Round 1: two ties at cycle 40, drain one.
    queue.push(Cycles::new(40), "a");
    queue.push(Cycles::new(40), "b");
    popped.extend(queue.pop());
    // Round 2: more ties at the same cycle, plus an earlier straggler.
    queue.push(Cycles::new(40), "c");
    queue.push(Cycles::new(10), "straggler");
    popped.extend(queue.pop());
    popped.extend(queue.pop());
    // Round 3: a final same-cycle push after two more pops.
    queue.push(Cycles::new(40), "d");
    popped.extend(std::iter::from_fn(|| queue.pop()));
    let order: Vec<&str> = popped.iter().map(|&(_, e)| e).collect();
    // The straggler's earlier cycle wins over all pending ties the moment
    // it is queued; within cycle 40 the push order a, b, c, d is exact.
    assert_eq!(order, ["a", "straggler", "b", "c", "d"]);
}

#[test]
fn event_queue_pop_due_interleaves_with_reschedules_at_one_cycle() {
    // Pop a due event, push its follow-up at the very same cycle, and
    // expect the follow-up to pop after everything that was already queued
    // there.
    let mut queue = EventQueue::new();
    queue.push(Cycles::new(5), 0);
    queue.push(Cycles::new(5), 1);
    let first = queue.pop_due(Cycles::new(5));
    assert_eq!(first, Some((Cycles::new(5), 0)));
    queue.push(Cycles::new(5), 2);
    assert_eq!(queue.pop_due(Cycles::new(5)), Some((Cycles::new(5), 1)));
    assert_eq!(queue.pop_due(Cycles::new(5)), Some((Cycles::new(5), 2)));
    assert_eq!(queue.pop_due(Cycles::new(5)), None);
}

#[test]
fn par_map_re_raises_the_smallest_index_panic_across_thread_counts() {
    // Index 6 fails instantly on some worker; index 1 fails only after a
    // delay. Whatever the interleaving, the surfaced payload must be index
    // 1's — the same failure a serial run would hit first.
    for threads in [1, 2, 4, 8] {
        let items: Vec<u64> = (0..12).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            Pool::with_threads(threads).par_map(&items, |i, _x| {
                if i == 1 {
                    thread::sleep(Duration::from_millis(30));
                    panic!("first-index failure");
                }
                if i == 6 {
                    panic!("later-index failure");
                }
                i
            })
        }));
        let payload = match result {
            Err(payload) => payload,
            Ok(_) => panic!("par_map must re-raise with {threads} threads"),
        };
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("payload is the original message");
        assert_eq!(
            message, "first-index failure",
            "smallest index wins at {threads} threads"
        );
    }
}

#[test]
fn par_map_panic_capture_does_not_poison_the_pool() {
    // After a captured panic the same pool must keep working: capture is
    // per-call, not a one-way latch.
    let pool = Pool::with_threads(4);
    let items: Vec<u64> = (0..8).collect();
    let failed = catch_unwind(AssertUnwindSafe(|| {
        pool.par_map(&items, |i, _x| {
            if i == 3 {
                panic!("one-off failure");
            }
            i
        })
    }));
    assert!(failed.is_err());
    let ok = pool.par_map(&items, |_, x| x * 2);
    let expected: Vec<u64> = items.iter().map(|x| x * 2).collect();
    assert_eq!(ok, expected);
}
