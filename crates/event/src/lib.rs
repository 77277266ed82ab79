//! Deterministic discrete-event core for the serving simulator.
//!
//! The serve loop used to find "what happens next" by min-scanning every
//! queue it owns (`order`, `cc_queue`, the decode batch) on every
//! iteration. This crate replaces those scans with [`EventQueue`]: a
//! binary min-heap of `(Cycles, seq, E)` entries. `seq` is a per-queue
//! insertion counter, so two events scheduled for the same cycle pop in
//! the order they were pushed. That makes the pop order a pure function of
//! the push sequence — the property the differential harness in
//! `tests/properties.rs` pins against the reference engine.
//!
//! The serve engine keeps only its pending arrivals here. Its at most one
//! chunk completion and one step completion live in two slots beside the
//! queue, so the heap holds no more than the trace's arrivals and a
//! completion never pays a push or a pop.
//!
//! The queue deliberately knows nothing about what an event *is*: `E` needs
//! no `Ord`, no `Hash`, nothing. Ordering lives entirely in the
//! `(cycle, seq)` key, which keeps the heap's behaviour independent of the
//! payload and therefore stable under refactors of the payload type.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use edgemm_core::units::Cycles;

/// One scheduled entry: the key is `(cycle, seq)`, the payload is opaque.
#[derive(Debug)]
struct Entry<E> {
    cycle: Cycles,
    seq: u64,
    event: E,
}

// Ordering is on the key only — the payload never participates, so `E`
// needs no trait bounds and equal-keyed entries are impossible (`seq` is
// unique per queue).
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.cycle, self.seq) == (other.cycle, other.seq)
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // (cycle, seq) on top.
        (other.cycle, other.seq).cmp(&(self.cycle, self.seq))
    }
}

/// A binary-heap event queue with deterministic same-cycle ordering.
///
/// Events pushed for the same cycle pop in push order (FIFO within a
/// cycle); events for different cycles pop earliest-first. There is no
/// cancellation: the serve engine pushes only arrivals, which are never
/// retracted.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at `cycle`. Ties at the same cycle pop in push
    /// order.
    pub fn push(&mut self, cycle: Cycles, event: E) {
        let entry = Entry {
            cycle,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        self.heap.push(entry);
    }

    /// Room for at least `additional` more events without reallocating.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// The cycle of the next event, if any.
    pub fn next_cycle(&self) -> Option<Cycles> {
        self.heap.peek().map(|entry| entry.cycle)
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        self.heap.pop().map(|entry| (entry.cycle, entry.event))
    }

    /// Pops the earliest event if it is due at or before `cycle`.
    pub fn pop_due(&mut self, cycle: Cycles) -> Option<(Cycles, E)> {
        if self.next_cycle()? <= cycle {
            self.pop()
        } else {
            None
        }
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue holds no events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every scheduled event and resets the insertion counter,
    /// keeping the heap's allocation. A cleared queue schedules and pops
    /// exactly like a freshly constructed one, which is what lets the
    /// serve engine reuse one queue across simulations without affecting
    /// results.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_earliest_first() {
        let mut queue = EventQueue::new();
        queue.push(Cycles::new(30), "late");
        queue.push(Cycles::new(10), "early");
        queue.push(Cycles::new(20), "middle");
        assert_eq!(queue.next_cycle(), Some(Cycles::new(10)));
        assert_eq!(queue.pop(), Some((Cycles::new(10), "early")));
        assert_eq!(queue.pop(), Some((Cycles::new(20), "middle")));
        assert_eq!(queue.pop(), Some((Cycles::new(30), "late")));
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn same_cycle_ties_pop_in_push_order() {
        let mut queue = EventQueue::new();
        for label in ["a", "b", "c", "d"] {
            queue.push(Cycles::new(7), label);
        }
        let order: Vec<_> = std::iter::from_fn(|| queue.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "c", "d"]);
    }

    #[test]
    fn interleaved_pushes_keep_fifo_within_each_cycle() {
        let mut queue = EventQueue::new();
        queue.push(Cycles::new(2), 20);
        queue.push(Cycles::new(1), 10);
        queue.push(Cycles::new(2), 21);
        queue.push(Cycles::new(1), 11);
        let order: Vec<_> = std::iter::from_fn(|| queue.pop()).collect();
        assert_eq!(
            order,
            [
                (Cycles::new(1), 10),
                (Cycles::new(1), 11),
                (Cycles::new(2), 20),
                (Cycles::new(2), 21)
            ]
        );
    }

    #[test]
    fn same_cycle_fifo_survives_interleaved_push_and_pop() {
        // Pops interleaved with pushes at one cycle must not disturb the
        // FIFO tie order: the seq counter never resets mid-stream, so an
        // event pushed after a pop still sorts behind everything pushed
        // before it. This is what lets a caller drain a few due events,
        // schedule follow-ups at the same cycle, and keep a deterministic
        // order — the fleet gateway's arrival/completion interleaving
        // leans on exactly this.
        let mut queue = EventQueue::new();
        queue.push(Cycles::new(7), "a");
        queue.push(Cycles::new(7), "b");
        assert_eq!(queue.pop(), Some((Cycles::new(7), "a")));
        queue.push(Cycles::new(7), "c");
        queue.push(Cycles::new(7), "d");
        assert_eq!(queue.pop(), Some((Cycles::new(7), "b")));
        queue.push(Cycles::new(7), "e");
        let rest: Vec<_> = std::iter::from_fn(|| queue.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, ["c", "d", "e"]);
    }

    #[test]
    fn interleaved_push_pop_keeps_earlier_cycles_ahead_of_later_ties() {
        // A push at an earlier cycle made *after* same-cycle events were
        // pushed (and some popped) still pops first: cycle dominates seq.
        let mut queue = EventQueue::new();
        queue.push(Cycles::new(5), "tie-1");
        queue.push(Cycles::new(5), "tie-2");
        assert_eq!(queue.pop(), Some((Cycles::new(5), "tie-1")));
        queue.push(Cycles::new(3), "earlier");
        queue.push(Cycles::new(5), "tie-3");
        let order: Vec<_> = std::iter::from_fn(|| queue.pop()).collect();
        assert_eq!(
            order,
            [
                (Cycles::new(3), "earlier"),
                (Cycles::new(5), "tie-2"),
                (Cycles::new(5), "tie-3")
            ]
        );
    }

    #[test]
    fn pop_due_respects_the_horizon() {
        let mut queue = EventQueue::new();
        queue.push(Cycles::new(10), "due");
        queue.push(Cycles::new(20), "future");
        assert_eq!(
            queue.pop_due(Cycles::new(15)),
            Some((Cycles::new(10), "due"))
        );
        assert_eq!(queue.pop_due(Cycles::new(15)), None);
        assert_eq!(queue.len(), 1);
        assert!(!queue.is_empty());
        assert_eq!(
            queue.pop_due(Cycles::new(20)),
            Some((Cycles::new(20), "future"))
        );
        assert!(queue.is_empty());
    }

    #[test]
    fn a_cleared_queue_behaves_like_a_fresh_one() {
        let mut queue = EventQueue::new();
        queue.push(Cycles::new(9), "stale");
        queue.push(Cycles::new(1), "stale");
        queue.clear();
        assert!(queue.is_empty());
        assert_eq!(queue.pop(), None);
        // Same-cycle FIFO starts over: the seq counter was reset, so push
        // order after clear() is the only tiebreak, as in a fresh queue.
        for label in ["a", "b", "c"] {
            queue.push(Cycles::new(4), label);
        }
        let order: Vec<_> = std::iter::from_fn(|| queue.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn payload_needs_no_ordering_traits() {
        // A payload type with no Ord/Eq at all still schedules fine.
        #[derive(Debug)]
        struct Opaque(#[allow(dead_code)] f64);
        let mut queue = EventQueue::new();
        queue.push(Cycles::new(1), Opaque(f64::NAN));
        queue.push(Cycles::new(1), Opaque(0.0));
        assert_eq!(queue.len(), 2);
        assert!(queue.pop().is_some());
    }
}
