//! The event calendar: a min-priority queue of timestamped events.
//!
//! Events at the same timestamp pop in insertion (FIFO) order, which makes
//! simulations deterministic regardless of heap internals. Each entry is
//! ordered by one packed `u128` key, `(at_ns << 64) | seq`, where `seq` is
//! a per-queue push counter: comparing the keys is exactly the
//! lexicographic `(time, FIFO)` order, in one integer comparison.
//!
//! There is no cancellation. A model that wants to retract a scheduled
//! event stamps it with a generation (or remembers the deadline it armed)
//! and ignores the event when it fires stale; the calendar then never
//! tracks per-event state beyond the heap entry itself.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

#[derive(Debug)]
struct Entry<E> {
    /// `(at_ns << 64) | seq`.
    key: u128,
    event: E,
}

impl<E> Entry<E> {
    fn at(&self) -> SimTime {
        SimTime::from_nanos((self.key >> 64) as u64)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
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
        // BinaryHeap is a max-heap; invert so the smallest key pops first.
        other.key.cmp(&self.key)
    }
}

/// A min-priority queue of `(SimTime, E)` pairs with FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// use holdcsim_des::queue::EventQueue;
/// use holdcsim_des::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "later");
/// q.push(SimTime::from_secs(1), "first");
/// q.push(SimTime::from_secs(1), "second");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "first")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "second")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "later")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Pushes so far: the FIFO half of the next key.
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at `at`.
    #[inline]
    pub fn push(&mut self, at: SimTime, event: E) {
        let key = (u128::from(at.as_nanos()) << 64) | u128::from(self.seq);
        self.seq += 1;
        self.heap.push(Entry { key, event });
    }

    /// Removes and returns the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at(), e.event))
    }

    /// The timestamp of the earliest event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(Entry::at)
    }

    /// Number of events still queued.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all events. Later pushes still order after earlier ones at
    /// the same instant.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), 3);
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn extreme_instants_keep_time_then_fifo_order() {
        // The time half of the key spans all 64 bits: MAX must not
        // collide with the sequence half, nor ZERO sort after anything.
        let mut q = EventQueue::new();
        q.push(SimTime::MAX, "max-a");
        q.push(SimTime::ZERO, "zero-a");
        q.push(SimTime::from_nanos(u64::MAX - 1), "max-1");
        q.push(SimTime::MAX, "max-b");
        q.push(SimTime::ZERO, "zero-b");
        assert_eq!(q.peek_time(), Some(SimTime::ZERO));
        assert_eq!(q.len(), 5);
        let order: Vec<(SimTime, &str)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (SimTime::ZERO, "zero-a"),
                (SimTime::ZERO, "zero-b"),
                (SimTime::from_nanos(u64::MAX - 1), "max-1"),
                (SimTime::MAX, "max-a"),
                (SimTime::MAX, "max-b"),
            ]
        );
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn push_after_clear_keeps_tokens_unique() {
        // The sequence half of the key is the event's token: it keeps
        // counting across `clear`, so no key is ever handed out twice.
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(1), 1);
        q.push(SimTime::from_nanos(2), 2);
        let before = q.heap.peek().map(|e| e.key);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.push(SimTime::from_nanos(1), 3);
        let after = q.heap.peek().map(|e| e.key);
        assert_ne!(before, after);
        q.push(SimTime::from_nanos(1), 4);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), 3)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), 4)));
    }

    #[test]
    fn compacted_event_still_fires() {
        // An event pushed first and due last outlives a long churn of
        // nearer events and still fires. Miri interprets ~100x slower
        // than native, so the churn shrinks under `cfg(miri)`.
        let churn = if cfg!(miri) { 3_000 } else { 50_000 };
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(100), u64::MAX);
        for i in 0..churn {
            q.push(SimTime::from_nanos(i), i);
            q.pop();
        }
        assert_eq!(q.pop(), Some((SimTime::from_secs(100), u64::MAX)));
        assert!(q.is_empty());
    }
}
