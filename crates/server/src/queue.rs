//! A bounded MPMC work queue on `Mutex` + `Condvar`: producers block
//! when the queue is full (backpressure reaches the connection, not the
//! heap), consumers block when it is empty, and `close` drains cleanly —
//! exactly the std-only primitive the serve loop needs.

use crate::unpoison;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue.
pub struct Bounded<T> {
    state: Mutex<State<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> Bounded<T> {
    /// A queue holding at most `capacity` items (clamped to ≥ 1). Storage
    /// grows with the items actually queued, so any bound is cheap.
    pub fn new(capacity: usize) -> Bounded<T> {
        let capacity = capacity.max(1);
        Bounded {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues `item`, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// Returns the item back when the queue has been closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = unpoison(self.state.lock());
        loop {
            if state.closed {
                return Err(item);
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                drop(state);
                self.not_empty.notify_one();
                return Ok(());
            }
            state = unpoison(self.not_full.wait(state));
        }
    }

    /// Dequeues the oldest item, blocking while the queue is empty.
    /// Returns `None` once the queue is closed **and** drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = unpoison(self.state.lock());
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = unpoison(self.not_empty.wait(state));
        }
    }

    /// Closes the queue: pending pushes fail, consumers drain what is
    /// left and then see `None`.
    pub fn close(&self) {
        unpoison(self.state.lock()).closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Items currently queued (racy; for stats and tests).
    pub fn len(&self) -> usize {
        unpoison(self.state.lock()).items.len()
    }

    /// Whether the queue is currently empty (racy; for stats and tests).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_order_and_close_drains() {
        let q = Bounded::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        q.close();
        assert_eq!(q.push(9), Err(9));
        assert_eq!(
            (0..4).map(|_| q.pop().unwrap()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn an_unbounded_capacity_allocates_only_what_is_queued() {
        let q = Bounded::new(usize::MAX);
        for i in 0..3 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 3);
        assert_eq!(
            (0..3).map(|_| q.pop().unwrap()).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn full_queue_blocks_producers_until_a_pop() {
        let q = Arc::new(Bounded::new(1));
        q.push(0u32).unwrap();
        let qp = Arc::clone(&q);
        let producer = std::thread::spawn(move || qp.push(1).is_ok());
        // The producer is blocked on a full queue; free one slot.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop(), Some(0));
        assert!(producer.join().unwrap());
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn consumers_wake_on_close() {
        let q: Arc<Bounded<u32>> = Arc::new(Bounded::new(2));
        let qc = Arc::clone(&q);
        let consumer = std::thread::spawn(move || qc.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }
}
