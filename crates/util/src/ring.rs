//! Bounded FIFO queues for the serving runtime.
//!
//! Two layers, both allocation-free after construction:
//!
//! * [`Ring`] — a fixed-capacity single-threaded ring buffer, the storage
//!   core. It has no interior synchronisation at all, which makes it the
//!   right building block for a single-producer/single-consumer hand-off
//!   where the caller owns the locking discipline.
//! * [`channel`] — a bounded **blocking MPSC fan-in** over one [`Ring`]:
//!   any number of [`Sender`] clones feed one [`Receiver`]. A full ring
//!   applies *backpressure* (a send blocks until the consumer makes
//!   room) instead of growing, so a slow worker throttles its producers
//!   rather than letting the queue eat the heap. This is the queue
//!   between `otc-serve`'s ingress (one thread per client connection)
//!   and its lane workers (one thread and one ring per lane, each
//!   running several serving groups).
//!
//! The workspace forbids `unsafe`, so the channel serialises access with a
//! `Mutex` + two `Condvar`s rather than atomics-over-`UnsafeCell`. Each
//! lock acquisition plus condvar notify costs far more than the push or
//! pop it guards, and a notify can wake a consumer that then finds one
//! item. Per-item traffic therefore makes the hand-off, not the engine,
//! the serving bottleneck. Both ends batch instead:
//!
//! * [`Sender::send_batch`] moves a whole run into the ring under one
//!   lock, waiting on backpressure (lock released) and continuing for
//!   runs larger than the capacity. It does not notify: it returns a
//!   [`Wake`] guard, and dropping the guard wakes the receiver once. The
//!   caller picks the moment — `otc-serve` pushes under its ingress lock
//!   and wakes only after the client's ack is on the wire;
//! * [`Receiver::recv_batch`] drains up to a batch under one lock.
//!
//! [`Sender::send`] stays for single markers and notifies at once.
//!
//! **The wake rule.** A deferred wake must never strand a sender: a
//! sender (`send` or `send_batch`) never sleeps on a full ring without
//! first waking the receiver. Otherwise a batch that exactly fills the
//! ring, its guard still held, leaves the next send asleep beside a
//! parked receiver that nobody woke.
//!
//! FIFO order per producer, loss-freedom, the wake rule, and
//! `send_batch`'s backpressure and disconnect contracts are pinned by
//! `crates/util/tests/proptest_ring.rs`.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// A fixed-capacity FIFO ring buffer. Never reallocates after
/// construction: [`Ring::push`] on a full ring hands the value back
/// instead of growing.
#[derive(Debug)]
pub struct Ring<T> {
    /// Backing storage. `VecDeque` with a pinned capacity: we guard every
    /// `push_back` with an explicit length check so it can never grow.
    slots: VecDeque<T>,
    capacity: usize,
}

impl<T> Ring<T> {
    /// A ring holding at most `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity == 0` — a zero-capacity queue can never move an
    /// item and would deadlock any blocking wrapper built on top.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Self { slots: VecDeque::with_capacity(capacity), capacity }
    }

    /// Items currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the ring holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether the ring is at capacity (the next push would be refused).
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.slots.len() >= self.capacity
    }

    /// The fixed capacity this ring was built with.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends `value` at the tail, or returns it when the ring is full.
    ///
    /// # Errors
    /// The rejected value itself, so the caller can retry without a clone.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        if self.is_full() {
            return Err(value);
        }
        self.slots.push_back(value);
        Ok(())
    }

    /// Moves as many items as fit from the front of `items` to the tail,
    /// in order, and returns how many moved; the rest stay in `items`.
    /// The batch sibling of [`Ring::push`] (and the mirror image of
    /// [`Ring::pop_into`]).
    pub fn push_from(&mut self, items: &mut Vec<T>) -> usize {
        let take = (self.capacity - self.slots.len()).min(items.len());
        self.slots.extend(items.drain(..take));
        take
    }

    /// Removes and returns the head item, oldest first.
    pub fn pop(&mut self) -> Option<T> {
        self.slots.pop_front()
    }

    /// Moves up to `max` items from the head into `out` (appending),
    /// oldest first, and returns how many moved. The batch sibling of
    /// [`Ring::pop`]: one lock acquisition drains a worker's whole next
    /// batch.
    pub fn pop_into(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let take = max.min(self.slots.len());
        for _ in 0..take {
            out.push(self.slots.pop_front().expect("len checked"));
        }
        take
    }
}

/// Why a [`Sender`] could not deliver a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError<T> {
    /// The receiver was dropped; the channel can never drain. Carries the
    /// undelivered value back.
    Disconnected(T),
}

impl<T> SendError<T> {
    /// The value that could not be delivered.
    pub fn into_inner(self) -> T {
        match self {
            SendError::Disconnected(v) => v,
        }
    }
}

impl<T> std::fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sending on a disconnected channel")
    }
}

impl<T: std::fmt::Debug> std::error::Error for SendError<T> {}

/// Why a [`Receiver`] returned no value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// Every sender was dropped and the ring is empty: the stream is over.
    Disconnected,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "receiving on an empty, disconnected channel")
    }
}

impl std::error::Error for RecvError {}

/// Shared state of one bounded channel.
#[derive(Debug)]
struct Shared<T> {
    inner: Mutex<Inner<T>>,
    /// Signalled when an item is popped (senders blocked on a full ring).
    not_full: Condvar,
    /// Signalled when an item is pushed or the last sender leaves
    /// (receivers blocked on an empty ring).
    not_empty: Condvar,
}

#[derive(Debug)]
struct Inner<T> {
    ring: Ring<T>,
    senders: usize,
    receiver_alive: bool,
}

/// Creates a bounded blocking MPSC channel of the given capacity.
///
/// Clone the [`Sender`] freely (fan-in); there is exactly one
/// [`Receiver`]. A full channel blocks senders (backpressure); an empty
/// channel blocks the receiver until a value or final disconnect arrives.
///
/// ```
/// let (tx, rx) = otc_util::ring::channel(4);
/// let producer = std::thread::spawn(move || {
///     for i in 0..100u32 {
///         tx.send(i).unwrap(); // blocks whenever the consumer lags 4 behind
///     }
/// });
/// let got: Vec<u32> = rx.iter().collect();
/// producer.join().unwrap();
/// assert_eq!(got, (0..100).collect::<Vec<_>>());
/// ```
///
/// # Panics
/// Panics if `capacity == 0` (see [`Ring::with_capacity`]).
#[must_use]
pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            ring: Ring::with_capacity(capacity),
            senders: 1,
            receiver_alive: true,
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
    });
    (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
}

/// The producing half of a [`channel`]. Cloneable: many producers fan in
/// to the single consumer.
#[derive(Debug)]
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Delivers `value`, blocking while the ring is full (backpressure).
    ///
    /// # Errors
    /// [`SendError::Disconnected`] (returning the value) once the receiver
    /// is gone — including when it is dropped mid-wait.
    pub fn send(&self, mut value: T) -> Result<(), SendError<T>> {
        let mut inner = self.shared.inner.lock().expect("channel lock poisoned");
        loop {
            if !inner.receiver_alive {
                return Err(SendError::Disconnected(value));
            }
            match inner.ring.push(value) {
                Ok(()) => {
                    drop(inner);
                    self.shared.not_empty.notify_one();
                    return Ok(());
                }
                Err(v) => {
                    value = v;
                    // The wake rule: the ring may be full of items whose
                    // wake a held `Wake` still defers.
                    self.shared.not_empty.notify_one();
                    inner = self.shared.not_full.wait(inner).expect("channel lock poisoned");
                }
            }
        }
    }

    /// Delivers every item of `items` in FIFO order, draining the `Vec`
    /// (its capacity is kept for reuse). The batch mirror of
    /// [`Receiver::recv_batch`]: one lock acquisition per pass. When the
    /// ring fills up mid-batch it wakes the receiver, waits for room
    /// (releasing the lock) and continues, so a batch larger than the
    /// capacity still completes under backpressure.
    ///
    /// The final wake is the caller's: the returned [`Wake`] notifies the
    /// receiver once when dropped. Drop it at once for an eager send, or
    /// hold it to keep the wake off a critical path. The wake rule (see
    /// the module docs) keeps a held guard from stranding any later send.
    /// An empty batch is a no-op, and its guard is inert.
    ///
    /// # Errors
    /// [`SendError::Disconnected`] once the receiver is gone — including
    /// when it is dropped mid-wait. The undelivered suffix is left in
    /// `items`, in order; the delivered prefix stays delivered.
    pub fn send_batch(&self, items: &mut Vec<T>) -> Result<Wake<T>, SendError<()>> {
        if items.is_empty() {
            return Ok(Wake { shared: None });
        }
        let mut inner = self.shared.inner.lock().expect("channel lock poisoned");
        loop {
            if !inner.receiver_alive {
                return Err(SendError::Disconnected(()));
            }
            inner.ring.push_from(items);
            if items.is_empty() {
                return Ok(Wake { shared: Some(Arc::clone(&self.shared)) });
            }
            // The wake rule: never sleep on a full ring unwoken.
            self.shared.not_empty.notify_one();
            inner = self.shared.not_full.wait(inner).expect("channel lock poisoned");
        }
    }

    /// Wakes the receiver if it is parked on an empty ring. Releases any
    /// wake a held [`Wake`] still defers, without waiting for its drop.
    pub fn wake(&self) {
        self.shared.not_empty.notify_one();
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.inner.lock().expect("channel lock poisoned").senders += 1;
        Self { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let senders = {
            let mut inner = self.shared.inner.lock().expect("channel lock poisoned");
            inner.senders -= 1;
            inner.senders
        };
        if senders == 0 {
            // Wake a receiver blocked on an empty ring so it can observe
            // the disconnect and finish.
            self.shared.not_empty.notify_all();
        }
    }
}

/// The deferred wake of one [`Sender::send_batch`]: dropping it notifies
/// the receiver once. The guard for an empty batch holds nothing and
/// notifies nothing. It keeps the channel's shared state alive but does
/// not count as a sender, so holding one never delays a disconnect.
#[derive(Debug)]
pub struct Wake<T> {
    shared: Option<Arc<Shared<T>>>,
}

impl<T> Drop for Wake<T> {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            shared.not_empty.notify_one();
        }
    }
}

/// The consuming half of a [`channel`]. Exactly one exists per channel.
#[derive(Debug)]
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Takes the next value, blocking while the channel is empty.
    ///
    /// # Errors
    /// [`RecvError::Disconnected`] once every sender is gone *and* the
    /// ring has fully drained — queued values are never lost.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut inner = self.shared.inner.lock().expect("channel lock poisoned");
        loop {
            if let Some(v) = inner.ring.pop() {
                drop(inner);
                self.shared.not_full.notify_one();
                return Ok(v);
            }
            if inner.senders == 0 {
                return Err(RecvError::Disconnected);
            }
            inner = self.shared.not_empty.wait(inner).expect("channel lock poisoned");
        }
    }

    /// Blocks for at least one value, then moves up to `max` queued values
    /// into `out` (appending) in FIFO order and returns how many arrived —
    /// the worker-loop primitive: one blocking wait amortises a whole
    /// batch of lock-free processing.
    ///
    /// # Errors
    /// [`RecvError::Disconnected`] once every sender is gone and the ring
    /// has fully drained.
    pub fn recv_batch(&self, out: &mut Vec<T>, max: usize) -> Result<usize, RecvError> {
        let mut inner = self.shared.inner.lock().expect("channel lock poisoned");
        loop {
            let moved = inner.ring.pop_into(out, max);
            if moved > 0 {
                drop(inner);
                // Potentially many slots freed: wake every blocked sender.
                self.shared.not_full.notify_all();
                return Ok(moved);
            }
            if inner.senders == 0 {
                return Err(RecvError::Disconnected);
            }
            inner = self.shared.not_empty.wait(inner).expect("channel lock poisoned");
        }
    }

    /// A blocking iterator over the remaining values; ends when every
    /// sender is gone and the ring has drained.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || self.recv().ok())
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.inner.lock().expect("channel lock poisoned").receiver_alive = false;
        // Wake senders blocked on a full ring so they can observe the
        // disconnect instead of waiting forever.
        self.shared.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_fifo_and_bounded() {
        let mut ring = Ring::with_capacity(3);
        assert!(ring.is_empty());
        ring.push(1).unwrap();
        ring.push(2).unwrap();
        ring.push(3).unwrap();
        assert!(ring.is_full());
        assert_eq!(ring.push(4), Err(4));
        assert_eq!(ring.pop(), Some(1));
        ring.push(4).unwrap();
        assert_eq!(ring.pop(), Some(2));
        assert_eq!(ring.pop(), Some(3));
        assert_eq!(ring.pop(), Some(4));
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn ring_pop_into_drains_in_order() {
        let mut ring = Ring::with_capacity(8);
        for i in 0..5 {
            ring.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(ring.pop_into(&mut out, 3), 3);
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(ring.pop_into(&mut out, 10), 2);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(ring.pop_into(&mut out, 10), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_refused() {
        let _ = Ring::<u8>::with_capacity(0);
    }

    #[test]
    fn channel_round_trips_in_order() {
        let (tx, rx) = channel(4);
        let handle = std::thread::spawn(move || {
            for i in 0..1000u32 {
                tx.send(i).unwrap();
            }
        });
        let got: Vec<u32> = rx.iter().collect();
        handle.join().unwrap();
        assert_eq!(got.len(), 1000);
        assert!(got.windows(2).all(|w| w[0] < w[1]), "single-producer order preserved");
    }

    #[test]
    fn drop_of_all_senders_ends_the_stream_after_draining() {
        let (tx, rx) = channel(8);
        let tx2 = tx.clone();
        tx.send(10).unwrap();
        tx2.send(20).unwrap();
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Ok(10));
        assert_eq!(rx.recv(), Ok(20));
        assert_eq!(rx.recv(), Err(RecvError::Disconnected));
        assert_eq!(rx.recv_batch(&mut Vec::new(), 4), Err(RecvError::Disconnected));
    }

    #[test]
    fn drop_of_receiver_unblocks_full_senders() {
        let (tx, rx) = channel(1);
        tx.send(1).unwrap();
        let handle = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(rx);
        assert_eq!(handle.join().unwrap(), Err(SendError::Disconnected(2)));
    }

    #[test]
    fn empty_send_batch_is_a_no_op() {
        let (tx, rx) = channel::<u32>(1);
        tx.send(7).unwrap();
        // Neither a full ring nor a dropped receiver matters: nothing to
        // deliver means no lock, no wait, no error.
        let mut none = Vec::new();
        assert_eq!(tx.send_batch(&mut none).map(drop), Ok(()));
        let mut out = Vec::new();
        assert_eq!(rx.recv_batch(&mut out, 4), Ok(1), "nothing joined the queued 7");
        assert_eq!(out, vec![7]);
        drop(rx);
        assert_eq!(tx.send_batch(&mut none).map(drop), Ok(()));
        assert!(none.is_empty());
    }

    #[test]
    fn an_empty_batch_guard_is_inert() {
        let (tx, _rx) = channel::<u32>(1);
        let wake = tx.send_batch(&mut Vec::new()).unwrap();
        assert!(wake.shared.is_none(), "nothing to notify");
        assert_eq!(Arc::strong_count(&tx.shared), 2, "only the two ends hold the channel");
    }

    #[test]
    fn dropping_a_guard_wakes_a_parked_recv_batch() {
        let (tx, rx) = channel::<u32>(8);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let consumer = std::thread::spawn(move || {
            let mut out = Vec::new();
            let got = rx.recv_batch(&mut out, 8);
            done_tx.send((got, out)).unwrap();
        });
        // Let the consumer park on the empty ring first.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let wake = tx.send_batch(&mut vec![1, 2, 3]).unwrap();
        drop(wake);
        let (got, out) = done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the guard's drop must wake the parked receiver");
        assert_eq!(got, Ok(3));
        assert_eq!(out, vec![1, 2, 3]);
        consumer.join().unwrap();
    }

    #[test]
    fn send_batch_delivers_in_order_and_keeps_the_buffer() {
        let (tx, rx) = channel(8);
        let mut run = Vec::with_capacity(16);
        run.extend([1, 2, 3]);
        tx.send(0).unwrap();
        tx.send_batch(&mut run).unwrap();
        assert!(run.is_empty() && run.capacity() >= 16, "drained, capacity kept");
        let mut out = Vec::new();
        assert_eq!(rx.recv_batch(&mut out, 10), Ok(4));
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn recv_batch_moves_a_bounded_prefix() {
        let (tx, rx) = channel(16);
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(rx.recv_batch(&mut out, 4), Ok(4));
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(rx.recv_batch(&mut out, 100), Ok(6));
        assert_eq!(out.len(), 10);
        drop(tx);
        assert_eq!(rx.recv_batch(&mut out, 4), Err(RecvError::Disconnected));
    }

    #[test]
    fn mpsc_fan_in_loses_nothing() {
        const PRODUCERS: u64 = 4;
        const PER: u64 = 500;
        let (tx, rx) = channel(8);
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..PER {
                    tx.send(p * PER + i).unwrap();
                }
            }));
        }
        drop(tx);
        let mut got: Vec<u64> = rx.iter().collect();
        for h in handles {
            h.join().unwrap();
        }
        got.sort_unstable();
        let want: Vec<u64> = (0..PRODUCERS * PER).collect();
        assert_eq!(got, want, "every sent value arrives exactly once");
    }
}
