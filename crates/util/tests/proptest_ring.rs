//! Property tests for the bounded ring and its blocking MPSC channel —
//! the hand-off the serving runtime (`otc-serve`) relies on. Three
//! guarantees are pinned: FIFO order per producer, the capacity bound is
//! never exceeded, and no value is ever lost or duplicated under
//! contention. `Sender::send_batch` is held to the same guarantees, plus
//! its own three: a batch larger than the capacity completes under
//! backpressure, a receiver dropped mid-batch ends it with an error that
//! hands back exactly the undelivered suffix — never a hang — and a held
//! wake guard never strands a later send (the wake rule).

use std::sync::mpsc;
use std::time::Duration;

use otc_util::ring::{channel, Ring, SendError};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An arbitrary interleaving of pushes and pops behaves exactly like a
    /// capacity-clamped VecDeque model.
    #[test]
    fn ring_matches_fifo_model(
        capacity in 1usize..16,
        ops in prop::collection::vec((any::<bool>(), any::<u32>()), 0..200),
    ) {
        let mut ring = Ring::with_capacity(capacity);
        let mut model: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
        for (is_push, v) in ops {
            if is_push {
                let accepted = ring.push(v).is_ok();
                prop_assert_eq!(accepted, model.len() < capacity, "push accepted iff not full");
                if accepted {
                    model.push_back(v);
                }
            } else {
                prop_assert_eq!(ring.pop(), model.pop_front(), "pop order matches the model");
            }
            prop_assert!(ring.len() <= capacity, "capacity bound holds at every step");
            prop_assert_eq!(ring.len(), model.len());
            prop_assert_eq!(ring.is_empty(), model.is_empty());
            prop_assert_eq!(ring.is_full(), model.len() == capacity);
        }
    }

    /// `pop_into` drains exactly `min(max, len)` items in FIFO order.
    #[test]
    fn ring_batch_drain_matches_singles(
        capacity in 1usize..32,
        values in prop::collection::vec(any::<u16>(), 0..64),
        max in 0usize..40,
    ) {
        let mut a = Ring::with_capacity(capacity);
        let mut b = Ring::with_capacity(capacity);
        for &v in &values {
            let _ = a.push(v);
            let _ = b.push(v);
        }
        let mut batched = Vec::new();
        let moved = a.pop_into(&mut batched, max);
        let mut singles = Vec::new();
        for _ in 0..max {
            match b.pop() {
                Some(v) => singles.push(v),
                None => break,
            }
        }
        prop_assert_eq!(moved, batched.len());
        prop_assert_eq!(batched, singles);
        prop_assert_eq!(a.len(), b.len(), "both drains leave the same tail");
    }

    /// Single producer, single consumer, threaded: everything arrives, in
    /// order, regardless of capacity (backpressure) and batch size.
    #[test]
    fn spsc_channel_is_order_preserving(
        capacity in 1usize..32,
        count in 0usize..400,
        batch in 1usize..64,
    ) {
        let (tx, rx) = channel(capacity);
        let producer = std::thread::spawn(move || {
            for i in 0..count {
                tx.send(i).expect("receiver lives until fully drained");
            }
        });
        let mut got = Vec::with_capacity(count);
        while rx.recv_batch(&mut got, batch).is_ok() {}
        producer.join().expect("producer panicked");
        prop_assert_eq!(got, (0..count).collect::<Vec<_>>());
    }

    /// Many producers under contention: nothing is lost, nothing is
    /// duplicated, and each producer's own sequence stays in order.
    #[test]
    fn mpsc_fan_in_is_lossless_and_per_producer_ordered(
        capacity in 1usize..16,
        producers in 1usize..5,
        per_producer in 0usize..120,
    ) {
        let (tx, rx) = channel::<(usize, usize)>(capacity);
        let mut handles = Vec::new();
        for p in 0..producers {
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..per_producer {
                    tx.send((p, i)).expect("receiver lives until fully drained");
                }
            }));
        }
        drop(tx);
        let got: Vec<(usize, usize)> = rx.iter().collect();
        for h in handles {
            h.join().expect("producer panicked");
        }
        prop_assert_eq!(got.len(), producers * per_producer, "no loss, no duplication");
        let mut next = vec![0usize; producers];
        for (p, i) in got {
            prop_assert_eq!(i, next[p], "producer {}'s items arrive in send order", p);
            next[p] += 1;
        }
        for (p, n) in next.iter().enumerate() {
            prop_assert_eq!(*n, per_producer, "producer {} fully delivered", p);
        }
    }

    /// `push_from` moves exactly the prefix that fits, like that many
    /// single pushes, and leaves the rest in the caller's `Vec`.
    #[test]
    fn ring_push_from_matches_singles(
        capacity in 1usize..16,
        preload in 0usize..16,
        values in prop::collection::vec(any::<u16>(), 0..40),
    ) {
        let mut a = Ring::with_capacity(capacity);
        let mut b = Ring::with_capacity(capacity);
        for i in 0..preload.min(capacity) {
            a.push(u16::MAX - i as u16).expect("under capacity");
            b.push(u16::MAX - i as u16).expect("under capacity");
        }
        let mut rest = values.clone();
        let moved = a.push_from(&mut rest);
        let mut singles = 0;
        for &v in &values {
            if b.push(v).is_err() {
                break;
            }
            singles += 1;
        }
        prop_assert_eq!(moved, singles);
        prop_assert_eq!(&rest[..], &values[moved..], "the suffix stays, in order");
        prop_assert!(a.len() <= capacity);
        let (mut da, mut db) = (Vec::new(), Vec::new());
        a.pop_into(&mut da, usize::MAX);
        b.pop_into(&mut db, usize::MAX);
        prop_assert_eq!(da, db);
    }

    /// Producers mixing single `send`s and `send_batch`es of any size
    /// (including larger than the capacity) fan in losslessly: nothing is
    /// lost or duplicated, each producer's items arrive in its own order,
    /// and every batch lands contiguously, ahead of its producer's next
    /// item.
    #[test]
    fn mixed_send_and_send_batch_fan_in_is_lossless_and_ordered(
        capacity in 1usize..16,
        scripts in prop::collection::vec(
            prop::collection::vec((any::<bool>(), 1usize..24), 0..12),
            1..5,
        ),
        batch in 1usize..32,
    ) {
        let (tx, rx) = channel::<(usize, usize)>(capacity);
        let mut handles = Vec::new();
        let mut totals = Vec::new();
        for (p, script) in scripts.into_iter().enumerate() {
            totals.push(script.iter().map(|&(_, n)| n).sum::<usize>());
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                let mut next = 0;
                let mut run = Vec::new();
                for (batched, n) in script {
                    if batched {
                        run.extend((next..next + n).map(|i| (p, i)));
                        tx.send_batch(&mut run).expect("receiver lives until fully drained");
                        assert!(run.is_empty(), "a delivered batch leaves the Vec empty");
                    } else {
                        for i in next..next + n {
                            tx.send((p, i)).expect("receiver lives until fully drained");
                        }
                    }
                    next += n;
                }
            }));
        }
        drop(tx);
        let mut got = Vec::new();
        while rx.recv_batch(&mut got, batch).is_ok() {}
        for h in handles {
            h.join().expect("producer panicked");
        }
        prop_assert_eq!(got.len(), totals.iter().sum::<usize>(), "no loss, no duplication");
        let mut next = vec![0usize; totals.len()];
        for (p, i) in got {
            prop_assert_eq!(i, next[p], "producer {}'s items arrive in send order", p);
            next[p] += 1;
        }
        prop_assert_eq!(next, totals, "every producer fully delivered");
    }

    /// A batch several times the capacity completes against a consumer
    /// that drains in small, slow `recv_batch` bites: `send_batch` waits
    /// for room (lock released) and continues instead of failing or
    /// spinning, and the stream arrives in order.
    #[test]
    fn oversized_batches_complete_against_a_slow_consumer(
        capacity in 1usize..8,
        batches in prop::collection::vec(1usize..64, 1..6),
        bite in 1usize..4,
    ) {
        let (tx, rx) = channel::<usize>(capacity);
        let total: usize = batches.iter().sum();
        let producer = std::thread::spawn(move || {
            let mut next = 0;
            let mut run = Vec::new();
            for n in batches {
                run.extend(next..next + n);
                tx.send_batch(&mut run).expect("receiver lives until fully drained");
                next += n;
            }
        });
        let mut got = Vec::with_capacity(total);
        loop {
            std::thread::yield_now();
            if rx.recv_batch(&mut got, bite).is_err() {
                break;
            }
        }
        producer.join().expect("producer panicked");
        prop_assert_eq!(got, (0..total).collect::<Vec<_>>());
    }

    /// The wake rule: producers hold the wake guard of their previous
    /// batch while they send further items, through `send` and
    /// `send_batch`, into a ring of capacity 1–4 drained by a slow
    /// consumer. Each producer pauses between steps, so the consumer
    /// drains the ring and parks: the next batch lands with its wake
    /// deferred, and a sender that then slept on a full ring without
    /// waking the receiver would leave both asleep. The watchdog turns
    /// that hang into a failure. Every item still arrives, in
    /// per-producer order.
    #[test]
    fn held_wake_guards_never_strand_a_sender(
        capacity in 1usize..5,
        scripts in prop::collection::vec(
            prop::collection::vec((any::<bool>(), 1usize..9), 1..12),
            1..4,
        ),
        bite in 1usize..4,
    ) {
        let totals: Vec<usize> =
            scripts.iter().map(|script| script.iter().map(|&(_, n)| n).sum()).collect();
        let (done_tx, done_rx) = mpsc::channel();
        let watched = std::thread::spawn(move || {
            let (tx, rx) = channel::<(usize, usize)>(capacity);
            let mut handles = Vec::new();
            for (p, script) in scripts.into_iter().enumerate() {
                let tx = tx.clone();
                handles.push(std::thread::spawn(move || {
                    let mut next = 0;
                    let mut run = Vec::new();
                    let mut held = None;
                    for (batched, n) in script {
                        std::thread::sleep(Duration::from_millis(1));
                        if batched {
                            run.extend((next..next + n).map(|i| (p, i)));
                            // The assignment drops the previous guard only
                            // after this batch is in the ring.
                            held = Some(tx.send_batch(&mut run).expect("receiver lives"));
                        } else {
                            for i in next..next + n {
                                tx.send((p, i)).expect("receiver lives");
                            }
                        }
                        next += n;
                    }
                    drop(held);
                }));
            }
            drop(tx);
            let mut got = Vec::new();
            loop {
                std::thread::sleep(Duration::from_micros(50));
                if rx.recv_batch(&mut got, bite).is_err() {
                    break;
                }
            }
            for h in handles {
                h.join().expect("producer panicked");
            }
            let _ = done_tx.send(got);
        });
        // On a hang the watched threads are left behind: the failure is
        // the point, and they can never be joined.
        let got = done_rx.recv_timeout(Duration::from_secs(20));
        prop_assert!(got.is_ok(), "a sender slept on a full ring beside a parked receiver");
        watched.join().expect("consumer panicked");
        let got = got.unwrap_or_default();
        prop_assert_eq!(got.len(), totals.iter().sum::<usize>(), "no loss, no duplication");
        let mut next = vec![0usize; totals.len()];
        for (p, i) in got {
            prop_assert_eq!(i, next[p], "producer {}'s items arrive in send order", p);
            next[p] += 1;
        }
        prop_assert_eq!(next, totals, "every producer fully delivered");
    }

    /// Dropping the receiver while a batch is blocked on a full ring ends
    /// the batch with `Err`: what the consumer saw is a prefix of the
    /// batch, the caller's `Vec` holds exactly the undelivered suffix,
    /// and the two never overlap. The join proves it never hangs.
    #[test]
    fn receiver_dropped_mid_batch_returns_the_undelivered_suffix(
        capacity in 1usize..8,
        taken in 0usize..12,
        extra in 1usize..40,
    ) {
        let (tx, rx) = channel::<usize>(capacity);
        // More than the consumer takes plus what the ring can hold, so
        // the batch must still be blocked when the receiver goes.
        let n = taken + capacity + extra;
        let producer = std::thread::spawn(move || {
            let mut run: Vec<usize> = (0..n).collect();
            let result = tx.send_batch(&mut run).map(drop);
            (result, run)
        });
        let mut got = Vec::new();
        while got.len() < taken {
            let want = taken - got.len();
            rx.recv_batch(&mut got, want).expect("the producer is still sending");
        }
        drop(rx);
        let (result, left) = producer.join().expect("producer panicked");
        prop_assert_eq!(result, Err(SendError::Disconnected(())));
        prop_assert_eq!(&got[..], &(0..taken).collect::<Vec<_>>()[..], "a prefix arrived");
        prop_assert!(!left.is_empty(), "the batch was cut short");
        prop_assert!(taken + left.len() <= n);
        prop_assert_eq!(&left[..], &(n - left.len()..n).collect::<Vec<_>>()[..], "suffix kept");
    }
}
