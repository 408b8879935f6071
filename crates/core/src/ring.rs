//! The bounded flight recorder behind both per-space rings: the
//! collector's trace ring ([`crate::trace`]) and the application-call span
//! ring ([`crate::span`]). Only the record type differs between them.
//!
//! A ring keeps its last `capacity` records in emission order, each
//! stamped with a dense sequence number. When full it drops its oldest
//! record, so a reader can tell from the numbers exactly how much history
//! was lost.
//!
//! **Memory follows content.** The storage is one `VecDeque` whose
//! capacity is reserved at construction and never pre-initialised: its
//! pages become resident only as records fill them, and a full ring
//! reuses them in place, never reallocating. A space that has recorded
//! nothing holds next to nothing.
//!
//! **One leaf lock.** The caller builds the record and reads the clock
//! before [`Ring::record`] takes the ring's lock. Under it the ring only
//! stamps the sequence number and moves the record in and the evicted one
//! out; the evicted record is dropped after the lock is released. No other
//! lock is taken while it is held. Readers copy out under the same lock,
//! so a full [`Ring::snapshot`] stalls every emitter for the length of
//! the clone (up to `capacity` records); [`Ring::tail`] with a small
//! limit copies, and stalls, only that much.

use std::collections::VecDeque;
use std::time::Instant;

use netobj_transport::ClockHandle;
use parking_lot::Mutex;

/// A record a [`Ring`] can hold: the ring stamps its sequence number.
pub(crate) trait Sequenced {
    fn set_seq(&mut self, seq: u64);
}

/// A bounded, drop-oldest ring of `T` records.
pub(crate) struct Ring<T> {
    clock: ClockHandle,
    epoch: Instant,
    capacity: usize,
    state: Mutex<State<T>>,
}

struct State<T> {
    /// The next record's sequence number: the count ever recorded.
    next_seq: u64,
    records: VecDeque<T>,
}

impl<T: Sequenced + Clone> Ring<T> {
    /// A ring of `capacity` records (at least one), stamping times from
    /// `clock` relative to now.
    pub(crate) fn new(clock: ClockHandle, capacity: usize) -> Ring<T> {
        let capacity = capacity.max(1);
        Ring {
            epoch: clock.now(),
            clock,
            capacity,
            state: Mutex::new(State {
                next_seq: 0,
                records: VecDeque::with_capacity(capacity),
            }),
        }
    }

    /// Microseconds since this ring's epoch, on the ring's clock.
    pub(crate) fn now_micros(&self) -> u64 {
        self.micros_at(self.clock.now())
    }

    /// Converts an already-read clock instant to this ring's time base,
    /// so a hot path that timed its work anyway reads the clock once.
    pub(crate) fn micros_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Records `rec`, stamping its sequence number; a full ring drops its
    /// oldest record to make room.
    pub(crate) fn record(&self, mut rec: T) {
        // Bound outside the block: the evicted record drops after the
        // lock is released.
        let _evicted = {
            let mut s = self.state.lock();
            rec.set_seq(s.next_seq);
            s.next_seq += 1;
            let evicted = if s.records.len() == self.capacity {
                s.records.pop_front()
            } else {
                None
            };
            s.records.push_back(rec);
            evicted
        };
    }

    /// Total records ever recorded, dropped ones included. (Readers of a
    /// snapshot see the same from its sequence numbers; only the tests ask.)
    #[cfg(test)]
    pub(crate) fn recorded(&self) -> u64 {
        self.state.lock().next_seq
    }

    /// Records dropped to make room so far.
    #[cfg(test)]
    pub(crate) fn dropped(&self) -> u64 {
        let s = self.state.lock();
        s.next_seq - s.records.len() as u64
    }

    /// The last `limit` surviving records in emission order; `0` means all.
    pub(crate) fn tail(&self, limit: usize) -> Vec<T> {
        let s = self.state.lock();
        let skip = match limit {
            0 => 0,
            n => s.records.len().saturating_sub(n),
        };
        s.records.range(skip..).cloned().collect()
    }

    /// Every surviving record, in emission order.
    pub(crate) fn snapshot(&self) -> Vec<T> {
        self.tail(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[derive(Debug, Clone, PartialEq)]
    struct Rec {
        seq: u64,
        n: u64,
    }

    impl Sequenced for Rec {
        fn set_seq(&mut self, seq: u64) {
            self.seq = seq;
        }
    }

    fn ring(capacity: usize) -> Ring<Rec> {
        Ring::new(ClockHandle::system(), capacity)
    }

    fn fill(ring: &Ring<Rec>, count: u64) {
        for n in 0..count {
            ring.record(Rec { seq: u64::MAX, n });
        }
    }

    fn seqs(recs: &[Rec]) -> Vec<u64> {
        recs.iter().map(|r| r.seq).collect()
    }

    #[test]
    fn records_in_order() {
        let ring = ring(8);
        fill(&ring, 5);
        let recs = ring.snapshot();
        assert_eq!(seqs(&recs), vec![0, 1, 2, 3, 4]);
        assert_eq!(recs[3].n, 3);
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn concurrent_writers_keep_dense_seqs() {
        let ring = Arc::new(ring(1 << 12));
        let joins: Vec<_> = (0..4u64)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        ring.record(Rec {
                            seq: 0,
                            n: t * 1000 + i,
                        });
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        let recs = ring.snapshot();
        assert_eq!(recs.len(), 2000);
        for (i, rec) in recs.iter().enumerate() {
            assert_eq!(rec.seq, i as u64);
        }
    }

    #[test]
    fn tail_copies_out_only_the_last_records() {
        let ring = ring(8);
        assert!(ring.tail(3).is_empty());
        fill(&ring, 5);
        assert_eq!(seqs(&ring.tail(0)), vec![0, 1, 2, 3, 4], "0 means all");
        assert_eq!(seqs(&ring.tail(2)), vec![3, 4]);
        assert_eq!(seqs(&ring.tail(5)), vec![0, 1, 2, 3, 4]);
        assert_eq!(seqs(&ring.tail(100)), vec![0, 1, 2, 3, 4]);
        fill(&ring, 7);
        assert_eq!(seqs(&ring.tail(3)), vec![9, 10, 11], "after a wrap");
        assert_eq!(seqs(&ring.tail(0)), (4..12).collect::<Vec<_>>());
        assert_eq!(seqs(&ring.tail(9)), (4..12).collect::<Vec<_>>());
    }

    #[test]
    fn storage_is_reserved_once_and_never_reallocated() {
        const CAP: usize = 1000;
        let ring = ring(CAP);
        let reserved = ring.state.lock().records.capacity();
        assert!(reserved >= CAP);
        fill(&ring, 3 * CAP as u64);
        let s = ring.state.lock();
        assert_eq!(s.records.capacity(), reserved, "the ring reallocated");
        assert_eq!(s.records.len(), CAP);
    }
}
