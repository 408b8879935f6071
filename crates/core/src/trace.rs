//! The per-space trace ring: the collector's flight recorder.
//!
//! Every [`Space`](crate::Space) records each collector action as a
//! [`TraceEvent`] in one bounded ring (the crate's `Ring`, shared with
//! the span ring): sequence numbers are dense, and a full ring drops its
//! oldest event, so a reader can tell exactly how much history was lost.
//! Memory follows content: the ring's storage is reserved, not filled, up
//! front.
//!
//! The ring is the seam between the live collector and the conformance
//! oracle: tests drain it with [`Space::trace_events`](crate::Space::trace_events),
//! merge the rings of every space in the scenario, and replay the merged
//! trace into the formal model (`netobj_dgc_model::replay`).

use netobj_wire::TraceEvent;

use crate::ring::Sequenced;

/// Ring capacity (events) per space.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 15;

impl Sequenced for TraceEvent {
    fn set_seq(&mut self, seq: u64) {
        self.seq = seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Ring;
    use netobj_transport::ClockHandle;
    use netobj_wire::{SpaceId, TraceKind};

    fn ping(n: u128) -> TraceEvent {
        TraceEvent {
            seq: u64::MAX,
            at_micros: 0,
            kind: TraceKind::PingSent {
                owner: SpaceId::from_raw(n),
                client: SpaceId::from_raw(n + 1),
            },
        }
    }

    #[test]
    fn overwrites_oldest_on_wrap() {
        let ring: Ring<TraceEvent> = Ring::new(ClockHandle::system(), 4);
        for i in 0..10 {
            ring.record(ping(i));
        }
        let evs = ring.snapshot();
        assert_eq!(evs.first().unwrap().seq, 6);
        assert_eq!(evs.last().unwrap().seq, 9);
        assert_eq!(ring.dropped(), 6);
    }
}
