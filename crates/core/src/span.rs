//! The per-space span ring and causal trace propagation.
//!
//! Companion to [`crate::trace`]: where the trace ring records *collector*
//! actions for the conformance oracle, the span ring records *application
//! calls* for observability. Both are the crate's one `Ring`; only the
//! record type differs.
//!
//! This module also owns the two pieces of trace plumbing that are not
//! tied to a ring:
//!
//! - **Id allocation** (`IdAlloc`): trace and span ids are drawn from a
//!   per-space counter salted with the space id, so ids allocated by
//!   different spaces never collide and runs under a deterministic
//!   scenario yield deterministic ids.
//! - **The ambient scope** (`current_scope` / `enter_scope`): while a
//!   server worker dispatches a request, the request's trace and span ids
//!   are installed in a thread-local; any remote call the dispatched
//!   method makes on that thread picks them up, which is how a fan-out
//!   call chain ends up sharing one trace id with no API change for the
//!   application.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use netobj_wire::{SpaceId, SpanRecord};

use crate::ring::Sequenced;

/// Span-ring capacity (records) per space.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 12;

impl Sequenced for SpanRecord {
    fn set_seq(&mut self, seq: u64) {
        self.seq = seq;
    }
}

/// Allocates trace and span ids for one space.
///
/// Ids are `(low 32 bits of the space id) << 32 | per-space counter`, so
/// two spaces in a scenario hand out disjoint ids and a deterministic run
/// allocates deterministic ids. Zero (the wire encoding of "absent") is
/// never returned.
#[derive(Debug)]
pub(crate) struct IdAlloc {
    base: u64,
    next: AtomicU64,
}

impl IdAlloc {
    pub(crate) fn new(space: SpaceId) -> IdAlloc {
        IdAlloc {
            base: (space.as_raw() as u32 as u64) << 32,
            next: AtomicU64::new(1),
        }
    }

    pub(crate) fn next_id(&self) -> u64 {
        let n = self.next.fetch_add(1, Ordering::Relaxed) & 0xFFFF_FFFF;
        let id = self.base | n;
        if id == 0 {
            1
        } else {
            id
        }
    }
}

/// The causal identifiers ambient on the current thread: the trace being
/// continued and the span that encloses whatever runs next.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TraceScope {
    pub(crate) trace_id: u64,
    pub(crate) span_id: u64,
}

thread_local! {
    static CURRENT_SCOPE: Cell<TraceScope> = const { Cell::new(TraceScope { trace_id: 0, span_id: 0 }) };
}

/// The scope installed on this thread (zeroes when none).
pub(crate) fn current_scope() -> TraceScope {
    CURRENT_SCOPE.with(|c| c.get())
}

/// Installs `scope` on this thread until the returned guard drops, then
/// restores whatever was there before. Used by the server dispatcher
/// around each dispatch so nested outgoing calls continue the trace.
pub(crate) fn enter_scope(scope: TraceScope) -> ScopeGuard {
    let prev = CURRENT_SCOPE.with(|c| c.replace(scope));
    ScopeGuard { prev }
}

pub(crate) struct ScopeGuard {
    prev: TraceScope,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        CURRENT_SCOPE.with(|c| c.set(prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Ring;
    use netobj_transport::ClockHandle;
    use netobj_wire::{ObjIx, SpanKind, SpanOutcome, WireRep};

    fn span(trace: u64, id: u64) -> SpanRecord {
        SpanRecord {
            seq: u64::MAX,
            trace_id: trace,
            span_id: id,
            parent_span: 0,
            kind: SpanKind::Client,
            space: SpaceId::from_raw(1),
            peer: SpaceId::from_raw(2),
            target: WireRep::new(SpaceId::from_raw(2), ObjIx(3)),
            method: 0,
            label: String::new(),
            start_micros: 0,
            duration_micros: 1,
            queue_wait_micros: 0,
            service_micros: 0,
            marshal_bytes: 0,
            unmarshal_bytes: 0,
            retries: 0,
            breaker_open: false,
            outcome: SpanOutcome::Ok,
        }
    }

    #[test]
    fn ring_records_and_wraps() {
        let ring: Ring<SpanRecord> = Ring::new(ClockHandle::system(), 4);
        for i in 0..10 {
            ring.record(span(7, i));
        }
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans.first().unwrap().seq, 6);
        assert_eq!(spans.last().unwrap().seq, 9);
        assert_eq!(ring.dropped(), 6);
    }

    #[test]
    fn ids_are_nonzero_and_distinct() {
        let alloc = IdAlloc::new(SpaceId::from_raw(0));
        let a = alloc.next_id();
        let b = alloc.next_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn ids_from_different_spaces_differ() {
        let a = IdAlloc::new(SpaceId::from_raw(1)).next_id();
        let b = IdAlloc::new(SpaceId::from_raw(2)).next_id();
        assert_ne!(a, b);
    }

    #[test]
    fn scope_nests_and_restores() {
        assert_eq!(current_scope(), TraceScope::default());
        {
            let _g = enter_scope(TraceScope {
                trace_id: 5,
                span_id: 6,
            });
            assert_eq!(current_scope().trace_id, 5);
            {
                let _g2 = enter_scope(TraceScope {
                    trace_id: 7,
                    span_id: 8,
                });
                assert_eq!(current_scope().trace_id, 7);
            }
            assert_eq!(current_scope().span_id, 6);
        }
        assert_eq!(current_scope(), TraceScope::default());
    }
}
