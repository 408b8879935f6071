//! The built-in introspection object.
//!
//! Every listening space exports an [`Introspect`] network object at the
//! reserved index [`ObjIx::INTROSPECT`], so any peer — a debugging
//! session, the `netobj-top` reporter, a CI smoke test — can ask a running
//! space for its counters, metrics text, recent call spans and collector
//! trace tail *using nothing but the object system itself*. There is no
//! separate admin port or protocol: introspection is just another network
//! object, reached by the same bootstrap import as the agent.
//!
//! Security note: the interface is strictly read-only. It exposes
//! aggregate counters, latency distributions and span metadata (method
//! indices, space ids, byte counts) but never argument or result payloads,
//! and it offers no mutating methods — importing it grants observation,
//! not control.

use std::sync::{Arc, Weak};

use netobj_transport::Endpoint;
use netobj_wire::{ObjIx, SpanRecord, TraceEvent};

use crate::error::{Error, NetResult};
use crate::space::{Space, SpaceInner};

crate::network_object! {
    /// Read-only observability queries answered by every listening space
    /// (served at the reserved index [`ObjIx::INTROSPECT`]).
    pub interface Introspect ("netobj.Introspect"):
        client IntrospectClient, export IntrospectExport
    {
        /// Every activity counter, as `(name, value)` pairs.
        0 [idempotent] => fn stats(&self) -> Vec<(String, u64)>;
        /// The full metrics snapshot in Prometheus text format.
        1 [idempotent] => fn metrics_text(&self) -> String;
        /// The most recent `limit` call spans (0 = all surviving).
        2 [idempotent] => fn spans(&self, limit: u64) -> Vec<SpanRecord>;
        /// The most recent `limit` collector trace events (0 = all
        /// surviving).
        3 [idempotent] => fn trace_tail(&self, limit: u64) -> Vec<TraceEvent>;
    }
}

/// Serves [`Introspect`] for one space. Holds the space weakly: the
/// object table entry must not keep its own space alive.
struct IntrospectImpl {
    inner: Weak<SpaceInner>,
}

impl IntrospectImpl {
    fn space(&self) -> NetResult<Space> {
        self.inner
            .upgrade()
            .map(Space::from_inner)
            .ok_or(Error::SpaceStopped)
    }
}

/// A wire `limit` as a ring tail length (a limit past `usize` is "all").
fn clamp(limit: u64) -> usize {
    usize::try_from(limit).unwrap_or(usize::MAX)
}

impl Introspect for IntrospectImpl {
    fn stats(&self) -> NetResult<Vec<(String, u64)>> {
        Ok(self
            .space()?
            .stats()
            .named()
            .into_iter()
            .map(|(name, v)| (name.to_string(), v))
            .collect())
    }

    fn metrics_text(&self) -> NetResult<String> {
        Ok(self.space()?.metrics_text())
    }

    fn spans(&self, limit: u64) -> NetResult<Vec<SpanRecord>> {
        Ok(self.space()?.inner.spans.tail(clamp(limit)))
    }

    fn trace_tail(&self, limit: u64) -> NetResult<Vec<TraceEvent>> {
        Ok(self.space()?.inner.trace.tail(clamp(limit)))
    }
}

/// Installs the introspection object at [`ObjIx::INTROSPECT`] (called by
/// the space builder for every listening space).
pub(crate) fn install(space: &Space) -> NetResult<()> {
    let imp = IntrospectImpl {
        inner: Arc::downgrade(&space.inner),
    };
    space.export_builtin(ObjIx::INTROSPECT, Arc::new(IntrospectExport(Arc::new(imp))))?;
    Ok(())
}

/// Connects to the introspection object of whatever space listens at
/// `ep` — the observability analogue of `netobj_agent::connect`.
pub fn connect(space: &Space, ep: &Endpoint) -> NetResult<IntrospectClient> {
    let handle = space.import_root(ep, ObjIx::INTROSPECT)?;
    IntrospectClient::narrow(handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netobj_transport::loopback::Loopback;

    /// Checks that `tail`, answered by a call made between the snapshots
    /// `before` and `after` of the same ring, holds the ring's last
    /// `limit` records (all of them for `0`) as they stood at the call.
    fn check_tail<T: PartialEq + std::fmt::Debug>(
        tail: &[T],
        limit: usize,
        before: &[T],
        after: &[T],
        seq: fn(&T) -> u64,
    ) {
        let (first, last) = (seq(&tail[0]), seq(tail.last().unwrap()));
        assert!(
            last >= seq(before.last().unwrap()),
            "not the latest records"
        );
        let run = &after[first as usize..=last as usize];
        assert_eq!(tail, run, "not the ring's records, in order");
        if limit == 0 || limit > last as usize {
            assert_eq!(first, 0, "limit {limit} left records out");
        } else {
            assert_eq!(tail.len(), limit);
        }
    }

    #[test]
    fn trace_tail_and_spans_return_the_last_limit_records() {
        let net = Loopback::new();
        let ep = Endpoint::loopback("introspected");
        let server = Space::builder()
            .transport(Arc::new(Arc::clone(&net)))
            .listen(ep.clone())
            .build()
            .unwrap();
        // Each client's import leaves a trace event (its dirty call), and
        // each served call a span.
        let clients: Vec<Space> = (0..4)
            .map(|_| {
                let client = Space::builder()
                    .transport(Arc::new(Arc::clone(&net)))
                    .build()
                    .unwrap();
                connect(&client, &ep).unwrap().stats().unwrap();
                client
            })
            .collect();
        assert!(server.spans().len() > 3 && server.trace_events().len() > 3);
        let intro = connect(&clients[0], &ep).unwrap();
        for limit in [0, 1, 3, 1_000] {
            let before = server.spans();
            let tail = intro.spans(limit as u64).unwrap();
            check_tail(&tail, limit, &before, &server.spans(), |s| s.seq);

            let before = server.trace_events();
            let tail = intro.trace_tail(limit as u64).unwrap();
            check_tail(&tail, limit, &before, &server.trace_events(), |e| e.seq);
        }
    }
}
