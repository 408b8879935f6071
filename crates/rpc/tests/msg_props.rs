//! Property-based tests for the RPC message format, centred on the span
//! header added to requests: ids round-trip bit-exactly for every frame
//! kind, and the original 5-field request form, without the span
//! header, is refused.

use proptest::prelude::*;

use netobj_rpc::msg::{Reply, Request, RpcMsg};
use netobj_rpc::{RemoteError, RemoteErrorKind};
use netobj_wire::pickle::{Pickle, PickleWriter};
use netobj_wire::{ObjIx, SpaceId, WireError, WireRep};

fn arb_request() -> impl Strategy<Value = Request> {
    (
        (any::<u64>(), any::<u128>(), any::<u128>(), any::<u64>()),
        (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..64)),
        // Include 0 ("absent") with its natural probability plus both
        // all-absent and all-present corners below.
        (any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((call_id, caller, ts, tix), (method, args), (trace_id, span_id))| Request {
                call_id,
                caller: SpaceId::from_raw(caller),
                target: WireRep::new(SpaceId::from_raw(ts), ObjIx(tix)),
                method,
                args: args.into(),
                trace_id,
                span_id,
            },
        )
}

fn arb_msg() -> impl Strategy<Value = RpcMsg> {
    prop_oneof![
        arb_request().prop_map(RpcMsg::Request),
        (
            any::<u64>(),
            any::<bool>(),
            proptest::collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(|(call_id, needs_ack, bytes)| RpcMsg::Reply(Reply {
                call_id,
                outcome: Ok(bytes.into()),
                needs_ack,
            })),
        (any::<u64>(), any::<bool>(), ".*").prop_map(|(call_id, needs_ack, m)| RpcMsg::Reply(
            Reply {
                call_id,
                outcome: Err(RemoteError::new(RemoteErrorKind::NoSuchObject, m)),
                needs_ack,
            }
        )),
        any::<u64>().prop_map(RpcMsg::ReplyAck),
    ]
}

proptest! {
    /// Every message kind round-trips bit-exactly, span ids included.
    #[test]
    fn messages_roundtrip(m in arb_msg()) {
        let bytes = m.to_pickle_bytes();
        prop_assert_eq!(RpcMsg::from_pickle_bytes(&bytes).unwrap(), m);
    }

    /// Requests with the span ids explicitly absent (0,0) — what we send
    /// on behalf of untraced callers — survive the trip unchanged.
    #[test]
    fn absent_ids_roundtrip(rq in arb_request()) {
        let m = RpcMsg::Request(Request { trace_id: 0, span_id: 0, ..rq });
        let bytes = m.to_pickle_bytes();
        prop_assert_eq!(RpcMsg::from_pickle_bytes(&bytes).unwrap(), m);
    }

    /// A request hand-encoded in the original 5-field format, without the
    /// span header, is refused as a record of the wrong arity.
    #[test]
    fn old_format_is_rejected(rq in arb_request()) {
        let mut w = PickleWriter::new();
        w.begin_variant(0); // TAG_REQUEST
        w.begin_record(5);
        rq.call_id.pickle(&mut w);
        rq.caller.pickle(&mut w);
        rq.target.pickle(&mut w);
        rq.method.pickle(&mut w);
        w.put_bytes(&rq.args);
        prop_assert_eq!(
            RpcMsg::from_pickle_bytes(w.as_bytes()),
            Err(WireError::OutOfRange("request record arity"))
        );
    }

    /// Decoding truncated request bytes never panics (totality of the
    /// decoder over the new 7-field form).
    #[test]
    fn truncated_requests_never_panic(rq in arb_request(), cut in 0usize..200) {
        let bytes = RpcMsg::Request(rq).to_pickle_bytes();
        let cut = cut.min(bytes.len());
        let _ = RpcMsg::from_pickle_bytes(&bytes[..cut]);
    }
}
