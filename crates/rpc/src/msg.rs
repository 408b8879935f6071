//! RPC wire messages.
//!
//! A connection carries a stream of frames, each holding exactly one
//! [`RpcMsg`]. Requests flow from the connecting side to the accepting
//! side; replies flow back. The *caller's space identity* travels in every
//! request because the collector needs to know **which space** now holds
//! references — dirty sets list processes, not connections.
//!
//! Payload fields (request arguments, reply results) are [`Bytes`]: when a
//! message is decoded with [`RpcMsg::decode`], they are shared slices of
//! the received frame, so argument bytes travel from the transport's read
//! buffer to the dispatcher without a copy.

use std::borrow::Borrow;

use bytes::Bytes;
use netobj_transport::Segments;
use netobj_wire::pickle::{Pickle, PickleReader, PickleWriter};
use netobj_wire::{SpaceId, WireError, WireRep};

use crate::error::RemoteError;

/// A remote invocation request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Matches the reply to the caller's pending-call table.
    pub call_id: u64,
    /// The space issuing the call.
    pub caller: SpaceId,
    /// The object being invoked (it must be owned by the callee).
    pub target: WireRep,
    /// Method index within the target's interface.
    pub method: u32,
    /// Pickled arguments (opaque to this layer). A shared slice of the
    /// received frame when decoded via [`RpcMsg::decode`].
    pub args: Bytes,
    /// Causal trace identifier: allocated at the root caller of a call
    /// chain and propagated unchanged through every fan-out hop, so spans
    /// recorded in different spaces can be correlated. `0` means absent
    /// (an untraced caller).
    pub trace_id: u64,
    /// Identifier of this particular call within its trace. `0` = absent.
    pub span_id: u64,
}

/// A reply to a [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The request's `call_id`.
    pub call_id: u64,
    /// Pickled result on success, or a structured error.
    pub outcome: Result<Bytes, RemoteError>,
    /// If true, the callee holds resources (transient dirty entries for
    /// object references embedded in the result) until the caller sends a
    /// [`RpcMsg::ReplyAck`] for this call — the "copy acknowledgement" of
    /// the collector protocol, for the result direction.
    pub needs_ack: bool,
}

/// Any message that can appear on an RPC connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcMsg {
    /// An invocation request.
    Request(Request),
    /// An invocation reply.
    Reply(Reply),
    /// Acknowledges receipt *and processing* of a reply whose `needs_ack`
    /// flag was set: the caller has registered every object reference the
    /// result carried, so the callee may release its transient pins.
    ReplyAck(u64),
}

const TAG_REQUEST: u64 = 0;
const TAG_REPLY_OK: u64 = 1;
const TAG_REPLY_ERR: u64 = 2;
const TAG_REPLY_ACK: u64 = 3;

impl RpcMsg {
    /// Decodes one message from a received frame. Byte-string payloads
    /// (request args, reply results) come back as shared slices of `frame`
    /// — no copy; the frame's allocation stays alive as long as they do.
    pub fn decode(frame: &Bytes) -> netobj_wire::Result<RpcMsg> {
        let mut r = PickleReader::new(frame.as_ref());
        let v = Self::unpickle_from(&mut r, Some(frame))?;
        r.expect_end()?;
        Ok(v)
    }

    /// Encodes into a fresh frame payload.
    pub fn encode(&self) -> Bytes {
        Bytes::from(self.to_pickle_bytes())
    }

    fn unpickle_from(r: &mut PickleReader<'_>, src: Option<&Bytes>) -> netobj_wire::Result<RpcMsg> {
        // With a source frame, payloads alias it; without (the generic
        // `Pickle` path, used by tests/tools) they are copied out.
        fn payload(r: &mut PickleReader<'_>, src: Option<&Bytes>) -> netobj_wire::Result<Bytes> {
            match src {
                Some(frame) => r.get_bytes_shared(frame),
                None => Ok(Bytes::copy_from_slice(r.get_bytes()?)),
            }
        }
        match r.begin_variant()? {
            TAG_REQUEST => {
                let fields = r.begin_record()?;
                if fields != 7 {
                    return Err(WireError::OutOfRange("request record arity"));
                }
                Ok(RpcMsg::Request(Request {
                    call_id: u64::unpickle(r)?,
                    caller: SpaceId::unpickle(r)?,
                    target: WireRep::unpickle(r)?,
                    method: u32::unpickle(r)?,
                    args: payload(r, src)?,
                    trace_id: u64::unpickle(r)?,
                    span_id: u64::unpickle(r)?,
                }))
            }
            TAG_REPLY_OK => {
                let call_id = u64::unpickle(r)?;
                let needs_ack = bool::unpickle(r)?;
                let bytes = payload(r, src)?;
                Ok(RpcMsg::Reply(Reply {
                    call_id,
                    outcome: Ok(bytes),
                    needs_ack,
                }))
            }
            TAG_REPLY_ERR => {
                let call_id = u64::unpickle(r)?;
                let needs_ack = bool::unpickle(r)?;
                let e = RemoteError::unpickle(r)?;
                Ok(RpcMsg::Reply(Reply {
                    call_id,
                    outcome: Err(e),
                    needs_ack,
                }))
            }
            TAG_REPLY_ACK => {
                let call_id = u64::unpickle(r)?;
                Ok(RpcMsg::ReplyAck(call_id))
            }
            _ => Err(WireError::OutOfRange("rpc message tag")),
        }
    }

    /// Pickles the message, calling `payload` to write its payload — a
    /// request's args or a reply's result — in the place it goes.
    fn pickle_with<'m>(
        &'m self,
        w: &mut PickleWriter,
        payload: impl FnOnce(&mut PickleWriter, &'m Bytes),
    ) {
        match self {
            RpcMsg::Request(rq) => {
                w.begin_variant(TAG_REQUEST);
                w.begin_record(7);
                rq.call_id.pickle(w);
                rq.caller.pickle(w);
                rq.target.pickle(w);
                rq.method.pickle(w);
                payload(w, &rq.args);
                rq.trace_id.pickle(w);
                rq.span_id.pickle(w);
            }
            RpcMsg::Reply(rp) => {
                pickle_reply(w, rp.call_id, rp.needs_ack, rp.outcome.as_ref(), payload);
            }
            RpcMsg::ReplyAck(call_id) => {
                w.begin_variant(TAG_REPLY_ACK);
                call_id.pickle(w);
            }
        }
    }
}

/// Pickles a reply, calling `payload` to write a result in its place.
fn pickle_reply<P>(
    w: &mut PickleWriter,
    call_id: u64,
    needs_ack: bool,
    outcome: Result<P, impl Borrow<RemoteError>>,
    payload: impl FnOnce(&mut PickleWriter, P),
) {
    match outcome {
        Ok(result) => {
            w.begin_variant(TAG_REPLY_OK);
            call_id.pickle(w);
            needs_ack.pickle(w);
            payload(w, result);
        }
        Err(e) => {
            w.begin_variant(TAG_REPLY_ERR);
            call_id.pickle(w);
            needs_ack.pickle(w);
            e.borrow().pickle(w);
        }
    }
}

impl Pickle for RpcMsg {
    fn pickle(&self, w: &mut PickleWriter) {
        self.pickle_with(w, |w, payload| w.put_bytes(payload));
    }

    fn unpickle(r: &mut PickleReader<'_>) -> netobj_wire::Result<Self> {
        Self::unpickle_from(r, None)
    }
}

/// Payloads this long or longer are sent by reference instead of being
/// copied into the frame. Below it the copy is cheaper than the extra
/// iovec entries and the shared payload's refcount traffic. Measured as
/// encode plus blocking `send` over loopback TCP, pinned to one CPU of a
/// 2-vCPU x86-64 host (seven alternating rounds of 100k frames per size):
/// gathering costs 50–150 ns more per frame up to 2 KiB, breaks even at
/// about 4 KiB, and saves about 150 ns at 12–16 KiB.
pub const GATHER_MIN: usize = 4 * 1024;

/// A payload [`SendBuf`] copies into its buffer, or — from [`GATHER_MIN`]
/// bytes up — sends by reference.
trait Payload: AsRef<[u8]> {
    /// The payload as a shared piece of the frame.
    fn into_shared(self) -> Bytes;
}

impl Payload for &Bytes {
    fn into_shared(self) -> Bytes {
        self.clone()
    }
}

/// A dispatcher's result: moved, not copied, into the frame when large,
/// and never wrapped (which costs an allocation) when small.
impl Payload for Vec<u8> {
    fn into_shared(self) -> Bytes {
        Bytes::from(self)
    }
}

/// A recycling frame encoder.
///
/// Encodes one message at a time into the [`Segments`] of one frame.
/// Everything but a bulk payload is written into this encoder's buffer. A
/// payload of [`GATHER_MIN`] bytes or more is not copied: it leaves by
/// reference, as the middle piece between the buffer's head — which ends
/// with the payload's byte-string header — and its tail (a request's span
/// ids). A smaller frame is one piece. The buffer's allocation is
/// reclaimed for the next encode as soon as the transport has dropped the
/// previous frame — steady-state, a connection sends every frame from
/// the same buffer. Callers serialise access (the RPC server keeps one per
/// connection, under a mutex).
#[derive(Default)]
pub struct SendBuf {
    spare: Option<Bytes>,
}

impl SendBuf {
    /// Creates an encoder with no buffer yet.
    pub fn new() -> SendBuf {
        SendBuf::default()
    }

    /// Encodes `msg`; the pieces, concatenated, are [`RpcMsg::encode`].
    pub fn encode(&mut self, msg: &RpcMsg) -> Segments {
        let mut w = self.writer();
        let mut gathered = None;
        msg.pickle_with(&mut w, |w, p| put_payload(w, p, &mut gathered));
        self.seal(w, gathered)
    }

    /// Encodes a reply straight from a dispatcher's outcome — the server's
    /// per-call path. Wire-identical to `encode(&RpcMsg::Reply(..))`, but
    /// a result under [`GATHER_MIN`] is copied from the `Vec` and dropped
    /// rather than first wrapped in a [`Bytes`], which would cost every
    /// small reply an allocation.
    pub fn encode_reply(
        &mut self,
        call_id: u64,
        needs_ack: bool,
        outcome: Result<Vec<u8>, RemoteError>,
    ) -> Segments {
        let mut w = self.writer();
        let mut gathered = None;
        pickle_reply(&mut w, call_id, needs_ack, outcome, |w, p| {
            put_payload(w, p, &mut gathered)
        });
        self.seal(w, gathered)
    }

    fn writer(&mut self) -> PickleWriter {
        let recycled = match self.spare.take().map(Bytes::try_reclaim) {
            Some(Ok(v)) => v,
            // First use, or the previous frame is still in flight.
            _ => Vec::new(),
        };
        PickleWriter::from_vec(recycled)
    }

    /// The frame: the buffer, or — around a gathered payload — its head,
    /// the payload and its tail.
    fn seal(&mut self, w: PickleWriter, gathered: Option<(usize, Bytes)>) -> Segments {
        let buf = Bytes::from(w.into_bytes());
        self.spare = Some(buf.clone());
        match gathered {
            None => Segments::from(buf),
            Some((at, payload)) => Segments::new(buf.slice(..at), payload, buf.slice(at..)),
        }
    }
}

/// Writes `payload` — or, from [`GATHER_MIN`] bytes up, only its header,
/// leaving in `gathered` where the payload goes and the payload itself, to
/// be sent by reference.
fn put_payload(w: &mut PickleWriter, payload: impl Payload, gathered: &mut Option<(usize, Bytes)>) {
    let len = payload.as_ref().len();
    if len < GATHER_MIN {
        w.put_bytes(payload.as_ref());
    } else {
        w.put_bytes_header(len);
        *gathered = Some((w.len(), payload.into_shared()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RemoteErrorKind;
    use netobj_wire::ObjIx;

    fn sample_request() -> RpcMsg {
        RpcMsg::Request(Request {
            call_id: 42,
            caller: SpaceId::from_raw(7),
            target: WireRep::new(SpaceId::from_raw(9), ObjIx(3)),
            method: 2,
            args: Bytes::from(vec![1, 2, 3]),
            trace_id: 0xDEAD_BEEF,
            span_id: 0xFEED,
        })
    }

    #[test]
    fn request_roundtrip() {
        let m = sample_request();
        let bytes = m.to_pickle_bytes();
        assert_eq!(RpcMsg::from_pickle_bytes(&bytes).unwrap(), m);
    }

    #[test]
    fn decode_shares_frame_storage() {
        let m = sample_request();
        let frame = m.encode();
        let decoded = RpcMsg::decode(&frame).unwrap();
        assert_eq!(decoded, m);
        let RpcMsg::Request(rq) = decoded else {
            panic!("expected request")
        };
        // The args slice aliases the frame, not a fresh allocation.
        let frame_range = frame.as_ptr() as usize..frame.as_ptr() as usize + frame.len();
        assert!(frame_range.contains(&(rq.args.as_ptr() as usize)));
    }

    #[test]
    fn reply_ok_roundtrip() {
        for needs_ack in [false, true] {
            let m = RpcMsg::Reply(Reply {
                call_id: 42,
                outcome: Ok(Bytes::from(vec![9, 9])),
                needs_ack,
            });
            let bytes = m.to_pickle_bytes();
            assert_eq!(RpcMsg::from_pickle_bytes(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn reply_err_roundtrip() {
        let m = RpcMsg::Reply(Reply {
            call_id: 1,
            outcome: Err(RemoteError::new(RemoteErrorKind::NoSuchObject, "gone")),
            needs_ack: false,
        });
        let bytes = m.to_pickle_bytes();
        assert_eq!(RpcMsg::from_pickle_bytes(&bytes).unwrap(), m);
    }

    #[test]
    fn reply_ack_roundtrip() {
        let m = RpcMsg::ReplyAck(1234);
        let bytes = m.to_pickle_bytes();
        assert_eq!(RpcMsg::from_pickle_bytes(&bytes).unwrap(), m);
    }

    #[test]
    fn empty_args_and_result() {
        let m = RpcMsg::Request(Request {
            call_id: 0,
            caller: SpaceId::from_raw(0),
            target: WireRep::new(SpaceId::from_raw(0), ObjIx(0)),
            method: 0,
            args: Bytes::new(),
            trace_id: 0,
            span_id: 0,
        });
        let bytes = m.to_pickle_bytes();
        assert_eq!(RpcMsg::from_pickle_bytes(&bytes).unwrap(), m);
    }

    #[test]
    fn unexpected_request_arity_rejected() {
        let mut w = PickleWriter::new();
        w.begin_variant(0); // TAG_REQUEST
        w.begin_record(6);
        assert!(RpcMsg::from_pickle_bytes(w.as_bytes()).is_err());
    }

    #[test]
    fn bad_tag_rejected() {
        let mut w = PickleWriter::new();
        w.begin_variant(77);
        assert!(RpcMsg::from_pickle_bytes(w.as_bytes()).is_err());
    }

    #[test]
    fn truncation_never_panics() {
        let bytes = sample_request().to_pickle_bytes();
        for cut in 0..bytes.len() {
            let _ = RpcMsg::from_pickle_bytes(&bytes[..cut]);
        }
    }

    fn request_with(args: Bytes) -> RpcMsg {
        let RpcMsg::Request(rq) = sample_request() else {
            unreachable!()
        };
        RpcMsg::Request(Request { args, ..rq })
    }

    fn reply_with(bytes: Bytes) -> RpcMsg {
        RpcMsg::Reply(Reply {
            call_id: 7,
            outcome: Ok(bytes),
            needs_ack: true,
        })
    }

    /// Lengths around the gather threshold, and well past it.
    const LENGTHS: [usize; 6] = [0, 1, GATHER_MIN - 1, GATHER_MIN, 64 * 1024, 1024 * 1024];

    fn payload_of(len: usize) -> Bytes {
        Bytes::from((0..len).map(|i| i as u8).collect::<Vec<u8>>())
    }

    /// A frame is one piece below the gather threshold, and from it on
    /// three, the middle one being `payload` itself, not a copy.
    fn assert_shape(frame: &Segments, payload: &[u8]) {
        let pieces: Vec<&Bytes> = frame.iter().collect();
        if payload.len() < GATHER_MIN {
            assert_eq!(pieces.len(), 1, "{}", payload.len());
        } else {
            assert_eq!(pieces.len(), 3, "{}", payload.len());
            assert_eq!(pieces[1].as_ptr(), payload.as_ptr());
        }
    }

    /// The encoder's frames, gathered or not, are the bytes of the generic
    /// encoding, for requests and replies at every payload length.
    #[test]
    fn send_buf_frames_match_encode_at_every_payload_length() {
        let mut sb = SendBuf::new();
        for len in LENGTHS {
            let payload = payload_of(len);
            for msg in [request_with(payload.clone()), reply_with(payload.clone())] {
                let frame = sb.encode(&msg);
                assert_shape(&frame, &payload);
                assert_eq!(frame.concat(), msg.encode(), "{len}");
            }
        }
        let error = RpcMsg::Reply(Reply {
            call_id: 9,
            outcome: Err(RemoteError::new(RemoteErrorKind::NoSuchObject, "gone")),
            needs_ack: false,
        });
        for msg in [error, RpcMsg::ReplyAck(3)] {
            assert_eq!(sb.encode(&msg).concat(), msg.encode());
        }
    }

    /// `encode_reply` must stay byte-identical to encoding the equivalent
    /// `RpcMsg::Reply` — it is the same wire format, minus an allocation —
    /// and a large result must leave as the dispatcher's own buffer.
    #[test]
    fn encode_reply_matches_generic_encoding() {
        let mut sb = SendBuf::new();
        for len in LENGTHS {
            let result = payload_of(len).to_vec();
            let at = result.as_ptr();
            let frame = sb.encode_reply(7, true, Ok(result));
            if len >= GATHER_MIN {
                assert_eq!(
                    frame.iter().nth(1).unwrap().as_ptr(),
                    at,
                    "moved, not copied"
                );
            }
            assert_eq!(
                frame.concat(),
                reply_with(payload_of(len)).encode(),
                "{len}"
            );
        }
        let e = RemoteError::new(RemoteErrorKind::NoSuchObject, "gone");
        let err = sb.encode_reply(9, false, Err(e.clone()));
        let via_msg = RpcMsg::Reply(Reply {
            call_id: 9,
            outcome: Err(e),
            needs_ack: false,
        })
        .encode();
        assert_eq!(err.concat(), via_msg);
    }

    #[test]
    fn send_buf_recycles_released_allocation() {
        let mut sb = SendBuf::new();
        let m = RpcMsg::ReplyAck(1);
        let f1 = sb.encode(&m).concat();
        let p1 = f1.as_ptr() as usize;
        drop(f1); // transport done with the frame
        let f2 = sb.encode(&m).concat();
        assert_eq!(p1, f2.as_ptr() as usize, "allocation reused");

        // While a frame is still alive, the encoder must not clobber it.
        let f3 = sb.encode(&RpcMsg::ReplyAck(2)).concat();
        assert_eq!(RpcMsg::decode(&f2).unwrap(), RpcMsg::ReplyAck(1));
        assert_eq!(RpcMsg::decode(&f3).unwrap(), RpcMsg::ReplyAck(2));
    }

    /// A gathered frame's head and tail come from the recycled buffer too;
    /// the payload stays the caller's and is never written into it.
    #[test]
    fn send_buf_recycles_around_a_gathered_payload() {
        let mut sb = SendBuf::new();
        let payload = Bytes::from(vec![5u8; 4 * GATHER_MIN]);
        let head_of = |frame: &Segments| frame.iter().next().unwrap().as_ptr() as usize;
        let f1 = sb.encode(&request_with(payload.clone()));
        let p1 = head_of(&f1);
        drop(f1);
        let f2 = sb.encode(&request_with(payload.clone()));
        assert_eq!(p1, head_of(&f2), "allocation reused");
        let small = sb.encode(&RpcMsg::ReplyAck(2)).concat();
        assert_eq!(f2.concat(), request_with(payload).encode());
        assert_eq!(RpcMsg::decode(&small).unwrap(), RpcMsg::ReplyAck(2));
    }
}
