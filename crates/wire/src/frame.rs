//! Length-prefixed message framing.
//!
//! Every transport in this system carries discrete messages ("frames"), not
//! byte streams. Stream transports such as TCP use the helpers here to
//! delimit frames with a 4-byte little-endian length prefix. Datagram-like
//! transports (the in-process simulator) carry frames natively and only use
//! the size limit check.
//!
//! The decoder yields [`Bytes`] views of its internal buffer: a complete
//! frame is split off by refcount, not copied, so the payload handed to the
//! RPC layer is the same allocation the transport read into — and the
//! transport reads into it directly ([`FrameDecoder::read_with`]), so a
//! received byte is written once, by the kernel.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::WireError;
use crate::Result;

/// Default maximum frame size accepted by a decoder (16 MiB).
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

/// Largest payload expressible in the 4-byte length prefix.
pub const MAX_WIRE_FRAME: usize = u32::MAX as usize;

/// Encodes one frame (length prefix + payload) onto `out`.
///
/// Fails with [`WireError::FrameTooLarge`] if the payload cannot be
/// represented in the prefix — truncating the length would desynchronise
/// the stream for every later frame.
pub fn encode_frame(out: &mut BytesMut, payload: &[u8]) -> Result<()> {
    let prefix = frame_prefix(payload.len())?;
    out.reserve(4 + payload.len());
    out.put_slice(&prefix);
    out.put_slice(payload);
    Ok(())
}

/// Encodes just the length prefix for a payload of `payload_len` bytes.
///
/// Stream transports use this to write prefix and payload as separate
/// (gathered) writes instead of assembling them into one buffer.
pub fn frame_prefix(payload_len: usize) -> Result<[u8; 4]> {
    if payload_len > MAX_WIRE_FRAME {
        return Err(WireError::FrameTooLarge {
            declared: payload_len,
            limit: MAX_WIRE_FRAME,
        });
    }
    Ok((payload_len as u32).to_le_bytes())
}

/// Returns the encoded size of a frame carrying `payload_len` bytes.
pub const fn frame_overhead() -> usize {
    4
}

/// The least [`FrameDecoder::read_with`] asks for: a read with no frame in
/// progress, or with only a little of one left, reserves this much.
///
/// Small, because it is what a read allocates when it cannot reuse the
/// buffer — a frame split off it is still held by whoever serves it — and
/// such a read most often finds one small frame, or nothing at all (a
/// reactor visit's last read). A buffer that can be reused reads into all
/// the room it already has, so this floor does not shrink its reads.
pub const MIN_READ: usize = 512;

/// The most [`FrameDecoder::read_with`] reserves beyond the bytes already
/// buffered. A length prefix alone buys no more memory than this: a peer
/// that declares a 16 MiB frame and sends four bytes costs one step, and
/// the buffer grows only as the declared bytes actually arrive.
pub const READ_STEP: usize = 256 * 1024;

/// Incremental frame decoder for stream transports.
///
/// Feed bytes in with [`FrameDecoder::read_with`] (a transport receiving
/// into the decoder's own buffer) or [`FrameDecoder::extend`] (a copy of
/// bytes already at hand); pull complete frames out with
/// [`FrameDecoder::next_frame`]. Partial frames are buffered until the rest
/// arrives.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: BytesMut,
    max_frame: usize,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        FrameDecoder::new(DEFAULT_MAX_FRAME)
    }
}

impl FrameDecoder {
    /// Creates a decoder that rejects frames larger than `max_frame`.
    pub fn new(max_frame: usize) -> FrameDecoder {
        FrameDecoder {
            buf: BytesMut::new(),
            max_frame,
        }
    }

    /// Appends newly received bytes to the internal buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends bytes received straight into the decoder's buffer, with no
    /// staging copy: `read` is handed the buffer's backing vector and a
    /// byte count, appends at most that many (one `recv` into the spare
    /// capacity, typically) and returns how many, or its error, which is
    /// passed through. `limit` (non-zero) caps the count.
    ///
    /// The count is sized from the frame in progress: all of it that is
    /// still missing once its length prefix is in, so a 64 KiB frame
    /// takes one or two reads rather than one per fixed-size chunk; at
    /// least [`MIN_READ`]; and at least all the room the buffer already
    /// has, which costs nothing. The buffer is asked to hold at most
    /// [`READ_STEP`] more than it has buffered (the vector's amortised
    /// growth may round that up to twice its capacity), so memory follows
    /// the bytes that actually arrived, never the length a prefix claims.
    pub fn read_with<E>(
        &mut self,
        limit: usize,
        read: impl FnOnce(&mut Vec<u8>, usize) -> std::result::Result<usize, E>,
    ) -> std::result::Result<usize, E> {
        debug_assert!(limit > 0, "a read of nothing looks like end of stream");
        let missing = self.declared_len().map_or(0, |len| {
            len.saturating_add(4).saturating_sub(self.buf.len())
        });
        let reserve = missing.clamp(MIN_READ, READ_STEP).min(limit);
        self.buf.append_with(reserve, |v| {
            let room = v.capacity() - v.len();
            read(v, room.min(limit))
        })
    }

    /// Bytes currently buffered but not yet yielded as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// The length the next frame's prefix declares, once all of it is in.
    fn declared_len(&self) -> Option<usize> {
        let prefix: [u8; 4] = self.buf.get(..4)?.try_into().ok()?;
        Some(u32::from_le_bytes(prefix) as usize)
    }

    /// Attempts to extract the next complete frame.
    ///
    /// Returns `Ok(None)` if more bytes are needed, `Ok(Some(payload))` for
    /// a complete frame, or an error if the declared length exceeds the
    /// maximum (the connection should then be dropped). The payload shares
    /// the decoder's buffer — no copy.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>> {
        let Some(len) = self.declared_len() else {
            return Ok(None);
        };
        if len > self.max_frame {
            return Err(WireError::FrameTooLarge {
                declared: len,
                limit: self.max_frame,
            });
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        self.buf.advance(4);
        Ok(Some(self.buf.split_to_bytes(len)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_then_decode_one_frame() {
        let mut out = BytesMut::new();
        encode_frame(&mut out, b"hello").unwrap();
        let mut d = FrameDecoder::default();
        d.extend(&out);
        assert_eq!(&d.next_frame().unwrap().unwrap()[..], b"hello");
        assert_eq!(d.next_frame().unwrap(), None);
    }

    #[test]
    fn decode_across_partial_feeds() {
        let mut out = BytesMut::new();
        encode_frame(&mut out, b"abcdef").unwrap();
        let bytes = out.to_vec();
        let mut d = FrameDecoder::default();
        for b in &bytes {
            assert!(matches!(d.next_frame(), Ok(None) | Ok(Some(_))));
            d.extend(std::slice::from_ref(b));
        }
        assert_eq!(&d.next_frame().unwrap().unwrap()[..], b"abcdef");
    }

    #[test]
    fn multiple_frames_in_one_feed() {
        let mut out = BytesMut::new();
        encode_frame(&mut out, b"one").unwrap();
        encode_frame(&mut out, b"").unwrap();
        encode_frame(&mut out, b"three").unwrap();
        let mut d = FrameDecoder::default();
        d.extend(&out);
        assert_eq!(&d.next_frame().unwrap().unwrap()[..], b"one");
        assert_eq!(&d.next_frame().unwrap().unwrap()[..], b"");
        assert_eq!(&d.next_frame().unwrap().unwrap()[..], b"three");
        assert_eq!(d.next_frame().unwrap(), None);
        assert_eq!(d.buffered(), 0);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut d = FrameDecoder::new(8);
        let mut out = BytesMut::new();
        encode_frame(&mut out, &[0u8; 64]).unwrap();
        d.extend(&out);
        assert!(matches!(
            d.next_frame(),
            Err(WireError::FrameTooLarge {
                declared: 64,
                limit: 8
            })
        ));
    }

    #[test]
    fn empty_frame_roundtrip() {
        let mut out = BytesMut::new();
        encode_frame(&mut out, b"").unwrap();
        assert_eq!(out.len(), frame_overhead());
        let mut d = FrameDecoder::default();
        d.extend(&out);
        assert_eq!(d.next_frame().unwrap().unwrap().len(), 0);
    }

    #[test]
    fn yielded_frames_survive_later_feeds() {
        // The zero-copy split must not let later buffer writes clobber a
        // frame already handed out.
        let mut out = BytesMut::new();
        encode_frame(&mut out, b"first").unwrap();
        let mut d = FrameDecoder::default();
        d.extend(&out);
        let first = d.next_frame().unwrap().unwrap();
        let mut out2 = BytesMut::new();
        encode_frame(&mut out2, b"second-longer-frame").unwrap();
        d.extend(&out2);
        let second = d.next_frame().unwrap().unwrap();
        assert_eq!(&first[..], b"first");
        assert_eq!(&second[..], b"second-longer-frame");
    }

    /// A reader over `src` that hands out at most `cap` bytes per read,
    /// counting its reads.
    struct Source<'a> {
        src: &'a [u8],
        cap: usize,
        reads: usize,
    }

    impl Source<'_> {
        fn read(&mut self, d: &mut FrameDecoder, limit: usize) -> usize {
            d.read_with(limit, |v, ask| {
                assert!(
                    ask > 0 && ask <= v.capacity() - v.len(),
                    "asked past the room"
                );
                let n = ask.min(self.cap).min(self.src.len());
                v.extend_from_slice(&self.src[..n]);
                self.src = &self.src[n..];
                self.reads += 1;
                Ok::<_, ()>(n)
            })
            .unwrap()
        }
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = BytesMut::new();
        encode_frame(&mut out, payload).unwrap();
        out.to_vec()
    }

    /// Once the prefix is in, the read asks for the whole rest of the
    /// frame; once the buffer has grown to a frame's size, the next such
    /// frame fits the room it already has.
    #[test]
    fn reads_are_sized_from_the_declared_length() {
        let payload = vec![7u8; 64 * 1024];
        let stream = [framed(&payload), framed(&payload)].concat();
        let mut src = Source {
            src: &stream,
            cap: usize::MAX,
            reads: 0,
        };
        let mut d = FrameDecoder::default();
        src.read(&mut d, usize::MAX); // MIN_READ: the prefix and some
        src.read(&mut d, usize::MAX); // exactly the rest of the frame
        assert_eq!(d.next_frame().unwrap().unwrap(), payload);
        assert_eq!(src.reads, 2);
        while d.next_frame().unwrap().is_none() {
            src.read(&mut d, usize::MAX);
        }
        assert_eq!(src.reads, 3, "a warm buffer takes a frame in one read");
        assert!(src.src.is_empty());
    }

    /// A read that cannot reuse the buffer, because a frame split off it
    /// is still held, starts a small one, however large the held frame,
    /// and leaves the held frame intact.
    #[test]
    fn a_held_frame_costs_the_next_read_a_small_buffer() {
        let payload = vec![3u8; 64 * 1024];
        let stream = framed(&payload);
        let mut src = Source {
            src: &stream,
            cap: usize::MAX,
            reads: 0,
        };
        let mut d = FrameDecoder::default();
        while d.buffered() < stream.len() {
            src.read(&mut d, usize::MAX);
        }
        let held = d.next_frame().unwrap().unwrap();
        assert_eq!(src.read(&mut d, usize::MAX), 0); // a visit's last read
        assert!(d.buf.capacity() <= MIN_READ, "{}", d.buf.capacity());
        assert_eq!(held, payload);
    }

    /// A prefix declaring a huge frame buys one bounded step of memory;
    /// after that the buffer grows only as the bytes arrive (amortised
    /// doubling: at most twice what is buffered plus a step).
    #[test]
    fn a_declared_length_alone_reserves_one_step() {
        let mut d = FrameDecoder::default();
        let prefix = frame_prefix(DEFAULT_MAX_FRAME).unwrap();
        let mut src = Source {
            src: &prefix,
            cap: usize::MAX,
            reads: 0,
        };
        src.read(&mut d, usize::MAX);
        assert_eq!(d.next_frame().unwrap(), None);
        let body = vec![0u8; 1024 * 1024];
        let mut src = Source {
            src: &body,
            cap: 1,
            reads: 0,
        };
        src.read(&mut d, usize::MAX);
        assert!(d.buf.capacity() <= 4 + READ_STEP, "{}", d.buf.capacity());
        let mut src = Source {
            src: &body[1..],
            cap: 64 * 1024,
            reads: 0,
        };
        while !src.src.is_empty() {
            src.read(&mut d, usize::MAX);
            assert!(d.buf.capacity() <= 2 * (d.buffered() + READ_STEP));
        }
        assert_eq!(d.buffered(), 4 + body.len());
    }

    /// `limit` caps a read however much room or frame there is.
    #[test]
    fn limit_caps_a_read() {
        let stream = framed(&[1u8; 1000]);
        let mut src = Source {
            src: &stream,
            cap: usize::MAX,
            reads: 0,
        };
        let mut d = FrameDecoder::default();
        assert_eq!(src.read(&mut d, 100), 100);
        assert_eq!(src.read(&mut d, 100), 100);
        assert_eq!(d.buffered(), 200);
    }

    // The length prefix is 32-bit: a payload longer than u32::MAX must be
    // refused, not silently truncated. Allocating 4 GiB in a unit test is
    // not realistic, so this exercises the prefix helper directly.
    #[test]
    fn oversize_payload_refused_at_encode() {
        assert!(frame_prefix(MAX_WIRE_FRAME).is_ok());
        assert!(matches!(
            frame_prefix(MAX_WIRE_FRAME + 1),
            Err(WireError::FrameTooLarge { .. })
        ));
    }
}
