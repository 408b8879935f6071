//! The TCP transport: length-prefixed frames over `std::net` streams.
//!
//! Used by the cross-process examples and the loopback-TCP rows of the
//! latency experiments. `TCP_NODELAY` is set, as the original runtime did,
//! because RPC traffic is latency-bound, not throughput-bound.
//!
//! A connection is one socket, one file descriptor, and one of two types,
//! by who reads it:
//!
//! - **`TcpConn`**, read by its caller: every dialled connection, and every
//!   one taken with the blocking [`Listener::accept`]. The socket blocks;
//!   `recv` waits on it, and `send` writes a whole frame synchronously.
//! - **`ServedConn`**, read by the reactor: every connection that
//!   `accept_nonblocking` takes. The socket is non-blocking from birth;
//!   `send` enqueues the frame on an outbound queue and wakes the reactor
//!   (unless the reactor is visiting the connection, and so about to flush
//!   anyway), which flushes many queued frames in one vectored write
//!   (`drive_write`) and pushes inbound frames to the registered driver
//!   (`drive_read`). Nothing else can `recv` from it.
//!
//! Either way a frame's bytes are copied by neither direction: a frame
//! given as [`Segments`] is written by gathering its pieces where they lie,
//! and a `recv` lands in the frame decoder's own buffer.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
#[cfg(unix)]
use std::sync::OnceLock;
use std::time::Duration;

use bytes::Bytes;
use netobj_wire::frame::{frame_prefix, FrameDecoder};
use parking_lot::Mutex;

use crate::endpoint::Endpoint;
use crate::error::TransportError;
use crate::reactor::{
    AcceptPoll, FlushReport, Pollable, PollableListener, ReactorWaker, ReadDrive, ReadReport,
};
use crate::{Conn, Listener, Result, Segments, Transport};

/// The TCP transport (stateless; connections carry all state).
#[derive(Debug, Default, Clone, Copy)]
pub struct Tcp;

/// Cap on queued outbound bytes per reactor-managed connection. A peer
/// that stops reading while replies keep accumulating gets disconnected
/// rather than growing the queue without bound (64 MiB ≈ four max frames).
const OUTBOUND_LIMIT: usize = 64 * 1024 * 1024;

/// Bytes read from one connection per readiness visit, so one firehose
/// peer cannot monopolise the reactor thread; the level-evaluated rearm
/// brings it back for the rest.
const MAX_READ_PER_VISIT: usize = 128 * 1024;

/// Cap on frames gathered into a single vectored write. Linux caps an
/// iovec list at 1024 entries; 16 frames per syscall already captures
/// nearly all the coalescing benefit.
const MAX_FRAMES_PER_WRITEV: usize = 16;

/// Iovec entries one frame can take: its prefix and its three pieces.
const SLICES_PER_FRAME: usize = 4;

/// One outbound frame: its 4-byte length prefix plus the frame's pieces,
/// shared, never re-assembled — writes gather them into one iovec list.
struct QueuedFrame {
    prefix: [u8; 4],
    frame: Segments,
}

impl QueuedFrame {
    fn new(frame: Segments) -> Result<QueuedFrame> {
        Ok(QueuedFrame {
            prefix: frame_prefix(frame.len())?,
            frame,
        })
    }

    /// Bytes this frame puts on the wire, prefix included (which is what
    /// the prefix says, plus itself).
    fn len(&self) -> usize {
        4 + u32::from_le_bytes(self.prefix) as usize
    }
}

/// Fills `iov` with what `frames` put on the wire after their first `skip`
/// bytes — a write cursor may stop anywhere, inside any piece — and
/// returns how many entries it used.
fn gather<'a>(
    frames: impl IntoIterator<Item = &'a QueuedFrame>,
    mut skip: usize,
    iov: &mut [IoSlice<'a>],
) -> usize {
    let mut used = 0;
    for frame in frames {
        let [head, body, tail] = frame.frame.slices();
        for piece in [&frame.prefix[..], head, body, tail] {
            if skip >= piece.len() {
                skip -= piece.len();
                continue;
            }
            if used == iov.len() {
                return used;
            }
            iov[used] = IoSlice::new(&piece[skip..]);
            skip = 0;
            used += 1;
        }
    }
    used
}

/// Writes `frame` whole to a blocking `w`. Every write carries all that is
/// left of the frame, so `TCP_NODELAY` never sends a bare prefix.
fn write_frame(w: &mut impl Write, frame: &QueuedFrame) -> Result<()> {
    let mut written = 0;
    while written < frame.len() {
        let mut iov = [IoSlice::new(&[]); SLICES_PER_FRAME];
        let used = gather([frame], written, &mut iov);
        match w.write_vectored(&iov[..used]) {
            Ok(0) => return Err(TransportError::Closed),
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

#[derive(Default)]
struct Outbound {
    queue: VecDeque<QueuedFrame>,
    /// Bytes of the queue head already written by a partial flush.
    head_written: usize,
    /// Total unflushed bytes across the queue (prefixes included).
    bytes: usize,
    /// Set from the start of the reactor's visit (`drive_read`) until its
    /// `drive_write` takes the queue: a frame queued meanwhile needs no
    /// wake-up, because that `drive_write` flushes it.
    in_visit: bool,
}

impl Outbound {
    /// Flushes the queue into a non-blocking `w`, up to
    /// `MAX_FRAMES_PER_WRITEV` frames per vectored write, until it is
    /// empty or `w` would block.
    fn flush(&mut self, w: &mut impl Write) -> Result<FlushReport> {
        let mut report = FlushReport::default();
        loop {
            if self.queue.is_empty() {
                self.head_written = 0;
                return Ok(report);
            }
            let wrote = {
                let mut iov = [IoSlice::new(&[]); SLICES_PER_FRAME * MAX_FRAMES_PER_WRITEV];
                let frames = self.queue.iter().take(MAX_FRAMES_PER_WRITEV);
                let used = gather(frames, self.head_written, &mut iov);
                w.write_vectored(&iov[..used])
            };
            // Counted whatever it returns: `EAGAIN` and `EINTR` included.
            report.syscalls += 1;
            match wrote {
                Ok(0) => return Err(TransportError::Closed),
                Ok(n) => {
                    self.bytes -= n;
                    // Advance the head cursor and retire fully-sent frames.
                    let mut progressed = self.head_written + n;
                    while let Some(head) = self.queue.front() {
                        if progressed < head.len() {
                            break;
                        }
                        progressed -= head.len();
                        self.queue.pop_front();
                        report.frames += 1;
                    }
                    self.head_written = progressed;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    report.pending = true;
                    return Ok(report);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// One `recv` of at most `max` bytes from `stream`, appended to `buf`.
/// With `dontwait` it never blocks; nothing waiting is
/// `ErrorKind::WouldBlock`.
#[cfg(unix)]
fn recv_append(
    stream: &TcpStream,
    buf: &mut Vec<u8>,
    max: usize,
    dontwait: bool,
) -> io::Result<usize> {
    use std::os::fd::AsFd;
    polling::recv_append(stream.as_fd(), buf, max, dontwait)
}

/// Where `polling` has no receive: a read into zeroed room, and no
/// non-blocking one at all — every such probe finds nothing, and a dead
/// idle connection is found by the next blocking read instead.
#[cfg(not(unix))]
fn recv_append(
    mut stream: &TcpStream,
    buf: &mut Vec<u8>,
    max: usize,
    dontwait: bool,
) -> io::Result<usize> {
    use std::io::Read;
    if dontwait {
        return Err(io::ErrorKind::WouldBlock.into());
    }
    let len = buf.len();
    buf.resize(len + max, 0);
    let got = stream.read(&mut buf[len..]);
    buf.truncate(len + *got.as_ref().unwrap_or(&0));
    got
}

/// One reactor visit's reads: receives into `decoder` through `recv`,
/// handing each frame to `sink` as soon as it is complete, until a receive
/// comes up short (fewer bytes than it asked for: the socket was empty at
/// that instant), would block, the stream ends, or `MAX_READ_PER_VISIT`
/// bytes have come in. Bytes that arrive after a short read are not
/// waited for: the level-evaluated oneshot rearm after the visit reports
/// them, as it reports what a spent budget left behind. So a visit to a
/// connection with one small frame waiting costs one `recv`, not a second
/// one that finds nothing.
fn read_visit(
    decoder: &mut FrameDecoder,
    mut recv: impl FnMut(&mut Vec<u8>, usize) -> io::Result<usize>,
    sink: &mut dyn FnMut(Bytes),
) -> Result<ReadReport> {
    let mut budget = MAX_READ_PER_VISIT;
    let mut syscalls = 0;
    let report = |drive, syscalls| Ok(ReadReport { drive, syscalls });
    while budget > 0 {
        let mut asked = 0;
        let got = decoder.read_with(budget, |buf, max| {
            syscalls += 1;
            asked = max;
            recv(buf, max)
        });
        match got {
            Ok(0) => return report(ReadDrive::Closed, syscalls),
            Ok(n) => {
                budget -= n;
                while let Some(frame) = decoder.next_frame()? {
                    sink(frame);
                }
                if n < asked {
                    return report(ReadDrive::Open, syscalls);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                return report(ReadDrive::Open, syscalls)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return report(ReadDrive::Closed, syscalls),
        }
    }
    // Budget spent with the socket possibly still readable; the rearm
    // redelivers readiness immediately.
    report(ReadDrive::Open, syscalls)
}

/// A connection its caller reads: every dialled one, and every one taken
/// with the blocking [`Listener::accept`].
struct TcpConn {
    stream: TcpStream,
    /// Held across a whole frame's writes, so that concurrent senders'
    /// frames never interleave on the wire.
    sending: Mutex<()>,
    reading: Mutex<ReadState>,
    closed: AtomicBool,
    peer: Option<Endpoint>,
}

#[derive(Default)]
struct ReadState {
    decoder: FrameDecoder,
    /// The socket's current `SO_RCVTIMEO` (a fresh socket has none), so a
    /// receive with the same timeout as the last one costs no `setsockopt`.
    timeout: Option<Duration>,
}

impl TcpConn {
    fn new(stream: TcpStream, peer: Option<Endpoint>) -> Result<TcpConn> {
        stream.set_nodelay(true)?;
        Ok(TcpConn {
            stream,
            sending: Mutex::default(),
            reading: Mutex::default(),
            closed: AtomicBool::new(false),
            peer,
        })
    }

    /// Takes the next frame out of the decoder, receiving into it for as
    /// long as it needs more bytes. A receive that finds nothing within
    /// `timeout` — or nothing at all, when `timeout` is zero — fails with
    /// [`TransportError::Timeout`].
    fn next_frame(&self, timeout: Option<Duration>) -> Result<Bytes> {
        if self.closed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        let dontwait = timeout == Some(Duration::ZERO);
        let mut state = self.reading.lock();
        let ReadState {
            decoder,
            timeout: armed,
        } = &mut *state;
        if !dontwait && *armed != timeout {
            self.stream.set_read_timeout(timeout)?;
            *armed = timeout;
        }
        loop {
            if let Some(frame) = decoder.next_frame()? {
                return Ok(frame);
            }
            match decoder.read_with(usize::MAX, |buf, max| {
                recv_append(&self.stream, buf, max, dontwait)
            }) {
                Ok(0) => return Err(TransportError::Closed),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

impl Conn for TcpConn {
    fn send(&self, frame: Bytes) -> Result<()> {
        self.send_segments(Segments::from(frame))
    }

    fn send_segments(&self, frame: Segments) -> Result<()> {
        if self.closed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        let frame = QueuedFrame::new(frame)?;
        let _whole = self.sending.lock();
        write_frame(&mut &self.stream, &frame)
    }

    fn recv(&self) -> Result<Bytes> {
        self.next_frame(None)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Bytes> {
        self.next_frame(Some(timeout))
    }

    /// Takes no lock: a sender blocked on a peer that stopped reading
    /// holds `sending`, and the shutdown is what fails its write.
    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    fn peer(&self) -> Option<Endpoint> {
        self.peer.clone()
    }
}

/// A connection the reactor reads: every one `accept_nonblocking` takes.
/// Its socket never blocks; `send` queues, and the reactor writes.
#[cfg(unix)]
struct ServedConn {
    stream: TcpStream,
    decoder: Mutex<FrameDecoder>,
    outbound: Mutex<Outbound>,
    /// Set when the reactor registers the connection, before anything is
    /// sent on it.
    waker: OnceLock<ReactorWaker>,
    closed: AtomicBool,
}

#[cfg(unix)]
impl ServedConn {
    fn new(stream: TcpStream) -> io::Result<ServedConn> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(ServedConn {
            stream,
            decoder: Mutex::default(),
            outbound: Mutex::default(),
            waker: OnceLock::new(),
            closed: AtomicBool::new(false),
        })
    }
}

#[cfg(unix)]
impl Conn for ServedConn {
    fn send(&self, frame: Bytes) -> Result<()> {
        self.send_segments(Segments::from(frame))
    }

    /// Queues the frame and, on an empty→non-empty transition outside the
    /// reactor's visit to this connection, wakes the reactor to schedule a
    /// coalesced flush. (While the queue is non-empty the reactor already
    /// has a flush pending or writable interest armed, and during a visit
    /// the visit's own `drive_write` is still to come, so neither needs a
    /// wake-up.)
    fn send_segments(&self, frame: Segments) -> Result<()> {
        if self.closed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        let frame = QueuedFrame::new(frame)?;
        let wake = {
            let mut ob = self.outbound.lock();
            if ob.bytes + frame.len() > OUTBOUND_LIMIT {
                drop(ob);
                self.close();
                return Err(TransportError::Closed);
            }
            let wake = ob.queue.is_empty() && !ob.in_visit;
            ob.bytes += frame.len();
            ob.queue.push_back(frame);
            wake
        };
        if let (true, Some(w)) = (wake, self.waker.get()) {
            w.wake_write();
        }
        Ok(())
    }

    fn recv(&self) -> Result<Bytes> {
        // Every frame goes to the reactor's driver; a caller has nothing
        // to wait on.
        Err(TransportError::Io(
            "a served connection is read by its reactor".into(),
        ))
    }

    fn recv_timeout(&self, _timeout: Duration) -> Result<Bytes> {
        self.recv()
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    fn peer(&self) -> Option<Endpoint> {
        None
    }

    fn as_pollable(&self) -> Option<&dyn Pollable> {
        Some(self)
    }
}

#[cfg(unix)]
impl Pollable for ServedConn {
    fn poll_fd(&self) -> Option<i32> {
        use std::os::unix::io::AsRawFd;
        Some(self.stream.as_raw_fd())
    }

    fn enter_reactor_mode(&self, waker: ReactorWaker) -> Result<()> {
        // Non-blocking since it was accepted: only the waker is new.
        let _ = self.waker.set(waker);
        Ok(())
    }

    /// Starts a visit: until `drive_write`, senders need not wake the
    /// reactor.
    fn drive_read(&self, sink: &mut dyn FnMut(Bytes)) -> Result<ReadReport> {
        self.outbound.lock().in_visit = true;
        if self.closed.load(Ordering::Acquire) {
            return Ok(ReadReport::without_syscalls(ReadDrive::Closed));
        }
        read_visit(
            &mut self.decoder.lock(),
            |buf, max| recv_append(&self.stream, buf, max, false),
            sink,
        )
    }

    /// Ends the visit: a frame queued after this lock is taken wakes the
    /// reactor again.
    fn drive_write(&self) -> Result<FlushReport> {
        let mut ob = self.outbound.lock();
        ob.in_visit = false;
        ob.flush(&mut &self.stream)
    }
}

struct TcpAcceptor {
    listener: TcpListener,
    local: Endpoint,
    closed: AtomicBool,
}

impl Listener for TcpAcceptor {
    fn accept(&self) -> Result<Box<dyn Conn>> {
        if self.closed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        let (stream, _addr) = self.listener.accept().map_err(|e| {
            if self.closed.load(Ordering::Acquire) {
                TransportError::Closed
            } else {
                TransportError::from(e)
            }
        })?;
        // close() unblocks a pending accept by self-connecting; discard that
        // wake-up connection and report closure.
        if self.closed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        Ok(Box::new(TcpConn::new(stream, None)?))
    }

    fn local_endpoint(&self) -> Endpoint {
        self.local.clone()
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        // Unblock a pending accept by connecting to ourselves.
        if let Ok(addr) = self.listener.local_addr() {
            let _ = TcpStream::connect(addr);
        }
    }

    fn as_pollable(&self) -> Option<&dyn PollableListener> {
        #[cfg(unix)]
        {
            Some(self)
        }
        #[cfg(not(unix))]
        {
            None
        }
    }
}

#[cfg(unix)]
impl PollableListener for TcpAcceptor {
    fn poll_fd(&self) -> Option<i32> {
        use std::os::unix::io::AsRawFd;
        Some(self.listener.as_raw_fd())
    }

    fn enter_reactor_mode(&self, _waker: ReactorWaker) -> Result<()> {
        self.listener.set_nonblocking(true)?;
        Ok(())
    }

    fn accept_nonblocking(&self) -> Result<AcceptPoll> {
        if self.closed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        match self.listener.accept() {
            Ok((stream, _addr)) => {
                if self.closed.load(Ordering::Acquire) {
                    return Err(TransportError::Closed);
                }
                match ServedConn::new(stream) {
                    Ok(conn) => Ok(AcceptPoll::Conn(Box::new(conn))),
                    // Setup failed for this one socket; drop it, keep the
                    // listener alive, back off until the next tick.
                    Err(_) => Ok(AcceptPoll::Retry),
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(AcceptPoll::WouldBlock),
            // Transient accept failures (EINTR, ECONNABORTED, EMFILE, …)
            // must not kill the listener — and EMFILE/ENFILE leave the
            // pending connection in the backlog, where it would re-trigger
            // readiness immediately: retry after a tick, not a rearm.
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(AcceptPoll::Retry),
            Err(_) => Ok(AcceptPoll::Retry),
        }
    }
}

impl Transport for Tcp {
    fn scheme(&self) -> &str {
        "tcp"
    }

    fn connect(&self, ep: &Endpoint) -> Result<Box<dyn Conn>> {
        let stream = TcpStream::connect(ep.addr())?;
        Ok(Box::new(TcpConn::new(stream, Some(ep.clone()))?))
    }

    fn listen(&self, ep: &Endpoint) -> Result<Box<dyn Listener>> {
        let listener = TcpListener::bind(ep.addr())?;
        let local = Endpoint::tcp(listener.local_addr()?.to_string());
        Ok(Box::new(TcpAcceptor {
            listener,
            local,
            closed: AtomicBool::new(false),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tcp_pair() -> (Box<dyn Conn>, Box<dyn Conn>) {
        let t = Tcp;
        let l = t.listen(&Endpoint::tcp("127.0.0.1:0")).unwrap();
        let ep = l.local_endpoint();
        let c = t.connect(&ep).unwrap();
        let s = l.accept().unwrap();
        (c, s)
    }

    #[test]
    fn exchange_over_real_sockets() {
        let (c, s) = tcp_pair();
        c.send(Bytes::from(b"hello tcp".to_vec())).unwrap();
        assert_eq!(&s.recv().unwrap()[..], b"hello tcp");
        s.send(Bytes::from(b"back".to_vec())).unwrap();
        assert_eq!(&c.recv().unwrap()[..], b"back");
    }

    #[test]
    fn large_frame_roundtrip() {
        let (c, s) = tcp_pair();
        let payload: Vec<u8> = (0..1_000_000u32).map(|i| i as u8).collect();
        let expect = payload.clone();
        let h = std::thread::spawn(move || c.send(Bytes::from(payload)));
        assert_eq!(s.recv().unwrap(), expect);
        h.join().unwrap().unwrap();
    }

    /// A frame in three pieces of `lens` bytes, each piece a distinct
    /// byte pattern, and the bytes it puts on the wire.
    fn gathered(lens: [usize; 3]) -> (Segments, Vec<u8>) {
        let piece =
            |i: usize| Bytes::from((0..lens[i]).map(|j| (j * 7 + i) as u8).collect::<Vec<_>>());
        let frame = Segments::new(piece(0), piece(1), piece(2));
        let mut wire = frame_prefix(frame.len()).unwrap().to_vec();
        wire.extend_from_slice(&frame.clone().concat());
        (frame, wire)
    }

    /// A writer that takes at most `step` bytes per call, all into `out`,
    /// and then — if `room` runs out — would block.
    struct Trickle {
        out: Vec<u8>,
        step: usize,
        room: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut take = self.step.min(self.room);
            if take == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let before = self.out.len();
            for buf in bufs {
                let n = take.min(buf.len());
                self.out.extend_from_slice(&buf[..n]);
                take -= n;
            }
            self.room -= self.out.len() - before;
            Ok(self.out.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A blocking write resumes wherever the last one stopped: inside the
    /// prefix, the head, the payload or the tail.
    #[test]
    fn write_frame_resumes_inside_every_piece() {
        let (frame, wire) = gathered([10, 100, 10]);
        let frame = QueuedFrame::new(frame).unwrap();
        for step in [1, 3, 7, 13, 50, 1000] {
            let mut w = Trickle {
                out: Vec::new(),
                step,
                room: usize::MAX,
            };
            write_frame(&mut w, &frame).unwrap();
            assert_eq!(w.out, wire, "step {step}");
        }
    }

    /// The reactor's flush parks its cursor inside any piece of any frame
    /// when the socket fills, and picks up there on the next flush.
    #[test]
    fn flush_resumes_inside_every_piece() {
        let frames = [
            gathered([10, 100, 10]),
            gathered([0, 0, 5]),
            gathered([3, 40, 0]),
        ];
        let wire: Vec<u8> = frames.iter().flat_map(|(_, w)| w.clone()).collect();
        for room in [1, 5, 9, 17, 60, 111, 1000] {
            let mut ob = Outbound::default();
            for (frame, _) in &frames {
                let frame = QueuedFrame::new(frame.clone()).unwrap();
                ob.bytes += frame.len();
                ob.queue.push_back(frame);
            }
            let mut w = Trickle {
                out: Vec::new(),
                step: 7,
                room,
            };
            let mut flushed = 0;
            loop {
                let report = ob.flush(&mut w).unwrap();
                flushed += report.frames;
                if !report.pending {
                    break;
                }
                w.room = room;
            }
            assert_eq!(w.out, wire, "room {room}");
            assert_eq!(flushed, frames.len());
            assert_eq!((ob.bytes, ob.head_written), (0, 0));
        }
    }

    /// A gathered frame far bigger than the socket buffers, written by a
    /// blocking sender: every partial write resumes at its cursor.
    #[test]
    fn large_gathered_frame_roundtrip() {
        let (c, s) = tcp_pair();
        let (frame, wire) = gathered([1_000_003, 2_000_000, 999_997]);
        let h = std::thread::spawn(move || c.send_segments(frame));
        assert_eq!(s.recv().unwrap(), wire[4..]);
        h.join().unwrap().unwrap();
    }

    /// One visit reads at most `MAX_READ_PER_VISIT` bytes from a peer that
    /// never runs dry, and leaves the connection open for the next.
    #[test]
    fn a_visit_reads_at_most_its_budget() {
        let frame = vec![9u8; 1000];
        let unit = [&frame_prefix(frame.len()).unwrap()[..], &frame].concat();
        let mut decoder = FrameDecoder::default();
        let mut received = 0;
        let mut frames = 0;
        let visit = read_visit(
            &mut decoder,
            |buf, max| {
                // An endless stream of the same frame.
                buf.extend((received..received + max).map(|i| unit[i % unit.len()]));
                received += max;
                Ok(max)
            },
            &mut |f| {
                assert_eq!(f, frame);
                frames += 1;
            },
        );
        assert_eq!(visit.unwrap().drive, ReadDrive::Open);
        assert_eq!(received, MAX_READ_PER_VISIT);
        assert_eq!(frames, MAX_READ_PER_VISIT / unit.len());
    }

    /// A receive that brings fewer bytes than it asked for found the socket
    /// empty, so the visit ends there: one `recv`, not a second that would
    /// only find nothing.
    #[test]
    fn a_short_read_ends_the_visit() {
        let frame = b"one small frame";
        let wire = [&frame_prefix(frame.len()).unwrap()[..], frame].concat();
        let mut decoder = FrameDecoder::default();
        let mut calls = Vec::new();
        let mut frames = Vec::new();
        let visit = read_visit(
            &mut decoder,
            |buf, max| {
                calls.push(max);
                assert!(max > wire.len(), "asked for {max}");
                buf.extend_from_slice(&wire);
                Ok(wire.len())
            },
            &mut |f| frames.push(f),
        )
        .unwrap();
        assert_eq!(
            visit,
            ReadReport {
                drive: ReadDrive::Open,
                syscalls: 1
            }
        );
        assert_eq!(calls.len(), 1);
        assert_eq!(frames, [Bytes::copy_from_slice(frame)]);
    }

    /// Over a real socket the reactor serves, a sender that outruns the
    /// reader is served in visits of bounded size, and nothing is lost.
    #[test]
    fn a_firehose_peer_is_read_in_bounded_visits() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let c = Tcp
            .connect(&Endpoint::tcp(l.local_addr().unwrap().to_string()))
            .unwrap();
        let s = ServedConn::new(l.accept().unwrap().0).unwrap();
        const FRAMES: usize = 2000;
        let h = std::thread::spawn(move || {
            for i in 0..FRAMES as u32 {
                c.send(Bytes::from(vec![i as u8; 1000])).unwrap();
            }
            c
        });
        let mut got = 0;
        while got < FRAMES {
            let mut bytes = 0;
            let drive = s
                .drive_read(&mut |f| {
                    assert_eq!(f, vec![got as u8; 1000]);
                    bytes += 4 + f.len();
                    got += 1;
                })
                .unwrap();
            assert_eq!(drive.drive, ReadDrive::Open);
            assert!(bytes <= MAX_READ_PER_VISIT + 1004, "{bytes}");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(h.join().unwrap());
    }

    /// A sender blocked on a peer that stopped reading holds nothing that
    /// `close` waits for: the close returns, and the send fails.
    #[test]
    fn close_unblocks_a_sender_stuck_on_a_full_socket() {
        let (c, _s) = tcp_pair();
        let c: std::sync::Arc<dyn Conn> = c.into();
        let sender = std::sync::Arc::clone(&c);
        let sent = std::thread::spawn(move || sender.send(Bytes::from(vec![0u8; 32 << 20])));
        // Long enough for the send to fill both socket buffers and block.
        std::thread::sleep(Duration::from_millis(200));
        let (closed_tx, closed) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            c.close();
            let _ = closed_tx.send(());
        });
        closed
            .recv_timeout(Duration::from_secs(3))
            .expect("close() waited for the blocked send");
        assert!(sent.join().unwrap().is_err());
    }

    #[test]
    fn many_small_frames_keep_boundaries() {
        let (c, s) = tcp_pair();
        for i in 0..200u32 {
            c.send(Bytes::from(i.to_le_bytes().to_vec())).unwrap();
        }
        for i in 0..200u32 {
            assert_eq!(&s.recv().unwrap()[..], i.to_le_bytes());
        }
    }

    #[test]
    fn recv_timeout_fires() {
        let (_c, s) = tcp_pair();
        assert_eq!(
            s.recv_timeout(Duration::from_millis(50)).unwrap_err(),
            TransportError::Timeout
        );
    }

    /// The socket timeout is only re-armed when it changes; repeating one
    /// and changing it must both still be honoured.
    #[test]
    fn recv_timeout_repeated_then_changed() {
        let (c, s) = tcp_pair();
        let timed = |timeout_ms| {
            let timeout = Duration::from_millis(timeout_ms);
            let t0 = std::time::Instant::now();
            assert_eq!(
                s.recv_timeout(timeout).unwrap_err(),
                TransportError::Timeout
            );
            assert!(t0.elapsed() >= timeout);
            t0.elapsed()
        };
        timed(150);
        timed(150);
        assert!(
            timed(10) < Duration::from_millis(150),
            "stale socket timeout"
        );
        c.send(Bytes::from(b"late".to_vec())).unwrap();
        assert_eq!(&s.recv().unwrap()[..], b"late");
    }

    fn try_recv_within_a_second(conn: &dyn Conn) -> Result<Bytes> {
        let t0 = std::time::Instant::now();
        loop {
            match conn.try_recv() {
                Ok(None) => assert!(t0.elapsed() < Duration::from_secs(1), "nothing arrived"),
                Ok(Some(frame)) => return Ok(frame),
                Err(e) => return Err(e),
            }
        }
    }

    #[test]
    fn try_recv_reports_nothing_then_frames_then_close() {
        let (c, s) = tcp_pair();
        assert_eq!(s.try_recv().unwrap(), None);
        // Larger than one non-blocking read, so the frame takes several.
        let big = vec![7u8; 2000];
        c.send(Bytes::from(big.clone())).unwrap();
        c.send(Bytes::from(b"second".to_vec())).unwrap();
        assert_eq!(try_recv_within_a_second(&*s).unwrap(), big);
        assert_eq!(&try_recv_within_a_second(&*s).unwrap()[..], b"second");
        assert_eq!(s.try_recv().unwrap(), None);
        c.close();
        assert_eq!(
            try_recv_within_a_second(&*s).unwrap_err(),
            TransportError::Closed
        );
    }

    #[test]
    fn peer_close_surfaces() {
        let (c, s) = tcp_pair();
        c.close();
        assert_eq!(
            s.recv_timeout(Duration::from_secs(1)).unwrap_err(),
            TransportError::Closed
        );
    }

    #[test]
    fn connect_refused() {
        // Bind-then-drop to find a port that is very likely unused.
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        drop(l);
        let got = Tcp.connect(&Endpoint::tcp(addr.to_string()));
        assert!(got.is_err());
    }

    #[test]
    fn listener_close_unblocks_accept() {
        let t = Tcp;
        let l = t.listen(&Endpoint::tcp("127.0.0.1:0")).unwrap();
        let l = std::sync::Arc::new(l);
        // Safe: Listener is Send; accept on another thread.
        let l2 = std::sync::Arc::clone(&l);
        let h = std::thread::spawn(move || l2.accept().is_err());
        std::thread::sleep(Duration::from_millis(50));
        l.close();
        assert!(h.join().unwrap());
    }
}
