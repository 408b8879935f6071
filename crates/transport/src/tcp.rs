//! The TCP transport: length-prefixed frames over `std::net` streams.
//!
//! Used by the cross-process examples and the loopback-TCP rows of the
//! latency experiments. `TCP_NODELAY` is set, as the original runtime did,
//! because RPC traffic is latency-bound, not throughput-bound.
//!
//! A `TcpConn` runs in one of two modes, one per end of a connection:
//!
//! - **Blocking** (the default): `send` writes synchronously, `recv`
//!   blocks on the socket. This is the client end: a caller owns it.
//! - **Reactor-managed**: after [`crate::reactor::Pollable::enter_reactor_mode`]
//!   the socket is non-blocking; `send` enqueues the frame on an outbound
//!   queue and wakes the reactor, which flushes many queued frames in one
//!   vectored write (`drive_write`) and pushes inbound frames to the
//!   registered driver (`drive_read`). `recv` is unavailable in this mode.
//!   This is the server end: every accepted connection is served this way.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use bytes::Bytes;
use netobj_wire::frame::{frame_prefix, FrameDecoder};
use parking_lot::Mutex;

use crate::endpoint::Endpoint;
use crate::error::TransportError;
use crate::reactor::{
    AcceptPoll, FlushReport, Pollable, PollableListener, ReactorWaker, ReadDrive,
};
use crate::{Conn, Listener, Result, Transport};

/// The TCP transport (stateless; connections carry all state).
#[derive(Debug, Default, Clone, Copy)]
pub struct Tcp;

/// Cap on queued outbound bytes per reactor-managed connection. A peer
/// that stops reading while replies keep accumulating gets disconnected
/// rather than growing the queue without bound (64 MiB ≈ four max frames).
const OUTBOUND_LIMIT: usize = 64 * 1024 * 1024;

/// One queued outbound frame: its 4-byte length prefix plus the shared
/// payload. Kept separate so flushes can gather both into one iovec list
/// without re-assembling a contiguous buffer.
struct QueuedFrame {
    prefix: [u8; 4],
    frame: Bytes,
}

#[derive(Default)]
struct Outbound {
    queue: VecDeque<QueuedFrame>,
    /// Bytes of the queue head already written by a partial flush.
    head_written: usize,
    /// Total unflushed bytes across the queue (prefixes included).
    bytes: usize,
}

/// The receiving side of a blocking-mode connection.
struct ReadHalf {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// The socket's current `SO_RCVTIMEO` (a fresh socket has none), so a
    /// receive with the same timeout as the last one costs no `setsockopt`.
    timeout: Option<Duration>,
}

impl ReadHalf {
    /// Takes the next frame out of the decoder, feeding it from the socket
    /// through `read` (into `chunk`) for as long as it needs more bytes. A
    /// `read` that finds nothing in time fails with
    /// [`TransportError::Timeout`].
    fn next_frame(
        &mut self,
        chunk: &mut [u8],
        mut read: impl FnMut(&mut TcpStream, &mut [u8]) -> io::Result<usize>,
    ) -> Result<Bytes> {
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                return Ok(frame);
            }
            match read(&mut self.stream, chunk) {
                Ok(0) => return Err(TransportError::Closed),
                Ok(n) => self.decoder.extend(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }
}

struct TcpConn {
    writer: Mutex<TcpStream>,
    reader: Mutex<ReadHalf>,
    closed: AtomicBool,
    peer: Option<Endpoint>,
    /// True once `enter_reactor_mode` ran; flips `send`/`recv` behaviour.
    reactor_mode: AtomicBool,
    outbound: Mutex<Outbound>,
    waker: Mutex<Option<ReactorWaker>>,
}

impl TcpConn {
    fn new(stream: TcpStream, peer: Option<Endpoint>) -> Result<TcpConn> {
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        Ok(TcpConn {
            writer: Mutex::new(stream),
            reader: Mutex::new(ReadHalf {
                stream: reader,
                decoder: FrameDecoder::default(),
                timeout: None,
            }),
            closed: AtomicBool::new(false),
            peer,
            reactor_mode: AtomicBool::new(false),
            outbound: Mutex::new(Outbound::default()),
            waker: Mutex::new(None),
        })
    }

    /// Fails unless this connection is open and its receiving side belongs
    /// to the caller rather than to a reactor.
    fn check_receivable(&self) -> Result<()> {
        if self.closed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        if self.reactor_mode.load(Ordering::Acquire) {
            // Frames are pushed to the reactor driver; there is nothing a
            // blocking receiver could wait on.
            return Err(TransportError::Io(
                "connection is reactor-managed; recv is unavailable".into(),
            ));
        }
        Ok(())
    }

    fn recv_inner(&self, timeout: Option<Duration>) -> Result<Bytes> {
        self.check_receivable()?;
        let mut half = self.reader.lock();
        if half.timeout != timeout {
            half.stream.set_read_timeout(timeout)?;
            half.timeout = timeout;
        }
        half.next_frame(&mut [0u8; 16 * 1024], |stream, buf| stream.read(buf))
    }

    /// Reactor-mode `send`: queue the frame and, on an empty→non-empty
    /// transition, wake the reactor to schedule a coalesced flush. (While
    /// the queue is non-empty the reactor already has a flush pending or
    /// writable interest armed, so no further wakes are needed.)
    fn send_queued(&self, frame: Bytes) -> Result<()> {
        let prefix = frame_prefix(frame.len())?;
        let wake = {
            let mut ob = self.outbound.lock();
            if ob.bytes + 4 + frame.len() > OUTBOUND_LIMIT {
                drop(ob);
                self.close();
                return Err(TransportError::Closed);
            }
            let was_empty = ob.queue.is_empty();
            ob.bytes += 4 + frame.len();
            ob.queue.push_back(QueuedFrame { prefix, frame });
            was_empty
        };
        if wake {
            if let Some(w) = self.waker.lock().as_ref() {
                w.wake_write();
            }
        }
        Ok(())
    }
}

/// One non-blocking read of a blocking-mode socket; nothing there is
/// `ErrorKind::WouldBlock`. Where the platform has no such read that is
/// the answer every time, and a dead idle connection is found by the next
/// blocking read instead.
fn recv_nonblocking(stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<usize> {
    #[cfg(unix)]
    let got = {
        use std::os::fd::AsFd;
        polling::recv_nonblocking(stream.as_fd(), buf)
    };
    #[cfg(not(unix))]
    let got: io::Result<usize> = {
        let _ = (stream, buf);
        Err(io::ErrorKind::Unsupported.into())
    };
    got.map_err(|e| match e.kind() {
        io::ErrorKind::Unsupported => io::ErrorKind::WouldBlock.into(),
        _ => e,
    })
}

impl Conn for TcpConn {
    fn send(&self, frame: Bytes) -> Result<()> {
        if self.closed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        if self.reactor_mode.load(Ordering::Acquire) {
            return self.send_queued(frame);
        }
        // Gathered write: length prefix + payload go out in one vectored
        // syscall with no re-assembled buffer. The manual loop keeps both
        // slices in the iovec until the prefix is fully written so NODELAY
        // never flushes a bare 4-byte segment.
        let prefix = frame_prefix(frame.len())?;
        let total = prefix.len() + frame.len();
        let mut w = self.writer.lock();
        let mut written = 0usize;
        while written < total {
            let n = if written < prefix.len() {
                let bufs = [IoSlice::new(&prefix[written..]), IoSlice::new(&frame)];
                w.write_vectored(&bufs)?
            } else {
                w.write(&frame[written - prefix.len()..])?
            };
            if n == 0 {
                return Err(TransportError::Closed);
            }
            written += n;
        }
        Ok(())
    }

    fn recv(&self) -> Result<Bytes> {
        self.recv_inner(None)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Bytes> {
        self.recv_inner(Some(timeout))
    }

    fn try_recv(&self) -> Result<Option<Bytes>> {
        self.check_receivable()?;
        // A small chunk: the usual answer is "nothing there", and a stale
        // frame larger than this just takes more turns of the loop.
        let got = self
            .reader
            .lock()
            .next_frame(&mut [0u8; 512], recv_nonblocking);
        match got {
            Ok(frame) => Ok(Some(frame)),
            Err(TransportError::Timeout) => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        let w = self.writer.lock();
        let _ = w.shutdown(Shutdown::Both);
    }

    fn peer(&self) -> Option<Endpoint> {
        self.peer.clone()
    }

    fn as_pollable(&self) -> Option<&dyn Pollable> {
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

/// Per-readiness-visit cap on socket reads, so one firehose peer cannot
/// monopolise the reactor thread (8 × 16 KiB per visit, then rearm).
const MAX_READ_CHUNKS_PER_VISIT: usize = 8;

/// Cap on frames gathered into a single vectored write (two iovecs each:
/// prefix + payload). Linux caps an iovec list at 1024 entries; 16 frames
/// per syscall already captures nearly all the coalescing benefit.
const MAX_FRAMES_PER_WRITEV: usize = 16;

#[cfg(unix)]
impl Pollable for TcpConn {
    fn poll_fd(&self) -> Option<i32> {
        use std::os::unix::io::AsRawFd;
        Some(self.writer.lock().as_raw_fd())
    }

    fn enter_reactor_mode(&self, waker: ReactorWaker) -> Result<()> {
        // reader and writer are clones of the same socket, so one call
        // flips both directions to non-blocking.
        self.writer.lock().set_nonblocking(true)?;
        *self.waker.lock() = Some(waker);
        self.reactor_mode.store(true, Ordering::Release);
        Ok(())
    }

    fn drive_read(&self, sink: &mut dyn FnMut(Bytes)) -> Result<ReadDrive> {
        if self.closed.load(Ordering::Acquire) {
            return Ok(ReadDrive::Closed);
        }
        let mut guard = self.reader.lock();
        let ReadHalf {
            stream, decoder, ..
        } = &mut *guard;
        let mut chunk = [0u8; 16 * 1024];
        for _ in 0..MAX_READ_CHUNKS_PER_VISIT {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    // Deliver frames completed before EOF, then report it.
                    while let Some(frame) = decoder.next_frame()? {
                        sink(frame);
                    }
                    return Ok(ReadDrive::Closed);
                }
                Ok(n) => {
                    decoder.extend(&chunk[..n]);
                    while let Some(frame) = decoder.next_frame()? {
                        sink(frame);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(ReadDrive::Open),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Ok(ReadDrive::Closed),
            }
        }
        // Fairness cap hit with the socket possibly still readable; the
        // level-triggered rearm redelivers readiness immediately.
        Ok(ReadDrive::Open)
    }

    fn drive_write(&self) -> Result<FlushReport> {
        let mut ob = self.outbound.lock();
        let mut w = self.writer.lock();
        let mut report = FlushReport::default();
        loop {
            if ob.queue.is_empty() {
                ob.head_written = 0;
                return Ok(report);
            }
            let wrote = {
                // Gather up to MAX_FRAMES_PER_WRITEV frames into one iovec
                // list, skipping whatever earlier partial flushes already
                // pushed out of the head frame.
                let mut bufs: Vec<IoSlice> = Vec::with_capacity(2 * MAX_FRAMES_PER_WRITEV);
                let mut skip = ob.head_written;
                for qf in ob.queue.iter().take(MAX_FRAMES_PER_WRITEV) {
                    if skip < qf.prefix.len() {
                        bufs.push(IoSlice::new(&qf.prefix[skip..]));
                        skip = 0;
                    } else {
                        skip -= qf.prefix.len();
                    }
                    if skip < qf.frame.len() {
                        bufs.push(IoSlice::new(&qf.frame[skip..]));
                        skip = 0;
                    } else {
                        skip -= qf.frame.len();
                    }
                }
                w.write_vectored(&bufs)
            };
            match wrote {
                Ok(0) => return Err(TransportError::Closed),
                Ok(n) => {
                    report.syscalls += 1;
                    ob.bytes -= n;
                    // Advance the head cursor and retire fully-sent frames.
                    let mut progressed = ob.head_written + n;
                    while let Some(head) = ob.queue.front() {
                        let total = head.prefix.len() + head.frame.len();
                        if progressed >= total {
                            progressed -= total;
                            ob.queue.pop_front();
                            report.frames += 1;
                        } else {
                            break;
                        }
                    }
                    ob.head_written = progressed;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    report.pending = true;
                    return Ok(report);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
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
                match TcpConn::new(stream, None) {
                    Ok(conn) => Ok(AcceptPoll::Conn(Box::new(conn))),
                    // Setup failed for this one socket (usually fd
                    // exhaustion inside `try_clone`); drop it, keep the
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
