//! Channel-backed in-process connections and listeners.
//!
//! Both the loopback transport and the simulated network hand out
//! [`ChanConn`]s and `ChanListener`s: queues backed by std's mpsc
//! channels. The difference between the two transports is only in what
//! sits between a sender and the receiver's inbox — nothing (loopback) or
//! the fault-injecting delivery scheduler (sim), plugged in as a `Route`.
//!
//! Neither has a file descriptor, so under the [`crate::reactor`] they
//! report readiness in software: every queue's sending side is a
//! `Mailbox` — the channel sender plus the slot where a reactor-managed
//! receiver left its waker — and delivering, closing, or dropping the
//! last sender calls it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;

use crate::endpoint::Endpoint;
use crate::error::TransportError;
use crate::reactor::{
    AcceptPoll, FlushReport, Pollable, PollableListener, ReactorWaker, ReadDrive, ReadReport,
};
use crate::{Conn, Listener, Result};

/// Where the receiving end of a queue, once a reactor drives it, leaves
/// the waker its senders must call; empty while a blocking thread reads
/// it (every client half).
///
/// A sender queues (or sets the close flag), then looks in the slot; the
/// reactor fills the slot, then looks at the queue and the flag (its visit
/// on registering); both go through this lock, so one sees the other.
#[derive(Default)]
struct WakerSlot(Mutex<Option<ReactorWaker>>);

impl WakerSlot {
    fn set(&self, waker: ReactorWaker) {
        *self.0.lock() = Some(waker);
    }

    /// Asks the receiver's reactor, if it has one, for a visit.
    fn wake(&self) {
        if let Some(waker) = &*self.0.lock() {
            waker.wake_read();
        }
    }
}

/// The sending side of an in-process queue. Clones share one channel
/// sender, so the receiver sees a disconnect exactly when the last clone —
/// the peer half's, or the last of the sim scheduler's for frames still in
/// flight — is gone.
pub(crate) struct Mailbox<T>(Arc<MailboxInner<T>>);

/// The receiving side: the channel, and the slot its senders look in.
struct Inbox<T> {
    /// Behind a lock only because std's `Receiver` is not `Sync` and a
    /// `Conn` must be. Each inbox has one reader at a time — the client's
    /// reader role (its `close` sweeps only after taking that role), the
    /// reactor, or the accept loop — so the lock is never contended.
    rx: Mutex<Receiver<T>>,
    slot: Arc<WakerSlot>,
}

struct MailboxInner<T> {
    // Field order is drop order: the channel disconnects first...
    tx: Sender<T>,
    // ...and then the receiver's reactor is asked to come and see it.
    hang_up: HangUp,
}

/// Wakes the slot's reactor when dropped: a disconnect has no frame to
/// announce it, and a reactor has no blocked `recv` to stumble on it.
struct HangUp(Arc<WakerSlot>);

impl Drop for HangUp {
    fn drop(&mut self) {
        self.0.wake();
    }
}

impl<T> Clone for Mailbox<T> {
    fn clone(&self) -> Mailbox<T> {
        Mailbox(Arc::clone(&self.0))
    }
}

impl<T> Mailbox<T> {
    fn new() -> (Mailbox<T>, Inbox<T>) {
        let (tx, rx) = channel();
        let slot = Arc::<WakerSlot>::default();
        let hang_up = HangUp(Arc::clone(&slot));
        (
            Mailbox(Arc::new(MailboxInner { tx, hang_up })),
            Inbox {
                rx: Mutex::new(rx),
                slot,
            },
        )
    }

    /// Queues `item` and, if a reactor drives the receiver, tells it.
    /// False if the receiver is gone.
    pub(crate) fn deliver(&self, item: T) -> bool {
        let delivered = self.0.tx.send(item).is_ok();
        if delivered {
            self.0.hang_up.0.wake();
        }
        delivered
    }
}

/// Shared close flag between the two halves of an in-process connection.
pub(crate) struct CloseFlag {
    closed: AtomicBool,
    /// The inbox waker slots of both halves: a reactor driving either
    /// must hear of a close as promptly as of a frame.
    wakers: [Arc<WakerSlot>; 2],
}

impl CloseFlag {
    /// Returns true once either side has closed.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Marks the connection closed.
    pub(crate) fn close(&self) {
        if !self.closed.swap(true, Ordering::AcqRel) {
            for waker in &self.wakers {
                waker.wake();
            }
        }
    }
}

/// What stands between a [`ChanConn`]'s `send` and its peer's inbox: given
/// the inbox and a frame, delivers it now, later, twice or never.
pub(crate) type Route = Arc<dyn Fn(&Mailbox<Bytes>, Bytes) + Send + Sync>;

/// How often a blocked receiver looks at the close flag: a close by the
/// peer leaves the channel endpoints alive, so nothing else wakes it.
const CLOSE_POLL: Duration = Duration::from_millis(50);

/// Frames handed to the reactor per visit, so one firehose peer cannot
/// monopolise its thread.
const MAX_FRAMES_PER_VISIT: usize = 256;

/// One half of an in-process duplex connection.
///
/// Sending delivers into the peer's inbox — directly for a loopback pair,
/// through the `Route` (the sim scheduler) for a simulated one.
/// Receiving pops from this half's own inbox.
///
/// [`Conn::close`] ends both halves at once: frames still in the sim
/// scheduler are lost to it. Dropping a half does not — the peer reads
/// what was sent, in flight included, and only then `Closed`.
pub struct ChanConn {
    out: Mailbox<Bytes>,
    route: Option<Route>,
    inbox: Inbox<Bytes>,
    pub(crate) closed: Arc<CloseFlag>,
    peer: Option<Endpoint>,
}

impl ChanConn {
    /// Creates a directly wired pair of connection halves (no middleman).
    pub fn pair(a_peer: Option<Endpoint>, b_peer: Option<Endpoint>) -> (ChanConn, ChanConn) {
        ChanConn::pair_via(None, a_peer, b_peer)
    }

    /// Creates a pair whose frames, in both directions, travel by `route`.
    pub(crate) fn pair_via(
        route: Option<Route>,
        a_peer: Option<Endpoint>,
        b_peer: Option<Endpoint>,
    ) -> (ChanConn, ChanConn) {
        let (to_a, a_inbox) = Mailbox::new();
        let (to_b, b_inbox) = Mailbox::new();
        let closed = Arc::new(CloseFlag {
            closed: AtomicBool::new(false),
            wakers: [Arc::clone(&a_inbox.slot), Arc::clone(&b_inbox.slot)],
        });
        let half = |out, inbox, peer| ChanConn {
            out,
            route: route.clone(),
            inbox,
            closed: Arc::clone(&closed),
            peer,
        };
        (half(to_b, a_inbox, a_peer), half(to_a, b_inbox, b_peer))
    }

    /// Receives until `deadline` (forever if `None`), noticing a close.
    fn recv_until(&self, deadline: Option<Instant>) -> Result<Bytes> {
        let rx = self.inbox.rx.lock();
        loop {
            let step = deadline.map_or(CLOSE_POLL, |d| {
                d.saturating_duration_since(Instant::now()).min(CLOSE_POLL)
            });
            match rx.recv_timeout(step) {
                Ok(f) => return Ok(f),
                Err(RecvTimeoutError::Timeout) => {
                    if self.closed.is_closed() {
                        // Queued frames drain before the close is reported.
                        return rx.try_recv().map_err(|_| TransportError::Closed);
                    }
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return Err(TransportError::Timeout);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return Err(TransportError::Closed),
            }
        }
    }

    /// One visit's worth of the inbox, pushed into `sink`.
    fn drain_inbox(&self, sink: &mut dyn FnMut(Bytes)) -> Result<ReadDrive> {
        let rx = self.inbox.rx.lock();
        for _ in 0..MAX_FRAMES_PER_VISIT {
            match rx.try_recv() {
                Ok(frame) => sink(frame),
                Err(TryRecvError::Empty) => {
                    if !self.closed.is_closed() {
                        return Ok(ReadDrive::Open);
                    }
                    // Closed — unless a frame sent just before the close
                    // landed after the look above: queued frames drain
                    // before the close is reported.
                    match rx.try_recv() {
                        Ok(frame) => sink(frame),
                        Err(_) => return Ok(ReadDrive::Closed),
                    }
                }
                Err(TryRecvError::Disconnected) => return Ok(ReadDrive::Closed),
            }
        }
        // Cap reached with the inbox possibly still holding frames, and no
        // fd whose rearm would report them: ask for another visit.
        self.inbox.slot.wake();
        Ok(ReadDrive::Open)
    }
}

impl Conn for ChanConn {
    fn send(&self, frame: Bytes) -> Result<()> {
        if self.closed.is_closed() {
            return Err(TransportError::Closed);
        }
        match &self.route {
            Some(route) => route(&self.out, frame),
            None => {
                if !self.out.deliver(frame) {
                    return Err(TransportError::Closed);
                }
            }
        }
        Ok(())
    }

    fn recv(&self) -> Result<Bytes> {
        self.recv_until(None)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Bytes> {
        self.recv_until(Some(Instant::now() + timeout))
    }

    fn close(&self) {
        self.closed.close();
    }

    fn peer(&self) -> Option<Endpoint> {
        self.peer.clone()
    }

    fn as_pollable(&self) -> Option<&dyn Pollable> {
        Some(self)
    }
}

impl Pollable for ChanConn {
    fn poll_fd(&self) -> Option<i32> {
        None
    }

    fn enter_reactor_mode(&self, waker: ReactorWaker) -> Result<()> {
        self.inbox.slot.set(waker);
        Ok(())
    }

    /// Takes no syscall: the frames are already in the inbox.
    fn drive_read(&self, sink: &mut dyn FnMut(Bytes)) -> Result<ReadReport> {
        self.drain_inbox(sink).map(ReadReport::without_syscalls)
    }

    /// Nothing to flush: `send` already put the frame in the peer's inbox.
    fn drive_write(&self) -> Result<FlushReport> {
        Ok(FlushReport::default())
    }
}

/// The listener of an in-process transport: a queue of server halves that
/// the transport's `connect` delivers into.
pub(crate) struct ChanListener {
    local: Endpoint,
    incoming: Inbox<Box<dyn Conn>>,
    /// Takes this listener's name out of its transport's namespace.
    unlisten: Box<dyn Fn() + Send + Sync>,
}

impl ChanListener {
    /// Creates a listener known as `local`, and the mailbox through which
    /// its transport hands it the server half of each new connection.
    pub(crate) fn new(
        local: Endpoint,
        unlisten: impl Fn() + Send + Sync + 'static,
    ) -> (ChanListener, Mailbox<Box<dyn Conn>>) {
        let (mailbox, incoming) = Mailbox::new();
        let unlisten = Box::new(unlisten);
        let listener = ChanListener {
            local,
            incoming,
            unlisten,
        };
        (listener, mailbox)
    }
}

impl Listener for ChanListener {
    fn accept(&self) -> Result<Box<dyn Conn>> {
        self.incoming
            .rx
            .lock()
            .recv()
            .map_err(|_| TransportError::Closed)
    }

    fn local_endpoint(&self) -> Endpoint {
        self.local.clone()
    }

    fn close(&self) {
        // Dropping the namespace's mailbox disconnects `incoming`, and
        // wakes the reactor to see it.
        (self.unlisten)();
    }

    fn as_pollable(&self) -> Option<&dyn PollableListener> {
        Some(self)
    }
}

impl PollableListener for ChanListener {
    fn poll_fd(&self) -> Option<i32> {
        None
    }

    fn enter_reactor_mode(&self, waker: ReactorWaker) -> Result<()> {
        self.incoming.slot.set(waker);
        Ok(())
    }

    fn accept_nonblocking(&self) -> Result<AcceptPoll> {
        match self.incoming.rx.lock().try_recv() {
            Ok(conn) => Ok(AcceptPoll::Conn(conn)),
            Err(TryRecvError::Empty) => Ok(AcceptPoll::WouldBlock),
            // Unlistened, and every connection made before that accepted.
            Err(TryRecvError::Disconnected) => Err(TransportError::Closed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_exchanges_frames_both_ways() {
        let (a, b) = ChanConn::pair(None, None);
        a.send(Bytes::from(b"ping".to_vec())).unwrap();
        assert_eq!(&b.recv().unwrap()[..], b"ping");
        b.send(Bytes::from(b"pong".to_vec())).unwrap();
        assert_eq!(&a.recv().unwrap()[..], b"pong");
    }

    #[test]
    fn preserves_frame_order() {
        let (a, b) = ChanConn::pair(None, None);
        for i in 0..100u32 {
            a.send(Bytes::from(i.to_le_bytes().to_vec())).unwrap();
        }
        for i in 0..100u32 {
            assert_eq!(&b.recv().unwrap()[..], i.to_le_bytes());
        }
    }

    #[test]
    fn close_unblocks_receiver() {
        let (a, b) = ChanConn::pair(None, None);
        let h = std::thread::spawn(move || b.recv());
        std::thread::sleep(Duration::from_millis(20));
        a.close();
        assert_eq!(h.join().unwrap(), Err(TransportError::Closed));
    }

    #[test]
    fn send_after_close_fails() {
        let (a, b) = ChanConn::pair(None, None);
        b.close();
        assert_eq!(
            a.send(Bytes::from(vec![1])).unwrap_err(),
            TransportError::Closed
        );
    }

    #[test]
    fn recv_timeout_expires() {
        let (_a, b) = ChanConn::pair(None, None);
        let t0 = std::time::Instant::now();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(60)).unwrap_err(),
            TransportError::Timeout
        );
        assert!(t0.elapsed() >= Duration::from_millis(55));
    }

    #[test]
    fn queued_frames_drain_before_close_reported() {
        let (a, b) = ChanConn::pair(None, None);
        a.send(Bytes::from(vec![1])).unwrap();
        a.send(Bytes::from(vec![2])).unwrap();
        a.close();
        assert_eq!(b.recv().unwrap(), vec![1]);
        assert_eq!(b.recv().unwrap(), vec![2]);
        assert_eq!(
            b.recv_timeout(Duration::from_millis(80)).unwrap_err(),
            TransportError::Closed
        );
    }
}
