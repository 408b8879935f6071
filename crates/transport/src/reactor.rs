//! The readiness-driven reactor: one thread, many connections.
//!
//! The original runtime dedicated a reader thread to every accepted
//! connection. That model is simple and keeps slow peers isolated, but it
//! caps a server at a few thousand clients — far short of the "serves
//! millions of users" ambition the paper's successors grew into. The
//! [`Reactor`] is a single event loop over an epoll-style readiness poller
//! (see the vendored `polling` shim): connections register *interest*,
//! the loop wakes when a connection is ready, and per-connection
//! **drivers** (state machines supplied by the layer above) consume
//! decoded frames on the reactor thread.
//!
//! Division of labour:
//!
//! - The transport (this module plus [`crate::tcp`]) owns readiness,
//!   non-blocking reads into each connection's frame decoder, and write
//!   coalescing: replies queued by any thread are flushed in batched
//!   vectored writes — many frames per syscall — when the reactor wakes.
//! - The layer above owns protocol state. It implements [`ConnDriver`]
//!   (frame in → optional replies out via the ordinary [`Conn::send`])
//!   and [`AcceptDriver`] (new connection → its driver).
//!
//! Every transport's server half is [`Pollable`], and readiness reaches
//! the loop one of two ways. A socket has a file descriptor
//! ([`Pollable::poll_fd`] is `Some`): the kernel reports it through the
//! poller. An in-process connection ([`crate::chan`]: loopback, SimNet)
//! has none: whoever puts a frame in its inbox, or closes it, announces
//! that through the [`ReactorWaker`] the connection was given — *software
//! readiness*, carried by the poller's notifier. Past that point the loop
//! does not know which kind it is driving.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use polling::{Event, Events, Poller};

use crate::clock::ClockHandle;
use crate::{Conn, Listener, Result};

/// What a [`Pollable::drive_read`] call observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadDrive {
    /// The connection is still open (a read came up short or found
    /// nothing, or the per-visit fairness cap was reached).
    Open,
    /// The peer closed (EOF) or the stream failed; deliver any decoded
    /// frames, then tear the connection down.
    Closed,
}

/// Outcome of one [`Pollable::drive_read`] visit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadReport {
    /// Whether the connection is still open.
    pub drive: ReadDrive,
    /// Receive syscalls issued.
    pub syscalls: usize,
}

impl ReadReport {
    /// A visit that issued no syscall.
    pub fn without_syscalls(drive: ReadDrive) -> ReadReport {
        ReadReport { drive, syscalls: 0 }
    }
}

/// Outcome of one coalesced [`Pollable::drive_write`] flush.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlushReport {
    /// Complete frames fully written by this flush.
    pub frames: usize,
    /// Vectored-write syscalls issued, those that moved nothing (`EAGAIN`,
    /// `EINTR`) included.
    pub syscalls: usize,
    /// True if queued bytes remain (the socket buffer filled); the
    /// reactor then arms writable interest and retries on readiness.
    pub pending: bool,
}

/// A connection that can be driven by the [`Reactor`]: it has a source of
/// readiness and non-blocking read/write entry points.
///
/// Once in reactor mode, frames are pushed to the registered
/// [`ConnDriver`] instead of being handed out by `recv`, and a
/// [`Conn::send`] the connection cannot complete at once is queued for
/// [`Pollable::drive_write`].
///
/// **A visit.** The reactor calls `drive_read` and `drive_write` of one
/// connection only from its own thread, and every `drive_read` is
/// followed by a `drive_write` in the same visit, before the connection is
/// re-armed or any other connection is visited. So a frame queued between
/// the start of `drive_read` and the moment `drive_write` takes the queue
/// (by the driver inline, or by any other thread) needs no
/// [`ReactorWaker::wake_write`]: that `drive_write` flushes it.
pub trait Pollable: Send + Sync {
    /// The OS readiness handle (a file descriptor on unix) the poller
    /// should watch, or `None` for a connection that announces its own
    /// readiness through [`ReactorWaker::wake_read`].
    fn poll_fd(&self) -> Option<i32>;

    /// Switches the connection to non-blocking, reactor-managed mode and
    /// installs the waker through which it asks the reactor for a visit.
    fn enter_reactor_mode(&self, waker: ReactorWaker) -> Result<()>;

    /// Reads whatever is available without blocking, pushing each complete
    /// decoded frame into `sink` as soon as it is decoded — before the
    /// next read, which can then reuse the buffer of a frame `sink` did
    /// not keep. Framing errors are returned (the caller drops the
    /// connection — a desynchronised stream cannot recover).
    fn drive_read(&self, sink: &mut dyn FnMut(Bytes)) -> Result<ReadReport>;

    /// Flushes queued outbound frames with coalesced vectored writes; it
    /// ends the visit a `drive_read` began.
    fn drive_write(&self) -> Result<FlushReport>;
}

/// A listener that can hand out connections without blocking.
pub trait PollableListener: Send + Sync {
    /// As [`Pollable::poll_fd`].
    fn poll_fd(&self) -> Option<i32>;

    /// Switches the listener to non-blocking mode; an fd-less listener
    /// keeps `waker` and calls [`ReactorWaker::wake_read`] when a
    /// connection is waiting to be accepted.
    fn enter_reactor_mode(&self, waker: ReactorWaker) -> Result<()>;

    /// Accepts one pending connection. The three non-error outcomes are
    /// distinguished because they need different rearm policies (see
    /// [`AcceptPoll`]); an `Err` means the listener itself is dead and is
    /// deregistered.
    fn accept_nonblocking(&self) -> Result<AcceptPoll>;
}

/// Outcome of one [`PollableListener::accept_nonblocking`] attempt.
pub enum AcceptPoll {
    /// A connection was accepted.
    Conn(Box<dyn Conn>),
    /// The backlog is empty: rearm readiness and wait — the fd will not
    /// report readable again until a new connection arrives.
    WouldBlock,
    /// A connection was pending but could not be accepted — fd exhaustion
    /// (EMFILE/ENFILE leaves the backlog entry in place), an aborted
    /// handshake, a per-socket setup failure. The backlog may still be
    /// non-empty, so an immediate rearm would spin the event loop hot;
    /// the reactor retries on its next tick instead.
    Retry,
}

/// Verdict a [`ConnDriver`] returns per delivered frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// Keep the connection registered.
    Continue,
    /// Tear the connection down (protocol violation, shutdown, …).
    Close,
}

/// The per-connection protocol state machine the reactor drives.
///
/// All calls arrive on the reactor thread, never concurrently for one
/// connection; `on_frame` runs in the middle of the connection's
/// [`Pollable::drive_read`]. Replies go out through the connection's
/// ordinary [`Conn::send`], which in reactor mode enqueues for a coalesced
/// flush.
pub trait ConnDriver: Send {
    /// One decoded inbound frame.
    fn on_frame(&mut self, frame: Bytes) -> Drive;

    /// Periodic housekeeping (ack-expiry sweeps and the like); called
    /// roughly every reactor tick, even when the connection is idle.
    fn on_tick(&mut self) {}

    /// The connection is gone (peer closed, error, or reactor shutdown);
    /// release everything attributed to it.
    fn on_close(&mut self) {}
}

/// Decides what to do with connections a registered listener accepts.
pub trait AcceptDriver: Send {
    /// A new inbound connection. Return its driver to register it with the
    /// reactor, or `None` to drop it on the floor.
    fn on_accept(&mut self, conn: Arc<dyn Conn>) -> Option<Box<dyn ConnDriver>>;
}

/// Point-in-time reactor statistics, for gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorSnapshot {
    /// Connections currently registered with the reactor.
    pub connections: u64,
    /// Readiness events delivered by the most recent poll batch — the
    /// instantaneous depth of the readiness queue.
    pub readiness_depth: u64,
    /// Largest poll batch ever delivered (monotonic high-water mark).
    pub readiness_high_water: u64,
    /// Complete frames written by coalesced flushes (monotonic).
    pub frames_flushed: u64,
    /// Vectored-write syscalls those flushes issued (monotonic);
    /// `frames_flushed / flush_syscalls` is the coalescing ratio.
    pub flush_syscalls: u64,
    /// Receive syscalls the connections' reads issued (monotonic).
    pub recv_syscalls: u64,
    /// `epoll_wait` calls of this reactor's poller (monotonic).
    pub poll_waits: u64,
    /// `epoll_ctl` calls of this reactor's poller: registrations,
    /// re-arms and removals (monotonic).
    pub poll_ctls: u64,
    /// Writes to this reactor's eventfd notifier: software wake-ups that
    /// had to interrupt a poll (monotonic).
    pub notify_writes: u64,
    /// Reads that drained the notifier (monotonic).
    pub notify_reads: u64,
    /// Times the event loop woke up (readiness, notify, or tick).
    pub wakeups: u64,
    /// Connections accepted through reactor-registered listeners.
    pub accepted: u64,
}

/// Handle through which a registered connection or listener asks the
/// reactor for a visit on its next wakeup. Cheap and non-blocking; safe
/// to call from any thread. Calls after the reactor died are ignored.
#[derive(Clone)]
pub struct ReactorWaker {
    shared: Weak<Shared>,
    token: usize,
}

impl ReactorWaker {
    /// "I have queued outbound frames; flush me" (typically from a worker
    /// that just queued a reply).
    pub fn wake_write(&self) {
        if let Some(shared) = self.shared.upgrade() {
            shared.wake(&shared.write_pending, self.token);
        }
    }

    /// "I have something to read (or accept), or I was closed" — the
    /// software stand-in for the poller reporting a readable fd.
    pub fn wake_read(&self) {
        if let Some(shared) = self.shared.upgrade() {
            shared.wake(&shared.read_ready, self.token);
        }
    }
}

enum Op {
    AddConn {
        conn: Arc<dyn Conn>,
        driver: Box<dyn ConnDriver>,
    },
    AddListener {
        listener: Arc<dyn Listener>,
        driver: Box<dyn AcceptDriver>,
    },
}

struct Shared {
    poller: Poller,
    ops: Mutex<Vec<Op>>,
    /// Tokens whose connections have queued outbound frames.
    write_pending: Mutex<Vec<usize>>,
    /// Tokens of fd-less connections and listeners that announced
    /// readiness themselves ([`ReactorWaker::wake_read`]).
    read_ready: Mutex<Vec<usize>>,
    /// The clock the callers served here wait on. A virtual one must not
    /// run ahead while a wake-up sits on either list: the frame behind it
    /// is work in progress that no thread is doing yet.
    clock: ClockHandle,
    shutdown: AtomicBool,
    registered: AtomicUsize,
    accepted: AtomicU64,
    frames_flushed: AtomicU64,
    flush_syscalls: AtomicU64,
    recv_syscalls: AtomicU64,
    wakeups: AtomicU64,
    readiness_depth: AtomicUsize,
    readiness_high_water: AtomicUsize,
}

impl Shared {
    /// Puts `token` on one of the two wake lists and interrupts the poll.
    fn wake(&self, list: &Mutex<Vec<usize>>, token: usize) {
        {
            let mut list = list.lock();
            // Checked under the lock the exiting loop empties the list
            // under: nothing is queued, or counted, that nobody will take.
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            list.push(token);
            if let Some(vc) = self.clock.as_virtual() {
                vc.work_queued();
            }
        }
        let _ = self.poller.notify();
    }

    /// `n` wake-ups taken off a list have been acted on.
    fn visited(&self, n: usize) {
        if let Some(vc) = self.clock.as_virtual() {
            vc.work_taken(n as u64);
        }
    }
}

/// Accepts at most this many connections per listener readiness visit, so
/// an accept storm cannot starve established connections.
const MAX_ACCEPTS_PER_VISIT: usize = 256;

/// A running readiness event loop.
///
/// Create with [`Reactor::start`]; register listeners and connections;
/// [`Reactor::shutdown`] (or drop) tears everything down, invoking every
/// driver's `on_close`.
pub struct Reactor {
    shared: Arc<Shared>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Reactor {
    /// The tick period servers use: how often an idle connection's
    /// expired ack obligations are swept.
    pub const DEFAULT_TICK: Duration = Duration::from_millis(500);

    /// Starts the event loop on its own thread. Fails with the poller's
    /// `Unsupported` error where no readiness backend exists (anywhere but
    /// Linux): there is no other way to serve. The loop runs in real time
    /// whatever `clock` is; a virtual one is only told of wake-ups the
    /// loop has yet to act on.
    pub fn start(tick: Duration, clock: ClockHandle) -> Result<Reactor> {
        let poller = Poller::new().map_err(io_err)?;
        let shared = Arc::new(Shared {
            poller,
            ops: Mutex::new(Vec::new()),
            write_pending: Mutex::new(Vec::new()),
            read_ready: Mutex::new(Vec::new()),
            clock,
            shutdown: AtomicBool::new(false),
            registered: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            frames_flushed: AtomicU64::new(0),
            flush_syscalls: AtomicU64::new(0),
            recv_syscalls: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            readiness_depth: AtomicUsize::new(0),
            readiness_high_water: AtomicUsize::new(0),
        });
        let loop_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("netobj-reactor".into())
            .spawn(move || EventLoop::new(loop_shared, tick).run())
            .map_err(io_err)?;
        Ok(Reactor {
            shared,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// Registers a connection (which must be [`Pollable`]) under `driver`.
    /// Registration is asynchronous: the event loop integrates it on its
    /// next wakeup.
    pub fn register_conn(&self, conn: Arc<dyn Conn>, driver: Box<dyn ConnDriver>) -> Result<()> {
        if conn.as_pollable().is_none() {
            return Err(crate::TransportError::Io(
                "connection cannot be driven by a reactor".into(),
            ));
        }
        self.submit(Op::AddConn { conn, driver })
    }

    /// Registers a listener (which must be [`PollableListener`]); accepted
    /// connections are offered to `driver` and, when it returns a
    /// [`ConnDriver`], registered with this reactor.
    pub fn register_listener(
        &self,
        listener: Arc<dyn Listener>,
        driver: Box<dyn AcceptDriver>,
    ) -> Result<()> {
        if listener.as_pollable().is_none() {
            return Err(crate::TransportError::Io(
                "listener cannot be driven by a reactor".into(),
            ));
        }
        self.submit(Op::AddListener { listener, driver })
    }

    fn submit(&self, op: Op) -> Result<()> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(crate::TransportError::Closed);
        }
        self.shared.ops.lock().push(op);
        self.shared.poller.notify().map_err(io_err)?;
        Ok(())
    }

    /// Current statistics (connection count, coalescing counters, …).
    pub fn stats(&self) -> ReactorSnapshot {
        let s = &self.shared;
        let poll = s.poller.counts();
        ReactorSnapshot {
            connections: s.registered.load(Ordering::Relaxed) as u64,
            readiness_depth: s.readiness_depth.load(Ordering::Relaxed) as u64,
            readiness_high_water: s.readiness_high_water.load(Ordering::Relaxed) as u64,
            frames_flushed: s.frames_flushed.load(Ordering::Relaxed),
            flush_syscalls: s.flush_syscalls.load(Ordering::Relaxed),
            recv_syscalls: s.recv_syscalls.load(Ordering::Relaxed),
            poll_waits: poll.waits,
            poll_ctls: poll.ctls,
            notify_writes: poll.notify_writes,
            notify_reads: poll.notify_reads,
            wakeups: s.wakeups.load(Ordering::Relaxed),
            accepted: s.accepted.load(Ordering::Relaxed),
        }
    }

    /// Stops the event loop, closes every registered connection (running
    /// each driver's `on_close`), and joins the thread.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        let _ = self.shared.poller.notify();
        if let Some(h) = self.thread.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn io_err(e: io::Error) -> crate::TransportError {
    crate::TransportError::Io(e.to_string())
}

struct ConnEntry {
    conn: Arc<dyn Conn>,
    driver: Box<dyn ConnDriver>,
}

struct ListenerEntry {
    listener: Arc<dyn Listener>,
    driver: Box<dyn AcceptDriver>,
}

/// Loop-private state: only the reactor thread touches the registration
/// maps, so drivers run without any lock held and may call back into
/// `Conn::send` (and thus a [`ReactorWaker`]) freely.
struct EventLoop {
    shared: Arc<Shared>,
    tick: Duration,
    next_token: usize,
    conns: HashMap<usize, ConnEntry>,
    listeners: HashMap<usize, ListenerEntry>,
    /// Listeners whose last accept hit a transient failure with backlog
    /// possibly still pending ([`AcceptPoll::Retry`]): revisited on the
    /// next tick instead of rearmed immediately, so fd exhaustion cannot
    /// spin the loop hot.
    deferred_accepts: Vec<usize>,
    /// The emptied buffer a wake list is swapped with ([`Self::take_wakes`]).
    spare_wakes: Vec<usize>,
}

impl EventLoop {
    fn new(shared: Arc<Shared>, tick: Duration) -> EventLoop {
        EventLoop {
            shared,
            tick,
            next_token: 0,
            conns: HashMap::new(),
            listeners: HashMap::new(),
            deferred_accepts: Vec::new(),
            spare_wakes: Vec::new(),
        }
    }

    /// Takes every token off one wake list by swapping the list with the
    /// loop's spare buffer, so the list keeps a buffer to push into and
    /// neither side allocates once warm. [`Self::done_wakes`] returns it.
    fn take_wakes(&mut self, list: fn(&Shared) -> &Mutex<Vec<usize>>) -> Vec<usize> {
        let spare = std::mem::take(&mut self.spare_wakes);
        std::mem::replace(&mut *list(&self.shared).lock(), spare)
    }

    /// Counts `tokens` as visited and keeps their buffer as the spare.
    fn done_wakes(&mut self, mut tokens: Vec<usize>) {
        self.shared.visited(tokens.len());
        tokens.clear();
        self.spare_wakes = tokens;
    }

    fn run(mut self) {
        let mut events = Events::new();
        let mut last_tick = Instant::now();
        loop {
            events.clear();
            let _ = self.shared.poller.wait(&mut events, Some(self.tick));
            self.shared.wakeups.fetch_add(1, Ordering::Relaxed);
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            self.integrate_ops();
            self.flush_scheduled();
            let woken = self.take_wakes(|s| &s.read_ready);
            for &token in &woken {
                self.visit(token, true, false);
            }
            self.done_wakes(woken);
            let batch = events.len();
            self.shared.readiness_depth.store(batch, Ordering::Relaxed);
            self.shared
                .readiness_high_water
                .fetch_max(batch, Ordering::Relaxed);
            for ev in events.iter() {
                self.visit(ev.key, ev.readable, ev.writable);
            }
            if last_tick.elapsed() >= self.tick {
                last_tick = Instant::now();
                for entry in self.conns.values_mut() {
                    entry.driver.on_tick();
                }
            }
            // Deferred accepts retry every wakeup (at worst every tick):
            // bounded work, unlike an immediate rearm which would fire
            // again instantly while the transient condition persists.
            for token in std::mem::take(&mut self.deferred_accepts) {
                if self.listeners.contains_key(&token) {
                    self.handle_accept(token);
                }
            }
        }
        // Shutdown: tear everything down deterministically.
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
        for (_, entry) in self.listeners.drain() {
            entry.listener.close();
        }
        // Wake-ups that raced shutdown will not be visited (and `wake`
        // queues no more): stop counting them.
        for list in [&self.shared.write_pending, &self.shared.read_ready] {
            self.shared.visited(std::mem::take(&mut *list.lock()).len());
        }
        // Reject registrations that raced shutdown.
        for op in self.shared.ops.lock().drain(..) {
            match op {
                Op::AddConn { conn, mut driver } => {
                    conn.close();
                    driver.on_close();
                }
                Op::AddListener { listener, .. } => listener.close(),
            }
        }
    }

    /// Readiness for `token`, from the poller or announced in software.
    fn visit(&mut self, token: usize, readable: bool, writable: bool) {
        if self.listeners.contains_key(&token) {
            self.handle_accept(token);
        } else if self.conns.contains_key(&token) {
            self.handle_conn(token, readable, writable);
        }
        // Unknown tokens: readiness that raced a close. Ignore.
    }

    fn integrate_ops(&mut self) {
        let ops: Vec<Op> = std::mem::take(&mut *self.shared.ops.lock());
        for op in ops {
            match op {
                Op::AddConn { conn, driver } => self.add_conn(conn, driver),
                Op::AddListener { listener, driver } => {
                    let (token, waker) = self.alloc_token();
                    let entered = listener
                        .as_pollable()
                        .and_then(|p| p.enter_reactor_mode(waker).ok().map(|()| p.poll_fd()));
                    match entered {
                        Some(fd) if self.watch(fd, token) => {
                            self.listeners
                                .insert(token, ListenerEntry { listener, driver });
                            if fd.is_none() {
                                self.handle_accept(token);
                            }
                        }
                        _ => listener.close(),
                    }
                }
            }
        }
    }

    fn alloc_token(&mut self) -> (usize, ReactorWaker) {
        let token = self.next_token;
        self.next_token += 1;
        let waker = ReactorWaker {
            shared: Arc::downgrade(&self.shared),
            token,
        };
        (token, waker)
    }

    /// Applies `op` (add, modify, delete) to the poller's registration of
    /// `fd`; a source without one has none, and that is fine.
    fn poll(&self, fd: Option<i32>, op: impl FnOnce(&Poller, i32) -> io::Result<()>) -> bool {
        fd.map_or(true, |fd| op(&self.shared.poller, fd).is_ok())
    }

    /// Starts watching a newly registered source for readability. One
    /// without an fd had nobody to report what reached it before its waker
    /// was installed, so the caller visits it once.
    fn watch(&self, fd: Option<i32>, token: usize) -> bool {
        self.poll(fd, |p, fd| p.add(fd, Event::readable(token)))
    }

    fn add_conn(&mut self, conn: Arc<dyn Conn>, mut driver: Box<dyn ConnDriver>) {
        let (token, waker) = self.alloc_token();
        let entered = conn
            .as_pollable()
            .and_then(|p| p.enter_reactor_mode(waker).ok().map(|()| p.poll_fd()));
        match entered {
            Some(fd) if self.watch(fd, token) => {
                self.conns.insert(token, ConnEntry { conn, driver });
                self.shared
                    .registered
                    .store(self.conns.len(), Ordering::Relaxed);
                if fd.is_none() {
                    self.handle_conn(token, true, false);
                }
            }
            _ => {
                conn.close();
                driver.on_close();
            }
        }
    }

    /// Flushes connections whose senders queued frames since the last
    /// wakeup. One coalesced flush covers every frame queued so far —
    /// this is where "many replies, one syscall" happens for pool replies.
    fn flush_scheduled(&mut self) {
        let pending = self.take_wakes(|s| &s.write_pending);
        for &token in &pending {
            // A token that raced a close is ignored. One whose socket
            // filled waits for writability; its read interest stays.
            if self.flush_conn(token) {
                self.rearm(token, Event::all(token));
            }
        }
        self.done_wakes(pending);
    }

    /// Flushes one connection; closes it on write failure. Returns whether
    /// outbound bytes remain queued: the caller's re-arm then asks for
    /// writability too.
    fn flush_conn(&mut self, token: usize) -> bool {
        let Some(entry) = self.conns.get(&token) else {
            return false;
        };
        let pollable = entry
            .conn
            .as_pollable()
            .expect("registered conns are pollable");
        match pollable.drive_write() {
            Ok(report) => {
                self.shared
                    .frames_flushed
                    .fetch_add(report.frames as u64, Ordering::Relaxed);
                self.shared
                    .flush_syscalls
                    .fetch_add(report.syscalls as u64, Ordering::Relaxed);
                report.pending
            }
            Err(_) => {
                self.close_conn(token);
                false
            }
        }
    }

    fn handle_accept(&mut self, token: usize) {
        let mut closed = false;
        let mut defer = false;
        let mut capped = true;
        for _ in 0..MAX_ACCEPTS_PER_VISIT {
            // Split-borrow dance: accept first, then (separately) register.
            let accepted = {
                let entry = self.listeners.get_mut(&token).expect("listener exists");
                let pollable = entry
                    .listener
                    .as_pollable()
                    .expect("registered listeners are pollable");
                match pollable.accept_nonblocking() {
                    Ok(AcceptPoll::Conn(conn)) => {
                        self.shared.accepted.fetch_add(1, Ordering::Relaxed);
                        let conn: Arc<dyn Conn> = Arc::from(conn);
                        entry.driver.on_accept(Arc::clone(&conn)).map(|d| (conn, d))
                    }
                    Ok(AcceptPoll::WouldBlock) => {
                        capped = false;
                        break;
                    }
                    Ok(AcceptPoll::Retry) => {
                        defer = true;
                        break;
                    }
                    Err(_) => {
                        closed = true;
                        break;
                    }
                }
            };
            if let Some((conn, driver)) = accepted {
                self.add_conn(conn, driver);
            }
        }
        let entry = self.listeners.get(&token).expect("listener exists");
        let fd = entry
            .listener
            .as_pollable()
            .expect("registered listeners are pollable")
            .poll_fd();
        if closed {
            self.poll(fd, |p, fd| p.delete(fd));
            self.listeners.remove(&token);
            return;
        }
        if defer {
            // The backlog may still hold connections we cannot accept right
            // now (e.g. fd exhaustion): rearming readiness would fire again
            // immediately and spin. Park the listener for a tick-paced
            // retry; its fd stays registered but disarmed (oneshot).
            self.deferred_accepts.push(token);
            return;
        }
        if !self.poll(fd, |p, fd| p.modify(fd, Event::readable(token))) {
            self.listeners.remove(&token);
        } else if capped && fd.is_none() {
            // The rearm re-reports an fd whose backlog outlasted the cap;
            // a listener without one has to be asked for again.
            self.shared.wake(&self.shared.read_ready, token);
        }
    }

    fn handle_conn(&mut self, token: usize, readable: bool, writable: bool) {
        let mut eof = false;
        if readable {
            // Read and deliver in one pass: each frame goes to the driver
            // as soon as it is decoded, so a frame served inline is gone
            // before the next receive, which then refills the connection's
            // read buffer in place rather than in a fresh allocation. The
            // driver may call `Conn::send` (queuing replies) and
            // `ReactorWaker::wake_write`.
            let entry = self.conns.get_mut(&token).expect("conn exists");
            let driver = &mut entry.driver;
            let mut close_requested = false;
            let read = entry
                .conn
                .as_pollable()
                .expect("pollable")
                .drive_read(&mut |frame| {
                    // After a close verdict the rest of the batch is dropped.
                    if !close_requested && driver.on_frame(frame) == Drive::Close {
                        close_requested = true;
                    }
                });
            match read {
                Ok(report) => {
                    self.shared
                        .recv_syscalls
                        .fetch_add(report.syscalls as u64, Ordering::Relaxed);
                    eof = report.drive == ReadDrive::Closed;
                }
                Err(_) => eof = true,
            }
            if close_requested {
                // Push out any replies queued for frames handled before
                // the close verdict (e.g. a final error reply), best
                // effort, then drop the connection.
                self.flush_conn(token);
                self.close_conn(token);
                return;
            }
        }
        if !self.conns.contains_key(&token) {
            return;
        }
        // Phase 3: one coalesced flush for everything queued while handling
        // this batch (inline fast-path replies, and worker replies that
        // skipped the wake-up because the visit was on), plus any backlog
        // a full socket buffer left behind (writable readiness). It ends
        // the visit, so it runs whether or not anything is queued.
        let _ = writable;
        let write_pending = self.flush_conn(token);
        if eof {
            self.close_conn(token);
            return;
        }
        // The visit's one re-arm.
        let interest = if write_pending {
            Event::all(token)
        } else {
            Event::readable(token)
        };
        self.rearm(token, interest);
    }

    /// Re-arms a connection's oneshot registration with `interest`, and
    /// closes it if that fails. A token that is gone (closed by a failed
    /// flush) is ignored.
    fn rearm(&mut self, token: usize, interest: Event) {
        let Some(entry) = self.conns.get(&token) else {
            return;
        };
        let fd = entry.conn.as_pollable().expect("pollable").poll_fd();
        if !self.poll(fd, |p, fd| p.modify(fd, interest)) {
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: usize) {
        if let Some(mut entry) = self.conns.remove(&token) {
            let fd = entry.conn.as_pollable().and_then(|p| p.poll_fd());
            self.poll(fd, |p, fd| p.delete(fd));
            entry.conn.close();
            entry.driver.on_close();
            self.shared
                .registered
                .store(self.conns.len(), Ordering::Relaxed);
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::endpoint::Endpoint;
    use crate::tcp::Tcp;
    use crate::{Segments, Transport};

    /// Replies to every frame with the frame itself, in three pieces, so
    /// that every test here runs the gathered send path too.
    struct Echo {
        conn: Arc<dyn Conn>,
        closes: Arc<AtomicUsize>,
    }

    impl ConnDriver for Echo {
        fn on_frame(&mut self, frame: Bytes) -> Drive {
            let third = frame.len() / 3;
            let echo = Segments::new(
                frame.slice(..third),
                frame.slice(third..2 * third),
                frame.slice(2 * third..),
            );
            match self.conn.send_segments(echo) {
                Ok(()) => Drive::Continue,
                Err(_) => Drive::Close,
            }
        }

        fn on_close(&mut self) {
            self.closes.fetch_add(1, Ordering::SeqCst);
        }
    }

    struct EchoAccept {
        closes: Arc<AtomicUsize>,
    }

    impl AcceptDriver for EchoAccept {
        fn on_accept(&mut self, conn: Arc<dyn Conn>) -> Option<Box<dyn ConnDriver>> {
            Some(Box::new(Echo {
                conn,
                closes: Arc::clone(&self.closes),
            }))
        }
    }

    fn echo_server() -> (Reactor, Endpoint, Arc<AtomicUsize>) {
        echo_server_on(Reactor::start(Duration::from_millis(50), ClockHandle::system()).unwrap())
    }

    fn echo_server_on(reactor: Reactor) -> (Reactor, Endpoint, Arc<AtomicUsize>) {
        let listener: Arc<dyn Listener> =
            Arc::from(Tcp.listen(&Endpoint::tcp("127.0.0.1:0")).unwrap());
        let ep = listener.local_endpoint();
        let closes = Arc::new(AtomicUsize::new(0));
        reactor
            .register_listener(
                listener,
                Box::new(EchoAccept {
                    closes: Arc::clone(&closes),
                }),
            )
            .unwrap();
        (reactor, ep, closes)
    }

    fn wait_until(mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "condition not reached in 10s");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn echoes_frames_through_the_reactor() {
        let (reactor, ep, _closes) = echo_server();
        let client = Tcp.connect(&ep).unwrap();
        for i in 0..50u32 {
            client.send(Bytes::from(i.to_le_bytes().to_vec())).unwrap();
            assert_eq!(&client.recv().unwrap()[..], i.to_le_bytes());
        }
        // Counter updates trail the syscalls that the client's recv
        // observes, so poll rather than assert instantaneously.
        wait_until(|| reactor.stats().frames_flushed >= 50);
        let stats = reactor.stats();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.connections, 1);
    }

    #[test]
    fn burst_replies_are_coalesced() {
        let (reactor, ep, _closes) = echo_server();
        let client = Tcp.connect(&ep).unwrap();
        const N: usize = 400;
        for i in 0..N as u32 {
            client.send(Bytes::from(i.to_le_bytes().to_vec())).unwrap();
        }
        for i in 0..N as u32 {
            assert_eq!(&client.recv().unwrap()[..], i.to_le_bytes());
        }
        wait_until(|| reactor.stats().frames_flushed >= N as u64);
        let stats = reactor.stats();
        assert_eq!(stats.frames_flushed, N as u64);
        assert!(stats.flush_syscalls >= 1);
        // The burst outruns the reactor, so several replies must have
        // shared a vectored write. (The bound is loose on purpose: exact
        // batching depends on scheduling.)
        assert!(
            stats.flush_syscalls < stats.frames_flushed,
            "no coalescing: {} frames in {} syscalls",
            stats.frames_flushed,
            stats.flush_syscalls
        );
    }

    #[test]
    fn churned_connections_unregister_and_close_drivers() {
        let (reactor, ep, closes) = echo_server();
        const N: usize = 100;
        for i in 0..N as u32 {
            let client = Tcp.connect(&ep).unwrap();
            client.send(Bytes::from(i.to_le_bytes().to_vec())).unwrap();
            assert_eq!(&client.recv().unwrap()[..], i.to_le_bytes());
            client.close();
        }
        wait_until(|| reactor.stats().connections == 0);
        wait_until(|| closes.load(Ordering::SeqCst) == N);
        assert_eq!(reactor.stats().accepted, N as u64);
    }

    /// The reactor's counters once they stop moving (ticks aside).
    fn settled(reactor: &Reactor) -> ReactorSnapshot {
        let moving = |s: ReactorSnapshot| (s.recv_syscalls, s.poll_ctls, s.flush_syscalls);
        loop {
            let before = reactor.stats();
            std::thread::sleep(Duration::from_millis(100));
            let after = reactor.stats();
            if moving(before) == moving(after) {
                return after;
            }
        }
    }

    /// A visit whose flush leaves bytes queued (the peer stopped reading)
    /// re-arms its connection once, for reading and writing: one
    /// `epoll_ctl` per visit, as for any other visit.
    #[test]
    fn a_visit_that_leaves_bytes_queued_rearms_once() {
        let (reactor, ep, _closes) = echo_server_on(tickless_reactor());
        let client = Tcp.connect(&ep).unwrap();
        // Echoes of 8 MiB the client never reads: more than the socket
        // buffers of a peer that does not read can take.
        for _ in 0..8 {
            client.send(Bytes::from(vec![7u8; 1 << 20])).unwrap();
        }
        let before = settled(&reactor);
        const N: u64 = 20;
        // One visit per frame: with no tick to wake it, the loop is back in
        // its poll only once the frame's visit is over.
        for i in 1..=N {
            client.send(numbered(i as u32)).unwrap();
            wait_until(|| reactor.stats().poll_waits == before.poll_waits + i);
        }
        let after = reactor.stats();
        assert!(after.frames_flushed < 8 + N, "nothing stayed queued");
        assert_eq!(
            after.poll_ctls - before.poll_ctls,
            N,
            "re-arms in {N} visits"
        );
        // Each visit tried one `writev` into the full socket; a write that
        // moved nothing (`EAGAIN`) is a syscall too.
        assert_eq!(
            after.flush_syscalls - before.flush_syscalls,
            N,
            "writev attempts in {N} visits"
        );
    }

    /// A reactor that only wake-ups move: its tick never comes, so a lost
    /// software wake-up shows as a hang, not as half a second's delay.
    fn tickless_reactor() -> Reactor {
        Reactor::start(Duration::from_secs(3600), ClockHandle::system()).unwrap()
    }

    /// The in-process transports, each with a name to listen at.
    fn in_process_transports() -> [(Box<dyn Transport>, Endpoint); 2] {
        [
            (
                Box::new(crate::loopback::Loopback::new()),
                Endpoint::loopback("srv"),
            ),
            (
                Box::new(crate::sim::SimNet::instant()),
                Endpoint::sim("srv"),
            ),
        ]
    }

    fn numbered(i: u32) -> Bytes {
        Bytes::from(i.to_le_bytes().to_vec())
    }

    /// Reports each frame, and `None` for the close.
    struct Record(std::sync::mpsc::Sender<Option<Bytes>>);

    impl ConnDriver for Record {
        fn on_frame(&mut self, frame: Bytes) -> Drive {
            let _ = self.0.send(Some(frame));
            Drive::Continue
        }
        fn on_close(&mut self) {
            let _ = self.0.send(None);
        }
    }

    /// Frames that reached the inbox before the connection had a waker
    /// were announced to nobody, and more of them than one visit takes
    /// (256) outlast that visit with no fd to re-report them: registration
    /// must look, and a capped visit must ask for the next.
    #[test]
    fn frames_queued_before_registration_are_all_served() {
        for (transport, ep) in in_process_transports() {
            let listener = transport.listen(&ep).unwrap();
            let client = transport.connect(&ep).unwrap();
            let server: Arc<dyn Conn> = Arc::from(listener.accept().unwrap());
            const N: u32 = 1000;
            for i in 0..N {
                client.send(numbered(i)).unwrap();
            }
            let reactor = tickless_reactor();
            let driver = Echo {
                conn: Arc::clone(&server),
                closes: Arc::default(),
            };
            reactor.register_conn(server, Box::new(driver)).unwrap();
            for i in 0..N {
                let echoed = client.recv_timeout(Duration::from_secs(5));
                assert_eq!(echoed, Ok(numbered(i)), "{ep}");
            }
        }
    }

    /// The same two holes, on the accept side: connections made before the
    /// listener had a waker, and more of them than one visit accepts (256).
    #[test]
    fn connections_made_before_registration_are_all_accepted() {
        for (transport, ep) in in_process_transports() {
            let listener: Arc<dyn Listener> = Arc::from(transport.listen(&ep).unwrap());
            let clients: Vec<_> = (0..300u32)
                .map(|i| {
                    let client = transport.connect(&ep).unwrap();
                    client.send(numbered(i)).unwrap();
                    client
                })
                .collect();
            let reactor = tickless_reactor();
            let accept = EchoAccept {
                closes: Arc::default(),
            };
            reactor
                .register_listener(listener, Box::new(accept))
                .unwrap();
            for (i, client) in clients.iter().enumerate() {
                let echoed = client.recv_timeout(Duration::from_secs(5));
                assert_eq!(echoed, Ok(numbered(i as u32)), "{ep}");
            }
            assert_eq!(reactor.stats().accepted, 300);
        }
    }

    /// A close has no frame to announce it; the closing half wakes the
    /// other half's reactor itself, and so does a half that is dropped.
    #[test]
    fn peer_close_and_drop_reach_the_reactor_without_a_tick() {
        for (transport, ep) in in_process_transports() {
            let listener: Arc<dyn Listener> = Arc::from(transport.listen(&ep).unwrap());
            let reactor = tickless_reactor();
            let closes = Arc::new(AtomicUsize::new(0));
            let accept = EchoAccept {
                closes: Arc::clone(&closes),
            };
            reactor
                .register_listener(listener, Box::new(accept))
                .unwrap();
            let closed = transport.connect(&ep).unwrap();
            let dropped = transport.connect(&ep).unwrap();
            wait_until(|| reactor.stats().connections == 2);
            closed.close();
            drop(dropped);
            wait_until(|| closes.load(Ordering::SeqCst) == 2);
            assert_eq!(reactor.stats().connections, 0);
        }
    }

    /// Dropping a half is not closing it: what it sent before, still in the
    /// sim scheduler, reaches the other half first — a blocked reader and a
    /// reactor alike — and the disconnect only after that.
    #[test]
    fn frames_in_flight_outlive_the_half_that_sent_them() {
        use crate::sim::{LinkConfig, SimNet};
        let net = SimNet::new(LinkConfig::with_latency(Duration::from_millis(20)));
        let listener = net.listen(&Endpoint::sim("srv")).unwrap();
        let patience = Duration::from_secs(5);

        let client = net.connect(&Endpoint::sim("srv")).unwrap();
        let server = listener.accept().unwrap();
        client.send(numbered(1)).unwrap();
        drop(client);
        assert_eq!(server.recv_timeout(patience), Ok(numbered(1)));
        assert_eq!(
            server.recv_timeout(patience),
            Err(crate::TransportError::Closed)
        );

        let client = net.connect(&Endpoint::sim("srv")).unwrap();
        let server = listener.accept().unwrap();
        let reactor = tickless_reactor();
        let (seen_tx, seen) = std::sync::mpsc::channel();
        reactor
            .register_conn(Arc::from(server), Box::new(Record(seen_tx)))
            .unwrap();
        wait_until(|| reactor.stats().connections == 1);
        client.send(numbered(2)).unwrap();
        drop(client);
        assert_eq!(seen.recv_timeout(patience), Ok(Some(numbered(2))));
        assert_eq!(seen.recv_timeout(patience), Ok(None));
    }

    /// The reactor twin of `chan`'s blocking-`recv` test: frames sent
    /// before a `close` reach a reactor-driven half before the close does,
    /// even when they take more than one visit (256 frames) to drain.
    #[test]
    fn queued_frames_reach_the_reactor_before_the_close() {
        const N: u32 = 300;
        let patience = Duration::from_secs(5);
        for (transport, ep) in in_process_transports() {
            let listener = transport.listen(&ep).unwrap();
            let client = transport.connect(&ep).unwrap();
            let server = listener.accept().unwrap();
            let reactor = tickless_reactor();
            let (seen_tx, seen) = std::sync::mpsc::channel();
            reactor
                .register_conn(Arc::from(server), Box::new(Record(seen_tx)))
                .unwrap();
            wait_until(|| reactor.stats().connections == 1);
            for i in 0..N {
                client.send(numbered(i)).unwrap();
            }
            client.close();
            for i in 0..N {
                assert_eq!(seen.recv_timeout(patience), Ok(Some(numbered(i))), "{ep}");
            }
            assert_eq!(seen.recv_timeout(patience), Ok(None), "{ep}");
        }
    }

    /// A wake-up waiting for a busy reactor is work nobody is doing yet:
    /// a virtual clock must not take the silence for idleness and run a
    /// waiting caller past its deadline.
    #[test]
    fn queued_wake_ups_hold_a_virtual_clock() {
        /// Keeps the reactor thread busy, in real time, on every frame.
        struct Dawdle;
        impl ConnDriver for Dawdle {
            fn on_frame(&mut self, _: Bytes) -> Drive {
                std::thread::sleep(Duration::from_millis(30));
                Drive::Continue
            }
        }
        let clock = ClockHandle::virtual_clock();
        let reactor = Reactor::start(Duration::from_secs(3600), clock.clone()).unwrap();
        let (slow_client, slow_server) = crate::chan::ChanConn::pair(None, None);
        let (client, server) = crate::chan::ChanConn::pair(None, None);
        let server: Arc<dyn Conn> = Arc::new(server);
        let echo = Echo {
            conn: Arc::clone(&server),
            closes: Arc::default(),
        };
        reactor
            .register_conn(Arc::new(slow_server), Box::new(Dawdle))
            .unwrap();
        reactor.register_conn(server, Box::new(echo)).unwrap();
        wait_until(|| reactor.stats().connections == 2);
        for i in 0..5 {
            slow_client.send(numbered(i)).unwrap();
            client.send(numbered(i)).unwrap();
            let echoed = crate::clock::poll_deadline(clock.as_dyn(), Duration::from_secs(1), {
                |step| client.recv_timeout(step).ok()
            });
            assert_eq!(echoed, Some(numbered(i)), "the clock ran ahead");
        }
    }

    #[test]
    fn shutdown_closes_registered_connections() {
        let (reactor, ep, closes) = echo_server();
        let client = Tcp.connect(&ep).unwrap();
        client.send(Bytes::from(b"ping".to_vec())).unwrap();
        assert_eq!(&client.recv().unwrap()[..], b"ping");
        reactor.shutdown();
        assert_eq!(closes.load(Ordering::SeqCst), 1);
        assert_eq!(reactor.stats().connections, 0);
        // The peer observes the close.
        assert!(client.recv_timeout(Duration::from_secs(2)).is_err());
    }

    #[test]
    fn large_frame_survives_partial_writes() {
        let (reactor, ep, _closes) = echo_server();
        let client = Tcp.connect(&ep).unwrap();
        // Bigger than any socket buffer, in three pieces of over a megabyte
        // each, both ways: the blocking sender and the reactor must make
        // progress across many WouldBlock boundaries — which can fall in
        // any piece — with correct cursors.
        let payload: Vec<u8> = (0..4_000_000u32).map(|i| (i % 251) as u8).collect();
        let frame = Bytes::from(payload.clone());
        let sent = Segments::new(
            frame.slice(..1_300_001),
            frame.slice(1_300_001..2_700_000),
            frame.slice(2_700_000..),
        );
        client.send_segments(sent).unwrap();
        assert_eq!(client.recv().unwrap(), payload);
        // The reactor counts the flush after its last `writev` returns,
        // which the client's recv can beat: wait for the count.
        wait_until(|| reactor.stats().frames_flushed >= 1);
    }
}
