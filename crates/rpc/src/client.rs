//! The multiplexing call client.
//!
//! One [`CallClient`] wraps one connection to a remote space. Any number of
//! threads may issue calls concurrently, and there is no thread behind
//! them: the callers read the connection themselves, leader/followers
//! style. This reproduces the original runtime, where the calling thread
//! waited for its result on the cached connection to a space.
//!
//! At any moment at most one waiting caller holds the *reader role* and
//! blocks in the connection's receive until its own call's deadline. Its
//! own reply returns straight to it. A reply for another call is filed in
//! that call's pending slot and its owner, if parked, is woken; a reply
//! nobody waits for any more (its call timed out) has its ack obligation
//! discharged on the spot. A caller that finds the role taken parks on a
//! channel in its slot. On leaving — with its reply, a timeout or an error
//! — the reader hands the role to one parked caller; callers that have not
//! parked yet pick it up on their own.
//!
//! With no resident reader, nothing watches an idle connection. So the
//! caller that takes the role on a connection with nothing pending first
//! drains it without blocking: a peer that closed it in the meantime is
//! found *before* the request is written, and the call fails as cleanly
//! *not delivered* (a transparent reconnect) instead of *ambiguous*.
//!
//! Deadlines run on the client's clock whatever the transport: under a
//! virtual clock the reader polls the connection in short real-time steps
//! ([`poll_deadline`]), exactly as a parked caller polls its channel.
//!
//! Result bytes are [`Bytes`] slices of the received reply frame: the
//! caller gets a shared view of the transport's read buffer, so reply
//! payloads reach unmarshaling without a copy.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use netobj_transport::clock::{poll_deadline, recv_deadline};
use netobj_transport::{ClockHandle, Conn, TransportError};
use netobj_wire::{SpaceId, WireRep};
use parking_lot::Mutex;

use crate::error::RpcError;
use crate::msg::{Reply, Request, RpcMsg, SendBuf};
use crate::resilience::CallFailure;
use crate::{FibHashMap, Result};

thread_local! {
    /// Per-thread request encoder. A caller thread's previous request
    /// frame is normally released (the server drops it after dispatch) by
    /// the time the thread issues its next call, so steady-state every
    /// request this thread sends reuses one allocation.
    static REQ_BUF: std::cell::RefCell<SendBuf> = std::cell::RefCell::new(SendBuf::new());
}

/// Default per-call deadline.
pub const DEFAULT_CALL_TIMEOUT: Duration = Duration::from_secs(30);

/// How a call that reached the wire ended: the reply payload plus its ack
/// flag, or the failure.
type Outcome = std::result::Result<(Bytes, bool), RpcError>;

fn outcome_of(reply: Reply) -> Outcome {
    let needs_ack = reply.needs_ack;
    reply
        .outcome
        .map(|bytes| (bytes, needs_ack))
        .map_err(RpcError::Remote)
}

/// What a parked caller is woken with.
enum Wake {
    /// The reader (or `close`) settled the call.
    Done(Outcome),
    /// The reader left and handed this caller the reader role.
    Promoted,
}

/// A call awaiting its reply.
enum Slot {
    /// The owner is not parked: it holds the reader role, or has yet to
    /// look for it.
    Unparked,
    /// The owner is parked on the receiving end of this channel.
    Parked(SyncSender<Wake>),
    /// Settled while the owner was unparked; the owner collects it.
    Done(Outcome),
}

#[derive(Default)]
struct Pending {
    slots: FibHashMap<u64, Slot>,
    /// True while some caller holds the reader role.
    reader_active: bool,
}

/// Obligation to acknowledge a reply whose sender holds transient pins.
///
/// The collector protocol requires the *receiver* of an object reference to
/// acknowledge only after registering the reference with its owner (the
/// dirty call). Callers that unmarshal references must therefore hold this
/// token across unmarshaling and call [`AckToken::ack`] afterwards. If the
/// token is dropped instead (including on error paths), the ack is sent
/// anyway so the callee's pins cannot leak.
pub struct AckToken {
    conn: Arc<dyn Conn>,
    call_id: u64,
    sent: bool,
}

impl AckToken {
    /// Sends the acknowledgement now.
    pub fn ack(mut self) {
        self.send_once();
    }

    fn send_once(&mut self) {
        if !self.sent {
            self.sent = true;
            let msg = RpcMsg::ReplyAck(self.call_id);
            let _ = self.conn.send(msg.encode());
        }
    }
}

impl Drop for AckToken {
    fn drop(&mut self) {
        self.send_once();
    }
}

/// The outcome of a raw call: result bytes plus a pending acknowledgement
/// obligation if the callee requested one.
pub struct CallReply {
    /// The pickled result — a shared slice of the reply frame.
    pub bytes: Bytes,
    /// Present when the reply had `needs_ack` set.
    pub ack: Option<AckToken>,
}

impl std::fmt::Debug for CallReply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CallReply")
            .field("bytes", &self.bytes.len())
            .field("needs_ack", &self.ack.is_some())
            .finish()
    }
}

/// A client end of an RPC connection: issues calls, demultiplexes replies.
pub struct CallClient {
    conn: Arc<dyn Conn>,
    caller: SpaceId,
    clock: ClockHandle,
    next_id: AtomicU64,
    pending: Mutex<Pending>,
    closed: AtomicBool,
}

impl CallClient {
    /// Wraps `conn`, identifying outgoing calls as coming from `caller`.
    ///
    /// Reply deadlines run on the system clock; use
    /// [`CallClient::with_clock`] to time them on a virtual clock instead.
    pub fn new(conn: Arc<dyn Conn>, caller: SpaceId) -> Arc<CallClient> {
        CallClient::with_clock(conn, caller, ClockHandle::system())
    }

    /// Like [`CallClient::new`], but call timeouts are measured on `clock`.
    pub fn with_clock(conn: Arc<dyn Conn>, caller: SpaceId, clock: ClockHandle) -> Arc<CallClient> {
        Arc::new(CallClient {
            conn,
            caller,
            clock,
            next_id: AtomicU64::new(1),
            pending: Mutex::new(Pending::default()),
            closed: AtomicBool::new(false),
        })
    }

    /// The space identity stamped on outgoing requests.
    pub fn caller(&self) -> SpaceId {
        self.caller
    }

    /// Issues a call and waits for its reply (default timeout).
    ///
    /// Any acknowledgement obligation is discharged immediately; use
    /// [`CallClient::call_raw`] when the result may carry object references
    /// that must be registered before acknowledging.
    pub fn call(&self, target: WireRep, method: u32, args: impl Into<Bytes>) -> Result<Bytes> {
        self.call_with_timeout(target, method, args, DEFAULT_CALL_TIMEOUT)
    }

    /// Issues a call and waits at most `timeout` for the reply, discharging
    /// any acknowledgement obligation immediately.
    pub fn call_with_timeout(
        &self,
        target: WireRep,
        method: u32,
        args: impl Into<Bytes>,
        timeout: Duration,
    ) -> Result<Bytes> {
        // Dropping `ack` (inside CallReply) sends the acknowledgement.
        self.call_raw(target, method, args, timeout)
            .map(|r| r.bytes)
    }

    /// Issues a call, returning both the result bytes and any pending
    /// acknowledgement obligation.
    pub fn call_raw(
        &self,
        target: WireRep,
        method: u32,
        args: impl Into<Bytes>,
        timeout: Duration,
    ) -> Result<CallReply> {
        self.call_raw_classified(target, method, args, timeout)
            .map_err(|f| f.error)
    }

    /// Like [`CallClient::call_raw`], but a failure carries its
    /// [`FailureClass`]: this is the only layer that knows whether the
    /// request was written to the connection before the failure, which is
    /// what separates *not delivered* (safe to retry) from *ambiguous*
    /// (the callee may have executed the call).
    ///
    /// [`FailureClass`]: crate::resilience::FailureClass
    pub fn call_raw_classified(
        &self,
        target: WireRep,
        method: u32,
        args: impl Into<Bytes>,
        timeout: Duration,
    ) -> std::result::Result<CallReply, CallFailure> {
        self.call_raw_traced(target, method, args, timeout, 0, 0)
    }

    /// Like [`CallClient::call_raw_classified`], but stamps the request
    /// with causal span identifiers (`0` = absent) so the callee can
    /// continue the caller's trace.
    pub fn call_raw_traced(
        &self,
        target: WireRep,
        method: u32,
        args: impl Into<Bytes>,
        timeout: Duration,
        trace_id: u64,
        span_id: u64,
    ) -> std::result::Result<CallReply, CallFailure> {
        if self.is_closed() {
            return Err(CallFailure::classify(RpcError::Closed, false));
        }
        let call_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let msg = RpcMsg::Request(Request {
            call_id,
            caller: self.caller,
            target,
            method,
            args: args.into(),
            trace_id,
            span_id,
        });
        let frame = REQ_BUF.with(|b| b.borrow_mut().encode(&msg));
        // The slot goes in before the request goes out, so whoever reads
        // the reply finds it. A caller that finds the connection idle
        // takes the reader role already here: nobody has been watching
        // the connection, so it checks it before committing a request.
        let reading = {
            let mut pending = self.pending.lock();
            let idle = !pending.reader_active && pending.slots.is_empty();
            pending.reader_active |= idle;
            pending.slots.insert(call_id, Slot::Unparked);
            idle
        };
        let written = match reading.then(|| self.sweep()) {
            // An idle connection that cannot be swept clean is dead.
            Some(Err(_)) => {
                self.close();
                Err(RpcError::Closed)
            }
            _ => self.conn.send_segments(frame).map_err(RpcError::from),
        };
        if let Err(e) = written {
            // Nothing reached the peer: cleanly *not delivered*.
            self.leave(call_id, reading);
            return Err(CallFailure::classify(e, false));
        }

        match self.await_reply(call_id, timeout, reading) {
            Ok((bytes, needs_ack)) => Ok(CallReply {
                bytes,
                ack: needs_ack.then(|| AckToken {
                    conn: Arc::clone(&self.conn),
                    call_id,
                    sent: false,
                }),
            }),
            // We are past a successful send, so the request was written.
            Err(e) => Err(CallFailure::classify(e, true)),
        }
    }

    /// Waits for call `call_id` to be settled: as the reader when
    /// `reading` (the role is already held) or when nobody else is, else
    /// parked until the reader settles the call or hands the role over.
    fn await_reply(&self, call_id: u64, timeout: Duration, reading: bool) -> Outcome {
        let deadline = self.clock.now() + timeout;
        let mut remaining = timeout;
        if !reading {
            let parked = {
                let mut pending = self.pending.lock();
                match pending.slots.remove(&call_id) {
                    // A dying reader, or `close`, failed the call.
                    None => return Err(RpcError::Closed),
                    Some(Slot::Done(outcome)) => return outcome,
                    Some(_) if pending.reader_active => {
                        let (tx, rx) = sync_channel(1);
                        pending.slots.insert(call_id, Slot::Parked(tx));
                        Some(rx)
                    }
                    Some(_) => {
                        pending.reader_active = true;
                        pending.slots.insert(call_id, Slot::Unparked);
                        None
                    }
                }
            };
            if let Some(rx) = parked {
                match self.park(call_id, &rx, timeout) {
                    Some(Wake::Done(outcome)) => return outcome,
                    Some(Wake::Promoted) => {
                        remaining = deadline.saturating_duration_since(self.clock.now());
                    }
                    None => return Err(RpcError::Timeout),
                }
            }
        }
        let outcome = self.read_until_settled(call_id, remaining, deadline);
        self.leave(call_id, true);
        outcome
    }

    /// Ends call `call_id`'s wait: drops its slot and, if the caller holds
    /// the reader role, gives the role up — to a parked caller if there is
    /// one (woken once the lock is dropped), else to whichever unparked
    /// caller looks for it next.
    fn leave(&self, call_id: u64, reading: bool) {
        let successor = {
            let mut pending = self.pending.lock();
            pending.slots.remove(&call_id);
            if !reading {
                return;
            }
            let parked = pending
                .slots
                .values_mut()
                .find(|slot| matches!(slot, Slot::Parked(_)));
            match parked.map(|slot| std::mem::replace(slot, Slot::Unparked)) {
                Some(Slot::Parked(tx)) => tx,
                _ => {
                    pending.reader_active = false;
                    return;
                }
            }
        };
        let _ = successor.send(Wake::Promoted);
    }

    /// Parks on `rx` for at most `timeout`; `None` when it passed with the
    /// call unsettled, in which case the call's slot is gone.
    fn park(&self, call_id: u64, rx: &Receiver<Wake>, timeout: Duration) -> Option<Wake> {
        if let Ok(wake) = recv_deadline(self.clock.as_dyn(), rx, timeout) {
            return Some(wake);
        }
        {
            let mut pending = self.pending.lock();
            if let Some(Slot::Parked(_)) = pending.slots.get(&call_id) {
                pending.slots.remove(&call_id);
                return None;
            }
        }
        // Whoever took the slot out of its parked state did so to wake
        // this caller, and sends as soon as it has dropped the lock: a
        // reply must not be lost to the timeout it raced, nor the role.
        rx.recv().ok()
    }

    /// The reader role: receives replies until the one for `call_id`
    /// arrives, the connection fails, or `deadline` passes. The first
    /// receive takes `remaining` as given rather than recomputing it from
    /// the clock: for a caller that never parked it is the call's own
    /// timeout, the same from one call to the next, which lets a stream
    /// transport leave its socket timeout alone.
    fn read_until_settled(
        &self,
        call_id: u64,
        mut remaining: Duration,
        deadline: Instant,
    ) -> Outcome {
        while !remaining.is_zero() {
            let received = poll_deadline(self.clock.as_dyn(), remaining, |step| {
                match self.conn.recv_timeout(step) {
                    Err(TransportError::Timeout) => None,
                    done => Some(done),
                }
            });
            let Some(received) = received else { break };
            match received
                .map_err(RpcError::from)
                .and_then(|frame| reply_in(&frame))
            {
                Ok(Some(reply)) if reply.call_id == call_id => return outcome_of(reply),
                Ok(Some(reply)) => self.route(reply),
                Ok(None) => {}
                // The connection failed, or a malformed frame poisoned
                // it: drop it, so callers see a closed transport rather
                // than silently missing replies.
                Err(_) => {
                    self.close();
                    return Err(RpcError::Closed);
                }
            }
            remaining = deadline.saturating_duration_since(self.clock.now());
        }
        Err(RpcError::Timeout)
    }

    /// Receives, without blocking, whatever sits unread on a connection
    /// nobody is reading. An error means the connection is dead.
    fn sweep(&self) -> Result<()> {
        while let Some(frame) = self.conn.try_recv()? {
            if let Some(reply) = reply_in(&frame)? {
                self.route(reply);
            }
        }
        Ok(())
    }

    /// Files a reply that the caller holding the reader role received on
    /// behalf of another call, waking that call's owner if it is parked —
    /// after dropping the lock, which the woken caller soon wants.
    fn route(&self, reply: Reply) {
        let call_id = reply.call_id;
        let outcome = outcome_of(reply);
        let parked = {
            let mut pending = self.pending.lock();
            match pending.slots.get_mut(&call_id) {
                Some(slot @ Slot::Unparked) => {
                    *slot = Slot::Done(outcome);
                    return;
                }
                // A second reply to one call (a duplicating network): the
                // first one stands.
                Some(Slot::Done(_)) => return,
                Some(Slot::Parked(_)) => pending.slots.remove(&call_id),
                None => None,
            }
        };
        match parked {
            Some(Slot::Parked(tx)) => {
                let _ = tx.send(Wake::Done(outcome));
            }
            // Late reply for a timed-out call: the caller will never
            // process it, so discharge any ack obligation here lest the
            // callee's transient pins wait out their full timeout.
            _ => {
                if let Ok((_, true)) = outcome {
                    let _ = self.conn.send(RpcMsg::ReplyAck(call_id).encode());
                }
            }
        }
    }

    /// True if the underlying connection has failed or been closed.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Closes the connection; outstanding calls fail.
    ///
    /// By the time this returns every call still awaiting its reply has
    /// been failed — callers never hang on a dead connection. Replies that
    /// arrived with nobody reading are swept up first, so late ones still
    /// get their acks.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        let sweeping = !std::mem::replace(&mut self.pending.lock().reader_active, true);
        if sweeping {
            let _ = self.sweep();
        }
        self.conn.close();
        let mut pending = self.pending.lock();
        // A parked owner is told; an unparked one finds its slot gone.
        // Replies already filed stay for their owners to collect.
        pending.slots.retain(|_, slot| {
            if let Slot::Parked(tx) = slot {
                let _ = tx.send(Wake::Done(Err(RpcError::Closed)));
            }
            matches!(slot, Slot::Done(_))
        });
        if sweeping {
            pending.reader_active = false;
        }
    }
}

/// Decodes a received frame: `Some` for a reply. Requests arriving at a
/// client end are ignored: connections are asymmetric (caller connects,
/// callee serves), as in the original.
fn reply_in(frame: &Bytes) -> Result<Option<Reply>> {
    Ok(match RpcMsg::decode(frame)? {
        RpcMsg::Reply(reply) => Some(reply),
        _ => None,
    })
}

impl Drop for CallClient {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::FailureClass;
    use netobj_transport::chan::ChanConn;
    use netobj_wire::ObjIx;

    fn wired_client() -> (Arc<CallClient>, Box<dyn Conn>) {
        let (a, b) = ChanConn::pair(None, None);
        let client = CallClient::new(Arc::new(a), SpaceId::from_raw(1));
        (client, Box::new(b))
    }

    fn target() -> WireRep {
        WireRep::new(SpaceId::from_raw(2), ObjIx(5))
    }

    fn next_request(server: &dyn Conn) -> Request {
        let frame = server.recv().unwrap();
        let RpcMsg::Request(rq) = RpcMsg::decode(&frame).unwrap() else {
            panic!("expected request")
        };
        rq
    }

    fn send_reply(server: &dyn Conn, call_id: u64, bytes: Vec<u8>, needs_ack: bool) {
        let reply = RpcMsg::Reply(Reply {
            call_id,
            outcome: Ok(Bytes::from(bytes)),
            needs_ack,
        });
        server.send(reply.encode()).unwrap();
    }

    /// Spins (in real time) until the pending map satisfies `cond`.
    fn await_pending(client: &CallClient, what: &str, cond: impl Fn(&Pending) -> bool) {
        let t0 = Instant::now();
        while !cond(&client.pending.lock()) {
            assert!(t0.elapsed() < Duration::from_secs(10), "never saw: {what}");
            std::thread::yield_now();
        }
    }

    fn parked(pending: &Pending) -> usize {
        pending
            .slots
            .values()
            .filter(|s| matches!(s, Slot::Parked(_)))
            .count()
    }

    /// A minimal hand-rolled server loop answering every request with its
    /// own args echoed back.
    fn echo_server(server: Box<dyn Conn>) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            while let Ok(frame) = server.recv() {
                if let Ok(RpcMsg::Request(rq)) = RpcMsg::decode(&frame) {
                    let reply = RpcMsg::Reply(Reply {
                        call_id: rq.call_id,
                        outcome: Ok(rq.args),
                        needs_ack: false,
                    });
                    if server.send(reply.encode()).is_err() {
                        break;
                    }
                }
            }
        })
    }

    #[test]
    fn call_and_reply() {
        let (client, server) = wired_client();
        let _h = echo_server(server);
        let got = client.call(target(), 0, vec![1, 2, 3]).unwrap();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn concurrent_calls_demultiplex() {
        let (client, server) = wired_client();
        let _h = echo_server(server);
        let mut joins = Vec::new();
        for i in 0..16u8 {
            let c = Arc::clone(&client);
            joins.push(std::thread::spawn(move || {
                let got = c.call(target(), 0, vec![i; 4]).unwrap();
                assert_eq!(got, vec![i; 4]);
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    }

    #[test]
    fn timeout_when_no_reply() {
        let (client, _server) = wired_client();
        let got = client.call_with_timeout(target(), 0, vec![], Duration::from_millis(50));
        assert_eq!(got.unwrap_err(), RpcError::Timeout);
        // The pending slot is cleaned up and the reader role given back.
        let pending = client.pending.lock();
        assert!(pending.slots.is_empty());
        assert!(!pending.reader_active);
    }

    #[test]
    fn remote_error_propagates() {
        let (client, server) = wired_client();
        std::thread::spawn(move || {
            let rq = next_request(&*server);
            let reply = RpcMsg::Reply(Reply {
                call_id: rq.call_id,
                outcome: Err(crate::RemoteError::app("kaboom")),
                needs_ack: false,
            });
            server.send(reply.encode()).unwrap();
        });
        match client.call(target(), 0, vec![]) {
            Err(RpcError::Remote(e)) => assert_eq!(e.message, "kaboom"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    /// The reader's own reply arrives while three followers are parked:
    /// exactly one of them is promoted to reader, and all calls complete.
    #[test]
    fn leaving_reader_promotes_one_parked_follower() {
        let (client, server) = wired_client();
        let call = |arg: u8| {
            let c = Arc::clone(&client);
            std::thread::spawn(move || c.call(target(), 0, vec![arg]))
        };
        let reader = call(0);
        let first = next_request(&*server);
        let followers: Vec<_> = (1..=3).map(call).collect();
        let rest: Vec<Request> = (0..3).map(|_| next_request(&*server)).collect();
        await_pending(&client, "three parked followers", |p| parked(p) == 3);

        send_reply(&*server, first.call_id, vec![0], false);
        assert_eq!(reader.join().unwrap().unwrap(), vec![0]);
        {
            let pending = client.pending.lock();
            assert!(pending.reader_active, "the role was handed on, not dropped");
            assert_eq!(parked(&pending), 2);
            assert_eq!(pending.slots.len(), 3);
        }
        for rq in rest {
            send_reply(&*server, rq.call_id, rq.args.to_vec(), false);
        }
        let mut got: Vec<u8> = followers
            .into_iter()
            .map(|h| h.join().unwrap().unwrap()[0])
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
        let pending = client.pending.lock();
        assert!(pending.slots.is_empty());
        assert!(!pending.reader_active);
    }

    /// The reader's deadline passes while followers wait: it reports an
    /// ambiguous timeout, a follower takes the role over, nobody hangs.
    #[test]
    fn reader_timeout_hands_role_to_a_follower() {
        let (client, server) = wired_client();
        let c = Arc::clone(&client);
        let reader = std::thread::spawn(move || {
            c.call_raw_classified(target(), 0, vec![0], Duration::from_millis(100))
        });
        let _unanswered = next_request(&*server);
        let followers: Vec<_> = (1..=2u8)
            .map(|i| {
                let c = Arc::clone(&client);
                std::thread::spawn(move || c.call(target(), 0, vec![i]))
            })
            .collect();
        let rest: Vec<Request> = (0..2).map(|_| next_request(&*server)).collect();
        await_pending(&client, "two parked followers", |p| parked(p) == 2);

        let failure = reader.join().unwrap().unwrap_err();
        assert_eq!(failure.error, RpcError::Timeout);
        assert_eq!(failure.class, FailureClass::Ambiguous);
        // Only now do the followers' replies arrive: whoever took the role
        // over must be reading for both.
        for rq in rest {
            send_reply(&*server, rq.call_id, rq.args.to_vec(), false);
        }
        let mut got: Vec<u8> = followers
            .into_iter()
            .map(|h| h.join().unwrap().unwrap()[0])
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }

    /// A reader waits on the connection in virtual time, like a parked
    /// caller on its channel: 30 s of silence cost well under a second.
    #[test]
    fn reader_times_out_in_virtual_time() {
        let (a, _server) = ChanConn::pair(None, None);
        let clock = ClockHandle::virtual_clock();
        let client = CallClient::with_clock(Arc::new(a), SpaceId::from_raw(1), clock.clone());
        let t0 = Instant::now();
        let got = client.call_with_timeout(target(), 0, vec![], Duration::from_secs(30));
        assert_eq!(got.unwrap_err(), RpcError::Timeout);
        assert!(t0.elapsed() < Duration::from_secs(1), "virtual, not real");
        assert!(clock.as_virtual().unwrap().elapsed() >= Duration::from_secs(30));
    }

    #[test]
    fn connection_loss_fails_pending_calls() {
        let (client, server) = wired_client();
        let c = Arc::clone(&client);
        let reader = std::thread::spawn(move || c.call(target(), 0, vec![0]));
        let _ = next_request(&*server);
        let c = Arc::clone(&client);
        let follower = std::thread::spawn(move || c.call(target(), 0, vec![1]));
        await_pending(&client, "a parked follower", |p| parked(p) == 1);
        // The reader finds the connection dead and fails the follower too.
        server.close();
        assert_eq!(reader.join().unwrap().unwrap_err(), RpcError::Closed);
        assert_eq!(follower.join().unwrap().unwrap_err(), RpcError::Closed);
        assert!(client.is_closed());
    }

    /// The teardown regression for the reconnect path: a call that was
    /// *written* when the connection died must come back `Ambiguous`
    /// (never `NotDelivered` — the callee may have executed it), whether
    /// the reader finds the connection dead or `close` fails the call; and
    /// the pending map must be empty once `close` has returned and the
    /// callers have, so a reconnecting caller cannot leak slots.
    #[test]
    fn teardown_classifies_inflight_calls_ambiguous_and_drains_map() {
        let (client, server) = wired_client();
        let call = || {
            let c = Arc::clone(&client);
            std::thread::spawn(move || {
                c.call_raw_classified(target(), 0, vec![1], Duration::from_secs(5))
            })
        };
        let reader = call();
        let _ = next_request(&*server);
        let follower = call();
        await_pending(&client, "a parked follower", |p| parked(p) == 1);
        client.close();
        assert_eq!(
            parked(&client.pending.lock()),
            0,
            "close fails parked calls"
        );
        for h in [reader, follower] {
            let failure = h.join().unwrap().unwrap_err();
            assert_eq!(failure.error, RpcError::Closed);
            assert_eq!(
                failure.class,
                FailureClass::Ambiguous,
                "an in-flight call must not look safely retryable"
            );
        }
        let pending = client.pending.lock();
        assert!(pending.slots.is_empty());
        assert!(!pending.reader_active);
    }

    /// A malformed frame found while checking an idle connection closes it
    /// before the request is written.
    #[test]
    fn malformed_frame_on_idle_connection_fails_next_call_undelivered() {
        let (client, server) = wired_client();
        server.send(Bytes::from(vec![0xff, 0xff, 0xff])).unwrap();
        let failure = client
            .call_raw_classified(target(), 0, vec![], Duration::from_secs(5))
            .unwrap_err();
        assert_eq!(failure.error, RpcError::Closed);
        assert_eq!(failure.class, FailureClass::NotDelivered);
        assert!(client.is_closed());
        // Queued frames are delivered ahead of the close: none was written.
        assert_eq!(server.try_recv().unwrap_err(), TransportError::Closed);
        assert_eq!(
            client.call(target(), 0, vec![]).unwrap_err(),
            RpcError::Closed
        );
    }

    /// A malformed frame in place of a reply poisons the connection under
    /// the waiting call.
    #[test]
    fn malformed_reply_closes_connection() {
        let (client, server) = wired_client();
        let c = Arc::clone(&client);
        let h = std::thread::spawn(move || {
            c.call_raw_classified(target(), 0, vec![], Duration::from_secs(5))
        });
        let _ = next_request(&*server);
        server.send(Bytes::from(vec![0xff, 0xff, 0xff])).unwrap();
        let failure = h.join().unwrap().unwrap_err();
        assert_eq!(failure.error, RpcError::Closed);
        assert_eq!(failure.class, FailureClass::Ambiguous);
        assert!(client.is_closed());
    }

    /// A server answering one request with `needs_ack` set, then counting
    /// every `ReplyAck` that arrives.
    fn acking_server(
        server: Box<dyn Conn>,
    ) -> (
        Arc<std::sync::atomic::AtomicU64>,
        std::thread::JoinHandle<()>,
    ) {
        let acks = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let acks2 = Arc::clone(&acks);
        let h = std::thread::spawn(move || {
            while let Ok(frame) = server.recv() {
                match RpcMsg::decode(&frame) {
                    Ok(RpcMsg::Request(rq)) => {
                        let reply = RpcMsg::Reply(Reply {
                            call_id: rq.call_id,
                            outcome: Ok(Bytes::from(vec![0xab])),
                            needs_ack: true,
                        });
                        if server.send(reply.encode()).is_err() {
                            break;
                        }
                    }
                    Ok(RpcMsg::ReplyAck(_)) => {
                        acks2.fetch_add(1, Ordering::SeqCst);
                    }
                    _ => break,
                }
            }
        });
        (acks, h)
    }

    #[test]
    fn dropped_ack_token_sends_ack_exactly_once() {
        let (client, server) = wired_client();
        let (acks, _h) = acking_server(server);
        let reply = client
            .call_raw(target(), 0, vec![], Duration::from_secs(5))
            .unwrap();
        assert!(reply.ack.is_some());
        // Simulates unmarshaling failing partway: the reply (token
        // included) is dropped on an error path without an explicit ack.
        drop(reply);
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(acks.load(Ordering::SeqCst), 1);
        // No second ack ever follows.
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(acks.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn explicit_ack_is_not_duplicated_by_drop() {
        let (client, server) = wired_client();
        let (acks, _h) = acking_server(server);
        let reply = client
            .call_raw(target(), 0, vec![], Duration::from_secs(5))
            .unwrap();
        reply.ack.unwrap().ack(); // consumes the token; Drop runs after send_once
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(acks.load(Ordering::SeqCst), 1);
    }

    /// Times a call out, then delivers its reply late with an ack
    /// obligation that only the client can now discharge.
    fn late_reply_needing_ack() -> (Arc<CallClient>, Box<dyn Conn>, u64) {
        let (client, server) = wired_client();
        let got = client.call_with_timeout(target(), 0, vec![], Duration::from_millis(50));
        assert_eq!(got.unwrap_err(), RpcError::Timeout);
        let late = next_request(&*server).call_id;
        send_reply(&*server, late, vec![], true);
        (client, server, late)
    }

    fn expect_ack(server: &dyn Conn, call_id: u64) {
        let frame = server.recv().unwrap();
        assert!(matches!(
            RpcMsg::decode(&frame).unwrap(),
            RpcMsg::ReplyAck(id) if id == call_id
        ));
    }

    #[test]
    fn late_reply_after_timeout_is_acked_by_next_reader() {
        let (client, server, late) = late_reply_needing_ack();
        // Nobody reads an idle connection, so the late reply sits there
        // until the next call sweeps it up — ahead of its own request.
        let c = Arc::clone(&client);
        let h = std::thread::spawn(move || c.call(target(), 0, vec![7]));
        expect_ack(&*server, late);
        let rq = next_request(&*server);
        send_reply(&*server, rq.call_id, vec![7], false);
        assert_eq!(h.join().unwrap().unwrap(), vec![7]);
    }

    #[test]
    fn late_reply_after_timeout_is_acked_at_close() {
        let (client, server, late) = late_reply_needing_ack();
        client.close();
        expect_ack(&*server, late);
    }

    #[test]
    fn classified_timeout_is_ambiguous() {
        let (client, _server) = wired_client();
        let err = client
            .call_raw_classified(target(), 0, vec![], Duration::from_millis(50))
            .unwrap_err();
        assert_eq!(err.error, RpcError::Timeout);
        assert_eq!(err.class, FailureClass::Ambiguous);
    }

    /// A peer that closed the idle connection is found before the request
    /// is written, so the failure is safely retryable.
    #[test]
    fn classified_idle_connection_loss_is_not_delivered() {
        let (client, server) = wired_client();
        server.close();
        let err = client
            .call_raw_classified(target(), 0, vec![], Duration::from_millis(200))
            .unwrap_err();
        assert_eq!(err.class, FailureClass::NotDelivered);
        assert!(client.is_closed());
    }

    #[test]
    fn call_after_close_fails_fast() {
        let (client, _server) = wired_client();
        client.close();
        assert_eq!(
            client.call(target(), 0, vec![]).unwrap_err(),
            RpcError::Closed
        );
    }
}
