//! The RPC server: readiness-driven accept/decode, worker dispatch.
//!
//! A single [`Reactor`] thread owns every connection of a server,
//! whatever the transport and whatever the clock. Readiness wakes it — a
//! socket's through the poller, an in-process connection's through its
//! waker — it decodes frames and feeds them to a per-connection *state
//! machine* (`ConnState`, its [`ConnDriver`]); fast methods
//! dispatch inline on the reactor thread, everything else goes to the
//! shared [`FairPool`]. Replies — from workers or the inline path — go
//! out through the connection's `send`; a socket queues them and the
//! reactor flushes them in coalesced vectored writes. This scales to tens
//! of thousands of connections on a handful of threads, and it means the
//! deterministic virtual-time suites exercise the code that serves TCP.
//!
//! Each decoded request is handed to the worker pool (or the inline fast
//! path), which calls the [`Dispatcher`] and sends the reply back on the
//! same connection; long-running methods never block frame decode, so
//! concurrent calls on one connection proceed in parallel, exactly as in
//! the original runtime.
//!
//! # The inline fast path
//!
//! Handing every request to a worker costs a thread switch, which for a
//! short method dwarfs the method itself (the observation goes back to
//! Birrell & Nelson, who dispatched simple calls on the thread that read
//! the packet). Servers on the *system* clock therefore keep a small
//! adaptive classifier per connection: a method whose last observed
//! service time was under [`INLINE_FAST_MICROS`] is dispatched directly
//! on the reactor thread, skipping the queue and the switch; a slow
//! observation demotes it back to the worker pool. Methods start out
//! unclassified — and therefore on the pool — so a blocking method's
//! first call can never wedge the reactor. Servers on a virtual clock
//! always use the pool: inline dispatch would serialise virtual-time
//! sleeps that the deterministic suites expect to overlap.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use netobj_transport::reactor::{AcceptDriver, ConnDriver, Drive, Reactor, ReactorSnapshot};
use netobj_transport::{Bytes, ClockHandle, Conn, Listener};
use netobj_wire::{SpaceId, WireRep};

use crate::budget::{ClientUsage, FairAdmit, FairPool, ResourceBudget};
use crate::error::{RemoteError, RemoteErrorKind};
use crate::msg::{Request, RpcMsg, SendBuf};

/// The result of dispatching one call.
pub struct Dispatch {
    /// The pickled result or a structured error.
    pub outcome: Result<Vec<u8>, RemoteError>,
    /// Runs when the caller acknowledges the reply (or on timeout, or when
    /// the connection dies) — used by the runtime to release the transient
    /// dirty pins protecting object references embedded in the result.
    pub completion: Option<Box<dyn FnOnce() + Send>>,
}

impl Dispatch {
    /// A dispatch with no completion hook.
    pub fn plain(outcome: Result<Vec<u8>, RemoteError>) -> Dispatch {
        Dispatch {
            outcome,
            completion: None,
        }
    }
}

impl From<Result<Vec<u8>, RemoteError>> for Dispatch {
    fn from(outcome: Result<Vec<u8>, RemoteError>) -> Dispatch {
        Dispatch::plain(outcome)
    }
}

/// Per-request observability context the server hands to
/// [`Dispatcher::dispatch_cx`]: the causal span identifiers decoded from
/// the request header (`0` = absent: an untraced caller) plus the time the
/// request spent waiting in the worker queue, measured on the server's
/// clock (virtual time under a virtual clock).
#[derive(Debug, Clone, Copy, Default)]
pub struct DispatchCx {
    /// Trace id propagated from the root caller (`0` = absent).
    pub trace_id: u64,
    /// The caller's span id for this call (`0` = absent).
    pub span_id: u64,
    /// Time between decoding the request on the reactor thread and a
    /// worker picking it up.
    pub queue_wait: std::time::Duration,
}

/// The upcall interface from the RPC server into the object runtime.
///
/// Implementations route a call to the named object's method and return the
/// pickled result. They must be thread-safe: the server invokes `dispatch`
/// concurrently from its worker pool.
pub trait Dispatcher: Send + Sync + 'static {
    /// Handles one invocation.
    ///
    /// `caller` is the space that issued the request (needed by the
    /// collector: dirty sets list spaces). `target` names the object,
    /// `method` the method, and `args` carries the argument pickle.
    fn dispatch(&self, caller: SpaceId, target: WireRep, method: u32, args: &[u8]) -> Dispatch;

    /// Handles one invocation with observability context.
    ///
    /// The server calls this entry point; the default implementation drops
    /// the context and delegates to [`Dispatcher::dispatch`], so plain
    /// dispatchers (including closures) keep working unchanged.
    fn dispatch_cx(
        &self,
        cx: DispatchCx,
        caller: SpaceId,
        target: WireRep,
        method: u32,
        args: &[u8],
    ) -> Dispatch {
        let _ = cx;
        self.dispatch(caller, target, method, args)
    }
}

impl<F> Dispatcher for F
where
    F: Fn(SpaceId, WireRep, u32, &[u8]) -> Result<Vec<u8>, RemoteError> + Send + Sync + 'static,
{
    fn dispatch(&self, caller: SpaceId, target: WireRep, method: u32, args: &[u8]) -> Dispatch {
        Dispatch::plain(self(caller, target, method, args))
    }
}

/// Counters describing a server's activity.
#[derive(Debug, Default)]
struct ServerStats {
    connections: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    /// Requests shed because the aggregate queue was at capacity
    /// (including queued jobs displaced by a fairer newcomer).
    shed_global: AtomicU64,
    /// Requests and connections refused because one client exceeded its
    /// own [`ResourceBudget`].
    shed_quota: AtomicU64,
}

/// Configuration for [`RpcServer::start_with_config`]: worker count,
/// aggregate queue limit, per-client budget and the serving clock.
#[derive(Clone)]
pub struct ServerConfig {
    /// Worker threads (at least one).
    pub workers: usize,
    /// Aggregate queued-request limit; `None` = unbounded.
    pub queue_limit: Option<usize>,
    /// Per-client admission limits.
    pub budget: ResourceBudget,
    /// Clock for ack timeouts and queue-wait measurement.
    pub clock: ClockHandle,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            queue_limit: None,
            budget: ResourceBudget::unlimited(),
            clock: ClockHandle::system(),
        }
    }
}

/// A running RPC server bound to one listener.
pub struct RpcServer {
    stopped: Arc<AtomicBool>,
    listener: Arc<dyn Listener>,
    reactor: Reactor,
    stats: Arc<ServerStats>,
    pool: Arc<FairPool>,
}

impl RpcServer {
    /// Starts serving `listener` on a reactor of its own.
    ///
    /// With `queue_limit` set, at most that many decoded requests wait for
    /// a worker; excess requests are *shed* — answered at once with a
    /// retryable [`RemoteErrorKind::Busy`] instead of queueing without
    /// bound behind slow calls. Per-client budgets are enforced on
    /// connections and dispatch, and over-budget requests are answered
    /// with the non-retryable [`RemoteErrorKind::QuotaExceeded`].
    /// Acknowledgement timeouts are measured on `clock`, and under a
    /// virtual clock each in-flight dispatch holds the clock so waiting
    /// callers cannot time out while their call is still executing.
    ///
    /// # Panics
    ///
    /// If the reactor cannot start — a thread cannot be spawned, or the
    /// platform has no epoll backend (serving is Linux-only; clients are
    /// not) — or if `listener` cannot be driven by one.
    pub fn start_with_config(
        listener: Box<dyn Listener>,
        dispatcher: Arc<dyn Dispatcher>,
        config: ServerConfig,
    ) -> RpcServer {
        let ServerConfig {
            workers,
            queue_limit,
            budget,
            clock,
        } = config;
        let stopped = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let pool = FairPool::new(workers, "rpc-worker", queue_limit, budget);
        let listener: Arc<dyn Listener> = Arc::from(listener);

        let reactor = Reactor::start(Reactor::DEFAULT_TICK, clock.clone())
            .expect("RpcServer needs the epoll reactor (Linux only) and a thread to run it on");
        let accept = ServerAccept {
            dispatcher,
            pool: Arc::clone(&pool),
            stats: Arc::clone(&stats),
            stopped: Arc::clone(&stopped),
            clock,
        };
        reactor
            .register_listener(Arc::clone(&listener), Box::new(accept))
            .expect("RpcServer's listener must be drivable by the reactor");
        RpcServer {
            stopped,
            listener,
            reactor,
            stats,
            pool,
        }
    }

    /// The endpoint this server accepts connections on.
    pub fn local_endpoint(&self) -> netobj_transport::Endpoint {
        self.listener.local_endpoint()
    }

    /// Total connections accepted.
    pub fn connections(&self) -> u64 {
        self.stats.connections.load(Ordering::Relaxed)
    }

    /// Total requests dispatched.
    pub fn requests(&self) -> u64 {
        self.stats.requests.load(Ordering::Relaxed)
    }

    /// Total requests that produced an error reply.
    pub fn errors(&self) -> u64 {
        self.stats.errors.load(Ordering::Relaxed)
    }

    /// Total requests shed for any cause: global saturation plus
    /// per-client quota rejections.
    pub fn shed(&self) -> u64 {
        self.shed_global() + self.shed_quota()
    }

    /// Requests shed with a retryable `Busy` reply because the aggregate
    /// worker queue was full (including queued requests displaced by fair
    /// shedding in favour of a less greedy client).
    pub fn shed_global(&self) -> u64 {
        self.stats.shed_global.load(Ordering::Relaxed)
    }

    /// Requests and connections refused with a non-retryable
    /// `QuotaExceeded` reply because one client exceeded its own budget.
    pub fn shed_quota(&self) -> u64 {
        self.stats.shed_quota.load(Ordering::Relaxed)
    }

    /// Requests waiting in the worker queue right now. Exact: counted
    /// under the queue lock, not read from a lock-free channel.
    pub fn queue_depth(&self) -> usize {
        self.pool.queued()
    }

    /// Deepest queue backlog ever reached (monotonic high-water mark).
    pub fn queue_high_water(&self) -> usize {
        self.pool.queue_high_water()
    }

    /// Worker threads currently executing a dispatch (approximate).
    pub fn active_workers(&self) -> usize {
        self.pool.active()
    }

    /// Per-client usage snapshot (sorted by client id) for quota gauges.
    pub fn per_client(&self) -> Vec<(SpaceId, ClientUsage)> {
        self.pool.per_client()
    }

    /// Statistics of the reactor serving this server. Always `Some`: every
    /// server runs on one.
    pub fn reactor_stats(&self) -> Option<ReactorSnapshot> {
        Some(self.reactor.stats())
    }

    /// Stops accepting and tears the server down.
    pub fn stop(&mut self) {
        self.stopped.store(true, Ordering::Release);
        self.listener.close();
        // Reactor first: its shutdown closes every registered connection
        // and runs each driver's teardown (ack drains, quota unbinding)
        // while the pool can still report ShutDown to late frames.
        self.reactor.shutdown();
        self.pool.shutdown();
    }
}

impl Drop for RpcServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// How long a completion hook waits for its [`RpcMsg::ReplyAck`] before
/// running anyway. Bounds transient-pin lifetime if the caller dies without
/// acknowledging (mirrors the paper's rule that transient dirty entries
/// must not outlive a failed transmission indefinitely).
pub const DEFAULT_ACK_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(30);

type Completion = Box<dyn FnOnce() + Send>;

#[derive(Default)]
struct AckTable {
    pending: parking_lot::Mutex<Vec<(u64, std::time::Instant, Completion)>>,
    /// Entry count mirrored outside the lock: most calls carry no ack
    /// obligation, so the per-frame expiry sweep and the per-reply
    /// acknowledge can skip the lock entirely while the table is empty.
    len: AtomicUsize,
}

impl AckTable {
    fn is_empty(&self) -> bool {
        self.len.load(Ordering::Acquire) == 0
    }

    fn insert(&self, call_id: u64, deadline: std::time::Instant, completion: Completion) {
        let mut pending = self.pending.lock();
        pending.push((call_id, deadline, completion));
        self.len.store(pending.len(), Ordering::Release);
    }

    fn acknowledge(&self, call_id: u64) {
        if self.is_empty() {
            return;
        }
        let found = {
            let mut pending = self.pending.lock();
            let found = pending
                .iter()
                .position(|(id, _, _)| *id == call_id)
                .map(|i| pending.swap_remove(i).2);
            self.len.store(pending.len(), Ordering::Release);
            found
        };
        if let Some(run) = found {
            run();
        }
    }

    fn expire(&self, now: std::time::Instant) {
        if self.is_empty() {
            return;
        }
        let expired: Vec<Completion> = {
            let mut pending = self.pending.lock();
            let mut out = Vec::new();
            let mut i = 0;
            while i < pending.len() {
                if pending[i].1 <= now {
                    out.push(pending.swap_remove(i).2);
                } else {
                    i += 1;
                }
            }
            self.len.store(pending.len(), Ordering::Release);
            out
        };
        for run in expired {
            run();
        }
    }

    fn drain(&self) {
        let all: Vec<Completion> = {
            let mut pending = self.pending.lock();
            self.len.store(0, Ordering::Release);
            pending.drain(..).map(|(_, _, c)| c).collect()
        };
        for run in all {
            run();
        }
    }
}

/// Remembers recently seen request ids on one connection so that a
/// duplicating channel cannot execute a call twice. Bounded FIFO window.
/// The peer chooses the ids, so the set keeps std's keyed SipHash: under
/// `FibHasher` ids `k << 32` would all probe from one bucket.
#[derive(Default)]
struct SeenRequests {
    order: std::collections::VecDeque<u64>,
    set: std::collections::HashSet<u64>,
}

impl SeenRequests {
    const WINDOW: usize = 4096;

    /// Returns false if `id` was already seen (a duplicate to drop).
    fn insert(&mut self, id: u64) -> bool {
        if !self.set.insert(id) {
            return false;
        }
        self.order.push_back(id);
        if self.order.len() > Self::WINDOW {
            if let Some(old) = self.order.pop_front() {
                self.set.remove(&old);
            }
        }
        true
    }
}

/// Service-time ceiling (on the connection's clock) under which a method
/// is considered *fast* and eligible for inline dispatch on the reactor
/// thread. Well above a short method's cost, well below anything that
/// blocks on I/O, locks held across calls, or deliberate sleeps.
pub const INLINE_FAST_MICROS: u64 = 200;

/// Most `(object, method)` verdicts one connection's classifier keeps:
/// object indices are never reused, so without a cap the map would gain
/// an entry for every object a peer ever calls.
const FAST_METHODS_CAP: usize = 1024;

/// Adaptive per-connection classifier for the inline fast path.
///
/// Maps `(object, method)` to the last verdict: `true` = the previous
/// dispatch finished under [`INLINE_FAST_MICROS`], so the next one may run
/// on the reactor thread. Unknown methods are never inlined — their first
/// call always goes through the worker pool, so a method that blocks
/// cannot wedge the reactor before it has ever been observed. `None` when
/// the server runs on a virtual clock (inline dispatch would serialise
/// virtual-time sleeps the deterministic suites expect to overlap). The
/// peer chooses the keys, so the map keeps std's keyed SipHash; a new key
/// past [`FAST_METHODS_CAP`] clears it, and every method starts over.
struct FastMethods {
    verdicts: parking_lot::Mutex<std::collections::HashMap<(u64, u32), bool>>,
}

impl FastMethods {
    fn new() -> FastMethods {
        FastMethods {
            verdicts: parking_lot::Mutex::new(std::collections::HashMap::new()),
        }
    }

    fn key(rq: &Request) -> (u64, u32) {
        (rq.target.ix.0, rq.method)
    }

    fn is_fast(&self, key: (u64, u32)) -> bool {
        *self.verdicts.lock().get(&key).unwrap_or(&false)
    }

    fn observe(&self, key: (u64, u32), service: std::time::Duration) {
        let fast = service.as_micros() <= u128::from(INLINE_FAST_MICROS);
        let mut verdicts = self.verdicts.lock();
        if verdicts.len() >= FAST_METHODS_CAP && !verdicts.contains_key(&key) {
            verdicts.clear();
        }
        verdicts.insert(key, fast);
    }
}

/// Everything a request needs besides its own fields, bundled so the
/// reactor clones ONE `Arc` per job instead of one per component.
struct ConnCtx {
    conn: Arc<dyn Conn>,
    dispatcher: Arc<dyn Dispatcher>,
    stats: Arc<ServerStats>,
    clock: ClockHandle,
    acks: AckTable,
    /// One recycling reply encoder per connection: once the transport has
    /// released the previous reply frame, the next reply reuses its
    /// allocation. Workers serving this connection serialise on the mutex
    /// only for the encode itself.
    send_buf: parking_lot::Mutex<SendBuf>,
    /// `Some` on system-clock servers: the inline fast-path classifier.
    fast: Option<FastMethods>,
}

impl ConnCtx {
    /// Sends the reply to call `call_id`; false if the connection is gone.
    fn reply(&self, call_id: u64, needs_ack: bool, outcome: Result<Vec<u8>, RemoteError>) -> bool {
        let frame = self
            .send_buf
            .lock()
            .encode_reply(call_id, needs_ack, outcome);
        self.conn.send_segments(frame).is_ok()
    }
}

/// Dispatches one request and sends its reply; shared by the worker path
/// and the reactor's inline fast path. Returns the method's service time
/// (on the connection's clock) for the fast-path classifier, or `None`
/// when the target object or method does not exist: a made-up key must
/// not take a place in the classifier.
fn serve_request(
    ctx: &ConnCtx,
    rq: Request,
    enqueued: std::time::Instant,
) -> Option<std::time::Duration> {
    let clock = &ctx.clock;
    // While the method runs, virtual time must not jump: the caller is
    // waiting on real work the clock cannot see.
    let hold = clock.as_virtual().map(|vc| vc.hold());
    let svc_start = clock.now();
    let cx = DispatchCx {
        trace_id: rq.trace_id,
        span_id: rq.span_id,
        queue_wait: svc_start.saturating_duration_since(enqueued),
    };
    // `rq.args` is a shared slice of the received frame: the argument
    // pickle reaches the dispatcher with no copy since the transport read.
    let dispatch = ctx
        .dispatcher
        .dispatch_cx(cx, rq.caller, rq.target, rq.method, &rq.args);
    let after = clock.now();
    drop(hold);
    let ran = match &dispatch.outcome {
        Ok(_) => true,
        Err(e) => {
            ctx.stats.errors.fetch_add(1, Ordering::Relaxed);
            !matches!(
                e.kind,
                RemoteErrorKind::NoSuchObject | RemoteErrorKind::NoSuchMethod
            )
        }
    };
    let needs_ack = dispatch.completion.is_some();
    // Register the completion *before* the reply leaves, so the ack can
    // never race past it.
    if let Some(completion) = dispatch.completion {
        ctx.acks
            .insert(rq.call_id, after + DEFAULT_ACK_TIMEOUT, completion);
    }
    if !ctx.reply(rq.call_id, needs_ack, dispatch.outcome) {
        // The caller is gone; run the completion immediately.
        ctx.acks.acknowledge(rq.call_id);
    }
    ran.then(|| after.saturating_duration_since(svc_start))
}

/// The per-connection protocol state machine, fed by the reactor from
/// readiness-driven decode: admission control, identity binding, dup
/// suppression and the inline fast path. `on_frame` (and therefore the
/// inline fast path) runs directly on the reactor thread; replies it sends
/// to a socket are flushed by the reactor's coalesced write right after
/// the frame batch.
struct ConnState {
    ctx: Arc<ConnCtx>,
    pool: Arc<FairPool>,
    stopped: Arc<AtomicBool>,
    seen: SeenRequests,
    /// The client this connection is attributed to for the connection
    /// budget: unknown until the first request decodes (the transport
    /// accept path carries no identity).
    bound: Option<SpaceId>,
}

impl ConnState {
    /// Sweeps expired ack obligations (no-op while the table is empty).
    fn sweep_acks(&self) {
        if !self.ctx.acks.is_empty() {
            self.ctx.acks.expire(self.ctx.clock.now());
        }
    }
}

impl ConnDriver for ConnState {
    /// Runs one decoded wire frame through the state machine. `Close`
    /// tears the connection down: malformed traffic, a protocol violation,
    /// a quota refusal, a dead peer, or server shutdown.
    fn on_frame(&mut self, frame: Bytes) -> Drive {
        let ctx = &self.ctx;
        if self.stopped.load(Ordering::Acquire) {
            return Drive::Close;
        }
        self.sweep_acks();
        let msg = match RpcMsg::decode(&frame) {
            Ok(m) => m,
            Err(_) => {
                // Malformed traffic: drop the connection.
                return Drive::Close;
            }
        };
        let rq = match msg {
            RpcMsg::Request(rq) => {
                if !self.seen.insert(rq.call_id) {
                    // A duplicated frame from an at-least-once channel:
                    // the call already ran (or is running); drop it. The
                    // caller matches on call id, so a duplicate reply from
                    // the first execution serves both frames.
                    return Drive::Continue;
                }
                rq
            }
            RpcMsg::ReplyAck(call_id) => {
                ctx.acks.acknowledge(call_id);
                return Drive::Continue;
            }
            RpcMsg::Reply(_) => {
                // Replies arriving at a server end are protocol violations.
                return Drive::Close;
            }
        };
        if self.bound.is_none() {
            if self.pool.register_conn(rq.caller) {
                self.bound = Some(rq.caller);
            } else {
                // Over the client's connection budget: refuse the request
                // and drop the connection. Non-retryable — the client must
                // close connections first.
                ctx.stats.shed_quota.fetch_add(1, Ordering::Relaxed);
                let err = RemoteError::new(
                    RemoteErrorKind::QuotaExceeded,
                    "client connection limit exceeded",
                );
                ctx.reply(rq.call_id, false, Err(err));
                return Drive::Close;
            }
        }
        ctx.stats.requests.fetch_add(1, Ordering::Relaxed);
        let enqueued = ctx.clock.now();
        let fast_key = FastMethods::key(&rq);
        if let Some(fast) = &ctx.fast {
            if fast.is_fast(fast_key) {
                // Last observation was fast: skip the worker handoff and
                // dispatch on the decoding thread (the reactor's). A slow
                // surprise demotes the method so the next call goes back to
                // the pool. Inline calls bypass queue admission, but the
                // decoder serialises them, so one connection can hold at
                // most one at a time.
                if let Some(service) = serve_request(ctx, rq, enqueued) {
                    fast.observe(fast_key, service);
                }
                return Drive::Continue;
            }
        }
        let call_id = rq.call_id;
        let caller = rq.caller;
        let job_ctx = Arc::clone(ctx);
        let shed_ctx = Arc::clone(ctx);
        let admitted = self.pool.try_execute(
            caller,
            Box::new(move || {
                let service = serve_request(&job_ctx, rq, enqueued);
                if let (Some(fast), Some(service)) = (&job_ctx.fast, service) {
                    fast.observe(fast_key, service);
                }
            }),
            // Runs instead of the job if a fairer newcomer displaces it
            // from a full queue: the method never executed, so the caller
            // gets the same retryable Busy a front-door shed produces.
            Box::new(move || {
                shed_ctx.stats.shed_global.fetch_add(1, Ordering::Relaxed);
                let busy = RemoteError::new(RemoteErrorKind::Busy, "displaced by fair admission");
                shed_ctx.reply(call_id, false, Err(busy));
            }),
        );
        match admitted {
            FairAdmit::Queued => Drive::Continue,
            FairAdmit::Saturated => {
                // Shed before dispatch: the method did not (and will not)
                // run, so the rejection is a *not delivered* failure the
                // caller may retry freely. Answer from the decoding thread
                // — by definition no worker is free to do it.
                ctx.stats.shed_global.fetch_add(1, Ordering::Relaxed);
                let busy = RemoteError::new(RemoteErrorKind::Busy, "server worker pool saturated");
                if !ctx.reply(call_id, false, Err(busy)) {
                    return Drive::Close;
                }
                Drive::Continue
            }
            FairAdmit::OverQuota => {
                // The client exceeded its own queue share or in-flight
                // budget. Unlike Busy this is not transient congestion:
                // answer with the non-retryable QuotaExceeded.
                ctx.stats.shed_quota.fetch_add(1, Ordering::Relaxed);
                let err = RemoteError::new(
                    RemoteErrorKind::QuotaExceeded,
                    "client request budget exceeded",
                );
                if !ctx.reply(call_id, false, Err(err)) {
                    return Drive::Close;
                }
                Drive::Continue
            }
            FairAdmit::ShutDown => Drive::Close,
        }
    }

    fn on_tick(&mut self) {
        // Expired ack obligations are released even while the connection
        // is idle.
        self.sweep_acks();
    }

    /// Connection over: no acks can arrive; release everything the
    /// connection holds. Idempotent.
    fn on_close(&mut self) {
        self.ctx.conn.close();
        self.ctx.acks.drain();
        if let Some(client) = self.bound.take() {
            self.pool.unregister_conn(client);
        }
    }
}

/// Builds a [`ConnState`] for every connection the reactor accepts.
struct ServerAccept {
    dispatcher: Arc<dyn Dispatcher>,
    pool: Arc<FairPool>,
    stats: Arc<ServerStats>,
    stopped: Arc<AtomicBool>,
    clock: ClockHandle,
}

impl AcceptDriver for ServerAccept {
    fn on_accept(&mut self, conn: Arc<dyn Conn>) -> Option<Box<dyn ConnDriver>> {
        if self.stopped.load(Ordering::Acquire) {
            conn.close();
            return None;
        }
        self.stats.connections.fetch_add(1, Ordering::Relaxed);
        let clock = self.clock.clone();
        let ctx = Arc::new(ConnCtx {
            conn,
            dispatcher: Arc::clone(&self.dispatcher),
            stats: Arc::clone(&self.stats),
            fast: clock.as_virtual().is_none().then(FastMethods::new),
            clock,
            acks: AckTable::default(),
            send_buf: parking_lot::Mutex::new(SendBuf::new()),
        });
        Some(Box::new(ConnState {
            ctx,
            pool: Arc::clone(&self.pool),
            stopped: Arc::clone(&self.stopped),
            seen: SeenRequests::default(),
            bound: None,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::CallClient;
    use crate::error::{RemoteErrorKind, RpcError};
    use netobj_transport::loopback::Loopback;
    use netobj_transport::sim::SimNet;
    use netobj_transport::tcp::Tcp;
    use netobj_transport::{Endpoint, Transport};
    use netobj_wire::ObjIx;
    use std::time::Duration;

    fn echo_dispatcher() -> Arc<dyn Dispatcher> {
        Arc::new(
            |_caller: SpaceId, target: WireRep, method: u32, args: &[u8]| {
                if method == 99 {
                    return Err(RemoteError::new(RemoteErrorKind::NoSuchMethod, "99"));
                }
                let mut out = target.ix.0.to_le_bytes().to_vec();
                out.extend_from_slice(args);
                Ok(out)
            },
        )
    }

    fn workers(workers: usize) -> ServerConfig {
        ServerConfig {
            workers,
            ..ServerConfig::default()
        }
    }

    fn connect(t: &dyn Transport, server: &RpcServer, caller: u128) -> Arc<CallClient> {
        let conn = t.connect(&server.local_endpoint()).unwrap();
        CallClient::new(Arc::from(conn), SpaceId::from_raw(caller))
    }

    /// Runs `body` once per transport, with an endpoint to listen at: the
    /// serving path is one, so what holds over one holds over all three.
    fn over_each_transport(body: impl Fn(&dyn Transport, Endpoint)) {
        body(&Loopback::new(), Endpoint::loopback("srv"));
        let sim = SimNet::instant();
        body(&sim, Endpoint::sim("srv"));
        sim.shutdown();
        body(&Tcp, Endpoint::tcp("127.0.0.1:0"));
    }

    fn start_over_loopback() -> (RpcServer, Arc<CallClient>) {
        let t = Loopback::new();
        let l = t.listen(&Endpoint::loopback("srv")).unwrap();
        let server = RpcServer::start_with_config(l, echo_dispatcher(), workers(4));
        let client = connect(&t, &server, 1);
        (server, client)
    }

    fn target(ix: u64) -> WireRep {
        WireRep::new(SpaceId::from_raw(2), ObjIx(ix))
    }

    #[test]
    fn fast_method_classifier_stays_bounded() {
        let fast = FastMethods::new();
        let quick = Duration::from_micros(1);
        for ix in 0..10_000u64 {
            fast.observe((ix, 0), quick);
            assert!(fast.verdicts.lock().len() <= FAST_METHODS_CAP);
        }
        // Past the cap the map starts over rather than refusing: a method
        // observed fast afterwards is inlined as before.
        fast.observe((u64::MAX, 3), quick);
        assert!(fast.is_fast((u64::MAX, 3)));
        assert!(!fast.is_fast((u64::MAX, 4)));
    }

    #[test]
    fn dup_window_holds_ids_that_share_their_low_bits() {
        // Peer-chosen ids whose low 32 bits are all zero: the window must
        // still drop what it holds and admit what it has evicted.
        const WINDOW: usize = SeenRequests::WINDOW;
        let id = |k: usize| (k as u64) << 32;
        let mut seen = SeenRequests::default();
        for k in 0..2 * WINDOW {
            assert!(seen.insert(id(k)), "fresh id {k} refused");
        }
        for k in WINDOW..2 * WINDOW {
            assert!(
                !seen.insert(id(k)),
                "duplicate {k} inside the window admitted"
            );
        }
        for k in 0..WINDOW {
            assert!(seen.insert(id(k)), "evicted id {k} refused");
        }
        assert_eq!(seen.set.len(), WINDOW);
        assert_eq!(seen.order.len(), WINDOW);
    }

    fn wait_until(what: &str, within: Duration, mut cond: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + within;
        while !cond() {
            assert!(
                std::time::Instant::now() < deadline,
                "{what}: not within {within:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn end_to_end_call() {
        let (server, client) = start_over_loopback();
        let got = client.call(target(7), 0, vec![9]).unwrap();
        assert_eq!(&got[..8], &7u64.to_le_bytes());
        assert_eq!(got[8], 9);
        assert_eq!(server.requests(), 1);
        assert_eq!(server.errors(), 0);
    }

    #[test]
    fn error_reply_counted() {
        let (server, client) = start_over_loopback();
        let got = client.call(target(1), 99, vec![]);
        assert!(matches!(got, Err(RpcError::Remote(_))));
        assert_eq!(server.errors(), 1);
    }

    #[test]
    fn every_transports_server_runs_on_the_reactor() {
        over_each_transport(|t, ep| {
            let server =
                RpcServer::start_with_config(t.listen(&ep).unwrap(), echo_dispatcher(), workers(4));
            let client = connect(t, &server, 1);
            for i in 0..50u8 {
                let got = client.call(target(7), 0, vec![i]).unwrap();
                assert_eq!(&got[..8], &7u64.to_le_bytes());
                assert_eq!(got[8], i);
            }
            assert_eq!(server.requests(), 50);
            assert_eq!(server.connections(), 1);
            let stats = server.reactor_stats().expect("served by a reactor");
            assert_eq!(stats.accepted, 1);
            assert_eq!(stats.connections, 1);
        });
    }

    #[test]
    fn many_concurrent_clients() {
        let t = Loopback::new();
        let l = t.listen(&Endpoint::loopback("srv")).unwrap();
        let server = RpcServer::start_with_config(l, echo_dispatcher(), workers(8));
        let mut joins = Vec::new();
        for i in 0..8u64 {
            let client = connect(&t, &server, u128::from(i));
            joins.push(std::thread::spawn(move || {
                for j in 0..20u8 {
                    let got = client.call(target(i), 0, vec![j]).unwrap();
                    assert_eq!(got[8], j);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(server.requests(), 160);
        assert_eq!(server.connections(), 8);
    }

    /// A request sent the instant the connection exists reaches the
    /// server half before the reactor has accepted it, let alone installed
    /// its waker: nobody announces that frame, so registration has to look.
    #[test]
    fn request_sent_before_the_accept_is_served() {
        over_each_transport(|t, ep| {
            let server =
                RpcServer::start_with_config(t.listen(&ep).unwrap(), echo_dispatcher(), workers(2));
            for i in 0..1000u32 {
                let client = connect(t, &server, 1);
                let got = client
                    .call_with_timeout(target(7), 0, vec![i as u8], Duration::from_secs(5))
                    .unwrap_or_else(|e| panic!("connection {i}: {e:?}"));
                assert_eq!(got[8], i as u8);
            }
            assert_eq!(server.requests(), 1000);
        });
    }

    #[test]
    fn slow_call_does_not_block_fast_call_on_same_connection() {
        over_each_transport(|t, ep| {
            let dispatcher: Arc<dyn Dispatcher> =
                Arc::new(|_c: SpaceId, _t: WireRep, method: u32, _a: &[u8]| {
                    if method == 1 {
                        std::thread::sleep(Duration::from_millis(300));
                    }
                    Ok(vec![method as u8])
                });
            let server =
                RpcServer::start_with_config(t.listen(&ep).unwrap(), dispatcher, workers(4));
            let client = connect(t, &server, 1);

            let slow_client = Arc::clone(&client);
            let slow = std::thread::spawn(move || slow_client.call(target(0), 1, vec![]));
            std::thread::sleep(Duration::from_millis(30));
            let t0 = std::time::Instant::now();
            let fast = client.call(target(0), 2, vec![]).unwrap();
            assert_eq!(fast, vec![2]);
            assert!(
                t0.elapsed() < Duration::from_millis(200),
                "fast call was blocked by slow call"
            );
            assert_eq!(slow.join().unwrap().unwrap(), vec![1]);
        });
    }

    /// Sixteen calls in flight on one TCP connection, slow ones (served by
    /// the pool) among fast ones (served inline, each long enough that
    /// workers finish meanwhile): a worker's reply queued while the reactor
    /// is inside that connection's visit goes out with the visit's flush,
    /// and one queued after it wakes the reactor. Every reply arrives; the
    /// last calls are all slow, so nothing but a wake-up can send them.
    #[test]
    fn pool_and_inline_replies_interleave_on_one_connection() {
        const FAST: u32 = 1;
        const SLOW: u32 = 2;
        const CALLS: u64 = 600;
        const DEPTH: u64 = 16;
        let dispatcher: Arc<dyn Dispatcher> =
            Arc::new(|_c: SpaceId, _t: WireRep, method: u32, args: &[u8]| {
                let spin = std::time::Instant::now();
                match method {
                    FAST => while spin.elapsed() < Duration::from_micros(50) {},
                    _ => std::thread::sleep(Duration::from_millis(1)),
                }
                Ok(args.to_vec())
            });
        let l = Tcp.listen(&Endpoint::tcp("127.0.0.1:0")).unwrap();
        let server = RpcServer::start_with_config(l, dispatcher, workers(4));
        let conn = Tcp.connect(&server.local_endpoint()).unwrap();
        let caller = SpaceId::from_raw(1);
        let send = |call_id: u64| {
            let slow = call_id % 3 == 0 || call_id >= CALLS - DEPTH;
            let rq = RpcMsg::Request(Request {
                call_id,
                caller,
                target: target(0),
                method: if slow { SLOW } else { FAST },
                args: Bytes::copy_from_slice(&call_id.to_le_bytes()),
                trace_id: 0,
                span_id: 0,
            });
            conn.send(rq.encode()).unwrap();
        };
        for call_id in 0..DEPTH {
            send(call_id);
        }
        let mut answered = std::collections::HashSet::new();
        while (answered.len() as u64) < CALLS {
            let frame = conn
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|e| panic!("{} of {CALLS} replies, then {e:?}", answered.len()));
            let RpcMsg::Reply(reply) = RpcMsg::decode(&frame).unwrap() else {
                panic!("not a reply");
            };
            assert_eq!(reply.outcome.unwrap(), reply.call_id.to_le_bytes());
            assert!(answered.insert(reply.call_id), "two replies to one call");
            let next = answered.len() as u64 + DEPTH - 1;
            if next < CALLS {
                send(next);
            }
        }
    }

    #[test]
    fn dropped_ack_token_releases_server_completion() {
        use std::sync::atomic::AtomicU64;

        struct Pinning {
            released: Arc<AtomicU64>,
        }
        impl Dispatcher for Pinning {
            fn dispatch(&self, _c: SpaceId, _t: WireRep, _m: u32, _a: &[u8]) -> Dispatch {
                let released = Arc::clone(&self.released);
                Dispatch {
                    outcome: Ok(vec![]),
                    completion: Some(Box::new(move || {
                        released.fetch_add(1, Ordering::SeqCst);
                    })),
                }
            }
        }

        let released = Arc::new(AtomicU64::new(0));
        let t = Loopback::new();
        let l = t.listen(&Endpoint::loopback("srv")).unwrap();
        let server = RpcServer::start_with_config(
            l,
            Arc::new(Pinning {
                released: Arc::clone(&released),
            }),
            workers(2),
        );
        let client = connect(&t, &server, 1);

        let reply = client
            .call_raw(target(0), 0, vec![], Duration::from_secs(5))
            .unwrap();
        assert!(reply.ack.is_some());
        // Not yet acknowledged: the callee's transient pins must still be
        // held (the caller may be registering references).
        assert_eq!(released.load(Ordering::SeqCst), 0);
        drop(reply); // error-path drop sends the ack
        let t0 = std::time::Instant::now();
        while released.load(Ordering::SeqCst) == 0 && t0.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(released.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn saturated_pool_sheds_with_busy() {
        let t = Loopback::new();
        let l = t.listen(&Endpoint::loopback("srv")).unwrap();
        let dispatcher: Arc<dyn Dispatcher> =
            Arc::new(|_c: SpaceId, _t: WireRep, _m: u32, _a: &[u8]| {
                std::thread::sleep(Duration::from_millis(200));
                Ok(vec![])
            });
        let server = RpcServer::start_with_config(
            l,
            dispatcher,
            ServerConfig {
                queue_limit: Some(1),
                ..workers(1)
            },
        );
        let client = connect(&t, &server, 1);

        // 1 worker + 1 queue slot: of six concurrent calls at least one
        // must be shed, and shed calls answer far faster than the 200 ms
        // the method takes.
        let mut joins = Vec::new();
        for _ in 0..6 {
            let c = Arc::clone(&client);
            joins.push(std::thread::spawn(move || {
                c.call_with_timeout(target(0), 0, vec![], Duration::from_secs(5))
            }));
        }
        let mut busy = 0;
        for j in joins {
            if let Err(RpcError::Remote(e)) = j.join().unwrap() {
                assert_eq!(e.kind, RemoteErrorKind::Busy);
                busy += 1;
            }
        }
        assert!(busy >= 1, "no call was shed");
        assert_eq!(server.shed(), busy);
    }

    #[test]
    fn over_quota_client_sheds_with_quota_exceeded() {
        let t = Loopback::new();
        let l = t.listen(&Endpoint::loopback("srv")).unwrap();
        let dispatcher: Arc<dyn Dispatcher> =
            Arc::new(|_c: SpaceId, _t: WireRep, _m: u32, _a: &[u8]| {
                std::thread::sleep(Duration::from_millis(200));
                Ok(vec![])
            });
        let server = RpcServer::start_with_config(
            l,
            dispatcher,
            ServerConfig {
                queue_limit: Some(64),
                budget: ResourceBudget {
                    max_inflight: Some(2),
                    ..ResourceBudget::unlimited()
                },
                ..workers(1)
            },
        );
        let client = connect(&t, &server, 1);

        // Six concurrent calls against an in-flight budget of two: the
        // queue has room (global limit 64), so every rejection must be the
        // per-client QuotaExceeded, not Busy.
        let mut joins = Vec::new();
        for _ in 0..6 {
            let c = Arc::clone(&client);
            joins.push(std::thread::spawn(move || {
                c.call_with_timeout(target(0), 0, vec![], Duration::from_secs(5))
            }));
        }
        let mut quota = 0;
        for j in joins {
            if let Err(RpcError::Remote(e)) = j.join().unwrap() {
                assert_eq!(e.kind, RemoteErrorKind::QuotaExceeded);
                quota += 1;
            }
        }
        assert!(quota >= 1, "no call was quota-shed");
        assert_eq!(server.shed_quota(), quota);
        assert_eq!(server.shed_global(), 0);
        assert_eq!(server.shed(), quota);
    }

    /// How long the server may take to notice that a connection ended: far
    /// under the reactor's 500 ms tick, which is what it would take if the
    /// close reached it by anything other than a wake-up.
    const NOTICED_WITHIN: Duration = Duration::from_millis(250);

    fn one_connection_per_client() -> ServerConfig {
        ServerConfig {
            budget: ResourceBudget {
                max_connections: Some(1),
                ..ResourceBudget::unlimited()
            },
            ..workers(2)
        }
    }

    fn released(server: &RpcServer) -> bool {
        server.per_client().is_empty() && server.reactor_stats().unwrap().connections == 0
    }

    #[test]
    fn connection_limit_refuses_excess_connections_until_one_closes() {
        over_each_transport(|t, ep| {
            let server = RpcServer::start_with_config(
                t.listen(&ep).unwrap(),
                echo_dispatcher(),
                one_connection_per_client(),
            );
            let c1 = connect(t, &server, 7);
            c1.call(target(1), 0, vec![]).unwrap();
            // Second connection claiming the same identity: its first
            // request is refused with QuotaExceeded and the connection is
            // dropped.
            let c2 = connect(t, &server, 7);
            match c2.call_with_timeout(target(1), 0, vec![], Duration::from_secs(5)) {
                Err(RpcError::Remote(e)) => assert_eq!(e.kind, RemoteErrorKind::QuotaExceeded),
                other => panic!("expected QuotaExceeded, got {other:?}"),
            }
            assert!(server.shed_quota() >= 1);
            // The first connection keeps working, and a different client
            // may still connect.
            c1.call(target(1), 0, vec![]).unwrap();
            let c3 = connect(t, &server, 8);
            c3.call(target(1), 0, vec![]).unwrap();
            // A peer's close reaches the reactor as a wake-up: it unbinds
            // the identity, so the same client may connect again.
            c1.close();
            c3.close();
            wait_until("peer close releases the binding", NOTICED_WITHIN, || {
                released(&server)
            });
            let c4 = connect(t, &server, 7);
            c4.call(target(1), 0, vec![]).unwrap();
        });
    }

    /// `SimNet::crash` closes a connection from outside either half; the
    /// serving half's reactor must hear of it like any other close.
    #[test]
    fn crash_releases_the_connections_binding() {
        let net = SimNet::instant();
        let server = RpcServer::start_with_config(
            net.listen(&Endpoint::sim("srv")).unwrap(),
            echo_dispatcher(),
            one_connection_per_client(),
        );
        let client = connect(&net, &server, 7);
        client.call(target(1), 0, vec![]).unwrap();
        assert_eq!(server.per_client().len(), 1);
        net.crash("srv");
        wait_until("crash releases the binding", NOTICED_WITHIN, || {
            released(&server)
        });
        net.shutdown();
    }

    #[test]
    fn queue_high_water_tracks_backlog() {
        let t = Loopback::new();
        let l = t.listen(&Endpoint::loopback("srv")).unwrap();
        let dispatcher: Arc<dyn Dispatcher> =
            Arc::new(|_c: SpaceId, _t: WireRep, _m: u32, _a: &[u8]| {
                std::thread::sleep(Duration::from_millis(100));
                Ok(vec![])
            });
        let server = RpcServer::start_with_config(
            l,
            dispatcher,
            ServerConfig {
                queue_limit: Some(16),
                ..workers(1)
            },
        );
        let client = connect(&t, &server, 1);
        let mut joins = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&client);
            joins.push(std::thread::spawn(move || {
                c.call_with_timeout(target(0), 0, vec![], Duration::from_secs(5))
            }));
        }
        for j in joins {
            j.join().unwrap().unwrap();
        }
        // All four calls completed; at some point at least two sat queued
        // behind the single 100 ms worker (first may have been picked up
        // instantly). The mark persists after the queue drains.
        assert_eq!(server.queue_depth(), 0);
        assert!(server.queue_high_water() >= 2);
    }

    #[test]
    fn stop_tears_down() {
        over_each_transport(|t, ep| {
            let mut server =
                RpcServer::start_with_config(t.listen(&ep).unwrap(), echo_dispatcher(), workers(4));
            let client = connect(t, &server, 1);
            client.call(target(1), 0, vec![]).unwrap();
            server.stop();
            let got = client.call_with_timeout(target(0), 0, vec![], Duration::from_secs(1));
            assert!(got.is_err());
        });
    }
}
