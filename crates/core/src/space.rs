//! Spaces: the processes of the network objects world.
//!
//! A [`Space`] owns an object table, a set of transports, an RPC server
//! (when listening), cached RPC clients to peer spaces, and the collector
//! machinery (sequence numbers, cleanup demon, ping/lease demons). The
//! original system had exactly one of these per address space; tests and
//! simulations here create many in one process.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use std::collections::BTreeMap;

use netobj_rpc::{
    Admission, Backoff, BreakerState, CallClient, CallReply, CircuitBreaker, Dispatch, DispatchCx,
    Dispatcher, FailureClass, RpcError, RpcServer, ServerConfig,
};
use netobj_transport::{Bytes, Endpoint, TransportRegistry};
use netobj_wire::{
    ObjIx, SpaceId, SpanKind, SpanOutcome, SpanRecord, TraceEvent, TraceKind, TypeList, WireRep,
};
use parking_lot::{Mutex, RwLock};

use crate::dgc::{self, GcJob};
use crate::error::{to_remote_error, Error, NetResult};
use crate::handle::{Handle, HandleKind, PinKind, SurrogateCore, TransientPin};
use crate::marshal::UnmarshalCx;
use crate::metrics::{ClientQuotaGauges, Gauges, Histogram, Metrics, GC_KINDS};
use crate::obj::NetObject;
use crate::options::Options;
use crate::ring::Ring;
use crate::span::{self, IdAlloc, TraceScope, DEFAULT_SPAN_CAPACITY};
use crate::stats::{Stats, StatsSnapshot};
use crate::table::ObjectTable;
use crate::trace::DEFAULT_TRACE_CAPACITY;

pub(crate) struct SpaceInner {
    pub(crate) id: SpaceId,
    pub(crate) options: Options,
    pub(crate) registry: TransportRegistry,
    /// Read-mostly connection cache: every call looks its client up under
    /// the read lock; the write lock is taken only to (re)connect or
    /// invalidate.
    pub(crate) clients: RwLock<HashMap<Endpoint, Arc<CallClient>>>,
    /// Read-mostly, like `clients`: one breaker per endpoint, installed
    /// once and then only read on the call path.
    pub(crate) breakers: RwLock<HashMap<Endpoint, Arc<CircuitBreaker>>>,
    pub(crate) dead_owners: Mutex<HashSet<SpaceId>>,
    /// Mirror of `dead_owners.len()`: the per-call liveness check loads
    /// this atomic and skips the lock entirely while no owner has died
    /// (the overwhelmingly common case).
    pub(crate) dead_owner_count: AtomicUsize,
    pub(crate) retry_seed: AtomicU64,
    pub(crate) server: Mutex<Option<RpcServer>>,
    pub(crate) local_ep: Mutex<Option<Endpoint>>,
    pub(crate) table: ObjectTable,
    pub(crate) stats: Stats,
    pub(crate) gc_seqno: AtomicU64,
    pub(crate) gc_tx: Mutex<Option<Sender<GcJob>>>,
    pub(crate) demon: Mutex<Option<std::thread::JoinHandle<()>>>,
    pub(crate) pinger: Mutex<Option<std::thread::JoinHandle<()>>>,
    pub(crate) stopped: AtomicBool,
    pub(crate) trace: Ring<TraceEvent>,
    pub(crate) spans: Ring<SpanRecord>,
    pub(crate) ids: IdAlloc,
    /// Per-label application-call latency histograms. Read-mostly: after
    /// warm-up every call label exists, so the hot path takes the read
    /// lock only; the write lock is needed just to install a new label.
    pub(crate) app_hist: RwLock<BTreeMap<String, Arc<Histogram>>>,
    pub(crate) gc_hist: [Histogram; 4],
    pub(crate) pending_clean_retries: AtomicU64,
}

/// A participating process: the unit of ownership in Network Objects.
///
/// Cheap to clone; all clones share the same underlying space. See the
/// crate docs for the lifecycle of objects and references.
#[derive(Clone)]
pub struct Space {
    pub(crate) inner: Arc<SpaceInner>,
}

/// Builder for [`Space`].
pub struct SpaceBuilder {
    registry: TransportRegistry,
    listen: Option<Endpoint>,
    options: Options,
}

impl Default for SpaceBuilder {
    fn default() -> Self {
        SpaceBuilder {
            registry: TransportRegistry::new(),
            listen: None,
            options: Options::default(),
        }
    }
}

impl SpaceBuilder {
    /// Uses an existing transport registry (share one per test/simulation).
    pub fn transports(mut self, registry: TransportRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Registers one transport.
    pub fn transport(self, t: Arc<dyn netobj_transport::Transport>) -> Self {
        self.registry.register(t);
        self
    }

    /// Makes the space listen at `ep` (required to own callable objects).
    pub fn listen(mut self, ep: Endpoint) -> Self {
        self.listen = Some(ep);
        self
    }

    /// Overrides the default options.
    pub fn options(mut self, options: Options) -> Self {
        self.options = options;
        self
    }

    /// Creates the space, starting its server (if listening) and demons.
    pub fn build(self) -> NetResult<Space> {
        let trace = Ring::new(self.options.clock.clone(), DEFAULT_TRACE_CAPACITY);
        let spans = Ring::new(self.options.clock.clone(), DEFAULT_SPAN_CAPACITY);
        let id = SpaceId::fresh();
        let inner = Arc::new(SpaceInner {
            id,
            options: self.options,
            registry: self.registry,
            clients: RwLock::new(HashMap::new()),
            breakers: RwLock::new(HashMap::new()),
            dead_owners: Mutex::new(HashSet::new()),
            dead_owner_count: AtomicUsize::new(0),
            retry_seed: AtomicU64::new(0),
            server: Mutex::new(None),
            local_ep: Mutex::new(None),
            table: ObjectTable::new(),
            stats: Stats::default(),
            gc_seqno: AtomicU64::new(1),
            gc_tx: Mutex::new(None),
            demon: Mutex::new(None),
            pinger: Mutex::new(None),
            stopped: AtomicBool::new(false),
            trace,
            spans,
            ids: IdAlloc::new(id),
            app_hist: RwLock::new(BTreeMap::new()),
            gc_hist: Default::default(),
            pending_clean_retries: AtomicU64::new(0),
        });
        let space = Space { inner };

        if let Some(ep) = self.listen {
            let listener = space.inner.registry.listen(&ep)?;
            let local = listener.local_endpoint();
            let dispatcher: Arc<dyn Dispatcher> =
                Arc::new(SpaceDispatcher(Arc::downgrade(&space.inner)));
            let server = RpcServer::start_with_config(
                listener,
                dispatcher,
                ServerConfig {
                    workers: space.inner.options.workers,
                    queue_limit: space.inner.options.server_queue_limit,
                    budget: space.inner.options.budget.clone(),
                    clock: space.inner.options.clock.clone(),
                },
            );
            *space.inner.local_ep.lock() = Some(local);
            *space.inner.server.lock() = Some(server);
            // Every listening space answers introspection queries at the
            // reserved index: read-only metrics, spans and trace tail.
            crate::introspect::install(&space)?;
        }

        dgc::start_demons(&space);
        Ok(space)
    }
}

impl Space {
    /// Starts building a space.
    pub fn builder() -> SpaceBuilder {
        SpaceBuilder::default()
    }

    /// This space's globally unique identifier.
    pub fn id(&self) -> SpaceId {
        self.inner.id
    }

    /// The endpoint this space listens on, if any.
    pub fn endpoint(&self) -> Option<Endpoint> {
        self.inner.local_ep.lock().clone()
    }

    /// The space's options.
    pub fn options(&self) -> &Options {
        &self.inner.options
    }

    /// A snapshot of the space's activity counters.
    ///
    /// The shed counters live in the RPC server (calls refused there never
    /// reach the space's dispatcher); the snapshot folds them in so one
    /// read sees all admission decisions.
    pub fn stats(&self) -> StatsSnapshot {
        let mut snap = self.inner.stats.snapshot();
        if let Some(server) = self.inner.server.lock().as_ref() {
            snap.calls_shed_global += server.shed_global();
            snap.calls_shed_quota += server.shed_quota();
        }
        snap
    }

    /// A snapshot of the surviving trace events, in emission order.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.inner.trace.snapshot()
    }

    /// A snapshot of the surviving call spans, in emission order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.spans.snapshot()
    }

    /// The full observability snapshot: counters, latency histograms and
    /// gauges. Deterministic under a virtual clock.
    pub fn metrics(&self) -> Metrics {
        let app_calls = self
            .inner
            .app_hist
            .read()
            .iter()
            .map(|(label, h)| (label.clone(), h.snapshot()))
            .collect();
        let gc_calls = std::array::from_fn(|i| self.inner.gc_hist[i].snapshot());
        let (queue_depth, queue_high_water, reactor) = {
            let server = self.inner.server.lock();
            server
                .as_ref()
                .map(|s| {
                    (
                        s.queue_depth() as u64,
                        s.queue_high_water() as u64,
                        s.reactor_stats(),
                    )
                })
                .unwrap_or((0, 0, None))
        };
        let reactor = reactor.unwrap_or_default();
        let gauges = Gauges {
            exports: self.exported_count() as u64,
            surrogates: self.inner.table.imports.len() as u64,
            dirty_entries: self.inner.table.exports.dirty_entry_count(),
            pending_clean_retries: self.inner.pending_clean_retries.load(Ordering::Relaxed),
            server_queue_depth: queue_depth,
            server_queue_high_water: queue_high_water,
            pool_connections: self.inner.clients.read().len() as u64,
            open_breakers: self
                .inner
                .breakers
                .read()
                .values()
                .filter(|b| b.state() == BreakerState::Open)
                .count() as u64,
            reactor_connections: reactor.connections,
            reactor_readiness_depth: reactor.readiness_depth,
            reactor_readiness_high_water: reactor.readiness_high_water,
            reactor_frames_flushed: reactor.frames_flushed,
            reactor_flush_syscalls: reactor.flush_syscalls,
        };
        // Per-client quota gauges are assembled only under a finite
        // budget: client ids are random per process, so unconditional
        // emission would make the exposition nondeterministic for
        // deployments that never asked for quotas.
        let mut per_client: BTreeMap<String, ClientQuotaGauges> = BTreeMap::new();
        if !self.inner.options.budget.is_unlimited() {
            if let Some(server) = self.inner.server.lock().as_ref() {
                for (id, usage) in server.per_client() {
                    let g = per_client.entry(format!("{id}")).or_default();
                    g.connections = usage.connections;
                    g.queued = usage.queued;
                    g.inflight = usage.inflight;
                    g.shed = usage.shed_quota;
                }
            }
            for (id, fp) in self.inner.table.exports.client_footprints() {
                let g = per_client.entry(format!("{id}")).or_default();
                g.export_slots = fp.dirty as u64;
                g.dirty_entries = (fp.dirty + fp.floors) as u64;
            }
        }
        Metrics {
            space: self.id(),
            stats: self.stats(),
            app_calls,
            gc_calls,
            gauges,
            per_client,
        }
    }

    /// [`Space::metrics`] rendered in Prometheus text exposition format.
    pub fn metrics_text(&self) -> String {
        self.metrics().to_prometheus_text()
    }

    /// Records one application-call latency observation under `label`.
    pub(crate) fn record_app_call(&self, label: &str, d: Duration) {
        // Taken in two statements so the read guard is released before a
        // miss upgrades to the write lock.
        let hit = self.inner.app_hist.read().get(label).cloned();
        let hist = match hit {
            Some(h) => h,
            None => {
                let mut map = self.inner.app_hist.write();
                Arc::clone(map.entry(label.to_string()).or_default())
            }
        };
        hist.record(d);
    }

    /// Records one collector-RPC latency observation. `kind` indexes
    /// [`GC_KINDS`].
    pub(crate) fn record_gc_call(&self, kind: usize, d: Duration) {
        debug_assert!(kind < GC_KINDS.len());
        self.inner.gc_hist[kind].record(d);
    }

    /// Records one collector trace event.
    pub(crate) fn emit(&self, kind: TraceKind) {
        let ring = &self.inner.trace;
        ring.record(TraceEvent {
            seq: 0,
            at_micros: ring.now_micros(),
            kind,
        });
    }

    /// Number of concrete objects currently held in the object table,
    /// excluding built-ins at reserved indices (the GC service, agent and
    /// introspection objects live forever and would otherwise make every
    /// listening space report a nonzero count).
    pub fn exported_count(&self) -> usize {
        self.inner.table.exports.exported_count()
    }

    /// Number of import slots (surrogate life cycles) currently tracked.
    pub fn imported_count(&self) -> usize {
        self.inner.table.imports.len()
    }

    /// True after [`Space::shutdown`] or [`Space::crash`].
    pub fn is_stopped(&self) -> bool {
        self.inner.stopped.load(Ordering::Acquire)
    }

    pub(crate) fn from_inner(inner: Arc<SpaceInner>) -> Space {
        Space { inner }
    }

    // -- export / handles ----------------------------------------------------

    /// Exports `obj`, pinning it in the object table, and returns a local
    /// handle. Pinned exports survive empty dirty sets — use this for
    /// roots that will be registered with the agent or served forever.
    pub fn export(&self, obj: Arc<dyn NetObject>) -> NetResult<Handle> {
        self.ensure_running()?;
        let (ix, _, created) = self.inner.table.exports.export(&obj, true);
        if created {
            self.emit(TraceKind::ExportCreated {
                owner: self.id(),
                target: WireRep::new(self.id(), ix),
            });
        }
        Ok(Handle(HandleKind::Local {
            space: self.clone(),
            obj,
        }))
    }

    /// Wraps `obj` in a local handle without pinning it: the object enters
    /// the table only when first marshaled, and leaves it when no remote
    /// references remain.
    pub fn local(&self, obj: Arc<dyn NetObject>) -> Handle {
        Handle(HandleKind::Local {
            space: self.clone(),
            obj,
        })
    }

    /// Releases the pin of an explicit export; the entry is collected once
    /// no dirty or transient entries protect it.
    pub fn unexport(&self, handle: &Handle) -> NetResult<()> {
        let HandleKind::Local { obj, .. } = &handle.0 else {
            return Err(Error::app("unexport requires a local handle"));
        };
        let collected = self.inner.table.exports.unexport(obj);
        if let Some((ix, true)) = collected {
            self.inner
                .stats
                .exports_collected
                .fetch_add(1, Ordering::Relaxed);
            self.emit(TraceKind::ExportCollected {
                owner: self.id(),
                target: WireRep::new(self.id(), ix),
            });
        }
        Ok(())
    }

    /// Installs `obj` at a reserved index (used by the agent, index 1).
    pub fn export_builtin(&self, ix: ObjIx, obj: Arc<dyn NetObject>) -> NetResult<Handle> {
        self.ensure_running()?;
        self.inner.table.exports.export_at(ix, Arc::clone(&obj));
        Ok(Handle(HandleKind::Local {
            space: self.clone(),
            obj,
        }))
    }

    /// Bootstrap import: obtains a handle to the object exported at `ix`
    /// by whatever space listens at `ep` (used to reach an agent).
    pub fn import_root(&self, ep: &Endpoint, ix: ObjIx) -> NetResult<Handle> {
        self.ensure_running()?;
        let (owner_id, _owner_ep) = dgc::identify(self, ep)?;
        let wirerep = WireRep::new(owner_id, ix);
        if owner_id == self.id() {
            let got = self.inner.table.exports.get(ix);
            let (obj, _types) = got.ok_or(Error::NoSuchObject(wirerep))?;
            return Ok(Handle(HandleKind::Local {
                space: self.clone(),
                obj,
            }));
        }
        dgc::import_ref(self, wirerep, ep.clone(), TypeList::root_only(), None)
    }

    // -- marshal/unmarshal hooks ----------------------------------------------

    pub(crate) fn lookup_export(&self, obj: &Arc<dyn NetObject>) -> Option<WireRep> {
        self.inner
            .table
            .exports
            .lookup(obj)
            .map(|ix| WireRep::new(self.id(), ix))
    }

    pub(crate) fn prepare_send(&self, handle: &Handle) -> NetResult<SentRef> {
        self.inner.stats.refs_sent.fetch_add(1, Ordering::Relaxed);
        match &handle.0 {
            HandleKind::Local { space, obj } => {
                if !Arc::ptr_eq(&space.inner, &self.inner) {
                    return Err(Error::app("handle belongs to a different space"));
                }
                let owner_ep = self.endpoint().ok_or(Error::NotListening)?;
                let (ix, types, pin, created) = self.inner.table.exports.export_transient(obj);
                let target = WireRep::new(self.id(), ix);
                if created {
                    self.emit(TraceKind::ExportCreated {
                        owner: self.id(),
                        target,
                    });
                }
                self.emit(TraceKind::TransientPinned {
                    owner: self.id(),
                    target,
                    pin,
                });
                Ok(SentRef {
                    wirerep: WireRep::new(self.id(), ix),
                    owner_ep,
                    types,
                    pin: Some(TransientPin(PinKind::Owner {
                        space: self.clone(),
                        ix,
                        pin,
                    })),
                })
            }
            HandleKind::Remote(core) => Ok(SentRef {
                wirerep: core.wirerep,
                owner_ep: core.owner_ep.clone(),
                types: core.types.clone(),
                pin: Some(TransientPin(PinKind::Client(Arc::clone(core)))),
            }),
        }
    }

    pub(crate) fn receive_ref(
        &self,
        cx: &mut UnmarshalCx<'_, '_>,
        wirerep: WireRep,
        owner_ep: Endpoint,
        types: TypeList,
    ) -> NetResult<Handle> {
        self.inner
            .stats
            .refs_received
            .fetch_add(1, Ordering::Relaxed);
        if wirerep.space == self.id() {
            // "If a client transmits a network object back to its owner,
            // the object table causes the owner to access the concrete
            // object; no surrogate is created."
            let got = self.inner.table.exports.get(wirerep.ix);
            let (obj, _types) = got.ok_or(Error::NoSuchObject(wirerep))?;
            return Ok(Handle(HandleKind::Local {
                space: self.clone(),
                obj,
            }));
        }
        dgc::import_ref(self, wirerep, owner_ep, types, Some(cx))
    }

    pub(crate) fn release_transient(&self, ix: ObjIx, pin: u64) {
        let collected = self.inner.table.exports.remove_transient(ix, pin);
        let target = WireRep::new(self.id(), ix);
        self.emit(TraceKind::TransientReleased {
            owner: self.id(),
            target,
            pin,
        });
        if collected {
            self.inner
                .stats
                .exports_collected
                .fetch_add(1, Ordering::Relaxed);
            self.emit(TraceKind::ExportCollected {
                owner: self.id(),
                target,
            });
        }
    }

    pub(crate) fn notify_surrogate_unreachable(&self, wirerep: WireRep, epoch: u64) {
        if self.is_stopped() {
            return;
        }
        self.emit(TraceKind::SurrogateDropped {
            client: self.id(),
            target: wirerep,
            epoch,
        });
        let tx = self.inner.gc_tx.lock().clone();
        if let Some(tx) = tx {
            let _ = tx.send(GcJob::Unreachable { wirerep, epoch });
        }
    }

    pub(crate) fn next_gc_seqno(&self) -> u64 {
        self.inner.gc_seqno.fetch_add(1, Ordering::Relaxed)
    }

    // -- RPC plumbing -----------------------------------------------------------

    /// Returns a cached (or fresh) RPC client to `ep`.
    pub(crate) fn rpc_client(&self, ep: &Endpoint) -> NetResult<Arc<CallClient>> {
        self.ensure_running()?;
        let had_stale = {
            let clients = self.inner.clients.read();
            match clients.get(ep) {
                Some(c) if !c.is_closed() => return Ok(Arc::clone(c)),
                Some(_) => true,
                None => false,
            }
        };
        let conn = self.inner.registry.connect(ep)?;
        let fresh =
            CallClient::with_clock(Arc::from(conn), self.id(), self.inner.options.clock.clone());
        let mut clients = self.inner.clients.write();
        match clients.get(ep) {
            Some(c) if !c.is_closed() => Ok(Arc::clone(c)),
            _ => {
                if had_stale {
                    self.inner.stats.reconnects.fetch_add(1, Ordering::Relaxed);
                }
                clients.insert(ep.clone(), Arc::clone(&fresh));
                Ok(fresh)
            }
        }
    }

    /// Drops `client` from the connection cache (if it is still the cached
    /// entry) so the next call reconnects instead of reusing a broken
    /// connection.
    pub(crate) fn invalidate_client(&self, ep: &Endpoint, client: &Arc<CallClient>) {
        client.close();
        let mut clients = self.inner.clients.write();
        if let Some(c) = clients.get(ep) {
            if Arc::ptr_eq(c, client) {
                clients.remove(ep);
                self.inner.stats.reconnects.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The circuit breaker guarding calls to `ep`.
    pub(crate) fn breaker_for(&self, ep: &Endpoint) -> Arc<CircuitBreaker> {
        // Hot path: the breaker already exists; no clone of `ep`, no
        // exclusive lock.
        if let Some(b) = self.inner.breakers.read().get(ep) {
            return Arc::clone(b);
        }
        let mut breakers = self.inner.breakers.write();
        Arc::clone(breakers.entry(ep.clone()).or_insert_with(|| {
            Arc::new(CircuitBreaker::with_clock(
                self.inner.options.breaker.clone(),
                self.inner.options.clock.clone(),
            ))
        }))
    }

    /// Records that the owner space `id` is dead: every surrogate into it
    /// becomes *broken* and fails fast with [`Error::OwnerDead`].
    pub(crate) fn mark_owner_dead(&self, id: SpaceId) {
        if id == self.id() {
            return;
        }
        let inserted = {
            let mut dead = self.inner.dead_owners.lock();
            let inserted = dead.insert(id);
            self.inner
                .dead_owner_count
                .store(dead.len(), Ordering::Release);
            inserted
        };
        if inserted {
            self.emit(TraceKind::OwnerDead {
                client: self.id(),
                owner: id,
            });
        }
    }

    /// True if `id` has been declared dead.
    pub fn owner_is_dead(&self, id: SpaceId) -> bool {
        // No owner has ever died (the common case): skip the lock.
        self.inner.dead_owner_count.load(Ordering::Acquire) != 0
            && self.inner.dead_owners.lock().contains(&id)
    }

    /// Issues one logical call through the resilience machinery: breaker
    /// admission, classification-aware retries with backoff, connection
    /// invalidation, and broken-surrogate fail-fast.
    ///
    /// *Not-delivered* failures retry unconditionally (within the retry
    /// budget); *ambiguous* failures retry only when `idempotent`, and are
    /// otherwise surfaced after a transparent reconnect so the next call
    /// finds a live connection; *definite* failures are the result.
    pub(crate) fn resilient_call(
        &self,
        target: WireRep,
        ep: &Endpoint,
        method: u32,
        args: Bytes,
        timeout: Duration,
        idempotent: bool,
    ) -> NetResult<CallReply> {
        let mut meta = CallMeta::default();
        let now = self.inner.options.clock.now();
        self.resilient_call_traced(
            target, ep, method, args, timeout, idempotent, 0, 0, now, &mut meta,
        )
    }

    /// [`Space::resilient_call`] carrying a span header and reporting, via
    /// `meta`, how the call went — filled in on success *and* failure so
    /// the caller's span record is accurate either way.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn resilient_call_traced(
        &self,
        target: WireRep,
        ep: &Endpoint,
        method: u32,
        args: Bytes,
        timeout: Duration,
        idempotent: bool,
        trace_id: u64,
        span_id: u64,
        now: Instant,
        meta: &mut CallMeta,
    ) -> NetResult<CallReply> {
        let stats = &self.inner.stats;
        if self.owner_is_dead(target.space) {
            stats.calls_failed_fast.fetch_add(1, Ordering::Relaxed);
            meta.rejected = true;
            return Err(Error::OwnerDead(target.space));
        }
        let breaker = self.breaker_for(ep);
        meta.breaker_open = breaker.state() != BreakerState::Closed;
        let seed = self.inner.retry_seed.fetch_add(1, Ordering::Relaxed);
        let mut backoff = Backoff::new(self.inner.options.retry.clone(), seed);
        let clock = &self.inner.options.clock;
        // `now` is the caller's clock read from just before entry — the
        // zero-retry fast path spends no further clock reads here; retry
        // iterations refresh it below.
        let deadline = now + timeout;
        let mut now = now;
        loop {
            if breaker.admit() == Admission::Reject {
                stats.calls_failed_fast.fetch_add(1, Ordering::Relaxed);
                meta.rejected = true;
                return Err(Error::from(CircuitBreaker::rejection_error()));
            }
            let remaining = deadline.saturating_duration_since(now);
            if remaining.is_zero() {
                return Err(Error::Rpc(RpcError::Timeout));
            }
            // Connect failures never delivered anything: retryable.
            let client = match self.rpc_client(ep) {
                Ok(c) => c,
                Err(e) => {
                    if matches!(e, Error::SpaceStopped) {
                        return Err(e);
                    }
                    if breaker.on_failure() {
                        stats.breaker_opened.fetch_add(1, Ordering::Relaxed);
                    }
                    if !self.retry_pause(&mut backoff, deadline) {
                        return Err(e);
                    }
                    meta.retries += 1;
                    now = clock.now();
                    continue;
                }
            };
            let attempt_deadline = backoff.policy().attempt_deadline(remaining);
            let failure = match client.call_raw_traced(
                target,
                method,
                args.clone(),
                attempt_deadline,
                trace_id,
                span_id,
            ) {
                Ok(reply) => {
                    breaker.on_success();
                    return Ok(reply);
                }
                Err(f) => f,
            };
            if failure.counts_against_peer() {
                if breaker.on_failure() {
                    stats.breaker_opened.fetch_add(1, Ordering::Relaxed);
                }
            } else {
                // A definite remote error proves the peer alive.
                breaker.on_success();
            }
            let conn_broken = client.is_closed()
                || matches!(failure.error, RpcError::Transport(_) | RpcError::Closed);
            if conn_broken {
                self.invalidate_client(ep, &client);
            }
            match failure.class {
                FailureClass::Definite => return Err(Error::from(failure.error)),
                FailureClass::NotDelivered => {}
                FailureClass::Ambiguous => {
                    if !idempotent {
                        // The call's effect is unknown; a retry could
                        // execute it twice. Reconnect transparently (so
                        // later calls are not taxed by the broken
                        // connection) and surface the ambiguity.
                        if conn_broken {
                            let _ = self.rpc_client(ep);
                        }
                        return Err(Error::from(failure.error));
                    }
                }
            }
            if !self.retry_pause(&mut backoff, deadline) {
                return Err(Error::from(failure.error));
            }
            meta.retries += 1;
            now = clock.now();
        }
    }

    /// Sleeps out the next backoff delay if another attempt is allowed and
    /// budget remains; returns false when the caller should give up.
    fn retry_pause(&self, backoff: &mut Backoff, deadline: Instant) -> bool {
        if !backoff.attempts_remain() {
            return false;
        }
        let clock = &self.inner.options.clock;
        let remaining = deadline.saturating_duration_since(clock.now());
        if remaining.is_zero() {
            return false;
        }
        let delay = backoff.next_delay().min(remaining);
        clock.sleep(delay);
        self.inner
            .stats
            .retries_attempted
            .fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Issues one application-level remote call, recording a client span
    /// and a latency observation under `label` (empty → `m<method>`).
    ///
    /// The span continues whatever trace is ambient on this thread (set by
    /// the server dispatcher while a request is being served), so fan-out
    /// calls made from inside a dispatched method share the root caller's
    /// trace id; otherwise a fresh trace id is allocated here.
    pub(crate) fn remote_call(
        &self,
        core: &SurrogateCore,
        method: u32,
        args: impl Into<Bytes>,
        idempotent: bool,
        label: &str,
    ) -> NetResult<CallReply> {
        self.inner.stats.calls_sent.fetch_add(1, Ordering::Relaxed);
        let scope = span::current_scope();
        let trace_id = if scope.trace_id != 0 {
            scope.trace_id
        } else {
            self.inner.ids.next_id()
        };
        let span_id = self.inner.ids.next_id();
        let clock = &self.inner.options.clock;
        let args = args.into();
        let marshal_bytes = args.len() as u64;
        let start = clock.now();
        let start_micros = self.inner.spans.micros_at(start);
        let mut meta = CallMeta::default();
        let result = self.resilient_call_traced(
            core.wirerep,
            &core.owner_ep,
            method,
            args,
            self.inner.options.call_timeout,
            idempotent,
            trace_id,
            span_id,
            start,
            &mut meta,
        );
        let duration = clock.now().saturating_duration_since(start);
        let outcome = match &result {
            Ok(_) => SpanOutcome::Ok,
            Err(Error::App(_)) => SpanOutcome::AppError,
            Err(_) if meta.rejected => SpanOutcome::Rejected,
            Err(_) => SpanOutcome::Failed,
        };
        let label = if label.is_empty() {
            format!("m{method}")
        } else {
            label.to_string()
        };
        self.record_app_call(&label, duration);
        self.inner.spans.record(SpanRecord {
            seq: 0,
            trace_id,
            span_id,
            parent_span: scope.span_id,
            kind: SpanKind::Client,
            space: self.id(),
            peer: core.wirerep.space,
            target: core.wirerep,
            method,
            label,
            start_micros,
            duration_micros: duration.as_micros() as u64,
            queue_wait_micros: 0,
            service_micros: 0,
            marshal_bytes,
            unmarshal_bytes: result.as_ref().map(|r| r.bytes.len() as u64).unwrap_or(0),
            retries: meta.retries,
            breaker_open: meta.breaker_open,
            outcome,
        });
        result
    }

    pub(crate) fn ensure_running(&self) -> NetResult<()> {
        if self.is_stopped() {
            Err(Error::SpaceStopped)
        } else {
            Ok(())
        }
    }

    // -- lifecycle -------------------------------------------------------------

    /// Gracefully stops the space: the server stops accepting, demons
    /// exit, cached connections close. Outstanding handles in other spaces
    /// are *not* cleaned; peers discover the death by ping/lease, exactly
    /// as for a process exit.
    pub fn shutdown(&self) {
        if self.inner.stopped.swap(true, Ordering::AcqRel) {
            return;
        }
        *self.inner.gc_tx.lock() = None;
        if let Some(mut server) = self.inner.server.lock().take() {
            server.stop();
        }
        for (_, c) in self.inner.clients.write().drain() {
            c.close();
        }
        if let Some(h) = self.inner.demon.lock().take() {
            let _ = h.join();
        }
        if let Some(h) = self.inner.pinger.lock().take() {
            let _ = h.join();
        }
    }

    /// Abrupt termination for fault experiments: identical to
    /// [`Space::shutdown`] (a crashed process sends no goodbyes either),
    /// provided separately so call sites document intent.
    pub fn crash(&self) {
        if !self.is_stopped() {
            self.emit(TraceKind::SpaceCrashed { space: self.id() });
        }
        self.shutdown();
    }
}

impl Drop for SpaceInner {
    fn drop(&mut self) {
        // Demons hold only Weak references and their channel sender lives
        // in `gc_tx`, so dropping the inner naturally stops them; join
        // handles are detached here (threads exit on channel disconnect).
        self.stopped.store(true, Ordering::Release);
        *self.gc_tx.lock() = None;
        if let Some(mut server) = self.server.lock().take() {
            server.stop();
        }
        for (_, c) in self.clients.write().drain() {
            c.close();
        }
    }
}

/// What `prepare_send` produced for one transmitted reference.
pub(crate) struct SentRef {
    pub wirerep: WireRep,
    pub owner_ep: Endpoint,
    pub types: TypeList,
    pub pin: Option<TransientPin>,
}

/// How one resilient call went, for the caller's span record.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CallMeta {
    /// Retry attempts beyond the first.
    pub(crate) retries: u32,
    /// The peer's breaker was not closed when the call was issued.
    pub(crate) breaker_open: bool,
    /// The call was refused without touching the network.
    pub(crate) rejected: bool,
}

/// Routes incoming RPC requests into the space.
struct SpaceDispatcher(Weak<SpaceInner>);

impl Dispatcher for SpaceDispatcher {
    fn dispatch(&self, caller: SpaceId, target: WireRep, method: u32, args: &[u8]) -> Dispatch {
        self.dispatch_cx(DispatchCx::default(), caller, target, method, args)
    }

    fn dispatch_cx(
        &self,
        cx: DispatchCx,
        caller: SpaceId,
        target: WireRep,
        method: u32,
        args: &[u8],
    ) -> Dispatch {
        let Some(inner) = self.0.upgrade() else {
            return Dispatch::plain(Err(to_remote_error(&Error::SpaceStopped)));
        };
        let space = Space::from_inner(inner);
        let stats = &space.inner.stats;

        // The collector service answers at index 0 under *any* space id:
        // bootstrap callers do not yet know this space's identity.
        if target.ix == ObjIx::GC_SERVICE {
            stats.calls_served.fetch_add(1, Ordering::Relaxed);
            return Dispatch::plain(
                dgc::dispatch_gc(&space, caller, method, args).map_err(|e| to_remote_error(&e)),
            );
        }
        if target.space != space.id() {
            stats.calls_rejected.fetch_add(1, Ordering::Relaxed);
            return Dispatch::plain(Err(to_remote_error(&Error::NoSuchObject(target))));
        }
        let got = space.inner.table.exports.get(target.ix);
        let Some((obj, _types)) = got else {
            stats.calls_rejected.fetch_add(1, Ordering::Relaxed);
            return Dispatch::plain(Err(to_remote_error(&Error::NoSuchObject(target))));
        };
        // An object will actually run: this is a served call. Counting
        // here (not at entry) keeps `calls_served` honest — refused
        // requests land in `calls_rejected` above instead.
        stats.calls_served.fetch_add(1, Ordering::Relaxed);

        // Continue the caller's trace, or root a fresh one for requests
        // from untraced callers (ids 0). The scope guard
        // makes the ids ambient on this worker thread, so any remote call
        // the method body issues becomes a child span of this one.
        let trace_id = if cx.trace_id != 0 {
            cx.trace_id
        } else {
            space.inner.ids.next_id()
        };
        let server_span = space.inner.ids.next_id();
        let _scope = span::enter_scope(TraceScope {
            trace_id,
            span_id: server_span,
        });
        let clock = &space.inner.options.clock;
        let queue_wait_micros = cx.queue_wait.as_micros() as u64;
        let start_micros = space
            .inner
            .spans
            .now_micros()
            .saturating_sub(queue_wait_micros);
        let svc_start = clock.now();
        let outcome = obj.dispatch(&space, method, args);
        let service = clock.now().saturating_duration_since(svc_start);
        space.inner.spans.record(SpanRecord {
            seq: 0,
            trace_id,
            span_id: server_span,
            parent_span: cx.span_id,
            kind: SpanKind::Server,
            space: space.id(),
            peer: caller,
            target,
            method,
            label: String::new(),
            start_micros,
            duration_micros: queue_wait_micros + service.as_micros() as u64,
            queue_wait_micros,
            service_micros: service.as_micros() as u64,
            marshal_bytes: args.len() as u64,
            unmarshal_bytes: outcome.as_ref().map(|r| r.bytes.len() as u64).unwrap_or(0),
            retries: 0,
            breaker_open: false,
            outcome: match &outcome {
                Ok(_) => SpanOutcome::Ok,
                Err(_) => SpanOutcome::AppError,
            },
        });
        // Static labels for the common low method numbers keep the
        // per-dispatch histogram lookup allocation-free.
        const SERVE_LABELS: [&str; 16] = [
            "serve/m0",
            "serve/m1",
            "serve/m2",
            "serve/m3",
            "serve/m4",
            "serve/m5",
            "serve/m6",
            "serve/m7",
            "serve/m8",
            "serve/m9",
            "serve/m10",
            "serve/m11",
            "serve/m12",
            "serve/m13",
            "serve/m14",
            "serve/m15",
        ];
        match SERVE_LABELS.get(method as usize) {
            Some(label) => space.record_app_call(label, service),
            None => space.record_app_call(&format!("serve/m{method}"), service),
        }
        match outcome {
            Ok(result) => {
                let completion: Option<Box<dyn FnOnce() + Send>> = if result.pins.is_empty() {
                    None
                } else {
                    let pins = result.pins;
                    Some(Box::new(move || drop(pins)))
                };
                Dispatch {
                    outcome: Ok(result.bytes),
                    completion,
                }
            }
            Err(e) => Dispatch::plain(Err(to_remote_error(&e))),
        }
    }
}
