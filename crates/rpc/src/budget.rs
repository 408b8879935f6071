//! Per-client resource budgets and fair admission control.
//!
//! The original runtime assumed cooperating address spaces: one global
//! queue limit protected the server as a whole, but nothing stopped a
//! single chatty peer from filling that queue and starving everyone else.
//! This module hardens the serving side against such peers:
//!
//! - [`ResourceBudget`] is the per-client limit set (queue share,
//!   in-flight calls, connections, and — enforced by the collector layer
//!   above — dirty entries and export slots). Over-budget requests are
//!   rejected with the non-retryable `QuotaExceeded` remote error.
//! - [`FairPool`] replaces the single global job queue with one queue per
//!   client and a deficit-style (round-robin over equal-cost jobs) pick
//!   order, so service capacity is divided fairly among active clients.
//!   When the aggregate queue is full, the *largest* backlog sheds first:
//!   a newcomer below its fair share displaces the newest job of the
//!   biggest hog instead of being rejected itself.
//!
//! Identity is the `caller` space id each request carries. A client can
//! of course mint fresh ids to dodge its budget; the budget defends
//! capacity against *greedy* peers and bounds the damage of buggy ones —
//! Sybil resistance needs authentication below this layer (see
//! DESIGN.md, "Threat model & admission control").

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use netobj_wire::SpaceId;
use parking_lot::{Condvar, Mutex};

/// A job runnable on a pool worker.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Per-client resource limits enforced by a serving space at every
/// untrusted entry point. `None` disables the corresponding limit.
///
/// The queue/in-flight/connection limits are enforced here in the RPC
/// server; the export-slot and dirty-entry limits are enforced by the
/// collector entry points in `netobj-core`, which carries this struct in
/// its `Options`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceBudget {
    /// Maximum distinct exported objects one client may hold dirty
    /// registrations on (export slots kept alive by that client).
    pub max_export_slots: Option<usize>,
    /// Maximum collector bookkeeping entries — dirty registrations plus
    /// retained sequence-number floors — one client may occupy. Bounds
    /// the memory a peer can pin with dirty/clean churn across many
    /// objects; must be at least `max_export_slots` to be meaningful.
    pub max_dirty_entries: Option<usize>,
    /// Maximum requests from one client admitted at once (queued plus
    /// executing).
    pub max_inflight: Option<usize>,
    /// Maximum requests from one client waiting in the server queue.
    pub max_queue_share: Option<usize>,
    /// Maximum concurrent connections attributed to one client. A
    /// connection is attributed when its first request is decoded (the
    /// transport accept path does not know the peer's identity yet).
    pub max_connections: Option<usize>,
}

impl Default for ResourceBudget {
    fn default() -> Self {
        ResourceBudget::unlimited()
    }
}

impl ResourceBudget {
    /// No per-client limits (the pre-hardening behaviour); the global
    /// queue limit and fair pick order still apply.
    pub fn unlimited() -> ResourceBudget {
        ResourceBudget {
            max_export_slots: None,
            max_dirty_entries: None,
            max_inflight: None,
            max_queue_share: None,
            max_connections: None,
        }
    }

    /// Finite limits sized for a public-facing space: generous for honest
    /// clients, tight enough that one abusive peer cannot exhaust the
    /// server.
    pub fn standard() -> ResourceBudget {
        ResourceBudget {
            max_export_slots: Some(4096),
            max_dirty_entries: Some(8192),
            max_inflight: Some(256),
            max_queue_share: Some(128),
            max_connections: Some(32),
        }
    }

    /// True if every limit is disabled.
    pub fn is_unlimited(&self) -> bool {
        *self == ResourceBudget::unlimited()
    }
}

/// The outcome of offering a job to a [`FairPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FairAdmit {
    /// The job was queued (possibly after displacing a hog's newest job).
    Queued,
    /// The aggregate queue is full and the client is at or above its fair
    /// share; the job was rejected without running. Retryable.
    Saturated,
    /// The client exceeded its own budget (queue share or in-flight
    /// limit); the job was rejected without running. Not retryable until
    /// the client drains its backlog.
    OverQuota,
    /// The pool has shut down; the job was rejected without running.
    ShutDown,
}

/// A point-in-time snapshot of one client's resource usage, for quota
/// gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientUsage {
    /// Requests waiting in this client's queue.
    pub queued: u64,
    /// Requests admitted and not yet completed (queued plus executing).
    pub inflight: u64,
    /// Connections attributed to this client.
    pub connections: u64,
    /// Requests shed because this client exceeded its own budget.
    pub shed_quota: u64,
}

/// One admitted job plus the rejection path to run if it is displaced by
/// fair shedding before a worker picks it up.
struct FairEntry {
    run: Job,
    shed: Job,
}

#[derive(Default)]
struct ClientQueue {
    jobs: VecDeque<FairEntry>,
    active: usize,
    connections: usize,
    shed_quota: u64,
}

impl ClientQueue {
    fn idle(&self) -> bool {
        self.jobs.is_empty() && self.active == 0 && self.connections == 0
    }
}

struct FairState {
    // Keyed by an attacker-chosen id: std's SipHash map on purpose, NOT
    // the FibHasher kept for process-allocated keys (see lib.rs).
    clients: HashMap<SpaceId, ClientQueue>,
    /// Round-robin ring of clients with at least one queued job; each such
    /// client appears exactly once.
    ring: VecDeque<SpaceId>,
    total_queued: usize,
    shutdown: bool,
}

/// Shared pool internals: worker threads hold this (not the pool itself,
/// which would cycle the refcount and leak the workers).
struct FairInner {
    state: Mutex<FairState>,
    cv: Condvar,
    capacity: usize,
    budget: ResourceBudget,
    high_water: AtomicUsize,
    evicted: AtomicU64,
    shed_quota_total: AtomicU64,
}

/// A worker pool with one queue per client and a fair pick order: the
/// workspace's only worker pool, and the server's request path.
/// `queued()` is exact (counted under the queue lock), and the high-water
/// mark records the deepest backlog ever reached.
pub struct FairPool {
    inner: std::sync::Arc<FairInner>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl FairPool {
    /// Spawns a pool with `workers` threads (at least one). `capacity`
    /// bounds the *aggregate* queue; `None` means unbounded. `budget`
    /// supplies the per-client limits.
    pub fn new(
        workers: usize,
        name: &str,
        capacity: Option<usize>,
        budget: ResourceBudget,
    ) -> std::sync::Arc<FairPool> {
        let inner = std::sync::Arc::new(FairInner {
            state: Mutex::new(FairState {
                clients: HashMap::new(),
                ring: VecDeque::new(),
                total_queued: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            capacity: capacity.map_or(usize::MAX, |c| c.max(1)),
            budget,
            high_water: AtomicUsize::new(0),
            evicted: AtomicU64::new(0),
            shed_quota_total: AtomicU64::new(0),
        });
        let workers = workers.max(1);
        let handles = (0..workers)
            .map(|i| {
                let inner = std::sync::Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || inner.worker_loop())
                    .expect("spawn pool worker")
            })
            .collect();
        std::sync::Arc::new(FairPool {
            inner,
            handles: Mutex::new(handles),
        })
    }
}

impl FairInner {
    fn worker_loop(&self) {
        loop {
            let (client, entry) = {
                let mut st = self.state.lock();
                loop {
                    if let Some(client) = st.ring.pop_front() {
                        let q = st.clients.get_mut(&client).expect("ring client exists");
                        let entry = q.jobs.pop_front().expect("ring client has a job");
                        q.active += 1;
                        let requeue = !q.jobs.is_empty();
                        st.total_queued -= 1;
                        if requeue {
                            st.ring.push_back(client);
                        }
                        break (client, entry);
                    }
                    if st.shutdown {
                        return;
                    }
                    self.cv.wait(&mut st);
                }
            };
            (entry.run)();
            let mut st = self.state.lock();
            if let Some(q) = st.clients.get_mut(&client) {
                q.active -= 1;
                if q.idle() {
                    st.clients.remove(&client);
                }
            }
        }
    }

    /// Offers `run` on behalf of `client`. On [`FairAdmit::Queued`] the
    /// job will execute (or, if later displaced by fair shedding, its
    /// `shed` closure runs instead — exactly one of the two is called).
    /// On any rejection neither closure is called.
    pub fn try_execute(&self, client: SpaceId, run: Job, shed: Job) -> FairAdmit {
        let displaced = {
            let mut st = self.state.lock();
            if st.shutdown {
                return FairAdmit::ShutDown;
            }
            // Only admission creates a client record: rejected offers from
            // never-seen ids must not grow the map, or the quota table
            // itself becomes a memory-exhaustion target.
            let (queued_here, active_here) = st
                .clients
                .get(&client)
                .map_or((0, 0), |q| (q.jobs.len(), q.active));
            let over_quota = self
                .budget
                .max_inflight
                .is_some_and(|cap| queued_here + active_here >= cap)
                || self
                    .budget
                    .max_queue_share
                    .is_some_and(|cap| queued_here >= cap);
            if over_quota {
                self.shed_quota_total.fetch_add(1, Ordering::Relaxed);
                if let Some(q) = st.clients.get_mut(&client) {
                    q.shed_quota += 1;
                }
                return FairAdmit::OverQuota;
            }
            let mut displaced = None;
            if st.total_queued >= self.capacity {
                // Aggregate queue full: shed the largest backlog, not the
                // newcomer — unless the newcomer *is* (one of) the
                // largest, in which case it sheds itself.
                let hog = st
                    .clients
                    .iter()
                    .filter(|(_, cq)| !cq.jobs.is_empty())
                    .max_by_key(|(_, cq)| cq.jobs.len())
                    .map(|(id, cq)| (*id, cq.jobs.len()));
                match hog {
                    Some((hog_id, hog_len)) if hog_len > queued_here => {
                        let hq = st.clients.get_mut(&hog_id).expect("hog exists");
                        let entry = hq.jobs.pop_back().expect("hog has a job");
                        st.total_queued -= 1;
                        if st.clients.get(&hog_id).is_some_and(|cq| cq.jobs.is_empty()) {
                            st.ring.retain(|id| *id != hog_id);
                        }
                        self.evicted.fetch_add(1, Ordering::Relaxed);
                        displaced = Some(entry);
                    }
                    _ => return FairAdmit::Saturated,
                }
            }
            let q = st.clients.entry(client).or_default();
            let was_empty = q.jobs.is_empty();
            q.jobs.push_back(FairEntry { run, shed });
            if was_empty {
                st.ring.push_back(client);
            }
            st.total_queued += 1;
            self.high_water
                .fetch_max(st.total_queued, Ordering::Relaxed);
            self.cv.notify_one();
            displaced
        };
        if let Some(entry) = displaced {
            (entry.shed)();
        }
        FairAdmit::Queued
    }

    /// Attributes a connection to `client`; false if the client is at its
    /// connection limit (the connection should then be refused).
    pub fn register_conn(&self, client: SpaceId) -> bool {
        let mut st = self.state.lock();
        if st.shutdown {
            return false;
        }
        let held = st.clients.get(&client).map_or(0, |q| q.connections);
        if self.budget.max_connections.is_some_and(|cap| held >= cap) {
            self.shed_quota_total.fetch_add(1, Ordering::Relaxed);
            if let Some(q) = st.clients.get_mut(&client) {
                q.shed_quota += 1;
            }
            return false;
        }
        st.clients.entry(client).or_default().connections += 1;
        true
    }

    /// Releases a connection previously attributed with
    /// [`FairPool::register_conn`].
    pub fn unregister_conn(&self, client: SpaceId) {
        let mut st = self.state.lock();
        if let Some(q) = st.clients.get_mut(&client) {
            q.connections = q.connections.saturating_sub(1);
            if q.idle() {
                st.clients.remove(&client);
            }
        }
    }

    /// Exact number of jobs waiting in queues (counted under the lock).
    pub fn queued(&self) -> usize {
        self.state.lock().total_queued
    }

    /// Number of jobs currently executing.
    pub fn active(&self) -> usize {
        self.state.lock().clients.values().map(|q| q.active).sum()
    }

    /// Deepest aggregate backlog ever reached (monotonic).
    pub fn queue_high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Jobs displaced from the queue by fair shedding (monotonic).
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Total offers rejected for exceeding a per-client budget, across
    /// all clients including ones whose records have since been dropped
    /// (monotonic).
    pub fn shed_quota_total(&self) -> u64 {
        self.shed_quota_total.load(Ordering::Relaxed)
    }

    /// The budget this pool enforces.
    pub fn budget(&self) -> &ResourceBudget {
        &self.budget
    }

    /// Snapshot of per-client usage, sorted by client id so downstream
    /// renderings are deterministic. Idle clients (no queue, no work, no
    /// connections) are dropped eagerly and will not appear.
    pub fn per_client(&self) -> Vec<(SpaceId, ClientUsage)> {
        let st = self.state.lock();
        let mut out: Vec<(SpaceId, ClientUsage)> = st
            .clients
            .iter()
            .map(|(id, q)| {
                (
                    *id,
                    ClientUsage {
                        queued: q.jobs.len() as u64,
                        inflight: (q.jobs.len() + q.active) as u64,
                        connections: q.connections as u64,
                        shed_quota: q.shed_quota,
                    },
                )
            })
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    fn request_shutdown(&self) {
        let mut st = self.state.lock();
        st.shutdown = true;
        self.cv.notify_all();
    }
}

impl FairPool {
    /// Offers `run` on behalf of `client`. On [`FairAdmit::Queued`] the
    /// job will execute (or, if later displaced by fair shedding, its
    /// `shed` closure runs instead — exactly one of the two is called).
    /// On any rejection neither closure is called.
    pub fn try_execute(&self, client: SpaceId, run: Job, shed: Job) -> FairAdmit {
        self.inner.try_execute(client, run, shed)
    }

    /// Attributes a connection to `client`; false if the client is at its
    /// connection limit (the connection should then be refused).
    pub fn register_conn(&self, client: SpaceId) -> bool {
        self.inner.register_conn(client)
    }

    /// Releases a connection previously attributed with
    /// [`FairPool::register_conn`].
    pub fn unregister_conn(&self, client: SpaceId) {
        self.inner.unregister_conn(client)
    }

    /// Exact number of jobs waiting in queues (counted under the lock).
    pub fn queued(&self) -> usize {
        self.inner.queued()
    }

    /// Number of jobs currently executing.
    pub fn active(&self) -> usize {
        self.inner.active()
    }

    /// Deepest aggregate backlog ever reached (monotonic).
    pub fn queue_high_water(&self) -> usize {
        self.inner.queue_high_water()
    }

    /// Jobs displaced from the queue by fair shedding (monotonic).
    pub fn evicted(&self) -> u64 {
        self.inner.evicted()
    }

    /// Total offers rejected for exceeding a per-client budget, across
    /// all clients including ones whose records have since been dropped
    /// (monotonic).
    pub fn shed_quota_total(&self) -> u64 {
        self.inner.shed_quota_total()
    }

    /// The budget this pool enforces.
    pub fn budget(&self) -> &ResourceBudget {
        self.inner.budget()
    }

    /// Snapshot of per-client usage, sorted by client id so downstream
    /// renderings are deterministic. Idle clients (no queue, no work, no
    /// connections) are dropped eagerly and will not appear.
    pub fn per_client(&self) -> Vec<(SpaceId, ClientUsage)> {
        self.inner.per_client()
    }

    /// Stops accepting jobs, finishes queued ones, joins the workers.
    pub fn shutdown(&self) {
        self.inner.request_shutdown();
        let mut handles = self.handles.lock();
        for h in handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for FairPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::time::Duration;

    fn id(n: u128) -> SpaceId {
        SpaceId::from_raw(n)
    }

    fn nop() -> Job {
        Box::new(|| {})
    }

    #[test]
    fn runs_jobs_from_many_clients() {
        let pool = FairPool::new(4, "t", None, ResourceBudget::unlimited());
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..10 {
            for _ in 0..10 {
                let c = Arc::clone(&counter);
                let admit = pool.try_execute(
                    id(i),
                    Box::new(move || {
                        c.fetch_add(1, Ordering::Relaxed);
                    }),
                    nop(),
                );
                assert_eq!(admit, FairAdmit::Queued);
            }
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn per_client_queue_share_is_enforced() {
        let budget = ResourceBudget {
            max_queue_share: Some(2),
            ..ResourceBudget::unlimited()
        };
        let pool = FairPool::new(1, "t", None, budget);
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g = Arc::clone(&gate);
        // Occupy the single worker so later offers stay queued.
        pool.try_execute(
            id(1),
            Box::new(move || {
                g.wait();
            }),
            nop(),
        );
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(pool.try_execute(id(1), nop(), nop()), FairAdmit::Queued);
        assert_eq!(pool.try_execute(id(1), nop(), nop()), FairAdmit::Queued);
        // Third queued job for the same client is over its share...
        assert_eq!(pool.try_execute(id(1), nop(), nop()), FairAdmit::OverQuota);
        // ...but another client is unaffected.
        assert_eq!(pool.try_execute(id(2), nop(), nop()), FairAdmit::Queued);
        let usage = pool.per_client();
        let u1 = usage.iter().find(|(i, _)| *i == id(1)).unwrap().1;
        assert_eq!(u1.shed_quota, 1);
        gate.wait();
    }

    #[test]
    fn inflight_cap_counts_executing_jobs() {
        let budget = ResourceBudget {
            max_inflight: Some(1),
            ..ResourceBudget::unlimited()
        };
        let pool = FairPool::new(2, "t", None, budget);
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g = Arc::clone(&gate);
        pool.try_execute(
            id(1),
            Box::new(move || {
                g.wait();
            }),
            nop(),
        );
        std::thread::sleep(Duration::from_millis(30));
        // Nothing queued, but one job executing: the cap covers both.
        assert_eq!(pool.queued(), 0);
        assert_eq!(pool.try_execute(id(1), nop(), nop()), FairAdmit::OverQuota);
        gate.wait();
    }

    #[test]
    fn full_queue_sheds_the_largest_backlog_first() {
        let pool = FairPool::new(1, "t", Some(3), ResourceBudget::unlimited());
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g = Arc::clone(&gate);
        pool.try_execute(
            id(1),
            Box::new(move || {
                g.wait();
            }),
            nop(),
        );
        std::thread::sleep(Duration::from_millis(30));
        // The hog fills the whole queue.
        let hog_shed = Arc::new(AtomicU64::new(0));
        for _ in 0..3 {
            let s = Arc::clone(&hog_shed);
            assert_eq!(
                pool.try_execute(
                    id(1),
                    nop(),
                    Box::new(move || {
                        s.fetch_add(1, Ordering::Relaxed);
                    })
                ),
                FairAdmit::Queued
            );
        }
        // The hog itself is saturated now...
        assert_eq!(pool.try_execute(id(1), nop(), nop()), FairAdmit::Saturated);
        // ...but a newcomer displaces the hog's newest job instead of
        // being rejected: the chatty peer sheds itself.
        assert_eq!(pool.try_execute(id(2), nop(), nop()), FairAdmit::Queued);
        assert_eq!(hog_shed.load(Ordering::Relaxed), 1);
        assert_eq!(pool.evicted(), 1);
        assert_eq!(pool.queued(), 3);
        gate.wait();
    }

    #[test]
    fn pick_order_interleaves_clients() {
        // One worker, gated: queue jobs from a hog and a small client,
        // then check the small client's single job does not wait behind
        // the hog's whole backlog.
        let pool = FairPool::new(1, "t", None, ResourceBudget::unlimited());
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g = Arc::clone(&gate);
        pool.try_execute(
            id(9),
            Box::new(move || {
                g.wait();
            }),
            nop(),
        );
        std::thread::sleep(Duration::from_millis(30));
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..4 {
            let o = Arc::clone(&order);
            pool.try_execute(
                id(1),
                Box::new(move || {
                    o.lock().push(format!("hog{i}"));
                }),
                nop(),
            );
        }
        let o = Arc::clone(&order);
        pool.try_execute(
            id(2),
            Box::new(move || {
                o.lock().push("small".to_owned());
            }),
            nop(),
        );
        gate.wait();
        pool.shutdown();
        let order = order.lock();
        let small_pos = order.iter().position(|s| s == "small").unwrap();
        // Round-robin: the small client runs second, not fifth.
        assert!(
            small_pos <= 1,
            "fair pick order should interleave: {order:?}"
        );
    }

    #[test]
    fn connection_limit_is_enforced_and_released() {
        let budget = ResourceBudget {
            max_connections: Some(2),
            ..ResourceBudget::unlimited()
        };
        let pool = FairPool::new(1, "t", None, budget);
        assert!(pool.register_conn(id(1)));
        assert!(pool.register_conn(id(1)));
        assert!(!pool.register_conn(id(1)));
        assert!(pool.register_conn(id(2)));
        pool.unregister_conn(id(1));
        assert!(pool.register_conn(id(1)));
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let pool = FairPool::new(2, "t", None, ResourceBudget::unlimited());
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..50 {
            let c = Arc::clone(&counter);
            pool.try_execute(
                id(i % 5),
                Box::new(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                }),
                nop(),
            );
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 50);
        assert_eq!(pool.try_execute(id(0), nop(), nop()), FairAdmit::ShutDown);
    }

    #[test]
    fn high_water_mark_is_monotonic_and_exact_depth_reported() {
        let pool = FairPool::new(1, "t", None, ResourceBudget::unlimited());
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g = Arc::clone(&gate);
        pool.try_execute(
            id(1),
            Box::new(move || {
                g.wait();
            }),
            nop(),
        );
        std::thread::sleep(Duration::from_millis(30));
        for _ in 0..4 {
            pool.try_execute(id(1), nop(), nop());
        }
        assert_eq!(pool.queued(), 4);
        assert_eq!(pool.queue_high_water(), 4);
        gate.wait();
        pool.shutdown();
        assert_eq!(pool.queued(), 0);
        assert_eq!(pool.queue_high_water(), 4);
    }
}
