//! The simulated network transport.
//!
//! This is the repository's substitute for the paper's machine-room
//! testbed: an in-process network whose links have configurable one-way
//! latency, jitter, probabilistic loss, duplication and reordering, plus a
//! partition switch per listener. Experiments dial these knobs instead of
//! racking hardware; fault-tolerance tests use loss/partition to exercise
//! the collector's recovery paths.
//!
//! Frames that incur delay pass through a single scheduler thread that
//! holds a time-ordered heap; instantaneous fault-free links bypass the
//! scheduler entirely so that zero-latency benchmarks measure the protocol,
//! not the simulator.

use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::chan::{ChanConn, ChanListener, CloseFlag, Mailbox, Route};
use crate::clock::ClockHandle;
use crate::endpoint::Endpoint;
use crate::error::TransportError;
use crate::{Conn, Listener, Result, Transport};

/// Behaviour of every link in a simulated network.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkConfig {
    /// Base one-way latency applied to every frame.
    pub latency: Duration,
    /// Additional uniform random latency in `[0, jitter)`.
    pub jitter: Duration,
    /// Probability that a frame is silently dropped.
    pub loss: f64,
    /// Probability that a frame is delivered twice.
    pub duplicate: f64,
    /// Probability that a frame receives `reorder_extra` additional delay,
    /// letting later frames overtake it (models non-FIFO channels).
    pub reorder: f64,
    /// Maximum extra delay applied to reordered frames.
    pub reorder_extra: Duration,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig::instant()
    }
}

impl LinkConfig {
    /// A perfect, instantaneous link (the fast path: no scheduler).
    pub const fn instant() -> LinkConfig {
        LinkConfig {
            latency: Duration::ZERO,
            jitter: Duration::ZERO,
            loss: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_extra: Duration::ZERO,
        }
    }

    /// A clean link with fixed one-way latency.
    pub const fn with_latency(latency: Duration) -> LinkConfig {
        LinkConfig {
            latency,
            jitter: Duration::ZERO,
            loss: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_extra: Duration::ZERO,
        }
    }

    /// True if frames can skip the scheduler thread.
    fn is_instant(&self) -> bool {
        self.latency.is_zero()
            && self.jitter.is_zero()
            && self.loss == 0.0
            && self.duplicate == 0.0
            && self.reorder == 0.0
    }
}

/// A seeded, per-link flake plan: bursty frame loss driven by a private
/// RNG so one link's weather is independent of (and reproducible
/// regardless of) traffic on other links.
///
/// Each frame routed over the link draws from the link's own generator:
/// with probability `loss` it starts a *burst* in which that frame and the
/// following `burst_len - 1` frames are dropped. `burst_len == 1` gives
/// plain independent loss.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlakePlan {
    /// Probability that a frame starts a loss burst.
    pub loss: f64,
    /// Frames dropped per burst (≥ 1).
    pub burst_len: u32,
}

impl FlakePlan {
    /// Independent per-frame loss.
    pub const fn uniform(loss: f64) -> FlakePlan {
        FlakePlan { loss, burst_len: 1 }
    }
}

struct LinkFlake {
    plan: FlakePlan,
    rng: SmallRng,
    /// Frames still to drop in the current burst.
    burst_remaining: u32,
}

impl LinkFlake {
    /// True if this frame should be dropped.
    fn drops(&mut self) -> bool {
        if self.burst_remaining > 0 {
            self.burst_remaining -= 1;
            return true;
        }
        if self.plan.loss > 0.0 && self.rng.gen_bool(self.plan.loss.clamp(0.0, 1.0)) {
            self.burst_remaining = self.plan.burst_len.saturating_sub(1);
            return true;
        }
        false
    }
}

/// Counters describing what the simulated network did to traffic.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    /// Frames handed to `send`.
    pub sent: u64,
    /// Frames delivered to a receiver inbox (duplicates count twice).
    pub delivered: u64,
    /// Frames dropped by the loss knob.
    pub dropped_loss: u64,
    /// Frames dropped because the destination was partitioned.
    pub dropped_partition: u64,
    /// Extra deliveries caused by the duplication knob.
    pub duplicated: u64,
}

struct Scheduled {
    due: Instant,
    seq: u64,
    dest: Mailbox<Bytes>,
    frame: Bytes,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we need earliest-due first.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct SimState {
    listeners: HashMap<String, Mailbox<Box<dyn Conn>>>,
    config: LinkConfig,
    down: HashMap<String, bool>,
    /// Established connections per listener tag, for [`SimNet::crash`].
    conns: HashMap<String, Vec<Weak<CloseFlag>>>,
    /// Seeded per-link flake schedules, keyed by listener tag.
    flakes: HashMap<String, LinkFlake>,
    rng: SmallRng,
    heap: BinaryHeap<Scheduled>,
    shutdown: bool,
}

/// A simulated network: a namespace of listeners plus a fault model.
pub struct SimNet {
    state: Mutex<SimState>,
    wakeup: Condvar,
    clock: ClockHandle,
    seq: AtomicU64,
    sent: AtomicU64,
    delivered: AtomicU64,
    dropped_loss: AtomicU64,
    dropped_partition: AtomicU64,
    duplicated: AtomicU64,
}

impl SimNet {
    /// Creates a simulated network with the given link behaviour and a
    /// fixed RNG seed (for reproducible fault schedules).
    pub fn with_seed(config: LinkConfig, seed: u64) -> Arc<SimNet> {
        SimNet::with_seed_and_clock(config, seed, ClockHandle::system())
    }

    /// Creates a simulated network running on *virtual time*: frame
    /// delivery delays, and every runtime timer configured with the
    /// returned clock, are measured on a
    /// [`VirtualClock`](crate::VirtualClock) that advances via
    /// [`SimNet::advance`] or auto-advance-when-idle. Tests built on
    /// this run their nominal seconds of timeouts in milliseconds, and
    /// deterministically.
    pub fn virtual_time(config: LinkConfig, seed: u64) -> Arc<SimNet> {
        SimNet::with_seed_and_clock(config, seed, ClockHandle::virtual_clock())
    }

    /// Creates a simulated network measuring delivery times on `clock`.
    pub fn with_seed_and_clock(config: LinkConfig, seed: u64, clock: ClockHandle) -> Arc<SimNet> {
        let net = Arc::new(SimNet {
            clock,
            state: Mutex::new(SimState {
                listeners: HashMap::new(),
                config,
                down: HashMap::new(),
                conns: HashMap::new(),
                flakes: HashMap::new(),
                rng: SmallRng::seed_from_u64(seed),
                heap: BinaryHeap::new(),
                shutdown: false,
            }),
            wakeup: Condvar::new(),
            seq: AtomicU64::new(0),
            sent: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            dropped_loss: AtomicU64::new(0),
            dropped_partition: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
        });
        let for_thread = Arc::clone(&net);
        std::thread::Builder::new()
            .name("simnet-scheduler".into())
            .spawn(move || for_thread.scheduler_loop())
            .expect("spawn simnet scheduler");
        net
    }

    /// Creates a simulated network with a random seed.
    pub fn new(config: LinkConfig) -> Arc<SimNet> {
        SimNet::with_seed(config, rand::random())
    }

    /// A perfect, instantaneous network.
    pub fn instant() -> Arc<SimNet> {
        SimNet::new(LinkConfig::instant())
    }

    /// The clock this network schedules deliveries on. Spaces under test
    /// should put the same handle in their `Options` so that transport
    /// delays and runtime timers share one notion of time.
    pub fn clock(&self) -> ClockHandle {
        self.clock.clone()
    }

    /// Advances virtual time by `d` (no-op under a system clock) and
    /// nudges the scheduler.
    pub fn advance(&self, d: Duration) {
        if let Some(vc) = self.clock.as_virtual() {
            vc.advance(d);
        }
        self.wakeup.notify_all();
    }

    /// Replaces the link behaviour for subsequently sent frames.
    pub fn set_config(&self, config: LinkConfig) {
        self.state.lock().config = config;
    }

    /// Returns the current link behaviour.
    pub fn config(&self) -> LinkConfig {
        self.state.lock().config
    }

    /// Partitions (or heals) the listener named `name`.
    ///
    /// While down, frames in either direction on connections to that
    /// listener are dropped, and new connects are refused — modelling a
    /// crashed or unreachable process.
    pub fn set_down(&self, name: &str, down: bool) {
        self.state.lock().down.insert(name.to_owned(), down);
    }

    /// Crashes the process behind listener `name`: every established
    /// connection to it is dropped (both directions observe `Closed`, not
    /// silence) and new connects are refused until [`SimNet::restart`].
    ///
    /// This is a harsher fault than [`SimNet::set_down`], which leaves
    /// connections up and silently eats frames: a crash is what makes
    /// reconnect paths (rather than timeout paths) fire.
    pub fn crash(&self, name: &str) {
        let flags = {
            let mut state = self.state.lock();
            state.down.insert(name.to_owned(), true);
            state.conns.remove(name).unwrap_or_default()
        };
        for flag in flags {
            if let Some(flag) = flag.upgrade() {
                flag.close();
            }
        }
    }

    /// Heals a [`SimNet::crash`]: new connects to `name` succeed again
    /// (the crashed side must re-listen to accept them — a restarted
    /// process is a new process).
    pub fn restart(&self, name: &str) {
        self.state.lock().down.insert(name.to_owned(), false);
    }

    /// Installs (or clears, with `None`) a seeded flake schedule on the
    /// link to listener `name`. Flake drops are counted in
    /// [`SimStats::dropped_loss`].
    pub fn set_flake(&self, name: &str, plan: Option<FlakePlan>, seed: u64) {
        let mut state = self.state.lock();
        match plan {
            Some(plan) => {
                state.flakes.insert(
                    name.to_owned(),
                    LinkFlake {
                        plan,
                        rng: SmallRng::seed_from_u64(seed),
                        burst_remaining: 0,
                    },
                );
            }
            None => {
                state.flakes.remove(name);
            }
        }
    }

    /// Returns traffic counters.
    pub fn stats(&self) -> SimStats {
        SimStats {
            sent: self.sent.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            dropped_loss: self.dropped_loss.load(Ordering::Relaxed),
            dropped_partition: self.dropped_partition.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
        }
    }

    /// Stops the scheduler thread. Queued delayed frames are discarded.
    pub fn shutdown(&self) {
        self.state.lock().shutdown = true;
        self.wakeup.notify_all();
    }

    fn scheduler_loop(&self) {
        let mut state = self.state.lock();
        loop {
            if state.shutdown {
                return;
            }
            let now = self.clock.now();
            // Deliver everything due.
            while state.heap.peek().is_some_and(|s| s.due <= now) {
                let s = state.heap.pop().expect("peeked");
                if let Some(vc) = self.clock.as_virtual() {
                    vc.note_activity();
                }
                // The receiver may be gone; nothing to do about it.
                if s.dest.deliver(s.frame) {
                    self.delivered.fetch_add(1, Ordering::Relaxed);
                }
            }
            match state.heap.peek() {
                Some(s) => match self.clock.as_virtual() {
                    // Virtual time: register the next delivery as a
                    // deadline so idle auto-advance jumps exactly to it,
                    // and poll at the clock's grace granularity.
                    Some(vc) => {
                        let token = vc.register_deadline(s.due);
                        self.wakeup.wait_for(&mut state, Duration::from_millis(1));
                        vc.deregister(token);
                        vc.maybe_auto_advance();
                    }
                    None => {
                        let wait = s.due.saturating_duration_since(Instant::now());
                        self.wakeup.wait_for(&mut state, wait);
                    }
                },
                None => {
                    self.wakeup.wait(&mut state);
                }
            }
        }
    }

    /// Routes one frame according to the fault model.
    fn route(&self, tag: &str, dest: &Mailbox<Bytes>, frame: Bytes) {
        self.sent.fetch_add(1, Ordering::Relaxed);
        if let Some(vc) = self.clock.as_virtual() {
            vc.note_activity();
        }
        let mut state = self.state.lock();
        if *state.down.get(tag).unwrap_or(&false) {
            self.dropped_partition.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if let Some(flake) = state.flakes.get_mut(tag) {
            if flake.drops() {
                self.dropped_loss.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        let config = state.config;
        if config.is_instant() {
            drop(state);
            if dest.deliver(frame) {
                self.delivered.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        if config.loss > 0.0 && state.rng.gen_bool(config.loss.clamp(0.0, 1.0)) {
            self.dropped_loss.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let copies =
            if config.duplicate > 0.0 && state.rng.gen_bool(config.duplicate.clamp(0.0, 1.0)) {
                self.duplicated.fetch_add(1, Ordering::Relaxed);
                2
            } else {
                1
            };
        let now = self.clock.now();
        for _ in 0..copies {
            let mut delay = config.latency;
            if !config.jitter.is_zero() {
                delay += Duration::from_nanos(
                    state
                        .rng
                        .gen_range(0..config.jitter.as_nanos().max(1) as u64),
                );
            }
            if config.reorder > 0.0
                && !config.reorder_extra.is_zero()
                && state.rng.gen_bool(config.reorder.clamp(0.0, 1.0))
            {
                delay += Duration::from_nanos(
                    state
                        .rng
                        .gen_range(0..config.reorder_extra.as_nanos().max(1) as u64),
                );
            }
            let item = Scheduled {
                due: now + delay,
                seq: self.seq.fetch_add(1, Ordering::Relaxed),
                dest: dest.clone(),
                frame: frame.clone(),
            };
            state.heap.push(item);
        }
        drop(state);
        self.wakeup.notify_all();
    }
}

impl Transport for Arc<SimNet> {
    fn scheme(&self) -> &str {
        "sim"
    }

    fn connect(&self, ep: &Endpoint) -> Result<Box<dyn Conn>> {
        let name = ep.addr().to_owned();
        let accept = {
            let state = self.state.lock();
            if *state.down.get(&name).unwrap_or(&false) {
                return Err(TransportError::Partitioned);
            }
            state
                .listeners
                .get(&name)
                .cloned()
                .ok_or_else(|| TransportError::ConnectionRefused(ep.to_string()))?
        };
        // Both directions of the connection cross the fault model, tagged
        // with the listener's name for the partition switch.
        let route: Route = {
            let (net, tag) = (Arc::clone(self), name.clone());
            Arc::new(move |dest: &Mailbox<Bytes>, frame| net.route(&tag, dest, frame))
        };
        let (client, server) = ChanConn::pair_via(Some(route), Some(ep.clone()), None);
        {
            let mut state = self.state.lock();
            let conns = state.conns.entry(name).or_default();
            conns.retain(|w| w.upgrade().is_some_and(|f| !f.is_closed()));
            conns.push(Arc::downgrade(&client.closed));
        }
        if !accept.deliver(Box::new(server)) {
            return Err(TransportError::ConnectionRefused(ep.to_string()));
        }
        Ok(Box::new(client))
    }

    fn listen(&self, ep: &Endpoint) -> Result<Box<dyn Listener>> {
        let name = ep.addr().to_owned();
        let mut state = self.state.lock();
        if state.listeners.contains_key(&name) {
            return Err(TransportError::AddressInUse(ep.to_string()));
        }
        let net = Arc::clone(self);
        let (listener, mailbox) = ChanListener::new(Endpoint::sim(name.clone()), {
            let name = name.clone();
            move || drop(net.state.lock().listeners.remove(&name))
        });
        state.listeners.insert(name, mailbox);
        Ok(Box::new(listener))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(net: &Arc<SimNet>, name: &str) -> (Box<dyn Conn>, Box<dyn Conn>) {
        let l = net.listen(&Endpoint::sim(name)).unwrap();
        let c = net.connect(&Endpoint::sim(name)).unwrap();
        let s = l.accept().unwrap();
        (c, s)
    }

    #[test]
    fn instant_link_delivers_in_order() {
        let net = SimNet::instant();
        let (c, s) = pair(&net, "a");
        for i in 0..50u32 {
            c.send(Bytes::from(i.to_le_bytes().to_vec())).unwrap();
        }
        for i in 0..50u32 {
            assert_eq!(&s.recv().unwrap()[..], i.to_le_bytes());
        }
        assert_eq!(net.stats().delivered, 50);
    }

    #[test]
    fn latency_delays_delivery() {
        let net = SimNet::new(LinkConfig::with_latency(Duration::from_millis(30)));
        let (c, s) = pair(&net, "a");
        let t0 = Instant::now();
        c.send(Bytes::from(b"x".to_vec())).unwrap();
        let f = s.recv().unwrap();
        assert_eq!(f, b"x");
        assert!(
            t0.elapsed() >= Duration::from_millis(28),
            "{:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn loss_drops_frames() {
        let mut config = LinkConfig::with_latency(Duration::from_micros(10));
        config.loss = 1.0;
        let net = SimNet::with_seed(config, 7);
        let (c, s) = pair(&net, "a");
        c.send(Bytes::from(b"x".to_vec())).unwrap();
        assert_eq!(
            s.recv_timeout(Duration::from_millis(80)).unwrap_err(),
            TransportError::Timeout
        );
        assert_eq!(net.stats().dropped_loss, 1);
    }

    #[test]
    fn duplication_delivers_twice() {
        let mut config = LinkConfig::with_latency(Duration::from_micros(10));
        config.duplicate = 1.0;
        let net = SimNet::with_seed(config, 7);
        let (c, s) = pair(&net, "a");
        c.send(Bytes::from(b"x".to_vec())).unwrap();
        assert_eq!(s.recv_timeout(Duration::from_secs(1)).unwrap(), b"x");
        assert_eq!(s.recv_timeout(Duration::from_secs(1)).unwrap(), b"x");
        assert_eq!(net.stats().duplicated, 1);
    }

    #[test]
    fn reordering_occurs_under_jitter() {
        let mut config = LinkConfig::with_latency(Duration::from_micros(100));
        config.reorder = 0.5;
        config.reorder_extra = Duration::from_millis(5);
        let net = SimNet::with_seed(config, 42);
        let (c, s) = pair(&net, "a");
        let n = 64u32;
        for i in 0..n {
            c.send(Bytes::from(i.to_le_bytes().to_vec())).unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..n {
            let f = s.recv_timeout(Duration::from_secs(2)).unwrap();
            got.push(u32::from_le_bytes([f[0], f[1], f[2], f[3]]));
        }
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "no frame lost");
        assert_ne!(got, sorted, "expected at least one reordering");
    }

    #[test]
    fn partition_blocks_and_heals() {
        let net = SimNet::instant();
        let (c, s) = pair(&net, "srv");
        net.set_down("srv", true);
        c.send(Bytes::from(b"lost".to_vec())).unwrap();
        assert_eq!(
            s.recv_timeout(Duration::from_millis(80)).unwrap_err(),
            TransportError::Timeout
        );
        assert!(matches!(
            net.connect(&Endpoint::sim("srv")),
            Err(TransportError::Partitioned)
        ));
        net.set_down("srv", false);
        c.send(Bytes::from(b"ok".to_vec())).unwrap();
        assert_eq!(s.recv_timeout(Duration::from_secs(1)).unwrap(), b"ok");
        assert_eq!(net.stats().dropped_partition, 1);
    }

    #[test]
    fn partition_blocks_replies_too() {
        let net = SimNet::instant();
        let (c, s) = pair(&net, "srv");
        net.set_down("srv", true);
        s.send(Bytes::from(b"reply".to_vec())).unwrap();
        assert_eq!(
            c.recv_timeout(Duration::from_millis(80)).unwrap_err(),
            TransportError::Timeout
        );
    }

    #[test]
    fn crash_closes_established_connections() {
        let net = SimNet::instant();
        let l = net.listen(&Endpoint::sim("srv")).unwrap();
        let c = net.connect(&Endpoint::sim("srv")).unwrap();
        let s = l.accept().unwrap();
        net.crash("srv");
        // Both halves observe Closed — not silence, as under set_down.
        assert_eq!(
            c.send(Bytes::from(b"x".to_vec())).unwrap_err(),
            TransportError::Closed
        );
        assert_eq!(
            s.recv_timeout(Duration::from_millis(200)).unwrap_err(),
            TransportError::Closed
        );
        assert!(matches!(
            net.connect(&Endpoint::sim("srv")),
            Err(TransportError::Partitioned)
        ));
        // After restart (and a fresh listen, here the old listener still
        // stands in) connects succeed again.
        net.restart("srv");
        let c2 = net.connect(&Endpoint::sim("srv")).unwrap();
        c2.send(Bytes::from(b"y".to_vec())).unwrap();
    }

    #[test]
    fn crash_spares_other_listeners() {
        let net = SimNet::instant();
        let (c_a, s_a) = pair(&net, "a");
        let (c_b, s_b) = pair(&net, "b");
        net.crash("a");
        assert!(c_a.send(Bytes::from(b"x".to_vec())).is_err());
        let _ = s_a;
        c_b.send(Bytes::from(b"ok".to_vec())).unwrap();
        assert_eq!(s_b.recv_timeout(Duration::from_secs(1)).unwrap(), b"ok");
    }

    #[test]
    fn flake_schedule_is_seeded_and_per_link() {
        let observed: Vec<u64> = (0..2)
            .map(|_| {
                let net = SimNet::instant();
                let (c_a, _s_a) = pair(&net, "a");
                let (c_b, s_b) = pair(&net, "b");
                net.set_flake("a", Some(FlakePlan::uniform(0.5)), 77);
                for _ in 0..100 {
                    c_a.send(Bytes::from(vec![1])).unwrap();
                    c_b.send(Bytes::from(vec![2])).unwrap();
                }
                // The clean link is untouched by "a"'s weather.
                for _ in 0..100 {
                    assert_eq!(s_b.recv_timeout(Duration::from_secs(1)).unwrap(), vec![2]);
                }
                net.stats().dropped_loss
            })
            .collect();
        assert_eq!(observed[0], observed[1], "same seed, same drops");
        assert!(observed[0] > 20 && observed[0] < 80);
    }

    #[test]
    fn flake_bursts_drop_consecutive_frames() {
        let net = SimNet::instant();
        let (c, s) = pair(&net, "a");
        net.set_flake(
            "a",
            Some(FlakePlan {
                loss: 1.0,
                burst_len: 3,
            }),
            1,
        );
        for i in 0..3u8 {
            c.send(Bytes::from(vec![i])).unwrap();
        }
        assert_eq!(net.stats().dropped_loss, 3);
        net.set_flake("a", None, 0);
        c.send(Bytes::from(b"through".to_vec())).unwrap();
        assert_eq!(s.recv_timeout(Duration::from_secs(1)).unwrap(), b"through");
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let observed: Vec<u64> = (0..2)
            .map(|_| {
                let mut config = LinkConfig::with_latency(Duration::from_micros(10));
                config.loss = 0.5;
                let net = SimNet::with_seed(config, 1234);
                let (c, _s) = pair(&net, "a");
                for _ in 0..100 {
                    c.send(Bytes::from(vec![0])).unwrap();
                }
                // Wait for routing to settle.
                std::thread::sleep(Duration::from_millis(50));
                net.stats().dropped_loss
            })
            .collect();
        assert_eq!(observed[0], observed[1]);
        assert!(observed[0] > 20 && observed[0] < 80);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::{Endpoint, Transport};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Under jitter (but no loss), every frame is delivered exactly
        /// once, in some order.
        #[test]
        fn jitter_preserves_exactly_once(seed in any::<u64>(), n in 1usize..40) {
            let mut config = LinkConfig::with_latency(Duration::from_micros(50));
            config.jitter = Duration::from_micros(300);
            config.reorder = 0.3;
            config.reorder_extra = Duration::from_micros(500);
            let net = SimNet::with_seed(config, seed);
            let l = net.listen(&Endpoint::sim("p")).unwrap();
            let c = net.connect(&Endpoint::sim("p")).unwrap();
            let s = l.accept().unwrap();
            for i in 0..n {
                c.send(Bytes::from(vec![i as u8])).unwrap();
            }
            let mut got = Vec::new();
            for _ in 0..n {
                got.push(s.recv_timeout(Duration::from_secs(2)).unwrap()[0]);
            }
            got.sort_unstable();
            prop_assert_eq!(got, (0..n as u8).collect::<Vec<_>>());
            prop_assert_eq!(
                s.recv_timeout(Duration::from_millis(30)).unwrap_err(),
                crate::TransportError::Timeout
            );
        }
    }
}
