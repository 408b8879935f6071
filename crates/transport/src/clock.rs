//! Time as a capability: real and virtual clocks.
//!
//! Every timer in the runtime — lease renewal, retry backoff, circuit
//! breaker cool-down, the cleanup demon's retry schedule, simulated link
//! latency — reads time through a [`Clock`] rather than calling
//! [`Instant::now`] directly. Production code uses [`SystemClock`] (the
//! identity). Tests install a [`VirtualClock`], under which a scenario
//! that nominally spans seconds of timeouts runs in milliseconds of real
//! time and, crucially, runs *the same way every time*: virtual time only
//! moves when the test advances it or when every participating thread is
//! provably idle.
//!
//! ## Auto-advance
//!
//! Threads that wait on a virtual clock register the virtual deadline they
//! are waiting for. When the whole system has been quiet for a short real
//! grace period (no [`VirtualClock::note_activity`] calls — the simulated
//! network bumps this on every frame it moves), the clock jumps straight
//! to the *earliest* registered deadline. Jumping to the minimum means no
//! pending event is ever skipped over: the frame with the nearest delivery
//! time, or the timer with the nearest expiry, always fires next, exactly
//! as it would have under real time — minus the waiting.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// A source of monotonic time plus the ability to wait on it.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// The current instant according to this clock.
    fn now(&self) -> Instant;

    /// Blocks the calling thread for `d` of this clock's time.
    fn sleep(&self, d: Duration);

    /// Downcast hook: `Some` when this clock is a [`VirtualClock`], which
    /// offers richer waiting primitives than the trait can express.
    fn as_virtual(&self) -> Option<&VirtualClock> {
        None
    }
}

/// The real clock: `now` is [`Instant::now`], `sleep` is a thread sleep.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A shareable `Arc<dyn Clock>` with the comparison and default impls the
/// configuration structs need (two handles are equal when they are the
/// same clock object).
#[derive(Clone)]
pub struct ClockHandle(Arc<dyn Clock>);

impl ClockHandle {
    /// Wraps an arbitrary clock.
    pub fn new(clock: Arc<dyn Clock>) -> ClockHandle {
        ClockHandle(clock)
    }

    /// The real system clock.
    pub fn system() -> ClockHandle {
        ClockHandle(Arc::new(SystemClock))
    }

    /// A fresh virtual clock (auto-advance enabled).
    pub fn virtual_clock() -> ClockHandle {
        ClockHandle(Arc::new(VirtualClock::new()))
    }

    /// The current instant.
    pub fn now(&self) -> Instant {
        self.0.now()
    }

    /// Sleeps for `d` of this clock's time.
    pub fn sleep(&self, d: Duration) {
        self.0.sleep(d)
    }

    /// The underlying virtual clock, when there is one.
    pub fn as_virtual(&self) -> Option<&VirtualClock> {
        self.0.as_virtual()
    }

    /// Borrows the underlying trait object.
    pub fn as_dyn(&self) -> &dyn Clock {
        &*self.0
    }
}

impl Default for ClockHandle {
    fn default() -> Self {
        ClockHandle::system()
    }
}

impl PartialEq for ClockHandle {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl std::fmt::Debug for ClockHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// Waits on `poll` for at most `timeout` of `clock`'s time.
///
/// `poll(step)` blocks for at most `step` of *real* time and returns `None`
/// when nothing became ready. Under a [`SystemClock`] it is called exactly
/// once, with the whole `timeout`. Under a [`VirtualClock`] the caller
/// registers as a sleeper and `poll` is called in short real-time steps, so
/// auto-advance can jump to the deadline while a result that becomes ready
/// is still picked up at once. `None` means the deadline passed.
pub fn poll_deadline<T>(
    clock: &dyn Clock,
    timeout: Duration,
    mut poll: impl FnMut(Duration) -> Option<T>,
) -> Option<T> {
    match clock.as_virtual() {
        None => poll(timeout),
        Some(vc) => vc.poll_deadline(timeout, poll),
    }
}

/// Receives from `rx` with a timeout measured on `clock`
/// ([`poll_deadline`] over a channel).
pub fn recv_deadline<T>(
    clock: &dyn Clock,
    rx: &Receiver<T>,
    timeout: Duration,
) -> Result<T, RecvTimeoutError> {
    poll_deadline(clock, timeout, |step| match rx.recv_timeout(step) {
        Err(RecvTimeoutError::Timeout) => None,
        done => Some(done),
    })
    .unwrap_or(Err(RecvTimeoutError::Timeout))
}

/// How long the system must be quiet (in real time) before virtual time
/// auto-advances to the next registered deadline.
const GRACE: Duration = Duration::from_millis(1);

/// Virtual time starts this far after the epoch so that expressions like
/// `clock.now() - lease` can never underflow the underlying `Instant`.
const HEADROOM: Duration = Duration::from_secs(3600);

struct VcInner {
    /// Virtual time elapsed since the epoch (starts at [`HEADROOM`]).
    offset: Duration,
    /// Registered sleeper deadlines (virtual offsets), by token.
    sleepers: BTreeMap<u64, Duration>,
    next_token: u64,
    /// Last observed value of the activity counter, and the real instant
    /// at which it was observed to change.
    seen_activity: u64,
    seen_at: Instant,
}

/// A deterministic clock whose time moves only by [`VirtualClock::advance`]
/// or by auto-advance when every waiter is idle.
pub struct VirtualClock {
    epoch: Instant,
    activity: AtomicU64,
    holds: AtomicU64,
    inner: Mutex<VcInner>,
    tick: Condvar,
}

thread_local! {
    /// Holds owned by the current thread (see [`VirtualClock::hold`]).
    static MY_HOLDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// RAII guard marking real work in progress (a request being executed, a
/// frame being decoded): while any hold is live, virtual time will not
/// auto-advance, so a caller waiting on the result cannot spuriously time
/// out just because the work is invisible to the clock.
///
/// Holds are owned by the creating thread: if that thread itself blocks on
/// the virtual clock ([`Clock::sleep`] or [`VirtualClock::poll_deadline`]),
/// its holds are suspended for the duration of the wait — it is no longer
/// doing real work, it is waiting for time to pass, and freezing the clock
/// it waits on would deadlock. Create and drop a hold on the same thread.
pub struct ActivityHold<'a> {
    clock: &'a VirtualClock,
}

impl Drop for ActivityHold<'_> {
    fn drop(&mut self) {
        MY_HOLDS.with(|h| h.set(h.get().saturating_sub(1)));
        self.clock.holds.fetch_sub(1, Ordering::Relaxed);
        self.clock.note_activity();
    }
}

/// While alive, the current thread's holds are subtracted from the global
/// hold count (the thread is waiting on the clock, not working).
struct HoldSuspension<'a> {
    clock: &'a VirtualClock,
    n: u64,
}

impl<'a> HoldSuspension<'a> {
    fn begin(clock: &'a VirtualClock) -> HoldSuspension<'a> {
        let n = MY_HOLDS.with(|h| h.get());
        if n > 0 {
            clock.holds.fetch_sub(n, Ordering::Relaxed);
        }
        HoldSuspension { clock, n }
    }
}

impl Drop for HoldSuspension<'_> {
    fn drop(&mut self) {
        if self.n > 0 {
            self.clock.holds.fetch_add(self.n, Ordering::Relaxed);
            self.clock.note_activity();
        }
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        VirtualClock::new()
    }
}

impl std::fmt::Debug for VirtualClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualClock")
            .field("elapsed", &self.elapsed())
            .finish()
    }
}

impl VirtualClock {
    /// A fresh virtual clock at virtual time zero.
    pub fn new() -> VirtualClock {
        let epoch = Instant::now();
        VirtualClock {
            epoch,
            activity: AtomicU64::new(0),
            holds: AtomicU64::new(0),
            inner: Mutex::new(VcInner {
                offset: HEADROOM,
                sleepers: BTreeMap::new(),
                next_token: 1,
                seen_activity: 0,
                seen_at: epoch,
            }),
            tick: Condvar::new(),
        }
    }

    /// Virtual time elapsed since the clock was created.
    pub fn elapsed(&self) -> Duration {
        self.inner.lock().offset - HEADROOM
    }

    /// Moves virtual time forward by `d` and wakes every sleeper.
    pub fn advance(&self, d: Duration) {
        let mut inner = self.inner.lock();
        inner.offset += d;
        // An explicit advance counts as activity: auto-advance waits a
        // fresh grace period before jumping again, giving whatever the
        // advance woke a chance to run.
        inner.seen_activity = self.activity.fetch_add(1, Ordering::Relaxed) + 1;
        inner.seen_at = Instant::now();
        self.tick.notify_all();
    }

    /// Records that real work happened (a frame moved, a call completed).
    /// Suppresses auto-advance for the next grace period.
    pub fn note_activity(&self) {
        self.activity.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks real work as *in progress* until the guard drops; suppresses
    /// auto-advance for the whole duration, not just one grace period.
    pub fn hold(&self) -> ActivityHold<'_> {
        MY_HOLDS.with(|h| h.set(h.get() + 1));
        self.holds.fetch_add(1, Ordering::Relaxed);
        ActivityHold { clock: self }
    }

    /// Counts one piece of work queued for another thread (a wake-up on a
    /// reactor's list) until [`VirtualClock::work_taken`]. It suppresses
    /// auto-advance as a [`hold`](VirtualClock::hold) does but belongs to
    /// no thread: the queuer typically goes on to wait, on this clock, for
    /// the answer, and that wait suspends only the holds it owns.
    pub fn work_queued(&self) {
        self.holds.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` pieces of [queued](VirtualClock::work_queued) work were taken.
    pub fn work_taken(&self, n: u64) {
        self.holds.fetch_sub(n, Ordering::Relaxed);
        self.note_activity();
    }

    /// Registers a deadline (an instant on this clock) that some thread is
    /// waiting for; auto-advance will not jump past the earliest one.
    /// Returns a token for [`VirtualClock::deregister`].
    pub fn register_deadline(&self, deadline: Instant) -> u64 {
        let off = deadline.saturating_duration_since(self.epoch);
        let mut inner = self.inner.lock();
        let token = inner.next_token;
        inner.next_token += 1;
        inner.sleepers.insert(token, off);
        token
    }

    /// Removes a previously registered deadline.
    pub fn deregister(&self, token: u64) {
        self.inner.lock().sleepers.remove(&token);
    }

    /// One idle check: if nothing has happened for the grace period, jump
    /// to the earliest registered deadline. Called by waiters between
    /// polls; safe (and useful) to call from a driving test thread too.
    pub fn maybe_auto_advance(&self) {
        let mut inner = self.inner.lock();
        self.auto_advance_locked(&mut inner);
    }

    fn auto_advance_locked(&self, inner: &mut VcInner) {
        let now = Instant::now();
        let a = self.activity.load(Ordering::Relaxed);
        if a != inner.seen_activity || self.holds.load(Ordering::Relaxed) > 0 {
            inner.seen_activity = a;
            inner.seen_at = now;
            return;
        }
        if now.duration_since(inner.seen_at) < GRACE {
            return;
        }
        let Some(&target) = inner.sleepers.values().min() else {
            return;
        };
        if target > inner.offset {
            inner.offset = target;
            inner.seen_activity = self.activity.fetch_add(1, Ordering::Relaxed) + 1;
            inner.seen_at = now;
            self.tick.notify_all();
        }
    }

    fn virtual_now_locked(inner: &VcInner, epoch: Instant) -> Instant {
        epoch + inner.offset
    }

    /// Virtual-clock-aware bounded wait; see [`poll_deadline`].
    pub fn poll_deadline<T>(
        &self,
        timeout: Duration,
        mut poll: impl FnMut(Duration) -> Option<T>,
    ) -> Option<T> {
        let _suspend = HoldSuspension::begin(self);
        let deadline = self.now() + timeout;
        let token = self.register_deadline(deadline);
        let result = loop {
            if let Some(v) = poll(GRACE) {
                break Some(v);
            }
            if self.now() >= deadline {
                break None;
            }
            self.maybe_auto_advance();
        };
        self.deregister(token);
        result
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Instant {
        let inner = self.inner.lock();
        Self::virtual_now_locked(&inner, self.epoch)
    }

    fn sleep(&self, d: Duration) {
        let _suspend = HoldSuspension::begin(self);
        let mut inner = self.inner.lock();
        let deadline = inner.offset + d;
        let token = inner.next_token;
        inner.next_token += 1;
        inner.sleepers.insert(token, deadline);
        while inner.offset < deadline {
            let timed_out = self.tick.wait_for(&mut inner, GRACE).timed_out();
            if inner.offset >= deadline {
                break;
            }
            if timed_out {
                self.auto_advance_locked(&mut inner);
            }
        }
        inner.sleepers.remove(&token);
    }

    fn as_virtual(&self) -> Option<&VirtualClock> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn system_clock_is_real_time() {
        let c = SystemClock;
        let t0 = c.now();
        c.sleep(Duration::from_millis(10));
        assert!(c.now() - t0 >= Duration::from_millis(10));
    }

    #[test]
    fn manual_advance_moves_now() {
        let c = VirtualClock::new();
        let t0 = c.now();
        c.advance(Duration::from_secs(5));
        assert_eq!(c.now() - t0, Duration::from_secs(5));
        assert_eq!(c.elapsed(), Duration::from_secs(5));
    }

    #[test]
    fn sleep_wakes_on_advance() {
        let c = Arc::new(VirtualClock::new());
        let woke = Arc::new(AtomicBool::new(false));
        let (c2, woke2) = (Arc::clone(&c), Arc::clone(&woke));
        let h = std::thread::spawn(move || {
            c2.sleep(Duration::from_secs(1000));
            woke2.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(20));
        c.advance(Duration::from_secs(1000));
        h.join().unwrap();
        assert!(woke.load(Ordering::SeqCst));
    }

    #[test]
    fn auto_advance_jumps_to_earliest_deadline() {
        // Two sleepers; when the system goes idle, time must jump to the
        // *earlier* deadline first, then the later — in far less real time
        // than the nominal 3s of virtual waiting.
        let c = Arc::new(VirtualClock::new());
        let t0 = Instant::now();
        let c1 = Arc::clone(&c);
        let h1 = std::thread::spawn(move || c1.sleep(Duration::from_secs(1)));
        let c2 = Arc::clone(&c);
        let h2 = std::thread::spawn(move || c2.sleep(Duration::from_secs(3)));
        h1.join().unwrap();
        assert!(c.elapsed() >= Duration::from_secs(1));
        assert!(c.elapsed() < Duration::from_secs(3));
        h2.join().unwrap();
        assert!(c.elapsed() >= Duration::from_secs(3));
        assert!(t0.elapsed() < Duration::from_secs(2), "virtual, not real");
    }

    #[test]
    fn activity_defers_auto_advance() {
        let c = Arc::new(VirtualClock::new());
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || c2.sleep(Duration::from_secs(1)));
        // Keep the system "busy" for a while: time must not jump.
        for _ in 0..20 {
            c.note_activity();
            std::thread::sleep(Duration::from_micros(300));
        }
        assert!(c.elapsed() < Duration::from_secs(1));
        h.join().unwrap();
        assert!(c.elapsed() >= Duration::from_secs(1));
    }

    #[test]
    fn recv_deadline_times_out_virtually() {
        let (_tx, rx) = std::sync::mpsc::channel::<u8>();
        let c = VirtualClock::new();
        let t0 = Instant::now();
        let got = recv_deadline(&c, &rx, Duration::from_secs(2));
        assert!(matches!(got, Err(RecvTimeoutError::Timeout)));
        assert!(c.elapsed() >= Duration::from_secs(2));
        assert!(t0.elapsed() < Duration::from_secs(1), "virtual, not real");
    }

    #[test]
    fn recv_deadline_delivers_messages() {
        let (tx, rx) = std::sync::mpsc::channel::<u8>();
        let c = Arc::new(VirtualClock::new());
        // The sender holds the clock while it works: the receiver must not
        // auto-advance to its own 60s deadline in the meantime.
        let hold = c.hold();
        let h = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || recv_deadline(&*c, &rx, Duration::from_secs(60)))
        };
        std::thread::sleep(Duration::from_millis(5));
        tx.send(7).unwrap();
        drop(hold);
        assert_eq!(h.join().unwrap().unwrap(), 7);
    }

    #[test]
    fn queued_work_defers_auto_advance_while_its_queuer_waits() {
        // The thread that queued the work is the one waiting on the clock:
        // unlike a hold of its own, the queued work is not suspended by that
        // wait, so its 60s deadline cannot pass before the work is taken.
        let (tx, rx) = std::sync::mpsc::channel::<u8>();
        let c = Arc::new(VirtualClock::new());
        c.work_queued();
        let taker = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                tx.send(7).unwrap();
                c.work_taken(1);
            })
        };
        assert_eq!(recv_deadline(&*c, &rx, Duration::from_secs(60)), Ok(7));
        taker.join().unwrap();
        // Taken: the clock is free to move again.
        c.sleep(Duration::from_secs(1));
    }

    #[test]
    fn poll_deadline_polls_anything_in_short_steps() {
        // Not a channel: a flag another thread sets. The waiter must see it
        // long before its (virtual) hour is up, and without time jumping
        // there while the setter still holds the clock.
        let c = Arc::new(VirtualClock::new());
        let flag = Arc::new(AtomicBool::new(false));
        let hold = c.hold();
        let h = {
            let (c, flag) = (Arc::clone(&c), Arc::clone(&flag));
            std::thread::spawn(move || {
                poll_deadline(&*c, Duration::from_secs(3600), |step| {
                    assert!(step <= GRACE);
                    std::thread::sleep(step);
                    flag.load(Ordering::SeqCst).then_some("set")
                })
            })
        };
        std::thread::sleep(Duration::from_millis(5));
        flag.store(true, Ordering::SeqCst);
        drop(hold);
        assert_eq!(h.join().unwrap(), Some("set"));
        assert!(c.elapsed() < Duration::from_secs(3600));
        // Never set: the deadline passes, virtually.
        let t0 = Instant::now();
        let got: Option<()> = poll_deadline(&*c, Duration::from_secs(3600), |step| {
            std::thread::sleep(step);
            None
        });
        assert_eq!(got, None);
        assert!(c.elapsed() >= Duration::from_secs(3600));
        assert!(t0.elapsed() < Duration::from_secs(1), "virtual, not real");
    }

    #[test]
    fn clock_handles_compare_by_identity() {
        let a = ClockHandle::virtual_clock();
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, ClockHandle::virtual_clock());
        assert!(ClockHandle::default().as_virtual().is_none());
    }
}
