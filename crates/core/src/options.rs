//! Tunable runtime options.

use std::time::Duration;

use netobj_rpc::{BreakerConfig, ResourceBudget, RetryPolicy};
use netobj_transport::ClockHandle;

/// Configuration for a [`crate::Space`].
///
/// The defaults implement the paper's base algorithm: blocking unmarshal of
/// new references (a dirty call completes before the reference becomes
/// usable), owner-side ping-based termination detection, and clean-call
/// retry with strong cleans after ambiguous dirty failures.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Worker threads serving incoming calls.
    pub workers: usize,
    /// Deadline for application-level remote calls.
    pub call_timeout: Duration,
    /// Deadline for dirty calls (blocking unmarshal waits this long).
    pub dirty_timeout: Duration,
    /// Deadline for clean calls issued by the cleanup demon.
    pub clean_timeout: Duration,
    /// Delay before a failed clean call is retried.
    pub clean_retry: Duration,
    /// Give up on a reference's cleanup after this many failed clean calls
    /// and assume the owner is dead.
    pub max_clean_retries: u32,
    /// Owner-side ping period for clients holding dirty entries.
    /// `None` disables termination detection by ping.
    pub ping_interval: Option<Duration>,
    /// Consecutive ping failures after which a client is presumed dead and
    /// removed from every dirty set.
    pub ping_failures: u32,
    /// Lease mode (the Java RMI variant): when set, dirty entries expire
    /// unless renewed within this duration, and client spaces renew their
    /// live surrogates at a third of it. `None` uses pure reference
    /// listing with ping-based termination detection.
    pub lease: Option<Duration>,
    /// The §5.1 FIFO-channels variant: unmarshal does not block on dirty
    /// calls; instead the dirty call is issued in the background over the
    /// (FIFO) connection and the reply/acknowledgement is withheld until
    /// it completes. Requires transports that preserve frame order (all of
    /// ours except a reordering `SimNet`).
    pub fifo_variant: bool,
    /// Batch clean calls: the cleanup demon coalesces cleans queued for
    /// the same owner into one RPC (the paper's batching optimisation for
    /// collector traffic). Semantics are unchanged — each entry still
    /// carries its own sequence number. So that drops arriving one by one
    /// still coalesce, the demon waits 1 ms (on this space's clock) after
    /// the first clean of a round before sending it: reclaim may lag by up
    /// to that much more. It does not wait in the FIFO variant, where
    /// background dirty calls share its queue and a caller's
    /// acknowledgement waits for them. `false` sends every clean at once,
    /// alone, with no wait.
    pub batch_cleans: bool,
    /// Retry policy for outgoing calls. The default retries only failures
    /// where the request provably never reached the callee (*not-delivered*
    /// failures — refused connects, sends that errored, `Busy` shedding);
    /// *ambiguous* failures (timeouts, mid-call connection loss) are
    /// retried only for methods marked `[idempotent]` in `network_object!`,
    /// so default call semantics are unchanged: at-most-once.
    pub retry: RetryPolicy,
    /// Per-endpoint circuit breaker for outgoing calls. After a run of
    /// consecutive failures the breaker opens and calls to that endpoint
    /// fail fast until a cooldown elapses and a probe succeeds.
    pub breaker: BreakerConfig,
    /// Bound on the server's queued (not yet dispatched) incoming calls.
    /// When the queue is full the server sheds new calls with a retryable
    /// `Busy` reply instead of letting them time out behind the backlog.
    /// `None` restores the unbounded queue.
    pub server_queue_limit: Option<usize>,
    /// Per-client resource limits enforced at every untrusted entry point:
    /// dispatch (queue share and in-flight calls), connection accept, and
    /// the collector's dirty path (export slots and dirty entries).
    /// Over-budget requests are refused with the non-retryable
    /// `QuotaExceeded` remote error. The default disables every limit —
    /// the cooperative-peers behaviour; hardened deployments should use
    /// [`ResourceBudget::standard`] or their own figures.
    pub budget: ResourceBudget,
    /// The clock every runtime timer reads: retry backoff pauses, breaker
    /// cool-downs, the cleanup demon's retry schedule, ping and lease
    /// periods, call deadlines. The default is the real system clock;
    /// tests install a shared virtual clock (usually the one from
    /// `SimNet::virtual_time`) to run timeouts in simulated time.
    pub clock: ClockHandle,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            workers: 4,
            call_timeout: Duration::from_secs(30),
            dirty_timeout: Duration::from_secs(10),
            clean_timeout: Duration::from_secs(5),
            clean_retry: Duration::from_millis(500),
            max_clean_retries: 8,
            ping_interval: None,
            ping_failures: 3,
            lease: None,
            fifo_variant: false,
            batch_cleans: true,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            server_queue_limit: Some(1024),
            budget: ResourceBudget::unlimited(),
            clock: ClockHandle::system(),
        }
    }
}

impl Options {
    /// Fast-failing settings for tests.
    pub fn fast() -> Options {
        Options {
            call_timeout: Duration::from_secs(5),
            dirty_timeout: Duration::from_secs(2),
            clean_timeout: Duration::from_millis(500),
            clean_retry: Duration::from_millis(50),
            max_clean_retries: 3,
            ..Options::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_base_algorithm() {
        let o = Options::default();
        assert!(!o.fifo_variant);
        assert!(o.lease.is_none());
        assert!(o.ping_interval.is_none());
        assert!(o.workers >= 1);
        // Ambiguous failures are not retried by default (no per-attempt
        // deadline means one attempt consumes the whole budget).
        assert!(o.retry.attempt_timeout.is_none());
        assert!(o.breaker.enabled);
        assert!(o.server_queue_limit.is_some());
        // Quotas are opt-in: the base algorithm trusts its peers.
        assert!(o.budget.is_unlimited());
    }

    #[test]
    fn standard_budget_is_finite_and_coherent() {
        let b = ResourceBudget::standard();
        assert!(!b.is_unlimited());
        // A dirty-entry allowance below the export-slot allowance would
        // make the latter unreachable.
        assert!(b.max_dirty_entries.unwrap() >= b.max_export_slots.unwrap());
        assert!(b.max_inflight.unwrap() >= b.max_queue_share.unwrap());
    }

    #[test]
    fn fast_options_shrink_deadlines() {
        let f = Options::fast();
        assert!(f.clean_timeout < Options::default().clean_timeout);
        assert!(f.dirty_timeout < Options::default().dirty_timeout);
    }
}
