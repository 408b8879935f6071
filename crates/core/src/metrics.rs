//! Latency histograms, gauges and the metrics snapshot.
//!
//! The counters in [`crate::stats`] say *how often* things happened; this
//! module adds *how long they took* and *how much is live right now*:
//!
//! - [`Histogram`]: a fixed set of log₂ microsecond buckets updated with
//!   one atomic add per observation. Bucket `i` covers `[2^i, 2^(i+1))` µs
//!   (bucket 0 covers `[0, 2)`), so forty buckets span sub-microsecond
//!   calls to multi-day outliers without configuration.
//! - [`Gauges`]: point-in-time sizes — exports, surrogates, dirty-set
//!   entries, queue depth — read from the live structures at snapshot time.
//! - [`Metrics`]: the full observability snapshot of one space (or, after
//!   [`Metrics::merge`], of several), renderable as Prometheus text.
//!
//! Everything here is deterministic given deterministic clocks: under a
//! virtual clock the same scenario yields byte-identical metrics text,
//! which is what lets the conformance tests assert on it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use netobj_wire::SpaceId;

use crate::stats::StatsSnapshot;

/// Number of log₂ buckets per histogram. Bucket `BUCKETS-1` also absorbs
/// anything larger than its nominal range.
pub const BUCKETS: usize = 40;

/// Index of the bucket that `micros` falls into.
fn bucket_of(micros: u64) -> usize {
    if micros < 2 {
        0
    } else {
        (63 - micros.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Upper bound (exclusive) of bucket `i`, in microseconds.
///
/// The last bucket's nominal bound; values above it are clamped in, so
/// quantiles read from it are lower bounds for extreme outliers.
pub fn bucket_upper(i: usize) -> u64 {
    1u64 << (i + 1)
}

/// A lock-free log₂-bucket latency histogram.
///
/// Recording is one relaxed atomic add per observation plus one for the
/// running sum; snapshots are not atomic across buckets (a concurrent
/// recording may or may not appear), which is fine for monitoring.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    sum_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_micros: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation of `micros` microseconds.
    pub fn record_micros(&self, micros: u64) {
        self.counts[bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Records one observation of a duration.
    pub fn record(&self, d: Duration) {
        self.record_micros(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Takes a point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], mergeable across spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (`counts[i]` covers `[2^i, 2^(i+1))`
    /// µs; bucket 0 covers `[0, 2)`).
    pub counts: [u64; BUCKETS],
    /// Sum of all recorded values, in microseconds.
    pub sum_micros: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            counts: [0; BUCKETS],
            sum_micros: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Adds another snapshot's observations into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.sum_micros += other.sum_micros;
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) as the upper bound of the bucket it
    /// falls in, in microseconds — an over-estimate by at most 2×, which is
    /// the resolution of log₂ buckets. Returns 0 for an empty histogram.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(BUCKETS - 1)
    }
}

/// Point-in-time sizes of a space's live structures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauges {
    /// Concrete objects currently exported (object-table entries).
    pub exports: u64,
    /// Surrogates currently held for remote objects.
    pub surrogates: u64,
    /// Dirty-set entries across all exported objects (client registrations
    /// the collector is tracking).
    pub dirty_entries: u64,
    /// Clean calls that failed and are queued for retry by the cleanup
    /// demon.
    pub pending_clean_retries: u64,
    /// Requests waiting in the server's worker queue (0 when not
    /// listening). Exact: counted at admission and pick, not sampled.
    pub server_queue_depth: u64,
    /// Highest `server_queue_depth` ever observed — how close the server
    /// has come to its global queue limit since it started.
    pub server_queue_high_water: u64,
    /// Cached outgoing RPC connections.
    pub pool_connections: u64,
    /// Per-endpoint circuit breakers currently open.
    pub open_breakers: u64,
    /// Connections registered with the server's reactor, over any
    /// transport (0 for a space that does not listen).
    pub reactor_connections: u64,
    /// Readiness events the poller delivered in the reactor's most recent
    /// batch — the instantaneous depth of the readiness queue. Sockets
    /// only: in-process connections announce readiness without the poller.
    pub reactor_readiness_depth: u64,
    /// Largest readiness batch the reactor has ever drained in one wakeup.
    pub reactor_readiness_high_water: u64,
    /// Reply frames written by the reactor's coalesced flushes (sockets
    /// only: an in-process reply goes straight into the peer's inbox).
    pub reactor_frames_flushed: u64,
    /// Vectored-write syscalls those flushes issued;
    /// `reactor_frames_flushed / reactor_flush_syscalls` is the
    /// writes-coalesced-per-flush ratio.
    pub reactor_flush_syscalls: u64,
}

impl Gauges {
    /// Sums another space's gauges into this one.
    pub fn merge(&mut self, other: &Gauges) {
        self.exports += other.exports;
        self.surrogates += other.surrogates;
        self.dirty_entries += other.dirty_entries;
        self.pending_clean_retries += other.pending_clean_retries;
        self.server_queue_depth += other.server_queue_depth;
        self.server_queue_high_water = self
            .server_queue_high_water
            .max(other.server_queue_high_water);
        self.pool_connections += other.pool_connections;
        self.open_breakers += other.open_breakers;
        self.reactor_connections += other.reactor_connections;
        self.reactor_readiness_depth += other.reactor_readiness_depth;
        self.reactor_readiness_high_water = self
            .reactor_readiness_high_water
            .max(other.reactor_readiness_high_water);
        self.reactor_frames_flushed += other.reactor_frames_flushed;
        self.reactor_flush_syscalls += other.reactor_flush_syscalls;
    }

    /// Every gauge, as `(name, value)` pairs in declaration order.
    pub fn named(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("exports", self.exports),
            ("surrogates", self.surrogates),
            ("dirty_entries", self.dirty_entries),
            ("pending_clean_retries", self.pending_clean_retries),
            ("server_queue_depth", self.server_queue_depth),
            ("server_queue_high_water", self.server_queue_high_water),
            ("pool_connections", self.pool_connections),
            ("open_breakers", self.open_breakers),
            ("reactor_connections", self.reactor_connections),
            ("reactor_readiness_depth", self.reactor_readiness_depth),
            (
                "reactor_readiness_high_water",
                self.reactor_readiness_high_water,
            ),
            ("reactor_frames_flushed", self.reactor_frames_flushed),
            ("reactor_flush_syscalls", self.reactor_flush_syscalls),
        ]
    }
}

/// The four collector RPC kinds that get their own latency histograms.
pub const GC_KINDS: [&str; 4] = ["dirty", "clean", "strong_clean", "ping"];

/// Per-client resource gauges: what one remote space currently costs this
/// one, plus how often it has been refused. Populated only when the space
/// runs with a finite [`netobj_rpc::ResourceBudget`] — client identities
/// are random per process, so emitting them unconditionally would make
/// the exposition nondeterministic for cooperative deployments that never
/// asked for quotas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientQuotaGauges {
    /// Open server connections bound to the client.
    pub connections: u64,
    /// Requests admitted on the client's behalf (queued + executing).
    pub inflight: u64,
    /// Requests waiting in the client's fair-admission queue.
    pub queued: u64,
    /// Objects the client holds dirty registrations on (export slots).
    pub export_slots: u64,
    /// Dirty-set plus seqno-floor entries charged to the client.
    pub dirty_entries: u64,
    /// Calls and dirties refused over quota since startup.
    pub shed: u64,
}

impl ClientQuotaGauges {
    /// Sums another snapshot of the same client into this one.
    pub fn merge(&mut self, other: &ClientQuotaGauges) {
        self.connections += other.connections;
        self.inflight += other.inflight;
        self.queued += other.queued;
        self.export_slots += other.export_slots;
        self.dirty_entries += other.dirty_entries;
        self.shed += other.shed;
    }
}

/// The full observability snapshot of one space — or of several, after
/// merging. Rendered as Prometheus text by [`Metrics::to_prometheus_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metrics {
    /// The space this snapshot was taken from (`SpaceId::NIL`-like zero
    /// raw value after a merge of several spaces).
    pub space: SpaceId,
    /// Counter snapshot.
    pub stats: StatsSnapshot,
    /// Application call latency by method label, client-side observed
    /// duration. Keys are `"interface/method"` labels when the typed stub
    /// knows them, `"m<index>"` for raw invocations.
    pub app_calls: BTreeMap<String, HistogramSnapshot>,
    /// Collector RPC latency: dirty, clean, strong-clean, ping — in the
    /// order of [`GC_KINDS`].
    pub gc_calls: [HistogramSnapshot; 4],
    /// Live-structure sizes at snapshot time.
    pub gauges: Gauges,
    /// Per-client quota gauges, keyed by the client's `SpaceId` rendered
    /// as its 32-hex-digit form (the `client` label value). Empty unless
    /// the space enforces a finite budget.
    pub per_client: BTreeMap<String, ClientQuotaGauges>,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics {
            space: SpaceId::from_raw(0),
            stats: StatsSnapshot::default(),
            app_calls: BTreeMap::new(),
            gc_calls: [HistogramSnapshot::default(); 4],
            gauges: Gauges::default(),
            per_client: BTreeMap::new(),
        }
    }
}

impl Metrics {
    /// Folds another space's snapshot into this one: counters, histograms
    /// and gauges all add; the space id of the merged snapshot is kept.
    pub fn merge(&mut self, other: &Metrics) {
        self.stats = merge_stats(&self.stats, &other.stats);
        for (label, h) in &other.app_calls {
            self.app_calls.entry(label.clone()).or_default().merge(h);
        }
        for (a, b) in self.gc_calls.iter_mut().zip(other.gc_calls.iter()) {
            a.merge(b);
        }
        self.gauges.merge(&other.gauges);
        for (client, g) in &other.per_client {
            self.per_client.entry(client.clone()).or_default().merge(g);
        }
    }

    /// Renders the snapshot in Prometheus text exposition format.
    ///
    /// Deterministic: counters and gauges appear in declaration order,
    /// method histograms in label order (the map is ordered), and only
    /// buckets up to the highest non-empty one are emitted. Durations are
    /// in microseconds (integer `le` bounds) rather than seconds, keeping
    /// the text exact under virtual clocks.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.stats.named() {
            let _ = writeln!(out, "# TYPE netobj_{name} counter");
            let _ = writeln!(out, "netobj_{name} {v}");
        }
        for (name, v) in self.gauges.named() {
            let _ = writeln!(out, "# TYPE netobj_{name} gauge");
            let _ = writeln!(out, "netobj_{name} {v}");
        }
        render_client_gauges(&mut out, &self.per_client);
        let _ = writeln!(out, "# TYPE netobj_call_latency_micros histogram");
        for (label, h) in &self.app_calls {
            render_histogram(&mut out, "netobj_call_latency_micros", "method", label, h);
        }
        let _ = writeln!(out, "# TYPE netobj_gc_latency_micros histogram");
        for (kind, h) in GC_KINDS.iter().zip(self.gc_calls.iter()) {
            render_histogram(&mut out, "netobj_gc_latency_micros", "kind", kind, h);
        }
        out
    }
}

fn merge_stats(a: &StatsSnapshot, b: &StatsSnapshot) -> StatsSnapshot {
    // Field-by-field addition via the complete named() enumeration would
    // need a by-name constructor; adding the two snapshots directly keeps
    // the type system in charge instead.
    macro_rules! add {
        ($($f:ident),* $(,)?) => {
            StatsSnapshot { $( $f: a.$f + b.$f, )* }
        };
    }
    add!(
        calls_sent,
        calls_served,
        calls_rejected,
        dirty_sent,
        dirty_received,
        dirty_stale,
        clean_sent,
        clean_received,
        strong_clean_sent,
        clean_retries,
        clean_batches,
        pings_sent,
        pings_received,
        clients_purged,
        refs_sent,
        refs_received,
        surrogates_created,
        surrogates_resurrected,
        exports_collected,
        leases_expired,
        reconnects,
        retries_attempted,
        breaker_opened,
        calls_failed_fast,
        calls_shed_global,
        calls_shed_quota,
        dirty_refused_quota,
        blocked_ns,
    )
}

/// Renders the per-client quota gauge families, one line per client in
/// key order. Emits nothing for an empty map, so spaces without quotas
/// keep their exposition unchanged.
fn render_client_gauges(out: &mut String, per_client: &BTreeMap<String, ClientQuotaGauges>) {
    if per_client.is_empty() {
        return;
    }
    type Field = fn(&ClientQuotaGauges) -> u64;
    let families: [(&str, Field); 6] = [
        ("netobj_client_connections", |g| g.connections),
        ("netobj_client_inflight", |g| g.inflight),
        ("netobj_client_queued", |g| g.queued),
        ("netobj_client_export_slots", |g| g.export_slots),
        ("netobj_client_dirty_entries", |g| g.dirty_entries),
        ("netobj_client_shed_total", |g| g.shed),
    ];
    for (name, value) in families {
        let _ = writeln!(out, "# TYPE {name} gauge");
        for (client, g) in per_client {
            let _ = writeln!(out, "{name}{{client=\"{client}\"}} {}", value(g));
        }
    }
}

fn render_histogram(
    out: &mut String,
    family: &str,
    label_key: &str,
    label: &str,
    h: &HistogramSnapshot,
) {
    let last = h
        .counts
        .iter()
        .rposition(|&c| c != 0)
        .map(|i| i + 1)
        .unwrap_or(0);
    let mut cum = 0;
    for i in 0..last {
        cum += h.counts[i];
        let le = bucket_upper(i);
        let _ = writeln!(
            out,
            "{family}_bucket{{{label_key}=\"{label}\",le=\"{le}\"}} {cum}"
        );
    }
    let _ = writeln!(
        out,
        "{family}_bucket{{{label_key}=\"{label}\",le=\"+Inf\"}} {}",
        h.total()
    );
    let _ = writeln!(
        out,
        "{family}_sum{{{label_key}=\"{label}\"}} {}",
        h.sum_micros
    );
    let _ = writeln!(
        out,
        "{family}_count{{{label_key}=\"{label}\"}} {}",
        h.total()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn record_and_total() {
        let h = Histogram::default();
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(100));
        h.record(Duration::from_millis(5));
        let s = h.snapshot();
        assert_eq!(s.total(), 3);
        assert_eq!(s.sum_micros, 3 + 100 + 5000);
    }

    #[test]
    fn merge_adds() {
        let h1 = Histogram::default();
        let h2 = Histogram::default();
        h1.record_micros(10);
        h2.record_micros(10);
        h2.record_micros(10_000);
        let mut a = h1.snapshot();
        a.merge(&h2.snapshot());
        assert_eq!(a.total(), 3);
        assert_eq!(a.sum_micros, 10_020);
    }

    #[test]
    fn quantiles_bracket_observations() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record_micros(100);
        }
        h.record_micros(10_000);
        let s = h.snapshot();
        // p50 falls in the bucket holding 100µs: [64, 128).
        assert_eq!(s.quantile_micros(0.5), 128);
        // p100 falls in the bucket holding 10ms: [8192, 16384).
        assert_eq!(s.quantile_micros(1.0), 16_384);
        assert_eq!(HistogramSnapshot::default().quantile_micros(0.5), 0);
    }

    #[test]
    fn prometheus_text_is_complete_and_deterministic() {
        let mut m = Metrics::default();
        m.stats.calls_sent = 4;
        let h = Histogram::default();
        h.record_micros(50);
        m.app_calls.insert("t.Svc/ping".into(), h.snapshot());
        m.gc_calls[0] = h.snapshot();
        let text = m.to_prometheus_text();
        // Every counter appears.
        for (name, _) in m.stats.named() {
            assert!(
                text.contains(&format!("netobj_{name} ")),
                "missing counter {name}"
            );
        }
        // Every gauge appears.
        for (name, _) in m.gauges.named() {
            assert!(
                text.contains(&format!("netobj_{name} ")),
                "missing gauge {name}"
            );
        }
        assert!(
            text.contains("netobj_call_latency_micros_bucket{method=\"t.Svc/ping\",le=\"64\"} 1")
        );
        assert!(text.contains("netobj_call_latency_micros_count{method=\"t.Svc/ping\"} 1"));
        assert!(text.contains("netobj_gc_latency_micros_bucket{kind=\"dirty\",le=\"+Inf\"} 1"));
        // Deterministic: same snapshot, same text.
        assert_eq!(text, m.to_prometheus_text());
    }

    #[test]
    fn per_client_gauges_render_only_when_present() {
        let mut m = Metrics::default();
        let text = m.to_prometheus_text();
        assert!(!text.contains("netobj_client_"));
        m.per_client.insert(
            format!("{:032x}", 0xabcu128),
            ClientQuotaGauges {
                connections: 1,
                inflight: 2,
                queued: 1,
                export_slots: 3,
                dirty_entries: 5,
                shed: 7,
            },
        );
        let text = m.to_prometheus_text();
        let label = format!("{:032x}", 0xabcu128);
        assert!(text.contains("# TYPE netobj_client_connections gauge"));
        assert!(text.contains(&format!("netobj_client_inflight{{client=\"{label}\"}} 2")));
        assert!(text.contains(&format!("netobj_client_shed_total{{client=\"{label}\"}} 7")));
        // Merging sums per client.
        let mut other = Metrics::default();
        other.per_client.insert(
            label.clone(),
            ClientQuotaGauges {
                shed: 1,
                ..Default::default()
            },
        );
        m.merge(&other);
        assert_eq!(m.per_client[&label].shed, 8);
    }

    #[test]
    fn metrics_merge_sums_everything() {
        let mut a = Metrics::default();
        let mut b = Metrics::default();
        a.stats.calls_sent = 1;
        b.stats.calls_sent = 2;
        a.gauges.exports = 3;
        b.gauges.exports = 4;
        let h = Histogram::default();
        h.record_micros(10);
        a.app_calls.insert("x".into(), h.snapshot());
        b.app_calls.insert("x".into(), h.snapshot());
        b.app_calls.insert("y".into(), h.snapshot());
        a.merge(&b);
        assert_eq!(a.stats.calls_sent, 3);
        assert_eq!(a.gauges.exports, 7);
        assert_eq!(a.app_calls["x"].total(), 2);
        assert_eq!(a.app_calls["y"].total(), 1);
    }
}
