//! Integration tests for the observability layer: causal span
//! propagation across a three-space call chain on virtual time,
//! deterministic metrics exposition, and end-to-end service of a request
//! that carries no span ids.

#[path = "vt_util.rs"]
mod vt_util;

use std::sync::Arc;
use std::time::Duration;

use netobj::transport::loopback::Loopback;
use netobj::transport::sim::{LinkConfig, SimNet};
use netobj::transport::{Endpoint, Transport};
use netobj::wire::pickle::{Pickle, PickleReader, PickleWriter};
use netobj::wire::{ObjIx, SpaceId, SpanKind, SpanRecord, WireRep};
use netobj::{network_object, NetResult, Options, Space};
use vt_util::{assert_sim_time_under, space_on};

network_object! {
    /// The backing store at the end of the chain.
    pub interface Store ("obs.Store"): client StoreClient, export StoreExport {
        0 [idempotent] => fn get(&self, key: String) -> String;
    }
}

network_object! {
    /// The middle tier: serves lookups by consulting the store.
    pub interface Cache ("obs.Cache"): client CacheClient, export CacheExport {
        0 [idempotent] => fn lookup(&self, key: String) -> String;
    }
}

struct StoreImpl;

impl Store for StoreImpl {
    fn get(&self, key: String) -> NetResult<String> {
        Ok(format!("value-of-{key}"))
    }
}

struct CacheImpl {
    store: StoreClient,
}

impl Cache for CacheImpl {
    fn lookup(&self, key: String) -> NetResult<String> {
        self.store.get(key)
    }
}

/// Builds the frontend → middle → backend chain on `net` and performs one
/// lookup; returns the three spaces in that order plus the live client
/// stub (dropping it would kick off an asynchronous clean call, which
/// must not race with metrics snapshots).
fn chained_lookup(net: &Arc<SimNet>) -> (Space, Space, Space, CacheClient) {
    let opts = Options::fast();
    let backend = space_on(net, "backend", opts.clone());
    backend
        .export(Arc::new(StoreExport(Arc::new(StoreImpl))))
        .unwrap();
    let middle = space_on(net, "middle", opts.clone());
    let store = StoreClient::narrow(
        middle
            .import_root(&Endpoint::sim("backend"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    middle
        .export(Arc::new(CacheExport(Arc::new(CacheImpl { store }))))
        .unwrap();
    let frontend = space_on(net, "frontend", opts);
    let cache = CacheClient::narrow(
        frontend
            .import_root(&Endpoint::sim("middle"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(cache.lookup("k".into()).unwrap(), "value-of-k");
    (frontend, middle, backend, cache)
}

fn spans_of_trace(space: &Space, trace_id: u64) -> Vec<SpanRecord> {
    space
        .spans()
        .into_iter()
        .filter(|s| s.trace_id == trace_id)
        .collect()
}

/// Acceptance criterion: a chained call through 3 spaces on SimNet
/// virtual time yields span records in all three rings sharing one trace
/// id, with server `queue_wait + service` ≤ the client-observed duration
/// for every hop.
#[test]
fn chained_spans_share_one_trace_and_nest_within_client_durations() {
    let net = SimNet::virtual_time(LinkConfig::with_latency(Duration::from_millis(2)), 11);
    let clock = net.clock();
    let (frontend, middle, backend, _cache) = chained_lookup(&net);

    let root = frontend
        .spans()
        .into_iter()
        .find(|s| s.label == "obs.Cache/lookup")
        .expect("frontend recorded the root client span");
    assert_ne!(root.trace_id, 0);
    assert_eq!(root.kind, SpanKind::Client);
    assert_eq!(root.parent_span, 0, "the root has no causal parent");

    // Hop 1: frontend (client) → middle (server).
    let middle_spans = spans_of_trace(&middle, root.trace_id);
    let hop1_server = middle_spans
        .iter()
        .find(|s| s.kind == SpanKind::Server && s.parent_span == root.span_id)
        .expect("middle recorded a server span parented on the root");
    assert_eq!(
        hop1_server.duration_micros,
        hop1_server.queue_wait_micros + hop1_server.service_micros
    );
    assert!(
        hop1_server.queue_wait_micros + hop1_server.service_micros <= root.duration_micros,
        "server time {} + {} must nest inside the client-observed {} µs",
        hop1_server.queue_wait_micros,
        hop1_server.service_micros,
        root.duration_micros
    );

    // Hop 2: middle (client, issued during hop 1's dispatch) → backend.
    let hop2_client = middle_spans
        .iter()
        .find(|s| s.kind == SpanKind::Client && s.label == "obs.Store/get")
        .expect("middle recorded the nested client span");
    assert_eq!(
        hop2_client.parent_span, hop1_server.span_id,
        "a client span issued during a dispatch is parented on the enclosing server span"
    );
    let backend_spans = spans_of_trace(&backend, root.trace_id);
    let hop2_server = backend_spans
        .iter()
        .find(|s| s.kind == SpanKind::Server && s.parent_span == hop2_client.span_id)
        .expect("backend recorded a server span parented on the nested client span");
    assert!(
        hop2_server.queue_wait_micros + hop2_server.service_micros <= hop2_client.duration_micros
    );
    // The nested call happened inside hop 1's service time.
    assert!(hop2_client.duration_micros <= root.duration_micros);

    // All three rings hold spans of the one trace, and nothing leaked a
    // different trace id into this chain.
    for (name, space) in [
        ("frontend", &frontend),
        ("middle", &middle),
        ("backend", &backend),
    ] {
        assert!(
            !spans_of_trace(space, root.trace_id).is_empty(),
            "{name} has no span for the trace"
        );
    }

    assert_sim_time_under(&clock, Duration::from_secs(120), "chained_spans");
}

/// Strips the sample values from Prometheus text, keeping the metric
/// names, labels and comment lines — the exposition *structure*.
fn structure_of(text: &str) -> Vec<String> {
    text.lines()
        .map(|l| {
            if l.starts_with('#') {
                l.to_owned()
            } else {
                l.rsplit_once(' ')
                    .map(|(k, _)| k.to_owned())
                    .unwrap_or_default()
            }
        })
        .collect()
}

/// Acceptance criterion: `metrics_text()` is deterministic under virtual
/// time — two identically-seeded runs produce the same exposition
/// structure — and includes every `Stats` counter plus per-method
/// latency histograms.
#[test]
fn metrics_text_is_deterministic_and_complete() {
    let run = || {
        let net = SimNet::virtual_time(LinkConfig::instant(), 23);
        let (frontend, middle, backend, _cache) = chained_lookup(&net);
        (
            frontend.metrics_text(),
            middle.metrics_text(),
            backend.metrics_text(),
        )
    };
    let (f1, m1, b1) = run();
    let (f2, m2, b2) = run();
    assert_eq!(structure_of(&f1), structure_of(&f2));
    assert_eq!(structure_of(&m1), structure_of(&m2));
    assert_eq!(structure_of(&b1), structure_of(&b2));

    // Every counter the stats registry knows must be in the text.
    let net = SimNet::virtual_time(LinkConfig::instant(), 23);
    let (frontend, middle, _backend, _cache) = chained_lookup(&net);
    let text = frontend.metrics_text();
    for (name, _) in frontend.stats().named() {
        assert!(
            text.contains(&format!("netobj_{name} ")),
            "metrics text is missing counter {name}"
        );
    }
    // Per-method histograms: the caller's view on the frontend, both the
    // caller's and the dispatch-side view on the middle tier.
    assert!(text.contains("netobj_call_latency_micros_count{method=\"obs.Cache/lookup\"}"));
    let middle_text = middle.metrics_text();
    assert!(middle_text.contains("netobj_call_latency_micros_count{method=\"obs.Store/get\"}"));
    assert!(middle_text.contains("netobj_call_latency_micros_count{method=\"serve/m0\"}"));
}

/// A request hand-encoded with span ids `(0, 0)` — an untraced caller —
/// is served end to end, and the server still records a span for it,
/// with a freshly allocated trace id.
#[test]
fn untraced_request_is_served_end_to_end() {
    let net = Loopback::new();
    let owner = Space::builder()
        .transport(Arc::new(Arc::clone(&net)))
        .listen(Endpoint::loopback("owner"))
        .build()
        .unwrap();
    owner
        .export(Arc::new(StoreExport(Arc::new(StoreImpl))))
        .unwrap();

    // Pose as an untraced caller: raw connection, span ids absent.
    let conn = net.connect(&Endpoint::loopback("owner")).unwrap();
    let mut w = PickleWriter::new();
    w.begin_variant(0); // request tag
    w.begin_record(7);
    9u64.pickle(&mut w); // call_id
    SpaceId::fresh().pickle(&mut w); // caller
    WireRep::new(owner.id(), ObjIx::FIRST_USER).pickle(&mut w); // target
    0u32.pickle(&mut w); // method: Store::get
    let mut args = PickleWriter::new();
    "k".to_owned().pickle(&mut args);
    w.put_bytes(args.as_bytes());
    0u64.pickle(&mut w); // trace_id: absent
    0u64.pickle(&mut w); // span_id: absent
    conn.send(netobj::transport::Bytes::from(w.as_bytes().to_vec()))
        .unwrap();

    let reply = conn.recv_timeout(Duration::from_secs(10)).unwrap();
    let mut r = PickleReader::new(&reply);
    assert_eq!(r.begin_variant().unwrap(), 1, "expected an ok reply");
    assert_eq!(u64::unpickle(&mut r).unwrap(), 9, "call_id must match");
    let _needs_ack = bool::unpickle(&mut r).unwrap();
    let result = r.get_bytes().unwrap().to_vec();
    let mut rr = PickleReader::new(&result);
    assert_eq!(String::unpickle(&mut rr).unwrap(), "value-of-k");

    // The server recorded the call with a locally allocated trace id.
    let span = owner
        .spans()
        .into_iter()
        .find(|s| s.kind == SpanKind::Server && s.method == 0)
        .expect("server span for the untraced call");
    assert_ne!(
        span.trace_id, 0,
        "server allocates a trace id for untraced callers"
    );
    assert_eq!(span.parent_span, 0);
    assert_eq!(owner.stats().calls_served, 1);
    assert_eq!(owner.stats().calls_rejected, 0);
}
