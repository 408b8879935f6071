//! C4: multi-caller RPC throughput.
//!
//! Measures sustained calls/second through one client [`Space`] with 1, 4
//! and 16 concurrent caller threads, over both the loopback transport (the
//! paper's "same machine" configuration — pure runtime overhead, no wire)
//! and a zero-latency SimNet (the deterministic harness all other
//! experiments use). Every caller shares the same client space, so this is
//! exactly the contended path the zero-copy work targets: one
//! connection (its callers taking turns as reader), one object table
//! (one lock per half), one metrics registry.
//!
//! Writes `BENCH_rpc_throughput.json` so the perf trajectory can be diffed
//! across PRs. `--quick` shrinks the call counts for CI smoke runs.
//!
//! Run with `cargo run --release -p netobj-bench --bin rpc_throughput`.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use netobj::wire::pickle::Blob;
use netobj::wire::ObjIx;
use netobj::{Options, Space};
use netobj_bench::{fmt_dur, new_counter, print_table, BenchClient, BenchExport, BenchImpl};
use netobj_bench::{BenchSvc, CounterClient};
use netobj_transport::loopback::Loopback;
use netobj_transport::sim::{LinkConfig, SimNet};
use netobj_transport::{Endpoint, Transport};

/// One measured configuration.
struct Scenario {
    /// `"loopback"` or `"simnet"`.
    transport: &'static str,
    /// Number of concurrent caller threads.
    callers: usize,
    /// Calls per caller actually timed.
    calls_per_caller: usize,
    /// Sustained rate across all callers.
    calls_per_sec: f64,
    /// Mean per-call latency observed by a caller.
    mean_call: Duration,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let per_caller = if quick { 300 } else { 4000 };
    let blob_calls = if quick { 100 } else { 1000 };

    println!(
        "# C4 — multi-caller RPC throughput ({} mode)",
        if quick { "quick" } else { "full" }
    );

    let mut scenarios = Vec::new();
    for &callers in &[1usize, 4, 16] {
        scenarios.push(run_loopback(callers, per_caller));
    }
    for &callers in &[1usize, 4, 16] {
        scenarios.push(run_simnet(callers, per_caller));
    }
    let blob_rate = run_blob_loopback(blob_calls);

    let rows: Vec<Vec<String>> = scenarios
        .iter()
        .map(|s| {
            vec![
                s.transport.to_owned(),
                s.callers.to_string(),
                format!("{:.0}", s.calls_per_sec),
                fmt_dur(s.mean_call),
            ]
        })
        .collect();
    print_table(
        "C4 — null-call throughput (one shared client space)",
        &["transport", "callers", "calls/s", "mean/call"],
        &rows,
    );
    println!("\nloopback 4 KiB blob echo, 1 caller: {blob_rate:.1} MB/s");

    let mut json = String::from("{\n  \"experiment\": \"C4\",\n  \"unit\": \"calls_per_sec\",\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    json.push_str("  \"scenarios\": {\n");
    for (i, s) in scenarios.iter().enumerate() {
        let _ = write!(
            json,
            "    \"{}/{}\": {{\"callers\": {}, \"calls_per_caller\": {}, \"calls_per_sec\": {:.1}, \"mean_call_micros\": {}}}",
            s.transport,
            s.callers,
            s.callers,
            s.calls_per_caller,
            s.calls_per_sec,
            s.mean_call.as_micros()
        );
        json.push_str(if i + 1 < scenarios.len() { ",\n" } else { "\n" });
    }
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"loopback_blob_4k_mb_per_sec\": {blob_rate:.2}");
    json.push_str("}\n");
    match std::fs::write("BENCH_rpc_throughput.json", &json) {
        Ok(()) => println!("\nwrote BENCH_rpc_throughput.json"),
        Err(e) => eprintln!("\ncannot write BENCH_rpc_throughput.json: {e}"),
    }
}

/// Builds a served space plus one client space on the given transport and
/// returns the bound service stub with both spaces kept alive.
fn build_pair(
    transport: Arc<dyn Transport>,
    server_ep: Endpoint,
    client_ep: Endpoint,
) -> (Space, Space, BenchClient) {
    let server = Space::builder()
        .transport(Arc::clone(&transport))
        .listen(server_ep.clone())
        .options(Options::fast())
        .build()
        .expect("server space");
    let own = CounterClient::narrow(server.local(new_counter())).expect("narrow");
    let service = Arc::new(BenchImpl::new(own));
    service.set_space(server.clone());
    server
        .export(Arc::new(BenchExport(service)))
        .expect("export");
    let client = Space::builder()
        .transport(transport)
        .listen(client_ep)
        .options(Options::fast())
        .build()
        .expect("client space");
    let svc = BenchClient::narrow(
        client
            .import_root(&server_ep, ObjIx::FIRST_USER)
            .expect("bind"),
    )
    .expect("narrow");
    (server, client, svc)
}

/// Runs `callers` threads each issuing `per_caller` timed null calls
/// through one shared client space; returns the aggregate rate.
fn measure(
    transport: &'static str,
    svc: &BenchClient,
    callers: usize,
    per_caller: usize,
) -> Scenario {
    // Warm up outside the window: fills connection caches and surrogates.
    for _ in 0..50 {
        svc.null().expect("warmup call");
    }
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..callers {
            let svc = svc.clone();
            scope.spawn(move || {
                for _ in 0..per_caller {
                    svc.null().expect("bench call");
                }
            });
        }
    });
    let elapsed = t0.elapsed();
    let total = (callers * per_caller) as f64;
    Scenario {
        transport,
        callers,
        calls_per_caller: per_caller,
        calls_per_sec: total / elapsed.as_secs_f64(),
        mean_call: elapsed.mul_f64(callers as f64 / total.max(1.0)),
    }
}

fn run_loopback(callers: usize, per_caller: usize) -> Scenario {
    let net = Loopback::new();
    let (server, client, svc) = build_pair(
        Arc::new(net),
        Endpoint::loopback("thr-server"),
        Endpoint::loopback("thr-client"),
    );
    let s = measure("loopback", &svc, callers, per_caller);
    drop(svc);
    drop(client);
    drop(server);
    s
}

fn run_simnet(callers: usize, per_caller: usize) -> Scenario {
    let net = SimNet::new(LinkConfig::with_latency(Duration::ZERO));
    let (server, client, svc) = build_pair(
        Arc::new(net),
        Endpoint::sim("thr-server"),
        Endpoint::sim("thr-client"),
    );
    let s = measure("simnet", &svc, callers, per_caller);
    drop(svc);
    drop(client);
    drop(server);
    s
}

/// Echoes 4 KiB blobs over loopback with one caller: the payload-copy cost
/// row (bytes cross the stack twice per call).
fn run_blob_loopback(calls: usize) -> f64 {
    let net = Loopback::new();
    let (_server, _client, svc) = build_pair(
        Arc::new(net),
        Endpoint::loopback("thr-blob-server"),
        Endpoint::loopback("thr-blob-client"),
    );
    let payload = Blob(vec![0xa5u8; 4096]);
    svc.blob(payload.clone()).expect("warmup");
    let t0 = Instant::now();
    for _ in 0..calls {
        svc.blob(payload.clone()).expect("blob call");
    }
    let elapsed = t0.elapsed();
    // Counts both directions' payloads (args out, length back is tiny).
    (calls as f64 * 4096.0) / 1e6 / elapsed.as_secs_f64()
}
