//! C5 — connection-scale latency on the reactor core.
//!
//! PR-4 measured throughput with a handful of busy connections (C4); this
//! experiment measures the other axis: how call latency behaves when one
//! reactor thread holds *thousands* of mostly idle connections and calls
//! arrive spread across all of them, so nearly every call costs a readiness
//! wakeup on a cold fd. Each rung opens N connections (distinct caller
//! identity per connection, as real clients present), warms the inline-path
//! classifier, then issues calls round-robin across the whole set and
//! reports the long tail (p50/p90/p99/p999) exactly from raw samples.
//!
//! Results are merged into `BENCH_rpc_throughput.json` under a `"c5"` key
//! next to the C4 data; `EXPERIMENTS.md` §C5 interprets them.
//!
//! ```sh
//! conn_scale                     # full sweep: 1k / 4k / 10k connections
//! conn_scale --quick             # small rungs, for CI bench-smoke
//! conn_scale --hold N ADDR       # open N idle conns against a running
//!                                #   netobjd and hold them (CI reactor
//!                                #   smoke); --secs S to change the hold
//! ```
//!
//! Rungs that would exceed the process fd limit (two fds per connection:
//! one socket at each end, both in this process) are clamped and marked.
//! A rung with any failed call makes the run exit 1.

use std::sync::Arc;
use std::time::{Duration, Instant};

use netobj_bench::print_table;
use netobj_rpc::msg::{Request, RpcMsg};
use netobj_rpc::{Dispatch, Dispatcher, RpcServer, ServerConfig};
use netobj_transport::tcp::Tcp;
use netobj_transport::{Bytes, Conn, Endpoint, Transport};
use netobj_wire::{ObjIx, SpaceId, WireRep};

const OUT_PATH: &str = "BENCH_rpc_throughput.json";
const CALL_TIMEOUT: Duration = Duration::from_secs(10);
const CLIENT_WORKERS: usize = 4;

/// Echoes the argument pickle back — the cheapest possible method, so after
/// warmup the adaptive classifier runs it inline on the reactor thread and
/// the measurement isolates readiness + dispatch cost, not method cost.
struct Echo;

impl Dispatcher for Echo {
    fn dispatch(&self, _caller: SpaceId, _target: WireRep, _method: u32, args: &[u8]) -> Dispatch {
        Dispatch::plain(Ok(args.to_vec()))
    }
}

struct RungResult {
    requested: usize,
    connections: usize,
    calls: u64,
    errors: u64,
    p50: u64,
    p90: u64,
    p99: u64,
    p999: u64,
    mean: u64,
    frames_per_syscall: f64,
}

fn main() {
    let mut quick = false;
    let mut hold: Option<(usize, String)> = None;
    let mut secs: u64 = 30;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--hold" => {
                let n = args.next().and_then(|v| v.parse::<usize>().ok());
                let addr = args.next();
                match (n, addr) {
                    (Some(n), Some(addr)) if n > 0 => hold = Some((n, addr)),
                    _ => usage(),
                }
            }
            "--secs" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(s) => secs = s,
                None => usage(),
            },
            _ => usage(),
        }
    }

    if let Some((n, addr)) = hold {
        hold_connections(n, &addr, secs);
        return;
    }

    run_sweep(quick);
}

fn usage() -> ! {
    eprintln!("usage: conn_scale [--quick]");
    eprintln!("       conn_scale --hold N ADDR [--secs S]");
    std::process::exit(2);
}

/// CI reactor-smoke helper: open `n` idle TCP connections to a running
/// server and hold them for `secs` seconds so the job can scrape the
/// reactor gauges while they are registered.
fn hold_connections(n: usize, addr: &str, secs: u64) {
    let mut held = Vec::with_capacity(n);
    for i in 0..n {
        match std::net::TcpStream::connect(addr) {
            Ok(s) => held.push(s),
            Err(e) => {
                eprintln!("conn_scale: connect {} of {n} to {addr} failed: {e}", i + 1);
                std::process::exit(1);
            }
        }
    }
    println!("conn_scale: holding {n} connections to {addr} for {secs}s");
    std::thread::sleep(Duration::from_secs(secs));
    println!("conn_scale: released {n} connections");
}

fn run_sweep(quick: bool) {
    let rungs: &[usize] = if quick {
        &[200, 500, 1000]
    } else {
        &[1000, 4000, 10_000]
    };
    // Two fds per connection (one socket at each end, both in this
    // process), plus slack for the listener, epoll, stdio, and whatever the
    // harness already holds.
    let conn_cap = fd_limit().map(|soft| soft.saturating_sub(128) / 2);

    let listener = match Tcp.listen(&Endpoint::tcp("127.0.0.1:0")) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("conn_scale: cannot listen: {e}");
            std::process::exit(1);
        }
    };
    let addr = listener.local_endpoint();
    let server = RpcServer::start_with_config(
        listener,
        Arc::new(Echo),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );

    let mut results = Vec::new();
    for &requested in rungs {
        let n = match conn_cap {
            Some(cap) if requested > cap => {
                eprintln!("conn_scale: rung {requested} clamped to {cap} by the open-file limit");
                cap
            }
            _ => requested,
        };
        if n == 0 {
            continue;
        }
        let before = server.reactor_stats();
        eprintln!("conn_scale: rung {requested}: ramping {n} connections");
        let r = run_rung(requested, n, &addr, quick);
        if let (Some(b), Some(a)) = (before, server.reactor_stats()) {
            let frames = a.frames_flushed.saturating_sub(b.frames_flushed);
            let syscalls = a.flush_syscalls.saturating_sub(b.flush_syscalls);
            if syscalls > 0 {
                results.push(RungResult {
                    frames_per_syscall: frames as f64 / syscalls as f64,
                    ..r
                });
                drain_rung(&server);
                continue;
            }
        }
        results.push(r);
        drain_rung(&server);
    }

    report(&results, quick);
    if results.iter().any(|r| r.errors > 0) {
        eprintln!("conn_scale: a rung had failed calls");
        std::process::exit(1);
    }
}

/// Waits for the reactor to observe every client close from the previous
/// rung so rungs do not overlap fd usage or gauge readings.
fn drain_rung(server: &RpcServer) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        match server.reactor_stats() {
            Some(s) if s.connections > 0 => std::thread::sleep(Duration::from_millis(10)),
            _ => return,
        }
    }
}

fn run_rung(requested: usize, n: usize, addr: &Endpoint, quick: bool) -> RungResult {
    // Enough calls that every connection is exercised a few times, capped so
    // the full sweep stays in bench-smoke territory.
    let calls_total = if quick { 2 * n } else { (4 * n).min(40_000) };

    let workers = CLIENT_WORKERS.min(n);
    let result: Vec<(Vec<u64>, u64)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..workers {
            let share = n / workers + usize::from(w < n % workers);
            let calls = calls_total / workers + usize::from(w < calls_total % workers);
            handles.push(scope.spawn(move || worker(addr, share, calls)));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut lat: Vec<u64> = Vec::with_capacity(calls_total);
    let mut errors = 0u64;
    for (mut l, e) in result {
        lat.append(&mut l);
        errors += e;
    }
    lat.sort_unstable();
    let mean = if lat.is_empty() {
        0
    } else {
        lat.iter().sum::<u64>() / lat.len() as u64
    };
    RungResult {
        requested,
        connections: n,
        calls: lat.len() as u64,
        errors,
        p50: pct(&lat, 0.50),
        p90: pct(&lat, 0.90),
        p99: pct(&lat, 0.99),
        p999: pct(&lat, 0.999),
        mean,
        frames_per_syscall: 0.0,
    }
}

/// One load-generator thread: owns `share` connections, each with its own
/// caller identity; warms every connection, then spreads `calls` sequential
/// ping-pong calls round-robin across the set.
fn worker(addr: &Endpoint, share: usize, calls: usize) -> (Vec<u64>, u64) {
    let mut conns: Vec<(Box<dyn Conn>, SpaceId)> = Vec::with_capacity(share);
    let mut errors = 0u64;
    for _ in 0..share {
        match Tcp.connect(addr) {
            Ok(c) => conns.push((c, SpaceId::fresh())),
            Err(_) => errors += 1,
        }
    }
    // Call ids only grow, so no connection ever repeats one.
    let mut call_id = 0;
    // Warmup: one call per connection binds its identity on the server and
    // feeds the adaptive classifier so measured calls take the inline path.
    for (conn, caller) in &conns {
        call_id += 1;
        if !call_once(&**conn, *caller, call_id) {
            errors += 1;
        }
    }
    let mut lat = Vec::with_capacity(calls);
    if conns.is_empty() {
        return (lat, errors + calls as u64);
    }
    for i in 0..calls {
        let (conn, caller) = &conns[i % conns.len()];
        call_id += 1;
        let start = Instant::now();
        if call_once(&**conn, *caller, call_id) {
            lat.push(start.elapsed().as_micros().min(u64::MAX as u128) as u64);
        } else {
            errors += 1;
        }
    }
    drop(conns);
    (lat, errors)
}

/// Issues one echo call on `conn` and waits for its reply. Returns false on
/// any transport or protocol error.
fn call_once(conn: &dyn Conn, caller: SpaceId, call_id: u64) -> bool {
    let req = RpcMsg::Request(Request {
        call_id,
        caller,
        target: WireRep::new(caller, ObjIx::FIRST_USER),
        method: 7,
        args: Bytes::copy_from_slice(b"ping-c5!"),
        trace_id: 0,
        span_id: 0,
    });
    if conn.send(req.encode()).is_err() {
        return false;
    }
    loop {
        let Ok(frame) = conn.recv_timeout(CALL_TIMEOUT) else {
            return false;
        };
        match RpcMsg::decode(&frame) {
            Ok(RpcMsg::Reply(r)) if r.call_id == call_id => {
                if r.needs_ack {
                    let _ = conn.send(RpcMsg::ReplyAck(call_id).encode());
                }
                return r.outcome.is_ok();
            }
            Ok(_) => continue,
            Err(_) => return false,
        }
    }
}

/// Exact percentile over sorted raw samples (nearest-rank).
fn pct(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let ix = ((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
    sorted[ix]
}

/// The soft `RLIMIT_NOFILE`, read from `/proc/self/limits` (Linux only).
fn fd_limit() -> Option<usize> {
    let text = std::fs::read_to_string("/proc/self/limits").ok()?;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("Max open files") {
            return rest.split_whitespace().next()?.parse().ok();
        }
    }
    None
}

fn report(results: &[RungResult], quick: bool) {
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.connections.to_string(),
                r.calls.to_string(),
                format!("{}µs", r.p50),
                format!("{}µs", r.p90),
                format!("{}µs", r.p99),
                format!("{}µs", r.p999),
                format!("{}µs", r.mean),
                r.errors.to_string(),
                format!("{:.2}", r.frames_per_syscall),
            ]
        })
        .collect();
    print_table(
        "C5 connection-scale latency (reactor core)",
        &[
            "conns",
            "calls",
            "p50",
            "p90",
            "p99",
            "p999",
            "mean",
            "errors",
            "frames/flush",
        ],
        &rows,
    );

    let mut rungs = String::new();
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            rungs.push_str(",\n");
        }
        rungs.push_str(&format!(
            "      {{\"requested\": {}, \"connections\": {}, \"calls\": {}, \"errors\": {}, \
             \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}, \"p999_us\": {}, \
             \"mean_us\": {}, \"frames_per_syscall\": {:.2}}}",
            r.requested,
            r.connections,
            r.calls,
            r.errors,
            r.p50,
            r.p90,
            r.p99,
            r.p999,
            r.mean,
            r.frames_per_syscall
        ));
    }
    let c5 = format!(
        "{{\n    \"experiment\": \"C5 connection-scale latency\",\n    \
         \"quick\": {quick},\n    \
         \"rungs\": [\n{rungs}\n    ]\n  }}"
    );
    match merge_into_report(&c5) {
        Ok(()) => println!("\nwrote {OUT_PATH} (c5 section)"),
        Err(e) => eprintln!("conn_scale: cannot write {OUT_PATH}: {e}"),
    }
}

/// Merges the `"c5"` object into `BENCH_rpc_throughput.json`, preserving the
/// C4 data the `rpc_throughput` bin wrote: replaces an existing `"c5"` key,
/// appends before the final brace otherwise, or writes a fresh file.
fn merge_into_report(c5: &str) -> std::io::Result<()> {
    const KEY: &str = ",\n  \"c5\": ";
    let merged = match std::fs::read_to_string(OUT_PATH) {
        Ok(existing) => {
            let base = match existing.find(KEY) {
                Some(ix) => existing[..ix].to_owned(),
                None => match existing.trim_end().strip_suffix('}') {
                    Some(body) => body.trim_end().to_owned(),
                    None => String::new(),
                },
            };
            if base.is_empty() {
                format!("{{\n  \"c5\": {c5}\n}}\n")
            } else {
                format!("{base}{KEY}{c5}\n}}\n")
            }
        }
        Err(_) => format!("{{\n  \"c5\": {c5}\n}}\n"),
    };
    std::fs::write(OUT_PATH, merged)
}
