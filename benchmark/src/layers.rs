//! The traced run's workload-independent half: the layer ladder, the
//! pure-function costs, and the hand-assembled spanned calls.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions. Rungs run interleaved — short slices, round-robin — because
//! the machine's speed drifts between modes: each figure is the median of
//! its per-round values, and each tax the median of per-round differences,
//! never a difference of medians.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use netobj_agent::Agent;
use netobj_rpc::msg::{Request, RpcMsg};
use netobj_rpc::{CallClient, Dispatch, DispatchCx, Dispatcher, RpcServer};
use netobj_transport::tcp::Tcp;
use netobj_transport::{Bytes, Conn, Endpoint, Transport};
use netobj_wire::frame::{encode_frame, FrameDecoder};
use netobj_wire::pickle::{Blob, Pickle, PickleReader, PickleWriter};
use netobj_wire::{ObjIx, SpaceId, WireRep};

use crate::spans::{self, SpanLog};
use crate::stats::{median, percentile};
use crate::workloads::{
    new_counter, serve_svc, start_server, Counter, Echo, Inputs, RawClient, SpaceRig, Svc,
    SvcClient, PIPELINE_DEPTH,
};

/// How long and how often the interleaved rungs run.
#[derive(Debug, Clone, Copy)]
pub struct LadderPlan {
    pub rounds: usize,
    pub slice: Duration,
}

/// Iterations per round of a pure function on a small input, and on 64 KiB.
const SMALL_ITERS: u32 = 20_000;
const BULK_ITERS: u32 = 300;
/// Connection and bind cycles per round: each builds and tears down real
/// threads, so a few suffice and more would crowd out the rungs.
const CONN_CYCLES: usize = 10;
const BIND_CYCLES: usize = 3;
const LOCAL_CALLS: u32 = 100_000;
const SPIN_ITERS: u64 = 20_000_000;
/// Spans of the newest requests kept for the trace file.
const TRACE_FILE_SPANS: usize = 20_000;

/// The spans of a hand-assembled call whose self times are reported, in
/// the order a call passes through them.
pub const TRACE_SPANS: [&str; 7] = [
    "wire_marshal",
    "rpc_encode",
    "transport_send",
    "wait",
    "server_dispatch",
    "rpc_decode",
    "wire_unmarshal",
];

/// Per-round values by metric name.
#[derive(Default)]
struct Rounds(BTreeMap<String, Vec<f64>>);

impl Rounds {
    fn push(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_string()).or_default().push(value);
    }

    fn last(&self, name: &str) -> f64 {
        self.0[name].last().copied().unwrap_or(0.0)
    }

    fn medians(self) -> BTreeMap<String, f64> {
        self.0.into_iter().map(|(k, v)| (k, median(&v))).collect()
    }
}

/// Runs `call` back to back for one slice; returns each call's latency in
/// ns, ascending. A failed call aborts the run: a rung that errs has
/// nothing to say about cost.
fn slice(
    plan: LadderPlan,
    mut call: impl FnMut() -> Result<(), String>,
) -> Result<Vec<u32>, String> {
    let mut ns = Vec::with_capacity(1 << 14);
    let t0 = Instant::now();
    while t0.elapsed() < plan.slice {
        let t = Instant::now();
        call()?;
        ns.push(u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX));
    }
    ns.sort_unstable();
    Ok(ns)
}

fn p50_us(sorted: &[u32]) -> f64 {
    f64::from(percentile(sorted, 0.5)) / 1e3
}

/// Mean ns per call over a fixed count: for functions too short to time
/// one at a time.
fn ns_per_iter(iters: u32, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// The machine's own yardsticks, with no repo code in them: if these differ
/// between two result files, the machine differed.
pub struct HostProbe {
    stream: TcpStream,
    echo: Option<std::thread::JoinHandle<()>>,
}

impl HostProbe {
    pub fn start() -> Result<HostProbe, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let echo = std::thread::spawn(move || {
            let Ok((mut peer, _)) = listener.accept() else {
                return;
            };
            let _ = peer.set_nodelay(true);
            let mut buf = [0u8; 8];
            while peer.read_exact(&mut buf).is_ok() && peer.write_all(&buf).is_ok() {}
        });
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(HostProbe {
            stream,
            echo: Some(echo),
        })
    }

    /// Median round trip of an 8-byte ping-pong between two threads, µs.
    pub fn tcp_rtt_p50_us(&mut self, plan: LadderPlan) -> Result<f64, String> {
        let mut buf = [0u8; 8];
        let ns = slice(plan, || {
            self.stream
                .write_all(&buf)
                .and_then(|()| self.stream.read_exact(&mut buf))
                .map_err(|e| format!("ping: {e}"))
        })?;
        Ok(p50_us(&ns))
    }

    /// A fixed integer loop, ms.
    pub fn spin_ms() -> f64 {
        let t0 = Instant::now();
        let mut x = 1u64;
        for i in 0..SPIN_ITERS {
            x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        black_box(x);
        t0.elapsed().as_secs_f64() * 1e3
    }
}

impl Drop for HostProbe {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(h) = self.echo.take() {
            let _ = h.join();
        }
    }
}

/// The echo dispatcher of the traced run: benchmark code, so it can file a
/// `server_dispatch` span under the call id the request carries.
struct TracedEcho {
    log: Arc<SpanLog>,
    on: AtomicBool,
}

impl Dispatcher for TracedEcho {
    fn dispatch(&self, _caller: SpaceId, _target: WireRep, _method: u32, args: &[u8]) -> Dispatch {
        Dispatch::plain(Ok(args.to_vec()))
    }

    fn dispatch_cx(
        &self,
        cx: DispatchCx,
        caller: SpaceId,
        target: WireRep,
        method: u32,
        args: &[u8],
    ) -> Dispatch {
        if !self.on.load(Ordering::Relaxed) {
            return self.dispatch(caller, target, method, args);
        }
        let start = self.log.now_ns();
        let out = self.dispatch(caller, target, method, args);
        // The hand-assembled caller sends its call id as the trace id.
        self.log
            .record("server_dispatch", Some("wait"), cx.trace_id, start);
        out
    }
}

/// A call assembled by hand from the lower layers' public functions, each
/// step wrapped in a span when `log` is given.
struct HandCaller {
    conn: Box<dyn Conn>,
    caller: SpaceId,
    next_id: u64,
}

impl HandCaller {
    fn call(&mut self, blob: Option<&[u8]>, log: Option<&SpanLog>) -> Result<(), String> {
        self.next_id += 1;
        let id = self.next_id;
        let now = || log.map_or(0, SpanLog::now_ns);
        let mark = |name: &'static str, start: u64| {
            if let Some(log) = log {
                log.record(name, Some("call"), id, start);
            }
        };
        let t_call = now();

        let t = now();
        let mut w = PickleWriter::new();
        match blob {
            Some(bytes) => w.put_bytes(bytes),
            None => w.put_unit(),
        }
        let args = Bytes::from(w.into_bytes());
        mark("wire_marshal", t);

        let t = now();
        let frame = RpcMsg::Request(Request {
            call_id: id,
            caller: self.caller,
            target: WireRep::new(self.caller, ObjIx::FIRST_USER),
            method: 0,
            args,
            trace_id: id,
            span_id: id,
        })
        .encode();
        mark("rpc_encode", t);

        let t = now();
        self.conn.send(frame).map_err(|e| format!("send: {e}"))?;
        mark("transport_send", t);

        let t = now();
        let frame = self.conn.recv().map_err(|e| format!("recv: {e}"))?;
        mark("wait", t);

        let t = now();
        let reply = match RpcMsg::decode(&frame).map_err(|e| format!("decode: {e}"))? {
            RpcMsg::Reply(r) if r.call_id == id => r,
            other => return Err(format!("expected reply {id}, got {other:?}")),
        };
        let result = reply.outcome.map_err(|e| format!("remote: {e:?}"))?;
        mark("rpc_decode", t);

        let t = now();
        let mut r = PickleReader::new(&result);
        let echoed = match blob {
            Some(bytes) => r.get_bytes().map(|b| b.to_vec() == bytes),
            None => r.get_unit().map(|()| true),
        };
        mark("wire_unmarshal", t);
        if let Some(log) = log {
            log.record("call", None, id, t_call);
        }
        match echoed {
            Ok(true) => Ok(()),
            other => Err(format!("hand call {id}: wrong echo ({other:?})")),
        }
    }
}

/// Median self time per span and the share of the call the seven cover.
fn trace_metrics(shape: &str, all: &[spans::Span], out: &mut BTreeMap<String, f64>) {
    let requests = spans::per_request(all);
    for name in TRACE_SPANS {
        let selfs: Vec<f64> = requests
            .iter()
            .filter_map(|r| r.self_ns.get(name).map(|&ns| ns as f64))
            .collect();
        out.insert(format!("trace.{shape}.{name}_self_ns"), median(&selfs));
    }
    let shares: Vec<f64> = requests
        .iter()
        .filter(|r| r.root_ns > 0)
        .map(|r| {
            let covered: u64 = TRACE_SPANS.iter().filter_map(|n| r.self_ns.get(n)).sum();
            covered as f64 / r.root_ns as f64 * 100.0
        })
        .collect();
    out.insert(format!("trace.{shape}.sum_vs_call_pct"), median(&shares));
}

fn write_trace(dir: &Path, shape: &str, all: &[spans::Span]) {
    let newest = &all[all.len().saturating_sub(TRACE_FILE_SPANS)..];
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        std::fs::write(
            dir.join(format!("trace-{shape}.json")),
            spans::to_json(newest).pretty(),
        )
    });
    if let Err(e) = written {
        eprintln!(
            "benchmark: cannot write trace file in {}: {e}",
            dir.display()
        );
    }
}

fn pure_functions(inputs: &Inputs, rounds: &mut Rounds) {
    let blob = &inputs.payload;
    let small = &inputs.echoes[0];
    let wirerep = WireRep::new(SpaceId::fresh(), ObjIx(42));

    let mut w = PickleWriter::with_capacity(blob.len() + 16);
    rounds.push(
        "wire.pickle_enc_ten_ints_ns",
        ns_per_iter(SMALL_ITERS, || {
            w.clear();
            for i in 0..10i64 {
                w.put_i64(black_box(i * 1_000_003));
            }
            black_box(w.len());
        }),
    );
    let ten = w.as_bytes().to_vec();
    rounds.push(
        "wire.pickle_dec_ten_ints_ns",
        ns_per_iter(SMALL_ITERS, || {
            let mut r = PickleReader::new(black_box(&ten));
            for _ in 0..10 {
                black_box(r.get_i64().expect("ten ints"));
            }
        }),
    );
    rounds.push(
        "wire.pickle_enc_wirerep_ns",
        ns_per_iter(SMALL_ITERS, || {
            w.clear();
            w.put_wirerep(black_box(wirerep));
            black_box(w.len());
        }),
    );
    let rep = w.as_bytes().to_vec();
    rounds.push(
        "wire.pickle_dec_wirerep_ns",
        ns_per_iter(SMALL_ITERS, || {
            black_box(
                PickleReader::new(black_box(&rep))
                    .get_wirerep()
                    .expect("wirerep"),
            );
        }),
    );
    rounds.push(
        "wire.pickle_enc_blob64k_ns",
        ns_per_iter(BULK_ITERS, || {
            w.clear();
            w.put_bytes(black_box(blob));
            black_box(w.len());
        }),
    );
    let pickled = w.as_bytes().to_vec();
    rounds.push(
        "wire.pickle_dec_blob64k_ns",
        ns_per_iter(BULK_ITERS, || {
            black_box(Blob::from_pickle_bytes(black_box(&pickled)).expect("blob"));
        }),
    );

    let mut out = BytesMut::with_capacity(blob.len() + 16);
    for (size, payload, iters) in [("64b", small, SMALL_ITERS), ("64k", blob, BULK_ITERS)] {
        rounds.push(
            &format!("wire.frame_enc_{size}_ns"),
            ns_per_iter(iters, || {
                out.clear();
                encode_frame(&mut out, black_box(payload)).expect("frame");
                black_box(out.len());
            }),
        );
        let framed = out.to_vec();
        let mut decoder = FrameDecoder::default();
        rounds.push(
            &format!("wire.frame_dec_{size}_ns"),
            ns_per_iter(iters, || {
                // Fed as the reactor reads: 16 KiB at a time.
                for chunk in black_box(&framed).chunks(16 * 1024) {
                    decoder.extend(chunk);
                }
                black_box(decoder.next_frame().expect("frame").expect("complete"));
            }),
        );
    }

    let caller = SpaceId::fresh();
    let cases = [
        ("null", Bytes::new(), SMALL_ITERS),
        ("blob64k", Bytes::from(pickled), BULK_ITERS),
    ];
    for (shape, args, iters) in cases {
        let msg = RpcMsg::Request(Request {
            call_id: 7,
            caller,
            target: WireRep::new(caller, ObjIx::FIRST_USER),
            method: 0,
            args,
            trace_id: 1,
            span_id: 2,
        });
        rounds.push(
            &format!("rpc.msg_enc_{shape}_ns"),
            ns_per_iter(iters, || {
                black_box(black_box(&msg).encode());
            }),
        );
        let frame = msg.encode();
        rounds.push(
            &format!("rpc.msg_dec_{shape}_ns"),
            ns_per_iter(iters, || {
                black_box(RpcMsg::decode(black_box(&frame)).expect("msg"));
            }),
        );
    }
}

fn rpc_error(e: impl std::fmt::Debug) -> String {
    format!("call: {e:?}")
}

fn wakeups(server: &RpcServer) -> u64 {
    server.reactor_stats().map_or(0, |r| r.wakeups)
}

/// Everything the ladder keeps open across rounds.
struct Ladder {
    host: HostProbe,
    echo_server: RpcServer,
    echo_ep: Endpoint,
    raw: RawClient,
    pipelined: RawClient,
    client: Arc<CallClient>,
    rig: SpaceRig,
    traced_server: RpcServer,
    traced: Arc<TracedEcho>,
    hand: HandCaller,
    agent_host: netobj::Space,
    target: WireRep,
    blob: Bytes,
}

impl Ladder {
    fn start(inputs: &Inputs) -> Result<Ladder, String> {
        let echo_server = start_server(Arc::new(Echo))?;
        let echo_ep = echo_server.local_endpoint();
        let connect = |ep: &Endpoint| Tcp.connect(ep).map_err(|e| format!("connect: {e}"));
        let raw_connect =
            || RawClient::connect(echo_ep.addr()).map_err(|e| format!("connect: {e}"));
        let caller = SpaceId::fresh();

        let traced = Arc::new(TracedEcho {
            log: Arc::new(SpanLog::new()),
            on: AtomicBool::new(false),
        });
        let traced_server = start_server(Arc::clone(&traced) as Arc<dyn Dispatcher>)?;
        let hand = HandCaller {
            conn: connect(&traced_server.local_endpoint())?,
            caller,
            next_id: 0,
        };

        // A space that serves an agent with `benchmark.Svc` bound in it:
        // what a fresh client's first bind goes through.
        let rig = SpaceRig::new(inputs.content.clone())?;
        let (agent_host, svc) = serve_svc(inputs.content.clone())?;
        netobj_agent::serve(&agent_host)
            .and_then(|agent| agent.put("svc".into(), svc))
            .map_err(rpc_error)?;

        Ok(Ladder {
            host: HostProbe::start()?,
            raw: raw_connect()?,
            pipelined: raw_connect()?,
            client: CallClient::new(Arc::from(connect(&echo_ep)?), caller),
            rig,
            traced_server,
            traced,
            hand,
            agent_host,
            target: WireRep::new(caller, ObjIx::FIRST_USER),
            blob: Bytes::from(inputs.payload.clone()),
            echo_server,
            echo_ep,
        })
    }

    fn round(&mut self, plan: LadderPlan, rounds: &mut Rounds) -> Result<(), String> {
        rounds.push("host.spin_ms", HostProbe::spin_ms());
        rounds.push("host.tcp_rtt_p50_us", self.host.tcp_rtt_p50_us(plan)?);

        // The same echo at three heights, null then 64 KiB: raw frames to
        // the server (R1), through CallClient (R2), through stubs (R3).
        let empty = Bytes::new();
        for (suffix, args) in [("", &empty), ("_64k", &self.blob)] {
            let w0 = wakeups(&self.echo_server);
            let ns = slice(plan, || {
                let reply = self.raw.call(args).map_err(rpc_error)?;
                matches!(&reply.outcome, Ok(b) if b == args)
                    .then_some(())
                    .ok_or_else(|| "raw echo differs".to_string())
            })?;
            if suffix.is_empty() {
                rounds.push(
                    "transport.wakeups_per_frame_depth1",
                    (wakeups(&self.echo_server) - w0) as f64 / ns.len().max(1) as f64,
                );
            }
            rounds.push(&format!("rpc.server_rtt{suffix}_p50_us"), p50_us(&ns));

            let ns = slice(plan, || {
                let got = self
                    .client
                    .call(self.target, 0, args.clone())
                    .map_err(rpc_error)?;
                (&got == args)
                    .then_some(())
                    .ok_or_else(|| "client echo differs".to_string())
            })?;
            rounds.push(&format!("rpc.client_rtt{suffix}_p50_us"), p50_us(&ns));

            let svc = &self.rig.svc;
            let ns = if suffix.is_empty() {
                slice(plan, || svc.null().map_err(rpc_error))?
            } else {
                slice(plan, || {
                    let got = svc.echo(Blob(args.to_vec())).map_err(rpc_error)?;
                    (got.0 == args[..])
                        .then_some(())
                        .ok_or_else(|| "stub echo differs".to_string())
                })?
            };
            rounds.push(&format!("core.stub_rtt{suffix}_p50_us"), p50_us(&ns));
        }
        let (host, r1) = (
            rounds.last("host.tcp_rtt_p50_us"),
            rounds.last("rpc.server_rtt_p50_us"),
        );
        let (r2, r3) = (
            rounds.last("rpc.client_rtt_p50_us"),
            rounds.last("core.stub_rtt_p50_us"),
        );
        rounds.push("rpc.server_tax_us", r1 - host);
        rounds.push("rpc.client_tax_us", r2 - r1);
        rounds.push("core.tax_us", r3 - r2);

        // R1 again with 16 outstanding, for the reactor's wake-up count.
        let w0 = wakeups(&self.echo_server);
        let windows = slice(plan, || {
            for _ in 0..PIPELINE_DEPTH {
                self.pipelined.queue(&empty).map_err(rpc_error)?;
            }
            self.pipelined.flush().map_err(rpc_error)?;
            for _ in 0..PIPELINE_DEPTH {
                self.pipelined.recv_reply().map_err(rpc_error)?;
            }
            Ok(())
        })?;
        rounds.push(
            "transport.wakeups_per_frame_depth16",
            (wakeups(&self.echo_server) - w0) as f64
                / (windows.len() * PIPELINE_DEPTH).max(1) as f64,
        );

        // Hand-assembled calls: spans on, spans off (the overhead), then
        // the 64 KiB shape with spans on.
        let log = Arc::clone(&self.traced.log);
        self.traced.on.store(true, Ordering::Relaxed);
        let on = slice(plan, || self.hand.call(None, Some(&log)))?.len();
        self.traced.on.store(false, Ordering::Relaxed);
        let off = slice(plan, || self.hand.call(None, None))?.len();
        rounds.push(
            "trace.overhead_pct",
            (off as f64 - on as f64) / off.max(1) as f64 * 100.0,
        );
        Ok(())
    }

    fn blob_trace_slice(&mut self, plan: LadderPlan) -> Result<(), String> {
        let log = Arc::clone(&self.traced.log);
        let blob = self.blob.clone();
        self.traced.on.store(true, Ordering::Relaxed);
        slice(plan, || self.hand.call(Some(&blob), Some(&log)))?;
        self.traced.on.store(false, Ordering::Relaxed);
        Ok(())
    }

    fn setup_costs(
        &mut self,
        rounds: &mut Rounds,
        samples: &mut SetupSamples,
    ) -> Result<(), String> {
        for _ in 0..CONN_CYCLES {
            let t0 = Instant::now();
            let conn = Tcp.connect(&self.echo_ep).map_err(rpc_error)?;
            let client = CallClient::new(Arc::from(conn), SpaceId::fresh());
            client
                .call(self.target, 0, Bytes::new())
                .map_err(rpc_error)?;
            client.close();
            samples.conn_ns.push(t0.elapsed().as_nanos() as f64);
        }
        let agent_ep = self
            .agent_host
            .endpoint()
            .ok_or("agent host not listening")?;
        for _ in 0..BIND_CYCLES {
            let t0 = Instant::now();
            let fresh = netobj::Space::builder()
                .transport(Arc::new(Tcp))
                .build()
                .map_err(rpc_error)?;
            let handle = netobj_agent::connect(&fresh, &agent_ep)
                .and_then(|agent| agent.get("svc".into()))
                .map_err(rpc_error)?
                .ok_or("agent has no svc")?;
            SvcClient::narrow(handle)
                .and_then(|svc| svc.null())
                .map_err(rpc_error)?;
            samples.bind_ns.push(t0.elapsed().as_nanos() as f64);
            fresh.shutdown();
        }
        let local = new_counter(&self.rig.client).map_err(rpc_error)?;
        rounds.push(
            "core.local_dispatch_ns",
            ns_per_iter(LOCAL_CALLS, || {
                black_box(local.add(black_box(1)).expect("local call"));
            }),
        );
        Ok(())
    }

    fn stop(mut self) {
        self.client.close();
        drop(self.raw);
        drop(self.pipelined);
        self.hand.conn.close();
        self.echo_server.stop();
        self.traced_server.stop();
        self.rig.shutdown();
        self.agent_host.shutdown();
    }
}

#[derive(Default)]
struct SetupSamples {
    conn_ns: Vec<f64>,
    bind_ns: Vec<f64>,
}

/// Runs the ladder, the pure functions and the spanned calls; returns
/// every workload-independent per-layer metric by name. Trace files go to
/// `trace_dir` when the run ends.
pub fn run(seed: u64, plan: LadderPlan, trace_dir: &Path) -> Result<BTreeMap<String, f64>, String> {
    let inputs = Inputs::generate(seed);
    let mut ladder = Ladder::start(&inputs)?;
    let mut rounds = Rounds::default();
    let mut samples = SetupSamples::default();
    let mut null_spans = Vec::new();
    let mut blob_spans = Vec::new();
    for _ in 0..plan.rounds {
        ladder.round(plan, &mut rounds)?;
        null_spans.append(&mut ladder.traced.log.take());
        ladder.blob_trace_slice(plan)?;
        blob_spans.append(&mut ladder.traced.log.take());
        pure_functions(&inputs, &mut rounds);
        ladder.setup_costs(&mut rounds, &mut samples)?;
    }
    ladder.stop();

    let mut out = rounds.medians();
    out.insert(
        "rpc.conn_setup_p50_us".into(),
        median(&samples.conn_ns) / 1e3,
    );
    out.insert("agent.bind_p50_us".into(), median(&samples.bind_ns) / 1e3);
    trace_metrics("null", &null_spans, &mut out);
    trace_metrics("blob", &blob_spans, &mut out);
    write_trace(trace_dir, "null", &null_spans);
    write_trace(trace_dir, "blob", &blob_spans);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_short_round_yields_every_layer_metric() {
        let plan = LadderPlan {
            rounds: 1,
            slice: Duration::from_millis(20),
        };
        let dir = crate::trace_dir().join("unit-test");
        let out = run(1, plan, &dir).unwrap();
        assert!(dir.join("trace-null.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
        for name in crate::names::LAYER_METRICS {
            assert!(out.contains_key(name.name), "{} missing", name.name);
        }
        assert_eq!(out.len(), crate::names::LAYER_METRICS.len());
        let share = out["trace.null.sum_vs_call_pct"];
        assert!((50.0..=100.5).contains(&share), "span sum {share}% of call");
        assert!(
            out["transport.wakeups_per_frame_depth16"] < out["transport.wakeups_per_frame_depth1"]
        );
    }
}
