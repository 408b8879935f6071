//! The four closed-loop workloads and the one repetition that measures any
//! of them: warm up, measure a fixed window, drain, report.
//!
//! Both ends run in this process over TCP on 127.0.0.1, with the serving
//! end on the reactor (a rig refuses to run otherwise). One generator
//! thread drives each loop; on the 2-vCPU sandbox the program's own
//! reactor, demux and worker threads need the other core.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use netobj::{network_object, Handle, NetResult, Space};
use netobj_rpc::msg::{Reply, Request, RpcMsg};
use netobj_rpc::{Dispatch, Dispatcher, RpcServer, ServerConfig};
use netobj_transport::tcp::Tcp;
use netobj_transport::{Bytes, Endpoint, Transport};
use netobj_wire::frame::{encode_frame, FrameDecoder};
use netobj_wire::pickle::Blob;
use netobj_wire::{ObjIx, SpaceId, WireRep};

use crate::stats::{checksum, percentile, Rng};
use crate::{alloc, host};

/// Bytes in one bulk payload.
pub const BLOB_LEN: usize = 64 * 1024;
/// Requests `pipelined_tcp` keeps outstanding.
pub const PIPELINE_DEPTH: usize = 16;
/// Live references `refs_tcp` holds; a new import evicts a seeded slot.
pub const LIVE_WINDOW: usize = 32;
/// How long a drain may take before what is left counts as leaked.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);
/// One `get` reply in this many has its content checksummed (its length is
/// checked every time).
const VERIFY_EVERY: u64 = 64;
/// `pipelined_tcp` times one reply in this many; coprime to the depth, so
/// every position in the window is sampled equally.
const PIPELINE_SAMPLE_EVERY: u64 = 5;
/// Length of the slices a window is cut into.
const SLICE: Duration = Duration::from_millis(100);
/// Latency samples kept per slice: its first this many. Enough for a
/// slice's p50 and p90, and a limit per slice — not per window — so that
/// however fast the program or long the window, every slice has samples
/// and the generator's memory stays small beside the program's.
const SAMPLES_PER_SLICE: usize = 4096;

// The benchmark owns its interface, so edits to `netobj_bench::BenchImpl`
// cannot shift its numbers.
network_object! {
    /// The transferable reference of `refs_tcp`.
    pub interface Counter ("benchmark.Counter"): client CounterClient, export CounterExport {
        0 => fn add(&self, n: i64) -> i64;
    }
}

network_object! {
    /// The service every `Space` workload and ladder rung calls.
    pub interface Svc ("benchmark.Svc"): client SvcClient, export SvcExport {
        0 => fn null(&self) -> ();
        1 => fn put(&self, b: Blob) -> u64;
        2 => fn get(&self, n: u64) -> Blob;
        3 => fn mint(&self) -> CounterClient;
        4 => fn take(&self, c: CounterClient) -> ();
        5 => fn echo(&self, b: Blob) -> Blob;
    }
}

struct CounterImpl(Mutex<i64>);

impl Counter for CounterImpl {
    fn add(&self, n: i64) -> NetResult<i64> {
        let mut v = self.0.lock().expect("counter lock");
        *v += n;
        Ok(*v)
    }
}

pub fn new_counter(space: &Space) -> NetResult<CounterClient> {
    let obj = CounterExport(Arc::new(CounterImpl(Mutex::new(0))));
    CounterClient::narrow(space.local(Arc::new(obj)))
}

struct SvcImpl {
    /// The serving space, which `mint` allocates in.
    space: OnceLock<Space>,
    /// What `get` serves: generated from the seed, like every input.
    content: Vec<u8>,
}

impl Svc for SvcImpl {
    fn null(&self) -> NetResult<()> {
        Ok(())
    }
    fn put(&self, b: Blob) -> NetResult<u64> {
        Ok(b.0.len() as u64)
    }
    fn get(&self, n: u64) -> NetResult<Blob> {
        let n = usize::try_from(n).unwrap_or(usize::MAX);
        let part = self
            .content
            .get(..n)
            .ok_or_else(|| netobj::Error::app("get: longer than the content"))?;
        Ok(Blob(part.to_vec()))
    }
    fn mint(&self) -> NetResult<CounterClient> {
        new_counter(self.space.get().expect("space wired before export"))
    }
    fn take(&self, c: CounterClient) -> NetResult<()> {
        drop(c);
        Ok(())
    }
    fn echo(&self, b: Blob) -> NetResult<Blob> {
        Ok(b)
    }
}

fn tcp_space() -> Result<Space, String> {
    Space::builder()
        .transport(Arc::new(Tcp))
        .listen(Endpoint::tcp("127.0.0.1:0"))
        .build()
        .map_err(|e| format!("space: {e}"))
}

/// A listening space that exports `benchmark.Svc` as its first object;
/// `get` serves `content`. Returns the owner's handle on the service too.
pub fn serve_svc(content: Vec<u8>) -> Result<(Space, Handle), String> {
    let server = tcp_space()?;
    let service = Arc::new(SvcImpl {
        space: OnceLock::new(),
        content,
    });
    let _ = service.space.set(server.clone());
    let handle = server
        .export(Arc::new(SvcExport(service)))
        .map_err(|e| format!("export: {e}"))?;
    Ok((server, handle))
}

/// Two spaces over TCP with `benchmark.Svc` exported by one and bound by
/// the other. Both listen: `refs_tcp` makes the server call back.
pub struct SpaceRig {
    pub server: Space,
    pub client: Space,
    pub svc: SvcClient,
    /// Exports and imports of both tables right after binding.
    baseline: [usize; 4],
}

impl SpaceRig {
    pub fn new(content: Vec<u8>) -> Result<SpaceRig, String> {
        let (server, _) = serve_svc(content)?;
        let client = tcp_space()?;
        let ep = server.endpoint().ok_or("server space is not listening")?;
        let svc = client
            .import_root(&ep, ObjIx::FIRST_USER)
            .and_then(SvcClient::narrow)
            .map_err(|e| format!("bind: {e}"))?;
        svc.null().map_err(|e| format!("first call: {e}"))?;
        if server.metrics().gauges.reactor_connections < 1 {
            return Err("server space is not on the reactor; refusing to measure".into());
        }
        let mut rig = SpaceRig {
            server,
            client,
            svc,
            baseline: [0; 4],
        };
        rig.baseline = rig.table_sizes();
        Ok(rig)
    }

    fn table_sizes(&self) -> [usize; 4] {
        [
            self.server.exported_count(),
            self.server.imported_count(),
            self.client.exported_count(),
            self.client.imported_count(),
        ]
    }

    /// Exports held beyond the baseline, summed over both spaces.
    fn export_backlog(&self) -> u64 {
        let now = self.table_sizes();
        (now[0].saturating_sub(self.baseline[0]) + now[2].saturating_sub(self.baseline[2])) as u64
    }

    /// Waits for both object tables to return to their sizes at binding;
    /// entries still there at the limit are leaked.
    fn drain(&self) -> Drained {
        let excess = || -> u64 {
            let now = self.table_sizes();
            (0..4)
                .map(|i| now[i].saturating_sub(self.baseline[i]) as u64)
                .sum()
        };
        let t0 = Instant::now();
        while excess() > 0 && t0.elapsed() < DRAIN_LIMIT {
            std::thread::sleep(Duration::from_micros(500));
        }
        Drained {
            lag: t0.elapsed(),
            leaked: excess(),
        }
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for space in [&self.server, &self.client] {
            let m = space.metrics();
            let (s, g) = (m.stats, m.gauges);
            c.frames_flushed += g.reactor_frames_flushed;
            c.flush_syscalls += g.reactor_flush_syscalls;
            c.readiness_high_water = c.readiness_high_water.max(g.reactor_readiness_high_water);
            c.queue_high_water = c.queue_high_water.max(g.server_queue_high_water);
            // The client's pool holds the call connection, the server's
            // the call-back connection of `refs_tcp`.
            c.pool_connections += g.pool_connections;
            c.shed += s.calls_shed_global + s.calls_shed_quota;
            c.rejected += s.calls_rejected;
            c.retries += s.retries_attempted;
            c.calls_served += s.calls_served;
            c.dirty += s.dirty_sent;
            c.clean += s.clean_sent;
            c.clean_batches += s.clean_batches;
            c.gc_msgs += s.gc_messages_sent();
            c.surrogates += s.surrogates_created;
            c.blocked_ns += s.blocked_ns;
        }
        c
    }

    pub fn shutdown(self) {
        drop(self.svc);
        self.client.shutdown();
        self.server.shutdown();
    }
}

struct Drained {
    lag: Duration,
    /// Table entries beyond the baseline when the drain gave up; 0 = clean.
    leaked: u64,
}

/// Public counters of the program, read through its accessors before and
/// after a window. Totals unless named a high-water mark or a gauge.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    frames_flushed: u64,
    flush_syscalls: u64,
    readiness_high_water: u64,
    pool_connections: u64,
    queue_high_water: u64,
    shed: u64,
    rejected: u64,
    retries: u64,
    calls_served: u64,
    dirty: u64,
    clean: u64,
    clean_batches: u64,
    gc_msgs: u64,
    surrogates: u64,
    blocked_ns: u64,
}

/// The echo server of `pipelined_tcp` and of the ladder's `rpc` rungs.
pub struct Echo;

impl Dispatcher for Echo {
    fn dispatch(&self, _caller: SpaceId, _target: WireRep, _method: u32, args: &[u8]) -> Dispatch {
        Dispatch::plain(Ok(args.to_vec()))
    }
}

/// Starts `dispatcher` on a fresh 127.0.0.1 port, refusing a server that
/// did not come up on the reactor.
pub fn start_server(dispatcher: Arc<dyn Dispatcher>) -> Result<RpcServer, String> {
    let listener = Tcp
        .listen(&Endpoint::tcp("127.0.0.1:0"))
        .map_err(|e| format!("listen: {e}"))?;
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let server = RpcServer::start_with_config(listener, dispatcher, config);
    if server.reactor_stats().is_none() {
        return Err("RpcServer is not on the reactor; refusing to measure".into());
    }
    Ok(server)
}

/// A client that speaks frames and `RpcMsg` straight onto a `TcpStream`,
/// bypassing `CallClient`: what loads the server side alone.
pub struct RawClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: BytesMut,
    chunk: Vec<u8>,
    caller: SpaceId,
    next_id: u64,
}

impl RawClient {
    pub fn connect(addr: &str) -> io::Result<RawClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A stuck server fails the run instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(RawClient {
            stream,
            decoder: FrameDecoder::default(),
            out: BytesMut::new(),
            chunk: vec![0; 64 * 1024],
            caller: SpaceId::fresh(),
            next_id: 0,
        })
    }

    /// Frames one echo request into the outgoing buffer; returns its id.
    pub fn queue(&mut self, args: &Bytes) -> io::Result<u64> {
        self.next_id += 1;
        let msg = RpcMsg::Request(Request {
            call_id: self.next_id,
            caller: self.caller,
            target: WireRep::new(self.caller, ObjIx::FIRST_USER),
            method: 0,
            args: args.clone(),
            trace_id: 0,
            span_id: 0,
        });
        encode_frame(&mut self.out, &msg.encode()).map_err(io::Error::other)?;
        Ok(self.next_id)
    }

    /// Writes everything queued in one `write_all`.
    pub fn flush(&mut self) -> io::Result<()> {
        self.stream.write_all(&self.out)?;
        self.out.clear();
        Ok(())
    }

    pub fn recv_reply(&mut self) -> io::Result<Reply> {
        loop {
            while let Some(frame) = self.decoder.next_frame().map_err(io::Error::other)? {
                if let RpcMsg::Reply(reply) = RpcMsg::decode(&frame).map_err(io::Error::other)? {
                    if reply.needs_ack {
                        self.stream
                            .write_all(&frame_of(&RpcMsg::ReplyAck(reply.call_id))?)?;
                    }
                    return Ok(reply);
                }
            }
            let n = self.stream.read(&mut self.chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.decoder.extend(&self.chunk[..n]);
        }
    }

    /// One request, one reply: depth 1.
    pub fn call(&mut self, args: &Bytes) -> io::Result<Reply> {
        self.queue(args)?;
        self.flush()?;
        self.recv_reply()
    }
}

fn frame_of(msg: &RpcMsg) -> io::Result<BytesMut> {
    let mut out = BytesMut::new();
    encode_frame(&mut out, &msg.encode()).map_err(io::Error::other)?;
    Ok(out)
}

/// What one repetition's loop accumulates.
pub struct Recorder {
    pub attempted: u64,
    pub failed: u64,
    /// Latency of each successful op, ns.
    op_ns: Vec<u32>,
    /// The two halves of an op where it has them (put/get, import/export).
    half_ns: [Vec<u32>; 2],
    /// Samples the current slice may still take.
    slice_room: usize,
    export_backlog_peak: u64,
}

fn as_ns(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

impl Recorder {
    /// Room for every sample of a `window`, so no push allocates inside it.
    fn new(window: Duration) -> Recorder {
        let slices = (window.as_nanos() / SLICE.as_nanos()) as usize + 1;
        let room = || Vec::with_capacity(slices * SAMPLES_PER_SLICE);
        Recorder {
            attempted: 0,
            failed: 0,
            op_ns: room(),
            half_ns: [room(), room()],
            slice_room: SAMPLES_PER_SLICE,
            export_backlog_peak: 0,
        }
    }

    fn reset(&mut self) {
        self.attempted = 0;
        self.failed = 0;
        self.op_ns.clear();
        self.half_ns.iter_mut().for_each(Vec::clear);
        self.slice_room = SAMPLES_PER_SLICE;
        self.export_backlog_peak = 0;
    }

    /// Closes a slice; returns where the next one's samples start.
    fn next_slice(&mut self) -> usize {
        self.slice_room = SAMPLES_PER_SLICE;
        self.op_ns.len()
    }

    /// Keeps the latency of a successful op if the slice has room; says
    /// whether it did.
    fn sample(&mut self, whole: Duration) -> bool {
        let room = self.slice_room > 0;
        if room {
            self.slice_room -= 1;
            self.op_ns.push(as_ns(whole));
        }
        room
    }

    fn op(&mut self, ok: bool, whole: Duration) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok && self.sample(whole)
    }

    fn op_in_halves(&mut self, ok: bool, first: Duration, second: Duration) {
        if self.op(ok, first + second) {
            self.half_ns[0].push(as_ns(first));
            self.half_ns[1].push(as_ns(second));
        }
    }
}

/// A workload's closed loop, one unit at a time.
trait Driver {
    /// One op — or, on `pipelined_tcp`, one window of 16.
    fn step(&mut self, rec: &mut Recorder);
    fn counters(&self) -> Counters;
    /// Lets go of everything the loop holds and waits for the program to
    /// return to its state at binding.
    fn drain(&mut self) -> Drained;
    fn shutdown(self: Box<Self>);
}

/// One op of a workload that runs between two spaces.
trait SpaceOp {
    fn op(&mut self, rig: &SpaceRig, rec: &mut Recorder);
    /// Lets go of every reference the op holds, before a drain.
    fn release(&mut self) {}
}

/// The driver of the three `Space` workloads: a rig and what to do on it.
struct OverSpaces<O> {
    rig: SpaceRig,
    op: O,
}

impl<O: SpaceOp> Driver for OverSpaces<O> {
    fn step(&mut self, rec: &mut Recorder) {
        self.op.op(&self.rig, rec);
    }
    fn counters(&self) -> Counters {
        self.rig.counters()
    }
    fn drain(&mut self) -> Drained {
        self.op.release();
        self.rig.drain()
    }
    fn shutdown(self: Box<Self>) {
        self.rig.shutdown();
    }
}

struct NullOp;

impl SpaceOp for NullOp {
    fn op(&mut self, rig: &SpaceRig, rec: &mut Recorder) {
        let t0 = Instant::now();
        // Unit is the only value `()` has; a reply that decodes is correct.
        let ok = rig.svc.null().is_ok();
        rec.op(ok, t0.elapsed());
    }
}

struct BlobOp {
    payload: Vec<u8>,
    content_sum: u64,
    ops: u64,
}

impl SpaceOp for BlobOp {
    fn op(&mut self, rig: &SpaceRig, rec: &mut Recorder) {
        self.ops += 1;
        // The stub takes its argument by value: the copy is the caller's
        // cost of handing over a buffer it keeps, and is part of the op.
        let t0 = Instant::now();
        let put = rig.svc.put(Blob(self.payload.clone()));
        let t1 = Instant::now();
        let got = rig.svc.get(BLOB_LEN as u64);
        let t2 = Instant::now();
        let ok = matches!(put, Ok(n) if n == BLOB_LEN as u64)
            && matches!(&got, Ok(b) if b.0.len() == BLOB_LEN
                && (!self.ops.is_multiple_of(VERIFY_EVERY) || checksum(&b.0) == self.content_sum));
        rec.op_in_halves(ok, t1 - t0, t2 - t1);
    }
}

struct RefsOp {
    slots: Vec<Option<CounterClient>>,
    rng: Rng,
    ops: u64,
}

impl RefsOp {
    fn import(&mut self, rig: &SpaceRig) -> bool {
        // A fresh remote counter: surrogate plus a blocking dirty call.
        let Ok(counter) = rig.svc.mint() else {
            return false;
        };
        let first = counter.add(1);
        // Evicting the previous occupant drops its last handle: clean call.
        let slot = self.rng.below(LIVE_WINDOW as u64) as usize;
        self.slots[slot] = Some(counter);
        matches!(first, Ok(1))
    }

    fn export(rig: &SpaceRig) -> bool {
        // A fresh local counter: the server turns client, sends dirty back
        // here, drops the reference at once, sends clean.
        new_counter(&rig.client)
            .and_then(|c| rig.svc.take(c))
            .is_ok()
    }
}

impl SpaceOp for RefsOp {
    fn op(&mut self, rig: &SpaceRig, rec: &mut Recorder) {
        self.ops += 1;
        let t0 = Instant::now();
        let imported = self.import(rig);
        let t1 = Instant::now();
        let exported = Self::export(rig);
        let t2 = Instant::now();
        rec.op_in_halves(imported && exported, t1 - t0, t2 - t1);
        if self.ops.is_multiple_of(VERIFY_EVERY) {
            rec.export_backlog_peak = rec.export_backlog_peak.max(rig.export_backlog());
        }
    }
    fn release(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
    }
}

struct PipelinedTcp {
    server: RpcServer,
    client: RawClient,
    /// One distinct seeded payload per position in the window.
    payloads: Vec<Bytes>,
    replies: u64,
}

impl PipelinedTcp {
    /// Writes 16 requests in one write, then reads their 16 replies. Each
    /// id must be answered once, echoing its own request's payload; order
    /// within the window is the server's to choose (it is in order once
    /// the method is classified fast and dispatched inline).
    fn window(&mut self, rec: &mut Recorder) -> io::Result<()> {
        // Ids are consecutive, so a reply's id gives its window position.
        let mut first_id = None;
        for payload in &self.payloads {
            let id = self.client.queue(payload)?;
            first_id.get_or_insert(id);
        }
        let first_id = first_id.unwrap_or(0);
        let t0 = Instant::now();
        self.client.flush()?;
        let mut answered = [false; PIPELINE_DEPTH];
        for _ in 0..PIPELINE_DEPTH {
            let reply = self.client.recv_reply()?;
            let slot = reply.call_id.wrapping_sub(first_id) as usize;
            let ok = slot < PIPELINE_DEPTH
                && !std::mem::replace(&mut answered[slot], true)
                && matches!(&reply.outcome, Ok(b) if *b == self.payloads[slot]);
            self.replies += 1;
            rec.attempted += 1;
            if !ok {
                rec.failed += 1;
            } else if self.replies.is_multiple_of(PIPELINE_SAMPLE_EVERY) {
                rec.sample(t0.elapsed());
            }
        }
        Ok(())
    }
}

impl Driver for PipelinedTcp {
    fn step(&mut self, rec: &mut Recorder) {
        let before = rec.attempted;
        if self.window(rec).is_err() {
            // A broken stream fails the rest of the window once; the next
            // step fails again, so a dead server cannot look idle.
            let missing = PIPELINE_DEPTH as u64 - (rec.attempted - before);
            rec.attempted += missing;
            rec.failed += missing;
        }
    }
    fn counters(&self) -> Counters {
        let r = self.server.reactor_stats().unwrap_or_default();
        Counters {
            frames_flushed: r.frames_flushed,
            flush_syscalls: r.flush_syscalls,
            readiness_high_water: r.readiness_high_water,
            queue_high_water: self.server.queue_high_water() as u64,
            shed: self.server.shed(),
            rejected: self.server.errors(),
            ..Counters::default()
        }
    }
    fn drain(&mut self) -> Drained {
        Drained {
            lag: Duration::ZERO,
            leaked: 0,
        }
    }
    fn shutdown(mut self: Box<Self>) {
        drop(self.client);
        self.server.stop();
    }
}

/// The four workloads, by the names `BENCHMARK.json` gives them.
// The variants are the workloads' names, `_tcp` and all.
#[allow(clippy::enum_variant_names)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NullTcp,
    BlobTcp,
    RefsTcp,
    PipelinedTcp,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::NullTcp,
        Workload::BlobTcp,
        Workload::RefsTcp,
        Workload::PipelinedTcp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NullTcp => "null_tcp",
            Workload::BlobTcp => "blob_tcp",
            Workload::RefsTcp => "refs_tcp",
            Workload::PipelinedTcp => "pipelined_tcp",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops before the window opens, part of `setup_s`: a fixed count, so
    /// set-up does fixed work, sized to about half a second each.
    fn warmup_ops(self) -> u64 {
        match self {
            Workload::NullTcp => 5_000,
            Workload::BlobTcp => 1_000,
            Workload::RefsTcp => 1_000,
            Workload::PipelinedTcp => 50_000,
        }
    }

    /// Application bytes one op delivers, headers excluded.
    fn payload_bytes(self) -> u64 {
        match self {
            Workload::BlobTcp => 2 * BLOB_LEN as u64,
            _ => 0,
        }
    }

    /// Names of the two halves of an op, where it has them.
    fn halves(self) -> Option<[&'static str; 2]> {
        match self {
            Workload::BlobTcp => Some(["gen.put_p50_us", "gen.get_p50_us"]),
            Workload::RefsTcp => Some(["gen.import_p50_us", "gen.export_p50_us"]),
            _ => None,
        }
    }
}

/// Everything a repetition generates from its seed.
#[derive(Debug, PartialEq)]
pub struct Inputs {
    /// What `put` sends.
    pub payload: Vec<u8>,
    /// What `get` serves.
    pub content: Vec<u8>,
    /// The 16 echo payloads of `pipelined_tcp`.
    pub echoes: Vec<Vec<u8>>,
    /// Seeds the slot sequence of `refs_tcp`.
    pub slot_seed: u64,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        Inputs {
            payload: rng.bytes(BLOB_LEN),
            content: rng.bytes(BLOB_LEN),
            echoes: (0..PIPELINE_DEPTH).map(|_| rng.bytes(64)).collect(),
            slot_seed: rng.next_u64(),
        }
    }
}

fn build(workload: Workload, inputs: Inputs) -> Result<Box<dyn Driver>, String> {
    let content_sum = checksum(&inputs.content);
    let rig = || SpaceRig::new(inputs.content.clone());
    Ok(match workload {
        Workload::NullTcp => Box::new(OverSpaces {
            rig: rig()?,
            op: NullOp,
        }),
        Workload::BlobTcp => Box::new(OverSpaces {
            rig: rig()?,
            op: BlobOp {
                payload: inputs.payload,
                content_sum,
                ops: 0,
            },
        }),
        Workload::RefsTcp => Box::new(OverSpaces {
            rig: rig()?,
            op: RefsOp {
                slots: vec![None; LIVE_WINDOW],
                rng: Rng::new(inputs.slot_seed),
                ops: 0,
            },
        }),
        Workload::PipelinedTcp => {
            let server = start_server(Arc::new(Echo))?;
            let client = RawClient::connect(server.local_endpoint().addr())
                .map_err(|e| format!("connect: {e}"))?;
            Box::new(PipelinedTcp {
                server,
                client,
                payloads: inputs.echoes.into_iter().map(Bytes::from).collect(),
                replies: 0,
            })
        }
    })
}

/// One slice of a window: its throughput and which latency samples are its.
struct Slice {
    ops_per_s: f64,
    samples: std::ops::Range<usize>,
}

/// The best slice's value: the highest where higher is better, the lowest
/// where lower is. `None` without slices.
///
/// The host only ever slows the program down, and does so in episodes: on
/// the sandbox VM a null call's per-100-ms median sits at 13.3 µs for
/// seconds, then at 16–19 µs for a few hundred ms while something else
/// has the core's other half. Whole-window figures mix the two in a ratio
/// that drifts by the minute, and in a noisy spell so does any middle
/// quantile of the slices; the best slice is the program's own speed as
/// long as one slice in the window ran undisturbed. A slice is hundreds to
/// thousands of ops, so "best" is a quiet tenth of a second, not a lucky
/// op, and the median over the repetitions sets a freak aside.
fn best_slice(per_slice: &[f64], higher_is_better: bool) -> Option<f64> {
    let better = if higher_is_better { f64::max } else { f64::min };
    per_slice.iter().copied().reduce(better)
}

/// The p50 and the p90, in µs, of every slice that has samples, sorting
/// each slice's samples in place. A slice without any — every op in it
/// failed, or one op outlasted it — is missing, not a latency of 0.
fn slice_latencies(op_ns: &mut [u32], slices: &[Slice]) -> [Vec<f64>; 2] {
    let mut out = [Vec::new(), Vec::new()];
    for slice in slices.iter().filter(|s| !s.samples.is_empty()) {
        let samples = &mut op_ns[slice.samples.clone()];
        samples.sort_unstable();
        out[0].push(p_us(samples, 0.50));
        out[1].push(p_us(samples, 0.90));
    }
    out
}

/// One repetition's outcome: what the parent takes medians of.
pub struct RepResult {
    pub attempted: u64,
    pub failed: u64,
    /// No warm-up op failed and both drains brought the object tables back
    /// to their sizes at binding. Failed ops of the window are in `failed`.
    pub clean: bool,
    pub values: BTreeMap<String, f64>,
}

fn per_op(delta: u64, ops: u64) -> f64 {
    delta as f64 / ops.max(1) as f64
}

fn p_us(sorted: &[u32], q: f64) -> f64 {
    f64::from(percentile(sorted, q)) / 1e3
}

/// Runs one repetition in this process: set up, warm up, measure `window`,
/// drain, and report every end-to-end value and counter delta. With
/// `count_allocs` the counting allocator is on for the window (and the
/// timings are not to be used).
pub fn run_rep(
    workload: Workload,
    seed: u64,
    window: Duration,
    count_allocs: bool,
    process_start: Instant,
) -> Result<RepResult, String> {
    let mut driver = build(workload, Inputs::generate(seed))?;
    let mut rec = Recorder::new(window);
    while rec.attempted < workload.warmup_ops() {
        driver.step(&mut rec);
    }
    let warm_failed = rec.failed;
    // Start from the state at binding, so the window's counter deltas are
    // whole reference life-cycles.
    let warm_drain = driver.drain();
    let setup_s = process_start.elapsed().as_secs_f64();
    rec.reset();

    let counters0 = driver.counters();
    let allocs0 = alloc::counts();
    alloc::set_counting(count_allocs);
    let cpu0 = host::process_cpu_seconds();
    let t0 = Instant::now();
    let mut slices = Vec::new();
    let (mut slice_start, mut slice_ops, mut slice_first) = (Duration::ZERO, 0, 0);
    loop {
        driver.step(&mut rec);
        let now = t0.elapsed();
        if now - slice_start >= SLICE {
            let ops = rec.attempted - rec.failed;
            slices.push(Slice {
                ops_per_s: (ops - slice_ops) as f64 / (now - slice_start).as_secs_f64(),
                samples: slice_first..rec.op_ns.len(),
            });
            (slice_start, slice_ops, slice_first) = (now, ops, rec.next_slice());
        }
        if now >= window {
            break;
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let cpu = host::process_cpu_seconds() - cpu0;
    alloc::set_counting(false);
    let allocs1 = alloc::counts();
    let drained = driver.drain();
    let c = driver.counters();
    driver.shutdown();

    let ops = rec.attempted - rec.failed;
    let mut v = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };
    // Per slice first (each sorts its own samples), then the whole window.
    let slice_rates: Vec<f64> = slices.iter().map(|s| s.ops_per_s).collect();
    let [slice_p50, slice_p90] = slice_latencies(&mut rec.op_ns, &slices);
    rec.op_ns.sort_unstable();
    let window_values = [
        ops as f64 / elapsed,
        p_us(&rec.op_ns, 0.50),
        p_us(&rec.op_ns, 0.90),
    ];
    put("setup_s", setup_s);
    put(
        "op_p50_us",
        best_slice(&slice_p50, false).unwrap_or(window_values[1]),
    );
    put(
        "gen.op_p90_us",
        best_slice(&slice_p90, false).unwrap_or(window_values[2]),
    );
    put("peak_rss_mb", host::peak_rss_mb());

    put(
        "gen.ops_per_s",
        best_slice(&slice_rates, true).unwrap_or(window_values[0]),
    );
    put("gen.window_ops_per_s", window_values[0]);
    put("gen.window_op_p50_us", window_values[1]);
    put("gen.window_op_p90_us", window_values[2]);
    put("gen.cpu_us_per_op", cpu * 1e6 / ops.max(1) as f64);
    put("gen.op_p99_us", p_us(&rec.op_ns, 0.99));
    put("gen.op_p999_us", p_us(&rec.op_ns, 0.999));
    put("gen.op_max_us", p_us(&rec.op_ns, 1.0));
    put("gen.samples", rec.op_ns.len() as f64);
    put(
        "gen.payload_mb_per_s",
        (ops * workload.payload_bytes()) as f64 / 1e6 / elapsed,
    );
    for name in [
        "gen.put_p50_us",
        "gen.get_p50_us",
        "gen.import_p50_us",
        "gen.export_p50_us",
    ] {
        put(name, 0.0);
    }
    if let Some(names) = workload.halves() {
        for (name, half) in names.iter().zip(rec.half_ns.iter_mut()) {
            half.sort_unstable();
            put(name, p_us(half, 0.50));
        }
    }
    put(
        "gen.allocs_per_op",
        per_op(allocs1.0 - allocs0.0, rec.attempted),
    );
    put(
        "gen.alloc_bytes_per_op",
        per_op(allocs1.1 - allocs0.1, rec.attempted),
    );

    let frames = c.frames_flushed - counters0.frames_flushed;
    let syscalls = c.flush_syscalls - counters0.flush_syscalls;
    put(
        "transport.frames_per_syscall",
        frames as f64 / syscalls.max(1) as f64,
    );
    put("transport.flush_syscalls_per_op", per_op(syscalls, ops));
    put(
        "transport.readiness_high_water",
        c.readiness_high_water as f64,
    );
    put("transport.pool_connections", c.pool_connections as f64);
    put("rpc.queue_high_water", c.queue_high_water as f64);
    let per_kop = |now: u64, then: u64| per_op(now - then, ops) * 1e3;
    put("rpc.shed_per_kop", per_kop(c.shed, counters0.shed));
    put(
        "rpc.rejected_per_kop",
        per_kop(c.rejected, counters0.rejected),
    );
    put("rpc.retries_per_kop", per_kop(c.retries, counters0.retries));
    put(
        "core.calls_served_per_op",
        per_op(c.calls_served - counters0.calls_served, ops),
    );
    put("core.dirty_per_op", per_op(c.dirty - counters0.dirty, ops));
    put("core.clean_per_op", per_op(c.clean - counters0.clean, ops));
    put(
        "core.clean_batches_per_op",
        per_op(c.clean_batches - counters0.clean_batches, ops),
    );
    put(
        "core.gc_msgs_per_op",
        per_op(c.gc_msgs - counters0.gc_msgs, ops),
    );
    put(
        "core.surrogates_per_op",
        per_op(c.surrogates - counters0.surrogates, ops),
    );
    put(
        "core.blocked_us_per_op",
        per_op(c.blocked_ns - counters0.blocked_ns, ops) / 1e3,
    );
    put("core.exports_backlog_peak", rec.export_backlog_peak as f64);
    put("core.reclaim_lag_ms", drained.lag.as_secs_f64() * 1e3);
    put("core.leaked_exports", drained.leaked as f64);

    Ok(RepResult {
        attempted: rec.attempted,
        failed: rec.failed,
        clean: warm_failed == 0 && warm_drain.leaked == 0 && drained.leaked == 0,
        values: v,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = Inputs::generate(3);
        assert_eq!(a, Inputs::generate(3));
        let b = Inputs::generate(4);
        assert_ne!(a.payload, b.payload);
        assert_ne!(a.content, b.content);
        assert_ne!(a.echoes, b.echoes);
        assert_eq!(a.payload.len(), BLOB_LEN);
        assert_eq!(a.echoes.len(), PIPELINE_DEPTH);
        let slots = |seed| {
            let mut rng = Rng::new(Inputs::generate(seed).slot_seed);
            (0..64)
                .map(|_| rng.below(LIVE_WINDOW as u64))
                .collect::<Vec<_>>()
        };
        assert_eq!(slots(3), slots(3));
        assert_ne!(slots(3), slots(4));
    }

    #[test]
    fn best_slice_is_the_undisturbed_one() {
        let p50 = [13.3, 13.2, 18.0, 13.4, 17.5, 13.3, 19.0, 13.3, 16.0, 13.2];
        assert_eq!(best_slice(&p50, false), Some(13.2));
        let rate = [70e3, 71e3, 50e3, 69e3, 52e3, 70e3, 48e3, 70e3, 55e3, 71e3];
        assert_eq!(best_slice(&rate, true), Some(71e3));
        assert_eq!(best_slice(&[], true), None);
        assert_eq!(best_slice(&[5.0], false), Some(5.0));
    }

    #[test]
    fn a_slice_without_samples_is_missing_not_zero() {
        // Three slices; the middle one took no sample.
        let mut op_ns = vec![14_000, 13_000, 15_000, 18_000, 16_000, 17_000];
        let slice = |samples| Slice {
            ops_per_s: 0.0,
            samples,
        };
        let slices = [slice(0..3), slice(3..3), slice(3..6)];
        let [p50, p90] = slice_latencies(&mut op_ns, &slices);
        assert_eq!(p50, [14.0, 17.0]);
        assert_eq!(p90, [15.0, 18.0]);
        assert_eq!(best_slice(&p50, false), Some(14.0));
        // No slice with samples at all: the caller falls back on the window.
        let [p50, _] = slice_latencies(&mut op_ns, &[slice(2..2)]);
        assert_eq!(best_slice(&p50, false), None);
    }

    #[test]
    fn every_slice_of_a_long_fast_window_has_samples() {
        // Ten slices' worth of ops, far more per slice than a slice keeps.
        let mut rec = Recorder::new(SLICE * 10);
        let mut starts = vec![0];
        for _ in 0..10 {
            for _ in 0..3 * SAMPLES_PER_SLICE {
                rec.op(true, Duration::from_micros(13));
            }
            starts.push(rec.next_slice());
        }
        assert!(starts.windows(2).all(|w| w[1] - w[0] == SAMPLES_PER_SLICE));
        assert_eq!(rec.attempted, 30 * SAMPLES_PER_SLICE as u64);
        assert!(rec.op_ns.len() <= rec.op_ns.capacity());
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn every_workload_runs_clean() {
        for w in Workload::ALL {
            let r = run_rep(w, 1, Duration::from_millis(150), false, Instant::now()).unwrap();
            assert!(r.clean, "{} not clean", w.name());
            assert_eq!(r.failed, 0, "{} failed ops", w.name());
            assert!(r.attempted > 0);
            let gc = r.values["core.gc_msgs_per_op"];
            if w == Workload::RefsTcp {
                assert!(gc > 0.0);
            } else {
                assert_eq!(gc, 0.0, "{} made collector traffic", w.name());
            }
        }
    }
}
