//! Shared infrastructure for the evaluation harness.
//!
//! Defines the benchmark service interfaces (via the stub generator), the
//! standard two-space rig over a simulated network, a raw-RPC rig for the
//! "no object layer" baseline rows, and small timing/table utilities used
//! by both the Criterion benches and the `report` binary.

#![forbid(unsafe_code)]

pub mod fuzz;

use std::sync::Arc;
use std::time::{Duration, Instant};

use netobj::wire::pickle::Blob;
use netobj::wire::ObjIx;
use netobj::{network_object, NetResult, Options, Space};
use netobj_transport::sim::{LinkConfig, SimNet};
use netobj_transport::Endpoint;
use parking_lot::Mutex;

pub use netobj;
pub use netobj_dgc_model as model;
pub use netobj_rpc as rpc;
pub use netobj_transport as transport;
pub use netobj_wire as wire;

network_object! {
    /// A counter object used as the transferable reference in benchmarks.
    pub interface Counter ("bench.Counter"): client CounterClient, export CounterExport {
        0 => fn add(&self, n: i64) -> i64;
    }
}

/// Counter implementation.
pub struct CounterImpl(pub Mutex<i64>);

impl Counter for CounterImpl {
    fn add(&self, n: i64) -> NetResult<i64> {
        let mut v = self.0.lock();
        *v += n;
        Ok(*v)
    }
}

/// Creates a fresh exportable counter.
pub fn new_counter() -> Arc<CounterExport<CounterImpl>> {
    Arc::new(CounterExport(Arc::new(CounterImpl(Mutex::new(0)))))
}

network_object! {
    /// The benchmark service: one method per argument shape measured in
    /// the evaluation.
    pub interface BenchSvc ("bench.Svc"): client BenchClient, export BenchExport {
        /// The null method: no arguments, no result.
        0 => fn null(&self) -> ();
        /// Ten integer arguments.
        1 => fn ten_ints(
            &self,
            a: i64, b: i64, c: i64, d: i64, e: i64,
            f: i64, g: i64, h: i64, i: i64, j: i64,
        ) -> ();
        /// A text argument.
        2 => fn text(&self, s: String) -> ();
        /// A bulk byte payload; returns its length.
        3 => fn blob(&self, b: Blob) -> u64;
        /// Returns a bulk byte payload of the requested size.
        4 => fn get_blob(&self, n: u64) -> Blob;
        /// A small mixed record.
        5 => fn record(&self, r: (i64, f64, String, bool)) -> ();
        /// Receives a network object reference (drops it immediately).
        6 => fn take_ref(&self, c: CounterClient) -> ();
        /// Receives a reference and retains it.
        7 => fn keep_ref(&self, c: CounterClient) -> ();
        /// Returns a reference to a counter owned by the service.
        8 => fn get_ref(&self) -> CounterClient;
        /// Receives a reference and then performs `busy_us` microseconds
        /// of work — used to show the FIFO variant overlapping reference
        /// registration with method execution.
        9 => fn take_ref_work(&self, c: CounterClient, busy_us: u64) -> ();
        /// Mints a fresh counter owned by the service's space.
        10 => fn mint(&self) -> CounterClient;
    }
}

/// Benchmark service implementation.
pub struct BenchImpl {
    kept: Mutex<Vec<CounterClient>>,
    own: CounterClient,
    space: Mutex<Option<Space>>,
}

impl BenchImpl {
    /// Builds the service; `own` is a counter owned by the serving space.
    pub fn new(own: CounterClient) -> BenchImpl {
        BenchImpl {
            kept: Mutex::new(Vec::new()),
            own,
            space: Mutex::new(None),
        }
    }

    /// Wires the serving space (needed by `mint`).
    pub fn set_space(&self, space: Space) {
        *self.space.lock() = Some(space);
    }
}

impl BenchSvc for BenchImpl {
    fn null(&self) -> NetResult<()> {
        Ok(())
    }
    #[allow(clippy::too_many_arguments)]
    fn ten_ints(
        &self,
        a: i64,
        b: i64,
        c: i64,
        d: i64,
        e: i64,
        f: i64,
        g: i64,
        h: i64,
        i: i64,
        j: i64,
    ) -> NetResult<()> {
        let _ = (a, b, c, d, e, f, g, h, i, j);
        Ok(())
    }
    fn text(&self, s: String) -> NetResult<()> {
        let _ = s;
        Ok(())
    }
    fn blob(&self, b: Blob) -> NetResult<u64> {
        Ok(b.0.len() as u64)
    }
    fn get_blob(&self, n: u64) -> NetResult<Blob> {
        Ok(Blob(vec![0xa5; n as usize]))
    }
    fn record(&self, r: (i64, f64, String, bool)) -> NetResult<()> {
        let _ = r;
        Ok(())
    }
    fn take_ref(&self, c: CounterClient) -> NetResult<()> {
        drop(c);
        Ok(())
    }
    fn keep_ref(&self, c: CounterClient) -> NetResult<()> {
        self.kept.lock().push(c);
        Ok(())
    }
    fn get_ref(&self) -> NetResult<CounterClient> {
        Ok(self.own.clone())
    }
    fn take_ref_work(&self, c: CounterClient, busy_us: u64) -> NetResult<()> {
        self.kept.lock().push(c);
        std::thread::sleep(Duration::from_micros(busy_us));
        Ok(())
    }
    fn mint(&self) -> NetResult<CounterClient> {
        let space = self
            .space
            .lock()
            .clone()
            .ok_or_else(|| netobj::Error::app("mint: space not wired"))?;
        CounterClient::narrow(space.local(new_counter()))
    }
}

/// A standard two-space rig over a simulated network.
pub struct Rig {
    /// The simulated network (fault/latency knobs live here).
    pub net: Arc<SimNet>,
    /// The space owning the benchmark service.
    pub server: Space,
    /// The calling space.
    pub client: Space,
    /// Typed stub bound to the service.
    pub svc: BenchClient,
}

impl Rig {
    /// Builds a rig whose links have the given one-way latency.
    pub fn new(latency: Duration) -> Rig {
        Rig::with_options(latency, Options::fast())
    }

    /// Builds a rig with explicit space options.
    pub fn with_options(latency: Duration, options: Options) -> Rig {
        let net = SimNet::new(LinkConfig::with_latency(latency));
        let server = Space::builder()
            .transport(Arc::new(Arc::clone(&net)))
            .listen(Endpoint::sim("bench-server"))
            .options(options.clone())
            .build()
            .expect("server space");
        let own = CounterClient::narrow(server.local(new_counter())).expect("narrow");
        let service = Arc::new(BenchImpl::new(own));
        service.set_space(server.clone());
        server
            .export(Arc::new(BenchExport(service)))
            .expect("export");
        let client = Space::builder()
            .transport(Arc::new(Arc::clone(&net)))
            .listen(Endpoint::sim("bench-client"))
            .options(options)
            .build()
            .expect("client space");
        let svc = BenchClient::narrow(
            client
                .import_root(&Endpoint::sim("bench-server"), ObjIx::FIRST_USER)
                .expect("bind"),
        )
        .expect("narrow");
        Rig {
            net,
            server,
            client,
            svc,
        }
    }
}

/// A raw-RPC rig: the same transports, no object layer — the baseline the
/// paper compares its runtime against ("network objects vs. plain RPC").
pub struct RawRig {
    /// The simulated network.
    pub net: Arc<SimNet>,
    server: netobj_rpc::RpcServer,
    /// The raw call client.
    pub client: Arc<netobj_rpc::CallClient>,
    /// Target wireRep for calls.
    pub target: netobj_wire::WireRep,
}

impl RawRig {
    /// Builds the raw rig; the dispatcher echoes its arguments.
    pub fn new(latency: Duration) -> RawRig {
        use netobj_transport::Transport;
        let net = SimNet::new(LinkConfig::with_latency(latency));
        let listener = net.listen(&Endpoint::sim("raw-server")).expect("listen");
        let dispatcher: Arc<dyn netobj_rpc::Dispatcher> = Arc::new(
            |_c: netobj_wire::SpaceId, _t: netobj_wire::WireRep, _m: u32, a: &[u8]| Ok(a.to_vec()),
        );
        let server = netobj_rpc::RpcServer::start_with_config(
            listener,
            dispatcher,
            netobj_rpc::ServerConfig::default(),
        );
        let conn = net.connect(&Endpoint::sim("raw-server")).expect("connect");
        let client = netobj_rpc::CallClient::new(Arc::from(conn), netobj_wire::SpaceId::fresh());
        RawRig {
            net,
            server,
            client,
            target: netobj_wire::WireRep::new(netobj_wire::SpaceId::from_raw(1), ObjIx(2)),
        }
    }

    /// Performs one raw echo call.
    pub fn call(&self, payload: Vec<u8>) -> netobj_transport::Bytes {
        self.client.call(self.target, 0, payload).expect("raw call")
    }
}

impl Drop for RawRig {
    fn drop(&mut self) {
        self.server.stop();
    }
}

/// Times `n` executions of `f`, returning the mean per-call duration.
pub fn time_per_call(n: usize, mut f: impl FnMut()) -> Duration {
    // One warm-up call outside the window.
    f();
    let t0 = Instant::now();
    for _ in 0..n {
        f();
    }
    t0.elapsed() / n as u32
}

/// Formats a duration compactly for report tables.
pub fn fmt_dur(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Formats a throughput figure.
pub fn fmt_rate(bytes: u64, d: Duration) -> String {
    let bps = bytes as f64 / d.as_secs_f64();
    if bps >= 1e9 {
        format!("{:.2} GB/s", bps / 1e9)
    } else if bps >= 1e6 {
        format!("{:.2} MB/s", bps / 1e6)
    } else {
        format!("{:.1} kB/s", bps / 1e3)
    }
}

/// Prints a report table: a title, column headers and rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!();
    println!("## {title}");
    println!();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(" {:<w$} |", c, w = widths[i]));
        }
        s
    };
    println!(
        "{}",
        line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{:-<w$}|", "", w = w + 2));
    }
    println!("{sep}");
    for row in rows {
        println!("{}", line(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rig_serves_all_methods() {
        let rig = Rig::new(Duration::ZERO);
        rig.svc.null().unwrap();
        rig.svc.ten_ints(1, 2, 3, 4, 5, 6, 7, 8, 9, 10).unwrap();
        rig.svc.text("hello".into()).unwrap();
        assert_eq!(rig.svc.blob(Blob(vec![1; 100])).unwrap(), 100);
        assert_eq!(rig.svc.get_blob(64).unwrap().0.len(), 64);
        rig.svc.record((1, 2.5, "x".into(), true)).unwrap();
        let c = CounterClient::narrow(rig.client.local(new_counter())).unwrap();
        rig.svc.take_ref(c.clone()).unwrap();
        rig.svc.keep_ref(c).unwrap();
        let remote = rig.svc.get_ref().unwrap();
        assert_eq!(remote.add(5).unwrap(), 5);
    }

    #[test]
    fn raw_rig_echoes() {
        let raw = RawRig::new(Duration::ZERO);
        assert_eq!(raw.call(vec![1, 2, 3]), vec![1, 2, 3]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_dur(Duration::from_nanos(500)), "500 ns");
        assert!(fmt_dur(Duration::from_micros(1500)).contains("ms"));
        assert!(fmt_rate(1_000_000, Duration::from_secs(1)).contains("MB/s"));
    }
}
