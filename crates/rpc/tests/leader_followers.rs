//! Many callers sharing one connection with no thread behind them: the
//! callers take turns reading it, and every reply must still reach exactly
//! the call it answers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use netobj_rpc::server::Dispatch;
use netobj_rpc::{CallClient, Dispatcher, RpcServer, ServerConfig};
use netobj_transport::loopback::Loopback;
use netobj_transport::tcp::Tcp;
use netobj_transport::{Endpoint, Transport};
use netobj_wire::{ObjIx, SpaceId, WireRep};

const THREADS: u64 = 16;
const CALLS_PER_THREAD: u64 = 1_000;

/// Echoes the arguments back and counts the calls it served.
struct CountingEcho(Arc<AtomicU64>);

impl Dispatcher for CountingEcho {
    fn dispatch(&self, _c: SpaceId, _t: WireRep, _m: u32, args: &[u8]) -> Dispatch {
        self.0.fetch_add(1, Ordering::Relaxed);
        Dispatch {
            outcome: Ok(args.to_vec()),
            completion: None,
        }
    }
}

/// Every caller tags each request with (thread, sequence number); a reply
/// delivered to the wrong call shows as a mismatched echo, a lost one as a
/// failed call.
fn hammer_one_connection(transport: &dyn Transport, listen_at: Endpoint) {
    let served = Arc::new(AtomicU64::new(0));
    let listener = transport.listen(&listen_at).unwrap();
    let ep = listener.local_endpoint();
    let _server = RpcServer::start_with_config(
        listener,
        Arc::new(CountingEcho(Arc::clone(&served))),
        ServerConfig::default(),
    );
    let client = CallClient::new(
        Arc::from(transport.connect(&ep).unwrap()),
        SpaceId::from_raw(1),
    );
    let target = WireRep::new(SpaceId::from_raw(2), ObjIx(3));

    std::thread::scope(|s| {
        for thread in 0..THREADS {
            let client = &client;
            s.spawn(move || {
                for seq in 0..CALLS_PER_THREAD {
                    let tag = [thread.to_le_bytes(), seq.to_le_bytes()].concat();
                    let got = client.call(target, 0, tag.clone()).unwrap();
                    assert_eq!(
                        got, tag,
                        "thread {thread} call {seq} got another call's reply"
                    );
                }
            });
        }
    });
    assert_eq!(served.load(Ordering::Relaxed), THREADS * CALLS_PER_THREAD);
}

#[test]
fn sixteen_callers_share_one_channel_connection() {
    hammer_one_connection(&Loopback::new(), Endpoint::loopback("srv"));
}

#[test]
fn sixteen_callers_share_one_tcp_connection() {
    hammer_one_connection(&Tcp, Endpoint::tcp("127.0.0.1:0"));
}
