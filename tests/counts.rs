//! Exact counts: figures of the runtime that must hold to the unit, not
//! within a timing bound.
//!
//! One test only, so that no test running beside it can move a count: the
//! file-descriptor census below reads the whole process's fd table.
//!
//! The reactor path only exists on unix; elsewhere this file is empty.
#![cfg(unix)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use netobj_rpc::msg::{Request, RpcMsg};
use netobj_rpc::{Dispatch, Dispatcher, RpcServer, ServerConfig};
use netobj_transport::tcp::Tcp;
use netobj_transport::{Bytes, Endpoint, Transport};
use netobj_wire::{ObjIx, SpaceId, WireRep};

const CLIENTS: usize = 64;

struct Echo;

impl Dispatcher for Echo {
    fn dispatch(&self, _caller: SpaceId, _target: WireRep, _method: u32, args: &[u8]) -> Dispatch {
        Dispatch::plain(Ok(args.to_vec()))
    }
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd")
        .count()
}

/// The open-fd count once it reaches `expected`, or after ten seconds of
/// not reaching it: a served end may outlive its reactor entry for as long
/// as a worker still holds it.
fn settled_fds(expected: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let fds = open_fds();
        if fds == expected || Instant::now() >= deadline {
            return fds;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A TCP connection costs one fd at each end: a client dialled in this
/// process and the reactor's served end of it, two in all, and both go
/// when the client closes.
#[test]
fn a_tcp_connection_holds_one_fd_per_end() {
    let listener = Tcp.listen(&Endpoint::tcp("127.0.0.1:0")).expect("listen");
    let addr = listener.local_endpoint();
    let server = RpcServer::start_with_config(
        listener,
        Arc::new(Echo),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );
    let connections = || server.reactor_stats().expect("reactor").connections;
    let baseline = open_fds();

    let clients: Vec<_> = (0..CLIENTS as u64)
        .map(|call_id| {
            let conn = Tcp.connect(&addr).expect("connect");
            let caller = SpaceId::fresh();
            let req = RpcMsg::Request(Request {
                call_id,
                caller,
                target: WireRep::new(caller, ObjIx::FIRST_USER),
                method: 3,
                args: Bytes::copy_from_slice(b"count"),
                trace_id: 0,
                span_id: 0,
            });
            conn.send(req.encode()).expect("send");
            let reply = conn.recv_timeout(Duration::from_secs(10)).expect("reply");
            match RpcMsg::decode(&reply).expect("decodable reply") {
                RpcMsg::Reply(r) => assert!(r.outcome.is_ok(), "{:?}", r.outcome),
                other => panic!("unexpected message {other:?}"),
            }
            conn
        })
        .collect();
    wait_until("every connection to be served", || {
        connections() == CLIENTS as u64
    });
    let expected = baseline + 2 * CLIENTS;
    assert_eq!(
        settled_fds(expected),
        expected,
        "fds for {CLIENTS} connections"
    );

    for conn in &clients {
        conn.close();
    }
    drop(clients);
    wait_until("every connection to be torn down", || connections() == 0);
    assert_eq!(
        settled_fds(baseline),
        baseline,
        "fds left after every close"
    );
}
