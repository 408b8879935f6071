//! Exact counts: figures of the runtime that must hold to the unit, not
//! within a timing bound.
//!
//! The tests take turns (`serial`), so that no test running beside another
//! can move its counts: the file-descriptor census below reads the whole
//! process's fd table. The syscall counts are each server's own reactor's,
//! which a client in the same process does not move.
//!
//! The reactor path only exists on unix; elsewhere this file is empty.
#![cfg(unix)]

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use netobj_rpc::msg::{Request, RpcMsg};
use netobj_rpc::{Dispatch, Dispatcher, RpcServer, ServerConfig};
use netobj_transport::reactor::{Reactor, ReactorSnapshot};
use netobj_transport::tcp::Tcp;
use netobj_transport::{Bytes, Conn, Endpoint, Transport};
use netobj_wire::{ObjIx, SpaceId, WireRep};

const CLIENTS: usize = 64;

/// Held by every test for its whole run.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct Echo;

impl Dispatcher for Echo {
    fn dispatch(&self, _caller: SpaceId, _target: WireRep, _method: u32, args: &[u8]) -> Dispatch {
        Dispatch::plain(Ok(args.to_vec()))
    }
}

fn echo_server() -> RpcServer {
    let listener = Tcp.listen(&Endpoint::tcp("127.0.0.1:0")).expect("listen");
    RpcServer::start_with_config(
        listener,
        Arc::new(Echo),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
}

/// One call of the echo method on `conn`, answered within ten seconds.
fn echo_call(conn: &dyn Conn, call_id: u64, caller: SpaceId) {
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
        RpcMsg::Reply(r) => {
            assert_eq!(r.call_id, call_id);
            assert!(r.outcome.is_ok(), "{:?}", r.outcome);
        }
        other => panic!("unexpected message {other:?}"),
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
    let _serial = serial();
    let server = echo_server();
    let addr = server.local_endpoint();
    let connections = || server.reactor_stats().expect("reactor").connections;
    let baseline = open_fds();

    let clients: Vec<_> = (0..CLIENTS as u64)
        .map(|call_id| {
            let conn = Tcp.connect(&addr).expect("connect");
            echo_call(&*conn, call_id, SpaceId::fresh());
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

/// The server's reactor counters once a visit in progress has finished:
/// they have not moved for 20 ms (a tick moves only `poll_waits`).
fn settled_stats(server: &RpcServer) -> ReactorSnapshot {
    let stats = || server.reactor_stats().expect("reactor");
    let syscalls = |s: ReactorSnapshot| {
        (
            s.recv_syscalls,
            s.flush_syscalls,
            s.poll_ctls,
            s.notify_writes,
            s.notify_reads,
        )
    };
    loop {
        let before = stats();
        std::thread::sleep(Duration::from_millis(20));
        let after = stats();
        if syscalls(before) == syscalls(after) {
            return after;
        }
    }
}

/// A depth-1 call of a method served inline costs the server one
/// `epoll_wait`, one `recv`, one `writev` and one `epoll_ctl` re-arm: the
/// reply is queued during the connection's own visit, so it rings no
/// eventfd, and a `recv` that comes up short ends the visit without a
/// second one that would find nothing.
#[test]
fn a_served_inline_frame_costs_four_syscalls() {
    const CALLS: u64 = 200;
    let _serial = serial();
    let server = echo_server();
    let conn = Tcp.connect(&server.local_endpoint()).expect("connect");
    let caller = SpaceId::fresh();
    // The method's first call goes through the pool and classifies it
    // fast; every later one is served on the reactor thread.
    for call_id in 0..4 {
        echo_call(&*conn, call_id, caller);
    }
    let before = settled_stats(&server);
    let start = Instant::now();
    for call_id in 4..4 + CALLS {
        echo_call(&*conn, call_id, caller);
    }
    let after = settled_stats(&server);
    let ticks = start.elapsed().as_millis() / Reactor::DEFAULT_TICK.as_millis() + 1;
    let delta = |of: fn(&ReactorSnapshot) -> u64| of(&after) - of(&before);
    assert_eq!(delta(|s| s.recv_syscalls), CALLS, "recv");
    assert_eq!(delta(|s| s.flush_syscalls), CALLS, "writev");
    assert_eq!(delta(|s| s.poll_ctls), CALLS, "epoll_ctl");
    assert_eq!(delta(|s| s.notify_writes), 0, "eventfd writes");
    assert_eq!(delta(|s| s.notify_reads), 0, "eventfd reads");
    let waits = delta(|s| s.poll_waits);
    assert!(
        (CALLS..=CALLS + ticks as u64).contains(&waits),
        "{waits} epoll_wait for {CALLS} calls and up to {ticks} ticks"
    );
}
