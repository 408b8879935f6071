//! Integration tests for the reply-acknowledgement protocol.
//!
//! These verify the property the collector depends on: a completion hook
//! registered by the dispatcher runs exactly once — when the caller
//! acknowledges, when the ack times out, or when the connection dies —
//! and, in the acknowledged case, only *after* the caller has finished
//! processing the reply.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use netobj_rpc::server::Dispatch;
use netobj_rpc::{CallClient, Dispatcher, RpcServer, ServerConfig};
use netobj_transport::loopback::Loopback;
use netobj_transport::{Endpoint, Transport};
use netobj_wire::{ObjIx, SpaceId, WireRep};

struct PinningDispatcher {
    released: Arc<AtomicU64>,
}

impl Dispatcher for PinningDispatcher {
    fn dispatch(&self, _c: SpaceId, _t: WireRep, _m: u32, _a: &[u8]) -> Dispatch {
        let released = Arc::clone(&self.released);
        Dispatch {
            outcome: Ok(vec![1]),
            completion: Some(Box::new(move || {
                released.fetch_add(1, Ordering::SeqCst);
            })),
        }
    }
}

fn setup() -> (RpcServer, Arc<CallClient>, Arc<AtomicU64>) {
    let released = Arc::new(AtomicU64::new(0));
    let t = Loopback::new();
    let l = t.listen(&Endpoint::loopback("srv")).unwrap();
    let server = RpcServer::start_with_config(
        l,
        Arc::new(PinningDispatcher {
            released: Arc::clone(&released),
        }),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );
    let conn = t.connect(&Endpoint::loopback("srv")).unwrap();
    let client = CallClient::new(Arc::from(conn), SpaceId::from_raw(1));
    (server, client, released)
}

fn target() -> WireRep {
    WireRep::new(SpaceId::from_raw(2), ObjIx(3))
}

#[test]
fn completion_runs_after_explicit_ack() {
    let (_server, client, released) = setup();
    let reply = client
        .call_raw(target(), 0, vec![], Duration::from_secs(5))
        .unwrap();
    let ack = reply.ack.expect("needs_ack should be set");
    // Completion must not have run while we "process" the reply.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(released.load(Ordering::SeqCst), 0);
    ack.ack();
    // Acks are async; give the server a moment.
    for _ in 0..100 {
        if released.load(Ordering::SeqCst) == 1 {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("completion did not run after ack");
}

#[test]
fn completion_runs_when_token_dropped() {
    let (_server, client, released) = setup();
    let reply = client
        .call_raw(target(), 0, vec![], Duration::from_secs(5))
        .unwrap();
    drop(reply.ack);
    for _ in 0..100 {
        if released.load(Ordering::SeqCst) == 1 {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("completion did not run after token drop");
}

#[test]
fn convenience_call_auto_acks() {
    let (_server, client, released) = setup();
    let _ = client.call(target(), 0, vec![]).unwrap();
    for _ in 0..100 {
        if released.load(Ordering::SeqCst) == 1 {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("completion did not run after auto-ack");
}

#[test]
fn completion_runs_when_connection_dies_without_ack() {
    let (_server, client, released) = setup();
    let reply = client
        .call_raw(target(), 0, vec![], Duration::from_secs(5))
        .unwrap();
    // Keep the token alive but kill the connection: the server must not
    // leak the completion.
    let token = reply.ack;
    client.close();
    for _ in 0..200 {
        if released.load(Ordering::SeqCst) == 1 {
            drop(token);
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("completion did not run after connection loss");
}

#[test]
fn completion_runs_exactly_once() {
    let (_server, client, released) = setup();
    let reply = client
        .call_raw(target(), 0, vec![], Duration::from_secs(5))
        .unwrap();
    reply.ack.expect("token").ack();
    std::thread::sleep(Duration::from_millis(200));
    // Close the connection afterwards; drain must not re-run it.
    client.close();
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(released.load(Ordering::SeqCst), 1);
}
