//! An `RpcServer` has no thread per connection: one reactor serves them
//! all, in-process connections included. Alone in its file — and so in its
//! process — because it counts the process's threads.

#![cfg(target_os = "linux")]

use std::sync::Arc;

use netobj_rpc::{CallClient, Dispatcher, RpcServer, ServerConfig};
use netobj_transport::loopback::Loopback;
use netobj_transport::{Endpoint, Transport};
use netobj_wire::{ObjIx, SpaceId, WireRep};

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn loopback_connections_spawn_no_thread() {
    let transport = Loopback::new();
    let listener = transport.listen(&Endpoint::loopback("srv")).unwrap();
    let echo: Arc<dyn Dispatcher> =
        Arc::new(|_c: SpaceId, _t: WireRep, _m: u32, args: &[u8]| Ok(args.to_vec()));
    let server = RpcServer::start_with_config(listener, echo, ServerConfig::default());
    let before = thread_count();
    let target = WireRep::new(SpaceId::from_raw(2), ObjIx(3));
    let clients: Vec<_> = (0..200u8)
        .map(|i| {
            let conn = transport.connect(&server.local_endpoint()).unwrap();
            let client = CallClient::new(Arc::from(conn), SpaceId::from_raw(1));
            // Served, so the server has the connection, not just the queue.
            assert_eq!(client.call(target, 0, vec![i]).unwrap(), vec![i]);
            client
        })
        .collect();
    assert_eq!(server.reactor_stats().unwrap().connections, 200);
    assert_eq!(thread_count(), before);
    drop(clients);
}
