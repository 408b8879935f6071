//! A `CallClient` has no thread of its own: replies are read by the callers
//! waiting for them. Alone in its file — and so in its process — because
//! it counts the process's threads.

#![cfg(target_os = "linux")]

use std::sync::Arc;

use netobj_rpc::CallClient;
use netobj_transport::chan::ChanConn;
use netobj_wire::SpaceId;

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn new_client_spawns_no_thread() {
    let before = thread_count();
    let (a, _b) = ChanConn::pair(None, None);
    let client = CallClient::new(Arc::new(a), SpaceId::from_raw(1));
    assert_eq!(thread_count(), before);
    drop(client);
}
