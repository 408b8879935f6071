//! The loopback transport: direct in-process channels, zero overhead.
//!
//! Used for the paper's "same machine" measurements and for unit tests that
//! don't need fault injection. Listeners register under a name; connecting
//! to that name wires a [`ChanConn`] pair directly.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::chan::{ChanConn, ChanListener, Mailbox};
use crate::endpoint::Endpoint;
use crate::error::TransportError;
use crate::{Conn, Listener, Result, Transport};

/// A loopback transport instance.
///
/// Each instance has its own namespace of listener names. Clone the `Arc`
/// and register it in multiple registries to share the namespace.
#[derive(Default)]
pub struct Loopback {
    listeners: Mutex<HashMap<String, Mailbox<Box<dyn Conn>>>>,
}

impl Loopback {
    /// Creates an empty loopback transport.
    pub fn new() -> Arc<Loopback> {
        Arc::new(Loopback::default())
    }
}

impl Transport for Arc<Loopback> {
    fn scheme(&self) -> &str {
        "loop"
    }

    fn connect(&self, ep: &Endpoint) -> Result<Box<dyn Conn>> {
        let refused = || TransportError::ConnectionRefused(ep.to_string());
        let accept = {
            let listeners = self.listeners.lock();
            listeners.get(ep.addr()).cloned().ok_or_else(refused)?
        };
        let (client, server) = ChanConn::pair(Some(ep.clone()), None);
        if !accept.deliver(Box::new(server)) {
            return Err(refused());
        }
        Ok(Box::new(client))
    }

    fn listen(&self, ep: &Endpoint) -> Result<Box<dyn Listener>> {
        let name = ep.addr().to_owned();
        let mut listeners = self.listeners.lock();
        if listeners.contains_key(&name) {
            return Err(TransportError::AddressInUse(ep.to_string()));
        }
        let owner = Arc::clone(self);
        let (listener, mailbox) = ChanListener::new(Endpoint::loopback(name.clone()), {
            let name = name.clone();
            move || drop(owner.listeners.lock().remove(&name))
        });
        listeners.insert(name, mailbox);
        Ok(Box::new(listener))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn listen_connect_exchange() {
        let t = Loopback::new();
        let l = t.listen(&Endpoint::loopback("srv")).unwrap();
        let c = t.connect(&Endpoint::loopback("srv")).unwrap();
        let s = l.accept().unwrap();
        c.send(crate::Bytes::from(b"hi".to_vec())).unwrap();
        assert_eq!(&s.recv().unwrap()[..], b"hi");
        s.send(crate::Bytes::from(b"yo".to_vec())).unwrap();
        assert_eq!(&c.recv().unwrap()[..], b"yo");
    }

    #[test]
    fn connect_to_missing_listener_refused() {
        let t = Loopback::new();
        assert!(matches!(
            t.connect(&Endpoint::loopback("nobody")),
            Err(TransportError::ConnectionRefused(_))
        ));
    }

    #[test]
    fn duplicate_listen_rejected() {
        let t = Loopback::new();
        let _l = t.listen(&Endpoint::loopback("x")).unwrap();
        assert!(matches!(
            t.listen(&Endpoint::loopback("x")),
            Err(TransportError::AddressInUse(_))
        ));
    }

    #[test]
    fn close_listener_frees_name_and_unblocks_accept() {
        let t = Loopback::new();
        let l = t.listen(&Endpoint::loopback("x")).unwrap();
        l.close();
        // Name free again.
        let _l2 = t.listen(&Endpoint::loopback("x")).unwrap();
        // Connect to the first (closed) listener's queue fails.
        // (The second listener now owns the name, so connect succeeds.)
        assert!(t.connect(&Endpoint::loopback("x")).is_ok());
    }

    #[test]
    fn multiple_clients_one_server() {
        let t = Loopback::new();
        let l = t.listen(&Endpoint::loopback("srv")).unwrap();
        let c1 = t.connect(&Endpoint::loopback("srv")).unwrap();
        let c2 = t.connect(&Endpoint::loopback("srv")).unwrap();
        c1.send(crate::Bytes::from(vec![1])).unwrap();
        c2.send(crate::Bytes::from(vec![2])).unwrap();
        let s1 = l.accept().unwrap();
        let s2 = l.accept().unwrap();
        let a = s1.recv_timeout(Duration::from_secs(1)).unwrap();
        let b = s2.recv_timeout(Duration::from_secs(1)).unwrap();
        let mut got = vec![a[0], b[0]];
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }
}
