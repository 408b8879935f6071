//! Cross-crate integration: agent bootstrap, TCP transport, third-party
//! transfer, collection — the full system assembled the way a deployment
//! would assemble it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use netobj::transport::sim::SimNet;
use netobj::transport::tcp::Tcp;
use netobj::transport::Endpoint;
use netobj::wire::ObjIx;
use netobj::{network_object, NetResult, Options, Space};
use netobj_agent::Agent;
use parking_lot::Mutex;

network_object! {
    /// Shared store interface for the integration scenarios.
    pub interface Store ("it.Store"): client StoreClient, export StoreExport {
        0 => fn put(&self, k: String, v: i64) -> ();
        1 => fn get(&self, k: String) -> Option<i64>;
    }
}

network_object! {
    /// A factory handing out fresh stores (references as results).
    pub interface Factory ("it.Factory"): client FactoryClient, export FactoryExport {
        0 => fn make(&self) -> StoreClient;
    }
}

network_object! {
    /// Relay used to hand a store reference between client spaces
    /// (references as arguments; enables third-party transfer).
    pub interface Relay ("it.Relay"): client RelayClient, export RelayExport {
        0 => fn offer(&self, s: StoreClient) -> ();
        1 => fn take(&self) -> Option<StoreClient>;
    }
}

struct StoreImpl {
    data: Mutex<std::collections::HashMap<String, i64>>,
}

impl Store for StoreImpl {
    fn put(&self, k: String, v: i64) -> NetResult<()> {
        self.data.lock().insert(k, v);
        Ok(())
    }
    fn get(&self, k: String) -> NetResult<Option<i64>> {
        Ok(self.data.lock().get(&k).copied())
    }
}

struct FactoryImpl {
    space: Space,
}

impl Factory for FactoryImpl {
    fn make(&self) -> NetResult<StoreClient> {
        let store = Arc::new(StoreExport(Arc::new(StoreImpl {
            data: Mutex::new(Default::default()),
        })));
        StoreClient::narrow(self.space.local(store))
    }
}

struct RelayImpl(Mutex<Option<StoreClient>>);

impl Relay for RelayImpl {
    fn offer(&self, s: StoreClient) -> NetResult<()> {
        *self.0.lock() = Some(s);
        Ok(())
    }
    fn take(&self) -> NetResult<Option<StoreClient>> {
        Ok(self.0.lock().take())
    }
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(15);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out: {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn full_stack_over_tcp_with_agent() {
    // Agent host (netobjd).
    let host = Space::builder()
        .transport(Arc::new(Tcp))
        .listen(Endpoint::tcp("127.0.0.1:0"))
        .options(Options::fast())
        .build()
        .unwrap();
    netobj_agent::serve(&host).unwrap();
    let agent_ep = host.endpoint().unwrap();

    // A server space binds a store under a name.
    let server = Space::builder()
        .transport(Arc::new(Tcp))
        .listen(Endpoint::tcp("127.0.0.1:0"))
        .options(Options::fast())
        .build()
        .unwrap();
    let store_obj = Arc::new(StoreExport(Arc::new(StoreImpl {
        data: Mutex::new(Default::default()),
    })));
    let agent = netobj_agent::connect(&server, &agent_ep).unwrap();
    agent.put("store".into(), server.local(store_obj)).unwrap();

    // Two independent client spaces find it and interleave operations.
    let mut joins = Vec::new();
    for who in ["a", "b"] {
        let agent_ep = agent_ep.clone();
        joins.push(std::thread::spawn(move || {
            let space = Space::builder()
                .transport(Arc::new(Tcp))
                .listen(Endpoint::tcp("127.0.0.1:0"))
                .options(Options::fast())
                .build()
                .unwrap();
            let agent = netobj_agent::connect(&space, &agent_ep).unwrap();
            let store =
                StoreClient::narrow(agent.get("store".into()).unwrap().expect("bound")).unwrap();
            for i in 0..20 {
                store.put(format!("{who}-{i}"), i).unwrap();
            }
            for i in 0..20 {
                assert_eq!(store.get(format!("{who}-{i}")).unwrap(), Some(i));
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }

    // The agent's handle keeps the store's table entry alive even after
    // both client spaces have gone.
    assert!(server.exported_count() >= 1);
}

#[test]
fn three_space_triangle_over_sim() {
    let net = SimNet::instant();
    let mk = |name: &str| {
        Space::builder()
            .transport(Arc::new(Arc::clone(&net)))
            .listen(Endpoint::sim(name))
            .options(Options::fast())
            .build()
            .unwrap()
    };

    // The owner exports a pinned factory; stores it makes are unpinned
    // and live in the table only while remotely referenced.
    let owner = mk("owner");
    owner
        .export(Arc::new(FactoryExport(Arc::new(FactoryImpl {
            space: owner.clone(),
        }))))
        .unwrap();
    // Bob exports a pinned relay.
    let bob = mk("bob");
    bob.export(Arc::new(RelayExport(Arc::new(RelayImpl(Mutex::new(None))))))
        .unwrap();

    // Alice obtains a fresh store from the owner (reference as result).
    let alice = mk("alice");
    let factory = FactoryClient::narrow(
        alice
            .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    let store = factory.make().unwrap();
    store.put("x".into(), 7).unwrap();
    assert_eq!(owner.exported_count(), 2, "factory + granted store");

    // Alice hands the store to Bob through Bob's relay: sender alice,
    // receiver bob, owner owner — the full triangle.
    let relay = RelayClient::narrow(
        alice
            .import_root(&Endpoint::sim("bob"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    relay.offer(store.clone()).unwrap();

    // Bob takes it (locally) and talks to the owner directly.
    let relay_at_bob = RelayClient::narrow(
        bob.import_root(&Endpoint::sim("bob"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    let store_at_bob = relay_at_bob.take().unwrap().expect("offered");
    assert!(!store_at_bob.handle().is_local());
    assert_eq!(store_at_bob.get("x".into()).unwrap(), Some(7));
    store_at_bob.put("y".into(), 9).unwrap();
    assert_eq!(store.get("y".into()).unwrap(), Some(9));

    // Alice drops her copy: Bob's must survive.
    drop(store);
    wait_until("alice's clean arrives", || {
        owner.stats().clean_received >= 1
    });
    assert_eq!(store_at_bob.get("x".into()).unwrap(), Some(7));
    assert_eq!(owner.exported_count(), 2, "store survives for bob");

    // Bob drops too: the store's entry must leave the owner's table.
    drop(store_at_bob);
    wait_until("store collected at owner", || owner.exported_count() == 1);
}

#[test]
fn stats_are_consistent_across_spaces() {
    let net = SimNet::instant();
    let server = Space::builder()
        .transport(Arc::new(Arc::clone(&net)))
        .listen(Endpoint::sim("server"))
        .options(Options::fast())
        .build()
        .unwrap();
    server
        .export(Arc::new(StoreExport(Arc::new(StoreImpl {
            data: Mutex::new(Default::default()),
        }))))
        .unwrap();

    let client = Space::builder()
        .transport(Arc::new(Arc::clone(&net)))
        .listen(Endpoint::sim("client"))
        .options(Options::fast())
        .build()
        .unwrap();
    let s = StoreClient::narrow(
        client
            .import_root(&Endpoint::sim("server"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    for i in 0..50 {
        s.put(format!("k{i}"), i).unwrap();
    }
    drop(s);
    wait_until("clean exchanged", || {
        client.stats().clean_sent == 1 && server.stats().clean_received == 1
    });
    let cs = client.stats();
    let ss = server.stats();
    assert_eq!(cs.dirty_sent, ss.dirty_received);
    assert_eq!(cs.clean_sent, ss.clean_received);
    assert!(cs.calls_sent >= 50, "at least the 50 puts");
    assert_eq!(cs.surrogates_created, 1);
}

/// A TCP forwarder in front of one address, so that a test can cut the
/// connections through it the way a peer (or a middlebox) closing an idle
/// connection does: each side just sees the other end go away.
struct Forwarder {
    addr: std::net::SocketAddr,
    sockets: Arc<Mutex<Vec<std::net::TcpStream>>>,
}

impl Forwarder {
    fn to(upstream: std::net::SocketAddr) -> Forwarder {
        use std::net::{Shutdown, TcpListener, TcpStream};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sockets = Arc::new(Mutex::new(Vec::new()));
        let kept = Arc::clone(&sockets);
        // Detached: the accept loop and the copiers live as long as the
        // test process, like the other hand-rolled peers in these tests.
        std::thread::spawn(move || {
            for down in listener.incoming() {
                let down = down.unwrap();
                let up = TcpStream::connect(upstream).unwrap();
                for (from, to) in [(&down, &up), (&up, &down)] {
                    let (mut from, mut to) = (from.try_clone().unwrap(), to.try_clone().unwrap());
                    std::thread::spawn(move || {
                        let _ = std::io::copy(&mut from, &mut to);
                        let _ = to.shutdown(Shutdown::Both);
                    });
                }
                kept.lock().extend([down, up]);
            }
        });
        Forwarder { addr, sockets }
    }

    fn cut(&self) {
        for s in self.sockets.lock().drain(..) {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Nobody watches an idle connection, so its death is found by the next
/// call — before that call's request is written, which is what makes the
/// reconnect transparent even for a method that must not run twice.
#[test]
fn idle_tcp_connection_closed_by_peer_reconnects_transparently() {
    let tcp_space = || {
        Space::builder()
            .transport(Arc::new(Tcp))
            .listen(Endpoint::tcp("127.0.0.1:0"))
            .options(Options::fast())
            .build()
            .unwrap()
    };
    let owner = tcp_space();
    let store_impl = Arc::new(StoreImpl {
        data: Mutex::new(Default::default()),
    });
    owner
        .export(Arc::new(StoreExport(Arc::clone(&store_impl))))
        .unwrap();
    let forwarder = Forwarder::to(owner.endpoint().unwrap().addr().parse().unwrap());

    let client = tcp_space();
    let via = Endpoint::tcp(forwarder.addr.to_string());
    let store = StoreClient::narrow(client.import_root(&via, ObjIx::FIRST_USER).unwrap()).unwrap();
    store.put("before".into(), 1).unwrap();
    assert_eq!(client.stats().reconnects, 0);

    forwarder.cut();
    // `put` is not idempotent: had the request gone out on the dead
    // connection, its failure would be ambiguous and surface here.
    store.put("after".into(), 2).unwrap();
    assert_eq!(client.stats().reconnects, 1);
    assert_eq!(client.stats().retries_attempted, 1);
    assert_eq!(store_impl.data.lock().len(), 2, "each put ran exactly once");
}
