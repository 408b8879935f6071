//! End-to-end tests of the runtime over an in-process simulated network:
//! invocation, reference passing in all three roles (argument, result,
//! third-party), the surrogate life cycle, collection, resurrection, and
//! the failure paths (ping purge, lease expiry).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use netobj::wire::ObjIx;
use netobj::{network_object, Error, Handle, NetResult, Options, Space};
use netobj_transport::sim::{LinkConfig, SimNet};
use netobj_transport::{ClockHandle, Endpoint};
use parking_lot::Mutex;

network_object! {
    /// A counter for tests.
    pub interface Counter ("t.Counter"): client CounterClient, export CounterExport {
        0 => fn add(&self, n: i64) -> i64;
        1 => fn read(&self) -> i64;
    }
}

network_object! {
    /// A registry mapping names to counters (exercises reference passing).
    pub interface Registry ("t.Registry"): client RegistryClient, export RegistryExport {
        0 => fn put(&self, name: String, counter: CounterClient) -> ();
        1 => fn get(&self, name: String) -> Option<CounterClient>;
        2 => fn bump(&self, name: String) -> i64;
    }
}

struct CounterImpl(Mutex<i64>);

impl Counter for CounterImpl {
    fn add(&self, n: i64) -> NetResult<i64> {
        let mut v = self.0.lock();
        *v += n;
        Ok(*v)
    }
    fn read(&self) -> NetResult<i64> {
        Ok(*self.0.lock())
    }
}

struct RegistryImpl(Mutex<HashMap<String, CounterClient>>);

impl Registry for RegistryImpl {
    fn put(&self, name: String, counter: CounterClient) -> NetResult<()> {
        self.0.lock().insert(name, counter);
        Ok(())
    }
    fn get(&self, name: String) -> NetResult<Option<CounterClient>> {
        Ok(self.0.lock().get(&name).cloned())
    }
    fn bump(&self, name: String) -> NetResult<i64> {
        let counter = self
            .0
            .lock()
            .get(&name)
            .cloned()
            .ok_or_else(|| Error::app("no such counter"))?;
        counter.add(1)
    }
}

fn new_counter() -> Arc<CounterExport<CounterImpl>> {
    Arc::new(CounterExport(Arc::new(CounterImpl(Mutex::new(0)))))
}

fn new_registry() -> Arc<RegistryExport<RegistryImpl>> {
    Arc::new(RegistryExport(Arc::new(RegistryImpl(Mutex::new(
        HashMap::new(),
    )))))
}

fn space_on(net: &Arc<SimNet>, name: &str, options: Options) -> Space {
    Space::builder()
        .transport(Arc::new(Arc::clone(net)))
        .listen(Endpoint::sim(name))
        .options(options)
        .build()
        .expect("space")
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn remote_invocation_basics() {
    let net = SimNet::instant();
    let owner = space_on(&net, "owner", Options::fast());
    owner.export(new_counter()).unwrap();

    let client = space_on(&net, "client", Options::fast());
    let h = client
        .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
        .unwrap();
    let counter = CounterClient::narrow(h).unwrap();
    assert_eq!(counter.add(3).unwrap(), 3);
    assert_eq!(counter.add(4).unwrap(), 7);
    assert_eq!(counter.read().unwrap(), 7);

    // Exactly one dirty call was needed.
    assert_eq!(client.stats().dirty_sent, 1);
    assert_eq!(owner.stats().dirty_received, 1);
}

#[test]
fn narrow_rejects_wrong_interface() {
    let net = SimNet::instant();
    let owner = space_on(&net, "owner", Options::fast());
    owner.export(new_counter()).unwrap();
    let client = space_on(&net, "client", Options::fast());
    let h = client
        .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
        .unwrap();
    assert!(matches!(
        RegistryClient::narrow(h),
        Err(Error::WrongType {
            wanted: "t.Registry"
        })
    ));
}

#[test]
fn local_handles_dispatch_without_network() {
    let space = Space::builder().options(Options::fast()).build().unwrap();
    let counter = CounterClient::narrow(space.local(new_counter())).unwrap();
    assert_eq!(counter.add(10).unwrap(), 10);
    assert_eq!(counter.read().unwrap(), 10);
    assert_eq!(space.stats().calls_sent, 0);
}

#[test]
fn reference_as_argument_enables_callback() {
    let net = SimNet::instant();
    let server = space_on(&net, "server", Options::fast());
    server.export(new_registry()).unwrap();

    // The client owns a counter and must therefore listen.
    let client = space_on(&net, "client", Options::fast());
    let counter = CounterClient::narrow(client.local(new_counter())).unwrap();

    let rh = client
        .import_root(&Endpoint::sim("server"), ObjIx::FIRST_USER)
        .unwrap();
    let registry = RegistryClient::narrow(rh).unwrap();
    registry.put("c".into(), counter.clone()).unwrap();

    // The server invokes back into the client-owned counter.
    assert_eq!(registry.bump("c".into()).unwrap(), 1);
    assert_eq!(registry.bump("c".into()).unwrap(), 2);
    // And the client sees the effect locally.
    assert_eq!(counter.read().unwrap(), 2);

    // The server made a dirty call for the received reference.
    assert_eq!(server.stats().dirty_sent, 1);
    assert_eq!(client.stats().dirty_received, 1);
}

#[test]
fn reference_as_result_comes_back_to_owner_as_concrete() {
    let net = SimNet::instant();
    let server = space_on(&net, "server", Options::fast());
    server.export(new_registry()).unwrap();

    let client = space_on(&net, "client", Options::fast());
    let counter = CounterClient::narrow(client.local(new_counter())).unwrap();
    let registry = RegistryClient::narrow(
        client
            .import_root(&Endpoint::sim("server"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    registry.put("c".into(), counter).unwrap();

    // get() returns the client's own object: the unmarshaled handle must
    // be the concrete object, not a surrogate.
    let got = registry.get("c".into()).unwrap().expect("present");
    assert!(got.handle().is_local());
    assert_eq!(got.add(5).unwrap(), 5);
}

#[test]
fn missing_object_fails_cleanly() {
    let net = SimNet::instant();
    let owner = space_on(&net, "owner", Options::fast());
    owner.export(new_counter()).unwrap();
    let client = space_on(&net, "client", Options::fast());
    let got = client.import_root(&Endpoint::sim("owner"), ObjIx(999));
    assert!(matches!(got, Err(Error::ImportFailed(_))), "{got:?}");
}

#[test]
fn third_party_transfer() {
    let net = SimNet::instant();
    let owner = space_on(&net, "owner", Options::fast());
    owner.export(new_counter()).unwrap();

    let middle = space_on(&net, "middle", Options::fast());
    let carol = space_on(&net, "carol", Options::fast());
    carol.export(new_registry()).unwrap();

    // B imports A's counter, then hands it to C through C's registry:
    // sender, receiver and owner are three different spaces.
    let counter_at_b = CounterClient::narrow(
        middle
            .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    let registry_at_b = RegistryClient::narrow(
        middle
            .import_root(&Endpoint::sim("carol"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    registry_at_b.put("c".into(), counter_at_b.clone()).unwrap();

    // C now talks to A directly.
    assert_eq!(registry_at_b.bump("c".into()).unwrap(), 1);

    // Owner's collector saw dirty calls from both B and C.
    wait_until("two dirty calls at owner", || {
        owner.stats().dirty_received == 2
    });

    // B drops its handle; the object must survive for C.
    drop(counter_at_b);
    drop(registry_at_b);
    wait_until("clean from B", || owner.stats().clean_received >= 1);
    let registry_at_d = RegistryClient::narrow(
        space_on(&net, "dave", Options::fast())
            .import_root(&Endpoint::sim("carol"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(registry_at_d.bump("c".into()).unwrap(), 2);
}

#[test]
fn dropping_last_handle_collects_owner_entry() {
    let net = SimNet::instant();
    let owner = space_on(&net, "owner", Options::fast());
    let registry_obj = new_registry();
    owner.export(registry_obj).unwrap();
    // Put a counter into the registry locally; only the registry is
    // pinned in the table.
    let local_counter = CounterClient::narrow(owner.local(new_counter())).unwrap();
    let owner_registry = RegistryClient::narrow(
        owner
            .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    owner_registry.put("c".into(), local_counter).unwrap();
    assert_eq!(owner.exported_count(), 1, "only the registry is exported");

    let client = space_on(&net, "client", Options::fast());
    let registry = RegistryClient::narrow(
        client
            .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    let counter = registry.get("c".into()).unwrap().expect("present");
    // The counter is now in the owner's table, dirty for the client.
    assert_eq!(owner.exported_count(), 2);
    assert_eq!(counter.add(1).unwrap(), 1);

    // Dropping the last client handle must, via clean call, collect the
    // owner-side entry (the registry keeps the object alive locally, but
    // the *table entry* goes).
    drop(counter);
    wait_until("owner entry collected", || owner.exported_count() == 1);
    assert!(owner.stats().exports_collected >= 1);
    // The client retires its table entry on the clean-ack, which races
    // with our observation of the owner-side collection above.
    wait_until("only the registry import remains", || {
        client.imported_count() == 1
    });
}

#[test]
fn same_reference_imported_twice_shares_surrogate() {
    let net = SimNet::instant();
    let owner = space_on(&net, "owner", Options::fast());
    owner.export(new_counter()).unwrap();
    let client = space_on(&net, "client", Options::fast());
    let h1 = client
        .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
        .unwrap();
    let h2 = client
        .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
        .unwrap();
    assert!(h1.same_object(&h2));
    // One surrogate, one dirty call.
    assert_eq!(client.stats().surrogates_created, 1);
    assert_eq!(client.stats().dirty_sent, 1);
}

#[test]
fn concurrent_first_imports_share_registration() {
    // With link latency, two threads race to import the same reference;
    // the second must block on the first's dirty call, not issue its own.
    let net = SimNet::new(LinkConfig::with_latency(Duration::from_millis(20)));
    let owner = space_on(&net, "owner", Options::fast());
    owner.export(new_counter()).unwrap();
    let client = space_on(&net, "client", Options::fast());

    let mut joins = Vec::new();
    for _ in 0..4 {
        let c = client.clone();
        joins.push(std::thread::spawn(move || {
            c.import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
        }));
    }
    let handles: Vec<Handle> = joins
        .into_iter()
        .map(|j| j.join().unwrap().unwrap())
        .collect();
    for h in &handles[1..] {
        assert!(handles[0].same_object(h));
    }
    assert_eq!(client.stats().dirty_sent, 1, "single registration");
    assert_eq!(client.stats().surrogates_created, 1);
}

#[test]
fn resurrection_while_clean_in_transit() {
    // Slow links keep the clean call in transit long enough for a new
    // import to arrive: the ccit → ccitnil → (clean ack) → dirty → OK
    // path.
    let net = SimNet::new(LinkConfig::with_latency(Duration::from_millis(60)));
    let owner = space_on(&net, "owner", Options::fast());
    owner.export(new_counter()).unwrap();
    let client = space_on(&net, "client", Options::fast());

    let h = client
        .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
        .unwrap();
    drop(h);
    // Give the demon time to mark ccit and launch the clean call (which
    // takes ≥120 ms round-trip on this link).
    std::thread::sleep(Duration::from_millis(30));
    let h2 = client
        .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
        .unwrap();
    let counter = CounterClient::narrow(h2).unwrap();
    assert_eq!(counter.add(1).unwrap(), 1);
    let stats = client.stats();
    assert_eq!(stats.clean_sent, 1, "one clean was in transit");
    assert_eq!(stats.dirty_sent, 2, "re-registered after the clean ack");

    // And the owner must still (again) list the client: dropping drains
    // the import slot through a second full clean cycle.
    drop(counter);
    wait_until("final clean", || client.imported_count() == 0);
    wait_until("second clean received", || {
        owner.stats().clean_received == 2
    });
}

#[test]
fn quick_redrop_reuses_pending_surrogate_state() {
    // Drop and re-import with no latency: whichever interleaving wins
    // (resurrect-before-clean or full ccitnil cycle), the reference must
    // come back usable and eventually collect.
    let net = SimNet::instant();
    let owner = space_on(&net, "owner", Options::fast());
    owner.export(new_counter()).unwrap();
    let client = space_on(&net, "client", Options::fast());
    for i in 0..50 {
        let h = client
            .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
            .unwrap();
        let c = CounterClient::narrow(h).unwrap();
        assert_eq!(c.add(1).unwrap(), i + 1);
        drop(c);
    }
    wait_until("imports drain", || client.imported_count() == 0);
}

#[test]
fn crashed_client_is_purged_by_ping() {
    let net = SimNet::instant();
    let mut owner_options = Options::fast();
    owner_options.ping_interval = Some(Duration::from_millis(100));
    owner_options.ping_failures = 2;
    owner_options.clean_timeout = Duration::from_millis(200);
    let owner = space_on(&net, "owner", owner_options);
    owner.export(new_registry()).unwrap();

    let client = space_on(&net, "client", Options::fast());
    let registry = RegistryClient::narrow(
        client
            .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    let counter = CounterClient::narrow(owner.local(new_counter())).unwrap();
    // Export the counter to the client so a non-pinned entry exists.
    let owner_registry = RegistryClient::narrow(
        owner
            .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    owner_registry.put("c".into(), counter).unwrap();
    let remote_counter = registry.get("c".into()).unwrap().expect("present");
    assert_eq!(owner.exported_count(), 2);
    assert_eq!(remote_counter.add(1).unwrap(), 1);

    // The client dies without cleaning.
    client.crash();
    net.set_down("client", true);
    std::mem::forget(remote_counter); // simulate lost handle, no clean ever

    wait_until("ping detects death and purges", || {
        owner.exported_count() == 1
    });
    assert!(owner.stats().clients_purged >= 1);
}

#[test]
fn lease_expiry_reclaims_and_renewal_preserves() {
    let net = SimNet::instant();
    let mut opts = Options::fast();
    opts.lease = Some(Duration::from_millis(300));
    let owner = space_on(&net, "owner", opts.clone());
    owner.export(new_registry()).unwrap();
    let counter = CounterClient::narrow(owner.local(new_counter())).unwrap();
    let owner_registry = RegistryClient::narrow(
        owner
            .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    owner_registry.put("c".into(), counter).unwrap();

    // A leasing client holds the counter across several lease periods:
    // renewal must keep it alive.
    let client = space_on(&net, "client", opts.clone());
    let registry = RegistryClient::narrow(
        client
            .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    let remote = registry.get("c".into()).unwrap().expect("present");
    assert_eq!(owner.exported_count(), 2);
    std::thread::sleep(Duration::from_millis(900));
    assert_eq!(owner.exported_count(), 2, "renewals kept the entry");
    assert!(client.stats().dirty_sent > 2, "renewals were sent");

    // Now the client crashes: the lease must lapse.
    client.crash();
    net.set_down("client", true);
    std::mem::forget(remote);
    std::mem::forget(registry);
    wait_until("lease expiry", || owner.exported_count() == 1);
    assert!(owner.stats().leases_expired >= 1);
}

#[test]
fn fifo_variant_end_to_end() {
    let net = SimNet::instant();
    let mut opts = Options::fast();
    opts.fifo_variant = true;
    let owner = space_on(&net, "owner", opts.clone());
    owner.export(new_counter()).unwrap();
    let client = space_on(&net, "client", opts.clone());
    let counter = CounterClient::narrow(
        client
            .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(counter.add(2).unwrap(), 2);
    drop(counter);
    wait_until("fifo-mode clean", || client.imported_count() == 0);
    wait_until("owner saw the clean", || owner.stats().clean_received == 1);
    assert_eq!(client.stats().dirty_sent, 1);
    assert_eq!(client.stats().clean_sent, 1);
}

#[test]
fn fifo_variant_does_not_block_unmarshal() {
    // With 25 ms links, base mode blocks the server's unmarshal thread for
    // a ~50 ms dirty round-trip when it receives a fresh reference; the
    // FIFO variant must not block at all (the registration runs in the
    // background while the method executes).
    let net = SimNet::new(LinkConfig::with_latency(Duration::from_millis(25)));
    let mut opts = Options::fast();
    opts.fifo_variant = true;
    let server = space_on(&net, "server", opts.clone());
    server.export(new_registry()).unwrap();
    let client = space_on(&net, "client", opts);
    let registry = RegistryClient::narrow(
        client
            .import_root(&Endpoint::sim("server"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    let counter = CounterClient::narrow(client.local(new_counter())).unwrap();
    registry.put("c".into(), counter).unwrap();
    assert_eq!(
        server.stats().blocked_ns,
        0,
        "fifo variant must not block unmarshal threads"
    );
    // The reference is usable at the server.
    assert_eq!(registry.bump("c".into()).unwrap(), 1);
}

#[test]
fn stopped_space_refuses_work() {
    let net = SimNet::instant();
    let owner = space_on(&net, "owner", Options::fast());
    owner.export(new_counter()).unwrap();
    let client = space_on(&net, "client", Options::fast());
    let counter = CounterClient::narrow(
        client
            .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    client.shutdown();
    let got = counter.add(1);
    assert!(got.is_err(), "{got:?}");
    assert!(matches!(
        client.import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER),
        Err(Error::SpaceStopped)
    ));
}

/// Holds `net`'s virtual time still until dropped. It counts as work in
/// progress that no thread owns, so no waiter can suspend it and no
/// deadline passes: calls still complete (their replies arrive in real
/// time), but the demon's linger cannot end, and a loaded host cannot make
/// the clock jump.
struct Frozen(ClockHandle);

impl Frozen {
    fn new(net: &SimNet) -> Frozen {
        let clock = net.clock();
        clock.as_virtual().expect("virtual clock").work_queued();
        Frozen(clock)
    }
}

impl Drop for Frozen {
    fn drop(&mut self) {
        self.0.as_virtual().expect("virtual clock").work_taken(1);
    }
}

/// Options on `net`'s virtual clock.
fn virtual_options(net: &SimNet) -> Options {
    Options {
        clock: net.clock(),
        ..Options::fast()
    }
}

/// An owner exporting a registry stocked with `n` owner-side counters
/// (`c0`, `c1`, …), and a client holding a surrogate for the registry.
fn stocked_registry(net: &Arc<SimNet>, n: usize, opts: Options) -> (Space, Space, RegistryClient) {
    let owner = space_on(net, "owner", opts.clone());
    owner.export(new_registry()).unwrap();
    let owner_registry = RegistryClient::narrow(
        owner
            .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    for i in 0..n {
        let c = CounterClient::narrow(owner.local(new_counter())).unwrap();
        owner_registry.put(format!("c{i}"), c).unwrap();
    }
    let client = space_on(net, "client", opts);
    let registry = RegistryClient::narrow(
        client
            .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    (owner, client, registry)
}

#[test]
fn fifo_variant_dirty_is_not_delayed_by_the_linger() {
    // In the FIFO variant a background dirty shares the demon's queue, and
    // the acknowledgement of the call that carried the reference waits for
    // it. Queued right behind a drop's clean, it must not wait out the
    // linger: with virtual time held still, the call still returns.
    let net = SimNet::virtual_time(LinkConfig::instant(), 4);
    let opts = Options {
        fifo_variant: true,
        ..virtual_options(&net)
    };
    let frozen = Frozen::new(&net);
    let (_owner, client, registry) = stocked_registry(&net, 2, opts);
    let first = registry.get("c0".into()).unwrap().expect("present");
    let dirty_before = client.stats().dirty_sent;
    drop(first);
    // The call runs on its own thread so that a call stuck behind the
    // linger fails this test instead of hanging it.
    let (tx, rx) = std::sync::mpsc::channel();
    let caller = {
        let registry = registry.clone();
        std::thread::spawn(move || {
            let _ = tx.send(registry.get("c1".into()));
        })
    };
    let got = rx.recv_timeout(Duration::from_secs(10));
    drop(frozen);
    caller.join().unwrap();
    let second = got
        .expect("the carrying call waited for virtual time")
        .unwrap()
        .expect("present");
    assert_eq!(client.stats().dirty_sent - dirty_before, 1);
    wait_until("first cleaned", || client.stats().clean_sent == 1);
    drop(second);
}

#[test]
fn mass_drop_batches_clean_calls() {
    let net = SimNet::virtual_time(LinkConfig::instant(), 1);
    let frozen = Frozen::new(&net);
    let (owner, client, registry) = stocked_registry(&net, 16, virtual_options(&net));
    let held: Vec<CounterClient> = (0..16)
        .map(|i| registry.get(format!("c{i}")).unwrap().expect("present"))
        .collect();
    assert_eq!(owner.exported_count(), 17);

    // Drop them all at once. The demon's linger ends only once virtual
    // time moves, by which point every drop is queued: one round.
    drop(held);
    drop(frozen);
    wait_until("all collected", || owner.exported_count() == 1);
    let stats = client.stats();
    assert_eq!(stats.clean_sent, 16, "one clean entry per reference");
    assert_eq!(stats.clean_batches, 1, "one batched RPC: {stats:?}");
}

#[test]
fn steady_drops_share_clean_rpcs() {
    // One reference minted and dropped per call, 256 times over one
    // connection, all inside one linger (virtual time stands still): the
    // cleans leave in full rounds. Without the linger the demon sends
    // about one RPC per drop.
    const CYCLES: u64 = 256;
    let net = SimNet::virtual_time(LinkConfig::instant(), 2);
    let frozen = Frozen::new(&net);
    let (owner, client, registry) = stocked_registry(&net, CYCLES as usize, virtual_options(&net));
    let before = owner.stats();
    for i in 0..CYCLES {
        drop(registry.get(format!("c{i}")).unwrap().expect("present"));
    }
    drop(frozen);
    wait_until("all collected", || owner.exported_count() == 1);
    let after = owner.stats();
    assert_eq!(client.stats().clean_sent, CYCLES);
    assert_eq!(after.clean_received - before.clean_received, CYCLES);
    // Every call the owner served in the loop was a `get`, a dirty or a
    // clean RPC (single or batched); a round carries at most 64 cleans.
    let clean_rpcs = (after.calls_served - before.calls_served)
        - CYCLES
        - (after.dirty_received - before.dirty_received);
    assert_eq!(clean_rpcs, CYCLES / 64, "{:?}", client.stats());
}

#[test]
fn unbatched_mode_sends_individual_cleans() {
    // With batching off the demon does not linger: the clean is sent
    // while virtual time stands still.
    let net = SimNet::virtual_time(LinkConfig::instant(), 3);
    let opts = Options {
        batch_cleans: false,
        ..virtual_options(&net)
    };
    let _frozen = Frozen::new(&net);
    let owner = space_on(&net, "owner", opts.clone());
    owner.export(new_counter()).unwrap();
    let client = space_on(&net, "client", opts);
    let h = client
        .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
        .unwrap();
    drop(h);
    wait_until("cleaned", || client.imported_count() == 0);
    assert_eq!(client.stats().clean_batches, 0);
    assert_eq!(client.stats().clean_sent, 1);
}

#[test]
fn unexport_releases_pin() {
    let net = SimNet::instant();
    let owner = space_on(&net, "owner", Options::fast());
    let h = owner.export(new_counter()).unwrap();
    assert_eq!(owner.exported_count(), 1);
    owner.unexport(&h).unwrap();
    assert_eq!(owner.exported_count(), 0);
}

#[test]
fn marshal_blocked_time_is_recorded_under_latency() {
    let net = SimNet::new(LinkConfig::with_latency(Duration::from_millis(25)));
    let owner = space_on(&net, "owner", Options::fast());
    owner.export(new_registry()).unwrap();
    let client = space_on(&net, "client", Options::fast());
    let registry = RegistryClient::narrow(
        client
            .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    // Client passes a fresh local counter: the *server* must block in
    // unmarshal for the dirty round-trip back to the client.
    let counter = CounterClient::narrow(client.local(new_counter())).unwrap();
    registry.put("c".into(), counter).unwrap();
    assert!(
        owner.stats().blocked() >= Duration::from_millis(40),
        "owner unmarshal should have blocked for a dirty RTT, blocked={:?}",
        owner.stats().blocked()
    );
}

#[test]
fn concurrent_churn_under_jitter_reaches_fixpoint() {
    // Eight threads across four client spaces churn references against
    // one owner over a jittery network; after the dust settles, every
    // table must be back to its pinned roots — the whole-system fixpoint
    // the collector guarantees.
    let mut config = LinkConfig::with_latency(Duration::from_micros(200));
    config.jitter = Duration::from_micros(400);
    let net = SimNet::with_seed(config, 7);
    let owner = space_on(&net, "owner", Options::fast());
    owner.export(new_registry()).unwrap();
    let owner_registry = RegistryClient::narrow(
        owner
            .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    for i in 0..4 {
        let c = CounterClient::narrow(owner.local(new_counter())).unwrap();
        owner_registry.put(format!("c{i}"), c).unwrap();
    }

    let mut clients = Vec::new();
    for i in 0..4 {
        clients.push(space_on(&net, &format!("client{i}"), Options::fast()));
    }
    let mut joins = Vec::new();
    for t in 0..8usize {
        let space = clients[t % clients.len()].clone();
        joins.push(std::thread::spawn(move || {
            let registry = RegistryClient::narrow(
                space
                    .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
                    .unwrap(),
            )
            .unwrap();
            for round in 0..30 {
                let name = format!("c{}", (t + round) % 4);
                let counter = registry.get(name).unwrap().expect("present");
                counter.add(1).unwrap();
                drop(counter);
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    drop(owner_registry);
    for c in &clients {
        wait_until("client drains", || c.imported_count() == 0);
    }
    // Owner retains exactly the pinned registry entry plus the four
    // counters held by the registry map... the counters are held by the
    // registry *object* (local handles), not the table; so only the
    // registry remains exported.
    wait_until("owner table drains to the registry", || {
        owner.exported_count() == 1
    });
    // The mutator total must be exact despite all the churn: 8 threads ×
    // 30 rounds = 240 increments across the four counters.
    let registry = RegistryClient::narrow(
        space_on(&net, "verifier", Options::fast())
            .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    let total: i64 = (0..4)
        .map(|i| {
            let c = registry.get(format!("c{i}")).unwrap().expect("present");
            let c = CounterClient::narrow(c.into_handle()).unwrap();
            c.read().unwrap()
        })
        .sum();
    assert_eq!(total, 240);
}

#[test]
fn a_hung_dirty_call_does_not_hold_up_other_imports() {
    // The import table has one lock. A thread whose dirty call hangs on an
    // owner that went silent must not hold it: meanwhile an import from a
    // live owner completes at once, not after the hung call's timeout.
    let net = SimNet::instant();
    let local_registry = |space: &Space, name: &str| {
        space.export(new_registry()).unwrap();
        let root = space.import_root(&Endpoint::sim(name), ObjIx::FIRST_USER);
        RegistryClient::narrow(root.unwrap()).unwrap()
    };
    let a = space_on(&net, "a", Options::fast());
    let b = space_on(&net, "b", Options::fast());
    let client = space_on(&net, "client", Options::fast());
    let a_registry = local_registry(&a, "a");
    a_registry
        .put(
            "c".into(),
            CounterClient::narrow(a.local(new_counter())).unwrap(),
        )
        .unwrap();
    // B holds a surrogate for A's counter, to pass on, and a counter of
    // its own.
    let b_registry = local_registry(&b, "b");
    let a_at_b = RegistryClient::narrow(
        b.import_root(&Endpoint::sim("a"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    b_registry
        .put(
            "a".into(),
            a_at_b.get("c".into()).unwrap().expect("present"),
        )
        .unwrap();
    b_registry
        .put(
            "b".into(),
            CounterClient::narrow(b.local(new_counter())).unwrap(),
        )
        .unwrap();
    // The client connects to A while A is up, so that A going silent
    // swallows the dirty call rather than refusing its connection.
    let _a_root = client
        .import_root(&Endpoint::sim("a"), ObjIx::FIRST_USER)
        .unwrap();
    let b_at_client = RegistryClient::narrow(
        client
            .import_root(&Endpoint::sim("b"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    net.set_down("a", true);

    let dirty_sent = client.stats().dirty_sent;
    let hung = {
        let b_at_client = b_at_client.clone();
        std::thread::spawn(move || b_at_client.get("a".into()).map(|c| c.is_some()))
    };
    // Read from the space's counters, not the table, so that a wait on
    // the import lock shows in the timed import below, not here.
    wait_until("the dirty call to A is in flight", || {
        client.stats().dirty_sent > dirty_sent
    });
    let t0 = Instant::now();
    let counter = b_at_client.get("b".into()).unwrap().expect("present");
    let took = t0.elapsed();
    assert_eq!(counter.add(1).unwrap(), 1);
    assert!(
        took < Options::fast().dirty_timeout / 4,
        "an import from B waited {took:?} behind a dirty call to A"
    );
    assert!(
        !hung.is_finished(),
        "the dirty call to A ended before the import from B was timed"
    );
    assert!(hung.join().unwrap().is_err(), "A was down");
}
