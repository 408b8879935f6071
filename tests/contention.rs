//! Contention stress: many threads hammering one space's call path and
//! object table at once. Exercises the object table's export and import
//! locks, the per-connection reply encoder and the callers' turns as
//! reader of a shared connection under real parallelism, while the
//! virtual clock keeps the schedule's *timers*
//! deterministic. Every reply must reach exactly the caller that issued
//! its request (tagged payloads detect lost, duplicated or cross-wired
//! replies), and the captured collector trace must replay conformantly.

#[path = "vt_util.rs"]
mod vt_util;

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use netobj::transport::sim::{LinkConfig, SimNet};
use netobj::transport::Endpoint;
use netobj::wire::ObjIx;
use netobj::{network_object, NetResult, Options, Space};
use parking_lot::Mutex;
use vt_util::{assert_conformant, assert_sim_time_under, space_on, wait_until};

const THREADS: u64 = 16;
const CALLS_PER_THREAD: u64 = 1_000;
/// Every Nth call also marshals a fresh reference through the table, so
/// dirty sets and transient pins churn under the export lock alongside
/// the echo hot path.
const MINT_EVERY: u64 = 50;

network_object! {
    /// Echo service answering with the caller's tag.
    pub interface Echo ("stress.Echo"): client EchoClient, export EchoExport {
        0 => fn echo(&self, tag: u64) -> u64;
    }
}

network_object! {
    /// A disposable object minted per-call to churn the export table.
    pub interface Token ("stress.Token"): client TokenClient, export TokenExport {
        0 => fn poke(&self) -> ();
    }
}

network_object! {
    /// Factory handing out tokens (references as results).
    pub interface Mint ("stress.Mint"): client MintClient, export MintExport {
        0 => fn make(&self) -> TokenClient;
        1 => fn echo(&self, tag: u64) -> u64;
    }
}

struct TokenImpl;
impl Token for TokenImpl {
    fn poke(&self) -> NetResult<()> {
        Ok(())
    }
}

struct MintImpl {
    space: Space,
    /// Every tag the server dispatched; duplicates mean a request was
    /// delivered (and executed) twice.
    seen: Mutex<HashSet<u64>>,
    dups: Mutex<Vec<u64>>,
}

impl Mint for MintImpl {
    fn make(&self) -> NetResult<TokenClient> {
        TokenClient::narrow(self.space.local(Arc::new(TokenExport(Arc::new(TokenImpl)))))
    }
    fn echo(&self, tag: u64) -> NetResult<u64> {
        if !self.seen.lock().insert(tag) {
            self.dups.lock().push(tag);
        }
        Ok(tag)
    }
}

#[test]
fn sixteen_threads_share_one_space_without_losing_replies() {
    let net = SimNet::virtual_time(LinkConfig::instant(), 12);
    let clock = net.clock();
    let server = space_on(&net, "server", Options::fast());
    let mint_impl = Arc::new(MintImpl {
        space: server.clone(),
        seen: Mutex::new(HashSet::new()),
        dups: Mutex::new(Vec::new()),
    });
    server
        .export(Arc::new(MintExport(Arc::clone(&mint_impl))))
        .unwrap();

    // ONE client space: all threads share its connection pool, call
    // client and object table.
    let client = space_on(&net, "client", Options::fast());
    let mint = Arc::new(
        MintClient::narrow(
            client
                .import_root(&Endpoint::sim("server"), ObjIx::FIRST_USER)
                .unwrap(),
        )
        .unwrap(),
    );

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let mint = Arc::clone(&mint);
            std::thread::spawn(move || {
                for i in 0..CALLS_PER_THREAD {
                    let tag = t * 1_000_000 + i;
                    let reply = mint.echo(tag).unwrap();
                    assert_eq!(reply, tag, "reply cross-wired between callers");
                    if i % MINT_EVERY == 0 {
                        let token = mint.make().unwrap();
                        token.poke().unwrap();
                        drop(token);
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    // Exactly one execution per issued request: none lost (every echo
    // above returned), none duplicated.
    assert_eq!(
        mint_impl.seen.lock().len() as u64,
        THREADS * CALLS_PER_THREAD,
        "server saw a different number of distinct tags than were sent"
    );
    assert!(
        mint_impl.dups.lock().is_empty(),
        "duplicated dispatches: {:?}",
        mint_impl.dups.lock()
    );

    // All minted tokens were dropped; their table entries must drain and
    // the trace must replay cleanly through the formal model.
    drop(mint);
    wait_until(&clock, "server table back to the pinned mint", || {
        server.exported_count() == 1
    });
    wait_until(&clock, "client imports drained", || {
        client.imported_count() == 0
    });
    assert_conformant("contention_stress", &[&server, &client]);
    assert_sim_time_under(&clock, Duration::from_secs(120), "contention_stress");
}
