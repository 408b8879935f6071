//! Model/runtime conformance: the runtime's observable collector traffic
//! must match what the abstract specification prescribes for the same
//! scenario, the captured event traces must replay onto the model without
//! violating any proof invariant, and the model's own invariants hold
//! across large random batches.

#[path = "vt_util.rs"]
mod vt_util;

use std::sync::Arc;
use std::time::Duration;

use netobj::dgc::methods;
use netobj::transport::sim::{LinkConfig, SimNet};
use netobj::transport::{Endpoint, Transport};
use netobj::wire::{ObjIx, Pickle, TraceKind, WireRep};
use netobj::{network_object, NetResult, Options, Space};
use netobj_dgc_model::explore::{assert_drained, random_walk, WalkPolicy};
use netobj_dgc_model::{apply, Config, Msg, Proc, Ref, Replayer, Transition};
use netobj_rpc::CallClient;
use parking_lot::Mutex;
use vt_util::{assert_conformant, assert_sim_time_under, space_on, wait_until};

network_object! {
    /// Carrier interface for conformance scenarios.
    pub interface Box_ ("conf.Box"): client BoxClient, export BoxExport {
        0 => fn touch(&self) -> ();
    }
}

struct BoxImpl;
impl Box_ for BoxImpl {
    fn touch(&self) -> NetResult<()> {
        Ok(())
    }
}

/// Runs the canonical one-reference life cycle in the *model*, counting
/// messages by kind.
fn model_lifecycle_counts() -> (u64, u64, u64, u64) {
    let mut c = Config::new(2, &[0]);
    let (owner, client, r) = (Proc(0), Proc(1), Ref(0));
    let mut dirty = 0u64;
    let mut dirty_ack = 0u64;
    let mut clean = 0u64;
    let mut clean_ack = 0u64;
    let steps = [
        Transition::MakeCopy(owner, client, r),
        Transition::ReceiveCopy(owner, client, r, 0),
        Transition::DoDirtyCall(client, r),
        Transition::ReceiveDirty(client, owner, r),
        Transition::DoDirtyAck(owner, client, r),
        Transition::ReceiveDirtyAck(owner, client, r),
        Transition::DoCopyAck(client, owner, r, 0),
        Transition::ReceiveCopyAck(client, owner, r, 0),
    ];
    for t in steps {
        apply(&mut c, t);
        count_new(&c, &mut dirty, &mut dirty_ack, &mut clean, &mut clean_ack);
    }
    c.drop_ref(client, r);
    for t in [
        Transition::Finalize(client, r),
        Transition::DoCleanCall(client, r),
        Transition::ReceiveClean(client, owner, r),
        Transition::DoCleanAck(owner, client, r),
        Transition::ReceiveCleanAck(owner, client, r),
    ] {
        apply(&mut c, t);
        count_new(&c, &mut dirty, &mut dirty_ack, &mut clean, &mut clean_ack);
    }
    assert!(c.quiescent());
    (dirty, dirty_ack, clean, clean_ack)
}

/// Counts in-flight messages once (each message is observed exactly once
/// in the deterministic schedule above, right after being posted).
fn count_new(
    c: &Config,
    dirty: &mut u64,
    dirty_ack: &mut u64,
    clean: &mut u64,
    clean_ack: &mut u64,
) {
    *dirty += c.count_messages(|m| matches!(m, Msg::Dirty(_))) as u64;
    *dirty_ack += c.count_messages(|m| matches!(m, Msg::DirtyAck(_))) as u64;
    *clean += c.count_messages(|m| matches!(m, Msg::Clean(_))) as u64;
    *clean_ack += c.count_messages(|m| matches!(m, Msg::CleanAck(_))) as u64;
}

#[test]
fn runtime_traffic_matches_model_for_one_lifecycle() {
    // Model: exactly one dirty, one clean (each observed once in flight).
    let (dirty, dirty_ack, clean, clean_ack) = model_lifecycle_counts();
    assert_eq!((dirty, dirty_ack, clean, clean_ack), (1, 1, 1, 1));

    // Runtime: same scenario — bind, use, drop, collect.
    let net = SimNet::virtual_time(LinkConfig::instant(), 1);
    let clock = net.clock();
    let owner = space_on(&net, "owner", Options::fast());
    owner
        .export(Arc::new(BoxExport(Arc::new(BoxImpl))))
        .unwrap();
    let client = space_on(&net, "client", Options::fast());
    let b = BoxClient::narrow(
        client
            .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    b.touch().unwrap();
    drop(b);
    wait_until(&clock, "collected", || client.imported_count() == 0);

    let stats = client.stats();
    assert_eq!(stats.dirty_sent, u64::from(dirty > 0), "one dirty call");
    assert_eq!(stats.clean_sent, u64::from(clean > 0), "one clean call");
    assert_eq!(owner.stats().dirty_received, 1);
    assert_eq!(owner.stats().clean_received, 1);

    // The captured trace replays onto the model as exactly the thirteen
    // transitions of the canonical life cycle, ending quiescent.
    let mut replayer = Replayer::new();
    replayer.ingest(owner.id(), owner.trace_events());
    replayer.ingest(client.id(), client.trace_events());
    let report = replayer.replay();
    assert!(
        report.is_conformant(),
        "violations: {:#?}",
        report.violations
    );
    assert!(report.unresolved.is_empty(), "{:#?}", report.unresolved);
    assert_eq!(
        report.transitions, 13,
        "one life cycle is exactly 13 model transitions"
    );
    assert!(report.final_config.quiescent(), "trace must end quiescent");
    assert_conformant("one_lifecycle", &[&owner, &client]);
    assert_sim_time_under(&clock, Duration::from_secs(120), "one_lifecycle");
}

#[test]
fn model_batch_large_scale() {
    // A heavier batch than the unit tests: thousands of schedules across
    // varied topologies, all invariants checked at every step.
    let mut total_steps = 0u64;
    for nprocs in 2..=5 {
        for seed in 0..30 {
            let (c, stats) = random_walk(
                WalkPolicy {
                    nprocs,
                    nrefs: 2,
                    activity: 100,
                    ..WalkPolicy::default()
                },
                seed,
            );
            assert_drained(&c);
            total_steps += stats.steps;
        }
    }
    assert!(total_steps > 10_000, "batch exercised {total_steps} steps");
}

/// Regression for the TR-116 transmission race: a dirty call whose
/// sequence number is at or below the owner's per-client floor (i.e. it
/// was superseded by a later clean) must be rejected, leave a `DirtyStale`
/// mark in the trace, and the whole trace must still replay cleanly.
#[test]
fn stale_dirty_is_rejected_and_trace_replays_clean() {
    let net = SimNet::virtual_time(LinkConfig::instant(), 116);
    let clock = net.clock();
    let owner = space_on(&net, "owner", Options::fast());
    owner
        .export(Arc::new(BoxExport(Arc::new(BoxImpl))))
        .unwrap();
    let client = space_on(&net, "client", Options::fast());

    // One full life cycle: the clean raises the owner's seqno floor for
    // this client above the dirty it superseded.
    let b = BoxClient::narrow(
        client
            .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    b.touch().unwrap();
    drop(b);
    wait_until(&clock, "collected", || client.imported_count() == 0);
    assert_eq!(owner.stats().dirty_stale, 0);

    // Re-send the superseded dirty raw (seqno 1, below the floor its own
    // clean raised), as if it had been delayed in the network past that
    // clean — the transmission race of TR-116 §2.3. The owner must refuse
    // it rather than resurrect the dead registration.
    let conn = Transport::connect(&net, &Endpoint::sim("owner")).unwrap();
    let raw = CallClient::with_clock(Arc::from(conn), client.id(), clock.clone());
    let stale = raw.call(
        WireRep::gc_service(owner.id()),
        methods::DIRTY,
        (ObjIx::FIRST_USER.0, 1u64, None::<Endpoint>).to_pickle_bytes(),
    );
    assert!(stale.is_err(), "stale dirty must be rejected: {stale:?}");
    assert_eq!(owner.stats().dirty_stale, 1);
    // Sequence number 0 is not a legal protocol value at all: it draws a
    // BadArguments rejection up front, not a stale mark.
    let malformed = raw.call(
        WireRep::gc_service(owner.id()),
        methods::DIRTY,
        (ObjIx::FIRST_USER.0, 0u64, None::<Endpoint>).to_pickle_bytes(),
    );
    assert!(
        malformed.is_err(),
        "seqno 0 must be rejected: {malformed:?}"
    );
    assert_eq!(owner.stats().dirty_stale, 1);
    assert!(
        owner
            .trace_events()
            .iter()
            .any(|e| matches!(e.kind, TraceKind::DirtyStale { .. })),
        "rejection must be visible in the trace"
    );
    raw.close();

    // The reference is still importable afterwards (fresh seqnos beat the
    // floor) — the floor only fences the past, not the future.
    let b2 = BoxClient::narrow(
        client
            .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
            .unwrap(),
    )
    .unwrap();
    b2.touch().unwrap();

    // The full trace — including the refused dirty — replays onto the
    // model without violations: the stale dirty is counted, not folded.
    let mut replayer = Replayer::new();
    replayer.ingest(owner.id(), owner.trace_events());
    replayer.ingest(client.id(), client.trace_events());
    let report = replayer.replay();
    assert!(
        report.is_conformant(),
        "violations: {:#?}",
        report.violations
    );
    assert!(report.unresolved.is_empty(), "{:#?}", report.unresolved);
    assert!(report.stale_dirties >= 1, "the refusal must be counted");
    assert_conformant("stale_dirty", &[&owner, &client]);
    assert_sim_time_under(&clock, Duration::from_secs(120), "stale_dirty");
}

#[test]
fn runtime_mass_churn_reaches_fixpoint() {
    // Many clients churning handles against one owner: after everything
    // drops, the owner's table must return to exactly the pinned roots.
    let net = SimNet::virtual_time(LinkConfig::instant(), 12);
    let clock = net.clock();
    let owner = space_on(&net, "owner", Options::fast());
    struct Factory {
        space: Space,
        made: Mutex<Vec<Arc<BoxExport<BoxImpl>>>>,
    }
    network_object! {
        /// Factory of boxes for the churn test.
        pub interface Mint ("conf.Mint"): client MintClient, export MintExport {
            0 => fn make(&self) -> BoxClient;
        }
    }
    impl Mint for Factory {
        fn make(&self) -> NetResult<BoxClient> {
            let obj = Arc::new(BoxExport(Arc::new(BoxImpl)));
            self.made.lock().push(Arc::clone(&obj));
            BoxClient::narrow(self.space.local(obj))
        }
    }
    owner
        .export(Arc::new(MintExport(Arc::new(Factory {
            space: owner.clone(),
            made: Mutex::new(Vec::new()),
        }))))
        .unwrap();

    let mut clients = Vec::new();
    for i in 0..4 {
        let net = Arc::clone(&net);
        clients.push(std::thread::spawn(move || {
            let space = space_on(&net, &format!("client{i}"), Options::fast());
            let mint = MintClient::narrow(
                space
                    .import_root(&Endpoint::sim("owner"), ObjIx::FIRST_USER)
                    .unwrap(),
            )
            .unwrap();
            for _ in 0..25 {
                let b = mint.make().unwrap();
                b.touch().unwrap();
                drop(b);
            }
            space
        }));
    }
    let spaces: Vec<Space> = clients.into_iter().map(|j| j.join().unwrap()).collect();
    // 100 boxes were minted and dropped; only the mint may remain.
    wait_until(&clock, "owner table back to the pinned mint", || {
        owner.exported_count() == 1
    });
    // Every import, the mint's included (its handle died with the client
    // thread): an import entry lives until its clean is acknowledged, so
    // zero means no clean is still in flight when the traces are captured —
    // one applied at the owner after its trace was read, but acknowledged
    // before the client's was, is an event the replay cannot explain.
    for s in &spaces {
        wait_until(&clock, "client imports drained", || s.imported_count() == 0);
    }

    let mut participants: Vec<&Space> = vec![&owner];
    participants.extend(spaces.iter());
    assert_conformant("mass_churn", &participants);
    assert_sim_time_under(&clock, Duration::from_secs(120), "mass_churn");
}
