//! The distributed reference-listing collector.
//!
//! Owner side: the dirty/clean/ping service answering at reserved object
//! index 0, applying sequence-numbered operations to the object table's
//! dirty sets, and the ping/lease demon detecting dead clients.
//!
//! Client side: reference import (surrogate life cycle: `⊥ → nil → OK →
//! ccit → ⊥`, with the `ccitnil` resurrection path), the cleanup demon
//! issuing clean calls when surrogates become unreachable, retry with
//! *strong* cleans after ambiguous failures, and lease renewal.
//!
//! The life-cycle logic deliberately mirrors, transition for transition,
//! the formal specification modelled in the `netobj-dgc-model` crate; the
//! comments name the corresponding abstract states.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use netobj_transport::clock::recv_deadline;
use netobj_transport::{Bytes, ClockHandle, Endpoint};
use netobj_wire::pickle::Pickle;
use netobj_wire::{ObjIx, SpaceId, TraceKind, TypeList, WireError, WireRep};

use crate::error::{Error, NetResult};
use crate::handle::{Handle, HandleKind, SurrogateCore};
use crate::marshal::UnmarshalCx;
use crate::space::{Space, SpaceInner};
use crate::table::{CleanOutcome, DirtyOutcome, ImportSlot, ImportState};

/// Method indices of the collector service object (index 0).
pub mod methods {
    /// `dirty(ix, seqno, client_endpoint?) -> TypeList`
    pub const DIRTY: u32 = 0;
    /// `clean(ix, seqno, strong) -> ()`
    pub const CLEAN: u32 = 1;
    /// `ping() -> ()`
    pub const PING: u32 = 2;
    /// `identify() -> (SpaceId, Option<Endpoint>)`
    pub const IDENTIFY: u32 = 3;
    /// `clean_batch(Vec<(ix, seqno, strong)>) -> ()` — several cleans in
    /// one call (the batching optimisation).
    pub const CLEAN_BATCH: u32 = 4;
}

/// Largest accepted `CLEAN_BATCH` (the demon sends at most
/// [`ROUND_JOBS`] per round).
pub(crate) const MAX_CLEAN_BATCH: usize = 4096;

/// The most jobs the cleanup demon takes in one round.
const ROUND_JOBS: usize = 64;

/// How long the cleanup demon waits, once a round opens with a clean, for
/// more cleans to queue behind it: drops come in bursts, and the cleans of
/// one round travel as one `clean_batch` per owner instead of one RPC each.
/// A clean is the one collector message that may be late — a later clean
/// only delays reclaim, safety rests on sequence numbers and the
/// transient-dirty pin — so the bound on the cost is this much more
/// reclaim lag. The demon sleeps rather than waiting on its queue: waking
/// on every send would cost the wake-up per drop that batching saves.
const CLEAN_LINGER: Duration = Duration::from_millis(1);

/// Work items for the cleanup demon.
pub(crate) enum GcJob {
    /// A surrogate core was dropped: begin cleanup unless resurrected.
    Unreachable { wirerep: WireRep, epoch: u64 },
    /// Send (or retry) a clean call.
    SendClean {
        wirerep: WireRep,
        owner_ep: Endpoint,
        seqno: u64,
        strong: bool,
        attempts: u32,
    },
    /// FIFO variant: register a reference in the background.
    AsyncDirty {
        wirerep: WireRep,
        owner_ep: Endpoint,
        seqno: u64,
        notify: SyncSender<NetResult<()>>,
    },
}

// ---------------------------------------------------------------------------
// Owner side: the GC service
// ---------------------------------------------------------------------------

/// Dispatches a call on the collector service object.
pub(crate) fn dispatch_gc(
    space: &Space,
    caller: SpaceId,
    method: u32,
    args: &[u8],
) -> NetResult<Vec<u8>> {
    match method {
        methods::DIRTY => {
            let (ix, seqno, client_ep) = <(u64, u64, Option<Endpoint>)>::from_pickle_bytes(args)?;
            // The protocol never issues sequence number 0 (`next_gc_seqno`
            // starts at 1); reject it as malformed rather than letting it
            // take the stale path, so fuzzers and broken peers get a
            // `BadArguments` reply instead of a confusing "stale" error.
            if seqno == 0 {
                return Err(Error::Wire(WireError::OutOfRange(
                    "dirty sequence number must be nonzero",
                )));
            }
            let target = WireRep::new(space.id(), ObjIx(ix));
            let outcome = space.inner.table.exports.apply_dirty(
                ObjIx(ix),
                caller,
                seqno,
                client_ep,
                space.inner.options.clock.now(),
                &space.inner.options.budget,
            );
            match outcome {
                DirtyOutcome::Applied(types) => {
                    space
                        .inner
                        .stats
                        .dirty_received
                        .fetch_add(1, Ordering::Relaxed);
                    space.emit(TraceKind::DirtyApplied {
                        owner: space.id(),
                        client: caller,
                        target,
                        seqno,
                    });
                    Ok(types.to_pickle_bytes())
                }
                DirtyOutcome::Stale => {
                    // Out-of-sequence dirty: "an incoming operation will be
                    // performed only if its sequence number exceeds this
                    // value; otherwise it has no effect." The caller must
                    // not believe it registered, so this is an error.
                    space
                        .inner
                        .stats
                        .dirty_stale
                        .fetch_add(1, Ordering::Relaxed);
                    space.emit(TraceKind::DirtyStale {
                        owner: space.id(),
                        client: caller,
                        target,
                        seqno,
                    });
                    Err(Error::ImportFailed("stale dirty call".into()))
                }
                DirtyOutcome::NoSuchObject => {
                    space.emit(TraceKind::DirtyRefused {
                        owner: space.id(),
                        client: caller,
                        target,
                        seqno,
                    });
                    Err(Error::NoSuchObject(WireRep::new(space.id(), ObjIx(ix))))
                }
                DirtyOutcome::QuotaExceeded(what) => {
                    space
                        .inner
                        .stats
                        .dirty_refused_quota
                        .fetch_add(1, Ordering::Relaxed);
                    space.emit(TraceKind::DirtyRefused {
                        owner: space.id(),
                        client: caller,
                        target,
                        seqno,
                    });
                    Err(Error::QuotaExceeded(format!(
                        "dirty call refused: {what} budget exhausted"
                    )))
                }
            }
        }
        methods::CLEAN => {
            let (ix, seqno, strong) = <(u64, u64, bool)>::from_pickle_bytes(args)?;
            if seqno == 0 {
                return Err(Error::Wire(WireError::OutOfRange(
                    "clean sequence number must be nonzero",
                )));
            }
            let outcome = space
                .inner
                .table
                .exports
                .apply_clean(ObjIx(ix), caller, seqno);
            space
                .inner
                .stats
                .clean_received
                .fetch_add(1, Ordering::Relaxed);
            trace_clean_outcome(space, caller, ObjIx(ix), seqno, strong, outcome);
            if outcome == CleanOutcome::Collected {
                space
                    .inner
                    .stats
                    .exports_collected
                    .fetch_add(1, Ordering::Relaxed);
            }
            Ok(().to_pickle_bytes())
        }
        methods::CLEAN_BATCH => {
            let entries = <Vec<(u64, u64, bool)>>::from_pickle_bytes(args)?;
            // Validate the whole batch before applying any entry, so a
            // malformed batch cannot leave the table half-mutated. The
            // demon batches at most 64 intents per round; 4096 leaves
            // generous headroom while bounding per-call work. A client has
            // at most one pending clean per object, so duplicate indices
            // can only come from a broken or hostile peer.
            if entries.len() > MAX_CLEAN_BATCH {
                return Err(Error::Wire(WireError::OutOfRange(
                    "clean batch exceeds maximum size",
                )));
            }
            if entries.iter().any(|&(_, seqno, _)| seqno == 0) {
                return Err(Error::Wire(WireError::OutOfRange(
                    "clean sequence number must be nonzero",
                )));
            }
            let mut seen = std::collections::HashSet::with_capacity(entries.len());
            if !entries.iter().all(|&(ix, _, _)| seen.insert(ix)) {
                return Err(Error::Wire(WireError::OutOfRange(
                    "clean batch repeats an object index",
                )));
            }
            // Each clean takes the export lock on its own; the batch is
            // transport-level batching, not an atomic group.
            let exports = &space.inner.table.exports;
            let outcomes: Vec<(u64, u64, bool, CleanOutcome)> = entries
                .iter()
                .map(|&(ix, seqno, strong)| {
                    (
                        ix,
                        seqno,
                        strong,
                        exports.apply_clean(ObjIx(ix), caller, seqno),
                    )
                })
                .collect();
            let mut collected = 0u64;
            for &(ix, seqno, strong, outcome) in &outcomes {
                trace_clean_outcome(space, caller, ObjIx(ix), seqno, strong, outcome);
                if outcome == CleanOutcome::Collected {
                    collected += 1;
                }
            }
            space
                .inner
                .stats
                .clean_received
                .fetch_add(entries.len() as u64, Ordering::Relaxed);
            space
                .inner
                .stats
                .exports_collected
                .fetch_add(collected, Ordering::Relaxed);
            Ok(().to_pickle_bytes())
        }
        methods::PING => {
            space
                .inner
                .stats
                .pings_received
                .fetch_add(1, Ordering::Relaxed);
            space.emit(TraceKind::PingReceived {
                space: space.id(),
                from: caller,
            });
            Ok(().to_pickle_bytes())
        }
        methods::IDENTIFY => Ok((space.id(), space.endpoint()).to_pickle_bytes()),
        _ => Err(Error::app(format!("gc service has no method {method}"))),
    }
}

/// Records the trace events for one applied (or rejected) clean call.
fn trace_clean_outcome(
    space: &Space,
    caller: SpaceId,
    ix: ObjIx,
    seqno: u64,
    strong: bool,
    outcome: CleanOutcome,
) {
    let target = WireRep::new(space.id(), ix);
    match outcome {
        CleanOutcome::Stale => space.emit(TraceKind::CleanStale {
            owner: space.id(),
            client: caller,
            target,
            seqno,
        }),
        CleanOutcome::Removed | CleanOutcome::Collected | CleanOutcome::NoOp => {
            space.emit(TraceKind::CleanApplied {
                owner: space.id(),
                client: caller,
                target,
                seqno,
                strong,
            });
            if outcome == CleanOutcome::Collected {
                space.emit(TraceKind::ExportCollected {
                    owner: space.id(),
                    target,
                });
            }
        }
    }
}

/// Issues one collector call through the space's resilient caller.
///
/// Dirty and clean calls pass `idempotent: false` even though re-applying
/// them is harmless at the owner: a transparent retry of a dirty/clean
/// whose first copy *did* land would carry an already-consumed sequence
/// number and be rejected as stale, converting an ambiguous success into a
/// definite failure. The collector has its own ambiguity protocol (strong
/// cleans, demon-level retries with the *same* seqno), so only
/// not-delivered failures are retried underneath it. Pings and identify
/// are genuinely idempotent.
#[allow(clippy::too_many_arguments)]
fn gc_call(
    space: &Space,
    target_space: SpaceId,
    ep: &Endpoint,
    method: u32,
    args: Vec<u8>,
    timeout: Duration,
    idempotent: bool,
    hist_kind: Option<usize>,
) -> NetResult<Bytes> {
    let clock = &space.inner.options.clock;
    let start = clock.now();
    let result = space
        .resilient_call(
            WireRep::gc_service(target_space),
            ep,
            method,
            Bytes::from(args),
            timeout,
            idempotent,
        )
        // Dropping the reply's ack token sends the acknowledgement.
        .map(|reply| reply.bytes);
    if let Some(kind) = hist_kind {
        // Latency of the whole resilient exchange, retries included —
        // what the collector actually waited, success or not.
        space.record_gc_call(kind, clock.now().saturating_duration_since(start));
    }
    result
}

/// Indices into [`crate::metrics::GC_KINDS`] for [`gc_call`]'s histogram.
mod gc_hist {
    pub(super) const DIRTY: Option<usize> = Some(0);
    pub(super) const CLEAN: Option<usize> = Some(1);
    pub(super) const STRONG_CLEAN: Option<usize> = Some(2);
    pub(super) const PING: Option<usize> = Some(3);
}

/// Asks the space listening at `ep` who it is.
pub(crate) fn identify(space: &Space, ep: &Endpoint) -> NetResult<(SpaceId, Option<Endpoint>)> {
    let bytes = gc_call(
        space,
        SpaceId::from_raw(0),
        ep,
        methods::IDENTIFY,
        ().to_pickle_bytes(),
        space.inner.options.dirty_timeout,
        true,
        None,
    )?;
    Ok(<(SpaceId, Option<Endpoint>)>::from_pickle_bytes(&bytes)?)
}

fn send_dirty(
    space: &Space,
    wirerep: WireRep,
    owner_ep: &Endpoint,
    seqno: u64,
) -> NetResult<TypeList> {
    space.inner.stats.dirty_sent.fetch_add(1, Ordering::Relaxed);
    space.emit(TraceKind::DirtySent {
        client: space.id(),
        owner: wirerep.space,
        target: wirerep,
        seqno,
    });
    let args = (wirerep.ix.0, seqno, space.endpoint()).to_pickle_bytes();
    let result = gc_call(
        space,
        wirerep.space,
        owner_ep,
        methods::DIRTY,
        args,
        space.inner.options.dirty_timeout,
        false,
        gc_hist::DIRTY,
    );
    // An ambiguous failure means no answer arrived — there is no ack to
    // record, and a strong clean will resolve the uncertainty.
    match &result {
        Ok(_) => space.emit(TraceKind::DirtyAcked {
            client: space.id(),
            owner: wirerep.space,
            target: wirerep,
            seqno,
            ok: true,
        }),
        Err(e) if !e.is_ambiguous() => space.emit(TraceKind::DirtyAcked {
            client: space.id(),
            owner: wirerep.space,
            target: wirerep,
            seqno,
            ok: false,
        }),
        Err(_) => {}
    }
    Ok(TypeList::from_pickle_bytes(&result?)?)
}

fn send_clean(
    space: &Space,
    wirerep: WireRep,
    owner_ep: &Endpoint,
    seqno: u64,
    strong: bool,
) -> NetResult<()> {
    if strong {
        space
            .inner
            .stats
            .strong_clean_sent
            .fetch_add(1, Ordering::Relaxed);
    } else {
        space.inner.stats.clean_sent.fetch_add(1, Ordering::Relaxed);
    }
    space.emit(TraceKind::CleanSent {
        client: space.id(),
        owner: wirerep.space,
        target: wirerep,
        seqno,
        strong,
        batched: false,
    });
    let args = (wirerep.ix.0, seqno, strong).to_pickle_bytes();
    let bytes = gc_call(
        space,
        wirerep.space,
        owner_ep,
        methods::CLEAN,
        args,
        space.inner.options.clean_timeout,
        false,
        if strong {
            gc_hist::STRONG_CLEAN
        } else {
            gc_hist::CLEAN
        },
    )?;
    space.emit(TraceKind::CleanAcked {
        client: space.id(),
        owner: wirerep.space,
        target: wirerep,
        seqno,
    });
    Ok(<()>::from_pickle_bytes(&bytes)?)
}

// ---------------------------------------------------------------------------
// Client side: reference import (the life cycle)
// ---------------------------------------------------------------------------

/// Binds a received reference to a handle, registering it with the owner.
///
/// This is the runtime's `receive_copy`: depending on the slot state it
/// creates the slot and performs the dirty call (`⊥ → nil → OK`), reuses
/// the live surrogate (`OK`), resurrects a dying one (cancelling the
/// pending cleanup), converts `ccit → ccitnil`, or blocks until a
/// concurrent registration or cleanup completes.
pub(crate) fn import_ref(
    space: &Space,
    wirerep: WireRep,
    owner_ep: Endpoint,
    types: TypeList,
    cx: Option<&mut UnmarshalCx<'_, '_>>,
) -> NetResult<Handle> {
    space.ensure_running()?;
    // The FIFO variant only applies to unmarshal paths (it exists to keep
    // deserialisation non-blocking). Bootstrap imports have no carrying
    // message whose acknowledgement could wait for the registration, and
    // no authoritative type list yet, so they use the base blocking path.
    if space.inner.options.fifo_variant && cx.is_some() {
        return import_ref_fifo(space, wirerep, owner_ep, types, cx);
    }
    // The import table's condvar signals slot transitions to the waits
    // below.
    let table = &space.inner.table.imports;
    loop {
        let mut imports = table.map.lock();
        match imports.get_mut(&wirerep) {
            None => {
                // ⊥ → nil: create the slot, then register with the owner.
                imports.insert(
                    wirerep,
                    ImportSlot {
                        owner_ep: owner_ep.clone(),
                        types: types.clone(),
                        state: ImportState::Creating,
                        epoch: 0,
                        weak: Weak::new(),
                        waiters: 0,
                        failed: false,
                    },
                );
                drop(imports);
                let seqno = space.next_gc_seqno();
                let clock = space.inner.options.clock.clone();
                let t0 = clock.now();
                let result = send_dirty(space, wirerep, &owner_ep, seqno);
                // The registering thread is "suspended deserialisation" for
                // the dirty round-trip, exactly like the waiters behind it.
                space
                    .inner
                    .stats
                    .add_blocked(clock.now().saturating_duration_since(t0));
                let mut imports = table.map.lock();
                let Some(slot) = imports.get_mut(&wirerep) else {
                    // Space raced shutdown; nothing to clean locally.
                    return Err(Error::SpaceStopped);
                };
                match result {
                    Ok(owner_types) => {
                        // nil → OK.
                        slot.types = owner_types;
                        slot.state = ImportState::Live;
                        let core = Arc::new(SurrogateCore {
                            space: space.clone(),
                            wirerep,
                            owner_ep,
                            types: slot.types.clone(),
                            epoch: slot.epoch,
                        });
                        slot.weak = Arc::downgrade(&core);
                        space
                            .inner
                            .stats
                            .surrogates_created
                            .fetch_add(1, Ordering::Relaxed);
                        space.emit(TraceKind::SurrogateCreated {
                            client: space.id(),
                            target: wirerep,
                            epoch: core.epoch,
                        });
                        table.cv.notify_all();
                        return Ok(Handle(HandleKind::Remote(core)));
                    }
                    Err(e) => {
                        // Dirty failed: no surrogate is created. If the
                        // call is ambiguous the owner may have registered
                        // us, so schedule a *strong* clean that outranks
                        // the possibly-delivered dirty.
                        slot.failed = true;
                        let drop_now = slot.waiters == 0;
                        if drop_now {
                            imports.remove(&wirerep);
                        }
                        table.cv.notify_all();
                        drop(imports);
                        if e.is_ambiguous() {
                            enqueue(
                                space,
                                GcJob::SendClean {
                                    wirerep,
                                    owner_ep: owner_ep.clone(),
                                    seqno: space.next_gc_seqno(),
                                    strong: true,
                                    attempts: 0,
                                },
                            );
                        }
                        return Err(Error::ImportFailed(format!("dirty call failed: {e}")));
                    }
                }
            }
            Some(slot) => {
                match slot.state {
                    ImportState::Live => {
                        if let Some(core) = slot.weak.upgrade() {
                            return Ok(Handle(HandleKind::Remote(core)));
                        }
                        // The surrogate died but its cleanup has not been
                        // sent yet: resurrect. Bumping the epoch cancels
                        // the queued unreachability notice (the model's
                        // removal of the scheduled clean call).
                        slot.epoch += 1;
                        let core = Arc::new(SurrogateCore {
                            space: space.clone(),
                            wirerep,
                            owner_ep: slot.owner_ep.clone(),
                            types: slot.types.clone(),
                            epoch: slot.epoch,
                        });
                        slot.weak = Arc::downgrade(&core);
                        space
                            .inner
                            .stats
                            .surrogates_resurrected
                            .fetch_add(1, Ordering::Relaxed);
                        space.emit(TraceKind::SurrogateCreated {
                            client: space.id(),
                            target: wirerep,
                            epoch: core.epoch,
                        });
                        return Ok(Handle(HandleKind::Remote(core)));
                    }
                    ImportState::Creating
                    | ImportState::CleanWait
                    | ImportState::CleanWaitResurrect => {
                        if slot.failed {
                            if slot.waiters == 0 {
                                imports.remove(&wirerep);
                                // Retry from scratch.
                                continue;
                            }
                            return Err(Error::ImportFailed(
                                "concurrent registration failed".into(),
                            ));
                        }
                        if slot.state == ImportState::CleanWait {
                            // ccit → ccitnil: a copy arrived while our
                            // clean call is in transit. The dirty call must
                            // wait for the clean acknowledgement.
                            slot.state = ImportState::CleanWaitResurrect;
                            space.emit(TraceKind::SurrogateResurrecting {
                                client: space.id(),
                                target: wirerep,
                                epoch: slot.epoch,
                            });
                        }
                        // Block the deserialisation thread until the slot
                        // becomes usable (the paper suspends the
                        // unmarshaling thread).
                        slot.waiters += 1;
                        let clock = space.inner.options.clock.clone();
                        let t0 = clock.now();
                        let deadline = t0 + space.inner.options.dirty_timeout * 2;
                        let vc_token = clock.as_virtual().map(|vc| vc.register_deadline(deadline));
                        let outcome = loop {
                            // Under a virtual clock the condvar cannot wait
                            // until a virtual instant; poll briefly and let
                            // auto-advance move time to the deadline.
                            let timeout = match clock.as_virtual() {
                                Some(vc) => {
                                    table.cv.wait_for(&mut imports, Duration::from_millis(1));
                                    vc.maybe_auto_advance();
                                    clock.now() >= deadline
                                }
                                None => table.cv.wait_until(&mut imports, deadline).timed_out(),
                            };
                            match imports.get_mut(&wirerep) {
                                None => break WaitOutcome::Gone,
                                Some(slot) => {
                                    if slot.failed {
                                        break WaitOutcome::Failed;
                                    }
                                    if slot.state == ImportState::Live {
                                        break WaitOutcome::Usable;
                                    }
                                    if timeout {
                                        break WaitOutcome::TimedOut;
                                    }
                                }
                            }
                        };
                        if let (Some(vc), Some(token)) = (clock.as_virtual(), vc_token) {
                            vc.deregister(token);
                        }
                        space
                            .inner
                            .stats
                            .add_blocked(clock.now().saturating_duration_since(t0));
                        match outcome {
                            WaitOutcome::Gone => {
                                // Slot vanished (cleanup completed, or a
                                // failed registration drained): start over.
                                continue;
                            }
                            WaitOutcome::Usable => {
                                let slot = imports.get_mut(&wirerep).expect("checked");
                                slot.waiters -= 1;
                                if let Some(core) = slot.weak.upgrade() {
                                    return Ok(Handle(HandleKind::Remote(core)));
                                }
                                slot.epoch += 1;
                                let core = Arc::new(SurrogateCore {
                                    space: space.clone(),
                                    wirerep,
                                    owner_ep: slot.owner_ep.clone(),
                                    types: slot.types.clone(),
                                    epoch: slot.epoch,
                                });
                                slot.weak = Arc::downgrade(&core);
                                space
                                    .inner
                                    .stats
                                    .surrogates_created
                                    .fetch_add(1, Ordering::Relaxed);
                                space.emit(TraceKind::SurrogateCreated {
                                    client: space.id(),
                                    target: wirerep,
                                    epoch: core.epoch,
                                });
                                return Ok(Handle(HandleKind::Remote(core)));
                            }
                            WaitOutcome::Failed => {
                                let slot = imports.get_mut(&wirerep).expect("checked");
                                slot.waiters -= 1;
                                if slot.waiters == 0 {
                                    imports.remove(&wirerep);
                                }
                                return Err(Error::ImportFailed(
                                    "concurrent registration failed".into(),
                                ));
                            }
                            WaitOutcome::TimedOut => {
                                let slot = imports.get_mut(&wirerep).expect("checked");
                                slot.waiters -= 1;
                                leave_idle_slot(space, wirerep, slot);
                                return Err(Error::ImportFailed(
                                    "timed out waiting for reference registration".into(),
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
}

enum WaitOutcome {
    Gone,
    Usable,
    Failed,
    TimedOut,
}

/// Called when the last waiter leaves a slot: if the slot ended up live
/// with no surrogate and no one to claim it, the reference would leak the
/// owner's dirty entry — schedule its cleanup.
fn leave_idle_slot(space: &Space, wirerep: WireRep, slot: &mut ImportSlot) {
    if slot.waiters == 0 && slot.state == ImportState::Live && slot.weak.upgrade().is_none() {
        let epoch = slot.epoch;
        enqueue(space, GcJob::Unreachable { wirerep, epoch });
    }
}

/// §5.1 FIFO variant: the reference becomes usable immediately and the
/// dirty call proceeds in the background over the (order-preserving)
/// connection; acknowledgement of the carrying message waits on it.
fn import_ref_fifo(
    space: &Space,
    wirerep: WireRep,
    owner_ep: Endpoint,
    types: TypeList,
    cx: Option<&mut UnmarshalCx<'_, '_>>,
) -> NetResult<Handle> {
    let mut imports = space.inner.table.imports.map.lock();
    let slot = imports.entry(wirerep).or_insert_with(|| ImportSlot {
        owner_ep: owner_ep.clone(),
        types: types.clone(),
        state: ImportState::Creating,
        epoch: 0,
        weak: Weak::new(),
        waiters: 0,
        failed: false,
    });
    if let Some(core) = slot.weak.upgrade() {
        return Ok(Handle(HandleKind::Remote(core)));
    }
    let needs_dirty = match slot.state {
        // Fresh slot, or a reclaimed one: must (re)register.
        ImportState::Creating => true,
        // Live with a dead weak: the cleanup was not *sent* yet (the queued
        // notice dies against the epoch bump); the owner still lists us.
        ImportState::Live => false,
        // Cleanup in flight: because the channel is FIFO, a new dirty
        // queued now arrives after the clean — re-register, no blocking.
        ImportState::CleanWait | ImportState::CleanWaitResurrect => true,
    };
    slot.epoch += 1;
    slot.state = ImportState::Live;
    slot.failed = false;
    let core = Arc::new(SurrogateCore {
        space: space.clone(),
        wirerep,
        owner_ep: owner_ep.clone(),
        types: slot.types.clone(),
        epoch: slot.epoch,
    });
    slot.weak = Arc::downgrade(&core);
    space
        .inner
        .stats
        .surrogates_created
        .fetch_add(1, Ordering::Relaxed);
    drop(imports);
    space.emit(TraceKind::SurrogateCreated {
        client: space.id(),
        target: wirerep,
        epoch: core.epoch,
    });

    if needs_dirty {
        let (tx, rx) = sync_channel(1);
        enqueue(
            space,
            GcJob::AsyncDirty {
                wirerep,
                owner_ep,
                seqno: space.next_gc_seqno(),
                notify: tx,
            },
        );
        match cx {
            Some(cx) => cx.push_pending(rx),
            None => {
                // No unmarshal context (bootstrap import): wait here.
                match rx.recv() {
                    Ok(r) => r?,
                    Err(_) => return Err(Error::SpaceStopped),
                }
            }
        }
    }
    Ok(Handle(HandleKind::Remote(core)))
}

// ---------------------------------------------------------------------------
// The cleanup demon
// ---------------------------------------------------------------------------

pub(crate) fn start_demons(space: &Space) {
    let (tx, rx) = channel::<GcJob>();
    *space.inner.gc_tx.lock() = Some(tx);
    let weak = Arc::downgrade(&space.inner);
    // Demons keep only a Weak to the space but a strong clock handle: the
    // clock outliving the space is harmless, the reverse would leak it.
    let clock = space.inner.options.clock.clone();
    // Not in the FIFO variant: there `AsyncDirty` shares the queue, and a
    // caller's acknowledgement waits for it.
    let linger = space.inner.options.batch_cleans && !space.inner.options.fifo_variant;
    let demon = std::thread::Builder::new()
        .name("netobj-cleanup".into())
        .spawn(move || cleanup_loop(weak, rx, clock, linger))
        .expect("spawn cleanup demon");
    *space.inner.demon.lock() = Some(demon);

    let needs_pinger =
        space.inner.options.ping_interval.is_some() || space.inner.options.lease.is_some();
    if needs_pinger {
        let weak = Arc::downgrade(&space.inner);
        let clock = space.inner.options.clock.clone();
        let pinger = std::thread::Builder::new()
            .name("netobj-pinger".into())
            .spawn(move || ping_loop(weak, clock))
            .expect("spawn ping demon");
        *space.inner.pinger.lock() = Some(pinger);
    }
}

pub(crate) fn enqueue(space: &Space, job: GcJob) {
    let tx = space.inner.gc_tx.lock().clone();
    if let Some(tx) = tx {
        let _ = tx.send(job);
    }
}

/// One clean call the demon intends to send.
struct CleanIntent {
    wirerep: WireRep,
    owner_ep: Endpoint,
    seqno: u64,
    strong: bool,
    attempts: u32,
}

/// The cleanup demon. With `linger`, a round that opens with a clean
/// waits [`CLEAN_LINGER`] before it takes the rest of the round.
fn cleanup_loop(weak: Weak<SpaceInner>, rx: Receiver<GcJob>, clock: ClockHandle, linger: bool) {
    // Retry queue: (due time, intent).
    let mut retries: VecDeque<(Instant, CleanIntent)> = VecDeque::new();
    loop {
        let step = retries
            .front()
            .map(|(due, _)| due.saturating_duration_since(clock.now()))
            .unwrap_or(Duration::from_millis(100))
            .min(Duration::from_millis(100));
        // Gather a burst of jobs so cleans destined for the same owner
        // can travel together.
        let mut jobs: Vec<GcJob> = Vec::new();
        match recv_deadline(clock.as_dyn(), &rx, step) {
            Ok(job) => {
                let clean_first =
                    matches!(job, GcJob::Unreachable { .. } | GcJob::SendClean { .. });
                jobs.push(job);
                jobs.extend(rx.try_iter().take(ROUND_JOBS - jobs.len()));
                if linger && clean_first && jobs.len() < ROUND_JOBS {
                    clock.sleep(CLEAN_LINGER);
                    jobs.extend(rx.try_iter().take(ROUND_JOBS - jobs.len()));
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        let Some(inner) = weak.upgrade() else { return };
        if inner.stopped.load(Ordering::Acquire) {
            return;
        }
        let space = Space::from_inner(inner);

        let mut intents: Vec<CleanIntent> = Vec::new();
        for job in jobs {
            match job {
                GcJob::Unreachable { wirerep, epoch } => {
                    if let Some(intent) = begin_cleanup(&space, wirerep, epoch) {
                        intents.push(intent);
                    }
                }
                GcJob::SendClean {
                    wirerep,
                    owner_ep,
                    seqno,
                    strong,
                    attempts,
                } => intents.push(CleanIntent {
                    wirerep,
                    owner_ep,
                    seqno,
                    strong,
                    attempts,
                }),
                GcJob::AsyncDirty {
                    wirerep,
                    owner_ep,
                    seqno,
                    notify,
                } => do_async_dirty(&space, wirerep, owner_ep, seqno, notify),
            }
        }

        // Due retries join the same dispatch round (and may batch).
        let now = clock.now();
        let mut n = retries.len();
        while n > 0 {
            n -= 1;
            if retries.front().is_some_and(|(due, _)| *due <= now) {
                let (_, intent) = retries.pop_front().expect("checked");
                intents.push(intent);
            } else if let Some(item) = retries.pop_front() {
                retries.push_back(item);
            }
        }

        dispatch_cleans(&space, &mut retries, intents);
        // The retry queue lives on this thread; publish its depth so the
        // metrics snapshot can gauge it.
        space
            .inner
            .pending_clean_retries
            .store(retries.len() as u64, Ordering::Relaxed);
    }
}

/// The `Unreachable` state transition (finalize + do_clean_call): returns
/// the clean to send, or `None` for stale notices.
fn begin_cleanup(space: &Space, wirerep: WireRep, epoch: u64) -> Option<CleanIntent> {
    let owner_ep = {
        let mut imports = space.inner.table.imports.map.lock();
        match imports.get_mut(&wirerep) {
            Some(slot)
                if slot.epoch == epoch
                    && slot.state == ImportState::Live
                    && slot.weak.upgrade().is_none() =>
            {
                // OK → ccit.
                slot.state = ImportState::CleanWait;
                slot.owner_ep.clone()
            }
            // Stale notice: the reference was resurrected (epoch moved
            // on) or is already being cleaned.
            _ => return None,
        }
    };
    Some(CleanIntent {
        wirerep,
        owner_ep,
        seqno: space.next_gc_seqno(),
        strong: false,
        attempts: 0,
    })
}

fn do_async_dirty(
    space: &Space,
    wirerep: WireRep,
    owner_ep: Endpoint,
    seqno: u64,
    notify: SyncSender<NetResult<()>>,
) {
    let result = send_dirty(space, wirerep, &owner_ep, seqno);
    match result {
        Ok(_types) => {
            let _ = notify.send(Ok(()));
        }
        Err(e) => {
            // Registration failed: the surrogate is unusable. Mark the
            // slot failed so future imports retry, and send a strong
            // clean if the dirty may have landed.
            {
                let mut imports = space.inner.table.imports.map.lock();
                if let Some(slot) = imports.get_mut(&wirerep) {
                    if slot.weak.upgrade().is_none() {
                        imports.remove(&wirerep);
                    } else {
                        slot.failed = true;
                    }
                }
            }
            if e.is_ambiguous() {
                enqueue(
                    space,
                    GcJob::SendClean {
                        wirerep,
                        owner_ep,
                        seqno: space.next_gc_seqno(),
                        strong: true,
                        attempts: 0,
                    },
                );
            }
            let _ = notify.send(Err(e));
        }
    }
}

/// Sends a round of clean intents, batching per owner when enabled.
fn dispatch_cleans(
    space: &Space,
    retries: &mut VecDeque<(Instant, CleanIntent)>,
    intents: Vec<CleanIntent>,
) {
    if intents.is_empty() {
        return;
    }
    if !space.inner.options.batch_cleans || intents.len() == 1 {
        for intent in intents {
            attempt_clean(space, retries, intent);
        }
        return;
    }
    // Group by (endpoint, owner space): one batch call per owner. The
    // space id participates so that intents addressed to a restarted
    // space at a reused endpoint are never mixed.
    let mut groups: std::collections::BTreeMap<(Endpoint, u128), Vec<CleanIntent>> =
        Default::default();
    for intent in intents {
        groups
            .entry((intent.owner_ep.clone(), intent.wirerep.space.as_raw()))
            .or_default()
            .push(intent);
    }
    for ((owner_ep, _space), group) in groups {
        if group.len() == 1 {
            for intent in group {
                attempt_clean(space, retries, intent);
            }
            continue;
        }
        match send_clean_batch(space, &owner_ep, &group) {
            Ok(()) => {
                for intent in &group {
                    handle_clean_ack(space, intent.wirerep);
                }
            }
            Err(_e) => {
                for intent in group {
                    clean_failed(space, retries, intent);
                }
            }
        }
    }
}

fn attempt_clean(
    space: &Space,
    retries: &mut VecDeque<(Instant, CleanIntent)>,
    intent: CleanIntent,
) {
    match send_clean(
        space,
        intent.wirerep,
        &intent.owner_ep,
        intent.seqno,
        intent.strong,
    ) {
        Ok(()) => handle_clean_ack(space, intent.wirerep),
        Err(_e) => clean_failed(space, retries, intent),
    }
}

fn clean_failed(
    space: &Space,
    retries: &mut VecDeque<(Instant, CleanIntent)>,
    intent: CleanIntent,
) {
    if intent.attempts + 1 < space.inner.options.max_clean_retries {
        // "When a clean call fails, the cleanup demon merely leaves the
        // request on its queue, keeping the same sequence number."
        space
            .inner
            .stats
            .clean_retries
            .fetch_add(1, Ordering::Relaxed);
        retries.push_back((
            space.inner.options.clock.now() + space.inner.options.clean_retry,
            CleanIntent {
                attempts: intent.attempts + 1,
                ..intent
            },
        ));
    } else {
        // Owner presumed dead: abandon the reference entirely, and break
        // every other surrogate into that space so calls fail fast instead
        // of each burning a full timeout.
        space.mark_owner_dead(intent.wirerep.space);
        let table = &space.inner.table.imports;
        let mut imports = table.map.lock();
        if let Some(slot) = imports.get_mut(&intent.wirerep) {
            slot.failed = true;
            let no_waiters = slot.waiters == 0;
            if no_waiters {
                imports.remove(&intent.wirerep);
            }
        }
        drop(imports);
        table.cv.notify_all();
    }
}

/// Sends several cleans to one owner in a single RPC.
fn send_clean_batch(space: &Space, owner_ep: &Endpoint, intents: &[CleanIntent]) -> NetResult<()> {
    let owner_space = intents[0].wirerep.space;
    debug_assert!(intents.iter().all(|i| i.wirerep.space == owner_space));
    for intent in intents {
        if intent.strong {
            space
                .inner
                .stats
                .strong_clean_sent
                .fetch_add(1, Ordering::Relaxed);
        } else {
            space.inner.stats.clean_sent.fetch_add(1, Ordering::Relaxed);
        }
    }
    space
        .inner
        .stats
        .clean_batches
        .fetch_add(1, Ordering::Relaxed);
    for intent in intents {
        space.emit(TraceKind::CleanSent {
            client: space.id(),
            owner: intent.wirerep.space,
            target: intent.wirerep,
            seqno: intent.seqno,
            strong: intent.strong,
            batched: true,
        });
    }
    let entries: Vec<(u64, u64, bool)> = intents
        .iter()
        .map(|i| (i.wirerep.ix.0, i.seqno, i.strong))
        .collect();
    let bytes = gc_call(
        space,
        owner_space,
        owner_ep,
        methods::CLEAN_BATCH,
        entries.to_pickle_bytes(),
        space.inner.options.clean_timeout,
        false,
        gc_hist::CLEAN,
    )?;
    for intent in intents {
        space.emit(TraceKind::CleanAcked {
            client: space.id(),
            owner: intent.wirerep.space,
            target: intent.wirerep,
            seqno: intent.seqno,
        });
    }
    Ok(<()>::from_pickle_bytes(&bytes)?)
}

/// Applies the client-side effect of a clean acknowledgement.
fn handle_clean_ack(space: &Space, wirerep: WireRep) {
    enum Next {
        Nothing,
        Redirty { owner_ep: Endpoint },
    }
    let table = &space.inner.table.imports;
    let next = {
        let mut imports = table.map.lock();
        match imports.get_mut(&wirerep) {
            // ccit → ⊥: the reference's life ends here.
            Some(slot) if slot.state == ImportState::CleanWait => {
                imports.remove(&wirerep);
                table.cv.notify_all();
                Next::Nothing
            }
            // ccitnil → nil: a copy arrived while the clean was in
            // transit; a fresh registration starts now.
            Some(slot) if slot.state == ImportState::CleanWaitResurrect => {
                slot.state = ImportState::Creating;
                Next::Redirty {
                    owner_ep: slot.owner_ep.clone(),
                }
            }
            // Resurrected (FIFO variant) or already gone: nothing to do.
            _ => Next::Nothing,
        }
    };
    if let Next::Redirty { owner_ep } = next {
        let seqno = space.next_gc_seqno();
        let result = send_dirty(space, wirerep, &owner_ep, seqno);
        let mut imports = table.map.lock();
        let Some(slot) = imports.get_mut(&wirerep) else {
            return;
        };
        match result {
            Ok(types) => {
                // nil → OK; a blocked unmarshal thread will install the
                // new surrogate core when it wakes.
                slot.types = types;
                slot.state = ImportState::Live;
                slot.weak = Weak::new();
                if slot.waiters == 0 {
                    // Nobody to claim it: schedule its cleanup or the
                    // owner's dirty entry would leak.
                    let epoch = slot.epoch;
                    drop(imports);
                    enqueue(space, GcJob::Unreachable { wirerep, epoch });
                    table.cv.notify_all();
                    return;
                }
            }
            Err(e) => {
                slot.failed = true;
                if slot.waiters == 0 {
                    imports.remove(&wirerep);
                }
                if e.is_ambiguous() {
                    drop(imports);
                    enqueue(
                        space,
                        GcJob::SendClean {
                            wirerep,
                            owner_ep,
                            seqno: space.next_gc_seqno(),
                            strong: true,
                            attempts: 0,
                        },
                    );
                    table.cv.notify_all();
                    return;
                }
            }
        }
        table.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Termination detection: pings and leases
// ---------------------------------------------------------------------------

fn ping_loop(weak: Weak<SpaceInner>, clock: ClockHandle) {
    let mut fail_counts: std::collections::HashMap<SpaceId, u32> = std::collections::HashMap::new();
    // Client role: consecutive failed lease-renewal *rounds* per owner. An
    // owner that misses `ping_failures` rounds in a row is declared dead.
    let mut renew_fail_rounds: std::collections::HashMap<SpaceId, u32> =
        std::collections::HashMap::new();
    let mut last_ping = clock.now();
    let mut last_renew = clock.now();
    loop {
        clock.sleep(Duration::from_millis(25));
        let Some(inner) = weak.upgrade() else { return };
        if inner.stopped.load(Ordering::Acquire) {
            return;
        }
        let space = Space::from_inner(inner);
        let options = space.inner.options.clone();

        // Owner role: ping clients holding dirty entries.
        if let Some(interval) = options.ping_interval {
            if clock.now().saturating_duration_since(last_ping) >= interval {
                last_ping = clock.now();
                let clients = space.inner.table.exports.dirty_clients();
                for (client, ep) in clients {
                    let Some(ep) = ep else { continue };
                    let ok = ping_client(&space, client, &ep);
                    if ok {
                        fail_counts.remove(&client);
                    } else {
                        let n = fail_counts.entry(client).or_insert(0);
                        *n += 1;
                        if *n >= options.ping_failures {
                            // "The client is assumed to have died, and is
                            // removed from all dirty sets at that owner."
                            let collected = space.inner.table.exports.purge_client(client);
                            space.emit(TraceKind::ClientPurged {
                                owner: space.id(),
                                client,
                            });
                            space
                                .inner
                                .stats
                                .clients_purged
                                .fetch_add(1, Ordering::Relaxed);
                            space
                                .inner
                                .stats
                                .exports_collected
                                .fetch_add(collected, Ordering::Relaxed);
                            fail_counts.remove(&client);
                        }
                    }
                }
            }
        }

        // Lease mode.
        if let Some(lease) = options.lease {
            // Owner role: expire unrenewed entries. (checked_sub: a virtual
            // clock starts with headroom, but a very young system clock may
            // not reach back a full lease.)
            if let Some(cutoff) = clock.now().checked_sub(lease) {
                let (expired, collected) = space.inner.table.exports.expire_leases(cutoff);
                if expired > 0 {
                    space.emit(TraceKind::LeaseExpired {
                        owner: space.id(),
                        expired,
                    });
                    space
                        .inner
                        .stats
                        .leases_expired
                        .fetch_add(expired, Ordering::Relaxed);
                    space
                        .inner
                        .stats
                        .exports_collected
                        .fetch_add(collected, Ordering::Relaxed);
                }
            }
            // Client role: renew live surrogates.
            if clock.now().saturating_duration_since(last_renew) >= lease / 3 {
                last_renew = clock.now();
                let live: Vec<(WireRep, Endpoint)> = space
                    .inner
                    .table
                    .imports
                    .map
                    .lock()
                    .iter()
                    .filter(|(_, s)| s.state == ImportState::Live && s.weak.upgrade().is_some())
                    .map(|(w, s)| (*w, s.owner_ep.clone()))
                    .collect();
                let mut round_failed: std::collections::HashSet<SpaceId> = Default::default();
                let mut round_ok: std::collections::HashSet<SpaceId> = Default::default();
                for (wirerep, ep) in live {
                    let seqno = space.next_gc_seqno();
                    // Any failure counts, not just transport ones: a
                    // definite rejection of a renewal means this owner
                    // *instance* no longer lists us.
                    match send_dirty(&space, wirerep, &ep, seqno) {
                        Ok(_) => round_ok.insert(wirerep.space),
                        Err(_) => round_failed.insert(wirerep.space),
                    };
                }
                for owner in round_ok {
                    round_failed.remove(&owner);
                    renew_fail_rounds.remove(&owner);
                }
                for owner in round_failed {
                    let n = renew_fail_rounds.entry(owner).or_insert(0);
                    *n += 1;
                    if *n >= options.ping_failures {
                        // The owner is unreachable past the detection
                        // threshold: break its surrogates so calls fail
                        // fast with `OwnerDead` (the lease will lapse at
                        // the owner too; the reference is lost either way).
                        space.mark_owner_dead(owner);
                        renew_fail_rounds.remove(&owner);
                    }
                }
            }
        }
    }
}

fn ping_client(space: &Space, client: SpaceId, ep: &Endpoint) -> bool {
    space.inner.stats.pings_sent.fetch_add(1, Ordering::Relaxed);
    space.emit(TraceKind::PingSent {
        owner: space.id(),
        client,
    });
    gc_call(
        space,
        client,
        ep,
        methods::PING,
        ().to_pickle_bytes(),
        space.inner.options.clean_timeout,
        true,
        gc_hist::PING,
    )
    .is_ok()
}
