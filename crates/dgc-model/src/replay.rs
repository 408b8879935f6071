//! The trace-capture conformance oracle: replays live collector traces
//! onto the formal model.
//!
//! The runtime records every collector-relevant action as a
//! [`TraceEvent`] in its space's trace ring (`netobj::Space::trace_events`). This
//! module merges the rings of every space in a scenario and *folds* the
//! observed events back onto the abstract machine of [`crate::rules`],
//! firing only transitions whose guards hold, and running the full
//! invariant battery ([`check_all`]) plus the termination-measure check
//! after **every** fired transition.
//!
//! ## Folding
//!
//! The runtime and the model sit at different abstraction levels: the
//! runtime has sequence numbers, retries, strong cleans, leases and
//! crashes; the model has six message kinds and thirteen rules. The
//! replayer bridges the gap *observationally* — it drives the model from
//! the events that witness protocol progress and treats the rest as
//! annotations:
//!
//! - `DirtyApplied` at the owner is the witness that a registration
//!   reached the owner; depending on the client's model state it folds
//!   to `make_copy; receive_copy; do_dirty_call; receive_dirty;
//!   do_dirty_ack` (first contact) or just the dirty half
//!   (re-registration after a clean).
//! - `DirtyAcked { ok: true }` at the client folds to
//!   `receive_dirty_ack` plus the deferred copy acknowledgements.
//! - `CleanSent` folds to `finalize; do_clean_call`; `CleanApplied` to
//!   `receive_clean; do_clean_ack`; `CleanAcked` to `receive_clean_ack`.
//! - `SurrogateResurrecting` is a copy arriving while a clean is in
//!   transit: `make_copy; receive_copy` driving `ccit → ccitnil`.
//! - A dirty that outruns its own space's earlier clean (the TR-116
//!   transmission race, visible as `DirtyApplied` while the model client
//!   is in `ccitnil`) folds the superseded clean to completion first —
//!   the model's Note 5 postponement — and the later `CleanStale` /
//!   `CleanAcked` events for the dead clean become no-ops.
//!
//! Stale rejections (`DirtyStale`, `CleanStale`), ping traffic, pins and
//! failure verdicts have no model analogue and are only counted. Lease
//! expiries, purges, crashes and owner-death verdicts *retire*
//! participants: later events touching a retired pair are dropped
//! rather than reported as unresolved.
//!
//! ## What the oracle catches
//!
//! Because the replayer only ever fires *enabled* transitions, the model
//! configuration stays reachable by construction and the invariants act
//! as a self-check on the folding itself. The teeth are elsewhere:
//!
//! 1. **Premature reclamation.** `ExportCollected` asserts that the
//!    model's permanent dirty set for the object is empty (modulo
//!    retired clients) and that no copy of it is in flight. This is the
//!    paper's safety property, checked against the real collector.
//! 2. **Inexplicable events.** An event that never finds a legal model
//!    explanation — a clean acknowledged that was never received, a
//!    dirty applied out of nowhere — ends up in
//!    [`ReplayReport::unresolved`].
//! 3. **Liveness accounting.** Every folded non-mutator transition must
//!    strictly decrease the termination measure, re-validating the
//!    liveness argument on real schedules.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use netobj_wire::{SpaceId, TraceEvent, TraceKind, WireRep};

use crate::invariants::check_all;
use crate::measure::termination_measure;
use crate::rules::{apply, enabled, Transition};
use crate::state::{Config, Msg, Proc, RecState, Ref};

/// Outcome of feeding one event to the folding engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Outcome {
    /// One or more model transitions fired.
    Applied,
    /// Informational event (pings, pins, stale rejections, …).
    Observed,
    /// A retry or duplicate whose effect is already in the model.
    Redundant,
    /// A fault-path action the fault-free model cannot express.
    Unmodeled,
    /// Guards not met yet — requeued and retried after later progress.
    Blocked,
}

/// Result of replaying a set of traces onto the model.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Total events consumed.
    pub events: usize,
    /// Model transitions fired.
    pub transitions: usize,
    /// Spaces (model processes) that appeared in the traces.
    pub spaces: usize,
    /// Distinct object references that appeared in the traces.
    pub refs: usize,
    /// Dirty calls the owner rejected as out-of-sequence (TR-116 guard).
    pub stale_dirties: usize,
    /// Clean calls the owner rejected as out-of-sequence.
    pub stale_cleans: usize,
    /// Events that were retries or duplicates of already-folded work.
    pub redundant: usize,
    /// Events on fault paths the fault-free model does not express.
    pub unmodeled: usize,
    /// Events that never found a legal model explanation.
    pub unresolved: Vec<String>,
    /// Invariant, safety or measure violations (empty ⇔ conformant).
    pub violations: Vec<String>,
    /// The model configuration after the last folded transition.
    pub final_config: Config,
}

impl ReplayReport {
    /// True when the trace is explainable by the model with no
    /// invariant, safety or measure violation.
    pub fn is_conformant(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Folds captured runtime traces onto the formal model.
///
/// Feed each space's ring with [`ingest`](Replayer::ingest), then call
/// [`replay`](Replayer::replay).
#[derive(Default)]
pub struct Replayer {
    traces: Vec<(SpaceId, Vec<TraceEvent>)>,
}

impl Replayer {
    /// Creates an empty replayer.
    pub fn new() -> Replayer {
        Replayer::default()
    }

    /// Adds one space's captured events (its trace-ring snapshot).
    pub fn ingest(&mut self, space: SpaceId, events: Vec<TraceEvent>) {
        self.traces.push((space, events));
    }

    /// Merges all ingested traces and replays them onto the model.
    pub fn replay(self) -> ReplayReport {
        replay_traces(&self.traces)
    }
}

/// Convenience entry point: replays `(space, events)` pairs directly.
pub fn replay_traces(traces: &[(SpaceId, Vec<TraceEvent>)]) -> ReplayReport {
    // Pass 1: discover the universe of spaces and references so the
    // model configuration can be built up front (the model fixes its
    // process and reference sets at construction).
    let mut space_ids: BTreeSet<SpaceId> = BTreeSet::new();
    let mut wirereps: BTreeSet<WireRep> = BTreeSet::new();
    for (src, events) in traces {
        space_ids.insert(*src);
        for ev in events {
            let (spaces, target) = participants(&ev.kind);
            space_ids.extend(spaces);
            if let Some(rep) = target {
                space_ids.insert(rep.space);
                wirereps.insert(rep);
            }
        }
    }

    let procs: BTreeMap<SpaceId, Proc> = space_ids
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, Proc(i)))
        .collect();
    let refs: BTreeMap<WireRep, Ref> = wirereps
        .iter()
        .enumerate()
        .map(|(i, &w)| (w, Ref(i)))
        .collect();
    let owners: Vec<usize> = wirereps.iter().map(|w| procs[&w.space].0).collect();
    let cfg = Config::new(procs.len().max(1), &owners);

    // Merge: order by (event time, emitting space, per-space seq). The
    // retry queue below absorbs residual cross-space clock skew.
    let mut merged: Vec<(u64, u128, u64, TraceKind)> = Vec::new();
    for (src, events) in traces {
        for ev in events {
            merged.push((ev.at_micros, src.as_raw(), ev.seq, ev.kind.clone()));
        }
    }
    merged.sort_by_key(|a| (a.0, a.1, a.2));

    let mut engine = Engine {
        cfg,
        procs,
        refs,
        compensated_cleans: BTreeMap::new(),
        compensated_clean_acks: BTreeMap::new(),
        compensated_dirty_acks: BTreeMap::new(),
        retired: BTreeSet::new(),
        purged: BTreeSet::new(),
        owner_dead: BTreeSet::new(),
        pending: VecDeque::new(),
        events: 0,
        transitions: 0,
        stale_dirties: 0,
        stale_cleans: 0,
        redundant: 0,
        unmodeled: 0,
        unresolved: Vec::new(),
        violations: Vec::new(),
    };

    for (_, _, _, kind) in merged {
        engine.events += 1;
        match engine.handle(&kind) {
            Outcome::Blocked => engine.pending.push_back(kind),
            o => {
                engine.count(o);
                if o == Outcome::Applied {
                    engine.drain_pending();
                }
            }
        }
    }
    engine.drain_pending();
    engine.finish()
}

/// Spaces and object reference named by an event (for pass 1).
fn participants(kind: &TraceKind) -> (Vec<SpaceId>, Option<WireRep>) {
    use TraceKind::*;
    match kind {
        DirtySent {
            client,
            owner,
            target,
            ..
        }
        | DirtyAcked {
            client,
            owner,
            target,
            ..
        }
        | CleanSent {
            client,
            owner,
            target,
            ..
        }
        | CleanAcked {
            client,
            owner,
            target,
            ..
        }
        | DirtyApplied {
            owner,
            client,
            target,
            ..
        }
        | DirtyStale {
            owner,
            client,
            target,
            ..
        }
        | DirtyRefused {
            owner,
            client,
            target,
            ..
        }
        | CleanApplied {
            owner,
            client,
            target,
            ..
        }
        | CleanStale {
            owner,
            client,
            target,
            ..
        } => (vec![*client, *owner], Some(*target)),
        SurrogateCreated { client, target, .. }
        | SurrogateResurrecting { client, target, .. }
        | SurrogateDropped { client, target, .. } => (vec![*client], Some(*target)),
        TransientPinned { owner, target, .. }
        | TransientReleased { owner, target, .. }
        | ExportCreated { owner, target }
        | ExportCollected { owner, target } => (vec![*owner], Some(*target)),
        PingSent { owner, client } | ClientPurged { owner, client } => {
            (vec![*owner, *client], None)
        }
        PingReceived { space, from } => (vec![*space, *from], None),
        LeaseExpired { owner, .. } => (vec![*owner], None),
        OwnerDead { client, owner } => (vec![*client, *owner], None),
        SpaceCrashed { space } => (vec![*space], None),
    }
}

struct Engine {
    cfg: Config,
    procs: BTreeMap<SpaceId, Proc>,
    refs: BTreeMap<WireRep, Ref>,
    /// Cleans folded to completion ahead of their own events (per
    /// client/ref): the later `CleanApplied` decrements instead of
    /// refolding.
    compensated_cleans: BTreeMap<(Proc, Ref), usize>,
    /// Same, for the client-side `CleanAcked` of a compensated clean.
    compensated_clean_acks: BTreeMap<(Proc, Ref), usize>,
    /// Dirty acks received on the client's behalf by a legalisation fold
    /// (a `CleanApplied` that sorted before the client's `DirtyAcked`
    /// because of ring-epoch skew): the later `DirtyAcked` decrements
    /// instead of looking for a `DirtyAck` that is no longer in transit.
    compensated_dirty_acks: BTreeMap<(Proc, Ref), usize>,
    /// Crashed spaces: events touching them are dropped from then on.
    retired: BTreeSet<Proc>,
    /// `(owner, client)` pairs the owner has unilaterally unregistered.
    purged: BTreeSet<(Proc, Proc)>,
    /// `(client, owner)` pairs the client has given up on.
    owner_dead: BTreeSet<(Proc, Proc)>,
    pending: VecDeque<TraceKind>,
    events: usize,
    transitions: usize,
    stale_dirties: usize,
    stale_cleans: usize,
    redundant: usize,
    unmodeled: usize,
    unresolved: Vec<String>,
    violations: Vec<String>,
}

impl Engine {
    fn count(&mut self, o: Outcome) {
        match o {
            Outcome::Redundant => self.redundant += 1,
            Outcome::Unmodeled => self.unmodeled += 1,
            Outcome::Applied | Outcome::Observed => {}
            Outcome::Blocked => unreachable!("blocked events are queued, not counted"),
        }
    }

    /// Retries queued events until a full pass makes no progress.
    fn drain_pending(&mut self) {
        loop {
            let mut progressed = false;
            let mut still = VecDeque::new();
            while let Some(kind) = self.pending.pop_front() {
                match self.handle(&kind) {
                    Outcome::Blocked => still.push_back(kind),
                    o => {
                        self.count(o);
                        progressed = true;
                    }
                }
            }
            self.pending = still;
            if !progressed {
                break;
            }
        }
    }

    fn finish(mut self) -> ReplayReport {
        let leftovers: Vec<TraceKind> = self.pending.drain(..).collect();
        for kind in leftovers {
            if self.is_retired(&kind) || self.settled_at_end(&kind) {
                self.redundant += 1;
            } else {
                self.unresolved.push(format!("{kind:?}"));
            }
        }
        ReplayReport {
            events: self.events,
            transitions: self.transitions,
            spaces: self.procs.len(),
            refs: self.refs.len(),
            stale_dirties: self.stale_dirties,
            stale_cleans: self.stale_cleans,
            redundant: self.redundant,
            unmodeled: self.unmodeled,
            unresolved: self.unresolved,
            violations: self.violations,
            final_config: self.cfg,
        }
    }

    fn proc(&self, s: SpaceId) -> Proc {
        self.procs[&s]
    }

    fn obj(&self, w: WireRep) -> Ref {
        self.refs[&w]
    }

    fn msg_in(&self, from: Proc, to: Proc, m: Msg) -> bool {
        self.cfg
            .channels
            .get(&(from, to))
            .is_some_and(|ch| ch.contains(&m))
    }

    /// True when any participant of `kind` has been retired by a crash,
    /// purge or owner-death verdict.
    fn is_retired(&self, kind: &TraceKind) -> bool {
        let (spaces, _) = participants(kind);
        let procs: Vec<Proc> = spaces.iter().map(|&s| self.proc(s)).collect();
        if procs.iter().any(|p| self.retired.contains(p)) {
            return true;
        }
        // Client/owner events between an estranged pair are moot too.
        if let [a, b] = procs[..] {
            if self.purged.contains(&(b, a)) || self.purged.contains(&(a, b)) {
                return true;
            }
            if self.owner_dead.contains(&(a, b)) || self.owner_dead.contains(&(b, a)) {
                return true;
            }
        }
        false
    }

    /// Fires one transition with full checking: the guard must hold
    /// (via [`enabled`]), every invariant must hold afterwards, and
    /// non-mutator transitions must strictly decrease the termination
    /// measure. Returns false (and records a violation) on any failure.
    fn fire(&mut self, t: Transition, ctx: &str) -> bool {
        if !enabled(&self.cfg).contains(&t) {
            self.violations
                .push(format!("fold error: {t:?} not enabled while folding {ctx}"));
            return false;
        }
        let before = termination_measure(&self.cfg);
        apply(&mut self.cfg, t);
        self.transitions += 1;
        if let Err(e) = check_all(&self.cfg) {
            self.violations
                .push(format!("invariant after {t:?} (folding {ctx}): {e}"));
            return false;
        }
        if !t.is_mutator() {
            let after = termination_measure(&self.cfg);
            if after >= before {
                self.violations.push(format!(
                    "termination measure did not decrease over {t:?} \
                     (folding {ctx}): {before} → {after}"
                ));
                return false;
            }
        }
        true
    }

    /// Fires a whole fold sequence; aborts (with the violation already
    /// recorded) if any step fails.
    fn seq(&mut self, ts: &[Transition], ctx: &str) -> Outcome {
        for &t in ts {
            if !self.fire(t, ctx) {
                return Outcome::Applied; // Partial progress still counts.
            }
        }
        Outcome::Applied
    }

    /// Folds the deferred copy acknowledgements of `r` at client `c`
    /// (scheduled by `receive_dirty_ack` moving blocked entries over).
    fn drain_copy_acks(&mut self, c: Proc, r: Ref, ctx: &str) {
        while let Some((id, peer, _)) = self
            .cfg
            .copy_ack_todo
            .get(&c)
            .and_then(|s| s.iter().find(|&&(_, _, rr)| rr == r).copied())
        {
            if !self.fire(Transition::DoCopyAck(c, peer, r, id), ctx)
                || !self.fire(Transition::ReceiveCopyAck(c, peer, r, id), ctx)
            {
                return;
            }
        }
    }

    /// End-of-replay classification for events that never folded: true
    /// when the event's effect is already reflected in the model, i.e.
    /// it was a duplicate or a retry whose first instance folded.
    fn settled_at_end(&self, kind: &TraceKind) -> bool {
        use TraceKind::*;
        match kind {
            DirtyApplied {
                owner,
                client,
                target,
                ..
            } => {
                let (o, c, r) = (self.proc(*owner), self.proc(*client), self.obj(*target));
                self.cfg.pdirty.get(&(o, r)).is_some_and(|s| s.contains(&c))
            }
            DirtyAcked { client, target, .. } => {
                let (c, r) = (self.proc(*client), self.obj(*target));
                self.cfg.rec(c, r) == RecState::Ok
            }
            CleanSent { client, target, .. } => {
                let (c, r) = (self.proc(*client), self.obj(*target));
                matches!(
                    self.cfg.rec(c, r),
                    RecState::Ccit | RecState::CcitNil | RecState::Bot
                )
            }
            CleanApplied {
                owner,
                client,
                target,
                ..
            } => {
                let (o, c, r) = (self.proc(*owner), self.proc(*client), self.obj(*target));
                !self.cfg.pdirty.get(&(o, r)).is_some_and(|s| s.contains(&c))
            }
            CleanAcked {
                client,
                owner,
                target,
                ..
            } => {
                // Settled unless the model still owes this ack: an ack
                // for a clean the model never issued (e.g. the strong
                // clean of a never-registered reference) is explained
                // even if the reference was re-registered afterwards.
                let (c, o, r) = (self.proc(*client), self.proc(*owner), self.obj(*target));
                !matches!(self.cfg.rec(c, r), RecState::Ccit | RecState::CcitNil)
                    && !self.msg_in(o, c, Msg::CleanAck(r))
            }
            SurrogateResurrecting { client, target, .. } => {
                let (c, r) = (self.proc(*client), self.obj(*target));
                self.cfg.rec(c, r) != RecState::Bot
            }
            _ => false,
        }
    }

    fn handle(&mut self, kind: &TraceKind) -> Outcome {
        use TraceKind::*;
        if self.is_retired(kind) {
            return Outcome::Redundant;
        }
        match kind {
            DirtySent { .. } | SurrogateCreated { .. } | ExportCreated { .. } => Outcome::Observed,
            DirtyStale { .. } => {
                self.stale_dirties += 1;
                Outcome::Observed
            }
            CleanStale { .. } => {
                self.stale_cleans += 1;
                Outcome::Observed
            }
            DirtyRefused { .. } => Outcome::Unmodeled,
            TransientPinned { .. } | TransientReleased { .. } => Outcome::Observed,
            PingSent { .. } | PingReceived { .. } | LeaseExpired { .. } => Outcome::Observed,

            DirtyApplied {
                owner,
                client,
                target,
                ..
            } => {
                let (o, c, r) = (self.proc(*owner), self.proc(*client), self.obj(*target));
                if o == c {
                    return Outcome::Unmodeled;
                }
                let ctx = format!("{kind:?}");
                match self.cfg.rec(c, r) {
                    RecState::Bot => {
                        // First contact: fold the whole transmission.
                        let id = self.cfg.next_id;
                        self.seq(
                            &[
                                Transition::MakeCopy(o, c, r),
                                Transition::ReceiveCopy(o, c, r, id),
                                Transition::DoDirtyCall(c, r),
                                Transition::ReceiveDirty(c, o, r),
                                Transition::DoDirtyAck(o, c, r),
                            ],
                            &ctx,
                        )
                    }
                    RecState::Nil => {
                        // Re-registration after a completed clean: the
                        // dirty call was already scheduled by the copy.
                        if self
                            .cfg
                            .dirty_call_todo
                            .get(&c)
                            .is_some_and(|s| s.contains(&r))
                        {
                            self.seq(
                                &[
                                    Transition::DoDirtyCall(c, r),
                                    Transition::ReceiveDirty(c, o, r),
                                    Transition::DoDirtyAck(o, c, r),
                                ],
                                &ctx,
                            )
                        } else {
                            Outcome::Blocked
                        }
                    }
                    RecState::CcitNil => {
                        // TR-116: the new dirty beat the old clean. The
                        // model postpones the dirty (Note 5); fold the
                        // superseded clean to completion first, then the
                        // dirty. The runtime's later CleanStale /
                        // CleanAcked for the dead clean fold to nothing.
                        if !self.msg_in(c, o, Msg::Clean(r)) {
                            return Outcome::Blocked;
                        }
                        let out = self.seq(
                            &[
                                Transition::ReceiveClean(c, o, r),
                                Transition::DoCleanAck(o, c, r),
                                Transition::ReceiveCleanAck(o, c, r),
                                Transition::DoDirtyCall(c, r),
                                Transition::ReceiveDirty(c, o, r),
                                Transition::DoDirtyAck(o, c, r),
                            ],
                            &ctx,
                        );
                        *self.compensated_cleans.entry((c, r)).or_default() += 1;
                        *self.compensated_clean_acks.entry((c, r)).or_default() += 1;
                        out
                    }
                    RecState::Ccit => Outcome::Blocked,
                    RecState::Ok => Outcome::Redundant,
                }
            }

            DirtyAcked {
                client,
                owner,
                target,
                ok,
                ..
            } => {
                if !ok {
                    return Outcome::Unmodeled;
                }
                let (c, o, r) = (self.proc(*client), self.proc(*owner), self.obj(*target));
                if o == c {
                    return Outcome::Unmodeled;
                }
                if let Some(n) = self.compensated_dirty_acks.get_mut(&(c, r)) {
                    if *n > 0 {
                        *n -= 1;
                        return Outcome::Redundant;
                    }
                }
                let ctx = format!("{kind:?}");
                if self.msg_in(o, c, Msg::DirtyAck(r))
                    && matches!(self.cfg.rec(c, r), RecState::Nil | RecState::CcitNil)
                {
                    if self.fire(Transition::ReceiveDirtyAck(o, c, r), &ctx) {
                        self.drain_copy_acks(c, r, &ctx);
                    }
                    Outcome::Applied
                } else if self.cfg.rec(c, r) == RecState::Ok {
                    Outcome::Redundant
                } else {
                    Outcome::Blocked
                }
            }

            CleanSent {
                client,
                owner,
                target,
                ..
            } => {
                let (c, o, r) = (self.proc(*client), self.proc(*owner), self.obj(*target));
                if o == c {
                    return Outcome::Unmodeled;
                }
                let ctx = format!("{kind:?}");
                match self.cfg.rec(c, r) {
                    RecState::Ok => {
                        if self.cfg.is_live(c, r) {
                            self.cfg.drop_ref(c, r);
                        }
                        let mut ts = Vec::new();
                        if !self
                            .cfg
                            .clean_call_todo
                            .get(&c)
                            .is_some_and(|s| s.contains(&r))
                        {
                            ts.push(Transition::Finalize(c, r));
                        }
                        ts.push(Transition::DoCleanCall(c, r));
                        self.seq(&ts, &ctx)
                    }
                    // Retry of an in-flight clean: the model effect is
                    // already present.
                    RecState::Ccit | RecState::CcitNil => Outcome::Redundant,
                    // Either a late retry after completion or clock skew
                    // (the clean sorted before its registration): wait;
                    // end-of-replay classification settles late retries.
                    RecState::Bot => Outcome::Blocked,
                    // Strong clean after a failed dirty: the fault-free
                    // model never cleans from `nil`.
                    RecState::Nil => Outcome::Unmodeled,
                }
            }

            CleanApplied {
                owner,
                client,
                target,
                ..
            } => {
                let (o, c, r) = (self.proc(*owner), self.proc(*client), self.obj(*target));
                if o == c {
                    return Outcome::Unmodeled;
                }
                if let Some(n) = self.compensated_cleans.get_mut(&(c, r)) {
                    if *n > 0 {
                        *n -= 1;
                        return Outcome::Redundant;
                    }
                }
                let ctx = format!("{kind:?}");
                if self.msg_in(c, o, Msg::Clean(r)) {
                    return self.seq(
                        &[
                            Transition::ReceiveClean(c, o, r),
                            Transition::DoCleanAck(o, c, r),
                        ],
                        &ctx,
                    );
                }
                // Legalisation paths for clock skew and strong cleans
                // whose dirty did land: walk the client to the point
                // where the clean exists, then receive it.
                if self.cfg.rec(c, r) == RecState::Nil && self.msg_in(o, c, Msg::DirtyAck(r)) {
                    if !self.fire(Transition::ReceiveDirtyAck(o, c, r), &ctx) {
                        return Outcome::Applied;
                    }
                    self.drain_copy_acks(c, r, &ctx);
                    *self.compensated_dirty_acks.entry((c, r)).or_default() += 1;
                }
                if self.cfg.rec(c, r) == RecState::Ok {
                    if self.cfg.is_live(c, r) {
                        self.cfg.drop_ref(c, r);
                    }
                    let mut ts = Vec::new();
                    if !self
                        .cfg
                        .clean_call_todo
                        .get(&c)
                        .is_some_and(|s| s.contains(&r))
                    {
                        ts.push(Transition::Finalize(c, r));
                    }
                    ts.extend([
                        Transition::DoCleanCall(c, r),
                        Transition::ReceiveClean(c, o, r),
                        Transition::DoCleanAck(o, c, r),
                    ]);
                    return self.seq(&ts, &ctx);
                }
                if !self.cfg.pdirty.get(&(o, r)).is_some_and(|s| s.contains(&c)) {
                    return Outcome::Redundant;
                }
                Outcome::Blocked
            }

            CleanAcked {
                client,
                owner,
                target,
                ..
            } => {
                let (c, o, r) = (self.proc(*client), self.proc(*owner), self.obj(*target));
                if o == c {
                    return Outcome::Unmodeled;
                }
                if let Some(n) = self.compensated_clean_acks.get_mut(&(c, r)) {
                    if *n > 0 {
                        *n -= 1;
                        return Outcome::Redundant;
                    }
                }
                let ctx = format!("{kind:?}");
                if self.msg_in(o, c, Msg::CleanAck(r))
                    && matches!(self.cfg.rec(c, r), RecState::Ccit | RecState::CcitNil)
                {
                    self.fire(Transition::ReceiveCleanAck(o, c, r), &ctx);
                    Outcome::Applied
                } else {
                    // Ambiguous mid-replay (duplicate ack of a retried
                    // clean vs. an ack that sorted before its cause):
                    // wait; end-of-replay classification settles it.
                    Outcome::Blocked
                }
            }

            SurrogateResurrecting { client, target, .. } => {
                let (c, r) = (self.proc(*client), self.obj(*target));
                let o = self.cfg.owner(r);
                if o == c {
                    return Outcome::Unmodeled;
                }
                let ctx = format!("{kind:?}");
                match self.cfg.rec(c, r) {
                    RecState::Ccit => {
                        let id = self.cfg.next_id;
                        self.seq(
                            &[
                                Transition::MakeCopy(o, c, r),
                                Transition::ReceiveCopy(o, c, r, id),
                            ],
                            &ctx,
                        )
                    }
                    RecState::CcitNil | RecState::Nil | RecState::Ok => Outcome::Redundant,
                    RecState::Bot => Outcome::Blocked,
                }
            }

            SurrogateDropped { client, target, .. } => {
                let (c, r) = (self.proc(*client), self.obj(*target));
                self.cfg.drop_ref(c, r);
                Outcome::Observed
            }

            ExportCollected { owner, target } => {
                let (o, r) = (self.proc(*owner), self.obj(*target));
                // The money assertion: the paper's safety property,
                // checked against the live collector. A client the owner
                // has retired no longer counts as a holder.
                let holders: Vec<Proc> = self
                    .cfg
                    .pdirty
                    .get(&(o, r))
                    .map(|s| {
                        s.iter()
                            .copied()
                            .filter(|p| {
                                !self.retired.contains(p) && !self.purged.contains(&(o, *p))
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                if !holders.is_empty() {
                    self.violations.push(format!(
                        "premature reclamation: {kind:?} while model dirty set \
                         still holds {holders:?}"
                    ));
                    return Outcome::Observed;
                }
                let in_flight: Vec<Proc> = self
                    .cfg
                    .tdirty
                    .get(&(o, r))
                    .map(|s| {
                        s.iter()
                            .map(|&(_, to, _)| to)
                            .filter(|p| !self.retired.contains(p))
                            .collect()
                    })
                    .unwrap_or_default();
                if !in_flight.is_empty() {
                    self.violations.push(format!(
                        "premature reclamation: {kind:?} while copies are in \
                         flight to {in_flight:?}"
                    ));
                }
                Outcome::Observed
            }

            ClientPurged { owner, client } => {
                let (o, c) = (self.proc(*owner), self.proc(*client));
                self.purged.insert((o, c));
                Outcome::Observed
            }
            OwnerDead { client, owner } => {
                let (c, o) = (self.proc(*client), self.proc(*owner));
                self.owner_dead.insert((c, o));
                Outcome::Observed
            }
            SpaceCrashed { space } => {
                let p = self.proc(*space);
                self.retired.insert(p);
                Outcome::Observed
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netobj_wire::ObjIx;

    fn sid(n: u128) -> SpaceId {
        SpaceId::from_raw(n)
    }

    fn rep(owner: u128, ix: u64) -> WireRep {
        WireRep::new(sid(owner), ObjIx(ix))
    }

    fn ev(seq: u64, at: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            seq,
            at_micros: at,
            kind,
        }
    }

    /// One reference through its full life: register, use, drop, clean.
    /// Folds to exactly the thirteen transitions of the model's cycle.
    #[test]
    fn full_life_cycle_replays_conformant() {
        let owner = sid(1);
        let client = sid(2);
        let t = rep(1, 7);
        let owner_trace = vec![
            ev(0, 5, TraceKind::ExportCreated { owner, target: t }),
            ev(
                1,
                10,
                TraceKind::DirtyApplied {
                    owner,
                    client,
                    target: t,
                    seqno: 1,
                },
            ),
            ev(
                2,
                40,
                TraceKind::CleanApplied {
                    owner,
                    client,
                    target: t,
                    seqno: 2,
                    strong: false,
                },
            ),
            ev(3, 50, TraceKind::ExportCollected { owner, target: t }),
        ];
        let client_trace = vec![
            ev(
                0,
                8,
                TraceKind::DirtySent {
                    client,
                    owner,
                    target: t,
                    seqno: 1,
                },
            ),
            ev(
                1,
                12,
                TraceKind::DirtyAcked {
                    client,
                    owner,
                    target: t,
                    seqno: 1,
                    ok: true,
                },
            ),
            ev(
                2,
                13,
                TraceKind::SurrogateCreated {
                    client,
                    target: t,
                    epoch: 0,
                },
            ),
            ev(
                3,
                30,
                TraceKind::SurrogateDropped {
                    client,
                    target: t,
                    epoch: 0,
                },
            ),
            ev(
                4,
                35,
                TraceKind::CleanSent {
                    client,
                    owner,
                    target: t,
                    seqno: 2,
                    strong: false,
                    batched: false,
                },
            ),
            ev(
                5,
                45,
                TraceKind::CleanAcked {
                    client,
                    owner,
                    target: t,
                    seqno: 2,
                },
            ),
        ];
        let report = replay_traces(&[(owner, owner_trace), (client, client_trace)]);
        assert!(
            report.is_conformant(),
            "violations: {:?}",
            report.violations
        );
        assert!(report.unresolved.is_empty(), "{:?}", report.unresolved);
        assert_eq!(report.transitions, 13);
        assert_eq!(report.spaces, 2);
        assert_eq!(report.refs, 1);
        let c = &report.final_config;
        assert!(c.quiescent(), "model should be quiescent: {c:?}");
        let (pc, pr) = (Proc(1), Ref(0));
        assert_eq!(c.rec(pc, pr), RecState::Bot);
    }

    /// The TR-116 transmission race: a resurrection dirty outruns the
    /// in-transit clean; the owner rejects the late clean as stale. The
    /// trace must fold cleanly and leave the client registered.
    #[test]
    fn tr116_race_folds_and_keeps_registration() {
        let owner = sid(1);
        let client = sid(2);
        let t = rep(1, 3);
        let owner_trace = vec![
            ev(
                0,
                10,
                TraceKind::DirtyApplied {
                    owner,
                    client,
                    target: t,
                    seqno: 1,
                },
            ),
            // The resurrection dirty (seqno 3) arrives first…
            ev(
                1,
                60,
                TraceKind::DirtyApplied {
                    owner,
                    client,
                    target: t,
                    seqno: 3,
                },
            ),
            // …then the old clean (seqno 2) is rejected as stale.
            ev(
                2,
                70,
                TraceKind::CleanStale {
                    owner,
                    client,
                    target: t,
                    seqno: 2,
                },
            ),
        ];
        let client_trace = vec![
            ev(
                0,
                12,
                TraceKind::DirtyAcked {
                    client,
                    owner,
                    target: t,
                    seqno: 1,
                    ok: true,
                },
            ),
            ev(
                1,
                30,
                TraceKind::SurrogateDropped {
                    client,
                    target: t,
                    epoch: 0,
                },
            ),
            ev(
                2,
                40,
                TraceKind::CleanSent {
                    client,
                    owner,
                    target: t,
                    seqno: 2,
                    strong: false,
                    batched: false,
                },
            ),
            ev(
                3,
                50,
                TraceKind::SurrogateResurrecting {
                    client,
                    target: t,
                    epoch: 0,
                },
            ),
            // The stale clean is still acknowledged (runtime acks stale
            // cleans so the client can make progress).
            ev(
                4,
                75,
                TraceKind::CleanAcked {
                    client,
                    owner,
                    target: t,
                    seqno: 2,
                },
            ),
            ev(
                5,
                80,
                TraceKind::DirtyAcked {
                    client,
                    owner,
                    target: t,
                    seqno: 3,
                    ok: true,
                },
            ),
        ];
        let report = replay_traces(&[(owner, owner_trace), (client, client_trace)]);
        assert!(
            report.is_conformant(),
            "violations: {:?}",
            report.violations
        );
        assert!(report.unresolved.is_empty(), "{:?}", report.unresolved);
        assert_eq!(report.stale_cleans, 1);
        let c = &report.final_config;
        // The client must still be in the owner's dirty set: the stale
        // clean must not have unregistered the resurrected surrogate.
        let (po, pc, pr) = (Proc(0), Proc(1), Ref(0));
        assert!(
            c.pdirty.get(&(po, pr)).is_some_and(|s| s.contains(&pc)),
            "client lost its registration: {c:?}"
        );
        assert_eq!(c.rec(pc, pr), RecState::Ok);
    }

    /// Collecting an export while the model still shows a registered
    /// client is the premature-reclamation bug — the oracle must flag it.
    #[test]
    fn premature_collection_is_flagged() {
        let owner = sid(1);
        let client = sid(2);
        let t = rep(1, 9);
        let owner_trace = vec![
            ev(
                0,
                10,
                TraceKind::DirtyApplied {
                    owner,
                    client,
                    target: t,
                    seqno: 1,
                },
            ),
            ev(1, 20, TraceKind::ExportCollected { owner, target: t }),
        ];
        let client_trace = vec![ev(
            0,
            12,
            TraceKind::DirtyAcked {
                client,
                owner,
                target: t,
                seqno: 1,
                ok: true,
            },
        )];
        let report = replay_traces(&[(owner, owner_trace), (client, client_trace)]);
        assert!(!report.is_conformant());
        assert!(
            report.violations[0].contains("premature reclamation"),
            "{:?}",
            report.violations
        );
    }

    /// A crash retires the space: its dangling clean-side events are
    /// dropped instead of reported as unresolved.
    #[test]
    fn crash_retires_participants() {
        let owner = sid(1);
        let client = sid(2);
        let t = rep(1, 4);
        let owner_trace = vec![
            ev(
                0,
                10,
                TraceKind::DirtyApplied {
                    owner,
                    client,
                    target: t,
                    seqno: 1,
                },
            ),
            ev(1, 50, TraceKind::ClientPurged { owner, client }),
            ev(2, 55, TraceKind::ExportCollected { owner, target: t }),
        ];
        let client_trace = vec![
            ev(
                0,
                12,
                TraceKind::DirtyAcked {
                    client,
                    owner,
                    target: t,
                    seqno: 1,
                    ok: true,
                },
            ),
            ev(1, 40, TraceKind::SpaceCrashed { space: client }),
        ];
        let report = replay_traces(&[(owner, owner_trace), (client, client_trace)]);
        assert!(
            report.is_conformant(),
            "violations: {:?}",
            report.violations
        );
        assert!(report.unresolved.is_empty(), "{:?}", report.unresolved);
    }

    /// Cross-space clock skew: the client's events carry earlier
    /// timestamps than the owner's. The retry queue must still converge.
    #[test]
    fn skewed_timestamps_converge() {
        let owner = sid(1);
        let client = sid(2);
        let t = rep(1, 2);
        // Client ring claims everything happened at t=0..3 while the
        // owner ring is at t=100+: acks sort before their causes.
        let owner_trace = vec![
            ev(
                0,
                100,
                TraceKind::DirtyApplied {
                    owner,
                    client,
                    target: t,
                    seqno: 1,
                },
            ),
            ev(
                1,
                110,
                TraceKind::CleanApplied {
                    owner,
                    client,
                    target: t,
                    seqno: 2,
                    strong: false,
                },
            ),
        ];
        let client_trace = vec![
            ev(
                0,
                0,
                TraceKind::DirtyAcked {
                    client,
                    owner,
                    target: t,
                    seqno: 1,
                    ok: true,
                },
            ),
            ev(
                1,
                1,
                TraceKind::SurrogateDropped {
                    client,
                    target: t,
                    epoch: 0,
                },
            ),
            ev(
                2,
                2,
                TraceKind::CleanSent {
                    client,
                    owner,
                    target: t,
                    seqno: 2,
                    strong: false,
                    batched: false,
                },
            ),
            ev(
                3,
                3,
                TraceKind::CleanAcked {
                    client,
                    owner,
                    target: t,
                    seqno: 2,
                },
            ),
        ];
        let report = replay_traces(&[(owner, owner_trace), (client, client_trace)]);
        assert!(
            report.is_conformant(),
            "violations: {:?}",
            report.violations
        );
        assert!(report.unresolved.is_empty(), "{:?}", report.unresolved);
        assert!(report.final_config.quiescent());
    }

    #[test]
    fn empty_trace_is_conformant() {
        let report = replay_traces(&[]);
        assert!(report.is_conformant());
        assert_eq!(report.events, 0);
        assert_eq!(report.transitions, 0);
    }
}
