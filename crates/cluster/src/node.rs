//! One control-plane node: a fabric shard plus its plan cache, driven as a
//! message-handling actor (the SNIPPETS `Actor`/`Network` idiom, grown a
//! control plane).
//!
//! Each node runs three protocols over the [`VirtualNet`](crate::net::VirtualNet):
//!
//! * **Paxos-style membership** — one decree per epoch decides the next
//!   [`ClusterView`] (leader + member set). Leadership is kept alive by
//!   heartbeats; a node whose leader goes quiet runs phase 1/2 with a
//!   ballot ordered by `(round, id)`. Scale-up/down and routing around a
//!   faulty shard are the *same* operation: decide a view with a different
//!   member set.
//! * **Reliable broadcast** of plan-cache invalidations — flood on first
//!   receipt, ack to the origin, origin retransmits until every current
//!   member acked. Applied invalidations are tombstoned so anti-entropy
//!   can never resurrect a stale plan.
//! * **Anti-entropy** — periodic pairwise reconciliation of plan-cache
//!   contents using the persistence snapshot wire format
//!   ([`PlanSnapshotEntry`]): digest → reply(entries + want + missed
//!   invalidations) → push. Two divergent caches converge to the union of
//!   their working sets minus tombstones.
//!
//! Handlers never touch the network directly; they stage sends, timer
//! arms, and trace notes in an [`Outbox`] the cluster loop flushes. That
//! keeps the actor pure over `(state, message) → (state, outbox)`, which
//! is what makes the whole simulation replayable.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use brsmn_core::{
    plan_fingerprint, CoreError, Engine, EngineConfig, MulticastAssignment, PlanCache,
    PlanCacheSnapshot, PlanSnapshotEntry, SNAPSHOT_VERSION,
};

use crate::net::{Ballot, BroadcastId, ClusterView, Message, NodeId, TimerKind};

/// Protocol timing knobs, in virtual ticks. Defaults keep heartbeats well
/// inside the election timeout even at 30% drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Protocol {
    /// Leader heartbeat period.
    pub heartbeat_every: u64,
    /// How often followers check leader liveness.
    pub election_check_every: u64,
    /// Heartbeat silence that triggers a candidacy.
    pub election_timeout: u64,
    /// Ticks before an unresolved candidacy retries with a higher round.
    pub candidacy_retry: u64,
    /// Re-flood period for unacked invalidations.
    pub retransmit_every: u64,
    /// Anti-entropy exchange period.
    pub anti_entropy_every: u64,
}

impl Default for Protocol {
    fn default() -> Self {
        Protocol {
            heartbeat_every: 5,
            election_check_every: 7,
            election_timeout: 30,
            candidacy_retry: 40,
            retransmit_every: 11,
            anti_entropy_every: 17,
        }
    }
}

/// Trace-note tags (folded through `VirtualNet::note`).
pub(crate) const NOTE_DECIDED: u64 = 1;
pub(crate) const NOTE_APPLIED_INVAL: u64 = 2;
pub(crate) const NOTE_CANDIDACY: u64 = 3;
pub(crate) const NOTE_AE_LOADED: u64 = 4;

/// What a handler wants the cluster loop to do on its behalf.
#[derive(Debug, Default)]
pub struct Outbox {
    /// Messages to offer to the network.
    pub msgs: Vec<(NodeId, Message)>,
    /// Timers to arm: `(delay, kind)`.
    pub timers: Vec<(u64, TimerKind)>,
    /// Protocol milestones for the event trace: `(tag, value)`.
    pub notes: Vec<(u64, u64)>,
}

impl Outbox {
    fn send(&mut self, to: NodeId, msg: Message) {
        self.msgs.push((to, msg));
    }

    fn arm(&mut self, delay: u64, kind: TimerKind) {
        self.timers.push((delay, kind));
    }

    fn note(&mut self, tag: u64, value: u64) {
        self.notes.push((tag, value));
    }
}

/// An in-flight candidacy (Paxos proposer state for one decree).
#[derive(Debug, Clone)]
struct Candidacy {
    decree: u64,
    ballot: Ballot,
    proposal: ClusterView,
    promised_by: BTreeSet<NodeId>,
    /// Highest previously accepted value reported by a promiser.
    best_accepted: Option<(Ballot, ClusterView)>,
    /// Set once phase 2 started; the value actually proposed.
    chosen: Option<ClusterView>,
    accepted_by: BTreeSet<NodeId>,
    started_at: u64,
}

/// Per-node counters, reported through the campaign report and merged into
/// `EngineStats` by the distributed engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Candidacies this node started.
    pub elections_started: u64,
    /// Configurations this node decided or adopted.
    pub views_adopted: u64,
    /// Invalidations applied (own, flooded, or learned via anti-entropy).
    pub invalidations_applied: u64,
    /// Anti-entropy exchanges initiated.
    pub ae_initiated: u64,
    /// Plans loaded from peers via anti-entropy.
    pub ae_plans_loaded: u64,
    /// Frames routed on this node's shard engine.
    pub frames_routed: u64,
}

/// One simulated control-plane node owning one fabric shard.
#[derive(Debug)]
pub struct Node {
    id: NodeId,
    n: usize,
    engine: Engine,
    protocol: Protocol,

    /// Current agreed configuration.
    view: ClusterView,
    /// Every decree this node decided or adopted: `(epoch, view digest)`.
    /// The split-brain check compares these across nodes.
    pub(crate) decided_log: Vec<(u64, u64)>,
    /// Paxos acceptor state for decree `view.epoch + 1`.
    promised: Option<Ballot>,
    accepted: Option<(Ballot, ClusterView)>,
    candidacy: Option<Candidacy>,
    max_round: u64,
    last_heartbeat: u64,

    /// Applied invalidations (the tombstone set): id → fingerprint.
    seen_inval: BTreeMap<BroadcastId, u64>,
    /// Own broadcasts not yet acked by every member: seq → (fp, acked-by).
    unacked: BTreeMap<u64, (u64, BTreeSet<NodeId>)>,
    next_bcast_seq: u64,
    ae_cursor: usize,

    /// Cumulative counters.
    pub stats: NodeStats,
}

impl Node {
    /// A node owning one `n × n` fabric shard with a `plan_cache`-entry
    /// two-tier cache, booting into `view`.
    pub fn new(
        id: NodeId,
        n: usize,
        plan_cache: usize,
        protocol: Protocol,
        view: ClusterView,
    ) -> Result<Self, CoreError> {
        let engine = Engine::with_config(n, EngineConfig::batch(1).with_plan_cache(plan_cache))?;
        let digest = view.digest();
        Ok(Node {
            id,
            n,
            engine,
            protocol,
            view,
            decided_log: vec![(0, digest)],
            promised: None,
            accepted: None,
            candidacy: None,
            max_round: 0,
            last_heartbeat: 0,
            seen_inval: BTreeMap::new(),
            unacked: BTreeMap::new(),
            next_bcast_seq: 0,
            ae_cursor: 0,
            stats: NodeStats::default(),
        })
    }

    /// This node's address.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Network size of the shard.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The shard's routing engine (one fabric, its own plan cache).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The shard's plan cache.
    pub fn cache(&self) -> &Arc<PlanCache> {
        self.engine.plan_cache().expect("node engines always carry a cache")
    }

    /// The configuration this node currently follows.
    pub fn view(&self) -> &ClusterView {
        &self.view
    }

    /// `true` when this node believes it leads the current epoch.
    pub fn is_leader(&self) -> bool {
        self.view.leader == self.id
    }

    /// Applied invalidation ids (the tombstone set).
    pub fn seen_invalidations(&self) -> impl Iterator<Item = (&BroadcastId, &u64)> {
        self.seen_inval.iter()
    }

    /// `true` once `id` has been applied here.
    pub fn has_applied(&self, id: BroadcastId) -> bool {
        self.seen_inval.contains_key(&id)
    }

    /// Arms the initial timers; id-staggered so boots don't collide.
    pub fn on_start(&mut self, out: &mut Outbox) {
        let jitter = self.id.0 as u64;
        out.arm(self.protocol.heartbeat_every + jitter % 3, TimerKind::Heartbeat);
        out.arm(
            self.protocol.election_timeout + 3 * jitter,
            TimerKind::Election,
        );
        out.arm(self.protocol.retransmit_every + jitter, TimerKind::Retransmit);
        out.arm(
            self.protocol.anti_entropy_every + 2 * jitter,
            TimerKind::AntiEntropy,
        );
        self.last_heartbeat = 0;
    }

    /// Dispatches one delivered envelope.
    pub fn on_message(&mut self, from: NodeId, msg: Message, now: u64, out: &mut Outbox) {
        match msg {
            Message::Timer { kind } => self.on_timer(kind, now, out),
            Message::Prepare { decree, ballot } => self.on_prepare(from, decree, ballot, now, out),
            Message::Promise {
                decree,
                ballot,
                accepted,
            } => self.on_promise(from, decree, ballot, accepted, now, out),
            Message::Accept {
                decree,
                ballot,
                value,
            } => self.on_accept(from, decree, ballot, value, now, out),
            Message::Accepted { decree, ballot } => self.on_accepted(from, decree, ballot, now, out),
            Message::Decide { value } => self.adopt(value, now, out),
            Message::Heartbeat { view } => {
                let epoch = view.epoch;
                self.adopt(view, now, out);
                if epoch == self.view.epoch && from == self.view.leader {
                    self.last_heartbeat = now;
                }
            }
            Message::Invalidate { id, fp } => self.on_invalidate(from, id, fp, out),
            Message::InvalidateAck { id } => self.on_invalidate_ack(from, id),
            Message::SyncDigest { exact, inval } => self.on_sync_digest(from, exact, inval, out),
            Message::SyncReply {
                entries,
                want,
                inval,
            } => self.on_sync_reply(from, entries, want, inval, out),
            Message::SyncPush { entries } => {
                let loaded = self.load_entries(&entries);
                if loaded > 0 {
                    out.note(NOTE_AE_LOADED, loaded);
                }
            }
        }
    }

    // ---- timers ------------------------------------------------------

    fn on_timer(&mut self, kind: TimerKind, now: u64, out: &mut Outbox) {
        match kind {
            TimerKind::Heartbeat => {
                out.arm(self.protocol.heartbeat_every, TimerKind::Heartbeat);
                if self.is_leader() && self.view.has_member(self.id) {
                    for &m in &self.view.members {
                        if m != self.id {
                            out.send(m, Message::Heartbeat { view: self.view.clone() });
                        }
                    }
                }
            }
            TimerKind::Election => {
                out.arm(self.protocol.election_check_every, TimerKind::Election);
                if !self.view.has_member(self.id) || self.is_leader() {
                    return;
                }
                let stale = now.saturating_sub(self.last_heartbeat) > self.protocol.election_timeout;
                let retry = self
                    .candidacy
                    .as_ref()
                    .is_some_and(|c| now.saturating_sub(c.started_at) > self.protocol.candidacy_retry);
                if stale && (self.candidacy.is_none() || retry) {
                    let mut proposal = self.view.clone();
                    proposal.epoch = self.view.epoch + 1;
                    proposal.leader = self.id;
                    self.start_candidacy(proposal, now, out);
                }
            }
            TimerKind::Retransmit => {
                out.arm(self.protocol.retransmit_every, TimerKind::Retransmit);
                let members = self.view.members.clone();
                for (&seq, (fp, acked)) in &self.unacked {
                    for &m in &members {
                        if m != self.id && !acked.contains(&m) {
                            out.send(
                                m,
                                Message::Invalidate {
                                    id: (self.id, seq),
                                    fp: *fp,
                                },
                            );
                        }
                    }
                }
                // A membership change may have shrunk the member set below
                // an old ack set; re-check completion.
                self.gc_unacked();
            }
            TimerKind::AntiEntropy => {
                out.arm(self.protocol.anti_entropy_every, TimerKind::AntiEntropy);
                if !self.view.has_member(self.id) {
                    return;
                }
                let peers: Vec<NodeId> = self
                    .view
                    .members
                    .iter()
                    .copied()
                    .filter(|&m| m != self.id)
                    .collect();
                if peers.is_empty() {
                    return;
                }
                let peer = peers[self.ae_cursor % peers.len()];
                self.ae_cursor += 1;
                self.stats.ae_initiated += 1;
                out.send(
                    peer,
                    Message::SyncDigest {
                        exact: self.cache().resident_fingerprints(),
                        inval: self.inval_digest(),
                    },
                );
            }
        }
    }

    // ---- Paxos membership -------------------------------------------

    /// Starts a candidacy proposing `proposal` (whose epoch must be
    /// `view.epoch + 1`). Used by both leader-failure elections and
    /// explicit membership changes.
    pub fn start_candidacy(&mut self, proposal: ClusterView, now: u64, out: &mut Outbox) {
        debug_assert_eq!(proposal.epoch, self.view.epoch + 1);
        self.max_round += 1;
        let ballot = Ballot {
            round: self.max_round,
            node: self.id,
        };
        self.stats.elections_started += 1;
        out.note(NOTE_CANDIDACY, ballot.round);
        let decree = proposal.epoch;
        self.candidacy = Some(Candidacy {
            decree,
            ballot,
            proposal,
            promised_by: BTreeSet::new(),
            best_accepted: None,
            chosen: None,
            accepted_by: BTreeSet::new(),
            started_at: now,
        });
        // Voters are the members of the *current* view (self-delivery is
        // immediate: handle our own prepare inline).
        self.on_prepare(self.id, decree, ballot, now, out);
        for &m in &self.view.members.clone() {
            if m != self.id {
                out.send(m, Message::Prepare { decree, ballot });
            }
        }
    }

    fn on_prepare(&mut self, from: NodeId, decree: u64, ballot: Ballot, now: u64, out: &mut Outbox) {
        self.max_round = self.max_round.max(ballot.round);
        if decree <= self.view.epoch {
            // Already decided: help the stale candidate catch up.
            out.send(from, Message::Decide { value: self.view.clone() });
            return;
        }
        if decree > self.view.epoch + 1 {
            // Too far ahead to vote safely; heartbeats will catch us up.
            return;
        }
        if self.promised.is_none_or(|p| ballot > p) {
            self.promised = Some(ballot);
            let reply = Message::Promise {
                decree,
                ballot,
                accepted: self.accepted.clone(),
            };
            if from == self.id {
                // Self-promise, delivered inline.
                let (d, b, a) = match reply {
                    Message::Promise {
                        decree,
                        ballot,
                        accepted,
                    } => (decree, ballot, accepted),
                    _ => unreachable!(),
                };
                self.on_promise(self.id, d, b, a, now, out);
            } else {
                out.send(from, reply);
            }
        }
    }

    fn on_promise(
        &mut self,
        from: NodeId,
        decree: u64,
        ballot: Ballot,
        accepted: Option<(Ballot, ClusterView)>,
        now: u64,
        out: &mut Outbox,
    ) {
        let majority = self.view.majority();
        let Some(c) = self.candidacy.as_mut() else {
            return;
        };
        if c.decree != decree || c.ballot != ballot || c.chosen.is_some() {
            return;
        }
        c.promised_by.insert(from);
        if let Some((ab, av)) = accepted {
            if c.best_accepted.as_ref().is_none_or(|(b, _)| ab > *b) {
                c.best_accepted = Some((ab, av));
            }
        }
        if c.promised_by.len() >= majority {
            // Phase 2: propose the highest accepted value if any promiser
            // reported one (Paxos safety), else our own.
            let value = c
                .best_accepted
                .as_ref()
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| c.proposal.clone());
            c.chosen = Some(value.clone());
            let ballot = c.ballot;
            // Self-accept inline, then fan out.
            self.on_accept(self.id, decree, ballot, value.clone(), now, out);
            for &m in &self.view.members.clone() {
                if m != self.id {
                    out.send(
                        m,
                        Message::Accept {
                            decree,
                            ballot,
                            value: value.clone(),
                        },
                    );
                }
            }
        }
    }

    fn on_accept(
        &mut self,
        from: NodeId,
        decree: u64,
        ballot: Ballot,
        value: ClusterView,
        now: u64,
        out: &mut Outbox,
    ) {
        self.max_round = self.max_round.max(ballot.round);
        if decree <= self.view.epoch {
            out.send(from, Message::Decide { value: self.view.clone() });
            return;
        }
        if decree > self.view.epoch + 1 {
            return;
        }
        if self.promised.is_none_or(|p| ballot >= p) {
            self.promised = Some(ballot);
            self.accepted = Some((ballot, value));
            if from == self.id {
                self.on_accepted(self.id, decree, ballot, now, out);
            } else {
                out.send(from, Message::Accepted { decree, ballot });
            }
        }
    }

    fn on_accepted(&mut self, from: NodeId, decree: u64, ballot: Ballot, now: u64, out: &mut Outbox) {
        let majority = self.view.majority();
        let Some(c) = self.candidacy.as_mut() else {
            return;
        };
        if c.decree != decree || c.ballot != ballot || c.chosen.is_none() {
            return;
        }
        c.accepted_by.insert(from);
        if c.accepted_by.len() >= majority {
            let value = c.chosen.clone().expect("checked above");
            // Flood the decision to the members of both the old and the
            // new view (a removed node still learns it was removed).
            let mut audience: BTreeSet<NodeId> = self.view.members.iter().copied().collect();
            audience.extend(value.members.iter().copied());
            self.adopt(value.clone(), now, out);
            for m in audience {
                if m != self.id {
                    out.send(m, Message::Decide { value: value.clone() });
                }
            }
        }
    }

    /// Installs a decided configuration (from our own quorum, a `Decide`,
    /// or a newer heartbeat). Monotone in epoch; resets per-decree state.
    fn adopt(&mut self, value: ClusterView, now: u64, out: &mut Outbox) {
        if value.epoch <= self.view.epoch {
            return;
        }
        out.note(NOTE_DECIDED, value.digest());
        self.stats.views_adopted += 1;
        self.decided_log.push((value.epoch, value.digest()));
        self.view = value;
        self.promised = None;
        self.accepted = None;
        self.candidacy = None;
        self.last_heartbeat = now;
        self.gc_unacked();
        if self.is_leader() {
            // Announce immediately; the periodic timer keeps it alive.
            for &m in &self.view.members.clone() {
                if m != self.id {
                    out.send(m, Message::Heartbeat { view: self.view.clone() });
                }
            }
        }
    }

    // ---- reliable broadcast of invalidations ------------------------

    /// Originates an invalidation: applies it locally, floods it to the
    /// members, and tracks acks for retransmission.
    pub fn broadcast_invalidate(&mut self, fp: u64, out: &mut Outbox) -> BroadcastId {
        self.next_bcast_seq += 1;
        let seq = self.next_bcast_seq;
        let id = (self.id, seq);
        self.apply_invalidation(id, fp, out);
        let mut acked = BTreeSet::new();
        acked.insert(self.id);
        self.unacked.insert(seq, (fp, acked));
        for &m in &self.view.members.clone() {
            if m != self.id {
                out.send(m, Message::Invalidate { id, fp });
            }
        }
        id
    }

    fn on_invalidate(&mut self, from: NodeId, id: BroadcastId, fp: u64, out: &mut Outbox) {
        // Always (re-)ack: acks are idempotent and the origin may have
        // missed the first one.
        if id.0 == self.id {
            return; // our own flood came back
        }
        out.send(id.0, Message::InvalidateAck { id });
        if self.seen_inval.contains_key(&id) {
            return;
        }
        self.apply_invalidation(id, fp, out);
        // Flood on first receipt so the broadcast survives an origin that
        // crashes after one successful send.
        for &m in &self.view.members.clone() {
            if m != self.id && m != from && m != id.0 {
                out.send(m, Message::Invalidate { id, fp });
            }
        }
    }

    fn on_invalidate_ack(&mut self, from: NodeId, id: BroadcastId) {
        if id.0 != self.id {
            return;
        }
        if let Some((_, acked)) = self.unacked.get_mut(&id.1) {
            acked.insert(from);
        }
        self.gc_unacked();
    }

    fn apply_invalidation(&mut self, id: BroadcastId, fp: u64, out: &mut Outbox) {
        self.cache().invalidate(fp);
        self.seen_inval.insert(id, fp);
        self.stats.invalidations_applied += 1;
        out.note(NOTE_APPLIED_INVAL, crate::net::fold(fold_id(id), fp));
    }

    fn gc_unacked(&mut self) {
        let members = &self.view.members;
        self.unacked
            .retain(|_, (_, acked)| members.iter().any(|m| !acked.contains(m)));
    }

    /// `true` when some own broadcast still awaits acks.
    pub fn has_unacked(&self) -> bool {
        !self.unacked.is_empty()
    }

    // ---- anti-entropy ------------------------------------------------

    fn inval_digest(&self) -> Vec<(NodeId, u64, u64)> {
        self.seen_inval
            .iter()
            .map(|(&(o, s), &fp)| (o, s, fp))
            .collect()
    }

    fn apply_missing_invals(
        &mut self,
        theirs: &[(NodeId, u64, u64)],
        out: &mut Outbox,
    ) {
        for &(o, s, fp) in theirs {
            let id = (o, s);
            if !self.seen_inval.contains_key(&id) {
                self.apply_invalidation(id, fp, out);
            }
        }
    }

    fn tombstoned(&self, fp: u64) -> bool {
        self.seen_inval.values().any(|&t| t == fp)
    }

    /// Loads peer-sent snapshot entries, skipping tombstoned fingerprints;
    /// returns how many plans were installed.
    fn load_entries(&mut self, entries: &[PlanSnapshotEntry]) -> u64 {
        let keep: Vec<PlanSnapshotEntry> = entries
            .iter()
            .filter(|e| {
                MulticastAssignment::from_sets(e.n, e.sets.clone())
                    .map(|asg| !self.tombstoned(plan_fingerprint(&asg)))
                    .unwrap_or(false)
            })
            .cloned()
            .collect();
        if keep.is_empty() {
            return 0;
        }
        let snap = PlanCacheSnapshot {
            version: SNAPSHOT_VERSION,
            entries: keep,
        };
        match self.cache().load_snapshot(&snap) {
            Ok(stats) => {
                self.stats.ae_plans_loaded += stats.loaded;
                stats.loaded
            }
            // A peer shipping an inconsistent plan degrades to "learned
            // nothing" — the fault model never lets it poison the cache.
            Err(_) => 0,
        }
    }

    fn on_sync_digest(
        &mut self,
        from: NodeId,
        their_exact: Vec<u64>,
        their_inval: Vec<(NodeId, u64, u64)>,
        out: &mut Outbox,
    ) {
        self.apply_missing_invals(&their_inval, out);
        let mine = self.cache().resident_fingerprints();
        let they_lack: Vec<u64> = mine
            .iter()
            .copied()
            .filter(|fp| their_exact.binary_search(fp).is_err())
            .filter(|&fp| !their_inval.iter().any(|&(_, _, t)| t == fp))
            .collect();
        let want: Vec<u64> = their_exact
            .iter()
            .copied()
            .filter(|fp| mine.binary_search(fp).is_err())
            .filter(|&fp| !self.tombstoned(fp))
            .collect();
        let inval_they_lack: Vec<(NodeId, u64, u64)> = self
            .inval_digest()
            .into_iter()
            .filter(|&(o, s, _)| !their_inval.iter().any(|&(to, ts, _)| (to, ts) == (o, s)))
            .collect();
        if they_lack.is_empty() && want.is_empty() && inval_they_lack.is_empty() {
            return; // already converged with this peer
        }
        out.send(
            from,
            Message::SyncReply {
                entries: self.cache().entries_for(&they_lack),
                want,
                inval: inval_they_lack,
            },
        );
    }

    fn on_sync_reply(
        &mut self,
        from: NodeId,
        entries: Vec<PlanSnapshotEntry>,
        want: Vec<u64>,
        inval: Vec<(NodeId, u64, u64)>,
        out: &mut Outbox,
    ) {
        self.apply_missing_invals(&inval, out);
        let loaded = self.load_entries(&entries);
        if loaded > 0 {
            out.note(NOTE_AE_LOADED, loaded);
        }
        if !want.is_empty() {
            let mut sorted = want;
            sorted.sort_unstable();
            out.send(
                from,
                Message::SyncPush {
                    entries: self.cache().entries_for(&sorted),
                },
            );
        }
    }
}

fn fold_id(id: BroadcastId) -> u64 {
    crate::net::fold(id.0 .0 as u64, id.1)
}
