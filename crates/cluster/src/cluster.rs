//! The simulation loop: nodes wired to the virtual network, invariant
//! checks over the whole cluster, and scripted fault campaigns.
//!
//! A [`Cluster`] owns one [`VirtualNet`] and one [`Node`] per shard. Each
//! [`tick`](Cluster::tick) advances the network one virtual tick, hands the
//! drained envelopes to their nodes in deterministic order, and flushes
//! each handler's [`Outbox`] back into the network. Nothing else moves
//! time, so two clusters built from the same [`ClusterParams`] replay the
//! same campaign byte for byte.
//!
//! Two digests summarize a run, with deliberately different scopes:
//!
//! * [`trace_digest`](Cluster::trace_digest) folds *every* event in global
//!   order — it is pinned identical across runs of the same configuration,
//!   and changes whenever anything (a delivery, a drop, a decide) moves.
//! * [`state_digest`](Cluster::state_digest) folds only the *convergent*
//!   facts — member sets, applied-invalidation sets, exact-tier cache
//!   fingerprints — and is pinned identical across inbox capacities, which
//!   shift *when* messages are processed but not what the protocols
//!   converge to. Timing-dependent outcomes (who leads, how many election
//!   rounds it took) are excluded by construction, the same way the serve
//!   layer's output hash is order-independent across worker interleavings.

use brsmn_core::{
    plan_fingerprint, route_striped, BatchOutput, CoreError, MulticastAssignment, ShardedEngine,
};
use brsmn_workloads::{random_multicast, RandomSpec};
use serde::Serialize;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::net::{fold, mix, BroadcastId, ClusterView, NodeId, SimConfig, VirtualNet};
use crate::node::{Node, NodeStats, Outbox, Protocol};

/// Everything that determines a cluster's behavior. Two clusters built
/// from equal params replay identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterParams {
    /// Fabric size of every shard (power of two).
    pub n: usize,
    /// Number of control-plane nodes (one shard each).
    pub nodes: usize,
    /// Per-node plan-cache capacity (entries).
    pub plan_cache: usize,
    /// Virtual-network configuration.
    pub sim: SimConfig,
    /// Protocol timing knobs.
    pub protocol: Protocol,
}

impl ClusterParams {
    /// A perfectly reliable cluster — the configuration under which
    /// [`DistributedEngine`](crate::engine::DistributedEngine) is pinned
    /// bit-identical to `ShardedEngine`.
    pub fn fault_free(n: usize, nodes: usize, seed: u64) -> Self {
        ClusterParams {
            n,
            nodes,
            plan_cache: 64,
            sim: SimConfig::fault_free(seed),
            protocol: Protocol::default(),
        }
    }

    /// A lossy, reordering cluster for fault campaigns.
    pub fn lossy(n: usize, nodes: usize, seed: u64, drop_p: f64, inbox_capacity: usize) -> Self {
        ClusterParams {
            n,
            nodes,
            plan_cache: 64,
            sim: SimConfig::lossy(seed, drop_p, inbox_capacity),
            protocol: Protocol::default(),
        }
    }
}

/// A simulated distributed control plane: one node per fabric shard over a
/// seeded virtual-time network.
#[derive(Debug)]
pub struct Cluster {
    params: ClusterParams,
    net: VirtualNet,
    nodes: Vec<Node>,
    /// Every invalidation originated through the cluster API, for the
    /// lost-broadcast check: `(id, fingerprint)`.
    originated: Vec<(BroadcastId, u64)>,
}

impl Cluster {
    /// Builds and boots the cluster: every node starts at epoch 0 with
    /// node 0 as leader, and arms its timers.
    pub fn new(params: ClusterParams) -> Result<Self, CoreError> {
        if params.nodes == 0 {
            return Err(CoreError::Config(
                "cluster needs at least one node".to_string(),
            ));
        }
        let view = ClusterView::initial(params.nodes);
        let mut nodes = Vec::with_capacity(params.nodes);
        for i in 0..params.nodes {
            nodes.push(Node::new(
                NodeId(i),
                params.n,
                params.plan_cache,
                params.protocol,
                view.clone(),
            )?);
        }
        let net = VirtualNet::new(params.nodes, params.sim);
        let mut cluster = Cluster {
            params,
            net,
            nodes,
            originated: Vec::new(),
        };
        for i in 0..cluster.nodes.len() {
            let mut out = Outbox::default();
            cluster.nodes[i].on_start(&mut out);
            cluster.flush(NodeId(i), out);
        }
        Ok(cluster)
    }

    /// The construction parameters.
    pub fn params(&self) -> &ClusterParams {
        &self.params
    }

    /// The underlying virtual network (read-only).
    pub fn net(&self) -> &VirtualNet {
        &self.net
    }

    /// One node, by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Number of nodes (live or not).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Current virtual tick.
    pub fn now(&self) -> u64 {
        self.net.now()
    }

    fn flush(&mut self, from: NodeId, out: Outbox) {
        for (to, msg) in out.msgs {
            self.net.send(from, to, msg);
        }
        for (delay, kind) in out.timers {
            self.net.set_timer(from, delay, kind);
        }
        for (tag, value) in out.notes {
            self.net.note(from, tag, value);
        }
    }

    /// Advances one virtual tick: arrivals, bounded inbox drain, handler
    /// dispatch in node-id order, outbox flush.
    pub fn tick(&mut self) {
        let drained = self.net.advance();
        let now = self.net.now();
        for (id, batch) in drained {
            for env in batch {
                let mut out = Outbox::default();
                self.nodes[id.0].on_message(env.from, env.msg, now, &mut out);
                self.flush(id, out);
            }
        }
    }

    /// Runs `ticks` virtual ticks.
    pub fn run(&mut self, ticks: u64) {
        for _ in 0..ticks {
            self.tick();
        }
    }

    // ---- fault injection --------------------------------------------

    /// Splits the network (see [`VirtualNet::partition`]).
    pub fn partition(&mut self, side: &[NodeId]) {
        self.net.partition(side);
    }

    /// Heals any partition.
    pub fn heal(&mut self) {
        self.net.heal();
    }

    /// Crash-stops a node (fail-stop: inbox cleared, state frozen).
    pub fn crash(&mut self, id: NodeId) {
        self.net.crash(id);
    }

    /// Recovers a crashed node and re-arms its timers (its durable state —
    /// view, cache, tombstones — survived the crash; only liveness needs
    /// rebooting).
    pub fn recover(&mut self, id: NodeId) {
        self.net.recover(id);
        let mut out = Outbox::default();
        self.nodes[id.0].on_start(&mut out);
        self.flush(id, out);
    }

    // ---- control-plane operations -----------------------------------

    /// Originates a reliable-broadcast invalidation of `fp` from `id` and
    /// records it for the lost-broadcast check.
    pub fn invalidate_from(&mut self, id: NodeId, fp: u64) -> BroadcastId {
        let mut out = Outbox::default();
        let bid = self.nodes[id.0].broadcast_invalidate(fp, &mut out);
        self.flush(id, out);
        self.originated.push((bid, fp));
        bid
    }

    /// Starts a membership-change candidacy at `proposer`: the next epoch
    /// with `members` (sorted, deduplicated) led by `leader`. Scale-up,
    /// scale-down, and routing around a faulty shard are all this call.
    pub fn propose_reconfig(&mut self, proposer: NodeId, leader: NodeId, members: &[NodeId]) {
        let mut sorted: Vec<NodeId> = members.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let proposal = ClusterView {
            epoch: self.nodes[proposer.0].view().epoch + 1,
            leader,
            members: sorted,
        };
        let now = self.net.now();
        let mut out = Outbox::default();
        self.nodes[proposer.0].start_candidacy(proposal, now, &mut out);
        self.flush(proposer, out);
    }

    /// Routes around a faulty shard: proposes (from the lowest live member
    /// other than `faulty`) the current member set minus `faulty`. The
    /// proposer nominates itself leader if the faulty node was leading.
    pub fn mark_faulty(&mut self, faulty: NodeId) {
        let Some(proposer) = self
            .live_members()
            .into_iter()
            .find(|&m| m != faulty)
        else {
            return;
        };
        let view = self.nodes[proposer.0].view().clone();
        let members: Vec<NodeId> = view
            .members
            .iter()
            .copied()
            .filter(|&m| m != faulty)
            .collect();
        let leader = if view.leader == faulty { proposer } else { view.leader };
        self.propose_reconfig(proposer, leader, &members);
    }

    // ---- cluster-wide observations ----------------------------------

    /// The member set of the highest-epoch view held by any live node,
    /// minus crashed nodes — the nodes that should currently carry load.
    pub fn live_members(&self) -> Vec<NodeId> {
        let mut best: Option<&ClusterView> = None;
        for node in &self.nodes {
            if self.net.is_crashed(node.id()) {
                continue;
            }
            if best.is_none_or(|b| node.view().epoch > b.epoch) {
                best = Some(node.view());
            }
        }
        best.map(|v| {
            v.members
                .iter()
                .copied()
                .filter(|&m| !self.net.is_crashed(m))
                .collect()
        })
        .unwrap_or_default()
    }

    /// Exactly one live node leads the highest epoch present among live
    /// nodes, and every live node at that epoch agrees who it is.
    pub fn single_leader(&self) -> bool {
        let live: Vec<&Node> = self
            .nodes
            .iter()
            .filter(|nd| !self.net.is_crashed(nd.id()))
            .collect();
        let Some(max_epoch) = live.iter().map(|nd| nd.view().epoch).max() else {
            return false;
        };
        let leaders: BTreeSet<NodeId> = live
            .iter()
            .filter(|nd| nd.view().epoch == max_epoch)
            .map(|nd| nd.view().leader)
            .collect();
        if leaders.len() != 1 {
            return false;
        }
        // No live node may believe it leads a *different* configuration.
        let leader = *leaders.iter().next().expect("len checked");
        live.iter()
            .all(|nd| !nd.is_leader() || (nd.view().epoch == max_epoch && nd.id() == leader))
    }

    /// How many originated invalidations some live member has not applied.
    pub fn lost_invalidations(&self) -> usize {
        let members = self.live_members();
        self.originated
            .iter()
            .filter(|&&(id, _)| {
                members
                    .iter()
                    .any(|&m| !self.nodes[m.0].has_applied(id))
            })
            .count()
    }

    /// Split-brain check: any two nodes (live or crashed — decided facts
    /// are durable) that decided the same epoch decided the same view.
    pub fn decided_logs_consistent(&self) -> bool {
        let mut by_epoch: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for node in &self.nodes {
            for &(epoch, digest) in &node.decided_log {
                match by_epoch.get(&epoch) {
                    Some(&d) if d != digest => return false,
                    Some(_) => {}
                    None => {
                        by_epoch.insert(epoch, digest);
                    }
                }
            }
        }
        true
    }

    /// All live members hold equal exact-tier fingerprint sets and equal
    /// applied-invalidation sets — anti-entropy has converged.
    pub fn caches_converged(&self) -> bool {
        let members = self.live_members();
        let Some((&first, rest)) = members.split_first() else {
            return true;
        };
        let reference_fps = self.nodes[first.0].cache().resident_fingerprints();
        let reference_inv: Vec<BroadcastId> = self.nodes[first.0]
            .seen_invalidations()
            .map(|(&id, _)| id)
            .collect();
        rest.iter().all(|&m| {
            self.nodes[m.0].cache().resident_fingerprints() == reference_fps
                && self.nodes[m.0]
                    .seen_invalidations()
                    .map(|(&id, _)| id)
                    .collect::<Vec<_>>()
                    == reference_inv
        })
    }

    /// The cluster has settled: one leader, every originated invalidation
    /// applied everywhere, caches reconciled, no broadcast awaiting acks.
    pub fn converged(&self) -> bool {
        self.single_leader()
            && self.lost_invalidations() == 0
            && self.caches_converged()
            && self
                .live_members()
                .iter()
                .all(|&m| !self.nodes[m.0].has_unacked())
    }

    /// Runs until [`converged`](Cluster::converged) (checked every few
    /// ticks), at most `max_ticks`; returns `true` on convergence.
    pub fn run_until_converged(&mut self, max_ticks: u64) -> bool {
        let mut elapsed = 0;
        loop {
            if self.converged() {
                return true;
            }
            if elapsed >= max_ticks {
                return false;
            }
            let step = 8.min(max_ticks - elapsed);
            self.run(step);
            elapsed += step;
        }
    }

    /// Order-dependent digest of every event so far; identical across runs
    /// of the same configuration.
    pub fn trace_digest(&self) -> u64 {
        self.net.trace_digest()
    }

    /// Order-independent digest of the convergent facts: per live node, its
    /// member set, applied-invalidation set, and exact-tier cache
    /// fingerprints. Identical across inbox capacities once converged;
    /// deliberately excludes who leads and how many epochs it took, which
    /// are timing-dependent.
    pub fn state_digest(&self) -> u64 {
        let mut h = 0xC0A1_E5CE_D157_0000u64;
        for node in &self.nodes {
            if self.net.is_crashed(node.id()) {
                continue;
            }
            let mut d = fold(0, node.id().0 as u64);
            for &m in &node.view().members {
                d = fold(d, m.0 as u64 + 1);
            }
            for (&(origin, seq), &fp) in node.seen_invalidations() {
                d = fold(fold(fold(d, origin.0 as u64), seq), fp);
            }
            for fp in node.cache().resident_fingerprints() {
                d = fold(d, fp);
            }
            h = h.wrapping_add(mix(d));
        }
        h
    }

    /// Aggregated per-node protocol counters, id order.
    pub fn node_stats(&self) -> Vec<NodeStats> {
        self.nodes.iter().map(|nd| nd.stats).collect()
    }

    // ---- data plane --------------------------------------------------

    /// The highest epoch any live node has decided.
    pub fn epoch(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|nd| !self.net.is_crashed(nd.id()))
            .map(|nd| nd.view().epoch)
            .max()
            .unwrap_or(0)
    }

    /// Routes a batch striped round-robin across **all** nodes — the
    /// striping of `ShardedEngine::route_batch` ([`route_striped`]), so a
    /// fault-free cluster is bit-identical to the sharded engine.
    pub fn route_batch(&mut self, batch: &[MulticastAssignment]) -> BatchOutput {
        let routers: Vec<NodeId> = (0..self.nodes.len()).map(NodeId).collect();
        self.route_batch_on(batch, &routers)
    }

    /// Routes a batch striped across `routers` (e.g. the current live
    /// members, so a faulty shard is routed around) with [`route_striped`].
    /// Results come back in input order; every shard routes the full
    /// `n × n` fabric, so which node routes a frame never changes the
    /// result bits. The nodes route their stripes concurrently, each into
    /// its own plan cache, so results and caches stay deterministic.
    pub fn route_batch_on(
        &mut self,
        batch: &[MulticastAssignment],
        routers: &[NodeId],
    ) -> BatchOutput {
        let nodes = &self.nodes;
        let routed: Vec<AtomicU64> = nodes.iter().map(|_| AtomicU64::new(0)).collect();
        let mut out = route_striped(self.params.n, routers, batch, |id, stripe| {
            routed[id.0].fetch_add(stripe.len() as u64, Ordering::Relaxed);
            nodes[id.0].engine().route_batch(stripe)
        });
        for (node, routed) in self.nodes.iter_mut().zip(routed) {
            node.stats.frames_routed += routed.into_inner();
        }
        out.stats.cluster_nodes = self.nodes.len() as u64;
        out.stats.cluster_messages = self.net.stats().sent;
        out.stats.cluster_messages_dropped = self.net.stats().dropped();
        out.stats.cluster_epoch = self.epoch();
        out
    }
}

// ---- scripted fault campaigns ---------------------------------------

/// A scripted fault campaign over one cluster: warm traffic, staggered
/// invalidations, an optional partition window, an optional crash window,
/// an optional shard removal, then heal-and-settle with every invariant
/// checked. All times are virtual ticks from the start of the fault phase.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Fabric size of each shard.
    pub n: usize,
    /// Node count.
    pub nodes: usize,
    /// Seed for the network and the workload.
    pub seed: u64,
    /// Per-message drop probability during the fault phase.
    pub drop_p: f64,
    /// Inbox drain bound per tick.
    pub inbox_capacity: usize,
    /// Length of the fault phase, ticks.
    pub ticks: u64,
    /// Warm frames routed (and compared bit-for-bit against the sharded
    /// oracle) before faults start.
    pub frames: usize,
    /// Invalidations originated, staggered over the fault phase from
    /// rotating live members.
    pub invalidations: usize,
    /// Two-way partition window `[start, end)`: the lower half of the node
    /// ids is split from the rest.
    pub partition: Option<(u64, u64)>,
    /// Crash window `(node, start, end)`: fail-stop then recover.
    pub crash: Option<(usize, u64, u64)>,
    /// Remove this shard mid-campaign (route around a faulty shard).
    pub remove_node: Option<usize>,
    /// Ticks allowed for post-heal convergence.
    pub settle_ticks: u64,
}

impl CampaignSpec {
    /// The default campaign at `seed`: 4 nodes × 16-port shards, 20% drop,
    /// a healed two-way partition, one crash window, 12 invalidations.
    pub fn default_at(seed: u64) -> Self {
        CampaignSpec {
            n: 16,
            nodes: 4,
            seed,
            drop_p: 0.2,
            inbox_capacity: 8,
            ticks: 400,
            frames: 24,
            invalidations: 12,
            partition: Some((60, 180)),
            crash: Some((2, 220, 300)),
            remove_node: None,
            settle_ticks: 3000,
        }
    }
}

/// Per-node protocol counters in serializable form.
#[derive(Debug, Clone, Serialize)]
pub struct NodeReport {
    /// Node id.
    pub node: usize,
    /// Candidacies started.
    pub elections_started: u64,
    /// Configurations adopted.
    pub views_adopted: u64,
    /// Invalidations applied.
    pub invalidations_applied: u64,
    /// Anti-entropy exchanges initiated.
    pub ae_initiated: u64,
    /// Plans learned from peers.
    pub ae_plans_loaded: u64,
    /// Frames routed on this shard.
    pub frames_routed: u64,
}

/// The outcome of one [`run_campaign`], JSON-serializable for the CLI and
/// the CI gate.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignReport {
    /// Fabric size.
    pub n: usize,
    /// Node count.
    pub nodes: usize,
    /// Seed.
    pub seed: u64,
    /// Drop probability during the fault phase.
    pub drop_p: f64,
    /// Inbox drain bound.
    pub inbox_capacity: usize,
    /// Virtual ticks actually run.
    pub ticks_run: u64,
    /// Whether the cluster converged within the settle budget.
    pub converged: bool,
    /// Single-leader invariant at the end.
    pub single_leader: bool,
    /// Originated invalidations some live member never applied.
    pub lost_invalidations: usize,
    /// Split-brain check over all decided logs.
    pub decided_logs_consistent: bool,
    /// Frames whose cluster routing differed from the sharded oracle.
    pub routing_divergence: usize,
    /// Frames compared against the oracle (warm + post-heal).
    pub frames_compared: usize,
    /// Final decided epoch.
    pub final_epoch: u64,
    /// Final live member ids.
    pub final_members: Vec<usize>,
    /// Order-dependent event-trace digest (replay check).
    pub trace_digest: u64,
    /// Order-independent convergent-state digest (capacity check).
    pub state_digest: u64,
    /// Unicast messages offered to the network.
    pub messages_sent: u64,
    /// Messages delivered to handlers.
    pub messages_delivered: u64,
    /// Messages lost to the drop coin, partitions, and crashes.
    pub messages_dropped: u64,
    /// Ticks with a backlogged inbox.
    pub backpressure_ticks: u64,
    /// Per-node protocol counters.
    pub node_reports: Vec<NodeReport>,
    /// All invariants held and routing matched the oracle.
    pub healthy: bool,
}

/// Runs one scripted fault campaign and checks every invariant the issue
/// pins: single leader after healing, no lost invalidation, decided-log
/// consistency, and routing bit-identical to a single-process
/// [`ShardedEngine`].
pub fn run_campaign(spec: &CampaignSpec) -> Result<CampaignReport, CoreError> {
    let params = ClusterParams::lossy(spec.n, spec.nodes, spec.seed, spec.drop_p, spec.inbox_capacity);
    let mut cluster = Cluster::new(params)?;
    let oracle = ShardedEngine::new(spec.n, spec.nodes)?;

    // Workload: deterministic frames shared by cluster and oracle.
    let frames: Vec<MulticastAssignment> = (0..spec.frames.max(1))
        .map(|i| {
            random_multicast(
                RandomSpec {
                    n: spec.n,
                    load: 0.9,
                    source_fraction: 0.25,
                },
                spec.seed.wrapping_add(i as u64),
            )
        })
        .collect();
    let oracle_out = oracle.route_batch(&frames);

    // Warm phase: the data plane never crosses the lossy network (each
    // frame routes on the shard it was striped to), so the comparison is
    // bit-for-bit even though control traffic is already being dropped.
    let warm = cluster.route_batch(&frames);
    let mut divergence = 0usize;
    let mut compared = 0usize;
    for (a, b) in warm.results.iter().zip(oracle_out.results.iter()) {
        compared += 1;
        match (a, b) {
            (Ok(x), Ok(y)) if x == y => {}
            _ => divergence += 1,
        }
    }
    cluster.run(8);

    // Fault phase: scripted windows, staggered invalidations, optional
    // membership change.
    let inval_every = (spec.ticks / (spec.invalidations.max(1) as u64 + 1)).max(1);
    let mut inval_issued = 0usize;
    let reconfig_at = spec.ticks / 2;
    let mut reconfig_target: Option<Vec<NodeId>> = None;
    for t in 0..spec.ticks {
        if let Some((start, end)) = spec.partition {
            if t == start {
                let side: Vec<NodeId> = (0..spec.nodes / 2).map(NodeId).collect();
                cluster.partition(&side);
            }
            if t == end {
                cluster.heal();
            }
        }
        if let Some((node, start, end)) = spec.crash {
            if t == start {
                cluster.crash(NodeId(node));
            }
            if t == end {
                cluster.recover(NodeId(node));
            }
        }
        if inval_issued < spec.invalidations && t % inval_every == 0 && t > 0 {
            let live = cluster.live_members();
            if !live.is_empty() {
                let origin = live[inval_issued % live.len()];
                let fp = plan_fingerprint(&frames[inval_issued % frames.len()]);
                cluster.invalidate_from(origin, fp);
                inval_issued += 1;
            }
        }
        if let Some(victim) = spec.remove_node {
            if t == reconfig_at {
                cluster.mark_faulty(NodeId(victim));
                reconfig_target = Some(
                    (0..spec.nodes)
                        .filter(|&i| i != victim)
                        .map(NodeId)
                        .collect(),
                );
            }
            // Re-propose until the removal sticks (an election may have
            // claimed the decree first).
            if t > reconfig_at && t % 64 == 0 {
                if let Some(target) = &reconfig_target {
                    if &cluster.live_members() != target {
                        cluster.mark_faulty(NodeId(victim));
                    }
                }
            }
        }
        cluster.tick();
    }

    // Heal everything and let the protocols settle.
    cluster.heal();
    if let Some((node, _, end)) = spec.crash {
        if end >= spec.ticks {
            cluster.recover(NodeId(node));
        }
    }
    if let Some(target) = &reconfig_target {
        // Keep nudging the removal through the settled network.
        let victim = spec.remove_node.expect("target implies remove_node");
        let mut tries = 0;
        while &cluster.live_members() != target && tries < 20 {
            cluster.mark_faulty(NodeId(victim));
            cluster.run(spec.protocol_settle_step());
            tries += 1;
        }
    }
    let converged = cluster.run_until_converged(spec.settle_ticks);

    // Post-heal routing over the surviving members, still bit-identical.
    let live = cluster.live_members();
    if !live.is_empty() {
        let post = cluster.route_batch_on(&frames, &live);
        for (a, b) in post.results.iter().zip(oracle_out.results.iter()) {
            compared += 1;
            match (a, b) {
                (Ok(x), Ok(y)) if x == y => {}
                _ => divergence += 1,
            }
        }
    }

    let single_leader = cluster.single_leader();
    let lost = cluster.lost_invalidations();
    let logs_ok = cluster.decided_logs_consistent();
    let net = *cluster.net().stats();
    let node_reports: Vec<NodeReport> = cluster
        .node_stats()
        .iter()
        .enumerate()
        .map(|(i, s)| NodeReport {
            node: i,
            elections_started: s.elections_started,
            views_adopted: s.views_adopted,
            invalidations_applied: s.invalidations_applied,
            ae_initiated: s.ae_initiated,
            ae_plans_loaded: s.ae_plans_loaded,
            frames_routed: s.frames_routed,
        })
        .collect();
    let healthy = converged && single_leader && lost == 0 && logs_ok && divergence == 0;

    Ok(CampaignReport {
        n: spec.n,
        nodes: spec.nodes,
        seed: spec.seed,
        drop_p: spec.drop_p,
        inbox_capacity: spec.inbox_capacity,
        ticks_run: cluster.now(),
        converged,
        single_leader,
        lost_invalidations: lost,
        decided_logs_consistent: logs_ok,
        routing_divergence: divergence,
        frames_compared: compared,
        final_epoch: cluster.epoch(),
        final_members: cluster.live_members().iter().map(|m| m.0).collect(),
        trace_digest: cluster.trace_digest(),
        state_digest: cluster.state_digest(),
        messages_sent: net.sent,
        messages_delivered: net.delivered,
        messages_dropped: net.dropped(),
        backpressure_ticks: net.backpressure_ticks,
        node_reports,
        healthy,
    })
}

impl CampaignSpec {
    /// Ticks per re-proposal nudge while a membership change settles.
    fn protocol_settle_step(&self) -> u64 {
        64
    }
}
