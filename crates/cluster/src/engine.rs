//! [`DistributedEngine`]: the simulated cluster wrapped as a
//! [`RouterBackend`], the eighth backend of the fleet.
//!
//! The wrapper is a membership view over [`Cluster::route_batch_on`]: each
//! `route_batch` pumps one virtual tick (so heartbeats, invalidation
//! floods, and anti-entropy keep flowing between data-plane calls), picks
//! the live members as routers, and makes one routing call. The cluster
//! counters ride out on [`EngineStats`](brsmn_core::EngineStats).
//!
//! A fault-free cluster is bit-identical to
//! [`ShardedEngine`](brsmn_core::ShardedEngine): both stripe a batch with
//! the same [`route_striped`](brsmn_core::route_striped), every node
//! routes a full `n × n` fabric, and settings are a pure function of the
//! assignment — so neither the striping nor the per-node caches can move
//! a single output bit.

use std::sync::Mutex;

use brsmn_core::{
    BatchOutput, CoreError, MulticastAssignment, RouterBackend, RoutingResult,
};

use crate::cluster::{Cluster, ClusterParams};
use crate::net::{BroadcastId, NodeId};

/// A cluster of simulated control-plane nodes behind the uniform backend
/// interface. Fault-free by default; the inner [`Cluster`] is reachable
/// for fault-injection tests via [`DistributedEngine::with_cluster`].
#[derive(Debug)]
pub struct DistributedEngine {
    inner: Mutex<Cluster>,
    n: usize,
    nodes: usize,
}

impl DistributedEngine {
    /// A fault-free cluster of `nodes` shard nodes of size `n`, seeded
    /// deterministically from the shape.
    pub fn new(n: usize, nodes: usize) -> Result<Self, CoreError> {
        let seed = 0xD15C_0000u64 ^ ((n as u64) << 8) ^ nodes as u64;
        DistributedEngine::with_params(ClusterParams::fault_free(n, nodes, seed))
    }

    /// A cluster with explicit parameters (lossy configurations included).
    pub fn with_params(params: ClusterParams) -> Result<Self, CoreError> {
        let n = params.n;
        let nodes = params.nodes;
        Ok(DistributedEngine {
            inner: Mutex::new(Cluster::new(params)?),
            n,
            nodes,
        })
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of control-plane nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Runs `f` with the inner cluster locked — fault injection and
    /// invariant checks for tests and the CLI.
    pub fn with_cluster<T>(&self, f: impl FnOnce(&mut Cluster) -> T) -> T {
        let mut cluster = self.inner.lock().expect("cluster lock poisoned");
        f(&mut cluster)
    }

    /// Broadcasts a plan-cache invalidation from `origin` through the
    /// control plane.
    pub fn invalidate_from(&self, origin: NodeId, fp: u64) -> BroadcastId {
        self.with_cluster(|c| c.invalidate_from(origin, fp))
    }

    /// Routes a batch striped across the live members (every node when
    /// none is live), pumping the control plane one tick first so protocol
    /// traffic keeps moving under load.
    pub fn route_batch(&self, batch: &[MulticastAssignment]) -> BatchOutput {
        self.with_cluster(|c| {
            c.tick();
            let mut routers = c.live_members();
            if routers.is_empty() {
                routers = (0..c.num_nodes()).map(NodeId).collect();
            }
            c.route_batch_on(batch, &routers)
        })
    }
}

impl RouterBackend for DistributedEngine {
    fn name(&self) -> &'static str {
        "brsmn-cluster"
    }

    fn size(&self) -> usize {
        self.n
    }

    fn route_assignment(&self, asg: &MulticastAssignment) -> Result<RoutingResult, CoreError> {
        let mut out = self.route_batch(std::slice::from_ref(asg));
        out.results.remove(0)
    }

    fn route_batch(&self, batch: &[MulticastAssignment]) -> BatchOutput {
        DistributedEngine::route_batch(self, batch)
    }

    fn is_brsmn(&self) -> bool {
        true
    }
}
