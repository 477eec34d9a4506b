//! The serving front end: a multi-tenant bounded-queue request loop feeding
//! a sharded, multi-backend routing fabric — the shape a deployed BRSMN
//! switch controller takes.
//!
//! ```text
//!  submit_for(tenant, source, dests, deadline)
//!        │  admission control (tenant known? port ranges? fanout cap?
//!        │  deadline already passed? per-tenant quota? total capacity?)
//!        ▼
//!  ┌──────────────────────────────┐  one bounded FIFO per tenant; a full
//!  │ tenant 0 │ tenant 1 │ … │ T−1│  fabric (Σ len == queue_capacity) or a
//!  └────┬─────────┬──────────┬────┘  full tenant (len == quota) rejects
//!       └────┬────┴──────────┘       with QueueFull / QuotaExceeded
//!            ▼  weighted round-robin: each visit spends `weight` credits,
//!            │  expired-deadline jobs are shed (DeadlineExceeded), up to
//!            │  batch_window live jobs form the routing round
//!  ┌─────────┴───────────────────┐   fabric: Vec<Box<dyn RouterBackend>>
//!  │ serving thread              │     brsmn: one ShardedEngine (S shards)
//!  │   route_striped: frame i to ├──▶  cluster: one DistributedEngine
//!  │   backend i mod s, one      │     others: S instances, one per shard
//!  │   thread per stripe         │   (each striping again inside)
//!  └─────────────────────────────┘
//!         │ per-request latency → global + per-tenant LatencyHistogram
//!         ▼
//!  shutdown(): set drain flag, close the queues, serve the backlog, join,
//!  return the ServeReport (per tenant and overall:
//!  accepted + drained + rejected == submitted)
//! ```
//!
//! Admission control is driven by the same [`QueueConfig`] the queueing
//! simulation uses ([`brsmn_workloads::queueing`]): the config is
//! [validated](QueueConfig::validate) into typed [`QueueError`]s at
//! construction, and each submitted request is screened against it before
//! touching a queue ([`RejectReason`]). Quotas, weights, the batch window,
//! and the fanout cap can all be changed **between rounds** while frames are
//! in flight via [`Server::reconfigure`]; every change bumps the config
//! *epoch*, and each [`Completion`] is stamped with the epoch under which it
//! was admitted. Every round goes through [`route_striped`], the striper
//! every fleet shares. The BRSMN backend is one [`ShardedEngine`], which
//! stripes its own shards over one plan cache (bit-identical to a single
//! engine); the cluster backend is one [`DistributedEngine`], which stripes
//! across its live nodes; every other [`RouterBackend`] gets one
//! independent instance per shard.
//!
//! # Example
//!
//! ```
//! use brsmn_serve::{ServeConfig, Server};
//!
//! let mut cfg = ServeConfig::new(8);
//! cfg.shards = 2;
//! let mut server = Server::start(cfg).unwrap();
//! for s in 0..8 {
//!     server.submit(s, &[s, (s + 1) % 8]).unwrap();
//! }
//! let report = server.shutdown();
//! assert_eq!(report.submitted, 8);
//! assert_eq!(report.accepted + report.drained, 8);
//! assert_eq!(report.served_ok, 8);
//! assert_eq!(report.tenants.len(), 1); // the implicit default tenant
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod histogram;
pub mod trace;

pub use histogram::LatencyHistogram;
pub use trace::{ChurnTraceSpec, Trace, TraceRequest};

use brsmn_baselines::{CopyBenesMulticast, Crossbar};
use brsmn_cluster::DistributedEngine;
use brsmn_core::backend::{ReferenceRouter, RouterBackend};
use brsmn_core::{
    route_striped, BatchOutput, CoreError, EngineConfig, EngineStats, FeedbackBrsmn,
    MulticastAssignment, PlanCache, RoutingResult, ShardedEngine,
};
use brsmn_workloads::queueing::{QueueConfig, QueueError};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which routing fabric the server drives (see [`RouterBackend`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackendKind {
    /// BRSMN zero-allocation fast path via [`ShardedEngine`] (the default).
    Brsmn,
    /// The allocating reference planner, one [`ReferenceRouter`] per shard.
    Reference,
    /// The Section-7.3 feedback network, one [`FeedbackBrsmn`] per shard.
    Feedback,
    /// The `Θ(n²)` crossbar baseline, one [`Crossbar`] per shard.
    Crossbar,
    /// The classical copy-then-route baseline, one [`CopyBenesMulticast`]
    /// per shard.
    CopyBenes,
    /// The simulated distributed control plane
    /// ([`DistributedEngine`]): one
    /// fault-free cluster node per shard, bit-identical to `Brsmn`.
    Cluster,
}

impl BackendKind {
    /// Stable name used in reports and on the CLI (`--backend`).
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::Brsmn => "brsmn",
            BackendKind::Reference => "reference",
            BackendKind::Feedback => "feedback",
            BackendKind::Crossbar => "crossbar",
            BackendKind::CopyBenes => "copy-benes",
            BackendKind::Cluster => "cluster",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "brsmn" => Ok(BackendKind::Brsmn),
            "reference" => Ok(BackendKind::Reference),
            "feedback" => Ok(BackendKind::Feedback),
            "crossbar" => Ok(BackendKind::Crossbar),
            "copy-benes" => Ok(BackendKind::CopyBenes),
            "cluster" => Ok(BackendKind::Cluster),
            other => Err(format!(
                "unknown backend {other:?} (expected brsmn, reference, feedback, crossbar, copy-benes, cluster)"
            )),
        }
    }
}

/// One tenant's admission contract: how much of the bounded queue it may
/// hold and how strongly the round composer favors it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Most requests this tenant may have queued at once; the quota binds
    /// even when the shared queue has room ([`RejectReason::QuotaExceeded`]).
    pub quota: usize,
    /// Weighted-round-robin share: each visit of the round composer pops up
    /// to `weight` requests before moving to the next tenant.
    pub weight: u32,
}

impl TenantSpec {
    /// An even share: quota `quota`, weight 1.
    pub fn even(quota: usize) -> Self {
        TenantSpec { quota, weight: 1 }
    }
}

/// Serving-loop configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Admission-control parameters (network size, arrival rate for trace
    /// generation, fanout cap), validated by [`QueueConfig::validate`].
    pub queue: QueueConfig,
    /// Independent fabrics the serving thread stripes each round across.
    pub shards: usize,
    /// Engine worker threads inside each shard (`ShardedEngine` backends;
    /// `0` = one per hardware thread). Serving deployments usually keep
    /// this at 1 and scale via `shards`.
    pub workers_per_shard: usize,
    /// Bounded request-queue capacity shared by all tenants; a full queue
    /// rejects with [`RejectReason::QueueFull`] (backpressure).
    pub queue_capacity: usize,
    /// Most requests served per routing round (the batch the fabric sees).
    pub batch_window: usize,
    /// Which fabric to drive.
    pub backend: BackendKind,
    /// Record each request's delivered [`RoutingResult`] in the report's
    /// completion log (memory-heavy; meant for tests and small traces).
    pub record_outputs: bool,
    /// Capacity of the plan-capture cache shared by the BRSMN backend's
    /// shards (`0` disables; ignored by the other backends). Repeated
    /// assignments — the common case for serving traffic with hot
    /// source/destination pairs — then replay their captured switch
    /// settings instead of re-planning.
    pub plan_cache: usize,
    /// The tenants this server admits, indexed by `TenantId`. Empty (the
    /// default, and what pre-multi-tenant configs deserialize to) means one
    /// implicit tenant with quota `queue_capacity` and weight 1.
    pub tenants: Vec<TenantSpec>,
}

impl ServeConfig {
    /// A single-shard BRSMN server over an `n`-port fabric with moderate
    /// defaults (queue capacity 256, batch window 32, arrival rate 0.5,
    /// fanout cap 4, one implicit tenant).
    pub fn new(n: usize) -> Self {
        ServeConfig {
            queue: QueueConfig {
                n,
                p_arrival: 0.5,
                max_fanout: 4,
            },
            shards: 1,
            workers_per_shard: 1,
            queue_capacity: 256,
            batch_window: 32,
            backend: BackendKind::Brsmn,
            record_outputs: false,
            plan_cache: 0,
            tenants: Vec::new(),
        }
    }

    /// Validates and normalizes: the embedded [`QueueConfig`] is validated
    /// (typed [`QueueError`] on a bad size or fanout), zero
    /// shards/capacity/window are rejected, an empty tenant list becomes
    /// the single implicit tenant, and zero quotas/weights are rejected.
    pub fn validate(mut self) -> Result<ServeConfig, ServeError> {
        self.queue = self.queue.validate().map_err(ServeError::Queue)?;
        if self.shards == 0 {
            return Err(ServeError::Config("shards must be >= 1".to_string()));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::Config("queue_capacity must be >= 1".to_string()));
        }
        if self.batch_window == 0 {
            return Err(ServeError::Config("batch_window must be >= 1".to_string()));
        }
        if self.tenants.is_empty() {
            self.tenants = vec![TenantSpec::even(self.queue_capacity)];
        }
        for (t, spec) in self.tenants.iter().enumerate() {
            if spec.quota == 0 {
                return Err(ServeError::Config(format!("tenant {t}: quota must be >= 1")));
            }
            if spec.weight == 0 {
                return Err(ServeError::Config(format!("tenant {t}: weight must be >= 1")));
            }
        }
        Ok(self)
    }
}

/// A between-rounds reconfiguration ([`Server::reconfigure`]): every `Some`
/// field replaces the running value, the epoch counter bumps by one, and
/// requests admitted afterwards carry the new epoch. The tenant *count* is
/// fixed for the server's lifetime — `quotas`/`weights` must match it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EpochUpdate {
    /// New shared queue capacity.
    pub queue_capacity: Option<usize>,
    /// New batch window (requests per routing round).
    pub batch_window: Option<usize>,
    /// New admission fanout cap.
    pub max_fanout: Option<usize>,
    /// New per-tenant quotas (length must equal the tenant count).
    pub quotas: Option<Vec<usize>>,
    /// New per-tenant weights (length must equal the tenant count).
    pub weights: Option<Vec<u32>>,
}

/// A server that could not be built or run.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The admission-control config failed [`QueueConfig::validate`].
    Queue(QueueError),
    /// A serving parameter (shards, capacity, batch window, tenant spec)
    /// is unusable.
    Config(String),
    /// The backend fabric could not be constructed.
    Core(CoreError),
    /// A replayed trace addresses a different network size than the config.
    TraceMismatch {
        /// Size the trace was recorded for.
        trace_n: usize,
        /// Size the server is configured for.
        cfg_n: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Queue(e) => write!(f, "admission config: {e}"),
            ServeError::Config(msg) => write!(f, "serve config: {msg}"),
            ServeError::Core(e) => write!(f, "backend construction: {e}"),
            ServeError::TraceMismatch { trace_n, cfg_n } => write!(
                f,
                "trace recorded for n={trace_n} but the server is configured for n={cfg_n}"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

/// Why admission control (or backpressure) refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The shared bounded queue is at capacity — backpressure.
    QueueFull,
    /// The submitting tenant's queue is at its quota.
    QuotaExceeded {
        /// The tenant at quota.
        tenant: u32,
        /// Its configured quota.
        quota: usize,
    },
    /// The tenant id names no configured tenant.
    UnknownTenant {
        /// The offending tenant id.
        tenant: u32,
        /// Configured tenant count.
        tenants: u32,
    },
    /// The request's deadline had already passed (at admission for replayed
    /// traces, at round composition for live wall-clock deadlines).
    DeadlineExceeded,
    /// The request named no destinations.
    EmptyRequest,
    /// More distinct destinations than the admission fanout cap.
    FanoutExceeded {
        /// Distinct destinations requested.
        fanout: usize,
        /// The configured cap ([`QueueConfig::max_fanout`]).
        max_fanout: usize,
    },
    /// The source port does not exist on this fabric.
    SourceOutOfRange {
        /// The offending source.
        source: usize,
        /// Network size.
        n: usize,
    },
    /// A destination port does not exist on this fabric.
    DestOutOfRange {
        /// The offending destination.
        dest: usize,
        /// Network size.
        n: usize,
    },
    /// The server is shutting down and no longer accepts requests.
    ShuttingDown,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull => write!(f, "queue full"),
            RejectReason::QuotaExceeded { tenant, quota } => {
                write!(f, "tenant {tenant} at quota {quota}")
            }
            RejectReason::UnknownTenant { tenant, tenants } => {
                write!(f, "unknown tenant {tenant} (server has {tenants})")
            }
            RejectReason::DeadlineExceeded => write!(f, "deadline exceeded"),
            RejectReason::EmptyRequest => write!(f, "empty destination set"),
            RejectReason::FanoutExceeded { fanout, max_fanout } => {
                write!(f, "fanout {fanout} exceeds admission cap {max_fanout}")
            }
            RejectReason::SourceOutOfRange { source, n } => {
                write!(f, "source {source} out of range for n={n}")
            }
            RejectReason::DestOutOfRange { dest, n } => {
                write!(f, "destination {dest} out of range for n={n}")
            }
            RejectReason::ShuttingDown => write!(f, "server shutting down"),
        }
    }
}

/// Per-reason rejection counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RejectBreakdown {
    /// Backpressure rejections ([`RejectReason::QueueFull`]).
    pub queue_full: u64,
    /// Per-tenant quota rejections.
    pub quota_exceeded: u64,
    /// Submissions naming a tenant the server does not have.
    pub unknown_tenant: u64,
    /// Requests shed because their deadline passed.
    pub deadline_exceeded: u64,
    /// Empty destination sets.
    pub empty_request: u64,
    /// Fanout above the admission cap.
    pub fanout_exceeded: u64,
    /// Source or destination ports off the fabric.
    pub out_of_range: u64,
    /// Requests submitted after shutdown began.
    pub shutting_down: u64,
}

impl RejectBreakdown {
    /// Total rejected requests.
    pub fn total(&self) -> u64 {
        self.queue_full
            + self.quota_exceeded
            + self.unknown_tenant
            + self.deadline_exceeded
            + self.empty_request
            + self.fanout_exceeded
            + self.out_of_range
            + self.shutting_down
    }

    fn count(&mut self, reason: &RejectReason) {
        match reason {
            RejectReason::QueueFull => self.queue_full += 1,
            RejectReason::QuotaExceeded { .. } => self.quota_exceeded += 1,
            RejectReason::UnknownTenant { .. } => self.unknown_tenant += 1,
            RejectReason::DeadlineExceeded => self.deadline_exceeded += 1,
            RejectReason::EmptyRequest => self.empty_request += 1,
            RejectReason::FanoutExceeded { .. } => self.fanout_exceeded += 1,
            RejectReason::SourceOutOfRange { .. } | RejectReason::DestOutOfRange { .. } => {
                self.out_of_range += 1
            }
            RejectReason::ShuttingDown => self.shutting_down += 1,
        }
    }
}

/// One served request in the report's completion log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Completion {
    /// The id [`Server::submit`] returned for this request.
    pub id: u64,
    /// The submitting tenant.
    pub tenant: u32,
    /// Config epoch under which the request was admitted.
    pub epoch: u64,
    /// Served during the graceful drain (after [`Server::shutdown`] was
    /// called) rather than in steady state.
    pub drained: bool,
    /// The fabric realized the request.
    pub ok: bool,
    /// Submit → completion latency, nanoseconds.
    pub latency_ns: u64,
    /// The delivered source table, when [`ServeConfig::record_outputs`] is
    /// set and the route succeeded.
    pub result: Option<RoutingResult>,
    /// The routing error, if the route failed.
    pub error: Option<String>,
}

/// Headline latency figures distilled from the full histogram.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Samples (served requests).
    pub count: u64,
    /// Exact mean, nanoseconds.
    pub mean_ns: f64,
    /// Median (log₂-bucket upper edge), nanoseconds.
    pub p50_ns: u64,
    /// 90th percentile, nanoseconds.
    pub p90_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// Exact maximum, nanoseconds.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Distills a histogram into the headline figures.
    pub fn from_histogram(h: &LatencyHistogram) -> Self {
        LatencySummary {
            count: h.count,
            mean_ns: h.mean_ns(),
            p50_ns: h.quantile(0.5),
            p90_ns: h.quantile(0.9),
            p99_ns: h.quantile(0.99),
            max_ns: h.max_ns,
        }
    }
}

/// One tenant's slice of the [`ServeReport`]; the conservation law holds
/// per tenant: `accepted + drained + rejected == submitted`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantReport {
    /// Tenant id (index into [`ServeConfig::tenants`]).
    pub tenant: u32,
    /// Quota in force when the server shut down.
    pub quota: usize,
    /// Weight in force when the server shut down.
    pub weight: u32,
    /// Requests this tenant offered.
    pub submitted: u64,
    /// Served in steady state.
    pub accepted: u64,
    /// Served by the graceful drain.
    pub drained: u64,
    /// Refused (admission, quota, backpressure, or deadline shed).
    pub rejected: u64,
    /// Rejections by reason (deadline sheds land in `deadline_exceeded`).
    pub rejections: RejectBreakdown,
    /// Served requests the fabric realized.
    pub served_ok: u64,
    /// Served requests whose route failed.
    pub served_err: u64,
    /// High-water mark of this tenant's queue (never exceeds the quota in
    /// force at the time).
    pub max_queued: usize,
    /// This tenant's latency figures.
    pub latency: LatencySummary,
}

/// Everything one serving run produced; serializes to the `serve-sim` JSON
/// report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Network size.
    pub n: usize,
    /// Shards the fabric striped across.
    pub shards: usize,
    /// Engine workers inside each shard.
    pub workers_per_shard: usize,
    /// Backend label ([`BackendKind::label`]).
    pub backend: String,
    /// Bounded-queue capacity (final value, after any reconfigurations).
    pub queue_capacity: usize,
    /// Requests per service round (final value).
    pub batch_window: usize,
    /// Config epoch at shutdown (number of [`Server::reconfigure`] calls).
    pub epoch: u64,
    /// Requests offered to [`Server::submit`] / [`Server::submit_for`].
    pub submitted: u64,
    /// Requests served in steady state (before shutdown).
    pub accepted: u64,
    /// Requests served by the graceful drain (queued when shutdown began).
    pub drained: u64,
    /// Requests refused by admission control, backpressure, or deadline
    /// shedding.
    pub rejected: u64,
    /// Rejections by reason.
    pub rejections: RejectBreakdown,
    /// Served requests the fabric realized.
    pub served_ok: u64,
    /// Served requests whose route failed.
    pub served_err: u64,
    /// Service rounds (fabric batches) executed.
    pub rounds: u64,
    /// Serving-thread lifetime, nanoseconds.
    pub wall_nanos: u64,
    /// Served requests per second of serving-thread wall time.
    pub frames_per_sec: f64,
    /// Order-independent FNV digest over every served request's (id,
    /// delivered source table): two runs of the same trace are bit-identical
    /// iff their hashes match, regardless of round composition.
    pub output_hash: u64,
    /// Headline latency figures.
    pub latency: LatencySummary,
    /// Full log₂ latency histogram.
    pub histogram: LatencyHistogram,
    /// Per-tenant accounting (one entry per configured tenant).
    pub tenants: Vec<TenantReport>,
    /// Merged fabric instrumentation over every round: plan-cache hits,
    /// misses and snapshot loads, batch-planned frames, stage timings. Wall
    /// time is the serving thread's, and `workers` the widest round's.
    pub engine: EngineStats,
    /// Per-request completion log (populated when
    /// [`ServeConfig::record_outputs`] is set).
    pub completions: Vec<Completion>,
}

impl ServeReport {
    /// The serving conservation law: every submitted request is accounted
    /// for exactly once — overall **and per tenant** — and every queued
    /// request was served or shed.
    pub fn conserves(&self) -> bool {
        let global = self.accepted + self.drained + self.rejected == self.submitted
            && self.served_ok + self.served_err == self.accepted + self.drained
            && self.rejections.total() == self.rejected
            && self.histogram.count == self.accepted + self.drained;
        if !global {
            return false;
        }
        // Pre-multi-tenant reports deserialize with no tenant slices; the
        // per-tenant identities then have nothing to say.
        if self.tenants.is_empty() {
            return true;
        }
        let (mut sub, mut acc, mut dr, mut rej) = (0u64, 0u64, 0u64, 0u64);
        let (mut ok, mut err) = (0u64, 0u64);
        for t in &self.tenants {
            if t.accepted + t.drained + t.rejected != t.submitted
                || t.served_ok + t.served_err != t.accepted + t.drained
                || t.rejections.total() != t.rejected
                || t.latency.count != t.accepted + t.drained
            {
                return false;
            }
            sub += t.submitted;
            acc += t.accepted;
            dr += t.drained;
            rej += t.rejected;
            ok += t.served_ok;
            err += t.served_err;
        }
        // Unknown-tenant submissions are the only ones no tenant slice owns.
        sub + self.rejections.unknown_tenant == self.submitted
            && acc == self.accepted
            && dr == self.drained
            && rej + self.rejections.unknown_tenant == self.rejected
            && ok == self.served_ok
            && err == self.served_err
    }

    /// `true` when no tenant's queue ever exceeded its (final) quota. Valid
    /// whenever quotas were not lowered mid-run.
    pub fn quotas_respected(&self) -> bool {
        self.tenants.iter().all(|t| t.max_queued <= t.quota)
    }
}

/// The routing fabric behind the queue: the backends the serving thread
/// stripes each round across with [`route_striped`]. The `brsmn` backend is
/// one [`ShardedEngine`] (it stripes its own shards, which share one plan
/// cache), `cluster` is one [`DistributedEngine`] (it stripes across its
/// live nodes), and every other backend has one instance per shard.
type Fabric = Vec<Box<dyn RouterBackend>>;

fn build_fabric(
    cfg: &ServeConfig,
    warm_cache: Option<Arc<PlanCache>>,
) -> Result<Fabric, ServeError> {
    let n = cfg.queue.n;
    // A pre-warmed cache only makes sense on the BRSMN fast path — the
    // other backends never consult a plan cache.
    if warm_cache.is_some() && cfg.backend != BackendKind::Brsmn {
        return Err(ServeError::Core(CoreError::Config(format!(
            "warm-start plan cache requires the brsmn backend, not {}",
            cfg.backend
        ))));
    }
    let per_shard = |make: &dyn Fn() -> Result<Box<dyn RouterBackend>, ServeError>| {
        (0..cfg.shards).map(|_| make()).collect()
    };
    match cfg.backend {
        BackendKind::Brsmn => {
            let mut engine = ShardedEngine::with_config(
                n,
                cfg.shards,
                EngineConfig::batch(cfg.workers_per_shard).with_plan_cache(cfg.plan_cache),
            )?;
            if let Some(cache) = warm_cache {
                engine.share_plan_cache(cache);
            }
            Ok(vec![Box::new(engine)])
        }
        BackendKind::Cluster => Ok(vec![Box::new(DistributedEngine::new(n, cfg.shards)?)]),
        BackendKind::Reference => per_shard(&|| Ok(Box::new(ReferenceRouter::new(n)?))),
        BackendKind::Feedback => per_shard(&|| Ok(Box::new(FeedbackBrsmn::new(n)?))),
        BackendKind::Crossbar => per_shard(&|| Ok(Box::new(Crossbar::new(n)))),
        BackendKind::CopyBenes => per_shard(&|| {
            let net = CopyBenesMulticast::new(n).map_err(|e| {
                ServeError::Core(CoreError::Config(format!("copy–benes baseline: {e}")))
            })?;
            Ok(Box::new(net))
        }),
    }
}

/// One queued request.
struct Job {
    id: u64,
    tenant: usize,
    epoch: u64,
    asg: MulticastAssignment,
    submitted_at: Instant,
    /// Wall-clock deadline (live submissions only; replayed traces shed
    /// expired requests at admission instead, keeping replay deterministic).
    deadline: Option<Instant>,
}

/// The reconfigurable-by-epoch admission limits.
struct Limits {
    epoch: u64,
    queue_capacity: usize,
    batch_window: usize,
    max_fanout: usize,
    quotas: Vec<usize>,
    weights: Vec<u32>,
}

/// Everything behind the queue mutex: one FIFO per tenant plus the
/// weighted-round-robin cursor state.
struct QueueState {
    limits: Limits,
    queues: Vec<VecDeque<Job>>,
    /// Σ queue lengths (bounded by `limits.queue_capacity`).
    total: usize,
    /// Per-tenant queue-length high-water marks.
    max_queued: Vec<usize>,
    closed: bool,
    /// WRR position: which tenant the composer visits next…
    cursor: usize,
    /// …and how many more pops that visit may spend.
    credit: u64,
}

/// Composes one routing round under the queue lock: weighted round-robin
/// over the tenant FIFOs, shedding expired-deadline jobs (they consume
/// neither a batch slot nor credit), until the batch window fills or every
/// queue is empty. Cursor and credit persist across rounds so a heavy
/// tenant cannot starve light ones.
fn compose_round(st: &mut QueueState, now: Instant) -> (Vec<Job>, Vec<u64>) {
    let t_count = st.queues.len();
    let mut jobs = Vec::new();
    let mut shed = vec![0u64; t_count];
    let mut empty_streak = 0usize;
    if st.credit == 0 {
        st.credit = st.limits.weights[st.cursor] as u64;
    }
    while jobs.len() < st.limits.batch_window && st.total > 0 && empty_streak <= t_count {
        match st.queues[st.cursor].pop_front() {
            Some(job) => {
                st.total -= 1;
                if let Some(d) = job.deadline {
                    if now >= d {
                        shed[st.cursor] += 1;
                        continue;
                    }
                }
                jobs.push(job);
                empty_streak = 0;
                st.credit -= 1;
                if st.credit == 0 {
                    st.cursor = (st.cursor + 1) % t_count;
                    st.credit = st.limits.weights[st.cursor] as u64;
                }
            }
            None => {
                empty_streak += 1;
                st.cursor = (st.cursor + 1) % t_count;
                st.credit = st.limits.weights[st.cursor] as u64;
            }
        }
    }
    (jobs, shed)
}

/// One tenant's share of the serving thread's accounting.
#[derive(Clone)]
struct TenantOutcome {
    accepted: u64,
    drained: u64,
    served_ok: u64,
    served_err: u64,
    deadline_shed: u64,
    histogram: LatencyHistogram,
}

impl TenantOutcome {
    fn empty() -> Self {
        TenantOutcome {
            accepted: 0,
            drained: 0,
            served_ok: 0,
            served_err: 0,
            deadline_shed: 0,
            histogram: LatencyHistogram::new(),
        }
    }
}

/// What the serving thread hands back at join time.
struct LoopOutcome {
    accepted: u64,
    drained: u64,
    served_ok: u64,
    served_err: u64,
    rounds: u64,
    wall_nanos: u64,
    output_hash: u64,
    histogram: LatencyHistogram,
    tenants: Vec<TenantOutcome>,
    engine: EngineStats,
    completions: Vec<Completion>,
}

/// Order-independent digest of one completion: FNV-1a over the request id
/// and the delivered source table (or an error marker). Summed with
/// `wrapping_add` across completions so the total is independent of round
/// composition.
fn completion_hash(id: u64, result: &Result<RoutingResult, CoreError>) -> u64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = BASIS;
    let eat = |h: &mut u64, w: u64| {
        for b in w.to_le_bytes() {
            *h ^= b as u64;
            *h = h.wrapping_mul(PRIME);
        }
    };
    eat(&mut h, id);
    match result {
        Ok(r) => {
            for o in 0..r.n() {
                if let Some(s) = r.output_source(o) {
                    eat(&mut h, o as u64);
                    eat(&mut h, s as u64 + 1);
                }
            }
        }
        Err(_) => eat(&mut h, u64::MAX),
    }
    h
}

/// Per-tenant submission-side counters (the serving thread owns the
/// service-side ones).
#[derive(Clone, Copy, Default)]
struct TenantSubmit {
    submitted: u64,
    rejections: RejectBreakdown,
}

/// A running serving loop; see the [module docs](crate) for the flow.
///
/// Built by [`Server::start`], fed by [`Server::submit`] /
/// [`Server::submit_for`], reconfigured between rounds by
/// [`Server::reconfigure`], finished by [`Server::shutdown`] (graceful
/// drain: the queues close, every queued request is still served, then the
/// report comes back).
pub struct Server {
    cfg: ServeConfig,
    shared: Arc<(Mutex<QueueState>, Condvar)>,
    draining: Arc<AtomicBool>,
    worker: Option<JoinHandle<LoopOutcome>>,
    submitted: u64,
    rejections: RejectBreakdown,
    tenant_submit: Vec<TenantSubmit>,
}

impl Server {
    /// Validates `cfg`, builds the backend fabric, and spawns the serving
    /// thread.
    pub fn start(cfg: ServeConfig) -> Result<Server, ServeError> {
        Server::start_with_cache(cfg, None)
    }

    /// Like [`Server::start`], but the BRSMN fabric serves out of `cache`
    /// instead of building a cold one — the warm-start path. Load a
    /// [`brsmn_core::PlanCacheSnapshot`] into the cache first and the very
    /// first pass over recurring shapes replays at warm throughput. Only
    /// the `brsmn` backend accepts a warm cache.
    pub fn start_warm(cfg: ServeConfig, cache: Arc<PlanCache>) -> Result<Server, ServeError> {
        Server::start_with_cache(cfg, Some(cache))
    }

    fn start_with_cache(
        cfg: ServeConfig,
        warm_cache: Option<Arc<PlanCache>>,
    ) -> Result<Server, ServeError> {
        let cfg = cfg.validate()?;
        let fabric = build_fabric(&cfg, warm_cache)?;
        let t_count = cfg.tenants.len();
        let state = QueueState {
            limits: Limits {
                epoch: 0,
                queue_capacity: cfg.queue_capacity,
                batch_window: cfg.batch_window,
                max_fanout: cfg.queue.max_fanout,
                quotas: cfg.tenants.iter().map(|t| t.quota).collect(),
                weights: cfg.tenants.iter().map(|t| t.weight).collect(),
            },
            queues: (0..t_count).map(|_| VecDeque::new()).collect(),
            total: 0,
            max_queued: vec![0; t_count],
            closed: false,
            cursor: 0,
            credit: cfg.tenants[0].weight as u64,
        };
        let shared = Arc::new((Mutex::new(state), Condvar::new()));
        let draining = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&draining);
        let queue = Arc::clone(&shared);
        let record_outputs = cfg.record_outputs;
        let worker =
            std::thread::spawn(move || serve_loop(fabric, queue, flag, record_outputs, t_count));
        Ok(Server {
            cfg,
            shared,
            draining,
            worker: Some(worker),
            submitted: 0,
            rejections: RejectBreakdown::default(),
            tenant_submit: vec![TenantSubmit::default(); t_count],
        })
    }

    /// The validated configuration this server runs (quotas/weights reflect
    /// the latest [`Server::reconfigure`]).
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Requests offered so far (accepted or not).
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// The current config epoch (0 until the first [`Server::reconfigure`]).
    pub fn epoch(&self) -> u64 {
        self.shared.0.lock().expect("queue lock").limits.epoch
    }

    /// Offers one multicast request as the default tenant 0 with no
    /// deadline: route `source` to the distinct ports in `dests`.
    ///
    /// Admission control screens the request against the validated
    /// [`QueueConfig`] (port ranges, nonempty, fanout cap) and the tenant's
    /// quota; an admitted request enters the bounded per-tenant queue, so a
    /// full queue rejects immediately with [`RejectReason::QueueFull`] (or
    /// [`RejectReason::QuotaExceeded`]) instead of blocking the caller.
    /// Returns the request id (its submission sequence number) on
    /// acceptance.
    pub fn submit(&mut self, source: usize, dests: &[usize]) -> Result<u64, RejectReason> {
        self.submit_for(0, source, dests, None)
    }

    /// [`Server::submit`] on behalf of `tenant`, optionally with a relative
    /// wall-clock deadline: a request still queued `deadline_ns`
    /// nanoseconds after submission is shed at round composition and
    /// counted as [`RejectReason::DeadlineExceeded`].
    pub fn submit_for(
        &mut self,
        tenant: u32,
        source: usize,
        dests: &[usize],
        deadline_ns: Option<u64>,
    ) -> Result<u64, RejectReason> {
        let id = self.submitted;
        let outcome = self.offer(id, tenant, source, dests, deadline_ns, false);
        self.resolve(tenant, outcome)
    }

    /// Screens and (on success) enqueues one request **without** touching
    /// the submission counters — [`Server::resolve`] counts the final
    /// outcome exactly once, so replay can retry transient rejections
    /// without inflating `submitted`.
    fn offer(
        &mut self,
        id: u64,
        tenant: u32,
        source: usize,
        dests: &[usize],
        deadline_ns: Option<u64>,
        expired: bool,
    ) -> Result<u64, RejectReason> {
        let t_count = self.cfg.tenants.len();
        if tenant as usize >= t_count {
            return Err(RejectReason::UnknownTenant {
                tenant,
                tenants: t_count as u32,
            });
        }
        let n = self.cfg.queue.n;
        if source >= n {
            return Err(RejectReason::SourceOutOfRange { source, n });
        }
        if dests.is_empty() {
            return Err(RejectReason::EmptyRequest);
        }
        if let Some(&dest) = dests.iter().find(|&&d| d >= n) {
            return Err(RejectReason::DestOutOfRange { dest, n });
        }
        // The frame is built before the queue lock, straight into the flat
        // form: admission has checked every port above.
        let asg = MulticastAssignment::single_source(n, source, dests.to_vec())
            .expect("admission checks make the assignment valid");
        let fanout = asg.total_connections();

        let t = tenant as usize;
        let submitted_at = Instant::now();
        let deadline = deadline_ns.map(|d| submitted_at + Duration::from_nanos(d));

        let (lock, cvar) = &*self.shared;
        let mut st = lock.lock().expect("queue lock");
        if st.closed {
            return Err(RejectReason::ShuttingDown);
        }
        // The fanout cap is epoch-scoped: reconfigure may have moved it.
        if fanout > st.limits.max_fanout {
            return Err(RejectReason::FanoutExceeded {
                fanout,
                max_fanout: st.limits.max_fanout,
            });
        }
        // Replayed traces shed virtual-tick-expired requests here, at
        // admission — the only deadline an as-fast-as-possible replay can
        // observe deterministically.
        if expired {
            return Err(RejectReason::DeadlineExceeded);
        }
        if st.total >= st.limits.queue_capacity {
            return Err(RejectReason::QueueFull);
        }
        if st.queues[t].len() >= st.limits.quotas[t] {
            return Err(RejectReason::QuotaExceeded {
                tenant,
                quota: st.limits.quotas[t],
            });
        }

        let epoch = st.limits.epoch;
        st.queues[t].push_back(Job {
            id,
            tenant: t,
            epoch,
            asg,
            submitted_at,
            deadline,
        });
        st.total += 1;
        let len = st.queues[t].len();
        if len > st.max_queued[t] {
            st.max_queued[t] = len;
        }
        cvar.notify_one();
        Ok(id)
    }

    /// Counts one logical submission's final outcome (global and, for known
    /// tenants, per tenant).
    fn resolve(
        &mut self,
        tenant: u32,
        outcome: Result<u64, RejectReason>,
    ) -> Result<u64, RejectReason> {
        self.submitted += 1;
        if let Some(ts) = self.tenant_submit.get_mut(tenant as usize) {
            ts.submitted += 1;
        }
        if let Err(reason) = &outcome {
            self.rejections.count(reason);
            if let Some(ts) = self.tenant_submit.get_mut(tenant as usize) {
                ts.rejections.count(reason);
            }
        }
        outcome
    }

    /// Applies a between-rounds reconfiguration: validates `update`, swaps
    /// the new limits in under the queue lock, and bumps the config epoch.
    /// Requests admitted afterwards carry the new epoch in their
    /// [`Completion`]. Returns the new epoch.
    pub fn reconfigure(&mut self, update: EpochUpdate) -> Result<u64, ServeError> {
        let t_count = self.cfg.tenants.len();
        if update.queue_capacity == Some(0) {
            return Err(ServeError::Config("queue_capacity must be >= 1".to_string()));
        }
        if update.batch_window == Some(0) {
            return Err(ServeError::Config("batch_window must be >= 1".to_string()));
        }
        if update.max_fanout == Some(0) {
            return Err(ServeError::Config("max_fanout must be >= 1".to_string()));
        }
        if let Some(q) = &update.quotas {
            if q.len() != t_count {
                return Err(ServeError::Config(format!(
                    "quotas: got {} entries for {t_count} tenants",
                    q.len()
                )));
            }
            if q.iter().any(|&q| q == 0) {
                return Err(ServeError::Config("quotas must be >= 1".to_string()));
            }
        }
        if let Some(w) = &update.weights {
            if w.len() != t_count {
                return Err(ServeError::Config(format!(
                    "weights: got {} entries for {t_count} tenants",
                    w.len()
                )));
            }
            if w.iter().any(|&w| w == 0) {
                return Err(ServeError::Config("weights must be >= 1".to_string()));
            }
        }

        let (lock, cvar) = &*self.shared;
        let mut st = lock.lock().expect("queue lock");
        if let Some(c) = update.queue_capacity {
            st.limits.queue_capacity = c;
            self.cfg.queue_capacity = c;
        }
        if let Some(w) = update.batch_window {
            st.limits.batch_window = w;
            self.cfg.batch_window = w;
        }
        if let Some(f) = update.max_fanout {
            st.limits.max_fanout = f;
            self.cfg.queue.max_fanout = f;
        }
        if let Some(q) = update.quotas {
            for (spec, &quota) in self.cfg.tenants.iter_mut().zip(&q) {
                spec.quota = quota;
            }
            st.limits.quotas = q;
        }
        if let Some(w) = update.weights {
            for (spec, &weight) in self.cfg.tenants.iter_mut().zip(&w) {
                spec.weight = weight;
            }
            st.limits.weights = w;
        }
        st.limits.epoch += 1;
        let epoch = st.limits.epoch;
        cvar.notify_all();
        Ok(epoch)
    }

    /// Gracefully drains and stops the server: no new requests are
    /// accepted, everything already queued is served (counted as
    /// `drained`) or shed if its deadline lapses, the serving thread exits,
    /// and the full [`ServeReport`] comes back.
    pub fn shutdown(mut self) -> ServeReport {
        self.draining.store(true, Ordering::SeqCst);
        let (epoch, max_queued, quotas, weights) = {
            let (lock, cvar) = &*self.shared;
            let mut st = lock.lock().expect("queue lock");
            st.closed = true;
            cvar.notify_all();
            (
                st.limits.epoch,
                st.max_queued.clone(),
                st.limits.quotas.clone(),
                st.limits.weights.clone(),
            )
        };
        let outcome = self
            .worker
            .take()
            .expect("shutdown runs once")
            .join()
            .expect("serving thread panicked");

        // Deadline sheds are counted by the serving thread; fold them into
        // the rejection taxonomy so the conservation law stays exact.
        let mut rejections = self.rejections;
        for to in &outcome.tenants {
            rejections.deadline_exceeded += to.deadline_shed;
        }
        let tenants: Vec<TenantReport> = (0..outcome.tenants.len())
            .map(|t| {
                let ts = &self.tenant_submit[t];
                let to = &outcome.tenants[t];
                let mut rej = ts.rejections;
                rej.deadline_exceeded += to.deadline_shed;
                TenantReport {
                    tenant: t as u32,
                    quota: quotas[t],
                    weight: weights[t],
                    submitted: ts.submitted,
                    accepted: to.accepted,
                    drained: to.drained,
                    rejected: rej.total(),
                    rejections: rej,
                    served_ok: to.served_ok,
                    served_err: to.served_err,
                    max_queued: max_queued[t],
                    latency: LatencySummary::from_histogram(&to.histogram),
                }
            })
            .collect();

        let served = outcome.accepted + outcome.drained;
        let frames_per_sec = if outcome.wall_nanos == 0 {
            0.0
        } else {
            served as f64 * 1e9 / outcome.wall_nanos as f64
        };
        let mut engine = outcome.engine;
        engine.wall_nanos = outcome.wall_nanos;
        ServeReport {
            n: self.cfg.queue.n,
            shards: self.cfg.shards,
            workers_per_shard: self.cfg.workers_per_shard,
            backend: self.cfg.backend.label().to_string(),
            queue_capacity: self.cfg.queue_capacity,
            batch_window: self.cfg.batch_window,
            epoch,
            submitted: self.submitted,
            accepted: outcome.accepted,
            drained: outcome.drained,
            rejected: rejections.total(),
            rejections,
            served_ok: outcome.served_ok,
            served_err: outcome.served_err,
            rounds: outcome.rounds,
            wall_nanos: outcome.wall_nanos,
            frames_per_sec,
            output_hash: outcome.output_hash,
            latency: LatencySummary::from_histogram(&outcome.histogram),
            histogram: outcome.histogram,
            tenants,
            engine,
            completions: outcome.completions,
        }
    }
}

/// The serving thread: compose up to `batch_window` queued requests by
/// weighted round robin (shedding expired deadlines), route them as one
/// striped round, record latencies, repeat until the queues close and
/// empty.
fn serve_loop(
    fabric: Fabric,
    shared: Arc<(Mutex<QueueState>, Condvar)>,
    draining: Arc<AtomicBool>,
    record_outputs: bool,
    t_count: usize,
) -> LoopOutcome {
    let n = fabric[0].size();
    let mut out = LoopOutcome {
        accepted: 0,
        drained: 0,
        served_ok: 0,
        served_err: 0,
        rounds: 0,
        wall_nanos: 0,
        output_hash: 0,
        histogram: LatencyHistogram::new(),
        tenants: vec![TenantOutcome::empty(); t_count],
        engine: EngineStats::empty(n),
        completions: Vec::new(),
    };

    let (lock, cvar) = &*shared;
    let start = Instant::now();
    loop {
        let (jobs, shed) = {
            let mut st = lock.lock().expect("queue lock");
            // Block for the round's first request; the queue closing (and
            // emptying) ends the loop.
            while st.total == 0 && !st.closed {
                st = cvar.wait(st).expect("queue lock");
            }
            if st.total == 0 {
                break;
            }
            compose_round(&mut st, Instant::now())
        };
        for (t, &s) in shed.iter().enumerate() {
            out.tenants[t].deadline_shed += s;
        }
        if jobs.is_empty() {
            // Every popped job was past its deadline — nothing to route.
            continue;
        }

        // Anything routed after shutdown began is part of the graceful
        // drain; the flag is set before the queue closes, so no drained
        // request can be miscounted as steady-state.
        let in_drain = draining.load(Ordering::SeqCst);

        let metas: Vec<(u64, usize, u64, Instant)> = jobs
            .iter()
            .map(|j| (j.id, j.tenant, j.epoch, j.submitted_at))
            .collect();
        let batch: Vec<MulticastAssignment> = jobs.into_iter().map(|j| j.asg).collect();
        let BatchOutput { results, stats } =
            route_striped(n, &fabric, &batch, |backend, stripe| {
                backend.route_batch(stripe)
            });
        let done = Instant::now();

        for ((id, tenant, epoch, submitted_at), result) in metas.into_iter().zip(results) {
            let latency_ns = done.duration_since(submitted_at).as_nanos() as u64;
            out.histogram.record(latency_ns);
            out.tenants[tenant].histogram.record(latency_ns);
            if in_drain {
                out.drained += 1;
                out.tenants[tenant].drained += 1;
            } else {
                out.accepted += 1;
                out.tenants[tenant].accepted += 1;
            }
            out.output_hash = out.output_hash.wrapping_add(completion_hash(id, &result));
            let (ok, result, error) = match result {
                Ok(r) => {
                    out.served_ok += 1;
                    out.tenants[tenant].served_ok += 1;
                    (true, record_outputs.then_some(r), None)
                }
                Err(e) => {
                    out.served_err += 1;
                    out.tenants[tenant].served_err += 1;
                    (false, None, Some(e.to_string()))
                }
            };
            out.completions.push(Completion {
                id,
                tenant: tenant as u32,
                epoch,
                drained: in_drain,
                ok,
                latency_ns,
                result,
                error,
            });
        }
        // Merging sums round wall times into a running total we overwrite
        // below with the true thread lifetime; work counters accumulate.
        // Rounds run one after another, so the fabric's worker count is
        // the widest round's, not the sum over rounds.
        let workers = out.engine.workers.max(stats.workers);
        out.engine.merge(&stats);
        out.engine.workers = workers;
        out.rounds += 1;
    }
    out.wall_nanos = start.elapsed().as_nanos() as u64;
    out.engine.wall_nanos = out.wall_nanos;
    out
}

/// Replays every request of `trace` through a fresh server built from
/// `cfg` (as fast as submission allows — queue pressure, not tick pacing)
/// and shuts down gracefully, returning the report. Transient rejections
/// (`QueueFull`, `QuotaExceeded`) are retried with backoff until the
/// serving thread makes room, so **no trace request is ever lost** and the
/// report no longer depends on machine speed; requests whose recorded
/// deadline already lay in the past at their arrival tick are shed
/// deterministically as `DeadlineExceeded`.
pub fn serve_trace(cfg: ServeConfig, trace: &Trace) -> Result<ServeReport, ServeError> {
    serve_trace_with_cache(cfg, trace, None)
}

/// [`serve_trace`] against a server warm-started from `cache`
/// ([`Server::start_warm`]): plans loaded from a snapshot replay on first
/// sight instead of being planned fresh.
pub fn serve_trace_warm(
    cfg: ServeConfig,
    trace: &Trace,
    cache: Arc<PlanCache>,
) -> Result<ServeReport, ServeError> {
    serve_trace_with_cache(cfg, trace, Some(cache))
}

/// Backoff between replay retries: yield for the first few attempts (the
/// serving thread usually frees a slot within one round), then sleep with
/// exponential steps capped at 2.56 ms.
fn replay_backoff(spins: &mut u32) {
    if *spins < 32 {
        std::thread::yield_now();
    } else {
        let exp = (*spins - 32).min(8);
        std::thread::sleep(Duration::from_micros(10u64 << exp));
    }
    *spins += 1;
}

fn serve_trace_with_cache(
    cfg: ServeConfig,
    trace: &Trace,
    warm_cache: Option<Arc<PlanCache>>,
) -> Result<ServeReport, ServeError> {
    let cfg = cfg.validate()?;
    if trace.n != cfg.queue.n {
        return Err(ServeError::TraceMismatch {
            trace_n: trace.n,
            cfg_n: cfg.queue.n,
        });
    }
    let mut server = Server::start_with_cache(cfg, warm_cache)?;
    for req in &trace.requests {
        let tenant = req.tenant_id();
        let expired = req.expired_at_arrival();
        let id = server.submitted;
        let mut spins = 0u32;
        let outcome = loop {
            match server.offer(id, tenant, req.source, &req.dests, None, expired) {
                // Backpressure and quota pressure are transient: the
                // serving thread drains the queues, so retry instead of
                // silently dropping the trace request.
                Err(RejectReason::QueueFull) | Err(RejectReason::QuotaExceeded { .. }) => {
                    replay_backoff(&mut spins)
                }
                other => break other,
            }
        };
        let _ = server.resolve(tenant, outcome);
    }
    Ok(server.shutdown())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(n: usize) -> ServeConfig {
        let mut cfg = ServeConfig::new(n);
        cfg.queue.max_fanout = n;
        cfg.queue_capacity = 1024;
        cfg
    }

    #[test]
    fn serves_every_submitted_request() {
        let mut server = Server::start(small_cfg(8)).unwrap();
        for s in 0..8 {
            server.submit(s, &[(s + 3) % 8]).unwrap();
        }
        let report = server.shutdown();
        assert!(report.conserves(), "{report:?}");
        assert_eq!(report.submitted, 8);
        assert_eq!(report.accepted + report.drained, 8);
        assert_eq!(report.served_ok, 8);
        assert_eq!(report.served_err, 0);
        assert_eq!(report.rejected, 0);
        assert!(report.frames_per_sec > 0.0);
        assert_eq!(report.epoch, 0);
        assert_eq!(report.tenants.len(), 1);
        assert_eq!(report.tenants[0].submitted, 8);
        assert_eq!(report.tenants[0].served_ok, 8);
        assert!(report.quotas_respected(), "{report:?}");
    }

    #[test]
    fn admission_rejects_malformed_requests() {
        let mut cfg = ServeConfig::new(8);
        cfg.queue.max_fanout = 2;
        let mut server = Server::start(cfg).unwrap();
        assert_eq!(
            server.submit(9, &[0]).unwrap_err(),
            RejectReason::SourceOutOfRange { source: 9, n: 8 }
        );
        assert_eq!(server.submit(0, &[]).unwrap_err(), RejectReason::EmptyRequest);
        assert_eq!(
            server.submit(0, &[1, 8]).unwrap_err(),
            RejectReason::DestOutOfRange { dest: 8, n: 8 }
        );
        assert_eq!(
            server.submit(0, &[1, 2, 3]).unwrap_err(),
            RejectReason::FanoutExceeded {
                fanout: 3,
                max_fanout: 2
            }
        );
        // Duplicate destinations collapse before the fanout check.
        server.submit(0, &[1, 1, 2, 2]).unwrap();
        let report = server.shutdown();
        assert!(report.conserves(), "{report:?}");
        assert_eq!(report.submitted, 5);
        assert_eq!(report.rejected, 4);
        assert_eq!(report.rejections.out_of_range, 2);
        assert_eq!(report.rejections.empty_request, 1);
        assert_eq!(report.rejections.fanout_exceeded, 1);
        assert_eq!(report.served_ok, 1);
    }

    #[test]
    fn backpressure_rejects_when_queue_is_full() {
        // Heavy frames (n=256 broadcasts) on one shard with a 2-slot queue:
        // submission is orders of magnitude faster than routing, so the
        // burst must overflow.
        let mut cfg = ServeConfig::new(256);
        cfg.queue.max_fanout = 256;
        cfg.queue_capacity = 2;
        cfg.batch_window = 1;
        let dests: Vec<usize> = (0..256).collect();
        let mut server = Server::start(cfg).unwrap();
        let mut full = 0u64;
        for i in 0..2000 {
            if server.submit(i % 256, &dests) == Err(RejectReason::QueueFull) {
                full += 1;
            }
        }
        let report = server.shutdown();
        assert!(report.conserves(), "{report:?}");
        assert_eq!(report.rejections.queue_full, full);
        assert!(full > 1000, "expected heavy backpressure, got {full}");
        assert_eq!(report.served_err, 0);
    }

    #[test]
    fn quota_binds_before_shared_capacity() {
        // Two tenants: tenant 0 floods heavy broadcasts with quota 1 while
        // the shared queue has plenty of room, so quota (not capacity) is
        // what rejects.
        let mut cfg = ServeConfig::new(256);
        cfg.queue.max_fanout = 256;
        cfg.queue_capacity = 1024;
        cfg.batch_window = 1;
        cfg.tenants = vec![TenantSpec { quota: 1, weight: 1 }, TenantSpec::even(8)];
        let dests: Vec<usize> = (0..256).collect();
        let mut server = Server::start(cfg).unwrap();
        let mut quota_hits = 0u64;
        for i in 0..500 {
            if matches!(
                server.submit_for(0, i % 256, &dests, None),
                Err(RejectReason::QuotaExceeded { tenant: 0, quota: 1 })
            ) {
                quota_hits += 1;
            }
        }
        server.submit_for(1, 0, &[1], None).unwrap();
        let report = server.shutdown();
        assert!(report.conserves(), "{report:?}");
        assert!(report.quotas_respected(), "{report:?}");
        assert!(quota_hits > 100, "expected quota pressure, got {quota_hits}");
        assert_eq!(report.rejections.quota_exceeded, quota_hits);
        assert_eq!(report.rejections.queue_full, 0);
        assert_eq!(report.tenants[0].rejections.quota_exceeded, quota_hits);
        assert_eq!(report.tenants[0].max_queued, 1);
        assert_eq!(report.tenants[1].served_ok, 1);
    }

    #[test]
    fn unknown_tenants_are_rejected_and_conserved() {
        let mut server = Server::start(small_cfg(8)).unwrap();
        assert_eq!(
            server.submit_for(3, 0, &[1], None).unwrap_err(),
            RejectReason::UnknownTenant { tenant: 3, tenants: 1 }
        );
        server.submit(0, &[1]).unwrap();
        let report = server.shutdown();
        assert!(report.conserves(), "{report:?}");
        assert_eq!(report.submitted, 2);
        assert_eq!(report.rejections.unknown_tenant, 1);
        // The unknown submission belongs to no tenant slice.
        assert_eq!(report.tenants[0].submitted, 1);
    }

    #[test]
    fn expired_wall_clock_deadlines_are_shed() {
        // deadline_ns = 0 expires the instant it is queued, so round
        // composition must shed every one of these.
        let mut server = Server::start(small_cfg(8)).unwrap();
        for s in 0..4 {
            server.submit_for(0, s, &[(s + 1) % 8], Some(0)).unwrap();
        }
        for s in 0..4 {
            server.submit_for(0, s, &[(s + 2) % 8], None).unwrap();
        }
        let report = server.shutdown();
        assert!(report.conserves(), "{report:?}");
        assert_eq!(report.submitted, 8);
        assert_eq!(report.rejections.deadline_exceeded, 4);
        assert_eq!(report.served_ok, 4);
        assert_eq!(report.tenants[0].rejections.deadline_exceeded, 4);
    }

    #[test]
    fn weighted_round_robin_interleaves_by_weight() {
        // Composed directly (no serving thread): tenant 0 at weight 2 and
        // tenant 1 at weight 1 must interleave 2:1 while both have backlog.
        let n = 8;
        let mk_job = |id: u64, tenant: usize| {
            let mut sets = vec![Vec::new(); n];
            sets[tenant] = vec![(tenant + 4) % n];
            Job {
                id,
                tenant,
                epoch: 0,
                asg: MulticastAssignment::from_sets(n, sets).unwrap(),
                submitted_at: Instant::now(),
                deadline: None,
            }
        };
        let mut st = QueueState {
            limits: Limits {
                epoch: 0,
                queue_capacity: 64,
                batch_window: 6,
                max_fanout: n,
                quotas: vec![32, 32],
                weights: vec![2, 1],
            },
            queues: vec![VecDeque::new(), VecDeque::new()],
            total: 0,
            max_queued: vec![0, 0],
            closed: false,
            cursor: 0,
            credit: 2,
        };
        for i in 0..8 {
            st.queues[0].push_back(mk_job(i, 0));
            st.queues[1].push_back(mk_job(100 + i, 1));
            st.total += 2;
        }
        let (round1, shed) = compose_round(&mut st, Instant::now());
        assert_eq!(shed, vec![0, 0]);
        let tenants: Vec<usize> = round1.iter().map(|j| j.tenant).collect();
        assert_eq!(tenants, vec![0, 0, 1, 0, 0, 1], "2:1 interleave");
        // Cursor and credit persist: the next round picks up mid-pattern.
        let (round2, _) = compose_round(&mut st, Instant::now());
        let tenants2: Vec<usize> = round2.iter().map(|j| j.tenant).collect();
        assert_eq!(tenants2, vec![0, 0, 1, 0, 0, 1]);
        // Once tenant 1 empties, tenant 0 gets every remaining slot.
        let (round3, _) = compose_round(&mut st, Instant::now());
        assert!(round3.iter().all(|j| j.tenant == 0 || j.id >= 100));
    }

    #[test]
    fn reconfigure_bumps_epoch_and_stamps_completions() {
        let mut cfg = small_cfg(8);
        cfg.record_outputs = true;
        let mut server = Server::start(cfg).unwrap();
        assert_eq!(server.epoch(), 0);
        for s in 0..4 {
            server.submit(s, &[(s + 1) % 8]).unwrap();
        }
        let epoch = server
            .reconfigure(EpochUpdate {
                batch_window: Some(8),
                max_fanout: Some(3),
                quotas: Some(vec![512]),
                weights: Some(vec![2]),
                ..EpochUpdate::default()
            })
            .unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(server.epoch(), 1);
        assert_eq!(server.config().batch_window, 8);
        assert_eq!(server.config().queue.max_fanout, 3);
        assert_eq!(server.config().tenants[0].quota, 512);
        // The new fanout cap is live immediately.
        assert!(matches!(
            server.submit(0, &[1, 2, 3, 4]),
            Err(RejectReason::FanoutExceeded { fanout: 4, max_fanout: 3 })
        ));
        for s in 0..4 {
            server.submit(s, &[(s + 2) % 8]).unwrap();
        }
        let report = server.shutdown();
        assert!(report.conserves(), "{report:?}");
        assert_eq!(report.epoch, 1);
        assert_eq!(report.batch_window, 8);
        // Each completion carries the epoch under which it was admitted.
        let mut by_epoch = [0u64; 2];
        for c in &report.completions {
            by_epoch[c.epoch as usize] += 1;
        }
        assert_eq!(by_epoch, [4, 4]);
    }

    #[test]
    fn reconfigure_rejects_bad_updates() {
        let mut server = Server::start(small_cfg(8)).unwrap();
        assert!(server
            .reconfigure(EpochUpdate {
                batch_window: Some(0),
                ..EpochUpdate::default()
            })
            .is_err());
        assert!(server
            .reconfigure(EpochUpdate {
                quotas: Some(vec![1, 1]), // wrong arity: one tenant
                ..EpochUpdate::default()
            })
            .is_err());
        assert!(server
            .reconfigure(EpochUpdate {
                weights: Some(vec![0]),
                ..EpochUpdate::default()
            })
            .is_err());
        // Failed updates must not bump the epoch.
        assert_eq!(server.epoch(), 0);
        server.shutdown();
    }

    #[test]
    fn replay_loses_no_requests_even_at_tiny_capacity() {
        // 200 requests through a 2-slot queue: before the retry fix this
        // dropped most of the trace on the floor.
        let mut cfg = small_cfg(16);
        cfg.queue_capacity = 2;
        cfg.batch_window = 2;
        let trace = Trace::generate(cfg.queue, 9, 200).unwrap();
        let report = serve_trace(cfg, &trace).unwrap();
        assert!(report.conserves(), "{report:?}");
        assert_eq!(report.submitted, trace.len() as u64);
        assert_eq!(report.accepted + report.drained, trace.len() as u64);
        assert_eq!(report.rejected, 0, "{:?}", report.rejections);
    }

    #[test]
    fn merged_rounds_report_the_fabric_worker_count() {
        // Rounds run one after another, so the merged report's worker count
        // is the fabric's (shards × workers per shard at most), not the sum
        // over rounds.
        let mut cfg = small_cfg(16);
        cfg.shards = 2;
        cfg.workers_per_shard = 1;
        cfg.queue_capacity = 2;
        cfg.batch_window = 2;
        let trace = Trace::generate(cfg.queue, 9, 40).unwrap();
        let report = serve_trace(cfg, &trace).unwrap();
        assert!(report.rounds > 1, "{} rounds", report.rounds);
        assert!(report.engine.workers >= 1);
        assert!(
            report.engine.workers <= report.shards * report.workers_per_shard,
            "{} workers after {} rounds",
            report.engine.workers,
            report.rounds
        );
    }

    #[test]
    fn every_backend_kind_serves_the_same_trace() {
        let trace = Trace::generate(
            QueueConfig {
                n: 8,
                p_arrival: 0.6,
                max_fanout: 8,
            },
            5,
            10,
        )
        .unwrap();
        let mut reference: Option<Vec<(u64, RoutingResult)>> = None;
        // Rounds of at most two frames on four shards stripe each round
        // across as many shards as it has frames, for every backend kind.
        for (shards, window) in [(2, ServeConfig::new(8).batch_window), (4, 2)] {
            let mut shape: Option<(usize, usize)> = None;
            for backend in [
                BackendKind::Brsmn,
                BackendKind::Reference,
                BackendKind::Feedback,
                BackendKind::Crossbar,
                BackendKind::CopyBenes,
                BackendKind::Cluster,
            ] {
                let mut cfg = small_cfg(8);
                cfg.backend = backend;
                cfg.shards = shards;
                cfg.batch_window = window;
                cfg.record_outputs = true;
                let report = serve_trace(cfg, &trace).unwrap();
                assert!(report.conserves(), "{backend}: {report:?}");
                assert_eq!(report.served_ok, trace.len() as u64, "{backend}");
                assert_eq!(report.backend, backend.label());
                let mut outputs: Vec<(u64, RoutingResult)> = report
                    .completions
                    .iter()
                    .map(|c| (c.id, c.result.clone().expect("recorded output")))
                    .collect();
                outputs.sort_by_key(|(id, _)| *id);
                match &reference {
                    None => reference = Some(outputs),
                    Some(expect) => assert_eq!(&outputs, expect, "{backend} diverged"),
                }
                let got = (report.engine.batch, report.engine.workers);
                match shape {
                    None => shape = Some(got),
                    Some(want) => {
                        assert_eq!(got, want, "{backend} at {shards} shards: (batch, workers)")
                    }
                }
            }
        }
    }

    #[test]
    fn config_validation_surfaces_typed_errors() {
        let mut cfg = ServeConfig::new(7);
        assert_eq!(
            cfg.validate().unwrap_err(),
            ServeError::Queue(QueueError::InvalidSize { n: 7 })
        );
        cfg = ServeConfig::new(8);
        cfg.queue.max_fanout = 0;
        assert_eq!(
            cfg.validate().unwrap_err(),
            ServeError::Queue(QueueError::ZeroFanout)
        );
        cfg = ServeConfig::new(8);
        cfg.shards = 0;
        assert!(matches!(cfg.validate(), Err(ServeError::Config(_))));
        cfg = ServeConfig::new(8);
        cfg.batch_window = 0;
        assert!(matches!(cfg.validate(), Err(ServeError::Config(_))));
        cfg = ServeConfig::new(8);
        cfg.queue_capacity = 0;
        assert!(matches!(cfg.validate(), Err(ServeError::Config(_))));
        cfg = ServeConfig::new(8);
        cfg.tenants = vec![TenantSpec { quota: 0, weight: 1 }];
        assert!(matches!(cfg.validate(), Err(ServeError::Config(_))));
        cfg = ServeConfig::new(8);
        cfg.tenants = vec![TenantSpec { quota: 4, weight: 0 }];
        assert!(matches!(cfg.validate(), Err(ServeError::Config(_))));
        // An empty tenant list normalizes to the implicit default tenant.
        cfg = ServeConfig::new(8);
        let v = cfg.validate().unwrap();
        assert_eq!(v.tenants, vec![TenantSpec::even(v.queue_capacity)]);
    }

    #[test]
    fn backend_kind_round_trips_from_str() {
        for kind in [
            BackendKind::Brsmn,
            BackendKind::Reference,
            BackendKind::Feedback,
            BackendKind::Crossbar,
            BackendKind::CopyBenes,
            BackendKind::Cluster,
        ] {
            assert_eq!(kind.label().parse::<BackendKind>().unwrap(), kind);
        }
        assert!("warp-drive".parse::<BackendKind>().is_err());
    }

    #[test]
    fn plan_cache_hits_surface_in_the_report() {
        // The same hot request resubmitted: after the first capture, every
        // repeat replays from the shared cache, and the outputs match a
        // cache-less server bit for bit.
        let mut cached = small_cfg(16);
        cached.shards = 2;
        cached.plan_cache = 64;
        cached.record_outputs = true;
        let mut plain = cached.clone();
        plain.plan_cache = 0;

        let submit_all = |cfg: ServeConfig| {
            let mut server = Server::start(cfg).unwrap();
            for i in 0..32 {
                server.submit(i % 4, &[(i % 4 + 5) % 16, (i % 4 + 9) % 16]).unwrap();
            }
            server.shutdown()
        };
        let a = submit_all(cached);
        let b = submit_all(plain);
        assert!(a.conserves(), "{a:?}");
        assert_eq!(a.served_ok, 32);
        // 4 distinct assignments, but all single-source fanout-2 — one
        // relabeling class. Only first occurrences racing across the two
        // shards can plan fresh; later first occurrences land in the
        // canonical tier and every repeat is an exact hit.
        let (ea, eb) = (&a.engine, &b.engine);
        assert!(ea.plan_misses >= 1 && ea.plan_misses <= 4, "{}", ea.plan_misses);
        assert!(ea.plan_canonical_hits >= 2, "{}", ea.plan_canonical_hits);
        assert!(ea.plan_canonical_hits <= ea.plan_hits);
        assert_eq!(ea.plan_hits + ea.plan_misses, 32);
        assert_eq!(eb.plan_hits, 0);
        assert_eq!(eb.plan_misses, 0);
        assert_eq!(eb.plan_canonical_hits, 0);
        // Batch-planner instrumentation rides along: the cache-less server
        // batch-plans every frame while the cached one only plans misses.
        assert!(ea.batch_planned_frames <= ea.plan_misses);
        assert_eq!(eb.batch_planned_frames, 32);
        let key = |r: &ServeReport| {
            let mut v: Vec<(u64, RoutingResult)> = r
                .completions
                .iter()
                .map(|c| (c.id, c.result.clone().unwrap()))
                .collect();
            v.sort_by_key(|(id, _)| *id);
            v
        };
        assert_eq!(key(&a), key(&b));
        // Identical delivered outputs ⇒ identical order-independent hash.
        assert_eq!(a.output_hash, b.output_hash);
    }

    #[test]
    fn warm_started_server_replays_on_first_sight() {
        // Serve a trace cold, snapshot the cache, then serve the same trace
        // on a fresh server warm-started from the snapshot: zero fresh
        // planning, identical outputs.
        let mut cfg = small_cfg(16);
        cfg.plan_cache = 64;
        cfg.record_outputs = true;
        let trace = Trace::generate(cfg.queue, 11, 24).unwrap();

        // Capture run: an externally owned (but empty) cache, so the
        // captured working set survives the server.
        let source = Arc::new(PlanCache::new(64));
        let cold = serve_trace_warm(cfg.clone(), &trace, Arc::clone(&source)).unwrap();
        assert!(cold.engine.plan_misses > 0);

        // Round-trip the snapshot through JSON like the CLI does.
        let json = serde_json::to_string(&source.snapshot()).unwrap();
        let snap: brsmn_core::PlanCacheSnapshot = serde_json::from_str(&json).unwrap();
        let warmed = Arc::new(PlanCache::new(64));
        let stats = warmed.load_snapshot(&snap).unwrap();
        assert!(stats.loaded > 0);

        let warm = serve_trace_warm(cfg, &trace, warmed).unwrap();
        assert_eq!(warm.engine.plan_misses, 0, "{warm:?}");
        assert_eq!(
            warm.engine.plan_hits,
            warm.accepted + warm.drained,
            "every served request must replay"
        );
        assert_eq!(warm.engine.plan_snapshot_loaded, stats.loaded);

        let key = |r: &ServeReport| {
            let mut v: Vec<(u64, RoutingResult)> = r
                .completions
                .iter()
                .map(|c| (c.id, c.result.clone().unwrap()))
                .collect();
            v.sort_by_key(|(id, _)| *id);
            v
        };
        assert_eq!(key(&cold), key(&warm));
        assert_eq!(cold.output_hash, warm.output_hash);
    }

    #[test]
    fn warm_start_rejects_non_brsmn_backends() {
        let mut cfg = small_cfg(8);
        cfg.backend = BackendKind::Crossbar;
        let err = Server::start_warm(cfg, Arc::new(PlanCache::new(8)));
        assert!(err.is_err());
    }

    #[test]
    fn report_serializes_to_json_and_back() {
        let mut cfg = small_cfg(8);
        cfg.record_outputs = true;
        let trace = Trace::generate(cfg.queue, 2, 6).unwrap();
        let report = serve_trace(cfg, &trace).unwrap();
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: ServeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        for field in [
            "frames_per_sec",
            "rejections",
            "p99_ns",
            "queue_full",
            "tenants",
            "output_hash",
            "quota_exceeded",
            "deadline_exceeded",
        ] {
            assert!(json.contains(field), "missing {field}");
        }
    }
}
