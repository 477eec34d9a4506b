//! Batched, multi-threaded routing engine with per-stage instrumentation.
//!
//! The sequential router in [`crate::brsmn`] answers "is the construction
//! correct?". This module answers "how fast can a software realization go?"
//! by exploiting the two sources of parallelism the BRSMN has by design:
//!
//! 1. **Frame-level** — distinct multicast assignments ("frames") share no
//!    state, so a batch is spread across a scoped-thread worker pool
//!    ([`brsmn_rbn::par::par_map`]). Output order is deterministic: results
//!    are reassembled by frame index.
//! 2. **Intra-network** — after the level-`i` BSN splits a block, the upper
//!    and lower `n/2 × n/2` sub-BRSMNs are independent (Fig. 1) and recurse
//!    concurrently ([`brsmn_rbn::par::join`]), up to a configurable fork
//!    depth.
//!
//! Both paths are **bit-identical** to the sequential engine: parallel
//! halves compute disjoint output ranges that are concatenated in order, and
//! the worker pool never reorders frames. Property tests in
//! `tests/engine_equivalence.rs` pin this down.
//!
//! Every route is instrumented by a [`StageTimer`]: per-level wall time,
//! blocks routed, switch settings computed, and planner sweep passes, rolled
//! up into an [`EngineStats`] that serializes to JSON for the benchmark
//! harness (`brsmn-bench`) and the `brsmn-cli route --parallel --stats`
//! path.
//!
//! # Example
//!
//! ```
//! use brsmn_core::{Engine, EngineConfig, MulticastAssignment};
//!
//! let batch: Vec<MulticastAssignment> = (0..8)
//!     .map(|s| {
//!         let mut sets = vec![Vec::new(); 8];
//!         sets[s % 8] = (0..8).collect(); // one broadcast per frame
//!         MulticastAssignment::from_sets(8, sets).unwrap()
//!     })
//!     .collect();
//!
//! let engine = Engine::with_config(8, EngineConfig::batch(2)).unwrap();
//! let out = engine.route_batch(&batch);
//! assert_eq!(out.results.len(), 8);
//! assert!(out.results.iter().all(|r| r.is_ok()));
//! assert_eq!(out.stats.frames_ok, 8);
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::assignment::{MulticastAssignment, RoutingResult};
use crate::brsmn::{final_switch, Brsmn};
use crate::bsn::Bsn;
use crate::error::CoreError;
use crate::payload::{RoutePayload, SelfRoutedMsg, SemanticMsg};
use crate::plancache::{plan_fingerprint, CapturedPlan, PlanCache};
use crate::verify::{verify_routing, FaultReport};
use brsmn_rbn::par;
use brsmn_rbn::PlanOpProfile;
use brsmn_switch::{Line, Tag};
use brsmn_topology::log2_exact;
use serde::{Deserialize, Serialize};

/// Blocks smaller than this are never forked: the spawn/join cost of a
/// scoped thread dwarfs the work in a tiny sub-BRSMN.
const MIN_FORK_BLOCK: usize = 32;

/// Planner tree sweeps per BSN: scatter (forward + backward), ε-divide
/// (forward + backward), bit sort (forward + backward).
const SWEEPS_PER_BSN: u64 = 6;

/// How the [`Engine`] parallelizes and which message model it routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Worker threads for frame-level parallelism; `0` = one per hardware
    /// thread.
    pub workers: usize,
    /// Route the two sub-BRSMN halves of each split concurrently.
    pub parallel_halves: bool,
    /// Levels of the recursion allowed to fork when `parallel_halves` is on
    /// (depth `d` forks at most `2^d − 1` extra threads per frame).
    pub fork_depth: usize,
    /// Route semantic batches on the zero-allocation fast path, each worker
    /// reusing a thread-local [`crate::fastpath::RouteScratch`]. Off
    /// (`--no-scratch` in the CLI) falls back to the PR-1 allocating
    /// reference router; results are bit-identical either way.
    pub use_scratch: bool,
    /// Capacity (in captured plans) of the shared [`PlanCache`] consulted
    /// before planning each fast-path frame; `0` disables the cache. A hit
    /// replays the snapshotted switch-setting planes bit-identically at
    /// execution-only cost; a miss plans as usual while capturing the plan
    /// for next time. Only the fast path consults the cache — the reference
    /// and self-routing models always plan fresh.
    pub plan_cache: usize,
    /// Group the cache-miss frames of a multi-frame batch into SoA chunks
    /// planned in lockstep by the [`crate::BatchPlanner`] (up to
    /// [`crate::MAX_BATCH_FRAMES`] frames per chunk) while cache hits keep
    /// replaying. Off (`--no-batch-plan` in the CLI) plans every frame
    /// individually; results, stats and cache behavior are bit-identical
    /// either way — only the planning schedule differs.
    pub batch_plan: bool,
}

impl Default for EngineConfig {
    /// Frame-level parallelism on every hardware thread, no intra-frame
    /// forking — the right default for batches.
    fn default() -> Self {
        EngineConfig::batch(0)
    }
}

impl EngineConfig {
    /// Frame-level parallelism only, across `workers` threads (`0` = auto).
    /// Best when the batch is large relative to the worker count.
    pub fn batch(workers: usize) -> Self {
        EngineConfig {
            workers,
            parallel_halves: false,
            fork_depth: 0,
            use_scratch: true,
            plan_cache: 0,
            batch_plan: true,
        }
    }

    /// Sequential reference configuration: one worker, no forking. The
    /// engine then matches [`Brsmn::route`] exactly while still collecting
    /// [`EngineStats`].
    pub fn sequential() -> Self {
        EngineConfig {
            workers: 1,
            parallel_halves: false,
            fork_depth: 0,
            use_scratch: true,
            plan_cache: 0,
            batch_plan: true,
        }
    }

    /// Intra-network parallelism for latency-sensitive single frames: the
    /// two halves of the first `fork_depth` levels recurse concurrently.
    pub fn single_frame(fork_depth: usize) -> Self {
        EngineConfig {
            workers: 1,
            parallel_halves: true,
            fork_depth,
            use_scratch: true,
            plan_cache: 0,
            batch_plan: true,
        }
    }

    /// Disables the scratch-arena fast path (see
    /// [`EngineConfig::use_scratch`]).
    pub fn without_scratch(mut self) -> Self {
        self.use_scratch = false;
        self
    }

    /// Enables the plan-capture cache with room for `capacity` captured
    /// plans (see [`EngineConfig::plan_cache`]; `0` disables).
    pub fn with_plan_cache(mut self, capacity: usize) -> Self {
        self.plan_cache = capacity;
        self
    }

    /// Disables SoA batch-parallel planning (see
    /// [`EngineConfig::batch_plan`]).
    pub fn without_batch_plan(mut self) -> Self {
        self.batch_plan = false;
        self
    }
}

/// Wall time and work counters for one BSN level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelStats {
    /// BSN blocks routed at this level (summed over the batch).
    pub blocks: u64,
    /// Wall time spent in those blocks, nanoseconds. The fast paths read
    /// the clock once per level per frame (once per level per lockstep
    /// chunk in the SoA planner); the reference recursion once per block.
    /// When halves run in parallel this sums the per-thread times, so
    /// levels below a fork can exceed elapsed wall time.
    pub nanos: u64,
}

/// Accumulates per-stage instrumentation during a route.
///
/// One timer lives on each worker (and each forked half); [`StageTimer::merge`]
/// folds them into the batch total. Exposed so external drivers (benches,
/// the CLI) can instrument custom routing loops.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTimer {
    /// Per-level counters, index `i` = BSN level `i + 1`.
    pub levels: Vec<LevelStats>,
    /// 2×2 switches set in the final stage.
    pub final_switches: u64,
    /// Wall time in the final stage, nanoseconds — one clock pair per
    /// frame on the fast paths, one per switch in the reference recursion.
    pub final_nanos: u64,
    /// Total 2×2 switch settings computed (both RBNs of every BSN, plus the
    /// final stage).
    pub switch_settings: u64,
    /// Planner tree sweeps executed (forward/backward waves of the scatter,
    /// ε-divide and bit-sort planners).
    pub sweep_passes: u64,
    /// Per-op planning profile: what the sweeps spent their time on. Op
    /// counts are always exact; nanosecond totals are nonzero only when the
    /// `plan-profile` feature is compiled in.
    pub plan_profile: PlanOpProfile,
}

impl StageTimer {
    /// A fresh, empty timer.
    pub fn new() -> Self {
        StageTimer::default()
    }

    /// Records `blocks` BSNs of `size` lines planned and routed at 1-based
    /// `level` in `elapsed` wall time. The fast paths clock a whole level
    /// at once; the reference recursion records one block per call.
    pub fn record_bsns(&mut self, level: usize, size: usize, blocks: u64, elapsed: Duration) {
        self.record_bsns_replayed(level, size, blocks, elapsed);
        self.sweep_passes += SWEEPS_PER_BSN * blocks;
    }

    /// Records `blocks` BSNs of `size` lines **replayed** from a captured
    /// plan at 1-based `level`. The replayed settings count toward
    /// [`StageTimer::switch_settings`] (they were applied to the fabric) but
    /// not toward [`StageTimer::sweep_passes`] — no planner sweep ran, which
    /// is exactly the work the cache elides.
    pub fn record_bsns_replayed(
        &mut self,
        level: usize,
        size: usize,
        blocks: u64,
        elapsed: Duration,
    ) {
        if self.levels.len() < level {
            self.levels.resize(level, LevelStats::default());
        }
        let slot = &mut self.levels[level - 1];
        slot.blocks += blocks;
        slot.nanos += elapsed.as_nanos() as u64;
        // Scatter RBN + quasisorting RBN: 2 · (size/2) · log2(size) settings
        // per block.
        self.switch_settings += blocks * (size as u64) * u64::from(log2_exact(size));
    }

    /// Records `switches` final-stage 2×2 switches set in `elapsed` wall
    /// time.
    pub fn record_final_stage(&mut self, switches: u64, elapsed: Duration) {
        self.final_switches += switches;
        self.final_nanos += elapsed.as_nanos() as u64;
        self.switch_settings += switches;
    }

    /// Folds another timer (a worker's or a forked half's) into this one.
    pub fn merge(&mut self, other: &StageTimer) {
        if self.levels.len() < other.levels.len() {
            self.levels.resize(other.levels.len(), LevelStats::default());
        }
        for (slot, o) in self.levels.iter_mut().zip(&other.levels) {
            slot.blocks += o.blocks;
            slot.nanos += o.nanos;
        }
        self.final_switches += other.final_switches;
        self.final_nanos += other.final_nanos;
        self.switch_settings += other.switch_settings;
        self.sweep_passes += other.sweep_passes;
        self.plan_profile.merge(&other.plan_profile);
    }
}

/// Aggregate instrumentation for one batch route, serializable to JSON.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Network size.
    pub n: usize,
    /// Frames in the batch.
    pub batch: usize,
    /// Worker threads actually used for frame-level parallelism.
    pub workers: usize,
    /// Whether sub-BRSMN halves recursed concurrently.
    pub parallel_halves: bool,
    /// Frames routed successfully.
    pub frames_ok: usize,
    /// Frames that returned an error (or, on the resilient path, exhausted
    /// the whole retry ladder without producing a verified result).
    pub frames_failed: usize,
    /// Frames whose primary attempt failed verification but that recovered
    /// on the reference-router retry
    /// ([`Engine::route_batch_resilient`]; always 0 on the plain paths).
    pub frames_retried: usize,
    /// Frames that recovered only via the degraded re-plan stage of the
    /// retry ladder (always 0 on the plain paths).
    pub frames_degraded: usize,
    /// Per-stage counters summed over all frames and workers.
    pub stages: StageTimer,
    /// End-to-end wall time for the whole batch, nanoseconds.
    pub wall_nanos: u64,
    /// Sum of per-frame route times, nanoseconds. `busy_nanos / wall_nanos`
    /// approximates the achieved parallel speedup.
    pub busy_nanos: u64,
    /// Frames routed on the zero-allocation fast path (0 when
    /// [`EngineConfig::use_scratch`] is off or the model forces the
    /// reference router).
    pub fastpath_frames: u64,
    /// Largest per-worker scratch-arena footprint observed, bytes (0 on the
    /// reference path).
    pub scratch_bytes: u64,
    /// Frames served by replaying a captured plan from the [`PlanCache`] —
    /// exact and canonical tiers combined (0 when
    /// [`EngineConfig::plan_cache`] is 0).
    pub plan_hits: u64,
    /// Fast-path frames that missed both cache tiers and planned fresh
    /// while capturing (equals `fastpath_frames` when the cache is cold or
    /// off).
    pub plan_misses: u64,
    /// The subset of `plan_hits` served by the exact tier (the stored
    /// assignment equalled the frame's).
    pub plan_exact_hits: u64,
    /// The subset of `plan_hits` served by the canonical tier: the frame
    /// was a *relabeling* of a cached plan's assignment, replayed through
    /// the permuted executor.
    pub plan_canonical_hits: u64,
    /// Captured plans evicted from the cache during this batch (LRU
    /// pressure across both tiers; 0 until the cache overflows its
    /// capacity).
    pub plan_evictions: u64,
    /// Resident footprint of the plan cache at the end of the batch, bytes
    /// (packed setting planes plus keys; 0 with the cache off).
    pub plan_cache_bytes: u64,
    /// Plans the cache was warm-started with from a persisted snapshot
    /// (cumulative over the cache's lifetime; 0 without
    /// `PlanCache::load_snapshot`).
    pub plan_snapshot_loaded: u64,
    /// Width, in `u64` words, of the SIMD lane blocks the fast path's
    /// plane sweeps ran on ([`brsmn_rbn::LANES`]). 0 on the reference
    /// path, whose array-based planners don't vectorize. Merges by max.
    pub simd_lane_width: u64,
    /// Frames planned in lockstep SoA chunks by the
    /// [`crate::BatchPlanner`] — a subset of `plan_misses` when the cache
    /// is on (hits keep replaying) and of `fastpath_frames` always. 0 with
    /// [`EngineConfig::batch_plan`] off, for single-frame batches, and for
    /// frames that fell back to per-frame scalar planning.
    pub batch_planned_frames: u64,
    /// Live member nodes of the distributed control plane that striped
    /// this batch (`brsmn-cluster`'s `DistributedEngine`; 0 for
    /// single-process engines). Merges by max.
    pub cluster_nodes: u64,
    /// Control-plane messages delivered so far by the cluster's virtual
    /// network (cumulative over the cluster's lifetime, like
    /// `plan_snapshot_loaded`; 0 single-process). Merges by max.
    pub cluster_messages: u64,
    /// Control-plane messages lost to simulated drops or partitions
    /// (cumulative; 0 single-process). Merges by max.
    pub cluster_messages_dropped: u64,
    /// Membership epoch the cluster had agreed on when the batch routed
    /// (0 single-process and before any reconfiguration). Merges by max.
    pub cluster_epoch: u64,
}

impl EngineStats {
    /// Frames routed per second of wall time.
    pub fn frames_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.batch as f64 * 1e9 / self.wall_nanos as f64
        }
    }

    /// `busy / wall` — effective parallelism achieved by the batch.
    pub fn speedup(&self) -> f64 {
        if self.wall_nanos == 0 {
            1.0
        } else {
            self.busy_nanos as f64 / self.wall_nanos as f64
        }
    }

    /// An empty stats record for an `n`-port fabric — the identity of
    /// [`EngineStats::merge`], for accumulating shard or round totals.
    pub fn empty(n: usize) -> Self {
        EngineStats {
            n,
            batch: 0,
            workers: 0,
            parallel_halves: false,
            frames_ok: 0,
            frames_failed: 0,
            frames_retried: 0,
            frames_degraded: 0,
            stages: StageTimer::new(),
            wall_nanos: 0,
            busy_nanos: 0,
            fastpath_frames: 0,
            scratch_bytes: 0,
            plan_hits: 0,
            plan_misses: 0,
            plan_exact_hits: 0,
            plan_canonical_hits: 0,
            plan_evictions: 0,
            plan_cache_bytes: 0,
            plan_snapshot_loaded: 0,
            simd_lane_width: 0,
            batch_planned_frames: 0,
            cluster_nodes: 0,
            cluster_messages: 0,
            cluster_messages_dropped: 0,
            cluster_epoch: 0,
        }
    }

    /// Folds another stats record (a shard's, or a later round's) into this
    /// one.
    ///
    /// Work counters (`batch`, frame outcomes, stage counters, `busy_nanos`,
    /// `fastpath_frames`, plan-cache hit/miss/eviction tallies) and
    /// `workers` add; `scratch_bytes` and `plan_cache_bytes` take the max
    /// (arenas are per worker and shards share one cache, so adding would
    /// double-count); `wall_nanos` takes the max,
    /// which is exact for shards running concurrently — drivers that know
    /// the true end-to-end wall time (e.g. [`ShardedEngine::route_batch`],
    /// the serving loop) overwrite it after merging.
    pub fn merge(&mut self, other: &EngineStats) {
        debug_assert_eq!(self.n, other.n, "merging stats across network sizes");
        self.batch += other.batch;
        self.workers += other.workers;
        self.parallel_halves |= other.parallel_halves;
        self.frames_ok += other.frames_ok;
        self.frames_failed += other.frames_failed;
        self.frames_retried += other.frames_retried;
        self.frames_degraded += other.frames_degraded;
        self.stages.merge(&other.stages);
        self.wall_nanos = self.wall_nanos.max(other.wall_nanos);
        self.busy_nanos += other.busy_nanos;
        self.fastpath_frames += other.fastpath_frames;
        self.scratch_bytes = self.scratch_bytes.max(other.scratch_bytes);
        self.plan_hits += other.plan_hits;
        self.plan_misses += other.plan_misses;
        self.plan_exact_hits += other.plan_exact_hits;
        self.plan_canonical_hits += other.plan_canonical_hits;
        self.plan_evictions += other.plan_evictions;
        self.plan_cache_bytes = self.plan_cache_bytes.max(other.plan_cache_bytes);
        // Snapshot loads are a cache-lifetime tally shared by every shard
        // holding the cache, so max (like the footprint), not sum.
        self.plan_snapshot_loaded = self.plan_snapshot_loaded.max(other.plan_snapshot_loaded);
        // The lane width is a property of the code path, not a tally.
        self.simd_lane_width = self.simd_lane_width.max(other.simd_lane_width);
        self.batch_planned_frames += other.batch_planned_frames;
        // Cluster figures are cluster-wide lifetime values (every node's
        // stats record reports the same shared control plane), so max.
        self.cluster_nodes = self.cluster_nodes.max(other.cluster_nodes);
        self.cluster_messages = self.cluster_messages.max(other.cluster_messages);
        self.cluster_messages_dropped = self
            .cluster_messages_dropped
            .max(other.cluster_messages_dropped);
        self.cluster_epoch = self.cluster_epoch.max(other.cluster_epoch);
    }
}

/// Result of routing a batch: per-frame outcomes (in input order) plus the
/// aggregated instrumentation.
#[derive(Debug, Clone)]
pub struct BatchOutput {
    /// One result per input frame, order preserved.
    pub results: Vec<Result<RoutingResult, CoreError>>,
    /// Aggregated per-stage instrumentation.
    pub stats: EngineStats,
}

/// How a frame fared on the resilient path's verify → retry → degrade
/// ladder ([`Engine::route_batch_resilient`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FrameOutcome {
    /// The primary attempt verified — the fabric behaved.
    Ok,
    /// The primary attempt failed verification; the reference-router retry
    /// produced a verified result.
    Retried,
    /// Only the degraded re-plan (faulty block avoided) produced a verified
    /// result.
    Degraded,
    /// Every stage of the ladder failed; the frame's result is an error.
    Failed,
}

/// A router that the engine can drive through its verify → retry → degrade
/// ladder ([`Engine::route_batch_resilient`]).
///
/// The three stages mirror the degradation policy of the fault-tolerance
/// subsystem: a fast primary attempt, a retry on the reference (allocating)
/// router — which clears transient upsets — and a final re-plan that avoids
/// the faulty region using the compact-sequence freedom of Lemmas 1–5
/// (rotating the scatter target `s`). Implementations that have no fault
/// mask (e.g. a healthy [`Brsmn`]) return `None` from
/// [`ResilientRouter::route_degraded`].
pub trait ResilientRouter {
    /// The primary (fast-path) attempt.
    fn route_primary(&self, asg: &MulticastAssignment) -> Result<RoutingResult, CoreError>;

    /// The retry attempt after the primary result failed verification.
    fn route_retry(&self, asg: &MulticastAssignment) -> Result<RoutingResult, CoreError>;

    /// The degraded re-plan guided by the verifier's localization; `None`
    /// when the router has no way to steer around the reported region.
    fn route_degraded(
        &self,
        asg: &MulticastAssignment,
        report: &FaultReport,
    ) -> Option<Result<RoutingResult, CoreError>>;
}

/// A healthy network is trivially resilient: the fast path is primary, the
/// reference router is the retry, and there is no fault mask to degrade
/// around. This is the zero-false-positive control of the fault campaign.
impl ResilientRouter for Brsmn {
    fn route_primary(&self, asg: &MulticastAssignment) -> Result<RoutingResult, CoreError> {
        self.route(asg)
    }

    fn route_retry(&self, asg: &MulticastAssignment) -> Result<RoutingResult, CoreError> {
        self.route_reference(asg)
    }

    fn route_degraded(
        &self,
        _asg: &MulticastAssignment,
        _report: &FaultReport,
    ) -> Option<Result<RoutingResult, CoreError>> {
        None
    }
}

/// The batched, multi-threaded BRSMN routing engine.
#[derive(Debug, Clone)]
pub struct Engine {
    net: Brsmn,
    cfg: EngineConfig,
    plan_cache: Option<Arc<PlanCache>>,
}

/// Pass-A verdict for one frame of a batched fast-path route
/// ([`Engine::route_batch_fast_batched`]).
enum FrameProbe {
    /// Replay this already-looked-up exact-tier plan.
    ExactHit(Arc<CapturedPlan>),
    /// Replay this canonical-tier plan through the permuted executor, with
    /// the composed live → plan maps pass A left at `maps` in the batch's
    /// map buffer (`2n` entries, inputs then outputs).
    CanonHit {
        plan: Arc<CapturedPlan>,
        maps: usize,
    },
    /// An earlier in-batch miss claimed this frame's fingerprint or
    /// relabeling class: route after the SoA chunks land, through the
    /// normal per-frame ladder (it then hits what the chunk inserted — or
    /// re-plans if the chunk failed, byte-identically to scalar routing).
    Deferred,
}

/// What one SoA chunk (or its scalar fallback) produced.
struct ChunkOut {
    /// `(frame index, result)` for every frame of the chunk.
    entries: Vec<(usize, Result<RoutingResult, CoreError>)>,
    /// One captured plan per frame, in `entries` order, still to be
    /// inserted into the cache; empty without a cache and for a chunk that
    /// fell back to the per-frame ladder.
    captures: Vec<CapturedPlan>,
    timer: StageTimer,
    busy_nanos: u64,
    scratch_bytes: u64,
    /// `[exact_hits, canonical_hits, misses, evictions]`.
    tallies: [u64; 4],
    batch_planned: u64,
}

impl Engine {
    /// An engine over an `n × n` BRSMN with the default (batch) config.
    pub fn new(n: usize) -> Result<Self, CoreError> {
        Engine::with_config(n, EngineConfig::default())
    }

    /// An engine with an explicit [`EngineConfig`]. When
    /// [`EngineConfig::plan_cache`] is nonzero the engine builds its own
    /// cache; use [`Engine::share_plan_cache`] to pool one across engines.
    pub fn with_config(n: usize, cfg: EngineConfig) -> Result<Self, CoreError> {
        let plan_cache = if cfg.plan_cache > 0 {
            Some(Arc::new(PlanCache::new(cfg.plan_cache)))
        } else {
            None
        };
        Ok(Engine {
            net: Brsmn::new(n)?,
            cfg,
            plan_cache,
        })
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.net.n()
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The plan cache this engine consults, if any.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.plan_cache.as_ref()
    }

    /// Replaces this engine's plan cache with a shared one (captured plans
    /// are pure functions of the assignment, so sharing across engines —
    /// e.g. the shards of a [`ShardedEngine`] — is always sound and lets one
    /// shard's capture serve another's replay).
    pub fn share_plan_cache(&mut self, cache: Arc<PlanCache>) {
        self.plan_cache = Some(cache);
    }

    /// Routes a batch of frames with the **semantic** message model.
    ///
    /// Results come back in input order and are bit-identical to calling
    /// [`Brsmn::route`] on each frame sequentially. With
    /// [`EngineConfig::use_scratch`] on (the default) and no intra-frame
    /// forking, frames run on the zero-allocation fast path, each worker
    /// reusing its thread-local arena.
    pub fn route_batch(&self, batch: &[MulticastAssignment]) -> BatchOutput {
        if self.cfg.use_scratch && !self.cfg.parallel_halves {
            self.route_batch_fast(batch)
        } else {
            self.route_batch_with(batch, |_n, src, dests| {
                SemanticMsg::new(src, dests.to_vec())
            })
        }
    }

    /// The fast-path batch driver: one thread-local [`RouteScratch`] per
    /// worker, zero heap allocation per frame after warm-up (one `Vec` per
    /// result aside). With a [`PlanCache`] configured, each frame probes
    /// two tiers: the assignment fingerprint first (an exact hit replays
    /// the captured setting planes verbatim — no planner sweeps at all),
    /// then the relabeling class by fanout profile (a canonical hit replays
    /// a class member's plan through the permuted executor, from maps the
    /// probe wrote into the scratch). A miss in both
    /// plans fresh while capturing, and inserts the capture into both
    /// tiers for the next occurrence — exact or relabeled.
    ///
    /// Multi-frame batches with [`EngineConfig::batch_plan`] on take the
    /// SoA batched driver instead, which plans all cache-miss frames in
    /// lockstep; single frames and the `--no-batch-plan` escape hatch run
    /// this per-frame loop.
    fn route_batch_fast(&self, batch: &[MulticastAssignment]) -> BatchOutput {
        if self.cfg.batch_plan && batch.len() > 1 {
            return self.route_batch_fast_batched(batch);
        }
        let n = self.net.n();
        let workers = par::effective_workers(self.cfg.workers).min(batch.len().max(1));
        let cache = self.plan_cache.as_deref();

        let wall_start = Instant::now();
        let frames = par::par_map(batch, workers, |_idx, asg| {
            let frame_start = Instant::now();
            let mut timer = StageTimer::new();
            let (result, bytes, tallies) = self.route_frame_cached(asg, &mut timer);
            (
                result,
                timer,
                frame_start.elapsed().as_nanos() as u64,
                bytes,
                tallies,
            )
        });
        let wall_nanos = wall_start.elapsed().as_nanos() as u64;

        let mut stages = StageTimer::new();
        let mut busy_nanos = 0u64;
        let mut scratch_bytes = 0u64;
        let mut results = Vec::with_capacity(frames.len());
        let (mut frames_ok, mut frames_failed) = (0usize, 0usize);
        let mut cache_tallies = [0u64; 4];
        for (result, timer, frame_nanos, bytes, tallies) in frames {
            stages.merge(&timer);
            busy_nanos += frame_nanos;
            scratch_bytes = scratch_bytes.max(bytes);
            for (acc, d) in cache_tallies.iter_mut().zip(tallies) {
                *acc += d;
            }
            match &result {
                Ok(_) => frames_ok += 1,
                Err(_) => frames_failed += 1,
            }
            results.push(result);
        }
        let [plan_exact_hits, plan_canonical_hits, plan_misses, plan_evictions] = cache_tallies;

        BatchOutput {
            results,
            stats: EngineStats {
                n,
                batch: batch.len(),
                workers,
                parallel_halves: false,
                frames_ok,
                frames_failed,
                frames_retried: 0,
                frames_degraded: 0,
                stages,
                wall_nanos,
                busy_nanos,
                fastpath_frames: batch.len() as u64,
                scratch_bytes,
                plan_hits: plan_exact_hits + plan_canonical_hits,
                plan_misses,
                plan_exact_hits,
                plan_canonical_hits,
                plan_evictions,
                plan_cache_bytes: cache.map_or(0, |c| c.footprint_bytes() as u64),
                plan_snapshot_loaded: cache.map_or(0, |c| c.stats().snapshot_loaded),
                simd_lane_width: brsmn_rbn::LANES as u64,
                batch_planned_frames: 0,
                cluster_nodes: 0,
                cluster_messages: 0,
                cluster_messages_dropped: 0,
                cluster_epoch: 0,
            },
        }
    }

    /// Routes one fast-path frame through the full per-frame ladder:
    /// exact-tier replay, then canonical-tier permuted replay, then fresh
    /// planning with capture and two-tier insertion. Returns the result,
    /// the scratch footprint in bytes, and the cache tallies
    /// `[exact_hits, canonical_hits, misses, evictions]`.
    fn route_frame_cached(
        &self,
        asg: &MulticastAssignment,
        timer: &mut StageTimer,
    ) -> (Result<RoutingResult, CoreError>, u64, [u64; 4]) {
        use crate::fastpath::{
            route_assignment_fast_buffered, route_assignment_replay_buffered,
            route_assignment_replay_permuted, with_thread_scratch,
        };
        let n = self.net.n();
        let cache = self.plan_cache.as_deref();
        let (mut exact_hit, mut canon_hit, mut miss, mut evict) = (0u64, 0u64, 0u64, 0u64);
        let (result, bytes) = with_thread_scratch(n, |scratch| {
            let r = match cache {
                None => route_assignment_fast_buffered(
                    n,
                    self.net.wiring(),
                    asg,
                    scratch,
                    None,
                    Some(timer),
                    None,
                ),
                Some(cache) => {
                    let fp = plan_fingerprint(asg);
                    if let Some(plan) = cache.lookup(fp, asg) {
                        exact_hit = 1;
                        route_assignment_replay_buffered(
                            n,
                            self.net.wiring(),
                            asg,
                            &plan,
                            scratch,
                            None,
                            Some(timer),
                        )
                    } else if let Some(plan) = cache.lookup_class(asg, scratch) {
                        canon_hit = 1;
                        route_assignment_replay_permuted(n, asg, &plan, scratch, Some(timer))
                            .map(|()| scratch.to_result())
                    } else {
                        miss = 1;
                        // The probe left the class key in the scratch.
                        let class = scratch.class_mut().key();
                        match CapturedPlan::new(n) {
                            Err(e) => Err(e),
                            Ok(mut plan) => {
                                let r = route_assignment_fast_buffered(
                                    n,
                                    self.net.wiring(),
                                    asg,
                                    scratch,
                                    None,
                                    Some(timer),
                                    Some(&mut plan),
                                );
                                if r.is_ok() {
                                    let plan = Arc::new(plan);
                                    if cache.insert(fp, asg, Arc::clone(&plan)) {
                                        evict = 1;
                                    }
                                    // The same capture seeds its whole
                                    // relabeling class.
                                    if cache.insert_class(class, asg, plan, scratch.class_mut()) {
                                        evict = 1;
                                    }
                                }
                                r
                            }
                        }
                    }
                }
            };
            (r, scratch.footprint_bytes() as u64)
        });
        (result, bytes, [exact_hit, canon_hit, miss, evict])
    }

    /// The batched fast-path driver ([`EngineConfig::batch_plan`]): probe
    /// the cache once per frame, group the misses into SoA chunks planned
    /// in lockstep by [`crate::BatchPlanner`], then serve hits by replay
    /// and deferred duplicates through the per-frame ladder. Results,
    /// hit/miss tallies and captured plans are identical to the per-frame
    /// driver's — the passes only reorder *when* each frame runs, never
    /// what it computes:
    ///
    /// * **Pass A** (sequential) classifies each frame: exact hit,
    ///   canonical hit, miss, or *deferred* — an earlier miss in this
    ///   batch already claimed the same fingerprint or relabeling class,
    ///   so probing now would miss but by pass C the chunk's insert serves
    ///   it, exactly like the sequential per-frame driver's later-frame
    ///   hits.
    /// * **Pass B** fans the misses out in chunks of up to
    ///   [`crate::MAX_BATCH_FRAMES`] frames through thread-local
    ///   [`crate::BatchPlanner`] arenas, then inserts each successful
    ///   chunk's captures into both cache tiers under the fingerprint and
    ///   class key pass A computed (the class maps are built once, at the
    ///   insert). A
    ///   chunk that fails re-routes every one of its frames through the
    ///   per-frame ladder so error values stay byte-identical to scalar
    ///   routing.
    /// * **Pass C** replays the pass-A hits — a canonical hit from the maps
    ///   its pass-A probe composed — and routes the deferred frames.
    fn route_batch_fast_batched(&self, batch: &[MulticastAssignment]) -> BatchOutput {
        use crate::batch::with_thread_batch_planner;
        use crate::fastpath::{
            route_assignment_replay_buffered, route_assignment_replay_permuted,
            with_thread_scratch,
        };
        use std::collections::HashSet;

        let n = self.net.n();
        let workers = par::effective_workers(self.cfg.workers).min(batch.len().max(1));
        let cache = self.plan_cache.as_deref();
        let wiring = self.net.wiring();
        let wall_start = Instant::now();

        // Pass A: classify every frame with at most one probe per cache
        // tier, claiming each fingerprint / relabeling class for its first
        // miss so no plan is computed twice within the batch. Each miss
        // keeps its fingerprint and class key for pass B's inserts; each
        // canonical hit parks the maps its probe composed in `canon_maps`.
        let mut probes: Vec<(usize, FrameProbe)> = Vec::new();
        let mut miss_idx: Vec<usize> = Vec::new();
        let mut miss_keys: Vec<(u64, u64)> = Vec::new();
        let mut canon_maps: Vec<u32> = Vec::new();
        match cache {
            None => miss_idx.extend(0..batch.len()),
            Some(cache) => with_thread_scratch(n, |scratch| {
                let class_scratch = scratch.class_mut();
                let mut claimed_fp: HashSet<u64> = HashSet::new();
                let mut claimed_class: HashSet<u64> = HashSet::new();
                for (i, asg) in batch.iter().enumerate() {
                    let fp = plan_fingerprint(asg);
                    if claimed_fp.contains(&fp) {
                        probes.push((i, FrameProbe::Deferred));
                        continue;
                    }
                    if let Some(plan) = cache.lookup(fp, asg) {
                        probes.push((i, FrameProbe::ExactHit(plan)));
                        continue;
                    }
                    let class = class_scratch.profile(asg);
                    if claimed_class.contains(&class) {
                        probes.push((i, FrameProbe::Deferred));
                        continue;
                    }
                    if let Some(plan) = cache.lookup_class_profiled(asg, class_scratch) {
                        let maps = canon_maps.len();
                        class_scratch.copy_maps_to(&mut canon_maps);
                        probes.push((i, FrameProbe::CanonHit { plan, maps }));
                        continue;
                    }
                    claimed_fp.insert(fp);
                    claimed_class.insert(class);
                    miss_idx.push(i);
                    miss_keys.push((fp, class));
                }
            }),
        }

        // Pass B: lockstep-plan the misses. Chunks spread across the
        // worker pool while respecting the SoA frame cap.
        let chunk_size = miss_idx
            .len()
            .div_ceil(workers.max(1))
            .clamp(1, crate::MAX_BATCH_FRAMES);
        let chunks: Vec<&[usize]> = miss_idx.chunks(chunk_size).collect();
        let mut chunk_outs = par::par_map(&chunks, workers, |_ci, chunk| {
            let chunk: &[usize] = chunk;
            let t0 = Instant::now();
            let mut timer = StageTimer::new();
            let planned = with_thread_batch_planner(n, chunk.len(), |bp| {
                let mut refs: [&MulticastAssignment; crate::MAX_BATCH_FRAMES] =
                    [&batch[0]; crate::MAX_BATCH_FRAMES];
                for (k, &i) in chunk.iter().enumerate() {
                    refs[k] = &batch[i];
                }
                let refs = &refs[..chunk.len()];
                let mut captures = Vec::new();
                if cache.is_some() {
                    captures.reserve_exact(chunk.len());
                    for _ in 0..chunk.len() {
                        captures.push(CapturedPlan::new(n)?);
                    }
                }
                let slots = cache.map(|_| captures.as_mut_slice());
                bp.route_frames(wiring, refs, &mut timer, slots)?;
                let results: Vec<Result<RoutingResult, CoreError>> =
                    (0..chunk.len()).map(|k| Ok(bp.frame_result(k))).collect();
                Ok::<_, CoreError>((results, captures, bp.footprint_bytes() as u64))
            });
            match planned {
                Ok((results, captures, bytes)) => ChunkOut {
                    entries: chunk.iter().copied().zip(results).collect(),
                    captures,
                    timer,
                    busy_nanos: t0.elapsed().as_nanos() as u64,
                    scratch_bytes: bytes,
                    // Misses are a cache statistic: without a cache there is
                    // nothing to miss (matching the per-frame driver).
                    tallies: [
                        0,
                        0,
                        if cache.is_some() { chunk.len() as u64 } else { 0 },
                        0,
                    ],
                    batch_planned: chunk.len() as u64,
                },
                Err(_) => {
                    // All-or-nothing: any frame error reroutes the whole
                    // chunk through the per-frame ladder, so each frame's
                    // result — error values included — is byte-identical
                    // to scalar routing. The partial lockstep timer is
                    // discarded to avoid double-counting.
                    let mut timer = StageTimer::new();
                    let mut entries = Vec::with_capacity(chunk.len());
                    let mut tallies = [0u64; 4];
                    let mut bytes = 0u64;
                    let mut busy = 0u64;
                    for &i in chunk {
                        let f0 = Instant::now();
                        let (result, b, t) = self.route_frame_cached(&batch[i], &mut timer);
                        busy += f0.elapsed().as_nanos() as u64;
                        bytes = bytes.max(b);
                        for (acc, d) in tallies.iter_mut().zip(t) {
                            *acc += d;
                        }
                        entries.push((i, result));
                    }
                    ChunkOut {
                        entries,
                        captures: Vec::new(),
                        timer,
                        busy_nanos: busy,
                        scratch_bytes: bytes,
                        tallies,
                        batch_planned: 0,
                    }
                }
            }
        });

        // Insert every planned capture into both cache tiers, in frame
        // order, under the keys pass A computed.
        if let Some(cache) = cache {
            with_thread_scratch(n, |scratch| {
                let mut keys = miss_keys.into_iter();
                for out in &mut chunk_outs {
                    let t0 = Instant::now();
                    let mut captures = std::mem::take(&mut out.captures).into_iter();
                    for &(i, _) in &out.entries {
                        let (fp, class) = keys.next().expect("pass A keyed every miss");
                        // A chunk that fell back to the per-frame ladder has
                        // no captures: its frames inserted their own.
                        let Some(plan) = captures.next() else {
                            continue;
                        };
                        let plan = Arc::new(plan);
                        if cache.insert(fp, &batch[i], Arc::clone(&plan)) {
                            out.tallies[3] += 1;
                        }
                        // The same capture seeds its whole relabeling class.
                        if cache.insert_class(class, &batch[i], plan, scratch.class_mut()) {
                            out.tallies[3] += 1;
                        }
                    }
                    out.busy_nanos += t0.elapsed().as_nanos() as u64;
                }
            });
        }

        // Pass C: replay the hits; deferred frames re-probe the (now
        // warmed) cache through the normal per-frame ladder.
        let hit_outs = par::par_map(&probes, workers, |_k, (i, probe)| {
            let t0 = Instant::now();
            let mut timer = StageTimer::new();
            let (result, bytes, tallies) = match probe {
                FrameProbe::ExactHit(plan) => with_thread_scratch(n, |scratch| {
                    let r = route_assignment_replay_buffered(
                        n,
                        wiring,
                        &batch[*i],
                        plan,
                        scratch,
                        None,
                        Some(&mut timer),
                    );
                    (r, scratch.footprint_bytes() as u64, [1, 0, 0, 0])
                }),
                FrameProbe::CanonHit { plan, maps } => with_thread_scratch(n, |scratch| {
                    scratch
                        .class_mut()
                        .set_maps(&canon_maps[*maps..*maps + 2 * n]);
                    let r = route_assignment_replay_permuted(
                        n,
                        &batch[*i],
                        plan,
                        scratch,
                        Some(&mut timer),
                    )
                    .map(|()| scratch.to_result());
                    (r, scratch.footprint_bytes() as u64, [0, 1, 0, 0])
                }),
                FrameProbe::Deferred => self.route_frame_cached(&batch[*i], &mut timer),
            };
            (
                *i,
                result,
                timer,
                t0.elapsed().as_nanos() as u64,
                bytes,
                tallies,
            )
        });
        let wall_nanos = wall_start.elapsed().as_nanos() as u64;

        let mut stages = StageTimer::new();
        let mut busy_nanos = 0u64;
        let mut scratch_bytes = 0u64;
        let mut cache_tallies = [0u64; 4];
        let mut batch_planned_frames = 0u64;
        let mut slots: Vec<Option<Result<RoutingResult, CoreError>>> =
            (0..batch.len()).map(|_| None).collect();
        for out in chunk_outs {
            stages.merge(&out.timer);
            busy_nanos += out.busy_nanos;
            scratch_bytes = scratch_bytes.max(out.scratch_bytes);
            for (acc, d) in cache_tallies.iter_mut().zip(out.tallies) {
                *acc += d;
            }
            batch_planned_frames += out.batch_planned;
            for (i, r) in out.entries {
                slots[i] = Some(r);
            }
        }
        for (i, result, timer, nanos, bytes, tallies) in hit_outs {
            stages.merge(&timer);
            busy_nanos += nanos;
            scratch_bytes = scratch_bytes.max(bytes);
            for (acc, d) in cache_tallies.iter_mut().zip(tallies) {
                *acc += d;
            }
            slots[i] = Some(result);
        }
        let results: Vec<Result<RoutingResult, CoreError>> = slots
            .into_iter()
            .map(|s| s.expect("every frame is routed by exactly one pass"))
            .collect();
        let (mut frames_ok, mut frames_failed) = (0usize, 0usize);
        for r in &results {
            match r {
                Ok(_) => frames_ok += 1,
                Err(_) => frames_failed += 1,
            }
        }
        let [plan_exact_hits, plan_canonical_hits, plan_misses, plan_evictions] = cache_tallies;

        BatchOutput {
            results,
            stats: EngineStats {
                n,
                batch: batch.len(),
                workers,
                parallel_halves: false,
                frames_ok,
                frames_failed,
                frames_retried: 0,
                frames_degraded: 0,
                stages,
                wall_nanos,
                busy_nanos,
                fastpath_frames: batch.len() as u64,
                scratch_bytes,
                plan_hits: plan_exact_hits + plan_canonical_hits,
                plan_misses,
                plan_exact_hits,
                plan_canonical_hits,
                plan_evictions,
                plan_cache_bytes: cache.map_or(0, |c| c.footprint_bytes() as u64),
                plan_snapshot_loaded: cache.map_or(0, |c| c.stats().snapshot_loaded),
                simd_lane_width: brsmn_rbn::LANES as u64,
                batch_planned_frames,
                cluster_nodes: 0,
                cluster_messages: 0,
                cluster_messages_dropped: 0,
                cluster_epoch: 0,
            },
        }
    }

    /// Routes a batch with the **self-routing** message model (messages
    /// reduced to `SEQ` tag streams before entering the network).
    pub fn route_batch_self_routing(&self, batch: &[MulticastAssignment]) -> BatchOutput {
        self.route_batch_with(batch, |n, src, dests| {
            SelfRoutedMsg::prepare(n, src, dests)
        })
    }

    /// Routes one frame, returning its result and instrumentation. Uses
    /// intra-network parallelism if the config enables it.
    pub fn route_one(
        &self,
        asg: &MulticastAssignment,
    ) -> (Result<RoutingResult, CoreError>, EngineStats) {
        let out = self.route_batch(std::slice::from_ref(asg));
        let mut results = out.results;
        (results.remove(0), out.stats)
    }

    /// Routes a batch through `router` with post-route verification and the
    /// graceful-degradation ladder, in parallel across the configured
    /// workers.
    ///
    /// Each frame's attempt sequence is: **primary** → verify; on failure
    /// **retry** (reference router) → verify; on failure **degraded**
    /// re-plan (if the router offers one) → verify. A frame that exhausts
    /// the ladder yields [`CoreError::Verification`] carrying the last
    /// [`FaultReport`] (or the routing error of the last attempt). The
    /// outcomes are returned per frame and rolled up into
    /// [`EngineStats::frames_retried`] / [`EngineStats::frames_degraded`] /
    /// [`EngineStats::frames_failed`]; `frames_ok` counts **verified**
    /// frames regardless of which rung delivered them.
    pub fn route_batch_resilient<R>(
        &self,
        batch: &[MulticastAssignment],
        router: &R,
    ) -> (BatchOutput, Vec<FrameOutcome>)
    where
        R: ResilientRouter + Sync,
    {
        let n = self.net.n();
        let workers = par::effective_workers(self.cfg.workers).min(batch.len().max(1));

        let wall_start = Instant::now();
        let frames = par::par_map(batch, workers, |_idx, asg| {
            let frame_start = Instant::now();
            let (result, outcome) = route_resilient_frame(asg, router);
            (result, outcome, frame_start.elapsed().as_nanos() as u64)
        });
        let wall_nanos = wall_start.elapsed().as_nanos() as u64;

        let mut busy_nanos = 0u64;
        let mut results = Vec::with_capacity(frames.len());
        let mut outcomes = Vec::with_capacity(frames.len());
        let (mut frames_ok, mut frames_failed) = (0usize, 0usize);
        let (mut frames_retried, mut frames_degraded) = (0usize, 0usize);
        for (result, outcome, frame_nanos) in frames {
            busy_nanos += frame_nanos;
            match outcome {
                FrameOutcome::Ok => frames_ok += 1,
                FrameOutcome::Retried => {
                    frames_ok += 1;
                    frames_retried += 1;
                }
                FrameOutcome::Degraded => {
                    frames_ok += 1;
                    frames_degraded += 1;
                }
                FrameOutcome::Failed => frames_failed += 1,
            }
            results.push(result);
            outcomes.push(outcome);
        }

        (
            BatchOutput {
                results,
                stats: EngineStats {
                    n,
                    batch: batch.len(),
                    workers,
                    parallel_halves: false,
                    frames_ok,
                    frames_failed,
                    frames_retried,
                    frames_degraded,
                    stages: StageTimer::new(),
                    wall_nanos,
                    busy_nanos,
                    fastpath_frames: 0,
                    scratch_bytes: 0,
                    plan_hits: 0,
                    plan_misses: 0,
                    plan_exact_hits: 0,
                    plan_canonical_hits: 0,
                    plan_evictions: 0,
                    plan_cache_bytes: 0,
                    plan_snapshot_loaded: 0,
                    simd_lane_width: 0,
                    batch_planned_frames: 0,
                    cluster_nodes: 0,
                    cluster_messages: 0,
                    cluster_messages_dropped: 0,
                    cluster_epoch: 0,
                },
            },
            outcomes,
        )
    }

    /// Shared batch driver over any payload preparation function.
    fn route_batch_with<P, F>(&self, batch: &[MulticastAssignment], prepare: F) -> BatchOutput
    where
        P: RoutePayload + Send,
        F: Fn(usize, usize, &[usize]) -> P + Sync,
    {
        let n = self.net.n();
        let workers = par::effective_workers(self.cfg.workers).min(batch.len().max(1));
        let fork_depth = if self.cfg.parallel_halves {
            self.cfg.fork_depth
        } else {
            0
        };

        let wall_start = Instant::now();
        let frames = par::par_map(batch, workers, |_idx, asg| {
            let frame_start = Instant::now();
            let mut timer = StageTimer::new();
            let result = self.route_frame(asg, fork_depth, &mut timer, &prepare);
            (result, timer, frame_start.elapsed().as_nanos() as u64)
        });
        let wall_nanos = wall_start.elapsed().as_nanos() as u64;

        let mut stages = StageTimer::new();
        let mut busy_nanos = 0u64;
        let mut results = Vec::with_capacity(frames.len());
        let (mut frames_ok, mut frames_failed) = (0usize, 0usize);
        for (result, timer, frame_nanos) in frames {
            stages.merge(&timer);
            busy_nanos += frame_nanos;
            match &result {
                Ok(_) => frames_ok += 1,
                Err(_) => frames_failed += 1,
            }
            results.push(result);
        }

        BatchOutput {
            results,
            stats: EngineStats {
                n,
                batch: batch.len(),
                workers,
                parallel_halves: fork_depth > 0,
                frames_ok,
                frames_failed,
                frames_retried: 0,
                frames_degraded: 0,
                stages,
                wall_nanos,
                busy_nanos,
                fastpath_frames: 0,
                scratch_bytes: 0,
                plan_hits: 0,
                plan_misses: 0,
                plan_exact_hits: 0,
                plan_canonical_hits: 0,
                plan_evictions: 0,
                plan_cache_bytes: 0,
                plan_snapshot_loaded: 0,
                simd_lane_width: 0,
                batch_planned_frames: 0,
                cluster_nodes: 0,
                cluster_messages: 0,
                cluster_messages_dropped: 0,
                cluster_epoch: 0,
            },
        }
    }

    /// Routes one frame end to end with instrumentation.
    fn route_frame<P, F>(
        &self,
        asg: &MulticastAssignment,
        fork_depth: usize,
        timer: &mut StageTimer,
        prepare: &F,
    ) -> Result<RoutingResult, CoreError>
    where
        P: RoutePayload + Send,
        F: Fn(usize, usize, &[usize]) -> P + Sync,
    {
        let n = self.net.n();
        assert_eq!(asg.n(), n, "assignment size mismatch");
        let lines: Vec<Line<P>> = (0..n)
            .map(|i| {
                let dests = asg.dests(i);
                if dests.is_empty() {
                    Line::empty()
                } else {
                    Line {
                        tag: Tag::Eps,
                        payload: Some(prepare(n, i, dests)),
                    }
                }
            })
            .collect();
        let out = route_block_timed(lines, 0, 1, fork_depth, timer)?;
        crate::brsmn::extract_result(out)
    }
}

/// `S` independent fabrics routing stripes of one batch concurrently.
///
/// Frame `i` of a batch goes to shard `i mod S` (round-robin striping), the
/// shards route their stripes in parallel (one scoped thread per shard, each
/// shard's [`Engine`] applying its own worker config inside), and the
/// per-frame results are reassembled in input order. Because the shards are
/// fully independent fabrics and striping never reorders frames, the output
/// is **bit-identical** to routing the same batch through a single
/// [`Engine`] — `crates/core/tests/shard_props.rs` pins this down.
///
/// Per-shard [`EngineStats`] are folded with [`EngineStats::merge`];
/// `wall_nanos` is the measured end-to-end time (so
/// [`EngineStats::frames_per_sec`] reflects the sharded throughput), while
/// `workers` sums the shards' worker counts.
///
/// # Example
///
/// ```
/// use brsmn_core::{Engine, MulticastAssignment, ShardedEngine};
///
/// let batch: Vec<MulticastAssignment> = (0..6)
///     .map(|s| {
///         let mut sets = vec![Vec::new(); 8];
///         sets[s % 8] = (0..8).collect();
///         MulticastAssignment::from_sets(8, sets).unwrap()
///     })
///     .collect();
/// let single = Engine::new(8).unwrap().route_batch(&batch);
/// let sharded = ShardedEngine::new(8, 3).unwrap().route_batch(&batch);
/// for (a, b) in single.results.iter().zip(&sharded.results) {
///     assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ShardedEngine {
    shards: Vec<Engine>,
}

impl ShardedEngine {
    /// `shards` independent fabrics of size `n`, each with the default
    /// (batch) engine config.
    pub fn new(n: usize, shards: usize) -> Result<Self, CoreError> {
        ShardedEngine::with_config(n, shards, EngineConfig::default())
    }

    /// `shards` independent fabrics, each running `cfg` internally.
    ///
    /// For a serving deployment the usual shape is `cfg.workers = 1` and
    /// parallelism purely from the shard count; `workers > 1` nests
    /// frame-level pools inside each shard.
    pub fn with_config(n: usize, shards: usize, cfg: EngineConfig) -> Result<Self, CoreError> {
        if shards == 0 {
            return Err(CoreError::Config(
                "ShardedEngine needs at least one shard".to_string(),
            ));
        }
        let mut shards = (0..shards)
            .map(|_| Engine::with_config(n, cfg))
            .collect::<Result<Vec<_>, _>>()?;
        // One cache for the whole fleet: a plan captured by any shard serves
        // replays on every shard (settings are a pure function of the
        // assignment, not of the fabric instance that planned them).
        if cfg.plan_cache > 0 {
            let shared = Arc::new(PlanCache::new(cfg.plan_cache));
            for shard in &mut shards {
                shard.share_plan_cache(Arc::clone(&shared));
            }
        }
        Ok(ShardedEngine { shards })
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.shards[0].n()
    }

    /// Number of independent fabrics.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard engine configuration.
    pub fn config(&self) -> &EngineConfig {
        self.shards[0].config()
    }

    /// The plan cache shared by every shard, if configured.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.shards[0].plan_cache()
    }

    /// Replaces every shard's plan cache with `cache`, pooling capture and
    /// replay across the fleet. The usual use is warm-starting: load a
    /// [`PlanCacheSnapshot`](crate::plancache::PlanCacheSnapshot) into a
    /// cache before serving and hand it to the engine here.
    pub fn share_plan_cache(&mut self, cache: Arc<PlanCache>) {
        for shard in &mut self.shards {
            shard.share_plan_cache(Arc::clone(&cache));
        }
    }

    /// Routes a batch striped round-robin across the shards; results come
    /// back in input order, bit-identical to a single [`Engine`].
    pub fn route_batch(&self, batch: &[MulticastAssignment]) -> BatchOutput {
        let s = self.shards.len();
        if s == 1 || batch.len() <= 1 {
            return self.shards[0].route_batch(batch);
        }

        let stripes: Vec<Vec<MulticastAssignment>> = (0..s)
            .map(|k| batch.iter().skip(k).step_by(s).cloned().collect())
            .collect();

        let wall_start = Instant::now();
        let shard_outs = par::par_map(&stripes, s, |k, stripe| {
            self.shards[k].route_batch(stripe)
        });
        let wall_nanos = wall_start.elapsed().as_nanos() as u64;

        let mut results: Vec<Option<Result<RoutingResult, CoreError>>> =
            (0..batch.len()).map(|_| None).collect();
        let mut stats = EngineStats::empty(self.n());
        for (k, out) in shard_outs.into_iter().enumerate() {
            for (j, r) in out.results.into_iter().enumerate() {
                results[k + j * s] = Some(r);
            }
            stats.merge(&out.stats);
        }
        stats.wall_nanos = wall_nanos;

        BatchOutput {
            results: results
                .into_iter()
                .map(|r| r.expect("striping covers every frame exactly once"))
                .collect(),
            stats,
        }
    }
}

/// Drives one frame through the verify → retry → degrade ladder.
fn route_resilient_frame<R: ResilientRouter>(
    asg: &MulticastAssignment,
    router: &R,
) -> (Result<RoutingResult, CoreError>, FrameOutcome) {
    // Checks one attempt: Ok(result) if it verified, Err(the error to carry
    // forward) otherwise.
    let check = |attempt: Result<RoutingResult, CoreError>| match attempt {
        Ok(r) => match verify_routing(asg, &r) {
            Ok(()) => Ok(r),
            Err(report) => Err(CoreError::Verification(report)),
        },
        Err(e) => Err(e),
    };

    let primary_failure = match check(router.route_primary(asg)) {
        Ok(r) => return (Ok(r), FrameOutcome::Ok),
        Err(e) => e,
    };

    let retry_failure = match check(router.route_retry(asg)) {
        Ok(r) => return (Ok(r), FrameOutcome::Retried),
        Err(e) => e,
    };

    // Degrading needs the verifier's localization. A routing error (e.g. a
    // fault-induced planner failure) localizes nothing, so use whichever
    // attempt produced a report, preferring the fresher retry.
    let report = [&retry_failure, &primary_failure]
        .into_iter()
        .find_map(|e| match e {
            CoreError::Verification(r) => Some(r.clone()),
            _ => None,
        });
    if let Some(report) = report {
        if let Some(degraded) = router.route_degraded(asg, &report) {
            match check(degraded) {
                Ok(r) => return (Ok(r), FrameOutcome::Degraded),
                Err(e) => return (Err(e), FrameOutcome::Failed),
            }
        }
    }
    (Err(retry_failure), FrameOutcome::Failed)
}

/// Instrumented (and optionally halves-parallel) version of the recursive
/// router in [`crate::brsmn`]. Produces exactly the same output lines: the
/// two halves compute disjoint output ranges `[lo, lo+size/2)` and
/// `[lo+size/2, lo+size)` and are concatenated in order.
fn route_block_timed<P: RoutePayload + Send>(
    lines: Vec<Line<P>>,
    lo: usize,
    level: usize,
    fork_depth: usize,
    timer: &mut StageTimer,
) -> Result<Vec<Line<P>>, CoreError> {
    let size = lines.len();
    if size == 2 {
        let t0 = Instant::now();
        let out = final_switch(lines, lo, &mut None)?;
        timer.record_final_stage(1, t0.elapsed());
        return Ok(out);
    }

    let t0 = Instant::now();
    let bsn = Bsn::new(size)?;
    let (mut out, _trace) = bsn.route_reference(lines, lo)?;
    for line in out.iter_mut() {
        if line.tag != Tag::Eps {
            let branch = line.tag;
            let payload = line.payload.take().expect("tagged line has a payload");
            line.payload = Some(payload.descend(branch, lo, size));
        }
    }
    timer.record_bsns(level, size, 1, t0.elapsed());

    let lower = out.split_off(size / 2);
    if fork_depth > 0 && size >= MIN_FORK_BLOCK {
        let (up, (down, lower_timer)) = par::join(
            || route_block_timed(out, lo, level + 1, fork_depth - 1, timer),
            || {
                let mut lt = StageTimer::new();
                let r = route_block_timed(lower, lo + size / 2, level + 1, fork_depth - 1, &mut lt);
                (r, lt)
            },
        );
        timer.merge(&lower_timer);
        let mut up = up?;
        up.extend(down?);
        Ok(up)
    } else {
        let mut up = route_block_timed(out, lo, level + 1, 0, timer)?;
        let down = route_block_timed(lower, lo + size / 2, level + 1, 0, timer)?;
        up.extend(down);
        Ok(up)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_assignment() -> MulticastAssignment {
        MulticastAssignment::from_sets(
            8,
            vec![
                vec![0, 1],
                vec![],
                vec![3, 4, 7],
                vec![2],
                vec![],
                vec![],
                vec![],
                vec![5, 6],
            ],
        )
        .unwrap()
    }

    #[test]
    fn engine_matches_sequential_router_on_paper_example() {
        let net = Brsmn::new(8).unwrap();
        let expect = net.route(&paper_assignment()).unwrap();
        for cfg in [
            EngineConfig::sequential(),
            EngineConfig::batch(4),
            EngineConfig::single_frame(3),
        ] {
            let engine = Engine::with_config(8, cfg).unwrap();
            let (result, stats) = engine.route_one(&paper_assignment());
            assert_eq!(result.unwrap(), expect);
            assert_eq!(stats.frames_ok, 1);
            assert_eq!(stats.frames_failed, 0);
        }
    }

    #[test]
    fn batch_results_keep_input_order() {
        let n = 16;
        let batch: Vec<MulticastAssignment> = (0..40)
            .map(|f| {
                let mut sets = vec![Vec::new(); n];
                sets[f % n] = vec![(f * 7) % n, (f * 7 + 1) % n]
                    .into_iter()
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .collect();
                MulticastAssignment::from_sets(n, sets).unwrap()
            })
            .collect();
        let net = Brsmn::new(n).unwrap();
        let engine = Engine::with_config(n, EngineConfig::batch(4)).unwrap();
        let out = engine.route_batch(&batch);
        assert_eq!(out.results.len(), batch.len());
        for (asg, result) in batch.iter().zip(&out.results) {
            assert_eq!(result.as_ref().unwrap(), &net.route(asg).unwrap());
        }
        assert_eq!(out.stats.frames_ok, batch.len());
    }

    #[test]
    fn self_routing_batch_agrees_with_semantic() {
        let engine = Engine::with_config(8, EngineConfig::batch(2)).unwrap();
        let batch = vec![paper_assignment(); 8];
        let sem = engine.route_batch(&batch);
        let slf = engine.route_batch_self_routing(&batch);
        for (a, b) in sem.results.iter().zip(&slf.results) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
    }

    #[test]
    fn stats_count_stages_exactly() {
        // One 8×8 frame: one 8-BSN, two 4-BSNs, four final switches.
        let engine = Engine::with_config(8, EngineConfig::sequential()).unwrap();
        let (result, stats) = engine.route_one(&paper_assignment());
        result.unwrap();
        assert_eq!(stats.stages.levels.len(), 2);
        assert_eq!(stats.stages.levels[0].blocks, 1);
        assert_eq!(stats.stages.levels[1].blocks, 2);
        assert_eq!(stats.stages.final_switches, 4);
        // Settings: 8·3 (level 1) + 2·(4·2) (level 2) + 4 (final) = 44.
        assert_eq!(stats.stages.switch_settings, 44);
        assert_eq!(stats.stages.sweep_passes, 3 * SWEEPS_PER_BSN);
        assert_eq!(stats.batch, 1);
        assert_eq!(stats.workers, 1);
    }

    #[test]
    fn stats_serialize_to_json_and_back() {
        let engine = Engine::with_config(8, EngineConfig::sequential()).unwrap();
        let (_, stats) = engine.route_one(&paper_assignment());
        let json = serde_json::to_string(&stats).unwrap();
        let back: EngineStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
        assert!(json.contains("switch_settings"));
    }

    #[test]
    fn frame_errors_are_reported_in_place() {
        // Frame 1 of 3 is fine; an engine over n=8 rejects an n=4 frame via
        // the assert, so instead build a frame that fails in routing: a
        // hand-built conflict is impossible from MulticastAssignment, so
        // check the all-ok path plus per-frame counters only.
        let engine = Engine::with_config(8, EngineConfig::batch(2)).unwrap();
        let out = engine.route_batch(&vec![paper_assignment(); 3]);
        assert_eq!(out.stats.frames_ok, 3);
        assert_eq!(out.stats.frames_failed, 0);
    }

    #[test]
    fn no_scratch_config_matches_fast_path() {
        let n = 16;
        let batch: Vec<MulticastAssignment> = (0..12)
            .map(|f| {
                let mut sets = vec![Vec::new(); n];
                sets[f % n] = (0..n).step_by(f % 3 + 1).collect();
                MulticastAssignment::from_sets(n, sets).unwrap()
            })
            .collect();
        let fast = Engine::with_config(n, EngineConfig::sequential()).unwrap();
        let slow =
            Engine::with_config(n, EngineConfig::sequential().without_scratch()).unwrap();
        let a = fast.route_batch(&batch);
        let b = slow.route_batch(&batch);
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.as_ref().unwrap(), y.as_ref().unwrap());
        }
        // The two drivers record identical work counters.
        assert_eq!(
            a.stats.stages.switch_settings,
            b.stats.stages.switch_settings
        );
        assert_eq!(a.stats.stages.sweep_passes, b.stats.stages.sweep_passes);
        assert_eq!(a.stats.fastpath_frames, batch.len() as u64);
        assert!(a.stats.scratch_bytes > 0);
        assert_eq!(b.stats.fastpath_frames, 0);
        assert_eq!(b.stats.scratch_bytes, 0);
    }

    #[test]
    fn plan_cache_hits_are_bit_identical_and_counted() {
        let n = 16;
        let distinct: Vec<MulticastAssignment> = (0..4)
            .map(|f| {
                let mut sets = vec![Vec::new(); n];
                sets[f] = (0..n).step_by(f + 1).collect();
                MulticastAssignment::from_sets(n, sets).unwrap()
            })
            .collect();
        // 4 distinct frames, each repeated 5 times.
        let batch: Vec<MulticastAssignment> = (0..20).map(|i| distinct[i % 4].clone()).collect();

        let plain = Engine::with_config(n, EngineConfig::sequential()).unwrap();
        let cached =
            Engine::with_config(n, EngineConfig::sequential().with_plan_cache(64)).unwrap();
        let a = plain.route_batch(&batch);
        let b = cached.route_batch(&batch);
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.as_ref().unwrap(), y.as_ref().unwrap());
        }
        assert_eq!(b.stats.plan_misses, 4);
        assert_eq!(b.stats.plan_hits, 16);
        assert_eq!(b.stats.plan_evictions, 0);
        assert!(b.stats.plan_cache_bytes > 0);
        assert_eq!(a.stats.plan_hits, 0);
        assert_eq!(a.stats.plan_misses, 0);
        // Replay applies the same settings but runs no planner sweeps.
        assert_eq!(
            a.stats.stages.switch_settings,
            b.stats.stages.switch_settings
        );
        assert!(b.stats.stages.sweep_passes < a.stats.stages.sweep_passes);
        // A second pass over the same batch is all hits.
        let c = cached.route_batch(&batch);
        assert_eq!(c.stats.plan_hits, 20);
        assert_eq!(c.stats.plan_misses, 0);
    }

    #[test]
    fn plan_cache_capacity_pressure_evicts_and_stays_correct() {
        let n = 16;
        // Distinct fanouts put every frame in its own relabeling class, so
        // neither the exact nor the canonical tier can absorb the churn.
        let distinct: Vec<MulticastAssignment> = (0..6)
            .map(|f| {
                let mut sets = vec![Vec::new(); n];
                sets[f] = (0..=f).map(|k| (f * 3 + k) % n).collect();
                MulticastAssignment::from_sets(n, sets).unwrap()
            })
            .collect();
        // Capacity 2 < 6 distinct frames, cycled twice: every round-trip
        // re-misses what was evicted, and results stay correct throughout.
        let cached =
            Engine::with_config(n, EngineConfig::sequential().with_plan_cache(2)).unwrap();
        let plain = Engine::with_config(n, EngineConfig::sequential()).unwrap();
        let batch: Vec<MulticastAssignment> = (0..12).map(|i| distinct[i % 6].clone()).collect();
        let a = plain.route_batch(&batch);
        let b = cached.route_batch(&batch);
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.as_ref().unwrap(), y.as_ref().unwrap());
        }
        assert!(b.stats.plan_evictions > 0);
        assert_eq!(b.stats.plan_hits + b.stats.plan_misses, 12);
        assert!(cached.plan_cache().unwrap().len() <= 2);
    }

    #[test]
    fn batch_plan_matches_per_frame_driver_and_counts() {
        let n = 16;
        // 4 distinct shapes cycled over 20 frames: duplicates exercise the
        // claim-and-defer pass, distinct frames the SoA chunks.
        let distinct: Vec<MulticastAssignment> = (0..4)
            .map(|f| {
                let mut sets = vec![Vec::new(); n];
                sets[f] = (0..n).step_by(f + 1).collect();
                MulticastAssignment::from_sets(n, sets).unwrap()
            })
            .collect();
        let batch: Vec<MulticastAssignment> = (0..20).map(|i| distinct[i % 4].clone()).collect();

        let batched = Engine::with_config(n, EngineConfig::sequential()).unwrap();
        let per_frame =
            Engine::with_config(n, EngineConfig::sequential().without_batch_plan()).unwrap();
        let a = batched.route_batch(&batch);
        let b = per_frame.route_batch(&batch);
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.as_ref().unwrap(), y.as_ref().unwrap());
        }
        // Same work, different schedule: identical stage counters either way.
        assert_eq!(
            a.stats.stages.switch_settings,
            b.stats.stages.switch_settings
        );
        assert_eq!(a.stats.stages.sweep_passes, b.stats.stages.sweep_passes);
        // Without a cache every frame of the batch plans in an SoA chunk.
        assert_eq!(a.stats.batch_planned_frames, 20);
        assert_eq!(b.stats.batch_planned_frames, 0);
        assert_eq!(a.stats.simd_lane_width, brsmn_rbn::LANES as u64);
        assert_eq!(b.stats.simd_lane_width, brsmn_rbn::LANES as u64);
        // The reference path reports no lane width at all.
        let reference =
            Engine::with_config(n, EngineConfig::sequential().without_scratch()).unwrap();
        let c = reference.route_batch(&batch);
        assert_eq!(c.stats.simd_lane_width, 0);
        assert_eq!(c.stats.batch_planned_frames, 0);

        // With a cache, only the misses are batch-planned — hits replay.
        let cached =
            Engine::with_config(n, EngineConfig::sequential().with_plan_cache(64)).unwrap();
        let cold = cached.route_batch(&batch);
        assert_eq!(cold.stats.plan_misses, 4);
        assert_eq!(cold.stats.batch_planned_frames, 4);
        let warm = cached.route_batch(&batch);
        assert_eq!(warm.stats.plan_hits, 20);
        assert_eq!(warm.stats.batch_planned_frames, 0);
    }

    #[test]
    fn sharded_engine_shares_one_plan_cache() {
        let n = 16;
        let mut sets = vec![Vec::new(); n];
        sets[3] = (0..n).collect();
        let asg = MulticastAssignment::from_sets(n, sets).unwrap();
        let batch = vec![asg; 16];
        let sharded = ShardedEngine::with_config(
            n,
            4,
            EngineConfig::sequential().with_plan_cache(32),
        )
        .unwrap();
        let out = sharded.route_batch(&batch);
        assert_eq!(out.stats.frames_ok, 16);
        // One distinct assignment: at most one capture per shard can race,
        // but the shared cache holds exactly one resident plan and at least
        // the second pass is all hits.
        assert_eq!(sharded.plan_cache().unwrap().len(), 1);
        let again = sharded.route_batch(&batch);
        assert_eq!(again.stats.plan_hits, 16);
        assert_eq!(again.stats.plan_misses, 0);
    }

    #[test]
    fn parallel_halves_match_sequential_at_n64() {
        let n = 64;
        let mut sets = vec![Vec::new(); n];
        sets[0] = (0..n).collect(); // full broadcast exercises every split
        sets[1] = vec![]; // idle
        let asg = MulticastAssignment::from_sets(n, sets).unwrap();
        let seq = Engine::with_config(n, EngineConfig::sequential()).unwrap();
        let par = Engine::with_config(n, EngineConfig::single_frame(4)).unwrap();
        let (a, _) = seq.route_one(&asg);
        let (b, _) = par.route_one(&asg);
        assert_eq!(a.unwrap(), b.unwrap());
    }
}
