//! Batched, multi-threaded routing engine with per-stage instrumentation.
//!
//! The sequential router in [`crate::brsmn`] answers "is the construction
//! correct?". This module answers "how fast can a software realization go?".
//! Distinct multicast assignments ("frames") share no state, so a batch is
//! spread across a scoped-thread worker pool ([`brsmn_rbn::par::par_map`]);
//! results are reassembled by frame index, so output order is
//! deterministic.
//!
//! The BRSMN has no central controller: every switch setting is a pure
//! function of the assignment (§3, §6). So the engine has one job per frame
//! and one path that does it, [`Engine::route_batch`]: probe the plan cache
//! and replay a hit, plan what missed both tiers in chunks (one level pass
//! per BSN level, frame after frame), then replay the frames that waited
//! for those plans. Results are
//! **bit-identical** to [`Brsmn::route`] on each frame; property tests in
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

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::assignment::{MulticastAssignment, RoutingResult};
use crate::batch::{with_thread_batch_planner, MAX_BATCH_FRAMES};
use crate::brsmn::Brsmn;
use crate::canonical::ClassScratch;
use crate::error::CoreError;
use crate::fastpath::{
    route_assignment_fast_buffered, route_assignment_replay_buffered,
    route_assignment_replay_permuted, with_thread_scratch, RouteScratch,
};
use crate::plancache::{plan_fingerprint, CapturedPlan, PlanCache};
use crate::verify::{verify_routing, FaultReport};
use brsmn_rbn::par;
use brsmn_rbn::PlanOpProfile;
use brsmn_topology::log2_exact;
use serde::{Deserialize, Serialize};

/// Planner tree sweeps per BSN: scatter (forward + backward), ε-divide
/// (forward + backward), bit sort (forward + backward).
const SWEEPS_PER_BSN: u64 = 6;

/// How many workers the [`Engine`] runs and how large its plan cache is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Worker threads for frame-level parallelism; `0` = one per hardware
    /// thread.
    pub workers: usize,
    /// Capacity (in captured plans) of the shared [`PlanCache`] consulted
    /// before planning each frame; `0` disables the cache. A hit replays
    /// the snapshotted switch-setting planes bit-identically at
    /// execution-only cost; a miss plans as usual while capturing the plan
    /// for next time. Only the semantic model consults the cache — the
    /// self-routing model always plans fresh.
    pub plan_cache: usize,
}

impl Default for EngineConfig {
    /// Frame-level parallelism on every hardware thread, no plan cache.
    fn default() -> Self {
        EngineConfig::batch(0)
    }
}

impl EngineConfig {
    /// Frame-level parallelism across `workers` threads (`0` = auto), no
    /// plan cache.
    pub fn batch(workers: usize) -> Self {
        EngineConfig {
            workers,
            plan_cache: 0,
        }
    }

    /// One worker: the engine then matches [`Brsmn::route`] frame by frame
    /// while still collecting [`EngineStats`].
    pub fn sequential() -> Self {
        EngineConfig::batch(1)
    }

    /// Enables the plan-capture cache with room for `capacity` captured
    /// plans (see [`EngineConfig::plan_cache`]; `0` disables).
    pub fn with_plan_cache(mut self, capacity: usize) -> Self {
        self.plan_cache = capacity;
        self
    }
}

/// Wall time and work counters for one BSN level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelStats {
    /// BSN blocks routed at this level (summed over the batch).
    pub blocks: u64,
    /// Wall time spent in those blocks, nanoseconds: one clock pair per
    /// level per frame — on the fresh path, the level pass that plans, runs
    /// and captures all of the level's blocks at once. On an untraced
    /// replay, level 1's time also holds the entry of the source ids into
    /// the kernel's bit planes (the transpose-in; see
    /// [`StageTimer::final_nanos`] for the way out). Per-worker times are
    /// summed, so with several workers a level can exceed elapsed wall
    /// time.
    pub nanos: u64,
}

/// Accumulates per-stage instrumentation during a route.
///
/// Each frame or batch chunk records into its own timer; [`StageTimer::merge`]
/// folds them into the batch total. Exposed so external drivers (benches,
/// the CLI) can instrument custom routing loops.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTimer {
    /// Per-level counters, index `i` = BSN level `i + 1`.
    pub levels: Vec<LevelStats>,
    /// 2×2 switches set in the final stage.
    pub final_switches: u64,
    /// Wall time in the final stage, nanoseconds — one clock pair per
    /// frame. On an untraced replay this also holds the transpose of the
    /// kernel's bit planes back into one source id per output (and, at
    /// n = 2, which has no BSN level, the transpose-in too).
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
    /// `level` in `elapsed` wall time (the planners clock a whole level at
    /// once).
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
        // Blocks of `size` lines sit log2(size) − 2 levels above the deepest
        // BSN level, so the first record sizes the rows for the whole
        // frame: one allocation per fresh timer, not one per level.
        let depth = (level + log2_exact(size) as usize)
            .saturating_sub(2)
            .max(level);
        if self.levels.len() < depth {
            self.levels.resize(depth, LevelStats::default());
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

    /// Folds another timer (a frame's or a chunk's) into this one.
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
    /// Per-stage counters summed over all frames and workers (empty on the
    /// self-routing and resilient paths, which time whole frames only).
    pub stages: StageTimer,
    /// End-to-end wall time for the whole batch, nanoseconds.
    pub wall_nanos: u64,
    /// Sum of per-frame route times, nanoseconds. `busy_nanos / wall_nanos`
    /// approximates the achieved parallel speedup.
    pub busy_nanos: u64,
    /// Frames routed on the zero-allocation fast path: every frame of
    /// [`Engine::route_batch`], none of the self-routing or resilient
    /// paths.
    pub fastpath_frames: u64,
    /// Largest per-worker arena footprint observed (route scratch or batch
    /// planner), bytes; 0 off the fast path.
    pub scratch_bytes: u64,
    /// Frames served by replaying a captured plan from the [`PlanCache`] —
    /// exact and canonical tiers combined (0 when
    /// [`EngineConfig::plan_cache`] is 0).
    pub plan_hits: u64,
    /// Frames that missed both cache tiers and planned fresh while
    /// capturing (equals `batch` when the cache is cold; 0 with the cache
    /// off).
    pub plan_misses: u64,
    /// The subset of `plan_hits` served by the exact tier (the stored
    /// assignment equalled the frame's).
    pub plan_exact_hits: u64,
    /// The subset of `plan_hits` served by the canonical tier: the frame
    /// was a *relabeling* of a cached plan's assignment, replayed through
    /// the permuted executor.
    pub plan_canonical_hits: u64,
    /// Captured plans evicted from the cache during this batch, one per
    /// evicted entry of either tier (0 until the cache overflows its
    /// capacity).
    pub plan_evictions: u64,
    /// Resident footprint of the plan cache at the end of the batch, bytes
    /// (packed setting planes plus keys; 0 with the cache off).
    pub plan_cache_bytes: u64,
    /// Plans the cache was warm-started with from a persisted snapshot
    /// (cumulative over the cache's lifetime; 0 without
    /// `PlanCache::load_snapshot`).
    pub plan_snapshot_loaded: u64,
    /// Frames planned in chunks by the [`crate::BatchPlanner`] (the level
    /// pass, frame after frame, with a capture per frame when the cache is
    /// on): every frame that missed both cache tiers (every frame with the
    /// cache off) and was the first of its relabeling class in the batch,
    /// unless a frame of its chunk failed and the chunk was re-routed one
    /// frame at a time.
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
    /// [`EngineStats::merge`], and the start of every batch's record.
    pub fn empty(n: usize) -> Self {
        EngineStats {
            n,
            batch: 0,
            workers: 0,
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
    /// `workers` add — right for shards running concurrently; a caller
    /// merging rounds that ran one after another (the serving loop) keeps
    /// the widest round's `workers` instead. `scratch_bytes` and
    /// `plan_cache_bytes` take the max (arenas are per worker and shards
    /// share one cache, so adding would double-count); `wall_nanos` takes
    /// the max, a lower bound on the end-to-end time — [`route_striped`]
    /// overwrites it with its own clock around the whole call, and the
    /// serving loop with its thread's lifetime.
    pub fn merge(&mut self, other: &EngineStats) {
        debug_assert_eq!(self.n, other.n, "merging stats across network sizes");
        self.batch += other.batch;
        self.workers += other.workers;
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

/// What probing the cache did with one frame.
enum Probe {
    /// A hit, already replayed.
    Hit(Result<RoutingResult, CoreError>),
    /// Missed both tiers: the fingerprint and class key the probe computed,
    /// for the insert of the plan that gets captured.
    Miss { fp: u64, class: u64 },
}

/// A claimed miss of [`Engine::route_batch`]: frame index, fingerprint,
/// class key.
type Claim = (usize, u64, u64);

/// The instrumentation one unit of work (a frame or a batch chunk)
/// collects, folded into the batch's [`EngineStats`].
#[derive(Default)]
struct Work {
    timer: StageTimer,
    busy_nanos: u64,
    scratch_bytes: u64,
    exact_hits: u64,
    canonical_hits: u64,
    misses: u64,
    evictions: u64,
    batch_planned: u64,
}

impl Work {
    fn fold_into(self, stats: &mut EngineStats) {
        stats.stages.merge(&self.timer);
        stats.busy_nanos += self.busy_nanos;
        stats.scratch_bytes = stats.scratch_bytes.max(self.scratch_bytes);
        stats.plan_exact_hits += self.exact_hits;
        stats.plan_canonical_hits += self.canonical_hits;
        stats.plan_misses += self.misses;
        stats.plan_evictions += self.evictions;
        stats.batch_planned_frames += self.batch_planned;
    }
}

/// Runs one unit of work with a fresh [`Work`] record, adding its wall
/// time to the record's busy time.
fn timed<R>(f: impl FnOnce(&mut Work) -> R) -> (R, Work) {
    let t0 = Instant::now();
    let mut work = Work::default();
    let out = f(&mut work);
    work.busy_nanos += t0.elapsed().as_nanos() as u64;
    (out, work)
}

/// Inserts `plan`, captured for `asg`, into both cache tiers under the
/// fingerprint and class key its probe computed — the one insert every
/// miss takes. Returns the entries evicted (one per tier at most).
fn insert_capture(
    cache: &PlanCache,
    (fp, class): (u64, u64),
    asg: &MulticastAssignment,
    plan: CapturedPlan,
    scratch: &mut ClassScratch,
) -> u64 {
    let plan = Arc::new(plan);
    let exact = cache.insert(fp, asg, Arc::clone(&plan));
    // The same capture seeds its whole relabeling class.
    let class = cache.insert_class(class, asg, plan, scratch);
    u64::from(exact) + u64::from(class)
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

    /// Routes a batch of frames with the **semantic** message model, on the
    /// zero-allocation fast path, each worker reusing its thread-local
    /// arenas. Results come back in input order and are bit-identical to
    /// calling [`Brsmn::route`] on each frame.
    ///
    /// Three passes, each spread across the workers:
    ///
    /// 1. **Probe.** With a [`PlanCache`], every frame probes the exact
    ///    tier (assignment fingerprint), then the canonical tier
    ///    (relabeling class, by fanout profile). A hit replays at once — a
    ///    canonical hit from the maps its probe left in the worker's
    ///    scratch. A miss keeps its fingerprint and class key.
    /// 2. **Plan.** In frame order, the first miss of each relabeling class
    ///    claims it. The claimed misses (every frame, without a cache) are
    ///    planned in chunks of up to [`MAX_BATCH_FRAMES`] frames by
    ///    thread-local [`crate::BatchPlanner`]s, capturing a plan per
    ///    frame; the calling thread inserts each capture into both tiers
    ///    under the keys its probe computed. A chunk that fails re-routes
    ///    its frames through the per-frame ladder, so each frame gets its
    ///    own result or error value.
    /// 3. **Deferred.** The later misses of a claimed class take the
    ///    per-frame ladder after the inserts: they hit what the chunk
    ///    inserted, or, if the chunk failed, plan again.
    ///
    /// With one worker and no eviction within the batch, results and cache
    /// tallies equal those of routing the frames one at a time.
    pub fn route_batch(&self, batch: &[MulticastAssignment]) -> BatchOutput {
        let n = self.net.n();
        let workers = par::effective_workers(self.cfg.workers).min(batch.len().max(1));
        let cache = self.plan_cache.as_deref();
        let wall_start = Instant::now();
        let mut stats = EngineStats::empty(n);

        // Pass 1: probe and replay the hits; claim the first miss of each
        // class. Equal assignments share a class, so the class claim
        // covers repeated frames too.
        let mut slots: Vec<Option<Result<RoutingResult, CoreError>>> =
            Vec::with_capacity(batch.len());
        let mut claims: Vec<Claim> = Vec::new();
        let mut deferred: Vec<usize> = Vec::new();
        match cache {
            None => {
                slots.resize_with(batch.len(), || None);
                claims.extend((0..batch.len()).map(|i| (i, 0, 0)));
            }
            Some(cache) => {
                let probes = par::par_map(batch, workers, |_, asg| {
                    timed(|work| {
                        with_thread_scratch(n, |scratch| self.probe(cache, asg, scratch, work))
                    })
                });
                let mut claimed: HashSet<u64> = HashSet::new();
                for (i, (probe, work)) in probes.into_iter().enumerate() {
                    work.fold_into(&mut stats);
                    slots.push(match probe {
                        Probe::Hit(result) => Some(result),
                        Probe::Miss { fp, class } => {
                            if claimed.insert(class) {
                                claims.push((i, fp, class));
                            } else {
                                deferred.push(i);
                            }
                            None
                        }
                    });
                }
            }
        }

        // Pass 2: plan the claimed misses in chunks spread across the
        // workers, then insert the captures in frame order.
        let chunk_len = claims.len().div_ceil(workers).clamp(1, MAX_BATCH_FRAMES);
        let chunks: Vec<&[Claim]> = claims.chunks(chunk_len).collect();
        let planned = par::par_map(&chunks, workers, |_, chunk| {
            timed(|work| self.plan_chunk(batch, chunk, work))
        });
        for (chunk, ((results, captures), work)) in chunks.iter().zip(planned) {
            work.fold_into(&mut stats);
            for (&(i, ..), result) in chunk.iter().zip(results) {
                slots[i] = Some(result);
            }
            if let Some(cache) = cache {
                let t0 = Instant::now();
                with_thread_scratch(n, |scratch| {
                    for (&(i, fp, class), plan) in chunk.iter().zip(captures) {
                        stats.plan_evictions += insert_capture(
                            cache,
                            (fp, class),
                            &batch[i],
                            plan,
                            scratch.class_mut(),
                        );
                    }
                });
                stats.busy_nanos += t0.elapsed().as_nanos() as u64;
            }
        }

        // Pass 3: the later misses of each claimed class.
        let late = par::par_map(&deferred, workers, |_, &i| {
            timed(|work| self.route_frame_cached(&batch[i], work))
        });
        for (&i, (result, work)) in deferred.iter().zip(late) {
            work.fold_into(&mut stats);
            slots[i] = Some(result);
        }

        let results: Vec<Result<RoutingResult, CoreError>> = slots
            .into_iter()
            .map(|s| s.expect("every frame is routed by exactly one pass"))
            .collect();
        stats.wall_nanos = wall_start.elapsed().as_nanos() as u64;
        stats.batch = batch.len();
        stats.workers = workers;
        stats.frames_ok = results.iter().filter(|r| r.is_ok()).count();
        stats.frames_failed = batch.len() - stats.frames_ok;
        stats.fastpath_frames = batch.len() as u64;
        stats.plan_hits = stats.plan_exact_hits + stats.plan_canonical_hits;
        if let Some(cache) = cache {
            stats.plan_cache_bytes = cache.footprint_bytes() as u64;
            stats.plan_snapshot_loaded = cache.stats().snapshot_loaded;
        }
        BatchOutput { results, stats }
    }

    /// Probes both cache tiers for `asg` and replays a hit at once: an
    /// exact hit verbatim, a canonical hit through the permuted executor
    /// from the maps the class probe left in `scratch`.
    fn probe(
        &self,
        cache: &PlanCache,
        asg: &MulticastAssignment,
        scratch: &mut RouteScratch,
        work: &mut Work,
    ) -> Probe {
        let n = self.net.n();
        let fp = plan_fingerprint(asg);
        let timer = Some(&mut work.timer);
        let result = if let Some(plan) = cache.lookup(fp, asg) {
            work.exact_hits += 1;
            route_assignment_replay_buffered(n, asg, &plan, scratch, None, timer)
        } else if let Some(plan) = cache.lookup_class(asg, scratch) {
            work.canonical_hits += 1;
            route_assignment_replay_permuted(n, asg, &plan, scratch, timer)
                .map(|()| scratch.to_result())
        } else {
            // The class probe left the key in the scratch.
            let class = scratch.class_mut().key();
            return Probe::Miss { fp, class };
        };
        work.scratch_bytes = work.scratch_bytes.max(scratch.footprint_bytes() as u64);
        Probe::Hit(result)
    }

    /// Routes one frame through the per-frame ladder: probe and replay a
    /// hit, else plan with the level pass — capturing the plan and
    /// inserting it into both tiers when a cache is on.
    fn route_frame_cached(
        &self,
        asg: &MulticastAssignment,
        work: &mut Work,
    ) -> Result<RoutingResult, CoreError> {
        let n = self.net.n();
        with_thread_scratch(n, |scratch| {
            // A miss plans with capture, for the keys its probe computed.
            let mut capture = match self.plan_cache.as_deref() {
                None => None,
                Some(cache) => match self.probe(cache, asg, scratch, work) {
                    Probe::Hit(result) => return result,
                    Probe::Miss { fp, class } => {
                        work.misses += 1;
                        Some((cache, (fp, class), CapturedPlan::new(n)?))
                    }
                },
            };
            let r = route_assignment_fast_buffered(
                n,
                asg,
                scratch,
                None,
                Some(&mut work.timer),
                capture.as_mut().map(|(.., plan)| plan),
            );
            work.scratch_bytes = work.scratch_bytes.max(scratch.footprint_bytes() as u64);
            let r = r?;
            if let Some((cache, keys, plan)) = capture {
                work.evictions += insert_capture(cache, keys, asg, plan, scratch.class_mut());
            }
            Ok(r)
        })
    }

    /// Plans one chunk of claimed misses through this worker's
    /// [`crate::BatchPlanner`], capturing a plan per frame when a cache is
    /// on; returns the results and the captures still to insert. A chunk
    /// that fails re-routes each of its frames through the per-frame
    /// ladder, whose plans insert themselves, and returns no captures.
    fn plan_chunk(
        &self,
        batch: &[MulticastAssignment],
        chunk: &[Claim],
        work: &mut Work,
    ) -> (Vec<Result<RoutingResult, CoreError>>, Vec<CapturedPlan>) {
        let n = self.net.n();
        let capture = self.plan_cache.is_some();
        let planned = with_thread_batch_planner(n, chunk.len(), |bp| {
            let mut refs = [&batch[0]; MAX_BATCH_FRAMES];
            for (slot, &(i, ..)) in refs.iter_mut().zip(chunk) {
                *slot = &batch[i];
            }
            let mut captures = Vec::new();
            if capture {
                captures.reserve_exact(chunk.len());
                for _ in chunk {
                    captures.push(CapturedPlan::new(n)?);
                }
            }
            let slots = capture.then_some(captures.as_mut_slice());
            bp.route_frames(
                self.net.wiring(),
                &refs[..chunk.len()],
                &mut work.timer,
                slots,
            )?;
            work.scratch_bytes = bp.footprint_bytes() as u64;
            let results = (0..chunk.len()).map(|k| Ok(bp.frame_result(k))).collect();
            Ok::<_, CoreError>((results, captures))
        });
        match planned {
            Ok(out) => {
                work.batch_planned = chunk.len() as u64;
                // Misses are a cache statistic: without a cache there is
                // nothing to miss.
                if capture {
                    work.misses = chunk.len() as u64;
                }
                out
            }
            Err(_) => {
                // The partial chunk's counters are dropped so no frame's
                // stages count twice.
                work.timer = StageTimer::new();
                let results = chunk
                    .iter()
                    .map(|&(i, ..)| self.route_frame_cached(&batch[i], work))
                    .collect();
                (results, Vec::new())
            }
        }
    }

    /// Routes a batch with the **self-routing** message model: each frame
    /// through [`Brsmn::route_self_routing`], the paper's distributed
    /// oracle (messages reduced to `SEQ` tag streams, every switch set from
    /// stream heads alone), across the workers. It consults no cache and
    /// times whole frames only (`stages` stays empty).
    pub fn route_batch_self_routing(&self, batch: &[MulticastAssignment]) -> BatchOutput {
        let (results, mut stats) = self.route_each(batch, |asg| self.net.route_self_routing(asg));
        stats.frames_ok = results.iter().filter(|r| r.is_ok()).count();
        stats.frames_failed = batch.len() - stats.frames_ok;
        BatchOutput { results, stats }
    }

    /// Routes one frame, returning its result and instrumentation.
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
        let (frames, mut stats) = self.route_each(batch, |asg| route_resilient_frame(asg, router));
        let (results, outcomes): (Vec<_>, Vec<_>) = frames.into_iter().unzip();
        for outcome in &outcomes {
            match outcome {
                FrameOutcome::Ok => stats.frames_ok += 1,
                FrameOutcome::Retried => {
                    stats.frames_ok += 1;
                    stats.frames_retried += 1;
                }
                FrameOutcome::Degraded => {
                    stats.frames_ok += 1;
                    stats.frames_degraded += 1;
                }
                FrameOutcome::Failed => stats.frames_failed += 1,
            }
        }
        (BatchOutput { results, stats }, outcomes)
    }

    /// Runs `route` on every frame across the workers, in input order,
    /// timing each: the loop behind the oracle paths, which keep no cache
    /// and no stage counters. The stats hold the batch shape and times;
    /// the caller tallies the outcomes.
    fn route_each<T: Send>(
        &self,
        batch: &[MulticastAssignment],
        route: impl Fn(&MulticastAssignment) -> T + Sync,
    ) -> (Vec<T>, EngineStats) {
        let workers = par::effective_workers(self.cfg.workers).min(batch.len().max(1));
        let wall_start = Instant::now();
        let frames = par::par_map(batch, workers, |_, asg| {
            let t0 = Instant::now();
            (route(asg), t0.elapsed().as_nanos() as u64)
        });
        let mut stats = EngineStats::empty(self.net.n());
        stats.wall_nanos = wall_start.elapsed().as_nanos() as u64;
        stats.batch = batch.len();
        stats.workers = workers;
        let outs = frames
            .into_iter()
            .map(|(out, nanos)| {
                stats.busy_nanos += nanos;
                out
            })
            .collect();
        (outs, stats)
    }
}

/// `S` independent fabrics routing stripes of one batch concurrently.
///
/// [`ShardedEngine::route_batch`] stripes a batch across the shards with
/// [`route_striped`], each shard's [`Engine`] applying its own worker
/// config inside. Because the shards are fully independent fabrics and
/// striping never reorders frames, the output is **bit-identical** to
/// routing the same batch through a single [`Engine`] —
/// `crates/core/tests/shard_props.rs` pins this down. The stats follow
/// the striper's rule: `workers` sums the busy shards' counts, and
/// `wall_nanos` is the striper's clock around the whole call.
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

    /// Routes a batch striped round-robin across the shards
    /// ([`route_striped`]); results come back in input order, bit-identical
    /// to a single [`Engine`].
    pub fn route_batch(&self, batch: &[MulticastAssignment]) -> BatchOutput {
        route_striped(self.n(), &self.shards, batch, Engine::route_batch)
    }
}

/// Routes `batch` striped round-robin across `routers`: the one striping
/// policy of every fleet — [`ShardedEngine`], `brsmn-cluster`'s `Cluster`
/// and `brsmn-serve`'s fabric. Every BRSMN setting is a pure function of
/// the assignment (§3, §6), so which router routes a frame never moves a
/// result bit.
///
/// With `s = min(routers, frames)` stripes, frame `i` goes to
/// `route(&routers[i mod s], stripe)`, so no router gets an empty stripe.
/// The stripes run on [`par::par_map`] threads and their results come back
/// in input order; one stripe goes straight to its router, with no copy
/// and no thread. The stripes' stats fold through [`EngineStats::merge`],
/// so `workers` sums the stripes' own counts (0 for an empty batch), and
/// `wall_nanos` is this call's clock, so [`EngineStats::frames_per_sec`]
/// reflects the striped throughput.
///
/// # Panics
///
/// If `routers` is empty while `batch` is not, or a router returns a result
/// count other than its stripe's length.
pub fn route_striped<R: Sync>(
    n: usize,
    routers: &[R],
    batch: &[MulticastAssignment],
    route: impl Fn(&R, &[MulticastAssignment]) -> BatchOutput + Sync,
) -> BatchOutput {
    assert!(
        !routers.is_empty() || batch.is_empty(),
        "no router to stripe the batch across"
    );
    let wall_start = Instant::now();
    let s = routers.len().min(batch.len());
    let mut out = match s {
        0 => BatchOutput {
            results: Vec::new(),
            stats: EngineStats::empty(n),
        },
        1 => route(&routers[0], batch),
        _ => {
            let stripes: Vec<Vec<MulticastAssignment>> = (0..s)
                .map(|k| batch.iter().skip(k).step_by(s).cloned().collect())
                .collect();
            let outs = par::par_map(&stripes, s, |k, stripe| route(&routers[k], stripe));
            let mut stats = EngineStats::empty(n);
            let mut lanes = Vec::with_capacity(s);
            for (stripe, out) in stripes.iter().zip(outs) {
                assert_eq!(
                    out.results.len(),
                    stripe.len(),
                    "a router answers every frame of its stripe"
                );
                stats.merge(&out.stats);
                lanes.push(out.results.into_iter());
            }
            // Frame i is the next unreturned result of stripe i mod s.
            let mut results = Vec::with_capacity(batch.len());
            for i in 0..batch.len() {
                results.extend(lanes[i % s].next());
            }
            BatchOutput { results, stats }
        }
    };
    out.stats.wall_nanos = wall_start.elapsed().as_nanos() as u64;
    out
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
        for cfg in [EngineConfig::sequential(), EngineConfig::batch(4)] {
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
    fn batch_matches_frames_routed_one_at_a_time() {
        let n = 16;
        // 4 distinct shapes cycled over 20 frames: duplicates exercise the
        // claim-and-defer pass, distinct frames the batch chunks.
        let distinct: Vec<MulticastAssignment> = (0..4)
            .map(|f| {
                let mut sets = vec![Vec::new(); n];
                sets[f] = (0..n).step_by(f + 1).collect();
                MulticastAssignment::from_sets(n, sets).unwrap()
            })
            .collect();
        let batch: Vec<MulticastAssignment> = (0..20).map(|i| distinct[i % 4].clone()).collect();
        let net = Brsmn::new(n).unwrap();

        // Without a cache every frame of the batch plans in a chunk, and
        // the results are the router's.
        let plain = Engine::with_config(n, EngineConfig::sequential()).unwrap();
        let a = plain.route_batch(&batch);
        for (asg, got) in batch.iter().zip(&a.results) {
            assert_eq!(got.as_ref().unwrap(), &net.route(asg).unwrap());
        }
        assert_eq!(a.stats.batch_planned_frames, 20);
        assert_eq!(a.stats.fastpath_frames, 20);
        assert!(a.stats.scratch_bytes > 0);

        // With a cache, only the first miss of each class is batch-planned
        // and the tallies are those of a twin engine fed one frame at a
        // time; a warm pass replays everything.
        let cfg = EngineConfig::sequential().with_plan_cache(64);
        let cached = Engine::with_config(n, cfg).unwrap();
        let twin = Engine::with_config(n, cfg).unwrap();
        let cold = cached.route_batch(&batch);
        let mut one_at_a_time = EngineStats::empty(n);
        for asg in &batch {
            let (result, stats) = twin.route_one(asg);
            assert!(result.is_ok());
            one_at_a_time.merge(&stats);
        }
        for (x, y) in a.results.iter().zip(&cold.results) {
            assert_eq!(x.as_ref().unwrap(), y.as_ref().unwrap());
        }
        assert_eq!(cold.stats.plan_misses, 4);
        assert_eq!(cold.stats.batch_planned_frames, 4);
        for (name, got, want) in [
            (
                "exact hits",
                cold.stats.plan_exact_hits,
                one_at_a_time.plan_exact_hits,
            ),
            (
                "canonical hits",
                cold.stats.plan_canonical_hits,
                one_at_a_time.plan_canonical_hits,
            ),
            ("misses", cold.stats.plan_misses, one_at_a_time.plan_misses),
            (
                "switch settings",
                cold.stats.stages.switch_settings,
                one_at_a_time.stages.switch_settings,
            ),
            (
                "sweep passes",
                cold.stats.stages.sweep_passes,
                one_at_a_time.stages.sweep_passes,
            ),
        ] {
            assert_eq!(got, want, "{name}");
        }
        let warm = cached.route_batch(&batch);
        assert_eq!(warm.stats.plan_hits, 20);
        assert_eq!(warm.stats.batch_planned_frames, 0);
    }

    #[test]
    fn striper_deals_round_robin_and_merges_in_input_order() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Mutex;

        let n = 8;
        // Frame i has source i alone, so every frame names itself.
        let frame = |i: usize| {
            let mut sets = vec![Vec::new(); n];
            sets[i] = vec![i];
            MulticastAssignment::from_sets(n, sets).unwrap()
        };
        let source = |asg: &MulticastAssignment| (0..n).find(|&i| !asg.dests(i).is_empty());
        let spin = Duration::from_millis(2);
        for shards in 1..=4usize {
            for len in [0, 1, shards - 1, shards, shards + 1] {
                let ctx = format!("{len} frames on {shards} routers");
                let batch: Vec<MulticastAssignment> = (0..len).map(frame).collect();
                let seen: Vec<Mutex<Vec<usize>>> = (0..shards).map(|_| Mutex::default()).collect();
                let longest = AtomicU64::new(0);
                let routers: Vec<usize> = (0..shards).collect();
                // A fake router: fails the frames with an odd source, spins a
                // fixed time, and reports no wall time of its own.
                let out = route_striped(n, &routers, &batch, |&k, stripe| {
                    let t0 = Instant::now();
                    let mut stats = EngineStats::empty(n);
                    let results: Vec<Result<RoutingResult, CoreError>> = stripe
                        .iter()
                        .map(|asg| {
                            let i = source(asg).unwrap();
                            seen[k].lock().unwrap().push(i);
                            if i % 2 == 1 {
                                Err(CoreError::Config(format!("frame {i}")))
                            } else {
                                Ok(RoutingResult::new(vec![Some(i)]))
                            }
                        })
                        .collect();
                    stats.batch = stripe.len();
                    stats.workers = 1;
                    stats.frames_ok = results.iter().filter(|r| r.is_ok()).count();
                    stats.frames_failed = stripe.len() - stats.frames_ok;
                    while t0.elapsed() < spin {}
                    longest.fetch_max(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    BatchOutput { results, stats }
                });

                let s = shards.min(len);
                for (k, seen) in seen.iter().enumerate() {
                    let want: Vec<usize> = (k..len).step_by(s.max(1)).collect();
                    assert_eq!(*seen.lock().unwrap(), want, "router {k}, {ctx}");
                }
                assert_eq!(out.results.len(), len, "{ctx}");
                for (i, result) in out.results.iter().enumerate() {
                    let want = if i % 2 == 1 {
                        Err(CoreError::Config(format!("frame {i}")))
                    } else {
                        Ok(RoutingResult::new(vec![Some(i)]))
                    };
                    assert_eq!(result, &want, "frame {i}, {ctx}");
                }
                assert_eq!(out.stats.batch, len, "{ctx}");
                assert_eq!(out.stats.workers, s, "{ctx}");
                assert_eq!(out.stats.frames_ok, len.div_ceil(2), "{ctx}");
                assert_eq!(out.stats.frames_failed, len / 2, "{ctx}");
                assert!(
                    out.stats.wall_nanos >= longest.load(Ordering::Relaxed),
                    "{ctx}: wall {} ns",
                    out.stats.wall_nanos
                );
            }
        }
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
}
