//! Plan capture and replay: route an assignment once, snapshot every switch
//! setting the planner chose, and replay the snapshot for every later frame
//! carrying the same assignment — no sweeps, no planning, no allocation.
//!
//! # Why settings are assignment-pure
//!
//! The network is *self-routing* (Section 6, Tables 3–6): every switch
//! setting is computed bottom-up from the tag/`SEQ` words of the messages
//! entering its block, and those words are a pure function of the
//! destination-address sets — nothing else (no timestamps, no arrival
//! order, no global state). Two frames with equal [`MulticastAssignment`]s
//! therefore drive every 2×2 switch of every level to the *same* setting,
//! which is what makes capturing the full per-level/per-stage setting tensor
//! once and replaying it bit-identically sound.
//!
//! # Data flow: two lookup tiers
//!
//! ```text
//! assignment ──(plan_fingerprint: order-independent fold over the
//! │             per-input words SEQ derives from, Eqs. 11–12)──► u64 key
//! │
//! ├─ exact hit ──► exact shard (read lock + LRU stamp bump) ──► Arc<CapturedPlan>
//! │                └─► replay: the source-id kernel runs the 2-bit planes
//! │                    stage by stage across each level's blocks — bit-
//! │                    identical result (the traced replay also rebuilds
//! │                    the trace and settings table)
//! ├─ exact miss ──► fanout profile (crate::canonical): one counting pass
//! │   │             over the CSR offsets ──► (fanout, count) runs + u64 key
//! │   ├─ canonical hit ──► canonical shard (runs compared) ──►
//! │   │                    Arc<CapturedPlan>; a counting sort writes the
//! │   │                    live→plan maps into scratch, composed with the
//! │   │                    entry's stored inverse maps; the same kernel on
//! │   │                    permuted source ids — result bit-identical to
//! │   │                    fresh planning of the live assignment
//! │   └─ canonical miss ──► fast-path planner (fused sweeps) with capture
//! │                         hooks ──► CapturedPlan arena inserted into
//! │                         *both* tiers (full-equality checked in each)
//! └─ snapshot ──► serialize every exact-tier (assignment, plan) pair;
//!                 loading re-inserts each pair into both tiers, so a
//!                 restarted engine replays its working set on first sight
//! ```
//!
//! Both kinds of hit perform **zero** heap allocations (pinned by the
//! `alloc-count` test in `brsmn-bench`): the fingerprint is an arithmetic
//! fold, the shard probe takes a shared read lock, the LRU stamp is an
//! atomic store, and the plan travels as an [`Arc`] clone. A canonical hit
//! ([`PlanCache::lookup_class`] then
//! [`Brsmn::route_replay_permuted_into`](crate::Brsmn::route_replay_permuted_into))
//! adds `O(n)` arithmetic on the thread's [`RouteScratch`]: the profile
//! count, the runs compare, and the counting-sort maps. It never builds a
//! canonical assignment; the tier stores none.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};

use crate::assignment::MulticastAssignment;
use crate::canonical::{
    invert_permutation, profile_key, runs_of_canonical, Canonicalized, ClassScratch,
};
use crate::error::CoreError;
use crate::fastpath::RouteScratch;
use brsmn_rbn::{PackedSettings, PackedStages};
use brsmn_topology::{check_size, log2_exact};
use serde::{Deserialize, Serialize};

/// splitmix64 finalizer — the mixing primitive of the fingerprint and of
/// the fanout-profile key.
#[inline]
pub(crate) fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Canonical fingerprint of a multicast assignment, computed from `(input,
/// destination-set)` pairs supplied **in any order**.
///
/// Each pair hashes to one word (inputs with empty destination sets
/// contribute nothing), and the per-input words are folded with two
/// commutative reductions (wrapping sum and xor), so the result is
/// independent of iteration order — the property the plan-cache proptests
/// pin. The per-input word is exactly the data the paper's `SEQ` words
/// (Eqs. 11–12) are derived from — `SEQ(n, I_i)` is a pure function of
/// `(n, i, I_i)` — so equal fingerprint inputs mean equal wire-level
/// routing requests. Collisions are still possible (it is a 64-bit hash);
/// [`PlanCache::lookup`] guards every hit with a full-equality check.
pub fn fingerprint_inputs<'a, I>(n: usize, inputs: I) -> u64
where
    I: IntoIterator<Item = (usize, &'a [usize])>,
{
    let mut sum = 0u64;
    let mut xor = 0u64;
    for (i, dests) in inputs {
        if dests.is_empty() {
            continue;
        }
        let mut h = mix(i as u64 ^ 0x9E37_79B9_7F4A_7C15);
        h = mix(h ^ dests.len() as u64);
        for &d in dests {
            h = mix(h ^ d as u64);
        }
        sum = sum.wrapping_add(h);
        xor ^= h;
    }
    mix(sum ^ xor.rotate_left(32) ^ (n as u64).wrapping_mul(0xA24B_AED4_963E_E407))
}

/// [`fingerprint_inputs`] over an assignment's canonical iteration — the key
/// under which the engines cache captured plans. Allocation-free.
pub fn plan_fingerprint(asg: &MulticastAssignment) -> u64 {
    fingerprint_inputs(asg.n(), asg.iter())
}

/// A captured routing plan: every switch setting the fast-path planner chose
/// for one assignment, bit-packed (2 bits per setting) into **one**
/// contiguous allocation.
///
/// Layout, in setting index order: for each BSN level `ℓ = 1 … m−1` (block
/// size `s = n >> (ℓ−1)`, `k = log₂ s` stages), the scatter phase's `k`
/// stage planes of `n/2` settings each, then the quasisort phase's `k`
/// planes; finally the `n/2` settings of the last 2×2 stage. Stage planes
/// are full network width — the blocks of a level tile `[0, n/2)`, so a
/// level's capture stores each of its stage planes whole.
///
/// For `n = 256` the whole tensor is 9,088 settings ≈ 2.3 KB.
///
/// Serializes as the raw `(n, packed planes)` pair — the 2-bit setting
/// codes are pinned by `brsmn_rbn::setting_code`, which is what makes a
/// persisted plan portable across processes. A deserialized plan is only
/// trusted after [`PlanCache::load_snapshot`]'s consistency checks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CapturedPlan {
    n: usize,
    planes: PackedSettings,
}

/// Phase index of the scatter RBN within a level's capture region.
pub(crate) const PHASE_SCATTER: usize = 0;
/// Phase index of the quasisort RBN within a level's capture region.
pub(crate) const PHASE_QUASISORT: usize = 1;

impl CapturedPlan {
    /// An all-parallel plan (every code 0) sized for an `n × n` network,
    /// ready to be filled by a capture pass.
    pub fn new(n: usize) -> Result<Self, CoreError> {
        check_size(n)?;
        Ok(CapturedPlan {
            n,
            planes: PackedSettings::with_len(Self::total_settings(n)),
        })
    }

    /// Network size this plan was captured for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total number of settings in the tensor for an `n × n` network.
    fn total_settings(n: usize) -> usize {
        let m = log2_exact(n) as usize;
        // Levels 1..m−1 store 2 phases × (m−ℓ+1) stages × n/2 switches, the
        // final stage stores n/2.
        let levels: usize = (1..m).map(|l| 2 * (m - l + 1) * (n / 2)).sum();
        levels + n / 2
    }

    /// Offset of the first setting of `(level, phase)`.
    pub(crate) fn phase_offset(&self, level: usize, phase: usize) -> usize {
        let m = log2_exact(self.n) as usize;
        debug_assert!((1..m).contains(&level) && phase < 2);
        let before: usize = (1..level).map(|l| 2 * (m - l + 1) * (self.n / 2)).sum();
        before + phase * (m - level + 1) * (self.n / 2)
    }

    /// Offset of the final-stage settings.
    pub(crate) fn final_offset(&self) -> usize {
        Self::total_settings(self.n) - self.n / 2
    }

    /// Captures the freshly planned stages `[0, m − level + 1)` of `(level,
    /// phase)` from the live table, every block of the level at once: the
    /// level pass plans a phase for all blocks before it runs any, so each
    /// stage plane is copied whole, word by word (code by code only when
    /// `n < 64`, where a plane is shorter than a word).
    pub(crate) fn store_phase(&mut self, level: usize, phase: usize, settings: &PackedStages) {
        let (m, half) = (log2_exact(self.n) as usize, self.n / 2);
        let off = self.phase_offset(level, phase);
        for j in 0..=m - level {
            self.planes
                .store_codes(off + j * half, half, settings.stage(j));
        }
    }

    /// Restores the stages `[0, m − level + 1)` of `(level, phase)` into the
    /// live table, every block of the level at once — the traced replay's
    /// inverse of [`CapturedPlan::store_phase`].
    pub(crate) fn load_phase(&self, level: usize, phase: usize, settings: &mut PackedStages) {
        let (m, half) = (log2_exact(self.n) as usize, self.n / 2);
        let off = self.phase_offset(level, phase);
        for j in 0..=m - level {
            self.planes
                .load_codes(off + j * half, half, settings.stage_mut(j));
        }
    }

    /// The packed setting tensor — the replay kernel reads its words
    /// directly, one full-width stage plane at a time.
    #[inline]
    pub(crate) fn planes(&self) -> &PackedSettings {
        &self.planes
    }

    /// Records the final-stage codes of output pairs `32w … 32w + 31`
    /// (those below `n/2`), packed like a stage plane's word `w`.
    pub(crate) fn set_final_codes(&mut self, w: usize, codes: u64) {
        let pairs = (self.n / 2 - 32 * w).min(32);
        self.planes
            .store_codes(self.final_offset() + 32 * w, pairs, &[codes]);
    }

    /// The captured final-stage codes of output pairs `32w … 32w + 31`,
    /// packed like a stage plane's word `w`; codes past `n/2` read 0.
    pub(crate) fn final_codes(&self, w: usize) -> u64 {
        let mut codes = [0u64];
        let pairs = (self.n / 2 - 32 * w).min(32);
        self.planes
            .load_codes(self.final_offset() + 32 * w, pairs, &mut codes);
        codes[0]
    }

    /// Heap bytes held by the packed arena.
    pub fn footprint_bytes(&self) -> usize {
        self.planes.footprint_bytes()
    }

    /// `true` when a (possibly deserialized) plan is internally consistent:
    /// `n` is a valid network size, the arena holds exactly the setting
    /// tensor for `n`, and the packed words are sized for it. Replaying a
    /// plan that fails this check could index out of bounds.
    fn is_consistent(&self) -> bool {
        check_size(self.n).is_ok()
            && self.planes.len() == Self::total_settings(self.n)
            && self.planes.invariants_ok()
    }
}

/// One cached plan: the fingerprint, the full assignment for the
/// collision-proofing equality check, the shared plan, its LRU stamp, and
/// its footprint (fixed at insert, so [`PlanCache::footprint_bytes`] never
/// walks the stored assignments).
#[derive(Debug)]
struct Entry {
    fp: u64,
    asg: MulticastAssignment,
    plan: Arc<CapturedPlan>,
    stamp: AtomicU64,
    bytes: usize,
}

/// One canonical-tier entry: the class key, the fanout profile (`n` and
/// the runs — the equality guard, as strong as comparing canonical
/// representatives), the canonical-position → plan-position maps (inverses
/// of the *stored member's* live → canonical maps, inputs then outputs),
/// the member's plan, the LRU stamp, and the footprint fixed at insert.
#[derive(Debug)]
struct CanonEntry {
    key: u64,
    n: usize,
    runs: Box<[(u32, u32)]>,
    from_canon: Box<[u32]>,
    plan: Arc<CapturedPlan>,
    stamp: AtomicU64,
    bytes: usize,
}

impl CanonEntry {
    fn is_class(&self, key: u64, n: usize, runs: &[(u32, u32)]) -> bool {
        self.key == key && self.n == n && *self.runs == *runs
    }
}

/// One shard: a small linear-probed entry list with its own capacity slice.
#[derive(Debug)]
struct Shard<E> {
    cap: usize,
    entries: Vec<E>,
}

/// A canonical-tier hit: the stored member's plan plus the composed
/// live → plan-space permutations, ready for the permuted replay executor.
#[derive(Debug, Clone)]
pub struct CanonicalHit {
    /// The captured plan of the class's stored representative member.
    pub plan: Arc<CapturedPlan>,
    /// Live input `i` enters the plan at position `input_map[i]`.
    pub input_map: Vec<usize>,
    /// Live output `d` reads the plan's delivery at position
    /// `output_map[d]`.
    pub output_map: Vec<usize>,
}

/// Cumulative counters of a [`PlanCache`], readable at any time without
/// locking the shards. Each tier counts its own lookups: an engine frame
/// that replays canonically shows up as one `exact_misses` *and* one
/// `canonical_hits` (the exact tier is always probed first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Exact-tier lookups that returned a plan (fingerprint *and* full
    /// assignment matched).
    pub exact_hits: u64,
    /// Exact-tier lookups that found nothing (or a fingerprint collision).
    pub exact_misses: u64,
    /// Canonical-tier lookups that returned a plan (class key *and* the
    /// fanout profile's runs matched).
    pub canonical_hits: u64,
    /// Canonical-tier lookups that found nothing — for the engine's
    /// two-tier probe order, the frames that had to plan fresh.
    pub canonical_misses: u64,
    /// Plans inserted into the exact tier.
    pub insertions: u64,
    /// Class representatives inserted into the canonical tier.
    pub canonical_insertions: u64,
    /// Exact-tier entries evicted to make room.
    pub evictions: u64,
    /// Canonical-tier entries evicted to make room.
    pub canonical_evictions: u64,
    /// Plans re-inserted from a persisted snapshot
    /// ([`PlanCache::load_snapshot`]).
    pub snapshot_loaded: u64,
    /// Exact-tier plans dropped by [`PlanCache::invalidate`] (the
    /// distributed control plane's invalidation broadcast lands here).
    pub invalidations: u64,
}

impl PlanCacheStats {
    /// Total lookups served from either tier.
    pub fn hits(&self) -> u64 {
        self.exact_hits + self.canonical_hits
    }
}

/// A sharded LRU cache of captured plans, keyed by assignment fingerprint.
///
/// * **Reads take no exclusive lock**: a hit acquires only the shard's
///   shared read lock, bumps the entry's LRU stamp with one atomic store,
///   and clones the [`Arc`] — no allocation, no writer blocking readers.
/// * **Capacity** is a global bound split across `min(capacity, 8)` shards;
///   eviction is per-shard LRU (smallest stamp), so with multiple shards
///   the policy is approximate LRU. `capacity = 1` collapses to one shard
///   of one entry — exact LRU, which the eviction-boundary proptests use.
/// * **Collision-proof**: a hit requires the stored assignment to equal the
///   probe assignment, not just the 64-bit fingerprints.
///
/// Counters are interior [`AtomicU64`]s; [`PlanCache::stats`] reads them
/// relaxed (they are monotone tallies, not synchronization).
///
/// The **canonical tier** ([`PlanCache::lookup_class`], and the
/// [`Canonicalized`]-based adapters [`PlanCache::lookup_canonical`] /
/// [`PlanCache::insert_canonical`]) lives in its own shard set with the
/// same capacity bound, keyed by the [`crate::FanoutProfile`] of the
/// relabeling class. Both tiers share the plan `Arc`s —
/// eviction from either tier never invalidates a replay in flight,
/// because a looked-up plan is an owned `Arc` clone that keeps the arena
/// alive until the replay drops it.
#[derive(Debug)]
pub struct PlanCache {
    shards: Vec<RwLock<Shard<Entry>>>,
    canon_shards: Vec<RwLock<Shard<CanonEntry>>>,
    capacity: usize,
    clock: AtomicU64,
    exact_hits: AtomicU64,
    exact_misses: AtomicU64,
    canonical_hits: AtomicU64,
    canonical_misses: AtomicU64,
    insertions: AtomicU64,
    canonical_insertions: AtomicU64,
    evictions: AtomicU64,
    canonical_evictions: AtomicU64,
    snapshot_loaded: AtomicU64,
    invalidations: AtomicU64,
}

fn make_shards<E>(capacity: usize) -> Vec<RwLock<Shard<E>>> {
    let nshards = capacity.min(8);
    (0..nshards)
        .map(|i| {
            let cap = capacity / nshards + usize::from(i < capacity % nshards);
            RwLock::new(Shard {
                cap,
                entries: Vec::with_capacity(cap.min(64)),
            })
        })
        .collect()
}

impl PlanCache {
    /// A cache holding at most `capacity` plans per tier (clamped to at
    /// least 1): up to `capacity` exact entries plus `capacity` canonical
    /// class representatives.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        PlanCache {
            shards: make_shards(capacity),
            canon_shards: make_shards(capacity),
            capacity,
            clock: AtomicU64::new(0),
            exact_hits: AtomicU64::new(0),
            exact_misses: AtomicU64::new(0),
            canonical_hits: AtomicU64::new(0),
            canonical_misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            canonical_insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            canonical_evictions: AtomicU64::new(0),
            snapshot_loaded: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// The configured global capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of plans currently cached in the exact tier.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("plan-cache shard poisoned").entries.len())
            .sum()
    }

    /// Number of class representatives currently cached in the canonical
    /// tier.
    pub fn canonical_len(&self) -> usize {
        self.canon_shards
            .iter()
            .map(|s| s.read().expect("plan-cache shard poisoned").entries.len())
            .sum()
    }

    /// `true` when no plans are cached in either tier.
    pub fn is_empty(&self) -> bool {
        self.len() == 0 && self.canonical_len() == 0
    }

    #[inline]
    fn shard_of(&self, fp: u64) -> usize {
        // High bits: the low bits feed nothing else, but mix() output is
        // uniform so any slice works; modulo keeps every shard reachable.
        (fp >> 32) as usize % self.shards.len()
    }

    /// Looks up the **exact-tier** plan for `asg` under fingerprint `fp`
    /// (compute it with [`plan_fingerprint`]). A hit requires full
    /// assignment equality, not just the fingerprint; hits refresh the
    /// entry's LRU stamp. Counted as `exact_hits`/`exact_misses`.
    pub fn lookup(&self, fp: u64, asg: &MulticastAssignment) -> Option<Arc<CapturedPlan>> {
        let shard = self.shards[self.shard_of(fp)]
            .read()
            .expect("plan-cache shard poisoned");
        for e in &shard.entries {
            if e.fp == fp && e.asg == *asg {
                let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
                e.stamp.store(now, Ordering::Relaxed);
                self.exact_hits.fetch_add(1, Ordering::Relaxed);
                return Some(Arc::clone(&e.plan));
            }
        }
        drop(shard);
        self.exact_misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Looks up the **canonical tier** for `asg`'s relabeling class,
    /// leaving the composed live → plan maps in `scratch` on a hit — the
    /// first half of a zero-allocation canonical hit; replay with
    /// [`Brsmn::route_replay_permuted_into`](crate::Brsmn::route_replay_permuted_into).
    ///
    /// The probe counts `asg`'s fanout profile, hashes it to the class key,
    /// and compares the resident entry's runs (a key collision misses). On
    /// a hit one counting sort ranks the live inputs and outputs, and each
    /// rank goes through the entry's stored inverse maps on its way into
    /// the scratch: `O(n)` arithmetic, no canonical assignment, no
    /// allocation. Counted as `canonical_hits`/`canonical_misses`.
    pub fn lookup_class(
        &self,
        asg: &MulticastAssignment,
        scratch: &mut RouteScratch,
    ) -> Option<Arc<CapturedPlan>> {
        let n = asg.n();
        scratch.ensure(n);
        let class = scratch.class_mut();
        class.profile(asg);
        let (shard, at) = self.probe_class(class.key(), n, class.runs())?;
        let e = &shard.entries[at];
        let (inputs, outputs) = e.from_canon.split_at(n);
        class.write_maps(asg, |r| inputs[r as usize], |p| outputs[p as usize]);
        Some(Arc::clone(&e.plan))
    }

    /// Looks up the **canonical tier** for the equivalence class of a
    /// canonicalized probe (build it with [`crate::canonicalize`]) — the
    /// allocating adapter over the same profile-keyed tier as
    /// [`PlanCache::lookup_class`], kept as its oracle. The profile is read
    /// off `canon.canonical`, and a hit returns the stored member's plan
    /// together with the composed live → plan-space permutations (probe's
    /// live→canonical maps chained through the entry's canonical→plan
    /// maps). Counted as `canonical_hits`/`canonical_misses`.
    pub fn lookup_canonical(&self, canon: &Canonicalized) -> Option<CanonicalHit> {
        let n = canon.canonical.n();
        let runs = runs_of_canonical(&canon.canonical);
        let (shard, at) = self.probe_class(profile_key(n, &runs), n, &runs)?;
        let e = &shard.entries[at];
        let (inputs, outputs) = e.from_canon.split_at(n);
        let compose = |perm: &[usize], inv: &[u32]| -> Vec<usize> {
            perm.iter().map(|&c| inv[c] as usize).collect()
        };
        Some(CanonicalHit {
            plan: Arc::clone(&e.plan),
            input_map: compose(&canon.input_perm, inputs),
            output_map: compose(&canon.output_perm, outputs),
        })
    }

    /// The canonical-tier probe both lookups share: on a hit, refreshes the
    /// entry's stamp and returns the shard, still read-locked, with the
    /// entry's index.
    fn probe_class(
        &self,
        key: u64,
        n: usize,
        runs: &[(u32, u32)],
    ) -> Option<(RwLockReadGuard<'_, Shard<CanonEntry>>, usize)> {
        let shard = self.canon_shards[self.shard_of(key)]
            .read()
            .expect("plan-cache shard poisoned");
        if let Some(at) = shard.entries.iter().position(|e| e.is_class(key, n, runs)) {
            let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
            shard.entries[at].stamp.store(now, Ordering::Relaxed);
            self.canonical_hits.fetch_add(1, Ordering::Relaxed);
            return Some((shard, at));
        }
        drop(shard);
        self.canonical_misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Inserts (or refreshes) the plan for `asg` under fingerprint `fp`,
    /// evicting the shard's least-recently-used entry if it is full.
    /// Returns `true` when an eviction happened.
    pub fn insert(&self, fp: u64, asg: &MulticastAssignment, plan: Arc<CapturedPlan>) -> bool {
        let mut shard = self.shards[self.shard_of(fp)]
            .write()
            .expect("plan-cache shard poisoned");
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(e) = shard
            .entries
            .iter_mut()
            .find(|e| e.fp == fp && e.asg == *asg)
        {
            // A racing worker captured the same assignment first; keep the
            // resident plan (both are bit-identical) and refresh its stamp.
            e.stamp.store(now, Ordering::Relaxed);
            return false;
        }
        let mut evicted = false;
        if shard.entries.len() >= shard.cap {
            let victim = shard
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp.load(Ordering::Relaxed))
                .map(|(i, _)| i)
                .expect("full shard has a victim");
            shard.entries.swap_remove(victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            evicted = true;
        }
        shard.entries.push(Entry {
            fp,
            asg: asg.clone(),
            bytes: plan.footprint_bytes() + asg.heap_bytes() + std::mem::size_of::<Entry>(),
            plan,
            stamp: AtomicU64::new(now),
        });
        self.insertions.fetch_add(1, Ordering::Relaxed);
        evicted
    }

    /// Inserts (or refreshes) `plan` as the stored member of `canon`'s
    /// equivalence class, evicting the canonical shard's least-recently-used
    /// entry if it is full. `canon` must be the canonicalization of the
    /// assignment `plan` was captured for — the entry keeps the *inverses*
    /// of its permutations so later members can be composed onto the plan.
    /// The adapter twin of the engine's profile-path insert (same tier,
    /// same entry). Returns `true` when an eviction happened.
    pub fn insert_canonical(&self, canon: &Canonicalized, plan: Arc<CapturedPlan>) -> bool {
        let n = canon.canonical.n();
        let runs = runs_of_canonical(&canon.canonical);
        let from_canon = invert_permutation(&canon.input_perm)
            .into_iter()
            .chain(invert_permutation(&canon.output_perm))
            .map(|p| p as u32)
            .collect();
        self.insert_class_entry(profile_key(n, &runs), n, &runs, from_canon, plan)
    }

    /// Inserts `plan`, captured for `asg`, as its class's member under the
    /// class `key` the probe computed: the profile is recounted into
    /// `class` and the maps are built once, here, by the same counting sort
    /// a hit runs. Returns `true` when an eviction happened.
    pub(crate) fn insert_class(
        &self,
        key: u64,
        asg: &MulticastAssignment,
        plan: Arc<CapturedPlan>,
        class: &mut ClassScratch,
    ) -> bool {
        class.ensure(asg.n());
        class.profile(asg);
        debug_assert_eq!(class.key(), key, "the probe keyed another class");
        let from_canon = class.inverse_maps(asg);
        self.insert_class_entry(key, asg.n(), class.runs(), from_canon, plan)
    }

    fn insert_class_entry(
        &self,
        key: u64,
        n: usize,
        runs: &[(u32, u32)],
        from_canon: Box<[u32]>,
        plan: Arc<CapturedPlan>,
    ) -> bool {
        let mut shard = self.canon_shards[self.shard_of(key)]
            .write()
            .expect("plan-cache shard poisoned");
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(e) = shard.entries.iter_mut().find(|e| e.is_class(key, n, runs)) {
            // Another member of the class is already resident; its plan
            // serves the whole class, so keep it and refresh the stamp.
            e.stamp.store(now, Ordering::Relaxed);
            return false;
        }
        let mut evicted = false;
        if shard.entries.len() >= shard.cap {
            let victim = shard
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp.load(Ordering::Relaxed))
                .map(|(i, _)| i)
                .expect("full shard has a victim");
            shard.entries.swap_remove(victim);
            self.canonical_evictions.fetch_add(1, Ordering::Relaxed);
            evicted = true;
        }
        let runs: Box<[(u32, u32)]> = runs.into();
        shard.entries.push(CanonEntry {
            key,
            n,
            bytes: plan.footprint_bytes()
                + std::mem::size_of_val(&*runs)
                + std::mem::size_of_val(&*from_canon)
                + std::mem::size_of::<CanonEntry>(),
            runs,
            from_canon,
            plan,
            stamp: AtomicU64::new(now),
        });
        self.canonical_insertions.fetch_add(1, Ordering::Relaxed);
        evicted
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            exact_hits: self.exact_hits.load(Ordering::Relaxed),
            exact_misses: self.exact_misses.load(Ordering::Relaxed),
            canonical_hits: self.canonical_hits.load(Ordering::Relaxed),
            canonical_misses: self.canonical_misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            canonical_insertions: self.canonical_insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            canonical_evictions: self.canonical_evictions.load(Ordering::Relaxed),
            snapshot_loaded: self.snapshot_loaded.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    /// Approximate heap bytes held by the cached plans and keys (the
    /// `scratch_bytes`-style accounting the engine reports). Plans shared
    /// between the tiers (one capture inserts its `Arc` into both) are
    /// counted once per tier — an upper bound, not an exact census.
    pub fn footprint_bytes(&self) -> usize {
        fn sum<E>(shards: &[RwLock<Shard<E>>], bytes: impl Fn(&E) -> usize) -> usize {
            shards
                .iter()
                .map(|s| {
                    let shard = s.read().expect("plan-cache shard poisoned");
                    shard.entries.iter().map(&bytes).sum::<usize>()
                })
                .sum()
        }
        sum(&self.shards, |e| e.bytes) + sum(&self.canon_shards, |e| e.bytes)
    }

    /// Drops the exact-tier plan with fingerprint `fp`, together with the
    /// canonical-tier representative of its relabeling class (but only when
    /// the class entry was seeded by this very assignment — a class entry
    /// captured from a *different* member stays, since its plan is still
    /// valid for the class). Returns `true` when an exact entry was
    /// removed. This is the hook the distributed control plane's
    /// invalidation broadcast calls into: a node that learns a cached plan
    /// is stale evicts it locally and gossips the fingerprint as a
    /// tombstone so anti-entropy never resurrects it.
    pub fn invalidate(&self, fp: u64) -> bool {
        let removed_asg = {
            let mut shard = self.shards[self.shard_of(fp)]
                .write()
                .expect("plan-cache shard poisoned");
            match shard.entries.iter().position(|e| e.fp == fp) {
                Some(i) => Some(shard.entries.swap_remove(i).asg),
                None => None,
            }
        };
        let Some(asg) = removed_asg else {
            return false;
        };
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        let profile = crate::canonical::FanoutProfile::of(&asg);
        let key = profile.key();
        let mut shard = self.canon_shards[self.shard_of(key)]
            .write()
            .expect("plan-cache shard poisoned");
        if let Some(i) = shard
            .entries
            .iter()
            .position(|e| e.is_class(key, profile.n(), profile.runs()))
        {
            // Same plan Arc ⇒ this class entry was seeded by the
            // invalidated capture; a different Arc means another member
            // re-captured the class and its plan is independently valid.
            let exact_gone = {
                let probe = &shard.entries[i];
                self.shards[self.shard_of(plan_fingerprint(&asg))]
                    .read()
                    .expect("plan-cache shard poisoned")
                    .entries
                    .iter()
                    .all(|e| !Arc::ptr_eq(&e.plan, &probe.plan))
            };
            if exact_gone {
                shard.entries.swap_remove(i);
            }
        }
        true
    }

    /// Fingerprints of every plan resident in the exact tier, sorted. This
    /// is the digest the distributed control plane's anti-entropy exchange
    /// compares between nodes: two caches with equal fingerprint sets hold
    /// the same working set (fingerprints are collision-checked against
    /// full assignments on every insert path).
    pub fn resident_fingerprints(&self) -> Vec<u64> {
        let mut fps: Vec<u64> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .expect("plan-cache shard poisoned")
                    .entries
                    .iter()
                    .map(|e| e.fp)
                    .collect::<Vec<_>>()
            })
            .collect();
        fps.sort_unstable();
        fps
    }

    /// Class keys ([`crate::FanoutProfile::key`]) of every class resident
    /// in the canonical tier, sorted — the second set anti-entropy
    /// convergence is judged on.
    pub fn resident_canonical_fingerprints(&self) -> Vec<u64> {
        let mut fps: Vec<u64> = self
            .canon_shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .expect("plan-cache shard poisoned")
                    .entries
                    .iter()
                    .map(|e| e.key)
                    .collect::<Vec<_>>()
            })
            .collect();
        fps.sort_unstable();
        fps
    }

    /// The resident `(assignment, plan)` pairs whose exact-tier
    /// fingerprints are in `want` (pass a sorted slice), encoded as
    /// snapshot entries — the unit of transfer of the anti-entropy
    /// protocol: a node answers a peer's digest diff with exactly the
    /// plans the peer lacks, in the same wire format the persistence
    /// snapshots use.
    pub fn entries_for(&self, want: &[u64]) -> Vec<PlanSnapshotEntry> {
        let mut out = Vec::new();
        for s in &self.shards {
            let shard = s.read().expect("plan-cache shard poisoned");
            for e in &shard.entries {
                if want.binary_search(&e.fp).is_ok() {
                    out.push(PlanSnapshotEntry {
                        n: e.asg.n(),
                        sets: (0..e.asg.n()).map(|i| e.asg.dests(i).to_vec()).collect(),
                        plan: (*e.plan).clone(),
                    });
                }
            }
        }
        out
    }

    /// Serializes the exact tier's working set: every resident
    /// `(assignment, plan)` pair, in shard order. The canonical tier is
    /// *not* written — [`PlanCache::load_snapshot`] re-derives it, since
    /// each exact pair doubles as its class representative.
    pub fn snapshot(&self) -> PlanCacheSnapshot {
        let mut entries = Vec::new();
        for s in &self.shards {
            let shard = s.read().expect("plan-cache shard poisoned");
            for e in &shard.entries {
                entries.push(PlanSnapshotEntry {
                    n: e.asg.n(),
                    sets: (0..e.asg.n()).map(|i| e.asg.dests(i).to_vec()).collect(),
                    plan: (*e.plan).clone(),
                });
            }
        }
        PlanCacheSnapshot {
            version: SNAPSHOT_VERSION,
            entries,
        }
    }

    /// Loads a snapshot, re-inserting every entry into **both** tiers so a
    /// restarted (or freshly provisioned) engine replays its working set on
    /// first sight — exact recurrences through the exact tier, relabeled
    /// recurrences through the canonical tier.
    ///
    /// Every entry is re-validated before anything is trusted: the
    /// assignment must pass `MulticastAssignment::from_sets` and the plan's
    /// packed arena must be exactly the setting tensor for its `n` — a
    /// corrupted or hand-edited file fails with a typed [`SnapshotError`],
    /// never a panic, and a failing entry aborts the load (earlier entries
    /// stay resident). These checks cover sizes only: the settings
    /// themselves are not re-planned here. A plan whose settings do not
    /// realize its assignment is caught when it is replayed, by the
    /// delivery verification that ends every replay — it requires every
    /// delivered message to belong at its output *and* every destination
    /// to be served, so such a replay returns an error, never a wrong or
    /// partial result. Loading into a smaller cache simply evicts as usual.
    pub fn load_snapshot(
        &self,
        snapshot: &PlanCacheSnapshot,
    ) -> Result<SnapshotLoadStats, SnapshotError> {
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::Version {
                found: snapshot.version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let mut stats = SnapshotLoadStats::default();
        let mut class = ClassScratch::default();
        for (index, e) in snapshot.entries.iter().enumerate() {
            let asg = MulticastAssignment::from_sets(e.n, e.sets.clone()).map_err(|err| {
                SnapshotError::Entry {
                    index,
                    reason: format!("invalid assignment: {err}"),
                }
            })?;
            if e.plan.n() != e.n || !e.plan.is_consistent() {
                return Err(SnapshotError::Entry {
                    index,
                    reason: format!(
                        "plan arena inconsistent (plan n = {}, entry n = {}, {} settings)",
                        e.plan.n(),
                        e.n,
                        e.plan.planes.len()
                    ),
                });
            }
            let plan = Arc::new(e.plan.clone());
            if self.insert(plan_fingerprint(&asg), &asg, Arc::clone(&plan)) {
                stats.evicted += 1;
            }
            class.ensure(asg.n());
            let key = class.profile(&asg);
            if self.insert_class(key, &asg, plan, &mut class) {
                stats.evicted += 1;
            }
            stats.loaded += 1;
        }
        self.snapshot_loaded
            .fetch_add(stats.loaded, Ordering::Relaxed);
        Ok(stats)
    }
}

/// Format version written by [`PlanCache::snapshot`]; bumped on any layout
/// change to the entry encoding or the packed-plane tensor.
pub const SNAPSHOT_VERSION: u32 = 1;

/// One persisted plan: the raw `(n, destination sets)` of the assignment it
/// was captured for — re-validated through `from_sets` on load, so the
/// serialized form can never smuggle an invalid assignment past the
/// constructor — and the captured plan itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanSnapshotEntry {
    /// Network size of the captured frame.
    pub n: usize,
    /// Destination sets, indexed by input.
    pub sets: Vec<Vec<usize>>,
    /// The captured bit-packed setting tensor.
    pub plan: CapturedPlan,
}

/// A persisted plan-cache working set: what [`PlanCache::snapshot`] writes
/// and [`PlanCache::load_snapshot`] restores. Serialize it with the compat
/// serde shims (the CLI stores it as JSON via `serde_json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanCacheSnapshot {
    /// Format version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The persisted `(assignment, plan)` pairs.
    pub entries: Vec<PlanSnapshotEntry>,
}

/// What a [`PlanCache::load_snapshot`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotLoadStats {
    /// Plans re-inserted (each lands in both tiers).
    pub loaded: u64,
    /// Evictions the re-insertions caused (nonzero when the snapshot
    /// exceeds the cache capacity).
    pub evicted: u64,
}

/// Why a snapshot failed to load — a typed error, never a panic, so a
/// corrupt or stale file degrades a warm start into a cold one instead of
/// taking the process down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file was written by an incompatible format version.
    Version {
        /// Version found in the file.
        found: u32,
        /// Version this build reads.
        supported: u32,
    },
    /// An entry failed validation (invalid assignment or inconsistent
    /// plan arena).
    Entry {
        /// Index of the offending entry.
        index: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Version { found, supported } => write!(
                f,
                "snapshot version {found} is not supported (this build reads {supported})"
            ),
            SnapshotError::Entry { index, reason } => {
                write!(f, "snapshot entry {index}: {reason}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

#[cfg(test)]
mod tests {
    use super::*;
    use brsmn_rbn::RbnSettings;
    use brsmn_switch::SwitchSetting;

    fn asg(n: usize, sets: Vec<Vec<usize>>) -> MulticastAssignment {
        MulticastAssignment::from_sets(n, sets).unwrap()
    }

    #[test]
    fn fingerprint_ignores_input_order() {
        let a = asg(8, vec![
            vec![0, 1],
            vec![],
            vec![3, 4, 7],
            vec![2],
            vec![],
            vec![],
            vec![],
            vec![5, 6],
        ]);
        let fwd = plan_fingerprint(&a);
        let pairs: Vec<(usize, &[usize])> = a.iter().collect();
        let rev = fingerprint_inputs(8, pairs.into_iter().rev());
        assert_eq!(fwd, rev);
    }

    #[test]
    fn fingerprint_separates_near_misses() {
        let a = asg(4, vec![vec![0], vec![1], vec![], vec![]]);
        // Same multiset of destinations, different owners.
        let b = asg(4, vec![vec![1], vec![0], vec![], vec![]]);
        // Same pairs, different network size is impossible to confuse via n.
        assert_ne!(plan_fingerprint(&a), plan_fingerprint(&b));
        let wide = fingerprint_inputs(8, a.iter());
        assert_ne!(plan_fingerprint(&a), wide);
    }

    #[test]
    fn captured_plan_layout_round_trips() {
        let n = 16;
        let mut plan = CapturedPlan::new(n).unwrap();
        let mut table = RbnSettings::identity(n);
        // Write a recognizable pattern into level 2's quasisort phase (two
        // blocks of 8, 3 stages) and into stage 3, which level 2 does not
        // use; the level's planes are stored and loaded back whole.
        for j in 0..4 {
            for idx in 0..8 {
                table.stage_mut(j)[idx] = if (j + idx) % 2 == 0 {
                    SwitchSetting::Crossing
                } else {
                    SwitchSetting::UpperBroadcast
                };
            }
        }
        plan.store_phase(2, PHASE_QUASISORT, &PackedStages::from_settings(&table));
        let mut out = PackedStages::identity(n);
        plan.load_phase(2, PHASE_QUASISORT, &mut out);
        let out = out.to_settings();
        for j in 0..3 {
            assert_eq!(out.stage(j), table.stage(j), "stage {j}");
        }
        // The stage past the level's sub-RBNs stays untouched.
        assert_eq!(out.stage(3), &[SwitchSetting::Parallel; 8]);
        // Scatter phase of the same level is a distinct region.
        let mut other = PackedStages::identity(n);
        plan.load_phase(2, PHASE_SCATTER, &mut other);
        assert_eq!(other, PackedStages::identity(n));
        // Final codes live past every level region: pair 7 broadcasts its
        // lower input, and codes past the n/2 pairs are never stored.
        plan.set_final_codes(0, 3 << 14 | 1 << 20);
        assert_eq!(plan.final_codes(0), 3 << 14);
        assert_eq!(
            plan.planes().get(plan.final_offset() + 7),
            SwitchSetting::LowerBroadcast
        );
    }

    #[test]
    fn load_phase_inverts_store_phase_at_every_level() {
        const ALL: [SwitchSetting; 4] = [
            SwitchSetting::Parallel,
            SwitchSetting::Crossing,
            SwitchSetting::UpperBroadcast,
            SwitchSetting::LowerBroadcast,
        ];
        // Planes shorter than a word (copied code by code) and planes of
        // whole words.
        for n in [32usize, 128] {
            let m = log2_exact(n) as usize;
            let mut plan = CapturedPlan::new(n).unwrap();
            let mut tables = Vec::new();
            for level in 1..m {
                for phase in [PHASE_SCATTER, PHASE_QUASISORT] {
                    let mut table = RbnSettings::identity(n);
                    for j in 0..m {
                        for (idx, s) in table.stage_mut(j).iter_mut().enumerate() {
                            *s = ALL[(idx * 7 + j * 3 + level * 5 + phase) % 4];
                        }
                    }
                    plan.store_phase(level, phase, &PackedStages::from_settings(&table));
                    tables.push((level, phase, table));
                }
            }
            // Every region loads back as stored, and only the level's stages.
            for (level, phase, table) in tables {
                let mut out = PackedStages::identity(n);
                plan.load_phase(level, phase, &mut out);
                let out = out.to_settings();
                for j in 0..m {
                    let want = if j <= m - level {
                        table.stage(j).to_vec()
                    } else {
                        vec![SwitchSetting::Parallel; n / 2]
                    };
                    assert_eq!(
                        out.stage(j),
                        &want[..],
                        "n={n} level {level} phase {phase} stage {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn captured_plan_is_one_compact_allocation() {
        let plan = CapturedPlan::new(256).unwrap();
        // 9,088 settings at 2 bits: 284 words = 2,272 bytes.
        assert_eq!(CapturedPlan::total_settings(256), 9088);
        assert_eq!(plan.footprint_bytes(), 9088 / 32 * 8);
    }

    #[test]
    fn cache_hits_require_full_equality() {
        let cache = PlanCache::new(4);
        let a = asg(4, vec![vec![0, 1], vec![], vec![2], vec![3]]);
        let b = asg(4, vec![vec![2, 3], vec![], vec![0], vec![1]]);
        let fp = plan_fingerprint(&a);
        cache.insert(fp, &a, Arc::new(CapturedPlan::new(4).unwrap()));
        assert!(cache.lookup(fp, &a).is_some());
        // Same fingerprint key, different assignment: must miss, not
        // misdeliver a foreign plan.
        assert!(cache.lookup(fp, &b).is_none());
        let s = cache.stats();
        assert_eq!((s.exact_hits, s.exact_misses, s.insertions), (1, 1, 1));
        assert_eq!((s.canonical_hits, s.canonical_misses), (0, 0));
    }

    #[test]
    fn canonical_tier_hits_across_relabelings_and_counts_separately() {
        use crate::canonical::canonicalize;
        let cache = PlanCache::new(4);
        let a = asg(4, vec![vec![0, 1], vec![], vec![2], vec![]]);
        // Same shape (fanouts {2, 1}), entirely different labels.
        let b = asg(4, vec![vec![], vec![3], vec![], vec![1, 2]]);
        let plan = Arc::new(CapturedPlan::new(4).unwrap());
        cache.insert_canonical(&canonicalize(&a), Arc::clone(&plan));
        assert_eq!(cache.canonical_len(), 1);

        let hit = cache.lookup_canonical(&canonicalize(&b)).expect("class hit");
        assert!(Arc::ptr_eq(&hit.plan, &plan));
        // b's input 3 owns the fanout-2 set, which a stored at input 0.
        assert_eq!(hit.input_map[3], 0);
        // b's outputs {1, 2} land on a's canonical slots for {0, 1}.
        assert_eq!((hit.output_map[1], hit.output_map[2]), (0, 1));
        // A different shape misses.
        let c = asg(4, vec![vec![0], vec![1], vec![2], vec![]]);
        assert!(cache.lookup_canonical(&canonicalize(&c)).is_none());
        let s = cache.stats();
        assert_eq!((s.canonical_hits, s.canonical_misses), (1, 1));
        assert_eq!((s.exact_hits, s.exact_misses), (0, 0));
        assert_eq!(s.canonical_insertions, 1);
        assert_eq!(s.hits(), 1);
    }

    #[test]
    fn evicted_plan_stays_valid_while_a_replay_holds_its_arc() {
        // The Arc discipline the eviction audit pins: a plan looked up
        // before an eviction storm must stay usable afterwards.
        let cache = PlanCache::new(1);
        let a = asg(4, vec![vec![0, 1], vec![], vec![2], vec![]]);
        let ca = crate::canonical::canonicalize(&a);
        cache.insert_canonical(&ca, Arc::new(CapturedPlan::new(4).unwrap()));
        let held = cache.lookup_canonical(&ca).expect("resident");
        for k in 0..4usize {
            let other = asg(4, vec![vec![k], vec![], vec![], vec![]]);
            cache.insert_canonical(&crate::canonical::canonicalize(&other), Arc::new(CapturedPlan::new(4).unwrap()));
        }
        assert!(cache.stats().canonical_evictions > 0);
        // The held Arc still owns a full, consistent arena.
        assert!(held.plan.is_consistent());
        assert_eq!(held.plan.n(), 4);
    }

    #[test]
    fn snapshot_round_trips_through_both_tiers() {
        let cache = PlanCache::new(8);
        let a = asg(4, vec![vec![0, 1], vec![], vec![2], vec![]]);
        let fp = plan_fingerprint(&a);
        cache.insert(fp, &a, Arc::new(CapturedPlan::new(4).unwrap()));
        let snap = cache.snapshot();
        assert_eq!(snap.version, SNAPSHOT_VERSION);
        assert_eq!(snap.entries.len(), 1);

        let warm = PlanCache::new(8);
        let loaded = warm.load_snapshot(&snap).unwrap();
        assert_eq!((loaded.loaded, loaded.evicted), (1, 0));
        assert!(warm.lookup(fp, &a).is_some(), "exact tier warm");
        let relabeled = asg(4, vec![vec![], vec![2, 3], vec![], vec![0]]);
        assert!(
            warm.lookup_canonical(&crate::canonical::canonicalize(&relabeled))
                .is_some(),
            "canonical tier warm"
        );
        assert_eq!(warm.stats().snapshot_loaded, 1);
    }

    #[test]
    fn corrupt_snapshots_fail_with_typed_errors() {
        let ok_plan = CapturedPlan::new(4).unwrap();
        // Wrong version.
        let snap = PlanCacheSnapshot {
            version: SNAPSHOT_VERSION + 1,
            entries: vec![],
        };
        assert_eq!(
            PlanCache::new(2).load_snapshot(&snap),
            Err(SnapshotError::Version {
                found: SNAPSHOT_VERSION + 1,
                supported: SNAPSHOT_VERSION
            })
        );
        // Invalid assignment (overlapping destinations).
        let snap = PlanCacheSnapshot {
            version: SNAPSHOT_VERSION,
            entries: vec![PlanSnapshotEntry {
                n: 4,
                sets: vec![vec![0], vec![0], vec![], vec![]],
                plan: ok_plan.clone(),
            }],
        };
        assert!(matches!(
            PlanCache::new(2).load_snapshot(&snap),
            Err(SnapshotError::Entry { index: 0, .. })
        ));
        // Plan sized for a different network than the entry claims.
        let snap = PlanCacheSnapshot {
            version: SNAPSHOT_VERSION,
            entries: vec![PlanSnapshotEntry {
                n: 8,
                sets: vec![vec![0], vec![], vec![], vec![], vec![], vec![], vec![], vec![]],
                plan: ok_plan,
            }],
        };
        let err = PlanCache::new(2).load_snapshot(&snap).unwrap_err();
        assert!(err.to_string().contains("entry 0"), "{err}");
    }

    /// Flips every setting of a captured plan, one at a time, to each of
    /// its three other values, and replays the corrupted plan exactly
    /// (kernel and traced) and permuted: every replay that returns `Ok` must
    /// realize its assignment. A corruption that drops a destination —
    /// e.g. a broadcast overwriting a live message — fails the delivery
    /// count, not just a misdelivery.
    #[test]
    fn single_setting_corruptions_never_replay_to_a_wrong_result() {
        use crate::algebra::{relabel_inputs, relabel_outputs};
        use crate::brsmn::Brsmn;
        use crate::canonical::canonicalize;
        use crate::fastpath::RouteScratch;

        const ALL: [SwitchSetting; 4] = [
            SwitchSetting::Parallel,
            SwitchSetting::Crossing,
            SwitchSetting::UpperBroadcast,
            SwitchSetting::LowerBroadcast,
        ];
        let dense = |n: usize| {
            let mut sets = vec![Vec::new(); n];
            for d in 0..n {
                sets[(d * 5 + d / 3) % (n / 2)].push(d);
            }
            asg(n, sets)
        };
        let paper_8 = vec![
            vec![0, 1, 2, 3],
            vec![],
            vec![],
            vec![],
            vec![5, 6],
            vec![],
            vec![],
            vec![],
        ];
        let frames = [asg(8, paper_8), dense(16), dense(64)];
        for a in frames {
            let n = a.n();
            let net = Brsmn::new(n).unwrap();
            let mut scratch = RouteScratch::new(n).unwrap();
            let (_, plan) = net.route_capture(&a, &mut scratch).unwrap();
            let rotate = |k: usize| -> Vec<usize> { (0..n).map(|i| (i + k) % n).collect() };
            let live = relabel_inputs(&relabel_outputs(&a, &rotate(3)), &rotate(1));
            let cache = PlanCache::new(2);
            cache.insert_canonical(&canonicalize(&a), Arc::new(plan.clone()));
            let hit = cache.lookup_canonical(&canonicalize(&live)).unwrap();

            let mut rejected = 0;
            for i in 0..plan.planes.len() {
                for s in ALL.into_iter().filter(|&s| s != plan.planes.get(i)) {
                    let mut bad = plan.clone();
                    bad.planes.set(i, s);
                    let ctx = format!("n={n} setting {i} -> {s:?}");
                    match net.route_replay(&a, &bad, &mut scratch) {
                        Ok(r) => assert!(r.realizes(&a), "{ctx}: kernel replay"),
                        Err(_) => rejected += 1,
                    }
                    if let Ok(r) = net.route_replay_traced(&a, &bad, &mut scratch) {
                        assert!(r.0.realizes(&a), "{ctx}: traced replay");
                    }
                    let permuted = net.route_replay_permuted(
                        &live,
                        &bad,
                        &hit.input_map,
                        &hit.output_map,
                        &mut scratch,
                    );
                    if let Ok(r) = permuted {
                        assert!(r.realizes(&live), "{ctx}: permuted replay");
                    }
                }
            }
            assert!(rejected > 0, "n={n}: no corruption was rejected");
        }
    }

    #[test]
    fn capacity_one_evicts_lru() {
        let cache = PlanCache::new(1);
        assert_eq!(cache.capacity(), 1);
        let a = asg(4, vec![vec![0], vec![], vec![], vec![]]);
        let b = asg(4, vec![vec![1], vec![], vec![], vec![]]);
        let (fa, fb) = (plan_fingerprint(&a), plan_fingerprint(&b));
        assert!(!cache.insert(fa, &a, Arc::new(CapturedPlan::new(4).unwrap())));
        assert!(cache.insert(fb, &b, Arc::new(CapturedPlan::new(4).unwrap())));
        assert!(cache.lookup(fa, &a).is_none(), "a was evicted");
        assert!(cache.lookup(fb, &b).is_some());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinserting_same_assignment_refreshes_instead_of_duplicating() {
        let cache = PlanCache::new(2);
        let a = asg(4, vec![vec![0], vec![], vec![], vec![]]);
        let fp = plan_fingerprint(&a);
        cache.insert(fp, &a, Arc::new(CapturedPlan::new(4).unwrap()));
        cache.insert(fp, &a, Arc::new(CapturedPlan::new(4).unwrap()));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().insertions, 1);
        assert!(cache.footprint_bytes() > 0);
    }
}
