//! Canonicalization of multicast assignments up to input/output relabeling
//! — the equivalence the canonical plan-cache tier hits on.
//!
//! Two assignments are *relabeling-equivalent* when one maps onto the other
//! by composing [`crate::algebra::relabel_inputs`] and
//! [`crate::algebra::relabel_outputs`] with some pair of permutations: the
//! same multicast **shape** with different participants. Under churn-heavy
//! conference traffic that is exactly how frames recur — a session keeps its
//! fanout profile while members come and go — so a cache keyed on the class
//! hits where an exact-assignment key misses.
//!
//! # The canonical form
//!
//! [`canonicalize`] sorts the active inputs by fanout (descending, ties by
//! input index) and hands rank `r` the next run of consecutive outputs:
//! input 0 gets the largest destination set as `{0, …, f₀−1}`, input 1 the
//! next as `{f₀, …, f₀+f₁−1}`, and so on; idle inputs and unclaimed outputs
//! fill the remaining positions in index order. The result depends only on
//! the *multiset of fanouts* — which is invariant under any relabeling — so
//! equivalent assignments canonicalize to the identical representative (the
//! property `canonical_props` pins), and the representative of a canonical
//! form is itself (idempotence).
//!
//! The returned permutations satisfy, in `algebra` terms,
//!
//! ```text
//! relabel_inputs(&relabel_outputs(asg, &output_perm), &input_perm)
//!     == canonical
//! ```
//!
//! which is what lets a cached plan captured for *one* member of the class
//! serve *every* member: place each live source at the plan's corresponding
//! input position, execute the captured setting planes verbatim, and read
//! each live output from the plan's corresponding output position (see
//! `fastpath::route_assignment_replay_permuted`).
//!
//! # The class key: the fanout profile
//!
//! The representative is a function of the [`FanoutProfile`] — `n` plus
//! the multiset of non-zero fanouts, held as `(fanout, count)` runs in
//! descending fanout order — and the profile can be read back off the
//! representative, so comparing profiles is exactly as strong as comparing
//! representatives. The cache's canonical tier is therefore keyed on the
//! profile's hash and guarded by comparing runs; it never builds a
//! representative. On the engine's path one pass over the CSR offsets
//! counts the profile, and on a hit one counting sort ranks the live
//! inputs and outputs — the live → canonical maps — composing each rank
//! on the fly with the entry's stored inverse maps. Both work in the
//! thread's [`crate::RouteScratch`], sized once: `O(n)` arithmetic and no
//! allocation.
//!
//! [`canonicalize`] and [`Canonicalized`] stay as the oracle the counting
//! sort is tested against and as the compatibility API of
//! [`crate::PlanCache::lookup_canonical`] / `insert_canonical`, which are
//! thin adapters over the same profile-keyed tier.

use crate::assignment::MulticastAssignment;
use crate::plancache::mix;

/// An assignment reduced to its relabeling-equivalence class: the canonical
/// representative plus the permutations mapping the live assignment onto it.
///
/// Produced by [`canonicalize`]; consumed by the canonical tier's adapters
/// [`crate::PlanCache::lookup_canonical`] and
/// [`crate::PlanCache::insert_canonical`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Canonicalized {
    /// The canonical representative of the equivalence class — identical
    /// for every relabeling of the same shape.
    pub canonical: MulticastAssignment,
    /// Input permutation: live input `i` occupies canonical position
    /// `input_perm[i]`.
    pub input_perm: Vec<usize>,
    /// Output permutation: live output `d` occupies canonical position
    /// `output_perm[d]`.
    pub output_perm: Vec<usize>,
}

impl Canonicalized {
    /// The canonical fingerprint — [`crate::plan_fingerprint`] of the
    /// representative. Equal for every member of a class; the cache's
    /// canonical tier is keyed on [`FanoutProfile::key`] instead.
    pub fn fingerprint(&self) -> u64 {
        crate::plancache::plan_fingerprint(&self.canonical)
    }
}

/// Reduces `asg` to its canonical representative and the permutation pair
/// mapping `asg` onto it. Order-independent: any two
/// relabelings of one assignment produce the **same** `canonical` (their
/// permutations differ — each maps its own labels home).
///
/// ```
/// use brsmn_core::{canonicalize, relabel_outputs, MulticastAssignment};
///
/// let a = MulticastAssignment::from_sets(
///     4,
///     vec![vec![1, 3], vec![], vec![0], vec![]],
/// )
/// .unwrap();
/// // Relabel the outputs: same shape, different participants.
/// let b = relabel_outputs(&a, &[2, 0, 3, 1]);
///
/// let ca = canonicalize(&a);
/// let cb = canonicalize(&b);
/// assert_eq!(ca.canonical, cb.canonical, "one class, one representative");
/// // The canonical form packs the largest fanout first: {0,1}, then {2}.
/// assert_eq!(ca.canonical.dests(0), &[0, 1]);
/// assert_eq!(ca.canonical.dests(1), &[2]);
/// ```
pub fn canonicalize(asg: &MulticastAssignment) -> Canonicalized {
    let n = asg.n();
    // Rank the active inputs by fanout, largest first; ties break on the
    // input index purely to make *this member's* permutation deterministic
    // — any tie order yields the same canonical assignment.
    let mut order: Vec<usize> = (0..n).filter(|&i| !asg.dests(i).is_empty()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(asg.dests(i).len()), i));

    const UNSET: usize = usize::MAX;
    let mut input_perm = vec![UNSET; n];
    let mut output_perm = vec![UNSET; n];
    // Rank r's set is the next run of outputs, so the representative's flat
    // destination array is just 0..total and its offsets are the running
    // sums of the sorted fanouts.
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u32);
    let mut next_out = 0usize;
    for (rank, &i) in order.iter().enumerate() {
        input_perm[i] = rank;
        let dests = asg.dests(i);
        // The k-th smallest live destination lands on the k-th slot of the
        // rank's consecutive output run.
        for (k, &d) in dests.iter().enumerate() {
            output_perm[d] = next_out + k;
        }
        next_out += dests.len();
        offsets.push(next_out as u32);
    }
    offsets.resize(n + 1, next_out as u32);
    let canonical = MulticastAssignment::from_csr(n, offsets, (0..next_out).collect());
    // Idle inputs and unclaimed outputs take the remaining positions in
    // index order — full bijections, so permuted replay can address every
    // line.
    let mut next_rank = order.len();
    for p in input_perm.iter_mut() {
        if *p == UNSET {
            *p = next_rank;
            next_rank += 1;
        }
    }
    for p in output_perm.iter_mut() {
        if *p == UNSET {
            *p = next_out;
            next_out += 1;
        }
    }
    Canonicalized {
        canonical,
        input_perm,
        output_perm,
    }
}

/// The relabeling class of an assignment as a value: `n` plus the multiset
/// of non-zero fanouts, held as `(fanout, count)` runs in descending fanout
/// order. Two assignments have equal profiles exactly when
/// [`canonicalize`] gives them the same representative.
///
/// ```
/// use brsmn_core::{canonicalize, FanoutProfile, MulticastAssignment};
///
/// let a = MulticastAssignment::from_sets(
///     8,
///     vec![vec![6], vec![], vec![0, 2, 5], vec![], vec![1], vec![], vec![], vec![]],
/// )
/// .unwrap();
/// let p = FanoutProfile::of(&a);
/// assert_eq!(p.runs(), &[(3, 1), (1, 2)]); // one fanout-3 input, two fanout-1
/// assert_eq!(p, FanoutProfile::of(&canonicalize(&a).canonical));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FanoutProfile {
    n: usize,
    runs: Vec<(u32, u32)>,
}

impl FanoutProfile {
    /// The profile of `asg`.
    pub fn of(asg: &MulticastAssignment) -> Self {
        let mut class = ClassScratch::default();
        class.ensure(asg.n());
        class.profile_runs(asg);
        FanoutProfile {
            n: asg.n(),
            runs: class.runs,
        }
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// `(fanout, count)` runs, fanouts strictly descending, counts nonzero.
    pub fn runs(&self) -> &[(u32, u32)] {
        &self.runs
    }

    /// The 64-bit hash the cache's canonical tier is keyed on (what
    /// [`crate::PlanCache::resident_canonical_fingerprints`] lists). A hit
    /// still compares the runs, so a key collision is a miss, never a
    /// foreign plan.
    pub fn key(&self) -> u64 {
        profile_key(self.n, &self.runs)
    }
}

/// Hash of a fanout profile: `n`, then each run, folded in order.
pub(crate) fn profile_key(n: usize, runs: &[(u32, u32)]) -> u64 {
    let mut h = mix(n as u64 ^ 0x5851_F42D_4C95_7F2D);
    for &(f, c) in runs {
        h = mix(h ^ (u64::from(f) << 32 | u64::from(c)));
    }
    h
}

/// The runs of a canonical representative, read off its offsets: rank `r`
/// holds the `r`-th largest fanout, so equal neighbours form the runs.
pub(crate) fn runs_of_canonical(canonical: &MulticastAssignment) -> Vec<(u32, u32)> {
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for w in canonical.offsets().windows(2) {
        let f = w[1] - w[0];
        if f == 0 {
            break;
        }
        match runs.last_mut() {
            Some((g, c)) if *g == f => *c += 1,
            _ => runs.push((f, 1)),
        }
    }
    runs
}

/// Marks an output position not yet assigned while the maps are built.
const UNSET: u32 = u32::MAX;

/// The `width` low bits set (`1 ≤ width ≤ 64`): the lines of a 64-line
/// word that exist when `n < 64`.
#[inline]
fn low_bits(width: usize) -> u64 {
    u64::MAX >> (64 - width)
}

/// Per-thread working set of the canonical tier, sized once per `n` and
/// kept inside [`crate::RouteScratch`]: the fanout histogram and run list
/// of the last profiled assignment, its key, and the live → plan maps a
/// class hit leaves behind for the permuted replay.
#[derive(Debug, Clone, Default)]
pub(crate) struct ClassScratch {
    n: usize,
    /// Active inputs per fanout, indexed by fanout; all zero between calls.
    hist: Vec<u32>,
    /// Next `(rank, output position)` per fanout while the maps are built.
    cursor: Vec<(u32, u32)>,
    /// One bit per input of the last profiled assignment, set when active:
    /// every later pass visits the active inputs, and then the idle ones,
    /// by bit scan instead of testing all `n`.
    active: Vec<u64>,
    /// The profile runs of the last profiled assignment.
    runs: Vec<(u32, u32)>,
    /// [`profile_key`] of `runs`.
    key: u64,
    /// Live input `i` enters the plan at `input_map[i]`.
    input_map: Vec<u32>,
    /// Live output `d` reads the plan's delivery at `output_map[d]`.
    output_map: Vec<u32>,
    /// `true` while the maps hold a class hit's (or loaded) maps for `n`.
    maps_ready: bool,
}

impl ClassScratch {
    /// Sizes every buffer for `n`; a no-op at the current size.
    pub(crate) fn ensure(&mut self, n: usize) {
        if self.n != n {
            self.n = n;
            self.hist = vec![0; n + 1];
            self.cursor = vec![(0, 0); n + 1];
            self.active = vec![0; n.div_ceil(64)];
            // Distinct fanouts f₁ > f₂ > … sum to at most n, so there are
            // fewer than √(2n) + 1 runs.
            self.runs = Vec::with_capacity((2 * n).isqrt() + 1);
            self.input_map = vec![0; n];
            self.output_map = vec![0; n];
            self.maps_ready = false;
        }
    }

    /// Heap bytes reserved.
    pub(crate) fn footprint_bytes(&self) -> usize {
        self.hist.capacity() * 4
            + self.cursor.capacity() * 8
            + self.active.capacity() * 8
            + self.runs.capacity() * 8
            + (self.input_map.capacity() + self.output_map.capacity()) * 4
    }

    /// Fills `active` and `runs` with `asg`'s profile: one pass over the
    /// CSR offsets marks the active inputs, a bit scan counts their
    /// fanouts, and a descending walk of the histogram clears it.
    fn profile_runs(&mut self, asg: &MulticastAssignment) {
        let n = self.n;
        debug_assert_eq!(asg.n(), n);
        let offsets = asg.offsets();
        let mut max_f = 0u32;
        for (word, mask) in self.active.iter_mut().enumerate() {
            let base = word * 64;
            let end = (base + 64).min(n);
            let mut m = 0u64;
            for (j, w) in offsets[base..=end].windows(2).enumerate() {
                let f = w[1] - w[0];
                m |= u64::from(f != 0) << j;
                max_f = max_f.max(f);
            }
            *mask = m;
            while m != 0 {
                let i = base + m.trailing_zeros() as usize;
                m &= m - 1;
                self.hist[(offsets[i + 1] - offsets[i]) as usize] += 1;
            }
        }
        self.runs.clear();
        for f in (1..=max_f as usize).rev() {
            let c = std::mem::take(&mut self.hist[f]);
            if c > 0 {
                self.runs.push((f as u32, c));
            }
        }
    }

    /// Profiles `asg` and returns its class key (also kept for a later
    /// insert). Invalidates any maps a previous hit left.
    pub(crate) fn profile(&mut self, asg: &MulticastAssignment) -> u64 {
        self.maps_ready = false;
        self.profile_runs(asg);
        self.key = profile_key(self.n, &self.runs);
        self.key
    }

    /// The key of the last profiled assignment.
    pub(crate) fn key(&self) -> u64 {
        self.key
    }

    /// The runs of the last profiled assignment.
    pub(crate) fn runs(&self) -> &[(u32, u32)] {
        &self.runs
    }

    /// The live → canonical maps of the profiled `asg` by counting sort,
    /// each position passed through `map_in` / `map_out` on its way into
    /// `input_map` / `output_map`. Active inputs rank by (fanout desc,
    /// input asc) and each rank takes the next run of outputs; idle inputs
    /// and unclaimed outputs fill the tails in index order — exactly
    /// [`canonicalize`]'s `input_perm` / `output_perm` under identity
    /// closures. Both maps are bijections by construction.
    pub(crate) fn write_maps(
        &mut self,
        asg: &MulticastAssignment,
        map_in: impl Fn(u32) -> u32,
        map_out: impl Fn(u32) -> u32,
    ) {
        let n = self.n;
        let (mut rank, mut pos) = (0u32, 0u32);
        for &(f, c) in &self.runs {
            self.cursor[f as usize] = (rank, pos);
            rank += c;
            pos += f * c;
        }
        let offsets = asg.offsets();
        let dests = asg.flat_dests();
        self.output_map.fill(UNSET);
        for (word, &mask) in self.active.iter().enumerate() {
            let base = word * 64;
            let mut live = mask;
            while live != 0 {
                let i = base + live.trailing_zeros() as usize;
                live &= live - 1;
                let (lo, hi) = (offsets[i], offsets[i + 1]);
                let (r, start) = self.cursor[(hi - lo) as usize];
                self.cursor[(hi - lo) as usize] = (r + 1, start + hi - lo);
                self.input_map[i] = map_in(r);
                for (k, &d) in dests[lo as usize..hi as usize].iter().enumerate() {
                    self.output_map[d] = map_out(start + k as u32);
                }
            }
            let mut idle = !mask & low_bits((n - base).min(64));
            while idle != 0 {
                let i = base + idle.trailing_zeros() as usize;
                idle &= idle - 1;
                self.input_map[i] = map_in(rank);
                rank += 1;
            }
        }
        for chunk in self.output_map.chunks_mut(64) {
            let mut free = 0u64;
            for (j, &p) in chunk.iter().enumerate() {
                free |= u64::from(p == UNSET) << j;
            }
            while free != 0 {
                let o = free.trailing_zeros() as usize;
                free &= free - 1;
                chunk[o] = map_out(pos);
                pos += 1;
            }
        }
        self.maps_ready = true;
    }

    /// The stored form of the profiled `asg`'s maps: canonical position →
    /// live position, inputs then outputs (`2n` entries). A class entry
    /// keeps these so a later member composes onto its plan.
    pub(crate) fn inverse_maps(&mut self, asg: &MulticastAssignment) -> Box<[u32]> {
        self.write_maps(asg, |r| r, |p| p);
        self.maps_ready = false;
        let n = self.n;
        let mut inv = vec![0u32; 2 * n].into_boxed_slice();
        for (i, &r) in self.input_map.iter().enumerate() {
            inv[r as usize] = i as u32;
        }
        for (d, &p) in self.output_map.iter().enumerate() {
            inv[n + p as usize] = d as u32;
        }
        inv
    }

    /// The live → plan maps a hit left, if any: `(input_map, output_map)`.
    pub(crate) fn maps(&self) -> Option<(&[u32], &[u32])> {
        self.maps_ready
            .then_some((&self.input_map[..], &self.output_map[..]))
    }

    /// The output half of the maps (the permuted delivery is read through
    /// it).
    pub(crate) fn output_map(&self) -> &[u32] {
        &self.output_map
    }

    /// Loads caller-supplied maps, rejecting any that is not a permutation
    /// of `0..n` (the histogram doubles as the seen-table and is cleared
    /// again either way).
    pub(crate) fn load_maps(
        &mut self,
        input_map: &[usize],
        output_map: &[usize],
    ) -> Result<(), String> {
        let ClassScratch {
            n,
            hist,
            input_map: inputs,
            output_map: outputs,
            maps_ready,
            ..
        } = self;
        let n = *n;
        *maps_ready = false;
        for (name, src, dst) in [
            ("input_map", input_map, inputs),
            ("output_map", output_map, outputs),
        ] {
            let ok = src.len() == n
                && src
                    .iter()
                    .all(|&p| p < n && std::mem::replace(&mut hist[p], 1) == 0);
            hist.fill(0);
            if !ok {
                return Err(format!("{name} is not a permutation of 0..{n}"));
            }
            for (d, &p) in dst.iter_mut().zip(src) {
                *d = p as u32;
            }
        }
        *maps_ready = true;
        Ok(())
    }
}

/// Inverts a permutation of `0..n`: `invert_permutation(p)[p[i]] == i`.
///
/// The canonical cache tier stores the *inverse* of the representative's
/// canonicalization permutations, so a hit composes "live → canonical →
/// representative" with two array reads per line.
pub fn invert_permutation(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{relabel_inputs, relabel_outputs};

    fn asg(n: usize, sets: Vec<Vec<usize>>) -> MulticastAssignment {
        MulticastAssignment::from_sets(n, sets).unwrap()
    }

    #[test]
    fn canonical_form_packs_fanouts_descending() {
        let a = asg(8, vec![
            vec![6],
            vec![],
            vec![0, 2, 5],
            vec![],
            vec![1, 7],
            vec![],
            vec![],
            vec![],
        ]);
        let c = canonicalize(&a);
        assert_eq!(c.canonical.dests(0), &[0, 1, 2]);
        assert_eq!(c.canonical.dests(1), &[3, 4]);
        assert_eq!(c.canonical.dests(2), &[5]);
        assert!(c.canonical.dests(3).is_empty());
        // Input 2 (fanout 3) ranks first; input 4 (fanout 2) second.
        assert_eq!(c.input_perm[2], 0);
        assert_eq!(c.input_perm[4], 1);
        assert_eq!(c.input_perm[0], 2);
        // The permutations really map the live assignment onto the form.
        let mapped = relabel_inputs(&relabel_outputs(&a, &c.output_perm), &c.input_perm);
        assert_eq!(mapped, c.canonical);
    }

    #[test]
    fn canonicalize_is_idempotent() {
        let a = asg(8, vec![
            vec![3, 4],
            vec![],
            vec![0],
            vec![],
            vec![1, 2, 6],
            vec![],
            vec![],
            vec![],
        ]);
        let c = canonicalize(&a);
        let cc = canonicalize(&c.canonical);
        assert_eq!(cc.canonical, c.canonical);
        let id: Vec<usize> = (0..8).collect();
        assert_eq!(cc.input_perm, id);
        assert_eq!(cc.output_perm, id);
    }

    #[test]
    fn relabelings_share_one_representative() {
        let a = asg(8, vec![
            vec![0, 5],
            vec![],
            vec![2],
            vec![],
            vec![1, 3, 7],
            vec![],
            vec![],
            vec![],
        ]);
        let rot_in: Vec<usize> = (0..8).map(|i| (i + 3) % 8).collect();
        let rot_out: Vec<usize> = (0..8).map(|d| (d + 5) % 8).collect();
        let b = relabel_inputs(&a, &rot_in);
        let c = relabel_outputs(&b, &rot_out);
        assert_ne!(a, c);
        assert_eq!(canonicalize(&a).canonical, canonicalize(&c).canonical);
        assert_eq!(
            canonicalize(&a).fingerprint(),
            canonicalize(&c).fingerprint()
        );
    }

    #[test]
    fn invert_permutation_round_trips() {
        let p = vec![3usize, 0, 2, 1];
        let inv = invert_permutation(&p);
        assert_eq!(inv, vec![1, 3, 2, 0]);
        for (i, &pi) in p.iter().enumerate() {
            assert_eq!(inv[pi], i);
        }
    }

    #[test]
    fn empty_assignment_canonicalizes_to_itself() {
        let a = MulticastAssignment::empty(4).unwrap();
        let c = canonicalize(&a);
        assert_eq!(c.canonical, a);
        assert_eq!(c.input_perm, vec![0, 1, 2, 3]);
        assert_eq!(c.output_perm, vec![0, 1, 2, 3]);
    }
}
