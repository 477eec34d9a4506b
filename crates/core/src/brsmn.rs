//! The binary radix sorting multicast network (BRSMN) — the paper's primary
//! contribution (Sections 2 and 7).
//!
//! An `n × n` BRSMN is an `n × n` BSN followed by two `n/2 × n/2` BRSMNs
//! (Fig. 1); unrolled, level `i` holds `2^{i−1}` BSNs of size `n/2^{i−1}`,
//! and the final level is `n/2` plain 2×2 switches that realize the last bit
//! of every destination address directly (Fig. 2).
//!
//! Two engines are provided over the same fabric code: the **semantic**
//! engine (destination sets as payloads — the correctness reference) and the
//! **self-routing** engine (messages carry only their `SEQ` tag streams; the
//! network reads nothing else — faithful to the paper's hardware). Tests
//! assert the two always agree.

use crate::assignment::{MulticastAssignment, RoutingResult};
use crate::bsn::{Bsn, BsnTrace};
use crate::engine::StageTimer;
use crate::error::CoreError;
use crate::fastpath::{self, with_thread_scratch, RouteScratch};
use crate::payload::{payload_lines, RoutePayload, SelfRoutedMsg, SemanticMsg};
use crate::plancache::CapturedPlan;
use brsmn_rbn::RbnWiring;
use brsmn_switch::{Line, SwitchSetting, Tag};
use brsmn_topology::{check_size, log2_exact};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Per-level trace of a routed assignment (drives the Fig. 2 / Fig. 4b
/// reproductions).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelTrace {
    /// BSN level, 1-based (level `i` checks the `i`-th most significant
    /// address bit).
    pub level: usize,
    /// Size of each BSN at this level.
    pub block_size: usize,
    /// One BSN trace per block, left to right.
    pub blocks: Vec<BsnTrace>,
}

/// Full trace of one routed assignment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteTrace {
    /// Network size.
    pub n: usize,
    /// BSN levels `1 … log n − 1`.
    pub levels: Vec<LevelTrace>,
    /// Tags entering the final 2×2 switch stage.
    pub final_tags: Vec<Tag>,
    /// Settings chosen for the final 2×2 switches.
    pub final_settings: Vec<SwitchSetting>,
}

impl RouteTrace {
    /// An empty trace of an `n × n` network, ready to be filled by a traced
    /// route (such as [`Brsmn::route_lines`]).
    pub fn new(n: usize) -> Self {
        let m = log2_exact(n) as usize;
        RouteTrace {
            n,
            levels: (1..m)
                .map(|i| LevelTrace {
                    level: i,
                    block_size: n >> (i - 1),
                    blocks: Vec::with_capacity(1 << (i - 1)),
                })
                .collect(),
            final_tags: vec![Tag::Eps; n],
            final_settings: vec![SwitchSetting::Parallel; n / 2],
        }
    }
}

/// The `n × n` binary radix sorting multicast network.
///
/// Construction precomputes the shuffle/exchange wiring table once (shared
/// via [`Arc`], so cloning a network for worker threads is cheap). Routing
/// does not walk it: the level pass and the replay kernel derive each
/// switch's line pair from the same address formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Brsmn {
    n: usize,
    m: usize,
    wiring: Arc<RbnWiring>,
}

impl Brsmn {
    /// Creates a BRSMN of size `n = 2^m`.
    pub fn new(n: usize) -> Result<Self, CoreError> {
        check_size(n)?;
        Ok(Brsmn {
            n,
            m: log2_exact(n) as usize,
            wiring: Arc::new(RbnWiring::new(n)),
        })
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Address width / number of levels.
    pub fn levels(&self) -> usize {
        self.m
    }

    /// The precomputed per-level shuffle/exchange wiring (a BSN at level `i`
    /// uses stages `[0, log2 size)` of this table over its block's switch
    /// index range).
    pub fn wiring(&self) -> &RbnWiring {
        &self.wiring
    }

    /// Routes `asg` with the semantic engine on the zero-allocation fast
    /// path, using this thread's scratch arena. Bit-identical to
    /// [`Brsmn::route_reference`] (the property tests in
    /// `tests/fastpath_equivalence.rs` pin this).
    pub fn route(&self, asg: &MulticastAssignment) -> Result<RoutingResult, CoreError> {
        with_thread_scratch(self.n, |s| self.route_buffered(asg, s))
    }

    /// Routes `asg` on the fast path, returning a full per-level trace.
    pub fn route_traced(
        &self,
        asg: &MulticastAssignment,
    ) -> Result<(RoutingResult, RouteTrace), CoreError> {
        let mut trace = RouteTrace::new(self.n);
        let r = with_thread_scratch(self.n, |s| {
            fastpath::route_assignment_fast_buffered(
                self.n,
                asg,
                s,
                Some(&mut trace),
                None,
                None,
            )
        })?;
        Ok((r, trace))
    }

    /// Routes `asg` into a caller-provided arena with zero steady-state heap
    /// allocation (after the arena's one-time warm-up at this size). Read
    /// the delivery via [`RouteScratch::output_sources`].
    pub fn route_into(
        &self,
        asg: &MulticastAssignment,
        scratch: &mut RouteScratch,
    ) -> Result<(), CoreError> {
        fastpath::route_assignment_fast(self.n, asg, scratch, None, None, None)
    }

    /// [`Brsmn::route_into`] with per-stage instrumentation: the frame's
    /// level timings and per-op planning profile accumulate into `timer`
    /// (what the engine's workers record per frame). Heap-silent in steady
    /// state once `timer` has seen every level, like `route_into`.
    pub fn route_into_timed(
        &self,
        asg: &MulticastAssignment,
        scratch: &mut RouteScratch,
        timer: &mut StageTimer,
    ) -> Result<(), CoreError> {
        fastpath::route_assignment_fast(self.n, asg, scratch, None, Some(timer), None)
    }

    /// [`Brsmn::route_into`] plus collecting the delivery into a fresh
    /// [`RoutingResult`] (exactly one allocation per call).
    pub fn route_buffered(
        &self,
        asg: &MulticastAssignment,
        scratch: &mut RouteScratch,
    ) -> Result<RoutingResult, CoreError> {
        fastpath::route_assignment_fast_buffered(
            self.n,
            asg,
            scratch,
            None,
            None,
            None,
        )
    }

    /// Routes `asg` on the fast path while snapshotting every switch setting
    /// the planner chooses into a fresh [`CapturedPlan`]. The plan replays
    /// the same assignment later — through [`Brsmn::route_replay`] or an
    /// engine's [`crate::PlanCache`] — without re-running any planning
    /// sweep, bit-identically (sound because the self-routing construction
    /// makes every setting a pure function of the assignment; see
    /// [`crate::plancache`]).
    pub fn route_capture(
        &self,
        asg: &MulticastAssignment,
        scratch: &mut RouteScratch,
    ) -> Result<(RoutingResult, CapturedPlan), CoreError> {
        let mut plan = CapturedPlan::new(self.n)?;
        let r = fastpath::route_assignment_fast_buffered(
            self.n,
            asg,
            scratch,
            None,
            None,
            Some(&mut plan),
        )?;
        Ok((r, plan))
    }

    /// Replays a captured plan for `asg`: executes the snapshotted setting
    /// planes through the iterative level-order router with **zero**
    /// planning and zero steady-state allocation beyond the result `Vec`.
    /// The result is bit-identical to fresh routing of the same assignment;
    /// replaying against a *different* assignment fails delivery
    /// verification rather than misrouting silently.
    pub fn route_replay(
        &self,
        asg: &MulticastAssignment,
        plan: &CapturedPlan,
        scratch: &mut RouteScratch,
    ) -> Result<RoutingResult, CoreError> {
        fastpath::route_assignment_replay_buffered(self.n, asg, plan, scratch, None, None)
    }

    /// [`Brsmn::route_replay`] without the result allocation: the delivery
    /// stays in `scratch` (read it via [`RouteScratch::output_sources`]).
    /// A warm replay performs **zero** heap allocations — the `alloc-count`
    /// test in `brsmn-bench` pins this end to end through the cache.
    pub fn route_replay_into(
        &self,
        asg: &MulticastAssignment,
        plan: &CapturedPlan,
        scratch: &mut RouteScratch,
    ) -> Result<(), CoreError> {
        fastpath::route_assignment_replay(self.n, asg, plan, scratch, None, None)
    }

    /// [`Brsmn::route_replay`] with a full per-level trace. The trace (and
    /// the settings table left in `scratch`) is bit-identical to
    /// [`Brsmn::route_traced`] on the same assignment.
    pub fn route_replay_traced(
        &self,
        asg: &MulticastAssignment,
        plan: &CapturedPlan,
        scratch: &mut RouteScratch,
    ) -> Result<(RoutingResult, RouteTrace), CoreError> {
        let mut trace = RouteTrace::new(self.n);
        let r = fastpath::route_assignment_replay_buffered(
            self.n,
            asg,
            plan,
            scratch,
            Some(&mut trace),
            None,
        )?;
        Ok((r, trace))
    }

    /// Replays a plan captured for a **relabeling** of `asg`: live input
    /// `i` enters the plan at `input_map[i]`, live output `d` reads its
    /// delivery from `output_map[d]` (both bijections on `0..n`, typically
    /// composed from two [`crate::canonicalize`] runs — see
    /// [`crate::PlanCache::lookup_canonical`], which hands back exactly
    /// these maps). The maps are checked to be permutations and copied into
    /// `scratch`, then replayed as [`Brsmn::route_replay_permuted_into`]
    /// does. The result is bit-identical to fresh planning of `asg` itself;
    /// an inconsistent plan/permutation combination fails delivery
    /// verification rather than misrouting silently.
    pub fn route_replay_permuted(
        &self,
        asg: &MulticastAssignment,
        plan: &CapturedPlan,
        input_map: &[usize],
        output_map: &[usize],
        scratch: &mut RouteScratch,
    ) -> Result<RoutingResult, CoreError> {
        scratch.ensure(self.n);
        scratch
            .class_mut()
            .load_maps(input_map, output_map)
            .map_err(CoreError::Config)?;
        fastpath::route_assignment_replay_permuted(self.n, asg, plan, scratch, None)?;
        Ok(scratch.to_result())
    }

    /// The second half of a zero-allocation canonical hit: replays `plan`
    /// (captured for another member of `asg`'s relabeling class) through
    /// the live → plan maps [`crate::PlanCache::lookup_class`] left in
    /// `scratch`, and leaves the delivery there (read it via
    /// [`RouteScratch::output_sources`]). Runs the same bit-sliced kernel
    /// as an exact replay, on ids transposed in from the input map; the
    /// result is bit-identical to fresh planning of `asg`, and a plan or
    /// maps that do not fit `asg` fail delivery verification. Without maps
    /// in `scratch` (the last probe missed) it is a configuration error.
    ///
    /// ```
    /// use brsmn_core::{relabel_inputs, Brsmn, MulticastAssignment, PlanCache, RouteScratch};
    /// use std::sync::Arc;
    ///
    /// let net = Brsmn::new(8).unwrap();
    /// let mut scratch = RouteScratch::new(8).unwrap();
    /// let a = MulticastAssignment::from_sets(8, vec![
    ///     vec![0, 1], vec![], vec![3, 4, 7], vec![2],
    ///     vec![],     vec![], vec![],        vec![5, 6],
    /// ]).unwrap();
    /// let cache = PlanCache::new(4);
    /// let (_, plan) = net.route_capture(&a, &mut scratch).unwrap();
    /// cache.insert_canonical(&brsmn_core::canonicalize(&a), Arc::new(plan));
    ///
    /// // Another member of the class: the inputs rotated by one.
    /// let b = relabel_inputs(&a, &[1, 2, 3, 4, 5, 6, 7, 0]);
    /// let plan = cache.lookup_class(&b, &mut scratch).expect("class hit");
    /// net.route_replay_permuted_into(&b, &plan, &mut scratch).unwrap();
    /// let fresh = net.route(&b).unwrap();
    /// assert!(scratch.output_sources().enumerate().all(|(o, s)| s == fresh.output_source(o)));
    /// ```
    pub fn route_replay_permuted_into(
        &self,
        asg: &MulticastAssignment,
        plan: &CapturedPlan,
        scratch: &mut RouteScratch,
    ) -> Result<(), CoreError> {
        fastpath::route_assignment_replay_permuted(self.n, asg, plan, scratch, None)
    }

    /// Routes `asg` with the allocating reference engine (recursive,
    /// payload-splitting, array planners). Kept verbatim as the oracle for
    /// the fast path, and as the retry rung of the resilient ladder.
    pub fn route_reference(&self, asg: &MulticastAssignment) -> Result<RoutingResult, CoreError> {
        extract_result(self.route_lines_reference(semantic_lines(asg), None)?)
    }

    /// Routes `asg` with the reference engine, returning a full per-level
    /// trace.
    pub fn route_reference_traced(
        &self,
        asg: &MulticastAssignment,
    ) -> Result<(RoutingResult, RouteTrace), CoreError> {
        let mut trace = RouteTrace::new(self.n);
        let out = self.route_lines_reference(semantic_lines(asg), Some(&mut trace))?;
        Ok((extract_result(out)?, trace))
    }

    /// Routes `asg` with the **self-routing** engine: every message is
    /// reduced to its `SEQ` tag stream before entering the network, and all
    /// switch settings derive from stream heads alone.
    pub fn route_self_routing(
        &self,
        asg: &MulticastAssignment,
    ) -> Result<RoutingResult, CoreError> {
        let lines = payload_lines(asg, |i, dests| SelfRoutedMsg::prepare(self.n, i, dests));
        extract_result(self.route_lines(lines, None)?)
    }

    /// Routes pre-built lines (one per input; exposed for custom payloads
    /// and the workload and timing crates) through the level pass, on this
    /// thread's scratch arena: per BSN level, each line's entry tag comes
    /// from [`RoutePayload::entry_tag`], every block is planned and run at
    /// once, and each α payload is [`RoutePayload::split`] once into the
    /// copies that reach its two outputs; every payload then
    /// [`RoutePayload::descend`]s into its half. Pass a [`RouteTrace::new`]
    /// to record the route.
    ///
    /// Results and traces are [`Brsmn::route_lines_reference`]'s on the
    /// same lines, and so is the error of a load whose faults lie on one
    /// chain of nested blocks (one doubly claimed output, say). Faults in
    /// several subtrees are met level by level here, depth first there.
    pub fn route_lines<P: RoutePayload>(
        &self,
        lines: Vec<Line<P>>,
        trace: Option<&mut RouteTrace>,
    ) -> Result<Vec<Line<P>>, CoreError> {
        assert_eq!(lines.len(), self.n, "line count mismatch");
        with_thread_scratch(self.n, |s| fastpath::route_payload_lines(lines, s, trace))
    }

    /// Routes pre-built lines with the reference engine's recursion, block
    /// by block with the array planners: the oracle of
    /// [`Brsmn::route_lines`].
    pub fn route_lines_reference<P: RoutePayload>(
        &self,
        lines: Vec<Line<P>>,
        mut trace: Option<&mut RouteTrace>,
    ) -> Result<Vec<Line<P>>, CoreError> {
        assert_eq!(lines.len(), self.n, "line count mismatch");
        route_block(lines, 0, 1, &mut trace)
    }
}

/// The reference engine's input: one [`SemanticMsg`] per live input of
/// `asg`, carrying its destination set.
fn semantic_lines(asg: &MulticastAssignment) -> Vec<Line<SemanticMsg>> {
    payload_lines(asg, |i, dests| SemanticMsg::new(i, dests.to_vec()))
}

/// Collapses output lines into a [`RoutingResult`], verifying that every
/// delivered message belongs at its output.
pub(crate) fn extract_result<P: RoutePayload>(
    out: Vec<Line<P>>,
) -> Result<RoutingResult, CoreError> {
    let mut sources = Vec::with_capacity(out.len());
    for (o, line) in out.into_iter().enumerate() {
        match line.payload {
            Some(p) => {
                if !p.delivered_ok(o) {
                    return Err(CoreError::Internal(format!(
                        "message from input {} misdelivered to output {o}",
                        p.source()
                    )));
                }
                sources.push(Some(p.source()));
            }
            None => sources.push(None),
        }
    }
    Ok(RoutingResult::new(sources))
}

/// Recursive BRSMN routing over the block of outputs `[lo, lo + lines.len())`.
fn route_block<P: RoutePayload>(
    lines: Vec<Line<P>>,
    lo: usize,
    level: usize,
    trace: &mut Option<&mut RouteTrace>,
) -> Result<Vec<Line<P>>, CoreError> {
    let size = lines.len();
    if size == 2 {
        return final_switch(lines, lo, trace);
    }

    let bsn = Bsn::new(size)?;
    let (mut out, bsn_trace) = bsn.route_reference(lines, lo)?;
    if let Some(t) = trace {
        t.levels[level - 1].blocks.push(bsn_trace);
    }

    // Hand each message to its half (consumes one SEQ tag in the
    // self-routing engine).
    for line in out.iter_mut() {
        if line.tag != Tag::Eps {
            let branch = line.tag;
            let payload = line.payload.take().expect("tagged line has a payload");
            line.payload = Some(payload.descend(branch, lo, size));
        }
    }

    let lower = out.split_off(size / 2);
    let mut up = route_block(out, lo, level + 1, trace)?;
    let down = route_block(lower, lo + size / 2, level + 1, trace)?;
    up.extend(down);
    Ok(up)
}

/// The last level: one 2×2 switch realizing outputs `{lo, lo+1}` (the 2×2
/// BRSMN base case of Section 2).
pub(crate) fn final_switch<P: RoutePayload>(
    mut lines: Vec<Line<P>>,
    lo: usize,
    trace: &mut Option<&mut RouteTrace>,
) -> Result<Vec<Line<P>>, CoreError> {
    use SwitchSetting::*;
    debug_assert_eq!(lines.len(), 2);
    for line in lines.iter_mut() {
        line.tag = match &line.payload {
            Some(p) => p.entry_tag(lo, 2),
            None => Tag::Eps,
        };
    }
    let (tu, tl) = (lines[0].tag, lines[1].tag);
    let setting = match (tu, tl) {
        (Tag::Alpha, Tag::Eps) => UpperBroadcast,
        (Tag::Eps, Tag::Alpha) => LowerBroadcast,
        (Tag::Alpha, _) | (_, Tag::Alpha) => {
            return Err(CoreError::OutputConflict { output: lo });
        }
        (Tag::Zero, Tag::Zero) => return Err(CoreError::OutputConflict { output: lo }),
        (Tag::One, Tag::One) => return Err(CoreError::OutputConflict { output: lo + 1 }),
        (Tag::Zero, _) | (Tag::Eps, Tag::One) | (Tag::Eps, Tag::Eps) => Parallel,
        (Tag::One, _) | (Tag::Eps, Tag::Zero) => Crossing,
    };
    if let Some(t) = trace {
        t.final_tags[lo] = tu;
        t.final_tags[lo + 1] = tl;
        t.final_settings[lo / 2] = setting;
    }

    let mut it = lines.into_iter();
    let (upper, lower) = (it.next().unwrap(), it.next().unwrap());
    let out = match setting {
        Parallel => (upper, lower),
        Crossing => (lower, upper),
        UpperBroadcast | LowerBroadcast => {
            let alpha = if setting == UpperBroadcast {
                upper
            } else {
                lower
            };
            let p = alpha.payload.expect("α line has a payload");
            let (p0, p1) = p.split(lo, 2);
            (Line::with(Tag::Zero, p0), Line::with(Tag::One, p1))
        }
    };
    Ok(vec![out.0, out.1])
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
    fn fig2_example_routes_exactly() {
        let net = Brsmn::new(8).unwrap();
        let asg = paper_assignment();
        let result = net.route(&asg).unwrap();
        assert!(result.realizes(&asg));
        assert_eq!(result.output_source(0), Some(0));
        assert_eq!(result.output_source(1), Some(0));
        assert_eq!(result.output_source(2), Some(3));
        assert_eq!(result.output_source(3), Some(2));
        assert_eq!(result.output_source(4), Some(2));
        assert_eq!(result.output_source(5), Some(7));
        assert_eq!(result.output_source(6), Some(7));
        assert_eq!(result.output_source(7), Some(2));
    }

    #[test]
    fn self_routing_engine_agrees_on_paper_example() {
        let net = Brsmn::new(8).unwrap();
        let asg = paper_assignment();
        let sem = net.route(&asg).unwrap();
        let slf = net.route_self_routing(&asg).unwrap();
        assert_eq!(sem, slf);
        assert!(slf.realizes(&asg));
    }

    #[test]
    fn n2_base_case() {
        let net = Brsmn::new(2).unwrap();
        for (sets, expect) in [
            (vec![vec![0usize, 1], vec![]], vec![Some(0), Some(0)]),
            (vec![vec![1], vec![0]], vec![Some(1), Some(0)]),
            (vec![vec![], vec![]], vec![None, None]),
            (vec![vec![], vec![0, 1]], vec![Some(1), Some(1)]),
        ] {
            let asg = MulticastAssignment::from_sets(2, sets).unwrap();
            let r = net.route(&asg).unwrap();
            assert!(r.realizes(&asg));
            assert_eq!(
                (0..2).map(|o| r.output_source(o)).collect::<Vec<_>>(),
                expect
            );
        }
    }

    #[test]
    fn single_input_broadcast() {
        let net = Brsmn::new(16).unwrap();
        let mut sets = vec![Vec::new(); 16];
        sets[5] = (0..16).collect();
        let asg = MulticastAssignment::from_sets(16, sets).unwrap();
        for r in [net.route(&asg).unwrap(), net.route_self_routing(&asg).unwrap()] {
            assert!(r.realizes(&asg));
            assert!((0..16).all(|o| r.output_source(o) == Some(5)));
        }
    }

    #[test]
    fn identity_permutation() {
        let net = Brsmn::new(8).unwrap();
        let asg =
            MulticastAssignment::from_permutation(&(0..8).map(Some).collect::<Vec<_>>()).unwrap();
        let r = net.route(&asg).unwrap();
        assert!(r.realizes(&asg));
    }

    #[test]
    fn reversal_permutation_both_engines() {
        let net = Brsmn::new(16).unwrap();
        let perm: Vec<Option<usize>> = (0..16).map(|i| Some(15 - i)).collect();
        let asg = MulticastAssignment::from_permutation(&perm).unwrap();
        assert_eq!(
            net.route(&asg).unwrap(),
            net.route_self_routing(&asg).unwrap()
        );
    }

    #[test]
    fn trace_shape() {
        let net = Brsmn::new(8).unwrap();
        let (_, trace) = net.route_traced(&paper_assignment()).unwrap();
        assert_eq!(trace.levels.len(), 2);
        assert_eq!(trace.levels[0].block_size, 8);
        assert_eq!(trace.levels[0].blocks.len(), 1);
        assert_eq!(trace.levels[1].block_size, 4);
        assert_eq!(trace.levels[1].blocks.len(), 2);
        assert_eq!(trace.final_tags.len(), 8);
        // The final stage sees one tag per message: the example's 8 covered
        // outputs arrive as 7 messages (outputs 0 and 1 share one α).
        assert_eq!(
            trace.final_tags.iter().filter(|&&t| t != Tag::Eps).count(),
            7
        );
        assert_eq!(
            trace
                .final_tags
                .iter()
                .filter(|&&t| t == Tag::Alpha)
                .count(),
            1
        );
    }

    #[test]
    fn empty_assignment_is_silent() {
        let net = Brsmn::new(32).unwrap();
        let asg = MulticastAssignment::empty(32).unwrap();
        let r = net.route(&asg).unwrap();
        assert!(r.realizes(&asg));
        assert_eq!(r.active_outputs(), 0);
    }
}
