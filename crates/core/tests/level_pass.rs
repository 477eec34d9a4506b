//! Oracle tests for the level pass, the one executor of a BSN level: it
//! sweeps (or loads), runs and captures every block of a level at once,
//! for fresh semantic routes, generic payload routes and traced replays.
//!
//! * The forest sweeps — [`SweepScratch::plan_scatter`] and
//!   [`SweepScratch::plan_quasisort_fused`] over all `n` tags of a level
//!   with block size `seg` — must write exactly what the per-block calls
//!   write, block after block, at every n ∈ {2, …, 1024} and every `seg`,
//!   with the same op tallies. Infeasible loads must fail with the error a
//!   block-by-block walk stops at: the Eq. (2) capacity check, α in the
//!   quasisort input, and half-overflow.
//! * Traced routes must equal the reference router's traces at n = 256 and
//!   512, where deep levels have many small blocks to slice
//!   (`fastpath_equivalence.rs` stops at n = 64).
//! * Generic payload routes ([`Brsmn::route_lines`]) with [`SemanticMsg`]
//!   and [`SelfRoutedMsg`] lines must return the reference router's
//!   results, full traces and output lines; [`RoutePayload::split`] must run
//!   once per α of each level; and a load with a doubly claimed output must
//!   fail with the reference router's error. A load with faults in two
//!   subtrees fails at the first fault in level order, where the
//!   reference's depth-first walk stops at another block.
//!
//! The token kernel is checked against `RbnSettings::run_block` by the unit
//! tests in `src/fastpath.rs`.

use brsmn_core::{
    payload_lines, Brsmn, CoreError, MulticastAssignment, RoutePayload, RouteScratch, RouteTrace,
    RoutingResult, SelfRoutedMsg, SemanticMsg,
};
use brsmn_rbn::{PackedStages, PlanError, PlanOpProfile, SweepScratch};
use brsmn_switch::tag::TagCounts;
use brsmn_switch::{Line, Tag};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

const TAGS: [Tag; 4] = [Tag::Zero, Tag::One, Tag::Alpha, Tag::Eps];

/// The exact op tallies of a profile (nanos depend on the clock).
fn ops(p: &PlanOpProfile) -> [u64; 4] {
    [p.tag_derive_ops, p.rank_ops, p.scatter_ops, p.quasisort_ops]
}

/// Loads `tags` through the planner's packer, as the level pass loads its
/// tokens.
fn load(sweep: &mut SweepScratch, tags: &[Tag]) {
    let mut tokens: Vec<u32> = tags.iter().map(|&t| t as u32).collect();
    sweep.set_tags(&mut tokens, |_| {});
}

/// Every (n, seg) pair the tests sweep: n = 2 … 1024, seg = 2 … n.
fn shapes() -> impl Iterator<Item = (usize, usize)> {
    (1..=10u32).flat_map(|m| (1..=m).map(move |k| (1usize << m, 1usize << k)))
}

#[test]
fn forest_scatter_matches_per_block_calls() {
    let mut next = rng(0x5CA7_7E12);
    for (n, seg) in shapes() {
        for _ in 0..4 {
            let tags: Vec<Tag> = (0..n).map(|_| TAGS[(next() & 3) as usize]).collect();
            let s_target = next() as usize % seg;
            let mut forest = SweepScratch::new();
            let mut got = PackedStages::identity(n);
            load(&mut forest, &tags);
            forest.plan_scatter(s_target, seg, 0, &mut got);

            let mut block = SweepScratch::new();
            let mut want = PackedStages::identity(n);
            for base in (0..n).step_by(seg) {
                load(&mut block, &tags[base..base + seg]);
                block.plan_scatter(s_target, seg, base, &mut want);
            }
            assert_eq!(got, want, "n={n} seg={seg}");
            assert_eq!(
                ops(&forest.take_profile()),
                ops(&block.take_profile()),
                "op tallies n={n} seg={seg}"
            );
        }
    }
}

/// Tags for the quasisort: mostly feasible 0/1/ε loads, sometimes with an
/// α or one overloaded block, so every error path is hit somewhere.
fn quasisort_tags(n: usize, seg: usize, next: &mut impl FnMut() -> u64) -> Vec<Tag> {
    let mut tags: Vec<Tag> = (0..n)
        .map(|_| match next() % 4 {
            0 => Tag::Zero,
            1 => Tag::One,
            _ => Tag::Eps,
        })
        .collect();
    match next() % 4 {
        0 => tags[next() as usize % n] = Tag::Alpha,
        1 => {
            let base = next() as usize % (n / seg) * seg;
            let fill = if next().is_multiple_of(2) {
                Tag::Zero
            } else {
                Tag::One
            };
            tags[base..base + seg].fill(fill);
        }
        _ => {}
    }
    tags
}

#[test]
fn forest_quasisort_matches_per_block_calls_and_errors() {
    let mut next = rng(0x0A5E_5027);
    let (mut planned, mut failed) = (0, 0);
    for (n, seg) in shapes() {
        for _ in 0..6 {
            let tags = quasisort_tags(n, seg, &mut next);
            let mut forest = SweepScratch::new();
            let mut got = PackedStages::identity(n);
            load(&mut forest, &tags);
            let got_res = forest.plan_quasisort_fused(seg, 0, &mut got);

            // The block-by-block walk stops at the first failing block.
            let mut block = SweepScratch::new();
            let mut want = PackedStages::identity(n);
            let mut want_res: Result<(), PlanError> = Ok(());
            for base in (0..n).step_by(seg) {
                load(&mut block, &tags[base..base + seg]);
                want_res = block.plan_quasisort_fused(seg, base, &mut want);
                if want_res.is_err() {
                    break;
                }
            }
            assert_eq!(got_res, want_res, "n={n} seg={seg}");
            if want_res.is_ok() {
                planned += 1;
                assert_eq!(got, want, "n={n} seg={seg}");
                assert_eq!(
                    ops(&forest.take_profile()),
                    ops(&block.take_profile()),
                    "op tallies n={n} seg={seg}"
                );
            } else {
                failed += 1;
            }
        }
    }
    assert!(
        planned > 100 && failed > 50,
        "planned {planned}, failed {failed}"
    );
}

#[test]
fn capacity_check_reports_the_first_overloaded_block() {
    let mut next = rng(0xCA9A_C17E);
    let mut overloaded = 0;
    for (n, seg) in shapes() {
        for _ in 0..6 {
            // α-heavy draws overload some blocks and not others.
            let tags: Vec<Tag> = (0..n)
                .map(|_| match next() % 8 {
                    0 => Tag::Alpha,
                    1 => Tag::Zero,
                    2 => Tag::One,
                    _ => Tag::Eps,
                })
                .collect();
            let mut sweep = SweepScratch::new();
            load(&mut sweep, &tags);
            let want = tags
                .chunks(seg)
                .map(TagCounts::of)
                .find(|c| !c.satisfies_bsn_input_constraints());
            overloaded += usize::from(want.is_some());
            assert_eq!(sweep.first_overloaded_block(seg), want, "n={n} seg={seg}");
        }
    }
    assert!(overloaded > 50, "only {overloaded} overloaded draws");
}

/// A frame of one of five shapes: dense, sparse, α-heavy, single
/// broadcast, permutation.
fn frame(n: usize, shape: u64, next: &mut impl FnMut() -> u64) -> MulticastAssignment {
    let mut sets = vec![Vec::new(); n];
    match shape {
        0 | 1 => {
            for d in 0..n {
                if shape == 0 || next().is_multiple_of(3) {
                    sets[next() as usize % n].push(d);
                }
            }
        }
        2 => (0..n).for_each(|d| sets[(next() as usize % 4) * n / 4].push(d)),
        3 => sets[next() as usize % n] = (0..n).collect(),
        _ => {
            let mut perm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                perm.swap(i, next() as usize % (i + 1));
            }
            for (i, o) in perm.into_iter().enumerate() {
                sets[i].push(o);
            }
        }
    }
    MulticastAssignment::from_sets(n, sets).unwrap()
}

#[test]
fn traced_routes_match_the_reference_at_deep_levels() {
    let mut next = rng(0x7ACE_D256);
    for n in [256usize, 512] {
        let net = Brsmn::new(n).unwrap();
        let mut scratch = RouteScratch::new(n).unwrap();
        for round in 0..10u64 {
            let asg = frame(n, round % 5, &mut next);
            let (got_r, got_t) = net.route_traced(&asg).unwrap();
            let (want_r, want_t) = net.route_reference_traced(&asg).unwrap();
            assert_eq!(got_r, want_r, "n={n} round={round}");
            assert_eq!(got_t, want_t, "n={n} round={round}");
            // The traced replay loads each level's planes whole: the same
            // result, trace and settings table as a fresh route.
            let (_, plan) = net.route_capture(&asg, &mut scratch).unwrap();
            let table = scratch.settings_table();
            net.route_into(&frame(n, round % 5, &mut next), &mut scratch)
                .unwrap();
            let (replay_r, replay_t) = net.route_replay_traced(&asg, &plan, &mut scratch).unwrap();
            assert_eq!(replay_r, want_r, "n={n} round={round}");
            assert_eq!(replay_t, want_t, "n={n} round={round}");
            assert_eq!(scratch.settings_table(), table, "n={n} round={round}");
            // Every level lists all of its blocks, left to right.
            for (i, level) in got_t.levels.iter().enumerate() {
                assert_eq!(level.blocks.len(), 1 << i, "n={n} level {}", i + 1);
            }
        }
    }
}

/// The routing result the output lines of a payload route deliver.
fn delivered<P: RoutePayload>(out: &[Line<P>]) -> RoutingResult {
    RoutingResult::new(
        out.iter()
            .map(|l| l.payload.as_ref().map(|p| p.source()))
            .collect(),
    )
}

/// One generic route per payload model against the reference router: the
/// same results and full trace as [`Brsmn::route_reference_traced`], and
/// the same output lines as [`Brsmn::route_lines_reference`].
fn check_generic_route<P: RoutePayload + PartialEq + std::fmt::Debug>(
    net: &Brsmn,
    asg: &MulticastAssignment,
    lines: impl Fn() -> Vec<Line<P>>,
    ctx: &str,
) {
    let (want_r, want_t) = net.route_reference_traced(asg).unwrap();
    let mut trace = RouteTrace::new(asg.n());
    let out = net.route_lines(lines(), Some(&mut trace)).unwrap();
    assert_eq!(delivered(&out), want_r, "{ctx}");
    assert_eq!(trace, want_t, "{ctx}");
    assert_eq!(
        out,
        net.route_lines_reference(lines(), None).unwrap(),
        "{ctx}"
    );
}

#[test]
fn generic_routes_match_the_reference_results_and_traces() {
    let mut next = rng(0x6E4E_21C5);
    for n in [2usize, 4, 8, 64, 256] {
        let net = Brsmn::new(n).unwrap();
        for round in 0..10u64 {
            let asg = frame(n, round % 5, &mut next);
            let ctx = format!("n={n} round={round}");
            check_generic_route(
                &net,
                &asg,
                || payload_lines(&asg, |i, d| SemanticMsg::new(i, d.to_vec())),
                &format!("semantic {ctx}"),
            );
            check_generic_route(
                &net,
                &asg,
                || payload_lines(&asg, |i, d| SelfRoutedMsg::prepare(n, i, d)),
                &format!("self-routing {ctx}"),
            );
        }
    }
}

/// A semantic message that tallies the splits made of it (and of its
/// copies) by block size.
#[derive(Debug, Clone)]
struct Tallied {
    msg: SemanticMsg,
    splits: Rc<RefCell<BTreeMap<usize, usize>>>,
}

impl RoutePayload for Tallied {
    fn source(&self) -> usize {
        self.msg.source
    }

    fn entry_tag(&self, lo: usize, size: usize) -> Tag {
        self.msg.entry_tag(lo, size)
    }

    fn split(&self, lo: usize, size: usize) -> (Self, Self) {
        *self.splits.borrow_mut().entry(size).or_default() += 1;
        let (a, b) = self.msg.split(lo, size);
        let copy = |msg| Tallied {
            msg,
            splits: Rc::clone(&self.splits),
        };
        (copy(a), copy(b))
    }

    fn descend(self, branch: Tag, lo: usize, size: usize) -> Self {
        Tallied {
            msg: self.msg.descend(branch, lo, size),
            ..self
        }
    }

    fn delivered_ok(&self, o: usize) -> bool {
        self.msg.delivered_ok(o)
    }
}

/// Tallied lines for `asg` (or any sets): one message per non-empty set.
fn tallied_lines(
    sets: &[Vec<usize>],
    splits: &Rc<RefCell<BTreeMap<usize, usize>>>,
) -> Vec<Line<Tallied>> {
    sets.iter()
        .enumerate()
        .map(|(i, d)| Line {
            tag: Tag::Eps,
            payload: (!d.is_empty()).then(|| Tallied {
                msg: SemanticMsg::new(i, d.clone()),
                splits: Rc::clone(splits),
            }),
        })
        .collect()
}

#[test]
fn split_runs_once_per_alpha_of_each_level() {
    let mut next = rng(0x5B11_7C0A);
    for n in [8usize, 64, 256] {
        let net = Brsmn::new(n).unwrap();
        for round in 0..10u64 {
            let asg = frame(n, round % 5, &mut next);
            let sets: Vec<Vec<usize>> = (0..n).map(|i| asg.dests(i).to_vec()).collect();
            let splits = Rc::new(RefCell::new(BTreeMap::new()));
            let mut trace = RouteTrace::new(n);
            let out = net
                .route_lines(tallied_lines(&sets, &splits), Some(&mut trace))
                .unwrap();
            assert!(delivered(&out).realizes(&asg), "n={n} round={round}");
            let alphas = |tags: &[Tag]| tags.iter().filter(|&&t| t == Tag::Alpha).count();
            let mut want = BTreeMap::new();
            for level in &trace.levels {
                let count: usize = level.blocks.iter().map(|b| alphas(&b.input_tags)).sum();
                want.insert(level.block_size, count);
            }
            want.insert(2, alphas(&trace.final_tags));
            want.retain(|_, count| *count > 0);
            assert_eq!(*splits.borrow(), want, "n={n} round={round}");
        }
    }
}

#[test]
fn a_doubly_claimed_output_fails_like_the_reference() {
    let mut next = rng(0xD0B1_E5E7);
    let (mut overloads, mut conflicts) = (0, 0);
    for n in [8usize, 64, 256] {
        let net = Brsmn::new(n).unwrap();
        for round in 0..20u64 {
            // A valid frame plus one more claim of a claimed output `o`,
            // by another input: every fault lies on the chain of blocks
            // leading to `o`, so the reference's depth-first walk and the
            // level pass stop at the same block.
            let asg = frame(n, round % 5, &mut next);
            let mut sets: Vec<Vec<usize>> = (0..n).map(|i| asg.dests(i).to_vec()).collect();
            let o = loop {
                let o = next() as usize % n;
                if asg.source_of_output(o).is_some() {
                    break o;
                }
            };
            let owner = asg.source_of_output(o).unwrap();
            let thief = (owner + 1 + next() as usize % (n - 1)) % n;
            sets[thief].push(o);
            sets[thief].sort_unstable();
            let splits = Rc::new(RefCell::new(BTreeMap::new()));
            let got = net
                .route_lines(tallied_lines(&sets, &splits), None)
                .unwrap_err();
            let want = net
                .route_lines_reference(tallied_lines(&sets, &splits), None)
                .unwrap_err();
            assert_eq!(got, want, "n={n} round={round}");
            match got {
                CoreError::HalfCapacityExceeded { .. } => overloads += 1,
                CoreError::OutputConflict { .. } => conflicts += 1,
                other => panic!("n={n} round={round}: {other}"),
            }
        }
    }
    // Both kinds of failure show up: an overloaded half and a final-stage
    // output conflict.
    assert!(
        overloads > 5 && conflicts > 5,
        "overloads {overloads}, conflicts {conflicts}"
    );
}

/// Faults in two subtrees: three messages for output 1 on inputs 0–2 and
/// five for output 9 on inputs 3–7, at n = 16. Level 1 holds and sends the
/// output-1 messages to lines 0–7, the output-9 messages to lines 8–15. At
/// level 2 the block of lines 8–15 breaks Eq. (2): all five ask for its
/// upper half (n₀ = 5 > 4). The reference recursion goes depth first into
/// lines 0–7, where level 2 holds, and stops at level 3 in the block of
/// lines 0–3 (n₀ = 3 > 2). The level pass reports the level-2 fault, the
/// one the hardware meets first, because every BSN of a level runs at once
/// (§7.3); [`Brsmn::route_lines`]' doc states this order.
#[test]
fn faults_in_two_subtrees_fail_in_level_order() {
    let n = 16;
    let net = Brsmn::new(n).unwrap();
    let mut sets = vec![Vec::new(); n];
    for set in &mut sets[0..3] {
        set.push(1);
    }
    for set in &mut sets[3..8] {
        set.push(9);
    }
    let lines = || -> Vec<Line<SemanticMsg>> {
        sets.iter()
            .enumerate()
            .map(|(i, d)| Line {
                tag: Tag::Eps,
                payload: (!d.is_empty()).then(|| SemanticMsg::new(i, d.clone())),
            })
            .collect()
    };
    assert_eq!(
        net.route_lines(lines(), None).unwrap_err(),
        CoreError::HalfCapacityExceeded {
            n: 8,
            n0: 5,
            n1: 0,
            na: 0
        }
    );
    assert_eq!(
        net.route_lines_reference(lines(), None).unwrap_err(),
        CoreError::HalfCapacityExceeded {
            n: 4,
            n0: 3,
            n1: 0,
            na: 0
        }
    );
}
