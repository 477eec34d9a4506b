//! Oracle tests for the level pass: fresh planning sweeps, runs and
//! captures every BSN block of a level at once.
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
//!
//! The token kernel is checked against `run_block_fast` by the unit tests
//! in `src/fastpath.rs`.

use brsmn_core::{Brsmn, MulticastAssignment};
use brsmn_rbn::{PlanError, PlanOpProfile, RbnSettings, SweepScratch};
use brsmn_switch::tag::TagCounts;
use brsmn_switch::Tag;

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
            let mut got = RbnSettings::identity(n);
            forest.set_tags(n, |i| tags[i]);
            forest.plan_scatter(s_target, seg, 0, &mut got);

            let mut block = SweepScratch::new();
            let mut want = RbnSettings::identity(n);
            for base in (0..n).step_by(seg) {
                block.set_tags(seg, |i| tags[base + i]);
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
            let mut got = RbnSettings::identity(n);
            forest.set_tags(n, |i| tags[i]);
            let got_res = forest.plan_quasisort_fused(seg, 0, &mut got);

            // The block-by-block walk stops at the first failing block.
            let mut block = SweepScratch::new();
            let mut want = RbnSettings::identity(n);
            let mut want_res: Result<(), PlanError> = Ok(());
            for base in (0..n).step_by(seg) {
                block.set_tags(seg, |i| tags[base + i]);
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
            sweep.set_tags(n, |i| tags[i]);
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
        for round in 0..10u64 {
            let asg = frame(n, round % 5, &mut next);
            let (got_r, got_t) = net.route_traced(&asg).unwrap();
            let (want_r, want_t) = net.route_reference_traced(&asg).unwrap();
            assert_eq!(got_r, want_r, "n={n} round={round}");
            assert_eq!(got_t, want_t, "n={n} round={round}");
            // Every level lists all of its blocks, left to right.
            for (i, level) in got_t.levels.iter().enumerate() {
                assert_eq!(level.blocks.len(), 1 << i, "n={n} level {}", i + 1);
            }
        }
    }
}
