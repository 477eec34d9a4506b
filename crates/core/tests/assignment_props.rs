//! `MulticastAssignment`'s hand-written `==` and its in-place `from_sets`,
//! each against a plain oracle: `==` against a set-by-set comparison of
//! the public view, and `from_sets` against the `BTreeSet`-per-input
//! construction it replaced (same value, same first error) on unsorted,
//! duplicated, out-of-range and overlapping input, and `single_source`
//! against `from_sets` itself. The flat (CSR) storage is checked against a
//! nested `Vec<Vec<usize>>` oracle kept here: every accessor, `==`, and the
//! JSON text.

use brsmn_core::{AssignmentError, MulticastAssignment};
use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Set-by-set equality over the public view.
fn same_sets(a: &MulticastAssignment, b: &MulticastAssignment) -> bool {
    a.n() == b.n() && (0..a.n()).all(|i| a.dests(i) == b.dests(i))
}

/// The `BTreeSet`-per-input construction: each set sorted and deduplicated
/// through a `BTreeSet`, validated in input order and ascending destination
/// order against one claimed-output table.
fn from_sets_oracle(n: usize, sets: Vec<Vec<usize>>) -> Result<Vec<Vec<usize>>, AssignmentError> {
    if sets.len() != n {
        return Err(AssignmentError::WrongInputCount {
            got: sets.len(),
            expected: n,
        });
    }
    let mut claimed: Vec<Option<usize>> = vec![None; n];
    let mut dests = Vec::with_capacity(n);
    for (input, set) in sets.into_iter().enumerate() {
        let uniq: BTreeSet<usize> = set.into_iter().collect();
        for &d in &uniq {
            if d >= n {
                return Err(AssignmentError::DestOutOfRange { input, dest: d });
            }
            if let Some(first) = claimed[d] {
                return Err(AssignmentError::OverlappingDest {
                    dest: d,
                    first,
                    second: input,
                });
            }
            claimed[d] = Some(input);
        }
        dests.push(uniq.into_iter().collect());
    }
    Ok(dests)
}

/// A valid assignment from a per-output source choice.
fn from_choices(n: usize, choices: &[Option<usize>]) -> MulticastAssignment {
    let mut sets = vec![Vec::new(); n];
    for (o, c) in choices.iter().enumerate() {
        if let Some(src) = c {
            sets[*src].push(o);
        }
    }
    MulticastAssignment::from_sets(n, sets).expect("choices form a valid assignment")
}

fn sets_of(a: &MulticastAssignment) -> Vec<Vec<usize>> {
    (0..a.n()).map(|i| a.dests(i).to_vec()).collect()
}

/// A near-miss of `a`, picked by `kind`: an identical copy; one set moved
/// to another input; one destination swapped for another output (same set
/// length, different contents); the same sets in a network twice the size.
fn variant(a: &MulticastAssignment, kind: u8, pick: usize) -> MulticastAssignment {
    let n = a.n();
    let mut sets = sets_of(a);
    match kind {
        0 => {}
        1 => {
            let from = pick % n;
            let to = (from + 1 + pick / n % (n - 1)) % n;
            sets.swap(from, to);
        }
        2 => {
            let live: Vec<usize> = (0..n).filter(|&i| !sets[i].is_empty()).collect();
            let free: Vec<usize> = (0..n)
                .filter(|&o| a.source_of_output(o).is_none())
                .collect();
            if let (Some(&i), Some(&o)) = (live.get(pick % live.len().max(1)), free.first()) {
                let k = pick % sets[i].len();
                sets[i][k] = o;
            } else if let Some(&i) = live.first() {
                // Every output is claimed: drop one instead.
                sets[i].pop();
            }
        }
        _ => {
            sets.resize(2 * n, Vec::new());
            return MulticastAssignment::from_sets(2 * n, sets).unwrap();
        }
    }
    MulticastAssignment::from_sets(n, sets).unwrap()
}

fn frames() -> impl Strategy<Value = MulticastAssignment> {
    prop_oneof![Just(4usize), Just(8), Just(16)]
        .prop_flat_map(|n| (Just(n), vec(option::weighted(0.6, 0..n), n)))
        .prop_map(|(n, choices)| from_choices(n, &choices))
}

/// Raw sets (over valid sizes `n`) that may be unsorted, duplicated, out
/// of range (`n` and `n + 1`) or overlapping, with the wrong count now and
/// then.
fn raw_sets() -> impl Strategy<Value = (usize, Vec<Vec<usize>>)> {
    prop_oneof![Just(4usize), Just(8), Just(16)]
        .prop_flat_map(|n| (Just(n), vec(vec(0..n + 2, 0..5), n), 0u8..8))
        .prop_map(|(n, mut sets, short)| {
            if short == 0 {
                sets.pop();
            }
            (n, sets)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `==` agrees with the set-by-set oracle on near-misses of every kind,
    /// in both directions.
    #[test]
    fn equality_matches_the_set_by_set_oracle(
        a in frames(),
        kind in 0u8..4,
        pick in 0usize..1000,
    ) {
        let b = variant(&a, kind, pick);
        prop_assert_eq!(a == b, same_sets(&a, &b));
        prop_assert_eq!(b == a, same_sets(&b, &a));
        prop_assert!(a == a.clone());
        if kind == 3 {
            prop_assert!(a != b, "different n never compares equal");
        }
    }

    /// `from_sets` returns the oracle's value or the oracle's first error.
    #[test]
    fn from_sets_matches_the_btreeset_oracle((n, sets) in raw_sets()) {
        let want = from_sets_oracle(n, sets.clone());
        match (MulticastAssignment::from_sets(n, sets), want) {
            (Ok(a), Ok(dests)) => {
                prop_assert_eq!(sets_of(&a), dests);
            }
            (Err(e), Err(w)) => prop_assert_eq!(e, w),
            (got, want) => prop_assert!(false, "got {:?}, oracle {:?}", got, want),
        }
    }

    /// Valid sets handed over unsorted and with duplicates build the same
    /// assignment as the oracle, and as the sorted sets do.
    #[test]
    fn scrambled_valid_sets_build_the_oracle_value(a in frames(), rot in 0usize..5) {
        let n = a.n();
        let scrambled: Vec<Vec<usize>> = sets_of(&a)
            .into_iter()
            .map(|mut set| {
                if !set.is_empty() {
                    let k = rot % set.len();
                    set.rotate_left(k);
                    set.reverse();
                    set.push(set[0]);
                }
                set
            })
            .collect();
        let want = from_sets_oracle(n, scrambled.clone()).unwrap();
        let built = MulticastAssignment::from_sets(n, scrambled).unwrap();
        prop_assert_eq!(sets_of(&built), want);
        prop_assert!(built == a);
    }
}

#[test]
fn equality_separates_the_named_near_misses() {
    let a = MulticastAssignment::from_sets(4, vec![vec![0, 1], vec![], vec![2], vec![]]).unwrap();
    // The same set held by another input.
    let moved =
        MulticastAssignment::from_sets(4, vec![vec![], vec![0, 1], vec![2], vec![]]).unwrap();
    // One destination different, lengths equal.
    let one_dest =
        MulticastAssignment::from_sets(4, vec![vec![0, 3], vec![], vec![2], vec![]]).unwrap();
    // Same sets, larger network.
    let wider = MulticastAssignment::from_sets(
        8,
        vec![
            vec![0, 1],
            vec![],
            vec![2],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
        ],
    )
    .unwrap();
    for b in [&moved, &one_dest, &wider] {
        assert!(a != *b && !same_sets(&a, b));
    }
    assert_eq!(
        MulticastAssignment::empty(8).unwrap(),
        MulticastAssignment::empty(8).unwrap()
    );
    assert_ne!(
        MulticastAssignment::empty(4).unwrap(),
        MulticastAssignment::empty(8).unwrap()
    );
}

/// The nested-vector oracle of a frame drawn as per-output source choices:
/// output `o` joins the set of input `choices[o]`, in ascending `o`, so
/// every set is sorted.
fn nested(n: usize, choices: &[Option<usize>]) -> Vec<Vec<usize>> {
    let mut sets = vec![Vec::new(); n];
    for (o, c) in choices.iter().enumerate() {
        if let Some(src) = c {
            sets[*src].push(o);
        }
    }
    sets
}

fn notation(sets: &[Vec<usize>]) -> String {
    let parts: Vec<String> = sets
        .iter()
        .map(|d| {
            if d.is_empty() {
                "φ".to_string()
            } else {
                let items: Vec<String> = d.iter().map(|x| x.to_string()).collect();
                format!("{{{}}}", items.join(","))
            }
        })
        .collect();
    format!("{{{}}}", parts.join(", "))
}

/// Per-output choices over sizes {2, 4, 8, 16, 64}, with a second draw
/// that is the same choices, or the same with one output reassigned or
/// dropped (a near miss), or independent.
fn choice_pairs() -> impl Strategy<Value = (usize, Vec<Option<usize>>, Vec<Option<usize>>)> {
    prop_oneof![Just(2usize), Just(4), Just(8), Just(16), Just(64)]
        .prop_flat_map(|n| {
            (
                Just(n),
                (
                    vec(option::weighted(0.6, 0..n), n),
                    vec(option::weighted(0.6, 0..n), n),
                ),
                0u8..4,
                0usize..n,
                option::weighted(0.5, 0..n),
            )
        })
        .prop_map(|(n, (a, other), kind, o, src)| {
            let b = match kind {
                0 => a.clone(),
                1 | 2 => {
                    let mut b = a.clone();
                    b[o] = src;
                    b
                }
                _ => other,
            };
            (n, a, b)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every accessor of the flat storage reads what the nested oracle
    /// holds, and the JSON text is the oracle's nested lists.
    #[test]
    fn flat_storage_matches_the_nested_oracle((n, choices, _) in choice_pairs()) {
        let want = nested(n, &choices);
        let a = MulticastAssignment::from_sets(n, want.clone()).unwrap();
        prop_assert_eq!(a.n(), n);
        for (i, set) in want.iter().enumerate() {
            prop_assert_eq!(a.dests(i), &set[..]);
        }
        let pairs: Vec<(usize, Vec<usize>)> = a.iter().map(|(i, d)| (i, d.to_vec())).collect();
        prop_assert_eq!(pairs, want.iter().cloned().enumerate().collect::<Vec<_>>());
        prop_assert_eq!(a.active_inputs(), want.iter().filter(|s| !s.is_empty()).count());
        prop_assert_eq!(a.total_connections(), want.iter().map(Vec::len).sum::<usize>());
        prop_assert_eq!(a.max_fanout(), want.iter().map(Vec::len).max().unwrap_or(0));
        prop_assert_eq!(a.is_permutation(), want.iter().all(|s| s.len() <= 1));
        for (o, &src) in choices.iter().enumerate() {
            prop_assert_eq!(a.source_of_output(o), src);
        }
        prop_assert_eq!(a.set_notation(), notation(&want));
        let json = format!(r#"{{"n":{n},"dests":{}}}"#, serde_json::to_string(&want).unwrap());
        prop_assert_eq!(serde_json::to_string(&a).unwrap(), json.clone());
        let back: MulticastAssignment = serde_json::from_str(&json).unwrap();
        prop_assert!(back == a);
    }

    /// `==` on the flat storage is equality of `n` and of the nested sets.
    #[test]
    fn flat_equality_matches_the_nested_oracle((n, ca, cb) in choice_pairs()) {
        let (sa, sb) = (nested(n, &ca), nested(n, &cb));
        let a = MulticastAssignment::from_sets(n, sa.clone()).unwrap();
        let b = MulticastAssignment::from_sets(n, sb.clone()).unwrap();
        prop_assert_eq!(a == b, sa == sb);
        prop_assert_eq!(b == a, sa == sb);
        prop_assert!(a == a.clone());
        // The same sets in a network twice the size never compare equal.
        let mut wide = sa.clone();
        wide.resize(2 * n, Vec::new());
        prop_assert!(a != MulticastAssignment::from_sets(2 * n, wide).unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `single_source` is `from_sets` with one nonempty set — same value,
    /// same first error — on any size (powers of two or not), any source
    /// and unsorted, duplicated or out-of-range destinations; a source past
    /// the network is its own typed error, after the size check.
    #[test]
    fn single_source_matches_from_sets(
        n in 1usize..80,
        pick in 0usize..1000,
        dests in vec(0usize..90, 0..12),
    ) {
        let source = pick % n;
        let mut sets = vec![Vec::new(); n];
        sets[source] = dests.clone();
        prop_assert_eq!(
            MulticastAssignment::single_source(n, source, dests.clone()),
            MulticastAssignment::from_sets(n, sets)
        );
        let past = n + pick % 3;
        let want: Result<MulticastAssignment, AssignmentError> =
            MulticastAssignment::from_sets(n, vec![Vec::new(); n])
                .and(Err(AssignmentError::InputOutOfRange { input: past, n }));
        prop_assert_eq!(MulticastAssignment::single_source(n, past, dests), want);
    }
}
