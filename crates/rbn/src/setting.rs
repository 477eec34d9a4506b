//! Compact switch settings `W^{n'/2}_{…}` and the parallel setting routines
//! of Table 5 (`BinaryCompactSetting` / `TrinaryCompactSetting`).
//!
//! A merging stage of an `n' × n'` (sub-)RBN contains `n'/2` switches; the
//! lemmas of the paper only ever require *circular compact* arrangements of
//! their settings, so the whole stage is described by at most three run
//! descriptors. These functions expand a descriptor into the per-switch
//! setting vector, exactly as each switch would compute it locally from its
//! own address (Table 5: all switches set simultaneously in parallel).
//!
//! The forest sweeps of [`crate::bitplan`] write the same two routines as
//! 2-bit codes straight into a packed stage plane (see [`crate::packed`]);
//! these allocating forms are the oracles those writers are tested against.

use crate::sequence::in_gamma_run;
use brsmn_switch::SwitchSetting;

/// `BinaryCompactSetting(n', s, l, setting1, setting2)` of Table 5: realizes
/// `W^{n'/2}_{s,l; setting1, setting2}` — `l` consecutive switches (circular,
/// starting at `s`) get `setting2`, the rest get `setting1`.
///
/// Returns the settings for the `n'/2` switches of the stage.
pub fn binary_compact_setting(
    n_prime: usize,
    s: usize,
    l: usize,
    setting1: SwitchSetting,
    setting2: SwitchSetting,
) -> Vec<SwitchSetting> {
    let half = n_prime / 2;
    assert!(s < half || (s == 0 && half == 0), "s={s} out of range for n'={n_prime}");
    assert!(l <= half, "l={l} out of range for n'={n_prime}");
    (0..half)
        .map(|i| {
            if in_gamma_run(half, s, l, i) {
                setting2
            } else {
                setting1
            }
        })
        .collect()
}

/// `TrinaryCompactSetting(n', s, l, setting1, setting2, setting3)` of Table 5:
/// realizes `W^{n'/2}_{s, l, n'/2−s−l; setting1, setting2, setting3}` —
/// switches `[s, s+l)` get `setting2`, switches `[s+l, n'/2)` get `setting3`,
/// and switches `[0, s)` get `setting1`.
///
/// Requires `s + l ≤ n'/2` (the third run fills to the end of the stage, so
/// nothing wraps). This is exactly the shape Lemmas 2–5 need in their
/// boundary-crossing cases.
pub fn trinary_compact_setting(
    n_prime: usize,
    s: usize,
    l: usize,
    setting1: SwitchSetting,
    setting2: SwitchSetting,
    setting3: SwitchSetting,
) -> Vec<SwitchSetting> {
    let half = n_prime / 2;
    assert!(
        s + l <= half,
        "trinary setting requires s + l <= n'/2 (s={s}, l={l}, n'={n_prime})"
    );
    (0..half)
        .map(|i| {
            if i < s {
                setting1
            } else if i < s + l {
                setting2
            } else {
                setting3
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use brsmn_switch::SwitchSetting::{Crossing, LowerBroadcast, Parallel, UpperBroadcast};

    #[test]
    fn binary_no_wrap() {
        let v = binary_compact_setting(8, 1, 2, Parallel, Crossing);
        assert_eq!(v, vec![Parallel, Crossing, Crossing, Parallel]);
    }

    #[test]
    fn binary_wraps_circularly() {
        let v = binary_compact_setting(8, 3, 2, Parallel, UpperBroadcast);
        assert_eq!(
            v,
            vec![UpperBroadcast, Parallel, Parallel, UpperBroadcast]
        );
    }

    #[test]
    fn binary_degenerate_l_zero_and_full() {
        assert_eq!(
            binary_compact_setting(8, 2, 0, Parallel, Crossing),
            vec![Parallel; 4]
        );
        assert_eq!(
            binary_compact_setting(8, 2, 4, Parallel, Crossing),
            vec![Crossing; 4]
        );
    }

    #[test]
    fn trinary_three_runs() {
        let v = trinary_compact_setting(8, 1, 2, Crossing, UpperBroadcast, Parallel);
        assert_eq!(
            v,
            vec![Crossing, UpperBroadcast, UpperBroadcast, Parallel]
        );
    }

    #[test]
    fn trinary_empty_middle_run() {
        let v = trinary_compact_setting(8, 2, 0, Parallel, LowerBroadcast, Crossing);
        assert_eq!(v, vec![Parallel, Parallel, Crossing, Crossing]);
    }

    #[test]
    #[should_panic]
    fn trinary_rejects_wrap() {
        let _ = trinary_compact_setting(8, 3, 2, Parallel, UpperBroadcast, Crossing);
    }

    #[test]
    fn smallest_stage_single_switch() {
        assert_eq!(
            binary_compact_setting(2, 0, 1, Parallel, Crossing),
            vec![Crossing]
        );
        assert_eq!(
            binary_compact_setting(2, 0, 0, Parallel, Crossing),
            vec![Parallel]
        );
    }
}
