//! Execution fabric for a reverse banyan network: a per-stage table of switch
//! settings plus a message-level executor.
//!
//! Stage `j` of an `n × n` RBN pairs lines differing in address bit `j`
//! (see `brsmn-topology`); the executor walks the stages in order, applying
//! each switch's setting to its pair of lines. Broadcast switches duplicate
//! the `α` payload via a caller-supplied splitter closure (see
//! [`clone_split`]), which lets the binary splitting network divide a
//! destination set (or a routing-tag stream) at the moment a connection
//! forks.

use brsmn_switch::{Line, SwitchError, SwitchSetting, Tag};
use brsmn_topology::{log2_exact, stage::rbn_stage_blocks};
use serde::{Deserialize, Serialize};

/// A *splitter* divides the payload of an `α` message into the payloads of
/// its `0`-tagged and `1`-tagged copies, in that order. Any
/// `FnMut(P) -> (P, P)` closure works; [`clone_split`] is the trivial one.
pub fn clone_split<P: Clone>(payload: P) -> (P, P) {
    (payload.clone(), payload)
}

/// The complete switch-setting table of an `n × n` RBN: `log2 n` stages of
/// `n/2` settings each.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RbnSettings {
    n: usize,
    /// `stages[j][i]` is the setting of switch `i` of stage `j` (switch
    /// indices as in `brsmn_topology::ReverseBanyanTopology::switch_at`).
    stages: Vec<Vec<SwitchSetting>>,
}

impl RbnSettings {
    /// All-parallel settings for an `n × n` RBN.
    pub fn identity(n: usize) -> Self {
        let m = log2_exact(n) as usize;
        RbnSettings {
            n,
            stages: vec![vec![SwitchSetting::Parallel; n / 2]; m],
        }
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stages (`log2 n`).
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Immutable view of one stage's settings.
    pub fn stage(&self, j: usize) -> &[SwitchSetting] {
        &self.stages[j]
    }

    /// Mutable view of one stage's settings.
    pub fn stage_mut(&mut self, j: usize) -> &mut [SwitchSetting] {
        &mut self.stages[j]
    }

    /// Writes the settings of the merging stage belonging to the sub-RBN of
    /// size `2^(j+1)` at block `b` of stage `j`: `block_settings` holds
    /// `2^j` entries which land at stage-`j` switch indices
    /// `[b·2^j, (b+1)·2^j)`.
    pub fn set_block(&mut self, j: usize, b: usize, block_settings: &[SwitchSetting]) {
        let w = 1usize << j;
        assert_eq!(block_settings.len(), w);
        self.stages[j][b * w..(b + 1) * w].copy_from_slice(block_settings);
    }

    /// Mutable view of the merging-stage slice that [`RbnSettings::set_block`]
    /// writes: the `2^j` stage-`j` settings of the sub-RBN at block `b`.
    /// Lets the zero-allocation planners fill settings in place.
    #[inline]
    pub fn block_mut(&mut self, j: usize, b: usize) -> &mut [SwitchSetting] {
        let w = 1usize << j;
        &mut self.stages[j][b * w..(b + 1) * w]
    }

    /// Resets every switch to parallel (used between passes of the feedback
    /// implementation when the physical RBN is re-programmed).
    pub fn reset_parallel(&mut self) {
        for stage in &mut self.stages {
            stage.fill(SwitchSetting::Parallel);
        }
    }

    /// Programs the switches of the sub-RBN occupying lines
    /// `[base, base + sub.n())` with the settings table of a `sub.n()`-sized
    /// network: local stage `j` switches map onto physical stage `j` indices
    /// `[base/2, base/2 + sub.n()/2)`.
    ///
    /// This is the "reuse" primitive of the feedback implementation
    /// (Section 7.3): deeper BSN levels re-program only the first stages of
    /// the single physical RBN, block by block.
    pub fn program_subnetwork(&mut self, base: usize, sub: &RbnSettings) {
        assert!(base.is_multiple_of(sub.n) && base + sub.n <= self.n);
        let w = sub.n / 2;
        for (j, sub_stage) in sub.stages.iter().enumerate() {
            self.stages[j][base / 2..base / 2 + w].copy_from_slice(sub_stage);
        }
    }

    /// Total number of switches *not* set to parallel — a rough utilization
    /// measure used by the examples.
    pub fn active_switches(&self) -> usize {
        self.stages
            .iter()
            .flatten()
            .filter(|s| **s != SwitchSetting::Parallel)
            .count()
    }

    /// Runs `lines` through the fabric, splitting `α` payloads with `split`.
    ///
    /// Returns the output lines or the first illegal switch operation
    /// encountered. The legality check is significant: it verifies at run
    /// time that every broadcast switch indeed pairs an `α` with an `ε`,
    /// which is exactly what Lemmas 2–5 promise.
    pub fn run<P, S: FnMut(P) -> (P, P)>(
        &self,
        lines: Vec<Line<P>>,
        split: &mut S,
    ) -> Result<Vec<Line<P>>, SwitchError> {
        assert_eq!(lines.len(), self.n);
        let mut lines = lines;
        for (j, stage) in self.stages.iter().enumerate() {
            run_stage_blocks(&mut lines, 0, self.n, j, stage, split)?;
        }
        Ok(lines)
    }

    /// Runs only stages `[0, k)` on the block of lines `[base, base + 2^k)`,
    /// mutating in place. This is the primitive the feedback implementation
    /// (Section 7.3) uses: later passes reuse only the first stages of the
    /// single physical RBN, independently per block.
    ///
    /// Local stage `j` of the sub-network maps onto physical stage `j` of
    /// this settings table (sub-networks of an RBN occupy the *first*
    /// stages).
    pub fn run_block<P, S: FnMut(P) -> (P, P)>(
        &self,
        lines: &mut [Line<P>],
        base: usize,
        size: usize,
        split: &mut S,
    ) -> Result<(), SwitchError> {
        let k = log2_exact(size) as usize;
        assert!(base.is_multiple_of(size) && base + size <= self.n);
        for j in 0..k {
            run_stage_blocks(lines, base, size, j, &self.stages[j], split)?;
        }
        Ok(())
    }
}

/// The shuffle/exchange wiring of an `n × n` RBN, precomputed once: for every
/// stage `j` and global switch index `i`, the `(upper, lower)` line pair
/// meeting at that switch.
///
/// The pairs are pure address arithmetic (stage `j` pairs lines differing in
/// bit `j`), so the table never changes for a given `n`. Switch `i` of
/// stage `j` joins line `u = ((i >> j) << (j + 1)) | (i mod 2^j)` and
/// `u + 2^j`, and a sub-RBN of size `2^k` at line `base` occupies the
/// contiguous switch range `[base/2, (base + 2^k)/2)` of every stage
/// `j < k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RbnWiring {
    n: usize,
    /// `stages[j][i]` = lines entering switch `i` of stage `j`.
    stages: Vec<Vec<(u32, u32)>>,
}

impl RbnWiring {
    /// Builds the wiring table for an `n × n` RBN (`n` a power of two ≥ 2).
    pub fn new(n: usize) -> Self {
        let m = log2_exact(n) as usize;
        let mut stages = Vec::with_capacity(m);
        for j in 0..m {
            let mask = (1usize << j) - 1;
            stages.push(
                (0..n / 2)
                    .map(|i| {
                        let u = ((i & !mask) << 1) | (i & mask);
                        (u as u32, (u | (1 << j)) as u32)
                    })
                    .collect(),
            );
        }
        RbnWiring { n, stages }
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The `(upper, lower)` line pairs of stage `j`, indexed by global switch
    /// index.
    #[inline]
    pub fn stage(&self, j: usize) -> &[(u32, u32)] {
        &self.stages[j]
    }
}

/// Applies stage `j` settings to the lines of `[base, base+size)`.
/// `stage_settings` is indexed by *global* switch index (line-pair position
/// divided appropriately), so both full-network and block-restricted runs
/// address the same physical switches.
fn run_stage_blocks<P, S: FnMut(P) -> (P, P)>(
    lines: &mut [Line<P>],
    base: usize,
    size: usize,
    j: usize,
    stage_settings: &[SwitchSetting],
    split: &mut S,
) -> Result<(), SwitchError> {
    for ms in rbn_stage_blocks(size, j as u32) {
        for i in 0..ms.switches() {
            let (u, l) = ms.pair(i);
            let (u, l) = (base + u, base + l);
            // Global switch index within the physical stage: drop bit j of
            // the upper line's position.
            let pos = u;
            let bit = 1usize << j;
            let idx = ((pos >> (j + 1)) << j) | (pos & (bit - 1));
            let setting = stage_settings[idx];
            apply_in_place(lines, u, l, setting, split)?;
        }
    }
    Ok(())
}

/// Applies one switch to lines `u` (upper) and `l` (lower) in place.
fn apply_in_place<P, S: FnMut(P) -> (P, P)>(
    lines: &mut [Line<P>],
    u: usize,
    l: usize,
    setting: SwitchSetting,
    split: &mut S,
) -> Result<(), SwitchError> {
    match setting {
        SwitchSetting::Parallel => Ok(()),
        SwitchSetting::Crossing => {
            lines.swap(u, l);
            Ok(())
        }
        SwitchSetting::UpperBroadcast => {
            if lines[u].tag != Tag::Alpha || lines[l].tag != Tag::Eps {
                return Err(SwitchError {
                    setting,
                    found: (lines[u].tag, lines[l].tag),
                });
            }
            let payload = std::mem::replace(&mut lines[u], Line::empty())
                .payload
                .expect("α line carries a payload");
            let (p0, p1) = split(payload);
            lines[u] = Line::with(Tag::Zero, p0);
            lines[l] = Line::with(Tag::One, p1);
            Ok(())
        }
        SwitchSetting::LowerBroadcast => {
            if lines[u].tag != Tag::Eps || lines[l].tag != Tag::Alpha {
                return Err(SwitchError {
                    setting,
                    found: (lines[u].tag, lines[l].tag),
                });
            }
            let payload = std::mem::replace(&mut lines[l], Line::empty())
                .payload
                .expect("α line carries a payload");
            let (p0, p1) = split(payload);
            lines[u] = Line::with(Tag::Zero, p0);
            lines[l] = Line::with(Tag::One, p1);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brsmn_switch::SwitchSetting::{Crossing, Parallel, UpperBroadcast};

    fn lines_of(tags: &[Tag]) -> Vec<Line<usize>> {
        tags.iter()
            .enumerate()
            .map(|(i, &t)| {
                if t == Tag::Eps {
                    Line::empty()
                } else {
                    Line::with(t, i)
                }
            })
            .collect()
    }

    #[test]
    fn identity_settings_pass_through() {
        let s = RbnSettings::identity(8);
        let input = lines_of(&[Tag::Zero; 8]);
        let out = s.run(input.clone(), &mut clone_split).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn crossing_last_stage_swaps_halves() {
        let mut s = RbnSettings::identity(4);
        for x in s.stage_mut(1) {
            *x = Crossing;
        }
        let input = lines_of(&[Tag::Zero, Tag::Zero, Tag::One, Tag::One]);
        let out = s.run(input, &mut clone_split).unwrap();
        let tags: Vec<Tag> = out.iter().map(|l| l.tag).collect();
        assert_eq!(tags, vec![Tag::One, Tag::One, Tag::Zero, Tag::Zero]);
        // Payload identities moved with the tags.
        assert_eq!(out[0].payload, Some(2));
        assert_eq!(out[2].payload, Some(0));
    }

    #[test]
    fn broadcast_duplicates_with_split() {
        let mut s = RbnSettings::identity(2);
        s.stage_mut(0)[0] = UpperBroadcast;
        let input = vec![Line::with(Tag::Alpha, 100usize), Line::empty()];
        let mut splitter = |p: usize| (p + 1, p + 2);
        let out = s.run(input, &mut splitter).unwrap();
        assert_eq!((out[0].tag, out[0].payload), (Tag::Zero, Some(101)));
        assert_eq!((out[1].tag, out[1].payload), (Tag::One, Some(102)));
    }

    #[test]
    fn illegal_broadcast_is_reported() {
        let mut s = RbnSettings::identity(2);
        s.stage_mut(0)[0] = UpperBroadcast;
        let input = lines_of(&[Tag::Zero, Tag::One]);
        let err = s.run(input, &mut clone_split).unwrap_err();
        assert_eq!(err.setting, UpperBroadcast);
        assert_eq!(err.found, (Tag::Zero, Tag::One));
    }

    #[test]
    fn set_block_addresses_stage_slices() {
        let mut s = RbnSettings::identity(8);
        // Stage 1 has blocks of 4 lines → 2 switches per block, 2 blocks.
        s.set_block(1, 1, &[Crossing, Crossing]);
        assert_eq!(s.stage(1), &[Parallel, Parallel, Crossing, Crossing]);
    }

    #[test]
    fn run_block_touches_only_its_block() {
        let mut s = RbnSettings::identity(8);
        for x in s.stage_mut(0) {
            *x = Crossing;
        }
        let mut lines = lines_of(&[
            Tag::Zero,
            Tag::One,
            Tag::Zero,
            Tag::One,
            Tag::Zero,
            Tag::One,
            Tag::Zero,
            Tag::One,
        ]);
        // Run a 2-line sub-network at base 2: only lines 2,3 swap.
        s.run_block(&mut lines, 2, 2, &mut clone_split).unwrap();
        let tags: Vec<Tag> = lines.iter().map(|l| l.tag).collect();
        assert_eq!(
            tags,
            vec![
                Tag::Zero,
                Tag::One,
                Tag::One,
                Tag::Zero,
                Tag::Zero,
                Tag::One,
                Tag::Zero,
                Tag::One
            ]
        );
    }

    #[test]
    fn wiring_matches_stage_geometry() {
        for n in [2usize, 4, 8, 32] {
            let wiring = RbnWiring::new(n);
            assert_eq!(wiring.n(), n);
            for j in 0..brsmn_topology::log2_exact(n) {
                let mut from_blocks = vec![(0u32, 0u32); n / 2];
                for ms in brsmn_topology::stage::rbn_stage_blocks(n, j) {
                    for i in 0..ms.switches() {
                        let (u, l) = ms.pair(i);
                        let bit = 1usize << j;
                        let idx = ((u >> (j + 1)) << j as usize) | (u & (bit - 1));
                        from_blocks[idx] = (u as u32, l as u32);
                    }
                }
                assert_eq!(wiring.stage(j as usize), &from_blocks[..], "n={n} j={j}");
            }
        }
    }

    #[test]
    fn block_mut_writes_like_set_block() {
        let mut a = RbnSettings::identity(8);
        let mut b = RbnSettings::identity(8);
        a.set_block(1, 1, &[Crossing, UpperBroadcast]);
        b.block_mut(1, 1).copy_from_slice(&[Crossing, UpperBroadcast]);
        assert_eq!(a, b);
    }

    #[test]
    fn active_switch_count() {
        let mut s = RbnSettings::identity(4);
        assert_eq!(s.active_switches(), 0);
        s.stage_mut(0)[1] = Crossing;
        s.stage_mut(1)[0] = UpperBroadcast;
        assert_eq!(s.active_switches(), 2);
    }
}
