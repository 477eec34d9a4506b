//! Bit-packed switch settings: 2 bits per [`SwitchSetting`], 32 settings per
//! `u64` word.
//!
//! A BRSMN switch has four states (§3, Fig. 3), so an RBN stage of `n/2`
//! switches packs into `n` bits, 16× denser than the `Vec<SwitchSetting>`
//! tables of [`crate::fabric::RbnSettings`]. Code `k` of a run sits at bits
//! `2k` and `2k + 1` of word `k / 32`. Two containers share this layout:
//!
//! * [`PackedStages`] — the live table a level pass plans into and runs:
//!   `log₂ n` stage planes, each on its own words. The forest sweeps of
//!   [`crate::bitplan`] write Table 5's compact settings into a plane as
//!   packed spans (`binary_compact_codes`, `trinary_compact_codes`), and
//!   the executors read 32 codes per word.
//! * [`PackedSettings`] — one run of codes in one allocation. `brsmn-core`'s
//!   plan-capture cache copies every plane of a routed frame into one,
//!   whole words at a time ([`PackedSettings::store_codes`]), and replays it
//!   later without re-running any planning sweep.

use crate::fabric::RbnSettings;
use brsmn_switch::SwitchSetting;
use brsmn_topology::log2_exact;
use serde::{Deserialize, Serialize};

/// The canonical 2-bit code of a setting. Stable across versions: captured
/// plans serialized elsewhere rely on this mapping.
#[inline]
pub fn setting_code(s: SwitchSetting) -> u64 {
    match s {
        SwitchSetting::Parallel => 0,
        SwitchSetting::Crossing => 1,
        SwitchSetting::UpperBroadcast => 2,
        SwitchSetting::LowerBroadcast => 3,
    }
}

/// Inverse of [`setting_code`] (only the low 2 bits of `code` are read).
#[inline]
pub fn setting_from_code(code: u64) -> SwitchSetting {
    match code & 3 {
        0 => SwitchSetting::Parallel,
        1 => SwitchSetting::Crossing,
        2 => SwitchSetting::UpperBroadcast,
        _ => SwitchSetting::LowerBroadcast,
    }
}

/// The bits of codes `[a, b)` of a word (`a ≤ b ≤ 32`). The shift runs in
/// 128 bits, so `b = 32` needs no special case.
#[inline]
fn lanes(a: usize, b: usize) -> u64 {
    let below = |k: usize| ((1u128 << (2 * k)) - 1) as u64;
    below(b) & !below(a)
}

/// `s`'s code in all 32 positions of a word.
#[inline]
fn spread(s: SwitchSetting) -> u64 {
    setting_code(s) * 0x5555_5555_5555_5555
}

/// Stores the low `count` codes of `codes` (`count ≤ 32`) at switches
/// `[at, at + count)` of `plane`, and no other: one masked store, two when
/// the span straddles a word boundary.
#[inline]
pub(crate) fn put_codes(plane: &mut [u64], at: usize, count: usize, codes: u64) {
    debug_assert!(count <= 32);
    let (w, sh) = (at / 32, 2 * (at % 32));
    let mask = lanes(0, count);
    let codes = codes & mask;
    plane[w] = plane[w] & !(mask << sh) | codes << sh;
    if sh + 2 * count > 64 {
        let back = 64 - sh;
        plane[w + 1] = plane[w + 1] & !(mask >> back) | codes >> back;
    }
}

/// Sets switches `[from, to)` of `plane` to `s`: a masked store at each
/// end of the span and whole-word stores between them.
#[inline]
pub(crate) fn fill_codes(plane: &mut [u64], from: usize, to: usize, s: SwitchSetting) {
    if from >= to {
        return;
    }
    let rep = spread(s);
    let blend = |word: &mut u64, mask: u64| *word = *word & !mask | rep & mask;
    let (first, last) = (from / 32, (to - 1) / 32);
    let tail = lanes(0, (to - 1) % 32 + 1);
    if first == last {
        blend(&mut plane[first], lanes(from % 32, 32) & tail);
    } else {
        blend(&mut plane[first], lanes(from % 32, 32));
        plane[first + 1..last].fill(rep);
        blend(&mut plane[last], tail);
    }
}

/// Table 5's `BinaryCompactSetting`, written as codes: the `half` switches
/// of `plane` from switch `at` (`half` a power of two, `at` a multiple of
/// it) take `W^{half}_{s,l; setting1, setting2}` — `l` consecutive
/// switches, circular from `s`, get `setting2`, the rest `setting1`. A
/// slice inside one word (`half ≤ 32`) is one masked store; a wider one is
/// whole words, filled span by span. [`crate::setting::binary_compact_setting`]
/// is its oracle.
#[inline]
pub(crate) fn binary_compact_codes(
    plane: &mut [u64],
    at: usize,
    half: usize,
    s: usize,
    l: usize,
    setting1: SwitchSetting,
    setting2: SwitchSetting,
) {
    debug_assert!(half.is_power_of_two() && at.is_multiple_of(half));
    debug_assert!(s < half && l <= half, "s={s} l={l} half={half}");
    let end = s + l;
    if half <= 32 {
        let run = lanes(s, end.min(half)) | lanes(0, end.saturating_sub(half));
        put_codes(
            plane,
            at,
            half,
            spread(setting1) & !run | spread(setting2) & run,
        );
    } else if end <= half {
        fill_codes(plane, at, at + s, setting1);
        fill_codes(plane, at + s, at + end, setting2);
        fill_codes(plane, at + end, at + half, setting1);
    } else {
        let wrap = at + end - half;
        fill_codes(plane, at, wrap, setting2);
        fill_codes(plane, wrap, at + s, setting1);
        fill_codes(plane, at + s, at + half, setting2);
    }
}

/// Table 5's `TrinaryCompactSetting`, written as codes into the same kind
/// of slice as [`binary_compact_codes`]: switches `[0, s)` of the slice get
/// `setting1`, `[s, s + l)` `setting2` and `[s + l, half)` `setting3`
/// (`s + l ≤ half`, so nothing wraps).
/// [`crate::setting::trinary_compact_setting`] is its oracle.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn trinary_compact_codes(
    plane: &mut [u64],
    at: usize,
    half: usize,
    s: usize,
    l: usize,
    setting1: SwitchSetting,
    setting2: SwitchSetting,
    setting3: SwitchSetting,
) {
    debug_assert!(half.is_power_of_two() && at.is_multiple_of(half));
    debug_assert!(s + l <= half, "s={s} l={l} half={half}");
    let end = s + l;
    if half <= 32 {
        let codes = spread(setting1) & lanes(0, s)
            | spread(setting2) & lanes(s, end)
            | spread(setting3) & lanes(end, half);
        put_codes(plane, at, half, codes);
    } else {
        fill_codes(plane, at, at + s, setting1);
        fill_codes(plane, at + s, at + end, setting2);
        fill_codes(plane, at + end, at + half, setting3);
    }
}

/// The live switch table of an `n × n` RBN as codes: `log₂ n` stage planes
/// of `n/2` codes, each starting on a word boundary and taking ⌈n/64⌉
/// words. Codes past a plane's `n/2` (only when `n < 64`) stay parallel.
/// Switch `i` of stage `j` sits at bits `2i` and `2i + 1` of the plane:
/// the block of lines `[2^(j+1)·b, 2^(j+1)·(b + 1))` owns exactly those
/// bits of every stage `j' ≤ j`, so a node's merging stage is one span of
/// its plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedStages {
    n: usize,
    /// Words per plane.
    stride: usize,
    words: Vec<u64>,
}

impl PackedStages {
    /// All-parallel codes for an `n × n` RBN (`n` a power of two).
    pub fn identity(n: usize) -> Self {
        let stride = n.div_ceil(64);
        PackedStages {
            n,
            stride,
            words: vec![0; log2_exact(n) as usize * stride],
        }
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stage planes (`log₂ n`).
    pub fn num_stages(&self) -> usize {
        self.words.len() / self.stride
    }

    /// The words of stage `j`'s plane.
    #[inline]
    pub fn stage(&self, j: usize) -> &[u64] {
        &self.words[j * self.stride..(j + 1) * self.stride]
    }

    /// The words of stage `j`'s plane, to write.
    #[inline]
    pub fn stage_mut(&mut self, j: usize) -> &mut [u64] {
        &mut self.words[j * self.stride..(j + 1) * self.stride]
    }

    /// The setting of switch `i` of stage `j`.
    pub fn get(&self, j: usize, i: usize) -> SwitchSetting {
        debug_assert!(i < self.n / 2);
        setting_from_code(self.stage(j)[i / 32] >> (2 * (i % 32)))
    }

    /// Packs an unpacked table.
    pub fn from_settings(table: &RbnSettings) -> Self {
        let mut packed = PackedStages::identity(table.n());
        for j in 0..table.num_stages() {
            for (i, &s) in table.stage(j).iter().enumerate() {
                put_codes(packed.stage_mut(j), i, 1, setting_code(s));
            }
        }
        packed
    }

    /// The table unpacked, one [`SwitchSetting`] per switch.
    pub fn to_settings(&self) -> RbnSettings {
        let mut table = RbnSettings::identity(self.n);
        for j in 0..self.num_stages() {
            for (i, s) in table.stage_mut(j).iter_mut().enumerate() {
                *s = self.get(j, i);
            }
        }
        table
    }

    /// Heap bytes reserved by the word buffer.
    pub fn footprint_bytes(&self) -> usize {
        self.words.capacity() * 8
    }
}

/// A fixed-length array of [`SwitchSetting`]s packed 2 bits each into `u64`
/// words — one contiguous allocation, `Clone`-cheap relative to the unpacked
/// tables it snapshots.
///
/// Serializes as the raw `(words, len)` pair — the stable 2-bit code
/// mapping above is what makes persisted arenas portable. Deserialization
/// is unchecked; consumers of untrusted bytes must call
/// [`PackedSettings::invariants_ok`] before indexing.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PackedSettings {
    words: Vec<u64>,
    len: usize,
}

impl PackedSettings {
    /// A packed array of `len` settings, all [`SwitchSetting::Parallel`]
    /// (code 0).
    pub fn with_len(len: usize) -> Self {
        PackedSettings {
            words: vec![0u64; len.div_ceil(32)],
            len,
        }
    }

    /// Number of settings stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no settings are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The raw 2-bit code at `i`.
    #[inline]
    pub fn code(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        self.words[i >> 5] >> ((i & 31) << 1) & 3
    }

    /// The 32 codes starting at `i`, packed like one word: code `i` in the
    /// low two bits, code `i + 31` in the top two. `i` need not be a
    /// multiple of 32; codes beyond the last word read as 0, and callers
    /// mask off any codes beyond their own range.
    #[inline]
    pub fn codes_from(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        let (w, sh) = (i >> 5, (i & 31) << 1);
        let lo = self.words[w] >> sh;
        if sh == 0 {
            lo
        } else {
            lo | self.words.get(w + 1).map_or(0, |&hi| hi << (64 - sh))
        }
    }

    /// The setting at `i`.
    #[inline]
    pub fn get(&self, i: usize) -> SwitchSetting {
        setting_from_code(self.code(i))
    }

    /// Stores `s` at `i`.
    #[inline]
    pub fn set(&mut self, i: usize, s: SwitchSetting) {
        put_codes(&mut self.words, i, 1, setting_code(s));
    }

    /// Copies the first `count` codes of `codes` (packed as a
    /// [`PackedStages`] plane) to positions `[offset, offset + count)`.
    /// When both the offset and the count are multiples of 32 (a stage
    /// plane of an `n ≥ 64` network), whole words are copied; otherwise
    /// each word's codes are stored with one or two masked stores.
    pub fn store_codes(&mut self, offset: usize, count: usize, codes: &[u64]) {
        debug_assert!(offset + count <= self.len);
        if offset.is_multiple_of(32) && count.is_multiple_of(32) {
            self.words[offset / 32..(offset + count) / 32].copy_from_slice(&codes[..count / 32]);
        } else {
            for (k, &word) in (0..count).step_by(32).zip(codes) {
                put_codes(&mut self.words, offset + k, (count - k).min(32), word);
            }
        }
    }

    /// The inverse of [`PackedSettings::store_codes`]: copies positions
    /// `[offset, offset + count)` into the first `count` codes of `codes`,
    /// leaving any codes of `codes` past `count` as they were.
    pub fn load_codes(&self, offset: usize, count: usize, codes: &mut [u64]) {
        debug_assert!(offset + count <= self.len);
        if offset.is_multiple_of(32) && count.is_multiple_of(32) {
            codes[..count / 32].copy_from_slice(&self.words[offset / 32..(offset + count) / 32]);
        } else {
            for (k, word) in (0..count).step_by(32).zip(codes) {
                let mask = lanes(0, (count - k).min(32));
                *word = *word & !mask | self.codes_from(offset + k) & mask;
            }
        }
    }

    /// Heap bytes reserved by the word buffer.
    pub fn footprint_bytes(&self) -> usize {
        self.words.capacity() * 8
    }

    /// `true` when the word buffer is exactly sized for `len` settings —
    /// the invariant every constructor upholds and a deserialized value
    /// must be checked against (indexing a short buffer would panic).
    pub fn invariants_ok(&self) -> bool {
        self.words.len() == self.len.div_ceil(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setting::{binary_compact_setting, trinary_compact_setting};

    const ALL: [SwitchSetting; 4] = [
        SwitchSetting::Parallel,
        SwitchSetting::Crossing,
        SwitchSetting::UpperBroadcast,
        SwitchSetting::LowerBroadcast,
    ];

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// The setting of switch `i` of a plane.
    fn at(plane: &[u64], i: usize) -> SwitchSetting {
        setting_from_code(plane[i / 32] >> (2 * (i % 32)))
    }

    #[test]
    fn codes_round_trip() {
        for s in ALL {
            assert_eq!(setting_from_code(setting_code(s)), s);
        }
        // The mapping is pinned — captured plans depend on it.
        assert_eq!(setting_code(SwitchSetting::Parallel), 0);
        assert_eq!(setting_code(SwitchSetting::Crossing), 1);
        assert_eq!(setting_code(SwitchSetting::UpperBroadcast), 2);
        assert_eq!(setting_code(SwitchSetting::LowerBroadcast), 3);
    }

    #[test]
    fn set_get_across_word_boundaries() {
        for len in [1usize, 31, 32, 33, 64, 100] {
            let mut p = PackedSettings::with_len(len);
            assert_eq!(p.len(), len);
            let want: Vec<SwitchSetting> = (0..len).map(|i| ALL[(i * 7 + 3) % 4]).collect();
            for (i, &s) in want.iter().enumerate() {
                p.set(i, s);
            }
            for (i, &s) in want.iter().enumerate() {
                assert_eq!(p.get(i), s, "len={len} i={i}");
            }
        }
    }

    /// Word copies in and out of an arena, at aligned offsets (whole
    /// words) and at offsets and counts that start or end mid-word, where
    /// a word's codes may straddle two arena words.
    #[test]
    fn code_words_round_trip_at_offsets() {
        let mut next = xorshift(0x0C0D_E5ED);
        let len = 200;
        for offset in [0usize, 1, 17, 30, 32, 33, 64, 95] {
            for count in [1usize, 2, 15, 31, 32, 33, 64, 100] {
                if offset + count > len {
                    continue;
                }
                let before: Vec<u64> = (0..len.div_ceil(32)).map(|_| next()).collect();
                let codes: Vec<u64> = (0..count.div_ceil(32)).map(|_| next()).collect();
                let mut p = PackedSettings {
                    words: before.clone(),
                    len,
                };
                p.store_codes(offset, count, &codes);
                for i in 0..len {
                    let want = if (offset..offset + count).contains(&i) {
                        at(&codes, i - offset)
                    } else {
                        at(&before, i)
                    };
                    assert_eq!(p.get(i), want, "offset={offset} count={count} i={i}");
                }
                // Loading back fills exactly the first `count` codes.
                let fill: Vec<u64> = (0..codes.len()).map(|_| next()).collect();
                let mut back = fill.clone();
                p.load_codes(offset, count, &mut back);
                for k in 0..32 * back.len() {
                    let want = if k < count {
                        at(&codes, k)
                    } else {
                        at(&fill, k)
                    };
                    assert_eq!(at(&back, k), want, "offset={offset} count={count} k={k}");
                }
            }
        }
    }

    #[test]
    fn codes_from_reads_32_codes_at_any_offset() {
        let len = 100;
        let mut p = PackedSettings::with_len(len);
        for i in 0..len {
            p.set(i, ALL[(i * 5 + 1) % 4]);
        }
        for i in 0..len {
            let w = p.codes_from(i);
            for t in 0..32 {
                let want = if i + t < len {
                    setting_code(p.get(i + t))
                } else {
                    0
                };
                assert_eq!(w >> (2 * t) & 3, want, "i={i} t={t}");
            }
        }
    }

    #[test]
    fn footprint_is_one_word_per_32() {
        let p = PackedSettings::with_len(256);
        assert_eq!(p.footprint_bytes(), 8 * 8);
        assert!(PackedSettings::with_len(0).is_empty());
    }

    #[test]
    fn stage_planes_are_word_aligned_and_unpack_to_settings() {
        let mut next = xorshift(0x0057_A6E5);
        for n in [2usize, 4, 32, 64, 128, 512] {
            let mut t = PackedStages::identity(n);
            assert_eq!((t.n(), t.num_stages()), (n, n.ilog2() as usize));
            assert_eq!(t.footprint_bytes(), 8 * n.div_ceil(64) * t.num_stages());
            assert_eq!(t.to_settings(), RbnSettings::identity(n));
            let mut want = RbnSettings::identity(n);
            for j in 0..t.num_stages() {
                assert_eq!(t.stage(j).len(), n.div_ceil(64));
                for i in 0..n / 2 {
                    let s = ALL[(next() & 3) as usize];
                    want.stage_mut(j)[i] = s;
                    put_codes(t.stage_mut(j), i, 1, setting_code(s));
                }
            }
            assert_eq!(t.to_settings(), want, "n={n}");
            assert_eq!(PackedStages::from_settings(&want), t, "n={n}");
            // Codes past a short plane stay parallel.
            if n < 64 {
                assert!(t.words.iter().all(|&w| w >> n == 0), "n={n}");
            }
        }
    }

    /// `fill_codes` over every span of a 4-word plane (spans inside one
    /// word and spans crossing one, two or three word boundaries), for
    /// every code, on a random background.
    #[test]
    fn fill_sets_exactly_its_span() {
        let mut next = xorshift(0xF111);
        let switches = 128;
        let mut crossings = [0usize; 4];
        for from in 0..=switches {
            for to in from..=switches {
                if to > from {
                    crossings[(to - 1) / 32 - from / 32] += 1;
                }
                let before: Vec<u64> = (0..4).map(|_| next()).collect();
                for s in ALL {
                    let mut plane = before.clone();
                    fill_codes(&mut plane, from, to, s);
                    for i in 0..switches {
                        let want = if (from..to).contains(&i) {
                            s
                        } else {
                            at(&before, i)
                        };
                        assert_eq!(at(&plane, i), want, "[{from}, {to}) {s:?} at {i}");
                    }
                }
            }
        }
        assert!(crossings.iter().all(|&c| c > 0), "{crossings:?}");
    }

    /// One packed Table 5 write at switch `at` of a random 256-switch
    /// plane, checked against the allocating oracle's settings `want`:
    /// the slice holds them and no other switch changed.
    fn check_slice(
        plane: &mut [u64],
        background: &[u64],
        at_: usize,
        want: &[SwitchSetting],
        write: impl Fn(&mut [u64]),
        ctx: &dyn Fn() -> String,
    ) {
        plane.copy_from_slice(background);
        write(plane);
        let half = want.len();
        for (k, &s) in want.iter().enumerate() {
            assert_eq!(at(plane, at_ + k), s, "{} at slice switch {k}", ctx());
        }
        // Neighbours: every bit outside the slice's span is unchanged.
        for (w, (&got, &old)) in plane.iter().zip(background).enumerate() {
            let lo = (at_ as isize - 32 * w as isize).clamp(0, 32) as usize;
            let hi = ((at_ + half) as isize - 32 * w as isize).clamp(0, 32) as usize;
            let outside = !lanes(lo, hi);
            assert_eq!(got & outside, old & outside, "{} word {w}", ctx());
        }
    }

    /// The packed Table 5 writers against the allocating oracles. Every
    /// slice of 1–32 switches (inside one word) at every aligned offset of
    /// a 256-switch stage, with every start, every length (wrapping runs
    /// included) and every choice of codes; slices of 64 and 128 switches
    /// (whole words) on random samples.
    #[test]
    fn packed_table5_writers_match_the_allocating_oracles() {
        let mut next = xorshift(0x007A_B1E5);
        let switches = 256;
        let background: Vec<u64> = (0..switches / 32).map(|_| next()).collect();
        let mut plane = background.clone();
        let mut writes = 0usize;
        for half in [1usize, 2, 4, 8, 16, 32] {
            let offsets: Vec<usize> = (0..switches).step_by(half).collect();
            // Binary: every s < half and l ≤ half, so runs wrap.
            for (s, l) in (0..half).flat_map(|s| (0..=half).map(move |l| (s, l))) {
                for c in 0..16 {
                    let (s1, s2) = (ALL[c & 3], ALL[c >> 2]);
                    let want = binary_compact_setting(2 * half, s, l, s1, s2);
                    for &off in &offsets {
                        let ctx =
                            || format!("binary half={half} s={s} l={l} {s1:?}/{s2:?} at {off}");
                        let write =
                            |p: &mut [u64]| binary_compact_codes(p, off, half, s, l, s1, s2);
                        check_slice(&mut plane, &background, off, &want, write, &ctx);
                        writes += 1;
                    }
                }
            }
            // Trinary: every s + l ≤ half.
            for (s, l) in (0..=half).flat_map(|s| (0..=half - s).map(move |l| (s, l))) {
                for c in 0..64 {
                    let (s1, s2, s3) = (ALL[c & 3], ALL[c >> 2 & 3], ALL[c >> 4]);
                    let want = trinary_compact_setting(2 * half, s, l, s1, s2, s3);
                    for &off in &offsets {
                        let ctx = || {
                            format!("trinary half={half} s={s} l={l} {s1:?}/{s2:?}/{s3:?} at {off}")
                        };
                        let write =
                            |p: &mut [u64]| trinary_compact_codes(p, off, half, s, l, s1, s2, s3);
                        check_slice(&mut plane, &background, off, &want, write, &ctx);
                        writes += 1;
                    }
                }
            }
        }
        // Σ over half of (256/half offsets) · (pairs (s, l)) · code choices.
        assert_eq!(
            writes,
            16 * 256 * 69 + 64 * 10_872,
            "exhaustive write count"
        );
        for half in [64usize, 128] {
            for _ in 0..400 {
                let off = half * (next() as usize % (switches / half));
                let s = next() as usize % half;
                let l = next() as usize % (half + 1);
                let c = next() as usize;
                let (s1, s2, s3) = (ALL[c & 3], ALL[c >> 2 & 3], ALL[c >> 4 & 3]);
                let want = binary_compact_setting(2 * half, s, l, s1, s2);
                let ctx = || format!("binary half={half} s={s} l={l} {s1:?}/{s2:?} at {off}");
                let write = |p: &mut [u64]| binary_compact_codes(p, off, half, s, l, s1, s2);
                check_slice(&mut plane, &background, off, &want, write, &ctx);
                let l = l.min(half - s);
                let want = trinary_compact_setting(2 * half, s, l, s1, s2, s3);
                let ctx = || format!("trinary half={half} s={s} l={l} at {off}");
                let write = |p: &mut [u64]| trinary_compact_codes(p, off, half, s, l, s1, s2, s3);
                check_slice(&mut plane, &background, off, &want, write, &ctx);
            }
        }
    }
}
