//! Bit-packed switch-setting storage: 2 bits per [`SwitchSetting`], 32
//! settings per `u64` word, one contiguous allocation.
//!
//! A planned RBN stage is a run of 2×2 switch settings, and a setting is one
//! of exactly four values — so a full per-level/per-stage setting tensor
//! packs 16× denser than the `Vec<SwitchSetting>` tables of
//! [`crate::fabric::RbnSettings`]. `brsmn-core`'s plan-capture cache stores
//! every plane of a routed frame in one [`PackedSettings`] arena and replays
//! it later without re-running any planning sweep.

use brsmn_switch::SwitchSetting;
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
        debug_assert!(i < self.len);
        let sh = (i & 31) << 1;
        let w = &mut self.words[i >> 5];
        *w = (*w & !(3u64 << sh)) | (setting_code(s) << sh);
    }

    /// Packs `src` into positions `[offset, offset + src.len())`. When
    /// both the offset and the length are multiples of 32 (a full-width
    /// stage plane of an `n ≥ 64` network), whole words are packed and
    /// stored at once; otherwise setting by setting.
    pub fn store_slice(&mut self, offset: usize, src: &[SwitchSetting]) {
        debug_assert!(offset + src.len() <= self.len);
        if offset.is_multiple_of(32) && src.len().is_multiple_of(32) {
            let words = &mut self.words[offset / 32..(offset + src.len()) / 32];
            for (w, chunk) in words.iter_mut().zip(src.chunks_exact(32)) {
                *w = chunk
                    .iter()
                    .enumerate()
                    .fold(0, |acc, (t, &s)| acc | setting_code(s) << (2 * t));
            }
        } else {
            for (k, &s) in src.iter().enumerate() {
                self.set(offset + k, s);
            }
        }
    }

    /// Unpacks positions `[offset, offset + dst.len())` into `dst`.
    pub fn load_slice(&self, offset: usize, dst: &mut [SwitchSetting]) {
        for (k, d) in dst.iter_mut().enumerate() {
            *d = self.get(offset + k);
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

    const ALL: [SwitchSetting; 4] = [
        SwitchSetting::Parallel,
        SwitchSetting::Crossing,
        SwitchSetting::UpperBroadcast,
        SwitchSetting::LowerBroadcast,
    ];

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

    #[test]
    fn slices_round_trip_at_offsets() {
        let mut p = PackedSettings::with_len(96);
        let src = [
            SwitchSetting::LowerBroadcast,
            SwitchSetting::Crossing,
            SwitchSetting::UpperBroadcast,
        ];
        p.store_slice(30, &src); // straddles the first word boundary
        let mut dst = [SwitchSetting::Parallel; 3];
        p.load_slice(30, &mut dst);
        assert_eq!(dst, src);
        // Neighbours untouched.
        assert_eq!(p.get(29), SwitchSetting::Parallel);
        assert_eq!(p.get(33), SwitchSetting::Parallel);
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
}
