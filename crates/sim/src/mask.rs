//! 256-bit STE vectors.
//!
//! A [`Mask256`] is one partition's worth of per-STE bits: the active-state
//! vector, match vector, report mask and switch row images are all values
//! of this type (paper Figure 2a).

use std::fmt;

/// A 256-bit vector indexed by STE column (0–255).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Mask256 {
    words: [u64; 4],
}

impl Mask256 {
    /// The all-zero vector.
    pub const ZERO: Mask256 = Mask256 { words: [0; 4] };

    /// Creates an empty vector.
    pub fn new() -> Mask256 {
        Mask256::ZERO
    }

    /// Sets bit `i`.
    pub fn set(&mut self, i: u8) {
        self.words[i as usize / 64] |= 1 << (i % 64);
    }

    /// Clears bit `i`.
    pub fn clear(&mut self, i: u8) {
        self.words[i as usize / 64] &= !(1 << (i % 64));
    }

    /// Reads bit `i`.
    pub fn get(&self, i: u8) -> bool {
        self.words[i as usize / 64] >> (i % 64) & 1 == 1
    }

    /// `true` if no bit is set (drives partition disabling).
    pub fn is_zero(&self) -> bool {
        self.words == [0; 4]
    }

    /// Number of set bits.
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Bitwise OR.
    #[must_use]
    pub fn or(&self, other: &Mask256) -> Mask256 {
        let mut words = self.words;
        for (a, b) in words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
        Mask256 { words }
    }

    /// Bitwise AND.
    #[must_use]
    pub fn and(&self, other: &Mask256) -> Mask256 {
        let mut words = self.words;
        for (a, b) in words.iter_mut().zip(other.words.iter()) {
            *a &= b;
        }
        Mask256 { words }
    }

    /// Bitwise AND-NOT (`self & !other`): the bits only `self` carries.
    ///
    /// The parallel scan driver uses this to isolate the carry-over states
    /// a stripe boundary hands to its successor beyond the always-armed
    /// start vector.
    #[must_use]
    pub fn and_not(&self, other: &Mask256) -> Mask256 {
        let mut words = self.words;
        for (a, b) in words.iter_mut().zip(other.words.iter()) {
            *a &= !b;
        }
        Mask256 { words }
    }

    /// In-place OR (the wired-OR a crossbar output column performs).
    pub fn or_assign(&mut self, other: &Mask256) {
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// Moves every bit `d` columns up (`b → b + d`) for `d` in `1..=63`,
    /// carrying across the word boundaries and dropping bits pushed past
    /// column 255: all of a partition's `s → s + d` local-switch edges in
    /// one operation (see [`fabric`](crate::fabric)).
    #[inline(always)]
    #[must_use]
    pub(crate) fn shifted_up(&self, d: u32) -> Mask256 {
        debug_assert!((1..=63).contains(&d), "shift distance {d} outside 1..=63");
        let [w0, w1, w2, w3] = self.words;
        let carry = 64 - d;
        Mask256 {
            words: [w0 << d, w1 << d | w0 >> carry, w2 << d | w1 >> carry, w3 << d | w2 >> carry],
        }
    }

    /// Iterates over set bit indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        (0usize..4).flat_map(move |w| {
            let mut word = self.words[w];
            std::iter::from_fn(move || {
                if word == 0 {
                    return None;
                }
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                Some((w * 64 + bit) as u8)
            })
        })
    }

    /// Raw word view (used by the ANML/SRAM image emitters).
    pub fn to_words(&self) -> [u64; 4] {
        self.words
    }

    /// Builds a mask from raw words.
    pub fn from_words(words: [u64; 4]) -> Mask256 {
        Mask256 { words }
    }
}

impl FromIterator<u8> for Mask256 {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Mask256 {
        let mut m = Mask256::new();
        for b in iter {
            m.set(b);
        }
        m
    }
}

impl fmt::Display for Mask256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, b) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{b}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_get_clear() {
        let mut m = Mask256::new();
        assert!(m.is_zero());
        m.set(0);
        m.set(63);
        m.set(64);
        m.set(255);
        assert!(m.get(0) && m.get(63) && m.get(64) && m.get(255));
        assert!(!m.get(1));
        assert_eq!(m.count(), 4);
        m.clear(63);
        assert!(!m.get(63));
        assert_eq!(m.count(), 3);
    }

    #[test]
    fn iter_ascending() {
        let m: Mask256 = [200u8, 5, 64].into_iter().collect();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![5, 64, 200]);
    }

    #[test]
    fn logic_ops() {
        let a: Mask256 = [1u8, 2, 3].into_iter().collect();
        let b: Mask256 = [3u8, 4].into_iter().collect();
        assert_eq!(a.or(&b).count(), 4);
        assert_eq!(a.and(&b).iter().collect::<Vec<_>>(), vec![3]);
        let mut c = a;
        c.or_assign(&b);
        assert_eq!(c, a.or(&b));
    }

    #[test]
    fn words_roundtrip() {
        let m: Mask256 = [7u8, 77, 177].into_iter().collect();
        assert_eq!(Mask256::from_words(m.to_words()), m);
    }

    /// `{ b + d | b ∈ m, b + d ≤ 255 }`, one bit at a time.
    fn shifted_reference(m: &Mask256, d: u32) -> Mask256 {
        m.iter().filter_map(|b| u8::try_from(u32::from(b) + d).ok()).collect()
    }

    #[test]
    fn shift_carries_across_every_word_boundary() {
        let shifted = |bit: u8, d| {
            let m: Mask256 = [bit].into_iter().collect();
            m.shifted_up(d).iter().collect::<Vec<_>>()
        };
        for boundary in [64u8, 128, 192] {
            assert_eq!(shifted(boundary - 1, 1), vec![boundary]);
            assert_eq!(shifted(boundary - 63, 63), vec![boundary]);
            assert_eq!(shifted(boundary - 1, 63), vec![boundary + 62]);
            assert_eq!(shifted(boundary - 2, 1), vec![boundary - 1], "no carry below the edge");
        }
        // one bit per word, moved together
        let m: Mask256 = [40u8, 104, 168, 232].into_iter().collect();
        assert_eq!(m.shifted_up(30).iter().collect::<Vec<_>>(), vec![70, 134, 198]);
    }

    #[test]
    fn shift_drops_bits_pushed_past_column_255() {
        let top: Mask256 = [255u8].into_iter().collect();
        assert!(top.shifted_up(1).is_zero());
        let m: Mask256 = [192u8, 193, 250].into_iter().collect();
        assert_eq!(m.shifted_up(63).iter().collect::<Vec<_>>(), vec![255]);
        let full = Mask256::from_words([u64::MAX; 4]);
        for d in 1..=63 {
            assert_eq!(full.shifted_up(d).count(), 256 - d, "d = {d}");
            assert_eq!(full.shifted_up(d), shifted_reference(&full, d), "d = {d}");
        }
    }

    proptest! {
        /// Every distance on arbitrary masks against the per-bit reference.
        #[test]
        fn shift_matches_per_bit_reference(
            words in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        ) {
            let m = Mask256::from_words([words.0, words.1, words.2, words.3]);
            for d in 1..=63 {
                prop_assert_eq!(m.shifted_up(d), shifted_reference(&m, d), "d = {}", d);
            }
        }
    }

    #[test]
    fn display() {
        let m: Mask256 = [3u8, 9].into_iter().collect();
        assert_eq!(m.to_string(), "{3,9}");
        assert_eq!(Mask256::ZERO.to_string(), "{}");
    }
}
