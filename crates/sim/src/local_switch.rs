//! The local switch as word-parallel operations.
//!
//! In hardware the L-switch is a crossbar: every matched STE drives its
//! row in the same cycle and the outputs wire-OR (paper §2.3–2.5), so a
//! step costs the same however many states matched. Walking the crossbar
//! one matched column at a time loses that, and the matrices rule sets
//! compile to are almost pure chains — nearly every edge is `s → s`,
//! `s → s + 1` or `s → s + 2`. A [`LocalSwitch`] is the Shift-And reading
//! of such a matrix: a self-loop mask plus one masked shift per forward
//! distance, with a row walk left only for the columns that do not fit.

use crate::mask::Mask256;
use std::cmp::Reverse;

/// Forward distances a switch applies as shifts.
const SHIFTS: usize = 3;

/// One partition's `local` matrix decomposed so that, for every match
/// vector `m`, [`LocalSwitch::apply`] equals the OR of `local[s]` over
/// the columns `s` of `m`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LocalSwitch {
    /// Columns with a self-loop.
    hold: Mask256,
    /// The partition's most frequent forward distances, each in `1..=63`;
    /// only the first `k` are in use.
    dist: [u32; SHIFTS],
    /// `cols[i]`: columns with an edge `s → s + dist[i]`.
    cols: [Mask256; SHIFTS],
    k: usize,
    /// Columns owning an edge the above cannot express — backward, 64 or
    /// more columns forward, or a fourth distinct distance. An exception
    /// column keeps its whole row walk and is masked out of `hold` and
    /// `cols`, so no edge is applied twice or half-applied.
    exceptions: Mask256,
}

impl LocalSwitch {
    /// Decomposes `local` (one destination row per column, at most 256).
    pub(crate) fn build(local: &[Mask256]) -> LocalSwitch {
        let columns = || (0..=u8::MAX).zip(local);
        let mut frequency = [0u32; 64];
        for (s, row) in columns() {
            for t in row.iter().filter(|&t| t > s && t - s < 64) {
                frequency[usize::from(t - s)] += 1;
            }
        }
        let mut ranked: Vec<u8> = (1..64).filter(|&d| frequency[usize::from(d)] > 0).collect();
        ranked.sort_by_key(|&d| (Reverse(frequency[usize::from(d)]), d));
        ranked.truncate(SHIFTS);

        let mut switch = LocalSwitch {
            hold: Mask256::ZERO,
            dist: [1; SHIFTS],
            cols: [Mask256::ZERO; SHIFTS],
            k: ranked.len(),
            exceptions: Mask256::ZERO,
        };
        for (slot, &d) in switch.dist.iter_mut().zip(&ranked) {
            *slot = u32::from(d);
        }
        for (s, row) in columns() {
            // Strike every edge a shift or the hold mask expresses; a
            // column with anything left over is an exception.
            let mut uncovered = *row;
            uncovered.clear(s);
            let mut shifted = [false; SHIFTS];
            for (hit, &d) in shifted.iter_mut().zip(&ranked) {
                if let Some(t) = s.checked_add(d).filter(|&t| row.get(t)) {
                    uncovered.clear(t);
                    *hit = true;
                }
            }
            if !uncovered.is_zero() {
                switch.exceptions.set(s);
                continue;
            }
            if row.get(s) {
                switch.hold.set(s);
            }
            for (cols, _) in switch.cols.iter_mut().zip(shifted).filter(|&(_, hit)| hit) {
                cols.set(s);
            }
        }
        switch
    }

    /// The next-state contribution of match vector `m`: what OR-ing
    /// `local[s]` for every `s` in `m` yields. `local` is the matrix this
    /// switch was built from.
    #[inline(always)]
    pub(crate) fn apply(&self, local: &[Mask256], m: &Mask256) -> Mask256 {
        let mut out = m.and(&self.hold);
        for i in 0..self.k {
            out.or_assign(&m.and(&self.cols[i]).shifted_up(self.dist[i]));
        }
        for s in m.and(&self.exceptions).iter() {
            out.or_assign(&local[s as usize]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The row walk the switch replaces.
    fn or_of_rows(local: &[Mask256], m: &Mask256) -> Mask256 {
        let mut out = Mask256::ZERO;
        for s in m.iter() {
            out.or_assign(&local[s as usize]);
        }
        out
    }

    fn matrix(columns: usize, edges: &[(u8, u8)]) -> Vec<Mask256> {
        let mut local = vec![Mask256::ZERO; columns];
        for &(s, t) in edges {
            local[s as usize].set(t);
        }
        local
    }

    fn mask(bits: &[u8]) -> Mask256 {
        bits.iter().copied().collect()
    }

    /// Every singleton, the full vector and the given masks reconstruct.
    fn assert_reconstructs(local: &[Mask256], masks: &[Mask256]) -> LocalSwitch {
        let switch = LocalSwitch::build(local);
        let occupied: Mask256 = (0..=u8::MAX).take(local.len()).collect();
        let singletons = occupied.iter().map(|s| mask(&[s]));
        for m in singletons.chain([occupied]).chain(masks.iter().map(|m| m.and(&occupied))) {
            assert_eq!(switch.apply(local, &m), or_of_rows(local, &m), "m = {m}");
        }
        switch
    }

    #[test]
    fn a_chain_with_loops_and_skips_needs_no_row_walk() {
        // The SPM shape: +1 everywhere, self-loops and +2 skips on some.
        let mut edges: Vec<(u8, u8)> = (0..255).map(|s| (s, s + 1)).collect();
        edges.extend((0..250).step_by(7).flat_map(|s| [(s, s), (s, s + 2)]));
        let local = matrix(256, &edges);
        let switch = assert_reconstructs(&local, &[mask(&[62, 63, 126, 127, 190, 191, 254, 255])]);
        assert_eq!((switch.k, &switch.dist[..2]), (2, &[1, 2][..]));
        assert!(switch.exceptions.is_zero());
        assert_eq!(switch.hold.count(), 36);
        assert_eq!(switch.cols[0].count(), 255);
    }

    #[test]
    fn edges_no_shift_expresses_become_exception_columns() {
        let local = matrix(
            256,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4), // +1 ×4: the first shift
                (10, 12),
                (11, 13),
                (12, 14), // +2 ×3
                (20, 25),
                (21, 26), // +5 ×2
                (30, 33), // +3 ×1: a fourth distance
                (40, 35), // backward
                (50, 114),
                (50, 51), // 64 forward, beside a covered +1 edge
                (60, 60),
                (60, 61),
                (60, 62),
                (60, 65), // multi-edge row, all covered
                (70, 70),
                (70, 71),
                (70, 7), // self-loop and +1 on a column that is an exception
                (191, 192),
                (192, 255), // +63 ×1, loses the ranking
            ],
        );
        let masks = [mask(&[0, 30, 40, 50, 60, 70]), mask(&[3, 12, 21, 191, 192]), mask(&[70])];
        let switch = assert_reconstructs(&local, &masks);
        assert_eq!((switch.k, switch.dist), (3, [1, 2, 5]));
        assert_eq!(switch.exceptions, mask(&[30, 40, 50, 70, 192]));
        // An exception column is masked out of every shift and the hold
        // mask, covered edges included: its row walk already applies them.
        assert_eq!(switch.hold, mask(&[60]));
        assert!(!switch.cols[0].get(50) && !switch.cols[0].get(70));
        assert_eq!(switch.cols[0], mask(&[0, 1, 2, 3, 60, 191]));
    }

    #[test]
    fn degenerate_matrices() {
        assert_reconstructs(&[], &[]);
        let empty = assert_reconstructs(&matrix(5, &[]), &[mask(&[0, 4])]);
        assert_eq!(empty.k, 0);
        // Only backward and long edges: everything is an exception.
        let local = matrix(200, &[(199, 0), (0, 64), (5, 199)]);
        let switch = assert_reconstructs(&local, &[mask(&[0, 5, 199])]);
        assert_eq!((switch.k, switch.exceptions), (0, mask(&[0, 5, 199])));
        // Distance 63 from the last column it fits.
        let far = assert_reconstructs(&matrix(256, &[(192, 255), (1, 64)]), &[mask(&[1, 192])]);
        assert_eq!((far.k, far.dist[0]), (1, 63));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random matrices biased to what breaks a decomposition: a few
        /// dominant distances, then stray edges of every kind.
        #[test]
        fn switch_equals_or_of_rows(
            columns in 1usize..=256,
            chains in prop::collection::vec((1u8..=70, 0u8..=255, 1u8..=255), 0..5),
            strays in prop::collection::vec((any::<u8>(), any::<u8>()), 0..40),
            masks in prop::collection::vec(
                (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 1..6),
        ) {
            let mut local = vec![Mask256::ZERO; columns];
            for (d, first, len) in chains {
                for s in (first..=u8::MAX).take(len as usize) {
                    if let Some(t) = s.checked_add(d).filter(|&t| (t as usize) < columns) {
                        local[s as usize].set(t);
                    }
                }
            }
            for (s, t) in strays {
                local[s as usize % columns].set((t as usize % columns) as u8);
            }
            let masks: Vec<Mask256> =
                masks.into_iter().map(|(a, b, c, d)| Mask256::from_words([a, b, c, d])).collect();
            assert_reconstructs(&local, &masks);
        }
    }
}
