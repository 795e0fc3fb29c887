//! Captured carry-chain snapshots and their Hamming post-processing.

use fpga_fabric::TransitionKind;
use serde::{Deserialize, Serialize};

/// A bitmask over a carry chain's elements: bit `i` is word `i / 64`,
/// bit `i % 64`.
pub(crate) type ChainMask = [u64; CaptureWord::MAX_BITS / 64];

/// The mask with bits `0..n` set (`n <= MAX_BITS`).
pub(crate) fn low_bits(n: usize) -> ChainMask {
    let mut mask = ChainMask::default();
    for (k, m) in mask.iter_mut().enumerate() {
        *m = match n.saturating_sub(64 * k) {
            0 => 0,
            r if r >= 64 => u64::MAX,
            r => (1 << r) - 1,
        };
    }
    mask
}

/// Sets bit `i` of `mask`.
pub(crate) fn set_bit(mask: &mut ChainMask, i: usize) {
    mask[i / 64] |= 1 << (i % 64);
}

/// Whether bit `i` of `mask` is set.
pub(crate) fn test_bit(mask: &ChainMask, i: usize) -> bool {
    mask[i / 64] >> (i % 64) & 1 == 1
}

/// One snapshot of the capture registers: the chain state at the moment
/// the capture clock fired.
///
/// Post-processing follows the paper exactly: the *binary Hamming
/// distance* of the word from all-zeros for rising transitions, and from
/// all-ones for falling transitions, yields the propagation distance in
/// carry bits (Figure 3's example produces the sequence 39, 22, 38, 22).
///
/// The word is a fixed-size `Copy` value: it stores which elements the
/// edge passed as a bitmask, so a register bit is that mask bit for a
/// rising edge and its complement for a falling one. Either way the
/// distance is the mask's popcount, counted once when the word is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CaptureWord {
    kind: TransitionKind,
    len: u16,
    distance: u16,
    /// Bits at and past `len` are always clear, so derived equality
    /// compares exactly the captured register bits.
    passed: ChainMask,
}

impl CaptureWord {
    /// The longest chain a word can hold.
    pub const MAX_BITS: usize = 256;

    /// Wraps a captured register word, chain entry first.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is longer than [`MAX_BITS`](Self::MAX_BITS).
    #[must_use]
    pub fn new(kind: TransitionKind, bits: Vec<bool>) -> Self {
        assert!(bits.len() <= Self::MAX_BITS, "capture word too long");
        let mut passed = ChainMask::default();
        for (i, &b) in bits.iter().enumerate() {
            if b == matches!(kind, TransitionKind::Rising) {
                set_bit(&mut passed, i);
            }
        }
        Self::from_passed(kind, bits.len(), passed)
    }

    /// Builds a word of `len` bits from its "transition passed" mask,
    /// whose bits at and past `len` must be clear.
    pub(crate) fn from_passed(kind: TransitionKind, len: usize, passed: ChainMask) -> Self {
        assert!(len <= Self::MAX_BITS, "capture word too long");
        debug_assert!(
            passed
                .iter()
                .zip(low_bits(len))
                .all(|(&p, keep)| p & !keep == 0),
            "mask bits set past len"
        );
        let distance: u32 = passed.iter().map(|m| m.count_ones()).sum();
        Self {
            kind,
            len: len as u16,
            distance: distance as u16,
            passed,
        }
    }

    /// The "transition passed" mask: bit `i` is set when the edge passed
    /// element `i`.
    pub(crate) fn passed(&self) -> ChainMask {
        self.passed
    }

    /// The transition polarity this capture observed.
    #[must_use]
    pub fn kind(&self) -> TransitionKind {
        self.kind
    }

    /// Register bit `i`, counted from the chain entry.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.len(), "bit {i} out of a {}-bit word", self.len());
        test_bit(&self.passed, i) == matches!(self.kind, TransitionKind::Rising)
    }

    /// The register bits, chain entry first.
    pub fn bits(&self) -> impl Iterator<Item = bool> {
        let word = *self;
        (0..word.len()).map(move |i| word.bit(i))
    }

    /// Chain length.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether the word is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The propagation distance in carry bits: Hamming distance from
    /// all-zeros (rising) or all-ones (falling).
    #[must_use]
    pub fn propagation_distance(&self) -> usize {
        usize::from(self.distance)
    }

    /// Whether the edge overran the whole chain (distance == length) or
    /// never entered it (distance == 0) — either way the sample carries no
    /// timing information and θ must be retuned.
    #[must_use]
    pub fn is_saturated(&self) -> bool {
        self.distance == 0 || self.distance == self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn word_from_str(kind: TransitionKind, s: &str) -> CaptureWord {
        CaptureWord::new(kind, s.chars().map(|c| c == '1').collect())
    }

    #[test]
    fn rising_distance_counts_ones() {
        let w = word_from_str(TransitionKind::Rising, "11110000");
        assert_eq!(w.propagation_distance(), 4);
    }

    #[test]
    fn falling_distance_counts_zeros() {
        let w = word_from_str(TransitionKind::Falling, "00011111");
        assert_eq!(w.propagation_distance(), 3);
    }

    #[test]
    fn metastable_bubbles_still_count() {
        // Figure 3: "some metastability between the two points" — a bubble
        // near the front simply adds to the count like the paper's
        // Hamming-distance definition does.
        let w = word_from_str(TransitionKind::Rising, "11101000");
        assert_eq!(w.propagation_distance(), 4);
    }

    #[test]
    fn paper_figure3_hamming_sequence() {
        // Reconstruct the four captures of Figure 3's example: rising to
        // 39 and 38 bits, falling to 22 bits (twice), on a 64-bit chain.
        let rising0 = CaptureWord::new(TransitionKind::Rising, (0..64).map(|i| i < 39).collect());
        let falling0 =
            CaptureWord::new(TransitionKind::Falling, (0..64).map(|i| i >= 22).collect());
        let rising1 = CaptureWord::new(TransitionKind::Rising, (0..64).map(|i| i < 38).collect());
        let falling1 =
            CaptureWord::new(TransitionKind::Falling, (0..64).map(|i| i >= 22).collect());
        let seq: Vec<usize> = [rising0, falling0, rising1, falling1]
            .iter()
            .map(CaptureWord::propagation_distance)
            .collect();
        assert_eq!(seq, vec![39, 22, 38, 22]);
    }

    #[test]
    fn bits_round_trip_across_mask_words() {
        for len in [0, 1, 63, 64, 65, 128, 255, 256] {
            for kind in TransitionKind::ALL {
                let bits: Vec<bool> = (0..len).map(|i| (i * 7 + len) % 3 == 0).collect();
                let w = CaptureWord::new(kind, bits.clone());
                assert_eq!(w.len(), len);
                assert_eq!(w.bits().collect::<Vec<_>>(), bits);
                assert!((0..len).all(|i| w.bit(i) == bits[i]));
                let passed = bits
                    .iter()
                    .filter(|&&b| b == (kind == TransitionKind::Rising));
                assert_eq!(w.propagation_distance(), passed.count());
            }
        }
    }

    #[test]
    fn low_bits_fill_exactly_the_prefix() {
        for n in 0..=CaptureWord::MAX_BITS {
            let mask = low_bits(n);
            assert!((0..CaptureWord::MAX_BITS).all(|i| test_bit(&mask, i) == (i < n)));
        }
    }

    #[test]
    #[should_panic(expected = "too long")]
    fn overlong_words_are_rejected() {
        let _ = CaptureWord::new(
            TransitionKind::Rising,
            vec![true; CaptureWord::MAX_BITS + 1],
        );
    }

    #[test]
    fn saturation_detection() {
        assert!(word_from_str(TransitionKind::Rising, "0000").is_saturated());
        assert!(word_from_str(TransitionKind::Rising, "1111").is_saturated());
        assert!(!word_from_str(TransitionKind::Rising, "1100").is_saturated());
        assert!(word_from_str(TransitionKind::Falling, "1111").is_saturated());
    }
}
