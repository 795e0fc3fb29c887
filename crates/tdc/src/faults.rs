//! Measurement-level fault injection.
//!
//! Real TDC captures on rented hardware are not clean: readback DMA drops
//! words, carry elements come back stuck after partial reconfiguration,
//! and supply transients widen the metastable band for whole traces. A
//! [`SensorFaultPlan`] injects all three **deterministically**: every
//! decision is a pure hash of `(seed, θ, polarity, sample, element)`, so a
//! faulty capture replays bit-identically and never perturbs the sensor's
//! own noise RNG — a benign plan leaves the sensor byte-identical to one
//! with no plan at all.
//!
//! The matching graceful-degradation machinery lives in
//! [`Measurement::try_from_traces`](crate::Measurement::try_from_traces)
//! (per-sample quorum + MAD outlier rejection across traces).

use fpga_fabric::TransitionKind;
use serde::{Deserialize, Serialize};

use crate::capture::{low_bits, set_bit, ChainMask};
use crate::{CaptureWord, Trace};

/// A seeded, deterministic description of how corrupted captures are.
///
/// All rates are probabilities in `[0, 1]`. The default
/// ([`SensorFaultPlan::none`]) injects nothing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorFaultPlan {
    /// Seed all decisions derive from.
    pub seed: u64,
    /// Per-sample probability the captured word is lost (reads back as if
    /// the edge never entered the chain — a saturated, zero-distance
    /// word the quorum filter can reject).
    pub dropout_rate: f64,
    /// Per-element probability a carry element's capture register is
    /// stuck at a fixed value for the sensor's lifetime.
    pub stuck_element_rate: f64,
    /// Per-trace probability of a metastability burst: every bit within
    /// the burst half-width of the transition front may flip.
    pub metastability_burst_rate: f64,
    /// Half-width of a burst around the front, in carry elements.
    pub burst_half_width: usize,
}

impl Default for SensorFaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl SensorFaultPlan {
    /// The clean sensor: nothing is ever corrupted.
    #[must_use]
    pub fn none() -> Self {
        Self {
            seed: 0,
            dropout_rate: 0.0,
            stuck_element_rate: 0.0,
            metastability_burst_rate: 0.0,
            burst_half_width: 0,
        }
    }

    /// A hostile capture path with every fault at `intensity` and
    /// 4-element metastability bursts.
    #[must_use]
    pub fn noisy(seed: u64, intensity: f64) -> Self {
        let p = intensity.clamp(0.0, 1.0);
        Self {
            seed,
            dropout_rate: p,
            stuck_element_rate: (p / 4.0).min(0.25),
            metastability_burst_rate: p,
            burst_half_width: 4,
        }
    }

    /// Whether any fault can ever fire under this plan.
    #[must_use]
    pub fn is_benign(&self) -> bool {
        self.dropout_rate <= 0.0
            && self.stuck_element_rate <= 0.0
            && self.metastability_burst_rate <= 0.0
    }

    /// Applies this plan's corruption to a freshly captured trace.
    ///
    /// Pure in `(plan, trace contents)`: the same trace corrupts the same
    /// way every time.
    #[must_use]
    pub fn corrupt_trace(&self, trace: Trace) -> Trace {
        if self.is_benign() {
            return trace;
        }
        let theta_bits = trace.theta_ps().to_bits();
        let stuck = self.stuck_elements();
        let corrupt = |kind: TransitionKind| -> Vec<CaptureWord> {
            trace
                .words(kind)
                .iter()
                .enumerate()
                .map(|(i, w)| self.corrupt_word(theta_bits, kind, &stuck, i, w))
                .collect()
        };
        let rising = corrupt(TransitionKind::Rising);
        let falling = corrupt(TransitionKind::Falling);
        Trace::new(trace.theta_ps(), rising, falling)
    }

    /// The stuck capture registers over the longest possible chain.
    /// They are a property of the element, not the sample: decided from
    /// `(seed, element)` alone.
    fn stuck_elements(&self) -> StuckElements {
        let mut stuck = StuckElements::default();
        if self.stuck_element_rate > 0.0 {
            for j in 0..CaptureWord::MAX_BITS {
                let roll = uniform_hash(self.seed ^ 0x5354_5543, j as u64);
                if roll < self.stuck_element_rate {
                    set_bit(&mut stuck.mask, j);
                    if roll < self.stuck_element_rate / 2.0 {
                        set_bit(&mut stuck.high, j);
                    }
                }
            }
        }
        stuck
    }

    /// Corrupts one word with mask operations on its register bits.
    fn corrupt_word(
        &self,
        theta_bits: u64,
        kind: TransitionKind,
        stuck: &StuckElements,
        sample: usize,
        word: &CaptureWord,
    ) -> CaptureWord {
        let kind_tag = match kind {
            TransitionKind::Rising => 0x5249_5345,
            TransitionKind::Falling => 0x4641_4C4C,
        };
        let sample_key = theta_bits ^ kind_tag ^ (sample as u64).rotate_left(23);
        let len = word.len();
        // Dropout: the word is lost and reads as "edge never arrived" —
        // all bits at their pre-transition value, a zero-distance word.
        if self.dropout_rate > 0.0
            && uniform_hash(self.seed ^ 0x44524F50, sample_key) < self.dropout_rate
        {
            return CaptureWord::from_passed(kind, len, ChainMask::default());
        }
        let burst = self.metastability_burst_rate > 0.0
            && uniform_hash(self.seed ^ 0x4255_5253, theta_bits ^ kind_tag)
                < self.metastability_burst_rate;
        let mut flip = ChainMask::default();
        if burst && self.burst_half_width > 0 && len > 0 {
            let front = word.propagation_distance();
            let first = front.saturating_sub(self.burst_half_width);
            let last = front.saturating_add(self.burst_half_width).min(len - 1);
            for j in first..=last {
                if uniform_hash(self.seed ^ 0x4D45_5441, sample_key ^ (j as u64) << 17) < 0.5 {
                    set_bit(&mut flip, j);
                }
            }
        }
        // Register levels are the passed mask for a rising edge and its
        // complement within the word for a falling one; the map is its
        // own inverse.
        let in_word = low_bits(len);
        let levels = |kind: TransitionKind, mask: ChainMask| -> ChainMask {
            match kind {
                TransitionKind::Rising => mask,
                TransitionKind::Falling => std::array::from_fn(|k| !mask[k] & in_word[k]),
            }
        };
        let bits = levels(word.kind(), word.passed());
        // A stuck register reads its stuck level, burst or not.
        let corrupted = std::array::from_fn(|k| {
            (((bits[k] ^ flip[k]) & !stuck.mask[k]) | stuck.high[k]) & in_word[k]
        });
        CaptureWord::from_passed(kind, len, levels(kind, corrupted))
    }
}

/// Which capture registers are stuck (`mask`), and which of those read
/// high (`high`, a subset of `mask`).
#[derive(Default)]
struct StuckElements {
    mask: ChainMask,
    high: ChainMask,
}

/// SplitMix64-style hash of `(seed, key)` mapped to `[0, 1)`.
fn uniform_hash(seed: u64, key: u64) -> f64 {
    let mut z = seed
        .wrapping_add(key.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn front_word(kind: TransitionKind, len: usize, front: usize) -> CaptureWord {
        let bits = (0..len)
            .map(|i| match kind {
                TransitionKind::Rising => i < front,
                TransitionKind::Falling => i >= front,
            })
            .collect();
        CaptureWord::new(kind, bits)
    }

    fn clean_trace(theta: f64) -> Trace {
        Trace::new(
            theta,
            vec![front_word(TransitionKind::Rising, 64, 30); 8],
            vec![front_word(TransitionKind::Falling, 64, 30); 8],
        )
    }

    #[test]
    fn benign_plan_is_identity() {
        let t = clean_trace(500.0);
        assert_eq!(SensorFaultPlan::none().corrupt_trace(t.clone()), t);
    }

    #[test]
    fn corruption_is_deterministic() {
        let plan = SensorFaultPlan::noisy(9, 0.3);
        let t = clean_trace(500.0);
        assert_eq!(plan.corrupt_trace(t.clone()), plan.corrupt_trace(t));
    }

    #[test]
    fn dropout_produces_zero_distance_words() {
        let mut plan = SensorFaultPlan::none();
        plan.seed = 5;
        plan.dropout_rate = 1.0;
        let t = plan.corrupt_trace(clean_trace(500.0));
        for kind in TransitionKind::ALL {
            for w in t.words(kind) {
                assert_eq!(w.propagation_distance(), 0);
                assert!(w.is_saturated());
            }
        }
    }

    #[test]
    fn stuck_elements_are_consistent_across_samples() {
        let mut plan = SensorFaultPlan::none();
        plan.seed = 5;
        plan.stuck_element_rate = 0.2;
        let t = plan.corrupt_trace(clean_trace(500.0));
        let words = t.words(TransitionKind::Rising);
        for w in &words[1..] {
            assert_eq!(w, &words[0], "same stuck pattern everywhere");
        }
        assert_ne!(
            words[0],
            front_word(TransitionKind::Rising, 64, 30),
            "at 20% some of 64 elements must stick"
        );
    }

    #[test]
    fn bursts_only_disturb_near_the_front() {
        let mut plan = SensorFaultPlan::none();
        plan.seed = 11;
        plan.metastability_burst_rate = 1.0;
        plan.burst_half_width = 3;
        let t = plan.corrupt_trace(clean_trace(500.0));
        for w in t.words(TransitionKind::Rising) {
            for (j, b) in w.bits().enumerate() {
                let clean = j < 30;
                if j.abs_diff(30) > 3 {
                    assert_eq!(b, clean, "bit {j} outside the burst must be clean");
                }
            }
        }
    }

    /// The per-bit corruption the mask version replaced: every register
    /// bit decides on its own. Kept as the reference the mask version must
    /// match bit for bit.
    fn reference_corrupt_word(
        plan: &SensorFaultPlan,
        theta_bits: u64,
        kind: TransitionKind,
        sample: usize,
        word: &CaptureWord,
    ) -> CaptureWord {
        let kind_tag = match kind {
            TransitionKind::Rising => 0x5249_5345,
            TransitionKind::Falling => 0x4641_4C4C,
        };
        let sample_key = theta_bits ^ kind_tag ^ (sample as u64).rotate_left(23);
        if plan.dropout_rate > 0.0
            && uniform_hash(plan.seed ^ 0x44524F50, sample_key) < plan.dropout_rate
        {
            let idle = matches!(kind, TransitionKind::Falling);
            return CaptureWord::new(kind, vec![idle; word.len()]);
        }
        let burst = plan.metastability_burst_rate > 0.0
            && uniform_hash(plan.seed ^ 0x4255_5253, theta_bits ^ kind_tag)
                < plan.metastability_burst_rate;
        let front = word.propagation_distance();
        let bits: Vec<bool> = word
            .bits()
            .enumerate()
            .map(|(j, b)| {
                if plan.stuck_element_rate > 0.0 {
                    let roll = uniform_hash(plan.seed ^ 0x5354_5543, j as u64);
                    if roll < plan.stuck_element_rate {
                        return roll < plan.stuck_element_rate / 2.0;
                    }
                }
                if burst
                    && plan.burst_half_width > 0
                    && j.abs_diff(front) <= plan.burst_half_width
                    && uniform_hash(plan.seed ^ 0x4D45_5441, sample_key ^ (j as u64) << 17) < 0.5
                {
                    return !b;
                }
                b
            })
            .collect();
        CaptureWord::new(kind, bits)
    }

    #[test]
    fn mask_corruption_matches_per_bit_reference() {
        let mut cases = 0usize;
        for seed in 0..6 {
            for intensity in [0.05, 0.3, 0.7, 1.0] {
                let mut plans = vec![SensorFaultPlan::noisy(seed, intensity)];
                // Each fault alone, and a burst wide enough to reach both
                // ends of a short chain.
                let p = SensorFaultPlan::none();
                plans.push(SensorFaultPlan {
                    seed,
                    dropout_rate: intensity,
                    ..p.clone()
                });
                plans.push(SensorFaultPlan {
                    seed,
                    stuck_element_rate: intensity / 2.0,
                    ..p.clone()
                });
                plans.push(SensorFaultPlan {
                    seed,
                    metastability_burst_rate: intensity,
                    burst_half_width: 3 + seed as usize * 13,
                    ..p
                });
                for plan in &plans {
                    let stuck = plan.stuck_elements();
                    for len in [1, 63, 64, 65, 128, 256] {
                        for front in (0..=len).step_by(1 + len / 24) {
                            let theta_bits = (500.0 + front as f64).to_bits();
                            for kind in TransitionKind::ALL {
                                // The clean front, and the same front with
                                // a bubble just behind it.
                                let clean = front_word(kind, len, front);
                                let mut bubbled: Vec<bool> = clean.bits().collect();
                                bubbled[front.saturating_sub(2).min(len - 1)] ^= true;
                                for word in [clean, CaptureWord::new(kind, bubbled)] {
                                    for sample in 0..3 {
                                        let want = reference_corrupt_word(
                                            plan, theta_bits, kind, sample, &word,
                                        );
                                        let got = plan
                                            .corrupt_word(theta_bits, kind, &stuck, sample, &word);
                                        assert_eq!(got, want, "{plan:?} len {len} front {front}");
                                        assert_eq!(
                                            got.propagation_distance(),
                                            want.propagation_distance()
                                        );
                                        cases += 1;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(cases >= 10_000, "only {cases} cases");
    }

    #[test]
    fn moderate_faults_leave_quorum_of_clean_samples() {
        let plan = SensorFaultPlan::noisy(3, 0.2);
        let t = plan.corrupt_trace(clean_trace(500.0));
        let clean = t
            .words(TransitionKind::Rising)
            .iter()
            .filter(|w| !w.is_saturated())
            .count();
        assert!(clean >= 4, "{clean}/8 usable");
    }
}
