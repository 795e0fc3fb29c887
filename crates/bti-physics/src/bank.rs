//! A trap bank: the full defect population of one BTI polarity.

use crate::{BinKernel, BtiError, DutyCycle, Hours, Polarity, TrapBin};

/// The defect-trap population of one polarity (NBTI or PBTI) on one
/// physical resource.
///
/// A bank is a weighted collection of [`TrapBin`]s spanning several decades
/// of capture/emission time constants. Its [`level`](TrapBank::level) — the
/// weight-averaged occupancy in `[0, 1]` — is the normalized
/// threshold-voltage shift of the underlying transistors, which the delay
/// model turns into picoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct TrapBank {
    polarity: Polarity,
    bins: Vec<TrapBin>,
}

impl TrapBank {
    /// Creates a bank from explicit bins.
    ///
    /// Weights are normalized to sum to 1.
    ///
    /// # Errors
    ///
    /// Returns [`BtiError::EmptyTrapBank`] if `bins` is empty, or
    /// [`BtiError::InvalidParameter`] if the total weight is zero.
    pub fn new(polarity: Polarity, mut bins: Vec<TrapBin>) -> Result<Self, BtiError> {
        if bins.is_empty() {
            return Err(BtiError::EmptyTrapBank);
        }
        let total: f64 = bins.iter().map(|b| b.weight).sum();
        if total <= 0.0 {
            return Err(BtiError::InvalidParameter {
                name: "weight_sum",
                value: total,
                constraint: "must be positive",
            });
        }
        for b in &mut bins {
            b.weight /= total;
        }
        Ok(Self { polarity, bins })
    }

    /// Creates a bank of `n` bins with capture time constants log-spaced
    /// over `[tau_c_min, tau_c_max]` hours and emission time constants
    /// log-spaced over `[tau_e_min, tau_e_max]` hours, plus
    /// `permanent_fraction` of the population in a never-recovering bin.
    ///
    /// Capture and emission constants are paired rank-by-rank: the
    /// fastest-capturing traps are also the fastest-emitting, which is the
    /// usual diagonal correlation of measured CET maps.
    ///
    /// # Errors
    ///
    /// Returns [`BtiError::InvalidParameter`] when any bound is
    /// non-positive, a range is inverted, `n` is zero, or
    /// `permanent_fraction` is outside `[0, 1)`.
    pub fn log_spaced(
        polarity: Polarity,
        n: usize,
        tau_c_range: (f64, f64),
        tau_e_range: (f64, f64),
        permanent_fraction: f64,
    ) -> Result<Self, BtiError> {
        fn check(name: &'static str, value: f64) -> Result<(), BtiError> {
            if value > 0.0 && value.is_finite() {
                Ok(())
            } else {
                Err(BtiError::InvalidParameter {
                    name,
                    value,
                    constraint: "must be positive and finite",
                })
            }
        }
        if n == 0 {
            return Err(BtiError::EmptyTrapBank);
        }
        check("tau_c_min", tau_c_range.0)?;
        check("tau_c_max", tau_c_range.1)?;
        check("tau_e_min", tau_e_range.0)?;
        check("tau_e_max", tau_e_range.1)?;
        if tau_c_range.0 > tau_c_range.1 || tau_e_range.0 > tau_e_range.1 {
            return Err(BtiError::InvalidParameter {
                name: "tau_range",
                value: tau_c_range.0,
                constraint: "range minimum must not exceed maximum",
            });
        }
        if !(0.0..1.0).contains(&permanent_fraction) {
            return Err(BtiError::InvalidParameter {
                name: "permanent_fraction",
                value: permanent_fraction,
                constraint: "must be in [0, 1)",
            });
        }

        let recoverable_weight = (1.0 - permanent_fraction) / n as f64;
        let mut bins = Vec::with_capacity(n + 1);
        for i in 0..n {
            let frac = if n == 1 {
                0.5
            } else {
                i as f64 / (n - 1) as f64
            };
            let tau_c = log_interp(tau_c_range.0, tau_c_range.1, frac);
            let tau_e = log_interp(tau_e_range.0, tau_e_range.1, frac);
            bins.push(TrapBin::new(
                Hours::new(tau_c),
                Hours::new(tau_e),
                recoverable_weight,
            ));
        }
        if permanent_fraction > 0.0 {
            // Permanent traps capture on the same (mid-range, geometric mean)
            // timescale but never emit.
            let tau_c = (tau_c_range.0 * tau_c_range.1).sqrt();
            bins.push(TrapBin {
                tau_capture: Hours::new(tau_c),
                tau_emission: Hours::new(f64::INFINITY),
                weight: permanent_fraction,
                occupancy: 0.0,
            });
        }
        Self::new(polarity, bins)
    }

    /// The polarity this bank models.
    #[must_use]
    pub fn polarity(&self) -> Polarity {
        self.polarity
    }

    /// The bins of the bank.
    #[must_use]
    pub fn bins(&self) -> &[TrapBin] {
        &self.bins
    }

    /// Normalized threshold-voltage shift: the weight-averaged trap
    /// occupancy, in `[0, 1]`.
    #[must_use]
    pub fn level(&self) -> f64 {
        self.bins.iter().map(|b| b.weight * b.occupancy).sum()
    }

    /// The portion of [`level`](TrapBank::level) that can never recover.
    #[must_use]
    pub fn permanent_level(&self) -> f64 {
        self.bins
            .iter()
            .filter(|b| b.is_permanent())
            .map(|b| b.weight * b.occupancy)
            .sum()
    }

    /// Advances the bank by `dt` under a node duty cycle, with Arrhenius
    /// acceleration factors applied to capture and emission rates.
    pub fn advance(&mut self, dt: Hours, duty: DutyCycle, capture_accel: f64, emission_accel: f64) {
        let share = duty.stress_share(self.polarity);
        for b in &mut self.bins {
            b.advance(dt, share, capture_accel, emission_accel);
        }
    }

    /// Advances the bank over one entire constant-condition phase in
    /// closed form — bit-identical to [`advance`](TrapBank::advance) with
    /// the same arguments, because each bin's occupancy ODE is linear
    /// with constant coefficients and [`TrapBin::advance`] already is its
    /// exact solution for a single call.
    ///
    /// The point of the separate entry is cost shape: callers that step
    /// hour-by-hour pay one `exp` per bin per *hour*; a phase advance
    /// pays one `exp` per bin per *phase*, however long the phase is.
    pub fn advance_phase(
        &mut self,
        dt: Hours,
        duty: DutyCycle,
        capture_accel: f64,
        emission_accel: f64,
    ) {
        let share = duty.stress_share(self.polarity);
        for b in &mut self.bins {
            let kernel = BinKernel::for_bin(b, dt, share, capture_accel, emission_accel);
            b.occupancy = kernel.apply(b.occupancy);
        }
    }

    /// Applies a precomputed per-bin kernel table (from a
    /// [`crate::DecayCache`]) to every bin.
    ///
    /// # Panics
    ///
    /// Panics if the kernel table was built for a bank with a different
    /// number of bins — silently truncating would corrupt the physics.
    pub fn apply_kernel(&mut self, kernels: &[BinKernel]) {
        assert_eq!(
            self.bins.len(),
            kernels.len(),
            "kernel table width must match the bank's bin count"
        );
        for (b, k) in self.bins.iter_mut().zip(kernels) {
            b.occupancy = k.apply(b.occupancy);
        }
    }

    /// Advances the bank by `dt` with the resource completely unstressed
    /// (undriven/floating, as routing muxes sit after a wipe): traps only
    /// emit, nothing captures.
    pub fn relax(&mut self, dt: Hours, emission_accel: f64) {
        for b in &mut self.bins {
            b.advance(dt, 0.0, 1.0, emission_accel);
        }
    }

    /// Resets all occupancies to zero (a factory-fresh resource).
    pub fn reset(&mut self) {
        for b in &mut self.bins {
            b.occupancy = 0.0;
        }
    }
}

fn log_interp(lo: f64, hi: f64, frac: f64) -> f64 {
    (lo.ln() + (hi.ln() - lo.ln()) * frac).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> TrapBank {
        TrapBank::log_spaced(Polarity::Pbti, 12, (2.0, 800.0), (10.0, 150.0), 0.1).unwrap()
    }

    #[test]
    fn level_starts_at_zero_and_is_bounded() {
        let mut b = bank();
        assert_eq!(b.level(), 0.0);
        b.advance(Hours::new(1e6), DutyCycle::ALWAYS_ONE, 1.0, 1.0);
        assert!(b.level() <= 1.0 + 1e-12);
        assert!(b.level() > 0.99);
    }

    #[test]
    fn stress_grows_sublinearly_like_log_time() {
        let mut b = bank();
        let mut previous = 0.0;
        let mut increments = Vec::new();
        for _ in 0..8 {
            b.advance(Hours::new(25.0), DutyCycle::ALWAYS_ONE, 1.0, 1.0);
            increments.push(b.level() - previous);
            previous = b.level();
        }
        // Later equal-length stress intervals add less than earlier ones.
        assert!(increments.first().unwrap() > increments.last().unwrap());
        for inc in increments {
            assert!(inc >= 0.0);
        }
    }

    #[test]
    fn recovery_leaves_permanent_component() {
        let mut b = bank();
        b.advance(Hours::new(200.0), DutyCycle::ALWAYS_ONE, 1.0, 1.0);
        let peak = b.level();
        let permanent = b.permanent_level();
        assert!(permanent > 0.0);
        b.advance(Hours::new(1e6), DutyCycle::ALWAYS_ZERO, 1.0, 1.0);
        assert!((b.level() - permanent).abs() < 1e-9);
        assert!(b.level() < peak);
    }

    #[test]
    fn weights_are_normalized() {
        let b = bank();
        let total: f64 = b.bins().iter().map(|x| x.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_occupancy() {
        let mut b = bank();
        b.advance(Hours::new(100.0), DutyCycle::ALWAYS_ONE, 1.0, 1.0);
        assert!(b.level() > 0.0);
        b.reset();
        assert_eq!(b.level(), 0.0);
    }

    #[test]
    fn empty_bank_rejected() {
        assert_eq!(
            TrapBank::new(Polarity::Nbti, Vec::new()).unwrap_err(),
            BtiError::EmptyTrapBank
        );
    }

    #[test]
    fn inverted_range_rejected() {
        let err =
            TrapBank::log_spaced(Polarity::Nbti, 4, (100.0, 1.0), (1.0, 2.0), 0.0).unwrap_err();
        assert!(matches!(
            err,
            BtiError::InvalidParameter {
                name: "tau_range",
                ..
            }
        ));
    }

    #[test]
    fn opposite_duty_does_not_stress() {
        let mut b = bank(); // PBTI bank
        b.advance(Hours::new(500.0), DutyCycle::ALWAYS_ZERO, 1.0, 1.0);
        assert_eq!(b.level(), 0.0);
    }
}
