//! The sensor proper: placement, calibration, and measurement.

use fpga_fabric::{CarryChain, FpgaDevice, Route, TileCoord, TransitionKind};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::util::gaussian;
use crate::{
    CaptureWord, ClockGenerator, Measurement, SensorFaultPlan, TdcConfig, TdcError, Trace,
};

/// A placed TDC sensor: one route under test feeding one carry chain.
///
/// The sensor is created against a device (which fixes the carry chain's
/// silicon), calibrated to find `θ_init`, and then read repeatedly. The
/// paper's measure design instantiates an array of these, one per route.
///
/// Calibration and measurement take `&FpgaDevice` — sensing never mutates
/// the device; only running designs ([`FpgaDevice::run_for`]) ages wires.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TdcSensor {
    route: Route,
    chain: CarryChain,
    config: TdcConfig,
    clock: ClockGenerator,
    theta_init_ps: Option<f64>,
    #[serde(default)]
    faults: SensorFaultPlan,
}

impl TdcSensor {
    /// Places a sensor whose route under test is `route`.
    ///
    /// The carry chain is placed in the column band just past the route's
    /// end — the region the paper's target design deliberately leaves
    /// uninitialized so the measure design can claim it.
    ///
    /// # Errors
    ///
    /// Returns [`TdcError::InvalidConfig`] for a bad configuration or
    /// [`TdcError::Placement`] if the chain does not fit the device.
    pub fn place(device: &FpgaDevice, route: Route, config: TdcConfig) -> Result<Self, TdcError> {
        config.validate()?;
        let anchor = route.end().unwrap_or(TileCoord::new(0, 0));
        // Anchor the chain at the bottom of the column next to the route's
        // end, so chains for different routes occupy different silicon.
        let base = TileCoord::new(anchor.col.min(device.cols() - 2), 0);
        let chain = device.carry_chain(base, config.chain_length)?;
        // The clock generator must span the route, the chain, and the
        // calibration headroom; phase resolves at half a carry bit.
        let period = route.nominal_ps() * 2.0 + chain.total_delay_ps() + 1_000.0;
        let clock = ClockGenerator::new(period, config.theta_step_ps / 2.0)?;
        Ok(Self {
            route,
            chain,
            config,
            clock,
            theta_init_ps: None,
            faults: SensorFaultPlan::none(),
        })
    }

    /// Installs a measurement-fault plan (see [`SensorFaultPlan`]). The
    /// default plan corrupts nothing; a benign plan leaves every capture
    /// byte-identical to a sensor with no plan at all.
    pub fn set_fault_plan(&mut self, plan: SensorFaultPlan) {
        self.faults = plan;
    }

    /// The active measurement-fault plan.
    #[must_use]
    pub fn fault_plan(&self) -> &SensorFaultPlan {
        &self.faults
    }

    /// The route under test.
    #[must_use]
    pub fn route(&self) -> &Route {
        &self.route
    }

    /// The sensor's carry chain.
    #[must_use]
    pub fn chain(&self) -> &CarryChain {
        &self.chain
    }

    /// The sensor configuration.
    #[must_use]
    pub fn config(&self) -> &TdcConfig {
        &self.config
    }

    /// The calibrated θ_init, if calibration has run.
    #[must_use]
    pub fn theta_init_ps(&self) -> Option<f64> {
        self.theta_init_ps
    }

    /// The sensor's programmable clock generator.
    #[must_use]
    pub fn clock(&self) -> &ClockGenerator {
        &self.clock
    }

    /// Adopts a θ_init obtained elsewhere — e.g. calibrated on a different
    /// board of the same type, which is how the Threat Model 2 attacker
    /// starts without ever measuring the victim device pre-burn
    /// (Experiment 3: "θ_init is consistent across all FPGAs of the same
    /// type").
    pub fn set_theta_init_ps(&mut self, theta_ps: f64) {
        self.theta_init_ps = Some(theta_ps);
    }

    /// Captures a single sample: launches one `kind` edge with the capture
    /// clock offset by `theta_ps` and snapshots the chain.
    ///
    /// Walks the route once per call; [`capture_trace`](Self::capture_trace)
    /// walks it once per trace.
    #[must_use]
    pub fn capture_sample<R: Rng + ?Sized>(
        &self,
        device: &FpgaDevice,
        theta_ps: f64,
        kind: TransitionKind,
        rng: &mut R,
    ) -> CaptureWord {
        let route_delay_ps = device.route_delay(&self.route).for_transition(kind);
        self.capture(route_delay_ps, theta_ps, kind, rng)
    }

    /// The capture kernel: one sample against an already-walked route
    /// delay.
    ///
    /// Bit `i` compares the edge front with the delay through element
    /// `i`, and the margin never grows along the chain. So the bits
    /// before `lo` certainly saw the transition, the bits from `hi` on
    /// certainly did not, and only the metastable window `lo..hi` draws
    /// from `rng`, in chain order.
    fn capture<R: Rng + ?Sized>(
        &self,
        route_delay_ps: f64,
        theta_ps: f64,
        kind: TransitionKind,
        rng: &mut R,
    ) -> CaptureWord {
        let jitter = gaussian(rng) * self.config.jitter_sigma_ps;
        // Time the edge has had inside the chain when the capture fires.
        let front_time = theta_ps + jitter - route_delay_ps;
        let w = self.config.metastable_window_ps;
        let passed_at = &self.chain.cumulative_ps()[1..];
        let lo = passed_at.partition_point(|&p| front_time - p > w / 2.0);
        // The negated test is the per-bit loop's own expression, so the
        // tail boundary matches it bit for bit, NaN margins included.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let hi = lo + passed_at[lo..].partition_point(|&p| !(front_time - p < -w / 2.0));
        let level = |transition_passed: bool| match kind {
            TransitionKind::Rising => transition_passed,
            TransitionKind::Falling => !transition_passed,
        };
        let mut bits = vec![level(false); passed_at.len()];
        bits[..lo].fill(level(true));
        for (bit, &p) in bits[lo..hi].iter_mut().zip(&passed_at[lo..hi]) {
            let margin = front_time - p;
            *bit = level(if w > 0.0 {
                // Metastable: resolves with probability linear in the
                // capture margin.
                rng.gen_bool((0.5 + margin / w).clamp(0.0, 1.0))
            } else {
                margin >= 0.0
            });
        }
        CaptureWord::new(kind, bits)
    }

    /// Captures one trace (both polarities, `samples_per_trace` each) at a
    /// fixed θ.
    ///
    /// The route is walked once for the whole trace: the device is
    /// borrowed immutably, so its delay cannot change between samples.
    /// Nothing is cached across calls, because [`FpgaDevice::run_for`]
    /// ages wires between them.
    #[must_use]
    pub fn capture_trace<R: Rng + ?Sized>(
        &self,
        device: &FpgaDevice,
        theta_ps: f64,
        rng: &mut R,
    ) -> Trace {
        // The clock generator can only realize phases on its grid.
        let theta_ps = self.clock.quantize(theta_ps);
        let route_delay = device.route_delay(&self.route);
        let sample = |kind, rng: &mut R| {
            let route_delay_ps = route_delay.for_transition(kind);
            (0..self.config.samples_per_trace)
                .map(|_| self.capture(route_delay_ps, theta_ps, kind, rng))
                .collect::<Vec<_>>()
        };
        let rising = sample(TransitionKind::Rising, rng);
        let falling = sample(TransitionKind::Falling, rng);
        self.faults
            .corrupt_trace(Trace::new(theta_ps, rising, falling))
    }

    /// Calibration phase: sweeps θ downward until both transition fronts
    /// sit inside the carry chain, then stores that θ_init (Section 5.2).
    ///
    /// # Errors
    ///
    /// Returns [`TdcError::CalibrationFailed`] if no θ lands the fronts.
    pub fn calibrate<R: Rng + ?Sized>(
        &mut self,
        device: &FpgaDevice,
        rng: &mut R,
    ) -> Result<f64, TdcError> {
        // Start with the capture well after the edge has flooded the chain
        // and walk θ down until the fronts appear mid-chain. A coarse
        // sweep (half a chain per step) finds the neighbourhood fast; a
        // fine sweep then lands inside the target window.
        let chain_total = self.chain.total_delay_ps();
        let start = self.route.nominal_ps() * 1.25 + chain_total + 100.0;
        let len = self.chain.len() as f64;
        let lo = 0.35 * len;
        let hi = 0.70 * len;
        let mut attempts = 0usize;

        let coarse_step = (chain_total / 2.0).max(self.config.theta_step_ps);
        let mut theta = start;
        let coarse_limit = (start / coarse_step).ceil() as usize + 1;
        loop {
            let trace = self.capture_trace(device, theta, rng);
            attempts += 1;
            let rise = trace.mean_distance(TransitionKind::Rising);
            let fall = trace.mean_distance(TransitionKind::Falling);
            if rise <= hi && fall <= hi {
                break;
            }
            theta -= coarse_step;
            if attempts > coarse_limit || theta <= 0.0 {
                return Err(TdcError::CalibrationFailed { attempts });
            }
        }
        // The fronts may have dropped below the window; walk θ back up in
        // fine steps until both sit inside [lo, hi].
        let fine_step = self.config.theta_step_ps;
        let fine_limit = (2.0 * coarse_step / fine_step).ceil() as usize + 4;
        for _ in 0..fine_limit {
            let trace = self.capture_trace(device, theta, rng);
            attempts += 1;
            let rise = trace.mean_distance(TransitionKind::Rising);
            let fall = trace.mean_distance(TransitionKind::Falling);
            if rise >= lo && rise <= hi && fall >= lo && fall <= hi {
                self.theta_init_ps = Some(theta);
                return Ok(theta);
            }
            if rise < lo || fall < lo {
                theta += fine_step;
            } else {
                theta -= fine_step;
            }
        }
        Err(TdcError::CalibrationFailed { attempts })
    }

    /// Measurement phase: ten traces at θ stepping down from θ_init, then
    /// Hamming post-processing into a [`Measurement`] (Section 5.2).
    ///
    /// # Errors
    ///
    /// Returns [`TdcError::NotCalibrated`] if neither
    /// [`calibrate`](Self::calibrate) nor
    /// [`set_theta_init_ps`](Self::set_theta_init_ps) has run.
    pub fn measure<R: Rng + ?Sized>(
        &self,
        device: &FpgaDevice,
        rng: &mut R,
    ) -> Result<Measurement, TdcError> {
        let traces = self.measurement_traces(device, rng)?;
        Ok(Measurement::from_traces(&traces))
    }

    /// Robust measurement for hostile capture paths: like
    /// [`measure`](Self::measure) but aggregated with per-sample quorum
    /// filtering and MAD outlier rejection
    /// ([`Measurement::try_from_traces`]), so dropouts and metastability
    /// bursts degrade the estimate gracefully instead of biasing it.
    ///
    /// `min_quorum` is the fraction of samples a trace must keep to
    /// count; 0.5 is a sensible default.
    ///
    /// # Errors
    ///
    /// Returns [`TdcError::NotCalibrated`] without a θ_init, or
    /// [`TdcError::Dropout`] when too few traces survive filtering.
    pub fn measure_robust<R: Rng + ?Sized>(
        &self,
        device: &FpgaDevice,
        min_quorum: f64,
        rng: &mut R,
    ) -> Result<Measurement, TdcError> {
        Measurement::try_from_traces(&self.measurement_traces(device, rng)?, min_quorum)
    }

    /// The measurement's traces, θ stepping down from θ_init.
    fn measurement_traces<R: Rng + ?Sized>(
        &self,
        device: &FpgaDevice,
        rng: &mut R,
    ) -> Result<Vec<Trace>, TdcError> {
        let theta_init = self.theta_init_ps.ok_or(TdcError::NotCalibrated)?;
        let step = self.config.theta_step_ps;
        Ok((0..self.config.traces_per_measurement)
            .map(|i| self.capture_trace(device, theta_init - i as f64 * step, rng))
            .collect())
    }

    /// Measures, retuning θ first if the stored θ_init saturates (the
    /// attacker's recovery when a borrowed θ_init misses on this
    /// particular die).
    ///
    /// # Errors
    ///
    /// Propagates [`TdcError::NotCalibrated`] / calibration failure.
    pub fn measure_with_retune<R: Rng + ?Sized>(
        &mut self,
        device: &FpgaDevice,
        rng: &mut R,
    ) -> Result<Measurement, TdcError> {
        let theta_init = self.theta_init_ps.ok_or(TdcError::NotCalibrated)?;
        let probe = self.capture_trace(device, theta_init, rng);
        if probe.is_saturated() {
            self.calibrate(device, rng)?;
        }
        self.measure(device, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bti_physics::{DutyCycle, Hours};
    use fpga_fabric::RouteRequest;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn setup(target: f64, seed: u64) -> (FpgaDevice, TdcSensor, StdRng) {
        let device = FpgaDevice::zcu102_new(seed);
        let route = device
            .route_with_target_delay(&RouteRequest::new(TileCoord::new(4, 4), target))
            .unwrap();
        let sensor = TdcSensor::place(&device, route, TdcConfig::lab()).unwrap();
        (device, sensor, StdRng::seed_from_u64(seed))
    }

    #[test]
    fn calibration_lands_fronts_mid_chain() {
        let (device, mut sensor, mut rng) = setup(5_000.0, 1);
        let theta = sensor.calibrate(&device, &mut rng).unwrap();
        assert_eq!(sensor.theta_init_ps(), Some(theta));
        let m = sensor.measure(&device, &mut rng).unwrap();
        let len = sensor.config().chain_length as f64;
        assert!(m.rise_distance_bits > 0.1 * len && m.rise_distance_bits < 0.9 * len);
        assert!(m.fall_distance_bits > 0.1 * len && m.fall_distance_bits < 0.9 * len);
    }

    #[test]
    fn fresh_route_reads_near_zero_delta() {
        let (device, mut sensor, mut rng) = setup(5_000.0, 2);
        sensor.calibrate(&device, &mut rng).unwrap();
        let m = sensor.measure(&device, &mut rng).unwrap();
        assert!(m.delta_ps.abs() < 1.0, "Δps = {}", m.delta_ps);
    }

    #[test]
    fn measurement_requires_calibration() {
        let (device, sensor, mut rng) = setup(1_000.0, 3);
        assert_eq!(
            sensor.measure(&device, &mut rng).unwrap_err(),
            TdcError::NotCalibrated
        );
    }

    #[test]
    fn sensor_reads_burned_in_imprint() {
        let (mut device, mut sensor, mut rng) = setup(10_000.0, 4);
        sensor.calibrate(&device, &mut rng).unwrap();
        let before = sensor.measure(&device, &mut rng).unwrap().delta_ps;
        let route = sensor.route().clone();
        device.condition_route(&route, DutyCycle::ALWAYS_ONE, Hours::new(200.0));
        let after = sensor.measure(&device, &mut rng).unwrap().delta_ps;
        // True imprint is ~+9.4 ps; the sensor must see most of it.
        assert!(after - before > 6.0, "sensor saw {} -> {}", before, after);
    }

    #[test]
    fn absolute_delay_estimate_is_close() {
        let (device, mut sensor, mut rng) = setup(5_000.0, 5);
        sensor.calibrate(&device, &mut rng).unwrap();
        let m = sensor.measure(&device, &mut rng).unwrap();
        let truth = device.route_delay(sensor.route()).rise_ps;
        assert!(
            (m.rise_delay_ps - truth).abs() < 25.0,
            "estimate {} vs truth {truth}",
            m.rise_delay_ps
        );
    }

    #[test]
    fn borrowed_theta_init_from_sibling_device_works_with_retune() {
        // Calibrate on one board, measure on another of the same type —
        // the Threat Model 2 starting condition.
        let (reference, mut ref_sensor, mut rng) = setup(5_000.0, 6);
        let theta = ref_sensor.calibrate(&reference, &mut rng).unwrap();

        let victim = FpgaDevice::zcu102_new(777); // different silicon
        let route = victim
            .route_with_target_delay(&RouteRequest::new(TileCoord::new(4, 4), 5_000.0))
            .unwrap();
        let mut sensor = TdcSensor::place(&victim, route, TdcConfig::lab()).unwrap();
        sensor.set_theta_init_ps(theta);
        let m = sensor.measure_with_retune(&victim, &mut rng).unwrap();
        assert!(m.delta_ps.abs() < 1.5);
    }

    #[test]
    fn averaging_resolves_sub_bit_changes() {
        // The carry quantum is 2.8 ps; jitter dithering plus 160-sample
        // averaging must resolve a ~1 ps shift.
        let (mut device, mut sensor, mut rng) = setup(1_000.0, 8);
        sensor.calibrate(&device, &mut rng).unwrap();
        let reads_before: Vec<f64> = (0..5)
            .map(|_| sensor.measure(&device, &mut rng).unwrap().delta_ps)
            .collect();
        let route = sensor.route().clone();
        device.condition_route(&route, DutyCycle::ALWAYS_ONE, Hours::new(200.0));
        let truth = device.route_delta_ps(&route);
        assert!(truth > 0.8 && truth < 1.6, "truth = {truth}");
        let reads_after: Vec<f64> = (0..5)
            .map(|_| sensor.measure(&device, &mut rng).unwrap().delta_ps)
            .collect();
        let mean_before = reads_before.iter().sum::<f64>() / 5.0;
        let mean_after = reads_after.iter().sum::<f64>() / 5.0;
        assert!(
            mean_after - mean_before > 0.5,
            "before {mean_before}, after {mean_after}"
        );
    }

    #[test]
    fn benign_fault_plan_is_byte_identical() {
        let (device, mut a, mut rng_a) = setup(5_000.0, 20);
        let (_, mut b, mut rng_b) = setup(5_000.0, 20);
        b.set_fault_plan(SensorFaultPlan::none());
        a.calibrate(&device, &mut rng_a).unwrap();
        b.calibrate(&device, &mut rng_b).unwrap();
        let ma = a.measure(&device, &mut rng_a).unwrap();
        let mb = b.measure(&device, &mut rng_b).unwrap();
        assert_eq!(ma, mb);
    }

    #[test]
    fn robust_measurement_survives_moderate_faults() {
        let (mut device, mut sensor, mut rng) = setup(10_000.0, 21);
        sensor.calibrate(&device, &mut rng).unwrap();
        let route = sensor.route().clone();
        device.condition_route(&route, DutyCycle::ALWAYS_ONE, Hours::new(200.0));
        let clean = sensor.measure(&device, &mut rng).unwrap().delta_ps;
        sensor.set_fault_plan(SensorFaultPlan::noisy(5, 0.15));
        let faulty = sensor.measure_robust(&device, 0.3, &mut rng).unwrap();
        assert!(
            (faulty.delta_ps - clean).abs() < 2.5,
            "clean {clean}, robust-under-faults {}",
            faulty.delta_ps
        );
        assert!(
            faulty.trace_count >= 5,
            "kept {} traces",
            faulty.trace_count
        );
    }

    #[test]
    fn total_dropout_is_a_transient_error() {
        let (device, mut sensor, mut rng) = setup(5_000.0, 22);
        sensor.calibrate(&device, &mut rng).unwrap();
        let mut plan = SensorFaultPlan::none();
        plan.seed = 6;
        plan.dropout_rate = 1.0;
        sensor.set_fault_plan(plan);
        let err = sensor.measure_robust(&device, 0.5, &mut rng).unwrap_err();
        assert!(matches!(err, TdcError::Dropout { .. }));
        assert!(err.is_transient());
    }

    #[test]
    fn sensor_is_nondestructive() {
        let (device, mut sensor, mut rng) = setup(2_000.0, 9);
        sensor.calibrate(&device, &mut rng).unwrap();
        let before = device.route_delta_ps(sensor.route());
        let _ = sensor.measure(&device, &mut rng).unwrap();
        assert_eq!(device.route_delta_ps(sensor.route()), before);
    }

    /// The per-bit capture loop the window kernel replaced: every bit
    /// re-derives its margin and decides on its own. Kept as the reference
    /// the kernel must match bit for bit and draw for draw.
    fn reference_capture<R: Rng + ?Sized>(
        sensor: &TdcSensor,
        route_delay_ps: f64,
        theta_ps: f64,
        kind: TransitionKind,
        rng: &mut R,
    ) -> CaptureWord {
        let jitter = gaussian(rng) * sensor.config.jitter_sigma_ps;
        let front_time = theta_ps + jitter - route_delay_ps;
        let w = sensor.config.metastable_window_ps;
        let bits = (0..sensor.chain.len())
            .map(|i| {
                let passed_at = sensor.chain.prefix_delay_ps(i + 1);
                let margin = front_time - passed_at;
                let transition_passed = if margin > w / 2.0 {
                    true
                } else if margin < -w / 2.0 {
                    false
                } else if w > 0.0 {
                    rng.gen_bool((0.5 + margin / w).clamp(0.0, 1.0))
                } else {
                    margin >= 0.0
                };
                match kind {
                    TransitionKind::Rising => transition_passed,
                    TransitionKind::Falling => !transition_passed,
                }
            })
            .collect();
        CaptureWord::new(kind, bits)
    }

    fn fresh_distance(word: &CaptureWord) -> usize {
        let passed = |&&b: &&bool| match word.kind() {
            TransitionKind::Rising => b,
            TransitionKind::Falling => !b,
        };
        word.bits().iter().filter(passed).count()
    }

    #[test]
    fn window_kernel_matches_per_bit_reference() {
        let device = FpgaDevice::zcu102_new(31);
        let route = device
            .route_with_target_delay(&RouteRequest::new(TileCoord::new(4, 4), 2_000.0))
            .unwrap();
        let route_delay = device.route_delay(&route);
        let mut cases = 0usize;
        for jitter_sigma_ps in [
            0.0,
            TdcConfig::lab().jitter_sigma_ps,
            TdcConfig::cloud().jitter_sigma_ps,
        ] {
            for metastable_window_ps in [0.0, 1.5, 6.0] {
                let config = TdcConfig {
                    jitter_sigma_ps,
                    metastable_window_ps,
                    ..TdcConfig::lab()
                };
                let sensor = TdcSensor::place(&device, route.clone(), config).unwrap();
                let cum = sensor.chain().cumulative_ps();
                let total = sensor.chain().total_delay_ps();
                // Fronts before, across and past the chain on a 0.5 ps
                // grid, plus every element boundary and window edge.
                let grid = (0..).map(|k| -40.0 + 0.5 * f64::from(k));
                let grid = grid.take_while(|&f| f <= total + 40.0);
                let half = metastable_window_ps / 2.0;
                let edges = cum.iter().flat_map(|&c| [c - half, c, c + half]);
                let fronts: Vec<f64> = grid.chain(edges).collect();
                for kind in TransitionKind::ALL {
                    let delay = route_delay.for_transition(kind);
                    for &front in &fronts {
                        let theta = delay + front;
                        let mut rng_ref = StdRng::seed_from_u64(cases as u64);
                        let mut rng_fast = StdRng::seed_from_u64(cases as u64);
                        let want = reference_capture(&sensor, delay, theta, kind, &mut rng_ref);
                        let got = sensor.capture(delay, theta, kind, &mut rng_fast);
                        assert_eq!(got, want, "case {cases}: front {front} ps, {config:?}");
                        assert_eq!(got.propagation_distance(), fresh_distance(&want));
                        assert_eq!(
                            rng_fast.next_u64(),
                            rng_ref.next_u64(),
                            "case {cases}: RNG draw count diverged"
                        );
                        cases += 1;
                    }
                }
            }
        }
        assert!(cases >= 10_000, "only {cases} cases");
    }

    #[test]
    fn sample_loop_matches_trace_on_fresh_and_aged_device() {
        let (mut device, mut sensor, mut rng) = setup(5_000.0, 23);
        sensor.calibrate(&device, &mut rng).unwrap();
        let mut plan = SensorFaultPlan::none();
        plan.seed = 99;
        sensor.set_fault_plan(plan);
        let theta = sensor.theta_init_ps().unwrap();
        let route = sensor.route().clone();
        for aged in [false, true] {
            if aged {
                device.condition_route(&route, DutyCycle::ALWAYS_ONE, Hours::new(200.0));
            }
            let seed = 40 + u64::from(aged);
            let trace = sensor.capture_trace(&device, theta, &mut StdRng::seed_from_u64(seed));
            let mut rng = StdRng::seed_from_u64(seed);
            let theta_q = sensor.clock().quantize(theta);
            let mut samples = |kind| -> Vec<CaptureWord> {
                (0..sensor.config().samples_per_trace)
                    .map(|_| sensor.capture_sample(&device, theta_q, kind, &mut rng))
                    .collect()
            };
            let rising = samples(TransitionKind::Rising);
            let falling = samples(TransitionKind::Falling);
            assert_eq!(trace, Trace::new(theta_q, rising, falling), "aged = {aged}");
        }
    }

    #[test]
    fn corrupted_words_carry_a_fresh_distance() {
        let (device, mut sensor, mut rng) = setup(5_000.0, 24);
        sensor.calibrate(&device, &mut rng).unwrap();
        let plan = SensorFaultPlan::noisy(7, 0.4);
        let theta_init = sensor.theta_init_ps().unwrap();
        let mut corrupted = 0usize;
        for i in 0..20 {
            let theta = theta_init - f64::from(i) * sensor.config().theta_step_ps;
            let clean = sensor.capture_trace(&device, theta, &mut rng);
            let faulty = plan.corrupt_trace(clean.clone());
            for kind in TransitionKind::ALL {
                for (c, f) in clean.words(kind).iter().zip(faulty.words(kind)) {
                    if c.bits() != f.bits() {
                        corrupted += 1;
                    }
                    let d = fresh_distance(f);
                    assert_eq!(f.propagation_distance(), d);
                    assert_eq!(f.is_saturated(), d == 0 || d == f.len());
                }
            }
        }
        assert!(corrupted > 0, "the plan corrupted no word");
    }
}
