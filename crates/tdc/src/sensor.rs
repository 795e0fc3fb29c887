//! The sensor proper: placement, calibration, and measurement.

use fpga_fabric::{CarryChain, FpgaDevice, Route, RouteDelay, TileCoord, TransitionKind};
use rand::Rng;

use crate::capture::{low_bits, set_bit};
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
#[derive(Debug, Clone, PartialEq)]
pub struct TdcSensor {
    route: Route,
    chain: CarryChain,
    config: TdcConfig,
    clock: ClockGenerator,
    theta_init_ps: Option<f64>,
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
    /// walks it once per trace, and a measurement once per read.
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
    /// from `rng`, in chain order. The word is built as a "transition
    /// passed" mask, so a sample allocates nothing.
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
        let (lo, hi) = metastable_window(passed_at, front_time, w);
        let mut passed = low_bits(lo);
        for (i, &p) in (lo..hi).zip(&passed_at[lo..hi]) {
            let margin = front_time - p;
            let transition_passed = if w > 0.0 {
                // Metastable: resolves with probability linear in the
                // capture margin.
                rng.gen_bool((0.5 + margin / w).clamp(0.0, 1.0))
            } else {
                margin >= 0.0
            };
            if transition_passed {
                set_bit(&mut passed, i);
            }
        }
        CaptureWord::from_passed(kind, passed_at.len(), passed)
    }

    /// Captures one trace (both polarities, `samples_per_trace` each) at a
    /// fixed θ.
    ///
    /// Walks the route once; [`measure`](Self::measure) and
    /// [`calibrate`](Self::calibrate) walk it once for all their traces.
    #[must_use]
    pub fn capture_trace<R: Rng + ?Sized>(
        &self,
        device: &FpgaDevice,
        theta_ps: f64,
        rng: &mut R,
    ) -> Trace {
        self.trace_at(device.route_delay(&self.route), theta_ps, rng)
    }

    /// The trace kernel: one trace against an already-walked route delay.
    ///
    /// Callers walk the route once per public call and reuse the delay
    /// for every trace of that call. That is sound because the device is
    /// borrowed immutably for the whole call, so its delay cannot change;
    /// nothing is cached across calls, because [`FpgaDevice::run_for`]
    /// ages wires between them.
    fn trace_at<R: Rng + ?Sized>(
        &self,
        route_delay: RouteDelay,
        theta_ps: f64,
        rng: &mut R,
    ) -> Trace {
        // The clock generator can only realize phases on its grid.
        let theta_ps = self.clock.quantize(theta_ps);
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
        let route_delay = device.route_delay(&self.route);
        self.calibrate_with(rng, |sensor, theta, rng| {
            sensor.trace_at(route_delay, theta, rng)
        })
    }

    /// The calibration search over traces from `capture_at(self, θ, rng)`.
    fn calibrate_with<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        capture_at: impl Fn(&Self, f64, &mut R) -> Trace,
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
            let trace = capture_at(self, theta, rng);
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
            let trace = capture_at(self, theta, rng);
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
        let traces = self.measurement_traces(device.route_delay(&self.route), rng)?;
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
        let traces = self.measurement_traces(device.route_delay(&self.route), rng)?;
        Measurement::try_from_traces(&traces, min_quorum)
    }

    /// The measurement's traces, θ stepping down from θ_init.
    fn measurement_traces<R: Rng + ?Sized>(
        &self,
        route_delay: RouteDelay,
        rng: &mut R,
    ) -> Result<Vec<Trace>, TdcError> {
        let theta_init = self.theta_init_ps.ok_or(TdcError::NotCalibrated)?;
        let step = self.config.theta_step_ps;
        Ok((0..self.config.traces_per_measurement)
            .map(|i| self.trace_at(route_delay, theta_init - i as f64 * step, rng))
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
        let route_delay = device.route_delay(&self.route);
        if self.trace_at(route_delay, theta_init, rng).is_saturated() {
            self.calibrate_with(rng, |sensor, theta, rng| {
                sensor.trace_at(route_delay, theta, rng)
            })?;
        }
        Ok(Measurement::from_traces(
            &self.measurement_traces(route_delay, rng)?,
        ))
    }
}

/// The metastable window `lo..hi` of an edge front `front_time` ps into a
/// chain whose element `i` is passed at `passed_at[i]` (non-decreasing):
/// the bits before `lo` certainly saw the transition and the bits from
/// `hi` on certainly did not.
///
/// Both bounds are the `partition_point`s of the per-bit loop's own
/// comparisons, which are monotone along the chain, so NaN, infinite and
/// negative fronts land exactly where that loop puts them. The search
/// starts where a uniform chain would put the front and steps from
/// there: element delays vary by a few percent and the window is
/// usually 0–1 bits wide, so it takes a step or two instead of two
/// binary searches.
fn metastable_window(passed_at: &[f64], front_time: f64, w: f64) -> (usize, usize) {
    let len = passed_at.len();
    let Some(&total_ps) = passed_at.last() else {
        return (0, 0);
    };
    let certainly_passed = |p: f64| front_time - p > w / 2.0;
    // The negated test is the per-bit loop's own expression, so the tail
    // boundary matches it bit for bit, NaN margins included.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    let maybe_passed = |p: f64| !(front_time - p < -w / 2.0);
    // A float-to-int `as` saturates: NaN and negative seeds become 0.
    let mut lo = ((front_time * len as f64 / total_ps) as usize).min(len);
    while lo > 0 && !certainly_passed(passed_at[lo - 1]) {
        lo -= 1;
    }
    while lo < len && certainly_passed(passed_at[lo]) {
        lo += 1;
    }
    let mut hi = lo;
    while hi < len && maybe_passed(passed_at[hi]) {
        hi += 1;
    }
    (lo, hi)
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
        let rising = word.kind() == TransitionKind::Rising;
        word.bits().filter(|&b| b == rising).count()
    }

    /// Fronts before, across and past a chain on a 0.5 ps grid, every
    /// element boundary and window edge, and the wild fronts.
    fn sweep_fronts(chain: &CarryChain, metastable_window_ps: f64) -> Vec<f64> {
        let total = chain.total_delay_ps();
        let grid = (0..).map(|k| -40.0 + 0.5 * f64::from(k));
        let grid = grid.take_while(|&f| f <= total + 40.0);
        let half = metastable_window_ps / 2.0;
        let edges = chain
            .cumulative_ps()
            .iter()
            .flat_map(|&c| [c - half, c, c + half]);
        grid.chain(edges).chain(WILD_FRONTS).collect()
    }

    /// The non-finite and far-off fronts a wild θ can produce.
    const WILD_FRONTS: [f64; 6] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -1e9,
        -1e300,
        1e9,
    ];

    /// Chain lengths at and around every 64-bit mask word boundary.
    const SWEEP_LENGTHS: [usize; 7] = [1, 63, 64, 65, 128, 255, 256];

    #[test]
    fn window_kernel_matches_per_bit_reference() {
        let device = FpgaDevice::zcu102_new(31);
        let route = device
            .route_with_target_delay(&RouteRequest::new(TileCoord::new(4, 4), 2_000.0))
            .unwrap();
        let route_delay = device.route_delay(&route);
        let mut cases = 0usize;
        for chain_length in SWEEP_LENGTHS {
            for jitter_sigma_ps in [
                0.0,
                TdcConfig::lab().jitter_sigma_ps,
                TdcConfig::cloud().jitter_sigma_ps,
            ] {
                for metastable_window_ps in [0.0, 1.5, 6.0] {
                    let config = TdcConfig {
                        chain_length,
                        jitter_sigma_ps,
                        metastable_window_ps,
                        ..TdcConfig::lab()
                    };
                    let sensor = TdcSensor::place(&device, route.clone(), config).unwrap();
                    let fronts = sweep_fronts(sensor.chain(), metastable_window_ps);
                    for kind in TransitionKind::ALL {
                        let delay = route_delay.for_transition(kind);
                        for &front in &fronts {
                            let theta = delay + front;
                            let mut rng_ref = StdRng::seed_from_u64(cases as u64);
                            let mut rng_fast = StdRng::seed_from_u64(cases as u64);
                            if front.is_nan() && metastable_window_ps > 0.0 {
                                // A NaN margin is a NaN probability, which
                                // both paths hand to `gen_bool` and which
                                // it rejects.
                                let panics = |capture: &dyn Fn(&mut StdRng)| {
                                    let mut rng = StdRng::seed_from_u64(0);
                                    let run = std::panic::AssertUnwindSafe(|| capture(&mut rng));
                                    std::panic::catch_unwind(run).is_err()
                                };
                                assert!(panics(&|rng| {
                                    let _ = reference_capture(&sensor, delay, theta, kind, rng);
                                }));
                                assert!(panics(&|rng| {
                                    let _ = sensor.capture(delay, theta, kind, rng);
                                }));
                                continue;
                            }
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
        }
        assert!(cases >= 10_000, "only {cases} cases");
    }

    #[test]
    fn seeded_window_search_equals_partition_point() {
        let device = FpgaDevice::zcu102_new(32);
        let mut chains: Vec<Vec<f64>> = SWEEP_LENGTHS
            .iter()
            .map(|&len| {
                let chain = device.carry_chain(TileCoord::new(9, 0), len).unwrap();
                chain.cumulative_ps()[1..].to_vec()
            })
            .collect();
        // Far from uniform, so the seed lands many elements off: delays
        // growing along the chain, and runs of zero-delay elements (ties).
        for len in [65, 256] {
            chains.push((1..=len).map(|i| 0.05 * (i * i) as f64).collect());
            chains.push((1..=len).map(|i| 2.8 * (i / 8 * 8) as f64).collect());
        }
        for passed_at in &chains {
            let total = passed_at[passed_at.len() - 1];
            for w in [0.0, 1.5, 6.0, 40.0] {
                let grid = (0..).map(|k| -40.0 + 0.25 * f64::from(k));
                let grid = grid.take_while(|&f| f <= total + 40.0);
                let edges = passed_at
                    .iter()
                    .flat_map(|&c| [c - w / 2.0, c, c + w / 2.0]);
                for front in grid.chain(edges).chain(WILD_FRONTS) {
                    let lo = passed_at.partition_point(|&p| front - p > w / 2.0);
                    #[allow(clippy::neg_cmp_op_on_partial_ord)]
                    let hi = lo + passed_at[lo..].partition_point(|&p| !(front - p < -w / 2.0));
                    assert_eq!(
                        metastable_window(passed_at, front, w),
                        (lo, hi),
                        "{}-element chain, front {front} ps, window {w} ps",
                        passed_at.len()
                    );
                }
            }
        }
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
    fn reads_equal_composed_capture_traces_on_fresh_and_aged_device() {
        let (mut device, mut sensor, _) = setup(5_000.0, 25);
        sensor.set_fault_plan(SensorFaultPlan::noisy(3, 0.1));
        let route = sensor.route().clone();
        // The reads at θ_init − i·step, each trace walking the route anew.
        let composed = |sensor: &TdcSensor, device: &FpgaDevice, rng: &mut StdRng| {
            let theta_init = sensor.theta_init_ps().unwrap();
            let step = sensor.config().theta_step_ps;
            (0..sensor.config().traces_per_measurement)
                .map(|i| sensor.capture_trace(device, theta_init - i as f64 * step, rng))
                .collect::<Vec<_>>()
        };
        for aged in [false, true] {
            if aged {
                device.condition_route(&route, DutyCycle::ALWAYS_ONE, Hours::new(200.0));
            }
            let seed = 50 + u64::from(aged);
            let mut rng_got = StdRng::seed_from_u64(seed);
            let mut rng_want = StdRng::seed_from_u64(seed);
            let by_trace =
                |s: &TdcSensor, theta, rng: &mut StdRng| s.capture_trace(&device, theta, rng);

            let mut reference = sensor.clone();
            let theta = sensor.calibrate(&device, &mut rng_got).unwrap();
            assert_eq!(reference.calibrate_with(&mut rng_want, by_trace), Ok(theta));
            assert_eq!(sensor, reference);

            let got = sensor.measure(&device, &mut rng_got).unwrap();
            let want = Measurement::from_traces(&composed(&sensor, &device, &mut rng_want));
            assert_eq!(got, want, "measure, aged = {aged}");

            let got = sensor.measure_robust(&device, 0.5, &mut rng_got);
            let want =
                Measurement::try_from_traces(&composed(&sensor, &device, &mut rng_want), 0.5);
            assert_eq!(got, want, "measure_robust, aged = {aged}");

            // A borrowed θ_init that misses the chain takes the retune path.
            let mut retuned = sensor.clone();
            retuned.set_theta_init_ps(theta + 4_000.0);
            let mut reference = retuned.clone();
            let got = retuned.measure_with_retune(&device, &mut rng_got).unwrap();
            let probe = reference.capture_trace(&device, theta + 4_000.0, &mut rng_want);
            assert!(probe.is_saturated());
            reference.calibrate_with(&mut rng_want, by_trace).unwrap();
            let want = Measurement::from_traces(&composed(&reference, &device, &mut rng_want));
            assert_eq!(got, want, "measure_with_retune, aged = {aged}");
            assert_eq!(retuned, reference);

            assert_eq!(
                rng_got.next_u64(),
                rng_want.next_u64(),
                "aged = {aged}: RNG draw count diverged"
            );
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
                    if c != f {
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
