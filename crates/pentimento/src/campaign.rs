//! The attack loop: resilient, resumable campaigns against a hostile
//! cloud.
//!
//! Both threat models run the paper's hourly condition → measure loop:
//! Threat Model 1 through burn-in (Experiment 2), Threat Model 2 through
//! recovery (Experiment 3). This module is the only implementation of
//! that loop. The threat-model drivers ([`crate::threat_model1::run`],
//! [`crate::threat_model2::run`]) are benign campaigns — default
//! [`CampaignConfig`], no fault plan — run against the caller's provider.
//! A real multi-hundred-hour campaign also meets preempted sessions,
//! capacity blips, spurious scrubs, and sensor dropouts, so the
//! [`Campaign`] runner:
//!
//! * classifies every failure as **transient or fatal**
//!   ([`PentimentoError::is_transient`]) and retries transients under an
//!   exponential-backoff [`RetryPolicy`] with deterministic jitter;
//! * survives **preemption** by re-renting until a physical
//!   [`DeviceFingerprint`] (per-route silicon delays, process variation)
//!   confirms the same board came back, squatting on impostors so the
//!   allocator cannot hand them out again;
//! * reloads the attack design after **spurious scrubs** — the analog
//!   imprint under attack survives a scrub by construction;
//! * records per-route samples **gap-tolerantly** (a measurement whose
//!   retry budget runs dry drops one sample, not the campaign);
//! * supports **checkpoint/resume** ([`Campaign::checkpoint`],
//!   [`Campaign::resume`]) that continues bit-identically: the RNG
//!   stream, provider state, and fault-draw counters all travel with the
//!   checkpoint.
//!
//! Measurement and calibration randomness comes from **counter-based
//! per-route streams** ([`tdc::stream_seed`]) rather than one sequential
//! generator, so the per-phase fan-out over routes is bit-identical at
//! every thread count and independent of scheduling order. The phase
//! index is derived from the number of recorded measurements, so resumed
//! campaigns replay the same streams with no extra checkpoint state.
//!
//! Faults are armed only once the attack window opens (the victim's burn
//! epoch and the attacker's calibration stay deterministic), so accuracy
//! degradation in a sweep isolates attack-phase resilience. Backoff time
//! is *wall-clock only*: waiting out a capacity blip never advances
//! simulated hours, so a recovered campaign conditions the same
//! device-hours as an unluckier one.

use std::sync::Arc;

use bti_physics::{Hours, LogicLevel};
use cloud::{CloudError, DeviceId, FaultKind, FaultPlan, Provider, Session, TenantId};
use fpga_fabric::FpgaDevice;
use obs::{CampaignEvent, EventKind, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use tdc::{stream_seed, SensorFaultPlan, TdcArray, TdcConfig, TdcSensor, STREAM_MEASURE};

use crate::classify::{
    BitClassifier, Classification, DriftSlopeClassifier, RecoverySlopeClassifier,
};
use crate::designs::{build_condition_design, build_target_design};
use crate::metrics::RecoveryMetrics;
use crate::threat_model1::ThreatModel1Config;
use crate::threat_model2::ThreatModel2Config;
use crate::{MeasurementMode, PentimentoError, RouteGroupSpec, RouteSeries, Skeleton};

/// Retry budget and backoff shape for transient failures.
///
/// Backoff is exponential with multiplicative jitter drawn
/// deterministically from `jitter_seed` and a per-campaign draw counter,
/// so replaying a campaign replays its waits. The accumulated wait is
/// *simulated wall-clock* bookkeeping ([`CampaignStats::backoff_seconds`])
/// — it never advances provider hours.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Attempts per operation before the error escalates to
    /// [`PentimentoError::RetriesExhausted`].
    pub max_attempts: u32,
    /// First-retry wait, in seconds.
    pub base_backoff_s: f64,
    /// Ceiling on any single wait, in seconds.
    pub max_backoff_s: f64,
    /// Seed of the jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 6,
            base_backoff_s: 0.5,
            max_backoff_s: 64.0,
            jitter_seed: 0x00C0_FFEE,
        }
    }
}

impl RetryPolicy {
    /// The wait before retry number `attempt` (1-based), for the
    /// campaign's `draw`-th backoff overall: exponential growth, capped,
    /// with jitter in `[0.5, 1.5)` of the nominal value.
    #[must_use]
    pub fn backoff_s(&self, attempt: u32, draw: u64) -> f64 {
        let exponent = attempt.saturating_sub(1).min(32);
        let nominal = self.base_backoff_s * f64::from(1u32 << exponent.min(20));
        let jitter = 0.5 + uniform01(self.jitter_seed, draw);
        (nominal * jitter).min(self.max_backoff_s)
    }
}

/// SplitMix64-derived uniform draw in `[0, 1)` — deterministic jitter.
fn uniform01(seed: u64, counter: u64) -> f64 {
    let mut z = seed ^ counter.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Rolling FNV-1a accumulator used to seal checkpoints. Every value is
/// folded in as little-endian bytes; variable-length sequences are
/// length-prefixed so `[a, b] ++ [c]` and `[a] ++ [b, c]` hash apart.
struct StateDigest {
    hash: u64,
}

impl StateDigest {
    fn new() -> Self {
        Self {
            hash: 0xCBF2_9CE4_8422_2325,
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Which attack the campaign drives.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Mission {
    /// Threat Model 1: drift extraction from a rented sealed AFI.
    ThreatModel1(ThreatModel1Config),
    /// Threat Model 2: recovery-slope extraction after the victim left.
    ThreatModel2(ThreatModel2Config),
}

impl Mission {
    fn tag(&self) -> &'static str {
        match self {
            Self::ThreatModel1(_) => "tm1",
            Self::ThreatModel2(_) => "tm2",
        }
    }

    /// Master seed of the per-(route, phase) derived RNG streams; the
    /// secret is drawn serially from a generator seeded with it.
    fn seed(&self) -> u64 {
        match self {
            Self::ThreatModel1(c) => c.seed ^ 0x7EA5_E77E,
            Self::ThreatModel2(c) => c.seed ^ 0x0DD_B175,
        }
    }

    fn specs(&self) -> Vec<RouteGroupSpec> {
        let (lengths, count) = match self {
            Self::ThreatModel1(c) => (&c.route_lengths_ps, c.routes_per_length),
            Self::ThreatModel2(c) => (&c.route_lengths_ps, c.routes_per_length),
        };
        lengths
            .iter()
            .map(|&target_ps| RouteGroupSpec { target_ps, count })
            .collect()
    }

    fn mode(&self) -> MeasurementMode {
        match self {
            Self::ThreatModel1(c) => c.mode,
            Self::ThreatModel2(c) => c.mode,
        }
    }

    fn measurement_repeats(&self) -> usize {
        match self {
            Self::ThreatModel1(c) => c.measurement_repeats.max(1),
            Self::ThreatModel2(c) => c.measurement_repeats.max(1),
        }
    }

    fn attack_hours(&self) -> usize {
        match self {
            Self::ThreatModel1(c) => c.burn_hours,
            Self::ThreatModel2(c) => c.attack_hours,
        }
    }

    fn measure_every(&self) -> usize {
        match self {
            Self::ThreatModel1(c) => c.measure_every.max(1),
            Self::ThreatModel2(_) => 1,
        }
    }
}

/// Hostile-environment knobs and recovery tuning for one campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Retry budget and backoff shape.
    pub retry: RetryPolicy,
    /// Cloud-level fault plan, armed when the attack window opens.
    /// Scheduled fault times are interpreted as **hours into the attack
    /// window** and rebased onto provider time at arming.
    pub fault_plan: FaultPlan,
    /// Sensor-level fault plan, installed on every placed sensor when the
    /// attack window opens (calibration stays clean).
    pub sensor_faults: SensorFaultPlan,
    /// Per-route delay slack for fingerprint matching, in ps. Aging moves
    /// a route by well under a picosecond over a campaign; distinct
    /// silicon differs by tens to hundreds.
    pub fingerprint_tolerance_ps: f64,
    /// Minimum fraction of usable samples per trace for the robust
    /// aggregation path (engaged only under hostile sensor faults).
    pub robust_min_quorum: f64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            retry: RetryPolicy::default(),
            fault_plan: FaultPlan::none(),
            sensor_faults: SensorFaultPlan::none(),
            fingerprint_tolerance_ps: 10.0,
            robust_min_quorum: 0.5,
        }
    }
}

/// What the resilience machinery did during a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CampaignStats {
    /// Transient `rent` failures retried.
    pub rent_retries: u32,
    /// Transient measurement failures retried.
    pub measurement_retries: u32,
    /// Preemptions survived by reacquiring the fingerprinted board.
    pub reacquisitions: u32,
    /// Wrong boards rented, squatted, and returned during reacquisition.
    pub impostors_rejected: u32,
    /// Attack-design reloads after spurious scrubs.
    pub scrub_reloads: u32,
    /// Route-hours recorded from a partial set of repeats.
    pub degraded_points: usize,
    /// Route-hours abandoned after the retry budget ran dry.
    pub dropped_points: usize,
    /// Total simulated wall-clock backoff, in seconds (never advances
    /// provider hours).
    pub backoff_seconds: f64,
    /// Routes the scored classifier abstained on.
    pub abstained: usize,
    /// Scored verdicts whose confidence statistic came back non-finite
    /// (degenerate series); they are kept as abstain-grade evidence but
    /// counted here so a sweep can see the drop.
    pub non_finite_statistics: usize,
    /// Faults of any kind the provider's ledger recorded.
    pub faults_injected: usize,
}

/// Everything a finished campaign produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignOutcome {
    /// Per-route measurement series (gap-tolerant: dropped samples are
    /// simply absent).
    pub series: Vec<RouteSeries>,
    /// Hard-decision recovered bits.
    pub recovered: Vec<LogicLevel>,
    /// Scored verdicts with confidence, including abstentions.
    pub scored: Vec<Classification>,
    /// Ground-truth secret.
    pub truth: Vec<LogicLevel>,
    /// Attack quality of the hard decisions.
    pub metrics: RecoveryMetrics,
    /// What the resilience machinery did.
    pub stats: CampaignStats,
}

/// A physical device fingerprint: the per-route silicon delays of the
/// skeleton, which process variation makes unique per die and aging moves
/// by well under a picosecond over a campaign.
///
/// Device *identifiers* are a simulation artifact a real cloud does not
/// expose across leases; matching delays against a tolerance is what an
/// actual attacker can do (the paper's device-fingerprinting observation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceFingerprint {
    route_rise_ps: Vec<f64>,
}

impl DeviceFingerprint {
    /// Reads the fingerprint of `device` over the skeleton's routes.
    #[must_use]
    pub fn capture(device: &FpgaDevice, skeleton: &Skeleton) -> Self {
        Self {
            route_rise_ps: skeleton
                .routes()
                .map(|r| device.route_delay(r).rise_ps)
                .collect(),
        }
    }

    /// Whether `device` carries this fingerprint, to within
    /// `tolerance_ps` on every route.
    #[must_use]
    pub fn matches(&self, device: &FpgaDevice, skeleton: &Skeleton, tolerance_ps: f64) -> bool {
        let observed = Self::capture(device, skeleton);
        observed.route_rise_ps.len() == self.route_rise_ps.len()
            && observed
                .route_rise_ps
                .iter()
                .zip(&self.route_rise_ps)
                .all(|(a, b)| (a - b).abs() <= tolerance_ps)
    }

    /// A compact digest (FNV-1a over 25 ps-quantized delays) for
    /// manifests and logs. Coarse quantization makes the digest stable
    /// under campaign-scale aging; verification always uses
    /// [`matches`](Self::matches), never digest equality.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        for &ps in &self.route_rise_ps {
            let bucket = (ps / 25.0).round() as i64;
            for byte in bucket.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        hash
    }
}

/// What to reload onto the device after a scrub or reacquisition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum AttackDesign {
    /// Threat Model 1 conditions via the sealed marketplace AFI.
    Afi(cloud::AfiId),
    /// Threat Model 2 conditions every route to a level.
    Condition(LogicLevel),
}

/// The mutable mid-campaign state a checkpoint must carry.
#[derive(Debug, Clone)]
struct RunState {
    session: Option<Session>,
    skeleton: Skeleton,
    truth: Vec<LogicLevel>,
    sensors: Vec<TdcSensor>,
    hours_log: Vec<f64>,
    readings: Vec<Vec<Option<f64>>>,
    /// Completed attack-window hours.
    hour: usize,
    attack_design: AttackDesign,
    victim_device: DeviceId,
    fingerprint: DeviceFingerprint,
}

/// A resilient, resumable attack campaign. Owns the provider so that a
/// checkpoint captures the *entire* world — fleet aging, ledger, fault
/// counters — and resume replays bit-identically.
///
/// Telemetry goes to the provider's recorder ([`Provider::recorder`]).
/// Every campaign emission happens on a serial code path (the setup
/// prologue, the route-ordered merge of each measurement phase,
/// finalize), so traces are deterministic at every thread-pool width;
/// see `obs`'s crate docs for the contract.
#[derive(Debug, Clone)]
pub struct Campaign {
    provider: Provider,
    attack: AttackLoop,
}

/// The attack loop itself: everything a campaign carries except the
/// provider it runs against. Every method borrows the provider, so the
/// same loop serves an owned [`Campaign`] and the threat-model drivers,
/// which run it against a caller's provider.
#[derive(Debug, Clone)]
struct AttackLoop {
    mission: Mission,
    config: CampaignConfig,
    rng: StdRng,
    run: RunState,
    stats: CampaignStats,
    backoff_draws: u64,
    armed: bool,
}

/// A point-in-time snapshot of a campaign plus two integrity seals.
///
/// The snapshot is clone-based (the simulation lives in memory). It is
/// sealed twice: a dense FNV-1a checksum over the serialized state
/// ([`Campaign::state_checksum`]) that any single-field mutation
/// invalidates, and a human-readable JSON manifest
/// ([`Campaign::manifest_json`]) summarizing the headline fields.
/// [`Campaign::resume`] recomputes both and rejects any checkpoint whose
/// seals no longer describe its state with
/// [`PentimentoError::CheckpointCorrupt`].
#[derive(Debug, Clone)]
pub struct CampaignCheckpoint {
    campaign: Campaign,
    manifest: String,
    checksum: u64,
}

impl CampaignCheckpoint {
    /// The integrity manifest this checkpoint was sealed with.
    #[must_use]
    pub fn manifest(&self) -> &str {
        &self.manifest
    }

    /// The state checksum this checkpoint was sealed with. Durable
    /// stores persist this alongside the manifest so a recovery scan can
    /// verify a restored snapshot against the envelope it was filed
    /// under.
    #[must_use]
    pub fn state_checksum(&self) -> u64 {
        self.checksum
    }

    /// Completed attack-window hours at the instant the snapshot was
    /// taken (store bookkeeping: generation pruning, progress reports).
    #[must_use]
    pub fn hour(&self) -> usize {
        self.campaign.hour()
    }
}

/// Runs a benign campaign — default [`CampaignConfig`], so no fault plan
/// — against a borrowed provider, which keeps its recorder and is left
/// for the caller to inspect afterwards. This is the whole of
/// [`crate::threat_model1::run`] and [`crate::threat_model2::run`].
pub(crate) fn run_benign(
    provider: &mut Provider,
    mission: Mission,
) -> Result<CampaignOutcome, PentimentoError> {
    AttackLoop::start(provider, mission, CampaignConfig::default())?.run(provider)
}

impl Campaign {
    /// Sets up a campaign: runs the mission's deterministic prologue
    /// (vendor/victim epoch, skeleton, calibration, baseline measurement)
    /// on a *clean* provider, then arms the hostile fault plans for the
    /// attack window.
    ///
    /// # Errors
    ///
    /// Propagates setup failures; transient rent failures are retried
    /// under the policy and escalate to
    /// [`PentimentoError::RetriesExhausted`].
    pub fn new(
        provider: Provider,
        mission: Mission,
        config: CampaignConfig,
    ) -> Result<Self, PentimentoError> {
        Self::new_observed(provider, mission, config, None)
    }

    /// [`Campaign::new`] with a telemetry recorder attached to the
    /// provider from the very first rent, so the setup prologue's
    /// session and cache events are captured too. Results are
    /// bit-identical with or without one.
    ///
    /// # Errors
    ///
    /// As [`Campaign::new`].
    pub fn new_observed(
        mut provider: Provider,
        mission: Mission,
        config: CampaignConfig,
        recorder: Option<Arc<Recorder>>,
    ) -> Result<Self, PentimentoError> {
        provider.set_recorder(recorder);
        let attack = AttackLoop::start(&mut provider, mission, config)?;
        Ok(Self { provider, attack })
    }

    /// Completed attack-window hours so far.
    #[must_use]
    pub fn hour(&self) -> usize {
        self.attack.run.hour
    }

    /// Whether every attack-window hour has elapsed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.attack.run.hour >= self.attack.mission.attack_hours()
    }

    /// Resilience counters so far.
    #[must_use]
    pub fn stats(&self) -> &CampaignStats {
        &self.attack.stats
    }

    /// Attaches (or detaches) a telemetry recorder mid-campaign (it
    /// lives on the provider). Results are bit-identical either way.
    pub fn set_recorder(&mut self, recorder: Option<Arc<Recorder>>) {
        self.provider.set_recorder(recorder);
    }

    /// The attached telemetry recorder, if any.
    #[must_use]
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.provider.recorder()
    }

    /// The provider (ledger and fleet introspection).
    #[must_use]
    pub fn provider(&self) -> &Provider {
        &self.provider
    }

    /// The device the victim's secret is imprinted on — the identity a
    /// fleet supervisor keys its per-device circuit breakers by.
    #[must_use]
    pub fn victim_device(&self) -> DeviceId {
        self.attack.run.victim_device
    }

    /// Advances one attack-window hour: step the world, repair whatever
    /// the hostile cloud broke, and take the hour's measurements.
    ///
    /// The step is pinned to one hour because fault injection and
    /// checkpointing are defined on hour boundaries; each hour's aging is
    /// nevertheless a single closed-form phase advance through the
    /// fleet's shared decay caches, so stepping costs no per-wire `exp`
    /// work.
    ///
    /// Returns `Ok(true)` while more hours remain.
    ///
    /// # Errors
    ///
    /// Fatal (non-transient) failures and exhausted retry budgets.
    pub fn step(&mut self) -> Result<bool, PentimentoError> {
        self.attack.step(&mut self.provider)
    }

    /// Runs every remaining hour, then classifies.
    ///
    /// # Errors
    ///
    /// Fatal failures from stepping or series construction.
    pub fn run(&mut self) -> Result<CampaignOutcome, PentimentoError> {
        self.attack.run(&mut self.provider)
    }

    // ------------------------------------------------------------------
    // Checkpoint / resume
    // ------------------------------------------------------------------

    /// The hand-rolled JSON manifest describing this campaign's position:
    /// the integrity seal a checkpoint carries.
    #[must_use]
    pub fn manifest_json(&self) -> String {
        let a = &self.attack;
        format!(
            concat!(
                "{{\"version\":1,\"mission\":\"{}\",\"hour\":{},",
                "\"measurements\":{},\"routes\":{},\"fingerprint\":\"{:#018x}\"}}"
            ),
            a.mission.tag(),
            a.run.hour,
            a.run.hours_log.len(),
            a.run.skeleton.len(),
            a.run.fingerprint.digest(),
        )
    }

    /// A checksum over the serialized campaign state: every field that
    /// determines future behaviour — measurements, truth, RNG stream
    /// position, fault-draw counters, provider clock — folded through
    /// FNV-1a in a fixed canonical order.
    ///
    /// Unlike [`manifest_json`](Self::manifest_json) (a human-readable
    /// summary of a handful of headline fields), the checksum covers the
    /// state densely: flipping a single reading bit, rewinding the RNG,
    /// or dropping one recorded hour all change it. [`resume`](Self::resume)
    /// recomputes it and rejects any checkpoint whose sealed value no
    /// longer matches.
    #[must_use]
    pub fn state_checksum(&self) -> u64 {
        let a = &self.attack;
        let mut d = StateDigest::new();
        // Mission identity and position.
        d.str(a.mission.tag());
        d.u64(a.mission.seed());
        d.u64(a.mission.attack_hours() as u64);
        d.u64(a.run.hour as u64);
        // Recorded evidence: hours log and the gap-tolerant readings.
        d.u64(a.run.hours_log.len() as u64);
        for &h in &a.run.hours_log {
            d.f64(h);
        }
        d.u64(a.run.readings.len() as u64);
        for route in &a.run.readings {
            d.u64(route.len() as u64);
            for reading in route {
                match reading {
                    Some(v) => {
                        d.u64(1);
                        d.f64(*v);
                    }
                    None => d.u64(0),
                }
            }
        }
        // Ground truth and physical identity.
        d.u64(a.run.truth.len() as u64);
        for &bit in &a.run.truth {
            d.u64(match bit {
                LogicLevel::One => 1,
                LogicLevel::Zero => 0,
            });
        }
        d.u64(u64::from(a.run.victim_device.0));
        d.u64(a.run.fingerprint.digest());
        match a.run.attack_design {
            AttackDesign::Afi(id) => {
                d.u64(1);
                d.u64(id.0);
            }
            AttackDesign::Condition(level) => {
                d.u64(2);
                d.u64(match level {
                    LogicLevel::One => 1,
                    LogicLevel::Zero => 0,
                });
            }
        }
        d.u64(u64::from(a.run.session.is_some()));
        // Resilience counters.
        d.u64(u64::from(a.stats.rent_retries));
        d.u64(u64::from(a.stats.measurement_retries));
        d.u64(u64::from(a.stats.reacquisitions));
        d.u64(u64::from(a.stats.impostors_rejected));
        d.u64(u64::from(a.stats.scrub_reloads));
        d.u64(a.stats.degraded_points as u64);
        d.u64(a.stats.dropped_points as u64);
        d.f64(a.stats.backoff_seconds);
        d.u64(a.stats.abstained as u64);
        d.u64(a.stats.non_finite_statistics as u64);
        d.u64(a.stats.faults_injected as u64);
        // Randomness and fault-injection position: the exact RNG state
        // and per-kind draw counters that make resume bit-identical.
        for word in a.rng.state() {
            d.u64(word);
        }
        d.u64(a.backoff_draws);
        d.u64(u64::from(a.armed));
        d.f64(self.provider.now().value());
        let faults = self.provider.fault_state();
        for kind in FaultKind::ALL {
            d.u64(faults.draws_consumed(kind));
        }
        d.u64(faults.schedule_fired() as u64);
        d.u64(self.provider.ledger().faults().len() as u64);
        d.hash
    }

    /// Snapshots the whole campaign — provider, RNG stream, fault
    /// counters, readings — sealed with [`manifest_json`](Self::manifest_json).
    #[must_use]
    pub fn checkpoint(&self) -> CampaignCheckpoint {
        if let Some(r) = recorder_of(&self.provider) {
            r.event(
                CampaignEvent::new(EventKind::CheckpointWrite, self.provider.now().value())
                    .value(self.attack.run.hours_log.len() as f64)
                    .detail(self.attack.mission.tag()),
            );
            r.incr("campaign.checkpoints", 1);
        }
        CampaignCheckpoint {
            campaign: self.clone(),
            manifest: self.manifest_json(),
            checksum: self.state_checksum(),
        }
    }

    /// Rebuilds a campaign from a checkpoint, validating both seals
    /// against the snapshotted state first: the dense state checksum,
    /// then the headline manifest.
    ///
    /// A resumed campaign continues **bit-identically**: stepping it
    /// produces the same fault stream, the same measurements, and the
    /// same classified bits as the campaign it was taken from.
    ///
    /// # Errors
    ///
    /// [`PentimentoError::CheckpointCorrupt`] when either seal no longer
    /// matches the state (tampering, truncation, version skew).
    pub fn resume(checkpoint: CampaignCheckpoint) -> Result<Self, PentimentoError> {
        let actual = checkpoint.campaign.state_checksum();
        if checkpoint.checksum != actual {
            return Err(PentimentoError::CheckpointCorrupt(format!(
                "state checksum mismatch: sealed {:#018x} but state hashes to {actual:#018x}",
                checkpoint.checksum
            )));
        }
        let expected = checkpoint.campaign.manifest_json();
        if checkpoint.manifest != expected {
            return Err(PentimentoError::CheckpointCorrupt(format!(
                "manifest mismatch: sealed {} but state describes {expected}",
                checkpoint.manifest
            )));
        }
        Ok(checkpoint.campaign)
    }
}

/// The provider's recorder, borrowed for one emission.
fn recorder_of(provider: &Provider) -> Option<&Recorder> {
    provider.recorder().map(Arc::as_ref)
}

/// Emits a `PhaseTransition` event keyed at the current provider time.
fn note_phase(provider: &Provider, name: &str) {
    if let Some(r) = recorder_of(provider) {
        r.event(
            CampaignEvent::new(EventKind::PhaseTransition, provider.now().value()).detail(name),
        );
    }
}

/// Emits a `FingerprintVerified` event keyed at the current provider
/// time.
fn note_fingerprint(provider: &Provider, device: DeviceId, what: &str) {
    if let Some(r) = recorder_of(provider) {
        r.event(
            CampaignEvent::new(EventKind::FingerprintVerified, provider.now().value())
                .value(f64::from(device.0))
                .detail(what),
        );
    }
}

impl AttackLoop {
    /// Runs the mission's deterministic prologue on a clean provider,
    /// then arms the hostile fault plans for the attack window.
    fn start(
        provider: &mut Provider,
        mission: Mission,
        config: CampaignConfig,
    ) -> Result<Self, PentimentoError> {
        let mut attack = Self {
            rng: StdRng::seed_from_u64(mission.seed()),
            mission,
            config,
            run: RunState {
                session: None,
                skeleton: Skeleton::empty(),
                truth: Vec::new(),
                sensors: Vec::new(),
                hours_log: Vec::new(),
                readings: Vec::new(),
                hour: 0,
                attack_design: AttackDesign::Condition(LogicLevel::Zero),
                victim_device: DeviceId(0),
                fingerprint: DeviceFingerprint {
                    route_rise_ps: Vec::new(),
                },
            },
            stats: CampaignStats::default(),
            backoff_draws: 0,
            armed: false,
        };
        match attack.mission.clone() {
            Mission::ThreatModel1(_) => attack.setup_tm1(provider)?,
            Mission::ThreatModel2(cfg) => attack.setup_tm2(provider, &cfg)?,
        }
        attack.arm(provider);
        Ok(attack)
    }

    /// Threat Model 1 prologue (Section 2): the vendor publishes a sealed
    /// AFI whose constants are the secret `X`; the attacker rents an
    /// instance, reconstructs the route skeleton (Assumption 1), takes
    /// the pre-burn baseline, and loads the AFI.
    fn setup_tm1(&mut self, provider: &mut Provider) -> Result<(), PentimentoError> {
        note_phase(provider, "setup:tm1");
        let attacker = TenantId::new("attacker");
        let session = self.rent_with_retries(provider, &attacker)?;

        // Skeleton is derived from the device profile — both the vendor
        // and the attacker compute the same one (Assumption 1).
        let specs = self.mission.specs();
        let skeleton = Skeleton::place(provider.device(&session)?, &specs)?;
        let truth: Vec<LogicLevel> = (0..skeleton.len())
            .map(|_| LogicLevel::from_bool(self.rng.gen()))
            .collect();
        let vendor = TenantId::new("vendor");
        let afi = provider.marketplace_mut().publish(
            vendor,
            build_target_design(&skeleton, &truth),
            true,
        );
        // The seal holds: the attacker cannot read the design.
        if provider.marketplace().get(afi)?.inspect(&attacker).is_ok() {
            return Err(PentimentoError::InvalidConfig(
                "marketplace seal broken: the attack must not read the AFI".to_owned(),
            ));
        }

        let sensors = self.place_sensors(provider, &session, &skeleton)?;
        let fingerprint = DeviceFingerprint::capture(provider.device(&session)?, &skeleton);
        note_fingerprint(provider, session.device_id(), "capture");
        self.run = RunState {
            victim_device: session.device_id(),
            session: Some(session),
            readings: vec![Vec::new(); skeleton.len()],
            skeleton,
            truth,
            sensors,
            hours_log: Vec::new(),
            hour: 0,
            attack_design: AttackDesign::Afi(afi),
            fingerprint,
        };

        // Pre-burn baseline (clean epoch), then load the sealed AFI.
        self.record(provider, 0.0)?;
        let session = self.current_session()?;
        provider.load_afi(&session, afi)?;
        Ok(())
    }

    /// Threat Model 2 prologue (Section 2): the victim computes on secret
    /// `X` for `victim_hours` (optionally holding and toggling the routes
    /// before leaving), the provider scrubs the board on release, and the
    /// attacker — squatting on the rest of the region — reacquires it,
    /// takes the hour-zero reading, and conditions every route to
    /// `condition_level`.
    fn setup_tm2(
        &mut self,
        provider: &mut Provider,
        cfg: &ThreatModel2Config,
    ) -> Result<(), PentimentoError> {
        note_phase(provider, "setup:tm2");
        let specs = self.mission.specs();

        // --- Victim epoch (unobserved; always fault-free). --------------
        let victim = TenantId::new("victim");
        let victim_session = self.rent_with_retries(provider, &victim)?;
        let victim_device = victim_session.device_id();
        let skeleton = Skeleton::place(provider.device(&victim_session)?, &specs)?;
        let truth: Vec<LogicLevel> = (0..skeleton.len())
            .map(|_| LogicLevel::from_bool(self.rng.gen()))
            .collect();
        provider.load_design(&victim_session, build_target_design(&skeleton, &truth))?;

        // The attacker squats on every other device while the victim works.
        let attacker = TenantId::new("attacker");
        let squatted = provider.rent_all(attacker.clone()).unwrap_or_default();

        provider.advance_time(Hours::new(cfg.victim_hours as f64));

        // Optional victim-side mitigation: hold the instance and toggle
        // the sensitive routes before giving the board back.
        if cfg.victim_hold_and_recover_hours > 0 {
            provider.unload(&victim_session)?;
            let mut scrubber = fpga_fabric::Design::new("victim-scrubber");
            scrubber.set_power_watts(crate::designs::CONDITION_WATTS);
            for (i, entry) in skeleton.entries().iter().enumerate() {
                scrubber.add_net(
                    format!("toggle[{i}]"),
                    fpga_fabric::NetActivity::Duty(bti_physics::DutyCycle::BALANCED),
                    Some(entry.route.clone()),
                );
            }
            provider.load_design(&victim_session, scrubber)?;
            provider.advance_time(Hours::new(cfg.victim_hold_and_recover_hours as f64));
        }

        provider.unload(&victim_session)?;
        provider.release(victim_session)?; // scrub happens here

        // --- Flash attack: reacquire the victim's exact board. -----------
        // The attacker has no pre-victim fingerprint, so this first
        // reacquisition leans on the squat (every other board is held);
        // the fingerprint captured here guards all later reacquisitions.
        let mut impostors: Vec<Session> = Vec::new();
        let mut reacquired = None;
        for _ in 0..self.config.retry.max_attempts {
            let session = self.rent_with_retries(provider, &attacker)?;
            if session.device_id() == victim_device {
                reacquired = Some(session);
                break;
            }
            self.stats.impostors_rejected += 1;
            impostors.push(session);
        }
        for s in impostors {
            release_best_effort(provider, s);
        }
        for s in squatted {
            release_best_effort(provider, s);
        }
        let session = reacquired.ok_or(PentimentoError::VictimDeviceLost)?;

        // Calibration against the device here never observes pre-victim
        // state: the victim is already gone.
        let sensors = self.place_sensors(provider, &session, &skeleton)?;
        let fingerprint = DeviceFingerprint::capture(provider.device(&session)?, &skeleton);
        note_fingerprint(provider, victim_device, "capture");
        self.run = RunState {
            victim_device,
            session: Some(session),
            readings: vec![Vec::new(); skeleton.len()],
            skeleton,
            truth,
            sensors,
            hours_log: Vec::new(),
            hour: 0,
            attack_design: AttackDesign::Condition(cfg.condition_level),
            fingerprint,
        };

        self.record(provider, 0.0)?;
        let session = self.current_session()?;
        self.load_attack_design(provider, &session)?;
        Ok(())
    }

    /// In TDC mode, places one sensor per skeleton route as one bank and
    /// calibrates it in parallel, sensor `i` from the derived stream
    /// `stream_seed(mission_seed, i, STREAM_CALIBRATE)`. Oracle mode
    /// needs no sensors.
    fn place_sensors(
        &self,
        provider: &Provider,
        session: &Session,
        skeleton: &Skeleton,
    ) -> Result<Vec<TdcSensor>, PentimentoError> {
        if self.mission.mode() == MeasurementMode::Oracle {
            return Ok(Vec::new());
        }
        let device = provider.device(session)?;
        let mut bank = TdcArray::place(device, skeleton.routes().cloned(), TdcConfig::cloud())?;
        bank.calibrate_all_streamed_observed(device, self.mission.seed(), recorder_of(provider))?;
        Ok(bank.into_sensors())
    }

    /// Arms the hostile fault plans for the attack window. Scheduled
    /// fault times rebase from "hours into the attack" onto provider
    /// time.
    fn arm(&mut self, provider: &mut Provider) {
        let mut plan = self.config.fault_plan.clone();
        let epoch = provider.now();
        for fault in &mut plan.schedule {
            fault.at = Hours::new(fault.at.value() + epoch.value());
        }
        provider.set_fault_plan(plan);
        for sensor in &mut self.run.sensors {
            sensor.set_fault_plan(self.config.sensor_faults.clone());
        }
        self.armed = true;
        note_phase(provider, "arm");
    }

    /// One attack-window hour; see [`Campaign::step`].
    fn step(&mut self, provider: &mut Provider) -> Result<bool, PentimentoError> {
        let total = self.mission.attack_hours();
        if self.run.hour >= total {
            return Ok(false);
        }
        provider.advance_time(Hours::new(1.0));
        self.run.hour += 1;
        // Faults fire at the end of `advance_time`; repairing before any
        // further time passes means a survived fault costs zero
        // conditioning hours (the transparency the proptests pin down).
        self.ensure_session(provider)?;
        if self.run.hour.is_multiple_of(self.mission.measure_every()) {
            self.record(provider, self.run.hour as f64)?;
        }
        Ok(self.run.hour < total)
    }

    /// Every remaining hour, then the verdicts.
    fn run(&mut self, provider: &mut Provider) -> Result<CampaignOutcome, PentimentoError> {
        while self.step(provider)? {}
        self.finalize(provider)
    }

    /// Releases the lease and turns the recorded series into verdicts.
    fn finalize(&mut self, provider: &mut Provider) -> Result<CampaignOutcome, PentimentoError> {
        note_phase(provider, "classify");
        if let Some(session) = self.run.session.take() {
            // A preemption on the very last step may have revoked the
            // lease already; that is not a campaign failure.
            match provider.unload(&session) {
                Ok(_) | Err(CloudError::SessionRevoked) => {}
                Err(e) => return Err(e.into()),
            }
            match provider.release(session) {
                Ok(()) | Err(CloudError::SessionRevoked) => {}
                Err(e) => return Err(e.into()),
            }
        }

        let mut series = Vec::with_capacity(self.run.skeleton.len());
        for (i, entry) in self.run.skeleton.entries().iter().enumerate() {
            let observations: Vec<(f64, Option<f64>)> = self
                .run
                .hours_log
                .iter()
                .copied()
                .zip(self.run.readings[i].iter().copied())
                .collect();
            series.push(RouteSeries::from_observations(
                i,
                entry.target_ps,
                self.run.truth[i],
                &observations,
            )?);
        }

        let (recovered, scored) = match &self.mission {
            Mission::ThreatModel1(_) => {
                let classifier = DriftSlopeClassifier::new();
                (
                    classifier.classify_all(&series),
                    classifier.classify_all_scored(&series),
                )
            }
            Mission::ThreatModel2(cfg) => {
                // Threshold calibrated from the attacker's own reference
                // model of the device class (no victim data involved).
                let reference = provider.device_by_id(self.run.victim_device)?;
                let burn_temp = reference
                    .thermal()
                    .die_temperature(crate::designs::ARITHMETIC_HEAVY_WATTS);
                let attack_temp = reference
                    .thermal()
                    .die_temperature(crate::designs::CONDITION_WATTS);
                let classifier = RecoverySlopeClassifier::calibrated(
                    reference.bti_model(),
                    cfg.victim_hours as f64,
                    cfg.attack_hours as f64,
                    burn_temp,
                    attack_temp,
                    reference.wear_factor(),
                );
                (
                    classifier.classify_all(&series),
                    classifier.classify_all_scored(&series),
                )
            }
        };
        self.stats.abstained = scored.iter().filter(|c| c.verdict.is_abstain()).count();
        self.stats.non_finite_statistics =
            scored.iter().filter(|c| !c.confidence.is_finite()).count();
        self.stats.faults_injected = provider.ledger().faults().len();
        if let Some(r) = recorder_of(provider) {
            let at = provider.now().value();
            for (route, classified) in scored.iter().enumerate() {
                if classified.verdict.is_abstain() {
                    r.event(
                        CampaignEvent::new(EventKind::Abstain, at)
                            .route(route as u64)
                            .value(classified.confidence),
                    );
                }
            }
            r.incr("campaign.abstained", self.stats.abstained as u64);
            r.incr("campaign.routes_classified", scored.len() as u64);
        }
        let metrics = RecoveryMetrics::score(&series, &recovered);
        Ok(CampaignOutcome {
            series,
            recovered,
            scored,
            truth: self.run.truth.clone(),
            metrics,
            stats: self.stats,
        })
    }

    // ------------------------------------------------------------------
    // Recovery machinery
    // ------------------------------------------------------------------

    fn current_session(&self) -> Result<Session, PentimentoError> {
        self.run
            .session
            .clone()
            .ok_or(PentimentoError::VictimDeviceLost)
    }

    /// Verifies the lease still stands and the attack design is still
    /// loaded, repairing both if the hostile cloud intervened.
    fn ensure_session(&mut self, provider: &mut Provider) -> Result<(), PentimentoError> {
        let session = match &self.run.session {
            Some(s) => s.clone(),
            None => return self.reacquire(provider),
        };
        match provider.device(&session) {
            Ok(device) => {
                if device.loaded_design().is_none() {
                    // Spurious scrub: the lease survived, the design did
                    // not. The analog imprint is untouched — reload.
                    self.stats.scrub_reloads += 1;
                    self.load_attack_design(provider, &session)?;
                }
                Ok(())
            }
            Err(CloudError::SessionRevoked) => {
                self.run.session = None;
                self.reacquire(provider)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Wins the device back after a preemption: rent, fingerprint, and
    /// squat on impostors until the right silicon comes home.
    fn reacquire(&mut self, provider: &mut Provider) -> Result<(), PentimentoError> {
        let tenant = TenantId::new("attacker");
        let mut impostors: Vec<Session> = Vec::new();
        let mut outcome: Result<Session, PentimentoError> = Err(PentimentoError::VictimDeviceLost);
        for attempt in 1..=self.config.retry.max_attempts {
            match provider.rent(tenant.clone()) {
                Ok(session) => {
                    let device = provider.device(&session)?;
                    if self.run.fingerprint.matches(
                        device,
                        &self.run.skeleton,
                        self.config.fingerprint_tolerance_ps,
                    ) {
                        outcome = Ok(session);
                        break;
                    }
                    self.stats.impostors_rejected += 1;
                    impostors.push(session);
                    self.note_backoff(provider, attempt);
                }
                Err(e) if e.is_transient() => {
                    self.stats.rent_retries += 1;
                    self.note_backoff(provider, attempt);
                }
                Err(e) => {
                    outcome = Err(e.into());
                    break;
                }
            }
        }
        for s in impostors {
            release_best_effort(provider, s);
        }
        match outcome {
            Ok(session) => {
                self.stats.reacquisitions += 1;
                note_fingerprint(provider, session.device_id(), "reacquire");
                self.load_attack_design(provider, &session)?;
                self.run.session = Some(session);
                Ok(())
            }
            Err(e) if e.is_transient() => Err(PentimentoError::RetriesExhausted {
                operation: "reacquire device",
                attempts: self.config.retry.max_attempts,
                last: Box::new(e),
            }),
            Err(e) => Err(e),
        }
    }

    fn load_attack_design(
        &self,
        provider: &mut Provider,
        session: &Session,
    ) -> Result<(), PentimentoError> {
        match self.run.attack_design {
            AttackDesign::Afi(afi) => provider.load_afi(session, afi)?,
            AttackDesign::Condition(level) => {
                let design = build_condition_design(&self.run.skeleton, level);
                provider.load_design(session, design)?;
            }
        }
        Ok(())
    }

    fn rent_with_retries(
        &mut self,
        provider: &mut Provider,
        tenant: &TenantId,
    ) -> Result<Session, PentimentoError> {
        let mut last = PentimentoError::Cloud(CloudError::CapacityExhausted);
        for attempt in 1..=self.config.retry.max_attempts {
            match provider.rent(tenant.clone()) {
                Ok(session) => return Ok(session),
                Err(e) if e.is_transient() => {
                    self.stats.rent_retries += 1;
                    last = e.into();
                    self.note_backoff(provider, attempt);
                }
                Err(e) => return Err(e.into()),
            }
        }
        Err(PentimentoError::RetriesExhausted {
            operation: "rent",
            attempts: self.config.retry.max_attempts,
            last: Box::new(last),
        })
    }

    fn note_backoff(&mut self, provider: &Provider, attempt: u32) {
        let wait = self.config.retry.backoff_s(attempt, self.backoff_draws);
        self.backoff_draws += 1;
        self.stats.backoff_seconds += wait;
        if let Some(r) = recorder_of(provider) {
            let at = provider.now().value();
            r.event(
                CampaignEvent::new(EventKind::Retry, at)
                    .value(f64::from(attempt))
                    .detail("session"),
            );
            r.event(
                CampaignEvent::new(EventKind::Backoff, at)
                    .value(wait)
                    .detail("session"),
            );
            r.incr("campaign.session_retries", 1);
        }
    }

    // ------------------------------------------------------------------
    // Measurement
    // ------------------------------------------------------------------

    /// Takes one measurement phase: every route, `measurement_repeats`
    /// sensor reads each, gap-tolerantly, fanned across worker threads.
    ///
    /// Each route draws from its own
    /// `stream_seed(mission_seed, route, STREAM_MEASURE + phase)` stream
    /// (the phase index is the count of measurements already recorded),
    /// so the readings are independent of scheduling order and
    /// bit-identical at every thread count. Results merge serially in
    /// route order, so stats accumulate and the first fatal error on the
    /// lowest-indexed route wins deterministically.
    fn record(&mut self, provider: &Provider, hour: f64) -> Result<(), PentimentoError> {
        let session = self.current_session()?;
        let phase = self.run.hours_log.len() as u64;
        self.run.hours_log.push(hour);
        let recorder = recorder_of(provider);
        if let Some(r) = recorder {
            r.event(
                CampaignEvent::new(EventKind::PhaseTransition, hour)
                    .value(phase as f64)
                    .detail("measure"),
            );
            r.incr("campaign.measurement_phases", 1);
        }
        let device = provider.device(&session)?;
        match self.mission.mode() {
            MeasurementMode::Oracle => {
                let values = crate::experiment::oracle_deltas(device, &self.run.skeleton);
                for (per_route, value) in self.run.readings.iter_mut().zip(values) {
                    per_route.push(Some(value));
                }
            }
            MeasurementMode::Tdc => {
                let repeats = self.mission.measurement_repeats();
                // The robust (quorum + MAD) aggregation path is engaged
                // exactly when the sensor fault model is: on clean traces
                // the plain estimator is the attacker's optimum.
                let robust = self.armed && !self.config.sensor_faults.is_benign();
                let master = self.mission.seed();
                let quorum = self.config.robust_min_quorum;
                let retry = self.config.retry;
                let points: Vec<Result<RoutePoint, PentimentoError>> = {
                    let _span = recorder.map(|r| r.span("tdc.measure_batch"));
                    self.run
                        .sensors
                        .par_iter()
                        .enumerate()
                        .map(|(i, sensor)| {
                            measure_route(
                                device, sensor, i, phase, master, repeats, robust, quorum, &retry,
                            )
                        })
                        .collect()
                };
                if let Some(r) = recorder {
                    r.incr("tdc.batched_reads", 1);
                    r.incr("tdc.sensor_reads", (points.len() * repeats) as u64);
                }
                for (i, point) in points.into_iter().enumerate() {
                    let point = point?;
                    self.stats.measurement_retries += point.retries;
                    self.stats.backoff_seconds += point.backoff_s;
                    if point.got == 0 {
                        self.stats.dropped_points += 1;
                    } else if point.got < repeats {
                        self.stats.degraded_points += 1;
                    }
                    // Telemetry is emitted here, in the serial
                    // route-ordered merge — never from the parallel
                    // workers — so event keys are pure data and the trace
                    // is width-invariant.
                    if let Some(r) = recorder {
                        let route = i as u64;
                        if point.retries > 0 {
                            r.event(
                                CampaignEvent::new(EventKind::Retry, hour)
                                    .route(route)
                                    .value(f64::from(point.retries))
                                    .detail("measure"),
                            );
                            r.incr("campaign.measurement_retries", u64::from(point.retries));
                        }
                        if point.backoff_s > 0.0 {
                            r.event(
                                CampaignEvent::new(EventKind::Backoff, hour)
                                    .route(route)
                                    .value(point.backoff_s)
                                    .detail("measure"),
                            );
                        }
                        if point.quorum_failures > 0 {
                            r.event(
                                CampaignEvent::new(EventKind::QuorumFailure, hour)
                                    .route(route)
                                    .value(f64::from(point.quorum_failures)),
                            );
                            r.incr("campaign.quorum_failures", u64::from(point.quorum_failures));
                        }
                        if point.got == 0 {
                            r.incr("campaign.dropped_points", 1);
                        } else if point.got < repeats {
                            r.incr("campaign.degraded_points", 1);
                        }
                    }
                    self.run.readings[i].push(point.value);
                }
            }
        }
        Ok(())
    }
}

/// One route's measurement for one phase, plus the retry bookkeeping the
/// serial merge folds into [`CampaignStats`].
struct RoutePoint {
    /// Mean of the usable repeats, or `None` when every repeat dropped.
    value: Option<f64>,
    /// Usable repeats out of `measurement_repeats`.
    got: usize,
    /// Transient measurement failures retried on this route.
    retries: u32,
    /// How many of those retries were robust-quorum failures
    /// ([`tdc::TdcError::Dropout`]) rather than other transient faults.
    quorum_failures: u32,
    /// Simulated backoff this route's retries accrued, in seconds.
    backoff_s: f64,
}

/// Measures one route for one phase under the retry budget. A repeat
/// whose budget runs dry on transient errors is dropped (the gap-tolerant
/// series absorbs it); fatal errors propagate.
///
/// All randomness — sensor reads *and* backoff jitter — comes from
/// per-(route, phase) derived streams, so the result is a pure function
/// of its arguments and identical no matter which worker thread runs it.
#[allow(clippy::too_many_arguments)]
fn measure_route(
    device: &FpgaDevice,
    sensor: &TdcSensor,
    route: usize,
    phase: u64,
    master_seed: u64,
    repeats: usize,
    robust: bool,
    quorum: f64,
    retry: &RetryPolicy,
) -> Result<RoutePoint, PentimentoError> {
    let mut rng = StdRng::seed_from_u64(stream_seed(
        master_seed,
        route as u64,
        STREAM_MEASURE + phase,
    ));
    let mut point = RoutePoint {
        value: None,
        got: 0,
        retries: 0,
        quorum_failures: 0,
        backoff_s: 0.0,
    };
    let mut acc = 0.0;
    for _ in 0..repeats {
        let mut sample = None;
        for attempt in 1..=retry.max_attempts {
            let result = if robust {
                sensor.measure_robust(device, quorum, &mut rng)
            } else {
                sensor.measure(device, &mut rng)
            };
            match result {
                Ok(measurement) => {
                    sample = Some(measurement.delta_ps);
                    break;
                }
                Err(e) if e.is_transient() => {
                    if matches!(e, tdc::TdcError::Dropout { .. }) {
                        point.quorum_failures += 1;
                    }
                    // Jitter draws index a per-(route, phase, retry)
                    // stream instead of a shared campaign counter, so
                    // the wait bookkeeping cannot depend on scheduling.
                    let draw = stream_seed(route as u64, phase, u64::from(point.retries));
                    point.retries += 1;
                    point.backoff_s += retry.backoff_s(attempt, draw);
                }
                Err(e) => return Err(e.into()),
            }
        }
        if let Some(delta) = sample {
            acc += delta;
            point.got += 1;
        }
    }
    if point.got > 0 {
        point.value = Some(acc / point.got as f64);
    }
    Ok(point)
}

fn release_best_effort(provider: &mut Provider, session: Session) {
    // A session the hostile cloud already revoked has nothing to release.
    match provider.release(session) {
        Ok(()) | Err(CloudError::SessionRevoked) => {}
        Err(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{threat_model1, threat_model2};
    use cloud::{FaultKind, ProviderConfig};

    fn tm1_config() -> ThreatModel1Config {
        ThreatModel1Config {
            route_lengths_ps: vec![5_000.0, 10_000.0],
            routes_per_length: 4,
            burn_hours: 60,
            measure_every: 10,
            mode: MeasurementMode::Oracle,
            seed: 11,
            measurement_repeats: 1,
        }
    }

    fn tm2_config() -> ThreatModel2Config {
        ThreatModel2Config {
            route_lengths_ps: vec![5_000.0, 10_000.0],
            routes_per_length: 4,
            victim_hours: 100,
            attack_hours: 25,
            condition_level: LogicLevel::Zero,
            mode: MeasurementMode::Oracle,
            seed: 13,
            measurement_repeats: 1,
            victim_hold_and_recover_hours: 0,
        }
    }

    /// FNV-1a of `series_to_csv` plus the recovered bits as a `0`/`1`
    /// string: the pinned output of one benign run.
    fn golden(series: &[RouteSeries], recovered: &[LogicLevel]) -> (u64, String) {
        let mut digest = StateDigest::new();
        digest.bytes(crate::series_to_csv(series).as_bytes());
        let bits = recovered
            .iter()
            .map(|&bit| if bit == LogicLevel::One { '1' } else { '0' })
            .collect();
        (digest.hash, bits)
    }

    /// Pins the benign outputs of both threat models, in both measurement
    /// modes, to golden values: any change to the attack loop's schedule,
    /// RNG streams, sensing, or classifier calibration moves a digest or
    /// a bit.
    #[test]
    fn benign_runs_reproduce_their_golden_outputs() {
        let mut tm1_tdc = tm1_config();
        tm1_tdc.mode = MeasurementMode::Tdc;
        tm1_tdc.route_lengths_ps = vec![5_000.0];
        tm1_tdc.routes_per_length = 2;
        tm1_tdc.burn_hours = 30;
        let mut tm2_tdc = tm2_config();
        tm2_tdc.mode = MeasurementMode::Tdc;
        tm2_tdc.route_lengths_ps = vec![1_000.0, 2_000.0, 5_000.0, 10_000.0];
        tm2_tdc.routes_per_length = 1;
        tm2_tdc.attack_hours = 10;
        tm2_tdc.measurement_repeats = 2;
        // A seed whose 2 ns route sits close to the calibrated threshold,
        // so a wrong classifier temperature flips its bit.
        tm2_tdc.seed = 38;

        let tm1 = |devices, seed, config: &ThreatModel1Config| {
            let mut provider = Provider::new(ProviderConfig::aws_f1_like(devices, seed));
            let o = threat_model1::run(&mut provider, config).unwrap();
            golden(&o.series, &o.recovered)
        };
        let tm2 = |devices, seed, config: &ThreatModel2Config| {
            let mut provider = Provider::new(ProviderConfig::aws_f1_like(devices, seed));
            let o = threat_model2::run(&mut provider, config).unwrap();
            assert!(o.reacquired_victim_device);
            golden(&o.series, &o.recovered)
        };
        let cases = [
            (
                "tm1 oracle",
                tm1(2, 1, &tm1_config()),
                0x774a_b6d6_0834_242f,
                "11010101",
            ),
            ("tm1 tdc", tm1(1, 2, &tm1_tdc), 0x154d_844b_1031_697b, "01"),
            (
                "tm2 oracle",
                tm2(3, 5, &tm2_config()),
                0x0e44_0d67_fe64_9f99,
                "00110010",
            ),
            (
                "tm2 tdc",
                tm2(3, 5, &tm2_tdc),
                0xc944_e6a7_d78b_d44d,
                "0100",
            ),
        ];
        for (name, actual, digest, bits) in cases {
            assert_eq!(actual, (digest, bits.to_owned()), "{name}: {actual:#x?}");
        }
    }

    #[test]
    fn tm1_campaign_survives_a_scheduled_preemption_transparently() {
        let benign = {
            let provider = Provider::new(ProviderConfig::aws_f1_like(2, 1));
            Campaign::new(
                provider,
                Mission::ThreatModel1(tm1_config()),
                CampaignConfig::default(),
            )
            .unwrap()
            .run()
            .unwrap()
        };

        let provider = Provider::new(ProviderConfig::aws_f1_like(2, 1));
        let mut config = CampaignConfig::default();
        config.fault_plan =
            FaultPlan::none().with_scheduled(Hours::new(25.0), FaultKind::Preemption);
        let mut campaign =
            Campaign::new(provider, Mission::ThreatModel1(tm1_config()), config).unwrap();
        let outcome = campaign.run().unwrap();

        assert_eq!(outcome.stats.reacquisitions, 1);
        assert_eq!(outcome.stats.faults_injected, 1);
        assert_eq!(
            outcome.series, benign.series,
            "a repaired preemption must cost zero conditioning"
        );
        assert_eq!(outcome.recovered, benign.recovered);
    }

    #[test]
    fn tm1_campaign_reloads_after_a_spurious_scrub() {
        let benign = {
            let provider = Provider::new(ProviderConfig::aws_f1_like(2, 1));
            Campaign::new(
                provider,
                Mission::ThreatModel1(tm1_config()),
                CampaignConfig::default(),
            )
            .unwrap()
            .run()
            .unwrap()
        };

        let provider = Provider::new(ProviderConfig::aws_f1_like(2, 1));
        let mut config = CampaignConfig::default();
        config.fault_plan =
            FaultPlan::none().with_scheduled(Hours::new(7.0), FaultKind::SpuriousScrub);
        let mut campaign =
            Campaign::new(provider, Mission::ThreatModel1(tm1_config()), config).unwrap();
        let outcome = campaign.run().unwrap();

        assert_eq!(outcome.stats.scrub_reloads, 1);
        assert_eq!(outcome.series, benign.series);
    }

    #[test]
    fn tm2_campaign_reacquires_the_victim_board_by_fingerprint() {
        let benign = {
            let provider = Provider::new(ProviderConfig::aws_f1_like(3, 5));
            Campaign::new(
                provider,
                Mission::ThreatModel2(tm2_config()),
                CampaignConfig::default(),
            )
            .unwrap()
            .run()
            .unwrap()
        };

        let provider = Provider::new(ProviderConfig::aws_f1_like(3, 5));
        let mut config = CampaignConfig::default();
        config.fault_plan =
            FaultPlan::none().with_scheduled(Hours::new(10.0), FaultKind::Preemption);
        let mut campaign =
            Campaign::new(provider, Mission::ThreatModel2(tm2_config()), config).unwrap();
        let outcome = campaign.run().unwrap();

        assert_eq!(outcome.stats.reacquisitions, 1);
        assert_eq!(outcome.series, benign.series);
        assert_eq!(outcome.recovered, benign.recovered);
    }

    #[test]
    fn checkpoint_resume_continues_bit_identically() {
        let build = || {
            let provider = Provider::new(ProviderConfig::aws_f1_like(2, 1));
            let mut config = CampaignConfig::default();
            // A preemption *after* the checkpoint proves the fault stream
            // replays across resume.
            config.fault_plan =
                FaultPlan::none().with_scheduled(Hours::new(40.0), FaultKind::Preemption);
            Campaign::new(provider, Mission::ThreatModel1(tm1_config()), config).unwrap()
        };

        let mut uninterrupted = build();
        let reference = uninterrupted.run().unwrap();

        let mut interrupted = build();
        for _ in 0..20 {
            interrupted.step().unwrap();
        }
        let checkpoint = interrupted.checkpoint();
        drop(interrupted); // the original "process" dies here

        let mut resumed = Campaign::resume(checkpoint).unwrap();
        let outcome = resumed.run().unwrap();

        assert_eq!(outcome.series, reference.series);
        assert_eq!(outcome.recovered, reference.recovered);
        assert_eq!(outcome.stats.reacquisitions, reference.stats.reacquisitions);
    }

    #[test]
    fn tampered_checkpoint_is_rejected() {
        let provider = Provider::new(ProviderConfig::aws_f1_like(2, 1));
        let campaign = Campaign::new(
            provider,
            Mission::ThreatModel1(tm1_config()),
            CampaignConfig::default(),
        )
        .unwrap();
        let mut checkpoint = campaign.checkpoint();
        checkpoint.manifest = checkpoint.manifest.replace("\"hour\":0", "\"hour\":5");
        let err = Campaign::resume(checkpoint).unwrap_err();
        assert!(
            matches!(err, PentimentoError::CheckpointCorrupt(_)),
            "{err}"
        );
        assert!(!err.is_transient());
    }

    /// A checkpoint whose *state* was mutated after sealing — a flipped
    /// reading, a rewound RNG — fails the dense checksum even though the
    /// headline manifest (mission, hour, counts) still matches.
    #[test]
    fn tampered_checkpoint_state_is_rejected_by_the_checksum() {
        let provider = Provider::new(ProviderConfig::aws_f1_like(2, 1));
        let mut campaign = Campaign::new(
            provider,
            Mission::ThreatModel1(tm1_config()),
            CampaignConfig::default(),
        )
        .unwrap();
        for _ in 0..3 {
            campaign.step().unwrap();
        }
        let mut checkpoint = campaign.checkpoint();

        // Flip one recorded reading: invisible to the manifest (the
        // measurement *count* is unchanged) but fatal to the checksum.
        let tampered = checkpoint.campaign.attack.run.readings[0][0].map(|v| v + 0.25);
        checkpoint.campaign.attack.run.readings[0][0] = tampered;
        assert_eq!(
            checkpoint.manifest,
            checkpoint.campaign.manifest_json(),
            "the tamper must be invisible to the manifest for this test \
             to prove the checksum adds protection"
        );
        let err = Campaign::resume(checkpoint.clone()).unwrap_err();
        assert!(
            matches!(err, PentimentoError::CheckpointCorrupt(ref m) if m.contains("checksum")),
            "{err}"
        );
        assert!(!err.is_transient());

        // Rewinding the RNG stream is equally invisible to the manifest
        // and equally fatal: replaying stale randomness would silently
        // fork the campaign from its fault-free twin.
        let mut rewound = campaign.checkpoint();
        rewound.campaign.attack.rng = StdRng::seed_from_u64(0);
        let err = Campaign::resume(rewound).unwrap_err();
        assert!(
            matches!(err, PentimentoError::CheckpointCorrupt(ref m) if m.contains("checksum")),
            "{err}"
        );
    }

    /// A checkpoint truncated mid-flight — recorded hours lost — fails
    /// both seals; the checksum catches it even when the manifest is
    /// regenerated to match the truncated state.
    #[test]
    fn truncated_checkpoint_state_is_rejected() {
        let provider = Provider::new(ProviderConfig::aws_f1_like(2, 1));
        let mut campaign = Campaign::new(
            provider,
            Mission::ThreatModel1(tm1_config()),
            CampaignConfig::default(),
        )
        .unwrap();
        for _ in 0..6 {
            campaign.step().unwrap();
        }
        let mut checkpoint = campaign.checkpoint();

        // Drop the newest recorded hour, as a torn write would.
        checkpoint.campaign.attack.run.hours_log.pop();
        for route in &mut checkpoint.campaign.attack.run.readings {
            route.pop();
        }
        let err = Campaign::resume(checkpoint.clone()).unwrap_err();
        assert!(
            matches!(err, PentimentoError::CheckpointCorrupt(_)),
            "{err}"
        );

        // Even an attacker who regenerates the manifest to describe the
        // truncated state cannot clear the sealed checksum.
        checkpoint.manifest = checkpoint.campaign.manifest_json();
        let err = Campaign::resume(checkpoint).unwrap_err();
        assert!(
            matches!(err, PentimentoError::CheckpointCorrupt(ref m) if m.contains("checksum")),
            "{err}"
        );
    }

    #[test]
    fn exhausted_reacquisition_budget_is_a_typed_fatal_error() {
        let provider = Provider::new(ProviderConfig::aws_f1_like(1, 1));
        let mut config = CampaignConfig::default();
        config.retry.max_attempts = 3;
        // Preempt early, then make every rent fail: recovery cannot win.
        config.fault_plan =
            FaultPlan::none().with_scheduled(Hours::new(2.0), FaultKind::Preemption);
        config.fault_plan.seed = 5;
        config.fault_plan.rent_failure_rate = 1.0;
        let mut campaign =
            Campaign::new(provider, Mission::ThreatModel1(tm1_config()), config).unwrap();
        let err = campaign.run().unwrap_err();
        match err {
            PentimentoError::RetriesExhausted {
                operation,
                attempts,
                ref last,
            } => {
                assert_eq!(operation, "reacquire device");
                assert_eq!(attempts, 3);
                assert!(last.is_transient());
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
        assert!(
            !err.is_transient(),
            "an exhausted budget must not be retried"
        );
        assert!(campaign.stats().rent_retries >= 2);
        assert!(campaign.stats().backoff_seconds > 0.0);
    }

    #[test]
    fn fingerprints_distinguish_fleet_devices() {
        let provider = Provider::new(ProviderConfig::aws_f1_like(2, 9));
        let specs = [RouteGroupSpec {
            target_ps: 5_000.0,
            count: 4,
        }];
        let a = provider.device_by_id(DeviceId(0)).unwrap();
        let b = provider.device_by_id(DeviceId(1)).unwrap();
        let skeleton = Skeleton::place(a, &specs).unwrap();
        let fp = DeviceFingerprint::capture(a, &skeleton);
        assert!(fp.matches(a, &skeleton, 10.0));
        assert!(
            !fp.matches(b, &skeleton, 10.0),
            "distinct silicon must differ"
        );
        assert_ne!(
            fp.digest(),
            DeviceFingerprint::capture(b, &skeleton).digest()
        );
    }

    #[test]
    fn backoff_is_deterministic_capped_and_growing() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff_s(1, 0), policy.backoff_s(1, 0));
        // Jitter keeps every wait within [0.5, 1.5) of nominal.
        for attempt in 1..=6 {
            let wait = policy.backoff_s(attempt, u64::from(attempt));
            let nominal = policy.base_backoff_s * f64::from(1u32 << (attempt - 1));
            assert!(wait >= 0.5 * nominal.min(policy.max_backoff_s));
            assert!(wait <= policy.max_backoff_s);
        }
        // Deep attempts saturate at the cap instead of overflowing.
        assert_eq!(policy.backoff_s(40, 1), policy.max_backoff_s);
    }
}
