//! The crash-safe **sharded** fleet supervisor.
//!
//! A [`Supervisor`] drives N concurrent [`Campaign`]s to completion
//! under injected process-level chaos, deterministically. Since PR 7 the
//! scheduler is a **lane/barrier design**: each tick, every unresolved
//! slot is advanced by a worker lane (the vendored rayon fan-out shards
//! the slot vector into contiguous chunks), and the lanes' effects are
//! merged at a serial barrier in slot-index order. Determinism survives
//! the parallelism because every source of scheduling state is
//! per-slot:
//!
//! * chaos draws come from the slot's own [`ChaosCursor`] — the same
//!   counter-based `(seed, campaign, action)` streams the serial
//!   scheduler consulted, so the draw sequence per campaign is
//!   bit-identical at every thread width;
//! * telemetry rides the shared [`Recorder`], whose trace is
//!   content-sorted and whose counters merge as sums, so emission order
//!   cannot leak into artifacts;
//! * everything order-sensitive — report counter accumulation (float
//!   summation!), quarantine-ledger appends, checkpoint commits, vault
//!   updates — happens at the barrier, in slot-index order.
//!
//! Per tick and per live slot the supervisor:
//!
//! 1. steps the campaign one hour in its lane (or finalizes it when
//!    complete);
//! 2. captures a CRC-sealed checkpoint *intent* on the configured
//!    cadence; the barrier lands all intents as **one batched commit**
//!    per tick ([`CheckpointStore::commit_batch`]: write + fsync every
//!    temp, then rename them all) instead of a per-campaign fsync;
//! 3. consults the slot's [`ChaosCursor`] — the campaign may be killed
//!    (its process image dropped on the floor) and its newest envelope
//!    may be corrupted or truncated at the barrier;
//! 4. recovers dead campaigns through a per-device [`CircuitBreaker`]
//!    and a restart budget with deterministic exponential backoff,
//!    resuming from the newest checkpoint generation that survives full
//!    validation (rolling back over torn ones). Recovery reads the
//!    store and vault only, so it is safe inside a lane.
//!
//! Every terminal failure is a typed [`FleetError`] paired with a
//! [`QuarantineRecord`]; the chaos suite asserts there is no third
//! outcome. A scheduler invariant violation (a step dispatched to a
//! dead slot, a slot unresolved at drain) quarantines that slot with
//! [`FleetError::SchedulerInvariant`] instead of panicking the fleet —
//! the supervisor's steady-state paths contain no `expect`/`unwrap`.
//!
//! One deliberate divergence from the serial scheduler: commit *intents*
//! consume their chaos draws in the lane, so a real filesystem failure
//! at the barrier no longer rewinds the draw the serial code had not yet
//! made. Chaos-injected damage is unaffected (sabotage applies after a
//! successful commit in both designs), and the draw sequence is a pure
//! function of the plan, so width-determinism is preserved.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use obs::{CampaignEvent, EventKind, FlightRecorder, Recorder};
use obs_analyze::indicators::FLEET_TICK_HISTOGRAM;
use obs_analyze::{AlertConfig, AlertEngine};
use pentimento::{Campaign, CampaignCheckpoint, CampaignOutcome, PentimentoError};
use rayon::prelude::*;

use crate::breaker::{
    BreakerConfig, CircuitBreaker, QuarantineLedger, QuarantineReason, QuarantineRecord,
};
use crate::chaos::{ChaosAction, ChaosCursor, ChaosPlan};
use crate::error::{FleetError, StoreError};
use crate::store::{CheckpointStore, SnapshotVault};

/// Supervisor tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Commit a checkpoint generation every this many completed
    /// attack-window hours (clamped to at least 1).
    pub checkpoint_every_hours: usize,
    /// Supervisor-level restarts per campaign before
    /// [`FleetError::RestartBudgetExhausted`].
    pub max_restarts: u32,
    /// Supervisor ticks per campaign before
    /// [`FleetError::DeadlineExceeded`] — the live-lock backstop.
    pub deadline_ticks: u64,
    /// Checkpoint generations retained per campaign (older ones are
    /// pruned from store and vault alike; clamped to at least 1 — the
    /// store itself refuses `retain = 0` with
    /// [`StoreError::InvalidRetention`]).
    pub retain_generations: usize,
    /// Per-device circuit breaker tuning.
    pub breaker: BreakerConfig,
    /// First-restart backoff, in accounted (never slept) seconds.
    pub backoff_base_s: f64,
    /// Ceiling on any single restart backoff, in seconds.
    pub backoff_max_s: f64,
    /// Events retained in each slot's [`FlightRecorder`] ring (clamped
    /// to at least 1). The last N events a campaign emitted are sealed
    /// to `flight/<id>.jsonl` when it is quarantined.
    pub flight_recorder_capacity: usize,
    /// Directory flight dumps are sealed into; `None` uses
    /// `<store root>/flight`.
    pub flight_dir: Option<PathBuf>,
    /// Repaint a live fleet-health dashboard frame on stdout after
    /// every tick. Human-eyes only — artifacts are unaffected.
    pub dashboard: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            checkpoint_every_hours: 8,
            max_restarts: 6,
            deadline_ticks: 10_000,
            retain_generations: 3,
            breaker: BreakerConfig::default(),
            backoff_base_s: 1.0,
            backoff_max_s: 60.0,
            flight_recorder_capacity: 64,
            flight_dir: None,
            dashboard: false,
        }
    }
}

/// One per-tick rollup of fleet health, the dashboard's data row. Pure
/// function of the (deterministic) fleet state — no wall clock — so the
/// snapshot series, like every other artifact, is identical at every
/// thread width.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSnapshot {
    /// Supervisor tick this snapshot was taken at (1-based).
    pub tick: u64,
    /// Slots with a live campaign image this tick.
    pub live: usize,
    /// Campaigns completed so far.
    pub completed: usize,
    /// Campaigns terminally failed so far.
    pub failed: usize,
    /// Quarantine-ledger records so far.
    pub quarantined: usize,
    /// Circuit breakers currently open.
    pub open_breakers: usize,
    /// Supervisor restarts performed so far.
    pub restarts: u64,
    /// Chaos kills injected so far.
    pub kills: u64,
    /// Alerts raised so far (firing edges).
    pub alerts_raised: u64,
    /// Alerts still firing.
    pub alerts_active: u64,
    /// Flight dumps sealed so far.
    pub flight_dumps: usize,
    /// Peak per-device aging-arena bytes observed so far.
    pub arena_bytes_peak: usize,
    /// Deterministic backoff accounted so far, in seconds.
    pub backoff_seconds: f64,
}

impl HealthSnapshot {
    /// One-line deterministic summary, the `health_snapshot` trace
    /// event's detail.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "live={} completed={} failed={} open_breakers={} alerts_active={}",
            self.live, self.completed, self.failed, self.open_breakers, self.alerts_active
        )
    }
}

/// One campaign entry in a fleet: a stable id (the checkpoint store
/// directory name) plus the freshly built campaign.
///
/// Session-weather chaos (delayed and stolen sessions) is configured at
/// build time: construct the campaign with
/// `CampaignConfig::fault_plan = plan.session_weather(index)` so the
/// chaos-free reference run can impose the identical weather.
#[derive(Debug)]
pub struct CampaignSpec {
    /// Store-directory-safe identifier, unique within the fleet.
    pub id: String,
    /// The campaign to supervise.
    pub campaign: Campaign,
}

/// How one campaign ended.
#[derive(Debug, Clone)]
pub enum CampaignResult {
    /// Ran to completion; the outcome is bit-identical to an
    /// unsupervised run of the same campaign under the same weather.
    Completed(Box<CampaignOutcome>),
    /// Failed terminally with a typed error; a matching quarantine
    /// record exists in the report's ledger.
    Failed(FleetError),
}

impl CampaignResult {
    /// The outcome, when completed.
    #[must_use]
    pub fn outcome(&self) -> Option<&CampaignOutcome> {
        match self {
            Self::Completed(outcome) => Some(outcome),
            Self::Failed(_) => None,
        }
    }

    /// The typed error, when failed.
    #[must_use]
    pub fn error(&self) -> Option<&FleetError> {
        match self {
            Self::Completed(_) => None,
            Self::Failed(error) => Some(error),
        }
    }
}

/// What a fleet run did, campaign by campaign plus chaos accounting.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// Per-campaign results, in spec order.
    pub results: Vec<(String, CampaignResult)>,
    /// The quarantine audit trail.
    pub quarantine: QuarantineLedger,
    /// Process kills the chaos schedule injected.
    pub kills_injected: u64,
    /// Envelope byte-flips the chaos schedule injected.
    pub corruptions_injected: u64,
    /// Envelope truncations the chaos schedule injected.
    pub truncations_injected: u64,
    /// Supervisor-level restarts performed.
    pub restarts: u64,
    /// Torn generations rolled past during recoveries.
    pub rollbacks: u64,
    /// Deterministic backoff accounted across restarts, in seconds
    /// (never slept: bookkeeping only, like the campaign layer).
    pub backoff_seconds: f64,
    /// Supervisor ticks the run took.
    pub ticks: u64,
    /// Peak per-device aging-arena footprint observed across completed
    /// campaigns, in bytes. Arenas are append-only, so the value read at
    /// campaign completion is that campaign's peak; the report keeps the
    /// fleet-wide maximum. Deterministic at every thread width.
    pub arena_bytes_per_device: usize,
}

impl FleetReport {
    /// Campaigns that completed.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.results
            .iter()
            .filter(|(_, r)| matches!(r, CampaignResult::Completed(_)))
            .count()
    }

    /// Campaigns that failed terminally.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.results.len() - self.completed()
    }

    /// Whether every failed campaign has at least one quarantine record
    /// naming it — the invariant the chaos suite asserts.
    #[must_use]
    pub fn failures_all_quarantined(&self) -> bool {
        self.results.iter().all(|(id, result)| {
            result.error().is_none() || self.quarantine.for_campaign(id).next().is_some()
        })
    }
}

/// Per-campaign supervision state. Each slot owns everything its lane
/// mutates — campaign image, chaos cursor, breaker — so lanes never
/// share mutable state.
struct Slot {
    id: String,
    /// The live "process image"; `None` while dead awaiting recovery.
    campaign: Option<Campaign>,
    /// Next generation number to commit.
    generation: u64,
    restarts: u32,
    ticks: u64,
    breaker: CircuitBreaker,
    device: cloud::DeviceId,
    /// This slot's slice of the chaos schedule.
    chaos: ChaosCursor,
    result: Option<CampaignResult>,
    last_error: Option<PentimentoError>,
    /// Peak per-device aging-arena bytes, read from the provider at
    /// campaign completion (arenas are append-only, so that is the peak).
    arena_bytes: usize,
    /// The last N supervisor events touching this slot, sealed to a
    /// `flight/<id>.jsonl` artifact if the campaign is quarantined.
    flight: FlightRecorder,
}

/// A checkpoint the lane captured for the barrier to land: the batch
/// commit writes the envelope, then applies any chaos sabotage the
/// lane's cursor drew against it.
struct CommitIntent {
    generation: u64,
    checkpoint: CampaignCheckpoint,
    /// Chaos damage to inflict on the freshly committed envelope:
    /// `(action, corruption byte offset)` — the offset is meaningful
    /// only for [`ChaosAction::Corrupt`].
    sabotage: Option<(ChaosAction, u64)>,
}

/// Everything a lane did to its slot in one tick, merged into the
/// [`FleetReport`] at the barrier in slot-index order (float sums and
/// ledger appends are order-sensitive; lanes must not race them).
#[derive(Default)]
struct LaneEffect {
    kills: u64,
    restarts: u64,
    rollbacks: u64,
    backoff_seconds: f64,
    commit: Option<CommitIntent>,
    quarantine: Option<QuarantineRecord>,
    /// Every event the lane emitted for this slot, replayed at the
    /// barrier into the slot's flight ring and the tick's alert feed
    /// (in slot-index order, so the feed is width-invariant).
    events: Vec<CampaignEvent>,
}

/// The read-only context a worker lane operates under: configuration,
/// the store and vault (reads only — all writes happen at the barrier),
/// and the shared recorder (thread-safe; its artifacts are
/// order-insensitive by construction).
#[derive(Clone, Copy)]
struct LaneCtx<'a> {
    config: &'a FleetConfig,
    store: &'a CheckpointStore,
    vault: &'a SnapshotVault,
    recorder: Option<&'a Arc<Recorder>>,
}

impl LaneCtx<'_> {
    fn emit(&self, kind: EventKind, at: f64, value: f64, detail: &str, effect: &mut LaneEffect) {
        let event = CampaignEvent::new(kind, at).value(value).detail(detail);
        if let Some(r) = self.recorder {
            r.event(event.clone());
        }
        effect.events.push(event);
    }

    fn incr(&self, counter: &'static str) {
        if let Some(r) = self.recorder {
            r.incr(counter, 1);
        }
    }

    fn quarantine(&self, slot: &Slot, reason: QuarantineReason, effect: &mut LaneEffect) {
        let record = QuarantineRecord {
            campaign: slot.id.clone(),
            device: slot.device,
            at_tick: slot.ticks,
            reason,
            consecutive_failures: slot.breaker.consecutive_failures(),
        };
        self.emit(
            EventKind::Quarantine,
            slot.ticks as f64,
            f64::from(slot.device.0),
            record.reason.tag(),
            effect,
        );
        self.incr("fleet.quarantines");
        effect.quarantine = Some(record);
    }

    fn fail(
        &self,
        slot: &mut Slot,
        error: FleetError,
        reason: QuarantineReason,
        effect: &mut LaneEffect,
    ) {
        self.quarantine(slot, reason, effect);
        slot.campaign = None;
        slot.result = Some(CampaignResult::Failed(error));
    }

    /// A scheduler invariant was violated serving this slot: isolate the
    /// slot with a typed error instead of panicking the fleet.
    fn invariant_violation(
        &self,
        slot: &mut Slot,
        invariant: &'static str,
        effect: &mut LaneEffect,
    ) {
        let error = FleetError::SchedulerInvariant {
            id: slot.id.clone(),
            invariant,
        };
        self.fail(slot, error, QuarantineReason::SchedulerInvariant, effect);
    }

    /// The breaker just tripped open: emit, quarantine, and fail the
    /// campaign with the typed circuit error.
    fn trip(&self, slot: &mut Slot, effect: &mut LaneEffect) {
        self.emit(
            EventKind::CircuitOpen,
            slot.ticks as f64,
            f64::from(slot.device.0),
            &slot.id,
            effect,
        );
        self.incr("fleet.circuit_open");
        let error = FleetError::CircuitOpen {
            id: slot.id.clone(),
            device: slot.device,
            consecutive_failures: slot.breaker.consecutive_failures(),
        };
        self.fail(slot, error, QuarantineReason::BreakerTripped, effect);
    }

    /// Restores `slot`'s campaign from the newest checkpoint generation
    /// that survives full validation: CRC-sealed envelope, vault
    /// cross-check, and the checkpoint's own dual seals. Pure reads —
    /// lane-safe.
    fn restore(&self, slot: &Slot) -> Result<(Campaign, u64, u64), StoreError> {
        let (envelope, skipped) = self.store.latest_good(&slot.id)?;
        let snapshot =
            self.vault
                .get(&slot.id, envelope.generation)
                .ok_or(StoreError::SnapshotMissing {
                    campaign: slot.id.clone(),
                    generation: envelope.generation,
                })?;
        if snapshot.state_checksum() != envelope.state_checksum {
            return Err(StoreError::SnapshotMismatch {
                campaign: slot.id.clone(),
                generation: envelope.generation,
                reason: format!(
                    "vault checksum {:#018x} vs sealed {:#018x}",
                    snapshot.state_checksum(),
                    envelope.state_checksum
                ),
            });
        }
        if snapshot.manifest() != envelope.manifest {
            return Err(StoreError::SnapshotMismatch {
                campaign: slot.id.clone(),
                generation: envelope.generation,
                reason: "vault manifest disagrees with the sealed envelope".to_owned(),
            });
        }
        let campaign =
            Campaign::resume(snapshot.clone()).map_err(|e| StoreError::SnapshotMismatch {
                campaign: slot.id.clone(),
                generation: envelope.generation,
                reason: e.to_string(),
            })?;
        Ok((campaign, envelope.generation, skipped as u64))
    }

    /// One recovery attempt for a dead slot: breaker gate, restart
    /// budget, backoff accounting, then restore-from-store.
    fn recover_slot(&self, slot: &mut Slot, effect: &mut LaneEffect) {
        // An open breaker blocks recovery until its cooldown elapses;
        // when `tick` flips it half-open, fall through as the probe.
        if !slot.breaker.allows() && !slot.breaker.tick() {
            return; // still cooling down; try again next tick
        }
        if slot.restarts >= self.config.max_restarts {
            let error = FleetError::RestartBudgetExhausted {
                id: slot.id.clone(),
                restarts: slot.restarts,
                last: slot
                    .last_error
                    .clone()
                    .unwrap_or(PentimentoError::VictimDeviceLost),
            };
            self.fail(
                slot,
                error,
                QuarantineReason::RestartBudgetExhausted,
                effect,
            );
            return;
        }
        slot.restarts += 1;
        effect.restarts += 1;
        self.incr("fleet.restarts");
        let backoff = (self.config.backoff_base_s
            * 2f64.powi(slot.restarts.saturating_sub(1).min(30) as i32))
        .min(self.config.backoff_max_s);
        effect.backoff_seconds += backoff;
        self.emit(
            EventKind::Backoff,
            slot.ticks as f64,
            backoff,
            &slot.id,
            effect,
        );

        match self.restore(slot) {
            Ok((campaign, generation, rollbacks)) => {
                effect.rollbacks += rollbacks;
                if rollbacks > 0 {
                    self.incr("fleet.rollbacks");
                }
                self.emit(
                    EventKind::RecoveryScan,
                    slot.ticks as f64,
                    generation as f64,
                    &slot.id,
                    effect,
                );
                self.incr("fleet.recovery_scans");
                slot.generation = generation + 1;
                if slot.breaker.on_success() {
                    self.emit(
                        EventKind::CircuitClose,
                        slot.ticks as f64,
                        f64::from(slot.device.0),
                        &slot.id,
                        effect,
                    );
                    self.incr("fleet.circuit_close");
                }
                slot.campaign = Some(campaign);
            }
            Err(error @ StoreError::NoValidGeneration { .. }) => {
                // Nothing left to roll back to: terminal, regardless of
                // budgets.
                let error = FleetError::Store {
                    id: slot.id.clone(),
                    source: error,
                };
                self.fail(slot, error, QuarantineReason::StoreUnrecoverable, effect);
            }
            Err(source) => {
                slot.last_error = Some(PentimentoError::CheckpointCorrupt(source.to_string()));
                if slot.breaker.on_failure() {
                    self.trip(slot, effect);
                }
            }
        }
    }

    /// Steps a live slot one hour, capturing a checkpoint intent on the
    /// cadence and consulting the slot's chaos cursor.
    fn step_slot(&self, slot: &mut Slot, effect: &mut LaneEffect) {
        let Some(campaign) = slot.campaign.as_mut() else {
            self.invariant_violation(
                slot,
                "step dispatched to a slot with no live campaign",
                effect,
            );
            return;
        };
        if campaign.is_complete() {
            // `run` on a complete campaign skips straight to finalize.
            match campaign.run() {
                Ok(outcome) => {
                    slot.arena_bytes = campaign.provider().peak_aging_memory_bytes();
                    slot.breaker.on_success();
                    slot.result = Some(CampaignResult::Completed(Box::new(outcome)));
                    slot.campaign = None;
                }
                Err(e)
                    if e.is_transient()
                        || matches!(e, PentimentoError::RetriesExhausted { .. }) =>
                {
                    slot.last_error = Some(e);
                    slot.campaign = None; // recover and re-finalize
                    if slot.breaker.on_failure() {
                        self.trip(slot, effect);
                    }
                }
                Err(e) => {
                    let error = FleetError::Campaign {
                        id: slot.id.clone(),
                        source: e,
                    };
                    self.fail(slot, error, QuarantineReason::FatalError, effect);
                }
            }
            return;
        }
        match campaign.step() {
            Ok(_) => {
                slot.breaker.on_success();
                let hour = campaign.hour();
                let cadence = self.config.checkpoint_every_hours.max(1);
                if hour.is_multiple_of(cadence) || campaign.is_complete() {
                    effect.commit = Some(Supervisor::capture_intent(
                        campaign,
                        slot.generation,
                        &mut slot.chaos,
                    ));
                    slot.generation += 1;
                }
                if slot.chaos.kill_now(hour) {
                    effect.kills += 1;
                    self.incr("fleet.chaos.kills");
                    slot.campaign = None; // the process image dies here
                }
            }
            Err(e) if e.is_transient() || matches!(e, PentimentoError::RetriesExhausted { .. }) => {
                slot.last_error = Some(e);
                slot.campaign = None;
                if slot.breaker.on_failure() {
                    self.trip(slot, effect);
                }
            }
            Err(e) => {
                let error = FleetError::Campaign {
                    id: slot.id.clone(),
                    source: e,
                };
                self.fail(slot, error, QuarantineReason::FatalError, effect);
            }
        }
    }

    /// Advances one unresolved slot by one tick; the lane entry point.
    fn tick_slot(&self, slot: &mut Slot) -> LaneEffect {
        let mut effect = LaneEffect::default();
        slot.ticks += 1;
        if slot.ticks > self.config.deadline_ticks {
            let error = FleetError::DeadlineExceeded {
                id: slot.id.clone(),
                ticks: slot.ticks as usize,
            };
            self.fail(slot, error, QuarantineReason::DeadlineExceeded, &mut effect);
        } else if slot.campaign.is_none() {
            self.recover_slot(slot, &mut effect);
        } else {
            self.step_slot(slot, &mut effect);
        }
        effect
    }
}

/// The fleet supervisor. See the module docs for the control loop.
#[derive(Debug)]
pub struct Supervisor {
    config: FleetConfig,
    store: CheckpointStore,
    vault: SnapshotVault,
    recorder: Option<Arc<Recorder>>,
    /// Wall-clock tick durations of the most recent [`run`](Self::run),
    /// in seconds. Diagnostics only — never part of any report or
    /// determinism comparison.
    tick_latencies_s: Vec<f64>,
    /// Events emitted since the last alert pump, fed to the online
    /// [`AlertEngine`] in canonical (`cmp_key`) order once per tick so
    /// the feed — and therefore every alert edge — is width-invariant.
    tick_events: Vec<CampaignEvent>,
    /// Per-tick health rollups of the most recent [`run`](Self::run).
    health: Vec<HealthSnapshot>,
    /// Flight-dump bodies sealed during the most recent run, keyed by
    /// campaign id — the in-memory mirror of `flight/<id>.jsonl`, so
    /// determinism harnesses can compare dumps without racing scratch
    /// directory cleanup.
    flight_dumps: BTreeMap<String, String>,
}

impl Supervisor {
    /// Opens a supervisor over a (possibly pre-existing) checkpoint
    /// store rooted at `store_root`, with an empty snapshot vault.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the store root cannot be created.
    pub fn new(store_root: impl AsRef<Path>, config: FleetConfig) -> Result<Self, StoreError> {
        Ok(Self {
            config,
            store: CheckpointStore::open(store_root.as_ref().to_path_buf())?,
            vault: SnapshotVault::new(),
            recorder: None,
            tick_latencies_s: Vec::new(),
            tick_events: Vec::new(),
            health: Vec::new(),
            flight_dumps: BTreeMap::new(),
        })
    }

    /// Like [`new`](Self::new), but seeded with a surviving snapshot
    /// vault — the restarted-supervisor path the crash-recovery tests
    /// drive (a real store would decode snapshots from disk; there is
    /// no on-disk snapshot codec yet, so the vault models that durable
    /// tier in memory).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the store root cannot be created.
    pub fn with_vault(
        store_root: impl AsRef<Path>,
        config: FleetConfig,
        vault: SnapshotVault,
    ) -> Result<Self, StoreError> {
        let mut supervisor = Self::new(store_root, config)?;
        supervisor.vault = vault;
        Ok(supervisor)
    }

    /// Surrenders the snapshot vault (to seed a successor supervisor).
    #[must_use]
    pub fn into_vault(self) -> SnapshotVault {
        self.vault
    }

    /// The durable store.
    #[must_use]
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// Attaches (or detaches) the shared telemetry recorder.
    pub fn set_recorder(&mut self, recorder: Option<Arc<Recorder>>) {
        self.recorder = recorder;
    }

    /// Wall-clock duration of every supervisor tick in the most recent
    /// [`run`](Self::run), in seconds — the `fleet_scaling` bench's p99
    /// source. Nondeterministic by nature; kept out of [`FleetReport`]
    /// so identity comparisons never see it.
    #[must_use]
    pub fn last_tick_latencies_s(&self) -> &[f64] {
        &self.tick_latencies_s
    }

    /// Per-tick [`HealthSnapshot`] rollups of the most recent
    /// [`run`](Self::run), in tick order — the dashboard's data. Fully
    /// deterministic: identical at every thread width.
    #[must_use]
    pub fn health_snapshots(&self) -> &[HealthSnapshot] {
        &self.health
    }

    /// Flight-dump bodies sealed during the most recent run, keyed by
    /// campaign id — byte-identical to the `flight/<id>.jsonl` files.
    #[must_use]
    pub fn flight_dumps(&self) -> &BTreeMap<String, String> {
        &self.flight_dumps
    }

    /// The directory flight dumps are sealed into.
    #[must_use]
    pub fn flight_dir(&self) -> PathBuf {
        self.config
            .flight_dir
            .clone()
            .unwrap_or_else(|| self.store.root().join("flight"))
    }

    fn lane_ctx(&self) -> LaneCtx<'_> {
        LaneCtx {
            config: &self.config,
            store: &self.store,
            vault: &self.vault,
            recorder: self.recorder.as_ref(),
        }
    }

    /// Barrier-side event emission: the event reaches the shared
    /// recorder *and* the tick's alert feed.
    fn emit(&mut self, kind: EventKind, at: f64, value: f64, detail: &str) {
        let event = CampaignEvent::new(kind, at).value(value).detail(detail);
        if let Some(r) = &self.recorder {
            r.event(event.clone());
        }
        self.tick_events.push(event);
    }

    fn incr(&self, counter: &'static str) {
        if let Some(r) = &self.recorder {
            r.incr(counter, 1);
        }
    }

    /// Captures a commit intent: the sealed checkpoint plus whatever
    /// sabotage the slot's chaos cursor drew against it. Draw order per
    /// campaign (truncate → corrupt → offset) matches the serial
    /// scheduler exactly.
    fn capture_intent(
        campaign: &Campaign,
        generation: u64,
        chaos: &mut ChaosCursor,
    ) -> CommitIntent {
        let checkpoint = campaign.checkpoint();
        let sabotage = match chaos.corrupt_commit() {
            Some(ChaosAction::Truncate) => Some((ChaosAction::Truncate, 0)),
            Some(ChaosAction::Corrupt) => {
                let offset = chaos.corruption_offset();
                Some((ChaosAction::Corrupt, offset))
            }
            Some(ChaosAction::Kill) | None => None,
        };
        CommitIntent {
            generation,
            checkpoint,
            sabotage,
        }
    }

    /// Lands everything that follows a successful envelope commit:
    /// vault insert, chaos sabotage against the fresh envelope, and
    /// generation pruning. Barrier-side (store and vault writes).
    fn commit_aftermath(
        &mut self,
        id: &str,
        intent: CommitIntent,
        report: &mut FleetReport,
    ) -> Result<(), StoreError> {
        self.vault.insert(id, intent.generation, intent.checkpoint);
        match intent.sabotage {
            Some((ChaosAction::Truncate, _)) => {
                self.store.truncate(id, intent.generation, 0.5)?;
                report.truncations_injected += 1;
                self.incr("fleet.chaos.truncations");
            }
            Some((ChaosAction::Corrupt, offset)) => {
                self.store.corrupt_byte(id, intent.generation, offset)?;
                report.corruptions_injected += 1;
                self.incr("fleet.chaos.corruptions");
            }
            Some((ChaosAction::Kill, _)) | None => {}
        }
        for pruned in self
            .store
            .prune(id, self.config.retain_generations.max(1))?
        {
            self.vault.remove(id, pruned);
        }
        Ok(())
    }

    fn quarantine(&mut self, slot: &mut Slot, reason: QuarantineReason, report: &mut FleetReport) {
        let record = QuarantineRecord {
            campaign: slot.id.clone(),
            device: slot.device,
            at_tick: slot.ticks,
            reason,
            consecutive_failures: slot.breaker.consecutive_failures(),
        };
        let event = CampaignEvent::new(EventKind::Quarantine, slot.ticks as f64)
            .value(f64::from(slot.device.0))
            .detail(record.reason.tag());
        slot.flight.push(event.clone());
        if let Some(r) = &self.recorder {
            r.event(event.clone());
        }
        self.tick_events.push(event);
        self.incr("fleet.quarantines");
        report.quarantine.push(record);
    }

    fn fail(
        &mut self,
        slot: &mut Slot,
        error: FleetError,
        reason: QuarantineReason,
        report: &mut FleetReport,
    ) {
        self.quarantine(slot, reason, report);
        self.dump_flight(slot);
        slot.campaign = None;
        slot.result = Some(CampaignResult::Failed(error));
    }

    /// Seals the slot's flight ring to `<flight dir>/<id>.jsonl` with
    /// the store's own write-temp → fsync → rename idiom, and mirrors
    /// the body in memory for determinism harnesses. I/O failure only
    /// costs the artifact (`fleet.flight_dump_failures` counts it) —
    /// the black box must never take the fleet down with it.
    fn dump_flight(&mut self, slot: &Slot) {
        let body = slot.flight.jsonl();
        let events = slot.flight.len();
        let dir = self.flight_dir();
        let path = dir.join(format!("{}.jsonl", slot.id));
        let sealed = (|| -> std::io::Result<()> {
            fs::create_dir_all(&dir)?;
            let tmp = path.with_extension("jsonl.tmp");
            let mut file = File::create(&tmp)?;
            file.write_all(body.as_bytes())?;
            file.sync_all()?;
            fs::rename(&tmp, &path)
        })();
        if sealed.is_err() {
            self.incr("fleet.flight_dump_failures");
        }
        self.flight_dumps.insert(slot.id.clone(), body);
        self.emit(
            EventKind::FlightDump,
            slot.ticks as f64,
            events as f64,
            &slot.id,
        );
        self.incr("fleet.flight_dumps");
    }

    /// Feeds the events buffered since the last pump to the online
    /// alert engine — sorted by the canonical content key first, so the
    /// feed order is a pure function of the events themselves — and
    /// emits every new firing/clearing edge back into the trace.
    fn pump_alerts(&mut self, alerts: &mut AlertEngine) {
        self.tick_events.sort_by(|a, b| a.cmp_key(b));
        for event in std::mem::take(&mut self.tick_events) {
            alerts.ingest(&event);
        }
        for edge in alerts.drain_new_edges() {
            if let Some(r) = &self.recorder {
                r.event(edge.trace_event());
            }
            self.incr(if edge.raised {
                "fleet.alerts_raised"
            } else {
                "fleet.alerts_cleared"
            });
        }
    }

    /// Rolls up one per-tick [`HealthSnapshot`], records it as a
    /// `health_snapshot` trace event (recorder only — snapshots are
    /// derived from alerts, never fed back into them), and repaints the
    /// live dashboard when configured.
    fn snapshot_health(
        &mut self,
        tick: u64,
        slots: &[Slot],
        report: &FleetReport,
        alerts: &AlertEngine,
    ) {
        let mut completed = 0;
        let mut failed = 0;
        for slot in slots {
            match slot.result {
                Some(CampaignResult::Completed(_)) => completed += 1,
                Some(CampaignResult::Failed(_)) => failed += 1,
                None => {}
            }
        }
        let snapshot = HealthSnapshot {
            tick,
            live: slots
                .iter()
                .filter(|s| s.result.is_none() && s.campaign.is_some())
                .count(),
            completed,
            failed,
            quarantined: report.quarantine.records().len(),
            open_breakers: slots
                .iter()
                .filter(|s| s.breaker.state() == crate::breaker::BreakerState::Open)
                .count(),
            restarts: report.restarts,
            kills: report.kills_injected,
            alerts_raised: alerts.raised_total(),
            alerts_active: alerts.active_count(),
            flight_dumps: self.flight_dumps.len(),
            arena_bytes_peak: slots.iter().map(|s| s.arena_bytes).max().unwrap_or(0),
            backoff_seconds: report.backoff_seconds,
        };
        if let Some(r) = &self.recorder {
            r.event(
                CampaignEvent::new(EventKind::HealthSnapshot, tick as f64)
                    .value(snapshot.live as f64)
                    .detail(snapshot.summary()),
            );
        }
        self.incr("fleet.health_snapshots");
        self.health.push(snapshot);
        if self.config.dashboard {
            print!(
                "{}{}",
                crate::dashboard::CLEAR_SCREEN,
                crate::dashboard::render_frame(&self.health)
            );
            let _ = std::io::stdout().flush();
        }
    }

    /// Converts drained slots into the report's result rows. A slot
    /// without a result cannot happen (the tick loop only exits when
    /// every slot resolved) — but a drain must never panic, so an
    /// unresolved slot is quarantined with a typed invariant error.
    fn drain_slots(&mut self, slots: Vec<Slot>, report: &mut FleetReport) {
        report.results.reserve(slots.len());
        for mut slot in slots {
            report.arena_bytes_per_device = report.arena_bytes_per_device.max(slot.arena_bytes);
            let result = match slot.result.take() {
                Some(result) => result,
                None => {
                    let error = FleetError::SchedulerInvariant {
                        id: slot.id.clone(),
                        invariant: "slot left unresolved at fleet drain",
                    };
                    self.quarantine(&mut slot, QuarantineReason::SchedulerInvariant, report);
                    self.dump_flight(&slot);
                    CampaignResult::Failed(error)
                }
            };
            report.results.push((slot.id, result));
        }
    }

    /// Runs a fleet to completion under `chaos`. Deterministic: the same
    /// specs and plan produce the same report, quarantine ledger, and
    /// telemetry at every thread width.
    pub fn run(&mut self, specs: Vec<CampaignSpec>, chaos: ChaosPlan) -> FleetReport {
        let mut report = FleetReport::default();
        self.tick_latencies_s.clear();
        self.tick_events.clear();
        self.health.clear();
        self.flight_dumps.clear();
        let mut alerts = AlertEngine::new(&AlertConfig::default());

        // Startup crash-recovery scan: every campaign directory already
        // in the store is a survivor of a previous incarnation.
        let survivors = self.store.campaigns();
        self.emit(
            EventKind::RecoveryScan,
            0.0,
            survivors.len() as f64,
            "fleet startup",
        );
        self.incr("fleet.recovery_scans");

        let mut slots: Vec<Slot> = Vec::with_capacity(specs.len());
        for (index, spec) in specs.into_iter().enumerate() {
            let device = spec.campaign.victim_device();
            let mut slot = Slot {
                id: spec.id,
                campaign: None,
                generation: 0,
                restarts: 0,
                ticks: 0,
                breaker: CircuitBreaker::new(self.config.breaker),
                device,
                chaos: ChaosCursor::new(&chaos, index),
                result: None,
                last_error: None,
                arena_bytes: 0,
                flight: FlightRecorder::new(self.config.flight_recorder_capacity),
            };
            if survivors.contains(&slot.id) {
                // Resume the survivor from its newest good generation;
                // the fresh spec campaign is discarded.
                match self.lane_ctx().restore(&slot) {
                    Ok((campaign, generation, rollbacks)) => {
                        report.rollbacks += rollbacks;
                        self.emit(EventKind::RecoveryScan, 0.0, generation as f64, &slot.id);
                        self.incr("fleet.recovery_scans");
                        slot.generation = generation + 1;
                        slot.campaign = Some(campaign);
                    }
                    Err(source) => {
                        let error = FleetError::Store {
                            id: slot.id.clone(),
                            source,
                        };
                        self.fail(
                            &mut slot,
                            error,
                            QuarantineReason::StoreUnrecoverable,
                            &mut report,
                        );
                    }
                }
            } else {
                // Fresh campaign: seal generation 0 before the first
                // tick so a kill at any hour has a recovery point. Setup
                // is serial, so commits land immediately in spec order.
                slot.campaign = Some(spec.campaign);
                let intent = slot.campaign.as_ref().map(|campaign| {
                    Self::capture_intent(campaign, slot.generation, &mut slot.chaos)
                });
                if let Some(intent) = intent {
                    slot.generation += 1;
                    let landed = self
                        .store
                        .commit(&slot.id, intent.generation, &intent.checkpoint)
                        .and_then(|_| {
                            let id = slot.id.clone();
                            self.commit_aftermath(&id, intent, &mut report)
                        });
                    if let Err(source) = landed {
                        let error = FleetError::Store {
                            id: slot.id.clone(),
                            source,
                        };
                        self.fail(
                            &mut slot,
                            error,
                            QuarantineReason::StoreUnrecoverable,
                            &mut report,
                        );
                    }
                }
            }
            slots.push(slot);
        }
        // Startup emissions (recovery scans, store-failure quarantines)
        // reach the alert engine before the first tick.
        self.pump_alerts(&mut alerts);

        // The sharded tick loop: lanes advance every unresolved slot in
        // parallel, then the barrier merges effects in slot-index order.
        while slots.iter().any(|slot| slot.result.is_none()) {
            report.ticks += 1;
            let live = slots.iter().filter(|slot| slot.result.is_none()).count();
            self.emit(
                EventKind::SchedulerTick,
                report.ticks as f64,
                live as f64,
                "fleet",
            );
            self.incr("fleet.scheduler_ticks");
            let tick_started = Instant::now();

            // Lane phase: read-only context, per-slot mutable state.
            let effects: Vec<Option<LaneEffect>> = {
                let ctx = self.lane_ctx();
                slots
                    .par_iter_mut()
                    .map(|slot| slot.result.is_none().then(|| ctx.tick_slot(slot)))
                    .collect()
            };

            // Barrier phase 1: merge accounting, events, and
            // quarantines in slot-index order, and collect the tick's
            // commit batch. Lane events replay into the slot's flight
            // ring and the tick's alert feed here, so both observe the
            // same width-invariant order; a lane quarantine seals the
            // flight dump once its own event is in the ring.
            let mut intents: Vec<(usize, CommitIntent)> = Vec::new();
            for (index, effect) in effects.into_iter().enumerate() {
                let Some(mut effect) = effect else { continue };
                report.kills_injected += effect.kills;
                report.restarts += effect.restarts;
                report.rollbacks += effect.rollbacks;
                report.backoff_seconds += effect.backoff_seconds;
                for event in effect.events.drain(..) {
                    slots[index].flight.push(event.clone());
                    self.tick_events.push(event);
                }
                if let Some(record) = effect.quarantine.take() {
                    report.quarantine.push(record);
                    self.dump_flight(&slots[index]);
                }
                if let Some(intent) = effect.commit.take() {
                    intents.push((index, intent));
                }
            }

            // Barrier phase 2: land the whole batch — one two-phase
            // write+fsync/rename pass — then apply sabotage and pruning
            // per campaign, still in slot-index order.
            if !intents.is_empty() {
                self.emit(
                    EventKind::CommitBatch,
                    report.ticks as f64,
                    intents.len() as f64,
                    "fleet",
                );
                self.incr("fleet.commit_batches");
                let outcomes = {
                    let items: Vec<(&str, u64, &CampaignCheckpoint)> = intents
                        .iter()
                        .map(|(index, intent)| {
                            (
                                slots[*index].id.as_str(),
                                intent.generation,
                                &intent.checkpoint,
                            )
                        })
                        .collect();
                    self.store.commit_batch(&items)
                };
                for ((index, intent), outcome) in intents.into_iter().zip(outcomes) {
                    let id = slots[index].id.clone();
                    let landed =
                        outcome.and_then(|_| self.commit_aftermath(&id, intent, &mut report));
                    if let Err(source) = landed {
                        let error = FleetError::Store { id, source };
                        self.fail(
                            &mut slots[index],
                            error,
                            QuarantineReason::StoreUnrecoverable,
                            &mut report,
                        );
                    }
                }
            }
            // Barrier phase 3: the observability loop — pump the tick's
            // events through the alert engine, then roll up and record
            // the tick's health snapshot.
            self.pump_alerts(&mut alerts);
            self.snapshot_health(report.ticks, &slots, &report, &alerts);

            let elapsed = tick_started.elapsed().as_secs_f64();
            if let Some(r) = &self.recorder {
                r.observe(FLEET_TICK_HISTOGRAM, elapsed * 1000.0);
            }
            self.tick_latencies_s.push(elapsed);
        }

        self.drain_slots(slots, &mut report);
        self.pump_alerts(&mut alerts);
        report
    }
}

#[cfg(test)]
mod tests {
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::*;

    struct Scratch(PathBuf);

    impl Scratch {
        fn new() -> Self {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "fleet-sched-test-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = fs::remove_dir_all(&dir);
            Self(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    /// A slot whose invariants are already violated: scheduled as live
    /// but holding no campaign image.
    fn poisoned_slot(id: &str) -> Slot {
        Slot {
            id: id.to_owned(),
            campaign: None,
            generation: 0,
            restarts: 0,
            ticks: 0,
            breaker: CircuitBreaker::new(BreakerConfig::default()),
            device: cloud::DeviceId(0),
            chaos: ChaosCursor::new(&ChaosPlan::none(), 0),
            result: None,
            last_error: None,
            arena_bytes: 0,
            flight: FlightRecorder::new(8),
        }
    }

    #[test]
    fn step_on_a_poisoned_slot_quarantines_typed_instead_of_panicking() {
        let scratch = Scratch::new();
        let store = CheckpointStore::open(&scratch.0).unwrap();
        let vault = SnapshotVault::new();
        let config = FleetConfig::default();
        let ctx = LaneCtx {
            config: &config,
            store: &store,
            vault: &vault,
            recorder: None,
        };
        let mut slot = poisoned_slot("c0");
        let mut effect = LaneEffect::default();

        // The pre-PR-7 scheduler panicked here ("step_slot requires a
        // live campaign"); the sharded one must isolate the slot.
        ctx.step_slot(&mut slot, &mut effect);

        assert!(matches!(
            slot.result,
            Some(CampaignResult::Failed(
                FleetError::SchedulerInvariant { .. }
            ))
        ));
        let record = effect.quarantine.expect("quarantined");
        assert_eq!(record.reason, QuarantineReason::SchedulerInvariant);
        assert_eq!(record.campaign, "c0");
    }

    #[test]
    fn draining_an_unresolved_slot_quarantines_typed_instead_of_panicking() {
        let scratch = Scratch::new();
        let mut supervisor = Supervisor::new(&scratch.0, FleetConfig::default()).unwrap();
        let mut report = FleetReport::default();

        // The pre-PR-7 drain panicked ("loop exits only when every slot
        // resolved"); the sharded one must resolve it typed.
        supervisor.drain_slots(vec![poisoned_slot("c9")], &mut report);

        assert_eq!(report.failed(), 1);
        let error = report.results[0].1.error().expect("typed failure");
        assert!(matches!(error, FleetError::SchedulerInvariant { .. }));
        assert_eq!(error.tag(), "scheduler_invariant");
        assert!(report.failures_all_quarantined());
        assert_eq!(
            report.quarantine.records()[0].reason,
            QuarantineReason::SchedulerInvariant
        );
    }
}
