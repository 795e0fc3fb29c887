//! Crash-safe fleet supervision for Pentimento campaigns.
//!
//! The paper's attacks are multi-hundred-hour rentals; at fleet scale
//! the dominant risk is no longer the hostile *cloud* (the campaign
//! layer already survives preemptions, capacity blips, and scrubs) but
//! the attacker's own **process**: crashes mid-phase, torn checkpoint
//! writes, corrupted state on disk. This crate supervises N concurrent
//! [`pentimento::Campaign`]s to completion under exactly that chaos,
//! deterministically:
//!
//! * [`store`] — a durable checkpoint store: CRC-sealed generation
//!   files committed write-temp → fsync → rename, torn-write detection,
//!   rollback to the newest generation that validates, and the
//!   in-memory [`store::SnapshotVault`] holding the actual snapshots
//!   (there is no on-disk snapshot codec yet, so envelopes carry
//!   integrity seals while snapshots stay in memory — the two-tier
//!   design DESIGN.md §12 documents).
//! * [`chaos`] — a deterministic chaos schedule over counter-based RNG
//!   streams: process kills, envelope corruption and truncation, and
//!   per-campaign session weather, all replayable draw-for-draw.
//! * [`breaker`] — per-device circuit breakers
//!   (closed → open → half-open) and the append-only quarantine ledger.
//! * [`supervisor`] — the sharded lane/barrier control loop tying the
//!   layers together with restart and deadline budgets: worker lanes
//!   advance every slot in parallel off per-slot
//!   [`chaos::ChaosCursor`]s, and a serial barrier merges effects and
//!   lands one batched checkpoint commit per tick in slot-index order.
//!
//! The headline invariant, enforced end to end by `bench`'s
//! `chaos_suite`: **every supervised campaign either completes with an
//! outcome bit-identical to its unsupervised reference run, or fails
//! with a typed [`FleetError`] plus a quarantine record.** There is no
//! third state, and both halves replay identically across runs and
//! rayon thread widths.

#![warn(missing_docs)]

pub mod breaker;
pub mod chaos;
pub mod dashboard;
pub mod error;
pub mod store;
pub mod supervisor;

pub use breaker::{
    BreakerConfig, BreakerState, CircuitBreaker, QuarantineLedger, QuarantineReason,
    QuarantineRecord,
};
pub use chaos::{ChaosAction, ChaosCursor, ChaosPlan, ChaosState};
pub use dashboard::render_frame;
pub use error::{FleetError, StoreError};
pub use store::{CheckpointStore, Envelope, SnapshotVault};
pub use supervisor::{
    CampaignResult, CampaignSpec, FleetConfig, FleetReport, HealthSnapshot, Supervisor,
};

#[cfg(test)]
mod tests {
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    use cloud::{Provider, ProviderConfig};
    use pentimento::threat_model1::ThreatModel1Config;
    use pentimento::{Campaign, CampaignConfig, MeasurementMode, Mission};

    use super::*;

    struct Scratch(PathBuf);

    impl Scratch {
        fn new() -> Self {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "fleet-supervisor-test-{}-{}",
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

    fn small_campaign(seed: u64, weather: &ChaosPlan, index: usize) -> Campaign {
        let tm1 = ThreatModel1Config {
            route_lengths_ps: vec![600.0],
            routes_per_length: 4,
            burn_hours: 20,
            measure_every: 4,
            mode: MeasurementMode::Oracle,
            seed,
            measurement_repeats: 1,
        };
        let mut config = CampaignConfig::default();
        config.fault_plan = weather.session_weather(index);
        Campaign::new(
            Provider::new(ProviderConfig::aws_f1_like(2, seed)),
            Mission::ThreatModel1(tm1),
            config,
        )
        .expect("campaign builds")
    }

    fn specs(count: usize, weather: &ChaosPlan) -> Vec<CampaignSpec> {
        (0..count)
            .map(|i| CampaignSpec {
                id: format!("c{i}"),
                campaign: small_campaign(40 + i as u64, weather, i),
            })
            .collect()
    }

    fn reference_outcomes(count: usize, weather: &ChaosPlan) -> Vec<pentimento::CampaignOutcome> {
        (0..count)
            .map(|i| {
                small_campaign(40 + i as u64, weather, i)
                    .run()
                    .expect("reference run completes")
            })
            .collect()
    }

    #[test]
    fn benign_fleet_completes_bit_identically_to_standalone_runs() {
        let scratch = Scratch::new();
        let plan = ChaosPlan::none();
        let mut supervisor = Supervisor::new(&scratch.0, FleetConfig::default()).unwrap();
        let report = supervisor.run(specs(3, &plan), plan.clone());
        let references = reference_outcomes(3, &plan);

        assert_eq!(report.completed(), 3);
        assert_eq!(report.kills_injected, 0);
        assert!(report.quarantine.is_empty());
        for ((_, result), reference) in report.results.iter().zip(&references) {
            let outcome = result.outcome().expect("completed");
            assert_eq!(outcome.series, reference.series);
            assert_eq!(outcome.recovered, reference.recovered);
        }
    }

    #[test]
    fn killed_campaigns_recover_and_finish_bit_identically() {
        let scratch = Scratch::new();
        let mut plan = ChaosPlan::none();
        plan.seed = 13;
        plan.scheduled_kills = vec![(0, 5), (1, 9), (0, 17)];
        let mut supervisor = Supervisor::new(&scratch.0, FleetConfig::default()).unwrap();
        let report = supervisor.run(specs(2, &plan), plan.clone());
        let references = reference_outcomes(2, &plan);

        assert_eq!(report.completed(), 2, "kills must not lose campaigns");
        assert_eq!(report.kills_injected, 3);
        assert_eq!(report.restarts, 3);
        assert!(report.backoff_seconds > 0.0);
        for ((_, result), reference) in report.results.iter().zip(&references) {
            let outcome = result.outcome().expect("completed");
            assert_eq!(
                outcome.series, reference.series,
                "resume must be bit-identical"
            );
            assert_eq!(outcome.recovered, reference.recovered);
        }
    }

    #[test]
    fn corrupted_newest_generation_rolls_back_and_still_finishes_identically() {
        let scratch = Scratch::new();
        let mut plan = ChaosPlan::none();
        plan.seed = 21;
        plan.scheduled_kills = vec![(0, 9)];
        plan.corrupt_rate_per_checkpoint = 1.0; // every commit gets bit-rot
        let mut supervisor = Supervisor::new(&scratch.0, FleetConfig::default()).unwrap();
        let report = supervisor.run(specs(1, &plan), plan.clone());

        // Every envelope is corrupt, so the kill at hour 9 must roll all
        // the way back to... nothing? No: generation 0 was committed and
        // then corrupted too, so recovery fails typed — OR the roll-back
        // finds nothing and the campaign is quarantined. Either way the
        // invariant holds: completed-bit-identical or typed+quarantined.
        assert!(report.failures_all_quarantined());
        if report.completed() == 1 {
            let reference = &reference_outcomes(1, &plan)[0];
            let outcome = report.results[0].1.outcome().unwrap();
            assert_eq!(outcome.series, reference.series);
        } else {
            assert!(matches!(
                report.results[0].1.error(),
                Some(FleetError::Store { .. } | FleetError::CircuitOpen { .. })
            ));
        }
    }

    #[test]
    fn unrecoverable_store_quarantines_with_typed_error() {
        let scratch = Scratch::new();
        let mut plan = ChaosPlan::none();
        plan.scheduled_kills = vec![(0, 5)];
        plan.corrupt_rate_per_checkpoint = 1.0;
        let config = FleetConfig {
            retain_generations: 1, // no rollback headroom: every loss is fatal
            ..FleetConfig::default()
        };
        let mut supervisor = Supervisor::new(&scratch.0, config).unwrap();
        let report = supervisor.run(specs(1, &plan), plan.clone());

        assert_eq!(report.failed(), 1);
        assert!(report.failures_all_quarantined());
        let error = report.results[0].1.error().expect("typed failure");
        assert!(
            matches!(
                error,
                FleetError::Store {
                    source: StoreError::NoValidGeneration { .. },
                    ..
                }
            ),
            "{error}"
        );
        assert_eq!(
            report.quarantine.records()[0].reason,
            QuarantineReason::StoreUnrecoverable
        );
    }

    #[test]
    fn identical_chaos_runs_are_identical_in_every_observable() {
        let run = || {
            let scratch = Scratch::new();
            let mut plan = ChaosPlan::none();
            plan.seed = 31;
            plan.kill_rate_per_hour = 0.08;
            plan.corrupt_rate_per_checkpoint = 0.25;
            plan.rent_failure_rate = 0.1;
            let mut supervisor = Supervisor::new(&scratch.0, FleetConfig::default()).unwrap();
            let recorder = std::sync::Arc::new(obs::Recorder::new());
            supervisor.set_recorder(Some(recorder.clone()));
            let report = supervisor.run(specs(2, &plan), plan.clone());
            (
                report.completed(),
                report.kills_injected,
                report.corruptions_injected,
                report.restarts,
                report.rollbacks,
                report.ticks,
                format!("{:?}", report.quarantine),
                recorder.trace_jsonl(),
            )
        };
        assert_eq!(run(), run(), "chaos replay must be observable-identical");
    }

    #[test]
    fn restarted_supervisor_resumes_survivors_from_the_store() {
        let scratch = Scratch::new();
        let plan = ChaosPlan::none();
        let references = reference_outcomes(1, &plan);

        // First incarnation: step partway by scheduling an early kill,
        // then abandon the fleet mid-recovery by bounding the deadline.
        let first = Supervisor::new(
            &scratch.0,
            FleetConfig {
                checkpoint_every_hours: 4,
                ..FleetConfig::default()
            },
        )
        .unwrap();
        // Drive the campaign halfway by hand through the store: commit
        // generations as the supervisor would, then "crash".
        let mut campaign = small_campaign(40, &plan, 0);
        for _ in 0..10 {
            campaign.step().unwrap();
        }
        let checkpoint = campaign.checkpoint();
        first.store().commit("c0", 0, &checkpoint).unwrap();
        let mut vault = first.into_vault();
        vault.insert("c0", 0, checkpoint);
        drop(campaign); // the first process dies here

        // Second incarnation over the same root + surviving vault: the
        // startup scan finds c0 and resumes it — the fresh spec campaign
        // is discarded — and the outcome is still bit-identical.
        let mut second = Supervisor::with_vault(&scratch.0, FleetConfig::default(), vault).unwrap();
        let report = second.run(specs(1, &plan), plan.clone());
        assert_eq!(report.completed(), 1);
        let outcome = report.results[0].1.outcome().unwrap();
        assert_eq!(outcome.series, references[0].series);
        assert_eq!(outcome.recovered, references[0].recovered);
    }
}
