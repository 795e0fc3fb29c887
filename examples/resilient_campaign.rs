//! Hostile-cloud mode end to end: run Threat Model 1 through the
//! resilient [`Campaign`] runner against a provider that preempts
//! sessions, refuses rentals, swaps devices, scrubs spuriously, and
//! glitches the sensor — then interrupt the campaign mid-burn and
//! resume it bit-identically from a checkpoint.
//!
//! Run with: `cargo run --release --example resilient_campaign`

use bti_physics::Hours;
use cloud::{FaultKind, FaultPlan, Provider, ProviderConfig};
use pentimento::threat_model1::{self, ThreatModel1Config};
use pentimento::{Campaign, CampaignConfig, MeasurementMode, Mission};
use tdc::SensorFaultPlan;

const SEED: u64 = 2024;

fn mission_config() -> ThreatModel1Config {
    ThreatModel1Config {
        route_lengths_ps: vec![5_000.0, 10_000.0],
        routes_per_length: 8,
        burn_hours: 60,
        measure_every: 5,
        mode: MeasurementMode::Tdc,
        seed: SEED,
        measurement_repeats: 2,
    }
}

fn hostile_config() -> CampaignConfig {
    let mut config = CampaignConfig::default();
    // Probabilistic hostile weather, plus one preemption we know is
    // coming at hour 40 — after the checkpoint below, so the resumed
    // campaign has to survive it too.
    config.fault_plan =
        FaultPlan::hostile(SEED, 0.02).with_scheduled(Hours::new(40.0), FaultKind::Preemption);
    config.sensor_faults = SensorFaultPlan::noisy(SEED, 0.02);
    config
}

fn provider() -> Provider {
    Provider::new(ProviderConfig::aws_f1_like(3, SEED))
}

fn main() -> Result<(), pentimento::PentimentoError> {
    // --- The fault-free yardstick: the driver, i.e. a benign campaign. ---
    let baseline = threat_model1::run(&mut provider(), &mission_config())?;
    println!(
        "fault-free driver: {} bits at {:.1}% accuracy",
        baseline.metrics.bits,
        100.0 * baseline.metrics.accuracy
    );

    // --- The same attack under hostile weather. -------------------------
    let mission = Mission::ThreatModel1(mission_config());
    let mut campaign = Campaign::new(provider(), mission.clone(), hostile_config())?;

    // Step the first 20 simulated hours by hand, then snapshot. The
    // checkpoint carries the whole world — provider, RNG streams, fault
    // counters, readings — behind an integrity manifest.
    for _ in 0..20 {
        campaign.step()?;
    }
    let checkpoint = campaign.checkpoint();
    println!(
        "checkpointed at hour {}: {}",
        campaign.hour(),
        checkpoint.manifest()
    );
    drop(campaign); // the attacking process "dies" here

    // --- Resume and finish. ---------------------------------------------
    let mut resumed = Campaign::resume(checkpoint)?;
    let outcome = resumed.run()?;
    let s = &outcome.stats;
    println!(
        "resumed campaign: {} bits at {:.1}% accuracy, {:.3} d'",
        outcome.metrics.bits,
        100.0 * outcome.metrics.accuracy,
        outcome.metrics.dprime
    );
    println!(
        "weather survived: {} faults injected, {} reacquisitions \
         ({} impostor boards rejected), {} scrub reloads, {} rent retries",
        s.faults_injected, s.reacquisitions, s.impostors_rejected, s.scrub_reloads, s.rent_retries
    );
    println!(
        "sensing under faults: {} degraded points, {} dropped points, \
         {} abstained bits, {:.1}s wall-clock lost to backoff",
        s.degraded_points, s.dropped_points, s.abstained, s.backoff_seconds
    );

    // An uninterrupted campaign with the same seed lands on the same bits.
    let uninterrupted = Campaign::new(provider(), mission, hostile_config())?.run()?;
    assert_eq!(outcome.recovered, uninterrupted.recovered);
    assert_eq!(outcome.series, uninterrupted.series);
    println!("checkpoint/resume matched the uninterrupted run bit-for-bit");
    Ok(())
}
