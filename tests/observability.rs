//! Integration tests for the campaign observability layer: a hostile
//! smoke campaign must produce a rich, well-formed, deterministic event
//! trace without perturbing the simulation.

use std::sync::Arc;

use bti_physics::Hours;
use cloud::{FaultKind, FaultPlan, Provider, ProviderConfig};
use obs::{EventKind, Recorder};
use pentimento::threat_model1::{self, ThreatModel1Config};
use pentimento::{Campaign, CampaignConfig, MeasurementMode, Mission};
use tdc::SensorFaultPlan;

/// The PR 1 hostile fault plan plus two scheduled faults: a preemption
/// that revokes the lease mid-campaign, and a rent failure armed for the
/// exact reacquisition rent that follows it — guaranteeing the campaign
/// exercises its retry/backoff path.
fn hostile_observed_campaign(recorder: Option<Arc<Recorder>>) -> Campaign {
    let config = ThreatModel1Config {
        route_lengths_ps: vec![5_000.0, 10_000.0],
        routes_per_length: 2,
        burn_hours: 30,
        measure_every: 3,
        mode: MeasurementMode::Tdc,
        seed: 80,
        measurement_repeats: 2,
    };
    let mut campaign_config = CampaignConfig::default();
    campaign_config.fault_plan = FaultPlan::hostile(80, 0.02)
        .with_scheduled(Hours::new(12.0), FaultKind::Preemption)
        .with_scheduled(Hours::new(12.0), FaultKind::RentFailure);
    campaign_config.sensor_faults = SensorFaultPlan::noisy(80, 0.02);
    Campaign::new_observed(
        Provider::new(ProviderConfig::aws_f1_like(2, 80)),
        Mission::ThreatModel1(config),
        campaign_config,
        recorder,
    )
    .expect("campaign builds")
}

#[test]
fn hostile_smoke_campaign_emits_a_rich_event_taxonomy() {
    let recorder = Arc::new(Recorder::new());
    let mut campaign = hostile_observed_campaign(Some(Arc::clone(&recorder)));
    // Step halfway, snapshot (emitting a CheckpointWrite), then finish.
    for _ in 0..15 {
        campaign.step().expect("steps");
    }
    let _snapshot = campaign.checkpoint();
    let outcome = campaign.run().expect("completes");
    assert!(outcome.metrics.bits > 0);

    let kinds = recorder.kind_counts();
    let has = |k: EventKind| kinds.iter().any(|(kind, n)| *kind == k && *n > 0);
    assert!(
        kinds.len() >= 6,
        "a hostile campaign must emit at least 6 distinct event kinds, got {kinds:?}"
    );
    assert!(has(EventKind::PhaseTransition), "kinds: {kinds:?}");
    assert!(has(EventKind::SessionAcquired), "kinds: {kinds:?}");
    assert!(has(EventKind::FingerprintVerified), "kinds: {kinds:?}");
    assert!(has(EventKind::FaultInjected), "kinds: {kinds:?}");
    assert!(has(EventKind::CheckpointWrite), "kinds: {kinds:?}");
    // The cache hit/miss pair: the first 1 h kernel is a miss, every
    // following identical hourly step hits.
    assert!(has(EventKind::CacheMiss), "kinds: {kinds:?}");
    assert!(has(EventKind::CacheHit), "kinds: {kinds:?}");
    // The scheduled rent failure armed at hour 12 fires on the
    // reacquisition rent right after the scheduled preemption, forcing a
    // session retry with backoff.
    assert!(has(EventKind::Retry), "kinds: {kinds:?}");
    assert!(has(EventKind::Backoff), "kinds: {kinds:?}");
    assert!(
        outcome.stats.rent_retries >= 1,
        "the armed rent failure must force a retry: {:?}",
        outcome.stats
    );
}

#[test]
fn trace_lines_are_well_formed_jsonl() {
    let recorder = Arc::new(Recorder::new());
    hostile_observed_campaign(Some(Arc::clone(&recorder)))
        .run()
        .expect("completes");
    let trace = recorder.trace_jsonl();
    assert!(!trace.is_empty());
    assert!(trace.ends_with('\n'), "every line is newline-terminated");
    for line in trace.lines() {
        assert!(
            line.starts_with("{\"at\":") && line.ends_with('}'),
            "malformed trace line: {line}"
        );
        for key in ["\"kind\":", "\"route\":", "\"value\":", "\"detail\":"] {
            assert!(line.contains(key), "trace line missing {key}: {line}");
        }
    }
    let metrics = recorder.metrics_json();
    for key in [
        "\"counters\"",
        "\"histograms\"",
        "\"events\"",
        "\"event_kinds\"",
    ] {
        assert!(metrics.contains(key), "metrics JSON missing {key}");
    }
}

#[test]
fn recorder_attachment_never_changes_campaign_results() {
    let recorder = Arc::new(Recorder::new());
    let traced = hostile_observed_campaign(Some(recorder))
        .run()
        .expect("completes");
    let untraced = hostile_observed_campaign(None).run().expect("completes");
    assert_eq!(traced.series, untraced.series);
    assert_eq!(traced.recovered, untraced.recovered);
    assert_eq!(traced.scored, untraced.scored);
    assert_eq!(traced.stats, untraced.stats);
}

#[test]
fn sensor_batch_spans_and_read_counters_accumulate() {
    let recorder = Arc::new(Recorder::new());
    hostile_observed_campaign(Some(Arc::clone(&recorder)))
        .run()
        .expect("completes");
    let counters = recorder.counters();
    // Every measurement phase batches one calibrated read per route; the
    // exact totals are covered by the tdc unit tests — here we only pin
    // that the campaign threads the recorder all the way down.
    assert!(
        recorder.counter("campaign.measurement_phases") > 0,
        "counters: {counters:?}"
    );
    assert!(
        recorder.counter("cache.misses") > 0,
        "counters: {counters:?}"
    );
    // Span RAII totality: everything started also finished.
    let started: u64 = counters
        .iter()
        .filter(|(k, _)| k.starts_with("span.") && k.ends_with(".started"))
        .map(|(_, v)| *v)
        .sum();
    let finished: u64 = counters
        .iter()
        .filter(|(k, _)| k.starts_with("span.") && k.ends_with(".finished"))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(started, finished, "span nesting must be total");
}

/// A benign TM1 TDC run through `threat_model1::run`, traced via the
/// provider's recorder, on a worker pool of exactly `threads` threads.
fn traced_driver_run(threads: usize) -> Arc<Recorder> {
    let config = ThreatModel1Config {
        route_lengths_ps: vec![5_000.0, 10_000.0],
        routes_per_length: 2,
        burn_hours: 30,
        measure_every: 3,
        mode: MeasurementMode::Tdc,
        seed: 81,
        measurement_repeats: 2,
    };
    let recorder = Arc::new(Recorder::new());
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool builds")
        .install(|| {
            let mut provider = Provider::new(ProviderConfig::aws_f1_like(1, 81));
            provider.set_recorder(Some(Arc::clone(&recorder)));
            threat_model1::run(&mut provider, &config).expect("attack completes");
        });
    recorder
}

#[test]
fn traced_driver_reports_sensor_spans_and_counters_at_every_width() {
    let serial = traced_driver_run(1);
    // One calibration batch, then the baseline plus one batch every
    // third hour of 30: 11 measurement phases × 4 routes × 2 repeats.
    assert_eq!(serial.counter("span.tdc.calibrate_batch.finished"), 1);
    assert_eq!(serial.counter("tdc.calibrations"), 4);
    assert_eq!(serial.counter("span.tdc.measure_batch.finished"), 11);
    assert_eq!(serial.counter("tdc.batched_reads"), 11);
    assert_eq!(serial.counter("tdc.sensor_reads"), 88);
    assert_eq!(serial.counter("campaign.measurement_phases"), 11);
    let trace = serial.trace_jsonl();
    assert!(
        !trace.contains("tdc."),
        "spans and counters belong to metrics, not the trace"
    );
    assert_eq!(
        trace,
        traced_driver_run(2).trace_jsonl(),
        "the trace must be identical at pool widths 1 and 2"
    );
}
