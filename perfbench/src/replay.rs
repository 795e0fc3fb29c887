//! Traced replays of the TM ops through each layer's public API, and the
//! sampled probes of single layer calls.
//!
//! A replay performs the same calls in the same order as
//! `threat_model1::run` / `threat_model2::run`, with a span around each
//! call into a layer, so its outputs must match the untraced op's byte
//! for byte; the caller checks that before trusting any span.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use bti_physics::{CacheStats, Hours, LogicLevel};
use cloud::{Assignment, Provider, Session, TenantId};
use fleet::CheckpointStore;
use fpga_fabric::FpgaDevice;
use pentimento::{
    build_condition_design, build_target_design, BitClassifier, DriftSlopeClassifier,
    RecoveryMetrics, RecoverySlopeClassifier, RouteGroupSpec, RouteSeries, Skeleton,
    ARITHMETIC_HEAVY_WATTS, CONDITION_WATTS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdc::{Measurement, TdcArray, TdcConfig};

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{
    chaos_plan, fleet_specs, tm1_config, tm1_provider, tm2_config, tm2_provider, tm_output,
    BoxError, OpOutput,
};

/// Work counts of one TM op, computed from the replay's own calls or read
/// from program counters (see each field).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TmCounts {
    /// `measure_deltas_streamed` calls (computed).
    pub measure_batches: u64,
    /// `TdcSensor::measure` reads: sensors × repeats × batches (computed).
    pub sensor_reads: u64,
    /// Capture traces behind those reads (computed).
    pub capture_traces: u64,
    /// Carry-chain samples behind those traces (computed).
    pub samples: u64,
    /// Mean wire segments per sensor route, i.e. per `route_delay` call
    /// (computed).
    pub segments_per_read: f64,
    /// `Provider::advance_time` calls (computed).
    pub advance_calls: u64,
    /// Routes × simulated hours the provider advanced (computed).
    pub route_hours: f64,
    /// Decay-cache counters before release (program counter).
    pub cache: CacheStats,
    /// Peak aging-arena bytes per device before release (program counter).
    pub arena_bytes_per_device: u64,
}

/// Timings of single layer calls, sampled on an op's final sensors and
/// device state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TmProbe {
    /// ns per `FpgaDevice::route_delay` call.
    pub route_delay_ns: f64,
    /// µs per `TdcSensor::capture_trace` call.
    pub capture_trace_us: f64,
    /// µs per `Measurement::from_traces` call over one read's traces.
    pub postprocess_us: f64,
    /// Serial per-sensor `measure` time over (width × batch wall time).
    pub parallel_eff: f64,
}

/// One measurement phase: a traced batched read, appended per route.
#[allow(clippy::too_many_arguments)]
fn measure_phase(
    t: &mut Tracer,
    sensors: &TdcArray,
    device: &FpgaDevice,
    repeats: usize,
    master_seed: u64,
    hour: f64,
    hours_log: &mut Vec<f64>,
    readings: &mut [Vec<f64>],
    counts: &mut TmCounts,
) -> Result<(), BoxError> {
    let phase = hours_log.len() as u64;
    hours_log.push(hour);
    let measured = t.time("tdc.measure_batch", || {
        sensors.measure_deltas_streamed(device, repeats, master_seed, phase)
    })?;
    for (per_route, value) in readings.iter_mut().zip(measured) {
        per_route.push(value);
    }
    counts.measure_batches += 1;
    counts.sensor_reads += (sensors.len() * repeats) as u64;
    Ok(())
}

fn finish_counts(counts: &mut TmCounts, sensors: &TdcArray, provider: &Provider) {
    let config = TdcConfig::cloud();
    counts.capture_traces = counts.sensor_reads * config.traces_per_measurement as u64;
    counts.samples = counts.capture_traces * 2 * config.samples_per_trace as u64;
    let segments: usize = sensors
        .sensors()
        .iter()
        .map(|s| s.route().segments().len())
        .sum();
    counts.segments_per_read = segments as f64 / sensors.len().max(1) as f64;
    counts.cache = provider.decay_cache_stats();
    counts.arena_bytes_per_device = provider.peak_aging_memory_bytes() as u64;
}

fn route_specs(lengths: &[f64], per_length: usize) -> Vec<RouteGroupSpec> {
    lengths
        .iter()
        .map(|&target_ps| RouteGroupSpec {
            target_ps,
            count: per_length,
        })
        .collect()
}

fn build_series(
    skeleton: &Skeleton,
    truth: &[LogicLevel],
    hours: &[f64],
    readings: &[Vec<f64>],
) -> Vec<RouteSeries> {
    skeleton
        .entries()
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            RouteSeries::from_raw(
                i,
                entry.target_ps,
                truth[i],
                hours.to_vec(),
                readings[i].clone(),
            )
        })
        .collect()
}

/// Provider and sensors frozen at the end of an op's last read, for the
/// probes.
pub struct Frozen {
    provider: Provider,
    session: Session,
    sensors: TdcArray,
    repeats: usize,
    master_seed: u64,
}

/// Replays one TM1 op (`threat_model1::run`) with spans around each layer
/// call. `freeze` keeps the final device state for [`probe_tm`].
pub fn replay_tm1(
    seed: u64,
    t: &mut Tracer,
    freeze: bool,
) -> Result<(OpOutput, TmCounts, Option<Frozen>), BoxError> {
    let config = tm1_config(seed);
    let mut counts = TmCounts::default();
    let root = t.enter("op");
    let mut provider = t.time("cloud.provider", || tm1_provider(seed));
    let master_seed = config.seed ^ 0x7EA5_E77E;
    let mut rng = StdRng::seed_from_u64(master_seed);
    let attacker = TenantId::new("attacker");
    let session = t.time("cloud.sessions", || provider.rent(attacker.clone()))?;

    let specs = route_specs(&config.route_lengths_ps, config.routes_per_length);
    let span = t.enter("pentimento.setup");
    let skeleton = Skeleton::place(provider.device(&session)?, &specs)?;
    let truth: Vec<LogicLevel> = (0..skeleton.len())
        .map(|_| LogicLevel::from_bool(rng.gen()))
        .collect();
    let design = build_target_design(&skeleton, &truth);
    t.exit(span);
    let span = t.enter("cloud.sessions");
    let afi = provider
        .marketplace_mut()
        .publish(TenantId::new("vendor"), design, true);
    let seal_broken = provider.marketplace().get(afi)?.inspect(&attacker).is_ok();
    t.exit(span);
    if seal_broken {
        return Err("marketplace seal broken".into());
    }
    let mut sensors = t.time("pentimento.setup", || {
        TdcArray::place(
            provider.device(&session)?,
            skeleton.entries().iter().map(|e| e.route.clone()),
            TdcConfig::cloud(),
        )
        .map_err(BoxError::from)
    })?;
    let device = provider.device(&session)?;
    t.time("tdc.calibrate", || {
        sensors.calibrate_all_streamed(device, master_seed)
    })?;

    let repeats = config.measurement_repeats.max(1);
    let mut hours_log = Vec::new();
    let mut readings: Vec<Vec<f64>> = vec![Vec::new(); skeleton.len()];
    measure_phase(
        t,
        &sensors,
        provider.device(&session)?,
        repeats,
        master_seed,
        0.0,
        &mut hours_log,
        &mut readings,
        &mut counts,
    )?;
    t.time("cloud.sessions", || provider.load_afi(&session, afi))?;
    for hour in 1..=config.burn_hours {
        t.time("cloud.advance_time", || {
            provider.advance_time(Hours::new(1.0))
        });
        counts.advance_calls += 1;
        counts.route_hours += skeleton.len() as f64;
        if hour % config.measure_every == 0 {
            measure_phase(
                t,
                &sensors,
                provider.device(&session)?,
                repeats,
                master_seed,
                hour as f64,
                &mut hours_log,
                &mut readings,
                &mut counts,
            )?;
        }
    }
    finish_counts(&mut counts, &sensors, &provider);
    let frozen = freeze.then(|| Frozen {
        provider: provider.clone(),
        session: session.clone(),
        sensors: sensors.clone(),
        repeats,
        master_seed,
    });
    t.time("cloud.sessions", || {
        provider.unload(&session)?;
        provider.release(session)
    })?;

    let (series, recovered) = t.time("pentimento.classify", || {
        let series = build_series(&skeleton, &truth, &hours_log, &readings);
        let recovered = DriftSlopeClassifier::new().classify_all(&series);
        (series, recovered)
    });
    let metrics = t.time("pentimento.score", || {
        RecoveryMetrics::score(&series, &recovered)
    });
    t.exit(root);
    let output = tm_output(&series, &recovered, &truth, metrics.accuracy, None);
    Ok((output, counts, frozen))
}

/// Replays one TM2 op (`threat_model2::run`) with spans around each layer
/// call. `freeze` keeps the final device state for [`probe_tm`].
pub fn replay_tm2(
    seed: u64,
    t: &mut Tracer,
    freeze: bool,
) -> Result<(OpOutput, TmCounts, Option<Frozen>), BoxError> {
    let config = tm2_config(seed);
    let mut counts = TmCounts::default();
    let root = t.enter("op");
    let mut provider = t.time("cloud.provider", || tm2_provider(seed));
    let master_seed = config.seed ^ 0x0DD_B175;
    let mut rng = StdRng::seed_from_u64(master_seed);
    let specs = route_specs(&config.route_lengths_ps, config.routes_per_length);

    // Victim epoch: rent, place, load, squat, age, release (scrub).
    let victim_session = t.time("cloud.sessions", || provider.rent(TenantId::new("victim")))?;
    let victim_device = victim_session.device_id();
    let span = t.enter("pentimento.setup");
    let skeleton = Skeleton::place(provider.device(&victim_session)?, &specs)?;
    let truth: Vec<LogicLevel> = (0..skeleton.len())
        .map(|_| LogicLevel::from_bool(rng.gen()))
        .collect();
    let design = build_target_design(&skeleton, &truth);
    t.exit(span);
    let attacker = TenantId::new("attacker");
    let squatted = t.time("cloud.sessions", || {
        provider.load_design(&victim_session, design)?;
        Ok::<_, BoxError>(provider.rent_all(attacker.clone()).unwrap_or_default())
    })?;
    t.time("cloud.advance_time", || {
        provider.advance_time(Hours::new(config.victim_hours as f64));
    });
    counts.advance_calls += 1;
    counts.route_hours += (skeleton.len() * config.victim_hours) as f64;
    let session = t.time("cloud.sessions", || {
        provider.unload(&victim_session)?;
        provider.release(victim_session)?;
        // Flash attack: the only rentable device is the victim's.
        let session = provider.rent(attacker.clone())?;
        for s in squatted {
            provider.release(s)?;
        }
        Ok::<_, BoxError>(session)
    })?;
    let reacquired = session.device_id() == victim_device;
    if !reacquired {
        return Err("flash attack missed the victim device".into());
    }

    let mut sensors = t.time("pentimento.setup", || {
        TdcArray::place(
            provider.device(&session)?,
            skeleton.entries().iter().map(|e| e.route.clone()),
            TdcConfig::cloud(),
        )
        .map_err(BoxError::from)
    })?;
    let device = provider.device(&session)?;
    t.time("tdc.calibrate", || {
        sensors.calibrate_all_streamed(device, master_seed)
    })?;

    let repeats = config.measurement_repeats.max(1);
    let mut hours_log = Vec::new();
    let mut readings: Vec<Vec<f64>> = vec![Vec::new(); skeleton.len()];
    let epoch = provider.now().value();
    measure_phase(
        t,
        &sensors,
        provider.device(&session)?,
        repeats,
        master_seed,
        0.0,
        &mut hours_log,
        &mut readings,
        &mut counts,
    )?;
    let condition = t.time("pentimento.setup", || {
        build_condition_design(&skeleton, config.condition_level)
    });
    t.time("cloud.sessions", || {
        provider.load_design(&session, condition)
    })?;
    for _ in 0..config.attack_hours {
        t.time("cloud.advance_time", || {
            provider.advance_time(Hours::new(1.0))
        });
        counts.advance_calls += 1;
        counts.route_hours += skeleton.len() as f64;
        let hour = provider.now().value() - epoch;
        measure_phase(
            t,
            &sensors,
            provider.device(&session)?,
            repeats,
            master_seed,
            hour,
            &mut hours_log,
            &mut readings,
            &mut counts,
        )?;
    }
    finish_counts(&mut counts, &sensors, &provider);
    let frozen = freeze.then(|| Frozen {
        provider: provider.clone(),
        session: session.clone(),
        sensors: sensors.clone(),
        repeats,
        master_seed,
    });
    t.time("cloud.sessions", || {
        provider.unload(&session)?;
        provider.release(session)
    })?;

    let span = t.enter("pentimento.classify");
    let series = build_series(&skeleton, &truth, &hours_log, &readings);
    let reference = provider.device_by_id(victim_device)?;
    let classifier = RecoverySlopeClassifier::calibrated(
        reference.bti_model(),
        config.victim_hours as f64,
        config.attack_hours as f64,
        reference.thermal().die_temperature(ARITHMETIC_HEAVY_WATTS),
        reference.thermal().die_temperature(CONDITION_WATTS),
        reference.wear_factor(),
    );
    let recovered = classifier.classify_all(&series);
    t.exit(span);
    let metrics = t.time("pentimento.score", || {
        RecoveryMetrics::score(&series, &recovered)
    });
    t.exit(root);
    let output = tm_output(
        &series,
        &recovered,
        &truth,
        metrics.accuracy,
        Some(reacquired),
    );
    Ok((output, counts, frozen))
}

/// Times single layer calls on a frozen op state: `route_delay` over the
/// sensor routes, `capture_trace` and `Measurement::from_traces` as one
/// read performs them, and the batched read against its serial sum.
pub fn probe_tm(frozen: &Frozen, width: usize) -> Result<TmProbe, BoxError> {
    let device = frozen.provider.device(&frozen.session)?;
    let sensors = frozen.sensors.sensors();
    let config = TdcConfig::cloud();

    const ROUTE_DELAY_ROUNDS: usize = 200;
    let started = Instant::now();
    for _ in 0..ROUTE_DELAY_ROUNDS {
        for sensor in sensors {
            black_box(device.route_delay(black_box(sensor.route())));
        }
    }
    let calls = (ROUTE_DELAY_ROUNDS * sensors.len()).max(1);
    let route_delay_ns = started.elapsed().as_secs_f64() * 1e9 / calls as f64;

    let mut rng = StdRng::seed_from_u64(frozen.master_seed ^ 0x05EE_D0F9_B0BE);
    let (mut capture_s, mut captures, mut post_s, mut posts) = (0.0, 0usize, 0.0, 0usize);
    for sensor in sensors {
        let theta_init = sensor
            .theta_init_ps()
            .ok_or("probe sensor is not calibrated")?;
        let mut traces = Vec::with_capacity(config.traces_per_measurement);
        for i in 0..config.traces_per_measurement {
            let theta = theta_init - i as f64 * config.theta_step_ps;
            let started = Instant::now();
            traces.push(black_box(sensor.capture_trace(device, theta, &mut rng)));
            capture_s += started.elapsed().as_secs_f64();
            captures += 1;
        }
        let started = Instant::now();
        black_box(Measurement::from_traces(black_box(&traces)));
        post_s += started.elapsed().as_secs_f64();
        posts += 1;
    }

    let mut ratios = Vec::new();
    for round in 0..3u64 {
        let mut serial_s = 0.0;
        for sensor in sensors {
            for _ in 0..frozen.repeats {
                let started = Instant::now();
                black_box(sensor.measure(device, &mut rng)?);
                serial_s += started.elapsed().as_secs_f64();
            }
        }
        let started = Instant::now();
        black_box(frozen.sensors.measure_deltas_streamed(
            device,
            frozen.repeats,
            frozen.master_seed,
            1_000 + round,
        )?);
        let wall_s = started.elapsed().as_secs_f64();
        ratios.push(serial_s / (width as f64 * wall_s));
    }
    Ok(TmProbe {
        route_delay_ns,
        capture_trace_us: capture_s * 1e6 / captures.max(1) as f64,
        postprocess_us: post_s * 1e6 / posts.max(1) as f64,
        parallel_eff: median(&ratios).unwrap_or(0.0),
    })
}

/// ms per `CheckpointStore::commit_batch` call committing one checkpoint
/// of each of the fleet's freshly built campaigns, in a scratch store.
pub fn probe_commit_batch(
    winners: &[Assignment],
    seed: u64,
    store: &Path,
) -> Result<f64, BoxError> {
    const GENERATIONS: u64 = 4;
    let specs = fleet_specs(winners, &chaos_plan(seed), seed, None::<&Arc<_>>)?;
    let checkpoints: Vec<_> = specs
        .iter()
        .map(|s| (s.id.clone(), s.campaign.checkpoint()))
        .collect();
    let store = CheckpointStore::open(store)?;
    let mut elapsed_s = 0.0;
    for generation in 1..=GENERATIONS {
        let items: Vec<_> = checkpoints
            .iter()
            .map(|(id, checkpoint)| (id.as_str(), generation, checkpoint))
            .collect();
        let started = Instant::now();
        let results = store.commit_batch(&items);
        elapsed_s += started.elapsed().as_secs_f64();
        for result in results {
            result?;
        }
    }
    Ok(elapsed_s * 1e3 / GENERATIONS as f64)
}
