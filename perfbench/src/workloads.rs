//! The three workloads, their inputs, one untraced op each, and the
//! output check every op must pass.
//!
//! An op is one attack campaign (TM1, TM2) or one supervised fleet of
//! campaigns, driven through the program's own entry points. Op `i` of a
//! run takes its seed from [`op_seed`]`(seed, i)`; op 0 is the warm-up.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bti_physics::LogicLevel;
use cloud::{
    Assignment, DevicePool, Provider, ProviderConfig, RentRequest, SessionBroker, TenantId,
};
use fleet::{CampaignSpec, ChaosPlan, FleetConfig, FleetReport, Supervisor};
use obs::{json_f64, Recorder};
use obs_analyze::{compute_alerts, compute_indicators, fnv1a, parse_trace};
use obs_analyze::{AlertConfig, IndicatorConfig};
use pentimento::threat_model1::{self, ThreatModel1Config};
use pentimento::threat_model2::{self, ThreatModel2Config};
use pentimento::{series_to_csv, Campaign, CampaignConfig, MeasurementMode, Mission, RouteSeries};

use crate::trace::Tracer;

/// Error type of everything an op can fail with.
pub type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// Campaigns in one `fleet_chaos` op (the `fleet_scaling` fleet size).
pub const FLEET_SIZE: usize = 64;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One Threat Model 1 campaign on a sealed AFI, TDC sensing.
    Tm1Cloud,
    /// One Threat Model 2 flash-reacquisition campaign, TDC sensing.
    Tm2Flash,
    /// One supervised 64-campaign fleet under scheduled kills.
    FleetChaos,
}

impl Workload {
    /// Every workload the benchmark can run.
    pub const ALL: [Self; 3] = [Self::Tm1Cloud, Self::Tm2Flash, Self::FleetChaos];

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Tm1Cloud => "tm1_cloud",
            Self::Tm2Flash => "tm2_flash",
            Self::FleetChaos => "fleet_chaos",
        }
    }
}

/// SplitMix64 finalizer: a bijective mix of one word.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Number of distinct op seeds: op seeds are `0..OP_SEEDS`, and
/// `golden.tsv` records the output of every one of them on every
/// workload, so every op a run can reach is checked against a recorded
/// output whatever the run's seed.
pub const OP_SEEDS: u64 = 128;

/// Seed of op `index` of a run seeded with `seed`. The run's seed picks
/// a start and an odd stride, so a run visits all [`OP_SEEDS`] op seeds
/// once before it repeats one.
#[must_use]
pub fn op_seed(seed: u64, index: u64) -> u64 {
    let start = splitmix64(seed);
    let stride = splitmix64(start) | 1;
    start.wrapping_add(index.wrapping_mul(stride)) % OP_SEEDS
}

/// The `attack_accuracy --smoke` TM1 point: 4×4 routes in the 1/2/5/10 ns
/// groups, 50 hourly steps, 2 repeats.
#[must_use]
pub fn tm1_config(seed: u64) -> ThreatModel1Config {
    bench::tm1_end_to_end_config(seed)
}

/// The `attack_accuracy --smoke` TM2 point: 100 h victim, 25 hourly
/// recovery reads with 4 repeats on 4 routes per group.
#[must_use]
pub fn tm2_config(seed: u64) -> ThreatModel2Config {
    ThreatModel2Config {
        route_lengths_ps: vec![1_000.0, 2_000.0, 5_000.0, 10_000.0],
        routes_per_length: 4,
        victim_hours: 100,
        attack_hours: 25,
        condition_level: LogicLevel::Zero,
        mode: MeasurementMode::Tdc,
        seed,
        measurement_repeats: 4,
        victim_hold_and_recover_hours: 0,
    }
}

/// The provider a TM1 op attacks: a one-device region.
#[must_use]
pub fn tm1_provider(seed: u64) -> Provider {
    Provider::new(ProviderConfig::aws_f1_like(1, seed))
}

/// The provider a TM2 op attacks: a two-device region, so the attacker
/// squats one board and flash-reacquires the victim's.
#[must_use]
pub fn tm2_provider(seed: u64) -> Provider {
    Provider::new(ProviderConfig::aws_f1_like(2, seed))
}

/// Per-workload inputs built once per run, during set-up.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// TM ops need nothing beyond their op seed.
    Tm,
    /// The fleet's device grants from the two-tenant contention race.
    Fleet(Vec<Assignment>),
}

impl Inputs {
    /// Builds the inputs `workload` needs.
    #[must_use]
    pub fn build(workload: Workload) -> Self {
        match workload {
            Workload::Tm1Cloud | Workload::Tm2Flash => Self::Tm,
            Workload::FleetChaos => Self::Fleet(contention_winners()),
        }
    }
}

/// The `fleet_scaling` contention race, resolved serially: `attacker` and
/// `rival` each ask for one fleet's worth of devices at equal priority;
/// the broker's tie-break grants exactly one fleet.
fn contention_winners() -> Vec<Assignment> {
    let broker = SessionBroker::new();
    for sequence in 0..FLEET_SIZE as u64 {
        for tenant in ["attacker", "rival"] {
            broker.submit(RentRequest {
                tenant: TenantId::new(tenant),
                priority: 7,
                sequence,
            });
        }
    }
    let mut pool = DevicePool::from_size(FLEET_SIZE as u32);
    broker
        .resolve(&mut pool)
        .into_iter()
        .filter(|a| a.device.is_some())
        .collect()
}

/// Scheduled kills on every fourth campaign at staggered hours, as in
/// `fleet_scaling`: chaos that is always survivable.
#[must_use]
pub fn chaos_plan(seed: u64) -> ChaosPlan {
    let mut plan = ChaosPlan::none();
    plan.seed = seed;
    plan.scheduled_kills = (0..FLEET_SIZE)
        .filter(|index| index % 4 == 0)
        .map(|index| (index, 3 + (index / 4) % 5))
        .collect();
    plan
}

/// The fleet's campaigns: Oracle-mode TM1 missions whose seeds derive
/// from the op seed and the device the broker granted.
pub fn fleet_specs(
    winners: &[Assignment],
    plan: &ChaosPlan,
    seed: u64,
    recorder: Option<&Arc<Recorder>>,
) -> Result<Vec<CampaignSpec>, BoxError> {
    winners
        .iter()
        .enumerate()
        .map(|(index, assignment)| {
            let device = assignment
                .device
                .ok_or("contention winner holds no device")?;
            let seed = seed.wrapping_add(u64::from(device.0));
            let mission = Mission::ThreatModel1(ThreatModel1Config {
                route_lengths_ps: vec![600.0],
                routes_per_length: 2,
                burn_hours: 10,
                measure_every: 5,
                mode: MeasurementMode::Oracle,
                seed,
                measurement_repeats: 1,
            });
            let config = CampaignConfig {
                fault_plan: plan.session_weather(index),
                ..CampaignConfig::default()
            };
            let provider = Provider::new(ProviderConfig::aws_f1_like(2, seed));
            let mut campaign = Campaign::new(provider, mission, config)?;
            campaign.set_recorder(recorder.map(Arc::clone));
            Ok(CampaignSpec {
                id: format!("c{index:02}"),
                campaign,
            })
        })
        .collect()
}

/// What an op produced, reduced to what the output check compares.
#[derive(Debug, Clone, PartialEq)]
pub struct OpOutput {
    /// Byte-exact digest of the op's outputs.
    pub digest: String,
    /// Mean recovered-bit accuracy over the op's campaigns.
    pub accuracy: f64,
    /// Campaigns the op completed.
    pub campaigns: usize,
    /// Whether the workload's invariants hold.
    pub invariants: Result<(), String>,
}

/// Digest of a TM op: the `series_to_csv` bytes, the recovered bits and
/// the accuracy (plus TM2's reacquisition flag).
#[must_use]
pub fn tm_output(
    series: &[RouteSeries],
    recovered: &[LogicLevel],
    truth: &[LogicLevel],
    accuracy: f64,
    reacquired: Option<bool>,
) -> OpOutput {
    let bits: String = recovered
        .iter()
        .map(|b| if *b == LogicLevel::One { '1' } else { '0' })
        .collect();
    let mut digest = format!(
        "csv={:016x} bits={bits} acc={}",
        fnv1a(series_to_csv(series).as_bytes()),
        json_f64(accuracy)
    );
    if let Some(r) = reacquired {
        digest.push_str(&format!(" reacquired={r}"));
    }
    let correct = recovered.iter().zip(truth).filter(|(r, t)| r == t).count();
    let invariants = if recovered.len() != series.len() || truth.len() != series.len() {
        Err(format!(
            "{} series, {} recovered bits, {} truth bits",
            series.len(),
            recovered.len(),
            truth.len()
        ))
    } else if series.is_empty() || (correct as f64 / truth.len() as f64) != accuracy {
        Err(format!(
            "accuracy {accuracy} disagrees with {correct}/{} bits",
            truth.len()
        ))
    } else if reacquired == Some(false) {
        Err("TM2 flash attack did not reacquire the victim device".to_owned())
    } else {
        Ok(())
    };
    OpOutput {
        digest,
        accuracy,
        campaigns: 1,
        invariants,
    }
}

/// Runs one TM1 op through `threat_model1::run`.
pub fn tm1_op(seed: u64) -> Result<OpOutput, BoxError> {
    let mut provider = tm1_provider(seed);
    let o = threat_model1::run(&mut provider, &tm1_config(seed))?;
    Ok(tm_output(
        &o.series,
        &o.recovered,
        &o.truth,
        o.metrics.accuracy,
        None,
    ))
}

/// Runs one TM2 op through `threat_model2::run`.
pub fn tm2_op(seed: u64) -> Result<OpOutput, BoxError> {
    let mut provider = tm2_provider(seed);
    let o = threat_model2::run(&mut provider, &tm2_config(seed))?;
    Ok(tm_output(
        &o.series,
        &o.recovered,
        &o.truth,
        o.metrics.accuracy,
        Some(o.reacquired_victim_device),
    ))
}

/// Work counts and timings a traced fleet op exposes.
#[derive(Debug, Clone, Default)]
pub struct FleetDetail {
    /// Supervisor ticks.
    pub ticks: u64,
    /// Per-tick wall latencies, seconds.
    pub tick_latencies_s: Vec<f64>,
    /// Campaign restarts after kills.
    pub restarts: u64,
    /// Rollbacks to an older checkpoint generation.
    pub rollbacks: u64,
    /// The Recorder's `campaign.checkpoints` counter.
    pub checkpoints: u64,
    /// Decay-cache lookups, from the Recorder's `cache.*` counters.
    pub cache_hits: u64,
    /// Decay-cache misses, from the Recorder's `cache.*` counters.
    pub cache_misses: u64,
    /// Peak aging-arena bytes per device, from the fleet report.
    pub arena_bytes_per_device: usize,
    /// Events in the drained trace.
    pub trace_events: usize,
}

/// Runs one fleet op: build the fleet, supervise it to completion with
/// a Recorder attached, then parse the trace and derive indicators and
/// alerts from it. With a tracer, each layer call is a span; the calls
/// are the same either way.
pub fn fleet_op(
    winners: &[Assignment],
    seed: u64,
    store: &Path,
    tracer: Option<&mut Tracer>,
) -> Result<(OpOutput, FleetDetail), BoxError> {
    let mut time = Timer(tracer);
    let root = time.enter("op");
    let recorder = Arc::new(Recorder::new());
    let plan = chaos_plan(seed);
    let s = time.enter("pentimento.setup");
    let specs = fleet_specs(winners, &plan, seed, Some(&recorder))?;
    time.exit(s);
    let s = time.enter("fleet.run");
    let mut supervisor = Supervisor::new(
        store,
        FleetConfig {
            checkpoint_every_hours: 4,
            ..FleetConfig::default()
        },
    )?;
    supervisor.set_recorder(Some(Arc::clone(&recorder)));
    let report = supervisor.run(specs, plan);
    time.exit(s);
    let s = time.enter("obs.trace_jsonl");
    let trace = recorder.trace_jsonl();
    time.exit(s);
    let s = time.enter("obs-analyze.parse");
    let events = parse_trace(&trace)?;
    time.exit(s);
    let s = time.enter("obs-analyze.indicators");
    let indicators = compute_indicators(&events, None, &IndicatorConfig::default());
    time.exit(s);
    let s = time.enter("obs-analyze.alerts");
    let alerts = compute_alerts(&events, &AlertConfig::default());
    time.exit(s);
    time.exit(root);

    let detail = FleetDetail {
        ticks: report.ticks,
        tick_latencies_s: supervisor.last_tick_latencies_s().to_vec(),
        restarts: report.restarts,
        rollbacks: report.rollbacks,
        checkpoints: recorder.counter("campaign.checkpoints"),
        cache_hits: recorder.counter("cache.hits"),
        cache_misses: recorder.counter("cache.misses"),
        arena_bytes_per_device: report.arena_bytes_per_device,
        trace_events: events.len(),
    };
    let output = fleet_output(&report, &trace, &indicators.to_json(), &alerts.to_json());
    Ok((output, detail))
}

/// Spans when a tracer is present, nothing otherwise.
struct Timer<'a>(Option<&'a mut Tracer>);

impl Timer<'_> {
    fn enter(&mut self, name: &'static str) -> Option<crate::trace::Open> {
        self.0.as_deref_mut().map(|t| t.enter(name))
    }

    fn exit(&mut self, span: Option<crate::trace::Open>) {
        if let (Some(t), Some(span)) = (self.0.as_deref_mut(), span) {
            t.exit(span);
        }
    }
}

/// A `fleet_scaling::run_digest`-style digest: per-campaign outcomes,
/// fault tallies, restarts, rollbacks, quarantine, ticks and trace
/// bytes, plus hashes of the trace and of the derived indicators and
/// alerts.
#[must_use]
pub fn fleet_output(report: &FleetReport, trace: &str, indicators: &str, alerts: &str) -> OpOutput {
    let results: Vec<String> = report
        .results
        .iter()
        .map(|(id, result)| match (result.outcome(), result.error()) {
            (Some(outcome), _) => format!("{id}:ok:{}", json_f64(outcome.metrics.accuracy)),
            (None, Some(error)) => format!("{id}:err:{}", error.tag()),
            (None, None) => format!("{id}:unknown"),
        })
        .collect();
    let quarantine: Vec<String> = report
        .quarantine
        .records()
        .iter()
        .map(|q| format!("{}/{}", q.campaign, q.reason.tag()))
        .collect();
    let summary = format!(
        "results=[{}] kills={} corruptions={} truncations={} restarts={} rollbacks={} \
         quarantine=[{}] ticks={} trace_bytes={}",
        results.join(","),
        report.kills_injected,
        report.corruptions_injected,
        report.truncations_injected,
        report.restarts,
        report.rollbacks,
        quarantine.join(","),
        report.ticks,
        trace.len()
    );
    let digest = format!(
        "run={:016x} trace={:016x} indicators={:016x} alerts={:016x} completed={} restarts={} rollbacks={}",
        fnv1a(summary.as_bytes()),
        fnv1a(trace.as_bytes()),
        fnv1a(indicators.as_bytes()),
        fnv1a(alerts.as_bytes()),
        report.completed(),
        report.restarts,
        report.rollbacks
    );
    let accuracies: Vec<f64> = report
        .results
        .iter()
        .filter_map(|(_, r)| r.outcome().map(|o| o.metrics.accuracy))
        .collect();
    let accuracy = if accuracies.is_empty() {
        0.0
    } else {
        accuracies.iter().sum::<f64>() / accuracies.len() as f64
    };
    let expected_kills = chaos_plan(0).scheduled_kills.len() as u64;
    let invariants = if report.completed() != FLEET_SIZE {
        Err(format!(
            "{} of {FLEET_SIZE} fleet campaigns completed",
            report.completed()
        ))
    } else if report.kills_injected != expected_kills {
        Err(format!(
            "{} kills injected, {expected_kills} scheduled",
            report.kills_injected
        ))
    } else {
        Ok(())
    };
    OpOutput {
        digest,
        accuracy,
        campaigns: report.completed(),
        invariants,
    }
}

/// Total bytes of the regular files under `dir`.
#[must_use]
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&entry.path()),
            Ok(t) if t.is_file() => entry.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// Outputs recorded for known op seeds, keyed by `(workload, op seed)`.
#[derive(Debug, Default)]
pub struct Golden(BTreeMap<(String, u64), String>);

impl Golden {
    /// Parses `workload<TAB>op_seed<TAB>digest` lines; `#` starts a
    /// comment line.
    pub fn parse(src: &str) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        for (n, line) in src.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.splitn(3, '\t');
            let (Some(w), Some(s), Some(d)) = (fields.next(), fields.next(), fields.next()) else {
                return Err(format!(
                    "golden line {}: want 3 tab-separated fields",
                    n + 1
                ));
            };
            let seed = s
                .parse()
                .map_err(|_| format!("golden line {}: bad op seed {s:?}", n + 1))?;
            if map.insert((w.to_owned(), seed), d.to_owned()).is_some() {
                return Err(format!("golden line {}: duplicate entry", n + 1));
            }
        }
        Ok(Self(map))
    }

    /// The recorded digest of `workload`'s op with seed `seed`, if any.
    #[must_use]
    pub fn get(&self, workload: Workload, seed: u64) -> Option<&str> {
        self.0
            .get(&(workload.name().to_owned(), seed))
            .map(String::as_str)
    }

    /// Number of recorded ops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// Checks one op's output: the workload's invariants, then the digest
/// recorded for its op seed. An op seed without a recorded digest fails.
pub fn check_output(
    golden: &Golden,
    workload: Workload,
    seed: u64,
    output: &OpOutput,
) -> Result<(), String> {
    output.invariants.clone()?;
    match golden.get(workload, seed) {
        Some(expected) if expected == output.digest => Ok(()),
        Some(expected) => Err(format!(
            "op seed {seed}: output {:?} differs from the recorded {expected:?}",
            output.digest
        )),
        None => Err(format!("op seed {seed}: no recorded output")),
    }
}

/// A scratch directory under the run's output directory, removed on drop.
#[derive(Debug)]
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// Creates (or empties) `path`.
    pub fn new(path: PathBuf) -> std::io::Result<Self> {
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path)?;
        Ok(Self(path))
    }
}

impl ScratchDir {
    /// Removes `path`, a store under this directory, and syncs the
    /// directory so the filesystem finishes the deletion (journal commit,
    /// block discard) now, outside any timed op, instead of inside the
    /// next op's first `fsync`.
    pub fn remove(&self, path: &Path) {
        let _ = fs::remove_dir_all(path);
        if let Ok(dir) = fs::File::open(&self.0) {
            let _ = dir.sync_all();
        }
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}
