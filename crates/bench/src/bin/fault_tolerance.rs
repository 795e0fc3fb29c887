//! Fault-tolerance sweep: bit-recovery accuracy vs hostile-cloud
//! intensity, for both threat models, driven through the resilient
//! [`Campaign`] runner.
//!
//! Two claims are checked:
//!
//! 1. **Graceful degradation** — as fault intensity rises, more faults
//!    actually land and accuracy falls (or holds), rather than the
//!    campaign crashing: every hostile run completes.
//! 2. **Checkpoint/resume** — interrupting a campaign mid-flight (with a
//!    preemption scheduled *after* the checkpoint) and resuming from the
//!    snapshot reproduces the uninterrupted run's classified bits
//!    bit-for-bit.
//!
//! The rate-0 rows are benign campaigns, i.e. exactly what the
//! threat-model drivers run; the committed artifacts pin them.
//!
//! Artifacts: `fault_tolerance.csv` and `fault_tolerance.json`.

use bench::{exit_by, run_with_thread_arg, save_artifact, ObsSink, ShapeReport, SweepCache};
use bti_physics::{Hours, LogicLevel};
use cloud::{FaultKind, FaultPlan, Provider, ProviderConfig};
use obs::json_f64;
use pentimento::threat_model1::ThreatModel1Config;
use pentimento::threat_model2::ThreatModel2Config;
use pentimento::{Campaign, CampaignConfig, CampaignOutcome, MeasurementMode, Mission};
use rayon::prelude::*;
use tdc::SensorFaultPlan;

const SWEEP_SEED: u64 = 41;
const RATES: [f64; 3] = [0.0, 0.02, 0.08];

fn tm1_config() -> ThreatModel1Config {
    ThreatModel1Config {
        route_lengths_ps: vec![5_000.0, 10_000.0],
        routes_per_length: 4,
        burn_hours: 40,
        measure_every: 5,
        mode: MeasurementMode::Tdc,
        seed: SWEEP_SEED,
        measurement_repeats: 2,
    }
}

fn tm2_config() -> ThreatModel2Config {
    ThreatModel2Config {
        route_lengths_ps: vec![5_000.0, 10_000.0],
        routes_per_length: 4,
        victim_hours: 150,
        attack_hours: 25,
        condition_level: LogicLevel::Zero,
        mode: MeasurementMode::Tdc,
        seed: SWEEP_SEED,
        measurement_repeats: 2,
        victim_hold_and_recover_hours: 0,
    }
}

fn provider() -> Provider {
    Provider::new(ProviderConfig::aws_f1_like(2, SWEEP_SEED))
}

fn campaign_config(rate: f64) -> CampaignConfig {
    let mut config = CampaignConfig::default();
    if rate > 0.0 {
        config.fault_plan = FaultPlan::hostile(SWEEP_SEED, rate);
        config.sensor_faults = SensorFaultPlan::noisy(SWEEP_SEED, rate);
    }
    config
}

/// Everything one sweep cell contributes downstream (table line, CSV and
/// JSON rows, the degradation claim) — the unit the result cache stores. A
/// campaign failure is carried in `error` so a cached cell replays the
/// same attributed check failure a live run would produce.
struct CellOut {
    tm: String,
    rate: f64,
    error: Option<String>,
    bits: u64,
    dprime: f64,
    accuracy: f64,
    mean_confidence: f64,
    abstained: u64,
    reacquisitions: u64,
    rent_retries: u64,
    scrub_reloads: u64,
    dropped_points: u64,
    degraded_points: u64,
    faults_injected: u64,
    truth_bits: u64,
}

impl CellOut {
    fn from_outcome(tm: &str, rate: f64, outcome: &CampaignOutcome) -> Self {
        let s = &outcome.stats;
        let n = outcome.scored.len().max(1);
        Self {
            tm: tm.to_owned(),
            rate,
            error: None,
            bits: outcome.metrics.bits as u64,
            dprime: outcome.metrics.dprime,
            accuracy: outcome.metrics.accuracy,
            mean_confidence: outcome.scored.iter().map(|c| c.confidence).sum::<f64>() / n as f64,
            abstained: s.abstained as u64,
            reacquisitions: u64::from(s.reacquisitions),
            rent_retries: u64::from(s.rent_retries),
            scrub_reloads: u64::from(s.scrub_reloads),
            dropped_points: s.dropped_points as u64,
            degraded_points: s.degraded_points as u64,
            faults_injected: s.faults_injected as u64,
            truth_bits: outcome.truth.len() as u64,
        }
    }

    fn failed(tm: &str, rate: f64, error: String) -> Self {
        Self {
            tm: tm.to_owned(),
            rate,
            error: Some(error.replace('\n', " ")),
            bits: 0,
            dprime: 0.0,
            accuracy: 0.0,
            mean_confidence: 0.0,
            abstained: 0,
            reacquisitions: 0,
            rent_retries: 0,
            scrub_reloads: 0,
            dropped_points: 0,
            degraded_points: 0,
            faults_injected: 0,
            truth_bits: 0,
        }
    }

    fn encode(&self) -> String {
        let mut out = format!("tm={}\nrate={}\n", self.tm, json_f64(self.rate));
        if let Some(error) = &self.error {
            out.push_str(&format!("error={error}\n"));
            return out;
        }
        out.push_str(&format!(
            "bits={}\ndprime={}\naccuracy={}\nmean_confidence={}\nabstained={}\n\
             reacquisitions={}\nrent_retries={}\nscrub_reloads={}\ndropped_points={}\n\
             degraded_points={}\nfaults_injected={}\ntruth_bits={}\n",
            self.bits,
            json_f64(self.dprime),
            json_f64(self.accuracy),
            json_f64(self.mean_confidence),
            self.abstained,
            self.reacquisitions,
            self.rent_retries,
            self.scrub_reloads,
            self.dropped_points,
            self.degraded_points,
            self.faults_injected,
            self.truth_bits,
        ));
        out
    }

    fn decode(s: &str) -> Option<Self> {
        let mut fields = std::collections::BTreeMap::new();
        for line in s.lines() {
            let (name, value) = line.split_once('=')?;
            fields.insert(name, value);
        }
        let tm = (*fields.get("tm")?).to_owned();
        let rate: f64 = fields.get("rate")?.parse().ok()?;
        if let Some(error) = fields.get("error") {
            return Some(Self::failed(&tm, rate, (*error).to_owned()));
        }
        Some(Self {
            tm,
            rate,
            error: None,
            bits: fields.get("bits")?.parse().ok()?,
            dprime: fields.get("dprime")?.parse().ok()?,
            accuracy: fields.get("accuracy")?.parse().ok()?,
            mean_confidence: fields.get("mean_confidence")?.parse().ok()?,
            abstained: fields.get("abstained")?.parse().ok()?,
            reacquisitions: fields.get("reacquisitions")?.parse().ok()?,
            rent_retries: fields.get("rent_retries")?.parse().ok()?,
            scrub_reloads: fields.get("scrub_reloads")?.parse().ok()?,
            dropped_points: fields.get("dropped_points")?.parse().ok()?,
            degraded_points: fields.get("degraded_points")?.parse().ok()?,
            faults_injected: fields.get("faults_injected")?.parse().ok()?,
            truth_bits: fields.get("truth_bits")?.parse().ok()?,
        })
    }

    fn csv(&self) -> String {
        format!(
            "{},{},{},{:.3},{:.4},{:.4},{},{},{},{},{},{},{}",
            self.tm,
            self.rate,
            self.bits,
            self.dprime,
            self.accuracy,
            self.mean_confidence,
            self.abstained,
            self.reacquisitions,
            self.rent_retries,
            self.scrub_reloads,
            self.dropped_points,
            self.degraded_points,
            self.faults_injected,
        )
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"tm\":\"{}\",\"rate\":{},\"bits\":{},\"dprime\":{:.3},",
                "\"accuracy\":{:.4},\"mean_confidence\":{:.4},\"abstained\":{},",
                "\"reacquisitions\":{},\"rent_retries\":{},\"scrub_reloads\":{},",
                "\"dropped_points\":{},\"degraded_points\":{},\"faults_injected\":{}}}"
            ),
            self.tm,
            self.rate,
            self.bits,
            self.dprime,
            self.accuracy,
            self.mean_confidence,
            self.abstained,
            self.reacquisitions,
            self.rent_retries,
            self.scrub_reloads,
            self.dropped_points,
            self.degraded_points,
            self.faults_injected,
        )
    }
}

/// Cached form of the checkpoint/resume scenario (claim 2): the
/// identity verdict plus the numbers the check's observed string prints.
struct ResumeOut {
    completed: bool,
    identical: bool,
    resumed_accuracy: f64,
    reference_accuracy: f64,
    reacquisitions: u64,
    note: String,
}

fn encode_resume(r: &ResumeOut) -> String {
    format!(
        "completed={}\nidentical={}\nresumed_accuracy={}\nreference_accuracy={}\n\
         reacquisitions={}\nnote={}\n",
        r.completed,
        r.identical,
        json_f64(r.resumed_accuracy),
        json_f64(r.reference_accuracy),
        r.reacquisitions,
        r.note.replace('\n', " "),
    )
}

fn decode_resume(s: &str) -> Option<ResumeOut> {
    let mut fields = std::collections::BTreeMap::new();
    for line in s.lines() {
        let (name, value) = line.split_once('=')?;
        fields.insert(name, value);
    }
    Some(ResumeOut {
        completed: fields.get("completed")?.parse().ok()?,
        identical: fields.get("identical")?.parse().ok()?,
        resumed_accuracy: fields.get("resumed_accuracy")?.parse().ok()?,
        reference_accuracy: fields.get("reference_accuracy")?.parse().ok()?,
        reacquisitions: fields.get("reacquisitions")?.parse().ok()?,
        note: (*fields.get("note")?).to_owned(),
    })
}

fn run_campaign(
    mission: Mission,
    rate: f64,
    recorder: Option<std::sync::Arc<obs::Recorder>>,
) -> Result<CampaignOutcome, pentimento::PentimentoError> {
    Campaign::new_observed(provider(), mission, campaign_config(rate), recorder)?.run()
}

fn main() {
    run_with_thread_arg(run);
}

fn run() {
    let mut report = ShapeReport::new();
    let sink = ObsSink::from_args();
    let rec = sink.as_ref().map(ObsSink::recorder);
    let cache = match SweepCache::from_args(rec.clone()) {
        Ok(cache) => cache,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    // ----- Sweep both threat models over the fault-rate grid. -----------
    // The six (rate, model) campaigns are independent simulations; fan
    // them out and merge the results back in grid order. With `--cache`,
    // each cell is keyed by its full mission + campaign config and a hit
    // replays the stored cell instead of simulating.
    println!("Fault-tolerance sweep: rates {RATES:?}, TM1 and TM2, TDC sensing");
    let grid: Vec<(f64, &'static str, Mission)> = RATES
        .iter()
        .flat_map(|&rate| {
            [
                (rate, "tm1", Mission::ThreatModel1(tm1_config())),
                (rate, "tm2", Mission::ThreatModel2(tm2_config())),
            ]
        })
        .collect();
    let cells: Vec<CellOut> = grid
        .into_par_iter()
        .map(|(rate, tm, mission)| {
            let compute = || match run_campaign(mission.clone(), rate, rec.clone()) {
                Ok(outcome) => CellOut::from_outcome(tm, rate, &outcome),
                Err(e) => CellOut::failed(tm, rate, e.to_string()),
            };
            match cache.as_ref() {
                Some(cache) => {
                    let mission_dbg = format!("{mission:?}");
                    let campaign_dbg = format!("{:?}", campaign_config(rate));
                    let rate_s = json_f64(rate);
                    let seed_s = SWEEP_SEED.to_string();
                    cache.cell(
                        &format!("fault_{tm}_rate{rate_s}"),
                        &[
                            ("bin", "fault_tolerance"),
                            ("tm", tm),
                            ("rate", &rate_s),
                            ("mission", &mission_dbg),
                            ("campaign_config", &campaign_dbg),
                            ("seed", &seed_s),
                        ],
                        compute,
                        CellOut::encode,
                        CellOut::decode,
                    )
                }
                None => compute(),
            }
        })
        .collect();
    let mut rows: Vec<&CellOut> = Vec::new();
    for cell in &cells {
        match &cell.error {
            None => {
                println!(
                    "  {} rate {}: accuracy {:.3}, mean confidence {:.3}, \
                     {} abstained, {} reacquisitions, {} faults injected",
                    cell.tm,
                    cell.rate,
                    cell.accuracy,
                    cell.mean_confidence,
                    cell.abstained,
                    cell.reacquisitions,
                    cell.faults_injected,
                );
                rows.push(cell);
            }
            Some(e) => {
                report.check(
                    format!("{} campaign completes at rate {}", cell.tm, cell.rate),
                    false,
                    format!("failed: {e}"),
                );
            }
        }
    }
    report.check(
        "every campaign in the sweep completed",
        rows.len() == RATES.len() * 2,
        format!("{} of {} completed", rows.len(), RATES.len() * 2),
    );

    let find = |tm: &str, rate: f64| rows.iter().find(|r| r.tm == tm && r.rate == rate);
    // ----- Claim 1: graceful (monotonic-ish) degradation. ---------------
    for tm in ["tm1", "tm2"] {
        let acc: Vec<f64> = RATES
            .iter()
            .filter_map(|&r| find(tm, r).map(|row| row.accuracy))
            .collect();
        let faults: Vec<u64> = RATES
            .iter()
            .filter_map(|&r| find(tm, r).map(|row| row.faults_injected))
            .collect();
        if acc.len() == RATES.len() {
            // One-bit slack: tiny configs quantize accuracy in 1/8 steps.
            let slack = 1.0 / f64::from(u32::try_from(rows[0].truth_bits).unwrap_or(8));
            report.check(
                format!("{tm} accuracy degrades monotonically (±1 bit) with fault rate"),
                acc.windows(2).all(|w| w[1] <= w[0] + slack),
                format!("accuracy by rate: {acc:?}"),
            );
            report.check(
                format!("{tm} fault injections strictly increase with the configured rate"),
                faults.windows(2).all(|w| w[1] > w[0]),
                format!("faults injected by rate: {faults:?}"),
            );
        }
    }

    // ----- Claim 2: checkpoint/resume is bit-identical. -----------------
    // A preemption is scheduled after the checkpoint hour, so the resumed
    // campaign must also replay the fault and its recovery. The whole
    // scenario (reference + interrupt + resume + identity verdict) is one
    // cache cell.
    let interrupted_config = || {
        let mut config = campaign_config(0.02);
        config.fault_plan = config
            .fault_plan
            .clone()
            .with_scheduled(Hours::new(30.0), FaultKind::Preemption);
        config
    };
    let run_resume_scenario = || {
        let reference = Campaign::new(
            provider(),
            Mission::ThreatModel1(tm1_config()),
            interrupted_config(),
        )
        .and_then(|mut c| c.run());
        let resumed = Campaign::new(
            provider(),
            Mission::ThreatModel1(tm1_config()),
            interrupted_config(),
        )
        .and_then(|mut campaign| {
            for _ in 0..20 {
                campaign.step()?;
            }
            let checkpoint = campaign.checkpoint();
            drop(campaign); // the original process "dies" here
            Campaign::resume(checkpoint)
        })
        .and_then(|mut c| c.run());
        match (reference, resumed) {
            (Ok(reference), Ok(resumed)) => ResumeOut {
                completed: true,
                identical: resumed.recovered == reference.recovered
                    && resumed.series == reference.series,
                resumed_accuracy: resumed.metrics.accuracy,
                reference_accuracy: reference.metrics.accuracy,
                reacquisitions: u64::from(resumed.stats.reacquisitions),
                note: String::new(),
            },
            (r, s) => ResumeOut {
                completed: false,
                identical: false,
                resumed_accuracy: 0.0,
                reference_accuracy: 0.0,
                reacquisitions: 0,
                note: format!(
                    "uninterrupted: {}, resumed: {}",
                    r.map(|_| "ok".to_owned()).unwrap_or_else(|e| e.to_string()),
                    s.map(|_| "ok".to_owned()).unwrap_or_else(|e| e.to_string()),
                ),
            },
        }
    };
    let resume = match cache.as_ref() {
        Some(cache) => {
            let config_dbg = format!("{:?}", interrupted_config());
            cache.cell(
                "fault_resume",
                &[
                    ("bin", "fault_tolerance"),
                    ("scenario", "checkpoint_resume"),
                    ("config", &config_dbg),
                ],
                run_resume_scenario,
                encode_resume,
                decode_resume,
            )
        }
        None => run_resume_scenario(),
    };
    if resume.completed {
        report.check(
            "mid-campaign checkpoint + resume reproduces the uninterrupted bits",
            resume.identical,
            format!(
                "resumed accuracy {:.4} vs uninterrupted {:.4}, \
                 {} reacquisition(s) replayed",
                resume.resumed_accuracy, resume.reference_accuracy, resume.reacquisitions
            ),
        );
    } else {
        report.check("checkpoint/resume scenario completes", false, resume.note);
    }

    // ----- Artifacts. ---------------------------------------------------
    let mut csv = String::from(
        "tm,rate,bits,dprime,accuracy,mean_confidence,abstained,reacquisitions,\
         rent_retries,scrub_reloads,dropped_points,degraded_points,faults_injected\n",
    );
    for row in &rows {
        csv.push_str(&row.csv());
        csv.push('\n');
    }
    let json = format!(
        "{{\"seed\":{SWEEP_SEED},\"rates\":{RATES:?},\"rows\":[{}]}}",
        rows.iter().map(|r| r.json()).collect::<Vec<_>>().join(",")
    );
    if let Ok(path) = save_artifact("fault_tolerance.csv", &csv) {
        println!("wrote {}", path.display());
    }
    if let Ok(path) = save_artifact("fault_tolerance.json", &json) {
        println!("wrote {}", path.display());
    }
    if let Some(cache) = &cache {
        cache.finish(&mut report);
    }
    if let Some(sink) = &sink {
        report.check(
            "observability artifacts written",
            sink.finish().is_ok(),
            "trace/metrics flags",
        );
    }

    exit_by(report.finish());
}
