//! Attack-accuracy sweep (Section 6 narrative claims, quantified):
//! bit-recovery accuracy per route length and burn duration for both
//! threat models, through the full TDC pipeline on aged cloud devices.

use bench::{
    exit_by, run_with_thread_arg, save_artifact, smoke_from_args, tm1_end_to_end_config, ObsSink,
    ShapeReport, SweepCache,
};
use bti_physics::LogicLevel;
use cloud::{Provider, ProviderConfig};
use obs::json_f64;
use pentimento::threat_model1::{self, ThreatModel1Config};
use pentimento::threat_model2::{self, ThreatModel2Config};
use pentimento::{MeasurementMode, RouteSeries};
use rayon::prelude::*;

fn per_length_accuracy(
    series: &[RouteSeries],
    recovered: &[LogicLevel],
    target: f64,
) -> (usize, usize) {
    let mut correct = 0;
    let mut total = 0;
    for (s, r) in series.iter().zip(recovered) {
        if s.target_ps == target {
            total += 1;
            if s.burn_value == *r {
                correct += 1;
            }
        }
    }
    (correct, total)
}

/// Everything one TM1 sweep point contributes downstream (table row, CSV
/// rows, the 200 h claim) — the unit the result cache stores, so a hit
/// skips the whole simulated burn.
struct Tm1Cell {
    burn_hours: usize,
    per_len: Vec<(f64, usize, usize)>,
    accuracy: f64,
}

/// TM2 analogue of [`Tm1Cell`], plus the long-route tally the 200 h
/// claim reads.
struct Tm2Cell {
    victim_hours: usize,
    per_len: Vec<(f64, usize, usize)>,
    accuracy: f64,
    long_correct: usize,
    long_total: usize,
}

// Cell artifacts are deterministic k=v lines; floats go through
// `json_f64` (shortest roundtrip), so encode∘decode is the identity and
// a verified hit is byte-identical by construction.

fn encode_tm1(cell: &Tm1Cell) -> String {
    let mut out = format!("burn_hours={}\n", cell.burn_hours);
    for (target, c, t) in &cell.per_len {
        out.push_str(&format!("len={} c={c} t={t}\n", json_f64(*target)));
    }
    out.push_str(&format!("accuracy={}\n", json_f64(cell.accuracy)));
    out
}

fn decode_tm1(s: &str) -> Option<Tm1Cell> {
    let mut burn_hours = None;
    let mut per_len = Vec::new();
    let mut accuracy = None;
    for line in s.lines() {
        let (name, value) = line.split_once('=')?;
        match name {
            "burn_hours" => burn_hours = Some(value.parse().ok()?),
            "len" => {
                let mut f = value.split(' ');
                let target: f64 = f.next()?.parse().ok()?;
                let c: usize = f.next()?.strip_prefix("c=")?.parse().ok()?;
                let t: usize = f.next()?.strip_prefix("t=")?.parse().ok()?;
                per_len.push((target, c, t));
            }
            "accuracy" => accuracy = Some(value.parse().ok()?),
            _ => return None,
        }
    }
    Some(Tm1Cell {
        burn_hours: burn_hours?,
        per_len,
        accuracy: accuracy?,
    })
}

fn encode_tm2(cell: &Tm2Cell) -> String {
    let mut out = format!("victim_hours={}\n", cell.victim_hours);
    for (target, c, t) in &cell.per_len {
        out.push_str(&format!("len={} c={c} t={t}\n", json_f64(*target)));
    }
    out.push_str(&format!("accuracy={}\n", json_f64(cell.accuracy)));
    out.push_str(&format!("long={} {}\n", cell.long_correct, cell.long_total));
    out
}

fn decode_tm2(s: &str) -> Option<Tm2Cell> {
    let mut victim_hours = None;
    let mut per_len = Vec::new();
    let mut accuracy = None;
    let mut long = None;
    for line in s.lines() {
        let (name, value) = line.split_once('=')?;
        match name {
            "victim_hours" => victim_hours = Some(value.parse().ok()?),
            "len" => {
                let mut f = value.split(' ');
                let target: f64 = f.next()?.parse().ok()?;
                let c: usize = f.next()?.strip_prefix("c=")?.parse().ok()?;
                let t: usize = f.next()?.strip_prefix("t=")?.parse().ok()?;
                per_len.push((target, c, t));
            }
            "accuracy" => accuracy = Some(value.parse().ok()?),
            "long" => {
                let (c, t) = value.split_once(' ')?;
                long = Some((c.parse().ok()?, t.parse().ok()?));
            }
            _ => return None,
        }
    }
    let (long_correct, long_total) = long?;
    Some(Tm2Cell {
        victim_hours: victim_hours?,
        per_len,
        accuracy: accuracy?,
        long_correct,
        long_total,
    })
}

fn main() {
    run_with_thread_arg(run);
}

fn run() {
    // `--smoke` shrinks the sweep to the shared CI workload (one burn
    // point, fewer routes/repeats) — the same point `kernel_bench` times
    // reference-vs-fast, so its wall-clock rows describe this run.
    let smoke = smoke_from_args();
    // `--trace` / `--metrics` attach one shared recorder to every sweep
    // point; the content-ordered drain keeps the trace deterministic even
    // though the sweep fans out.
    let sink = ObsSink::from_args();
    let rec = sink.as_ref().map(ObsSink::recorder);
    // `--cache DIR` keys each sweep point by its full config + seed and
    // replays the stored cell artifact on a hit (`--threads` is not part
    // of the key: cells are width-invariant).
    let cache = match SweepCache::from_args(rec.clone()) {
        Ok(cache) => cache,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let lengths = [1_000.0, 2_000.0, 5_000.0, 10_000.0];
    let mut csv = String::from("model,burn_hours,target_ps,correct,total,accuracy\n");
    let mut report = ShapeReport::new();

    println!("Threat Model 1 (drift classification, TDC, aged cloud device)");
    println!(
        "{:>10} | {:>9} {:>9} {:>9} {:>9} | {:>7}",
        "burn h", "1000", "2000", "5000", "10000", "overall"
    );
    // Each sweep point owns its provider and seed; fan them out and merge
    // the rows back in sweep order.
    let tm1_burns: Vec<usize> = if smoke { vec![50] } else { vec![50, 100, 200] };
    let tm1_cells: Vec<Tm1Cell> = tm1_burns
        .into_par_iter()
        .map(|burn_hours| {
            let seed = 500 + burn_hours as u64;
            let config = if smoke {
                tm1_end_to_end_config(seed)
            } else {
                ThreatModel1Config {
                    route_lengths_ps: lengths.to_vec(),
                    routes_per_length: 8,
                    burn_hours,
                    measure_every: 1,
                    mode: MeasurementMode::Tdc,
                    seed,
                    measurement_repeats: 4,
                }
            };
            let compute = || {
                let mut provider = Provider::new(ProviderConfig::aws_f1_like(1, seed));
                provider.set_recorder(rec.clone());
                let outcome = threat_model1::run(&mut provider, &config).expect("attack completes");
                let per_len = lengths
                    .iter()
                    .map(|&target| {
                        let (c, t) =
                            per_length_accuracy(&outcome.series, &outcome.recovered, target);
                        (target, c, t)
                    })
                    .collect();
                Tm1Cell {
                    burn_hours,
                    per_len,
                    accuracy: outcome.metrics.accuracy,
                }
            };
            match cache.as_ref() {
                Some(cache) => {
                    let config_dbg = format!("{config:?}");
                    let seed_s = seed.to_string();
                    cache.cell(
                        &format!("attack_tm1_burn{burn_hours}"),
                        &[
                            ("bin", "attack_accuracy"),
                            ("model", "tm1"),
                            ("config", &config_dbg),
                            ("seed", &seed_s),
                        ],
                        compute,
                        encode_tm1,
                        decode_tm1,
                    )
                }
                None => compute(),
            }
        })
        .collect();
    let mut tm1_200h_overall = 0.0;
    for cell in tm1_cells {
        let burn_hours = cell.burn_hours;
        let mut row = format!("{burn_hours:>10} |");
        for (target, c, t) in cell.per_len {
            row.push_str(&format!(" {:>7.0}%{}", 100.0 * c as f64 / t as f64, " "));
            csv.push_str(&format!(
                "tm1,{burn_hours},{target},{c},{t},{:.4}\n",
                c as f64 / t as f64
            ));
        }
        row.push_str(&format!("| {:>6.1}%", cell.accuracy * 100.0));
        println!("{row}");
        if burn_hours == 200 {
            tm1_200h_overall = cell.accuracy;
        }
    }

    println!("\nThreat Model 2 (recovery classification, TDC, aged cloud device)");
    println!(
        "{:>10} | {:>9} {:>9} {:>9} {:>9} | {:>7}",
        "burn h", "1000", "2000", "5000", "10000", "overall"
    );
    let tm2_victims: Vec<usize> = if smoke { vec![100] } else { vec![100, 200] };
    let tm2_cells: Vec<Tm2Cell> = tm2_victims
        .into_par_iter()
        .map(|victim_hours| {
            let seed = 900 + victim_hours as u64;
            let config = ThreatModel2Config {
                route_lengths_ps: lengths.to_vec(),
                routes_per_length: if smoke { 4 } else { 8 },
                victim_hours,
                attack_hours: 25,
                condition_level: LogicLevel::Zero,
                mode: MeasurementMode::Tdc,
                seed,
                measurement_repeats: if smoke { 4 } else { 8 },
                victim_hold_and_recover_hours: 0,
            };
            let compute = || {
                let mut provider = Provider::new(ProviderConfig::aws_f1_like(2, seed));
                provider.set_recorder(rec.clone());
                let outcome = threat_model2::run(&mut provider, &config).expect("attack completes");
                let mut long_correct = 0;
                let mut long_total = 0;
                let per_len = lengths
                    .iter()
                    .map(|&target| {
                        let (c, t) =
                            per_length_accuracy(&outcome.series, &outcome.recovered, target);
                        if target >= 5_000.0 {
                            long_correct += c;
                            long_total += t;
                        }
                        (target, c, t)
                    })
                    .collect();
                Tm2Cell {
                    victim_hours,
                    per_len,
                    accuracy: outcome.metrics.accuracy,
                    long_correct,
                    long_total,
                }
            };
            match cache.as_ref() {
                Some(cache) => {
                    let config_dbg = format!("{config:?}");
                    let seed_s = seed.to_string();
                    cache.cell(
                        &format!("attack_tm2_victim{victim_hours}"),
                        &[
                            ("bin", "attack_accuracy"),
                            ("model", "tm2"),
                            ("config", &config_dbg),
                            ("seed", &seed_s),
                        ],
                        compute,
                        encode_tm2,
                        decode_tm2,
                    )
                }
                None => compute(),
            }
        })
        .collect();
    let mut tm2_200h_long = 0.0;
    for cell in tm2_cells {
        let victim_hours = cell.victim_hours;
        let mut row = format!("{victim_hours:>10} |");
        for (target, c, t) in cell.per_len {
            row.push_str(&format!(" {:>7.0}%{}", 100.0 * c as f64 / t as f64, " "));
            csv.push_str(&format!(
                "tm2,{victim_hours},{target},{c},{t},{:.4}\n",
                c as f64 / t as f64
            ));
        }
        row.push_str(&format!("| {:>6.1}%", cell.accuracy * 100.0));
        println!("{row}");
        if victim_hours == 200 {
            tm2_200h_long = cell.long_correct as f64 / cell.long_total as f64;
        }
    }

    if smoke {
        // The 200 h sweep points the paper-shape gates need do not run
        // in smoke mode; completion is the contract here.
        report.check(
            "smoke sweep completed (200 h paper-shape gates need the full sweep)",
            true,
            "smoke workload",
        );
    } else {
        report.check(
            "TM1 after 200 h recovers the full secret (>= 95% overall)",
            tm1_200h_overall >= 0.95,
            format!("{:.1}%", tm1_200h_overall * 100.0),
        );
        report.check(
            "TM2 after 200 h recovers long-route (>=5000 ps) bits (>= 85%)",
            tm2_200h_long >= 0.85,
            format!("{:.1}%", tm2_200h_long * 100.0),
        );
    }
    if let Ok(path) = save_artifact("attack_accuracy.csv", &csv) {
        println!("\nwrote {}", path.display());
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
