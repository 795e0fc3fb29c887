//! Parallel-sweep scaling: wall-clock and bit-identity of the
//! deterministic parallel execution engine across worker-pool widths.
//!
//! The engine derives every sensor read from a counter-based per-route
//! stream (`tdc::stream_seed`), so the *same* TM1 accuracy sweep must
//! produce byte-identical series at every thread count — parallelism is
//! purely a wall-clock lever. This binary checks both halves of that
//! claim:
//!
//! 1. **Identity** (unconditional): every pool width reproduces the
//!    1-thread reference bit-for-bit.
//! 2. **Speedup** (hardware-gated): on a host with >= 4 hardware
//!    threads, the 4-thread sweep must run >= 2x faster than serial.
//!    On smaller hosts the measured numbers are still recorded, but the
//!    check passes informationally — a 1-core container cannot speed
//!    anything up.
//!
//! Flags: `--threads N` caps the widest pool swept (default 4);
//! `--smoke` shrinks the workload and sweeps only {1, 2} for CI.
//!
//! Artifact: `BENCH_parallel.json` (per-width seconds, route-points/sec,
//! speedup vs serial, identity verdicts).

use std::sync::Arc;
use std::time::Instant;

use bench::{exit_by, save_artifact, threads_from_args, ObsSink, ShapeReport};
use cloud::{Provider, ProviderConfig};
use obs::Recorder;
use pentimento::threat_model1::{self, ThreatModel1Config, ThreatModel1Outcome};
use pentimento::MeasurementMode;

const SEED: u64 = 700;

fn workload_config(smoke: bool) -> ThreatModel1Config {
    if smoke {
        ThreatModel1Config {
            route_lengths_ps: vec![5_000.0, 10_000.0],
            routes_per_length: 4,
            burn_hours: 20,
            measure_every: 1,
            mode: MeasurementMode::Tdc,
            seed: SEED,
            measurement_repeats: 2,
        }
    } else {
        ThreatModel1Config {
            route_lengths_ps: vec![1_000.0, 2_000.0, 5_000.0, 10_000.0],
            routes_per_length: 8,
            burn_hours: 60,
            measure_every: 1,
            mode: MeasurementMode::Tdc,
            seed: SEED,
            measurement_repeats: 4,
        }
    }
}

/// One full TM1 accuracy sweep on a pool of `threads` workers.
fn run_at(
    threads: usize,
    config: &ThreatModel1Config,
    rec: Option<&Arc<Recorder>>,
) -> (ThreatModel1Outcome, f64) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    let start = Instant::now();
    let outcome = pool.install(|| {
        let mut provider = Provider::new(ProviderConfig::aws_f1_like(1, SEED));
        provider.set_recorder(rec.map(Arc::clone));
        threat_model1::run(&mut provider, config).expect("attack completes")
    });
    (outcome, start.elapsed().as_secs_f64())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let max_threads = threads_from_args().unwrap_or(4).max(1);
    let hardware_threads = std::thread::available_parallelism().map_or(1, usize::from);

    let sink = ObsSink::from_args();
    let rec = sink.as_ref().map(ObsSink::recorder);
    let config = workload_config(smoke);
    let mut widths = vec![1usize];
    let mut w = 2;
    while w <= max_threads {
        widths.push(w);
        w *= 2;
    }
    if smoke {
        widths.truncate(2);
    }

    println!(
        "Parallel scaling: TM1 accuracy sweep ({} routes x {} phases, repeats {}), widths {widths:?}, {hardware_threads} hardware thread(s)",
        config.route_lengths_ps.len() * config.routes_per_length,
        config.burn_hours + 1,
        config.measurement_repeats,
    );

    let (reference, serial_s) = run_at(1, &config, rec.as_ref());
    let route_points = reference.series.len()
        * reference
            .series
            .iter()
            .map(|s| s.hours.len())
            .max()
            .unwrap_or(0);
    println!(
        "  serial reference: {serial_s:.3} s ({:.0} route-points/s)",
        route_points as f64 / serial_s.max(1e-9)
    );

    let mut report = ShapeReport::new();
    let mut rows = Vec::new();
    let mut all_identical = true;
    let mut speedup_at_max = 1.0;
    for &threads in &widths {
        let (outcome, seconds) = run_at(threads, &config, rec.as_ref());
        let identical = outcome.series == reference.series
            && outcome.recovered == reference.recovered
            && outcome.truth == reference.truth;
        all_identical &= identical;
        let speedup = serial_s / seconds.max(1e-9);
        if threads == *widths.last().expect("non-empty") {
            speedup_at_max = speedup;
        }
        println!(
            "  {threads:>2} thread(s): {seconds:.3} s, {:.0} route-points/s, speedup x{speedup:.2}, identical: {identical}",
            route_points as f64 / seconds.max(1e-9)
        );
        rows.push(format!(
            concat!(
                "{{\"threads\":{},\"seconds\":{:.6},\"routes_per_sec\":{:.1},",
                "\"speedup\":{:.3},\"identical\":{}}}"
            ),
            threads,
            seconds,
            route_points as f64 / seconds.max(1e-9),
            speedup,
            identical
        ));
    }

    report.check(
        "every pool width reproduces the serial sweep bit-for-bit",
        all_identical,
        format!("widths {widths:?}"),
    );
    if smoke {
        // CI smoke: identity is the contract; scaling needs real cores.
        println!("  (smoke mode: speedup check skipped)");
    } else if hardware_threads >= 4 {
        report.check(
            "4-thread sweep is >= 2x faster than serial",
            speedup_at_max >= 2.0,
            format!("x{speedup_at_max:.2} at {} threads", widths.last().unwrap()),
        );
    } else {
        println!(
            "  ({hardware_threads} hardware thread(s): speedup check passes informationally, measured x{speedup_at_max:.2})"
        );
        report.check(
            "speedup recorded (host has < 4 hardware threads; not gated)",
            true,
            format!("x{speedup_at_max:.2}"),
        );
    }

    let json = format!(
        concat!(
            "{{\"workload\":\"tm1_accuracy_sweep\",\"smoke\":{},\"seed\":{},",
            "\"routes\":{},\"route_points\":{},\"hardware_threads\":{},",
            "\"serial_seconds\":{:.6},\"rows\":[{}]}}"
        ),
        smoke,
        SEED,
        reference.series.len(),
        route_points,
        hardware_threads,
        serial_s,
        rows.join(",")
    );
    if let Ok(path) = save_artifact("BENCH_parallel.json", &json) {
        println!("wrote {}", path.display());
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
