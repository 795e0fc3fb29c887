//! `perfbench`: the repository's outside-in benchmark.
//!
//! ```text
//! perfbench --workload <tm1_cloud|tm2_flash|fleet_chaos> --seed N --seconds S --trace 0|1
//! perfbench --workload W --seed 0 --record N       # print golden lines for op seeds 0..N
//! perfbench --workload W --seed N --cold-setup 1   # time one cold set-up (started by the run)
//! ```
//!
//! Each workload runs as a closed loop: one op in flight, from this one
//! process, on a worker pool as wide as the machine's available
//! parallelism. With `--trace 0` every op is timed untraced and checked,
//! and the end-to-end metrics are printed. With `--trace 1` every op is
//! also replayed through the layers' public calls with spans around them;
//! the replay must reproduce the op's outputs byte for byte, and the
//! spans give the per-layer metrics. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `perfbench/README.md` for the metric definitions.

mod cpu;
mod reference;
mod replay;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use crate::replay::{probe_commit_batch, probe_tm, replay_tm1, replay_tm2, TmCounts, TmProbe};
use crate::stats::{median, parse_args, percentile, valid_name, Args};
use crate::trace::Tracer;
use crate::workloads::{
    check_output, dir_bytes, fleet_op, op_seed, tm1_op, tm2_op, BoxError, FleetDetail, Golden,
    Inputs, OpOutput, ScratchDir, Workload,
};

/// Cold set-ups per run, each in a fresh process; `setup_s` is their
/// median. A `fleet_chaos` set-up takes about 0.1 s, a few dozen timer
/// ticks, so the kernel's split of it into user and system time is
/// coarse; it takes more of them.
fn setup_reps(workload: Workload) -> usize {
    match workload {
        Workload::Tm1Cloud | Workload::Tm2Flash => 3,
        Workload::FleetChaos => 9,
    }
}
/// Measured ops `bit_accuracy` averages over. The loop always completes
/// at least this many, so the figure depends on the seed alone; 20 ops
/// (320 bits on a TM workload) keep its spread across seeds near 6%.
const ACCURACY_OPS: u64 = 20;
/// The reference speed: the user CPU seconds one run of the reference
/// kernel on the pool's width counts as, about what a two-thread run took
/// on the 2-vCPU VM the README's figures come from. Gated timings are CPU time over the
/// kernel's, times this, so they read as seconds at that speed.
const REF_S: f64 = 0.056;
/// Outputs recorded for known op seeds.
const GOLDEN: &str = include_str!("../golden.tsv");
/// Run artifacts (span dumps, scratch checkpoint stores), relative to the
/// working directory.
const OUT_DIR: &str = ".perfbench_out";

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::parse(&args.workload) else {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (want one of {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    let width = std::thread::available_parallelism().map_or(1, usize::from);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("the vendored pool builder is infallible");
    match pool.install(|| run(workload, &args, width)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Where a count comes from, or what a timing is, for the table.
    note: &'static str,
}

const COMPUTED: &str = "count, computed from the benchmark's own calls";
const PROGRAM: &str = "count, read from a program counter";
const TIMED: &str = "host time";
const REF_CPU: &str = "user CPU time at reference speed";
const SAMPLED: &str = "host time, sampled probe";

fn metric(name: &'static str, value: f64, unit: &'static str, note: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note,
    }
}

/// Tally of ops run and ops that failed their check.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what}: {e}");
                false
            }
        }
    }
}

/// Host time of one span of work: wall seconds, and the process's user
/// and system CPU seconds.
#[derive(Debug, Clone, Copy)]
struct Timing {
    wall_s: f64,
    user_s: f64,
    sys_s: f64,
}

/// A started [`Timing`].
struct Started(Instant, (f64, f64));

impl Timing {
    fn start() -> Started {
        Started(Instant::now(), cpu::process_times_s())
    }
}

impl Started {
    fn elapsed(&self) -> Timing {
        let (user, sys) = cpu::process_times_s();
        Timing {
            wall_s: self.0.elapsed().as_secs_f64(),
            user_s: user - self.1 .0,
            sys_s: sys - self.1 .1,
        }
    }
}

/// The run's context: workload, seeds, golden outputs, scratch space.
struct Bench {
    workload: Workload,
    seed: u64,
    golden: Golden,
    inputs: Inputs,
    scratch: ScratchDir,
}

impl Bench {
    fn store(&self, index: u64) -> PathBuf {
        self.scratch.0.join(format!("store-{index}"))
    }

    /// Runs op `index` untraced, returning its output and host seconds.
    fn op(&self, index: u64) -> (Result<OpOutput, BoxError>, Timing) {
        self.op_with_seed(index, op_seed(self.seed, index))
    }

    /// Runs op `index` untraced on op seed `seed`.
    fn op_with_seed(&self, index: u64, seed: u64) -> (Result<OpOutput, BoxError>, Timing) {
        let store = self.store(index);
        let started = Timing::start();
        let output = match (self.workload, &self.inputs) {
            (Workload::Tm1Cloud, _) => tm1_op(seed),
            (Workload::Tm2Flash, _) => tm2_op(seed),
            (Workload::FleetChaos, Inputs::Fleet(winners)) => {
                fleet_op(winners, seed, &store, None).map(|(output, _)| output)
            }
            (Workload::FleetChaos, Inputs::Tm) => Err("fleet inputs missing".into()),
        };
        let elapsed = started.elapsed();
        self.scratch.remove(&store);
        (output, elapsed)
    }

    /// The output check: the workload's invariants and the recorded digest.
    fn check(&self, index: u64, output: &Result<OpOutput, BoxError>) -> Result<(), String> {
        let output = output
            .as_ref()
            .map_err(|e| format!("op {index} failed: {e}"))?;
        check_output(
            &self.golden,
            self.workload,
            op_seed(self.seed, index),
            output,
        )
        .map_err(|e| format!("op {index}: {e}"))
    }
}

fn run(workload: Workload, args: &Args, width: usize) -> Result<(), BoxError> {
    let golden = Golden::parse(GOLDEN)?;
    let out_dir = Path::new(OUT_DIR);
    let scratch = ScratchDir::new(out_dir.join(format!("scratch-{}", std::process::id())))?;
    let mut bench = Bench {
        workload,
        seed: args.seed,
        golden,
        inputs: Inputs::Tm,
        scratch,
    };
    if args.cold_setup {
        let mut tally = Tally::default();
        let t = setup(&mut bench, &mut tally);
        if tally.failed > 0 {
            return Err("cold set-up failed its output check".into());
        }
        // Read the peak before the reference kernel adds its own pages.
        let peak_kb = peak_rss_kb()?;
        // The kernel's first run pages in its code and buffers, untimed.
        reference::run(width)?;
        let ref_s = (reference::run(width)? + reference::run(width)?) / 2.0;
        println!(
            "cold-setup {} {} {} {peak_kb} {ref_s}",
            t.user_s, t.sys_s, t.wall_s,
        );
        return Ok(());
    }
    if let Some(ops) = args.record {
        bench.inputs = Inputs::build(workload);
        for seed in 0..ops {
            let (output, _) = bench.op_with_seed(seed, seed);
            let output = output?;
            output.invariants.clone()?;
            println!("{}\t{seed}\t{}", workload.name(), output.digest);
        }
        return Ok(());
    }
    println!(
        "perfbench: workload {} seed {} for {} s, pool width {width}, {} recorded outputs",
        workload.name(),
        args.seed,
        args.seconds,
        bench.golden.len()
    );
    let mut tally = Tally::default();
    let deadline_after = Duration::from_secs(args.seconds);
    let metrics = if args.trace {
        traced(&mut bench, &mut tally, deadline_after, width, out_dir)?
    } else {
        untraced(&mut bench, &mut tally, deadline_after, width)?
    };
    report(&metrics, &tally)
}

/// Set-up: build the inputs and run the warm-up op 0. Returns its host
/// time, which is the cold set-up time in a fresh process.
fn setup(bench: &mut Bench, tally: &mut Tally) -> Timing {
    let started = Timing::start();
    bench.inputs = Inputs::build(bench.workload);
    let (output, _) = bench.op(0);
    let elapsed = started.elapsed();
    tally.record("set-up", bench.check(0, &output));
    elapsed
}

/// A cold set-up in a fresh process: its host time, the process's peak
/// resident set (VmHWM) in kB, and the reference kernel's user CPU
/// seconds in that process right after it.
struct ColdSetup {
    time: Timing,
    peak_kb: f64,
    ref_s: f64,
}

/// Times `reps` cold set-ups of `bench`'s workload and seed, each in a
/// fresh process running this program with `--cold-setup 1`, one after
/// the other. A process that fails or fails its check counts in `tally`.
fn cold_setups(bench: &Bench, tally: &mut Tally, reps: usize) -> Result<Vec<ColdSetup>, BoxError> {
    let exe = std::env::current_exe()?;
    let mut setups = Vec::with_capacity(reps);
    for _ in 0..reps {
        let child = Command::new(&exe)
            .args(["--workload", bench.workload.name(), "--cold-setup", "1"])
            .args(["--seed", &bench.seed.to_string()])
            .output()?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let parsed = stdout.lines().last().and_then(|line| {
            let mut fields = line.strip_prefix("cold-setup ")?.split(' ');
            let mut next = || fields.next()?.parse::<f64>().ok();
            let time = Timing {
                user_s: next()?,
                sys_s: next()?,
                wall_s: next()?,
            };
            Some(ColdSetup {
                time,
                peak_kb: next()?,
                ref_s: next()?,
            })
        });
        let result = match (child.status.success(), parsed) {
            (true, Some(t)) => {
                setups.push(t);
                Ok(())
            }
            _ => Err(format!(
                "cold set-up process exited with {}: {}",
                child.status,
                String::from_utf8_lossy(&child.stderr).trim()
            )),
        };
        tally.record("set-up", result);
    }
    Ok(setups)
}

/// Median, p90 and minimum of `values` in `unit`, printed with their
/// sample counts. Returns the median.
fn print_spread(what: &str, unit: &str, values: &[f64]) -> Result<f64, BoxError> {
    let p50 = percentile(values, 0.5).ok_or("no measured ops")?;
    let p90 = percentile(values, 0.9).ok_or("no measured ops")?;
    let min = percentile(values, 0.0).ok_or("no measured ops")?;
    println!(
        "{what}: p50 {:.6} {unit} over {} ops; p90 {:.6} {unit} (information only: {} samples beyond it); min {:.6} {unit}",
        p50.value, p50.samples, p90.value, p90.beyond, min.value
    );
    Ok(p50.value)
}

fn untraced(
    bench: &mut Bench,
    tally: &mut Tally,
    window: Duration,
    width: usize,
) -> Result<Vec<Metric>, BoxError> {
    let cold = cold_setups(bench, tally, setup_reps(bench.workload))?;
    setup(bench, tally);
    reference::run(width)?;
    let mut ref_before = reference::run(width)?;
    let started = Instant::now();
    let mut times = Vec::new();
    let mut ref_costs = Vec::new();
    let mut accuracies = Vec::new();
    let mut campaigns = 0usize;
    let mut index = 1;
    while index <= ACCURACY_OPS || started.elapsed() < window {
        let (output, elapsed) = bench.op(index);
        let ref_after = reference::run(width)?;
        times.push(elapsed);
        // The op's user CPU time at the reference speed: scaled by the
        // reference kernel's runs just before and just after it.
        ref_costs.push(elapsed.user_s / ((ref_before + ref_after) / 2.0) * REF_S);
        ref_before = ref_after;
        let check = bench.check(index, &output);
        if let (true, Ok(output)) = (tally.record("op", check), &output) {
            campaigns += output.campaigns;
            if index <= ACCURACY_OPS {
                accuracies.push(output.accuracy);
            }
        }
        index += 1;
    }
    // Gated timings are user CPU time at the reference speed. On a shared
    // VM, wall time also counts the time other tenants hold the cores,
    // system time the kernel's share of `fsync`s on a shared disk, and
    // user time itself moves with how fast the host runs this process at
    // the moment. All three are printed beside them for information.
    let user: Vec<f64> = times.iter().map(|t| t.user_s).collect();
    let sys: Vec<f64> = times.iter().map(|t| t.sys_s).collect();
    let wall: Vec<f64> = times.iter().map(|t| t.wall_s).collect();
    let op_p50 = print_spread("op CPU time at reference speed", "s", &ref_costs)?;
    print_spread("op user CPU time", "s", &user)?;
    print_spread("op system CPU time", "s", &sys)?;
    print_spread("op wall time", "s", &wall)?;
    let setup_ref: Vec<f64> = cold
        .iter()
        .map(|c| c.time.user_s / c.ref_s * REF_S)
        .collect();
    let setup_user: Vec<f64> = cold.iter().map(|c| c.time.user_s).collect();
    let setup_wall: Vec<f64> = cold.iter().map(|c| c.time.wall_s).collect();
    let setup_peak_kb: Vec<f64> = cold.iter().map(|c| c.peak_kb).collect();
    let none = "no cold set-up succeeded";
    let setup_s = median(&setup_ref).ok_or(none)?;
    let peak_mb = median(&setup_peak_kb).ok_or(none)? / 1024.0;
    println!(
        "cold set-up: median {setup_s:.6} s CPU at reference speed, {:.6} s user CPU, {:.6} s wall, {peak_mb:.3} MB peak RSS, over {} processes",
        median(&setup_user).ok_or(none)?,
        median(&setup_wall).ok_or(none)?,
        cold.len()
    );
    let accuracy = if accuracies.is_empty() {
        0.0
    } else {
        accuracies.iter().sum::<f64>() / accuracies.len() as f64
    };
    Ok(vec![
        metric("setup_s", setup_s, "s", REF_CPU),
        metric(
            "campaigns_per_ref_cpu_s",
            campaigns as f64 / ref_costs.iter().sum::<f64>(),
            "1/s",
            REF_CPU,
        ),
        metric("op_ref_cpu_p50_s", op_p50, "s", REF_CPU),
        metric("bit_accuracy", accuracy, "frac", "simulated"),
        metric(
            "ok_frac",
            1.0 - tally.failed as f64 / tally.attempted as f64,
            "frac",
            "ops",
        ),
        metric(
            "peak_rss_mb",
            peak_mb,
            "MB",
            "VmHWM of a cold set-up process, median",
        ),
    ])
}

/// Peak resident set of this process (VmHWM), in kB.
fn peak_rss_kb() -> Result<f64, BoxError> {
    let status = fs::read_to_string("/proc/self/status")?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or("VmHWM missing from /proc/self/status")?;
    let kb = line.trim().trim_end_matches("kB").trim().parse::<f64>()?;
    Ok(kb)
}

/// What the first replayed op reports beside its spans.
enum Detail {
    Tm(TmCounts, TmProbe),
    Fleet(FleetDetail, u64, f64),
}

fn traced(
    bench: &mut Bench,
    tally: &mut Tally,
    window: Duration,
    width: usize,
    out_dir: &Path,
) -> Result<Vec<Metric>, BoxError> {
    setup(bench, tally);
    let mut tracer = Tracer::new();
    let started = Instant::now();
    let (mut op_total_s, mut replay_total_s) = (0.0, 0.0);
    let mut detail = None;
    let mut tick_latencies_s = Vec::new();
    let mut replayed = 0u64;
    let mut index = 1;
    while index == 1 || started.elapsed() < window {
        let (output, op_s) = bench.op(index);
        let check = bench.check(index, &output);
        if !tally.record("op", check) {
            index += 1;
            continue;
        }
        let expected = output?.digest;
        let seed = op_seed(bench.seed, index);
        tracer.set_op(index);
        let first = detail.is_none();
        let store = bench.store(index);
        let replay_started = Instant::now();
        let replayed_output = match (bench.workload, &bench.inputs) {
            (Workload::Tm1Cloud | Workload::Tm2Flash, _) => {
                let replay = if bench.workload == Workload::Tm1Cloud {
                    replay_tm1(seed, &mut tracer, first)
                } else {
                    replay_tm2(seed, &mut tracer, first)
                };
                let replay_s = replay_started.elapsed().as_secs_f64();
                replay.map(|(output, counts, frozen)| {
                    if let Some(frozen) = frozen {
                        detail = Some(probe_tm(&frozen, width).map(|p| Detail::Tm(counts, p)));
                    }
                    (output, replay_s)
                })
            }
            (Workload::FleetChaos, Inputs::Fleet(winners)) => {
                let replay = fleet_op(winners, seed, &store, Some(&mut tracer));
                let replay_s = replay_started.elapsed().as_secs_f64();
                replay.map(|(output, fleet)| {
                    tick_latencies_s.extend_from_slice(&fleet.tick_latencies_s);
                    if first {
                        let bytes = dir_bytes(&store);
                        let probe_store = bench.store(u64::MAX);
                        let probe = probe_commit_batch(winners, seed, &probe_store);
                        bench.scratch.remove(&probe_store);
                        detail = Some(probe.map(|ms| Detail::Fleet(fleet, bytes, ms)));
                    }
                    (output, replay_s)
                })
            }
            (Workload::FleetChaos, Inputs::Tm) => Err("fleet inputs missing".into()),
        };
        bench.scratch.remove(&store);
        // Replay identity: the traced calls must reproduce the op exactly.
        let identity = match &replayed_output {
            Ok((output, _)) if output.digest == expected => Ok(()),
            Ok((output, _)) => Err(format!(
                "op {index}: replay produced {:?}, the op {expected:?}",
                output.digest
            )),
            Err(e) => Err(format!("op {index}: replay failed: {e}")),
        };
        if !tally.record("replay identity", identity) {
            // A failed replay may leave spans open; stop tracing.
            break;
        }
        if let Ok((_, replay_s)) = replayed_output {
            op_total_s += op_s.wall_s;
            replay_total_s += replay_s;
            replayed += 1;
        }
        index += 1;
    }
    let detail = match detail {
        Some(d) => d?,
        None => return Err("no op was replayed".into()),
    };
    fs::create_dir_all(out_dir)?;
    let dump = out_dir.join(format!(
        "spans-{}-seed{}.jsonl",
        bench.workload.name(),
        bench.seed
    ));
    fs::write(&dump, tracer.jsonl())?;
    println!(
        "spans of {replayed} replayed ops written to {}",
        dump.display()
    );
    let metrics = layer_metrics(
        &tracer,
        &detail,
        &tick_latencies_s,
        replayed,
        op_total_s,
        replay_total_s,
    );
    print_split_checks(bench.workload, &metrics);
    Ok(metrics)
}

#[allow(clippy::too_many_lines)]
fn layer_metrics(
    tracer: &Tracer,
    detail: &Detail,
    tick_latencies_s: &[f64],
    replayed: u64,
    op_total_s: f64,
    replay_total_s: f64,
) -> Vec<Metric> {
    let totals = tracer.totals();
    let ops = replayed.max(1) as f64;
    let root = totals.get("op").copied().unwrap_or_default();
    let self_s = |name: &str| totals.get(name).map_or(0.0, |t| t.self_s);
    let busy = |name: &str| self_s(name) / ops;
    let share = |name: &str| {
        if root.total_s > 0.0 {
            self_s(name) / root.total_s
        } else {
            0.0
        }
    };
    let (counts, probe) = match detail {
        Detail::Tm(c, p) => (c.clone(), p.clone()),
        Detail::Fleet(..) => (TmCounts::default(), TmProbe::default()),
    };
    let (fleet, store_bytes, commit_ms) = match detail {
        Detail::Fleet(f, bytes, ms) => (f.clone(), *bytes, *ms),
        Detail::Tm(..) => (FleetDetail::default(), 0, 0.0),
    };
    let cache = if matches!(detail, Detail::Fleet(..)) {
        (fleet.cache_hits, fleet.cache_misses)
    } else {
        (counts.cache.hits, counts.cache.misses)
    };
    let lookups = cache.0 + cache.1;
    let arena = match detail {
        Detail::Tm(c, _) => c.arena_bytes_per_device,
        Detail::Fleet(f, ..) => f.arena_bytes_per_device as u64,
    };
    let measure_busy = busy("tdc.measure_batch");
    let tick = |q| percentile(tick_latencies_s, q).map_or(0.0, |p| p.value * 1e3);
    vec![
        metric("tdc.calibrate.busy_s", busy("tdc.calibrate"), "s", TIMED),
        metric("tdc.calibrate.share", share("tdc.calibrate"), "frac", TIMED),
        metric(
            "tdc.measure_batch.calls",
            counts.measure_batches as f64,
            "count",
            COMPUTED,
        ),
        metric("tdc.measure_batch.busy_s", measure_busy, "s", TIMED),
        metric(
            "tdc.measure_batch.share",
            share("tdc.measure_batch"),
            "frac",
            TIMED,
        ),
        metric(
            "tdc.measure_batch.parallel_eff",
            probe.parallel_eff,
            "frac",
            SAMPLED,
        ),
        metric(
            "tdc.sensor_reads",
            counts.sensor_reads as f64,
            "count",
            COMPUTED,
        ),
        metric(
            "tdc.reads_per_s",
            if measure_busy > 0.0 {
                counts.sensor_reads as f64 / measure_busy
            } else {
                0.0
            },
            "1/s",
            TIMED,
        ),
        metric(
            "tdc.capture_traces",
            counts.capture_traces as f64,
            "count",
            COMPUTED,
        ),
        metric("tdc.samples", counts.samples as f64, "count", COMPUTED),
        metric(
            "tdc.capture_trace.us_per_call",
            probe.capture_trace_us,
            "us",
            SAMPLED,
        ),
        metric(
            "tdc.postprocess.us_per_call",
            probe.postprocess_us,
            "us",
            SAMPLED,
        ),
        metric(
            "fpga-fabric.route_delay.ns_per_call",
            probe.route_delay_ns,
            "ns",
            SAMPLED,
        ),
        metric(
            "fpga-fabric.route_delay.segments_per_call",
            counts.segments_per_read,
            "count",
            COMPUTED,
        ),
        metric("cloud.provider.busy_s", busy("cloud.provider"), "s", TIMED),
        metric(
            "cloud.advance_time.calls",
            counts.advance_calls as f64,
            "count",
            COMPUTED,
        ),
        metric(
            "cloud.advance_time.busy_s",
            busy("cloud.advance_time"),
            "s",
            TIMED,
        ),
        metric(
            "cloud.advance_time.share",
            share("cloud.advance_time"),
            "frac",
            TIMED,
        ),
        metric("cloud.route_hours", counts.route_hours, "count", COMPUTED),
        metric("cloud.sessions.busy_s", busy("cloud.sessions"), "s", TIMED),
        metric(
            "bti-physics.decay_cache.lookups",
            lookups as f64,
            "count",
            PROGRAM,
        ),
        metric(
            "bti-physics.decay_cache.hit_ratio",
            if lookups > 0 {
                cache.0 as f64 / lookups as f64
            } else {
                0.0
            },
            "frac",
            PROGRAM,
        ),
        metric(
            "bti-physics.arena_bytes_per_device",
            arena as f64,
            "bytes",
            PROGRAM,
        ),
        metric(
            "pentimento.setup.busy_s",
            busy("pentimento.setup"),
            "s",
            TIMED,
        ),
        metric(
            "pentimento.classify.busy_s",
            busy("pentimento.classify"),
            "s",
            TIMED,
        ),
        metric(
            "pentimento.score.busy_s",
            busy("pentimento.score"),
            "s",
            TIMED,
        ),
        metric("fleet.run.busy_s", busy("fleet.run"), "s", TIMED),
        metric("fleet.ticks", fleet.ticks as f64, "count", PROGRAM),
        metric("fleet.tick_p50_ms", tick(0.5), "ms", TIMED),
        metric("fleet.tick_p90_ms", tick(0.9), "ms", TIMED),
        metric("fleet.restarts", fleet.restarts as f64, "count", PROGRAM),
        metric("fleet.rollbacks", fleet.rollbacks as f64, "count", PROGRAM),
        metric(
            "fleet.checkpoints",
            fleet.checkpoints as f64,
            "count",
            PROGRAM,
        ),
        metric("fleet.store_bytes", store_bytes as f64, "bytes", COMPUTED),
        metric("fleet.commit_batch.ms_per_call", commit_ms, "ms", SAMPLED),
        metric(
            "obs.trace_events",
            fleet.trace_events as f64,
            "count",
            COMPUTED,
        ),
        metric(
            "obs.trace_jsonl.busy_s",
            busy("obs.trace_jsonl"),
            "s",
            TIMED,
        ),
        metric(
            "obs-analyze.parse.busy_s",
            busy("obs-analyze.parse"),
            "s",
            TIMED,
        ),
        metric(
            "obs-analyze.indicators.busy_s",
            busy("obs-analyze.indicators"),
            "s",
            TIMED,
        ),
        metric(
            "obs-analyze.alerts.busy_s",
            busy("obs-analyze.alerts"),
            "s",
            TIMED,
        ),
        metric("bench.unattributed.share", share("op"), "frac", TIMED),
        metric("bench.replayed_ops", replayed as f64, "count", COMPUTED),
        metric(
            "bench.trace_overhead_frac",
            if op_total_s > 0.0 {
                replay_total_s / op_total_s - 1.0
            } else {
                0.0
            },
            "frac",
            TIMED,
        ),
    ]
}

/// Prints whether the traced run splits the layers as the workloads
/// claim. Information only: a later optimisation may rightly move them.
fn print_split_checks(workload: Workload, metrics: &[Metric]) {
    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let checks: Vec<(&str, bool)> = match workload {
        Workload::Tm1Cloud => vec![
            (
                "tdc.measure_batch.share >= 0.8",
                value("tdc.measure_batch.share") >= 0.8,
            ),
            (
                "cloud.advance_time.share < 0.01",
                value("cloud.advance_time.share") < 0.01,
            ),
        ],
        Workload::Tm2Flash => vec![(
            "tdc.measure_batch.share > 0",
            value("tdc.measure_batch.share") > 0.0,
        )],
        Workload::FleetChaos => vec![(
            "tdc.measure_batch.share == 0",
            value("tdc.measure_batch.share") == 0.0,
        )],
    };
    for (claim, held) in checks {
        println!(
            "[{}] layer split: {claim}",
            if held { "PASS" } else { "FAIL" }
        );
    }
}

/// Prints the metric table, then the one-line JSON result.
fn report(metrics: &[Metric], tally: &Tally) -> Result<(), BoxError> {
    let mut json = BTreeMap::new();
    for m in metrics {
        if !valid_name(m.name) || !m.value.is_finite() {
            return Err(format!("metric {:?} = {} is not reportable", m.name, m.value).into());
        }
        println!("{:<44} {:>18} {:<6} {}", m.name, m.value, m.unit, m.note);
        json.insert(
            m.name,
            format!("{{\"value\": {}, \"unit\": \"{}\"}}", m.value, m.unit),
        );
    }
    let body: Vec<String> = json.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::OP_SEEDS;

    /// `(name, unit)` pairs of one `BENCHMARK.json` section.
    fn section(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry[..entry.find('"').expect("name closes")].to_owned();
                let unit = entry
                    .split("\"unit\": \"")
                    .nth(1)
                    .map(|u| u[..u.find('"').expect("unit closes")].to_owned())
                    .unwrap_or_default();
                (name, unit)
            })
            .collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let detail = Detail::Tm(TmCounts::default(), TmProbe::default());
        let layers = layer_metrics(&Tracer::new(), &detail, &[], 0, 0.0, 0.0);
        assert_eq!(section(json, "per_layer"), emitted(&layers));
        let mut end_to_end = section(json, "end_to_end");
        end_to_end.sort();
        let mut names = vec![
            ("bit_accuracy", "frac"),
            ("campaigns_per_ref_cpu_s", "1/s"),
            ("ok_frac", "frac"),
            ("op_ref_cpu_p50_s", "s"),
            ("peak_rss_mb", "MB"),
            ("setup_s", "s"),
        ];
        names.sort_unstable();
        let names: Vec<_> = names
            .into_iter()
            .map(|(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(end_to_end, names);
        // Every workload is listed, in order.
        let listed: Vec<&str> = json
            .split("{\"name\": \"")
            .skip(1)
            .map(|e| &e[..e.find('"').unwrap()])
            .take_while(|name| Workload::parse(name).is_some())
            .collect();
        let all: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed, all);
        for m in &layers {
            assert!(valid_name(m.name), "{}", m.name);
        }
    }

    #[test]
    fn golden_outputs_cover_every_op_seed_of_every_workload() {
        let golden = Golden::parse(GOLDEN).expect("golden parses");
        for workload in Workload::ALL {
            for seed in 0..OP_SEEDS {
                assert!(
                    golden.get(workload, seed).is_some(),
                    "{} op seed {seed}",
                    workload.name()
                );
            }
        }
        assert_eq!(golden.len(), Workload::ALL.len() * OP_SEEDS as usize);
    }

    #[test]
    fn a_run_visits_every_op_seed_before_repeating_one() {
        for seed in [0, 1, 3001, u64::MAX] {
            let mut seen: Vec<u64> = (0..OP_SEEDS).map(|i| op_seed(seed, i)).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len() as u64, OP_SEEDS, "seed {seed}");
            assert_eq!(op_seed(seed, OP_SEEDS), op_seed(seed, 0));
        }
        assert_ne!(op_seed(1, 0), op_seed(2, 0), "seeds pick different ops");
    }
}
