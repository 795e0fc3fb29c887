//! Small, dependency-free helpers the benchmark's report rests on:
//! percentiles that carry their sample count, the metric-name rule, and
//! command-line parsing.

/// A percentile of a sample set, kept together with how many samples it
/// came from and how many lie strictly above its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank `ceil(q * n)`.
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
    /// Number of samples ranked above it.
    pub beyond: usize,
}

/// Nearest-rank percentile of `values` at `q` in `[0, 1]`. Returns `None`
/// for an empty set or a `q` outside `[0, 1]`.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> Option<Percentile> {
    if values.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Median: the mean of the two middle samples for an even count.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Whether `name` is a legal metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The benchmark's command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every op seed is derived from.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: u64,
    /// Whether this is the traced per-layer run.
    pub trace: bool,
    /// `Some(n)`: print the outputs of op seeds `0..n` as golden lines
    /// instead of benchmarking.
    pub record: Option<u64>,
    /// Run one cold set-up and print its time instead of benchmarking:
    /// the benchmark starts itself this way to time cold set-ups.
    pub cold_setup: bool,
}

/// Parses a seed: a decimal `u64`, nothing else (no sign, no spaces).
pub fn parse_seed(raw: &str) -> Result<u64, String> {
    if raw.is_empty() || !raw.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("--seed wants a decimal u64, got {raw:?}"));
    }
    raw.parse()
        .map_err(|_| format!("--seed {raw:?} does not fit in a u64"))
}

/// Parses `--workload W --seed N --seconds S --trace 0|1`, or
/// `--workload W --seed N` with `--record N` or `--cold-setup 1`. Every
/// flag may appear once.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut record = None;
    let mut cold_setup = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} is missing its value"))?;
        let duplicate = match flag.as_str() {
            "--workload" => workload.replace(value).is_some(),
            "--seed" => seed.replace(parse_seed(&value)?).is_some(),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| format!("--seconds wants 1..=3600, got {value:?}"))?;
                seconds.replace(s).is_some()
            }
            "--trace" => {
                let t = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                };
                trace.replace(t).is_some()
            }
            "--record" => {
                let n: u64 =
                    value.parse().ok().filter(|n| *n >= 1).ok_or_else(|| {
                        format!("--record wants a positive op count, got {value:?}")
                    })?;
                record.replace(n).is_some()
            }
            "--cold-setup" => {
                if value != "1" {
                    return Err(format!("--cold-setup wants 1, got {value:?}"));
                }
                cold_setup.replace(true).is_some()
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        };
        if duplicate {
            return Err(format!("{flag} given twice"));
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: match (record, cold_setup) {
            (None, None) => seconds.ok_or("--seconds is required")?,
            _ => seconds.unwrap_or(1),
        },
        trace: trace.unwrap_or(false),
        record,
        cold_setup: cold_setup.is_some(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn percentile_uses_nearest_rank_and_reports_its_sample_count() {
        let values: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        let p50 = percentile(&values, 0.5).unwrap();
        assert_eq!(p50.value, 10.0);
        assert_eq!(p50.samples, 20);
        assert_eq!(p50.beyond, 10);
        let p90 = percentile(&values, 0.9).unwrap();
        assert_eq!((p90.value, p90.samples, p90.beyond), (18.0, 20, 2));
        let p100 = percentile(&values, 1.0).unwrap();
        assert_eq!((p100.value, p100.beyond), (20.0, 0));
        let p0 = percentile(&values, 0.0).unwrap();
        assert_eq!(p0.value, 1.0, "rank clamps to the first sample");
    }

    #[test]
    fn percentile_rejects_empty_sets_and_out_of_range_quantiles() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1.0], 1.5), None);
        assert_eq!(percentile(&[1.0], -0.1), None);
        let one = percentile(&[7.0], 0.99).unwrap();
        assert_eq!((one.value, one.samples, one.beyond), (7.0, 1, 0));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in [
            "setup_s",
            "tdc.measure_batch.share",
            "bti-physics.arena",
            "9x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "a b",
            "a/b",
            "a:b",
            "é",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn seeds_are_plain_decimal_u64() {
        assert_eq!(parse_seed("0"), Ok(0));
        assert_eq!(parse_seed("18446744073709551615"), Ok(u64::MAX));
        for bad in ["", "-1", "+1", " 1", "1.5", "0x10", "18446744073709551616"] {
            assert!(parse_seed(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn command_line_parses_the_benchmark_form() {
        let a = args("--workload tm1_cloud --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: "tm1_cloud".into(),
                seed: 42,
                seconds: 10,
                trace: true,
                record: None,
                cold_setup: false,
            }
        );
        assert!(args("--workload w --seed 1 --seconds 10 --trace 2").is_err());
        assert!(args("--workload w --seed x --seconds 10 --trace 0").is_err());
        assert!(args("--workload w --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload w --seed 1 --seed 2 --seconds 1").is_err());
        assert!(args("--workload w --seed 1 --seconds").is_err());
        assert!(args("--seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload w --seed 1 --seconds 1 --bogus 1").is_err());
        let rec = args("--workload w --seed 3 --record 4").unwrap();
        assert_eq!(rec.record, Some(4));
        let cold = args("--workload w --seed 3 --cold-setup 1").unwrap();
        assert!(cold.cold_setup && cold.record.is_none());
        assert!(args("--workload w --seed 3 --cold-setup 0").is_err());
    }
}
