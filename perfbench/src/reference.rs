//! The reference kernel: a fixed piece of the benchmark's own work whose
//! CPU time tells how fast the machine runs at the moment it is timed.
//!
//! On a VM shared with other tenants the same op's user CPU time moves by
//! tens of percent from run to run: a busy sibling hyperthread, cache and
//! memory-bandwidth contention and frequency changes all slow the
//! process's own instructions. The benchmark runs this kernel beside every
//! op and gates on op CPU time divided by the kernel's, which those
//! slow-downs move both halves of alike. The kernel is not program code,
//! so a change to the program moves only the op half.
//!
//! The work imitates the two kinds of code the workloads spend their time
//! in. Half is like the TDC capture path: Gaussian jitter from a PRNG, a
//! walk along a prefix-delay table comparing capture margins, metastable
//! coin flips, and a freshly collected bit vector per sample. Half is like
//! the fleet's bookkeeping: records formatted as JSON text, kept in an
//! ordered map, and hashed.

use std::collections::BTreeMap;

use crate::cpu;

/// Prefix-delay table length: 256 KiB of `f64` per thread.
const TABLE: usize = 32 * 1024;
/// Taps walked per sample, as in a TDC chain.
const CHAIN: usize = 256;
/// Samples per kernel run on each thread.
const SAMPLES: usize = 50_000;
/// Metastable window, in table units.
const WINDOW: f64 = 2.0;
/// Records formatted per kernel run on each thread.
const RECORDS: u64 = 60_000;
/// Distinct record keys: later records replace earlier ones.
const KEYS: u64 = 4_096;

/// xorshift64*: the kernel's PRNG, so its work is fixed per seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `(0, 1]`.
    fn uniform(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal, Box–Muller.
    fn gaussian(&mut self) -> f64 {
        let (u1, u2) = (self.uniform(), self.uniform());
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// One thread's share of a kernel run. Returns a checksum of the bits it
/// captured, which depends on `seed` alone.
#[must_use]
pub fn work(seed: u64) -> u64 {
    let mut rng = Rng(seed | 1);
    let mut delay = 0.0;
    let table: Vec<f64> = (0..TABLE)
        .map(|_| {
            delay += 1.0 + 0.1 * rng.gaussian();
            delay
        })
        .collect();
    let mut checksum = 0u64;
    for _ in 0..SAMPLES {
        let start = (rng.next() % (TABLE - CHAIN) as u64) as usize;
        let front = table[start] + CHAIN as f64 / 2.0 + 3.0 * rng.gaussian();
        let bits: Vec<bool> = table[start..start + CHAIN]
            .iter()
            .map(|&passed_at| {
                let margin = front - passed_at;
                if margin > WINDOW / 2.0 {
                    true
                } else if margin < -WINDOW / 2.0 {
                    false
                } else {
                    rng.uniform() < 0.5 + margin / WINDOW
                }
            })
            .collect();
        let ones = bits.iter().filter(|&&b| b).count() as u64;
        checksum = checksum.wrapping_mul(0x100_0000_01B3).wrapping_add(ones);
    }
    let mut records = BTreeMap::new();
    for seq in 0..RECORDS {
        let record = format!(
            "{{\"seq\":{seq},\"route\":{},\"delta_ps\":{}}}",
            rng.next() % 64,
            rng.gaussian()
        );
        records.insert(rng.next() % KEYS, record);
    }
    for (key, record) in &records {
        for byte in key.to_le_bytes().iter().chain(record.as_bytes()) {
            checksum = (checksum ^ u64::from(*byte)).wrapping_mul(0x100_0000_01B3);
        }
    }
    checksum
}

/// Runs the kernel once on each of `width` threads at the same time, as
/// wide as the op's pool, and returns the process's user CPU seconds it
/// took.
///
/// # Errors
///
/// Fails if the threads' checksums differ: they run the same seed, so
/// they must agree.
pub fn run(width: usize) -> Result<f64, String> {
    let (before, _) = cpu::process_times_s();
    let sums: Vec<u64> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..width.max(1))
            .map(|_| scope.spawn(|| work(std::hint::black_box(0x5EED))))
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("the reference kernel does not panic"))
            .collect()
    });
    let used = cpu::process_times_s().0 - before;
    if sums.windows(2).any(|w| w[0] != w[1]) {
        return Err(format!("reference kernel checksums disagree: {sums:?}"));
    }
    Ok(used)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_per_seed() {
        assert_eq!(work(7), work(7));
        assert_ne!(work(7), work(8));
    }

    #[test]
    fn a_run_takes_measurable_cpu_time() {
        let used = run(2).unwrap();
        assert!(used > 0.0, "{used}");
    }
}
