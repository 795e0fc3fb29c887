//! User CPU time: the clock the benchmark's gated timings read, before
//! `reference` scales them to the reference speed.
//!
//! On a shared VM the wall time of an op also counts the time other
//! tenants hold the host's cores (steal), and its system CPU time counts
//! the kernel's share of each `fsync` on a disk other tenants also write
//! to. User CPU time counts only the time this process's own code ran in
//! user mode, all threads included.

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Clone, Copy)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`
/// counters this module does not read.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    counters: [i64; 14],
}

/// `RUSAGE_SELF`: every thread of the calling process, exited threads
/// included.
const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User and system CPU seconds this process has used so far, over all its
/// threads.
///
/// # Panics
///
/// Panics if the kernel rejects the call, which Linux never does for
/// `RUSAGE_SELF`.
#[must_use]
pub fn process_times_s() -> (f64, f64) {
    let zero = Timeval {
        tv_sec: 0,
        tv_usec: 0,
    };
    let mut usage = Rusage {
        ru_utime: zero,
        ru_stime: zero,
        counters: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C layout
    // (`repr(C)`: two `timeval`s of two `i64`s, then fourteen `i64`s, as on
    // 64-bit Linux), and `getrusage` writes only into it and keeps no
    // pointer once it returns.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    (secs(usage.ru_utime), secs(usage.ru_stime))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_cpu_time_counts_work_on_other_threads() {
        let (before, _) = process_times_s();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut x = 0u64;
                for i in 0..20_000_000u64 {
                    x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
                }
            });
        });
        let used = process_times_s().0 - before;
        assert!(used > 0.001, "worker CPU time not accounted: {used}");
    }

    #[test]
    fn neither_clock_runs_backwards() {
        let (user, system) = process_times_s();
        let (user_after, system_after) = process_times_s();
        assert!(user >= 0.0 && system >= 0.0);
        assert!(user_after >= user && system_after >= system);
    }
}
