//! Process-level probes: CPU clock, write volume, peak memory.

use std::time::Duration;

/// User+system CPU time of the whole process (every thread), via
/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`.
#[cfg(target_os = "linux")]
pub fn process_cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` and the clock id is a
    // Linux constant; on failure the zeroed value stands.
    unsafe {
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts);
    }
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Without a process CPU clock, report no CPU time at all.
#[cfg(not(target_os = "linux"))]
pub fn process_cpu_time() -> Duration {
    Duration::ZERO
}

/// Bytes the process has passed to write-like system calls (`wchar` in
/// `/proc/self/io`), or 0 where procfs is unavailable.
pub fn written_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|io| {
            io.lines()
                .find_map(|line| line.strip_prefix("wchar:"))
                .and_then(|value| value.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set size in MiB, or 0 where procfs is unavailable.
pub fn peak_rss_mib() -> f64 {
    rf_bench::peak_rss_kib().unwrap_or(0) as f64 / 1024.0
}
