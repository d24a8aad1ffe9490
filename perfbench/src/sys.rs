//! The three OS facilities the benchmark needs that `std` does not offer:
//! pinning the process to one CPU, reading the process's CPU time, and
//! reading a CPU's steal time.

use std::io;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads /proc and uses the 64-bit Linux `struct rusage` layout");

/// Words in glibc's `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;
/// `RUSAGE_SELF`: every thread of the calling process.
const RUSAGE_SELF: i32 = 0;

/// `struct rusage` on 64-bit Linux: two `timeval`s (seconds and
/// microseconds, both 64-bit) followed by fourteen `long` counters.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime_s: i64,
    utime_us: i64,
    stime_s: i64,
    stime_us: i64,
    counters: [i64; 14],
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Pins the calling thread to the highest-numbered CPU it may run on and
/// returns that CPU. Threads spawned afterwards inherit the mask, so
/// calling this first in `main` pins the whole process: client, accept
/// loop, reactors and shard workers then share one CPU, and no request
/// pays for a wake-up on another one.
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let mut allowed = [0u64; CPU_SET_WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
    let mut only = [0u64; CPU_SET_WORDS];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&only), only.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

/// User plus system CPU seconds consumed so far by every thread of this
/// process.
pub fn process_cpu_s() -> io::Result<f64> {
    let mut usage = RUsage::default();
    // SAFETY: `usage` has the layout of `struct rusage` on this target
    // (checked by the `compile_error!` gate above) and is writable.
    if unsafe { getrusage(RUSAGE_SELF, &mut usage) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((usage.utime_s + usage.stime_s) as f64 + (usage.utime_us + usage.stime_us) as f64 * 1e-6)
}

/// Steal jiffies accrued so far on `cpu`: time the hypervisor ran
/// something else while this CPU had work (the eighth value of its
/// `/proc/stat` line).
pub fn steal_jiffies(cpu: usize) -> io::Result<u64> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let label = format!("cpu{cpu}");
    let line = stat
        .lines()
        .find(|line| line.split_whitespace().next() == Some(label.as_str()))
        .ok_or_else(|| io::Error::other(format!("/proc/stat has no {label} line")))?;
    line.split_whitespace()
        .nth(8)
        .and_then(|field| field.parse().ok())
        .ok_or_else(|| io::Error::other(format!("/proc/stat {label} line has no steal field")))
}
