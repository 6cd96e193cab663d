//! What the benchmark reads about its host: resident memory, and CPU time
//! the hypervisor gave to other guests.
//!
//! The benchmark runs on shared virtual machines. There, a virtual CPU that
//! wants to run is sometimes not scheduled, and the guest kernel counts
//! that time as *stolen* (`steal` in `/proc/stat`). On one 2-core host,
//! stolen time added up to 20 % to single Car set-ups and 35 % to single
//! publishes. Set-ups and publishes, which run while nothing else in the
//! process does, are therefore timed steal-free: wall time × busy ÷
//! (busy + stolen), over the machine's CPU ticks during the call. Without
//! stolen time that is the wall time; with several threads busy at once it
//! still is the wall time the call would have taken.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How often [`peak_rss_while`] samples the resident set.
const RSS_EVERY: Duration = Duration::from_millis(5);

/// Runs `f` while a thread samples the process's resident set every few
/// milliseconds; returns `f`'s result and the largest sample, in bytes.
pub fn peak_rss_while<T>(f: impl FnOnce() -> T) -> (T, Option<u64>) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = None;
            loop {
                peak = peak.max(rss_bytes());
                if stop.load(Ordering::Relaxed) {
                    return peak;
                }
                std::thread::sleep(RSS_EVERY);
            }
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        (out, sampler.join().ok().flatten())
    })
}

/// The process's resident set now, in bytes (`VmRSS`, Linux only).
fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse::<u64>()
        .ok()?;
    Some(kib * 1024)
}

/// The machine's CPU ticks so far, summed over its CPUs: (busy, stolen).
/// Busy is user, nice, system, irq and softirq time (Linux only).
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    let field = |i: usize| ticks.get(i).copied();
    let busy = field(0)? + field(1)? + field(2)? + field(5)? + field(6)?;
    Some((busy, field(7)?))
}

/// A call's duration, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Wall time.
    pub wall: f64,
    /// Wall time with the share the hypervisor stole taken out; the wall
    /// time when no ticks were counted.
    pub steal_free: f64,
}

/// Runs `f` and times it.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timing) {
    let before = cpu_ticks();
    let t = Instant::now();
    let out = f();
    let wall = t.elapsed().as_secs_f64();
    let share = match (before, cpu_ticks()) {
        (Some((b0, s0)), Some((b1, s1))) => {
            let (busy, stolen) = (b1.saturating_sub(b0), s1.saturating_sub(s0));
            (busy + stolen > 0).then(|| busy as f64 / (busy + stolen) as f64)
        }
        _ => None,
    };
    let steal_free = wall * share.unwrap_or(1.0);
    (out, Timing { wall, steal_free })
}
