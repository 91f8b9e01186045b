//! Order statistics and process measurements.

/// The `q`-quantile of `samples` by linear interpolation between order
/// statistics (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The process's resident-set high-water mark in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time, in milliseconds, that the whole process (every thread, exited
/// ones included) has consumed so far.
///
/// Unlike a wall clock it leaves out the time the hypervisor ran other
/// guests on the host's cores (steal), which on a shared host comes in
/// bursts of tens of milliseconds. Outside 64-bit Linux it falls back to a
/// monotonic wall clock.
pub fn process_cpu_ms() -> f64 {
    cpu_clock_ms(2) // CLOCK_PROCESS_CPUTIME_ID
}

/// CPU time, in milliseconds, that the calling thread has consumed so far
/// (steal left out, as in [`process_cpu_ms`]).
pub fn thread_cpu_ms() -> f64 {
    cpu_clock_ms(3) // CLOCK_THREAD_CPUTIME_ID
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_clock_ms(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call; both clock ids exist on every Linux since 2.6.12.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_clock_ms(_clock: i32) -> f64 {
    static EPOCH: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    EPOCH
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_secs_f64()
        * 1e3
}

/// Interquartile range over median, as `statistics.quantiles(values, n=4)`
/// computes the quartiles (the "exclusive" method).
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let at = |m: f64| {
        // Position m/4 · (n + 1), 1-based, clamped to the sample.
        let pos = (m * (n as f64 + 1.0) / 4.0).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let a = v[lo - 1];
        let b = v[lo.min(n - 1)];
        a + (b - a) * frac
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    (at(3.0) - at(1.0)) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
