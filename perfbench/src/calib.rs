//! Host-speed calibration.
//!
//! The 2-core host this benchmark was defined on runs the same code at
//! speeds up to 40% apart, for seconds to minutes at a time (other tenants
//! of the machine). Timing in CPU time (`stats::process_cpu_ms`) leaves out
//! the hypervisor's steal but not that slowdown. Each run therefore also
//! times a fixed compute kernel, independent of the workspace, many times
//! in the calling thread's CPU time, and scales its timings by how fast the
//! host ran that kernel: a timing is reported as it would read with the
//! kernel at `REFERENCE_MS`. Both the raw values and the kernel time go to
//! standard error, and a traced run reports the kernel time as
//! `host.calib_ms`.
//!
//! Over twelve 30-second `fit-cc` runs on that host, during which it sped
//! up, the round medians in CPU time were up to 46% apart and the scaled
//! ones 8%.

use crate::stats::{median, thread_cpu_ms};

/// What the kernel takes on the reference machine when its host is in the
/// fast state.
pub const REFERENCE_MS: f64 = 1.0;

/// Times one pass of the kernel: xorshift updates scattered over a
/// 256 KiB table (integer work plus L2 traffic, like most of the
/// workspace's hot loops).
fn kernel_ms() -> f64 {
    let t0 = thread_cpu_ms();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut table = vec![0u64; 1 << 15];
    for i in 0..400_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & ((1 << 15) - 1);
        table[j] = table[j].wrapping_add(x ^ i);
    }
    std::hint::black_box(&table);
    thread_cpu_ms() - t0
}

/// Kernel timings collected through a run.
#[derive(Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Times the kernel `n` times. Call it where the workload is idle, so
    /// the kernel does not compete with it.
    pub fn sample(&mut self, n: usize) {
        self.samples.extend((0..n).map(|_| kernel_ms()));
    }

    /// The median kernel time of the run.
    pub fn kernel_ms(&self) -> f64 {
        median(&self.samples)
    }

    /// How much slower than the reference the host ran (1.0 = reference).
    pub fn factor(&self) -> f64 {
        self.kernel_ms() / REFERENCE_MS
    }

    /// A duration measured in this run, as it would read on the reference
    /// host.
    pub fn time(&self, raw: f64) -> f64 {
        raw / self.factor()
    }

    /// A rate measured in this run, as it would read on the reference host.
    pub fn rate(&self, raw: f64) -> f64 {
        raw * self.factor()
    }
}
