//! Host-speed calibration.
//!
//! On a shared host the same work can take up to twice as long for
//! minutes at a time, when neighbours contend for the CPU and its caches.
//! Such a stretch can cover several whole runs, so no statistic inside one
//! run removes it, and the slowdown shows in CPU time as much as in wall
//! time. The benchmark therefore measures the host's speed beside the
//! work: it cuts the timed loop into short segments, times a fixed
//! reference kernel, which calls none of the repository's code, between
//! them, and divides each segment's host times by the slowdown it measured
//! around the segment. Figures then read as host time at the reference
//! speed ([`REFERENCE_NS`]), and a change to the program moves them as it
//! would on a quiet host.
//!
//! The kernel mixes what the program does: a small interpreter loop with
//! data-dependent branches over a 64 KiB array (like the simulator), and
//! ordered and hashed map churn with small allocations (like the
//! compiler). Of the kernels tried on a shared 2-CPU host it tracked the
//! program's slowdowns best; random reads over 256 KiB to 4 MiB, a
//! streaming pass over 8 MiB, a 16 Ki-instruction interpreter program and
//! faulting in fresh pages all tracked worse. The program's slowdown is
//! taken to be the kernel's, as no fixed power of it fits better: the
//! best-fitting exponent was 1.4–2.0 in some stretches and about 0.8 in
//! others.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// The reference kernel's time on an uncontended host: the fastest of 400
/// runs on a 2-CPU Xeon VM. A slowdown of 1 means that speed.
pub const REFERENCE_NS: f64 = 2.1e6;

/// Kernel runs per measurement; the slowdown is their median.
const PROBES: usize = 5;

/// The shortest segment worth a measurement: the kernel runs take about
/// 4% of it.
pub const SEGMENT: Duration = Duration::from_millis(250);

/// Run the reference kernel once and return its host time in ns.
pub fn probe_ns() -> u64 {
    let t = Instant::now();
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };

    // A register machine running a fixed random program.
    let program: Vec<u8> = (0..256).map(|_| (next() % 96) as u8).collect();
    const MEM: usize = 1 << 14;
    let mut mem = vec![0u32; MEM];
    let mut r = [1u32; 16];
    let mut pc = 0usize;
    for step in 0..400_000u32 {
        let op = program[pc];
        let d = usize::from(op & 15);
        match op >> 4 {
            0 => r[d] = r[d].wrapping_add(r[(d + 1) & 15]),
            1 => r[d] ^= r[(d + 3) & 15] << 1,
            2 => r[d] = mem[r[d] as usize & (MEM - 1)],
            3 => mem[r[(d + 5) & 15] as usize & (MEM - 1)] = r[d].wrapping_add(step),
            4 => {
                if r[d] & 1 == 0 {
                    pc = (pc + 7) & 255;
                }
            }
            _ => r[d] = r[d].wrapping_mul(2_654_435_761).rotate_left(5),
        }
        pc = (pc + 1) & 255;
    }
    black_box((&r, &mem));

    // Map churn with small allocations.
    let mut ordered = BTreeMap::new();
    let mut hashed = HashMap::new();
    let mut names = Vec::new();
    for i in 0..6000u64 {
        let k = next();
        ordered.insert(k % 4096, i);
        hashed.insert(k % 2048, vec![i; 4]);
        if i % 3 == 0 {
            ordered.remove(&((k >> 3) % 4096));
        }
        if i % 8 == 0 {
            names.push(format!("v{i}"));
        }
    }
    names.sort();
    black_box((&ordered, &hashed, &names));
    u64::try_from(t.elapsed().as_nanos()).expect("kernel shorter than 584 years")
}

/// Cuts a run into segments and measures the host's slowdown between
/// them.
#[derive(Debug)]
pub struct Speed {
    last: f64,
    since: Instant,
}

impl Speed {
    /// Measure the slowdown now and start the first segment.
    pub fn start() -> Speed {
        let last = measure();
        Speed {
            last,
            since: Instant::now(),
        }
    }

    /// Whether the current segment has lasted [`SEGMENT`].
    pub fn due(&self) -> bool {
        self.since.elapsed() >= SEGMENT
    }

    /// End the current segment: return its host seconds and its slowdown,
    /// the mean of the measurements before and after it; then start the
    /// next segment.
    pub fn cut(&mut self) -> (f64, f64) {
        let wall_s = self.since.elapsed().as_secs_f64();
        let now = measure();
        let slowdown = (self.last + now) / 2.0;
        self.last = now;
        self.since = Instant::now();
        (wall_s, slowdown)
    }
}

/// The median of [`PROBES`] kernel runs over [`REFERENCE_NS`].
fn measure() -> f64 {
    let times: Vec<f64> = (0..PROBES).map(|_| probe_ns() as f64).collect();
    median(&times) / REFERENCE_NS
}
