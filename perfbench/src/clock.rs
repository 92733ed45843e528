//! Host clocks. Every timed interval is read on two clocks: wall time,
//! and the process CPU clock, which the kernel accounts net of the time
//! a hypervisor steals from the guest's virtual CPUs.
//!
//! CPU time still moves with what other tenants do to the shared core
//! (cache, memory bandwidth, clock frequency): on a shared two-vCPU
//! host the same op took anywhere from 1× to 2.4× its best time, in
//! stretches of seconds. So a run of a fixed, std-only [`calibrate`]
//! kernel sits between consecutive ops, and the end-to-end host metrics
//! report each op's CPU time scaled by `CAL_REF_S / (median of the
//! calibration runs around it)`: milliseconds as this host's core runs
//! them when uncontended. Raw CPU and wall times are reported beside
//! them.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// CPU seconds [`calibrate`] takes on an uncontended core of the
/// reference host (a shared two-vCPU x86-64 VM); only sets the scale of
/// calibrated times.
pub const CAL_REF_S: f64 = 0.000_30;

/// Nanoseconds of CPU time this process has used, all threads.
#[cfg(target_os = "linux")]
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is the constant Linux
    // defines; clock_gettime writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock exists on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Elsewhere there is no portable CPU clock in `std`: fall back to wall
/// time since the first call.
#[cfg(not(target_os = "linux"))]
pub fn process_cpu_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A point in time on both clocks.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu_ns: u64,
}

/// An interval on both clocks, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Lap {
    /// Wall seconds.
    pub wall: f64,
    /// Process CPU seconds.
    pub cpu: f64,
}

impl Stamp {
    /// Now.
    pub fn now() -> Stamp {
        Stamp { wall: Instant::now(), cpu_ns: process_cpu_ns() }
    }

    /// The interval from this stamp to now.
    pub fn lap(&self) -> Lap {
        let cpu_ns = process_cpu_ns().saturating_sub(self.cpu_ns);
        Lap { wall: self.wall.elapsed().as_secs_f64(), cpu: cpu_ns as f64 / 1e9 }
    }

    /// Wall time since this stamp (run-length budgeting).
    pub fn wall_elapsed(&self) -> std::time::Duration {
        self.wall.elapsed()
    }
}

/// Runs the calibration kernel and returns the CPU seconds it took.
///
/// The kernel has two parts that contention slows differently: a
/// branchy sort, an ordered-map build and lookup with allocation, and a
/// float dot product over L1-sized data; and a dependent chain of
/// saturating table-lookup accumulations over a 256 KB table, the shape
/// of a quantized conv MAC chain. Under the contention seen on the
/// reference host the first part slowed less than the workloads and the
/// second more; their sum tracked them within about ±13%. Only `std`
/// runs here, so no change to the repository's crates can move it.
pub fn calibrate() -> f64 {
    let start = process_cpu_ns();
    mixed();
    mac_chain();
    (process_cpu_ns() - start) as f64 / 1e9
}

fn mixed() {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut keys: Vec<u64> = (0..4096).map(|_| next()).collect();
    keys.sort_unstable();
    let map: BTreeMap<u64, u64> = keys.iter().step_by(4).map(|&k| (k, k >> 3)).collect();
    let hits: u64 = keys.iter().filter_map(|k| map.get(k)).sum();
    let a: Vec<f32> = (0..8192).map(|i| (i % 97) as f32 * 0.25).collect();
    let b: Vec<f32> = (0..8192).map(|i| (i % 89) as f32 * 0.5).collect();
    let dot: f32 = a.iter().zip(&b).map(|(p, q)| p * q).sum();
    black_box((keys, hits, dot));
}

fn mac_chain() {
    static TABLE: OnceLock<Vec<i32>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        (0..256 * 256).map(|i: i32| (((i >> 8) - 128) * ((i & 255) - 128)) >> 6).collect()
    });
    let ws: Vec<i32> = (0..200).map(|i| ((i * 37 + 11) % 255) - 127).collect();
    let xs: Vec<i32> = (0..1200).map(|i| ((i * 53 + 7) % 255) - 127).collect();
    let mut total = 0i64;
    for out in 0..150 {
        let mut acc = 0i64;
        for (i, &w) in ws.iter().enumerate() {
            let x = xs[(out * 7 + i) % xs.len()];
            acc += i64::from(table[(x + 128) as usize * 256 + (w + 128) as usize]);
            acc = acc.clamp(-(1 << 9), (1 << 9) - 1);
        }
        total += acc;
    }
    black_box(total);
}
