//! A dependency-free micro-benchmark harness (the workspace builds
//! offline, so Criterion is replaced by this ~100-line timer).
//!
//! Usage mirrors the Criterion shape the benches had before:
//!
//! ```no_run
//! let mut g = sc_bench::microbench::Group::new("my_group");
//! g.bench("kernel", || 2 + 2);
//! g.finish();
//! ```
//!
//! Each benchmark auto-calibrates its iteration count to a ~200 ms
//! budget, reports mean/min over 5 timed batches, and uses
//! [`std::hint::black_box`] to defeat dead-code elimination.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed batches per benchmark.
const BATCHES: usize = 5;
/// Target wall time per benchmark (all batches together).
const BUDGET: Duration = Duration::from_millis(200);
/// Hard ceiling on iterations per batch. Sub-nanosecond kernels (the
/// timer resolution regime, where `elapsed` can stay 0 forever) would
/// otherwise double the count without bound; 2^26 iterations of even a
/// 1-cycle kernel still fits the budget on any realistic clock.
const MAX_ITERS: u64 = 1 << 26;

/// One benchmark's timing summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Iterations per timed batch.
    pub iters: u64,
    /// Mean nanoseconds per iteration over all batches.
    pub mean_ns: f64,
    /// Fastest batch's nanoseconds per iteration.
    pub min_ns: f64,
}

/// Grows the iteration count until one batch takes ≥ 1/25 of the budget
/// (so ~5 batches fit comfortably), clamped to [`MAX_ITERS`].
fn calibrate<T>(f: &mut impl FnMut() -> T) -> u64 {
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed * 25 >= BUDGET {
            break;
        }
        // `checked_mul` (not a plain shift) so a kernel the timer cannot
        // resolve stops at the ceiling instead of wrapping to 0 iters.
        iters = match iters.checked_mul(2) {
            Some(next) if next <= MAX_ITERS => next,
            _ => return MAX_ITERS,
        };
    }
    iters
}

/// Measures `f`, auto-calibrating the iteration count.
pub fn time_fn<T>(mut f: impl FnMut() -> T) -> Timing {
    let iters = calibrate(&mut f);
    let mut per_iter = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        per_iter.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    let mean_ns = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
    let min_ns = per_iter.iter().cloned().fold(f64::INFINITY, f64::min);
    Timing { iters, mean_ns, min_ns }
}

/// Timings of a baseline/contender pair measured back to back by
/// [`Group::bench_pair`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairTiming {
    /// The reference implementation's timing.
    pub baseline: Timing,
    /// The implementation under comparison.
    pub contender: Timing,
}

impl PairTiming {
    /// How many times faster the contender ran than the baseline
    /// (> 1 means the contender won). Compares the fastest batch of
    /// each side — the mean is vulnerable to a single cold batch (page
    /// faults, clock ramp-up) distorting short measurements.
    pub fn speedup(&self) -> f64 {
        self.baseline.min_ns / self.contender.min_ns
    }
}

/// A named group of benchmarks printed as a small table.
#[derive(Debug)]
pub struct Group {
    name: String,
    results: Vec<(String, Timing)>,
}

impl Group {
    /// Starts a group.
    pub fn new(name: &str) -> Self {
        println!("== bench group: {name} ==");
        Group { name: name.to_string(), results: Vec::new() }
    }

    /// Runs and records one benchmark, returning its timing.
    pub fn bench<T>(&mut self, name: &str, f: impl FnMut() -> T) -> Timing {
        let t = time_fn(f);
        println!(
            "{:>32}  mean {:>12}  min {:>12}  ({} iters/batch)",
            name,
            fmt_ns(t.mean_ns),
            fmt_ns(t.min_ns),
            t.iters
        );
        self.results.push((name.to_string(), t));
        t
    }

    /// Runs a baseline/contender pair back to back and reports the
    /// speedup of the contender over the baseline (mean-over-mean).
    /// Both timings are recorded in the group under
    /// `"<name>/<baseline>"` and `"<name>/<contender>"`.
    pub fn bench_pair<A, B>(
        &mut self,
        baseline: &str,
        contender: &str,
        name: &str,
        fa: impl FnMut() -> A,
        fb: impl FnMut() -> B,
    ) -> PairTiming {
        let a = self.bench(&format!("{name}/{baseline}"), fa);
        let b = self.bench(&format!("{name}/{contender}"), fb);
        let pair = PairTiming { baseline: a, contender: b };
        println!("{:>32}  speedup {:.2}x ({contender} vs {baseline})", name, pair.speedup());
        pair
    }

    /// Ends the group (prints a trailing newline for readability).
    pub fn finish(self) -> Vec<(String, Timing)> {
        println!("== end group: {} ==\n", self.name);
        self.results
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_is_positive_and_finite() {
        let t = time_fn(|| (0..100u64).sum::<u64>());
        assert!(t.mean_ns > 0.0 && t.mean_ns.is_finite());
        assert!(t.min_ns <= t.mean_ns + 1e3);
        assert!(t.iters >= 1);
    }

    #[test]
    fn calibration_clamps_for_unresolvable_kernels() {
        // A no-op closure is faster than the timer can resolve; before
        // the clamp this doubled `iters` forever (and could overflow).
        // The calibrated count must stop exactly at the ceiling.
        let iters = calibrate(&mut || ());
        assert!(iters <= MAX_ITERS, "iters {iters} above clamp");
        let t = time_fn(|| ());
        assert!(t.iters <= MAX_ITERS);
        assert!(t.mean_ns >= 0.0 && t.mean_ns.is_finite());
    }

    #[test]
    fn bench_pair_reports_speedup() {
        let mut g = Group::new("pair_test");
        let pair = g.bench_pair(
            "slow",
            "fast",
            "sum",
            // Opaque bounds and terms: otherwise the optimizer folds each
            // sum to a closed form and "slow" times the same work as
            // "fast".
            || (0..black_box(2000u64)).map(black_box).sum::<u64>(),
            || (0..black_box(100u64)).map(black_box).sum::<u64>(),
        );
        assert!(pair.speedup() > 1.0, "speedup {}", pair.speedup());
        let results = g.finish();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].0, "sum/slow");
        assert_eq!(results[1].0, "sum/fast");
    }

    #[test]
    fn fmt_ns_units() {
        assert!(fmt_ns(5.0).ends_with("ns"));
        assert!(fmt_ns(5_000.0).ends_with("µs"));
        assert!(fmt_ns(5_000_000.0).ends_with("ms"));
        assert!(fmt_ns(5_000_000_000.0).ends_with('s'));
    }
}
