//! A process-global metrics registry: named counters, gauges, and
//! fixed-bucket histograms — plus [`Tally`], the one windowed aggregate
//! that sc-health's windows and the [`crate::obs`] log's aggregates
//! share, [`Outcome`], the terminal outcome of a request it counts, and
//! [`window_span`], the bounds of their windows. Histograms and tallies
//! share one bucket lookup and one nearest-rank walk.
//!
//! Handles are `Arc`-backed and cheap to clone; instrumentation sites
//! cache them in `OnceLock` statics so the name lookup happens once.
//! Recording is gated on a global flag: when metrics are disabled (the
//! default outside [`crate::bench::bench_run`]) every `incr`/`set`/
//! `record` is a single relaxed atomic load and an early return, so
//! instrumented hot loops cost ~nothing.
//!
//! Counters **wrap** on overflow (they are `u64` modular accumulators,
//! like hardware cycle counters); gauges store the last value; histogram
//! values above the last bucket bound land in an unbounded overflow
//! bucket.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns metric recording on or off globally.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// Whether metric recording is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A monotonically increasing (modulo 2⁶⁴) counter.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n` (wrapping on overflow). No-op while metrics are
    /// disabled.
    #[inline]
    pub fn incr(&self, n: u64) {
        if enabled() {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge holding an `f64`.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the value. No-op while metrics are disabled.
    #[inline]
    pub fn set(&self, v: f64) {
        if enabled() {
            self.cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram over `u64` values.
///
/// Bucket `i` counts values `v ≤ bounds[i]` (and greater than the
/// previous bound); one extra overflow bucket counts values above the
/// last bound. The exact count and sum are tracked alongside.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must be strictly increasing");
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value. No-op while metrics are disabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.buckets[bucket_of(&self.bounds, v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// The configured bucket upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// A point-in-time copy of the bucket counts (one extra overflow
    /// slot), total count, and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Power-of-two bucket bounds `1, 2, 4, …, 2^max_exp` — the standard
/// bounds for latency histograms, giving ~constant relative quantile
/// error across six decades.
pub fn log2_bounds(max_exp: u32) -> Vec<u64> {
    (0..=max_exp.min(63)).map(|e| 1u64 << e).collect()
}

/// The bucket `v` lands in under `bounds`: the first whose bound is
/// `≥ v`, or the overflow bucket `bounds.len()` past the last bound.
pub(crate) fn bucket_of(bounds: &[u64], v: u64) -> usize {
    bounds.partition_point(|&b| b < v)
}

/// The nearest-rank walk: the index of the bucket holding rank
/// `⌈q·count⌉` (at least 1) of the `count` values counted in `buckets`,
/// or `None` when `count` is 0. A rank past every counted value lands in
/// the last (overflow) bucket.
pub(crate) fn rank_bucket(buckets: &[u64], count: u64, q: f64) -> Option<usize> {
    if count == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    let hit = buckets.iter().position(|&c| {
        seen = seen.saturating_add(c);
        seen >= rank
    });
    Some(hit.unwrap_or(buckets.len().saturating_sub(1)))
}

/// The nearest-rank quantile estimate of `count` values bucketed under
/// `bounds`: the upper bound of the bucket holding the rank, clamped to
/// `max`. 0 when `count` is 0.
fn bucket_quantile(bounds: &[u64], buckets: &[u64], count: u64, max: u64, q: f64) -> u64 {
    rank_bucket(buckets, count, q)
        .map_or(0, |i| bounds.get(i).copied().unwrap_or(u64::MAX).min(max))
}

/// Window `index` of a tumbling series `width` ticks wide, as its first
/// tick and one past its last: `[index·width, (index+1)·width)`. Both
/// ends saturate at `u64::MAX`, so the last window of the clock ends
/// there instead of wrapping.
pub fn window_span(index: u64, width: u64) -> (u64, u64) {
    (index.saturating_mul(width), index.saturating_add(1).saturating_mul(width))
}

/// Terminal outcome of one finalized request: what the serving layer
/// decides, what an [`EventRecord`](crate::EventRecord) carries, and what
/// a [`Tally`] counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served successfully at the given degradation tier (0 = full
    /// precision).
    Completed {
        /// Degradation tier the response was served at.
        tier: usize,
    },
    /// Dropped by admission control (queue full).
    Shed,
    /// Deadline expired — while queued, waiting out a backoff, or
    /// mid-service.
    TimedOut,
    /// Retry budget exhausted against an open breaker (failed fast).
    BreakerOpen,
    /// Backend kept failing until the retry budget ran out.
    Failed,
}

impl Outcome {
    /// Every outcome once, in code order (the completion at tier 0).
    pub const ALL: [Outcome; 5] = [
        Outcome::Completed { tier: 0 },
        Outcome::Shed,
        Outcome::TimedOut,
        Outcome::BreakerOpen,
        Outcome::Failed,
    ];

    /// Stable small code for fingerprints.
    pub fn code(&self) -> u64 {
        match self {
            Outcome::Completed { .. } => 0,
            Outcome::Shed => 1,
            Outcome::TimedOut => 2,
            Outcome::BreakerOpen => 3,
            Outcome::Failed => 4,
        }
    }

    /// Short name used in tables, event logs, incidents and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Outcome::Completed { .. } => "completed",
            Outcome::Shed => "shed",
            Outcome::TimedOut => "timed-out",
            Outcome::BreakerOpen => "breaker-open",
            Outcome::Failed => "failed",
        }
    }

    /// The tier a completion was served at; `None` for every other
    /// outcome.
    pub fn tier(&self) -> Option<usize> {
        match self {
            Outcome::Completed { tier } => Some(*tier),
            _ => None,
        }
    }

    /// The outcome [`Outcome::name`] calls `name`, served at `tier`:
    /// `None` when the name is unknown, or when `tier` is not `Some`
    /// exactly for a completion.
    pub(crate) fn from_name(name: &str, tier: Option<usize>) -> Option<Outcome> {
        let outcome = match Outcome::ALL.into_iter().find(|o| o.name() == name)? {
            Outcome::Completed { .. } => Outcome::Completed { tier: tier? },
            other => other,
        };
        (outcome.tier() == tier).then_some(outcome)
    }
}

/// The one windowed aggregate: what one window (or one group, or a
/// whole stream) of finalized requests adds up to. It counts every
/// outcome, buckets completed latencies, and keeps their saturating sum
/// and exact maximum, so its quantiles clamp to the aggregate's own
/// maximum. The bucket bounds are passed to each call rather than
/// stored, so the many tallies of one log or monitor share one bounds
/// vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tally {
    /// Requests of any outcome.
    pub finalized: u64,
    /// Completions (any tier).
    pub completed: u64,
    /// Completions at a degraded tier.
    pub degraded: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests whose deadline expired.
    pub timed_out: u64,
    /// Backend-caused failures: breaker-open and failed requests.
    pub errors: u64,
    /// Completed-latency counts per bucket; the last is the overflow
    /// bucket.
    pub buckets: Vec<u64>,
    /// Sum of completed latencies, saturating at `u64::MAX`.
    pub latency_sum: u64,
    /// Largest completed latency (0 when nothing completed).
    pub max: u64,
}

impl Tally {
    /// An empty tally over `bounds` (plus the overflow bucket).
    pub fn new(bounds: &[u64]) -> Tally {
        Tally {
            finalized: 0,
            completed: 0,
            degraded: 0,
            shed: 0,
            timed_out: 0,
            errors: 0,
            buckets: vec![0; bounds.len() + 1],
            latency_sum: 0,
            max: 0,
        }
    }

    /// Counts one request finalized as `outcome` after `latency` cycles.
    /// A completion at tier ≥ 1 is degraded, and a breaker-open or failed
    /// request is an error. Only a completion's latency is counted: its
    /// bucket is returned.
    pub fn add(&mut self, outcome: Outcome, latency: u64, bounds: &[u64]) -> Option<usize> {
        self.finalized += 1;
        match outcome {
            Outcome::Completed { tier } => {
                self.completed += 1;
                self.degraded += (tier > 0) as u64;
                let b = bucket_of(bounds, latency);
                self.buckets[b] += 1;
                self.latency_sum = self.latency_sum.saturating_add(latency);
                self.max = self.max.max(latency);
                return Some(b);
            }
            Outcome::Shed => self.shed += 1,
            Outcome::TimedOut => self.timed_out += 1,
            Outcome::BreakerOpen | Outcome::Failed => self.errors += 1,
        }
        None
    }

    /// Nearest-rank quantile of the completed latencies (see
    /// [`HistogramSnapshot::quantile`]), clamped to this tally's exact
    /// maximum.
    pub fn quantile(&self, bounds: &[u64], q: f64) -> u64 {
        bucket_quantile(bounds, &self.buckets, self.completed, self.max, q)
    }
}

/// Frozen histogram state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds.
    pub bounds: Vec<u64>,
    /// Counts per bucket; `buckets[bounds.len()]` is the overflow
    /// bucket.
    pub buckets: Vec<u64>,
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value (0 if empty; absent in manifests written
    /// before quantile support and defaulted to 0 on read).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean of recorded values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile estimate for `q ∈ (0, 1]`: the upper bound
    /// of the bucket holding the rank, clamped to the recorded maximum
    /// (so an overflow-bucket or sparse-top rank reports `max`, not an
    /// arbitrary bound). 0 when empty. With log2 bounds the estimate is
    /// within 2× of the true quantile by construction.
    pub fn quantile(&self, q: f64) -> u64 {
        bucket_quantile(&self.bounds, &self.buckets, self.count, self.max, q)
    }

    /// The values recorded between `prev` and this snapshot (both taken
    /// from the same histogram): bucket, count and sum deltas. A
    /// histogram keeps no per-window maximum, so `max` stays this
    /// snapshot's overall maximum and a quantile of the delta clamps to
    /// it. An empty window has quantile 0.
    ///
    /// # Panics
    ///
    /// Panics if the bounds differ.
    pub fn since(&self, prev: &HistogramSnapshot) -> HistogramSnapshot {
        assert_eq!(prev.bounds, self.bounds, "window baseline is from a different histogram");
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .zip(&prev.buckets)
                .map(|(c, p)| c.wrapping_sub(*p))
                .collect(),
            count: self.count.wrapping_sub(prev.count),
            sum: self.sum.wrapping_sub(prev.sum),
            max: self.max,
        }
    }

    /// Median estimate (see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Returns (creating on first use) the counter named `name`.
pub fn counter(name: &str) -> Counter {
    registry()
        .counters
        .lock()
        .unwrap()
        .entry(name.to_string())
        .or_insert_with(|| Counter { cell: Arc::new(AtomicU64::new(0)) })
        .clone()
}

/// Returns (creating on first use) the gauge named `name`.
pub fn gauge(name: &str) -> Gauge {
    registry()
        .gauges
        .lock()
        .unwrap()
        .entry(name.to_string())
        .or_insert_with(|| Gauge { cell: Arc::new(AtomicU64::new(0f64.to_bits())) })
        .clone()
}

/// Returns (creating on first use) the histogram named `name` with the
/// given bucket upper bounds. Bounds are fixed at creation; later calls
/// with different bounds get the existing histogram.
pub fn histogram(name: &str, bounds: &[u64]) -> Arc<Histogram> {
    registry()
        .histograms
        .lock()
        .unwrap()
        .entry(name.to_string())
        .or_insert_with(|| Arc::new(Histogram::new(bounds)))
        .clone()
}

/// A frozen copy of every metric in the registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter name → value (sorted by name).
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value (sorted by name).
    pub gauges: Vec<(String, f64)>,
    /// Histogram name → snapshot (sorted by name).
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Snapshots every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    let r = registry();
    MetricsSnapshot {
        counters: r.counters.lock().unwrap().iter().map(|(k, v)| (k.clone(), v.get())).collect(),
        gauges: r.gauges.lock().unwrap().iter().map(|(k, v)| (k.clone(), v.get())).collect(),
        histograms: r
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect(),
    }
}

/// Zeroes every registered metric (handles stay valid). Used by the
/// bench harness so each run's manifest reflects only that run.
pub fn reset() {
    let r = registry();
    for c in r.counters.lock().unwrap().values() {
        c.cell.store(0, Ordering::Relaxed);
    }
    for g in r.gauges.lock().unwrap().values() {
        g.cell.store(0f64.to_bits(), Ordering::Relaxed);
    }
    for h in r.histograms.lock().unwrap().values() {
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
        h.count.store(0, Ordering::Relaxed);
        h.sum.store(0, Ordering::Relaxed);
        h.max.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_metrics_record_nothing() {
        let _g = crate::test_guard();
        set_enabled(false);
        let c = counter("test.disabled.counter");
        c.incr(5);
        assert_eq!(c.get(), 0);
        let h = histogram("test.disabled.hist", &[1, 2]);
        h.record(1);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn counter_incr_and_wrapping_overflow() {
        let _g = crate::test_guard();
        set_enabled(true);
        let c = counter("test.counter.wrap");
        c.incr(u64::MAX);
        c.incr(2);
        // Wraps modulo 2^64 rather than saturating or panicking.
        assert_eq!(c.get(), 1);
        set_enabled(false);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let _g = crate::test_guard();
        set_enabled(true);
        let h = histogram("test.hist.bounds", &[10, 100, 1000]);
        // On-boundary values land in the bucket whose bound they equal.
        for v in [0, 10] {
            h.record(v);
        }
        h.record(11); // second bucket
        h.record(100); // second bucket (≤ 100)
        h.record(101); // third
        h.record(1000); // third
        h.record(1001); // overflow
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![2, 2, 2, 1]);
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 10 + 11 + 100 + 101 + 1000 + 1001);
        assert_eq!(s.max, 1001);
        assert!((s.mean() - s.sum as f64 / 7.0).abs() < 1e-12);
        set_enabled(false);
    }

    #[test]
    fn log2_bounds_are_powers_of_two() {
        assert_eq!(log2_bounds(4), vec![1, 2, 4, 8, 16]);
        assert_eq!(log2_bounds(0), vec![1]);
        assert_eq!(log2_bounds(200).len(), 64, "exponents clamp at u64 width");
    }

    #[test]
    fn quantiles_are_nearest_rank_bucket_bounds_clamped_to_max() {
        let _g = crate::test_guard();
        set_enabled(true);
        let h = histogram("test.hist.quantiles", &log2_bounds(10));
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // Rank 50 lands in the (32, 64] bucket; the bound overestimates
        // within 2x of the true median 50.
        assert_eq!(s.p50(), 64);
        assert_eq!(s.p90(), 100, "top-bucket ranks clamp to the recorded max");
        assert_eq!(s.p99(), 100);
        assert_eq!(s.quantile(1.0), 100);
        assert_eq!(s.max, 100);
        // Values beyond the last bound land in the overflow bucket and
        // report max.
        let o = histogram("test.hist.quantiles.overflow", &[4]);
        o.record(1_000_000);
        assert_eq!(o.snapshot().quantile(0.5), 1_000_000);
        // Empty histogram: all quantiles 0.
        assert_eq!(histogram("test.hist.quantiles.empty", &[1]).snapshot().p99(), 0);
        set_enabled(false);
    }

    #[test]
    fn windowed_quantiles_see_only_values_after_the_baseline() {
        let _g = crate::test_guard();
        set_enabled(true);
        let h = histogram("test.hist.window", &log2_bounds(10));
        for v in 1..=100u64 {
            h.record(v);
        }
        let baseline = h.snapshot();
        // Empty window: nothing recorded since the baseline.
        assert_eq!(h.snapshot().since(&baseline).p99(), 0);
        // The window sees only the three new values, not the hundred
        // before the baseline.
        for v in [3, 3, 4] {
            h.record(v);
        }
        let now = h.snapshot();
        let window = now.since(&baseline);
        assert_eq!((window.count, window.sum), (3, 10));
        assert_eq!(window.p50(), 4);
        assert_eq!(window.p99(), 4);
        // The full-history quantile still reflects everything.
        assert_eq!(now.p99(), 100);
        set_enabled(false);
    }

    #[test]
    fn windowed_quantiles_single_bucket_edge_cases() {
        let _g = crate::test_guard();
        set_enabled(true);
        // One bound, so two buckets: [0, 8] and overflow.
        let h = histogram("test.hist.window.single", &[8]);
        let empty = h.snapshot();
        assert_eq!(h.snapshot().since(&empty).p50(), 0, "empty window on empty histogram");
        h.record(5);
        // Single in-bounds value: every quantile is the bucket bound
        // clamped to the recorded max.
        assert_eq!(h.snapshot().since(&empty).quantile(0.01), 5);
        assert_eq!(h.snapshot().since(&empty).quantile(1.0), 5);
        let after_first = h.snapshot();
        // Next window holds a single overflow value and reports the max.
        h.record(1_000);
        assert_eq!(h.snapshot().since(&after_first).p50(), 1_000);
        set_enabled(false);
    }

    #[test]
    fn windowed_quantiles_collapse_when_one_bucket_holds_the_window() {
        let _g = crate::test_guard();
        set_enabled(true);
        let h = histogram("test.hist.window.onebucket", &log2_bounds(10));
        h.record(1_000); // pre-baseline history in a high bucket
        let baseline = h.snapshot();
        // Every post-baseline value lands in the (8, 16] bucket, so all
        // quantiles collapse to that bucket's upper bound.
        for v in [9, 11, 13, 16] {
            h.record(v);
        }
        let window = h.snapshot().since(&baseline);
        for q in [0.01, 0.25, 0.50, 0.99, 1.0] {
            assert_eq!(window.quantile(q), 16, "q={q}");
        }
        set_enabled(false);
    }

    #[test]
    fn windowed_quantile_max_clamp_spans_window_rotations() {
        let _g = crate::test_guard();
        set_enabled(true);
        let h = histogram("test.hist.window.maxclamp", &log2_bounds(10));
        // First window: a single mid-bucket value. The clamp uses the
        // overall max (per-window maxima are not tracked), which right
        // now equals this value.
        let w0 = h.snapshot();
        h.record(5);
        assert_eq!(h.snapshot().since(&w0).quantile(1.0), 5);
        let w1 = h.snapshot();
        // Second window raises the overall max into the overflow range;
        // the windowed quantile reports it exactly.
        h.record(2_000);
        assert_eq!(h.snapshot().since(&w1).p50(), 2_000);
        let w2 = h.snapshot();
        // Third window: only small values, but the quantile's bucket
        // bound (8 for value 6) is below the stale overall max, so the
        // clamp is inert and the answer stays window-accurate.
        h.record(6);
        assert_eq!(h.snapshot().since(&w2).quantile(1.0), 8);
        // A fourth window whose values share the overflow bucket with
        // the stale max reports the *overall* max, not the window max —
        // the documented approximation of not tracking per-window
        // maxima.
        let w3 = h.snapshot();
        h.record(1_500);
        assert_eq!(h.snapshot().since(&w3).quantile(1.0), 2_000);
        set_enabled(false);
    }

    #[test]
    #[should_panic(expected = "different histogram")]
    fn windowed_quantile_rejects_foreign_baseline() {
        let _g = crate::test_guard();
        let h = histogram("test.hist.window.foreign.a", &[1, 2]);
        let other = histogram("test.hist.window.foreign.b", &[1, 2, 4]).snapshot();
        let _ = h.snapshot().since(&other);
    }

    #[test]
    fn tally_counts_every_outcome_and_saturates_its_latency_sum() {
        let bounds = log2_bounds(10);
        let mut t = Tally::new(&bounds);
        for (outcome, latency) in [
            (Outcome::Completed { tier: 0 }, 10),
            (Outcome::Completed { tier: 2 }, 12),
            (Outcome::Completed { tier: 0 }, 900),
            (Outcome::Shed, 5),
            (Outcome::TimedOut, 7_000),
            (Outcome::BreakerOpen, 3),
            (Outcome::Failed, 40),
        ] {
            t.add(outcome, latency, &bounds);
        }
        assert_eq!((t.finalized, t.completed, t.degraded), (7, 3, 1));
        assert_eq!((t.shed, t.timed_out, t.errors), (1, 1, 2));
        assert_eq!((t.latency_sum, t.max), (922, 900), "only completions count latency");
        // Nearest rank 2 of 3 lands in (8, 16]; the top rank clamps to
        // the tally's own max, not the (512, 1024] bound.
        assert_eq!((t.quantile(&bounds, 0.5), t.quantile(&bounds, 0.99)), (16, 900));
        let big = Outcome::Completed { tier: 0 };
        assert_eq!(t.add(big, u64::MAX - 1, &bounds), Some(bounds.len()), "overflow bucket");
        assert_eq!(t.latency_sum, u64::MAX, "the sum saturates");
        assert_eq!(Tally::new(&bounds).quantile(&bounds, 0.99), 0, "empty tally");
    }

    #[test]
    fn window_spans_saturate_at_the_end_of_the_clock() {
        assert_eq!(window_span(3, 1000), (3000, 4000));
        assert_eq!(window_span(u64::MAX / 1000, 1000).1, u64::MAX);
        assert_eq!(window_span(u64::MAX, 1), (u64::MAX, u64::MAX));
    }

    #[test]
    fn gauge_last_value_wins() {
        let _g = crate::test_guard();
        set_enabled(true);
        let g = gauge("test.gauge");
        g.set(1.5);
        g.set(-2.25);
        assert_eq!(g.get(), -2.25);
        set_enabled(false);
    }

    #[test]
    fn snapshot_and_reset() {
        let _g = crate::test_guard();
        set_enabled(true);
        let c = counter("test.snapshot.counter");
        c.incr(3);
        let snap = snapshot();
        assert!(snap.counters.iter().any(|(name, v)| name == "test.snapshot.counter" && *v >= 3));
        reset();
        assert_eq!(c.get(), 0);
        set_enabled(false);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[5, 5]);
    }
}
