//! Tumbling-window accumulation on the virtual cycle clock.
//!
//! Window `k` covers virtual cycles `[k·W, (k+1)·W)` for a fixed width
//! `W`, so boundaries are pure functions of cycle time: any two runs
//! that process the same event stream produce the same window series,
//! bit for bit, regardless of `SC_THREADS`. The monitor closes every
//! window whose end is `≤ now` *before* recording events at `now`, so
//! an event on a boundary always lands in the window that starts there.
//!
//! Latency inside a window goes into a private log2-bucket histogram
//! (fresh per window — quantiles are *windowed*, not cumulative), and
//! the frozen [`WindowStats`] carries nearest-rank p50/p90/p99 derived
//! from it via [`HistogramSnapshot::quantile`].

use sc_telemetry::metrics::{log2_bounds, HistogramSnapshot};
use sc_telemetry::{fnv1a_extend, FNV_OFFSET};

/// One closed (or final-partial) window's outcome counts and latency
/// quantiles.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Window index `k` (window covers `[k·W, (k+1)·W)`).
    pub index: u64,
    /// First cycle of the window.
    pub start: u64,
    /// One past the last cycle of the window.
    pub end: u64,
    /// Whether this is the trailing partial window flushed at `finish`
    /// (partial windows are reported but never SLO-evaluated).
    pub partial: bool,
    /// Requests finalized in the window (any outcome).
    pub finalized: u64,
    /// Completions (any tier).
    pub completed: u64,
    /// Completions at a degraded tier (tier ≥ 1).
    pub degraded: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests whose deadline expired.
    pub timed_out: u64,
    /// Backend-caused failures (retry budget exhausted or breaker
    /// fail-fast).
    pub errors: u64,
    /// Per-objective count of completions over the objective's latency
    /// limit (slots for non-latency objectives stay 0).
    pub over_limit: Vec<u64>,
    /// Windowed median completion latency (0 when nothing completed).
    pub p50: u64,
    /// Windowed 90th-percentile completion latency.
    pub p90: u64,
    /// Windowed 99th-percentile completion latency.
    pub p99: u64,
    /// Largest completion latency in the window.
    pub max_latency: u64,
    /// Sum of completion latencies in the window.
    pub latency_sum: u64,
}

impl WindowStats {
    /// Bad-event rate helper: `bad / finalized` (0 on an empty window).
    pub fn rate(&self, bad: u64) -> f64 {
        if self.finalized == 0 {
            0.0
        } else {
            bad as f64 / self.finalized as f64
        }
    }

    /// Serializes to JSON (scalars only; the raw buckets stay
    /// in-memory).
    pub fn to_json(&self) -> sc_telemetry::json::Json {
        use sc_telemetry::json::Json;
        Json::obj(vec![
            ("index", Json::UInt(self.index)),
            ("start", Json::UInt(self.start)),
            ("end", Json::UInt(self.end)),
            ("partial", Json::Bool(self.partial)),
            ("finalized", Json::UInt(self.finalized)),
            ("completed", Json::UInt(self.completed)),
            ("degraded", Json::UInt(self.degraded)),
            ("shed", Json::UInt(self.shed)),
            ("timed_out", Json::UInt(self.timed_out)),
            ("errors", Json::UInt(self.errors)),
            ("over_limit", Json::Arr(self.over_limit.iter().map(|&v| Json::UInt(v)).collect())),
            ("p50", Json::UInt(self.p50)),
            ("p90", Json::UInt(self.p90)),
            ("p99", Json::UInt(self.p99)),
            ("max_latency", Json::UInt(self.max_latency)),
            ("latency_sum", Json::UInt(self.latency_sum)),
        ])
    }

    /// Flattens every field into `u64`s for bitwise-determinism
    /// assertions.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut fp = vec![
            self.index,
            self.start,
            self.end,
            self.partial as u64,
            self.finalized,
            self.completed,
            self.degraded,
            self.shed,
            self.timed_out,
            self.errors,
            self.p50,
            self.p90,
            self.p99,
            self.max_latency,
            self.latency_sum,
        ];
        fp.extend(self.over_limit.iter().copied());
        fp
    }

    /// Order-sensitive hash of [`WindowStats::fingerprint`].
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for w in self.fingerprint() {
            h = fnv1a_extend(h, &w.to_le_bytes());
        }
        h
    }
}

/// The open window the monitor is currently accumulating into.
#[derive(Debug)]
pub(crate) struct WindowAccum {
    index: u64,
    width: u64,
    finalized: u64,
    completed: u64,
    degraded: u64,
    shed: u64,
    timed_out: u64,
    errors: u64,
    over_limit: Vec<u64>,
    bounds: Vec<u64>,
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl WindowAccum {
    /// Opens window `index` of width `width` with `slots` per-objective
    /// over-limit counters.
    pub(crate) fn new(index: u64, width: u64, slots: usize) -> WindowAccum {
        let bounds = log2_bounds(32);
        let buckets = vec![0u64; bounds.len() + 1];
        WindowAccum {
            index,
            width,
            finalized: 0,
            completed: 0,
            degraded: 0,
            shed: 0,
            timed_out: 0,
            errors: 0,
            over_limit: vec![0; slots],
            bounds,
            buckets,
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// One past the last cycle this window covers.
    pub(crate) fn end(&self) -> u64 {
        (self.index + 1).saturating_mul(self.width)
    }

    pub(crate) fn index(&self) -> u64 {
        self.index
    }

    pub(crate) fn note_completed(&mut self, latency: u64, degraded: bool) {
        self.finalized += 1;
        self.completed += 1;
        if degraded {
            self.degraded += 1;
        }
        let idx = self.bounds.partition_point(|&b| b < latency);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += latency;
        self.max = self.max.max(latency);
    }

    pub(crate) fn note_shed(&mut self) {
        self.finalized += 1;
        self.shed += 1;
    }

    pub(crate) fn note_timed_out(&mut self) {
        self.finalized += 1;
        self.timed_out += 1;
    }

    pub(crate) fn note_error(&mut self) {
        self.finalized += 1;
        self.errors += 1;
    }

    pub(crate) fn note_over_limit(&mut self, slot: usize) {
        self.over_limit[slot] += 1;
    }

    /// Whether anything was recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.finalized == 0
    }

    /// Freezes into a [`WindowStats`], deriving windowed quantiles.
    pub(crate) fn freeze(&self, partial: bool) -> WindowStats {
        let snap = HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self.buckets.clone(),
            count: self.count,
            sum: self.sum,
            max: self.max,
        };
        WindowStats {
            index: self.index,
            start: self.index.saturating_mul(self.width),
            end: self.end(),
            partial,
            finalized: self.finalized,
            completed: self.completed,
            degraded: self.degraded,
            shed: self.shed,
            timed_out: self.timed_out,
            errors: self.errors,
            over_limit: self.over_limit.clone(),
            p50: snap.p50(),
            p90: snap.p90(),
            p99: snap.p99(),
            max_latency: self.max,
            latency_sum: self.sum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_are_pure_functions_of_the_index() {
        let w = WindowAccum::new(3, 1000, 2);
        let s = w.freeze(false);
        assert_eq!((s.start, s.end), (3000, 4000));
        assert!(!s.partial);
        assert_eq!(s.over_limit, vec![0, 0]);
    }

    #[test]
    fn windowed_quantiles_reflect_only_this_window() {
        let mut w = WindowAccum::new(0, 100, 0);
        for lat in [10, 10, 12, 900] {
            w.note_completed(lat, false);
        }
        w.note_shed();
        w.note_error();
        let s = w.freeze(false);
        assert_eq!(s.finalized, 6);
        assert_eq!(s.completed, 4);
        assert_eq!((s.shed, s.errors), (1, 1));
        // Log2 nearest-rank: median of {10,10,12,900} lands in (8,16].
        assert_eq!(s.p50, 16);
        assert_eq!(s.p99, 900, "top rank clamps to the window max");
        assert_eq!(s.max_latency, 900);
        assert_eq!(s.latency_sum, 932);
        assert!((s.rate(s.completed) - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_window_freezes_to_zeros() {
        let w = WindowAccum::new(5, 64, 1);
        assert!(w.is_empty());
        let s = w.freeze(true);
        assert!(s.partial);
        assert_eq!((s.finalized, s.p50, s.p99, s.max_latency), (0, 0, 0, 0));
        assert_eq!(s.rate(0), 0.0);
    }

    #[test]
    fn fingerprint_changes_with_any_field() {
        let mut w = WindowAccum::new(0, 10, 1);
        w.note_completed(3, true);
        let a = w.freeze(false);
        let mut b = a.clone();
        b.over_limit[0] = 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.digest(), b.digest());
    }
}
