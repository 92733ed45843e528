//! Tumbling-window statistics on the virtual cycle clock.
//!
//! Window `k` covers virtual cycles `[k·W, (k+1)·W)` for a fixed width
//! `W` ([`window_span`]), so boundaries are pure functions of cycle
//! time: any two runs that process the same event stream produce the
//! same window series, bit for bit, regardless of `SC_THREADS`. The
//! monitor closes every window whose end is `≤ now` *before* recording
//! events at `now`, so an event on a boundary always lands in the window
//! that starts there.
//!
//! The open window is a [`Tally`] (fresh per window — quantiles are
//! *windowed*, not cumulative), the same aggregate the obs log keeps per
//! window, and the frozen [`WindowStats`] carries its nearest-rank
//! p50/p90/p99 via [`Tally::quantile`].

use sc_telemetry::fnv1a_words;
use sc_telemetry::metrics::{window_span, Tally};

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
        fnv1a_words(&self.fingerprint())
    }

    /// Freezes window `index` of `width` cycles from its tally and its
    /// per-objective over-limit counts, deriving the windowed quantiles.
    pub(crate) fn freeze(
        index: u64,
        width: u64,
        tally: &Tally,
        bounds: &[u64],
        over_limit: &[u64],
        partial: bool,
    ) -> WindowStats {
        let (start, end) = window_span(index, width);
        WindowStats {
            index,
            start,
            end,
            partial,
            finalized: tally.finalized,
            completed: tally.completed,
            degraded: tally.degraded,
            shed: tally.shed,
            timed_out: tally.timed_out,
            errors: tally.errors,
            over_limit: over_limit.to_vec(),
            p50: tally.quantile(bounds, 0.50),
            p90: tally.quantile(bounds, 0.90),
            p99: tally.quantile(bounds, 0.99),
            max_latency: tally.max,
            latency_sum: tally.latency_sum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_telemetry::metrics::{log2_bounds, Outcome};

    #[test]
    fn boundaries_are_pure_functions_of_the_index() {
        let bounds = log2_bounds(32);
        let s = WindowStats::freeze(3, 1000, &Tally::new(&bounds), &bounds, &[0, 0], false);
        assert_eq!((s.start, s.end), (3000, 4000));
        assert!(!s.partial);
        assert_eq!(s.over_limit, vec![0, 0]);
    }

    #[test]
    fn windowed_quantiles_reflect_only_this_window() {
        let bounds = log2_bounds(32);
        let mut t = Tally::new(&bounds);
        for latency in [10, 10, 12, 900] {
            t.add(Outcome::Completed { tier: 0 }, latency, &bounds);
        }
        t.add(Outcome::Shed, 0, &bounds);
        t.add(Outcome::Failed, 0, &bounds);
        let s = WindowStats::freeze(0, 100, &t, &bounds, &[], false);
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
        let bounds = log2_bounds(32);
        let s = WindowStats::freeze(5, 64, &Tally::new(&bounds), &bounds, &[0], true);
        assert!(s.partial);
        assert_eq!((s.finalized, s.p50, s.p99, s.max_latency), (0, 0, 0, 0));
        assert_eq!(s.rate(0), 0.0);
    }

    #[test]
    fn fingerprint_changes_with_any_field() {
        let bounds = log2_bounds(32);
        let mut t = Tally::new(&bounds);
        t.add(Outcome::Completed { tier: 1 }, 3, &bounds);
        let a = WindowStats::freeze(0, 10, &t, &bounds, &[0], false);
        let mut b = a.clone();
        b.over_limit[0] = 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.digest(), b.digest());
    }
}
