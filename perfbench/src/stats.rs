//! Pure helpers behind every reported number: nearest-rank
//! percentiles with their sample counts, self time of a span, the
//! `rate_at_slo` selection, failure shares, and the statistics digest.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it. `None` when empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A sample of host timings reduced to the numbers the benchmark
/// reports, with the count they rest on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples the percentiles rest on.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
    /// Samples strictly above `p90` (a reported percentile wants at least ten).
    pub beyond_p90: usize,
}

impl Summary {
    /// Summarizes `samples` (any order). `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p50 = nearest_rank(&sorted, 50.0)?;
        let p90 = nearest_rank(&sorted, 90.0)?;
        let beyond_p90 = sorted.iter().filter(|&&v| v > p90).count();
        Some(Summary { n: sorted.len(), p50, p90, beyond_p90 })
    }
}

/// Nearest-rank median of `samples` (any order); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.p50)
}

/// The median of `samples`, averaging the two middle ones of an even
/// count (so a pair gives its mean); 0 when empty.
pub fn mean_of_middle(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Self time of a span `[start, end)`: its duration minus the part of
/// that interval its children cover. Children may overlap each other or
/// stick out of the parent; only covered parent time is subtracted.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|&(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    end.saturating_sub(start) - covered
}

/// One fixed-rate replay of the serving storm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatePoint {
    /// Arrival rate, requests per 1000 virtual ticks.
    pub rate: f64,
    /// Requests sent.
    pub sent: u64,
    /// Requests completed within the latency limit. Shed, timed-out
    /// and failed requests are misses, as are late completions.
    pub within_limit: u64,
}

impl RatePoint {
    /// Whether at least `share` of the sent requests met the limit.
    pub fn meets(&self, share: f64) -> bool {
        self.sent > 0 && self.within_limit as f64 >= share * self.sent as f64
    }
}

/// The highest rate that meets the objective with every lower rate
/// meeting it too (the sustained rate, not a lucky point past a
/// failure). `None` when the lowest rate already misses.
pub fn rate_at_slo(points: &[RatePoint], share: f64) -> Option<f64> {
    let mut sorted = points.to_vec();
    sorted.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    sorted.iter().take_while(|p| p.meets(share)).last().map(|p| p.rate)
}

/// Share of attempted calls that failed; its base is `attempted`.
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        return 1.0;
    }
    failed as f64 / attempted as f64
}

/// FNV-1a over a stream of words: the simulated-statistics digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds a sequence of words in.
    pub fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }

    /// Folds signed values in (two's-complement bits).
    pub fn signed(&mut self, vs: &[i64]) {
        self.words(vs.iter().map(|&v| v as u64));
    }

    /// Folds text in (length-prefixed).
    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&s, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&s, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&s, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn summary_reports_its_sample_count() {
        // Unsorted input; 100 samples put exactly ten beyond p90.
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, 90.0);
        assert_eq!(s.beyond_p90, 10);
        // Ties at the percentile are not "beyond" it.
        let s = Summary::of(&[1.0, 2.0, 2.0, 2.0]).unwrap();
        assert_eq!((s.n, s.p50, s.p90, s.beyond_p90), (4, 2.0, 2.0, 0));
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn mean_of_middle_averages_an_even_middle() {
        assert_eq!(mean_of_middle(&[]), 0.0);
        assert_eq!(mean_of_middle(&[3.0]), 3.0);
        assert_eq!(mean_of_middle(&[4.0, 2.0]), 3.0);
        assert_eq!(mean_of_middle(&[9.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean_of_middle(&[1.0, 100.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_only_covered_parent_time() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children are counted once.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 50)]), 60);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 30)]), 3);
        // A child covering everything leaves no self time.
        assert_eq!(self_time((5, 9), &[(0, 100)]), 0);
        // Empty and disjoint children cost nothing.
        assert_eq!(self_time((0, 10), &[(4, 4), (20, 30)]), 10);
    }

    #[test]
    fn rate_at_slo_counts_misses_and_stops_at_the_first_failure() {
        let p = |rate, sent, within_limit| RatePoint { rate, sent, within_limit };
        // 99% target: 990 of 1000 passes; 989 fails.
        let pts = [p(4.0, 1000, 1000), p(8.0, 1000, 990), p(12.0, 1000, 989)];
        assert_eq!(rate_at_slo(&pts, 0.99), Some(8.0));
        // Input order does not matter.
        let shuffled = [pts[2], pts[0], pts[1]];
        assert_eq!(rate_at_slo(&shuffled, 0.99), Some(8.0));
        // A pass above a failure is not sustained capacity.
        let bumpy = [p(4.0, 100, 100), p(8.0, 100, 90), p(12.0, 100, 100)];
        assert_eq!(rate_at_slo(&bumpy, 0.99), Some(4.0));
        // Misses (shed / timed out / failed / late) all lower the count:
        // nothing meets, so there is no rate.
        assert_eq!(rate_at_slo(&[p(4.0, 100, 0)], 0.99), None);
        // Nothing sent never meets.
        assert_eq!(rate_at_slo(&[p(4.0, 0, 0)], 0.99), None);
    }

    #[test]
    fn failed_share_is_over_attempted_calls() {
        assert_eq!(failed_share(0, 1000), 0.0);
        assert_eq!(failed_share(5, 1000), 0.005);
        assert_eq!(failed_share(3, 3), 1.0);
        // No attempts is a failed run, not a perfect one.
        assert_eq!(failed_share(0, 0), 1.0);
    }

    #[test]
    fn digest_is_order_and_value_sensitive() {
        let mut a = Digest::default();
        a.words([1, 2, 3]);
        let mut b = Digest::default();
        b.words([1, 2, 3]);
        assert_eq!(a, b);
        let mut c = Digest::default();
        c.words([3, 2, 1]);
        assert_ne!(a, c);
        let mut d = Digest::default();
        d.text("ab");
        let mut e = Digest::default();
        e.text("a");
        e.text("b");
        assert_ne!(d, e);
    }
}
