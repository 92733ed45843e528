//! The Fig. 5 engine: running error statistics of SC multipliers over all
//! input combinations.
//!
//! Errors are in the *value* domain (the exact product `x·w / 2^(2N)` at
//! twice the operand precision, per the paper's definition), measured at
//! snapshot cycles `2^s` for `s = 0..=N`. For the proposed multiplier the
//! snapshot at index `s` reads the counter at cycle `⌊k / 2^(N−s)⌋`
//! (footnote 2 of the paper), whose value estimates the product at `s`-bit
//! weight resolution: `est = P / 2^s`.

use sc_core::bitplane::count_ones_prefix;
use sc_core::conventional::ConvScMethod;
use sc_core::seq::prefix_sum;
use sc_core::sng::collect_stream_words;
use sc_core::stats::ErrorStats;
use sc_core::Precision;

/// Statistics of one (method, precision, snapshot) point of Fig. 5.
#[derive(Debug, Clone)]
pub struct Fig5Point {
    /// Method name as printed in the figure.
    pub method: String,
    /// Multiplier precision `N`.
    pub precision: u32,
    /// Snapshot index `s` (x-axis; the snapshot is at cycle `2^s`).
    pub snapshot: u32,
    /// Hardware cycles elapsed at this snapshot.
    pub cycles: u64,
    /// Value-domain error statistics over the swept input pairs.
    pub stats: ErrorStats,
}

/// Sweeps a conventional SC method (unipolar AND multiply) over all input
/// pairs `(x, w)` with the given stride (1 = exhaustive), returning one
/// [`Fig5Point`] per snapshot `s = 0..=N`.
///
/// Implementation: the full `2^N`-bit stream of every code is precomputed
/// into packed 64-bit words for both generators, so each pair's product
/// prefix counts reduce to AND + popcount.
///
/// # Panics
///
/// Panics if the method's generators cannot be constructed (no LFSR
/// polynomial — impossible for supported precisions).
pub fn sweep_conventional(n: Precision, method: ConvScMethod, stride: usize) -> Vec<Fig5Point> {
    let (mut gen_x, mut gen_w) = method.generator_pair(n).expect("supported precision");
    let size = n.stream_len() as usize;
    let sx: Vec<Vec<u64>> =
        (0..size as u32).map(|c| collect_stream_words(gen_x.as_mut(), c)).collect();
    let sw: Vec<Vec<u64>> =
        (0..size as u32).map(|c| collect_stream_words(gen_w.as_mut(), c)).collect();

    let bits = n.bits();
    // ED consumes 32 stream bits per hardware cycle.
    let bits_per_cycle: u64 = if method == ConvScMethod::Ed { 32 } else { 1 };
    let full = n.stream_len();
    let snapshots: Vec<u64> =
        (0..=bits).map(|s| ((1u64 << s) * bits_per_cycle).min(full)).collect();

    let denom = (full * full) as f64;
    // The (x, w) sweep is embarrassingly parallel: chunk the x values on
    // the sc-par pool, accumulate per-chunk Welford statistics, and merge
    // them in ascending chunk order. The chunk plan depends only on the
    // number of x values, so the merged statistics are bitwise identical
    // at any thread count.
    let xs: Vec<usize> = (0..size).step_by(stride).collect();
    let chunked = sc_par::Pool::global().parallel_chunks(xs.len(), |range| {
        let mut stats = vec![ErrorStats::new(); snapshots.len()];
        let mut and_words = vec![0u64; sx[0].len()];
        for &x in &xs[range] {
            let row = &sx[x];
            for w in (0..size).step_by(stride) {
                for ((o, a), b) in and_words.iter_mut().zip(row).zip(&sw[w]) {
                    *o = a & b;
                }
                let exact = (x as u64 * w as u64) as f64 / denom;
                for (st, &p) in stats.iter_mut().zip(&snapshots) {
                    let est = count_ones_prefix(&and_words, p) as f64 / p as f64;
                    st.push(est - exact);
                }
            }
        }
        stats
    });
    let mut stats = vec![ErrorStats::new(); snapshots.len()];
    for part in chunked {
        for (st, p) in stats.iter_mut().zip(&part) {
            st.merge(p);
        }
    }

    stats
        .into_iter()
        .enumerate()
        .map(|(s, st)| Fig5Point {
            method: method.name().to_string(),
            precision: bits,
            snapshot: s as u32,
            cycles: snapshots[s] / bits_per_cycle,
            stats: st,
        })
        .collect()
}

/// Sweeps the proposed SC multiplier over all input pairs with the given
/// stride, using the closed-form prefix sums.
pub fn sweep_proposed(n: Precision, stride: usize) -> Vec<Fig5Point> {
    let bits = n.bits();
    let size = n.stream_len() as usize;
    let denom = (n.stream_len() * n.stream_len()) as f64;
    // Chunked over x like `sweep_conventional`: per-chunk statistics
    // merged in ascending chunk order keep the result thread-invariant.
    let xs: Vec<u32> = (0..size as u32).step_by(stride).collect();
    let chunked = sc_par::Pool::global().parallel_chunks(xs.len(), |range| {
        let mut stats = vec![ErrorStats::new(); bits as usize + 1];
        for &x in &xs[range] {
            for w in (0..size as u64).step_by(stride) {
                let exact = (x as u64 * w) as f64 / denom;
                for s in 0..=bits {
                    let t = w >> (bits - s);
                    let p = prefix_sum(x, n, t);
                    let est = p as f64 / (1u64 << s) as f64;
                    stats[s as usize].push(est - exact);
                }
            }
        }
        stats
    });
    let mut stats = vec![ErrorStats::new(); bits as usize + 1];
    for part in chunked {
        for (st, p) in stats.iter_mut().zip(&part) {
            st.merge(p);
        }
    }
    stats
        .into_iter()
        .enumerate()
        .map(|(s, st)| Fig5Point {
            method: "Proposed".to_string(),
            precision: bits,
            snapshot: s as u32,
            // Data-dependent; report the worst case k = 2^N at this
            // resolution for the x-axis, like the paper's cycle 2^s.
            cycles: 1u64 << s,
            stats: st,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(bits: u32) -> Precision {
        Precision::new(bits).unwrap()
    }

    #[test]
    fn final_snapshot_ordering_matches_paper() {
        // At the end of the stream (s = N): Halton < LFSR in std-dev, and
        // Proposed < Halton (the paper: "ours has much less error, about
        // 1/3 of Halton").
        let n = p(8);
        let lfsr = sweep_conventional(n, ConvScMethod::Lfsr, 1);
        let halton = sweep_conventional(n, ConvScMethod::Halton, 1);
        let ours = sweep_proposed(n, 1);
        let last = |v: &Vec<Fig5Point>| v.last().unwrap().stats.std_dev();
        assert!(last(&halton) < last(&lfsr), "halton {} vs lfsr {}", last(&halton), last(&lfsr));
        assert!(
            last(&ours) < last(&halton) * 0.6,
            "ours {} vs halton {}",
            last(&ours),
            last(&halton)
        );
    }

    #[test]
    fn proposed_is_zero_biased() {
        // "Zero-biased" in the paper's sense: the residual bias (from
        // round-half-up ties) is well below one output LSB, and below the
        // LFSR method's bias.
        let n = p(8);
        let lsb = 1.0 / 256.0;
        let ours = sweep_proposed(n, 1);
        let final_mean = ours.last().unwrap().stats.mean();
        assert!(final_mean.abs() < 0.5 * lsb, "bias {final_mean}");
        let lfsr = sweep_conventional(n, ConvScMethod::Lfsr, 1);
        let lfsr_mean = lfsr.last().unwrap().stats.mean();
        assert!(final_mean.abs() < lfsr_mean.abs(), "ours {final_mean} vs lfsr {lfsr_mean}");
    }

    #[test]
    fn error_shrinks_with_cycles() {
        let n = p(7);
        for pts in [sweep_conventional(n, ConvScMethod::Halton, 1), sweep_proposed(n, 1)] {
            let first = pts[1].stats.std_dev();
            let last = pts.last().unwrap().stats.std_dev();
            assert!(last < first, "{}: {first} -> {last}", pts[0].method);
        }
    }

    #[test]
    fn ed_snapshots_account_for_32_bits_per_cycle() {
        let n = p(10);
        let ed = sweep_conventional(n, ConvScMethod::Ed, 64);
        // After 2^5 cycles ED has consumed the whole 1024-bit stream, so
        // later snapshots are identical.
        let s5 = &ed[5].stats;
        let s10 = &ed[10].stats;
        assert_eq!(s5.std_dev(), s10.std_dev());
        assert_eq!(ed[5].cycles, 32);
    }

    #[test]
    fn proposed_max_error_bound_in_value_domain() {
        // Final-snapshot max |error| ≤ (N/2) / 2^N in value domain.
        let n = p(8);
        let ours = sweep_proposed(n, 1);
        let max = ours.last().unwrap().stats.max_abs();
        assert!(max <= 4.0 / 256.0 + 1e-12, "max {max}");
    }

    #[test]
    fn stride_subsampling_keeps_shape() {
        let n = p(8);
        let full = sweep_proposed(n, 1);
        let sub = sweep_proposed(n, 4);
        let (a, b) = (full.last().unwrap().stats.std_dev(), sub.last().unwrap().stats.std_dev());
        assert!((a - b).abs() / a < 0.35, "full {a} vs strided {b}");
    }
}
