//! **Bitplane execution engine** — packed-`u64` popcount kernels for the
//! FSM+MUX low-discrepancy stream (paper Sec. 2.5's bit-parallel
//! formulation, generalized).
//!
//! The proposed multiplier's stream bit at 0-based position `p` (cycle
//! `t = p + 1`) is operand bit `x_{N-1-i}` where `i = ctz(t)` (and 0 when
//! `i ≥ N`). Selector `i` therefore fires exactly at positions
//! `p ≡ 2^i − 1 (mod 2^(i+1))` — a fixed periodic bit pattern. Packing 64
//! consecutive stream positions into one `u64` word (`p = 64·wi + b`, bit
//! `b` of word `wi`, the same layout as [`crate::sng::collect_stream_words`])
//! makes each selector's contribution a *constant mask* per word:
//!
//! * selectors `i ≤ 5` have period `2^(i+1) ≤ 64`, so their pattern is the
//!   same in every word ([`LOW_MASKS`]);
//! * selectors `i ≥ 6` have period `> 64` and can only hit bit 63 of a
//!   word (`2^i − 1 ≡ 63 (mod 64)`); the selector hitting word `wi` is
//!   `i = 6 + ctz(wi + 1)`.
//!
//! A whole 64-cycle window of the stream is thus materialized in ~6 OR
//! operations ([`stream_word`]), and prefix/range ones-counts — the
//! quantities every MAC/MVM counter in this workspace reduces to — become
//! masked popcounts ([`prefix_ones`], [`range_ones`]). EDT truncation
//! (stop after `t = ⌊k/2^(N−s)⌋` cycles) is just a shorter prefix mask.
//!
//! Because the selector rule is purely periodic in `p`, every kernel here
//! is valid for arbitrary positions, matching the hardware FSM's
//! wrap-around behaviour exactly (the `ctz(t) ≥ N` "constant 0" cycle
//! included).
//!
//! ## Engine selection
//!
//! [`engine`] picks between [`EngineKind::Bitplane`] (the packed kernels;
//! the default) and [`EngineKind::CycleAccurate`] (serial per-cycle
//! walks — the golden reference). Select with the `SC_ENGINE` environment
//! variable (`bitplane` | `cycle`) or programmatically with
//! [`set_engine`]. Both engines are proven bitwise identical by property
//! tests in this crate, `sc-rtlsim`, and `sc-accel`; the RTL datapaths
//! additionally fall back to the cycle path whenever fault sites are
//! armed, so injected faults always interact with real per-cycle state.

use crate::num::MAX_PRECISION;
use crate::{seq, Precision};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which execution engine the hot paths use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Serial per-cycle simulation — the golden reference path.
    CycleAccurate,
    /// Packed-`u64` popcount kernels (64 stream positions per word).
    Bitplane,
}

impl EngineKind {
    /// The engine's canonical name (`"cycle"` / `"bitplane"`), as spelled
    /// in `SC_ENGINE` and recorded in run-manifest config.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::CycleAccurate => "cycle",
            EngineKind::Bitplane => "bitplane",
        }
    }

    /// Parses an engine name (the `SC_ENGINE` grammar).
    pub fn parse(s: &str) -> Option<EngineKind> {
        match s.trim() {
            "cycle" | "cycle-accurate" | "cycle_accurate" => Some(EngineKind::CycleAccurate),
            "bitplane" => Some(EngineKind::Bitplane),
            _ => None,
        }
    }
}

/// Programmatic override: 0 = none, 1 = cycle-accurate, 2 = bitplane.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn env_engine() -> EngineKind {
    static ENV: OnceLock<EngineKind> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("SC_ENGINE") {
        // A typo'd engine name silently falling back to the default
        // would swap execution engines without a trace: hard error.
        Ok(v) if v.trim().is_empty() => EngineKind::Bitplane,
        Ok(v) => EngineKind::parse(&v).unwrap_or_else(|| {
            panic!(
                "invalid SC_ENGINE value {v:?}: expected one of \"cycle\", \"cycle-accurate\", \
                 \"cycle_accurate\", or \"bitplane\""
            )
        }),
        Err(_) => EngineKind::Bitplane,
    })
}

/// The active engine: the [`set_engine`] override if set, else `SC_ENGINE`
/// (read once per process), else [`EngineKind::Bitplane`].
#[inline]
pub fn engine() -> EngineKind {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => EngineKind::CycleAccurate,
        2 => EngineKind::Bitplane,
        _ => env_engine(),
    }
}

/// Sets (or with `None` clears) the process-wide engine override. Takes
/// precedence over `SC_ENGINE`. Intended for tests and benches that
/// cross-check both engines in one process.
pub fn set_engine(kind: Option<EngineKind>) {
    let v = match kind {
        None => 0,
        Some(EngineKind::CycleAccurate) => 1,
        Some(EngineKind::Bitplane) => 2,
    };
    OVERRIDE.store(v, Ordering::Relaxed);
}

/// Serializes this crate's unit tests that switch the process-wide
/// engine.
#[cfg(test)]
pub(crate) static TEST_ENGINE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Per-word bit patterns of selectors `i = 0..=5` (periods `2 ..= 64`):
/// `LOW_MASKS[i]` has a 1 at every bit `b ≡ 2^i − 1 (mod 2^(i+1))`.
pub const LOW_MASKS: [u64; 6] = [
    0x5555_5555_5555_5555, // i = 0: b ≡ 0 (mod 2)
    0x2222_2222_2222_2222, // i = 1: b ≡ 1 (mod 4)
    0x0808_0808_0808_0808, // i = 2: b ≡ 3 (mod 8)
    0x0080_0080_0080_0080, // i = 3: b ≡ 7 (mod 16)
    0x0000_8000_0000_8000, // i = 4: b ≡ 15 (mod 32)
    0x0000_0000_8000_0000, // i = 5: b ≡ 31 (mod 64)
];

/// Materializes packed word `wi` of the FSM+MUX stream for (offset-binary)
/// operand `u`: bit `b` is the stream bit at position `p = 64·wi + b`
/// (cycle `t = p + 1`). Valid for any `wi` — the pattern is the periodic
/// continuation the wrapping hardware FSM produces.
#[inline]
pub fn stream_word(u: u32, n: Precision, wi: u64) -> u64 {
    let bits = n.bits();
    let mut w = 0u64;
    for (i, mask) in LOW_MASKS.iter().enumerate().take(bits.min(6) as usize) {
        if (u >> (bits - 1 - i as u32)) & 1 == 1 {
            w |= mask;
        }
    }
    if bits > 6 {
        // Only selector i = 6 + ctz(wi+1) can hit this word (bit 63).
        let i = 6 + (wi + 1).trailing_zeros();
        if i < bits && (u >> (bits - 1 - i)) & 1 == 1 {
            w |= 1u64 << 63;
        }
    }
    w
}

/// Packed words an engine scans to count a `k`-cycle prefix:
/// `⌈k / 64⌉`.
#[inline]
pub fn words_in_prefix(k: u64) -> u64 {
    k.div_ceil(64)
}

/// Packed words an engine scans to count the range `lo..hi` (0-based
/// stream positions, half-open).
#[inline]
pub fn words_in_range(lo: u64, hi: u64) -> u64 {
    if lo >= hi {
        0
    } else {
        (hi - 1) / 64 - lo / 64 + 1
    }
}

/// Ones in the first `k` stream positions of operand `u` — the bitplane
/// evaluation of [`seq::prefix_sum`] (proved equal by tests): full-word
/// popcounts plus one masked tail popcount.
pub fn prefix_ones(u: u32, n: Precision, k: u64) -> u64 {
    let full = k / 64;
    let mut ones = 0u64;
    for wi in 0..full {
        ones += stream_word(u, n, wi).count_ones() as u64;
    }
    let rem = k % 64;
    if rem > 0 {
        ones += (stream_word(u, n, full) & ((1u64 << rem) - 1)).count_ones() as u64;
    }
    ones
}

/// Ones in stream positions `lo..hi` (half-open) of operand `u` — the
/// bitplane evaluation of [`seq::range_sum`].
pub fn range_ones(u: u32, n: Precision, lo: u64, hi: u64) -> u64 {
    debug_assert!(lo <= hi);
    if lo == hi {
        return 0;
    }
    let w0 = lo / 64;
    let w1 = (hi - 1) / 64;
    let mut ones = 0u64;
    for wi in w0..=w1 {
        let base = wi * 64;
        let mut w = stream_word(u, n, wi);
        if lo > base {
            w &= !((1u64 << (lo - base)) - 1);
        }
        if hi < base + 64 {
            w &= (1u64 << (hi - base)) - 1;
        }
        ones += w.count_ones() as u64;
    }
    ones
}

/// A guarded signed range scan: everything an RTL up/down counter fast
/// path needs from one pass over the packed words.
#[derive(Debug, Clone, Copy)]
pub struct RangeScan {
    /// Net counter movement `Σ (2·bit − 1)` over positions `lo..hi`, with
    /// the weight-sign XOR already applied.
    pub delta: i64,
    /// Packed words examined.
    pub words: u64,
    /// Conservative lower bound on the running counter excursion during
    /// the scan, relative to 0 at `lo` (see [`scan_signed_range`]).
    pub lo_bound: i64,
    /// Conservative upper bound on the running excursion.
    pub hi_bound: i64,
}

/// Scans stream positions `lo..hi` of operand `u`, XORs every bit with
/// `w_sign`, and returns the net up/down-counter delta together with
/// conservative bounds on the *per-cycle* counter trajectory.
///
/// The bounds come from tracking the running value at every word boundary
/// and allowing a `±64` excursion inside a word (a word contributes at
/// most 64 steps). If `v0 + lo_bound` and `v0 + hi_bound` both lie inside
/// a saturating accumulator's representable range, then applying `delta`
/// in one `add` is bit-identical to stepping the accumulator per cycle —
/// no intermediate value can clamp. Otherwise the caller must fall back to
/// the per-cycle walk.
pub fn scan_signed_range(u: u32, n: Precision, lo: u64, hi: u64, w_sign: bool) -> RangeScan {
    debug_assert!(lo <= hi);
    let mut r = 0i64;
    let mut min_b = 0i64;
    let mut max_b = 0i64;
    let mut words = 0u64;
    if lo < hi {
        let w0 = lo / 64;
        let w1 = (hi - 1) / 64;
        for wi in w0..=w1 {
            let base = wi * 64;
            let s = lo.max(base);
            let e = hi.min(base + 64);
            let mut w = stream_word(u, n, wi);
            if s > base {
                w &= !((1u64 << (s - base)) - 1);
            }
            if e < base + 64 {
                w &= (1u64 << (e - base)) - 1;
            }
            let nbits = (e - s) as i64;
            let mut ones = w.count_ones() as i64;
            if w_sign {
                ones = nbits - ones;
            }
            r += 2 * ones - nbits;
            min_b = min_b.min(r);
            max_b = max_b.max(r);
            words += 1;
        }
    }
    RangeScan { delta: r, words, lo_bound: min_b - 64, hi_bound: max_b + 64 }
}

/// Analytic popcount of selector `z`'s bitplane over stream positions
/// `lo..hi` (half-open): the number of positions `p` with
/// `p ≡ 2^z − 1 (mod 2^(z+1))`. Exactly what popcounting
/// `LOW_MASKS[z] & range` over the packed words yields, evaluated in
/// closed form so it costs O(1) instead of O(words).
#[inline]
pub fn plane_count(z: u32, lo: u64, hi: u64) -> u64 {
    let at = |m: u64| (m + (1u64 << z)) >> (z + 1);
    if lo >= hi {
        0
    } else {
        at(hi) - at(lo)
    }
}

/// Nibble tables a [`RangeCounts`] needs to cover every operand bit at
/// [`MAX_PRECISION`].
const NIBBLE_TABLES: usize = MAX_PRECISION.div_ceil(4) as usize;

/// Shared bitplane occupancy of one cycle range, amortized across the
/// lanes of an MVM: the per-selector plane popcounts over `lo..hi`
/// depend only on the range — never on a lane's operand — so they are
/// computed once per term ([`RangeCounts::new`]) and folded into nibble
/// lookup tables. Each lane's ones-count is then one table read per
/// operand nibble ([`RangeCounts::ones`]), independent of the range
/// length: the MVM fast path becomes O(p) per term instead of O(p·k).
#[derive(Debug, Clone)]
pub struct RangeCounts {
    len: u64,
    /// `tables[t][v]`: Σ over the set bits `j` of nibble value `v` of
    /// the plane count attached to operand bit `4t + j` (0 for bits
    /// beyond the precision).
    tables: [[u64; 16]; NIBBLE_TABLES],
}

impl RangeCounts {
    /// Builds the shared occupancy tables for positions `lo..hi` at
    /// precision `n`.
    pub fn new(n: Precision, lo: u64, hi: u64) -> RangeCounts {
        let bits = n.bits();
        let mut tables = [[0u64; 16]; NIBBLE_TABLES];
        for b in 0..bits {
            // Operand bit b (LSB-based) is picked by selector z = bits-1-b.
            // Adding it as bit j of its nibble fills the table entries
            // that have bit j as their highest set bit:
            // table[v | 1<<j] = table[v] + weight_j for every v < 2^j.
            let weight = plane_count(bits - 1 - b, lo, hi);
            let (table, j) = (&mut tables[(b / 4) as usize], b % 4);
            for v in 0..1usize << j {
                table[v | 1 << j] = table[v] + weight;
            }
        }
        RangeCounts { len: hi.saturating_sub(lo), tables }
    }

    /// Number of stream positions in the range.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the range is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Ones of operand `u`'s stream over the range — equal to
    /// [`range_ones`]`(u, n, lo, hi)` by construction (property-tested)
    /// for every operand `u < 2^N`.
    #[inline]
    pub fn ones(&self, u: u32) -> u64 {
        let mut ones = 0u64;
        for (t, table) in self.tables.iter().enumerate() {
            ones += table[((u >> (4 * t)) & 0xF) as usize];
        }
        ones
    }
}

/// Counts the ones in the first `k` bits of an externally packed stream
/// (the [`crate::sng::collect_stream_words`] layout). The generalized
/// home of `sng::count_ones_prefix`.
pub fn count_ones_prefix(words: &[u64], k: u64) -> u64 {
    let full = (k / 64) as usize;
    let mut ones: u64 = words[..full].iter().map(|w| w.count_ones() as u64).sum();
    let rem = k % 64;
    if rem > 0 {
        ones += (words[full] & ((1u64 << rem) - 1)).count_ones() as u64;
    }
    ones
}

/// Fused AND-product prefix counts: for two packed streams `a` and `b`
/// and non-decreasing prefix lengths `cuts`, writes
/// `out[i] = popcount((a & b)[..cuts[i]])` in **one pass** over the words
/// — no AND scratch buffer, `O(W + S)` instead of `O(W · S)` for `S`
/// snapshot cuts. The unipolar conventional-SC product evaluator.
///
/// # Panics
///
/// Panics (in debug) if `cuts` is not sorted ascending or `out` is
/// shorter than `cuts`.
pub fn and_ones_at(a: &[u64], b: &[u64], cuts: &[u64], out: &mut [u64]) {
    debug_assert!(cuts.windows(2).all(|c| c[0] <= c[1]));
    debug_assert!(out.len() >= cuts.len());
    debug_assert!(cuts.last().is_none_or(|&c| c <= a.len().min(b.len()) as u64 * 64));
    let mut ones = 0u64;
    let mut ci = 0;
    for (wi, (&aw, &bw)) in a.iter().zip(b).enumerate() {
        let w = aw & bw;
        let base = (wi as u64) * 64;
        while ci < cuts.len() && cuts[ci] < base + 64 {
            let rem = cuts[ci] - base;
            out[ci] =
                ones + if rem == 0 { 0 } else { (w & ((1u64 << rem) - 1)).count_ones() as u64 };
            ci += 1;
        }
        ones += w.count_ones() as u64;
    }
    while ci < cuts.len() {
        out[ci] = ones;
        ci += 1;
    }
}

/// Fused XNOR-product prefix counts (the bipolar conventional-SC product):
/// `out[i] = popcount(!(a ^ b)[..cuts[i]])`, one pass, same contract as
/// [`and_ones_at`]. Bits beyond the stream length in the last packed word
/// are counted as XNOR of the packed zeros — keep `cuts` within the
/// stream length, as every caller of packed streams already does.
pub fn xnor_ones_at(a: &[u64], b: &[u64], cuts: &[u64], out: &mut [u64]) {
    debug_assert!(cuts.windows(2).all(|c| c[0] <= c[1]));
    debug_assert!(out.len() >= cuts.len());
    let mut ones = 0u64;
    let mut ci = 0;
    for (wi, (&aw, &bw)) in a.iter().zip(b).enumerate() {
        let w = !(aw ^ bw);
        let base = (wi as u64) * 64;
        while ci < cuts.len() && cuts[ci] < base + 64 {
            let rem = cuts[ci] - base;
            out[ci] =
                ones + if rem == 0 { 0 } else { (w & ((1u64 << rem) - 1)).count_ones() as u64 };
            ci += 1;
        }
        ones += w.count_ones() as u64;
    }
    while ci < cuts.len() {
        out[ci] = ones;
        ci += 1;
    }
}

/// The serial golden evaluation of a prefix count: a literal per-cycle
/// walk of [`seq::stream_bit`]. The cycle-accurate engine's kernel, and
/// the reference the bitplane kernels are property-tested against.
pub fn prefix_ones_serial(u: u32, n: Precision, k: u64) -> u64 {
    (1..=k).map(|t| seq::stream_bit(u, n, t) as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(bits: u32) -> Precision {
        Precision::new(bits).unwrap()
    }

    /// Periodic serial reference for arbitrary positions (the FSM wraps).
    fn serial_bit(u: u32, n: Precision, pos: u64) -> bool {
        let period = n.stream_len();
        seq::stream_bit(u, n, pos % period + 1)
    }

    #[test]
    fn stream_word_matches_serial_exhaustive_small_n() {
        for bits in 2..=8u32 {
            let n = p(bits);
            for u in 0..(1u32 << bits) {
                for wi in 0..4u64 {
                    let w = stream_word(u, n, wi);
                    for b in 0..64u64 {
                        let expect = serial_bit(u, n, wi * 64 + b);
                        assert_eq!((w >> b) & 1 == 1, expect, "bits={bits} u={u} wi={wi} b={b}");
                    }
                }
            }
        }
    }

    #[test]
    fn stream_word_matches_serial_sampled_large_n() {
        for bits in [10u32, 12, 16] {
            let n = p(bits);
            let words = n.stream_len() / 64;
            for u in [0u32, 1, 0x5A5A, 0xFFFF, 0x8001, 12345].map(|u| u & ((1 << bits) - 1)) {
                for wi in (0..words).step_by(7).chain([words - 1]) {
                    let w = stream_word(u, n, wi);
                    for b in 0..64u64 {
                        assert_eq!(
                            (w >> b) & 1 == 1,
                            serial_bit(u, n, wi * 64 + b),
                            "bits={bits} u={u} wi={wi} b={b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prefix_ones_equals_closed_form_exhaustive() {
        for bits in 2..=7u32 {
            let n = p(bits);
            for u in 0..(1u32 << bits) {
                for k in 0..=n.stream_len() {
                    assert_eq!(
                        prefix_ones(u, n, k),
                        seq::prefix_sum(u, n, k),
                        "bits={bits} u={u} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn prefix_ones_equals_serial_large_n() {
        for bits in [9u32, 11, 16] {
            let n = p(bits);
            for u in [0u32, 7, 499, 0x7FFF, 0xFFFF].map(|u| u & ((1 << bits) - 1)) {
                for k in (0..=n.stream_len()).step_by(97) {
                    assert_eq!(prefix_ones(u, n, k), seq::prefix_sum(u, n, k));
                    assert_eq!(prefix_ones(u, n, k), prefix_ones_serial(u, n, k));
                }
            }
        }
    }

    #[test]
    fn range_ones_equals_range_sum() {
        let n = p(8);
        for u in [0u32, 3, 128, 200, 255] {
            for lo in (0..=256u64).step_by(13) {
                for hi in (lo..=256u64).step_by(29) {
                    assert_eq!(range_ones(u, n, lo, hi), seq::range_sum(u, n, lo, hi));
                }
            }
        }
    }

    #[test]
    fn scan_signed_range_delta_and_bounds() {
        let n = p(8);
        for u in [0u32, 17, 128, 255] {
            for w_sign in [false, true] {
                for lo in [0u64, 5, 63, 64, 130] {
                    for hi in [lo, lo + 1, lo + 63, lo + 64, lo + 100] {
                        let hi = hi.min(256);
                        if hi < lo {
                            continue;
                        }
                        let scan = scan_signed_range(u, n, lo, hi, w_sign);
                        // Serial reference trajectory.
                        let mut r = 0i64;
                        let mut min_t = 0i64;
                        let mut max_t = 0i64;
                        for t in lo + 1..=hi {
                            let bit = seq::stream_bit(u, n, t) ^ w_sign;
                            r += if bit { 1 } else { -1 };
                            min_t = min_t.min(r);
                            max_t = max_t.max(r);
                        }
                        assert_eq!(scan.delta, r, "u={u} sign={w_sign} lo={lo} hi={hi}");
                        assert!(scan.lo_bound <= min_t, "lo bound not conservative");
                        assert!(scan.hi_bound >= max_t, "hi bound not conservative");
                        assert_eq!(scan.words, words_in_range(lo, hi));
                    }
                }
            }
        }
    }

    #[test]
    fn word_count_helpers() {
        assert_eq!(words_in_prefix(0), 0);
        assert_eq!(words_in_prefix(1), 1);
        assert_eq!(words_in_prefix(64), 1);
        assert_eq!(words_in_prefix(65), 2);
        assert_eq!(words_in_range(10, 10), 0);
        assert_eq!(words_in_range(0, 64), 1);
        assert_eq!(words_in_range(63, 65), 2);
        assert_eq!(words_in_range(64, 128), 1);
    }

    #[test]
    fn and_xnor_fused_match_naive() {
        // Packed pseudo-streams over 4 words; cuts hit word boundaries,
        // interiors, duplicates, and the total length.
        let a = [0xDEAD_BEEF_0123_4567u64, 0, !0u64, 0x8000_0000_0000_0001];
        let b = [0xFFFF_0000_FFFF_0000u64, !0u64, 0x1234_5678_9ABC_DEF0, !0u64];
        let cuts = [0u64, 1, 63, 64, 64, 65, 100, 128, 200, 256];
        let mut fused = vec![0u64; cuts.len()];
        and_ones_at(&a, &b, &cuts, &mut fused);
        for (i, &c) in cuts.iter().enumerate() {
            let naive: u64 = (0..c)
                .filter(|&p| {
                    let (w, bit) = ((p / 64) as usize, p % 64);
                    (a[w] >> bit) & (b[w] >> bit) & 1 == 1
                })
                .count() as u64;
            assert_eq!(fused[i], naive, "and cut {c}");
        }
        xnor_ones_at(&a, &b, &cuts, &mut fused);
        for (i, &c) in cuts.iter().enumerate() {
            let naive: u64 = (0..c)
                .filter(|&p| {
                    let (w, bit) = ((p / 64) as usize, p % 64);
                    ((a[w] >> bit) ^ (b[w] >> bit)) & 1 == 0
                })
                .count() as u64;
            assert_eq!(fused[i], naive, "xnor cut {c}");
        }
    }

    #[test]
    fn plane_count_matches_brute_force() {
        for z in 0..12u32 {
            for lo in [0u64, 1, 5, 63, 64, 100, 1000] {
                for hi in [lo, lo + 1, lo + 64, lo + 100, lo + 513] {
                    let brute =
                        (lo..hi).filter(|&p| p % (2 << z) == (1u64 << z) - 1).count() as u64;
                    assert_eq!(plane_count(z, lo, hi), brute, "z={z} lo={lo} hi={hi}");
                }
            }
        }
        // Every position belongs to exactly one selector plane (or none,
        // when ctz(t) ≥ bits — the MUX's constant-0 cycle).
        let (lo, hi) = (37u64, 1037);
        let covered: u64 = (0..8).map(|z| plane_count(z, lo, hi)).sum();
        let none = (lo..hi).filter(|&p| (p + 1).trailing_zeros() >= 8).count() as u64;
        assert_eq!(covered + none, hi - lo);
    }

    #[test]
    fn range_counts_ones_equals_range_ones() {
        for bits in 2..=7u32 {
            let n = p(bits);
            for lo in (0..=2 * n.stream_len()).step_by(17) {
                for hi in [lo, lo + 3, lo + 64, lo + 129] {
                    let counts = RangeCounts::new(n, lo, hi);
                    assert_eq!(counts.len(), hi - lo);
                    for u in 0..(1u32 << bits) {
                        assert_eq!(
                            counts.ones(u),
                            range_ones(u, n, lo, hi),
                            "bits={bits} u={u} lo={lo} hi={hi}"
                        );
                    }
                }
            }
        }
        for bits in [8u32, 12, 16] {
            let n = p(bits);
            for lo in [0u64, 255, 4096, 99_999] {
                for hi in [lo, lo + 1, lo + 1000] {
                    let counts = RangeCounts::new(n, lo, hi);
                    for u in [0u32, 1, 0xABCD, 0xF_FFFF].map(|u| u & ((1 << bits) - 1)) {
                        assert_eq!(counts.ones(u), range_ones(u, n, lo, hi));
                    }
                }
            }
        }
        assert!(RangeCounts::new(p(8), 10, 10).is_empty());
    }

    #[test]
    fn count_ones_prefix_matches_sng_layout() {
        use crate::sng::{collect_stream_words, FsmMuxSng};
        let n = p(9);
        let mut gen = FsmMuxSng::new(n);
        let words = collect_stream_words(&mut gen, 300);
        for k in (0..=512u64).step_by(31) {
            assert_eq!(count_ones_prefix(&words, k), seq::prefix_sum(300, n, k));
        }
        // The packed FsmMux stream equals stream_word materialization.
        for (wi, &w) in words.iter().enumerate() {
            assert_eq!(w, stream_word(300, n, wi as u64), "word {wi}");
        }
    }

    #[test]
    fn engine_parse_and_override() {
        assert_eq!(EngineKind::parse("bitplane"), Some(EngineKind::Bitplane));
        assert_eq!(EngineKind::parse("cycle"), Some(EngineKind::CycleAccurate));
        assert_eq!(EngineKind::parse("cycle-accurate"), Some(EngineKind::CycleAccurate));
        assert_eq!(EngineKind::parse("nope"), None);
        assert_eq!(EngineKind::Bitplane.name(), "bitplane");
        assert_eq!(EngineKind::CycleAccurate.name(), "cycle");
        // Override wins over the (unset) env default and is restorable.
        let _lock = TEST_ENGINE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = engine();
        set_engine(Some(EngineKind::CycleAccurate));
        assert_eq!(engine(), EngineKind::CycleAccurate);
        set_engine(Some(EngineKind::Bitplane));
        assert_eq!(engine(), EngineKind::Bitplane);
        set_engine(None);
        assert_eq!(engine(), before);
    }
}
