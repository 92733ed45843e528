//! The paper's FSM+MUX low-discrepancy bit sequence (Sec. 2.3) and its
//! exact closed-form prefix sums.
//!
//! For an `N`-bit operand `x = x_{N-1} … x_0`, the FSM selects at cycle `t`
//! (1-based) the bit `x_{N-i}` with `i − 1 = ctz(t)` (the number of trailing
//! zeros of `t`); when `ctz(t) ≥ N` the output is 0. Thus bit `x_{N-i}`
//! first appears at cycle `2^(i-1)` and thereafter every `2^i` cycles, so
//! within the first `k` cycles it appears exactly `round(k / 2^i)` times
//! (round-half-up). The partial sum of the generated sequence is therefore
//!
//! ```text
//! P_k(x) = Σ_{i=1..N} round(k / 2^i) · x_{N-i}  ≈  x · k / 2^N · 2^N = x·k/2^N·…
//! ```
//!
//! i.e. `P_k ≈ (x / 2^N) · k`, which is the accuracy objective the paper
//! states for its SC multiply. Everything else in this crate (bit-serial,
//! bit-parallel, signed, vectorized) reduces to [`prefix_sum`].

use crate::Precision;

/// Rounds `k / 2^i` to the nearest integer, halves rounding up
/// (`round(k/2^i) = (k + 2^(i-1)) >> i`).
///
/// This is the rounding used by the paper's approximation
/// `x·k ≈ Σ round(k/2^i)·x_{N-i}` and matches the FSM pattern exactly.
///
/// ```
/// use sc_core::seq::round_div_pow2;
/// assert_eq!(round_div_pow2(7, 1), 4);  // 3.5 rounds up
/// assert_eq!(round_div_pow2(7, 2), 2);  // 1.75 rounds to 2
/// assert_eq!(round_div_pow2(7, 3), 1);  // 0.875 rounds to 1
/// assert_eq!(round_div_pow2(7, 4), 0);  // 0.4375 rounds to 0
/// ```
#[inline]
pub fn round_div_pow2(k: u64, i: u32) -> u64 {
    (k + (1u64 << (i - 1))) >> i
}

/// The MUX select at 1-based cycle `t`: returns `Some(i)` meaning "select
/// bit `x_{N-1-i}`" (`i = ctz(t)`, 0 = MSB), or `None` when the FSM outputs
/// a constant 0 (`ctz(t) ≥ N`, which happens once per `2^N` cycles).
#[inline]
pub fn mux_select(t: u64, n: Precision) -> Option<u32> {
    debug_assert!(t >= 1);
    let z = t.trailing_zeros();
    if z < n.bits() {
        Some(z)
    } else {
        None
    }
}

/// The sequence bit at 1-based cycle `t` for operand code `x` (unsigned,
/// `N` bits): `X_t = x_{N-1-ctz(t)}`, or 0 if `ctz(t) ≥ N`.
#[inline]
pub fn stream_bit(x: u32, n: Precision, t: u64) -> bool {
    match mux_select(t, n) {
        Some(z) => (x >> (n.bits() - 1 - z)) & 1 == 1,
        None => false,
    }
}

/// Exact closed form of the partial sum `P_k(x) = Σ_{t=1..k} X_t`
/// of the FSM+MUX sequence: `Σ_{i=1..N} round(k/2^i) · x_{N-i}`.
///
/// `k` may be any value in `0..=2^N`. This is the behavioural golden model
/// of the proposed SC multiplier: the bit-serial counter in Fig. 1(c) of
/// the paper holds exactly this value after `k` cycles.
///
/// ```
/// use sc_core::{Precision, seq::{prefix_sum, stream_bit}};
/// let n = Precision::new(6)?;
/// let x = 0b101101;
/// for k in 0..=n.stream_len() {
///     let serial: u64 = (1..=k).map(|t| stream_bit(x, n, t) as u64).sum();
///     assert_eq!(prefix_sum(x, n, k), serial);
/// }
/// # Ok::<(), sc_core::Error>(())
/// ```
pub fn prefix_sum(x: u32, n: Precision, k: u64) -> u64 {
    let bits = n.bits();
    let mut sum = 0u64;
    for i in 1..=bits {
        if (x >> (bits - i)) & 1 == 1 {
            sum += round_div_pow2(k, i);
        }
    }
    sum
}

/// Number of ones contributed by cycles `lo+1 ..= hi` of the FSM+MUX
/// sequence for operand `x` — the quantity the bit-parallel *ones counter*
/// (paper Fig. 2(b)) produces for one column or partial column.
#[inline]
pub fn range_sum(x: u32, n: Precision, lo: u64, hi: u64) -> u64 {
    debug_assert!(lo <= hi);
    prefix_sum(x, n, hi) - prefix_sum(x, n, lo)
}

/// An iterator over the FSM+MUX low-discrepancy bit sequence for a fixed
/// operand, yielding `2^N` bits (cycles `1..=2^N`).
///
/// This mirrors the hardware FSM: a free-running `N`-bit cycle counter whose
/// trailing-zero count drives the MUX select.
#[derive(Debug, Clone)]
pub struct FsmMuxSequence {
    x: u32,
    n: Precision,
    t: u64,
}

impl FsmMuxSequence {
    /// Creates the sequence for unsigned code `x` at precision `n`.
    ///
    /// Bits of `x` above the precision are ignored (masked off), matching
    /// an `N`-bit hardware datapath.
    pub fn new(x: u32, n: Precision) -> Self {
        let mask = (n.stream_len() - 1) as u32;
        FsmMuxSequence { x: x & mask, n, t: 0 }
    }

    /// The 1-based cycle index of the *next* bit to be produced.
    pub fn next_cycle(&self) -> u64 {
        self.t + 1
    }
}

impl Iterator for FsmMuxSequence {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        if self.t >= self.n.stream_len() {
            return None;
        }
        self.t += 1;
        Some(stream_bit(self.x, self.n, self.t))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.n.stream_len() - self.t) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for FsmMuxSequence {}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(bits: u32) -> Precision {
        Precision::new(bits).unwrap()
    }

    #[test]
    fn round_div_examples() {
        assert_eq!(round_div_pow2(0, 1), 0);
        assert_eq!(round_div_pow2(1, 1), 1); // 0.5 -> 1
        assert_eq!(round_div_pow2(2, 1), 1);
        assert_eq!(round_div_pow2(1024, 10), 1);
        assert_eq!(round_div_pow2(1023, 10), 1); // 0.999 -> 1
        assert_eq!(round_div_pow2(511, 10), 0); // 0.499 -> 0
        assert_eq!(round_div_pow2(512, 10), 1); // 0.5 -> 1
    }

    #[test]
    fn table1_mux_pattern() {
        // Paper Table 1: x = 0 (code 0000) sign-flipped to 1000 produces
        // the stream 10101010 over 8 cycles at N = 4.
        let n = p(4);
        let seq: Vec<u8> = FsmMuxSequence::new(0b1000, n).take(8).map(|b| b as u8).collect();
        assert_eq!(seq, vec![1, 0, 1, 0, 1, 0, 1, 0]);

        // x = 7 -> 1111: all ones.
        let seq: Vec<u8> = FsmMuxSequence::new(0b1111, n).take(8).map(|b| b as u8).collect();
        assert_eq!(seq, vec![1; 8]);

        // x = -8 -> 0000: all zeros.
        let seq: Vec<u8> = FsmMuxSequence::new(0b0000, n).take(8).map(|b| b as u8).collect();
        assert_eq!(seq, vec![0; 8]);
    }

    #[test]
    fn bit_appearance_count_matches_round() {
        // x_{N-i} appears round(k/2^i) times within the first k cycles.
        let n = p(6);
        for i in 1..=6u32 {
            let x = 1u32 << (6 - i); // only bit x_{N-i} set
            for k in 0..=64u64 {
                let count: u64 = (1..=k).map(|t| stream_bit(x, n, t) as u64).sum();
                assert_eq!(count, round_div_pow2(k, i), "i={i} k={k}");
            }
        }
    }

    #[test]
    fn prefix_sum_equals_serial_sum_exhaustive() {
        for bits in 2..=7u32 {
            let n = p(bits);
            for x in 0..n.stream_len() as u32 {
                let mut serial = 0u64;
                for k in 1..=n.stream_len() {
                    serial += stream_bit(x, n, k) as u64;
                    assert_eq!(prefix_sum(x, n, k), serial);
                }
                // Full-stream sum equals x exactly (value x/2^N over 2^N bits).
                assert_eq!(prefix_sum(x, n, n.stream_len()), x as u64);
            }
        }
    }

    #[test]
    fn prefix_and_range_sums_equal_stream_walk_large_n() {
        // One running walk per operand, read off every 97th cycle; each
        // range spans the cycles between two consecutive reads.
        for bits in [9u32, 11, 16] {
            let n = p(bits);
            for x in [0u32, 7, 499, 0x7FFF, 0xFFFF].map(|x| x & ((1 << bits) - 1)) {
                let mut walked = 0u64;
                let (mut lo, mut at_lo) = (0u64, 0u64);
                for k in 0..=n.stream_len() {
                    if k > 0 {
                        walked += stream_bit(x, n, k) as u64;
                    }
                    if k % 97 == 0 {
                        assert_eq!(prefix_sum(x, n, k), walked, "bits={bits} x={x} k={k}");
                        assert_eq!(
                            range_sum(x, n, lo, k),
                            walked - at_lo,
                            "bits={bits} x={x} k={k}"
                        );
                        (lo, at_lo) = (k, walked);
                    }
                }
            }
        }
    }

    #[test]
    fn prefix_sum_error_bound() {
        // |P_k - x·k/2^N| <= N/2 for all x, k (paper's loose bound).
        let n = p(8);
        for x in 0..256u32 {
            for k in 0..=256u64 {
                let approx = prefix_sum(x, n, k) as f64;
                let exact = x as f64 * k as f64 / 256.0;
                assert!(
                    (approx - exact).abs() <= 8.0 / 2.0,
                    "x={x} k={k} approx={approx} exact={exact}"
                );
            }
        }
    }

    #[test]
    fn range_sum_is_prefix_difference() {
        let n = p(5);
        for x in [0u32, 1, 13, 21, 31] {
            for lo in 0..=32u64 {
                for hi in lo..=32u64 {
                    let direct: u64 = ((lo + 1)..=hi).map(|t| stream_bit(x, n, t) as u64).sum();
                    assert_eq!(range_sum(x, n, lo, hi), direct);
                }
            }
        }
    }

    #[test]
    fn sequence_iterator_length_and_mask() {
        let n = p(4);
        let seq = FsmMuxSequence::new(0xFFFF_FFFF, n);
        assert_eq!(seq.len(), 16);
        let total: u64 = seq.map(|b| b as u64).sum();
        assert_eq!(total, 15); // masked to 0b1111
    }

    #[test]
    fn mux_select_none_once_per_period() {
        let n = p(4);
        let nones = (1..=16u64).filter(|&t| mux_select(t, n).is_none()).count();
        assert_eq!(nones, 1); // only t = 16 (ctz = 4)
    }
}
