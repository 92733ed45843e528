//! Stochastic number generators (SNGs), i.e. binary-to-stochastic
//! converters.
//!
//! An SNG turns an `N`-bit binary code `c` into a bitstream whose frequency
//! of 1s is `c / 2^N`. The conventional construction (paper Sec. 2.1) is a
//! random-number source plus an `N`-bit comparator emitting 1 when the
//! random number is below the code. The quality of the source determines
//! the random-fluctuation error of SC operations:
//!
//! * [`LfsrSng`] — conventional: maximal-length linear-feedback shift
//!   register + comparator.
//! * [`HaltonSng`] — low-discrepancy Halton sequences (Alaghi & Hayes,
//!   DATE'14); the paper uses bases 2 and 3 for the two operands.
//! * [`EdSng`] — even-distribution low-discrepancy code (Kim, Lee & Choi,
//!   ASP-DAC'16), a bit-parallel generator producing 32 bits per cycle.
//! * [`FsmMuxSng`] — the paper's proposed FSM+MUX generator whose prefix
//!   sums are *deterministically* accurate (see [`crate::seq`]).

mod ed;
mod fsm_mux;
mod halton;
mod lfsr;

pub use ed::{EdSng, EdVariant};
pub use fsm_mux::FsmMuxSng;
pub use halton::{Halton, HaltonSng};
pub use lfsr::{Lfsr, LfsrSng};

use crate::Precision;

/// A binary-to-stochastic converter: emits the bitstream of an `N`-bit code.
///
/// Implementations are deterministic state machines (as in hardware); after
/// [`reset`](BitstreamGenerator::reset) the same code yields the same
/// stream. One full stochastic number is `2^N` bits long; generators are
/// free-running and wrap around after that.
pub trait BitstreamGenerator {
    /// The operand precision `N` this generator was built for.
    fn precision(&self) -> Precision;

    /// Produces the next stream bit for unsigned code `code`
    /// (probability of 1 ≈ `code / 2^N`).
    ///
    /// `code` is masked to `N` bits.
    fn next_bit(&mut self, code: u32) -> bool;

    /// Rewinds the generator to its initial state.
    fn reset(&mut self);
}

/// Collects one full `2^N`-bit stream for `code` into 64-bit packed words
/// (bit `t` of the stream, `t` counted from 0, is bit `t % 64` of word
/// `t / 64`). The generator is reset before and after.
///
/// Packed streams make exhaustive conventional-SC simulation fast: the
/// AND/XNOR product of two streams reduces to bitwise ops + popcount.
pub fn collect_stream_words<G: BitstreamGenerator + ?Sized>(gen: &mut G, code: u32) -> Vec<u64> {
    gen.reset();
    let len = gen.precision().stream_len();
    let words = len.div_ceil(64) as usize;
    let mut out = vec![0u64; words];
    for t in 0..len {
        if gen.next_bit(code) {
            out[(t / 64) as usize] |= 1u64 << (t % 64);
        }
    }
    gen.reset();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitplane::count_ones_prefix;

    #[test]
    fn packed_stream_round_trip() {
        let n = Precision::new(7).unwrap();
        let mut gen = FsmMuxSng::new(n);
        let words = collect_stream_words(&mut gen, 77);
        // Total ones over the full period equal the code exactly.
        assert_eq!(count_ones_prefix(&words, n.stream_len()), 77);
        // Prefix counts match bit-by-bit regeneration.
        let mut ones = 0u64;
        for t in 0..n.stream_len() {
            ones += gen.next_bit(77) as u64;
            assert_eq!(count_ones_prefix(&words, t + 1), ones);
        }
    }
}
