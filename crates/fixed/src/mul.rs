//! The truncating fixed-point multiplier.

use sc_core::{Error, Precision};

/// An `N`-bit two's-complement fixed-point multiplier with
/// truncate-before-accumulate semantics (paper Sec. 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedMul {
    n: Precision,
}

impl FixedMul {
    /// Creates a multiplier at precision `n`.
    pub fn new(n: Precision) -> Self {
        FixedMul { n }
    }

    /// The operand precision.
    pub fn precision(&self) -> Precision {
        self.n
    }

    /// Multiplies signed codes and reduces the result to `N−1` fraction
    /// bits with **round-to-nearest** (half away from zero) — the same
    /// output units as the proposed SC-MAC's counter.
    ///
    /// The paper says the product is "truncated before accumulation";
    /// a plain floor truncation, however, biases every product by −½ LSB,
    /// which after the hundreds of accumulations of a conv layer shifts
    /// outputs by dozens of LSBs and demolishes the network (we verified
    /// this empirically). Since the paper's fixed-point baseline matches
    /// the float network from ~7 bits, its precision reduction must be a
    /// rounding one; we therefore interpret "truncate" as "reduce to
    /// operand precision, rounding to nearest" (one extra adder in the
    /// MAC — negligible area). See DESIGN.md §3.
    ///
    /// Use [`multiply_floor`](Self::multiply_floor) for the literal floor
    /// truncation (exposed for the ablation bench).
    ///
    /// # Errors
    ///
    /// Returns [`Error::CodeOutOfRange`] if either code is outside
    /// `[-2^(N-1), 2^(N-1))`.
    pub fn multiply(&self, w: i32, x: i32) -> Result<i64, Error> {
        self.n.check_signed(w as i64)?;
        self.n.check_signed(x as i64)?;
        Ok(self.multiply_unchecked(w, x))
    }

    /// [`multiply`](Self::multiply) without the range checks — the hot
    /// path for convolution inner loops. Callers must have validated the
    /// codes (e.g. they come from [`crate::quantize`]).
    #[inline]
    pub fn multiply_unchecked(&self, w: i32, x: i32) -> i64 {
        let full = w as i64 * x as i64; // 2(N−1) fraction bits
        let shift = self.n.bits() - 1;
        let half = 1i64 << (shift - 1);
        // Round half away from zero, then drop the fraction, without a
        // branch on the sign: a negative product rounds as
        // −⌊(−full + half) / 2^shift⌋ = ⌊(full + half − 1) / 2^shift⌋,
        // and `full >> 63` is that −1 exactly when the product is
        // negative.
        (full + half + (full >> 63)) >> shift
    }

    /// The literal floor truncation `(w·x) >> (N−1)` (arithmetic shift).
    /// Catastrophically biased at CNN accumulation depths — kept for the
    /// truncation-mode ablation.
    #[inline]
    pub fn multiply_floor(&self, w: i32, x: i32) -> i64 {
        let full = w as i64 * x as i64;
        full >> (self.n.bits() - 1)
    }

    /// The full-precision product (no truncation), for error analysis:
    /// real value `w·x / 2^(2(N-1))`, returned in `N−1`-fraction units as
    /// an exact rational via `f64`.
    pub fn exact(&self, w: i32, x: i32) -> f64 {
        (w as i64 * x as i64) as f64 / sc_core::Precision::half_scale(self.n) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(bits: u32) -> Precision {
        Precision::new(bits).unwrap()
    }

    #[test]
    fn basic_products() {
        let m = FixedMul::new(p(8));
        assert_eq!(m.multiply(64, 64).unwrap(), 32); // 0.5·0.5 = 0.25
        assert_eq!(m.multiply(-64, 64).unwrap(), -32);
        assert_eq!(m.multiply(127, 127).unwrap(), 126); // 125.99 rounds up
        assert_eq!(m.multiply(-128, -128).unwrap(), 128); // +1.0, needs acc bits
    }

    #[test]
    fn rounding_is_to_nearest_and_symmetric() {
        let m = FixedMul::new(p(4));
        // 3·3 = 9/8 = 1.125 → 1; symmetric for the negative product.
        assert_eq!(m.multiply(3, 3).unwrap(), 1);
        assert_eq!(m.multiply(-3, 3).unwrap(), -1);
        // 5·3 = 15/8 = 1.875 → 2.
        assert_eq!(m.multiply(5, 3).unwrap(), 2);
        assert_eq!(m.multiply(-5, 3).unwrap(), -2);
        // Halves round away from zero: 4·3 = 12/8 = 1.5 → 2.
        assert_eq!(m.multiply(4, 3).unwrap(), 2);
        assert_eq!(m.multiply(-4, 3).unwrap(), -2);
    }

    #[test]
    fn rounding_error_at_most_half_lsb_and_unbiased() {
        let m = FixedMul::new(p(6));
        let mut bias = 0.0f64;
        for w in -32..32i32 {
            for x in -32..32i32 {
                let t = m.multiply(w, x).unwrap() as f64;
                let e = m.exact(w, x);
                assert!((e - t).abs() <= 0.5, "w={w} x={x}");
                bias += e - t;
            }
        }
        // Round-half-away is symmetric, so the grand bias is ~0 (compare
        // with 0.5·4096 ≈ 2048 for floor truncation).
        assert!(bias.abs() < 64.0, "bias {bias}");
    }

    #[test]
    fn unchecked_rounding_matches_f64_reference() {
        // Independent reference: w·x / 2^(N−1), exact in f64, rounded
        // half away from zero by `f64::round`.
        let reference = |n: Precision, w: i32, x: i32| {
            ((w as f64 * x as f64) / n.half_scale() as f64).round() as i64
        };
        for bits in 2..=8u32 {
            let (n, h) = (p(bits), 1i32 << (bits - 1));
            let m = FixedMul::new(n);
            for w in -h..h {
                for x in -h..h {
                    assert_eq!(m.multiply_unchecked(w, x), reference(n, w, x), "N={bits} {w}·{x}");
                }
            }
        }
        let mut rng = sc_core::rng::SmallRng::seed_from_u64(0xF1CED);
        for bits in [12u32, 16] {
            let (n, h) = (p(bits), 1i32 << (bits - 1));
            let m = FixedMul::new(n);
            // The range ends, where the product is largest, then samples.
            let ends = [-h, -h + 1, -1, 0, 1, h - 1];
            let pairs = ends.iter().flat_map(|&w| ends.iter().map(move |&x| (w, x)));
            let sampled = (0..20_000).map(|_| (rng.gen_range_i32(-h..h), rng.gen_range_i32(-h..h)));
            for (w, x) in pairs.chain(sampled) {
                assert_eq!(m.multiply_unchecked(w, x), reference(n, w, x), "N={bits} {w}·{x}");
            }
        }
    }

    #[test]
    fn floor_truncation_is_biased_downward() {
        let m = FixedMul::new(p(6));
        // The ablation variant: floor truncation loses up to 1 LSB and
        // averages −0.5 LSB per product. (−9/32 = −0.28 floors to −1.)
        assert_eq!(m.multiply_floor(-3, 3), -1);
        let mut bias = 0.0f64;
        for w in -32..32i32 {
            for x in -32..32i32 {
                bias += m.exact(w, x) - m.multiply_floor(w, x) as f64;
            }
        }
        assert!(bias > 1000.0, "floor bias {bias}");
    }

    #[test]
    fn range_checked() {
        let m = FixedMul::new(p(4));
        assert!(m.multiply(8, 0).is_err());
        assert!(m.multiply(0, -9).is_err());
    }
}
