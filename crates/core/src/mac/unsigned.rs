//! The proposed unsigned (unipolar) SC multiplier of Fig. 1(c).

use crate::seq;
use crate::{Error, Precision};

/// Result of one unsigned SC multiplication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsignedProduct {
    /// The counter value `P_k` — the product code with `N` fractional bits
    /// (`value ≈ (x/2^N)·(w/2^N)` where `value = P_k / 2^N`).
    pub value: u64,
    /// Number of cycles the multiplication took: `k = w` (the code of the
    /// multiplier operand). Conventional SC always needs `2^N`.
    pub cycles: u64,
}

impl UnsignedProduct {
    /// The product as a real number in `[0, 1)`.
    pub fn to_f64(self, n: Precision) -> f64 {
        self.value as f64 / n.stream_len() as f64
    }
}

/// The proposed unsigned SC multiplier: an FSM+MUX bitstream generator for
/// `x` directly feeding a bit counter that is activated for `w·2^N` cycles
/// (i.e. `k = w_code` cycles), per Sec. 2.2 of the paper.
///
/// The behavioural model evaluates the exact closed form
/// [`crate::seq::prefix_sum`]; [`UnsignedScMac::multiply_serial`] runs the
/// cycle-by-cycle simulation and is used in tests (and mirrored by the
/// `sc-rtlsim` crate) to prove the two agree.
///
/// ```
/// use sc_core::{Precision, mac::UnsignedScMac};
/// let n = Precision::new(8)?;
/// let mac = UnsignedScMac::new(n);
/// // 0.75 × 0.5: exact product code is 96; latency only 128 cycles.
/// let out = mac.multiply(192, 128)?;
/// assert!((out.value as i64 - 96).abs() <= 4);
/// assert_eq!(out.cycles, 128);
/// # Ok::<(), sc_core::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsignedScMac {
    n: Precision,
}

impl UnsignedScMac {
    /// Creates a multiplier at precision `n`.
    pub fn new(n: Precision) -> Self {
        UnsignedScMac { n }
    }

    /// The operand precision.
    pub fn precision(&self) -> Precision {
        self.n
    }

    /// Multiplies unsigned codes `x · w` by the closed form
    /// [`seq::prefix_sum`]: the counter value `P_w(x)` after `w` cycles.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CodeOutOfRange`] if either code is `≥ 2^N`.
    pub fn multiply(&self, x: u32, w: u32) -> Result<UnsignedProduct, Error> {
        self.n.check_unsigned(x as u64)?;
        self.n.check_unsigned(w as u64)?;
        let k = w as u64;
        Ok(UnsignedProduct { value: seq::prefix_sum(x, self.n, k), cycles: k })
    }

    /// Multiplies by simulating the datapath cycle-by-cycle: the FSM+MUX
    /// bit for `x` increments the counter while the down counter (loaded
    /// with `w`) is nonzero.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CodeOutOfRange`] if either code is `≥ 2^N`.
    pub fn multiply_serial(&self, x: u32, w: u32) -> Result<UnsignedProduct, Error> {
        self.n.check_unsigned(x as u64)?;
        self.n.check_unsigned(w as u64)?;
        let mut down = w as u64; // down counter loaded with w
        let mut counter = 0u64;
        let mut t = 0u64;
        while down > 0 {
            t += 1;
            counter += seq::stream_bit(x, self.n, t) as u64;
            down -= 1;
        }
        Ok(UnsignedProduct { value: counter, cycles: t })
    }

    /// The partial product after the first `cycles` cycles (the running
    /// counter value) — used for the convergence curves of Fig. 5.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CodeOutOfRange`] if `x ≥ 2^N` or `cycles > 2^N`.
    pub fn partial(&self, x: u32, cycles: u64) -> Result<u64, Error> {
        self.n.check_unsigned(x as u64)?;
        if cycles > self.n.stream_len() {
            return Err(Error::CodeOutOfRange { code: cycles as i64, precision: self.n.bits() });
        }
        Ok(seq::prefix_sum(x, self.n, cycles))
    }

    /// The paper's theoretical maximum error bound on the product code:
    /// `N/2` (in counter LSBs). Empirical maxima are far smaller (Fig. 5).
    pub fn error_bound(&self) -> f64 {
        self.n.bits() as f64 / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(bits: u32) -> Precision {
        Precision::new(bits).unwrap()
    }

    #[test]
    fn closed_form_equals_serial_exhaustive() {
        for bits in [2u32, 3, 4, 5, 6] {
            let mac = UnsignedScMac::new(p(bits));
            let m = 1u32 << bits;
            for x in 0..m {
                for w in 0..m {
                    assert_eq!(
                        mac.multiply(x, w).unwrap(),
                        mac.multiply_serial(x, w).unwrap(),
                        "bits={bits} x={x} w={w}"
                    );
                }
            }
        }
    }

    #[test]
    fn latency_equals_w() {
        let mac = UnsignedScMac::new(p(8));
        for w in [0u32, 1, 17, 128, 255] {
            assert_eq!(mac.multiply(200, w).unwrap().cycles, w as u64);
        }
    }

    #[test]
    fn error_within_bound_exhaustive() {
        let n = p(8);
        let mac = UnsignedScMac::new(n);
        let bound = mac.error_bound();
        let mut worst = 0f64;
        for x in 0..256u32 {
            for w in 0..256u32 {
                let out = mac.multiply(x, w).unwrap();
                let exact = x as f64 * w as f64 / 256.0;
                let err = (out.value as f64 - exact).abs();
                worst = worst.max(err);
                assert!(err <= bound, "x={x} w={w} err={err}");
            }
        }
        // The bound is loose; empirically the max is ~1–2 LSBs at N = 8.
        assert!(worst < bound, "bound should not be tight (worst = {worst})");
    }

    #[test]
    fn identity_edges() {
        let n = p(6);
        let mac = UnsignedScMac::new(n);
        // w = 0 produces 0 in 0 cycles.
        let out = mac.multiply(63, 0).unwrap();
        assert_eq!((out.value, out.cycles), (0, 0));
        // x = 0 produces 0 regardless of w.
        assert_eq!(mac.multiply(0, 63).unwrap().value, 0);
        // Near-unity × near-unity stays in range.
        let out = mac.multiply(63, 63).unwrap();
        assert!(out.value <= 63);
    }

    #[test]
    fn out_of_range_rejected() {
        let mac = UnsignedScMac::new(p(4));
        assert!(mac.multiply(16, 3).is_err());
        assert!(mac.multiply(3, 16).is_err());
        assert!(mac.partial(3, 17).is_err());
    }

    #[test]
    fn partial_matches_prefix_sum() {
        let n = p(7);
        let mac = UnsignedScMac::new(n);
        for k in 0..=128u64 {
            assert_eq!(mac.partial(99, k).unwrap(), crate::seq::prefix_sum(99, n, k));
        }
    }

    #[test]
    fn to_f64_scaling() {
        let n = p(4);
        let out = UnsignedProduct { value: 8, cycles: 8 };
        assert!((out.to_f64(n) - 0.5).abs() < 1e-12);
    }
}
