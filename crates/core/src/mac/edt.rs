//! Dynamic energy–quality trade-off (early termination) for the proposed
//! SC-MAC.
//!
//! The paper notes (Sec. 4.3.2 / conclusion) that SC's "dynamic
//! energy-quality tradeoff" is an inherent advantage it did not even
//! count; its reference [8] terminates stochastic computations early to
//! save energy at reduced quality. The proposed multiplier supports the
//! same knob almost for free: because the counter's partial sum `P_t`
//! already estimates `x·t`, stopping after only the **top `s` bits of the
//! weight** (`t = ⌊k/2^(N−s)⌋` cycles) and left-shifting the counter by
//! `N−s` yields a product estimate at `s`-bit weight resolution in a
//! `2^(N−s)`-fold shorter time.

use crate::mac::SignedProduct;
use crate::seq;
use crate::{Error, Precision};

/// The proposed signed SC-MAC with early termination after `s` effective
/// weight bits (`1 ≤ s ≤ N`). `s = N` is exactly [`crate::mac::SignedScMac`].
///
/// ```
/// use sc_core::{Precision, mac::{EarlyTerminationScMac, SignedScMac}};
/// let n = Precision::new(8)?;
/// let full = SignedScMac::new(n);
/// let fast = EarlyTerminationScMac::new(n, 5)?; // top 5 of 8 bits
/// let (w, x) = (-100, 90);
/// let a = full.multiply(w, x)?;
/// let b = fast.multiply(w, x)?;
/// assert_eq!(b.cycles, 12);                  // ⌊100/8⌋ vs 100 cycles
/// assert!((a.value - b.value).abs() <= 32);  // graceful quality loss
/// # Ok::<(), sc_core::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EarlyTerminationScMac {
    n: Precision,
    s: u32,
}

impl EarlyTerminationScMac {
    /// Creates the MAC with `s` effective weight bits.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnsupportedPrecision`] if `s` is 0 or exceeds
    /// `n.bits()`.
    pub fn new(n: Precision, s: u32) -> Result<Self, Error> {
        if s == 0 || s > n.bits() {
            return Err(Error::UnsupportedPrecision { requested: s, min: 1, max: n.bits() });
        }
        Ok(EarlyTerminationScMac { n, s })
    }

    /// The operand precision.
    pub fn precision(&self) -> Precision {
        self.n
    }

    /// The effective weight bits `s`.
    pub fn effective_bits(&self) -> u32 {
        self.s
    }

    /// The latency reduction factor `2^(N−s)` relative to the full
    /// multiplier (for the same weight).
    pub fn speedup(&self) -> u64 {
        1u64 << (self.n.bits() - self.s)
    }

    /// Multiplies signed codes with early termination: runs
    /// `t = ⌊|w|/2^(N−s)⌋` cycles and left-shifts the counter by `N−s`.
    ///
    /// The truncated prefix `P_t` is the closed form
    /// [`seq::prefix_sum`] over a shorter prefix.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CodeOutOfRange`] if either code is out of range.
    pub fn multiply(&self, w: i32, x: i32) -> Result<SignedProduct, Error> {
        let wc = self.n.check_signed(w as i64)?;
        let xc = self.n.check_signed(x as i64)?;
        let shift = self.n.bits() - self.s;
        let k = wc.code().unsigned_abs() as u64;
        let t = k >> shift;
        let u = xc.to_offset_binary();
        let p = seq::prefix_sum(u, self.n, t) as i64;
        let raw = (2 * p - t as i64) << shift;
        let value = if wc.code() < 0 { -raw } else { raw };
        Ok(SignedProduct { value, cycles: t })
    }

    /// Worst-case additional error (in counter LSBs) versus the
    /// full-precision proposed multiplier: the dropped weight bits are
    /// worth up to `2^(N−s)−1` cycles of `|x| ≤ 1`, plus the SC error
    /// amplified by the shift.
    pub fn error_bound(&self) -> f64 {
        let shift = (self.n.bits() - self.s) as f64;
        let amplified = self.n.bits() as f64 / 2.0 * 2f64.powf(shift);
        amplified + (2f64.powf(shift) - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::SignedScMac;

    fn p(bits: u32) -> Precision {
        Precision::new(bits).unwrap()
    }

    #[test]
    fn full_s_equals_signed_mac_exhaustive() {
        let n = p(6);
        let full = SignedScMac::new(n);
        let edt = EarlyTerminationScMac::new(n, 6).unwrap();
        for w in -32..32 {
            for x in -32..32 {
                assert_eq!(edt.multiply(w, x).unwrap(), full.multiply(w, x).unwrap());
            }
        }
    }

    #[test]
    fn truncated_product_is_the_serial_walk_of_the_truncated_weight() {
        // Every tier s = 1..=N (the serve ladder's 6 and 4 included) runs
        // the signed datapath for t = |w| >> (N−s) cycles and shifts the
        // counter up by N − s.
        let n = p(8);
        let serial = SignedScMac::new(n);
        for s in 1..=8u32 {
            let edt = EarlyTerminationScMac::new(n, s).unwrap();
            let shift = 8 - s;
            for w in -128..128i32 {
                let t = w.unsigned_abs() >> shift;
                for x in (-128..128i32).step_by(17).chain([127]) {
                    let reference = serial.multiply_serial(w.signum() * t as i32, x).unwrap();
                    let out = edt.multiply(w, x).unwrap();
                    assert_eq!(out.value, reference.value << shift, "s={s} w={w} x={x}");
                    assert_eq!(out.cycles, t as u64, "s={s} w={w} x={x}");
                }
            }
        }
    }

    #[test]
    fn cycles_shrink_geometrically() {
        let n = p(8);
        for s in 1..=8u32 {
            let edt = EarlyTerminationScMac::new(n, s).unwrap();
            let out = edt.multiply(-128, 64).unwrap();
            assert_eq!(out.cycles, 128 >> (8 - s), "s={s}");
            assert_eq!(edt.speedup(), 1 << (8 - s));
        }
    }

    #[test]
    fn error_within_bound_exhaustive() {
        let n = p(7);
        let mac = SignedScMac::new(n);
        for s in 1..=7u32 {
            let edt = EarlyTerminationScMac::new(n, s).unwrap();
            let bound = edt.error_bound();
            for w in -64..64 {
                for x in -64..64 {
                    let est = edt.multiply(w, x).unwrap().value as f64;
                    let exact = mac.exact(w, x);
                    assert!(
                        (est - exact).abs() <= bound,
                        "s={s} w={w} x={x}: {est} vs {exact} (bound {bound})"
                    );
                }
            }
        }
    }

    #[test]
    fn quality_degrades_monotonically_on_average() {
        let n = p(8);
        let mac = SignedScMac::new(n);
        let mut prev_rms = 0.0f64;
        for s in (2..=8u32).rev() {
            let edt = EarlyTerminationScMac::new(n, s).unwrap();
            let mut sum2 = 0.0f64;
            let mut count = 0.0;
            for w in (-128..128).step_by(5) {
                for x in (-128..128).step_by(5) {
                    let e = edt.multiply(w, x).unwrap().value as f64 - mac.exact(w, x);
                    sum2 += e * e;
                    count += 1.0;
                }
            }
            let rms = (sum2 / count).sqrt();
            assert!(rms >= prev_rms, "s={s}: rms {rms} < previous {prev_rms}");
            prev_rms = rms;
        }
    }

    #[test]
    fn invalid_s_rejected() {
        let n = p(8);
        assert!(EarlyTerminationScMac::new(n, 0).is_err());
        assert!(EarlyTerminationScMac::new(n, 9).is_err());
    }
}
