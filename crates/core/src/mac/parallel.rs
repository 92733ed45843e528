//! Bit-parallel processing of the proposed SC multiplier (paper Sec. 2.5,
//! Fig. 2(b)).
//!
//! The `2^N`-bit low-discrepancy sequence is rearranged into a `b`-row,
//! `2^N/b`-column matrix (column `j` holding sequence bits `j·b+1 ..=
//! (j+1)·b`) and one column is processed per hardware cycle by a *ones
//! counter*. When the remaining multiplier weight `w` is at least `b` the
//! full column is counted; otherwise only the top `w` bits of the column
//! are counted and the multiplication completes. By construction the
//! result is **exactly** the bit-serial result, only `b×` faster.

use crate::mac::{SignedProduct, UnsignedProduct};
use crate::seq;
use crate::{Error, Precision};

/// The bit-parallel variant of the proposed SC-MAC.
///
/// ```
/// use sc_core::{Precision, mac::{BitParallelScMac, SignedScMac}};
/// let n = Precision::new(9)?;
/// let par = BitParallelScMac::new(n, 8)?;
/// let ser = SignedScMac::new(n);
/// let a = par.multiply_signed(-200, 133)?;
/// let b = ser.multiply(-200, 133)?;
/// assert_eq!(a.value, b.value);      // bit-exact
/// assert_eq!(a.cycles, 25);          // ceil(200 / 8), not 200
/// # Ok::<(), sc_core::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitParallelScMac {
    n: Precision,
    b: u32,
}

impl BitParallelScMac {
    /// Creates a bit-parallel MAC with parallelism degree `b`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParallelism`] unless `b` is a power of two
    /// in `1..=2^N`.
    pub fn new(n: Precision, b: u32) -> Result<Self, Error> {
        if b.is_power_of_two() && (b as u64) <= n.stream_len() {
            Ok(BitParallelScMac { n, b })
        } else {
            Err(Error::InvalidParallelism { requested: b, precision: n.bits() })
        }
    }

    /// The operand precision.
    pub fn precision(&self) -> Precision {
        self.n
    }

    /// The degree of bit-parallelism.
    pub fn parallelism(&self) -> u32 {
        self.b
    }

    /// Ones count of one full column `j` of the rearranged bit matrix —
    /// the quantity the hardware *ones counter* produces in one cycle.
    ///
    /// The inset formula of Fig. 2(b) exploits that within any aligned
    /// `b`-bit chunk, half the bits come from the MSB of `x`, half of the
    /// rest from the next bit, etc., with only the deepest contribution
    /// varying per column (provided by a small FSM with `2^N/b` states).
    pub fn column_ones(&self, x: u32, j: u64) -> u64 {
        self.partial_column_ones(x, j, self.b as u64)
    }

    /// Ones count of the top `rows` bits of column `j` (the final, partial
    /// column when the remaining weight is smaller than `b`), by the
    /// closed form [`seq::range_sum`].
    pub fn partial_column_ones(&self, x: u32, j: u64, rows: u64) -> u64 {
        debug_assert!(rows <= self.b as u64);
        let lo = j * self.b as u64;
        seq::range_sum(x, self.n, lo, lo + rows)
    }

    /// Unsigned bit-parallel multiplication; bit-exact with
    /// [`crate::mac::UnsignedScMac::multiply`] but taking `ceil(w/b)`
    /// cycles.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CodeOutOfRange`] if either code is `≥ 2^N`.
    pub fn multiply_unsigned(&self, x: u32, w: u32) -> Result<UnsignedProduct, Error> {
        self.n.check_unsigned(x as u64)?;
        self.n.check_unsigned(w as u64)?;
        let b = self.b as u64;
        let mut remaining = w as u64;
        let mut counter = 0u64;
        let mut cycles = 0u64;
        let mut j = 0u64;
        while remaining > 0 {
            counter += if remaining >= b {
                self.column_ones(x, j)
            } else {
                self.partial_column_ones(x, j, remaining)
            };
            remaining = remaining.saturating_sub(b);
            j += 1;
            cycles += 1;
        }
        Ok(UnsignedProduct { value: counter, cycles })
    }

    /// Signed bit-parallel multiplication; bit-exact with
    /// [`crate::mac::SignedScMac::multiply`] but taking `ceil(|w|/b)`
    /// cycles. Per column the up/down counter adds
    /// `2·ones − bits_processed`, XOR-corrected by the sign of `w`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CodeOutOfRange`] if either code is out of range.
    pub fn multiply_signed(&self, w: i32, x: i32) -> Result<SignedProduct, Error> {
        let wc = self.n.check_signed(w as i64)?;
        let xc = self.n.check_signed(x as i64)?;
        let u = xc.to_offset_binary();
        let b = self.b as u64;
        let mut remaining = wc.code().unsigned_abs() as u64;
        let mut counter = 0i64;
        let mut cycles = 0u64;
        let mut j = 0u64;
        while remaining > 0 {
            let rows = remaining.min(b);
            let ones = self.partial_column_ones(u, j, rows);
            counter += 2 * ones as i64 - rows as i64;
            remaining -= rows;
            j += 1;
            cycles += 1;
        }
        if wc.code() < 0 {
            counter = -counter;
        }
        Ok(SignedProduct { value: counter, cycles })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::{SignedScMac, UnsignedScMac};

    fn p(bits: u32) -> Precision {
        Precision::new(bits).unwrap()
    }

    #[test]
    fn rejects_invalid_parallelism() {
        let n = p(6);
        assert!(BitParallelScMac::new(n, 0).is_err());
        assert!(BitParallelScMac::new(n, 3).is_err());
        assert!(BitParallelScMac::new(n, 128).is_err());
        assert!(BitParallelScMac::new(n, 64).is_ok());
    }

    #[test]
    fn unsigned_bit_exact_with_serial_exhaustive() {
        for bits in [4u32, 5, 6] {
            let n = p(bits);
            let serial = UnsignedScMac::new(n);
            for b in [1u32, 2, 4, 8] {
                let par = BitParallelScMac::new(n, b).unwrap();
                for x in 0..(1u32 << bits) {
                    for w in 0..(1u32 << bits) {
                        assert_eq!(
                            par.multiply_unsigned(x, w).unwrap().value,
                            serial.multiply(x, w).unwrap().value,
                            "bits={bits} b={b} x={x} w={w}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn signed_bit_exact_with_serial_exhaustive() {
        for bits in [4u32, 5, 6] {
            let n = p(bits);
            let serial = SignedScMac::new(n);
            let h = 1i32 << (bits - 1);
            for b in [1u32, 4, 8, 16] {
                let par = BitParallelScMac::new(n, b).unwrap();
                for w in -h..h {
                    for x in -h..h {
                        assert_eq!(
                            par.multiply_signed(w, x).unwrap().value,
                            serial.multiply(w, x).unwrap().value,
                            "bits={bits} b={b} w={w} x={x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn latency_is_ceil_w_over_b() {
        let n = p(9);
        let par = BitParallelScMac::new(n, 8).unwrap();
        assert_eq!(par.multiply_signed(-200, 7).unwrap().cycles, 25);
        assert_eq!(par.multiply_signed(1, 7).unwrap().cycles, 1);
        assert_eq!(par.multiply_signed(0, 7).unwrap().cycles, 0);
        assert_eq!(par.multiply_unsigned(100, 17).unwrap().cycles, 3);
    }

    #[test]
    fn column_ones_sums_to_code() {
        let n = p(8);
        let par = BitParallelScMac::new(n, 16).unwrap();
        let x = 0b1011_0110u32;
        let total: u64 = (0..16).map(|j| par.column_ones(x, j)).sum();
        assert_eq!(total, x as u64);
    }
}
