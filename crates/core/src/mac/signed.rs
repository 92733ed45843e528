//! The signed (two's-complement) extension of the proposed SC multiplier
//! (paper Sec. 2.4, Table 1).

use crate::seq;
use crate::{Error, Precision};

/// Result of one signed SC multiplication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignedProduct {
    /// The up/down counter value read at cycle `k = |2^(N-1)·w|` —
    /// approximately `2^(N-1)·v_w·v_x` (product units of `2^-(N-1)`...
    /// i.e. counter LSBs are worth `2^-(2(N-1))` in value and the value is
    /// `value / 2^(N-1)` when interpreted like the operands).
    pub value: i64,
    /// Number of cycles the multiplication took: `k = |w_code|`.
    pub cycles: u64,
}

impl SignedProduct {
    /// The product as a real number (`≈ v_x · v_w`).
    pub fn to_f64(self, n: Precision) -> f64 {
        self.value as f64 / n.half_scale() as f64
    }
}

/// The proposed signed SC multiplier / MAC.
///
/// Both operands and the output are two's complement at *multiplier
/// precision* `N` (including the sign bit; value = `code / 2^(N-1)`).
/// The datapath (paper Sec. 2.4):
///
/// 1. flip the sign bit of `x` → offset-binary code `u = x + 2^(N-1)`;
/// 2. feed `u` to the FSM+MUX bitstream generator;
/// 3. XOR the MUX output with `sign(w)`;
/// 4. count up on 1 / down on 0 in an up/down counter for
///    `k = |2^(N-1)·w| = |w_code|` cycles (a down counter loaded with `k`
///    gates the operation).
///
/// Closed form (proved equal to the cycle-level simulation by tests):
/// `counter = sign(w) · (2·P_k(u) − k)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignedScMac {
    n: Precision,
}

impl SignedScMac {
    /// Creates a signed multiplier at precision `n`.
    pub fn new(n: Precision) -> Self {
        SignedScMac { n }
    }

    /// The operand precision.
    pub fn precision(&self) -> Precision {
        self.n
    }

    /// Multiplies signed codes `w · x` by the exact closed form
    /// `sign(w)·(2·P_k(u) − k)` with `P_k` from [`seq::prefix_sum`];
    /// bitwise identical to the per-cycle
    /// [`multiply_serial`](Self::multiply_serial).
    ///
    /// # Errors
    ///
    /// Returns [`Error::CodeOutOfRange`] if either code is outside
    /// `[-2^(N-1), 2^(N-1))`.
    pub fn multiply(&self, w: i32, x: i32) -> Result<SignedProduct, Error> {
        let w = self.n.check_signed(w as i64)?;
        let x = self.n.check_signed(x as i64)?;
        let k = w.code().unsigned_abs() as u64;
        let u = x.to_offset_binary();
        let p = seq::prefix_sum(u, self.n, k) as i64;
        let raw = 2 * p - k as i64;
        let value = if w.code() < 0 { -raw } else { raw };
        Ok(SignedProduct { value, cycles: k })
    }

    /// Multiplies by simulating the datapath cycle-by-cycle (sign-flip,
    /// MUX, XOR with `sign(w)`, up/down counter gated by a down counter).
    ///
    /// # Errors
    ///
    /// Returns [`Error::CodeOutOfRange`] if either code is out of range.
    pub fn multiply_serial(&self, w: i32, x: i32) -> Result<SignedProduct, Error> {
        let wc = self.n.check_signed(w as i64)?;
        let xc = self.n.check_signed(x as i64)?;
        let u = xc.to_offset_binary();
        let w_sign = wc.code() < 0;
        let mut down = wc.code().unsigned_abs() as u64;
        let cycles = down;
        let mut counter = 0i64;
        let mut t = 0u64;
        while down > 0 {
            t += 1;
            let mux = seq::stream_bit(u, self.n, t);
            let bit = mux ^ w_sign;
            counter += if bit { 1 } else { -1 };
            down -= 1;
        }
        Ok(SignedProduct { value: counter, cycles })
    }

    /// The exact product in the same units (`2^(N-1)·v_w·v_x`, a rational
    /// with denominator `2^(N-1)`), returned as `f64` for error analysis.
    pub fn exact(&self, w: i32, x: i32) -> f64 {
        (w as f64) * (x as f64) / self.n.half_scale() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(bits: u32) -> Precision {
        Precision::new(bits).unwrap()
    }

    /// Paper Table 1 (N = 4): every row reproduced exactly.
    #[test]
    fn paper_table1() {
        let mac = SignedScMac::new(p(4));
        // (w_code, x_code, expected counter, expected cycles)
        let rows = [
            (-8, 0, 0i64, 8u64),
            (-8, 7, -8, 8),
            (-8, -8, 8, 8),
            (7, 0, 1, 7),
            (7, 7, 7, 7),
            (7, -8, -7, 7),
        ];
        for &(w, x, value, cycles) in &rows {
            let out = mac.multiply(w, x).unwrap();
            assert_eq!(out.value, value, "w={w} x={x}");
            assert_eq!(out.cycles, cycles, "w={w} x={x}");
        }
    }

    #[test]
    fn closed_form_equals_serial_exhaustive() {
        for bits in [2u32, 3, 4, 5, 6] {
            let mac = SignedScMac::new(p(bits));
            let h = 1i32 << (bits - 1);
            for w in -h..h {
                for x in -h..h {
                    assert_eq!(
                        mac.multiply(w, x).unwrap(),
                        mac.multiply_serial(w, x).unwrap(),
                        "bits={bits} w={w} x={x}"
                    );
                }
            }
        }
    }

    #[test]
    fn error_within_half_n_bound_exhaustive() {
        let n = p(8);
        let mac = SignedScMac::new(n);
        let bound = n.bits() as f64 / 2.0;
        for w in -128..128i32 {
            for x in -128..128i32 {
                let out = mac.multiply(w, x).unwrap();
                let err = (out.value as f64 - mac.exact(w, x)).abs();
                assert!(err <= bound, "w={w} x={x} err={err}");
            }
        }
    }

    #[test]
    fn sign_symmetry() {
        let mac = SignedScMac::new(p(6));
        for w in -32..32i32 {
            for x in -32..32i32 {
                let a = mac.multiply(w, x).unwrap().value;
                // Negating w exactly negates the result (w = -32 has no
                // positive counterpart, skip it).
                if w != -32 {
                    let b = mac.multiply(-w, x).unwrap().value;
                    assert_eq!(a, -b, "w={w} x={x}");
                }
            }
        }
    }

    #[test]
    fn latency_is_abs_w() {
        let mac = SignedScMac::new(p(8));
        assert_eq!(mac.multiply(-100, 5).unwrap().cycles, 100);
        assert_eq!(mac.multiply(3, 5).unwrap().cycles, 3);
        assert_eq!(mac.multiply(0, 5).unwrap().cycles, 0);
        assert_eq!(mac.multiply(-128, 5).unwrap().cycles, 128);
    }

    #[test]
    fn out_of_range_rejected() {
        let mac = SignedScMac::new(p(4));
        assert!(mac.multiply(8, 0).is_err());
        assert!(mac.multiply(0, -9).is_err());
    }

    #[test]
    fn zero_weight_gives_zero_in_zero_cycles() {
        let mac = SignedScMac::new(p(10));
        let out = mac.multiply(0, 511).unwrap();
        assert_eq!((out.value, out.cycles), (0, 0));
    }

    #[test]
    fn to_f64_scaling() {
        let n = p(4);
        let prod = SignedProduct { value: -4, cycles: 8 };
        assert!((prod.to_f64(n) + 0.5).abs() < 1e-12);
    }
}
