//! **BISC-MVM** — the vectorized SC-MAC array of paper Sec. 3.1 (Fig. 3).
//!
//! `p` parallel SC-MACs share one FSM (all MUXes get the same select) and
//! one down counter (the weight `w` is common to all lanes). One
//! scalar-vector multiplication `w·x⃗` therefore takes `|2^(N-1)·w|`
//! cycles, and a dot-product accumulation `Σ_i w_i·x⃗_i` is performed by
//! simply streaming the `(w_i, x⃗_i)` pairs — the `N+A`-bit saturating
//! up/down counters accumulate for free.
//!
//! Sharing the FSM and the down counter causes **no accuracy degradation**
//! (contrary to SNG sharing in conventional SC): every lane produces
//! bit-exactly what a standalone [`crate::mac::SignedScMac`] would.

use crate::bitplane::RangeCounts;
use crate::mac::{BitParallelScMac, EarlyTerminationScMac, SaturatingAccumulator};
use crate::seq;
use crate::{Error, Precision};

/// Default number of extra accumulation bits (the paper's `A = 2`).
pub const DEFAULT_EXTRA_BITS: u32 = 2;

/// The vectorized SC matrix-vector multiplier.
///
/// ```
/// use sc_core::{Precision, mvm::BiscMvm};
/// let n = Precision::new(8)?;
/// let mut mvm = BiscMvm::new(n, 4, 2);
/// // y⃗ = 0.5·x⃗₁ + (−0.25)·x⃗₂   (codes at 2^(N-1) = 128 scale)
/// mvm.accumulate(64, &[10, 20, 30, 40])?;
/// mvm.accumulate(-32, &[40, 30, 20, 10])?;
/// let y = mvm.read();
/// assert_eq!(y.len(), 4);
/// assert_eq!(mvm.cycles(), 64 + 32); // Σ |w_i|
/// # Ok::<(), sc_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct BiscMvm {
    n: Precision,
    lanes: Vec<SaturatingAccumulator>,
    cycles: u64,
}

impl BiscMvm {
    /// Creates an MVM with `p` lanes at precision `n` and `extra_bits`
    /// accumulation bits (paper default `A = 2`).
    pub fn new(n: Precision, p: usize, extra_bits: u32) -> Self {
        BiscMvm { n, lanes: vec![SaturatingAccumulator::new(n, extra_bits); p], cycles: 0 }
    }

    /// The operand precision.
    pub fn precision(&self) -> Precision {
        self.n
    }

    /// The number of parallel lanes `p`.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Total cycles consumed since the last [`reset`](Self::reset):
    /// `Σ |w_i·2^(N-1)|` over all accumulated terms.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Accumulates one scalar-vector product `w·x⃗` into the lane counters
    /// (fast behavioural path; saturation is applied per product).
    ///
    /// The weight is decoded once and every lane reduces to a few reads
    /// of one shared occupancy scan ([`RangeCounts`]). Without mid-product
    /// saturation this is bitwise identical to the per-cycle
    /// [`accumulate_cycle_accurate`](Self::accumulate_cycle_accurate).
    ///
    /// Returns the cycles this term took (`|w_code|`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] if `xs.len() != p`, or
    /// [`Error::CodeOutOfRange`] if any code is out of range (naming the
    /// first bad one). A rejected term leaves every lane untouched.
    pub fn accumulate(&mut self, w: i32, xs: &[i32]) -> Result<u64, Error> {
        let k = self.accumulate_prefix(w, xs, 0)?;
        self.cycles += k;
        Ok(k)
    }

    /// Accumulates one scalar-vector product in the early-termination
    /// mode of [`EarlyTerminationScMac`]: the shared down counter stops
    /// after the top `s` weight bits (`t = ⌊|w_code| / 2^(N−s)⌋` cycles)
    /// and every lane's count is left-shifted by `N − s`. Each lane gets
    /// exactly what a standalone `EarlyTerminationScMac` would, from the
    /// same shared occupancy scan as [`accumulate`](Self::accumulate).
    ///
    /// Returns the cycles this term took (`t`).
    ///
    /// # Errors
    ///
    /// As [`accumulate`](Self::accumulate), plus
    /// [`Error::UnsupportedPrecision`] if `s` is 0 or exceeds `N`.
    pub fn accumulate_truncated(&mut self, w: i32, xs: &[i32], s: u32) -> Result<u64, Error> {
        let shift = self.n.bits() - EarlyTerminationScMac::new(self.n, s)?.effective_bits();
        let t = self.accumulate_prefix(w, xs, shift)? >> shift;
        self.cycles += t;
        Ok(t)
    }

    /// The shared decode behind every term: one down-counter load, one
    /// sign flag and one occupancy scan of the `t = |w_code| >> shift`-cycle
    /// prefix, whose per-selector counts are lane-independent. Each lane then adds `±(2·P_t(u) − t) << shift`.
    /// The serial design (`shift = 0`), the bit-parallel one (its columns
    /// tile the same `|w_code|`-bit prefix) and early termination (a
    /// shorter prefix) differ only in the cycles their callers bill.
    ///
    /// Returns `|w_code|`; cycles are left to the caller.
    // Inlined so `shift = 0` folds away in the serial and bit-parallel
    // lane loops: with a runtime shift a 512-lane term ran 10–20% slower
    // (N = 8, 2-vCPU x86-64 VM).
    #[inline(always)]
    fn accumulate_prefix(&mut self, w: i32, xs: &[i32], shift: u32) -> Result<u64, Error> {
        if xs.len() != self.lanes.len() {
            return Err(Error::LengthMismatch { expected: self.lanes.len(), actual: xs.len() });
        }
        // The shared down counter runs regardless of lane count: decode w
        // before any lane.
        let wc = self.n.check_signed(w as i64)?;
        check_lane_codes(xs, |x| self.n.check_signed(x as i64).map(drop))?;
        let k = wc.code().unsigned_abs() as u64;
        let t = k >> shift;
        let w_neg = wc.code() < 0;
        let counts = RangeCounts::new(self.n, 0, t);
        // Offset binary `x + 2^(N-1)`: every code was checked above.
        let bias = self.n.half_scale() as i32;
        for (lane, &x) in self.lanes.iter_mut().zip(xs) {
            let ones = counts.ones((x + bias) as u32);
            let raw = (2 * ones as i64 - t as i64) << shift;
            lane.add(if w_neg { -raw } else { raw });
        }
        Ok(k)
    }

    /// Accumulates one scalar-vector product cycle-accurately: every lane's
    /// up/down counter steps ±1 per cycle exactly as the shared-FSM
    /// hardware does, so mid-product saturation behaviour is faithful.
    ///
    /// # Errors
    ///
    /// Same as [`accumulate`](Self::accumulate).
    pub fn accumulate_cycle_accurate(&mut self, w: i32, xs: &[i32]) -> Result<u64, Error> {
        if xs.len() != self.lanes.len() {
            return Err(Error::LengthMismatch { expected: self.lanes.len(), actual: xs.len() });
        }
        let wc = self.n.check_signed(w as i64)?;
        let offsets: Vec<u32> = xs
            .iter()
            .map(|&x| self.n.check_signed(x as i64).map(|c| c.to_offset_binary()))
            .collect::<Result<_, _>>()?;
        let w_sign = wc.code() < 0;
        let k = wc.code().unsigned_abs() as u64;
        for t in 1..=k {
            // One shared FSM select per cycle, one shared down-counter tick.
            for (lane, &u) in self.lanes.iter_mut().zip(&offsets) {
                let bit = seq::stream_bit(u, self.n, t) ^ w_sign;
                lane.count(bit);
            }
        }
        self.cycles += k;
        Ok(k)
    }

    /// Reads the lane counters (the output vector, in product units of
    /// `2^(N-1)`).
    pub fn read(&self) -> Vec<i64> {
        self.lanes.iter().map(|l| l.value()).collect()
    }

    /// Whether any lane has saturated since the last reset.
    pub fn any_saturated(&self) -> bool {
        self.lanes.iter().any(|l| l.has_saturated())
    }

    /// Clears all lane counters and the cycle count.
    pub fn reset(&mut self) {
        for lane in &mut self.lanes {
            lane.reset();
        }
        self.cycles = 0;
    }

    /// One-shot matrix-vector product `y_j = Σ_i w_i · x[i][j]`
    /// (Fig. 3(b)): streams all rows and returns `(y⃗, total_cycles)`.
    /// The MVM is reset before and left holding the result after.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] if `weights.len() != xs.len()` or
    /// any row length differs from `p`; code-range errors propagate.
    pub fn matrix_vector(
        &mut self,
        weights: &[i32],
        xs: &[Vec<i32>],
    ) -> Result<(Vec<i64>, u64), Error> {
        if weights.len() != xs.len() {
            return Err(Error::LengthMismatch { expected: weights.len(), actual: xs.len() });
        }
        self.reset();
        for (&w, row) in weights.iter().zip(xs) {
            self.accumulate(w, row)?;
        }
        Ok((self.read(), self.cycles))
    }
}

/// The unsigned (unipolar) BISC-MVM: the Fig. 1(c) datapath vectorized —
/// `p` plain bit counters sharing one FSM and one down counter. Used when
/// both operands are known non-negative (e.g. post-ReLU activations with
/// non-negative weights), saving the sign-handling XORs.
#[derive(Debug, Clone)]
pub struct UnsignedBiscMvm {
    n: Precision,
    lanes: Vec<SaturatingAccumulator>,
    cycles: u64,
}

impl UnsignedBiscMvm {
    /// Creates an unsigned MVM with `p` lanes and `extra_bits`
    /// accumulation bits (counters stay non-negative but reuse the same
    /// saturating counter type for the shared width convention).
    pub fn new(n: Precision, p: usize, extra_bits: u32) -> Self {
        UnsignedBiscMvm {
            n,
            lanes: vec![SaturatingAccumulator::new(n, extra_bits + 1); p],
            cycles: 0,
        }
    }

    /// The number of lanes `p`.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Total cycles consumed: `Σ w_i` (unsigned codes).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Accumulates one unsigned scalar-vector product `w·x⃗` (codes in
    /// `[0, 2^N)`, values `code/2^N`); returns its cycle count (`w`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] or [`Error::CodeOutOfRange`]
    /// (naming the first bad code). A rejected term leaves every lane
    /// untouched.
    pub fn accumulate(&mut self, w: u32, xs: &[u32]) -> Result<u64, Error> {
        if xs.len() != self.lanes.len() {
            return Err(Error::LengthMismatch { expected: self.lanes.len(), actual: xs.len() });
        }
        self.n.check_unsigned(w as u64)?;
        check_lane_codes(xs, |x| self.n.check_unsigned(x as u64).map(drop))?;
        // Shared occupancy scan, like the signed MVM: one `RangeCounts`
        // per term serves every lane.
        let counts = RangeCounts::new(self.n, 0, w as u64);
        for (lane, &x) in self.lanes.iter_mut().zip(xs) {
            lane.add(counts.ones(x) as i64);
        }
        self.cycles += w as u64;
        Ok(w as u64)
    }

    /// Reads the lane counters (product units of `2^-N`).
    pub fn read(&self) -> Vec<i64> {
        self.lanes.iter().map(|l| l.value()).collect()
    }

    /// Clears all lane counters and the cycle count.
    pub fn reset(&mut self) {
        for lane in &mut self.lanes {
            lane.reset();
        }
        self.cycles = 0;
    }
}

/// Checks a term's lane codes before any lane is updated. The valid codes
/// form one interval, so the smallest and largest code decide; only a
/// failing term is rescanned, for the first bad code's error.
fn check_lane_codes<T: Copy + Ord>(
    xs: &[T],
    check: impl Fn(T) -> Result<(), Error>,
) -> Result<(), Error> {
    let Some(&first) = xs.first() else { return Ok(()) };
    let (lo, hi) = xs.iter().fold((first, first), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    if check(lo).is_ok() && check(hi).is_ok() {
        return Ok(());
    }
    xs.iter().try_for_each(|&x| check(x))
}

/// Latency of one BISC-MVM dot product over a weight sequence:
/// `Σ ceil(|w_i| / b)` cycles for bit-parallelism `b` (`b = 1` is the
/// bit-serial design). This is the data-dependent latency term `t` of
/// paper Sec. 3.2.
pub fn dot_product_cycles(weights: &[i32], b: u32) -> u64 {
    weights.iter().map(|&w| (w.unsigned_abs() as u64).div_ceil(b as u64)).sum()
}

/// Average per-MAC latency (cycles) of the proposed design over a weight
/// population, for bit-parallelism `b` — the quantity plotted in Fig. 7.
pub fn average_mac_latency(weights: &[i32], b: u32) -> f64 {
    if weights.is_empty() {
        return 0.0;
    }
    dot_product_cycles(weights, b) as f64 / weights.len() as f64
}

/// The bit-parallel MVM: identical maths, `ceil(|w|/b)` cycles per term.
/// Provided as a thin wrapper so array-level experiments can switch
/// between the serial and parallel datapaths. Its columns tile the same
/// `|w|`-bit prefix the serial design streams, so every term's values
/// come from the serial MVM's shared occupancy scan; only the billed
/// cycles differ. [`BitParallelScMac::multiply_signed`] is the per-lane
/// reference it is tested against.
#[derive(Debug, Clone)]
pub struct BitParallelMvm {
    inner: BiscMvm,
    b: u32,
}

impl BitParallelMvm {
    /// Creates a bit-parallel MVM with parallelism `b`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParallelism`] for invalid `b` (see
    /// [`BitParallelScMac::new`]).
    pub fn new(n: Precision, p: usize, extra_bits: u32, b: u32) -> Result<Self, Error> {
        let b = BitParallelScMac::new(n, b)?.parallelism();
        Ok(BitParallelMvm { inner: BiscMvm::new(n, p, extra_bits), b })
    }

    /// The degree of bit-parallelism.
    pub fn parallelism(&self) -> u32 {
        self.b
    }

    /// Accumulates one scalar-vector product; returns its cycle count
    /// (`ceil(|w|/b)`, whatever the lane count).
    ///
    /// # Errors
    ///
    /// Same as [`BiscMvm::accumulate`].
    pub fn accumulate(&mut self, w: i32, xs: &[i32]) -> Result<u64, Error> {
        let cycles = self.inner.accumulate_prefix(w, xs, 0)?.div_ceil(self.b as u64);
        self.inner.cycles += cycles;
        Ok(cycles)
    }

    /// Reads the lane counters.
    pub fn read(&self) -> Vec<i64> {
        self.inner.read()
    }

    /// Total cycles consumed since the last reset.
    pub fn cycles(&self) -> u64 {
        self.inner.cycles()
    }

    /// Clears all lane counters and the cycle count.
    pub fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::{SignedProduct, SignedScMac};

    fn p(bits: u32) -> Precision {
        Precision::new(bits).unwrap()
    }

    /// Feeds every code as a lane and every code as a weight in turn to
    /// `term` (which accumulates one term and returns its cycles and the
    /// lane counters after it), and checks each lane against a per-lane
    /// `reference` MAC feeding its own saturating accumulator: products,
    /// cycles and saturation order alike (`A = 0` clamps within a few
    /// terms).
    fn check_against_per_lane(
        n: Precision,
        a: u32,
        mut term: impl FnMut(i32, &[i32]) -> (u64, Vec<i64>),
        reference: impl Fn(i32, i32) -> SignedProduct,
    ) {
        let h = n.half_scale() as i32;
        let xs: Vec<i32> = (-h..h).collect();
        let mut golden = vec![SaturatingAccumulator::new(n, a); xs.len()];
        for w in -h..h {
            let (cycles, lanes) = term(w, &xs);
            for (acc, &x) in golden.iter_mut().zip(&xs) {
                let product = reference(w, x);
                assert_eq!(cycles, product.cycles, "w={w} x={x}");
                acc.add(product.value);
            }
            assert_eq!(lanes, golden.iter().map(|g| g.value()).collect::<Vec<_>>(), "w={w}");
        }
    }

    #[test]
    fn sharing_causes_no_accuracy_loss() {
        // Every MVM lane equals a standalone signed SC-MAC, exhaustively.
        let n = p(5);
        let mac = SignedScMac::new(n);
        let xs: Vec<i32> = (-16..16).collect();
        for w in -16..16i32 {
            let mut mvm = BiscMvm::new(n, xs.len(), 8);
            mvm.accumulate(w, &xs).unwrap();
            let ys = mvm.read();
            for (&x, &y) in xs.iter().zip(&ys) {
                assert_eq!(y, mac.multiply(w, x).unwrap().value, "w={w} x={x}");
            }
        }
    }

    #[test]
    fn cycle_accurate_equals_fast_path_without_saturation() {
        let n = p(6);
        let xs = [5i32, -17, 30, -32, 0, 11];
        let ws = [9i32, -3, 31, -32, 1];
        let mut fast = BiscMvm::new(n, xs.len(), 8);
        let mut slow = BiscMvm::new(n, xs.len(), 8);
        for &w in &ws {
            fast.accumulate(w, &xs).unwrap();
            slow.accumulate_cycle_accurate(w, &xs).unwrap();
        }
        assert_eq!(fast.read(), slow.read());
        assert_eq!(fast.cycles(), slow.cycles());
        assert!(!fast.any_saturated());
    }

    #[test]
    fn accumulation_is_exact_sum_of_products() {
        let n = p(8);
        let mac = SignedScMac::new(n);
        let xs = [100i32, -100, 64, -1];
        let ws = [3i32, -77, 120];
        let mut mvm = BiscMvm::new(n, xs.len(), 8);
        for &w in &ws {
            mvm.accumulate(w, &xs).unwrap();
        }
        for (j, &x) in xs.iter().enumerate() {
            let expect: i64 = ws.iter().map(|&w| mac.multiply(w, x).unwrap().value).sum();
            assert_eq!(mvm.read()[j], expect);
        }
        let expect_cycles: u64 = ws.iter().map(|w| w.unsigned_abs() as u64).sum();
        assert_eq!(mvm.cycles(), expect_cycles);
    }

    #[test]
    fn matrix_vector_matches_manual_loop() {
        let n = p(7);
        let weights = vec![10i32, -20, 30];
        let xs = vec![vec![1i32, 2, 3, 4], vec![5, 6, 7, 8], vec![-9, -10, -11, -12]];
        let mut mvm = BiscMvm::new(n, 4, 4);
        let (y, cycles) = mvm.matrix_vector(&weights, &xs).unwrap();
        assert_eq!(cycles, 60);
        let mac = SignedScMac::new(n);
        for j in 0..4 {
            let expect: i64 = weights
                .iter()
                .zip(&xs)
                .map(|(&w, row)| mac.multiply(w, row[j]).unwrap().value)
                .sum();
            assert_eq!(y[j], expect);
        }
    }

    #[test]
    fn length_mismatch_rejected() {
        let n = p(6);
        let mut mvm = BiscMvm::new(n, 3, 2);
        assert!(matches!(
            mvm.accumulate(1, &[1, 2]),
            Err(Error::LengthMismatch { expected: 3, actual: 2 })
        ));
        assert!(mvm.matrix_vector(&[1, 2], &[vec![1, 2, 3]]).is_err());
    }

    #[test]
    fn saturation_is_tracked() {
        let n = p(4);
        let mut mvm = BiscMvm::new(n, 1, 0); // 4-bit accumulator: [-8, 7]
        for _ in 0..5 {
            mvm.accumulate(7, &[7]).unwrap(); // each product ≈ +6
        }
        assert!(mvm.any_saturated());
        assert_eq!(mvm.read()[0], 7);
    }

    #[test]
    fn bit_parallel_mvm_matches_serial_values() {
        let n = p(9);
        let xs = [100i32, -200, 17];
        let ws = [33i32, -250, 4];
        let mut serial = BiscMvm::new(n, 3, 4);
        let mut par = BitParallelMvm::new(n, 3, 4, 8).unwrap();
        let mut serial_cycles = 0;
        let mut par_cycles = 0;
        for &w in &ws {
            serial_cycles += serial.accumulate(w, &xs).unwrap();
            par_cycles += par.accumulate(w, &xs).unwrap();
        }
        assert_eq!(serial.read(), par.read());
        assert_eq!(serial_cycles, 33 + 250 + 4);
        assert_eq!(par_cycles, 5 + 32 + 1); // ceil(|w|/8)
    }

    #[test]
    fn bit_parallel_mvm_matches_per_lane_reference() {
        for bits in 4..=6u32 {
            let n = p(bits);
            for b in [1u32, 2, 4, 8, 16] {
                let mac = BitParallelScMac::new(n, b).unwrap();
                for a in [0u32, 8] {
                    let lanes = n.stream_len() as usize;
                    let mut mvm = BitParallelMvm::new(n, lanes, a, b).unwrap();
                    let mut billed = 0;
                    check_against_per_lane(
                        n,
                        a,
                        |w, xs| {
                            let cycles = mvm.accumulate(w, xs).unwrap();
                            billed += cycles;
                            (cycles, mvm.read())
                        },
                        |w, x| mac.multiply_signed(w, x).unwrap(),
                    );
                    assert_eq!(mvm.cycles(), billed, "N={bits} b={b} A={a}");
                }
            }
        }
    }

    #[test]
    fn truncated_terms_match_per_lane_edt_reference() {
        let n = p(6);
        for s in 1..=6u32 {
            let edt = EarlyTerminationScMac::new(n, s).unwrap();
            for a in [0u32, 8] {
                let mut mvm = BiscMvm::new(n, n.stream_len() as usize, a);
                let mut billed = 0;
                check_against_per_lane(
                    n,
                    a,
                    |w, xs| {
                        let cycles = mvm.accumulate_truncated(w, xs, s).unwrap();
                        billed += cycles;
                        (cycles, mvm.read())
                    },
                    |w, x| edt.multiply(w, x).unwrap(),
                );
                assert_eq!(mvm.cycles(), billed, "s={s} A={a}");
            }
        }
        let mut mvm = BiscMvm::new(n, 1, 2);
        assert!(matches!(
            mvm.accumulate_truncated(5, &[1], 0),
            Err(Error::UnsupportedPrecision { .. })
        ));
        assert!(mvm.accumulate_truncated(5, &[1], 7).is_err());
    }

    #[test]
    fn behavioural_mvms_match_per_cycle_references() {
        // Random codes at N in {4, 7, 10}; A = 8 keeps every lane clear of
        // saturation, where the per-term and per-cycle models agree.
        let mut rng = crate::rng::SmallRng::seed_from_u64(0x5EED_0004);
        for bits in [4u32, 7, 10] {
            let n = p(bits);
            let m = n.stream_len();
            let mut signed = |len| -> Vec<i32> {
                (0..len).map(|_| (rng.next_u64() % m) as i32 - n.half_scale() as i32).collect()
            };
            let (xs, ws) = (signed(17), signed(5));
            let mut fast = BiscMvm::new(n, xs.len(), 8);
            let mut golden = BiscMvm::new(n, xs.len(), 8);
            for &w in &ws {
                assert_eq!(
                    fast.accumulate(w, &xs).unwrap(),
                    golden.accumulate_cycle_accurate(w, &xs).unwrap()
                );
            }
            assert_eq!((fast.read(), fast.cycles()), (golden.read(), golden.cycles()), "N={bits}");
            assert!(!golden.any_saturated(), "N={bits}");

            let mut unsigned =
                |len| -> Vec<u32> { (0..len).map(|_| (rng.next_u64() % m) as u32).collect() };
            let (uxs, uws) = (unsigned(17), unsigned(5));
            let mac = crate::mac::UnsignedScMac::new(n);
            let mut mvm = UnsignedBiscMvm::new(n, uxs.len(), 8);
            for &w in &uws {
                mvm.accumulate(w, &uxs).unwrap();
            }
            let expect: Vec<i64> = uxs
                .iter()
                .map(|&x| {
                    uws.iter().map(|&w| mac.multiply_serial(x, w).unwrap().value as i64).sum()
                })
                .collect();
            assert_eq!(mvm.read(), expect, "N={bits} unsigned");
            assert_eq!(mvm.cycles(), uws.iter().map(|&w| w as u64).sum::<u64>(), "N={bits}");
        }
    }

    #[test]
    fn rejected_terms_leave_lanes_untouched() {
        // Lanes 0 and 1 hold valid codes and lane 2 a bad one: the error
        // names lane 2's code, and no lane or cycle count moves.
        let n = p(8);
        let bad = Err(Error::CodeOutOfRange { code: 300, precision: 8 });
        let mut serial = BiscMvm::new(n, 3, 2);
        let mut par = BitParallelMvm::new(n, 3, 2, 8).unwrap();
        let mut unsigned = UnsignedBiscMvm::new(n, 3, 2);
        serial.accumulate(10, &[5, 6, 7]).unwrap();
        par.accumulate(10, &[5, 6, 7]).unwrap();
        unsigned.accumulate(10, &[5, 6, 7]).unwrap();
        let state = |s: &BiscMvm, p: &BitParallelMvm, u: &UnsignedBiscMvm| {
            [(s.read(), s.cycles()), (p.read(), p.cycles()), (u.read(), u.cycles())]
        };
        let before = state(&serial, &par, &unsigned);

        assert_eq!(serial.accumulate(100, &[100, 100, 300]), bad);
        assert_eq!(serial.accumulate_truncated(100, &[100, 100, 300], 4), bad);
        assert_eq!(par.accumulate(100, &[100, 100, 300]), bad);
        assert_eq!(unsigned.accumulate(100, &[200, 200, 300]), bad);
        assert_eq!(state(&serial, &par, &unsigned), before);
        // The first bad lane is the one named, not the largest code.
        assert_eq!(
            serial.accumulate(1, &[0, 200, 300]),
            Err(Error::CodeOutOfRange { code: 200, precision: 8 })
        );
    }

    #[test]
    fn zero_lane_mvms_still_decode_the_weight() {
        // The shared down counter is loaded whatever the lane count: the
        // weight is range-checked and its cycles are billed.
        let n = p(8);
        let mut serial = BiscMvm::new(n, 0, 2);
        let mut par = BitParallelMvm::new(n, 0, 2, 8).unwrap();
        assert!(matches!(serial.accumulate(300, &[]), Err(Error::CodeOutOfRange { .. })));
        assert!(matches!(par.accumulate(300, &[]), Err(Error::CodeOutOfRange { .. })));
        assert_eq!(serial.accumulate(-100, &[]).unwrap(), 100);
        assert_eq!(par.accumulate(-100, &[]).unwrap(), 13);
        assert_eq!((serial.cycles(), par.cycles()), (100, 13));
    }

    #[test]
    fn unsigned_mvm_matches_unsigned_mac() {
        use crate::mac::UnsignedScMac;
        let n = p(6);
        let mac = UnsignedScMac::new(n);
        let xs: Vec<u32> = vec![0, 1, 13, 40, 63];
        let ws = [5u32, 63, 0, 17];
        let mut mvm = UnsignedBiscMvm::new(n, xs.len(), 8);
        for &w in &ws {
            mvm.accumulate(w, &xs).unwrap();
        }
        for (j, &x) in xs.iter().enumerate() {
            let expect: i64 = ws.iter().map(|&w| mac.multiply(x, w).unwrap().value as i64).sum();
            assert_eq!(mvm.read()[j], expect, "lane {j}");
        }
        assert_eq!(mvm.cycles(), ws.iter().map(|&w| w as u64).sum::<u64>());
    }

    #[test]
    fn unsigned_mvm_rejects_bad_inputs() {
        let n = p(4);
        let mut mvm = UnsignedBiscMvm::new(n, 2, 2);
        assert!(mvm.accumulate(16, &[0, 0]).is_err());
        assert!(mvm.accumulate(3, &[0]).is_err());
        assert!(mvm.accumulate(3, &[16, 0]).is_err());
        mvm.accumulate(3, &[5, 7]).unwrap();
        mvm.reset();
        assert_eq!(mvm.read(), vec![0, 0]);
        assert_eq!(mvm.lanes(), 2);
    }

    #[test]
    fn latency_helpers() {
        assert_eq!(dot_product_cycles(&[10, -20, 0, 7], 1), 37);
        assert_eq!(dot_product_cycles(&[10, -20, 0, 7], 8), (2 + 3) + 1);
        assert!((average_mac_latency(&[10, -20, 0, 7], 1) - 9.25).abs() < 1e-12);
        assert_eq!(average_mac_latency(&[], 1), 0.0);
    }
}
