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
//!
//! A term's lane codes come either as a `&[i32]`, range-checked on every
//! term, or as a row of a [`LaneCodes`] block, range-checked once when
//! the block was built.

use crate::bitplane::RangeCounts;
use crate::mac::{BitParallelScMac, EarlyTerminationScMac, SaturatingAccumulator};
use crate::seq;
use crate::{Error, Precision, SignedCode};

/// Default number of extra accumulation bits (the paper's `A = 2`).
pub const DEFAULT_EXTRA_BITS: u32 = 2;

/// A term-major block of signed lane codes, range-checked once and
/// stored offset-binary (`x + 2^(N−1)`): row `i` holds the codes a unit
/// multiplies by its `i`-th weight. Only [`LaneCodes::new`] builds one,
/// so an MVM reads its rows ([`BiscMvm::accumulate_row`],
/// [`BiscMvm::accumulate_truncated_row`], [`BitParallelMvm::accumulate_row`])
/// without checking them again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneCodes {
    n: Precision,
    lanes: usize,
    offsets: Vec<u16>,
}

impl LaneCodes {
    /// Checks `codes`, `lanes` to a row, against precision `n`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `lanes` is 0 or does not divide
    /// `codes.len()`, or [`Error::CodeOutOfRange`] naming the first bad
    /// code in (row, lane) order.
    pub fn new(n: Precision, lanes: usize, codes: &[i32]) -> Result<LaneCodes, Error> {
        if lanes == 0 || !codes.len().is_multiple_of(lanes) {
            return Err(Error::InvalidConfig {
                what: "lane-code block".into(),
                reason: format!("{} codes do not fill rows of {lanes} lanes", codes.len()),
            });
        }
        check_lane_codes(codes, |x| n.check_signed(x as i64).map(drop))?;
        let bias = n.half_scale() as i32;
        Ok(LaneCodes { n, lanes, offsets: codes.iter().map(|&x| (x + bias) as u16).collect() })
    }

    /// Codes per row.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The rows, in term order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = LaneRow<'_>> {
        self.offsets.chunks(self.lanes).map(|offsets| LaneRow { n: self.n, offsets })
    }
}

/// One row of a [`LaneCodes`] block: one term's checked lane codes.
#[derive(Debug, Clone, Copy)]
pub struct LaneRow<'a> {
    n: Precision,
    offsets: &'a [u16],
}

impl<'a> LaneRow<'a> {
    /// The signed codes, in lane order.
    pub fn codes(self) -> impl Iterator<Item = i32> + 'a {
        let bias = self.n.half_scale() as i32;
        self.offsets.iter().map(move |&u| u as i32 - bias)
    }
}

/// One term's lane codes as the signed MVMs read them.
trait TermCodes: Copy {
    fn len(self) -> usize;

    /// The lanes' offset-binary codes, once they are known to be in range
    /// at precision `n`.
    fn offsets(self, n: Precision) -> Result<impl Iterator<Item = usize>, Error>;
}

impl TermCodes for &[i32] {
    fn len(self) -> usize {
        <[i32]>::len(self)
    }

    #[inline(always)]
    fn offsets(self, n: Precision) -> Result<impl Iterator<Item = usize>, Error> {
        check_lane_codes(self, |x| n.check_signed(x as i64).map(drop))?;
        let bias = n.half_scale() as i32;
        Ok(self.iter().map(move |&x| (x + bias) as usize))
    }
}

impl TermCodes for LaneRow<'_> {
    fn len(self) -> usize {
        self.offsets.len()
    }

    #[inline(always)]
    fn offsets(self, n: Precision) -> Result<impl Iterator<Item = usize>, Error> {
        if self.n != n {
            return Err(Error::InvalidConfig {
                what: "lane codes".into(),
                reason: format!("checked at {} for an MVM at {n}", self.n),
            });
        }
        Ok(self.offsets.iter().map(|&u| u as usize))
    }
}

/// The lane counters of an MVM: plain `i64`s sharing one inclusive
/// range and one saturation flag. Every add clamps per product, as the
/// [`SaturatingAccumulator`] each lane models does, but without a branch.
#[derive(Debug, Clone)]
struct Counters {
    values: Vec<i64>,
    lo: i64,
    hi: i64,
    saturated: bool,
}

impl Counters {
    /// `p` counters of `width` bits at zero.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in `2..=62`, as
    /// [`SaturatingAccumulator::with_width`] does.
    fn new(p: usize, width: u32) -> Counters {
        let (lo, hi) = SaturatingAccumulator::with_width(width).range();
        Counters { values: vec![0; p], lo, hi, saturated: false }
    }

    /// Adds `step(u)` to each lane's counter, `u` being the lane's
    /// offset-binary code.
    #[inline(always)]
    fn add(&mut self, us: impl Iterator<Item = usize>, step: impl Fn(usize) -> i64) {
        let (lo, hi) = (self.lo, self.hi);
        let mut saturated = false;
        for (value, u) in self.values.iter_mut().zip(us) {
            let sum = *value + step(u);
            let clamped = sum.clamp(lo, hi);
            saturated |= clamped != sum;
            *value = clamped;
        }
        self.saturated |= saturated;
    }

    /// Adds `scale·P_k(u) + offset` to each lane's counter: one row of
    /// the precision's [`seq::PrefixTable`] serves every lane, or above
    /// [`seq::PREFIX_TABLE_MAX_BITS`] one [`RangeCounts`] scan does.
    ///
    /// An empty prefix (`k = 0`) touches no lane: `P_0(u) = 0`, every
    /// caller's offset is then 0, and in-range lanes neither clamp nor
    /// flag saturation.
    // Inlined so the table read, the add and the clamp form one loop.
    #[inline(always)]
    fn add_prefix(
        &mut self,
        n: Precision,
        k: u64,
        us: impl Iterator<Item = usize>,
        scale: i64,
        offset: i64,
    ) {
        if k == 0 {
            debug_assert_eq!(offset, 0, "an empty prefix adds nothing");
            return;
        }
        match seq::prefix_table(n) {
            Some(table) => {
                let row = table.row(k);
                self.add(us, |u| scale * row[u] as i64 + offset);
            }
            None => {
                let counts = RangeCounts::new(n, 0, k);
                self.add(us, |u| scale * counts.ones(u as u32) as i64 + offset);
            }
        }
    }

    fn reset(&mut self) {
        self.values.fill(0);
        self.saturated = false;
    }
}

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
    counters: Counters,
    cycles: u64,
}

impl BiscMvm {
    /// Creates an MVM with `p` lanes at precision `n` and `extra_bits`
    /// accumulation bits (paper default `A = 2`).
    ///
    /// # Panics
    ///
    /// Panics if the `N + A`-bit counter is not 2 to 62 bits wide.
    pub fn new(n: Precision, p: usize, extra_bits: u32) -> Self {
        BiscMvm { n, counters: Counters::new(p, n.bits() + extra_bits), cycles: 0 }
    }

    /// The operand precision.
    pub fn precision(&self) -> Precision {
        self.n
    }

    /// The number of parallel lanes `p`.
    pub fn lanes(&self) -> usize {
        self.counters.values.len()
    }

    /// Total cycles consumed since the last [`reset`](Self::reset):
    /// `Σ |w_i·2^(N-1)|` over all accumulated terms.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Accumulates one scalar-vector product `w·x⃗` into the lane counters
    /// (fast behavioural path; saturation is applied per product).
    ///
    /// The weight is decoded once and every lane reads one shared row of
    /// `P_k(u)` counts (a per-precision table at `N ≤ 10`, one
    /// [`RangeCounts`] scan per term above). Without mid-product
    /// saturation this is bitwise identical to the per-cycle
    /// [`accumulate_cycle_accurate`](Self::accumulate_cycle_accurate).
    ///
    /// Returns the cycles this term took (`|w_code|`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] if `xs.len() != p`, or
    /// [`Error::CodeOutOfRange`] if any code is out of range (the weight
    /// first, then the first bad lane). A rejected term leaves every lane
    /// untouched.
    pub fn accumulate(&mut self, w: i32, xs: &[i32]) -> Result<u64, Error> {
        self.serial(w, xs)
    }

    /// [`accumulate`](Self::accumulate) on a row of checked lane codes.
    ///
    /// # Errors
    ///
    /// As [`accumulate`](Self::accumulate) (only the weight is checked),
    /// plus [`Error::InvalidConfig`] if the row was checked at another
    /// precision.
    pub fn accumulate_row(&mut self, w: i32, xs: LaneRow<'_>) -> Result<u64, Error> {
        self.serial(w, xs)
    }

    fn serial(&mut self, w: i32, xs: impl TermCodes) -> Result<u64, Error> {
        let k = self.term(w, xs, 0)?;
        self.cycles += k;
        Ok(k)
    }

    /// Accumulates one scalar-vector product in the early-termination
    /// mode of [`EarlyTerminationScMac`]: the shared down counter stops
    /// after the top `s` weight bits (`t = ⌊|w_code| / 2^(N−s)⌋` cycles)
    /// and every lane's count is left-shifted by `N − s`. Each lane gets
    /// exactly what a standalone `EarlyTerminationScMac` would, from the
    /// same shared row of counts as [`accumulate`](Self::accumulate).
    ///
    /// Returns the cycles this term took (`t`).
    ///
    /// # Errors
    ///
    /// As [`accumulate`](Self::accumulate), plus
    /// [`Error::UnsupportedPrecision`] if `s` is 0 or exceeds `N`.
    pub fn accumulate_truncated(&mut self, w: i32, xs: &[i32], s: u32) -> Result<u64, Error> {
        self.truncated(w, xs, s)
    }

    /// [`accumulate_truncated`](Self::accumulate_truncated) on a row of
    /// checked lane codes.
    ///
    /// # Errors
    ///
    /// As [`accumulate_truncated`](Self::accumulate_truncated), plus
    /// [`Error::InvalidConfig`] if the row was checked at another
    /// precision.
    pub fn accumulate_truncated_row(
        &mut self,
        w: i32,
        xs: LaneRow<'_>,
        s: u32,
    ) -> Result<u64, Error> {
        self.truncated(w, xs, s)
    }

    fn truncated(&mut self, w: i32, xs: impl TermCodes, s: u32) -> Result<u64, Error> {
        let shift = self.n.bits() - EarlyTerminationScMac::new(self.n, s)?.effective_bits();
        let t = self.term(w, xs, shift)? >> shift;
        self.cycles += t;
        Ok(t)
    }

    /// Checks the lane count, then decodes the weight: the shared down
    /// counter runs whatever the lanes hold, so `w` is checked before
    /// any lane code.
    fn decode(&self, w: i32, lanes: usize) -> Result<SignedCode, Error> {
        if lanes != self.lanes() {
            return Err(Error::LengthMismatch { expected: self.lanes(), actual: lanes });
        }
        self.n.check_signed(w as i64)
    }

    /// The shared decode behind every term: one down-counter load, one
    /// sign flag and one row of `P_t(u)` counts for the
    /// `t = |w_code| >> shift`-cycle prefix, which is lane-independent.
    /// Each lane then adds `±(2·P_t(u) − t) << shift`. The serial design
    /// (`shift = 0`), the bit-parallel one (its columns tile the same
    /// `|w_code|`-bit prefix) and early termination (a shorter prefix)
    /// differ only in the cycles their callers bill.
    ///
    /// Returns `|w_code|`; cycles are left to the caller.
    // Inlined so `shift = 0` folds away in the serial and bit-parallel
    // lane loops: with a runtime shift a 512-lane term ran 10–20% slower
    // (N = 8, 2-vCPU x86-64 VM).
    #[inline(always)]
    fn term(&mut self, w: i32, xs: impl TermCodes, shift: u32) -> Result<u64, Error> {
        let wc = self.decode(w, xs.len())?;
        let us = xs.offsets(self.n)?;
        let k = wc.code().unsigned_abs() as u64;
        let t = k >> shift;
        // ±(2·P_t(u) − t) << shift = scale·P_t(u) + offset.
        let sign = if wc.code() < 0 { -1 } else { 1 };
        let (scale, offset) = ((2 * sign) << shift, (-sign * t as i64) << shift);
        self.counters.add_prefix(self.n, t, us, scale, offset);
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
        let wc = self.decode(w, xs.len())?;
        let us: Vec<usize> = xs.offsets(self.n)?.collect();
        let (n, w_sign) = (self.n, wc.code() < 0);
        let k = wc.code().unsigned_abs() as u64;
        for t in 1..=k {
            // One shared FSM select per cycle, one shared down-counter tick.
            let step = |u: usize| if seq::stream_bit(u as u32, n, t) ^ w_sign { 1 } else { -1 };
            self.counters.add(us.iter().copied(), step);
        }
        self.cycles += k;
        Ok(k)
    }

    /// Reads the lane counters (the output vector, in product units of
    /// `2^(N-1)`).
    pub fn read(&self) -> Vec<i64> {
        self.counters.values.clone()
    }

    /// Whether any lane has saturated since the last reset.
    pub fn any_saturated(&self) -> bool {
        self.counters.saturated
    }

    /// Clears all lane counters and the cycle count.
    pub fn reset(&mut self) {
        self.counters.reset();
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
    counters: Counters,
    cycles: u64,
}

impl UnsignedBiscMvm {
    /// Creates an unsigned MVM with `p` lanes and `extra_bits`
    /// accumulation bits (counters stay non-negative but keep the signed
    /// counters' width convention, plus one bit).
    pub fn new(n: Precision, p: usize, extra_bits: u32) -> Self {
        UnsignedBiscMvm { n, counters: Counters::new(p, n.bits() + extra_bits + 1), cycles: 0 }
    }

    /// The number of lanes `p`.
    pub fn lanes(&self) -> usize {
        self.counters.values.len()
    }

    /// Total cycles consumed: `Σ w_i` (unsigned codes).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Accumulates one unsigned scalar-vector product `w·x⃗` (codes in
    /// `[0, 2^N)`, values `code/2^N`); returns its cycle count (`w`).
    /// Each lane adds `P_w(x)` from the same shared row of counts as the
    /// signed MVM.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] or [`Error::CodeOutOfRange`]
    /// (naming the first bad code). A rejected term leaves every lane
    /// untouched.
    pub fn accumulate(&mut self, w: u32, xs: &[u32]) -> Result<u64, Error> {
        if xs.len() != self.lanes() {
            return Err(Error::LengthMismatch { expected: self.lanes(), actual: xs.len() });
        }
        self.n.check_unsigned(w as u64)?;
        check_lane_codes(xs, |x| self.n.check_unsigned(x as u64).map(drop))?;
        self.counters.add_prefix(self.n, w as u64, xs.iter().map(|&x| x as usize), 1, 0);
        self.cycles += w as u64;
        Ok(w as u64)
    }

    /// Reads the lane counters (product units of `2^-N`).
    pub fn read(&self) -> Vec<i64> {
        self.counters.values.clone()
    }

    /// Clears all lane counters and the cycle count.
    pub fn reset(&mut self) {
        self.counters.reset();
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
/// come from the serial MVM's shared row of counts; only the billed
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
        self.parallel(w, xs)
    }

    /// [`accumulate`](Self::accumulate) on a row of checked lane codes.
    ///
    /// # Errors
    ///
    /// Same as [`BiscMvm::accumulate_row`].
    pub fn accumulate_row(&mut self, w: i32, xs: LaneRow<'_>) -> Result<u64, Error> {
        self.parallel(w, xs)
    }

    fn parallel(&mut self, w: i32, xs: impl TermCodes) -> Result<u64, Error> {
        let cycles = self.inner.term(w, xs, 0)?.div_ceil(self.b as u64);
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
    use crate::rng::SmallRng;

    fn p(bits: u32) -> Precision {
        Precision::new(bits).unwrap()
    }

    /// Every code at precision `n`, in order.
    fn all_codes(n: Precision) -> Vec<i32> {
        let h = n.half_scale() as i32;
        (-h..h).collect()
    }

    /// `len` random codes at precision `n`.
    fn random_codes(rng: &mut SmallRng, n: Precision, len: usize) -> Vec<i32> {
        let h = n.half_scale() as i32;
        (0..len).map(|_| rng.gen_range_i32(-h..h)).collect()
    }

    /// Feeds the lane codes `xs` and each weight of `ws` in turn to
    /// `term` (which accumulates one term and returns its cycles and the
    /// lane counters after it), and checks each lane against a per-lane
    /// `reference` MAC feeding its own saturating accumulator: products,
    /// cycles and saturation order alike (`A = 0` clamps within a few
    /// terms).
    fn check_against_per_lane(
        n: Precision,
        a: u32,
        (xs, ws): (&[i32], &[i32]),
        mut term: impl FnMut(i32, &[i32]) -> (u64, Vec<i64>),
        reference: impl Fn(i32, i32) -> SignedProduct,
    ) {
        let mut golden = vec![SaturatingAccumulator::new(n, a); xs.len()];
        for &w in ws {
            let (cycles, lanes) = term(w, xs);
            for (acc, &x) in golden.iter_mut().zip(xs) {
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
                    let codes = all_codes(n);
                    let mut mvm = BitParallelMvm::new(n, codes.len(), a, b).unwrap();
                    let mut billed = 0;
                    check_against_per_lane(
                        n,
                        a,
                        (&codes, &codes),
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
                let codes = all_codes(n);
                let mut mvm = BiscMvm::new(n, codes.len(), a);
                let mut billed = 0;
                check_against_per_lane(
                    n,
                    a,
                    (&codes, &codes),
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
    fn terms_above_the_prefix_table_match_per_lane_references() {
        // Above PREFIX_TABLE_MAX_BITS each term reads one RangeCounts
        // scan instead of a table row. The exhaustive checks above cannot
        // reach these precisions, so random codes stand in. Four
        // full-scale weights lead, so A ∈ {0, 1} counters saturate and
        // then walk back.
        let mut rng = SmallRng::seed_from_u64(0x5EED_0011);
        for bits in seq::PREFIX_TABLE_MAX_BITS + 1..=crate::num::MAX_PRECISION {
            let n = p(bits);
            let h = n.half_scale() as i32;
            let xs = random_codes(&mut rng, n, 48);
            let ws = [vec![-h; 4], random_codes(&mut rng, n, 20)].concat();
            for a in [0u32, 1] {
                let case = format!("N={bits} A={a}");
                let mac = SignedScMac::new(n);
                let mut mvm = BiscMvm::new(n, xs.len(), a);
                check_against_per_lane(
                    n,
                    a,
                    (&xs, &ws),
                    |w, xs| (mvm.accumulate(w, xs).unwrap(), mvm.read()),
                    |w, x| mac.multiply(w, x).unwrap(),
                );
                assert!(mvm.any_saturated(), "{case}");
                for b in [64u32, 1024] {
                    let mac = BitParallelScMac::new(n, b).unwrap();
                    let mut mvm = BitParallelMvm::new(n, xs.len(), a, b).unwrap();
                    check_against_per_lane(
                        n,
                        a,
                        (&xs, &ws),
                        |w, xs| (mvm.accumulate(w, xs).unwrap(), mvm.read()),
                        |w, x| mac.multiply_signed(w, x).unwrap(),
                    );
                }
                for s in [1u32, 4, bits - 1] {
                    let edt = EarlyTerminationScMac::new(n, s).unwrap();
                    let mut mvm = BiscMvm::new(n, xs.len(), a);
                    check_against_per_lane(
                        n,
                        a,
                        (&xs, &ws),
                        |w, xs| (mvm.accumulate_truncated(w, xs, s).unwrap(), mvm.read()),
                        |w, x| edt.multiply(w, x).unwrap(),
                    );
                }
            }
        }
    }

    #[test]
    fn checked_rows_equal_per_term_codes() {
        // Both sides of PREFIX_TABLE_MAX_BITS, every term kind, with
        // saturating A = 0 counters.
        let mut rng = SmallRng::seed_from_u64(0x5EED_0012);
        for bits in [5u32, 8, 10, 11, 14] {
            let n = p(bits);
            let (xs, ws) = (random_codes(&mut rng, n, 5 * 16), random_codes(&mut rng, n, 5));
            let block = LaneCodes::new(n, 16, &xs).unwrap();
            assert_eq!(block.lanes(), 16);
            assert_eq!(block.rows().len(), 5);
            let mut serial = [BiscMvm::new(n, 16, 0), BiscMvm::new(n, 16, 0)];
            let mut edt = [BiscMvm::new(n, 16, 0), BiscMvm::new(n, 16, 0)];
            let mut par = [0, 1].map(|_| BitParallelMvm::new(n, 16, 0, 4).unwrap());
            for ((&w, xs), row) in ws.iter().zip(xs.chunks(16)).zip(block.rows()) {
                assert_eq!(row.codes().collect::<Vec<_>>(), xs, "N={bits}");
                let s = bits / 2;
                assert_eq!(serial[0].accumulate(w, xs), serial[1].accumulate_row(w, row));
                assert_eq!(
                    edt[0].accumulate_truncated(w, xs, s),
                    edt[1].accumulate_truncated_row(w, row, s)
                );
                assert_eq!(par[0].accumulate(w, xs), par[1].accumulate_row(w, row));
            }
            for [a, b] in [serial, edt] {
                assert_eq!((a.read(), a.cycles()), (b.read(), b.cycles()), "N={bits}");
                assert_eq!(a.any_saturated(), b.any_saturated(), "N={bits}");
            }
            assert_eq!((par[0].read(), par[0].cycles()), (par[1].read(), par[1].cycles()));
        }
    }

    #[test]
    fn lane_codes_are_checked_once_and_only_by_their_constructor() {
        let n = p(8);
        // The first bad code in (row, lane) order is named.
        assert_eq!(
            LaneCodes::new(n, 2, &[0, 1, 2, 200, -300, 500]),
            Err(Error::CodeOutOfRange { code: 200, precision: 8 })
        );
        for (lanes, len) in [(0, 0), (0, 4), (3, 4)] {
            assert!(
                matches!(LaneCodes::new(n, lanes, &vec![0; len]), Err(Error::InvalidConfig { .. })),
                "{lanes} lanes, {len} codes"
            );
        }
        // A row checked at one precision is refused at another, and a
        // row of the wrong width is a length mismatch; neither moves a lane.
        let block = LaneCodes::new(p(6), 2, &[-32, 31]).unwrap();
        let row = block.rows().next().unwrap();
        let mut mvm = BiscMvm::new(n, 2, 2);
        assert!(matches!(mvm.accumulate_row(5, row), Err(Error::InvalidConfig { .. })));
        let mut wide = BiscMvm::new(p(6), 3, 2);
        assert_eq!(
            wide.accumulate_row(5, row),
            Err(Error::LengthMismatch { expected: 3, actual: 2 })
        );
        // The weight is still checked on every term.
        let mut mvm = BiscMvm::new(p(6), 2, 2);
        assert_eq!(
            mvm.accumulate_row(40, row),
            Err(Error::CodeOutOfRange { code: 40, precision: 6 })
        );
        assert_eq!((mvm.read(), mvm.cycles(), wide.read()), (vec![0, 0], 0, vec![0, 0, 0]));
    }

    #[test]
    fn behavioural_mvms_match_per_cycle_references() {
        // Random codes at N in {4, 7, 10, 12} (the last above the prefix
        // table); A = 8 keeps every lane clear of saturation, where the
        // per-term and per-cycle models agree.
        let mut rng = SmallRng::seed_from_u64(0x5EED_0004);
        for bits in [4u32, 7, 10, 12] {
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
    fn zero_length_terms_touch_no_lane() {
        // A zero-length term (w = 0 on every MVM, or at EDT tier s a
        // weight with 0 < |w| < 2^(N−s)) bills 0 cycles and moves no
        // lane, saturation flag or cycle count: on fresh lanes, then on
        // A = 0 lanes driven to both bounds. With one bad lane code each
        // is still refused, naming it. Both sides of the prefix table.
        for bits in [6u32, seq::PREFIX_TABLE_MAX_BITS + 1] {
            let n = p(bits);
            let h = n.half_scale() as i32;
            let (lo, hi) = (-h as i64, h as i64 - 1);
            let (xs, bad) = ([h - 1, -h, 0], [h - 1, h, 0]);
            let refused = Err(Error::CodeOutOfRange { code: h as i64, precision: bits });
            let (top, utop) = (h - 1, 2 * h as u32 - 1);
            let (uxs, ubad) = ([utop, 0], [utop, utop + 1]);
            let urefused = Err(Error::CodeOutOfRange { code: utop as i64 + 1, precision: bits });
            let edt: Vec<(i32, u32)> =
                (1..bits).flat_map(|s| [(1, s), (1 - (1 << (bits - s)), s)]).collect();
            let block = LaneCodes::new(n, 3, &xs).unwrap();
            let row = block.rows().next().unwrap();
            let mut serial = BiscMvm::new(n, 3, 0);
            let mut par = BitParallelMvm::new(n, 3, 0, 4).unwrap();
            let mut unsigned = UnsignedBiscMvm::new(n, 2, 0);
            for driven in [false, true] {
                let case = format!("N={bits} driven={driven}");
                if driven {
                    for _ in 0..3 {
                        serial.accumulate(top, &xs).unwrap();
                        par.accumulate(top, &xs).unwrap();
                        unsigned.accumulate(utop, &uxs).unwrap();
                    }
                    assert_eq!(serial.read()[..2], [hi, lo], "{case}");
                    assert_eq!(par.read()[..2], [hi, lo], "{case}");
                    assert_eq!(unsigned.read(), [utop as i64, 0], "{case}");
                }
                let state = |s: &BiscMvm, p: &BitParallelMvm, u: &UnsignedBiscMvm| {
                    let lanes =
                        [(s.read(), s.cycles()), (p.read(), p.cycles()), (u.read(), u.cycles())];
                    (lanes, s.any_saturated())
                };
                let before = state(&serial, &par, &unsigned);
                assert_eq!(before.1, driven, "{case}");

                assert_eq!(serial.accumulate(0, &xs), Ok(0), "{case}");
                assert_eq!(serial.accumulate_row(0, row), Ok(0), "{case}");
                assert_eq!(par.accumulate(0, &xs), Ok(0), "{case}");
                assert_eq!(par.accumulate_row(0, row), Ok(0), "{case}");
                assert_eq!(unsigned.accumulate(0, &uxs), Ok(0), "{case}");
                for &(w, s) in &edt {
                    assert_eq!(serial.accumulate_truncated(w, &xs, s), Ok(0), "{case} w={w} s={s}");
                    assert_eq!(serial.accumulate_truncated_row(w, row, s), Ok(0), "{case} s={s}");
                }
                assert_eq!(state(&serial, &par, &unsigned), before, "{case}");

                assert_eq!(serial.accumulate(0, &bad), refused, "{case}");
                assert_eq!(par.accumulate(0, &bad), refused, "{case}");
                assert_eq!(unsigned.accumulate(0, &ubad), urefused, "{case}");
                for &(w, s) in &edt {
                    assert_eq!(serial.accumulate_truncated(w, &bad, s), refused, "{case} s={s}");
                }
                assert_eq!(state(&serial, &par, &unsigned), before, "{case}");
            }
        }
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
