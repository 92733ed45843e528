//! RTL model of the BISC-MVM (Fig. 3): `p` lanes sharing one FSM and one
//! down counter.

use crate::faults::MacFaults;
use crate::fsm::{operand_mux, CycleFsm};
use sc_core::bitplane::{self, EngineKind};
use sc_core::mac::SaturatingAccumulator;
use sc_core::{seq, Error, Precision};
use sc_fault::{FaultKind, FaultSite};

/// Lane count at or above which the bitplane fast path chunks the lanes
/// on the `sc-par` pool. The threshold (like the chunk plan itself) is a
/// pure function of input length, so results are thread-invariant.
const PAR_LANE_THRESHOLD: usize = 256;

/// The vectorized SC-MAC array at the register-transfer level.
///
/// Shared state: one [`CycleFsm`] (whose select fans out to every lane's
/// MUX), one down counter loaded with `|w|`, one `sign(w)` flag (XOR
/// control fanned out to all lanes). Per-lane state: the offset-binary
/// operand register and the `N+A`-bit saturating up/down counter.
///
/// Loading a new `(w, x⃗)` pair while counters hold previous results
/// performs the accumulation `Σ w_i·x⃗_i` with **no additional hardware**
/// (paper Sec. 3.1).
#[derive(Debug, Clone)]
pub struct BiscMvmRtl {
    n: Precision,
    fsm: CycleFsm,
    w_sign: bool,
    down: u64,
    x_regs: Vec<u32>,
    accs: Vec<SaturatingAccumulator>,
    total_cycles: u64,
    faults: MacFaults,
    lane_site: Option<FaultSite>,
    /// Persistent per-lane defects drawn from `rtlsim.mvm.lane`
    /// (`true` = this lane is defective for the instance's lifetime).
    lane_faulty: Vec<bool>,
}

impl BiscMvmRtl {
    /// Creates a `p`-lane MVM at precision `n` with `extra_bits`
    /// accumulation bits. Per-lane persistent faults (`rtlsim.mvm.lane`)
    /// are drawn here; per-cycle sites resolve like the single MAC's.
    pub fn new(n: Precision, p: usize, extra_bits: u32) -> Self {
        let mut mvm = BiscMvmRtl {
            n,
            fsm: CycleFsm::new(n),
            w_sign: false,
            down: 0,
            x_regs: vec![0; p],
            accs: vec![SaturatingAccumulator::new(n, extra_bits); p],
            total_cycles: 0,
            faults: MacFaults::resolve(),
            lane_site: sc_fault::site(crate::faults::sites::MVM_LANE),
            lane_faulty: vec![false; p],
        };
        mvm.redraw_lanes(0);
        mvm
    }

    /// Sets the fault-draw key for this instance; persistent lane
    /// defects are redrawn under the new key.
    pub fn set_fault_key(&mut self, key: u64) {
        self.faults.set_key(key);
        self.redraw_lanes(key);
    }

    fn redraw_lanes(&mut self, key: u64) {
        if let Some(site) = &self.lane_site {
            for (j, faulty) in self.lane_faulty.iter_mut().enumerate() {
                *faulty =
                    site.persistent(key ^ (j as u64).wrapping_mul(0xA24B_AED4_963E_E407)).is_some();
            }
        }
    }

    /// The number of lanes `p`.
    pub fn lanes(&self) -> usize {
        self.x_regs.len()
    }

    /// Which lanes drew a persistent defect (all `false` when the
    /// `rtlsim.mvm.lane` site is disarmed).
    pub fn faulty_lanes(&self) -> &[bool] {
        &self.lane_faulty
    }

    /// Loads a scalar-vector term `(w, x⃗)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] if `xs.len() != p`;
    /// [`Error::CodeOutOfRange`] if any code is out of range.
    pub fn load(&mut self, w: i32, xs: &[i32]) -> Result<(), Error> {
        if xs.len() != self.x_regs.len() {
            return Err(Error::LengthMismatch { expected: self.x_regs.len(), actual: xs.len() });
        }
        let wc = self.n.check_signed(w as i64)?;
        for (reg, &x) in self.x_regs.iter_mut().zip(xs) {
            *reg = self.n.check_signed(x as i64)?.to_offset_binary();
        }
        self.w_sign = wc.code() < 0;
        self.down = wc.code().unsigned_abs() as u64;
        self.fsm.reset();
        Ok(())
    }

    /// Whether the current term has been fully streamed.
    pub fn done(&self) -> bool {
        self.down == 0
    }

    /// Advances one clock: one shared FSM step, one shared down-counter
    /// decrement, and one up/down step in every lane.
    pub fn clock(&mut self) {
        if self.down == 0 {
            return;
        }
        if self.faults.armed() || self.lane_site.is_some() {
            self.clock_faulted();
        } else {
            let sel = self.fsm.clock();
            for (acc, &x) in self.accs.iter_mut().zip(&self.x_regs) {
                let bit = operand_mux(x, self.n, sel) ^ self.w_sign;
                acc.count(bit);
            }
        }
        self.down -= 1;
        self.total_cycles += 1;
    }

    /// The armed-path clock: shared-FSM upset first (it corrupts every
    /// lane at once — the flip side of the shared-hardware economy),
    /// then per-lane MUX/XOR with persistent lane defects applied at
    /// the lane output, then per-lane counter upsets. Lane defects
    /// follow the armed kind: `stuck0`/`stuck1` force the lane's stream
    /// bit, `flip` inverts it (an inverted driver), `starve` disables
    /// the lane's counter enable.
    fn clock_faulted(&mut self) {
        let idx = self.faults.next_cycle();
        self.faults.fsm_upset(idx, &mut self.fsm);
        let sel = self.fsm.clock();
        let lane_kind = self.lane_site.as_ref().map(|s| s.kind());
        for (j, (acc, &x)) in self.accs.iter_mut().zip(&self.x_regs).enumerate() {
            let mut bit = operand_mux(x, self.n, sel) ^ self.w_sign;
            if self.lane_faulty[j] {
                match lane_kind.expect("faulty lane implies armed lane site") {
                    FaultKind::Transient => bit = !bit,
                    FaultKind::StuckAt0 => bit = false,
                    FaultKind::StuckAt1 => bit = true,
                    FaultKind::Starve => continue,
                }
            }
            if let Some(b) = self.faults.stream_bit_lane(idx, j as u64, bit) {
                acc.count(b);
            }
        }
        if let Some(entropy) = self.faults.acc_entropy(idx) {
            let lane = (entropy >> 32) as usize % self.accs.len();
            self.accs[lane].flip_bit((entropy & 0xFFFF) as u32);
        }
    }

    /// Clocks until the current term completes; returns cycles consumed.
    ///
    /// Under the bitplane engine — with no per-cycle fault site armed and
    /// no lane-defect site installed — the whole term collapses into one
    /// shared occupancy scan: the per-selector cycle counts of the range
    /// `(t0, t0+k]` are lane-independent, so they are computed **once**
    /// per term ([`bitplane::RangeCounts`]) and each lane's stream-ones
    /// count reduces to a few nibble-table reads. The counter absorbs its
    /// net delta in a single `add`, guarded by the ±k trajectory band
    /// (every cycle steps the counter by ±1, so a band that fits inside
    /// the counter range rules out mid-run saturation; lanes whose band
    /// does not fit re-run the per-cycle walk individually). At
    /// `PAR_LANE_THRESHOLD` (256) lanes and above — on a pool with more than
    /// one worker — lanes are mapped on the `sc-par` pool and merged in
    /// lane order; otherwise they are updated in place (identical math
    /// either way, so results stay thread-invariant). Armed fault plans always
    /// take the per-cycle path, so fault draws see real per-cycle state
    /// and identical draw indices on both engines.
    pub fn run_to_done(&mut self) -> u64 {
        let c = self.down;
        let mut bp_words = 0u64;
        let mut bp_fast = 0u64;
        let mut bp_fallback = 0u64;
        if self.down > 0
            && bitplane::engine() == EngineKind::Bitplane
            && !self.faults.armed()
            && self.lane_site.is_none()
        {
            let t0 = self.fsm.cycles();
            let k = self.down;
            let ki = k as i64;
            let n = self.n;
            let w_sign = self.w_sign;
            // The shared part of the scan, billed once per term: the
            // packed words cover the cycle range regardless of lane count.
            bp_words = bitplane::words_in_range(t0, t0 + k);
            let counts = bitplane::RangeCounts::new(n, t0, t0 + k);
            // One lane's fast path: table-read the ones count, guard, add
            // — or per-cycle walk. Returns 1 if the lane fell back.
            let lane_scan = |a: &mut SaturatingAccumulator, u: u32| {
                let (lo, hi) = a.range();
                let v0 = a.value();
                if v0 + ki <= hi && v0 - ki >= lo {
                    let ones = counts.ones(u) as i64;
                    a.add(if w_sign { ki - 2 * ones } else { 2 * ones - ki });
                    0u64
                } else {
                    for t in t0 + 1..=t0 + k {
                        a.count(seq::stream_bit(u, n, t) ^ w_sign);
                    }
                    1u64
                }
            };
            let lanes = self.accs.len();
            let pool = sc_par::Pool::global();
            if lanes >= PAR_LANE_THRESHOLD && pool.threads() > 1 {
                let x_regs = &self.x_regs;
                let accs = &self.accs;
                let results: Vec<(SaturatingAccumulator, u64)> = pool.parallel_map(lanes, |j| {
                    let mut a = accs[j];
                    let fellback = lane_scan(&mut a, x_regs[j]);
                    (a, fellback)
                });
                for (j, (a, fellback)) in results.into_iter().enumerate() {
                    self.accs[j] = a;
                    bp_fallback += fellback;
                }
            } else {
                // Single worker (or few lanes): update counters in place —
                // same math, no per-lane result buffer.
                for (a, &u) in self.accs.iter_mut().zip(&self.x_regs) {
                    bp_fallback += lane_scan(a, u);
                }
            }
            bp_fast = 1;
            self.fsm.advance(k);
            self.total_cycles += k;
            self.down = 0;
        }
        while !self.done() {
            self.clock();
        }
        let counters = crate::telemetry_hooks::sim_counters();
        counters.mvm_cycles.incr(c);
        counters.mvm_runs.incr(1);
        // One shared FSM step per cycle fans out to every lane's MUX
        // (one stream bit and one counter step per lane per cycle).
        let lanes = self.accs.len() as u64;
        counters.fsm_steps.incr(c);
        counters.sng_bits.incr(c * lanes);
        counters.acc_updates.incr(c * lanes);
        counters.bp_words.incr(bp_words);
        counters.bp_fast.incr(bp_fast);
        counters.bp_fallback.incr(bp_fallback);
        c
    }

    /// Reads all lane counters.
    pub fn read(&self) -> Vec<i64> {
        self.accs.iter().map(|a| a.value()).collect()
    }

    /// Total cycles since construction / the last
    /// [`clear_outputs`](Self::clear_outputs).
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Clears every lane counter and the cycle count (result read-out).
    pub fn clear_outputs(&mut self) {
        for a in &mut self.accs {
            a.reset();
        }
        self.total_cycles = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_core::mvm::BiscMvm;

    #[test]
    fn rtl_equals_behavioural_mvm() {
        let n = Precision::new(6).unwrap();
        let terms: Vec<(i32, Vec<i32>)> = vec![
            (17, vec![1, -2, 30, -32]),
            (-25, vec![15, 15, -15, 0]),
            (0, vec![9, 9, 9, 9]),
            (-32, vec![-1, -2, -3, -4]),
        ];
        let mut rtl = BiscMvmRtl::new(n, 4, 8);
        let mut gold = BiscMvm::new(n, 4, 8);
        for (w, xs) in &terms {
            rtl.load(*w, xs).unwrap();
            let c_rtl = rtl.run_to_done();
            let c_gold = gold.accumulate_cycle_accurate(*w, xs).unwrap();
            assert_eq!(c_rtl, c_gold);
        }
        assert_eq!(rtl.read(), gold.read());
        assert_eq!(rtl.total_cycles(), gold.cycles());
    }

    #[test]
    fn shared_fsm_lanes_match_independent_macs() {
        use crate::mac::ProposedMacRtl;
        let n = Precision::new(7).unwrap();
        let w = -45i32;
        let xs = [63i32, -64, 10, -10, 0];
        let mut mvm = BiscMvmRtl::new(n, xs.len(), 8);
        mvm.load(w, &xs).unwrap();
        mvm.run_to_done();
        for (j, &x) in xs.iter().enumerate() {
            let mut mac = ProposedMacRtl::new(n, 8);
            mac.load(w, x).unwrap();
            mac.run_to_done();
            assert_eq!(mvm.read()[j], mac.value(), "lane {j}");
        }
    }

    #[test]
    fn length_mismatch_rejected() {
        let n = Precision::new(5).unwrap();
        let mut mvm = BiscMvmRtl::new(n, 3, 2);
        assert!(mvm.load(1, &[1, 2]).is_err());
    }

    #[test]
    fn clear_outputs_resets() {
        let n = Precision::new(5).unwrap();
        let mut mvm = BiscMvmRtl::new(n, 2, 2);
        mvm.load(10, &[5, -5]).unwrap();
        mvm.run_to_done();
        mvm.clear_outputs();
        assert_eq!(mvm.read(), vec![0, 0]);
        assert_eq!(mvm.total_cycles(), 0);
    }
}
