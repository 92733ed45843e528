//! Fault-injection wiring for the RTL models: the named sites the
//! cycle-accurate datapaths register with [`sc_fault`], and the shared
//! per-instance draw state.
//!
//! Sites (armed via `SC_FAULTS`, see the `sc-fault` crate docs):
//!
//! | site                 | where it strikes                                    |
//! |----------------------|-----------------------------------------------------|
//! | `rtlsim.mac.stream`  | the product stream bit after the MUX/XNOR gate      |
//! | `rtlsim.mac.acc`     | one flip-flop of the `N+A`-bit output counter       |
//! | `rtlsim.fsm.state`   | one bit of the cycle-counter FSM state register     |
//! | `rtlsim.halton.state`| one digit register of the Halton cascade            |
//! | `rtlsim.mvm.lane`    | a whole MVM lane (persistent, drawn per lane)       |
//!
//! Stream faults honour all four kinds: `flip` inverts the bit,
//! `stuck0`/`stuck1` force it, and `starve` drops the count for the
//! cycle while the down counter still decrements (a timing fault: the
//! enable pulse misses the counter). FSM, accumulator, and Halton
//! faults are register upsets — any armed kind flips/perturbs state,
//! since a stuck select line is indistinguishable from repeated upsets
//! at rate 1. Lane faults are *persistent*: each lane draws once
//! whether it is defective, so `stuck0@0.03` models a 3 % lane-yield
//! loss.
//!
//! Every instance carries its own draw key (`MacFaults::set_key`,
//! exposed as `set_fault_key` on the RTL structs) plus a monotone local
//! cycle index, so fault patterns are a pure function of
//! `(plan, key, cycle)` — never of threads or wall clock.

use crate::fsm::CycleFsm;
use sc_core::mac::SaturatingAccumulator;
use sc_fault::{FaultKind, FaultSite};

/// Canonical site names registered by this crate.
pub mod sites {
    /// Product-stream bit after the operand MUX (proposed) or XNOR
    /// gate (conventional).
    pub const MAC_STREAM: &str = "rtlsim.mac.stream";
    /// Output up/down counter flip-flops.
    pub const MAC_ACC: &str = "rtlsim.mac.acc";
    /// Cycle-counter FSM state register.
    pub const FSM_STATE: &str = "rtlsim.fsm.state";
    /// Halton digit-cascade registers.
    pub const HALTON_STATE: &str = "rtlsim.halton.state";
    /// Whole-lane persistent faults in the BISC-MVM array.
    pub const MVM_LANE: &str = "rtlsim.mvm.lane";
}

/// Resolved fault sites plus per-instance draw state for one MAC-like
/// datapath. Disarmed instances hold three `None`s and add one branch
/// per `clock()` — the datapath math is untouched.
#[derive(Debug, Clone)]
pub(crate) struct MacFaults {
    stream: Option<FaultSite>,
    acc: Option<FaultSite>,
    fsm: Option<FaultSite>,
    key: u64,
    cycle: u64,
}

impl MacFaults {
    /// Resolves the MAC sites against the active plan (once, at
    /// datapath construction).
    pub(crate) fn resolve() -> Self {
        MacFaults {
            stream: sc_fault::site(sites::MAC_STREAM),
            acc: sc_fault::site(sites::MAC_ACC),
            fsm: sc_fault::site(sites::FSM_STATE),
            key: 0,
            cycle: 0,
        }
    }

    /// Sets the instance key that decorrelates this datapath's draws
    /// from its siblings'.
    pub(crate) fn set_key(&mut self, key: u64) {
        self.key = key;
    }

    /// Whether any site is armed for this instance.
    #[inline]
    pub(crate) fn armed(&self) -> bool {
        self.stream.is_some() || self.acc.is_some() || self.fsm.is_some()
    }

    /// Claims this clock edge's draw index.
    #[inline]
    pub(crate) fn next_cycle(&mut self) -> u64 {
        let c = self.cycle;
        self.cycle += 1;
        c
    }

    /// Possibly upsets one bit of the FSM state register.
    #[inline]
    pub(crate) fn fsm_upset(&self, index: u64, fsm: &mut CycleFsm) {
        if let Some(site) = &self.fsm {
            if let Some(entropy) = site.transient(self.key, index) {
                fsm.inject_state_flip((entropy % fsm.precision().bits() as u64) as u32);
            }
        }
    }

    /// Applies the stream-bit fault, if any: `Some(bit)` to count,
    /// `None` when the count is starved this cycle.
    #[inline]
    pub(crate) fn stream_bit(&self, index: u64, bit: bool) -> Option<bool> {
        self.stream_bit_lane(index, 0, bit)
    }

    /// Lane-aware stream-bit fault: lanes decorrelate through the
    /// instance key (index keeps plain cycle units so spec windows
    /// stay meaningful).
    #[inline]
    pub(crate) fn stream_bit_lane(&self, index: u64, lane: u64, bit: bool) -> Option<bool> {
        let Some(site) = &self.stream else {
            return Some(bit);
        };
        let instance = self.key ^ lane.wrapping_mul(0x9FB2_1C65_1E98_DF25);
        if site.transient(instance, index).is_none() {
            return Some(bit);
        }
        match site.kind() {
            FaultKind::Transient => Some(!bit),
            FaultKind::StuckAt0 => Some(false),
            FaultKind::StuckAt1 => Some(true),
            FaultKind::Starve => None,
        }
    }

    /// Possibly upsets one flip-flop of the output counter.
    #[inline]
    pub(crate) fn acc_upset(&self, index: u64, acc: &mut SaturatingAccumulator) {
        if let Some(entropy) = self.acc_entropy(index) {
            acc.flip_bit((entropy % acc.width() as u64) as u32);
        }
    }

    /// Raw accumulator-site draw, for datapaths with several counters
    /// (the MVM picks which lane's counter is struck from the entropy).
    #[inline]
    pub(crate) fn acc_entropy(&self, index: u64) -> Option<u64> {
        self.acc.as_ref().and_then(|site| site.transient(self.key, index))
    }
}
