//! The proposed low-latency SC multiplier / SC-MAC (paper Sec. 2.2–2.5).
//!
//! * [`UnsignedScMac`] — the basic unipolar multiplier of Fig. 1(c): the
//!   FSM+MUX bitstream generator for `x` feeds a counter gated for
//!   `k = 2^N·w` cycles.
//! * [`SignedScMac`] — the two's-complement extension of Sec. 2.4
//!   (sign-bit flip on `x`, XOR with `sign(w)`, up/down counter).
//! * [`BitParallelScMac`] — the bit-parallel optimization of Sec. 2.5,
//!   processing `b` stream bits per cycle with a *ones counter*; its result
//!   is bit-exactly equal to the bit-serial result.
//! * [`SaturatingAccumulator`] — the `N+A`-bit saturating up/down counter
//!   of each MAC, whose range and clamp the vectorized
//!   [`crate::mvm::BiscMvm`]'s lanes share.
//! * [`EarlyTerminationScMac`] — the dynamic energy–quality knob: stop
//!   after the top `s` weight bits for a `2^(N−s)`-fold speedup at
//!   gracefully reduced quality.

mod accumulator;
mod edt;
mod parallel;
mod signed;
mod unsigned;

pub use accumulator::SaturatingAccumulator;
pub use edt::EarlyTerminationScMac;
pub use parallel::BitParallelScMac;
pub use signed::{SignedProduct, SignedScMac};
pub use unsigned::{UnsignedProduct, UnsignedScMac};
