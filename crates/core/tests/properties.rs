//! Property-style tests of the core SC-MAC invariants, driven by a
//! deterministic seeded sweep (the workspace builds offline, so the
//! external `proptest` harness is replaced by `sc_core::rng`).

use sc_core::conventional::{ConvScMethod, ConventionalMultiplier};
use sc_core::mac::{BitParallelScMac, SignedScMac, UnsignedScMac};
use sc_core::mvm::BiscMvm;
use sc_core::rng::SmallRng;
use sc_core::seq::{prefix_sum, range_sum, round_div_pow2, stream_bit};
use sc_core::Precision;

const CASES: usize = 64;

fn signed_code(rng: &mut SmallRng, bits: u32) -> i32 {
    let h = 1i32 << (bits - 1);
    rng.gen_range_i32(-h..h)
}

/// The closed-form prefix sum equals the serial bit count for random
/// (x, k) at random precision.
#[test]
fn prefix_sum_matches_serial() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0001);
    for _ in 0..CASES {
        let bits = rng.gen_range_u64(2..13) as u32;
        let n = Precision::new(bits).unwrap();
        let x = rng.next_u32() & (n.stream_len() - 1) as u32;
        let k = (rng.gen_f64() * n.stream_len() as f64) as u64;
        let serial: u64 = (1..=k).map(|t| stream_bit(x, n, t) as u64).sum();
        assert_eq!(prefix_sum(x, n, k), serial, "bits={bits} x={x} k={k}");
    }
}

/// round(k/2^i) implemented by shift-add equals f64 rounding (half-up)
/// for all representable inputs.
#[test]
fn round_div_matches_float() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0002);
    for _ in 0..CASES * 4 {
        let k = rng.gen_range_u64(0..(1 << 20) + 1);
        let i = rng.gen_range_u64(1..21) as u32;
        let exact = (k as f64 / (1u64 << i) as f64 + 0.5).floor() as u64;
        assert_eq!(round_div_pow2(k, i), exact, "k={k} i={i}");
    }
}

/// Proposed unsigned product error never exceeds the N/2 bound.
#[test]
fn unsigned_error_bound() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0003);
    for _ in 0..CASES {
        let bits = rng.gen_range_u64(2..13) as u32;
        let n = Precision::new(bits).unwrap();
        let m = (n.stream_len() - 1) as u32;
        let (x, w) = (rng.next_u32() & m, rng.next_u32() & m);
        let mac = UnsignedScMac::new(n);
        let out = mac.multiply(x, w).unwrap();
        let exact = x as f64 * w as f64 / n.stream_len() as f64;
        assert!(
            (out.value as f64 - exact).abs() <= n.bits() as f64 / 2.0,
            "bits={bits} x={x} w={w}"
        );
    }
}

/// Proposed signed product error never exceeds the N/2 bound and the
/// latency is exactly |w|.
#[test]
fn signed_error_bound_and_latency() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0004);
    for _ in 0..CASES {
        let bits = rng.gen_range_u64(2..13) as u32;
        let n = Precision::new(bits).unwrap();
        let (w, x) = (signed_code(&mut rng, bits), signed_code(&mut rng, bits));
        let mac = SignedScMac::new(n);
        let out = mac.multiply(w, x).unwrap();
        assert!(
            (out.value as f64 - mac.exact(w, x)).abs() <= n.bits() as f64 / 2.0,
            "bits={bits} w={w} x={x}"
        );
        assert_eq!(out.cycles, w.unsigned_abs() as u64);
    }
}

/// Bit-parallel result is bit-exact with bit-serial for every valid
/// power-of-two parallelism.
#[test]
fn bit_parallel_exactness() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0005);
    for _ in 0..CASES {
        let bits = rng.gen_range_u64(3..13) as u32;
        let n = Precision::new(bits).unwrap();
        let (w, x) = (signed_code(&mut rng, bits), signed_code(&mut rng, bits));
        let b = 1u32 << (rng.gen_range_u64(0..7) as u32).min(bits);
        let par = BitParallelScMac::new(n, b).unwrap();
        let ser = SignedScMac::new(n);
        let a = par.multiply_signed(w, x).unwrap();
        let s = ser.multiply(w, x).unwrap();
        assert_eq!(a.value, s.value, "bits={bits} w={w} x={x} b={b}");
        assert_eq!(a.cycles, (w.unsigned_abs() as u64).div_ceil(b as u64));
    }
}

/// Sharing the FSM/down counter across MVM lanes never changes any
/// lane's value relative to a standalone MAC, on either side of the
/// prefix table's reach (`N ≤ 10` reads a table row, above it one
/// `RangeCounts` scan per term).
#[test]
fn mvm_sharing_lossless() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0006);
    for _ in 0..CASES {
        let bits = rng.gen_range_u64(3..17) as u32;
        let n = Precision::new(bits).unwrap();
        let w = signed_code(&mut rng, bits);
        let xs: Vec<i32> = (0..8).map(|_| signed_code(&mut rng, bits)).collect();
        let mut mvm = BiscMvm::new(n, xs.len(), 8);
        mvm.accumulate(w, &xs).unwrap();
        let mac = SignedScMac::new(n);
        for (y, &x) in mvm.read().iter().zip(&xs) {
            assert_eq!(*y, mac.multiply(w, x).unwrap().value, "bits={bits} w={w} x={x}");
        }
    }
}

/// Cycle-accurate and fast MVM paths agree whenever no saturation
/// occurs.
#[test]
fn mvm_cycle_accurate_agrees() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0007);
    for _ in 0..CASES {
        let bits = rng.gen_range_u64(3..9) as u32;
        let n = Precision::new(bits).unwrap();
        let xs: Vec<i32> = (0..4).map(|_| signed_code(&mut rng, bits)).collect();
        let ws: Vec<i32> = (0..3).map(|_| signed_code(&mut rng, bits)).collect();
        let mut fast = BiscMvm::new(n, 4, 16);
        let mut slow = BiscMvm::new(n, 4, 16);
        for &w in &ws {
            fast.accumulate(w, &xs).unwrap();
            slow.accumulate_cycle_accurate(w, &xs).unwrap();
        }
        assert!(!fast.any_saturated());
        assert_eq!(fast.read(), slow.read(), "bits={bits} ws={ws:?} xs={xs:?}");
    }
}

/// Conventional unipolar multiplication is exact for zero operands.
#[test]
fn conventional_zero_annihilates() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0008);
    for _ in 0..CASES / 2 {
        let bits = rng.gen_range_u64(3..10) as u32;
        let n = Precision::new(bits).unwrap();
        let x = rng.next_u32() & (n.stream_len() - 1) as u32;
        for method in [ConvScMethod::Lfsr, ConvScMethod::Halton, ConvScMethod::Ed] {
            let mut m = ConventionalMultiplier::new(n, method).unwrap();
            assert_eq!(m.multiply_unipolar(x, 0), 0);
            assert_eq!(m.multiply_unipolar(0, x), 0);
        }
    }
}

/// range_sum is consistent with prefix_sum differences.
#[test]
fn range_sum_consistent() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0009);
    for _ in 0..CASES {
        let bits = rng.gen_range_u64(2..13) as u32;
        let n = Precision::new(bits).unwrap();
        let x = rng.next_u32() & (n.stream_len() - 1) as u32;
        let len = n.stream_len() as f64;
        let (mut lo, mut hi) = ((rng.gen_f64() * len) as u64, (rng.gen_f64() * len) as u64);
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        assert_eq!(
            range_sum(x, n, lo, hi),
            prefix_sum(x, n, hi) - prefix_sum(x, n, lo),
            "bits={bits} x={x} lo={lo} hi={hi}"
        );
    }
}
