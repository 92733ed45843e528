//! Golden cross-check for the execution engines: the bitplane popcount
//! fast paths of the RTL `run_to_done` loops must be bitwise identical to
//! the cycle-accurate reference on every proposed datapath — clean, under
//! zero-rate and armed fault plans, at several thread counts, and across
//! precisions.
//!
//! The engine selection ([`bitplane::set_engine`]) is process-global, so
//! every test in this binary serializes on [`ENGINE_LOCK`] and restores
//! the default engine (and any thread override) via [`Restore`] even on
//! panic.

use std::sync::Mutex;

use sc_core::bitplane::{self, EngineKind};
use sc_core::Precision;
use sc_fault::FaultPlan;
use sc_rtlsim::mac::{ProposedMacRtl, UnsignedMacRtl};
use sc_rtlsim::mvm::BiscMvmRtl;
use sc_telemetry::metrics::counter;

static ENGINE_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    ENGINE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Restores the default engine, thread override, and metrics-recording
/// flag when dropped.
struct Restore;

impl Drop for Restore {
    fn drop(&mut self) {
        bitplane::set_engine(None);
        sc_par::set_threads(0);
        sc_telemetry::metrics::set_enabled(false);
    }
}

fn next(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    sc_fault::split_mix(*seed)
}

fn signed_code(n: Precision, r: u64) -> i32 {
    let half = n.half_scale() as i64;
    ((r % (2 * half as u64)) as i64 - half) as i32
}

fn unsigned_code(n: Precision, r: u64) -> u32 {
    (r % n.stream_len()) as u32
}

#[test]
fn proposed_mac_engines_bitwise_identical() {
    let _g = locked();
    let _r = Restore;
    let mut seed = 0x5EED_0001u64;
    for bits in 4..=10 {
        let n = Precision::new(bits).unwrap();
        for _ in 0..12 {
            let w = signed_code(n, next(&mut seed));
            let x = signed_code(n, next(&mut seed));
            // A second term accumulated on top exercises a nonzero FSM
            // start position (t0 > 0) in the packed scan.
            let w2 = signed_code(n, next(&mut seed));
            let run = |e| {
                bitplane::set_engine(Some(e));
                let mut mac = ProposedMacRtl::new(n, 8);
                mac.load(w, x).unwrap();
                let c1 = mac.run_to_done();
                mac.load(w2, x).unwrap();
                let c2 = mac.run_to_done();
                (mac.value(), c1, c2)
            };
            let cycle = run(EngineKind::CycleAccurate);
            let bitplane = run(EngineKind::Bitplane);
            assert_eq!(cycle, bitplane, "N={bits} w={w} w2={w2} x={x}");
        }
    }
}

#[test]
fn proposed_mac_engines_agree_mid_stream() {
    // Clock a manual prefix, then let run_to_done finish the remainder:
    // the packed scan must pick up at an arbitrary FSM position.
    let _g = locked();
    let _r = Restore;
    let n = Precision::new(8).unwrap();
    for (w, x, prefix) in [(100, -77, 1u32), (-128, 127, 13), (65, 64, 37), (-3, -128, 2)] {
        let run = |e| {
            bitplane::set_engine(Some(e));
            let mut mac = ProposedMacRtl::new(n, 8);
            mac.load(w, x).unwrap();
            for _ in 0..prefix {
                mac.clock();
            }
            mac.run_to_done();
            mac.value()
        };
        assert_eq!(
            run(EngineKind::CycleAccurate),
            run(EngineKind::Bitplane),
            "w={w} x={x} prefix={prefix}"
        );
    }
}

#[test]
fn unsigned_mac_engines_bitwise_identical() {
    let _g = locked();
    let _r = Restore;
    let mut seed = 0x5EED_0002u64;
    for bits in 4..=10 {
        let n = Precision::new(bits).unwrap();
        for _ in 0..12 {
            let x = unsigned_code(n, next(&mut seed));
            let w = unsigned_code(n, next(&mut seed));
            let run = |e| {
                bitplane::set_engine(Some(e));
                let mut mac = UnsignedMacRtl::new(n);
                mac.load(x, w).unwrap();
                let c = mac.run_to_done();
                (mac.value(), c)
            };
            assert_eq!(
                run(EngineKind::CycleAccurate),
                run(EngineKind::Bitplane),
                "N={bits} x={x} w={w}"
            );
        }
    }
}

#[test]
fn mvm_engines_identical_across_thread_counts() {
    let _g = locked();
    let _r = Restore;
    let mut seed = 0x5EED_0003u64;
    let n = Precision::new(8).unwrap();
    // 300 lanes crosses the fast path's chunking threshold; 5 stays on
    // the serial in-place loop.
    for lanes in [5usize, 300] {
        let xs: Vec<i32> = (0..lanes).map(|_| signed_code(n, next(&mut seed))).collect();
        let ws: Vec<i32> = (0..7).map(|_| signed_code(n, next(&mut seed))).collect();
        let run = |e, threads| {
            sc_par::set_threads(threads);
            bitplane::set_engine(Some(e));
            let mut mvm = BiscMvmRtl::new(n, lanes, 8);
            for &w in &ws {
                mvm.load(w, &xs).unwrap();
                mvm.run_to_done();
            }
            (mvm.read(), mvm.total_cycles())
        };
        let golden = run(EngineKind::CycleAccurate, 1);
        for threads in [1usize, 2, 7] {
            assert_eq!(
                run(EngineKind::Bitplane, threads),
                golden,
                "lanes={lanes} threads={threads}"
            );
            assert_eq!(
                run(EngineKind::CycleAccurate, threads),
                golden,
                "cycle engine at {threads} threads"
            );
        }
    }
}

#[test]
fn zero_rate_fault_plan_is_identity_on_both_engines() {
    // A zero-rate plan disarms every site, so both engines must stay on
    // their clean paths and reproduce the unfaulted result bit for bit.
    let _g = locked();
    let _r = Restore;
    let n = Precision::new(8).unwrap();
    let xs: Vec<i32> = (0..64).map(|i| ((i * 37 + 11) % 256) - 128).collect();
    let ws = [100i32, -128, 65, -3];
    let run = |e| {
        bitplane::set_engine(Some(e));
        let mut mvm = BiscMvmRtl::new(n, xs.len(), 8);
        for &w in &ws {
            mvm.load(w, &xs).unwrap();
            mvm.run_to_done();
        }
        (mvm.read(), mvm.total_cycles())
    };
    let clean = run(EngineKind::CycleAccurate);
    let plan =
        FaultPlan::parse("rtlsim.mvm.lane:stuck0@0.0;rtlsim.mac.stream:flip@0.0;seed=5").unwrap();
    let _s = sc_fault::scoped(plan);
    assert_eq!(run(EngineKind::CycleAccurate), clean, "zero-rate plan perturbed the cycle engine");
    assert_eq!(run(EngineKind::Bitplane), clean, "zero-rate plan perturbed the bitplane engine");
}

#[test]
fn armed_fault_plans_force_identical_per_cycle_paths() {
    // With a nonzero rate both engines must take the per-cycle walk and
    // see identical draw indices — so faulted results agree exactly.
    let _g = locked();
    let _r = Restore;
    let n = Precision::new(8).unwrap();
    let xs: Vec<i32> = (0..32).map(|i| ((i * 53 + 7) % 256) - 128).collect();
    let ws = [90i32, -120, 33];
    for spec in [
        "rtlsim.mvm.lane:stuck0@0.5;seed=7",
        "rtlsim.mac.stream:flip@0.02;seed=9",
        "rtlsim.mac.acc:flip@0.01;seed=11",
    ] {
        let plan = FaultPlan::parse(spec).unwrap();
        let _s = sc_fault::scoped(plan);
        let run = |e| {
            bitplane::set_engine(Some(e));
            let mut mvm = BiscMvmRtl::new(n, xs.len(), 8);
            for &w in &ws {
                mvm.load(w, &xs).unwrap();
                mvm.run_to_done();
            }
            let mut mac = ProposedMacRtl::new(n, 8);
            mac.load(-77, 101).unwrap();
            mac.run_to_done();
            (mvm.read(), mvm.total_cycles(), mac.value())
        };
        assert_eq!(run(EngineKind::CycleAccurate), run(EngineKind::Bitplane), "{spec}");
    }
}

#[test]
fn telemetry_cycle_attribution_identical_across_engines() {
    // run_to_done bills the same cycles / runs / fsm_steps / sng_bits /
    // acc_updates whichever engine executed; only the additive
    // rtlsim.bitplane.* counters may differ (they meter the fast path
    // itself and stay zero on the cycle engine).
    let _g = locked();
    let _r = Restore;
    // Counter recording is off by default outside bench runs; an armed
    // ambient SC_FAULTS plan (the CI fault gate) would disable the fast
    // path, so install a clean scoped plan for the duration.
    sc_telemetry::metrics::set_enabled(true);
    let _clean = sc_fault::scoped(FaultPlan::parse("").unwrap());
    let n = Precision::new(8).unwrap();
    let xs: Vec<i32> = (0..48).map(|i| ((i * 91 + 3) % 256) - 128).collect();
    let shared = [
        "rtlsim.mac.cycles",
        "rtlsim.mac.runs",
        "rtlsim.mvm.cycles",
        "rtlsim.mvm.runs",
        "rtlsim.fsm.steps",
        "rtlsim.sng.bits",
        "rtlsim.acc.updates",
    ];
    let snap = || shared.map(|name| counter(name).get());
    let workload = |e| {
        bitplane::set_engine(Some(e));
        let before = snap();
        let mut mvm = BiscMvmRtl::new(n, xs.len(), 8);
        for &w in &[100i32, -128, 65] {
            mvm.load(w, &xs).unwrap();
            mvm.run_to_done();
        }
        let mut mac = ProposedMacRtl::new(n, 8);
        mac.load(-100, 99).unwrap();
        mac.run_to_done();
        let after = snap();
        let mut deltas = [0u64; 7];
        for (d, (b, a)) in deltas.iter_mut().zip(before.iter().zip(after.iter())) {
            *d = a - b;
        }
        deltas
    };
    let fast = counter("rtlsim.bitplane.fastpath");
    let words = counter("rtlsim.bitplane.words");

    let cycle_fast0 = fast.get();
    let cycle_deltas = workload(EngineKind::CycleAccurate);
    assert_eq!(fast.get(), cycle_fast0, "cycle engine must never take the fast path");

    let bp_fast0 = fast.get();
    let bp_words0 = words.get();
    let bp_deltas = workload(EngineKind::Bitplane);
    assert_eq!(cycle_deltas, bp_deltas, "shared counters diverged across engines");
    assert!(fast.get() > bp_fast0, "bitplane engine billed no fast-path runs");
    assert!(words.get() > bp_words0, "bitplane engine billed no packed words");
}

#[test]
fn saturation_guard_falls_back_bitwise_identically() {
    // With no accumulator headroom, repeated large products drive the
    // counters into saturation: the ±k trajectory guard must reject the
    // single-add shortcut and the per-lane fallback must reproduce the
    // per-cycle walk exactly, saturation and all.
    let _g = locked();
    let _r = Restore;
    sc_telemetry::metrics::set_enabled(true);
    // The fast path (and so the fallback meter) is disabled under any
    // armed ambient plan — e.g. the CI fault gate's SC_FAULTS; a clean
    // scoped plan keeps this test about the saturation guard.
    let _clean = sc_fault::scoped(FaultPlan::parse("").unwrap());
    let n = Precision::new(6).unwrap();
    let xs: Vec<i32> = (0..16).map(|i| if i % 2 == 0 { 31 } else { -32 }).collect();
    let run = |e| {
        bitplane::set_engine(Some(e));
        let mut mvm = BiscMvmRtl::new(n, xs.len(), 0);
        for _ in 0..6 {
            mvm.load(31, &xs).unwrap();
            mvm.run_to_done();
        }
        (mvm.read(), mvm.total_cycles())
    };
    let fallback = counter("rtlsim.bitplane.fallback");
    let golden = run(EngineKind::CycleAccurate);
    let before = fallback.get();
    assert_eq!(run(EngineKind::Bitplane), golden);
    assert!(fallback.get() > before, "saturating workload never exercised the guard fallback");
}
