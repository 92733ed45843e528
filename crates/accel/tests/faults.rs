//! Engine-level fault behaviour: zero-rate transparency, SRAM staging,
//! and the detect → retry → degrade ladder of `accel.tile.output`.

use sc_accel::engine::sites;
use sc_accel::{AccelArithmetic, ConvGeometry, FaultPolicy, TileEngine, Tiling};
use sc_core::{Error, Precision};
use sc_fault::FaultPlan;

fn geometry() -> ConvGeometry {
    ConvGeometry { z: 2, in_h: 7, in_w: 7, m: 3, k: 3, stride: 1 }
}

fn data(g: &ConvGeometry, n: Precision) -> (Vec<i32>, Vec<i32>) {
    let h = n.half_scale() as i32;
    let input: Vec<i32> =
        (0..g.z * g.in_h * g.in_w).map(|i| ((i as i32 * 37 + 11) % (2 * h)) - h).collect();
    let weights: Vec<i32> = (0..g.m * g.depth()).map(|i| ((i as i32 * 13 + 5) % 21) - 10).collect();
    (input, weights)
}

fn engine(n: Precision) -> TileEngine {
    TileEngine::new(n, Tiling { t_m: 2, t_r: 2, t_c: 2 }, AccelArithmetic::ProposedSerial, 8)
}

fn plan(spec: &str) -> FaultPlan {
    FaultPlan::parse(spec).unwrap()
}

#[test]
fn zero_rate_sites_leave_the_layer_bitwise_identical() {
    let g = geometry();
    let n = Precision::new(7).unwrap();
    let (input, weights) = data(&g, n);
    let clean = {
        let _s = sc_fault::scoped(plan(""));
        engine(n).run_layer(&g, &input, &weights).unwrap()
    };
    let zero = {
        let _s = sc_fault::scoped(plan("accel.*:flip@0;seed=11"));
        engine(n).run_layer(&g, &input, &weights).unwrap()
    };
    assert_eq!(clean, zero);
    assert!(clean.degraded_tiles.is_empty());
}

#[test]
fn sram_faults_are_scrubbed_or_masked_but_always_deterministic() {
    let g = geometry();
    let n = Precision::new(7).unwrap();
    let (input, weights) = data(&g, n);
    let spec = "accel.sram.weight:flip@0.02;accel.sram.input:flip@0.02;seed=8";
    let first = {
        let _s = sc_fault::scoped(plan(spec));
        engine(n).run_layer(&g, &input, &weights).unwrap()
    };
    let second = {
        let _s = sc_fault::scoped(plan(spec));
        engine(n).run_layer(&g, &input, &weights).unwrap()
    };
    assert_eq!(first, second);
    // Outputs stay inside the representable range whatever slipped
    // through parity (staging clamps into the code range).
    let clean = {
        let _s = sc_fault::scoped(plan(""));
        engine(n).run_layer(&g, &input, &weights).unwrap()
    };
    assert_eq!(first.traffic, clean.traffic);
}

#[test]
fn low_rate_tile_faults_are_fully_repaired_by_retry() {
    let g = geometry();
    let n = Precision::new(7).unwrap();
    let (input, weights) = data(&g, n);
    let clean = {
        let _s = sc_fault::scoped(plan(""));
        engine(n).run_layer(&g, &input, &weights).unwrap()
    };
    let _s = sc_fault::scoped(plan("accel.tile.output:flip@0.02;seed=5"));
    let run = engine(n).run_layer(&g, &input, &weights).unwrap();
    // Transient upsets always differ between the two replicas, so every
    // strike is detected and retried away: the outputs are exact.
    assert_eq!(run.outputs, clean.outputs);
    assert!(run.degraded_tiles.is_empty());
    // Verification bills at least one extra replica per tile.
    assert!(run.cycles >= 2 * clean.cycles, "{} vs {}", run.cycles, clean.cycles);
}

#[test]
fn saturating_tile_faults_exhaust_retries_and_degrade() {
    let g = geometry();
    let n = Precision::new(7).unwrap();
    let (input, weights) = data(&g, n);
    let clean = {
        let _s = sc_fault::scoped(plan(""));
        engine(n).run_layer(&g, &input, &weights).unwrap()
    };
    let spec = "accel.tile.output:flip@0.9;seed=5";
    let _s = sc_fault::scoped(plan(spec));
    let run = engine(n).run_layer(&g, &input, &weights).unwrap();
    assert!(!run.degraded_tiles.is_empty(), "rate 0.9 must exhaust the retry budget");
    // Degraded tiles come from the truncated-stream recompute: close to
    // the clean outputs (EDT quality loss), never garbage.
    let s = FaultPolicy::default().degrade_bits;
    let bound =
        (g.depth() as f64) * sc_core::mac::EarlyTerminationScMac::new(n, s).unwrap().error_bound();
    for (o, c) in run.outputs.iter().zip(&clean.outputs) {
        assert!(((o - c).abs() as f64) <= bound, "degraded output {o} too far from clean {c}");
    }
    let again = engine(n).run_layer(&g, &input, &weights).unwrap();
    assert_eq!(run, again);
}

#[test]
fn strict_policy_fails_with_retry_exhausted() {
    let g = geometry();
    let n = Precision::new(7).unwrap();
    let (input, weights) = data(&g, n);
    let _s = sc_fault::scoped(plan("accel.tile.output:flip@0.9;seed=5"));
    let strict =
        engine(n).with_fault_policy(FaultPolicy { retries: 1, degrade: false, degrade_bits: 5 });
    match strict.run_layer(&g, &input, &weights) {
        Err(Error::RetryExhausted { attempts, .. }) => assert_eq!(attempts, 2),
        other => panic!("expected RetryExhausted, got {other:?}"),
    }
}

#[test]
fn permanent_tile_faults_evade_reexecution_and_are_masked() {
    let g = geometry();
    let n = Precision::new(7).unwrap();
    let (input, weights) = data(&g, n);
    let clean = {
        let _s = sc_fault::scoped(plan(""));
        engine(n).run_layer(&g, &input, &weights).unwrap()
    };
    let _s = sc_fault::scoped(plan(format!("{}:stuck1@0.2;seed=13", sites::TILE_OUTPUT).as_str()));
    let run = engine(n).run_layer(&g, &input, &weights).unwrap();
    // A stuck flip-flop corrupts both replicas identically, so DMR
    // accepts the result: no degradation, but wrong outputs — the
    // documented blind spot that the parity SRAM covers for memory.
    assert!(run.degraded_tiles.is_empty());
    assert_ne!(run.outputs, clean.outputs);
}

/// A layer whose `bank` buffer holds one code that does not fit `N = 8`
/// bits: the error the disarmed engine returns, and the same error (not
/// a panic) with that bank's SRAM site armed, which stages every word.
fn check_bad_code_under_armed_bank(bank: &str, bad: i32) {
    let g = geometry();
    let n = Precision::new(8).unwrap();
    let (mut input, mut weights) = data(&g, n);
    if bank == "input" {
        input[5] = bad;
    } else {
        weights[7] = bad;
    }
    let expected = Err(Error::CodeOutOfRange { code: bad as i64, precision: 8 });
    for spec in ["".to_string(), format!("accel.sram.{bank}:flip@0.001;seed=3")] {
        let _s = sc_fault::scoped(plan(&spec));
        assert_eq!(engine(n).run_layer(&g, &input, &weights), expected, "plan {spec:?}");
    }
}

#[test]
fn an_armed_input_bank_rejects_an_out_of_range_code() {
    check_bad_code_under_armed_bank("input", 300);
}

#[test]
fn an_armed_weight_bank_rejects_an_out_of_range_code() {
    check_bad_code_under_armed_bank("weight", -129);
}
