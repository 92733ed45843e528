//! Property-style tests: the tile engine computes exactly the per-output
//! saturating MAC-chain sum for arbitrary geometries and tilings —
//! driven by a deterministic seeded sweep.

use sc_accel::engine::{AccelArithmetic, LayerRun, TileEngine};
use sc_accel::layer::{ConvGeometry, Tiling};
use sc_core::mac::{BitParallelScMac, EarlyTerminationScMac, SaturatingAccumulator, SignedScMac};
use sc_core::rng::SmallRng;
use sc_core::{Error, Precision};
use sc_fixed::FixedMul;

fn golden_proposed(
    g: &ConvGeometry,
    n: Precision,
    input: &[i32],
    weights: &[i32],
    a: u32,
) -> Vec<i64> {
    let mac = SignedScMac::new(n);
    golden_with(g, n, input, weights, a, |w, x| mac.multiply(w, x).unwrap().value)
}

fn golden_fixed(
    g: &ConvGeometry,
    n: Precision,
    input: &[i32],
    weights: &[i32],
    a: u32,
) -> Vec<i64> {
    let mul = FixedMul::new(n);
    golden_with(g, n, input, weights, a, |w, x| mul.multiply(w, x).unwrap())
}

fn golden_with(
    g: &ConvGeometry,
    n: Precision,
    input: &[i32],
    weights: &[i32],
    a: u32,
    product: impl Fn(i32, i32) -> i64,
) -> Vec<i64> {
    let (r, c) = (g.r(), g.c());
    let mut out = vec![0i64; g.m * r * c];
    for m in 0..g.m {
        for rr in 0..r {
            for cc in 0..c {
                let mut acc = SaturatingAccumulator::new(n, a);
                for z in 0..g.z {
                    for i in 0..g.k {
                        for j in 0..g.k {
                            let w = weights[(m * g.z + z) * g.k * g.k + i * g.k + j];
                            let x = input
                                [(z * g.in_h + rr * g.stride + i) * g.in_w + cc * g.stride + j];
                            acc.add(product(w, x));
                        }
                    }
                }
                out[(m * r + rr) * c + cc] = acc.value();
            }
        }
    }
    out
}

/// Per-tile cycle golden in the engine's canonical `(m1, r1, c1)` tile
/// order: the `T_M` units of a tile run in lock step, so each tile takes
/// the max over its units of `Σ_terms cost(w)`.
fn golden_tile_cycles(
    g: &ConvGeometry,
    t: Tiling,
    weights: &[i32],
    cost: impl Fn(i32) -> u64,
) -> Vec<u64> {
    let units: Vec<u64> =
        weights.chunks(g.depth()).map(|ws| ws.iter().map(|&w| cost(w)).sum()).collect();
    let spatial = g.r().div_ceil(t.t_r) * g.c().div_ceil(t.t_c);
    units
        .chunks(t.t_m)
        .flat_map(|group| std::iter::repeat_n(group.iter().copied().max().unwrap_or(0), spatial))
        .collect()
}

fn tile_compute(run: &LayerRun) -> Vec<u64> {
    run.tiles.iter().map(|tp| tp.compute).collect()
}

/// A random geometry that passes validation.
fn random_geometry(rng: &mut SmallRng) -> ConvGeometry {
    loop {
        let z = rng.gen_range_usize(1..4);
        let m = rng.gen_range_usize(1..5);
        let k = rng.gen_range_usize(1..4);
        let stride = rng.gen_range_usize(1..3);
        let g = ConvGeometry {
            z,
            in_h: k + rng.gen_range_usize(0..5),
            in_w: k + rng.gen_range_usize(0..5),
            m,
            k,
            stride,
        };
        if g.is_valid() {
            return g;
        }
    }
}

/// A random tiling and bit-parallelism `b`.
fn random_tiling(rng: &mut SmallRng) -> (Tiling, u32) {
    let tiling = Tiling {
        t_m: rng.gen_range_usize(1..4),
        t_r: rng.gen_range_usize(1..4),
        t_c: rng.gen_range_usize(1..4),
    };
    (tiling, 1u32 << rng.gen_range_usize(0..5))
}

/// Runs one layer under every arithmetic and EDT tier at each
/// accumulator headroom in `extra_bits`, and checks outputs, tile cycles,
/// EDT savings and the input-free bill against the per-lane references.
fn check_against_goldens(
    n: Precision,
    (g, tiling, b): (&ConvGeometry, Tiling, u32),
    input: &[i32],
    weights: &[i32],
    extra_bits: &[u32],
) {
    let serial_tiles = golden_tile_cycles(g, tiling, weights, |w| w.unsigned_abs() as u64);
    for &a in extra_bits {
        let case = format!("{g:?} {tiling:?} A={a}");
        // Every run's tiles are the bill the engine makes without
        // inputs, so each golden below checks both.
        let run = |arithmetic, s| {
            let engine = TileEngine::new(n, tiling, arithmetic, a);
            let run = engine.run_layer_at(g, input, weights, s).unwrap();
            let bill = engine.bill(g, weights, s).unwrap();
            assert_eq!(bill, run.tiles, "{case} {arithmetic:?} tier {s:?}");
            run
        };

        let prop_run = run(AccelArithmetic::ProposedSerial, None);
        assert_eq!(prop_run.outputs, golden_proposed(g, n, input, weights, a), "{case}");
        assert_eq!(tile_compute(&prop_run), serial_tiles, "{case}");

        let fix_run = run(AccelArithmetic::Fixed, None);
        assert_eq!(fix_run.outputs, golden_fixed(g, n, input, weights, a), "{case}");
        let depth = golden_tile_cycles(g, tiling, weights, |_| 1);
        assert_eq!(tile_compute(&fix_run), depth, "{case}");

        // Bit-parallel is bit-exact with serial: each lane equals a
        // per-lane bit-parallel MAC, in ⌈|w|/b⌉ cycles per term.
        let par_run = run(AccelArithmetic::ProposedParallel(b), None);
        let mac = BitParallelScMac::new(n, b).unwrap();
        let par_gold =
            golden_with(g, n, input, weights, a, |w, x| mac.multiply_signed(w, x).unwrap().value);
        assert_eq!(par_run.outputs, par_gold, "{case} b={b}");
        assert_eq!(par_run.outputs, prop_run.outputs, "{case} b={b}");
        let par_tiles = golden_tile_cycles(g, tiling, weights, |w| {
            (w.unsigned_abs() as u64).div_ceil(b as u64)
        });
        assert_eq!(tile_compute(&par_run), par_tiles, "{case} b={b}");

        // Every EDT tier: per-lane early-termination MACs, |w|≫(N−s)
        // cycles per term, and the savings against the serial
        // schedule, whatever the configured arithmetic.
        for s in 1..=n.bits() {
            let edt = EarlyTerminationScMac::new(n, s).unwrap();
            let edt_gold =
                golden_with(g, n, input, weights, a, |w, x| edt.multiply(w, x).unwrap().value);
            let edt_tiles = golden_tile_cycles(g, tiling, weights, |w| {
                (w.unsigned_abs() >> (n.bits() - s)) as u64
            });
            for arithmetic in [
                AccelArithmetic::ProposedSerial,
                AccelArithmetic::ProposedParallel(b),
                AccelArithmetic::Fixed,
            ] {
                let edt_run = run(arithmetic, Some(s));
                assert_eq!(edt_run.outputs, edt_gold, "{case} s={s} {arithmetic:?}");
                assert_eq!(tile_compute(&edt_run), edt_tiles, "{case} s={s}");
                let saved: Vec<u64> = edt_run.tiles.iter().map(|tp| tp.edt_saved).collect();
                let expect: Vec<u64> =
                    serial_tiles.iter().zip(&edt_tiles).map(|(f, e)| f - e).collect();
                assert_eq!(saved, expect, "{case} s={s}");
            }
        }
    }
}

#[test]
fn engine_matches_golden_random() {
    let mut rng = SmallRng::seed_from_u64(0xacce101);
    let n = Precision::new(7).unwrap();
    let h = n.half_scale() as i32;
    for _ in 0..24 {
        let g = random_geometry(&mut rng);
        let input: Vec<i32> =
            (0..g.z * g.in_h * g.in_w).map(|_| rng.gen_range_i32(-h..h)).collect();
        let weights: Vec<i32> =
            (0..g.m * g.depth()).map(|_| rng.gen_range_i32(-h / 2..h / 2 + 1)).collect();
        let (tiling, b) = random_tiling(&mut rng);
        // A = 8 never saturates at N = 7; A ∈ {0, 1} clamps mid-layer, so
        // the order in which each product saturates must match too.
        check_against_goldens(n, (&g, tiling, b), &input, &weights, &[0, 1, 8]);
    }
}

/// Zero-length terms between saturating ones. A quarter of the weights
/// are 0 and most others have `|w| < 16`, so at N = 7 they stream
/// nothing at tiers `s ≤ 3`, and those below `2^(N−s)` nothing at the
/// tiers above; an eighth are full scale, so A ∈ {0, 1} lanes hit their
/// bounds in between. Terms of one cycle (`8 ≤ |w| < 16` at `s = 4`,
/// `|w| = 1` in full) sit among them.
#[test]
fn engine_matches_golden_between_zero_length_terms() {
    let mut rng = SmallRng::seed_from_u64(0xacce103);
    let n = Precision::new(7).unwrap();
    let h = n.half_scale() as i32;
    for _ in 0..16 {
        let g = random_geometry(&mut rng);
        let input: Vec<i32> =
            (0..g.z * g.in_h * g.in_w).map(|_| rng.gen_range_i32(-h..h)).collect();
        let weights: Vec<i32> = (0..g.m * g.depth())
            .map(|_| match rng.gen_range_usize(0..8) {
                0 | 1 => 0,
                2 => [-h, h - 1][rng.gen_range_usize(0..2)],
                _ => rng.gen_range_i32(-15..16),
            })
            .collect();
        let (tiling, b) = random_tiling(&mut rng);
        check_against_goldens(n, (&g, tiling, b), &input, &weights, &[0, 1]);
    }
}

/// Tiling never changes the numerical result, only the schedule.
#[test]
fn outputs_invariant_under_tiling() {
    let mut rng = SmallRng::seed_from_u64(0xacce102);
    for _ in 0..16 {
        let n = Precision::new(6).unwrap();
        let g = ConvGeometry { z: 2, in_h: 6, in_w: 6, m: 3, k: 3, stride: 1 };
        let h = n.half_scale() as i32;
        let input: Vec<i32> = (0..g.z * 36).map(|_| rng.gen_range_i32(-h..h)).collect();
        let weights: Vec<i32> = (0..g.m * g.depth()).map(|_| rng.gen_range_i32(-h..h)).collect();
        let ta = rng.gen_range_usize(1..5);
        let tb = rng.gen_range_usize(1..5);
        let run_a = TileEngine::new(
            n,
            Tiling { t_m: ta, t_r: tb, t_c: ta },
            AccelArithmetic::ProposedSerial,
            8,
        )
        .run_layer(&g, &input, &weights)
        .unwrap();
        let run_b = TileEngine::new(
            n,
            Tiling { t_m: tb, t_r: ta, t_c: tb },
            AccelArithmetic::ProposedSerial,
            8,
        )
        .run_layer(&g, &input, &weights)
        .unwrap();
        assert_eq!(run_a.outputs, run_b.outputs, "ta={ta} tb={tb}");
    }
}

/// The code-range contract, whichever arithmetic or tier runs the layer:
/// a bad code that some output reads fails the layer, naming that code;
/// a bad code that no output reads is never loaded.
#[test]
fn out_of_range_codes_fail_only_where_read() {
    let n = Precision::new(8).unwrap();
    // Stride 2 over a 6×6 input reads columns 0..=4 only.
    let g = ConvGeometry { z: 2, in_h: 6, in_w: 6, m: 3, k: 3, stride: 2 };
    assert_eq!((g.r(), g.c()), (2, 2));
    let input: Vec<i32> = (0..g.z * 36).map(|i| ((i as i32 * 37 + 11) % 256) - 128).collect();
    let weights: Vec<i32> = (0..g.m * g.depth()).map(|i| ((i as i32 * 13 + 5) % 41) - 20).collect();
    let at = |z: usize, y: usize, x: usize| (z * g.in_h + y) * g.in_w + x;
    for (arithmetic, tier) in [
        (AccelArithmetic::ProposedSerial, None),
        (AccelArithmetic::ProposedParallel(8), None),
        (AccelArithmetic::Fixed, None),
        (AccelArithmetic::ProposedSerial, Some(4)),
    ] {
        let engine = TileEngine::new(n, Tiling { t_m: 2, t_r: 1, t_c: 2 }, arithmetic, 2);
        let case = format!("{arithmetic:?} tier {tier:?}");

        let mut bad_input = input.clone();
        bad_input[at(1, 2, 3)] = 300;
        assert_eq!(
            engine.run_layer_at(&g, &bad_input, &weights, tier),
            Err(Error::CodeOutOfRange { code: 300, precision: 8 }),
            "{case}"
        );

        let mut bad_weights = weights.clone();
        bad_weights[2 * g.depth() + 4] = -129;
        assert!(
            matches!(
                engine.run_layer_at(&g, &input, &bad_weights, tier),
                Err(Error::CodeOutOfRange { code: -129, .. })
            ),
            "{case}"
        );
        // The bill reads every weight, so it names the same one.
        assert_eq!(
            engine.bill(&g, &bad_weights, tier),
            Err(Error::CodeOutOfRange { code: -129, precision: 8 }),
            "{case}"
        );

        let (mut unread, mut zeroed) = (input.clone(), input.clone());
        unread[at(0, 3, 5)] = 300;
        zeroed[at(0, 3, 5)] = 0;
        let run = engine.run_layer_at(&g, &unread, &weights, tier);
        assert_eq!(run, Ok(engine.run_layer_at(&g, &zeroed, &weights, tier).unwrap()), "{case}");

        // Both a bad weight and a bad lane code: the first in (map, term,
        // lane) order is named, each weight before its term's lanes. The
        // code at (1, 2, 3) is first read by term (z, i, j) = (1, 0, 1),
        // term 10 of 18.
        let with_weight = |m: usize, term: usize| {
            let mut bad = weights.clone();
            bad[m * g.depth() + term] = -129;
            bad
        };
        let weight_err = Err(Error::CodeOutOfRange { code: -129, precision: 8 });
        let code_err = Err(Error::CodeOutOfRange { code: 300, precision: 8 });
        for (term, expected) in [(4, &weight_err), (10, &weight_err), (12, &code_err)] {
            let run = engine.run_layer_at(&g, &bad_input, &with_weight(0, term), tier);
            assert_eq!(&run, expected, "{case}: bad map-0 weight at term {term}");
        }
        // A bad weight only in the last map is named when no output
        // reads the bad code.
        let last = with_weight(g.m - 1, 4);
        assert_eq!(engine.run_layer_at(&g, &unread, &last, tier), weight_err, "{case}");
    }
}
