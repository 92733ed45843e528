//! Serial-vs-parallel throughput of the accelerator tile loop, plus the
//! execution-engine comparison bench.
//!
//! Times `TileEngine::run_layer` with the `sc-par` pool pinned to one
//! worker (the inline path) against the configured thread count, checks
//! the two runs are bit-exact, and appends the measured speedup to
//! `results/parallel.json` so CI hardware accumulates a history of
//! parallel-efficiency data points.
//!
//! A further pair gates the bitplane engine's reason to exist. The engine
//! switch reaches only `sc-rtlsim`'s `run_to_done` loops, so the pair
//! times those: `mvm_n8`, an N=8, 512-lane `BiscMvmRtl` term sequence
//! under `SC_ENGINE=cycle` vs the bitplane popcount engine (outputs
//! checked bitwise-identical first). The speedup lands in the
//! `bench.speedup.mvm_n8_bitplane` gauge, is hard-asserted ≥ 8× here, and
//! is floor-gated again by `sc_report` so it cannot silently rot.
//!
//! `--quick` shrinks the layer.

use std::time::{SystemTime, UNIX_EPOCH};

use sc_accel::engine::{AccelArithmetic, TileEngine};
use sc_accel::layer::{ConvGeometry, Tiling};
use sc_bench::microbench::Group;
use sc_core::bitplane::{self, EngineKind};
use sc_core::Precision;
use sc_rtlsim::mvm::BiscMvmRtl;
use sc_telemetry::json::Json;
use sc_telemetry::metrics::gauge;

fn main() {
    sc_telemetry::bench_run(
        "bench_parallel",
        "Serial vs parallel tile-engine throughput (sc-par pool)",
        run,
    );
}

fn run(ctx: &mut sc_telemetry::BenchCtx) {
    let quick = ctx.quick();
    let n = Precision::new(8).expect("valid precision");
    let tiling = Tiling::default();
    let g = if quick {
        ConvGeometry { z: 4, in_h: 12, in_w: 12, m: 8, k: 5, stride: 1 }
    } else {
        ConvGeometry { z: 8, in_h: 16, in_w: 16, m: 16, k: 5, stride: 1 }
    };
    let threads = sc_par::Pool::global().threads();
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    ctx.config("threads", threads);
    ctx.config("host_parallelism", host);
    ctx.config("engine", bitplane::engine().name());
    ctx.config("geometry", format!("{}x{}x{} -> m={} k={}", g.z, g.in_h, g.in_w, g.m, g.k));
    println!("layer: {} MACs, {} threads (host parallelism {host})\n", g.macs(), threads);

    let half = n.half_scale() as i32;
    let input: Vec<i32> =
        (0..g.z * g.in_h * g.in_w).map(|i| ((i as i32 * 37 + 11) % (2 * half)) - half).collect();
    let weights: Vec<i32> = (0..g.m * g.depth()).map(|i| ((i as i32 * 13 + 5) % 21) - 10).collect();
    let engine = TileEngine::new(n, tiling, AccelArithmetic::ProposedSerial, 2);

    // The determinism contract, checked before timing anything: one
    // worker and `threads` workers must produce identical outputs,
    // cycles, and traffic.
    sc_par::set_threads(1);
    let serial = engine.run_layer(&g, &input, &weights).expect("geometry and buffers agree");
    sc_par::set_threads(threads);
    let parallel = engine.run_layer(&g, &input, &weights).expect("geometry and buffers agree");
    assert_eq!(serial, parallel, "parallel run must be bit-exact with serial");
    println!("bit-exactness: serial and {threads}-thread runs identical\n");

    let mut group = Group::new("engine_tile_loop");
    let pair = group.bench_pair(
        "serial",
        "parallel",
        "run_layer",
        || {
            sc_par::set_threads(1);
            engine.run_layer(&g, &input, &weights).expect("runs").cycles
        },
        || {
            sc_par::set_threads(threads);
            engine.run_layer(&g, &input, &weights).expect("runs").cycles
        },
    );
    group.finish();
    sc_par::set_threads(0); // back to SC_THREADS / host default

    let speedup = pair.speedup();
    println!("speedup at {threads} threads: {speedup:.2}x");
    if host <= 1 {
        println!("(single-core host: ~1x expected; multi-core CI shows the real ratio)");
    }

    // Append this measurement to the running history.
    let entry = Json::obj(vec![
        ("git_describe", Json::Str(sc_telemetry::manifest::git_describe())),
        (
            "timestamp_unix",
            Json::UInt(
                SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0),
            ),
        ),
        ("threads", Json::UInt(threads as u64)),
        ("host_parallelism", Json::UInt(host as u64)),
        ("serial_ns", Json::Num(pair.baseline.min_ns)),
        ("parallel_ns", Json::Num(pair.contender.min_ns)),
        ("speedup", Json::Num(speedup)),
        ("quick", Json::Bool(quick)),
    ]);
    let path = "results/parallel.json";
    // Accept both the versioned wrapper and the legacy bare array so an
    // existing history file keeps accumulating.
    let mut entries: Vec<Json> = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .and_then(|j| j.get("rows").or(Some(&j)).and_then(Json::as_arr).map(<[Json]>::to_vec))
        .unwrap_or_default();
    entries.push(entry);
    let wrapped = sc_telemetry::export::with_schema_version(&Json::Arr(entries));
    sc_telemetry::export::write_json(path, &wrapped).expect("write parallel.json");
    ctx.record_artifact(path);
    println!("recorded -> {path}");

    engine_benches(quick, n, half);
}

/// The cycle-accurate vs bitplane engine pair: bitwise cross-check
/// first, then wall-clock comparison. The MVM speedup is hard-asserted
/// here *and* floor-gated by `sc_report` (gauge
/// `bench.speedup.mvm_n8_bitplane`, floor 8.0).
fn engine_benches(quick: bool, n: Precision, half: i32) {
    // Pin the pool to one worker for the engine pair: the comparison is
    // engine-vs-engine, not threads-vs-serial, and the cycle-accurate
    // path is serial by construction.
    sc_par::set_threads(1);
    // 512 lanes: above the MVM fast path's PAR_LANE_THRESHOLD, so the
    // shared-occupancy path also exercises the sc-par lane map.
    let p_lanes = 512usize;
    let terms = if quick { 24 } else { 64 };
    let mvm_xs: Vec<i32> =
        (0..p_lanes as i32).map(|i| ((i * 37 + 11) % (2 * half)) - half).collect();
    // Large-|w| weights (|w| ∈ [half−32, half−1]) of alternating sign:
    // convolution weights cluster away from zero after training, and long
    // terms are where the serial walk's k·p cycle cost actually lives.
    let mvm_ws: Vec<i32> = (0..terms)
        .map(|i| {
            let mag = half - 1 - ((i * 7) % 32);
            if i % 2 == 0 {
                mag
            } else {
                -mag
            }
        })
        .collect();
    // Instances are constructed once and recycled with `clear_outputs`
    // (here and in the timed pair below) so the measured region is the
    // term stream itself, not the constructor: fault-site resolution and
    // lane allocation are identical under both engines and would only
    // dilute the ratio.
    let mut mvm = BiscMvmRtl::new(n, p_lanes, 8);
    let mut run_mvm = |engine: EngineKind| {
        bitplane::set_engine(Some(engine));
        mvm.clear_outputs();
        for &w in &mvm_ws {
            mvm.load(w, &mvm_xs).expect("codes in range");
            mvm.run_to_done();
        }
        bitplane::set_engine(None);
        (mvm.read(), mvm.total_cycles())
    };

    // The golden cross-check before any timing: identical outputs and
    // identical billed cycles under both engines.
    let (cycle_out, cycle_cycles) = run_mvm(EngineKind::CycleAccurate);
    let (bp_out, bp_cycles) = run_mvm(EngineKind::Bitplane);
    assert_eq!(cycle_out, bp_out, "engines must produce bitwise-identical MVM outputs");
    assert_eq!(cycle_cycles, bp_cycles, "engines must bill identical cycle counts");
    println!("engine cross-check: {terms}-term {p_lanes}-lane N=8 MVM bitwise identical\n");

    let mut group = Group::new("execution_engines");
    let mut mvm_a = BiscMvmRtl::new(n, p_lanes, 8);
    let mut mvm_b = BiscMvmRtl::new(n, p_lanes, 8);
    let mvm_pair = group.bench_pair(
        "cycle",
        "bitplane",
        "mvm_n8",
        || {
            bitplane::set_engine(Some(EngineKind::CycleAccurate));
            mvm_a.clear_outputs();
            for &w in &mvm_ws {
                mvm_a.load(w, &mvm_xs).expect("codes in range");
                mvm_a.run_to_done();
            }
            bitplane::set_engine(None);
            mvm_a.total_cycles()
        },
        || {
            bitplane::set_engine(Some(EngineKind::Bitplane));
            mvm_b.clear_outputs();
            for &w in &mvm_ws {
                mvm_b.load(w, &mvm_xs).expect("codes in range");
                mvm_b.run_to_done();
            }
            bitplane::set_engine(None);
            mvm_b.total_cycles()
        },
    );
    group.finish();
    sc_par::set_threads(0); // back to SC_THREADS / host default

    let mvm_speedup = mvm_pair.speedup();
    gauge("bench.speedup.mvm_n8_bitplane").set(mvm_speedup);
    gauge("bench.time.mvm_n8.cycle_ns").set(mvm_pair.baseline.min_ns);
    gauge("bench.time.mvm_n8.bitplane_ns").set(mvm_pair.contender.min_ns);

    println!("mvm_n8 bitplane speedup: {mvm_speedup:.2}x (floor 8.0, gated by sc_report)");
    assert!(
        mvm_speedup >= 8.0,
        "bitplane engine must be >= 8x faster than cycle-accurate on the N=8 MVM \
         (measured {mvm_speedup:.2}x)"
    );
}
