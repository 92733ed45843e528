//! Telemetry neutrality: instrumenting the tile engine must not change
//! what it computes, and the counters it reports must agree with the
//! engine's own `Traffic`/cycle accounting.
//!
//! Lives in its own integration-test binary so enabling the
//! process-global metrics registry cannot race other tests that also
//! drive `run_layer`; the tests here serialize on [`METRICS_LOCK`].

use std::sync::{Arc, Mutex, MutexGuard};

use sc_accel::engine::{AccelArithmetic, TileEngine};
use sc_accel::layer::{ConvGeometry, Tiling};
use sc_core::bitplane::words_in_prefix;
use sc_core::Precision;
use sc_telemetry::metrics::counter;
use sc_telemetry::span::{CollectingSubscriber, RecordKind};

static METRICS_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> MutexGuard<'static, ()> {
    METRICS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn test_data(g: &ConvGeometry, n: Precision) -> (Vec<i32>, Vec<i32>) {
    let h = n.half_scale() as i32;
    let input: Vec<i32> =
        (0..g.z * g.in_h * g.in_w).map(|i| ((i as i32 * 37 + 11) % (2 * h)) - h).collect();
    let weights: Vec<i32> = (0..g.m * g.depth()).map(|i| ((i as i32 * 13 + 5) % 21) - 10).collect();
    (input, weights)
}

#[test]
fn outputs_identical_with_telemetry_on_and_counters_match_traffic() {
    let _g = locked();
    let g = ConvGeometry { z: 2, in_h: 7, in_w: 7, m: 3, k: 3, stride: 1 };
    let n = Precision::new(7).unwrap();
    let (input, weights) = test_data(&g, n);
    let tiling = Tiling { t_m: 2, t_r: 3, t_c: 2 };
    let engine = TileEngine::new(n, tiling, AccelArithmetic::ProposedSerial, 8);

    // Telemetry off (the default): baseline run.
    let off = engine.run_layer(&g, &input, &weights).unwrap();

    // Telemetry on: metrics enabled, spans collected.
    sc_telemetry::metrics::reset();
    sc_telemetry::metrics::set_enabled(true);
    let collector = Arc::new(CollectingSubscriber::new());
    sc_telemetry::span::set_subscriber(collector.clone());
    let on = engine.run_layer(&g, &input, &weights).unwrap();
    sc_telemetry::span::clear_subscriber();
    sc_telemetry::metrics::set_enabled(false);
    let snap = sc_telemetry::metrics::snapshot();

    // Bitwise-identical results (outputs, cycles, traffic).
    assert_eq!(off, on);

    // Counters agree with the engine's own accounting.
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("missing counter {name}"))
            .1
    };
    assert_eq!(counter("accel.traffic.input_words"), on.traffic.input_words);
    assert_eq!(counter("accel.traffic.weight_words"), on.traffic.weight_words);
    assert_eq!(counter("accel.traffic.output_words"), on.traffic.output_words);
    assert_eq!(counter("accel.cycles"), on.cycles);

    // The tile-cycle histogram saw exactly one record per tile.
    let tiles = counter("accel.tiles");
    let hist = &snap.histograms.iter().find(|(k, _)| k == "accel.tile.cycles").unwrap().1;
    assert_eq!(hist.count, tiles);
    assert_eq!(hist.sum, on.cycles);

    // Spans: one layer span on the caller thread. Tiles run on the
    // sc-par pool, so per-tile telemetry is a `accel.tile.done` event
    // fired during the deterministic merge (one per tile, nested in the
    // layer span) rather than a worker-side span whose interleaving
    // would depend on scheduling.
    let recs = collector.records();
    let enters = |name: &str| {
        recs.iter().filter(|r| r.kind == RecordKind::Enter && r.name == name).count() as u64
    };
    assert_eq!(enters("accel.layer"), 1);
    let tile_done: Vec<_> = recs
        .iter()
        .filter(|r| r.kind == RecordKind::Event && r.name == "accel.tile.done")
        .collect();
    assert_eq!(tile_done.len() as u64, tiles);
    assert!(tile_done.iter().all(|r| r.depth == 1), "tile events merge inside the layer span");
}

#[test]
fn bitplane_words_bill_every_term_prefix_once() {
    let _g = locked();
    // A clean scoped plan keeps an ambient SC_FAULTS (the CI fault gate)
    // from adding verification replicas or degraded recomputes.
    let _clean = sc_fault::scoped(sc_fault::FaultPlan::parse("").unwrap());
    let n = Precision::new(8).unwrap();
    let g = ConvGeometry { z: 4, in_h: 10, in_w: 10, m: 6, k: 3, stride: 1 };
    let (input, weights) = test_data(&g, n);
    let tiling = Tiling::default();
    // Every output-pixel tile streams every unit's weight row once, and
    // each term bills the packed words of the prefix it scans.
    let pixel_tiles = (g.r().div_ceil(tiling.t_r) * g.c().div_ceil(tiling.t_c)) as u64;
    let billed = |shift: u32| -> u64 {
        let per_pass: u64 =
            weights.iter().map(|w| words_in_prefix(w.unsigned_abs() as u64 >> shift)).sum();
        per_pass * pixel_tiles
    };
    let words = counter("accel.bitplane.words");
    sc_telemetry::metrics::set_enabled(true);
    for (arithmetic, effective_bits, expect) in [
        (AccelArithmetic::ProposedSerial, None, billed(0)),
        (AccelArithmetic::ProposedParallel(8), None, billed(0)),
        (AccelArithmetic::Fixed, None, 0),
        (AccelArithmetic::ProposedSerial, Some(4), billed(4)),
    ] {
        let engine = TileEngine::new(n, tiling, arithmetic, 2);
        let before = words.get();
        engine.run_layer_at(&g, &input, &weights, effective_bits).unwrap();
        assert_eq!(
            words.get() - before,
            expect,
            "{arithmetic:?} effective_bits={effective_bits:?}"
        );
    }
    sc_telemetry::metrics::set_enabled(false);
    assert!(billed(0) > 0);
}
