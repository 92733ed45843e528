//! `accel_conv`: closed loop, one caller, repeated passes over the conv
//! layers of the fig6 MNIST-like and CIFAR-like nets on the tiled
//! accelerator simulator. Each pass runs every layer through
//! `TileEngine::run_layer_at` under `ProposedSerial`,
//! `ProposedParallel(8)` and `Fixed` at full precision and at EDT tiers
//! 6 and 4, then replays one sampled tile per layer through sc-core
//! `BiscMvm` / `BitParallelMvm` and sc-rtlsim `BiscMvmRtl`.

use sc_accel::engine::LayerRun;
use sc_accel::{AccelArithmetic, ConvGeometry, TileEngine, Tiling};
use sc_core::mvm::{BiscMvm, BitParallelMvm};
use sc_core::{Error, Precision};
use sc_neural::layers::LayerKind;
use sc_neural::net::Network;
use sc_neural::tensor::Tensor;
use sc_rtlsim::mvm::BiscMvmRtl;
use sc_telemetry::metrics::{counter, gauge, Counter};

use crate::clock::Stamp;
use crate::stats::{median, Digest};
use crate::{
    is_traced, repeat_setup, run_ops, trace, Alternating, Config, Metric, Outcome, Step, Timing,
};

const N_BITS: u32 = 8;
const EXTRA_BITS: u32 = 2;
/// Bit-parallelism of the parallel design.
const PAR_BITS: u32 = 8;
/// EDT tiers (effective weight bits) run on every layer.
const EDT_TIERS: [u32; 2] = [6, 4];
/// Runs per layer per pass: three arithmetics plus the EDT tiers.
const RUNS_PER_LAYER: u64 = 3 + EDT_TIERS.len() as u64;
/// Minimum passes per run, whatever the host speed.
const MIN_PASSES: u64 = 5;

fn precision() -> Precision {
    Precision::new(N_BITS).expect("valid precision")
}

/// One conv layer as the accelerator sees it.
struct Layer {
    name: String,
    geometry: ConvGeometry,
    /// `[z][y][x]` codes, zero-padded for padded layers.
    input: Vec<i32>,
    /// `[m][z][i][j]` codes.
    weights: Vec<i32>,
    /// The sampled tile's index in the engine's canonical tile order.
    tile_index: usize,
    /// The sampled tile's terms.
    tile: SampledTile,
}

/// The conv layers of `net` on `image`, in network order: geometry from
/// the layer's observed input/output shapes (padding entering as a
/// zero-padded input map), inputs from the float forward pass scaled
/// into `[-1, 1]` by a power of two, weights quantized at N bits.
fn conv_layers(tag: &str, mut net: Network, image: Tensor, seed: u64) -> Vec<Layer> {
    let n = precision();
    let tiling = Tiling::default();
    let mut x = image;
    let mut out = Vec::new();
    for layer in net.layers_mut() {
        let y = layer.forward(&x);
        if let LayerKind::Conv(conv) = layer {
            let (z, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2]);
            let (m, r, c) = (y.shape()[0], y.shape()[1], y.shape()[2]);
            let k = ((conv.weights().len() / (m * z)) as f64).sqrt().round() as usize;
            assert_eq!(k * k * m * z, conv.weights().len(), "{tag}: square kernels");
            // Unit stride: r = h + 2·pad − k + 1.
            let pad = (r + k - 1 - h) / 2;
            assert_eq!((h + 2 * pad + 1 - k, w + 2 * pad + 1 - k), (r, c), "{tag}: unit stride");
            let max = x.max_abs();
            let scale = if max <= 1.0 { 1.0 } else { 2f32.powi(max.log2().ceil() as i32) };
            let (ph, pw) = (h + 2 * pad, w + 2 * pad);
            let mut input = vec![0i32; z * ph * pw];
            for zi in 0..z {
                for yi in 0..h {
                    for xi in 0..w {
                        let v = x.data()[(zi * h + yi) * w + xi] / scale;
                        input[(zi * ph + yi + pad) * pw + xi + pad] = sc_fixed::quantize(v, n);
                    }
                }
            }
            let weights: Vec<i32> =
                conv.weights().iter().map(|&v| sc_fixed::quantize(v, n)).collect();
            let geometry = ConvGeometry { z, in_h: ph, in_w: pw, m, k, stride: 1 };
            let index = out.len() as u64;
            let tiles = tiling.tile_count(&geometry);
            let tile_index = (sc_fault::split_mix(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                % tiles) as usize;
            let tile = SampledTile::new(&geometry, &input, &weights, tile_index);
            out.push(Layer {
                name: format!("{tag}.conv{}", index + 1),
                geometry,
                input,
                weights,
                tile_index,
                tile,
            });
        }
        x = y;
    }
    out
}

/// The three engines of the accelerator study (256 MACs, A = 2).
struct Engines {
    serial: TileEngine,
    bitpar: TileEngine,
    fixed: TileEngine,
}

struct Prepared {
    layers: Vec<Layer>,
    engines: Engines,
    /// MACs simulated by one pass (layer runs plus tile replays).
    macs_per_pass: u64,
    /// The warm-up pass: every later pass must reproduce it exactly.
    reference: Pass,
}

fn prepare(seed: u64) -> Result<Prepared, Error> {
    let mnist = sc_neural::train::sample_tensor(&sc_datasets::mnist_like(1, seed), 0).0;
    let cifar = sc_neural::train::sample_tensor(&sc_datasets::cifar_like(1, seed), 0).0;
    let mut layers = conv_layers("mnist", sc_neural::zoo::mnist_net(seed), mnist, seed);
    layers.extend(conv_layers("cifar", sc_neural::zoo::cifar_net(seed), cifar, seed ^ 0xC1FA));
    let (n, tiling) = (precision(), Tiling::default());
    let engines = Engines {
        serial: TileEngine::new(n, tiling, AccelArithmetic::ProposedSerial, EXTRA_BITS),
        bitpar: TileEngine::new(n, tiling, AccelArithmetic::ProposedParallel(PAR_BITS), EXTRA_BITS),
        fixed: TileEngine::new(n, tiling, AccelArithmetic::Fixed, EXTRA_BITS),
    };
    // Layer runs plus three replays of the sampled tile (every lane
    // of every term is one MAC).
    let lanes = tiling.lanes() as u64;
    let macs_per_pass = layers
        .iter()
        .map(|l| RUNS_PER_LAYER * l.geometry.macs() + 3 * l.tile.terms() * lanes)
        .sum();
    let reference = run_pass(&layers, &engines)?;
    Ok(Prepared { layers, engines, macs_per_pass, reference })
}

/// The sampled tile's bounds and the `(w, x⃗)` terms each of its `T_M`
/// units is fed, gathered once at set-up exactly as the engine's tile
/// loop gathers them (lanes past the layer edge carry x = 0).
struct SampledTile {
    m: (usize, usize),
    r: (usize, usize),
    c: (usize, usize),
    /// Per unit, the terms in `(z, i, j)` order.
    units: Vec<Vec<(i32, Vec<i32>)>>,
}

impl SampledTile {
    fn new(g: &ConvGeometry, input: &[i32], weights: &[i32], tile: usize) -> SampledTile {
        let t = Tiling::default();
        let (r, c) = (g.r(), g.c());
        let (nr, nc) = (r.div_ceil(t.t_r), c.div_ceil(t.t_c));
        let m1 = tile / (nr * nc) * t.t_m;
        let r1 = tile % (nr * nc) / nc * t.t_r;
        let c1 = tile % nc * t.t_c;
        let (m_hi, r_hi, c_hi) = ((m1 + t.t_m).min(g.m), (r1 + t.t_r).min(r), (c1 + t.t_c).min(c));
        let units = (m1..m_hi)
            .map(|m| {
                let mut terms = Vec::with_capacity(g.depth());
                for z in 0..g.z {
                    for i in 0..g.k {
                        for j in 0..g.k {
                            let xs = (0..t.lanes())
                                .map(|lane| {
                                    let (rr, cc) = (r1 + lane / t.t_c, c1 + lane % t.t_c);
                                    if rr < r_hi && cc < c_hi {
                                        let (y, x) = (rr * g.stride + i, cc * g.stride + j);
                                        input[(z * g.in_h + y) * g.in_w + x]
                                    } else {
                                        0
                                    }
                                })
                                .collect();
                            terms.push((weights[(m * g.z + z) * g.k * g.k + i * g.k + j], xs));
                        }
                    }
                }
                terms
            })
            .collect();
        SampledTile { m: (m1, m_hi), r: (r1, r_hi), c: (c1, c_hi), units }
    }

    /// Whether `lane` maps inside the layer (only those are written back).
    fn lane_kept(&self, lane: usize) -> bool {
        let t_c = Tiling::default().t_c;
        self.r.0 + lane / t_c < self.r.1 && self.c.0 + lane % t_c < self.c.1
    }

    fn terms(&self) -> u64 {
        self.units.iter().map(|u| u.len() as u64).sum()
    }
}

/// A tile's result: per-unit outputs of the in-layer lanes, and its
/// cycles (the max over its lock-stepped units).
#[derive(Debug, PartialEq)]
struct TileResult {
    outputs: Vec<Vec<i64>>,
    cycles: u64,
}

/// Replays the sampled tile unit by unit; `unit` runs one unit's terms
/// and returns its lane values and cycles.
fn replay(
    tile: &SampledTile,
    mut unit: impl FnMut(&[(i32, Vec<i32>)]) -> Result<(Vec<i64>, u64), Error>,
) -> Result<TileResult, Error> {
    let mut result = TileResult { outputs: Vec::new(), cycles: 0 };
    for terms in &tile.units {
        let (values, cycles) = unit(terms)?;
        let kept = values.iter().enumerate().filter(|&(lane, _)| tile.lane_kept(lane));
        result.outputs.push(kept.map(|(_, &v)| v).collect());
        result.cycles = result.cycles.max(cycles);
    }
    Ok(result)
}

/// The engine's view of the sampled tile in a layer run.
fn tile_of_run(l: &Layer, run: &LayerRun) -> TileResult {
    let (r, c) = (l.geometry.r(), l.geometry.c());
    let t = &l.tile;
    let outputs = (t.m.0..t.m.1)
        .map(|m| {
            (t.r.0..t.r.1)
                .flat_map(|rr| (t.c.0..t.c.1).map(move |cc| (rr, cc)))
                .map(|(rr, cc)| run.outputs[(m * r + rr) * c + cc])
                .collect()
        })
        .collect();
    TileResult { outputs, cycles: run.tiles[l.tile_index].compute }
}

fn replay_core(tile: &SampledTile) -> Result<TileResult, Error> {
    replay(tile, |terms| {
        let mut mvm = BiscMvm::new(precision(), Tiling::default().lanes(), EXTRA_BITS);
        for (w, xs) in terms {
            mvm.accumulate(*w, xs)?;
        }
        Ok((mvm.read(), mvm.cycles()))
    })
}

fn replay_core_bitpar(tile: &SampledTile) -> Result<TileResult, Error> {
    replay(tile, |terms| {
        let mut mvm =
            BitParallelMvm::new(precision(), Tiling::default().lanes(), EXTRA_BITS, PAR_BITS)?;
        for (w, xs) in terms {
            mvm.accumulate(*w, xs)?;
        }
        Ok((mvm.read(), mvm.cycles()))
    })
}

fn replay_rtl(tile: &SampledTile) -> Result<TileResult, Error> {
    replay(tile, |terms| {
        let mut mvm = BiscMvmRtl::new(precision(), Tiling::default().lanes(), EXTRA_BITS);
        for (w, xs) in terms {
            mvm.load(*w, xs)?;
            mvm.run_to_done();
        }
        Ok((mvm.read(), mvm.total_cycles()))
    })
}

/// Everything one pass simulated, per layer.
#[derive(Debug, PartialEq)]
struct LayerPass {
    serial: LayerRun,
    bitpar: LayerRun,
    fixed: LayerRun,
    edt: Vec<LayerRun>,
    core: TileResult,
    core_bitpar: TileResult,
    rtl: TileResult,
}

type Pass = Vec<LayerPass>;

fn run_pass(layers: &[Layer], e: &Engines) -> Result<Pass, Error> {
    layers
        .iter()
        .map(|l| {
            let (g, x, w) = (&l.geometry, &l.input[..], &l.weights[..]);
            let serial = trace::span("accel.serial", || e.serial.run_layer_at(g, x, w, None))?;
            let bitpar = trace::span("accel.bitpar", || e.bitpar.run_layer_at(g, x, w, None))?;
            let fixed = trace::span("accel.fixed", || e.fixed.run_layer_at(g, x, w, None))?;
            let edt = EDT_TIERS
                .iter()
                .map(|&s| trace::span("accel.edt", || e.serial.run_layer_at(g, x, w, Some(s))))
                .collect::<Result<Vec<_>, _>>()?;
            let core = trace::span("core.mvm", || replay_core(&l.tile))?;
            let core_bitpar = trace::span("core.bitpar_mvm", || replay_core_bitpar(&l.tile))?;
            let rtl = trace::span("rtlsim.mvm", || replay_rtl(&l.tile))?;
            Ok(LayerPass { serial, bitpar, fixed, edt, core, core_bitpar, rtl })
        })
        .collect()
}

/// The output checks of one pass; returns the failures.
fn check_pass(layers: &[Layer], pass: &Pass, reference: &Pass) -> u64 {
    let mut failed = u64::from(pass != reference);
    for (l, lp) in layers.iter().zip(pass) {
        // PAPER.md §1.3: the bit-parallel design is bit-exact with the
        // serial one.
        failed += u64::from(lp.serial.outputs != lp.bitpar.outputs);
        // The sampled tile: engine == sc-core == sc-rtlsim, outputs and
        // cycles.
        let serial_tile = tile_of_run(l, &lp.serial);
        failed += u64::from(lp.core != serial_tile);
        failed += u64::from(lp.rtl != serial_tile);
        failed += u64::from(lp.core_bitpar != tile_of_run(l, &lp.bitpar));
    }
    failed
}

fn digest_run(d: &mut Digest, run: &LayerRun) {
    d.signed(&run.outputs);
    d.word(run.cycles);
    d.words([run.traffic.input_words, run.traffic.weight_words, run.traffic.output_words]);
    d.words(run.degraded_tiles.iter().map(|&t| t as u64));
    for t in &run.tiles {
        d.words([t.compute, t.verify, t.recompute, t.edt_saved]);
    }
}

fn digest_pass(layers: &[Layer], pass: &Pass) -> u64 {
    let mut d = Digest::default();
    for (l, lp) in layers.iter().zip(pass) {
        d.text(&l.name);
        d.word(l.tile_index as u64);
        for run in [&lp.serial, &lp.bitpar, &lp.fixed].into_iter().chain(&lp.edt) {
            digest_run(&mut d, run);
        }
        for replay in [&lp.core, &lp.core_bitpar, &lp.rtl] {
            d.word(replay.cycles);
            for unit in &replay.outputs {
                d.signed(unit);
            }
        }
    }
    d.value()
}

fn serial_cycles(pass: &Pass) -> u64 {
    pass.iter().map(|lp| lp.serial.cycles).sum()
}

/// Runs one pass, timed, and checks it against the reference.
fn timed_pass(p: &Prepared) -> Step {
    let t = Stamp::now();
    let pass = run_pass(&p.layers, &p.engines);
    let lap = t.lap();
    match pass {
        Ok(pass) if check_pass(&p.layers, &pass, &p.reference) == 0 => Step::Timed(lap),
        _ => Step::Failed,
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(cfg: &Config) -> Outcome {
    let (p, setups) = match repeat_setup(|| prepare(cfg.seed)) {
        Ok(v) => v,
        Err(e) => return Outcome::setup_failed(e),
    };
    let phase = run_ops(cfg.seconds, MIN_PASSES, |_| timed_pass(&p));
    let mut out =
        Outcome { attempted: phase.attempted, failed: phase.failed, ..Outcome::default() };
    let Some(t) = Timing::of(&setups, &phase) else { return out };
    let cycles = serial_cycles(&p.reference) as f64;
    out.checks
        .push(("reference_pass_checks", check_pass(&p.layers, &p.reference, &p.reference) == 0));
    out.digest = digest_pass(&p.layers, &p.reference);
    out.result = t.end_to_end(
        "pass",
        "layer extraction, engines, warm-up pass",
        cycles,
        &format!(
            "Σ LayerRun::cycles under ProposedSerial at full precision, per pass over {} layers",
            p.layers.len()
        ),
    );
    out.report = vec![Metric::new(
        "sim_macs_per_s",
        p.macs_per_pass as f64 / (t.ops.p50 / 1e3),
        "MAC/s",
        format!("{} MACs per pass / calibrated median pass, n={}", p.macs_per_pass, t.ops.n),
    )];
    out.report.extend(t.raw());
    out
}

/// Program counters read as deltas around each traced pass.
struct PassCounters {
    tiles: Counter,
    bitplane_words: Counter,
    traffic: [Counter; 3],
    tasks: Counter,
    steals: Counter,
}

impl PassCounters {
    fn new() -> PassCounters {
        PassCounters {
            tiles: counter("accel.tiles"),
            bitplane_words: counter("accel.bitplane.words"),
            traffic: [
                counter("accel.traffic.input_words"),
                counter("accel.traffic.weight_words"),
                counter("accel.traffic.output_words"),
            ],
            tasks: counter("par.tasks"),
            steals: counter("par.steals"),
        }
    }

    fn read(&self) -> [u64; 5] {
        [
            self.tiles.get(),
            self.bitplane_words.get(),
            self.traffic.iter().map(Counter::get).sum(),
            self.tasks.get(),
            self.steals.get(),
        ]
    }
}

/// The traced run: per-layer metrics. Passes alternate untraced and
/// traced.
pub fn run_traced(cfg: &Config) -> Outcome {
    let p = match prepare(cfg.seed) {
        Ok(p) => p,
        Err(e) => return Outcome::setup_failed(e),
    };
    let counters = PassCounters::new();
    let utilization = gauge("par.utilization");
    let threads = gauge("par.threads");
    let mut deltas = Vec::new();
    let mut util = Vec::new();
    let phase = run_ops(cfg.seconds, 2 * MIN_PASSES, |k| {
        if !is_traced(k, u64::MAX) {
            return timed_pass(&p);
        }
        sc_telemetry::metrics::set_enabled(true);
        trace::set_on(true);
        trace::set_op(k + 1);
        let before = counters.read();
        let step = timed_pass(&p);
        let after = counters.read();
        trace::set_on(false);
        sc_telemetry::metrics::set_enabled(false);
        if let Step::Timed(_) = step {
            deltas.push(std::array::from_fn::<u64, 5, _>(|i| after[i] - before[i]));
            util.push(utilization.get());
        }
        step
    });
    let mut out =
        Outcome { attempted: phase.attempted, failed: phase.failed, ..Outcome::default() };
    let alt = Alternating::of(&phase, u64::MAX);

    let spans = trace::spans();
    // Median over traced passes of the calibrated per-pass total of
    // `names`.
    let per_pass_ms = |names: &[&str]| {
        let totals: Vec<f64> = alt
            .scale
            .keys()
            .map(|&op| {
                let ns =
                    spans.iter().filter(|s| s.op == op && names.contains(&s.name)).map(|s| s.ns());
                alt.ms(op, ns.sum())
            })
            .collect();
        median(&totals)
    };
    let reference = &p.reference;
    let sum = |f: &dyn Fn(&LayerPass) -> u64| reference.iter().map(f).sum::<u64>();
    let cycles_serial = sum(&|lp| lp.serial.cycles);
    let cycles_bitpar = sum(&|lp| lp.bitpar.cycles);
    let cycles_fixed = sum(&|lp| lp.fixed.cycles);
    let tiles_per_pass = sum(&|lp| {
        [&lp.serial, &lp.bitpar, &lp.fixed]
            .into_iter()
            .chain(&lp.edt)
            .map(|r| r.tiles.len() as u64)
            .sum()
    });
    let core_terms: u64 = p.layers.iter().map(|l| l.tile.terms()).sum();
    let rtl_cycles = sum(&|lp| lp.rtl.cycles);
    let accel_ms = per_pass_ms(&["accel.serial", "accel.bitpar", "accel.fixed", "accel.edt"]);
    let (serial_ms, bitpar_ms, fixed_ms) = (
        per_pass_ms(&["accel.serial"]),
        per_pass_ms(&["accel.bitpar"]),
        per_pass_ms(&["accel.fixed"]),
    );
    let rtl_ms = per_pass_ms(&["rtlsim.mvm"]);
    let energy: f64 = p
        .layers
        .iter()
        .zip(reference)
        .map(|(l, lp)| {
            sc_accel::report::report(
                &l.geometry,
                &Tiling::default(),
                precision(),
                AccelArithmetic::ProposedSerial,
                &lp.serial,
            )
            .energy_uj
        })
        .sum();
    let delta = |i: usize| median(&deltas.iter().map(|d| d[i] as f64).collect::<Vec<_>>());
    let n = alt.traced_ms.len();
    let per_pass = format!("calibrated, median per pass, n={n}");
    out.result = vec![
        Metric::new("accel.serial_ms", serial_ms, "ms", per_pass.clone()),
        Metric::new("accel.bitpar_ms", bitpar_ms, "ms", per_pass.clone()),
        Metric::new("accel.fixed_ms", fixed_ms, "ms", per_pass.clone()),
        Metric::new("accel.edt_ms", per_pass_ms(&["accel.edt"]), "ms", "tiers 6 and 4, ".to_string() + &per_pass),
        Metric::new(
            "accel.ns_per_tile",
            accel_ms * 1e6 / tiles_per_pass as f64,
            "ns",
            format!("base: {tiles_per_pass} tiles per pass"),
        ),
        Metric::new(
            "accel.host_ns_per_model_cycle.serial",
            serial_ms * 1e6 / cycles_serial as f64,
            "ns",
            format!("base: {cycles_serial} cycles"),
        ),
        Metric::new(
            "accel.host_ns_per_model_cycle.bitpar",
            bitpar_ms * 1e6 / cycles_bitpar as f64,
            "ns",
            format!("base: {cycles_bitpar} cycles"),
        ),
        Metric::new(
            "accel.host_ns_per_model_cycle.fixed",
            fixed_ms * 1e6 / cycles_fixed as f64,
            "ns",
            format!("base: {cycles_fixed} cycles"),
        ),
        Metric::new("accel.tiles", delta(0), "count", "accel.tiles counter, per pass"),
        Metric::new("accel.bitplane_words", delta(1), "count", "accel.bitplane.words counter, per pass"),
        Metric::new("accel.traffic_words", delta(2), "count", "accel.traffic.* counters, per pass"),
        Metric::new("accel.cycles.bitpar", cycles_bitpar as f64, "cycles", "per pass"),
        Metric::new("accel.cycles.fixed", cycles_fixed as f64, "cycles", "per pass"),
        Metric::new("accel.cycles.edt6", sum(&|lp| lp.edt[0].cycles) as f64, "cycles", "per pass"),
        Metric::new("accel.cycles.edt4", sum(&|lp| lp.edt[1].cycles) as f64, "cycles", "per pass"),
        Metric::new("hwmodel.energy_uj", energy, "uJ", "sc_accel::report, ProposedSerial, per pass"),
        Metric::new(
            "core.mvm_ns_per_term",
            per_pass_ms(&["core.mvm"]) * 1e6 / core_terms as f64,
            "ns",
            format!("base: {core_terms} terms per pass"),
        ),
        Metric::new(
            "core.bitpar_mvm_ns_per_term",
            per_pass_ms(&["core.bitpar_mvm"]) * 1e6 / core_terms as f64,
            "ns",
            format!("base: {core_terms} terms per pass"),
        ),
        Metric::new(
            "rtlsim.mvm_ns_per_term",
            rtl_ms * 1e6 / core_terms as f64,
            "ns",
            format!("base: {core_terms} terms per pass"),
        ),
        Metric::new(
            "rtlsim.ns_per_model_cycle",
            rtl_ms * 1e6 / rtl_cycles as f64,
            "ns",
            format!("base: {rtl_cycles} replayed tile cycles per pass"),
        ),
        Metric::new("par.threads", threads.get(), "count", "par.threads gauge: width of the last multi-worker region, 0 when every region ran inline"),
        Metric::new("par.tasks", delta(3), "count", "per pass"),
        Metric::new("par.steals", delta(4), "count", "per pass"),
        Metric::new("par.utilization", median(&util), "ratio", "set by multi-worker regions only"),
        alt.overhead("pass"),
    ];
    out.checks.push(("reference_pass_checks", check_pass(&p.layers, reference, reference) == 0));
    out.digest = digest_pass(&p.layers, reference);
    out
}
