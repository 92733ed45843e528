//! `cnn_infer`: closed loop, one caller. A stream of distinct seeded
//! MNIST-like test images is classified one at a time by
//! `Backend::serve(i, None)` on a `NeuralBackend` (N = 8, A = 2, 16
//! lanes) wrapping the fig6 MNIST-like net, trained briefly from the
//! seed. Distinct images keep the backend's `(payload, tier)` memo cold.

use sc_core::Precision;
use sc_neural::arith::QuantArith;
use sc_neural::layers::{ConvMode, LayerKind};
use sc_neural::net::Network;
use sc_neural::tensor::Tensor;
use sc_neural::train::{sample_tensor, train, TrainConfig};
use sc_serve::{Backend, BackendReply, NeuralBackend};
use sc_telemetry::metrics::{counter, gauge};

use std::collections::BTreeMap;

use crate::clock::{Lap, Stamp};
use crate::stats::{median, Digest};
use crate::{
    calibrated, is_traced, repeat_setup, run_ops, trace, Alternating, Config, Metric, Outcome,
    Step, Timing,
};

const N_BITS: u32 = 8;
const EXTRA_BITS: u32 = 2;
const LANES: usize = 16;
/// Training images for the brief set-up training (one epoch).
const TRAIN_IMAGES: usize = 600;
/// Training images the activation scales are calibrated on.
const CALIB_IMAGES: usize = 32;
/// Modelled metrics and the digest rest on exactly this many images,
/// whatever the host speed; the run always serves at least this many.
const MODEL_IMAGES: usize = 400;
/// The traced run's digest rests on this many images.
const TRACED_MODEL_IMAGES: usize = 16;
/// Stream length per second of timed phase: comfortably more images
/// than the host can serve, so the memo stays cold.
const IMAGES_PER_SECOND: f64 = 500.0;
/// Salt separating the test stream from the training set.
const TEST_SALT: u64 = 0x7e57_5eed;
/// The net's initial weights: the model under test is fixed (the
/// fig6 bins' seed); the run seed drives its training data and order
/// and the images it serves.
const INIT_SEED: u64 = 42;

fn precision() -> Precision {
    Precision::new(N_BITS).expect("valid precision")
}

struct Prepared {
    backend: NeuralBackend,
    /// The trained, calibrated net (float mode), for the traced
    /// layer-by-layer re-run.
    net: Network,
    labels: Vec<u8>,
    /// Kept only for the traced run.
    samples: Vec<Tensor>,
}

fn prepare(seed: u64, images: usize, keep_samples: bool) -> Result<Prepared, sc_core::Error> {
    let (train_set, test_set) = trace::span("datasets.gen", || {
        (
            sc_datasets::mnist_like(TRAIN_IMAGES, seed),
            sc_datasets::mnist_like(images + 1, seed ^ TEST_SALT),
        )
    });
    let mut net = sc_neural::zoo::mnist_net(INIT_SEED);
    let tcfg = TrainConfig { epochs: 1, seed, ..TrainConfig::default() };
    trace::span("neural.train", || train(&mut net, &train_set, &tcfg));
    let calib: Vec<Tensor> = (0..CALIB_IMAGES).map(|i| sample_tensor(&train_set, i).0).collect();
    trace::span("neural.calibrate", || net.calibrate_io_scales(&calib));
    let samples: Vec<Tensor> = (0..test_set.len()).map(|i| sample_tensor(&test_set, i).0).collect();
    let labels = test_set.labels().to_vec();
    drop(test_set);
    let kept = if keep_samples { samples.clone() } else { Vec::new() };
    let mut backend = NeuralBackend::new(net.clone(), precision(), EXTRA_BITS, LANES, samples);
    // Payload 0 is the warm-up image: its serve builds the
    // full-precision product table, which every later serve reuses.
    trace::span("backend.warmup", || backend.serve(0, None))?;
    Ok(Prepared { backend, net, labels, samples: kept })
}

fn stream_len(cfg: &Config) -> usize {
    MODEL_IMAGES.max((cfg.seconds.as_secs_f64() * IMAGES_PER_SECOND).ceil() as usize)
}

/// Folds one reply into the digest.
fn digest_reply(d: &mut Digest, image: usize, r: &BackendReply) {
    d.word(image as u64);
    d.signed(&r.outputs);
    d.word(r.cycles);
    for layer in &r.profile.layers {
        d.text(&layer.name);
        d.word(layer.tiles.iter().map(|t| t.cycles()).sum());
    }
}

/// Serves image `i` once, timed, and checks the reply. Returns the
/// serve's host time and the reply when every check passed.
fn serve_checked(backend: &mut NeuralBackend, i: usize) -> Option<(Lap, BackendReply)> {
    let t = Stamp::now();
    let reply = backend.serve(i, None);
    let lap = t.lap();
    let reply = reply.ok()?;
    // Serving the same image again must return an identical reply.
    let again = backend.serve(i, None).ok()?;
    (again == reply && reply.outputs.len() == 1 && reply.cycles > 0).then_some((lap, reply))
}

/// The modelled clock over images `1..=limit`.
struct Model {
    limit: usize,
    images: u64,
    correct: u64,
    cycles: u64,
    digest: Digest,
}

impl Model {
    fn new(limit: usize) -> Model {
        Model { limit, images: 0, correct: 0, cycles: 0, digest: Digest::default() }
    }

    fn add(&mut self, i: usize, label: u8, r: &BackendReply) {
        if i > self.limit {
            return;
        }
        self.images += 1;
        self.correct += u64::from(r.outputs[0] == i64::from(label));
        self.cycles += r.cycles;
        digest_reply(&mut self.digest, i, r);
    }

    fn complete(&self) -> bool {
        self.images == self.limit as u64
    }

    fn finish(&self) -> (f64, f64, u64) {
        let mut d = self.digest;
        d.word(self.images);
        d.word(self.correct);
        d.word(self.cycles);
        let n = self.images.max(1) as f64;
        (self.correct as f64 / n, self.cycles as f64 / n, d.value())
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(cfg: &Config) -> Outcome {
    let images = stream_len(cfg);
    let (mut p, setups) = match repeat_setup(|| prepare(cfg.seed, images, false)) {
        Ok(v) => v,
        Err(e) => return Outcome::setup_failed(e),
    };
    let mut model = Model::new(MODEL_IMAGES);
    let phase = run_ops(cfg.seconds, MODEL_IMAGES as u64, |k| {
        let i = k as usize + 1;
        if i >= p.labels.len() {
            return Step::Exhausted;
        }
        match serve_checked(&mut p.backend, i) {
            Some((lap, reply)) => {
                model.add(i, p.labels[i], &reply);
                Step::Timed(lap)
            }
            None => Step::Failed,
        }
    });
    let mut out =
        Outcome { attempted: phase.attempted, failed: phase.failed, ..Outcome::default() };
    let Some(t) = Timing::of(&setups, &phase) else { return out };
    let (top1, cycles, digest) = model.finish();
    out.checks.push(("modelled_prefix_served", model.complete()));
    out.checks.push(("stream_not_exhausted", phase.attempted as usize + 1 < p.labels.len()));
    out.digest = digest;
    out.result = t.end_to_end(
        "Backend::serve call",
        "data, training, calibration, warm-up",
        cycles,
        &format!("mean BackendReply::cycles per image, base: {} images", model.images),
    );
    let n = t.ops.n;
    out.report = vec![
        Metric::new(
            "images_per_s",
            t.ops_per_s,
            "1/s",
            format!("{n} images per calibrated CPU second of serve time"),
        ),
        Metric::new("image_ms_p50", t.ops.p50, "ms", format!("calibrated CPU, n={n}")),
        Metric::new(
            "image_ms_p90",
            t.ops.p90,
            "ms",
            format!("calibrated CPU, n={n}, {} beyond", t.ops.beyond_p90),
        ),
        Metric::new("top1_acc", top1, "ratio", format!("base: {} images", model.images)),
    ];
    out.report.extend(t.raw());
    out
}

/// The traced run: per-layer metrics. Ops alternate untraced and
/// traced, so `bench.trace_overhead` compares like with like.
pub fn run_traced(cfg: &Config) -> Outcome {
    trace::set_on(true);
    trace::set_op(0);
    let (prepared, setup) = calibrated(0, || prepare(cfg.seed, stream_len(cfg), true));
    trace::set_on(false);
    let mut p = match prepared {
        Ok(p) => p,
        Err(e) => return Outcome::setup_failed(e),
    };
    // The layer-by-layer probe: an identically configured clone of the
    // served net (same weights, scales, and product table kind).
    let arith = match QuantArith::proposed_sc_edt(precision(), N_BITS) {
        Ok(a) => a,
        Err(e) => return Outcome::setup_failed(e),
    };
    let mut probe = p.net.clone();
    probe.set_conv_mode(&ConvMode::Quantized { arith, extra_bits: EXTRA_BITS });

    let (tasks, steals) = (counter("par.tasks"), counter("par.steals"));
    let (threads, utilization) = (gauge("par.threads"), gauge("par.utilization"));
    let (mut par_tasks, mut par_steals, mut par_util, mut par_threads) =
        (0u64, 0u64, Vec::new(), 0.0);
    let mut conv_macs = 0u64;
    let mut model = Model::new(TRACED_MODEL_IMAGES);
    let phase = run_ops(cfg.seconds, TRACED_MODEL_IMAGES as u64, |k| {
        let i = k as usize + 1;
        if i >= p.labels.len() {
            return Step::Exhausted;
        }
        if !is_traced(k, u64::MAX) {
            return match serve_checked(&mut p.backend, i) {
                Some((lap, reply)) => {
                    model.add(i, p.labels[i], &reply);
                    Step::Timed(lap)
                }
                None => Step::Failed,
            };
        }
        sc_telemetry::metrics::set_enabled(true);
        trace::set_on(true);
        trace::set_op(k + 1);
        let (t0, s0) = (tasks.get(), steals.get());
        let t = Stamp::now();
        let served = trace::span("backend.serve", || p.backend.serve(i, None));
        let lap = t.lap();
        par_tasks += tasks.get() - t0;
        par_steals += steals.get() - s0;
        par_util.push(utilization.get());
        par_threads = threads.get();
        // Re-run the image layer by layer through public calls.
        let mut x = p.samples[i].clone();
        for layer in probe.layers_mut() {
            let name = match layer {
                LayerKind::Conv(c) => {
                    conv_macs += c.macs(x.shape()[1], x.shape()[2]);
                    "neural.conv"
                }
                LayerKind::MaxPool(_) | LayerKind::AvgPool(_) => "neural.pool",
                LayerKind::Relu(_) => "neural.relu",
                LayerKind::Dense(_) => "neural.dense",
            };
            x = trace::span(name, || layer.forward(&x));
        }
        trace::set_on(false);
        sc_telemetry::metrics::set_enabled(false);
        match &served {
            Ok(r) if r.outputs == [x.argmax() as i64] => {
                model.add(i, p.labels[i], r);
                Step::Timed(lap)
            }
            _ => Step::Failed,
        }
    });
    let mut out =
        Outcome { attempted: phase.attempted, failed: phase.failed, ..Outcome::default() };
    let alt = Alternating::of(&phase, u64::MAX);

    let spans = trace::spans();
    let setup_ms = |name| trace::total_ns(&spans, name) as f64 / 1e6 * setup.scale;
    const KINDS: [&str; 4] = ["neural.conv", "neural.pool", "neural.relu", "neural.dense"];
    // Per traced image: calibrated serve time and layer-by-layer times.
    let mut per_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut extra = Vec::new();
    let (mut conv_ms, mut forward_ms) = (0.0, 0.0);
    for &op in alt.scale.keys() {
        let kind_ms = |k: &str| {
            alt.ms(op, spans.iter().filter(|s| s.op == op && s.name == k).map(|s| s.ns()).sum())
        };
        let forward: f64 = KINDS.iter().map(|k| kind_ms(k)).sum();
        for k in KINDS {
            per_kind.entry(k).or_default().push(kind_ms(k));
        }
        conv_ms += kind_ms("neural.conv");
        forward_ms += forward;
        extra.push(kind_ms("backend.serve") - forward);
    }
    let kind_ms = |k: &str| per_kind.get(k).map_or(0.0, |v| median(v));
    let n_traced = alt.traced_ms.len();
    let per_image = format!("calibrated, median per image, n={n_traced}");
    out.result = vec![
        Metric::new("datasets.gen_ms", setup_ms("datasets.gen"), "ms", "set-up: training set + test stream"),
        Metric::new("neural.train_ms", setup_ms("neural.train"), "ms", "set-up: one epoch"),
        Metric::new("neural.calibrate_ms", setup_ms("neural.calibrate"), "ms", "set-up"),
        Metric::new("neural.conv_ms", kind_ms("neural.conv"), "ms", per_image.clone()),
        Metric::new("neural.pool_ms", kind_ms("neural.pool"), "ms", per_image.clone()),
        Metric::new("neural.dense_ms", kind_ms("neural.dense"), "ms", per_image.clone()),
        Metric::new("neural.relu_ms", kind_ms("neural.relu"), "ms", per_image),
        Metric::new(
            "neural.conv_ns_per_mac",
            conv_ms * 1e6 / conv_macs.max(1) as f64,
            "ns",
            format!("base: {conv_macs} conv MACs"),
        ),
        Metric::new("neural.conv_share", conv_ms / forward_ms, "ratio", "base: layer-by-layer forward time"),
        Metric::new(
            "backend.arith_build_ms",
            (setup_ms("backend.warmup") - median(&alt.plain_ms)).max(0.0),
            "ms",
            "first serve of the tier minus the median untraced serve",
        ),
        Metric::new(
            "backend.serve_extra_ms",
            median(&extra),
            "ms",
            format!("median serve minus one layer-by-layer forward, n={}", extra.len()),
        ),
        Metric::new("par.threads", par_threads, "count", "par.threads gauge: width of the last multi-worker region, 0 when every region ran inline"),
        Metric::new("par.tasks", par_tasks as f64 / n_traced.max(1) as f64, "count", "per serve call"),
        Metric::new("par.steals", par_steals as f64 / n_traced.max(1) as f64, "count", "per serve call"),
        Metric::new("par.utilization", median(&par_util), "ratio", "set by multi-worker regions only"),
        alt.overhead("serve"),
    ];
    out.checks.push(("traced_prefix_served", model.complete()));
    out.digest = model.finish().2;
    out
}
