//! `NeuralBackend` answers from one forward pass, agrees with the
//! network it wraps, and bills each conv layer exactly as the tile
//! engine bills that layer run on its hand-padded codes.
//!
//! One `#[test]` only: the pass count is read from the process-global
//! `par.tasks` counter, which no other thread may move meanwhile.

use sc_accel::{AccelArithmetic, ConvGeometry, TileEngine, Tiling};
use sc_core::Precision;
use sc_neural::arith::QuantArith;
use sc_neural::layers::{ConvMode, LayerKind};
use sc_neural::net::Network;
use sc_neural::tensor::Tensor;
use sc_neural::zoo;
use sc_serve::{Backend, NeuralBackend};
use sc_telemetry::metrics::{counter, set_enabled};
use sc_telemetry::LayerProfile;

const EXTRA_BITS: u32 = 2;
const LANES: usize = 16;
const IMAGES: usize = 3;
/// The serve_storm degradation ladder.
const TIERS: [Option<u32>; 4] = [None, Some(6), Some(4), Some(2)];

/// A deterministic synthetic image of `shape` in `[-0.5, 0.5)`.
fn image(shape: &[usize], seed: usize) -> Tensor {
    let len = shape.iter().product();
    let data = (0..len).map(|i| ((i * 37 + seed * 101) % 97) as f32 / 97.0 - 0.5).collect();
    Tensor::new(data, shape)
}

/// Walks `net` over `sample` and runs each conv layer on the tile
/// engine: the codes the layer quantizes, zero-padded by hand, at
/// `tier`. Returns each layer's tiles under its `conv{idx}` name.
fn engine_bills(
    net: &mut Network,
    sample: &Tensor,
    n: Precision,
    tier: Option<u32>,
) -> Vec<LayerProfile> {
    let engine = TileEngine::new(n, Tiling::default(), AccelArithmetic::ProposedSerial, EXTRA_BITS);
    let mut layers = Vec::new();
    let mut x = sample.clone();
    for (idx, layer) in net.layers_mut().iter_mut().enumerate() {
        if let LayerKind::Conv(c) = &*layer {
            let (k, stride, pad) = c.window();
            let (z, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2]);
            let (ph, pw) = (h + 2 * pad, w + 2 * pad);
            let mut padded = vec![0i32; z * ph * pw];
            for (i, &v) in x.data().iter().enumerate() {
                let (zz, y, xx) = (i / (h * w), i / w % h, i % w);
                padded[(zz * ph + y + pad) * pw + xx + pad] =
                    sc_fixed::quantize(v * (1.0 / c.io_scale()), n);
            }
            let weights = sc_fixed::quantize_slice(c.weights(), n);
            let g = ConvGeometry { z, in_h: ph, in_w: pw, m: c.bias().len(), k, stride };
            let run = engine.run_layer_at(&g, &padded, &weights, tier).unwrap();
            layers.push(LayerProfile { name: format!("conv{idx}"), tiles: run.tiles });
        }
        x = layer.forward(&x);
    }
    layers
}

#[test]
fn one_pass_answers_and_bills_every_tier() {
    let n = Precision::new(8).unwrap();
    let tasks = counter("par.tasks");
    set_enabled(true);
    // mnist_net_full's out_c of 20 and 50 spans several T_M groups.
    for (name, net, shape, tiers) in [
        ("mnist", zoo::mnist_net(42), [1, 28, 28], &TIERS[..]),
        ("cifar", zoo::cifar_net(42), [3, 32, 32], &TIERS[..]),
        ("mnist_full", zoo::mnist_net_full(42), [1, 28, 28], &[None][..]),
    ] {
        let samples: Vec<Tensor> = (0..IMAGES).map(|i| image(&shape, i)).collect();
        let mut backend = NeuralBackend::new(net.clone(), n, EXTRA_BITS, LANES, samples.clone());
        // An invalid tier fails before any layer runs.
        assert!(backend.serve(0, Some(0)).is_err(), "{name}");
        assert!(backend.serve(0, Some(n.bits() + 1)).is_err(), "{name}");
        for &tier in tiers {
            let s = tier.unwrap_or(n.bits());
            let arith = QuantArith::proposed_sc_edt(n, s).unwrap();
            let mut clone = net.clone();
            clone.set_conv_mode(&ConvMode::Quantized { arith, extra_bits: EXTRA_BITS });
            for (payload, sample) in samples.iter().enumerate() {
                let case = format!("{name} payload {payload} at {tier:?}");
                let t0 = tasks.get();
                let reply = backend.serve(payload, tier).unwrap();
                let serve_tasks = tasks.get() - t0;

                let t0 = tasks.get();
                let expected = clone.forward(sample).argmax() as i64;
                let forward_tasks = tasks.get() - t0;
                assert_eq!(reply.outputs, vec![expected], "{case}");
                assert!(forward_tasks > 0, "the conv layers run on the pool");
                assert_eq!(serve_tasks, forward_tasks, "{case}: one pass");

                assert_eq!(
                    reply.profile.layers,
                    engine_bills(&mut clone, sample, n, tier),
                    "{case}"
                );
                assert_eq!(reply.cycles, reply.profile.cycles(), "{case}");
            }
        }
    }
    set_enabled(false);
}
