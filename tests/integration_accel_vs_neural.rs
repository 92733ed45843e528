//! Cross-crate integration: the tiled accelerator (`sc-accel`) and the
//! neural framework's quantized convolution (`sc-neural`) implement the
//! same arithmetic — their outputs must agree exactly on a real trained
//! layer, and on every conv layer of the zoo nets.

use scnn::accel::engine::{AccelArithmetic, TileEngine};
use scnn::accel::layer::{ConvGeometry, Tiling};
use scnn::core::Precision;
use scnn::neural::arith::QuantArith;
use scnn::neural::layers::{Conv2d, ConvMode, LayerKind};
use scnn::neural::net::Network;
use scnn::neural::tensor::Tensor;
use scnn::neural::zoo::{self, InitRng};

#[test]
fn accelerator_matches_neural_quantized_conv() {
    let n = Precision::new(8).unwrap();
    let g = ConvGeometry { z: 2, in_h: 10, in_w: 10, m: 4, k: 5, stride: 1 };

    // A conv layer with realistic weights (unpadded, like the MNIST-like
    // net's layers), bias zeroed so the MAC-array outputs compare
    // directly.
    let mut conv = Conv2d::new(g.z, g.m, g.k, 1, 0, &mut InitRng::new(9));
    conv.set_bias(vec![0.0; g.m]);
    conv.set_mode(ConvMode::Quantized { arith: QuantArith::proposed_sc(n), extra_bits: 2 });

    let input = Tensor::new(
        (0..g.z * g.in_h * g.in_w).map(|i| ((i % 53) as f32 / 53.0) - 0.4).collect(),
        &[g.z, g.in_h, g.in_w],
    );
    let neural_out = conv.forward(&input);

    // Same data through the accelerator: quantize exactly as the conv
    // layer does, then compare counter-for-counter.
    let xq: Vec<i32> = input.data().iter().map(|&v| scnn::fixed::quantize(v, n)).collect();
    let wq: Vec<i32> = conv.weights().iter().map(|&v| scnn::fixed::quantize(v, n)).collect();
    let engine =
        TileEngine::new(n, Tiling { t_m: 3, t_r: 2, t_c: 4 }, AccelArithmetic::ProposedSerial, 2);
    let run = engine.run_layer(&g, &xq, &wq).unwrap();

    let half = n.half_scale() as f32;
    assert_eq!(run.outputs.len(), neural_out.len());
    for (i, (&counter, &y)) in run.outputs.iter().zip(neural_out.data()).enumerate() {
        let accel_value = counter as f32 / half;
        assert!((accel_value - y).abs() < 1e-6, "output {i}: accel {accel_value} vs neural {y}");
    }

    // And the data-dependent latency is far below conventional SC's
    // d·2^N per tile.
    let conv_sc_cycles = g.macs() / (3 * 2 * 4).min(g.m * g.r() * g.c()) as u64 * 256;
    assert!(run.cycles < conv_sc_cycles / 2, "{} vs {}", run.cycles, conv_sc_cycles);
}

#[test]
fn accelerator_matches_neural_fixed_conv() {
    let n = Precision::new(7).unwrap();
    let g = ConvGeometry { z: 1, in_h: 8, in_w: 8, m: 3, k: 3, stride: 1 };
    let mut conv = Conv2d::new(g.z, g.m, g.k, 1, 0, &mut InitRng::new(4));
    conv.set_bias(vec![0.0; g.m]);
    conv.set_mode(ConvMode::Quantized { arith: QuantArith::fixed(n), extra_bits: 2 });

    let input = Tensor::new((0..64).map(|i| ((i % 31) as f32 / 31.0) - 0.5).collect(), &[1, 8, 8]);
    let neural_out = conv.forward(&input);

    let xq: Vec<i32> = input.data().iter().map(|&v| scnn::fixed::quantize(v, n)).collect();
    let wq: Vec<i32> = conv.weights().iter().map(|&v| scnn::fixed::quantize(v, n)).collect();
    let engine = TileEngine::new(n, Tiling::default(), AccelArithmetic::Fixed, 2);
    let run = engine.run_layer(&g, &xq, &wq).unwrap();

    let half = n.half_scale() as f32;
    for (&counter, &y) in run.outputs.iter().zip(neural_out.data()) {
        assert!((counter as f32 / half - y).abs() < 1e-6);
    }
}

/// Walks every conv layer of `net` (bias 0, `io_scale` 1) over a
/// synthetic image of `shape`, for N ∈ 4..=8 and each serving tier
/// {None, 6, 4, 2} up to N. Under `proposed_sc_edt(N, s)`, each layer's
/// outputs times `2^(N−1)` must equal the tile engine's counters on the
/// layer's hand-padded codes at the same tier.
fn every_conv_layer_matches_the_engine(net: &Network, shape: &[usize]) {
    let len: usize = shape.iter().product();
    let image = Tensor::new((0..len).map(|i| ((i % 89) as f32 / 89.0) - 0.45).collect(), shape);
    for bits in 4..=8 {
        let n = Precision::new(bits).unwrap();
        let half = n.half_scale() as f32;
        let engine = TileEngine::new(n, Tiling::default(), AccelArithmetic::ProposedSerial, 2);
        for tier in [None, Some(6), Some(4), Some(2)].into_iter().filter(|s| s.unwrap_or(0) <= bits)
        {
            let arith = QuantArith::proposed_sc_edt(n, tier.unwrap_or(bits)).unwrap();
            let mut net = net.clone();
            net.set_conv_mode(&ConvMode::Quantized { arith, extra_bits: 2 });
            let mut x = image.clone();
            for (idx, layer) in net.layers_mut().iter_mut().enumerate() {
                let LayerKind::Conv(conv) = layer else {
                    x = layer.forward(&x);
                    continue;
                };
                conv.set_bias(vec![0.0; conv.bias().len()]);
                conv.set_io_scale(1.0);
                let (k, stride, pad) = conv.window();
                let (z, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2]);
                let g = ConvGeometry {
                    z,
                    in_h: h + 2 * pad,
                    in_w: w + 2 * pad,
                    m: conv.bias().len(),
                    k,
                    stride,
                };
                let mut padded = vec![0i32; z * g.in_h * g.in_w];
                for (i, &v) in x.data().iter().enumerate() {
                    let (zz, y, xx) = (i / (h * w), i / w % h, i % w);
                    padded[(zz * g.in_h + y + pad) * g.in_w + xx + pad] =
                        scnn::fixed::quantize(v, n);
                }
                let wq = scnn::fixed::quantize_slice(conv.weights(), n);
                let run = engine.run_layer_at(&g, &padded, &wq, tier).unwrap();
                x = conv.forward(&x);
                let neural: Vec<i64> =
                    x.data().iter().map(|&y| (y * half).round() as i64).collect();
                assert_eq!(neural, run.outputs, "conv{idx} {g:?} N={bits} tier {tier:?}");
            }
        }
    }
}

#[test]
fn fig6_conv_layers_match_the_engine() {
    every_conv_layer_matches_the_engine(&zoo::mnist_net(42), &[1, 28, 28]);
    every_conv_layer_matches_the_engine(&zoo::cifar_net(42), &[3, 32, 32]);
}

#[test]
#[ignore = "full-size zoo layers; a release pass"]
fn full_size_conv_layers_match_the_engine() {
    every_conv_layer_matches_the_engine(&zoo::mnist_net_full(42), &[1, 28, 28]);
    every_conv_layer_matches_the_engine(&zoo::cifar_net_full(42), &[3, 32, 32]);
}
