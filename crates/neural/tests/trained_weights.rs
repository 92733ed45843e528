//! Pins every trained parameter bit of both fig6 nets. Each net trains
//! a few float batches, calibrates its activation scales, and then a
//! quantized copy fine-tunes for a few iterations. Reordering the float
//! adds of a forward or backward pass changes the rounding of some
//! parameter, and so the digest; the sign of a zero sum is left to the
//! float conv oracle in `conv.rs`. `cifar_net` covers the padded conv
//! layers that `mnist_net` lacks.

use sc_core::Precision;
use sc_datasets::Dataset;
use sc_neural::arith::QuantArith;
use sc_neural::layers::{ConvMode, LayerKind};
use sc_neural::net::Network;
use sc_neural::train::{fine_tune, sample_tensor, train, TrainConfig};
use sc_neural::zoo;
use sc_telemetry::trace::fnv1a_words;

/// Appends the bits of every weight, bias and conv `io_scale` of `net`.
fn param_words(net: &Network, words: &mut Vec<u64>) {
    for layer in net.layers() {
        match layer {
            LayerKind::Conv(c) => {
                let params = c.weights().iter().chain(c.bias()).copied().chain([c.io_scale()]);
                words.extend(params.map(|v| u64::from(v.to_bits())));
            }
            LayerKind::Dense(d) => {
                let params = d.weights_raw().iter().chain(d.bias_raw());
                words.extend(params.map(|v| u64::from(v.to_bits())));
            }
            _ => {}
        }
    }
}

/// Three float batches of eight, calibration on four images, then two
/// proposed-SC (N = 8, A = 2) fine-tuning iterations of four images.
fn train_then_fine_tune(mut net: Network, data: &Dataset, words: &mut Vec<u64>) {
    let cfg = TrainConfig { epochs: 1, batch_size: 8, seed: 5, ..TrainConfig::default() };
    train(&mut net, data, &cfg);
    let calib: Vec<_> = (0..4).map(|i| sample_tensor(data, i).0).collect();
    net.calibrate_io_scales(&calib);
    param_words(&net, words);
    let n = Precision::new(8).expect("valid precision");
    net.set_conv_mode(&ConvMode::Quantized { arith: QuantArith::proposed_sc(n), extra_bits: 2 });
    fine_tune(&mut net, data, 2, &TrainConfig { batch_size: 4, ..cfg });
    param_words(&net, words);
}

#[test]
fn trained_parameters_are_pinned_bit_for_bit() {
    let mut words = Vec::new();
    train_then_fine_tune(zoo::mnist_net(42), &sc_datasets::mnist_like(24, 3), &mut words);
    train_then_fine_tune(zoo::cifar_net(42), &sc_datasets::cifar_like(24, 3), &mut words);
    assert_eq!(fnv1a_words(&words), 0xcc57_65ac_fb55_4045, "trained parameter digest moved");
}
