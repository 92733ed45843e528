//! `NeuralBackend` answers and bills from one forward pass, and agrees
//! with the network it wraps.
//!
//! One `#[test]` only: the pass count is read from the process-global
//! `par.tasks` counter, which no other thread may move meanwhile.

use sc_core::Precision;
use sc_neural::arith::QuantArith;
use sc_neural::layers::ConvMode;
use sc_neural::tensor::Tensor;
use sc_serve::{Backend, NeuralBackend};
use sc_telemetry::metrics::{counter, set_enabled};
use sc_telemetry::{LayerProfile, TileProfile};

const EXTRA_BITS: u32 = 2;
const LANES: usize = 16;
const IMAGES: usize = 3;

/// A deterministic synthetic 1×28×28 image in `[-0.5, 0.5)`.
fn image(seed: usize) -> Tensor {
    let data = (0..28 * 28).map(|i| ((i * 37 + seed * 101) % 97) as f32 / 97.0 - 0.5).collect();
    Tensor::new(data, &[1, 28, 28])
}

#[test]
fn one_pass_answers_and_bills_every_tier() {
    let n = Precision::new(8).unwrap();
    let net = sc_neural::zoo::mnist_net(42);
    let samples: Vec<Tensor> = (0..IMAGES).map(image).collect();
    let mut backend = NeuralBackend::new(net.clone(), n, EXTRA_BITS, LANES, samples.clone());
    let tasks = counter("par.tasks");
    set_enabled(true);
    for tier in [None, Some(6), Some(4)] {
        let s = tier.unwrap_or(n.bits());
        let arith = QuantArith::proposed_sc_edt(n, s).unwrap();
        let mut clone = net.clone();
        clone.set_conv_mode(&ConvMode::Quantized { arith, extra_bits: EXTRA_BITS });
        for (payload, sample) in samples.iter().enumerate() {
            let t0 = tasks.get();
            let reply = backend.serve(payload, tier).unwrap();
            let serve_tasks = tasks.get() - t0;

            let t0 = tasks.get();
            let expected = clone.forward(sample).argmax() as i64;
            let forward_tasks = tasks.get() - t0;
            assert_eq!(reply.outputs, vec![expected], "payload {payload} at {tier:?}");
            assert!(forward_tasks > 0, "the conv layers run on the pool");
            assert_eq!(serve_tasks, forward_tasks, "payload {payload} at {tier:?}: one pass");

            let (logits, bill) = clone.forward_with_sc_cycles(sample, n, tier, LANES).unwrap();
            assert_eq!(logits.argmax() as i64, expected);
            assert_eq!(reply.cycles, bill.iter().map(|&(_, c)| c).sum::<u64>());
            let billed: Vec<LayerProfile> = bill
                .iter()
                .map(|&(idx, c)| LayerProfile {
                    name: format!("conv{idx}"),
                    tiles: vec![TileProfile { compute: c, ..TileProfile::default() }],
                })
                .collect();
            assert_eq!(reply.profile.layers, billed, "payload {payload} at {tier:?}");
        }
    }
    set_enabled(false);
}
