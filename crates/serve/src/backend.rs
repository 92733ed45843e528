//! Backends: adapters from the serving layer onto the accelerator and
//! the CNN stack.
//!
//! Both adapters speak the same contract — serve a named payload at an
//! optional degraded precision, report data-dependent SC cycles as the
//! service time — so the server never knows whether it fronts a single
//! convolution layer ([`AccelBackend`]) or a whole network
//! ([`NeuralBackend`]). Both bill conv layers with the tile engine's
//! one cycle model: [`TileEngine::run_layer_at`] bills the layer it
//! computes, [`TileEngine::bill`] a layer sc-neural computes.

use std::collections::BTreeMap;
use std::sync::Arc;

use sc_accel::{AccelArithmetic, ConvGeometry, TileEngine, Tiling};
use sc_core::{Error, Precision};
use sc_neural::arith::QuantArith;
use sc_neural::layers::{ConvMode, LayerKind};
use sc_neural::net::Network;
use sc_neural::tensor::Tensor;
use sc_telemetry::{BackendProfile, LayerProfile};

use crate::server::{Backend, BackendReply};

/// One convolution workload item for the [`AccelBackend`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccelPayload {
    /// Layer geometry.
    pub geometry: ConvGeometry,
    /// Input feature map, `[z][y][x]` row-major codes.
    pub input: Vec<i32>,
    /// Weights, `[m][z][i][j]` row-major codes.
    pub weights: Vec<i32>,
}

/// Serves convolution layers straight from the [`TileEngine`].
///
/// Degraded requests go through
/// [`TileEngine::run_layer_at`] with the tier's effective bits, so the
/// quality/latency trade is exactly the truncated-stream EDT bound.
/// Backend faults arrive through the engine's own `accel.*` injection
/// sites; with a no-degrade fault policy, exhausted tile verification
/// surfaces as [`Error::RetryExhausted`] and feeds the server's retry
/// and breaker ladder.
#[derive(Debug, Clone)]
pub struct AccelBackend {
    engine: TileEngine,
    payloads: Vec<AccelPayload>,
}

impl AccelBackend {
    /// A backend serving `payloads` through `engine`.
    ///
    /// # Panics
    ///
    /// Panics if `payloads` is empty.
    pub fn new(engine: TileEngine, payloads: Vec<AccelPayload>) -> Self {
        assert!(!payloads.is_empty(), "a backend needs at least one payload");
        AccelBackend { engine, payloads }
    }

    /// The payload at `index`.
    pub fn payload(&self, index: usize) -> &AccelPayload {
        &self.payloads[index]
    }
}

impl Backend for AccelBackend {
    fn payloads(&self) -> usize {
        self.payloads.len()
    }

    fn serve(
        &mut self,
        payload: usize,
        effective_bits: Option<u32>,
    ) -> Result<BackendReply, Error> {
        let p = &self.payloads[payload];
        let run = self.engine.run_layer_at(&p.geometry, &p.input, &p.weights, effective_bits)?;
        // Tile totals sum to `run.cycles`, so the server can graft this
        // profile into the request's span tree exactly.
        let profile = BackendProfile::single_layer("conv", run.tiles);
        Ok(BackendReply { outputs: run.outputs, cycles: run.cycles, profile })
    }
}

/// Serves whole-network inference with tier-swapped SC arithmetic.
///
/// The class is the argmax of one sc-neural forward pass under the
/// tier's product table ([`QuantArith::proposed_sc_edt`]). Each conv
/// layer of that pass, named `conv{idx}` after its index in the network,
/// is billed per tile by [`TileEngine::bill`] on the zero-padded plane
/// it sees ([`Tiling::default`], [`AccelArithmetic::ProposedSerial`]).
///
/// Each tier's product table, each `(tier, input shape)` profile and
/// each `(payload, tier)` class are cached after first use — inference
/// and the cycle model are both deterministic, so the caches never
/// change an answer, only the wall-clock cost of re-serving one.
pub struct NeuralBackend {
    net: Network,
    n: Precision,
    extra_bits: u32,
    engine: TileEngine,
    samples: Vec<Tensor>,
    arith: BTreeMap<u32, Arc<QuantArith>>,
    profiles: BTreeMap<(u32, Vec<usize>), BackendProfile>,
    served: BTreeMap<(usize, u32), i64>,
}

impl NeuralBackend {
    /// A backend running `net` at precision `n` (accumulator headroom
    /// `extra_bits`, `lanes`-wide MAC array) over the given input
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty, or if `lanes` is not the default
    /// tiling's 16 lanes, the one array the bill models.
    pub fn new(
        net: Network,
        n: Precision,
        extra_bits: u32,
        lanes: usize,
        samples: Vec<Tensor>,
    ) -> Self {
        assert!(!samples.is_empty(), "a backend needs at least one sample");
        let tiling = Tiling::default();
        assert_eq!(lanes, tiling.lanes(), "the bill models the default tiling");
        NeuralBackend {
            net,
            n,
            extra_bits,
            engine: TileEngine::new(n, tiling, AccelArithmetic::ProposedSerial, extra_bits),
            samples,
            arith: BTreeMap::new(),
            profiles: BTreeMap::new(),
            served: BTreeMap::new(),
        }
    }

    /// The predicted class for `payload` at the given tier (cached) —
    /// what a completed response would carry. Lets a harness score
    /// accuracy-under-degradation without re-running inference.
    pub fn predicted_class(
        &mut self,
        payload: usize,
        effective_bits: Option<u32>,
    ) -> Result<i64, Error> {
        self.serve(payload, effective_bits).map(|r| r.outputs[0])
    }

    /// Classifies `payload` at tier `s` with one forward pass, walking
    /// the layers once, and memoizes the class. The first pass at a
    /// `(tier, input shape)` also bills each conv layer on the input it
    /// sees.
    fn infer(&mut self, payload: usize, s: u32) -> Result<i64, Error> {
        let arith = match self.arith.get(&s) {
            Some(a) => Arc::clone(a),
            None => {
                let a = QuantArith::proposed_sc_edt(self.n, s)?;
                self.arith.insert(s, Arc::clone(&a));
                a
            }
        };
        self.net.set_conv_mode(&ConvMode::Quantized { arith, extra_bits: self.extra_bits });
        let sample = &self.samples[payload];
        let key = (s, sample.shape().to_vec());
        let billed = self.profiles.contains_key(&key);
        let mut layers = Vec::new();
        let mut x = sample.clone();
        for (idx, layer) in self.net.layers_mut().iter_mut().enumerate() {
            if let (LayerKind::Conv(c), false) = (&*layer, billed) {
                let (k, stride, pad) = c.window();
                let (z, h, w) = (x.shape()[0], x.shape()[1] + 2 * pad, x.shape()[2] + 2 * pad);
                let g = ConvGeometry { z, in_h: h, in_w: w, m: c.bias().len(), k, stride };
                let weights: Vec<i32> =
                    c.weights().iter().map(|&v| self.n.quantize_signed(v.into()).code()).collect();
                let tiles = self.engine.bill(&g, &weights, Some(s))?;
                layers.push(LayerProfile { name: format!("conv{idx}"), tiles });
            }
            x = layer.forward(&x);
        }
        if !billed {
            self.profiles.insert(key, BackendProfile { layers });
        }
        let class = x.argmax() as i64;
        self.served.insert((payload, s), class);
        Ok(class)
    }
}

impl Backend for NeuralBackend {
    fn payloads(&self) -> usize {
        self.samples.len()
    }

    fn serve(
        &mut self,
        payload: usize,
        effective_bits: Option<u32>,
    ) -> Result<BackendReply, Error> {
        let s = effective_bits.unwrap_or(self.n.bits());
        let class = match self.served.get(&(payload, s)) {
            Some(&class) => class,
            None => self.infer(payload, s)?,
        };
        let key = (s, self.samples[payload].shape().to_vec());
        let profile =
            self.profiles.get(&key).expect("the first pass at a tier and shape bills it").clone();
        Ok(BackendReply { outputs: vec![class], cycles: profile.cycles(), profile })
    }
}

impl std::fmt::Debug for NeuralBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NeuralBackend")
            .field("n", &self.n)
            .field("samples", &self.samples.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload() -> AccelPayload {
        let geometry = ConvGeometry { z: 2, in_h: 5, in_w: 5, m: 3, k: 3, stride: 1 };
        let input: Vec<i32> = (0..2 * 5 * 5).map(|i| (i % 17) - 8).collect();
        let weights: Vec<i32> = (0..3 * 2 * 3 * 3).map(|i| (i % 31) - 15).collect();
        AccelPayload { geometry, input, weights }
    }

    fn engine() -> TileEngine {
        let n = Precision::new(8).unwrap();
        TileEngine::new(n, Tiling::default(), AccelArithmetic::ProposedSerial, 2)
    }

    #[test]
    fn accel_backend_serves_and_degrades() {
        let mut b = AccelBackend::new(engine(), vec![payload()]);
        let full = b.serve(0, None).unwrap();
        let fast = b.serve(0, Some(4)).unwrap();
        assert_eq!(full.outputs.len(), fast.outputs.len());
        assert!(fast.cycles < full.cycles, "{} !< {}", fast.cycles, full.cycles);
        // The per-tile profile accounts for every service cycle.
        assert_eq!(full.profile.cycles(), full.cycles);
        assert_eq!(fast.profile.cycles(), fast.cycles);
        // Full precision is reproducible.
        assert_eq!(b.serve(0, None).unwrap(), full);
    }

    #[test]
    fn neural_backend_caches_deterministic_results() {
        let net = || {
            use sc_neural::layers::{Conv2d, LayerKind, Relu};
            let mut rng = sc_neural::zoo::InitRng::new(7);
            Network::new(vec![
                LayerKind::Conv(Conv2d::new(1, 4, 3, 1, 1, &mut rng)),
                LayerKind::Relu(Relu::default()),
                LayerKind::Conv(Conv2d::new(4, 10, 6, 1, 0, &mut rng)),
            ])
        };
        let sample = Tensor::new((0..36).map(|i| (i as f32) / 36.0 - 0.5).collect(), &[1, 6, 6]);
        let n = Precision::new(8).unwrap();
        let mut b = NeuralBackend::new(net(), n, 2, 16, vec![sample]);
        let full = b.serve(0, None).unwrap();
        let fast = b.serve(0, Some(3)).unwrap();
        assert_eq!(full.outputs.len(), 1);
        assert!(fast.cycles < full.cycles);
        // One profiled layer per conv layer, summing to the total.
        assert_eq!(full.profile.layers.len(), 2);
        assert_eq!(full.profile.cycles(), full.cycles);
        // Cached and fresh answers agree.
        assert_eq!(b.serve(0, None).unwrap(), full);
        let mut fresh = NeuralBackend::new(
            net(),
            n,
            2,
            16,
            vec![Tensor::new((0..36).map(|i| (i as f32) / 36.0 - 0.5).collect(), &[1, 6, 6])],
        );
        assert_eq!(fresh.serve(0, None).unwrap(), full);
    }
}
