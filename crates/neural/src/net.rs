//! The sequential network container.

use crate::layers::{Conv2d, ConvMode, LayerKind};
use crate::tensor::Tensor;

/// A sequential CNN.
#[derive(Debug, Clone)]
pub struct Network {
    layers: Vec<LayerKind>,
}

impl Network {
    /// Creates a network from layers.
    pub fn new(layers: Vec<LayerKind>) -> Self {
        Network { layers }
    }

    /// The layers (immutable).
    pub fn layers(&self) -> &[LayerKind] {
        &self.layers
    }

    /// Mutable access to the layers (parameter loading).
    pub fn layers_mut(&mut self) -> &mut [LayerKind] {
        &mut self.layers
    }

    /// Forward pass through all layers.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        x
    }

    /// Backward pass (call after `forward`); accumulates parameter
    /// gradients.
    pub fn backward(&mut self, grad_logits: &Tensor) {
        let mut g = grad_logits.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
    }

    /// SGD-with-momentum update on all parameters, averaging accumulated
    /// gradients over `batch` samples.
    pub fn step(&mut self, lr: f32, momentum: f32, weight_decay: f32, batch: usize) {
        for layer in &mut self.layers {
            layer.step(lr, momentum, weight_decay, batch);
        }
    }

    /// Clears all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Predicted class for one input.
    pub fn predict(&mut self, input: &Tensor) -> usize {
        self.forward(input).argmax()
    }

    /// Applies an arithmetic mode to **all convolution layers** (the other
    /// layers always run in float, per paper Sec. 3.3).
    pub fn set_conv_mode(&mut self, mode: &ConvMode) {
        for layer in &mut self.layers {
            if let LayerKind::Conv(c) = layer {
                c.set_mode(mode.clone());
            }
        }
    }

    /// Enables (or disables) transient-fault injection in every conv
    /// layer's quantized MAC chain — see [`crate::fault`].
    pub fn set_fault(&mut self, fault: Option<crate::fault::FaultModel>) {
        for layer in &mut self.layers {
            if let LayerKind::Conv(c) = layer {
                c.set_fault(fault);
            }
        }
    }

    /// Iterates over the convolution layers.
    pub fn conv_layers(&self) -> impl Iterator<Item = &Conv2d> {
        self.layers.iter().filter_map(|l| match l {
            LayerKind::Conv(c) => Some(c),
            _ => None,
        })
    }

    /// All convolution weights flattened (for the weight-magnitude /
    /// latency statistics of Fig. 7).
    pub fn conv_weights(&self) -> Vec<f32> {
        self.conv_layers().flat_map(|c| c.weights().iter().copied()).collect()
    }

    /// Calibrates each conv layer's activation `io_scale` to the smallest
    /// power of two covering the 99th-percentile absolute activation
    /// entering and leaving it on the given calibration inputs (run in
    /// float). This is the generalization of the paper's fixed ×128
    /// scaling for CIFAR-10 ("so that the values **mostly** come in the
    /// [-1,1] range" — outliers clip at quantization / saturate in the
    /// accumulator, exactly as in the paper's hardware).
    pub fn calibrate_io_scales(&mut self, inputs: &[Tensor]) {
        // Gather |activation| samples at each conv layer boundary.
        let n_layers = self.layers.len();
        let mut samples: Vec<Vec<f32>> = vec![Vec::new(); n_layers];
        for input in inputs {
            let mut x = input.clone();
            for (i, layer) in self.layers.iter_mut().enumerate() {
                if matches!(layer, LayerKind::Conv(_)) {
                    samples[i].extend(x.data().iter().map(|v| v.abs()));
                }
                x = layer.forward(&x);
                if matches!(layer, LayerKind::Conv(_)) {
                    samples[i].extend(x.data().iter().map(|v| v.abs()));
                }
            }
        }
        for (layer, s) in self.layers.iter_mut().zip(&mut samples) {
            if let LayerKind::Conv(c) = layer {
                let m = percentile_99(s);
                let scale = if m <= 1.0 { 1.0 } else { 2f32.powi(m.log2().ceil() as i32) };
                c.set_io_scale(scale);
            }
        }
    }
}

/// 99th percentile of a sample vector (reordered in place; 0 for
/// empty): the element a full sort would put at that rank. Samples are
/// absolute values, so elements that compare equal are bitwise equal
/// (there is no `-0.0`), and selecting the rank returns the same bits.
fn percentile_99(samples: &mut [f32]) -> f32 {
    if samples.is_empty() {
        return 0.0;
    }
    let idx = ((samples.len() - 1) as f64 * 0.99) as usize;
    *samples.select_nth_unstable_by(idx, |a, b| a.partial_cmp(b).expect("no NaN activations")).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, MaxPool2d, Relu};
    use crate::loss::softmax_cross_entropy;
    use crate::zoo::InitRng;

    fn tiny_net() -> Network {
        let mut rng = InitRng::new(11);
        Network::new(vec![
            LayerKind::Conv(Conv2d::new(1, 2, 3, 1, 1, &mut rng)),
            LayerKind::Relu(Relu::new()),
            LayerKind::MaxPool(MaxPool2d::new(2, 2)),
            LayerKind::Dense(Dense::new(2 * 2 * 2, 3, &mut rng)),
        ])
    }

    #[test]
    fn forward_shape() {
        let mut net = tiny_net();
        let y = net.forward(&Tensor::zeros(&[1, 4, 4]));
        assert_eq!(y.shape(), &[3]);
    }

    #[test]
    fn single_sample_overfits() {
        // A few SGD steps on one sample must drive its loss down.
        let mut net = tiny_net();
        let x = Tensor::new((0..16).map(|i| i as f32 / 16.0).collect(), &[1, 4, 4]);
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..30 {
            let logits = net.forward(&x);
            let (loss, grad) = softmax_cross_entropy(&logits, 1);
            first_loss.get_or_insert(loss);
            last_loss = loss;
            net.backward(&grad);
            net.step(0.1, 0.9, 0.0, 1);
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.3,
            "loss did not drop: {first_loss:?} -> {last_loss}"
        );
        assert_eq!(net.predict(&x), 1);
    }

    #[test]
    fn conv_weights_collected() {
        let net = tiny_net();
        assert_eq!(net.conv_weights().len(), 2 * 3 * 3);
    }

    #[test]
    fn percentile_99_is_the_fully_sorted_rank() {
        for (seed, len) in [(1u64, 1usize), (2, 2), (3, 99), (4, 100), (5, 101), (6, 4097)] {
            // Absolute values of few distinct magnitudes: ties abound.
            let mut rng = InitRng::new(seed);
            let samples: Vec<f32> =
                (0..len).map(|_| (rng.normal() * 4.0).round().abs() / 8.0).collect();
            let mut sorted = samples.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let idx = ((len - 1) as f64 * 0.99) as usize;
            let got = percentile_99(&mut samples.clone());
            assert_eq!(got.to_bits(), sorted[idx].to_bits(), "seed {seed}, {len} samples");
        }
        assert_eq!(percentile_99(&mut []), 0.0);
    }

    #[test]
    fn calibrate_scales_sets_powers_of_two() {
        let mut net = tiny_net();
        let inputs = vec![Tensor::new(vec![5.0; 16], &[1, 4, 4])];
        net.calibrate_io_scales(&inputs);
        for c in net.conv_layers() {
            let s = c.io_scale();
            assert!(s >= 1.0);
            assert_eq!(s.log2().fract(), 0.0, "scale {s} not a power of two");
        }
    }
}
