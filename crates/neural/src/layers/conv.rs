//! The 2D convolution layer — the layer the paper accelerates, with
//! float / fixed-point / conventional-SC / proposed-SC arithmetic modes.

use crate::arith::QuantArith;
use crate::fault::FaultModel;
use crate::tensor::Tensor;
use std::ops::Range;
use std::sync::Arc;

/// Arithmetic mode of a convolution layer's MAC chain.
#[derive(Debug, Clone, Default)]
pub enum ConvMode {
    /// `f32` reference arithmetic.
    #[default]
    Float,
    /// Quantized arithmetic through a product table, with `extra_bits`
    /// accumulation bits (the paper's `A`, default 2).
    Quantized {
        /// The product table (fixed / proposed SC / conventional SC).
        arith: Arc<QuantArith>,
        /// Accumulator extra bits `A`.
        extra_bits: u32,
    },
}

/// A 2D convolution with square kernels, zero padding and unit dilation.
///
/// In quantized modes, activations are pre-scaled by `1/io_scale` before
/// quantization and the outputs post-scaled by `io_scale` — the paper's
/// "scale the input feature map before/after convolution by 128" for
/// CIFAR-10 generalized to a per-layer power-of-two scale (see
/// [`Conv2d::set_io_scale`]). The bias is added in float after the MAC
/// chain (outside the MAC array, as in the accelerator of Sec. 3.3).
///
/// Backward is always float with straight-through gradients, which is how
/// fixed/SC fine-tuning is done atop Caffe in the paper (Sec. 4.2).
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    /// `[out_c][in_c][k][k]` row-major.
    weights: Vec<f32>,
    bias: Vec<f32>,
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
    vel_w: Vec<f32>,
    vel_b: Vec<f32>,
    mode: ConvMode,
    io_scale: f32,
    fault: Option<FaultModel>,
    fault_epoch: u64,
    cache_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer with He-initialized weights drawn from
    /// the given deterministic stream.
    pub fn new(
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        init: &mut crate::zoo::InitRng,
    ) -> Self {
        let fan_in = in_c * k * k;
        let std = (2.0 / fan_in as f32).sqrt();
        let n = out_c * fan_in;
        let weights = (0..n).map(|_| init.normal() * std).collect();
        Conv2d {
            in_c,
            out_c,
            k,
            stride,
            pad,
            weights,
            bias: vec![0.0; out_c],
            grad_w: vec![0.0; n],
            grad_b: vec![0.0; out_c],
            vel_w: vec![0.0; n],
            vel_b: vec![0.0; out_c],
            mode: ConvMode::Float,
            io_scale: 1.0,
            fault: None,
            fault_epoch: 0,
            cache_input: None,
        }
    }

    /// The sliding window: kernel size `k`, stride and zero padding.
    pub fn window(&self) -> (usize, usize, usize) {
        (self.k, self.stride, self.pad)
    }

    /// Output spatial size for an input of `h × w`.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h + 2 * self.pad - self.k) / self.stride + 1,
            (w + 2 * self.pad - self.k) / self.stride + 1,
        )
    }

    /// Sets the arithmetic mode.
    pub fn set_mode(&mut self, mode: ConvMode) {
        self.mode = mode;
    }

    /// The current arithmetic mode.
    pub fn mode(&self) -> &ConvMode {
        &self.mode
    }

    /// Sets the activation pre/post scale (should be a power of two; the
    /// paper uses 128 for the CIFAR-10 net).
    pub fn set_io_scale(&mut self, s: f32) {
        assert!(s > 0.0);
        self.io_scale = s;
    }

    /// The activation pre/post scale.
    pub fn io_scale(&self) -> f32 {
        self.io_scale
    }

    /// Enables (or disables, with `None`) transient-fault injection in
    /// the quantized MAC chain — see [`crate::fault`]. Has no effect in
    /// float mode.
    pub fn set_fault(&mut self, fault: Option<FaultModel>) {
        self.fault = fault;
    }

    /// Immutable access to the weights (e.g. for latency statistics of the
    /// data-dependent SC-MAC).
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Immutable access to the bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Replaces the weights (parameter loading).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the layer's weight count.
    pub fn set_weights(&mut self, weights: Vec<f32>) {
        assert_eq!(weights.len(), self.weights.len(), "weight count mismatch");
        self.weights = weights;
    }

    /// Replaces the bias vector (parameter loading).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the layer's output channels.
    pub fn set_bias(&mut self, bias: Vec<f32>) {
        assert_eq!(bias.len(), self.bias.len(), "bias count mismatch");
        self.bias = bias;
    }

    /// Number of MAC operations per forward pass for an `h × w` input.
    pub fn macs(&self, h: usize, w: usize) -> u64 {
        let (oh, ow) = self.output_hw(h, w);
        (self.out_c * oh * ow * self.in_c * self.k * self.k) as u64
    }

    /// Forward pass. Input shape `[in_c, h, w]`; output
    /// `[out_c, oh, ow]`.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the layer.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let (h, w) = self.check_input(input);
        self.cache_input = Some(input.clone());
        self.fault_epoch = self.fault_epoch.wrapping_add(1);
        match &self.mode {
            ConvMode::Float => self.forward_float(input, h, w),
            ConvMode::Quantized { arith, extra_bits } => {
                let (arith, extra_bits) = (Arc::clone(arith), *extra_bits);
                self.forward_quantized(input, h, w, &arith, extra_bits)
            }
        }
    }

    fn check_input(&self, input: &Tensor) -> (usize, usize) {
        let s = input.shape();
        assert_eq!(s.len(), 3, "conv input must be CHW");
        assert_eq!(s[0], self.in_c, "channel mismatch");
        (s[1], s[2])
    }

    fn forward_float(&self, input: &Tensor, h: usize, w: usize) -> Tensor {
        let (oh, ow) = self.output_hw(h, w);
        let x = input.data();
        let (k, stride, pad) = (self.k, self.stride, self.pad);
        // Weight-stationary: each plane starts at its bias, then each
        // weight (ic, ky, kx), in that order, is added as one row axpy
        // per output row over the rectangle of outputs whose tap lands
        // inside the input. Every output thus gets the same float adds
        // in the same order as an output-stationary loop over its
        // in-bounds taps. A padded tap adds nothing rather than `w·0`,
        // which would turn a -0.0 sum into +0.0.
        let rows: Vec<Range<usize>> = (0..k).map(|ky| tap_range(ky, pad, stride, h, oh)).collect();
        let cols: Vec<Range<usize>> = (0..k).map(|kx| tap_range(kx, pad, stride, w, ow)).collect();
        // Output channels are independent, so the oc loop runs on the
        // sc-par pool in chunks; each chunk fills a contiguous slab of
        // output planes that the merge below concatenates in chunk
        // order. Per-channel arithmetic is untouched, so results are
        // bitwise identical to the serial loop at any thread count.
        let slabs = sc_par::Pool::global().parallel_chunks(self.out_c, |ocs| {
            let mut slab = vec![0f32; ocs.len() * oh * ow];
            for (slot, oc) in ocs.enumerate() {
                let w_oc = &self.weights[oc * self.in_c * k * k..(oc + 1) * self.in_c * k * k];
                let plane = &mut slab[slot * oh * ow..(slot + 1) * oh * ow];
                plane.fill(self.bias[oc]);
                for ic in 0..self.in_c {
                    let x_ic = &x[ic * h * w..(ic + 1) * h * w];
                    for (tap, &wv) in w_oc[ic * k * k..(ic + 1) * k * k].iter().enumerate() {
                        let (ky, kx) = (tap / k, tap % k);
                        let span = &cols[kx];
                        if span.is_empty() {
                            continue;
                        }
                        for oy in rows[ky].clone() {
                            let x0 = (oy * stride + ky - pad) * w + span.start * stride + kx - pad;
                            let out = &mut plane[oy * ow + span.start..oy * ow + span.end];
                            axpy(out, wv, &x_ic[x0..], stride);
                        }
                    }
                }
            }
            slab
        });
        let mut data = Vec::with_capacity(self.out_c * oh * ow);
        for slab in slabs {
            data.extend(slab);
        }
        Tensor::new(data, &[self.out_c, oh, ow])
    }

    fn forward_quantized(
        &self,
        input: &Tensor,
        h: usize,
        w: usize,
        arith: &QuantArith,
        extra_bits: u32,
    ) -> Tensor {
        let n = arith.precision();
        let half = n.half_scale() as f32;
        let width = n.bits() + extra_bits;
        let acc_max = (1i64 << (width - 1)) - 1;
        let acc_min = -(1i64 << (width - 1));

        // Quantize activations (pre-scaled) and weights once.
        let inv_scale = 1.0 / self.io_scale;
        let xq: Vec<i32> =
            input.data().iter().map(|&v| sc_fixed::quantize(v * inv_scale, n)).collect();
        let wq: Vec<i32> = self.weights.iter().map(|&v| sc_fixed::quantize(v, n)).collect();

        let (oh, ow) = self.output_hw(h, w);
        let k = self.k;
        // MAC-stream position per output channel: SNGs free-run across
        // the whole layer in hardware, so the generator phase advances
        // from product to product *and* from output to output —
        // unconditionally, padded taps included. That makes `mac_index`
        // a closed-form function of position, so each chunk of output
        // channels seeds its stream at `ocs.start * macs_per_oc` and
        // reproduces the serial product sequence exactly at any thread
        // count.
        let macs_per_oc = oh * ow * self.in_c * k * k;
        // Fault injection is deterministic per (seed, forward pass, MAC).
        let fault = self.fault;
        let fault_epoch = self.fault_epoch;
        let slabs = sc_par::Pool::global().parallel_chunks(self.out_c, |ocs| {
            let mut slab = vec![0f32; ocs.len() * oh * ow];
            let mut mac_index = ocs.start * macs_per_oc;
            for (slot, oc) in ocs.enumerate() {
                let w_oc = &wq[oc * self.in_c * k * k..(oc + 1) * self.in_c * k * k];
                let plane = &mut slab[slot * oh * ow..(slot + 1) * oh * ow];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc: i64 = 0;
                        for ic in 0..self.in_c {
                            let w_ic = &w_oc[ic * k * k..(ic + 1) * k * k];
                            let x_ic = &xq[ic * h * w..(ic + 1) * h * w];
                            for ky in 0..k {
                                let iy = (oy * self.stride + ky) as i64 - self.pad as i64;
                                let wrow = &w_ic[ky * k..(ky + 1) * k];
                                for (kx, &wcode) in wrow.iter().enumerate() {
                                    let ix = (ox * self.stride + kx) as i64 - self.pad as i64;
                                    // Zero padding feeds real x = 0 codes into
                                    // the MAC chain (SC products of 0 are not
                                    // exactly 0), faithful to the hardware.
                                    let code =
                                        if iy < 0 || iy >= h as i64 || ix < 0 || ix >= w as i64 {
                                            0
                                        } else {
                                            x_ic[iy as usize * w + ix as usize]
                                        };
                                    let mut prod = arith.product_at(mac_index, wcode, code) as i64;
                                    if let Some(f) = fault {
                                        let idx = fault_epoch
                                            .wrapping_mul(0x5851_F42D_4C95_7F2D)
                                            .wrapping_add(mac_index as u64);
                                        prod = f.perturb(prod, idx, n);
                                    }
                                    acc += prod;
                                    mac_index += 1;
                                    if acc > acc_max {
                                        acc = acc_max;
                                    } else if acc < acc_min {
                                        acc = acc_min;
                                    }
                                }
                            }
                        }
                        plane[oy * ow + ox] = acc as f32 / half * self.io_scale + self.bias[oc];
                    }
                }
            }
            slab
        });
        let mut data = Vec::with_capacity(self.out_c * oh * ow);
        for slab in slabs {
            data.extend(slab);
        }
        Tensor::new(data, &[self.out_c, oh, ow])
    }

    /// Backward pass (always float / straight-through). Accumulates
    /// weight and bias gradients; returns the input gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.cache_input.take().expect("backward before forward");
        let s = input.shape();
        let (h, w) = (s[1], s[2]);
        let (oh, ow) = self.output_hw(h, w);
        assert_eq!(grad_out.shape(), &[self.out_c, oh, ow]);

        let x = input.data();
        let g = grad_out.data();
        let k = self.k;
        let in_c = self.in_c;
        let kk = in_c * k * k;
        let weights = &self.weights;
        // Each chunk of output channels owns a disjoint slice of the
        // weight/bias gradients but scatters into the whole input
        // gradient, so chunks return a private `grad_in` partial next to
        // their gradient fragments. The merge below folds everything in
        // ascending chunk order; the chunk plan is a function of `out_c`
        // alone, so the fold association — and hence the float result —
        // is identical at any thread count.
        let parts = sc_par::Pool::global().parallel_chunks(self.out_c, |ocs| {
            let mut gw = vec![0f32; ocs.len() * kk];
            let mut gb = vec![0f32; ocs.len()];
            let mut gi = vec![0f32; in_c * h * w];
            for (slot, oc) in ocs.enumerate() {
                let w_oc = &weights[oc * kk..(oc + 1) * kk];
                let gw_oc = &mut gw[slot * kk..(slot + 1) * kk];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let gv = g[oc * oh * ow + oy * ow + ox];
                        if gv == 0.0 {
                            continue;
                        }
                        gb[slot] += gv;
                        for ic in 0..in_c {
                            for ky in 0..k {
                                let iy = (oy * self.stride + ky) as i64 - self.pad as i64;
                                if iy < 0 || iy >= h as i64 {
                                    continue;
                                }
                                for kx in 0..k {
                                    let ix = (ox * self.stride + kx) as i64 - self.pad as i64;
                                    if ix < 0 || ix >= w as i64 {
                                        continue;
                                    }
                                    let xi = ic * h * w + iy as usize * w + ix as usize;
                                    let wi = ic * k * k + ky * k + kx;
                                    gw_oc[wi] += gv * x[xi];
                                    gi[xi] += gv * w_oc[wi];
                                }
                            }
                        }
                    }
                }
            }
            (gw, gb, gi)
        });
        let mut grad_in = Tensor::zeros(&[self.in_c, h, w]);
        let gi_out = grad_in.data_mut();
        let mut oc0 = 0usize;
        for (gw, gb, gi) in parts {
            let nocs = gb.len();
            for (i, v) in gw.into_iter().enumerate() {
                self.grad_w[oc0 * kk + i] += v;
            }
            for (slot, v) in gb.into_iter().enumerate() {
                self.grad_b[oc0 + slot] += v;
            }
            for (dst, v) in gi_out.iter_mut().zip(gi) {
                *dst += v;
            }
            oc0 += nocs;
        }
        grad_in
    }

    /// SGD-with-momentum parameter update (gradients averaged over
    /// `batch` samples, then cleared).
    pub fn step(&mut self, lr: f32, momentum: f32, weight_decay: f32, batch: usize) {
        let inv = 1.0 / batch.max(1) as f32;
        // Element-wise gradient clipping keeps long SGD runs stable (a
        // diverging float reference would invalidate every comparison).
        const CLIP: f32 = 1.0;
        for ((w, g), v) in self.weights.iter_mut().zip(&mut self.grad_w).zip(&mut self.vel_w) {
            let grad = (*g * inv).clamp(-CLIP, CLIP) + weight_decay * *w;
            *v = momentum * *v - lr * grad;
            *w += *v;
            *g = 0.0;
        }
        for ((b, g), v) in self.bias.iter_mut().zip(&mut self.grad_b).zip(&mut self.vel_b) {
            *v = momentum * *v - lr * (*g * inv).clamp(-CLIP, CLIP);
            *b += *v;
            *g = 0.0;
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_w.iter_mut().for_each(|g| *g = 0.0);
        self.grad_b.iter_mut().for_each(|g| *g = 0.0);
    }
}

/// `out[i] += w·x[i·stride]` for each `i < out.len()`, in order.
fn axpy(out: &mut [f32], w: f32, x: &[f32], stride: usize) {
    // The unit-stride loop (every zoo net's) vectorizes; `step_by` does
    // not. Both add the same products in the same order.
    if stride == 1 {
        for (y, &xv) in out.iter_mut().zip(x) {
            *y += w * xv;
        }
    } else {
        for (y, &xv) in out.iter_mut().zip(x.iter().step_by(stride)) {
            *y += w * xv;
        }
    }
}

/// The outputs `o < n_out` whose kernel tap `t` lands inside an input of
/// length `n_in`: `0 ≤ o·stride + t − pad < n_in`. Empty when none does.
fn tap_range(t: usize, pad: usize, stride: usize, n_in: usize, n_out: usize) -> Range<usize> {
    let lo = pad.saturating_sub(t).div_ceil(stride);
    let hi = (n_in + pad).checked_sub(t + 1).map_or(0, |last| last / stride + 1).min(n_out);
    lo..hi.max(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::LayerKind;
    use crate::net::Network;
    use crate::zoo::{self, InitRng};
    use sc_core::Precision;

    fn rng() -> InitRng {
        InitRng::new(7)
    }

    /// The output-stationary float forward, kept as the oracle of the
    /// weight-stationary one: each output starts at its bias and adds
    /// its in-bounds taps in (ic, ky, kx) order.
    fn output_stationary_forward(conv: &Conv2d, input: &Tensor) -> Tensor {
        let (h, w) = conv.check_input(input);
        let (oh, ow) = conv.output_hw(h, w);
        let (x, k) = (input.data(), conv.k);
        let mut out = Vec::with_capacity(conv.out_c * oh * ow);
        for oc in 0..conv.out_c {
            let w_oc = &conv.weights[oc * conv.in_c * k * k..(oc + 1) * conv.in_c * k * k];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = conv.bias[oc];
                    for ic in 0..conv.in_c {
                        let w_ic = &w_oc[ic * k * k..(ic + 1) * k * k];
                        let x_ic = &x[ic * h * w..(ic + 1) * h * w];
                        for ky in 0..k {
                            let iy = (oy * conv.stride + ky) as i64 - conv.pad as i64;
                            if iy < 0 || iy >= h as i64 {
                                continue;
                            }
                            let row = &x_ic[iy as usize * w..(iy as usize + 1) * w];
                            for (kx, &wv) in w_ic[ky * k..(ky + 1) * k].iter().enumerate() {
                                let ix = (ox * conv.stride + kx) as i64 - conv.pad as i64;
                                if ix < 0 || ix >= w as i64 {
                                    continue;
                                }
                                acc += wv * row[ix as usize];
                            }
                        }
                    }
                    out.push(acc);
                }
            }
        }
        Tensor::new(out, &[conv.out_c, oh, ow])
    }

    /// Runs `conv.forward` and asserts its output equals the oracle's
    /// bit for bit.
    fn forward_matching_the_oracle(conv: &mut Conv2d, x: &Tensor, case: &str) -> Tensor {
        let want = output_stationary_forward(conv, x);
        let got = conv.forward(x);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(got.shape(), want.shape(), "{case}");
        assert_eq!(bits(&got), bits(&want), "{case}");
        got
    }

    #[test]
    fn float_forward_matches_the_output_stationary_oracle_bit_for_bit() {
        let mut init = rng();
        for (in_c, k) in [(1, 1), (3, 1), (3, 5), (1, 7), (2, 7)] {
            for pad in 0..=3 {
                for stride in 1..=3 {
                    for (h, w) in [(9, 11), (3, 4)] {
                        if h + 2 * pad < k || w + 2 * pad < k {
                            continue;
                        }
                        let mut conv = Conv2d::new(in_c, 3, k, stride, pad, &mut init);
                        // Signed-zero weights, biases and pixels: every
                        // fifth pixel is +0.0, every other seventh -0.0.
                        conv.weights[0] = -0.0;
                        conv.set_bias(vec![-0.0, 0.0, 0.375]);
                        let x: Vec<f32> = (0..in_c * h * w)
                            .map(|i| match i {
                                _ if i % 5 == 0 => 0.0,
                                _ if i % 7 == 0 => -0.0,
                                _ => ((i * 37 % 23) as f32 - 11.0) / 7.0,
                            })
                            .collect();
                        let case = format!("in_c {in_c} k {k} pad {pad} stride {stride} {h}x{w}");
                        let y = forward_matching_the_oracle(
                            &mut conv,
                            &Tensor::new(x, &[in_c, h, w]),
                            &case,
                        );
                        if pad >= k {
                            // The corner output has no in-bounds tap, so it
                            // is its -0.0 bias, sign included.
                            assert_eq!(y.data()[0].to_bits(), (-0.0f32).to_bits(), "{case}");
                        }
                    }
                }
            }
        }
    }

    /// Runs `net` in float over a synthetic image of `shape`, checking
    /// every conv layer (with varied biases, one of them -0.0) against
    /// the oracle.
    fn every_conv_layer_matches_the_oracle(mut net: Network, shape: &[usize]) {
        let len = shape.iter().product();
        let mut x = Tensor::new((0..len).map(|i| ((i % 89) as f32 / 89.0) - 0.45).collect(), shape);
        for (idx, layer) in net.layers_mut().iter_mut().enumerate() {
            x = match layer {
                LayerKind::Conv(conv) => {
                    conv.bias = (0..conv.out_c).map(|i| (i as f32 - 4.0) / 32.0).collect();
                    conv.bias[0] = -0.0;
                    forward_matching_the_oracle(conv, &x, &format!("conv{idx} {shape:?}"))
                }
                other => other.forward(&x),
            };
        }
    }

    #[test]
    #[ignore = "every conv layer of the zoo nets, full-size ones included; a release pass"]
    fn zoo_conv_layers_match_the_output_stationary_oracle_bit_for_bit() {
        every_conv_layer_matches_the_oracle(zoo::mnist_net(42), &[1, 28, 28]);
        every_conv_layer_matches_the_oracle(zoo::cifar_net(42), &[3, 32, 32]);
        every_conv_layer_matches_the_oracle(zoo::mnist_net_full(42), &[1, 28, 28]);
        every_conv_layer_matches_the_oracle(zoo::cifar_net_full(42), &[3, 32, 32]);
    }

    #[test]
    fn float_identity_kernel() {
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng());
        // Force weight = 1, bias = 0.
        conv.weights[0] = 1.0;
        conv.bias[0] = 0.0;
        let x = Tensor::new(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]);
        let y = conv.forward(&x);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn float_known_3x3() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng());
        conv.weights.iter_mut().for_each(|w| *w = 1.0);
        conv.bias[0] = 0.5;
        let x = Tensor::new(vec![1.0; 9], &[1, 3, 3]);
        let y = conv.forward(&x);
        // Center pixel: 9 ones + bias; corner: 4 ones + bias.
        assert_eq!(y.data()[4], 9.5);
        assert_eq!(y.data()[0], 4.5);
    }

    #[test]
    fn quantized_fixed_close_to_float() {
        let n = Precision::new(10).unwrap();
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng());
        // Keep weights inside the representable [-1, 1) range — outside
        // it, quantization clamps (the paper's nets satisfy this too).
        let max = conv.weights.iter().fold(0.0f32, |m, w| m.max(w.abs()));
        conv.weights.iter_mut().for_each(|w| *w *= 0.6 / max);
        let x = Tensor::new((0..2 * 5 * 5).map(|i| (i as f32 / 50.0) - 0.3).collect(), &[2, 5, 5]);
        let y_float = conv.forward(&x);
        conv.set_mode(ConvMode::Quantized { arith: QuantArith::fixed(n), extra_bits: 4 });
        let y_q = conv.forward(&x);
        for (a, b) in y_float.data().iter().zip(y_q.data()) {
            assert!((a - b).abs() < 0.05, "float {a} vs fixed {b}");
        }
    }

    #[test]
    fn quantized_proposed_close_to_float() {
        let n = Precision::new(10).unwrap();
        let mut conv = Conv2d::new(1, 2, 3, 1, 0, &mut rng());
        let x = Tensor::new((0..16).map(|i| (i as f32 / 16.0) - 0.5).collect(), &[1, 4, 4]);
        let y_float = conv.forward(&x);
        conv.set_mode(ConvMode::Quantized { arith: QuantArith::proposed_sc(n), extra_bits: 4 });
        let y_q = conv.forward(&x);
        for (a, b) in y_float.data().iter().zip(y_q.data()) {
            assert!((a - b).abs() < 0.08, "float {a} vs proposed {b}");
        }
    }

    #[test]
    fn io_scale_rescues_large_activations() {
        let n = Precision::new(8).unwrap();
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng());
        conv.weights[0] = 0.5;
        conv.bias[0] = 0.0;
        let x = Tensor::new(vec![3.0], &[1, 1, 1]); // outside [-1, 1)!
        conv.set_mode(ConvMode::Quantized { arith: QuantArith::fixed(n), extra_bits: 2 });
        let clipped = conv.forward(&x).data()[0];
        assert!((clipped - 1.5).abs() > 0.2, "should clip without scaling: {clipped}");
        conv.set_io_scale(4.0);
        let scaled = conv.forward(&x).data()[0];
        assert!((scaled - 1.5).abs() < 0.05, "io_scale should recover: {scaled}");
    }

    #[test]
    fn gradient_check_weights() {
        // Numerical vs analytic gradient on a tiny conv.
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, &mut rng());
        let x = Tensor::new(vec![0.5, -0.3, 0.8, 0.1, -0.6, 0.4, 0.2, 0.9, -0.2], &[1, 3, 3]);
        let loss = |c: &mut Conv2d, x: &Tensor| -> f32 { c.forward(x).data().iter().sum() };
        let base_w = conv.weights.clone();
        // Analytic.
        conv.forward(&x);
        let g_ones = Tensor::new(vec![1.0; 4], &[1, 2, 2]);
        let grad_in = conv.backward(&g_ones);
        let analytic_w = conv.grad_w.clone();
        // Numerical.
        let eps = 1e-3;
        for (i, &aw) in analytic_w.iter().enumerate() {
            conv.weights = base_w.clone();
            conv.weights[i] += eps;
            let up = loss(&mut conv, &x);
            conv.weights = base_w.clone();
            conv.weights[i] -= eps;
            let dn = loss(&mut conv, &x);
            let num = (up - dn) / (2.0 * eps);
            assert!((num - aw).abs() < 1e-2, "w[{i}]: num {num} vs {aw}");
        }
        // Input gradient: each input pixel's gradient equals the sum of
        // the weights that touch it; spot-check the center pixel (touched
        // by all four kernel positions).
        let wsum: f32 = base_w.iter().sum();
        assert!((grad_in.data()[4] - wsum).abs() < 1e-5);
    }

    #[test]
    fn step_moves_weights_and_clears_grads() {
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, &mut rng());
        let x = Tensor::new(vec![1.0; 9], &[1, 3, 3]);
        conv.forward(&x);
        conv.backward(&Tensor::new(vec![1.0; 4], &[1, 2, 2]));
        let before = conv.weights.clone();
        conv.step(0.1, 0.0, 0.0, 1);
        assert_ne!(conv.weights, before);
        assert!(conv.grad_w.iter().all(|&g| g == 0.0));
    }
}
