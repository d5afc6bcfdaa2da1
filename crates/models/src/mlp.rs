//! Multi-layer perceptron with exact manual backpropagation.
//!
//! Fully-connected layers with ReLU activations and a softmax cross-entropy
//! head. A zero-hidden-layer [`Mlp`] is softmax (multinomial logistic)
//! regression. Parameters live in one flat buffer so the synchronization
//! strategies can treat the gradient as a plain `&[f32]`.

use marsit_datagen::Dataset;
use marsit_tensor::gemm::{matmul_into, matmul_nt_into, matmul_tn_into};
use marsit_tensor::rng::FastRng;
use marsit_tensor::Tensor;

use crate::model::{Evaluation, Model};

/// Architecture description for an [`Mlp`].
///
/// # Examples
///
/// ```
/// use marsit_models::MlpSpec;
///
/// let spec = MlpSpec::new(64, vec![32], 10);
/// // (64*32 + 32) + (32*10 + 10)
/// assert_eq!(spec.num_params(), 2410);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlpSpec {
    input_dim: usize,
    hidden: Vec<usize>,
    output_dim: usize,
}

impl MlpSpec {
    /// Creates a spec; `hidden` may be empty (softmax regression).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new(input_dim: usize, hidden: Vec<usize>, output_dim: usize) -> Self {
        assert!(input_dim > 0 && output_dim > 0, "dims must be positive");
        assert!(
            hidden.iter().all(|&h| h > 0),
            "hidden dims must be positive"
        );
        Self {
            input_dim,
            hidden,
            output_dim,
        }
    }

    /// Input dimensionality.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden layer widths.
    #[must_use]
    pub fn hidden(&self) -> &[usize] {
        &self.hidden
    }

    /// Number of output classes.
    #[must_use]
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// Layer dimension pairs `(in, out)` from input to output.
    #[must_use]
    pub fn layer_dims(&self) -> Vec<(usize, usize)> {
        let mut dims = Vec::with_capacity(self.hidden.len() + 1);
        let mut prev = self.input_dim;
        for &h in &self.hidden {
            dims.push((prev, h));
            prev = h;
        }
        dims.push((prev, self.output_dim));
        dims
    }

    /// Total trainable parameter count `D`.
    #[must_use]
    pub fn num_params(&self) -> usize {
        self.layer_dims().iter().map(|(i, o)| i * o + o).sum()
    }
}

/// A fully-connected network: `input → [hidden ReLU]* → softmax`.
///
/// # Examples
///
/// ```
/// use marsit_models::{Mlp, MlpSpec, Model};
/// use marsit_datagen::synthetic::mnist_like;
///
/// let (train, _) = mnist_like().generate_split(64, 16, 0);
/// let mut model = Mlp::new(MlpSpec::new(64, vec![], 10), 7);
/// let mut grad = vec![0.0; model.num_params()];
/// let loss = model.loss_and_grad(&train, &mut grad);
/// assert!(loss > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    spec: MlpSpec,
    /// Where each layer's `W` and `b` sit in `params`, input to output.
    layers: Vec<Layer>,
    /// Flat parameters: per layer, `W` (in×out row-major) then `b` (out).
    params: Vec<f32>,
    /// L2 regularization strength (0 disables).
    l2_reg: f32,
}

/// One layer's shape and the offsets of its `W` (`fan_in × fan_out`,
/// row-major) and `b` (`fan_out`) blocks in the flat parameter buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Layer {
    fan_in: usize,
    fan_out: usize,
    w: usize,
    b: usize,
}

impl Layer {
    fn weights<'a>(&self, flat: &'a [f32]) -> &'a [f32] {
        &flat[self.w..self.b]
    }

    fn bias<'a>(&self, flat: &'a [f32]) -> &'a [f32] {
        &flat[self.b..self.b + self.fan_out]
    }
}

/// Caller-owned scratch of [`Mlp::loss_and_grad_in`]: every intermediate of
/// one forward/backward pass. Buffers are resized to the batch at hand and
/// fully overwritten, so one workspace serves any model and batch size, what
/// it held before never reaches a result, and a warm one (sized by a previous
/// call on the same shapes) makes the pass allocation-free.
#[derive(Debug, Clone, Default)]
pub struct MlpWorkspace {
    /// Post-ReLU output of each hidden layer (`n × fan_out`), kept for the
    /// backward pass.
    hidden: Vec<Vec<f32>>,
    /// Logits, then softmax probabilities, then `dL/dlogits`.
    logits: Vec<f32>,
    /// Gradients with respect to hidden-layer outputs, used alternately.
    deltas: [Vec<f32>; 2],
    /// `Wᵀ` of the layer being back-propagated through.
    panel: Vec<f32>,
}

impl Mlp {
    /// Creates an MLP with He-style initialization from `seed`.
    #[must_use]
    pub fn new(spec: MlpSpec, seed: u64) -> Self {
        let mut rng = FastRng::new(seed, 0x11117);
        let d = spec.num_params();
        let mut mlp = Self::from_params(spec, vec![0.0; d]);
        for layer in &mlp.layers {
            let std = (2.0 / layer.fan_in as f32).sqrt();
            rng.fill_gaussian(&mut mlp.params[layer.w..layer.b], std);
        }
        mlp
    }

    /// Creates an MLP holding `params` — a buffer laid out as
    /// [`Mlp::params`] returns it — without drawing an initialization.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != spec.num_params()`.
    #[must_use]
    pub fn from_params(spec: MlpSpec, params: Vec<f32>) -> Self {
        assert_eq!(
            params.len(),
            spec.num_params(),
            "parameter dimension mismatch"
        );
        let mut layers = Vec::new();
        let mut offset = 0;
        for (fan_in, fan_out) in spec.layer_dims() {
            layers.push(Layer {
                fan_in,
                fan_out,
                w: offset,
                b: offset + fan_in * fan_out,
            });
            offset += fan_in * fan_out + fan_out;
        }
        Self {
            spec,
            layers,
            params,
            l2_reg: 0.0,
        }
    }

    /// Sets the L2 regularization coefficient (returns `self` for chaining).
    #[must_use]
    pub fn with_l2_reg(mut self, l2: f32) -> Self {
        self.l2_reg = l2;
        self
    }

    /// The architecture spec.
    #[must_use]
    pub fn spec(&self) -> &MlpSpec {
        &self.spec
    }

    /// The flat parameter buffer (what [`Model::read_params`] copies out).
    #[must_use]
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Runs the forward pass on `x` (`n × input_dim`, row-major), leaving
    /// each hidden layer's activations in `ws.hidden` and the logits in
    /// `ws.logits`. Weights are read in place from the flat buffer.
    fn forward(&self, x: &[f32], ws: &mut MlpWorkspace) {
        let n = x.len() / self.spec.input_dim;
        let (last, hidden_layers) = self.layers.split_last().expect("at least one layer");
        ws.hidden.resize_with(hidden_layers.len(), Vec::new);
        let mut input = x;
        for (layer, h) in hidden_layers.iter().zip(&mut ws.hidden) {
            h.resize(n * layer.fan_out, 0.0);
            affine(layer, &self.params, n, input, h);
            for v in h.iter_mut() {
                *v = v.max(0.0);
            }
            input = h;
        }
        ws.logits.resize(n * last.fan_out, 0.0);
        affine(last, &self.params, n, input, &mut ws.logits);
    }

    /// [`Model::loss_and_grad`] with caller-owned scratch: same loss, same
    /// gradient bits, and no allocation once `ws` is warm. `dW` of every
    /// layer is written straight into `grad_out`.
    ///
    /// # Panics
    ///
    /// As [`Model::loss_and_grad`].
    pub fn loss_and_grad_in(
        &self,
        batch: &Dataset,
        grad_out: &mut [f32],
        ws: &mut MlpWorkspace,
    ) -> f64 {
        assert_eq!(
            grad_out.len(),
            self.params.len(),
            "gradient length mismatch"
        );
        assert_eq!(
            batch.dim(),
            self.spec.input_dim,
            "batch dimensionality mismatch"
        );
        let n = batch.len();
        let x = batch.features().as_slice();
        self.forward(x, ws);
        let classes = self.spec.output_dim;
        let loss = softmax_xent(&mut ws.logits, classes, batch.labels());

        // dL/dlogits = (softmax − onehot) / n
        let inv_n = 1.0 / n as f32;
        for (row, &label) in ws.logits.chunks_exact_mut(classes).zip(batch.labels()) {
            row[label] -= 1.0;
            for v in row.iter_mut() {
                *v *= inv_n;
            }
        }

        let MlpWorkspace {
            hidden,
            logits,
            deltas: [delta_a, delta_b],
            panel,
        } = ws;
        // `delta` is the gradient w.r.t. the current layer's output; the
        // three buffers rotate as it moves towards the input.
        let (mut delta, mut next, mut spare) = (logits, delta_a, delta_b);
        for (l, layer) in self.layers.iter().enumerate().rev() {
            let input = if l == 0 { x } else { &hidden[l - 1] };
            // dW = inputᵀ · delta ; db = column-sums of delta.
            matmul_tn_into(
                n,
                layer.fan_in,
                layer.fan_out,
                input,
                delta,
                &mut grad_out[layer.w..layer.b],
            );
            let db = &mut grad_out[layer.b..layer.b + layer.fan_out];
            db.fill(0.0);
            for row in delta.chunks_exact(layer.fan_out) {
                for (o, &d) in db.iter_mut().zip(row) {
                    *o += d;
                }
            }
            if l > 0 {
                // Propagate: d(input) = delta · Wᵀ, gated by ReLU mask. The
                // gate is a select, not a branch: about half the activations
                // are zero, so a branch would mispredict on every other one.
                // A NaN activation keeps its gradient (`NaN <= 0` is false).
                next.resize(n * layer.fan_in, 0.0);
                let w = layer.weights(&self.params);
                matmul_nt_into(n, layer.fan_out, layer.fan_in, delta, w, panel, next);
                for (d, &a) in next.iter_mut().zip(input) {
                    *d = if a <= 0.0 { 0.0 } else { *d };
                }
                (delta, next, spare) = (next, spare, delta);
            }
        }

        if self.l2_reg > 0.0 {
            // Regularize weights only, not biases.
            let mut reg_loss = 0.0f64;
            for layer in &self.layers {
                for (g, &p) in grad_out[layer.w..layer.b]
                    .iter_mut()
                    .zip(layer.weights(&self.params))
                {
                    *g += self.l2_reg * p;
                    reg_loss += 0.5 * f64::from(self.l2_reg) * f64::from(p) * f64::from(p);
                }
            }
            return loss + reg_loss;
        }
        loss
    }
}

/// `z (n × fan_out) = input (n × fan_in) · W + b`, broadcasting the bias
/// over rows.
fn affine(layer: &Layer, params: &[f32], n: usize, input: &[f32], z: &mut [f32]) {
    matmul_into(
        n,
        layer.fan_in,
        layer.fan_out,
        input,
        layer.weights(params),
        z,
    );
    let bias = layer.bias(params);
    for row in z.chunks_exact_mut(layer.fan_out) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// Row-wise softmax of `logits` (`classes` per row), in place, returning the
/// mean cross-entropy against `labels`.
fn softmax_xent(logits: &mut [f32], classes: usize, labels: &[usize]) -> f64 {
    let mut loss = 0.0f64;
    for (row, &label) in logits.chunks_exact_mut(classes).zip(labels) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
        loss -= f64::from(row[label].max(1e-12).ln());
    }
    loss / labels.len() as f64
}

impl Model for Mlp {
    fn num_params(&self) -> usize {
        self.params.len()
    }

    fn read_params(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.params.len(), "parameter length mismatch");
        out.copy_from_slice(&self.params);
    }

    fn write_params(&mut self, params: &[f32]) {
        assert_eq!(params.len(), self.params.len(), "parameter length mismatch");
        self.params.copy_from_slice(params);
    }

    fn loss_and_grad(&self, batch: &Dataset, grad_out: &mut [f32]) -> f64 {
        self.loss_and_grad_in(batch, grad_out, &mut MlpWorkspace::default())
    }

    fn evaluate(&self, data: &Dataset) -> Evaluation {
        let mut ws = MlpWorkspace::default();
        self.forward(data.features().as_slice(), &mut ws);
        let classes = self.spec.output_dim;
        let logits = Tensor::from_vec(data.len(), classes, std::mem::take(&mut ws.logits));
        let correct = (0..data.len())
            .filter(|&r| logits.argmax_row(r) == data.labels()[r])
            .count();
        let loss = softmax_xent(&mut logits.into_vec(), classes, data.labels());
        Evaluation {
            loss,
            accuracy: correct as f64 / data.len() as f64,
        }
    }

    fn apply_update(&mut self, update: &[f32]) {
        assert_eq!(update.len(), self.params.len(), "update length mismatch");
        for (x, &u) in self.params.iter_mut().zip(update) {
            *x -= u;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marsit_datagen::synthetic::mnist_like;

    fn small_batch() -> Dataset {
        mnist_like().generate(16, 3, 0)
    }

    #[test]
    fn spec_param_count() {
        let spec = MlpSpec::new(10, vec![8, 4], 3);
        assert_eq!(spec.num_params(), 10 * 8 + 8 + 8 * 4 + 4 + 4 * 3 + 3);
    }

    #[test]
    fn init_is_deterministic() {
        let spec = MlpSpec::new(64, vec![16], 10);
        let a = Mlp::new(spec.clone(), 5);
        let b = Mlp::new(spec, 5);
        assert_eq!(a.params_vec(), b.params_vec());
    }

    #[test]
    fn params_round_trip() {
        let mut m = Mlp::new(MlpSpec::new(64, vec![], 10), 1);
        let mut p = m.params_vec();
        p[0] = 123.0;
        m.write_params(&p);
        assert_eq!(m.params_vec()[0], 123.0);
    }

    /// Finite-difference check: the analytic gradient must match numerical
    /// differentiation of the loss. This validates the entire backprop chain.
    #[test]
    fn gradient_matches_finite_differences() {
        let batch = small_batch();
        for hidden in [vec![], vec![12], vec![10, 7]] {
            let mut model = Mlp::new(MlpSpec::new(64, hidden, 10), 9).with_l2_reg(0.01);
            let d = model.num_params();
            let mut grad = vec![0.0; d];
            model.loss_and_grad(&batch, &mut grad);
            let base = model.params_vec();
            let eps = 1e-3f32;
            let mut rng = FastRng::new(4, 0);
            // Check a random subset of coordinates.
            for _ in 0..30 {
                let i = rng.next_range(d as u64) as usize;
                let mut p = base.clone();
                p[i] += eps;
                model.write_params(&p);
                let mut tmp = vec![0.0; d];
                let lp = model.loss_and_grad(&batch, &mut tmp);
                p[i] -= 2.0 * eps;
                model.write_params(&p);
                let lm = model.loss_and_grad(&batch, &mut tmp);
                model.write_params(&base);
                let numeric = (lp - lm) / (2.0 * f64::from(eps));
                let analytic = f64::from(grad[i]);
                assert!(
                    (numeric - analytic).abs() < 2e-2 * (1.0 + analytic.abs()),
                    "coord {i}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn sgd_reduces_loss() {
        let (train, test) = mnist_like().generate_split(512, 256, 11);
        let mut model = Mlp::new(MlpSpec::new(64, vec![32], 10), 2);
        let mut grad = vec![0.0; model.num_params()];
        let before = model.evaluate(&test);
        let mut rng = FastRng::new(0, 0);
        for _ in 0..150 {
            let batch = train.sample_batch(64, &mut rng);
            model.loss_and_grad(&batch, &mut grad);
            let update: Vec<f32> = grad.iter().map(|g| 0.1 * g).collect();
            model.apply_update(&update);
        }
        let after = model.evaluate(&test);
        assert!(
            after.loss < before.loss,
            "{} -> {}",
            before.loss,
            after.loss
        );
        assert!(after.accuracy > 0.7, "accuracy only {}", after.accuracy);
    }

    #[test]
    fn evaluate_random_model_is_chance_level() {
        let data = mnist_like().generate(1000, 8, 0);
        let model = Mlp::new(MlpSpec::new(64, vec![], 10), 3);
        let eval = model.evaluate(&data);
        assert!(eval.accuracy < 0.35, "untrained accuracy {}", eval.accuracy);
        assert!(eval.loss > 1.0);
    }

    #[test]
    fn deterministic_gradients() {
        let batch = small_batch();
        let model = Mlp::new(MlpSpec::new(64, vec![8], 10), 6);
        let mut g1 = vec![0.0; model.num_params()];
        let mut g2 = vec![0.0; model.num_params()];
        let l1 = model.loss_and_grad(&batch, &mut g1);
        let l2 = model.loss_and_grad(&batch, &mut g2);
        assert_eq!(l1, l2);
        assert_eq!(g1, g2);
    }

    #[test]
    #[should_panic(expected = "batch dimensionality mismatch")]
    fn wrong_input_dim_panics() {
        let model = Mlp::new(MlpSpec::new(32, vec![], 10), 0);
        let batch = small_batch(); // 64-dimensional
        let mut g = vec![0.0; model.num_params()];
        let _ = model.loss_and_grad(&batch, &mut g);
    }
}
