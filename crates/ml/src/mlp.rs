//! A small fully-connected binary classifier.
//!
//! Architecture: `input → [hidden, ReLU]* → 1 logit → sigmoid`.
//! Optimiser: Adam with bias correction; loss: binary cross-entropy.
//! Everything is `f64` and single-threaded.
//!
//! MARIOH is supervised, so every fresh job fits this classifier before
//! it searches, and the fit is most of the job: on P.School at scale 0.5
//! (6.9k examples × 60 epochs, `23 → 64 → 32 → 1`) it was 1.78 s of a
//! 1.91 s job (93%) while the trainer still ran sample by sample. The
//! trainer is therefore batched and allocation-free. Each mini-batch is
//! gathered into one row-major matrix, and all three dense products of a
//! step go through the one kernel [`marioh_kernels::matmul`]: the forward
//! pass `A·W`, the weight gradient `Δᵀ·A`, and backpropagation `W·Δᵀ`
//! (masked by ReLU′).
//!
//! **Bit-identity.** The kernel folds every sum strictly in inner-index
//! order with separate multiply and add, so each weight gradient sums
//! its samples in batch order and each activation sums its inputs in
//! input order — the order of the per-sample loop this trainer
//! replaced. A given seed therefore produces the same weights, bit for
//! bit, and the same model file. The per-sample trainer is kept as the
//! test oracle that checks this (`oracle` in this module's tests).

use crate::optim::Adam;
use marioh_kernels::matmul;
use rand::Rng;

/// Rows per forward block in [`Mlp::predict_rows_with`]: bounds the
/// activation scratch however many rows a caller hands over.
const PREDICT_TILE: usize = 64;

/// One dense layer: `n_in × n_out` weights stored input-major
/// (`wt[k * n_out + o]` links input `k` to output `o`), plus bias. This
/// is the `m` operand of the forward product; training, inference and
/// the Adam state all use this one layout. The model file stores the
/// output-major transpose ([`Mlp::write_to`]).
#[derive(Debug, Clone)]
struct Layer {
    wt: Vec<f64>,
    b: Vec<f64>,
    n_in: usize,
    n_out: usize,
}

impl Layer {
    fn new<R: Rng + ?Sized>(n_in: usize, n_out: usize, rng: &mut R) -> Self {
        // He initialisation (ReLU-friendly), drawn in the file's
        // output-major order.
        let scale = (2.0 / n_in as f64).sqrt();
        let w: Vec<f64> = (0..n_in * n_out)
            .map(|_| rng.gen_range(-1.0..1.0) * scale)
            .collect();
        Layer::from_output_major(&w, vec![0.0; n_out], n_in, n_out)
    }

    /// Builds a layer from `n_in * n_out` output-major weights
    /// (`w[o * n_in + k]`); `n_in` is positive.
    fn from_output_major(w: &[f64], b: Vec<f64>, n_in: usize, n_out: usize) -> Self {
        let mut wt = vec![0.0; n_in * n_out];
        for (o, row) in w.chunks_exact(n_in).enumerate() {
            for (k, &v) in row.iter().enumerate() {
                wt[k * n_out + o] = v;
            }
        }
        Layer { wt, b, n_in, n_out }
    }

    /// The weight from input `k` to output `o`.
    fn weight(&self, o: usize, k: usize) -> f64 {
        self.wt[k * self.n_out + o]
    }

    /// `out = x · W + b` over `n_rows` rows, then ReLU when `relu`. Each
    /// output is the kernel's input-order sum with the bias added last.
    fn forward(&self, x: &[f64], out: &mut [f64], n_rows: usize, relu: bool) {
        matmul(x, &self.wt, out, n_rows, self.n_in, self.n_out);
        for row in out.chunks_exact_mut(self.n_out) {
            for (v, &b) in row.iter_mut().zip(&self.b) {
                *v += b;
                if relu {
                    *v = v.max(0.0);
                }
            }
        }
    }
}

/// Training hyperparameters for [`Mlp::train`].
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// L2 weight decay coefficient (0 disables).
    pub weight_decay: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 60,
            learning_rate: 1e-2,
            batch_size: 64,
            weight_decay: 1e-5,
        }
    }
}

/// Summary statistics returned by [`Mlp::train`].
#[derive(Debug, Clone)]
pub struct TrainStats {
    /// Mean BCE loss of the final epoch.
    pub final_loss: f64,
    /// Training-set accuracy at threshold 0.5 after training.
    pub train_accuracy: f64,
}

/// A binary-classification multi-layer perceptron.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Layer>,
}

/// Reusable activation buffers for [`Mlp::predict_with`] /
/// [`Mlp::predict_rows_with`]. One scratch amortises the per-call
/// allocations of [`Mlp::predict`] over an entire batch.
#[derive(Debug, Default)]
pub struct MlpScratch {
    cur: Vec<f64>,
    next: Vec<f64>,
}

/// Optimiser state and buffers of one [`Mlp::train_with_stop`] call,
/// sized once for a full batch; every step works in prefixes of the
/// buffers.
struct TrainState {
    /// Adam state per layer, parallel to `wt` and `b`.
    adam_w: Vec<Adam>,
    adam_b: Vec<Adam>,
    /// Optimiser steps taken (Adam's 1-based bias-correction counter).
    t: usize,
    /// `acts[l]`: the input of layer `l`, batch-major (`rows × n_in`);
    /// `acts[depth]` holds the logits.
    acts: Vec<Vec<f64>>,
    /// dL/d(pre-activation) of the current layer's outputs,
    /// feature-major (`n_out × rows`).
    delta: Vec<f64>,
    /// The same for the layer below, as backpropagation fills it.
    prev: Vec<f64>,
    /// Weight gradient sums, output-major (`n_out × n_in`).
    grad_t: Vec<f64>,
    /// The scaled, decayed gradient in the weights' input-major layout.
    grad: Vec<f64>,
    /// Bias gradient.
    grad_b: Vec<f64>,
}

impl TrainState {
    fn new(layers: &[Layer], rows: usize) -> Self {
        let widest = layers
            .iter()
            .map(|l| l.n_in.max(l.n_out))
            .max()
            .unwrap_or(0);
        let largest = layers.iter().map(|l| l.wt.len()).max().unwrap_or(0);
        let mut acts = vec![vec![0.0; rows * layers[0].n_in]];
        acts.extend(layers.iter().map(|l| vec![0.0; rows * l.n_out]));
        TrainState {
            adam_w: layers.iter().map(|l| Adam::new(l.wt.len())).collect(),
            adam_b: layers.iter().map(|l| Adam::new(l.b.len())).collect(),
            t: 0,
            acts,
            delta: vec![0.0; rows * widest],
            prev: vec![0.0; rows * widest],
            grad_t: vec![0.0; largest],
            grad: vec![0.0; largest],
            grad_b: vec![0.0; widest],
        }
    }
}

/// Numerically stable sigmoid.
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Binary cross-entropy of probability `p` against label `y`.
#[inline]
fn bce(p: f64, y: f64) -> f64 {
    let eps = 1e-12;
    -(y * (p + eps).ln() + (1.0 - y) * (1.0 - p + eps).ln())
}

impl Mlp {
    /// Creates an MLP with the given hidden layer widths; e.g.
    /// `Mlp::new(23, &[64, 32], rng)` builds `23 → 64 → 32 → 1`.
    pub fn new<R: Rng + ?Sized>(input_dim: usize, hidden: &[usize], rng: &mut R) -> Self {
        assert!(input_dim > 0, "input dimension must be positive");
        assert!(
            hidden.iter().all(|&w| w > 0),
            "hidden widths must be positive"
        );
        let mut dims = Vec::with_capacity(hidden.len() + 2);
        dims.push(input_dim);
        dims.extend_from_slice(hidden);
        dims.push(1);
        let layers = dims
            .windows(2)
            .map(|w| Layer::new(w[0], w[1], rng))
            .collect();
        Mlp { layers }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers[0].n_in
    }

    /// Forwards `n_rows` contiguous rows; leaves one logit per row in
    /// `scratch.cur`.
    fn forward_logits(&self, rows: &[f64], n_rows: usize, scratch: &mut MlpScratch) {
        let depth = self.layers.len();
        for (i, layer) in self.layers.iter().enumerate() {
            scratch.next.resize(n_rows * layer.n_out, 0.0);
            let input = if i == 0 { rows } else { &scratch.cur[..] };
            layer.forward(input, &mut scratch.next, n_rows, i + 1 < depth);
            std::mem::swap(&mut scratch.cur, &mut scratch.next);
        }
    }

    /// Predicted probability that `x` is a positive example.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.predict_with(x, &mut MlpScratch::default())
    }

    /// [`Mlp::predict`] with caller-provided activation buffers — the
    /// one-row case of [`Mlp::predict_rows_with`], zero allocation once
    /// the scratch has grown to the widest layer.
    pub fn predict_with(&self, x: &[f64], scratch: &mut MlpScratch) -> f64 {
        assert_eq!(x.len(), self.input_dim(), "feature dimension mismatch");
        self.forward_logits(x, 1, scratch);
        sigmoid(scratch.cur[0])
    }

    /// Batch prediction.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        let mut scratch = MlpScratch::default();
        xs.iter()
            .map(|x| self.predict_with(x, &mut scratch))
            .collect()
    }

    /// Forwards a whole batch stored as contiguous rows of `input_dim`
    /// values, writing one probability per row into `out`. Row `i` gets
    /// exactly `self.predict(&flat[i*d..(i+1)*d])`: every row's sums are
    /// independent of the rows beside it.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != out.len() * input_dim`.
    pub fn predict_rows(&self, flat: &[f64], out: &mut [f64]) {
        self.predict_rows_with(flat, out, &mut MlpScratch::default());
    }

    /// [`Mlp::predict_rows`] with caller-provided buffers, so multi-tile
    /// callers reuse one scratch across every tile. Rows are forwarded
    /// [`PREDICT_TILE`] at a time through the matrix kernel.
    pub fn predict_rows_with(&self, flat: &[f64], out: &mut [f64], scratch: &mut MlpScratch) {
        let dim = self.input_dim();
        assert_eq!(
            flat.len(),
            out.len() * dim,
            "flat batch length/row count mismatch"
        );
        for (rows, probs) in flat
            .chunks(PREDICT_TILE * dim)
            .zip(out.chunks_mut(PREDICT_TILE))
        {
            self.forward_logits(rows, probs.len(), scratch);
            for (p, &z) in probs.iter_mut().zip(&scratch.cur) {
                *p = sigmoid(z);
            }
        }
    }

    /// Trains with Adam on BCE loss. `rows` holds one example per
    /// `input_dim` values, row-major; `ys` must be 0.0 / 1.0 labels.
    ///
    /// # Panics
    ///
    /// Panics on empty input or dimension mismatch.
    pub fn train<R: Rng + ?Sized>(
        &mut self,
        rows: &[f64],
        ys: &[f64],
        cfg: &TrainConfig,
        rng: &mut R,
    ) -> TrainStats {
        self.train_with_stop(rows, ys, cfg, rng, &mut || false)
    }

    /// Like [`Mlp::train`], but polls `stop` at every epoch boundary and
    /// abandons training early (returning stats for the epochs that ran)
    /// once it reports `true` — the hook long-running services use for
    /// cooperative cancellation. `stop` draws no randomness, so a run
    /// whose hook never fires is bit-identical to [`Mlp::train`].
    /// Nothing is allocated after the buffers are sized for the first
    /// batch.
    pub fn train_with_stop<R: Rng + ?Sized>(
        &mut self,
        rows: &[f64],
        ys: &[f64],
        cfg: &TrainConfig,
        rng: &mut R,
        stop: &mut dyn FnMut() -> bool,
    ) -> TrainStats {
        let n = ys.len();
        assert!(n > 0, "empty training set");
        assert_eq!(
            rows.len(),
            n * self.input_dim(),
            "feature rows/labels length mismatch"
        );

        let mut state = TrainState::new(&self.layers, cfg.batch_size.min(n));
        let mut order: Vec<usize> = (0..n).collect();
        let mut final_loss = 0.0;
        for _epoch in 0..cfg.epochs {
            if stop() {
                break;
            }
            // Fisher–Yates shuffle.
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let mut epoch_loss = 0.0;
            for batch in order.chunks(cfg.batch_size) {
                self.step(&mut state, rows, ys, batch, cfg, &mut epoch_loss);
            }
            final_loss = epoch_loss / n as f64;
        }

        let mut probs = vec![0.0; n];
        self.predict_rows_with(rows, &mut probs, &mut MlpScratch::default());
        let correct = probs
            .iter()
            .zip(ys)
            .filter(|(&p, &y)| (p >= 0.5) == (y >= 0.5))
            .count();
        TrainStats {
            final_loss,
            train_accuracy: correct as f64 / n as f64,
        }
    }

    /// One optimiser step on the examples `batch` (indices into `rows`),
    /// adding each example's loss to `loss` in batch order. Gathers the
    /// rows, forwards them layer by layer, then walks the layers
    /// top-down: the weight gradient `Δᵀ·A`, the bias gradient, and
    /// (above the first layer) `W·Δᵀ` masked by ReLU′ for the layer
    /// below; each layer takes its Adam step once its old weights are no
    /// longer needed.
    fn step(
        &mut self,
        s: &mut TrainState,
        rows: &[f64],
        ys: &[f64],
        batch: &[usize],
        cfg: &TrainConfig,
        loss: &mut f64,
    ) {
        let (dim, depth, m) = (self.input_dim(), self.layers.len(), batch.len());
        s.t += 1;
        for (dst, &i) in s.acts[0].chunks_exact_mut(dim).zip(batch) {
            dst.copy_from_slice(&rows[i * dim..(i + 1) * dim]);
        }
        for (l, layer) in self.layers.iter().enumerate() {
            let (inputs, outputs) = s.acts.split_at_mut(l + 1);
            layer.forward(
                &inputs[l][..m * layer.n_in],
                &mut outputs[0][..m * layer.n_out],
                m,
                l + 1 < depth,
            );
        }
        // Output layer: dL/dlogit = p − y.
        for ((d, &z), &i) in s.delta.iter_mut().zip(&s.acts[depth]).zip(batch) {
            let p = sigmoid(z);
            *loss += bce(p, ys[i]);
            *d = p - ys[i];
        }
        let scale = 1.0 / m as f64;
        for (l, layer) in self.layers.iter_mut().enumerate().rev() {
            let (n_in, n_out) = (layer.n_in, layer.n_out);
            let input = &s.acts[l][..m * n_in];
            let delta = &s.delta[..n_out * m];
            matmul(delta, input, &mut s.grad_t[..n_out * n_in], n_out, m, n_in);
            for (gb, d) in s.grad_b.iter_mut().zip(delta.chunks_exact(m)) {
                let mut sum = 0.0;
                for &v in d {
                    sum += v;
                }
                *gb = sum * scale;
            }
            if l > 0 {
                // δ_prev = W·δ ⊙ ReLU′: `input` is the ReLU output of
                // layer l-1, positive where active.
                let prev = &mut s.prev[..n_in * m];
                matmul(&layer.wt, delta, prev, n_in, n_out, m);
                for (k, p) in prev.chunks_exact_mut(m).enumerate() {
                    for (r, v) in p.iter_mut().enumerate() {
                        // A bit mask, not a branch: ReLU signs are
                        // unpredictable. Zeroed entries are +0.0, as the
                        // per-sample loop wrote.
                        let a = input[r * n_in + k];
                        let keep = u64::from(a <= 0.0).wrapping_sub(1);
                        *v = f64::from_bits(v.to_bits() & keep);
                    }
                }
            }
            let grad = &mut s.grad[..n_in * n_out];
            for (k, g) in grad.chunks_exact_mut(n_out).enumerate() {
                for (o, g) in g.iter_mut().enumerate() {
                    *g = s.grad_t[o * n_in + k] * scale;
                    if cfg.weight_decay > 0.0 {
                        *g += cfg.weight_decay * layer.wt[k * n_out + o];
                    }
                }
            }
            s.adam_w[l].step(&mut layer.wt, grad, cfg.learning_rate, s.t);
            s.adam_b[l].step(&mut layer.b, &s.grad_b[..n_out], cfg.learning_rate, s.t);
            std::mem::swap(&mut s.delta, &mut s.prev);
        }
    }
}

/// The per-sample trainer the batched one replaced, kept verbatim as its
/// test oracle: output-major weights, one forward and backward pass per
/// example with fresh buffers, gradients summed across the batch, then
/// scale, weight decay and Adam.
#[cfg(test)]
mod oracle {
    use super::*;

    /// One dense layer with output-major weights (`w[o * n_in + k]`).
    #[derive(Clone)]
    pub(super) struct Dense {
        pub(super) w: Vec<f64>,
        b: Vec<f64>,
        n_in: usize,
        n_out: usize,
    }

    impl Dense {
        /// `out = W x + b`, each output summed in input order.
        fn forward(&self, x: &[f64]) -> Vec<f64> {
            (0..self.n_out)
                .map(|o| {
                    let mut acc = 0.0;
                    for (w, &xk) in self.w[o * self.n_in..(o + 1) * self.n_in].iter().zip(x) {
                        acc += xk * w;
                    }
                    acc + self.b[o]
                })
                .collect()
        }
    }

    /// The oracle's network: the same weights as an [`Mlp`], stored the
    /// way the model file lists them.
    #[derive(Clone)]
    pub(super) struct Net {
        pub(super) layers: Vec<Dense>,
    }

    impl Net {
        pub(super) fn from_mlp(mlp: &Mlp) -> Self {
            let layers = mlp
                .layers
                .iter()
                .map(|l| Dense {
                    w: (0..l.n_out)
                        .flat_map(|o| (0..l.n_in).map(move |k| l.weight(o, k)))
                        .collect(),
                    b: l.b.clone(),
                    n_in: l.n_in,
                    n_out: l.n_out,
                })
                .collect();
            Net { layers }
        }

        pub(super) fn to_mlp(&self) -> Mlp {
            let layers = self
                .layers
                .iter()
                .map(|d| Layer::from_output_major(&d.w, d.b.clone(), d.n_in, d.n_out))
                .collect();
            Mlp { layers }
        }

        /// Post-activation outputs of every layer (`[0]` is `x`).
        fn activations(&self, x: &[f64]) -> Vec<Vec<f64>> {
            let depth = self.layers.len();
            let mut acts = vec![x.to_vec()];
            for (i, layer) in self.layers.iter().enumerate() {
                let mut out = layer.forward(acts.last().expect("nonempty"));
                if i + 1 < depth {
                    for v in out.iter_mut() {
                        *v = v.max(0.0);
                    }
                }
                acts.push(out);
            }
            acts
        }

        pub(super) fn predict(&self, x: &[f64]) -> f64 {
            sigmoid(self.activations(x)[self.layers.len()][0])
        }

        /// Backpropagates one example; returns its BCE loss and adds
        /// gradients (output-major) into the accumulators.
        pub(super) fn backprop(
            &self,
            x: &[f64],
            y: f64,
            grad_w: &mut [Vec<f64>],
            grad_b: &mut [Vec<f64>],
        ) -> f64 {
            let depth = self.layers.len();
            let activations = self.activations(x);
            let p = sigmoid(activations[depth][0]);
            let loss = bce(p, y);
            // δ for the output layer: dL/dlogit = p − y.
            let mut delta = vec![p - y];
            for li in (0..depth).rev() {
                let layer = &self.layers[li];
                let input = &activations[li];
                for o in 0..layer.n_out {
                    let d = delta[o];
                    if d != 0.0 {
                        let grow = &mut grad_w[li][o * layer.n_in..(o + 1) * layer.n_in];
                        for (g, &inp) in grow.iter_mut().zip(input) {
                            *g += d * inp;
                        }
                    }
                    grad_b[li][o] += delta[o];
                }
                if li == 0 {
                    break;
                }
                // δ_prev = Wᵀ δ ⊙ ReLU'(pre-activation).
                let mut prev = vec![0.0; layer.n_in];
                for (o, &d) in delta.iter().enumerate().take(layer.n_out) {
                    if d == 0.0 {
                        continue;
                    }
                    let row = &layer.w[o * layer.n_in..(o + 1) * layer.n_in];
                    for (p, &w) in prev.iter_mut().zip(row) {
                        *p += d * w;
                    }
                }
                for (p, &a) in prev.iter_mut().zip(&activations[li][..]) {
                    if a <= 0.0 {
                        *p = 0.0;
                    }
                }
                delta = prev;
            }
            loss
        }

        /// The per-sample training loop.
        pub(super) fn train<R: Rng + ?Sized>(
            &mut self,
            xs: &[Vec<f64>],
            ys: &[f64],
            cfg: &TrainConfig,
            rng: &mut R,
        ) -> TrainStats {
            let n = xs.len();
            let mut adam_w: Vec<Adam> = self.layers.iter().map(|l| Adam::new(l.w.len())).collect();
            let mut adam_b: Vec<Adam> = self.layers.iter().map(|l| Adam::new(l.b.len())).collect();
            let mut order: Vec<usize> = (0..n).collect();
            let mut t = 0usize;
            let mut final_loss = 0.0;
            for _epoch in 0..cfg.epochs {
                for i in (1..n).rev() {
                    let j = rng.gen_range(0..=i);
                    order.swap(i, j);
                }
                let mut epoch_loss = 0.0;
                for batch in order.chunks(cfg.batch_size) {
                    t += 1;
                    let mut grad_w: Vec<Vec<f64>> =
                        self.layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
                    let mut grad_b: Vec<Vec<f64>> =
                        self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
                    for &idx in batch {
                        epoch_loss += self.backprop(&xs[idx], ys[idx], &mut grad_w, &mut grad_b);
                    }
                    let scale = 1.0 / batch.len() as f64;
                    for (li, layer) in self.layers.iter_mut().enumerate() {
                        for g in grad_w[li].iter_mut() {
                            *g *= scale;
                        }
                        for g in grad_b[li].iter_mut() {
                            *g *= scale;
                        }
                        if cfg.weight_decay > 0.0 {
                            for (g, &w) in grad_w[li].iter_mut().zip(&layer.w) {
                                *g += cfg.weight_decay * w;
                            }
                        }
                        adam_w[li].step(&mut layer.w, &grad_w[li], cfg.learning_rate, t);
                        adam_b[li].step(&mut layer.b, &grad_b[li], cfg.learning_rate, t);
                    }
                }
                final_loss = epoch_loss / n as f64;
            }
            let correct = xs
                .iter()
                .zip(ys)
                .filter(|(x, &y)| (self.predict(x) >= 0.5) == (y >= 0.5))
                .count();
            TrainStats {
                final_loss,
                train_accuracy: correct as f64 / n as f64,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The batched trainer writes the same model bytes and the same
        /// stats bits as the per-sample oracle, across layer widths that
        /// are and are not multiples of the kernel's vector width, both
        /// feature dimensions, batch sizes with a ragged last batch, and
        /// weight decay on and off.
        #[test]
        fn batched_trainer_is_bit_identical_to_the_per_sample_oracle(
            seed in 0u64..1_000_000,
            thirds in 22usize..30,
        ) {
            // 67..=88 examples: one full batch of 64 and a ragged one,
            // and a ragged last batch of 3.
            let n = 3 * thirds + 1;
            let hiddens: [&[usize]; 4] = [&[], &[5, 3], &[7], &[64, 32]];
            for hidden in hiddens {
                for dim in [13usize, 23] {
                    for batch_size in [1usize, 3, 64] {
                        for weight_decay in [0.0, 1e-5] {
                            let mut rng = StdRng::seed_from_u64(seed);
                            let xs: Vec<Vec<f64>> = (0..n)
                                .map(|_| (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect())
                                .collect();
                            let ys: Vec<f64> =
                                xs.iter().map(|x| f64::from(x[0] + x[1] > 0.0)).collect();
                            let cfg = TrainConfig {
                                epochs: 2,
                                batch_size,
                                weight_decay,
                                ..TrainConfig::default()
                            };
                            let mut mlp = Mlp::new(dim, hidden, &mut rng);
                            let mut net = oracle::Net::from_mlp(&mlp);
                            let mut oracle_rng = rng.clone();
                            let got = mlp.train(&xs.concat(), &ys, &cfg, &mut rng);
                            let want = net.train(&xs, &ys, &cfg, &mut oracle_rng);
                            let case = format!(
                                "hidden {hidden:?} dim {dim} n {n} batch {batch_size} wd {weight_decay}"
                            );
                            prop_assert_eq!(
                                got.final_loss.to_bits(),
                                want.final_loss.to_bits(),
                                "final_loss differs: {}",
                                case
                            );
                            prop_assert_eq!(
                                got.train_accuracy.to_bits(),
                                want.train_accuracy.to_bits(),
                                "train_accuracy differs: {}",
                                case
                            );
                            let (mut a, mut b) = (Vec::new(), Vec::new());
                            mlp.write_to(&mut a).unwrap();
                            net.to_mlp().write_to(&mut b).unwrap();
                            prop_assert!(a == b, "model bytes differ: {}", case);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn train_with_stop_halts_at_an_epoch_boundary_and_never_fires_for_train() {
        let xs: Vec<f64> = (0..16).map(|i| f64::from(i % 2)).collect();
        let ys = xs.clone();
        let cfg = TrainConfig {
            epochs: 50,
            ..TrainConfig::default()
        };
        // Stop after 3 epochs: the hook is polled once per epoch.
        let mut rng = StdRng::seed_from_u64(0);
        let mut mlp = Mlp::new(1, &[4], &mut rng);
        let mut polls = 0u32;
        mlp.train_with_stop(&xs, &ys, &cfg, &mut rng, &mut || {
            polls += 1;
            polls > 3
        });
        assert_eq!(polls, 4, "stopped after the third epoch");

        // A never-firing hook is bit-identical to plain train().
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut a = Mlp::new(1, &[4], &mut rng_a);
        let stats_a = a.train(&xs, &ys, &cfg, &mut rng_a);
        let mut rng_b = StdRng::seed_from_u64(7);
        let mut b = Mlp::new(1, &[4], &mut rng_b);
        let stats_b = b.train_with_stop(&xs, &ys, &cfg, &mut rng_b, &mut || false);
        assert_eq!(stats_a.final_loss, stats_b.final_loss);
        assert_eq!(a.predict(&xs[..1]), b.predict(&xs[..1]));
    }

    #[test]
    fn sigmoid_is_stable_and_correct() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(100.0) > 0.999_999);
        assert!(sigmoid(-100.0) < 1e-6);
        assert!(sigmoid(1000.0).is_finite());
        assert!(sigmoid(-1000.0).is_finite());
    }

    #[test]
    fn learns_a_linearly_separable_problem() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..400 {
            let a: f64 = rng.gen_range(-1.0..1.0);
            let b: f64 = rng.gen_range(-1.0..1.0);
            xs.extend([a, b]);
            ys.push(if a + b > 0.0 { 1.0 } else { 0.0 });
        }
        let mut mlp = Mlp::new(2, &[8], &mut rng);
        let stats = mlp.train(&xs, &ys, &TrainConfig::default(), &mut rng);
        assert!(
            stats.train_accuracy > 0.95,
            "accuracy {}",
            stats.train_accuracy
        );
    }

    #[test]
    fn learns_xor_with_hidden_layer() {
        let mut rng = StdRng::seed_from_u64(1);
        let xs = [0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0];
        let ys = [0.0, 1.0, 1.0, 0.0];
        // Replicate the four points so batches have some size.
        let xs: Vec<f64> = xs.iter().cycle().take(400).copied().collect();
        let ys: Vec<f64> = ys.iter().cycle().take(200).copied().collect();
        let mut mlp = Mlp::new(2, &[16, 8], &mut rng);
        let cfg = TrainConfig {
            epochs: 300,
            learning_rate: 5e-3,
            batch_size: 16,
            weight_decay: 0.0,
        };
        let stats = mlp.train(&xs, &ys, &cfg, &mut rng);
        assert!(
            stats.train_accuracy > 0.99,
            "XOR accuracy {}",
            stats.train_accuracy
        );
    }

    #[test]
    fn scratch_and_batch_paths_match_predict_bitwise() {
        let mut rng = StdRng::seed_from_u64(8);
        let mlp = Mlp::new(6, &[16, 8], &mut rng);
        // More rows than one forward tile, so the tile boundary is covered.
        let xs: Vec<Vec<f64>> = (0..PREDICT_TILE + 40)
            .map(|_| (0..6).map(|_| rng.gen_range(-5.0..5.0)).collect())
            .collect();
        let net = oracle::Net::from_mlp(&mlp);
        let reference: Vec<f64> = xs.iter().map(|x| net.predict(x)).collect();

        let mut scratch = MlpScratch::default();
        let with_scratch: Vec<f64> = xs
            .iter()
            .map(|x| mlp.predict_with(x, &mut scratch))
            .collect();
        assert_eq!(with_scratch, reference);
        assert_eq!(mlp.predict_batch(&xs), reference);

        let flat: Vec<f64> = xs.concat();
        let mut out = vec![0.0; xs.len()];
        mlp.predict_rows(&flat, &mut out);
        assert_eq!(out, reference);
    }

    #[test]
    #[should_panic(expected = "flat batch length/row count mismatch")]
    fn predict_rows_rejects_ragged_batches() {
        let mut rng = StdRng::seed_from_u64(9);
        let mlp = Mlp::new(3, &[], &mut rng);
        let mut out = vec![0.0; 2];
        mlp.predict_rows(&[0.0; 5], &mut out);
    }

    #[test]
    fn predictions_are_probabilities() {
        let mut rng = StdRng::seed_from_u64(2);
        let mlp = Mlp::new(5, &[4], &mut rng);
        for _ in 0..50 {
            let x: Vec<f64> = (0..5).map(|_| rng.gen_range(-10.0..10.0)).collect();
            let p = mlp.predict(&x);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let build = || {
            let mut rng = StdRng::seed_from_u64(33);
            let xs: Vec<f64> = (0..200).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let ys: Vec<f64> = xs.chunks(2).map(|x| f64::from(x[0] > 0.0)).collect();
            let mut mlp = Mlp::new(2, &[6], &mut rng);
            mlp.train(&xs, &ys, &TrainConfig::default(), &mut rng);
            mlp.predict(&[0.3, -0.2])
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn gradient_check_single_layer() {
        // Numerical gradient check of the oracle's backprop on a tiny
        // network; the shipping trainer is pinned to the oracle above.
        let mut rng = StdRng::seed_from_u64(3);
        let net = oracle::Net::from_mlp(&Mlp::new(3, &[], &mut rng));
        let x = vec![0.5, -0.3, 0.8];
        let y = 1.0;
        let mut gw = vec![vec![0.0; 3]];
        let mut gb = vec![vec![0.0; 1]];
        net.backprop(&x, y, &mut gw, &mut gb);

        let eps = 1e-6;
        #[allow(clippy::needless_range_loop)] // index mirrors the weight slot being perturbed
        for wi in 0..3 {
            let mut plus = net.clone();
            plus.layers[0].w[wi] += eps;
            let mut minus = net.clone();
            minus.layers[0].w[wi] -= eps;
            let loss = |n: &oracle::Net| {
                let p = n.predict(&x);
                -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
            };
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            assert!(
                (numeric - gw[0][wi]).abs() < 1e-5,
                "grad mismatch at {wi}: numeric {numeric} analytic {}",
                gw[0][wi]
            );
        }
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn predict_rejects_wrong_dimension() {
        let mut rng = StdRng::seed_from_u64(4);
        let mlp = Mlp::new(3, &[], &mut rng);
        mlp.predict(&[1.0]);
    }
}

// --- persistence ---------------------------------------------------------

impl Mlp {
    /// Writes the network weights as a plain-text stream:
    /// `mlp <n_layers>` then per layer a header `layer <in> <out>` and two
    /// lines of space-separated weights (output-major: all of output 0's
    /// input weights first) and biases.
    pub fn write_to<W: std::io::Write>(&self, writer: W) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(writer);
        use std::io::Write as _;
        writeln!(out, "mlp {}", self.layers.len())?;
        for layer in &self.layers {
            writeln!(out, "layer {} {}", layer.n_in, layer.n_out)?;
            let ws: Vec<String> = (0..layer.n_out)
                .flat_map(|o| (0..layer.n_in).map(move |k| layer.weight(o, k)))
                .map(|v| format!("{v:e}"))
                .collect();
            writeln!(out, "{}", ws.join(" "))?;
            let bs: Vec<String> = layer.b.iter().map(|v| format!("{v:e}")).collect();
            writeln!(out, "{}", bs.join(" "))?;
        }
        out.flush()
    }

    /// Reads a network written by [`Mlp::write_to`].
    pub fn read_from<R: std::io::Read>(reader: R) -> std::io::Result<Self> {
        Self::read_from_buf(&mut std::io::BufReader::new(reader))
    }

    /// Like [`Mlp::read_from`], but consumes exactly the model's lines
    /// from a shared buffered reader (no look-ahead), so callers can
    /// concatenate several records in one stream.
    pub fn read_from_buf(reader: &mut dyn std::io::BufRead) -> std::io::Result<Self> {
        use std::io::{Error, ErrorKind};
        let bad = |msg: &str| Error::new(ErrorKind::InvalidData, msg.to_owned());
        let mut next_line = || -> std::io::Result<String> {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                return Err(Error::new(
                    ErrorKind::InvalidData,
                    "unexpected end of mlp data",
                ));
            }
            Ok(line.trim_end().to_owned())
        };
        let header = next_line()?;
        let n_layers: usize = header
            .strip_prefix("mlp ")
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| bad("malformed mlp header"))?;
        let mut layers: Vec<Layer> = Vec::with_capacity(n_layers.min(64));
        for _ in 0..n_layers {
            let meta = next_line()?;
            let mut parts = meta.split_ascii_whitespace();
            if parts.next() != Some("layer") {
                return Err(bad("malformed layer header"));
            }
            let n_in: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad("bad layer n_in"))?;
            let n_out: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad("bad layer n_out"))?;
            // Shapes must chain from a non-empty input, or the forward
            // product would be handed mismatched operands.
            let fed_by = layers.last().map_or(n_in.max(1), |l| l.n_out);
            if n_out == 0 || n_in != fed_by {
                return Err(bad("layer shapes do not chain"));
            }
            let parse_row = |line: String, expect: usize| -> std::io::Result<Vec<f64>> {
                let vals: Vec<f64> = line
                    .split_ascii_whitespace()
                    .map(|t| t.parse::<f64>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| bad("bad weight value"))?;
                if vals.len() != expect {
                    return Err(bad("weight row length mismatch"));
                }
                Ok(vals)
            };
            let expect = n_in
                .checked_mul(n_out)
                .ok_or_else(|| bad("layer too large"))?;
            let w = parse_row(next_line()?, expect)?;
            let b = parse_row(next_line()?, n_out)?;
            layers.push(Layer::from_output_major(&w, b, n_in, n_out));
        }
        match layers.last() {
            None => Err(bad("mlp needs at least one layer")),
            Some(last) if last.n_out != 1 => Err(bad("mlp must end in one output")),
            Some(_) => Ok(Mlp { layers }),
        }
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn round_trip_preserves_predictions() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(4, &[8, 3], &mut rng);
        let mut buf = Vec::new();
        mlp.write_to(&mut buf).unwrap();
        let back = Mlp::read_from(buf.as_slice()).unwrap();
        use rand::Rng;
        for _ in 0..20 {
            let x: Vec<f64> = (0..4).map(|_| rng.gen_range(-3.0..3.0)).collect();
            assert_eq!(mlp.predict(&x), back.predict(&x));
        }
        let mut again = Vec::new();
        back.write_to(&mut again).unwrap();
        assert_eq!(buf, again, "write → read → write is byte-stable");
    }

    #[test]
    fn rejects_corrupt_input() {
        assert!(Mlp::read_from("nonsense".as_bytes()).is_err());
        assert!(Mlp::read_from("mlp 1\nlayer 2 1\n1.0\n0.0".as_bytes()).is_err());
        assert!(Mlp::read_from("".as_bytes()).is_err());
        // Well-formed rows whose shapes do not chain, start empty, or end
        // in more than one output.
        let two = "mlp 2\nlayer 2 2\n1 2 3 4\n0 0\nlayer 3 1\n1 2 3\n0\n";
        assert!(Mlp::read_from(two.as_bytes()).is_err());
        assert!(Mlp::read_from("mlp 1\nlayer 0 1\n\n0\n".as_bytes()).is_err());
        assert!(Mlp::read_from("mlp 1\nlayer 1 2\n1 2\n0 0\n".as_bytes()).is_err());
        assert!(Mlp::read_from("mlp 1\nlayer 2 1\n1 2\n0\n".as_bytes()).is_ok());
    }
}
