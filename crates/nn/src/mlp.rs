//! Multi-layer perceptron with ReLU hidden activations.

use serde::{Deserialize, Serialize};

use crate::Linear;

/// An MLP: dense layers with ReLU between them and a linear output layer.
///
/// This is the Q-network of iPrism's SMC (the camera-CNN substitute; see
/// DESIGN.md). Deterministically initialized from a seed, serializable with
/// serde, trained with the optimizers in this crate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
}

/// Cached per-layer activations from [`Mlp::forward_cached`], consumed by
/// [`Mlp::backward`].
#[derive(Debug, Clone, PartialEq)]
pub struct MlpCache {
    /// `inputs[i]` is the input to layer `i`; the last entry is the output.
    inputs: Vec<Vec<f64>>,
}

impl MlpCache {
    /// The network output for the cached forward pass.
    pub fn output(&self) -> &[f64] {
        self.inputs.last().map_or(&[], Vec::as_slice)
    }
}

/// Reusable activation/gradient buffers for the batched minibatch pass
/// ([`Mlp::forward_batch_cached`] / [`Mlp::backward_batch`]).
///
/// All buffers are contiguous row-major `[batch × dim]` slabs: sample `s`'s
/// feature `j` for layer `i` lives at `inputs[i][s * dim_i + j]`. The cache is
/// allocated lazily on first use and reused across minibatches, so a training
/// loop that keeps one `BatchCache` alive performs no per-update allocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchCache {
    /// `inputs[i]` is the row-major input batch of layer `i`; the last entry
    /// is the batched network output.
    inputs: Vec<Vec<f64>>,
    /// Upstream gradient flowing between layers during the backward pass;
    /// after [`Mlp::backward_batch`] it holds `∂L/∂input` for the batch.
    grad: Vec<f64>,
    /// Scratch buffer the layer-level backward kernel writes `∂L/∂x` into.
    grad_scratch: Vec<f64>,
    /// Weight-panel scratch for the layer forward kernel
    /// ([`Linear::forward_batch_scratch`]), reused across layers and updates.
    panel_scratch: Vec<f64>,
    /// Number of samples in the cached pass.
    batch: usize,
}

impl BatchCache {
    /// An empty cache; buffers are sized on first use.
    #[must_use]
    pub fn new() -> Self {
        BatchCache::default()
    }

    /// Number of samples in the most recent cached forward pass.
    #[must_use]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The batched network output, row-major `[batch × out_dim]`.
    #[must_use]
    pub fn outputs(&self) -> &[f64] {
        self.inputs.last().map_or(&[], Vec::as_slice)
    }

    /// The output row of sample `s`.
    ///
    /// # Panics
    ///
    /// Panics when `s` is out of range for the cached batch.
    #[must_use]
    pub fn output(&self, s: usize) -> &[f64] {
        assert!(s < self.batch, "sample index out of range");
        let out = self.outputs();
        let dim = out.len() / self.batch;
        &out[s * dim..(s + 1) * dim]
    }

    /// `∂L/∂input` for the whole batch, row-major `[batch × in_dim]`; valid
    /// after [`Mlp::backward_batch`].
    #[must_use]
    pub fn input_grads(&self) -> &[f64] {
        &self.grad
    }
}

impl Mlp {
    /// Creates an MLP with the given layer sizes, e.g. `&[in, h1, h2, out]`.
    ///
    /// # Panics
    ///
    /// Panics when fewer than two sizes are given or any size is zero.
    pub fn new(sizes: &[usize], seed: u64) -> Self {
        assert!(
            sizes.len() >= 2,
            "MLP needs at least input and output sizes"
        );
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(w[0], w[1], seed.wrapping_add(i as u64 * 7919)))
            .collect();
        Mlp { layers }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers.first().map_or(0, Linear::in_dim)
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, Linear::out_dim)
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Linear::param_count).sum()
    }

    /// Plain forward pass (no caching).
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let n = self.layers.len();
        let mut h = x.to_vec();
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(&h);
            if i + 1 < n {
                relu_inplace(&mut h);
            }
        }
        h
    }

    /// Forward pass retaining per-layer inputs for backprop.
    pub fn forward_cached(&self, x: &[f64]) -> MlpCache {
        let n = self.layers.len();
        let mut inputs = Vec::with_capacity(n + 1);
        let mut cur = x.to_vec();
        for (i, layer) in self.layers.iter().enumerate() {
            let mut h = layer.forward(&cur);
            if i + 1 < n {
                relu_inplace(&mut h);
            }
            inputs.push(std::mem::replace(&mut cur, h));
        }
        inputs.push(cur);
        MlpCache { inputs }
    }

    /// Backpropagates `dloss_dout` through the cached pass, accumulating
    /// parameter gradients; returns `∂L/∂input`.
    pub fn backward(&mut self, cache: &MlpCache, dloss_dout: &[f64]) -> Vec<f64> {
        let n = self.layers.len();
        assert_eq!(cache.inputs.len(), n + 1, "cache does not match network");
        let mut grad = dloss_dout.to_vec();
        for i in (0..n).rev() {
            // The stored input of layer i+1 is layer i's *post-activation*
            // output; ReLU gradient masks where that output is zero.
            if i + 1 < n {
                let activated = &cache.inputs[i + 1];
                for (g, a) in grad.iter_mut().zip(activated) {
                    if *a <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            grad = self.layers[i].backward(&cache.inputs[i], &grad);
        }
        grad
    }

    /// Batched forward pass over a row-major `[batch × in_dim]` input slab,
    /// retaining every layer's input batch in `cache` for
    /// [`Mlp::backward_batch`].
    ///
    /// Bit-identical to calling [`Mlp::forward_cached`] once per sample: the
    /// layer kernel ([`Linear::forward_batch_scratch`]) reduces each output
    /// element's dot product in the same order as the per-sample path, and
    /// the ReLU is elementwise, so batching only changes the *schedule*, never
    /// any floating-point reduction.
    ///
    /// # Panics
    ///
    /// Panics when `xs.len()` is not a multiple of the input dimension.
    // iprism: hot-path(no-alloc, deterministic)
    pub fn forward_batch_cached(&self, xs: &[f64], cache: &mut BatchCache) {
        let n_layers = self.layers.len();
        let in_dim = self.in_dim();
        assert!(xs.len().is_multiple_of(in_dim), "batch input size mismatch");
        cache.batch = xs.len() / in_dim;
        // The cache slabs grow once on first use and are reused verbatim on
        // every later minibatch (the whole point of `BatchCache`); at steady
        // state these calls touch length only, never the allocator.
        // iprism-lint: allow(hot-path-alloc)
        cache.inputs.resize_with(n_layers + 1, Vec::new);
        cache.inputs[0].clear();
        // iprism-lint: allow(hot-path-alloc)
        cache.inputs[0].extend_from_slice(xs);
        for i in 0..n_layers {
            // Split so layer i's input batch (index i) and output batch
            // (index i+1) can be borrowed simultaneously.
            let (head, tail) = cache.inputs.split_at_mut(i + 1);
            let out = &mut tail[0];
            self.layers[i].forward_batch_scratch(&head[i], out, &mut cache.panel_scratch);
            if i + 1 < n_layers {
                relu_inplace(out);
            }
        }
    }

    /// Batched backprop through the pass cached by
    /// [`Mlp::forward_batch_cached`], accumulating parameter gradients over
    /// the whole batch; afterwards [`BatchCache::input_grads`] holds
    /// `∂L/∂input`.
    ///
    /// Bit-identical to running [`Mlp::backward`] once per sample in batch
    /// order: every gradient accumulator (`grad_w[o,i]`, `grad_b[o]`, each
    /// `∂L/∂x` element) receives exactly the same contributions in exactly
    /// the same order — see [`Linear::backward_batch`].
    ///
    /// # Panics
    ///
    /// Panics when the cache does not match the network or `dloss_dout` is
    /// not `[batch × out_dim]`.
    pub fn backward_batch(&mut self, cache: &mut BatchCache, dloss_dout: &[f64]) {
        let n = self.layers.len();
        assert_eq!(cache.inputs.len(), n + 1, "cache does not match network");
        assert_eq!(
            dloss_dout.len(),
            cache.batch * self.out_dim(),
            "batch grad size mismatch"
        );
        cache.grad.clear();
        // Steady-state capacity: the gradient slab is reused per minibatch.
        // iprism-lint: allow(hot-path-alloc)
        cache.grad.extend_from_slice(dloss_dout);
        for i in (0..n).rev() {
            // The stored input of layer i+1 is layer i's *post-activation*
            // batch; ReLU gradient masks where that output is zero.
            if i + 1 < n {
                let activated = &cache.inputs[i + 1];
                for (g, a) in cache.grad.iter_mut().zip(activated) {
                    if *a <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            self.layers[i].backward_batch(&cache.inputs[i], &cache.grad, &mut cache.grad_scratch);
            std::mem::swap(&mut cache.grad, &mut cache.grad_scratch);
        }
    }

    /// Clears all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Visits every `(parameter, gradient)` pair in a stable order.
    pub fn visit_params(&mut self, mut f: impl FnMut(&mut f64, f64)) {
        for l in &mut self.layers {
            l.visit_params(&mut f);
        }
    }

    /// Visits every layer's `(parameters, gradients)` slice pair in the
    /// order [`Mlp::visit_params`] flattens them (per layer: weights
    /// row-major, then biases). Optimizers that update whole slices
    /// vectorize where the per-scalar visitor cannot.
    pub fn visit_param_slices(&mut self, mut f: impl FnMut(&mut [f64], &[f64])) {
        for l in &mut self.layers {
            l.visit_param_slices(&mut f);
        }
    }

    /// Copies the parameters of `other` into `self` (target-network sync).
    ///
    /// # Panics
    ///
    /// Panics when the architectures differ.
    pub fn copy_params_from(&mut self, other: &Mlp) {
        assert_eq!(
            self.layers.len(),
            other.layers.len(),
            "architecture mismatch"
        );
        for (dst, src) in self.layers.iter_mut().zip(&other.layers) {
            assert_eq!(dst.w.len(), src.w.len(), "architecture mismatch");
            dst.w.copy_from_slice(&src.w);
            dst.b.copy_from_slice(&src.b);
        }
    }
}

fn relu_inplace(v: &mut [f64]) {
    for x in v {
        if *x < 0.0 {
            *x = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn shapes() {
        let net = Mlp::new(&[4, 8, 3], 0);
        assert_eq!(net.in_dim(), 4);
        assert_eq!(net.out_dim(), 3);
        assert_eq!(net.param_count(), 4 * 8 + 8 + 8 * 3 + 3);
        assert_eq!(net.forward(&[0.1, 0.2, 0.3, 0.4]).len(), 3);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Mlp::new(&[3, 5, 2], 11);
        let b = Mlp::new(&[3, 5, 2], 11);
        assert_eq!(a.forward(&[1.0, 2.0, 3.0]), b.forward(&[1.0, 2.0, 3.0]));
    }

    #[test]
    fn forward_cached_matches_forward() {
        let net = Mlp::new(&[3, 6, 2], 4);
        let x = [0.3, -0.7, 1.1];
        assert_eq!(net.forward(&x), net.forward_cached(&x).output());
    }

    #[test]
    fn gradient_check_full_network() {
        let mut net = Mlp::new(&[3, 5, 2], 2);
        let x = [0.4, -0.2, 0.9];
        let dy = [0.7, -1.3];
        net.zero_grad();
        let cache = net.forward_cached(&x);
        let dx = net.backward(&cache, &dy);

        let loss = |net: &Mlp, x: &[f64]| -> f64 {
            net.forward(x).iter().zip(&dy).map(|(a, b)| a * b).sum()
        };
        let eps = 1e-6;

        // input gradient
        for i in 0..3 {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let num = (loss(&net, &xp) - loss(&net, &xm)) / (2.0 * eps);
            assert!((num - dx[i]).abs() < 1e-5, "dx[{i}]: {num} vs {}", dx[i]);
        }

        // parameter gradients: collect analytic grads, then perturb each
        let mut analytic = Vec::new();
        net.visit_params(|_, g| analytic.push(g));
        let mut net2 = net.clone();
        assert_eq!(analytic.len(), net2.param_count());
        for (idx, &expected) in analytic.iter().enumerate() {
            let mut j = 0;
            net2.visit_params(|p, _| {
                if j == idx {
                    *p += eps;
                }
                j += 1;
            });
            let plus = loss(&net2, &x);
            let mut j = 0;
            net2.visit_params(|p, _| {
                if j == idx {
                    *p -= 2.0 * eps;
                }
                j += 1;
            });
            let minus = loss(&net2, &x);
            let mut j = 0;
            net2.visit_params(|p, _| {
                if j == idx {
                    *p += eps;
                }
                j += 1;
            });
            let num = (plus - minus) / (2.0 * eps);
            assert!(
                (num - expected).abs() < 1e-5,
                "param {idx}: {num} vs {expected}"
            );
        }
    }

    #[test]
    fn target_sync_copies_params() {
        let src = Mlp::new(&[2, 4, 1], 1);
        let mut dst = Mlp::new(&[2, 4, 1], 99);
        assert_ne!(src.forward(&[1.0, 1.0]), dst.forward(&[1.0, 1.0]));
        dst.copy_params_from(&src);
        assert_eq!(src.forward(&[1.0, 1.0]), dst.forward(&[1.0, 1.0]));
    }

    #[test]
    #[should_panic(expected = "architecture mismatch")]
    fn sync_mismatch_panics() {
        let src = Mlp::new(&[2, 4, 1], 1);
        let mut dst = Mlp::new(&[2, 5, 1], 1);
        dst.copy_params_from(&src);
    }

    #[test]
    fn serde_roundtrip() {
        let net = Mlp::new(&[3, 4, 2], 9);
        let json = serde_json::to_string(&net).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        assert_eq!(
            net.forward(&[0.1, 0.2, 0.3]),
            back.forward(&[0.1, 0.2, 0.3])
        );
    }

    #[test]
    fn batch_cache_is_reusable_across_batch_sizes() {
        let net = Mlp::new(&[3, 5, 2], 8);
        let mut cache = BatchCache::new();
        for n in [4, 1, 7] {
            let xs: Vec<f64> = (0..n * 3).map(|k| k as f64 * 0.1 - 1.0).collect();
            net.forward_batch_cached(&xs, &mut cache);
            assert_eq!(cache.batch(), n);
            assert_eq!(cache.outputs().len(), n * 2);
            for s in 0..n {
                assert_eq!(cache.output(s), net.forward(&xs[s * 3..(s + 1) * 3]));
            }
        }
    }

    #[test]
    fn batched_finite_difference_gradients_at_batch_3() {
        // Finite-difference check of the *batched* backward at batch > 1:
        // loss = Σ_s Σ_o dy[s,o] · net(x_s)[o].
        let mut net = Mlp::new(&[3, 5, 2], 2);
        let xs = [0.4, -0.2, 0.9, -0.6, 0.3, 0.1, 1.2, -0.8, 0.5];
        let dys = [0.7, -1.3, 0.4, 0.9, -0.5, 0.2];
        net.zero_grad();
        let mut cache = BatchCache::new();
        net.forward_batch_cached(&xs, &mut cache);
        net.backward_batch(&mut cache, &dys);

        let loss = |net: &Mlp, xs: &[f64]| -> f64 {
            (0..3)
                .map(|s| {
                    net.forward(&xs[s * 3..(s + 1) * 3])
                        .iter()
                        .zip(&dys[s * 2..(s + 1) * 2])
                        .map(|(a, b)| a * b)
                        .sum::<f64>()
                })
                .sum()
        };
        let eps = 1e-6;

        // input gradients
        let dx = cache.input_grads().to_vec();
        assert_eq!(dx.len(), xs.len());
        for i in 0..xs.len() {
            let mut xp = xs;
            xp[i] += eps;
            let mut xm = xs;
            xm[i] -= eps;
            let num = (loss(&net, &xp) - loss(&net, &xm)) / (2.0 * eps);
            assert!((num - dx[i]).abs() < 1e-5, "dx[{i}]: {num} vs {}", dx[i]);
        }

        // parameter gradients
        let mut analytic = Vec::new();
        net.visit_params(|_, g| analytic.push(g));
        let mut net2 = net.clone();
        for (idx, &expected) in analytic.iter().enumerate() {
            let nudge = |net: &mut Mlp, delta: f64| {
                let mut j = 0;
                net.visit_params(|p, _| {
                    if j == idx {
                        *p += delta;
                    }
                    j += 1;
                });
            };
            nudge(&mut net2, eps);
            let plus = loss(&net2, &xs);
            nudge(&mut net2, -2.0 * eps);
            let minus = loss(&net2, &xs);
            nudge(&mut net2, eps);
            let num = (plus - minus) / (2.0 * eps);
            assert!(
                (num - expected).abs() < 1e-5,
                "param {idx}: {num} vs {expected}"
            );
        }
    }

    /// A layer width or batch size for the bit-identity proptests: the
    /// production Q-network's value (19→64→64→3 at batch 32) in a quarter
    /// of the cases, otherwise uniform over `1..=max`, which straddles every
    /// tile size of the batched kernels.
    fn dim(production: usize, max: usize) -> impl Strategy<Value = usize> {
        (0..4 * max).prop_map(move |k| if k < max { production } else { k % max + 1 })
    }

    /// The IEEE-754 values the kernels must carry through unchanged.
    const SPECIALS: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];

    /// `len` values cycled from `raw` (starting at `offset`), with each
    /// `(position, kind)` in `specials` overwriting one value by a special.
    fn data(raw: &[f64], len: usize, offset: usize, specials: &[(usize, usize)]) -> Vec<f64> {
        let mut v: Vec<f64> = (0..len).map(|k| raw[(k + offset) % raw.len()]).collect();
        for &(pos, kind) in specials {
            v[pos % len] = SPECIALS[kind];
        }
        v
    }

    /// Gives every bias a value from `raw`; `Linear::new` starts them at 0.
    fn set_biases(net: &mut Mlp, raw: &[f64]) {
        for (k, b) in net.layers.iter_mut().flat_map(|l| &mut l.b).enumerate() {
            *b = raw[(k * 7 + 3) % raw.len()];
        }
    }

    /// Overwrites one parameter per `(position, kind)` by a special value.
    fn inject_into_params(net: &mut Mlp, specials: &[(usize, usize)]) {
        let count = net.param_count();
        for &(pos, kind) in specials {
            let mut j = 0;
            net.visit_params(|p, _| {
                if j == pos % count {
                    *p = SPECIALS[kind];
                }
                j += 1;
            });
        }
    }

    /// Bit-for-bit equality, except that any two NaNs match: Rust leaves
    /// the sign and payload of a NaN that arithmetic produces unspecified.
    fn assert_same(got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "length");
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "element {k}: {g:?} ({:#x}) vs {w:?} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    proptest! {
        #[test]
        fn prop_forward_finite(
            x in proptest::collection::vec(-10.0..10.0f64, 4)
        ) {
            let net = Mlp::new(&[4, 8, 8, 2], 3);
            for y in net.forward(&x) {
                prop_assert!(y.is_finite());
            }
        }

        /// Over random shapes, batch sizes and data, the batched forward is
        /// *exactly* (bit-for-bit) N independent per-sample forwards.
        #[test]
        fn prop_batched_forward_equals_per_sample(
            in_dim in dim(19, 70),
            h1 in dim(64, 70),
            h2 in dim(64, 70),
            out_dim in dim(3, 70),
            n in dim(32, 40),
            seed in 0u64..1000,
            raw in proptest::collection::vec(-5.0..5.0f64, 211),
            specials in proptest::collection::vec((0usize..100_000, 0usize..5), 0..6)
        ) {
            let mut net = Mlp::new(&[in_dim, h1, h2, out_dim], seed);
            set_biases(&mut net, &raw);
            inject_into_params(&mut net, &specials[specials.len() / 2..]);
            let xs = data(&raw, n * in_dim, 0, &specials);
            let mut cache = BatchCache::new();
            net.forward_batch_cached(&xs, &mut cache);
            for s in 0..n {
                let single = net.forward(&xs[s * in_dim..(s + 1) * in_dim]);
                assert_same(cache.output(s), &single);
            }
        }

        /// Over random shapes, the batched backward accumulates *exactly*
        /// the gradients of N per-sample backward calls, and produces the
        /// same `∂L/∂input` rows. Half the cases feed one-hot gradient
        /// rows, as the D-DQN update does, so zero terms meet infinities.
        #[test]
        fn prop_batched_backward_equals_per_sample(
            in_dim in dim(19, 70),
            h1 in dim(64, 70),
            h2 in dim(64, 70),
            out_dim in dim(3, 70),
            n in dim(32, 40),
            seed in 0u64..1000,
            raw in proptest::collection::vec(-5.0..5.0f64, 211),
            specials in proptest::collection::vec((0usize..100_000, 0usize..5), 0..6),
            one_hot in any::<bool>()
        ) {
            let xs = data(&raw, n * in_dim, 0, &specials);
            let mut dys = data(&raw, n * out_dim, 11, &specials[specials.len() / 2..]);
            if one_hot {
                for (s, row) in dys.chunks_exact_mut(out_dim).enumerate() {
                    let action = (s * 5 + 1) % out_dim;
                    for (o, d) in row.iter_mut().enumerate() {
                        if o != action {
                            *d = 0.0;
                        }
                    }
                }
            }

            let mut reference = Mlp::new(&[in_dim, h1, h2, out_dim], seed);
            set_biases(&mut reference, &raw);
            inject_into_params(&mut reference, &specials[..specials.len() / 2]);
            let mut batched = reference.clone();
            reference.zero_grad();
            let mut ref_dx = Vec::new();
            for s in 0..n {
                let cache = reference.forward_cached(&xs[s * in_dim..(s + 1) * in_dim]);
                ref_dx.extend(
                    reference.backward(&cache, &dys[s * out_dim..(s + 1) * out_dim]),
                );
            }
            let mut ref_grads = Vec::new();
            reference.visit_params(|_, g| ref_grads.push(g));

            batched.zero_grad();
            let mut cache = BatchCache::new();
            batched.forward_batch_cached(&xs, &mut cache);
            batched.backward_batch(&mut cache, &dys);
            let mut got_grads = Vec::new();
            batched.visit_params(|_, g| got_grads.push(g));

            assert_same(&got_grads, &ref_grads);
            assert_same(cache.input_grads(), &ref_dx);
        }
    }
}
