//! Dense (fully connected) layers.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A dense layer `y = W·x + b` with accumulated gradients.
///
/// Weights are stored row-major: `w[o * in_dim + i]` connects input `i` to
/// output `o`. Initialization is He-uniform, deterministic under a seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    in_dim: usize,
    out_dim: usize,
    /// Weights, row-major `[out_dim × in_dim]`.
    pub w: Vec<f64>,
    /// Biases, `[out_dim]`.
    pub b: Vec<f64>,
    /// Accumulated weight gradients (same layout as `w`).
    #[serde(skip)]
    pub grad_w: Vec<f64>,
    /// Accumulated bias gradients.
    #[serde(skip)]
    pub grad_b: Vec<f64>,
}

impl Linear {
    /// Creates a layer with He-uniform initial weights.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "layer dims must be positive");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let bound = (6.0 / in_dim as f64).sqrt();
        let w = (0..in_dim * out_dim)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Linear {
            in_dim,
            out_dim,
            w,
            b: vec![0.0; out_dim],
            grad_w: vec![0.0; in_dim * out_dim],
            grad_b: vec![0.0; out_dim],
        }
    }

    /// Input dimension.
    #[inline]
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    #[inline]
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Number of parameters (weights + biases).
    #[inline]
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != in_dim`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.in_dim, "input size mismatch");
        let mut y = self.b.clone();
        for (o, yo) in y.iter_mut().enumerate() {
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            let mut acc = 0.0;
            for (wi, xi) in row.iter().zip(x) {
                acc += wi * xi;
            }
            *yo += acc;
        }
        y
    }

    /// Batched forward pass with a caller-held weight-panel scratch.
    ///
    /// `xs` holds `n` samples of `in_dim` values each (`xs[s * in_dim + i]`
    /// is input `i` of sample `s`); `ys` is cleared and filled with the
    /// matching `[n × out_dim]` layout. Each full block of `LANES` outputs
    /// is first packed into `panels` as a panel of `in_dim` rows (row `i`
    /// holds `w[o, i]` for the block's outputs `o`), and each block of
    /// `ROWS` samples then runs as a register tile against each panel: for
    /// every input `i` in ascending order, `acc[s, o] += x[s, i] · w[o, i]`,
    /// and finally `y[s, o] = b[o] + acc[s, o]`. Outputs outside a full
    /// block (all of a layer narrower than `LANES`, such as the Q-network's
    /// action head) and the last `n % ROWS` samples take the same sum as a
    /// plain dot product. Either way each output accumulates exactly the
    /// terms of [`Linear::forward`]'s dot product, in its order and from
    /// the same `0.0`, so the result is **bit-identical** to `n` per-sample
    /// calls; the tile only interleaves independent accumulators.
    ///
    /// # Panics
    ///
    /// Panics when `xs.len()` is not a multiple of `in_dim`.
    // iprism: hot-path(no-panic, no-alloc, deterministic)
    pub fn forward_batch_scratch(&self, xs: &[f64], ys: &mut Vec<f64>, panels: &mut Vec<f64>) {
        // The one deliberate panic: rejecting a ragged batch up front keeps
        // every chunking step below exact.
        // iprism-lint: allow(hot-path-panic)
        assert!(
            xs.len().is_multiple_of(self.in_dim),
            "batch input size mismatch"
        );
        let (in_dim, out_dim) = (self.in_dim, self.out_dim);
        let n = xs.len() / in_dim;
        let tiled_outputs = out_dim - out_dim % LANES;
        ys.clear();
        // Both resizes reuse steady-state capacity: after the first
        // minibatch the buffers are already large enough and `resize` only
        // rewrites length + contents.
        // iprism-lint: allow(hot-path-alloc)
        ys.resize(n * out_dim, 0.0);
        panels.clear();
        // iprism-lint: allow(hot-path-alloc)
        panels.resize(tiled_outputs * in_dim, 0.0);
        for (panel, w_block) in panels
            .as_chunks_mut::<LANES>()
            .0
            .chunks_exact_mut(in_dim)
            .zip(self.w.chunks_exact(LANES * in_dim))
        {
            for (i, lanes) in panel.iter_mut().enumerate() {
                let column = w_block.iter().skip(i).step_by(in_dim);
                for (lane, &w) in lanes.iter_mut().zip(column) {
                    *lane = w;
                }
            }
        }
        let panels = panels.as_chunks::<LANES>().0.chunks_exact(in_dim);
        let biases = self.b.as_chunks::<LANES>().0;
        for (x_block, y_block) in xs
            .chunks_exact(ROWS * in_dim)
            .zip(ys.chunks_exact_mut(ROWS * out_dim))
        {
            for (p, (panel, bias)) in panels.clone().zip(biases).enumerate() {
                let acc = tile(
                    [[0.0; LANES]; ROWS],
                    lockstep(panel.iter(), x_block, in_dim),
                );
                for (y_row, acc_row) in y_block.chunks_exact_mut(out_dim).zip(&acc) {
                    let y_lanes = y_row.iter_mut().skip(p * LANES);
                    for (y, (&a, &b)) in y_lanes.zip(acc_row.iter().zip(bias)) {
                        *y = b + a;
                    }
                }
            }
        }
        let tiled_samples = n - n % ROWS;
        for (s, (x, y)) in xs
            .chunks_exact(in_dim)
            .zip(ys.chunks_exact_mut(out_dim))
            .enumerate()
        {
            let first = if s < tiled_samples { tiled_outputs } else { 0 };
            let rows = y.iter_mut().zip(self.w.chunks_exact(in_dim)).zip(&self.b);
            for ((y, w_row), &b) in rows.skip(first) {
                let mut acc = 0.0;
                for (&w, &x) in w_row.iter().zip(x) {
                    acc += w * x;
                }
                *y = b + acc;
            }
        }
    }

    /// Batched backward pass: accumulates `∂L/∂W` and `∂L/∂b` over the whole
    /// batch and writes `∂L/∂xs` (same `[n × in_dim]` layout as `xs`) into
    /// `dxs`.
    ///
    /// Every accumulator receives exactly the terms the per-sample
    /// [`Linear::backward`] gives it, in its order: `grad_b[o]` and
    /// `grad_w[o, i]` add `g[s, o]` and `g[s, o] · x[s, i]` for ascending
    /// samples `s` to their current values, and `dx[s, i]` sums
    /// `g[s, o] · w[o, i]` over ascending outputs `o` from `0.0`. Zero
    /// entries of `dys` contribute their terms too, so `0 · ∞` still yields
    /// NaN. The accumulated gradients are therefore **bit-identical** to
    /// `n` sequential per-sample calls.
    ///
    /// # Panics
    ///
    /// Panics when the buffer sizes disagree with the layer dimensions.
    pub fn backward_batch(&mut self, xs: &[f64], dys: &[f64], dxs: &mut Vec<f64>) {
        assert!(
            xs.len().is_multiple_of(self.in_dim),
            "batch input size mismatch"
        );
        let n = xs.len() / self.in_dim;
        assert_eq!(dys.len(), n * self.out_dim, "batch grad size mismatch");
        for g_row in dys.chunks_exact(self.out_dim) {
            for (gb, &g) in self.grad_b.iter_mut().zip(g_row) {
                *gb += g;
            }
        }
        self.accumulate_grad_w(xs, dys);
        dxs.clear();
        // Steady-state capacity: the caller-held scratch grows once.
        // iprism-lint: allow(hot-path-alloc)
        dxs.resize(n * self.in_dim, 0.0);
        self.input_grads(dys, dxs);
    }

    /// `grad_w[o, i] += g[s, o] · x[s, i]` for ascending `s`: register tiles
    /// of `ROWS` outputs × `LANES` inputs, with each tiled row's last
    /// `in_dim % LANES` inputs summed one accumulator at a time and the rows
    /// below the last full tile (all of the action head's) swept once per
    /// sample.
    fn accumulate_grad_w(&mut self, xs: &[f64], dys: &[f64]) {
        let (in_dim, out_dim) = (self.in_dim, self.out_dim);
        let tiled_inputs = in_dim - in_dim % LANES;
        let tiled_outputs = out_dim - out_dim % ROWS;
        let samples = || dys.chunks_exact(out_dim).zip(xs.chunks_exact(in_dim));
        for (ob, gw_block) in self.grad_w.chunks_exact_mut(ROWS * in_dim).enumerate() {
            for ib in 0..tiled_inputs / LANES {
                let mut acc = [[0.0; LANES]; ROWS];
                for (acc_row, gw_row) in acc.iter_mut().zip(gw_block.chunks_exact(in_dim)) {
                    *acc_row = gw_row.as_chunks::<LANES>().0[ib];
                }
                let steps = samples()
                    .map(|(g, x)| (g.as_chunks::<ROWS>().0[ob], &x.as_chunks::<LANES>().0[ib]));
                for (gw_row, acc_row) in gw_block.chunks_exact_mut(in_dim).zip(tile(acc, steps)) {
                    gw_row.as_chunks_mut::<LANES>().0[ib] = acc_row;
                }
            }
        }
        for (o, gw_row) in self.grad_w.chunks_exact_mut(in_dim).enumerate() {
            if o < tiled_outputs {
                for (i, gw) in gw_row.iter_mut().enumerate().skip(tiled_inputs) {
                    for (g_row, x_row) in samples() {
                        *gw += g_row[o] * x_row[i];
                    }
                }
            } else {
                for (g_row, x_row) in samples() {
                    let g = g_row[o];
                    for (gw, &x) in gw_row.iter_mut().zip(x_row) {
                        *gw += g * x;
                    }
                }
            }
        }
    }

    /// `dx[s, i] = Σ_o g[s, o] · w[o, i]` over ascending `o`, onto the
    /// zeroed `dxs`: register tiles of `ROWS` samples × `LANES` inputs, and
    /// one accumulator at a time for the last `in_dim % LANES` inputs and
    /// the last `n % ROWS` samples.
    fn input_grads(&self, dys: &[f64], dxs: &mut [f64]) {
        let (in_dim, out_dim) = (self.in_dim, self.out_dim);
        let tiled_inputs = in_dim - in_dim % LANES;
        for (g_block, dx_block) in dys
            .chunks_exact(ROWS * out_dim)
            .zip(dxs.chunks_exact_mut(ROWS * in_dim))
        {
            for ib in 0..tiled_inputs / LANES {
                let w_lanes = self
                    .w
                    .chunks_exact(in_dim)
                    .map(|w_row| &w_row.as_chunks::<LANES>().0[ib]);
                let acc = tile([[0.0; LANES]; ROWS], lockstep(w_lanes, g_block, out_dim));
                for (dx_row, acc_row) in dx_block.chunks_exact_mut(in_dim).zip(acc) {
                    dx_row.as_chunks_mut::<LANES>().0[ib] = acc_row;
                }
            }
        }
        let n = dys.len() / out_dim;
        let tiled_samples = n - n % ROWS;
        for (s, (g_row, dx_row)) in dys
            .chunks_exact(out_dim)
            .zip(dxs.chunks_exact_mut(in_dim))
            .enumerate()
        {
            let first = if s < tiled_samples { tiled_inputs } else { 0 };
            for (i, dx) in dx_row.iter_mut().enumerate().skip(first) {
                for (&g, w_row) in g_row.iter().zip(self.w.chunks_exact(in_dim)) {
                    *dx += g * w_row[i];
                }
            }
        }
    }

    /// Backward pass: accumulates `∂L/∂W` and `∂L/∂b` given the upstream
    /// gradient `dy` and the input `x` used in the forward pass; returns
    /// `∂L/∂x`.
    pub fn backward(&mut self, x: &[f64], dy: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.in_dim, "input size mismatch");
        assert_eq!(dy.len(), self.out_dim, "grad size mismatch");
        let mut dx = vec![0.0; self.in_dim];
        for (o, &g) in dy.iter().enumerate() {
            self.grad_b[o] += g;
            let row_start = o * self.in_dim;
            for i in 0..self.in_dim {
                self.grad_w[row_start + i] += g * x[i];
                dx[i] += g * self.w[row_start + i];
            }
        }
        dx
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        // serde(skip) leaves these empty after deserialization; restore.
        // Runs at most once per deserialized layer, never at steady state.
        if self.grad_w.len() != self.w.len() {
            self.grad_w = vec![0.0; self.w.len()]; // iprism-lint: allow(hot-path-alloc)
            self.grad_b = vec![0.0; self.b.len()]; // iprism-lint: allow(hot-path-alloc)
        }
        self.grad_w.fill(0.0);
        self.grad_b.fill(0.0);
    }

    /// Visits every `(parameter, gradient)` pair in a fixed order (weights
    /// row-major, then biases). Optimizers rely on this order being stable.
    pub fn visit_params(&mut self, mut f: impl FnMut(&mut f64, f64)) {
        if self.grad_w.len() != self.w.len() {
            self.grad_w = vec![0.0; self.w.len()];
            self.grad_b = vec![0.0; self.b.len()];
        }
        for (p, g) in self.w.iter_mut().zip(&self.grad_w) {
            f(p, *g);
        }
        for (p, g) in self.b.iter_mut().zip(&self.grad_b) {
            f(p, *g);
        }
    }

    /// Visits the `(parameters, gradients)` slice pairs in the same order as
    /// [`Linear::visit_params`] flattens them (weights row-major, then
    /// biases). Whole-slice access lets optimizers vectorize their
    /// elementwise updates; each parameter still sees exactly the arithmetic
    /// a per-scalar visit would apply.
    pub fn visit_param_slices(&mut self, f: &mut impl FnMut(&mut [f64], &[f64])) {
        // Cold serde-restore branch, as in `zero_grad`.
        if self.grad_w.len() != self.w.len() {
            self.grad_w = vec![0.0; self.w.len()]; // iprism-lint: allow(hot-path-alloc)
            self.grad_b = vec![0.0; self.b.len()]; // iprism-lint: allow(hot-path-alloc)
        }
        f(&mut self.w, &self.grad_w);
        f(&mut self.b, &self.grad_b);
    }
}

/// Register-tile height: samples per tile in the forward pass and in
/// `∂L/∂x`, outputs per tile in `∂L/∂W`.
const ROWS: usize = 4;

/// Register-tile width: outputs per tile in the forward pass, inputs per
/// tile in `∂L/∂x` and `∂L/∂W`. With `ROWS` this makes 64 accumulators,
/// which fit the vector registers of AVX2 and AVX-512 hosts.
const LANES: usize = 16;

/// One register tile: accumulator `[r][k]` starts from `init[r][k]` and
/// adds `a[r] · v[k]` for each step `(a, v)` in order. Each accumulator
/// thus sums its terms in step order; the tile only interleaves independent
/// accumulators. (IEEE-754 multiplication is commutative, so the operand
/// order of a product does not matter.) The rows are spelled out so that
/// the compiler vectorizes across the lanes and keeps all 64 accumulators
/// in registers; written as a loop over the rows, the tile was vectorized
/// across the rows instead and kept in memory, several times slower.
fn tile<'a>(
    init: [[f64; LANES]; ROWS],
    steps: impl Iterator<Item = ([f64; ROWS], &'a [f64; LANES])>,
) -> [[f64; LANES]; ROWS] {
    let [mut c0, mut c1, mut c2, mut c3] = init;
    for ([a0, a1, a2, a3], v) in steps {
        let lanes = c0.iter_mut().zip(&mut c1).zip(&mut c2).zip(&mut c3);
        for ((((c0, c1), c2), c3), &v) in lanes.zip(v) {
            *c0 += a0 * v;
            *c1 += a1 * v;
            *c2 += a2 * v;
            *c3 += a3 * v;
        }
    }
    [c0, c1, c2, c3]
}

/// Steps for [`tile`] that read the `ROWS` rows of the row-major
/// `[ROWS × dim]` `block` in lockstep: step `j` pairs the rows' `j`-th
/// values with the `j`-th item of `v`.
fn lockstep<'a, I: Iterator>(
    v: I,
    block: &'a [f64],
    dim: usize,
) -> impl Iterator<Item = ([f64; ROWS], I::Item)> + use<'a, I> {
    let mut rows = block.chunks_exact(dim);
    let [r0, r1, r2, r3] = [(); ROWS].map(|()| rows.next().unwrap_or_default());
    v.zip(r0)
        .zip(r1)
        .zip(r2)
        .zip(r3)
        .map(|((((v, &a0), &a1), &a2), &a3)| ([a0, a1, a2, a3], v))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::float_cmp)] // exact comparisons are intentional in tests
    use super::*;

    #[test]
    fn forward_identity_weights() {
        let mut l = Linear::new(2, 2, 0);
        l.w = vec![1.0, 0.0, 0.0, 1.0];
        l.b = vec![0.5, -0.5];
        assert_eq!(l.forward(&[2.0, 3.0]), vec![2.5, 2.5]);
    }

    #[test]
    fn deterministic_init() {
        let a = Linear::new(4, 3, 7);
        let b = Linear::new(4, 3, 7);
        assert_eq!(a.w, b.w);
        let c = Linear::new(4, 3, 8);
        assert_ne!(a.w, c.w);
    }

    #[test]
    fn backward_gradients_match_finite_difference() {
        let mut l = Linear::new(3, 2, 1);
        let x = [0.5, -1.0, 2.0];
        let dy = [1.0, -0.5];
        l.zero_grad();
        let dx = l.backward(&x, &dy);

        // loss L = dy · y  (linear in y), so dL/dw numerically:
        let eps = 1e-6;
        for idx in 0..l.w.len() {
            let orig = l.w[idx];
            l.w[idx] = orig + eps;
            let yp: f64 = l.forward(&x).iter().zip(&dy).map(|(a, b)| a * b).sum();
            l.w[idx] = orig - eps;
            let ym: f64 = l.forward(&x).iter().zip(&dy).map(|(a, b)| a * b).sum();
            l.w[idx] = orig;
            let num = (yp - ym) / (2.0 * eps);
            assert!((num - l.grad_w[idx]).abs() < 1e-6, "w[{idx}]");
        }
        // dL/dx numerically:
        for i in 0..3 {
            let mut xp = x;
            xp[i] += eps;
            let yp: f64 = l.forward(&xp).iter().zip(&dy).map(|(a, b)| a * b).sum();
            let mut xm = x;
            xm[i] -= eps;
            let ym: f64 = l.forward(&xm).iter().zip(&dy).map(|(a, b)| a * b).sum();
            let num = (yp - ym) / (2.0 * eps);
            assert!((num - dx[i]).abs() < 1e-6, "x[{i}]");
        }
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut l = Linear::new(2, 1, 0);
        l.zero_grad();
        l.backward(&[1.0, 1.0], &[1.0]);
        l.backward(&[1.0, 1.0], &[1.0]);
        assert!((l.grad_b[0] - 2.0).abs() < 1e-12);
        l.zero_grad();
        assert_eq!(l.grad_b[0], 0.0);
    }

    #[test]
    fn visit_params_order_stable() {
        let mut l = Linear::new(2, 1, 3);
        l.zero_grad();
        let mut count = 0;
        l.visit_params(|_, _| count += 1);
        assert_eq!(count, l.param_count());
        assert_eq!(l.param_count(), 3);
    }

    #[test]
    fn serde_roundtrip_restores_grads_lazily() {
        let l = Linear::new(2, 2, 5);
        let json = serde_json::to_string(&l).unwrap();
        let mut back: Linear = serde_json::from_str(&json).unwrap();
        assert_eq!(back.w, l.w);
        // grads skipped: restored on zero_grad
        back.zero_grad();
        assert_eq!(back.grad_w.len(), back.w.len());
    }

    #[test]
    #[should_panic(expected = "input size mismatch")]
    fn wrong_input_panics() {
        let l = Linear::new(3, 1, 0);
        let _ = l.forward(&[1.0]);
    }

    /// Deterministic pseudo-random batch data (no RNG dependency needed).
    fn batch_data(n: usize, dim: usize, salt: u64) -> Vec<f64> {
        (0..n * dim)
            .map(|k| {
                let h = (k as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(salt);
                (h % 2000) as f64 / 100.0 - 10.0
            })
            .collect()
    }

    /// Layer shapes `(in_dim, out_dim, n)`: below, at and across the tile
    /// sizes, and the production Q-network's three layers at batch 32.
    const BATCH_SHAPES: [(usize, usize, usize); 8] = [
        (3, 2, 1),
        (5, 7, 4),
        (8, 3, 33),
        (2, 2, 65),
        (17, 33, 7),
        (19, 64, 32),
        (64, 64, 32),
        (64, 3, 32),
    ];

    #[test]
    fn forward_batch_bit_identical_to_per_sample() {
        for (in_dim, out_dim, n) in BATCH_SHAPES {
            let mut l = Linear::new(in_dim, out_dim, 11);
            l.b = batch_data(1, out_dim, 7);
            let xs = batch_data(n, in_dim, 3);
            let (mut ys, mut panels) = (Vec::new(), Vec::new());
            l.forward_batch_scratch(&xs, &mut ys, &mut panels);
            for s in 0..n {
                let single = l.forward(&xs[s * in_dim..(s + 1) * in_dim]);
                assert_eq!(
                    &ys[s * out_dim..(s + 1) * out_dim],
                    single.as_slice(),
                    "sample {s} of shape {in_dim}x{out_dim} batch {n}"
                );
            }
        }
    }

    /// Two batches in a row, so the second accumulates onto non-zero
    /// gradients as the per-sample path does.
    #[test]
    fn backward_batch_bit_identical_to_per_sample() {
        for (in_dim, out_dim, n) in BATCH_SHAPES {
            let mut reference = Linear::new(in_dim, out_dim, 2);
            let mut batched = reference.clone();
            reference.zero_grad();
            batched.zero_grad();
            for salt in [5, 6] {
                let xs = batch_data(n, in_dim, salt);
                let dys = batch_data(n, out_dim, salt + 4);
                let mut ref_dxs = Vec::new();
                for s in 0..n {
                    ref_dxs.extend(reference.backward(
                        &xs[s * in_dim..(s + 1) * in_dim],
                        &dys[s * out_dim..(s + 1) * out_dim],
                    ));
                }
                let mut dxs = Vec::new();
                batched.backward_batch(&xs, &dys, &mut dxs);
                assert_eq!(batched.grad_w, reference.grad_w);
                assert_eq!(batched.grad_b, reference.grad_b);
                assert_eq!(dxs, ref_dxs);
            }
        }
    }

    #[test]
    #[should_panic(expected = "batch input size mismatch")]
    fn forward_batch_ragged_input_panics() {
        let l = Linear::new(3, 1, 0);
        let (mut ys, mut panels) = (Vec::new(), Vec::new());
        l.forward_batch_scratch(&[1.0, 2.0], &mut ys, &mut panels);
    }
}
