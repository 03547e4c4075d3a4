//! Feed-forward layers and their composition.
//!
//! Layers follow a functional forward/backward contract: `forward`
//! is pure (no internal caching), and `backward` receives the same
//! input the forward pass saw, accumulates parameter gradients, and
//! returns the gradient with respect to the input. This makes
//! backpropagation-through-time trivial — the sequence model simply
//! keeps the per-timestep inputs and replays them in reverse.
//!
//! ## Batched passes
//!
//! Every pass runs over `[rows × dim]` row-major batches: the rows of a
//! serve tick, or the frames of one sequence (inference and training
//! alike). `Dense` is one GEMM for every row. `Conv1d` unrolls every
//! row's windows into one shared im2col matrix, whose columns run
//! row-major over `(row, output position)`, and runs one GEMM for the
//! whole batch. Each output keeps its single ascending-`k`
//! accumulation chain, and each parameter gradient sums its terms in
//! ascending row order, so a batch is bit-identical to its rows run
//! one at a time. The single-input entry points (`forward_with`,
//! `forward_cached_with`, `backward_with`) are the `rows = 1` case of
//! the batched ones; a cache remembers its row count, so one
//! `backward_with` serves both.
//!
//! ## Kernel backends and scratch
//!
//! The arithmetic lives in [`m2ai_kernels`]: `Dense` is a GEMV/GEMM,
//! `Conv1d` is lowered through im2col onto the same GEMM, and both
//! dispatch on the [`m2ai_kernels::Backend`] of the [`KernelScratch`]
//! they are handed (fast blocked kernels by default, the seed's naive
//! loops under `Backend::Reference`, where `Conv1d` walks each row's
//! windows). Every layer offers `*_with` variants taking the
//! scratch, so hot callers (`fit()`, the serving engine) choose the
//! backend and reuse im2col/packing buffers instead of allocating per
//! call; the plain signatures delegate to the thread-local `Fast`
//! scratch.

use crate::init::he_uniform;
use crate::Parameterized;
use m2ai_kernels::im2col::{col2im_accumulate, im2col};
use m2ai_kernels::{self as kernels, Backend, KernelScratch};

/// A fully-connected layer `y = Wx + b`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    /// Row-major `out_dim × in_dim` weights.
    w: Vec<f32>,
    b: Vec<f32>,
    gw: Vec<f32>,
    gb: Vec<f32>,
}

impl Dense {
    /// Creates a Dense layer with He-uniform weights.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        Dense {
            in_dim,
            out_dim,
            w: he_uniform(in_dim, in_dim * out_dim, seed),
            b: vec![0.0; out_dim],
            gw: vec![0.0; in_dim * out_dim],
            gb: vec![0.0; out_dim],
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        kernels::with_thread_scratch(|s| self.forward_with(x, s))
    }

    /// [`Dense::forward`] reusing buffers from `scratch`: the one-row
    /// case of [`Dense::forward_batch_with`].
    pub fn forward_with(&self, x: &[f32], scratch: &mut KernelScratch) -> Vec<f32> {
        self.forward_batch_with(x, 1, scratch)
    }

    /// Forward pass over `rows` stacked inputs (`[rows × in_dim]`,
    /// row-major), producing `[rows × out_dim]` — one GEMM for the
    /// whole batch. A one-row batch dispatches to the GEMV microkernel
    /// (bit-exact), so single-session steps through the batched serving
    /// API keep matrix-vector latency.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != rows * in_dim`.
    pub fn forward_batch_with(
        &self,
        xs: &[f32],
        rows: usize,
        scratch: &mut KernelScratch,
    ) -> Vec<f32> {
        assert_eq!(
            xs.len(),
            rows * self.in_dim,
            "Dense batch input size mismatch"
        );
        let mut ys = scratch.take(rows * self.out_dim);
        let (n_out, n_in) = (self.out_dim, self.in_dim);
        kernels::gemm_nt(scratch.backend(), rows, n_out, n_in, xs, &self.w, &mut ys);
        for row in ys.chunks_exact_mut(self.out_dim) {
            for (yo, bo) in row.iter_mut().zip(&self.b) {
                *yo += bo;
            }
        }
        ys
    }

    /// Backward pass: accumulates gradients, returns `∂L/∂x`; the
    /// one-row case of [`Dense::backward_batch_with`].
    pub fn backward(&mut self, x: &[f32], grad_out: &[f32]) -> Vec<f32> {
        kernels::with_thread_scratch(|s| self.backward_batch_with(x, grad_out, 1, s))
    }

    /// Batched backward over `rows` stacked `(x, grad_out)` pairs:
    /// parameter gradients accumulate across the whole batch in one
    /// GEMM each; returns the stacked `∂L/∂x` (`[rows × in_dim]`).
    /// Every `gw`/`gb` element sums its terms in ascending row order,
    /// so the batch is bit-identical to `rows` one-row calls.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn backward_batch_with(
        &mut self,
        xs: &[f32],
        grads: &[f32],
        rows: usize,
        scratch: &mut KernelScratch,
    ) -> Vec<f32> {
        assert_eq!(xs.len(), rows * self.in_dim, "Dense batch input mismatch");
        assert_eq!(
            grads.len(),
            rows * self.out_dim,
            "Dense batch gradient mismatch"
        );
        for grow in grads.chunks_exact(self.out_dim) {
            for (o, &g) in grow.iter().enumerate() {
                self.gb[o] += g;
            }
        }
        let (backend, n_out, n_in) = (scratch.backend(), self.out_dim, self.in_dim);
        kernels::gemm_tn(backend, n_out, n_in, rows, grads, xs, &mut self.gw);
        let mut gxs = vec![0.0; rows * n_in];
        kernels::gemm_nn(backend, rows, n_in, n_out, grads, &self.w, &mut gxs);
        gxs
    }
}

impl Parameterized for Dense {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.w, &mut self.gw);
        f(&mut self.b, &mut self.gb);
    }
}

/// A 1-D convolution over `(channels, length)` inputs (valid padding).
///
/// This is the CONV-E/CONV-F building block of Fig. 6: the
/// pseudospectrum frame enters as `n_tags` channels over 180 angle
/// bins and is progressively reduced.
#[derive(Debug, Clone, PartialEq)]
pub struct Conv1d {
    c_in: usize,
    len_in: usize,
    c_out: usize,
    kernel: usize,
    stride: usize,
    w: Vec<f32>,
    b: Vec<f32>,
    gw: Vec<f32>,
    gb: Vec<f32>,
}

impl Conv1d {
    /// Creates a convolution.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit (`kernel > len_in`), or any
    /// dimension is zero.
    pub fn new(
        c_in: usize,
        len_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        seed: u64,
    ) -> Self {
        assert!(c_in > 0 && c_out > 0 && kernel > 0 && stride > 0);
        assert!(kernel <= len_in, "kernel must fit in the input length");
        let fan_in = c_in * kernel;
        Conv1d {
            c_in,
            len_in,
            c_out,
            kernel,
            stride,
            w: he_uniform(fan_in, c_out * c_in * kernel, seed),
            b: vec![0.0; c_out],
            gw: vec![0.0; c_out * c_in * kernel],
            gb: vec![0.0; c_out],
        }
    }

    /// Output length along the convolved axis.
    pub fn len_out(&self) -> usize {
        (self.len_in - self.kernel) / self.stride + 1
    }

    /// Flattened input dimension (`c_in × len_in`).
    pub fn in_dim(&self) -> usize {
        self.c_in * self.len_in
    }

    /// Flattened output dimension (`c_out × len_out`).
    pub fn out_dim(&self) -> usize {
        self.c_out * self.len_out()
    }

    #[inline]
    fn widx(&self, o: usize, ci: usize, k: usize) -> usize {
        (o * self.c_in + ci) * self.kernel + k
    }

    /// Forward pass over a flattened `(c_in, len_in)` input.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != c_in × len_in`.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        kernels::with_thread_scratch(|s| self.forward_with(x, s))
    }

    /// [`Conv1d::forward`] reusing buffers from `scratch`: the one-row
    /// case of [`Conv1d::forward_batch_with`].
    pub fn forward_with(&self, x: &[f32], scratch: &mut KernelScratch) -> Vec<f32> {
        self.forward_batch_with(x, 1, scratch)
    }

    /// Forward pass over `rows` stacked inputs (`[rows × c_in·len_in]`,
    /// row-major), producing `[rows × c_out·len_out]`.
    ///
    /// Every row's windows are unrolled into one shared
    /// `[c_in·kernel × rows·len_out]` im2col matrix (row `r` owns
    /// columns `r·len_out..`), so the whole batch is one
    /// `[c_out × c_in·kernel]` GEMM seeded with the bias. Each output
    /// keeps the `(ci, k)` accumulation order of the naive loop, which
    /// `Backend::Reference` still runs row by row. Either way a batch
    /// is bit-identical to its rows run one at a time.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != rows × c_in × len_in`.
    pub fn forward_batch_with(
        &self,
        xs: &[f32],
        rows: usize,
        scratch: &mut KernelScratch,
    ) -> Vec<f32> {
        let in_dim = self.in_dim();
        let out_dim = self.out_dim();
        assert_eq!(xs.len(), rows * in_dim, "Conv1d input size mismatch");
        if scratch.backend() == Backend::Reference {
            let mut ys = scratch.take(rows * out_dim);
            for (x, y) in xs.chunks_exact(in_dim).zip(ys.chunks_exact_mut(out_dim)) {
                self.forward_reference(x, y);
            }
            return ys;
        }
        let len_out = self.len_out();
        let r = self.c_in * self.kernel;
        let n = rows * len_out;
        let mut cols = scratch.take(r * n);
        im2col(
            xs,
            rows,
            self.c_in,
            self.len_in,
            self.kernel,
            self.stride,
            &mut cols,
        );
        // Channel-major over the whole batch: `[c_out × rows·len_out]`.
        let mut yc = scratch.take(self.c_out * n);
        for (o, row) in yc.chunks_exact_mut(n).enumerate() {
            row.fill(self.b[o]);
        }
        kernels::gemm_nn(scratch.backend(), self.c_out, n, r, &self.w, &cols, &mut yc);
        scratch.recycle(cols);
        if rows == 1 {
            return yc;
        }
        // Regroup to row-major `[rows × c_out·len_out]`.
        let mut ys = scratch.take(rows * out_dim);
        for (o, chan) in yc.chunks_exact(n).enumerate() {
            for (row, seg) in chan.chunks_exact(len_out).enumerate() {
                let at = row * out_dim + o * len_out;
                ys[at..at + len_out].copy_from_slice(seg);
            }
        }
        scratch.recycle(yc);
        ys
    }

    /// The seed repository's original 4-deep loop, bit-for-bit, for one
    /// row: `y` is that row's `c_out × len_out` output.
    fn forward_reference(&self, x: &[f32], y: &mut [f32]) {
        let len_out = self.len_out();
        for o in 0..self.c_out {
            for j in 0..len_out {
                let mut acc = self.b[o];
                let start = j * self.stride;
                for ci in 0..self.c_in {
                    let xrow = &x[ci * self.len_in + start..ci * self.len_in + start + self.kernel];
                    let wrow = &self.w[self.widx(o, ci, 0)..self.widx(o, ci, 0) + self.kernel];
                    for k in 0..self.kernel {
                        acc += wrow[k] * xrow[k];
                    }
                }
                y[o * len_out + j] = acc;
            }
        }
    }

    /// Backward pass: accumulates gradients, returns `∂L/∂x`.
    pub fn backward(&mut self, x: &[f32], grad_out: &[f32]) -> Vec<f32> {
        kernels::with_thread_scratch(|s| self.backward_with(x, grad_out, s))
    }

    /// [`Conv1d::backward`] reusing im2col buffers from `scratch`: the
    /// one-row case of [`Conv1d::backward_batch_with`].
    pub fn backward_with(
        &mut self,
        x: &[f32],
        grad_out: &[f32],
        scratch: &mut KernelScratch,
    ) -> Vec<f32> {
        self.backward_batch_with(x, grad_out, 1, scratch)
    }

    /// Backward pass over `rows` stacked `(x, grad_out)` pairs
    /// (`[rows × c_in·len_in]` and `[rows × c_out·len_out]`): parameter
    /// gradients accumulate across the whole batch, and the stacked
    /// `∂L/∂x` (`[rows × c_in·len_in]`) is returned.
    ///
    /// Weight gradients accumulate through the shared im2col matrix of
    /// the batched forward (`gw += grads · colsᵀ`, one GEMM), replacing
    /// the duplicated window re-walk of the naive loop. Its columns run
    /// row-major over `(row, j)`, so every `gw`/`gb` element sums its
    /// terms in the order of `rows` one-row calls made in ascending
    /// row order: the batch is bit-identical to them. Input gradients
    /// come from `colsᵀ`-shaped `gcols = Wᵀ · grads` scattered back
    /// per row with col2im; overlapping windows are summed in a
    /// different (output-major) order than the naive loop, a documented
    /// reassociation of gradient terms (see DESIGN.md).
    /// `Backend::Reference` runs the naive loop row by row.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn backward_batch_with(
        &mut self,
        xs: &[f32],
        grads: &[f32],
        rows: usize,
        scratch: &mut KernelScratch,
    ) -> Vec<f32> {
        let in_dim = self.in_dim();
        let out_dim = self.out_dim();
        assert_eq!(xs.len(), rows * in_dim, "Conv1d input size mismatch");
        assert_eq!(grads.len(), rows * out_dim, "Conv1d gradient size mismatch");
        let mut gx = vec![0.0; rows * in_dim];
        let backend = scratch.backend();
        if backend == Backend::Reference {
            for ((x, g), gx) in xs
                .chunks_exact(in_dim)
                .zip(grads.chunks_exact(out_dim))
                .zip(gx.chunks_exact_mut(in_dim))
            {
                self.backward_reference(x, g, gx);
            }
            return gx;
        }
        let len_out = self.len_out();
        let r = self.c_in * self.kernel;
        let n = rows * len_out;
        let mut cols = scratch.take(r * n);
        im2col(
            xs,
            rows,
            self.c_in,
            self.len_in,
            self.kernel,
            self.stride,
            &mut cols,
        );
        // Channel-major over the whole batch, `[c_out × rows·len_out]`,
        // the layout of the forward GEMM's output.
        // A single row already has that layout.
        let regrouped = (rows > 1).then(|| {
            let mut gc = scratch.take(self.c_out * n);
            for (row, g) in grads.chunks_exact(out_dim).enumerate() {
                for (o, seg) in g.chunks_exact(len_out).enumerate() {
                    let at = o * n + row * len_out;
                    gc[at..at + len_out].copy_from_slice(seg);
                }
            }
            gc
        });
        let gc = regrouped.as_deref().unwrap_or(grads);
        for (o, grow) in gc.chunks_exact(n).enumerate() {
            let mut s = self.gb[o];
            for &g in grow {
                s += g;
            }
            self.gb[o] = s;
        }
        kernels::gemm_nt(backend, self.c_out, r, n, gc, &cols, &mut self.gw);
        let mut gcols = scratch.take(r * n);
        kernels::gemm_tn(backend, r, n, self.c_out, &self.w, gc, &mut gcols);
        col2im_accumulate(
            &gcols,
            rows,
            self.c_in,
            self.len_in,
            self.kernel,
            self.stride,
            &mut gx,
        );
        scratch.recycle(gcols);
        scratch.recycle(cols);
        if let Some(gc) = regrouped {
            scratch.recycle(gc);
        }
        gx
    }

    /// The seed repository's original backward loop, bit-for-bit, for
    /// one row: `gx` is that row's zeroed `∂L/∂x`.
    fn backward_reference(&mut self, x: &[f32], grad_out: &[f32], gx: &mut [f32]) {
        let len_out = self.len_out();
        for o in 0..self.c_out {
            for j in 0..len_out {
                let g = grad_out[o * len_out + j];
                if g == 0.0 {
                    continue;
                }
                self.gb[o] += g;
                let start = j * self.stride;
                for ci in 0..self.c_in {
                    let base_x = ci * self.len_in + start;
                    let base_w = self.widx(o, ci, 0);
                    for k in 0..self.kernel {
                        self.gw[base_w + k] += g * x[base_x + k];
                        gx[base_x + k] += g * self.w[base_w + k];
                    }
                }
            }
        }
    }
}

impl Parameterized for Conv1d {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.w, &mut self.gw);
        f(&mut self.b, &mut self.gb);
    }
}

/// One layer of a [`Sequential`] network.
#[derive(Debug, Clone, PartialEq)]
pub enum Layer {
    /// Fully-connected layer.
    Dense(Dense),
    /// 1-D convolution.
    Conv1d(Conv1d),
    /// Rectified linear unit.
    Relu,
}

impl Layer {
    /// Convenience constructor for a [`Dense`] layer.
    pub fn dense(in_dim: usize, out_dim: usize, seed: u64) -> Layer {
        Layer::Dense(Dense::new(in_dim, out_dim, seed))
    }

    /// Convenience constructor for a [`Conv1d`] layer.
    pub fn conv1d(
        c_in: usize,
        len_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        seed: u64,
    ) -> Layer {
        Layer::Conv1d(Conv1d::new(c_in, len_in, c_out, kernel, stride, seed))
    }

    /// Convenience constructor for a ReLU.
    pub fn relu() -> Layer {
        Layer::Relu
    }

    #[cfg(test)]
    fn forward(&self, x: &[f32]) -> Vec<f32> {
        kernels::with_thread_scratch(|s| self.forward_batch_with(x, 1, s))
    }

    /// Forward pass over `rows` stacked inputs (`[rows × in_dim]`).
    fn forward_batch_with(&self, xs: &[f32], rows: usize, scratch: &mut KernelScratch) -> Vec<f32> {
        match self {
            Layer::Dense(d) => d.forward_batch_with(xs, rows, scratch),
            Layer::Conv1d(c) => c.forward_batch_with(xs, rows, scratch),
            Layer::Relu => {
                let mut y = scratch.take(xs.len());
                for (slot, &v) in y.iter_mut().zip(xs) {
                    *slot = v.max(0.0);
                }
                y
            }
        }
    }

    #[cfg(test)]
    fn backward(&mut self, x: &[f32], grad_out: &[f32]) -> Vec<f32> {
        kernels::with_thread_scratch(|s| self.backward_batch_with(x, grad_out, 1, s))
    }

    /// Backward pass over `rows` stacked `(x, grad_out)` pairs; returns
    /// the stacked `∂L/∂x`.
    fn backward_batch_with(
        &mut self,
        xs: &[f32],
        grads: &[f32],
        rows: usize,
        scratch: &mut KernelScratch,
    ) -> Vec<f32> {
        match self {
            Layer::Dense(d) => d.backward_batch_with(xs, grads, rows, scratch),
            Layer::Conv1d(c) => c.backward_batch_with(xs, grads, rows, scratch),
            Layer::Relu => {
                let mut gx = scratch.take(xs.len());
                for ((slot, &xi), &g) in gx.iter_mut().zip(xs).zip(grads) {
                    *slot = if xi > 0.0 { g } else { 0.0 };
                }
                gx
            }
        }
    }
}

impl Parameterized for Layer {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        match self {
            Layer::Dense(d) => d.visit_params(f),
            Layer::Conv1d(c) => c.visit_params(f),
            Layer::Relu => {}
        }
    }
}

/// Saved activations from one [`Sequential::forward_cached`] call:
/// the input each layer received, plus the final output, each
/// `[rows × dim]` for a batched call.
#[derive(Debug, Clone)]
pub struct SeqCache {
    rows: usize,
    inputs: Vec<Vec<f32>>,
    /// Final output of the pass.
    pub output: Vec<f32>,
}

/// A chain of layers applied in order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Sequential {
    layers: Vec<Layer>,
}

impl Sequential {
    /// Creates a network from layers (may be empty = identity).
    pub fn new(layers: Vec<Layer>) -> Self {
        Sequential { layers }
    }

    /// Inference-only forward pass.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        kernels::with_thread_scratch(|s| self.forward_with(x, s))
    }

    /// [`Sequential::forward`] reusing buffers from `scratch`: the
    /// one-row case of [`Sequential::forward_batch_with`].
    pub fn forward_with(&self, x: &[f32], scratch: &mut KernelScratch) -> Vec<f32> {
        self.forward_batch_with(x, 1, scratch)
    }

    /// Inference over `rows` stacked inputs (`[rows × in_dim]`,
    /// row-major): each layer runs once for the whole batch, and
    /// intermediate activations are recycled as soon as the next layer
    /// has consumed them. Bit-identical to running the rows one at a
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len()` is not `rows` times the first layer's input
    /// size.
    pub fn forward_batch_with(
        &self,
        xs: &[f32],
        rows: usize,
        scratch: &mut KernelScratch,
    ) -> Vec<f32> {
        let mut cur = scratch.take(xs.len());
        cur.copy_from_slice(xs);
        for l in &self.layers {
            let next = l.forward_batch_with(&cur, rows, scratch);
            scratch.recycle(std::mem::replace(&mut cur, next));
        }
        cur
    }

    /// Forward pass that records the activations needed by
    /// [`Sequential::backward`].
    pub fn forward_cached(&self, x: &[f32]) -> SeqCache {
        kernels::with_thread_scratch(|s| self.forward_cached_with(x, s))
    }

    /// [`Sequential::forward_cached`] reusing buffers from `scratch`:
    /// the one-row case of [`Sequential::forward_cached_batch_with`].
    pub fn forward_cached_with(&self, x: &[f32], scratch: &mut KernelScratch) -> SeqCache {
        self.forward_cached_batch_with(x, 1, scratch)
    }

    /// Caching forward pass over `rows` stacked inputs (`[rows ×
    /// in_dim]`, row-major): each layer runs once for the whole batch,
    /// exactly as in [`Sequential::forward_batch_with`], and its input
    /// is kept for [`Sequential::backward_with`].
    ///
    /// Layer inputs are moved into the cache instead of cloned; the
    /// cache still owns plain `Vec`s because BPTT keeps it alive
    /// across the whole sequence.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len()` is not `rows` times the first layer's input
    /// size.
    pub fn forward_cached_batch_with(
        &self,
        xs: &[f32],
        rows: usize,
        scratch: &mut KernelScratch,
    ) -> SeqCache {
        let mut inputs = Vec::with_capacity(self.layers.len());
        let mut cur = scratch.take(xs.len());
        cur.copy_from_slice(xs);
        for l in &self.layers {
            let next = l.forward_batch_with(&cur, rows, scratch);
            inputs.push(std::mem::replace(&mut cur, next));
        }
        SeqCache {
            rows,
            inputs,
            output: cur,
        }
    }

    /// Backward pass through the whole chain.
    pub fn backward(&mut self, cache: &SeqCache, grad_out: &[f32]) -> Vec<f32> {
        kernels::with_thread_scratch(|s| self.backward_with(cache, grad_out, s))
    }

    /// [`Sequential::backward`] reusing buffers from `scratch`. The
    /// gradient covers every row the cache holds (`[rows × out_dim]`),
    /// and each layer's backward runs once for the whole batch,
    /// bit-identical to the rows run one at a time in ascending order.
    pub fn backward_with(
        &mut self,
        cache: &SeqCache,
        grad_out: &[f32],
        scratch: &mut KernelScratch,
    ) -> Vec<f32> {
        let mut grad = scratch.take(grad_out.len());
        grad.copy_from_slice(grad_out);
        for (l, x) in self.layers.iter_mut().zip(&cache.inputs).rev() {
            let next = l.backward_batch_with(x, &grad, cache.rows, scratch);
            scratch.recycle(std::mem::replace(&mut grad, next));
        }
        grad
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` if the chain is empty (identity function).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Parameterized for Sequential {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }
}

/// The two-input encoder of Fig. 6: a conv branch over the
/// pseudospectrum part of the frame, the periodogram part passed
/// through directly, both merged by fully-connected layers.
///
/// The input frame is the concatenation
/// `[pseudospectrum (split) | periodogram (rest)]`.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoBranchEncoder {
    /// Length of the first (conv-branch) part of the input.
    pub split: usize,
    /// Convolutional branch applied to the first part.
    pub branch: Sequential,
    /// Merge network applied to `[branch output | second part]`.
    pub merge: Sequential,
}

/// Cache for [`TwoBranchEncoder::forward_cached`].
#[derive(Debug, Clone)]
pub struct TwoBranchCache {
    branch: SeqCache,
    merge: SeqCache,
    /// Final output of the encoder.
    pub output: Vec<f32>,
}

impl TwoBranchEncoder {
    /// Creates the encoder.
    pub fn new(split: usize, branch: Sequential, merge: Sequential) -> Self {
        TwoBranchEncoder {
            split,
            branch,
            merge,
        }
    }

    /// Inference-only forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() < split`.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        kernels::with_thread_scratch(|s| self.forward_with(x, s))
    }

    /// [`TwoBranchEncoder::forward`] reusing buffers from `scratch`:
    /// the one-row case of [`TwoBranchEncoder::forward_batch_with`].
    pub fn forward_with(&self, x: &[f32], scratch: &mut KernelScratch) -> Vec<f32> {
        self.forward_batch_with(x, 1, scratch)
    }

    /// Inference over `rows` stacked frames (`[rows × dim]`,
    /// row-major): the conv branch runs once over every row's
    /// pseudospectrum part, then the merge network runs once over every
    /// row's `[branch output | second part]`. Bit-identical to running
    /// the rows one at a time.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero, `xs.len()` is not a multiple of `rows`,
    /// or a frame is shorter than `split`.
    pub fn forward_batch_with(
        &self,
        xs: &[f32],
        rows: usize,
        scratch: &mut KernelScratch,
    ) -> Vec<f32> {
        let spec = self.spectrum_rows(xs, rows, scratch);
        let feats = self.branch.forward_batch_with(&spec, rows, scratch);
        scratch.recycle(spec);
        let merged = self.merge_rows(&feats, xs, rows, scratch);
        scratch.recycle(feats);
        let out = self.merge.forward_batch_with(&merged, rows, scratch);
        scratch.recycle(merged);
        out
    }

    /// Gathers every row's conv-branch part out of `rows` stacked
    /// frames into `[rows × split]`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero, `xs.len()` is not a multiple of `rows`,
    /// or a frame is shorter than `split`.
    fn spectrum_rows(&self, xs: &[f32], rows: usize, scratch: &mut KernelScratch) -> Vec<f32> {
        assert!(
            rows > 0 && xs.len().is_multiple_of(rows),
            "batch is not rows × frame"
        );
        let dim = xs.len() / rows;
        let split = self.split;
        assert!(dim >= split, "input shorter than split point");
        let mut spec = scratch.take(rows * split);
        for r in 0..rows {
            spec[r * split..(r + 1) * split].copy_from_slice(&xs[r * dim..r * dim + split]);
        }
        spec
    }

    /// Builds every row's merge input `[branch output | second part]`
    /// from the stacked branch outputs `feats` and frames `xs`.
    fn merge_rows(
        &self,
        feats: &[f32],
        xs: &[f32],
        rows: usize,
        scratch: &mut KernelScratch,
    ) -> Vec<f32> {
        let dim = xs.len() / rows;
        let feat = feats.len() / rows;
        let width = feat + dim - self.split;
        let mut merged = scratch.take(rows * width);
        for r in 0..rows {
            let row = &mut merged[r * width..(r + 1) * width];
            row[..feat].copy_from_slice(&feats[r * feat..(r + 1) * feat]);
            row[feat..].copy_from_slice(&xs[r * dim + self.split..(r + 1) * dim]);
        }
        merged
    }

    /// Caching forward pass.
    pub fn forward_cached(&self, x: &[f32]) -> TwoBranchCache {
        kernels::with_thread_scratch(|s| self.forward_cached_with(x, s))
    }

    /// [`TwoBranchEncoder::forward_cached`] reusing buffers from
    /// `scratch`: the one-row case of
    /// [`TwoBranchEncoder::forward_cached_batch_with`].
    pub fn forward_cached_with(&self, x: &[f32], scratch: &mut KernelScratch) -> TwoBranchCache {
        self.forward_cached_batch_with(x, 1, scratch)
    }

    /// Caching forward pass over `rows` stacked frames, computed as in
    /// [`TwoBranchEncoder::forward_batch_with`].
    ///
    /// # Panics
    ///
    /// As [`TwoBranchEncoder::forward_batch_with`].
    pub fn forward_cached_batch_with(
        &self,
        xs: &[f32],
        rows: usize,
        scratch: &mut KernelScratch,
    ) -> TwoBranchCache {
        let spec = self.spectrum_rows(xs, rows, scratch);
        let branch = self.branch.forward_cached_batch_with(&spec, rows, scratch);
        scratch.recycle(spec);
        let merged = self.merge_rows(&branch.output, xs, rows, scratch);
        let merge = self.merge.forward_cached_batch_with(&merged, rows, scratch);
        scratch.recycle(merged);
        let output = merge.output.clone();
        TwoBranchCache {
            branch,
            merge,
            output,
        }
    }

    /// Backward pass; returns `∂L/∂x` over the full concatenated input.
    pub fn backward(&mut self, cache: &TwoBranchCache, grad_out: &[f32]) -> Vec<f32> {
        kernels::with_thread_scratch(|s| self.backward_with(cache, grad_out, s))
    }

    /// [`TwoBranchEncoder::backward`] reusing buffers from `scratch`.
    /// The gradient covers every row the cache holds, stacked; so does
    /// the returned `∂L/∂x`.
    pub fn backward_with(
        &mut self,
        cache: &TwoBranchCache,
        grad_out: &[f32],
        scratch: &mut KernelScratch,
    ) -> Vec<f32> {
        let rows = cache.branch.rows;
        let grad_merged = self.merge.backward_with(&cache.merge, grad_out, scratch);
        let width = grad_merged.len() / rows;
        let feat = cache.branch.output.len() / rows;
        let mut grad_feat = scratch.take(rows * feat);
        for r in 0..rows {
            grad_feat[r * feat..(r + 1) * feat]
                .copy_from_slice(&grad_merged[r * width..r * width + feat]);
        }
        let grad_spec = self
            .branch
            .backward_with(&cache.branch, &grad_feat, scratch);
        scratch.recycle(grad_feat);
        let split = self.split;
        let dim = split + width - feat;
        let mut gx = vec![0.0; rows * dim];
        for r in 0..rows {
            let row = &mut gx[r * dim..(r + 1) * dim];
            row[..split].copy_from_slice(&grad_spec[r * split..(r + 1) * split]);
            row[split..].copy_from_slice(&grad_merged[r * width + feat..(r + 1) * width]);
        }
        scratch.recycle(grad_merged);
        gx
    }
}

impl Parameterized for TwoBranchEncoder {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.branch.visit_params(f);
        self.merge.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central-difference numerical gradient of a scalar loss.
    fn assert_matches_numeric<F>(forward_loss: F, analytic: &[f32], x: &mut [f32], tol: f32)
    where
        F: Fn(&[f32]) -> f32,
    {
        let eps = 1e-3;
        for i in 0..x.len() {
            let orig = x[i];
            x[i] = orig + eps;
            let lp = forward_loss(x);
            x[i] = orig - eps;
            let lm = forward_loss(x);
            x[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - analytic[i]).abs() < tol * (1.0 + num.abs()),
                "grad[{i}]: numeric {num}, analytic {}",
                analytic[i]
            );
        }
    }

    fn sum_loss(y: &[f32]) -> f32 {
        // Loss = Σ y²/2 so grad_out = y.
        y.iter().map(|v| v * v * 0.5).sum()
    }

    #[test]
    fn dense_forward_known_values() {
        let mut d = Dense::new(2, 2, 0);
        d.w = vec![1.0, 2.0, 3.0, 4.0];
        d.b = vec![0.5, -0.5];
        let y = d.forward(&[1.0, 1.0]);
        assert_eq!(y, vec![3.5, 6.5]);
    }

    #[test]
    fn dense_input_gradient_is_numeric() {
        let d = Dense::new(4, 3, 1);
        let mut x = vec![0.3, -0.2, 0.8, 0.1];
        let y = d.forward(&x);
        let mut dm = d.clone();
        let gx = dm.backward(&x, &y);
        assert_matches_numeric(|x| sum_loss(&d.forward(x)), &gx, &mut x, 1e-2);
    }

    #[test]
    fn dense_weight_gradient_is_numeric() {
        let d = Dense::new(3, 2, 2);
        let x = vec![0.5, -1.0, 0.25];
        let y = d.forward(&x);
        let mut dm = d.clone();
        dm.backward(&x, &y);
        // Numeric gradient wrt each weight.
        let eps = 1e-3;
        let mut probe = d.clone();
        for i in 0..probe.w.len() {
            let orig = probe.w[i];
            probe.w[i] = orig + eps;
            let lp = sum_loss(&probe.forward(&x));
            probe.w[i] = orig - eps;
            let lm = sum_loss(&probe.forward(&x));
            probe.w[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - dm.gw[i]).abs() < 1e-2, "w[{i}]");
        }
    }

    #[test]
    fn conv_output_shape() {
        let c = Conv1d::new(2, 10, 3, 3, 2, 0);
        assert_eq!(c.len_out(), 4);
        assert_eq!(c.out_dim(), 12);
        let y = c.forward(&[0.1; 20]);
        assert_eq!(y.len(), 12);
    }

    #[test]
    fn conv_known_values() {
        // Single channel, identity-ish kernel.
        let mut c = Conv1d::new(1, 4, 1, 2, 1, 0);
        c.w = vec![1.0, -1.0];
        c.b = vec![0.0];
        let y = c.forward(&[3.0, 1.0, 4.0, 1.0]);
        assert_eq!(y, vec![2.0, -3.0, 3.0]);
    }

    #[test]
    fn conv_gradients_are_numeric() {
        let c = Conv1d::new(2, 8, 3, 3, 2, 5);
        let mut x: Vec<f32> = (0..16).map(|i| (i as f32 * 0.37).sin()).collect();
        let y = c.forward(&x);
        let mut cm = c.clone();
        let gx = cm.backward(&x, &y);
        assert_matches_numeric(|x| sum_loss(&c.forward(x)), &gx, &mut x, 1e-2);
        // Weight gradients.
        let eps = 1e-3;
        let mut probe = c.clone();
        for i in 0..probe.w.len() {
            let orig = probe.w[i];
            probe.w[i] = orig + eps;
            let lp = sum_loss(&probe.forward(&x));
            probe.w[i] = orig - eps;
            let lm = sum_loss(&probe.forward(&x));
            probe.w[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - cm.gw[i]).abs() < 2e-2,
                "w[{i}]: {num} vs {}",
                cm.gw[i]
            );
        }
    }

    #[test]
    fn relu_forward_backward() {
        let l = Layer::relu();
        let y = l.forward(&[-1.0, 0.0, 2.0]);
        assert_eq!(y, vec![0.0, 0.0, 2.0]);
        let mut lm = l.clone();
        let gx = lm.backward(&[-1.0, 0.0, 2.0], &[1.0, 1.0, 1.0]);
        assert_eq!(gx, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn sequential_composition_gradient() {
        let seq = Sequential::new(vec![
            Layer::conv1d(1, 12, 2, 3, 2, 3),
            Layer::relu(),
            Layer::dense(10, 4, 4),
            Layer::relu(),
            Layer::dense(4, 2, 5),
        ]);
        let mut x: Vec<f32> = (0..12).map(|i| (i as f32 * 0.5).cos()).collect();
        let cache = seq.forward_cached(&x);
        let mut sm = seq.clone();
        let gx = sm.backward(&cache, &cache.output);
        assert_matches_numeric(|x| sum_loss(&seq.forward(x)), &gx, &mut x, 2e-2);
    }

    #[test]
    fn sequential_cached_matches_plain() {
        let seq = Sequential::new(vec![Layer::dense(3, 5, 1), Layer::relu()]);
        let x = [0.1, -0.7, 0.4];
        assert_eq!(seq.forward(&x), seq.forward_cached(&x).output);
    }

    #[test]
    fn empty_sequential_is_identity() {
        let seq = Sequential::default();
        assert!(seq.is_empty());
        assert_eq!(seq.forward(&[1.0, 2.0]), vec![1.0, 2.0]);
    }

    #[test]
    fn two_branch_routes_both_inputs() {
        let enc = TwoBranchEncoder::new(
            6,
            Sequential::new(vec![Layer::dense(6, 3, 1), Layer::relu()]),
            Sequential::new(vec![Layer::dense(5, 4, 2)]),
        );
        let x = vec![0.1; 8]; // 6 spec + 2 direct
        let y = enc.forward(&x);
        assert_eq!(y.len(), 4);
        assert_eq!(enc.forward_cached(&x).output, y);
    }

    #[test]
    fn two_branch_gradient_is_numeric() {
        let enc = TwoBranchEncoder::new(
            6,
            Sequential::new(vec![Layer::dense(6, 3, 7), Layer::relu()]),
            Sequential::new(vec![Layer::dense(5, 2, 8)]),
        );
        let mut x: Vec<f32> = (0..8).map(|i| (i as f32 * 0.3).sin()).collect();
        let cache = enc.forward_cached(&x);
        let mut em = enc.clone();
        let gx = em.backward(&cache, &cache.output);
        assert_matches_numeric(|x| sum_loss(&enc.forward(x)), &gx, &mut x, 2e-2);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn dense_rejects_wrong_size() {
        Dense::new(3, 2, 0).forward(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "kernel")]
    fn conv_rejects_oversized_kernel() {
        Conv1d::new(1, 3, 1, 5, 1, 0);
    }
}
