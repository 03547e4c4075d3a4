//! Long Short-Term Memory layers with backpropagation through time.
//!
//! The paper's engine stacks two LSTM layers of 32 memory cells on top
//! of the CNN encoder (Section IV-B2). Each cell carries a scalar state
//! `c` guarded by input/forget/output gates, letting the network keep
//! context across the spectrum-frame sequence — the property the
//! Fig. 17 ablation shows is essential.

//! ## Kernel backends
//!
//! The gate matmuls dispatch on the [`m2ai_kernels::Backend`] of the
//! [`KernelScratch`] each pass is handed. The fast path batches
//! `W·x_t` for the whole sequence into one `[T × 4H]` GEMM, runs each
//! step's recurrent `U·h_{t-1}` as a fused `[4H × H]` GEMV continuing the
//! same accumulator, and folds BPTT's weight-gradient outer products
//! into two `[4H × T]·[T × dim]` GEMMs after the time loop —
//! preserving the reference accumulation order (ascending inputs,
//! descending time) so results agree to within FMA rounding.

use crate::init::xavier_uniform;
use crate::Parameterized;
use m2ai_kernels::{self as kernels, Backend, KernelScratch};

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// One LSTM layer.
///
/// Gate order in the stacked weight matrices is `[input, forget,
/// cell-candidate, output]`. The forget-gate bias is initialised to 1,
/// the standard trick to preserve memory early in training.
#[derive(Debug, Clone, PartialEq)]
pub struct Lstm {
    in_dim: usize,
    hidden: usize,
    /// Input weights, `4·hidden × in_dim` row-major.
    w: Vec<f32>,
    /// Recurrent weights, `4·hidden × hidden` row-major.
    u: Vec<f32>,
    /// Biases, `4·hidden`.
    b: Vec<f32>,
    gw: Vec<f32>,
    gu: Vec<f32>,
    gb: Vec<f32>,
}

/// Per-timestep saved activations.
#[derive(Debug, Clone)]
struct StepCache {
    x: Vec<f32>,
    h_prev: Vec<f32>,
    c_prev: Vec<f32>,
    i: Vec<f32>,
    f: Vec<f32>,
    g: Vec<f32>,
    o: Vec<f32>,
    c: Vec<f32>,
}

/// Saved activations of one [`Lstm::forward_sequence`] call.
#[derive(Debug, Clone)]
pub struct LstmCache {
    steps: Vec<StepCache>,
    /// Hidden state after each timestep.
    pub outputs: Vec<Vec<f32>>,
}

impl Lstm {
    /// Creates an LSTM layer with Xavier-uniform weights.
    pub fn new(in_dim: usize, hidden: usize, seed: u64) -> Self {
        let mut b = vec![0.0; 4 * hidden];
        for fbias in b.iter_mut().skip(hidden).take(hidden) {
            *fbias = 1.0;
        }
        Lstm {
            in_dim,
            hidden,
            w: xavier_uniform(in_dim, hidden, 4 * hidden * in_dim, seed),
            u: xavier_uniform(hidden, hidden, 4 * hidden * hidden, seed ^ 0xFACE),
            b,
            gw: vec![0.0; 4 * hidden * in_dim],
            gu: vec![0.0; 4 * hidden * hidden],
            gb: vec![0.0; 4 * hidden],
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Number of memory cells.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Runs the layer over a sequence from a zero initial state,
    /// returning per-step hidden states and the BPTT cache.
    ///
    /// # Panics
    ///
    /// Panics if any frame's length differs from `in_dim`.
    pub fn forward_sequence(&self, xs: &[Vec<f32>]) -> LstmCache {
        kernels::with_thread_scratch(|s| self.forward_sequence_with(xs, s))
    }

    /// [`Lstm::forward_sequence`] reusing buffers from `scratch`.
    ///
    /// Fast path: `W·x_t` for all timesteps is one `[T × 4H]` GEMM up
    /// front; each step then continues that row's accumulator with
    /// the recurrent `U·h_{t-1}` GEMV and adds the bias last —
    /// exactly the reference chaining (inputs before recurrence,
    /// bias outermost).
    pub fn forward_sequence_with(&self, xs: &[Vec<f32>], scratch: &mut KernelScratch) -> LstmCache {
        let backend = scratch.backend();
        if backend == Backend::Reference || xs.is_empty() {
            return self.forward_sequence_reference(xs);
        }
        let h = self.hidden;
        let t_len = xs.len();
        let mut xflat = scratch.take(t_len * self.in_dim);
        for (t, x) in xs.iter().enumerate() {
            assert_eq!(x.len(), self.in_dim, "LSTM input size mismatch");
            xflat[t * self.in_dim..(t + 1) * self.in_dim].copy_from_slice(x);
        }
        let mut zw = scratch.take(t_len * 4 * h);
        kernels::gemm_nt(backend, t_len, 4 * h, self.in_dim, &xflat, &self.w, &mut zw);
        let mut zbuf = scratch.take(4 * h);
        let mut h_prev = vec![0.0; h];
        let mut c_prev = vec![0.0; h];
        let mut steps = Vec::with_capacity(t_len);
        let mut outputs = Vec::with_capacity(t_len);
        for (t, x) in xs.iter().enumerate() {
            zbuf.copy_from_slice(&zw[t * 4 * h..(t + 1) * 4 * h]);
            kernels::gemv(backend, 4 * h, h, &self.u, &h_prev, &mut zbuf);
            let mut i = vec![0.0; h];
            let mut f = vec![0.0; h];
            let mut g = vec![0.0; h];
            let mut o = vec![0.0; h];
            let mut c = vec![0.0; h];
            let mut h_new = vec![0.0; h];
            for k in 0..h {
                i[k] = sigmoid(self.b[k] + zbuf[k]);
                f[k] = sigmoid(self.b[h + k] + zbuf[h + k]);
                g[k] = (self.b[2 * h + k] + zbuf[2 * h + k]).tanh();
                o[k] = sigmoid(self.b[3 * h + k] + zbuf[3 * h + k]);
                c[k] = f[k] * c_prev[k] + i[k] * g[k];
                h_new[k] = o[k] * c[k].tanh();
            }
            steps.push(StepCache {
                x: x.clone(),
                h_prev: h_prev.clone(),
                c_prev: c_prev.clone(),
                i,
                f,
                g,
                o,
                c: c.clone(),
            });
            outputs.push(h_new.clone());
            h_prev = h_new;
            c_prev = c;
        }
        scratch.recycle(zbuf);
        scratch.recycle(zw);
        scratch.recycle(xflat);
        LstmCache { steps, outputs }
    }

    /// The seed repository's original step loop, bit-for-bit.
    fn forward_sequence_reference(&self, xs: &[Vec<f32>]) -> LstmCache {
        let h = self.hidden;
        let mut h_prev = vec![0.0; h];
        let mut c_prev = vec![0.0; h];
        let mut steps = Vec::with_capacity(xs.len());
        let mut outputs = Vec::with_capacity(xs.len());
        for x in xs {
            assert_eq!(x.len(), self.in_dim, "LSTM input size mismatch");
            // Pre-activations z = W x + U h_prev + b, laid out i|f|g|o.
            let mut z = self.b.clone();
            for (r, zr) in z.iter_mut().enumerate() {
                let wrow = &self.w[r * self.in_dim..(r + 1) * self.in_dim];
                let urow = &self.u[r * h..(r + 1) * h];
                let mut acc = 0.0;
                for (wv, xv) in wrow.iter().zip(x) {
                    acc += wv * xv;
                }
                for (uv, hv) in urow.iter().zip(&h_prev) {
                    acc += uv * hv;
                }
                *zr += acc;
            }
            let mut i = vec![0.0; h];
            let mut f = vec![0.0; h];
            let mut g = vec![0.0; h];
            let mut o = vec![0.0; h];
            let mut c = vec![0.0; h];
            let mut h_new = vec![0.0; h];
            for k in 0..h {
                i[k] = sigmoid(z[k]);
                f[k] = sigmoid(z[h + k]);
                g[k] = z[2 * h + k].tanh();
                o[k] = sigmoid(z[3 * h + k]);
                c[k] = f[k] * c_prev[k] + i[k] * g[k];
                h_new[k] = o[k] * c[k].tanh();
            }
            steps.push(StepCache {
                x: x.clone(),
                h_prev: h_prev.clone(),
                c_prev: c_prev.clone(),
                i,
                f,
                g,
                o,
                c: c.clone(),
            });
            outputs.push(h_new.clone());
            h_prev = h_new;
            c_prev = c;
        }
        LstmCache { steps, outputs }
    }

    /// One streaming timestep over `batch` independent sessions.
    ///
    /// `xs` is `[batch × in_dim]` row-major; `h` and `c` are
    /// `[batch × hidden]` carrying each session's previous state on
    /// entry and its new state on return. Rows never interact: row `r`
    /// of the batched GEMMs reduces exactly the chain a solo
    /// `[1 × ·]` step would, so a batched step is bit-identical to
    /// `batch` serial steps — and identical to the corresponding step
    /// of [`Lstm::forward_sequence`] from the same state (inputs
    /// before recurrence, bias outermost, same rounding on either
    /// backend). A one-row batch dispatches to the GEMV microkernels.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn step_batch_with(
        &self,
        batch: usize,
        xs: &[f32],
        h: &mut [f32],
        c: &mut [f32],
        scratch: &mut KernelScratch,
    ) {
        let hd = self.hidden;
        assert_eq!(xs.len(), batch * self.in_dim, "LSTM step input mismatch");
        assert_eq!(h.len(), batch * hd, "LSTM step hidden-state mismatch");
        assert_eq!(c.len(), batch * hd, "LSTM step cell-state mismatch");
        let mut z = scratch.take(batch * 4 * hd);
        let backend = scratch.backend();
        kernels::gemm_nt(backend, batch, 4 * hd, self.in_dim, xs, &self.w, &mut z);
        kernels::gemm_nt(backend, batch, 4 * hd, hd, h, &self.u, &mut z);
        for r in 0..batch {
            let zrow = &z[r * 4 * hd..(r + 1) * 4 * hd];
            let hrow = &mut h[r * hd..(r + 1) * hd];
            let crow = &mut c[r * hd..(r + 1) * hd];
            for k in 0..hd {
                let i = sigmoid(self.b[k] + zrow[k]);
                let f = sigmoid(self.b[hd + k] + zrow[hd + k]);
                let g = (self.b[2 * hd + k] + zrow[2 * hd + k]).tanh();
                let o = sigmoid(self.b[3 * hd + k] + zrow[3 * hd + k]);
                let cn = f * crow[k] + i * g;
                crow[k] = cn;
                hrow[k] = o * cn.tanh();
            }
        }
        scratch.recycle(z);
    }

    /// BPTT backward pass.
    ///
    /// `grad_outputs[t]` is `∂L/∂h_t` from the layers above; the return
    /// value is `∂L/∂x_t` for the layers below. Parameter gradients
    /// accumulate.
    pub fn backward_sequence(
        &mut self,
        cache: &LstmCache,
        grad_outputs: &[Vec<f32>],
    ) -> Vec<Vec<f32>> {
        kernels::with_thread_scratch(|s| self.backward_sequence_with(cache, grad_outputs, s))
    }

    /// [`Lstm::backward_sequence`] reusing buffers from `scratch`.
    ///
    /// Fast path: the time loop only does the scalar gate math and
    /// the per-step `Wᵀ`/`Uᵀ` GEMVs; pre-activation gradients and
    /// step inputs are packed into time-reversed `[T × dim]` matrices
    /// so `gw`/`gu` accumulate in two GEMMs afterwards, visiting
    /// timesteps in the same descending order as the reference loop.
    pub fn backward_sequence_with(
        &mut self,
        cache: &LstmCache,
        grad_outputs: &[Vec<f32>],
        scratch: &mut KernelScratch,
    ) -> Vec<Vec<f32>> {
        let h = self.hidden;
        let t_len = cache.steps.len();
        assert_eq!(grad_outputs.len(), t_len, "grad/step count mismatch");
        let backend = scratch.backend();
        if backend == Backend::Reference || t_len == 0 {
            return self.backward_sequence_reference(cache, grad_outputs);
        }
        let mut grad_xs = vec![vec![0.0; self.in_dim]; t_len];
        // Time-reversed packing: row `t_len-1-t` holds timestep `t`,
        // so the post-loop GEMMs reduce over descending time exactly
        // like the reference accumulation.
        let mut zrev = scratch.take(t_len * 4 * h);
        let mut xrev = scratch.take(t_len * self.in_dim);
        let mut hrev = scratch.take(t_len * h);
        let mut dh_next = scratch.take(h);
        let mut dc_next = scratch.take(h);
        for t in (0..t_len).rev() {
            let srow = t_len - 1 - t;
            let s = &cache.steps[t];
            {
                let zrow = &mut zrev[srow * 4 * h..(srow + 1) * 4 * h];
                for k in 0..h {
                    let dh = grad_outputs[t][k] + dh_next[k];
                    let tc = s.c[k].tanh();
                    let d_o = dh * tc;
                    let dc = dh * s.o[k] * (1.0 - tc * tc) + dc_next[k];
                    let d_i = dc * s.g[k];
                    let d_g = dc * s.i[k];
                    let d_f = dc * s.c_prev[k];
                    dc_next[k] = dc * s.f[k];
                    zrow[k] = d_i * s.i[k] * (1.0 - s.i[k]);
                    zrow[h + k] = d_f * s.f[k] * (1.0 - s.f[k]);
                    zrow[2 * h + k] = d_g * (1.0 - s.g[k] * s.g[k]);
                    zrow[3 * h + k] = d_o * s.o[k] * (1.0 - s.o[k]);
                }
            }
            let zrow = &zrev[srow * 4 * h..(srow + 1) * 4 * h];
            for (gb, &zg) in self.gb.iter_mut().zip(zrow) {
                *gb += zg;
            }
            kernels::gemv_t(backend, 4 * h, self.in_dim, &self.w, zrow, &mut grad_xs[t]);
            dh_next.fill(0.0);
            kernels::gemv_t(backend, 4 * h, h, &self.u, zrow, &mut dh_next);
            xrev[srow * self.in_dim..(srow + 1) * self.in_dim].copy_from_slice(&s.x);
            hrev[srow * h..(srow + 1) * h].copy_from_slice(&s.h_prev);
        }
        let in_dim = self.in_dim;
        kernels::gemm_tn(backend, 4 * h, in_dim, t_len, &zrev, &xrev, &mut self.gw);
        kernels::gemm_tn(backend, 4 * h, h, t_len, &zrev, &hrev, &mut self.gu);
        scratch.recycle(dc_next);
        scratch.recycle(dh_next);
        scratch.recycle(hrev);
        scratch.recycle(xrev);
        scratch.recycle(zrev);
        grad_xs
    }

    /// The seed repository's original BPTT loop, bit-for-bit.
    fn backward_sequence_reference(
        &mut self,
        cache: &LstmCache,
        grad_outputs: &[Vec<f32>],
    ) -> Vec<Vec<f32>> {
        let h = self.hidden;
        let t_len = cache.steps.len();
        let mut grad_xs = vec![vec![0.0; self.in_dim]; t_len];
        let mut dh_next = vec![0.0; h];
        let mut dc_next = vec![0.0; h];
        for t in (0..t_len).rev() {
            let s = &cache.steps[t];
            let mut z_grad = vec![0.0; 4 * h];
            let mut dc_prev = vec![0.0; h];
            for k in 0..h {
                let dh = grad_outputs[t][k] + dh_next[k];
                let tc = s.c[k].tanh();
                let d_o = dh * tc;
                let dc = dh * s.o[k] * (1.0 - tc * tc) + dc_next[k];
                let d_i = dc * s.g[k];
                let d_g = dc * s.i[k];
                let d_f = dc * s.c_prev[k];
                dc_prev[k] = dc * s.f[k];
                z_grad[k] = d_i * s.i[k] * (1.0 - s.i[k]);
                z_grad[h + k] = d_f * s.f[k] * (1.0 - s.f[k]);
                z_grad[2 * h + k] = d_g * (1.0 - s.g[k] * s.g[k]);
                z_grad[3 * h + k] = d_o * s.o[k] * (1.0 - s.o[k]);
            }
            let mut dh_prev = vec![0.0; h];
            for (r, &zg) in z_grad.iter().enumerate() {
                if zg == 0.0 {
                    continue;
                }
                self.gb[r] += zg;
                let wrow = &mut self.gw[r * self.in_dim..(r + 1) * self.in_dim];
                for (wi, xv) in wrow.iter_mut().zip(&s.x) {
                    *wi += zg * xv;
                }
                let urow = &mut self.gu[r * h..(r + 1) * h];
                for (ui, hv) in urow.iter_mut().zip(&s.h_prev) {
                    *ui += zg * hv;
                }
                let w_orig = &self.w[r * self.in_dim..(r + 1) * self.in_dim];
                for (gx, wv) in grad_xs[t].iter_mut().zip(w_orig) {
                    *gx += zg * wv;
                }
                let u_orig = &self.u[r * h..(r + 1) * h];
                for (dh, uv) in dh_prev.iter_mut().zip(u_orig) {
                    *dh += zg * uv;
                }
            }
            dh_next = dh_prev;
            dc_next = dc_prev;
        }
        grad_xs
    }
}

impl Parameterized for Lstm {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.w, &mut self.gw);
        f(&mut self.u, &mut self.gu);
        f(&mut self.b, &mut self.gb);
    }
}

/// A stack of LSTM layers, each feeding the next (the paper uses two
/// layers of 32 cells).
#[derive(Debug, Clone, PartialEq)]
pub struct LstmStack {
    layers: Vec<Lstm>,
}

/// Persistent per-session hidden/cell state of an [`LstmStack`].
///
/// This is the "KV cache" of the streaming serving path: instead of
/// replaying a whole window through [`LstmStack::forward_sequence`],
/// a stream advances one frame at a time with
/// [`LstmStack::step_batch_with`], carrying this state between calls.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmStackState {
    /// Hidden state per layer (`hiddens[l]` long).
    h: Vec<Vec<f32>>,
    /// Cell state per layer.
    c: Vec<Vec<f32>>,
}

impl LstmStackState {
    /// Zeroes the state (stream reset after a gap).
    pub fn reset(&mut self) {
        for v in self.h.iter_mut().chain(self.c.iter_mut()) {
            v.fill(0.0);
        }
    }

    /// Number of stacked layers this state carries.
    pub fn n_layers(&self) -> usize {
        self.h.len()
    }

    /// Rebuilds a state from per-layer hidden and cell vectors (the
    /// deserialisation path of a stream checkpoint). Returns `None`
    /// when the layer counts differ or any layer's hidden and cell
    /// lengths disagree — a state that could not have come from
    /// [`LstmStack::zero_state`].
    pub fn from_parts(h: Vec<Vec<f32>>, c: Vec<Vec<f32>>) -> Option<LstmStackState> {
        if h.len() != c.len() || h.iter().zip(&c).any(|(a, b)| a.len() != b.len()) {
            return None;
        }
        Some(LstmStackState { h, c })
    }

    /// Hidden state of layer `l`.
    pub fn hidden(&self, l: usize) -> &[f32] {
        &self.h[l]
    }

    /// Cell state of layer `l`.
    pub fn cell(&self, l: usize) -> &[f32] {
        &self.c[l]
    }
}

/// Cache of a stacked forward pass.
#[derive(Debug, Clone)]
pub struct StackCache {
    caches: Vec<LstmCache>,
    /// Hidden states of the top layer.
    pub outputs: Vec<Vec<f32>>,
}

impl LstmStack {
    /// Creates a stack; `hiddens[i]` is the cell count of layer `i`.
    ///
    /// # Panics
    ///
    /// Panics if `hiddens` is empty.
    pub fn new(in_dim: usize, hiddens: &[usize], seed: u64) -> Self {
        assert!(!hiddens.is_empty(), "stack needs at least one layer");
        let mut layers = Vec::with_capacity(hiddens.len());
        let mut d = in_dim;
        for (idx, &h) in hiddens.iter().enumerate() {
            layers.push(Lstm::new(d, h, seed.wrapping_add(idx as u64 * 7919)));
            d = h;
        }
        LstmStack { layers }
    }

    /// Output dimension (top layer's cell count).
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").hidden()
    }

    /// Input dimension expected by the bottom layer.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("non-empty").in_dim()
    }

    /// Forward over a sequence.
    pub fn forward_sequence(&self, xs: &[Vec<f32>]) -> StackCache {
        kernels::with_thread_scratch(|s| self.forward_sequence_with(xs, s))
    }

    /// [`LstmStack::forward_sequence`] reusing buffers from `scratch`.
    pub fn forward_sequence_with(
        &self,
        xs: &[Vec<f32>],
        scratch: &mut KernelScratch,
    ) -> StackCache {
        let mut caches: Vec<LstmCache> = Vec::with_capacity(self.layers.len());
        for (li, l) in self.layers.iter().enumerate() {
            let cache = match li {
                0 => l.forward_sequence_with(xs, scratch),
                _ => l.forward_sequence_with(&caches[li - 1].outputs, scratch),
            };
            caches.push(cache);
        }
        let outputs = caches.last().expect("non-empty").outputs.clone();
        StackCache { caches, outputs }
    }

    /// Creates a zero [`LstmStackState`] for one stream.
    pub fn zero_state(&self) -> LstmStackState {
        LstmStackState {
            h: self.layers.iter().map(|l| vec![0.0; l.hidden()]).collect(),
            c: self.layers.iter().map(|l| vec![0.0; l.hidden()]).collect(),
        }
    }

    /// One streaming timestep for `batch` independent sessions.
    ///
    /// `xs` is `[batch × in_dim]` row-major; `states[r]` carries
    /// session `r`'s per-layer state and is advanced in place. Returns
    /// the top layer's new hidden states, `[batch × out_dim]`
    /// row-major. Per-session gather/scatter into the batched GEMM
    /// operands is exact copying, so the result is bit-identical to
    /// `batch` serial one-session steps (see
    /// [`Lstm::step_batch_with`]).
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != batch`, on input shape mismatches,
    /// or if a state was built for a different stack geometry.
    pub fn step_batch_with(
        &self,
        batch: usize,
        xs: &[f32],
        states: &mut [&mut LstmStackState],
        scratch: &mut KernelScratch,
    ) -> Vec<f32> {
        assert_eq!(states.len(), batch, "LSTM step state-count mismatch");
        assert_eq!(xs.len(), batch * self.in_dim(), "LSTM step input mismatch");
        let mut cur = scratch.take(xs.len());
        cur.copy_from_slice(xs);
        for (l, layer) in self.layers.iter().enumerate() {
            let hd = layer.hidden();
            let mut hmat = scratch.take(batch * hd);
            let mut cmat = scratch.take(batch * hd);
            for (r, st) in states.iter().enumerate() {
                assert_eq!(st.h[l].len(), hd, "LSTM state geometry mismatch");
                hmat[r * hd..(r + 1) * hd].copy_from_slice(&st.h[l]);
                cmat[r * hd..(r + 1) * hd].copy_from_slice(&st.c[l]);
            }
            layer.step_batch_with(batch, &cur, &mut hmat, &mut cmat, scratch);
            for (r, st) in states.iter_mut().enumerate() {
                st.h[l].copy_from_slice(&hmat[r * hd..(r + 1) * hd]);
                st.c[l].copy_from_slice(&cmat[r * hd..(r + 1) * hd]);
            }
            scratch.recycle(std::mem::replace(&mut cur, hmat));
            scratch.recycle(cmat);
        }
        cur
    }

    /// Backward over a sequence; returns `∂L/∂x_t`.
    pub fn backward_sequence(
        &mut self,
        cache: &StackCache,
        grad_outputs: &[Vec<f32>],
    ) -> Vec<Vec<f32>> {
        kernels::with_thread_scratch(|s| self.backward_sequence_with(cache, grad_outputs, s))
    }

    /// [`LstmStack::backward_sequence`] reusing buffers from `scratch`.
    pub fn backward_sequence_with(
        &mut self,
        cache: &StackCache,
        grad_outputs: &[Vec<f32>],
        scratch: &mut KernelScratch,
    ) -> Vec<Vec<f32>> {
        let mut grad = grad_outputs.to_vec();
        for (l, c) in self.layers.iter_mut().zip(&cache.caches).rev() {
            grad = l.backward_sequence_with(c, &grad, scratch);
        }
        grad
    }
}

impl Parameterized for LstmStack {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_loss(outputs: &[Vec<f32>]) -> f32 {
        outputs
            .iter()
            .flat_map(|h| h.iter())
            .map(|v| v * v * 0.5)
            .sum()
    }

    #[test]
    fn output_shapes() {
        let l = Lstm::new(3, 5, 1);
        let xs = vec![vec![0.1; 3]; 7];
        let cache = l.forward_sequence(&xs);
        assert_eq!(cache.outputs.len(), 7);
        assert!(cache.outputs.iter().all(|h| h.len() == 5));
    }

    #[test]
    fn forget_bias_initialised_to_one() {
        let l = Lstm::new(2, 3, 0);
        assert_eq!(&l.b[3..6], &[1.0, 1.0, 1.0]);
        assert_eq!(&l.b[0..3], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn state_carries_information() {
        // An impulse at t=0 must still influence h at t=5.
        let l = Lstm::new(1, 4, 3);
        let mut quiet = vec![vec![0.0]; 6];
        let silent = l.forward_sequence(&quiet).outputs;
        quiet[0][0] = 1.0;
        let pulsed = l.forward_sequence(&quiet).outputs;
        let diff: f32 = silent[5]
            .iter()
            .zip(&pulsed[5])
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-4, "impulse forgotten: diff {diff}");
    }

    #[test]
    fn input_gradients_match_numeric() {
        let l = Lstm::new(2, 3, 5);
        let xs: Vec<Vec<f32>> = (0..4)
            .map(|t| vec![(t as f32 * 0.3).sin(), (t as f32 * 0.7).cos()])
            .collect();
        let cache = l.forward_sequence(&xs);
        let mut lm = l.clone();
        let grads = lm.backward_sequence(&cache, &cache.outputs);
        let eps = 1e-3;
        for t in 0..xs.len() {
            for j in 0..2 {
                let mut xp = xs.clone();
                xp[t][j] += eps;
                let lp = seq_loss(&l.forward_sequence(&xp).outputs);
                xp[t][j] -= 2.0 * eps;
                let lm_ = seq_loss(&l.forward_sequence(&xp).outputs);
                let num = (lp - lm_) / (2.0 * eps);
                assert!(
                    (num - grads[t][j]).abs() < 1e-2 * (1.0 + num.abs()),
                    "t={t} j={j}: numeric {num}, analytic {}",
                    grads[t][j]
                );
            }
        }
    }

    #[test]
    fn weight_gradients_match_numeric() {
        let l = Lstm::new(2, 2, 9);
        let xs: Vec<Vec<f32>> = (0..3)
            .map(|t| vec![0.2 * t as f32, -0.1 * t as f32 + 0.3])
            .collect();
        let cache = l.forward_sequence(&xs);
        let mut lm = l.clone();
        lm.backward_sequence(&cache, &cache.outputs);
        let eps = 1e-3;
        // Check a sample of W, U and b entries.
        let mut probe = l.clone();
        for idx in [0usize, 3, 7, 11, 15] {
            let orig = probe.w[idx];
            probe.w[idx] = orig + eps;
            let lp = seq_loss(&probe.forward_sequence(&xs).outputs);
            probe.w[idx] = orig - eps;
            let lm_ = seq_loss(&probe.forward_sequence(&xs).outputs);
            probe.w[idx] = orig;
            let num = (lp - lm_) / (2.0 * eps);
            assert!(
                (num - lm.gw[idx]).abs() < 1e-2 * (1.0 + num.abs()),
                "W[{idx}]: {num} vs {}",
                lm.gw[idx]
            );
        }
        for idx in [0usize, 5, 10, 15] {
            let orig = probe.u[idx];
            probe.u[idx] = orig + eps;
            let lp = seq_loss(&probe.forward_sequence(&xs).outputs);
            probe.u[idx] = orig - eps;
            let lm_ = seq_loss(&probe.forward_sequence(&xs).outputs);
            probe.u[idx] = orig;
            let num = (lp - lm_) / (2.0 * eps);
            assert!(
                (num - lm.gu[idx]).abs() < 1e-2 * (1.0 + num.abs()),
                "U[{idx}]: {num} vs {}",
                lm.gu[idx]
            );
        }
        for idx in 0..probe.b.len() {
            let orig = probe.b[idx];
            probe.b[idx] = orig + eps;
            let lp = seq_loss(&probe.forward_sequence(&xs).outputs);
            probe.b[idx] = orig - eps;
            let lm_ = seq_loss(&probe.forward_sequence(&xs).outputs);
            probe.b[idx] = orig;
            let num = (lp - lm_) / (2.0 * eps);
            assert!(
                (num - lm.gb[idx]).abs() < 1e-2 * (1.0 + num.abs()),
                "b[{idx}]: {num} vs {}",
                lm.gb[idx]
            );
        }
    }

    #[test]
    fn stack_composes_layers() {
        let s = LstmStack::new(3, &[5, 4], 1);
        assert_eq!(s.in_dim(), 3);
        assert_eq!(s.out_dim(), 4);
        let xs = vec![vec![0.2; 3]; 6];
        let cache = s.forward_sequence(&xs);
        assert_eq!(cache.outputs.len(), 6);
        assert!(cache.outputs.iter().all(|h| h.len() == 4));
    }

    #[test]
    fn stack_gradients_match_numeric() {
        let s = LstmStack::new(2, &[3, 2], 11);
        let xs: Vec<Vec<f32>> = (0..3)
            .map(|t| vec![0.4 * (t as f32).sin(), 0.3 * t as f32])
            .collect();
        let cache = s.forward_sequence(&xs);
        let mut sm = s.clone();
        let grads = sm.backward_sequence(&cache, &cache.outputs);
        let eps = 1e-3;
        for t in 0..xs.len() {
            for j in 0..2 {
                let mut xp = xs.clone();
                xp[t][j] += eps;
                let lp = seq_loss(&s.forward_sequence(&xp).outputs);
                xp[t][j] -= 2.0 * eps;
                let lm_ = seq_loss(&s.forward_sequence(&xp).outputs);
                let num = (lp - lm_) / (2.0 * eps);
                assert!(
                    (num - grads[t][j]).abs() < 1e-2 * (1.0 + num.abs()),
                    "t={t} j={j}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn rejects_wrong_frame_size() {
        let l = Lstm::new(3, 2, 0);
        l.forward_sequence(&[vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_stack_panics() {
        LstmStack::new(3, &[], 0);
    }

    #[test]
    fn streaming_steps_match_forward_sequence_bitwise() {
        let s = LstmStack::new(3, &[5, 4], 21);
        let xs: Vec<Vec<f32>> = (0..7)
            .map(|t| (0..3).map(|j| ((t * 3 + j) as f32 * 0.19).sin()).collect())
            .collect();
        let full = s.forward_sequence(&xs);
        let mut state = s.zero_state();
        for (t, x) in xs.iter().enumerate() {
            let h =
                kernels::with_thread_scratch(|scr| s.step_batch_with(1, x, &mut [&mut state], scr));
            assert_eq!(h, full.outputs[t], "step {t} diverged from replay");
        }
    }

    #[test]
    fn batched_step_matches_serial_steps_bitwise() {
        let s = LstmStack::new(2, &[4, 3], 33);
        let batch = 5;
        // Distinct per-session streams, advanced twice.
        let frame = |r: usize, t: usize| -> Vec<f32> {
            (0..2)
                .map(|j| ((r * 17 + t * 5 + j) as f32 * 0.23).cos())
                .collect()
        };
        let mut serial: Vec<LstmStackState> = (0..batch).map(|_| s.zero_state()).collect();
        let mut batched: Vec<LstmStackState> = (0..batch).map(|_| s.zero_state()).collect();
        for t in 0..2 {
            let mut serial_h = Vec::new();
            for (r, st) in serial.iter_mut().enumerate() {
                let h = kernels::with_thread_scratch(|scr| {
                    s.step_batch_with(1, &frame(r, t), &mut [st], scr)
                });
                serial_h.extend(h);
            }
            let xs: Vec<f32> = (0..batch).flat_map(|r| frame(r, t)).collect();
            let mut refs: Vec<&mut LstmStackState> = batched.iter_mut().collect();
            let batched_h =
                kernels::with_thread_scratch(|scr| s.step_batch_with(batch, &xs, &mut refs, scr));
            assert_eq!(batched_h, serial_h, "t={t}: batched != serial");
        }
        assert_eq!(serial, batched);
    }

    #[test]
    fn empty_sequence_is_fine() {
        let l = Lstm::new(2, 2, 0);
        let cache = l.forward_sequence(&[]);
        assert!(cache.outputs.is_empty());
    }
}
