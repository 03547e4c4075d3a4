//! The CNN→LSTM→softmax sequence classifier (Fig. 6).
//!
//! A [`SequenceClassifier`] applies a per-frame encoder (the CNN; shared
//! weights across timesteps), feeds the encoded frames to a stacked
//! LSTM, and attaches a softmax head *at every frame* ("a softmax
//! classifier at the output layer is used to make a prediction at every
//! spectrum frame", Section IV-B2). The training loss is the mean
//! per-frame cross-entropy; inference averages the per-frame class
//! probabilities.
//!
//! The Fig. 17 ablations fall out of the same type:
//! * **CNN-only** — construct with [`SequenceClassifier::without_lstm`];
//! * **LSTM-only** — use an empty [`Sequential`] encoder (identity).

use crate::error::Error;
use crate::layers::{Dense, SeqCache, Sequential, TwoBranchCache, TwoBranchEncoder};
use crate::loss::{softmax, softmax_cross_entropy};
use crate::lstm::{LstmStack, LstmStackState};
use crate::serialize::CheckpointError;
use crate::Parameterized;
use m2ai_kernels::{self as kernels, KernelScratch};
use std::collections::VecDeque;

/// Forward-latency histograms for the two inference paths (whole-window
/// replay vs incremental streaming step), resolved once per process.
fn forward_latency(path: &'static str) -> m2ai_obs::Histogram {
    static H: std::sync::OnceLock<(m2ai_obs::Histogram, m2ai_obs::Histogram)> =
        std::sync::OnceLock::new();
    let (replay, step) = H.get_or_init(|| {
        let help = "model forward-pass wall time by inference path";
        let bounds = m2ai_obs::latency_buckets();
        (
            m2ai_obs::histogram(
                "m2ai_nn_forward_seconds",
                help,
                &[("path", "replay")],
                &bounds,
            ),
            m2ai_obs::histogram(
                "m2ai_nn_forward_seconds",
                help,
                &[("path", "step")],
                &bounds,
            ),
        )
    });
    match path {
        "replay" => replay.clone(),
        _ => step.clone(),
    }
}

/// Stacks equal-length frames row-wise into one `[rows × dim]` buffer.
///
/// # Panics
///
/// Panics if the frames differ in length.
fn stack_rows(frames: &[impl AsRef<[f32]>], scratch: &mut KernelScratch) -> Vec<f32> {
    let dim = frames.first().map_or(0, |f| f.as_ref().len());
    let mut xs = scratch.take(frames.len() * dim);
    for (r, f) in frames.iter().enumerate() {
        let f = f.as_ref();
        assert_eq!(f.len(), dim, "frames in one batch must share a length");
        xs[r * dim..(r + 1) * dim].copy_from_slice(f);
    }
    xs
}

/// Magic bytes of a serialised [`StreamState`] (distinct from the
/// `b"M2AI"` parameter-checkpoint magic so the two formats cannot be
/// confused).
const STREAM_MAGIC: &[u8; 4] = b"M2SS";
/// Version of the [`StreamState`] wire format.
const STREAM_VERSION: u32 = 1;

/// Per-frame encoder: a plain layer chain or the two-branch merge.
#[derive(Debug, Clone, PartialEq)]
pub enum Encoder {
    /// Single-input chain (possibly empty = identity).
    Sequential(Sequential),
    /// Pseudospectrum + periodogram two-branch encoder.
    TwoBranch(TwoBranchEncoder),
}

/// Cache produced by [`Encoder::forward_cached`].
#[derive(Debug, Clone)]
pub enum EncoderCache {
    /// Cache of a sequential encoder.
    Sequential(SeqCache),
    /// Cache of a two-branch encoder.
    TwoBranch(TwoBranchCache),
}

impl Encoder {
    /// Inference-only forward pass.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        kernels::with_thread_scratch(|s| self.forward_with(x, s))
    }

    /// [`Encoder::forward`] reusing buffers from `scratch`: the one-row
    /// case of [`Encoder::forward_batch_with`].
    pub fn forward_with(&self, x: &[f32], scratch: &mut KernelScratch) -> Vec<f32> {
        self.forward_batch_with(x, 1, scratch)
    }

    /// Encodes `rows` stacked frames (`[rows × frame_dim]`, row-major)
    /// in one pass per layer, returning `[rows × feature_dim]`.
    /// Bit-identical to encoding the rows one at a time.
    pub fn forward_batch_with(
        &self,
        xs: &[f32],
        rows: usize,
        scratch: &mut KernelScratch,
    ) -> Vec<f32> {
        match self {
            Encoder::Sequential(s) => s.forward_batch_with(xs, rows, scratch),
            Encoder::TwoBranch(t) => t.forward_batch_with(xs, rows, scratch),
        }
    }

    /// Caching forward pass.
    pub fn forward_cached(&self, x: &[f32]) -> (Vec<f32>, EncoderCache) {
        kernels::with_thread_scratch(|s| self.forward_cached_with(x, s))
    }

    /// [`Encoder::forward_cached`] reusing buffers from `scratch`: the
    /// one-row case of [`Encoder::forward_cached_batch_with`].
    pub fn forward_cached_with(
        &self,
        x: &[f32],
        scratch: &mut KernelScratch,
    ) -> (Vec<f32>, EncoderCache) {
        self.forward_cached_batch_with(x, 1, scratch)
    }

    /// Caching forward pass over `rows` stacked frames (`[rows ×
    /// frame_dim]`), returning `[rows × feature_dim]` and the cache
    /// [`Encoder::backward_with`] needs. Bit-identical to encoding the
    /// rows one at a time.
    pub fn forward_cached_batch_with(
        &self,
        xs: &[f32],
        rows: usize,
        scratch: &mut KernelScratch,
    ) -> (Vec<f32>, EncoderCache) {
        match self {
            Encoder::Sequential(s) => {
                let c = s.forward_cached_batch_with(xs, rows, scratch);
                (c.output.clone(), EncoderCache::Sequential(c))
            }
            Encoder::TwoBranch(t) => {
                let c = t.forward_cached_batch_with(xs, rows, scratch);
                (c.output.clone(), EncoderCache::TwoBranch(c))
            }
        }
    }

    /// Backward pass.
    ///
    /// # Panics
    ///
    /// Panics if the cache kind does not match the encoder kind.
    pub fn backward(&mut self, cache: &EncoderCache, grad_out: &[f32]) -> Vec<f32> {
        kernels::with_thread_scratch(|s| self.backward_with(cache, grad_out, s))
    }

    /// [`Encoder::backward`] reusing buffers from `scratch`. The
    /// gradient covers every row the cache holds (`[rows ×
    /// feature_dim]`), and the encoder's parameter gradients accumulate
    /// bit-identically to the rows run one at a time in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if the cache kind does not match the encoder kind.
    pub fn backward_with(
        &mut self,
        cache: &EncoderCache,
        grad_out: &[f32],
        scratch: &mut KernelScratch,
    ) -> Vec<f32> {
        match (self, cache) {
            (Encoder::Sequential(s), EncoderCache::Sequential(c)) => {
                s.backward_with(c, grad_out, scratch)
            }
            (Encoder::TwoBranch(t), EncoderCache::TwoBranch(c)) => {
                t.backward_with(c, grad_out, scratch)
            }
            _ => panic!("encoder/cache kind mismatch"),
        }
    }
}

impl From<Sequential> for Encoder {
    fn from(s: Sequential) -> Encoder {
        Encoder::Sequential(s)
    }
}

impl From<TwoBranchEncoder> for Encoder {
    fn from(t: TwoBranchEncoder) -> Encoder {
        Encoder::TwoBranch(t)
    }
}

impl Parameterized for Encoder {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        match self {
            Encoder::Sequential(s) => s.visit_params(f),
            Encoder::TwoBranch(t) => t.visit_params(f),
        }
    }
}

/// Persistent per-stream inference state for incremental stepping.
///
/// Replaying a T-frame window on every new frame costs O(T) encoder +
/// LSTM work per step. A `StreamState` instead carries what the replay
/// would recompute: the LSTM hidden/cell state after the frames seen so
/// far, and a ring of the last `history` per-frame softmax outputs so
/// the window-mean probability (the quantity
/// [`SequenceClassifier::predict_proba`] reports) can be maintained in
/// O(history) scalar work without re-running the network.
///
/// A fresh state stepped through the same frames in order yields
/// bit-identical probabilities to the full-window
/// [`SequenceClassifier::predict_proba`] call: the LSTM step reduces
/// the same accumulator chains as the sequence forward, and the ring
/// mean accumulates per-frame softmax vectors oldest→newest before one
/// division — the exact order `predict_proba` uses. After the first
/// window the semantics *intentionally* diverge: the stream keeps its
/// LSTM context instead of replaying from a zero state (that context
/// retention is both the speedup and, per Fig. 17, the point of the
/// recurrent model).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamState {
    /// LSTM carry; `None` for the CNN-only ablation.
    lstm: Option<LstmStackState>,
    /// Last `history` per-frame softmax outputs, oldest first.
    probs: VecDeque<Vec<f32>>,
    history: usize,
}

impl StreamState {
    /// True once `history` frames have been absorbed — i.e. the ring
    /// spans a full window and the running mean is comparable to a
    /// whole-window `predict_proba`.
    pub fn ready(&self) -> bool {
        self.probs.len() == self.history
    }

    /// Number of frames currently in the probability ring
    /// (saturates at the window length).
    pub fn frames_seen(&self) -> usize {
        self.probs.len()
    }

    /// Window length this state was created for.
    pub fn history(&self) -> usize {
        self.history
    }

    /// Clears all carried state (LSTM context and probability ring),
    /// as after a stream gap: the next step starts a fresh window.
    pub fn reset(&mut self) {
        if let Some(l) = &mut self.lstm {
            l.reset();
        }
        self.probs.clear();
    }

    /// True when `other` carries the same LSTM layer geometry and
    /// window length as `self` — i.e. it could have been produced by
    /// the same model and serving configuration. The cheap structural
    /// gate a restore path runs before adopting a foreign state.
    pub fn shape_matches(&self, other: &StreamState) -> bool {
        if self.history != other.history {
            return false;
        }
        match (&self.lstm, &other.lstm) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                a.n_layers() == b.n_layers()
                    && (0..a.n_layers()).all(|l| {
                        a.hidden(l).len() == b.hidden(l).len() && a.cell(l).len() == b.cell(l).len()
                    })
            }
            _ => false,
        }
    }

    /// True when every buffered softmax row has exactly `n` classes.
    pub fn class_dim_is(&self, n: usize) -> bool {
        self.probs.iter().all(|p| p.len() == n)
    }

    /// Serialises the full stream state — LSTM hidden/cell per layer
    /// plus the softmax window ring — into a self-describing byte
    /// vector (all little-endian):
    ///
    /// ```text
    /// magic   b"M2SS"    4 bytes
    /// version u32        currently 1
    /// history u32        window length
    /// lstm    u8         0 = CNN-only, 1 = LSTM state follows
    /// if lstm: layers u32, then per layer: len u32, len × f32 hidden,
    ///          len × f32 cell
    /// rows    u32        buffered softmax rows, oldest first
    /// per row: len u32, then len × f32
    /// ```
    ///
    /// Values round-trip bit-exactly ([`StreamState::from_bytes`]
    /// restores f32 bit patterns verbatim), so a restored stream
    /// continues bit-identically to an uninterrupted one.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(STREAM_MAGIC);
        out.extend_from_slice(&STREAM_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.history as u32).to_le_bytes());
        match &self.lstm {
            None => out.push(0),
            Some(s) => {
                out.push(1);
                out.extend_from_slice(&(s.n_layers() as u32).to_le_bytes());
                for l in 0..s.n_layers() {
                    out.extend_from_slice(&(s.hidden(l).len() as u32).to_le_bytes());
                    for v in s.hidden(l).iter().chain(s.cell(l)) {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
        out.extend_from_slice(&(self.probs.len() as u32).to_le_bytes());
        for row in &self.probs {
            out.extend_from_slice(&(row.len() as u32).to_le_bytes());
            for v in row {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Restores a state saved by [`StreamState::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] when the bytes are malformed
    /// (wrong magic/version, truncation, trailing bytes, a zero
    /// window, or more buffered rows than the window holds). Model
    /// compatibility is *not* checked here — run
    /// [`StreamState::shape_matches`] against a freshly minted state
    /// before stepping the restored one.
    pub fn from_bytes(bytes: &[u8]) -> Result<StreamState, CheckpointError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], CheckpointError> {
            if *pos + n > bytes.len() {
                return Err(CheckpointError::Truncated);
            }
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        let read_u32 = |pos: &mut usize| -> Result<u32, CheckpointError> {
            Ok(u32::from_le_bytes(
                take(pos, 4)?.try_into().expect("4 bytes"),
            ))
        };
        let read_f32s = |pos: &mut usize, n: usize| -> Result<Vec<f32>, CheckpointError> {
            Ok(take(pos, n * 4)?
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect())
        };
        if take(&mut pos, 4)? != STREAM_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = read_u32(&mut pos)?;
        if version != STREAM_VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let history = read_u32(&mut pos)? as usize;
        if history == 0 {
            return Err(CheckpointError::ShapeMismatch {
                index: 0,
                expected: 1,
                got: 0,
            });
        }
        let lstm = match take(&mut pos, 1)?[0] {
            0 => None,
            _ => {
                let layers = read_u32(&mut pos)? as usize;
                let mut h = Vec::with_capacity(layers);
                let mut c = Vec::with_capacity(layers);
                for _ in 0..layers {
                    let len = read_u32(&mut pos)? as usize;
                    h.push(read_f32s(&mut pos, len)?);
                    c.push(read_f32s(&mut pos, len)?);
                }
                Some(LstmStackState::from_parts(h, c).expect("lengths read pairwise"))
            }
        };
        let rows = read_u32(&mut pos)? as usize;
        if rows > history {
            return Err(CheckpointError::ShapeMismatch {
                index: 0,
                expected: history,
                got: rows,
            });
        }
        let mut probs = VecDeque::with_capacity(history);
        for _ in 0..rows {
            let len = read_u32(&mut pos)? as usize;
            probs.push_back(read_f32s(&mut pos, len)?);
        }
        if pos != bytes.len() {
            return Err(CheckpointError::Truncated);
        }
        Ok(StreamState {
            lstm,
            probs,
            history,
        })
    }

    /// Pushes one frame's softmax output and returns the running mean
    /// over the ring, accumulated oldest→newest then divided once —
    /// the same order and rounding as
    /// [`SequenceClassifier::predict_proba`].
    fn push_probs(&mut self, p: Vec<f32>) -> Vec<f32> {
        if self.probs.len() == self.history {
            self.probs.pop_front();
        }
        let n = p.len();
        self.probs.push_back(p);
        let mut acc = vec![0.0f32; n];
        for frame in &self.probs {
            for (a, &v) in acc.iter_mut().zip(frame) {
                *a += v;
            }
        }
        let t = self.probs.len() as f32;
        acc.iter_mut().for_each(|a| *a /= t);
        acc
    }
}

/// CNN(+LSTM) sequence classifier with a per-frame softmax head.
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceClassifier {
    /// Shared per-frame encoder.
    pub encoder: Encoder,
    /// Temporal backbone; `None` is the CNN-only ablation.
    pub lstm: Option<LstmStack>,
    /// Classification head applied to every frame's representation.
    pub head: Dense,
    n_classes: usize,
}

impl SequenceClassifier {
    /// Creates the full CNN+LSTM model. The head input dimension is the
    /// LSTM stack's output dimension.
    pub fn new(encoder: impl Into<Encoder>, lstm: LstmStack, n_classes: usize, seed: u64) -> Self {
        let head = Dense::new(lstm.out_dim(), n_classes, seed ^ 0x0DD5);
        SequenceClassifier {
            encoder: encoder.into(),
            lstm: Some(lstm),
            head,
            n_classes,
        }
    }

    /// Creates the CNN-only ablation: the head consumes the encoder's
    /// `feature_dim`-dimensional output directly.
    pub fn without_lstm(
        encoder: impl Into<Encoder>,
        feature_dim: usize,
        n_classes: usize,
        seed: u64,
    ) -> Self {
        SequenceClassifier {
            encoder: encoder.into(),
            lstm: None,
            head: Dense::new(feature_dim, n_classes, seed ^ 0x0DD5),
            n_classes,
        }
    }

    /// Number of output classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Per-frame logits for a sequence of frames (inference only).
    pub fn forward_logits(&self, frames: &[Vec<f32>]) -> Vec<Vec<f32>> {
        kernels::with_thread_scratch(|s| self.forward_logits_with(frames, s))
    }

    /// [`SequenceClassifier::forward_logits`] reusing buffers from
    /// `scratch`; the encoder and the per-frame head each run as one
    /// batch over the whole sequence.
    pub fn forward_logits_with(
        &self,
        frames: &[Vec<f32>],
        scratch: &mut KernelScratch,
    ) -> Vec<Vec<f32>> {
        let t_len = frames.len();
        if t_len == 0 {
            return Vec::new();
        }
        let xs = stack_rows(frames, scratch);
        let feats = self.encoder.forward_batch_with(&xs, t_len, scratch);
        scratch.recycle(xs);
        let reps_flat = match &self.lstm {
            Some(stack) => {
                let seq: Vec<Vec<f32>> = feats
                    .chunks_exact(stack.in_dim())
                    .map(<[f32]>::to_vec)
                    .collect();
                scratch.recycle(feats);
                let reps = stack.forward_sequence_with(&seq, scratch).outputs;
                stack_rows(&reps, scratch)
            }
            None => feats,
        };
        let logits_flat = self.head.forward_batch_with(&reps_flat, t_len, scratch);
        scratch.recycle(reps_flat);
        let out = logits_flat
            .chunks_exact(self.n_classes)
            .map(|c| c.to_vec())
            .collect();
        scratch.recycle(logits_flat);
        out
    }

    /// Creates a fresh [`StreamState`] for one stream with a
    /// `history`-frame probability window (matching the
    /// `history_len` a replay-based caller would use).
    ///
    /// # Panics
    ///
    /// Panics if `history` is zero.
    pub fn stream_state(&self, history: usize) -> StreamState {
        assert!(history > 0, "history must be positive");
        StreamState {
            lstm: self.lstm.as_ref().map(|s| s.zero_state()),
            probs: VecDeque::with_capacity(history),
            history,
        }
    }

    /// Advances `batch` independent streams by one frame each and
    /// returns each stream's running window-mean class probabilities.
    ///
    /// This is the micro-batched hot path: the sessions' frames are
    /// stacked row-wise so the encoder, the LSTM step and the softmax
    /// head each run as `[batch × ·]` GEMMs. Row independence of the
    /// kernels makes the result bit-identical to `batch` serial
    /// [`SequenceClassifier::step_with`] calls, in any slot order.
    ///
    /// # Panics
    ///
    /// Panics if `frames.len() != states.len()`, or on frame/state
    /// shape mismatches.
    pub fn step_batch_with(
        &self,
        frames: &[&[f32]],
        states: &mut [&mut StreamState],
        scratch: &mut KernelScratch,
    ) -> Vec<Vec<f32>> {
        assert_eq!(frames.len(), states.len(), "frame/state count mismatch");
        let batch = frames.len();
        if batch == 0 {
            return Vec::new();
        }
        let _span = forward_latency("step").time();
        // Per-frame encoder (shared weights) over every row at once.
        let xs = stack_rows(frames, scratch);
        let feats = self.encoder.forward_batch_with(&xs, batch, scratch);
        scratch.recycle(xs);
        let reps_flat = match &self.lstm {
            Some(stack) => {
                let mut lstm_states: Vec<&mut LstmStackState> = states
                    .iter_mut()
                    .map(|s| s.lstm.as_mut().expect("state built for an LSTM-less model"))
                    .collect();
                let out = stack.step_batch_with(batch, &feats, &mut lstm_states, scratch);
                scratch.recycle(feats);
                out
            }
            None => feats,
        };
        let logits_flat = self.head.forward_batch_with(&reps_flat, batch, scratch);
        let means = logits_flat
            .chunks_exact(self.n_classes)
            .zip(states.iter_mut())
            .map(|(logits, state)| state.push_probs(softmax(logits)))
            .collect();
        scratch.recycle(logits_flat);
        scratch.recycle(reps_flat);
        means
    }

    /// Advances one stream by one frame; returns the running
    /// window-mean class probabilities. Single-row shapes dispatch to
    /// the GEMV microkernels, so solo-stream latency does not pay for
    /// the batched API.
    pub fn step_with(
        &self,
        frame: &[f32],
        state: &mut StreamState,
        scratch: &mut KernelScratch,
    ) -> Vec<f32> {
        self.step_batch_with(&[frame], &mut [state], scratch)
            .pop()
            .expect("one stream in, one prediction out")
    }

    /// [`SequenceClassifier::step_with`] using the thread-local
    /// scratch arena.
    pub fn step(&self, frame: &[f32], state: &mut StreamState) -> Vec<f32> {
        kernels::with_thread_scratch(|s| self.step_with(frame, state, s))
    }

    /// Fallible [`SequenceClassifier::step_with`]: non-finite
    /// probabilities (NaN inputs, diverged parameters) become an
    /// [`Error`] instead of silent garbage. On error the probability
    /// ring still absorbed the frame; callers treating the stream as
    /// poisoned should [`StreamState::reset`] it.
    pub fn try_step_with(
        &self,
        frame: &[f32],
        state: &mut StreamState,
        scratch: &mut KernelScratch,
    ) -> Result<Vec<f32>, Error> {
        let p = self.step_with(frame, state, scratch);
        if p.iter().all(|v| v.is_finite()) {
            Ok(p)
        } else {
            Err(Error::NonFiniteOutput)
        }
    }

    /// Mean per-frame class probabilities.
    ///
    /// # Panics
    ///
    /// Panics on an empty frame sequence.
    pub fn predict_proba(&self, frames: &[Vec<f32>]) -> Vec<f32> {
        kernels::with_thread_scratch(|s| self.predict_proba_with(frames, s))
    }

    /// [`SequenceClassifier::predict_proba`] reusing buffers from
    /// `scratch`.
    ///
    /// # Panics
    ///
    /// Panics on an empty frame sequence.
    pub fn predict_proba_with(&self, frames: &[Vec<f32>], scratch: &mut KernelScratch) -> Vec<f32> {
        assert!(!frames.is_empty(), "need at least one frame");
        let _span = forward_latency("replay").time();
        let logits = self.forward_logits_with(frames, scratch);
        let mut acc = vec![0.0f32; self.n_classes];
        for l in &logits {
            for (a, p) in acc.iter_mut().zip(softmax(l)) {
                *a += p;
            }
        }
        let t = logits.len() as f32;
        acc.iter_mut().for_each(|a| *a /= t);
        acc
    }

    /// Mean per-frame class probabilities, as a `Result`.
    ///
    /// Fallible counterpart of [`SequenceClassifier::predict_proba`]
    /// for streaming/degraded inputs: empty sequences and non-finite
    /// probabilities (NaN inputs, diverged parameters) become [`Error`]s
    /// instead of panics or silent garbage.
    pub fn try_predict_proba(&self, frames: &[Vec<f32>]) -> Result<Vec<f32>, Error> {
        kernels::with_thread_scratch(|s| self.try_predict_proba_with(frames, s))
    }

    /// [`SequenceClassifier::try_predict_proba`] reusing buffers from
    /// `scratch` — the signature streaming callers drive so the
    /// steady-state window path stops allocating per prediction.
    pub fn try_predict_proba_with(
        &self,
        frames: &[Vec<f32>],
        scratch: &mut KernelScratch,
    ) -> Result<Vec<f32>, Error> {
        if frames.is_empty() {
            return Err(Error::EmptySequence);
        }
        let p = self.predict_proba_with(frames, scratch);
        if p.iter().all(|v| v.is_finite()) {
            Ok(p)
        } else {
            Err(Error::NonFiniteOutput)
        }
    }

    /// Most likely class, as a `Result` (see
    /// [`SequenceClassifier::try_predict_proba`]).
    pub fn try_predict(&self, frames: &[Vec<f32>]) -> Result<usize, Error> {
        let p = self.try_predict_proba(frames)?;
        // Probabilities are finite here, so a plain fold is total.
        Ok(p.iter()
            .enumerate()
            .fold((0usize, f32::NEG_INFINITY), |best, (i, &v)| {
                if v > best.1 {
                    (i, v)
                } else {
                    best
                }
            })
            .0)
    }

    /// Most likely class.
    ///
    /// # Panics
    ///
    /// Panics on an empty frame sequence or non-finite probabilities;
    /// use [`SequenceClassifier::try_predict`] to handle those as
    /// errors.
    pub fn predict(&self, frames: &[Vec<f32>]) -> usize {
        match self.try_predict(frames) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// Forward + backward for one labelled sequence; accumulates
    /// parameter gradients and returns the mean per-frame loss.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty or `label >= n_classes`.
    pub fn loss_and_backprop(&mut self, frames: &[Vec<f32>], label: usize) -> f32 {
        kernels::with_thread_scratch(|s| self.loss_and_backprop_with(frames, label, s))
    }

    /// [`SequenceClassifier::loss_and_backprop`] reusing buffers from
    /// `scratch` — the signature `fit()` drives so the whole training
    /// loop shares one arena per worker thread. The per-frame encoder
    /// and head each run forward *and* backward once over the whole
    /// sequence, bit-identical to running them frame by frame.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty or `label >= n_classes`.
    pub fn loss_and_backprop_with(
        &mut self,
        frames: &[Vec<f32>],
        label: usize,
        scratch: &mut KernelScratch,
    ) -> f32 {
        assert!(!frames.is_empty(), "need at least one frame");
        assert!(label < self.n_classes, "label out of range");

        // Forward with caches: the encoder runs once over all T frames.
        let t_len = frames.len();
        let xs = stack_rows(frames, scratch);
        let (feats, enc_cache) = self.encoder.forward_cached_batch_with(&xs, t_len, scratch);
        scratch.recycle(xs);
        let lstm_cache = self.lstm.as_ref().map(|s| {
            let seq: Vec<Vec<f32>> = feats
                .chunks_exact(s.in_dim())
                .map(<[f32]>::to_vec)
                .collect();
            s.forward_sequence_with(&seq, scratch)
        });
        let reps_flat = match &lstm_cache {
            Some(c) => stack_rows(&c.outputs, scratch),
            None => feats,
        };

        // Batched per-frame head + loss: one GEMM forward, one set of
        // GEMMs backward, same per-step accumulation order as the old
        // per-frame loop.
        let rep_dim = self.head.in_dim();
        let scale = 1.0 / t_len as f32;
        let logits_flat = self.head.forward_batch_with(&reps_flat, t_len, scratch);
        let mut total_loss = 0.0;
        let mut grads_flat = scratch.take(t_len * self.n_classes);
        for t in 0..t_len {
            let logits = &logits_flat[t * self.n_classes..(t + 1) * self.n_classes];
            let (loss, grad_logits) = softmax_cross_entropy(logits, label);
            total_loss += loss * scale;
            for (slot, g) in grads_flat[t * self.n_classes..(t + 1) * self.n_classes]
                .iter_mut()
                .zip(&grad_logits)
            {
                *slot = g * scale;
            }
        }
        let rep_grads_flat = self
            .head
            .backward_batch_with(&reps_flat, &grads_flat, t_len, scratch);
        scratch.recycle(grads_flat);
        scratch.recycle(logits_flat);

        // Back through LSTM (if any) and, once over all T frames, the
        // encoder.
        let feat_grads = match (&mut self.lstm, &lstm_cache) {
            (Some(stack), Some(cache)) => {
                // Only the stacked LSTM outputs came from `scratch`.
                scratch.recycle(reps_flat);
                let rep_grads: Vec<Vec<f32>> = rep_grads_flat
                    .chunks_exact(rep_dim)
                    .map(<[f32]>::to_vec)
                    .collect();
                let grads = stack.backward_sequence_with(cache, &rep_grads, scratch);
                stack_rows(&grads, scratch)
            }
            _ => rep_grads_flat,
        };
        self.encoder.backward_with(&enc_cache, &feat_grads, scratch);
        total_loss
    }
}

impl Parameterized for SequenceClassifier {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.encoder.visit_params(f);
        if let Some(l) = &mut self.lstm {
            l.visit_params(f);
        }
        self.head.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Layer;
    use crate::optim::Sgd;

    fn tiny_model(seed: u64) -> SequenceClassifier {
        let encoder = Sequential::new(vec![Layer::dense(4, 6, seed), Layer::relu()]);
        let lstm = LstmStack::new(6, &[5], seed);
        SequenceClassifier::new(encoder, lstm, 3, seed)
    }

    #[test]
    fn probabilities_are_normalised() {
        let m = tiny_model(1);
        let frames = vec![vec![0.2, -0.1, 0.5, 0.0]; 6];
        let p = m.predict_proba(&frames);
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(p.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn predict_in_range() {
        let m = tiny_model(2);
        let frames = vec![vec![0.1; 4]; 3];
        assert!(m.predict(&frames) < 3);
    }

    #[test]
    fn full_model_gradient_matches_numeric() {
        let m = tiny_model(3);
        let frames: Vec<Vec<f32>> = (0..3)
            .map(|t| (0..4).map(|j| ((t * 4 + j) as f32 * 0.21).sin()).collect())
            .collect();
        let label = 1;
        // Analytic gradient of all params.
        let mut model = m.clone();
        model.zero_grad();
        model.loss_and_backprop(&frames, label);
        let mut analytic = Vec::new();
        model.visit_params(&mut |_, g| analytic.extend_from_slice(g));

        // Numeric: perturb each parameter (sampled) of a fresh clone.
        let loss_of = |mm: &SequenceClassifier| {
            let logits = mm.forward_logits(&frames);
            logits
                .iter()
                .map(|l| crate::loss::softmax_cross_entropy(l, label).0)
                .sum::<f32>()
                / logits.len() as f32
        };
        let eps = 1e-2;
        let mut flat_index = 0usize;
        let mut probe = m.clone();
        let total = {
            let mut c = probe.clone();
            c.param_count()
        };
        let stride = (total / 60).max(1); // sample ~60 params
        let mut checked = 0;
        // Walk blocks, perturbing in place via visit_params.
        let mut block_start = 0usize;
        let mut blocks: Vec<usize> = Vec::new();
        probe.visit_params(&mut |p, _| blocks.push(p.len()));
        for (b, len) in blocks.iter().enumerate() {
            for i in (0..*len).step_by(stride) {
                let gi = analytic[block_start + i];
                let mut plus = m.clone();
                let mut minus = m.clone();
                let mut idx = 0;
                plus.visit_params(&mut |p, _| {
                    if idx == b {
                        p[i] += eps;
                    }
                    idx += 1;
                });
                idx = 0;
                minus.visit_params(&mut |p, _| {
                    if idx == b {
                        p[i] -= eps;
                    }
                    idx += 1;
                });
                let num = (loss_of(&plus) - loss_of(&minus)) / (2.0 * eps);
                assert!(
                    (num - gi).abs() < 5e-2 * (1.0 + num.abs()),
                    "block {b} idx {i}: numeric {num}, analytic {gi}"
                );
                checked += 1;
            }
            block_start += len;
            flat_index += len;
        }
        let _ = flat_index;
        assert!(checked > 20, "too few parameters checked");
    }

    #[test]
    fn learns_order_sensitive_toy_problem() {
        // Class 0: pulse early; class 1: pulse late. A memory-less
        // model cannot separate these from per-frame stats alone once
        // probabilities are averaged — the LSTM model must.
        let make = |early: bool| -> Vec<Vec<f32>> {
            (0..6)
                .map(|t| {
                    let on = if early { t < 3 } else { t >= 3 };
                    vec![if on { 1.0 } else { 0.0 }, 0.2, -0.1, 0.05]
                })
                .collect()
        };
        let encoder = Sequential::new(vec![Layer::dense(4, 6, 5), Layer::relu()]);
        let lstm = LstmStack::new(6, &[8], 5);
        let mut model = SequenceClassifier::new(encoder, lstm, 2, 5);
        let mut opt = Sgd::new(0.2, 0.9, Some(5.0));
        for _ in 0..150 {
            model.zero_grad();
            let mut loss = model.loss_and_backprop(&make(true), 0);
            loss += model.loss_and_backprop(&make(false), 1);
            let _ = loss;
            opt.step(&mut model, 0.5);
        }
        assert_eq!(model.predict(&make(true)), 0);
        assert_eq!(model.predict(&make(false)), 1);
    }

    #[test]
    fn cnn_only_variant_runs() {
        let encoder = Sequential::new(vec![Layer::dense(4, 6, 7), Layer::relu()]);
        let mut m = SequenceClassifier::without_lstm(encoder, 6, 3, 7);
        assert!(m.lstm.is_none());
        let frames = vec![vec![0.3; 4]; 4];
        let loss = m.loss_and_backprop(&frames, 2);
        assert!(loss.is_finite() && loss > 0.0);
        assert!(m.predict(&frames) < 3);
    }

    #[test]
    fn lstm_only_variant_runs() {
        // Identity encoder: raw frames straight into the LSTM.
        let m = SequenceClassifier::new(Sequential::default(), LstmStack::new(4, &[5], 9), 3, 9);
        let frames = vec![vec![0.1, 0.2, 0.3, 0.4]; 3];
        assert!(m.predict(&frames) < 3);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn empty_sequence_panics() {
        tiny_model(0).predict(&[]);
    }

    #[test]
    fn try_predict_reports_empty_and_nan() {
        let m = tiny_model(4);
        assert_eq!(m.try_predict(&[]), Err(crate::error::Error::EmptySequence));
        let ok_frames = vec![vec![0.1; 4]; 3];
        assert_eq!(m.try_predict(&ok_frames), Ok(m.predict(&ok_frames)));
        // A diverged model (NaN parameters) must report, not emit
        // garbage. (NaN *inputs* are often absorbed by ReLU's
        // NaN-ignoring max — parameters are the reliable poison.)
        let mut diverged = tiny_model(4);
        diverged.visit_params(&mut |p, _| p.iter_mut().for_each(|v| *v = f32::NAN));
        assert_eq!(
            diverged.try_predict(&ok_frames),
            Err(crate::error::Error::NonFiniteOutput)
        );
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn bad_label_panics() {
        tiny_model(0).loss_and_backprop(&[vec![0.0; 4]], 9);
    }

    fn toy_frames(n: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|t| (0..4).map(|j| ((t * 4 + j) as f32 * 0.37).sin()).collect())
            .collect()
    }

    /// The three Fig. 17 variants at toy size.
    fn variants(seed: u64) -> Vec<(&'static str, SequenceClassifier)> {
        let encoder = Sequential::new(vec![Layer::dense(4, 6, seed), Layer::relu()]);
        let cnn_lstm =
            SequenceClassifier::new(encoder.clone(), LstmStack::new(6, &[5, 4], seed), 3, seed);
        let cnn_only = SequenceClassifier::without_lstm(encoder, 6, 3, seed);
        let lstm_only = SequenceClassifier::new(
            Sequential::default(),
            LstmStack::new(4, &[5], seed),
            3,
            seed,
        );
        vec![
            ("cnn_lstm", cnn_lstm),
            ("cnn_only", cnn_only),
            ("lstm_only", lstm_only),
        ]
    }

    #[test]
    fn fresh_stream_matches_predict_proba_bitwise() {
        // Stepping a fresh state through a window must reproduce the
        // full-window replay exactly, for every architecture variant.
        let frames = toy_frames(6);
        for (name, m) in variants(11) {
            let mut state = m.stream_state(frames.len());
            let mut last = Vec::new();
            for f in &frames {
                last = m.step(f, &mut state);
            }
            assert!(state.ready(), "{name}: state not ready after window");
            assert_eq!(last, m.predict_proba(&frames), "{name}: stream != replay");
        }
    }

    #[test]
    fn stream_window_mean_tracks_sliding_replay_prefix() {
        // Before the ring is full, the running mean equals the
        // replay over the prefix seen so far (same accumulation
        // order); for the memory-less CNN-only variant it stays equal
        // to the sliding-window replay forever.
        let frames = toy_frames(9);
        let (_, m) = variants(12).remove(1); // cnn_only
        let mut state = m.stream_state(4);
        for (t, f) in frames.iter().enumerate() {
            let p = m.step(f, &mut state);
            let lo = (t + 1).saturating_sub(4);
            assert_eq!(p, m.predict_proba(&frames[lo..=t]), "frame {t}");
        }
    }

    #[test]
    fn batched_step_matches_serial_steps_bitwise() {
        // One B-row batched tick == B serial single-stream ticks,
        // regardless of slot order, for every variant.
        for (name, m) in variants(13) {
            let sessions: Vec<Vec<Vec<f32>>> = (0..5)
                .map(|s| {
                    (0..3)
                        .map(|t| {
                            (0..4)
                                .map(|j| ((s * 31 + t * 4 + j) as f32 * 0.29).cos())
                                .collect()
                        })
                        .collect()
                })
                .collect();
            let mut serial: Vec<StreamState> = (0..5).map(|_| m.stream_state(3)).collect();
            let mut batched = serial.clone();
            for t in 0..3 {
                let serial_out: Vec<Vec<f32>> = sessions
                    .iter()
                    .zip(serial.iter_mut())
                    .map(|(frames, st)| m.step(&frames[t], st))
                    .collect();
                let frames: Vec<&[f32]> = sessions.iter().map(|f| f[t].as_slice()).collect();
                let mut refs: Vec<&mut StreamState> = batched.iter_mut().collect();
                let batch_out =
                    kernels::with_thread_scratch(|s| m.step_batch_with(&frames, &mut refs, s));
                assert_eq!(batch_out, serial_out, "{name}: t={t}");
            }
            assert_eq!(batched, serial, "{name}: states diverged");
        }
    }

    #[test]
    fn stream_reset_restarts_the_window() {
        let frames = toy_frames(6);
        let (_, m) = variants(14).remove(0);
        let mut state = m.stream_state(6);
        for f in &frames {
            m.step(f, &mut state);
        }
        state.reset();
        assert_eq!(state.frames_seen(), 0);
        let mut replayed = Vec::new();
        for f in &frames {
            replayed = m.step(f, &mut state);
        }
        assert_eq!(replayed, m.predict_proba(&frames), "reset state not fresh");
    }

    #[test]
    fn try_step_reports_nan() {
        let mut diverged = tiny_model(15);
        diverged.visit_params(&mut |p, _| p.iter_mut().for_each(|v| *v = f32::NAN));
        let mut state = diverged.stream_state(3);
        let got = kernels::with_thread_scratch(|s| {
            diverged.try_step_with(&[0.1, 0.2, 0.3, 0.4], &mut state, s)
        });
        assert_eq!(got, Err(crate::error::Error::NonFiniteOutput));
    }

    #[test]
    #[should_panic(expected = "history")]
    fn zero_history_stream_panics() {
        tiny_model(0).stream_state(0);
    }

    #[test]
    fn stream_state_bytes_roundtrip_bitwise() {
        // Mid-stream snapshot → bytes → restore must continue
        // bit-identically to the uninterrupted stream, for every
        // architecture variant (including the LSTM-less one).
        let frames = toy_frames(7);
        for (name, m) in variants(21) {
            let mut live = m.stream_state(3);
            for f in &frames[..4] {
                m.step(f, &mut live);
            }
            let bytes = live.to_bytes();
            let mut restored = StreamState::from_bytes(&bytes).expect("roundtrip");
            assert_eq!(restored, live, "{name}: restored state differs");
            assert!(restored.shape_matches(&m.stream_state(3)), "{name}");
            assert!(restored.class_dim_is(m.n_classes()), "{name}");
            for f in &frames[4..] {
                let a = m.step(f, &mut live);
                let b = m.step(f, &mut restored);
                assert_eq!(a, b, "{name}: restored stream diverged");
            }
        }
    }

    #[test]
    fn stream_state_bytes_reject_malformed() {
        let m = tiny_model(22);
        let mut state = m.stream_state(2);
        m.step(&[0.1, 0.2, 0.3, 0.4], &mut state);
        let bytes = state.to_bytes();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            StreamState::from_bytes(&bad),
            Err(CheckpointError::BadMagic)
        );
        let mut vers = bytes.clone();
        vers[4] = 9;
        assert!(matches!(
            StreamState::from_bytes(&vers),
            Err(CheckpointError::BadVersion(9))
        ));
        assert_eq!(
            StreamState::from_bytes(&bytes[..bytes.len() - 2]),
            Err(CheckpointError::Truncated)
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            StreamState::from_bytes(&trailing),
            Err(CheckpointError::Truncated)
        );
    }

    #[test]
    fn stream_state_shape_gate_rejects_other_models() {
        // A state minted by a structurally different model must fail
        // the shape gate (that is the restore path's only guard).
        let a = tiny_model(23).stream_state(3);
        let wider = SequenceClassifier::new(
            Sequential::new(vec![Layer::dense(4, 6, 1), Layer::relu()]),
            LstmStack::new(6, &[9], 1),
            3,
            1,
        );
        assert!(!a.shape_matches(&wider.stream_state(3)));
        assert!(!a.shape_matches(&tiny_model(23).stream_state(4)));
        let cnn_only =
            SequenceClassifier::without_lstm(Sequential::new(vec![Layer::dense(4, 6, 1)]), 6, 3, 1);
        assert!(!a.shape_matches(&cnn_only.stream_state(3)));
    }
}
