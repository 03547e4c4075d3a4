//! Cache-blocked macro-tiling with a parallel M-tile loop.
//!
//! The [`fast`](crate::fast) microkernels stream whole operands: for
//! shapes that exceed L2 the `B` panel is re-fetched from memory for
//! every output row, and only one core ever works. This module wraps
//! the same arithmetic in a classic GotoBLAS-style `Mc × Kc × Nc`
//! blocking layer:
//!
//! * `B` is packed once per call into panel-major storage — one
//!   contiguous `kc × nc` panel per `(jc, pc)` block (the `nt` layout
//!   is transposed while packing), sized to sit in L2 while every row
//!   of an M-tile streams over it. Every panel runs the
//!   [`fast`](crate::fast) `gemm_nn` microkernel.
//! * The M dimension is cut into `Mc`-row macro-tiles, and the tile
//!   loop is fanned out over [`m2ai_par::parallel_map`]. Each task owns
//!   a *disjoint* row range of `C`: it copies its rows into a local
//!   tile, accumulates all `(pc, jc)` panels into it, and returns the
//!   finished rows, which the caller writes back in index order.
//!
//! ## Determinism and bit-exactness
//!
//! Parallelism here never touches a reduction: tasks share only
//! read-only packed operands and each output element is owned by
//! exactly one task. Within a task the `K` panels are visited in
//! ascending `pc` order and each panel's inner loop visits `p` in
//! ascending order, so every output element sees the crate's
//! contractual single `mul_add` chain over ascending `k` — the same
//! chain, step for step, as the single-threaded [`fast`](crate::fast)
//! kernels (intermediate f32 stores are exact). The result is
//! therefore **bit-identical** to `fast` for every thread count, and
//! `reference` remains the semantic oracle within the usual ≤1-ulp-
//! per-step FMA envelope.
//!
//! ## Thread budget
//!
//! The entry points take their parallelism from
//! [`m2ai_par::budget::gemm_threads`], so a GEMM running inside a
//! fabric shard worker automatically shrinks its fan-out as shards are
//! reserved (`shards × tile-threads ≤ cores`). The `_with_threads`
//! variants exist for tests and benchmarks that pin the count.

use crate::fast;

/// Rows per macro-tile (the parallel work unit).
pub const MC: usize = 64;
/// Reduction-dimension panel depth.
pub const KC: usize = 256;
/// Output-column panel width.
pub const NC: usize = 128;

/// Below this many multiply-adds (`m·n·k`) the packing + spawn
/// overhead outweighs the win and the call falls through to `fast`.
const PAR_FLOP_FLOOR: usize = 1 << 20;

/// Tasks spawned through the parallel tile loop.
fn tile_tasks() -> &'static m2ai_obs::Counter {
    static C: std::sync::OnceLock<m2ai_obs::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| {
        m2ai_obs::counter(
            "m2ai_kernels_tile_tasks_total",
            "M-macro-tile tasks dispatched by the tiled parallel GEMM",
            &[],
        )
    })
}

/// True when the tiled parallel path should engage at all.
fn worthwhile(m: usize, n: usize, k: usize, threads: usize) -> bool {
    threads > 1 && m >= 2 * MC && m.saturating_mul(n).saturating_mul(k) >= PAR_FLOP_FLOOR
}

/// One packed panel of `B`: `rows × cols` contiguous at `off`.
struct Panel {
    /// Start of this panel's block in the reduction dimension.
    p0: usize,
    /// Panel depth along the reduction dimension.
    kc: usize,
    /// First output column covered by this panel.
    j0: usize,
    /// Number of output columns covered.
    nc: usize,
    /// Offset of the panel's contiguous storage in the pack buffer.
    off: usize,
}

/// Packs the logical `[k×n]` operand `B` into `(pc outer, jc inner)`
/// panels of `kc × nc` row-major each (row = `p`, col = `j`), the
/// layout the `gemm_nn` microkernel streams. `b_at(p, j)` reads
/// `B[p][j]`, so a transposed operand is transposed while packing.
fn pack_b(n: usize, k: usize, b_at: impl Fn(usize, usize) -> f32) -> (Vec<f32>, Vec<Panel>) {
    let mut data = Vec::with_capacity(k * n);
    let mut panels = Vec::new();
    let mut p0 = 0;
    while p0 < k {
        let kc = KC.min(k - p0);
        let mut j0 = 0;
        while j0 < n {
            let nc = NC.min(n - j0);
            let off = data.len();
            for p in p0..p0 + kc {
                data.extend((j0..j0 + nc).map(|j| b_at(p, j)));
            }
            panels.push(Panel {
                p0,
                kc,
                j0,
                nc,
                off,
            });
            j0 += nc;
        }
        p0 += kc;
    }
    (data, panels)
}

/// How each operand layout packs its `A` macro-tile.
enum APack {
    /// `A` is `[m×k]` row-major: tile rows are contiguous `k` slices.
    Rows,
    /// `A` is `[k×m]` row-major (the `tn` shape): tile elements gather
    /// down strided columns.
    Cols,
}

/// Shared tile loop: fans the M-tile loop over `threads` workers,
/// runs the `gemm_nn` microkernel per packed `B` panel, and writes the
/// finished tiles back in index order.
#[allow(clippy::too_many_arguments)]
fn tiled_gemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    (b_data, panels): (Vec<f32>, Vec<Panel>),
    c: &mut [f32],
    threads: usize,
    a_pack: APack,
) {
    let n_tiles = m.div_ceil(MC);
    tile_tasks().add(n_tiles as u64);
    let c_ro: &[f32] = c;
    let tiles: Vec<Vec<f32>> = m2ai_par::parallel_map(n_tiles, threads, |t| {
        let i0 = t * MC;
        let mc = MC.min(m - i0);
        let mut c_tile = c_ro[i0 * n..(i0 + mc) * n].to_vec();
        let mut a_tile = vec![0.0f32; mc * KC.min(k)];
        let mut packed_p0 = usize::MAX;
        for panel in &panels {
            if panel.p0 != packed_p0 {
                // New K panel: gather this tile's A block once and
                // reuse it across every jc panel at this depth.
                match a_pack {
                    APack::Rows => {
                        for i in 0..mc {
                            a_tile[i * panel.kc..(i + 1) * panel.kc].copy_from_slice(
                                &a[(i0 + i) * k + panel.p0..(i0 + i) * k + panel.p0 + panel.kc],
                            );
                        }
                    }
                    APack::Cols => {
                        for i in 0..mc {
                            for p in 0..panel.kc {
                                a_tile[i * panel.kc + p] = a[(panel.p0 + p) * m + i0 + i];
                            }
                        }
                    }
                }
                packed_p0 = panel.p0;
            }
            fast::gemm_nn_strided(
                mc,
                panel.nc,
                panel.kc,
                &a_tile[..mc * panel.kc],
                &b_data[panel.off..panel.off + panel.kc * panel.nc],
                panel.nc,
                &mut c_tile[panel.j0..],
                n,
            );
        }
        c_tile
    });
    for (t, tile) in tiles.into_iter().enumerate() {
        let i0 = t * MC;
        c[i0 * n..i0 * n + tile.len()].copy_from_slice(&tile);
    }
}

/// C\[m×n\] += A\[m×k\] · B\[k×n\] with an explicit tile-thread count.
pub fn gemm_nn_with_threads(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    threads: usize,
) {
    if !worthwhile(m, n, k, threads) {
        return fast::gemm_nn(m, n, k, a, b, c);
    }
    assert_eq!(a.len(), m * k, "gemm_nn: A shape mismatch");
    assert_eq!(b.len(), k * n, "gemm_nn: B shape mismatch");
    assert_eq!(c.len(), m * n, "gemm_nn: C shape mismatch");
    let packed = pack_b(n, k, |p, j| b[p * n + j]);
    tiled_gemm(m, n, k, a, packed, c, threads, APack::Rows);
}

/// C\[m×n\] += A\[m×k\] · Bᵀ (B \[n×k\] row-major) with an explicit
/// tile-thread count.
pub fn gemm_nt_with_threads(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    threads: usize,
) {
    if !worthwhile(m, n, k, threads) {
        return fast::gemm_nt(m, n, k, a, b, c);
    }
    assert_eq!(a.len(), m * k, "gemm_nt: A shape mismatch");
    assert_eq!(b.len(), n * k, "gemm_nt: B shape mismatch");
    assert_eq!(c.len(), m * n, "gemm_nt: C shape mismatch");
    let packed = pack_b(n, k, |p, j| b[j * k + p]);
    tiled_gemm(m, n, k, a, packed, c, threads, APack::Rows);
}

/// C\[m×n\] += Aᵀ · B (A \[k×m\], B \[k×n\] row-major) with an explicit
/// tile-thread count.
pub fn gemm_tn_with_threads(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    threads: usize,
) {
    if !worthwhile(m, n, k, threads) {
        return fast::gemm_tn(m, n, k, a, b, c);
    }
    assert_eq!(a.len(), k * m, "gemm_tn: A shape mismatch");
    assert_eq!(b.len(), k * n, "gemm_tn: B shape mismatch");
    assert_eq!(c.len(), m * n, "gemm_tn: C shape mismatch");
    let packed = pack_b(n, k, |p, j| b[p * n + j]);
    tiled_gemm(m, n, k, a, packed, c, threads, APack::Cols);
}

/// C\[m×n\] += A\[m×k\] · B\[k×n\], budgeted tile parallelism.
pub fn gemm_nn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_nn_with_threads(m, n, k, a, b, c, m2ai_par::budget::gemm_threads());
}

/// C\[m×n\] += A\[m×k\] · Bᵀ (B \[n×k\]), budgeted tile parallelism.
pub fn gemm_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_nt_with_threads(m, n, k, a, b, c, m2ai_par::budget::gemm_threads());
}

/// C\[m×n\] += Aᵀ · B (A \[k×m\], B \[k×n\]), budgeted tile parallelism.
pub fn gemm_tn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_tn_with_threads(m, n, k, a, b, c, m2ai_par::budget::gemm_threads());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: u64, n: usize) -> Vec<f32> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    /// Shapes chosen to exercise tiling for real: m spans multiple
    /// MC tiles with a ragged edge, k spans multiple KC panels, n
    /// spans multiple NC panels.
    const M: usize = 2 * MC + 17;
    const N: usize = NC + 21;
    const K: usize = KC + 33;

    #[test]
    fn nn_bitwise_matches_fast_any_thread_count() {
        let a = lcg(1, M * K);
        let b = lcg(2, K * N);
        let mut want = lcg(3, M * N);
        let seed_c = want.clone();
        fast::gemm_nn(M, N, K, &a, &b, &mut want);
        for threads in [1, 2, 3, 8] {
            let mut c = seed_c.clone();
            gemm_nn_with_threads(M, N, K, &a, &b, &mut c, threads);
            assert_eq!(c, want, "threads={threads}");
        }
    }

    #[test]
    fn nt_bitwise_matches_fast_any_thread_count() {
        let a = lcg(4, M * K);
        let b = lcg(5, N * K);
        let mut want = lcg(6, M * N);
        let seed_c = want.clone();
        fast::gemm_nt(M, N, K, &a, &b, &mut want);
        for threads in [1, 2, 3, 8] {
            let mut c = seed_c.clone();
            gemm_nt_with_threads(M, N, K, &a, &b, &mut c, threads);
            assert_eq!(c, want, "threads={threads}");
        }
    }

    #[test]
    fn tn_bitwise_matches_fast_any_thread_count() {
        let a = lcg(7, K * M);
        let b = lcg(8, K * N);
        let mut want = lcg(9, M * N);
        let seed_c = want.clone();
        fast::gemm_tn(M, N, K, &a, &b, &mut want);
        for threads in [1, 2, 3, 8] {
            let mut c = seed_c.clone();
            gemm_tn_with_threads(M, N, K, &a, &b, &mut c, threads);
            assert_eq!(c, want, "threads={threads}");
        }
    }

    #[test]
    fn small_shapes_fall_through_to_fast() {
        // Below the flop floor nothing tiles; results must still be
        // bitwise identical because the call IS fast::gemm_nn.
        let a = lcg(10, 8 * 8);
        let b = lcg(11, 8 * 8);
        let mut c1 = vec![0.0; 64];
        let mut c2 = vec![0.0; 64];
        gemm_nn_with_threads(8, 8, 8, &a, &b, &mut c1, 4);
        fast::gemm_nn(8, 8, 8, &a, &b, &mut c2);
        assert_eq!(c1, c2);
    }
}
