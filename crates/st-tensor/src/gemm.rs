//! Cache-blocked, operand-packing GEMM kernels for the `Array` matrix
//! products.
//!
//! The naive triple loops the engine started with stream the B operand
//! from main memory once per A-row and leave all accumulation in memory.
//! These kernels follow the classic GotoBLAS decomposition scaled down to
//! this workspace's sizes (k up to a few hundred, n up to a few thousand):
//!
//! * B is packed once per call into `[n_tiles][k][NR]` column tiles, so the
//!   micro-kernel reads it with stride `NR` regardless of the original
//!   leading dimension — this is also where `matmul_t` folds in its
//!   transpose for free (an O(k·n) pack instead of an O(m·k·n) strided
//!   inner loop).
//! * The micro-kernel holds an `MR × NR` accumulator block in registers
//!   and walks the shared k dimension once, broadcasting each A element
//!   against an NR-wide B row; LLVM auto-vectorizes the fixed-size inner
//!   loops to SIMD FMAs.
//! * Pack buffers come from a thread-local scratch pool and are reused
//!   across calls, so steady-state training does no GEMM allocations
//!   beyond the output array itself.
//!
//! Accumulation is sequential in `p` for every path, so results are
//! deterministic for a given shape — a property the data-parallel trainer
//! relies on when it compares serial and sharded runs bit-for-bit.

use std::cell::RefCell;

#[cfg(target_arch = "x86_64")]
use crate::dispatch::avx2_fma;

/// Micro-kernel rows: accumulator block height.
const MR: usize = 4;
/// Micro-kernel cols: accumulator block width. Two AVX2 lanes per
/// accumulator row gives the 4×NR block eight independent add chains —
/// enough to keep both FP ports busy despite the 4-cycle add latency
/// (mul and add stay separate instructions; see the determinism note).
const NR: usize = 16;

/// Below this row count packing cannot amortize (the whole product costs
/// about as much as the pack); fall back to a straight row-major loop.
const PACK_MIN_ROWS: usize = 3;

struct Scratch {
    /// Packed B tiles, `[n_tiles][k][NR]`, zero-padded on the column edge.
    packed_b: Vec<f32>,
    /// Transposed copy of A for `t_matmul` (Aᵀ·B as a plain GEMM).
    packed_a: Vec<f32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            packed_b: Vec::new(),
            packed_a: Vec::new(),
        })
    };
}

/// Reserve `len` elements in a scratch buffer without zeroing re-used space.
fn ensure_len(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// `out[m×n] = a[m×k] · b[k×n]`, all row-major. With `acc` the product is
/// added into `out`; otherwise `out` is fully overwritten.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32], acc: bool) {
    #[cfg(feature = "kernel-timing")]
    let _kt = crate::ktime::timer(crate::ktime::Kernel::Gemm);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !acc {
            out.fill(0.0);
        }
        return;
    }
    if m < PACK_MIN_ROWS {
        return gemm_rowmajor_unpacked(m, k, n, a, b, out, acc);
    }
    SCRATCH.with(|s| {
        let scratch = &mut *s.borrow_mut();
        pack_b(k, n, b, &mut scratch.packed_b);
        gemm_packed(m, k, n, a, &scratch.packed_b, out, acc);
    });
}

/// `out[m×n] = a[m×k] · bᵀ` where `b` is stored `[n×k]` row-major. With
/// `acc` the product is added into `out`.
pub fn gemm_bt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32], acc: bool) {
    #[cfg(feature = "kernel-timing")]
    let _kt = crate::ktime::timer(crate::ktime::Kernel::GemmBt);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !acc {
            out.fill(0.0);
        }
        return;
    }
    if m < PACK_MIN_ROWS {
        bt_dot_rows(m, k, n, a, b, out, acc);
        return;
    }
    SCRATCH.with(|s| {
        let scratch = &mut *s.borrow_mut();
        pack_bt(k, n, b, &mut scratch.packed_b);
        gemm_packed(m, k, n, a, &scratch.packed_b, out, acc);
    });
}

/// `out[m×n] = aᵀ · b` where `a` is stored `[k×m]` row-major. With `acc`
/// the product is added into `out`.
pub fn gemm_at(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32], acc: bool) {
    #[cfg(feature = "kernel-timing")]
    let _kt = crate::ktime::timer(crate::ktime::Kernel::GemmAt);
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !acc {
            out.fill(0.0);
        }
        return;
    }
    if k <= 2 && m >= PACK_MIN_ROWS {
        return outer_at(m, k, n, a, b, out, acc);
    }
    SCRATCH.with(|s| {
        let scratch = &mut *s.borrow_mut();
        // Transpose A into scratch so the kernel sees contiguous A rows.
        ensure_len(&mut scratch.packed_a, m * k);
        let at = &mut scratch.packed_a[..m * k];
        for p in 0..k {
            let a_row = &a[p * m..(p + 1) * m];
            for (i, &v) in a_row.iter().enumerate() {
                at[i * k + p] = v;
            }
        }
        if m < PACK_MIN_ROWS {
            gemm_rowmajor_unpacked(m, k, n, at, b, out, acc);
        } else {
            pack_b(k, n, b, &mut scratch.packed_b);
            gemm_packed(m, k, n, at, &scratch.packed_b, out, acc);
        }
    });
}

/// A matrix packed once into the `[n_tiles][k][NR]` tile layout the packed
/// micro-kernel consumes, for operands that are constant across many calls
/// (decode weights). [`gemm`] re-packs B on every call because training
/// weights change every step; inference weights do not, so a session packs
/// each weight once and every step skips straight to the micro-kernel —
/// at *any* row count, since with the pack already paid the packed kernel
/// beats the row-major fallback even at m = 1.
///
/// Bit-compatibility: the packed and unpacked kernels accumulate in the
/// same `p`-sequential order and neither contracts mul+add, so overwriting
/// products (`acc = false`) through a `PackedB` are bit-identical to
/// [`gemm`] at every row count (pinned by the
/// `batched_rows_equal_single_rows` proptest). With `acc = true` the
/// packed kernel folds `out` in *after* the register accumulation, which
/// matches [`gemm`] only at `m ≥ PACK_MIN_ROWS` (below that, `gemm`'s
/// row-major fallback folds `out` in first — a last-ulp association
/// difference).
///
/// A transposed pack ([`PackedB::pack_t`]) matches [`gemm_bt`] at every row
/// count, `acc = true` included: `gemm_bt`'s dot-product fallback also sums
/// each output before adding it to `out`, in the same `p` order. The two
/// sums can differ only in the sign of an exactly-zero result, which adding
/// it to an `out` that is not −0.0 cannot show; the tape's gradient
/// accumulators start at +0.0 and a sum is −0.0 only when both its terms
/// are, so they never hold −0.0 (DESIGN §7).
pub struct PackedB {
    k: usize,
    n: usize,
    tiles: Vec<f32>,
}

impl PackedB {
    /// Pack `b[k×n]` (row-major) into micro-kernel tile order.
    pub fn pack(k: usize, n: usize, b: &[f32]) -> Self {
        assert_eq!(b.len(), k * n, "PackedB::pack: b is not k×n");
        let mut tiles = Vec::new();
        pack_b(k, n, b, &mut tiles);
        Self { k, n, tiles }
    }

    /// Pack `bᵀ`, for a `b` stored `[n×k]` row-major: the B operand of
    /// `a · bᵀ`, laid out as [`PackedB::pack`] lays out an explicit `[k×n]`
    /// transpose.
    pub fn pack_t(k: usize, n: usize, b: &[f32]) -> Self {
        assert_eq!(b.len(), k * n, "PackedB::pack_t: b is not n×k");
        let mut tiles = Vec::new();
        pack_bt(k, n, b, &mut tiles);
        Self { k, n, tiles }
    }

    /// Rows of the original matrix (the shared GEMM dimension).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns of the original matrix (the output width).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Floats held by the packed tiles (edge tiles zero-padded).
    pub fn len(&self) -> usize {
        self.tiles.len()
    }
}

/// `out[m×n] = a[m×k] · B` with `B` packed ahead of time ([`PackedB`]).
/// With `acc` the product is added into `out`. Bit-identical to [`gemm`]
/// on the same operands.
pub fn gemm_prepacked(m: usize, a: &[f32], b: &PackedB, out: &mut [f32], acc: bool) {
    #[cfg(feature = "kernel-timing")]
    let _kt = crate::ktime::timer(crate::ktime::Kernel::Gemm);
    debug_assert_eq!(a.len(), m * b.k);
    debug_assert_eq!(out.len(), m * b.n);
    if m == 0 || b.n == 0 {
        return;
    }
    if b.k == 0 {
        if !acc {
            out.fill(0.0);
        }
        return;
    }
    gemm_packed(m, b.k, b.n, a, &b.tiles, out, acc);
}

/// `out[m×n] += a[m×k] · b[k×n]` with `out` folded in *first*: each output
/// becomes `((out + a₀b₀) + a₁b₁) + …`, the order of a loop that adds every
/// product straight into its accumulator (the row-major kernel that
/// [`gemm`] runs below `PACK_MIN_ROWS`, at any row count).
pub fn gemm_acc_in_order(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    gemm_rowmajor_unpacked(m, k, n, a, b, out, true)
}

/// [`gemm_at`] for one or two shared rows (`k ≤ 2`) at row counts that
/// [`gemm_at`] runs on the packed kernel: there the pack and the transpose
/// of `a` would cost more than the product. Each output is the packed
/// kernel's register sum `(0 + a₀b₀) + a₁b₁`, folded into `out` last, so
/// the bits are the packed kernel's.
fn outer_at(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32], acc: bool) {
    #[cfg(target_arch = "x86_64")]
    if avx2_fma() {
        // SAFETY: feature presence checked at runtime.
        return unsafe { outer_at_avx2(m, k, n, a, b, out, acc) };
    }
    outer_at_impl(m, k, n, a, b, out, acc)
}

/// SAFETY: `#[target_feature]`-only unsafety, same contract as
/// [`gemm_rowmajor_avx2`] — the body is the safe `outer_at_impl` with
/// AVX2+FMA codegen. Callers must have verified [`avx2_fma()`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn outer_at_avx2(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    acc: bool,
) {
    outer_at_impl(m, k, n, a, b, out, acc)
}

#[inline(always)]
fn outer_at_impl(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32], acc: bool) {
    let b0 = &b[..n];
    for (i, o_row) in out.chunks_exact_mut(n).enumerate().take(m) {
        let a0 = a[i];
        if k == 1 {
            if acc {
                for (o, &x0) in o_row.iter_mut().zip(b0) {
                    *o += 0.0 + a0 * x0;
                }
            } else {
                for (o, &x0) in o_row.iter_mut().zip(b0) {
                    *o = 0.0 + a0 * x0;
                }
            }
        } else {
            let (a1, b1) = (a[m + i], &b[n..2 * n]);
            if acc {
                for ((o, &x0), &x1) in o_row.iter_mut().zip(b0).zip(b1) {
                    *o += (0.0 + a0 * x0) + a1 * x1;
                }
            } else {
                for ((o, &x0), &x1) in o_row.iter_mut().zip(b0).zip(b1) {
                    *o = (0.0 + a0 * x0) + a1 * x1;
                }
            }
        }
    }
}

/// Straight ikj loop for row counts too small to amortize packing. Same
/// `p`-sequential accumulation order as the packed kernel.
fn gemm_rowmajor_unpacked(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    acc: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if avx2_fma() {
        // SAFETY: feature presence checked at runtime.
        return unsafe { gemm_rowmajor_avx2(m, k, n, a, b, out, acc) };
    }
    gemm_rowmajor_impl(m, k, n, a, b, out, acc)
}

/// SAFETY: the only unsafety is `#[target_feature]` — the body is the safe
/// `gemm_rowmajor_impl` recompiled with AVX2+FMA codegen and contains no raw
/// pointers or intrinsics of its own. Callers must ensure the CPU supports
/// AVX2 and FMA (every call site checks [`avx2_fma()`] first); executing it
/// on a CPU without them is undefined behavior (illegal instruction). Slice
/// preconditions (`a: m×k`, `b: k×n`, `out: m×n`) are asserted by the safe
/// `gemm_rowmajor` entry point before dispatch.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemm_rowmajor_avx2(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    acc: bool,
) {
    gemm_rowmajor_impl(m, k, n, a, b, out, acc)
}

#[inline(always)]
fn gemm_rowmajor_impl(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    acc: bool,
) {
    if !acc {
        out.fill(0.0);
    }
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Dot-product form of `a·bᵀ` for tiny row counts: both operand rows are
/// contiguous, so packing would cost more than it saves.
fn bt_dot_rows(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32], acc: bool) {
    #[cfg(target_arch = "x86_64")]
    if avx2_fma() {
        // SAFETY: feature presence checked at runtime.
        return unsafe { bt_dot_rows_avx2(m, k, n, a, b, out, acc) };
    }
    bt_dot_rows_impl(m, k, n, a, b, out, acc)
}

/// SAFETY: `#[target_feature]`-only unsafety, same contract as
/// [`gemm_rowmajor_avx2`] — the body is the safe `bt_dot_rows_impl` with
/// AVX2+FMA codegen. Callers must have verified [`avx2_fma()`]; the
/// `a: m×k`, `b: n×k`, `out: m×n` slice invariants are asserted by the safe
/// `bt_dot_rows` wrapper.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn bt_dot_rows_avx2(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    acc: bool,
) {
    bt_dot_rows_impl(m, k, n, a, b, out, acc)
}

#[inline(always)]
fn bt_dot_rows_impl(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    acc: bool,
) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let s = dot(a_row, b_row);
            if acc {
                out[i * n + j] += s;
            } else {
                out[i * n + j] = s;
            }
        }
    }
}

#[inline(always)]
fn dot(x: &[f32], y: &[f32]) -> f32 {
    x.iter().zip(y).map(|(&a, &b)| a * b).sum()
}

/// Pack `b[k×n]` into `[n_tiles][k][NR]` tiles, zero-padding edge columns.
fn pack_b(k: usize, n: usize, b: &[f32], packed: &mut Vec<f32>) {
    let n_tiles = n.div_ceil(NR);
    ensure_len(packed, n_tiles * k * NR);
    for t in 0..n_tiles {
        let j0 = t * NR;
        let jw = NR.min(n - j0);
        let tile = &mut packed[t * k * NR..(t + 1) * k * NR];
        for p in 0..k {
            let src = &b[p * n + j0..p * n + j0 + jw];
            let dst = &mut tile[p * NR..p * NR + NR];
            dst[..jw].copy_from_slice(src);
            dst[jw..].fill(0.0);
        }
    }
}

/// Pack `bᵀ` (with `b` stored `[n×k]`) into the same tile layout as
/// [`pack_b`]: the transpose costs O(k·n) here instead of poisoning the
/// O(m·k·n) inner loop with stride-k reads.
fn pack_bt(k: usize, n: usize, b: &[f32], packed: &mut Vec<f32>) {
    let n_tiles = n.div_ceil(NR);
    ensure_len(packed, n_tiles * k * NR);
    for t in 0..n_tiles {
        let j0 = t * NR;
        let jw = NR.min(n - j0);
        let tile = &mut packed[t * k * NR..(t + 1) * k * NR];
        for (jj, row) in b[j0 * k..].chunks_exact(k).take(jw).enumerate() {
            for (p, &v) in row.iter().enumerate() {
                tile[p * NR + jj] = v;
            }
        }
        if jw < NR {
            for p in 0..k {
                tile[p * NR + jw..(p + 1) * NR].fill(0.0);
            }
        }
    }
}

/// Macro-loop over packed tiles: MR-row blocks of A against NR-column
/// tiles of packed B.
fn gemm_packed(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    packed_b: &[f32],
    out: &mut [f32],
    acc: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if avx2_fma() {
        // SAFETY: feature presence checked at runtime.
        return unsafe { gemm_packed_avx2(m, k, n, a, packed_b, out, acc) };
    }
    gemm_packed_impl(m, k, n, a, packed_b, out, acc)
}

/// SAFETY: `#[target_feature]`-only unsafety, same contract as
/// [`gemm_rowmajor_avx2`]. Callers must have verified [`avx2_fma()`]. The
/// packed-buffer invariant — `packed_b` holds `ceil(n/NR)` column panels of
/// `k×NR` zero-padded floats, exactly as laid out by `pack_b` — is
/// established by the safe `gemm_packed` wrapper, which also asserts the
/// `a`/`out` dimensions.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemm_packed_avx2(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    packed_b: &[f32],
    out: &mut [f32],
    acc: bool,
) {
    gemm_packed_impl(m, k, n, a, packed_b, out, acc)
}

#[inline(always)]
fn gemm_packed_impl(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    packed_b: &[f32],
    out: &mut [f32],
    acc: bool,
) {
    let n_tiles = n.div_ceil(NR);
    for t in 0..n_tiles {
        let j0 = t * NR;
        let jw = NR.min(n - j0);
        let tile = &packed_b[t * k * NR..(t + 1) * k * NR];
        let mut i0 = 0;
        while i0 + MR <= m {
            micro_kernel_4(k, &a[i0 * k..], tile, jw, &mut out[i0 * n + j0..], n, acc);
            i0 += MR;
        }
        for i in i0..m {
            micro_kernel_1(
                k,
                &a[i * k..(i + 1) * k],
                tile,
                jw,
                &mut out[i * n + j0..],
                acc,
            );
        }
    }
}

/// 4×NR register-accumulator kernel: walks k once, broadcasting each of
/// the four A elements against the NR-wide packed B row.
#[inline(always)]
fn micro_kernel_4(
    k: usize,
    a: &[f32],
    tile: &[f32],
    jw: usize,
    out: &mut [f32],
    ldc: usize,
    add_in: bool,
) {
    let mut acc = [[0.0f32; NR]; MR];
    let a0 = a[..k].iter();
    let a1 = a[k..2 * k].iter();
    let a2 = a[2 * k..3 * k].iter();
    let a3 = a[3 * k..4 * k].iter();
    // Pure zipped iteration: no index arithmetic or bounds checks survive
    // in the hot loop, and the k trip count is explicit to the optimizer.
    for ((((brow, &a0v), &a1v), &a2v), &a3v) in
        tile.chunks_exact(NR).zip(a0).zip(a1).zip(a2).zip(a3)
    {
        let av = [a0v, a1v, a2v, a3v];
        for (accr, &ar) in acc.iter_mut().zip(&av) {
            for (o, &bv) in accr.iter_mut().zip(brow) {
                *o += ar * bv;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let dst = &mut out[r * ldc..r * ldc + jw];
        if add_in {
            for (o, &v) in dst.iter_mut().zip(accr) {
                *o += v;
            }
        } else {
            dst.copy_from_slice(&accr[..jw]);
        }
    }
}

/// Single-row edge kernel for the m % MR tail.
#[inline(always)]
fn micro_kernel_1(k: usize, a_row: &[f32], tile: &[f32], jw: usize, out: &mut [f32], add_in: bool) {
    let mut acc = [0.0f32; NR];
    for (p, brow) in tile.chunks_exact(NR).enumerate().take(k) {
        let av = a_row[p];
        for (o, &bv) in acc.iter_mut().zip(brow) {
            *o += av * bv;
        }
    }
    if add_in {
        for (o, &v) in out[..jw].iter_mut().zip(&acc) {
            *o += v;
        }
    } else {
        out[..jw].copy_from_slice(&acc[..jw]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, seed: u64) -> Vec<f32> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
    }

    fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f32;
                for p in 0..k {
                    s += a[i * k + p] * b[p * n + j];
                }
                out[i * n + j] = s;
            }
        }
        out
    }

    #[test]
    fn shapes_including_edges() {
        // Cover every (m % MR, n % NR) edge combination plus tiny dims.
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 7, 13),
            (2, 5, 9),
            (3, 4, 8),
            (4, 8, 8),
            (5, 3, 17),
            (6, 16, 1),
            (7, 9, 23),
            (8, 32, 40),
            (13, 21, 34),
        ] {
            let a = fill(m * k, (m * 100 + k) as u64);
            let b = fill(k * n, (k * 100 + n) as u64);
            let want = naive(m, k, n, &a, &b);

            let mut got = vec![9.9; m * n];
            gemm(m, k, n, &a, &b, &mut got, false);
            for (w, g) in want.iter().zip(&got) {
                assert!((w - g).abs() <= 1e-4 * w.abs().max(1.0), "gemm {m}x{k}x{n}");
            }

            // bᵀ path: store B transposed ([n×k]) and ask for a·bᵀ.
            let mut bt = vec![0.0; n * k];
            for p in 0..k {
                for j in 0..n {
                    bt[j * k + p] = b[p * n + j];
                }
            }
            let mut got = vec![9.9; m * n];
            gemm_bt(m, k, n, &a, &bt, &mut got, false);
            for (w, g) in want.iter().zip(&got) {
                assert!(
                    (w - g).abs() <= 1e-4 * w.abs().max(1.0),
                    "gemm_bt {m}x{k}x{n}"
                );
            }

            // aᵀ path: store A transposed ([k×m]) and ask for aᵀ·b.
            let mut at = vec![0.0; k * m];
            for i in 0..m {
                for p in 0..k {
                    at[p * m + i] = a[i * k + p];
                }
            }
            let mut got = vec![9.9; m * n];
            gemm_at(m, k, n, &at, &b, &mut got, false);
            for (w, g) in want.iter().zip(&got) {
                assert!(
                    (w - g).abs() <= 1e-4 * w.abs().max(1.0),
                    "gemm_at {m}x{k}x{n}"
                );
            }
        }
    }

    #[test]
    fn prepacked_is_bit_identical_to_gemm_at_every_row_count() {
        let k = 11;
        let n = 21;
        let b = fill(k * n, 42);
        let packed = PackedB::pack(k, n, &b);
        assert_eq!((packed.k(), packed.n()), (k, n));
        for m in 1..=9 {
            let a = fill(m * k, m as u64);
            let mut want = vec![0.0; m * n];
            gemm(m, k, n, &a, &b, &mut want, false);
            let mut got = vec![9.9; m * n];
            gemm_prepacked(m, &a, &packed, &mut got, false);
            assert_eq!(got, want, "m={m}");
            // The accumulate path matches gemm wherever gemm itself runs the
            // packed kernel (m ≥ PACK_MIN_ROWS); below that the fold-in
            // association differs by design (see the PackedB docs).
            if m >= PACK_MIN_ROWS {
                let mut acc_want = vec![0.25; m * n];
                gemm(m, k, n, &a, &b, &mut acc_want, true);
                let mut acc_got = vec![0.25; m * n];
                gemm_prepacked(m, &a, &packed, &mut acc_got, true);
                assert_eq!(acc_got, acc_want, "acc m={m}");
            }
        }
    }

    /// Values in `[-2, 2)` with about one in four exactly `±0.0`.
    fn fill_zeros(len: usize, seed: u64) -> Vec<f32> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| match rng.gen_range(0..8) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `gemm_at` with one or two shared rows takes the outer-product path
    /// at packed row counts; it must give the packed kernel's bits.
    #[test]
    fn outer_products_match_the_packed_kernel() {
        for k in 1..=2 {
            for m in PACK_MIN_ROWS..=9 {
                for n in [1, 7, 16, 33] {
                    let a = fill_zeros(k * m, (k * 100 + m * 10 + n) as u64);
                    let b = fill_zeros(k * n, (k * 1000 + m * 10 + n) as u64);
                    let mut at = vec![0.0; m * k];
                    for p in 0..k {
                        for i in 0..m {
                            at[i * k + p] = a[p * m + i];
                        }
                    }
                    let packed = PackedB::pack(k, n, &b);
                    for acc in [false, true] {
                        let init = fill_zeros(m * n, 7)
                            .iter()
                            .map(|v| v.abs())
                            .collect::<Vec<_>>();
                        let mut want = init.clone();
                        gemm_prepacked(m, &at, &packed, &mut want, acc);
                        let mut got = init;
                        gemm_at(m, k, n, &a, &b, &mut got, acc);
                        assert_eq!(bits(&got), bits(&want), "k={k} m={m} n={n} acc={acc}");
                    }
                }
            }
        }
    }

    /// A transposed pack accumulates `a · bᵀ` into `out` as `gemm_bt` does
    /// at every row count, its dot-product fallback included, over exact
    /// zeros of both signs and an `out` without −0.0.
    #[test]
    fn transposed_pack_matches_gemm_bt_at_every_row_count() {
        let (k, n) = (19, 21);
        let b = fill_zeros(n * k, 3);
        let packed = PackedB::pack_t(k, n, &b);
        assert_eq!((packed.k(), packed.n()), (k, n));
        for m in 1..=9 {
            let a = fill_zeros(m * k, m as u64);
            let init: Vec<f32> = fill_zeros(m * n, 11).iter().map(|v| v.abs()).collect();
            let mut want = init.clone();
            gemm_bt(m, k, n, &a, &b, &mut want, true);
            let mut got = init;
            gemm_prepacked(m, &a, &packed, &mut got, true);
            assert_eq!(bits(&got), bits(&want), "m={m}");
        }
    }

    /// Every output of the packed kernel is `p`-sequential from +0.0 and
    /// folded into `out` last, whichever micro-kernel computes it (the
    /// 4-row blocks or the one-row tail), across full and partial tiles.
    #[test]
    fn packed_kernel_sums_every_output_in_order() {
        for m in 1..=9 {
            for n in [16, 64, 65, 100, 192] {
                let k = 13;
                let a = fill_zeros(m * k, (m * 1000 + n) as u64);
                let b = fill_zeros(k * n, n as u64);
                let packed = PackedB::pack(k, n, &b);
                let init: Vec<f32> = fill_zeros(m * n, 5).iter().map(|v| v.abs()).collect();
                for acc in [false, true] {
                    let mut want = init.clone();
                    for i in 0..m {
                        for j in 0..n {
                            let mut sum = 0.0f32;
                            for p in 0..k {
                                sum += a[i * k + p] * b[p * n + j];
                            }
                            want[i * n + j] = if acc { want[i * n + j] + sum } else { sum };
                        }
                    }
                    let mut got = init.clone();
                    gemm_prepacked(m, &a, &packed, &mut got, acc);
                    assert_eq!(bits(&got), bits(&want), "m={m} n={n} acc={acc}");
                }
            }
        }
    }

    /// `gemm_acc_in_order` adds every product straight into `out`.
    #[test]
    fn in_order_gemm_folds_out_in_first() {
        for &(m, k, n) in &[(1, 3, 5), (4, 7, 17), (6, 2, 3)] {
            let a = fill_zeros(m * k, 21);
            let b = fill_zeros(k * n, 22);
            let mut want = fill_zeros(m * n, 23);
            let mut got = want.clone();
            for i in 0..m {
                for j in 0..n {
                    for p in 0..k {
                        want[i * n + j] += a[i * k + p] * b[p * n + j];
                    }
                }
            }
            gemm_acc_in_order(m, k, n, &a, &b, &mut got);
            assert_eq!(bits(&got), bits(&want), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn zero_k_zeroes_output() {
        let mut out = vec![5.0; 6];
        gemm(2, 0, 3, &[], &[], &mut out, false);
        assert_eq!(out, vec![0.0; 6]);
    }

    #[test]
    fn scratch_reuse_is_clean() {
        // A big product followed by a small one must not read stale pack data.
        let a = fill(16 * 32, 1);
        let b = fill(32 * 24, 2);
        let mut out = vec![0.0; 16 * 24];
        gemm(16, 32, 24, &a, &b, &mut out, false);

        let a2 = fill(4 * 3, 3);
        let b2 = fill(3 * 5, 4);
        let mut got = vec![0.0; 4 * 5];
        gemm(4, 3, 5, &a2, &b2, &mut got, false);
        let want = naive(4, 3, 5, &a2, &b2);
        for (w, g) in want.iter().zip(&got) {
            assert!((w - g).abs() < 1e-5);
        }
    }

    #[test]
    fn accumulate_adds_onto_existing() {
        for &(m, k, n) in &[(1, 4, 5), (5, 7, 11), (8, 3, 8)] {
            let a = fill(m * k, 7);
            let b = fill(k * n, 8);
            let want: Vec<f32> = naive(m, k, n, &a, &b).iter().map(|v| v + 0.5).collect();
            let mut got = vec![0.5; m * n];
            gemm(m, k, n, &a, &b, &mut got, true);
            for (w, g) in want.iter().zip(&got) {
                assert!(
                    (w - g).abs() <= 1e-4 * w.abs().max(1.0),
                    "acc gemm {m}x{k}x{n}"
                );
            }
        }
    }
}
