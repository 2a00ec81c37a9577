//! Tape-free inference runtime: pure-`Array` forward kernels for decoding.
//!
//! Training needs the autodiff [`Tape`]; serving does
//! not. Route decoding runs the model forward thousands of times per query,
//! and recording an autodiff graph for each step costs tape nodes, backward
//! closures and `Rc` traffic that are thrown away immediately. This module
//! is the forward path split out of autodiff, and its kernels are the one
//! forward definition of their ops: the taped [`crate::ops`] and
//! [`crate::conv`] ops with a kernel here (affine, bias add, the gathers,
//! softmax, log-softmax, conv2d, pooling and the channel ops) call it for
//! their values, and the rest share its arithmetic (the packed GEMM, the
//! [`crate::mathfn`] activations). Decoders built on it produce
//! bit-identical routes (the parity suites check each layer's composition
//! of these kernels against its taped forward) but record nothing and, in
//! steady state, allocate nothing.
//!
//! # Scratch arena
//!
//! Output arrays are drawn from a [`ScratchArena`]: a free-list of whole
//! [`Array`]s owned by the caller. A decoder allocates from the arena inside
//! its step, recycles dead intermediates back into it, and after the first
//! step every `alloc` is a pop from the free-list that reuses both the data
//! and the shape buffer. The arena is plain data (`Send`), so one can be
//! kept per serving thread.
//!
//! # Zero-tape contract
//!
//! Nothing in the inference hot path may construct a `Tape` (or a `Binder`,
//! which borrows one). The contract is enforced three ways:
//!
//! * [`TapeFreeScope`] asserts, in debug builds, that no tape was created
//!   on the thread while the scope was alive.
//! * `Tape::live_count` / `Tape::created_count` expose the thread-local
//!   counters for ad-hoc checks and gauges.
//! * The `st-lint` `tape-in-infer` rule flags `Tape::new` / `Binder::new`
//!   textually reachable from `infer`-path functions at CI time.

use crate::array::Array;
use crate::tape::Tape;

/// A free-list of arrays backing inference outputs.
///
/// [`ScratchArena::alloc`] pops a pooled array with sufficient capacity (or
/// allocates one the first time a size is seen) and returns it re-shaped
/// and zeroed; [`ScratchArena::recycle`] returns a dead array to the list.
/// Pooling whole arrays reuses their shape `Vec` as well as their data, so
/// once a decoding loop has warmed up, its per-step allocation count is
/// zero.
#[derive(Default)]
pub struct ScratchArena {
    pool: Vec<Array>,
}

impl ScratchArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// A zeroed array of `shape`, backed by a recycled array when one with
    /// enough capacity is pooled.
    pub fn alloc(&mut self, shape: &[usize]) -> Array {
        self.take(shape, true)
    }

    /// Like [`ScratchArena::alloc`] but without zeroing: a recycled buffer
    /// keeps whatever values it held. Only for outputs whose every element
    /// is overwritten before being read (GEMM outputs with `acc = false`,
    /// gather targets, …) — the zero-fill is pure overhead there, and on
    /// the decode hot path it is measurable.
    pub fn alloc_uninit(&mut self, shape: &[usize]) -> Array {
        self.take(shape, false)
    }

    fn take(&mut self, shape: &[usize], zero: bool) -> Array {
        let len: usize = shape.iter().product();
        // Most recently recycled arrays are checked first: a decode step
        // recycles and re-allocs the same handful of shapes, so the match
        // is usually at the tail.
        let hit = match self.pool.last() {
            Some(a) if a.capacity() >= len => Some(self.pool.len() - 1),
            _ => self.pool.iter().rposition(|a| a.capacity() >= len),
        };
        match hit {
            Some(i) => {
                let mut a = self.pool.swap_remove(i);
                a.recast(shape, zero);
                a
            }
            None => Array::zeros(shape),
        }
    }

    /// Return `a` to the free-list.
    pub fn recycle(&mut self, a: Array) {
        self.pool.push(a);
    }

    /// Number of arrays currently pooled (for steady-state assertions).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }
}

thread_local! {
    /// Scratch for the temporaries of taped ops (im2col patches, gate
    /// gradients) that die before the op returns: training reuses them from
    /// pass to pass instead of allocating them per call.
    static OP_SCRATCH: std::cell::RefCell<ScratchArena> =
        std::cell::RefCell::new(ScratchArena::new());
}

/// Run `f` with this thread's op scratch arena. `f` must not call back into
/// a taped op that uses it (the arena is borrowed for the call).
pub(crate) fn with_op_scratch<R>(f: impl FnOnce(&mut ScratchArena) -> R) -> R {
    OP_SCRATCH.with(|a| f(&mut a.borrow_mut()))
}

/// Debug-mode guard asserting no [`Tape`] is created while it is alive.
///
/// Constructed at the entry of an inference hot path; on drop (in builds
/// with debug assertions) it panics if the thread's monotonic tape-creation
/// counter moved. The *created* counter is checked rather than the live
/// count so a tape that was created and dropped inside the scope is still
/// caught. Release builds carry the two `usize` reads and nothing else.
pub struct TapeFreeScope {
    created_at_entry: usize,
}

impl TapeFreeScope {
    /// Open a scope at the current tape-creation count.
    pub fn enter() -> Self {
        Self {
            created_at_entry: Tape::created_count(),
        }
    }
}

impl Drop for TapeFreeScope {
    fn drop(&mut self) {
        if cfg!(debug_assertions) && !std::thread::panicking() {
            let created = Tape::created_count();
            assert_eq!(
                created,
                self.created_at_entry,
                "tape-free contract violated: {} tape(s) created inside an \
                 inference scope — the hot path must use st_tensor::infer \
                 kernels, not taped ops",
                created - self.created_at_entry
            );
        }
    }
}

fn dims2(a: &Array) -> (usize, usize) {
    assert_eq!(a.ndim(), 2, "expected 2-D, got {:?}", a.shape());
    (a.shape()[0], a.shape()[1])
}

pub(crate) fn dims4(a: &Array) -> (usize, usize, usize, usize) {
    assert_eq!(a.ndim(), 4, "expected NCHW, got {:?}", a.shape());
    let s = a.shape();
    (s[0], s[1], s[2], s[3])
}

/// `a(m×k) · b(k×n)` through the packed GEMM path — the same kernel the
/// taped [`crate::ops::matmul`] runs, so a row of a batched product is
/// bit-identical to the batch-1 product of that row.
pub fn matmul(arena: &mut ScratchArena, a: &Array, b: &Array) -> Array {
    let (m, k) = dims2(a);
    let (k2, n) = dims2(b);
    assert_eq!(k, k2, "matmul: {:?} · {:?}", a.shape(), b.shape());
    let mut out = arena.alloc_uninit(&[m, n]);
    crate::gemm::gemm(m, k, n, a.data(), b.data(), out.data_mut(), false);
    out
}

/// Fused affine map `x(n×k) · w(k×d) + bias[d]` (GEMM, then bias added
/// row-wise): the value of the taped [`crate::ops::affine`].
pub fn affine(arena: &mut ScratchArena, x: &Array, w: &Array, bias: &Array) -> Array {
    let mut y = matmul(arena, x, w);
    add_bias_rows(&mut y, bias.data());
    y
}

/// Row-broadcast bias add `y[r, ·] += bias`, dispatched to the AVX2+FMA
/// build when available (the scalar and SIMD builds run identical
/// arithmetic, so results match bit-for-bit either way). The taped
/// [`crate::ops::add_bias`] computes its value with it.
pub fn add_bias_rows(y: &mut Array, bias: &[f32]) {
    let (m, n) = dims2(y);
    assert_eq!(
        n,
        bias.len(),
        "add_bias_rows: {:?} + bias[{}]",
        y.shape(),
        bias.len()
    );
    let _ = m;
    #[cfg(target_arch = "x86_64")]
    if crate::dispatch::avx2_fma() {
        // SAFETY: feature presence checked at runtime.
        return unsafe { add_bias_rows_avx2(y.data_mut(), bias) };
    }
    add_bias_rows_impl(y.data_mut(), bias);
}

/// SAFETY: `#[target_feature]`-only unsafety — the body is the safe
/// `add_bias_rows_impl` recompiled with AVX2+FMA codegen; no raw pointers
/// or intrinsics. Callers must have verified [`crate::dispatch::avx2_fma()`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn add_bias_rows_avx2(data: &mut [f32], bias: &[f32]) {
    add_bias_rows_impl(data, bias)
}

#[inline(always)]
fn add_bias_rows_impl(data: &mut [f32], bias: &[f32]) {
    for row in data.chunks_exact_mut(bias.len()) {
        for (o, &b) in row.iter_mut().zip(bias) {
            *o += b;
        }
    }
}

/// In-place logistic sigmoid, via the crate's deterministic polynomial
/// kernel ([`crate::mathfn::sigmoid`] — the same function the taped op
/// computes), vectorized under the runtime AVX2 dispatch.
pub fn sigmoid_mut(a: &mut Array) {
    crate::mathfn::sigmoid_slice_mut(a.data_mut());
}

/// In-place hyperbolic tangent, via [`crate::mathfn::tanh`] (see
/// [`sigmoid_mut`]).
pub fn tanh_mut(a: &mut Array) {
    crate::mathfn::tanh_slice_mut(a.data_mut());
}

/// In-place rectified linear unit (`x.max(0.0)`, as taped).
pub fn relu_mut(a: &mut Array) {
    for x in a.data_mut() {
        *x = x.max(0.0);
    }
}

/// In-place leaky ReLU with the given negative-side slope.
pub fn leaky_relu_mut(a: &mut Array, slope: f32) {
    for x in a.data_mut() {
        if *x <= 0.0 {
            *x *= slope;
        }
    }
}

/// In-place row-wise softmax, the value of the taped
/// [`crate::ops::softmax_rows`]: per row, exponentials of `x − max` are
/// summed then divided through.
///
/// Dispatched to the AVX2+FMA build; the max scan uses 8-lane partial
/// maxima (exact — `max` is order-independent) and the divide pass
/// vectorizes, while the exp/sum stays sequential, so the scalar and SIMD
/// builds are bit-identical.
pub fn softmax_rows_mut(a: &mut Array) {
    let (_, w) = dims2(a);
    #[cfg(target_arch = "x86_64")]
    if crate::dispatch::avx2_fma() {
        // SAFETY: feature presence checked at runtime.
        return unsafe { softmax_rows_avx2(a.data_mut(), w) };
    }
    softmax_rows_impl(a.data_mut(), w);
}

/// SAFETY: `#[target_feature]`-only unsafety — the body is the safe
/// `softmax_rows_impl` with AVX2+FMA codegen. Callers must have verified
/// [`crate::dispatch::avx2_fma()`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn softmax_rows_avx2(data: &mut [f32], w: usize) {
    softmax_rows_impl(data, w)
}

#[inline(always)]
fn softmax_rows_impl(data: &mut [f32], w: usize) {
    if w == 0 {
        return;
    }
    for row in data.chunks_exact_mut(w) {
        let m = row_max(row);
        let mut z = 0.0;
        for o in row.iter_mut() {
            let e = (*o - m).exp();
            *o = e;
            z += e;
        }
        for o in row.iter_mut() {
            *o /= z;
        }
    }
}

/// In-place row-wise log-softmax, the value of the taped
/// [`crate::ops::log_softmax_rows`]: `out[j] = x[j] − (max + ln Σ e^{x−max})`.
/// Dispatched like [`softmax_rows_mut`], with the same bit-identity
/// argument.
pub fn log_softmax_rows_mut(a: &mut Array) {
    let (_, w) = dims2(a);
    #[cfg(target_arch = "x86_64")]
    if crate::dispatch::avx2_fma() {
        // SAFETY: feature presence checked at runtime.
        return unsafe { log_softmax_rows_avx2(a.data_mut(), w) };
    }
    log_softmax_rows_impl(a.data_mut(), w);
}

/// SAFETY: `#[target_feature]`-only unsafety — the body is the safe
/// `log_softmax_rows_impl` with AVX2+FMA codegen. Callers must have
/// verified [`crate::dispatch::avx2_fma()`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn log_softmax_rows_avx2(data: &mut [f32], w: usize) {
    log_softmax_rows_impl(data, w)
}

#[inline(always)]
fn log_softmax_rows_impl(data: &mut [f32], w: usize) {
    if w == 0 {
        return;
    }
    for row in data.chunks_exact_mut(w) {
        let m = row_max(row);
        let lse = m + row.iter().map(|&x| (x - m).exp()).sum::<f32>().ln();
        for o in row.iter_mut() {
            *o -= lse;
        }
    }
}

/// Row maximum via 8 independent lane maxima plus a tail — vectorizable,
/// and exact versus the sequential fold because `max` over a fixed set of
/// values is order-independent.
#[inline(always)]
fn row_max(row: &[f32]) -> f32 {
    let mut lanes = [f32::NEG_INFINITY; 8];
    let chunks = row.chunks_exact(8);
    let tail = chunks.remainder();
    for c in chunks {
        for (l, &v) in lanes.iter_mut().zip(c) {
            *l = l.max(v);
        }
    }
    let mut m = f32::NEG_INFINITY;
    for &v in tail {
        m = m.max(v);
    }
    for &l in &lanes {
        m = m.max(l);
    }
    m
}

/// Embedding lookup: rows of `table [v, d]` at `indices` →
/// `[indices.len(), d]` (row copies): the value of the taped
/// [`crate::ops::gather_rows`].
pub fn gather_rows(arena: &mut ScratchArena, table: &Array, indices: &[usize]) -> Array {
    let (v, d) = dims2(table);
    let mut y = arena.alloc_uninit(&[indices.len(), d]);
    for (r, &ix) in indices.iter().enumerate() {
        assert!(ix < v, "gather index {ix} out of range {v}");
        y.row_mut(r).copy_from_slice(table.row(ix));
    }
    y
}

/// Embedding lookup across a row-blocked table
/// ([`BlockedParam`](crate::block::BlockedParam)): row `r` of the output is
/// row `picks[r].1` of block value `blocks[picks[r].0]`. Row copies, so the
/// result is bit-identical to [`gather_rows`] over the dense concatenation.
/// The value of the taped [`crate::ops::gather_rows_blocked`].
pub fn gather_rows_blocked(
    arena: &mut ScratchArena,
    blocks: &[&Array],
    picks: &[(usize, usize)],
) -> Array {
    assert!(!blocks.is_empty(), "gather_rows_blocked needs >= 1 block");
    let d = dims2(blocks[0]).1;
    let mut y = arena.alloc_uninit(&[picks.len(), d]);
    for (r, &(slot, row)) in picks.iter().enumerate() {
        let b = blocks[slot];
        let (rows_b, db) = dims2(b);
        assert_eq!(db, d, "block column mismatch");
        assert!(row < rows_b, "row {row} out of range {rows_b}");
        y.row_mut(r).copy_from_slice(b.row(row));
    }
    y
}

/// The geometry of one 2-D convolution: input `[n, c, h, w]`, kernel
/// `[o, c, kh, kw]`, output `[n, o, oh, ow]` with
/// `oh = (h + 2·pad − kh)/stride + 1` (likewise `ow`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConvShape {
    pub(crate) n: usize,
    pub(crate) c: usize,
    pub(crate) h: usize,
    pub(crate) w: usize,
    pub(crate) o: usize,
    pub(crate) kh: usize,
    pub(crate) kw: usize,
    pub(crate) oh: usize,
    pub(crate) ow: usize,
    pub(crate) stride: usize,
    pub(crate) pad: usize,
}

impl ConvShape {
    /// Check the operands and derive the output size.
    pub(crate) fn new(
        input: &Array,
        kernel: &Array,
        bias: &Array,
        stride: usize,
        pad: usize,
    ) -> Self {
        assert!(stride >= 1, "stride must be >= 1");
        let (n, c, h, w) = dims4(input);
        let (o, ck, kh, kw) = dims4(kernel);
        assert_eq!(c, ck, "conv2d channel mismatch: input {c}, kernel {ck}");
        assert_eq!(bias.len(), o, "conv2d bias length");
        assert!(kh > 0 && kw > 0, "conv2d kernel must be at least 1×1");
        assert!(
            h + 2 * pad >= kh && w + 2 * pad >= kw,
            "conv2d kernel larger than padded input"
        );
        let oh = (h + 2 * pad - kh) / stride + 1;
        let ow = (w + 2 * pad - kw) / stride + 1;
        Self {
            n,
            c,
            h,
            w,
            o,
            kh,
            kw,
            oh,
            ow,
            stride,
            pad,
        }
    }

    /// Terms of one output: the bias, then the `c·kh·kw` taps.
    pub(crate) fn terms(&self) -> usize {
        1 + self.c * self.kh * self.kw
    }

    /// Output pixels per image and channel.
    pub(crate) fn pixels(&self) -> usize {
        self.oh * self.ow
    }

    /// The output shape `[n, o, oh, ow]`.
    pub(crate) fn out_shape(&self) -> [usize; 4] {
        [self.n, self.o, self.oh, self.ow]
    }
}

/// Lay `bias [o]` and `kernel [o, c·kh·kw]` out as the rows `[bias | taps]`
/// of a `[o, 1 + c·kh·kw]` matrix: the weights of an output in the order
/// its terms are summed.
fn bias_kernel_rows(s: &ConvShape, kernel: &[f32], bias: &[f32], rows: &mut [f32]) {
    let taps = s.terms() - 1;
    for ((row, k), &b) in rows
        .chunks_exact_mut(s.terms())
        .zip(kernel.chunks_exact(taps))
        .zip(bias)
    {
        row[0] = b;
        row[1..].copy_from_slice(k);
    }
}

/// im2col of images `images`: one column per output pixel `(n, oh, ow)`,
/// in that order, and one row per term in summation order — row 0 all
/// 1.0 for the bias, then row `1 + (c·kh + ki)·kw + kj` with the input
/// value under tap `(c, ki, kj)`, 0.0 where it falls in the zero padding.
pub(crate) fn im2col(s: &ConvShape, x: &[f32], images: std::ops::Range<usize>, cols: &mut [f32]) {
    let width = images.len() * s.pixels();
    let (ones, taps) = cols[..s.terms() * width].split_at_mut(width);
    ones.fill(1.0);
    if width == 0 {
        return;
    }
    let plane = s.h * s.w;
    let kernel_taps =
        (0..s.c).flat_map(|ci| (0..s.kh).flat_map(move |ki| (0..s.kw).map(move |kj| (ci, ki, kj))));
    for ((ci, ki, kj), row) in kernel_taps.zip(taps.chunks_exact_mut(width)) {
        // Output columns whose tap lands inside a row: 0 ≤ ow·stride + kj − pad < w.
        let lo = s.pad.saturating_sub(kj).div_ceil(s.stride).min(s.ow);
        let hi = (s.w + s.pad)
            .saturating_sub(kj)
            .div_ceil(s.stride)
            .clamp(lo, s.ow);
        let mut out_rows = row.chunks_exact_mut(s.ow);
        for ni in images.clone() {
            let src = &x[(ni * s.c + ci) * plane..][..plane];
            for (yi, dst) in (0..s.oh).zip(&mut out_rows) {
                // Wraps past `h` when the tap is in the top padding.
                let ih = (yi * s.stride + ki).wrapping_sub(s.pad);
                if ih >= s.h || lo == hi {
                    dst.fill(0.0);
                    continue;
                }
                dst[..lo].fill(0.0);
                dst[hi..].fill(0.0);
                let line = &src[ih * s.w + lo * s.stride + kj - s.pad..];
                for (d, &v) in dst[lo..hi].iter_mut().zip(line.iter().step_by(s.stride)) {
                    *d = v;
                }
            }
        }
    }
}

/// 2-D convolution with stride and zero padding: the value of the taped
/// [`crate::conv::conv2d`]. `input [N, C, H, W]`, `kernel [O, C, KH, KW]`,
/// `bias [O]` → `[N, O, OH, OW]`.
///
/// Each image is one GEMM: the `[O, 1 + C·KH·KW]` rows `[bias | kernel]`
/// times the image's im2col patches, so every output sums the bias and
/// then its taps in `(c, kh, kw)` order — the order of the direct loop
/// (kept in the tests as the oracle). A padded tap adds `±0`, which changes
/// the sum only when it is exactly −0.0 (DESIGN §7). The bias rows and the
/// patches are drawn from `arena` and recycled.
pub fn conv2d(
    arena: &mut ScratchArena,
    input: &Array,
    kernel: &Array,
    bias: &Array,
    stride: usize,
    pad: usize,
) -> Array {
    let s = ConvShape::new(input, kernel, bias, stride, pad);
    let mut out = arena.alloc_uninit(&s.out_shape());
    conv2d_into(arena, &s, input, kernel, bias, out.data_mut());
    out
}

/// [`conv2d`] into a caller-owned `[N, O, OH, OW]` buffer, with the
/// scratch drawn from `arena`.
pub(crate) fn conv2d_into(
    arena: &mut ScratchArena,
    s: &ConvShape,
    input: &Array,
    kernel: &Array,
    bias: &Array,
    out: &mut [f32],
) {
    let (terms, pixels) = (s.terms(), s.pixels());
    let mut weights = arena.alloc_uninit(&[s.o, terms]);
    bias_kernel_rows(s, kernel.data(), bias.data(), weights.data_mut());
    let mut patches = arena.alloc_uninit(&[terms, pixels]);
    if s.o * pixels > 0 {
        for (ni, y) in out.chunks_exact_mut(s.o * pixels).enumerate() {
            im2col(s, input.data(), ni..ni + 1, patches.data_mut());
            crate::gemm::gemm(s.o, terms, pixels, weights.data(), patches.data(), y, false);
        }
    }
    arena.recycle(patches);
    arena.recycle(weights);
}

/// Global average pooling `[N, C, H, W] → [N, C]`: the value of the taped
/// [`crate::conv::avg_pool_global`].
pub fn avg_pool_global(arena: &mut ScratchArena, input: &Array) -> Array {
    let (n, c, h, w) = dims4(input);
    let area = (h * w) as f32;
    let mut out = arena.alloc(&[n, c]);
    for ni in 0..n {
        for ci in 0..c {
            let base = ni * c * h * w + ci * h * w;
            let s: f32 = input.data()[base..base + h * w].iter().sum();
            out.data_mut()[ni * c + ci] = s / area;
        }
    }
    out
}

/// In-place per-channel subtraction `x[n,c,·] −= v[c]`: the value of the
/// taped [`crate::conv::sub_channel`].
pub fn sub_channel_mut(x: &mut Array, v: &Array) {
    let (n, c, h, w) = dims4(x);
    assert_eq!(v.len(), c);
    for ni in 0..n {
        for ci in 0..c {
            let m = v.data()[ci];
            let base = ni * c * h * w + ci * h * w;
            for o in &mut x.data_mut()[base..base + h * w] {
                *o -= m;
            }
        }
    }
}

/// In-place per-channel scaling `x[n,c,·] *= v[c]`: the value of the taped
/// [`crate::conv::mul_channel`].
pub fn mul_channel_mut(x: &mut Array, v: &Array) {
    let (n, c, h, w) = dims4(x);
    assert_eq!(v.len(), c);
    for ni in 0..n {
        for ci in 0..c {
            let m = v.data()[ci];
            let base = ni * c * h * w + ci * h * w;
            for o in &mut x.data_mut()[base..base + h * w] {
                *o *= m;
            }
        }
    }
}

/// In-place per-channel affine `x[n,c,·] = x[n,c,·] · scale[c] + shift[c]`:
/// the value of the taped [`crate::conv::channel_affine`].
pub fn channel_affine_mut(x: &mut Array, scale: &Array, shift: &Array) {
    let (n, c, h, w) = dims4(x);
    assert_eq!(scale.len(), c, "channel_affine scale length");
    assert_eq!(shift.len(), c, "channel_affine shift length");
    for ni in 0..n {
        for ci in 0..c {
            let (s, b) = (scale.data()[ci], shift.data()[ci]);
            let base = ni * c * h * w + ci * h * w;
            for o in &mut x.data_mut()[base..base + h * w] {
                *o = *o * s + b;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Packed weight caches
// ---------------------------------------------------------------------------

/// A weight matrix packed once into GEMM micro-kernel tile order.
///
/// [`matmul`] re-packs its B operand on every call because training weights
/// change every step; decode weights are constant across all beam steps, so
/// an inference session packs each weight once through this type and every
/// subsequent product skips the pack entirely. Products through a
/// `PackedWeights` are bit-identical to [`matmul`] on the same operands.
pub struct PackedWeights {
    packed: crate::gemm::PackedB,
}

impl PackedWeights {
    /// Pack a `[k, n]` weight matrix.
    pub fn pack(w: &Array) -> Self {
        let (k, n) = dims2(w);
        Self {
            packed: crate::gemm::PackedB::pack(k, n, w.data()),
        }
    }

    /// Input width `k` of the packed `[k, n]` matrix.
    pub fn in_dim(&self) -> usize {
        self.packed.k()
    }

    /// Output width `n` of the packed `[k, n]` matrix.
    pub fn out_dim(&self) -> usize {
        self.packed.n()
    }
}

/// `a(m×k) · W` with `W` packed ahead of time — the per-step fast path of
/// the decode loop. Bit-identical to [`matmul`] on the same operands.
pub fn matmul_packed(arena: &mut ScratchArena, a: &Array, w: &PackedWeights) -> Array {
    let (m, k) = dims2(a);
    assert_eq!(
        k,
        w.in_dim(),
        "matmul_packed: {:?} · packed [{}, {}]",
        a.shape(),
        w.in_dim(),
        w.out_dim()
    );
    let mut out = arena.alloc_uninit(&[m, w.out_dim()]);
    crate::gemm::gemm_prepacked(m, a.data(), &w.packed, out.data_mut(), false);
    out
}

// ---------------------------------------------------------------------------
// Fused GRU gate epilogue
// ---------------------------------------------------------------------------

/// Fused GRU gate epilogue: consumes the two per-step GEMM outputs and
/// rewrites the hidden state in place, with no intermediate gate buffers.
///
/// Inputs per batch row: `gx = x·Wx` (bias **not** yet added, `[m, 3h]`
/// laid out `[r | z | n]`), `gh = h·Wh` (`[m, 3h]`), the `[3h]` gate bias,
/// and `state` (`[m, h]`, holding hₜ₋₁ on entry and hₜ on return). The
/// gates are computed into `gx` in place, activated with the
/// [`crate::mathfn`] kernels, and combined:
///
/// ```text
/// r = σ((gx_r + b_r) + gh_r)
/// z = σ((gx_z + b_z) + gh_z)
/// n = tanh((gx_n + b_n) + r ⊙ gh_n)
/// h' = (n − z ⊙ n) + z ⊙ h
/// ```
///
/// On return `gx` holds the activations `[r | z | n]`: decoding treats it
/// as scratch, and the taped GRU step ([`crate::gru::gru_step`]) keeps it
/// for its backward. The association matches the composed gate graph
/// (`affine` adds the bias before `gh` is added) exactly, so the fused step
/// is bit-identical to it (the composed cell is kept in st-nn's tests as
/// the oracle).
pub fn gru_gates_fused(hidden: usize, gx: &mut Array, gh: &Array, bias: &[f32], state: &mut Array) {
    let (m, g) = dims2(gx);
    assert_eq!(g, 3 * hidden, "gru_gates_fused: gx is not [m, 3h]");
    assert_eq!(gh.shape(), gx.shape(), "gru_gates_fused: gh/gx mismatch");
    assert_eq!(bias.len(), 3 * hidden, "gru_gates_fused: bias is not [3h]");
    assert_eq!(
        state.shape(),
        &[m, hidden],
        "gru_gates_fused: state is not [m, h]"
    );
    #[cfg(target_arch = "x86_64")]
    if crate::dispatch::avx2_fma() {
        // SAFETY: feature presence checked at runtime.
        return unsafe {
            gru_gates_fused_avx2(hidden, gx.data_mut(), gh.data(), bias, state.data_mut())
        };
    }
    gru_gates_fused_impl(hidden, gx.data_mut(), gh.data(), bias, state.data_mut());
}

/// SAFETY: `#[target_feature]`-only unsafety — the body is the safe
/// `gru_gates_fused_impl` with AVX2+FMA codegen; no raw pointers or
/// intrinsics. Callers must have verified [`crate::dispatch::avx2_fma()`];
/// shape preconditions are asserted by the safe [`gru_gates_fused`] entry.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gru_gates_fused_avx2(h: usize, gx: &mut [f32], gh: &[f32], b: &[f32], st: &mut [f32]) {
    gru_gates_fused_impl(h, gx, gh, b, st)
}

#[inline(always)]
fn gru_gates_fused_impl(h: usize, gx: &mut [f32], gh: &[f32], b: &[f32], st: &mut [f32]) {
    let (brz, bn) = b.split_at(2 * h);
    for (gx_row, (gh_row, h_row)) in gx
        .chunks_exact_mut(3 * h)
        .zip(gh.chunks_exact(3 * h).zip(st.chunks_exact_mut(h)))
    {
        let (rz, n) = gx_row.split_at_mut(2 * h);
        let (gh_rz, gh_n) = gh_row.split_at(2 * h);
        gru_gates_row(rz, n, gh_rz, gh_n, brz, bn, h_row);
    }
}

/// One batch row of [`gru_gates_fused_impl`]. The gates it reads (`r`,
/// `z`) and the candidate it writes (`n`) arrive as separate slices, so
/// the compiler knows they do not overlap: taken apart inside one loop
/// over a whole row, the `n` pass vectorized only behind a run-time
/// overlap check, and its scalar fallback made the epilogue 1.5–1.6 times
/// as slow on batches of 4–16 rows.
#[inline(always)]
fn gru_gates_row(
    rz: &mut [f32],
    n: &mut [f32],
    gh_rz: &[f32],
    gh_n: &[f32],
    brz: &[f32],
    bn: &[f32],
    h_row: &mut [f32],
) {
    // r and z take the same sigmoid and sit adjacent in the `[r | z | n]`
    // layout, so they share one 2h-wide pass; the tanh of n and the state
    // combine are element-independent and fuse into a single h-wide pass.
    // Per-element arithmetic and order are exactly the four-loop unfused
    // form, so the fusion is bitwise-invisible. The re-slicing fixes every
    // length, which keeps bounds checks out of both loops.
    let h = h_row.len();
    let (rz, n) = (&mut rz[..2 * h], &mut n[..h]);
    let (gh_rz, gh_n, brz, bn) = (&gh_rz[..2 * h], &gh_n[..h], &brz[..2 * h], &bn[..h]);
    for j in 0..2 * h {
        rz[j] = crate::mathfn::sigmoid((rz[j] + brz[j]) + gh_rz[j]);
    }
    let (r, z) = rz.split_at(h);
    for j in 0..h {
        let nj = crate::mathfn::tanh((n[j] + bn[j]) + r[j] * gh_n[j]);
        n[j] = nj;
        h_row[j] = (nj - z[j] * nj) + (z[j] * h_row[j]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use proptest::prelude::*;

    fn seq(shape: &[usize]) -> Array {
        let n: usize = shape.iter().product();
        Array::from_vec(shape, (0..n).map(|i| (i as f32) * 0.1 - 0.4).collect())
    }

    #[test]
    fn arena_recycles_buffers() {
        let mut arena = ScratchArena::new();
        let a = arena.alloc(&[4, 4]);
        arena.recycle(a);
        assert_eq!(arena.pooled(), 1);
        let b = arena.alloc(&[2, 8]); // same element count, reuses the buffer
        assert_eq!(arena.pooled(), 0);
        assert!(
            b.data().iter().all(|&x| x == 0.0),
            "recycled must be zeroed"
        );
        arena.recycle(b);
        // Steady state: alternating alloc/recycle never grows the pool.
        for _ in 0..10 {
            let t = arena.alloc(&[4, 4]);
            arena.recycle(t);
        }
        assert_eq!(arena.pooled(), 1);
    }

    #[test]
    fn tape_free_scope_passes_without_tapes() {
        let _scope = TapeFreeScope::enter();
        let mut arena = ScratchArena::new();
        let a = seq(&[2, 3]);
        let b = seq(&[3, 4]);
        let _ = matmul(&mut arena, &a, &b);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "tape-free contract violated")]
    fn tape_free_scope_catches_tape_creation() {
        let _scope = TapeFreeScope::enter();
        let t = Tape::new();
        // Even a tape dropped before the scope ends is a violation.
        drop(t);
    }

    #[test]
    fn matmul_matches_taped() {
        let mut arena = ScratchArena::new();
        let a = seq(&[5, 7]);
        let b = seq(&[7, 3]);
        let y = matmul(&mut arena, &a, &b);
        let t = Tape::new();
        let yt = ops::matmul(t.leaf(a), t.leaf(b));
        assert_eq!(y.data(), yt.value().data());
    }

    #[test]
    fn affine_matches_taped() {
        let mut arena = ScratchArena::new();
        let x = seq(&[4, 6]);
        let w = seq(&[6, 5]);
        let b = seq(&[5]);
        let y = affine(&mut arena, &x, &w, &b);
        let t = Tape::new();
        let yt = ops::affine(t.leaf(x), t.leaf(w), t.leaf(b));
        assert_eq!(y.data(), yt.value().data());
    }

    #[test]
    fn activations_match_taped() {
        let x = Array::vector(vec![-25.0, -2.0, -0.5, 0.0, 0.5, 2.0, 25.0]);
        let t = Tape::new();
        let xv = t.leaf(x.clone());
        let pairs: Vec<(Array, Vec<f32>)> = vec![
            (
                {
                    let mut a = x.clone();
                    sigmoid_mut(&mut a);
                    a
                },
                ops::sigmoid(xv).value().data().to_vec(),
            ),
            (
                {
                    let mut a = x.clone();
                    tanh_mut(&mut a);
                    a
                },
                ops::tanh(xv).value().data().to_vec(),
            ),
            (
                {
                    let mut a = x.clone();
                    relu_mut(&mut a);
                    a
                },
                ops::relu(xv).value().data().to_vec(),
            ),
            (
                {
                    let mut a = x.clone();
                    leaky_relu_mut(&mut a, 0.1);
                    a
                },
                ops::leaky_relu(xv, 0.1).value().data().to_vec(),
            ),
        ];
        for (got, want) in pairs {
            assert_eq!(got.data(), &want[..]);
        }
    }

    #[test]
    fn softmax_families_match_taped() {
        let x = seq(&[3, 5]);
        let t = Tape::new();
        let xv = t.leaf(x.clone());
        let mut sm = x.clone();
        softmax_rows_mut(&mut sm);
        assert_eq!(sm.data(), ops::softmax_rows(xv).value().data());
        let mut lsm = x.clone();
        log_softmax_rows_mut(&mut lsm);
        assert_eq!(lsm.data(), ops::log_softmax_rows(xv).value().data());
    }

    #[test]
    fn gather_matches_taped() {
        let mut arena = ScratchArena::new();
        let table = seq(&[6, 4]);
        let idx = [3usize, 0, 5, 3];
        let y = gather_rows(&mut arena, &table, &idx);
        let t = Tape::new();
        let yt = ops::gather_rows(t.leaf(table.clone()), &idx);
        assert_eq!(y.data(), yt.value().data());
    }

    #[test]
    fn conv_kernels_match_taped() {
        let mut arena = ScratchArena::new();
        let x = seq(&[2, 3, 5, 4]);
        let k = seq(&[4, 3, 3, 3]);
        let b = Array::vector(vec![0.1, -0.2, 0.3, 0.0]);
        for (stride, pad) in [(1, 1), (2, 1), (1, 0)] {
            let y = conv2d(&mut arena, &x, &k, &b, stride, pad);
            let t = Tape::new();
            let yt = crate::conv::conv2d(
                t.leaf(x.clone()),
                t.leaf(k.clone()),
                t.leaf(b.clone()),
                stride,
                pad,
            );
            assert_eq!(y.data(), yt.value().data(), "stride {stride} pad {pad}");
            arena.recycle(y);
        }

        let p = avg_pool_global(&mut arena, &x);
        let t = Tape::new();
        let pt = crate::conv::avg_pool_global(t.leaf(x.clone()));
        assert_eq!(p.data(), pt.value().data());
    }

    #[test]
    fn channel_ops_match_taped() {
        let x = seq(&[2, 3, 2, 2]);
        let v = Array::vector(vec![0.5, -1.0, 2.0]);
        let s = Array::vector(vec![1.5, 0.5, -0.7]);
        let t = Tape::new();
        let want = crate::conv::channel_affine(
            crate::conv::mul_channel(
                crate::conv::sub_channel(t.leaf(x.clone()), t.leaf(v.clone())),
                t.leaf(s.clone()),
            ),
            t.leaf(s.clone()),
            t.leaf(v.clone()),
        );
        let mut got = x.clone();
        sub_channel_mut(&mut got, &v);
        mul_channel_mut(&mut got, &s);
        channel_affine_mut(&mut got, &s, &v);
        assert_eq!(got.data(), want.value().data());
    }

    #[test]
    fn alloc_uninit_reuses_without_zeroing_guarantee() {
        let mut arena = ScratchArena::new();
        let mut a = arena.alloc(&[2, 3]);
        a.data_mut().fill(7.0);
        arena.recycle(a);
        // Same-size reuse: contents are unspecified but must be valid f32s
        // and the shape/len must be right.
        let b = arena.alloc_uninit(&[3, 2]);
        assert_eq!(b.shape(), &[3, 2]);
        assert_eq!(b.data().len(), 6);
        arena.recycle(b);
        // Shrinking reuse truncates; growing reuse extends.
        let c = arena.alloc_uninit(&[1, 2]);
        assert_eq!(c.data().len(), 2);
        arena.recycle(c);
        let d = arena.alloc_uninit(&[4, 4]);
        assert_eq!(d.data().len(), 16);
    }

    #[test]
    fn packed_matmul_is_bit_identical_to_matmul() {
        let mut arena = ScratchArena::new();
        for m in [1usize, 2, 3, 5, 8] {
            let a = seq(&[m, 7]);
            let w = seq(&[7, 12]);
            let want = matmul(&mut arena, &a, &w);
            let packed = PackedWeights::pack(&w);
            assert_eq!((packed.in_dim(), packed.out_dim()), (7, 12));
            let got = matmul_packed(&mut arena, &a, &packed);
            assert_eq!(got.data(), want.data(), "m={m}");
            arena.recycle(want);
            arena.recycle(got);
        }
    }

    #[test]
    fn gru_gates_fused_matches_unfused_reference_bitwise() {
        let mut arena = ScratchArena::new();
        let (m, h) = (5usize, 9usize);
        let x = seq(&[m, 4]);
        let wx = seq(&[4, 3 * h]);
        let wh = seq(&[h, 3 * h]);
        let bias = seq(&[3 * h]);
        let h_prev = seq(&[m, h]);

        // Unfused reference: affine + matmul + the scalar gate loop, the
        // composed gate graph's per-element arithmetic.
        let gx_ref = affine(&mut arena, &x, &wx, &bias);
        let gh_ref = matmul(&mut arena, &h_prev, &wh);
        let mut want = vec![0.0f32; m * h];
        let mut want_gates = vec![0.0f32; m * 3 * h];
        for r in 0..m {
            let gxr = gx_ref.row(r);
            let ghr = gh_ref.row(r);
            let hr = h_prev.row(r);
            for j in 0..h {
                let rg = crate::mathfn::sigmoid(gxr[j] + ghr[j]);
                let z = crate::mathfn::sigmoid(gxr[h + j] + ghr[h + j]);
                let n = crate::mathfn::tanh(gxr[2 * h + j] + rg * ghr[2 * h + j]);
                want[r * h + j] = (n - z * n) + (z * hr[j]);
                let gates = &mut want_gates[r * 3 * h..(r + 1) * 3 * h];
                (gates[j], gates[h + j], gates[2 * h + j]) = (rg, z, n);
            }
        }

        // Fused path: bias-free GEMMs + in-place epilogue, which leaves
        // the activations `[r | z | n]` in `gx`.
        let mut gx = matmul(&mut arena, &x, &wx);
        let gh = matmul(&mut arena, &h_prev, &wh);
        let mut state = h_prev.clone();
        gru_gates_fused(h, &mut gx, &gh, bias.data(), &mut state);
        assert_eq!(state.data(), &want[..]);
        assert_eq!(gx.data(), &want_gates[..]);
    }

    proptest! {
        /// A row of a batched GEMM is bit-identical to the batch-1 product
        /// of that row — the property batched beam decoding rests on.
        #[test]
        fn batched_rows_equal_single_rows(
            m in 1usize..=8,
            k in 1usize..=16,
            n in 1usize..=32,
            data in proptest::collection::vec(-3.0f32..3.0, 8 * 16 + 16 * 32),
        ) {
            let a = Array::from_vec(&[m, k], data[..m * k].to_vec());
            let b = Array::from_vec(&[k, n], data[8 * 16..8 * 16 + k * n].to_vec());
            let mut arena = ScratchArena::new();
            let batched = matmul(&mut arena, &a, &b);
            for r in 0..m {
                let row = Array::from_vec(&[1, k], a.row(r).to_vec());
                let single = matmul(&mut arena, &row, &b);
                prop_assert_eq!(single.data(), batched.row(r));
                arena.recycle(single);
            }
        }
    }
}
