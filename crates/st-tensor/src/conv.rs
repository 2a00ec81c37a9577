//! Convolutional ops for the traffic encoder (§IV-D of the paper).
//!
//! Layout convention: 4-D activations are `[N, C, H, W]` (batch, channels,
//! height, width), kernels are `[O, C, KH, KW]`. The paper's traffic CNN is
//! three `Conv2d → BatchNorm2d → LeakyReLU` blocks followed by average
//! pooling; batch-norm is composed from the per-channel primitives below so
//! its backward pass comes for free from the tape.
//!
//! `conv2d`, `avg_pool_global`, `channel_affine`, `sub_channel` and
//! `mul_channel` compute their values with their [`crate::infer`] kernels,
//! so training and the traffic encoder of the decode path share one
//! forward definition of each.

use std::rc::Rc;

use crate::array::Array;
use crate::infer::{self, dims4, im2col, ConvShape, ScratchArena};
use crate::tape::{OpMeta, Var};

/// 2-D convolution with stride and zero padding.
///
/// `input [N, C, H, W]`, `kernel [O, C, KH, KW]`, `bias [O]` →
/// `[N, O, OH, OW]` with `OH = (H + 2·pad − KH)/stride + 1`. The value is
/// [`infer::conv2d`]'s (im2col and the packed GEMM).
///
/// Backward, with every gradient in the order of the direct loop over
/// `(n, o, oh, ow)` that the tests keep as the oracle:
/// - kernel and bias: one GEMM over `k = (n, oh, ow)`, the im2col patches
///   times the output gradient, so each entry is one sum in that order;
/// - input: a scatter that adds each element's contributions in
///   `(o, oh, ow)` order (a `Kᵀ·dY` GEMM would sum over `o` first),
///   vectorized across images and channels. An input recorded as a
///   constant ([`crate::Tape::constant`], the traffic grid) gets none.
pub fn conv2d<'t>(
    input: Var<'t>,
    kernel: Var<'t>,
    bias: Var<'t>,
    stride: usize,
    pad: usize,
) -> Var<'t> {
    #[cfg(feature = "kernel-timing")]
    let _kt = crate::ktime::timer(crate::ktime::Kernel::Conv2d);
    let xv = input.value();
    let kv = kernel.value();
    let bv = bias.value();
    let s = ConvShape::new(&xv, &kv, &bv, stride, pad);
    let mut out = Array::zeros(&s.out_shape());
    infer::with_op_scratch(|arena| infer::conv2d_into(arena, &s, &xv, &kv, &bv, out.data_mut()));
    let wants_input_grad = !input.tape().is_constant(input);

    let (xid, kid, bid) = (input.id(), kernel.id(), bias.id());
    input.tape().push(
        out,
        OpMeta::new("conv2d", vec![xid, kid, bid]).with_iattrs(vec![stride, pad]),
        Some(Box::new(move |g, sink| {
            infer::with_op_scratch(|arena| {
                let (gk, gb) = sink.accum2(kid, bid);
                kernel_bias_grad(arena, &s, g.data(), xv.data(), gk.data_mut(), gb.data_mut());
                if wants_input_grad {
                    input_grad(arena, &s, g.data(), kv.data(), sink.accum(xid).data_mut());
                }
            })
        })),
    )
}

/// `dK` and `db` of one conv2d: the im2col patches times `dY` with its
/// columns `(n, oh, ow)` as rows, a `[1 + C·KH·KW, O]` matrix whose row 0
/// is the bias gradient. Each entry is one sum over `(n, oh, ow)` in
/// order, as the direct loop adds it. On fresh (+0.0) accumulators the
/// packed GEMM computes it from zero and the sum is added on; into an
/// accumulator that already holds a gradient (a kernel used twice on one
/// tape) the terms are folded one by one, as the direct loop folds them.
fn kernel_bias_grad(
    arena: &mut ScratchArena,
    s: &ConvShape,
    g: &[f32],
    x: &[f32],
    gk: &mut [f32],
    gb: &mut [f32],
) {
    let (terms, taps, cols) = (s.terms(), s.terms() - 1, s.n * s.pixels());
    let mut dy = arena.alloc_uninit(&[cols, s.o]);
    permute(g, [s.n, s.o, s.pixels()], [0, 2, 1], dy.data_mut());
    let mut patches = arena.alloc_uninit(&[terms, cols]);
    im2col(s, x, 0..s.n, patches.data_mut());
    let mut dw = arena.alloc_uninit(&[terms, s.o]);
    let fresh = gk.iter().chain(gb.iter()).all(|v| v.to_bits() == 0);
    if fresh {
        crate::gemm::gemm(
            terms,
            cols,
            s.o,
            patches.data(),
            dy.data(),
            dw.data_mut(),
            false,
        );
    } else {
        dw.row_mut(0).copy_from_slice(gb);
        permute(gk, [s.o, taps, 1], [1, 0, 2], &mut dw.data_mut()[s.o..]);
        let (patches, dy) = (patches.data(), dy.data());
        crate::gemm::gemm_acc_in_order(terms, cols, s.o, patches, dy, dw.data_mut());
        gk.fill(0.0);
        gb.fill(0.0);
    }
    // Both paths leave whole sums, which are never −0.0: adding them onto
    // +0.0 accumulators writes them unchanged.
    for (b, &v) in gb.iter_mut().zip(dw.row(0)) {
        *b += v;
    }
    for (oi, k) in gk.chunks_exact_mut(taps).enumerate() {
        for (t, o) in k.iter_mut().enumerate() {
            *o += dw.data()[(1 + t) * s.o + oi];
        }
    }
    arena.recycle(dw);
    arena.recycle(patches);
    arena.recycle(dy);
}

/// Permute the axes of a 3-D row-major array: `dst` has axes
/// `[dims[axes[0]], dims[axes[1]], dims[axes[2]]]`. Moves values only.
fn permute(src: &[f32], dims: [usize; 3], axes: [usize; 3], dst: &mut [f32]) {
    let strides = [dims[1] * dims[2], dims[2], 1];
    let (d, st) = (axes.map(|a| dims[a]), axes.map(|a| strides[a]));
    let mut out = dst.iter_mut();
    for i in 0..d[0] {
        for j in 0..d[1] {
            let base = i * st[0] + j * st[1];
            for (k, o) in (0..d[2]).zip(&mut out) {
                *o = src[base + k * st[2]];
            }
        }
    }
}

/// `dX += ` the scatter of `dY` through the kernel: every input element
/// gets its contributions in `(o, oh, ow)` order, as the direct loop adds
/// them. A contribution `dY[n, o, oh, ow] · K[o, c, kh, kw]` lands on
/// `X[n, c, ·, ·]` at the same place for every image `n` and channel `c`,
/// so with `(c, n)` as the fastest axes of the input gradient the inner
/// loops run over independent elements, contiguously at any stride. The
/// gradients and the kernel are permuted to that layout and back around
/// the scatter, which moves values without rounding them.
fn input_grad(arena: &mut ScratchArena, s: &ConvShape, g: &[f32], k: &[f32], gx: &mut [f32]) {
    let (n, plane, taps) = (s.n, s.h * s.w, s.kh * s.kw);
    let mut gt = arena.alloc_uninit(&[s.o * s.pixels(), n]);
    permute(g, [n, s.o * s.pixels(), 1], [1, 0, 2], gt.data_mut());
    let mut kt = arena.alloc_uninit(&[s.o * taps, s.c]);
    permute(k, [s.o, s.c, taps], [0, 2, 1], kt.data_mut());
    let mut gxt = arena.alloc_uninit(&[plane, s.c * n]);
    permute(gx, [n, s.c, plane], [2, 1, 0], gxt.data_mut());
    scatter(s, gt.data(), kt.data(), gxt.data_mut());
    permute(gxt.data(), [plane, s.c, n], [2, 1, 0], gx);
    arena.recycle(gxt);
    arena.recycle(kt);
    arena.recycle(gt);
}

fn scatter(s: &ConvShape, gt: &[f32], kt: &[f32], gxt: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if crate::dispatch::avx2_fma() {
        // SAFETY: feature presence checked at runtime.
        return unsafe { scatter_avx2(s, gt, kt, gxt) };
    }
    scatter_impl(s, gt, kt, gxt)
}

/// SAFETY: `#[target_feature]`-only unsafety — the body is the safe
/// `scatter_impl` with AVX2+FMA codegen; no raw pointers or intrinsics.
/// Callers must have verified `dispatch::avx2_fma()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn scatter_avx2(s: &ConvShape, gt: &[f32], kt: &[f32], gxt: &mut [f32]) {
    scatter_impl(s, gt, kt, gxt)
}

/// The scatter over `gt [o, oh, ow, n]`, `kt [o, kh, kw, c]` and
/// `gxt [h, w, c, n]`, in the direct loop's `(o, oh, ow)` order.
#[inline(always)]
fn scatter_impl(s: &ConvShape, gt: &[f32], kt: &[f32], gxt: &mut [f32]) {
    let (n, cn) = (s.n, s.c * s.n);
    for oi in 0..s.o {
        for yi in 0..s.oh {
            for xi in 0..s.ow {
                let g = &gt[((oi * s.oh + yi) * s.ow + xi) * n..][..n];
                for ki in 0..s.kh {
                    // Wraps past `h` (or `w`) for a tap in the padding.
                    let ih = (yi * s.stride + ki).wrapping_sub(s.pad);
                    if ih >= s.h {
                        continue;
                    }
                    for kj in 0..s.kw {
                        let iw = (xi * s.stride + kj).wrapping_sub(s.pad);
                        if iw >= s.w {
                            continue;
                        }
                        let kv = &kt[((oi * s.kh + ki) * s.kw + kj) * s.c..][..s.c];
                        let dst = &mut gxt[(ih * s.w + iw) * cn..][..cn];
                        for (row, &kc) in dst.chunks_exact_mut(n).zip(kv) {
                            for (o, &gv) in row.iter_mut().zip(g) {
                                *o += gv * kc;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Global average pooling: `[N, C, H, W] → [N, C]`.
pub fn avg_pool_global(input: Var<'_>) -> Var<'_> {
    let xv = input.value();
    let out = infer::avg_pool_global(&mut ScratchArena::new(), &xv);
    let (n, c, h, w) = dims4(&xv);
    let area = (h * w) as f32;
    let xid = input.id();
    input.tape().push(
        out,
        OpMeta::new("avg_pool_global", vec![xid]),
        Some(Box::new(move |g, sink| {
            let gx = sink.accum(xid);
            for ni in 0..n {
                for ci in 0..c {
                    let gv = g.data()[ni * c + ci] / area;
                    let base = ni * c * h * w + ci * h * w;
                    for o in &mut gx.data_mut()[base..base + h * w] {
                        *o += gv;
                    }
                }
            }
        })),
    )
}

/// Per-channel mean over `(N, H, W)`: `[N, C, H, W] → [C]`.
pub fn channel_mean(input: Var<'_>) -> Var<'_> {
    let xv = input.value();
    let (n, c, h, w) = dims4(&xv);
    let count = (n * h * w) as f32;
    let mut out = Array::zeros(&[c]);
    for ni in 0..n {
        for ci in 0..c {
            let base = ni * c * h * w + ci * h * w;
            out.data_mut()[ci] += xv.data()[base..base + h * w].iter().sum::<f32>();
        }
    }
    out.scale_mut(1.0 / count);
    let xid = input.id();
    input.tape().push(
        out,
        OpMeta::new("channel_mean", vec![xid]),
        Some(Box::new(move |g, sink| {
            let gx = sink.accum(xid);
            for ni in 0..n {
                for ci in 0..c {
                    let gv = g.data()[ci] / count;
                    let base = ni * c * h * w + ci * h * w;
                    for o in &mut gx.data_mut()[base..base + h * w] {
                        *o += gv;
                    }
                }
            }
        })),
    )
}

/// Per-channel affine: `out[n,c,h,w] = input[n,c,h,w] * scale[c] + shift[c]`.
pub fn channel_affine<'t>(input: Var<'t>, scale: Var<'t>, shift: Var<'t>) -> Var<'t> {
    let xv = input.value();
    let sv = scale.value();
    let mut out = (*xv).clone();
    infer::channel_affine_mut(&mut out, &sv, &shift.value());
    let (n, c, h, w) = dims4(&xv);
    let (xid, sid, bid) = (input.id(), scale.id(), shift.id());
    let sv2 = Rc::clone(&sv);
    input.tape().push(
        out,
        OpMeta::new("channel_affine", vec![xid, sid, bid]),
        Some(Box::new(move |g, sink| {
            let (gx, gs, gb) = sink.accum3(xid, sid, bid);
            for ni in 0..n {
                for ci in 0..c {
                    let s = sv2.data()[ci];
                    let base = ni * c * h * w + ci * h * w;
                    let gslice = &g.data()[base..base + h * w];
                    let xslice = &xv.data()[base..base + h * w];
                    let gxs = &mut gx.data_mut()[base..base + h * w];
                    let mut acc_s = 0.0;
                    let mut acc_b = 0.0;
                    for i in 0..h * w {
                        gxs[i] += gslice[i] * s;
                        acc_s += gslice[i] * xslice[i];
                        acc_b += gslice[i];
                    }
                    gs.data_mut()[ci] += acc_s;
                    gb.data_mut()[ci] += acc_b;
                }
            }
        })),
    )
}

/// Subtract a per-channel vector: `out[n,c,·] = input[n,c,·] − v[c]`.
pub fn sub_channel<'t>(input: Var<'t>, v: Var<'t>) -> Var<'t> {
    let mut out = (*input.value()).clone();
    infer::sub_channel_mut(&mut out, &v.value());
    let (n, c, h, w) = dims4(&out);
    let (xid, vid) = (input.id(), v.id());
    input.tape().push(
        out,
        OpMeta::new("sub_channel", vec![xid, vid]),
        Some(Box::new(move |g, sink| {
            sink.add(xid, g);
            let gv = sink.accum(vid);
            for ni in 0..n {
                for ci in 0..c {
                    let base = ni * c * h * w + ci * h * w;
                    gv.data_mut()[ci] -= g.data()[base..base + h * w].iter().sum::<f32>();
                }
            }
        })),
    )
}

/// Multiply each channel by a per-channel vector: `out[n,c,·] = input[n,c,·] · v[c]`.
pub fn mul_channel<'t>(input: Var<'t>, v: Var<'t>) -> Var<'t> {
    let xv = input.value();
    let vv = v.value();
    let mut out = (*xv).clone();
    infer::mul_channel_mut(&mut out, &vv);
    let (n, c, h, w) = dims4(&xv);
    let (xid, vid) = (input.id(), v.id());
    input.tape().push(
        out,
        OpMeta::new("mul_channel", vec![xid, vid]),
        Some(Box::new(move |g, sink| {
            let (gx, gv) = sink.accum2(xid, vid);
            for ni in 0..n {
                for ci in 0..c {
                    let m = vv.data()[ci];
                    let base = ni * c * h * w + ci * h * w;
                    let gslice = &g.data()[base..base + h * w];
                    let xslice = &xv.data()[base..base + h * w];
                    let gxs = &mut gx.data_mut()[base..base + h * w];
                    let mut acc = 0.0;
                    for i in 0..h * w {
                        gxs[i] += gslice[i] * m;
                        acc += gslice[i] * xslice[i];
                    }
                    gv.data_mut()[ci] += acc;
                }
            }
        })),
    )
}

#[cfg(test)]
#[allow(clippy::cloned_ref_to_slice_refs)] // explicit clones read clearer in grad checks
mod tests {
    use super::*;
    use crate::check::grad_check;
    use crate::ops::{square, sum_all};
    use crate::tape::Tape;

    fn seq(shape: &[usize]) -> Array {
        let n: usize = shape.iter().product();
        Array::from_vec(shape, (0..n).map(|i| (i as f32) * 0.1 - 0.4).collect())
    }

    #[test]
    fn conv2d_identity_kernel() {
        let t = Tape::new();
        let x = t.leaf(seq(&[1, 1, 3, 3]));
        // 1x1 kernel with weight 1 and zero bias reproduces the input.
        let k = t.leaf(Array::ones(&[1, 1, 1, 1]));
        let b = t.leaf(Array::zeros(&[1]));
        let y = conv2d(x, k, b, 1, 0);
        assert_eq!(y.value().shape(), &[1, 1, 3, 3]);
        assert_eq!(y.value().data(), x.value().data());
    }

    #[test]
    fn conv2d_known_sum() {
        let t = Tape::new();
        // 2x2 all-ones kernel over a 2x2 input of ones, no padding → sum 4.
        let x = t.leaf(Array::ones(&[1, 1, 2, 2]));
        let k = t.leaf(Array::ones(&[1, 1, 2, 2]));
        let b = t.leaf(Array::full(&[1], 0.5));
        let y = conv2d(x, k, b, 1, 0);
        assert_eq!(y.value().shape(), &[1, 1, 1, 1]);
        assert!((y.value().data()[0] - 4.5).abs() < 1e-6);
    }

    #[test]
    fn conv2d_padding_shape() {
        let t = Tape::new();
        let x = t.leaf(seq(&[2, 3, 5, 4]));
        let k = t.leaf(seq(&[4, 3, 3, 3]));
        let b = t.leaf(Array::zeros(&[4]));
        let y = conv2d(x, k, b, 1, 1); // same-padding for 3x3
        assert_eq!(y.value().shape(), &[2, 4, 5, 4]);
        let y2 = conv2d(x, k, b, 2, 1);
        assert_eq!(y2.value().shape(), &[2, 4, 3, 2]);
    }

    #[test]
    fn grad_conv2d() {
        let x = seq(&[1, 2, 4, 3]);
        let k = seq(&[2, 2, 2, 2]);
        let b = Array::vector(vec![0.1, -0.2]);
        grad_check(&[x, k, b], |_, v| {
            sum_all(square(conv2d(v[0], v[1], v[2], 1, 1)))
        });
    }

    #[test]
    fn grad_conv2d_strided() {
        let x = seq(&[2, 1, 5, 5]);
        let k = seq(&[1, 1, 3, 3]);
        let b = Array::vector(vec![0.3]);
        grad_check(&[x, k, b], |_, v| {
            sum_all(square(conv2d(v[0], v[1], v[2], 2, 0)))
        });
    }

    #[test]
    fn grad_pool_and_channel_ops() {
        let x = seq(&[2, 3, 2, 2]);
        let v = Array::vector(vec![0.5, -1.0, 2.0]);
        let s = Array::vector(vec![1.5, 0.5, -0.7]);
        grad_check(&[x.clone()], |_, vars| {
            sum_all(square(avg_pool_global(vars[0])))
        });
        grad_check(&[x.clone()], |_, vars| {
            sum_all(square(channel_mean(vars[0])))
        });
        grad_check(&[x.clone(), v.clone()], |_, vars| {
            sum_all(square(sub_channel(vars[0], vars[1])))
        });
        grad_check(&[x.clone(), v.clone()], |_, vars| {
            sum_all(square(mul_channel(vars[0], vars[1])))
        });
        grad_check(&[x, s, v], |_, vars| {
            sum_all(square(channel_affine(vars[0], vars[1], vars[2])))
        });
    }

    // ---------------------------------------------------------------
    // The direct loops the GEMM lowering replaced, kept as its oracle.
    // ---------------------------------------------------------------

    /// The forward as a direct loop over `(n, o, oh, ow)`: the accumulator
    /// starts at the bias and adds the unpadded taps in `(c, kh, kw)` order.
    fn direct_conv2d(x: &Array, k: &Array, b: &Array, stride: usize, pad: usize) -> Array {
        let s = ConvShape::new(x, k, b, stride, pad);
        let (xd, kd, bd) = (x.data(), k.data(), b.data());
        let mut out = Array::zeros(&s.out_shape());
        let yd = out.data_mut();
        for ni in 0..s.n {
            for oi in 0..s.o {
                for yi in 0..s.oh {
                    for xi in 0..s.ow {
                        let mut acc = bd[oi];
                        for ci in 0..s.c {
                            for ki in 0..s.kh {
                                let ih = yi * stride + ki;
                                if ih < pad || ih - pad >= s.h {
                                    continue;
                                }
                                for kj in 0..s.kw {
                                    let iw = xi * stride + kj;
                                    if iw < pad || iw - pad >= s.w {
                                        continue;
                                    }
                                    acc += xd[((ni * s.c + ci) * s.h + ih - pad) * s.w + iw - pad]
                                        * kd[((oi * s.c + ci) * s.kh + ki) * s.kw + kj];
                                }
                            }
                        }
                        yd[((ni * s.o + oi) * s.oh + yi) * s.ow + xi] = acc;
                    }
                }
            }
        }
        out
    }

    /// The backward as a direct loop over `(n, o, oh, ow)`: each nonzero
    /// output gradient goes into the bias, then tap by tap into the input
    /// and the kernel, all added straight into the accumulators.
    #[allow(clippy::too_many_arguments)]
    fn direct_conv2d_backward(
        x: &Array,
        k: &Array,
        g: &Array,
        stride: usize,
        pad: usize,
        gx: &mut [f32],
        gk: &mut [f32],
        gb: &mut [f32],
    ) {
        let s = ConvShape::new(x, k, &Array::zeros(&[k.shape()[0]]), stride, pad);
        let (xd, kd, gd) = (x.data(), k.data(), g.data());
        for ni in 0..s.n {
            for oi in 0..s.o {
                for yi in 0..s.oh {
                    for xi in 0..s.ow {
                        let gout = gd[((ni * s.o + oi) * s.oh + yi) * s.ow + xi];
                        // st-lint: allow(float-eq) — exact-zero sparsity skip
                        if gout == 0.0 {
                            continue;
                        }
                        gb[oi] += gout;
                        for ci in 0..s.c {
                            for ki in 0..s.kh {
                                let ih = yi * stride + ki;
                                if ih < pad || ih - pad >= s.h {
                                    continue;
                                }
                                for kj in 0..s.kw {
                                    let iw = xi * stride + kj;
                                    if iw < pad || iw - pad >= s.w {
                                        continue;
                                    }
                                    let xix = ((ni * s.c + ci) * s.h + ih - pad) * s.w + iw - pad;
                                    let kix = ((oi * s.c + ci) * s.kh + ki) * s.kw + kj;
                                    gx[xix] += gout * kd[kix];
                                    gk[kix] += gout * xd[xix];
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    fn bits(a: &[f32]) -> Vec<u32> {
        a.iter().map(|v| v.to_bits()).collect()
    }

    /// Values in `[-2, 2)`, about one in four exactly `+0.0` (or `±0.0`
    /// with `signed`).
    fn values(shape: &[usize], signed: bool, rng: &mut rand::rngs::StdRng) -> Array {
        use rand::Rng;
        let n: usize = shape.iter().product();
        let data = (0..n)
            .map(|_| match rng.gen_range(0..8) {
                0 => 0.0,
                1 if signed => -0.0,
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect();
        Array::from_vec(shape, data)
    }

    /// One conv2d case against the direct loops: the infer and taped
    /// values, then the input, kernel and bias gradients of `Σ y ⊙ w`.
    fn assert_conv_matches_direct(seed: u64, dims: [usize; 7], stride: usize, pad: usize) {
        let [n, c, h, w, o, kh, kw] = dims;
        let mut rng = crate::init::rng(seed);
        let x = values(&[n, c, h, w], true, &mut rng);
        let k = values(&[o, c, kh, kw], true, &mut rng);
        // A bias of −0.0 is the one case the lowering does not reproduce
        // (see `minus_zero_bias_is_the_one_signed_zero_difference`).
        let b = values(&[o], false, &mut rng);
        let case = format!("seed {seed}, dims {dims:?}, stride {stride}, pad {pad}");

        let want = direct_conv2d(&x, &k, &b, stride, pad);
        let got = infer::conv2d(&mut ScratchArena::new(), &x, &k, &b, stride, pad);
        assert_eq!(got.shape(), want.shape(), "{case}");
        assert_eq!(bits(got.data()), bits(want.data()), "infer forward: {case}");

        let t = Tape::new();
        let (xv, kv, bv) = (t.leaf(x.clone()), t.leaf(k.clone()), t.leaf(b.clone()));
        let y = conv2d(xv, kv, bv, stride, pad);
        assert_eq!(
            bits(y.value().data()),
            bits(want.data()),
            "taped forward: {case}"
        );
        let weights = t.leaf(values(want.shape(), true, &mut rng));
        let grads = t.backward(sum_all(crate::ops::mul(y, weights)));

        let mut gx = vec![0.0; x.len()];
        let mut gk = vec![0.0; k.len()];
        let mut gb = vec![0.0; b.len()];
        direct_conv2d_backward(
            &x,
            &k,
            grads.expect(y),
            stride,
            pad,
            &mut gx,
            &mut gk,
            &mut gb,
        );
        assert_eq!(
            bits(grads.expect(xv).data()),
            bits(&gx),
            "input gradient: {case}"
        );
        assert_eq!(
            bits(grads.expect(kv).data()),
            bits(&gk),
            "kernel gradient: {case}"
        );
        assert_eq!(
            bits(grads.expect(bv).data()),
            bits(&gb),
            "bias gradient: {case}"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Forward (infer and taped) and all three gradients are the direct
        /// loops' bits over random shapes, strides and paddings, with exact
        /// zeros of both signs in the input, kernel and output gradient.
        #[test]
        fn conv2d_matches_direct_loops(
            seed in 0u64..1_000_000,
            n in 1usize..=3,
            c in 1usize..=4,
            h in 1usize..=9,
            w in 1usize..=9,
            o in 1usize..=9,
            kh in 1usize..=4,
            kw in 1usize..=4,
            stride in 1usize..=3,
            pad in 0usize..=2,
        ) {
            let (kh, kw) = (kh.min(h + 2 * pad), kw.min(w + 2 * pad));
            assert_conv_matches_direct(seed, [n, c, h, w, o, kh, kw], stride, pad);
        }
    }

    /// The traffic CNN's shapes: 3×3 kernels, padding 1, strides 1 and 2,
    /// 1 → 4 → 8 → 8 channels on 16×16 and 32×32 grids.
    #[test]
    fn conv2d_matches_direct_loops_on_traffic_cnn_shapes() {
        for (i, (hw, c, o, stride)) in [(16, 1, 4, 1), (16, 4, 8, 2), (8, 8, 8, 2), (32, 1, 4, 1)]
            .into_iter()
            .enumerate()
        {
            assert_conv_matches_direct(i as u64, [3, c, hw, hw, o, 3, 3], stride, 1);
        }
    }

    /// A kernel and bias used by two convolutions on one tape: the second
    /// backward folds into accumulators that already hold the first's
    /// gradient, in the direct loop's order.
    #[test]
    fn conv2d_kernel_used_twice_matches_direct_loops() {
        let mut rng = crate::init::rng(5);
        let x1 = values(&[2, 3, 6, 5], true, &mut rng);
        let x2 = values(&[1, 3, 6, 5], true, &mut rng);
        let k = values(&[4, 3, 3, 3], true, &mut rng);
        let b = values(&[4], false, &mut rng);
        let t = Tape::new();
        let (x1v, x2v, kv, bv) = (
            t.leaf(x1.clone()),
            t.leaf(x2.clone()),
            t.leaf(k.clone()),
            t.leaf(b.clone()),
        );
        let y1 = conv2d(x1v, kv, bv, 1, 1);
        let y2 = conv2d(x2v, kv, bv, 2, 1);
        let loss = crate::ops::add(sum_all(square(y1)), sum_all(square(y2)));
        let grads = t.backward(loss);
        // The reverse sweep runs y2's backward first.
        let mut gk = vec![0.0; k.len()];
        let mut gb = vec![0.0; b.len()];
        let mut gx2 = vec![0.0; x2.len()];
        direct_conv2d_backward(&x2, &k, grads.expect(y2), 2, 1, &mut gx2, &mut gk, &mut gb);
        let mut gx1 = vec![0.0; x1.len()];
        direct_conv2d_backward(&x1, &k, grads.expect(y1), 1, 1, &mut gx1, &mut gk, &mut gb);
        assert_eq!(bits(grads.expect(kv).data()), bits(&gk));
        assert_eq!(bits(grads.expect(bv).data()), bits(&gb));
        assert_eq!(bits(grads.expect(x1v).data()), bits(&gx1));
        assert_eq!(bits(grads.expect(x2v).data()), bits(&gx2));
    }

    /// A constant input (the traffic grid) gets no gradient; the kernel and
    /// bias gradients do not change.
    #[test]
    fn conv2d_skips_the_gradient_of_a_constant_input() {
        let mut rng = crate::init::rng(6);
        let x = values(&[2, 1, 7, 7], true, &mut rng);
        let k = values(&[4, 1, 3, 3], true, &mut rng);
        let b = values(&[4], false, &mut rng);
        let run = |constant: bool| {
            let t = Tape::new();
            let xv = if constant {
                t.constant(x.clone())
            } else {
                t.leaf(x.clone())
            };
            let (kv, bv) = (t.leaf(k.clone()), t.leaf(b.clone()));
            let grads = t.backward(sum_all(square(conv2d(xv, kv, bv, 1, 1))));
            (
                grads.get(xv).is_some(),
                bits(grads.expect(kv).data()),
                bits(grads.expect(bv).data()),
            )
        };
        let (leaf_grad, k_leaf, b_leaf) = run(false);
        let (const_grad, k_const, b_const) = run(true);
        assert!(leaf_grad && !const_grad);
        assert_eq!((k_leaf, b_leaf), (k_const, b_const));
    }

    /// The signed-zero argument at its one edge: a padded tap adds ±0.0,
    /// which the direct loop skips. That changes a sum only when the sum is
    /// exactly −0.0, which takes a bias of −0.0 and only −0.0 products; the
    /// packed kernel, whose sums start at +0.0, then gives +0.0. Biases
    /// start at +0.0 and Adam's `p + Δ` never turns +0.0 into −0.0.
    #[test]
    fn minus_zero_bias_is_the_one_signed_zero_difference() {
        let x = Array::from_vec(&[1, 1, 1, 1], vec![0.0]);
        let k = Array::from_vec(&[4, 1, 3, 3], vec![-1.0; 36]);
        let b = Array::from_vec(&[4], vec![-0.0; 4]);
        let want = direct_conv2d(&x, &k, &b, 1, 1);
        let got = infer::conv2d(&mut ScratchArena::new(), &x, &k, &b, 1, 1);
        assert_eq!(bits(want.data()), vec![(-0.0f32).to_bits(); 4]);
        assert_eq!(bits(got.data()), vec![0.0f32.to_bits(); 4]);
        let b = Array::zeros(&[4]);
        let got = infer::conv2d(&mut ScratchArena::new(), &x, &k, &b, 1, 1);
        assert_eq!(
            bits(got.data()),
            bits(direct_conv2d(&x, &k, &b, 1, 1).data())
        );
    }

    #[test]
    fn channel_mean_matches_manual() {
        let t = Tape::new();
        let x = t.leaf(Array::from_vec(&[1, 2, 1, 2], vec![1.0, 3.0, 10.0, 20.0]));
        let m = channel_mean(x);
        assert_eq!(m.value().data(), &[2.0, 15.0]);
    }

    #[test]
    fn avg_pool_matches_manual() {
        let t = Tape::new();
        let x = t.leaf(Array::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 6.0]));
        let p = avg_pool_global(x);
        assert_eq!(p.value().data(), &[3.0]);
    }
}
