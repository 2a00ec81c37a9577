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
use crate::infer::{self, dims4, idx4, ScratchArena};
use crate::tape::{OpMeta, Var};

/// 2-D convolution with stride and zero padding.
///
/// `input [N, C, H, W]`, `kernel [O, C, KH, KW]`, `bias [O]` →
/// `[N, O, OH, OW]` with `OH = (H + 2·pad − KH)/stride + 1`.
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
    let out = infer::conv2d(&mut ScratchArena::new(), &xv, &kv, &bv, stride, pad);
    let (n, c, h, w) = dims4(&xv);
    let (o, _, kh, kw) = dims4(&kv);
    let (oh, ow) = (out.shape()[2], out.shape()[3]);
    let (xc, xh, xw) = (c * h * w, h * w, w);
    let (koc, kcc, khh) = (c * kh * kw, kh * kw, kw);
    let (yc, yh, yw) = (o * oh * ow, oh * ow, ow);

    let (xid, kid, bid) = (input.id(), kernel.id(), bias.id());
    input.tape().push(
        out,
        OpMeta::new("conv2d", vec![xid, kid, bid]).with_iattrs(vec![stride, pad]),
        Some(Box::new(move |g, sink| {
            let gd = g.data();
            let xd = xv.data();
            let kd = kv.data();
            let (gx, gk, gb) = sink.accum3(xid, kid, bid);
            {
                let gxd = gx.data_mut();
                let gkd = gk.data_mut();
                let gbd = gb.data_mut();
                for ni in 0..n {
                    for oi in 0..o {
                        for yi in 0..oh {
                            for xi_ in 0..ow {
                                let gout = gd[idx4(yc, yh, yw, ni, oi, yi, xi_)];
                                // st-lint: allow(float-eq) — exact-zero sparsity skip
                                if gout == 0.0 {
                                    continue;
                                }
                                gbd[oi] += gout;
                                let h0 = yi * stride;
                                let w0 = xi_ * stride;
                                for ci in 0..c {
                                    for ki in 0..kh {
                                        let ih = h0 + ki;
                                        if ih < pad || ih - pad >= h {
                                            continue;
                                        }
                                        for kj in 0..kw {
                                            let iw = w0 + kj;
                                            if iw < pad || iw - pad >= w {
                                                continue;
                                            }
                                            let xix = idx4(xc, xh, xw, ni, ci, ih - pad, iw - pad);
                                            let kix = idx4(koc, kcc, khh, oi, ci, ki, kj);
                                            gxd[xix] += gout * kd[kix];
                                            gkd[kix] += gout * xd[xix];
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        })),
    )
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
