//! Differentiable operations over [`Var`] handles.
//!
//! Every function here records one node on the tape; the node's backward
//! closure distributes the incoming gradient to its parents. All backward
//! implementations are validated against central finite differences in
//! [`crate::check`]'s test suite. Each op refuses mis-shaped operands before
//! it records, itself or through the kernel it calls, so that check is the
//! op's one shape rule; the graph analyzer reads the shapes recorded here.
//!
//! `affine`, `add_bias`, `gather_rows`, `gather_rows_blocked`,
//! `softmax_rows` and `log_softmax_rows` compute their values with their
//! [`crate::infer`] kernels, so training and decoding share one forward
//! definition of each. An empty [`crate::infer::ScratchArena`] hands out
//! the same fresh `Array::zeros` the op would allocate itself.

use std::rc::Rc;

use crate::array::Array;
use crate::gemm::gemm_prepacked;
use crate::infer::{self, ScratchArena};
use crate::tape::{OpMeta, Var};

fn same_tape<'t>(a: Var<'t>, b: Var<'t>) {
    assert!(
        std::ptr::eq(a.tape(), b.tape()),
        "vars from different tapes"
    );
}

/// Record a unary elementwise op. `dfdx` receives `(x, y)` element pairs and
/// returns the local derivative dy/dx at that element.
fn unary<'t>(
    x: Var<'t>,
    name: &'static str,
    f: impl Fn(f32) -> f32,
    dfdx: impl Fn(f32, f32) -> f32 + 'static,
) -> Var<'t> {
    unary_attr(x, name, Vec::new(), f, dfdx)
}

/// Like [`unary`] but records scalar attributes (the constants of `scale`,
/// `add_scalar`, `leaky_relu`) so the graph analyzer can reason about them.
fn unary_attr<'t>(
    x: Var<'t>,
    name: &'static str,
    sattrs: Vec<f32>,
    f: impl Fn(f32) -> f32,
    dfdx: impl Fn(f32, f32) -> f32 + 'static,
) -> Var<'t> {
    let xv = x.value();
    let y = Rc::new(xv.map(&f));
    let yv = Rc::clone(&y);
    let xid = x.id();
    x.tape().push(
        y,
        OpMeta::new(name, vec![xid]).with_sattrs(sattrs),
        Some(Box::new(move |g, sink| {
            let out = sink.accum(xid);
            for (((o, &gi), &xi), &yi) in out
                .data_mut()
                .iter_mut()
                .zip(g.data())
                .zip(xv.data())
                .zip(yv.data())
            {
                *o += gi * dfdx(xi, yi);
            }
        })),
    )
}

/// Record a binary elementwise op over same-shape operands.
fn binary<'t>(
    a: Var<'t>,
    b: Var<'t>,
    name: &'static str,
    f: impl Fn(f32, f32) -> f32,
    // local derivatives (df/da, df/db) given (a, b)
    dfd: impl Fn(f32, f32) -> (f32, f32) + 'static,
) -> Var<'t> {
    same_tape(a, b);
    let av = a.value();
    let bv = b.value();
    let y = av.zip(&bv, &f);
    let (aid, bid) = (a.id(), b.id());
    a.tape().push(
        y,
        OpMeta::new(name, vec![aid, bid]),
        Some(Box::new(move |g, sink| {
            // Two sequential sink borrows (a may alias b, e.g. add(x, x) —
            // accumulation makes that correct either way).
            {
                let ga = sink.accum(aid);
                for i in 0..g.len() {
                    let (da, _) = dfd(av.data()[i], bv.data()[i]);
                    ga.data_mut()[i] += g.data()[i] * da;
                }
            }
            let gb = sink.accum(bid);
            for i in 0..g.len() {
                let (_, db) = dfd(av.data()[i], bv.data()[i]);
                gb.data_mut()[i] += g.data()[i] * db;
            }
        })),
    )
}

/// Elementwise `a + b` (same shape).
pub fn add<'t>(a: Var<'t>, b: Var<'t>) -> Var<'t> {
    binary(a, b, "add", |x, y| x + y, |_, _| (1.0, 1.0))
}

/// Elementwise `a - b` (same shape).
pub fn sub<'t>(a: Var<'t>, b: Var<'t>) -> Var<'t> {
    binary(a, b, "sub", |x, y| x - y, |_, _| (1.0, -1.0))
}

/// Elementwise `a * b` (same shape).
pub fn mul<'t>(a: Var<'t>, b: Var<'t>) -> Var<'t> {
    binary(a, b, "mul", |x, y| x * y, |x, y| (y, x))
}

/// Elementwise `a / b` (same shape).
pub fn div<'t>(a: Var<'t>, b: Var<'t>) -> Var<'t> {
    binary(a, b, "div", |x, y| x / y, |x, y| (1.0 / y, -x / (y * y)))
}

/// `a * s` for a scalar constant `s`.
pub fn scale(a: Var<'_>, s: f32) -> Var<'_> {
    unary_attr(a, "scale", vec![s], move |x| x * s, move |_, _| s)
}

/// `a + s` for a scalar constant `s`.
pub fn add_scalar(a: Var<'_>, s: f32) -> Var<'_> {
    unary_attr(a, "add_scalar", vec![s], move |x| x + s, |_, _| 1.0)
}

/// Elementwise negation.
pub fn neg(a: Var<'_>) -> Var<'_> {
    scale(a, -1.0)
}

/// Elementwise exponential.
pub fn exp(a: Var<'_>) -> Var<'_> {
    unary(a, "exp", f32::exp, |_, y| y)
}

/// Elementwise natural log. Inputs are clamped to `1e-12` for safety.
pub fn ln(a: Var<'_>) -> Var<'_> {
    unary(a, "ln", |x| x.max(1e-12).ln(), |x, _| 1.0 / x.max(1e-12))
}

/// Elementwise square root (inputs clamped to 0).
pub fn sqrt(a: Var<'_>) -> Var<'_> {
    unary(a, "sqrt", |x| x.max(0.0).sqrt(), |_, y| 0.5 / y.max(1e-12))
}

/// Elementwise square.
pub fn square(a: Var<'_>) -> Var<'_> {
    unary(a, "square", |x| x * x, |x, _| 2.0 * x)
}

/// Elementwise reciprocal.
pub fn reciprocal(a: Var<'_>) -> Var<'_> {
    unary(a, "reciprocal", |x| 1.0 / x, |x, _| -1.0 / (x * x))
}

/// Logistic sigmoid. Computed by [`crate::mathfn::sigmoid`], the crate's
/// deterministic polynomial kernel, so taped and inference activations are
/// bit-identical on every host.
pub fn sigmoid(a: Var<'_>) -> Var<'_> {
    unary(a, "sigmoid", crate::mathfn::sigmoid, |_, y| y * (1.0 - y))
}

/// Hyperbolic tangent, via [`crate::mathfn::tanh`] (see [`sigmoid`]).
pub fn tanh(a: Var<'_>) -> Var<'_> {
    unary(a, "tanh", crate::mathfn::tanh, |_, y| 1.0 - y * y)
}

/// Rectified linear unit.
pub fn relu(a: Var<'_>) -> Var<'_> {
    unary(
        a,
        "relu",
        |x| x.max(0.0),
        |x, _| if x > 0.0 { 1.0 } else { 0.0 },
    )
}

/// Leaky ReLU with the given negative-side slope.
pub fn leaky_relu(a: Var<'_>, slope: f32) -> Var<'_> {
    unary_attr(
        a,
        "leaky_relu",
        vec![slope],
        move |x| if x > 0.0 { x } else { slope * x },
        move |x, _| if x > 0.0 { 1.0 } else { slope },
    )
}

/// Numerically stable softplus `ln(1 + e^x)`.
pub fn softplus(a: Var<'_>) -> Var<'_> {
    unary(
        a,
        "softplus",
        |x| {
            if x > 20.0 {
                x
            } else {
                (1.0 + x.exp()).ln()
            }
        },
        |x, _| 1.0 / (1.0 + (-x).exp()),
    )
}

/// Matrix product of 2-D vars: `a(m×k) · b(k×n)`.
pub fn matmul<'t>(a: Var<'t>, b: Var<'t>) -> Var<'t> {
    same_tape(a, b);
    let av = a.value();
    let bv = b.value();
    let y = av.matmul(&bv);
    let (aid, bid) = (a.id(), b.id());
    a.tape().push(
        y,
        OpMeta::new("matmul", vec![aid, bid]),
        Some(Box::new(move |g, sink| {
            // dL/da += g · bᵀ ; dL/db += aᵀ · g — straight into the pooled
            // accumulators, no temporary product arrays.
            g.matmul_t_acc(&bv, sink.accum(aid));
            av.t_matmul_acc(g, sink.accum(bid));
        })),
    )
}

/// [`matmul`] by a weight that several products on the tape share, such
/// as a slot head that every step of a pass multiplies by: `w` is packed
/// once per tape for the forward product and once for the backward's
/// `g · wᵀ` ([`crate::Tape::reset`] drops the packings), where [`matmul`]
/// packs it again on every call. The value and both gradients keep
/// [`matmul`]'s bits: a product through a packing equals the unpacked one
/// at every row count (`gemm_prepacked`'s contract), and the node records
/// as `"matmul"`.
pub fn matmul_weight<'t>(a: Var<'t>, w: Var<'t>) -> Var<'t> {
    same_tape(a, w);
    let tape = a.tape();
    let av = a.value();
    let packing = tape.packing(w);
    assert!(
        av.ndim() == 2 && av.cols() == packing.b.k(),
        "matmul_weight: {:?} · [{}, {}]",
        av.shape(),
        packing.b.k(),
        packing.b.n()
    );
    let m = av.rows();
    let mut y = Array::zeros(&[m, packing.b.n()]);
    gemm_prepacked(m, av.data(), &packing.b, y.data_mut(), false);
    let (aid, wid) = (a.id(), w.id());
    tape.push(
        y,
        OpMeta::new("matmul", vec![aid, wid]),
        Some(Box::new(move |g, sink| {
            // dL/da += g · wᵀ through the packing; dL/dw += aᵀ · g as in
            // `matmul`, in the same order.
            gemm_prepacked(m, g.data(), &packing.bt, sink.accum(aid).data_mut(), true);
            av.t_matmul_acc(g, sink.accum(wid));
        })),
    )
}

/// Fused affine map `x(n×k) · w(k×d) + bias[d]` (bias broadcast over rows).
///
/// One tape node instead of the two that `add_bias(matmul(x, w), b)` records:
/// the intermediate product array, its node, and its gradient buffer all
/// disappear, which shortens the tape by roughly a third for MLP-heavy
/// models (every `Linear` layer and GRU gate goes through here).
pub fn affine<'t>(x: Var<'t>, w: Var<'t>, bias: Var<'t>) -> Var<'t> {
    same_tape(x, w);
    same_tape(x, bias);
    let xv = x.value();
    let wv = w.value();
    let bv = bias.value();
    let y = infer::affine(&mut ScratchArena::new(), &xv, &wv, &bv);
    let (xid, wid, bid) = (x.id(), w.id(), bias.id());
    x.tape().push(
        y,
        OpMeta::new("affine", vec![xid, wid, bid]),
        Some(Box::new(move |g, sink| {
            // dL/dx += g · wᵀ ; dL/dw += xᵀ · g ; dL/db += column sums of g.
            g.matmul_t_acc(&wv, sink.accum(xid));
            xv.t_matmul_acc(g, sink.accum(wid));
            let gb = sink.accum(bid);
            for r in 0..g.rows() {
                for (o, &gi) in gb.data_mut().iter_mut().zip(g.row(r)) {
                    *o += gi;
                }
            }
        })),
    )
}

/// Add a row vector `bias [d]` to every row of `a [n, d]`.
pub fn add_bias<'t>(a: Var<'t>, bias: Var<'t>) -> Var<'t> {
    same_tape(a, bias);
    let bv = bias.value();
    let mut y = (*a.value()).clone();
    infer::add_bias_rows(&mut y, bv.data());
    let (aid, bid) = (a.id(), bias.id());
    a.tape().push(
        y,
        OpMeta::new("add_bias", vec![aid, bid]),
        Some(Box::new(move |g, sink| {
            sink.add(aid, g);
            // bias gradient: column sums of g
            let gb = sink.accum(bid);
            for r in 0..g.rows() {
                for (o, &gi) in gb.data_mut().iter_mut().zip(g.row(r)) {
                    *o += gi;
                }
            }
        })),
    )
}

/// Sum of all elements, as a scalar var.
pub fn sum_all(a: Var<'_>) -> Var<'_> {
    let av = a.value();
    let aid = a.id();
    a.tape().push(
        Array::scalar(av.sum()),
        OpMeta::new("sum_all", vec![aid]),
        Some(Box::new(move |g, sink| {
            let gi = g.data()[0];
            for o in sink.accum(aid).data_mut() {
                *o += gi;
            }
        })),
    )
}

/// Mean of all elements, as a scalar var.
pub fn mean_all(a: Var<'_>) -> Var<'_> {
    let n = a.value().len() as f32;
    scale(sum_all(a), 1.0 / n)
}

/// Per-row sums of a 2-D array `[n, d] -> [n]`.
pub fn row_sum(a: Var<'_>) -> Var<'_> {
    let av = a.value();
    assert_eq!(av.ndim(), 2, "row_sum expects 2-D");
    let n = av.shape()[0];
    let mut y = Array::zeros(&[n]);
    for r in 0..n {
        y.data_mut()[r] = av.row(r).iter().sum();
    }
    let aid = a.id();
    a.tape().push(
        y,
        OpMeta::new("row_sum", vec![aid]),
        Some(Box::new(move |g, sink| {
            let ga = sink.accum(aid);
            for r in 0..n {
                let gr = g.data()[r];
                for o in ga.row_mut(r) {
                    *o += gr;
                }
            }
        })),
    )
}

/// Reshape (gradient is reshaped back).
pub fn reshape<'t>(a: Var<'t>, shape: &[usize]) -> Var<'t> {
    let av = a.value();
    let y = (*av).clone().reshape(shape);
    let aid = a.id();
    a.tape().push(
        y,
        OpMeta::new("reshape", vec![aid]).with_iattrs(shape.to_vec()),
        Some(Box::new(move |g, sink| {
            // Row-major data is unchanged by reshape: flat accumulate.
            let ga = sink.accum(aid);
            for (o, &gi) in ga.data_mut().iter_mut().zip(g.data()) {
                *o += gi;
            }
        })),
    )
}

/// Select a column range `[start, end)` of a 2-D var.
pub fn slice_cols(a: Var<'_>, start: usize, end: usize) -> Var<'_> {
    let av = a.value();
    assert_eq!(av.ndim(), 2);
    let (n, d) = (av.shape()[0], av.shape()[1]);
    assert!(start <= end && end <= d, "slice_cols {start}..{end} of {d}");
    let w = end - start;
    let mut y = Array::zeros(&[n, w]);
    for r in 0..n {
        y.row_mut(r).copy_from_slice(&av.row(r)[start..end]);
    }
    let aid = a.id();
    a.tape().push(
        y,
        OpMeta::new("slice_cols", vec![aid]).with_iattrs(vec![start, end]),
        Some(Box::new(move |g, sink| {
            let ga = sink.accum(aid);
            for r in 0..n {
                for (o, &gi) in ga.row_mut(r)[start..end].iter_mut().zip(g.row(r)) {
                    *o += gi;
                }
            }
        })),
    )
}

/// Embedding lookup: gather rows of `table [v, d]` at `indices`, producing
/// `[indices.len(), d]`. Backward scatters gradients into the table rows.
pub fn gather_rows<'t>(table: Var<'t>, indices: &[usize]) -> Var<'t> {
    let y = infer::gather_rows(&mut ScratchArena::new(), &table.value(), indices);
    let idx = indices.to_vec();
    let tid = table.id();
    table.tape().push(
        y,
        OpMeta::new("gather_rows", vec![tid]).with_iattrs(vec![idx.len()]),
        Some(Box::new(move |g, sink| {
            let gt = sink.accum(tid);
            for (r, &ix) in idx.iter().enumerate() {
                for (o, &gi) in gt.row_mut(ix).iter_mut().zip(g.row(r)) {
                    *o += gi;
                }
            }
        })),
    )
}

/// Embedding lookup across the *touched* blocks of a row-partitioned table:
/// `blocks` are 2-D `[rows_b, d]` vars (the subset of a
/// [`BlockedParam`](crate::block::BlockedParam)'s blocks this batch
/// actually reads, in first-touch order) and `picks[r] = (slot, row)` names
/// output row `r` as row `row` of `blocks[slot]`. Produces
/// `[picks.len(), d]`.
///
/// Backward walks `picks` in output-row order, scattering `g.row(r)` into
/// the owning block's accumulator — the identical float-addition sequence
/// as dense [`gather_rows`] restricted to each block's rows, so gradients
/// are bit-identical to the unsharded layout. Blocks not passed in are not
/// parents of this node: they cost no tape value copy and no gradient
/// buffer.
pub fn gather_rows_blocked<'t>(blocks: &[Var<'t>], picks: &[(usize, usize)]) -> Var<'t> {
    let vals: Vec<Rc<Array>> = blocks.iter().map(|b| b.value()).collect();
    let refs: Vec<&Array> = vals.iter().map(|v| &**v).collect();
    let y = infer::gather_rows_blocked(&mut ScratchArena::new(), &refs, picks);
    let ids: Vec<usize> = blocks.iter().map(|b| b.id()).collect();
    let picks_v = picks.to_vec();
    let backward_ids = ids.clone();
    blocks[0].tape().push(
        y,
        OpMeta::new("gather_rows_blocked", ids).with_iattrs(vec![picks_v.len()]),
        Some(Box::new(move |g, sink| {
            for (r, &(slot, row)) in picks_v.iter().enumerate() {
                let gb = sink.accum(backward_ids[slot]);
                for (o, &gi) in gb.row_mut(row).iter_mut().zip(g.row(r)) {
                    *o += gi;
                }
            }
        })),
    )
}

/// Row-wise softmax of a 2-D var.
pub fn softmax_rows(a: Var<'_>) -> Var<'_> {
    let mut y = (*a.value()).clone();
    infer::softmax_rows_mut(&mut y);
    let n = y.rows();
    let y = Rc::new(y);
    let yv = Rc::clone(&y);
    let aid = a.id();
    a.tape().push(
        y,
        OpMeta::new("softmax_rows", vec![aid]),
        Some(Box::new(move |g, sink| {
            let ga = sink.accum(aid);
            for r in 0..n {
                let s = yv.row(r);
                let gr = g.row(r);
                let dot: f32 = s.iter().zip(gr).map(|(&si, &gi)| si * gi).sum();
                for (o, (&si, &gi)) in ga.row_mut(r).iter_mut().zip(s.iter().zip(gr)) {
                    *o += si * (gi - dot);
                }
            }
        })),
    )
}

/// Row-wise log-softmax of a 2-D var.
pub fn log_softmax_rows(a: Var<'_>) -> Var<'_> {
    let mut y = (*a.value()).clone();
    infer::log_softmax_rows_mut(&mut y);
    let n = y.rows();
    let y = Rc::new(y);
    let yv = Rc::clone(&y);
    let aid = a.id();
    a.tape().push(
        y,
        OpMeta::new("log_softmax_rows", vec![aid]),
        Some(Box::new(move |g, sink| {
            let ga = sink.accum(aid);
            for r in 0..n {
                let gr = g.row(r);
                let gsum: f32 = gr.iter().sum();
                for (o, (&lp, &gi)) in ga.row_mut(r).iter_mut().zip(yv.row(r).iter().zip(gr)) {
                    *o += gi - lp.exp() * gsum;
                }
            }
        })),
    )
}

/// Pick one element per row: `out[i] = a[i, indices[i]]`, producing `[n]`.
pub fn pick_per_row<'t>(a: Var<'t>, indices: &[usize]) -> Var<'t> {
    let av = a.value();
    assert_eq!(av.ndim(), 2);
    let (n, d) = (av.shape()[0], av.shape()[1]);
    assert_eq!(indices.len(), n, "pick_per_row: one index per row");
    let mut y = Array::zeros(&[n]);
    for (r, &ix) in indices.iter().enumerate() {
        assert!(ix < d, "pick index {ix} out of range {d}");
        y.data_mut()[r] = av.at2(r, ix);
    }
    let idx = indices.to_vec();
    let aid = a.id();
    a.tape().push(
        y,
        OpMeta::new("pick_per_row", vec![aid]).with_iattrs(vec![idx.len()]),
        Some(Box::new(move |g, sink| {
            let ga = sink.accum(aid);
            for (r, &ix) in idx.iter().enumerate() {
                *ga.at2_mut(r, ix) += g.data()[r];
            }
        })),
    )
}

/// Mean cross-entropy of `logits [n, d]` against integer `targets [n]`.
pub fn cross_entropy_mean<'t>(logits: Var<'t>, targets: &[usize]) -> Var<'t> {
    let lp = log_softmax_rows(logits);
    let picked = pick_per_row(lp, targets);
    neg(mean_all(picked))
}

/// Mask rows: multiply row `i` of `a` by `mask[i]` (a constant per-row weight).
/// Used to zero-out padded steps in batched sequence losses.
pub fn mask_rows<'t>(a: Var<'t>, mask: &[f32]) -> Var<'t> {
    let av = a.value();
    assert_eq!(av.ndim(), 2, "mask_rows expects 2-D, got {:?}", av.shape());
    let n = av.rows();
    assert_eq!(mask.len(), n);
    let mut y = (*av).clone();
    for (r, &m) in mask.iter().enumerate() {
        for o in y.row_mut(r) {
            *o *= m;
        }
    }
    let mask = mask.to_vec();
    let aid = a.id();
    a.tape().push(
        y,
        OpMeta::new("mask_rows", vec![aid]),
        Some(Box::new(move |g, sink| {
            let ga = sink.accum(aid);
            for (r, &m) in mask.iter().enumerate() {
                for (o, &gi) in ga.row_mut(r).iter_mut().zip(g.row(r)) {
                    *o += gi * m;
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
    use crate::tape::Tape;

    fn arr(shape: &[usize], v: Vec<f32>) -> Array {
        Array::from_vec(shape, v)
    }

    #[test]
    fn grad_elementwise_binary() {
        let a = arr(&[2, 2], vec![0.5, -1.0, 2.0, 0.3]);
        let b = arr(&[2, 2], vec![1.5, 0.7, -0.2, 2.0]);
        grad_check(&[a.clone(), b.clone()], |_, v| sum_all(add(v[0], v[1])));
        grad_check(&[a.clone(), b.clone()], |_, v| sum_all(sub(v[0], v[1])));
        grad_check(&[a.clone(), b.clone()], |_, v| sum_all(mul(v[0], v[1])));
        grad_check(&[a, b], |_, v| sum_all(div(v[0], v[1])));
    }

    #[test]
    fn grad_elementwise_unary() {
        let a = arr(&[5], vec![0.5, -1.0, 2.0, 0.3, -0.7]);
        grad_check(&[a.clone()], |_, v| sum_all(sigmoid(v[0])));
        grad_check(&[a.clone()], |_, v| sum_all(tanh(v[0])));
        grad_check(&[a.clone()], |_, v| sum_all(exp(v[0])));
        grad_check(&[a.clone()], |_, v| sum_all(square(v[0])));
        grad_check(&[a.clone()], |_, v| sum_all(softplus(v[0])));
        grad_check(&[a.clone()], |_, v| sum_all(leaky_relu(v[0], 0.1)));
        grad_check(&[a.clone()], |_, v| sum_all(scale(v[0], 2.5)));
        grad_check(&[a], |_, v| sum_all(add_scalar(v[0], -0.3)));
        let pos = arr(&[4], vec![0.5, 1.0, 2.0, 0.3]);
        grad_check(&[pos.clone()], |_, v| sum_all(ln(v[0])));
        grad_check(&[pos.clone()], |_, v| sum_all(sqrt(v[0])));
        grad_check(&[pos], |_, v| sum_all(reciprocal(v[0])));
    }

    #[test]
    fn grad_matmul() {
        let a = arr(&[2, 3], vec![0.5, -1.0, 2.0, 0.3, 1.1, -0.4]);
        let b = arr(&[3, 2], vec![1.5, 0.7, -0.2, 2.0, 0.1, -1.2]);
        grad_check(&[a, b], |_, v| sum_all(matmul(v[0], v[1])));
    }

    #[test]
    fn grad_matmul_weighted_loss() {
        // weight the output so matmul gradients are non-uniform
        let a = arr(&[2, 3], vec![0.5, -1.0, 2.0, 0.3, 1.1, -0.4]);
        let b = arr(&[3, 2], vec![1.5, 0.7, -0.2, 2.0, 0.1, -1.2]);
        grad_check(&[a, b], |_, v| {
            let y = matmul(v[0], v[1]);
            sum_all(square(y))
        });
    }

    #[test]
    fn grad_affine() {
        let x = arr(&[2, 3], vec![0.5, -1.0, 2.0, 0.3, 1.1, -0.4]);
        let w = arr(&[3, 2], vec![1.5, 0.7, -0.2, 2.0, 0.1, -1.2]);
        let b = arr(&[2], vec![0.8, -0.6]);
        grad_check(&[x.clone(), w.clone(), b.clone()], |_, v| {
            sum_all(affine(v[0], v[1], v[2]))
        });
        // Weighted loss so all three gradients are non-uniform.
        grad_check(&[x, w, b], |_, v| sum_all(square(affine(v[0], v[1], v[2]))));
    }

    #[test]
    fn affine_matches_unfused() {
        let t = Tape::new();
        let x = t.leaf(arr(&[3, 2], vec![0.5, -1.0, 2.0, 0.3, 1.1, -0.4]));
        let w = t.leaf(arr(&[2, 2], vec![1.5, 0.7, -0.2, 2.0]));
        let b = t.leaf(arr(&[2], vec![0.8, -0.6]));
        let fused = affine(x, w, b);
        let unfused = add_bias(matmul(x, w), b);
        assert_eq!(fused.value().data(), unfused.value().data());
    }

    #[test]
    fn grad_bias_and_broadcast() {
        let a = arr(&[3, 2], vec![0.5, -1.0, 2.0, 0.3, 1.1, -0.4]);
        let b = arr(&[2], vec![0.8, -0.6]);
        grad_check(&[a, b], |_, v| sum_all(square(add_bias(v[0], v[1]))));
    }

    #[test]
    fn grad_reductions() {
        let a = arr(&[2, 3], vec![0.5, -1.0, 2.0, 0.3, 1.1, -0.4]);
        grad_check(&[a.clone()], |_, v| mean_all(square(v[0])));
        grad_check(&[a], |_, v| sum_all(square(row_sum(v[0]))));
    }

    #[test]
    fn grad_softmax_family() {
        let a = arr(&[2, 4], vec![0.5, -1.0, 2.0, 0.3, 1.1, -0.4, 0.0, 0.9]);
        grad_check(&[a.clone()], |_, v| sum_all(square(softmax_rows(v[0]))));
        grad_check(&[a.clone()], |_, v| sum_all(square(log_softmax_rows(v[0]))));
        grad_check(&[a], |_, v| cross_entropy_mean(v[0], &[2, 1]));
    }

    #[test]
    fn grad_structural_ops() {
        let a = arr(&[2, 3], vec![0.5, -1.0, 2.0, 0.3, 1.1, -0.4]);
        grad_check(&[a.clone()], |_, v| sum_all(square(slice_cols(v[0], 1, 3))));
        grad_check(&[a.clone()], |_, v| sum_all(square(reshape(v[0], &[3, 2]))));
        grad_check(&[a.clone()], |_, v| {
            sum_all(square(pick_per_row(v[0], &[0, 2])))
        });
        grad_check(&[a.clone()], |_, v| {
            sum_all(square(mask_rows(v[0], &[1.0, 0.0])))
        });
        grad_check(&[a], |_, v| sum_all(square(gather_rows(v[0], &[1, 0, 1]))));
    }

    #[test]
    fn grad_gather_rows_blocked() {
        let b0 = arr(&[2, 3], vec![0.5, -1.0, 2.0, 0.3, 1.1, -0.4]);
        let b1 = arr(&[2, 3], vec![1.5, 0.7, -0.2, 2.0, -0.9, 0.6]);
        grad_check(&[b0, b1], |_, v| {
            // rows 1, 2, 1, 0 of the logical 4-row table, with repeats
            let picks = [(0, 1), (1, 0), (0, 1), (0, 0)];
            sum_all(square(gather_rows_blocked(&[v[0], v[1]], &picks)))
        });
    }

    /// The blocked gather must be bit-identical — forward values *and*
    /// scattered gradients — to dense `gather_rows` over the concatenated
    /// table.
    #[test]
    fn gather_rows_blocked_matches_dense_bitwise() {
        let data: Vec<f32> = (0..15).map(|i| (i as f32) * 0.37 - 2.0).collect();
        let idx = [4usize, 0, 3, 4, 2, 1, 4];

        let t1 = Tape::new();
        let dense = t1.leaf(arr(&[5, 3], data.clone()));
        let yd = gather_rows(dense, &idx);
        let gd = t1.backward(sum_all(square(yd)));

        let t2 = Tape::new();
        let b0 = t2.leaf(arr(&[2, 3], data[..6].to_vec()));
        let b1 = t2.leaf(arr(&[2, 3], data[6..12].to_vec()));
        let b2 = t2.leaf(arr(&[1, 3], data[12..].to_vec()));
        let picks: Vec<(usize, usize)> = idx.iter().map(|&i| (i / 2, i % 2)).collect();
        let yb = gather_rows_blocked(&[b0, b1, b2], &picks);
        assert_eq!(
            yd.value()
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            yb.value()
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
        let gb = t2.backward(sum_all(square(yb)));
        let dense_grad = gd.expect(dense);
        let blocked: Vec<u32> = gb
            .expect(b0)
            .data()
            .iter()
            .chain(gb.expect(b1).data().iter())
            .chain(gb.expect(b2).data().iter())
            .map(|v| v.to_bits())
            .collect();
        let dense_bits: Vec<u32> = dense_grad.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(dense_bits, blocked);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let t = Tape::new();
        let a = t.leaf(arr(&[2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]));
        let s = softmax_rows(a);
        let v = s.value();
        for r in 0..2 {
            let sum: f32 = v.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn cross_entropy_matches_manual() {
        let t = Tape::new();
        let logits = t.leaf(arr(&[1, 3], vec![1.0, 2.0, 3.0]));
        let ce = cross_entropy_mean(logits, &[2]);
        // -log softmax(3 | [1,2,3])
        let z: f32 = (1f32.exp() + 2f32.exp() + 3f32.exp()).ln();
        let want = z - 3.0;
        assert!((ce.scalar_value() - want).abs() < 1e-5);
    }

    #[test]
    fn gather_is_lookup() {
        let t = Tape::new();
        let table = t.leaf(arr(&[3, 2], vec![1., 2., 3., 4., 5., 6.]));
        let g = gather_rows(table, &[2, 0]);
        assert_eq!(g.value().data(), &[5., 6., 1., 2.]);
    }

    #[test]
    fn mask_rows_zeroes() {
        let t = Tape::new();
        let a = t.leaf(arr(&[2, 2], vec![1., 2., 3., 4.]));
        let m = mask_rows(a, &[1.0, 0.0]);
        assert_eq!(m.value().data(), &[1., 2., 0., 0.]);
    }
}
