//! The GRU step composed out of taped ops, and its unfused tape-free twin:
//! the oracles of the fused step.
//!
//! Training records a GRU layer-step as one `gru_step` node, and decoding
//! runs the same packed GEMMs and gate epilogue. This file keeps the
//! step they replaced: the 19-node gate graph (`affine`, the `h·Wh`
//! matmul, six column slices, four adds, three muls, a sub, two sigmoids
//! and a tanh) and the tape-free step with unpacked products. The fused
//! op's value and every gradient must match the composed graph bit for
//! bit. st-nn's tests include it as a module, and so do the st-core and
//! st-baselines unit tests that run whole models on it (by `#[path]`).

#![allow(dead_code)]

use st_tensor::{infer, mathfn, ops, Array, Binder, Param, ScratchArena, Var};

/// One composed layer-step with the cell weights `w = [Wx, Wh, b]` (the
/// order `GruCell::params` lists them), binding them in that order.
pub fn cell_step<'t, 'p>(b: &Binder<'t, 'p>, w: &[&'p Param], x: Var<'t>, h: Var<'t>) -> Var<'t> {
    let hsz = w[1].value().shape()[0];
    let wx = b.var(w[0]);
    let wh = b.var(w[1]);
    let bias = b.var(w[2]);
    let gx = ops::affine(x, wx, bias); // [n, 3h]
    let gh = ops::matmul(h, wh); // [n, 3h]
    let r = ops::sigmoid(ops::add(
        ops::slice_cols(gx, 0, hsz),
        ops::slice_cols(gh, 0, hsz),
    ));
    let z = ops::sigmoid(ops::add(
        ops::slice_cols(gx, hsz, 2 * hsz),
        ops::slice_cols(gh, hsz, 2 * hsz),
    ));
    let n = ops::tanh(ops::add(
        ops::slice_cols(gx, 2 * hsz, 3 * hsz),
        ops::mul(r, ops::slice_cols(gh, 2 * hsz, 3 * hsz)),
    ));
    // h' = (1 − z)⊙n + z⊙h = n − z⊙n + z⊙h
    ops::add(ops::sub(n, ops::mul(z, n)), ops::mul(z, h))
}

/// One composed step through a stack whose parameters are `params`, three
/// per layer as `Gru::params` lists them; `state` is replaced with the new
/// state and the top layer's output is returned.
pub fn stack_step<'t, 'p>(
    b: &Binder<'t, 'p>,
    params: &[&'p Param],
    x: Var<'t>,
    state: &mut [Var<'t>],
) -> Var<'t> {
    assert_eq!(params.len(), 3 * state.len(), "state/layer count mismatch");
    let mut inp = x;
    for (w, h) in params.chunks(3).zip(state.iter_mut()) {
        *h = cell_step(b, w, inp, *h);
        inp = *h;
    }
    inp
}

/// The tape-free layer-step with unpacked products and the gate loop
/// written out, matching [`cell_step`]'s value bit for bit.
pub fn infer_cell_step(arena: &mut ScratchArena, w: &[&Param], x: &Array, h: &Array) -> Array {
    let hsz = w[1].value().shape()[0];
    let gx = infer::affine(arena, x, &w[0].value(), &w[2].value()); // [n, 3h]
    let gh = infer::matmul(arena, h, &w[1].value()); // [n, 3h]
    let rows = x.shape()[0];
    let mut out = arena.alloc(&[rows, hsz]);
    for r in 0..rows {
        let (gxr, ghr, hr) = (gx.row(r), gh.row(r), h.row(r));
        let orow = out.row_mut(r);
        for j in 0..hsz {
            // The composed graph's per-element arithmetic and order.
            let rg = mathfn::sigmoid(gxr[j] + ghr[j]);
            let z = mathfn::sigmoid(gxr[hsz + j] + ghr[hsz + j]);
            let n = mathfn::tanh(gxr[2 * hsz + j] + rg * ghr[2 * hsz + j]);
            orow[j] = (n - z * n) + (z * hr[j]);
        }
    }
    arena.recycle(gx);
    arena.recycle(gh);
    out
}

/// [`infer_cell_step`] through a stack: `state` holds one `[n, hidden]`
/// per layer and is replaced in place (old arrays recycled into `arena`).
pub fn infer_stack_step(
    arena: &mut ScratchArena,
    params: &[&Param],
    x: &Array,
    state: &mut [Array],
) {
    assert_eq!(params.len(), 3 * state.len(), "state/layer count mismatch");
    for (k, w) in params.chunks(3).enumerate() {
        let new_h = if k == 0 {
            infer_cell_step(arena, w, x, &state[0])
        } else {
            infer_cell_step(arena, w, &state[k - 1], &state[k])
        };
        arena.recycle(std::mem::replace(&mut state[k], new_h));
    }
}
