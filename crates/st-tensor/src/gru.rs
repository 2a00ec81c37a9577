//! The GRU layer-step of the route encoder (§IV-B) as one tape op.
//!
//! The gate graph of one layer-step — two products, six column slices,
//! two sigmoids, a tanh and seven elementwise adds, subs and muls —
//! composes out of [`crate::ops`] as 19 nodes. [`gru_step`] records one:
//! its forward is the decoder's fused step (the packed GEMMs and the
//! [`crate::infer::gru_gates_fused`] epilogue) and its backward is written
//! out by hand. It replays the composed graph's reverse sweep element by
//! element, with each local derivative's formula and association, then
//! runs the composed graph's products in its order. Loss and gradients
//! keep the composed graph's bits; st-nn's tests keep the composed cell as
//! the oracle.

use crate::array::Array;
use crate::gemm::{gemm_at, gemm_prepacked};
use crate::infer;
use crate::tape::{OpMeta, Var};

/// One GRU layer-step `h' = GRU(x, h)` over `x [m, in]`, `h [m, H]`,
/// `wx [in, 3H]`, `wh [H, 3H]` and `b [3H]`, gates laid out `[r | z | n]`:
///
/// ```text
/// r  = σ((x·Wx + b)_r + (h·Wh)_r)
/// z  = σ((x·Wx + b)_z + (h·Wh)_z)
/// n  = tanh((x·Wx + b)_n + r ⊙ (h·Wh)_n)
/// h' = (n − z ⊙ n) + z ⊙ h
/// ```
///
/// `wx` and `wh` are packed once per tape ([`crate::Tape::reset`] drops
/// the packings), so the steps of a pass that share bound weights share
/// one packing for the forward products and one for the backward ones.
pub fn gru_step<'t>(x: Var<'t>, h: Var<'t>, wx: Var<'t>, wh: Var<'t>, b: Var<'t>) -> Var<'t> {
    let tape = x.tape();
    for v in [h, wx, wh, b] {
        assert!(std::ptr::eq(tape, v.tape()), "vars from different tapes");
    }
    let (xv, hv, bv) = (x.value(), h.value(), b.value());
    let (wxv, whv) = (wx.value(), wh.value());
    assert!(
        hv.ndim() == 2 && whv.shape() == [hv.cols(), 3 * hv.cols()],
        "gru_step: state {:?} does not fit Wh {:?}",
        hv.shape(),
        whv.shape()
    );
    let (m, hidden) = (hv.rows(), hv.cols());
    assert!(
        xv.ndim() == 2 && xv.rows() == m && wxv.shape() == [xv.cols(), 3 * hidden],
        "gru_step: input {:?} does not fit state {:?} and Wx {:?}",
        xv.shape(),
        hv.shape(),
        wxv.shape()
    );
    assert_eq!(bv.shape(), [3 * hidden], "gru_step: bias is not [3H]");
    let (pwx, pwh) = (tape.packing(wx), tape.packing(wh));

    // Forward: the decoder's step. `gates` ends as [r | z | n].
    let mut gates = Array::zeros(&[m, 3 * hidden]);
    gemm_prepacked(m, xv.data(), &pwx.b, gates.data_mut(), false);
    let mut gh = Array::zeros(&[m, 3 * hidden]);
    gemm_prepacked(m, hv.data(), &pwh.b, gh.data_mut(), false);
    let mut out = (*hv).clone();
    infer::gru_gates_fused(hidden, &mut gates, &gh, bv.data(), &mut out);

    let saved = (gates.len() + gh.len()) * std::mem::size_of::<f32>();
    let ids = [x.id(), h.id(), wx.id(), wh.id(), b.id()];
    tape.push_saving(
        out,
        saved,
        OpMeta::new("gru_step", ids.to_vec()),
        Some(Box::new(move |g, sink| {
            let [xid, hid, wxid, whid, bid] = ids;
            infer::with_op_scratch(|arena| {
                let mut dgx = arena.alloc_uninit(&[m, 3 * hidden]);
                let mut dgh = arena.alloc_uninit(&[m, 3 * hidden]);
                gate_grads(
                    hidden,
                    g.data(),
                    gates.data(),
                    gh.data(),
                    hv.data(),
                    sink.accum(hid).data_mut(),
                    dgx.data_mut(),
                    dgh.data_mut(),
                );
                // The products, in the composed graph's order: `h·Wh`'s
                // node runs before `affine(x, Wx, b)`'s.
                let (k_in, k_h) = (xv.cols(), hidden);
                gemm_prepacked(m, dgh.data(), &pwh.bt, sink.accum(hid).data_mut(), true);
                gemm_at(
                    k_h,
                    m,
                    3 * hidden,
                    hv.data(),
                    dgh.data(),
                    sink.accum(whid).data_mut(),
                    true,
                );
                gemm_prepacked(m, dgx.data(), &pwx.bt, sink.accum(xid).data_mut(), true);
                gemm_at(
                    k_in,
                    m,
                    3 * hidden,
                    xv.data(),
                    dgx.data(),
                    sink.accum(wxid).data_mut(),
                    true,
                );
                let db = sink.accum(bid).data_mut();
                for row in dgx.data().chunks_exact(3 * hidden) {
                    for (o, &v) in db.iter_mut().zip(row) {
                        *o += v;
                    }
                }
                arena.recycle(dgh);
                arena.recycle(dgx);
            });
        })),
    )
}

crate::dispatch::tiered! {
    /// The elementwise half of [`gru_step`]'s backward: given `g = ∂L/∂h'`,
    /// add `∂L/∂h`'s direct term `z ⊙ g` into `dh` and write the gate
    /// pre-activation gradients `dgx` (of `x·Wx + b`) and `dgh` (of `h·Wh`).
    ///
    /// Each line replays one node of the composed graph's reverse sweep, in
    /// sweep order: a node's gradient buffer starts at +0.0, so its first
    /// contribution `v` lands as `0 + v` (−0.0 becomes +0.0); a binary node
    /// passes `g · 1`, `g · −1` or `g · other` to its operands; the sigmoid's
    /// local derivative is `g · (y · (1 − y))` and the tanh's `g · (1 − y · y)`.
    fn gate_grads / gate_grads_on(
        hidden: usize,
        g: &[f32],
        gates: &[f32],
        gh: &[f32],
        h: &[f32],
        dh: &mut [f32],
        dgx: &mut [f32],
        dgh: &mut [f32],
    ) => gate_grads_impl;
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn gate_grads_impl(
    hidden: usize,
    g: &[f32],
    gates: &[f32],
    gh: &[f32],
    h: &[f32],
    dh: &mut [f32],
    dgx: &mut [f32],
    dgh: &mut [f32],
) {
    let rows = g
        .chunks_exact(hidden)
        .zip(gates.chunks_exact(3 * hidden))
        .zip(gh.chunks_exact(3 * hidden))
        .zip(h.chunks_exact(hidden))
        .zip(dh.chunks_exact_mut(hidden))
        .zip(
            dgx.chunks_exact_mut(3 * hidden)
                .zip(dgh.chunks_exact_mut(3 * hidden)),
        );
    for (((((g, gates), gh), h), dh), (dgx, dgh)) in rows {
        let (r, zn) = gates.split_at(hidden);
        let (z, n) = zn.split_at(hidden);
        let gh_n = &gh[2 * hidden..];
        for j in 0..hidden {
            // h' = add(sb, m3): both operands get g · 1.
            let d_sb = 0.0 + g[j] * 1.0;
            let d_m3 = 0.0 + g[j] * 1.0;
            // m3 = mul(z, h).
            let mut d_z = 0.0 + d_m3 * h[j];
            dh[j] += d_m3 * z[j];
            // sb = sub(n, m2): n gets d_sb · 1 and m2 gets d_sb · −1,
            // which is the negation bit for bit.
            let mut d_n = 0.0 + d_sb * 1.0;
            let d_m2 = 0.0 + -d_sb;
            // m2 = mul(z, n).
            d_z += d_m2 * n[j];
            d_n += d_m2 * z[j];
            // n = tanh(a3); a3 = add(s5, m1); m1 = mul(r, s6).
            let d_a3 = 0.0 + d_n * (1.0 - n[j] * n[j]);
            let d_m1 = 0.0 + d_a3 * 1.0;
            let d_r = 0.0 + d_m1 * gh_n[j];
            let d_s6 = 0.0 + d_m1 * r[j];
            dgh[2 * hidden + j] = 0.0 + d_s6;
            dgx[2 * hidden + j] = 0.0 + (0.0 + d_a3 * 1.0);
            // z = σ(a2); a2 = add(s3, s4).
            let d_a2 = 0.0 + d_z * (z[j] * (1.0 - z[j]));
            dgh[hidden + j] = 0.0 + (0.0 + d_a2 * 1.0);
            dgx[hidden + j] = 0.0 + (0.0 + d_a2 * 1.0);
            // r = σ(a1); a1 = add(s1, s2).
            let d_a1 = 0.0 + d_r * (r[j] * (1.0 - r[j]));
            dgh[j] = 0.0 + (0.0 + d_a1 * 1.0);
            dgx[j] = 0.0 + (0.0 + d_a1 * 1.0);
        }
    }
}
