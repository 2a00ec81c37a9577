//! Gated Recurrent Units (Cho et al. / Chung et al. \[38\] in the paper).
//!
//! DeepST squeezes the past traveled route `r_{1:i}` into its representation
//! with a (stacked) GRU (§IV-B):
//!
//! ```text
//! h_i = 0                    (i = 1)
//! h_i = GRU(h_{i-1}, r_{i-1}) (i ≥ 2)
//! ```

use rand::rngs::StdRng;

use st_tensor::{infer, init, ops, Array, Binder, Param, ScratchArena, Var};

use crate::module::Module;

/// A single GRU cell.
///
/// Gate equations (standard formulation):
/// ```text
/// r  = σ(x·W_r + h·U_r + b_r)
/// z  = σ(x·W_z + h·U_z + b_z)
/// n  = tanh(x·W_n + r ⊙ (h·U_n) + b_n)
/// h' = (1 − z) ⊙ n + z ⊙ h
/// ```
pub struct GruCell {
    name: String,
    /// Input-to-hidden weights, `[in, 3·hidden]` laid out `[r | z | n]`.
    wx: Param,
    /// Hidden-to-hidden weights, `[hidden, 3·hidden]`.
    wh: Param,
    /// Gate biases, `[3·hidden]`.
    b: Param,
    in_dim: usize,
    hidden: usize,
}

impl GruCell {
    /// Xavier-initialized GRU cell.
    pub fn new(name: &str, in_dim: usize, hidden: usize, rng: &mut StdRng) -> Self {
        assert!(
            in_dim > 0 && hidden > 0,
            "GruCell '{name}': dims must be positive, got in_dim={in_dim}, hidden={hidden}"
        );
        Self {
            name: name.to_string(),
            wx: Param::new(format!("{name}.wx"), init::xavier(in_dim, 3 * hidden, rng)),
            wh: Param::new(format!("{name}.wh"), init::xavier(hidden, 3 * hidden, rng)),
            b: Param::new(format!("{name}.b"), Array::zeros(&[3 * hidden])),
            in_dim,
            hidden,
        }
    }

    /// Hidden state size.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input size.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// One step: `x [n, in]`, `h [n, hidden]` → new hidden `[n, hidden]`.
    ///
    /// Rejects mis-shaped inputs with a diagnostic naming this cell, instead
    /// of a shape panic deep inside the GEMM kernel.
    pub fn step<'t, 'p>(&'p self, bind: &Binder<'t, 'p>, x: Var<'t>, h: Var<'t>) -> Var<'t> {
        let xs = x.value().shape().to_vec();
        let hs = h.value().shape().to_vec();
        assert!(
            xs.len() == 2 && xs[1] == self.in_dim,
            "GruCell '{}': input shape {:?} incompatible with expected [n, {}]",
            self.name,
            xs,
            self.in_dim
        );
        assert!(
            hs.len() == 2 && hs[1] == self.hidden && hs[0] == xs[0],
            "GruCell '{}': state shape {:?} incompatible with expected [{}, {}]",
            self.name,
            hs,
            xs[0],
            self.hidden
        );
        let hsz = self.hidden;
        let wx = bind.var(&self.wx);
        let wh = bind.var(&self.wh);
        let b = bind.var(&self.b);
        let gx = ops::affine(x, wx, b); // [n, 3h]
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

    /// Tape-free step `x [n, in]`, `h [n, hidden]` → new hidden, sharing
    /// weights with [`GruCell::step`] and matching it bit-for-bit. The `n`
    /// axis batches independent sequences (e.g. live beam candidates), so
    /// one call steps the whole beam through a single pair of GEMMs.
    pub fn infer_step(&self, arena: &mut ScratchArena, x: &Array, h: &Array) -> Array {
        assert!(
            x.ndim() == 2 && x.shape()[1] == self.in_dim,
            "GruCell '{}': input shape {:?} incompatible with expected [n, {}]",
            self.name,
            x.shape(),
            self.in_dim
        );
        assert!(
            h.ndim() == 2 && h.shape()[1] == self.hidden && h.shape()[0] == x.shape()[0],
            "GruCell '{}': state shape {:?} incompatible with expected [{}, {}]",
            self.name,
            h.shape(),
            x.shape()[0],
            self.hidden
        );
        let hsz = self.hidden;
        let gx = infer::affine(arena, x, &self.wx.value(), &self.b.value()); // [n, 3h]
        let gh = infer::matmul(arena, h, &self.wh.value()); // [n, 3h]
        let rows = x.shape()[0];
        let mut out = arena.alloc(&[rows, hsz]);
        for r in 0..rows {
            let gxr = gx.row(r);
            let ghr = gh.row(r);
            let hr = h.row(r);
            let orow = out.row_mut(r);
            for j in 0..hsz {
                // Same per-element arithmetic (and rounding order) as the
                // taped slice/add/mul/activation chain in `step`.
                let rg = st_tensor::mathfn::sigmoid(gxr[j] + ghr[j]);
                let z = st_tensor::mathfn::sigmoid(gxr[hsz + j] + ghr[hsz + j]);
                let n = st_tensor::mathfn::tanh(gxr[2 * hsz + j] + rg * ghr[2 * hsz + j]);
                orow[j] = (n - z * n) + (z * hr[j]);
            }
        }
        arena.recycle(gx);
        arena.recycle(gh);
        out
    }
}

impl Module for GruCell {
    fn params(&self) -> Vec<&Param> {
        vec![&self.wx, &self.wh, &self.b]
    }
}

/// A stack of GRU cells; layer `k` feeds layer `k+1`.
pub struct Gru {
    cells: Vec<GruCell>,
}

impl Gru {
    /// A stacked GRU with `layers` cells: the first maps `in_dim → hidden`,
    /// the rest `hidden → hidden`.
    pub fn new(name: &str, in_dim: usize, hidden: usize, layers: usize, rng: &mut StdRng) -> Self {
        assert!(layers >= 1);
        let cells = (0..layers)
            .map(|k| {
                let d = if k == 0 { in_dim } else { hidden };
                GruCell::new(&format!("{name}.{k}"), d, hidden, rng)
            })
            .collect();
        Self { cells }
    }

    /// Number of stacked layers.
    pub fn layers(&self) -> usize {
        self.cells.len()
    }

    /// Hidden size.
    pub fn hidden(&self) -> usize {
        self.cells[0].hidden()
    }

    /// Fresh zero state for a batch of `n` sequences: one `[n, hidden]` per layer.
    pub fn zero_state<'t>(&self, bind: &Binder<'t, '_>, n: usize) -> Vec<Var<'t>> {
        self.cells
            .iter()
            .map(|c| bind.input(Array::zeros(&[n, c.hidden()])))
            .collect()
    }

    /// One step through the stack. `state` holds one hidden per layer and is
    /// replaced with the new state; the top layer's output is returned.
    pub fn step<'t, 'p>(
        &'p self,
        bind: &Binder<'t, 'p>,
        x: Var<'t>,
        state: &mut Vec<Var<'t>>,
    ) -> Var<'t> {
        assert_eq!(state.len(), self.cells.len(), "state/layer count mismatch");
        let mut inp = x;
        for (cell, h) in self.cells.iter().zip(state.iter_mut()) {
            let new_h = cell.step(bind, inp, *h);
            *h = new_h;
            inp = new_h;
        }
        inp
    }

    /// Keep only the state rows at `keep` (positions in the current batch),
    /// in that order, on every layer — the packed training loop's drop of
    /// finished sequences (see [`RunningRows`]).
    pub fn gather_state<'t>(&self, state: &mut [Var<'t>], keep: &[usize]) {
        assert_eq!(state.len(), self.cells.len(), "state/layer count mismatch");
        for h in state {
            *h = ops::gather_rows(*h, keep);
        }
    }

    /// Fresh zero state for `n` batched sequences, drawn from `arena`:
    /// one `[n, hidden]` array per layer.
    pub fn infer_zero_state(&self, arena: &mut ScratchArena, n: usize) -> Vec<Array> {
        self.cells
            .iter()
            .map(|c| arena.alloc(&[n, c.hidden()]))
            .collect()
    }

    /// Tape-free step through the stack, matching [`Gru::step`]
    /// bit-for-bit. `state` holds one `[n, hidden]` per layer and is
    /// replaced in place (old arrays are recycled into `arena`); the top
    /// layer's new state is the step output — read it via `state.last()`.
    pub fn infer_step(&self, arena: &mut ScratchArena, x: &Array, state: &mut [Array]) {
        assert_eq!(state.len(), self.cells.len(), "state/layer count mismatch");
        for (k, cell) in self.cells.iter().enumerate() {
            let new_h = if k == 0 {
                cell.infer_step(arena, x, &state[0])
            } else {
                let (prev, rest) = state.split_at(k);
                cell.infer_step(arena, &prev[k - 1], &rest[0])
            };
            arena.recycle(std::mem::replace(&mut state[k], new_h));
        }
    }
}

impl Module for Gru {
    fn params(&self) -> Vec<&Param> {
        self.cells.iter().flat_map(|c| c.params()).collect()
    }
}

/// The sequences of a training batch that are still running, for a
/// recurrent loss loop that steps only them (packed sequences).
///
/// Before each step the loop calls [`RunningRows::retain`] and, when a
/// sequence has ended, gathers the returned positions out of every per-row
/// tensor it carries ([`Gru::gather_state`], `ops::gather_rows`). Rows keep
/// their batch order, so each step sees the padded batch's rows with the
/// finished ones removed: per-row results are unchanged, and reductions
/// over rows lose only the finished rows' zero-gradient terms.
#[derive(Debug, Clone)]
pub struct RunningRows {
    rows: Vec<usize>,
}

impl RunningRows {
    /// All `n` rows of a batch, running.
    pub fn all(n: usize) -> Self {
        Self {
            rows: (0..n).collect(),
        }
    }

    /// Batch indices of the running rows, in batch order.
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// Stop every row whose batch index fails `running`. Returns the
    /// positions (in the previous running set) of the rows that remain,
    /// or `None` when no row stopped.
    pub fn retain(&mut self, mut running: impl FnMut(usize) -> bool) -> Option<Vec<usize>> {
        let keep: Vec<usize> = (0..self.rows.len())
            .filter(|&p| running(self.rows[p]))
            .collect();
        if keep.len() == self.rows.len() {
            return None;
        }
        self.rows = keep.iter().map(|&p| self.rows[p]).collect();
        Some(keep)
    }
}

/// A [`GruCell`] with its weights packed once for the decode hot loop.
///
/// The fused step runs two pre-packed GEMMs (`x·Wx`, `h·Wh`) and the
/// [`infer::gru_gates_fused`] epilogue, which activates the gates with the
/// crate-owned polynomial sigmoid/tanh and rewrites the hidden state in
/// place — no per-call weight packing, no intermediate gate buffers, and
/// bit-identical output to [`GruCell::infer_step`] / [`GruCell::step`].
pub struct PackedGruCell {
    wx: infer::PackedWeights,
    wh: infer::PackedWeights,
    b: Vec<f32>,
    in_dim: usize,
    hidden: usize,
}

impl PackedGruCell {
    /// Pack a cell's current weights.
    pub fn pack(cell: &GruCell) -> Self {
        Self {
            wx: infer::PackedWeights::pack(&cell.wx.value()),
            wh: infer::PackedWeights::pack(&cell.wh.value()),
            b: cell.b.value().data().to_vec(),
            in_dim: cell.in_dim,
            hidden: cell.hidden,
        }
    }

    /// Hidden state size.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Fused tape-free step: `x [n, in]`, `h [n, hidden]` updated in place.
    pub fn infer_step_fused(&self, arena: &mut ScratchArena, x: &Array, h: &mut Array) {
        assert!(
            x.ndim() == 2 && x.shape()[1] == self.in_dim,
            "PackedGruCell: input shape {:?} incompatible with [n, {}]",
            x.shape(),
            self.in_dim
        );
        let mut gx = self.gate_x(arena, x); // [n, 3h], bias-free
        self.infer_step_fused_pregx(arena, &mut gx, h);
        arena.recycle(gx);
    }

    /// The input half of the gate pre-activations alone: `x·Wx` (bias-free,
    /// `[n, 3·hidden]`). Split out so callers whose `x` rows depend only on
    /// a token (an embedding lookup) can memoize rows across steps.
    pub fn gate_x(&self, arena: &mut ScratchArena, x: &Array) -> Array {
        infer::matmul_packed(arena, x, &self.wx)
    }

    /// [`PackedGruCell::infer_step_fused`] with `gx = x·Wx` already computed
    /// (by [`PackedGruCell::gate_x`], possibly row-cached). `gx` is consumed
    /// as scratch. Bit-identical to the unsplit step.
    pub fn infer_step_fused_pregx(&self, arena: &mut ScratchArena, gx: &mut Array, h: &mut Array) {
        assert!(
            gx.ndim() == 2 && gx.shape()[1] == 3 * self.hidden,
            "PackedGruCell: gx shape {:?} incompatible with [n, {}]",
            gx.shape(),
            3 * self.hidden
        );
        assert!(
            h.shape() == [gx.shape()[0], self.hidden],
            "PackedGruCell: state shape {:?} incompatible with [{}, {}]",
            h.shape(),
            gx.shape()[0],
            self.hidden
        );
        let gh = infer::matmul_packed(arena, h, &self.wh); // [n, 3h]
        infer::gru_gates_fused(self.hidden, gx, &gh, &self.b, h);
        arena.recycle(gh);
    }
}

/// A [`Gru`] stack packed once per inference session ([`PackedGruCell`]).
pub struct PackedGru {
    cells: Vec<PackedGruCell>,
}

impl PackedGru {
    /// Pack every cell of a stack.
    pub fn pack(gru: &Gru) -> Self {
        Self {
            cells: gru.cells.iter().map(PackedGruCell::pack).collect(),
        }
    }

    /// Number of stacked layers.
    pub fn layers(&self) -> usize {
        self.cells.len()
    }

    /// Hidden size.
    pub fn hidden(&self) -> usize {
        self.cells[0].hidden
    }

    /// Fused step through the stack with the *bottom layer's* `x·Wx`
    /// already computed ([`PackedGru::gate_x0`], possibly row-cached — the
    /// bottom input is the only one that depends purely on the token),
    /// updating each layer's `[n, hidden]` state in place; bit-identical
    /// to [`Gru::infer_step`]. `gx0` is consumed as scratch. The top
    /// layer's state (`state.last()`) is the step output.
    pub fn infer_step_fused_pregx(
        &self,
        arena: &mut ScratchArena,
        gx0: &mut Array,
        state: &mut [Array],
    ) {
        assert_eq!(state.len(), self.cells.len(), "state/layer count mismatch");
        for (k, cell) in self.cells.iter().enumerate() {
            if k == 0 {
                cell.infer_step_fused_pregx(arena, gx0, &mut state[0]);
            } else {
                // Layer k's input is layer k−1's state, already updated in
                // place this step — exactly the unfused chaining order.
                let (prev, rest) = state.split_at_mut(k);
                cell.infer_step_fused(arena, &prev[k - 1], &mut rest[0]);
            }
        }
    }

    /// Bottom-layer `x·Wx` for [`PackedGru::infer_step_fused_pregx`].
    pub fn gate_x0(&self, arena: &mut ScratchArena, x: &Array) -> Array {
        self.cells[0].gate_x(arena, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use crate::module::Activation;
    use proptest::prelude::*;
    use st_tensor::optim::{Adam, Optimizer};
    use st_tensor::Tape;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The three GRU step implementations — taped `step`, unfused
        /// `infer_step`, fused packed `infer_step_fused` — are bit-identical
        /// over random weights, inputs, states, and batch sizes.
        #[test]
        fn fused_unfused_taped_steps_are_bit_identical(
            seed in 0u64..500,
            m in 1usize..=8,
        ) {
            let mut rng = init::rng(seed);
            let cell = GruCell::new("g", 5, 7, &mut rng);
            let x = init::randn(&[m, 5], 1.0, &mut rng);
            let h = init::randn(&[m, 7], 1.0, &mut rng);

            let tape = Tape::new();
            let b = Binder::new(&tape);
            let taped = cell
                .step(&b, b.input(x.clone()), b.input(h.clone()))
                .value()
                .clone();
            drop(tape);

            let mut arena = ScratchArena::new();
            let unfused = cell.infer_step(&mut arena, &x, &h);
            prop_assert_eq!(taped.data(), unfused.data());

            let packed = PackedGruCell::pack(&cell);
            let mut fused = h.clone();
            packed.infer_step_fused(&mut arena, &x, &mut fused);
            prop_assert_eq!(unfused.data(), fused.data());
        }
    }

    #[test]
    fn packed_stack_matches_unfused_stack_bitwise() {
        let mut rng = init::rng(11);
        let gru = Gru::new("g", 4, 6, 2, &mut rng);
        let packed = PackedGru::pack(&gru);
        assert_eq!(packed.layers(), 2);
        assert_eq!(packed.hidden(), 6);
        let mut arena = ScratchArena::new();
        let mut state_a = gru.infer_zero_state(&mut arena, 3);
        let mut state_b = gru.infer_zero_state(&mut arena, 3);
        for step in 0..5 {
            let x = init::randn(&[3, 4], 1.0, &mut rng);
            gru.infer_step(&mut arena, &x, &mut state_a);
            let mut gx0 = packed.gate_x0(&mut arena, &x);
            packed.infer_step_fused_pregx(&mut arena, &mut gx0, &mut state_b);
            for (a, b) in state_a.iter().zip(&state_b) {
                assert_eq!(a.data(), b.data(), "step {step}");
            }
        }
    }

    #[test]
    fn step_shapes() {
        let mut rng = init::rng(0);
        let cell = GruCell::new("g", 3, 5, &mut rng);
        let tape = Tape::new();
        let b = Binder::new(&tape);
        let x = b.input(Array::zeros(&[2, 3]));
        let h = b.input(Array::zeros(&[2, 5]));
        let h2 = cell.step(&b, x, h);
        assert_eq!(h2.value().shape(), &[2, 5]);
    }

    #[test]
    fn zero_input_zero_state_stays_bounded() {
        let mut rng = init::rng(1);
        let cell = GruCell::new("g", 2, 4, &mut rng);
        let tape = Tape::new();
        let b = Binder::new(&tape);
        let x = b.input(Array::zeros(&[1, 2]));
        let mut h = b.input(Array::zeros(&[1, 4]));
        for _ in 0..50 {
            h = cell.step(&b, x, h);
        }
        // tanh-gated updates keep the state in (-1, 1)
        assert!(h.value().max() < 1.0 && h.value().min() > -1.0);
        assert!(h.value().all_finite());
    }

    #[test]
    fn stacked_gru_shapes_and_params() {
        let mut rng = init::rng(2);
        let gru = Gru::new("g", 3, 6, 2, &mut rng);
        assert_eq!(gru.layers(), 2);
        assert_eq!(gru.params().len(), 6);
        let tape = Tape::new();
        let b = Binder::new(&tape);
        let mut state = gru.zero_state(&b, 4);
        let x = b.input(Array::zeros(&[4, 3]));
        let out = gru.step(&b, x, &mut state);
        assert_eq!(out.value().shape(), &[4, 6]);
        assert_eq!(state.len(), 2);
    }

    /// The GRU must be able to learn a simple long-range dependency that a
    /// memoryless model cannot: predict the *first* token of the sequence
    /// after seeing 6 steps.
    #[test]
    fn gru_learns_to_remember_first_token() {
        let mut rng = init::rng(7);
        let gru = Gru::new("g", 2, 8, 1, &mut rng);
        let head = Linear::new("head", 8, 2, &mut rng);
        let mut opt = Adam::new(0.05);
        // dataset: 2 sequences differing only in the first one-hot token
        let seqs: [Vec<[f32; 2]>; 2] = [
            vec![[1., 0.], [0., 1.], [0., 1.], [0., 1.], [0., 1.], [0., 1.]],
            vec![[0., 1.], [0., 1.], [0., 1.], [0., 1.], [0., 1.], [0., 1.]],
        ];
        let mut last = f32::INFINITY;
        for _ in 0..250 {
            let tape = Tape::new();
            let b = Binder::new(&tape);
            let mut state = gru.zero_state(&b, 2);
            for (s0, s1) in seqs[0].iter().zip(&seqs[1]) {
                let x = b.input(Array::from_vec(&[2, 2], vec![s0[0], s0[1], s1[0], s1[1]]));
                gru.step(&b, x, &mut state);
            }
            let logits = head.forward(&b, state[0]);
            let loss = ops::cross_entropy_mean(logits, &[0, 1]);
            last = loss.scalar_value();
            let grads = tape.backward(loss);
            b.accumulate_grads(&grads);
            let mut params = gru.params();
            params.extend(head.params());
            opt.step(&params);
        }
        assert!(last < 0.1, "GRU failed to learn first-token recall: {last}");
        let _ = Activation::Identity;
    }

    #[test]
    fn running_rows_keep_batch_order_and_report_positions() {
        let lens = [3usize, 1, 4, 2, 4];
        let mut running = RunningRows::all(lens.len());
        let mut kept = Vec::new();
        for i in 0..3 {
            kept.push(running.retain(|r| i + 1 < lens[r]));
            assert!(running.rows().iter().all(|&r| i + 1 < lens[r]));
        }
        // Step 0 drops row 1 (position 1), step 1 drops row 3 (now at
        // position 2), step 2 drops row 0 (position 0).
        assert_eq!(
            kept,
            [
                Some(vec![0, 2, 3, 4]),
                Some(vec![0, 1, 3]),
                Some(vec![1, 2])
            ]
        );
        assert_eq!(running.rows(), &[2, 4]);
        assert_eq!(running.retain(|_| true), None);
    }
}
