//! The fused GRU step against the composed cell it replaced.
//!
//! `GruCell::step` records one `gru_step` node per layer-step. Its value
//! and every gradient it sends back — into the input, the state and the
//! three weights — must be bit-identical to the 19-node gate graph
//! composed out of taped ops (`common/composed_gru.rs`), and decoding's
//! packed step must give the same values. The cases cover 1–16 rows (the
//! outer-product and dot-product paths of one- and two-row products as
//! well as the packed kernel), ragged sequence lengths, one and two
//! layers, and inputs with exact zeros.

#[path = "common/composed_gru.rs"]
mod composed_gru;

use proptest::prelude::*;

use st_nn::{Gru, GruCell, Module, PackedGru, PackedGruCell, RunningRows};
use st_tensor::{init, ops, Array, Binder, ScratchArena, Tape, Var};

fn bits(a: &Array) -> Vec<u32> {
    a.data().iter().map(|v| v.to_bits()).collect()
}

/// Random values in `[-2, 2)` with about one in five set to exactly ±0.
fn values(shape: &[usize], rng: &mut rand::rngs::StdRng) -> Array {
    use rand::Rng;
    let n: usize = shape.iter().product();
    let data = (0..n)
        .map(|_| match rng.gen_range(0..10) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-2.0f32..2.0),
        })
        .collect();
    Array::from_vec(shape, data)
}

/// One sequence pass: the loss, every parameter gradient, and the
/// gradients of each step's input and of the initial state.
struct Pass {
    loss: u32,
    params: Vec<(String, Vec<u32>)>,
    inputs: Vec<Vec<u32>>,
    state0: Vec<Vec<u32>>,
    nodes: usize,
}

/// Run `xs` (one `[rows, in]` input per step) through `gru` from `h0`,
/// dropping rows whose length `lens[r]` is reached the way the packed
/// route pass does, with a loss that weighs every output element by `ws`.
fn pass(gru: &Gru, h0: &[Array], xs: &[Array], ws: &[Array], lens: &[usize], fused: bool) -> Pass {
    let tape = Tape::new();
    let b = Binder::new(&tape);
    let params = gru.params();
    let mut state: Vec<Var<'_>> = h0.iter().map(|h| b.input(h.clone())).collect();
    let state0 = state.clone();
    let mut running = RunningRows::all(lens.len());
    let mut inputs = Vec::new();
    let mut loss: Option<Var<'_>> = None;
    for (t, (x, w)) in xs.iter().zip(ws).enumerate() {
        if let Some(keep) = running.retain(|r| t < lens[r]) {
            gru.gather_state(&mut state, &keep);
        }
        let rows = running.rows().to_vec();
        if rows.is_empty() {
            break;
        }
        let x = b.input(Array::stack_rows(
            &rows
                .iter()
                .map(|&r| Array::from_vec(&[x.cols()], x.row(r).to_vec()))
                .collect::<Vec<_>>(),
        ));
        inputs.push(x);
        let prev = state.clone();
        let out = if fused {
            gru.step(&b, x, &mut state)
        } else {
            composed_gru::stack_step(&b, &params, x, &mut state)
        };
        let w = b.input(Array::stack_rows(
            &rows
                .iter()
                .map(|&r| Array::from_vec(&[w.cols()], w.row(r).to_vec()))
                .collect::<Vec<_>>(),
        ));
        let mut term = ops::sum_all(ops::mul(out, w));
        // Consumers of the step's input and states recorded after the step:
        // its backward then adds into accumulators that already hold a
        // gradient, where the order of its contributions shows.
        for h in prev {
            term = ops::add(term, ops::sum_all(ops::mul(h, w)));
        }
        term = ops::add(term, ops::sum_all(ops::square(x)));
        loss = Some(match loss {
            Some(acc) => ops::add(acc, term),
            None => term,
        });
    }
    let loss = loss.expect("at least one step");
    let grads = tape.backward(loss);
    let leaf = |v: &Var<'_>| grads.get(*v).map(bits).unwrap_or_default();
    Pass {
        loss: loss.scalar_value().to_bits(),
        params: b
            .collect_grads(&grads)
            .iter()
            .map(|(p, g)| (p.name().to_string(), bits(g)))
            .collect(),
        inputs: inputs.iter().map(leaf).collect(),
        state0: state0.iter().map(leaf).collect(),
        nodes: tape.len(),
    }
}

/// Fused ≡ composed over one random case; returns the fused pass's and
/// the composed pass's node counts.
fn assert_fused_matches_composed(
    seed: u64,
    in_dim: usize,
    hidden: usize,
    layers: usize,
    lens: &[usize],
) -> (usize, usize) {
    let mut rng = init::rng(seed);
    let gru = Gru::new("g", in_dim, hidden, layers, &mut rng);
    let n = lens.len();
    let steps = lens.iter().copied().max().unwrap_or(0);
    let h0: Vec<Array> = (0..layers)
        .map(|_| values(&[n, hidden], &mut rng))
        .collect();
    let xs: Vec<Array> = (0..steps).map(|_| values(&[n, in_dim], &mut rng)).collect();
    let ws: Vec<Array> = (0..steps).map(|_| values(&[n, hidden], &mut rng)).collect();
    let fused = pass(&gru, &h0, &xs, &ws, lens, true);
    let composed = pass(&gru, &h0, &xs, &ws, lens, false);
    let case = format!("seed {seed}, in {in_dim}, hidden {hidden}, layers {layers}, lens {lens:?}");
    assert_eq!(fused.loss, composed.loss, "loss bits differ: {case}");
    assert_eq!(fused.params.len(), composed.params.len(), "{case}");
    for ((name, f), (cname, c)) in fused.params.iter().zip(&composed.params) {
        assert_eq!(name, cname, "{case}");
        assert_eq!(f, c, "{name} gradient bits differ: {case}");
    }
    assert_eq!(
        fused.inputs, composed.inputs,
        "input gradient bits differ: {case}"
    );
    assert_eq!(
        fused.state0, composed.state0,
        "initial-state gradient bits differ: {case}"
    );
    (fused.nodes, composed.nodes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Loss, weight, input and state gradients of the fused step are the
    /// composed cell's, over 1–16 ragged rows, one or two layers and up to
    /// six steps.
    #[test]
    fn fused_gru_matches_composed_cell(
        seed in 0u64..1_000_000,
        in_dim in 1usize..=7,
        hidden in 1usize..=9,
        layers in 1usize..=2,
        lens in proptest::collection::vec(1usize..=6, 1..=16),
    ) {
        assert_fused_matches_composed(seed, in_dim, hidden, layers, &lens);
    }

    /// Forward values: the taped fused step, the composed cell, the unfused
    /// tape-free step and decoding's packed step agree bit for bit.
    #[test]
    fn fused_gru_forward_matches_every_oracle(
        seed in 0u64..1_000_000,
        m in 1usize..=16,
        in_dim in 1usize..=7,
        hidden in 1usize..=9,
    ) {
        let mut rng = init::rng(seed);
        let cell = GruCell::new("g", in_dim, hidden, &mut rng);
        let x = values(&[m, in_dim], &mut rng);
        let h = values(&[m, hidden], &mut rng);

        let tape = Tape::new();
        let b = Binder::new(&tape);
        let fused = cell.step(&b, b.input(x.clone()), b.input(h.clone())).value();
        let composed =
            composed_gru::cell_step(&b, &cell.params(), b.input(x.clone()), b.input(h.clone()))
                .value();
        prop_assert_eq!(bits(&fused), bits(&composed));

        let mut arena = ScratchArena::new();
        let unfused = composed_gru::infer_cell_step(&mut arena, &cell.params(), &x, &h);
        prop_assert_eq!(bits(&unfused), bits(&composed));
        let mut packed = h.clone();
        PackedGruCell::pack(&cell).infer_step_fused(&mut arena, &x, &mut packed);
        prop_assert_eq!(bits(&packed), bits(&composed));
    }
}

/// The one- and two-row products, the packed kernel's smallest row count
/// and the hidden sizes around its 16-column tiles, over ragged steps.
#[test]
fn fused_gru_matches_composed_cell_on_edge_shapes() {
    let shapes: [(usize, usize, &[usize]); 6] = [
        (1, 1, &[1]),
        (3, 16, &[2, 2]),
        (5, 17, &[3, 1, 3]),
        (4, 15, &[4, 4, 1, 4]),
        (2, 8, &[6, 1, 5, 2, 6, 3, 1, 4]),
        (7, 33, &[1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6, 1, 2, 3, 4]),
    ];
    for (i, (in_dim, hidden, lens)) in shapes.iter().enumerate() {
        for layers in [1, 2] {
            assert_fused_matches_composed(i as u64, *in_dim, *hidden, layers, lens);
        }
    }
}

/// One layer-step records one node where the composed cell records 19:
/// two layers over five steps of three equal-length rows.
#[test]
fn fused_gru_records_one_node_per_layer_step() {
    let (fused, composed) = assert_fused_matches_composed(9, 3, 4, 2, &[5, 5, 5]);
    // Leaves: the initial states and the weights.
    let leaves = 2 + 6;
    // Per step: input and weighting leaves; mul and sum of the output, of
    // each layer's previous state (plus an add) and of the squared input
    // (plus an add); the add onto the running loss after the first step.
    let per_step = 2 + 2 + 2 * 3 + 3 + 1;
    assert_eq!(fused, leaves + 5 * (per_step + 2) - 1);
    assert_eq!(composed, leaves + 5 * (per_step + 2 * 19) - 1);
}

/// Decoding's packed stack steps like the taped stack, layer by layer.
#[test]
fn packed_stack_matches_taped_stack_bitwise() {
    let mut rng = init::rng(11);
    let gru = Gru::new("g", 4, 6, 2, &mut rng);
    let packed = PackedGru::pack(&gru);
    assert_eq!(packed.layers(), 2);
    assert_eq!(packed.hidden(), 6);
    let tape = Tape::new();
    let b = Binder::new(&tape);
    let mut taped = gru.zero_state(&b, 3);
    let mut arena = ScratchArena::new();
    let mut state: Vec<Array> = (0..2).map(|_| Array::zeros(&[3, 6])).collect();
    for step in 0..5 {
        let x = init::randn(&[3, 4], 1.0, &mut rng);
        gru.step(&b, b.input(x.clone()), &mut taped);
        let mut gx0 = packed.gate_x0(&mut arena, &x);
        packed.infer_step_fused_pregx(&mut arena, &mut gx0, &mut state);
        arena.recycle(gx0);
        for (t, s) in taped.iter().zip(&state) {
            assert_eq!(bits(&t.value()), bits(s), "step {step}");
        }
    }
}
