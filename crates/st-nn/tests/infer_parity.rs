//! Per-layer parity between the taped forward pass and the tape-free
//! `infer` path.
//!
//! The inference runtime's contract is that its kernels run the *same* f32
//! arithmetic as the taped ops, so the assertions here are bit-for-bit
//! (`to_bits` equality) — strictly stronger than the f32-ULP tolerance the
//! contract promises. Inputs are proptest-generated, so the equality holds
//! across shapes (including the GEMM micro-kernel edge cases) and values,
//! not just on one lucky seed.

#[path = "common/composed_gru.rs"]
mod composed_gru;

use proptest::prelude::*;

use st_nn::{
    Activation, BatchNorm2d, ConvBlock, Embedding, Gru, GruCell, Linear, Mlp, Module, PackedGru,
    PackedGruCell, TrafficCnn,
};
use st_tensor::{init, Array, Binder, ScratchArena, Tape, TapeFreeScope};

/// Assert two arrays are bit-identical (shape and every f32's bits).
fn assert_bits_eq(got: &Array, want: &Array, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape mismatch");
    let gb: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
    let wb: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(gb, wb, "{what}: bit mismatch");
}

fn input(shape: &[usize], data: &[f32]) -> Array {
    let n: usize = shape.iter().product();
    Array::from_vec(shape, data[..n].to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn linear_parity(
        n in 1usize..=6, ind in 1usize..=9, out in 1usize..=9,
        seed in 0u64..1024,
        data in proptest::collection::vec(-2.0f32..2.0, 6 * 9),
    ) {
        let mut rng = init::rng(seed);
        let layer = Linear::new("l", ind, out, &mut rng);
        let x = input(&[n, ind], &data);

        let tape = Tape::new();
        let b = Binder::new(&tape);
        let want = layer.forward(&b, b.input(x.clone())).value();

        let _scope = TapeFreeScope::enter();
        let mut arena = ScratchArena::new();
        let got = layer.infer(&mut arena, &x);
        assert_bits_eq(&got, &want, "Linear");
    }

    #[test]
    fn mlp_parity(
        n in 1usize..=5,
        seed in 0u64..1024,
        data in proptest::collection::vec(-2.0f32..2.0, 5 * 3),
    ) {
        let mut rng = init::rng(seed);
        let mlp = Mlp::new("m", &[3, 7, 4], Activation::Tanh, Activation::Identity, &mut rng);
        let x = input(&[n, 3], &data);

        let tape = Tape::new();
        let b = Binder::new(&tape);
        let want = mlp.forward(&b, b.input(x.clone())).value();

        let _scope = TapeFreeScope::enter();
        let mut arena = ScratchArena::new();
        let got = mlp.infer(&mut arena, &x);
        assert_bits_eq(&got, &want, "Mlp");
    }

    #[test]
    fn gru_cell_parity(
        n in 1usize..=6, ind in 1usize..=7, hid in 1usize..=8,
        seed in 0u64..1024,
        data in proptest::collection::vec(-2.0f32..2.0, 6 * 7 + 6 * 8),
    ) {
        let mut rng = init::rng(seed);
        let cell = GruCell::new("g", ind, hid, &mut rng);
        let x = input(&[n, ind], &data);
        let h = Array::from_vec(&[n, hid], data[6 * 7..6 * 7 + n * hid].to_vec());

        let tape = Tape::new();
        let b = Binder::new(&tape);
        let want = cell.step(&b, b.input(x.clone()), b.input(h.clone())).value();

        let _scope = TapeFreeScope::enter();
        let mut arena = ScratchArena::new();
        let got = composed_gru::infer_cell_step(&mut arena, &cell.params(), &x, &h);
        assert_bits_eq(&got, &want, "GruCell, unfused oracle");
        let mut got = h.clone();
        PackedGruCell::pack(&cell).infer_step_fused(&mut arena, &x, &mut got);
        assert_bits_eq(&got, &want, "GruCell, packed");
    }

    #[test]
    fn gru_stack_parity_over_steps(
        n in 1usize..=4, steps in 1usize..=5,
        seed in 0u64..1024,
        data in proptest::collection::vec(-2.0f32..2.0, 5 * 4 * 3),
    ) {
        let mut rng = init::rng(seed);
        let gru = Gru::new("g", 3, 6, 2, &mut rng);

        let tape = Tape::new();
        let b = Binder::new(&tape);
        let mut taped_state = gru.zero_state(&b, n);

        let mut arena = ScratchArena::new();
        let mut infer_state: Vec<Array> = (0..2).map(|_| Array::zeros(&[n, 6])).collect();

        for s in 0..steps {
            let x = input(&[n, 3], &data[s * n * 3..]);
            let want = gru.step(&b, b.input(x.clone()), &mut taped_state).value();
            composed_gru::infer_stack_step(&mut arena, &gru.params(), &x, &mut infer_state);
            let got = infer_state.last().unwrap();
            assert_bits_eq(got, &want, "Gru stack output");
            for (layer, (gi, ti)) in infer_state.iter().zip(&taped_state).enumerate() {
                assert_bits_eq(gi, &ti.value(), &format!("Gru layer {layer} state"));
            }
        }
    }

    #[test]
    fn embedding_parity(
        idx in proptest::collection::vec(0usize..10, 1..6),
        seed in 0u64..1024,
    ) {
        let mut rng = init::rng(seed);
        let emb = Embedding::new("e", 10, 5, &mut rng);

        let tape = Tape::new();
        let b = Binder::new(&tape);
        let want = emb.forward(&b, &idx).value();

        let _scope = TapeFreeScope::enter();
        let mut arena = ScratchArena::new();
        let got = emb.infer(&mut arena, &idx);
        assert_bits_eq(&got, &want, "Embedding");
    }

    #[test]
    fn batchnorm_eval_parity(
        n in 1usize..=3,
        data in proptest::collection::vec(-3.0f32..3.0, 3 * 2 * 4 * 4),
    ) {
        let bn = BatchNorm2d::new("bn", 2);
        // Drift the running stats off their init so eval isn't the identity.
        {
            let tape = Tape::new();
            let b = Binder::new(&tape);
            let warm = input(&[3, 2, 4, 4], &data);
            let _ = bn.forward(&b, b.input(warm), true);
        }
        let x = input(&[n, 2, 4, 4], &data);

        let tape = Tape::new();
        let b = Binder::new(&tape);
        let want = bn.forward(&b, b.input(x.clone()), false).value();

        let _scope = TapeFreeScope::enter();
        let mut arena = ScratchArena::new();
        let mut got = x;
        bn.infer_eval(&mut arena, &mut got);
        assert_bits_eq(&got, &want, "BatchNorm2d eval");
    }

    #[test]
    fn conv_block_parity(
        n in 1usize..=2,
        seed in 0u64..1024,
        data in proptest::collection::vec(-2.0f32..2.0, 2 * 6 * 6),
    ) {
        let mut rng = init::rng(seed);
        let blk = ConvBlock::new("cb", 1, 3, 3, 2, 1, &mut rng);
        let x = input(&[n, 1, 6, 6], &data);

        let tape = Tape::new();
        let b = Binder::new(&tape);
        let want = blk.forward(&b, b.input(x.clone()), false).value();

        let _scope = TapeFreeScope::enter();
        let mut arena = ScratchArena::new();
        let got = blk.infer(&mut arena, &x);
        assert_bits_eq(&got, &want, "ConvBlock");
    }

    #[test]
    fn traffic_cnn_parity(
        n in 1usize..=2,
        seed in 0u64..1024,
        data in proptest::collection::vec(-2.0f32..2.0, 2 * 8 * 8),
    ) {
        let mut rng = init::rng(seed);
        let cnn = TrafficCnn::new("cnn", 2, &mut rng);
        let x = input(&[n, 1, 8, 8], &data);

        let tape = Tape::new();
        let b = Binder::new(&tape);
        let want = cnn.forward(&b, b.input(x.clone()), false).value();

        let _scope = TapeFreeScope::enter();
        let mut arena = ScratchArena::new();
        let got = cnn.infer(&mut arena, &x);
        assert_bits_eq(&got, &want, "TrafficCnn");
    }
}

/// In steady state a decode-style loop allocates nothing: after a warm-up
/// step, the arena pool count returns to the same level every iteration.
#[test]
fn gru_steady_state_reuses_arena() {
    let mut rng = init::rng(0);
    let gru = PackedGru::pack(&Gru::new("g", 4, 8, 2, &mut rng));
    let mut arena = ScratchArena::new();
    let mut state: Vec<Array> = (0..2).map(|_| arena.alloc(&[3, 8])).collect();
    let x = Array::zeros(&[3, 4]);
    let step = |arena: &mut ScratchArena, state: &mut Vec<Array>| {
        let mut gx0 = gru.gate_x0(arena, &x);
        gru.infer_step_fused_pregx(arena, &mut gx0, state);
        arena.recycle(gx0);
    };
    step(&mut arena, &mut state); // warm-up
    let pooled = arena.pooled();
    for _ in 0..10 {
        step(&mut arena, &mut state);
        assert_eq!(arena.pooled(), pooled, "steady state must not allocate");
    }
}
