//! The st-tensor probe: a packed GEMM at the decode step's shape.

use std::hint::black_box;
use std::time::{Duration, Instant};

use st_core::DeepStConfig;
use st_tensor::infer::{matmul_packed, PackedWeights, ScratchArena};
use st_tensor::Array;

use crate::spec::BEAM;
use crate::stats::median;

/// GFLOP/s of `[BEAM, hidden] x [hidden, 3 hidden]` packed GEMMs — the
/// recurrent-gate product of one beam step. FLOPs are computed from the
/// shape (2·m·k·n per call), not counted. Median of five 40 ms windows.
pub fn gemm_gflops() -> f64 {
    let hidden = DeepStConfig::new(1, 1, 1, 1).hidden;
    let (m, k, n) = (BEAM, hidden, 3 * hidden);
    let a = Array::full(&[m, k], 0.5);
    let w = PackedWeights::pack(&Array::full(&[k, n], 0.25));
    let mut arena = ScratchArena::new();
    let flops = 2.0 * (m * k * n) as f64;
    let mut call = || {
        let out = matmul_packed(&mut arena, black_box(&a), black_box(&w));
        arena.recycle(black_box(out));
    };
    for _ in 0..100 {
        call();
    }
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut calls = 0u64;
            while t0.elapsed() < Duration::from_millis(40) {
                for _ in 0..64 {
                    call();
                }
                calls += 64;
            }
            flops * calls as f64 / t0.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&rates)
}
