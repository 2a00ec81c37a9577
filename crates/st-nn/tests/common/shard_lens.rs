//! The route-length generator of the packed-sequence and fused-GRU
//! proptests. The st-core and st-baselines unit tests that run whole
//! models on random shards include it by `#[path]`, so their shapes stay
//! one definition.

use st_tensor::init;

/// `n` route lengths up to `max_len` of one of four shapes: independent
/// lengths, all equal, one long route among short ones, or only 1–2
/// segments.
pub fn shard_lens(seed: u64, n: usize, max_len: usize, shape: usize) -> Vec<usize> {
    use rand::Rng;
    let mut rng = init::rng(seed);
    (0..n)
        .map(|r| match shape {
            0 => rng.gen_range(1..=max_len),
            1 => max_len,
            2 if r == n / 2 => max_len,
            2 => rng.gen_range(1..=3),
            _ => rng.gen_range(1..=2),
        })
        .collect()
}
