//! Consistency tests between the forward paths of the DeepST model:
//! batched training (`batch_loss`), per-route scoring (`score_route`, a
//! walk over the tape-free `InferSession`), the taped step
//! (`step_state_taped`) and stepwise decoding (`InferSession::step_into`).
//! All must compute the same transition log-probabilities.

use std::sync::Arc;

use proptest::prelude::*;

use st_core::{DeepSt, DeepStConfig, Example};
use st_nn::Module;
use st_roadnet::{grid_city, GridConfig, RoadNetwork};
use st_tensor::{init, Binder, Tape};

fn setup(seed: u64) -> (RoadNetwork, DeepSt) {
    let net = grid_city(&GridConfig::small_test(), 3);
    let cfg = DeepStConfig::new(net.num_segments(), net.max_out_degree(), 8, 8);
    (net, DeepSt::new(cfg, seed))
}

fn random_route(net: &RoadNetwork, start: usize, len: usize, seed: u64) -> Vec<usize> {
    let mut rng = init::rng(seed);
    let mut route = vec![start % net.num_segments()];
    for _ in 0..len {
        let nexts = net.next_segments(*route.last().unwrap());
        use rand::Rng;
        route.push(nexts[rng.gen_range(0..nexts.len())]);
    }
    route
}

#[test]
fn score_route_matches_stepwise_decoding() {
    let (net, model) = setup(0);
    let route = random_route(&net, 0, 6, 1);
    let tensor = vec![0.2f32; 64];
    let c = model.encode_traffic(&tensor);
    let ctx = model.encode_context([0.4, 0.6], Some(c));
    // score via the scoring API
    let total = model.score_route(&net, &route, &ctx);
    // score via a rollout of the taped step (renormalization-free: same
    // full softmax); `score_route` itself walks the tape-free session
    let mut state = model.initial_state();
    let mut manual = 0.0f64;
    for i in 0..route.len() - 1 {
        let (next, logps) = model.step_state_taped(&state, route[i], &ctx);
        state = next;
        let slot = net.neighbor_slot(route[i], route[i + 1]).unwrap();
        manual += logps[slot];
    }
    assert!(
        (total - manual).abs() < 1e-4,
        "score_route {total} != stepwise {manual}"
    );
}

#[test]
fn batch_loss_route_term_matches_score_route() {
    let (net, model) = setup(1);
    let tensor = Arc::new(vec![0.1f32; 64]);
    let route = random_route(&net, 2, 5, 2);
    let ex = Example::new(&net, route.clone(), [0.3, 0.7], Arc::clone(&tensor), 0).unwrap();
    // eval-mode batch loss on the single example
    let mut rng = init::rng(9);
    let tape = Tape::new();
    let binder = Binder::new(&tape);
    let (_, stats) = model.batch_loss(&binder, &[&ex], &mut rng, false);
    // eval-mode context: posterior mean c, soft π — identical to encode_*
    let c = model.encode_traffic(&tensor);
    let ctx = model.encode_context([0.3, 0.7], Some(c));
    let scored = model.score_route(&net, &route, &ctx);
    assert!(
        (stats.route_ll as f64 - scored).abs() < 1e-3,
        "batch route_ll {} != score_route {scored}",
        stats.route_ll
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Likelihood scores are finite and non-positive for any valid route.
    #[test]
    fn scores_are_log_probabilities(start in 0usize..40, len in 1usize..10, seed in 0u64..100) {
        let (net, model) = setup(2);
        let route = random_route(&net, start, len, seed);
        let c = model.encode_traffic(&vec![0.0f32; 64]);
        let ctx = model.encode_context([0.5, 0.5], Some(c));
        let s = model.score_route(&net, &route, &ctx);
        prop_assert!(s.is_finite());
        prop_assert!(s <= 0.0);
        // longer prefixes never increase the score
        let s_prefix = model.score_route(&net, &route[..route.len() - 1], &ctx);
        prop_assert!(s <= s_prefix + 1e-9);
    }

    /// Batched training handles ragged batches (mixed route lengths) —
    /// the loss stays finite and backward never panics.
    #[test]
    fn ragged_batches_train_cleanly(
        lens in proptest::collection::vec(1usize..14, 2..6),
        seed in 0u64..50,
    ) {
        let (net, model) = setup(4);
        let tensor = Arc::new(vec![0.1f32; 64]);
        let examples: Vec<Example> = lens
            .iter()
            .enumerate()
            .filter_map(|(i, &l)| {
                Example::new(
                    &net,
                    random_route(&net, i * 11, l, seed + i as u64),
                    [0.2, 0.8],
                    Arc::clone(&tensor),
                    i % 3,
                )
            })
            .collect();
        prop_assume!(!examples.is_empty());
        let refs: Vec<&Example> = examples.iter().collect();
        let mut rng = init::rng(seed);
        let tape = Tape::new();
        let binder = Binder::new(&tape);
        let (loss, stats) = model.batch_loss(&binder, &refs, &mut rng, true);
        prop_assert!(loss.scalar_value().is_finite());
        prop_assert!(stats.transitions >= examples.len());
        let grads = tape.backward(loss);
        let touched = binder.accumulate_grads(&grads);
        prop_assert!(touched > 0);
        model.zero_grads();
    }

    /// The per-transition probabilities of a decode step renormalize to 1
    /// over the full slot space.
    #[test]
    fn step_logprobs_normalize(seg in 0usize..40, seed in 0u64..100) {
        let (net, model) = setup(3);
        let seg = seg % net.num_segments();
        let mut rng = init::rng(seed);
        use rand::Rng;
        let ctx = model.encode_context(
            [rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)],
            Some(model.encode_traffic(&vec![0.3f32; 64])),
        );
        let mut sess = model.infer_session();
        let trip = sess.add_trip(model.trip_terms(&ctx));
        let mut state = sess.zero_state(1);
        let mut logps = Vec::new();
        sess.step_into(&[seg], &[trip], &mut state, &mut logps);
        let total: f64 = logps.iter().map(|lp| lp.exp()).sum();
        prop_assert!((total - 1.0).abs() < 1e-4, "softmax total {total}");
    }
}
