//! Decode parity oracle: the batched-beam decoder (packed `[beam, hidden]`
//! state, one GEMM per depth, tape-free kernels) must produce routes
//! **identical** to the pre-refactor clone-and-step beam driven by the taped
//! per-item step, on a pinned Rivertown world — for DeepST (with traffic),
//! DeepST-C, and CSSRNN.
//!
//! This is the end-to-end guarantee the whole inference-runtime refactor
//! rests on; the per-op and per-layer bitwise parity tests (st-tensor,
//! st-nn, st-core) explain *why* it holds.

use std::sync::Arc;

use rand::{rngs::StdRng, SeedableRng};
use st_baselines::{
    beam_decode, beam_decode_closed, DeepStDecoder, PredictQuery, StepDecoder, TERM_SCALE_M,
};
use st_core::{CancelToken, DeepSt, DeepStConfig, Example, TrainConfig, Trainer};
use st_roadnet::{Point, RoadNetwork, Route, SegmentId};
use st_sim::{CityPreset, Dataset};

/// The decoder's termination Bernoulli, reimplemented for the reference.
fn p_stop(net: &RoadNetwork, seg: SegmentId, dest: &Point) -> f64 {
    let proj = net.project_onto(dest, seg);
    let d = proj.dist(dest) / TERM_SCALE_M;
    (-d * d).exp().clamp(1e-12, 0.95)
}

/// The pre-refactor beam decoder, verbatim, including its stopping rule
/// (stop once the best live prefix falls 12 nats below the best complete
/// route): every live prefix carries its own cloned recurrent state and
/// steps in isolation through `step`. `init` is the state after `prefix`
/// minus its last segment; a one-segment prefix is a fresh query.
fn reference_beam<S: Clone>(
    net: &RoadNetwork,
    init: S,
    step: impl Fn(&S, SegmentId) -> (S, Vec<f64>),
    prefix: &[SegmentId],
    dest: &Point,
    beam_width: usize,
    max_len: usize,
) -> Route {
    struct Item<S> {
        route: Route,
        state: S,
        logp: f64,
    }
    let mut live = vec![Item {
        route: prefix.to_vec(),
        state: init,
        logp: 0.0,
    }];
    let mut best_complete: Option<(Route, f64)> = None;
    for _ in prefix.len()..max_len {
        let mut expansions: Vec<Item<S>> = Vec::new();
        for item in &live {
            let cur = *item.route.last().unwrap();
            let nexts = net.next_segments(cur);
            if nexts.is_empty() {
                continue;
            }
            let (new_state, logps) = step(&item.state, cur);
            let valid = &logps[..nexts.len().min(logps.len())];
            let m = valid.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let lse = m + valid.iter().map(|&v| (v - m).exp()).sum::<f64>().ln();
            for (j, &next) in nexts.iter().enumerate().take(valid.len()) {
                let lp_trans = valid[j] - lse;
                let ps = p_stop(net, next, dest);
                let mut new_route = item.route.clone();
                new_route.push(next);
                let complete_score = item.logp + lp_trans + ps.ln();
                if best_complete
                    .as_ref()
                    .map(|(_, s)| complete_score > *s)
                    .unwrap_or(true)
                {
                    best_complete = Some((new_route.clone(), complete_score));
                }
                expansions.push(Item {
                    route: new_route,
                    state: new_state.clone(),
                    logp: item.logp + lp_trans + (1.0 - ps).ln(),
                });
            }
        }
        if expansions.is_empty() {
            break;
        }
        expansions.sort_by(|a, b| b.logp.total_cmp(&a.logp));
        expansions.truncate(beam_width);
        if let Some((_, best)) = &best_complete {
            if expansions[0].logp < *best - 12.0 {
                break;
            }
        }
        live = expansions;
    }
    match best_complete {
        Some((route, _)) => route,
        None => live.into_iter().next().map(|i| i.route).unwrap(),
    }
}

/// Counts the rows a decoder steps, to show where the exact bound saves work.
struct RowCount<M> {
    inner: M,
    rows: usize,
}

impl<M: StepDecoder> StepDecoder for RowCount<M> {
    type State = M::State;
    fn width(&self) -> usize {
        self.inner.width()
    }
    fn init_state(&mut self, n: usize) -> M::State {
        self.inner.init_state(n)
    }
    fn step(
        &mut self,
        net: &RoadNetwork,
        tokens: &[SegmentId],
        state: &mut M::State,
        logp: &mut Vec<f64>,
    ) {
        self.rows += tokens.len();
        self.inner.step(net, tokens, state, logp);
    }
    fn gather(&mut self, state: &M::State, rows: &[usize]) -> M::State {
        self.inner.gather(state, rows)
    }
    fn recycle(&mut self, state: M::State) {
        self.inner.recycle(state);
    }
}

/// A handful of pinned test queries over the Rivertown world.
fn queries(ds: &Dataset, n: usize) -> Vec<usize> {
    (0..ds.trips.len())
        .step_by(ds.trips.len().div_ceil(n).max(1))
        .collect()
}

fn rivertown() -> Dataset {
    Dataset::generate(&CityPreset::rivertown(), 24, 7)
}

#[test]
fn deepst_batched_beam_matches_clone_and_step_taped_beam() {
    let ds = rivertown();
    for use_traffic in [true, false] {
        let mut cfg = DeepStConfig::new(
            ds.net.num_segments(),
            ds.net.max_out_degree(),
            ds.grid.height,
            ds.grid.width,
        );
        if !use_traffic {
            cfg = cfg.without_traffic();
        }
        // Untrained weights exercise the same arithmetic as trained ones.
        let model = DeepSt::new(cfg, 7);
        for (qi, &t) in queries(&ds, 6).iter().enumerate() {
            let trip = &ds.trips[t];
            let slot = ds.slot_of(trip.start_time);
            let c = use_traffic.then(|| model.encode_traffic(ds.traffic_tensor(slot)));
            let ctx = model.encode_context(ds.unit_coord(&trip.dest_coord), c);
            for width in [1usize, 4, 8] {
                let want = reference_beam(
                    &ds.net,
                    model.initial_state(),
                    |state, seg| model.step_state_taped(state, seg, &ctx),
                    &[trip.origin_segment()],
                    &trip.dest_coord,
                    width,
                    model.cfg.max_route_len,
                );
                let mut dec = DeepStDecoder::new(&model, &ctx);
                let got = beam_decode(
                    &ds.net,
                    &mut dec,
                    trip.origin_segment(),
                    &trip.dest_coord,
                    width,
                    model.cfg.max_route_len,
                );
                assert_eq!(
                    got, want,
                    "route diverged (traffic={use_traffic}, query {qi}, beam {width})"
                );
            }
        }
    }
}

/// A trained model decodes routes several times longer than untrained
/// weights do (about 12 segments here against 3.6), so most of the rows
/// the reference's 12-nat rule steps fall in the tail that the decoder's
/// exact bound prunes. The routes must still agree, for fresh queries and
/// 4-segment continuations.
#[test]
fn trained_deepst_beam_matches_taped_beam_on_fresh_and_continued_queries() {
    let ds = Dataset::generate(&CityPreset::rivertown(), 2000, 7);
    let examples: Vec<Example> = ds
        .trips
        .iter()
        .filter_map(|trip| {
            let slot = ds.slot_of(trip.start_time);
            Example::new(
                &ds.net,
                trip.route.clone(),
                ds.unit_coord(&trip.dest_coord),
                Arc::new(ds.traffic_tensor(slot).to_vec()),
                slot,
            )
        })
        .collect();
    let cfg = DeepStConfig::new(
        ds.net.num_segments(),
        ds.net.max_out_degree(),
        ds.grid.height,
        ds.grid.width,
    );
    let tc = TrainConfig {
        epochs: 2,
        batch_size: 64,
        shard_size: 16,
        patience: None,
        ..TrainConfig::default()
    };
    let mut trainer = Trainer::new(DeepSt::new(cfg, 7), tc);
    trainer
        .fit(&examples[..], None, &mut StdRng::seed_from_u64(7))
        .expect("clean training run");
    let model = &trainer.model;
    let max_len = model.cfg.max_route_len;
    let never = CancelToken::new();
    let (reference_rows, mut pruned_rows) = (std::cell::Cell::new(0usize), 0usize);
    for (qi, &t) in queries(&ds, 8).iter().enumerate() {
        let trip = &ds.trips[t];
        let slot = ds.slot_of(trip.start_time);
        let c = model.encode_traffic(ds.traffic_tensor(slot));
        let ctx = model.encode_context(ds.unit_coord(&trip.dest_coord), Some(c));
        for prefix_len in [1usize, 4] {
            if trip.route.len() <= prefix_len {
                continue;
            }
            let prefix = &trip.route[..prefix_len];
            let mut init = model.initial_state();
            for &seg in &prefix[..prefix_len - 1] {
                init = model.step_state_taped(&init, seg, &ctx).0;
            }
            for width in [1usize, 4, 8] {
                let want = reference_beam(
                    &ds.net,
                    init.clone(),
                    |state, seg| {
                        reference_rows.set(reference_rows.get() + 1);
                        model.step_state_taped(state, seg, &ctx)
                    },
                    prefix,
                    &trip.dest_coord,
                    width,
                    max_len,
                );
                let mut dec = RowCount {
                    inner: DeepStDecoder::new(model, &ctx),
                    rows: 0,
                };
                let got = beam_decode_closed(
                    &ds.net,
                    &mut dec,
                    prefix,
                    &trip.dest_coord,
                    width,
                    max_len,
                    &[],
                    &never,
                )
                .expect("live token");
                assert_eq!(
                    got, want,
                    "route diverged (query {qi}, prefix {prefix_len}, beam {width})"
                );
                pruned_rows += dec.rows;
            }
        }
    }
    let reference_rows = reference_rows.get();
    assert!(
        2 * pruned_rows < reference_rows,
        "the exact bound stepped {pruned_rows} rows, the 12-nat rule {reference_rows}"
    );
}

#[test]
fn cssrnn_batched_beam_matches_clone_and_step_taped_beam() {
    use st_baselines::{RnnBaseline, RnnConfig};
    let ds = rivertown();
    let cfg = RnnConfig::new(ds.net.num_segments(), ds.net.max_out_degree());
    let max_len = cfg.max_route_len;
    let model = RnnBaseline::cssrnn(cfg, 7);
    for (qi, &t) in queries(&ds, 6).iter().enumerate() {
        let trip = &ds.trips[t];
        let dest_seg = trip.dest_segment();
        for width in [1usize, 8] {
            let want = reference_beam(
                &ds.net,
                model.initial_state(),
                |state, seg| model.step_state_taped(state, seg, dest_seg),
                &[trip.origin_segment()],
                &trip.dest_coord,
                width,
                max_len,
            );
            let mut dec = model.decoder(dest_seg);
            let got = beam_decode(
                &ds.net,
                &mut dec,
                trip.origin_segment(),
                &trip.dest_coord,
                width,
                max_len,
            );
            assert_eq!(got, want, "route diverged (query {qi}, beam {width})");
        }
    }
}

/// The vanilla RNN's greedy rollout also rides on the tape-free decoder;
/// its routes must match a greedy rollout over the taped step.
#[test]
fn vanilla_rnn_greedy_matches_taped_rollout() {
    use st_baselines::{should_stop, Predictor, RnnBaseline, RnnConfig};
    let ds = rivertown();
    let cfg = RnnConfig::new(ds.net.num_segments(), ds.net.max_out_degree());
    let max_len = cfg.max_route_len;
    let model = RnnBaseline::vanilla(cfg, 7);
    for &t in &queries(&ds, 6) {
        let trip = &ds.trips[t];
        // taped greedy reference, mirroring generate_route's control flow
        let mut route = vec![trip.origin_segment()];
        let mut state = model.initial_state();
        while route.len() < max_len {
            let cur = *route.last().unwrap();
            let nexts = ds.net.next_segments(cur);
            if nexts.is_empty() {
                break;
            }
            let (ns, logps) = model.step_state_taped(&state, cur, 0);
            state = ns;
            let valid = &logps[..nexts.len().min(logps.len())];
            let mut best = 0;
            for (j, &v) in valid.iter().enumerate() {
                if v > valid[best] {
                    best = j;
                }
            }
            route.push(nexts[best]);
            if should_stop(&ds.net, nexts[best], &trip.dest_coord) {
                break;
            }
        }
        let q = PredictQuery {
            start: trip.origin_segment(),
            dest_coord: trip.dest_coord,
            dest_norm: ds.unit_coord(&trip.dest_coord),
            dest_segment: trip.dest_segment(),
            traffic: &[],
            slot_id: 0,
        };
        let got = model.predict(&ds.net, &q);
        assert_eq!(got, route, "vanilla greedy diverged on trip {t}");
    }
}

/// Sanity: the trait object in the batched path reports the width the
/// model's slot head actually has.
#[test]
fn decoder_width_matches_config() {
    let ds = rivertown();
    let cfg = DeepStConfig::new(
        ds.net.num_segments(),
        ds.net.max_out_degree(),
        ds.grid.height,
        ds.grid.width,
    );
    let model = DeepSt::new(cfg, 1);
    let ctx = model.encode_context([0.5, 0.5], Some(model.encode_traffic(ds.traffic_tensor(0))));
    let dec = DeepStDecoder::new(&model, &ctx);
    assert_eq!(dec.width(), model.cfg.max_neighbors);
}
