//! Decode parity oracle: the batched-beam decoder (packed `[beam, hidden]`
//! state, one GEMM per depth, tape-free kernels) must produce routes
//! **identical** to the pre-refactor clone-and-step beam driven by the taped
//! per-item step, on a pinned Rivertown world — for DeepST (with traffic),
//! DeepST-C, and CSSRNN. The greedy decoder must likewise reproduce a
//! greedy rollout over the taped step (DeepST, DeepST-C, vanilla RNN) and
//! over raw transition counts (MMI).
//!
//! This is the end-to-end guarantee the whole inference-runtime refactor
//! rests on; the per-op and per-layer bitwise parity tests (st-tensor,
//! st-nn, st-core) explain *why* it holds.

use std::sync::{Arc, OnceLock};

use rand::{rngs::StdRng, SeedableRng};
use st_baselines::{
    beam_decode, beam_decode_closed, greedy_decode, DeepStDecoder, Mmi, PredictQuery, Predictor,
    RnnBaseline, RnnConfig, StepDecoder, TERM_SCALE_M,
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

/// A greedy rollout written apart from `greedy_decode`, over any step:
/// feed the head segment to `step` (state and token to the new state and
/// the slot scores), append the successor in the first maximum slot of the
/// covered prefix, and stop once `f_s` of that successor exceeds ½, at a
/// dead end, or at `max_len` segments.
fn reference_greedy<S>(
    net: &RoadNetwork,
    mut state: S,
    step: impl Fn(&S, SegmentId) -> (S, Vec<f64>),
    start: SegmentId,
    dest: &Point,
    max_len: usize,
) -> Route {
    let mut route = vec![start];
    while route.len() < max_len {
        let cur = *route.last().unwrap();
        let nexts = net.next_segments(cur);
        if nexts.is_empty() {
            break;
        }
        let (next_state, scores) = step(&state, cur);
        state = next_state;
        let valid = &scores[..nexts.len().min(scores.len())];
        let mut best = 0;
        for (j, &v) in valid.iter().enumerate() {
            if v > valid[best] {
                best = j;
            }
        }
        route.push(nexts[best]);
        if p_stop(net, nexts[best], dest) > 0.5 {
            break;
        }
    }
    route
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

/// A DeepST trained for 2 epochs on 2000 Rivertown trips, shared by the
/// trained-model checks of this binary (trained once, on first use).
fn trained_rivertown() -> &'static (Dataset, DeepSt) {
    static TRAINED: OnceLock<(Dataset, DeepSt)> = OnceLock::new();
    TRAINED.get_or_init(|| {
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
        (ds, trainer.model)
    })
}

/// A trained model decodes routes several times longer than untrained
/// weights do (about 12 segments here against 3.6), so most of the rows
/// the reference's 12-nat rule steps fall in the tail that the decoder's
/// exact bound prunes. The routes must still agree, for fresh queries and
/// 4-segment continuations.
#[test]
fn trained_deepst_beam_matches_taped_beam_on_fresh_and_continued_queries() {
    let (ds, model) = trained_rivertown();
    let max_len = model.cfg.max_route_len;
    let never = CancelToken::new();
    let (reference_rows, mut pruned_rows) = (std::cell::Cell::new(0usize), 0usize);
    for (qi, &t) in queries(ds, 8).iter().enumerate() {
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

/// Whether `route` ended on the stop rule (not a dead end or the cap).
fn stopped(net: &RoadNetwork, route: &[SegmentId], dest: &Point) -> bool {
    route.len() > 1 && route.last().is_some_and(|&s| p_stop(net, s, dest) > 0.5)
}

/// Greedy-decode every query of `ds` with a fresh `DeepStDecoder` and
/// compare each route with the taped greedy reference. Returns how many
/// routes ended on the stop rule.
fn assert_deepst_greedy_matches_taped(ds: &Dataset, model: &DeepSt, trips: &[usize]) -> usize {
    let max_len = model.cfg.max_route_len;
    let mut stops = 0;
    for &t in trips {
        let trip = &ds.trips[t];
        let slot = ds.slot_of(trip.start_time);
        let c = model
            .cfg
            .use_traffic
            .then(|| model.encode_traffic(ds.traffic_tensor(slot)));
        let ctx = model.encode_context(ds.unit_coord(&trip.dest_coord), c);
        let want = reference_greedy(
            &ds.net,
            model.initial_state(),
            |state, seg| model.step_state_taped(state, seg, &ctx),
            trip.origin_segment(),
            &trip.dest_coord,
            max_len,
        );
        let got = greedy_decode(
            &ds.net,
            &mut DeepStDecoder::new(model, &ctx),
            trip.origin_segment(),
            &trip.dest_coord,
            max_len,
        );
        assert_eq!(
            got, want,
            "greedy route diverged (traffic={}, trip {t})",
            model.cfg.use_traffic
        );
        stops += usize::from(stopped(&ds.net, &want, &trip.dest_coord));
    }
    stops
}

/// Untrained DeepST and DeepST-C, three seeds, every trip of the world.
#[test]
fn deepst_greedy_matches_taped_greedy_reference() {
    let ds = rivertown();
    let trips: Vec<usize> = (0..ds.trips.len()).collect();
    let mut stops = 0;
    for use_traffic in [true, false] {
        for seed in [1u64, 7, 11] {
            let mut cfg = DeepStConfig::new(
                ds.net.num_segments(),
                ds.net.max_out_degree(),
                ds.grid.height,
                ds.grid.width,
            );
            if !use_traffic {
                cfg = cfg.without_traffic();
            }
            stops += assert_deepst_greedy_matches_taped(&ds, &DeepSt::new(cfg, seed), &trips);
        }
    }
    assert!(stops > 0, "no route ended on the stop rule");
}

/// The trained model's greedy routes are long enough for a state defect
/// to compound; they must still match the taped reference.
#[test]
fn trained_deepst_greedy_matches_taped_greedy_reference() {
    let (ds, model) = trained_rivertown();
    let stops = assert_deepst_greedy_matches_taped(ds, model, &queries(ds, 60));
    assert!(stops > 0, "no route ended on the stop rule");
}

/// The vanilla RNN's greedy rollout rides on the tape-free decoder; its
/// routes must match a greedy rollout over the taped step. A
/// destination-blind model rarely passes near the destination, so every
/// trip of two seeds is decoded until some route ends on the stop rule.
#[test]
fn vanilla_rnn_greedy_matches_taped_rollout() {
    let ds = rivertown();
    let cfg = RnnConfig::new(ds.net.num_segments(), ds.net.max_out_degree());
    let max_len = cfg.max_route_len;
    let mut stops = 0;
    for seed in [7u64, 13] {
        let model = RnnBaseline::vanilla(cfg.clone(), seed);
        for t in 0..ds.trips.len() {
            let trip = &ds.trips[t];
            let route = reference_greedy(
                &ds.net,
                model.initial_state(),
                |state, seg| model.step_state_taped(state, seg, 0),
                trip.origin_segment(),
                &trip.dest_coord,
                max_len,
            );
            let got = model.predict(&ds.net, &query(&ds, t));
            assert_eq!(
                got, route,
                "vanilla greedy diverged on trip {t}, seed {seed}"
            );
            stops += usize::from(stopped(&ds.net, &route, &trip.dest_coord));
        }
    }
    assert!(stops > 0, "no route ended on the stop rule");
}

/// MMI's greedy rollout must take the first most-counted successor, as an
/// argmax over the raw transition counts does. Fitted on a few trips, most
/// segments have tied (all-zero) counts, so the tie-break is exercised.
#[test]
fn mmi_greedy_matches_counts_argmax_reference() {
    let ds = rivertown();
    let routes: Vec<Route> = ds.trips.iter().map(|t| t.route.clone()).collect();
    let mmi = Mmi::fit(&ds.net, &routes);
    let mut counts: Vec<Vec<f64>> = (0..ds.net.num_segments())
        .map(|s| vec![0.0; ds.net.next_segments(s).len()])
        .collect();
    for route in &routes {
        for w in route.windows(2) {
            if let Some(slot) = ds.net.neighbor_slot(w[0], w[1]) {
                counts[w[0]][slot] += 1.0;
            }
        }
    }
    let (tied, mut stops) = (std::cell::Cell::new(0usize), 0);
    for t in 0..ds.trips.len() {
        let trip = &ds.trips[t];
        let want = reference_greedy(
            &ds.net,
            (),
            |_, seg| {
                let c = &counts[seg];
                let max = c.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                if c.iter().filter(|&&v| v == max).count() > 1 {
                    tied.set(tied.get() + 1);
                }
                ((), c.clone())
            },
            trip.origin_segment(),
            &trip.dest_coord,
            150,
        );
        let got = mmi.predict(&ds.net, &query(&ds, t));
        assert_eq!(got, want, "MMI greedy diverged on trip {t}");
        stops += usize::from(stopped(&ds.net, &want, &trip.dest_coord));
    }
    assert!(tied.get() > 0, "no tied step: the tie-break went untested");
    assert!(stops > 0, "no route ended on the stop rule");
}

/// A head narrower than the network's out-degree truncates successor
/// lists; every truncated greedy step must be counted, for DeepST and for
/// the vanilla RNN. No other test in this binary decodes with a narrow
/// head, so the counter deltas are exact.
#[test]
fn narrow_head_greedy_counts_every_truncated_step() {
    let ds = rivertown();
    let net = &ds.net;
    let width = net.max_out_degree() - 1;
    let transitions = st_obs::counter("decode.truncated_transitions");
    let slots = st_obs::counter("decode.truncated_slots");
    // Start at segments whose successor list is wider than the head, so
    // the first step always truncates.
    let starts: Vec<SegmentId> = (0..net.num_segments())
        .filter(|&s| net.next_segments(s).len() > width)
        .step_by(7)
        .take(6)
        .collect();
    assert!(!starts.is_empty());
    let dest = ds.trips[0].dest_coord;
    let cfg = DeepStConfig::new(net.num_segments(), width, ds.grid.height, ds.grid.width);
    let deepst = DeepSt::new(cfg.without_traffic(), 3);
    let ctx = deepst.encode_context(ds.unit_coord(&dest), None);
    let rnn = RnnBaseline::vanilla(RnnConfig::new(net.num_segments(), width), 3);
    for &start in &starts {
        let deepst_route = || {
            let mut dec = DeepStDecoder::new(&deepst, &ctx);
            greedy_decode(net, &mut dec, start, &dest, deepst.cfg.max_route_len)
        };
        let rnn_route = || {
            let q = PredictQuery {
                start,
                ..query(&ds, 0)
            };
            rnn.predict(net, &q)
        };
        let decodes: [&dyn Fn() -> Route; 2] = [&deepst_route, &rnn_route];
        for decode in decodes {
            let (t0, s0) = (transitions.get(), slots.get());
            let route = decode();
            assert!(net.is_valid_route(&route));
            // Every segment but the last was stepped from.
            let degrees = route[..route.len() - 1]
                .iter()
                .map(|&seg| net.next_segments(seg).len());
            let truncated = degrees.clone().filter(|&d| d > width).count() as u64;
            let cut: usize = degrees.map(|d| d.saturating_sub(width)).sum();
            assert!(truncated > 0, "start {start} did not truncate");
            assert_eq!(transitions.get() - t0, truncated, "start {start}");
            assert_eq!(slots.get() - s0, cut as u64, "start {start}");
        }
    }
}

/// The query a predictor sees for trip `t` (no traffic tensor: the
/// baselines here ignore it).
fn query(ds: &Dataset, t: usize) -> PredictQuery<'static> {
    let trip = &ds.trips[t];
    PredictQuery {
        start: trip.origin_segment(),
        dest_coord: trip.dest_coord,
        dest_norm: ds.unit_coord(&trip.dest_coord),
        dest_segment: trip.dest_segment(),
        traffic: &[],
        slot_id: 0,
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
