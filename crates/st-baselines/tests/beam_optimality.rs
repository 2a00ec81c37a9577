//! Validates the beam decoder against exhaustive enumeration: on small
//! graphs, a sufficiently wide beam must find the globally most likely
//! complete route under the full generative probability. A second property
//! checks that the decoder's pruning is exact: it returns the route of a
//! beam that never stops early, never longer than the length cap, and
//! through a closed segment only on a counted fallback.

use std::sync::Mutex;

use proptest::prelude::*;

#[path = "common/scorers.rs"]
mod scorers;

use scorers::ToyScorer;
use st_baselines::{beam_decode, beam_decode_closed};
use st_core::CancelToken;
use st_roadnet::{grid_city, GridConfig, Point, RoadNetwork, Route, SegmentId};

/// Gaussian termination identical to the decoder's.
fn p_stop(net: &RoadNetwork, seg: SegmentId, dest: &Point) -> f64 {
    let proj = net.project_onto(dest, seg);
    let d = proj.dist(dest) / st_baselines::TERM_SCALE_M;
    (-d * d).exp().clamp(1e-12, 0.95)
}

/// Full generative log-probability of a complete route under the toy model.
fn full_score(net: &RoadNetwork, model: &ToyScorer, route: &Route, dest: &Point) -> f64 {
    let mut lp = 0.0;
    for i in 0..route.len() - 1 {
        let nexts = net.next_segments(route[i]);
        let logps: Vec<f64> = (0..nexts.len()).map(|j| model.lp(route[i], j)).collect();
        let m = logps.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let lse = m + logps.iter().map(|&v| (v - m).exp()).sum::<f64>().ln();
        let j = nexts.iter().position(|&n| n == route[i + 1]).unwrap();
        lp += logps[j] - lse;
        let ps = p_stop(net, route[i + 1], dest);
        lp += if i + 1 == route.len() - 1 {
            ps.ln()
        } else {
            (1.0 - ps).ln()
        };
    }
    lp
}

/// Exhaustively enumerate every complete route of length ≤ `max_len` from
/// `start` and return the best full score.
fn exhaustive_best(
    net: &RoadNetwork,
    model: &ToyScorer,
    start: SegmentId,
    dest: &Point,
    max_len: usize,
) -> f64 {
    let mut best = f64::NEG_INFINITY;
    let mut stack: Vec<Route> = vec![vec![start]];
    while let Some(prefix) = stack.pop() {
        if prefix.len() >= 2 {
            best = best.max(full_score(net, model, &prefix, dest));
        }
        if prefix.len() < max_len {
            for &n in net.next_segments(*prefix.last().unwrap()) {
                let mut next = prefix.clone();
                next.push(n);
                stack.push(next);
            }
        }
    }
    best
}

/// The same beam search with no early exit: dead prefixes keep stepping
/// until the length cap or a dead end. Closed segments are masked and the
/// distribution renormalized over the open successors, falling back to the
/// unmasked one when every successor is closed, as in the decoder.
fn beam_without_early_exit(
    net: &RoadNetwork,
    model: &ToyScorer,
    start: SegmentId,
    dest: &Point,
    beam_width: usize,
    max_len: usize,
    closed: &[SegmentId],
) -> Route {
    let mut live: Vec<(Route, f64)> = vec![(vec![start], 0.0)];
    let mut best: Option<(Route, f64)> = None;
    for _ in 1..max_len {
        let mut expansions: Vec<(Route, f64)> = Vec::new();
        for (route, logp) in &live {
            let cur = *route.last().unwrap();
            let nexts = net.next_segments(cur);
            let nexts = &nexts[..nexts.len().min(model.width)];
            let is_closed = |n: &SegmentId| closed.contains(n);
            let mask = nexts.iter().any(is_closed) && !nexts.iter().all(is_closed);
            let open: Vec<usize> = (0..nexts.len())
                .filter(|&j| !(mask && is_closed(&nexts[j])))
                .collect();
            let m = open
                .iter()
                .map(|&j| model.lp(cur, j))
                .fold(f64::NEG_INFINITY, f64::max);
            let lse = m + open
                .iter()
                .map(|&j| (model.lp(cur, j) - m).exp())
                .sum::<f64>()
                .ln();
            for &j in &open {
                let lp_trans = model.lp(cur, j) - lse;
                let ps = p_stop(net, nexts[j], dest);
                let mut next = route.clone();
                next.push(nexts[j]);
                let complete = logp + lp_trans + ps.ln();
                if best.as_ref().is_none_or(|(_, s)| complete > *s) {
                    best = Some((next.clone(), complete));
                }
                expansions.push((next, logp + lp_trans + (1.0 - ps).ln()));
            }
        }
        if expansions.is_empty() {
            break;
        }
        expansions.sort_by(|a, b| b.1.total_cmp(&a.1));
        expansions.truncate(beam_width);
        live = expansions;
    }
    best.map(|(r, _)| r)
        .unwrap_or_else(|| live.swap_remove(0).0)
}

/// Serializes this binary's closure decodes, so the global
/// `decode.closed.fallback` delta read around one belongs to it alone.
static CLOSED_DECODES: Mutex<()> = Mutex::new(());

/// `beam_decode_closed` from `start`, and whether `decode.closed.fallback`
/// rose during the call.
fn decode_closed(
    net: &RoadNetwork,
    model: &mut ToyScorer,
    start: SegmentId,
    dest: &Point,
    beam_width: usize,
    max_len: usize,
    closed: &[SegmentId],
) -> (Route, bool) {
    let _alone = CLOSED_DECODES.lock().unwrap_or_else(|e| e.into_inner());
    let fallbacks = st_obs::counter("decode.closed.fallback");
    let before = fallbacks.get();
    let route = beam_decode_closed(
        net,
        model,
        &[start],
        dest,
        beam_width,
        max_len,
        closed,
        &CancelToken::new(),
    )
    .expect("live token");
    (route, fallbacks.get() > before)
}

/// No route exceeds `max_len`, and a closed segment past the start appears
/// only in a decode that counted a boxed-in fallback.
fn route_invariants(route: &Route, max_len: usize, closed: &[SegmentId], fell_back: bool) {
    prop_assert!(
        route.len() <= max_len,
        "{:?} exceeds max_len {}",
        route,
        max_len
    );
    prop_assert!(
        fell_back || !route[1..].iter().any(|s| closed.contains(s)),
        "{:?} crosses a closure in {:?} without a counted fallback",
        route,
        closed
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The exact bound prunes nothing that matters: for every beam width
    /// from 1 to 8, the decoder (with and without a random closed set)
    /// returns exactly the route of the same search run with no early exit,
    /// over horizons long enough that most of its steps fall in the tail.
    /// Every route also keeps [`route_invariants`].
    #[test]
    fn pruned_beam_matches_beam_without_early_exit(
        salt in 0u64..1000,
        start in 0usize..1000,
        dest_seg in 0usize..1000,
        grid_seed in 0u64..4,
        closed in collection::vec(0usize..1000, 0..6),
    ) {
        let cfg = GridConfig { nx: 6, ny: 6, ..GridConfig::small_test() };
        let net = grid_city(&cfg, grid_seed);
        let n = net.num_segments();
        let (start, dest) = (start % n, net.midpoint(dest_seg % n));
        let closed: Vec<SegmentId> = closed.iter().map(|&c| c % n).collect();
        let mut model = ToyScorer { salt, width: net.max_out_degree() };
        let max_len = 30;
        for width in 1..=8 {
            let want = beam_without_early_exit(&net, &model, start, &dest, width, max_len, &[]);
            let got = beam_decode(&net, &mut model, start, &dest, width, max_len);
            route_invariants(&got, max_len, &[], false);
            prop_assert_eq!(&got, &want, "open roads, beam {}", width);
            let want =
                beam_without_early_exit(&net, &model, start, &dest, width, max_len, &closed);
            let (got, fell_back) =
                decode_closed(&net, &mut model, start, &dest, width, max_len, &closed);
            route_invariants(&got, max_len, &closed, fell_back);
            prop_assert_eq!(&got, &want, "closed {:?}, beam {}", closed, width);
        }
    }

    /// The same checks where they bite. The property above reaches neither
    /// its length cap (its routes stay far below 30 segments) nor a
    /// boxed-in prefix (its few random closures never close every
    /// successor). Here the cap is 2 to 6 segments, and every successor of
    /// the start is closed, so each decode takes the fallback at its first
    /// step.
    #[test]
    fn capped_boxed_in_beam_keeps_route_invariants(
        salt in 0u64..1000,
        start in 0usize..1000,
        dest_seg in 0usize..1000,
        grid_seed in 0u64..4,
        max_len in 2usize..=6,
    ) {
        let cfg = GridConfig { nx: 6, ny: 6, ..GridConfig::small_test() };
        let net = grid_city(&cfg, grid_seed);
        let n = net.num_segments();
        let (start, dest) = (start % n, net.midpoint(dest_seg % n));
        let closed = net.next_segments(start).to_vec();
        let mut model = ToyScorer { salt, width: net.max_out_degree() };
        for width in 1..=8 {
            let want =
                beam_without_early_exit(&net, &model, start, &dest, width, max_len, &closed);
            let (got, fell_back) =
                decode_closed(&net, &mut model, start, &dest, width, max_len, &closed);
            route_invariants(&got, max_len, &closed, fell_back);
            prop_assert_eq!(&got, &want, "closed {:?}, beam {}", closed, width);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// With a beam at least as wide as the total number of prefixes, beam
    /// decoding must recover the exhaustive optimum (short horizons keep
    /// enumeration tractable: ≤ 2⁵ prefixes on the tiny grid).
    #[test]
    fn beam_matches_exhaustive_on_short_horizons(salt in 0u64..300, start in 0usize..40) {
        let net = grid_city(&GridConfig::small_test(), 3);
        let start = start % net.num_segments();
        let dest = net.midpoint((start * 7 + 5) % net.num_segments());
        let mut model = ToyScorer { salt, width: net.max_out_degree() };
        let max_len = 5;
        let want = exhaustive_best(&net, &model, start, &dest, max_len);
        let route = beam_decode(&net, &mut model, start, &dest, 64, max_len);
        prop_assume!(route.len() >= 2); // degenerate starts can't complete
        let got = full_score(&net, &model, &route, &dest);
        prop_assert!(
            (got - want).abs() < 1e-9,
            "beam found {got}, exhaustive optimum {want} (route {route:?})"
        );
    }
}
