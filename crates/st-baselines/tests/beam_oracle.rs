//! The route-tree [`BeamSearch`] against the clone-based search it replaced
//! (`common/clone_beam.rs`), driven side by side over the same log-probs.
//!
//! At every step both searches must plan the same tokens and rows and keep
//! the same survivor rows, and `into_route` must give the same route at
//! every depth, as a cancelled decode calls it, and at the end. The inputs
//! are built for exact ties, which only the tie-break decides: `ToyScorer`
//! has 97 score levels, and `FlatScorer` ties every slot, with its
//! destination off the grid so that every completion ties too. Widths run
//! 1–8 and length caps 2–30, with random closures and a boxed-in start.

use proptest::prelude::*;

#[path = "common/clone_beam.rs"]
mod clone_beam;
#[path = "common/scorers.rs"]
mod scorers;

use clone_beam::CloneBeamSearch;
use scorers::{FlatScorer, ToyScorer};
use st_baselines::{BeamSearch, StepDecoder};
use st_roadnet::{grid_city, GridConfig, Point, RoadNetwork, SegmentId};

/// One search setting: where it starts and heads, its beam and length cap,
/// and its closed segments.
struct Setting<'a> {
    start: SegmentId,
    dest: Point,
    beam_width: usize,
    max_len: usize,
    closed: &'a [SegmentId],
}

/// Run both searches for at most `cut` steps, requiring equal plans and
/// survivors at each, then equal `into_route` results.
fn side_by_side<M: StepDecoder<State = ()>>(
    net: &RoadNetwork,
    scorer: &mut M,
    s: &Setting<'_>,
    cut: usize,
) {
    let (width, dest) = (scorer.width(), s.dest);
    let mut tree = BeamSearch::new(net, vec![s.start], dest, s.beam_width, width, s.max_len);
    let mut clone = CloneBeamSearch::new(net, vec![s.start], dest, s.beam_width, width, s.max_len);
    if !s.closed.is_empty() {
        tree.set_closed_segments(s.closed);
        clone.set_closed_segments(s.closed);
    }
    let mut logp = Vec::new();
    for depth in 0..cut {
        let plan = tree.plan_step(net).map(|(t, r)| (t.to_vec(), r.to_vec()));
        let want = clone.plan_step(net).map(|(t, r)| (t.to_vec(), r.to_vec()));
        prop_assert_eq!(&plan, &want, "plan at depth {}", depth);
        let Some((tokens, _)) = plan else { break };
        scorer.step(net, &tokens, &mut (), &mut logp);
        let kept = tree.apply_step(net, &logp).map(<[usize]>::to_vec);
        let want = clone.apply_step(net, &logp).map(<[usize]>::to_vec);
        prop_assert_eq!(&kept, &want, "survivors at depth {}", depth);
        if kept.is_none() {
            break;
        }
    }
    prop_assert_eq!(
        tree.into_route(),
        clone.into_route(),
        "route after {} steps",
        cut
    );
}

/// [`side_by_side`] at every beam width from 1 to 8, cut after every depth
/// up to the length cap (the last cut runs each search to its end).
fn every_width_and_depth<M: StepDecoder<State = ()>>(
    net: &RoadNetwork,
    scorer: &mut M,
    start: SegmentId,
    dest: Point,
    max_len: usize,
    closed: &[SegmentId],
) {
    for beam_width in 1..=8 {
        let s = Setting {
            start,
            dest,
            beam_width,
            max_len,
            closed,
        };
        for cut in 0..=max_len {
            side_by_side(net, scorer, &s, cut);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The route tree keeps the clone-based search's plans, survivors and
    /// routes, ties included: under `ToyScorer`, and under `FlatScorer`
    /// with the destination off the grid, on open roads, with random
    /// closures and with every successor of the start closed.
    #[test]
    fn route_tree_search_matches_the_clone_based_search(
        salt in 0u64..1000,
        start in 0usize..1000,
        dest_seg in 0usize..1000,
        grid_seed in 0u64..4,
        max_len in 2usize..=30,
        closed in collection::vec(0usize..1000, 0..6),
    ) {
        let cfg = GridConfig { nx: 6, ny: 6, ..GridConfig::small_test() };
        let net = grid_city(&cfg, grid_seed);
        let n = net.num_segments();
        let start = start % n;
        let closed: Vec<SegmentId> = closed.iter().map(|&c| c % n).collect();
        let boxed_in = net.next_segments(start).to_vec();
        let width = net.max_out_degree();
        let toy_dest = net.midpoint(dest_seg % n);
        let off_grid = Point::new(1e6, -1e6);
        for closed in [&[][..], &closed, &boxed_in] {
            let mut toy = ToyScorer { salt, width };
            every_width_and_depth(&net, &mut toy, start, toy_dest, max_len, closed);
            let mut flat = FlatScorer { width };
            every_width_and_depth(&net, &mut flat, start, off_grid, max_len, closed);
        }
    }
}
