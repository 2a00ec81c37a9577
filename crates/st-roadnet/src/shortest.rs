//! Shortest paths over the segment graph (Dijkstra).
//!
//! Costs are supplied by a closure so the same machinery serves free-flow
//! distance, historical mean travel time (the WSP baseline, §V-A) and
//! traffic-dependent times (the simulator's route choice).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::graph::{RoadNetwork, Route, SegmentId};

/// Priority-queue entry (min-heap by cost).
#[derive(PartialEq)]
struct Entry {
    cost: f64,
    seg: SegmentId,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // reverse for a min-heap; total_cmp gives a total order even if a
        // cost function ever produces NaN (NaN sorts last, never ties)
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.seg.cmp(&self.seg))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Shortest route from segment `src` to segment `dst`.
///
/// The cost of a route is `Σ cost(s)` over its segments *excluding* `src`
/// (the vehicle is already on `src`). Returns the route (including both
/// endpoints) and its cost, or `None` if unreachable. `cost` must be
/// non-negative for every segment.
pub fn shortest_route(
    net: &RoadNetwork,
    src: SegmentId,
    dst: SegmentId,
    cost: &dyn Fn(SegmentId) -> f64,
) -> Option<(Route, f64)> {
    shortest_route_filtered(net, src, dst, cost, &|_, _| true)
}

/// Like [`shortest_route`], but only relaxes transitions `(from, next)` for
/// which `allowed` returns true (`src` is always a valid starting point).
/// The edge-level filter is what Yen's algorithm needs: it must ban a
/// specific transition out of the spur node while leaving the target segment
/// reachable elsewhere.
pub fn shortest_route_filtered(
    net: &RoadNetwork,
    src: SegmentId,
    dst: SegmentId,
    cost: &dyn Fn(SegmentId) -> f64,
    allowed: &dyn Fn(SegmentId, SegmentId) -> bool,
) -> Option<(Route, f64)> {
    let n = net.num_segments();
    assert!(src < n && dst < n, "segment out of range");
    if src == dst {
        return Some((vec![src], 0.0));
    }
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<SegmentId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[src] = 0.0;
    heap.push(Entry {
        cost: 0.0,
        seg: src,
    });
    while let Some(Entry { cost: d, seg }) = heap.pop() {
        if d > dist[seg] {
            continue;
        }
        if seg == dst {
            break;
        }
        for &next in net.next_segments(seg) {
            if next == src || !allowed(seg, next) {
                continue;
            }
            let w = cost(next);
            debug_assert!(w >= 0.0, "negative edge cost on segment {next}");
            let nd = d + w;
            if nd < dist[next] {
                dist[next] = nd;
                prev[next] = Some(seg);
                heap.push(Entry {
                    cost: nd,
                    seg: next,
                });
            }
        }
    }
    if !dist[dst].is_finite() {
        return None;
    }
    let mut route = vec![dst];
    let mut cur = dst;
    while let Some(p) = prev[cur] {
        route.push(p);
        cur = p;
    }
    debug_assert_eq!(cur, src);
    route.reverse();
    Some((route, dist[dst]))
}

/// Single-source costs to every segment (∞ where unreachable): the
/// whole-network search the tests check [`shortest_route`] and the
/// generator's connectivity against.
#[cfg(test)]
pub(crate) fn all_costs_from(
    net: &RoadNetwork,
    src: SegmentId,
    cost: &dyn Fn(SegmentId) -> f64,
) -> Vec<f64> {
    let n = net.num_segments();
    let mut dist = vec![f64::INFINITY; n];
    let mut heap = BinaryHeap::new();
    dist[src] = 0.0;
    heap.push(Entry {
        cost: 0.0,
        seg: src,
    });
    while let Some(Entry { cost: d, seg }) = heap.pop() {
        if d > dist[seg] {
            continue;
        }
        for &next in net.next_segments(seg) {
            let nd = d + cost(next);
            if nd < dist[next] {
                dist[next] = nd;
                heap.push(Entry {
                    cost: nd,
                    seg: next,
                });
            }
        }
    }
    dist
}

/// Costs *to* `dst`, settled on demand by a Dijkstra on the reversed graph.
///
/// `cost(s)` is charged when `s` is entered, consistent with
/// [`shortest_route`]: the cost from `s` to `dst` excludes `cost(s)` itself.
/// [`CostsTo::get`] pops the heap only until the asked-for segment is
/// settled, so a query near `dst` settles a small part of the network. Each
/// settled segment calls `cost` once, to relax its predecessors.
pub struct CostsTo<'a> {
    net: &'a RoadNetwork,
    cost: &'a dyn Fn(SegmentId) -> f64,
    dist: Vec<f64>,
    settled: Vec<bool>,
    heap: BinaryHeap<Entry>,
}

impl<'a> CostsTo<'a> {
    /// A search towards `dst` that has settled nothing yet. `cost` must be
    /// non-negative for every segment.
    pub fn new(net: &'a RoadNetwork, dst: SegmentId, cost: &'a dyn Fn(SegmentId) -> f64) -> Self {
        let n = net.num_segments();
        assert!(dst < n, "segment out of range");
        let mut dist = vec![f64::INFINITY; n];
        dist[dst] = 0.0;
        let mut heap = BinaryHeap::new();
        heap.push(Entry {
            cost: 0.0,
            seg: dst,
        });
        Self {
            net,
            cost,
            dist,
            settled: vec![false; n],
            heap,
        }
    }

    /// Cost from `s` to `dst` (∞ where unreachable).
    pub fn get(&mut self, s: SegmentId) -> f64 {
        while !self.settled[s] {
            let Some(Entry { cost: d, seg }) = self.heap.pop() else {
                break;
            };
            if d > self.dist[seg] {
                continue;
            }
            self.settled[seg] = true;
            let w = (self.cost)(seg);
            debug_assert!(w >= 0.0, "negative edge cost on segment {seg}");
            let nd = d + w;
            // predecessors of `seg`: segments whose end vertex is seg's start
            for &p in self.net.in_segments(self.net.segment(seg).from) {
                if nd < self.dist[p] {
                    self.dist[p] = nd;
                    self.heap.push(Entry { cost: nd, seg: p });
                }
            }
        }
        self.dist[s]
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use proptest::prelude::*;

    use super::*;
    use crate::gen::{grid_city, GridConfig};
    use crate::geo::Point;
    use crate::graph::RoadNetwork;

    /// The whole-network reverse Dijkstra: pops until the heap is empty and
    /// charges `cost(seg)` once per in-edge. [`CostsTo`] must reproduce its
    /// bits for every segment it is asked about.
    fn all_costs_to(
        net: &RoadNetwork,
        dst: SegmentId,
        cost: &dyn Fn(SegmentId) -> f64,
    ) -> Vec<f64> {
        let n = net.num_segments();
        let mut dist = vec![f64::INFINITY; n];
        let mut heap = BinaryHeap::new();
        dist[dst] = 0.0;
        heap.push(Entry {
            cost: 0.0,
            seg: dst,
        });
        while let Some(Entry { cost: d, seg }) = heap.pop() {
            if d > dist[seg] {
                continue;
            }
            for &p in net.in_segments(net.segment(seg).from) {
                let nd = d + cost(seg);
                if nd < dist[p] {
                    dist[p] = nd;
                    heap.push(Entry { cost: nd, seg: p });
                }
            }
        }
        dist
    }

    /// `n` vertices on a circle joined by one-way segments `a → a + k`
    /// (mod `n`), one per pair of `edges` draws, so parts of the network can
    /// be one-way, dead ends or disconnected.
    fn digraph(n: usize, edges: &[usize]) -> RoadNetwork {
        let mut net = RoadNetwork::new();
        for v in 0..n {
            let a = v as f64 * std::f64::consts::TAU / n as f64;
            net.add_vertex(Point::new(100.0 * a.cos(), 100.0 * a.sin()));
        }
        for pair in edges.chunks_exact(2) {
            let a = pair[0] % n;
            net.add_segment(a, (a + 1 + pair[1] % (n - 1)) % n, 10.0);
        }
        net.freeze();
        net
    }

    /// Maps a uniform draw in `[0, 50)` to a segment cost: an exact zero
    /// (1 in 5), 1 or 2 shared by many segments (2 in 5), or arbitrary.
    fn segment_cost(u: f64) -> f64 {
        if u < 10.0 {
            0.0
        } else if u < 30.0 {
            (u / 10.0).floor()
        } else {
            u - 30.0
        }
    }

    fn square() -> RoadNetwork {
        let mut net = RoadNetwork::new();
        let v: Vec<_> = [(0., 0.), (100., 0.), (0., 100.), (100., 100.)]
            .iter()
            .map(|&(x, y)| net.add_vertex(Point::new(x, y)))
            .collect();
        net.add_twoway(v[0], v[1], 10.0); // 0,1
        net.add_twoway(v[0], v[2], 10.0); // 2,3
        net.add_twoway(v[1], v[3], 10.0); // 4,5
        net.add_twoway(v[2], v[3], 10.0); // 6,7
        net.freeze();
        net
    }

    fn by_length(net: &RoadNetwork) -> impl Fn(SegmentId) -> f64 + '_ {
        move |s| net.segment(s).length
    }

    #[test]
    fn trivial_same_segment() {
        let net = square();
        let (r, c) = shortest_route(&net, 0, 0, &by_length(&net)).unwrap();
        assert_eq!(r, vec![0]);
        assert_eq!(c, 0.0);
    }

    #[test]
    fn finds_shortest_in_square() {
        let net = square();
        // from v0→v1 (0) to v1→v3 (4): directly adjacent
        let cost = by_length(&net);
        let (r, c) = shortest_route(&net, 0, 4, &cost).unwrap();
        assert_eq!(r, vec![0, 4]);
        assert_eq!(c, 100.0);
        // from v0→v1 (0) to v3→v2 (7): 0 → 4 → 7
        let (r, c) = shortest_route(&net, 0, 7, &cost).unwrap();
        assert!(net.is_valid_route(&r));
        assert_eq!(r, vec![0, 4, 7]);
        assert_eq!(c, 200.0);
    }

    #[test]
    fn respects_costs_not_hops() {
        let net = square();
        // Make segment 4 (v1→v3) hugely expensive: the route 0 → ... → 7
        // must detour through v0→v2→v3 even though it has more hops.
        let cost = |s: SegmentId| if s == 4 { 1e9 } else { net.segment(s).length };
        let (r, c) = shortest_route(&net, 0, 7, &cost).unwrap();
        assert!(!r.contains(&4), "expensive segment used: {r:?}");
        assert!(c < 1e9);
        assert!(net.is_valid_route(&r));
    }

    #[test]
    fn unreachable_returns_none() {
        let mut net = RoadNetwork::new();
        let a = net.add_vertex(Point::new(0.0, 0.0));
        let b = net.add_vertex(Point::new(1.0, 0.0));
        let c = net.add_vertex(Point::new(2.0, 0.0));
        let d = net.add_vertex(Point::new(3.0, 0.0));
        let s1 = net.add_segment(a, b, 10.0);
        let s2 = net.add_segment(c, d, 10.0); // disconnected from s1
        net.freeze();
        assert!(shortest_route(&net, s1, s2, &|_| 1.0).is_none());
    }

    #[test]
    fn all_costs_consistent_with_point_queries() {
        let net = grid_city(&GridConfig::small_test(), 7);
        let cost = |s: SegmentId| net.segment(s).length;
        let src = 0;
        let all = all_costs_from(&net, src, &cost);
        for dst in (0..net.num_segments()).step_by(17) {
            match shortest_route(&net, src, dst, &cost) {
                Some((_, c)) => assert!(
                    (c - all[dst]).abs() < 1e-6,
                    "mismatch at {dst}: {c} vs {}",
                    all[dst]
                ),
                None => assert!(!all[dst].is_finite()),
            }
        }
    }

    #[test]
    fn reverse_costs_match_forward() {
        let net = grid_city(&GridConfig::small_test(), 3);
        let cost = |s: SegmentId| net.segment(s).length;
        let dst = net.num_segments() / 2;
        let mut to = CostsTo::new(&net, dst, &cost);
        for src in (0..net.num_segments()).step_by(13) {
            match shortest_route(&net, src, dst, &cost) {
                Some((_, c)) => {
                    let got = to.get(src);
                    assert!((c - got).abs() < 1e-6, "mismatch at {src}: {c} vs {got}")
                }
                None => assert!(!to.get(src).is_finite()),
            }
        }
    }

    #[test]
    fn settles_only_as_far_as_asked() {
        let net = grid_city(&GridConfig::small_test(), 3);
        let n = net.num_segments();
        let calls = Cell::new(0);
        let cost = |s: SegmentId| {
            calls.set(calls.get() + 1);
            net.segment(s).length
        };
        let dst = n / 2;
        let mut to = CostsTo::new(&net, dst, &cost);
        assert_eq!(to.get(dst), 0.0);
        assert_eq!(calls.get(), 1, "asking for dst settles dst alone");
        let far = (0..n).map(|s| to.get(s)).fold(0.0, f64::max);
        assert!(far.is_finite() && far > 0.0);
        assert_eq!(calls.get(), n, "one cost call per settled segment");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any sequence of questions, with repeats, unreachable segments and
        /// `dst` itself, gets the whole-network search's bits, and `cost` is
        /// called once per settled segment.
        #[test]
        fn on_demand_costs_match_the_whole_network_search(
            hand_built in 0usize..2,
            grid in collection::vec(2usize..6, 2),
            removal_prob in 0.0..0.8f64,
            seed in 0u64..u64::MAX,
            vertices in 2usize..10,
            edges in collection::vec(0usize..1000, 2..48),
            costs in collection::vec(0.0..50.0f64, 1..48),
            dst in 0usize..1000,
            asks in collection::vec(0usize..1000, 0..40),
            dst_at in 0usize..1000,
        ) {
            let net = if hand_built == 1 {
                digraph(vertices, &edges)
            } else {
                let cfg = GridConfig {
                    nx: grid[0],
                    ny: grid[1],
                    removal_prob,
                    ..GridConfig::small_test()
                };
                grid_city(&cfg, seed)
            };
            let n = net.num_segments();
            let dst = dst % n;
            let cost = |s: SegmentId| segment_cost(costs[s % costs.len()]);
            let oracle = all_costs_to(&net, dst, &cost);
            let calls = Cell::new(0);
            let counted = |s: SegmentId| {
                calls.set(calls.get() + 1);
                cost(s)
            };
            let mut to = CostsTo::new(&net, dst, &counted);
            let mut asks: Vec<SegmentId> = asks.iter().map(|&s| s % n).collect();
            asks.insert(dst_at % (asks.len() + 1), dst);
            for s in asks {
                prop_assert_eq!(to.get(s).to_bits(), oracle[s].to_bits(), "segment {}", s);
            }
            let settled = to.settled.iter().filter(|&&b| b).count();
            prop_assert_eq!(calls.get(), settled);
            prop_assert!(settled <= n);
        }
    }
}
