//! Hidden-Markov-Model map matching (Newson & Krumm, SIGSPATIAL 2009 — the
//! paper's reference \[42\]).
//!
//! States at each GPS point are nearby candidate segments; the emission
//! probability decays with the Gaussian of the projection distance, and the
//! transition probability decays exponentially with the difference between
//! the straight-line distance of consecutive points and the on-network route
//! distance between their projections. Decoding is Viterbi.

use st_roadnet::{geo, Point, RoadNetwork, Route, SegmentId, SegmentIndex};
use st_sim::GpsPoint;

/// Map-matcher configuration.
#[derive(Debug, Clone)]
pub struct MatchConfig {
    /// GPS noise standard deviation σ_z (m).
    pub sigma_z: f64,
    /// Transition scale β (m) — tolerance for detours between fixes.
    pub beta: f64,
    /// Candidate search radius (m).
    pub cand_radius: f64,
    /// Maximum candidates per point (closest kept).
    pub max_cands: usize,
}

impl Default for MatchConfig {
    fn default() -> Self {
        Self {
            sigma_z: 15.0,
            beta: 60.0,
            cand_radius: 120.0,
            max_cands: 8,
        }
    }
}

/// The HMM map matcher.
pub struct MapMatcher<'a> {
    net: &'a RoadNetwork,
    index: SegmentIndex,
    cfg: MatchConfig,
}

impl<'a> MapMatcher<'a> {
    /// Build a matcher (constructs a spatial index over the network).
    pub fn new(net: &'a RoadNetwork, cfg: MatchConfig) -> Self {
        let index = SegmentIndex::build(net, cfg.cand_radius.max(50.0));
        Self { net, index, cfg }
    }

    /// Candidate segments for a point, with projection distances, closest
    /// first.
    fn candidates(&self, p: &Point) -> Vec<(SegmentId, f64)> {
        let mut cands: Vec<(SegmentId, f64)> = self
            .index
            .candidates(p, self.cfg.cand_radius + 400.0)
            .into_iter()
            .map(|s| (s, self.net.dist_to_segment(p, s)))
            .filter(|&(_, d)| d <= self.cfg.cand_radius)
            .collect();
        cands.sort_by(|a, b| a.1.total_cmp(&b.1));
        cands.truncate(self.cfg.max_cands);
        if cands.is_empty() {
            // fall back to the single nearest segment so matching never
            // breaks on an outlier fix
            if let Some(s) = self.index.nearest(self.net, p) {
                cands.push((s, self.net.dist_to_segment(p, s)));
            }
        }
        cands
    }

    /// Viterbi decode: the most likely candidate segment for every GPS point.
    /// Returns `None` for trajectories with fewer than 1 point.
    pub fn match_points(&self, traj: &[GpsPoint]) -> Option<Vec<SegmentId>> {
        if traj.is_empty() {
            return None;
        }
        let cand_sets: Vec<Vec<(SegmentId, f64)>> =
            traj.iter().map(|gp| self.candidates(&gp.p)).collect();
        if cand_sets.iter().any(Vec::is_empty) {
            return None;
        }
        // log emission: -d²/(2σ²)
        let emit = |d: f64| -(d * d) / (2.0 * self.cfg.sigma_z * self.cfg.sigma_z);
        let mut score: Vec<f64> = cand_sets[0].iter().map(|&(_, d)| emit(d)).collect();
        let mut back: Vec<Vec<usize>> = Vec::with_capacity(traj.len());
        for i in 1..traj.len() {
            let gc = traj[i - 1].p.dist(&traj[i].p);
            let mut new_score = vec![f64::NEG_INFINITY; cand_sets[i].len()];
            let mut bp = vec![0usize; cand_sets[i].len()];
            for (j, &(sj, dj)) in cand_sets[i].iter().enumerate() {
                for (k, &(sk, _)) in cand_sets[i - 1].iter().enumerate() {
                    // st-lint: allow(float-eq) — NEG_INFINITY is an exact sentinel
                    if score[k] == f64::NEG_INFINITY {
                        continue;
                    }
                    let bound = gc * 4.0 + 8.0 * self.cfg.beta + 500.0;
                    let lt =
                        match route_distance(self.net, sk, &traj[i - 1].p, sj, &traj[i].p, bound) {
                            Some(rd) => -(rd - gc).abs() / self.cfg.beta,
                            None => continue,
                        };
                    let s = score[k] + lt + emit(dj);
                    if s > new_score[j] {
                        new_score[j] = s;
                        bp[j] = k;
                    }
                }
            }
            // If every transition was pruned (bound too tight / disconnected),
            // restart the chain at this point rather than failing outright.
            // st-lint: allow(float-eq) — NEG_INFINITY is an exact sentinel
            if new_score.iter().all(|&s| s == f64::NEG_INFINITY) {
                new_score = cand_sets[i].iter().map(|&(_, d)| emit(d)).collect();
            }
            score = new_score;
            back.push(bp);
        }
        // Backtrack.
        let mut j = score
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i)?;
        let mut out = vec![0usize; traj.len()];
        out[traj.len() - 1] = j;
        for i in (1..traj.len()).rev() {
            j = back[i - 1][j];
            out[i - 1] = j;
        }
        Some(
            out.iter()
                .enumerate()
                .map(|(i, &k)| cand_sets[i][k].0)
                .collect(),
        )
    }

    /// Match and stitch: the full connected route through the matched
    /// segments (shortest-path gap filling between consecutive matches).
    pub fn match_route(&self, traj: &[GpsPoint]) -> Option<Route> {
        let matched = self.match_points(traj)?;
        let mut route: Route = vec![matched[0]];
        for &next in &matched[1..] {
            let cur = route.last().copied().unwrap_or(matched[0]);
            if next == cur {
                continue;
            }
            let (path, _) =
                st_roadnet::shortest_route(self.net, cur, next, &|s| self.net.segment(s).length)?;
            route.extend_from_slice(&path[1..]);
        }
        Some(route)
    }
}

/// On-network travel distance between the projection of `p_from` on
/// `from` and the projection of `p_to` on `to`, bounded Dijkstra with early
/// exit past `bound` meters. Returns `None` when no route within the bound.
pub fn route_distance(
    net: &RoadNetwork,
    from: SegmentId,
    p_from: &Point,
    to: SegmentId,
    p_to: &Point,
    bound: f64,
) -> Option<f64> {
    let (a1, b1) = (net.start_point(from), net.end_point(from));
    let (_, t_from) = geo::project_onto_segment(p_from, &a1, &b1);
    let (a2, b2) = (net.start_point(to), net.end_point(to));
    let (_, t_to) = geo::project_onto_segment(p_to, &a2, &b2);
    if from == to {
        return Some(((t_to - t_from) * net.segment(from).length).abs());
    }
    // Remaining distance on `from` after the projection, then the shortest
    // chain of intermediate segments, then the prefix of `to`.
    let head = (1.0 - t_from) * net.segment(from).length;
    let tail = t_to * net.segment(to).length;
    // Bounded Dijkstra over segment lengths: cost of the path between the
    // exit of `from` and the entry of `to` (sum of full intermediate
    // segments).
    let mid = bounded_mid_distance(net, from, to, bound)?;
    Some(head + mid + tail)
}

/// Sum of intermediate-segment lengths on the shortest chain
/// `from → … → to`, excluding both endpoints. Early-exits past `bound`.
fn bounded_mid_distance(
    net: &RoadNetwork,
    from: SegmentId,
    to: SegmentId,
    bound: f64,
) -> Option<f64> {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;
    #[derive(PartialEq)]
    struct E(f64, SegmentId);
    impl Eq for E {}
    impl Ord for E {
        fn cmp(&self, other: &Self) -> Ordering {
            other.0.total_cmp(&self.0)
        }
    }
    impl PartialOrd for E {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    let mut dist = std::collections::HashMap::new();
    let mut heap = BinaryHeap::new();
    dist.insert(from, 0.0f64);
    heap.push(E(0.0, from));
    while let Some(E(d, seg)) = heap.pop() {
        if d > bound {
            return None;
        }
        if seg == to {
            // subtract `to`'s own length: the caller adds the partial prefix
            return Some(d - net.segment(to).length);
        }
        if d > *dist.get(&seg).unwrap_or(&f64::INFINITY) {
            continue;
        }
        for &next in net.next_segments(seg) {
            let nd = d + net.segment(next).length;
            if nd <= bound && nd < *dist.get(&next).unwrap_or(&f64::INFINITY) {
                dist.insert(next, nd);
                heap.push(E(nd, next));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_roadnet::{grid_city, GridConfig};
    use st_sim::{sample_gps, CityPreset, Dataset, TrafficConfig, TrafficModel};

    #[test]
    fn route_distance_same_segment() {
        let net = grid_city(&GridConfig::small_test(), 0);
        let a = net.start_point(0);
        let b = net.end_point(0);
        let p1 = a.lerp(&b, 0.2);
        let p2 = a.lerp(&b, 0.7);
        let d = route_distance(&net, 0, &p1, 0, &p2, 1e9).unwrap();
        assert!((d - 0.5 * net.segment(0).length).abs() < 1e-6);
    }

    #[test]
    fn route_distance_adjacent() {
        let net = grid_city(&GridConfig::small_test(), 0);
        let s = 0;
        let n = net.next_segments(s)[0];
        let p1 = net.start_point(s).lerp(&net.end_point(s), 0.5);
        let p2 = net.start_point(n).lerp(&net.end_point(n), 0.5);
        let d = route_distance(&net, s, &p1, n, &p2, 1e9).unwrap();
        let want = 0.5 * net.segment(s).length + 0.5 * net.segment(n).length;
        assert!((d - want).abs() < 1e-6, "{d} vs {want}");
    }

    #[test]
    fn route_distance_respects_bound() {
        let net = grid_city(&GridConfig::small_test(), 0);
        let far = net.num_segments() - 1;
        let p1 = net.midpoint(0);
        let p2 = net.midpoint(far);
        assert!(route_distance(&net, 0, &p1, far, &p2, 1.0).is_none());
    }

    #[test]
    fn matches_noiseless_dense_trace_exactly() {
        let ds = Dataset::generate(&CityPreset::tiny_test(), 40, 21);
        let matcher = MapMatcher::new(&ds.net, MatchConfig::default());
        let tm = TrafficModel::generate(&ds.net, &TrafficConfig::default(), 99);
        let mut rng = rand::SeedableRng::seed_from_u64(5);
        let mut exact = 0;
        let mut total = 0;
        for trip in ds.trips.iter().take(10) {
            // re-sample the trip's route densely with zero noise
            let (traj, _) = sample_gps(
                &ds.net,
                &tm,
                &trip.route,
                trip.start_time,
                4.0,
                0.0,
                &mut rng,
            );
            let matched = matcher.match_route(&traj).expect("match failed");
            total += 1;
            // The true route must appear as a contiguous subsequence; the
            // matcher may overhang by at most one segment at each end,
            // because the first/last fixes sit exactly on an intersection
            // vertex, where the incident segment is genuinely ambiguous.
            let contains = matched
                .windows(trip.route.len())
                .any(|w| w == trip.route.as_slice());
            if contains && matched.len() <= trip.route.len() + 2 {
                exact += 1;
            }
        }
        // Trips in the test city are forced to be ≥ 1 km on a 750 m-wide
        // grid, so some routes double back; twin-segment ambiguity then
        // occasionally costs more than the endpoint slack. Require 8/10.
        assert!(
            exact >= total - 2,
            "only {exact}/{total} noiseless traces matched (up to endpoint ambiguity)"
        );
    }

    #[test]
    fn noisy_trace_recovers_most_of_route() {
        let ds = Dataset::generate(&CityPreset::tiny_test(), 40, 22);
        let matcher = MapMatcher::new(&ds.net, MatchConfig::default());
        let mut good = 0;
        let mut total = 0;
        for trip in ds.trips.iter().take(10) {
            let matched = matcher.match_route(&trip.gps).expect("match failed");
            let inter: usize = {
                let set: std::collections::BTreeSet<_> = matched.iter().collect();
                trip.route.iter().filter(|s| set.contains(s)).count()
            };
            total += trip.route.len();
            good += inter;
        }
        let frac = good as f64 / total as f64;
        assert!(frac > 0.8, "noisy match recall too low: {frac}");
    }

    #[test]
    fn empty_trajectory_is_none() {
        let ds = Dataset::generate(&CityPreset::tiny_test(), 5, 23);
        let matcher = MapMatcher::new(&ds.net, MatchConfig::default());
        assert!(matcher.match_points(&[]).is_none());
    }

    #[test]
    fn single_point_matches_nearest() {
        let ds = Dataset::generate(&CityPreset::tiny_test(), 5, 24);
        let matcher = MapMatcher::new(&ds.net, MatchConfig::default());
        let p = ds.net.midpoint(3);
        let gp = st_sim::GpsPoint {
            p,
            t: 0.0,
            speed: 1.0,
        };
        let m = matcher.match_points(&[gp]).unwrap();
        assert_eq!(m.len(), 1);
        assert!(ds.net.dist_to_segment(&p, m[0]) < 1.0);
    }
}
