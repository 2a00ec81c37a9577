//! The behavioural route-choice model generating ground-truth trips.
//!
//! Drivers are boundedly rational: at every crossroad they pick the next
//! segment by a softmax over utilities combining exactly the paper's three
//! explanatory factors:
//!
//! 1. **Sequential habit** — turn inertia (going straight is preferred over
//!    sharp turns) and per-segment corridor attractiveness (popular streets),
//!    making transitions depend on the traveled history, not just the
//!    current segment.
//! 2. **Destination pull** — the expected remaining travel time to the
//!    destination under the traffic at trip start, from a reverse Dijkstra
//!    that settles segments on demand: only as far as the segments the
//!    driver weighs.
//! 3. **Real-time traffic** — the remaining-time estimate uses the live
//!    [`TrafficModel`] speeds, so two trips with the same origin/destination
//!    at different times take different routes when congestion differs.
//!
//! A model that can exploit all three factors (DeepST) can therefore
//! out-predict models missing any of them, reproducing the causal structure
//! behind the paper's Table IV.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use st_roadnet::{geo, CostsTo, RoadNetwork, Route, SegmentId};

use crate::traffic::TrafficModel;

/// Behavioural parameters of the driver population.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriverConfig {
    /// Weight of (negative) remaining travel time, 1/s.
    pub beta_time: f64,
    /// Weight of (negative) turn angle, 1/rad.
    pub beta_turn: f64,
    /// Weight of corridor attractiveness.
    pub beta_habit: f64,
    /// Softmax temperature; → 0 makes drivers deterministic.
    pub temperature: f64,
    /// Hard cap on route length in segments (guard against pathologies).
    pub max_len: usize,
}

impl Default for DriverConfig {
    fn default() -> Self {
        Self {
            beta_time: 0.07,
            beta_turn: 0.8,
            beta_habit: 0.9,
            temperature: 0.55,
            max_len: 200,
        }
    }
}

/// Per-segment corridor attractiveness: a fixed, seeded "popularity" field
/// shared by the driver population. This is the habit signal models can
/// learn from history.
#[derive(Debug, Clone)]
pub struct Attractiveness {
    values: Vec<f64>,
}

impl Attractiveness {
    /// Sample attractiveness: arterials (faster base speed) plus a sparse set
    /// of extra-popular corridors.
    pub fn generate(net: &RoadNetwork, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA77A_AC71);
        let max_speed = (0..net.num_segments())
            .map(|s| net.segment(s).base_speed)
            .fold(0.0f64, f64::max);
        let values = (0..net.num_segments())
            .map(|s| {
                let arterial = net.segment(s).base_speed / max_speed; // in (0,1]
                let popular = if rng.gen::<f64>() < 0.15 {
                    rng.gen_range(0.5..1.0)
                } else {
                    0.0
                };
                arterial * 0.5 + popular
            })
            .collect();
        Self { values }
    }

    /// Attractiveness of a segment.
    pub fn of(&self, s: SegmentId) -> f64 {
        self.values[s]
    }
}

/// Simulate one trip's route.
///
/// Returns `None` when the driver fails to reach `dst` within
/// `cfg.max_len` segments (rare; such trips are discarded, mimicking
/// map-matching rejects in real pipelines).
#[allow(clippy::too_many_arguments)] // a trip is genuinely 8-dimensional
pub fn simulate_route(
    net: &RoadNetwork,
    traffic: &TrafficModel,
    attract: &Attractiveness,
    cfg: &DriverConfig,
    src: SegmentId,
    dst: SegmentId,
    start_time: f64,
    rng: &mut StdRng,
) -> Option<Route> {
    if src == dst {
        return Some(vec![src]);
    }
    // Remaining travel time to dst, under traffic frozen at the trip's start
    // (trips last minutes; events last tens of minutes). The reverse search
    // settles segments only as far as the segments asked for: src first,
    // then each successor the driver weighs.
    let travel_time = |s| traffic.travel_time(net, s, start_time);
    let mut cost_to_dst = CostsTo::new(net, dst, &travel_time);
    if !cost_to_dst.get(src).is_finite() {
        return None;
    }
    let mut route = vec![src];
    let mut cur = src;
    let mut t = start_time;
    while cur != dst && route.len() < cfg.max_len {
        let nexts = net.next_segments(cur);
        if nexts.is_empty() {
            return None;
        }
        let heading_cur = net.heading(cur);
        let utilities: Vec<f64> = nexts
            .iter()
            .map(|&n| {
                let to_dst = cost_to_dst.get(n);
                if !to_dst.is_finite() {
                    return f64::NEG_INFINITY;
                }
                let remaining = traffic.travel_time(net, n, t) + to_dst;
                let turn = geo::turn_angle(heading_cur, net.heading(n));
                // discourage immediate U-turns strongly
                let uturn = if net.reverse_of(cur) == Some(n) {
                    4.0
                } else {
                    0.0
                };
                (-cfg.beta_time * remaining - cfg.beta_turn * turn - uturn
                    + cfg.beta_habit * attract.of(n))
                    / cfg.temperature
            })
            .collect();
        let next = nexts[sample_softmax(&utilities, rng)?];
        t += traffic.travel_time(net, next, t);
        route.push(next);
        cur = next;
    }
    (cur == dst).then_some(route)
}

/// Sample an index proportionally to `exp(u)` with a numerically stable
/// shift. Returns `None` if every utility is −∞.
fn sample_softmax(utils: &[f64], rng: &mut StdRng) -> Option<usize> {
    let m = utils.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !m.is_finite() {
        return None;
    }
    let weights: Vec<f64> = utils.iter().map(|&u| (u - m).exp()).collect();
    let total: f64 = weights.iter().sum();
    let mut u = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if u < w {
            return Some(i);
        }
        u -= w;
    }
    Some(weights.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficConfig;
    use st_roadnet::{grid_city, GridConfig};

    fn setup() -> (RoadNetwork, TrafficModel, Attractiveness) {
        let net = grid_city(&GridConfig::small_test(), 3);
        let tm = TrafficModel::generate(&net, &TrafficConfig::default(), 3);
        let at = Attractiveness::generate(&net, 3);
        (net, tm, at)
    }

    #[test]
    fn routes_are_valid_and_terminate() {
        let (net, tm, at) = setup();
        let cfg = DriverConfig::default();
        let mut rng = StdRng::seed_from_u64(1);
        let mut ok = 0;
        for trial in 0..50 {
            let src = trial % net.num_segments();
            let dst = (trial * 7 + 3) % net.num_segments();
            if let Some(r) = simulate_route(&net, &tm, &at, &cfg, src, dst, 3600.0, &mut rng) {
                assert!(net.is_valid_route(&r), "invalid route {r:?}");
                assert_eq!(*r.first().unwrap(), src);
                assert_eq!(*r.last().unwrap(), dst);
                ok += 1;
            }
        }
        assert!(ok > 40, "too many failed trips: {ok}/50");
    }

    #[test]
    fn same_segment_trip() {
        let (net, tm, at) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let r = simulate_route(
            &net,
            &tm,
            &at,
            &DriverConfig::default(),
            5,
            5,
            0.0,
            &mut rng,
        )
        .unwrap();
        assert_eq!(r, vec![5]);
    }

    #[test]
    fn cold_drivers_roughly_minimize_time() {
        let (net, tm, at) = setup();
        // near-deterministic, time-dominated drivers
        let cfg = DriverConfig {
            beta_time: 1.0,
            beta_turn: 0.0,
            beta_habit: 0.0,
            temperature: 0.05,
            max_len: 200,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let src = 0;
        let dst = net.num_segments() - 1;
        let r = simulate_route(&net, &tm, &at, &cfg, src, dst, 7200.0, &mut rng).unwrap();
        let t_route: f64 = r[1..]
            .iter()
            .map(|&s| tm.travel_time(&net, s, 7200.0))
            .sum();
        let (_, t_best) =
            st_roadnet::shortest_route(&net, src, dst, &|s| tm.travel_time(&net, s, 7200.0))
                .unwrap();
        assert!(
            t_route <= t_best * 1.4 + 1.0,
            "cold driver far from optimal: {t_route} vs {t_best}"
        );
    }

    #[test]
    fn traffic_changes_route_choice() {
        // Drivers must react to congestion: across many simulations of the
        // same OD pair at two different times, route distributions differ.
        let (net, tm, at) = setup();
        let cfg = DriverConfig {
            temperature: 0.3,
            ..DriverConfig::default()
        };
        let src = 0;
        let dst = net.num_segments() - 1;
        let collect = |t: f64, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut counts = std::collections::BTreeMap::new();
            for _ in 0..40 {
                if let Some(r) = simulate_route(&net, &tm, &at, &cfg, src, dst, t, &mut rng) {
                    *counts.entry(r).or_insert(0usize) += 1;
                }
            }
            counts
        };
        // Find two times with differing modal routes; with dozens of traffic
        // events at least one pair among a handful of probes should differ.
        let times = [
            0.0,
            8.0 * 3600.0,
            30.0 * 3600.0,
            50.0 * 3600.0,
            80.0 * 3600.0,
        ];
        let modal: Vec<_> = times
            .iter()
            .map(|&t| {
                collect(t, 99)
                    .into_iter()
                    .max_by_key(|(_, c)| *c)
                    .map(|(r, _)| r)
            })
            .collect();
        let distinct: std::collections::BTreeSet<_> = modal.iter().collect();
        assert!(distinct.len() > 1, "route choice ignores traffic");
    }

    #[test]
    fn sample_softmax_handles_neg_infinity() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(sample_softmax(&[f64::NEG_INFINITY, 0.0], &mut rng), Some(1));
        assert_eq!(sample_softmax(&[f64::NEG_INFINITY], &mut rng), None);
    }

    #[test]
    fn attractiveness_prefers_arterials_on_average() {
        let (net, _, at) = setup();
        let mut art = Vec::new();
        let mut loc = Vec::new();
        for s in 0..net.num_segments() {
            if net.segment(s).base_speed > 10.0 {
                art.push(at.of(s));
            } else {
                loc.push(at.of(s));
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&art) > mean(&loc));
    }
}
