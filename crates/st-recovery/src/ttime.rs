//! The temporal inference module of STRS \[2\]: `P(t | r)`.
//!
//! Travel time of a route is modeled as a Gaussian whose mean and variance
//! are sums of per-segment statistics estimated from historical trips (each
//! trip's observed average speed is attributed to the segments it covers —
//! the same observable-only estimator the WSP baseline uses, plus second
//! moments).

use st_roadnet::{RoadNetwork, Route, SegmentId};

/// Per-segment travel-time statistics.
pub struct TravelTimeModel {
    mean: Vec<f64>,
    var: Vec<f64>,
}

impl TravelTimeModel {
    /// Fit from `(route, duration_secs)` pairs.
    pub fn fit<'a>(net: &RoadNetwork, trips: impl IntoIterator<Item = (&'a Route, f64)>) -> Self {
        let n = net.num_segments();
        // accumulate per-segment per-trip travel times (length / trip speed)
        let mut sum = vec![0.0f64; n];
        let mut sum_sq = vec![0.0f64; n];
        let mut cnt = vec![0u32; n];
        let mut g_sum = 0.0;
        let mut g_sq = 0.0;
        let mut g_cnt = 0u64;
        for (route, duration) in trips {
            let len = net.route_length(route);
            if duration <= 0.0 || len <= 0.0 {
                continue;
            }
            let speed = len / duration;
            for &s in route {
                let t = net.segment(s).length / speed;
                sum[s] += t;
                sum_sq[s] += t * t;
                cnt[s] += 1;
                g_sum += t;
                g_sq += t * t;
                g_cnt += 1;
            }
        }
        let g_mean = if g_cnt > 0 {
            g_sum / g_cnt as f64
        } else {
            10.0
        };
        let g_var = if g_cnt > 1 {
            (g_sq / g_cnt as f64 - g_mean * g_mean).max(1.0)
        } else {
            25.0
        };
        let mut mean = vec![0.0; n];
        let mut var = vec![0.0; n];
        for s in 0..n {
            if cnt[s] >= 2 {
                let m = sum[s] / cnt[s] as f64;
                mean[s] = m;
                var[s] = (sum_sq[s] / cnt[s] as f64 - m * m).max(0.25);
            } else {
                // unobserved: scale global stats by segment length ratio
                let scale = net.segment(s).length / 100.0;
                mean[s] = g_mean * scale.max(0.1);
                var[s] = g_var * scale.max(0.1);
            }
        }
        Self { mean, var }
    }

    /// Expected travel time of a segment (s).
    pub fn mean(&self, s: SegmentId) -> f64 {
        self.mean[s]
    }

    /// Gaussian log-likelihood of observing travel time `t` on `route`.
    pub fn log_prob(&self, route: &[SegmentId], t: f64) -> f64 {
        let mu: f64 = route.iter().map(|&s| self.mean[s]).sum();
        let var: f64 = route.iter().map(|&s| self.var[s]).sum::<f64>().max(1.0);
        -0.5 * ((t - mu) * (t - mu) / var + var.ln() + (2.0 * std::f64::consts::PI).ln())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_roadnet::{grid_city, GridConfig};

    fn setup() -> (RoadNetwork, TravelTimeModel, Route) {
        let net = grid_city(&GridConfig::small_test(), 9);
        let mut route = vec![0usize];
        for _ in 0..4 {
            route.push(net.next_segments(*route.last().unwrap())[0]);
        }
        let len = net.route_length(&route);
        // several trips at ~8 m/s with slight variation
        let trips: Vec<(Route, f64)> = (0..10)
            .map(|i| (route.clone(), len / (8.0 + 0.1 * i as f64)))
            .collect();
        let model = TravelTimeModel::fit(&net, trips.iter().map(|(r, d)| (r, *d)));
        (net, model, route)
    }

    #[test]
    fn observed_mean_is_sensible() {
        let (net, model, route) = setup();
        let mu: f64 = route.iter().map(|&s| model.mean(s)).sum();
        let len = net.route_length(&route);
        let implied_speed = len / mu;
        assert!(
            (implied_speed - 8.45).abs() < 0.5,
            "implied speed {implied_speed}"
        );
    }

    #[test]
    fn true_time_scores_higher_than_wrong_time() {
        let (net, model, route) = setup();
        let len = net.route_length(&route);
        let t_true = len / 8.45;
        let good = model.log_prob(&route, t_true);
        let bad = model.log_prob(&route, t_true * 3.0);
        assert!(good > bad);
    }

    #[test]
    fn discriminates_between_routes_by_time() {
        let (net, model, route) = setup();
        // a much longer route should fit a long observed time better
        let long_route: Route = {
            let mut r = route.clone();
            for _ in 0..6 {
                let nexts = net.next_segments(*r.last().unwrap());
                r.push(nexts[nexts.len() - 1]);
            }
            r
        };
        let t_long: f64 = long_route.iter().map(|&s| model.mean(s)).sum();
        assert!(model.log_prob(&long_route, t_long) > model.log_prob(&route, t_long));
    }

    #[test]
    fn empty_history_does_not_panic() {
        let net = grid_city(&GridConfig::small_test(), 9);
        let model = TravelTimeModel::fit(&net, std::iter::empty());
        assert!(model.log_prob(&[0, 1], 30.0).is_finite());
    }
}
