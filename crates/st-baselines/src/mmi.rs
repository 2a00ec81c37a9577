//! MMI: the first-order Markov Model baseline (§V-A).
//!
//! Estimates `P(r_{i+1} | r_i)` by counting adjacent-segment transitions in
//! the historical trips, with add-one smoothing over the true adjacency.

use st_roadnet::{RoadNetwork, Route, SegmentId};

use crate::beam::{greedy_decode, StepDecoder};
use crate::predictor::{PredictQuery, Predictor};

/// First-order Markov transition model over road segments.
pub struct Mmi {
    /// `counts[s][slot]` = observed transitions from `s` to its `slot`-th
    /// neighbor.
    counts: Vec<Vec<f64>>,
    max_len: usize,
}

impl Mmi {
    /// Fit transition counts from training routes.
    pub fn fit<'a>(net: &RoadNetwork, routes: impl IntoIterator<Item = &'a Route>) -> Self {
        let mut counts: Vec<Vec<f64>> = (0..net.num_segments())
            .map(|s| vec![0.0; net.next_segments(s).len()])
            .collect();
        for route in routes {
            for w in route.windows(2) {
                if let Some(slot) = net.neighbor_slot(w[0], w[1]) {
                    counts[w[0]][slot] += 1.0;
                }
            }
        }
        Self {
            counts,
            max_len: 150,
        }
    }

    /// Transition probability `P(next | cur)` with add-one smoothing.
    pub fn prob(&self, net: &RoadNetwork, cur: SegmentId, next: SegmentId) -> f64 {
        let Some(slot) = net.neighbor_slot(cur, next) else {
            return 0.0;
        };
        let c = &self.counts[cur];
        let total: f64 = c.iter().sum::<f64>() + c.len() as f64;
        (c[slot] + 1.0) / total
    }

    /// Log-likelihood of a route under the Markov model.
    pub fn score_route(&self, net: &RoadNetwork, route: &[SegmentId]) -> f64 {
        let mut total = 0.0;
        for w in route.windows(2) {
            let p = self.prob(net, w[0], w[1]);
            if p <= 0.0 {
                return f64::NEG_INFINITY;
            }
            total += p.ln();
        }
        total
    }
}

/// [`StepDecoder`] view of an [`Mmi`], so the Markov model rolls out through
/// the shared decoders. Stateless; rows are padded to the network's maximum
/// out-degree, so no successor list is truncated.
pub struct MmiDecoder<'m> {
    mmi: &'m Mmi,
    width: usize,
}

impl<'m> MmiDecoder<'m> {
    /// Build a decoder view over `net`'s fixed slot width.
    pub fn new(mmi: &'m Mmi, net: &RoadNetwork) -> Self {
        Self {
            mmi,
            width: net.max_out_degree(),
        }
    }
}

impl StepDecoder for MmiDecoder<'_> {
    type State = ();

    fn width(&self) -> usize {
        self.width
    }

    fn init_state(&mut self, _n: usize) {}

    /// Each row's smoothed log-probs over its adjacent slots
    /// (`ln((count + 1) / (total + out-degree))`), written straight into
    /// `logp` and padded with −∞, so a warmed step allocates nothing.
    fn step(
        &mut self,
        _net: &RoadNetwork,
        tokens: &[SegmentId],
        _state: &mut (),
        logp: &mut Vec<f64>,
    ) {
        logp.clear();
        for &seg in tokens {
            let base = logp.len();
            let c = &self.mmi.counts[seg];
            let total: f64 = c.iter().sum::<f64>() + c.len() as f64;
            logp.extend(c.iter().take(self.width).map(|&n| ((n + 1.0) / total).ln()));
            logp.resize(base + self.width, f64::NEG_INFINITY);
        }
    }

    fn gather(&mut self, _state: &(), _rows: &[usize]) {}
}

impl Predictor for Mmi {
    fn name(&self) -> &str {
        "MMI"
    }

    fn predict(&self, net: &RoadNetwork, q: &PredictQuery<'_>) -> Route {
        // MMI is destination-blind: a greedy most-likely rollout; the
        // destination only *stops* generation (shared f_s rule), it never
        // steers the search.
        let mut dec = MmiDecoder::new(self, net);
        greedy_decode(net, &mut dec, q.start, &q.dest_coord, self.max_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_roadnet::{grid_city, GridConfig};

    fn net() -> RoadNetwork {
        grid_city(&GridConfig::small_test(), 4)
    }

    fn routes(net: &RoadNetwork) -> Vec<Route> {
        // 10 routes always taking slot 0, 2 taking slot 1 where available
        let mut out = Vec::new();
        for rep in 0..12 {
            let slot = if rep < 10 { 0 } else { 1 };
            let mut r = vec![0usize];
            for _ in 0..4 {
                let nexts = net.next_segments(*r.last().unwrap());
                let j = slot.min(nexts.len() - 1);
                r.push(nexts[j]);
            }
            out.push(r);
        }
        out
    }

    #[test]
    fn learns_majority_transition() {
        let net = net();
        let rs = routes(&net);
        let mmi = Mmi::fit(&net, &rs);
        let nexts = net.next_segments(0);
        // the greedy rollout takes the majority transition first
        let q = PredictQuery {
            start: 0,
            dest_coord: net.midpoint(net.num_segments() - 1),
            dest_norm: [0.9, 0.9],
            dest_segment: net.num_segments() - 1,
            traffic: &[],
            slot_id: 0,
        };
        assert_eq!(mmi.predict(&net, &q)[1], nexts[0]);
        // P(majority) > P(minority)
        if nexts.len() >= 2 {
            assert!(mmi.prob(&net, 0, nexts[0]) > mmi.prob(&net, 0, nexts[1]));
        }
    }

    #[test]
    fn probabilities_normalize() {
        let net = net();
        let mmi = Mmi::fit(&net, &routes(&net));
        for s in 0..net.num_segments() {
            let total: f64 = net
                .next_segments(s)
                .iter()
                .map(|&n| mmi.prob(&net, s, n))
                .sum();
            if !net.next_segments(s).is_empty() {
                assert!((total - 1.0).abs() < 1e-9, "segment {s}: total {total}");
            }
        }
    }

    #[test]
    fn unseen_transitions_are_smoothed_not_zero() {
        let net = net();
        let mmi = Mmi::fit(&net, &routes(&net));
        for &n in net.next_segments(7) {
            assert!(mmi.prob(&net, 7, n) > 0.0);
        }
        // non-adjacent is exactly zero
        let mut non_adj = None;
        for s in 0..net.num_segments() {
            if !net.adjacent(7, s) {
                non_adj = Some(s);
                break;
            }
        }
        assert_eq!(mmi.prob(&net, 7, non_adj.unwrap()), 0.0);
    }

    #[test]
    fn score_route_monotone_in_length() {
        let net = net();
        let rs = routes(&net);
        let mmi = Mmi::fit(&net, &rs);
        let r = &rs[0];
        assert!(mmi.score_route(&net, r) < mmi.score_route(&net, &r[..2]));
    }

    #[test]
    fn predicts_valid_route() {
        let net = net();
        let mmi = Mmi::fit(&net, &routes(&net));
        let q = PredictQuery {
            start: 0,
            dest_coord: net.midpoint(net.num_segments() - 1),
            dest_norm: [0.9, 0.9],
            dest_segment: net.num_segments() - 1,
            traffic: &[],
            slot_id: 0,
        };
        let r = mmi.predict(&net, &q);
        assert!(net.is_valid_route(&r));
        assert_eq!(r[0], 0);
    }
}
