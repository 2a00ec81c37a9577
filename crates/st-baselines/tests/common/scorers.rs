//! Stateless toy scorers for the beam tests: their slot log-probs depend
//! only on the current segment, so exhaustive search is cheap and two
//! searches can be fed the same log-probs.

#![allow(dead_code)]

use st_baselines::StepDecoder;
use st_roadnet::{RoadNetwork, SegmentId};

/// A deterministic toy scorer whose slot log-probs depend on the current
/// segment id. Its 97 score levels make exact ties occur.
pub struct ToyScorer {
    pub salt: u64,
    pub width: usize,
}

impl ToyScorer {
    /// Pseudo-random but deterministic log-prob for (salt, seg, slot).
    pub fn lp(&self, seg: SegmentId, j: usize) -> f64 {
        let h = seg
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(j * 0x85EB_CA6B)
            .wrapping_add(self.salt as usize);
        -((h % 97) as f64) / 23.0
    }
}

/// A scorer that gives every slot the same log-prob, so every expansion of
/// a prefix ties with its siblings.
pub struct FlatScorer {
    pub width: usize,
}

/// Refill `logp` with `lp(seg, j)` for each token's first `out-degree`
/// slots and −∞ past them.
fn fill(
    net: &RoadNetwork,
    tokens: &[SegmentId],
    width: usize,
    logp: &mut Vec<f64>,
    lp: impl Fn(SegmentId, usize) -> f64,
) {
    logp.clear();
    for &seg in tokens {
        let deg = net.next_segments(seg).len();
        for j in 0..width {
            logp.push(if j < deg {
                lp(seg, j)
            } else {
                f64::NEG_INFINITY
            });
        }
    }
}

impl StepDecoder for ToyScorer {
    type State = ();
    fn width(&self) -> usize {
        self.width
    }
    fn init_state(&mut self, _n: usize) {}
    fn step(
        &mut self,
        net: &RoadNetwork,
        tokens: &[SegmentId],
        _state: &mut (),
        logp: &mut Vec<f64>,
    ) {
        fill(net, tokens, self.width, logp, |seg, j| self.lp(seg, j));
    }
    fn gather(&mut self, _state: &(), _rows: &[usize]) {}
}

impl StepDecoder for FlatScorer {
    type State = ();
    fn width(&self) -> usize {
        self.width
    }
    fn init_state(&mut self, _n: usize) {}
    fn step(
        &mut self,
        net: &RoadNetwork,
        tokens: &[SegmentId],
        _state: &mut (),
        logp: &mut Vec<f64>,
    ) {
        fill(net, tokens, self.width, logp, |_, _| 0.0);
    }
    fn gather(&mut self, _state: &(), _rows: &[usize]) {}
}
