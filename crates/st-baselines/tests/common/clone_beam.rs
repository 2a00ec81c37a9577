//! The clone-based beam search that [`st_baselines::BeamSearch`] replaced:
//! the oracle of the route-tree search.
//!
//! The library's search keeps its routes as a parent-pointer tree and
//! builds a route only when the search ends. This file keeps the search it
//! replaced, which owns every live prefix's route and clones each
//! survivor's route at every step, with the same expansion order, stable
//! sort, exact bound, closure masking and completion tie-break. The
//! `beam_oracle` tests drive both over the same log-probs and require the
//! same plans, survivors and routes at every step.

#![allow(dead_code)]

use st_baselines::TERM_SCALE_M;
use st_roadnet::{Point, RoadNetwork, Route, SegmentId};

/// The decoder's termination probability `f_s`.
fn p_stop(net: &RoadNetwork, seg: SegmentId, dest: &Point) -> f64 {
    let proj = net.project_onto(dest, seg);
    let d = proj.dist(dest) / TERM_SCALE_M;
    (-d * d).exp().clamp(1e-12, 0.95)
}

/// Count one step whose `out_degree` successors exceed the model's `width`
/// slots, as the decoder does.
fn note_truncation(out_degree: usize, width: usize) {
    st_obs::counter("decode.truncated_transitions").inc();
    st_obs::counter("decode.truncated_slots").add((out_degree - width) as u64);
}

/// One scored successor of a live prefix, carried as `(parent, next)`
/// instead of a materialized route: routes are cloned only for the
/// `<= beam_width` survivors (plus at most one completion per depth), not
/// for every scored successor.
struct Expansion {
    next: SegmentId,
    logp: f64,
    parent_row: usize,
    parent_live: usize,
}

/// The beam search as it was before the route tree: every live prefix and
/// the best completion own their whole route, and each step clones every
/// survivor's route into a fresh live vector.
pub struct CloneBeamSearch {
    beam_width: usize,
    /// Slot log-probs per row emitted by the model (`StepDecoder::width`).
    width: usize,
    dest: Point,
    /// `live[i]` is `(route, logp)`; its recurrent state is whatever row
    /// the caller's state holds for it (row `i` after a survivor gather).
    live: Vec<(Route, f64)>,
    best_complete: Option<(Route, f64)>,
    /// Memo of `(ln f_s, ln (1 − f_s))` per segment — the destination is
    /// fixed for the whole decode, so `p_stop` depends only on the segment,
    /// and segments recur across depths and beam rows. NaN = not yet
    /// computed; the clamp keeps `f_s` in `[1e-12, 0.95]`, so both logs are
    /// finite and NaN unambiguous.
    ps_memo: Vec<(f64, f64)>,
    /// Expansion rounds left (`max_len −` initial route length).
    remaining: usize,
    finished: bool,
    /// Closed segments (sorted): masked to −∞ transition log-prob, with the
    /// distribution renormalized over the open successors. Empty = no
    /// masking, the historical code path bit for bit.
    closed: Vec<SegmentId>,
    /// Scratch reused across depths.
    tokens: Vec<SegmentId>,
    steppable: Vec<usize>,
    survivors: Vec<usize>,
}

fn p_stop_logs(
    ps_memo: &mut [(f64, f64)],
    net: &RoadNetwork,
    seg: SegmentId,
    dest: &Point,
) -> (f64, f64) {
    let v = ps_memo[seg];
    if v.0.is_nan() {
        let ps = p_stop(net, seg, dest);
        let v = (ps.ln(), (1.0 - ps).ln());
        ps_memo[seg] = v;
        v
    } else {
        v
    }
}

impl CloneBeamSearch {
    /// Start a search whose single live prefix is `initial` (ordinarily
    /// `vec![start]`; a longer prefix for continuation queries — the caller
    /// is responsible for having warmed its recurrent state on
    /// `initial[..len-1]`). Routes never exceed `max_len` segments.
    pub fn new(
        net: &RoadNetwork,
        initial: Route,
        dest: Point,
        beam_width: usize,
        width: usize,
        max_len: usize,
    ) -> Self {
        assert!(beam_width >= 1);
        assert!(!initial.is_empty(), "initial route must not be empty");
        let remaining = max_len.saturating_sub(initial.len());
        Self {
            beam_width,
            width,
            dest,
            live: vec![(initial, 0.0)],
            best_complete: None,
            ps_memo: vec![(f64::NAN, f64::NAN); net.num_segments()],
            remaining,
            finished: false,
            closed: Vec::new(),
            tokens: Vec::new(),
            steppable: Vec::new(),
            survivors: Vec::new(),
        }
    }

    /// Mask `closed` segments (e.g. `VersionedTraffic::closed_segments` at
    /// admission time) out of every transition
    /// distribution: a closed successor scores −∞ — never expanded, never a
    /// completion — and the remaining probability renormalizes over the open
    /// successors. When *every* successor of a prefix is closed the row
    /// falls back to the unmasked distribution (bumping
    /// `decode.closed.fallback`): a vehicle boxed in by closures still needs
    /// a route, and a guessed route beats none.
    pub fn set_closed_segments(&mut self, closed: &[SegmentId]) {
        self.closed = closed.to_vec();
        self.closed.sort_unstable();
        self.closed.dedup();
    }

    fn is_closed(&self, seg: SegmentId) -> bool {
        self.closed.binary_search(&seg).is_ok()
    }

    /// Plan the next batched step: `(tokens, rows)` where `tokens[k]` is the
    /// head segment to feed for live prefix `rows[k]` — live prefixes whose
    /// head has successors, in live order (dead-ended prefixes drop out of
    /// the beam, exactly as in the clone-and-step formulation). The caller
    /// must gather state rows `rows`, run one batched step on `tokens`, and
    /// hand the resulting log-probs to [`CloneBeamSearch::apply_step`]. Returns
    /// `None` when the search is over (length cap, dead ends, or no prefix
    /// left that can beat the best complete route).
    pub fn plan_step(&mut self, net: &RoadNetwork) -> Option<(&[SegmentId], &[usize])> {
        if self.finished || self.remaining == 0 {
            self.finished = true;
            return None;
        }
        self.remaining -= 1;
        self.tokens.clear();
        self.steppable.clear();
        for (i, (route, _)) in self.live.iter().enumerate() {
            let Some(&cur) = route.last() else { continue };
            if !net.next_segments(cur).is_empty() {
                self.tokens.push(cur);
                self.steppable.push(i);
            }
        }
        if self.tokens.is_empty() {
            self.finished = true;
            return None;
        }
        Some((&self.tokens, &self.steppable))
    }

    /// Consume one planned step's log-probs (`planned rows × width()`,
    /// row-major, in [`CloneBeamSearch::plan_step`] row order): score expansions
    /// and completions, keep the best `beam_width` live prefixes, and return
    /// the surviving parent rows (indices into the *stepped* rows) for the
    /// caller to gather its state by. `None` means the search concluded at
    /// this depth: no expansion scores above the best complete route.
    pub fn apply_step(&mut self, net: &RoadNetwork, logp: &[f64]) -> Option<&[usize]> {
        let width = self.width;
        let mut expansions: Vec<Expansion> = Vec::new();
        // Best completion found at this depth, by parent + next segment;
        // materialized once after the scan. Seeding the running score from
        // the stored best keeps the "first strict improvement wins"
        // tie-break identical to scoring completions eagerly.
        let mut pending_complete: Option<(usize, SegmentId)> = None;
        let mut best_score = self
            .best_complete
            .as_ref()
            .map(|(_, s)| *s)
            .unwrap_or(f64::NEG_INFINITY);
        for (row, &i) in self.steppable.iter().enumerate() {
            let (route, item_logp) = &self.live[i];
            let Some(&cur) = route.last() else { continue };
            let nexts = net.next_segments(cur);
            if nexts.len() > width {
                note_truncation(nexts.len(), width);
            }
            // renormalize over the valid slots
            let lrow = &logp[row * width..(row + 1) * width];
            let valid = &lrow[..nexts.len().min(width)];
            // Closure masking: drop closed successors before renormalizing,
            // unless that would drop all of them (boxed-in fallback). With
            // no closures the skip predicate is constant-false and the fold
            // below performs the historical float ops in the historical
            // order — bit-identical.
            let mut mask = !self.closed.is_empty()
                && nexts.iter().take(valid.len()).any(|&n| self.is_closed(n));
            if mask && nexts.iter().take(valid.len()).all(|&n| self.is_closed(n)) {
                st_obs::counter("decode.closed.fallback").inc();
                st_obs::warn_once(
                    "decode.closed-fallback",
                    "every successor closed: decoding over the unmasked distribution",
                );
                mask = false;
            }
            let closed_list = &self.closed;
            let skip = |j: usize| mask && closed_list.binary_search(&nexts[j]).is_ok();
            let mut m = f64::NEG_INFINITY;
            for (j, &v) in valid.iter().enumerate() {
                if !skip(j) {
                    m = f64::max(m, v);
                }
            }
            let mut sum_exp = 0.0f64;
            for (j, &v) in valid.iter().enumerate() {
                if !skip(j) {
                    sum_exp += (v - m).exp();
                }
            }
            let lse = m + sum_exp.ln();
            for (j, &next) in nexts.iter().enumerate().take(valid.len()) {
                if skip(j) {
                    continue; // −∞ log-prob: closed successors never score
                }
                let lp_trans = valid[j] - lse;
                let (ln_ps, ln_go) = p_stop_logs(&mut self.ps_memo, net, next, &self.dest);
                // completion candidate: stop right after this segment
                let complete_score = item_logp + lp_trans + ln_ps;
                if complete_score > best_score {
                    best_score = complete_score;
                    pending_complete = Some((i, next));
                }
                expansions.push(Expansion {
                    next,
                    logp: item_logp + lp_trans + ln_go,
                    parent_row: row,
                    parent_live: i,
                });
            }
        }
        if let Some((i, next)) = pending_complete {
            let mut route = self.live[i].0.clone();
            route.push(next);
            self.best_complete = Some((route, best_score));
        }
        // keep the best `beam_width` live prefixes (stable sort: ties keep
        // expansion order, matching the clone-and-step decoder)
        expansions.sort_by(|a, b| b.logp.total_cmp(&a.logp));
        expansions.truncate(self.beam_width);
        // Exact bound: every score increment is ≤ 0 (`lp_trans ≤ 0`,
        // `ln f_s ≤ ln 0.95`, `ln (1 − f_s) < 0`) and f64 rounding is
        // monotone, so a prefix at or below the best complete score can
        // never grow into a strictly better completion. Dropping it after
        // the truncate leaves the surviving live prefixes, their order and
        // `best_complete` exactly as if it had been kept; only the model
        // steps it would have taken go. NaN rows stay, as before.
        if let Some((_, best)) = &self.best_complete {
            expansions.retain(|e| e.logp > *best || e.logp.is_nan());
        }
        if expansions.is_empty() {
            self.finished = true;
            return None;
        }
        // survivors: the caller gathers their parents' post-step state rows;
        // we materialize only the surviving routes.
        self.survivors.clear();
        self.survivors
            .extend(expansions.iter().map(|e| e.parent_row));
        self.live = expansions
            .iter()
            .map(|e| {
                let mut route = self.live[e.parent_live].0.clone();
                route.push(e.next);
                (route, e.logp)
            })
            .collect();
        Some(&self.survivors)
    }

    /// Conclude the search: the best complete candidate found, falling back
    /// to the best live prefix when no completion was ever scored (dead-end
    /// start or `max_len == 1`). Bumps `decode.beam.{complete,fallback}`.
    pub fn into_route(self) -> Route {
        match self.best_complete {
            Some((route, _)) => {
                st_obs::counter("decode.beam.complete").inc();
                route
            }
            None => {
                st_obs::counter("decode.beam.fallback").inc();
                self.live
                    .into_iter()
                    .next()
                    .map(|(route, _)| route)
                    .unwrap_or_default()
            }
        }
    }
}
