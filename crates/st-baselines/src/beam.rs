//! Beam decoding of the most likely route under the full generative
//! probability, including the termination Bernoulli of §IV-A:
//!
//! ```text
//! P(r) = Π_i P(r_{i+1} | r_{1:i}, ·) · Π_{i<n} (1 − f_s(r_{i+1}, x)) · f_s(r_n, x)
//! ```
//!
//! A greedy rollout (Algorithm 2 with argmax choices) suffers compounding
//! errors at small training scale; beam search over the *same* generative
//! probability is the deterministic "most likely route" decoder. It decodes
//! every destination-aware method (DeepST, DeepST-C, CSSRNN) the same way,
//! so the Table IV comparison isolates the models, not the decoders.
//!
//! The decoder is *batched*: all live beam prefixes advance through one
//! [`StepDecoder::step`] call per depth, with the recurrent state packed as
//! `[beam, hidden]` matrices, so the per-candidate GRU/GEMM work fuses into
//! single batched kernels instead of `beam_width` isolated steps. Because
//! the batched kernels compute each row exactly as a batch-1 step would,
//! the routes are bit-identical to the clone-and-step formulation (see the
//! `decode_parity` integration tests).
//!
//! [`greedy_decode`] is the other decoder over the same trait: a one-row
//! argmax rollout that `f_s` only stops, for the destination-blind methods
//! (RNN, MMI) and the greedy row of the ablations.

use st_core::{CancelToken, DeepSt, InferSession, TripContext};
use st_roadnet::{Point, RoadNetwork, Route, SegmentId};
use st_tensor::{Array, Param};

use crate::predictor::TERM_SCALE_M;

/// A batched stepwise sequence model usable by [`beam_decode`] and
/// [`greedy_decode`].
///
/// One implementor instance serves one trip (its context — destination,
/// traffic — is fixed at construction), owns whatever scratch memory the
/// steps need, and advances any number of candidate rows at once.
pub trait StepDecoder {
    /// Packed recurrent state for `n` candidate rows.
    type State;

    /// Number of slot log-probs emitted per row by [`StepDecoder::step`].
    ///
    /// **Truncation**: a fixed-width slot head (e.g. DeepST's
    /// `cfg.max_neighbors`-wide projection) may be narrower than
    /// `next_segments(seg)` at high-out-degree intersections. Both decoders
    /// then only consider the covered prefix of the successor list; each
    /// such step bumps the `decode.truncated_transitions` /
    /// `decode.truncated_slots` st-obs counters and a one-time process
    /// warning, and `DeepSt::lint_output_space` flags the config statically.
    fn width(&self) -> usize;

    /// Fresh packed state for `n` rows (before any segment is consumed).
    fn init_state(&mut self, n: usize) -> Self::State;

    /// Consume `tokens[i]` in row `i`: update `state` in place and refill
    /// `logp` with `tokens.len() × width()` row-major log-probs over each
    /// token's adjacent slots (entries past a row's out-degree are ignored).
    fn step(
        &mut self,
        net: &RoadNetwork,
        tokens: &[SegmentId],
        state: &mut Self::State,
        logp: &mut Vec<f64>,
    );

    /// New packed state whose row `i` is `state`'s row `rows[i]` — survivor
    /// selection. Rows may repeat or be dropped.
    fn gather(&mut self, state: &Self::State, rows: &[usize]) -> Self::State;

    /// Return a state's buffers to the decoder's scratch pool (optional).
    fn recycle(&mut self, _state: Self::State) {}
}

/// [`StepDecoder`] view of one trip in a tape-free [`InferSession`]: the
/// decoder of DeepST, DeepST-C, CSSRNN and the vanilla RNN. The recurrent
/// state is packed as `[rows, hidden]` matrices, so one beam step over all
/// candidates is one batched GEMM, and a warmed step allocates nothing.
pub struct SessionDecoder<'m> {
    sess: InferSession<'m>,
    /// The decoded trip's id in `sess`.
    trip: usize,
    /// Per-row trip ids for `step_into` (every row is `trip`), kept across
    /// steps so a step allocates nothing.
    rows: Vec<usize>,
}

/// The decoder of one DeepST trip, opened with [`SessionDecoder::new`].
pub type DeepStDecoder<'m> = SessionDecoder<'m>;

impl<'m> SessionDecoder<'m> {
    /// Open a decoder for one DeepST trip context.
    pub fn new(model: &'m DeepSt, ctx: &TripContext) -> Self {
        Self::open(model.infer_session(), model.trip_terms(ctx))
    }

    /// Register one trip by its slot-bias terms in `sess` (see
    /// [`InferSession::add_trip`]) and decode it.
    pub fn open<'a>(
        mut sess: InferSession<'m>,
        terms: impl IntoIterator<Item = (&'a Array, &'a Param)>,
    ) -> Self {
        let trip = sess.add_trip(terms);
        Self {
            sess,
            trip,
            rows: Vec::new(),
        }
    }
}

impl StepDecoder for SessionDecoder<'_> {
    type State = Vec<Array>;

    fn width(&self) -> usize {
        self.sess.width()
    }

    fn init_state(&mut self, n: usize) -> Vec<Array> {
        self.sess.zero_state(n)
    }

    fn step(
        &mut self,
        _net: &RoadNetwork,
        tokens: &[SegmentId],
        state: &mut Vec<Array>,
        logp: &mut Vec<f64>,
    ) {
        self.rows.clear();
        self.rows.resize(tokens.len(), self.trip);
        self.sess.step_into(tokens, &self.rows, state, logp);
    }

    fn gather(&mut self, state: &Vec<Array>, rows: &[usize]) -> Vec<Array> {
        self.sess.gather_state(state, rows)
    }

    fn recycle(&mut self, state: Vec<Array>) {
        self.sess.recycle_state(state);
    }
}

/// The termination probability `f_s` used by the decoder: a Gaussian in the
/// distance between the destination and its projection on the segment.
///
/// The paper's `f_s = 1/(1 + ‖p(x,r) − x‖)` leaves the distance unit
/// unspecified; with any flat-tailed form, stopping far from the destination
/// is only polynomially unlikely, which biases maximum-probability decoding
/// toward degenerate short routes. The Gaussian keeps `f_s ≈ 1` at the
/// destination and makes a distant stop exponentially unlikely — the
/// behaviour the paper's generative story intends.
fn p_stop(net: &RoadNetwork, seg: SegmentId, dest: &Point) -> f64 {
    let proj = net.project_onto(dest, seg);
    let d = proj.dist(dest) / TERM_SCALE_M;
    (-d * d).exp().clamp(1e-12, 0.95)
}

/// Count one step whose `out_degree` successors exceed the model's `width`
/// slots (see [`StepDecoder::width`]) and warn once per process.
fn note_truncation(out_degree: usize, width: usize) {
    st_obs::counter("decode.truncated_transitions").inc();
    st_obs::counter("decode.truncated_slots").add((out_degree - width) as u64);
    st_obs::warn_once(
        "decode.truncated-output-space",
        &format!(
            "out-degree {out_degree} exceeds the scorer's {width}-slot output: {} adjacent \
             segment(s) unreachable in decoding",
            out_degree - width
        ),
    );
}

/// A decode that was cancelled mid-search by its [`CancelToken`].
#[derive(Debug, Clone)]
pub struct DecodeCancelled {
    /// The best route known at the moment of cancellation: the best
    /// complete candidate if one was scored, otherwise the best live
    /// prefix. Always starts with the requested prefix.
    pub partial: Route,
}

impl std::fmt::Display for DecodeCancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "decode cancelled after reaching {} segment(s)",
            self.partial.len()
        )
    }
}

impl std::error::Error for DecodeCancelled {}

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

/// The beam search itself, factored out of [`beam_decode`] as a *resumable*
/// state machine: [`BeamSearch::plan_step`] names the rows that need one
/// batched model step, the caller runs that step however it likes (its own
/// [`StepDecoder`], or `st-serve`'s cross-request coalesced batch), and
/// [`BeamSearch::apply_step`] consumes the log-probs and reports the
/// surviving parent rows to gather. Driving it serially (as [`beam_decode`]
/// does) reproduces the original monolithic loop exactly — same expansions,
/// same tie-breaks, same counters — so one search implementation serves
/// both the offline decoder and the serving scheduler.
pub struct BeamSearch {
    beam_width: usize,
    /// Slot log-probs per row emitted by the model ([`StepDecoder::width`]).
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

impl BeamSearch {
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

    /// Mask `closed` segments (e.g. [`st_core::livetraffic::VersionedTraffic::
    /// closed_segments`] at admission time) out of every transition
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
    /// hand the resulting log-probs to [`BeamSearch::apply_step`]. Returns
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
    /// row-major, in [`BeamSearch::plan_step`] row order): score expansions
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

/// Decode the most likely complete route from `start` toward `dest`.
///
/// Keeps up to `beam_width` live prefixes; whenever a prefix is extended, a
/// completed candidate (prefix + stop) is also scored, and a prefix that
/// scores no better than the best complete candidate is dropped, since no
/// extension of it can win. Returns the best complete candidate found,
/// falling back to the best live prefix at the length cap. All live
/// prefixes advance through one batched [`StepDecoder::step`] per depth.
pub fn beam_decode<M: StepDecoder>(
    net: &RoadNetwork,
    model: &mut M,
    start: SegmentId,
    dest: &Point,
    beam_width: usize,
    max_len: usize,
) -> Route {
    let never = CancelToken::new();
    match beam_decode_closed(net, model, &[start], dest, beam_width, max_len, &[], &never) {
        Ok(route) => route,
        // Unreachable: the token above is never cancelled and has no
        // deadline, but the partial route is still the best answer.
        Err(cancelled) => cancelled.partial,
    }
}

/// [`beam_decode`] generalized to a traveled `prefix` (continuation
/// queries), road closures and a cooperative [`CancelToken`], the serving
/// deadline hook.
///
/// The recurrent state is warmed on `prefix[..len-1]` (the last prefix
/// segment is consumed by the first search step); with a one-segment
/// prefix, no closures and a live token this is [`beam_decode`] itself.
/// Every segment in
/// `closed` (typically
/// [`st_core::livetraffic::VersionedTraffic::closed_segments`] at decode
/// time) is masked to −∞ transition log-prob, so decoded routes detour
/// around closures — see [`BeamSearch::set_closed_segments`] for the
/// renormalization and boxed-in fallback semantics; an empty `closed` masks
/// nothing. The token is polled once per model step — during warm-up and at
/// every search depth — so a cancellation or deadline fires within one step
/// instead of waiting for the decode to run to its length cap. On
/// cancellation the best route known so far comes back in
/// [`DecodeCancelled::partial`].
#[allow(clippy::too_many_arguments)]
pub fn beam_decode_closed<M: StepDecoder>(
    net: &RoadNetwork,
    model: &mut M,
    prefix: &[SegmentId],
    dest: &Point,
    beam_width: usize,
    max_len: usize,
    closed: &[SegmentId],
    cancel: &CancelToken,
) -> Result<Route, DecodeCancelled> {
    assert!(beam_width >= 1);
    assert!(
        !prefix.is_empty(),
        "prefix must hold at least the start segment"
    );
    let _sp = st_obs::span("decode/beam");
    let mut state = model.init_state(1);
    let mut logp_buf: Vec<f64> = Vec::new();
    if let Some((_, warm)) = prefix.split_last() {
        for &seg in warm {
            if cancel.is_cancelled() {
                model.recycle(state);
                return Err(DecodeCancelled {
                    partial: prefix.to_vec(),
                });
            }
            model.step(net, &[seg], &mut state, &mut logp_buf);
        }
    }
    let mut bs = BeamSearch::new(
        net,
        prefix.to_vec(),
        *dest,
        beam_width,
        model.width(),
        max_len,
    );
    if !closed.is_empty() {
        bs.set_closed_segments(closed);
    }
    loop {
        if cancel.is_cancelled() {
            model.recycle(state);
            return Err(DecodeCancelled {
                partial: bs.into_route(),
            });
        }
        let Some((tokens, rows)) = bs.plan_step(net) else {
            break;
        };
        // Pack the steppable rows and advance them all in one batched step.
        let packed = model.gather(&state, rows);
        model.recycle(std::mem::replace(&mut state, packed));
        model.step(net, tokens, &mut state, &mut logp_buf);
        let Some(srows) = bs.apply_step(net, &logp_buf) else {
            break;
        };
        let survivors = model.gather(&state, srows);
        model.recycle(std::mem::replace(&mut state, survivors));
    }
    model.recycle(state);
    Ok(bs.into_route())
}

/// Greedy most-likely rollout from `start`: step one row, append the
/// successor in the first maximum log-prob slot, and stop once `f_s` of
/// the appended segment exceeds ½ — the termination ends the route but
/// never steers it. Also ends at a dead end or at `max_len` segments. Each
/// exit bumps one of `decode.term.{stop,dead_end,len_cap}`.
pub fn greedy_decode<M: StepDecoder>(
    net: &RoadNetwork,
    model: &mut M,
    start: SegmentId,
    dest: &Point,
    max_len: usize,
) -> Route {
    let _sp = st_obs::span("decode/greedy");
    let width = model.width();
    let mut state = model.init_state(1);
    let mut logp: Vec<f64> = Vec::new();
    let mut route = vec![start];
    let mut cur = start;
    let exit = loop {
        if route.len() >= max_len {
            break "decode.term.len_cap";
        }
        let nexts = net.next_segments(cur);
        if nexts.is_empty() {
            break "decode.term.dead_end";
        }
        model.step(net, &[cur], &mut state, &mut logp);
        if nexts.len() > width {
            note_truncation(nexts.len(), width);
        }
        let valid = &logp[..nexts.len().min(width)];
        let mut best = 0;
        for (j, &v) in valid.iter().enumerate() {
            if v > valid[best] {
                best = j;
            }
        }
        cur = nexts[best];
        route.push(cur);
        if p_stop(net, cur, dest) > 0.5 {
            break "decode.term.stop";
        }
    };
    st_obs::counter(exit).inc();
    model.recycle(state);
    route
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_roadnet::{grid_city, GridConfig};

    /// A scorer that always prefers heading toward a fixed target vertex by
    /// straight-line distance (uniform otherwise).
    struct TowardTarget {
        target: Point,
        width: usize,
    }

    impl TowardTarget {
        fn new(net: &RoadNetwork, target: Point) -> Self {
            Self {
                target,
                width: net.max_out_degree(),
            }
        }
    }

    impl StepDecoder for TowardTarget {
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
            logp.clear();
            for &seg in tokens {
                let nexts = net.next_segments(seg);
                for &n in nexts {
                    logp.push(-net.end_point(n).dist(&self.target) / 100.0);
                }
                for _ in nexts.len()..self.width {
                    logp.push(f64::NEG_INFINITY);
                }
            }
        }
        fn gather(&mut self, _state: &(), _rows: &[usize]) {}
    }

    #[test]
    fn beam_reaches_destination_area() {
        let net = grid_city(&GridConfig::small_test(), 3);
        let dest = net.midpoint(net.num_segments() - 1);
        let mut model = TowardTarget::new(&net, dest);
        let route = beam_decode(&net, &mut model, 0, &dest, 4, 60);
        assert!(net.is_valid_route(&route));
        let last = *route.last().unwrap();
        let d = net.project_onto(&dest, last).dist(&dest);
        assert!(d < 200.0, "beam ended {d}m from destination");
        assert!(
            route.len() < 25,
            "beam route unreasonably long: {}",
            route.len()
        );
    }

    #[test]
    fn dead_end_start_returns_start_only() {
        // A network where one segment has no outgoing continuation.
        let mut net = RoadNetwork::new();
        let a = net.add_vertex(Point::new(0.0, 0.0));
        let b = net.add_vertex(Point::new(100.0, 0.0));
        let s = net.add_segment(a, b, 10.0); // one-way into a dead end
        net.freeze();
        let dest = Point::new(100.0, 0.0);
        let mut model = TowardTarget::new(&net, dest);
        let route = beam_decode(&net, &mut model, s, &dest, 4, 20);
        assert_eq!(route, vec![s]);
    }

    #[test]
    fn beam_one_is_greedy_like() {
        let net = grid_city(&GridConfig::small_test(), 3);
        let dest = net.midpoint(10);
        let mut model = TowardTarget::new(&net, dest);
        let route = beam_decode(&net, &mut model, 0, &dest, 1, 60);
        assert!(net.is_valid_route(&route));
        assert_eq!(route[0], 0);
    }

    /// Greedy decoding with `beam_decode`'s scoring (per-step
    /// renormalization, completion candidates scored for *every* successor)
    /// but the older, looser stopping rule — stop once the live prefix falls
    /// 12 nats below the best completion: the oracle for `beam_width = 1`,
    /// and a check that the exact bound changes no route.
    fn greedy_reference<M: StepDecoder>(
        net: &RoadNetwork,
        model: &mut M,
        start: SegmentId,
        dest: &Point,
        max_len: usize,
    ) -> Route {
        let width = model.width();
        let mut route = vec![start];
        let mut state = model.init_state(1);
        let mut logps = Vec::new();
        let mut logp = 0.0f64;
        let mut best_complete: Option<(Route, f64)> = None;
        for _ in 1..max_len {
            let cur = *route.last().unwrap();
            let nexts = net.next_segments(cur);
            if nexts.is_empty() {
                break;
            }
            model.step(net, &[cur], &mut state, &mut logps);
            let valid = &logps[..nexts.len().min(width)];
            let m = valid.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let lse = m + valid.iter().map(|&v| (v - m).exp()).sum::<f64>().ln();
            let mut best_j = 0;
            let mut best_live = f64::NEG_INFINITY;
            for (j, &next) in nexts.iter().enumerate().take(valid.len()) {
                let lp_trans = valid[j] - lse;
                let ps = p_stop(net, next, dest);
                let complete = logp + lp_trans + ps.ln();
                if best_complete
                    .as_ref()
                    .map(|(_, s)| complete > *s)
                    .unwrap_or(true)
                {
                    let mut r = route.clone();
                    r.push(next);
                    best_complete = Some((r, complete));
                }
                let live = lp_trans + (1.0 - ps).ln();
                if live > best_live {
                    best_live = live;
                    best_j = j;
                }
            }
            logp += best_live;
            route.push(nexts[best_j]);
            if let Some((_, best)) = &best_complete {
                if logp < *best - 12.0 {
                    break;
                }
            }
        }
        match best_complete {
            Some((r, _)) => r,
            None => route,
        }
    }

    #[test]
    fn beam_width_one_matches_greedy_reference() {
        let net = grid_city(&GridConfig::small_test(), 3);
        for target_seg in [1usize, 10, net.num_segments() - 1] {
            let dest = net.midpoint(target_seg);
            let mut model = TowardTarget::new(&net, dest);
            let beam = beam_decode(&net, &mut model, 0, &dest, 1, 60);
            let greedy = greedy_reference(&net, &mut model, 0, &dest, 60);
            assert_eq!(beam, greedy, "target segment {target_seg}");
        }
    }

    /// Satellite pin: decoding under a closure detours — the closed segment
    /// never appears in the route, and the destination is still reached.
    #[test]
    fn closure_masking_detours_around_closed_segment() {
        let net = grid_city(&GridConfig::small_test(), 3);
        let dest = net.midpoint(net.num_segments() - 1);
        let mut model = TowardTarget::new(&net, dest);
        let open = beam_decode(&net, &mut model, 0, &dest, 4, 60);
        assert!(open.len() >= 3, "route too short to close a middle segment");
        // close a segment the unmasked decode wanted to use
        let blocked = open[open.len() / 2];
        let never = CancelToken::new();
        let detour =
            beam_decode_closed(&net, &mut model, &[0], &dest, 4, 60, &[blocked], &never).unwrap();
        assert!(net.is_valid_route(&detour));
        assert!(
            !detour.contains(&blocked),
            "decoded route drives through the closed segment"
        );
        let last = *detour.last().unwrap();
        let d = net.project_onto(&dest, last).dist(&dest);
        assert!(d < 300.0, "detour ended {d}m from destination");
    }

    /// An empty or irrelevant closed set leaves the decode bit-identical.
    #[test]
    fn irrelevant_closures_do_not_perturb_the_route() {
        let net = grid_city(&GridConfig::small_test(), 3);
        let dest = net.midpoint(net.num_segments() - 1);
        let mut model = TowardTarget::new(&net, dest);
        let baseline = beam_decode(&net, &mut model, 0, &dest, 4, 60);
        let never = CancelToken::new();
        let masked_empty =
            beam_decode_closed(&net, &mut model, &[0], &dest, 4, 60, &[], &never).unwrap();
        assert_eq!(baseline, masked_empty);
        // a closed segment the search never considers: same route
        let far = baseline.iter().fold(0usize, |acc, &s| acc.max(s)) + 1;
        if far < net.num_segments() && !baseline.contains(&far) {
            let masked_far =
                beam_decode_closed(&net, &mut model, &[0], &dest, 4, 60, &[far], &never).unwrap();
            assert_eq!(baseline, masked_far);
        }
    }

    /// Boxed in: when every successor is closed the row falls back to the
    /// unmasked distribution instead of dead-ending the beam.
    #[test]
    fn all_successors_closed_falls_back_to_unmasked() {
        // a → b → c: segment s2 is b→c, the only way onward from s1.
        let mut net = RoadNetwork::new();
        let a = net.add_vertex(Point::new(0.0, 0.0));
        let b = net.add_vertex(Point::new(100.0, 0.0));
        let c = net.add_vertex(Point::new(200.0, 0.0));
        let s1 = net.add_segment(a, b, 10.0);
        let s2 = net.add_segment(b, c, 10.0);
        net.freeze();
        let dest = Point::new(200.0, 0.0);
        let mut model = TowardTarget::new(&net, dest);
        let before = st_obs::counter("decode.closed.fallback").get();
        let never = CancelToken::new();
        let route =
            beam_decode_closed(&net, &mut model, &[s1], &dest, 2, 10, &[s2], &never).unwrap();
        assert_eq!(route, vec![s1, s2], "boxed-in vehicle still gets a route");
        assert!(
            st_obs::counter("decode.closed.fallback").get() > before,
            "fallback not counted"
        );
    }

    #[test]
    fn dead_end_prefix_completes_at_the_dead_end() {
        // a → b → c, with c terminal: the only live prefix dies after two
        // steps, and the decoder must return the complete candidate
        // [s1, s2] scored before the dead end — not an empty fallback.
        let mut net = RoadNetwork::new();
        let a = net.add_vertex(Point::new(0.0, 0.0));
        let b = net.add_vertex(Point::new(100.0, 0.0));
        let c = net.add_vertex(Point::new(200.0, 0.0));
        let s1 = net.add_segment(a, b, 10.0);
        let s2 = net.add_segment(b, c, 10.0);
        net.freeze();
        let dest = Point::new(200.0, 0.0);
        let mut model = TowardTarget::new(&net, dest);
        let route = beam_decode(&net, &mut model, s1, &dest, 4, 20);
        assert_eq!(route, vec![s1, s2]);
    }

    #[test]
    fn length_cap_of_one_falls_back_to_start_prefix() {
        // max_len = 1 forbids any expansion, so no complete candidate can
        // exist; the decoder must fall back to the best (only) live
        // prefix — the bare start segment.
        let net = grid_city(&GridConfig::small_test(), 3);
        let dest = net.midpoint(net.num_segments() - 1);
        let mut model = TowardTarget::new(&net, dest);
        let before = st_obs::counter("decode.beam.fallback").get();
        let route = beam_decode(&net, &mut model, 0, &dest, 4, 1);
        assert_eq!(route, vec![0]);
        assert_eq!(st_obs::counter("decode.beam.fallback").get(), before + 1);
    }

    #[test]
    fn length_cap_bounds_route_length() {
        let net = grid_city(&GridConfig::small_test(), 3);
        let dest = net.midpoint(net.num_segments() - 1);
        let mut model = TowardTarget::new(&net, dest);
        for cap in [2usize, 3, 5] {
            let route = beam_decode(&net, &mut model, 0, &dest, 4, cap);
            assert!(
                route.len() <= cap,
                "cap {cap} produced length {}",
                route.len()
            );
            assert!(net.is_valid_route(&route));
        }
    }

    #[test]
    fn truncated_scorer_is_counted() {
        // A scorer reporting only one slot regardless of out-degree: every
        // multi-successor step truncates.
        struct OneSlot;
        impl StepDecoder for OneSlot {
            type State = ();
            fn width(&self) -> usize {
                1
            }
            fn init_state(&mut self, _n: usize) {}
            fn step(
                &mut self,
                _net: &RoadNetwork,
                tokens: &[SegmentId],
                _state: &mut (),
                logp: &mut Vec<f64>,
            ) {
                logp.clear();
                logp.resize(tokens.len(), 0.0);
            }
            fn gather(&mut self, _state: &(), _rows: &[usize]) {}
        }
        let net = grid_city(&GridConfig::small_test(), 3);
        let dest = net.midpoint(net.num_segments() - 1);
        let before = st_obs::counter("decode.truncated_transitions").get();
        let route = beam_decode(&net, &mut OneSlot, 0, &dest, 2, 10);
        assert!(net.is_valid_route(&route));
        assert!(
            st_obs::counter("decode.truncated_transitions").get() > before,
            "truncation went uncounted"
        );
    }

    /// A `StepDecoder` wrapper that counts model steps and trips a
    /// [`CancelToken`] from inside step number `cancel_on` — simulating a
    /// deadline expiring while the kernel is running.
    struct CancelDuringStep<M> {
        inner: M,
        steps: usize,
        cancel_on: usize,
        token: CancelToken,
    }

    impl<M: StepDecoder> StepDecoder for CancelDuringStep<M> {
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
            self.steps += 1;
            if self.steps == self.cancel_on {
                self.token.cancel();
            }
            self.inner.step(net, tokens, state, logp);
        }
        fn gather(&mut self, state: &M::State, rows: &[usize]) -> M::State {
            self.inner.gather(state, rows)
        }
    }

    /// The satellite-2 pin: a decode cancelled during step `k` performs no
    /// step `k + 1` — cancellation fires within one step, not at the length
    /// cap or the end of the request.
    #[test]
    fn cancelled_decode_returns_within_one_step() {
        // 8×8 so the uncancelled decode needs well over 3 steps: on the 4×4
        // test grid the search is over after 3.
        let net = grid_city(
            &GridConfig {
                nx: 8,
                ny: 8,
                ..GridConfig::small_test()
            },
            3,
        );
        let dest = net.midpoint(net.num_segments() - 1);
        // Uncancelled baseline: how many steps does the full decode take?
        let mut free = CancelDuringStep {
            inner: TowardTarget::new(&net, dest),
            steps: 0,
            cancel_on: usize::MAX,
            token: CancelToken::new(),
        };
        let free_token = free.token.clone();
        let full = beam_decode_closed(&net, &mut free, &[0], &dest, 4, 60, &[], &free_token);
        assert!(full.is_ok());
        let full_steps = free.steps;
        assert!(full_steps > 3, "route too short to test mid-decode cancel");

        // Cancel from inside step 2: the decoder must observe it before
        // step 3 and return the best partial route with a typed error.
        let mut model = CancelDuringStep {
            inner: TowardTarget::new(&net, dest),
            steps: 0,
            cancel_on: 2,
            token: CancelToken::new(),
        };
        let token = model.token.clone();
        let out = beam_decode_closed(&net, &mut model, &[0], &dest, 4, 60, &[], &token);
        let cancelled = match out {
            Err(c) => c,
            Ok(_) => panic!("cancelled decode returned Ok"),
        };
        assert_eq!(model.steps, 2, "decode ran past the cancellation step");
        assert!(net.is_valid_route(&cancelled.partial));
        assert_eq!(cancelled.partial[0], 0);
        assert!(!cancelled.to_string().is_empty());
    }

    /// The exact bound ends the search as soon as no live prefix can beat
    /// the best complete route. On a one-way chain whose destination is the
    /// end of its second segment, the first step scores the completion
    /// `[s0, s1]` at `ln 0.95` and the only live prefix at `ln 0.05`, so
    /// nothing is left to step; the 12-nat rule used to walk the whole chain.
    #[test]
    fn exact_bound_stops_once_no_prefix_can_win() {
        let mut net = RoadNetwork::new();
        let vs: Vec<_> = (0..=12)
            .map(|i| net.add_vertex(Point::new(100.0 * i as f64, 0.0)))
            .collect();
        let segs: Vec<SegmentId> = vs
            .windows(2)
            .map(|w| net.add_segment(w[0], w[1], 10.0))
            .collect();
        net.freeze();
        let dest = Point::new(200.0, 0.0);
        let mut model = CancelDuringStep {
            inner: TowardTarget::new(&net, dest),
            steps: 0,
            cancel_on: usize::MAX,
            token: CancelToken::new(),
        };
        let token = model.token.clone();
        let route = beam_decode_closed(&net, &mut model, &[segs[0]], &dest, 4, 60, &[], &token)
            .expect("live token");
        assert_eq!(route, vec![segs[0], segs[1]]);
        assert_eq!(model.steps, 1, "search stepped past a decided route");
    }

    /// A pre-cancelled token stops the decode before any model step.
    #[test]
    fn pre_cancelled_decode_takes_no_steps() {
        let net = grid_city(&GridConfig::small_test(), 3);
        let dest = net.midpoint(5);
        let mut model = CancelDuringStep {
            inner: TowardTarget::new(&net, dest),
            steps: 0,
            cancel_on: usize::MAX,
            token: CancelToken::new(),
        };
        model.token.cancel();
        let token = model.token.clone();
        let out = beam_decode_closed(&net, &mut model, &[0], &dest, 4, 60, &[], &token);
        assert!(out.is_err());
        assert_eq!(model.steps, 0);
    }

    /// With a one-segment prefix, no closures and a live token,
    /// `beam_decode_closed` *is* `beam_decode`.
    #[test]
    fn decode_from_single_segment_prefix_matches_beam_decode() {
        let net = grid_city(&GridConfig::small_test(), 3);
        for target in [1usize, 10, net.num_segments() - 1] {
            let dest = net.midpoint(target);
            let mut model = TowardTarget::new(&net, dest);
            let plain = beam_decode(&net, &mut model, 0, &dest, 4, 60);
            let token = CancelToken::new();
            let via_closed = beam_decode_closed(&net, &mut model, &[0], &dest, 4, 60, &[], &token);
            assert_eq!(via_closed.ok().as_ref(), Some(&plain), "target {target}");
        }
    }

    /// Continuation decoding extends the prefix with valid segments and
    /// returns the prefix itself unchanged at its head.
    #[test]
    fn decode_from_longer_prefix_extends_it() {
        let net = grid_city(&GridConfig::small_test(), 3);
        let dest = net.midpoint(net.num_segments() - 1);
        let mut prefix = vec![0usize];
        for _ in 0..3 {
            prefix.push(net.next_segments(*prefix.last().unwrap())[0]);
        }
        let mut model = TowardTarget::new(&net, dest);
        let token = CancelToken::new();
        let route = beam_decode_closed(&net, &mut model, &prefix, &dest, 4, 60, &[], &token)
            .expect("live token");
        assert!(route.len() >= prefix.len());
        assert_eq!(&route[..prefix.len()], prefix.as_slice());
        assert!(net.is_valid_route(&route));
    }

    /// `f_s` is one Gaussian in the destination-to-segment distance: e⁻¹
    /// at `TERM_SCALE_M`, clamped into `[1e-12, 0.95]`, and above the
    /// greedy stop threshold ½ exactly within `TERM_SCALE_M·√(ln 2)`.
    #[test]
    fn termination_is_one_gaussian_in_distance() {
        // One 1 km segment along the x axis.
        let mut net = RoadNetwork::new();
        let a = net.add_vertex(Point::new(0.0, 0.0));
        let b = net.add_vertex(Point::new(1000.0, 0.0));
        let s = net.add_segment(a, b, 10.0);
        net.freeze();
        let at = |d: f64| p_stop(&net, s, &Point::new(500.0, d));
        assert_eq!(at(0.0), 0.95);
        assert!((at(TERM_SCALE_M) - (-1.0f64).exp()).abs() < 1e-12);
        assert_eq!(at(10_000.0), 1e-12);
        let half = TERM_SCALE_M * 2f64.ln().sqrt();
        assert!(at(half - 0.01) > 0.5 && at(half + 0.01) < 0.5);
    }

    /// The greedy rollout stops on the first segment whose `f_s` exceeds
    /// ½ — never earlier, and the exit is counted as a stop.
    #[test]
    fn greedy_stops_on_the_first_segment_near_the_destination() {
        let net = grid_city(&GridConfig::small_test(), 3);
        let dest = net.midpoint(net.num_segments() - 1);
        let mut model = TowardTarget::new(&net, dest);
        let stops = st_obs::counter("decode.term.stop").get();
        let route = greedy_decode(&net, &mut model, 0, &dest, 60);
        assert!(net.is_valid_route(&route));
        let (last, stepped) = route.split_last().unwrap();
        assert!(p_stop(&net, *last, &dest) > 0.5);
        assert!(stepped[1..].iter().all(|&s| p_stop(&net, s, &dest) <= 0.5));
        assert!(st_obs::counter("decode.term.stop").get() > stops);
    }

    /// Without a stop, the rollout ends at the length cap or a dead end.
    #[test]
    fn greedy_respects_max_len_and_dead_end() {
        let net = grid_city(&GridConfig::small_test(), 0);
        let far = Point::new(1e6, 1e6); // f_s never exceeds ½
        let mut model = TowardTarget::new(&net, far);
        let caps = st_obs::counter("decode.term.len_cap").get();
        assert_eq!(greedy_decode(&net, &mut model, 0, &far, 5).len(), 5);
        assert!(st_obs::counter("decode.term.len_cap").get() > caps);

        let mut net = RoadNetwork::new();
        let a = net.add_vertex(Point::new(0.0, 0.0));
        let b = net.add_vertex(Point::new(100.0, 0.0));
        let s = net.add_segment(a, b, 10.0); // one-way into a dead end
        net.freeze();
        let mut model = TowardTarget::new(&net, far);
        let dead_ends = st_obs::counter("decode.term.dead_end").get();
        assert_eq!(greedy_decode(&net, &mut model, s, &far, 5), vec![s]);
        assert!(st_obs::counter("decode.term.dead_end").get() > dead_ends);
    }

    #[test]
    #[should_panic(expected = "prefix")]
    fn decode_from_empty_prefix_is_rejected() {
        let net = grid_city(&GridConfig::small_test(), 3);
        let dest = net.midpoint(5);
        let mut model = TowardTarget::new(&net, dest);
        let never = CancelToken::new();
        let _ = beam_decode_closed(&net, &mut model, &[], &dest, 4, 60, &[], &never);
    }

    #[test]
    fn wider_beam_never_worse_under_own_score() {
        // score routes under the model's own full generative probability
        let net = grid_city(&GridConfig::small_test(), 5);
        let dest = net.midpoint(net.num_segments() / 2);
        let mut model = TowardTarget::new(&net, dest);
        let narrow = beam_decode(&net, &mut model, 1, &dest, 1, 50);
        let wide = beam_decode(&net, &mut model, 1, &dest, 8, 50);
        let mut full_score = |route: &Route| {
            let mut lp = 0.0;
            let mut state = ();
            model.init_state(1);
            let mut logps = Vec::new();
            for i in 0..route.len() - 1 {
                model.step(&net, &[route[i]], &mut state, &mut logps);
                let nexts = net.next_segments(route[i]);
                let valid = &logps[..nexts.len()];
                let m = valid.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let lse = m + valid.iter().map(|&v| (v - m).exp()).sum::<f64>().ln();
                let j = nexts.iter().position(|&n| n == route[i + 1]).unwrap();
                lp += valid[j] - lse;
                let ps = p_stop(&net, route[i + 1], &dest);
                lp += if i + 1 == route.len() - 1 {
                    ps.ln()
                } else {
                    (1.0 - ps).ln()
                };
            }
            lp
        };
        let wide_score = full_score(&wide);
        let narrow_score = full_score(&narrow);
        assert!(wide_score >= narrow_score - 1e-9);
    }
}
