//! Route likelihood scoring (§IV-E) and the tape-free decoding session
//! that route generation (Algorithm 2) steps through. The decoders
//! themselves (beam and greedy) live in `st-baselines::beam`.

use st_tensor::{infer, Array, Diagnostic, LintKind, Param, ScratchArena, Severity, TapeFreeScope};

use st_nn::PackedGru;
use st_roadnet::{RoadNetwork, SegmentId};

use crate::model::DeepSt;
use crate::route_rnn::RouteRnn;

/// Encoded per-trip context: the destination representation `Wπ` and the
/// traffic representation `c` (posterior mean at evaluation).
#[derive(Debug, Clone)]
pub struct TripContext {
    /// `f_x(x) = Wπ`, shape `[1, n_x]`.
    pub fx: Array,
    /// Traffic latent `c`, shape `[1, |c|]`; `None` for DeepST-C.
    pub c: Option<Array>,
    /// Posterior proxy probabilities `q(π|x)`, shape `[K]`.
    pub pi: Array,
}

impl DeepSt {
    /// Encode the traffic tensor into the posterior mean of `c` (eval mode).
    /// Callers evaluating many trips should cache this per traffic slot.
    ///
    /// Runs on the tape-free inference runtime ([`st_tensor::infer`]): no
    /// autodiff tape is allocated, and the result is bit-identical to the
    /// taped eval-mode forward pass.
    pub fn encode_traffic(&self, tensor: &[f32]) -> Array {
        assert!(self.cfg.use_traffic, "traffic pathway disabled");
        let (h, w) = (self.cfg.grid_h, self.cfg.grid_w);
        assert_eq!(tensor.len(), h * w, "traffic tensor size mismatch");
        let _scope = TapeFreeScope::enter();
        let mut arena = ScratchArena::new();
        let grid = Array::from_vec(&[1, 1, h, w], tensor.to_vec());
        let f = self.cnn.infer(&mut arena, &grid);
        self.mu_head.infer(&mut arena, &f)
    }

    /// Encode a normalized destination coordinate into `(q(π|x), Wπ)`.
    ///
    /// Tape-free: `q(π|x)` comes from the inference MLP's `infer` path and
    /// `Wπ` from a single GEMM against the shared proxy table.
    pub fn encode_dest(&self, dest: [f32; 2]) -> (Array, Array) {
        let _scope = TapeFreeScope::enter();
        let mut arena = ScratchArena::new();
        let x = Array::from_vec(&[1, 2], dest.to_vec());
        let mut pi = self.enc_dest.infer(&mut arena, &x);
        infer::softmax_rows_mut(&mut pi);
        let fx = infer::matmul(&mut arena, &pi, &self.w_proxy.value());
        (pi.reshape(&[self.cfg.k_proxies]), fx)
    }

    /// Build the full evaluation context for one trip. `traffic` must be
    /// `Some` iff the model uses the traffic pathway; pass a cached
    /// [`DeepSt::encode_traffic`] output to avoid re-running the CNN.
    pub fn encode_context(&self, dest: [f32; 2], traffic_c: Option<Array>) -> TripContext {
        assert_eq!(
            traffic_c.is_some(),
            self.cfg.use_traffic,
            "traffic context must match cfg.use_traffic"
        );
        let (pi, fx) = self.encode_dest(dest);
        TripContext {
            fx,
            c: traffic_c,
            pi,
        }
    }

    /// The slot-bias terms of one trip, `(fx, β)` then (with traffic)
    /// `(c, γ)`: what [`InferSession::add_trip`] registers and
    /// [`DeepSt::step_state_taped`] binds.
    pub fn trip_terms<'a>(
        &'a self,
        ctx: &'a TripContext,
    ) -> impl Iterator<Item = (&'a Array, &'a Param)> {
        self.slot_terms(&ctx.fx, ctx.c.as_ref())
    }

    /// Route likelihood score (§IV-E): `Σᵢ log P(r_{i+1}|r_{1:i}, Wπ, c)`,
    /// STRS+'s spatial score. Returns `f64::NEG_INFINITY` for invalid
    /// (non-adjacent) routes.
    ///
    /// Opens a session and scores through [`InferSession::score_route`];
    /// callers scoring many routes hold one session and call that
    /// directly.
    pub fn score_route(&self, net: &RoadNetwork, route: &[SegmentId], ctx: &TripContext) -> f64 {
        self.infer_session()
            .score_route(net, route, self.trip_terms(ctx))
    }

    /// The taped step of one row ([`RouteRnn::step_state_taped`] with this
    /// trip's terms): the behavioural oracle for decode-parity tests;
    /// production decoding uses the tape-free [`InferSession`].
    pub fn step_state_taped(
        &self,
        state: &[Array],
        token: SegmentId,
        ctx: &TripContext,
    ) -> (Vec<Array>, Vec<f64>) {
        self.rnn
            .step_state_taped(state, token, self.trip_terms(ctx))
    }

    /// Fresh per-layer zero state for [`DeepSt::step_state_taped`].
    pub fn initial_state(&self) -> Vec<Array> {
        self.rnn.initial_state()
    }

    /// Open a tape-free decoding session on this model's network; trips
    /// join with [`InferSession::add_trip`]`(model.trip_terms(&ctx))`.
    pub fn infer_session(&self) -> InferSession<'_> {
        self.rnn.infer_session()
    }

    /// Static check for the config/network mismatch that the decoders'
    /// truncation counters (`decode.truncated_*`) observe dynamically:
    /// if `net.max_out_degree()` exceeds `cfg.max_neighbors`, some
    /// transitions can never be decoded (and, because
    /// [`crate::data::Example`] slots are derived from the same network,
    /// never trained). Returns a [`LintKind::TruncatedOutputSpace`] warning
    /// naming both numbers, or `None` when the output head covers every
    /// intersection.
    pub fn lint_output_space(&self, net: &RoadNetwork) -> Option<Diagnostic> {
        let deg = net.max_out_degree();
        if deg <= self.cfg.max_neighbors {
            return None;
        }
        Some(Diagnostic {
            kind: LintKind::TruncatedOutputSpace,
            severity: Severity::Warning,
            node: None,
            message: format!(
                "network max out-degree {deg} exceeds cfg.max_neighbors {}: slots {}..{deg} \
                 are unreachable in decoding and unlearnable in training",
                self.cfg.max_neighbors, self.cfg.max_neighbors
            ),
        })
    }
}

/// The tape-free decoding session of a [`RouteRnn`]: the batched
/// inference runtime behind the beam and greedy decoders of `st-baselines`
/// (DeepST, DeepST-C, CSSRNN and the vanilla RNN), [`DeepSt::score_route`],
/// and cross-request continuous batching in `st-serve`.
///
/// The recurrent state is packed as one `[n, hidden]` matrix per GRU layer,
/// so one [`InferSession::step_into`] call advances *all* `n` rows — beam
/// candidates of one trip, or of many concurrent trips — with one batched
/// GEMM per weight matrix. Weights are packed once at session open, and the
/// bottom layer's per-token gate rows are memoized for the session's life.
/// Each trip registers its ordered slot-bias terms with
/// [`InferSession::add_trip`], which projects them once (DeepST's `fx·β`
/// then `c·γ`, CSSRNN's `emb(dest)·β`, none for the RNN); a step runs only
/// the `h·α` product and adds each row's own trip bias rows in that order,
/// the taped head's per-element association. All intermediates come from a
/// [`ScratchArena`] and the per-layer state vectors are reused, so a warmed
/// decode loop performs no heap allocation, and every step runs inside a
/// [`TapeFreeScope`] (debug builds assert that no autodiff tape is ever
/// created on this path).
///
/// Row `i` of a batched step is bit-identical to stepping row `i` alone
/// with its own trip registered in a session of its own — the GEMM kernel
/// accumulates each output row independently in the same order — which is
/// what makes batched beam decoding produce exactly the same routes as the
/// clone-and-step formulation, and batched serving the same routes as
/// serial decoding.
pub struct InferSession<'m> {
    rnn: &'m RouteRnn,
    arena: ScratchArena,
    /// GRU weights packed once at session open for the fused step kernel.
    packed_gru: PackedGru,
    /// The slot head `α`, packed for the GEMM micro-kernel.
    alpha: infer::PackedWeights,
    /// Per-token memo of the bottom GRU layer's `emb(token)·Wx` gate rows:
    /// that projection depends only on the token, and beam decoding revisits
    /// the same segments constantly. `gx0_slot[token]` indexes into
    /// `gx0_cache` (`usize::MAX` = not yet computed); rows are `3·hidden` wide.
    gx0_slot: Vec<usize>,
    gx0_cache: Vec<f32>,
    /// Registered trips' slot-bias rows (`[1, width]` each, in the order a
    /// step adds them); `None` slots are free.
    trips: Vec<Option<Vec<Array>>>,
    free: Vec<usize>,
    /// Emptied per-layer vectors of recycled states, refilled by the next
    /// gather or zero state so a warmed loop allocates none.
    spare: Vec<Vec<Array>>,
}

impl RouteRnn {
    /// Open a tape-free decoding session. Weight packing happens here, once
    /// per session — the per-step path never touches `Param::value()`
    /// weights. Trips join with [`InferSession::add_trip`] and leave with
    /// [`InferSession::remove_trip`]; a single-trip decode registers one.
    pub fn infer_session(&self) -> InferSession<'_> {
        let _scope = TapeFreeScope::enter();
        InferSession {
            rnn: self,
            arena: ScratchArena::new(),
            packed_gru: PackedGru::pack(&self.gru),
            alpha: infer::PackedWeights::pack(&self.alpha.value()),
            gx0_slot: vec![usize::MAX; self.emb.vocab()],
            gx0_cache: Vec::new(),
            trips: Vec::new(),
            free: Vec::new(),
            spare: Vec::new(),
        }
    }
}

impl InferSession<'_> {
    /// Number of slot log-probs per row (the slot head's width).
    pub fn width(&self) -> usize {
        self.alpha.out_dim()
    }

    /// Register one trip by its slot-bias terms: each `(x, W)` is a
    /// conditioning row `x` (`[1, d]`) and its projection `W` (`[d,
    /// width]`), e.g. [`DeepSt::trip_terms`]. The rows `x·W` are computed
    /// once here and added to every step's `h·α` in the given order.
    /// Returns the trip id used in [`InferSession::step_into`] row
    /// assignments. Slots of removed trips are reused.
    pub fn add_trip<'a>(
        &mut self,
        terms: impl IntoIterator<Item = (&'a Array, &'a Param)>,
    ) -> usize {
        let _scope = TapeFreeScope::enter();
        let width = self.width();
        let arena = &mut self.arena;
        let bias = terms
            .into_iter()
            .map(|(x, w)| {
                let row = infer::matmul(arena, x, &w.value());
                assert_eq!(row.shape(), [1, width], "a slot-bias term is one slot row");
                row
            })
            .collect();
        match self.free.pop() {
            Some(i) => {
                self.trips[i] = Some(bias);
                i
            }
            None => {
                self.trips.push(Some(bias));
                self.trips.len() - 1
            }
        }
    }

    /// Unregister a trip (its decode finished); the slot is recycled. The
    /// id must come from [`InferSession::add_trip`] and not have been
    /// removed already.
    pub fn remove_trip(&mut self, trip: usize) {
        let bias = self.trips[trip].take();
        assert!(bias.is_some(), "trip {trip} is not registered");
        for row in bias.into_iter().flatten() {
            self.arena.recycle(row);
        }
        self.free.push(trip);
    }

    /// Route likelihood `Σᵢ log P(r_{i+1}|r_{1:i})` of one trip given by its
    /// slot-bias terms (as for [`InferSession::add_trip`]): the trip joins,
    /// the route is walked one segment at a time, and the trip leaves, so
    /// one session scores any number of routes. Records no autodiff tape;
    /// each transition's log-prob is bit-identical to the taped step, and
    /// to scoring in a fresh session (rows are independent and the gate memo
    /// is exact). `0` for routes shorter than 2, `f64::NEG_INFINITY` for
    /// non-adjacent ones.
    pub fn score_route<'a>(
        &mut self,
        net: &RoadNetwork,
        route: &[SegmentId],
        terms: impl IntoIterator<Item = (&'a Array, &'a Param)>,
    ) -> f64 {
        let mut slots = Vec::with_capacity(route.len().saturating_sub(1));
        for w in route.windows(2) {
            match net.neighbor_slot(w[0], w[1]) {
                Some(s) => slots.push(s),
                None => return f64::NEG_INFINITY,
            }
        }
        if slots.is_empty() {
            return 0.0;
        }
        let trip = self.add_trip(terms);
        let mut state = self.zero_state(1);
        let mut logp = Vec::new();
        let mut total = 0.0f64;
        for (&seg, &slot) in route.iter().zip(&slots) {
            self.step_into(&[seg], &[trip], &mut state, &mut logp);
            total += logp[slot];
        }
        self.recycle_state(state);
        self.remove_trip(trip);
        total
    }

    /// Number of currently registered trips.
    pub fn active_trips(&self) -> usize {
        self.trips.len() - self.free.len()
    }

    /// Packed zero state for `n` rows: one zeroed `[n, hidden]` per layer.
    pub fn zero_state(&mut self, n: usize) -> Vec<Array> {
        let mut out = self.spare.pop().unwrap_or_default();
        let hidden = self.packed_gru.hidden();
        out.extend((0..self.packed_gru.layers()).map(|_| self.arena.alloc(&[n, hidden])));
        out
    }

    /// Advance all rows one step: feed `tokens[i]` into state row `i`,
    /// which belongs to registered trip `trips[i]`; update `state` in place
    /// and refill `logp` with the `tokens.len() × max_neighbors` row-major
    /// slot log-probabilities. Rows of different trips may interleave
    /// freely; each row's bias comes from its own trip's projections.
    ///
    /// `logp` is a caller-provided buffer precisely so per-step decode loops
    /// allocate nothing: it is cleared and refilled, never reallocated once
    /// its capacity has grown to one step's size.
    pub fn step_into(
        &mut self,
        tokens: &[SegmentId],
        trips: &[usize],
        state: &mut [Array],
        logp: &mut Vec<f64>,
    ) {
        let _scope = TapeFreeScope::enter();
        let n = tokens.len();
        assert!(n > 0, "step_into needs at least one token");
        assert_eq!(trips.len(), n, "one trip id per token row");
        assert!(
            !state.is_empty() && state[0].shape()[0] == n,
            "state rows must match tokens"
        );
        let arena = &mut self.arena;
        // Bottom-layer gate rows `emb(token)·Wx` come from the per-token
        // memo; a miss computes the row batch-of-one (bit-identical to any
        // batched row — the GEMM accumulates rows independently) and caches
        // it for the rest of the session.
        let g = 3 * self.packed_gru.hidden();
        let mut gx0 = arena.alloc_uninit(&[n, g]);
        for (i, &tok) in tokens.iter().enumerate() {
            let mut slot = self.gx0_slot[tok];
            if slot == usize::MAX {
                let x1 = self.rnn.emb.infer(arena, &[tok]);
                let g1 = self.packed_gru.gate_x0(arena, &x1);
                slot = self.gx0_cache.len() / g;
                self.gx0_cache.extend_from_slice(g1.data());
                self.gx0_slot[tok] = slot;
                arena.recycle(g1);
                arena.recycle(x1);
            }
            let row = &self.gx0_cache[slot * g..(slot + 1) * g];
            gx0.data_mut()[i * g..(i + 1) * g].copy_from_slice(row);
        }
        self.packed_gru
            .infer_step_fused_pregx(arena, &mut gx0, state);
        arena.recycle(gx0);
        let Some(h) = state.last() else { return };
        let mut logits = infer::matmul_packed(arena, h, &self.alpha);
        // Per-row trip bias rows in the taped head's per-element
        // association: ((h·α + x₁·W₁) + x₂·W₂) + …
        for (r, &trip) in trips.iter().enumerate() {
            let bias = self.trips[trip].as_deref();
            assert!(
                bias.is_some(),
                "row {r} references unregistered trip {trip}"
            );
            let row = logits.row_mut(r);
            for b in bias.unwrap_or_default() {
                for (o, &v) in row.iter_mut().zip(b.data()) {
                    *o += v;
                }
            }
        }
        infer::log_softmax_rows_mut(&mut logits);
        logp.clear();
        logp.extend(logits.data().iter().map(|&v| f64::from(v)));
        arena.recycle(logits);
    }

    /// New packed state whose row `i` is `state`'s row `rows[i]` — the beam
    /// decoder's survivor selection. Rows may repeat (one parent expanding
    /// into several survivors) or be dropped.
    pub fn gather_state(&mut self, state: &[Array], rows: &[usize]) -> Vec<Array> {
        let mut out = self.spare.pop().unwrap_or_default();
        out.extend(
            state
                .iter()
                .map(|layer| infer::gather_rows(&mut self.arena, layer, rows)),
        );
        out
    }

    /// New packed state whose row `i` is `state`'s row `rows[i]` when
    /// `Some`, or a fresh zero row when `None` — survivor selection plus
    /// admission of newly joined requests in one gather. Rows may repeat or
    /// be dropped.
    pub fn gather_state_or_zero(&mut self, state: &[Array], rows: &[Option<usize>]) -> Vec<Array> {
        if state.is_empty() {
            // No prior step has run, so there are no rows to copy from;
            // every requested row must be fresh.
            assert!(
                rows.iter().all(Option::is_none),
                "cannot gather existing rows from an empty state"
            );
            return self.zero_state(rows.len());
        }
        let mut out = self.spare.pop().unwrap_or_default();
        for layer in state {
            // Every row is overwritten below, so skip the zero fill.
            let mut g = self.arena.alloc_uninit(&[rows.len(), layer.shape()[1]]);
            for (r, &src) in rows.iter().enumerate() {
                match src {
                    Some(src) => g.row_mut(r).copy_from_slice(layer.row(src)),
                    None => g.row_mut(r).fill(0.0),
                }
            }
            out.push(g);
        }
        out
    }

    /// Return a packed state's arrays to the session's arena and keep its
    /// emptied vector for the next gather.
    pub fn recycle_state(&mut self, mut state: Vec<Array>) {
        for a in state.drain(..) {
            self.arena.recycle(a);
        }
        self.spare.push(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeepStConfig;
    use st_roadnet::{grid_city, GridConfig};

    fn setup() -> (st_roadnet::RoadNetwork, DeepSt) {
        let net = grid_city(&GridConfig::small_test(), 2);
        let cfg = DeepStConfig::new(net.num_segments(), net.max_out_degree(), 8, 8);
        let model = DeepSt::new(cfg, 0);
        (net, model)
    }

    #[test]
    fn context_shapes() {
        let (_, model) = setup();
        let c = model.encode_traffic(&vec![0.1; 64]);
        assert_eq!(c.shape(), &[1, model.cfg.c_dim]);
        let ctx = model.encode_context([0.4, 0.6], Some(c));
        assert_eq!(ctx.fx.shape(), &[1, model.cfg.n_x]);
        assert_eq!(ctx.pi.shape(), &[model.cfg.k_proxies]);
        let sum: f32 = ctx.pi.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "π not a distribution");
    }

    /// Each row of a batched fused step (the `step_into` kernels: packed
    /// GRU, gate memo, packed head) must match the taped step of that row
    /// alone bit-for-bit: log-probs (f64) and every state element (f32),
    /// over a multi-step 3-row rollout.
    #[test]
    fn fused_step_matches_taped_step_bitwise() {
        let (net, model) = setup();
        let c = model.encode_traffic(&vec![0.25; 64]);
        let ctx = model.encode_context([0.3, 0.8], Some(c));
        let mut fused = model.infer_session();
        let trip = fused.add_trip(model.trip_terms(&ctx));
        let mut state_f = fused.zero_state(3);
        let mut taped: Vec<Vec<Array>> = (0..3).map(|_| model.initial_state()).collect();
        let mut tokens: Vec<usize> = vec![0, 3, 7];
        let mut lp_f = Vec::new();
        let a = model.cfg.max_neighbors;
        for step in 0..6 {
            fused.step_into(&tokens, &[trip; 3], &mut state_f, &mut lp_f);
            for (r, row_state) in taped.iter_mut().enumerate() {
                let (nt, lt) = model.step_state_taped(row_state, tokens[r], &ctx);
                let fb: Vec<u64> = lp_f[r * a..(r + 1) * a]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let tb: Vec<u64> = lt.iter().map(|v| v.to_bits()).collect();
                assert_eq!(fb, tb, "row {r} log-prob mismatch at step {step}");
                for (layer, (f, t)) in state_f.iter().zip(&nt).enumerate() {
                    let fb: Vec<u32> = f.row(r).iter().map(|v| v.to_bits()).collect();
                    let tb: Vec<u32> = t.data().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        fb, tb,
                        "row {r} state mismatch at step {step} layer {layer}"
                    );
                }
                *row_state = nt;
            }
            tokens = tokens.iter().map(|&t| net.next_segments(t)[0]).collect();
        }
    }

    /// Row `i` of a batched session step equals stepping row `i` alone —
    /// the property that makes packed-state beam decoding bit-identical to
    /// the clone-and-step formulation.
    #[test]
    fn batched_step_rows_match_single_rows() {
        let (net, model) = setup();
        let c = model.encode_traffic(&vec![0.1; 64]);
        let ctx = model.encode_context([0.6, 0.3], Some(c));
        // Distinct tokens per row, two chained steps so states diverge.
        let tokens0: Vec<usize> = (0..5).map(|i| i % net.num_segments()).collect();
        let tokens1: Vec<usize> = tokens0.iter().map(|&t| net.next_segments(t)[0]).collect();
        let n = tokens0.len();

        let mut sess = model.infer_session();
        let trip = sess.add_trip(model.trip_terms(&ctx));
        let trips = vec![trip; n];
        let mut batched = sess.zero_state(n);
        let mut lp_b = Vec::new();
        sess.step_into(&tokens0, &trips, &mut batched, &mut lp_b);
        let mut lp_b2 = Vec::new();
        sess.step_into(&tokens1, &trips, &mut batched, &mut lp_b2);

        let a = model.cfg.max_neighbors;
        for r in 0..n {
            let mut single = sess.zero_state(1);
            let mut lp_s = Vec::new();
            sess.step_into(&tokens0[r..=r], &[trip], &mut single, &mut lp_s);
            let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
            assert_eq!(
                bits(&lp_b[r * a..(r + 1) * a]),
                bits(&lp_s),
                "row {r} step 0"
            );
            sess.step_into(&tokens1[r..=r], &[trip], &mut single, &mut lp_s);
            assert_eq!(
                bits(&lp_b2[r * a..(r + 1) * a]),
                bits(&lp_s),
                "row {r} step 1"
            );
            for (layer, (b, s)) in batched.iter().zip(&single).enumerate() {
                let bb: Vec<u32> = b.row(r).iter().map(|v| v.to_bits()).collect();
                let sb: Vec<u32> = s.row(0).iter().map(|v| v.to_bits()).collect();
                assert_eq!(bb, sb, "row {r} layer {layer} state");
            }
            sess.recycle_state(single);
        }
    }

    /// Interleaved rows of a multi-trip batched step must be bit-identical
    /// to stepping each row alone in a session holding only its own trip —
    /// the invariant cross-request continuous batching stands on. Uses two
    /// different trip contexts and chains steps so state differences would
    /// compound and surface.
    #[test]
    fn multi_trip_rows_match_single_trip_sessions() {
        let (net, model) = setup();
        let ca = model.encode_traffic(&vec![0.1; 64]);
        let cb = model.encode_traffic(&vec![0.7; 64]);
        let ctx_a = model.encode_context([0.2, 0.8], Some(ca));
        let ctx_b = model.encode_context([0.9, 0.3], Some(cb));

        let mut multi = model.infer_session();
        let ta = multi.add_trip(model.trip_terms(&ctx_a));
        let tb = multi.add_trip(model.trip_terms(&ctx_b));
        assert_eq!(multi.active_trips(), 2);
        // Rows interleave the two trips: a, b, a, b.
        let trips = [ta, tb, ta, tb];
        let mut tokens: Vec<usize> = vec![0, 0, 3, 5];
        let mut state = multi.zero_state(4);
        let mut lp = Vec::new();

        let mut sess_a = model.infer_session();
        let mut sess_b = model.infer_session();
        let (sa, sb) = (
            sess_a.add_trip(model.trip_terms(&ctx_a)),
            sess_b.add_trip(model.trip_terms(&ctx_b)),
        );
        let mut singles: Vec<(usize, Vec<Array>)> = (0..4)
            .map(|r| {
                if trips[r] == ta {
                    (r, sess_a.zero_state(1))
                } else {
                    (r, sess_b.zero_state(1))
                }
            })
            .collect();

        let a = model.cfg.max_neighbors;
        let mut lp_s = Vec::new();
        for step in 0..5 {
            multi.step_into(&tokens, &trips, &mut state, &mut lp);
            for (r, single) in singles.iter_mut() {
                let (sess, own) = if trips[*r] == ta {
                    (&mut sess_a, sa)
                } else {
                    (&mut sess_b, sb)
                };
                sess.step_into(&tokens[*r..=*r], &[own], single, &mut lp_s);
                let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
                assert_eq!(
                    bits(&lp[*r * a..(*r + 1) * a]),
                    bits(&lp_s),
                    "row {r} step {step} log-probs"
                );
                for (layer, (m, s)) in state.iter().zip(single.iter()).enumerate() {
                    let mb: Vec<u32> = m.row(*r).iter().map(|v| v.to_bits()).collect();
                    let sb: Vec<u32> = s.row(0).iter().map(|v| v.to_bits()).collect();
                    assert_eq!(mb, sb, "row {r} step {step} layer {layer} state");
                }
            }
            tokens = tokens.iter().map(|&t| net.next_segments(t)[0]).collect();
        }
    }

    /// Removing a trip frees its slot for reuse; stepping rows of the
    /// remaining trip is unaffected, and `gather_state_or_zero` zero-fills
    /// `None` rows (fresh request admission) while copying `Some` rows.
    #[test]
    fn multi_trip_slots_recycle_and_gather_zero_fills() {
        let (_, model) = setup();
        let c = model.encode_traffic(&vec![0.2; 64]);
        let ctx = model.encode_context([0.5, 0.5], Some(c));
        let mut multi = model.infer_session();
        let t0 = multi.add_trip(model.trip_terms(&ctx));
        let t1 = multi.add_trip(model.trip_terms(&ctx));
        multi.remove_trip(t0);
        assert_eq!(multi.active_trips(), 1);
        let t2 = multi.add_trip(model.trip_terms(&ctx));
        assert_eq!(t2, t0, "freed slot must be reused");

        let mut state = multi.zero_state(2);
        let mut lp = Vec::new();
        multi.step_into(&[1, 2], &[t1, t2], &mut state, &mut lp);
        let picked = multi.gather_state_or_zero(&state, &[Some(1), None, Some(0)]);
        for (layer, src) in picked.iter().zip(&state) {
            assert_eq!(layer.shape(), &[3, model.cfg.hidden]);
            assert_eq!(layer.row(0), src.row(1));
            assert!(
                layer.row(1).iter().all(|&v| v == 0.0),
                "None row not zeroed"
            );
            assert_eq!(layer.row(2), src.row(0));
        }
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn multi_trip_double_remove_panics() {
        let (_, model) = setup();
        let c = model.encode_traffic(&vec![0.2; 64]);
        let ctx = model.encode_context([0.5, 0.5], Some(c));
        let mut multi = model.infer_session();
        let t = multi.add_trip(model.trip_terms(&ctx));
        multi.remove_trip(t);
        multi.remove_trip(t);
    }

    /// `gather_state` must copy exactly the requested rows, with repeats.
    #[test]
    fn gather_state_selects_rows() {
        let (_, model) = setup();
        let c = model.encode_traffic(&vec![0.2; 64]);
        let ctx = model.encode_context([0.5, 0.5], Some(c));
        let mut sess = model.infer_session();
        let trip = sess.add_trip(model.trip_terms(&ctx));
        let mut state = sess.zero_state(3);
        let mut lp = Vec::new();
        sess.step_into(&[0, 1, 2], &[trip; 3], &mut state, &mut lp);
        let picked = sess.gather_state(&state, &[2, 0, 2, 1]);
        for (layer, src) in picked.iter().zip(&state) {
            assert_eq!(layer.shape(), &[4, model.cfg.hidden]);
            for (dst_row, &src_row) in [2usize, 0, 2, 1].iter().enumerate() {
                assert_eq!(layer.row(dst_row), src.row(src_row));
            }
        }
    }

    #[test]
    fn lint_output_space_flags_narrow_head() {
        let (net, model) = setup();
        // This config was built from net.max_out_degree(), so it is clean.
        assert!(model.lint_output_space(&net).is_none());
        // A config one slot narrower than the network must be flagged.
        let mut cfg = model.cfg.clone();
        cfg.max_neighbors = net.max_out_degree() - 1;
        let narrow = DeepSt::new(cfg, 0);
        let diag = narrow.lint_output_space(&net).expect("expected diagnostic");
        assert_eq!(diag.kind, st_tensor::LintKind::TruncatedOutputSpace);
        assert_eq!(diag.severity, st_tensor::Severity::Warning);
        assert!(diag.message.contains("max_neighbors"));
    }

    #[test]
    fn score_penalizes_invalid_routes() {
        let (net, model) = setup();
        let c = model.encode_traffic(&vec![0.0; 64]);
        let ctx = model.encode_context([0.5, 0.5], Some(c));
        // invalid: two non-adjacent segments
        let mut bad = vec![0usize, 0];
        for s in 0..net.num_segments() {
            if !net.adjacent(0, s) {
                bad = vec![0, s];
                break;
            }
        }
        assert_eq!(model.score_route(&net, &bad, &ctx), f64::NEG_INFINITY);
        // valid routes have finite, negative log-likelihood
        let good = vec![0, net.next_segments(0)[0]];
        let s = model.score_route(&net, &good, &ctx);
        assert!(s.is_finite() && s < 0.0);
    }

    /// `score_route` walks the tape-free session: scoring a route grows
    /// no autodiff tape (the taped forward it replaced recorded one per
    /// route).
    #[test]
    fn score_route_creates_no_tape() {
        let (net, model) = setup();
        let c = model.encode_traffic(&vec![0.2; 64]);
        let ctx = model.encode_context([0.5, 0.5], Some(c));
        let mut route = vec![0usize];
        for _ in 0..4 {
            route.push(net.next_segments(*route.last().unwrap())[0]);
        }
        let created = st_tensor::Tape::created_count();
        let s = model.score_route(&net, &route, &ctx);
        assert!(s.is_finite() && s < 0.0);
        assert_eq!(
            st_tensor::Tape::created_count(),
            created,
            "score_route created an autodiff tape"
        );
    }

    #[test]
    fn score_sums_over_transitions() {
        let (net, model) = setup();
        let c = model.encode_traffic(&vec![0.0; 64]);
        let ctx = model.encode_context([0.5, 0.5], Some(c));
        let mut route = vec![0usize];
        for _ in 0..4 {
            route.push(net.next_segments(*route.last().unwrap())[0]);
        }
        let full = model.score_route(&net, &route, &ctx);
        let prefix = model.score_route(&net, &route[..2], &ctx);
        assert!(
            full < prefix,
            "longer route should have lower log-likelihood"
        );
        // single-segment route scores 0 (empty product)
        assert_eq!(model.score_route(&net, &route[..1], &ctx), 0.0);
    }
}
