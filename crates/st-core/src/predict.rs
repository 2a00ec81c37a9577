//! Route prediction (Algorithm 2) and route likelihood scoring (§IV-E).

use rand::rngs::StdRng;
use rand::Rng;

use st_tensor::{
    infer, ops, Array, Binder, Diagnostic, LintKind, ScratchArena, Severity, Tape, TapeFreeScope,
};

use st_nn::PackedGru;
use st_roadnet::{Point, RoadNetwork, Route, SegmentId};

use crate::model::DeepSt;

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

    /// Algorithm 2: generate the most likely route for a trip.
    ///
    /// `start` is `T.r₁`; `dest_m` is the rough destination coordinate in
    /// meters (used only by the termination function `f_s`); `ctx` holds the
    /// encoded destination/traffic representations. With `rng = None` the
    /// generation is greedy (argmax next road, threshold termination) — this
    /// is the "most likely route" used in the evaluation; with `Some(rng)`
    /// the route is sampled from the generative process.
    ///
    /// Inference runs on the tape-free runtime ([`InferSession`]): no
    /// autodiff tape is allocated at any step, scratch buffers are recycled
    /// through one [`ScratchArena`], and memory stays bounded by a single
    /// step's working set regardless of route length.
    pub fn predict_route(
        &self,
        net: &RoadNetwork,
        start: SegmentId,
        dest_m: &Point,
        ctx: &TripContext,
        rng: Option<&mut StdRng>,
    ) -> Route {
        let _sp = st_obs::span("predict/route");
        let mut sess = self.infer_session(ctx);
        let mut state = sess.zero_state(1);
        let mut route = vec![start];
        self.generate_from(net, &mut route, &mut sess, &mut state, dest_m, rng);
        route
    }

    /// Route likelihood score with posterior *sampling*, as §IV-E describes
    /// ("once we draw c and π from the posterior distribution"): averages
    /// the route likelihood over `l_samples` draws of `c ~ q(c|C)` and
    /// `π ~ q(π|x)` (log-mean-exp). [`DeepSt::score_route`] is the
    /// deterministic posterior-mean variant used in the evaluation.
    pub fn score_route_sampled(
        &self,
        net: &RoadNetwork,
        route: &[SegmentId],
        dest: [f32; 2],
        traffic: Option<&[f32]>,
        l_samples: usize,
        rng: &mut StdRng,
    ) -> f64 {
        assert!(l_samples >= 1);
        assert_eq!(traffic.is_some(), self.cfg.use_traffic);
        // posterior parameters
        let (mu, logvar) = match traffic {
            Some(t) => {
                let (h, w) = (self.cfg.grid_h, self.cfg.grid_w);
                let tape = Tape::new();
                let binder = Binder::new(&tape);
                let grid = binder.input(Array::from_vec(&[1, 1, h, w], t.to_vec()));
                let (mu, logvar) = self.traffic_posterior(&binder, grid, false, None);
                (Some((*mu.value()).clone()), Some((*logvar.value()).clone()))
            }
            None => (None, None),
        };
        let (pi_probs, _) = self.encode_dest(dest);
        let w_proxy = self.w_proxy.value().clone();

        let mut log_liks = Vec::with_capacity(l_samples);
        for _ in 0..l_samples {
            // c = μ + σ·ε
            let c = mu.as_ref().zip(logvar.as_ref()).map(|(m, lv)| {
                let mut c = m.clone();
                for i in 0..c.len() {
                    c.data_mut()[i] +=
                        (0.5 * lv.data()[i]).exp() * st_tensor::init::sample_normal(rng);
                }
                c
            });
            // π ~ Categorical(q(π|x)) — a hard one-hot draw, f_x = W·π
            let k = st_tensor::init::sample_categorical(pi_probs.data(), rng);
            let fx = Array::from_vec(&[1, self.cfg.n_x], w_proxy.row(k).to_vec());
            let ctx = TripContext {
                fx,
                c,
                pi: pi_probs.clone(),
            };
            log_liks.push(self.score_route(net, route, &ctx));
        }
        // log-mean-exp over the samples
        let m = log_liks.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if !m.is_finite() {
            return m;
        }
        m + (log_liks.iter().map(|&l| (l - m).exp()).sum::<f64>() / l_samples as f64).ln()
    }

    /// Route likelihood score (§IV-E): `Σᵢ log P(r_{i+1}|r_{1:i}, Wπ, c)`.
    /// Returns `f64::NEG_INFINITY` for invalid (non-adjacent) routes.
    pub fn score_route(&self, net: &RoadNetwork, route: &[SegmentId], ctx: &TripContext) -> f64 {
        if route.len() < 2 {
            return 0.0;
        }
        let mut slots = Vec::with_capacity(route.len() - 1);
        for w in route.windows(2) {
            match net.neighbor_slot(w[0], w[1]) {
                Some(s) => slots.push(s),
                None => return f64::NEG_INFINITY,
            }
        }
        let tape = Tape::new();
        let binder = Binder::new(&tape);
        let fx = binder.input(ctx.fx.clone());
        let c = ctx.c.as_ref().map(|c| binder.input(c.clone()));
        let mut state = self.gru.zero_state(&binder, 1);
        let mut total = 0.0f64;
        for (i, &slot) in slots.iter().enumerate() {
            let inp = self.emb.forward(&binder, &[route[i]]);
            let hid = self.gru.step(&binder, inp, &mut state);
            let logits = self.slot_logits(&binder, hid, fx, c);
            let logp = ops::log_softmax_rows(logits);
            total += logp.value().data()[slot] as f64;
        }
        total
    }
}

impl DeepSt {
    /// Continue a partially observed trip: warm the GRU up on the already
    /// traveled `prefix`, then generate the remainder of the route toward
    /// the destination (the "future movement prediction" setting of the
    /// related work, §II). Returns the full route including the prefix.
    pub fn predict_continuation(
        &self,
        net: &RoadNetwork,
        prefix: &[SegmentId],
        dest_m: &Point,
        ctx: &TripContext,
        rng: Option<&mut StdRng>,
    ) -> Route {
        let _sp = st_obs::span("predict/continuation");
        assert!(net.is_valid_route(prefix), "prefix is not a valid route");
        let Some((_, warmup)) = prefix.split_last() else {
            // the paper's queries always carry at least T.r1
            return Vec::new();
        };
        // Warm up: consume all but the last prefix segment (the last one is
        // consumed by the generation loop's first step). The warm-up shares
        // the generation loop's session and log-prob buffer, so the whole
        // continuation allocates one arena total.
        let mut sess = self.infer_session(ctx);
        let mut state = sess.zero_state(1);
        let mut logps = Vec::new();
        for &seg in warmup {
            sess.step_into(&[seg], &mut state, &mut logps);
        }
        let mut route = prefix.to_vec();
        self.generate_from(net, &mut route, &mut sess, &mut state, dest_m, rng);
        route
    }

    /// Shared generation loop for [`DeepSt::predict_route`] and
    /// [`DeepSt::predict_continuation`]: extend `route` from its last
    /// segment and `state` until termination fires, a dead end is hit, or
    /// `cfg.max_route_len` is reached. Each exit cause bumps one of the
    /// `decode.term.{stop,dead_end,len_cap}` counters.
    ///
    /// Truncation behaviour: the slot head is `cfg.max_neighbors` wide, so
    /// at an intersection with a larger out-degree only the first
    /// `max_neighbors` adjacent segments can ever be chosen. Such steps are
    /// counted (`decode.truncated_transitions` / `decode.truncated_slots`)
    /// and surfaced once per process via `st_obs::warn_once`;
    /// [`DeepSt::lint_output_space`] reports the same condition statically.
    fn generate_from(
        &self,
        net: &RoadNetwork,
        route: &mut Route,
        sess: &mut InferSession<'_>,
        state: &mut [Array],
        dest_m: &Point,
        mut rng: Option<&mut StdRng>,
    ) {
        let Some(&last) = route.last() else { return };
        let mut cur = last;
        // One log-prob buffer for the whole route: `step_into` refills it
        // in place, so the loop allocates nothing per step.
        let mut logps: Vec<f64> = Vec::new();
        while route.len() < self.cfg.max_route_len {
            let nexts = net.next_segments(cur);
            if nexts.is_empty() {
                st_obs::counter("decode.term.dead_end").inc();
                return;
            }
            sess.step_into(&[cur], state, &mut logps);
            if nexts.len() > logps.len() {
                self.note_truncation(nexts.len(), logps.len());
            }
            let valid = &logps[..nexts.len().min(logps.len())];
            let slot = match rng.as_deref_mut() {
                None => {
                    // greedy argmax over valid slots (log-softmax is
                    // monotone, so this matches an argmax on raw logits)
                    let mut best = 0;
                    for (j, &v) in valid.iter().enumerate() {
                        if v > valid[best] {
                            best = j;
                        }
                    }
                    best
                }
                Some(r) => {
                    let probs: Vec<f32> = {
                        let m = valid.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                        let e: Vec<f64> = valid.iter().map(|&v| (v - m).exp()).collect();
                        let z: f64 = e.iter().sum();
                        e.iter().map(|&v| (v / z) as f32).collect()
                    };
                    sample_index(&probs, r)
                }
            };
            let next = nexts[slot];
            route.push(next);
            cur = next;
            // termination: s ~ Bernoulli(f_s(r_{i+1}, x))
            let proj = net.project_onto(dest_m, next);
            let p_stop = self.termination_prob(proj.dist(dest_m));
            let stop = match rng.as_deref_mut() {
                None => p_stop > 0.5,
                Some(r) => r.gen::<f64>() < p_stop,
            };
            if stop {
                st_obs::counter("decode.term.stop").inc();
                return;
            }
        }
        st_obs::counter("decode.term.len_cap").inc();
    }

    /// Count one truncated transition and warn once per process.
    pub(crate) fn note_truncation(&self, out_degree: usize, slots: usize) {
        st_obs::counter("decode.truncated_transitions").inc();
        st_obs::counter("decode.truncated_slots").add((out_degree - slots) as u64);
        st_obs::warn_once(
            "decode.truncated-output-space",
            &format!(
                "out-degree {out_degree} exceeds the {slots}-slot output head \
                 (cfg.max_neighbors = {}): {} adjacent segment(s) are unreachable \
                 during decoding; see DeepSt::lint_output_space",
                self.cfg.max_neighbors,
                out_degree - slots
            ),
        );
    }

    /// One recurrent step outside any training tape: feed `token` into the
    /// GRU given `state` (one `[1, hidden]` array per layer) and return the
    /// new state plus the log-probabilities over the adjacent slots.
    ///
    /// Convenience wrapper over a one-shot [`InferSession`] — it re-derives
    /// the per-trip projections and allocates a fresh arena on every call.
    /// Loops that step many times (decoders, evaluators) should open one
    /// session with [`DeepSt::infer_session`] and use
    /// [`InferSession::step_into`] with a reused log-prob buffer instead.
    pub fn step_state(
        &self,
        state: &[Array],
        token: SegmentId,
        ctx: &TripContext,
    ) -> (Vec<Array>, Vec<f64>) {
        let mut sess = self.infer_session(ctx);
        let mut new_state = state.to_vec();
        let mut lp = Vec::new();
        sess.step_into(&[token], &mut new_state, &mut lp);
        (new_state, lp)
    }

    /// The pre-refactor taped step: binds the inputs to a fresh autodiff
    /// tape, runs the taped forward graph and discards the tape. Kept
    /// verbatim as the behavioural oracle for decode-parity tests and as the
    /// "per-step-tape baseline" of the decode benchmark; production decoding
    /// uses the tape-free [`InferSession`].
    pub fn step_state_taped(
        &self,
        state: &[Array],
        token: SegmentId,
        ctx: &TripContext,
    ) -> (Vec<Array>, Vec<f64>) {
        let tape = Tape::new();
        let binder = Binder::new(&tape);
        let fx = binder.input(ctx.fx.clone());
        let c = ctx.c.as_ref().map(|c| binder.input(c.clone()));
        let mut vars: Vec<_> = state.iter().map(|a| binder.input(a.clone())).collect();
        let inp = self.emb.forward(&binder, &[token]);
        let hid = self.gru.step(&binder, inp, &mut vars);
        let logits = self.slot_logits(&binder, hid, fx, c);
        let logp = ops::log_softmax_rows(logits);
        let new_state = vars.iter().map(|v| (*v.value()).clone()).collect();
        let lp = logp.value().data().iter().map(|&v| v as f64).collect();
        (new_state, lp)
    }

    /// Fresh per-layer zero state for [`DeepSt::step_state`].
    pub fn initial_state(&self) -> Vec<Array> {
        (0..self.gru.layers())
            .map(|_| Array::zeros(&[1, self.cfg.hidden]))
            .collect()
    }

    /// Open a tape-free decoding session for one trip: precomputes the
    /// constant slot-head projections (`fx·β`, `c·γ`), packs the recurrent
    /// weights once for the session, and owns the scratch arena every
    /// subsequent step allocates from. Full-precision
    /// ([`InferPrecision::F32`]) kernels.
    pub fn infer_session(&self, ctx: &TripContext) -> InferSession<'_> {
        self.infer_session_with(ctx, InferPrecision::F32)
    }

    /// [`DeepSt::infer_session`] with an explicit numeric precision for the
    /// decode hot loop. Weight packing/quantization happens here, once per
    /// session — the per-step path never touches `Param::value()` weights.
    pub fn infer_session_with(
        &self,
        ctx: &TripContext,
        precision: InferPrecision,
    ) -> InferSession<'_> {
        assert_eq!(
            ctx.c.is_some(),
            self.cfg.use_traffic,
            "trip context must match cfg.use_traffic"
        );
        let _scope = TapeFreeScope::enter();
        let mut arena = ScratchArena::new();
        let (fx_beta, c_gamma) = self.trip_projections(&mut arena, ctx);
        InferSession {
            model: self,
            arena,
            fx_beta,
            c_gamma,
            kernels: StepKernels::new(self, precision),
        }
    }

    /// Open a tape-free decoding session shared by *many* trips at once:
    /// the serving runtime behind cross-request continuous batching. Weight
    /// packing and the per-token gate memo happen once for the session;
    /// per-trip slot-head projections are registered with
    /// [`MultiTripSession::add_trip`] and freed with
    /// [`MultiTripSession::remove_trip`] as requests join and leave the
    /// step batch. Full-precision ([`InferPrecision::F32`]) kernels — row
    /// `i` of a batched multi-trip step is bit-identical to stepping the
    /// same row alone in that trip's own [`InferSession`].
    pub fn multi_trip_session(&self) -> MultiTripSession<'_> {
        let _scope = TapeFreeScope::enter();
        MultiTripSession {
            model: self,
            arena: ScratchArena::new(),
            kernels: StepKernels::new(self, InferPrecision::F32),
            trips: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Test/validation hook: an [`InferPrecision::Int8`] session whose slot
    /// head is quantized to only `levels` magnitude levels instead of the
    /// full 127. This deliberately degrades the quantizer so the statistical
    /// route-match harness can prove it *fails* a planted regression — it is
    /// not a production knob.
    #[doc(hidden)]
    pub fn infer_session_int8_coarse(&self, ctx: &TripContext, levels: i32) -> InferSession<'_> {
        let mut sess = self.infer_session_with(ctx, InferPrecision::Int8);
        sess.kernels.head = HeadKernel::Quantized(infer::QuantizedMatrix::quantize_with_levels(
            &self.alpha.value(),
            levels,
        ));
        sess
    }

    /// Static check for the config/network mismatch that the generation
    /// loop's truncation counters observe dynamically:
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

/// A reusable tape-free decoding session for one trip.
///
/// This is the batched inference runtime behind [`DeepSt::predict_route`],
/// [`DeepSt::predict_continuation`] and the beam decoder: the recurrent
/// state is packed as one `[n, hidden]` matrix per GRU layer, so one
/// [`InferSession::step_into`] call advances *all* `n` beam candidates with
/// a single batched GEMM per weight matrix. The per-trip projections `fx·β`
/// and `c·γ` are computed once at session start; each step only runs the
/// `h·α` product. All intermediates come from a [`ScratchArena`], so a
/// steady-state decode loop performs no heap allocation, and every step
/// runs inside a [`TapeFreeScope`] (debug builds assert that no autodiff
/// tape is ever created on this path).
///
/// Row `i` of a batched step is bit-identical to stepping row `i` alone —
/// the GEMM kernel accumulates each output row independently in the same
/// order — which is what makes batched beam decoding produce exactly the
/// same routes as the clone-and-step formulation.
pub struct InferSession<'m> {
    model: &'m DeepSt,
    arena: ScratchArena,
    /// `fx·β`, shape `[1, max_neighbors]`.
    fx_beta: Array,
    /// `c·γ`, shape `[1, max_neighbors]`; `None` for DeepST-C.
    c_gamma: Option<Array>,
    /// The trip-independent packed/quantized step kernels + token memo.
    kernels: StepKernels,
}

/// The trip-*independent* half of a decoding session: packed recurrent
/// weights, the slot-head kernel, the optional int8 embedding table and the
/// per-token `emb·Wx` gate memo. [`InferSession`] (one trip) and
/// [`MultiTripSession`] (many trips, continuous batching) both drive their
/// steps through one `StepKernels`, so the arithmetic of a step — and
/// therefore its bit pattern — cannot diverge between the two.
struct StepKernels {
    /// GRU weights packed once at session start for the fused step kernel.
    packed_gru: PackedGru,
    /// The slot head `α`, packed (f32) or quantized (int8) per `precision`.
    head: HeadKernel,
    /// int8 embedding table, present only under [`InferPrecision::Int8`].
    emb_q: Option<infer::QuantizedTable>,
    precision: InferPrecision,
    /// Per-token memo of the bottom GRU layer's `emb(token)·Wx` gate rows:
    /// that projection depends only on the token, and beam decoding revisits
    /// the same segments constantly. `gx0_slot[token]` indexes into
    /// `gx0_cache` (`usize::MAX` = not yet computed); rows are `3·hidden` wide.
    gx0_slot: Vec<usize>,
    gx0_cache: Vec<f32>,
}

impl StepKernels {
    fn new(model: &DeepSt, precision: InferPrecision) -> Self {
        let packed_gru = PackedGru::pack(&model.gru);
        let (head, emb_q) = match precision {
            InferPrecision::F32 => (
                HeadKernel::Packed(infer::PackedWeights::pack(&model.alpha.value())),
                None,
            ),
            InferPrecision::Int8 => (
                HeadKernel::Quantized(infer::QuantizedMatrix::quantize(&model.alpha.value())),
                Some(model.emb.quantize()),
            ),
        };
        Self {
            packed_gru,
            head,
            emb_q,
            precision,
            gx0_slot: vec![usize::MAX; model.emb.vocab()],
            gx0_cache: Vec::new(),
        }
    }

    /// One batched recurrent step to *raw* slot logits: per-token gate memo,
    /// fused GRU update of `state` in place, head projection of the top
    /// layer. Applies no per-trip bias and no softmax — callers layer those
    /// on per their trip layout. Returns `None` only for an empty state.
    fn step_logits(
        &mut self,
        model: &DeepSt,
        arena: &mut ScratchArena,
        tokens: &[SegmentId],
        state: &mut [Array],
    ) -> Option<Array> {
        let n = tokens.len();
        // Bottom-layer gate rows `emb(token)·Wx` come from the per-token
        // memo; a miss computes the row batch-of-one (bit-identical to any
        // batched row — the GEMM accumulates rows independently) and caches
        // it for the rest of the session.
        let g = 3 * self.packed_gru.hidden();
        let mut gx0 = arena.alloc_uninit(&[n, g]);
        for (i, &tok) in tokens.iter().enumerate() {
            let mut slot = self.gx0_slot[tok];
            if slot == usize::MAX {
                let x1 = match &self.emb_q {
                    Some(table) => infer::gather_rows_quantized(arena, table, &[tok]),
                    None => model.emb.infer(arena, &[tok]),
                };
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
        let h = state.last()?;
        Some(match &self.head {
            HeadKernel::Packed(alpha) => infer::matmul_packed(arena, h, alpha),
            HeadKernel::Quantized(alpha) => infer::matmul_quantized(arena, h, alpha),
        })
    }
}

/// Numeric precision of an [`InferSession`]'s decode hot loop.
///
/// `F32` is the default and is bit-identical to the taped forward pass.
/// `Int8` quantizes the embedding table (per-row scales) and the slot-head
/// projection `α` (per-output-channel scales) to int8 with f32 accumulation;
/// the GRU recurrence stays f32. Int8 output is validated *statistically*
/// (route top-1 match rate and Jaccard overlap vs the f32 oracle), never
/// bitwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InferPrecision {
    /// Full-precision packed kernels, bit-identical to the taped oracle.
    #[default]
    F32,
    /// int8 embeddings + output projection, f32 GRU and accumulation.
    Int8,
}

/// How [`InferSession::step_into`] projects hidden state to slot logits.
enum HeadKernel {
    /// `α` pre-packed for the f32 GEMM micro-kernel.
    Packed(infer::PackedWeights),
    /// `α` quantized to int8 with per-output-channel scales.
    Quantized(infer::QuantizedMatrix),
}

impl<'m> InferSession<'m> {
    /// The model this session decodes with.
    pub fn model(&self) -> &'m DeepSt {
        self.model
    }

    /// Packed zero state for `n` rows: one zeroed `[n, hidden]` per layer.
    pub fn zero_state(&mut self, n: usize) -> Vec<Array> {
        self.model.gru.infer_zero_state(&mut self.arena, n)
    }

    /// Advance all rows one step: feed `tokens[i]` into state row `i`,
    /// update `state` in place and refill `logp` with the
    /// `tokens.len() × max_neighbors` row-major slot log-probabilities.
    ///
    /// `logp` is a caller-provided buffer precisely so per-step decode loops
    /// allocate nothing: it is cleared and refilled, never reallocated once
    /// its capacity has grown to one step's size.
    pub fn step_into(&mut self, tokens: &[SegmentId], state: &mut [Array], logp: &mut Vec<f64>) {
        let _scope = TapeFreeScope::enter();
        let n = tokens.len();
        assert!(n > 0, "step_into needs at least one token");
        assert!(
            !state.is_empty() && state[0].shape()[0] == n,
            "state rows must match tokens"
        );
        let Some(mut logits) = self
            .kernels
            .step_logits(self.model, &mut self.arena, tokens, state)
        else {
            return;
        };
        // Same per-element association as the taped head:
        // (h·α + fx·β) then (+ c·γ).
        infer::add_bias_rows(&mut logits, self.fx_beta.data());
        if let Some(cg) = &self.c_gamma {
            infer::add_bias_rows(&mut logits, cg.data());
        }
        infer::log_softmax_rows_mut(&mut logits);
        logp.clear();
        logp.extend(logits.data().iter().map(|&v| f64::from(v)));
        self.arena.recycle(logits);
    }

    /// The pre-packing batched step: identical semantics to
    /// [`InferSession::step_into`] at [`InferPrecision::F32`] (bit-identical
    /// output, asserted in tests), but re-packs every weight matrix on every
    /// call. Kept as the decode-bench baseline so the fused-kernel speedup is
    /// measured against a live implementation, not a recorded number.
    pub fn step_into_generic(
        &mut self,
        tokens: &[SegmentId],
        state: &mut [Array],
        logp: &mut Vec<f64>,
    ) {
        let _scope = TapeFreeScope::enter();
        let n = tokens.len();
        assert!(n > 0, "step_into needs at least one token");
        assert!(
            !state.is_empty() && state[0].shape()[0] == n,
            "state rows must match tokens"
        );
        let x = self.model.emb.infer(&mut self.arena, tokens);
        self.model.gru.infer_step(&mut self.arena, &x, state);
        self.arena.recycle(x);
        let Some(h) = state.last() else { return };
        // st-lint: allow unpacked-gemm-in-infer — this *is* the unpacked
        // baseline the packed path is benchmarked against.
        let mut logits = infer::matmul(&mut self.arena, h, &self.model.alpha.value());
        for r in 0..n {
            for (o, &b) in logits.row_mut(r).iter_mut().zip(self.fx_beta.data()) {
                *o += b;
            }
            if let Some(cg) = &self.c_gamma {
                for (o, &g) in logits.row_mut(r).iter_mut().zip(cg.data()) {
                    *o += g;
                }
            }
        }
        infer::log_softmax_rows_mut(&mut logits);
        logp.clear();
        logp.extend(logits.data().iter().map(|&v| f64::from(v)));
        self.arena.recycle(logits);
    }

    /// The numeric precision this session decodes at.
    pub fn precision(&self) -> InferPrecision {
        self.kernels.precision
    }

    /// New packed state whose row `i` is `state`'s row `rows[i]` — the beam
    /// decoder's survivor selection. Rows may repeat (one parent expanding
    /// into several survivors) or be dropped.
    pub fn gather_state(&mut self, state: &[Array], rows: &[usize]) -> Vec<Array> {
        state
            .iter()
            .map(|layer| {
                let cols = layer.shape()[1];
                // Every row is overwritten below, so skip the zero fill.
                let mut out = self.arena.alloc_uninit(&[rows.len(), cols]);
                for (r, &src) in rows.iter().enumerate() {
                    out.row_mut(r).copy_from_slice(layer.row(src));
                }
                out
            })
            .collect()
    }

    /// Return a packed state's buffers to the session's arena pool.
    pub fn recycle_state(&mut self, state: Vec<Array>) {
        for a in state {
            self.arena.recycle(a);
        }
    }
}

/// Per-trip slot-head projections registered with a [`MultiTripSession`].
struct TripSlot {
    /// `fx·β`, shape `[1, max_neighbors]`.
    fx_beta: Array,
    /// `c·γ`, shape `[1, max_neighbors]`; `None` for DeepST-C.
    c_gamma: Option<Array>,
}

/// A tape-free decoding session shared by many concurrent trips — the
/// substrate for cross-request continuous batching in `st-serve`.
///
/// Where [`InferSession`] fixes one trip's context at construction, a
/// `MultiTripSession` keeps a slot map of per-trip projections (`fx·β`,
/// `c·γ`) and takes a per-row trip assignment on every step, so rows
/// belonging to *different* requests advance through one packed GEMM per
/// weight matrix. The GRU recurrence and head projection are trip-independent
/// (shared [`StepKernels`], including the per-token gate memo, which
/// therefore warms across requests); only the final slot-head bias is
/// per-trip, applied per row with exactly the elementwise order of
/// [`InferSession::step_into`]. Row `i` of a multi-trip step is bit-identical
/// to stepping row `i` alone in its own trip's session — the invariant the
/// `batching_parity` tests in `st-serve` pin end to end.
pub struct MultiTripSession<'m> {
    model: &'m DeepSt,
    arena: ScratchArena,
    kernels: StepKernels,
    /// Slot map of registered trips; `None` slots are free.
    trips: Vec<Option<TripSlot>>,
    free: Vec<usize>,
}

impl<'m> MultiTripSession<'m> {
    /// The model this session decodes with.
    pub fn model(&self) -> &'m DeepSt {
        self.model
    }

    /// Register one trip's context; returns the trip id used in
    /// [`MultiTripSession::step_into`] row assignments. Slots of removed
    /// trips are reused.
    pub fn add_trip(&mut self, ctx: &TripContext) -> usize {
        assert_eq!(
            ctx.c.is_some(),
            self.model.cfg.use_traffic,
            "trip context must match cfg.use_traffic"
        );
        let _scope = TapeFreeScope::enter();
        let (fx_beta, c_gamma) = self.model.trip_projections(&mut self.arena, ctx);
        let slot = TripSlot { fx_beta, c_gamma };
        match self.free.pop() {
            Some(i) => {
                self.trips[i] = Some(slot);
                i
            }
            None => {
                self.trips.push(Some(slot));
                self.trips.len() - 1
            }
        }
    }

    /// Unregister a trip (its request finished); the slot is recycled.
    /// The id must come from [`MultiTripSession::add_trip`] and not have
    /// been removed already.
    pub fn remove_trip(&mut self, trip: usize) {
        let slot = self.trips[trip].take();
        assert!(slot.is_some(), "trip {trip} is not registered");
        if let Some(s) = slot {
            self.arena.recycle(s.fx_beta);
            if let Some(cg) = s.c_gamma {
                self.arena.recycle(cg);
            }
        }
        self.free.push(trip);
    }

    /// Number of currently registered trips.
    pub fn active_trips(&self) -> usize {
        self.trips.len() - self.free.len()
    }

    /// Packed zero state for `n` rows: one zeroed `[n, hidden]` per layer.
    pub fn zero_state(&mut self, n: usize) -> Vec<Array> {
        self.model.gru.infer_zero_state(&mut self.arena, n)
    }

    /// Advance all rows one step: feed `tokens[i]` into state row `i`,
    /// which belongs to registered trip `trips[i]`; update `state` in place
    /// and refill `logp` with the `tokens.len() × max_neighbors` row-major
    /// slot log-probabilities. Rows of different trips may interleave
    /// freely; each row's bias comes from its own trip's projections.
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
        let Some(mut logits) = self
            .kernels
            .step_logits(self.model, &mut self.arena, tokens, state)
        else {
            return;
        };
        // Per-row biases in the same per-element association as the
        // single-trip path: (h·α + fx·β) then (+ c·γ). A plain elementwise
        // `+=` over one row is exactly what `infer::add_bias_rows` performs
        // on that row, so the bits match `InferSession::step_into`.
        for (r, &trip) in trips.iter().enumerate() {
            let slot = self.trips[trip].as_ref();
            assert!(
                slot.is_some(),
                "row {r} references unregistered trip {trip}"
            );
            let Some(slot) = slot else { continue };
            for (o, &b) in logits.row_mut(r).iter_mut().zip(slot.fx_beta.data()) {
                *o += b;
            }
            if let Some(cg) = &slot.c_gamma {
                for (o, &g) in logits.row_mut(r).iter_mut().zip(cg.data()) {
                    *o += g;
                }
            }
        }
        infer::log_softmax_rows_mut(&mut logits);
        logp.clear();
        logp.extend(logits.data().iter().map(|&v| f64::from(v)));
        self.arena.recycle(logits);
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
        state
            .iter()
            .map(|layer| {
                let cols = layer.shape()[1];
                // Every row is overwritten below, so skip the zero fill.
                let mut out = self.arena.alloc_uninit(&[rows.len(), cols]);
                for (r, &src) in rows.iter().enumerate() {
                    match src {
                        Some(src) => out.row_mut(r).copy_from_slice(layer.row(src)),
                        None => out.row_mut(r).fill(0.0),
                    }
                }
                out
            })
            .collect()
    }

    /// Return a packed state's buffers to the session's arena pool.
    pub fn recycle_state(&mut self, state: Vec<Array>) {
        for a in state {
            self.arena.recycle(a);
        }
    }
}

fn sample_index(probs: &[f32], rng: &mut StdRng) -> usize {
    let mut u: f32 = rng.gen();
    for (i, &p) in probs.iter().enumerate() {
        if u < p {
            return i;
        }
        u -= p;
    }
    probs.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeepStConfig;
    use st_roadnet::{grid_city, GridConfig};
    use st_tensor::init;

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

    /// The pre-PR-4 `predict_route`: one tape/binder shared across the
    /// whole generation loop (so the tape grows with route length). Kept
    /// verbatim as the behavioural oracle for the fresh-tape-per-step
    /// rewrite — greedy decoding must produce identical routes.
    fn reference_one_tape_greedy(
        model: &DeepSt,
        net: &st_roadnet::RoadNetwork,
        start: SegmentId,
        dest_m: &Point,
        ctx: &TripContext,
    ) -> Route {
        let tape = Tape::new();
        let binder = Binder::new(&tape);
        let fx = binder.input(ctx.fx.clone());
        let c = ctx.c.as_ref().map(|c| binder.input(c.clone()));
        let mut state = model.gru.zero_state(&binder, 1);
        let mut route = vec![start];
        let mut cur = start;
        loop {
            if route.len() >= model.cfg.max_route_len {
                break;
            }
            let nexts = net.next_segments(cur);
            if nexts.is_empty() {
                break;
            }
            let inp = model.emb.forward(&binder, &[cur]);
            let hid = model.gru.step(&binder, inp, &mut state);
            let logits = model.slot_logits(&binder, hid, fx, c);
            let lv = logits.value();
            let valid = &lv.data()[..nexts.len().min(model.cfg.max_neighbors)];
            let mut best = 0;
            for (j, &v) in valid.iter().enumerate() {
                if v > valid[best] {
                    best = j;
                }
            }
            let next = nexts[best];
            route.push(next);
            cur = next;
            let proj = net.project_onto(dest_m, next);
            if model.termination_prob(proj.dist(dest_m)) > 0.5 {
                break;
            }
        }
        route
    }

    #[test]
    fn stepwise_greedy_matches_one_tape_reference() {
        let (net, model) = setup();
        let c = model.encode_traffic(&vec![0.2; 64]);
        for (start, dest_norm, dest) in [
            (0usize, [0.8f32, 0.8f32], Point::new(300.0, 300.0)),
            (3, [0.2, 0.9], Point::new(100.0, 300.0)),
            (7, [0.5, 0.1], Point::new(200.0, 50.0)),
        ] {
            let ctx = model.encode_context(dest_norm, Some(c.clone()));
            let expect = reference_one_tape_greedy(&model, &net, start, &dest, &ctx);
            let got = model.predict_route(&net, start, &dest, &ctx, None);
            assert_eq!(got, expect, "start {start} dest {dest:?}");
        }
    }

    #[test]
    fn generation_allocates_no_tapes() {
        let (net, model) = setup();
        let c = model.encode_traffic(&vec![0.2; 64]);
        let ctx = model.encode_context([0.9, 0.9], Some(c));
        // The whole decode — context encoding included — runs on the
        // tape-free inference runtime: the thread's tape-creation counter
        // must not move across an entire route generation.
        let created = Tape::created_count();
        let route = model.predict_route(&net, 0, &Point::new(380.0, 380.0), &ctx, None);
        assert!(route.len() >= 2);
        assert_eq!(
            Tape::created_count(),
            created,
            "decoding allocated an autodiff tape"
        );
    }

    /// The tape-free step must reproduce the pre-refactor taped step
    /// bit-for-bit: log-probs (f64) and every state element (f32), over a
    /// multi-step rollout so state differences would compound and surface.
    #[test]
    fn infer_step_matches_taped_step_bitwise() {
        let (net, model) = setup();
        let c = model.encode_traffic(&vec![0.3; 64]);
        let ctx = model.encode_context([0.4, 0.7], Some(c));
        let mut infer_state = model.initial_state();
        let mut taped_state = model.initial_state();
        let mut cur = 0usize;
        for step in 0..6 {
            let (ni, li) = model.step_state(&infer_state, cur, &ctx);
            let (nt, lt) = model.step_state_taped(&taped_state, cur, &ctx);
            let li_bits: Vec<u64> = li.iter().map(|v| v.to_bits()).collect();
            let lt_bits: Vec<u64> = lt.iter().map(|v| v.to_bits()).collect();
            assert_eq!(li_bits, lt_bits, "log-prob mismatch at step {step}");
            for (layer, (a, b)) in ni.iter().zip(&nt).enumerate() {
                let ab: Vec<u32> = a.data().iter().map(|v| v.to_bits()).collect();
                let bb: Vec<u32> = b.data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(ab, bb, "state mismatch at step {step} layer {layer}");
            }
            infer_state = ni;
            taped_state = nt;
            cur = net.next_segments(cur)[0];
        }
    }

    /// The fused packed step (the default `step_into`) and the retained
    /// generic step must agree bit-for-bit at f32 precision: log-probs (f64)
    /// and every state element (f32), over a multi-step batched rollout.
    #[test]
    fn fused_step_matches_generic_step_bitwise() {
        let (net, model) = setup();
        let c = model.encode_traffic(&vec![0.25; 64]);
        let ctx = model.encode_context([0.3, 0.8], Some(c));
        let mut fused = model.infer_session(&ctx);
        let mut generic = model.infer_session(&ctx);
        let mut state_f = fused.zero_state(3);
        let mut state_g = generic.zero_state(3);
        let mut tokens: Vec<usize> = vec![0, 3, 7];
        let (mut lp_f, mut lp_g) = (Vec::new(), Vec::new());
        for step in 0..6 {
            fused.step_into(&tokens, &mut state_f, &mut lp_f);
            generic.step_into_generic(&tokens, &mut state_g, &mut lp_g);
            let fb: Vec<u64> = lp_f.iter().map(|v| v.to_bits()).collect();
            let gb: Vec<u64> = lp_g.iter().map(|v| v.to_bits()).collect();
            assert_eq!(fb, gb, "log-prob mismatch at step {step}");
            for (layer, (a, b)) in state_f.iter().zip(&state_g).enumerate() {
                let ab: Vec<u32> = a.data().iter().map(|v| v.to_bits()).collect();
                let bb: Vec<u32> = b.data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(ab, bb, "state mismatch at step {step} layer {layer}");
            }
            tokens = tokens.iter().map(|&t| net.next_segments(t)[0]).collect();
        }
    }

    /// The int8 session must emit valid, finite log-distributions that stay
    /// close to the f32 oracle (the hard route-level accuracy gate lives in
    /// the decode benchmark), and must be deterministic across sessions.
    #[test]
    fn int8_session_tracks_f32_distributions() {
        let (net, model) = setup();
        let c = model.encode_traffic(&vec![0.15; 64]);
        let ctx = model.encode_context([0.7, 0.4], Some(c));
        let mut f32s = model.infer_session(&ctx);
        let mut q = model.infer_session_with(&ctx, InferPrecision::Int8);
        let mut q2 = model.infer_session_with(&ctx, InferPrecision::Int8);
        assert_eq!(q.precision(), InferPrecision::Int8);
        assert_eq!(f32s.precision(), InferPrecision::F32);
        let a = model.cfg.max_neighbors;
        let mut sf = f32s.zero_state(2);
        let mut sq = q.zero_state(2);
        let mut sq2 = q2.zero_state(2);
        let mut tokens: Vec<usize> = vec![1, 5];
        let (mut lf, mut lq, mut lq2) = (Vec::new(), Vec::new(), Vec::new());
        for step in 0..6 {
            f32s.step_into(&tokens, &mut sf, &mut lf);
            q.step_into(&tokens, &mut sq, &mut lq);
            q2.step_into(&tokens, &mut sq2, &mut lq2);
            assert_eq!(lq, lq2, "int8 decode must be deterministic");
            for (row, chunk) in lq.chunks(a).enumerate() {
                let sum: f64 = chunk.iter().map(|&v| v.exp()).sum();
                assert!(
                    (sum - 1.0).abs() < 1e-5,
                    "row {row} not a distribution at step {step}: {sum}"
                );
            }
            let worst = lf
                .iter()
                .zip(&lq)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f64, f64::max);
            assert!(
                worst < 0.2,
                "int8 log-probs drifted {worst} from f32 at step {step}"
            );
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

        let mut sess = model.infer_session(&ctx);
        let mut batched = sess.zero_state(n);
        let mut lp_b = Vec::new();
        sess.step_into(&tokens0, &mut batched, &mut lp_b);
        let mut lp_b2 = Vec::new();
        sess.step_into(&tokens1, &mut batched, &mut lp_b2);

        let a = model.cfg.max_neighbors;
        for r in 0..n {
            let mut single = sess.zero_state(1);
            let mut lp_s = Vec::new();
            sess.step_into(&tokens0[r..=r], &mut single, &mut lp_s);
            let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
            assert_eq!(
                bits(&lp_b[r * a..(r + 1) * a]),
                bits(&lp_s),
                "row {r} step 0"
            );
            sess.step_into(&tokens1[r..=r], &mut single, &mut lp_s);
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
    /// to stepping each row alone in its own trip's [`InferSession`] — the
    /// invariant cross-request continuous batching stands on. Uses two
    /// different trip contexts and chains steps so state differences would
    /// compound and surface.
    #[test]
    fn multi_trip_rows_match_single_trip_sessions() {
        let (net, model) = setup();
        let ca = model.encode_traffic(&vec![0.1; 64]);
        let cb = model.encode_traffic(&vec![0.7; 64]);
        let ctx_a = model.encode_context([0.2, 0.8], Some(ca));
        let ctx_b = model.encode_context([0.9, 0.3], Some(cb));

        let mut multi = model.multi_trip_session();
        let ta = multi.add_trip(&ctx_a);
        let tb = multi.add_trip(&ctx_b);
        assert_eq!(multi.active_trips(), 2);
        // Rows interleave the two trips: a, b, a, b.
        let trips = [ta, tb, ta, tb];
        let mut tokens: Vec<usize> = vec![0, 0, 3, 5];
        let mut state = multi.zero_state(4);
        let mut lp = Vec::new();

        let mut sess_a = model.infer_session(&ctx_a);
        let mut sess_b = model.infer_session(&ctx_b);
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
                let sess = if trips[*r] == ta {
                    &mut sess_a
                } else {
                    &mut sess_b
                };
                sess.step_into(&tokens[*r..=*r], single, &mut lp_s);
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
        let mut multi = model.multi_trip_session();
        let t0 = multi.add_trip(&ctx);
        let t1 = multi.add_trip(&ctx);
        multi.remove_trip(t0);
        assert_eq!(multi.active_trips(), 1);
        let t2 = multi.add_trip(&ctx);
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
        let mut multi = model.multi_trip_session();
        let t = multi.add_trip(&ctx);
        multi.remove_trip(t);
        multi.remove_trip(t);
    }

    /// `gather_state` must copy exactly the requested rows, with repeats.
    #[test]
    fn gather_state_selects_rows() {
        let (_, model) = setup();
        let c = model.encode_traffic(&vec![0.2; 64]);
        let ctx = model.encode_context([0.5, 0.5], Some(c));
        let mut sess = model.infer_session(&ctx);
        let mut state = sess.zero_state(3);
        let mut lp = Vec::new();
        sess.step_into(&[0, 1, 2], &mut state, &mut lp);
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
        // And decoding with it counts truncated transitions. Start from a
        // segment whose successor list has the full max out-degree, so the
        // very first step is guaranteed to truncate.
        let start = (0..net.num_segments())
            .find(|&s| net.next_segments(s).len() == net.max_out_degree())
            .expect("grid has a max-degree intersection");
        let before = st_obs::counter("decode.truncated_transitions").get();
        let c = narrow.encode_traffic(&vec![0.2; 64]);
        let ctx = narrow.encode_context([0.9, 0.9], Some(c));
        let route = narrow.predict_route(&net, start, &Point::new(380.0, 380.0), &ctx, None);
        assert!(net.is_valid_route(&route));
        assert!(
            st_obs::counter("decode.truncated_transitions").get() > before,
            "no truncation observed on a narrow head"
        );
    }

    #[test]
    fn greedy_prediction_is_valid_and_deterministic() {
        let (net, model) = setup();
        let c = model.encode_traffic(&vec![0.2; 64]);
        let ctx = model.encode_context([0.8, 0.8], Some(c));
        let dest = Point::new(300.0, 300.0);
        let r1 = model.predict_route(&net, 0, &dest, &ctx, None);
        let r2 = model.predict_route(&net, 0, &dest, &ctx, None);
        assert_eq!(r1, r2);
        assert!(net.is_valid_route(&r1));
        assert!(r1.len() <= model.cfg.max_route_len);
        assert_eq!(r1[0], 0);
    }

    #[test]
    fn sampled_prediction_is_valid() {
        let (net, model) = setup();
        let c = model.encode_traffic(&vec![0.2; 64]);
        let ctx = model.encode_context([0.2, 0.9], Some(c));
        let dest = Point::new(100.0, 300.0);
        let mut rng = init::rng(7);
        for _ in 0..5 {
            let r = model.predict_route(&net, 3, &dest, &ctx, Some(&mut rng));
            assert!(net.is_valid_route(&r));
        }
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

    #[test]
    fn sampled_score_close_to_mean_score() {
        let (net, model) = setup();
        let tensor = vec![0.2f32; 64];
        let c = model.encode_traffic(&tensor);
        let ctx = model.encode_context([0.5, 0.5], Some(c));
        let mut route = vec![0usize];
        for _ in 0..4 {
            route.push(net.next_segments(*route.last().unwrap())[0]);
        }
        let mean_score = model.score_route(&net, &route, &ctx);
        let mut rng = init::rng(5);
        let sampled =
            model.score_route_sampled(&net, &route, [0.5, 0.5], Some(&tensor), 16, &mut rng);
        assert!(sampled.is_finite());
        // the sampled estimate is in the same ballpark as the mean-posterior
        // score (an untrained model's posterior is diffuse, so allow slack)
        assert!(
            (sampled - mean_score).abs() < mean_score.abs() * 0.8 + 2.0,
            "sampled {sampled} vs mean {mean_score}"
        );
        // invalid routes still score −∞
        let mut bad = route.clone();
        bad.push(0);
        if !net.adjacent(*route.last().unwrap(), 0) {
            assert_eq!(
                model.score_route_sampled(&net, &bad, [0.5, 0.5], Some(&tensor), 4, &mut rng),
                f64::NEG_INFINITY
            );
        }
    }

    #[test]
    fn continuation_extends_prefix() {
        let (net, model) = setup();
        let c = model.encode_traffic(&vec![0.1; 64]);
        let ctx = model.encode_context([0.7, 0.2], Some(c));
        let mut prefix = vec![0usize];
        for _ in 0..3 {
            prefix.push(net.next_segments(*prefix.last().unwrap())[0]);
        }
        let dest = Point::new(250.0, 80.0);
        let route = model.predict_continuation(&net, &prefix, &dest, &ctx, None);
        assert!(route.len() >= prefix.len());
        assert_eq!(&route[..prefix.len()], prefix.as_slice());
        assert!(net.is_valid_route(&route));
        // deterministic
        let again = model.predict_continuation(&net, &prefix, &dest, &ctx, None);
        assert_eq!(route, again);
    }

    #[test]
    #[should_panic(expected = "prefix")]
    fn continuation_rejects_empty_prefix() {
        let (net, model) = setup();
        let ctx = model.encode_context([0.5, 0.5], Some(model.encode_traffic(&vec![0.0; 64])));
        let _ = model.predict_continuation(&net, &[], &Point::new(0.0, 0.0), &ctx, None);
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
