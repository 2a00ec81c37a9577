//! The neural sequence baselines: vanilla RNN and CSSRNN \[7\].
//!
//! - **RNN** (§V-A): "the vanilla RNN that only takes the initial road
//!   segment as input … ignoring the impact of both the destination and
//!   real-time traffic." Next-road logits come from the GRU state alone.
//! - **CSSRNN** \[7\]: "assumes the last road segments of the trips are known
//!   in advance and learns their representations to help model the spatial
//!   transition" — a *separate* representation per destination segment (the
//!   very thing DeepST's K-proxies improve on, §IV-C).
//!
//! Both are built on DeepST's own next-segment network,
//! [`st_core::RouteRnn`] (segment embedding, stacked GRU, slot head `α`),
//! so Table IV differences isolate the conditioning information, not the
//! architecture: the only per-model part is the slot-bias term, CSSRNN's
//! `emb(dest)·β` where DeepST has `fx·β` and `c·γ`. They train through the
//! same packed pass ([`RouteRnn::route_log_likelihood`]) and loop —
//! [`RnnBaseline`] is a [`TrainModel`], so `st_core::Trainer::fit` trains
//! it with DeepST's clip, sharding, checkpoints and rollback — and decode
//! through the same tape-free session ([`SessionDecoder`]).

use rand::rngs::StdRng;

use st_core::{Example, RouteRnn, TrainModel};
use st_nn::{BnBatchStats, Embedding, Module};
use st_roadnet::{RoadNetwork, Route, SegmentId};
use st_tensor::{init, ops, Array, Binder, Param, ScratchArena, Var};

use crate::beam::{beam_decode, greedy_decode, SessionDecoder};
use crate::predictor::{PredictQuery, Predictor};

/// Configuration shared by both neural baselines.
#[derive(Debug, Clone)]
pub struct RnnConfig {
    /// Segment vocabulary size.
    pub n_segments: usize,
    /// Output slot width (`max_r N(r)`).
    pub max_neighbors: usize,
    /// Embedding dimension.
    pub emb_dim: usize,
    /// GRU hidden size.
    pub hidden: usize,
    /// Stacked GRU layers.
    pub gru_layers: usize,
    /// Destination-segment embedding size (CSSRNN only).
    pub dest_dim: usize,
    /// Hard cap on generated route length.
    pub max_route_len: usize,
}

impl RnnConfig {
    /// Defaults mirroring the scaled DeepST settings.
    pub fn new(n_segments: usize, max_neighbors: usize) -> Self {
        Self {
            n_segments,
            max_neighbors,
            emb_dim: 32,
            hidden: 64,
            gru_layers: 2,
            dest_dim: 32,
            max_route_len: 150,
        }
    }
}

/// A GRU next-road model, optionally conditioned on the exact destination
/// segment (CSSRNN) — see module docs.
pub struct RnnBaseline {
    cfg: RnnConfig,
    name: &'static str,
    /// Segment embedding, stacked GRU and slot head `α`.
    rnn: RouteRnn,
    /// Destination-segment embedding + projection (CSSRNN only).
    dest: Option<(Embedding, Param)>,
}

impl RnnBaseline {
    /// The vanilla RNN baseline.
    pub fn vanilla(cfg: RnnConfig, seed: u64) -> Self {
        Self::build(cfg, seed, false)
    }

    /// The CSSRNN baseline (destination-segment conditioned).
    pub fn cssrnn(cfg: RnnConfig, seed: u64) -> Self {
        Self::build(cfg, seed, true)
    }

    fn build(cfg: RnnConfig, seed: u64, use_dest: bool) -> Self {
        let mut rng = init::rng(seed);
        let name = if use_dest { "CSSRNN" } else { "RNN" };
        let rnn = RouteRnn::new(
            name,
            cfg.n_segments,
            cfg.emb_dim,
            Embedding::DEFAULT_BLOCK_ROWS,
            cfg.hidden,
            cfg.gru_layers,
            cfg.max_neighbors,
            &mut rng,
        );
        let dest = use_dest.then(|| {
            (
                Embedding::new(
                    &format!("{name}.dest_emb"),
                    cfg.n_segments,
                    cfg.dest_dim,
                    &mut rng,
                ),
                Param::new(
                    format!("{name}.beta"),
                    init::xavier(cfg.dest_dim, cfg.max_neighbors, &mut rng),
                ),
            )
        });
        Self {
            cfg,
            name,
            rnn,
            dest,
        }
    }

    /// CSSRNN's slot-bias term for destination segments `dest_segs`
    /// (`emb(dest)·β`; none for the vanilla RNN). Lazy: the lookup is
    /// recorded when [`RouteRnn::slot_logits`] folds the term, after `h·α`.
    fn slot_terms<'b, 't, 'p>(
        &'p self,
        b: &'b Binder<'t, 'p>,
        dest_segs: Vec<SegmentId>,
    ) -> impl Iterator<Item = (Var<'t>, &'p Param)> + 'b {
        self.dest
            .iter()
            .map(move |(demb, beta)| (demb.forward(b, &dest_segs), beta))
    }

    /// CSSRNN's destination row `emb(dest)` and its projection `β` for
    /// the tape-free paths; `None` for the vanilla RNN.
    fn dest_row(&self, dest_seg: SegmentId) -> Option<(Array, &Param)> {
        self.dest
            .as_ref()
            .map(|(demb, beta)| (demb.infer(&mut ScratchArena::new(), &[dest_seg]), beta))
    }

    /// The taped step of one row ([`RouteRnn::step_state_taped`] with
    /// CSSRNN's destination term): the parity oracle of the tape-free
    /// [`RnnBaseline::decoder`].
    pub fn step_state_taped(
        &self,
        state: &[Array],
        token: SegmentId,
        dest_seg: SegmentId,
    ) -> (Vec<Array>, Vec<f64>) {
        let dest = self.dest_row(dest_seg);
        self.rnn
            .step_state_taped(state, token, dest.as_ref().map(|(d, beta)| (d, *beta)))
    }

    /// Fresh zero state for [`RnnBaseline::step_state_taped`].
    pub fn initial_state(&self) -> Vec<Array> {
        self.rnn.initial_state()
    }

    /// Open a tape-free decoder for one trip. `dest_seg` is the
    /// destination segment CSSRNN conditions on (ignored by the vanilla
    /// RNN); its slot projection `emb(dest)·β` is registered once as the
    /// trip's slot-bias row.
    pub fn decoder(&self, dest_seg: SegmentId) -> SessionDecoder<'_> {
        let dest = self.dest_row(dest_seg);
        SessionDecoder::open(
            self.rnn.infer_session(),
            dest.as_ref().map(|(d, beta)| (d, *beta)),
        )
    }
}

impl Module for RnnBaseline {
    fn params(&self) -> Vec<&Param> {
        let mut p = self.rnn.params();
        if let Some((demb, beta)) = &self.dest {
            p.extend(demb.params());
            p.push(beta);
        }
        p
    }

    /// Mirrors [`RnnBaseline::params`] with each sharded embedding table as
    /// one group, so grouped clipping stays bit-identical to the dense
    /// layout (see [`Module::param_groups`]).
    fn param_groups(&self) -> Vec<Vec<&Param>> {
        let mut g = self.rnn.param_groups();
        if let Some((demb, beta)) = &self.dest {
            g.extend(demb.param_groups());
            g.push(vec![beta]);
        }
        g
    }
}

impl TrainModel for RnnBaseline {
    /// Cross-entropy loss (mean per transition) of a minibatch: the
    /// shared packed pass ([`RouteRnn::route_log_likelihood`]), which steps
    /// only the routes with a transition left, bit-identical to stepping
    /// every route to the longest one and masking the finished rows (see
    /// DESIGN.md §7). CSSRNN looks up the destination embeddings of the
    /// running rows at every step. The loss draws no noise and has no
    /// batch norm.
    fn loss<'t, 'p>(
        &'p self,
        binder: &Binder<'t, 'p>,
        batch: &[&Example],
        _rng: &mut StdRng,
        _training: bool,
        _bn_stats: Option<&mut BnBatchStats>,
    ) -> Var<'t> {
        let (total, transitions) = self.rnn.route_log_likelihood(binder, batch, |_, rows| {
            // A running route has a transition left, so it has a last segment.
            let dest_segs = rows
                .iter()
                .map(|&r| batch[r].route.last().copied().unwrap_or(0))
                .collect();
            self.slot_terms(binder, dest_segs)
        });
        ops::scale(total, -1.0 / transitions.max(1) as f32)
    }

    fn slot_width(&self) -> usize {
        self.cfg.max_neighbors
    }
}

impl Predictor for RnnBaseline {
    fn name(&self) -> &str {
        self.name
    }

    fn predict(&self, net: &RoadNetwork, q: &PredictQuery<'_>) -> Route {
        let mut dec = self.decoder(q.dest_segment);
        if self.dest.is_some() {
            // CSSRNN knows the exact destination segment (paper [7]); its
            // most-likely route is beam-decoded with the shared f_s
            // termination in the route probability.
            beam_decode(
                net,
                &mut dec,
                q.start,
                &q.dest_coord,
                8,
                self.cfg.max_route_len,
            )
        } else {
            // The vanilla RNN is destination-blind: greedy rollout; the
            // destination only stops generation, never steers it.
            greedy_decode(
                net,
                &mut dec,
                q.start,
                &q.dest_coord,
                self.cfg.max_route_len,
            )
        }
    }
}

#[cfg(test)]
#[path = "../../st-nn/tests/common/composed_gru.rs"]
mod composed_gru;

#[cfg(test)]
#[path = "../../st-nn/tests/common/shard_lens.rs"]
mod shard_lens;

#[cfg(test)]
mod tests {
    use super::shard_lens::shard_lens;
    use super::*;
    use st_core::{TrainConfig, Trainer};
    use st_roadnet::{grid_city, GridConfig};
    use st_tensor::Tape;
    use std::sync::Arc;

    /// A serial trainer: one shard per minibatch, one thread, Adam at
    /// `lr`, clip 5.0, no early stopping.
    fn trainer(
        model: RnnBaseline,
        epochs: usize,
        batch_size: usize,
        lr: f32,
    ) -> Trainer<RnnBaseline> {
        let cfg = TrainConfig {
            epochs,
            batch_size,
            shard_size: batch_size,
            num_threads: 1,
            lr,
            grad_clip: 5.0,
            patience: None,
            ..TrainConfig::default()
        };
        Trainer::new(model, cfg)
    }

    /// Per-epoch train losses of a clean `fit` run.
    fn fit(trainer: &mut Trainer<RnnBaseline>, examples: &[Example], rng: &mut StdRng) -> Vec<f32> {
        let history = trainer.fit(examples, None, rng).expect("clean run");
        history.epochs.iter().map(|e| e.train_loss).collect()
    }

    /// One training loss on a throwaway RNG (the loss draws no noise).
    fn batch_loss<'t, 'p>(
        model: &'p RnnBaseline,
        binder: &Binder<'t, 'p>,
        batch: &[&Example],
    ) -> Var<'t> {
        model.loss(binder, batch, &mut init::rng(0), true, None)
    }

    /// Examples whose next-step depends on the destination: trips to dest A
    /// always turn with slot 0, trips to dest B with slot 1.
    fn dest_dependent_examples(net: &RoadNetwork, n: usize) -> Vec<Example> {
        let tensor = Arc::new(Vec::new());
        let mut out = Vec::new();
        for i in 0..n {
            let to_a = i % 2 == 0;
            let mut route = vec![(i * 3) % net.num_segments()];
            for _ in 0..5 {
                let nexts = net.next_segments(*route.last().unwrap());
                let slot = if to_a { 0 } else { nexts.len() - 1 };
                route.push(nexts[slot]);
            }
            let dest = if to_a { [0.1, 0.1] } else { [0.9, 0.9] };
            if let Some(ex) = Example::new(net, route, dest, Arc::clone(&tensor), 0) {
                out.push(ex);
            }
        }
        out
    }

    #[test]
    fn cssrnn_beats_vanilla_on_dest_dependent_world() {
        let net = grid_city(&GridConfig::small_test(), 8);
        let examples = dest_dependent_examples(&net, 60);
        let cfg = RnnConfig::new(net.num_segments(), net.max_out_degree());
        let mut rng = init::rng(0);
        let mut vanilla = trainer(RnnBaseline::vanilla(cfg.clone(), 0), 18, 64, 5e-3);
        let v_hist = fit(&mut vanilla, &examples, &mut rng);
        let mut css = trainer(RnnBaseline::cssrnn(cfg, 0), 18, 64, 5e-3);
        let c_hist = fit(&mut css, &examples, &mut rng);
        // CSSRNN can disambiguate by destination; vanilla cannot.
        assert!(
            c_hist.last().unwrap() < v_hist.last().unwrap(),
            "CSSRNN {c_hist:?} not better than RNN {v_hist:?}"
        );
        // CSSRNN should do clearly better than a coin flip between the two
        // modes (ln 2 ≈ 0.693 nats per binary decision).
        assert!(
            *c_hist.last().unwrap() < 0.6,
            "CSSRNN loss {:?}",
            c_hist.last()
        );
    }

    #[test]
    fn training_reduces_loss() {
        let net = grid_city(&GridConfig::small_test(), 8);
        let examples = dest_dependent_examples(&net, 40);
        let cfg = RnnConfig::new(net.num_segments(), net.max_out_degree());
        let mut rng = init::rng(1);
        let mut model = trainer(RnnBaseline::vanilla(cfg, 1), 8, 64, 3e-3);
        let hist = fit(&mut model, &examples, &mut rng);
        assert!(hist.last().unwrap() < hist.first().unwrap());
    }

    #[test]
    fn prediction_is_valid_route() {
        let net = grid_city(&GridConfig::small_test(), 8);
        let examples = dest_dependent_examples(&net, 20);
        let cfg = RnnConfig::new(net.num_segments(), net.max_out_degree());
        let mut rng = init::rng(2);
        let mut trainer = trainer(RnnBaseline::cssrnn(cfg, 2), 2, 64, 3e-3);
        fit(&mut trainer, &examples, &mut rng);
        let model = trainer.model;
        let dst = net.num_segments() / 2;
        let q = PredictQuery {
            start: 0,
            dest_coord: net.midpoint(dst),
            dest_norm: [0.5, 0.5],
            dest_segment: dst,
            traffic: &[],
            slot_id: 0,
        };
        let r = model.predict(&net, &q);
        assert!(net.is_valid_route(&r));
        assert_eq!(r[0], 0);
        assert!(r.len() <= 150);
    }

    fn state_bits(model: &RnnBaseline) -> Vec<Vec<u32>> {
        model
            .state()
            .iter()
            .map(|(_, a)| a.data().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// `Trainer::train_epoch` counts every RNN minibatch it cannot step,
    /// and an epoch that stepped nothing reports NaN — not a perfect 0.0
    /// loss — and leaves the model untouched.
    #[test]
    fn skipped_minibatches_are_counted_and_an_all_skipped_epoch_is_nan() {
        let net = grid_city(&GridConfig::small_test(), 8);
        let examples = dest_dependent_examples(&net, 16);
        let cfg = RnnConfig::new(net.num_segments(), net.max_out_degree());
        let mut trainer = trainer(RnnBaseline::cssrnn(cfg, 3), 1, 8, 3e-3);
        // Plants a non-finite loss in every minibatch: slot 0's logit is
        // NaN on every step.
        trainer.model.rnn.alpha().value_mut().data_mut()[0] = f32::NAN;
        let before = state_bits(&trainer.model);
        let skipped = st_obs::counter("train.batch.skipped.nonfinite_loss");
        let base = skipped.get();
        let mut rng = init::rng(4);

        let loss = trainer.train_epoch(&examples, &mut rng);
        assert!(loss.is_nan(), "all-skipped epoch reported loss {loss}");
        assert_eq!(skipped.get() - base, 2);
        assert_eq!(
            state_bits(&trainer.model),
            before,
            "a skipped minibatch moved the model"
        );
    }

    /// A NaN gradient norm must not reach Adam: the clip cannot scale it
    /// down (`NaN > max_norm` is false), so a step would write NaN into the
    /// parameters. `Trainer::train_epoch` skips the minibatch, zeroes the
    /// gradients and counts it instead.
    #[test]
    fn nonfinite_grad_norm_skips_the_step() {
        let net = grid_city(&GridConfig::small_test(), 8);
        let examples = dest_dependent_examples(&net, 8);
        let cfg = RnnConfig::new(net.num_segments(), net.max_out_degree());
        let mut trainer = trainer(RnnBaseline::vanilla(cfg, 5), 1, 8, 3e-3);
        {
            let planted = trainer.model.params()[0];
            let shape = planted.value().shape().to_vec();
            planted.accumulate_grad(&Array::full(&shape, f32::NAN));
        }
        let before = state_bits(&trainer.model);
        let skipped = st_obs::counter("train.batch.skipped.nonfinite_grad");
        let base = skipped.get();
        let mut rng = init::rng(6);

        let loss = trainer.train_epoch(&examples, &mut rng);
        assert_eq!(
            state_bits(&trainer.model),
            before,
            "a non-finite gradient norm reached the optimizer step"
        );
        assert!(loss.is_nan(), "skipped minibatch reported loss {loss}");
        assert_eq!(skipped.get() - base, 1);
        for p in trainer.model.params() {
            assert!(
                p.grad().data().iter().all(|g| g.to_bits() == 0),
                "gradient of {} not zeroed",
                p.name()
            );
        }
    }

    #[test]
    fn param_counts_differ() {
        let cfg = RnnConfig::new(50, 4);
        let v = RnnBaseline::vanilla(cfg.clone(), 0);
        let c = RnnBaseline::cssrnn(cfg, 0);
        assert!(c.num_params() > v.num_params());
        assert_eq!(v.name(), "RNN");
        assert_eq!(c.name(), "CSSRNN");
    }

    /// Zero analyzer false positives on both shipped baseline graphs.
    #[test]
    fn analyzer_clean_on_both_baselines() {
        let net = grid_city(&GridConfig::small_test(), 8);
        let examples = dest_dependent_examples(&net, 12);
        let refs: Vec<&Example> = examples.iter().collect();
        let cfg = RnnConfig::new(net.num_segments(), net.max_out_degree());
        for model in [
            RnnBaseline::vanilla(cfg.clone(), 0),
            RnnBaseline::cssrnn(cfg, 1),
        ] {
            let diags = model.analyze_graph(&refs);
            assert!(
                diags.is_empty(),
                "{}: analyzer false positives: {diags:?}",
                model.name()
            );
        }
    }

    /// Planted defects in the CSSRNN training graph: a never-bound
    /// parameter, a detached op, and an unclamped `ln` on the loss path.
    #[test]
    fn analyzer_flags_planted_defects_in_baseline_graph() {
        use st_tensor::LintKind;

        struct WithDead<'a> {
            inner: &'a RnnBaseline,
            dead: Param,
        }
        impl Module for WithDead<'_> {
            fn params(&self) -> Vec<&Param> {
                let mut ps = self.inner.params();
                ps.push(&self.dead);
                ps
            }
        }

        let net = grid_city(&GridConfig::small_test(), 8);
        let examples = dest_dependent_examples(&net, 8);
        let refs: Vec<&Example> = examples.iter().collect();
        let cfg = RnnConfig::new(net.num_segments(), net.max_out_degree());
        let model = RnnBaseline::cssrnn(cfg, 2);
        let planted = WithDead {
            inner: &model,
            dead: Param::new("CSSRNN.planted", Array::vector(vec![0.0; 3])),
        };
        let tape = Tape::new();
        let binder = Binder::new(&tape);
        let loss = batch_loss(&model, &binder, &refs);
        let hazard = ops::sum_all(ops::ln(binder.input(Array::vector(vec![0.5, 2.0]))));
        let root = ops::add(loss, hazard);
        let _stray = ops::square(binder.input(Array::vector(vec![1.0, 2.0])));
        let diags = st_nn::analyze_module_graph(&tape, &binder, root.id(), &planted);
        assert!(
            diags
                .iter()
                .any(|d| d.kind == LintKind::UnreachableParam
                    && d.message.contains("CSSRNN.planted")),
            "missed never-bound parameter: {diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.kind == LintKind::DetachedSubgraph),
            "missed dead op: {diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.kind == LintKind::NanHazard),
            "missed ln hazard: {diags:?}"
        );
        assert_eq!(diags.len(), 3, "unexpected extra findings: {diags:?}");
    }

    /// The loss loop before packing, kept verbatim as the exactness oracle
    /// of the RNN's [`TrainModel::loss`]: every route steps until the longest
    /// one ends, padded with token 0, and the finished rows are masked out.
    fn padded_batch_loss<'t, 'p>(
        model: &'p RnnBaseline,
        binder: &Binder<'t, 'p>,
        batch: &[&Example],
    ) -> Var<'t> {
        let n = batch.len();
        let max_len = batch.iter().map(|e| e.route.len()).max().unwrap_or(1);
        // An (impossible) empty route pads with segment 0, like masked slots.
        let dest_segs: Vec<SegmentId> = batch
            .iter()
            .map(|e| e.route.last().copied().unwrap_or(0))
            .collect();
        let mut state = model.rnn.gru().zero_state(binder, n);
        let mut total: Option<Var<'t>> = None;
        let mut transitions = 0usize;
        for i in 0..max_len - 1 {
            let mut tokens = Vec::with_capacity(n);
            let mut targets = Vec::with_capacity(n);
            let mut mask = Vec::with_capacity(n);
            for e in batch {
                if i + 1 < e.route.len() {
                    tokens.push(e.route[i]);
                    targets.push(e.slots[i]);
                    mask.push(1.0);
                    transitions += 1;
                } else {
                    tokens.push(0);
                    targets.push(0);
                    mask.push(0.0);
                }
            }
            let inp = model.rnn.emb().forward(binder, &tokens);
            let hid = model.rnn.gru().step(binder, inp, &mut state);
            let logits =
                model
                    .rnn
                    .slot_logits(binder, hid, model.slot_terms(binder, dest_segs.clone()));
            let logp = ops::log_softmax_rows(logits);
            let picked = ops::pick_per_row(logp, &targets);
            let masked = ops::sum_all(ops::mask_rows(ops::reshape(picked, &[n, 1]), &mask));
            total = Some(match total {
                Some(acc) => ops::add(acc, masked),
                None => masked,
            });
        }
        // A batch of length-1 routes has no transitions; its loss is 0.
        let total = total.unwrap_or_else(|| binder.input(Array::zeros(&[1])));
        ops::scale(total, -1.0 / transitions.max(1) as f32)
    }

    /// The packed loss ([`RouteRnn::route_log_likelihood`] with CSSRNN's
    /// terms), op for op, with the GRU step composed out of taped ops: the
    /// oracle of the fused step.
    fn composed_batch_loss<'t, 'p>(
        model: &'p RnnBaseline,
        binder: &Binder<'t, 'p>,
        batch: &[&Example],
    ) -> Var<'t> {
        let (rnn, params) = (&model.rnn, model.rnn.gru().params());
        let n = batch.len();
        let max_len = batch.iter().map(|e| e.route.len()).max().unwrap_or(1);
        let mut state = rnn.gru().zero_state(binder, n);
        let mut running = st_nn::RunningRows::all(n);
        let mut total: Option<Var<'t>> = None;
        let mut transitions = 0usize;
        for i in 0..max_len - 1 {
            if let Some(keep) = running.retain(|r| i + 1 < batch[r].route.len()) {
                rnn.gru().gather_state(&mut state, &keep);
            }
            let rows = running.rows();
            let dest_segs = rows
                .iter()
                .map(|&r| batch[r].route.last().copied().unwrap_or(0))
                .collect();
            let terms = model.slot_terms(binder, dest_segs);
            let tokens: Vec<SegmentId> = rows.iter().map(|&r| batch[r].route[i]).collect();
            let targets: Vec<usize> = rows.iter().map(|&r| batch[r].slots[i]).collect();
            transitions += rows.len();
            let inp = rnn.emb().forward(binder, &tokens);
            let hid = super::composed_gru::stack_step(binder, &params, inp, &mut state);
            let logp = ops::log_softmax_rows(rnn.slot_logits(binder, hid, terms));
            let step_ll = ops::sum_all(ops::pick_per_row(logp, &targets));
            total = Some(match total {
                Some(acc) => ops::add(acc, step_ll),
                None => step_ll,
            });
        }
        let total = total.unwrap_or_else(|| binder.input(Array::zeros(&[1])));
        ops::scale(total, -1.0 / transitions.max(1) as f32)
    }

    /// Which loss a [`loss_pass`] runs.
    #[derive(Clone, Copy)]
    enum Pathway {
        /// The library's packed loss ([`TrainModel::loss`]).
        Packed,
        /// Every route stepped to the longest, finished rows masked.
        Padded,
        /// The packed loss on the composed GRU cell.
        Composed,
    }

    /// Loss bits and every bound parameter's gradient bits of one pass.
    fn loss_pass(
        model: &RnnBaseline,
        batch: &[Example],
        pathway: Pathway,
    ) -> (u32, Vec<(String, Vec<u32>)>) {
        let refs: Vec<&Example> = batch.iter().collect();
        let tape = Tape::new();
        let binder = Binder::new(&tape);
        let loss = match pathway {
            Pathway::Packed => batch_loss(model, &binder, &refs),
            Pathway::Padded => padded_batch_loss(model, &binder, &refs),
            Pathway::Composed => composed_batch_loss(model, &binder, &refs),
        };
        let grads = tape.backward(loss);
        let params = (binder.collect_grads(&grads).iter())
            .map(|(p, g)| {
                let bits = g.data().iter().map(|v| v.to_bits()).collect();
                (p.name().to_string(), bits)
            })
            .collect();
        (loss.scalar_value().to_bits(), params)
    }

    /// A small RNN or CSSRNN with `layers` GRU cells and a shard of routes
    /// of the given lengths (random ids and slots: the loss reads only the
    /// ids, so routes need not be adjacent).
    fn oracle_case(
        lens: &[usize],
        cssrnn: bool,
        layers: usize,
        seed: u64,
    ) -> (RnnBaseline, Vec<Example>) {
        use rand::Rng;
        let cfg = RnnConfig {
            emb_dim: 12,
            hidden: 20,
            dest_dim: 10,
            gru_layers: layers,
            ..RnnConfig::new(24, 5)
        };
        let model = if cssrnn {
            RnnBaseline::cssrnn(cfg, seed)
        } else {
            RnnBaseline::vanilla(cfg, seed)
        };
        let mut rng = init::rng(seed ^ 0x5eed);
        let batch: Vec<Example> = lens
            .iter()
            .map(|&len| Example {
                route: (0..len).map(|_| rng.gen_range(0..24)).collect(),
                slots: (0..len.saturating_sub(1))
                    .map(|_| rng.gen_range(0..5))
                    .collect(),
                dest: [0.5, 0.5],
                traffic: Arc::new(Vec::new()),
                slot_id: 0,
            })
            .collect();
        (model, batch)
    }

    /// Packed ≡ padded for the RNN / CSSRNN loss, bit for bit: the loss and
    /// every parameter gradient; a parameter only the padded pass binds
    /// must have an all-zero gradient there.
    fn assert_packed_loss_matches_padded(lens: &[usize], cssrnn: bool, seed: u64) {
        let (model, batch) = oracle_case(lens, cssrnn, 2, seed);
        let (packed_loss, packed) = loss_pass(&model, &batch, Pathway::Packed);
        let (padded_loss, padded) = loss_pass(&model, &batch, Pathway::Padded);
        let case = format!("lens {lens:?}, cssrnn {cssrnn}, seed {seed}");
        assert_eq!(packed_loss, padded_loss, "loss bits differ: {case}");
        for (name, _) in &packed {
            assert!(
                padded.iter().any(|(p, _)| p == name),
                "packed pass binds {name}, padded does not: {case}"
            );
        }
        for (name, reference) in &padded {
            match packed.iter().find(|(p, _)| p == name) {
                Some((_, g)) => assert_eq!(g, reference, "{name} gradient bits differ: {case}"),
                None => assert!(
                    reference.iter().all(|&b| b == 0),
                    "{name} is bound only by the padded pass but has a nonzero gradient: {case}"
                ),
            }
        }
    }

    /// Fused ≡ composed GRU for the RNN / CSSRNN loss, bit for bit: the
    /// loss and every parameter gradient.
    fn assert_fused_loss_matches_composed(lens: &[usize], cssrnn: bool, layers: usize, seed: u64) {
        let (model, batch) = oracle_case(lens, cssrnn, layers, seed);
        let (fused_loss, fused) = loss_pass(&model, &batch, Pathway::Packed);
        let (composed_loss, composed) = loss_pass(&model, &batch, Pathway::Composed);
        let case = format!("lens {lens:?}, cssrnn {cssrnn}, layers {layers}, seed {seed}");
        assert_eq!(fused_loss, composed_loss, "loss bits differ: {case}");
        assert_eq!(fused.len(), composed.len(), "{case}");
        for ((name, g), (cname, reference)) in fused.iter().zip(&composed) {
            assert_eq!(name, cname, "{case}");
            assert_eq!(g, reference, "{name} gradient bits differ: {case}");
        }
    }

    /// An RNN shard records one GRU node per layer per step, and no gate
    /// slice, sigmoid or tanh.
    #[test]
    fn route_pathway_records_one_gru_node_per_layer_step() {
        for cssrnn in [false, true] {
            let lens = [4, 11, 2, 8];
            let (model, batch) = oracle_case(&lens, cssrnn, 2, 3);
            let refs: Vec<&Example> = batch.iter().collect();
            let tape = Tape::new();
            let binder = Binder::new(&tape);
            let _ = batch_loss(&model, &binder, &refs);
            let spec = tape.export_spec();
            let count = |name: &str| spec.nodes.iter().filter(|n| n.op.name == name).count();
            assert_eq!(count("gru_step"), 2 * (11 - 1));
            assert_eq!(count("slice_cols") + count("sigmoid") + count("tanh"), 0);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The fused GRU step against the composed cell on the baselines'
        /// packed loss: 1–16 routes of 1–40 segments (ragged, equal, one
        /// long among short, or 1–2 segments), one or two GRU layers, RNN
        /// and CSSRNN.
        #[test]
        fn fused_gru_rnn_loss_matches_composed_cell(
            seed in 0u64..1_000_000,
            n in 1usize..=16,
            max_len in 1usize..=40,
            shape in 0usize..4,
            cssrnn in 0usize..2,
            layers in 1usize..=2,
        ) {
            let lens = shard_lens(seed, n, max_len, shape);
            assert_fused_loss_matches_composed(&lens, cssrnn == 1, layers, seed);
        }

        /// Random shards of 1–16 routes of 1–60 segments (independent,
        /// equal, one long among short, or 1–2 segments), RNN and CSSRNN.
        #[test]
        fn packed_rnn_loss_matches_padded_oracle(
            seed in 0u64..1_000_000,
            n in 1usize..=16,
            max_len in 1usize..=60,
            shape in 0usize..4,
            cssrnn in 0usize..2,
        ) {
            let lens = shard_lens(seed, n, max_len, shape);
            assert_packed_loss_matches_padded(&lens, cssrnn == 1, seed);
        }
    }

    /// One row, equal lengths, length-1 routes, no transition at all, and
    /// rows ending in every order, for both baselines.
    #[test]
    fn packed_rnn_loss_matches_padded_oracle_on_edge_shapes() {
        let shapes: [&[usize]; 7] = [
            &[60],
            &[5, 5, 5],
            &[1],
            &[1, 1],
            &[1, 9, 4],
            &[9, 4, 1],
            &[3, 1, 5, 1, 2, 60, 1],
        ];
        for (i, lens) in shapes.iter().enumerate() {
            for cssrnn in [false, true] {
                assert_packed_loss_matches_padded(lens, cssrnn, i as u64);
            }
        }
    }
}
