//! The DeepST model: parameters and shared forward components.
//!
//! Implements the complete generative model of Figure 3 in the paper:
//!
//! - route encoder: segment embeddings + stacked GRU (§IV-B);
//! - next-road head: `P(r_{i+1}|·) = softmax(αᵀf_r + βᵀf_x + γᵀc)` over the
//!   shared adjacent-slot space (§IV-A); the encoder and `αᵀf_r` are the
//!   [`RouteRnn`] the RNN baselines share, and `βᵀf_x + γᵀc` are DeepST's
//!   slot-bias terms on it;
//! - destination proxies: the adjoint generative model with latent `π`,
//!   proxy means `M`, variances `S`, embeddings `W`, inference net `q(π|x)`
//!   (§IV-C);
//! - traffic pathway: CNN + MLP inference net `q(c|C)` with Gaussian
//!   reparameterization (§IV-D, Eq. 6).

use rand::rngs::StdRng;

use st_nn::{Activation, BnBatchStats, Linear, Mlp, Module, TrafficCnn};
use st_tensor::{init, ops, Array, Binder, Param, Var};

use crate::config::DeepStConfig;
use crate::route_rnn::RouteRnn;

/// The DeepST model (also covers the DeepST-C ablation via
/// [`DeepStConfig::use_traffic`]).
pub struct DeepSt {
    /// Model configuration.
    pub cfg: DeepStConfig,
    /// Segment embedding, stacked GRU and slot head α (the network the
    /// RNN baselines share).
    pub(crate) rnn: RouteRnn,
    /// Projection β ∈ R^{n_x × A} of the destination representation.
    pub(crate) beta: Param,
    /// Projection γ ∈ R^{|c| × A} of the traffic representation.
    pub(crate) gamma: Param,
    /// Proxy embeddings W stored as `[K, n_x]` (`f_x(x) = Wπ`).
    pub(crate) w_proxy: Param,
    /// Proxy means M stored as `[K, 2]`.
    pub(crate) m_proxy: Param,
    /// Proxy raw variances (softplus-transformed) `[K, 2]`.
    pub(crate) s_proxy_raw: Param,
    /// Inference net q(π|x): coordinates → K logits.
    pub(crate) enc_dest: Mlp,
    /// Traffic CNN (Eq. 6).
    pub(crate) cnn: TrafficCnn,
    /// μ(f) head of q(c|C).
    pub(crate) mu_head: Linear,
    /// log σ²(f) head of q(c|C).
    pub(crate) logvar_head: Linear,
}

impl DeepSt {
    /// Initialize a model with the given seed.
    pub fn new(cfg: DeepStConfig, seed: u64) -> Self {
        cfg.validate();
        let mut rng = init::rng(seed);
        let a = cfg.max_neighbors;
        let rnn = RouteRnn::new(
            "deepst",
            cfg.n_segments,
            cfg.emb_dim,
            cfg.emb_block_rows,
            cfg.hidden,
            cfg.gru_layers,
            a,
            &mut rng,
        );
        let beta = Param::new("deepst.beta", init::xavier(cfg.n_x, a, &mut rng));
        let gamma = Param::new("deepst.gamma", init::xavier(cfg.c_dim, a, &mut rng));
        let w_proxy = Param::new(
            "deepst.w_proxy",
            init::randn(&[cfg.k_proxies, cfg.n_x], 0.1, &mut rng),
        );
        // Proxy means start spread over the unit square (coordinates are
        // normalized to [0,1]²); variances start moderate.
        let m_proxy = Param::new(
            "deepst.m_proxy",
            init::uniform(&[cfg.k_proxies, 2], 0.1, 0.9, &mut rng),
        );
        let s_proxy_raw = Param::new(
            "deepst.s_proxy_raw",
            Array::full(&[cfg.k_proxies, 2], -2.0), // softplus(-2) ≈ 0.127² scale
        );
        let enc_dest = Mlp::new(
            "deepst.enc_dest",
            &[2, 64, cfg.k_proxies],
            Activation::Tanh,
            Activation::Identity,
            &mut rng,
        );
        let cnn = TrafficCnn::new("deepst.cnn", cfg.cnn_channels, &mut rng);
        let f_dim = cnn.out_dim();
        let mu_head = Linear::new("deepst.mu", f_dim, cfg.c_dim, &mut rng);
        let logvar_head = Linear::new("deepst.logvar", f_dim, cfg.c_dim, &mut rng);
        Self {
            cfg,
            rnn,
            beta,
            gamma,
            w_proxy,
            m_proxy,
            s_proxy_raw,
            enc_dest,
            cnn,
            mu_head,
            logvar_head,
        }
    }

    /// Destination inference: logits of `q(π|x)` for a batch of normalized
    /// coordinates `x [n, 2]`.
    pub(crate) fn dest_logits<'t, 'p>(&'p self, b: &Binder<'t, 'p>, x: Var<'t>) -> Var<'t> {
        self.enc_dest.forward(b, x)
    }

    /// Traffic inference `q(c|C)`: `(μ, log σ²)` for a batch of traffic
    /// tensors `[n, 1, H, W]`. With `bn_stats: Some(sink)` batch-norm
    /// running-statistic updates are recorded instead of applied (see
    /// [`st_nn::BnBatchStats`]).
    pub(crate) fn traffic_posterior<'t, 'p>(
        &'p self,
        b: &Binder<'t, 'p>,
        grids: Var<'t>,
        training: bool,
        bn_stats: Option<&mut BnBatchStats>,
    ) -> (Var<'t>, Var<'t>) {
        let f = self.cnn.forward_collect(b, grids, training, bn_stats);
        (self.mu_head.forward(b, f), self.logvar_head.forward(b, f))
    }

    /// Apply batch-norm statistics recorded by a deferred forward pass, in
    /// layer order.
    pub fn apply_bn_stats(&self, stats: &BnBatchStats) {
        self.cnn.apply_bn_stats(stats);
    }

    /// DeepST's slot-bias terms after `h·α` (§IV-A), in the order every
    /// path adds them: `fx·β`, then `c·γ` with traffic. `X` is a tape
    /// [`Var`] in training and an [`Array`] row in decoding.
    pub(crate) fn slot_terms<X>(&self, fx: X, c: Option<X>) -> impl Iterator<Item = (X, &Param)> {
        assert_eq!(
            c.is_some(),
            self.cfg.use_traffic,
            "traffic context must match cfg.use_traffic"
        );
        std::iter::once((fx, &self.beta)).chain(c.map(|c| (c, &self.gamma)))
    }

    /// Proxy variances `S` (softplus of the raw parameter) as a tape var.
    pub(crate) fn s_proxy<'t, 'p>(&'p self, b: &Binder<'t, 'p>) -> Var<'t> {
        ops::add_scalar(ops::softplus(b.var(&self.s_proxy_raw)), 1e-4)
    }

    /// Draw a Gumbel-noise array for the π relaxation.
    pub(crate) fn gumbel_noise(&self, n: usize, rng: &mut StdRng) -> Array {
        let k = self.cfg.k_proxies;
        let mut a = Array::zeros(&[n, k]);
        for v in a.data_mut() {
            *v = init::sample_gumbel(rng);
        }
        a
    }

    /// Standard-normal noise for the c reparameterization.
    pub(crate) fn normal_noise(&self, n: usize, rng: &mut StdRng) -> Array {
        init::randn(&[n, self.cfg.c_dim], 1.0, rng)
    }

    /// Segment-embedding gradient residency (DESIGN.md §16): how many of
    /// the table's row blocks training has materialized a gradient for.
    pub fn emb_memory(&self) -> EmbMemory {
        EmbMemory {
            resident_blocks: self.rnn.emb.resident_blocks(),
        }
    }
}

/// Gradient residency of the (possibly sharded) segment-embedding table.
///
/// A dense table materializes its whole gradient the moment any row is
/// touched; a blocked one only the blocks a minibatch touched, so on a
/// large graph `resident_blocks` stays far below the block count. The
/// repository benchmark reports it as `train.grad_blocks` and
/// `train.mega.grad_blocks`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmbMemory {
    /// Row blocks whose gradient is materialized.
    pub resident_blocks: usize,
}

impl Module for DeepSt {
    fn params(&self) -> Vec<&Param> {
        let mut p = self.rnn.params();
        p.push(&self.beta);
        p.push(&self.w_proxy);
        p.push(&self.m_proxy);
        p.push(&self.s_proxy_raw);
        p.extend(self.enc_dest.params());
        if self.cfg.use_traffic {
            p.push(&self.gamma);
            p.extend(self.cnn.params());
            p.extend(self.mu_head.params());
            p.extend(self.logvar_head.params());
        }
        p
    }

    fn param_groups(&self) -> Vec<Vec<&Param>> {
        // Must flatten to exactly `params()`: the embedding's blocks form
        // one logical tensor (see `RouteRnn::param_groups`), everything
        // else is a singleton group.
        let mut g = self.rnn.param_groups();
        g.push(vec![&self.beta]);
        g.push(vec![&self.w_proxy]);
        g.push(vec![&self.m_proxy]);
        g.push(vec![&self.s_proxy_raw]);
        g.extend(self.enc_dest.params().into_iter().map(|p| vec![p]));
        if self.cfg.use_traffic {
            g.push(vec![&self.gamma]);
            g.extend(self.cnn.params().into_iter().map(|p| vec![p]));
            g.extend(self.mu_head.params().into_iter().map(|p| vec![p]));
            g.extend(self.logvar_head.params().into_iter().map(|p| vec![p]));
        }
        g
    }

    fn buffers(&self) -> Vec<(String, st_tensor::Array)> {
        // Only the traffic CNN owns non-trainable state (BN running stats);
        // mirror the conditional structure of `params`.
        if self.cfg.use_traffic {
            self.cnn.buffers()
        } else {
            Vec::new()
        }
    }

    fn load_buffers(
        &self,
        buffers: &[(String, st_tensor::Array)],
    ) -> Result<(), st_nn::CheckpointError> {
        if self.cfg.use_traffic {
            self.cnn.load_buffers(buffers)
        } else if buffers.is_empty() {
            Ok(())
        } else {
            Err(st_nn::CheckpointError::Count {
                what: "buffer",
                expected: 0,
                found: buffers.len(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_tensor::Tape;

    fn small() -> DeepSt {
        DeepSt::new(DeepStConfig::new(20, 4, 8, 8), 0)
    }

    #[test]
    fn constructs_and_counts_params() {
        let m = small();
        assert!(m.num_params() > 1000);
        // DeepST-C has strictly fewer parameters
        let mc = DeepSt::new(DeepStConfig::new(20, 4, 8, 8).without_traffic(), 0);
        assert!(mc.num_params() < m.num_params());
    }

    #[test]
    fn slot_logits_shape() {
        let m = small();
        let tape = Tape::new();
        let b = Binder::new(&tape);
        let h = b.input(Array::zeros(&[3, m.cfg.hidden]));
        let fx = b.input(Array::zeros(&[3, m.cfg.n_x]));
        let c = b.input(Array::zeros(&[3, m.cfg.c_dim]));
        let logits = m.rnn.slot_logits(&b, h, m.slot_terms(fx, Some(c)));
        assert_eq!(logits.value().shape(), &[3, m.cfg.max_neighbors]);
        let mc = DeepSt::new(DeepStConfig::new(20, 4, 8, 8).without_traffic(), 0);
        let logits_nc = mc.rnn.slot_logits(&b, h, mc.slot_terms(fx, None));
        assert_eq!(logits_nc.value().shape(), &[3, m.cfg.max_neighbors]);
    }

    #[test]
    fn traffic_posterior_shapes() {
        let m = small();
        let tape = Tape::new();
        let b = Binder::new(&tape);
        let grids = b.input(Array::zeros(&[2, 1, 8, 8]));
        let (mu, logvar) = m.traffic_posterior(&b, grids, true, None);
        assert_eq!(mu.value().shape(), &[2, m.cfg.c_dim]);
        assert_eq!(logvar.value().shape(), &[2, m.cfg.c_dim]);
    }

    #[test]
    fn s_proxy_positive() {
        let m = small();
        let tape = Tape::new();
        let b = Binder::new(&tape);
        let s = m.s_proxy(&b);
        assert!(s.value().min() > 0.0);
        assert_eq!(s.value().shape(), &[m.cfg.k_proxies, 2]);
    }
}
