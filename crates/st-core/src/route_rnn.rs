//! The next-segment network that DeepST and the neural baselines share
//! (§IV-A, §IV-B): segment embedding → stacked GRU → slot logits `h·α`,
//! plus per-trip slot-bias terms `x·W` added in a fixed order. DeepST adds
//! `fx·β` then `c·γ`, CSSRNN adds `emb(dest)·β` and the vanilla RNN adds
//! nothing, so Table IV's differences come from the conditioning alone.
//!
//! [`RouteRnn`] defines the network once, with each model's parameters
//! under its own name prefix, and the three paths built on it: the taped
//! head fold ([`RouteRnn::slot_logits`]), the packed route log-likelihood
//! pass of training ([`RouteRnn::route_log_likelihood`]) and the tape-free
//! decode session ([`RouteRnn::infer_session`], in [`crate::predict`]).

use rand::rngs::StdRng;

use st_nn::{Embedding, Gru, Module, RunningRows};
use st_roadnet::SegmentId;
use st_tensor::{init, ops, Array, Binder, Param, Tape, Var};

use crate::data::Example;

/// Segment embedding, stacked GRU and slot head `α` of a next-segment
/// model; see the module docs.
///
/// The fields stay private to the crate: [`RouteRnn::new`] sizes them to
/// fit together (embedding dim = GRU input, GRU hidden = rows of `α`).
pub struct RouteRnn {
    /// Road-segment embedding table.
    pub(crate) emb: Embedding,
    /// Stacked GRU squeezing the past route (f_r).
    pub(crate) gru: Gru,
    /// Projection α ∈ R^{hidden × A} of the route representation onto the
    /// A output slots.
    pub(crate) alpha: Param,
}

impl RouteRnn {
    /// Build the network under `name` (parameters `{name}.emb`,
    /// `{name}.gru`, `{name}.alpha`), drawing from `rng` in that order.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        n_segments: usize,
        emb_dim: usize,
        emb_block_rows: usize,
        hidden: usize,
        layers: usize,
        width: usize,
        rng: &mut StdRng,
    ) -> Self {
        let emb = Embedding::with_block_rows(
            &format!("{name}.emb"),
            n_segments,
            emb_dim,
            emb_block_rows,
            rng,
        );
        let gru = Gru::new(&format!("{name}.gru"), emb_dim, hidden, layers, rng);
        let alpha = Param::new(format!("{name}.alpha"), init::xavier(hidden, width, rng));
        Self { emb, gru, alpha }
    }

    /// The road-segment embedding table.
    pub fn emb(&self) -> &Embedding {
        &self.emb
    }

    /// The stacked GRU.
    pub fn gru(&self) -> &Gru {
        &self.gru
    }

    /// The slot head `α`.
    pub fn alpha(&self) -> &Param {
        &self.alpha
    }

    /// Slot logits of a batch step: `h·α`, then `+ x·W` for each
    /// conditioning term in order. The terms are drawn only as they are
    /// folded, so a lazy iterator records its ops after `h·α`.
    pub fn slot_logits<'t, 'p>(
        &'p self,
        b: &Binder<'t, 'p>,
        h: Var<'t>,
        terms: impl IntoIterator<Item = (Var<'t>, &'p Param)>,
    ) -> Var<'t> {
        let mut logits = ops::matmul(h, b.var(&self.alpha));
        for (x, w) in terms {
            logits = ops::add(logits, ops::matmul(x, b.var(w)));
        }
        logits
    }

    /// Route log-likelihood `Σ log P(r_{i+1} | r_{1:i}, ·)` of `batch` and
    /// its number of transitions, over packed sequences: step `i` runs the
    /// embedding lookup, GRU step and slot head only on the routes with a
    /// transition left at `i`, dropping the others from the GRU state first
    /// ([`RunningRows`]).
    ///
    /// Each step asks `terms(keep, rows)` for its slot-bias terms: `keep`
    /// holds the positions (in the previous running set) of the rows that
    /// remain when some row just finished, so per-row conditioning can be
    /// gathered the same way, and `rows` the batch indices of the running
    /// rows. DeepST gathers `fx` and `c`; CSSRNN looks up the destination
    /// embeddings of `rows`.
    ///
    /// The value and every gradient are bit-identical to stepping every
    /// route to the longest one and masking the finished rows (DESIGN.md
    /// §7): each step's per-row arithmetic is independent of the other
    /// rows, and a masked row only adds `±0` terms to the reductions over
    /// rows. Rows are never reordered, which would change those sums.
    pub fn route_log_likelihood<'t, 'p, I>(
        &'p self,
        binder: &Binder<'t, 'p>,
        batch: &[&Example],
        mut terms: impl FnMut(Option<&[usize]>, &[usize]) -> I,
    ) -> (Var<'t>, usize)
    where
        I: IntoIterator<Item = (Var<'t>, &'p Param)>,
    {
        let n = batch.len();
        let max_len = batch.iter().map(|e| e.route.len()).max().unwrap_or(1);
        let mut state = self.gru.zero_state(binder, n);
        let mut running = RunningRows::all(n);
        let mut route_ll: Option<Var<'t>> = None;
        let mut transitions = 0usize;
        for i in 0..max_len - 1 {
            let keep = running.retain(|r| i + 1 < batch[r].route.len());
            if let Some(keep) = &keep {
                self.gru.gather_state(&mut state, keep);
            }
            let rows = running.rows();
            let step_terms = terms(keep.as_deref(), rows);
            let tokens: Vec<SegmentId> = rows.iter().map(|&r| batch[r].route[i]).collect();
            let targets: Vec<usize> = rows.iter().map(|&r| batch[r].slots[i]).collect();
            transitions += rows.len();
            let inp = self.emb.forward(binder, &tokens);
            let hid = self.gru.step(binder, inp, &mut state);
            let logp = ops::log_softmax_rows(self.slot_logits(binder, hid, step_terms));
            let step_ll = ops::sum_all(ops::pick_per_row(logp, &targets));
            route_ll = Some(match route_ll {
                Some(acc) => ops::add(acc, step_ll),
                None => step_ll,
            });
        }
        // A batch of length-1 routes has no transitions; its route term is 0.
        let route_ll = route_ll.unwrap_or_else(|| binder.input(Array::zeros(&[1])));
        (route_ll, transitions)
    }

    /// The taped step of one row: binds `state`, `token` and the
    /// conditioning rows of `terms` to a fresh autodiff tape, runs the
    /// taped forward graph and discards the tape. Returns the new state and
    /// the slot log-probabilities. It is the behavioural oracle of the
    /// tape-free [`crate::InferSession`], which decoding uses.
    pub fn step_state_taped<'a>(
        &self,
        state: &[Array],
        token: SegmentId,
        terms: impl IntoIterator<Item = (&'a Array, &'a Param)>,
    ) -> (Vec<Array>, Vec<f64>) {
        let tape = Tape::new();
        let binder = Binder::new(&tape);
        let terms: Vec<_> = terms
            .into_iter()
            .map(|(x, w)| (binder.input(x.clone()), w))
            .collect();
        let mut vars: Vec<_> = state.iter().map(|a| binder.input(a.clone())).collect();
        let inp = self.emb.forward(&binder, &[token]);
        let hid = self.gru.step(&binder, inp, &mut vars);
        let logp = ops::log_softmax_rows(self.slot_logits(&binder, hid, terms));
        let new_state = vars.iter().map(|v| (*v.value()).clone()).collect();
        let lp = logp.value().data().iter().map(|&v| f64::from(v)).collect();
        (new_state, lp)
    }

    /// Fresh per-layer zero state of one row for
    /// [`RouteRnn::step_state_taped`].
    pub fn initial_state(&self) -> Vec<Array> {
        (0..self.gru.layers())
            .map(|_| Array::zeros(&[1, self.gru.hidden()]))
            .collect()
    }
}

impl Module for RouteRnn {
    fn params(&self) -> Vec<&Param> {
        let mut p = self.emb.params();
        p.extend(self.gru.params());
        p.push(&self.alpha);
        p
    }

    /// The embedding's blocks form one logical tensor (grouped-clip norm
    /// is chained across them in row order); every other parameter is a
    /// singleton group.
    fn param_groups(&self) -> Vec<Vec<&Param>> {
        let mut g = self.emb.param_groups();
        g.extend(self.gru.params().into_iter().map(|p| vec![p]));
        g.push(vec![&self.alpha]);
        g
    }
}
