//! ELBO computation (Eq. 7) and the training loop (Algorithm 1):
//! [`Trainer::fit`] over a [`BatchSource`], with crash-safe
//! checkpoint/resume, divergence detection with rollback + LR backoff, and
//! worker-failure containment (see DESIGN.md §8). The loop trains any
//! [`TrainModel`]: DeepST, DeepST-C and the RNN/CSSRNN baselines.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use st_nn::{analyze_module_graph, BnBatchStats, CheckpointError, Module};
use st_tensor::optim::{clip_grad_norm_grouped, Adam, AdamState, Optimizer};
use st_tensor::{init, ops, Array, Binder, Diagnostic, Tape, Var};

use crate::checkpoint::{self, ResumePoint};
use crate::data::Example;
use crate::faultinject::FaultInjector;
use crate::model::DeepSt;
use crate::parallel::ShardFaultCtx;

/// Scalar summary of one ELBO evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub struct ElboStats {
    /// Total ELBO over the batch (nats).
    pub elbo: f32,
    /// Route log-likelihood term.
    pub route_ll: f32,
    /// Destination log-likelihood term (already (n−1)-weighted, Eq. 7).
    pub dest_ll: f32,
    /// KL(q(c|C) ‖ p(c)).
    pub kl_c: f32,
    /// KL(q(π|x) ‖ p(π)) — *once*; Eq. 7 subtracts it twice.
    pub kl_pi: f32,
    /// Number of transitions in the batch.
    pub transitions: usize,
}

impl DeepSt {
    /// Build the negative-ELBO loss of a minibatch on `tape`.
    ///
    /// Returns `(loss_var, stats)`. `training` toggles sampling (Gumbel and
    /// Gaussian reparameterizations, batch-norm batch statistics); at eval
    /// the posterior means/soft assignments are used.
    pub fn batch_loss<'t, 'p>(
        &'p self,
        binder: &Binder<'t, 'p>,
        batch: &[&Example],
        rng: &mut StdRng,
        training: bool,
    ) -> (Var<'t>, ElboStats) {
        self.batch_loss_collect(binder, batch, rng, training, None)
    }

    /// [`DeepSt::batch_loss`] with deferred batch-norm statistics: when
    /// `bn_stats` is `Some(sink)`, running-statistic (EMA) updates are
    /// recorded into the sink instead of applied to the model (see
    /// [`TrainModel::loss`]).
    fn batch_loss_collect<'t, 'p>(
        &'p self,
        binder: &Binder<'t, 'p>,
        batch: &[&Example],
        rng: &mut StdRng,
        training: bool,
        bn_stats: Option<&mut BnBatchStats>,
    ) -> (Var<'t>, ElboStats) {
        assert!(!batch.is_empty());
        let n = batch.len();
        let k = self.cfg.k_proxies;

        // ---------- destination pathway (§IV-C) ----------
        let x_data: Vec<f32> = batch.iter().flat_map(|e| e.dest).collect();
        let x = binder.input(Array::from_vec(&[n, 2], x_data));
        let logits_pi = self.dest_logits(binder, x);
        let log_q_pi = ops::log_softmax_rows(logits_pi);
        let q_pi = ops::softmax_rows(logits_pi);
        // Gumbel-Softmax relaxation of π (training); soft posterior at eval.
        let pi = if training {
            let noise = binder.input(self.gumbel_noise(n, rng));
            ops::softmax_rows(ops::scale(
                ops::add(logits_pi, noise),
                1.0 / self.cfg.gumbel_temp,
            ))
        } else {
            q_pi
        };
        let w = binder.var(&self.w_proxy);
        let fx = ops::matmul(pi, w); // [n, n_x]

        // Adjoint generative likelihood log P(x | π, M, S).
        let m = binder.var(&self.m_proxy);
        let s = self.s_proxy(binder);
        let mean = ops::matmul(pi, m); // [n, 2]
        let var = ops::add_scalar(ops::matmul(pi, s), 1e-5);
        let diff2 = ops::square(ops::sub(x, mean));
        let log2pi = (2.0 * std::f32::consts::PI).ln();
        let per_dim = ops::add(ops::add_scalar(ops::ln(var), log2pi), ops::div(diff2, var));
        let logpdf_x = ops::scale(ops::row_sum(per_dim), -0.5); // [n]
                                                                // Eq. 7 replicates the destination term over the n−1 transitions.
        let weights: Vec<f32> = batch.iter().map(|e| e.num_transitions() as f32).collect();
        let dest_ll = ops::sum_all(ops::mask_rows(ops::reshape(logpdf_x, &[n, 1]), &weights));

        // KL(q(π|x) ‖ Uniform(K)) = Σ q log q + log K, per row.
        let kl_pi_rows = ops::add_scalar(ops::row_sum(ops::mul(q_pi, log_q_pi)), (k as f32).ln());
        let kl_pi = ops::sum_all(kl_pi_rows);

        // ---------- traffic pathway (§IV-D) ----------
        let (c, kl_c): (Option<Var<'t>>, Option<Var<'t>>) = if self.cfg.use_traffic {
            // Deduplicate traffic tensors: trips in the same slot share C.
            let mut slot_index: HashMap<usize, usize> = HashMap::new();
            let mut unique: Vec<&Example> = Vec::new();
            let mut row_of: Vec<usize> = Vec::with_capacity(n);
            for e in batch {
                let next = unique.len();
                let entry = *slot_index.entry(e.slot_id).or_insert_with(|| {
                    unique.push(e);
                    next
                });
                row_of.push(entry);
            }
            let (h, wd) = (self.cfg.grid_h, self.cfg.grid_w);
            let mut grid_data = Vec::with_capacity(unique.len() * h * wd);
            for e in &unique {
                assert_eq!(e.traffic.len(), h * wd, "traffic tensor size mismatch");
                grid_data.extend_from_slice(&e.traffic);
            }
            // A constant: the CNN's first conv computes no gradient for it.
            let grids = binder
                .tape()
                .constant(Array::from_vec(&[unique.len(), 1, h, wd], grid_data));
            let (mu_all, logvar_all) = self.traffic_posterior(binder, grids, training, bn_stats);
            let mu = ops::gather_rows(mu_all, &row_of);
            let logvar = ops::gather_rows(logvar_all, &row_of);
            let c = if training {
                let eps = binder.input(self.normal_noise(n, rng));
                ops::add(mu, ops::mul(ops::exp(ops::scale(logvar, 0.5)), eps))
            } else {
                mu
            };
            // KL(N(μ,σ²) ‖ N(0,1)) = −½ Σ (1 + logσ² − μ² − σ²).
            let kl_rows = ops::scale(
                ops::row_sum(ops::sub(
                    ops::add_scalar(logvar, 1.0),
                    ops::add(ops::square(mu), ops::exp(logvar)),
                )),
                -0.5,
            );
            (Some(c), Some(ops::sum_all(kl_rows)))
        } else {
            (None, None)
        };

        // ---------- route pathway (§IV-A, §IV-B) ----------
        let (route_ll, transitions) = self.route_log_likelihood(binder, batch, fx, c);

        // ---------- ELBO (Eq. 7) ----------
        // ELBO = route_ll + dest_ll − KL_c − 2·KL_π ; loss = −ELBO / n.
        let mut elbo = ops::add(route_ll, dest_ll);
        if let Some(klc) = kl_c {
            elbo = ops::sub(elbo, klc);
        }
        elbo = ops::sub(elbo, ops::scale(kl_pi, 2.0));
        let loss = ops::scale(elbo, -1.0 / n as f32);

        let stats = ElboStats {
            elbo: elbo.scalar_value(),
            route_ll: route_ll.scalar_value(),
            dest_ll: dest_ll.scalar_value(),
            kl_c: kl_c.map(|v| v.scalar_value()).unwrap_or(0.0),
            kl_pi: kl_pi.scalar_value(),
            transitions,
        };
        (loss, stats)
    }

    /// Route log-likelihood `Σ log P(r_{i+1} | r_{1:i}, x, c)` of `batch`
    /// and its number of transitions: the shared packed pass
    /// ([`crate::RouteRnn::route_log_likelihood`]) with DeepST's slot-bias
    /// terms, where `fx` and `c` drop the rows of finished routes right
    /// after the GRU state does.
    fn route_log_likelihood<'t, 'p>(
        &'p self,
        binder: &Binder<'t, 'p>,
        batch: &[&Example],
        mut fx: Var<'t>,
        mut c: Option<Var<'t>>,
    ) -> (Var<'t>, usize) {
        self.rnn.route_log_likelihood(binder, batch, |keep, _| {
            if let Some(keep) = keep {
                fx = ops::gather_rows(fx, keep);
                c = c.map(|c| ops::gather_rows(c, keep));
            }
            self.slot_terms(fx, c)
        })
    }
}

/// What [`Trainer`] and the shard runners in [`crate::parallel`] need from
/// a gradient-trained model. [`DeepSt`] (DeepST and DeepST-C) and the
/// RNN/CSSRNN baselines implement it, so every model of Table IV trains
/// through one loop, [`Trainer::fit`].
///
/// `Sync` because shard workers share `&Self`: parameters sit behind
/// `RwLock`s and workers only read them (DESIGN.md §7).
pub trait TrainModel: Module + Sync {
    /// Record the training loss of `batch` on `binder`'s tape: a scalar
    /// mean over the batch's examples (DeepST's −ELBO per trip) or its
    /// transitions (the RNNs' cross-entropy). `training` turns on sampling,
    /// drawn from `rng`. With `bn_stats: Some(sink)`, batch-norm
    /// running-statistic updates are recorded into the sink instead of
    /// applied, so shard workers never write to the model and the caller
    /// applies the updates in shard order.
    ///
    /// The trainer weights each shard's loss by its example count. For a
    /// per-example mean that makes a sharded minibatch's gradient the
    /// whole minibatch's; for a per-transition mean that holds only with
    /// one shard per minibatch.
    fn loss<'t, 'p>(
        &'p self,
        binder: &Binder<'t, 'p>,
        batch: &[&Example],
        rng: &mut StdRng,
        training: bool,
        bn_stats: Option<&mut BnBatchStats>,
    ) -> Var<'t>;

    /// Width of the output slot head. A training target at or past it is
    /// a transition the model cannot represent.
    fn slot_width(&self) -> usize;

    /// Apply batch-norm statistics recorded by [`TrainModel::loss`], in
    /// layer order. Models without batch norm record none; the default
    /// does nothing.
    fn apply_bn_stats(&self, _stats: &BnBatchStats) {}

    /// Statically analyze the training graph this model builds for `batch`:
    /// record one forward pass (no kernels beyond the forward itself, no
    /// backward) and run the [`st_tensor::analyze`](mod@st_tensor::analyze) passes plus the
    /// module-level never-bound-parameter check over the exported spec.
    ///
    /// The pass is side-effect free: it draws noise from a private seeded
    /// RNG and routes batch-norm statistics into a throwaway sink, so
    /// neither the caller's RNG stream nor the model's running buffers move
    /// — [`Trainer::fit`]'s bit-identical resume guarantee is preserved
    /// when analysis runs before epoch 0.
    fn analyze_graph(&self, batch: &[&Example]) -> Vec<Diagnostic>
    where
        Self: Sized,
    {
        assert!(
            !batch.is_empty(),
            "analyze_graph needs at least one example"
        );
        let mut rng = init::rng(0);
        let mut sink = BnBatchStats::default();
        let tape = Tape::new();
        let binder = Binder::new(&tape);
        let loss = self.loss(&binder, batch, &mut rng, true, Some(&mut sink));
        analyze_module_graph(&tape, &binder, loss.id(), self)
    }

    /// [`TrainModel::loss`] at eval (no sampling, no parameter or buffer
    /// updates) over `examples` in chunks of `batch_size`, averaged with
    /// each chunk weighted by its example count.
    fn evaluate_loss(&self, examples: &[Example], batch_size: usize, rng: &mut StdRng) -> f32 {
        assert!(!examples.is_empty());
        let mut total = 0.0f64;
        let mut count = 0usize;
        for chunk in examples.chunks(batch_size) {
            let refs: Vec<&Example> = chunk.iter().collect();
            let tape = Tape::new();
            let binder = Binder::new(&tape);
            let loss = self.loss(&binder, &refs, rng, false, None);
            total += loss.scalar_value() as f64 * refs.len() as f64;
            count += refs.len();
        }
        (total / count as f64) as f32
    }
}

impl TrainModel for DeepSt {
    fn loss<'t, 'p>(
        &'p self,
        binder: &Binder<'t, 'p>,
        batch: &[&Example],
        rng: &mut StdRng,
        training: bool,
        bn_stats: Option<&mut BnBatchStats>,
    ) -> Var<'t> {
        self.batch_loss_collect(binder, batch, rng, training, bn_stats)
            .0
    }

    fn slot_width(&self) -> usize {
        self.cfg.max_neighbors
    }

    fn apply_bn_stats(&self, stats: &BnBatchStats) {
        DeepSt::apply_bn_stats(self, stats);
    }
}

/// Per-epoch training record.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss (−ELBO/trip).
    pub train_loss: f32,
    /// Mean validation loss, if a validation set was supplied.
    pub val_loss: Option<f32>,
    /// Wall-clock seconds spent in this epoch.
    pub seconds: f64,
}

/// Training-loop configuration. Every field applies to [`Trainer::fit`]
/// whatever its [`BatchSource`]; the single-epoch drivers use the
/// minibatch settings only (batch, shard, threads, learning rate, clip).
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of epochs (paper: 15).
    pub epochs: usize,
    /// Minibatch size (paper: 128).
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Global gradient-norm clip.
    pub grad_clip: f32,
    /// Early-stopping patience on validation loss (None disables).
    pub patience: Option<usize>,
    /// Worker threads for data-parallel gradient computation. `1` (or `0`)
    /// runs everything on the calling thread; the result is bit-identical
    /// for any value (see [`crate::parallel`]).
    pub num_threads: usize,
    /// Examples per shard. The shard partition — and therefore the exact
    /// arithmetic — depends only on this, never on `num_threads`.
    ///
    /// The default equals the default `batch_size`, i.e. one shard per
    /// minibatch: identical semantics to classic serial training. Setting
    /// it below `batch_size` enables intra-batch parallelism, at the cost
    /// of noisier per-shard batch-norm statistics (each shard normalizes
    /// with its own batch moments).
    pub shard_size: usize,
    /// Where [`Trainer::fit`] writes a training checkpoint after every
    /// completed epoch. `None` (the default) disables checkpointing.
    pub checkpoint_path: Option<PathBuf>,
    /// Resume [`Trainer::fit`] from this checkpoint if the file exists;
    /// a missing file starts fresh, a corrupt one is an error.
    pub resume_from: Option<PathBuf>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            batch_size: 64,
            lr: 3e-3,
            grad_clip: 5.0,
            patience: Some(3),
            num_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            shard_size: 64,
            checkpoint_path: None,
            resume_from: None,
        }
    }
}

/// Divergence rollbacks [`Trainer::fit`] performs across a whole run before
/// it gives up with [`TrainError::RollbackLimit`].
const MAX_ROLLBACKS: u32 = 3;
/// Stepped batch losses in the divergence detector's rolling window.
const DIVERGENCE_WINDOW: usize = 8;
/// A batch loss above this multiple of the rolling-window median counts as
/// divergence.
const DIVERGENCE_FACTOR: f32 = 10.0;
/// Learning-rate multiplier applied on each rollback.
const LR_BACKOFF: f32 = 0.5;

/// A structured occurrence during a [`Trainer::fit`] run, recorded in
/// [`TrainHistory::events`] in the order it happened.
#[derive(Debug, Clone)]
pub enum TrainEvent {
    /// Training resumed from a checkpoint.
    Resumed {
        /// Epochs already completed when the checkpoint was written.
        epoch: usize,
        /// Optimizer steps already taken.
        step: u64,
    },
    /// A checkpoint was written.
    Checkpointed {
        /// Epochs completed at write time.
        epoch: usize,
        /// Destination file.
        path: PathBuf,
    },
    /// A shard worker panicked and was contained.
    ShardFailure {
        /// Epoch coordinate.
        epoch: usize,
        /// Batch coordinate within the epoch.
        batch: usize,
        /// Shard index within the batch.
        shard: usize,
        /// Whether the serial retry recovered the shard.
        recovered: bool,
        /// Panic payload.
        message: String,
    },
    /// The divergence detector fired.
    Divergence {
        /// Epoch coordinate.
        epoch: usize,
        /// Batch coordinate within the epoch.
        batch: usize,
        /// What tripped the detector.
        reason: String,
        /// Offending batch loss (NaN for worker-failure divergence).
        loss: f32,
    },
    /// The pre-training graph analyzer reported a finding (unreachable
    /// parameter, NaN hazard, …) before epoch 0.
    LintWarning {
        /// The analyzer finding, verbatim.
        diagnostic: Diagnostic,
    },
    /// The trainer restored the last good state and backed off the LR.
    RolledBack {
        /// Epoch being retried.
        epoch: usize,
        /// Total rollbacks so far this run.
        rollbacks: u32,
        /// Learning rate after backoff.
        new_lr: f32,
    },
}

/// Mirror a [`TrainEvent`] into the st-obs event stream, unifying the
/// trainer's structured events with the trace a recorded run exports.
/// No-op (and no JSON is built) unless recording is on.
fn obs_train_event(ev: &TrainEvent) {
    if !st_obs::recording() {
        return;
    }
    use serde_json::json;
    let (name, fields) = match ev {
        TrainEvent::Resumed { epoch, step } => (
            "train.resumed",
            json!({"epoch": *epoch as f64, "step": *step as f64}),
        ),
        TrainEvent::Checkpointed { epoch, path } => (
            "train.checkpointed",
            json!({"epoch": *epoch as f64, "path": path.display().to_string()}),
        ),
        TrainEvent::ShardFailure {
            epoch,
            batch,
            shard,
            recovered,
            message,
        } => (
            "train.shard_failure",
            json!({
                "epoch": *epoch as f64,
                "batch": *batch as f64,
                "shard": *shard as f64,
                "recovered": *recovered,
                "message": message.as_str(),
            }),
        ),
        TrainEvent::Divergence {
            epoch,
            batch,
            reason,
            loss,
        } => (
            "train.divergence",
            json!({
                "epoch": *epoch as f64,
                "batch": *batch as f64,
                "reason": reason.as_str(),
                "loss": *loss as f64,
            }),
        ),
        TrainEvent::LintWarning { diagnostic } => (
            "train.lint_warning",
            json!({
                "kind": diagnostic.kind.to_string(),
                "severity": diagnostic.severity.to_string(),
                "message": diagnostic.message.as_str(),
            }),
        ),
        TrainEvent::RolledBack {
            epoch,
            rollbacks,
            new_lr,
        } => (
            "train.rolled_back",
            json!({
                "epoch": *epoch as f64,
                "rollbacks": *rollbacks as f64,
                "new_lr": *new_lr as f64,
            }),
        ),
    };
    st_obs::event(name, fields);
}

/// Push a [`TrainEvent`] onto `events`, mirroring it into st-obs first.
fn push_event(events: &mut Vec<TrainEvent>, ev: TrainEvent) {
    obs_train_event(&ev);
    events.push(ev);
}

/// Record one epoch's headline numbers as an st-obs event (when recording).
fn obs_epoch_stats(epoch: usize, train_loss: f32, val_loss: Option<f32>, seconds: f64) {
    if !st_obs::recording() {
        return;
    }
    use serde_json::{json, Value};
    let val = match val_loss {
        Some(v) => Value::Num(v as f64),
        None => Value::Null,
    };
    st_obs::event(
        "train.epoch",
        json!({
            "epoch": epoch as f64,
            "train_loss": train_loss as f64,
            "val_loss": val,
            "seconds": seconds,
        }),
    );
}

/// Fatal failure of a [`Trainer::fit`] run.
#[derive(Debug)]
pub enum TrainError {
    /// Checkpoint save/load failed.
    Checkpoint(CheckpointError),
    /// Divergence persisted through the 3 rollbacks a run may take.
    RollbackLimit {
        /// Epoch where the limit was hit.
        epoch: usize,
        /// Rollbacks performed.
        rollbacks: u32,
    },
    /// The fault injector simulated a process kill ([`FaultPlan::crash_at`]).
    /// Re-running with [`TrainConfig::resume_from`] continues the run.
    ///
    /// [`FaultPlan::crash_at`]: crate::faultinject::FaultPlan::crash_at
    Crashed {
        /// Epoch coordinate of the simulated kill.
        epoch: usize,
        /// Batch coordinate of the simulated kill.
        batch: usize,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
            TrainError::RollbackLimit { epoch, rollbacks } => write!(
                f,
                "training diverged at epoch {epoch} after {rollbacks} rollbacks"
            ),
            TrainError::Crashed { epoch, batch } => {
                write!(f, "injected crash at epoch {epoch}, batch {batch}")
            }
        }
    }
}

impl std::error::Error for TrainError {}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

/// Outcome of a training run: per-epoch stats plus every structured
/// fault/recovery event.
#[derive(Debug, Default)]
pub struct TrainHistory {
    /// Per-epoch statistics, one per completed epoch.
    pub epochs: Vec<EpochStats>,
    /// Structured fault/recovery events in occurrence order.
    pub events: Vec<TrainEvent>,
    /// Epoch the run resumed from, if it resumed.
    pub resumed_from: Option<usize>,
}

/// Where [`Trainer::fit`] draws each epoch's minibatches from:
///
/// - `&[Example]`: shuffled with the run's RNG every epoch, then chunked by
///   [`TrainConfig::batch_size`];
/// - a per-epoch closure `(epoch, &mut StdRng) -> impl IntoIterator<Item =
///   Vec<Example>>`, typically re-opening the shard files of an on-disk
///   trip store. It may draw its shuffle from the RNG it is handed; empty
///   minibatches are passed over.
///
/// A source must replay: a divergence rollback or a resume calls it again
/// for the same epoch with the RNG restored, and it must then yield the
/// same minibatches.
pub trait BatchSource {
    /// The examples the pre-train lint inspects, drawn from a copy of
    /// `rng` so that the run's RNG stream does not move.
    fn lint_sample(&mut self, rng: &StdRng) -> Cow<'_, [Example]>;

    /// Hand epoch `epoch`'s minibatches to `step` in training order,
    /// lending it `rng` after the source's own draws. Stops early when
    /// `step` breaks.
    fn for_each_batch(
        &mut self,
        epoch: usize,
        batch_size: usize,
        rng: &mut StdRng,
        step: &mut dyn FnMut(&[&Example], &mut StdRng) -> ControlFlow<()>,
    );
}

impl BatchSource for &[Example] {
    fn lint_sample(&mut self, _rng: &StdRng) -> Cow<'_, [Example]> {
        Cow::Borrowed(*self)
    }

    fn for_each_batch(
        &mut self,
        _epoch: usize,
        batch_size: usize,
        rng: &mut StdRng,
        step: &mut dyn FnMut(&[&Example], &mut StdRng) -> ControlFlow<()>,
    ) {
        let examples: &[Example] = self;
        let mut order: Vec<usize> = (0..examples.len()).collect();
        order.shuffle(rng);
        for chunk in order.chunks(batch_size) {
            let refs: Vec<&Example> = chunk.iter().map(|&i| &examples[i]).collect();
            if step(&refs, rng).is_break() {
                return;
            }
        }
    }
}

impl<F, I> BatchSource for F
where
    F: FnMut(usize, &mut StdRng) -> I,
    I: IntoIterator<Item = Vec<Example>>,
{
    fn lint_sample(&mut self, rng: &StdRng) -> Cow<'_, [Example]> {
        let first = self(0, &mut rng.clone())
            .into_iter()
            .find(|batch| !batch.is_empty());
        Cow::Owned(first.unwrap_or_default())
    }

    fn for_each_batch(
        &mut self,
        epoch: usize,
        _batch_size: usize,
        rng: &mut StdRng,
        step: &mut dyn FnMut(&[&Example], &mut StdRng) -> ControlFlow<()>,
    ) {
        for batch in self(epoch, rng).into_iter().filter(|b| !b.is_empty()) {
            let refs: Vec<&Example> = batch.iter().collect();
            if step(&refs, rng).is_break() {
                return;
            }
        }
    }
}

/// Trains a [`TrainModel`] (Algorithm 1 of the paper): [`DeepSt`] by
/// default, or an RNN/CSSRNN baseline.
pub struct Trainer<M: TrainModel = DeepSt> {
    /// The model being trained.
    pub model: M,
    /// High-water mark of any worker's tape arena seen so far, in bytes.
    pub peak_tape_bytes: usize,
    /// Findings from the pre-training graph analysis (run once before epoch
    /// 0 by [`Trainer::fit`]); empty until then, and empty afterwards when
    /// the graph is clean.
    pub lint_report: Vec<Diagnostic>,
    opt: Adam,
    cfg: TrainConfig,
    faults: Option<Arc<FaultInjector>>,
}

impl<M: TrainModel> Trainer<M> {
    /// Create a trainer owning `model`.
    pub fn new(model: M, cfg: TrainConfig) -> Self {
        let opt = Adam::new(cfg.lr);
        Self {
            model,
            peak_tape_bytes: 0,
            lint_report: Vec::new(),
            opt,
            cfg,
            faults: None,
        }
    }

    /// Arm the fault-injection harness (tests only) at [`Trainer::fit`]'s
    /// `(epoch, batch[, shard])` coordinates; the single-epoch drivers
    /// never consult it.
    #[doc(hidden)]
    pub fn inject_faults(&mut self, injector: Arc<FaultInjector>) {
        self.faults = Some(injector);
    }

    /// Run the static graph analyzer over the training graph the model will
    /// build for the first minibatch, storing the findings in
    /// [`Trainer::lint_report`] (and returning a copy). Called once before
    /// epoch 0 by [`Trainer::fit`] on its source's lint sample (nothing to
    /// lint when that is empty); side-effect free (see
    /// [`TrainModel::analyze_graph`]).
    fn pre_train_lint(&mut self, train: &[Example]) -> Vec<Diagnostic> {
        if train.is_empty() {
            return Vec::new();
        }
        let n = self.cfg.batch_size.min(train.len()).max(1);
        let refs: Vec<&Example> = train.iter().take(n).collect();
        self.lint_report = self.model.analyze_graph(&refs);
        // Output-space coverage: Example slots come from
        // `net.neighbor_slot`, so a slot at or past `max_neighbors` is a
        // training target the slot head cannot represent — the loss
        // silently mis-attributes it. One scan over the whole sample — the
        // full set for an in-memory source (cheap: a max over usizes).
        let max_slot = train
            .iter()
            .flat_map(|e| e.slots.iter().copied())
            .max()
            .unwrap_or(0);
        let width = self.model.slot_width();
        if max_slot >= width {
            self.lint_report.push(Diagnostic {
                kind: st_tensor::LintKind::TruncatedOutputSpace,
                severity: st_tensor::Severity::Error,
                node: None,
                message: format!(
                    "training data contains slot {max_slot} but the output head has only \
                     {width} slots (cfg.max_neighbors): those transitions are unlearnable"
                ),
            });
        }
        self.lint_report.clone()
    }

    /// One pass over the training data, shuffled with `rng` and chunked by
    /// [`TrainConfig::batch_size`]. Returns the mean loss per trip, or NaN
    /// when no minibatch was stepped.
    ///
    /// Shards run on up to [`TrainConfig::num_threads`] workers and are
    /// reduced in shard order, so the result does not depend on the thread
    /// count (see [`crate::parallel`]). A minibatch with an unrecoverable
    /// shard failure, a non-finite loss or a non-finite gradient norm is
    /// skipped without a step and counted in
    /// `train.batch.skipped.{shard_failure,nonfinite_loss,nonfinite_grad}`.
    pub fn train_epoch(&mut self, examples: &[Example], rng: &mut StdRng) -> f32 {
        assert!(!examples.is_empty(), "empty training set");
        let mut source = examples;
        self.run_epoch(&mut source, rng, None)
    }

    /// [`Trainer::train_epoch`] over a stream of pre-assembled minibatches,
    /// typically the shard files of an on-disk trip store, so peak memory
    /// holds one minibatch, not the epoch. Batch composition and order are
    /// the stream's; each batch goes through the same minibatch body, so a
    /// stream that replays the in-memory epoch's batches trains
    /// bit-identically.
    pub fn train_epoch_stream<I>(&mut self, batches: I, rng: &mut StdRng) -> f32
    where
        I: IntoIterator<Item = Vec<Example>>,
    {
        let mut batches = Some(batches);
        let mut source = |_: usize, _: &mut StdRng| batches.take().into_iter().flatten();
        self.run_epoch(&mut source, rng, None)
    }

    /// Train for [`TrainConfig::epochs`] epochs of `source` (Algorithm 1),
    /// stopping early on `val` when given (see DESIGN.md §8):
    ///
    /// - before epoch 0 the graph analyzer runs on the source's lint sample
    ///   ([`Trainer::lint_report`], [`TrainEvent::LintWarning`]);
    /// - with [`TrainConfig::checkpoint_path`] a complete training checkpoint
    ///   is written atomically after every epoch, and
    ///   [`TrainConfig::resume_from`] continues from one
    ///   **bit-identically**: N epochs equal k epochs, a resume and N−k
    ///   more, parameter for parameter;
    /// - a non-finite batch loss or gradient norm, a loss above 10 × the
    ///   median of the last 8 stepped batch losses, or an unrecoverable
    ///   worker failure aborts the epoch before its step; the trainer
    ///   restores the state of the last epoch boundary, halves the
    ///   learning rate and retries, at most 3 times per run;
    /// - a panicked shard worker is retried serially with the shard's own
    ///   seed (bit-identical on success).
    ///
    /// Every fault and recovery is a [`TrainEvent`] in the returned
    /// [`TrainHistory`].
    pub fn fit(
        &mut self,
        mut source: impl BatchSource,
        val: Option<&[Example]>,
        rng: &mut StdRng,
    ) -> Result<TrainHistory, TrainError> {
        let _sp = st_obs::span("train/fit");
        let mut history = TrainHistory::default();
        for diagnostic in self.pre_train_lint(&source.lint_sample(rng)) {
            push_event(&mut history.events, TrainEvent::LintWarning { diagnostic });
        }

        let mut progress = ResumePoint {
            epoch: 0,
            step: 0,
            rollbacks: 0,
            bad_epochs: 0,
            best_val: f32::INFINITY,
        };
        if let Some(path) = self.cfg.resume_from.clone() {
            if path.exists() {
                progress = checkpoint::load_training(&path, &self.model, &mut self.opt, rng)?;
                history.resumed_from = Some(progress.epoch);
                let (epoch, step) = (progress.epoch, progress.step);
                push_event(&mut history.events, TrainEvent::Resumed { epoch, step });
            }
        }

        // Last known-good state, restored on divergence. Taken at epoch
        // boundaries so a rolled-back epoch replays the exact RNG stream the
        // failed attempt saw (minus any one-shot injected faults).
        let mut good = self.snapshot_state(rng);
        while progress.epoch < self.cfg.epochs {
            let epoch = progress.epoch;
            let t0 = Instant::now();
            let mut guard = Guard {
                epoch,
                window: VecDeque::new(),
                events: &mut history.events,
                halted: None,
            };
            let train_loss = self.run_epoch(&mut source, rng, Some(&mut guard));
            match guard.halted {
                None => {}
                Some((batch, Halt::Crashed)) => return Err(TrainError::Crashed { epoch, batch }),
                Some((batch, Halt::Rejected { reason, loss, .. })) => {
                    let ev = TrainEvent::Divergence {
                        epoch,
                        batch,
                        reason,
                        loss,
                    };
                    push_event(&mut history.events, ev);
                    progress.rollbacks += 1;
                    if progress.rollbacks > MAX_ROLLBACKS {
                        return Err(TrainError::RollbackLimit {
                            epoch,
                            rollbacks: progress.rollbacks,
                        });
                    }
                    // Read the LR *before* restoring: repeated rollbacks must
                    // compound the backoff, not re-derive it from the
                    // snapshot's original LR every time.
                    let new_lr = (self.opt.lr() * LR_BACKOFF).max(f32::MIN_POSITIVE);
                    self.restore_state(&good, rng);
                    self.opt.set_lr(new_lr);
                    push_event(
                        &mut history.events,
                        TrainEvent::RolledBack {
                            epoch,
                            rollbacks: progress.rollbacks,
                            new_lr,
                        },
                    );
                    continue; // Retry the same epoch.
                }
            }

            let val_loss = val.map(|v| self.model.evaluate_loss(v, self.cfg.batch_size, rng));
            let seconds = t0.elapsed().as_secs_f64();
            obs_epoch_stats(epoch, train_loss, val_loss, seconds);
            history.epochs.push(EpochStats {
                epoch,
                train_loss,
                val_loss,
                seconds,
            });
            let mut stop = false;
            if let Some(vl) = val_loss {
                if vl < progress.best_val - 1e-4 {
                    progress.best_val = vl;
                    progress.bad_epochs = 0;
                } else {
                    progress.bad_epochs += 1;
                    stop = self.cfg.patience.is_some_and(|p| progress.bad_epochs >= p);
                }
            }
            progress.epoch += 1;
            good = self.snapshot_state(rng);
            if let Some(path) = self.cfg.checkpoint_path.clone() {
                progress.step = self.opt.steps();
                checkpoint::save_training(&path, &self.model, &self.opt, rng, &progress)?;
                let ev = TrainEvent::Checkpointed {
                    epoch: progress.epoch,
                    path,
                };
                push_event(&mut history.events, ev);
            }
            if stop {
                break;
            }
        }
        Ok(history)
    }

    /// One epoch of `source` through [`Trainer::train_batch`]; returns the
    /// mean loss per stepped example (NaN when none was). With `guard`
    /// ([`Trainer::fit`]) the first minibatch not stepped ends the epoch,
    /// recorded in [`Guard::halted`]; without, it is counted and skipped.
    fn run_epoch<S: BatchSource + ?Sized>(
        &mut self,
        source: &mut S,
        rng: &mut StdRng,
        mut guard: Option<&mut Guard<'_>>,
    ) -> f32 {
        let _sp = st_obs::span("train/epoch");
        let mut acc = EpochAcc {
            tape: Tape::new(),
            g_loss: st_obs::gauge("train.batch_loss"),
            g_norm: st_obs::gauge("train.grad_norm"),
            total: 0.0,
            count: 0,
        };
        let epoch = guard.as_ref().map_or(0, |g| g.epoch);
        let mut batch = 0usize;
        source.for_each_batch(epoch, self.cfg.batch_size, rng, &mut |refs, rng| {
            let at = batch;
            batch += 1;
            let Err(halt) = self.train_batch(refs, rng, &mut acc, at, guard.as_deref_mut()) else {
                return ControlFlow::Continue(());
            };
            match guard.as_deref_mut() {
                Some(g) => {
                    g.halted = Some((at, halt));
                    ControlFlow::Break(())
                }
                None => {
                    if let Halt::Rejected { key, reason, .. } = halt {
                        count_skipped_minibatch(key, &reason);
                    }
                    ControlFlow::Continue(())
                }
            }
        });
        (acc.total / acc.count as f64) as f32
    }

    /// The minibatch body of Algorithm 1: the shards (with panic
    /// containment), the divergence checks, the reduce, the clip (with its
    /// non-finite guard) and the Adam step. On `Err` the parameters,
    /// batch-norm buffers and optimizer are as they were. `guard` is
    /// [`Trainer::fit`]'s: it arms fault injection at `(epoch, at)` and the
    /// loss-spike check.
    fn train_batch(
        &mut self,
        refs: &[&Example],
        rng: &mut StdRng,
        acc: &mut EpochAcc,
        at: usize,
        mut guard: Option<&mut Guard<'_>>,
    ) -> Result<(), Halt> {
        let _sb = st_obs::span("train/batch");
        let epoch = guard.as_ref().map_or(0, |g| g.epoch);
        let injector = self.faults.as_deref().filter(|_| guard.is_some());
        let faults = injector.map(|injector| ShardFaultCtx {
            injector,
            epoch,
            batch: at,
        });
        if faults.is_some_and(|f| f.injector.take_crash(epoch, at)) {
            return Err(Halt::Crashed);
        }
        let (outputs, failures) = crate::parallel::run_minibatch(
            &self.model,
            refs,
            self.cfg.shard_size.max(1),
            self.cfg.num_threads,
            rng,
            &acc.tape,
            faults,
        );
        for f in &failures {
            let ev = TrainEvent::ShardFailure {
                epoch,
                batch: at,
                shard: f.shard,
                recovered: f.recovered,
                message: f.message.clone(),
            };
            match guard.as_deref_mut() {
                Some(g) => push_event(g.events, ev),
                None => obs_train_event(&ev),
            }
        }
        if failures.iter().any(|f| !f.recovered) {
            return rejected("shard_failure", "unrecoverable worker failure", f32::NAN);
        }

        let n = refs.len() as f32;
        let mut loss = outputs.iter().map(|o| o.loss * o.count as f32).sum::<f32>() / n;
        if faults.is_some_and(|f| f.injector.take_nan_loss(epoch, at)) {
            loss = f32::NAN;
        }
        if !loss.is_finite() {
            return rejected("nonfinite_loss", "non-finite batch loss", loss);
        }
        if let Some(g) = guard
            .as_deref()
            .filter(|g| g.window.len() == DIVERGENCE_WINDOW)
        {
            let mut sorted: Vec<f32> = g.window.iter().copied().collect();
            sorted.sort_by(f32::total_cmp);
            let (median, factor) = (sorted[DIVERGENCE_WINDOW / 2], DIVERGENCE_FACTOR);
            if loss > factor * median.abs().max(1e-3) {
                let reason = format!("loss spike: {loss} > {factor} × rolling median {median}");
                return rejected("loss_spike", reason, loss);
            }
        }

        for out in &outputs {
            // Shard losses are means over n_s examples; the minibatch
            // gradient is the n_s/n-weighted sum of shard gradients.
            let w = out.count as f32 / n;
            for (p, g) in &out.grads {
                p.accumulate_grad_scaled(w, g);
            }
            self.peak_tape_bytes = self.peak_tape_bytes.max(out.peak_tape_bytes);
        }
        let params = self.model.params();
        let norm = clip_grad_norm_grouped(&self.model.param_groups(), self.cfg.grad_clip);
        if !norm.is_finite() {
            // `clip_grad_norm` cannot scale a non-finite norm down; the
            // step would poison every parameter with a gradient.
            for p in &params {
                p.zero_grad();
            }
            let reason = format!("non-finite gradient norm {norm}");
            return rejected("nonfinite_grad", reason, loss);
        }
        for out in &outputs {
            if !out.bn_updates.is_empty() {
                // Empty without a traffic pathway (DeepST-C, the RNNs).
                self.model.apply_bn_stats(&out.bn_updates);
            }
            acc.total += out.loss as f64 * out.count as f64;
        }
        acc.count += refs.len();
        acc.g_norm.set(norm as f64);
        acc.g_loss.set(loss as f64);
        self.opt.step(&params);
        if let Some(g) = guard {
            if g.window.len() == DIVERGENCE_WINDOW {
                g.window.pop_front();
            }
            g.window.push_back(loss);
        }
        Ok(())
    }

    /// Capture everything a rollback must restore: parameter values, BN
    /// buffers, optimizer state, RNG state.
    fn snapshot_state(&self, rng: &StdRng) -> GoodState {
        GoodState {
            params: self.model.state(),
            buffers: self.model.buffers(),
            opt: self.opt.export_state(),
            rng: rng.state(),
        }
    }

    /// Restore a [`GoodState`] snapshot taken from this very trainer —
    /// mismatches are impossible, hence the expect.
    fn restore_state(&mut self, s: &GoodState, rng: &mut StdRng) {
        let restored = (self.model.load_state(&s.params))
            .and_then(|()| self.model.load_buffers(&s.buffers))
            .map_err(|e| e.to_string())
            .and_then(|()| self.opt.import_state(s.opt.clone()));
        // st-lint: allow(panic-in-lib) — snapshot taken from this trainer
        restored.expect("rollback snapshot matches its own trainer");
        *rng = StdRng::from_state(s.rng);
    }
}

/// In-memory last-known-good training state for divergence rollback.
struct GoodState {
    params: Vec<(String, Array)>,
    buffers: Vec<(String, Array)>,
    opt: AdamState,
    rng: [u64; 4],
}

/// Per-epoch state of the minibatch body.
struct EpochAcc {
    /// Tape for shards run on the calling thread, reused across minibatches.
    tape: Tape,
    g_loss: st_obs::Gauge,
    /// Set only for a minibatch that was stepped.
    g_norm: st_obs::Gauge,
    /// Loss summed over the stepped examples, in shard order.
    total: f64,
    /// Stepped examples.
    count: usize,
}

/// What [`Trainer::fit`] adds to the minibatch body: fault coordinates,
/// the loss-spike window and the event log.
struct Guard<'a> {
    epoch: usize,
    /// The last [`DIVERGENCE_WINDOW`] stepped batch losses.
    window: VecDeque<f32>,
    events: &'a mut Vec<TrainEvent>,
    /// The minibatch that ended the epoch early, and why.
    halted: Option<(usize, Halt)>,
}

/// Why the minibatch body did not step.
enum Halt {
    /// The fault injector simulated a process kill.
    Crashed,
    /// A check rejected the minibatch. `key` names its
    /// `train.batch.skipped.*` counter; `loss` is the offending batch loss
    /// (NaN when none was computed).
    Rejected {
        key: &'static str,
        reason: String,
        loss: f32,
    },
}

/// Count one minibatch `train_epoch`/`train_epoch_stream` skipped in its
/// `train.batch.skipped.{key}` counter (`nonfinite_loss`,
/// `nonfinite_grad`, …) and warn once per process with `reason`.
fn count_skipped_minibatch(key: &str, reason: &str) {
    let counter = format!("train.batch.skipped.{key}");
    st_obs::counter(&counter).inc();
    st_obs::warn_once(&counter, &format!("minibatch skipped: {reason}"));
}

fn rejected(key: &'static str, reason: impl Into<String>, loss: f32) -> Result<(), Halt> {
    Err(Halt::Rejected {
        key,
        reason: reason.into(),
        loss,
    })
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
    use crate::config::DeepStConfig;
    use crate::model::DeepSt;
    use st_roadnet::{grid_city, GridConfig};
    use st_tensor::init;
    use std::sync::Arc;

    /// A toy world: routes from a tiny grid with a fixed transition habit.
    fn toy_examples(n: usize, seed: u64) -> (st_roadnet::RoadNetwork, Vec<Example>) {
        let net = grid_city(&GridConfig::small_test(), 1);
        let mut rng = init::rng(seed);
        let tensor = Arc::new(vec![0.3f32; 64]);
        let mut out = Vec::new();
        let mut cur_seed = 0usize;
        while out.len() < n {
            cur_seed += 1;
            let start = cur_seed % net.num_segments();
            let mut route = vec![start];
            for step in 0..6 {
                let nexts = net.next_segments(*route.last().unwrap());
                // habit: always pick the lowest-heading slot, with a little noise
                let pick = if (cur_seed + step).is_multiple_of(5) {
                    nexts.len() - 1
                } else {
                    0
                };
                route.push(nexts[pick]);
            }
            let end = net.midpoint(*route.last().unwrap());
            let (min, max) = net.bounding_box();
            let dest = [
                ((end.x - min.x) / (max.x - min.x)) as f32,
                ((end.y - min.y) / (max.y - min.y)) as f32,
            ];
            if let Some(ex) = Example::new(&net, route, dest, Arc::clone(&tensor), 0) {
                out.push(ex);
            }
        }
        let _ = &mut rng;
        (net, out)
    }

    /// Every parameter and buffer as raw bits.
    fn state_bits(model: &DeepSt) -> Vec<u32> {
        model
            .state()
            .into_iter()
            .chain(model.buffers())
            .flat_map(|(_, arr)| arr.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            .collect()
    }

    /// How many parameter and buffer values differ from `before`.
    fn moved(before: &[u32], model: &DeepSt) -> usize {
        let after = state_bits(model);
        before.iter().zip(&after).filter(|(a, b)| a != b).count()
    }

    fn serial_config(batch_size: usize) -> TrainConfig {
        TrainConfig {
            batch_size,
            shard_size: batch_size,
            num_threads: 1,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn elbo_is_finite_and_loss_positive() {
        let (net, examples) = toy_examples(8, 0);
        let cfg = DeepStConfig::new(net.num_segments(), net.max_out_degree(), 8, 8);
        let model = DeepSt::new(cfg, 0);
        let mut rng = init::rng(1);
        let refs: Vec<&Example> = examples.iter().collect();
        let tape = Tape::new();
        let binder = Binder::new(&tape);
        let (loss, stats) = model.batch_loss(&binder, &refs, &mut rng, true);
        assert!(loss.scalar_value().is_finite());
        assert!(stats.kl_pi >= -1e-3, "KL(π) negative: {}", stats.kl_pi);
        assert!(stats.kl_c >= -1e-3, "KL(c) negative: {}", stats.kl_c);
        assert!(stats.route_ll <= 0.0);
        assert!(stats.transitions > 0);
    }

    #[test]
    fn training_reduces_loss() {
        let (net, examples) = toy_examples(60, 3);
        let cfg = DeepStConfig::new(net.num_segments(), net.max_out_degree(), 8, 8);
        let model = DeepSt::new(cfg, 0);
        let mut rng = init::rng(2);
        let tc = TrainConfig {
            epochs: 6,
            batch_size: 20,
            lr: 5e-3,
            patience: None,
            num_threads: 1,
            ..TrainConfig::default()
        };
        let mut trainer = Trainer::new(model, tc);
        let first = trainer.train_epoch(&examples, &mut rng);
        for _ in 0..5 {
            trainer.train_epoch(&examples, &mut rng);
        }
        let last = trainer.model.evaluate_loss(&examples, 20, &mut rng);
        assert!(
            last < first * 0.9,
            "training did not reduce loss: {first} -> {last}"
        );
    }

    #[test]
    fn fit_records_history_and_early_stops() {
        let (net, examples) = toy_examples(40, 5);
        let cfg =
            DeepStConfig::new(net.num_segments(), net.max_out_degree(), 8, 8).without_traffic();
        let model = DeepSt::new(cfg, 1);
        let tc = TrainConfig {
            epochs: 4,
            batch_size: 16,
            patience: Some(2),
            num_threads: 1,
            ..TrainConfig::default()
        };
        let mut trainer = Trainer::new(model, tc);
        let mut rng = init::rng(3);
        let hist = trainer
            .fit(&examples[..30], Some(&examples[30..]), &mut rng)
            .expect("clean run")
            .epochs;
        assert!(!hist.is_empty() && hist.len() <= 4);
        for h in &hist {
            assert!(h.train_loss.is_finite());
            assert!(h.val_loss.unwrap().is_finite());
            assert!(h.seconds >= 0.0);
        }
    }

    /// The tentpole determinism guarantee: training with 4 worker threads
    /// must produce bit-identical parameters (and BN running stats, checked
    /// via the eval loss) to training with 1, because the shard partition,
    /// per-shard seeds, reduction order and BN-update order are all fixed.
    #[test]
    fn parallel_training_is_bit_identical_to_serial() {
        let (net, examples) = toy_examples(48, 11);
        let cfg = DeepStConfig::new(net.num_segments(), net.max_out_degree(), 8, 8);
        let run = |threads: usize| -> (Vec<u32>, u32) {
            let model = DeepSt::new(cfg.clone(), 9);
            let tc = TrainConfig {
                epochs: 3,
                batch_size: 24,
                shard_size: 8,
                num_threads: threads,
                patience: None,
                ..TrainConfig::default()
            };
            let mut trainer = Trainer::new(model, tc);
            let mut rng = init::rng(13);
            for _ in 0..3 {
                trainer.train_epoch(&examples, &mut rng);
            }
            let bits: Vec<u32> = trainer
                .model
                .params()
                .iter()
                .flat_map(|p| {
                    p.value()
                        .data()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>()
                })
                .collect();
            let mut eval_rng = init::rng(99);
            let eval = trainer.model.evaluate_loss(&examples, 24, &mut eval_rng);
            (bits, eval.to_bits())
        };
        let (serial, serial_eval) = run(1);
        let (parallel, parallel_eval) = run(4);
        assert_eq!(serial.len(), parallel.len());
        let diffs = serial.iter().zip(&parallel).filter(|(a, b)| a != b).count();
        assert_eq!(
            diffs, 0,
            "{diffs} parameter values differ between 1 and 4 threads"
        );
        assert_eq!(
            serial_eval, parallel_eval,
            "eval loss differs (BN stats diverged?)"
        );
    }

    /// `run_shards` caps workers at the host's core count, so on a
    /// single-core machine the test above compares the inline path with
    /// itself. This one forces real worker threads regardless of the host
    /// and checks every shard output bit against the inline path.
    #[test]
    fn forced_worker_threads_match_inline_shards() {
        let (net, examples) = toy_examples(24, 21);
        let cfg = DeepStConfig::new(net.num_segments(), net.max_out_degree(), 8, 8);
        let model = DeepSt::new(cfg, 5);
        let refs: Vec<&Example> = examples.iter().collect();
        let shards: Vec<&[&Example]> = refs.chunks(6).collect();
        let seeds: Vec<u64> = (0..shards.len() as u64)
            .map(|s| s.wrapping_mul(0x9e37) + 7)
            .collect();

        let tape = Tape::new();
        let inline: Vec<_> = shards
            .iter()
            .zip(&seeds)
            .map(|(shard, &seed)| {
                let mut rng = init::rng(seed);
                crate::parallel::run_shard_with_rng(&model, &tape, shard, &mut rng)
            })
            .collect();
        let threaded: Vec<_> = crate::parallel::run_shards_on(&model, &shards, &seeds, 3, None)
            .into_iter()
            .map(|r| r.expect("no faults injected, no shard may fail"))
            .collect();

        assert_eq!(inline.len(), threaded.len());
        for (a, b) in inline.iter().zip(&threaded) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
            assert_eq!(a.count, b.count);
            assert_eq!(a.grads.len(), b.grads.len());
            for ((pa, ga), (pb, gb)) in a.grads.iter().zip(&b.grads) {
                assert!(std::ptr::eq(*pa, *pb), "gradient order differs");
                let bits = |arr: &st_tensor::Array| {
                    arr.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                };
                assert_eq!(bits(ga), bits(gb), "gradient bits differ for {}", pa.name());
            }
            assert_eq!(a.bn_updates.len(), b.bn_updates.len());
            for ((ma, va), (mb, vb)) in a.bn_updates.iter().zip(&b.bn_updates) {
                assert_eq!(ma.data(), mb.data());
                assert_eq!(va.data(), vb.data());
            }
        }
    }

    #[test]
    fn deepst_c_has_zero_kl_c() {
        let (net, examples) = toy_examples(6, 7);
        let cfg =
            DeepStConfig::new(net.num_segments(), net.max_out_degree(), 8, 8).without_traffic();
        let model = DeepSt::new(cfg, 2);
        let mut rng = init::rng(4);
        let refs: Vec<&Example> = examples.iter().collect();
        let tape = Tape::new();
        let binder = Binder::new(&tape);
        let (_, stats) = model.batch_loss(&binder, &refs, &mut rng, true);
        assert_eq!(stats.kl_c, 0.0);
    }

    /// Acceptance: zero analyzer false positives on both shipped DeepST
    /// configs, and the analysis is fast (< 1 s).
    #[test]
    fn analyzer_clean_on_shipped_deepst_configs() {
        let (net, examples) = toy_examples(16, 11);
        let refs: Vec<&Example> = examples.iter().collect();
        let full = DeepStConfig::new(net.num_segments(), net.max_out_degree(), 8, 8);
        for (seed, cfg) in [(0u64, full.clone()), (1, full.without_traffic())] {
            let model = DeepSt::new(cfg, seed);
            let t0 = Instant::now();
            let diags = model.analyze_graph(&refs);
            assert!(
                diags.is_empty(),
                "analyzer false positives on shipped config: {diags:?}"
            );
            assert!(
                t0.elapsed().as_secs_f64() < 1.0,
                "pre-train analysis exceeded 1 s"
            );
        }
    }

    /// Planted defects in the real DeepST training graph: a registered
    /// parameter the forward pass never binds, a detached op subgraph, and a
    /// `ln` over an unclamped input — the analyzer must find all three.
    #[test]
    fn analyzer_flags_planted_defects_in_deepst_graph() {
        use st_tensor::{LintKind, Param};

        struct WithDead<'a> {
            inner: &'a DeepSt,
            dead: Param,
        }
        impl Module for WithDead<'_> {
            fn params(&self) -> Vec<&Param> {
                let mut ps = self.inner.params();
                ps.push(&self.dead);
                ps
            }
        }

        let (net, examples) = toy_examples(8, 12);
        let cfg = DeepStConfig::new(net.num_segments(), net.max_out_degree(), 8, 8);
        let model = DeepSt::new(cfg, 3);
        let planted = WithDead {
            inner: &model,
            dead: Param::new("planted.dead", Array::vector(vec![0.0; 4])),
        };
        let refs: Vec<&Example> = examples.iter().collect();
        let mut rng = init::rng(0);
        let tape = Tape::new();
        let binder = Binder::new(&tape);
        let (loss, _) = model.batch_loss(&binder, &refs, &mut rng, true);
        // Plant a NaN hazard on the loss path: ln of an unclamped input.
        let hazard = ops::sum_all(ops::ln(binder.input(Array::vector(vec![0.5, 2.0]))));
        let root = ops::add(loss, hazard);
        // Plant a dead subgraph: an op whose result never reaches the loss.
        let _stray = ops::square(binder.input(Array::vector(vec![1.0, 2.0])));
        let diags = analyze_module_graph(&tape, &binder, root.id(), &planted);
        let has = |k: LintKind| diags.iter().any(|d| d.kind == k);
        assert!(
            diags
                .iter()
                .any(|d| d.kind == LintKind::UnreachableParam
                    && d.message.contains("planted.dead")),
            "missed never-bound parameter: {diags:?}"
        );
        assert!(has(LintKind::DetachedSubgraph), "missed dead op: {diags:?}");
        assert!(has(LintKind::NanHazard), "missed ln hazard: {diags:?}");
        assert_eq!(diags.len(), 3, "unexpected extra findings: {diags:?}");
    }

    /// `fit` runs the analyzer before epoch 0 and records a clean report for
    /// the shipped model.
    #[test]
    fn fit_populates_clean_lint_report() {
        let (net, examples) = toy_examples(8, 14);
        let cfg =
            DeepStConfig::new(net.num_segments(), net.max_out_degree(), 8, 8).without_traffic();
        let tc = TrainConfig {
            epochs: 1,
            batch_size: 8,
            num_threads: 1,
            ..TrainConfig::default()
        };
        let mut trainer = Trainer::new(DeepSt::new(cfg, 5), tc);
        let mut rng = init::rng(6);
        trainer
            .fit(&examples[..], None, &mut rng)
            .expect("clean run");
        assert!(
            trainer.lint_report.is_empty(),
            "shipped model should lint clean: {:?}",
            trainer.lint_report
        );
    }

    /// `fit` surfaces pre-training analyzer findings as
    /// [`TrainEvent::LintWarning`] (none for the clean shipped model).
    #[test]
    fn fit_emits_no_lint_events_for_clean_model() {
        let (net, examples) = toy_examples(8, 15);
        let cfg =
            DeepStConfig::new(net.num_segments(), net.max_out_degree(), 8, 8).without_traffic();
        let tc = TrainConfig {
            epochs: 1,
            batch_size: 8,
            num_threads: 1,
            ..TrainConfig::default()
        };
        let mut trainer = Trainer::new(DeepSt::new(cfg, 5), tc);
        let mut rng = init::rng(6);
        let history = trainer.fit(&examples[..], None, &mut rng).unwrap();
        assert!(!history
            .events
            .iter()
            .any(|e| matches!(e, TrainEvent::LintWarning { .. })));
    }

    /// The single-epoch drivers count every minibatch they cannot step,
    /// and an epoch that stepped nothing reports NaN — not a perfect 0.0
    /// loss, and not a panic — and leaves the model untouched.
    #[test]
    fn skipped_minibatches_are_counted_and_an_all_skipped_epoch_is_nan() {
        let (net, mut examples) = toy_examples(16, 16);
        for e in &mut examples {
            // Plants a non-finite loss in every minibatch.
            e.dest = [f32::NAN, f32::NAN];
        }
        let cfg = DeepStConfig::new(net.num_segments(), net.max_out_degree(), 8, 8);
        let mut trainer = Trainer::new(DeepSt::new(cfg, 6), serial_config(8));
        let before = state_bits(&trainer.model);
        let skipped = st_obs::counter("train.batch.skipped.nonfinite_loss");
        let base = skipped.get();
        let mut rng = init::rng(7);

        let loss = trainer.train_epoch(&examples, &mut rng);
        assert!(loss.is_nan(), "all-skipped epoch reported loss {loss}");
        assert_eq!(skipped.get() - base, 2);
        let stream = examples.chunks(8).map(<[Example]>::to_vec);
        let loss = trainer.train_epoch_stream(stream, &mut rng);
        assert!(loss.is_nan(), "all-skipped stream reported loss {loss}");
        assert_eq!(skipped.get() - base, 4);
        assert_eq!(
            moved(&before, &trainer.model),
            0,
            "a skipped minibatch moved the model"
        );
    }

    /// A NaN gradient norm must not reach Adam: the clip cannot scale it
    /// down (`NaN > max_norm` is false), so a step would write NaN into the
    /// parameter. The driver skips the minibatch, zeroes the gradients and
    /// counts it instead.
    #[test]
    fn nonfinite_grad_norm_skips_the_step() {
        let (net, examples) = toy_examples(8, 17);
        let cfg = DeepStConfig::new(net.num_segments(), net.max_out_degree(), 8, 8);
        let mut trainer = Trainer::new(DeepSt::new(cfg, 8), serial_config(8));
        let before = state_bits(&trainer.model);
        {
            let planted = trainer.model.params()[0];
            let shape = planted.value().shape().to_vec();
            planted.accumulate_grad(&Array::full(&shape, f32::NAN));
        }
        let skipped = st_obs::counter("train.batch.skipped.nonfinite_grad");
        let base = skipped.get();
        let mut rng = init::rng(9);

        let loss = trainer.train_epoch_stream(std::iter::once(examples), &mut rng);
        assert_eq!(
            moved(&before, &trainer.model),
            0,
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

    /// The route pathway before packing, kept verbatim as the exactness
    /// oracle of [`DeepSt::route_log_likelihood`]: every route steps until
    /// the longest one ends, padded with token 0, and the finished rows
    /// are masked out of the sum.
    fn padded_route_log_likelihood<'t, 'p>(
        model: &'p DeepSt,
        binder: &Binder<'t, 'p>,
        batch: &[&Example],
        fx: Var<'t>,
        c: Option<Var<'t>>,
    ) -> (Var<'t>, usize) {
        let n = batch.len();
        let max_len = batch.iter().map(|e| e.route.len()).max().unwrap_or(1);
        let mut state = model.rnn.gru.zero_state(binder, n);
        let mut route_ll: Option<Var<'t>> = None;
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
            let inp = model.rnn.emb.forward(binder, &tokens);
            let hid = model.rnn.gru.step(binder, inp, &mut state);
            let logits = model.rnn.slot_logits(binder, hid, model.slot_terms(fx, c));
            let logp = ops::log_softmax_rows(logits);
            let picked = ops::pick_per_row(logp, &targets);
            let masked = ops::sum_all(ops::mask_rows(ops::reshape(picked, &[n, 1]), &mask));
            route_ll = Some(match route_ll {
                Some(acc) => ops::add(acc, masked),
                None => masked,
            });
        }
        // A batch of length-1 routes has no transitions; its route term is 0.
        let route_ll = route_ll.unwrap_or_else(|| binder.input(Array::zeros(&[1])));
        (route_ll, transitions)
    }

    /// [`DeepSt::route_log_likelihood`]'s packed pass, op for op, with the
    /// GRU step composed out of taped ops: the oracle of the fused step.
    fn composed_route_log_likelihood<'t, 'p>(
        model: &'p DeepSt,
        binder: &Binder<'t, 'p>,
        batch: &[&Example],
        mut fx: Var<'t>,
        mut c: Option<Var<'t>>,
    ) -> (Var<'t>, usize) {
        let (rnn, params) = (&model.rnn, model.rnn.gru.params());
        let n = batch.len();
        let max_len = batch.iter().map(|e| e.route.len()).max().unwrap_or(1);
        let mut state = rnn.gru.zero_state(binder, n);
        let mut running = st_nn::RunningRows::all(n);
        let mut route_ll: Option<Var<'t>> = None;
        let mut transitions = 0usize;
        for i in 0..max_len - 1 {
            if let Some(keep) = running.retain(|r| i + 1 < batch[r].route.len()) {
                rnn.gru.gather_state(&mut state, &keep);
                fx = ops::gather_rows(fx, &keep);
                c = c.map(|c| ops::gather_rows(c, &keep));
            }
            let rows = running.rows();
            let tokens: Vec<usize> = rows.iter().map(|&r| batch[r].route[i]).collect();
            let targets: Vec<usize> = rows.iter().map(|&r| batch[r].slots[i]).collect();
            transitions += rows.len();
            let inp = rnn.emb.forward(binder, &tokens);
            let hid = super::composed_gru::stack_step(binder, &params, inp, &mut state);
            let logits = rnn.slot_logits(binder, hid, model.slot_terms(fx, c));
            let logp = ops::log_softmax_rows(logits);
            let step_ll = ops::sum_all(ops::pick_per_row(logp, &targets));
            route_ll = Some(match route_ll {
                Some(acc) => ops::add(acc, step_ll),
                None => step_ll,
            });
        }
        let route_ll = route_ll.unwrap_or_else(|| binder.input(Array::zeros(&[1])));
        (route_ll, transitions)
    }

    /// A small DeepST (or DeepST-C) for the packing oracle; `block_rows`
    /// below the vocabulary shards the embedding.
    fn oracle_model(traffic: bool, block_rows: usize, seed: u64) -> DeepSt {
        oracle_model_layers(traffic, block_rows, 2, seed)
    }

    /// [`oracle_model`] with `layers` stacked GRU cells.
    fn oracle_model_layers(traffic: bool, block_rows: usize, layers: usize, seed: u64) -> DeepSt {
        let mut cfg = DeepStConfig::new(24, 5, 8, 8).with_emb_block_rows(block_rows);
        cfg.gru_layers = layers;
        cfg.emb_dim = 12;
        cfg.hidden = 20;
        cfg.n_x = 10;
        cfg.c_dim = 6;
        if !traffic {
            cfg = cfg.without_traffic();
        }
        DeepSt::new(cfg, seed)
    }

    /// Routes of the given lengths with random segment ids from
    /// `first_segment..` and random slots (the route pathway reads only the
    /// ids, so they need not be adjacent).
    fn oracle_batch(
        model: &DeepSt,
        lens: &[usize],
        first_segment: usize,
        rng: &mut StdRng,
    ) -> Vec<Example> {
        use rand::Rng;
        let (vocab, slots) = (model.cfg.n_segments, model.cfg.max_neighbors);
        lens.iter()
            .map(|&len| Example {
                route: (0..len)
                    .map(|_| rng.gen_range(first_segment..vocab))
                    .collect(),
                slots: (0..len.saturating_sub(1))
                    .map(|_| rng.gen_range(0..slots))
                    .collect(),
                dest: [0.5, 0.5],
                traffic: Arc::new(Vec::new()),
                slot_id: 0,
            })
            .collect()
    }

    /// One route-pathway pass, packed or padded, with `fx` and `c` fed as
    /// leaf inputs; the loss is scaled like the ELBO's route term.
    struct RoutePass {
        value: u32,
        transitions: usize,
        params: Vec<(String, Vec<u32>)>,
        fx: Vec<u32>,
        c: Option<Vec<u32>>,
        peak_bytes: usize,
    }

    fn bits(a: &Array) -> Vec<u32> {
        a.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Which route pathway a [`route_pass`] runs.
    #[derive(Clone, Copy)]
    enum Pathway {
        /// The library's packed pass ([`DeepSt::route_log_likelihood`]).
        Packed,
        /// Every route stepped to the longest, finished rows masked.
        Padded,
        /// The packed pass on the composed GRU cell.
        Composed,
    }

    fn route_pass(
        model: &DeepSt,
        batch: &[Example],
        fx: &Array,
        c: Option<&Array>,
        pathway: Pathway,
    ) -> RoutePass {
        let refs: Vec<&Example> = batch.iter().collect();
        let tape = Tape::new();
        let binder = Binder::new(&tape);
        let fx_var = binder.input(fx.clone());
        let c_var = c.map(|c| binder.input(c.clone()));
        let (ll, transitions) = match pathway {
            Pathway::Packed => model.route_log_likelihood(&binder, &refs, fx_var, c_var),
            Pathway::Padded => padded_route_log_likelihood(model, &binder, &refs, fx_var, c_var),
            Pathway::Composed => {
                composed_route_log_likelihood(model, &binder, &refs, fx_var, c_var)
            }
        };
        let loss = ops::scale(ll, -1.0 / refs.len() as f32);
        let grads = tape.backward(loss);
        let leaf_grad = |v: Var<'_>| grads.get(v).map(bits).unwrap_or_default();
        RoutePass {
            value: loss.scalar_value().to_bits(),
            transitions,
            params: (binder.collect_grads(&grads).iter())
                .map(|(p, g)| (p.name().to_string(), bits(g)))
                .collect(),
            fx: leaf_grad(fx_var),
            c: c_var.map(leaf_grad),
            peak_bytes: tape.peak_bytes(),
        }
    }

    /// Packed ≡ padded, bit for bit: loss value, transition count, the
    /// gradient of every parameter and of the `fx` / `c` inputs. A
    /// parameter only the padded pass binds (an embedding block read only
    /// by padding token 0) must have an all-zero gradient there; returns
    /// how many there were.
    fn assert_packed_matches_padded(
        lens: &[usize],
        traffic: bool,
        blocked: bool,
        first_segment: usize,
        seed: u64,
    ) -> usize {
        let model = oracle_model(traffic, if blocked { 4 } else { 4096 }, seed);
        let mut rng = init::rng(seed ^ 0x5eed);
        let batch = oracle_batch(&model, lens, first_segment, &mut rng);
        let n = lens.len();
        let fx = init::randn(&[n, model.cfg.n_x], 1.0, &mut rng);
        let c = traffic.then(|| init::randn(&[n, model.cfg.c_dim], 1.0, &mut rng));
        let packed = route_pass(&model, &batch, &fx, c.as_ref(), Pathway::Packed);
        let padded = route_pass(&model, &batch, &fx, c.as_ref(), Pathway::Padded);
        let case = format!("lens {lens:?}, traffic {traffic}, blocked {blocked}, seed {seed}");
        assert_eq!(packed.value, padded.value, "loss bits differ: {case}");
        assert_eq!(packed.transitions, padded.transitions, "{case}");
        assert_eq!(packed.fx, padded.fx, "fx gradient bits differ: {case}");
        assert_eq!(packed.c, padded.c, "c gradient bits differ: {case}");
        for (name, _) in &packed.params {
            assert!(
                padded.params.iter().any(|(p, _)| p == name),
                "packed pass binds {name}, padded does not: {case}"
            );
        }
        let mut padded_only = 0;
        for (name, reference) in &padded.params {
            match packed.params.iter().find(|(p, _)| p == name) {
                Some((_, g)) => assert_eq!(g, reference, "{name} gradient bits differ: {case}"),
                None => {
                    assert!(
                        reference.iter().all(|&b| b == 0),
                        "{name} is bound only by the padded pass but has a nonzero gradient: \
                         {case}"
                    );
                    padded_only += 1;
                }
            }
        }
        padded_only
    }

    /// Fused ≡ composed GRU on the packed pass, bit for bit: loss value,
    /// transition count, the gradient of every parameter and of the `fx` /
    /// `c` inputs.
    fn assert_fused_matches_composed(
        lens: &[usize],
        traffic: bool,
        blocked: bool,
        layers: usize,
        seed: u64,
    ) {
        let model = oracle_model_layers(traffic, if blocked { 4 } else { 4096 }, layers, seed);
        let mut rng = init::rng(seed ^ 0x5eed);
        let batch = oracle_batch(&model, lens, 0, &mut rng);
        let n = lens.len();
        let fx = init::randn(&[n, model.cfg.n_x], 1.0, &mut rng);
        let c = traffic.then(|| init::randn(&[n, model.cfg.c_dim], 1.0, &mut rng));
        let fused = route_pass(&model, &batch, &fx, c.as_ref(), Pathway::Packed);
        let composed = route_pass(&model, &batch, &fx, c.as_ref(), Pathway::Composed);
        let case = format!(
            "lens {lens:?}, traffic {traffic}, blocked {blocked}, layers {layers}, seed {seed}"
        );
        assert_eq!(fused.value, composed.value, "loss bits differ: {case}");
        assert_eq!(fused.transitions, composed.transitions, "{case}");
        assert_eq!(fused.fx, composed.fx, "fx gradient bits differ: {case}");
        assert_eq!(fused.c, composed.c, "c gradient bits differ: {case}");
        assert_eq!(fused.params.len(), composed.params.len(), "{case}");
        for ((name, g), (cname, reference)) in fused.params.iter().zip(&composed.params) {
            assert_eq!(name, cname, "{case}");
            assert_eq!(g, reference, "{name} gradient bits differ: {case}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The fused GRU step against the composed cell on DeepST's packed
        /// route pass: 1–16 routes of 1–40 segments (ragged, equal, one long
        /// among short, or 1–2 segments), one or two GRU layers, DeepST and
        /// DeepST-C, dense and blocked embeddings.
        #[test]
        fn fused_gru_route_pass_matches_composed_cell(
            seed in 0u64..1_000_000,
            n in 1usize..=16,
            max_len in 1usize..=40,
            shape in 0usize..4,
            traffic in 0usize..2,
            blocked in 0usize..2,
            layers in 1usize..=2,
        ) {
            let lens = shard_lens(seed, n, max_len, shape);
            assert_fused_matches_composed(&lens, traffic == 1, blocked == 1, layers, seed);
        }

        /// Random shards of 1–16 routes of 1–60 segments: independent
        /// lengths, all equal, one long route among short ones, or only
        /// 1–2 segments; DeepST and DeepST-C, dense and blocked embeddings.
        #[test]
        fn packed_route_pass_matches_padded_oracle(
            seed in 0u64..1_000_000,
            n in 1usize..=16,
            max_len in 1usize..=60,
            shape in 0usize..4,
            traffic in 0usize..2,
            blocked in 0usize..2,
        ) {
            let lens = shard_lens(seed, n, max_len, shape);
            assert_packed_matches_padded(&lens, traffic == 1, blocked == 1, 0, seed);
        }
    }

    /// The edge shapes, each for all four model variants: one row, equal
    /// lengths, length-1 routes (alone, first, last and among others), a
    /// batch with no transition at all, and rows ending in every order.
    /// Routes that avoid embedding block 0 leave it bound by the padded
    /// pass alone, through padding token 0.
    #[test]
    fn packed_route_pass_matches_padded_oracle_on_edge_shapes() {
        let shapes: [&[usize]; 9] = [
            &[60],
            &[2],
            &[7, 7, 7, 7, 7],
            &[1],
            &[1, 1, 1],
            &[1, 9, 4],
            &[9, 4, 1],
            &[3, 1, 5, 1, 2, 60, 1],
            &[2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17],
        ];
        for (i, lens) in shapes.iter().enumerate() {
            for (traffic, blocked) in [(true, false), (true, true), (false, false), (false, true)] {
                assert_packed_matches_padded(lens, traffic, blocked, 0, i as u64);
            }
        }
        for traffic in [true, false] {
            let padded_only = assert_packed_matches_padded(&[2, 9, 5], traffic, true, 4, 11);
            assert_eq!(padded_only, 1, "embedding block 0 should be padded-only");
        }
    }

    /// A DeepST shard records one GRU node per layer per step of its route
    /// pathway, and no gate slice, sigmoid or tanh: its one tanh node is
    /// the destination encoder's hidden activation.
    #[test]
    fn route_pathway_records_one_gru_node_per_layer_step() {
        for traffic in [true, false] {
            let model = oracle_model(traffic, 4096, 7);
            let mut rng = init::rng(8);
            let lens = [9, 3, 12, 1, 7];
            let mut batch = oracle_batch(&model, &lens, 0, &mut rng);
            for e in &mut batch {
                e.traffic = Arc::new(vec![0.5; 64]);
            }
            let refs: Vec<&Example> = batch.iter().collect();
            let tape = Tape::new();
            let binder = Binder::new(&tape);
            let (loss, stats) = model.batch_loss(&binder, &refs, &mut rng, true);
            assert!(loss.scalar_value().is_finite());
            let spec = tape.export_spec();
            let count = |name: &str| spec.nodes.iter().filter(|n| n.op.name == name).count();
            let steps = lens.iter().max().unwrap() - 1;
            assert_eq!(stats.transitions, lens.iter().map(|l| l - 1).sum::<usize>());
            assert_eq!(count("gru_step"), model.cfg.gru_layers * steps);
            assert_eq!(count("slice_cols"), 0);
            assert_eq!(count("sigmoid"), 0);
            assert_eq!(count("tanh"), 1);
        }
    }

    /// One long route among short ones: the padded pass holds every row's
    /// activations to the last step, the packed pass only the long one's.
    #[test]
    fn packed_route_pass_peaks_below_padded_on_one_long_route() {
        let model = oracle_model(true, 4096, 3);
        let mut rng = init::rng(4);
        let mut lens = vec![3usize; 15];
        lens.push(60);
        let batch = oracle_batch(&model, &lens, 0, &mut rng);
        let fx = init::randn(&[lens.len(), model.cfg.n_x], 1.0, &mut rng);
        let c = init::randn(&[lens.len(), model.cfg.c_dim], 1.0, &mut rng);
        let packed = route_pass(&model, &batch, &fx, Some(&c), Pathway::Packed).peak_bytes;
        let padded = route_pass(&model, &batch, &fx, Some(&c), Pathway::Padded).peak_bytes;
        assert!(
            packed < padded,
            "packed peak {packed} B is not below padded {padded} B"
        );
    }
}
