//! Training loops: the library trainer, fed a stream of minibatches in one
//! `Trainer::train_epoch_stream` call as `fit_stream` feeds it an epoch,
//! and a traced mirror of that call's minibatch body that times each layer
//! call. Both consume the same batches and RNG stream, so they must agree
//! bit for bit (checked on every train run).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use st_core::parallel::{run_shard_with_rng, run_shards};
use st_core::{DeepSt, Example, TrainConfig, Trainer};
use st_nn::Module;
use st_tensor::optim::{clip_grad_norm_grouped, Adam, Optimizer};
use st_tensor::Tape;

use crate::clock::Cycles;
use crate::spec::{BATCH, SHARD, THREADS, WORLD_SEED};
use crate::stats::Fnv;
use crate::tracer::Tracer;

/// Training configuration of every training run: fixed batch and shard,
/// [`THREADS`] shard workers, no early stopping.
pub fn train_config(batch: usize) -> TrainConfig {
    TrainConfig {
        epochs: 1,
        batch_size: batch,
        shard_size: SHARD,
        num_threads: THREADS,
        patience: None,
        ..TrainConfig::default()
    }
}

/// A source of minibatches that repeats the same `cycle()` minibatches in
/// the same order; `next` is the input layer (`sim.batch`).
pub trait Source {
    fn next(&mut self) -> Vec<Example>;
    fn cycle(&self) -> usize;
}

/// In-memory examples in minibatches of [`BATCH`], repeated epoch after
/// epoch. Which examples share a minibatch is fixed by [`WORLD_SEED`]: the
/// cost of a minibatch depends on how evenly its shards split over the
/// threads, so the grouping is part of the workload, and `order` draws only
/// the order the minibatches come in.
pub struct CitySource<'a> {
    examples: &'a [Example],
    batches: Vec<Vec<usize>>,
    pos: usize,
}

impl<'a> CitySource<'a> {
    pub fn new(examples: &'a [Example], mut order: StdRng) -> Self {
        let mut grouping: Vec<usize> = (0..examples.len()).collect();
        grouping.shuffle(&mut StdRng::seed_from_u64(WORLD_SEED));
        let mut batches: Vec<Vec<usize>> = grouping.chunks(BATCH).map(<[usize]>::to_vec).collect();
        batches.shuffle(&mut order);
        Self {
            examples,
            batches,
            pos: 0,
        }
    }

    /// Only the first `n` minibatches of the order, repeated.
    pub fn first(mut self, n: usize) -> Self {
        self.batches.truncate(n);
        self
    }
}

impl Source for CitySource<'_> {
    fn next(&mut self) -> Vec<Example> {
        let batch = &self.batches[self.pos % self.batches.len()];
        self.pos += 1;
        batch.iter().map(|&i| self.examples[i].clone()).collect()
    }

    fn cycle(&self) -> usize {
        self.batches.len()
    }
}

/// What a training loop saw.
pub struct Loop {
    pub examples: usize,
    pub secs: f64,
    /// Per minibatch: milliseconds for input plus training, the same in
    /// billions of cycles, and examples.
    pub batch_ms: Vec<f64>,
    pub batch_gcycles: Vec<f64>,
    /// The clock the loop's median probe reading shows.
    pub clock_ghz: f64,
    pub batch_examples: Vec<usize>,
    /// Mean loss per example, as `train_epoch_stream` returns it.
    pub mean_loss: f32,
    pub skipped: usize,
}

/// Train `trainer` on `batches` minibatches of `source` in one
/// `train_epoch_stream` call. Each minibatch is timed from when the
/// trainer pulls it from the stream to when it pulls the next, so input is
/// included. The trainer sets the `train.grad_norm` gauge for every
/// minibatch it steps; a minibatch after which the gauge still holds the
/// NaN the stream left in it was skipped.
pub fn stream_loop(
    trainer: &mut Trainer,
    source: &mut impl Source,
    rng: &mut StdRng,
    batches: usize,
) -> Loop {
    let stepped = st_obs::gauge("train.grad_norm");
    let mut marks: Vec<Instant> = Vec::new();
    let mut clock: Option<Cycles> = None;
    let mut batch_gcycles = Vec::new();
    let mut sizes: Vec<usize> = Vec::new();
    let mut skipped = 0;
    let stream = std::iter::from_fn(|| {
        marks.push(Instant::now());
        match &mut clock {
            None => clock = Some(Cycles::start()),
            Some(c) => batch_gcycles.push(c.lap().1),
        }
        if !sizes.is_empty() && stepped.get().is_nan() {
            skipped += 1;
        }
        if sizes.len() == batches {
            return None;
        }
        stepped.set(f64::NAN);
        let batch = source.next();
        sizes.push(batch.len());
        Some(batch)
    });
    let mean_loss = trainer.train_epoch_stream(stream, rng);
    let batch_ms = marks
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        .collect();
    Loop {
        examples: sizes.iter().sum(),
        secs: (marks[marks.len() - 1] - marks[0]).as_secs_f64(),
        batch_ms,
        batch_gcycles,
        clock_ghz: clock.map_or(f64::NAN, |c| c.median_ghz()),
        batch_examples: sizes,
        mean_loss,
        skipped,
    }
}

/// Bits of every parameter and buffer: equal fingerprints mean identical
/// models.
pub fn fingerprint(model: &DeepSt) -> u64 {
    let mut h = Fnv::default();
    for p in model.params() {
        for v in p.value().data() {
            h.word(u64::from(v.to_bits()));
        }
    }
    for (_, buf) in model.buffers() {
        for v in buf.data() {
            h.word(u64::from(v.to_bits()));
        }
    }
    h.finish()
}

/// `Trainer::train_epoch_stream`'s minibatch body, call for call, with
/// each layer timed: `run_shards`, the reduce (`accumulate_grad_scaled`
/// plus `apply_bn_stats`), `clip_grad_norm_grouped` and `Adam::step`.
pub struct MirrorFit {
    model: DeepSt,
    cfg: TrainConfig,
    opt: Adam,
    tape: Tape,
    peak_tape_bytes: usize,
    /// Loss summed and examples counted since the last loop began, in the
    /// trainer's order.
    loss_total: f64,
    loss_count: usize,
}

impl MirrorFit {
    pub fn new(model: DeepSt, cfg: TrainConfig) -> Self {
        Self {
            opt: Adam::new(cfg.lr),
            model,
            cfg,
            tape: Tape::new(),
            peak_tape_bytes: 0,
            loss_total: 0.0,
            loss_count: 0,
        }
    }

    pub fn model(&self) -> &DeepSt {
        &self.model
    }

    pub fn peak_tape_bytes(&self) -> usize {
        self.peak_tape_bytes
    }

    pub fn into_model(self) -> DeepSt {
        self.model
    }

    /// Train one minibatch; false when it was skipped.
    fn step(&mut self, batch: Vec<Example>, rng: &mut StdRng, tr: &mut Tracer) -> bool {
        if batch.is_empty() {
            return false;
        }
        let refs: Vec<&Example> = batch.iter().collect();
        let shard_size = self.cfg.shard_size.max(1);
        let num_shards = refs.len().div_ceil(shard_size);
        let t = tr.start("train.shards");
        let outputs = if num_shards == 1 {
            vec![run_shard_with_rng(&self.model, &self.tape, &refs, rng)]
        } else {
            let seeds: Vec<u64> = (0..num_shards).map(|_| rng.gen::<u64>()).collect();
            let (outputs, failures) = run_shards(
                &self.model,
                &refs,
                shard_size,
                self.cfg.num_threads,
                &seeds,
                &self.tape,
                None,
            );
            if failures.iter().any(|f| !f.recovered) {
                tr.stop(t);
                return false;
            }
            outputs
        };
        tr.stop(t);
        if outputs.iter().any(|o| !o.loss.is_finite()) {
            return false;
        }
        let n = refs.len() as f32;
        let t = tr.start("train.reduce");
        for out in &outputs {
            let w = out.count as f32 / n;
            for (p, g) in &out.grads {
                p.accumulate_grad_scaled(w, g);
            }
            if !out.bn_updates.is_empty() {
                self.model.apply_bn_stats(&out.bn_updates);
            }
            self.loss_total += out.loss as f64 * out.count as f64;
            self.peak_tape_bytes = self.peak_tape_bytes.max(out.peak_tape_bytes);
        }
        tr.stop(t);
        let t = tr.start("train.clip");
        clip_grad_norm_grouped(&self.model.param_groups(), self.cfg.grad_clip);
        tr.stop(t);
        let t = tr.start("train.adam");
        self.opt.step(&self.model.params());
        tr.stop(t);
        self.loss_count += refs.len();
        true
    }
}

/// Train `mirror` on `batches` minibatches of `source`, one timed
/// minibatch at a time; `tr` times the input layer and every training
/// layer.
pub fn mirror_loop(
    mirror: &mut MirrorFit,
    source: &mut impl Source,
    rng: &mut StdRng,
    batches: usize,
    tr: &mut Tracer,
) -> Loop {
    let mut l = Loop {
        examples: 0,
        secs: 0.0,
        batch_ms: Vec::new(),
        batch_gcycles: Vec::new(),
        clock_ghz: f64::NAN,
        batch_examples: Vec::new(),
        mean_loss: 0.0,
        skipped: 0,
    };
    mirror.loss_total = 0.0;
    mirror.loss_count = 0;
    let t0 = Instant::now();
    let mut clock = Cycles::start();
    while l.batch_ms.len() < batches {
        let _item = tr.item("bench/minibatch");
        clock.begin();
        let batch = tr.time("sim.batch", || source.next());
        let n = batch.len();
        if !mirror.step(batch, rng, tr) {
            l.skipped += 1;
        }
        let (secs, gcycles) = clock.end();
        l.batch_ms.push(secs * 1e3);
        l.batch_gcycles.push(gcycles);
        l.batch_examples.push(n);
        l.examples += n;
    }
    l.secs = t0.elapsed().as_secs_f64();
    l.clock_ghz = clock.median_ghz();
    l.mean_loss = (mirror.loss_total / mirror.loss_count.max(1) as f64) as f32;
    l
}
