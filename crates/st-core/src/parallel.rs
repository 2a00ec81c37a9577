//! Deterministic data-parallel gradient computation.
//!
//! A minibatch is split into fixed-size *shards*; each shard's forward and
//! backward pass is independent given the current parameters, so shards can
//! run on worker threads. The design keeps three invariants:
//!
//! 1. **The tape stays single-threaded.** [`st_tensor::Tape`] is `!Send`;
//!    every worker owns its own tape (reused across shards via
//!    [`st_tensor::Tape::reset`]) and only shares the model immutably.
//!    [`st_tensor::Param`] values sit behind `RwLock`s, so `&DeepSt` is
//!    `Sync`: workers take read locks to copy parameter values onto their
//!    tapes, and only the calling thread ever takes write locks.
//! 2. **Workers never mutate the model.** Gradients are returned as *owned*
//!    per-shard arrays ([`st_tensor::Binder::collect_grads`]) and batch-norm
//!    running-statistic updates are *recorded* ([`st_nn::BnBatchStats`])
//!    rather than applied.
//! 3. **The result is independent of the thread count.** The shard
//!    partition depends only on `shard_size`, each shard gets its own seeded
//!    RNG (seeds drawn in shard order by the caller), and the caller reduces
//!    shard results in shard order. Whether 1 or N threads ran the shards,
//!    every floating-point operation happens with the same operands in the
//!    same order — `num_threads = 4` is bit-identical to `num_threads = 1`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use st_nn::BnBatchStats;
use st_tensor::{Array, Binder, Param, Tape};

use crate::data::Example;
use crate::faultinject::FaultInjector;
use crate::model::DeepSt;
use crate::train::ElboStats;

/// Everything a shard's forward/backward pass produces, ready for the
/// caller to reduce in shard order.
pub struct ShardOutput<'p> {
    /// Loss value (−ELBO / shard size) of the shard.
    pub loss: f32,
    /// Number of examples in the shard.
    pub count: usize,
    /// ELBO term breakdown.
    pub stats: ElboStats,
    /// Owned gradients, one entry per distinct parameter in binding order.
    pub grads: Vec<(&'p Param, Array)>,
    /// Deferred batch-norm statistic updates, in layer order.
    pub bn_updates: BnBatchStats,
    /// High-water mark of this shard's tape arena, in bytes.
    pub peak_tape_bytes: usize,
}

/// Run one shard on `tape` (resetting it first), drawing noise from `rng`,
/// and collect its output.
///
/// Exposed so the trainer can run a single-shard minibatch inline against
/// the epoch's main RNG — that path consumes the RNG stream exactly like
/// the classic serial trainer, keeping existing seeded runs reproducible.
pub fn run_shard_with_rng<'p>(
    model: &'p DeepSt,
    tape: &Tape,
    shard: &[&Example],
    rng: &mut StdRng,
) -> ShardOutput<'p> {
    // Opened on whichever thread runs the shard, so worker-pool shards
    // trace as that worker's spans rather than the coordinator's.
    let _sp = st_obs::span("train/shard");
    tape.reset();
    let binder = Binder::new(tape);
    let mut bn_updates = BnBatchStats::new();
    let (loss, stats) = model.batch_loss_collect(&binder, shard, rng, true, Some(&mut bn_updates));
    let loss_val = loss.scalar_value();
    let grads = if loss_val.is_finite() {
        let g = tape.backward(loss);
        binder.collect_grads(&g)
    } else {
        // The caller drops the whole minibatch; no point doing the backward.
        Vec::new()
    };
    ShardOutput {
        loss: loss_val,
        count: shard.len(),
        stats,
        grads,
        bn_updates,
        peak_tape_bytes: tape.peak_bytes(),
    }
}

/// Fault-injection context for one minibatch's shards (testing only): lets
/// the injector address individual shards by `(epoch, batch, shard)`.
#[derive(Clone, Copy)]
pub struct ShardFaultCtx<'a> {
    /// The armed injector.
    pub injector: &'a FaultInjector,
    /// Epoch coordinate of this minibatch.
    pub epoch: usize,
    /// Batch coordinate within the epoch.
    pub batch: usize,
}

/// A shard whose worker panicked, surfaced instead of aborting the epoch.
#[derive(Debug, Clone)]
pub struct ShardFailure {
    /// Shard index within the minibatch.
    pub shard: usize,
    /// Panic payload (or a placeholder for non-string payloads).
    pub message: String,
    /// Whether the serial retry on the calling thread succeeded. When true
    /// the shard's output is present and bit-identical to a failure-free
    /// run (the retry reuses the shard's own seed).
    pub recovered: bool,
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with non-string payload".to_string()
    }
}

/// Run shard `index` against `rng` with panic containment. Safe to unwind
/// through: the worker only ever takes `RwLock` *read* guards on model
/// parameters (read guards do not poison) and all tape/binder state is
/// local to the call.
fn run_shard_contained<'p>(
    model: &'p DeepSt,
    tape: &Tape,
    shard: &[&Example],
    rng: &mut StdRng,
    index: usize,
    faults: Option<ShardFaultCtx<'_>>,
) -> Result<ShardOutput<'p>, String> {
    catch_unwind(AssertUnwindSafe(|| {
        if let Some(f) = faults {
            if f.injector.take_panic(f.epoch, f.batch, index) {
                // st-lint: allow(panic-in-lib) — deliberate injected fault
                panic!(
                    "injected worker panic (epoch {}, batch {}, shard {index})",
                    f.epoch, f.batch
                );
            }
        }
        run_shard_with_rng(model, tape, shard, rng)
    }))
    .map_err(panic_message)
}

/// Retry shard `index`, whose first attempt panicked with `message`,
/// serially on the calling thread with no injection (a fired fault is
/// consumed; a deterministic real panic will simply fail again and be
/// reported). A recovered output joins `outputs`; the failure is recorded
/// either way.
fn retry_shard<'p>(
    index: usize,
    message: String,
    retry: impl FnOnce() -> Result<ShardOutput<'p>, String>,
    outputs: &mut Vec<ShardOutput<'p>>,
    failures: &mut Vec<ShardFailure>,
) {
    let failure = match retry() {
        Ok(out) => {
            outputs.push(out);
            ShardFailure {
                shard: index,
                message,
                recovered: true,
            }
        }
        Err(retry_message) => ShardFailure {
            shard: index,
            message: format!("{message}; serial retry failed: {retry_message}"),
            recovered: false,
        },
    };
    failures.push(failure);
}

/// Compute one minibatch's gradients: the shard step of the trainer.
///
/// A minibatch that fits in one shard (the default) runs inline and draws
/// its noise straight from `rng`, exactly like the classic serial trainer,
/// so existing seeded runs stay reproducible. A panic there leaves `rng`
/// partially consumed, so the retry restarts from a snapshot of it and a
/// recovered run stays bit-identical with an unfailed one. A larger
/// minibatch draws one seed per shard from `rng`, in shard order, and goes
/// through [`run_shards`].
pub(crate) fn run_minibatch<'p>(
    model: &'p DeepSt,
    batch: &[&Example],
    shard_size: usize,
    num_threads: usize,
    rng: &mut StdRng,
    tape: &Tape,
    faults: Option<ShardFaultCtx<'_>>,
) -> (Vec<ShardOutput<'p>>, Vec<ShardFailure>) {
    if batch.len() > shard_size {
        let seeds: Vec<u64> = (0..batch.len().div_ceil(shard_size))
            .map(|_| rng.gen::<u64>())
            .collect();
        return run_shards(model, batch, shard_size, num_threads, &seeds, tape, faults);
    }
    let snapshot = rng.clone();
    match run_shard_contained(model, tape, batch, rng, 0, faults) {
        Ok(out) => (vec![out], Vec::new()),
        Err(message) => {
            let (mut outputs, mut failures) = (Vec::new(), Vec::new());
            *rng = snapshot;
            let retry = || run_shard_contained(model, tape, batch, rng, 0, None);
            retry_shard(0, message, retry, &mut outputs, &mut failures);
            (outputs, failures)
        }
    }
}

/// Compute gradients for `batch`, split into shards of `shard_size`, using
/// up to `num_threads` worker threads.
///
/// `seeds` must hold one RNG seed per shard (i.e. `batch.len().div_ceil(shard_size)`
/// entries), drawn by the caller in shard order. Outputs are returned in
/// shard order regardless of which worker ran which shard.
///
/// `num_threads` is a cap, not a demand: the effective worker count is also
/// bounded by the shard count and by [`std::thread::available_parallelism`]
/// (oversubscribing physical cores only adds context-switch and cache
/// pressure). When a single worker would remain, the shards run inline on
/// the calling thread against `inline_tape` — reusing its arena across
/// minibatches instead of growing a fresh one each call. Worker count never
/// affects results, only which thread happens to run which shard.
///
/// **Failure containment**: a worker panic is caught rather than aborting
/// the process; the failed shard is retried serially on the calling thread
/// with its original seed (so a successful retry is bit-identical to a
/// failure-free run) and reported in the returned [`ShardFailure`] list.
/// A shard that fails its retry too is absent from the output list — its
/// failure entry has `recovered == false` and the caller decides whether
/// the minibatch is salvageable.
pub fn run_shards<'p>(
    model: &'p DeepSt,
    batch: &[&Example],
    shard_size: usize,
    num_threads: usize,
    seeds: &[u64],
    inline_tape: &Tape,
    faults: Option<ShardFaultCtx<'_>>,
) -> (Vec<ShardOutput<'p>>, Vec<ShardFailure>) {
    assert!(shard_size > 0, "shard_size must be positive");
    let shards: Vec<&[&Example]> = batch.chunks(shard_size).collect();
    assert_eq!(
        seeds.len(),
        shards.len(),
        "need one seed per shard ({} shards, {} seeds)",
        shards.len(),
        seeds.len()
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = num_threads.min(shards.len()).min(cores);
    let seeded = |i: usize, faults: Option<ShardFaultCtx<'_>>| {
        let mut rng = StdRng::seed_from_u64(seeds[i]);
        run_shard_contained(model, inline_tape, shards[i], &mut rng, i, faults)
    };
    let slots: Vec<Result<ShardOutput<'p>, String>> = if workers <= 1 {
        (0..shards.len()).map(|i| seeded(i, faults)).collect()
    } else {
        run_shards_on(model, &shards, seeds, workers, faults)
    };

    let mut outputs = Vec::with_capacity(shards.len());
    let mut failures = Vec::new();
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Ok(out) => outputs.push(out),
            // Same seed, so a recovered shard is bit-identical.
            Err(message) => {
                retry_shard(i, message, || seeded(i, None), &mut outputs, &mut failures)
            }
        }
    }
    (outputs, failures)
}

/// Run `shards` on exactly `workers` threads (no core cap). Factored out so
/// the determinism test can force real worker threads even on single-core
/// hosts, where [`run_shards`] would fall back to the inline path. Worker
/// panics are contained per shard and returned as `Err` slots.
pub(crate) fn run_shards_on<'p>(
    model: &'p DeepSt,
    shards: &[&[&Example]],
    seeds: &[u64],
    workers: usize,
    faults: Option<ShardFaultCtx<'_>>,
) -> Vec<Result<ShardOutput<'p>, String>> {
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<Result<ShardOutput<'p>, String>>>> =
        shards.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // One tape per worker, reused across the shards it claims.
                // A contained panic mid-shard may leave partial state in the
                // arena; reset happens at the start of every shard run.
                let tape = Tape::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= shards.len() {
                        break;
                    }
                    let mut rng = StdRng::seed_from_u64(seeds[i]);
                    let out = run_shard_contained(model, &tape, shards[i], &mut rng, i, faults);
                    *results[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
                }
            });
        }
    });
    results
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .unwrap_or_else(|| Err(format!("worker died before finishing shard {i}")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `&DeepSt` must be shareable across worker threads.
    #[test]
    fn model_ref_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<DeepSt>();
        assert_sync::<Example>();
    }
}
