//! End-to-end tests of the fault-tolerant training loop (DESIGN.md §8):
//! crash-safe checkpoint/resume, divergence rollback with LR backoff, and
//! worker-failure containment, each driven by the deterministic
//! [`st_core::faultinject`] harness.
//!
//! The load-bearing property throughout is **bit-identity**: a run that
//! crashes and resumes, or whose workers panic and are retried, must end
//! with exactly the same parameter bits as the run nothing happened to.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use st_core::faultinject::{flip_byte, interrupted_write, truncate_file};
use st_core::train::Trainer;
use st_core::{
    DeepSt, DeepStConfig, Example, FaultInjector, FaultPlan, TrainConfig, TrainError, TrainEvent,
    TrainHistory,
};
use st_nn::Module;
use st_roadnet::{grid_city, GridConfig, RoadNetwork};
use st_tensor::init;

/// A toy world: routes from a tiny grid with a fixed transition habit
/// (mirrors the unit-test helper in `st-core/src/train.rs`).
fn toy_examples(n: usize) -> (RoadNetwork, Vec<Example>) {
    let net = grid_city(&GridConfig::small_test(), 1);
    let tensor = Arc::new(vec![0.3f32; 64]);
    let mut out = Vec::new();
    let mut cur_seed = 0usize;
    while out.len() < n {
        cur_seed += 1;
        let start = cur_seed % net.num_segments();
        let mut route = vec![start];
        for step in 0..6 {
            let nexts = net.next_segments(*route.last().unwrap());
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
    (net, out)
}

fn toy_model(net: &RoadNetwork, seed: u64) -> DeepSt {
    let cfg = DeepStConfig::new(net.num_segments(), net.max_out_degree(), 8, 8);
    DeepSt::new(cfg, seed)
}

const BATCH: usize = 16;

fn base_config() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        batch_size: BATCH,
        lr: 5e-3,
        patience: None,
        num_threads: 1,
        shard_size: 16,
        ..TrainConfig::default()
    }
}

/// Every parameter and batch-norm buffer of the model as raw f32 bits, for
/// exact (not approximate) comparison.
fn state_bits(model: &DeepSt) -> Vec<(String, Vec<u32>)> {
    model
        .state()
        .into_iter()
        .chain(model.buffers())
        .map(|(name, arr)| (name, arr.data().iter().map(|v| v.to_bits()).collect()))
        .collect()
}

/// `fit` over the in-memory examples, or over the same minibatches as a
/// per-epoch stream that draws its shuffle from the run's RNG, the way a
/// disk-backed source would.
fn fit_from(
    trainer: &mut Trainer,
    examples: &[Example],
    streamed: bool,
    rng: &mut StdRng,
) -> Result<TrainHistory, TrainError> {
    if !streamed {
        return trainer.fit(examples, None, rng);
    }
    let stream = |_epoch: usize, rng: &mut StdRng| {
        let mut order: Vec<usize> = (0..examples.len()).collect();
        order.shuffle(rng);
        order
            .chunks(BATCH)
            .map(|chunk| chunk.iter().map(|&i| examples[i].clone()).collect())
            .collect::<Vec<Vec<Example>>>()
    };
    trainer.fit(stream, None, rng)
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("st_core_ft_{tag}_{}.ckpt", std::process::id()))
}

fn cleanup(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let mut tmp = path.clone().into_os_string();
    tmp.push(".tmp");
    let _ = std::fs::remove_file(PathBuf::from(tmp));
}

/// Tentpole acceptance: a run killed mid-epoch (injected `crash_at`) and
/// resumed from its last checkpoint finishes with parameters bit-identical
/// to a run that was never interrupted.
#[test]
fn resume_after_injected_crash_is_bit_identical() {
    let (net, examples) = toy_examples(40);
    let path = tmp_path("crash");
    cleanup(&path);

    // Reference: 3 epochs, no faults, no checkpointing.
    let mut reference = Trainer::new(toy_model(&net, 7), base_config());
    let mut rng = init::rng(11);
    reference
        .fit(&examples[..], None, &mut rng)
        .expect("reference run failed");

    // Victim: same seed, checkpoint every epoch, killed in epoch 1 batch 1.
    let cfg = TrainConfig {
        checkpoint_path: Some(path.clone()),
        checkpoint_every: 1,
        ..base_config()
    };
    let injector = Arc::new(FaultInjector::new(FaultPlan {
        crash_at: Some((1, 1)),
        ..FaultPlan::default()
    }));
    let mut victim = Trainer::new(toy_model(&net, 7), cfg.clone());
    victim.inject_faults(Arc::clone(&injector));
    let mut rng = init::rng(11);
    let err = victim
        .fit(&examples[..], None, &mut rng)
        .expect_err("injected crash did not surface");
    assert!(
        matches!(err, TrainError::Crashed { epoch: 1, batch: 1 }),
        "unexpected error: {err}"
    );
    assert_eq!(injector.fired().len(), 1);
    assert!(path.exists(), "no checkpoint survived the crash");

    // Survivor: fresh process — different init seed, different RNG seed;
    // everything that matters comes from the checkpoint.
    let cfg = TrainConfig {
        resume_from: Some(path.clone()),
        ..cfg
    };
    let mut survivor = Trainer::new(toy_model(&net, 999), cfg);
    let mut rng = init::rng(999);
    let hist = survivor
        .fit(&examples[..], None, &mut rng)
        .expect("resumed run failed");
    assert_eq!(hist.resumed_from, Some(1));
    assert!(matches!(
        hist.events.first(),
        Some(TrainEvent::Resumed { epoch: 1, .. })
    ));

    assert_eq!(
        state_bits(&reference.model),
        state_bits(&survivor.model),
        "crash + resume drifted from the uninterrupted run"
    );
    cleanup(&path);
}

/// An injected NaN loss trips the divergence detector; the trainer rolls
/// back to the last good state, halves the learning rate, and the retried
/// epoch (fault is fire-once) converges to a finite loss — from memory and
/// from a stream alike.
#[test]
fn nan_divergence_rolls_back_and_recovers() {
    for streamed in [false, true] {
        nan_divergence_rolls_back_and_recovers_from(streamed);
    }
}

fn nan_divergence_rolls_back_and_recovers_from(streamed: bool) {
    let (net, examples) = toy_examples(40);
    let injector = Arc::new(FaultInjector::new(FaultPlan {
        nan_loss_at: vec![(1, 0)],
        ..FaultPlan::default()
    }));
    let mut trainer = Trainer::new(toy_model(&net, 3), base_config());
    trainer.inject_faults(Arc::clone(&injector));
    let mut rng = init::rng(5);
    let hist = fit_from(&mut trainer, &examples, streamed, &mut rng)
        .expect("rollback should recover, not abort");

    let diverged = hist.events.iter().any(|e| {
        matches!(
            e,
            TrainEvent::Divergence {
                epoch: 1,
                batch: 0,
                ..
            }
        )
    });
    assert!(diverged, "no divergence event recorded: {:?}", hist.events);
    let rolled = hist.events.iter().find_map(|e| match e {
        TrainEvent::RolledBack {
            rollbacks, new_lr, ..
        } => Some((*rollbacks, *new_lr)),
        _ => None,
    });
    let (rollbacks, new_lr) = rolled.expect("no rollback event recorded");
    assert_eq!(rollbacks, 1);
    assert!(
        (new_lr - 5e-3 * 0.5).abs() < 1e-9,
        "LR not halved: {new_lr}"
    );
    assert_eq!(hist.epochs.len(), 3, "retried epoch missing from history");
    assert!(hist.epochs.iter().all(|e| e.train_loss.is_finite()));
    assert!(injector.fired().len() == 1 && injector.pending() == 0);
}

/// Divergence on every retry (fresh fault per attempt) exhausts
/// `max_rollbacks` and aborts with a structured error instead of looping.
#[test]
fn rollback_limit_aborts_with_error() {
    let (net, examples) = toy_examples(40);
    // 40 examples / batch 16 → 3 batches; one fresh NaN per attempt.
    let injector = Arc::new(FaultInjector::new(FaultPlan {
        nan_loss_at: vec![(0, 0), (0, 1), (0, 2)],
        ..FaultPlan::default()
    }));
    let cfg = TrainConfig {
        max_rollbacks: 2,
        ..base_config()
    };
    let mut trainer = Trainer::new(toy_model(&net, 3), cfg);
    trainer.inject_faults(injector);
    let mut rng = init::rng(5);
    let err = trainer
        .fit(&examples[..], None, &mut rng)
        .expect_err("persistent divergence should abort");
    assert!(
        matches!(
            err,
            TrainError::RollbackLimit {
                epoch: 0,
                rollbacks: 3
            }
        ),
        "unexpected error: {err}"
    );
}

/// A panicking shard worker is contained, retried serially with its own
/// seed, and the run ends bit-identical to one with no fault at all.
#[test]
fn worker_panic_is_contained_and_bit_identical() {
    let (net, examples) = toy_examples(40);
    let cfg = TrainConfig {
        num_threads: 2,
        shard_size: 8, // two shards per 16-example batch
        ..base_config()
    };

    let mut reference = Trainer::new(toy_model(&net, 9), cfg.clone());
    let mut rng = init::rng(13);
    reference
        .fit(&examples[..], None, &mut rng)
        .expect("reference run failed");

    let injector = Arc::new(FaultInjector::new(FaultPlan {
        panic_at: vec![(0, 0, 1), (2, 1, 0)],
        ..FaultPlan::default()
    }));
    let mut faulty = Trainer::new(toy_model(&net, 9), cfg);
    faulty.inject_faults(injector);
    let mut rng = init::rng(13);
    let hist = faulty
        .fit(&examples[..], None, &mut rng)
        .expect("contained panics should not abort the run");

    let recoveries: Vec<_> = hist
        .events
        .iter()
        .filter_map(|e| match e {
            TrainEvent::ShardFailure {
                epoch,
                batch,
                shard,
                recovered,
                ..
            } => Some((*epoch, *batch, *shard, *recovered)),
            _ => None,
        })
        .collect();
    assert_eq!(
        recoveries,
        vec![(0, 0, 1, true), (2, 1, 0, true)],
        "shard failures not recorded as recovered"
    );
    assert_eq!(
        state_bits(&reference.model),
        state_bits(&faulty.model),
        "serial shard retry drifted from the failure-free run"
    );
}

/// Resuming from a mangled checkpoint is a structured error — never a
/// panic, and never a silent fresh start.
#[test]
fn corrupt_checkpoint_is_an_error_not_a_panic() {
    let (net, examples) = toy_examples(24);
    let path = tmp_path("corrupt");
    cleanup(&path);
    let cfg = TrainConfig {
        epochs: 1,
        checkpoint_path: Some(path.clone()),
        ..base_config()
    };
    let mut trainer = Trainer::new(toy_model(&net, 1), cfg.clone());
    let mut rng = init::rng(2);
    trainer
        .fit(&examples[..], None, &mut rng)
        .expect("seed run failed");
    let len = std::fs::metadata(&path).expect("stat checkpoint").len();

    let resume_cfg = TrainConfig {
        resume_from: Some(path.clone()),
        ..cfg.clone()
    };
    for mangle in ["truncate", "flip"] {
        match mangle {
            "truncate" => truncate_file(&path, len / 2).expect("truncate"),
            _ => flip_byte(&path, (len / 2) as usize, 0x40).expect("flip"),
        }
        let mut resumed = Trainer::new(toy_model(&net, 1), resume_cfg.clone());
        let mut rng = init::rng(2);
        let err = resumed
            .fit(&examples[..], None, &mut rng)
            .expect_err("corrupt checkpoint accepted");
        assert!(
            matches!(err, TrainError::Checkpoint(_)),
            "{mangle}: unexpected error: {err}"
        );
        // Re-write a good checkpoint for the next mangling round.
        let mut fresh = Trainer::new(toy_model(&net, 1), cfg.clone());
        let mut rng = init::rng(2);
        fresh
            .fit(&examples[..], None, &mut rng)
            .expect("re-seed run failed");
    }
    cleanup(&path);
}

/// A write interrupted before the atomic rename leaves only a stray
/// `.tmp` file; resume treats the missing real file as a fresh start.
#[test]
fn stray_tmp_from_interrupted_write_starts_fresh() {
    let (net, examples) = toy_examples(24);
    let path = tmp_path("interrupted");
    cleanup(&path);
    interrupted_write(&path, b"half a checkpoint that never landed", 10).expect("interrupted");
    assert!(!path.exists(), "interrupted write must not create the file");

    let cfg = TrainConfig {
        epochs: 1,
        resume_from: Some(path.clone()),
        ..base_config()
    };
    let mut trainer = Trainer::new(toy_model(&net, 4), cfg);
    let mut rng = init::rng(6);
    let hist = trainer
        .fit(&examples[..], None, &mut rng)
        .expect("fresh start after interrupted write failed");
    assert_eq!(hist.resumed_from, None);
    cleanup(&path);
}

/// train(N) ≡ train(k) + save + load + train(N−k), bit for bit, for random
/// split points, for both serial and multi-threaded configurations, and
/// from memory and from a stream.
fn resume_split_matches(k: usize, num_threads: usize, shard_size: usize, streamed: bool) {
    const N: usize = 3;
    let (net, examples) = toy_examples(32);
    let path = tmp_path(&format!("split_{k}_{num_threads}_{shard_size}_{streamed}"));
    cleanup(&path);
    let cfg = TrainConfig {
        epochs: N,
        num_threads,
        shard_size,
        ..base_config()
    };

    let mut full = Trainer::new(toy_model(&net, 21), cfg.clone());
    let mut rng = init::rng(17);
    fit_from(&mut full, &examples, streamed, &mut rng).expect("full run failed");

    let mut first = Trainer::new(
        toy_model(&net, 21),
        TrainConfig {
            epochs: k,
            checkpoint_path: Some(path.clone()),
            ..cfg.clone()
        },
    );
    let mut rng = init::rng(17);
    fit_from(&mut first, &examples, streamed, &mut rng).expect("first half failed");

    let mut second = Trainer::new(
        toy_model(&net, 777),
        TrainConfig {
            resume_from: Some(path.clone()),
            ..cfg
        },
    );
    let mut rng = init::rng(777);
    let hist = fit_from(&mut second, &examples, streamed, &mut rng).expect("second half failed");
    assert_eq!(hist.resumed_from, Some(k));
    assert_eq!(hist.epochs.len(), N - k);

    assert_eq!(
        state_bits(&full.model),
        state_bits(&second.model),
        "split at k={k} (threads={num_threads}, shard={shard_size}) drifted"
    );
    cleanup(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn train_n_equals_train_k_save_load_train_rest(
        k in 1usize..3,
        threaded in 0usize..2,
    ) {
        let (num_threads, shard_size) = if threaded == 1 { (3, 8) } else { (1, 16) };
        for streamed in [false, true] {
            resume_split_matches(k, num_threads, shard_size, streamed);
        }
    }
}
