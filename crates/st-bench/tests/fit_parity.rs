//! Parity oracles for the training loop on Rivertown.
//!
//! - Pinned bits: `Trainer::fit` over in-memory examples must reproduce the
//!   per-epoch train and validation loss bits and the parameter-and-buffer
//!   fingerprint below, serially (one shard per minibatch) and with two
//!   shard threads. A change that moves any of them changed what training
//!   computes.
//! - Source parity: `fit` over `&[Example]` equals `fit` over a per-epoch
//!   stream that replays the same shuffled minibatches.
//! - Baseline bits: `Trainer::<RnnBaseline>::fit` must reproduce the
//!   per-epoch loss bits and parameter fingerprint of CSSRNN and the
//!   vanilla RNN below, which the baselines' own loop recorded before they
//!   trained through `Trainer`. The same loop must give the RNNs the same
//!   bits on one and two shard threads, resume bit-identically from a
//!   checkpoint, and roll back a NaN minibatch.

use std::path::PathBuf;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use st_baselines::{RnnBaseline, RnnConfig};
use st_bench::{make_dataset, City, Scale};
use st_core::{
    BatchSource, DeepSt, Example, FaultInjector, FaultPlan, TrainConfig, TrainEvent, Trainer,
};
use st_eval::{build_examples, deepst_config};
use st_nn::Module;
use st_sim::Dataset;

const BATCH: usize = 32;

/// Per epoch: (train loss bits, validation loss bits).
type LossBits = Vec<(u32, u32)>;

/// Serial, shard equal to batch: pinned loss bits and fingerprint.
const SERIAL: ([(u32, u32); 2], u64) = (
    [(0x4216_636e, 0x41b2_8e43), (0x4215_bbbc, 0x41aa_daa9)],
    0x785f_a0f4_ef4b_c082,
);
/// Two threads, shard 16: pinned loss bits and fingerprint.
const THREADED: ([(u32, u32); 2], u64) = (
    [(0x421d_03c8, 0x41b3_1734), (0x420c_3dd4, 0x41ac_2370)],
    0xa11d_918c_e51b_bce7,
);
/// Two epochs at batch = shard = [`RNN_BATCH`], one thread, lr 3e-3 and
/// clip 5.0: pinned per-epoch loss bits and fingerprint of CSSRNN, then
/// of the vanilla RNN.
const CSSRNN: ([u32; 2], u64) = ([0x3fb1_6ae4, 0x3faa_652c], 0xd0e3_6fde_020d_cf06);
const VANILLA: ([u32; 2], u64) = ([0x3fb0_2d77, 0x3faa_97c5], 0x588a_2621_90e6_b7b6);
const RNN_BATCH: usize = 64;

struct World {
    ds: Dataset,
    train: Vec<Example>,
    val: Vec<Example>,
}

fn world() -> World {
    let mut scale = Scale::quick();
    scale.trips = 260;
    let ds = make_dataset(City::Rivertown, &scale);
    let split = ds.default_split();
    let train = build_examples(&ds, &split.train[..split.train.len().min(160)]);
    let val = build_examples(&ds, &split.val[..split.val.len().min(40)]);
    World { ds, train, val }
}

/// FNV-1a over the bits of every parameter and batch-norm buffer.
fn fingerprint(model: &impl Module) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (_, arr) in model.state().into_iter().chain(model.buffers()) {
        for v in arr.data() {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Two epochs of `fit` from a fixed model and RNG seed.
fn fit(w: &World, threads: usize, shard: usize, source: impl BatchSource) -> (LossBits, u64) {
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: BATCH,
        shard_size: shard,
        num_threads: threads,
        patience: None,
        ..TrainConfig::default()
    };
    let mut trainer = Trainer::new(DeepSt::new(deepst_config(&w.ds, 8), 7), cfg);
    let mut rng = StdRng::seed_from_u64(33);
    let history = trainer
        .fit(source, Some(&w.val), &mut rng)
        .expect("clean run");
    assert!(
        history.events.is_empty(),
        "clean run recorded {:?}",
        history.events
    );
    let losses = history
        .epochs
        .iter()
        .map(|e| {
            let val = e.val_loss.expect("validation set supplied");
            (e.train_loss.to_bits(), val.to_bits())
        })
        .collect();
    (losses, fingerprint(&trainer.model))
}

/// The in-memory source's minibatches, replayed as an owned stream: the
/// same shuffle draw from the run's RNG, then the same chunks.
fn replay(train: &[Example]) -> impl FnMut(usize, &mut StdRng) -> Vec<Vec<Example>> + '_ {
    move |_epoch, rng| {
        let mut order: Vec<usize> = (0..train.len()).collect();
        order.shuffle(rng);
        order
            .chunks(BATCH)
            .map(|chunk| chunk.iter().map(|&i| train[i].clone()).collect())
            .collect()
    }
}

#[test]
fn fit_reproduces_pinned_bits_from_memory_and_from_a_stream() {
    let w = world();
    for ((threads, shard), (losses, print)) in [((1, BATCH), SERIAL), ((2, 16), THREADED)] {
        let memory = fit(&w, threads, shard, &w.train[..]);
        assert_eq!(
            memory,
            (losses.to_vec(), print),
            "threads={threads} shard={shard}: in-memory fit moved off the pinned bits"
        );
        let streamed = fit(&w, threads, shard, replay(&w.train));
        assert_eq!(
            streamed, memory,
            "threads={threads} shard={shard}: streamed fit differs from in-memory fit"
        );
    }
}

/// The baselines' training configuration for `epochs` epochs with shards
/// of `shard` on `threads` threads.
fn rnn_config(epochs: usize, shard: usize, threads: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: RNN_BATCH,
        shard_size: shard,
        num_threads: threads,
        lr: 3e-3,
        grad_clip: 5.0,
        patience: None,
        ..TrainConfig::default()
    }
}

/// The baselines by name, with their pins.
const BASELINES: [(&str, ([u32; 2], u64)); 2] = [("CSSRNN", CSSRNN), ("RNN", VANILLA)];

/// What an RNN `fit` run gives: per-epoch train loss bits, the
/// fingerprint, and the events.
struct RnnRun {
    losses: Vec<u32>,
    print: u64,
    events: Vec<TrainEvent>,
}

/// `fit` of baseline `name` from model seed 7 under `cfg`, with `faults`
/// armed, on the training examples from RNG seed 33 and without
/// validation.
fn fit_rnn(w: &World, name: &str, cfg: TrainConfig, faults: Option<FaultPlan>) -> RnnRun {
    let rnn = RnnConfig::new(w.ds.net.num_segments(), w.ds.net.max_out_degree());
    let model = match name {
        "CSSRNN" => RnnBaseline::cssrnn(rnn, 7),
        _ => RnnBaseline::vanilla(rnn, 7),
    };
    let mut trainer = Trainer::new(model, cfg);
    if let Some(plan) = faults {
        trainer.inject_faults(Arc::new(FaultInjector::new(plan)));
    }
    let mut rng = StdRng::seed_from_u64(33);
    let history = trainer
        .fit(&w.train[..], None, &mut rng)
        .unwrap_or_else(|e| panic!("{name}: run did not complete: {e}"));
    RnnRun {
        losses: history
            .epochs
            .iter()
            .map(|e| e.train_loss.to_bits())
            .collect(),
        print: fingerprint(&trainer.model),
        events: history.events,
    }
}

#[test]
fn rnn_baselines_fit_reproduces_pinned_bits() {
    let w = world();
    for (name, (losses, print)) in BASELINES {
        let run = fit_rnn(&w, name, rnn_config(2, RNN_BATCH, 1), None);
        assert!(
            run.events.is_empty(),
            "{name}: clean run recorded {:?}",
            run.events
        );
        assert_eq!(
            (run.losses, run.print),
            (losses.to_vec(), print),
            "{name}: Trainer::fit moved off the pinned bits"
        );
    }
}

#[test]
fn rnn_baselines_train_the_same_on_one_and_two_threads() {
    let w = world();
    for (name, _) in BASELINES {
        let serial = fit_rnn(&w, name, rnn_config(2, 16, 1), None);
        let threaded = fit_rnn(&w, name, rnn_config(2, 16, 2), None);
        assert!(
            serial.events.is_empty() && threaded.events.is_empty(),
            "{name}: clean runs recorded {:?} and {:?}",
            serial.events,
            threaded.events
        );
        assert_eq!(
            (threaded.losses, threaded.print),
            (serial.losses, serial.print),
            "{name}: shard 16 on two threads differs from one thread"
        );
    }
}

#[test]
fn rnn_baselines_resume_bit_identically() {
    let w = world();
    for (name, _) in BASELINES {
        let path: PathBuf =
            std::env::temp_dir().join(format!("fit_parity_{name}_{}.ckpt", std::process::id()));
        let straight = fit_rnn(&w, name, rnn_config(2, RNN_BATCH, 1), None);
        let save = TrainConfig {
            checkpoint_path: Some(path.clone()),
            ..rnn_config(1, RNN_BATCH, 1)
        };
        let first = fit_rnn(&w, name, save, None);
        let resume = TrainConfig {
            resume_from: Some(path.clone()),
            ..rnn_config(2, RNN_BATCH, 1)
        };
        let resumed = fit_rnn(&w, name, resume, None);
        let _ = std::fs::remove_file(&path);
        assert!(
            matches!(resumed.events[..], [TrainEvent::Resumed { epoch: 1, .. }]),
            "{name}: resumed run recorded {:?}",
            resumed.events
        );
        assert_eq!(
            ([first.losses, resumed.losses].concat(), resumed.print),
            (straight.losses, straight.print),
            "{name}: 1 epoch + checkpoint + resume differs from 2 straight epochs"
        );
    }
}

#[test]
fn rnn_nan_minibatch_rolls_back_and_the_run_completes() {
    let w = world();
    for (name, _) in BASELINES {
        let plan = FaultPlan {
            nan_loss_at: vec![(0, 1)],
            ..FaultPlan::default()
        };
        let run = fit_rnn(&w, name, rnn_config(2, RNN_BATCH, 1), Some(plan));
        let count = |hit: fn(&TrainEvent) -> bool| run.events.iter().filter(|e| hit(e)).count();
        let diverged = count(|e| {
            matches!(
                e,
                TrainEvent::Divergence {
                    epoch: 0,
                    batch: 1,
                    ..
                }
            )
        });
        let rolled = count(|e| {
            matches!(
                e,
                TrainEvent::RolledBack {
                    epoch: 0,
                    rollbacks: 1,
                    ..
                }
            )
        });
        assert_eq!(
            (diverged, rolled, run.events.len()),
            (1, 1, 2),
            "{name}: expected one divergence and one rollback, got {:?}",
            run.events
        );
        assert_eq!(run.losses.len(), 2, "{name}: epochs missing from history");
        assert!(
            run.losses.iter().all(|&l| f32::from_bits(l).is_finite()),
            "{name}: non-finite epoch loss after the rollback"
        );
    }
}
