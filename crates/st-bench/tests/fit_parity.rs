//! Parity oracles for the training loop on Rivertown.
//!
//! - Pinned bits: `Trainer::fit` over in-memory examples must reproduce the
//!   per-epoch train and validation loss bits and the parameter-and-buffer
//!   fingerprint below, serially (one shard per minibatch) and with two
//!   shard threads. A change that moves any of them changed what training
//!   computes.
//! - Source parity: `fit` over `&[Example]` equals `fit` over a per-epoch
//!   stream that replays the same shuffled minibatches.
//! - Baseline bits: `RnnBaseline::fit` must reproduce the per-epoch loss
//!   bits and parameter fingerprint of CSSRNN and the vanilla RNN below.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use st_baselines::{RnnBaseline, RnnConfig};
use st_bench::{make_dataset, City, Scale};
use st_core::{BatchSource, DeepSt, Example, TrainConfig, Trainer};
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
/// `RnnBaseline::fit`, default config for two epochs: pinned per-epoch
/// loss bits and fingerprint of CSSRNN, then of the vanilla RNN.
const CSSRNN: ([u32; 2], u64) = ([0x3fb1_6ae4, 0x3faa_652c], 0xd0e3_6fde_020d_cf06);
const VANILLA: ([u32; 2], u64) = ([0x3fb0_2d77, 0x3faa_97c5], 0x588a_2621_90e6_b7b6);

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

#[test]
fn rnn_baselines_fit_reproduces_pinned_bits() {
    let w = world();
    let cfg = RnnConfig {
        epochs: 2,
        ..RnnConfig::new(w.ds.net.num_segments(), w.ds.net.max_out_degree())
    };
    for (name, mut model, (losses, print)) in [
        ("CSSRNN", RnnBaseline::cssrnn(cfg.clone(), 7), CSSRNN),
        ("RNN", RnnBaseline::vanilla(cfg, 7), VANILLA),
    ] {
        let mut rng = StdRng::seed_from_u64(33);
        let history: Vec<u32> = model
            .fit(&w.train, &mut rng)
            .iter()
            .map(|l| l.to_bits())
            .collect();
        assert_eq!(
            (history, fingerprint(&model)),
            (losses.to_vec(), print),
            "{name}: RnnBaseline::fit moved off the pinned bits"
        );
    }
}
