//! Sharded-vs-dense DeepST parity oracles on Rivertown.
//!
//! The blocked embedding layout (DESIGN.md §16) promises to be
//! *unobservable* except through memory accounting. These oracles pin that
//! promise end-to-end on the real model and trainer, not just the isolated
//! layer: a DeepST whose segment table is split into many small row blocks
//! must match the single-block (dense) layout bit for bit on
//!
//! - the training-loss trajectory (including validation losses),
//! - every parameter after training (embedding blocks concatenated),
//! - greedy and beam decodes,
//! - and checkpoint save → resume, which must continue a streamed run
//!   bit-identically even when the resuming process seeds its RNG
//!   differently (the checkpoint carries the RNG state).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use st_baselines::{beam_decode, DeepStDecoder};
use st_bench::{make_dataset, City, Scale};
use st_core::{DeepSt, Example, TrainConfig, Trainer, TripContext};
use st_eval::{build_examples, deepst_config};
use st_nn::Module;
use st_roadnet::{Point, Route, SegmentId};
use st_sim::Dataset;

/// Small blocks so Rivertown's table splits into many shards.
const BLOCK_ROWS: usize = 64;
const SEED: u64 = 7;

fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|v| v.to_bits()).collect()
}

/// Parameter fingerprint keyed by canonical name: embedding blocks
/// (`….b0`, `….b1`, …) concatenate — in block order, which is row order —
/// onto the same key as the dense single-block table, so the two layouts
/// produce directly comparable maps.
fn fingerprint(model: &DeepSt) -> BTreeMap<String, Vec<u32>> {
    let mut out: BTreeMap<String, Vec<u32>> = BTreeMap::new();
    for p in model.params() {
        let name = p.name();
        let canon = match name.rfind(".b") {
            Some(pos)
                if pos + 2 < name.len() && name[pos + 2..].chars().all(|c| c.is_ascii_digit()) =>
            {
                &name[..pos]
            }
            _ => name,
        };
        out.entry(canon.to_string())
            .or_default()
            .extend(bits(p.value().data()));
    }
    out
}

struct World {
    ds: Dataset,
    train: Vec<Example>,
    val: Vec<Example>,
    queries: Vec<(SegmentId, Point)>,
}

fn world() -> World {
    let mut scale = Scale::quick();
    scale.trips = 260;
    let ds = make_dataset(City::Rivertown, &scale);
    let split = ds.default_split();
    let train = build_examples(&ds, &split.train[..split.train.len().min(160)]);
    let val = build_examples(&ds, &split.val[..split.val.len().min(40)]);
    let queries = split
        .test
        .iter()
        .take(8)
        .map(|&i| {
            let trip = &ds.trips[i];
            (trip.origin_segment(), trip.dest_coord)
        })
        .collect();
    World {
        ds,
        train,
        val,
        queries,
    }
}

fn train_config() -> TrainConfig {
    TrainConfig {
        epochs: 2,
        batch_size: 32,
        shard_size: 32,
        patience: None,
        ..TrainConfig::default()
    }
}

fn trained(w: &World, block_rows: usize) -> (Trainer, Vec<u32>) {
    let cfg = deepst_config(&w.ds, 8).with_emb_block_rows(block_rows);
    let model = DeepSt::new(cfg, SEED);
    let mut trainer = Trainer::new(model, train_config());
    let mut rng = StdRng::seed_from_u64(33);
    let history = trainer
        .fit(&w.train[..], Some(&w.val), &mut rng)
        .expect("clean run")
        .epochs;
    let mut loss_bits = Vec::new();
    for e in &history {
        loss_bits.push(e.train_loss.to_bits());
        loss_bits.push(e.val_loss.expect("val set supplied").to_bits());
    }
    (trainer, loss_bits)
}

fn decode_all(w: &World, model: &DeepSt, beam_width: usize) -> Vec<Route> {
    w.queries
        .iter()
        .map(|&(start, dest)| {
            let slot = w.ds.slot_of(0.0);
            let c = model.encode_traffic(w.ds.traffic_tensor(slot));
            let ctx: TripContext = model.encode_context(w.ds.unit_coord(&dest), Some(c));
            let mut dec = DeepStDecoder::new(model, &ctx);
            beam_decode(
                &w.ds.net,
                &mut dec,
                start,
                &dest,
                beam_width,
                model.cfg.max_route_len,
            )
        })
        .collect()
}

/// Tentpole oracle: the sharded table is bit-identical to the dense layout
/// through two full training epochs and every decode surface.
#[test]
fn sharded_deepst_matches_dense_bit_for_bit() {
    let w = world();
    let (dense, dense_losses) = trained(&w, usize::MAX);
    let (sharded, sharded_losses) = trained(&w, BLOCK_ROWS);

    assert!(
        dense.model.params().len() + 1 < sharded.model.params().len(),
        "sharded run did not actually shard the table"
    );
    assert_eq!(dense_losses, sharded_losses, "loss trajectories diverged");
    assert_eq!(
        fingerprint(&dense.model),
        fingerprint(&sharded.model),
        "trained parameters diverged"
    );

    // Greedy (beam=1) and beam decodes agree.
    for bw in [1, 4] {
        assert_eq!(
            decode_all(&w, &dense.model, bw),
            decode_all(&w, &sharded.model, bw),
            "decode diverged at beam={bw}"
        );
    }
}

/// Checkpoint oracle: a sharded streamed run interrupted after epoch 0 and
/// resumed in a fresh process (different RNG seed, params restored from the
/// checkpoint) finishes bit-identical to the uninterrupted run.
#[test]
fn sharded_stream_checkpoint_resume_is_bit_identical() {
    let w = world();
    let cfg = deepst_config(&w.ds, 8).with_emb_block_rows(BLOCK_ROWS);
    let dir = std::env::temp_dir().join(format!("st-sharded-parity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("resume.ckpt");

    let batches = |train: Vec<Example>| {
        move |_epoch: usize, _rng: &mut StdRng| {
            train
                .chunks(32)
                .map(<[Example]>::to_vec)
                .collect::<Vec<_>>()
        }
    };

    // Uninterrupted: two streamed epochs.
    let mut straight = Trainer::new(DeepSt::new(cfg.clone(), SEED), train_config());
    let mut rng = StdRng::seed_from_u64(33);
    let full = straight
        .fit(batches(w.train.clone()), None, &mut rng)
        .unwrap()
        .epochs;

    // Interrupted: one epoch, checkpoint, then resume with a *different*
    // RNG seed — the checkpoint must carry the training RNG state.
    let mut tc1 = train_config();
    tc1.epochs = 1;
    tc1.checkpoint_path = Some(ckpt.clone());
    let mut first = Trainer::new(DeepSt::new(cfg.clone(), SEED), tc1);
    let mut rng1 = StdRng::seed_from_u64(33);
    let part = first
        .fit(batches(w.train.clone()), None, &mut rng1)
        .unwrap()
        .epochs;
    assert_eq!(part.len(), 1);
    assert_eq!(part[0].train_loss.to_bits(), full[0].train_loss.to_bits());

    let mut tc2 = train_config();
    tc2.resume_from = Some(ckpt.clone());
    let mut resumed = Trainer::new(DeepSt::new(cfg, SEED + 999), tc2);
    let mut rng2 = StdRng::seed_from_u64(4242);
    let rest = resumed
        .fit(batches(w.train.clone()), None, &mut rng2)
        .unwrap()
        .epochs;

    assert_eq!(rest.len(), 1, "resume should run exactly the missing epoch");
    assert_eq!(rest[0].epoch, 1);
    assert_eq!(rest[0].train_loss.to_bits(), full[1].train_loss.to_bits());
    assert_eq!(
        fingerprint(&straight.model),
        fingerprint(&resumed.model),
        "resumed run diverged from the uninterrupted run"
    );

    std::fs::remove_dir_all(&dir).ok();
}
