//! Megacity scale-out benchmark: memory ceiling vs. segment count.
//!
//! Sweeps district-structured [`Megacity`] worlds in **ascending** size
//! order (`VmHWM` is monotonic, so each reading is "peak so far" and the
//! largest scale's reading is the true process peak). Per scale:
//!
//! - **generate** — build the world, then *stream* trips straight into an
//!   on-disk [`TripStore`]; no `Vec<Trip>` of the whole dataset ever
//!   exists. The observed-traffic tensors are accumulated incrementally by
//!   [`SlotObs`](st_sim::SlotObs) during the same pass.
//! - **train** — one bounded mini-epoch of DeepST over
//!   [`Trainer::train_epoch_stream`], reading minibatches back from the
//!   store. The embedding table is sharded ([`BLOCK_ROWS`] rows per
//!   block); gradient blocks materialize lazily, so segments no trip
//!   touched cost zero gradient bytes.
//! - **decode** — beam decode a handful of held-back queries end-to-end.
//!
//! The headline gate (ISSUE 10): at the largest scale, total
//! embedding-resident bytes (value table + materialized gradient blocks)
//! must be **strictly less** than what the dense layout pays (value table +
//! full-table gradient the moment any row is touched). The run aborts if
//! the gate fails.
//!
//! Writes `results/BENCH_scale.json` (atomically: tmp + fsync + rename).
//!
//! Usage: `cargo run --release -p st-bench --bin bench_scale [-- --quick|--full]`

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;

use st_baselines::{beam_decode, DeepStDecoder};
use st_bench::{host_meta, peak_rss_bytes, results_dir};
use st_core::{DeepSt, DeepStConfig, TrainConfig, Trainer};
use st_eval::report::write_json;
use st_sim::{Megacity, MegacityConfig, Trip, TripStore, TripStoreWriter};

const SEED: u64 = 42;
/// Rows per embedding shard at megacity scale: about half a district at
/// 50k segments, so a minibatch's gradient working set is measured in
/// districts touched, not in whole-table bytes.
const BLOCK_ROWS: usize = 256;
/// Trips written to each scale's store.
const TRIPS_FULL: usize = 800;
const TRIPS_QUICK: usize = 300;
/// Mini-epoch bound: minibatches read back from the store.
const BATCH_SIZE: usize = 32;
const MAX_BATCHES: usize = 16;
/// Beam-decoded held-back queries per scale.
const DECODE_QUERIES: usize = 6;
const BEAM_WIDTH: usize = 4;

fn parse_scales() -> (Vec<usize>, usize) {
    let mut quick = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--quick" => quick = true,
            "--full" => quick = false,
            other => {
                eprintln!("error: unknown argument `{other}` (expected --quick or --full)");
                std::process::exit(2);
            }
        }
    }
    if quick {
        (vec![1_000, 10_000], TRIPS_QUICK)
    } else {
        (vec![1_000, 10_000, 50_000], TRIPS_FULL)
    }
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// One scale of the sweep. Returns the per-scale report plus the
/// `(resident, dense)` byte pair the final gate asserts on.
fn run_scale(
    target_segments: usize,
    n_trips: usize,
    store_root: &std::path::Path,
) -> (serde_json::Value, usize, usize) {
    let t0 = Instant::now();
    let mcfg = MegacityConfig::with_target_segments(target_segments);
    let mega = Megacity::generate(&mcfg, SEED);
    let segments = mega.net.num_segments();
    eprintln!(
        "[scale {target_segments}] generated {} segments, {} districts",
        segments,
        mcfg.num_districts()
    );

    let store_dir = store_root.join(format!("mega-{target_segments}"));
    std::fs::create_dir_all(&store_dir).expect("create store dir");
    let mut writer = TripStoreWriter::create(&store_dir, 256).expect("create trip store");
    let summary = mega
        .stream_trips(n_trips, SEED, &mut writer)
        .expect("stream trips");
    writer.finish().expect("finish trip store");
    let gen_secs = t0.elapsed().as_secs_f64();
    let tensors = summary.slot_obs.tensors(mega.max_speed);
    let store = TripStore::open(&store_dir).expect("open trip store");
    eprintln!(
        "[scale {target_segments}] {} trips in {} shards ({} intra, {} inter) in {gen_secs:.1}s",
        store.len(),
        store.num_shards(),
        summary.intra_district,
        summary.inter_district
    );

    // Train one bounded mini-epoch, streaming minibatches from disk.
    let cfg = DeepStConfig::new(
        segments,
        mega.net.max_out_degree(),
        mega.grid.height,
        mega.grid.width,
    )
    .with_k(8)
    .with_emb_block_rows(BLOCK_ROWS);
    let tc = TrainConfig {
        epochs: 1,
        batch_size: BATCH_SIZE,
        shard_size: BATCH_SIZE,
        patience: None,
        ..TrainConfig::default()
    };
    let mut trainer = Trainer::new(DeepSt::new(cfg, SEED), tc);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut examples = 0usize;
    let t1 = Instant::now();
    let mut batches = store
        .batches(BATCH_SIZE)
        .take(MAX_BATCHES)
        .map(|b| b.expect("trip store read"))
        .map(|trips: Vec<Trip>| {
            let exs: Vec<_> = trips
                .iter()
                .filter_map(|t| mega.example(t, &tensors))
                .collect();
            examples += exs.len();
            exs
        });

    // First optimizer step alone, to snapshot per-step gradient residency:
    // this is the working set a steady-state training step keeps live,
    // before the epoch-long union of touched blocks accumulates.
    let first = batches.next().expect("store yielded no batches");
    let first_n = first.len();
    let loss_first = trainer.train_epoch_stream(std::iter::once(first), &mut rng);
    let mem_step = trainer.model.emb_memory();

    let n_batches = store.len().div_ceil(BATCH_SIZE).min(MAX_BATCHES);
    let loss = if n_batches <= 1 {
        loss_first
    } else {
        let loss_rest = trainer.train_epoch_stream(batches, &mut rng);
        let rest_n = examples - first_n;
        (loss_first * first_n as f32 + loss_rest * rest_n as f32) / examples as f32
    };
    let train_secs = t1.elapsed().as_secs_f64();
    let eps = examples as f64 / train_secs.max(1e-9);
    let mem = trainer.model.emb_memory();
    eprintln!(
        "[scale {target_segments}] loss {loss:.3}, {examples} examples in {train_secs:.1}s \
         ({eps:.0} ex/s); emb grad-resident blocks: {}/{} after step 1, {}/{} after epoch",
        mem_step.resident_blocks, mem_step.num_blocks, mem.resident_blocks, mem.num_blocks
    );

    // Beam decode held-back queries (the tail of the store).
    let t2 = Instant::now();
    let queries: Vec<Trip> = store
        .iter()
        .map(|r| r.expect("trip store read"))
        .skip(store.len().saturating_sub(DECODE_QUERIES))
        .collect();
    let mut decoded = 0usize;
    for trip in &queries {
        let slot = mega.slot_of(trip.start_time, tensors.len());
        let c = trainer.model.encode_traffic(&tensors[slot]);
        let ctx = trainer
            .model
            .encode_context(mega.unit_coord(&trip.dest_coord), Some(c));
        let mut dec = DeepStDecoder::new(&trainer.model, &ctx);
        let route = beam_decode(
            &mega.net,
            &mut dec,
            trip.route[0],
            &trip.dest_coord,
            BEAM_WIDTH,
            trainer.model.cfg.max_route_len,
        );
        assert!(mega.net.is_valid_route(&route), "decoded an invalid route");
        decoded += 1;
    }
    let decode_secs = t2.elapsed().as_secs_f64();

    // Memory accounting: sharded resident vs. what dense would pay. The
    // dense layout materializes the full-table gradient on the first step;
    // the sharded layout holds the value table plus only the gradient
    // blocks the step actually touched.
    let resident_bytes = mem_step.table_bytes + mem_step.resident_grad_bytes;
    let dense_bytes = 2 * mem_step.table_bytes;
    let peak = peak_rss_bytes();
    eprintln!(
        "[scale {target_segments}] emb resident {resident_bytes}B vs dense {dense_bytes}B \
         at step 1, peak RSS {:.1} MiB",
        peak.unwrap_or(0) as f64 / (1024.0 * 1024.0)
    );

    let report = json!({
        "target_segments": target_segments,
        "segments": segments,
        "districts": mcfg.num_districts(),
        "trips": store.len(),
        "store_shards": store.num_shards(),
        "store_bytes": dir_bytes(&store_dir),
        "intra_district_trips": summary.intra_district,
        "inter_district_trips": summary.inter_district,
        "generate_secs": gen_secs,
        "train": {
            "examples": examples,
            "secs": train_secs,
            "examples_per_sec": eps,
            "loss": loss,
        },
        "decode": {
            "queries": decoded,
            "secs": decode_secs,
            "beam_width": BEAM_WIDTH,
        },
        "embedding": {
            "block_rows": BLOCK_ROWS,
            "num_blocks": mem.num_blocks,
            "table_bytes": mem.table_bytes,
            "step1_grad_resident_blocks": mem_step.resident_blocks,
            "step1_grad_resident_bytes": mem_step.resident_grad_bytes,
            "epoch_grad_resident_blocks": mem.resident_blocks,
            "epoch_grad_resident_bytes": mem.resident_grad_bytes,
            "resident_bytes": resident_bytes,
            "dense_bytes": dense_bytes,
            "savings_ratio": resident_bytes as f64 / dense_bytes as f64,
        },
        "peak_rss_bytes": peak,
    });
    (report, resident_bytes, dense_bytes)
}

fn main() {
    let (scales, n_trips) = parse_scales();
    let store_root = std::env::temp_dir().join(format!("st-bench-scale-{}", std::process::id()));
    std::fs::create_dir_all(&store_root).expect("create store root");

    // Ascending order: VmHWM is a process-lifetime high-water mark.
    let mut runs = Vec::new();
    let (mut resident, mut dense) = (0usize, 0usize);
    for &n in &scales {
        let (report, r, d) = run_scale(n, n_trips, &store_root);
        runs.push(report);
        (resident, dense) = (r, d);
    }
    std::fs::remove_dir_all(&store_root).ok();

    // The ISSUE 10 gate, asserted at the 50k scale: the sharded embedding's
    // per-step residency must be strictly cheaper than the dense layout.
    // Smaller cities fit in a handful of blocks, where a single citywide
    // minibatch can legitimately touch everything, so --quick only reports.
    let largest = *scales.last().expect("at least one scale");
    if largest >= 50_000 {
        assert!(
            resident < dense,
            "scale gate failed: resident {resident}B >= dense {dense}B at {largest} segments"
        );
    }

    let report = json!({
        "bench": "scale",
        "seed": SEED,
        "host": host_meta(),
        "scales": runs,
        "gate": {
            "largest_scale": largest,
            "largest_scale_resident_bytes": resident,
            "largest_scale_dense_bytes": dense,
            "resident_lt_dense": resident < dense,
            "asserted": largest >= 50_000,
        },
    });
    let path = results_dir().join("BENCH_scale.json");
    write_json(&path, &report).expect("write BENCH_scale.json");
    eprintln!("wrote {}", path.display());
}
