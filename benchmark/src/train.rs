//! train: Algorithm 1 at two sizes, in one run.
//!
//! Phase city streams in-memory minibatches of the Rivertown world; phase
//! mega streams minibatches of a ~50k-segment Megacity back from an on-disk
//! `TripStore`. The measured loop alternates one epoch of each phase — one
//! `Trainer::train_epoch_stream` call over the phase's fixed cycle of
//! minibatches — times every minibatch, input included, and reports the
//! examples per billion cycles of one epoch of each phase with every
//! minibatch at its fastest.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use st_baselines::DeepStDecoder;
use st_core::livetraffic::TrafficCache;
use st_core::{DeepSt, DeepStConfig, Example, Trainer};
use st_roadnet::RoadNetwork;
use st_serve::RouteRequest;
use st_sim::{CityPreset, Megacity, MegacityConfig, Trip, TripStore, TripStoreWriter};

use crate::decode::{self, route_ok, Passes};
use crate::fit::{
    fingerprint, mirror_loop, stream_loop, train_config, CitySource, Loop, MirrorFit, Source,
};
use crate::report::Outcome;
use crate::spec::*;
use crate::stats::{median, Fastest};
use crate::tracer::Tracer;
use crate::world::{repeat_setup, City};

struct MegaSource<'a> {
    world: &'a MegaWorld,
    batches: Box<dyn Iterator<Item = Vec<Trip>> + 'a>,
}

impl<'a> MegaSource<'a> {
    fn new(world: &'a MegaWorld) -> Self {
        Self {
            world,
            batches: Self::pass(world),
        }
    }

    fn pass(world: &'a MegaWorld) -> Box<dyn Iterator<Item = Vec<Trip>> + 'a> {
        Box::new(
            world
                .store
                .batches(MEGA_BATCH)
                .map(|b| b.expect("reading the benchmark's own trip store")),
        )
    }
}

impl Source for MegaSource<'_> {
    fn cycle(&self) -> usize {
        self.world.store.len().div_ceil(MEGA_BATCH)
    }

    fn next(&mut self) -> Vec<Example> {
        let trips = match self.batches.next() {
            Some(t) => t,
            None => {
                self.batches = Self::pass(self.world);
                self.batches.next().unwrap_or_default()
            }
        };
        let w = self.world;
        trips
            .iter()
            .filter_map(|t| w.mega.example(t, &w.tensors))
            .collect()
    }
}

/// Layer-call prefixes of a traced minibatch (for `obs.coverage`).
const TRAIN_LAYERS: &[&str] = &["train.", "sim.batch"];

struct MegaWorld {
    mega: Megacity,
    store: TripStore,
    dir: PathBuf,
    tensors: Vec<Arc<Vec<f32>>>,
}

impl Drop for MegaWorld {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn mega_world(k: usize, tr: &mut Tracer) -> MegaWorld {
    let t = tr.start("sim.setup");
    let mcfg = MegacityConfig::with_target_segments(MEGA_SEGMENTS);
    let mega = Megacity::generate(&mcfg, WORLD_SEED);
    let dir = crate::cli::out_dir().join(format!("store-{}-{k}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating the trip store directory");
    let mut writer = TripStoreWriter::create(&dir, 64).expect("creating the trip store");
    let summary = mega
        .stream_trips(MEGA_TRIPS, WORLD_SEED, &mut writer)
        .expect("streaming trips into the store");
    writer.finish().expect("finishing the trip store");
    let store = TripStore::open(&dir).expect("opening the trip store");
    let tensors = summary.slot_obs.tensors(mega.max_speed);
    tr.stop(t);
    MegaWorld {
        mega,
        store,
        dir,
        tensors,
    }
}

fn mega_model(mega: &Megacity) -> DeepSt {
    let cfg = DeepStConfig::new(
        mega.net.num_segments(),
        mega.net.max_out_degree(),
        mega.grid.height,
        mega.grid.width,
    )
    .with_k(MEGA_K_PROXIES)
    .with_emb_block_rows(MEGA_BLOCK_ROWS);
    DeepSt::new(cfg, WORLD_SEED)
}

/// Both phases' worlds and the trainers the measured loop trains.
struct TrainWorld {
    city: City,
    examples: Vec<Example>,
    mega: MegaWorld,
    city_trainer: Trainer,
    mega_trainer: Trainer,
    /// Minibatches the mega warm-up skipped (must be 0).
    warm_skipped: usize,
}

/// The city's minibatches, in an order drawn from `seed`.
fn city_source(examples: &[Example], seed: u64) -> CitySource<'_> {
    CitySource::new(examples, StdRng::seed_from_u64(seed ^ 0x5EED))
}

impl TrainWorld {
    /// The first test-split trips of the city, and the first stored trips
    /// of the Megacity, as route queries.
    fn held_out(&self) -> (Vec<RouteRequest>, Vec<RouteRequest>) {
        let ds = &self.city.ds;
        let city = self
            .city
            .split
            .test
            .iter()
            .take(HELD_OUT_DECODES)
            .map(|&i| decode::query(ds, &ds.trips[i], false))
            .collect();
        let w = &self.mega;
        let mega = w
            .store
            .iter()
            .take(HELD_OUT_DECODES)
            .map(|t| t.expect("reading the benchmark's own trip store"))
            .map(|trip| {
                let slot = w.mega.slot_of(trip.start_time, w.tensors.len());
                RouteRequest {
                    prefix: vec![trip.origin_segment()],
                    dest_coord: trip.dest_coord,
                    dest_norm: w.mega.unit_coord(&trip.dest_coord),
                    traffic: Some(w.tensors[slot].to_vec()),
                    slot_id: slot,
                    deadline: None,
                }
            })
            .collect();
        (city, mega)
    }
}

/// Set-up: generate both worlds, stream the Megacity's trips into the
/// store, start both trainers and train the mega trainer's warm-up
/// minibatches ([`SETUP_REPEATS`] times, once when traced).
fn setup(traced: bool, tr: &mut Tracer) -> (TrainWorld, f64, bool) {
    let repeats = if traced { 1 } else { SETUP_REPEATS };
    let mut k = 0;
    repeat_setup(
        repeats,
        || {
            k += 1;
            let city = City::generate(&CityPreset::rivertown(), RIVERTOWN_TRIPS, tr);
            let examples = city.train_examples();
            let city_trainer = Trainer::new(city.fresh_model(), train_config(BATCH));
            let mega = mega_world(k, tr);
            let mut mega_trainer = Trainer::new(mega_model(&mega.mega), train_config(MEGA_BATCH));
            let warm = stream_loop(
                &mut mega_trainer,
                &mut MegaSource::new(&mega),
                &mut StdRng::seed_from_u64(WORLD_SEED ^ 0xA11),
                MEGA_WARMUP,
            );
            TrainWorld {
                city,
                examples,
                mega,
                city_trainer,
                mega_trainer,
                warm_skipped: warm.skipped,
            }
        },
        |w| {
            (
                fingerprint(&w.city_trainer.model),
                w.mega.store.len(),
                fingerprint(&w.mega_trainer.model),
            )
        },
        |_| (),
    )
}

/// train: both phases, one epoch of each in turn.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::new(Workload::Train);
    let mut tr = if traced {
        Tracer::sampling()
    } else {
        Tracer::default()
    };
    let (mut w, setup_s, agree) = setup(traced, &mut tr);
    out.setup(setup_s, agree, w.warm_skipped);
    let stored = w.mega.store.len();
    if stored != MEGA_TRIPS {
        out.fail(1, format!("{stored} of {MEGA_TRIPS} trips stored"));
    }
    if traced {
        traced_pairs(&mut out, &w, seed, seconds, &mut tr);
        out.finish_traced(&tr);
    } else {
        measure(&mut out, &mut w, seed, seconds);
    }
    out
}

/// What one phase's epochs measured.
struct Phase {
    /// Each minibatch's fastest time, in billions of cycles and in seconds.
    fastest: Fastest,
    fastest_s: Fastest,
    clock_ghz: Vec<f64>,
    /// Examples in one epoch of the phase.
    epoch_examples: usize,
    examples: usize,
    secs: f64,
    batches: usize,
    skipped: usize,
    finite: bool,
}

impl Phase {
    fn new(cycle: usize) -> Phase {
        Phase {
            fastest: Fastest::new(cycle),
            fastest_s: Fastest::new(cycle),
            clock_ghz: Vec::new(),
            epoch_examples: 0,
            examples: 0,
            secs: 0.0,
            batches: 0,
            skipped: 0,
            finite: true,
        }
    }

    /// Add one epoch; minibatch `k` of every epoch is the same unit.
    fn add(&mut self, l: &Loop) {
        for (k, (ms, g)) in l.batch_ms.iter().zip(&l.batch_gcycles).enumerate() {
            self.fastest.record(k, *g);
            self.fastest_s.record(k, ms / 1e3);
        }
        self.clock_ghz.push(l.clock_ghz);
        self.epoch_examples = l.batch_examples.iter().sum();
        self.examples += l.examples;
        self.secs += l.secs;
        self.batches += l.batch_ms.len();
        self.skipped += l.skipped;
        self.finite &= l.mean_loss.is_finite();
    }

    /// Examples per second of one epoch, every minibatch at its fastest.
    fn eps(&self) -> f64 {
        self.epoch_examples as f64 / self.fastest_s.pass_s()
    }

    fn check(&self, out: &mut Outcome, name: &str) {
        out.attempted += self.batches as u64;
        if self.skipped > 0 {
            out.fail(
                self.skipped as u64,
                format!("{name}: {} minibatches skipped", self.skipped),
            );
        }
        if !self.finite {
            out.fail(1, format!("{name}: non-finite mean loss"));
        }
    }
}

/// The untraced run: one epoch of city, then one of mega, until `seconds`
/// pass; then the output checks.
fn measure(out: &mut Outcome, w: &mut TrainWorld, seed: u64, seconds: f64) {
    let mut city_src = city_source(&w.examples, seed);
    let mut mega_src = MegaSource::new(&w.mega);
    let (city_cycle, mega_cycle) = (city_src.cycle(), mega_src.cycle());
    let mut city_rng = StdRng::seed_from_u64(seed);
    let mut mega_rng = StdRng::seed_from_u64(seed ^ 0xA11);
    let (mut city, mut mega) = (Phase::new(city_cycle), Phase::new(mega_cycle));
    let t0 = Instant::now();
    while city.batches == 0 || t0.elapsed().as_secs_f64() < seconds {
        city.add(&stream_loop(
            &mut w.city_trainer,
            &mut city_src,
            &mut city_rng,
            city_cycle,
        ));
        mega.add(&stream_loop(
            &mut w.mega_trainer,
            &mut mega_src,
            &mut mega_rng,
            mega_cycle,
        ));
    }
    city.check(out, "city");
    mega.check(out, "mega");
    let examples = (city.epoch_examples + mega.epoch_examples) as f64;
    out.e2e(
        "ops_per_gcycle",
        examples / (city.fastest.pass_s() + mega.fastest.pass_s()),
    );
    out.extra(
        "ops_per_s",
        examples / (city.fastest_s.pass_s() + mega.fastest_s.pass_s()),
        "1/s",
    );
    let ghz: Vec<f64> = city
        .clock_ghz
        .iter()
        .chain(&mega.clock_ghz)
        .copied()
        .collect();
    out.extra("clock_ghz", median(&ghz), "GHz");
    out.extra("train_eps", city.eps(), "examples/s");
    out.extra("train_mega_eps", mega.eps(), "examples/s");
    out.extra(
        "examples_per_s",
        (city.examples + mega.examples) as f64 / (city.secs + mega.secs),
        "examples/s",
    );
    out.extra(
        "train.mega.grad_blocks",
        w.mega_trainer.model.emb_memory().resident_blocks as f64,
        "count",
    );
    out.detail("epochs", (city.batches / city_cycle) as f64);

    // The traced mirror must agree with the library trainer bit for bit.
    mirror_check(
        out,
        || city_source(&w.examples, seed),
        || w.city.fresh_model(),
        BATCH,
        seed,
    );
    mirror_check(
        out,
        || MegaSource::new(&w.mega),
        || mega_model(&w.mega.mega),
        MEGA_BATCH,
        seed,
    );
    let (city_reqs, mega_reqs) = w.held_out();
    let quiet = &mut Tracer::default();
    let p = held_out(
        out,
        &w.city_trainer.model,
        &w.city.ds.net,
        &city_reqs,
        quiet,
    );
    out.mismatches(&p);
    let p = held_out(
        out,
        &w.mega_trainer.model,
        &w.mega.mega.net,
        &mega_reqs,
        quiet,
    );
    out.mismatches(&p);
}

/// Train [`MIRROR_CHECK_BATCHES`] minibatches with the library trainer and
/// with the traced mirror from identical fresh models: mean-loss bits and
/// final parameters must match.
fn mirror_check<S: Source>(
    out: &mut Outcome,
    source: impl Fn() -> S,
    model: impl Fn() -> DeepSt,
    batch: usize,
    seed: u64,
) {
    let mut lib = Trainer::new(model(), train_config(batch));
    let a = stream_loop(
        &mut lib,
        &mut source(),
        &mut StdRng::seed_from_u64(seed),
        MIRROR_CHECK_BATCHES,
    );
    let mut mirror = MirrorFit::new(model(), train_config(batch));
    let b = mirror_loop(
        &mut mirror,
        &mut source(),
        &mut StdRng::seed_from_u64(seed),
        MIRROR_CHECK_BATCHES,
        &mut Tracer::default(),
    );
    if a.mean_loss.to_bits() != b.mean_loss.to_bits() || a.skipped != b.skipped {
        out.fail(
            1,
            "mirror losses differ from Trainer::train_epoch_stream's".into(),
        );
    }
    if fingerprint(&lib.model) != fingerprint(mirror.model()) {
        out.fail(
            1,
            "mirror parameters differ from Trainer::train_epoch_stream's".into(),
        );
    }
}

/// One phase of the traced run.
struct Pairs {
    /// Per round, the mirror's cycles over the library trainer's: the two
    /// sides of a round run back to back, so a busy stretch of the host
    /// slows both.
    ratios: Vec<f64>,
    /// Seconds inside traced minibatches, and their layer accumulators.
    mirror_s: f64,
    tracer: Tracer,
    peak_tape_bytes: usize,
    model: DeepSt,
}

/// The library trainer and the traced mirror train the same minibatches
/// from identical fresh models, one source cycle each in turn, alternating
/// which goes first, for at least [`TRACED_ROUNDS`] rounds and `seconds`;
/// each round of the trainer is one `train_epoch_stream` call.
fn pairs<S: Source>(
    out: &mut Outcome,
    source: impl Fn() -> S,
    model: impl Fn() -> DeepSt,
    batch: usize,
    seed: u64,
    seconds: f64,
) -> Pairs {
    let cfg = train_config(batch);
    let mut lib = Trainer::new(model(), cfg.clone());
    let mut mirror = MirrorFit::new(model(), cfg);
    let (mut lib_src, mut mirror_src) = (source(), source());
    let cycle = lib_src.cycle();
    let mut ratios = Vec::new();
    let (mut lib_rng, mut mirror_rng) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
    let mut tr = Tracer::sampling();
    let mut mirror_s = 0.0;
    let t0 = Instant::now();
    let mut round = 0;
    while round < TRACED_ROUNDS || t0.elapsed().as_secs_f64() < seconds {
        let mut lib_round = || stream_loop(&mut lib, &mut lib_src, &mut lib_rng, cycle);
        let mut mirror_round =
            |tr: &mut Tracer| mirror_loop(&mut mirror, &mut mirror_src, &mut mirror_rng, cycle, tr);
        let (a, b) = if round % 2 == 0 {
            let a = lib_round();
            (a, mirror_round(&mut tr))
        } else {
            let b = mirror_round(&mut tr);
            (lib_round(), b)
        };
        ratios.push(b.batch_gcycles.iter().sum::<f64>() / a.batch_gcycles.iter().sum::<f64>());
        mirror_s += b.secs;
        out.attempted += (a.batch_ms.len() + b.batch_ms.len()) as u64;
        if a.mean_loss.to_bits() != b.mean_loss.to_bits() || a.skipped + b.skipped > 0 {
            out.fail(
                1,
                "mirror losses differ from Trainer::train_epoch_stream's, or a minibatch was skipped"
                    .into(),
            );
        }
        round += 1;
    }
    if fingerprint(&lib.model) != fingerprint(mirror.model()) {
        out.fail(
            1,
            "mirror parameters differ from Trainer::train_epoch_stream's".into(),
        );
    }
    Pairs {
        ratios,
        mirror_s,
        tracer: tr,
        peak_tape_bytes: mirror.peak_tape_bytes(),
        model: mirror.into_model(),
    }
}

/// The traced run: library-against-mirror pairs on a cycle of
/// [`TRACED_CYCLE`] city minibatches for half of `seconds`, then on the
/// Megacity store's minibatches for the other half. The overhead is the
/// median over the rounds of both phases of the mirror's cycles over the
/// library trainer's. Then each
/// trained model decodes its held-out trips; the city's give the decode
/// layers.
fn traced_pairs(out: &mut Outcome, w: &TrainWorld, seed: u64, seconds: f64, tr: &mut Tracer) {
    let city = pairs(
        out,
        || city_source(&w.examples, seed).first(TRACED_CYCLE),
        || w.city.fresh_model(),
        BATCH,
        seed,
        seconds / 2.0,
    );
    let mega = pairs(
        out,
        || MegaSource::new(&w.mega),
        || mega_model(&w.mega.mega),
        MEGA_BATCH,
        seed,
        seconds / 2.0,
    );
    let mib = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    out.train_layers(&city.tracer);
    out.mega_train_layers(&mega.tracer);
    out.layer("train.peak_tape_mib", mib(city.peak_tape_bytes));
    out.layer("train.mega.peak_tape_mib", mib(mega.peak_tape_bytes));
    let blocks = |m: &DeepSt| m.emb_memory().resident_blocks as f64;
    out.layer("train.grad_blocks", blocks(&city.model));
    out.layer("train.mega.grad_blocks", blocks(&mega.model));
    let ratios: Vec<f64> = city.ratios.iter().chain(&mega.ratios).copied().collect();
    out.layer("obs.overhead_pct", (median(&ratios) - 1.0) * 100.0);
    out.layer(
        "obs.coverage",
        (city.tracer.total_s(TRAIN_LAYERS) + mega.tracer.total_s(TRAIN_LAYERS))
            / (city.mirror_s + mega.mirror_s),
    );
    let (city_reqs, mega_reqs) = w.held_out();
    let p = held_out(out, &mega.model, &w.mega.mega.net, &mega_reqs, tr);
    out.mismatches(&p);
    let p = held_out(out, &city.model, &w.city.ds.net, &city_reqs, tr);
    out.decode_passes(&p, false);
}

/// Decode the held-out queries with a trained model, through the library
/// and through the traced decode loop; every library route must be valid.
fn held_out(
    out: &mut Outcome,
    model: &DeepSt,
    net: &RoadNetwork,
    reqs: &[RouteRequest],
    sampler: &mut Tracer,
) -> Passes {
    let mut cache = TrafficCache::new(64);
    let p = decode::passes::<DeepStDecoder>(model, net, reqs, &mut cache, 1, sampler);
    for r in reqs {
        let route = decode::decode::<DeepStDecoder>(model, net, r, &mut cache);
        if !route_ok(net, r, &route) {
            out.fail(1, "a trained model decoded an invalid route".into());
        }
    }
    p
}
