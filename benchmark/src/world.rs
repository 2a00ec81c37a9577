//! Set-up: generated worlds and the models trained on them.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use st_core::{DeepSt, Example, Trainer};
use st_eval::{build_examples, deepst_config};
use st_sim::{CityPreset, Dataset, Split};

use crate::fit::{
    fingerprint, mirror_loop, stream_loop, train_config, CitySource, MirrorFit, Source,
};
use crate::spec::{BATCH, K_PROXIES, SETUP_EPOCHS, WORLD_SEED};
use crate::stats::median;
use crate::tracer::Tracer;

/// A generated city and its time-ordered split.
pub struct City {
    pub ds: Dataset,
    pub split: Split,
}

impl City {
    pub fn generate(preset: &CityPreset, trips: usize, tr: &mut Tracer) -> City {
        let ds = tr.time("sim.setup", || Dataset::generate(preset, trips, WORLD_SEED));
        let split = ds.default_split();
        City { ds, split }
    }

    pub fn train_examples(&self) -> Vec<Example> {
        build_examples(&self.ds, &self.split.train)
    }

    pub fn fresh_model(&self) -> DeepSt {
        DeepSt::new(deepst_config(&self.ds, K_PROXIES), WORLD_SEED)
    }
}

/// A city plus a DeepST trained on it for [`SETUP_EPOCHS`] epochs.
pub struct Served {
    pub city: City,
    pub model: DeepSt,
    /// Parameter fingerprint of `model`.
    pub fingerprint: u64,
    /// Minibatches the set-up training skipped (must be 0).
    pub skipped: usize,
    /// Largest tape arena any set-up minibatch used.
    pub peak_tape_bytes: usize,
}

/// Generate `preset` and train the set-up model for [`SETUP_EPOCHS`]
/// epochs, one `train_epoch_stream` call per epoch. Traced set-up trains
/// with the layer-timed mirror instead (bit-identical, so the served model
/// is the same either way).
pub fn served(preset: &CityPreset, trips: usize, traced: bool, tr: &mut Tracer) -> Served {
    let city = City::generate(preset, trips, tr);
    let examples = city.train_examples();
    let model = city.fresh_model();
    let mut source = CitySource::new(&examples, StdRng::seed_from_u64(WORLD_SEED));
    let cycle = source.cycle();
    let mut rng = StdRng::seed_from_u64(WORLD_SEED ^ 0x5EED);
    let (model, skipped, peak_tape_bytes) = if traced {
        let mut mirror = MirrorFit::new(model, train_config(BATCH));
        let l = mirror_loop(&mut mirror, &mut source, &mut rng, SETUP_EPOCHS * cycle, tr);
        let peak = mirror.peak_tape_bytes();
        (mirror.into_model(), l.skipped, peak)
    } else {
        let mut trainer = Trainer::new(model, train_config(BATCH));
        let skipped = (0..SETUP_EPOCHS)
            .map(|_| stream_loop(&mut trainer, &mut source, &mut rng, cycle).skipped)
            .sum();
        let peak = trainer.peak_tape_bytes;
        (trainer.model, skipped, peak)
    };
    Served {
        fingerprint: fingerprint(&model),
        city,
        model,
        skipped,
        peak_tape_bytes,
    }
}

/// Run set-up `repeats` times and keep the last result; `after` runs on each
/// repetition's result once its set-up time is taken. Returns the last
/// result with the median set-up seconds and whether every repetition
/// agreed on `key`.
pub fn repeat_setup<T, K: PartialEq>(
    repeats: usize,
    mut setup: impl FnMut() -> T,
    key: impl Fn(&T) -> K,
    mut after: impl FnMut(&T),
) -> (T, f64, bool) {
    let mut secs = Vec::with_capacity(repeats);
    let mut last: Option<T> = None;
    let mut agree = true;
    for _ in 0..repeats.max(1) {
        // Drop the previous repetition first so peak memory stays that of
        // one set-up.
        let prev_key = last.take().map(|v| key(&v));
        let t0 = Instant::now();
        let v = setup();
        secs.push(t0.elapsed().as_secs_f64());
        if prev_key.is_some_and(|k| k != key(&v)) {
            agree = false;
        }
        after(&v);
        last = Some(v);
    }
    let v = last.expect("at least one set-up repetition");
    (v, median(&secs), agree)
}
