//! decode-batch: offline route generation, as in the Table IV evaluation —
//! one thread decoding fixed test-split queries closed loop, with no
//! serving layer in between.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use st_core::livetraffic::TrafficCache;
use st_serve::RouteRequest;
use st_sim::CityPreset;

use st_baselines::DeepStDecoder;

use crate::clock::Cycles;
use crate::decode::{self, route_ok, Session};
use crate::report::{Counters, Outcome};
use crate::spec::*;
use crate::stats::{sorted, Fastest, Fnv};
use crate::tracer::Tracer;
use crate::world::{repeat_setup, served, Served};

/// Library decodes checked against the traced decode loop in untraced runs.
const MIRROR_CHECK: usize = 48;

struct DecodeWorld {
    served: Served,
    /// Test-split trips behind the queries, in split order.
    trips: Vec<usize>,
    cache: TrafficCache,
}

fn setup(traced: bool, tr: &mut Tracer) -> (DecodeWorld, f64, bool) {
    let repeats = if traced { 1 } else { SETUP_REPEATS };
    repeat_setup(
        repeats,
        || {
            let served = served(&CityPreset::northport(), NORTHPORT_TRIPS, traced, tr);
            let trips: Vec<usize> = served
                .city
                .split
                .test
                .iter()
                .take(DECODE_QUERIES)
                .copied()
                .collect();
            let ds = &served.city.ds;
            // Every query's traffic slot is encoded before timing starts.
            let all: Vec<RouteRequest> = trips
                .iter()
                .map(|&i| decode::query(ds, &ds.trips[i], false))
                .collect();
            let mut cache = TrafficCache::new(256);
            decode::warm_cache(&served.model, &mut cache, &all);
            DecodeWorld {
                served,
                trips,
                cache,
            }
        },
        |w| w.served.fingerprint,
        |_| (),
    )
}

/// The run's queries: the fixed trips, [`PREFIX_TENTHS`] in ten of them
/// continuations, in a seeded order.
fn queries(w: &DecodeWorld, seed: u64) -> Vec<RouteRequest> {
    let ds = &w.served.city.ds;
    let mut reqs: Vec<RouteRequest> = w
        .trips
        .iter()
        .enumerate()
        .map(|(k, &i)| decode::query(ds, &ds.trips[i], k % 10 < PREFIX_TENTHS))
        .collect();
    reqs.shuffle(&mut StdRng::seed_from_u64(seed));
    reqs
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut tr = if traced {
        Tracer::sampling()
    } else {
        Tracer::default()
    };
    let (mut w, setup_s, agree) = setup(traced, &mut tr);
    let mut out = measure::<DeepStDecoder>(&mut w, seed, seconds, traced, &mut tr);
    out.setup(setup_s, agree, w.served.skipped);
    out
}

fn measure<'m, D: Session<'m>>(
    w: &'m mut DecodeWorld,
    seed: u64,
    seconds: f64,
    traced: bool,
    tr: &mut Tracer,
) -> Outcome {
    let mut out = Outcome::new(Workload::DecodeBatch);
    let reqs = queries(w, seed);
    let model = &w.served.model;
    let net = &w.served.city.ds.net;

    if traced {
        let before = Counters::read();
        let p = decode::passes::<D>(model, net, &reqs, &mut w.cache, TRACED_ROUNDS, tr);
        let c = Counters::read().since(&before);
        out.attempted = p.decodes as u64;
        out.decode_passes(&p, true);
        out.layer(
            "traffic.cache_hit_ratio",
            c.cache_hit as f64 / (c.cache_hit + c.cache_miss).max(1) as f64,
        );
        out.served_training(w.served.peak_tape_bytes, &w.served.model);
        out.finish_traced(tr);
        return out;
    }

    // Closed loop over the queries, whole passes, until `seconds` pass.
    // Each query is a unit, timed in cycles and in seconds.
    let mut lat_ms = Vec::new();
    let mut fastest = Fastest::new(reqs.len());
    let mut fastest_s = Fastest::new(reqs.len());
    let mut clock = Cycles::start();
    let mut first: Option<Vec<u64>> = None;
    let t0 = Instant::now();
    let mut passes = 0;
    while passes == 0 || t0.elapsed().as_secs_f64() < seconds {
        let mut digests = Vec::with_capacity(reqs.len());
        for (q, req) in reqs.iter().enumerate() {
            clock.begin();
            let route = decode::decode::<D>(model, net, req, &mut w.cache);
            let (secs, gcycles) = clock.end();
            fastest.record(q, gcycles);
            fastest_s.record(q, secs);
            lat_ms.push(secs * 1e3);
            out.attempted += 1;
            if !route_ok(net, req, &route) {
                out.fail(1, "decoded an invalid route".into());
            }
            let mut h = Fnv::default();
            route.iter().for_each(|&s| h.word(s as u64));
            digests.push(h.finish());
        }
        match &first {
            None => first = Some(digests),
            Some(f) => {
                let diff = f.iter().zip(&digests).filter(|(a, b)| a != b).count();
                if diff > 0 {
                    out.fail(diff as u64, "a later pass decoded different routes".into());
                }
            }
        }
        passes += 1;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let decodes = lat_ms.len() as f64;
    let lat = sorted(&lat_ms);
    let n = reqs.len() as f64;
    out.e2e("ops_per_gcycle", n / fastest.pass_s());
    out.extra("ops_per_s", n / fastest_s.pass_s(), "1/s");
    out.extra("clock_ghz", clock.median_ghz(), "GHz");
    out.latencies(&lat);
    out.extra("decode_per_s", decodes / elapsed, "decodes/s");
    out.detail("passes", passes as f64);

    // The traced decode loop must reproduce the library's routes.
    let mut check = Tracer::default();
    let p = decode::passes::<D>(
        model,
        net,
        &reqs[..MIRROR_CHECK.min(reqs.len())],
        &mut w.cache,
        1,
        &mut check,
    );
    if p.mismatches > 0 {
        out.fail(
            p.mismatches as u64,
            "the traced decode loop's routes differ from beam_decode_from's".into(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_baselines::StepDecoder;
    use st_core::{DeepSt, TripContext};
    use st_roadnet::{RoadNetwork, SegmentId};
    use st_tensor::Array;

    use crate::tracer::UNTIMED;

    /// The library decoder, except that every step busy-waits for as long
    /// again as it took.
    struct SlowStep<'m>(DeepStDecoder<'m>);

    impl<'m> Session<'m> for SlowStep<'m> {
        fn open(model: &'m DeepSt, ctx: &TripContext) -> Self {
            SlowStep(DeepStDecoder::new(model, ctx))
        }
    }

    impl StepDecoder for SlowStep<'_> {
        type State = Vec<Array>;

        fn width(&self) -> usize {
            self.0.width()
        }

        fn init_state(&mut self, n: usize) -> Vec<Array> {
            self.0.init_state(n)
        }

        fn step(
            &mut self,
            net: &RoadNetwork,
            tokens: &[SegmentId],
            state: &mut Vec<Array>,
            logp: &mut Vec<f64>,
        ) {
            let t0 = Instant::now();
            self.0.step(net, tokens, state, logp);
            let took = t0.elapsed();
            while t0.elapsed() < took * 2 {
                std::hint::spin_loop();
            }
        }

        fn gather(&mut self, state: &Vec<Array>, rows: &[usize]) -> Vec<Array> {
            self.0.gather(state, rows)
        }

        fn recycle(&mut self, state: Vec<Array>) {
            self.0.recycle(state);
        }
    }

    /// A two-second decode-batch run whose output checks must pass.
    fn short_run<'m, D: Session<'m>>(w: &'m mut DecodeWorld, traced: bool) -> Outcome {
        let out = measure::<D>(w, 3, 2.0, traced, &mut Tracer::default());
        assert!(out.correct(), "{:?}", out.failures());
        out
    }

    /// Planted defects on short decode-batch runs over one set-up world.
    /// One test, so the runs never share the machine with each other.
    #[test]
    fn planted_defects_are_caught() {
        let mut w = setup(false, &mut Tracer::default()).0;
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "ops_per_gcycle")
            .and_then(|m| m.bound)
            .expect("ops_per_gcycle has a bound");
        // Clean and defective runs alternate, twice each, and each side
        // keeps its best reading, so that a busy stretch of the host cannot
        // fall on one side only.
        let (mut clean, mut slow, mut clean_t, mut slow_t) = (vec![], vec![], vec![], vec![]);
        for round in 0..2 {
            for defective in [round == 1, round == 0] {
                if defective {
                    slow.push(short_run::<SlowStep>(&mut w, false));
                    slow_t.push(short_run::<SlowStep>(&mut w, true));
                } else {
                    clean.push(short_run::<DeepStDecoder>(&mut w, false));
                    clean_t.push(short_run::<DeepStDecoder>(&mut w, true));
                }
            }
        }
        let get = |o: &Outcome, name: &str| o.get(name).unwrap_or_else(|| panic!("{name} missing"));
        let least = |runs: &[Outcome], name: &str| {
            runs.iter()
                .map(|o| get(o, name))
                .fold(f64::INFINITY, f64::min)
        };
        let most =
            |runs: &[Outcome], name: &str| runs.iter().map(|o| get(o, name)).fold(0.0, f64::max);

        // A step that busy-waits as long again: the step time doubles, the
        // decode rate falls beyond its bound, and beam bookkeeping stays
        // within it.
        let step = least(&slow_t, "predict.step_us") / least(&clean_t, "predict.step_us");
        assert!((1.5..=2.5).contains(&step), "step time ratio {step}");
        let rate = most(&slow, "ops_per_gcycle") / most(&clean, "ops_per_gcycle");
        assert!(rate < 1.0 - bound, "decode rate ratio {rate}");
        let apply = least(&slow_t, "beam.apply_us") / least(&clean_t, "beam.apply_us");
        assert!((apply - 1.0).abs() <= bound, "apply time ratio {apply}");

        // A traced decode loop that stops timing the step loses coverage.
        assert!(most(&clean_t, "obs.coverage") >= 0.95);
        UNTIMED.with(|u| u.set(Some("predict.step")));
        let untimed = short_run::<DeepStDecoder>(&mut w, true);
        UNTIMED.with(|u| u.set(None));
        let coverage = get(&untimed, "obs.coverage");
        assert!(coverage < 0.95, "coverage {coverage} with the step untimed");
    }
}
