//! Fixed inputs of every workload and the metric tables.
//!
//! Nothing here is derived at run time: rates, durations, sizes, the SLO and
//! the world seeds are constants, so two runs of the benchmark on different
//! commits drive identical inputs. `--seed` selects only the per-run inputs
//! (arrival times, request draws, query and minibatch order); the worlds,
//! the set-up models and everything that sets how much work a run does are
//! fixed by [`WORLD_SEED`].

/// Seconds one run measures (`BENCHMARK.json` `run_seconds`).
pub const DEFAULT_SECONDS: u64 = 16;

/// Seed of every generated world, the set-up models' initialization and
/// training order, train's grouping of examples into minibatches and
/// serve-live's closed segments.
pub const WORLD_SEED: u64 = 7;
/// Times set-up runs in an untraced run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
/// Traced runs decode every query this many times through the library and
/// as many through the traced decode loop; traced training runs at least
/// this many rounds of each.
pub const TRACED_ROUNDS: usize = 3;
/// Traced runs record full span trees for one item in this many.
pub const SAMPLE_EVERY: usize = 50;
/// At most this many sampled items per traced run (bounds trace size).
pub const MAX_SAMPLED: usize = 4;

// --- set-up models ---------------------------------------------------------

/// Trips generated for the Rivertown world behind serve-steady, serve-live
/// and train.
pub const RIVERTOWN_TRIPS: usize = 2000;
/// Trips generated for the Northport world behind decode-batch.
pub const NORTHPORT_TRIPS: usize = 2000;
/// Epochs the serve and decode models are trained for at set-up. Untrained
/// weights decode routes about 3x shorter than trained ones.
pub const SETUP_EPOCHS: usize = 2;
/// Minibatch and shard size of every training run (set-up and train).
pub const BATCH: usize = 64;
pub const SHARD: usize = 16;
/// Busy threads any workload runs; hosts with fewer cores report invalid.
/// Every training run (set-up, both train phases) runs its shards on this
/// many threads.
pub const THREADS: usize = 2;
/// Destination proxies of every DeepST model.
pub const K_PROXIES: usize = 24;

// --- requests and decoding -------------------------------------------------

/// Requests in the serving pool (test-split trips).
pub const POOL: usize = 200;
/// Fixed test-split queries of decode-batch.
pub const DECODE_QUERIES: usize = 400;
/// One request or query in ten in [0, PREFIX_TENTHS) carries a traveled
/// prefix of [`PREFIX_LEN`] segments (a continuation query).
pub const PREFIX_TENTHS: usize = 3;
pub const PREFIX_LEN: usize = 4;
/// Beam width of every full-quality decode.
pub const BEAM: usize = 8;

// --- serving ---------------------------------------------------------------

/// A served request meets the SLO when it is answered at full beam within
/// this many milliseconds of when it was due to be sent.
pub const SLO_MS: f64 = 25.0;
/// serve-steady phase A: Poisson arrivals at this rate (req/s)...
pub const STEADY_RATE: f64 = 150.0;
/// ...for this share of `--seconds`; phase B (capacity) gets the rest, in
/// [`B_STRETCHES`] equal stretches: one after each set-up repetition and
/// one after phase A, so that a busy stretch of the host, which lasts
/// seconds to tens of seconds, rarely covers all of them...
pub const PHASE_A_SHARE: f64 = 0.5;
pub const B_STRETCHES: usize = SETUP_REPEATS + 1;
/// ...keeping this many requests in flight: the server's batch holds
/// `max_batch_rows / BEAM` = 8 jobs and 8 more wait in its queue, so the
/// worker never idles, while the queue stays below the ladder's depth 16.
pub const IN_FLIGHT: usize = 16;
/// Phase B sends the pool in one seeded order, over and over; each this many
/// consecutive sends of that order is one work unit of the capacity rate.
pub const CAPACITY_CHUNK: usize = 25;
/// serve-live phase A (the same share of `--seconds`): rush-hour arrivals,
/// one simulated day compressed into the phase, with this base rate and
/// peak multiple...
pub const LIVE_BASE_RATE: f64 = 60.0;
pub const LIVE_PEAK: f64 = 3.0;
/// ...each request carrying this deadline...
pub const LIVE_DEADLINE_MS: u64 = 800;
/// ...while the same thread replays the traffic feed at this rate
/// (events/s)...
pub const FEED_RATE: f64 = 500.0;
/// ...and in phase B applies this many feed events after every reply
/// (about 600 events/s at capacity): tied to the replies, not to the
/// clock, so that a unit's work does not grow when the host runs slower.
pub const FEED_PER_REPLY: usize = 1;
/// Segments the workload closes, each an interior segment of a pool route:
/// phase B runs with all of them closed, and phase A, on a server of its
/// own, closes them one by one, evenly spread over the phase.
pub const CLOSURES: usize = 5;
/// Replies re-decoded serially per serve run (bit-parity check).
pub const PARITY_SAMPLE: usize = 48;
/// A serve run is invalid when the generator's p99 lateness exceeds this.
pub const GEN_LATE_LIMIT_MS: f64 = 1.0;

// --- training --------------------------------------------------------------

/// Megacity size and streamed corpus of train's mega phase.
pub const MEGA_SEGMENTS: usize = 50_000;
pub const MEGA_TRIPS: usize = 128;
pub const MEGA_BLOCK_ROWS: usize = 256;
pub const MEGA_BATCH: usize = 32;
pub const MEGA_K_PROXIES: usize = 8;
/// Minibatches trained before timing starts (arena and block warm-up).
pub const MEGA_WARMUP: usize = 1;
/// Minibatches replayed through the traced mirror in every untraced train
/// run, to check it against the library trainer bit for bit.
pub const MIRROR_CHECK_BATCHES: usize = 3;
/// Minibatches of the city phase's cycle in traced runs, as many as the
/// mega phase's store holds.
pub const TRACED_CYCLE: usize = MEGA_TRIPS / MEGA_BATCH;
/// Held-back trips decoded with each freshly trained model on train (the
/// check that training produced a usable model).
pub const HELD_OUT_DECODES: usize = 16;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeSteady,
    ServeLive,
    DecodeBatch,
    Train,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeSteady,
        Workload::ServeLive,
        Workload::DecodeBatch,
        Workload::Train,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSteady => "serve-steady",
            Workload::ServeLive => "serve-live",
            Workload::DecodeBatch => "decode-batch",
            Workload::Train => "train",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload is in the benchmark (`BENCHMARK.json` `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ServeSteady => {
                "online route queries at ordinary load plus capacity: admission, batching, fused step, beam; no feed"
            }
            Workload::ServeLive => {
                "the same layers beside a live feed: ingest, encode-cache invalidation and closed-segment masking under load"
            }
            Workload::DecodeBatch => {
                "offline beam decoding on the larger graph with no serving layer: step kernel and beam undiluted"
            }
            Workload::Train => {
                "Algorithm 1 on a dense small world (shard passes dominate) and a 50k-segment one streamed from disk (clip, Adam, store reads)"
            }
        }
    }
}

/// Whether a larger value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric as `BENCHMARK.json` declares it.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound (share of the parent's median); end-to-end only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload with tracing off. Each
/// bound is max(5 %, the widest max − min over 10 runs of any workload),
/// capped at the 0.25 `BENCHMARK.json` admits; on the host the benchmark
/// was calibrated on, the widest range measured exceeded the cap for both
/// metrics (`benchmark/README.md`, *Bounds*).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_gcycle", "1/Gcycle", Higher, 0.25),
];

/// Per-layer metrics, reported by every workload's traced run. A time that
/// only one workload measures is an extra of that workload instead, since
/// it would read 0 on every run of the others.
pub const PER_LAYER: &[MetricDef] = &[
    layer("sim.setup_ms", "ms", Lower),
    layer("sim.batch_ms", "ms", Lower),
    layer("predict.encode_traffic_us", "us", Lower),
    layer("predict.encode_context_us", "us", Lower),
    layer("predict.session_us", "us", Lower),
    layer("predict.step_us", "us", Lower),
    layer("predict.step_ns_per_row", "ns", Lower),
    layer("predict.rows_per_step", "rows", Higher),
    layer("predict.gather_us", "us", Lower),
    layer("beam.plan_us", "us", Lower),
    layer("beam.apply_us", "us", Lower),
    layer("beam.steps_per_decode", "count", Lower),
    layer("beam.route_len", "count", Lower),
    layer("train.shards_ms", "ms", Lower),
    layer("train.reduce_ms", "ms", Lower),
    layer("train.clip_ms", "ms", Lower),
    layer("train.adam_ms", "ms", Lower),
    layer("train.peak_tape_mib", "MiB", Lower),
    layer("train.grad_blocks", "count", Lower),
    layer("train.mega.peak_tape_mib", "MiB", Lower),
    layer("train.mega.grad_blocks", "count", Lower),
    layer("serve.queue_depth.mean", "count", Lower),
    layer("serve.queue_depth.max", "count", Lower),
    layer("serve.batch_rows.mean", "rows", Higher),
    layer("serve.shed_share", "ratio", Lower),
    layer("serve.deadline_share", "ratio", Lower),
    layer("serve.degraded_share", "ratio", Lower),
    layer("serve.retries", "count", Lower),
    layer("traffic.applied", "count", Higher),
    layer("traffic.cache_hit_ratio", "ratio", Higher),
    layer("traffic.invalidations", "count", Lower),
    layer("traffic.closed_fallbacks", "count", Lower),
    layer("tensor.gemm_gflops", "GFLOP/s", Higher),
    layer("obs.overhead_pct", "%", Lower),
    layer("obs.coverage", "ratio", Higher),
    layer("process.peak_rss_mib", "MiB", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// `BENCHMARK.json` at the repository root declares exactly these
    /// workloads and metrics.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_array)
                .cloned()
                .unwrap_or_default()
        };
        let s = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap_or("").to_string();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (s(w, "name"), s(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = Workload::ALL
            .iter()
            .map(|w| (w.name().into(), w.why().into()))
            .collect();
        assert_eq!(workloads, expected);

        let metrics = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            list(key)
                .iter()
                .map(|m| {
                    (
                        s(m, "name"),
                        s(m, "unit"),
                        s(m, "better"),
                        m.get("bound").and_then(Value::as_f64),
                    )
                })
                .collect()
        };
        let table = |defs: &[MetricDef]| -> Vec<(String, String, String, Option<f64>)> {
            defs.iter()
                .map(|d| {
                    (
                        d.name.into(),
                        d.unit.into(),
                        d.better.name().into(),
                        d.bound,
                    )
                })
                .collect()
        };
        assert_eq!(metrics("end_to_end"), table(END_TO_END));
        assert_eq!(metrics("per_layer"), table(PER_LAYER));
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(DEFAULT_SECONDS as f64)
        );
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        let setup_bound = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .and_then(|d| d.bound);
        let largest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup_bound,
            Some(largest),
            "setup_s must have the largest bound"
        );
    }
}
