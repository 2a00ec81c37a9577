//! One workload run's outcome: attempted and failed operations, output
//! check failures, validity, and its metrics — printed as `name value unit`
//! lines, written as a result file, and summarised in the one-line JSON
//! object the benchmark ends with.

use std::collections::BTreeMap;

use serde_json::{json, Map, Value};
use st_core::DeepSt;

use crate::decode::Passes;
use crate::spec::{Workload, END_TO_END, PER_LAYER, THREADS};
use crate::stats::percentile;
use crate::tracer::Tracer;

/// Deltas of the st-obs counters the serve and traffic layers keep.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub retry: u64,
    pub ingest_applied: u64,
    pub cache_hit: u64,
    pub cache_miss: u64,
    pub cache_invalidate: u64,
    pub closed_fallback: u64,
}

impl Counters {
    pub fn read() -> Counters {
        let c = |name: &str| st_obs::counter(name).get();
        Counters {
            retry: c("serve.retry"),
            ingest_applied: c("serve.traffic_ingest.applied"),
            cache_hit: c("predict.traffic_cache.hit"),
            cache_miss: c("predict.traffic_cache.miss"),
            cache_invalidate: c("predict.traffic_cache.invalidate"),
            closed_fallback: c("decode.closed.fallback"),
        }
    }

    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            retry: self.retry - before.retry,
            ingest_applied: self.ingest_applied - before.ingest_applied,
            cache_hit: self.cache_hit - before.cache_hit,
            cache_miss: self.cache_miss - before.cache_miss,
            cache_invalidate: self.cache_invalidate - before.cache_invalidate,
            closed_fallback: self.closed_fallback - before.closed_fallback,
        }
    }
}

pub struct Outcome {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    invalid: Vec<String>,
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    /// Workload-specific metrics beyond the tables of `BENCHMARK.json`.
    extras: Vec<(String, f64, &'static str)>,
    details: Vec<(String, f64)>,
}

impl Outcome {
    pub fn new(workload: Workload) -> Outcome {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            invalid: Vec::new(),
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            extras: Vec::new(),
            details: Vec::new(),
        }
    }

    pub fn e2e(&mut self, name: &'static str, v: f64) {
        debug_assert!(END_TO_END.iter().any(|m| m.name == name), "{name}");
        self.e2e.insert(name, v);
    }

    pub fn layer(&mut self, name: &'static str, v: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        self.layers.insert(name, v);
    }

    pub fn extra(&mut self, name: &str, v: f64, unit: &'static str) {
        self.extras.push((name.to_string(), v, unit));
    }

    /// Median, p90 and p99 of per-operation times (ascending, ms), with
    /// their sample count.
    pub fn latencies(&mut self, sorted_ms: &[f64]) {
        for (name, q) in [("p50_ms", 0.5), ("p90_ms", 0.9), ("p99_ms", 0.99)] {
            self.extra(name, percentile(sorted_ms, q), "ms");
        }
        self.detail("latency_samples", sorted_ms.len() as f64);
    }

    pub fn detail(&mut self, name: &str, v: f64) {
        self.details.push((name.to_string(), v));
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.e2e
            .get(name)
            .or_else(|| self.layers.get(name))
            .copied()
            .or_else(|| self.extras.iter().find(|e| e.0 == name).map(|e| e.1))
    }

    /// `n` operations failed an output check.
    pub fn fail(&mut self, n: u64, msg: String) {
        self.failed += n;
        self.failures.push(msg);
    }

    pub fn invalid(&mut self, msg: String) {
        self.invalid.push(msg);
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Record set-up: median seconds, whether repetitions agreed, and
    /// minibatches the set-up training skipped.
    pub fn setup(&mut self, secs: f64, agree: bool, skipped: usize) {
        self.e2e("setup_s", secs);
        if !agree {
            self.fail(1, "set-up repetitions trained different models".into());
        }
        if skipped > 0 {
            self.fail(
                skipped as u64,
                format!("set-up training skipped {skipped} minibatches"),
            );
        }
    }

    /// Per-layer metrics of library-vs-traced decode passes; with `obs`,
    /// the passes also give `obs.overhead_pct` and `obs.coverage`.
    pub fn decode_passes(&mut self, p: &Passes, obs: bool) {
        let n = p.decodes.max(1) as f64;
        let rows_per_step = p.rows as f64 / p.steps.max(1) as f64;
        self.decode_layers(
            &p.tracer,
            p.steps as f64 / n,
            rows_per_step,
            p.segments as f64 / n,
        );
        if obs {
            self.layer("obs.overhead_pct", p.overhead_pct());
            self.layer("obs.coverage", p.coverage());
        }
        self.mismatches(p);
    }

    /// Every traced decode of `p` must have decoded the library's route.
    pub fn mismatches(&mut self, p: &Passes) {
        if p.mismatches > 0 {
            self.fail(
                p.mismatches as u64,
                "the traced decode loop's routes differ from beam_decode_from's".into(),
            );
        }
    }

    fn decode_layers(
        &mut self,
        tr: &Tracer,
        steps_per_decode: f64,
        rows_per_step: f64,
        route_len: f64,
    ) {
        let step = tr.acc("predict.step");
        self.layer(
            "predict.encode_traffic_us",
            tr.acc("predict.encode_traffic").mean_us(),
        );
        self.layer(
            "predict.encode_context_us",
            tr.acc("predict.encode_context").mean_us(),
        );
        self.layer("predict.session_us", tr.acc("predict.session").mean_us());
        self.layer("predict.step_us", step.mean_us());
        let rows = rows_per_step * step.count as f64;
        self.layer(
            "predict.step_ns_per_row",
            step.total_ns as f64 / rows.max(1.0),
        );
        self.layer("predict.rows_per_step", rows_per_step);
        self.layer("predict.gather_us", tr.acc("predict.gather").mean_us());
        self.layer("beam.plan_us", tr.acc("beam.plan").mean_us());
        self.layer("beam.apply_us", tr.acc("beam.apply").mean_us());
        self.layer("beam.steps_per_decode", steps_per_decode);
        self.layer("beam.route_len", route_len);
        self.extra("predict.step_us.p50", step.p50_us(), "us");
        self.extra("predict.step_us.p99", step.p99_us(), "us");
    }

    /// Tape and gradient-block footprint of the set-up training.
    pub fn served_training(&mut self, peak_tape_bytes: usize, model: &DeepSt) {
        self.layer(
            "train.peak_tape_mib",
            peak_tape_bytes as f64 / (1024.0 * 1024.0),
        );
        self.layer(
            "train.grad_blocks",
            model.emb_memory().resident_blocks as f64,
        );
    }

    /// Per-layer metrics of traced minibatches of a city-sized world.
    pub fn train_layers(&mut self, tr: &Tracer) {
        let ms = |call: &str| tr.acc(call).mean_us() / 1e3;
        self.layer("train.shards_ms", ms("train.shards"));
        self.layer("train.reduce_ms", ms("train.reduce"));
        self.layer("train.clip_ms", ms("train.clip"));
        self.layer("train.adam_ms", ms("train.adam"));
        self.layer("sim.batch_ms", ms("sim.batch"));
    }

    /// The same calls on train's Megacity phase, as extras: no other
    /// workload makes them, and a per-layer time would read 0 there.
    pub fn mega_train_layers(&mut self, tr: &Tracer) {
        for (name, call) in [
            ("train.mega.shards_ms", "train.shards"),
            ("train.mega.reduce_ms", "train.reduce"),
            ("train.mega.clip_ms", "train.clip"),
            ("train.mega.adam_ms", "train.adam"),
            ("sim.store_read_ms", "sim.batch"),
        ] {
            self.extra(name, tr.acc(call).mean_us() / 1e3, "ms");
        }
    }

    /// Metrics every traced run reports: set-up generation time, the
    /// training layers behind the set-up model (or the measured training)
    /// and the GEMM probe.
    pub fn finish_traced(&mut self, tr: &Tracer) {
        self.layer("sim.setup_ms", tr.acc("sim.setup").total_s() * 1e3);
        if !self.layers.contains_key("train.shards_ms") {
            self.train_layers(tr);
        }
        self.layer("tensor.gemm_gflops", crate::probe::gemm_gflops());
    }

    fn metric_table(&self, traced: bool) -> Map {
        let (defs, values) = if traced {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.e2e)
        };
        defs.iter()
            .map(|d| {
                let v = values.get(d.name).copied().unwrap_or(0.0);
                (d.name.to_string(), json!({"value": v, "unit": d.unit}))
            })
            .collect()
    }

    /// Add the peak RSS once the run is over, and check that an untraced
    /// run measured every end-to-end metric. (A per-layer metric of a layer
    /// the workload does not use reads 0.)
    pub fn finish(&mut self, traced: bool) {
        let rss = st_bench::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0);
        if traced {
            self.layer("process.peak_rss_mib", rss);
            return;
        }
        self.extra("peak_rss_mib", rss, "MiB");
        for d in END_TO_END {
            if !self.e2e.contains_key(d.name) {
                self.fail(1, format!("metric {} was not measured", d.name));
            }
        }
    }

    /// The result line: the last line the benchmark prints.
    pub fn result_line(&self, traced: bool) -> String {
        let v = json!({
            "correct": self.correct(),
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": Value::Obj(self.metric_table(traced)),
        });
        serde_json::to_string(&v).expect("in-memory JSON")
    }

    /// `name value unit` lines for every metric measured.
    pub fn lines(&self, traced: bool) -> Vec<String> {
        let w = self.workload.name();
        let mut out: Vec<String> = Vec::new();
        let table = self.metric_table(traced);
        for (name, v) in table.iter() {
            let value = v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = v.get("unit").and_then(Value::as_str).unwrap_or("");
            out.push(format!("{w}.{name} {value} {unit}"));
        }
        for (name, value, unit) in &self.extras {
            out.push(format!("{w}.{name} {value} {unit}"));
        }
        out.push(format!(
            "{w}.fail_share {} ratio",
            self.failed as f64 / self.attempted.max(1) as f64
        ));
        out
    }

    /// The full result record of this run.
    pub fn result_json(&self, seed: u64, seconds: f64, traced: bool) -> Value {
        let host = st_bench::host_meta();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let valid = cores >= THREADS && self.invalid.is_empty();
        let extras: Map = self
            .extras
            .iter()
            .map(|(n, v, u)| (n.clone(), json!({"value": *v, "unit": *u})))
            .collect();
        let details: Map = self
            .details
            .iter()
            .map(|(n, v)| (n.clone(), json!(*v)))
            .collect();
        let metrics = if cores >= THREADS {
            Value::Obj(self.metric_table(traced))
        } else {
            Value::Null
        };
        json!({
            "workload": self.workload.name(),
            "seed": seed,
            "seconds": seconds,
            "traced": traced,
            "valid": valid,
            "invalid_reasons": Value::Arr(self.invalid.iter().map(|s| json!(s.as_str())).collect()),
            "host": host,
            "thread_budget": THREADS,
            "correct": self.correct(),
            "failures": Value::Arr(self.failures.iter().map(|s| json!(s.as_str())).collect()),
            "attempted": self.attempted,
            "failed": self.failed,
            "fail_share": self.failed as f64 / self.attempted.max(1) as f64,
            "metrics": metrics,
            "extras": Value::Obj(extras),
            "details": Value::Obj(details),
        })
    }
}
