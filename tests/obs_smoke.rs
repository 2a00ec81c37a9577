//! Observability smoke test: a short traced train + predict + eval run must
//! produce a balanced, schema-valid JSONL trace.
//!
//! Everything lives in ONE test function: `st-obs` state (recording flag,
//! span buffer, metric registry) is process-global, so concurrent tests in
//! this binary would interleave their spans.

use deepst::baselines::{greedy_decode, DeepStDecoder, DeepStPredictor, Predictor};
use deepst::eval::{build_examples, evaluate_methods, train_deepst, SuiteConfig, DISTANCE_BUCKETS};
use deepst::obs;
use deepst::sim::{CityPreset, Dataset};

#[test]
fn traced_pipeline_emits_valid_balanced_jsonl() {
    obs::start_recording();

    // ---- train (tiny but real: spans for fit/epoch/batch, loss gauges) ----
    let ds = Dataset::generate(&CityPreset::tiny_test(), 200, 99);
    let split = ds.default_split();
    let train = build_examples(&ds, &split.train);
    let cfg = SuiteConfig {
        deepst_epochs: 2,
        seed: 99,
        ..SuiteConfig::default()
    };
    let model = train_deepst(&ds, &train, None, &cfg, true).expect("DeepST training failed");

    // ---- predict (greedy decode span + termination counters) ----
    let trip = &ds.trips[split.test[0]];
    let slot = ds.slot_of(trip.start_time);
    let ctx = model.encode_context(
        ds.unit_coord(&trip.dest_coord),
        Some(model.encode_traffic(ds.traffic_tensor(slot))),
    );
    let route = greedy_decode(
        &ds.net,
        &mut DeepStDecoder::new(&model, &ctx),
        trip.origin_segment(),
        &trip.dest_coord,
        model.cfg.max_route_len,
    );
    assert!(ds.net.is_valid_route(&route));

    // ---- eval (beam decode spans + bucket-drop accounting) ----
    let methods: Vec<Box<dyn Predictor>> = vec![Box::new(DeepStPredictor::new(model))];
    let summary = evaluate_methods(&ds, &methods, &split.test, &DISTANCE_BUCKETS, Some(6));
    assert_eq!(summary.evaluated, 6);

    obs::stop_recording();
    let trace = obs::drain();

    // Span accounting must balance at quiescence and nothing may be dropped
    // in a run this small.
    assert_eq!(trace.spans_opened, trace.spans_closed, "span imbalance");
    assert_eq!(trace.spans_dropped, 0);
    assert!(!trace.spans.is_empty());

    let names: std::collections::BTreeSet<&str> =
        trace.spans.iter().map(|s| s.name.as_ref()).collect();
    for expected in [
        "train/fit",
        "train/epoch",
        "train/batch",
        "train/shard",
        "decode/greedy",
        "decode/beam",
        "eval/methods",
    ] {
        assert!(names.contains(expected), "missing span {expected:?}");
    }

    // The training path must have exported its gauges.
    let metric_names: Vec<&str> = trace
        .metrics
        .iter()
        .map(|m| match m {
            obs::MetricSnapshot::Counter { name, .. } => name.as_str(),
            obs::MetricSnapshot::Gauge { name, .. } => name.as_str(),
            obs::MetricSnapshot::Histogram { name, .. } => name.as_str(),
        })
        .collect();
    assert!(metric_names.contains(&"train.batch_loss"));
    assert!(metric_names.contains(&"train.grad_norm"));

    // Every beam decode ends complete or in the fallback, and counts it.
    let beam_outcomes: u64 = trace
        .metrics
        .iter()
        .filter_map(|m| match m {
            obs::MetricSnapshot::Counter { name, value }
                if name == "decode.beam.complete" || name == "decode.beam.fallback" =>
            {
                Some(*value)
            }
            _ => None,
        })
        .sum();
    assert!(
        beam_outcomes >= summary.evaluated as u64,
        "{beam_outcomes} beam outcomes counted for {} evaluated trips",
        summary.evaluated
    );

    // ---- write, read back, validate against the schema ----
    let path = std::env::temp_dir().join(format!("st_obs_smoke_{}.jsonl", std::process::id()));
    let run_meta = serde_json::json!({"bin": "obs_smoke_test"});
    obs::write_jsonl(&path, &run_meta, &trace).expect("write trace");
    let text = std::fs::read_to_string(&path).expect("read trace back");
    let summary = obs::validate_jsonl(&text).expect("trace must validate");
    assert_eq!(summary.opened, summary.closed);
    assert_eq!(summary.spans, trace.spans.len());
    assert!(summary.gauges + summary.counters >= 3);
    let _ = std::fs::remove_file(&path);
}
