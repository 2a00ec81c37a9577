//! A drained trace survives the JSONL writer and passes the validator.
//!
//! `drain` reads the process-wide span counters, and the validator requires
//! every opened span to be closed. This test therefore has a binary of its
//! own: in the library's unit-test binary, span tests on other threads hold
//! spans open while it drains (`span imbalance: N opened vs N-1 closed`).
//! Keep any test that opens spans out of this file.

use st_obs::{drain, event, span, start_recording, validate_jsonl, write_jsonl};

#[test]
fn roundtrip_write_validate() {
    start_recording();
    {
        let _a = span("test/outer");
        let _b = span("test/inner");
        st_obs::counter("test.sink.roundtrip").inc();
        st_obs::gauge("test.sink.gauge").set(3.5);
        st_obs::histogram("test.sink.hist").record(0.125);
        event("unit-event", serde_json::json!({"k": 7}));
    }
    let trace = drain();
    assert!(trace.spans.len() >= 2);
    let path = std::env::temp_dir()
        .join(format!("st-obs-test-{}", std::process::id()))
        .join("roundtrip.jsonl");
    write_jsonl(&path, &serde_json::json!({"bin": "unit-test"}), &trace).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
    let tally = validate_jsonl(&text).unwrap();
    assert!(tally.spans >= 2);
    assert!(tally.counters >= 1);
    assert!(tally.gauges >= 1);
    assert!(tally.histograms >= 1);
    assert!(tally.events >= 1);
    assert_eq!(tally.opened, tally.closed);
}
