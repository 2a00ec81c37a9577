//! Concurrent-batching parity: N requests pushed through the coalescing
//! scheduler must produce routes **bit-identical** to decoding each request
//! serially, one at a time, on a private session.
//!
//! This is the load-bearing correctness property of continuous batching:
//! packing many requests' beam rows into one GEMM, with requests joining
//! and leaving the batch between ticks, must not perturb a single bit of
//! any route.

mod common;

use std::time::Duration;

use st_serve::{Degradation, ServeConfig, Server};

/// Thresholds that never trigger the degradation ladder, so every response
/// decodes at the full configured beam width.
fn no_degradation_cfg(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_cap: 256,
        max_batch_rows: 64,
        default_deadline: Duration::from_secs(30),
        degrade_queue_depth: usize::MAX,
        greedy_queue_depth: usize::MAX,
        degrade_p99_ms: f64::INFINITY,
        greedy_p99_ms: f64::INFINITY,
        ..ServeConfig::default()
    }
}

#[test]
fn batched_routes_are_bit_identical_to_serial_decoding() {
    let (net, model) = common::city_and_model(11);
    let n_seg = net.num_segments();
    // Mixed workload: fresh one-segment queries and continuation queries
    // with multi-segment prefixes, all in flight at once on one worker so
    // their beam rows genuinely share packed steps.
    let mut requests = Vec::new();
    for i in 0..6 {
        let start = (i * 7) % n_seg;
        let target = (n_seg - 1 - i * 5).max(1) % n_seg;
        if start == target {
            continue;
        }
        requests.push(common::request_between(&net, &model, start, target, None));
        requests.push(common::continuation_between(
            &net, &model, start, target, 3, None,
        ));
    }
    let server = Server::new(model.clone(), net.clone(), no_degradation_cfg(1));
    let pending: Vec<_> = requests
        .iter()
        .map(|r| server.enqueue(r.clone()).expect("queue is large enough"))
        .collect();
    let responses: Vec<_> = pending
        .into_iter()
        .map(|p| p.wait().expect("no faults injected"))
        .collect();
    server.shutdown();

    for (req, resp) in requests.iter().zip(&responses) {
        assert_eq!(resp.degradation, Degradation::None);
        assert!(
            net.is_valid_route(&resp.route),
            "served route must be connected"
        );
        assert!(
            resp.route.starts_with(&req.prefix),
            "served route must extend the request prefix"
        );
        let oracle = common::serial_oracle(&net, &model, req, resp.beam_width);
        assert_eq!(
            resp.route, oracle,
            "batched decode diverged from the serial oracle (prefix {:?})",
            req.prefix
        );
    }
}

#[test]
fn parity_holds_across_multiple_workers() {
    let (net, model) = common::city_and_model(12);
    let n_seg = net.num_segments();
    let requests: Vec<_> = (0..8)
        .map(|i| {
            let start = (i * 11) % n_seg;
            let target = (i * 13 + 5) % n_seg;
            common::request_between(&net, &model, start, target.max(1), None)
        })
        .collect();
    let server = Server::new(model.clone(), net.clone(), no_degradation_cfg(2));
    let pending: Vec<_> = requests
        .iter()
        .map(|r| server.enqueue(r.clone()).expect("queue is large enough"))
        .collect();
    for (req, p) in requests.iter().zip(pending) {
        let resp = p.wait().expect("no faults injected");
        let oracle = common::serial_oracle(&net, &model, req, resp.beam_width);
        assert_eq!(resp.route, oracle, "worker {} diverged", resp.worker);
    }
    server.shutdown();
}
