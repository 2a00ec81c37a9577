//! Live-feed ingest at the serving layer: an ingested traffic event must
//! reach predictions at the next scheduler tick, an ingested closure must
//! detour the routes served after it, batched serving must stay
//! bit-identical to serial decoding across the invalidation, and faulty
//! deliveries must be rejected idempotently.

mod common;

use std::time::Duration;

use st_core::livetraffic::{ApplyOutcome, TrafficEvent, TrafficEventKind};
use st_serve::{RouteRequest, ServeConfig, Server};

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

/// A live revision of `slot`: every cell at crawl speed (drastically
/// different from the 0.2-everywhere request tensors the fixtures build).
fn gridlock(seq: u64, slot: usize, cells: usize) -> TrafficEvent {
    TrafficEvent {
        seq,
        time: slot as f64 * 1200.0,
        slot,
        kind: TrafficEventKind::Incident,
        tensor: vec![0.02; cells],
    }
}

/// The request with its traffic tensor replaced by the live revision — what
/// the serial oracle must decode once the feed has revised the slot.
fn with_live_tensor(req: &RouteRequest, ev: &TrafficEvent) -> RouteRequest {
    let mut r = req.clone();
    r.traffic = Some(ev.tensor.clone());
    r
}

#[test]
fn ingest_reaches_predictions_at_the_next_tick() {
    // Model seed picked so the gridlock tensor demonstrably flips at least
    // one of these routes (untrained weights differ in traffic sensitivity).
    let (net, model) = common::city_and_model(41);
    let cells = model.cfg.grid_h * model.cfg.grid_w;
    let n_seg = net.num_segments();
    let requests: Vec<_> = (0..12)
        .map(|i| {
            let start = (i * 7) % n_seg;
            let target = ((i * 13 + 9) % n_seg).max(1);
            common::request_between(&net, &model, start, target, None)
        })
        .collect();
    let server = Server::new(model.clone(), net.clone(), no_degradation_cfg(1));

    // Steady state: responses decode at feed version 0 from the request's
    // own tensor.
    let before: Vec<_> = requests
        .iter()
        .map(|r| server.predict(r.clone()).expect("no faults"))
        .collect();
    for (req, resp) in requests.iter().zip(&before) {
        assert_eq!(resp.traffic_version, 0);
        let oracle = common::serial_oracle(&net, &model, req, resp.beam_width);
        assert_eq!(resp.route, oracle, "steady-state parity broke");
    }

    // Inject the incident. Every request here uses slot 0.
    let ev = gridlock(1, 0, cells);
    assert!(server.ingest_traffic(&ev).is_applied());
    assert_eq!(server.traffic_version(0), 1);

    // The very next predictions decode under the live tensor (version 1),
    // bit-identical to a serial decode of the revised tensor — and at least
    // one route actually changes.
    let after: Vec<_> = requests
        .iter()
        .map(|r| server.predict(r.clone()).expect("no faults"))
        .collect();
    let mut changed = 0;
    for ((req, old), resp) in requests.iter().zip(&before).zip(&after) {
        assert_eq!(resp.traffic_version, 1, "stale traffic context served");
        let oracle =
            common::serial_oracle(&net, &model, &with_live_tensor(req, &ev), resp.beam_width);
        assert_eq!(resp.route, oracle, "post-ingest parity broke");
        if resp.route != old.route {
            changed += 1;
        }
    }
    assert!(changed > 0, "no route reacted to a city-wide gridlock");
    server.shutdown();
}

/// A closure ingested by the server masks its segment at the next
/// admission: after an interior segment of a served route closes, the same
/// request is served a route that avoids it, equal to the serial decode
/// under that closure.
#[test]
fn ingested_closure_detours_served_routes() {
    let (net, model) = common::city_and_model(41);
    let n_seg = net.num_segments();
    let server = Server::new(model.clone(), net.clone(), no_degradation_cfg(1));
    let (req, before) = (0..n_seg)
        .map(|i| {
            let start = (i * 7) % n_seg;
            let target = ((i * 13 + 9) % n_seg).max(1);
            common::request_between(&net, &model, start, target, None)
        })
        .map(|r| {
            let route = server.predict(r.clone()).expect("no faults").route;
            (r, route)
        })
        .find(|(_, route)| route.len() >= 3)
        .expect("some served route has an interior segment");
    let closed = before[before.len() / 2];

    // The closure re-reports the request's own tensor, so only the graph
    // edit changes between the two responses.
    let ev = TrafficEvent {
        seq: 1,
        time: req.slot_id as f64 * 1200.0,
        slot: req.slot_id,
        kind: TrafficEventKind::Closure { segment: closed },
        tensor: req
            .traffic
            .clone()
            .expect("the fixture model reads traffic"),
    };
    assert!(server.ingest_traffic(&ev).is_applied());
    let after = server.predict(req.clone()).expect("no faults");
    server.shutdown();
    assert!(
        !after.route.contains(&closed),
        "served route {:?} still crosses closed segment {closed} (was {before:?})",
        after.route
    );
    let want = common::serial_oracle_closed(&net, &model, &req, after.beam_width, &[closed]);
    assert_eq!(
        after.route, want,
        "served route differs from the closed-set decode"
    );
}

/// The strong parity property across an invalidation tick: requests are in
/// flight *while* the feed event lands, so some admissions bind version 0
/// and some version 1 — and every single response must be bit-identical to
/// the serial decode under the version it reports.
#[test]
fn batched_serving_stays_bit_identical_across_an_invalidation_tick() {
    let (net, model) = common::city_and_model(22);
    let cells = model.cfg.grid_h * model.cfg.grid_w;
    let n_seg = net.num_segments();
    let requests: Vec<_> = (0..12)
        .map(|i| {
            let start = (i * 5) % n_seg;
            let target = ((i * 11 + 3) % n_seg).max(1);
            common::request_between(&net, &model, start, target, None)
        })
        .collect();
    let server = Server::new(model.clone(), net.clone(), no_degradation_cfg(2));
    let ev = gridlock(1, 0, cells);

    // Enqueue everything, then ingest immediately: admission races the
    // feed on purpose.
    let pending: Vec<_> = requests
        .iter()
        .map(|r| server.enqueue(r.clone()).expect("queue is large enough"))
        .collect();
    assert!(server.ingest_traffic(&ev).is_applied());
    let responses: Vec<_> = pending
        .into_iter()
        .map(|p| p.wait().expect("no faults injected"))
        .collect();
    server.shutdown();

    for (req, resp) in requests.iter().zip(&responses) {
        let oracle_req = match resp.traffic_version {
            0 => req.clone(),
            1 => with_live_tensor(req, &ev),
            v => panic!("impossible traffic version {v}"),
        };
        let oracle = common::serial_oracle(&net, &model, &oracle_req, resp.beam_width);
        assert_eq!(
            resp.route, oracle,
            "parity broke across the invalidation tick (version {})",
            resp.traffic_version
        );
    }
}

#[test]
fn faulty_deliveries_are_rejected_idempotently() {
    let (net, model) = common::city_and_model(23);
    let cells = model.cfg.grid_h * model.cfg.grid_w;
    let cfg = ServeConfig {
        traffic_slots: Some(4),
        ..no_degradation_cfg(1)
    };
    let server = Server::new(model, net, cfg);
    let rejected = st_obs::counter("serve.traffic_ingest.rejected").get();

    assert!(server.ingest_traffic(&gridlock(5, 2, cells)).is_applied());
    let v = server.traffic_version(2);
    // duplicate delivery
    assert!(matches!(
        server.ingest_traffic(&gridlock(5, 2, cells)),
        ApplyOutcome::Duplicate
    ));
    // stale (out-of-order) delivery
    assert!(matches!(
        server.ingest_traffic(&gridlock(4, 2, cells)),
        ApplyOutcome::OutOfOrder
    ));
    // past the configured slot horizon
    assert!(matches!(
        server.ingest_traffic(&gridlock(6, 9, cells)),
        ApplyOutcome::PastHorizon
    ));
    assert_eq!(server.traffic_version(2), v, "rejected events moved state");
    assert_eq!(
        st_obs::counter("serve.traffic_ingest.rejected").get(),
        rejected + 3
    );
    server.shutdown();
}
