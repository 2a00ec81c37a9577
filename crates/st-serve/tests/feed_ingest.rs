//! Live-feed ingest at the serving layer: an ingested traffic event must
//! reach predictions at the next scheduler tick and leave other slots'
//! predictions alone, an ingested closure must detour the routes served
//! after it, batched serving must stay bit-identical to serial decoding
//! across the invalidation, and faulty deliveries — malformed tensors
//! included — must be rejected idempotently.

mod common;

use std::time::Duration;

use st_core::livetraffic::{ApplyOutcome, TrafficEvent, TrafficEventKind};
use st_core::DeepSt;
use st_roadnet::RoadNetwork;
use st_serve::{RouteRequest, RouteResponse, ServeConfig, Server};

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

/// Twelve requests in traffic slot `slot` between spread-out segments.
fn requests_in_slot(net: &RoadNetwork, model: &DeepSt, slot: usize) -> Vec<RouteRequest> {
    let n_seg = net.num_segments();
    (0..12)
        .map(|i| {
            let start = (i * 7) % n_seg;
            let target = ((i * 13 + 9) % n_seg).max(1);
            let mut r = common::request_between(net, model, start, target, None);
            r.slot_id = slot;
            r
        })
        .collect()
}

/// Serve the requests one at a time.
fn serve_each(server: &Server, requests: &[RouteRequest]) -> Vec<RouteResponse> {
    requests
        .iter()
        .map(|r| server.predict(r.clone()).expect("no faults"))
        .collect()
}

#[test]
fn ingest_reaches_predictions_at_the_next_tick() {
    // Model seed picked so the gridlock tensor demonstrably flips at least
    // one of these routes (untrained weights differ in traffic sensitivity).
    let (net, model) = common::city_and_model(41);
    let cells = model.cfg.grid_h * model.cfg.grid_w;
    let requests = requests_in_slot(&net, &model, 0);
    let server = Server::new(model.clone(), net.clone(), no_degradation_cfg(1));

    // Steady state: responses decode at feed version 0 from the request's
    // own tensor.
    let before = serve_each(&server, &requests);
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
    let after = serve_each(&server, &requests);
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

/// Events for other slots leave a slot's served routes and the traffic
/// version its responses report unchanged: the encode cache and the
/// reported version are keyed by the request's own slot. The same event on
/// the slot itself then does change a route, so the requests are ones
/// traffic can move.
#[test]
fn events_for_other_slots_leave_a_slots_routes_alone() {
    let (net, model) = common::city_and_model(41);
    let cells = model.cfg.grid_h * model.cfg.grid_w;
    let slot = 2;
    let requests = requests_in_slot(&net, &model, slot);
    let server = Server::new(model, net, no_degradation_cfg(1));
    let before = serve_each(&server, &requests);

    for (seq, other) in [0usize, 1, 3, 4, 5].into_iter().enumerate() {
        assert!(server
            .ingest_traffic(&gridlock(seq as u64 + 1, other, cells))
            .is_applied());
    }
    let after = serve_each(&server, &requests);
    assert_eq!(
        server.traffic_version(slot),
        0,
        "slot {slot} was never revised"
    );
    for (old, new) in before.iter().zip(&after) {
        assert_eq!(new.traffic_version, 0, "reported another slot's revision");
        assert_eq!(new.route, old.route, "another slot's event changed a route");
    }

    assert!(server
        .ingest_traffic(&gridlock(6, slot, cells))
        .is_applied());
    let revised = serve_each(&server, &requests);
    server.shutdown();
    assert!(
        before.iter().zip(&revised).any(|(b, r)| b.route != r.route),
        "no route in slot {slot} reacted to its own gridlock"
    );
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
    let server = Server::new(model.clone(), net.clone(), cfg);
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
    // tensors the model cannot read: too few cells, or a NaN cell
    let mut nan = gridlock(8, 2, cells);
    nan.tensor[5] = f32::NAN;
    for ev in [gridlock(7, 2, 3), nan] {
        assert!(matches!(
            server.ingest_traffic(&ev),
            ApplyOutcome::Malformed
        ));
    }
    assert_eq!(server.traffic_version(2), v, "rejected events moved state");
    assert_eq!(
        st_obs::counter("serve.traffic_ingest.rejected").get(),
        rejected + 5
    );
    // and the slot still serves, under the last well-formed revision
    let mut req = common::request_between(&net, &model, 0, 5, None);
    req.slot_id = 2;
    let resp = server.predict(req).expect("the slot still serves");
    assert_eq!(resp.traffic_version, v);
    server.shutdown();
}
