//! Serving chaos harness: deterministic injected faults — worker panics,
//! poisoned sessions, slow steps, deadline storms, queue overload — must
//! all resolve to typed errors or valid responses. The pinned invariants:
//!
//! - **shed, don't stall**: overload and deadline pressure produce
//!   `Overloaded` / `DeadlineExceeded`, never a hung request;
//! - **no response is ever dropped**: every enqueued request gets exactly
//!   one terminal reply, even through panics and shutdown;
//! - **no process abort**: worker panics are contained and the worker
//!   rebuilds; requests in flight at the fault are retried and post-fault
//!   requests succeed;
//! - **degraded routes are still valid** routes on the graph;
//! - **faults do not change routes**: every route completed under a random
//!   fault plan equals the serial oracle's at the reply's beam width.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use st_core::faultinject::{ServeFaultInjector, ServeFaultPlan};
use st_serve::{Degradation, ServeConfig, ServeError, Server};

/// Every pending handle must resolve within this wall bound, or the test
/// declares the request hung (the failure mode the harness exists to catch).
const HANG_BOUND: Duration = Duration::from_secs(30);

fn one_worker_cfg() -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_cap: 64,
        default_deadline: Duration::from_secs(20),
        retry_backoff: Duration::from_millis(1),
        ..ServeConfig::default()
    }
}

#[test]
fn worker_panic_is_contained_and_request_retried() {
    let (net, model) = common::city_and_model(21);
    let injector = Arc::new(ServeFaultInjector::new(ServeFaultPlan {
        panic_at: vec![1],
        ..ServeFaultPlan::default()
    }));
    let panics_before = st_obs::counter("serve.worker_panic").get();
    let server = Server::with_chaos(
        model.clone(),
        net.clone(),
        one_worker_cfg(),
        Arc::clone(&injector),
    );
    let req = common::request_between(&net, &model, 0, net.num_segments() - 1, None);
    let resp = server
        .predict(req.clone())
        .expect("request must survive a contained worker panic");
    assert!(
        resp.attempts >= 2,
        "the panicked attempt must be retried (attempts = {})",
        resp.attempts
    );
    assert!(net.is_valid_route(&resp.route));
    // Recovery must reproduce the fault-free answer, not an approximation.
    assert_eq!(
        resp.route,
        common::serial_oracle(&net, &model, &req, resp.beam_width)
    );
    assert!(st_obs::counter("serve.worker_panic").get() > panics_before);
    assert_eq!(injector.pending(), 0, "the planned panic fired");

    // Post-fault requests succeed: the worker rebuilt a healthy engine.
    let req2 = common::request_between(&net, &model, 3, 7, None);
    let resp2 = server.predict(req2).expect("post-fault request succeeds");
    assert_eq!(resp2.attempts, 1);
    server.shutdown();
}

#[test]
fn poisoned_session_is_rebuilt_and_request_retried() {
    let (net, model) = common::city_and_model(22);
    let injector = Arc::new(ServeFaultInjector::new(ServeFaultPlan {
        poison_at: vec![0],
        ..ServeFaultPlan::default()
    }));
    let server = Server::with_chaos(
        model.clone(),
        net.clone(),
        one_worker_cfg(),
        Arc::clone(&injector),
    );
    let req = common::request_between(&net, &model, 1, net.num_segments() - 2, None);
    let resp = server
        .predict(req.clone())
        .expect("request must survive a poisoned step");
    assert!(resp.attempts >= 2, "poisoned attempt must be retried");
    assert_eq!(
        resp.route,
        common::serial_oracle(&net, &model, &req, resp.beam_width),
        "recovered decode must match the fault-free oracle"
    );
    server.shutdown();
}

#[test]
fn exhausted_retries_fail_typed_and_server_survives() {
    let (net, model) = common::city_and_model(23);
    // Both allowed attempts panic; the third never happens.
    let injector = Arc::new(ServeFaultInjector::new(ServeFaultPlan {
        panic_at: vec![0, 1],
        ..ServeFaultPlan::default()
    }));
    let cfg = ServeConfig {
        max_retries: 1,
        ..one_worker_cfg()
    };
    let server = Server::with_chaos(model.clone(), net.clone(), cfg, Arc::clone(&injector));
    let req = common::request_between(&net, &model, 2, 9, None);
    match server.predict(req) {
        Err(ServeError::Internal(msg)) => {
            assert!(
                msg.contains("attempts"),
                "message names the retry budget: {msg}"
            )
        }
        other => panic!("expected typed Internal after exhausted retries, got {other:?}"),
    }
    // The process did not abort and the worker still serves.
    let req2 = common::request_between(&net, &model, 4, 11, None);
    assert!(server.predict(req2).is_ok(), "post-fault request succeeds");
    server.shutdown();
}

#[test]
fn deadline_storm_sheds_not_stalls() {
    let (net, model) = common::city_and_model(24);
    // Every early tick stalls 25 ms; requests carry 10 ms deadlines. The
    // correct behaviour is a storm of typed DeadlineExceeded errors, not a
    // wedged server.
    let injector = Arc::new(ServeFaultInjector::new(ServeFaultPlan {
        slow_at: (0..200).collect(),
        slow_ms: 25,
        ..ServeFaultPlan::default()
    }));
    let server = Server::with_chaos(
        model.clone(),
        net.clone(),
        one_worker_cfg(),
        Arc::clone(&injector),
    );
    let n_seg = net.num_segments();
    let pending: Vec<_> = (0..16)
        .filter_map(|i| {
            let req = common::request_between(
                &net,
                &model,
                i % n_seg,
                (i * 3 + 1) % n_seg,
                Some(Duration::from_millis(10)),
            );
            server.enqueue(req).ok()
        })
        .collect();
    assert!(!pending.is_empty());
    let bound = Instant::now() + HANG_BOUND;
    let mut deadline_errors = 0usize;
    for p in pending {
        match p.wait_until(bound) {
            None => panic!("request hung past the wall bound — stall, not shed"),
            Some(Err(ServeError::DeadlineExceeded { .. })) => deadline_errors += 1,
            Some(Err(ServeError::Internal(_))) | Some(Err(ServeError::Overloaded { .. })) => {}
            Some(Err(e)) => panic!("unexpected error class: {e}"),
            Some(Ok(resp)) => assert!(net.is_valid_route(&resp.route)),
        }
    }
    assert!(
        deadline_errors > 0,
        "a 10 ms deadline under 25 ms stalls must expire for some requests"
    );
    // After the storm the server still answers at full quality.
    let calm = common::request_between(&net, &model, 0, n_seg - 1, None);
    assert!(server.predict(calm).is_ok());
    server.shutdown();
}

#[test]
fn overload_sheds_with_typed_errors_and_degrades_valid_routes() {
    let (net, model) = common::city_and_model(25);
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 8,
        max_batch_rows: 16,
        degrade_queue_depth: 2,
        greedy_queue_depth: 5,
        default_deadline: Duration::from_secs(20),
        ..ServeConfig::default()
    };
    let server = Server::new(model.clone(), net.clone(), cfg);
    let n_seg = net.num_segments();
    let mut shed = 0usize;
    let mut pending = Vec::new();
    let mut reqs = Vec::new();
    for i in 0..64 {
        let req = common::request_between(&net, &model, (i * 5) % n_seg, (i * 7 + 2) % n_seg, None);
        match server.enqueue(req.clone()) {
            Ok(p) => {
                pending.push(p);
                reqs.push(req);
            }
            Err(ServeError::Overloaded { .. }) => shed += 1,
            Err(e) => panic!("unexpected enqueue error: {e}"),
        }
    }
    assert!(shed > 0, "a 64-burst against queue_cap=8 must shed");
    let bound = Instant::now() + HANG_BOUND;
    let mut degraded = 0usize;
    for (req, p) in reqs.iter().zip(pending) {
        let resp = p
            .wait_until(bound)
            .expect("request hung past the wall bound")
            .expect("admitted requests complete");
        assert!(
            net.is_valid_route(&resp.route),
            "degraded or not, served routes are connected routes"
        );
        assert!(resp.route.starts_with(&req.prefix));
        if resp.degradation != Degradation::None {
            degraded += 1;
            // A degraded response is still exact for its (narrower) beam.
            assert_eq!(
                resp.route,
                common::serial_oracle(&net, &model, req, resp.beam_width)
            );
        }
    }
    assert!(
        degraded > 0,
        "queue depth over the ladder thresholds must degrade some responses"
    );
    server.shutdown();
}

#[test]
fn bad_requests_are_rejected_before_queueing() {
    let (net, model) = common::city_and_model(26);
    let server = Server::new(model.clone(), net.clone(), one_worker_cfg());
    let good = common::request_between(&net, &model, 0, 5, None);

    let mut empty = good.clone();
    empty.prefix = vec![];
    assert!(matches!(
        server.enqueue(empty),
        Err(ServeError::BadRequest(_))
    ));

    let mut disconnected = good.clone();
    disconnected.prefix = vec![0, 0];
    assert!(matches!(
        server.enqueue(disconnected),
        Err(ServeError::BadRequest(_))
    ));

    let mut oob = good.clone();
    oob.prefix = vec![net.num_segments() + 10];
    assert!(matches!(
        server.enqueue(oob),
        Err(ServeError::BadRequest(_))
    ));

    let mut no_traffic = good.clone();
    no_traffic.traffic = None;
    assert!(matches!(
        server.enqueue(no_traffic),
        Err(ServeError::BadRequest(_))
    ));

    let mut bad_grid = good.clone();
    bad_grid.traffic = Some(vec![0.0; 3]);
    assert!(matches!(
        server.enqueue(bad_grid),
        Err(ServeError::BadRequest(_))
    ));

    let mut nan_cell = good.clone();
    nan_cell
        .traffic
        .as_mut()
        .expect("the fixture model reads traffic")[7] = f32::NAN;
    assert!(matches!(
        server.enqueue(nan_cell),
        Err(ServeError::BadRequest(_))
    ));

    let mut nan_dest = good.clone();
    nan_dest.dest_norm = [f32::NAN, 0.5];
    assert!(matches!(
        server.enqueue(nan_dest),
        Err(ServeError::BadRequest(_))
    ));

    // The good request still works after all the rejects.
    assert!(server.predict(good).is_ok());
    server.shutdown();
}

#[test]
fn shutdown_drains_queue_with_typed_errors() {
    let (net, model) = common::city_and_model(27);
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 64,
        max_batch_rows: 8,
        default_deadline: Duration::from_secs(20),
        ..ServeConfig::default()
    };
    let server = Server::new(model.clone(), net.clone(), cfg);
    let n_seg = net.num_segments();
    let pending: Vec<_> = (0..32)
        .filter_map(|i| {
            let req = common::request_between(&net, &model, (i * 3) % n_seg, (i + 1) % n_seg, None);
            server.enqueue(req).ok()
        })
        .collect();
    server.shutdown();
    let bound = Instant::now() + HANG_BOUND;
    for p in pending {
        match p.wait_until(bound) {
            None => panic!("request hung across shutdown"),
            Some(Ok(resp)) => assert!(net.is_valid_route(&resp.route)),
            Some(Err(
                ServeError::Overloaded { .. }
                | ServeError::Internal(_)
                | ServeError::DeadlineExceeded { .. },
            )) => {}
            Some(Err(e)) => panic!("unexpected error class at shutdown: {e}"),
        }
    }
}

#[test]
fn random_chaos_plan_never_hangs_a_request() {
    let (net, model) = common::city_and_model(28);
    // Seeded mixed fault soup over the first 400 ticks.
    let plan = ServeFaultPlan::random(99, 400, 0.05, 0.02, 0.02, 5);
    let injector = Arc::new(ServeFaultInjector::new(plan));
    let cfg = ServeConfig {
        workers: 2,
        queue_cap: 32,
        retry_backoff: Duration::from_millis(1),
        default_deadline: Duration::from_secs(20),
        ..ServeConfig::default()
    };
    let server = Server::with_chaos(model.clone(), net.clone(), cfg, injector);
    let n_seg = net.num_segments();
    let pending: Vec<_> = (0..24)
        .filter_map(|i| {
            let req =
                common::request_between(&net, &model, (i * 7) % n_seg, (i * 11 + 3) % n_seg, None);
            server.enqueue(req.clone()).ok().map(|p| (req, p))
        })
        .collect();
    let bound = Instant::now() + HANG_BOUND;
    let mut completed = 0usize;
    for (req, p) in pending {
        match p.wait_until(bound) {
            None => panic!("request hung under random chaos"),
            Some(Ok(resp)) => {
                assert!(net.is_valid_route(&resp.route));
                // Retried, slowed and degraded replies alike decode exactly
                // as one request alone at the width the reply reports.
                assert_eq!(
                    resp.route,
                    common::serial_oracle(&net, &model, &req, resp.beam_width),
                    "route completed under chaos differs from the serial oracle \
                     (beam {}, {:?}, attempt {})",
                    resp.beam_width,
                    resp.degradation,
                    resp.attempts
                );
                completed += 1;
            }
            Some(Err(
                ServeError::Internal(_)
                | ServeError::DeadlineExceeded { .. }
                | ServeError::Overloaded { .. },
            )) => {}
            Some(Err(e)) => panic!("unexpected error class: {e}"),
        }
    }
    assert!(
        completed > 0,
        "chaos at these rates must not fail everything"
    );
    server.shutdown();
}
