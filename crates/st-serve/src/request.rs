//! Request/response types and the completion channel.
//!
//! The contract the chaos tests pin: **every** enqueued request gets exactly
//! one terminal event — a [`RouteResponse`] or a typed
//! [`ServeError`] — no matter what fails in between.
//! `Responder`'s `Drop` impl is the backstop: if a worker panics (or a
//! code path forgets to reply) while holding a job, dropping the responder
//! delivers a typed `Internal` error instead of leaving the client hung.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use st_roadnet::{Point, Route, SegmentId};

use crate::error::{Degradation, ServeError};

/// A route-prediction query. A one-segment `prefix` asks for a full route
/// from that start; a longer prefix asks for the most likely continuation
/// of a partially observed trip. Either way the engine returns the route
/// `st_baselines::beam_decode_closed` decodes from the same prefix.
#[derive(Debug, Clone)]
pub struct RouteRequest {
    /// Travelled segments so far, in order; must be a connected route.
    pub prefix: Vec<SegmentId>,
    /// Rough destination in meters (drives the termination function).
    pub dest_coord: Point,
    /// Destination normalized to `[0, 1]²` (the encoder's input space).
    pub dest_norm: [f32; 2],
    /// Observed traffic tensor (`grid_h × grid_w`, row-major); required iff
    /// the served model uses the traffic pathway.
    pub traffic: Option<Vec<f32>>,
    /// Time-slot id of `traffic`: the live-feed slot whose revisions replace
    /// `traffic`, and, with `traffic` itself, the encode-cache key. Requests
    /// in the same slot carrying the same tensor share one CNN encode per
    /// worker.
    pub slot_id: usize,
    /// Per-request deadline measured from enqueue; `None` uses the server
    /// default. Expiry anywhere — queue or mid-decode — yields
    /// [`ServeError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
}

/// A completed prediction. `degradation` is part of the API contract:
/// clients must check it to know whether the route was decoded at full
/// quality or under a load-shedding policy (see
/// [`Degradation`]).
#[derive(Debug, Clone)]
pub struct RouteResponse {
    /// The predicted route, starting with the request's prefix. Always a
    /// connected route on the graph, even when degraded.
    pub route: Route,
    /// Quality level the route was decoded at.
    pub degradation: Degradation,
    /// Beam width actually used (1 when `degradation` is `Greedy`).
    pub beam_width: usize,
    /// Times the request was admitted to a worker (>1 means it survived a
    /// contained fault and was retried).
    pub attempts: u32,
    /// Enqueue-to-response wall time.
    pub latency: Duration,
    /// Id of the worker that produced the response.
    pub worker: usize,
    /// Live-traffic version of the request's slot at admission time (0 ⇒
    /// the feed never revised that slot and the request's own tensor was
    /// encoded). Lets clients and tests tell which traffic state a route
    /// was decoded under.
    pub traffic_version: u64,
}

/// Events a request's owner receives. `Admitted` marks the queue→decode
/// transition (it can repeat if a contained fault sends the job back to the
/// queue); `Done` is terminal.
pub(crate) enum JobEvent {
    /// A worker admitted the job into its decode batch.
    Admitted,
    /// Terminal result.
    Done(Result<RouteResponse, ServeError>),
}

/// Client handle for an in-flight request (returned by
/// [`Server::enqueue`](crate::Server::enqueue)).
pub struct PendingResponse {
    rx: mpsc::Receiver<JobEvent>,
}

impl PendingResponse {
    pub(crate) fn recv_event(&self) -> Result<JobEvent, ServeError> {
        self.rx
            .recv()
            .map_err(|_| ServeError::Internal("server dropped the request channel".into()))
    }

    /// Block until the terminal result.
    pub fn wait(self) -> Result<RouteResponse, ServeError> {
        loop {
            match self.recv_event()? {
                JobEvent::Admitted => {}
                JobEvent::Done(r) => return r,
            }
        }
    }

    /// Block until the terminal result or `until`; `None` means the request
    /// is still in flight (the handle stays usable). Load generators use
    /// this to detect hung requests without giving up on them.
    pub fn wait_until(&self, until: Instant) -> Option<Result<RouteResponse, ServeError>> {
        loop {
            let now = Instant::now();
            if now >= until {
                return None;
            }
            match self.rx.recv_timeout(until - now) {
                Ok(JobEvent::Admitted) => {}
                Ok(JobEvent::Done(r)) => return Some(r),
                Err(mpsc::RecvTimeoutError::Timeout) => return None,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Some(Err(ServeError::Internal(
                        "server dropped the request channel".into(),
                    )))
                }
            }
        }
    }
}

/// Worker-side reply handle. Exactly one terminal send happens per request:
/// explicitly via [`Responder::finish`], or — if the holder unwinds or
/// forgets — via `Drop`, which reports a typed internal error rather than
/// hanging the client.
pub(crate) struct Responder {
    tx: mpsc::Sender<JobEvent>,
    finished: bool,
}

impl Responder {
    /// Signal that a worker moved the job from the queue into its batch.
    pub fn admitted(&self) {
        let _ = self.tx.send(JobEvent::Admitted);
    }

    /// Send the terminal result.
    pub fn finish(mut self, result: Result<RouteResponse, ServeError>) {
        self.finished = true;
        let _ = self.tx.send(JobEvent::Done(result));
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.tx.send(JobEvent::Done(Err(ServeError::Internal(
                "request dropped without a response (contained fault)".into(),
            ))));
        }
    }
}

/// Create a linked (responder, pending) pair for one request.
pub(crate) fn response_channel() -> (Responder, PendingResponse) {
    let (tx, rx) = mpsc::channel();
    (
        Responder {
            tx,
            finished: false,
        },
        PendingResponse { rx },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropping_a_responder_yields_a_typed_internal_error() {
        let (responder, pending) = response_channel();
        drop(responder);
        match pending.wait() {
            Err(ServeError::Internal(_)) => {}
            other => panic!("expected Internal, got {other:?}"),
        }
    }

    #[test]
    fn finish_wins_over_drop() {
        let (responder, pending) = response_channel();
        responder.admitted();
        responder.finish(Err(ServeError::Overloaded { queue_depth: 3 }));
        assert!(matches!(
            pending.wait(),
            Err(ServeError::Overloaded { queue_depth: 3 })
        ));
    }

    #[test]
    fn wait_until_times_out_then_still_receives() {
        let (responder, pending) = response_channel();
        let r = pending.wait_until(Instant::now() + Duration::from_millis(5));
        assert!(r.is_none(), "no event yet");
        responder.finish(Err(ServeError::Overloaded { queue_depth: 0 }));
        let r = pending.wait_until(Instant::now() + Duration::from_millis(50));
        assert!(matches!(r, Some(Err(ServeError::Overloaded { .. }))));
    }
}
