//! Live traffic event feed: replays the ground-truth process as a stream.
//!
//! The batch pipeline hands models a frozen per-slot tensor table; a real
//! deployment instead *receives* traffic — periodic sensor sweeps, incident
//! reports, closures — while predictions are being served. [`TrafficFeed`]
//! derives that stream from an existing [`Dataset`]: one
//! [`TrafficEventKind::Observation`] per slot (the fleet's sensed tensor),
//! plus [`TrafficEventKind::Incident`] / [`TrafficEventKind::Closure`]
//! events for every street-level incident in the ground-truth
//! [`TrafficModel`](crate::TrafficModel), each carrying the slot tensor
//! perturbed at the affected cell.
//!
//! Events are emitted with strictly increasing `seq` in time order, so the
//! clean stream applies without rejections; delivery faults are layered on
//! top with `st_core::FeedFaultPlan`.

use st_core::livetraffic::{TrafficEvent, TrafficEventKind};
use st_roadnet::{Point, SegmentIndex};

use crate::dataset::{Dataset, SLOT_SECS};

/// Ground-truth severity at which an incident is reported as a closure
/// (a graph edit) rather than a congestion observation.
const CLOSURE_SEVERITY: f64 = 0.92;

/// A deterministic, time-ordered stream of live traffic events derived from
/// a generated dataset.
#[derive(Debug, Clone)]
pub struct TrafficFeed {
    events: Vec<TrafficEvent>,
    horizon_slots: usize,
}

impl TrafficFeed {
    /// Build the feed for a dataset: per-slot observation sweeps plus the
    /// ground-truth street-level incidents (closures from severity
    /// `CLOSURE_SEVERITY` up), time-sorted with dense `seq` numbering.
    pub fn from_dataset(ds: &Dataset) -> Self {
        let horizon_slots = ds.num_slots();
        let mut raw: Vec<TrafficEvent> = Vec::new();
        for slot in 0..horizon_slots {
            raw.push(TrafficEvent {
                seq: 0,
                time: slot as f64 * SLOT_SECS,
                slot,
                kind: TrafficEventKind::Observation,
                tensor: ds.traffic_tensor(slot).to_vec(),
            });
        }
        let index = SegmentIndex::build(&ds.net, 200.0);
        for inc in ds.traffic.incidents() {
            let Some(slot) = ds.try_slot_of(inc.t_start) else {
                continue; // incident starts past the tensor horizon
            };
            let Some(tensor) = perturbed_tensor(ds, slot, &inc.center, inc.severity) else {
                continue; // center fell outside the observation grid
            };
            let kind = if inc.severity >= CLOSURE_SEVERITY {
                match index.nearest(&ds.net, &inc.center) {
                    Some(seg) => TrafficEventKind::Closure { segment: seg },
                    None => TrafficEventKind::Incident,
                }
            } else {
                TrafficEventKind::Incident
            };
            raw.push(TrafficEvent {
                seq: 0,
                // report lands just after onset so it sorts behind the
                // slot's own observation sweep
                time: inc.t_start + 1.0,
                slot,
                kind,
                tensor,
            });
        }
        // Stable time sort, then dense seq assignment: the clean stream is
        // in-order by construction (ties broken by emission order above).
        raw.sort_by(|a, b| a.time.total_cmp(&b.time));
        for (i, ev) in raw.iter_mut().enumerate() {
            ev.seq = i as u64;
        }
        Self {
            events: raw,
            horizon_slots,
        }
    }

    /// The events, time-ordered with strictly increasing `seq`.
    pub fn events(&self) -> &[TrafficEvent] {
        &self.events
    }

    /// Number of traffic slots the feed covers.
    pub fn horizon_slots(&self) -> usize {
        self.horizon_slots
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the feed is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Build a single injected-incident event for time `time` at `center`:
/// the slot's observed tensor with the affected cell overwritten by a
/// crawl-speed reading. Returns `None` if `time` is outside the dataset
/// horizon or `center` is outside the observation grid.
///
/// This is the test/bench hook for decode-under-change: inject one incident,
/// then assert the prediction reacts within a slot.
pub fn incident_event(
    ds: &Dataset,
    seq: u64,
    time: f64,
    center: &Point,
    severity: f64,
) -> Option<TrafficEvent> {
    let slot = ds.try_slot_of(time)?;
    let tensor = perturbed_tensor(ds, slot, center, severity)?;
    Some(TrafficEvent {
        seq,
        time,
        slot,
        kind: TrafficEventKind::Incident,
        tensor,
    })
}

/// The slot tensor with the cell containing `center` overwritten by the
/// incident's crawl speed. `None` if the center is outside the grid.
fn perturbed_tensor(ds: &Dataset, slot: usize, center: &Point, severity: f64) -> Option<Vec<f32>> {
    let c = ds.grid.cell_of(center)?;
    let mut tensor = ds.traffic_tensor(slot).to_vec();
    // Cells read normalized average speed (0 = unobserved). The incident
    // report *is* an observation: an unobserved cell gets a nominal
    // half-speed baseline before the severity cut, and the result is floored
    // above zero so the cell reads "blocked", not "unobserved".
    let prior = if tensor[c] > 0.0 { tensor[c] } else { 0.5 };
    tensor[c] = (prior * (1.0 - severity).max(0.0) as f32).max(0.01);
    Some(tensor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::CityPreset;
    use st_core::livetraffic::VersionedTraffic;

    fn dataset() -> Dataset {
        Dataset::generate(&CityPreset::tiny_test(), 30, 7)
    }

    #[test]
    fn feed_is_time_ordered_with_dense_seqs() {
        let ds = dataset();
        let feed = TrafficFeed::from_dataset(&ds);
        assert!(feed.len() >= ds.num_slots());
        for (i, ev) in feed.events().iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
            assert!(ev.slot < feed.horizon_slots());
            if i > 0 {
                assert!(ev.time >= feed.events()[i - 1].time);
            }
        }
    }

    #[test]
    fn feed_covers_every_slot_and_replays_incidents() {
        let ds = dataset();
        let feed = TrafficFeed::from_dataset(&ds);
        let obs = feed
            .events()
            .iter()
            .filter(|e| matches!(e.kind, TrafficEventKind::Observation))
            .count();
        assert_eq!(obs, ds.num_slots());
        let incidents = feed
            .events()
            .iter()
            .filter(|e| !matches!(e.kind, TrafficEventKind::Observation))
            .count();
        assert!(
            incidents > 0,
            "ground truth has incidents; feed replays none"
        );
    }

    #[test]
    fn clean_feed_applies_without_rejections() {
        let ds = dataset();
        let feed = TrafficFeed::from_dataset(&ds);
        let mut state = VersionedTraffic::with_horizon(feed.horizon_slots());
        for ev in feed.events() {
            assert!(state.apply(ev).is_applied(), "clean event rejected: {ev:?}");
        }
        assert_eq!(state.version(), feed.len() as u64);
        // the last event applied to each slot is what the state holds
        for slot in 0..feed.horizon_slots() {
            let last = feed.events().iter().rev().find(|e| e.slot == slot);
            if let Some(ev) = last {
                assert_eq!(state.tensor(slot), Some(ev.tensor.as_slice()));
            }
        }
    }

    #[test]
    fn incident_event_changes_the_affected_cell() {
        let ds = dataset();
        let center = ds.net.midpoint(0);
        let ev = incident_event(&ds, 99, 1500.0, &center, 0.95).expect("in-range incident");
        assert_eq!(ev.slot, 1);
        let base = ds.traffic_tensor(ev.slot);
        assert_eq!(ev.tensor.len(), base.len());
        let c = ds.grid.cell_of(&center).unwrap();
        assert!(
            (ev.tensor[c] - base[c]).abs() > 1e-6,
            "incident did not change the cell reading"
        );
        // out-of-horizon times are rejected, not clamped
        assert!(incident_event(&ds, 99, 1e12, &center, 0.95).is_none());
    }
}
