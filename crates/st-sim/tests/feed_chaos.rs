//! Feed chaos plan: the live traffic state must converge to the clean
//! stream's state under duplicated, reordered, and past-horizon delivery.
//!
//! This is the deterministic delivery-fault suite for the streaming path:
//! `FeedFaultPlan` (st-core::faultinject) mangles the real dataset-derived
//! feed, and `VersionedTraffic` must reject every faulty delivery while
//! ending bit-identical to the clean replay.

use st_core::faultinject::FeedFaultPlan;
use st_core::livetraffic::{ApplyOutcome, VersionedTraffic};
use st_sim::{CityPreset, Dataset, TrafficFeed};

fn feed() -> TrafficFeed {
    let ds = Dataset::generate(&CityPreset::tiny_test(), 40, 11);
    TrafficFeed::from_dataset(&ds)
}

#[test]
fn mangled_dataset_feed_converges_to_clean_state() {
    let feed = feed();
    let plan = FeedFaultPlan::random(23, feed.len(), 0.1, 0.15, 0.05);
    let mangled = plan.mangle(feed.events(), feed.horizon_slots());
    assert!(mangled.len() > feed.len(), "plan injected no faults");

    let mut clean = VersionedTraffic::with_horizon(feed.horizon_slots());
    for ev in feed.events() {
        assert!(clean.apply(ev).is_applied());
    }

    let mut faulty = VersionedTraffic::with_horizon(feed.horizon_slots());
    let (mut dup, mut ooo, mut past) = (0usize, 0usize, 0usize);
    for ev in &mangled {
        match faulty.apply(ev) {
            ApplyOutcome::Applied { .. } => {}
            ApplyOutcome::Duplicate => dup += 1,
            ApplyOutcome::OutOfOrder => ooo += 1,
            ApplyOutcome::PastHorizon => past += 1,
            ApplyOutcome::Malformed => panic!("only a serving front end reports Malformed"),
        }
    }
    assert!(dup > 0, "no duplicate was delivered");
    assert!(ooo > 0, "no reordering was delivered");
    assert!(past > 0, "no past-horizon straggler was delivered");

    // Convergence: every slot's tensor and high-water seq match the clean
    // replay exactly.
    assert_eq!(clean.touched_slots(), faulty.touched_slots());
    for slot in 0..feed.horizon_slots() {
        assert_eq!(clean.tensor(slot), faulty.tensor(slot), "slot {slot}");
        assert_eq!(clean.last_seq(slot), faulty.last_seq(slot), "slot {slot}");
    }
    assert_eq!(clean.closed_segments(), faulty.closed_segments());
}

#[test]
fn replaying_the_whole_feed_twice_is_idempotent() {
    let feed = feed();
    let mut state = VersionedTraffic::with_horizon(feed.horizon_slots());
    for ev in feed.events() {
        assert!(state.apply(ev).is_applied());
    }
    let version_after_first = state.version();
    // at-least-once delivery: a full redelivery is all duplicates/stale
    for ev in feed.events() {
        assert!(!state.apply(ev).is_applied());
    }
    assert_eq!(
        state.version(),
        version_after_first,
        "version moved on replay"
    );
}
