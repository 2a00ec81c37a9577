//! Live-traffic state: versioned per-slot tensors and a version-keyed
//! encoding cache with *targeted* invalidation.
//!
//! The paper's load-bearing signal is real-time traffic (§I: a congested
//! street the driver detours around). A long-running service therefore
//! cannot treat a slot's traffic tensor as immutable: a live incident, a
//! road closure, or a day-boundary wrap revises the tensor of a slot that
//! was already observed — and any per-slot encoding cached under `slot_id`
//! alone silently serves a stale `C` from then on.
//!
//! This module makes that staleness structurally impossible:
//!
//! - [`TrafficEvent`] — a timestamped, sequence-numbered revision of one
//!   slot's observed tensor, as emitted by the simulator's feed
//!   (`st-sim::feed::TrafficFeed`) or a real ingest endpoint.
//! - [`VersionedTraffic`] — the authoritative mutable state: per-slot
//!   tensors with a **monotonic version** that bumps on every applied
//!   change. Application is idempotent (duplicate events are no-ops) and
//!   per-slot ordered (an out-of-order older event never overwrites newer
//!   state), so at-least-once delivery over a lossy transport converges.
//!   Past-horizon events are rejected with a typed outcome instead of
//!   silently clamping.
//! - [`TrafficCache`] — a bounded LRU of per-slot *encodings* keyed by
//!   `(slot, version)` and the bits of the encoded tensor. A lookup at a
//!   newer version, or with another tensor, evicts exactly that slot —
//!   never a full flush — observable via the
//!   `predict.traffic_cache.{hit,miss,invalidate}` counters.
//!
//! Feed-application outcomes are observable via the
//! `traffic.feed.{applied,duplicate,out_of_order,past_horizon}` counters.
//!
//! See DESIGN.md §15 for the streaming architecture.

use std::collections::BTreeMap;

use st_tensor::Array;

/// What kind of ground-truth change produced a [`TrafficEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrafficEventKind {
    /// A fresh fleet observation of the slot (periodic sensing).
    Observation,
    /// A street-level incident (accident, sudden congestion) revised the
    /// slot's observed speeds.
    Incident,
    /// A temporary closure of `segment` — a graph edit. The revised tensor
    /// reflects near-zero observed speed around the segment; the closed-set
    /// is additionally tracked in [`VersionedTraffic::closed_segments`].
    Closure {
        /// The closed road segment.
        segment: usize,
    },
}

/// One timestamped revision of a traffic slot's observed tensor.
#[derive(Debug, Clone)]
pub struct TrafficEvent {
    /// Feed sequence number: strictly increasing at the producer. The
    /// idempotence key — a redelivered `seq` is a no-op, and a `seq` older
    /// than the slot's last applied one is rejected as out-of-order.
    pub seq: u64,
    /// Simulation time (s) the revision takes effect.
    pub time: f64,
    /// The traffic slot whose tensor this event revises.
    pub slot: usize,
    /// What caused the revision.
    pub kind: TrafficEventKind,
    /// The revised observed tensor (`[grid_h × grid_w]`, row-major).
    pub tensor: Vec<f32>,
}

/// Typed outcome of applying a [`TrafficEvent`] to [`VersionedTraffic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// The event revised `slot`; the state's monotonic version is now
    /// `version` and stale cached encodings of `slot` must be discarded.
    Applied {
        /// The revised slot.
        slot: usize,
        /// The state's new global version (also the slot's version).
        version: u64,
    },
    /// The event's `seq` was already applied to its slot (redelivery).
    Duplicate,
    /// An event with a newer `seq` was already applied to the slot; this
    /// older revision is obsolete and must not overwrite it.
    OutOfOrder,
    /// The event's slot lies beyond the configured horizon — the feed ran
    /// past the simulated world. Rejected loudly instead of clamped.
    PastHorizon,
    /// The event's tensor is not the model's `grid_h × grid_w` finite
    /// cells. The serving front end rejects it before it reaches
    /// [`VersionedTraffic`], which does not know the grid.
    Malformed,
}

impl ApplyOutcome {
    /// Whether the event changed the state.
    pub fn is_applied(&self) -> bool {
        matches!(self, ApplyOutcome::Applied { .. })
    }
}

/// Per-slot applied state.
#[derive(Debug, Clone)]
struct SlotState {
    /// Global version at which this slot was last revised.
    version: u64,
    /// Sequence number of the last applied event for this slot.
    last_seq: u64,
    /// The slot's current tensor.
    tensor: Vec<f32>,
}

/// Authoritative live-traffic state: per-slot tensors with a monotonic
/// version, idempotent per-slot-ordered event application, and typed
/// rejection of past-horizon events.
///
/// All collections are `BTreeMap`-backed so iteration (and therefore any
/// derived output) is deterministic, per st-lint's `hash-iteration-order`
/// rule.
#[derive(Debug, Default)]
pub struct VersionedTraffic {
    /// Monotonic global version; bumps once per applied event.
    version: u64,
    /// `None` = unbounded (no horizon check).
    horizon_slots: Option<usize>,
    slots: BTreeMap<usize, SlotState>,
    /// Segments under a closure event, keyed by segment with the highest
    /// closure seq seen. Closures are graph edits — monotone facts — so they
    /// register independently of per-slot tensor ordering: a closure swapped
    /// behind a later same-slot event must not be lost.
    closed: BTreeMap<usize, u64>,
}

impl VersionedTraffic {
    /// Empty state with no horizon bound (any slot id accepted).
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty state rejecting events whose slot is `>= horizon_slots` with
    /// [`ApplyOutcome::PastHorizon`].
    pub fn with_horizon(horizon_slots: usize) -> Self {
        Self {
            horizon_slots: Some(horizon_slots),
            ..Self::default()
        }
    }

    /// The global monotonic version (0 until the first applied event).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The version at which `slot` was last revised, or 0 if the feed has
    /// never touched it (so a feed-less deployment keys its cache at 0 and
    /// behaves exactly like the pre-streaming system).
    pub fn slot_version(&self, slot: usize) -> u64 {
        self.slots.get(&slot).map_or(0, |s| s.version)
    }

    /// The live tensor for `slot`, if the feed has revised it.
    pub fn tensor(&self, slot: usize) -> Option<&[f32]> {
        self.slots.get(&slot).map(|s| s.tensor.as_slice())
    }

    /// Sequence number of the last event applied to `slot`, or `None` if
    /// untouched.
    pub fn last_seq(&self, slot: usize) -> Option<u64> {
        self.slots.get(&slot).map(|s| s.last_seq)
    }

    /// Number of slots the feed has revised.
    pub fn touched_slots(&self) -> usize {
        self.slots.len()
    }

    /// Segments currently closed by a [`TrafficEventKind::Closure`] event,
    /// in ascending segment order.
    pub fn closed_segments(&self) -> Vec<usize> {
        self.closed.keys().copied().collect()
    }

    /// Apply one feed event. Returns a typed outcome; every rejection is
    /// also counted (`traffic.feed.*`) so a misbehaving feed is visible.
    pub fn apply(&mut self, ev: &TrafficEvent) -> ApplyOutcome {
        if let Some(h) = self.horizon_slots {
            if ev.slot >= h {
                st_obs::counter("traffic.feed.past_horizon").inc();
                return ApplyOutcome::PastHorizon;
            }
        }
        // Closure facts register before the per-slot ordering check: a
        // closure reordered behind a later same-slot tensor update is stale
        // *as a tensor* but still a real graph edit. Guarded by its own seq
        // per segment, so duplicates and reorderings stay idempotent.
        if let TrafficEventKind::Closure { segment } = ev.kind {
            let high = self.closed.entry(segment).or_insert(ev.seq);
            if ev.seq > *high {
                *high = ev.seq;
            }
        }
        if let Some(state) = self.slots.get(&ev.slot) {
            if ev.seq == state.last_seq {
                st_obs::counter("traffic.feed.duplicate").inc();
                return ApplyOutcome::Duplicate;
            }
            if ev.seq < state.last_seq {
                st_obs::counter("traffic.feed.out_of_order").inc();
                return ApplyOutcome::OutOfOrder;
            }
        }
        self.version += 1;
        self.slots.insert(
            ev.slot,
            SlotState {
                version: self.version,
                last_seq: ev.seq,
                tensor: ev.tensor.clone(),
            },
        );
        st_obs::counter("traffic.feed.applied").inc();
        ApplyOutcome::Applied {
            slot: ev.slot,
            version: self.version,
        }
    }
}

/// The capacity of the traffic caches the predictor and each serving
/// worker keep: one day of the paper's 20-minute slots, so a long-running
/// process does not grow with the number of distinct slots it has seen.
pub const TRAFFIC_CACHE_CAP: usize = 72;

/// One cached slot encoding.
#[derive(Debug)]
struct CacheEntry {
    /// Slot version the encoding was computed at.
    version: u64,
    /// Bits of the tensor that was encoded (empty for an entry made by
    /// [`TrafficCache::get_or_encode`]).
    tensor: Vec<u32>,
    /// Recency stamp (monotonic per-cache tick); smallest = LRU victim.
    used: u64,
    /// The encoded traffic latent `C`.
    enc: Array,
}

/// Bounded LRU of per-slot traffic *encodings*, keyed by slot with the
/// slot's [`VersionedTraffic`] version and the encoded tensor's bits as
/// part of the logical key.
///
/// Lookup is `O(log n)` via `BTreeMap`; eviction scans for the
/// least-recently-used entry only when the cache is full (rare, and `cap`
/// is small). LRU order is exact: every hit refreshes the entry's recency
/// stamp.
///
/// Invalidation is **targeted**: a version or tensor mismatch evicts
/// exactly that slot's entry (counted as `predict.traffic_cache.invalidate`);
/// other slots' encodings are untouched — never a full flush.
///
/// Every hit, miss and invalidation is counted twice: in the process-wide
/// `predict.traffic_cache.{hit,miss,invalidate}` counters that serving and
/// benchmarks read, and in this cache's own [`TrafficCache::counts`],
/// which no other cache moves.
#[derive(Debug)]
pub struct TrafficCache {
    cap: usize,
    tick: u64,
    entries: BTreeMap<usize, CacheEntry>,
    counts: CacheCounts,
}

/// Lookups and invalidations of one [`TrafficCache`] since it was built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that encoded (absent or stale entry).
    pub misses: u64,
    /// Stale entries evicted at lookup.
    pub invalidations: u64,
}

impl TrafficCache {
    /// An empty cache holding at most `cap` encodings.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "traffic cache capacity must be at least 1");
        Self {
            cap,
            tick: 0,
            entries: BTreeMap::new(),
            counts: CacheCounts::default(),
        }
    }

    /// This cache's hits, misses and invalidations so far.
    pub fn counts(&self) -> CacheCounts {
        self.counts
    }

    /// Number of cached encodings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The version the cached encoding of `slot` was computed at, if cached.
    pub fn cached_version(&self, slot: usize) -> Option<u64> {
        self.entries.get(&slot).map(|e| e.version)
    }

    /// Look up the encoding of `tensor`, the traffic of `slot` at
    /// `version`, encoding it with `encode` (and caching it) on a miss. A
    /// cached entry of the slot at a *different* version, or of different
    /// tensor bits, is evicted first (targeted invalidation) and
    /// re-encoded, so a hit always returns the encoding of `tensor` itself.
    pub fn get_or_encode_tensor(
        &mut self,
        slot: usize,
        version: u64,
        tensor: &[f32],
        encode: impl FnOnce() -> Array,
    ) -> Array {
        self.tick += 1;
        if let Some(e) = self.entries.get_mut(&slot) {
            let bits = tensor.iter().map(|v| v.to_bits());
            if e.version == version && e.tensor.iter().copied().eq(bits) {
                st_obs::counter("predict.traffic_cache.hit").inc();
                self.counts.hits += 1;
                e.used = self.tick;
                return e.enc.clone();
            }
            // Stale: the slot's version moved, or this lookup carries
            // another tensor. Evict exactly this entry and fall through to a
            // fresh encode.
            st_obs::counter("predict.traffic_cache.invalidate").inc();
            self.counts.invalidations += 1;
            self.entries.remove(&slot);
        }
        st_obs::counter("predict.traffic_cache.miss").inc();
        self.counts.misses += 1;
        let enc = encode();
        if self.entries.len() >= self.cap {
            self.evict_lru();
        }
        self.entries.insert(
            slot,
            CacheEntry {
                version,
                tensor: tensor.iter().map(|v| v.to_bits()).collect(),
                used: self.tick,
                enc: enc.clone(),
            },
        );
        enc
    }

    /// [`Self::get_or_encode_tensor`] keyed by `(slot, version)` alone, for
    /// a caller whose every lookup of a slot at one version carries the
    /// same tensor.
    pub fn get_or_encode(
        &mut self,
        slot: usize,
        version: u64,
        encode: impl FnOnce() -> Array,
    ) -> Array {
        self.get_or_encode_tensor(slot, version, &[], encode)
    }

    fn evict_lru(&mut self) {
        // BTreeMap iteration is ordered by slot id, so ties on `used`
        // (impossible by construction — ticks are unique) would still
        // resolve deterministically.
        let victim = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.used)
            .map(|(&slot, _)| slot);
        if let Some(slot) = victim {
            self.entries.remove(&slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by the tests that assert deltas of the process-wide
    /// `traffic.feed.*` counters and by the property test, whose deliveries
    /// move every one of them.
    static FEED_COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn feed_counters() -> std::sync::MutexGuard<'static, ()> {
        FEED_COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn ev(seq: u64, slot: usize, fill: f32) -> TrafficEvent {
        TrafficEvent {
            seq,
            time: seq as f64,
            slot,
            kind: TrafficEventKind::Observation,
            tensor: vec![fill; 4],
        }
    }

    fn enc(fill: f32) -> Array {
        Array::from_vec(&[2], vec![fill; 2])
    }

    #[test]
    fn apply_bumps_version_and_stores_tensor() {
        let mut vt = VersionedTraffic::new();
        assert_eq!(vt.version(), 0);
        assert_eq!(vt.slot_version(3), 0);
        assert!(vt.tensor(3).is_none());
        let out = vt.apply(&ev(1, 3, 0.5));
        assert_eq!(
            out,
            ApplyOutcome::Applied {
                slot: 3,
                version: 1
            }
        );
        assert_eq!(vt.version(), 1);
        assert_eq!(vt.slot_version(3), 1);
        assert_eq!(vt.tensor(3), Some(&[0.5f32; 4][..]));
        // A second slot bumps the global version but not slot 3's.
        assert!(vt.apply(&ev(2, 7, 0.1)).is_applied());
        assert_eq!(vt.version(), 2);
        assert_eq!(vt.slot_version(3), 1);
        assert_eq!(vt.slot_version(7), 2);
    }

    #[test]
    fn duplicate_and_out_of_order_events_are_rejected() {
        let _counters = feed_counters();
        let mut vt = VersionedTraffic::new();
        let d0 = st_obs::counter("traffic.feed.duplicate").get();
        let o0 = st_obs::counter("traffic.feed.out_of_order").get();
        assert!(vt.apply(&ev(5, 1, 0.2)).is_applied());
        // Redelivery of the same seq: idempotent no-op.
        assert_eq!(vt.apply(&ev(5, 1, 0.9)), ApplyOutcome::Duplicate);
        assert_eq!(vt.tensor(1), Some(&[0.2f32; 4][..]));
        // Older seq after a newer one: must not overwrite.
        assert_eq!(vt.apply(&ev(4, 1, 0.9)), ApplyOutcome::OutOfOrder);
        assert_eq!(vt.tensor(1), Some(&[0.2f32; 4][..]));
        assert_eq!(vt.version(), 1, "rejected events must not bump versions");
        assert_eq!(st_obs::counter("traffic.feed.duplicate").get(), d0 + 1);
        assert_eq!(st_obs::counter("traffic.feed.out_of_order").get(), o0 + 1);
    }

    #[test]
    fn past_horizon_events_are_rejected_not_clamped() {
        let _counters = feed_counters();
        let mut vt = VersionedTraffic::with_horizon(10);
        let p0 = st_obs::counter("traffic.feed.past_horizon").get();
        assert_eq!(vt.apply(&ev(1, 10, 0.3)), ApplyOutcome::PastHorizon);
        assert_eq!(vt.apply(&ev(2, 99, 0.3)), ApplyOutcome::PastHorizon);
        assert!(vt.apply(&ev(3, 9, 0.3)).is_applied());
        assert_eq!(vt.version(), 1);
        assert_eq!(st_obs::counter("traffic.feed.past_horizon").get(), p0 + 2);
    }

    #[test]
    fn closures_are_tracked() {
        let mut vt = VersionedTraffic::new();
        let mut e = ev(1, 0, 0.0);
        e.kind = TrafficEventKind::Closure { segment: 42 };
        assert!(vt.apply(&e).is_applied());
        assert_eq!(vt.closed_segments(), vec![42]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// At-least-once delivery in any order ends in the state a reference
        /// model computes without `apply`. The stream has strictly
        /// increasing `seq`, slots in `0..horizon + 2` (two slots past the
        /// horizon) and some closures; every event is delivered 1–3 times
        /// and the deliveries are shuffled.
        #[test]
        fn any_delivery_order_matches_reference_model(
            seed in 0u64..1_000_000,
            horizon in 1usize..6,
            n_events in 1usize..40,
        ) {
            use rand::seq::SliceRandom;
            use rand::{Rng, SeedableRng};
            use std::collections::BTreeSet;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut seq = 0u64;
            let stream: Vec<TrafficEvent> = (0..n_events)
                .map(|_| {
                    seq += rng.gen_range(1u64..=3);
                    let kind = if rng.gen_bool(0.3) {
                        TrafficEventKind::Closure { segment: rng.gen_range(0usize..8) }
                    } else {
                        TrafficEventKind::Observation
                    };
                    TrafficEvent {
                        seq,
                        time: seq as f64,
                        slot: rng.gen_range(0..horizon + 2),
                        kind,
                        tensor: vec![seq as f32; 3],
                    }
                })
                .collect();
            let mut delivered: Vec<&TrafficEvent> = stream
                .iter()
                .flat_map(|e| std::iter::repeat_n(e, rng.gen_range(1usize..=3)))
                .collect();
            delivered.shuffle(&mut rng);

            let _counters = feed_counters();
            let mut vt = VersionedTraffic::with_horizon(horizon);
            let mut applied = 0u64;
            for e in &delivered {
                let outcome = vt.apply(e);
                proptest::prop_assert_eq!(outcome == ApplyOutcome::PastHorizon, e.slot >= horizon);
                applied += outcome.is_applied() as u64;
            }

            // The reference: per slot below the horizon, the delivered event
            // with the highest seq; the segments of delivered closures below
            // the horizon.
            let mut newest: BTreeMap<usize, &TrafficEvent> = BTreeMap::new();
            let mut closed = BTreeSet::new();
            for &e in delivered.iter().filter(|e| e.slot < horizon) {
                let best = newest.entry(e.slot).or_insert(e);
                if e.seq > best.seq {
                    *best = e;
                }
                if let TrafficEventKind::Closure { segment } = e.kind {
                    closed.insert(segment);
                }
            }
            proptest::prop_assert_eq!(vt.version(), applied);
            proptest::prop_assert_eq!(vt.touched_slots(), newest.len());
            for slot in 0..horizon + 2 {
                let want = newest.get(&slot);
                proptest::prop_assert_eq!(vt.tensor(slot), want.map(|e| e.tensor.as_slice()));
                proptest::prop_assert_eq!(vt.last_seq(slot), want.map(|e| e.seq));
            }
            proptest::prop_assert_eq!(vt.closed_segments(), closed.into_iter().collect::<Vec<_>>());
        }
    }

    /// Counts are asserted on the cache itself: other tests in this binary
    /// move the process-wide `predict.traffic_cache.*` counters.
    #[test]
    fn cache_hits_at_matching_version_and_invalidates_on_bump() {
        let mut cache = TrafficCache::new(8);
        let a = cache.get_or_encode(3, 0, || enc(1.0));
        assert_eq!(cache.counts().misses, 1);
        let b = cache.get_or_encode(3, 0, || unreachable!("must hit"));
        assert_eq!(a.data(), b.data());
        assert_eq!(cache.counts().hits, 1);
        // Version bump: targeted invalidation + re-encode.
        let c = cache.get_or_encode(3, 1, || enc(2.0));
        assert_eq!(
            cache.counts(),
            CacheCounts {
                hits: 1,
                misses: 2,
                invalidations: 1
            }
        );
        assert!(a.data() != c.data());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn invalidation_is_targeted_not_a_flush() {
        let mut cache = TrafficCache::new(8);
        for slot in 0..4 {
            let _ = cache.get_or_encode(slot, 0, || enc(slot as f32));
        }
        // Only slot 2 changed: its lookup at the new version evicts its
        // entry and re-encodes, and no other entry goes.
        let fresh = cache.get_or_encode(2, 5, || enc(9.0));
        assert_eq!(fresh.data(), enc(9.0).data());
        assert_eq!(cache.len(), 4, "an entry besides the stale one was evicted");
        assert_eq!(cache.cached_version(2), Some(5));
        assert_eq!(cache.counts().invalidations, 1);
        // Unchanged slots still hit, with their own encodings.
        for slot in [0usize, 1, 3] {
            let hit = cache.get_or_encode(slot, 0, || unreachable!("must hit"));
            assert_eq!(hit.data(), enc(slot as f32).data());
        }
        assert_eq!(cache.counts().hits, 3);
        // At its new version the changed slot hits too: one invalidation.
        let _ = cache.get_or_encode(2, 5, || unreachable!("must hit"));
        assert_eq!(cache.counts().invalidations, 1);
    }

    /// At one version a slot's entry serves only the tensor it encoded: a
    /// lookup carrying other bits is an invalidation and a re-encode.
    #[test]
    fn a_lookup_with_another_tensor_reencodes() {
        let mut cache = TrafficCache::new(8);
        let (t1, t2) = (vec![0.2f32; 4], vec![0.02f32; 4]);
        let _ = cache.get_or_encode_tensor(0, 0, &t1, || enc(1.0));
        let hit = cache.get_or_encode_tensor(0, 0, &t1, || unreachable!("must hit"));
        assert_eq!(hit.data(), enc(1.0).data());
        let other = cache.get_or_encode_tensor(0, 0, &t2, || enc(2.0));
        assert_eq!(other.data(), enc(2.0).data());
        assert_eq!(
            cache.counts(),
            CacheCounts {
                hits: 1,
                misses: 2,
                invalidations: 1
            }
        );
        // Bits, not values: -0.0 is another tensor than 0.0.
        let _ = cache.get_or_encode_tensor(0, 0, &[0.0], || enc(3.0));
        let neg = cache.get_or_encode_tensor(0, 0, &[-0.0], || enc(4.0));
        assert_eq!(neg.data(), enc(4.0).data());
        assert_eq!(cache.counts().invalidations, 3);
    }

    #[test]
    fn eviction_is_exact_lru() {
        let mut cache = TrafficCache::new(2);
        let _ = cache.get_or_encode(0, 0, || enc(0.0));
        let _ = cache.get_or_encode(1, 0, || enc(1.0));
        // Touch 0 so 1 becomes LRU.
        let _ = cache.get_or_encode(0, 0, || unreachable!("must hit"));
        let _ = cache.get_or_encode(2, 0, || enc(2.0));
        assert_eq!(cache.len(), 2);
        assert!(cache.cached_version(1).is_none(), "LRU entry 1 evicted");
        assert!(cache.cached_version(0).is_some());
        assert!(cache.cached_version(2).is_some());
    }
}
