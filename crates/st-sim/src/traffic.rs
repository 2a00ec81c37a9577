//! Time-varying traffic: the simulator's ground-truth congestion process and
//! the observed cell-grid traffic tensors fed to DeepST.
//!
//! The ground truth is a set of localized congestion *events* (incidents,
//! demand surges) that appear, persist for tens of minutes and disappear,
//! overlaid on a diurnal rush-hour profile. Crucially the events are *not*
//! periodic: two different days, or two adjacent 20-minute slots, have
//! different congestion patterns. This is exactly the property that breaks
//! the "traffic in the same weekly slot is temporally invariant" assumption
//! of [2], [8] (see §I of the paper) and makes a real-time traffic
//! representation informative.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use st_roadnet::{Point, RoadNetwork, SegmentId};

/// Seconds per simulated day.
pub const DAY_SECS: f64 = 86_400.0;

/// A localized congestion event.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CongestionEvent {
    /// Center of the affected area.
    pub center: Point,
    /// Gaussian radius of influence (m).
    pub radius: f64,
    /// Peak speed reduction in `(0, 1)`: 0.8 ⇒ speeds drop to 20% at center.
    pub severity: f64,
    /// Event start (s since simulation start).
    pub t_start: f64,
    /// Event end (s).
    pub t_end: f64,
}

impl CongestionEvent {
    /// Multiplicative speed factor this event applies at point `p`, time `t`.
    ///
    /// Always in `[0, 1]`: a degenerate `radius == 0` event acts as a point
    /// mass (full severity exactly at its center, no effect elsewhere)
    /// instead of poisoning the product with `NaN` from `d²/0`.
    pub fn speed_factor(&self, p: &Point, t: f64) -> f64 {
        if t < self.t_start || t >= self.t_end {
            return 1.0;
        }
        let d2 = p.dist_sq(&self.center);
        let denom = 2.0 * self.radius * self.radius;
        let influence = if denom > 0.0 {
            (-d2 / denom).exp()
        } else if d2 <= 0.0 {
            1.0
        } else {
            0.0
        };
        (1.0 - self.severity * influence).clamp(0.0, 1.0)
    }
}

/// Configuration of the traffic process.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrafficConfig {
    /// Number of simulated days.
    pub days: usize,
    /// Expected number of simultaneous congestion events during the day.
    pub events_per_day: usize,
    /// Radius range of events (m).
    pub radius_range: (f64, f64),
    /// Severity range.
    pub severity_range: (f64, f64),
    /// Event duration range (s).
    pub duration_range: (f64, f64),
    /// Street-level incidents per day (accidents/closures): very small
    /// radius, near-blocking severity. These are the paper's motivating
    /// example (§I) — a congested street the driver detours around — and the
    /// signal that static historical means (WSP) cannot see.
    pub incidents_per_day: usize,
}

impl TrafficConfig {
    /// Check the configuration for degenerate ranges.
    ///
    /// Returns a description of the first problem found, or `Ok(())`. Ranges
    /// must be non-empty (`lo < hi`, preserving the RNG stream of existing
    /// seeds, which draws from half-open ranges), radii strictly positive,
    /// and severities within `[0, 1)` so [`CongestionEvent::speed_factor`]
    /// stays in `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        if self.days == 0 {
            return Err("days must be >= 1".into());
        }
        let range_ok = |lo: f64, hi: f64| lo.is_finite() && hi.is_finite() && lo < hi;
        if !range_ok(self.radius_range.0, self.radius_range.1) || self.radius_range.0 <= 0.0 {
            return Err(format!(
                "radius_range must satisfy 0 < lo < hi, got {:?}",
                self.radius_range
            ));
        }
        if !range_ok(self.severity_range.0, self.severity_range.1)
            || self.severity_range.0 < 0.0
            || self.severity_range.1 > 1.0
        {
            return Err(format!(
                "severity_range must satisfy 0 <= lo < hi <= 1, got {:?}",
                self.severity_range
            ));
        }
        if !range_ok(self.duration_range.0, self.duration_range.1) || self.duration_range.0 <= 0.0 {
            return Err(format!(
                "duration_range must satisfy 0 < lo < hi, got {:?}",
                self.duration_range
            ));
        }
        Ok(())
    }
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self {
            days: 4,
            events_per_day: 36,
            radius_range: (400.0, 1200.0),
            severity_range: (0.6, 0.9),
            duration_range: (1200.0, 5400.0),
            incidents_per_day: 80,
        }
    }
}

/// The ground-truth traffic process over a road network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrafficModel {
    events: Vec<CongestionEvent>,
    horizon: f64,
    /// Index into `events` where street-level incidents begin (field events
    /// occupy `events[..incident_from]`). Lets a live feed replay the
    /// incidents — the paper's detour-triggering signal — as discrete
    /// street-blocking updates rather than background congestion.
    #[serde(default)]
    incident_from: usize,
    /// Time-bucketed index: `active[b]` lists the events overlapping bucket
    /// `b` of [`INDEX_BUCKET_SECS`] seconds. With hundreds of events but only
    /// a couple dozen active at any instant, this cuts the speed-query hot
    /// path (route simulation runs it millions of times) by ~10×.
    #[serde(skip, default)]
    active: Vec<Vec<u32>>,
}

/// Width of a time-index bucket (s).
const INDEX_BUCKET_SECS: f64 = 600.0;

impl TrafficModel {
    /// Sample a traffic process over the network's bounding box.
    pub fn generate(net: &RoadNetwork, cfg: &TrafficConfig, seed: u64) -> Self {
        // Degenerate ranges would produce NaN speed factors or empty
        // gen_range panics deep inside the sampling loop; fail at the
        // boundary with the actual reason instead.
        let checked = cfg.validate();
        assert!(checked.is_ok(), "invalid TrafficConfig: {checked:?}");
        let mut rng = StdRng::seed_from_u64(seed ^ TRAFFIC_SEED_SALT);
        let (min, max) = net.bounding_box();
        let horizon = cfg.days as f64 * DAY_SECS;
        let n_events = cfg.days * cfg.events_per_day;
        let mut events: Vec<CongestionEvent> = (0..n_events)
            .map(|_| {
                let duration = rng.gen_range(cfg.duration_range.0..cfg.duration_range.1);
                let t_start = rng.gen_range(0.0..(horizon - duration).max(1.0));
                CongestionEvent {
                    center: Point::new(rng.gen_range(min.x..max.x), rng.gen_range(min.y..max.y)),
                    radius: rng.gen_range(cfg.radius_range.0..cfg.radius_range.1),
                    severity: rng.gen_range(cfg.severity_range.0..cfg.severity_range.1),
                    t_start,
                    t_end: t_start + duration,
                }
            })
            .collect();
        // Street-level incidents: centered on a random segment midpoint so
        // they actually block a street rather than empty space.
        let incident_from = events.len();
        let n_segs = net.num_segments();
        for _ in 0..cfg.days * cfg.incidents_per_day {
            let seg = rng.gen_range(0..n_segs);
            let duration = rng.gen_range(900.0f64..3600.0);
            let t_start = rng.gen_range(0.0..(horizon - duration).max(1.0));
            events.push(CongestionEvent {
                center: net.midpoint(seg),
                radius: rng.gen_range(60.0..140.0),
                severity: rng.gen_range(0.85..0.96),
                t_start,
                t_end: t_start + duration,
            });
        }
        let mut model = Self {
            events,
            horizon,
            incident_from,
            active: Vec::new(),
        };
        model.rebuild_index();
        model
    }

    /// Rebuild the time-bucket index (needed after deserialization, which
    /// skips the derived field).
    pub fn rebuild_index(&mut self) {
        let n_buckets = (self.horizon / INDEX_BUCKET_SECS).ceil() as usize + 1;
        let mut active: Vec<Vec<u32>> = vec![Vec::new(); n_buckets];
        for (i, e) in self.events.iter().enumerate() {
            let first = (e.t_start / INDEX_BUCKET_SECS).floor().max(0.0) as usize;
            let last = ((e.t_end / INDEX_BUCKET_SECS).floor() as usize).min(n_buckets - 1);
            for bucket in active.iter_mut().take(last + 1).skip(first) {
                bucket.push(i as u32);
            }
        }
        self.active = active;
    }

    /// Simulation horizon in seconds.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// The congestion events (for inspection/plots).
    pub fn events(&self) -> &[CongestionEvent] {
        &self.events
    }

    /// The street-level incidents only (accidents/closures): the tail of
    /// [`Self::events`] from the generation split point. Models deserialized
    /// from a pre-split format report every event here (`incident_from`
    /// defaults to 0) — a conservative over-approximation for feed replay.
    pub fn incidents(&self) -> &[CongestionEvent] {
        &self.events[self.incident_from.min(self.events.len())..]
    }

    /// Diurnal rush-hour factor in `(0, 1]`: slowdowns around 8:00 and 18:00.
    pub fn diurnal_factor(t: f64) -> f64 {
        let hour = (t % DAY_SECS) / 3600.0;
        let morning = (-(hour - 8.0) * (hour - 8.0) / 4.5).exp();
        let evening = (-(hour - 18.0) * (hour - 18.0) / 4.5).exp();
        1.0 - 0.35 * (morning + evening).min(1.0)
    }

    /// Effective speed (m/s) of a segment at time `t`.
    pub fn speed(&self, net: &RoadNetwork, seg: SegmentId, t: f64) -> f64 {
        let mid = net.midpoint(seg);
        let mut factor = Self::diurnal_factor(t);
        let bucket = (t / INDEX_BUCKET_SECS).floor().max(0.0) as usize;
        match self.active.get(bucket) {
            Some(ids) => {
                for &i in ids {
                    factor *= self.events[i as usize].speed_factor(&mid, t);
                }
            }
            // out of the indexed horizon (or index unbuilt): full scan
            None => {
                for e in &self.events {
                    factor *= e.speed_factor(&mid, t);
                }
            }
        }
        (net.segment(seg).base_speed * factor).max(1.0)
    }

    /// Travel time (s) to traverse a segment entered at time `t`.
    pub fn travel_time(&self, net: &RoadNetwork, seg: SegmentId, t: f64) -> f64 {
        net.segment(seg).length / self.speed(net, seg, t)
    }
}

/// Seed salt so simulator components sharing one experiment seed still draw
/// from distinct RNG streams.
const TRAFFIC_SEED_SALT: u64 = 0x5EED_01AF;

/// A spatial grid over the city used for traffic observation tensors
/// (the paper partitions Chengdu into 87×98 cells of 100m, §V-A).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrafficGrid {
    min: Point,
    max: Point,
    /// Cells along x.
    pub width: usize,
    /// Cells along y.
    pub height: usize,
}

impl TrafficGrid {
    /// A grid of `width × height` cells over the network's bounding box
    /// (expanded slightly so boundary points fall inside).
    pub fn new(net: &RoadNetwork, width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0);
        let (mut min, mut max) = net.bounding_box();
        let pad_x = (max.x - min.x) * 0.01 + 1.0;
        let pad_y = (max.y - min.y) * 0.01 + 1.0;
        min.x -= pad_x;
        min.y -= pad_y;
        max.x += pad_x;
        max.y += pad_y;
        Self {
            min,
            max,
            width,
            height,
        }
    }

    /// Cell index of a point, or `None` if outside the grid.
    pub fn cell_of(&self, p: &Point) -> Option<usize> {
        if p.x < self.min.x || p.x >= self.max.x || p.y < self.min.y || p.y >= self.max.y {
            return None;
        }
        let cx = ((p.x - self.min.x) / (self.max.x - self.min.x) * self.width as f64) as usize;
        let cy = ((p.y - self.min.y) / (self.max.y - self.min.y) * self.height as f64) as usize;
        Some(cy.min(self.height - 1) * self.width + cx.min(self.width - 1))
    }

    /// Center point of cell `c` (row-major index, as from [`Self::cell_of`]).
    /// `None` if `c` is out of range.
    pub fn cell_center(&self, c: usize) -> Option<Point> {
        if c >= self.len() {
            return None;
        }
        let cx = c % self.width;
        let cy = c / self.width;
        let step_x = (self.max.x - self.min.x) / self.width as f64;
        let step_y = (self.max.y - self.min.y) / self.height as f64;
        Some(Point::new(
            self.min.x + (cx as f64 + 0.5) * step_x,
            self.min.y + (cy as f64 + 0.5) * step_y,
        ))
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.width * self.height
    }

    /// Whether the grid is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_roadnet::{grid_city, GridConfig};

    fn city() -> RoadNetwork {
        grid_city(&GridConfig::small_test(), 0)
    }

    #[test]
    fn event_factor_spatial_decay() {
        let e = CongestionEvent {
            center: Point::new(0.0, 0.0),
            radius: 100.0,
            severity: 0.8,
            t_start: 0.0,
            t_end: 100.0,
        };
        let at_center = e.speed_factor(&Point::new(0.0, 0.0), 50.0);
        let far = e.speed_factor(&Point::new(1000.0, 0.0), 50.0);
        assert!((at_center - 0.2).abs() < 1e-9);
        assert!(far > 0.99);
        // outside its time window the event has no effect
        assert_eq!(e.speed_factor(&Point::new(0.0, 0.0), 200.0), 1.0);
    }

    #[test]
    fn zero_radius_event_never_produces_nan() {
        let e = CongestionEvent {
            center: Point::new(10.0, 10.0),
            radius: 0.0,
            severity: 0.9,
            t_start: 0.0,
            t_end: 100.0,
        };
        // at the exact center: full severity, not NaN
        let at_center = e.speed_factor(&Point::new(10.0, 10.0), 50.0);
        assert!(at_center.is_finite());
        assert!((at_center - 0.1).abs() < 1e-9);
        // anywhere else: no influence at all
        let off = e.speed_factor(&Point::new(11.0, 10.0), 50.0);
        assert!((off - 1.0).abs() < 1e-12);
    }

    #[test]
    fn speed_factor_is_clamped_to_unit_interval() {
        // severity > 1 is out of spec, but the factor must still stay in
        // [0, 1] rather than going negative and flipping downstream products.
        let e = CongestionEvent {
            center: Point::new(0.0, 0.0),
            radius: 50.0,
            severity: 1.5,
            t_start: 0.0,
            t_end: 10.0,
        };
        let f = e.speed_factor(&Point::new(0.0, 0.0), 5.0);
        assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn config_validation_rejects_degenerate_ranges() {
        assert!(TrafficConfig::default().validate().is_ok());
        let cases = [
            TrafficConfig {
                radius_range: (0.0, 100.0),
                ..TrafficConfig::default()
            },
            TrafficConfig {
                severity_range: (0.9, 0.6),
                ..TrafficConfig::default()
            },
            TrafficConfig {
                severity_range: (0.5, 1.5),
                ..TrafficConfig::default()
            },
            TrafficConfig {
                duration_range: (600.0, 600.0),
                ..TrafficConfig::default()
            },
            TrafficConfig {
                days: 0,
                ..TrafficConfig::default()
            },
        ];
        for (i, bad) in cases.iter().enumerate() {
            assert!(bad.validate().is_err(), "case {i} should be rejected");
        }
    }

    #[test]
    fn incidents_are_the_event_tail() {
        let net = city();
        let cfg = TrafficConfig::default();
        let tm = TrafficModel::generate(&net, &cfg, 5);
        let incidents = tm.incidents();
        assert_eq!(incidents.len(), cfg.days * cfg.incidents_per_day);
        // incidents are street-level: tight radius, near-blocking severity
        for inc in incidents {
            assert!(inc.radius < 200.0);
            assert!(inc.severity > 0.8);
        }
    }

    #[test]
    fn cell_center_round_trips_through_cell_of() {
        let net = city();
        let g = TrafficGrid::new(&net, 8, 6);
        for c in 0..g.len() {
            let p = g.cell_center(c).unwrap();
            assert_eq!(g.cell_of(&p), Some(c), "cell {c} did not round-trip");
        }
        assert!(g.cell_center(g.len()).is_none());
    }

    #[test]
    fn diurnal_dips_at_rush_hour() {
        let off_peak = TrafficModel::diurnal_factor(3.0 * 3600.0);
        let morning_peak = TrafficModel::diurnal_factor(8.0 * 3600.0);
        let evening_peak = TrafficModel::diurnal_factor(18.0 * 3600.0);
        assert!(off_peak > 0.95);
        assert!(morning_peak < 0.7);
        assert!(evening_peak < 0.7);
    }

    #[test]
    fn speeds_positive_and_bounded() {
        let net = city();
        let tm = TrafficModel::generate(&net, &TrafficConfig::default(), 1);
        for seg in 0..net.num_segments() {
            for t in [0.0, 3600.0, 8.0 * 3600.0, 100_000.0] {
                let v = tm.speed(&net, seg, t);
                assert!(v >= 1.0);
                assert!(v <= net.segment(seg).base_speed + 1e-9);
            }
        }
    }

    #[test]
    fn traffic_varies_over_time() {
        let net = city();
        let tm = TrafficModel::generate(&net, &TrafficConfig::default(), 2);
        // With dozens of events, at least one segment must see a >10%
        // speed change between two same-diurnal-phase instants of
        // different days. Compare noon of day 1 against noon of each later
        // day so the check depends on the event process itself, not on one
        // lucky placement.
        let t1 = 12.0 * 3600.0;
        let changed = (1..4).any(|day| {
            let t2 = t1 + day as f64 * 24.0 * 3600.0;
            (0..net.num_segments()).any(|s| {
                let v1 = tm.speed(&net, s, t1);
                let v2 = tm.speed(&net, s, t2);
                (v1 - v2).abs() / v1.max(v2) > 0.1
            })
        });
        assert!(changed, "traffic process looks static");
    }

    #[test]
    fn deterministic_per_seed() {
        let net = city();
        let a = TrafficModel::generate(&net, &TrafficConfig::default(), 9);
        let b = TrafficModel::generate(&net, &TrafficConfig::default(), 9);
        assert_eq!(a.events().len(), b.events().len());
        assert_eq!(a.speed(&net, 0, 500.0), b.speed(&net, 0, 500.0));
    }

    #[test]
    fn grid_cell_lookup() {
        let net = city();
        let g = TrafficGrid::new(&net, 8, 8);
        assert_eq!(g.len(), 64);
        let (min, max) = net.bounding_box();
        let inside = Point::new((min.x + max.x) / 2.0, (min.y + max.y) / 2.0);
        assert!(g.cell_of(&inside).is_some());
        let outside = Point::new(max.x + 10_000.0, max.y);
        assert!(g.cell_of(&outside).is_none());
    }
}

#[cfg(test)]
mod index_equivalence_tests {
    use super::*;
    use st_roadnet::{grid_city, GridConfig};

    /// The bucketed index must be a pure optimization: speeds agree exactly
    /// with a naive full-event scan at every probed (segment, time).
    #[test]
    fn indexed_speed_equals_naive_scan() {
        let net = grid_city(&GridConfig::small_test(), 8);
        let tm = TrafficModel::generate(&net, &TrafficConfig::default(), 8);
        let naive = |seg: usize, t: f64| {
            let mid = net.midpoint(seg);
            let mut factor = TrafficModel::diurnal_factor(t);
            for e in tm.events() {
                factor *= e.speed_factor(&mid, t);
            }
            (net.segment(seg).base_speed * factor).max(1.0)
        };
        for seg in (0..net.num_segments()).step_by(5) {
            for k in 0..40 {
                let t = k as f64 * tm.horizon() / 40.0;
                let fast = tm.speed(&net, seg, t);
                let slow = naive(seg, t);
                assert!(
                    (fast - slow).abs() < 1e-12,
                    "index mismatch at seg {seg}, t {t}: {fast} vs {slow}"
                );
            }
        }
        // beyond the horizon the fallback path also agrees
        let t = tm.horizon() + 5000.0;
        assert!((tm.speed(&net, 0, t) - naive(0, t)).abs() < 1e-12);
    }

    #[test]
    fn deserialized_model_rebuilds_index() {
        let net = grid_city(&GridConfig::small_test(), 9);
        let tm = TrafficModel::generate(&net, &TrafficConfig::default(), 9);
        let json = serde_json::to_string(&tm).unwrap();
        let mut back: TrafficModel = serde_json::from_str(&json).unwrap();
        // index skipped by serde: speeds still correct via fallback...
        let t = 3600.0;
        assert!((back.speed(&net, 3, t) - tm.speed(&net, 3, t)).abs() < 1e-12);
        // ...and identical after rebuilding
        back.rebuild_index();
        assert!((back.speed(&net, 3, t) - tm.speed(&net, 3, t)).abs() < 1e-12);
    }
}
