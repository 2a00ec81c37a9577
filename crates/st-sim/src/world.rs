//! The one path from a road network to training examples, shared by the
//! paper cities ([`Dataset`](crate::Dataset)) and the
//! [`Megacity`](crate::Megacity):
//!
//! 1. `World::build` — network → traffic process, corridor
//!    attractiveness, observation grid, segment index, max speed and
//!    bounding box.
//! 2. `World::simulate_trip` inside `trip_attempts` — (origin, hotspot,
//!    start time) → [`Trip`], every rejected attempt counted by reason.
//! 3. [`SlotObs`] — the traffic tensor C of §IV-D: per grid cell, the mean
//!    GPS speed over the window Δ before each slot.
//! 4. `slot_of` and `unit_coord` — the slot rule (clamps counted) and the
//!    unit-square normalization of destinations.
//! 5. `example` — one trip → one training [`Example`], drops counted.
//!
//! The generators keep only what differs: a paper city draws
//! hotspot-weighted origins, filters trips under 1 km and sorts by start
//! time; a Megacity draws district-local origins and streams its trips to
//! disk.

use std::sync::Arc;

use rand::rngs::StdRng;

use st_core::data::Example;
use st_roadnet::{Point, RoadNetwork, Route, SegmentId, SegmentIndex};

use crate::driver::{simulate_route, Attractiveness, DriverConfig};
use crate::traffic::{TrafficConfig, TrafficGrid, TrafficModel};
use crate::trips::{jitter, sample_gps, Hotspot, Trip};

/// Slot length for sharing traffic tensors (paper: 20 minutes, §V-A).
pub const SLOT_SECS: f64 = 1200.0;
/// Observation window Δ before a trip's start (paper: 30 minutes, §V-A).
pub const WINDOW_SECS: f64 = 1800.0;

/// A simulated world: the road network with everything trips are simulated
/// and observed on.
pub struct World {
    /// The road network.
    pub net: RoadNetwork,
    /// Ground-truth traffic process.
    pub traffic: TrafficModel,
    /// Observation grid for traffic tensors.
    pub grid: TrafficGrid,
    /// Maximum base speed (tensor normalization).
    pub max_speed: f64,
    pub(crate) attract: Attractiveness,
    pub(crate) index: SegmentIndex,
    /// The network's bounding box `(min, max)`.
    pub(crate) bbox: (Point, Point),
}

/// How a generator's trips are driven, filtered and sensed.
pub(crate) struct TripSpec<'a> {
    pub driver: &'a DriverConfig,
    /// Destination hotspots, indexed by [`World::simulate_trip`]'s `hotspot`.
    pub hotspots: &'a [Hotspot],
    /// Keeps a simulated route (the generator's own trip filter).
    pub accept: &'a dyn Fn(&RoadNetwork, &Route) -> bool,
    pub gps_period: f64,
    pub gps_noise: f64,
}

/// Why a trip attempt produced no trip. Each is counted under
/// `sim.trip.rejected.<name>`.
pub(crate) enum Rejection {
    /// No segment to start or end at: a nearest-segment lookup found none,
    /// or the origin district has no segments.
    NoSegment,
    /// The destination snapped to the origin segment.
    DestIsOrigin,
    /// `simulate_route` found no route.
    NoRoute,
    /// The generator's filter refused the route.
    Filtered,
}

/// The trip counters, in [`Rejection`] order after `attempts`.
const TRIP_COUNTERS: [&str; 5] = [
    "sim.trip.attempts",
    "sim.trip.rejected.no_segment",
    "sim.trip.rejected.dest_is_origin",
    "sim.trip.rejected.no_route",
    "sim.trip.rejected.filtered",
];

impl World {
    /// Build the world on `net`: the traffic process, attractiveness field
    /// and observation grid (`obs = (width, height)` cells), all seeded
    /// from `seed`, plus a segment index with cells of `spacing_m` (at
    /// least 100 m).
    pub(crate) fn build(
        net: RoadNetwork,
        traffic: &TrafficConfig,
        obs: (usize, usize),
        spacing_m: f64,
        seed: u64,
    ) -> Self {
        let traffic = TrafficModel::generate(&net, traffic, seed);
        let attract = Attractiveness::generate(&net, seed);
        let grid = TrafficGrid::new(&net, obs.0, obs.1);
        let index = SegmentIndex::build(&net, spacing_m.max(100.0));
        let max_speed = (0..net.num_segments())
            .map(|s| net.segment(s).base_speed)
            .fold(0.0f64, f64::max);
        let bbox = net.bounding_box();
        Self {
            net,
            traffic,
            grid,
            max_speed,
            attract,
            index,
            bbox,
        }
    }

    /// Simulate one trip from `origin` at `start_time` toward hotspot
    /// `hotspot`: the destination coordinate scatters around the hotspot
    /// (clamped into the city), the route heads for its nearest segment,
    /// the spec's filter judges the route, and GPS is sampled along it.
    pub(crate) fn simulate_trip(
        &self,
        spec: &TripSpec,
        origin: SegmentId,
        hotspot: usize,
        start_time: f64,
        rng: &mut StdRng,
    ) -> Result<Trip, Rejection> {
        let spot = &spec.hotspots[hotspot];
        let raw = jitter(&spot.center, spot.sigma, rng);
        let (min, max) = &self.bbox;
        let dest_coord = Point::new(raw.x.clamp(min.x, max.x), raw.y.clamp(min.y, max.y));
        let dest = self
            .index
            .nearest(&self.net, &dest_coord)
            .ok_or(Rejection::NoSegment)?;
        if dest == origin {
            return Err(Rejection::DestIsOrigin);
        }
        let route = simulate_route(
            &self.net,
            &self.traffic,
            &self.attract,
            spec.driver,
            origin,
            dest,
            start_time,
            rng,
        )
        .ok_or(Rejection::NoRoute)?;
        if !(spec.accept)(&self.net, &route) {
            return Err(Rejection::Filtered);
        }
        let (gps, end_time) = sample_gps(
            &self.net,
            &self.traffic,
            &route,
            start_time,
            spec.gps_period,
            spec.gps_noise,
            rng,
        );
        Ok(Trip {
            route,
            start_time,
            end_time,
            dest_coord,
            gps,
            hotspot,
        })
    }

    /// Normalize a coordinate into `[0, 1]²` (network bounding box).
    pub fn unit_coord(&self, p: &Point) -> [f32; 2] {
        unit_coord(&self.bbox, p)
    }
}

/// The accepted results of up to `max_attempts` calls of `attempt`,
/// stopping after `n_trips`. Every call moves `sim.trip.attempts` and every
/// rejection its reason's counter, so attempts − accepted = Σ rejected.
pub(crate) fn trip_attempts<T>(
    n_trips: usize,
    max_attempts: usize,
    mut attempt: impl FnMut() -> Result<T, Rejection>,
) -> impl Iterator<Item = T> {
    let [attempts, rejected @ ..] = TRIP_COUNTERS.map(st_obs::counter);
    let (mut tried, mut accepted) = (0usize, 0usize);
    std::iter::from_fn(move || {
        while accepted < n_trips && tried < max_attempts {
            tried += 1;
            attempts.inc();
            match attempt() {
                Ok(t) => {
                    accepted += 1;
                    return Some(t);
                }
                Err(why) => rejected[why as usize].inc(),
            }
        }
        None
    })
}

/// The slot a time falls into, or `None` outside `[0, n_slots · SLOT_SECS)`
/// (negative, NaN, infinite or past the last slot).
pub(crate) fn try_slot_of(t: f64, n_slots: usize) -> Option<usize> {
    if !t.is_finite() || t < 0.0 {
        return None;
    }
    let slot = (t / SLOT_SECS).floor() as usize;
    (slot < n_slots).then_some(slot)
}

/// The slot a time falls into, clamped into `[0, n_slots)`: positive times
/// past the horizon (+∞ included) take the last slot, negative times and
/// NaN slot 0. Every clamp moves `sim.slot_of.clamped` and the first one
/// warns, so a deployment serving boundary tensors is visible.
pub(crate) fn slot_of(t: f64, n_slots: usize) -> usize {
    try_slot_of(t, n_slots).unwrap_or_else(|| {
        st_obs::counter("sim.slot_of.clamped").inc();
        st_obs::warn_once(
            "sim.slot_of.clamped",
            "slot_of: time outside simulated horizon, clamping to boundary slot",
        );
        if t > 0.0 {
            n_slots.saturating_sub(1)
        } else {
            0
        }
    })
}

/// Normalize `p` into `[0, 1]²` over the bounding box `(min, max)`.
pub(crate) fn unit_coord((min, max): &(Point, Point), p: &Point) -> [f32; 2] {
    [
        ((p.x - min.x) / (max.x - min.x)) as f32,
        ((p.y - min.y) / (max.y - min.y)) as f32,
    ]
}

/// The training example of one trip on `net` (bounding box `bbox`): its
/// slot under [`slot_of`], its destination under [`unit_coord`] and that
/// slot's shared tensor. A route that fails adjacency validation is
/// dropped and counted in `sim.example.dropped`.
pub(crate) fn example(
    net: &RoadNetwork,
    bbox: &(Point, Point),
    trip: &Trip,
    tensors: &[Arc<Vec<f32>>],
) -> Option<Example> {
    let slot = slot_of(trip.start_time, tensors.len());
    let ex = Example::new(
        net,
        trip.route.clone(),
        unit_coord(bbox, &trip.dest_coord),
        Arc::clone(&tensors[slot]),
        slot,
    );
    if ex.is_none() {
        st_obs::counter("sim.example.dropped").inc();
        st_obs::warn_once(
            "sim.example.dropped",
            "example: a trip's route is shorter than 2 segments or not adjacent; dropped",
        );
    }
    ex
}

/// Per-slot traffic observation accumulator: the one definition of the
/// traffic tensor C (§IV-D). A GPS point at time `t` is visible to every
/// slot whose look-back window `[slot·SLOT − Δ, slot·SLOT)` contains `t`;
/// a slot's tensor is, per grid cell, the mean observed speed over
/// `max_speed` (capped at 2), 0 where unobserved. Sums run in recording
/// order.
pub struct SlotObs {
    n_cells: usize,
    n_slots: usize,
    sum: Vec<f64>,
    count: Vec<u32>,
}

impl SlotObs {
    /// Accumulator covering `horizon` seconds of slots on `grid`.
    pub fn new(grid: &TrafficGrid, horizon: f64) -> Self {
        let n_slots = (horizon / SLOT_SECS).ceil() as usize + 1;
        let n_cells = grid.len();
        Self {
            n_cells,
            n_slots,
            sum: vec![0.0; n_cells * n_slots],
            count: vec![0; n_cells * n_slots],
        }
    }

    /// Number of slots covered.
    pub fn num_slots(&self) -> usize {
        self.n_slots
    }

    /// Record one observation of `speed` at `p`, time `t`, in every slot
    /// whose window contains `t`. Points off the grid, and negative or
    /// non-finite times, are seen by no slot.
    pub fn record(&mut self, grid: &TrafficGrid, p: &Point, t: f64, speed: f64) {
        let Some(cell) = grid.cell_of(p) else {
            return;
        };
        if !t.is_finite() || t < 0.0 {
            return;
        }
        let first = (t / SLOT_SECS).floor() as usize + 1;
        let last = (((t + WINDOW_SECS) / SLOT_SECS).floor() as usize).min(self.n_slots - 1);
        if first > last {
            return;
        }
        for slot in first..=last {
            let i = slot * self.n_cells + cell;
            self.sum[i] += speed;
            self.count[i] += 1;
        }
    }

    /// The tensor of one slot, row-major `[height × width]`.
    pub fn tensor(&self, slot: usize, max_speed: f64) -> Vec<f32> {
        let base = slot * self.n_cells;
        self.sum[base..base + self.n_cells]
            .iter()
            .zip(&self.count[base..base + self.n_cells])
            .map(|(&s, &n)| {
                if n == 0 {
                    0.0
                } else {
                    ((s / n as f64) / max_speed).min(2.0) as f32
                }
            })
            .collect()
    }

    /// Every slot's tensor, shared, ready for [`Example`] building.
    pub fn tensors(&self, max_speed: f64) -> Vec<Arc<Vec<f32>>> {
        (0..self.n_slots)
            .map(|slot| Arc::new(self.tensor(slot, max_speed)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_roadnet::{grid_city, GridConfig};

    #[test]
    fn slot_obs_averages_and_normalizes() {
        let net = grid_city(&GridConfig::small_test(), 0);
        let g = TrafficGrid::new(&net, 4, 4);
        let mut obs = SlotObs::new(&g, 3.0 * SLOT_SECS);
        let p = net.midpoint(0);
        // t = 1000 s is inside the windows of slots 1 and 2 only
        obs.record(&g, &p, 1000.0, 5.0);
        obs.record(&g, &p, 1000.0, 15.0);
        let c = g.cell_of(&p).unwrap();
        assert!(obs.tensor(0, 20.0).iter().all(|&v| v == 0.0));
        for slot in [1, 2] {
            let tensor = obs.tensor(slot, 20.0);
            assert!((tensor[c] - 0.5).abs() < 1e-6);
            // unobserved cells are zero
            assert_eq!(tensor.iter().filter(|&&v| v == 0.0).count(), 15);
        }
        assert!(obs.tensor(3, 20.0).iter().all(|&v| v == 0.0));
    }
}
