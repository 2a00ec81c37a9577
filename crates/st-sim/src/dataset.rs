//! City presets and full dataset generation.
//!
//! Two synthetic cities play the roles of the paper's datasets (§V-A):
//!
//! - **Rivertown** ≈ Chengdu: compact grid, dense GPS sampling, short trips.
//! - **Northport** ≈ Harbin: larger and sparser, 30 s sampling, long trips.
//!
//! A [`Dataset`] bundles the road network, the ground-truth traffic process,
//! the generated trips (sorted by start time), the per-slot observed traffic
//! tensors, and time-based train/validation/test splits (the paper splits by
//! days; we split by simulated time in the same proportions).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use st_core::data::Example;
use st_roadnet::{grid_city, GridConfig, Point, RoadNetwork};

use crate::driver::DriverConfig;
use crate::traffic::{TrafficConfig, TrafficGrid, TrafficModel};
use crate::trips::{jitter, sample_hotspots, sample_start_time, Hotspot, Trip};
use crate::world::{self, trip_attempts, Rejection, SlotObs, TripSpec, World};
pub use crate::world::{SLOT_SECS, WINDOW_SECS};

/// Everything needed to generate one synthetic city's dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CityPreset {
    /// City name used in reports.
    pub name: String,
    /// Road-network generator settings.
    pub grid: GridConfig,
    /// Traffic process settings.
    pub traffic: TrafficConfig,
    /// Driver behaviour settings.
    pub driver: DriverConfig,
    /// Number of destination hotspots (ground truth; models don't see this).
    pub n_hotspots: usize,
    /// Traffic observation grid width (cells).
    pub obs_width: usize,
    /// Traffic observation grid height (cells).
    pub obs_height: usize,
    /// GPS sampling period (s).
    pub gps_period: f64,
    /// GPS noise σ (m).
    pub gps_noise: f64,
}

impl CityPreset {
    /// The Chengdu-like compact city.
    pub fn rivertown() -> Self {
        Self {
            name: "Rivertown".into(),
            grid: GridConfig {
                nx: 13,
                ny: 13,
                spacing_m: 250.0,
                jitter_frac: 0.15,
                removal_prob: 0.18,
                arterial_every: 4,
                local_speed: 8.0,
                arterial_speed: 14.0,
            },
            traffic: TrafficConfig::default(),
            driver: DriverConfig::default(),
            n_hotspots: 8,
            obs_width: 16,
            obs_height: 16,
            gps_period: 9.0,
            gps_noise: 8.0,
        }
    }

    /// The Harbin-like larger city with longer trips and sparser sampling.
    pub fn northport() -> Self {
        Self {
            name: "Northport".into(),
            grid: GridConfig {
                nx: 18,
                ny: 16,
                spacing_m: 350.0,
                jitter_frac: 0.15,
                removal_prob: 0.2,
                arterial_every: 5,
                local_speed: 9.0,
                arterial_speed: 16.0,
            },
            traffic: TrafficConfig {
                events_per_day: 32,
                radius_range: (600.0, 2000.0),
                ..TrafficConfig::default()
            },
            driver: DriverConfig::default(),
            n_hotspots: 12,
            obs_width: 20,
            obs_height: 18,
            gps_period: 30.0,
            gps_noise: 10.0,
        }
    }

    /// A miniature city for unit/integration tests.
    pub fn tiny_test() -> Self {
        Self {
            name: "Tinyville".into(),
            grid: GridConfig {
                nx: 6,
                ny: 6,
                spacing_m: 150.0,
                jitter_frac: 0.1,
                removal_prob: 0.1,
                arterial_every: 3,
                local_speed: 8.0,
                arterial_speed: 13.0,
            },
            traffic: TrafficConfig {
                days: 2,
                events_per_day: 10,
                radius_range: (150.0, 400.0),
                ..TrafficConfig::default()
            },
            driver: DriverConfig::default(),
            n_hotspots: 4,
            obs_width: 8,
            obs_height: 8,
            gps_period: 8.0,
            gps_noise: 6.0,
        }
    }
}

/// A fully generated city dataset.
#[derive(Serialize, Deserialize)]
pub struct Dataset {
    /// City name.
    pub name: String,
    /// The road network.
    pub net: RoadNetwork,
    /// Ground-truth traffic process.
    pub traffic: TrafficModel,
    /// Observation grid for traffic tensors.
    pub grid: TrafficGrid,
    /// Ground-truth destination hotspots.
    pub hotspots: Vec<Hotspot>,
    /// All trips, sorted by start time.
    pub trips: Vec<Trip>,
    /// Per-slot observed traffic tensors (`[obs_height × obs_width]` each).
    tensors: Vec<Vec<f32>>,
    /// Maximum base speed (used for tensor normalization).
    pub max_speed: f64,
    /// Preset used for generation.
    pub preset: CityPreset,
}

impl Dataset {
    /// Generate a dataset of `n_trips` trips with the given seed.
    ///
    /// ```
    /// use st_sim::{CityPreset, Dataset};
    ///
    /// let ds = Dataset::generate(&CityPreset::tiny_test(), 25, 1);
    /// assert!(ds.trips.len() >= 20);
    /// let split = ds.default_split();
    /// assert_eq!(
    ///     split.train.len() + split.val.len() + split.test.len(),
    ///     ds.trips.len()
    /// );
    /// ```
    pub fn generate(preset: &CityPreset, n_trips: usize, seed: u64) -> Self {
        let world = World::build(
            grid_city(&preset.grid, seed),
            &preset.traffic,
            (preset.obs_width, preset.obs_height),
            preset.grid.spacing_m,
            seed,
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0DA7_A5E7);
        let hotspots = sample_hotspots(&world.net, preset.n_hotspots, &mut rng);
        let hs_weights: Vec<f64> = hotspots.iter().map(|h| h.weight).collect();
        let horizon = world.traffic.horizon();
        // Filter short trips (paper's Table III: minimum distance 1 km).
        let min_len = (preset.grid.spacing_m * 2.0).max(1000.0);
        let spec = TripSpec {
            driver: &preset.driver,
            hotspots: &hotspots,
            accept: &|net, route| net.route_length(route) >= min_len,
            gps_period: preset.gps_period,
            gps_noise: preset.gps_noise,
        };
        let mut trips: Vec<Trip> = trip_attempts(n_trips, n_trips * 4, || {
            let start_time = sample_start_time(horizon, &mut rng);
            // Origin: uniformly random segment, mildly biased toward
            // hotspots half the time (taxis pick up where people are).
            let origin = if rng.gen::<f64>() < 0.5 {
                let h = pick_weighted(&hs_weights, &mut rng);
                let p = jitter(&hotspots[h].center, hotspots[h].sigma * 2.0, &mut rng);
                world
                    .index
                    .nearest(&world.net, &p)
                    .ok_or(Rejection::NoSegment)?
            } else {
                rng.gen_range(0..world.net.num_segments())
            };
            // Destination: a hotspot plus scatter. The *coordinate* is the
            // observation; the driver steers to the nearest segment.
            let h = pick_weighted(&hs_weights, &mut rng);
            world.simulate_trip(&spec, origin, h, start_time, &mut rng)
        })
        .collect();
        trips.sort_by(|a, b| a.start_time.total_cmp(&b.start_time));

        // Per-slot traffic tensors from the fleet's own GPS points, as in
        // the paper (§IV-D), recorded in start-time order.
        let mut obs = SlotObs::new(&world.grid, horizon);
        for gp in trips.iter().flat_map(|t| &t.gps) {
            obs.record(&world.grid, &gp.p, gp.t, gp.speed);
        }
        let World {
            net,
            traffic,
            grid,
            max_speed,
            ..
        } = world;
        Self {
            name: preset.name.clone(),
            net,
            traffic,
            grid,
            hotspots,
            trips,
            tensors: (0..obs.num_slots())
                .map(|slot| obs.tensor(slot, max_speed))
                .collect(),
            max_speed,
            preset: preset.clone(),
        }
    }

    /// The traffic-tensor slot a start time falls into, or `None` if `t`
    /// lies outside the simulated horizon (negative, NaN or past the last
    /// slot).
    pub fn try_slot_of(&self, t: f64) -> Option<usize> {
        world::try_slot_of(t, self.num_slots())
    }

    /// The traffic-tensor slot a start time falls into, clamped into range
    /// by the shared slot rule: past the horizon to the last slot, negative
    /// or NaN to slot 0, each clamp counted in `sim.slot_of.clamped` (with
    /// a one-shot warning). Callers that need to distinguish use
    /// [`Self::try_slot_of`].
    pub fn slot_of(&self, t: f64) -> usize {
        world::slot_of(t, self.num_slots())
    }

    /// The observed traffic tensor for a slot, `[obs_height × obs_width]`
    /// row-major.
    pub fn traffic_tensor(&self, slot: usize) -> &[f32] {
        &self.tensors[slot]
    }

    /// Number of traffic slots.
    pub fn num_slots(&self) -> usize {
        self.tensors.len()
    }

    /// Normalize a coordinate into `[0, 1]²` using the network bounding box.
    pub fn unit_coord(&self, p: &Point) -> [f32; 2] {
        world::unit_coord(&self.net.bounding_box(), p)
    }

    /// The training examples of the trips at `indices`, in order, built by
    /// the shared trip-to-example path; each slot's tensor is shared by `Arc`
    /// among its examples. Trips whose routes fail validation are dropped
    /// and counted (`sim.example.dropped`).
    pub fn examples(&self, indices: &[usize]) -> Vec<Example> {
        let tensors: Vec<Arc<Vec<f32>>> = self.tensors.iter().cloned().map(Arc::new).collect();
        let bbox = self.net.bounding_box();
        indices
            .iter()
            .filter_map(|&i| world::example(&self.net, &bbox, &self.trips[i], &tensors))
            .collect()
    }

    /// Split trip indices by start time into train/validation/test with the
    /// paper's proportions (Chengdu: 8/2/5 days ⇒ ~53/13/33%).
    pub fn split(&self, train_frac: f64, val_frac: f64) -> Split {
        assert!(train_frac > 0.0 && val_frac >= 0.0 && train_frac + val_frac < 1.0);
        let n = self.trips.len();
        let train_end = (n as f64 * train_frac) as usize;
        let val_end = (n as f64 * (train_frac + val_frac)) as usize;
        Split {
            train: (0..train_end).collect(),
            val: (train_end..val_end).collect(),
            test: (val_end..n).collect(),
        }
    }

    /// The default paper-proportioned split.
    pub fn default_split(&self) -> Split {
        self.split(0.55, 0.12)
    }

    /// Basic statistics over trips (for Table III).
    pub fn trip_stats(&self) -> TripStats {
        let mut dist = Vec::with_capacity(self.trips.len());
        let mut nseg = Vec::with_capacity(self.trips.len());
        for t in &self.trips {
            dist.push(self.net.route_length(&t.route) / 1000.0);
            nseg.push(t.route.len());
        }
        let sum_d: f64 = dist.iter().sum();
        let sum_n: usize = nseg.iter().sum();
        TripStats {
            n_trips: self.trips.len(),
            min_km: dist.iter().copied().fold(f64::INFINITY, f64::min),
            max_km: dist.iter().copied().fold(0.0, f64::max),
            mean_km: sum_d / dist.len().max(1) as f64,
            min_segments: nseg.iter().copied().min().unwrap_or(0),
            max_segments: nseg.iter().copied().max().unwrap_or(0),
            mean_segments: sum_n as f64 / nseg.len().max(1) as f64,
        }
    }
}

/// Time-ordered index split.
#[derive(Debug, Clone)]
pub struct Split {
    /// Training trip indices (earliest).
    pub train: Vec<usize>,
    /// Validation trip indices.
    pub val: Vec<usize>,
    /// Test trip indices (latest).
    pub test: Vec<usize>,
}

/// Summary statistics matching the paper's Table III.
#[derive(Debug, Clone, serde::Serialize)]
pub struct TripStats {
    /// Number of trips.
    pub n_trips: usize,
    /// Minimum travel distance (km).
    pub min_km: f64,
    /// Maximum travel distance (km).
    pub max_km: f64,
    /// Mean travel distance (km).
    pub mean_km: f64,
    /// Minimum number of road segments.
    pub min_segments: usize,
    /// Maximum number of road segments.
    pub max_segments: usize,
    /// Mean number of road segments.
    pub mean_segments: f64,
}

fn pick_weighted(weights: &[f64], rng: &mut StdRng) -> usize {
    let total: f64 = weights.iter().sum();
    let mut u = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if u < w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        Dataset::generate(&CityPreset::tiny_test(), 120, 7)
    }

    #[test]
    fn generates_requested_trip_count() {
        let ds = tiny();
        assert!(ds.trips.len() >= 100, "only {} trips", ds.trips.len());
        for t in &ds.trips {
            assert!(ds.net.is_valid_route(&t.route), "invalid route");
            assert!(t.end_time > t.start_time);
            assert!(!t.gps.is_empty());
        }
    }

    #[test]
    fn trips_sorted_by_time() {
        let ds = tiny();
        for w in ds.trips.windows(2) {
            assert!(w[0].start_time <= w[1].start_time);
        }
    }

    #[test]
    fn split_is_a_partition_in_time_order() {
        let ds = tiny();
        let sp = ds.default_split();
        let total = sp.train.len() + sp.val.len() + sp.test.len();
        assert_eq!(total, ds.trips.len());
        assert!(!sp.train.is_empty() && !sp.test.is_empty());
        // train strictly precedes val precedes test in time
        let t_train = ds.trips[*sp.train.last().unwrap()].start_time;
        let t_test = ds.trips[sp.test[0]].start_time;
        assert!(t_train <= t_test);
    }

    #[test]
    fn tensors_have_grid_size_and_observations() {
        let ds = tiny();
        let sizes: Vec<usize> = (0..ds.num_slots())
            .map(|s| ds.traffic_tensor(s).len())
            .collect();
        assert!(sizes.iter().all(|&s| s == ds.grid.len()));
        // at least one slot has nonzero observations
        let nonzero = (0..ds.num_slots()).any(|s| ds.traffic_tensor(s).iter().any(|&v| v > 0.0));
        assert!(nonzero, "no traffic observations in any slot");
    }

    #[test]
    fn trip_slot_tensor_reflects_recent_past_only() {
        let ds = tiny();
        let trip = &ds.trips[ds.trips.len() / 2];
        let slot = ds.slot_of(trip.start_time);
        // the tensor must exist and the window must strictly precede the slot
        assert!(slot < ds.num_slots());
        let slot_start = slot as f64 * SLOT_SECS;
        assert!(trip.start_time >= slot_start);
    }

    #[test]
    fn unit_coords_in_unit_square() {
        let ds = tiny();
        for t in &ds.trips {
            let c = ds.unit_coord(&t.dest_coord);
            // dest coords can scatter slightly beyond the bbox; allow margin
            assert!(c[0] > -0.5 && c[0] < 1.5);
            assert!(c[1] > -0.5 && c[1] < 1.5);
        }
    }

    #[test]
    fn stats_are_consistent() {
        let ds = tiny();
        let st = ds.trip_stats();
        assert_eq!(st.n_trips, ds.trips.len());
        assert!(st.min_km <= st.mean_km && st.mean_km <= st.max_km);
        assert!(st.min_segments <= st.max_segments);
        assert!(st.mean_segments >= 2.0);
    }

    #[test]
    fn deterministic_generation() {
        let a = Dataset::generate(&CityPreset::tiny_test(), 30, 3);
        let b = Dataset::generate(&CityPreset::tiny_test(), 30, 3);
        assert_eq!(a.trips.len(), b.trips.len());
        for (x, y) in a.trips.iter().zip(&b.trips) {
            assert_eq!(x.route, y.route);
            assert_eq!(x.start_time, y.start_time);
        }
    }

    #[test]
    fn destinations_cluster_at_hotspots() {
        let ds = tiny();
        // mean distance from dest coord to its generating hotspot should be
        // around sigma, far below the city diameter
        let mut total = 0.0;
        for t in &ds.trips {
            total += t.dest_coord.dist(&ds.hotspots[t.hotspot].center);
        }
        let mean = total / ds.trips.len() as f64;
        let (min, max) = ds.net.bounding_box();
        let diag = min.dist(&max);
        assert!(
            mean < diag / 3.0,
            "destinations not clustered: {mean} vs {diag}"
        );
    }
}

#[cfg(test)]
mod tensor_fidelity_tests {
    use super::*;

    /// The observed traffic tensors must carry real congestion signal: cell
    /// values (average observed speed) should correlate positively with the
    /// ground-truth speeds of the segments in those cells at that time.
    #[test]
    fn tensors_correlate_with_ground_truth_speeds() {
        let ds = Dataset::generate(&CityPreset::tiny_test(), 400, 99);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for slot in 0..ds.num_slots() {
            let tensor = ds.traffic_tensor(slot);
            let t = slot as f64 * SLOT_SECS;
            for seg in (0..ds.net.num_segments()).step_by(3) {
                let mid = ds.net.midpoint(seg);
                let Some(cell) = ds.grid.cell_of(&mid) else {
                    continue;
                };
                let observed = tensor[cell] as f64;
                if observed <= 0.0 {
                    continue; // unobserved cell
                }
                xs.push(observed);
                ys.push(ds.traffic.speed(&ds.net, seg, t) / ds.max_speed);
            }
        }
        assert!(
            xs.len() > 200,
            "too few observed (cell, slot) pairs: {}",
            xs.len()
        );
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let vx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
        let vy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
        let r = cov / (vx.sqrt() * vy.sqrt()).max(1e-12);
        assert!(
            r > 0.2,
            "traffic tensors carry no congestion signal: corr = {r:.3} over {} pairs",
            xs.len()
        );
    }
}
