//! District-structured megacity generation, streamed to disk.
//!
//! The paper's cities top out near Harbin's ~12.5k segments; the scale-out
//! work needs worlds an order of magnitude larger without an order of
//! magnitude more RAM. A [`Megacity`] is a jittered lattice partitioned
//! into rectangular *districts* whose borders are arterial corridors:
//! most trips stay inside one district (commutes, errands), a configurable
//! fraction crosses districts along the arterials — the access pattern that
//! makes row-sharded embedding tables pay off, because a minibatch of
//! intra-district trips touches a handful of shards, not the whole table.
//!
//! Trips are *streamed*: [`Megacity::stream_trips`] writes each generated
//! trip straight to a [`TripStoreWriter`](crate::store::TripStoreWriter)
//! and accumulates the per-slot traffic observations incrementally, so
//! peak memory is one trip plus the observation grids — never a
//! `Vec<Trip>` of the whole corpus.

use std::ops::Deref;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use st_core::data::Example;
use st_roadnet::{grid_city, GridConfig, Point, RoadNetwork};

use crate::driver::DriverConfig;
use crate::store::{TripStoreError, TripStoreWriter};
use crate::traffic::TrafficConfig;
use crate::trips::{sample_start_time, Hotspot, Trip};
use crate::world::{self, trip_attempts, Rejection, SlotObs, TripSpec, World};

/// Parameters of a district-structured megacity.
#[derive(Debug, Clone)]
pub struct MegacityConfig {
    /// Districts along x.
    pub districts_x: usize,
    /// Districts along y.
    pub districts_y: usize,
    /// Intersections per district along x.
    pub district_nx: usize,
    /// Intersections per district along y.
    pub district_ny: usize,
    /// Block edge length (m).
    pub spacing_m: f64,
    /// Fraction of trips that cross district borders (the rest are
    /// intra-district).
    pub inter_district_frac: f64,
    /// Traffic observation grid width (cells).
    pub obs_width: usize,
    /// Traffic observation grid height (cells).
    pub obs_height: usize,
    /// GPS sampling period (s) — sparse by default; megacity corpora are
    /// storage-bound.
    pub gps_period: f64,
    /// GPS noise σ (m).
    pub gps_noise: f64,
    /// Traffic process settings.
    pub traffic: TrafficConfig,
    /// Driver behaviour settings.
    pub driver: DriverConfig,
}

impl MegacityConfig {
    /// A megacity sized to roughly `target_segments` directed segments
    /// (a full lattice has ~4·nx·ny; removals trim a few percent).
    /// Districts are ~10 intersections on a side, so `arterial_every`
    /// matches the district pitch and district borders are arterials.
    pub fn with_target_segments(target_segments: usize) -> Self {
        assert!(target_segments >= 64, "megacity needs >= 64 segments");
        let side = ((target_segments as f64 / 4.0).sqrt().round() as usize).max(4);
        let districts = (side / 10).max(1);
        let district_side = side.div_ceil(districts);
        Self {
            districts_x: districts,
            districts_y: districts,
            district_nx: district_side,
            district_ny: district_side,
            spacing_m: 200.0,
            inter_district_frac: 0.2,
            obs_width: 32,
            obs_height: 32,
            gps_period: 30.0,
            gps_noise: 10.0,
            traffic: TrafficConfig {
                days: 3,
                ..TrafficConfig::default()
            },
            driver: DriverConfig::default(),
        }
    }

    /// The road-network generator settings this config implies.
    pub fn grid(&self) -> GridConfig {
        GridConfig {
            nx: self.districts_x * self.district_nx,
            ny: self.districts_y * self.district_ny,
            spacing_m: self.spacing_m,
            jitter_frac: 0.12,
            removal_prob: 0.1,
            arterial_every: self.district_nx,
            local_speed: 8.0,
            arterial_speed: 15.0,
        }
    }

    /// Total district count.
    pub fn num_districts(&self) -> usize {
        self.districts_x * self.districts_y
    }
}

/// A generated megacity: a [`World`] (reached through `Deref`, so
/// `city.net`, `city.grid` and `city.max_speed` read as on any world) plus
/// its districts.
pub struct Megacity {
    world: World,
    /// One destination hotspot per district.
    pub hotspots: Vec<Hotspot>,
    cfg: MegacityConfig,
    /// Segments whose midpoint falls in each district.
    district_segs: Vec<Vec<usize>>,
}

impl Deref for Megacity {
    type Target = World;

    fn deref(&self) -> &World {
        &self.world
    }
}

/// What [`Megacity::stream_trips`] produced: counts plus the incrementally
/// accumulated per-slot traffic observations.
pub struct StreamSummary {
    /// Trips written to the store.
    pub trips: usize,
    /// Trips whose origin and destination districts coincide.
    pub intra_district: usize,
    /// Trips crossing a district border.
    pub inter_district: usize,
    /// Per-slot observation accumulator (finalize with [`SlotObs::tensors`]).
    pub slot_obs: SlotObs,
}

impl Megacity {
    /// Generate the world (network, traffic, hotspots) for `cfg`.
    pub fn generate(cfg: &MegacityConfig, seed: u64) -> Self {
        let world = World::build(
            renumber_district_major(&grid_city(&cfg.grid(), seed), cfg),
            &cfg.traffic,
            (cfg.obs_width, cfg.obs_height),
            cfg.spacing_m,
            seed,
        );
        let net = &world.net;
        let (bb_min, bb_max) = &world.bbox;

        // Bucket segments into districts by midpoint; coordinates are
        // jittered, so clamp into range at the borders.
        let n_districts = cfg.num_districts();
        let mut district_segs: Vec<Vec<usize>> = vec![Vec::new(); n_districts];
        for s in 0..net.num_segments() {
            let d = district_of(cfg, bb_min, bb_max, &net.midpoint(s));
            district_segs[d].push(s);
        }

        // One hotspot per district: the midpoint of a random district
        // segment, scattered at ~1/6 of the district diameter.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4D45_6741);
        let sigma = cfg.spacing_m * (cfg.district_nx.min(cfg.district_ny) as f64) / 6.0;
        let hotspots = district_segs
            .iter()
            .map(|segs| {
                let center = if segs.is_empty() {
                    bb_min.lerp(bb_max, 0.5)
                } else {
                    net.midpoint(segs[rng.gen_range(0..segs.len())])
                };
                Hotspot {
                    center,
                    weight: rng.gen_range(0.5..1.5),
                    sigma,
                }
            })
            .collect();

        Self {
            world,
            hotspots,
            cfg: cfg.clone(),
            district_segs,
        }
    }

    /// The configuration this world was generated from.
    pub fn config(&self) -> &MegacityConfig {
        &self.cfg
    }

    /// District of a coordinate.
    pub fn district_of(&self, p: &Point) -> usize {
        district_of(&self.cfg, &self.bbox.0, &self.bbox.1, p)
    }

    /// Generate `n_trips` trips and stream each straight into `writer`
    /// (the caller `finish()`es it). Trip start times follow a simple
    /// diurnal profile; origins are uniform within the origin district,
    /// destinations scatter around the destination district's hotspot.
    pub fn stream_trips(
        &self,
        n_trips: usize,
        seed: u64,
        writer: &mut TripStoreWriter,
    ) -> Result<StreamSummary, TripStoreError> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7281_95C1);
        let horizon = self.traffic.horizon();
        let n_districts = self.cfg.num_districts();
        let spec = TripSpec {
            driver: &self.cfg.driver,
            hotspots: &self.hotspots,
            accept: &|_, route| route.len() >= 3,
            gps_period: self.cfg.gps_period,
            gps_noise: self.cfg.gps_noise,
        };
        let attempts = trip_attempts(n_trips, n_trips * 6, || {
            let start_time = sample_start_time(horizon, &mut rng);
            let od = rng.gen_range(0..n_districts);
            let segs = &self.district_segs[od];
            if segs.is_empty() {
                return Err(Rejection::NoSegment);
            }
            let cross = n_districts > 1 && rng.gen::<f64>() < self.cfg.inter_district_frac;
            let dd = if cross {
                // uniform over the *other* districts
                let mut d = rng.gen_range(0..n_districts - 1);
                if d >= od {
                    d += 1;
                }
                d
            } else {
                od
            };
            let origin = segs[rng.gen_range(0..segs.len())];
            let trip = self.simulate_trip(&spec, origin, dd, start_time, &mut rng)?;
            Ok((trip, od))
        });
        let mut slot_obs = SlotObs::new(&self.grid, horizon);
        let (mut trips, mut intra, mut inter) = (0usize, 0usize, 0usize);
        for (trip, od) in attempts {
            for gp in &trip.gps {
                slot_obs.record(&self.grid, &gp.p, gp.t, gp.speed);
            }
            writer.append(&trip)?;
            trips += 1;
            if od == trip.hotspot {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        Ok(StreamSummary {
            trips,
            intra_district: intra,
            inter_district: inter,
            slot_obs,
        })
    }

    /// The traffic-tensor slot a start time falls into, clamped into
    /// `[0, n_slots)` by the shared slot rule (each clamp counted in
    /// `sim.slot_of.clamped`).
    pub fn slot_of(&self, t: f64, n_slots: usize) -> usize {
        world::slot_of(t, n_slots)
    }

    /// Build a training [`Example`] from a streamed trip with the shared
    /// trip-to-example path, sharing the per-slot tensors produced by
    /// [`SlotObs::tensors`]. `None` (counted in `sim.example.dropped`) when
    /// the route fails adjacency validation: it cannot for trips this world
    /// generated, but the store is an external input.
    pub fn example(&self, trip: &Trip, tensors: &[Arc<Vec<f32>>]) -> Option<Example> {
        world::example(&self.net, &self.bbox, trip, tensors)
    }
}

/// Rebuild `net` with segments numbered district-major: all of district 0's
/// segments first, then district 1's, and so on (original order within a
/// district). Embedding shards are row ranges, so this aligns them with
/// spatial locality — a minibatch of mostly intra-district trips touches the
/// blocks of its districts, and districts with no training traffic stay
/// gradient-cold. Vertices, geometry, and reverse links are preserved; only
/// segment ids change.
fn renumber_district_major(net: &RoadNetwork, cfg: &MegacityConfig) -> RoadNetwork {
    let (bb_min, bb_max) = net.bounding_box();
    let mut order: Vec<usize> = (0..net.num_segments()).collect();
    order.sort_by_key(|&s| (district_of(cfg, &bb_min, &bb_max, &net.midpoint(s)), s));

    let mut out = RoadNetwork::new();
    for v in 0..net.num_vertices() {
        out.add_vertex(net.vertex(v));
    }
    // A segment and its reverse share a midpoint, hence a district, so
    // adding the pair together keeps the order district-major.
    let mut added = vec![false; net.num_segments()];
    for &old in &order {
        if added[old] {
            continue;
        }
        let seg = net.segment(old);
        match net.reverse_of(old) {
            Some(rev) => {
                out.add_twoway(seg.from, seg.to, seg.base_speed);
                added[rev] = true;
            }
            None => {
                out.add_segment(seg.from, seg.to, seg.base_speed);
            }
        }
        added[old] = true;
    }
    out.freeze();
    out
}

fn district_of(cfg: &MegacityConfig, bb_min: &Point, bb_max: &Point, p: &Point) -> usize {
    let fx = ((p.x - bb_min.x) / (bb_max.x - bb_min.x)).clamp(0.0, 1.0);
    let fy = ((p.y - bb_min.y) / (bb_max.y - bb_min.y)).clamp(0.0, 1.0);
    let dx = ((fx * cfg.districts_x as f64) as usize).min(cfg.districts_x - 1);
    let dy = ((fy * cfg.districts_y as f64) as usize).min(cfg.districts_y - 1);
    dy * cfg.districts_x + dx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TripStore;

    fn small_cfg() -> MegacityConfig {
        MegacityConfig {
            districts_x: 2,
            districts_y: 2,
            district_nx: 5,
            district_ny: 5,
            spacing_m: 150.0,
            inter_district_frac: 0.25,
            obs_width: 8,
            obs_height: 8,
            gps_period: 20.0,
            gps_noise: 8.0,
            traffic: TrafficConfig {
                days: 1,
                events_per_day: 6,
                radius_range: (150.0, 500.0),
                ..TrafficConfig::default()
            },
            driver: DriverConfig::default(),
        }
    }

    #[test]
    fn target_sizing_lands_near_request() {
        for target in [1000usize, 10_000, 50_000] {
            let cfg = MegacityConfig::with_target_segments(target);
            let city = Megacity::generate(&cfg, 5);
            let n = city.net.num_segments();
            assert!(
                n as f64 > target as f64 * 0.6 && (n as f64) < target as f64 * 1.6,
                "target {target}: got {n} segments"
            );
            if target >= 10_000 {
                break; // 50k generation is bench territory, not unit-test
            }
        }
    }

    #[test]
    fn trips_mostly_stay_in_district() {
        let city = Megacity::generate(&small_cfg(), 11);
        let dir = std::env::temp_dir().join(format!("st-sim-mega-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut w = TripStoreWriter::create(&dir, 50).unwrap();
        let summary = city.stream_trips(120, 1, &mut w).unwrap();
        w.finish().unwrap();
        assert!(
            summary.trips >= 80,
            "only {} trips generated",
            summary.trips
        );
        assert!(
            summary.intra_district > summary.inter_district,
            "districts not load-bearing: {} intra vs {} inter",
            summary.intra_district,
            summary.inter_district
        );
        assert!(summary.inter_district > 0, "no arterial crossings at all");

        // round-trip through the store and rebuild examples
        let store = TripStore::open(&dir).unwrap();
        assert_eq!(store.len(), summary.trips);
        let tensors = summary.slot_obs.tensors(city.max_speed);
        let mut n_examples = 0usize;
        for batch in store.batches(32) {
            for trip in batch.unwrap() {
                assert!(city.net.is_valid_route(&trip.route));
                let ex = city.example(&trip, &tensors).expect("example builds");
                assert_eq!(ex.route.len(), trip.route.len());
                n_examples += 1;
            }
        }
        assert_eq!(n_examples, summary.trips);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn districts_partition_the_network() {
        let cfg = small_cfg();
        let city = Megacity::generate(&cfg, 3);
        let total: usize = city.district_segs.iter().map(Vec::len).sum();
        assert_eq!(total, city.net.num_segments());
        assert!(city.district_segs.iter().all(|d| !d.is_empty()));
        assert_eq!(city.hotspots.len(), cfg.num_districts());
    }

    /// Segment ids are district-major (the embedding-shard locality
    /// contract): district indices never decrease along the id axis, so
    /// each district occupies one contiguous id range.
    #[test]
    fn segment_ids_are_district_major() {
        let cfg = small_cfg();
        let city = Megacity::generate(&cfg, 3);
        assert!(cfg.num_districts() > 1, "test needs several districts");
        let districts: Vec<usize> = (0..city.net.num_segments())
            .map(|s| city.district_of(&city.net.midpoint(s)))
            .collect();
        assert!(
            districts.windows(2).all(|w| w[0] <= w[1]),
            "segment ids are not district-major"
        );
        // Renumbering must not have broken reverse links or routing.
        let rev = city.net.reverse_of(0).expect("two-way road");
        assert_eq!(city.net.reverse_of(rev), Some(0));
    }
}
