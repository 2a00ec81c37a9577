//! Trip and GPS trajectory generation.
//!
//! Trips follow the paper's Definitions 3–4: a trip is a travel along a
//! route starting at time `s`; a GPS trajectory is the sequence of noisy
//! position samples emitted while traversing that route under the live
//! traffic speeds.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use st_roadnet::{Point, RoadNetwork, Route, SegmentId};

use crate::traffic::{TrafficModel, DAY_SECS};

/// One GPS sample `⟨p, τ⟩` (plus the device-reported instantaneous speed,
/// which real GPS units provide and which the traffic tensors are built
/// from).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GpsPoint {
    /// Sampled position (with sensor noise).
    pub p: Point,
    /// Timestamp (s since simulation start).
    pub t: f64,
    /// Device-reported speed (m/s).
    pub speed: f64,
}

/// A GPS trajectory (Definition 3).
pub type Trajectory = Vec<GpsPoint>;

/// A simulated trip: the ground-truth route plus everything a model may
/// observe about it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trip {
    /// Ground-truth traveled route (Definition 2).
    pub route: Route,
    /// Start time `T.s` (s).
    pub start_time: f64,
    /// End time (s) — when the last segment is fully traversed.
    pub end_time: f64,
    /// Rough destination coordinate `T.x` (the paper assumes only this, not
    /// the exact destination segment, is known).
    pub dest_coord: Point,
    /// GPS trajectory emitted along the route.
    pub gps: Trajectory,
    /// Index of the destination hotspot that generated this trip (ground
    /// truth for diagnostics; models never see it).
    pub hotspot: usize,
}

impl Trip {
    /// The initial road segment `T.r₁`.
    pub fn origin_segment(&self) -> SegmentId {
        self.route[0]
    }

    /// The final road segment actually traveled.
    pub fn dest_segment(&self) -> SegmentId {
        // st-lint: allow(panic-in-lib) — simulated trips have >= 2 segments
        *self.route.last().unwrap()
    }

    /// Trip duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end_time - self.start_time
    }
}

/// Walk `route` starting at `start_time` under `traffic`, emitting a sample
/// every `sample_period` seconds with isotropic Gaussian noise `noise_m`.
/// Also returns the arrival time at the end of the route.
pub fn sample_gps(
    net: &RoadNetwork,
    traffic: &TrafficModel,
    route: &[SegmentId],
    start_time: f64,
    sample_period: f64,
    noise_m: f64,
    rng: &mut StdRng,
) -> (Trajectory, f64) {
    assert!(sample_period > 0.0);
    let mut traj = Vec::new();
    let mut t = start_time;
    let mut next_sample = start_time;
    for &seg in route {
        let speed = traffic.speed(net, seg, t);
        let seg_time = net.segment(seg).length / speed;
        let (a, b) = (net.start_point(seg), net.end_point(seg));
        // emit all samples that fall while traversing this segment
        while next_sample < t + seg_time {
            let frac = ((next_sample - t) / seg_time).clamp(0.0, 1.0);
            let pos = a.lerp(&b, frac);
            let noisy = Point::new(pos.x + gauss(rng) * noise_m, pos.y + gauss(rng) * noise_m);
            traj.push(GpsPoint {
                p: noisy,
                t: next_sample,
                speed,
            });
            next_sample += sample_period;
        }
        t += seg_time;
    }
    // final point at arrival
    if let Some(&seg) = route.last() {
        let end = net.end_point(seg);
        traj.push(GpsPoint {
            p: Point::new(end.x + gauss(rng) * noise_m, end.y + gauss(rng) * noise_m),
            t,
            speed: traffic.speed(net, seg, t),
        });
    }
    (traj, t)
}

/// Downsample a trajectory to one point per `period` seconds (keeping the
/// first and last points) — the sparse-trajectory generator for Table V.
pub fn downsample(traj: &[GpsPoint], period: f64) -> Trajectory {
    assert!(period > 0.0);
    let mut out = Vec::new();
    let mut next_keep = f64::NEG_INFINITY;
    for (i, gp) in traj.iter().enumerate() {
        if gp.t >= next_keep || i == traj.len() - 1 {
            out.push(*gp);
            next_keep = gp.t + period;
        }
    }
    out
}

/// Box–Muller standard normal (f64 variant for geometry).
pub(crate) fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// `p` scattered by isotropic Gaussian noise of `sigma` (x drawn first).
pub(crate) fn jitter(p: &Point, sigma: f64, rng: &mut StdRng) -> Point {
    Point::new(p.x + gauss(rng) * sigma, p.y + gauss(rng) * sigma)
}

/// Diurnal start-time sampler: uniform day, hours drawn from a mixture with
/// morning/evening peaks. Cities and megacities draw trip starts from it.
pub(crate) fn sample_start_time(horizon: f64, rng: &mut StdRng) -> f64 {
    let days = (horizon / DAY_SECS).floor().max(1.0);
    let day = rng.gen_range(0..days as usize) as f64;
    let hour = loop {
        let h: f64 = match rng.gen_range(0..3) {
            0 => 8.0 + gauss(rng) * 1.5,   // morning peak
            1 => 18.0 + gauss(rng) * 1.8,  // evening peak
            _ => rng.gen_range(6.0..23.0), // background
        };
        if (0.0..24.0).contains(&h) {
            break h;
        }
    };
    (day * DAY_SECS + hour * 3600.0).min(horizon - 1.0)
}

/// A destination hotspot: trips gravitate toward a small set of popular
/// areas (malls, stations, business districts). The K-destination proxies of
/// §IV-C are exactly the structure that can exploit this.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Hotspot {
    /// Hotspot center.
    pub center: Point,
    /// Sampling weight (popularity).
    pub weight: f64,
    /// Std-dev of destination scatter around the center (m).
    pub sigma: f64,
}

/// Sample `k` hotspots over the network's bounding box.
pub fn sample_hotspots(net: &RoadNetwork, k: usize, rng: &mut StdRng) -> Vec<Hotspot> {
    let (min, max) = net.bounding_box();
    (0..k)
        .map(|_| Hotspot {
            center: Point::new(rng.gen_range(min.x..max.x), rng.gen_range(min.y..max.y)),
            weight: rng.gen_range(0.5..3.0),
            sigma: rng.gen_range(120.0..320.0),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficConfig;
    use st_roadnet::{grid_city, GridConfig};

    fn setup() -> (RoadNetwork, TrafficModel) {
        let net = grid_city(&GridConfig::small_test(), 5);
        let tm = TrafficModel::generate(&net, &TrafficConfig::default(), 5);
        (net, tm)
    }

    #[test]
    fn gps_timestamps_monotone_and_spaced() {
        let (net, tm) = setup();
        let mut rng = rand::SeedableRng::seed_from_u64(1);
        let route: Vec<SegmentId> = {
            // build some valid route greedily
            let mut r = vec![0];
            for _ in 0..5 {
                let n = net.next_segments(*r.last().unwrap())[0];
                r.push(n);
            }
            r
        };
        let (traj, end) = sample_gps(&net, &tm, &route, 100.0, 3.0, 5.0, &mut rng);
        assert!(traj.len() >= 3);
        for w in traj.windows(2) {
            assert!(w[1].t >= w[0].t);
        }
        assert!(end > 100.0);
        assert_eq!(traj[0].t, 100.0);
        // samples every ~3s (except the final arrival point)
        for w in traj[..traj.len() - 1].windows(2) {
            assert!((w[1].t - w[0].t - 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn gps_points_near_route() {
        let (net, tm) = setup();
        let mut rng = rand::SeedableRng::seed_from_u64(2);
        let route = vec![0, net.next_segments(0)[0]];
        let (traj, _) = sample_gps(&net, &tm, &route, 0.0, 1.0, 3.0, &mut rng);
        for gp in &traj {
            let dmin = route
                .iter()
                .map(|&s| net.dist_to_segment(&gp.p, s))
                .fold(f64::INFINITY, f64::min);
            assert!(dmin < 25.0, "GPS point {dmin}m from route");
        }
    }

    #[test]
    fn downsample_respects_period() {
        let traj: Trajectory = (0..100)
            .map(|i| GpsPoint {
                p: Point::new(i as f64, 0.0),
                t: i as f64 * 3.0,
                speed: 1.0,
            })
            .collect();
        let sparse = downsample(&traj, 60.0);
        assert!(sparse.len() < 10);
        for w in sparse[..sparse.len() - 1].windows(2) {
            assert!(w[1].t - w[0].t >= 60.0 - 1e-9);
        }
        // endpoints preserved
        assert_eq!(sparse[0].t, traj[0].t);
        assert_eq!(sparse.last().unwrap().t, traj.last().unwrap().t);
    }

    #[test]
    fn hotspots_inside_city() {
        let (net, _) = setup();
        let mut rng = rand::SeedableRng::seed_from_u64(3);
        let hs = sample_hotspots(&net, 6, &mut rng);
        assert_eq!(hs.len(), 6);
        let (min, max) = net.bounding_box();
        for h in &hs {
            assert!(h.center.x >= min.x && h.center.x <= max.x);
            assert!(h.center.y >= min.y && h.center.y <= max.y);
            assert!(h.weight > 0.0 && h.sigma > 0.0);
        }
    }

    #[test]
    fn gauss_is_centered() {
        let mut rng = rand::SeedableRng::seed_from_u64(4);
        let mean: f64 = (0..10_000).map(|_| gauss(&mut rng)).sum::<f64>() / 10_000.0;
        assert!(mean.abs() < 0.05);
    }
}
