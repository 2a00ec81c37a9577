//! Every trip attempt of either generator is accepted or counted under
//! exactly one rejection reason: attempts − accepted = Σ rejected. This is a
//! test binary of its own because the counters are process-global: other
//! tests generating trips concurrently would move them.

use st_obs::counter;
use st_roadnet::GridConfig;
use st_sim::{
    CityPreset, Dataset, DriverConfig, Megacity, MegacityConfig, TrafficConfig, TripStoreWriter,
};

const REJECTED: [&str; 4] = [
    "sim.trip.rejected.no_segment",
    "sim.trip.rejected.dest_is_origin",
    "sim.trip.rejected.no_route",
    "sim.trip.rejected.filtered",
];

/// `sim.trip.attempts` and each rejection counter.
fn counts() -> (u64, [u64; 4]) {
    (
        counter("sim.trip.attempts").get(),
        REJECTED.map(|name| counter(name).get()),
    )
}

/// Attempts and per-reason rejections since `before`, checked against
/// `accepted`.
fn accounted(before: (u64, [u64; 4]), accepted: usize) -> (u64, [u64; 4]) {
    let (attempts, rejected) = counts();
    let attempts = attempts - before.0;
    let rejected: [u64; 4] = std::array::from_fn(|i| rejected[i] - before.1[i]);
    assert_eq!(
        attempts,
        accepted as u64 + rejected.iter().sum::<u64>(),
        "attempts {attempts}, accepted {accepted}, rejected {rejected:?}"
    );
    (attempts, rejected)
}

#[test]
fn every_rejected_attempt_is_counted_by_reason() {
    // A paper city at the unit tests' size: the 1 km filter rejects some.
    let before = counts();
    let ds = Dataset::generate(&CityPreset::tiny_test(), 120, 7);
    let (_, rejected) = accounted(before, ds.trips.len());
    assert!(rejected[3] > 0, "the 1 km filter rejected nothing");

    // A city too small for most 1 km trips: generation stops at its cap of
    // 4 attempts per requested trip, short of the request, and the
    // counters say why.
    let tiny = CityPreset::tiny_test();
    let cramped = CityPreset {
        grid: GridConfig {
            nx: 3,
            ny: 3,
            ..tiny.grid.clone()
        },
        ..tiny
    };
    let before = counts();
    let ds = Dataset::generate(&cramped, 60, 7);
    let (attempts, rejected) = accounted(before, ds.trips.len());
    assert!(ds.trips.len() < 60, "cramped city met its request");
    assert_eq!(attempts, 4 * 60);
    assert!(rejected[3] > rejected[0] + rejected[1] + rejected[2]);

    // A Megacity streamed to a store.
    let cfg = MegacityConfig {
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
    };
    let city = Megacity::generate(&cfg, 11);
    let dir = std::env::temp_dir().join(format!("st-sim-rejections-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = TripStoreWriter::create(&dir, 64).unwrap();
    let before = counts();
    let summary = city.stream_trips(100, 2, &mut writer).unwrap();
    writer.finish().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let (attempts, _) = accounted(before, summary.trips);
    assert!(attempts > summary.trips as u64, "no attempt was rejected");
}
