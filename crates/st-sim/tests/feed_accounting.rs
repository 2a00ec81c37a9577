//! Every ground-truth incident is an event of the live feed or is counted
//! once under the reason it is not replayed as it is. This is a test binary
//! of its own because the counters are process-global: other tests building
//! feeds concurrently would move them.

use st_core::livetraffic::TrafficEventKind;
use st_obs::counter;
use st_roadnet::{grid_city, GridConfig, RoadNetwork};
use st_sim::{CityPreset, Dataset, TrafficConfig, TrafficFeed, TrafficGrid, TrafficModel};

/// Dropped past the horizon, dropped off the grid, closure demoted.
const COUNTERS: [&str; 3] = [
    "sim.feed.dropped.past_horizon",
    "sim.feed.dropped.off_grid",
    "sim.feed.demoted.no_segment",
];

fn counts() -> [u64; 3] {
    COUNTERS.map(|name| counter(name).get())
}

/// The feed of `ds` and the counter deltas its build moved, checked: each
/// incident event reports one ground-truth incident (its time is the
/// incident's onset + 1 s), and the incidents no event reports are exactly
/// the dropped ones.
fn accounted(ds: &Dataset) -> (TrafficFeed, [u64; 3]) {
    let before = counts();
    let feed = TrafficFeed::from_dataset(ds);
    let after = counts();
    let moved: [u64; 3] = std::array::from_fn(|i| after[i] - before[i]);

    let mut unreported: Vec<u64> = ds
        .traffic
        .incidents()
        .iter()
        .map(|inc| (inc.t_start + 1.0).to_bits())
        .collect();
    for ev in feed.events() {
        if ev.kind == TrafficEventKind::Observation {
            continue;
        }
        let k = unreported
            .iter()
            .position(|&t| t == ev.time.to_bits())
            .unwrap_or_else(|| panic!("event {} reports no incident", ev.seq));
        unreported.swap_remove(k);
    }
    assert_eq!(
        unreported.len() as u64,
        moved[0] + moved[1],
        "incidents neither replayed nor counted as dropped ({moved:?})"
    );
    (feed, moved)
}

fn closures(feed: &TrafficFeed) -> usize {
    feed.events()
        .iter()
        .filter(|e| matches!(e.kind, TrafficEventKind::Closure { .. }))
        .count()
}

#[test]
fn every_incident_is_replayed_or_counted_once() {
    // As generated, every incident lies inside the horizon and the grid.
    let mut ds = Dataset::generate(&CityPreset::tiny_test(), 30, 7);
    assert!(!ds.traffic.incidents().is_empty());
    let (feed, moved) = accounted(&ds);
    assert_eq!(moved, [0, 0, 0]);
    let severe = closures(&feed);
    assert!(severe > 0, "no incident reached closure severity");

    // Incidents over twice the days the tensors cover: the later ones start
    // past the horizon.
    let generated = ds.traffic;
    let longer = TrafficConfig {
        days: 2 * ds.preset.traffic.days,
        ..ds.preset.traffic.clone()
    };
    ds.traffic = TrafficModel::generate(&ds.net, &longer, 7);
    let (_, moved) = accounted(&ds);
    assert!(moved[0] > 0, "no incident started past the horizon");
    assert_eq!(moved[1..], [0, 0]);
    ds.traffic = generated;

    // An observation grid over the city's south-west corner only: the
    // incidents centred elsewhere are off it.
    let city_grid = ds.grid;
    let corner = grid_city(
        &GridConfig {
            nx: 2,
            ny: 2,
            ..ds.preset.grid.clone()
        },
        7,
    );
    ds.grid = TrafficGrid::new(&corner, ds.preset.obs_width, ds.preset.obs_height);
    let (_, moved) = accounted(&ds);
    assert!(moved[1] > 0, "no incident was centred off the corner grid");
    assert_eq!((moved[0], moved[2]), (0, 0));
    ds.grid = city_grid;

    // No segment to close: every closure is replayed as an incident, and
    // counted.
    ds.net = RoadNetwork::new();
    let (feed, moved) = accounted(&ds);
    assert_eq!(closures(&feed), 0);
    assert_eq!(moved, [0, 0, severe as u64]);
}
