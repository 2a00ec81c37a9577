//! Bit pins of the trip generators and the shared slot rule.
//!
//! Each pin is an FNV-1a fingerprint of everything a generator emits: every
//! trip (route, start/end time bits, destination bits, GPS bits, hotspot)
//! and every per-slot traffic tensor. The values were recorded before the
//! paper cities and the Megacity shared one world, trip and observation
//! path, so any refactor that moves one generated bit fails here.

use st_sim::{
    CityPreset, Dataset, DriverConfig, Megacity, MegacityConfig, TrafficConfig, Trip, TripStore,
    TripStoreWriter,
};

/// FNV-1a 64 over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn trip(&mut self, t: &Trip) {
        self.word(t.route.len() as u64);
        for &s in &t.route {
            self.word(s as u64);
        }
        self.float(t.start_time);
        self.float(t.end_time);
        self.float(t.dest_coord.x);
        self.float(t.dest_coord.y);
        self.word(t.gps.len() as u64);
        for gp in &t.gps {
            self.float(gp.p.x);
            self.float(gp.p.y);
            self.float(gp.t);
            self.float(gp.speed);
        }
        self.word(t.hotspot as u64);
    }

    fn tensor(&mut self, tensor: &[f32]) {
        self.word(tensor.len() as u64);
        for &v in tensor {
            self.word(u64::from(v.to_bits()));
        }
    }
}

/// `(trips, trip fingerprint, slots, tensor fingerprint)` of a dataset.
fn dataset_pin(preset: &CityPreset, n_trips: usize, seed: u64) -> (usize, u64, usize, u64) {
    let ds = Dataset::generate(preset, n_trips, seed);
    let mut trips = Fnv::new();
    for t in &ds.trips {
        trips.trip(t);
    }
    let mut tensors = Fnv::new();
    for slot in 0..ds.num_slots() {
        tensors.tensor(ds.traffic_tensor(slot));
    }
    (ds.trips.len(), trips.0, ds.num_slots(), tensors.0)
}

#[test]
fn tiny_dataset_bits_are_pinned() {
    assert_eq!(
        dataset_pin(&CityPreset::tiny_test(), 120, 7),
        (120, 16013611529880762295, 145, 5500074797836112287)
    );
}

#[test]
fn rivertown_dataset_bits_are_pinned() {
    assert_eq!(
        dataset_pin(&CityPreset::rivertown(), 700, 7),
        (700, 3969386129660724480, 289, 17959603173558688263)
    );
}

/// Northport, the decode-batch world: recorded while the driver's reverse
/// search still settled the whole network before every trip.
#[test]
fn northport_dataset_bits_are_pinned() {
    assert_eq!(
        dataset_pin(&CityPreset::northport(), 300, 7),
        (300, 12849263658948558505, 289, 2746546501496325255)
    );
}

fn small_megacity() -> MegacityConfig {
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

/// A small Megacity streamed through a `TripStore`: the trips read back,
/// the `SlotObs` tensors, the stream's district counts and the examples
/// built from the stored trips.
#[test]
fn megacity_stream_bits_are_pinned() {
    let city = Megacity::generate(&small_megacity(), 11);
    let dir = std::env::temp_dir().join(format!("st-sim-pins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = TripStoreWriter::create(&dir, 40).unwrap();
    let summary = city.stream_trips(150, 3, &mut writer).unwrap();
    writer.finish().unwrap();
    let store = TripStore::open(&dir).unwrap();
    let tensors = summary.slot_obs.tensors(city.max_speed);

    let (mut trips, mut examples) = (Fnv::new(), Fnv::new());
    for trip in store.iter() {
        let trip = trip.unwrap();
        trips.trip(&trip);
        let ex = city.example(&trip, &tensors).expect("stored trips build");
        examples.word(ex.slot_id as u64);
        examples.word(u64::from(ex.dest[0].to_bits()));
        examples.word(u64::from(ex.dest[1].to_bits()));
        for &s in &ex.slots {
            examples.word(s as u64);
        }
    }
    let mut slot_tensors = Fnv::new();
    for t in &tensors {
        slot_tensors.tensor(t);
    }
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(
        (
            city.net.num_segments(),
            summary.trips,
            summary.intra_district,
            summary.inter_district,
        ),
        (328, 150, 111, 39)
    );
    assert_eq!(
        (trips.0, tensors.len(), slot_tensors.0, examples.0),
        (
            11956810573478754973,
            73,
            4250614248492258171,
            3254300004101298286
        )
    );
}

/// One slot rule for both generators: NaN, ±∞, negative and past-horizon
/// times land in the same slot of a `Dataset` and a `Megacity` with as many
/// slots, and each clamp moves `sim.slot_of.clamped` once. (No other test
/// in this binary clamps, so the deltas are exact.)
#[test]
fn slot_rule_is_shared_and_every_clamp_is_counted() {
    let ds = Dataset::generate(&CityPreset::tiny_test(), 20, 7);
    let city = Megacity::generate(&small_megacity(), 11);
    let n = ds.num_slots();
    let last = n - 1;
    let horizon = n as f64 * st_sim::SLOT_SECS;
    let clamped = st_obs::counter("sim.slot_of.clamped");
    for (t, want) in [
        (f64::NAN, 0),
        (f64::NEG_INFINITY, 0),
        (-5.0, 0),
        (f64::INFINITY, last),
        (horizon, last),
        (horizon * 10.0, last),
    ] {
        let before = clamped.get();
        assert_eq!(ds.try_slot_of(t), None, "t = {t}");
        assert_eq!(ds.slot_of(t), want, "dataset, t = {t}");
        assert_eq!(city.slot_of(t, n), want, "megacity, t = {t}");
        assert_eq!(clamped.get(), before + 2, "t = {t}: clamps not counted");
    }
    let before = clamped.get();
    for (t, slot) in [(0.0, 0), (1500.0, 1), (horizon - 1.0, last)] {
        assert_eq!(ds.try_slot_of(t), Some(slot));
        assert_eq!(ds.slot_of(t), slot);
        assert_eq!(city.slot_of(t, n), slot);
    }
    assert_eq!(clamped.get(), before, "an in-range time was counted");
}
