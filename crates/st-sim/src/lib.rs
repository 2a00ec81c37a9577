//! `st-sim`: the traffic & trip simulator standing in for the paper's
//! proprietary GPS datasets.
//!
//! The DiDi Chengdu and Harbin taxi datasets are not redistributable; this
//! crate generates synthetic equivalents in which the paper's three
//! explanatory factors — sequential habit, destination pull, and real-time
//! traffic — are *causally* load-bearing for route choice, so the relative
//! model ordering of the paper's evaluation is reproducible (see DESIGN.md
//! §1 for the substitution argument).
//!
//! - [`traffic`] — ground-truth time-varying congestion + observed traffic
//!   tensors on a cell grid.
//! - [`driver`] — the behavioural route-choice model generating trips.
//! - [`trips`] — GPS sampling, downsampling, destination hotspots.
//! - [`dataset`] — city presets (Rivertown ≈ Chengdu, Northport ≈ Harbin),
//!   full dataset assembly and time-based splits.
//! - [`feed`] — live traffic event stream replayed from the ground-truth
//!   process (observation sweeps, incidents, closures) for streaming-serving
//!   tests and benches.
//! - [`arrivals`] — the open-loop rush-hour request-rate profile for
//!   load-generating the prediction service.
//! - [`megacity`] — district-structured 10k–100k-segment worlds whose trips
//!   are generated *streaming*, never materialized in memory.
//! - [`store`] — sharded on-disk trip files with checksummed records and
//!   typed corruption errors; the batch source for streamed training.

pub mod arrivals;
pub mod dataset;
pub mod driver;
pub mod feed;
pub mod megacity;
pub mod store;
pub mod traffic;
pub mod trips;

pub use arrivals::rush_hour_rate;
pub use dataset::{CityPreset, Dataset, Split, TripStats, SLOT_SECS, WINDOW_SECS};
pub use driver::{simulate_route, Attractiveness, DriverConfig};
pub use feed::{incident_event, TrafficFeed};
pub use megacity::{Megacity, MegacityConfig, SlotObs, StreamSummary};
pub use store::{TripStore, TripStoreError, TripStoreWriter};
pub use traffic::{CongestionEvent, TrafficConfig, TrafficGrid, TrafficModel, DAY_SECS};
pub use trips::{downsample, sample_gps, sample_hotspots, GpsPoint, Hotspot, Trajectory, Trip};
