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
//! - [`world`] — the one path every generator shares: world building
//!   (network → traffic, attractiveness, observation grid, segment index),
//!   trip simulation with counted rejections, the per-slot observation
//!   accumulator behind the traffic tensors, the slot rule, unit-square
//!   normalization and example building.
//! - [`traffic`] — ground-truth time-varying congestion and the cell grid
//!   traffic is observed on.
//! - [`driver`] — the behavioural route-choice model generating trips.
//! - [`trips`] — GPS sampling, downsampling, destination hotspots.
//! - [`dataset`] — city presets (Rivertown ≈ Chengdu, Northport ≈ Harbin),
//!   in-memory datasets on the shared world path and time-based splits.
//! - [`feed`] — live traffic event stream replayed from the ground-truth
//!   process (observation sweeps, incidents, closures) for streaming-serving
//!   tests and benches.
//! - [`arrivals`] — the open-loop rush-hour request-rate profile for
//!   load-generating the prediction service.
//! - [`megacity`] — district-structured 10k–100k-segment worlds on the
//!   same path, whose trips are *streamed* to disk, never materialized in
//!   memory.
//! - [`store`] — sharded on-disk trip files with checksummed records and
//!   typed corruption errors; the batch source for streamed training.

#![warn(missing_docs)]

pub mod arrivals;
pub mod dataset;
pub mod driver;
pub mod feed;
pub mod megacity;
pub mod store;
pub mod traffic;
pub mod trips;
pub mod world;

pub use arrivals::rush_hour_rate;
pub use dataset::{CityPreset, Dataset, Split, TripStats, SLOT_SECS, WINDOW_SECS};
pub use driver::{simulate_route, Attractiveness, DriverConfig};
pub use feed::TrafficFeed;
pub use megacity::{Megacity, MegacityConfig, StreamSummary};
pub use store::{TripStore, TripStoreError, TripStoreWriter};
pub use traffic::{CongestionEvent, TrafficConfig, TrafficGrid, TrafficModel, DAY_SECS};
pub use trips::{downsample, sample_gps, sample_hotspots, GpsPoint, Hotspot, Trajectory, Trip};
pub use world::{SlotObs, World};
