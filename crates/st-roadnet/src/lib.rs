//! `st-roadnet`: the road-network substrate for the DeepST reproduction.
//!
//! Provides the directed segment graph of Definition 1 ([`graph::RoadNetwork`]),
//! planar geometry ([`geo`]), Dijkstra shortest paths ([`shortest`]), Yen's
//! k-shortest routes for recovery candidates ([`ksp`]), and a synthetic
//! city generator standing in for the paper's OSM extracts ([`gen`]).

pub mod gen;
pub mod geo;
pub mod graph;
pub mod index;
pub mod ksp;
pub mod shortest;

pub use gen::{grid_city, GridConfig};
pub use geo::Point;
pub use graph::{RoadNetwork, Route, Segment, SegmentId, VertexId};
pub use index::SegmentIndex;
pub use ksp::{k_shortest_routes, ScoredRoute};
pub use shortest::{all_costs_from, shortest_route, CostsTo};
