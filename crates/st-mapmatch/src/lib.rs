//! `st-mapmatch`: Hidden-Markov-Model map matching (Newson & Krumm, 2009 —
//! the paper's reference \[42\]), used to map GPS trajectories onto the road
//! network for route recovery.

#![warn(missing_docs)]

pub mod hmm;

pub use hmm::{route_distance, MapMatcher, MatchConfig};
