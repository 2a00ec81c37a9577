//! `st-recovery`: route recovery from sparse trajectories (§V-C).
//!
//! Implements the STRS framework of \[2\]: `argmax_r P(t|r)·P(r)` over
//! candidate routes per observation gap. The spatial module `P(r)` is
//! pluggable; plugging DeepST's route likelihood in yields **STRS+**, the
//! paper's Table V comparison.

pub mod strs;
pub mod ttime;

pub use strs::{DeepStSpatial, MarkovSpatial, Recovery, RecoveryConfig, SpatialModel};
pub use ttime::TravelTimeModel;
