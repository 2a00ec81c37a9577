//! The common interface all route-prediction methods implement, and the
//! termination scale they share.
//!
//! Each method sees a [`PredictQuery`] and uses only the fields its paper
//! description allows:
//!
//! | method  | start | dest coord | exact dest segment | traffic |
//! |---------|-------|------------|--------------------|---------|
//! | MMI     | ✓     | (termination only) | –          | –       |
//! | RNN     | ✓     | (termination only) | –          | –       |
//! | WSP     | ✓     | –          | ✓                  | –       |
//! | CSSRNN  | ✓     | (termination only) | ✓          | –       |
//! | DeepST-C| ✓     | ✓          | –                  | –       |
//! | DeepST  | ✓     | ✓          | –                  | ✓       |
//!
//! Decoding protocol (see DESIGN.md §4b): destination-aware methods
//! (DeepST, DeepST-C, CSSRNN) decode the most likely route with beam search
//! over their full generative probability including the termination
//! Bernoulli `f_s` ([`crate::beam_decode`]); destination-blind methods
//! (MMI, RNN) use greedy most-likely rollouts in which `f_s` only *stops*
//! generation and never steers it ([`crate::greedy_decode`]); WSP is a
//! Dijkstra query. This keeps each method's information set exactly as the
//! paper describes.

use st_roadnet::{Point, RoadNetwork, Route, SegmentId};

/// Everything a method may condition on for one trip.
#[derive(Debug, Clone)]
pub struct PredictQuery<'a> {
    /// The initial road segment `T.r₁`.
    pub start: SegmentId,
    /// Rough destination coordinate (meters).
    pub dest_coord: Point,
    /// Destination coordinate normalized to the unit square.
    pub dest_norm: [f32; 2],
    /// The exact destination road segment — only CSSRNN and WSP may read
    /// this (the paper grants those baselines exact ending streets).
    pub dest_segment: SegmentId,
    /// The traffic tensor of the trip's slot (`[H·W]`).
    pub traffic: &'a [f32],
    /// The traffic slot id (for caching encodings).
    pub slot_id: usize,
}

/// A route-prediction method under evaluation.
pub trait Predictor {
    /// Display name used in tables.
    fn name(&self) -> &str;

    /// Predict the most likely route for a trip.
    fn predict(&self, net: &RoadNetwork, query: &PredictQuery<'_>) -> Route;
}

/// Termination scale shared by all `f_s`-terminated methods (m): the
/// distance at which `f_s` is e⁻¹ (see [`crate::beam`]).
pub const TERM_SCALE_M: f64 = 150.0;
