//! `st-baselines`: every comparison method of the paper's evaluation (§V-A).
//!
//! - [`mmi::Mmi`] — first-order Markov model.
//! - [`wsp::Wsp`] — weighted shortest path on historical mean travel times.
//! - [`rnn::RnnBaseline`] — the vanilla RNN and CSSRNN \[7\] baselines.
//! - [`deepst_wrap::DeepStPredictor`] — adapter running DeepST / DeepST-C
//!   under the common [`predictor::Predictor`] interface.

#![warn(missing_docs)]

pub mod beam;
pub mod deepst_wrap;
pub mod mmi;
pub mod predictor;
pub mod rnn;
pub mod wsp;

pub use beam::{
    beam_decode, beam_decode_closed, greedy_decode, BeamSearch, DecodeCancelled, DeepStDecoder,
    SessionDecoder, StepDecoder,
};
pub use deepst_wrap::DeepStPredictor;
pub use mmi::{Mmi, MmiDecoder};
pub use predictor::{PredictQuery, Predictor, TERM_SCALE_M};
pub use rnn::{RnnBaseline, RnnConfig};
pub use wsp::Wsp;
