//! `deepst` — facade crate re-exporting the full DeepST reproduction stack.
//!
//! See the individual crates for details:
//! - [`st_obs`] — spans, metrics, JSONL trace export
//! - [`st_tensor`] — autodiff engine
//! - [`st_nn`] — neural network layers
//! - [`st_roadnet`] — road network substrate
//! - [`st_sim`] — traffic & trip simulator
//! - [`st_mapmatch`] — HMM map matching
//! - [`st_core`] — the DeepST model (the paper's contribution)
//! - [`st_baselines`] — MMI, WSP, RNN, CSSRNN baselines
//! - [`st_recovery`] — STRS route recovery
//! - [`st_eval`] — metrics and experiment runners

#![warn(missing_docs)]

pub use st_baselines as baselines;
pub use st_core as core;
pub use st_eval as eval;
pub use st_mapmatch as mapmatch;
pub use st_nn as nn;
pub use st_obs as obs;
pub use st_recovery as recovery;
pub use st_roadnet as roadnet;
pub use st_sim as sim;
pub use st_tensor as tensor;

/// Write `model` as the CLI's model file (`deepst train --out`): a v2
/// checkpoint with its parameters and batch-norm running statistics.
pub fn save_model_file(
    model: &core::DeepSt,
    path: impl AsRef<std::path::Path>,
) -> Result<(), nn::CheckpointError> {
    nn::save_v2(path, &nn::checkpoint_v2(model, None, None))
}

/// Read a model file written by [`save_model_file`] into `model`, which
/// must have the architecture that wrote it.
pub fn load_model_file(
    model: &core::DeepSt,
    path: impl AsRef<std::path::Path>,
) -> Result<(), nn::CheckpointError> {
    nn::restore_v2(model, &nn::load_v2(path)?)
}
