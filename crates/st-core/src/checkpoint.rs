//! Trainer-level crash-safe checkpoints.
//!
//! Bridges the generic v2 checkpoint format in [`st_nn::serialize`] to the
//! training stack: a file written by [`save_training`] carries the model's
//! parameters and batch-norm buffers, the full Adam optimizer state, the
//! epoch RNG state, and the trainer's progress counters —
//! everything needed for [`load_training`] to continue the run
//! *bit-identically*, as if the interruption never happened.
//!
//! Writes are atomic and checksummed (see [`st_nn::serialize::save_v2`]);
//! loads never panic on corrupt input.

use std::path::Path;

use rand::rngs::StdRng;

use st_nn::serialize::{self, CheckpointError, TrainStateRecord};
use st_nn::Module;
use st_tensor::optim::Adam;

/// Trainer progress carried by a checkpoint besides tensors and RNG state.
#[derive(Debug, Clone, Copy)]
pub struct ResumePoint {
    /// Epochs fully completed (training continues at this epoch index).
    pub epoch: usize,
    /// Optimizer steps taken so far.
    pub step: u64,
    /// Divergence rollbacks performed so far.
    pub rollbacks: u32,
    /// Consecutive epochs without validation improvement.
    pub bad_epochs: usize,
    /// Best validation loss seen (`f32::INFINITY` when none yet).
    pub best_val: f32,
}

/// Write a complete training checkpoint to `path` (atomic, checksummed).
pub fn save_training(
    path: impl AsRef<Path>,
    model: &impl Module,
    opt: &Adam,
    rng: &StdRng,
    rp: &ResumePoint,
) -> Result<(), CheckpointError> {
    let train = TrainStateRecord {
        epoch: rp.epoch as u64,
        step: rp.step,
        lr_rollbacks: rp.rollbacks,
        bad_epochs: rp.bad_epochs as u32,
        // Vendored JSON renders non-finite floats as null; keep the "no
        // finite validation loss yet" sentinel out of the payload entirely.
        best_val: rp.best_val.is_finite().then_some(rp.best_val),
        rng: serialize::encode_u64_words(&rng.state()),
    };
    let opt_state = opt.export_state();
    let ckpt = serialize::checkpoint_v2(model, Some(&opt_state), Some(train));
    serialize::save_v2(path, &ckpt)
}

/// Load a checkpoint written by [`save_training`] into `model`, `opt`, and
/// `rng`, returning the progress counters. On error the targets may be
/// partially updated; callers should treat any error as "cannot resume"
/// and start from fresh state.
pub fn load_training(
    path: impl AsRef<Path>,
    model: &impl Module,
    opt: &mut Adam,
    rng: &mut StdRng,
) -> Result<ResumePoint, CheckpointError> {
    let ckpt = serialize::load_v2(path)?;
    serialize::restore_v2(model, &ckpt)?;
    let opt_rec = ckpt
        .opt
        .as_ref()
        .ok_or_else(|| CheckpointError::Corrupt("missing optimizer state".into()))?;
    opt.import_state(opt_rec.to_adam()?)
        .map_err(CheckpointError::Corrupt)?;
    let t = ckpt
        .train
        .as_ref()
        .ok_or_else(|| CheckpointError::Corrupt("missing training state".into()))?;
    let words = serialize::decode_u64_words(&t.rng)?;
    let state: [u64; 4] = words.as_slice().try_into().map_err(|_| {
        CheckpointError::Corrupt(format!("rng state has {} words, expected 4", words.len()))
    })?;
    if state == [0, 0, 0, 0] {
        return Err(CheckpointError::Corrupt("all-zero rng state".into()));
    }
    *rng = StdRng::from_state(state);
    Ok(ResumePoint {
        epoch: t.epoch as usize,
        step: t.step,
        rollbacks: t.lr_rollbacks,
        bad_epochs: t.bad_epochs as usize,
        best_val: t.best_val.unwrap_or(f32::INFINITY),
    })
}
