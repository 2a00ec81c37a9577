//! `st-nn`: neural network layers on top of the `st-tensor` autodiff engine.
//!
//! Provides every layer DeepST and its baselines need: [`linear::Linear`] /
//! [`linear::Mlp`], stacked [`gru::Gru`], [`embedding::Embedding`] lookup
//! tables, and the traffic CNN stack ([`conv::ConvBlock`],
//! [`conv::BatchNorm2d`], [`conv::TrafficCnn`]). All layers implement
//! [`module::Module`] for uniform parameter handling. The [`analyze`] module
//! runs the `st-tensor` graph analyzer over a recorded forward pass plus a
//! module's full parameter list (catching never-bound parameters).

#![warn(missing_docs)]

pub mod analyze;
pub mod conv;
pub mod embedding;
pub mod gru;
pub mod linear;
pub mod module;
pub mod serialize;

pub use analyze::analyze_module_graph;
pub use conv::{BatchNorm2d, BnBatchStats, ConvBlock, TrafficCnn};
pub use embedding::Embedding;
pub use gru::{Gru, GruCell, PackedGru, PackedGruCell, RunningRows};
pub use linear::{Linear, Mlp};
pub use module::{Activation, Module};
pub use serialize::{
    checkpoint_v2, load_v2, restore_v2, save_v2, CheckpointError, CheckpointV2, OptStateRecord,
    TensorRecord, TrainStateRecord,
};
