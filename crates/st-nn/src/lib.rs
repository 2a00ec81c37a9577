//! `st-nn`: neural network layers on top of the `st-tensor` autodiff engine.
//!
//! Provides every layer DeepST and its baselines need: [`linear::Linear`] /
//! [`linear::Mlp`], stacked [`gru::Gru`], [`embedding::Embedding`] lookup
//! tables, and the traffic CNN stack ([`conv::ConvBlock`],
//! [`conv::BatchNorm2d`], [`conv::TrafficCnn`]). All layers implement
//! [`module::Module`] for uniform parameter handling. The [`analyze`] module
//! runs the `st-tensor` graph analyzer over a recorded forward pass plus a
//! module's full parameter list (catching never-bound parameters).

/// Module-level static analysis of recorded forward passes.
pub mod analyze;
/// Convolution blocks and batch normalization for the traffic CNN.
pub mod conv;
/// Road-segment embedding lookup tables.
pub mod embedding;
/// GRU cells and stacked recurrent layers.
pub mod gru;
/// Linear layers and multi-layer perceptrons.
pub mod linear;
/// The [`module::Module`] trait: uniform parameter/buffer handling.
pub mod module;
/// Checkpoint serialization (bit-exact, checksummed, atomic).
pub mod serialize;

pub use analyze::{analyze_module_graph, analyze_module_graph_with};
pub use conv::{BatchNorm2d, BnBatchStats, ConvBlock, TrafficCnn};
pub use embedding::Embedding;
pub use gru::{Gru, GruCell, PackedGru, PackedGruCell, RunningRows};
pub use linear::{Linear, Mlp};
pub use module::{Activation, Module};
pub use serialize::{
    checkpoint_v2, load_v2, restore_v2, save_v2, CheckpointError, CheckpointV2, OptStateRecord,
    TensorRecord, TrainStateRecord,
};
