//! `st-tensor`: a from-scratch, CPU, reverse-mode automatic differentiation
//! engine.
//!
//! This crate is the numerical substrate of the DeepST reproduction. The
//! paper's artifact was built on PyTorch; no comparable Rust stack exists for
//! sequential latent-variable models, so we implement the minimum complete
//! engine the model needs:
//!
//! - [`array::Array`] — dense row-major `f32` n-d arrays with the matrix
//!   kernels used by the model (GEMM and fused-transpose variants).
//! - [`tape::Tape`] / [`tape::Var`] — an append-only autodiff tape; node ids
//!   double as a topological order, so backprop is a single reverse sweep.
//! - [`ops`] — differentiable ops (arithmetic, activations, softmax family,
//!   embeddings, concat/slice/mask), each gradient-checked against central
//!   finite differences.
//! - [`conv`] — Conv2d / pooling / per-channel ops for the traffic CNN.
//! - [`param`] — persistent [`param::Param`]s and the [`param::Binder`] that
//!   bridges them onto per-step tapes.
//! - [`optim`] — Adam with gradient clipping.
//! - [`init`] — seeded initializers and the Normal/Gumbel samplers used by
//!   the VAE reparameterizations.
//! - [`analyze`](mod@analyze) — a static graph analyzer: shape dry-runs, gradient-flow
//!   audits, and NaN-hazard detection over exported tape specs, without
//!   executing kernels.
//!
//! # Example
//!
//! ```
//! use st_tensor::{Array, Tape, ops};
//!
//! let tape = Tape::new();
//! let x = tape.leaf(Array::vector(vec![1.0, 2.0, 3.0]));
//! let loss = ops::sum_all(ops::square(x)); // Σ xᵢ²
//! let grads = tape.backward(loss);
//! assert_eq!(grads.expect(x).data(), &[2.0, 4.0, 6.0]);
//! ```

/// Dry-run graph analyzer: shape inference and grad-flow lints.
pub mod analyze;
/// The dense row-major f32 tensor type.
pub mod array;
/// Row-blocked parameter layout for graph-scale tensors.
pub mod block;
/// Finite-difference gradient checking utilities.
pub mod check;
/// Direct convolution kernels and channel-wise ops.
pub mod conv;
mod dispatch;
mod gemm;
/// Tape-free forward kernels and the inference scratch arena.
pub mod infer;
/// Seeded RNG construction and weight initializers.
pub mod init;
#[cfg(feature = "kernel-timing")]
mod ktime;
/// Deterministic, vectorizable transcendental kernels (exp/sigmoid/tanh).
pub mod mathfn;
/// Differentiable tensor operations recorded on the tape.
pub mod ops;
/// The Adam optimizer and gradient clipping.
pub mod optim;
/// Trainable parameters and the tape binder.
pub mod param;
/// The reverse-mode autodiff tape.
pub mod tape;

pub use analyze::{
    analyze, AnalyzerConfig, Diagnostic, GraphSpec, LintKind, Severity, SpecBuilder,
};
pub use array::Array;
pub use block::BlockedParam;
pub use dispatch::simd_active;
pub use infer::{ScratchArena, TapeFreeScope};
pub use param::{Binder, Param};
pub use tape::{Gradients, OpMeta, Tape, Var};
