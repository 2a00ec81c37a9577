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
//!   embeddings, slice/mask), each gradient-checked against central finite
//!   differences. Each op checks its operands' shapes when it records.
//! - [`conv`] — Conv2d / pooling / per-channel ops for the traffic CNN.
//! - [`gru`] — the GRU layer-step as one op (the decoder's fused step
//!   forward, a hand-written backward with the composed graph's bits).
//! - [`param`] — persistent [`param::Param`]s and the [`param::Binder`] that
//!   bridges them onto per-step tapes.
//! - [`optim`] — Adam with gradient clipping.
//! - [`init`] — seeded initializers and the Normal/Gumbel samplers used by
//!   the VAE reparameterizations.
//! - [`analyze`](mod@analyze) — a static graph analyzer: gradient-flow
//!   audits, NaN-hazard detection and accumulation-depth checks over the
//!   graph a tape recorded, without executing kernels.
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

#![warn(missing_docs)]

pub mod analyze;
pub mod array;
pub mod block;
pub mod check;
pub mod conv;
mod dispatch;
mod gemm;
pub mod gru;
pub mod infer;
pub mod init;
#[cfg(feature = "kernel-timing")]
mod ktime;
pub mod mathfn;
pub mod ops;
pub mod optim;
pub mod param;
pub mod tape;

pub use analyze::{analyze, Diagnostic, GraphSpec, LintKind, Severity};
pub use array::Array;
pub use block::BlockedParam;
pub use dispatch::simd_tier;
pub use infer::{ScratchArena, TapeFreeScope};
pub use param::{Binder, Param};
pub use tape::{Gradients, OpMeta, Tape, Var};
