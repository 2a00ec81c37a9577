//! `st-core`: the DeepST model — the paper's primary contribution.
//!
//! DeepST (Deep Probabilistic Spatial Transition, ICDE 2020) explains the
//! generation of a route by conditioning on three explanatory factors: the
//! past traveled road sequence (GRU representation, §IV-B), the destination
//! (K-destination proxies learned by an adjoint generative model, §IV-C) and
//! real-time traffic (a latent variable whose posterior is inferred from
//! observed traffic tensors by a CNN, §IV-D). Inference and learning follow
//! the VAE framework with the ELBO of Eq. 7 (Gaussian reparameterization for
//! `c`, Gumbel-Softmax for `π`).
//!
//! - [`config::DeepStConfig`] — hyper-parameters (paper values scaled for CPU).
//! - [`model::DeepSt`] — parameters and forward components.
//! - [`data::Example`] — the observable view of a trip `(r, x, C)`.
//! - [`train::Trainer`] — Algorithm 1 (minibatch ELBO maximization, Adam):
//!   one fault-tolerant loop, [`train::Trainer::fit`], over any
//!   [`train::BatchSource`] (in-memory examples or a per-epoch stream),
//!   for any [`train::TrainModel`] (DeepST, DeepST-C and the RNN/CSSRNN
//!   baselines).
//! - [`checkpoint`] — crash-safe training checkpoints (save/resume).
//! - [`faultinject`] — deterministic fault injection for tests.
//! - [`predict`] — Algorithm 2 (route generation) and likelihood scoring.
//! - [`cancel`] — cooperative cancellation tokens for decode loops.

pub mod cancel;
pub mod checkpoint;
pub mod config;
pub mod data;
pub mod faultinject;
pub mod livetraffic;
pub mod model;
pub mod parallel;
pub mod predict;
pub mod train;

pub use cancel::CancelToken;
pub use checkpoint::ResumePoint;
pub use config::DeepStConfig;
pub use data::Example;
pub use faultinject::{
    FaultInjector, FaultPlan, FeedFaultPlan, ServeFaultInjector, ServeFaultPlan,
};
pub use livetraffic::{
    ApplyOutcome, CacheCounts, TrafficCache, TrafficEvent, TrafficEventKind, VersionedTraffic,
};
pub use model::{DeepSt, EmbMemory};
pub use predict::{InferSession, TripContext};
pub use train::{
    BatchSource, ElboStats, EpochStats, TrainConfig, TrainError, TrainEvent, TrainHistory,
    TrainModel, Trainer,
};
