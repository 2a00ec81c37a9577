//! `st-eval`: metrics and experiment runners for the DeepST reproduction.
//!
//! - [`metrics`] — recall@n (Eq. 8) and accuracy (Eq. 9), distance buckets.
//! - [`runner`] — dataset → examples → trained methods → evaluation
//!   (the machinery behind Tables IV/VI and Fig. 7).
//! - [`report`] — ASCII tables, bar "figures", heat maps, JSON output.

#![warn(missing_docs)]

pub mod metrics;
pub mod report;
pub mod runner;
pub mod viz;

pub use metrics::{accuracy, distance_bucket, recall_at_n, MetricSums, DISTANCE_BUCKETS};
pub use runner::{
    build_examples, deepst_config, evaluate_methods, quantile_buckets, teacher_forced_accuracy,
    train_all_methods, train_deepst, EvalSummary, MethodResult, SuiteConfig,
};
pub use viz::{RouteLayer, SvgScene};
