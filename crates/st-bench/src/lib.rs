//! `st-bench`: experiment binaries regenerating every table and figure of
//! the paper's evaluation (§V).
//!
//! Binaries (`cargo run --release -p st-bench --bin <name> [-- --quick|--full]`):
//!
//! | bin      | reproduces |
//! |----------|------------|
//! | `table3` | Table III — dataset statistics |
//! | `table4` | Table IV — overall recall@n / accuracy for all methods |
//! | `table5` | Table V — route recovery accuracy vs sampling rate |
//! | `table6` | Table VI — sensitivity to K (destination proxies) |
//! | `fig5`   | Fig. 5 — spatial distribution of GPS points |
//! | `fig6`   | Fig. 6 — travel distance / segment-count distributions |
//! | `fig7`   | Fig. 7 — accuracy vs travel distance per method |
//! | `fig8`   | Fig. 8 — training time vs training-set size |
//! | `run_all`| everything above, sharing one dataset and prediction suite per city |
//! | `ablate` | reproduction-specific ablations |
//!
//! Every bin prints a human-readable table/figure and writes JSON under
//! `results/`. Each table and figure is defined once, in [`paper`]: its bin
//! and `run_all` call the same function, so both write the same file.
//! Training, decode, serving and live-feed throughput, and the memory of
//! training on a 50k-segment Megacity, are measured by the repository
//! benchmark in `benchmark/`, which uses [`host_meta`] and
//! [`peak_rss_bytes`] from this crate.

#![warn(missing_docs)]

pub mod paper;

use st_core::TrainError;
use st_eval::{
    build_examples, evaluate_methods, quantile_buckets, train_all_methods, MethodResult,
    SuiteConfig,
};
use st_sim::{CityPreset, Dataset, Split};

/// Which synthetic city to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum City {
    /// Chengdu-like compact city.
    Rivertown,
    /// Harbin-like larger city.
    Northport,
}

impl City {
    /// Both cities, in the paper's order.
    pub const ALL: [City; 2] = [City::Rivertown, City::Northport];

    /// The generation preset.
    pub fn preset(self) -> CityPreset {
        match self {
            City::Rivertown => CityPreset::rivertown(),
            City::Northport => CityPreset::northport(),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            City::Rivertown => "Rivertown",
            City::Northport => "Northport",
        }
    }
}

/// Experiment scale, selectable on the command line.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Trips to simulate per city.
    pub trips: usize,
    /// DeepST / baseline training epochs.
    pub epochs: usize,
    /// Cap on evaluated test trips.
    pub max_eval: Option<usize>,
    /// Trajectories for the recovery experiment (Table V).
    pub recovery_trajs: usize,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    /// Scale from CLI args: `--quick` (seconds), default (minutes),
    /// `--full` (tens of minutes, closest to the paper's protocol).
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        // A typo'd flag silently running the (much slower) default scale —
        // and overwriting result JSONs with it — is worse than an error.
        if let Some(bad) = args[1..].iter().find(|a| *a != "--quick" && *a != "--full") {
            eprintln!("error: unknown argument `{bad}` (expected --quick or --full)");
            std::process::exit(2);
        }
        if args.iter().any(|a| a == "--quick") {
            Self::quick()
        } else if args.iter().any(|a| a == "--full") {
            Self::full()
        } else {
            Self::default()
        }
    }

    /// Seconds-scale smoke configuration.
    pub fn quick() -> Self {
        Self {
            trips: 700,
            epochs: 3,
            max_eval: Some(150),
            recovery_trajs: 60,
            seed: 7,
        }
    }

    /// The full configuration.
    pub fn full() -> Self {
        Self {
            trips: 10_000,
            epochs: 12,
            max_eval: Some(1500),
            recovery_trajs: 500,
            seed: 7,
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self {
            trips: 5000,
            epochs: 10,
            max_eval: Some(500),
            recovery_trajs: 150,
            seed: 7,
        }
    }
}

/// Output of one city's full prediction suite (Table IV + Fig. 7 inputs).
pub struct SuiteOutput {
    /// The simulated city dataset.
    pub dataset: Dataset,
    /// The split used.
    pub split: Split,
    /// Per-method results (overall + per bucket), paper column order.
    pub results: Vec<MethodResult>,
    /// The Fig. 7 distance buckets (km).
    pub buckets: Vec<(f64, f64)>,
    /// Wall-clock seconds spent training all methods.
    pub train_secs: f64,
    /// Test trips evaluated (after the scale's `max_eval` cap).
    pub evaluated: usize,
    /// Evaluated trips outside every distance bucket (scored overall but
    /// absent from the Fig. 7 view) — see [`st_eval::EvalSummary`].
    pub bucket_dropped: usize,
}

/// Generate a city's dataset at the given scale.
pub fn make_dataset(city: City, scale: &Scale) -> Dataset {
    Dataset::generate(&city.preset(), scale.trips, scale.seed)
}

/// Run the full most-likely-route-prediction suite for one city:
/// generate → split → train all six methods → evaluate. Fails when DeepST
/// training does.
pub fn run_prediction_suite(city: City, scale: &Scale) -> Result<SuiteOutput, TrainError> {
    let dataset = make_dataset(city, scale);
    let split = dataset.default_split();
    let train = build_examples(&dataset, &split.train);
    let val = build_examples(&dataset, &split.val);
    let cfg = SuiteConfig {
        seed: scale.seed,
        deepst_epochs: scale.epochs,
        rnn_epochs: scale.epochs,
        max_eval: scale.max_eval,
        ..SuiteConfig::default()
    };
    let val_opt = (!val.is_empty()).then_some(val.as_slice());
    let (methods, train_secs) = st_obs::timed("bench/train_all_methods", || {
        train_all_methods(&dataset, &train, val_opt, &cfg)
    });
    let methods = methods?;
    let buckets = quantile_buckets(&dataset, &split.test, 8);
    let summary = evaluate_methods(&dataset, &methods, &split.test, &buckets, scale.max_eval);
    Ok(SuiteOutput {
        dataset,
        split,
        results: summary.results,
        buckets,
        train_secs,
        evaluated: summary.evaluated,
        bucket_dropped: summary.bucket_dropped,
    })
}

/// Host/toolchain metadata embedded in every benchmark record, so a
/// recorded number can never be compared against a run from a different
/// machine class without noticing: logical core count, the SIMD tier whose
/// kernel builds ran (`avx2`, or `baseline` on non-x86 hosts and
/// under `ST_TENSOR_FORCE_SCALAR=1`), and the rustc that built the
/// benchmark.
pub fn host_meta() -> serde_json::Value {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(0);
    let rustc =
        std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
            .arg("--version")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".into());
    serde_json::json!({
        "logical_cores": cores,
        "simd_tier": st_tensor::simd_tier(),
        "arch": std::env::consts::ARCH,
        "os": std::env::consts::OS,
        "rustc": rustc,
    })
}

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`). The kernel's high-water mark is monotonic for the
/// process lifetime, so a reading covers everything the process did before
/// it. Returns `None` off Linux or if the field is missing.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// The `results/` output directory (created on demand).
pub fn results_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(
        std::env::var("DEEPST_RESULTS_DIR").unwrap_or_else(|_| "results".into()),
    );
    let _ = std::fs::create_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::quick().trips < Scale::default().trips);
        assert!(Scale::default().trips < Scale::full().trips);
    }

    #[test]
    fn host_meta_reports_required_fields() {
        let m = host_meta();
        assert!(m
            .get("logical_cores")
            .and_then(|v| v.as_f64())
            .is_some_and(|n| n >= 1.0));
        assert!(matches!(
            m.get("simd_tier").and_then(|v| v.as_str()),
            Some("avx2" | "baseline")
        ));
        assert!(m.get("rustc").and_then(|v| v.as_str()).is_some());
        assert!(m.get("arch").and_then(|v| v.as_str()).is_some());
        assert!(m.get("os").and_then(|v| v.as_str()).is_some());
    }

    #[test]
    fn city_presets_differ() {
        assert_ne!(City::Rivertown.name(), City::Northport.name());
        let r = City::Rivertown.preset();
        let n = City::Northport.preset();
        assert!(n.grid.nx * n.grid.ny > r.grid.nx * r.grid.ny);
    }
}
