//! Fig. 7: route prediction accuracy of every method versus travel
//! distance (quantile buckets over the test trips).

use std::process::ExitCode;

use st_bench::{paper, run_prediction_suite};

fn main() -> ExitCode {
    paper::write_artifact("fig7", |scale| {
        paper::per_city(|city| {
            let suite = run_prediction_suite(city, scale).map_err(|e| e.to_string())?;
            Ok(paper::fig7(city, &suite))
        })
    })
}
