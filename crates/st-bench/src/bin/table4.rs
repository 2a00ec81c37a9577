//! Table IV: overall performance — recall@n and accuracy of DeepST,
//! DeepST-C, CSSRNN, RNN, MMI and WSP on both cities.

use std::process::ExitCode;

use st_bench::{paper, run_prediction_suite};

fn main() -> ExitCode {
    paper::write_artifact("table4", |scale| {
        paper::per_city(|city| {
            let suite = run_prediction_suite(city, scale).map_err(|e| e.to_string())?;
            Ok(paper::table4(city, &suite))
        })
    })
}
