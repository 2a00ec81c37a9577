//! Fig. 6: travel distance (km) and number of road segments of every trip,
//! for both cities.

use std::process::ExitCode;

use st_bench::{make_dataset, paper};

fn main() -> ExitCode {
    paper::write_artifact("fig6", |scale| {
        paper::per_city(|city| Ok(paper::fig6(city, &make_dataset(city, scale))))
    })
}
