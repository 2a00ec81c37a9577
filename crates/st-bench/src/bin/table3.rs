//! Table III: dataset statistics — min/max/mean travel distance (km) and
//! number of road segments per trip, for both cities.

use std::process::ExitCode;

use st_bench::{make_dataset, paper};

fn main() -> ExitCode {
    paper::write_artifact("table3", |scale| {
        paper::per_city(|city| Ok(paper::table3(city, &make_dataset(city, scale))))
    })
}
