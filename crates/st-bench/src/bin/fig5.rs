//! Fig. 5: the spatial distribution of GPS points, rendered as a text heat
//! map over each city's grid.

use std::process::ExitCode;

use st_bench::{make_dataset, paper};

fn main() -> ExitCode {
    paper::write_artifact("fig5", |scale| {
        paper::per_city(|city| Ok(paper::fig5(city, &make_dataset(city, scale))))
    })
}
