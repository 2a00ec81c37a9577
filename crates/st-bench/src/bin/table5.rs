//! Table V: route recovery accuracy versus sampling rate (1–9 minutes),
//! STRS vs STRS+ (DeepST spatial module), with the δ improvement row.

use std::process::ExitCode;

use st_bench::{make_dataset, paper};

fn main() -> ExitCode {
    paper::write_artifact("table5", |scale| {
        paper::per_city(|city| {
            let ds = make_dataset(city, scale);
            paper::table5(city, &ds, &ds.default_split(), scale)
        })
    })
}
