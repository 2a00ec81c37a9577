//! Table VI: sensitivity to the number of destination proxies K, on
//! Northport (the paper uses Harbin). The K set and epochs are
//! [`st_bench::paper::table6`]'s.

use std::process::ExitCode;

use st_bench::{make_dataset, paper, City};

fn main() -> ExitCode {
    paper::write_artifact("table6", |scale| {
        let ds = make_dataset(City::Northport, scale);
        paper::table6(City::Northport, &ds, &ds.default_split(), scale)
    })
}
