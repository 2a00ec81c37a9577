//! Fig. 8: DeepST training time versus training-set size on Northport (the
//! paper uses Harbin): seconds per epoch on 20/40/60/80/100 % of the train
//! split, with the R² of a linear fit printed.

use std::process::ExitCode;

use st_bench::{make_dataset, paper, City};

fn main() -> ExitCode {
    paper::write_artifact("fig8", |scale| {
        let ds = make_dataset(City::Northport, scale);
        paper::fig8(City::Northport, &ds, &ds.default_split(), scale)
    })
}
