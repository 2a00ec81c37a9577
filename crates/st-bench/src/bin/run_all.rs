//! Run the complete evaluation: every table and figure, sharing one
//! dataset and one prediction suite per city. Writes all JSON results under
//! `results/` and prints each artifact.

use std::process::ExitCode;

use st_bench::{paper, results_dir, City, Scale};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("[run_all] error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let scale = Scale::from_args();
    eprintln!("[run_all] scale: {scale:?}");
    let dir = results_dir();
    // Record the whole sweep: spans/counters/events land in
    // `results/trace_run_all.jsonl` at the end (validated by CI).
    st_obs::start_recording();
    let cities: Vec<City> = match std::env::var("DEEPST_CITY") {
        Ok(f) => City::ALL
            .into_iter()
            .filter(|c| c.name().eq_ignore_ascii_case(&f))
            .collect(),
        Err(_) => City::ALL.to_vec(),
    };
    for (name, value) in paper::all(&scale, &cities)?.iter() {
        paper::emit(&dir, name, value)?;
    }

    // ---- Trace export ----
    st_obs::stop_recording();
    let trace = st_obs::drain();
    let trace_path = dir.join("trace_run_all.jsonl");
    let meta = serde_json::json!({
        "bin": "run_all",
        "trips": scale.trips as f64,
        "epochs": scale.epochs as f64,
        "seed": scale.seed as f64,
    });
    st_obs::write_jsonl(&trace_path, &meta, &trace)
        .map_err(|e| format!("failed to write {}: {e}", trace_path.display()))?;
    eprintln!(
        "[run_all] trace: {} spans, {} metrics, {} events -> {}",
        trace.spans.len(),
        trace.metrics.len(),
        trace.events.len(),
        trace_path.display()
    );
    eprintln!("[run_all] all results written to {}", dir.display());
    Ok(())
}
