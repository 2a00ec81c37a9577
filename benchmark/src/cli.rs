//! Command-line forms: one workload in-process, and `run`, `repeat` and
//! `agree`, which drive workloads in fresh processes of this binary.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use serde_json::{json, Map, Value};

use crate::report::Outcome;
use crate::spec::{Better, Workload, DEFAULT_SECONDS, END_TO_END, THREADS};
use crate::stats::{iqr_share, median, quartiles};

/// Where untracked outputs go by default (results, traces, stores).
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// `--name value` flags plus positional arguments.
struct Flags {
    named: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
        let mut named = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if !allowed.contains(&name) {
                    return Err(format!("unknown flag --{name}"));
                }
                let v = it.next().ok_or(format!("--{name} needs a value"))?;
                named.insert(name.to_string(), v.clone());
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Flags { named, positional })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.named.get(name).map(String::as_str)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse `{v}`")),
            None => default.ok_or(format!("--{name} is required")),
        }
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn write_json(path: &Path, v: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(v).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Run one workload in this process.
pub fn one(args: &[String]) -> Result<ExitCode, String> {
    let f = Flags::parse(
        args,
        &["workload", "seed", "seconds", "trace", "trace-dir", "out"],
    )?;
    let name = f.get("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?;
    let seed: u64 = f.num("seed", None)?;
    let seconds: f64 = f.num("seconds", Some(DEFAULT_SECONDS as f64))?;
    let traced = match f.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} is outside (0, 120]"));
    }
    let out_file = f.get("out").map(PathBuf::from);
    if cores() < THREADS {
        // Numbers from a host that cannot run the thread budget are not
        // comparable; record that instead of them.
        let r = Outcome::new(workload).result_json(seed, seconds, traced);
        if let Some(p) = &out_file {
            write_json(p, &r)?;
        }
        eprintln!(
            "deepst_bench: {} core(s), fewer than the {THREADS}-thread budget; no metrics",
            cores()
        );
        return Ok(ExitCode::from(3));
    }

    let mut out = match workload {
        Workload::ServeSteady => crate::serve::steady(seed, seconds, traced),
        Workload::ServeLive => crate::serve::live(seed, seconds, traced),
        Workload::DecodeBatch => crate::decode_batch::run(seed, seconds, traced),
        Workload::Train => crate::train::run(seed, seconds, traced),
    };
    out.finish(traced);
    if traced {
        let dir = f
            .get("trace-dir")
            .map(PathBuf::from)
            .unwrap_or_else(|| out_dir().join("traces"));
        let path = dir.join(format!("{}-seed{seed}.jsonl", workload.name()));
        if let Err(e) = write_trace(&path, workload, seed) {
            out.fail(1, e);
        }
    }
    for msg in out.failures() {
        eprintln!("check failed: {msg}");
    }
    if let Some(p) = &out_file {
        write_json(p, &out.result_json(seed, seconds, traced))?;
    }
    for line in out.lines(traced) {
        println!("{line}");
    }
    println!("{}", out.result_line(traced));
    Ok(if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Write the sampled span trees as st-obs JSONL and validate the file.
fn write_trace(path: &Path, workload: Workload, seed: u64) -> Result<(), String> {
    let trace = st_obs::drain();
    let meta = json!({"bench": "deepst_bench", "workload": workload.name(), "seed": seed});
    st_obs::write_jsonl(path, &meta, &trace)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let tally =
        st_obs::validate_jsonl(&text).map_err(|e| format!("trace {}: {e}", path.display()))?;
    if tally.spans == 0 {
        return Err(format!("trace {} holds no spans", path.display()));
    }
    Ok(())
}

fn workloads(spec: &str) -> Result<Vec<Workload>, String> {
    if spec == "all" {
        Ok(Workload::ALL.to_vec())
    } else {
        Ok(vec![
            Workload::parse(spec).ok_or(format!("unknown workload `{spec}`"))?
        ])
    }
}

/// Run one workload in a fresh process; returns its exit success and the
/// metrics of its final JSON line.
fn child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    extra: &[String],
) -> Result<(bool, Value), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    let output = cmd
        .output()
        .map_err(|e| format!("running {}: {e}", workload.name()))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    for l in lines.iter().take(lines.len().saturating_sub(1)) {
        println!("{l}");
    }
    let last = lines.last().copied().unwrap_or("{}");
    let v: Value = serde_json::from_str(last).unwrap_or(Value::Null);
    let ok = output.status.success() && v.get("correct") == Some(&Value::Bool(true));
    Ok((ok, v))
}

/// `run <w|all> --seed <n> [--seconds <s>] [--trace <dir>] [--out <dir>]`.
pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let f = Flags::parse(args, &["seed", "seconds", "trace", "out"])?;
    let spec = f
        .positional
        .first()
        .ok_or("run needs a workload or `all`")?;
    let seed: u64 = f.num("seed", None)?;
    let seconds: f64 = f.num("seconds", Some(DEFAULT_SECONDS as f64))?;
    let out = f
        .get("out")
        .map(PathBuf::from)
        .unwrap_or_else(|| out_dir().join("results"));
    let mut all_ok = true;
    for w in workloads(spec)? {
        println!("== {}: {}", w.name(), w.why());
        let file = out.join(format!("{}-seed{seed}.json", w.name()));
        let (ok, _) = child(
            w,
            seed,
            seconds,
            &[
                "--trace".into(),
                "0".into(),
                "--out".into(),
                file.display().to_string(),
            ],
        )?;
        all_ok &= ok;
        if let Some(dir) = f.get("trace") {
            let file = out.join(format!("{}-seed{seed}.traced.json", w.name()));
            let extra = [
                "--trace",
                "1",
                "--trace-dir",
                dir,
                "--out",
                &file.display().to_string(),
            ]
            .map(String::from);
            let (ok, _) = child(w, seed, seconds, &extra)?;
            all_ok &= ok;
        }
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `repeat --runs <n> [--seed <s>] [--seconds <s>] [--out <file>]`: every
/// workload `n` times in fresh processes, seeds `s..s+n`, alternating the
/// workload order from run to run.
pub fn repeat(args: &[String]) -> Result<ExitCode, String> {
    let f = Flags::parse(args, &["runs", "seed", "seconds", "out"])?;
    let runs: usize = f.num("runs", None)?;
    let seed: u64 = f.num("seed", Some(1))?;
    let seconds: f64 = f.num("seconds", Some(DEFAULT_SECONDS as f64))?;
    let list = Workload::ALL.to_vec();
    let mut values: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut all_ok = true;
    for i in 0..runs {
        let mut order = list.clone();
        if i % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let (ok, v) = child(w, seed + i as u64, seconds, &["--trace".into(), "0".into()])?;
            all_ok &= ok;
            if let Some(Value::Obj(m)) = v.get("metrics") {
                for (name, mv) in m.iter() {
                    if let Some(x) = mv.get("value").and_then(Value::as_f64) {
                        values
                            .entry(w.name())
                            .or_default()
                            .entry(name.clone())
                            .or_default()
                            .push(x);
                    }
                }
            }
        }
    }
    println!(
        "{:<14} {:<14} {:>12} {:>12} {:>12} {:>8}",
        "workload", "metric", "median", "q1", "q3", "spread"
    );
    let mut set = Map::new();
    for (w, metrics) in &values {
        let mut wm = Map::new();
        for (name, xs) in metrics {
            let (q1, q3) = quartiles(xs);
            println!(
                "{w:<14} {name:<14} {:>12.4} {q1:>12.4} {q3:>12.4} {:>7.2}%",
                median(xs),
                iqr_share(xs) * 100.0
            );
            wm.insert(
                name.clone(),
                Value::Arr(xs.iter().map(|&x| json!(x)).collect()),
            );
        }
        set.insert(w.to_string(), Value::Obj(wm));
    }
    let doc = json!({
        "runs": runs,
        "first_seed": seed,
        "seconds": seconds,
        "host": st_bench::host_meta(),
        "all_correct": all_ok,
        "values": Value::Obj(set),
    });
    let path = f
        .get("out")
        .map(PathBuf::from)
        .unwrap_or_else(|| out_dir().join("set.json"));
    write_json(&path, &doc)?;
    println!("wrote {}", path.display());
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Largest interquartile spread, as a share of the median, `agree`
/// accepts for any end-to-end metric in either set.
const MAX_SPREAD: f64 = 0.10;

/// `agree <a> <b>`: two sets of the same code must agree within the
/// benchmark's own bounds.
pub fn agree(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("agree needs two set files".into());
    };
    let load = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (va, vb) = (load(a)?, load(b)?);
    let series = |v: &Value, w: &str, m: &str| -> Option<Vec<f64>> {
        let arr = v.get("values")?.get(w)?.get(m)?.as_array()?;
        Some(arr.iter().filter_map(Value::as_f64).collect())
    };
    let mut ok = true;
    for w in Workload::ALL {
        for d in END_TO_END {
            let (Some(xa), Some(xb)) =
                (series(&va, w.name(), d.name), series(&vb, w.name(), d.name))
            else {
                continue;
            };
            let (ma, mb) = (median(&xa), median(&xb));
            let shift = (mb - ma) / ma;
            let worse = match d.better {
                Better::Lower => shift,
                Better::Higher => -shift,
            };
            let bound = d.bound.unwrap_or(0.0);
            let (sa, sb) = (iqr_share(&xa), iqr_share(&xb));
            let mut verdict = "ok";
            if shift.abs() > bound {
                verdict = "MEDIANS DIFFER";
                ok = false;
            } else if sa.max(sb) > MAX_SPREAD {
                verdict = "SPREAD TOO WIDE";
                ok = false;
            }
            println!(
                "{:<14} {:<14} median {ma:>11.4} vs {mb:>11.4} ({:+.2}%; {} is better, so {:+.2}% worse; bound {:.0}%) spread {:.2}% / {:.2}%  {verdict}",
                w.name(),
                d.name,
                shift * 100.0,
                d.better.name(),
                worse * 100.0,
                bound * 100.0,
                sa * 100.0,
                sb * 100.0
            );
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
