//! The shipped workspace must lint clean — this is the merge gate CI runs
//! via `cargo run -p st-lint`, pinned here as a test so `cargo test` alone
//! catches regressions.

use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

#[test]
fn shipped_workspace_is_lint_clean() {
    let (findings, allowlist) = st_lint::lint_workspace(&workspace_root()).expect("lint runs");
    assert!(
        findings.is_empty(),
        "workspace has unwaived lint findings:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    let stale = allowlist.stale();
    assert!(
        stale.is_empty(),
        "stale st-lint.allow entries (lines {:?}) — delete them",
        stale.iter().map(|e| e.defined_at).collect::<Vec<_>>()
    );
}

#[test]
fn planted_violations_of_each_rule_are_caught() {
    let mut allow = st_lint::Allowlist::default();
    let planted = "\
pub fn undocumented() {
    let x = maybe().unwrap();
    if x == 0.5 {
        unsafe { touch(x) }
    }
}
";
    // Place the snippet in a library path so all three rules apply.
    let findings = st_lint::lint_source("crates/st-tensor/src/planted.rs", planted, &mut allow);
    let rules: Vec<&str> = findings.iter().map(|f| f.rule.name()).collect();
    for rule in ["panic-in-lib", "missing-safety", "float-eq"] {
        assert!(rules.contains(&rule), "{rule} not caught in {rules:?}");
    }
}

/// One planted defect per v2 rule across a synthetic multi-crate workspace;
/// each rule fires exactly once and nothing else fires at all (the
/// zero-false-positive half of the contract — the clean half is
/// `shipped_workspace_is_lint_clean` above).
#[test]
fn planted_v2_defects_are_caught_with_exact_counts() {
    let det = "\
//! Planted determinism defects.
use std::collections::HashMap;

/// FMA breaks cross-target bit identity.
pub fn fused(x: f64) -> f64 {
    x.mul_add(2.0, 1.0)
}

/// Transcendental outside `st-tensor::mathfn`.
pub fn softplus(x: f64) -> f64 {
    (1.0 + x.exp()).ln_1p()
}

/// Hash iteration feeding a float accumulator.
pub fn hash_sum(m: &HashMap<u32, f64>) -> f64 {
    let mut acc = 0.0f64;
    for v in m.values() {
        acc += *v;
    }
    acc
}

/// Non-total float comparator in a sort key.
pub fn rank(v: &mut [(u32, f64)]) {
    v.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
}
";
    let wallclock = "\
//! Planted wallclock defect in a decode-path module.
use std::time::Instant;

/// Elapsed time leaks into a score.
pub fn decode_score(base: f64) -> f64 {
    let t0 = Instant::now();
    let dt = t0.elapsed();
    base * dt.as_secs_f64()
}
";
    let conc = "\
//! Planted intra-file concurrency defects.
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};

/// Guard obtained by panicking on poison.
pub fn peek(m: &Mutex<u32>) -> u32 {
    *m.lock().unwrap()
}

/// Relaxed load gating a branch.
pub fn gate(flag: &AtomicBool) -> u32 {
    if flag.load(Ordering::Relaxed) {
        1
    } else {
        0
    }
}

/// Unbounded queue in a lib path.
pub fn chan() -> (mpsc::Sender<u32>, mpsc::Receiver<u32>) {
    mpsc::channel()
}
";
    // Cross-crate lock-order cycle: `aa` takes A then B directly; `bb`
    // takes B then reaches A through a callee in a third crate `cc`.
    let aa = "\
//! Lock definitions and the A-then-B leg.
use std::sync::Mutex;

/// Lock A.
pub static A: Mutex<u32> = Mutex::new(0);
/// Lock B.
pub static B: Mutex<u32> = Mutex::new(0);

/// Acquires A, then B, holding both.
pub fn a_then_b() {
    let ga = A.lock().unwrap_or_else(|e| e.into_inner());
    let gb = B.lock().unwrap_or_else(|e| e.into_inner());
    let _ = (*ga, *gb);
}
";
    let cc = "\
//! Innocent-looking helper that takes A.
/// Reads lock A.
pub fn grab_a() -> u32 {
    *aa::A.lock().unwrap_or_else(|e| e.into_inner())
}
";
    let bb = "\
//! The B-then-A leg, one call deep.
/// Acquires B, then A via `cc::grab_a`.
pub fn b_then_a() -> u32 {
    let gb = aa::B.lock().unwrap_or_else(|e| e.into_inner());
    let x = cc::grab_a();
    x + *gb
}
";
    let sources: Vec<(String, String)> = [
        ("crates/st-tensor/src/planted_det.rs", det),
        ("crates/st-core/src/decode_planted.rs", wallclock),
        ("crates/st-core/src/planted_conc.rs", conc),
        ("crates/aa/src/lib.rs", aa),
        ("crates/bb/src/lib.rs", bb),
        ("crates/cc/src/lib.rs", cc),
    ]
    .iter()
    .map(|(p, s)| (p.to_string(), s.to_string()))
    .collect();

    let mut allow = st_lint::Allowlist::default();
    let findings = st_lint::lint_sources(&sources, &mut allow).expect("lint runs");

    let mut counts = std::collections::BTreeMap::new();
    for f in &findings {
        *counts.entry(f.rule.name()).or_insert(0usize) += 1;
    }
    let expected: &[(&str, usize)] = &[
        ("fma-forbidden", 1),
        ("std-transcendental", 2), // exp and ln_1p in `softplus`
        ("hash-iteration-order", 1),
        ("float-sort-key", 1),
        ("wallclock-in-numeric", 1),
        ("lock-unwrap", 1),
        ("relaxed-atomic-gate", 1),
        ("unbounded-channel", 1),
        ("lock-order-cycle", 1),
        ("panic-in-lib", 1), // the same `.lock().unwrap()` line
    ];
    for &(rule, n) in expected {
        assert_eq!(
            counts.get(rule).copied().unwrap_or(0),
            n,
            "{rule}: wrong count in {findings:#?}"
        );
    }
    let total: usize = expected.iter().map(|&(_, n)| n).sum();
    assert_eq!(
        findings.len(),
        total,
        "unexpected extra findings: {findings:#?}"
    );

    let cycle = findings
        .iter()
        .find(|f| f.rule.name() == "lock-order-cycle")
        .expect("cycle finding present");
    assert!(cycle.message.contains("aa::A"), "{}", cycle.message);
    assert!(cycle.message.contains("aa::B"), "{}", cycle.message);
    assert!(
        cycle.message.contains("via `grab_a()`"),
        "{}",
        cycle.message
    );
}
