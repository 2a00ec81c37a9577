//! st-lint: the workspace's source-level static-analysis gate.
//!
//! Complements the autodiff graph analyzer in `st_tensor::analyze` (which
//! checks *model graphs* before training) by checking the *source tree*
//! before merge. Two generations of rules — see [`rules::Rule`] for the
//! full catalog:
//!
//! - the v1 line-oriented rules (`panic-in-lib`, `missing-safety`,
//!   `float-eq`, `tape-in-infer`, `unpacked-gemm-in-infer`), which
//!   pattern-match one comment-stripped line at a time;
//! - the v2 analyzer rules (DESIGN.md §14), which run over a hand-rolled
//!   item parser ([`parser`]) and a cross-file symbol index ([`symbols`]):
//!   the determinism family ([`determinism`]: `fma-forbidden`,
//!   `std-transcendental`, `hash-iteration-order`, `wallclock-in-numeric`,
//!   `float-sort-key`) and the concurrency family ([`concurrency`]:
//!   `lock-order-cycle`, `lock-unwrap`, `relaxed-atomic-gate`,
//!   `unbounded-channel`).
//!
//! Undocumented public items are left to rustc's `missing_docs` lint, which
//! every library crate of the workspace warns on and CI's clippy step
//! denies.
//!
//! Findings can be waived two ways:
//! - inline, with `// st-lint: allow(rule-name)` on the finding line or the
//!   line directly above;
//! - via the allowlist file `st-lint.allow` at the workspace root, one entry
//!   per line: `rule | path-suffix | line-substring-or-* | reason`.
//!
//! Allowlist entries are validated against the workspace: a `path-suffix`
//! matching more than one file is an ambiguous waiver and rejected, and
//! stale entries (ones that matched nothing) make the lint run fail unless
//! `--allow-stale` is passed, so the file shrinks as the code is cleaned
//! up.

#![warn(missing_docs)]

pub mod concurrency;
pub mod determinism;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod symbols;

pub use lexer::{scan, SourceLine};
pub use rules::{lint_file, Finding, Rule};

use std::path::{Path, PathBuf};

/// One parsed `st-lint.allow` entry.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule this entry waives.
    pub rule: Rule,
    /// Path suffix the finding's file must end with.
    pub path_suffix: String,
    /// Substring the finding's source line must contain, or `*` for any.
    pub needle: String,
    /// Human justification (required, but not machine-checked).
    pub reason: String,
    /// 1-based line in the allowlist file, for stale-entry reporting.
    pub defined_at: usize,
}

/// The parsed allowlist, tracking which entries actually fired.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
    used: Vec<bool>,
}

impl Allowlist {
    /// Parse the `rule | path-suffix | substring-or-* | reason` format.
    /// Blank lines and `#` comments are skipped; malformed lines are
    /// returned as errors so typos fail loudly instead of silently waiving
    /// nothing.
    pub fn parse(src: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (idx, raw) in src.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parts: Vec<&str> = line.splitn(4, '|').map(str::trim).collect();
            if parts.len() != 4 {
                return Err(format!(
                    "st-lint.allow:{}: expected `rule | path-suffix | substring-or-* | reason`",
                    idx + 1
                ));
            }
            let Some(rule) = Rule::from_name(parts[0]) else {
                return Err(format!(
                    "st-lint.allow:{}: unknown rule '{}'",
                    idx + 1,
                    parts[0]
                ));
            };
            if parts[3].is_empty() {
                return Err(format!("st-lint.allow:{}: a reason is required", idx + 1));
            }
            entries.push(AllowEntry {
                rule,
                path_suffix: parts[1].to_string(),
                needle: parts[2].to_string(),
                reason: parts[3].to_string(),
                defined_at: idx + 1,
            });
        }
        let used = vec![false; entries.len()];
        Ok(Allowlist { entries, used })
    }

    /// Does any entry waive this finding? `line_text` is the raw source line
    /// the finding points at (surrounding whitespace is ignored). Marks the
    /// matching entry as used.
    pub fn waives(&mut self, finding: &Finding, line_text: &str) -> bool {
        let line_text = line_text.trim();
        let mut hit = false;
        for (e, used) in self.entries.iter().zip(self.used.iter_mut()) {
            if e.rule == finding.rule
                && finding.path.ends_with(&e.path_suffix)
                && (e.needle == "*" || line_text.contains(&e.needle))
            {
                *used = true;
                hit = true;
            }
        }
        hit
    }

    /// Reject entries whose `path-suffix` matches more than one workspace
    /// file: such a waiver is ambiguous — it silently covers files its
    /// author never vetted. `paths` are the workspace-relative files about
    /// to be linted.
    pub fn validate_unambiguous(&self, paths: &[&str]) -> Result<(), String> {
        for e in &self.entries {
            let hits: Vec<&&str> = paths
                .iter()
                .filter(|p| p.ends_with(&e.path_suffix))
                .collect();
            if hits.len() > 1 {
                return Err(format!(
                    "st-lint.allow:{}: path suffix '{}' is ambiguous — it matches {} files \
                     ({}); qualify it to exactly one",
                    e.defined_at,
                    e.path_suffix,
                    hits.len(),
                    hits.iter()
                        .take(3)
                        .map(|p| p.to_string())
                        .collect::<Vec<_>>()
                        .join(", "),
                ));
            }
        }
        Ok(())
    }

    /// All parsed entries, in file order.
    pub fn entries(&self) -> &[AllowEntry] {
        &self.entries
    }

    /// Entries that never matched a finding — candidates for deletion.
    pub fn stale(&self) -> Vec<&AllowEntry> {
        self.entries
            .iter()
            .zip(self.used.iter())
            .filter(|(_, used)| !**used)
            .map(|(e, _)| e)
            .collect()
    }
}

/// Does the comment text carry an inline waiver for `rule`?
fn inline_waiver(comment: &str, rule: Rule) -> bool {
    let mut from = 0usize;
    while let Some(rel) = comment[from..].find("st-lint: allow(") {
        let at = from + rel + "st-lint: allow(".len();
        let inner = match comment[at..].find(')') {
            Some(end) => &comment[at..at + end],
            None => &comment[at..],
        };
        if inner.split(',').any(|r| r.trim() == rule.name()) {
            return true;
        }
        from = at;
    }
    false
}

/// Lint a set of sources as one workspace: parse every file, build the
/// cross-file symbol index, run the line-oriented v1 rules plus the v2
/// determinism and concurrency families, then drop findings waived inline
/// or by the allowlist. Paths must be workspace-relative with `/`
/// separators. Fails on an ambiguous allowlist `path-suffix`.
pub fn lint_sources(
    sources: &[(String, String)],
    allowlist: &mut Allowlist,
) -> Result<Vec<Finding>, String> {
    let paths: Vec<&str> = sources.iter().map(|(p, _)| p.as_str()).collect();
    allowlist.validate_unambiguous(&paths)?;

    let files: Vec<parser::ParsedFile> = sources
        .iter()
        .map(|(p, s)| parser::ParsedFile::parse(p, s))
        .collect();
    let index = symbols::WorkspaceIndex::build(&files);

    let mut findings = Vec::new();
    for file in &files {
        findings.extend(lint_file(&file.path, &file.lines));
        determinism::lint_determinism(file, &index, &mut findings);
    }
    concurrency::lint_concurrency(&files, &index, &mut findings);
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule.name()).cmp(&(b.path.as_str(), b.line, b.rule.name()))
    });

    let by_path: std::collections::BTreeMap<&str, &parser::ParsedFile> =
        files.iter().map(|f| (f.path.as_str(), f)).collect();
    Ok(findings
        .into_iter()
        .filter(|f| {
            let Some(file) = by_path.get(f.path.as_str()) else {
                return true;
            };
            let idx = f.line - 1;
            let comment_at = |j: usize| file.lines.get(j).map(|l| l.comment.as_str()).unwrap_or("");
            if inline_waiver(comment_at(idx), f.rule)
                || idx
                    .checked_sub(1)
                    .is_some_and(|j| inline_waiver(comment_at(j), f.rule))
            {
                return false;
            }
            let raw = file.raw_lines.get(idx).map(String::as_str).unwrap_or("");
            !allowlist.waives(f, raw)
        })
        .collect())
}

/// Lint one file in isolation (no cross-file lock graph beyond the file
/// itself). Convenience wrapper over [`lint_sources`] used by planted-defect
/// tests; `path` must be workspace-relative with `/` separators.
pub fn lint_source(path: &str, src: &str, allowlist: &mut Allowlist) -> Vec<Finding> {
    lint_sources(&[(path.to_string(), src.to_string())], allowlist).unwrap_or_default()
}

/// Collect every `.rs` file under `crates/*/src` and `src/` of the workspace
/// root, sorted, as (workspace-relative path, absolute path) pairs. The
/// vendored crates under `vendor/` are third-party and out of scope.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, out)?;
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut abs = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in std::fs::read_dir(&crates)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                walk(&src, &mut abs)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk(&root_src, &mut abs)?;
    }
    abs.sort();
    Ok(abs
        .into_iter()
        .filter_map(|p| {
            let rel = p
                .strip_prefix(root)
                .ok()?
                .to_string_lossy()
                .replace('\\', "/");
            Some((rel, p))
        })
        .collect())
}

/// Lint the whole workspace rooted at `root`. Returns the surviving findings
/// plus the allowlist (for stale-entry reporting). Reads `st-lint.allow` at
/// the root if present.
pub fn lint_workspace(root: &Path) -> Result<(Vec<Finding>, Allowlist), String> {
    let allow_path = root.join("st-lint.allow");
    let mut allowlist = if allow_path.is_file() {
        let src = std::fs::read_to_string(&allow_path)
            .map_err(|e| format!("reading {}: {e}", allow_path.display()))?;
        Allowlist::parse(&src)?
    } else {
        Allowlist::default()
    };
    let files = collect_rs_files(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut sources = Vec::with_capacity(files.len());
    for (rel, abs) in files {
        let src =
            std::fs::read_to_string(&abs).map_err(|e| format!("reading {}: {e}", abs.display()))?;
        sources.push((rel, src));
    }
    let findings = lint_sources(&sources, &mut allowlist)?;
    Ok((findings, allowlist))
}

/// Build the machine-readable report for `--json` / CI artifacts. The
/// shape is pinned by `scripts/st-lint-findings.schema.json` and the
/// `json_output` test.
pub fn json_report(findings: &[Finding], allowlist: &Allowlist) -> serde_json::Value {
    use serde_json::{json, Map, Value};
    let mut flist = Vec::with_capacity(findings.len());
    for f in findings {
        let mut o = Map::new();
        o.insert("rule".into(), Value::Str(f.rule.name().into()));
        o.insert("path".into(), Value::Str(f.path.clone()));
        o.insert("line".into(), Value::Num(f.line as f64));
        o.insert("message".into(), Value::Str(f.message.clone()));
        flist.push(Value::Obj(o));
    }
    let stale = allowlist.stale();
    let mut slist = Vec::with_capacity(stale.len());
    for e in &stale {
        let mut o = Map::new();
        o.insert("allow_line".into(), Value::Num(e.defined_at as f64));
        o.insert("rule".into(), Value::Str(e.rule.name().into()));
        o.insert("path_suffix".into(), Value::Str(e.path_suffix.clone()));
        o.insert("needle".into(), Value::Str(e.needle.clone()));
        slist.push(Value::Obj(o));
    }
    let mut root = Map::new();
    root.insert("schema".into(), Value::Str("st-lint-findings".into()));
    root.insert("version".into(), Value::Num(2.0));
    root.insert("findings".into(), Value::Arr(flist));
    root.insert("stale_allow_entries".into(), Value::Arr(slist));
    root.insert(
        "counts".into(),
        json!({
            "findings": findings.len() as f64,
            "stale_allow_entries": stale.len() as f64
        }),
    );
    Value::Obj(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_waiver_suppresses_exact_rule_only() {
        let mut allow = Allowlist::default();
        let src = "fn f() { x.unwrap(); } // st-lint: allow(panic-in-lib)\n";
        assert!(lint_source("crates/a/src/l.rs", src, &mut allow).is_empty());
        // waiver for a different rule does not suppress
        let src = "fn f() { x.unwrap(); } // st-lint: allow(float-eq)\n";
        assert_eq!(lint_source("crates/a/src/l.rs", src, &mut allow).len(), 1);
    }

    #[test]
    fn inline_waiver_on_line_above_applies() {
        let mut allow = Allowlist::default();
        let src =
            "// st-lint: allow(panic-in-lib) invariant: map is non-empty\nfn f() { x.unwrap(); }\n";
        assert!(lint_source("crates/a/src/l.rs", src, &mut allow).is_empty());
    }

    #[test]
    fn allowlist_waives_and_tracks_usage() {
        let mut allow = Allowlist::parse(
            "# comment\n\
             panic-in-lib | crates/a/src/l.rs | x.unwrap | vetted: x is checked above\n\
             float-eq | never.rs | * | stale entry\n",
        )
        .unwrap();
        let src = "fn f() { x.unwrap(); }\n";
        assert!(lint_source("crates/a/src/l.rs", src, &mut allow).is_empty());
        let stale = allow.stale();
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].path_suffix, "never.rs");
    }

    #[test]
    fn allowlist_substring_must_match_line() {
        let mut allow =
            Allowlist::parse("panic-in-lib | l.rs | y.unwrap | only waives y\n").unwrap();
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(lint_source("crates/a/src/l.rs", src, &mut allow).len(), 1);
    }

    #[test]
    fn malformed_allowlist_is_an_error() {
        assert!(Allowlist::parse("panic-in-lib | too | few\n").is_err());
        assert!(Allowlist::parse("no-such-rule | a | * | r\n").is_err());
        assert!(Allowlist::parse("panic-in-lib | a | * |\n").is_err());
    }
}
