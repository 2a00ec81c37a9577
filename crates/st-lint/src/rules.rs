//! The lint rule catalog (see DESIGN.md §9 for the rationale and the
//! allowlist format).
//!
//! Every rule is a pure function over the scanned lines of one file plus its
//! repo-relative path; findings come back as [`Finding`]s. Waivers are
//! applied afterwards by [`crate::lint_sources`].

use crate::lexer::{test_regions, SourceLine};

/// The rule classes st-lint enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `.unwrap()` / `.expect(` / `panic!` in non-test library code.
    PanicInLib,
    /// An `unsafe` keyword without a `SAFETY:` (or `# Safety`) comment in the
    /// preceding lines.
    MissingSafety,
    /// `==` / `!=` where an operand is lexically a float.
    FloatEq,
    /// `Tape::new(` / `Binder::new(` on the inference path (an `infer*` /
    /// `*_infer` function, or a `src/infer*.rs` file). The inference
    /// runtime's contract is that decoding never allocates autodiff tapes;
    /// this catches taped ops creeping back in.
    TapeInInfer,
    /// `infer::matmul(` on the inference path (same scope as
    /// [`Rule::TapeInInfer`]). That entry point re-packs its weight operand
    /// on every call; per-step inference code must use a pre-packed
    /// `PackedWeights` (`infer::matmul_packed`) instead. Deliberate
    /// unpacked baselines are waived.
    UnpackedGemmInInfer,
    /// `mul_add` / `_mm*_fmadd_*` anywhere in library code. The bit-identity
    /// contract (taped ≡ infer ≡ fused, scalar ≡ AVX2) holds only because no
    /// kernel ever contracts a multiply-add into one rounding.
    FmaForbidden,
    /// A std/libm transcendental method call (`.exp()`, `.tanh()`,
    /// `.powf()`, …) in a numeric crate outside `st-tensor::mathfn`. Cephes
    /// polynomials in `mathfn` are the only transcendentals that are
    /// bit-identical across hosts and libm versions.
    StdTranscendental,
    /// Iteration over a `HashMap` / `HashSet` whose loop body feeds float
    /// accumulation or collection ordering. Hash iteration order is
    /// randomized per process; use `BTreeMap` or sort the keys first.
    HashIterationOrder,
    /// An `Instant::now` / `SystemTime::now` / thread-id value flowing into
    /// a branch condition or numeric expression inside an infer / decode /
    /// train module — wall-clock must never steer a numeric result.
    WallclockInNumeric,
    /// A `partial_cmp`-based comparator in a sort key or `Ord` impl.
    /// `partial_cmp(..).unwrap_or(Equal)` silently reorders on NaN; float
    /// sort keys must use `total_cmp`.
    FloatSortKey,
    /// A lock-order cycle across the workspace lock-acquisition graph — two
    /// code paths acquire the same locks in opposite orders (potential
    /// deadlock). Reported once per cycle, with a witness edge per leg.
    LockOrderCycle,
    /// `.lock().unwrap()` (or `.read()` / `.write()` + `unwrap` / `expect`).
    /// A worker panic while holding the lock would then poison every other
    /// thread; use the poison-recovery idiom
    /// `.unwrap_or_else(|e| e.into_inner())`.
    LockUnwrap,
    /// An `Ordering::Relaxed` atomic load used as a branch condition.
    /// Relaxed loads order nothing: data published by the writer may not be
    /// visible when the gate opens; use `Acquire` (paired with `Release`).
    RelaxedAtomicGate,
    /// Unbounded `std::sync::mpsc::channel()` in library code. The serving
    /// stack's contract is bounded queues + explicit shedding; unbounded
    /// channels hide overload until memory dies.
    UnboundedChannel,
    /// A `Param::new(` whose shape arguments mention a vocabulary-scale
    /// quantity (`num_segments`, `vocab`, …) or an integer literal ≥ 4096.
    /// Tables that grow with the road network must go through the blocked
    /// layout (`BlockedParam` / `Embedding::with_block_rows`), which shards
    /// rows and materializes gradients lazily; a dense `Param` at that
    /// scale allocates full-table gradient and optimizer state on the
    /// first touched row. `st-tensor/src/block.rs` is the sanctioned
    /// construction site and is exempt.
    DenseParamOverThreshold,
}

impl Rule {
    /// The kebab-case name used in waivers and reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::PanicInLib => "panic-in-lib",
            Rule::MissingSafety => "missing-safety",
            Rule::FloatEq => "float-eq",
            Rule::TapeInInfer => "tape-in-infer",
            Rule::UnpackedGemmInInfer => "unpacked-gemm-in-infer",
            Rule::FmaForbidden => "fma-forbidden",
            Rule::StdTranscendental => "std-transcendental",
            Rule::HashIterationOrder => "hash-iteration-order",
            Rule::WallclockInNumeric => "wallclock-in-numeric",
            Rule::FloatSortKey => "float-sort-key",
            Rule::LockOrderCycle => "lock-order-cycle",
            Rule::LockUnwrap => "lock-unwrap",
            Rule::RelaxedAtomicGate => "relaxed-atomic-gate",
            Rule::UnboundedChannel => "unbounded-channel",
            Rule::DenseParamOverThreshold => "dense-param-over-threshold",
        }
    }

    /// Parse a rule name as written in waivers.
    pub fn from_name(s: &str) -> Option<Rule> {
        match s {
            "panic-in-lib" => Some(Rule::PanicInLib),
            "missing-safety" => Some(Rule::MissingSafety),
            "float-eq" => Some(Rule::FloatEq),
            "tape-in-infer" => Some(Rule::TapeInInfer),
            "unpacked-gemm-in-infer" => Some(Rule::UnpackedGemmInInfer),
            "fma-forbidden" => Some(Rule::FmaForbidden),
            "std-transcendental" => Some(Rule::StdTranscendental),
            "hash-iteration-order" => Some(Rule::HashIterationOrder),
            "wallclock-in-numeric" => Some(Rule::WallclockInNumeric),
            "float-sort-key" => Some(Rule::FloatSortKey),
            "lock-order-cycle" => Some(Rule::LockOrderCycle),
            "lock-unwrap" => Some(Rule::LockUnwrap),
            "relaxed-atomic-gate" => Some(Rule::RelaxedAtomicGate),
            "unbounded-channel" => Some(Rule::UnboundedChannel),
            "dense-param-over-threshold" => Some(Rule::DenseParamOverThreshold),
            _ => None,
        }
    }

    /// All rules, in report order.
    pub fn all() -> [Rule; 15] {
        [
            Rule::PanicInLib,
            Rule::MissingSafety,
            Rule::FloatEq,
            Rule::TapeInInfer,
            Rule::UnpackedGemmInInfer,
            Rule::FmaForbidden,
            Rule::StdTranscendental,
            Rule::HashIterationOrder,
            Rule::WallclockInNumeric,
            Rule::FloatSortKey,
            Rule::LockOrderCycle,
            Rule::LockUnwrap,
            Rule::RelaxedAtomicGate,
            Rule::UnboundedChannel,
            Rule::DenseParamOverThreshold,
        ]
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// Repo-relative path of the file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// What was found.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Is this path exempt from [`Rule::PanicInLib`]? Binaries and entry points
/// keep their contextual `expect`-style error reporting (PR 2 behavior);
/// test and bench sources are out of scope for every rule.
pub(crate) fn is_bin_path(path: &str) -> bool {
    path.contains("/bin/") || path.ends_with("/main.rs") || path == "main.rs"
}

/// Does `code` contain `needle` starting at a non-identifier boundary?
/// (Guards `unsafe` against matching inside `unsafe_foo`.)
fn contains_word(code: &str, needle: &str) -> Option<usize> {
    let mut from = 0usize;
    while let Some(rel) = code[from..].find(needle) {
        let at = from + rel;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = code[at + needle.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + needle.len();
    }
    None
}

/// Run every applicable rule over one scanned file.
pub fn lint_file(path: &str, lines: &[SourceLine]) -> Vec<Finding> {
    let in_test = test_regions(lines);
    let mut out = Vec::new();
    panic_in_lib(path, lines, &in_test, &mut out);
    missing_safety(path, lines, &in_test, &mut out);
    float_eq(path, lines, &in_test, &mut out);
    tape_in_infer(path, lines, &in_test, &mut out);
    unpacked_gemm_in_infer(path, lines, &in_test, &mut out);
    dense_param_over_threshold(path, lines, &in_test, &mut out);
    out
}

fn panic_in_lib(path: &str, lines: &[SourceLine], in_test: &[bool], out: &mut Vec<Finding>) {
    if is_bin_path(path) {
        return;
    }
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        for pat in [".unwrap()", ".expect(", "panic!"] {
            let hit = if pat == "panic!" {
                contains_word(&line.code, "panic!").is_some()
            } else {
                line.code.contains(pat)
            };
            if hit {
                out.push(Finding {
                    rule: Rule::PanicInLib,
                    path: path.to_string(),
                    line: idx + 1,
                    message: format!("`{pat}` in library code (convert to a typed error or waive)"),
                });
            }
        }
    }
}

/// How many lines above an `unsafe` token the `SAFETY:` comment may sit.
/// Covers a multi-line SAFETY paragraph plus attributes between the comment
/// and the token.
const SAFETY_WINDOW: usize = 15;

fn missing_safety(path: &str, lines: &[SourceLine], in_test: &[bool], out: &mut Vec<Finding>) {
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] || contains_word(&line.code, "unsafe").is_none() {
            continue;
        }
        let lo = idx.saturating_sub(SAFETY_WINDOW);
        let documented = lines[lo..=idx]
            .iter()
            .any(|l| l.comment.contains("SAFETY:") || l.comment.contains("# Safety"));
        if !documented {
            out.push(Finding {
                rule: Rule::MissingSafety,
                path: path.to_string(),
                line: idx + 1,
                message: "`unsafe` without a `// SAFETY:` comment in the preceding lines".into(),
            });
        }
    }
}

/// Lexical float detection: a token is float-like if it is a float literal
/// (`1.0`, `0.5e-3`, `1f32`) or a float constant path (`f32::EPSILON`).
fn is_float_token(tok: &str) -> bool {
    let tok = tok.trim_start_matches(['-', '(', '*', '&']);
    if tok.starts_with("f32::") || tok.starts_with("f64::") {
        return true;
    }
    let Some(first) = tok.chars().next() else {
        return false;
    };
    if !first.is_ascii_digit() {
        return false;
    }
    // a float literal has no brackets/braces — `v[i + 1].text` must not
    // resolve to the pseudo-token `1].text`
    if tok.contains([']', '[', '}', '{', ')', '(']) {
        return false;
    }
    // digits [. digits] [e[-]digits] [f32|f64] — require a '.', exponent, or
    // float suffix so integers don't match.
    let t = tok;
    let has_dot = t.contains('.') && !t.contains("..");
    let has_suffix = t.ends_with("f32") || t.ends_with("f64");
    let has_exp = t.contains(['e', 'E'])
        && t.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-' || c == '+');
    has_dot || has_suffix || (has_exp && t.len() > 1)
}

fn float_eq(path: &str, lines: &[SourceLine], in_test: &[bool], out: &mut Vec<Finding>) {
    if is_bin_path(path) {
        // bins compare parsed CLI floats for convenience; library code is
        // where exact float equality hides bugs
        return;
    }
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        let code = &line.code;
        for op in ["==", "!="] {
            let mut from = 0usize;
            while let Some(rel) = code[from..].find(op) {
                let at = from + rel;
                from = at + op.len();
                // skip `<=`, `>=`, `=>`… only exact `==`/`!=` (not `===`)
                if code[..at].ends_with(['=', '<', '>', '!']) || code[from..].starts_with('=') {
                    continue;
                }
                let lhs = code[..at]
                    .trim_end()
                    .rsplit(|c: char| {
                        c.is_whitespace() || matches!(c, '(' | ',' | '{' | '[' | '&' | '|')
                    })
                    .next()
                    .unwrap_or("");
                let rhs = code[from..]
                    .trim_start()
                    .split(|c: char| {
                        c.is_whitespace() || matches!(c, ')' | ',' | '}' | ']' | ';' | '&' | '|')
                    })
                    .next()
                    .unwrap_or("");
                if is_float_token(lhs) || is_float_token(rhs) {
                    out.push(Finding {
                        rule: Rule::FloatEq,
                        path: path.to_string(),
                        line: idx + 1,
                        message: format!(
                            "float equality `{} {} {}` (use an epsilon or total_cmp)",
                            lhs, op, rhs
                        ),
                    });
                }
            }
        }
    }
}

/// Is `name` an inference-path function name? (`infer`, `infer_*`,
/// `*_infer` — the naming convention of the tape-free runtime.)
fn is_infer_fn_name(name: &str) -> bool {
    name == "infer" || name.starts_with("infer_") || name.ends_with("_infer")
}

/// Is this file part of the inference runtime (e.g. `src/infer.rs`,
/// `src/infer_kernels.rs`)? Everything in it is held to the no-tape rule.
fn is_infer_file(path: &str) -> bool {
    path.rsplit('/')
        .next()
        .is_some_and(|f| f.starts_with("infer") && f.ends_with(".rs"))
        && path.contains("/src/")
}

/// The function name declared on `code`, if it declares one.
fn declared_fn_name(code: &str) -> Option<&str> {
    let at = contains_word(code, "fn")?;
    let rest = code[at + 2..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

fn tape_in_infer(path: &str, lines: &[SourceLine], in_test: &[bool], out: &mut Vec<Finding>) {
    let whole_file = is_infer_file(path);
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        let Some(pat) = ["Tape::new(", "Binder::new("]
            .into_iter()
            .find(|p| line.code.contains(p))
        else {
            continue;
        };
        // Attribute the allocation to the nearest enclosing-or-preceding
        // `fn` declaration (a lexical approximation of "reachable from").
        let on_infer_path = whole_file
            || lines[..=idx]
                .iter()
                .rev()
                .find_map(|l| declared_fn_name(&l.code))
                .is_some_and(is_infer_fn_name);
        if on_infer_path {
            out.push(Finding {
                rule: Rule::TapeInInfer,
                path: path.to_string(),
                line: idx + 1,
                message: format!(
                    "`{pat}` on the inference path (tape-free contract; \
                     use ScratchArena kernels or waive)",
                    pat = pat.trim_end_matches('(')
                ),
            });
        }
    }
}

fn unpacked_gemm_in_infer(
    path: &str,
    lines: &[SourceLine],
    in_test: &[bool],
    out: &mut Vec<Finding>,
) {
    let whole_file = is_infer_file(path);
    for (idx, line) in lines.iter().enumerate() {
        // `infer::matmul(` matches only the unpacked entry point — the `(`
        // excludes `infer::matmul_packed`.
        if in_test[idx] || !line.code.contains("infer::matmul(") {
            continue;
        }
        let on_infer_path = whole_file
            || lines[..=idx]
                .iter()
                .rev()
                .find_map(|l| declared_fn_name(&l.code))
                .is_some_and(is_infer_fn_name);
        if on_infer_path {
            out.push(Finding {
                rule: Rule::UnpackedGemmInInfer,
                path: path.to_string(),
                line: idx + 1,
                message: "`infer::matmul` re-packs its weight on every call; per-step \
                          inference must use a pre-packed `infer::matmul_packed` (or waive \
                          a deliberate unpacked baseline)"
                    .into(),
            });
        }
    }
}

/// Dense-table threshold: a literal this large in a `Param::new` shape is a
/// vocabulary-scale allocation. 4096 is the default embedding block size —
/// anything bigger than one block should be blocked.
const DENSE_PARAM_THRESHOLD: u64 = 4096;

/// How many lines after `Param::new(` the shape arguments may span.
const DENSE_PARAM_WINDOW: usize = 5;

/// Identifiers that lexically mark a network-sized dimension.
const SCALE_IDENTS: [&str; 6] = [
    "num_segments",
    "n_segments",
    "vocab",
    "vocab_size",
    "num_nodes",
    "table_rows",
];

/// Does this code contain an integer literal ≥ [`DENSE_PARAM_THRESHOLD`]?
/// Underscore separators are stripped; float literals don't count.
fn big_int_literal(code: &str) -> Option<u64> {
    let mut chars = code.char_indices().peekable();
    while let Some((at, c)) = chars.next() {
        if !c.is_ascii_digit() {
            continue;
        }
        // Skip digits inside identifiers (`f32`, `b2`) and float literals.
        if at > 0
            && code[..at]
                .chars()
                .next_back()
                .is_some_and(|p| p.is_alphanumeric() || p == '_' || p == '.')
        {
            continue;
        }
        let mut lit = String::from(c);
        while let Some(&(_, n)) = chars.peek() {
            if n.is_ascii_digit() || n == '_' {
                lit.extend(chars.next().map(|(_, ch)| ch).filter(|&ch| ch != '_'));
            } else {
                break;
            }
        }
        if chars.peek().is_some_and(|&(_, n)| n == '.') {
            continue; // float literal
        }
        if let Ok(v) = lit.parse::<u64>() {
            if v >= DENSE_PARAM_THRESHOLD {
                return Some(v);
            }
        }
    }
    None
}

fn dense_param_over_threshold(
    path: &str,
    lines: &[SourceLine],
    in_test: &[bool],
    out: &mut Vec<Finding>,
) {
    // The blocked layout itself is the sanctioned construction site.
    if path.ends_with("st-tensor/src/block.rs") {
        return;
    }
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] || !line.code.contains("Param::new(") {
            continue;
        }
        let hi = (idx + DENSE_PARAM_WINDOW).min(lines.len() - 1);
        let reason = lines[idx..=hi].iter().find_map(|l| {
            SCALE_IDENTS
                .iter()
                .find(|id| contains_word(&l.code, id).is_some())
                .map(|id| format!("network-sized dimension `{id}`"))
                .or_else(|| big_int_literal(&l.code).map(|v| format!("literal {v} rows")))
        });
        if let Some(reason) = reason {
            out.push(Finding {
                rule: Rule::DenseParamOverThreshold,
                path: path.to_string(),
                line: idx + 1,
                message: format!(
                    "dense `Param::new` sized by {reason}: tables that grow with the \
                     network must use the blocked layout (`BlockedParam` / \
                     `Embedding::with_block_rows`) for lazy per-shard gradients"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn lint(path: &str, src: &str) -> Vec<Finding> {
        lint_file(path, &scan(src))
    }

    fn rules_of(f: &[Finding]) -> Vec<Rule> {
        f.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn flags_unwrap_in_lib_but_not_tests_or_bins() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\n";
        let f = lint("crates/st-core/src/lib.rs", src);
        assert_eq!(rules_of(&f), vec![Rule::PanicInLib]);
        assert_eq!(f[0].line, 1);
        assert!(lint("crates/st-bench/src/bin/t.rs", src).is_empty());
        assert!(lint("src/main.rs", src).is_empty());
    }

    #[test]
    fn flags_expect_and_panic_not_lookalikes() {
        let f = lint(
            "crates/a/src/l.rs",
            "fn f() { a.expect(\"m\"); panic!(\"x\"); }\n",
        );
        assert_eq!(f.len(), 2);
        let f = lint(
            "crates/a/src/l.rs",
            "fn f() { a.expect_err(1); a.unwrap_or(2); catch_panic!(); }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    /// Planted defects for `dense-param-over-threshold`: a table sized by a
    /// vocab-scale identifier (shape on a later line) and one sized by a
    /// big literal each fire exactly once; a small dense param between them
    /// stays clean.
    #[test]
    fn flags_dense_params_sized_by_scale_ident_or_big_literal() {
        let src = "fn f(vocab: usize) {\n\
                   \x20let t = Param::new(\n\
                   \x20 \"m.table\",\n\
                   \x20 init::randn(&[vocab, 64], 0.1, rng),\n\
                   \x20);\n\
                   }\n\
                   fn g() {\n\
                   \x20let w = Param::new(\"m.w\", init::xavier(64, 32, rng));\n\
                   }\n\
                   \n\
                   \n\
                   \n\
                   \n\
                   fn h() {\n\
                   \x20let big = Param::new(\"m.big\", Array::zeros(&[8_192, 4]));\n\
                   }\n";
        let f = lint("crates/st-core/src/model.rs", src);
        assert_eq!(
            rules_of(&f),
            vec![Rule::DenseParamOverThreshold, Rule::DenseParamOverThreshold],
            "{f:?}"
        );
        assert_eq!((f[0].line, f[1].line), (2, 15));
        // The blocked layout's own constructor is the sanctioned site.
        assert!(lint("crates/st-tensor/src/block.rs", src).is_empty());
        // Test regions are out of scope, as everywhere.
        let test_src = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint("crates/st-core/src/model.rs", &test_src).is_empty());
    }

    /// Boundary and lookalike behavior of the literal detector: 4096 is the
    /// threshold (inclusive), floats and digit-bearing identifiers are not
    /// literals.
    #[test]
    fn dense_param_literal_boundaries() {
        let fire = "fn f() { let t = Param::new(\"t\", Array::zeros(&[4096, 8])); }\n";
        assert_eq!(lint("crates/a/src/l.rs", fire).len(), 1);
        let clean = "fn f() { let t = Param::new(\"t\", Array::zeros(&[4095, 8])); }\n";
        assert!(lint("crates/a/src/l.rs", clean).is_empty());
        let lookalikes =
            "fn f() { let t = Param::new(\"t\", Array::full(&[8, 8], 65536.0) * x9999); }\n";
        assert!(lint("crates/a/src/l.rs", lookalikes).is_empty());
    }

    #[test]
    fn unwrap_in_comment_or_string_is_ignored() {
        let f = lint(
            "crates/a/src/l.rs",
            "// call .unwrap() if you dare\nlet s = \"panic!\";\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn flags_undocumented_unsafe() {
        let f = lint("crates/a/src/l.rs", "fn f() { unsafe { g(); } }\n");
        assert_eq!(rules_of(&f), vec![Rule::MissingSafety]);
    }

    #[test]
    fn safety_comment_satisfies_unsafe() {
        let src = "// SAFETY: g has no preconditions here.\nfn f() { unsafe { g(); } }\n";
        assert!(lint("crates/a/src/l.rs", src).is_empty());
        let src = "/// # Safety\n/// caller checks cap.\npub unsafe fn f() { g(); }\n";
        let f = lint("crates/a/src/l.rs", src);
        assert!(!f.iter().any(|x| x.rule == Rule::MissingSafety), "{f:?}");
    }

    #[test]
    fn flags_float_equality_only() {
        let f = lint("crates/a/src/l.rs", "if x == 0.0 { }\n");
        assert_eq!(rules_of(&f), vec![Rule::FloatEq]);
        let f = lint("crates/a/src/l.rs", "if x != 1e-5 { }\n");
        assert_eq!(rules_of(&f), vec![Rule::FloatEq]);
        let f = lint("crates/a/src/l.rs", "if n == 0 { } if s == \"x\" { }\n");
        assert!(f.is_empty(), "{f:?}");
        let f = lint("crates/a/src/l.rs", "if x <= 0.5 { } let y = 1.0; a => b\n");
        assert!(f.is_empty(), "{f:?}");
        let f = lint("crates/a/src/l.rs", "if f32::EPSILON == eps { }\n");
        assert_eq!(rules_of(&f), vec![Rule::FloatEq]);
    }

    #[test]
    fn flags_tape_in_infer_named_fn() {
        let src = "fn infer_step(&self) {\n let t = Tape::new();\n}\n";
        let f = lint("crates/st-core/src/predict.rs", src);
        assert_eq!(rules_of(&f), vec![Rule::TapeInInfer]);
        assert_eq!(f[0].line, 2);
        let src = "fn gru_infer(&self) {\n let b = Binder::new(&t);\n}\n";
        assert_eq!(
            rules_of(&lint("crates/st-nn/src/gru.rs", src)),
            vec![Rule::TapeInInfer]
        );
    }

    #[test]
    fn flags_any_tape_in_infer_file() {
        let src = "fn helper() {\n let t = Tape::new();\n}\n";
        let f = lint("crates/st-tensor/src/infer.rs", src);
        assert_eq!(rules_of(&f), vec![Rule::TapeInInfer]);
    }

    #[test]
    fn taped_fn_outside_infer_path_is_fine() {
        let src =
            "fn step_state_taped(&self) {\n let t = Tape::new();\n let b = Binder::new(&t);\n}\n";
        assert!(lint("crates/st-core/src/predict.rs", src).is_empty());
        // tests are always out of scope
        let src = "fn infer_x() {}\n#[cfg(test)]\nmod tests {\n fn infer_t() { let t = Tape::new(); }\n}\n";
        assert!(lint("crates/st-core/src/predict.rs", src).is_empty());
    }

    #[test]
    fn flags_unpacked_gemm_in_infer_fn() {
        let src = "fn infer_step(&self) {\n let g = infer::matmul(arena, h, &w.value());\n}\n";
        let f = lint("crates/st-nn/src/gru.rs", src);
        assert!(
            f.iter().any(|x| x.rule == Rule::UnpackedGemmInInfer),
            "{f:?}"
        );
        assert_eq!(
            f.iter()
                .find(|x| x.rule == Rule::UnpackedGemmInInfer)
                .unwrap()
                .line,
            2
        );
    }

    #[test]
    fn packed_gemm_is_fine() {
        let src = "fn infer_step(&self) {\n let g = infer::matmul_packed(arena, h, &w);\n}\n";
        let f = lint("crates/st-core/src/predict.rs", src);
        assert!(
            !f.iter().any(|x| x.rule == Rule::UnpackedGemmInInfer),
            "{f:?}"
        );
    }

    #[test]
    fn unpacked_gemm_outside_infer_path_is_fine() {
        let src = "fn decoder(&self) {\n let d = infer::matmul(arena, x, &beta.value());\n}\n";
        let f = lint("crates/st-baselines/src/rnn.rs", src);
        assert!(
            !f.iter().any(|x| x.rule == Rule::UnpackedGemmInInfer),
            "{f:?}"
        );
        // tests are always out of scope
        let src = "#[cfg(test)]\nmod tests {\n fn infer_t() { infer::matmul(a, b, c); }\n}\n";
        assert!(lint("crates/st-core/src/predict.rs", src).is_empty());
    }
}
