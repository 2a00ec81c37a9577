//! Determinism rule family (v2): the static side of the bit-identity
//! contract.
//!
//! The serving stack promises taped ≡ infer ≡ fused routes, bit-identical
//! across thread counts, batch shapes, and SIMD tiers (DESIGN.md
//! §12). That holds only while four invariants do: no FMA contraction
//! anywhere, Cephes-only transcendentals in numeric crates, no
//! hash-order-dependent reductions, and no wall-clock values steering
//! numeric paths. Each rule here polices one invariant over the parsed
//! token stream; see [`crate::rules::Rule`] for the catalog text.

use crate::parser::{stmt_end, stmt_start, ParsedFile};
use crate::rules::{is_bin_path, Finding, Rule};
use crate::symbols::WorkspaceIndex;

/// Run every determinism rule over one parsed file.
pub fn lint_determinism(file: &ParsedFile, index: &WorkspaceIndex, out: &mut Vec<Finding>) {
    fma_forbidden(file, out);
    std_transcendental(file, out);
    hash_iteration_order(file, index, out);
    wallclock_in_numeric(file, out);
    float_sort_key(file, out);
}

fn finding(file: &ParsedFile, rule: Rule, tok: usize, message: String) -> Finding {
    Finding {
        rule,
        path: file.path.clone(),
        line: file.tokens[tok].line + 1,
        message,
    }
}

// ---------------------------------------------------------------- fma

/// `mul_add` as a word, or any identifier containing `fmadd` (the FMA
/// intrinsic family `_mm256_fmadd_ps` etc). Name-only mentions like the
/// `avx2_fma` feature probe don't match — there is no contraction in a
/// feature check.
fn fma_forbidden(file: &ParsedFile, out: &mut Vec<Finding>) {
    for (i, t) in file.tokens.iter().enumerate() {
        if file.tok_in_test(i) {
            continue;
        }
        if t.text == "mul_add" || t.text.contains("fmadd") {
            out.push(finding(
                file,
                Rule::FmaForbidden,
                i,
                format!(
                    "`{}` contracts a multiply-add into one rounding; the bit-identity \
                     contract (scalar ≡ AVX2, taped ≡ fused) requires separate mul and add",
                    t.text
                ),
            ));
        }
    }
}

// ---------------------------------------------- std transcendentals

/// Transcendental method names whose std/libm implementations differ
/// across hosts. `sqrt` and `powi` are excluded: both are IEEE-exact.
const TRANSCENDENTALS: [&str; 19] = [
    "exp", "exp2", "exp_m1", "ln", "ln_1p", "log", "log2", "log10", "powf", "sin", "cos", "tan",
    "asin", "acos", "atan", "atan2", "sinh", "cosh", "tanh",
];

/// Crates on the numeric path, where transcendentals must come from
/// `st_tensor::mathfn` (Cephes polynomials, bit-identical everywhere).
const NUMERIC_CRATES: [&str; 5] = ["st-tensor", "st-nn", "st-core", "st-baselines", "st-serve"];

fn std_transcendental(file: &ParsedFile, out: &mut Vec<Finding>) {
    if !NUMERIC_CRATES.contains(&file.crate_name()) || file.path.ends_with("/mathfn.rs") {
        return;
    }
    for (i, t) in file.tokens.iter().enumerate() {
        if file.tok_in_test(i) || !TRANSCENDENTALS.contains(&t.text.as_str()) {
            continue;
        }
        // method call `.exp(` or qualified `f32::exp(` / `f64::exp(`
        let method = i > 0
            && file.tokens[i - 1].text == "."
            && file.tokens.get(i + 1).map(|t| t.text.as_str()) == Some("(");
        let qualified =
            i >= 3 && (file.seq(i - 3, &["f32", ":", ":"]) || file.seq(i - 3, &["f64", ":", ":"]));
        let qualified = qualified && file.tokens.get(i + 1).map(|t| t.text.as_str()) == Some("(");
        if method || qualified {
            out.push(finding(
                file,
                Rule::StdTranscendental,
                i,
                format!(
                    "std `{}` on the numeric path; libm results differ across hosts — \
                     use `st_tensor::mathfn` (Cephes) or waive with a reason",
                    t.text
                ),
            ));
        }
    }
}

// ------------------------------------------- hash iteration order

/// Iterator adapters that enumerate a hash collection in hash order.
const HASH_ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
];

/// Integer sum types whose accumulation is order-independent.
const INT_TYPES: [&str; 12] = [
    "usize", "u64", "u32", "u16", "u8", "isize", "i64", "i32", "i16", "i8", "u128", "i128",
];

fn is_float_literal(text: &str) -> bool {
    let t = text.trim_end_matches("f32").trim_end_matches("f64");
    text.ends_with("f32") && text.chars().next().is_some_and(|c| c.is_ascii_digit())
        || text.ends_with("f64") && text.chars().next().is_some_and(|c| c.is_ascii_digit())
        || (t.contains('.') && t.chars().next().is_some_and(|c| c.is_ascii_digit()))
}

/// Hash-typed names visible in one function body: parameters whose base
/// type is `HashMap`/`HashSet`, and `let` bindings whose declaring
/// statement mentions one.
fn hash_names_in_fn(file: &ParsedFile, open: usize, close: usize, fi: usize) -> Vec<String> {
    let mut names: Vec<String> = file.items.fns[fi]
        .params
        .iter()
        .filter(|p| {
            p.base_type
                .as_deref()
                .is_some_and(|t| t == "HashMap" || t == "HashSet")
        })
        .map(|p| p.name.clone())
        .collect();
    let mut i = open + 1;
    while i < close {
        if file.tokens[i].text == "let" {
            let end = stmt_end(&file.tokens, &file.matches, i);
            let mentions_hash = file.tokens[i..end]
                .iter()
                .any(|t| t.text == "HashMap" || t.text == "HashSet");
            if mentions_hash {
                let mut j = i + 1;
                if file.tokens.get(j).map(|t| t.text.as_str()) == Some("mut") {
                    j += 1;
                }
                if let Some(name) = file.tokens.get(j).filter(|t| {
                    t.text
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_alphabetic() || c == '_')
                }) {
                    names.push(name.text.clone());
                }
            }
            i = end;
        }
        i += 1;
    }
    names
}

/// Does the expression in `[from, to)` denote a hash collection? Either a
/// known hash-typed name, or a `self.field` / `param.field` whose field
/// type is `HashMap`/`HashSet` per the symbol index. When followed by a
/// method, only the iteration adapters count (`.len()` etc. are
/// order-independent).
fn hash_expr_root(
    file: &ParsedFile,
    index: &WorkspaceIndex,
    hash_names: &[String],
    fi: usize,
    from: usize,
    to: usize,
) -> bool {
    let toks = &file.tokens;
    let mut i = from;
    // strip leading borrows
    while i < to && (toks[i].text == "&" || toks[i].text == "mut") {
        i += 1;
    }
    let Some(head) = toks.get(i).filter(|t| t.word()) else {
        return false;
    };
    let mut is_hash = hash_names.contains(&head.text);
    let mut cursor = i + 1;
    // resolve a field access: `self.f` / `param.f`
    if !is_hash && cursor + 1 < to && toks[cursor].text == "." && toks[cursor + 1].word() {
        let field = &toks[cursor + 1].text;
        let f = &file.items.fns[fi];
        let owner = if head.text == "self" {
            f.impl_type.clone()
        } else {
            f.params
                .iter()
                .find(|p| p.name == head.text)
                .and_then(|p| p.base_type.clone())
        };
        if let Some(owner) = owner {
            if index.field(&owner, field).is_some_and(|fl| fl.is_hash) {
                is_hash = true;
                cursor += 2;
            }
        }
    }
    if !is_hash {
        return false;
    }
    // bare collection (`for x in &map`) iterates in hash order
    if cursor >= to {
        return true;
    }
    // otherwise require an iteration adapter, not `.len()` / `.get(...)`
    cursor < to - 1
        && toks[cursor].text == "."
        && HASH_ITER_METHODS.contains(&toks[cursor + 1].text.as_str())
}

/// Is binding `name` sorted anywhere in `[from, to)`? (`name.sort*(...)`)
fn sorted_later(file: &ParsedFile, name: &str, from: usize, to: usize) -> bool {
    let toks = &file.tokens;
    (from..to.min(toks.len()).saturating_sub(2)).any(|i| {
        toks[i].text == name && toks[i + 1].text == "." && toks[i + 2].text.starts_with("sort")
    })
}

fn hash_iteration_order(file: &ParsedFile, index: &WorkspaceIndex, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    for fi in 0..file.items.fns.len() {
        let Some((open, close)) = file.items.fns[fi].body else {
            continue;
        };
        if file.tok_in_test(open) {
            continue;
        }
        let hash_names = hash_names_in_fn(file, open, close, fi);
        let mut i = open + 1;
        while i < close {
            // `for pat in <iterable> {`
            if toks[i].text == "for" {
                // find `in` then the body `{`, skipping groups
                let mut j = i + 1;
                let mut in_at = None;
                while j < close {
                    match toks[j].text.as_str() {
                        "(" | "[" | "{" => j = file.matches[j],
                        "in" => {
                            in_at = Some(j);
                            break;
                        }
                        ";" => break,
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(in_at) = in_at {
                    let mut k = in_at + 1;
                    while k < close {
                        match toks[k].text.as_str() {
                            "(" | "[" => k = file.matches[k],
                            "{" => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    if k < close
                        && toks[k].text == "{"
                        && hash_expr_root(file, index, &hash_names, fi, in_at + 1, k)
                    {
                        let body_close = file.matches[k];
                        if let Some(msg) =
                            order_sensitive_loop_body(file, open, k, body_close, close)
                        {
                            out.push(finding(
                                file,
                                Rule::HashIterationOrder,
                                i,
                                format!(
                                    "hash-map iteration {msg}; hash order is randomized per \
                                     process — use BTreeMap or sort the keys first"
                                ),
                            ));
                        }
                        i = body_close;
                    }
                }
            }
            // iterator chain: `map.iter()....sum::<f32>()` etc.
            else if toks[i].word()
                && i + 2 < close
                && toks[i + 1].text == "."
                && HASH_ITER_METHODS.contains(&toks[i + 2].text.as_str())
                && hash_expr_root(file, index, &hash_names, fi, i, i + 3)
            {
                let end = stmt_end(toks, &file.matches, i);
                if let Some(msg) = order_sensitive_chain(file, i, end, close) {
                    out.push(finding(
                        file,
                        Rule::HashIterationOrder,
                        i,
                        format!(
                            "hash-map iteration {msg}; hash order is randomized per \
                             process — use BTreeMap or sort the keys first"
                        ),
                    ));
                }
                i = end;
            }
            i += 1;
        }
    }
}

/// Is `name` declared as a float in `[from, to)`? (`let [mut] name`
/// whose statement mentions a float literal or `f32` / `f64`.)
fn declared_float(file: &ParsedFile, name: &str, from: usize, to: usize) -> bool {
    let toks = &file.tokens;
    let mut i = from;
    while i < to {
        if toks[i].text == "let" {
            let j = i + 1 + usize::from(toks.get(i + 1).is_some_and(|t| t.text == "mut"));
            let end = stmt_end(toks, &file.matches, i);
            if toks.get(j).is_some_and(|t| t.text == name)
                && toks[i..end]
                    .iter()
                    .any(|t| t.text == "f32" || t.text == "f64" || is_float_literal(&t.text))
            {
                return true;
            }
            i = end;
        }
        i += 1;
    }
    false
}

/// Does a `for`-loop body over a hash collection feed float accumulation
/// or collection ordering? Returns the reason, or `None` if benign.
fn order_sensitive_loop_body(
    file: &ParsedFile,
    fn_open: usize,
    body_open: usize,
    body_close: usize,
    fn_close: usize,
) -> Option<String> {
    let toks = &file.tokens;
    let mut i = body_open + 1;
    while i < body_close {
        // `target.push(...)` — ordering-sensitive unless target is sorted
        // after the loop
        if toks[i].word()
            && file.seq(i + 1, &["."])
            && toks
                .get(i + 2)
                .is_some_and(|t| t.text == "push" || t.text == "push_str" || t.text == "extend")
        {
            let target = toks[i].text.clone();
            if !sorted_later(file, &target, body_close, fn_close) {
                return Some(format!("pushes into `{target}` (never sorted afterwards)"));
            }
        }
        // float `+=` — the accumulation statement mentions a float, or the
        // accumulator was declared as one; integer counters are
        // order-independent
        if toks[i].text == "+" && toks.get(i + 1).is_some_and(|t| t.text == "=") {
            let s = stmt_start(toks, &file.matches, i);
            let e = stmt_end(toks, &file.matches, i);
            let floaty = toks[s..e]
                .iter()
                .any(|t| t.text == "f32" || t.text == "f64" || is_float_literal(&t.text))
                || toks[s..i]
                    .iter()
                    .rev()
                    .find(|t| t.word())
                    .is_some_and(|acc| declared_float(file, &acc.text, fn_open, body_open));
            if floaty {
                return Some("accumulates floats with `+=` (rounding is order-dependent)".into());
            }
        }
        i += 1;
    }
    None
}

/// Does an iterator chain over a hash collection end in an order-sensitive
/// consumer? Returns the reason, or `None` if benign.
fn order_sensitive_chain(
    file: &ParsedFile,
    from: usize,
    stmt_end_at: usize,
    fn_close: usize,
) -> Option<String> {
    let toks = &file.tokens;
    let mut i = from;
    while i < stmt_end_at {
        match toks[i].text.as_str() {
            "sum" | "product" => {
                // `.sum::<f32>()` — integer sums are order-independent;
                // flag float turbofish only (unknown types stay quiet)
                let g = (i + 1..(i + 8).min(stmt_end_at))
                    .find(|&j| toks[j].word())
                    .map(|j| toks[j].text.as_str());
                if matches!(g, Some("f32" | "f64")) {
                    return Some(format!("feeds a float `.{}()`", toks[i].text));
                }
                if g.is_some_and(|t| INT_TYPES.contains(&t)) {
                    i += 1;
                    continue;
                }
            }
            // order-sensitive when the accumulator init is a float
            "fold" | "scan" if toks.get(i + 1).is_some_and(|t| t.text == "(") => {
                let close = file.matches[i + 1];
                if toks[i + 1..close].iter().any(|t| is_float_literal(&t.text)) {
                    return Some(format!(
                        "feeds `.{}(` with a float accumulator",
                        toks[i].text
                    ));
                }
            }
            "collect" => {
                // `.collect::<Vec<_>>()` / into a String is ordered output;
                // collecting back into a map/set is not
                let ordered = (i + 1..(i + 10).min(stmt_end_at))
                    .any(|j| matches!(toks[j].text.as_str(), "Vec" | "VecDeque" | "String"));
                if ordered {
                    // suppressed when the collected binding is sorted later
                    let s = stmt_start(toks, &file.matches, i);
                    let target = (toks[s].text == "let")
                        .then(|| {
                            let j = s + 1;
                            let j = j + usize::from(toks.get(j).is_some_and(|t| t.text == "mut"));
                            toks.get(j).filter(|t| t.word()).map(|t| t.text.clone())
                        })
                        .flatten();
                    let sorted = target
                        .as_deref()
                        .is_some_and(|t| sorted_later(file, t, stmt_end_at, fn_close));
                    if !sorted {
                        return Some("collects into an ordered container (never sorted)".into());
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

// ---------------------------------------------- wall-clock taint

/// Files on the inference / decoding / training path, where wall-clock
/// reads must never steer numeric results.
fn is_timed_scope(path: &str) -> bool {
    let name = path.rsplit('/').next().unwrap_or(path);
    matches!(name, "train.rs" | "predict.rs" | "beam.rs")
        || (name.starts_with("infer") || name.starts_with("decode")) && name.ends_with(".rs")
}

fn wallclock_in_numeric(file: &ParsedFile, out: &mut Vec<Finding>) {
    if !is_timed_scope(&file.path) || is_bin_path(&file.path) {
        return;
    }
    let toks = &file.tokens;
    for fi in 0..file.items.fns.len() {
        let Some((open, close)) = file.items.fns[fi].body else {
            continue;
        };
        if file.tok_in_test(open) {
            continue;
        }
        // pass 1: taint `let` bindings whose RHS reads the clock
        let mut tainted: Vec<String> = Vec::new();
        let is_source = |file: &ParsedFile, i: usize| {
            file.seq(i, &["Instant", ":", ":", "now"])
                || file.seq(i, &["SystemTime", ":", ":", "now"])
                || file.seq(i, &["thread", ":", ":", "current"])
        };
        let mut i = open + 1;
        while i < close {
            if toks[i].text == "let" {
                // An `if let` / `while let` has no terminating `;`, so
                // `stmt_end` would skip its block and run to the end of the
                // enclosing one — swallowing unrelated later statements into
                // the RHS scan (a clock read *after* the conditional would
                // taint the pattern binder). Clamp the RHS at the `{` that
                // opens the body instead.
                let end = if matches!(toks[i - 1].text.as_str(), "if" | "while") {
                    let mut j = i;
                    loop {
                        if j >= close {
                            break close;
                        }
                        match toks[j].text.as_str() {
                            "(" | "[" if file.matches[j] > j => j = file.matches[j],
                            "{" | ";" => break j,
                            _ => {}
                        }
                        j += 1;
                    }
                } else {
                    stmt_end(toks, &file.matches, i)
                };
                let rhs_tainted = (i..end).any(|j| {
                    is_source(file, j) || (toks[j].word() && tainted.contains(&toks[j].text))
                });
                if rhs_tainted {
                    let j = i + 1 + usize::from(toks.get(i + 1).is_some_and(|t| t.text == "mut"));
                    if let Some(name) = toks.get(j).filter(|t| t.word()) {
                        tainted.push(name.text.clone());
                    }
                }
                i = end;
            }
            i += 1;
        }
        // pass 2: flag tainted values in branch conditions or arithmetic
        let mut i = open + 1;
        while i < close {
            let is_tainted_here =
                is_source(file, i) || (toks[i].word() && tainted.contains(&toks[i].text));
            if is_tainted_here {
                // condition position: between `if`/`while` and its `{`
                let s = stmt_start(toks, &file.matches, i);
                let in_cond = (s..i).any(|j| toks[j].text == "if" || toks[j].text == "while");
                // arithmetic position: the statement combines the tainted
                // value with + - * / % (pure clock reads have no operator,
                // so `let t0 = Instant::now();` stays quiet)
                let e = stmt_end(toks, &file.matches, i);
                let arith = (s..e).any(|j| {
                    matches!(toks[j].text.as_str(), "+" | "-" | "*" | "/" | "%")
                        // `->` in an embedded closure signature is not math
                        && !(toks[j].text == "-"
                            && toks.get(j + 1).is_some_and(|t| t.text == ">"))
                });
                if in_cond || arith {
                    out.push(finding(
                        file,
                        Rule::WallclockInNumeric,
                        i,
                        format!(
                            "wall-clock value `{}` {} on the infer/decode/train path — \
                             timing must not steer numeric results (use st_obs for metrics)",
                            toks[i].text,
                            if in_cond {
                                "gates a branch"
                            } else {
                                "feeds a numeric expression"
                            }
                        ),
                    ));
                    i = e;
                }
            }
            i += 1;
        }
    }
}

// ------------------------------------------------ float sort keys

/// Comparator-taking methods where a `partial_cmp` sort key is unstable
/// under NaN.
const CMP_SINKS: [&str; 8] = [
    "sort_by",
    "sort_unstable_by",
    "sort_by_cached_key",
    "min_by",
    "max_by",
    "binary_search_by",
    "cmp_by",
    "partition_point",
];

fn float_sort_key(file: &ParsedFile, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.text != "partial_cmp" || file.tok_in_test(i) {
            continue;
        }
        // skip the `fn partial_cmp` declaration itself
        if i > 0 && toks[i - 1].text == "fn" {
            continue;
        }
        // method use only: `.partial_cmp(`
        if i == 0 || toks[i - 1].text != "." {
            continue;
        }
        let in_cmp_impl = file
            .innermost_fn(i)
            .is_some_and(|fi| file.items.fns[fi].name == "cmp");
        let s = stmt_start(toks, &file.matches, i);
        let in_sort_sink = (s..i).any(|j| CMP_SINKS.contains(&toks[j].text.as_str()));
        if in_cmp_impl || in_sort_sink {
            out.push(finding(
                file,
                Rule::FloatSortKey,
                i,
                format!(
                    "`partial_cmp` as a sort key {}; NaN silently reorders — use `total_cmp`",
                    if in_cmp_impl {
                        "inside an `Ord::cmp` impl"
                    } else {
                        "in a comparator closure"
                    }
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Vec<Finding> {
        let file = ParsedFile::parse(path, src);
        let index = WorkspaceIndex::build(std::slice::from_ref(&file));
        let mut out = Vec::new();
        lint_determinism(&file, &index, &mut out);
        out
    }

    fn rules_of(f: &[Finding]) -> Vec<Rule> {
        f.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn flags_mul_add_and_fmadd_intrinsics() {
        let f = lint(
            "crates/st-tensor/src/gemm.rs",
            "fn k(a: f32, b: f32, c: f32) -> f32 { a.mul_add(b, c) }\n",
        );
        assert_eq!(rules_of(&f), vec![Rule::FmaForbidden]);
        let f = lint(
            "crates/st-tensor/src/gemm.rs",
            "fn k() { let acc = _mm256_fmadd_ps(a, b, acc); }\n",
        );
        assert!(f.iter().any(|x| x.rule == Rule::FmaForbidden), "{f:?}");
    }

    #[test]
    fn fma_feature_probe_name_is_fine() {
        // `avx2_fma` as a fn name is a capability probe, not a contraction
        let f = lint(
            "crates/st-tensor/src/dispatch.rs",
            "fn avx2_fma() -> bool { false }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn flags_std_transcendental_in_numeric_crates_only() {
        let src = "fn f(x: f32) -> f32 { x.exp() }\n";
        assert_eq!(
            rules_of(&lint("crates/st-core/src/model.rs", src)),
            vec![Rule::StdTranscendental]
        );
        // out-of-scope crate
        assert!(lint("crates/st-roadnet/src/geo.rs", src).is_empty());
        // mathfn itself is the sanctioned home
        assert!(lint("crates/st-tensor/src/mathfn.rs", src).is_empty());
    }

    #[test]
    fn qualified_and_method_transcendentals_match_but_mathfn_calls_do_not() {
        let f = lint(
            "crates/st-nn/src/act.rs",
            "fn f(x: f32) -> f32 { f32::ln(x) + x.powf(2.0) }\n",
        );
        assert_eq!(f.len(), 2, "{f:?}");
        // free calls through mathfn are the fix, not a finding
        let f = lint(
            "crates/st-nn/src/act.rs",
            "fn f(x: f32) -> f32 { mathfn::tanh(x) + mathfn::exp(x) }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn flags_hash_iteration_feeding_floats_or_ordering() {
        let src = "
fn f(m: &HashMap<u32, f32>) -> f32 {
    let mut acc = 0.0f32;
    for (_k, v) in m.iter() {
        acc += *v;
    }
    acc
}
";
        let f = lint("crates/st-core/src/stats.rs", src);
        assert_eq!(rules_of(&f), vec![Rule::HashIterationOrder]);

        let src = "
fn g(m: &HashMap<u32, f32>) -> Vec<u32> {
    let mut v = Vec::new();
    for k in m.keys() {
        v.push(*k);
    }
    v
}
";
        let f = lint("crates/st-core/src/stats.rs", src);
        assert_eq!(rules_of(&f), vec![Rule::HashIterationOrder]);
    }

    #[test]
    fn sorted_after_loop_suppresses_hash_iteration() {
        let src = "
fn g(m: &HashMap<u32, f32>) -> Vec<u32> {
    let mut v = Vec::new();
    for k in m.keys() {
        v.push(*k);
    }
    v.sort_unstable();
    v
}
";
        assert!(lint("crates/st-core/src/stats.rs", src).is_empty());
    }

    #[test]
    fn integer_counting_over_hash_is_fine() {
        let src = "
fn g(m: &HashMap<u32, f32>) -> usize {
    let mut n = 0usize;
    for _k in m.keys() {
        n += 1;
    }
    n + m.len()
}
";
        assert!(lint("crates/st-core/src/stats.rs", src).is_empty());
    }

    #[test]
    fn float_sum_chain_over_hash_is_flagged_int_sum_is_not() {
        let src = "fn f(m: &HashMap<u32, f32>) -> f32 { m.values().sum::<f32>() }\n";
        assert_eq!(
            rules_of(&lint("crates/st-core/src/stats.rs", src)),
            vec![Rule::HashIterationOrder]
        );
        let src = "fn f(m: &HashMap<u32, usize>) -> usize { m.values().sum::<usize>() }\n";
        assert!(lint("crates/st-core/src/stats.rs", src).is_empty());
    }

    #[test]
    fn hash_field_iteration_resolves_through_the_index() {
        let src = "
struct Cache { slots: HashMap<u32, f32> }
impl Cache {
    fn total(&self) -> f32 {
        let mut acc = 0.0f32;
        for v in self.slots.values() {
            acc += v;
        }
        acc
    }
}
";
        let f = lint("crates/st-core/src/cache.rs", src);
        assert_eq!(rules_of(&f), vec![Rule::HashIterationOrder]);
    }

    #[test]
    fn flags_wallclock_gating_and_arithmetic_in_scoped_files() {
        let src = "
fn decode_step(deadline: Instant) -> bool {
    let now = Instant::now();
    if now > deadline {
        return false;
    }
    true
}
";
        let f = lint("crates/st-core/src/decode.rs", src);
        assert_eq!(rules_of(&f), vec![Rule::WallclockInNumeric]);

        let src = "
fn train_epoch() -> f64 {
    let t0 = Instant::now();
    let dt = t0.elapsed();
    let score = base * dt.as_secs_f64();
    score
}
";
        let f = lint("crates/st-core/src/train.rs", src);
        assert_eq!(rules_of(&f), vec![Rule::WallclockInNumeric]);
    }

    #[test]
    fn wallclock_outside_scope_or_unused_is_fine() {
        let src = "fn serve() { let t0 = Instant::now(); observe(t0); }\n";
        // not a scoped file
        assert!(lint("crates/st-serve/src/server.rs", src).is_empty());
        // scoped file, but the value only flows to observability
        assert!(lint("crates/st-core/src/predict.rs", src).is_empty());
    }

    /// Regression: an `if let` has no terminating `;`, so the RHS taint
    /// scan used to run past the block and a clock read *later in the
    /// function* tainted the pattern binder (`Some`), flagging the
    /// unrelated conditional. The RHS now ends at the body's `{`.
    #[test]
    fn if_let_binder_is_not_tainted_by_later_clock_reads() {
        let src = "
fn train_loop() {
    if let Some(path) = cfg.resume_from.clone() {
        restore(path);
    }
    let mut n = 0usize;
    while n < cfg.epochs {
        let t0 = Instant::now();
        let seconds = t0.elapsed().as_secs_f64();
        observe(seconds);
        n += 1;
    }
}
";
        let f = lint("crates/st-core/src/train.rs", src);
        assert!(f.is_empty(), "{f:?}");
        // Positive control: a clock read *inside* the `if let` head still
        // taints the binder and gates the branch.
        let src = "
fn train_loop() {
    while let Some(left) = deadline.checked_sub(Instant::now()) {
        step(left);
    }
}
";
        let f = lint("crates/st-core/src/train.rs", src);
        assert_eq!(rules_of(&f), vec![Rule::WallclockInNumeric], "{f:?}");
    }

    #[test]
    fn flags_partial_cmp_in_ord_impl_and_sort_closure() {
        let src = "
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.cost.partial_cmp(&self.cost).unwrap_or(Ordering::Equal)
    }
}
";
        let f = lint("crates/st-roadnet/src/shortest.rs", src);
        assert_eq!(rules_of(&f), vec![Rule::FloatSortKey]);

        let src = "fn f(v: &mut Vec<f32>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        let f = lint("crates/st-eval/src/rank.rs", src);
        assert!(f.iter().any(|x| x.rule == Rule::FloatSortKey), "{f:?}");
    }

    #[test]
    fn total_cmp_and_partial_cmp_decl_are_fine() {
        let src = "
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.cost.total_cmp(&self.cost)
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
";
        assert!(lint("crates/st-roadnet/src/shortest.rs", src).is_empty());
    }
}
