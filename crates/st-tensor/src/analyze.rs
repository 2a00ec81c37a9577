//! Static analysis of autodiff graphs: shape dry-runs and gradient-flow
//! audits without executing kernels.
//!
//! The analyzer consumes a [`GraphSpec`] — per-node shapes plus the
//! [`OpMeta`] each op records when it is pushed onto a [`crate::Tape`] — and
//! reports typed [`Diagnostic`]s:
//!
//! - **shape mismatches** at the op that introduces them, re-derived from the
//!   engine's own inference rules (so a spec built by [`SpecBuilder`] from
//!   leaf shapes alone is checked end to end, a *dry run* of the graph);
//! - **unreachable parameters**: bound leaves with no gradient path from the
//!   backward root;
//! - **detached subgraphs**: op sinks whose results never reach the root;
//! - **constant-foldable ops**: subgraphs rooted only in `const` leaves,
//!   recomputed every step for the same value;
//! - **NaN hazards**: `div`/`reciprocal` whose denominator is not provably
//!   positive, and `ln`/`sqrt` over possibly-negative inputs, found by a
//!   sign abstract interpretation (see [`Sign`](crate::analyze::Sign));
//! - **deep f32 accumulations**: reduction chains whose worst-case serial
//!   accumulation length exceeds a threshold, where f32 rounding error grows
//!   linearly.
//!
//! Graphs come from two sources: [`crate::Tape::export_spec`] snapshots a
//! live tape (the integration path used by the trainer before epoch 0), and
//! [`SpecBuilder`] constructs a spec from leaf shapes only (the pure dry-run
//! path used in tests and planted-defect suites). Every pass is linear in
//! nodes + edges, so analysing even the largest training graph is
//! sub-millisecond.

use std::collections::HashMap;
use std::fmt;

use crate::tape::OpMeta;

/// Shape and op metadata for one tape node.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// The node's (recorded or inferred) output shape; empty when unknown —
    /// downstream rules involving an unknown shape are skipped rather than
    /// cascaded.
    pub shape: Vec<usize>,
    /// Op name, parents, and attributes as recorded at push time.
    pub op: OpMeta,
}

/// A kernel-free description of an autodiff graph: one [`NodeSpec`] per tape
/// node, ids equal to vector positions (= topological order).
#[derive(Debug, Clone, Default)]
pub struct GraphSpec {
    /// Nodes in tape order.
    pub nodes: Vec<NodeSpec>,
}

/// The category of a [`Diagnostic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintKind {
    /// An op's operand shapes violate its inference rule.
    ShapeMismatch,
    /// A bound parameter leaf has no gradient path from the backward root.
    UnreachableParam,
    /// An op sink whose value never reaches the backward root.
    DetachedSubgraph,
    /// An op computed entirely from `const` leaves: same value every step.
    ConstantFoldable,
    /// A `div`/`reciprocal`/`ln`/`sqrt` whose input sign admits NaN/Inf or a
    /// silent clamp.
    NanHazard,
    /// A serial f32 accumulation chain longer than the configured threshold.
    DeepAccumulation,
    /// A model output space narrower than the data it must address (e.g. a
    /// slot head with fewer slots than the road network's max out-degree),
    /// making some targets unlearnable and some transitions undecodable.
    TruncatedOutputSpace,
}

impl fmt::Display for LintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LintKind::ShapeMismatch => "shape-mismatch",
            LintKind::UnreachableParam => "unreachable-param",
            LintKind::DetachedSubgraph => "detached-subgraph",
            LintKind::ConstantFoldable => "constant-foldable",
            LintKind::NanHazard => "nan-hazard",
            LintKind::DeepAccumulation => "deep-accumulation",
            LintKind::TruncatedOutputSpace => "truncated-output-space",
        };
        f.write_str(s)
    }
}

/// How serious a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The graph is wrong: training it would panic, silently skip a
    /// parameter, or produce meaningless numbers.
    Error,
    /// The graph works but has a latent defect (wasted compute, a clamp
    /// distorting gradients, precision loss).
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        })
    }
}

/// One analyzer finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The rule that fired.
    pub kind: LintKind,
    /// Error or warning.
    pub severity: Severity,
    /// The node the finding anchors to, if any.
    pub node: Option<usize>,
    /// Human-readable description naming the op and shapes involved.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node {
            Some(n) => write!(
                f,
                "{} [{}] at node {}: {}",
                self.severity, self.kind, n, self.message
            ),
            None => write!(f, "{} [{}]: {}", self.severity, self.kind, self.message),
        }
    }
}

/// Analyzer thresholds.
#[derive(Debug, Clone)]
pub struct AnalyzerConfig {
    /// Maximum tolerated worst-case serial f32 accumulation length before a
    /// [`LintKind::DeepAccumulation`] warning fires. With f32's 24-bit
    /// mantissa, relative error of naive summation grows like `n · 2⁻²⁴`, so
    /// the default of 10⁵ corresponds to ~0.6% worst-case relative error.
    pub accum_depth_threshold: usize,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        Self {
            accum_depth_threshold: 100_000,
        }
    }
}

/// The sign lattice of the NaN-hazard abstract interpretation:
/// `Pos ⊑ NonNeg ⊑ Unknown`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sign {
    /// Provably `> 0` everywhere.
    Pos,
    /// Provably `>= 0` everywhere.
    NonNeg,
    /// No sign information.
    Unknown,
}

impl Sign {
    fn join(self, other: Sign) -> Sign {
        use Sign::*;
        match (self, other) {
            (Pos, Pos) => Pos,
            (Unknown, _) | (_, Unknown) => Unknown,
            _ => NonNeg,
        }
    }

    fn at_least_nonneg(self) -> bool {
        matches!(self, Sign::Pos | Sign::NonNeg)
    }
}

/// Run every analysis pass over `spec`, treating `root` as the backward root
/// (the loss) and `bound` as the `(name, leaf id)` parameter bindings (see
/// [`crate::Binder::bound_params`]). Findings come back in node order within
/// each pass.
pub fn analyze(
    spec: &GraphSpec,
    root: usize,
    bound: &[(String, usize)],
    cfg: &AnalyzerConfig,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if spec.nodes.is_empty() {
        return diags;
    }
    let root = root.min(spec.nodes.len() - 1);
    let shapes = check_shapes(spec, &mut diags);
    let reachable = ancestors_of(spec, root);
    check_unreachable_params(bound, &reachable, &mut diags);
    check_detached(spec, root, &reachable, &mut diags);
    check_constant_foldable(spec, &reachable, &mut diags);
    check_nan_hazards(spec, &shapes, &mut diags);
    check_accum_depth(spec, &shapes, cfg, &mut diags);
    diags
}

// ---------------------------------------------------------------------------
// Shape inference
// ---------------------------------------------------------------------------

fn fmt_shape(s: &[usize]) -> String {
    format!("{s:?}")
}

/// Derive the output shape of `op` from its parents' shapes using the same
/// rules the kernels enforce at run time. `Err` carries the mismatch message.
/// Parents with unknown (empty) shape make the result unknown (`Ok(vec![])`)
/// instead of cascading errors.
pub fn infer_shape(op: &OpMeta, parent_shapes: &[&[usize]]) -> Result<Vec<usize>, String> {
    if op.parents.len() != parent_shapes.len() {
        return Err(format!(
            "{}: expected {} parent shapes, got {}",
            op.name,
            op.parents.len(),
            parent_shapes.len()
        ));
    }
    if parent_shapes.iter().any(|s| s.is_empty()) && !matches!(op.name, "leaf" | "const") {
        return Ok(Vec::new());
    }
    let p = parent_shapes;
    let numel = |s: &[usize]| s.iter().product::<usize>();
    match op.name {
        "leaf" | "const" => Ok(Vec::new()),
        // Elementwise binary over identical shapes.
        "add" | "sub" | "mul" | "div" => {
            if p[0] == p[1] {
                Ok(p[0].to_vec())
            } else {
                Err(format!(
                    "{}: operand shapes differ: {} vs {}",
                    op.name,
                    fmt_shape(p[0]),
                    fmt_shape(p[1])
                ))
            }
        }
        // Elementwise unary.
        "scale" | "add_scalar" | "exp" | "ln" | "sqrt" | "square" | "reciprocal" | "sigmoid"
        | "tanh" | "relu" | "leaky_relu" | "softplus" => Ok(p[0].to_vec()),
        "matmul" => {
            let (a, b) = (p[0], p[1]);
            if a.len() != 2 || b.len() != 2 {
                Err(format!(
                    "matmul: operands must be 2-D, got {} and {}",
                    fmt_shape(a),
                    fmt_shape(b)
                ))
            } else if a[1] != b[0] {
                Err(format!(
                    "matmul: inner dims differ: {} · {}",
                    fmt_shape(a),
                    fmt_shape(b)
                ))
            } else {
                Ok(vec![a[0], b[1]])
            }
        }
        "affine" => {
            let (x, w, b) = (p[0], p[1], p[2]);
            if x.len() != 2 || w.len() != 2 {
                Err(format!(
                    "affine: x and w must be 2-D, got {} and {}",
                    fmt_shape(x),
                    fmt_shape(w)
                ))
            } else if x[1] != w[0] {
                Err(format!(
                    "affine: inner dims differ: {} · {}",
                    fmt_shape(x),
                    fmt_shape(w)
                ))
            } else if numel(b) != w[1] {
                Err(format!(
                    "affine: bias {} does not match output width {}",
                    fmt_shape(b),
                    w[1]
                ))
            } else {
                Ok(vec![x[0], w[1]])
            }
        }
        "add_bias" | "mul_row_broadcast" => {
            let (a, v) = (p[0], p[1]);
            if a.len() != 2 {
                Err(format!(
                    "{}: expects a 2-D left operand, got {}",
                    op.name,
                    fmt_shape(a)
                ))
            } else if numel(v) != a[1] {
                Err(format!(
                    "{}: row vector {} does not match width of {}",
                    op.name,
                    fmt_shape(v),
                    fmt_shape(a)
                ))
            } else {
                Ok(a.to_vec())
            }
        }
        "sum_all" => Ok(vec![1]),
        "row_sum" => {
            if p[0].len() != 2 {
                Err(format!("row_sum: expects 2-D, got {}", fmt_shape(p[0])))
            } else {
                Ok(vec![p[0][0]])
            }
        }
        "reshape" => {
            let target = &op.iattrs;
            if numel(p[0]) != numel(target) {
                Err(format!(
                    "reshape: {} has {} elements, target {} has {}",
                    fmt_shape(p[0]),
                    numel(p[0]),
                    fmt_shape(target),
                    numel(target)
                ))
            } else {
                Ok(target.clone())
            }
        }
        "concat_cols" => {
            let mut total = 0;
            let n = p[0].first().copied().unwrap_or(0);
            for s in p {
                if s.len() != 2 {
                    return Err(format!(
                        "concat_cols: expects 2-D parts, got {}",
                        fmt_shape(s)
                    ));
                }
                if s[0] != n {
                    return Err(format!("concat_cols: row mismatch: {} vs {} rows", s[0], n));
                }
                total += s[1];
            }
            Ok(vec![n, total])
        }
        "slice_cols" => {
            let (start, end) = (op.iattrs[0], op.iattrs[1]);
            if p[0].len() != 2 {
                Err(format!("slice_cols: expects 2-D, got {}", fmt_shape(p[0])))
            } else if start > end || end > p[0][1] {
                Err(format!(
                    "slice_cols: range {start}..{end} out of bounds for {}",
                    fmt_shape(p[0])
                ))
            } else {
                Ok(vec![p[0][0], end - start])
            }
        }
        "gather_rows" => {
            if p[0].len() != 2 {
                Err(format!(
                    "gather_rows: expects a 2-D table, got {}",
                    fmt_shape(p[0])
                ))
            } else {
                Ok(vec![op.iattrs[0], p[0][1]])
            }
        }
        "gather_rows_blocked" => {
            let d = p[0].get(1).copied().unwrap_or(0);
            for s in p {
                if s.len() != 2 {
                    return Err(format!(
                        "gather_rows_blocked: expects 2-D blocks, got {}",
                        fmt_shape(s)
                    ));
                }
                if s[1] != d {
                    return Err(format!(
                        "gather_rows_blocked: block column mismatch: {} vs {d}",
                        s[1]
                    ));
                }
            }
            Ok(vec![op.iattrs[0], d])
        }
        "softmax_rows" | "log_softmax_rows" => {
            if p[0].len() != 2 {
                Err(format!("{}: expects 2-D, got {}", op.name, fmt_shape(p[0])))
            } else {
                Ok(p[0].to_vec())
            }
        }
        "pick_per_row" => {
            if p[0].len() != 2 {
                Err(format!(
                    "pick_per_row: expects 2-D, got {}",
                    fmt_shape(p[0])
                ))
            } else if op.iattrs[0] != p[0][0] {
                Err(format!(
                    "pick_per_row: {} indices for {} rows",
                    op.iattrs[0], p[0][0]
                ))
            } else {
                Ok(vec![p[0][0]])
            }
        }
        "mask_rows" => {
            if p[0].len() != 2 {
                Err(format!("mask_rows: expects 2-D, got {}", fmt_shape(p[0])))
            } else {
                Ok(p[0].to_vec())
            }
        }
        "conv2d" => {
            let (x, k, b) = (p[0], p[1], p[2]);
            let (stride, pad) = (op.iattrs[0], op.iattrs[1]);
            if x.len() != 4 || k.len() != 4 {
                return Err(format!(
                    "conv2d: expects NCHW input and OCKhKw kernel, got {} and {}",
                    fmt_shape(x),
                    fmt_shape(k)
                ));
            }
            if x[1] != k[1] {
                return Err(format!(
                    "conv2d: channel mismatch: input has {}, kernel expects {}",
                    x[1], k[1]
                ));
            }
            if numel(b) != k[0] {
                return Err(format!(
                    "conv2d: bias {} does not match {} output channels",
                    fmt_shape(b),
                    k[0]
                ));
            }
            if x[2] + 2 * pad < k[2] || x[3] + 2 * pad < k[3] {
                return Err(format!(
                    "conv2d: kernel {} larger than padded input {} (pad {pad})",
                    fmt_shape(k),
                    fmt_shape(x)
                ));
            }
            let oh = (x[2] + 2 * pad - k[2]) / stride + 1;
            let ow = (x[3] + 2 * pad - k[3]) / stride + 1;
            Ok(vec![x[0], k[0], oh, ow])
        }
        "avg_pool_global" => {
            if p[0].len() != 4 {
                Err(format!(
                    "avg_pool_global: expects NCHW, got {}",
                    fmt_shape(p[0])
                ))
            } else {
                Ok(vec![p[0][0], p[0][1]])
            }
        }
        "channel_mean" => {
            if p[0].len() != 4 {
                Err(format!(
                    "channel_mean: expects NCHW, got {}",
                    fmt_shape(p[0])
                ))
            } else {
                Ok(vec![p[0][1]])
            }
        }
        "channel_affine" => {
            let (x, s, b) = (p[0], p[1], p[2]);
            if x.len() != 4 {
                Err(format!(
                    "channel_affine: expects NCHW, got {}",
                    fmt_shape(x)
                ))
            } else if numel(s) != x[1] || numel(b) != x[1] {
                Err(format!(
                    "channel_affine: scale {} / shift {} do not match {} channels",
                    fmt_shape(s),
                    fmt_shape(b),
                    x[1]
                ))
            } else {
                Ok(x.to_vec())
            }
        }
        "sub_channel" | "mul_channel" => {
            let (x, v) = (p[0], p[1]);
            if x.len() != 4 {
                Err(format!("{}: expects NCHW, got {}", op.name, fmt_shape(x)))
            } else if numel(v) != x[1] {
                Err(format!(
                    "{}: vector {} does not match {} channels",
                    op.name,
                    fmt_shape(v),
                    x[1]
                ))
            } else {
                Ok(x.to_vec())
            }
        }
        // Unknown ops pass their first parent's shape through so one
        // unregistered op does not silence the rest of the graph.
        _ => Ok(p.first().map(|s| s.to_vec()).unwrap_or_default()),
    }
}

/// Re-derive every node's shape; record a [`LintKind::ShapeMismatch`] where
/// inference fails or disagrees with the recorded shape. Returns the derived
/// shapes (falling back to recorded ones) for downstream passes.
fn check_shapes(spec: &GraphSpec, diags: &mut Vec<Diagnostic>) -> Vec<Vec<usize>> {
    let mut shapes: Vec<Vec<usize>> = Vec::with_capacity(spec.nodes.len());
    for (i, node) in spec.nodes.iter().enumerate() {
        if matches!(node.op.name, "leaf" | "const") {
            shapes.push(node.shape.clone());
            continue;
        }
        let parents: Vec<&[usize]> = node.op.parents.iter().map(|&p| &shapes[p][..]).collect();
        match infer_shape(&node.op, &parents) {
            Ok(inferred) => {
                if !inferred.is_empty() && !node.shape.is_empty() && inferred != node.shape {
                    diags.push(Diagnostic {
                        kind: LintKind::ShapeMismatch,
                        severity: Severity::Error,
                        node: Some(i),
                        message: format!(
                            "{}: recorded shape {} disagrees with inferred {}",
                            node.op.name,
                            fmt_shape(&node.shape),
                            fmt_shape(&inferred)
                        ),
                    });
                    shapes.push(node.shape.clone());
                } else if inferred.is_empty() {
                    shapes.push(node.shape.clone());
                } else {
                    shapes.push(inferred);
                }
            }
            Err(msg) => {
                diags.push(Diagnostic {
                    kind: LintKind::ShapeMismatch,
                    severity: Severity::Error,
                    node: Some(i),
                    message: msg,
                });
                // Unknown from here on; dependents are skipped, not cascaded.
                shapes.push(node.shape.clone());
            }
        }
    }
    shapes
}

// ---------------------------------------------------------------------------
// Reachability
// ---------------------------------------------------------------------------

/// Mark the ancestors of `root` (including `root` itself): exactly the nodes
/// the backward sweep can deposit gradient into.
fn ancestors_of(spec: &GraphSpec, root: usize) -> Vec<bool> {
    let mut mark = vec![false; spec.nodes.len()];
    let mut stack = vec![root];
    while let Some(n) = stack.pop() {
        if mark[n] {
            continue;
        }
        mark[n] = true;
        stack.extend(spec.nodes[n].op.parents.iter().copied());
    }
    mark
}

fn check_unreachable_params(
    bound: &[(String, usize)],
    reachable: &[bool],
    diags: &mut Vec<Diagnostic>,
) {
    for (name, id) in bound {
        if *id >= reachable.len() || !reachable[*id] {
            diags.push(Diagnostic {
                kind: LintKind::UnreachableParam,
                severity: Severity::Error,
                node: Some(*id),
                message: format!(
                    "parameter '{name}' is bound to the tape but has no gradient \
                     path from the loss: it will never be updated"
                ),
            });
        }
    }
}

fn check_detached(spec: &GraphSpec, root: usize, reachable: &[bool], diags: &mut Vec<Diagnostic>) {
    // A node is a sink if nothing consumes it. Report detached *op* sinks
    // only — each is the root of one dead subgraph, so one finding per
    // subgraph rather than one per node.
    let mut consumed = vec![false; spec.nodes.len()];
    for node in &spec.nodes {
        for &p in &node.op.parents {
            consumed[p] = true;
        }
    }
    for (i, node) in spec.nodes.iter().enumerate() {
        if i != root && !consumed[i] && !reachable[i] && !matches!(node.op.name, "leaf" | "const") {
            diags.push(Diagnostic {
                kind: LintKind::DetachedSubgraph,
                severity: Severity::Warning,
                node: Some(i),
                message: format!(
                    "{}: result (and the subgraph feeding it) never reaches the \
                     loss; it is computed, then dropped",
                    node.op.name
                ),
            });
        }
    }
}

fn check_constant_foldable(spec: &GraphSpec, reachable: &[bool], diags: &mut Vec<Diagnostic>) {
    // An op is const-only if no `leaf` occurs among its transitive inputs.
    // Report maximal const-only ops (those with a non-const consumer, or no
    // consumer at all) that contribute to the loss — recomputing them every
    // step is pure waste.
    let n = spec.nodes.len();
    let mut const_only = vec![false; n];
    for (i, node) in spec.nodes.iter().enumerate() {
        const_only[i] = match node.op.name {
            "leaf" => false,
            "const" => true,
            _ => !node.op.parents.is_empty() && node.op.parents.iter().all(|&p| const_only[p]),
        };
    }
    let mut has_const_consumer = vec![false; n];
    for (i, node) in spec.nodes.iter().enumerate() {
        if const_only[i] {
            for &p in &node.op.parents {
                has_const_consumer[p] = true;
            }
        }
    }
    for (i, node) in spec.nodes.iter().enumerate() {
        if const_only[i]
            && !has_const_consumer[i]
            && reachable[i]
            && !matches!(node.op.name, "const")
        {
            diags.push(Diagnostic {
                kind: LintKind::ConstantFoldable,
                severity: Severity::Warning,
                node: Some(i),
                message: format!(
                    "{}: computed entirely from constants — same value every \
                     step; fold it at construction time",
                    node.op.name
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// NaN hazards (sign abstract interpretation)
// ---------------------------------------------------------------------------

fn sign_of(spec: &GraphSpec, signs: &[Sign], node: &NodeSpec) -> Sign {
    use Sign::*;
    let p = |i: usize| signs[node.op.parents[i]];
    let _ = spec;
    match node.op.name {
        // Strictly positive ranges.
        "exp" | "sigmoid" | "softplus" | "softmax_rows" => Pos,
        // Non-negative ranges (sqrt clamps its input to 0).
        "square" | "relu" => NonNeg,
        "sqrt" => match p(0) {
            Pos => Pos,
            _ => NonNeg,
        },
        "add" => match (p(0), p(1)) {
            (Pos, s) | (s, Pos) if s.at_least_nonneg() => Pos,
            (NonNeg, NonNeg) => NonNeg,
            _ => Unknown,
        },
        "mul" | "mul_channel" | "mul_row_broadcast" => match (p(0), p(1)) {
            (Pos, Pos) => Pos,
            (a, b) if a.at_least_nonneg() && b.at_least_nonneg() => NonNeg,
            _ => Unknown,
        },
        "div" => match (p(0), p(1)) {
            (Pos, Pos) => Pos,
            (NonNeg, Pos) => NonNeg,
            _ => Unknown,
        },
        "reciprocal" => match p(0) {
            Pos => Pos,
            _ => Unknown,
        },
        "scale" => {
            let s = node.op.sattrs[0];
            if s > 0.0 {
                p(0)
            // st-lint: allow(float-eq) — exact scalar recorded on the tape
            } else if s == 0.0 {
                NonNeg
            } else {
                Unknown
            }
        }
        "add_scalar" => {
            let c = node.op.sattrs[0];
            if c > 0.0 && p(0).at_least_nonneg() {
                Pos
            // st-lint: allow(float-eq) — exact scalar recorded on the tape
            } else if c == 0.0 {
                p(0)
            } else {
                // A positive shift of an unknown operand (or any negative
                // shift) proves nothing.
                Unknown
            }
        }
        // leaky_relu is the identity on non-negative inputs, whatever the
        // slope, so it preserves Pos/NonNeg.
        "leaky_relu" => match p(0) {
            Pos => Pos,
            NonNeg => NonNeg,
            _ => Unknown,
        },
        // Sign-preserving reductions and data movement (sums of ≥1 term,
        // row/element selection, averaging).
        "sum_all" | "row_sum" | "reshape" | "gather_rows" | "pick_per_row" | "slice_cols"
        | "avg_pool_global" | "channel_mean" => p(0),
        "matmul" => match (p(0), p(1)) {
            (Pos, Pos) => Pos,
            (a, b) if a.at_least_nonneg() && b.at_least_nonneg() => NonNeg,
            _ => Unknown,
        },
        // row selections across several operands preserve the joined sign
        "concat_cols" | "gather_rows_blocked" => node
            .op
            .parents
            .iter()
            .map(|&i| signs[i])
            .fold(Pos, Sign::join),
        // mask weights, biases, affine shifts, convolutions: unconstrained.
        _ => Unknown,
    }
}

fn check_nan_hazards(spec: &GraphSpec, shapes: &[Vec<usize>], diags: &mut Vec<Diagnostic>) {
    let _ = shapes;
    let mut signs: Vec<Sign> = Vec::with_capacity(spec.nodes.len());
    for node in &spec.nodes {
        signs.push(sign_of(spec, &signs, node));
    }
    for (i, node) in spec.nodes.iter().enumerate() {
        let p = |k: usize| signs[node.op.parents[k]];
        match node.op.name {
            "div" if p(1) != Sign::Pos => diags.push(Diagnostic {
                kind: LintKind::NanHazard,
                severity: Severity::Warning,
                node: Some(i),
                message: format!(
                    "div: denominator is not provably positive (sign: {:?}); a \
                     zero produces Inf/NaN that poisons the whole backward pass \
                     — clamp it, e.g. add_scalar(softplus(x), eps)",
                    p(1)
                ),
            }),
            "reciprocal" if p(0) != Sign::Pos => diags.push(Diagnostic {
                kind: LintKind::NanHazard,
                severity: Severity::Warning,
                node: Some(i),
                message: format!(
                    "reciprocal: input is not provably positive (sign: {:?}); a \
                     zero produces Inf that poisons the whole backward pass",
                    p(0)
                ),
            }),
            "ln" if p(0) != Sign::Pos => diags.push(Diagnostic {
                kind: LintKind::NanHazard,
                severity: Severity::Warning,
                node: Some(i),
                message: format!(
                    "ln: input is not provably positive (sign: {:?}); the engine \
                     clamps to 1e-12, silently flattening gradients wherever the \
                     clamp is active",
                    p(0)
                ),
            }),
            "sqrt" if !p(0).at_least_nonneg() => diags.push(Diagnostic {
                kind: LintKind::NanHazard,
                severity: Severity::Warning,
                node: Some(i),
                message: "sqrt: input may be negative; the engine clamps to 0, \
                          silently zeroing the value and its gradient there"
                    .to_string(),
            }),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Accumulation depth
// ---------------------------------------------------------------------------

fn check_accum_depth(
    spec: &GraphSpec,
    shapes: &[Vec<usize>],
    cfg: &AnalyzerConfig,
    diags: &mut Vec<Diagnostic>,
) {
    // Worst-case length of the serial f32 accumulation chain ending at each
    // node: reductions add the number of terms they fold, elementwise adds
    // contribute one term, everything else passes the max through.
    let numel = |i: usize| shapes[i].iter().product::<usize>().max(1);
    let mut depth: Vec<usize> = Vec::with_capacity(spec.nodes.len());
    for node in &spec.nodes {
        let pmax = node.op.parents.iter().map(|&p| depth[p]).max().unwrap_or(0);
        let d = match node.op.name {
            "leaf" | "const" => 1,
            "add" | "sub" => pmax + 1,
            "sum_all" => pmax + numel(node.op.parents[0]),
            "row_sum" => pmax + shapes[node.op.parents[0]].get(1).copied().unwrap_or(1),
            "matmul" => pmax + shapes[node.op.parents[0]].get(1).copied().unwrap_or(1),
            "affine" => pmax + shapes[node.op.parents[1]].first().copied().unwrap_or(1) + 1,
            "conv2d" => {
                let k = &shapes[node.op.parents[1]];
                pmax + k.iter().skip(1).product::<usize>().max(1)
            }
            "avg_pool_global" => {
                let x = &shapes[node.op.parents[0]];
                pmax + x.iter().skip(2).product::<usize>().max(1)
            }
            "channel_mean" => {
                let x = &shapes[node.op.parents[0]];
                pmax + (x.first().copied().unwrap_or(1) * x.iter().skip(2).product::<usize>())
                    .max(1)
            }
            _ => pmax,
        };
        depth.push(d);
    }
    for (i, node) in spec.nodes.iter().enumerate() {
        let pmax = node.op.parents.iter().map(|&p| depth[p]).max().unwrap_or(0);
        // Report the node that crosses the threshold, not every descendant.
        if depth[i] > cfg.accum_depth_threshold && pmax <= cfg.accum_depth_threshold {
            diags.push(Diagnostic {
                kind: LintKind::DeepAccumulation,
                severity: Severity::Warning,
                node: Some(i),
                message: format!(
                    "{}: worst-case serial f32 accumulation length {} exceeds \
                     {} — rounding error grows linearly; consider pairwise or \
                     f64 accumulation",
                    node.op.name, depth[i], cfg.accum_depth_threshold
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// SpecBuilder: dry-run graphs from shapes alone
// ---------------------------------------------------------------------------

/// Builds a [`GraphSpec`] from leaf shapes only, deriving every op's shape by
/// [`infer_shape`] — a shape dry-run that never allocates an array or runs a
/// kernel. Ops whose inference fails get an unknown shape; [`analyze`]
/// reports the failure at that node.
#[derive(Debug, Default)]
pub struct SpecBuilder {
    nodes: Vec<NodeSpec>,
    named: HashMap<String, usize>,
}

impl SpecBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a trainable-input leaf of the given shape.
    pub fn leaf(&mut self, shape: &[usize]) -> usize {
        self.push_node(shape.to_vec(), OpMeta::leaf())
    }

    /// Add a trainable-input leaf registered under a parameter name, so the
    /// builder can double as the binding list for [`analyze`].
    pub fn param(&mut self, name: &str, shape: &[usize]) -> usize {
        let id = self.leaf(shape);
        self.named.insert(name.to_string(), id);
        id
    }

    /// Add a constant leaf of the given shape.
    pub fn constant(&mut self, shape: &[usize]) -> usize {
        self.push_node(shape.to_vec(), OpMeta::constant())
    }

    /// Add an op node; its shape is derived from its parents, or unknown if
    /// derivation fails (the failure resurfaces as a diagnostic in
    /// [`analyze`]).
    pub fn op(&mut self, meta: OpMeta) -> usize {
        let parents: Vec<&[usize]> = meta
            .parents
            .iter()
            .map(|&p| &self.nodes[p].shape[..])
            .collect();
        let shape = infer_shape(&meta, &parents).unwrap_or_default();
        self.push_node(shape, meta)
    }

    /// The `(name, id)` bindings registered via [`SpecBuilder::param`].
    pub fn bindings(&self) -> Vec<(String, usize)> {
        let mut v: Vec<(String, usize)> = self.named.iter().map(|(n, &i)| (n.clone(), i)).collect();
        v.sort_by_key(|(_, i)| *i);
        v
    }

    /// The derived shape of a node (empty if unknown).
    pub fn shape(&self, id: usize) -> &[usize] {
        &self.nodes[id].shape
    }

    /// Finish building.
    pub fn finish(self) -> GraphSpec {
        GraphSpec { nodes: self.nodes }
    }

    fn push_node(&mut self, shape: Vec<usize>, op: OpMeta) -> usize {
        let id = self.nodes.len();
        self.nodes.push(NodeSpec { shape, op });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::tape::Tape;
    use crate::Array;

    fn kinds(diags: &[Diagnostic]) -> Vec<LintKind> {
        diags.iter().map(|d| d.kind).collect()
    }

    fn meta(name: &'static str, parents: Vec<usize>) -> OpMeta {
        OpMeta::new(name, parents)
    }

    #[test]
    fn clean_linear_graph_is_clean() {
        let mut b = SpecBuilder::new();
        let x = b.leaf(&[8, 4]);
        let w = b.param("w", &[4, 3]);
        let bias = b.param("b", &[3]);
        let y = b.op(meta("affine", vec![x, w, bias]));
        let sq = b.op(meta("square", vec![y]));
        let loss = b.op(meta("sum_all", vec![sq]));
        let bindings = b.bindings();
        let spec = b.finish();
        let diags = analyze(&spec, loss, &bindings, &AnalyzerConfig::default());
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn detects_matmul_shape_mismatch() {
        let mut b = SpecBuilder::new();
        let x = b.leaf(&[8, 4]);
        let w = b.leaf(&[5, 3]); // planted: inner dims 4 vs 5
        let y = b.op(meta("matmul", vec![x, w]));
        let loss = b.op(meta("sum_all", vec![y]));
        let spec = b.finish();
        let diags = analyze(&spec, loss, &[], &AnalyzerConfig::default());
        assert!(
            kinds(&diags).contains(&LintKind::ShapeMismatch),
            "{diags:?}"
        );
        let d = diags
            .iter()
            .find(|d| d.kind == LintKind::ShapeMismatch)
            .expect("shape diag");
        assert_eq!(d.node, Some(2));
        assert!(d.message.contains("inner dims"), "{}", d.message);
    }

    #[test]
    fn shape_error_does_not_cascade() {
        let mut b = SpecBuilder::new();
        let x = b.leaf(&[8, 4]);
        let w = b.leaf(&[5, 3]);
        let y = b.op(meta("matmul", vec![x, w])); // fails; shape unknown
        let z = b.op(meta("relu", vec![y])); // depends on unknown: skipped
        let loss = b.op(meta("sum_all", vec![z]));
        let spec = b.finish();
        let diags = analyze(&spec, loss, &[], &AnalyzerConfig::default());
        let shape_errs: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == LintKind::ShapeMismatch)
            .collect();
        assert_eq!(shape_errs.len(), 1, "{diags:?}");
    }

    #[test]
    fn detects_unreachable_param() {
        let mut b = SpecBuilder::new();
        let x = b.leaf(&[4, 4]);
        let w = b.param("model.w", &[4, 4]);
        let _orphan = b.param("model.orphan", &[4, 4]); // planted: never used
        let y = b.op(meta("matmul", vec![x, w]));
        let loss = b.op(meta("sum_all", vec![y]));
        let bindings = b.bindings();
        let spec = b.finish();
        let diags = analyze(&spec, loss, &bindings, &AnalyzerConfig::default());
        let ur: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == LintKind::UnreachableParam)
            .collect();
        assert_eq!(ur.len(), 1, "{diags:?}");
        assert!(ur[0].message.contains("model.orphan"));
        assert_eq!(ur[0].severity, Severity::Error);
    }

    #[test]
    fn detects_detached_subgraph() {
        let mut b = SpecBuilder::new();
        let x = b.leaf(&[4, 4]);
        let w = b.param("w", &[4, 4]);
        let y = b.op(meta("matmul", vec![x, w]));
        let loss = b.op(meta("sum_all", vec![y]));
        // planted: a side computation whose result is dropped
        let dead1 = b.op(meta("relu", vec![y]));
        let _dead2 = b.op(meta("sum_all", vec![dead1]));
        let bindings = b.bindings();
        let spec = b.finish();
        let diags = analyze(&spec, loss, &bindings, &AnalyzerConfig::default());
        let det: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == LintKind::DetachedSubgraph)
            .collect();
        // Only the sink is reported, not every dead node.
        assert_eq!(det.len(), 1, "{diags:?}");
        assert_eq!(det[0].node, Some(5));
    }

    #[test]
    fn detects_constant_foldable() {
        let mut b = SpecBuilder::new();
        let x = b.leaf(&[4, 4]);
        let c1 = b.constant(&[4, 4]);
        let c2 = b.op(meta("square", vec![c1])); // planted: const-only chain
        let y = b.op(meta("add", vec![x, c2]));
        let loss = b.op(meta("sum_all", vec![y]));
        let spec = b.finish();
        let diags = analyze(&spec, loss, &[], &AnalyzerConfig::default());
        let cf: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == LintKind::ConstantFoldable)
            .collect();
        assert_eq!(cf.len(), 1, "{diags:?}");
        assert_eq!(cf[0].node, Some(2));
    }

    #[test]
    fn detects_unclamped_div_and_ln() {
        let mut b = SpecBuilder::new();
        let x = b.leaf(&[4, 4]);
        let y = b.leaf(&[4, 4]);
        let q = b.op(meta("div", vec![x, y])); // planted: unknown denominator
        let l = b.op(meta("ln", vec![q])); // planted: unknown ln input
        let loss = b.op(meta("sum_all", vec![l]));
        let spec = b.finish();
        let diags = analyze(&spec, loss, &[], &AnalyzerConfig::default());
        let nan: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == LintKind::NanHazard)
            .collect();
        assert_eq!(nan.len(), 2, "{diags:?}");
    }

    #[test]
    fn sign_lattice_clears_clamped_patterns() {
        // The ELBO's variance pattern: add_scalar(softplus(x), eps) is
        // provably positive, so ln/div over it must NOT fire.
        let mut b = SpecBuilder::new();
        let x = b.leaf(&[4, 2]);
        let sp = b.op(meta("softplus", vec![x]));
        let var = b.op(meta("add_scalar", vec![sp]).with_sattrs(vec![1e-4]));
        let num = b.op(meta("square", vec![x]));
        let q = b.op(meta("div", vec![num, var]));
        let lnv = b.op(meta("ln", vec![var]));
        let s = b.op(meta("add", vec![q, lnv]));
        let loss = b.op(meta("sum_all", vec![s]));
        let spec = b.finish();
        let diags = analyze(&spec, loss, &[], &AnalyzerConfig::default());
        assert!(
            !kinds(&diags).contains(&LintKind::NanHazard),
            "false positive: {diags:?}"
        );
    }

    #[test]
    fn sign_lattice_clears_batchnorm_pattern() {
        // BatchNorm denominator: reciprocal(sqrt(add_scalar(channel_mean(
        // square(xc)), eps))) — provably positive end to end.
        let mut b = SpecBuilder::new();
        let xc = b.leaf(&[2, 3, 4, 4]);
        let sq = b.op(meta("square", vec![xc]));
        let cm = b.op(meta("channel_mean", vec![sq]));
        let veps = b.op(meta("add_scalar", vec![cm]).with_sattrs(vec![1e-5]));
        let sd = b.op(meta("sqrt", vec![veps]));
        let inv = b.op(meta("reciprocal", vec![sd]));
        let scaled = b.op(meta("mul_channel", vec![xc, inv]));
        let pool = b.op(meta("avg_pool_global", vec![scaled]));
        let loss = b.op(meta("sum_all", vec![pool]));
        let spec = b.finish();
        let diags = analyze(&spec, loss, &[], &AnalyzerConfig::default());
        assert!(
            !kinds(&diags).contains(&LintKind::NanHazard),
            "false positive: {diags:?}"
        );
    }

    #[test]
    fn detects_deep_accumulation() {
        let mut b = SpecBuilder::new();
        let x = b.leaf(&[1, 200_000]); // planted: 200k-term serial sum
        let loss = b.op(meta("sum_all", vec![x]));
        let spec = b.finish();
        let diags = analyze(&spec, loss, &[], &AnalyzerConfig::default());
        let deep: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == LintKind::DeepAccumulation)
            .collect();
        assert_eq!(deep.len(), 1, "{diags:?}");
        assert_eq!(deep[0].node, Some(1));
    }

    #[test]
    fn export_spec_matches_live_tape() {
        // A real tape exports a spec whose analysis is clean, and whose
        // recorded shapes agree with the analyzer's inference everywhere.
        let tape = Tape::new();
        let x = tape.leaf(Array::ones(&[3, 4]));
        let w = tape.leaf(Array::ones(&[4, 2]));
        let b = tape.leaf(Array::ones(&[2]));
        let h = ops::affine(x, w, b);
        let s = ops::softmax_rows(h);
        let l = ops::ln(s);
        let loss = ops::sum_all(l);
        let spec = tape.export_spec();
        assert_eq!(spec.nodes.len(), 7);
        let diags = analyze(
            &spec,
            loss.id(),
            &[("w".into(), w.id()), ("b".into(), b.id())],
            &AnalyzerConfig::default(),
        );
        assert!(diags.is_empty(), "unexpected: {diags:?}");
        assert_eq!(spec.nodes[h.id()].op.name, "affine");
        assert_eq!(spec.nodes[h.id()].shape, vec![3, 2]);
    }

    #[test]
    fn analysis_is_fast_on_large_graphs() {
        // 100k-node chain analysed in well under a second (acceptance: the
        // full pre-train analysis of the largest config < 1 s).
        let mut b = SpecBuilder::new();
        let mut cur = b.leaf(&[64, 64]);
        for _ in 0..100_000 {
            cur = b.op(meta("relu", vec![cur]));
        }
        let loss = b.op(meta("sum_all", vec![cur]));
        let spec = b.finish();
        let t0 = std::time::Instant::now();
        let diags = analyze(&spec, loss, &[], &AnalyzerConfig::default());
        assert!(diags.is_empty(), "{diags:?}");
        assert!(
            t0.elapsed().as_millis() < 1000,
            "analysis took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn diagnostic_display_is_informative() {
        let d = Diagnostic {
            kind: LintKind::NanHazard,
            severity: Severity::Warning,
            node: Some(7),
            message: "div by maybe-zero".into(),
        };
        let s = d.to_string();
        assert!(s.contains("warning"), "{s}");
        assert!(s.contains("nan-hazard"), "{s}");
        assert!(s.contains("node 7"), "{s}");
    }
}
