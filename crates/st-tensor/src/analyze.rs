//! Static analysis of autodiff graphs: gradient-flow audits and hazard
//! scans over a recorded tape, without executing kernels.
//!
//! The analyzer consumes a [`GraphSpec`] — per-node shapes plus the
//! [`OpMeta`] each op records when it is pushed onto a [`crate::Tape`] — and
//! reports typed [`Diagnostic`]s:
//!
//! - **unreachable parameters**: bound leaves with no gradient path from the
//!   backward root;
//! - **detached subgraphs**: op sinks whose results never reach the root;
//! - **constant-foldable ops**: subgraphs rooted only in `const` leaves,
//!   recomputed every step for the same value;
//! - **NaN hazards**: `div`/`reciprocal` whose denominator is not provably
//!   positive, and `ln`/`sqrt` over possibly-negative inputs, found by a
//!   sign abstract interpretation (see [`Sign`]);
//! - **deep f32 accumulations**: reduction chains whose worst-case serial
//!   accumulation length exceeds 100 000 terms, where f32 rounding error
//!   grows linearly.
//!
//! The shapes are the ones the tape recorded. Every op in [`crate::ops`] and
//! [`crate::conv`] refuses mis-shaped operands when it records, so each
//! shape rule is defined once, in the op that enforces it, and a recorded
//! graph is well-shaped by construction. Specs come from
//! [`crate::Tape::export_spec`], which snapshots a live tape (the trainer
//! runs it before epoch 0). Every pass is linear in nodes + edges, so
//! analysing even the largest training graph is sub-millisecond.

use std::fmt;

use crate::tape::OpMeta;

/// Shape and op metadata for one tape node.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// The node's output shape, as its op recorded it.
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
    /// A bound parameter leaf has no gradient path from the backward root.
    UnreachableParam,
    /// An op sink whose value never reaches the backward root.
    DetachedSubgraph,
    /// An op computed entirely from `const` leaves: same value every step.
    ConstantFoldable,
    /// A `div`/`reciprocal`/`ln`/`sqrt` whose input sign admits NaN/Inf or a
    /// silent clamp.
    NanHazard,
    /// A serial f32 accumulation chain longer than 100 000 terms.
    DeepAccumulation,
    /// A model output space narrower than the data it must address (e.g. a
    /// slot head with fewer slots than the road network's max out-degree),
    /// making some targets unlearnable and some transitions undecodable.
    TruncatedOutputSpace,
}

impl fmt::Display for LintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
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
    /// The graph is wrong: training it would silently skip a parameter or
    /// produce meaningless numbers.
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
    /// Human-readable description naming the op involved.
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

/// The worst-case serial f32 accumulation length above which a
/// [`LintKind::DeepAccumulation`] warning fires. With f32's 24-bit mantissa,
/// relative error of naive summation grows like `n · 2⁻²⁴`, so 10⁵ terms
/// correspond to ~0.6% worst-case relative error.
const ACCUM_DEPTH_THRESHOLD: usize = 100_000;

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
///
/// # Panics
///
/// If `root` is not a node of `spec` (a stale id, or an empty spec): the
/// audit would otherwise describe some other subgraph.
pub fn analyze(spec: &GraphSpec, root: usize, bound: &[(String, usize)]) -> Vec<Diagnostic> {
    assert!(
        root < spec.nodes.len(),
        "analyze: root {root} is not a node of this {}-node graph",
        spec.nodes.len()
    );
    let mut diags = Vec::new();
    let reachable = ancestors_of(spec, root);
    check_unreachable_params(bound, &reachable, &mut diags);
    check_detached(spec, root, &reachable, &mut diags);
    check_constant_foldable(spec, &reachable, &mut diags);
    check_nan_hazards(spec, &mut diags);
    check_accum_depth(spec, &mut diags);
    diags
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

fn sign_of(signs: &[Sign], node: &NodeSpec) -> Sign {
    use Sign::*;
    let p = |i: usize| signs[node.op.parents[i]];
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
        "mul" | "mul_channel" => match (p(0), p(1)) {
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
        "gather_rows_blocked" => node
            .op
            .parents
            .iter()
            .map(|&i| signs[i])
            .fold(Pos, Sign::join),
        // mask weights, biases, affine shifts, convolutions, GRU steps:
        // unconstrained.
        _ => Unknown,
    }
}

fn check_nan_hazards(spec: &GraphSpec, diags: &mut Vec<Diagnostic>) {
    let mut signs: Vec<Sign> = Vec::with_capacity(spec.nodes.len());
    for node in &spec.nodes {
        signs.push(sign_of(&signs, node));
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

fn check_accum_depth(spec: &GraphSpec, diags: &mut Vec<Diagnostic>) {
    // Worst-case length of the serial f32 accumulation chain ending at each
    // node: reductions add the number of terms they fold, elementwise adds
    // contribute one term, everything else passes the max through.
    let shape = |i: usize| &spec.nodes[i].shape;
    let numel = |i: usize| shape(i).iter().product::<usize>().max(1);
    let mut depth: Vec<usize> = Vec::with_capacity(spec.nodes.len());
    for node in &spec.nodes {
        let pmax = node.op.parents.iter().map(|&p| depth[p]).max().unwrap_or(0);
        let d = match node.op.name {
            "leaf" | "const" => 1,
            "add" | "sub" => pmax + 1,
            "sum_all" => pmax + numel(node.op.parents[0]),
            "row_sum" => pmax + shape(node.op.parents[0]).get(1).copied().unwrap_or(1),
            "matmul" => pmax + shape(node.op.parents[0]).get(1).copied().unwrap_or(1),
            "affine" => pmax + shape(node.op.parents[1]).first().copied().unwrap_or(1) + 1,
            // The composed gate graph's depth: `affine(x, Wx, b)` and
            // `h·Wh`, then four adds or subs on the longer path.
            "gru_step" => {
                // Parents: x, h, Wx, Wh, b.
                let p = &node.op.parents;
                let rows = |i: usize| shape(i).first().copied().unwrap_or(1);
                let gx = depth[p[0]].max(depth[p[2]]).max(depth[p[4]]) + rows(p[2]) + 1;
                let gh = depth[p[1]].max(depth[p[3]]) + rows(p[3]);
                gx.max(gh) + 4
            }
            "conv2d" => {
                let k = shape(node.op.parents[1]);
                pmax + k.iter().skip(1).product::<usize>().max(1)
            }
            "avg_pool_global" => {
                let x = shape(node.op.parents[0]);
                pmax + x.iter().skip(2).product::<usize>().max(1)
            }
            "channel_mean" => {
                let x = shape(node.op.parents[0]);
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
        if depth[i] > ACCUM_DEPTH_THRESHOLD && pmax <= ACCUM_DEPTH_THRESHOLD {
            diags.push(Diagnostic {
                kind: LintKind::DeepAccumulation,
                severity: Severity::Warning,
                node: Some(i),
                message: format!(
                    "{}: worst-case serial f32 accumulation length {} exceeds \
                     {} — rounding error grows linearly; consider pairwise or \
                     f64 accumulation",
                    node.op.name, depth[i], ACCUM_DEPTH_THRESHOLD
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::tape::Tape;
    use crate::Array;

    #[test]
    #[should_panic(expected = "analyze: root 3 is not a node of this 3-node graph")]
    fn out_of_range_root_is_refused() {
        let mut b = Spec::default();
        let x = b.leaf(&[2]);
        let y = b.op("square", vec![x], &[2]);
        b.op("sum_all", vec![y], &[1]);
        analyze(&b.finish(), 3, &[]);
    }

    #[test]
    #[should_panic(expected = "analyze: root 0 is not a node of this 0-node graph")]
    fn empty_spec_is_refused() {
        analyze(&GraphSpec::default(), 0, &[]);
    }

    fn kinds(diags: &[Diagnostic]) -> Vec<LintKind> {
        diags.iter().map(|d| d.kind).collect()
    }

    /// A hand-written spec: each node carries the shape written here, and
    /// nothing is inferred.
    #[derive(Default)]
    struct Spec(Vec<NodeSpec>);

    impl Spec {
        fn push(&mut self, shape: &[usize], op: OpMeta) -> usize {
            self.0.push(NodeSpec {
                shape: shape.to_vec(),
                op,
            });
            self.0.len() - 1
        }

        fn leaf(&mut self, shape: &[usize]) -> usize {
            self.push(shape, OpMeta::leaf())
        }

        fn op(&mut self, name: &'static str, parents: Vec<usize>, shape: &[usize]) -> usize {
            self.push(shape, OpMeta::new(name, parents))
        }

        fn finish(self) -> GraphSpec {
            GraphSpec { nodes: self.0 }
        }
    }

    fn bind(params: &[(&str, usize)]) -> Vec<(String, usize)> {
        params.iter().map(|&(n, i)| (n.to_string(), i)).collect()
    }

    #[test]
    fn clean_linear_graph_is_clean() {
        let mut b = Spec::default();
        let x = b.leaf(&[8, 4]);
        let w = b.leaf(&[4, 3]);
        let bias = b.leaf(&[3]);
        let y = b.op("affine", vec![x, w, bias], &[8, 3]);
        let sq = b.op("square", vec![y], &[8, 3]);
        let loss = b.op("sum_all", vec![sq], &[1]);
        let spec = b.finish();
        let diags = analyze(&spec, loss, &bind(&[("w", w), ("b", bias)]));
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn detects_unreachable_param() {
        let mut b = Spec::default();
        let x = b.leaf(&[4, 4]);
        let w = b.leaf(&[4, 4]);
        let orphan = b.leaf(&[4, 4]); // planted: never used
        let y = b.op("matmul", vec![x, w], &[4, 4]);
        let loss = b.op("sum_all", vec![y], &[1]);
        let bound = bind(&[("model.w", w), ("model.orphan", orphan)]);
        let spec = b.finish();
        let diags = analyze(&spec, loss, &bound);
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
        let mut b = Spec::default();
        let x = b.leaf(&[4, 4]);
        let w = b.leaf(&[4, 4]);
        let y = b.op("matmul", vec![x, w], &[4, 4]);
        let loss = b.op("sum_all", vec![y], &[1]);
        // planted: a side computation whose result is dropped
        let dead1 = b.op("relu", vec![y], &[4, 4]);
        let _dead2 = b.op("sum_all", vec![dead1], &[1]);
        let spec = b.finish();
        let diags = analyze(&spec, loss, &bind(&[("w", w)]));
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
        let mut b = Spec::default();
        let x = b.leaf(&[4, 4]);
        let c1 = b.push(&[4, 4], OpMeta::constant());
        let c2 = b.op("square", vec![c1], &[4, 4]); // planted: const-only chain
        let y = b.op("add", vec![x, c2], &[4, 4]);
        let loss = b.op("sum_all", vec![y], &[1]);
        let spec = b.finish();
        let diags = analyze(&spec, loss, &[]);
        let cf: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == LintKind::ConstantFoldable)
            .collect();
        assert_eq!(cf.len(), 1, "{diags:?}");
        assert_eq!(cf[0].node, Some(2));
    }

    #[test]
    fn detects_unclamped_div_and_ln() {
        let mut b = Spec::default();
        let x = b.leaf(&[4, 4]);
        let y = b.leaf(&[4, 4]);
        let q = b.op("div", vec![x, y], &[4, 4]); // planted: unknown denominator
        let l = b.op("ln", vec![q], &[4, 4]); // planted: unknown ln input
        let loss = b.op("sum_all", vec![l], &[1]);
        let spec = b.finish();
        let diags = analyze(&spec, loss, &[]);
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
        let mut b = Spec::default();
        let x = b.leaf(&[4, 2]);
        let sp = b.op("softplus", vec![x], &[4, 2]);
        let var = b.push(
            &[4, 2],
            OpMeta::new("add_scalar", vec![sp]).with_sattrs(vec![1e-4]),
        );
        let num = b.op("square", vec![x], &[4, 2]);
        let q = b.op("div", vec![num, var], &[4, 2]);
        let lnv = b.op("ln", vec![var], &[4, 2]);
        let s = b.op("add", vec![q, lnv], &[4, 2]);
        let loss = b.op("sum_all", vec![s], &[1]);
        let spec = b.finish();
        let diags = analyze(&spec, loss, &[]);
        assert!(
            !kinds(&diags).contains(&LintKind::NanHazard),
            "false positive: {diags:?}"
        );
    }

    #[test]
    fn sign_lattice_clears_batchnorm_pattern() {
        // BatchNorm denominator: reciprocal(sqrt(add_scalar(channel_mean(
        // square(xc)), eps))) — provably positive end to end.
        let mut b = Spec::default();
        let xc = b.leaf(&[2, 3, 4, 4]);
        let sq = b.op("square", vec![xc], &[2, 3, 4, 4]);
        let cm = b.op("channel_mean", vec![sq], &[3]);
        let veps = b.push(
            &[3],
            OpMeta::new("add_scalar", vec![cm]).with_sattrs(vec![1e-5]),
        );
        let sd = b.op("sqrt", vec![veps], &[3]);
        let inv = b.op("reciprocal", vec![sd], &[3]);
        let scaled = b.op("mul_channel", vec![xc, inv], &[2, 3, 4, 4]);
        let pool = b.op("avg_pool_global", vec![scaled], &[2, 3]);
        let loss = b.op("sum_all", vec![pool], &[1]);
        let spec = b.finish();
        let diags = analyze(&spec, loss, &[]);
        assert!(
            !kinds(&diags).contains(&LintKind::NanHazard),
            "false positive: {diags:?}"
        );
    }

    #[test]
    fn detects_deep_accumulation() {
        let mut b = Spec::default();
        let x = b.leaf(&[1, 200_000]); // planted: 200k-term serial sum
        let loss = b.op("sum_all", vec![x], &[1]);
        let spec = b.finish();
        let diags = analyze(&spec, loss, &[]);
        let deep: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == LintKind::DeepAccumulation)
            .collect();
        assert_eq!(deep.len(), 1, "{diags:?}");
        assert_eq!(deep[0].node, Some(1));
    }

    #[test]
    fn export_spec_matches_live_tape() {
        // A real tape exports a spec whose analysis is clean, and which
        // carries each node's op and recorded shape.
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
        );
        assert!(diags.is_empty(), "unexpected: {diags:?}");
        assert_eq!(spec.nodes[h.id()].op.name, "affine");
        assert_eq!(spec.nodes[h.id()].shape, vec![3, 2]);
    }

    #[test]
    fn analysis_is_fast_on_large_graphs() {
        // 100k-node chain analysed in well under a second (acceptance: the
        // full pre-train analysis of the largest config < 1 s).
        let mut b = Spec::default();
        let mut cur = b.leaf(&[64, 64]);
        for _ in 0..100_000 {
            cur = b.op("relu", vec![cur], &[64, 64]);
        }
        let loss = b.op("sum_all", vec![cur], &[1]);
        let spec = b.finish();
        let t0 = std::time::Instant::now();
        let diags = analyze(&spec, loss, &[]);
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
