//! Module-level entry point to the [`st_tensor::analyze`](mod@st_tensor::analyze)
//! graph analyzer.
//!
//! [`st_tensor::analyze()`] checks the graph that was actually recorded on a
//! tape; it can only see parameters that were bound. This wrapper adds the
//! module's-eye view: a [`crate::Module`] knows its full parameter list, so a
//! parameter the forward pass never binds at all — the most common form of
//! "dead parameter" (constructed, registered, then forgotten) — is reported
//! here as an [`UnreachableParam`](st_tensor::analyze::LintKind::UnreachableParam)
//! error alongside the tape-level findings.

use std::collections::HashSet;

use st_tensor::analyze::{Diagnostic, LintKind, Severity};
use st_tensor::{Binder, Tape};

use crate::module::Module;

/// Analyze the graph recorded on `tape` (rooted at the loss node `root`)
/// together with `module`'s parameter list.
///
/// Runs every [`st_tensor::analyze`](mod@st_tensor::analyze) pass over the exported spec, then
/// appends one [`LintKind::UnreachableParam`] error per module parameter that
/// was never bound onto the tape by `binder` — those cannot receive a
/// gradient under any input.
pub fn analyze_module_graph(
    tape: &Tape,
    binder: &Binder<'_, '_>,
    root: usize,
    module: &dyn Module,
) -> Vec<Diagnostic> {
    let spec = tape.export_spec();
    let bound = binder.bound_params();
    let mut diags = st_tensor::analyze(&spec, root, &bound);
    let bound_names: HashSet<&str> = bound.iter().map(|(n, _)| n.as_str()).collect();
    for p in module.params() {
        if !bound_names.contains(p.name()) {
            diags.push(Diagnostic {
                kind: LintKind::UnreachableParam,
                severity: Severity::Error,
                node: None,
                message: format!(
                    "parameter '{}' is never bound onto the tape: the forward pass \
                     does not use it, so it can never receive a gradient",
                    p.name()
                ),
            });
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_tensor::{ops, Array, Param};

    struct Toy {
        w: Param,
        dead: Option<Param>,
    }

    impl Module for Toy {
        fn params(&self) -> Vec<&Param> {
            let mut ps = vec![&self.w];
            if let Some(d) = &self.dead {
                ps.push(d);
            }
            ps
        }
    }

    fn forward(tape: &Tape, m: &Toy) -> (usize, Vec<Diagnostic>) {
        let b = Binder::new(tape);
        let w = b.var(&m.w);
        let x = b.input(Array::from_vec(&[1, 2], vec![0.5, -0.5]));
        let loss = ops::sum_all(ops::matmul(x, w));
        (loss.id(), analyze_module_graph(tape, &b, loss.id(), m))
    }

    #[test]
    fn clean_module_graph_has_no_findings() {
        let m = Toy {
            w: Param::new("w", Array::from_vec(&[2, 3], vec![0.1; 6])),
            dead: None,
        };
        let tape = Tape::new();
        let (_, diags) = forward(&tape, &m);
        assert!(diags.is_empty(), "unexpected findings: {diags:?}");
    }

    #[test]
    fn never_bound_param_is_reported_by_name() {
        let m = Toy {
            w: Param::new("w", Array::from_vec(&[2, 3], vec![0.1; 6])),
            dead: Some(Param::new("dead.bias", Array::vector(vec![0.0; 3]))),
        };
        let tape = Tape::new();
        let (_, diags) = forward(&tape, &m);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, LintKind::UnreachableParam);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(
            diags[0].message.contains("dead.bias"),
            "{}",
            diags[0].message
        );
    }
}
