//! Trainable parameters and their binding onto tapes.
//!
//! Parameters persist across training steps, while a [`Tape`] lives for one
//! step. A [`Binder`] bridges the two: during the forward pass it copies each
//! parameter's current value onto the tape as a leaf, and after backward it
//! routes the leaf gradients back into the parameters' `grad` accumulators.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::array::Array;
use crate::tape::{Gradients, Tape, Var};

/// A named trainable parameter with a persistent gradient accumulator.
///
/// Values and gradients sit behind `RwLock`s so a model can be shared
/// (`&DeepSt`-style) across data-parallel worker threads: workers take
/// read locks to copy values onto their tapes, and only the coordinating
/// thread ever takes write locks (gradient reduction, optimizer step), so
/// the locks are uncontended in practice.
#[derive(Debug)]
pub struct Param {
    name: String,
    value: RwLock<Array>,
    grad: RwLock<Array>,
}

impl Param {
    /// Create a parameter with an initial value and an *unallocated*
    /// gradient.
    ///
    /// The gradient buffer is lazy: it stays an empty (`[0]`-shaped)
    /// sentinel — meaning "all zero, no storage" — until the first
    /// [`Param::accumulate_grad`] touches it. A parameter that never
    /// receives a gradient (a cold embedding shard) therefore costs zero
    /// gradient bytes. Every consumer treats the empty sentinel as an
    /// all-zero gradient, which is exact: a zero gradient contributes
    /// `+0.0` to norms and `-0.0` to updates, both bitwise no-ops.
    pub fn new(name: impl Into<String>, value: Array) -> Self {
        Self {
            name: name.into(),
            value: RwLock::new(value),
            grad: RwLock::new(Array::zeros(&[0])),
        }
    }

    /// The parameter's name (used in diagnostics and serialization).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Borrow the current value.
    ///
    /// Lock poisoning (a worker panicking while holding the guard) is
    /// recovered from rather than propagated: the guarded `Array` is plain
    /// `f32` data with no invariants a partial write could break, and the
    /// fault-tolerant trainer re-validates values after contained panics.
    pub fn value(&self) -> RwLockReadGuard<'_, Array> {
        self.value.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Mutably borrow the current value (poison-recovering, see [`Param::value`]).
    pub fn value_mut(&self) -> RwLockWriteGuard<'_, Array> {
        self.value.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Borrow the accumulated gradient (poison-recovering, see [`Param::value`]).
    pub fn grad(&self) -> RwLockReadGuard<'_, Array> {
        self.grad.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of scalar elements.
    pub fn len(&self) -> usize {
        self.value().len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the gradient buffer has been materialized (the parameter has
    /// received at least one gradient since construction). Cold parameters
    /// report `false` and hold no gradient storage.
    pub fn grad_allocated(&self) -> bool {
        !self.grad().is_empty()
    }

    /// Add `g` into the gradient accumulator, materializing it on first
    /// touch. An empty `g` (another parameter's unallocated gradient, e.g.
    /// from [`clip_grad_norm`](crate::optim::clip_grad_norm) re-scaling) is
    /// a no-op and does *not* materialize the buffer.
    pub fn accumulate_grad(&self, g: &Array) {
        if g.is_empty() {
            return;
        }
        self.ensure_grad();
        self.grad_mut().add_assign(g);
    }

    /// Add `scale * g` into the gradient accumulator — used when reducing
    /// per-shard gradients (each shard's mean loss is re-weighted by its
    /// share of the minibatch). Lazily materializes like
    /// [`Param::accumulate_grad`].
    pub fn accumulate_grad_scaled(&self, scale: f32, g: &Array) {
        if g.is_empty() {
            return;
        }
        self.ensure_grad();
        self.grad_mut().axpy(scale, g);
    }

    /// Reset the gradient accumulator to zero. Keeps the buffer allocated
    /// once materialized (a shard that has been hot stays resident); a
    /// still-unallocated gradient stays unallocated.
    pub fn zero_grad(&self) {
        self.grad_mut().fill_zero();
    }

    fn grad_mut(&self) -> RwLockWriteGuard<'_, Array> {
        self.grad.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Materialize the gradient buffer (zeroed, value-shaped) if it is
    /// still the empty sentinel. The replacement array is built *before*
    /// taking the grad write lock so value/grad locks never nest.
    fn ensure_grad(&self) {
        if self.grad_allocated() {
            return;
        }
        let zeros = Array::zeros_like(&self.value());
        let mut g = self.grad_mut();
        if g.is_empty() {
            *g = zeros;
        }
    }
}

/// Binds parameters to leaves of a specific tape for one forward/backward
/// pass.
pub struct Binder<'t, 'p> {
    tape: &'t Tape,
    bound: RefCell<Vec<(&'p Param, usize)>>,
    cache: RefCell<HashMap<*const Param, Var<'t>>>,
}

impl<'t, 'p> Binder<'t, 'p> {
    /// A binder for `tape`.
    pub fn new(tape: &'t Tape) -> Self {
        Self {
            tape,
            bound: RefCell::new(Vec::new()),
            cache: RefCell::new(HashMap::new()),
        }
    }

    /// The underlying tape.
    pub fn tape(&self) -> &'t Tape {
        self.tape
    }

    /// Record `p`'s current value as a tape leaf and remember the binding.
    ///
    /// Bindings are memoized: binding the same parameter again (weight
    /// sharing across GRU time steps, the embedding table looked up once
    /// per step) returns the leaf recorded the first time, so the value is
    /// copied onto the tape once per pass and every use accumulates into
    /// one gradient buffer. Backward handles a leaf feeding several ops —
    /// including both operands of one op — so this is safe.
    pub fn var(&self, p: &'p Param) -> Var<'t> {
        let key = p as *const Param;
        if let Some(&v) = self.cache.borrow().get(&key) {
            return v;
        }
        let v = self.tape.leaf(p.value().clone());
        self.bound.borrow_mut().push((p, v.id()));
        self.cache.borrow_mut().insert(key, v);
        v
    }

    /// Record a non-trainable input on the tape.
    pub fn input(&self, value: Array) -> Var<'t> {
        self.tape.leaf(value)
    }

    /// The `(name, leaf id)` pairs of every parameter bound so far, in
    /// binding order — the graph analyzer uses this to check that each
    /// bound parameter has a gradient path from the loss.
    pub fn bound_params(&self) -> Vec<(String, usize)> {
        self.bound
            .borrow()
            .iter()
            .map(|(p, id)| (p.name().to_string(), *id))
            .collect()
    }

    /// After `tape.backward`, push every bound leaf's gradient into its
    /// parameter's accumulator. Returns the number of parameters that
    /// actually received a gradient.
    pub fn accumulate_grads(&self, grads: &Gradients) -> usize {
        let mut touched = 0;
        for (p, id) in self.bound.borrow().iter() {
            if let Some(g) = grads.by_id(*id) {
                p.accumulate_grad(g);
                touched += 1;
            }
        }
        touched
    }

    /// Collect the bound parameters' gradients as owned arrays, merging
    /// multiple bindings of the same parameter (e.g. weight sharing across
    /// GRU time steps) in binding order.
    ///
    /// Data-parallel workers use this instead of [`Binder::accumulate_grads`]
    /// so the coordinating thread can fold shard gradients into the shared
    /// parameters in a fixed order, keeping training deterministic.
    pub fn collect_grads(&self, grads: &Gradients) -> Vec<(&'p Param, Array)> {
        let mut out: Vec<(&'p Param, Array)> = Vec::new();
        let mut slot: HashMap<*const Param, usize> = HashMap::new();
        for (p, id) in self.bound.borrow().iter() {
            if let Some(g) = grads.by_id(*id) {
                match slot.get(&(*p as *const Param)) {
                    Some(&i) => out[i].1.add_assign(g),
                    None => {
                        slot.insert(*p as *const Param, out.len());
                        out.push((p, g.clone()));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    #[test]
    fn param_roundtrip() {
        let p = Param::new("w", Array::vector(vec![1.0, 2.0]));
        assert_eq!(p.name(), "w");
        assert_eq!(p.len(), 2);
        p.accumulate_grad(&Array::vector(vec![0.5, 0.5]));
        p.accumulate_grad(&Array::vector(vec![0.5, 0.5]));
        assert_eq!(p.grad().data(), &[1.0, 1.0]);
        p.zero_grad();
        assert_eq!(p.grad().data(), &[0.0, 0.0]);
    }

    #[test]
    fn grad_is_lazy_until_first_accumulation() {
        let p = Param::new("w", Array::vector(vec![1.0, 2.0]));
        assert!(!p.grad_allocated());
        p.zero_grad(); // no-op on the sentinel
        assert!(!p.grad_allocated());
        p.accumulate_grad(&Array::zeros(&[0])); // empty input: still cold
        assert!(!p.grad_allocated());
        p.accumulate_grad_scaled(0.5, &Array::vector(vec![2.0, 4.0]));
        assert!(p.grad_allocated());
        assert_eq!(p.grad().data(), &[1.0, 2.0]);
        p.zero_grad(); // once hot, the buffer stays resident
        assert!(p.grad_allocated());
        assert_eq!(p.grad().data(), &[0.0, 0.0]);
    }

    #[test]
    fn binder_routes_gradients() {
        let w = Param::new("w", Array::vector(vec![3.0]));
        let tape = Tape::new();
        let b = Binder::new(&tape);
        let wv = b.var(&w);
        // loss = w²  →  dloss/dw = 6
        let loss = ops::sum_all(ops::square(wv));
        let grads = tape.backward(loss);
        let touched = b.accumulate_grads(&grads);
        assert_eq!(touched, 1);
        assert!((w.grad().data()[0] - 6.0).abs() < 1e-5);
    }

    #[test]
    fn double_binding_accumulates_both_paths() {
        let w = Param::new("w", Array::vector(vec![2.0]));
        let tape = Tape::new();
        let b = Binder::new(&tape);
        let w1 = b.var(&w);
        let w2 = b.var(&w);
        // loss = w · w via two separate leaves → total grad = 2w = 4
        let loss = ops::sum_all(ops::mul(w1, w2));
        let grads = tape.backward(loss);
        b.accumulate_grads(&grads);
        assert!((w.grad().data()[0] - 4.0).abs() < 1e-5);
    }
}
