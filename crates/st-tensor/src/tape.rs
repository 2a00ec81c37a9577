//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] is an append-only arena of computation nodes. Each operation in
//! [`crate::ops`] pushes one node holding the forward value plus a backward
//! closure that accumulates gradient into its parents through a
//! [`GradSink`]. Because the tape is append-only,
//! node ids are already a topological order, so backpropagation is a single
//! reverse sweep — no explicit graph sort.
//!
//! # Memory reuse
//!
//! A tape is built once per minibatch, but training runs thousands of
//! minibatches with identical graph shapes. Two mechanisms keep the
//! steady-state allocation count at zero for the gradient path:
//!
//! * [`Tape::reset`] clears the node arena while keeping its allocation, so
//!   one `Tape` serves a whole epoch.
//! * Gradient accumulators handed out during [`Tape::backward`] come from a
//!   per-tape free-list of `f32` buffers; when the returned [`Gradients`] is
//!   dropped, every buffer goes back on the list. After the first minibatch,
//!   backward passes recycle buffers instead of touching the allocator.
//!
//! The tape is deliberately `!Send` (nodes are `Rc`-shared with op
//! closures): one tape belongs to one thread. Data-parallel training gives
//! each worker its own tape — see `st-core`'s `parallel` module.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::array::Array;
use crate::gemm::PackedB;

/// Backward function: given the gradient flowing into this node, accumulate
/// contributions into parent gradients via the sink.
pub(crate) type BackwardFn = Box<dyn Fn(&Array, &mut GradSink<'_>)>;

/// Metadata describing the operation that produced a tape node.
///
/// Every op in [`crate::ops`] and [`crate::conv`] records one of these
/// alongside its value and backward closure. The metadata is what makes the
/// recorded graph *inspectable*: [`crate::analyze`](mod@crate::analyze)
/// derives signs, gradient reachability and accumulation depth from op
/// names, parent edges, attributes and the recorded shapes alone, without
/// touching the kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct OpMeta {
    /// Op name, e.g. `"matmul"`, `"ln"`, `"leaf"`. The vocabulary is the
    /// rule table in [`crate::analyze`](mod@crate::analyze).
    pub name: &'static str,
    /// Parent node ids, in operand order (empty for leaves).
    pub parents: Vec<usize>,
    /// Op-specific integer attributes (slice bounds, conv stride/pad,
    /// gather index count, reshape target dims).
    pub iattrs: Vec<usize>,
    /// Op-specific scalar attributes (the constant of `scale`/`add_scalar`,
    /// the slope of `leaky_relu`).
    pub sattrs: Vec<f32>,
}

impl OpMeta {
    /// Metadata for an op with the given name and parents, no attributes.
    pub fn new(name: &'static str, parents: Vec<usize>) -> Self {
        Self {
            name,
            parents,
            iattrs: Vec::new(),
            sattrs: Vec::new(),
        }
    }

    /// Metadata for a leaf (input or parameter).
    pub fn leaf() -> Self {
        Self::new("leaf", Vec::new())
    }

    /// Metadata for an explicitly-constant leaf.
    pub fn constant() -> Self {
        Self::new("const", Vec::new())
    }

    /// Attach integer attributes.
    pub fn with_iattrs(mut self, iattrs: Vec<usize>) -> Self {
        self.iattrs = iattrs;
        self
    }

    /// Attach scalar attributes.
    pub fn with_sattrs(mut self, sattrs: Vec<f32>) -> Self {
        self.sattrs = sattrs;
        self
    }
}

struct Node {
    value: Rc<Array>,
    /// Bytes the backward closure keeps besides the node values it shares.
    saved_bytes: usize,
    meta: OpMeta,
    backward: Option<BackwardFn>,
}

/// A node value packed for the GEMM micro-kernel as the B operand of both
/// `a · value` and `a · valueᵀ`: what a fused op multiplies by a weight in
/// its forward and backward products ([`Tape::packing`]).
pub(crate) struct Packing {
    /// `value` packed as the B operand of `a · value`.
    pub(crate) b: PackedB,
    /// `value` packed as the B operand of `a · valueᵀ`.
    pub(crate) bt: PackedB,
}

impl Packing {
    fn bytes(&self) -> usize {
        (self.b.len() + self.bt.len()) * std::mem::size_of::<f32>()
    }
}

thread_local! {
    /// Tapes currently alive on this thread (created minus dropped).
    static LIVE_TAPES: Cell<usize> = const { Cell::new(0) };
    /// Tapes ever created on this thread (monotonic).
    static CREATED_TAPES: Cell<usize> = const { Cell::new(0) };
}

/// The autodiff tape. Create one per worker thread and [`Tape::reset`] it
/// between minibatches.
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
    /// Packings of node values by node id, made once per tape (a weight
    /// leaf that every GRU step of a pass multiplies by).
    packings: RefCell<Vec<(usize, Rc<Packing>)>>,
    /// Free-list of gradient buffers, recycled across backward passes.
    pool: RefCell<Vec<Vec<f32>>>,
    /// Bytes currently held by node values + live gradient buffers.
    cur_bytes: Cell<usize>,
    /// High-water mark of `cur_bytes` over the tape's lifetime.
    peak_bytes: Cell<usize>,
}

impl Default for Tape {
    fn default() -> Self {
        LIVE_TAPES.with(|c| c.set(c.get() + 1));
        CREATED_TAPES.with(|c| c.set(c.get() + 1));
        Self {
            nodes: RefCell::default(),
            packings: RefCell::default(),
            pool: RefCell::default(),
            cur_bytes: Cell::default(),
            peak_bytes: Cell::default(),
        }
    }
}

impl Drop for Tape {
    fn drop(&mut self) {
        LIVE_TAPES.with(|c| c.set(c.get().saturating_sub(1)));
    }
}

/// A handle to a value recorded on a [`Tape`].
///
/// `Var` is `Copy`; all real state lives in the tape. The lifetime ties the
/// handle to its tape so handles cannot outlive or cross tapes.
#[derive(Clone, Copy)]
pub struct Var<'t> {
    tape: &'t Tape,
    id: usize,
}

impl Tape {
    /// A fresh, empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tapes currently alive on *this thread*.
    ///
    /// The tape is `!Send`, so per-thread counting is exact. The inference
    /// runtime ([`crate::infer`]) uses this together with
    /// [`Tape::created_count`] to assert — in debug builds — that no tape is
    /// ever constructed inside the tape-free decoding hot path.
    pub fn live_count() -> usize {
        LIVE_TAPES.with(|c| c.get())
    }

    /// Number of tapes ever created on *this thread* (monotonic).
    ///
    /// Unlike [`Tape::live_count`], a create-then-drop inside a guarded scope
    /// still moves this counter, so it is the one the zero-tape guard
    /// ([`crate::infer::TapeFreeScope`]) checks.
    pub fn created_count() -> usize {
        CREATED_TAPES.with(|c| c.get())
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// Whether the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    /// Clear all recorded nodes, keeping the node arena's allocation and the
    /// gradient buffer free-list. Existing `Var` handles become dangling and
    /// must not be used afterwards (they would index past the cleared arena
    /// or into unrelated new nodes).
    pub fn reset(&self) {
        let mut nodes = self.nodes.borrow_mut();
        let mut packings = self.packings.borrow_mut();
        let node_bytes: usize = nodes
            .iter()
            .map(|n| n.value.len() * std::mem::size_of::<f32>() + n.saved_bytes)
            .chain(packings.iter().map(|(_, p)| p.bytes()))
            .sum();
        nodes.clear();
        packings.clear();
        self.cur_bytes
            .set(self.cur_bytes.get().saturating_sub(node_bytes));
    }

    /// High-water mark of bytes held by node values plus live gradient
    /// buffers since this tape was created.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes.get()
    }

    /// Record a leaf value (input or parameter) and return its handle.
    pub fn leaf(&self, value: Array) -> Var<'_> {
        self.push(value, OpMeta::leaf(), None)
    }

    /// Record a constant: data, like the traffic grid, that no gradient is
    /// wanted for. Ops may skip computing its gradient (`conv2d` does), and
    /// the graph analyzer uses the tag to spot constant-foldable subgraphs.
    pub fn constant(&self, value: Array) -> Var<'_> {
        self.push(value, OpMeta::constant(), None)
    }

    /// Record a node. An op whose backward reads its own output passes an
    /// `Rc` and keeps a clone for the closure, so the value is stored once.
    pub(crate) fn push(
        &self,
        value: impl Into<Rc<Array>>,
        meta: OpMeta,
        backward: Option<BackwardFn>,
    ) -> Var<'_> {
        self.push_saving(value, 0, meta, backward)
    }

    /// [`Tape::push`] for an op whose backward closure keeps `saved_bytes`
    /// of its own (forward intermediates no node holds), so the tape's byte
    /// accounting covers them.
    pub(crate) fn push_saving(
        &self,
        value: impl Into<Rc<Array>>,
        saved_bytes: usize,
        meta: OpMeta,
        backward: Option<BackwardFn>,
    ) -> Var<'_> {
        let value = value.into();
        self.track_bytes(value.len() * std::mem::size_of::<f32>() + saved_bytes);
        let mut nodes = self.nodes.borrow_mut();
        let id = nodes.len();
        nodes.push(Node {
            value,
            saved_bytes,
            meta,
            backward,
        });
        Var { tape: self, id }
    }

    pub(crate) fn value_of(&self, id: usize) -> Rc<Array> {
        Rc::clone(&self.nodes.borrow()[id].value)
    }

    /// Whether `var` was recorded by [`Tape::constant`]: data no gradient
    /// is wanted for, so an op may skip computing one.
    pub(crate) fn is_constant(&self, var: Var<'_>) -> bool {
        self.nodes.borrow()[var.id].meta.name == "const"
    }

    /// `var`'s value packed for the GEMM micro-kernel, made on the first
    /// request and shared by every later one until [`Tape::reset`]. Node
    /// values never change, so one packing serves every op that multiplies
    /// by the same leaf — a GRU weight bound once per pass is packed once
    /// per pass, not once per step.
    pub(crate) fn packing(&self, var: Var<'_>) -> Rc<Packing> {
        assert!(std::ptr::eq(var.tape, self), "var from a different tape");
        if let Some((_, p)) = self.packings.borrow().iter().find(|(id, _)| *id == var.id) {
            return Rc::clone(p);
        }
        let value = self.value_of(var.id);
        assert_eq!(
            value.ndim(),
            2,
            "packing expects 2-D, got {:?}",
            value.shape()
        );
        let (k, n) = (value.shape()[0], value.shape()[1]);
        let packing = Rc::new(Packing {
            b: PackedB::pack(k, n, value.data()),
            bt: PackedB::pack_t(n, k, value.data()),
        });
        self.track_bytes(packing.bytes());
        self.packings
            .borrow_mut()
            .push((var.id, Rc::clone(&packing)));
        packing
    }

    /// Export the recorded graph structure — per node, its value shape and
    /// [`OpMeta`] — for offline analysis ([`crate::analyze()`]). No values are
    /// copied and no kernels run.
    pub fn export_spec(&self) -> crate::analyze::GraphSpec {
        let nodes = self.nodes.borrow();
        crate::analyze::GraphSpec {
            nodes: nodes
                .iter()
                .map(|n| crate::analyze::NodeSpec {
                    shape: n.value.shape().to_vec(),
                    op: n.meta.clone(),
                })
                .collect(),
        }
    }

    fn track_bytes(&self, added: usize) {
        let cur = self.cur_bytes.get() + added;
        self.cur_bytes.set(cur);
        if cur > self.peak_bytes.get() {
            self.peak_bytes.set(cur);
        }
    }

    /// Pull a buffer of exactly `len` elements (zeroed) from the free-list,
    /// or allocate one if nothing fits.
    fn take_buffer(&self, len: usize) -> Vec<f32> {
        let mut pool = self.pool.borrow_mut();
        // Buffers come back in node-id order and are requested in reverse
        // node-id order next pass, so the match is usually at the tail.
        let hit = match pool.last() {
            Some(b) if b.capacity() >= len => Some(pool.len() - 1),
            _ => pool.iter().rposition(|b| b.capacity() >= len),
        };
        let mut buf = match hit {
            Some(i) => pool.swap_remove(i),
            None => Vec::with_capacity(len),
        };
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Run backpropagation from `root` (gradient seeded with ones) and return
    /// the gradient of every node that received one.
    ///
    /// `root` is typically the scalar loss. Seeding with ones on a non-scalar
    /// root computes the gradient of the *sum* of its elements.
    ///
    /// Gradient arrays are backed by the tape's buffer free-list; they return
    /// to it when the `Gradients` value is dropped.
    pub fn backward(&self, root: Var<'_>) -> Gradients<'_> {
        #[cfg(feature = "kernel-timing")]
        let _kt = crate::ktime::timer(crate::ktime::Kernel::Backward);
        assert!(std::ptr::eq(root.tape, self), "var from a different tape");
        let nodes = self.nodes.borrow();
        let mut grads: Vec<Option<Array>> = (0..nodes.len()).map(|_| None).collect();
        let root_val = &nodes[root.id].value;
        let mut seed = Array::from_buffer(root_val.shape(), self.take_buffer(root_val.len()));
        self.track_bytes(seed.len() * std::mem::size_of::<f32>());
        seed.data_mut().fill(1.0);
        grads[root.id] = Some(seed);
        for id in (0..=root.id).rev() {
            // Take the gradient out so the sink can borrow `grads`.
            let Some(g) = grads[id].take() else { continue };
            if let Some(f) = &nodes[id].backward {
                let mut sink = GradSink {
                    tape: self,
                    nodes: &nodes,
                    grads: &mut grads,
                    node_id: id,
                };
                f(&g, &mut sink);
            }
            grads[id] = Some(g);
        }
        Gradients { tape: self, grads }
    }
}

/// Routes backward-pass gradient contributions into per-parent accumulators
/// drawn from the tape's buffer free-list.
pub struct GradSink<'a> {
    tape: &'a Tape,
    nodes: &'a [Node],
    grads: &'a mut Vec<Option<Array>>,
    node_id: usize,
}

impl GradSink<'_> {
    /// The gradient accumulator of parent `pid`, created zeroed (with the
    /// parent value's shape) on first touch. Backward closures accumulate
    /// (`+=`) into it — never overwrite — since several children may
    /// contribute to one parent.
    pub fn accum(&mut self, pid: usize) -> &mut Array {
        debug_assert!(
            pid < self.node_id,
            "backward edge must point to earlier node"
        );
        if self.grads[pid].is_none() {
            let shape = self.nodes[pid].value.shape();
            let len = self.nodes[pid].value.len();
            let buf = self.tape.take_buffer(len);
            self.tape.track_bytes(len * std::mem::size_of::<f32>());
            self.grads[pid] = Some(Array::from_buffer(shape, buf));
        }
        self.grads[pid].as_mut().unwrap()
    }

    /// Two accumulators at once, for backward loops that scatter into both
    /// parents in a single fused pass. Parents must be distinct nodes.
    pub fn accum2(&mut self, p0: usize, p1: usize) -> (&mut Array, &mut Array) {
        assert_ne!(p0, p1, "accum2 requires distinct parents");
        self.accum(p0);
        self.accum(p1);
        let base = self.grads.as_mut_ptr();
        // SAFETY: p0 != p1, both in bounds (accum indexed them), and the
        // Options are Some — the two &mut alias neither each other nor self.
        unsafe {
            (
                (*base.add(p0)).as_mut().unwrap(),
                (*base.add(p1)).as_mut().unwrap(),
            )
        }
    }

    /// Three accumulators at once (see [`GradSink::accum2`]).
    #[allow(clippy::type_complexity)]
    pub fn accum3(
        &mut self,
        p0: usize,
        p1: usize,
        p2: usize,
    ) -> (&mut Array, &mut Array, &mut Array) {
        assert!(
            p0 != p1 && p0 != p2 && p1 != p2,
            "accum3 requires distinct parents"
        );
        self.accum(p0);
        self.accum(p1);
        self.accum(p2);
        let base = self.grads.as_mut_ptr();
        // SAFETY: pairwise-distinct indices, all in bounds and Some.
        unsafe {
            (
                (*base.add(p0)).as_mut().unwrap(),
                (*base.add(p1)).as_mut().unwrap(),
                (*base.add(p2)).as_mut().unwrap(),
            )
        }
    }

    /// Convenience: `accum(pid) += g`.
    pub fn add(&mut self, pid: usize, g: &Array) {
        self.accum(pid).add_assign(g);
    }
}

/// The result of [`Tape::backward`]: per-node gradients. Dropping it returns
/// every gradient buffer to the tape's free-list.
pub struct Gradients<'t> {
    tape: &'t Tape,
    grads: Vec<Option<Array>>,
}

impl Gradients<'_> {
    /// The gradient of the root with respect to `var`, if any reached it.
    pub fn get(&self, var: Var<'_>) -> Option<&Array> {
        self.grads.get(var.id).and_then(|g| g.as_ref())
    }

    /// Like [`Gradients::get`] but panics with a useful message when absent.
    pub fn expect(&self, var: Var<'_>) -> &Array {
        self.get(var).unwrap_or_else(|| {
            // expect is the documented panicking variant of `get`
            // st-lint: allow(panic-in-lib)
            panic!(
                "no gradient reached node {} (tape has {} nodes): the node is \
                 not an ancestor of the backward root — run the graph \
                 analyzer (st_tensor::analyze) on this tape to see which \
                 subgraphs are detached from the loss",
                var.id,
                self.grads.len()
            )
        })
    }

    /// Gradient by raw node id (used by the parameter binding machinery).
    pub fn by_id(&self, id: usize) -> Option<&Array> {
        self.grads.get(id).and_then(|g| g.as_ref())
    }
}

impl Drop for Gradients<'_> {
    fn drop(&mut self) {
        let mut pool = self.tape.pool.borrow_mut();
        let mut freed = 0;
        for g in self.grads.drain(..).flatten() {
            freed += g.len() * std::mem::size_of::<f32>();
            pool.push(g.into_vec());
        }
        self.tape
            .cur_bytes
            .set(self.tape.cur_bytes.get().saturating_sub(freed));
    }
}

impl<'t> Var<'t> {
    /// The tape this variable belongs to.
    #[inline]
    pub fn tape(&self) -> &'t Tape {
        self.tape
    }

    /// The raw node id on the tape.
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// The forward value of this node (shared, cheap to clone).
    pub fn value(&self) -> Rc<Array> {
        self.tape.value_of(self.id)
    }

    /// The shape of the forward value.
    pub fn shape(&self) -> Vec<usize> {
        self.value().shape().to_vec()
    }

    /// Convenience: the forward value as a scalar. Panics if not length-1.
    pub fn scalar_value(&self) -> f32 {
        let v = self.value();
        assert_eq!(v.len(), 1, "scalar_value on shape {:?}", v.shape());
        v.data()[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    #[test]
    fn leaf_has_no_backward_effect() {
        let t = Tape::new();
        let x = t.leaf(Array::vector(vec![1.0, 2.0]));
        let g = t.backward(x);
        assert_eq!(g.expect(x).data(), &[1.0, 1.0]);
    }

    #[test]
    fn chain_of_adds_accumulates() {
        let t = Tape::new();
        let x = t.leaf(Array::vector(vec![1.0, 2.0]));
        // y = x + x + x  =>  dy/dx = 3
        let y = ops::add(ops::add(x, x), x);
        let g = t.backward(y);
        assert_eq!(g.expect(x).data(), &[3.0, 3.0]);
        assert_eq!(y.value().data(), &[3.0, 6.0]);
    }

    #[test]
    fn gradient_does_not_flow_past_root() {
        let t = Tape::new();
        let x = t.leaf(Array::vector(vec![1.0]));
        let y = ops::scale(x, 2.0);
        let _z = ops::scale(y, 10.0); // recorded after y, not part of y's history
        let g = t.backward(y);
        assert_eq!(g.expect(x).data(), &[2.0]);
    }

    #[test]
    fn unreached_nodes_have_no_gradient() {
        let t = Tape::new();
        let x = t.leaf(Array::vector(vec![1.0]));
        let other = t.leaf(Array::vector(vec![5.0]));
        let y = ops::scale(x, 3.0);
        let g = t.backward(y);
        assert!(g.get(other).is_none());
    }

    #[test]
    fn reset_clears_nodes_and_reuses_arena() {
        let t = Tape::new();
        let x = t.leaf(Array::vector(vec![1.0, 2.0]));
        let _y = ops::square(x);
        assert_eq!(t.len(), 2);
        t.reset();
        assert!(t.is_empty());
        // The tape is fully usable after reset.
        let x2 = t.leaf(Array::vector(vec![3.0]));
        let y2 = ops::square(x2);
        let g = t.backward(y2);
        assert_eq!(g.expect(x2).data(), &[6.0]);
    }

    #[test]
    fn gradient_buffers_recycle_through_pool() {
        let t = Tape::new();
        let run = |t: &Tape| {
            let x = t.leaf(Array::vector(vec![1.0, 2.0, 3.0]));
            let y = ops::sum_all(ops::square(x));
            let g = t.backward(y);
            let got = g.expect(x).data().to_vec();
            t.reset();
            got
        };
        let first = run(&t);
        let pooled = t.pool.borrow().len();
        assert!(pooled > 0, "dropping Gradients must refill the pool");
        let second = run(&t);
        assert_eq!(first, second, "recycled buffers must be re-zeroed");
        // Steady state: the pool neither grows nor shrinks across passes.
        assert_eq!(t.pool.borrow().len(), pooled);
    }

    #[test]
    fn tape_counters_track_create_and_drop() {
        let live0 = Tape::live_count();
        let created0 = Tape::created_count();
        {
            let _t = Tape::new();
            assert_eq!(Tape::live_count(), live0 + 1);
            assert_eq!(Tape::created_count(), created0 + 1);
        }
        // Dropping restores the live count but the created count is monotonic.
        assert_eq!(Tape::live_count(), live0);
        assert_eq!(Tape::created_count(), created0 + 1);
    }

    #[test]
    fn peak_bytes_grows_with_graph() {
        let t = Tape::new();
        assert_eq!(t.peak_bytes(), 0);
        let x = t.leaf(Array::zeros(&[8, 8]));
        let y = ops::sum_all(x);
        let peak_fwd = t.peak_bytes();
        assert!(peak_fwd >= 8 * 8 * 4);
        let _g = t.backward(y);
        assert!(t.peak_bytes() > peak_fwd, "backward buffers add to peak");
    }
}
