//! Recording an op whose backward reads its own output stores that output
//! once.
//!
//! This binary installs a counting global allocator whose byte counter is
//! thread-local, so each test counts only its own thread's allocations.
//! The taped sigmoid, tanh, softmax and log-softmax keep their output for
//! the backward pass; the tape node and the closure must share one buffer,
//! so recording one allocates the output's bytes plus small bookkeeping
//! (node metadata, the boxed closure, the `Rc` header), never a second copy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use st_tensor::{ops, Array, Tape, Var};

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting the bytes allocated and reallocated on
/// the current thread.
struct Counting;

fn count(bytes: usize) {
    // `try_with`: the slot is gone while a thread tears down its locals.
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialized thread-local `Cell`,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded verbatim; `ptr` came from this allocator, which
        // is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes `f` allocates on this thread.
fn bytes_in(f: impl FnOnce()) -> usize {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

type Op = for<'t> fn(Var<'t>) -> Var<'t>;

#[test]
fn ops_that_keep_their_output_store_it_once() {
    const ROWS: usize = 16;
    const COLS: usize = 64;
    let out_bytes = ROWS * COLS * std::mem::size_of::<f32>();
    let input = Array::from_vec(
        &[ROWS, COLS],
        (0..ROWS * COLS)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) / 25.0)
            .collect(),
    );
    let ops: [(&str, Op); 4] = [
        ("sigmoid", ops::sigmoid),
        ("tanh", ops::tanh),
        ("softmax_rows", ops::softmax_rows),
        ("log_softmax_rows", ops::log_softmax_rows),
    ];
    let tape = Tape::new();
    for (name, op) in ops {
        // warm-up: the node arena grows to hold the leaf and the op
        let x = tape.leaf(input.clone());
        op(x);
        tape.reset();

        let x = tape.leaf(input.clone());
        let bytes = bytes_in(|| {
            op(x);
        });
        assert!(
            bytes < 2 * out_bytes,
            "{name}: recording allocated {bytes} bytes for a {out_bytes}-byte output"
        );
        tape.reset();
    }
}
