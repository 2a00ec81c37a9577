//! A warmed decode loop performs no heap allocation.
//!
//! This binary installs a counting global allocator whose counter is
//! thread-local, so each test counts only its own thread's allocations.
//! Every scenario first warms its session (arena pool, per-token gate memo,
//! log-prob buffer, spare state vectors), then asserts that
//! [`ITERATIONS`] further iterations allocate nothing: single-trip
//! `DeepStDecoder::step`, interleaved multi-trip `InferSession::step_into`,
//! the vanilla RNN's, CSSRNN's and MMI's decoder steps, and the survivor
//! gather plus recycle cycle of beam decoding (DeepST and RNN) and of the
//! serving engine's tick.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use st_baselines::{DeepStDecoder, Mmi, MmiDecoder, RnnBaseline, RnnConfig, StepDecoder};
use st_core::{DeepSt, DeepStConfig, TripContext};
use st_roadnet::{grid_city, GridConfig, RoadNetwork, SegmentId};
use st_tensor::Array;

/// Measured iterations per scenario, after warm-up.
const ITERATIONS: usize = 100;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations and reallocations made on
/// the current thread.
struct Counting;

fn count() {
    // `try_with`: the slot is gone while a thread tears down its locals.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialized thread-local `Cell`,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The 4×4 test grid and an untrained DeepST (hidden 64, two GRU layers).
fn world() -> (RoadNetwork, DeepSt) {
    let net = grid_city(&GridConfig::small_test(), 2);
    let cfg = DeepStConfig::new(net.num_segments(), net.max_out_degree(), 8, 8);
    assert_eq!((cfg.hidden, cfg.gru_layers), (64, 2));
    let model = DeepSt::new(cfg, 0);
    (net, model)
}

fn context(model: &DeepSt, traffic: f32, dest: [f32; 2]) -> TripContext {
    let c = model.encode_traffic(&vec![traffic; 64]);
    model.encode_context(dest, Some(c))
}

/// `n` tokens for iteration `k`: a sliding window over every segment, so
/// warm-up memoizes every token's gate row.
fn tokens(net: &RoadNetwork, k: usize, n: usize) -> Vec<SegmentId> {
    (0..n).map(|i| (k * n + i) % net.num_segments()).collect()
}

/// Iterations that cover every segment twice.
fn warm_iterations(net: &RoadNetwork, n: usize) -> usize {
    2 * net.num_segments().div_ceil(n)
}

#[test]
fn warmed_decoder_step_allocates_nothing() {
    let (net, model) = world();
    let ctx = context(&model, 0.2, [0.7, 0.3]);
    let mut dec = DeepStDecoder::new(&model, &ctx);
    let n = 4;
    let batches: Vec<Vec<SegmentId>> = (0..warm_iterations(&net, n) + ITERATIONS)
        .map(|k| tokens(&net, k, n))
        .collect();
    let (warm, measured) = batches.split_at(batches.len() - ITERATIONS);
    let mut state = dec.init_state(n);
    let mut logp = Vec::new();
    for toks in warm {
        dec.step(&net, toks, &mut state, &mut logp);
    }
    let allocs = allocations_in(|| {
        for toks in measured {
            dec.step(&net, toks, &mut state, &mut logp);
        }
    });
    assert_eq!(
        allocs, 0,
        "{ITERATIONS} warmed DeepStDecoder steps allocated {allocs} times"
    );
    assert!(logp.iter().all(|v| v.is_finite()));
}

#[test]
fn warmed_multi_trip_step_allocates_nothing() {
    let (net, model) = world();
    let mut sess = model.infer_session();
    let a = sess.add_trip(model.trip_terms(&context(&model, 0.1, [0.2, 0.8])));
    let b = sess.add_trip(model.trip_terms(&context(&model, 0.6, [0.9, 0.3])));
    let c = sess.add_trip(model.trip_terms(&context(&model, 0.4, [0.5, 0.5])));
    // Rows of the three trips interleave, as in a serving tick.
    let trips = [a, b, c, a, b, c];
    let n = trips.len();
    let batches: Vec<Vec<SegmentId>> = (0..warm_iterations(&net, n) + ITERATIONS)
        .map(|k| tokens(&net, k, n))
        .collect();
    let (warm, measured) = batches.split_at(batches.len() - ITERATIONS);
    let mut state = sess.zero_state(n);
    let mut logp = Vec::new();
    for toks in warm {
        sess.step_into(toks, &trips, &mut state, &mut logp);
    }
    let allocs = allocations_in(|| {
        for toks in measured {
            sess.step_into(toks, &trips, &mut state, &mut logp);
        }
    });
    assert_eq!(
        allocs, 0,
        "{ITERATIONS} warmed multi-trip steps allocated {allocs} times"
    );
    assert!(logp.iter().all(|v| v.is_finite()));
}

#[test]
fn warmed_gather_and_recycle_allocate_nothing() {
    let (net, model) = world();
    let ctx = context(&model, 0.3, [0.4, 0.6]);

    // Beam survivor selection through the decoder: the state alternates
    // between 3 and 5 rows, with repeated and dropped parents.
    let mut dec = DeepStDecoder::new(&model, &ctx);
    let mut state = dec.init_state(3);
    let mut logp = Vec::new();
    dec.step(&net, &[0, 1, 2], &mut state, &mut logp);
    let picks: [&[usize]; 2] = [&[2, 0, 1, 1, 0], &[4, 0, 3]];
    let cycle = |dec: &mut DeepStDecoder<'_>, state: &mut Vec<Array>| {
        for rows in picks {
            let kept = dec.gather(state, rows);
            dec.recycle(std::mem::replace(state, kept));
        }
    };
    for _ in 0..4 {
        cycle(&mut dec, &mut state);
    }
    let allocs = allocations_in(|| {
        for _ in 0..ITERATIONS {
            cycle(&mut dec, &mut state);
        }
    });
    assert_eq!(
        allocs, 0,
        "{ITERATIONS} warmed gather/recycle cycles allocated {allocs} times"
    );

    // The serving tick's gather: surviving rows plus zero-filled admissions,
    // the old state recycled, then one packed step.
    let mut sess = model.infer_session();
    let trip = sess.add_trip(model.trip_terms(&ctx));
    let mut state = sess.zero_state(2);
    let specs: [&[Option<usize>]; 2] = [&[Some(1), None, Some(0)], &[Some(2), Some(0)]];
    let n_max = 3;
    let batches: Vec<Vec<SegmentId>> = (0..warm_iterations(&net, n_max) + 2 * ITERATIONS)
        .map(|k| tokens(&net, k, n_max))
        .collect();
    let (warm, measured) = batches.split_at(batches.len() - 2 * ITERATIONS);
    let trips = [trip; 3];
    let mut tick = |sess: &mut st_core::InferSession<'_>,
                    state: &mut Vec<Array>,
                    toks: &[SegmentId],
                    spec: &[Option<usize>]| {
        let gathered = sess.gather_state_or_zero(state, spec);
        sess.recycle_state(std::mem::replace(state, gathered));
        let n = spec.len();
        sess.step_into(&toks[..n], &trips[..n], state, &mut logp);
    };
    for (k, toks) in warm.iter().enumerate() {
        tick(&mut sess, &mut state, toks, specs[k % 2]);
    }
    let allocs = allocations_in(|| {
        for (k, toks) in measured.iter().enumerate() {
            tick(&mut sess, &mut state, toks, specs[k % 2]);
        }
    });
    assert_eq!(
        allocs,
        0,
        "{} warmed serving-tick gathers and steps allocated {allocs} times",
        2 * ITERATIONS
    );
}

/// Allocations of [`ITERATIONS`] warmed `n`-row steps of `dec`, after warm-up
/// steps that feed every segment at least twice.
fn warmed_step_allocations<D: StepDecoder>(net: &RoadNetwork, dec: &mut D, n: usize) -> u64 {
    let batches: Vec<Vec<SegmentId>> = (0..warm_iterations(net, n) + ITERATIONS)
        .map(|k| tokens(net, k, n))
        .collect();
    let (warm, measured) = batches.split_at(batches.len() - ITERATIONS);
    let mut state = dec.init_state(n);
    let mut logp = Vec::new();
    for toks in warm {
        dec.step(net, toks, &mut state, &mut logp);
    }
    let allocs = allocations_in(|| {
        for toks in measured {
            dec.step(net, toks, &mut state, &mut logp);
        }
    });
    assert!(logp.iter().any(|v| v.is_finite()));
    dec.recycle(state);
    allocs
}

fn rnn_config(net: &RoadNetwork) -> RnnConfig {
    let cfg = RnnConfig::new(net.num_segments(), net.max_out_degree());
    assert_eq!((cfg.hidden, cfg.gru_layers), (64, 2));
    cfg
}

#[test]
fn warmed_vanilla_rnn_step_allocates_nothing() {
    let (net, _) = world();
    let model = RnnBaseline::vanilla(rnn_config(&net), 0);
    let allocs = warmed_step_allocations(&net, &mut model.decoder(0), 4);
    assert_eq!(
        allocs, 0,
        "{ITERATIONS} warmed vanilla-RNN steps allocated {allocs} times"
    );
}

#[test]
fn warmed_cssrnn_step_allocates_nothing() {
    let (net, _) = world();
    let model = RnnBaseline::cssrnn(rnn_config(&net), 1);
    let dest = net.num_segments() / 2;
    let allocs = warmed_step_allocations(&net, &mut model.decoder(dest), 4);
    assert_eq!(
        allocs, 0,
        "{ITERATIONS} warmed CSSRNN steps allocated {allocs} times"
    );
}

#[test]
fn warmed_mmi_step_allocates_nothing() {
    let (net, _) = world();
    // Routes that always take each segment's first successor.
    let routes: Vec<Vec<SegmentId>> = (0..net.num_segments())
        .map(|s| {
            let mut r = vec![s];
            for _ in 0..4 {
                match net.next_segments(*r.last().unwrap()).first() {
                    Some(&next) => r.push(next),
                    None => break,
                }
            }
            r
        })
        .collect();
    let mmi = Mmi::fit(&net, &routes);
    let allocs = warmed_step_allocations(&net, &mut MmiDecoder::new(&mmi, &net), 4);
    assert_eq!(
        allocs, 0,
        "{ITERATIONS} warmed MMI steps allocated {allocs} times"
    );
}

/// Beam survivor selection through the RNN's decoder: the state alternates
/// between 3 and 5 rows, with repeated and dropped parents.
#[test]
fn warmed_rnn_gather_and_recycle_allocate_nothing() {
    let (net, _) = world();
    let model = RnnBaseline::cssrnn(rnn_config(&net), 2);
    let mut dec = model.decoder(net.num_segments() - 1);
    let mut state = dec.init_state(3);
    let mut logp = Vec::new();
    dec.step(&net, &[0, 1, 2], &mut state, &mut logp);
    let picks: [&[usize]; 2] = [&[2, 0, 1, 1, 0], &[4, 0, 3]];
    let mut cycle = |state: &mut Vec<Array>| {
        for rows in picks {
            let kept = dec.gather(state, rows);
            dec.recycle(std::mem::replace(state, kept));
        }
    };
    for _ in 0..4 {
        cycle(&mut state);
    }
    let allocs = allocations_in(|| {
        for _ in 0..ITERATIONS {
            cycle(&mut state);
        }
    });
    assert_eq!(
        allocs, 0,
        "{ITERATIONS} warmed RNN gather/recycle cycles allocated {allocs} times"
    );
}
