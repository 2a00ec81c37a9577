//! Token embeddings (road-segment embeddings in DeepST), row-sharded.
//!
//! The table is a [`BlockedParam`]: consecutive row blocks of at most
//! [`Embedding::DEFAULT_BLOCK_ROWS`] rows, each its own `Param`. A lookup
//! binds only the blocks its indices touch, so on a graph-scale vocabulary
//! a training step's tape, gradient, and optimizer-moment bytes grow with
//! the rows *visited*, not with the vocabulary. Small vocabularies fit in
//! one block, which degenerates to exactly the old dense layout — same
//! param name, same checkpoint entries, same bits.
//!
//! Initialization draws each row from its own seeded stream keyed by
//! `(table_seed, row)` ([`init::fill_normal_row`]), so the table's bytes are
//! a function of the vocabulary order alone — never of how the rows are
//! partitioned into blocks. A sharded and a dense table built from the same
//! seed are bit-identical.

use rand::rngs::StdRng;
use rand::Rng;

use st_tensor::{infer, init, ops, Array, Binder, BlockedParam, Param, ScratchArena, Var};

use crate::module::Module;

/// A learned lookup table `[vocab, dim]`, stored as row blocks.
pub struct Embedding {
    name: String,
    table: BlockedParam,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Rows per block unless overridden: small worlds (Rivertown, Northport,
    /// the paper's Harbin graph would take four blocks) stay single-block
    /// and hence byte-identical to the historical dense layout.
    pub const DEFAULT_BLOCK_ROWS: usize = 4096;

    /// Stream id mixed into the drawn table seed. The value itself is
    /// arbitrary (any tag re-rolls every embedding init); it is pinned
    /// because the repo's seeded statistical tests — DeepST-beats-MMI,
    /// improves-with-training, the gridlock-reaction serve test — were
    /// validated against this roll.
    const TABLE_STREAM_TAG: u64 = 262;

    /// Gaussian-initialized embedding table (std 0.1), blocked at
    /// [`Embedding::DEFAULT_BLOCK_ROWS`] rows.
    ///
    /// Consumes exactly one `u64` from `rng` (the table seed); rows are
    /// then drawn from per-row streams in vocab order.
    pub fn new(name: &str, vocab: usize, dim: usize, rng: &mut StdRng) -> Self {
        Self::with_block_rows(name, vocab, dim, Self::DEFAULT_BLOCK_ROWS, rng)
    }

    /// [`Embedding::new`] with an explicit block size. `block_rows >= vocab`
    /// yields the dense (single-block) layout; the parity oracles compare a
    /// small-block table against it.
    pub fn with_block_rows(
        name: &str,
        vocab: usize,
        dim: usize,
        block_rows: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert!(
            vocab > 0 && dim > 0,
            "Embedding '{name}': dims must be positive, got vocab={vocab}, dim={dim}"
        );
        // Tagged with a fixed stream id so the table's per-row streams are
        // distinct from any other consumer keying off the same master draw.
        let table_seed: u64 = rng.gen::<u64>() ^ Self::TABLE_STREAM_TAG;
        let table =
            BlockedParam::from_rows(format!("{name}.table"), vocab, dim, block_rows, |r, buf| {
                init::fill_normal_row(buf, 0.1, table_seed, r)
            });
        Self {
            name: name.to_string(),
            table,
            vocab,
            dim,
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of row blocks backing the table.
    pub fn num_blocks(&self) -> usize {
        self.table.num_blocks()
    }

    /// The blocked table itself (bench/diagnostic access).
    pub fn table(&self) -> &BlockedParam {
        &self.table
    }

    /// Bytes of table values (resident regardless of access pattern).
    pub fn table_bytes(&self) -> usize {
        self.table.value_bytes()
    }

    /// Bytes of *materialized* gradient buffers — grows with the blocks
    /// training has touched, not with the vocabulary.
    pub fn resident_grad_bytes(&self) -> usize {
        self.table.resident_grad_bytes()
    }

    /// Blocks whose gradients have ever been touched.
    pub fn resident_blocks(&self) -> usize {
        self.table.resident_blocks()
    }

    /// Look up a batch of indices, producing `[indices.len(), dim]`.
    ///
    /// Binds (copies onto the tape) only the blocks `indices` touch, in
    /// first-touch order; cold blocks cost zero tape bytes. Rejects
    /// out-of-range indices with a diagnostic naming this layer.
    pub fn forward<'t, 'p>(&'p self, b: &Binder<'t, 'p>, indices: &[usize]) -> Var<'t> {
        self.check_indices(indices);
        let mut slot_of_block = vec![usize::MAX; self.table.num_blocks()];
        let mut vars: Vec<Var<'t>> = Vec::new();
        let mut picks = Vec::with_capacity(indices.len());
        for &i in indices {
            let (blk, row) = self.table.locate(i);
            if slot_of_block[blk] == usize::MAX {
                slot_of_block[blk] = vars.len();
                vars.push(b.var(self.table.block(blk)));
            }
            picks.push((slot_of_block[blk], row));
        }
        ops::gather_rows_blocked(&vars, &picks)
    }

    /// Tape-free lookup `indices → [indices.len(), dim]`, sharing the table
    /// with [`Embedding::forward`] (row copies, hence bit-identical).
    pub fn infer(&self, arena: &mut ScratchArena, indices: &[usize]) -> Array {
        self.check_indices(indices);
        let guards: Vec<_> = self.table.blocks().iter().map(|p| p.value()).collect();
        let refs: Vec<&Array> = guards.iter().map(|g| &**g).collect();
        let picks: Vec<(usize, usize)> = indices.iter().map(|&i| self.table.locate(i)).collect();
        infer::gather_rows_blocked(arena, &refs, &picks)
    }

    fn check_indices(&self, indices: &[usize]) {
        for &i in indices {
            assert!(
                i < self.vocab,
                "embedding index {i} >= vocab {} in layer '{}'",
                self.vocab,
                self.name
            );
        }
    }
}

impl Module for Embedding {
    fn params(&self) -> Vec<&Param> {
        self.table.blocks().iter().collect()
    }

    /// All blocks form one logical tensor: grouped clipping chains their
    /// squared norms in row order, reproducing the dense table's norm bits.
    fn param_groups(&self) -> Vec<Vec<&Param>> {
        vec![self.params()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_tensor::optim::{Adam, Optimizer};
    use st_tensor::{Array, Tape};

    #[test]
    fn lookup_shape() {
        let mut rng = init::rng(0);
        let e = Embedding::new("e", 10, 4, &mut rng);
        let tape = Tape::new();
        let b = Binder::new(&tape);
        let out = e.forward(&b, &[3, 3, 7]);
        assert_eq!(out.value().shape(), &[3, 4]);
        // duplicate indices return identical rows
        assert_eq!(out.value().row(0), out.value().row(1));
    }

    #[test]
    #[should_panic(expected = "embedding index")]
    fn out_of_range_panics() {
        let mut rng = init::rng(0);
        let e = Embedding::new("e", 4, 2, &mut rng);
        let tape = Tape::new();
        let b = Binder::new(&tape);
        let _ = e.forward(&b, &[4]);
    }

    #[test]
    fn only_looked_up_rows_get_gradient() {
        let mut rng = init::rng(0);
        let e = Embedding::new("e", 5, 2, &mut rng);
        let before = e.table.to_dense();
        let tape = Tape::new();
        let b = Binder::new(&tape);
        let out = e.forward(&b, &[2]);
        let loss = ops::sum_all(ops::square(out));
        let grads = tape.backward(loss);
        b.accumulate_grads(&grads);
        let mut opt = Adam::new(0.5);
        opt.step(&e.params());
        let after = e.table.to_dense();
        for r in 0..5 {
            if r == 2 {
                assert_ne!(before.row(r), after.row(r));
            } else {
                assert_eq!(before.row(r), after.row(r));
            }
        }
        let _ = Array::zeros(&[1]);
    }

    /// Same seed, any block size → bit-identical table bytes (the
    /// vocab-order-deterministic init pinned down).
    #[test]
    fn init_is_block_size_invariant() {
        let dense = Embedding::with_block_rows("e", 33, 5, usize::MAX, &mut init::rng(9));
        assert_eq!(dense.num_blocks(), 1);
        for block_rows in [1usize, 4, 8, 33] {
            let sharded = Embedding::with_block_rows("e", 33, 5, block_rows, &mut init::rng(9));
            let d = dense.table.to_dense();
            let s = sharded.table.to_dense();
            let db: Vec<u32> = d.data().iter().map(|v| v.to_bits()).collect();
            let sb: Vec<u32> = s.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(db, sb, "block_rows {block_rows}");
        }
    }

    /// Forward/backward on a sharded table: only touched blocks bind to
    /// the tape and only they materialize gradients.
    #[test]
    fn cold_blocks_cost_no_tape_or_grad_bytes() {
        let mut rng = init::rng(3);
        let e = Embedding::with_block_rows("e", 16, 3, 4, &mut rng); // 4 blocks
        assert_eq!(e.num_blocks(), 4);
        let tape = Tape::new();
        let b = Binder::new(&tape);
        // indices touch blocks 0 and 2 only
        let out = e.forward(&b, &[1, 9, 2, 8]);
        assert_eq!(out.value().shape(), &[4, 3]);
        assert_eq!(b.bound_params().len(), 2, "only touched blocks bound");
        let grads = tape.backward(ops::sum_all(ops::square(out)));
        b.accumulate_grads(&grads);
        assert_eq!(e.resident_blocks(), 2);
        assert_eq!(e.resident_grad_bytes(), 2 * 4 * 3 * 4);
    }

    /// The blocked forward and infer paths must match the dense layout
    /// bitwise on the same lookups.
    #[test]
    fn sharded_matches_dense_lookup_bitwise() {
        let dense = Embedding::with_block_rows("e", 21, 4, usize::MAX, &mut init::rng(5));
        let sharded = Embedding::with_block_rows("e", 21, 4, 5, &mut init::rng(5));
        let idx = [20usize, 0, 7, 13, 7, 4];

        let t1 = Tape::new();
        let b1 = Binder::new(&t1);
        let yd = dense.forward(&b1, &idx);
        let t2 = Tape::new();
        let b2 = Binder::new(&t2);
        let ys = sharded.forward(&b2, &idx);
        let ydb: Vec<u32> = yd.value().data().iter().map(|v| v.to_bits()).collect();
        let ysb: Vec<u32> = ys.value().data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(ydb, ysb);

        let mut arena = ScratchArena::new();
        let id = dense.infer(&mut arena, &idx);
        let is = sharded.infer(&mut arena, &idx);
        assert_eq!(id.data(), is.data());
        assert_eq!(id.data(), yd.value().data());
    }
}
