//! Row-blocked parameter layout for tensors too large to touch
//! monolithically.
//!
//! A [`BlockedParam`] is one logical `[rows, cols]` matrix stored as
//! consecutive row blocks of at most `block_rows` rows, each an ordinary
//! [`Param`]. Everything downstream — tape binding, gradient accumulation,
//! clipping, the optimizer, checkpointing — operates on the per-block
//! `Param`s, so:
//!
//! - a forward pass binds (copies onto the tape) only the blocks its
//!   lookups touch; cold blocks cost **zero tape bytes**;
//! - gradients and optimizer moments materialize lazily per block (see
//!   [`Param`]'s empty-sentinel gradients); cold blocks cost **zero
//!   gradient/moment bytes**;
//! - checkpoints serialize each block as its own named tensor entry.
//!
//! **Residency rule:** a block becomes *resident* the first time a lookup
//! gradient touches it, and stays resident for the life of the process
//! (its gradient/moment buffers are retained, zeroed between steps). The
//! resident set is therefore the union of all rows ever trained on —
//! bounded by workload locality, not by vocabulary size.
//!
//! **Bit-identity:** a `BlockedParam` whose rows were initialized with the
//! per-row deterministic streams of [`crate::init::randn_rows`] holds
//! exactly the bytes of the equivalent dense table, block boundaries
//! included; combined with order-preserving blocked gather
//! ([`crate::ops::gather_rows_blocked`]) and chained-accumulator grouped
//! clipping ([`crate::optim::clip_grad_norm_grouped`]), training on the
//! blocked layout is bit-identical to the dense layout.

use crate::array::Array;
use crate::param::Param;

/// A `[rows, cols]` matrix partitioned into consecutive row blocks, each a
/// [`Param`] of at most `block_rows` rows. See the module docs for the
/// residency and bit-identity contracts.
#[derive(Debug)]
pub struct BlockedParam {
    name: String,
    rows: usize,
    cols: usize,
    block_rows: usize,
    blocks: Vec<Param>,
}

impl BlockedParam {
    /// Build a blocked `[rows, cols]` matrix whose row `r` is filled by
    /// `fill_row(r, buf)`. Rows are generated in vocabulary order, one
    /// block at a time; because `fill_row` receives the *global* row index,
    /// the produced bytes do not depend on `block_rows`.
    ///
    /// With a single block the block's `Param` is named `name` verbatim
    /// (the dense layout, and the legacy checkpoint entry name); with
    /// several, block `i` is `name.b{i}`.
    pub fn from_rows(
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        block_rows: usize,
        mut fill_row: impl FnMut(usize, &mut [f32]),
    ) -> Self {
        let name = name.into();
        assert!(rows > 0 && cols > 0, "blocked param must be non-empty");
        assert!(block_rows > 0, "block_rows must be positive");
        let n_blocks = rows.div_ceil(block_rows);
        let mut blocks = Vec::with_capacity(n_blocks);
        for b in 0..n_blocks {
            let lo = b * block_rows;
            let hi = (lo + block_rows).min(rows);
            let mut value = Array::zeros(&[hi - lo, cols]);
            for r in lo..hi {
                fill_row(r, value.row_mut(r - lo));
            }
            let block_name = if n_blocks == 1 {
                name.clone()
            } else {
                format!("{name}.b{b}")
            };
            blocks.push(Param::new(block_name, value));
        }
        Self {
            name,
            rows,
            cols,
            block_rows,
            blocks,
        }
    }

    /// Build from an existing dense `[rows, cols]` array (tests, format
    /// migration).
    pub fn from_dense(name: impl Into<String>, dense: &Array, block_rows: usize) -> Self {
        assert_eq!(dense.ndim(), 2, "from_dense expects a 2-D array");
        let (rows, cols) = (dense.shape()[0], dense.shape()[1]);
        Self::from_rows(name, rows, cols, block_rows, |r, buf| {
            buf.copy_from_slice(dense.row(r))
        })
    }

    /// The logical tensor's name (block `Param`s are `name.b{i}`, or `name`
    /// itself when there is a single block).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total logical rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns (identical across blocks).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Rows per block (the last block may be shorter).
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Number of row blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Map a global row to its `(block index, row within block)`.
    pub fn locate(&self, row: usize) -> (usize, usize) {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        (row / self.block_rows, row % self.block_rows)
    }

    /// One block's backing [`Param`].
    pub fn block(&self, b: usize) -> &Param {
        &self.blocks[b]
    }

    /// All blocks, in row order.
    pub fn blocks(&self) -> &[Param] {
        &self.blocks
    }

    /// Copy one logical row out of its block.
    pub fn row_copy(&self, row: usize, out: &mut [f32]) {
        let (b, r) = self.locate(row);
        out.copy_from_slice(self.blocks[b].value().row(r));
    }

    /// Materialize the dense `[rows, cols]` equivalent (the parity
    /// oracles compare through it) — the one deliberate full-size
    /// allocation in the blocked API.
    pub fn to_dense(&self) -> Array {
        let mut out = Array::zeros(&[self.rows, self.cols]);
        let mut row = 0;
        for p in &self.blocks {
            let v = p.value();
            for r in 0..v.shape()[0] {
                out.row_mut(row).copy_from_slice(v.row(r));
                row += 1;
            }
        }
        out
    }

    /// Bytes held by block values (always resident in this layout).
    pub fn value_bytes(&self) -> usize {
        self.rows * self.cols * std::mem::size_of::<f32>()
    }

    /// Bytes held by *materialized* gradient buffers — the resident set.
    /// Cold blocks contribute zero.
    pub fn resident_grad_bytes(&self) -> usize {
        self.blocks
            .iter()
            .map(|p| p.grad().len() * std::mem::size_of::<f32>())
            .sum()
    }

    /// Number of blocks whose gradient has ever been touched.
    pub fn resident_blocks(&self) -> usize {
        self.blocks.iter().filter(|p| p.grad_allocated()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    #[test]
    fn blocking_is_invisible_in_the_bytes() {
        // Same per-row init, three different block sizes → identical dense
        // bytes, including a short final block.
        let dense = init::randn_rows(10, 3, 0.1, 42);
        for block_rows in [1usize, 4, 10, 64] {
            let bp = BlockedParam::from_rows("t", 10, 3, block_rows, |r, buf| {
                init::fill_normal_row(buf, 0.1, 42, r)
            });
            assert_eq!(
                bp.to_dense().data(),
                dense.data(),
                "block_rows {block_rows}"
            );
            assert_eq!(bp.num_blocks(), 10usize.div_ceil(block_rows));
        }
    }

    #[test]
    fn locate_and_row_copy_agree_with_dense() {
        let dense = init::randn_rows(9, 2, 1.0, 7);
        let bp = BlockedParam::from_dense("t", &dense, 4);
        assert_eq!(bp.num_blocks(), 3);
        assert_eq!(bp.block(2).value().shape(), &[1, 2]);
        for row in 0..9 {
            let (b, r) = bp.locate(row);
            assert_eq!(b, row / 4);
            assert_eq!(r, row % 4);
            let mut buf = [0.0f32; 2];
            bp.row_copy(row, &mut buf);
            assert_eq!(&buf, dense.row(row));
        }
    }

    #[test]
    fn single_block_keeps_the_dense_param_name() {
        let bp = BlockedParam::from_rows("emb.table", 5, 2, 4096, |_, buf| buf.fill(0.0));
        assert_eq!(bp.num_blocks(), 1);
        assert_eq!(bp.block(0).name(), "emb.table");
        let multi = BlockedParam::from_rows("emb.table", 5, 2, 2, |_, buf| buf.fill(0.0));
        assert_eq!(multi.block(0).name(), "emb.table.b0");
        assert_eq!(multi.block(2).name(), "emb.table.b2");
    }

    #[test]
    fn residency_tracks_touched_blocks_only() {
        let bp = BlockedParam::from_rows("t", 8, 2, 2, |_, buf| buf.fill(1.0));
        assert_eq!(bp.resident_blocks(), 0);
        assert_eq!(bp.resident_grad_bytes(), 0);
        bp.block(1)
            .accumulate_grad(&Array::from_vec(&[2, 2], vec![1.0; 4]));
        assert_eq!(bp.resident_blocks(), 1);
        assert_eq!(bp.resident_grad_bytes(), 4 * 4);
        bp.block(1).zero_grad(); // stays resident
        assert_eq!(bp.resident_blocks(), 1);
        assert_eq!(bp.value_bytes(), 8 * 2 * 4);
    }
}
