//! Precompiled block-local kernel plans.
//!
//! The paper's core performance claim (§3.3, Algorithm 1) is that the `k`
//! local Jacobi sweeps of async-(k) are nearly free because the subdomain
//! lives in the multiprocessor's cache. Realising that on any hardware
//! requires the *data layout* to cooperate: the sweep loop must touch a
//! packed local operator, not re-slice the global matrix on every pass.
//!
//! A [`BlockPlan`] compiles a `(matrix, partition)` pair once, at kernel
//! construction, into per-block structures sized for exactly that:
//!
//! * a **packed local submatrix** per block — CSR over block-rebased
//!   column indices with the diagonal extracted and pre-inverted, so the
//!   inner sweep has no `col != row` branch and no division;
//! * an **ELL-packed variant** for short-row blocks — fixed-width,
//!   column-major, zero-padded — giving the Jacobi sweep a branch-free,
//!   SIMD-friendly inner loop (padding entries point at a dedicated
//!   always-zero slot so they are numerically inert for *every* input,
//!   including non-finite iterates of divergent runs);
//! * a **packed halo segment** per block — the off-block `(column, value)`
//!   pairs of its rows, contiguous in memory — so freezing the off-block
//!   contribution `s_i = b_i − Σ_{j∉block} a_ij x_j` is a single linear
//!   gather instead of two span-sliced passes over the global CSR;
//! * **matrix-free stencil runs** for blocks whose rows repeat one
//!   coefficient pattern, derived from the packed local operator (see
//!   [`crate::stencil`] and [`STENCIL_MIN_MEAN_RUN`]).
//!
//! Entry order within each row is preserved from the source CSR, so a
//! sweep over the plan is **bit-identical** to the same sweep over the
//! global matrix (floating-point accumulation order is unchanged). The
//! equivalence proptests in the workspace root assert exactly this.

use crate::par::ParContext;
use crate::partition::{RowBlock, RowPartition};
use crate::stencil::StencilBlock;
use crate::{CsrMatrix, Result, SparseError};

/// Local-row widths up to this many off-diagonal entries get an
/// ELL-packed variant of their block (beyond it, padding waste and cache
/// pressure outweigh the branch-free loop). Raised from 8 when the
/// four-lane vectorized sweep landed: with four rows per iteration the
/// padding slots ride along in lanes that were already paid for, so wider
/// rows amortize — e.g. the 9-point FV stencil (width 8, previously right
/// at the edge) and moderately filled random rows now stay on the packed
/// path.
pub const ELL_MAX_WIDTH: usize = 12;

/// A block takes the matrix-free [`SweepTier::Stencil`] tier when its
/// local rows group into [`StencilRun`](crate::stencil::StencilRun)s of
/// at least this many rows on average (`runs × STENCIL_MIN_MEAN_RUN ≤
/// rows`): the mean run then fills at least one four-lane group, so the
/// index-free loop does most of the block's work. Rows that repeat one
/// coefficient pattern are what constant-coefficient stencils assemble
/// to; graded and unstructured matrices fall far short and keep the
/// stored-matrix tiers.
pub const STENCIL_MIN_MEAN_RUN: usize = crate::simd::LANES;

/// Below this many source nonzeros [`BlockPlan::compile`] stays on one
/// thread — scoped-thread spawn overhead would dominate the compile.
pub const PAR_COMPILE_MIN_NNZ: usize = 200_000;

/// Which sweep implementation a block's local operator dispatches to.
/// Selected per block at [`BlockPlan`] compile time; the kernels match on
/// it once per block update, outside the hot loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepTier {
    /// Packed local CSR rows — the fallback every block supports.
    Csr,
    /// Scalar loop over the ELL layout (blocks too narrow to fill
    /// four-lane groups).
    Ell,
    /// Four-row [`crate::simd::f64x4`] lanes over the ELL layout.
    EllSimd,
    /// Matrix-free runs of rows that repeat one coefficient pattern — no
    /// index loads. Selected for blocks whose runs average at least
    /// [`STENCIL_MIN_MEAN_RUN`] rows; such blocks keep their ELL data too.
    Stencil,
}

/// A fixed-width, column-major, zero-padded copy of one block's local
/// operator (diagonal excluded), for branch-free Jacobi sweeps.
///
/// Layout: `cols[k * rows + r]` / `vals[k * rows + r]` hold row `r`'s
/// `k`-th local off-diagonal entry, in source CSR order. Padding slots
/// have value `0.0` and column index `rows` — one past the local range —
/// which the sweep kernel maps to a scratch slot it keeps at `0.0`, so a
/// padded entry contributes exactly `acc -= 0.0 * 0.0` and never perturbs
/// the accumulation, even when the iterate holds `inf`/`NaN`.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockEll {
    rows: usize,
    width: usize,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl BlockEll {
    /// Rows in the block.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Padded entries per row.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Column-major, block-rebased column indices (padding = `rows`).
    #[inline]
    pub fn cols(&self) -> &[u32] {
        &self.cols
    }

    /// Column-major values (padding = `0.0`).
    #[inline]
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }
}

/// A compiled `(matrix, partition)` pair: packed local operators, packed
/// halos, pre-inverted diagonal, coupling topology, per-block costs.
///
/// # Examples
///
/// ```
/// use abr_sparse::{gen, BlockPlan, RowPartition};
///
/// let a = gen::laplacian_2d_5pt(4);
/// let p = RowPartition::uniform(16, 4).unwrap();
/// let plan = BlockPlan::compile(&a, &p).unwrap();
/// assert_eq!(plan.n_blocks(), 4);
/// // 16 diagonal + 2*3*4 in-block couplings
/// assert_eq!(plan.nnz_local(), 40);
/// assert_eq!(plan.nnz_local() + plan.nnz_halo(), a.nnz());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPlan {
    n: usize,
    /// Row range starts per block, length `n_blocks + 1`.
    block_offsets: Vec<usize>,
    /// Pre-inverted diagonal, `1 / a_rr` per row.
    inv_diag: Vec<f64>,
    /// Packed local operator (diagonal excluded), block-rebased `u32`
    /// columns, rows concatenated in global row order.
    local_row_ptr: Vec<usize>,
    local_cols: Vec<u32>,
    local_vals: Vec<f64>,
    /// Packed halo: off-block entries with global columns, rows
    /// concatenated in global row order.
    halo_row_ptr: Vec<usize>,
    halo_cols: Vec<usize>,
    halo_vals: Vec<f64>,
    /// Per block: ELL-packed local operator for short-row blocks.
    ell: Vec<Option<BlockEll>>,
    /// Per block: matrix-free stencil runs, for the blocks that take
    /// [`SweepTier::Stencil`].
    stencil: Vec<Option<StencilBlock>>,
    /// Per block: the sweep implementation selected at compile time.
    tier: Vec<SweepTier>,
    /// Per block: total source nonzeros of its rows (virtual cost).
    block_nnz: Vec<f64>,
    /// Per block: sorted indices of the other blocks it reads.
    neighbors: Vec<Vec<usize>>,
    /// Offsets into the flattened `neighbors` — kept as `Vec<Vec>` for
    /// simple borrowing; blocks are few compared to rows.
    widest_block: usize,
}

/// One block's compiled structures with block-relative row pointers,
/// produced independently of every other block and concatenated in block
/// order by the merge in [`BlockPlan::compile_with_ctx`].
struct CompiledBlock {
    inv_diag: Vec<f64>,
    local_ptr: Vec<usize>,
    local_cols: Vec<u32>,
    local_vals: Vec<f64>,
    halo_ptr: Vec<usize>,
    halo_cols: Vec<usize>,
    halo_vals: Vec<f64>,
    ell: Option<BlockEll>,
    tier: SweepTier,
    nnz: f64,
    neighbors: Vec<usize>,
}

impl BlockPlan {
    /// Compiles the plan. Fails with [`SparseError::ZeroDiagonal`] when a
    /// row has no (or a zero) diagonal entry, like the kernels it feeds.
    ///
    /// Large matrices (≥ [`PAR_COMPILE_MIN_NNZ`] nonzeros) compile their
    /// blocks concurrently on one thread per available core; the result is
    /// bit-identical to the sequential compile (see
    /// [`BlockPlan::compile_with_ctx`] for the argument).
    pub fn compile(a: &CsrMatrix, partition: &RowPartition) -> Result<BlockPlan> {
        let threads = if a.nnz() >= PAR_COMPILE_MIN_NNZ {
            std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1).min(8)
        } else {
            1
        };
        Self::compile_with_ctx(a, partition, ParContext::new(threads))
    }

    /// Compiles the plan with an explicit [`ParContext`] for the per-block
    /// compile fan-out.
    ///
    /// Each block's packed structures depend only on `(a, partition)`
    /// restricted to that block's rows, so blocks compile
    /// independently (in parallel) and are concatenated **in block order**
    /// with their row pointers rebased. Every array in the result is
    /// therefore byte-for-byte identical for every thread count, and the
    /// first error in block order matches the sequential compile's first
    /// error (each block reports its own lowest failing row).
    pub fn compile_with_ctx(
        a: &CsrMatrix,
        partition: &RowPartition,
        ctx: ParContext,
    ) -> Result<BlockPlan> {
        assert!(a.is_square(), "block plans need a square matrix");
        assert_eq!(partition.n(), a.n_rows(), "partition must cover the matrix");
        let n = a.n_rows();
        let blocks = partition.blocks();
        let n_blocks = partition.len();

        let mut block_offsets = Vec::with_capacity(n_blocks + 1);
        block_offsets.extend(blocks.iter().map(|b| b.start));
        block_offsets.push(n);

        let compiled = ctx.map_indexed(n_blocks, |b| Self::compile_block(a, partition, &blocks[b]));

        // Deterministic merge: blocks concatenate in block order with row
        // pointers rebased by the running totals, reproducing exactly the
        // arrays the single-pass sequential loop would have built.
        let total_local: usize =
            compiled.iter().map(|c| c.as_ref().map_or(0, |c| c.local_cols.len())).sum();
        let total_halo: usize =
            compiled.iter().map(|c| c.as_ref().map_or(0, |c| c.halo_cols.len())).sum();
        let mut inv_diag = vec![0.0f64; n];
        let mut local_row_ptr = Vec::with_capacity(n + 1);
        let mut local_cols: Vec<u32> = Vec::with_capacity(total_local);
        let mut local_vals: Vec<f64> = Vec::with_capacity(total_local);
        let mut halo_row_ptr = Vec::with_capacity(n + 1);
        let mut halo_cols: Vec<usize> = Vec::with_capacity(total_halo);
        let mut halo_vals: Vec<f64> = Vec::with_capacity(total_halo);
        let mut ell = Vec::with_capacity(n_blocks);
        let mut tier = Vec::with_capacity(n_blocks);
        let mut block_nnz = Vec::with_capacity(n_blocks);
        let mut neighbors: Vec<Vec<usize>> = Vec::with_capacity(n_blocks);
        let mut widest_block = 0usize;

        local_row_ptr.push(0);
        halo_row_ptr.push(0);

        for (blk, part) in blocks.iter().zip(compiled) {
            let part = part?;
            let nb = blk.len();
            widest_block = widest_block.max(nb);
            inv_diag[blk.start..blk.end].copy_from_slice(&part.inv_diag);
            let local_base = local_cols.len();
            let halo_base = halo_cols.len();
            for i in 1..=nb {
                local_row_ptr.push(local_base + part.local_ptr[i]);
                halo_row_ptr.push(halo_base + part.halo_ptr[i]);
            }
            local_cols.extend_from_slice(&part.local_cols);
            local_vals.extend_from_slice(&part.local_vals);
            halo_cols.extend_from_slice(&part.halo_cols);
            halo_vals.extend_from_slice(&part.halo_vals);
            ell.push(part.ell);
            tier.push(part.tier);
            block_nnz.push(part.nnz);
            neighbors.push(part.neighbors);
        }

        // The runs are built here, on the calling thread, after every
        // per-block part has been freed. Built inside the parallel
        // compile, these small long-lived allocations would sit above the
        // compile threads' freed temporaries and keep that memory from
        // returning to the system for the plan's lifetime (hundreds of MB
        // of extra peak RSS over repeated million-row solves).
        let stencil = (0..n_blocks)
            .map(|b| {
                let rows = &local_row_ptr[block_offsets[b]..=block_offsets[b + 1]];
                (tier[b] == SweepTier::Stencil)
                    .then(|| StencilBlock::from_local_csr(rows, &local_cols, &local_vals))
            })
            .collect();

        Ok(BlockPlan {
            n,
            block_offsets,
            inv_diag,
            local_row_ptr,
            local_cols,
            local_vals,
            halo_row_ptr,
            halo_cols,
            halo_vals,
            ell,
            stencil,
            tier,
            block_nnz,
            neighbors,
            widest_block,
        })
    }

    /// Compiles one block's packed structures, self-contained: row
    /// pointers are block-relative (rebased during the merge) and the
    /// content per row is computed exactly as the sequential loop did, so
    /// concatenation in block order reproduces it bit-for-bit.
    fn compile_block(
        a: &CsrMatrix,
        partition: &RowPartition,
        blk: &RowBlock,
    ) -> Result<CompiledBlock> {
        let nb = blk.len();
        let mut inv_diag = vec![0.0f64; nb];
        let mut local_ptr = Vec::with_capacity(nb + 1);
        let mut local_cols: Vec<u32> = Vec::new();
        let mut local_vals: Vec<f64> = Vec::new();
        let mut halo_ptr = Vec::with_capacity(nb + 1);
        let mut halo_cols: Vec<usize> = Vec::new();
        let mut halo_vals: Vec<f64> = Vec::new();
        local_ptr.push(0);
        halo_ptr.push(0);
        let mut nnz = 0usize;
        let mut max_local_width = 0usize;
        let mut nbr_seen = std::collections::BTreeSet::new();

        for r in blk.start..blk.end {
            let (cols, vals) = a.row(r);
            nnz += cols.len();
            let mut found_diag = false;
            let local_start = local_cols.len();
            for (&c, &v) in cols.iter().zip(vals) {
                if c == r {
                    if v != 0.0 {
                        inv_diag[r - blk.start] = 1.0 / v;
                        found_diag = true;
                    }
                } else if blk.contains(c) {
                    local_cols.push((c - blk.start) as u32);
                    local_vals.push(v);
                } else {
                    halo_cols.push(c);
                    halo_vals.push(v);
                    nbr_seen.insert(partition.block_of(c));
                }
            }
            if !found_diag {
                return Err(SparseError::ZeroDiagonal { row: r });
            }
            max_local_width = max_local_width.max(local_cols.len() - local_start);
            local_ptr.push(local_cols.len());
            halo_ptr.push(halo_cols.len());
        }

        let ell = if max_local_width <= ELL_MAX_WIDTH && nb > 0 {
            Some(Self::pack_ell(&local_ptr, &local_cols, &local_vals, nb, max_local_width))
        } else {
            None
        };
        let tier = if StencilBlock::qualifies(&local_ptr, &local_cols, &local_vals) {
            SweepTier::Stencil
        } else if ell.is_some() && nb >= crate::simd::LANES {
            SweepTier::EllSimd
        } else if ell.is_some() {
            SweepTier::Ell
        } else {
            SweepTier::Csr
        };
        Ok(CompiledBlock {
            inv_diag,
            local_ptr,
            local_cols,
            local_vals,
            halo_ptr,
            halo_cols,
            halo_vals,
            ell,
            tier,
            nnz: nnz as f64,
            neighbors: nbr_seen.into_iter().collect(),
        })
    }

    fn pack_ell(
        row_ptr: &[usize],
        all_cols: &[u32],
        all_vals: &[f64],
        rows: usize,
        width: usize,
    ) -> BlockEll {
        // Padding: value 0.0, column `rows` (the sweep scratch keeps an
        // always-zero slot there, see module docs).
        let mut cols = vec![rows as u32; rows * width];
        let mut vals = vec![0.0f64; rows * width];
        for r in 0..rows {
            let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
            for (k, j) in (lo..hi).enumerate() {
                cols[k * rows + r] = all_cols[j];
                vals[k * rows + r] = all_vals[j];
            }
        }
        BlockEll { rows, width, cols, vals }
    }

    /// Number of rows covered.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of blocks.
    #[inline]
    pub fn n_blocks(&self) -> usize {
        self.block_offsets.len() - 1
    }

    /// Half-open row range of block `b`.
    #[inline]
    pub fn block_rows(&self, b: usize) -> (usize, usize) {
        (self.block_offsets[b], self.block_offsets[b + 1])
    }

    /// Rows of the widest block (sizes every per-update scratch buffer).
    #[inline]
    pub fn widest_block(&self) -> usize {
        self.widest_block
    }

    /// Pre-inverted diagonal, indexed by global row.
    #[inline]
    pub fn inv_diag(&self) -> &[f64] {
        &self.inv_diag
    }

    /// Packed local entries of global row `r` (diagonal excluded):
    /// block-rebased columns and values, in source CSR order.
    #[inline]
    pub fn local_row(&self, r: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.local_row_ptr[r], self.local_row_ptr[r + 1]);
        (&self.local_cols[lo..hi], &self.local_vals[lo..hi])
    }

    /// Packed halo entries of global row `r`: global columns and values,
    /// in source CSR order.
    #[inline]
    pub fn halo_row(&self, r: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.halo_row_ptr[r], self.halo_row_ptr[r + 1]);
        (&self.halo_cols[lo..hi], &self.halo_vals[lo..hi])
    }

    /// ELL-packed local operator of block `b`, when the block qualifies
    /// (all local rows at most [`ELL_MAX_WIDTH`] off-diagonal entries).
    #[inline]
    pub fn ell(&self, b: usize) -> Option<&BlockEll> {
        self.ell[b].as_ref()
    }

    /// Matrix-free stencil runs of block `b`, when the block takes
    /// [`SweepTier::Stencil`].
    #[inline]
    pub fn stencil_block(&self, b: usize) -> Option<&StencilBlock> {
        self.stencil[b].as_ref()
    }

    /// The sweep tier selected for block `b` at compile time.
    #[inline]
    pub fn tier(&self, b: usize) -> SweepTier {
        self.tier[b]
    }

    /// Total source nonzeros of block `b`'s rows (virtual update cost).
    #[inline]
    pub fn block_nnz(&self, b: usize) -> f64 {
        self.block_nnz[b]
    }

    /// Sorted indices of the blocks whose components block `b` reads.
    #[inline]
    pub fn neighbors(&self, b: usize) -> &[usize] {
        &self.neighbors[b]
    }

    /// Nonzeros inside the partition's diagonal blocks (the `nnz_local`
    /// input of the timing model); counts the diagonal.
    pub fn nnz_local(&self) -> usize {
        self.local_cols.len() + self.n
    }

    /// Off-block nonzeros (the gathered halo entries).
    pub fn nnz_halo(&self) -> usize {
        self.halo_cols.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{laplacian_2d_5pt, random_diag_dominant};

    #[test]
    fn splits_every_entry_exactly_once() {
        let a = laplacian_2d_5pt(6);
        let p = RowPartition::uniform(36, 7).unwrap();
        let plan = BlockPlan::compile(&a, &p).unwrap();
        assert_eq!(plan.nnz_local() + plan.nnz_halo(), a.nnz());
        // reassemble each row from diag + local + halo and compare
        for r in 0..36 {
            let (cols, vals) = a.row(r);
            let blk = p.block(p.block_of(r));
            let (lc, lv) = plan.local_row(r);
            let (hc, hv) = plan.halo_row(r);
            let mut rebuilt: Vec<(usize, f64)> = Vec::new();
            rebuilt.push((r, 1.0 / plan.inv_diag()[r]));
            rebuilt.extend(lc.iter().zip(lv).map(|(&c, &v)| (blk.start + c as usize, v)));
            rebuilt.extend(hc.iter().zip(hv).map(|(&c, &v)| (c, v)));
            rebuilt.sort_by_key(|&(c, _)| c);
            let original: Vec<(usize, f64)> = cols.iter().copied().zip(vals.iter().copied()).collect();
            assert_eq!(rebuilt.len(), original.len(), "row {r}");
            for ((c1, v1), &(c2, v2)) in rebuilt.into_iter().zip(&original) {
                assert_eq!(c1, c2, "row {r}");
                assert!((v1 - v2).abs() < 1e-15, "row {r}: {v1} vs {v2}");
            }
        }
    }

    #[test]
    fn halo_preserves_source_order() {
        // halo of a row = its global CSR entries outside the block, in
        // the same order (this is what makes the frozen-part gather
        // bit-identical to the span-sliced original)
        let a = random_diag_dominant(50, 6, 1.5, 3);
        let p = RowPartition::uniform(50, 11).unwrap();
        let plan = BlockPlan::compile(&a, &p).unwrap();
        for r in 0..50 {
            let blk = p.block(p.block_of(r));
            let (cols, vals) = a.row(r);
            let expect: Vec<(usize, f64)> = cols
                .iter()
                .zip(vals)
                .filter(|&(&c, _)| !blk.contains(c))
                .map(|(&c, &v)| (c, v))
                .collect();
            let (hc, hv) = plan.halo_row(r);
            let got: Vec<(usize, f64)> = hc.iter().copied().zip(hv.iter().copied()).collect();
            assert_eq!(got, expect, "row {r}");
        }
    }

    #[test]
    fn ell_packs_short_blocks_and_matches_csr() {
        let a = laplacian_2d_5pt(5); // local widths <= 2 within grid-row blocks
        let p = RowPartition::uniform(25, 5).unwrap();
        let plan = BlockPlan::compile(&a, &p).unwrap();
        for b in 0..plan.n_blocks() {
            let ell = plan.ell(b).expect("5-pt stencil rows are short");
            let (s, e) = plan.block_rows(b);
            let nb = e - s;
            assert_eq!(ell.rows(), nb);
            // every CSR entry appears at its (row, k) slot
            for (li, r) in (s..e).enumerate() {
                let (lc, lv) = plan.local_row(r);
                for (k, (&c, &v)) in lc.iter().zip(lv).enumerate() {
                    assert_eq!(ell.cols()[k * nb + li], c);
                    assert_eq!(ell.vals()[k * nb + li], v);
                }
                // the rest of the row is inert padding
                for k in lc.len()..ell.width() {
                    assert_eq!(ell.cols()[k * nb + li], nb as u32);
                    assert_eq!(ell.vals()[k * nb + li], 0.0);
                }
            }
        }
    }

    #[test]
    fn wide_blocks_skip_ell() {
        // one big block: local width = full row population of a dense-ish
        // random matrix exceeds ELL_MAX_WIDTH somewhere
        let a = random_diag_dominant(64, 16, 1.5, 1);
        let p = RowPartition::uniform(64, 64).unwrap();
        let plan = BlockPlan::compile(&a, &p).unwrap();
        assert!(plan.ell(0).is_none(), "wide rows must not ELL-pack");
        assert_eq!(plan.tier(0), SweepTier::Csr);
    }

    #[test]
    fn tier_selection_fires_in_order() {
        // ELL-packable block of >= 4 rows: the vectorized tier
        let a = laplacian_2d_5pt(5);
        let p = RowPartition::uniform(25, 5).unwrap();
        let plan = BlockPlan::compile(&a, &p).unwrap();
        for b in 0..plan.n_blocks() {
            assert_eq!(plan.tier(b), SweepTier::EllSimd);
            assert!(plan.stencil_block(b).is_none());
        }
        // blocks too narrow for a four-lane group: the scalar ELL tier
        let p = RowPartition::uniform(25, 3).unwrap();
        let plan = BlockPlan::compile(&a, &p).unwrap();
        assert!((0..plan.n_blocks())
            .any(|b| plan.tier(b) == SweepTier::Ell && plan.block_rows(b).1 - plan.block_rows(b).0 < 4));
        // rows repeating one pattern for four rows on average beat both:
        // one 16-wide grid row per block is three runs of 1, 14 and 1 rows
        let a = laplacian_2d_5pt(16);
        let p = RowPartition::uniform(256, 16).unwrap();
        let plan = BlockPlan::compile(&a, &p).unwrap();
        for b in 0..plan.n_blocks() {
            assert_eq!(plan.tier(b), SweepTier::Stencil);
            assert!(plan.stencil_block(b).is_some(), "stencil runs must be compiled");
        }
    }

    #[test]
    fn neighbors_match_coupling() {
        let a = laplacian_2d_5pt(4);
        let p = RowPartition::uniform(16, 4).unwrap();
        let plan = BlockPlan::compile(&a, &p).unwrap();
        assert_eq!(plan.neighbors(0), &[1]);
        assert_eq!(plan.neighbors(1), &[0, 2]);
        assert_eq!(plan.neighbors(3), &[2]);
    }

    #[test]
    fn zero_diagonal_rejected() {
        let mut coo = crate::CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 1, 2.0).unwrap();
        coo.push(1, 0, 3.0).unwrap(); // no (1,1) entry
        let a = coo.to_csr();
        let p = RowPartition::uniform(2, 1).unwrap();
        assert_eq!(
            BlockPlan::compile(&a, &p).unwrap_err(),
            SparseError::ZeroDiagonal { row: 1 }
        );
    }

    #[test]
    fn parallel_compile_is_bit_identical_to_sequential() {
        // block 144 (one block) takes the stencil tier, the others do not
        let a = laplacian_2d_5pt(12);
        for block in [5usize, 12, 31, 144] {
            let p = RowPartition::uniform(144, block).unwrap();
            let seq = BlockPlan::compile_with_ctx(&a, &p, ParContext::new(1)).unwrap();
            for threads in [2usize, 3, 7, 16] {
                let par = BlockPlan::compile_with_ctx(&a, &p, ParContext::new(threads)).unwrap();
                assert_eq!(seq, par, "block {block} threads {threads}");
            }
        }
    }

    #[test]
    fn parallel_compile_reports_the_sequential_first_error() {
        // rows 5 and 9 both lack a diagonal; every thread count must
        // report row 5 (the sequential first failure)
        let mut coo = crate::CooMatrix::new(12, 12);
        for r in 0..12 {
            if r != 5 && r != 9 {
                coo.push(r, r, 2.0).unwrap();
            }
            if r + 1 < 12 {
                coo.push(r, r + 1, -1.0).unwrap();
            }
        }
        let a = coo.to_csr();
        let p = RowPartition::uniform(12, 2).unwrap();
        for threads in [1usize, 2, 4, 8] {
            assert_eq!(
                BlockPlan::compile_with_ctx(&a, &p, ParContext::new(threads))
                    .unwrap_err(),
                SparseError::ZeroDiagonal { row: 5 },
                "threads {threads}"
            );
        }
    }

    #[test]
    fn widest_block_and_costs() {
        let a = laplacian_2d_5pt(4);
        let p = RowPartition::uniform(16, 5).unwrap();
        let plan = BlockPlan::compile(&a, &p).unwrap();
        assert_eq!(plan.widest_block(), 5);
        let total: f64 = (0..plan.n_blocks()).map(|b| plan.block_nnz(b)).sum();
        assert_eq!(total, a.nnz() as f64);
    }
}
