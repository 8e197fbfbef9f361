//! Matrix-free sweep plans for blocks whose rows repeat one coefficient
//! pattern.
//!
//! Following *Block-Relaxation Methods for 3D Constant-Coefficient
//! Stencils on GPUs and Multicore CPUs* (arXiv:1208.1975), a relaxation
//! sweep over a constant-coefficient stencil operator needs **no stored
//! matrix at all**: every row's entries are the same few coefficients at
//! arithmetically computable neighbour positions.
//!
//! [`BlockPlan`](crate::BlockPlan) derives that structure from the
//! packed local CSR of each block: a [`StencilRun`] is a maximal stretch
//! of consecutive block rows whose `(local column − local row, value
//! bits)` lists are equal. Inside a run the sweep loop is branch-free
//! with **zero index loads** — the neighbour of local row `li` at tap
//! offset `d` is `cur[li + d]`, a contiguous vectorizable load — and the
//! taps are the stored coefficients in CSR order, so the floating-point
//! accumulation visits entries in exactly the source-CSR order with
//! bit-equal values. Rows whose in-block neighbourhood is clipped by a
//! grid edge or the block boundary simply form their own (shorter-tap)
//! runs; off-block entries are the packed-halo entries the kernel freezes
//! before sweeping, same as every other tier. A block whose runs average
//! fewer than [`STENCIL_MIN_MEAN_RUN`] rows keeps the stored-matrix tiers
//! and gets no runs.

use crate::block_plan::STENCIL_MIN_MEAN_RUN;

/// One maximal run of consecutive block-local rows sharing an in-block
/// tap set. For every row `li` in `[lo, hi)` and tap `(d, c)`, the local
/// operator entry is `c` at local column `li + d` — computed, never
/// loaded.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilRun {
    /// First block-local row of the run.
    pub lo: u32,
    /// One past the last block-local row of the run.
    pub hi: u32,
    /// `(block-local row offset, coefficient)` pairs in ascending offset
    /// order (= the source-CSR accumulation order).
    pub taps: Vec<(isize, f64)>,
}

/// The compiled matrix-free sweep plan of one block: its rows partitioned
/// into [`StencilRun`]s. Every block row belongs to exactly one run.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilBlock {
    runs: Vec<StencilRun>,
}

impl StencilBlock {
    /// Whether one block's packed local CSR (diagonal excluded,
    /// block-rebased columns) forms at most `rows / STENCIL_MIN_MEAN_RUN`
    /// runs. `ptr` holds the block's `rows + 1` row offsets into `cols`
    /// and `vals`. Allocates nothing and stops at the first run over that
    /// budget.
    pub(crate) fn qualifies(ptr: &[usize], cols: &[u32], vals: &[f64]) -> bool {
        let rows = ptr.len() - 1;
        let budget = rows / STENCIL_MIN_MEAN_RUN;
        if budget == 0 {
            return false;
        }
        let mut runs = 1usize;
        for li in 1..rows {
            if !continues_run(ptr, cols, vals, li) {
                runs += 1;
                if runs > budget {
                    return false;
                }
            }
        }
        true
    }

    /// Builds the runs of a block that [`qualifies`](Self::qualifies),
    /// from the same `(ptr, cols, vals)` view of its local CSR.
    pub(crate) fn from_local_csr(ptr: &[usize], cols: &[u32], vals: &[f64]) -> StencilBlock {
        let rows = ptr.len() - 1;
        let mut runs = Vec::new();
        let mut lo = 0usize;
        for li in 1..=rows {
            if li == rows || !continues_run(ptr, cols, vals, li) {
                let taps = (ptr[lo]..ptr[lo + 1])
                    .map(|k| (cols[k] as isize - lo as isize, vals[k]))
                    .collect();
                runs.push(StencilRun { lo: lo as u32, hi: li as u32, taps });
                lo = li;
            }
        }
        StencilBlock { runs }
    }

    /// The runs, in ascending row order, covering every block row once.
    pub fn runs(&self) -> &[StencilRun] {
        &self.runs
    }

    /// Total in-block taps across all rows (the per-sweep multiply count,
    /// which is also the roofline read traffic: one `cur` load per tap).
    pub fn nnz_local_offdiag(&self) -> usize {
        self.runs.iter().map(|r| (r.hi - r.lo) as usize * r.taps.len()).sum()
    }
}

/// Whether local row `li` holds the same taps as row `li - 1`: as many
/// entries, each one column further right, with bit-equal values.
fn continues_run(ptr: &[usize], cols: &[u32], vals: &[f64], li: usize) -> bool {
    let (prev, row) = (ptr[li - 1]..ptr[li], ptr[li]..ptr[li + 1]);
    prev.len() == row.len()
        && prev
            .zip(row)
            .all(|(i, j)| cols[j] == cols[i] + 1 && vals[j].to_bits() == vals[i].to_bits())
}

#[cfg(test)]
mod tests {
    use crate::gen::{fv, laplacian_2d_5pt};
    use crate::{BlockPlan, RowPartition};

    #[test]
    fn runs_cover_every_row_once_with_sorted_taps() {
        // blocks spanning 2.5 grid rows, starting mid-row
        let a = laplacian_2d_5pt(20);
        let p = RowPartition::uniform(400, 50).unwrap();
        let plan = BlockPlan::compile(&a, &p).unwrap();
        for b in 0..plan.n_blocks() {
            let (start, end) = plan.block_rows(b);
            let sb = plan.stencil_block(b).expect("20-wide 5-point rows repeat");
            let mut covered = 0usize;
            for run in sb.runs() {
                assert!(run.lo < run.hi);
                assert_eq!(run.lo as usize, covered, "runs must tile the block in order");
                covered = run.hi as usize;
                for w in run.taps.windows(2) {
                    assert!(w[0].0 < w[1].0, "taps must stay in CSR column order");
                }
                for li in run.lo..run.hi {
                    for &(off, _) in &run.taps {
                        let c = li as isize + off;
                        assert!(c >= 0 && (c as usize) < end - start, "tap escapes the block");
                    }
                }
            }
            assert_eq!(covered, end - start);
        }
    }

    #[test]
    fn in_block_taps_match_the_local_operator() {
        // every run's taps reproduce the BlockPlan's packed local rows
        let a = fv(24, 0.5, 0.0).unwrap();
        let p = RowPartition::uniform(576, 60).unwrap();
        let plan = BlockPlan::compile(&a, &p).unwrap();
        for b in 0..plan.n_blocks() {
            let (s, _) = plan.block_rows(b);
            let sb = plan.stencil_block(b).expect("ungraded fv rows repeat");
            for run in sb.runs() {
                for li in run.lo..run.hi {
                    let (lc, lv) = plan.local_row(s + li as usize);
                    assert_eq!(lc.len(), run.taps.len(), "row {}", s + li as usize);
                    for (k, &(off, coef)) in run.taps.iter().enumerate() {
                        assert_eq!(lc[k] as isize, li as isize + off);
                        assert_eq!(lv[k].to_bits(), coef.to_bits());
                    }
                }
            }
        }
    }
}
