//! Sweep-tier shootout on the async-(k) hot loop: the span-sliced
//! `reference`, the packed-CSR `csr` tier, the scalar-ELL `plan` tier
//! (PR 1's headline path, kept under its old name so the JSON stays
//! comparable), the four-lane `simd` tier, and the matrix-free `stencil`
//! tier on systems whose plan selects it.
//!
//! For each system and each k in {1, 5}, one "iteration" updates
//! **every** block once against a fixed iterate through
//! `update_block_with` with a reused scratch (the executor hot path);
//! `reference` goes through the old allocating span-sliced
//! implementation. Tiers are pinned per kernel via
//! [`AsyncJacobiKernel::force_tier`], so the same plan data is measured
//! under every loop shape.
//!
//! Every JSON line (set `CRITERION_JSON=BENCH_block_plan.json`) carries
//! `n`, `nnz`, and a modelled roofline `bytes_per_update` — the memory
//! traffic one component update costs under that tier, see
//! `bytes_per_update` in this suite. `plan` and `simd` move the same bytes; the
//! speedup between them is pure data-level parallelism, while `stencil`
//! shows up as an actual traffic drop (no stored operator).

use crate::bench_partition;
use abr_core::async_block::AsyncJacobiKernel;
use abr_gpu::{BlockKernel, BlockScratch, XView};
use abr_sparse::gen::{laplacian_2d_5pt, random_diag_dominant};
use abr_sparse::{CsrMatrix, RowPartition, SweepTier};
use criterion::{black_box, BenchmarkId, Criterion, Throughput};

fn varied_iterate(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i as f64 * 0.37).sin() + 0.1).collect()
}

fn sweep_all_blocks_plan(
    kernel: &AsyncJacobiKernel<'_>,
    x: &[f64],
    out: &mut [f64],
    scratch: &mut BlockScratch,
) {
    for b in 0..kernel.n_blocks() {
        let (s, e) = kernel.block_range(b);
        kernel.update_block_with(b, &XView::Plain(x), &mut out[..e - s], scratch);
    }
}

fn sweep_all_blocks_reference(kernel: &AsyncJacobiKernel<'_>, x: &[f64], out: &mut [f64]) {
    for b in 0..kernel.n_blocks() {
        let (s, e) = kernel.block_range(b);
        kernel.update_block_reference(b, &XView::Plain(x), &mut out[..e - s]);
    }
}

/// Modelled memory traffic per component update (bytes), the roofline
/// denominator recorded next to each timing.
///
/// Per full pass over the blocks, every tier pays the same fixed costs:
/// iterate snapshot (`n * 16` read+write), halo freeze (`nnz_halo * 24`:
/// 8-byte value + 8-byte column + 8-byte gathered iterate, plus `n * 16`
/// rhs read + frozen write), and the result copy-out (`n * 16`). Each of
/// the `k` local sweeps then adds per-row overhead (`n * 24`: frozen +
/// pre-inverted diagonal + next write) plus the tier's per-entry traffic:
///
/// * `reference` — full CSR rows: 24 B/entry (8 value + 8 `usize` column
///   + 8 iterate) over **all** `nnz`, diagonal included (it re-skips it);
/// * `csr` — packed local off-diagonals: 20 B/entry (8 + 4 `u32` + 8);
/// * `plan`/`simd` — ELL slots **including padding**: 20 B/slot; the two
///   tiers move identical bytes, by construction;
/// * `stencil` — 8 B/tap (the contiguous iterate load; coefficients and
///   offsets live in registers, zero index loads).
fn bytes_per_update(kernel: &AsyncJacobiKernel<'_>, variant: SweepTier, reference: bool, k: usize) -> f64 {
    let plan = kernel.plan();
    let n = plan.n() as f64;
    let a_nnz: f64 = (0..plan.n_blocks()).map(|b| plan.block_nnz(b)).sum();
    let fixed = n * 16.0 + plan.nnz_halo() as f64 * 24.0 + n * 16.0 + n * 16.0;
    let local_offdiag = (plan.nnz_local() - plan.n()) as f64;
    let per_sweep = if reference {
        a_nnz * 24.0 + n * 24.0
    } else {
        let entries = match variant {
            SweepTier::Csr => local_offdiag * 20.0,
            SweepTier::Ell | SweepTier::EllSimd => {
                let slots: usize = (0..plan.n_blocks())
                    .filter_map(|b| plan.ell(b))
                    .map(|e| e.rows() * e.width())
                    .sum();
                slots as f64 * 20.0
            }
            SweepTier::Stencil => {
                let taps: usize = (0..plan.n_blocks())
                    .filter_map(|b| plan.stencil_block(b))
                    .map(|sb| sb.nnz_local_offdiag())
                    .sum();
                taps as f64 * 8.0
            }
        };
        entries + n * 24.0
    };
    (fixed + k as f64 * per_sweep) / n
}

fn bench_one_system(c: &mut Criterion, label: &str, a: &CsrMatrix, p: &RowPartition) {
    let n = a.n_rows();
    let rhs = a.mul_vec(&vec![1.0; n]).expect("square");
    let x = varied_iterate(n);
    let widest = p.blocks().iter().map(|b| b.len()).max().unwrap();
    let mut out = vec![0.0; widest];

    let mut group = c.benchmark_group(format!("block_update/{label}"));
    group.throughput(Throughput::Elements(a.nnz() as u64));
    for k in [1usize, 5] {
        let kernel = AsyncJacobiKernel::new(a, &rhs, p, k, 1.0).expect("diag dominant");
        let meta = |tier: SweepTier, reference: bool| {
            [
                ("n", n as f64),
                ("nnz", a.nnz() as f64),
                ("k", k as f64),
                ("bytes_per_update", bytes_per_update(&kernel, tier, reference, k)),
            ]
        };

        group.meta(&meta(SweepTier::Csr, true));
        group.bench_with_input(BenchmarkId::new("reference", k), &k, |bch, _| {
            bch.iter(|| {
                sweep_all_blocks_reference(&kernel, black_box(&x), &mut out);
                black_box(&out);
            })
        });
        // pinned tiers over identical plan data; `plan` = PR 1's scalar ELL
        for (name, tier) in
            [("csr", SweepTier::Csr), ("plan", SweepTier::Ell), ("simd", SweepTier::EllSimd)]
        {
            let mut pinned = AsyncJacobiKernel::new(a, &rhs, p, k, 1.0).expect("diag dominant");
            pinned.force_tier(Some(tier));
            let mut scratch = BlockScratch::new();
            group.meta(&meta(tier, false));
            group.bench_with_input(BenchmarkId::new(name, k), &k, |bch, _| {
                bch.iter(|| {
                    sweep_all_blocks_plan(&pinned, black_box(&x), &mut out, &mut scratch);
                    black_box(&out);
                })
            });
        }
        // the plan's own selection, when every block takes the stencil tier
        let plan = kernel.plan();
        if (0..plan.n_blocks()).all(|b| plan.tier(b) == SweepTier::Stencil) {
            let mut scratch = BlockScratch::new();
            group.meta(&meta(SweepTier::Stencil, false));
            group.bench_with_input(BenchmarkId::new("stencil", k), &k, |bch, _| {
                bch.iter(|| {
                    sweep_all_blocks_plan(&kernel, black_box(&x), &mut out, &mut scratch);
                    black_box(&out);
                })
            });
        }
    }
    group.finish();
}

/// The acceptance-criterion system: 100x100 grid, n = 10_000, one grid
/// row per block, so every block takes the `stencil` tier.
pub fn bench_laplacian(c: &mut Criterion) {
    let a = laplacian_2d_5pt(100);
    let p = bench_partition(a.n_rows(), 100);
    bench_one_system(c, "laplacian_100x100", &a, &p);
}

/// A random strictly diagonally dominant system — no stencil structure,
/// so it exercises exactly the non-stencil tiers.
pub fn bench_random(c: &mut Criterion) {
    let a = random_diag_dominant(10_000, 6, 1.4, 42);
    let p = bench_partition(a.n_rows(), 100);
    bench_one_system(c, "random_dd_10k", &a, &p);
}

/// The whole suite.
pub fn all(c: &mut Criterion) {
    bench_laplacian(c);
    bench_random(c);
}
