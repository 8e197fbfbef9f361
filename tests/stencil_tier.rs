//! The matrix-free stencil tier as `BlockPlan` derives it from the
//! matrix: which blocks take it, the runs it compiles, and that a block
//! that takes it sweeps to the same bits as the stored-matrix tiers.
//!
//! The run pins are FNV-1a fingerprints of every block's `StencilBlock`:
//! per run its `(lo, hi)` row range, its tap offsets and its coefficient
//! bits, in order. The systems are the three constant-coefficient
//! generators at partitions where every block takes the `Stencil` tier.
//! The runs fix the floating-point accumulation order of the matrix-free
//! sweep, so a change that moves a pin changes the numerics of that tier.

use block_async_relax::core::async_block::AsyncJacobiKernel;
use block_async_relax::core::Fnv1a;
use block_async_relax::gpu::{BlockKernel, BlockScratch, XView};
use block_async_relax::sparse::gen::{fv, laplacian_2d_5pt, laplacian_3d_7pt, random_diag_dominant};
use block_async_relax::sparse::simd::LANES;
use block_async_relax::sparse::{BlockPlan, CooMatrix, CsrMatrix, RowPartition, SweepTier};

fn runs_fingerprint(plan: &BlockPlan) -> u64 {
    let mut h = Fnv1a::new();
    h.write_usize(plan.n_blocks());
    for b in 0..plan.n_blocks() {
        assert_eq!(plan.tier(b), SweepTier::Stencil, "block {b}");
        let sb = plan.stencil_block(b).expect("stencil runs compiled");
        let (s, e) = plan.block_rows(b);
        assert!(sb.runs().len() * LANES <= e - s, "block {b}: runs too short");
        h.write_usize(sb.runs().len());
        for run in sb.runs() {
            h.write_u64(u64::from(run.lo)).write_u64(u64::from(run.hi));
            h.write_usize(run.taps.len());
            for &(off, coef) in &run.taps {
                h.write_u64(off as i64 as u64).write_f64(coef);
            }
        }
    }
    h.finish()
}

fn plan(a: &CsrMatrix, block: usize) -> BlockPlan {
    BlockPlan::compile(a, &RowPartition::uniform(a.n_rows(), block).unwrap()).unwrap()
}

#[test]
fn stencil_runs_match_their_pins() {
    let got = [
        ("laplacian_2d_5pt(32)/32", runs_fingerprint(&plan(&laplacian_2d_5pt(32), 32))),
        ("laplacian_2d_5pt(32)/48", runs_fingerprint(&plan(&laplacian_2d_5pt(32), 48))),
        ("laplacian_3d_7pt(16)/256", runs_fingerprint(&plan(&laplacian_3d_7pt(16), 256))),
        ("fv(64,1.0,0.0)/256", runs_fingerprint(&plan(&fv(64, 1.0, 0.0).unwrap(), 256))),
        ("fv(40,0.37,0.0)/100", runs_fingerprint(&plan(&fv(40, 0.37, 0.0).unwrap(), 100))),
    ];
    let pins: [u64; 5] = [
        0x51255ec67b45fa25,
        0x983620d5e069948f,
        0x7859fcf61c0b07d5,
        0x4d7901a619350155,
        0xe282d529494afcf5,
    ];
    let moved: Vec<String> = got
        .iter()
        .zip(pins)
        .filter(|((_, g), p)| g != p)
        .map(|((name, g), p)| format!("{name}: got {g:#018x}, pinned {p:#018x}"))
        .collect();
    assert!(moved.is_empty(), "moved pins:\n{}\ncomputed: {got:#018x?}", moved.join("\n"));
}

#[test]
fn the_tier_follows_the_matrix() {
    // the three ungraded FV systems at the daemon's block size: every
    // block is a few long runs of one 9-point pattern
    for m in [40, 52, 64] {
        let p = plan(&fv(m, 1.0, 0.0).unwrap(), 256);
        for b in 0..p.n_blocks() {
            assert_eq!(p.tier(b), SweepTier::Stencil, "fv({m}) block {b}");
        }
    }
    // graded FV and random rows: neighbouring rows rarely agree, so every
    // block keeps the stored-matrix tiers and compiles no runs
    let mut others = vec![("graded fv".to_string(), fv(64, 1.0, 2.0).unwrap())];
    for seed in 1..=3 {
        others.push((format!("random seed {seed}"), random_diag_dominant(3000, 8, 1.5, seed)));
    }
    for (name, a) in &others {
        let p = plan(a, 256);
        for b in 0..p.n_blocks() {
            assert_ne!(p.tier(b), SweepTier::Stencil, "{name} block {b}");
            assert!(p.stencil_block(b).is_none(), "{name} block {b}");
        }
    }
}

#[test]
fn a_perturbed_coefficient_splits_off_its_row() {
    // one 32-wide grid row per block; row 9's right neighbour moves by
    // 1e-12, so block 0's interior run breaks around it
    let base = laplacian_2d_5pt(32);
    let n = base.n_rows();
    let mut coo = CooMatrix::new(n, n);
    for r in 0..n {
        for (c, v) in base.row_iter(r) {
            coo.push(r, c, if r == 9 && c == 10 { v + 1e-12 } else { v }).unwrap();
        }
    }
    let a = coo.to_csr();
    let p = RowPartition::uniform(n, 32).unwrap();
    let rhs = a.mul_vec(&vec![1.0; n]).unwrap();
    let auto = AsyncJacobiKernel::new(&a, &rhs, &p, 3, 1.0).unwrap();
    let mut csr = AsyncJacobiKernel::new(&a, &rhs, &p, 3, 1.0).unwrap();
    csr.force_tier(Some(SweepTier::Csr));

    let runs = |b| -> Vec<(u32, u32)> {
        let sb = auto.plan().stencil_block(b).expect("still a stencil block");
        sb.runs().iter().map(|r| (r.lo, r.hi)).collect()
    };
    assert_eq!(runs(0), [(0, 1), (1, 9), (9, 10), (10, 31), (31, 32)]);
    assert_eq!(runs(1), [(0, 1), (1, 31), (31, 32)]);
    let split = &auto.plan().stencil_block(0).unwrap().runs()[2];
    assert_eq!(split.taps, [(-1, -1.0), (1, -1.0 + 1e-12)]);

    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 3.0 - 0.5).collect();
    let (mut s1, mut s2) = (BlockScratch::new(), BlockScratch::new());
    for b in 0..auto.n_blocks() {
        assert_eq!(auto.resolved_tier(b), SweepTier::Stencil, "block {b}");
        let (s, e) = auto.block_range(b);
        let (mut out_auto, mut out_csr) = (vec![0.0; e - s], vec![0.0; e - s]);
        auto.update_block_with(b, &XView::Plain(&x), &mut out_auto, &mut s1);
        csr.update_block_with(b, &XView::Plain(&x), &mut out_csr, &mut s2);
        for (li, (v1, v2)) in out_auto.iter().zip(&out_csr).enumerate() {
            assert_eq!(v1.to_bits(), v2.to_bits(), "block {b} row {li}: {v1} vs {v2}");
        }
    }
}
