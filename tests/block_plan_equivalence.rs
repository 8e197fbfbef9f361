//! Equivalence and workspace-reuse properties of the precompiled block
//! plans: the plan path of `AsyncJacobiKernel` must be **bit-identical**
//! to the span-sliced reference path for arbitrary systems, partitions,
//! dampings, and sweep counts; the per-worker `BlockScratch` buffers
//! must stop allocating once their capacities stabilise and must never
//! be shared between two concurrent workers.

use block_async_relax::core::async_block::{AsyncJacobiKernel, LocalSweep};
use block_async_relax::gpu::kernel::AllowAll;
use block_async_relax::gpu::schedule::RoundRobin;
use block_async_relax::gpu::{
    BlockKernel, BlockScratch, NoMonitor, PersistentExecutor, PersistentOptions,
    PersistentWorkspace, SimExecutor, SimOptions, XView,
};
use block_async_relax::sparse::gen::{fv, laplacian_2d_5pt, laplacian_3d_7pt, random_diag_dominant};
use block_async_relax::sparse::{RowPartition, SweepTier};
use proptest::prelude::*;

/// A deterministic, seed-dependent iterate with sign changes and varied
/// magnitudes (the asynchronous executors hand the kernel iterates that
/// are nothing like smooth solutions).
fn pseudo_iterate(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = (i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 1000;
            (t as f64 / 500.0 - 1.0) * 10f64.powi((i % 5) as i32 - 2)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole invariant: for random matrices, partitions, local
    /// iteration counts, and dampings, the plan path (packed local
    /// operator + packed halo + ELL where applicable) produces the same
    /// **bits** as the reference span-sliced update.
    #[test]
    fn plan_update_is_bit_equal_to_reference(
        seed in 0u64..400,
        n in 8usize..80,
        block in 1usize..24,
        k in 1usize..6,
        damp_percent in 40u64..160,
        gs_bit in 0usize..2,
    ) {
        let a = random_diag_dominant(n, 4, 1.3, seed);
        let rhs = a.mul_vec(&pseudo_iterate(n, seed ^ 0x5a)).expect("square");
        let p = RowPartition::uniform(n, block).expect("partition");
        // hit the undamped fast path on a third of the cases
        let damping = if damp_percent % 3 == 0 { 1.0 } else { damp_percent as f64 / 100.0 };
        let sweep = if gs_bit == 1 { LocalSweep::GaussSeidel } else { LocalSweep::Jacobi };
        let kernel = AsyncJacobiKernel::with_sweep(&a, &rhs, &p, k, damping, sweep)
            .expect("diag dominant");
        let x = pseudo_iterate(n, seed);
        let mut scratch = BlockScratch::new();
        for b in 0..kernel.n_blocks() {
            let (s, e) = kernel.block_range(b);
            let mut plan_out = vec![0.0; e - s];
            let mut ref_out = vec![0.0; e - s];
            kernel.update_block_with(b, &XView::Plain(&x), &mut plan_out, &mut scratch);
            kernel.update_block_reference(b, &XView::Plain(&x), &mut ref_out);
            for (li, (pv, rv)) in plan_out.iter().zip(&ref_out).enumerate() {
                prop_assert_eq!(
                    pv.to_bits(), rv.to_bits(),
                    "row {} of block {} (k={}, tau={}, {:?}): {} vs {}",
                    li, b, k, damping, sweep, pv, rv
                );
            }
        }
    }

    /// Full-solve equivalence: a solver built today produces the same
    /// iterates whether each update goes through a shared scratch or a
    /// fresh one — scratch reuse is invisible to the numerics.
    #[test]
    fn scratch_reuse_is_invisible_to_results(
        seed in 0u64..200,
        block in 2usize..16,
    ) {
        let n = 48;
        let a = random_diag_dominant(n, 4, 1.4, seed);
        let rhs = a.mul_vec(&vec![1.0; n]).expect("square");
        let p = RowPartition::uniform(n, block).expect("partition");
        let kernel = AsyncJacobiKernel::new(&a, &rhs, &p, 3, 1.0).expect("diag dominant");
        let x = pseudo_iterate(n, seed);
        let mut shared = BlockScratch::new();
        for b in 0..kernel.n_blocks() {
            let (s, e) = kernel.block_range(b);
            let mut out_shared = vec![0.0; e - s];
            let mut out_fresh = vec![0.0; e - s];
            kernel.update_block_with(b, &XView::Plain(&x), &mut out_shared, &mut shared);
            kernel.update_block_with(
                b,
                &XView::Plain(&x),
                &mut out_fresh,
                &mut BlockScratch::new(),
            );
            prop_assert_eq!(&out_shared, &out_fresh, "block {}", b);
        }
    }
}

/// Plants `inf`/`-inf`/`NaN` at seed-chosen positions — the iterates of
/// a divergent run, which the ELL pad slot and both vectorized tiers
/// must pass through without perturbing a bit.
fn poison(x: &mut [f64], seed: u64) {
    let n = x.len() as u64;
    for j in 0..3u64 {
        let pos = (seed.wrapping_mul(6364136223846793005).wrapping_add(j * 97) % n) as usize;
        x[pos] = match j {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            _ => f64::NAN,
        };
    }
}

/// Bitwise equality, with two NaNs of any payload counting as equal (the
/// tiers run identical op sequences, but NaN payload propagation is the
/// one place IEEE 754 lets hardware differ).
fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The vectorized-ELL accumulation-order contract: with both kernels
    /// pinned to their tier via `force_tier`, the four-lane sweep must
    /// reproduce the scalar ELL sweep **bit for bit** — including on
    /// iterates carrying `inf`/`NaN`, which exercise the pad slot inside
    /// the gather lanes.
    #[test]
    fn simd_ell_sweep_is_bit_identical_to_scalar_ell(
        seed in 0u64..300,
        n in 8usize..96,
        block in 2usize..24,
        k in 1usize..6,
        damp_percent in 40u64..160,
        poison_bit in 0usize..2,
    ) {
        let a = random_diag_dominant(n, 4, 1.3, seed);
        let rhs = a.mul_vec(&pseudo_iterate(n, seed ^ 0x77)).expect("square");
        let p = RowPartition::uniform(n, block).expect("partition");
        let damping = if damp_percent % 3 == 0 { 1.0 } else { damp_percent as f64 / 100.0 };
        let mut k_scalar =
            AsyncJacobiKernel::with_sweep(&a, &rhs, &p, k, damping, LocalSweep::Jacobi)
                .expect("diag dominant");
        let mut k_simd =
            AsyncJacobiKernel::with_sweep(&a, &rhs, &p, k, damping, LocalSweep::Jacobi)
                .expect("diag dominant");
        k_scalar.force_tier(Some(SweepTier::Ell));
        k_simd.force_tier(Some(SweepTier::EllSimd));
        let mut x = pseudo_iterate(n, seed);
        if poison_bit == 1 {
            poison(&mut x, seed);
        }
        let mut s1 = BlockScratch::new();
        let mut s2 = BlockScratch::new();
        for b in 0..k_scalar.n_blocks() {
            let (s, e) = k_scalar.block_range(b);
            let mut out_scalar = vec![0.0; e - s];
            let mut out_simd = vec![0.0; e - s];
            k_scalar.update_block_with(b, &XView::Plain(&x), &mut out_scalar, &mut s1);
            k_simd.update_block_with(b, &XView::Plain(&x), &mut out_simd, &mut s2);
            for (li, (sv, vv)) in out_scalar.iter().zip(&out_simd).enumerate() {
                prop_assert!(
                    bits_eq(*sv, *vv),
                    "row {} of block {} (k={}, tau={}, poisoned={}): {} vs {}",
                    li, b, k, damping, poison_bit == 1, sv, vv
                );
            }
        }
    }

    /// The matrix-free stencil tier the plan selects on its own, against
    /// the same kernel forced onto packed CSR and against the span-sliced
    /// reference, on all three constant-coefficient generators (2D
    /// 5-point, 3D 7-point, ungraded FV). The block sizes keep at least
    /// one block on the stencil tier; blocks the plan leaves on ELL are
    /// compared too. The tiers share op order and use the stored
    /// coefficients, so the property is bitwise — non-finite iterates
    /// included.
    #[test]
    fn stencil_sweep_is_bit_identical_to_plan(
        which in 0usize..3,
        block_pick in 0usize..64,
        k in 1usize..5,
        damp_percent in 50u64..150,
        seed in 0u64..100,
        poison_bit in 0usize..2,
    ) {
        let (a, block) = match which {
            0 => (laplacian_2d_5pt(24), 48 + block_pick),
            1 => (laplacian_3d_7pt(16), 56 + block_pick),
            _ => (fv(20, 0.45, 0.0).expect("constant-coefficient fv"), 80 + block_pick),
        };
        let n = a.n_rows();
        let rhs = a.mul_vec(&pseudo_iterate(n, seed ^ 0x1d)).expect("square");
        let p = RowPartition::uniform(n, block).expect("partition");
        let damping = if damp_percent % 3 == 0 { 1.0 } else { damp_percent as f64 / 100.0 };
        let k_auto = AsyncJacobiKernel::with_sweep(&a, &rhs, &p, k, damping, LocalSweep::Jacobi)
            .expect("diag dominant");
        let mut k_csr = AsyncJacobiKernel::with_sweep(&a, &rhs, &p, k, damping, LocalSweep::Jacobi)
            .expect("diag dominant");
        k_csr.force_tier(Some(SweepTier::Csr));
        let mut x = pseudo_iterate(n, seed);
        if poison_bit == 1 {
            poison(&mut x, seed);
        }
        let mut s1 = BlockScratch::new();
        let mut s2 = BlockScratch::new();
        let mut stencil_blocks = 0;
        for b in 0..k_auto.n_blocks() {
            if k_auto.resolved_tier(b) == SweepTier::Stencil {
                stencil_blocks += 1;
            }
            let (s, e) = k_auto.block_range(b);
            let mut out_auto = vec![0.0; e - s];
            let mut out_csr = vec![0.0; e - s];
            let mut out_ref = vec![0.0; e - s];
            k_auto.update_block_with(b, &XView::Plain(&x), &mut out_auto, &mut s1);
            k_csr.update_block_with(b, &XView::Plain(&x), &mut out_csr, &mut s2);
            k_auto.update_block_reference(b, &XView::Plain(&x), &mut out_ref);
            for (li, ((tv, cv), rv)) in out_auto.iter().zip(&out_csr).zip(&out_ref).enumerate() {
                prop_assert!(
                    bits_eq(*tv, *cv) && bits_eq(*tv, *rv),
                    "generator {} row {} of block {} ({:?}, k={}, tau={}, poisoned={}): \
                     {} vs csr {} vs reference {}",
                    which, li, b, k_auto.resolved_tier(b), k, damping, poison_bit == 1,
                    tv, cv, rv
                );
            }
        }
        prop_assert!(stencil_blocks > 0, "generator {} block {}: no stencil block", which, block);
    }
}

/// The acceptance criterion on allocations: after the first full pass
/// over the blocks, the scratch buffers' pointers and capacities never
/// change again — `update_block_with` is allocation-free in steady state.
#[test]
fn scratch_capacity_stabilises_after_first_pass() {
    let n = 100;
    let a = random_diag_dominant(n, 5, 1.4, 11);
    let rhs = a.mul_vec(&vec![1.0; n]).unwrap();
    // uneven blocks: 13-row blocks with a 9-row tail, so the scratch is
    // resized down and back up across the pass
    let p = RowPartition::uniform(n, 13).unwrap();
    let kernel = AsyncJacobiKernel::new(&a, &rhs, &p, 5, 1.0).unwrap();
    let x = pseudo_iterate(n, 3);
    let mut scratch = BlockScratch::new();
    let mut out = [0.0; 13];

    let mut pass = |scratch: &mut BlockScratch| {
        for b in 0..kernel.n_blocks() {
            let (s, e) = kernel.block_range(b);
            kernel.update_block_with(b, &XView::Plain(&x), &mut out[..e - s], scratch);
        }
    };
    pass(&mut scratch);
    // cur/next swap per sweep, so compare them as an unordered pair
    let fingerprint = |s: &BlockScratch| {
        let mut bufs = [
            (s.cur.as_ptr() as usize, s.cur.capacity()),
            (s.next.as_ptr() as usize, s.next.capacity()),
        ];
        bufs.sort_unstable();
        (bufs, s.frozen.as_ptr() as usize, s.frozen.capacity())
    };
    let stable = fingerprint(&scratch);
    for _ in 0..10 {
        pass(&mut scratch);
        assert_eq!(
            fingerprint(&scratch),
            stable,
            "scratch reallocated after its capacity had stabilised"
        );
    }
}

/// A probe kernel that detects cross-worker scratch aliasing: each update
/// stamps the whole scratch with a unique tag, yields, then checks the
/// stamp survived. Two workers sharing one scratch concurrently would
/// overwrite each other's tags.
struct ScratchProbe {
    n: usize,
    block_size: usize,
    tag: abr_sync::SyncUsize,
    seen_scratches: parking_lot::Mutex<std::collections::BTreeSet<usize>>,
}

impl BlockKernel for ScratchProbe {
    fn n(&self) -> usize {
        self.n
    }
    fn n_blocks(&self) -> usize {
        self.n.div_ceil(self.block_size)
    }
    fn block_range(&self, b: usize) -> (usize, usize) {
        let s = b * self.block_size;
        (s, (s + self.block_size).min(self.n))
    }
    fn update_block(&self, b: usize, x: &XView<'_>, out: &mut [f64]) {
        let mut scratch = BlockScratch::new();
        self.update_block_with(b, x, out, &mut scratch);
    }
    fn update_block_with(
        &self,
        b: usize,
        x: &XView<'_>,
        out: &mut [f64],
        scratch: &mut BlockScratch,
    ) {
        let (s, e) = self.block_range(b);
        scratch.ensure(e - s);
        // sync: unique-tag dispenser; only RMW atomicity matters.
        let tag = self.tag.fetch_add(1, abr_sync::Ordering::Relaxed) as f64;
        for v in scratch.cur.iter_mut() {
            *v = tag;
        }
        self.seen_scratches.lock().insert(scratch.cur.as_ptr() as usize);
        std::thread::yield_now();
        for v in &scratch.cur {
            assert_eq!(*v, tag, "scratch shared between concurrent workers");
        }
        for (o, i) in out.iter_mut().zip(s..e) {
            *o = 0.5 * x.get(i);
        }
    }
}

#[test]
fn threaded_executor_gives_each_worker_its_own_scratch() {
    let probe = ScratchProbe {
        n: 64,
        block_size: 8,
        tag: abr_sync::SyncUsize::new(0),
        seen_scratches: parking_lot::Mutex::new(std::collections::BTreeSet::new()),
    };
    let workers = 4;
    let exec =
        PersistentExecutor::new(PersistentOptions { n_workers: workers, ..Default::default() });
    let mut x = vec![1.0; 64];
    let mut ws = PersistentWorkspace::new();
    let (trace, report) =
        exec.run(&probe, &mut x, 50, &mut RoundRobin, &AllowAll, &mut NoMonitor, &mut ws);
    // the executor isolates a panicking sweep and counts it, so zero
    // catches means no aliasing was ever observed
    assert_eq!(report.fault.caught_panics, 0, "scratch shared between concurrent workers");
    assert_eq!(trace.total_updates(), 50 * probe.n_blocks());
    let distinct = probe.seen_scratches.lock().len();
    assert!(
        (1..=workers).contains(&distinct),
        "expected one scratch per active worker, saw {distinct}"
    );
}

#[test]
fn sim_executor_reuses_one_scratch_for_the_whole_replay() {
    let probe = ScratchProbe {
        n: 60,
        block_size: 6, // divides n: every ensure() asks the same size
        tag: abr_sync::SyncUsize::new(0),
        seen_scratches: parking_lot::Mutex::new(std::collections::BTreeSet::new()),
    };
    let exec = SimExecutor::new(SimOptions { n_workers: 5, jitter: 0.3, seed: 7 });
    let mut x = vec![1.0; 60];
    exec.run(&probe, &mut x, 40, &mut RoundRobin, &AllowAll, |_, _| {});
    assert_eq!(
        probe.seen_scratches.lock().len(),
        1,
        "the sequential replay should drive every update through one scratch"
    );
}
