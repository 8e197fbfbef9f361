//! The multi-million-row scaling suite: setup → solve → converge on the
//! paper's finite-volume family at `n` in the millions, on the
//! persistent-worker executor.
//!
//! The system is the screened 9-point FEM/FV Poisson operator
//! (`fv_stencil(m, sigma)`, `n = m^2`): with `sigma = 1.0` its Jacobi
//! spectral radius is `(8/3) / (8/3 + 1) ≈ 0.73`, so async-(5) reaches
//! `1e-8` in tens of global rounds — a *solvable* million-row problem,
//! unlike the pure Laplacian whose `rho -> 1` puts the tolerance out of
//! any benchmark's reach. Four groups:
//!
//! 1. `scale_solve_1e-8` — the worker-count curve (fused monitoring) plus
//!    the fused-vs-exact monitor comparison at 8 and 16 workers: the
//!    acceptance claim that worker-side residual fusion beats the
//!    exact-SpMV monitor baseline wall-clock at scale.
//! 2. `scale_shards` — the shard-count curve at a fixed worker count.
//! 3. `scale_poll_cost` — one monitor poll, priced directly: the fused
//!    O(n_blocks) slot reduce at a fixed 256 blocks against the exact
//!    O(nnz) residual, at two grid sizes. The fused cost is flat while
//!    nnz quadruples — the "monitor poll cost independent of nnz" claim.
//! 4. `scale_compile` — plan compilation, sequential vs parallel.
//!
//! `ABR_SCALE_GRID` overrides the grid edge `m` (default 1024, i.e.
//! `n = 1_048_576`); CI smoke sets it small. Set
//! `CRITERION_JSON=BENCH_scale.json` to record the numbers.

use abr_core::async_block::AsyncJacobiKernel;
use abr_core::convergence::relative_residual_with;
use abr_core::{LocalSweep, ResidualMonitor};
use abr_gpu::kernel::AllowAll;
use abr_gpu::schedule::RoundRobin;
use abr_gpu::{
    PersistentExecutor, PersistentOptions, PersistentWorkspace, ResidualSlots, RunSession,
    ShardPlan,
};
use abr_sparse::gen::fv_stencil;
use abr_sparse::{BlockPlan, CsrMatrix, ParContext, RowPartition, StencilDescriptor};
use criterion::{black_box, BenchmarkId, Criterion};

const SIGMA: f64 = 1.0;
const TOL: f64 = 1e-8;
const MAX_ROUNDS: usize = 50_000;
/// Fixed block count across grid sizes, so the fused monitor's per-poll
/// work is identical at every size in the poll-cost group.
const N_BLOCKS: usize = 256;

/// Grid edge `m` (`n = m^2`), reduced via `ABR_SCALE_GRID` for smoke runs.
pub fn grid_m() -> usize {
    std::env::var("ABR_SCALE_GRID")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1024)
        .max(8)
}

fn system(m: usize) -> (CsrMatrix, StencilDescriptor, Vec<f64>, RowPartition) {
    let (a, d) = fv_stencil(m, SIGMA).expect("fv stencil");
    let n = a.n_rows();
    let rhs = a.mul_vec(&vec![1.0; n]).expect("square");
    let block = (n / N_BLOCKS).max(1);
    let p = RowPartition::uniform(n, block).expect("partition");
    (a, d, rhs, p)
}

/// One persistent solve to `TOL`, fused or exact-monitored; panics if the
/// tolerance is not reached, so a silently diverging bench cannot record
/// a fantasy timing.
#[allow(clippy::too_many_arguments)]
fn solve_once(
    a: &CsrMatrix,
    rhs: &[f64],
    kernel: &AsyncJacobiKernel<'_>,
    workers: usize,
    fused: bool,
    ws: &mut PersistentWorkspace,
    x: &mut Vec<f64>,
    shards: Option<&ShardPlan>,
) -> usize {
    let exec = PersistentExecutor::new(PersistentOptions {
        n_workers: workers,
        fuse_residuals: fused,
        ..PersistentOptions::default()
    });
    let mut monitor = ResidualMonitor::new(a, rhs, TOL, 1);
    if !fused {
        monitor = monitor.exact_only();
    }
    x.clear();
    x.resize(a.n_rows(), 0.0);
    let mut schedule = RoundRobin;
    let (_, report) = exec.run_session(
        kernel,
        x,
        MAX_ROUNDS,
        &mut schedule,
        &AllowAll,
        &mut monitor,
        ws,
        RunSession { shards, ..RunSession::default() },
    );
    let stopped = report.stopped_at.expect("scale solve must converge within the budget");
    let mut rbuf = monitor.into_scratch();
    let rr = relative_residual_with(&mut rbuf, a, rhs, x);
    assert!(rr <= TOL, "stopped at {stopped} with residual {rr} above {TOL}");
    stopped
}

/// Worker-count scaling plus the fused-vs-exact monitor comparison.
pub fn bench_solve_scaling(c: &mut Criterion) {
    let m = grid_m();
    let (a, d, rhs, p) = system(m);
    let n = a.n_rows() as f64;
    let nnz = a.nnz() as f64;
    let kernel =
        AsyncJacobiKernel::with_sweep_and_stencil(&a, &rhs, &p, 5, 1.0, LocalSweep::Jacobi, Some(&d))
            .expect("kernel");
    let mut ws = PersistentWorkspace::new();
    let mut x = Vec::new();
    let mut group = c.benchmark_group("scale_solve_1e-8");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8, 16] {
        group.meta(&[("n", n), ("nnz", nnz), ("workers", workers as f64)]);
        group.bench_with_input(BenchmarkId::new("fused", workers), &workers, |bch, &w| {
            bch.iter(|| {
                black_box(solve_once(&a, &rhs, &kernel, w, true, &mut ws, &mut x, None))
            })
        });
    }
    // The exact-SpMV monitor baseline at the headline worker counts: the
    // pre-fusion configuration (every poll snapshots and runs an O(nnz)
    // residual), which fusion must beat wall-clock.
    for workers in [8usize, 16] {
        group.meta(&[("n", n), ("nnz", nnz), ("workers", workers as f64)]);
        group.bench_with_input(BenchmarkId::new("exact_monitor", workers), &workers, |bch, &w| {
            bch.iter(|| {
                black_box(solve_once(&a, &rhs, &kernel, w, false, &mut ws, &mut x, None))
            })
        });
    }
    group.finish();
}

/// Shard-count scaling at a fixed worker count (even block splits).
pub fn bench_shard_scaling(c: &mut Criterion) {
    let m = grid_m();
    let (a, d, rhs, p) = system(m);
    let n = a.n_rows() as f64;
    let kernel =
        AsyncJacobiKernel::with_sweep_and_stencil(&a, &rhs, &p, 5, 1.0, LocalSweep::Jacobi, Some(&d))
            .expect("kernel");
    let nb = p.blocks().len();
    let mut ws = PersistentWorkspace::new();
    let mut x = Vec::new();
    let mut group = c.benchmark_group("scale_shards");
    group.sample_size(10);
    for shards in [2usize, 4, 8] {
        let shards = shards.min(nb);
        let offsets: Vec<usize> = (0..=shards).map(|s| s * nb / shards).collect();
        let plan = ShardPlan::from_offsets(&offsets);
        group.meta(&[("n", n), ("shards", shards as f64), ("workers", 8.0)]);
        group.bench_with_input(BenchmarkId::new("even", shards), &shards, |bch, _| {
            bch.iter(|| {
                black_box(solve_once(&a, &rhs, &kernel, 8, true, &mut ws, &mut x, Some(&plan)))
            })
        });
    }
    group.finish();
}

/// One monitor poll, priced directly at two grid sizes with the block
/// count pinned: the fused reduce touches `N_BLOCKS` slots either way
/// (flat cost), the exact residual touches every nonzero (quadrupling
/// cost) — nnz-independence of the fused poll, measured.
pub fn bench_poll_cost(c: &mut Criterion) {
    let m = grid_m();
    let mut group = c.benchmark_group("scale_poll_cost");
    group.sample_size(40);
    for edge in [m / 2, m] {
        let (a, _, rhs, _) = system(edge);
        let n = a.n_rows();
        let x = vec![0.5; n];
        let mut slots = ResidualSlots::new();
        slots.reset(N_BLOCKS);
        for b in 0..N_BLOCKS {
            slots.publish(b, 1e-4 * (b + 1) as f64);
        }
        let mut rbuf = Vec::new();
        group.meta(&[("n", n as f64), ("nnz", a.nnz() as f64), ("n_blocks", N_BLOCKS as f64)]);
        group.bench_with_input(BenchmarkId::new("fused_reduce", n), &n, |bch, _| {
            bch.iter(|| black_box(slots.reduce().expect("all published")))
        });
        group.bench_with_input(BenchmarkId::new("exact_residual", n), &n, |bch, _| {
            bch.iter(|| black_box(relative_residual_with(&mut rbuf, &a, &rhs, &x)))
        });
    }
    group.finish();
}

/// Plan compilation: sequential vs parallel fan-out (streaming-ingestion
/// sibling — the other half of the setup pipeline).
pub fn bench_compile(c: &mut Criterion) {
    let m = grid_m();
    let (a, d, _, p) = system(m);
    let threads = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1).min(8);
    let mut group = c.benchmark_group("scale_compile");
    group.sample_size(10);
    group.meta(&[("n", a.n_rows() as f64), ("nnz", a.nnz() as f64), ("threads", 1.0)]);
    group.bench_function("sequential", |bch| {
        bch.iter(|| {
            black_box(
                BlockPlan::compile_with_ctx(&a, &p, Some(&d), ParContext::new(1)).expect("compile"),
            )
        })
    });
    group.meta(&[("n", a.n_rows() as f64), ("nnz", a.nnz() as f64), ("threads", threads as f64)]);
    group.bench_function("parallel", |bch| {
        bch.iter(|| {
            black_box(
                BlockPlan::compile_with_ctx(&a, &p, Some(&d), ParContext::new(threads))
                    .expect("compile"),
            )
        })
    });
    group.finish();
}

/// The whole suite.
pub fn all(c: &mut Criterion) {
    bench_solve_scaling(c);
    bench_shard_scaling(c);
    bench_poll_cost(c);
    bench_compile(c);
}
