//! Executor throughput: the persistent-worker fabric (the real-thread
//! executor behind `ExecutorKind::Threaded`) against the discrete-event
//! simulator.
//!
//! The headline measurement is **solve-to-tolerance** with the default
//! `check_every = 10` on a deliberately small system (n = 256, 16
//! blocks), so dispatch overhead dominates per-round compute — the
//! regime the paper targets, where kernel-launch/host-sync cost is what
//! block-asynchronous execution amortises away. The persistent fabric
//! spawns its workers once per solve and checks convergence
//! concurrently; it may run extra global iterations past the crossing
//! point before the monitor lands its check — the paper's async
//! tradeoff: more iterations, less wall time. `BENCH_executors.json`
//! keeps the historical comparison against the retired chunked-respawn
//! executor. Set `CRITERION_JSON=BENCH_executors.json` to record the
//! numbers.

use crate::{bench_partition, bench_system};
use abr_core::{AsyncBlockSolver, ExecutorKind, SolveOptions};
use abr_gpu::{SimOptions, ThreadedOptions};
use criterion::{black_box, BenchmarkId, Criterion};

/// Solve-to-tolerance on the persistent fabric at two worker counts.
pub fn bench_solve_to_tolerance(c: &mut Criterion) {
    let (a, b, x0) = bench_system(16); // n = 256
    let p = bench_partition(a.n_rows(), 16);
    let opts = SolveOptions {
        max_iters: 20_000,
        tol: 1e-8,
        record_history: false,
        check_every: 10,
    };
    let mut group = c.benchmark_group("executors_solve_1e-8");
    group.sample_size(10);
    for workers in [8usize, 16] {
        let persistent = AsyncBlockSolver {
            executor: ExecutorKind::Threaded(ThreadedOptions {
                n_workers: workers,
                snapshot_rounds: false,
            }),
            ..AsyncBlockSolver::async_k(5)
        };
        group.bench_with_input(
            BenchmarkId::new("persistent", workers),
            &workers,
            |bch, _| {
                bch.iter(|| black_box(persistent.solve(&a, &b, &x0, &p, &opts).expect("solve")))
            },
        );
    }
    group.finish();
}

/// Fixed global-iteration budget on both fabrics (the original
/// throughput comparison, kept for continuity; the `threads` rows run the
/// persistent executor).
pub fn bench_fixed_budget(c: &mut Criterion) {
    let (a, b, x0) = bench_system(60);
    let p = bench_partition(a.n_rows(), 120);
    let opts = SolveOptions::fixed_iterations(10);
    let mut group = c.benchmark_group("executors_10_globals");
    group.sample_size(20);

    let sim = AsyncBlockSolver {
        executor: ExecutorKind::Sim(SimOptions::default()),
        ..AsyncBlockSolver::async_k(5)
    };
    group.bench_function("discrete_event", |bch| {
        bch.iter(|| black_box(sim.solve(&a, &b, &x0, &p, &opts).expect("solve")))
    });

    for workers in [2usize, 4, 8] {
        let thr = AsyncBlockSolver {
            executor: ExecutorKind::Threaded(ThreadedOptions {
                n_workers: workers,
                snapshot_rounds: false,
            }),
            ..AsyncBlockSolver::async_k(5)
        };
        group.bench_with_input(
            BenchmarkId::new("threads", workers),
            &workers,
            |bch, _| bch.iter(|| black_box(thr.solve(&a, &b, &x0, &p, &opts).expect("solve"))),
        );
    }
    group.finish();
}

/// The whole suite.
pub fn all(c: &mut Criterion) {
    bench_solve_to_tolerance(c);
    bench_fixed_budget(c);
}
