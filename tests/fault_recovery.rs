//! End-to-end properties of the live fault runtime at the solver level:
//! for arbitrary worker counts, block layouts, and fault/recovery
//! timings, a killed worker must cost no more than the widened staleness
//! contract `max_skew <= max_round_lag + 1 + max_outage_rounds`, and
//! recovery-(t_r) must bring the solve back to the fault-free tolerance
//! on the paper-style systems (2D Laplacian, trefethen). A poisoned
//! (panicking) kernel degrades the run without aborting it.

use block_async_relax::core::async_block::AsyncJacobiKernel;
use block_async_relax::core::{AsyncBlockSolver, FaultedSolve, SolveOptions};
use block_async_relax::gpu::kernel::AllowAll;
use block_async_relax::gpu::{FaultPlan, PersistentOptions, RunOutcome, RunSession};
use block_async_relax::sparse::gen::{laplacian_2d_5pt, trefethen};
use block_async_relax::sparse::{CsrMatrix, RowPartition};
use proptest::prelude::*;
use std::time::Duration;

fn tuning(workers: usize, lag: usize) -> PersistentOptions {
    PersistentOptions {
        n_workers: workers,
        max_round_lag: lag,
        detect_after_rounds: 4,
        // Generous: a starved-but-alive worker set (oversubscribed CI
        // box) must not read as a wedge — only a real no-recovery
        // outage should ever wait this long.
        stall_timeout: Duration::from_millis(1_500),
        ..PersistentOptions::default()
    }
}

/// One async-(k) solve on the live fault runtime under `plan`.
fn solve_under_plan(
    solver: &AsyncBlockSolver,
    a: &CsrMatrix,
    rhs: &[f64],
    partition: &RowPartition,
    opts: &SolveOptions,
    plan: &FaultPlan,
    tuning: PersistentOptions,
) -> FaultedSolve {
    let kernel =
        AsyncJacobiKernel::new(a, rhs, partition, solver.local_iters, solver.damping).unwrap();
    let x0 = vec![0.0; a.n_rows()];
    let session = RunSession { faults: Some(plan), ..RunSession::default() };
    solver.solve_session(a, rhs, &x0, &kernel, opts, &AllowAll, tuning, session)
}

fn solve_to_tol(
    a: &CsrMatrix,
    block: usize,
    tol: f64,
    budget: usize,
    plan: &FaultPlan,
    workers: usize,
) -> FaultedSolve {
    let n = a.n_rows();
    let rhs = a.mul_vec(&vec![1.0; n]).unwrap();
    let partition = RowPartition::uniform(n, block).unwrap();
    let solver = AsyncBlockSolver::async_k(5);
    let opts = SolveOptions { max_iters: budget, tol, record_history: false, check_every: 10 };
    solve_under_plan(&solver, a, &rhs, &partition, &opts, plan, tuning(workers, 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The widened staleness contract holds for any worker count, block
    /// layout, outage round, recovery delay, and lag window: the fault
    /// runtime may cost at most the realised outage on top of the
    /// fault-free `max_round_lag + 1` bound.
    #[test]
    fn widened_skew_bound_holds_for_any_fault_timing(
        workers in 2usize..6,
        block in 4usize..16,
        t0 in 0usize..20,
        t_r in 0usize..25,
        lag in 1usize..4,
        victim in 0usize..6,
    ) {
        let a = laplacian_2d_5pt(8);
        let n = a.n_rows();
        let rhs = vec![1.0; n];
        let partition = RowPartition::uniform(n, block).unwrap();
        let plan = FaultPlan::new().kill(victim % workers, t0).with_recovery(t_r);
        let solver = AsyncBlockSolver::async_k(2);
        let opts =
            SolveOptions { max_iters: 40, tol: 0.0, record_history: false, check_every: 10 };
        let fs = solve_under_plan(&solver, &a, &rhs, &partition, &opts, &plan, tuning(workers, lag));
        let fault = &fs.report.fault;
        prop_assert!(
            fs.trace.max_skew <= lag + 1 + fault.max_outage_rounds,
            "skew {} exceeds widened bound {} + 1 + {} (outcome {:?})",
            fs.trace.max_skew, lag, fault.max_outage_rounds, fs.report.outcome
        );
        // A recovery plan must never leave the run wedged: either the
        // budget drains (Completed / Stopped), never a Stalled verdict.
        prop_assert!(
            fs.report.outcome != RunOutcome::Stalled,
            "recovery-({t_r}) must unwedge the run: {:?}", fs.report.fault
        );
    }
}

/// Recovery-(t_r) reaches the fault-free tolerance on the 100x100
/// 2D Laplacian (the paper's model problem shape).
#[test]
fn recovery_matches_fault_free_tolerance_on_laplacian() {
    let a = laplacian_2d_5pt(10);
    let tol = 1e-8;
    let free = solve_to_tol(&a, 10, tol, 800, &FaultPlan::new(), 4);
    assert!(free.result.converged, "fault-free baseline: {:e}", free.result.final_residual);

    let plan = FaultPlan::new().kill(1, 10).with_recovery(10);
    let faulted = solve_to_tol(&a, 10, tol, 4_000, &plan, 4);
    assert!(
        faulted.result.converged,
        "recovery-(10) must reach the fault-free tolerance: {:e} ({:?})",
        faulted.result.final_residual,
        faulted.report.outcome
    );
    let fault = &faulted.report.fault;
    assert_eq!(fault.reassignments.len(), 1, "the orphaned shard must be adopted: {fault:?}");
    assert!(fault.frozen_spans.iter().all(|s| s.thawed), "every outage must end: {fault:?}");
}

/// Same contract on trefethen(400) — an irregular-stencil system far
/// from the Laplacian's banded structure.
#[test]
fn recovery_matches_fault_free_tolerance_on_trefethen() {
    let a = trefethen(400).unwrap();
    let tol = 1e-8;
    let free = solve_to_tol(&a, 25, tol, 800, &FaultPlan::new(), 4);
    assert!(free.result.converged, "fault-free baseline: {:e}", free.result.final_residual);

    let plan = FaultPlan::new().kill(2, 10).with_recovery(10);
    let faulted = solve_to_tol(&a, 25, tol, 4_000, &plan, 4);
    assert!(
        faulted.result.converged,
        "recovery-(10) must reach the fault-free tolerance: {:e} ({:?})",
        faulted.result.final_residual,
        faulted.report.outcome
    );
    assert_eq!(faulted.report.fault.reassignments.len(), 1);
}

/// A panicking kernel degrades the run without aborting it: every sweep
/// of the poisoned worker is isolated by `catch_unwind`, its commits are
/// dropped, and the healthy workers still converge the solve.
#[test]
fn poisoned_worker_degrades_without_aborting() {
    let a = laplacian_2d_5pt(10);
    let plan = FaultPlan::new().poison(0, 3);
    let fs = solve_to_tol(&a, 10, 1e-8, 1_600, &plan, 4);
    assert!(fs.report.fault.caught_panics > 0, "the poison must actually fire");
    assert!(
        fs.result.converged,
        "healthy workers must still converge: {:e}",
        fs.result.final_residual
    );
    // A panicking sweep is not an outage: nothing freezes, nothing is
    // reassigned.
    assert!(fs.report.fault.frozen_spans.is_empty());
    assert!(fs.report.fault.reassignments.is_empty());
    assert_eq!(fs.report.fault.max_outage_rounds, 0);
}
