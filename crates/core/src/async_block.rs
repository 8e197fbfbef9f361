//! **async-(k)** — the paper's block-asynchronous iteration
//! (§3.3, Algorithm 1, Eq. 4).
//!
//! The system's rows are partitioned into blocks ("subdomains", one per
//! GPU thread block). Each block update:
//!
//! 1. reads the shared iterate (possibly mid-flight values written by
//!    other blocks — the asynchronous outer loop),
//! 2. freezes the off-block contribution
//!    `s_i = b_i - sum_{j outside block} a_ij x_j`,
//! 3. performs `k` synchronous Jacobi sweeps *within* the block using the
//!    frozen off-block part,
//! 4. publishes the block's new values.
//!
//! With `k = 1` this is the paper's `async-(1)` basic asynchronous
//! iteration; `k = 5` is the `async-(5)` used throughout its evaluation.
//! The executor (from `abr-gpu`) decides the interleaving: the seeded
//! discrete-event simulator for reproducible experiments, or real threads
//! for genuine hardware chaos.

use crate::convergence::{check_system, finish, relative_residual_with, SolveOptions, SolveResult};
use abr_gpu::kernel::AllowAll;
use abr_gpu::schedule::BlockSchedule;
use abr_gpu::{
    BlockKernel, BlockScratch, ConvergenceMonitor, PersistentExecutor, PersistentOptions,
    PersistentWorkspace, RandomPermutation, RecurringPattern, RoundRobin, RunOutcome, RunSession,
    SimExecutor, SimOptions, ThreadedOptions, UpdateFilter, UpdateTrace, XView,
};
use abr_sparse::block_plan::BlockEll;
use abr_sparse::simd::{f64x4, LANES};
use abr_sparse::stencil::StencilBlock;
use abr_sparse::{BlockPlan, CsrMatrix, Result, RowPartition, SweepTier};

/// Which block-dispatch schedule the solver uses (see
/// [`abr_gpu::schedule`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleKind {
    /// Blocks in index order every round.
    RoundRobin,
    /// Fresh seeded shuffle every round.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// One seeded shuffle reused every round (the paper's inferred GPU
    /// behaviour).
    Recurring {
        /// RNG seed.
        seed: u64,
    },
}

impl ScheduleKind {
    fn build(&self) -> Box<dyn BlockSchedule> {
        match *self {
            ScheduleKind::RoundRobin => Box::new(RoundRobin),
            ScheduleKind::Random { seed } => Box::new(RandomPermutation::new(seed)),
            ScheduleKind::Recurring { seed } => Box::new(RecurringPattern::new(seed)),
        }
    }
}

/// The inner (subdomain) sweep type. Algorithm 1 of the paper uses
/// Jacobi sweeps; its reference for the idea — Bai, Migallón, Penadés,
/// Szyld, *Block and asynchronous two-stage methods* — allows any inner
/// solver, and Gauss-Seidel is the natural stronger choice (free on a
/// single SM where the block is processed by cooperating threads anyway).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocalSweep {
    /// Jacobi sweeps on the subdomain (the paper's Algorithm 1).
    #[default]
    Jacobi,
    /// Gauss-Seidel sweeps on the subdomain (two-stage variant).
    GaussSeidel,
}

/// Which execution fabric runs the blocks.
#[derive(Debug, Clone)]
pub enum ExecutorKind {
    /// Seeded discrete-event simulation (reproducible).
    Sim(SimOptions),
    /// Real OS threads over an atomic shared vector (non-deterministic),
    /// run by the persistent-worker executor ([`abr_gpu::persistent`]):
    /// workers spawned once, convergence checked concurrently by the
    /// calling thread. Records no per-round history — a threaded solve
    /// returns an empty [`SolveResult::history`] even when
    /// [`SolveOptions::record_history`] is set.
    Threaded(ThreadedOptions),
}

impl Default for ExecutorKind {
    fn default() -> Self {
        ExecutorKind::Sim(SimOptions::default())
    }
}

/// The block-asynchronous solver configuration.
///
/// # Examples
///
/// ```
/// use abr_core::{AsyncBlockSolver, SolveOptions};
/// use abr_sparse::{gen, RowPartition};
///
/// let a = gen::laplacian_2d_5pt(10);
/// let b = a.mul_vec(&vec![1.0; 100]).unwrap();
/// let partition = RowPartition::uniform(100, 20).unwrap();
/// let result = AsyncBlockSolver::async_k(5)
///     .solve(&a, &b, &vec![0.0; 100], &partition,
///            &SolveOptions::to_tolerance(1e-9, 10_000))
///     .unwrap();
/// assert!(result.converged);
/// ```
#[derive(Debug, Clone)]
pub struct AsyncBlockSolver {
    /// Number of local Jacobi sweeps per block update (the `k` in
    /// async-(k)). The paper settles on 5 (§4.3).
    pub local_iters: usize,
    /// Block dispatch order.
    pub schedule: ScheduleKind,
    /// Execution fabric.
    pub executor: ExecutorKind,
    /// Relaxation damping `tau` applied to every component update
    /// (`1.0` = plain Jacobi update; §4.2's remedy for `rho(B) > 1`
    /// systems uses `tau = 2/(lambda_1 + lambda_n)`).
    pub damping: f64,
    /// Inner sweep type on the subdomains.
    pub local_sweep: LocalSweep,
}

impl Default for AsyncBlockSolver {
    /// The paper's tuned configuration. The executor runs 4 concurrent
    /// block groups rather than one per SM: the paper launches its
    /// kernels through a tuned number of CUDA *streams*, and successive
    /// launches within a stream serialise — so the effective concurrency
    /// of block updates is the stream count, not the SM count. Lower
    /// concurrency means more updates read freshly written neighbours
    /// (the "block Gauss-Seidel flavor" the paper notes), which is what
    /// buys async-(5) its ~2x-over-Gauss-Seidel convergence on the fv
    /// family. Raise `n_workers` to explore the fully concurrent end.
    fn default() -> Self {
        AsyncBlockSolver {
            local_iters: 5,
            schedule: ScheduleKind::Random { seed: 0 },
            executor: ExecutorKind::Sim(SimOptions { n_workers: 4, jitter: 0.3, seed: 0 }),
            damping: 1.0,
            local_sweep: LocalSweep::Jacobi,
        }
    }
}

impl AsyncBlockSolver {
    /// async-(k) with the given local iteration count, defaults otherwise.
    pub fn async_k(local_iters: usize) -> Self {
        AsyncBlockSolver { local_iters, ..Default::default() }
    }

    /// Solves `A x = b` from `x0` over the row partition.
    pub fn solve(
        &self,
        a: &CsrMatrix,
        rhs: &[f64],
        x0: &[f64],
        partition: &RowPartition,
        opts: &SolveOptions,
    ) -> Result<SolveResult> {
        self.solve_filtered(a, rhs, x0, partition, opts, &AllowAll)
    }

    /// Solves with an [`UpdateFilter`] deciding which updates commit —
    /// the fault-injection entry point used by `abr-fault`. Filter rounds
    /// are global-iteration indices from the start of the solve.
    pub fn solve_filtered(
        &self,
        a: &CsrMatrix,
        rhs: &[f64],
        x0: &[f64],
        partition: &RowPartition,
        opts: &SolveOptions,
        filter: &dyn UpdateFilter,
    ) -> Result<SolveResult> {
        let kernel = self.compile(a, rhs, partition)?;
        self.solve_with_kernel(a, rhs, x0, &kernel, opts, filter)
    }

    /// Compiles this solver's block kernel (its `k`, damping and sweep
    /// type) for the system over `partition`.
    fn compile<'a>(
        &self,
        a: &'a CsrMatrix,
        rhs: &'a [f64],
        partition: &RowPartition,
    ) -> Result<AsyncJacobiKernel<'a>> {
        assert_eq!(partition.n(), a.n_rows(), "partition must cover the system");
        AsyncJacobiKernel::with_sweep(
            a,
            rhs,
            partition,
            self.local_iters,
            self.damping,
            self.local_sweep,
        )
    }

    /// Solves with an already-compiled kernel. This lets callers that
    /// need the kernel for other purposes (e.g. `abr-multigpu` feeds
    /// [`AsyncJacobiKernel::nnz_local`] to the timing model) compile the
    /// block plan once instead of once per use. The kernel's numerics
    /// (`k`, damping, sweep type) are its own; `self` contributes the
    /// schedule and the executor. On [`ExecutorKind::Threaded`] this is
    /// [`solve_session`](Self::solve_session) with the executor's
    /// [`persistent_options`](Self::persistent_options) and a plain
    /// session; on [`ExecutorKind::Sim`] the simulator runs in chunks of
    /// `check_every` rounds with a host-side residual check
    /// between chunks.
    pub fn solve_with_kernel(
        &self,
        a: &CsrMatrix,
        rhs: &[f64],
        x0: &[f64],
        kernel: &AsyncJacobiKernel<'_>,
        opts: &SolveOptions,
        filter: &dyn UpdateFilter,
    ) -> Result<SolveResult> {
        check_system(a, rhs, x0);
        assert!(self.local_iters >= 1, "async-(k) needs k >= 1");
        let sim_opts = match &self.executor {
            ExecutorKind::Sim(sim_opts) => sim_opts,
            ExecutorKind::Threaded(_) => {
                let exec_opts = self.persistent_options();
                let session = RunSession::default();
                return Ok(self
                    .solve_session(a, rhs, x0, kernel, opts, filter, exec_opts, session)
                    .result);
            }
        };
        let mut schedule = self.schedule.build();
        let mut x = x0.to_vec();
        let mut history: Vec<f64> = Vec::new();
        let mut iterations = 0usize;
        let mut converged = false;
        let mut rbuf: Vec<f64> = Vec::new();

        // Chunked driving: the simulator runs `chunk` asynchronous global
        // rounds at a time; between chunks the *driver* (host) checks
        // convergence, exactly like the paper's host-side residual tests.
        let chunk = if opts.tol > 0.0 { opts.check_every.max(1) } else { opts.max_iters };
        while iterations < opts.max_iters && !converged {
            let rounds = chunk.min(opts.max_iters - iterations);
            let offset_filter = OffsetFilter { inner: filter, offset: iterations };
            let mut offset_schedule =
                OffsetSchedule { inner: schedule.as_mut(), offset: iterations };
            let exec = SimExecutor::new(SimOptions {
                // decorrelate chunk seeds while staying reproducible
                seed: sim_opts.seed.wrapping_add(iterations as u64),
                ..sim_opts.clone()
            });
            exec.run(kernel, &mut x, rounds, &mut offset_schedule, &offset_filter, |_k, xk| {
                if opts.record_history {
                    history.push(relative_residual_with(&mut rbuf, a, rhs, xk));
                }
            });
            iterations += rounds;
            if opts.tol > 0.0 {
                let rr = relative_residual_with(&mut rbuf, a, rhs, &x);
                if rr <= opts.tol {
                    converged = true;
                } else if !rr.is_finite() {
                    break;
                }
            }
        }

        Ok(finish(a, rhs, x, iterations, converged, history, opts.tol))
    }

    /// The [`PersistentOptions`] this solver's executor resolves to: the
    /// [`ExecutorKind::Threaded`] worker count (the default count for
    /// [`ExecutorKind::Sim`]), default tuning otherwise.
    pub fn persistent_options(&self) -> PersistentOptions {
        let n_workers = match &self.executor {
            ExecutorKind::Threaded(t) => t.n_workers,
            ExecutorKind::Sim(_) => ThreadedOptions::default().n_workers,
        };
        PersistentOptions { n_workers, ..PersistentOptions::default() }
    }

    /// The persistent-worker solve — the one entry point every
    /// real-thread solve goes through. Runs the executor against the whole
    /// `max_iters` budget and checks convergence *concurrently* through a
    /// [`ResidualMonitor`] every `check_every` global iterations — the
    /// paper's host watching the racy iterate while the device keeps
    /// updating. No thread respawns and no full-vector copies during the
    /// solve; the monitor reuses its snapshot and residual buffers.
    ///
    /// `exec_opts` tunes the executor (worker count, lag gate, fault
    /// detection pacing); [`persistent_options`](Self::persistent_options)
    /// gives the solver's own. `session` carries everything else, see
    /// [`RunSession`]:
    ///
    /// * `shards`/`halo` — a multi-GPU solver passes its device slices as
    ///   the shard plan and a [`abr_gpu::HaloExchange`] realising its
    ///   communication strategy (AMC/DC stages; `None` for live reads).
    /// * `faults` — a live [`abr_gpu::FaultPlan`] (§4.5 realised):
    ///   workers really die, hang, or panic mid-solve, and recovery-(t_r)
    ///   releases orphaned shards for adoption. [`SolveResult::fault`]
    ///   is `Some` exactly when a plan was passed.
    /// * `cancel` — a request-scoped [`abr_gpu::CancelToken`]: within one
    ///   monitor poll of it firing the workers drain, and the outcome is
    ///   [`RunOutcome::Cancelled`] / [`RunOutcome::DeadlineExceeded`].
    /// * `pool` — run on threads leased from a shared
    ///   [`abr_gpu::WorkerPool`] (the lease size is the worker count and,
    ///   absent an explicit plan, the shard count).
    ///
    /// `result.iterations` is the monitor's stop watermark for a
    /// [`RunOutcome::Stopped`] run, the full budget for a
    /// [`RunOutcome::Completed`] one, and the partial global-iteration
    /// watermark for any interrupted run. `result.history` is always
    /// empty (see [`ExecutorKind::Threaded`]).
    #[allow(clippy::too_many_arguments)]
    pub fn solve_session(
        &self,
        a: &CsrMatrix,
        rhs: &[f64],
        x0: &[f64],
        kernel: &AsyncJacobiKernel<'_>,
        opts: &SolveOptions,
        filter: &dyn UpdateFilter,
        exec_opts: PersistentOptions,
        session: RunSession<'_>,
    ) -> FaultedSolve {
        check_system(a, rhs, x0);
        let faulted = session.faults.is_some();
        let exec = PersistentExecutor::new(exec_opts);
        let mut schedule = self.schedule.build();
        let period = if opts.tol > 0.0 { opts.check_every.max(1) } else { 0 };
        let mut monitor = ResidualMonitor::new(a, rhs, opts.tol, period);
        let mut ws = PersistentWorkspace::new();
        let mut x = x0.to_vec();
        let (trace, report) = exec.run_session(
            kernel,
            &mut x,
            opts.max_iters,
            schedule.as_mut(),
            filter,
            &mut monitor,
            &mut ws,
            session,
        );
        let iterations = match (report.outcome, report.stopped_at) {
            (RunOutcome::Stopped, Some(at)) => at,
            (RunOutcome::Completed, _) => opts.max_iters,
            _ => report.global_iterations,
        };
        let checks = std::mem::take(&mut monitor.checks);
        let mut rbuf = monitor.into_scratch();
        let mut final_residual = relative_residual_with(&mut rbuf, a, rhs, &x);
        if report.outcome == RunOutcome::Stopped {
            final_residual =
                settle_stopped(a, rhs, opts.tol, &mut x, final_residual, ws.snapshot(), &mut rbuf);
        }
        let converged = opts.tol > 0.0 && final_residual <= opts.tol;
        let result = SolveResult {
            x,
            iterations,
            converged,
            final_residual,
            history: Vec::new(),
            fault: faulted.then(|| report.fault.clone()),
        };
        FaultedSolve { result, trace, report, checks }
    }
}

/// The answer of a monitor-stopped persistent run. The exact check
/// accepted the monitor's snapshot, but commits in flight at the stop
/// still land on the live iterate before the workers join, and an
/// asynchronous update can move the residual either way — so the live
/// iterate can come back just above `tol` although the run converged.
/// In that case the accepted snapshot is the answer, provided its exact
/// residual, recomputed here, is within `tol`. The exact check stays the
/// only stopping authority, and the common case (live iterate within
/// `tol`) costs nothing. Returns the residual of the iterate left in
/// `x`.
fn settle_stopped(
    a: &CsrMatrix,
    rhs: &[f64],
    tol: f64,
    x: &mut [f64],
    live_residual: f64,
    snapshot: &[f64],
    rbuf: &mut Vec<f64>,
) -> f64 {
    if live_residual <= tol {
        return live_residual;
    }
    let snap_residual = relative_residual_with(rbuf, a, rhs, snapshot);
    if snap_residual <= tol {
        x.copy_from_slice(snapshot);
        snap_residual
    } else {
        live_residual
    }
}

/// Everything an [`AsyncBlockSolver::solve_session`] run produces.
#[derive(Debug)]
pub struct FaultedSolve {
    /// The solve outcome; [`SolveResult::fault`] holds the
    /// [`abr_gpu::FaultReport`] when the run had a fault plan.
    pub result: SolveResult,
    /// The executor's update trace (staleness histogram, per-block
    /// counts, realised `max_skew` — bounded by
    /// `max_round_lag + 1 + max_outage_rounds`).
    pub trace: UpdateTrace,
    /// The raw executor report ([`RunOutcome`], stop watermark,
    /// steal/check counters, the fault report).
    pub report: abr_gpu::PersistentReport,
    /// The concurrent monitor's `(global_iteration, relative_residual)`
    /// trajectory — the §4.5 / Figure 10 re-convergence curve.
    pub checks: Vec<(usize, f64)>,
}

/// Runs `rounds` asynchronous rounds purely to *measure* the realised
/// shift distribution of Eq. (3) — which neighbour versions each block
/// update actually read — without solving anything to tolerance. Returns
/// the execution trace with its staleness histogram filled in.
pub fn measure_staleness(
    a: &CsrMatrix,
    rhs: &[f64],
    partition: &RowPartition,
    local_iters: usize,
    sim_opts: SimOptions,
    schedule: ScheduleKind,
    rounds: usize,
) -> Result<abr_gpu::UpdateTrace> {
    let kernel = AsyncJacobiKernel::new(a, rhs, partition, local_iters, 1.0)?;
    let mut x = vec![0.0; a.n_rows()];
    let exec = SimExecutor::new(sim_opts);
    let mut sched = schedule.build();
    Ok(exec.run(&kernel, &mut x, rounds, sched.as_mut(), &AllowAll, |_, _| {}))
}

/// Round-offset adapters so chunked driving presents absolute global
/// iteration indices to the schedule and the fault filter.
struct OffsetFilter<'a> {
    inner: &'a dyn UpdateFilter,
    offset: usize,
}

impl UpdateFilter for OffsetFilter<'_> {
    fn block_enabled(&self, block: usize, round: usize) -> bool {
        self.inner.block_enabled(block, round + self.offset)
    }
    fn component_enabled(&self, i: usize, round: usize) -> bool {
        self.inner.component_enabled(i, round + self.offset)
    }
}

struct OffsetSchedule<'a> {
    inner: &'a mut dyn BlockSchedule,
    offset: usize,
}

impl BlockSchedule for OffsetSchedule<'_> {
    fn order(&mut self, round: usize, n_blocks: usize, out: &mut Vec<usize>) {
        self.inner.order(round + self.offset, n_blocks, out);
    }
}

/// The host-side concurrent convergence check of the persistent solve
/// path: every `period` global iterations it computes the relative
/// residual of the monitor's snapshot (through the reused scratch buffer
/// of [`relative_residual_with`]) and stops the workers once it reaches
/// `tol` — or once the iterate turns non-finite, the divergent regime the
/// chunked driver also bails out of.
pub struct ResidualMonitor<'a> {
    a: &'a CsrMatrix,
    rhs: &'a [f64],
    tol: f64,
    period: usize,
    scratch: Vec<f64>,
    /// `‖b‖₂`, cached at construction: the fused fast path normalises the
    /// workers' `‖b − A x‖²` estimate without touching the matrix.
    rhs_norm: f64,
    /// Fused polls since the last exact check (forced-escalation clock).
    fused_streak: usize,
    /// Last exact check landed within [`URGENT_BAND`] of the tolerance:
    /// the executor's pacing floor is waived so the confirming poll is
    /// not delayed by the cost of the check that almost stopped.
    urgent: bool,
    /// `(global_iteration, relative_residual)` of the last check.
    pub last_check: Option<(usize, f64)>,
    /// Every check the monitor performed, in order — the concurrent
    /// residual trajectory of a persistent solve (what the `recovery`
    /// experiment's re-convergence curves are plotted from). One small
    /// push per `check_every` iterations, nothing per update.
    pub checks: Vec<(usize, f64)>,
}

/// Safety margin of [`ResidualMonitor`]'s fused fast path: escalate to
/// the exact check once the fused estimate is within this factor of the
/// tolerance. The estimate mixes per-block sub-norms published at
/// slightly different moments of the asynchronous iterate, so near the
/// stopping point it can sit a little above or below the exact residual
/// of any one snapshot; the band makes "skip the exact check" a decision
/// taken only far from convergence, where even a crude estimate cannot
/// be wrong about the *order of magnitude*.
pub const FUSED_GUARD_BAND: f64 = 8.0;

/// At most this many consecutive polls may be answered by the fused
/// estimate before [`ResidualMonitor`] forces an exact check anyway.
/// Polls are gated on watermark advance (at most one per `period`
/// global rounds), so this bounds detection lateness to about
/// `FUSED_FORCE_EXACT_EVERY × period` rounds even when the estimate is
/// stuck high — the sum is dominated by the *most-lagging* block's
/// last published sub-norm, which under heavy scheduling skew can sit
/// orders of magnitude above the live residual. It also keeps the
/// recorded trajectory coarsely sampled, and means a systematically
/// over-estimating kernel cannot starve the stopping test. Still an
/// 8× cut over the pre-fusion exact-check-per-period cost.
pub const FUSED_FORCE_EXACT_EVERY: usize = 8;

/// Endgame window of [`ResidualMonitor`]: an exact check whose relative
/// residual lands within this factor above the tolerance marks the run
/// [`urgent`](abr_gpu::ConvergenceMonitor::urgent) — a couple of rounds of
/// typical contraction away from stopping — and the executor then polls
/// at full pace instead of sleeping a multiple of the check's cost. A
/// converging run spends only its last few polls inside the window, so
/// the waiver buys prompt stop detection for a bounded number of extra
/// exact checks; a run that *stagnates* inside the window pays full
/// monitor cost, which is the regime where a tight watch is wanted
/// anyway.
pub const URGENT_BAND: f64 = 64.0;

impl<'a> ResidualMonitor<'a> {
    /// A monitor stopping at relative residual `tol`, checking every
    /// `period` global iterations (`0` never checks).
    pub fn new(a: &'a CsrMatrix, rhs: &'a [f64], tol: f64, period: usize) -> Self {
        ResidualMonitor {
            a,
            rhs,
            tol,
            period,
            scratch: Vec::new(),
            rhs_norm: rhs.iter().map(|&b| b * b).sum::<f64>().sqrt(),
            fused_streak: 0,
            urgent: false,
            last_check: None,
            checks: Vec::new(),
        }
    }

    /// Consumes the monitor, handing back its residual scratch buffer so
    /// the caller's final residual computation reuses it too.
    pub fn into_scratch(self) -> Vec<f64> {
        self.scratch
    }
}

impl ConvergenceMonitor for ResidualMonitor<'_> {
    fn period(&self) -> usize {
        self.period
    }

    fn check(&mut self, global_iteration: usize, x: &[f64]) -> bool {
        self.fused_streak = 0;
        let rr = relative_residual_with(&mut self.scratch, self.a, self.rhs, x);
        self.urgent = rr.is_finite() && rr <= self.tol * URGENT_BAND;
        self.last_check = Some((global_iteration, rr));
        self.checks.push((global_iteration, rr));
        rr <= self.tol || !rr.is_finite()
    }

    fn fused_check(&mut self, _global_iteration: usize, estimate_sq: f64) -> bool {
        if self.rhs_norm == 0.0 {
            return true;
        }
        if self.fused_streak + 1 >= FUSED_FORCE_EXACT_EVERY {
            return true;
        }
        let estimate = estimate_sq.sqrt() / self.rhs_norm;
        // Escalate on anything suspicious (non-finite estimate: the
        // divergent regime must reach the exact check, which stops on
        // it) or anywhere near the tolerance; skip only when the
        // estimate is comfortably far from converged.
        if !estimate.is_finite() || estimate <= self.tol * FUSED_GUARD_BAND {
            return true;
        }
        self.fused_streak += 1;
        false
    }

    fn urgent(&self) -> bool {
        self.urgent
    }
}

/// The block kernel realising Algorithm 1 (one thread block's work).
///
/// At construction the `(matrix, partition)` pair is compiled into a
/// [`BlockPlan`]: per block, a packed local operator with the diagonal
/// pre-extracted and pre-inverted (plus a branch-free ELL variant for
/// short-row blocks) and a packed halo segment. An update then is
///
/// 1. one linear gather over the halo to freeze the off-block part,
/// 2. `k` sweeps over the packed local operator,
///
/// and with [`BlockKernel::update_block_with`] it performs **zero heap
/// allocations** in steady state — the executors pass each worker's
/// reusable [`BlockScratch`]. The plan path is bit-identical to the
/// span-sliced reference kept in
/// [`update_block_reference`](Self::update_block_reference): entry order
/// within every row is preserved, so every floating-point accumulation
/// happens in the same order (the workspace proptests assert
/// bit-equality).
pub struct AsyncJacobiKernel<'a> {
    a: &'a CsrMatrix,
    rhs: &'a [f64],
    plan: BlockPlan,
    local_iters: usize,
    damping: f64,
    local_sweep: LocalSweep,
    /// Per row: the sub-range of the row's CSR entries whose columns fall
    /// inside the row's own block (columns are sorted, so it's one
    /// contiguous span). Used only by the reference path.
    local_span: Vec<(usize, usize)>,
    /// Testing/benchmarking hook: pin every block to one sweep tier
    /// instead of the plan's per-block selection (see
    /// [`force_tier`](Self::force_tier)).
    tier_override: Option<SweepTier>,
}

impl<'a> AsyncJacobiKernel<'a> {
    /// Builds the kernel with Jacobi local sweeps; fails on zero diagonal
    /// entries.
    pub fn new(
        a: &'a CsrMatrix,
        rhs: &'a [f64],
        partition: &RowPartition,
        local_iters: usize,
        damping: f64,
    ) -> Result<Self> {
        Self::with_sweep(a, rhs, partition, local_iters, damping, LocalSweep::Jacobi)
    }

    /// Builds the kernel with an explicit inner sweep type.
    pub fn with_sweep(
        a: &'a CsrMatrix,
        rhs: &'a [f64],
        partition: &RowPartition,
        local_iters: usize,
        damping: f64,
        local_sweep: LocalSweep,
    ) -> Result<Self> {
        let plan = BlockPlan::compile(a, partition)?;
        let n = a.n_rows();
        let mut local_span = Vec::with_capacity(n);
        for r in 0..n {
            let block = partition.block(partition.block_of(r));
            let (cols, _) = a.row(r);
            let lo = cols.partition_point(|&c| c < block.start);
            let hi = cols.partition_point(|&c| c < block.end);
            local_span.push((lo, hi));
        }
        Ok(AsyncJacobiKernel {
            a,
            rhs,
            plan,
            local_iters,
            damping,
            local_sweep,
            local_span,
            tier_override: None,
        })
    }

    /// The compiled block plan.
    pub fn plan(&self) -> &BlockPlan {
        &self.plan
    }

    /// Pins every Jacobi block update to `tier` instead of the plan's
    /// per-block selection — the hook the equivalence proptests and the
    /// bench variants use to compare tiers on identical inputs. A block
    /// that took the `Stencil` tier still has its ELL and CSR data, so
    /// any stored-matrix tier can be forced on it. A tier a block has no
    /// compiled data for (ELL on a wide block, `Stencil` on a block whose
    /// rows do not repeat long enough) falls back to that block's
    /// compiled tier; `None` restores normal dispatch. Gauss-Seidel
    /// sweeps ignore this (GS is row-sequential and always walks the
    /// packed CSR).
    pub fn force_tier(&mut self, tier: Option<SweepTier>) {
        self.tier_override = tier;
    }

    /// The tier block `b`'s Jacobi update will actually dispatch to,
    /// after applying any [`force_tier`](Self::force_tier) override.
    /// Without one it is the plan's compiled tier ([`BlockPlan::tier`]).
    pub fn resolved_tier(&self, b: usize) -> SweepTier {
        let compiled = self.plan.tier(b);
        match self.tier_override {
            None => compiled,
            Some(t) => {
                let supported = match t {
                    SweepTier::Csr => true,
                    SweepTier::Ell | SweepTier::EllSimd => self.plan.ell(b).is_some(),
                    SweepTier::Stencil => self.plan.stencil_block(b).is_some(),
                };
                if supported {
                    t
                } else {
                    compiled
                }
            }
        }
    }

    /// Number of nonzeros lying inside the partition's diagonal blocks —
    /// the `nnz_local` input of the timing model.
    pub fn nnz_local(&self) -> usize {
        self.plan.nnz_local()
    }

    /// The original span-sliced implementation of one block update,
    /// kept as the reference the plan path is tested (bit-for-bit) and
    /// benchmarked against. Allocates its working buffers per call.
    pub fn update_block_reference(&self, b: usize, x: &XView<'_>, out: &mut [f64]) {
        let (start, end) = self.plan.block_rows(b);
        let nb = end - start;
        debug_assert_eq!(out.len(), nb);
        let inv_diag = self.plan.inv_diag();

        // Step 1+2: snapshot local values, freeze the off-block part.
        let mut cur: Vec<f64> = (start..end).map(|i| x.get(i)).collect();
        let mut frozen = vec![0.0f64; nb];
        for (li, r) in (start..end).enumerate() {
            let (cols, vals) = self.a.row(r);
            let (lo, hi) = self.local_span[r];
            let mut acc = self.rhs[r];
            for k in 0..lo {
                acc -= vals[k] * x.get(cols[k]);
            }
            for k in hi..cols.len() {
                acc -= vals[k] * x.get(cols[k]);
            }
            frozen[li] = acc;
        }

        // Step 3: `local_iters` sweeps on the subdomain.
        match self.local_sweep {
            LocalSweep::Jacobi => {
                let mut next = vec![0.0f64; nb];
                for _ in 0..self.local_iters {
                    for (li, r) in (start..end).enumerate() {
                        let (cols, vals) = self.a.row(r);
                        let (lo, hi) = self.local_span[r];
                        let mut acc = frozen[li];
                        for k in lo..hi {
                            let c = cols[k];
                            if c != r {
                                acc -= vals[k] * cur[c - start];
                            }
                        }
                        let sweep = acc * inv_diag[r];
                        next[li] = if self.damping == 1.0 {
                            sweep
                        } else {
                            cur[li] + self.damping * (sweep - cur[li])
                        };
                    }
                    std::mem::swap(&mut cur, &mut next);
                }
            }
            LocalSweep::GaussSeidel => {
                for _ in 0..self.local_iters {
                    for (li, r) in (start..end).enumerate() {
                        let (cols, vals) = self.a.row(r);
                        let (lo, hi) = self.local_span[r];
                        let mut acc = frozen[li];
                        for k in lo..hi {
                            let c = cols[k];
                            if c != r {
                                acc -= vals[k] * cur[c - start];
                            }
                        }
                        let sweep = acc * inv_diag[r];
                        cur[li] = if self.damping == 1.0 {
                            sweep
                        } else {
                            cur[li] + self.damping * (sweep - cur[li])
                        };
                    }
                }
            }
        }
        out.copy_from_slice(&cur);
    }

    /// `k` Jacobi sweeps over the ELL-packed local operator. Branch-free
    /// inner loop: padding entries multiply the guaranteed-zero pad slot
    /// `cur[nb]`, contributing an exact `- 0.0` to the accumulator.
    /// Damping is monomorphised out of the loop via `DAMPED`.
    #[inline]
    fn sweeps_jacobi_ell<const DAMPED: bool>(
        &self,
        ell: &BlockEll,
        inv_diag: &[f64],
        frozen: &[f64],
        cur: &mut Vec<f64>,
        next: &mut Vec<f64>,
    ) {
        let nb = ell.rows();
        let width = ell.width();
        let cols = ell.cols();
        let vals = ell.vals();
        for _ in 0..self.local_iters {
            for li in 0..nb {
                let mut acc = frozen[li];
                // column-major walk: k-th entry of row li at k*nb + li,
                // ascending k = source CSR order within the row
                for k in 0..width {
                    let idx = k * nb + li;
                    acc -= vals[idx] * cur[cols[idx] as usize];
                }
                let sweep = acc * inv_diag[li];
                next[li] =
                    if DAMPED { cur[li] + self.damping * (sweep - cur[li]) } else { sweep };
            }
            std::mem::swap(cur, next);
        }
    }

    /// `k` Jacobi sweeps over the ELL-packed local operator, four rows
    /// per [`f64x4`] iteration — one row per lane, so every lane runs the
    /// scalar tier's op sequence (`acc -= v * cur[c]`, two roundings; no
    /// FMA contraction) and the result is **bit-identical** to
    /// [`sweeps_jacobi_ell`](Self::sweeps_jacobi_ell). The ELL pad-slot
    /// invariant is what makes the k-loop branch-free: padding lanes
    /// multiply `0.0` by the guaranteed-zero `cur[nb]`, for every input
    /// including non-finite iterates. Rows `nb % 4` run the scalar
    /// epilogue verbatim.
    #[inline]
    fn sweeps_jacobi_ell_simd<const DAMPED: bool>(
        &self,
        ell: &BlockEll,
        inv_diag: &[f64],
        frozen: &[f64],
        cur: &mut Vec<f64>,
        next: &mut Vec<f64>,
    ) {
        let nb = ell.rows();
        let width = ell.width();
        let cols = ell.cols();
        let vals = ell.vals();
        let quads = nb - nb % LANES;
        let tau = f64x4::splat(self.damping);
        for _ in 0..self.local_iters {
            for li in (0..quads).step_by(LANES) {
                let mut acc = f64x4::load(&frozen[li..]);
                for k in 0..width {
                    let idx = k * nb + li;
                    // product then subtract: the scalar `acc -= v * cur[c]`
                    acc = acc - f64x4::load(&vals[idx..]) * f64x4::gather_u32(cur, &cols[idx..]);
                }
                let sweep = acc * f64x4::load(&inv_diag[li..]);
                let new = if DAMPED {
                    let cv = f64x4::load(&cur[li..]);
                    cv + tau * (sweep - cv)
                } else {
                    sweep
                };
                new.store(&mut next[li..]);
            }
            for li in quads..nb {
                let mut acc = frozen[li];
                for k in 0..width {
                    let idx = k * nb + li;
                    acc -= vals[idx] * cur[cols[idx] as usize];
                }
                let sweep = acc * inv_diag[li];
                next[li] =
                    if DAMPED { cur[li] + self.damping * (sweep - cur[li]) } else { sweep };
            }
            std::mem::swap(cur, next);
        }
    }

    /// `k` Jacobi sweeps over the matrix-free stencil runs: **zero index
    /// loads** — within a run, the neighbour of row `li` at tap offset
    /// `d` is `cur[li + d]`, a contiguous four-lane load. Taps are in
    /// ascending offset order (= source CSR column order) and are the
    /// stored values themselves (the plan derives the runs from the
    /// packed local CSR, splitting wherever a row's offsets or value bits
    /// differ from its predecessor's), and each tap contributes the same
    /// product-then-subtract as the other tiers, so this path too is
    /// bit-identical to the packed-CSR sweep. Off-block taps are not in
    /// the runs — they were frozen through the packed halo in step 2.
    #[inline]
    fn sweeps_jacobi_stencil<const DAMPED: bool>(
        &self,
        sb: &StencilBlock,
        inv_diag: &[f64],
        frozen: &[f64],
        cur: &mut Vec<f64>,
        next: &mut Vec<f64>,
    ) {
        let tau = f64x4::splat(self.damping);
        for _ in 0..self.local_iters {
            for run in sb.runs() {
                let (lo, hi) = (run.lo as usize, run.hi as usize);
                let len = hi - lo;
                let quads = len - len % LANES;
                for q in (0..quads).step_by(LANES) {
                    let li = lo + q;
                    let mut acc = f64x4::load(&frozen[li..]);
                    for &(off, coef) in &run.taps {
                        // in-block tap: 0 <= li + off, and (li+3) + off < nb
                        let j = (li as isize + off) as usize;
                        acc = acc - f64x4::splat(coef) * f64x4::load(&cur[j..]);
                    }
                    let sweep = acc * f64x4::load(&inv_diag[li..]);
                    let new = if DAMPED {
                        let cv = f64x4::load(&cur[li..]);
                        cv + tau * (sweep - cv)
                    } else {
                        sweep
                    };
                    new.store(&mut next[li..]);
                }
                for li in lo + quads..hi {
                    let mut acc = frozen[li];
                    for &(off, coef) in &run.taps {
                        acc -= coef * cur[(li as isize + off) as usize];
                    }
                    let sweep = acc * inv_diag[li];
                    next[li] =
                        if DAMPED { cur[li] + self.damping * (sweep - cur[li]) } else { sweep };
                }
            }
            std::mem::swap(cur, next);
        }
    }

    /// `k` Jacobi sweeps over the packed local CSR (wide-row blocks).
    #[inline]
    fn sweeps_jacobi_csr<const DAMPED: bool>(
        &self,
        start: usize,
        nb: usize,
        inv_diag: &[f64],
        frozen: &[f64],
        cur: &mut Vec<f64>,
        next: &mut Vec<f64>,
    ) {
        for _ in 0..self.local_iters {
            for li in 0..nb {
                let (lc, lv) = self.plan.local_row(start + li);
                let mut acc = frozen[li];
                for (&c, &v) in lc.iter().zip(lv) {
                    acc -= v * cur[c as usize];
                }
                let sweep = acc * inv_diag[li];
                next[li] =
                    if DAMPED { cur[li] + self.damping * (sweep - cur[li]) } else { sweep };
            }
            std::mem::swap(cur, next);
        }
    }

    /// Exact residual sub-norm `Σ_i r_i²` of block `b`'s rows at the local
    /// iterate `cur`, with the off-block contribution frozen in `frozen` —
    /// one extra pass over the packed local operator. Used by the fused
    /// estimator when the sweep retains no previous iterate (Gauss-Seidel
    /// updates in place, and `damping == 0` makes the Jacobi delta
    /// degenerate).
    fn local_residual_sq_at(&self, b: usize, cur: &[f64], frozen: &[f64]) -> f64 {
        let (start, end) = self.plan.block_rows(b);
        let inv_diag = &self.plan.inv_diag()[start..end];
        let mut sum = 0.0;
        for li in 0..end - start {
            let (lc, lv) = self.plan.local_row(start + li);
            let mut acc = frozen[li];
            for (&c, &v) in lc.iter().zip(lv) {
                acc -= v * cur[c as usize];
            }
            // acc still carries the diagonal term: r_i = acc - a_ii * cur_i
            let r = acc - cur[li] / inv_diag[li];
            sum += r * r;
        }
        sum
    }

    /// `k` Gauss-Seidel sweeps over the packed local CSR. GS is
    /// row-sequential by definition (each row reads the rows above it
    /// from *this* sweep), so it always takes the CSR path.
    #[inline]
    fn sweeps_gs_csr<const DAMPED: bool>(
        &self,
        start: usize,
        nb: usize,
        inv_diag: &[f64],
        frozen: &[f64],
        cur: &mut [f64],
    ) {
        for _ in 0..self.local_iters {
            for li in 0..nb {
                let (lc, lv) = self.plan.local_row(start + li);
                let mut acc = frozen[li];
                for (&c, &v) in lc.iter().zip(lv) {
                    acc -= v * cur[c as usize];
                }
                let sweep = acc * inv_diag[li];
                cur[li] =
                    if DAMPED { cur[li] + self.damping * (sweep - cur[li]) } else { sweep };
            }
        }
    }
}

impl BlockKernel for AsyncJacobiKernel<'_> {
    fn n(&self) -> usize {
        self.plan.n()
    }

    fn n_blocks(&self) -> usize {
        self.plan.n_blocks()
    }

    fn block_range(&self, b: usize) -> (usize, usize) {
        self.plan.block_rows(b)
    }

    fn block_cost(&self, b: usize) -> f64 {
        self.plan.block_nnz(b).max(1.0)
    }

    fn neighbor_blocks(&self, b: usize) -> Option<&[usize]> {
        Some(self.plan.neighbors(b))
    }

    fn update_block(&self, b: usize, x: &XView<'_>, out: &mut [f64]) {
        // Compatibility entry point for callers without a scratch; the
        // executors call `update_block_with` with a per-worker scratch.
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
        let (start, end) = self.plan.block_rows(b);
        let nb = end - start;
        debug_assert_eq!(out.len(), nb);
        scratch.ensure(nb);
        let BlockScratch { cur, next, frozen } = scratch;

        // Step 1: snapshot local values; zero the pad slots so ELL
        // padding entries stay numerically inert.
        for (li, c) in cur[..nb].iter_mut().enumerate() {
            *c = x.get(start + li);
        }
        cur[nb] = 0.0;
        next[nb] = 0.0;

        // Step 2: freeze the off-block part — one linear gather per row
        // over the packed halo (source CSR order, so bit-identical to
        // the reference's two-span subtraction).
        for (li, f) in frozen.iter_mut().enumerate() {
            let (hc, hv) = self.plan.halo_row(start + li);
            let mut acc = self.rhs[start + li];
            for (&c, &v) in hc.iter().zip(hv) {
                acc -= v * x.get(c);
            }
            *f = acc;
        }

        // Step 3: `local_iters` sweeps on the packed local operator,
        // monomorphised over damping and layout.
        let inv_diag = &self.plan.inv_diag()[start..end];
        let damped = self.damping != 1.0;
        match self.local_sweep {
            LocalSweep::Jacobi => {
                // all four tiers share the freeze above and the op order
                // inside, so the dispatch is a pure speed choice — every
                // arm produces the same bits (asserted by the workspace
                // equivalence proptests)
                let ell = || self.plan.ell(b).expect("tier resolved against plan");
                let sten = || self.plan.stencil_block(b).expect("tier resolved against plan");
                match (self.resolved_tier(b), damped) {
                    (SweepTier::Stencil, false) => {
                        self.sweeps_jacobi_stencil::<false>(sten(), inv_diag, frozen, cur, next)
                    }
                    (SweepTier::Stencil, true) => {
                        self.sweeps_jacobi_stencil::<true>(sten(), inv_diag, frozen, cur, next)
                    }
                    (SweepTier::EllSimd, false) => {
                        self.sweeps_jacobi_ell_simd::<false>(ell(), inv_diag, frozen, cur, next)
                    }
                    (SweepTier::EllSimd, true) => {
                        self.sweeps_jacobi_ell_simd::<true>(ell(), inv_diag, frozen, cur, next)
                    }
                    (SweepTier::Ell, false) => {
                        self.sweeps_jacobi_ell::<false>(ell(), inv_diag, frozen, cur, next)
                    }
                    (SweepTier::Ell, true) => {
                        self.sweeps_jacobi_ell::<true>(ell(), inv_diag, frozen, cur, next)
                    }
                    (SweepTier::Csr, false) => {
                        self.sweeps_jacobi_csr::<false>(start, nb, inv_diag, frozen, cur, next)
                    }
                    (SweepTier::Csr, true) => {
                        self.sweeps_jacobi_csr::<true>(start, nb, inv_diag, frozen, cur, next)
                    }
                }
            }
            LocalSweep::GaussSeidel => {
                if damped {
                    self.sweeps_gs_csr::<true>(start, nb, inv_diag, frozen, cur);
                } else {
                    self.sweeps_gs_csr::<false>(start, nb, inv_diag, frozen, cur);
                }
            }
        }
        out.copy_from_slice(&cur[..nb]);
    }

    fn update_block_estimating(
        &self,
        b: usize,
        x: &XView<'_>,
        out: &mut [f64],
        scratch: &mut BlockScratch,
    ) -> Option<f64> {
        self.update_block_with(b, x, out, scratch);
        if self.local_iters == 0 {
            return None;
        }
        let (start, end) = self.plan.block_rows(b);
        let nb = end - start;
        let inv_diag = &self.plan.inv_diag()[start..end];
        match self.local_sweep {
            LocalSweep::Jacobi if self.damping != 0.0 => {
                // After the sweeps `cur` holds the committed local iterate
                // and `next` the previous inner iterate (the final
                // double-buffer swap), so the Jacobi update law yields the
                // row residuals of that previous iterate with no matrix
                // pass at all: new_i = prev_i + τ(sweep_i − prev_i) and
                // r_i(prev) = a_ii (sweep_i − prev_i), hence
                // r_i = (new_i − prev_i) / (τ · inv_diag_i). For k = 1
                // this is exactly the residual of the snapshot the update
                // read; for k > 1 it trails the committed iterate by one
                // inner sweep (the monitor's guard band covers that, and
                // convergence is only ever declared on the exact check).
                let cur = &scratch.cur[..nb];
                let prev = &scratch.next[..nb];
                let inv_tau = 1.0 / self.damping;
                let mut sum = 0.0;
                for li in 0..nb {
                    let r = (cur[li] - prev[li]) * inv_tau / inv_diag[li];
                    sum += r * r;
                }
                Some(sum)
            }
            _ => {
                // Gauss-Seidel updates in place and retains no previous
                // iterate: price one extra pass over the packed local
                // operator for the exact local residual at the committed
                // iterate (≤ 1/k of the sweep cost).
                Some(self.local_residual_sq_at(b, &scratch.cur[..nb], &scratch.frozen[..nb]))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::SolveOptions;
    use crate::{gauss_seidel, jacobi};
    use abr_sparse::gen::{laplacian_2d_5pt, random_diag_dominant};

    fn solve_setup(n_side: usize) -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let a = laplacian_2d_5pt(n_side);
        let n = n_side * n_side;
        let x_true = vec![1.0; n];
        let rhs = a.mul_vec(&x_true).unwrap();
        (a, rhs, x_true)
    }

    #[test]
    fn single_block_async_1_is_exactly_jacobi() {
        let (a, rhs, _) = solve_setup(6);
        let n = a.n_rows();
        let p = RowPartition::uniform(n, n).unwrap();
        let solver = AsyncBlockSolver {
            local_iters: 1,
            schedule: ScheduleKind::RoundRobin,
            executor: ExecutorKind::Sim(SimOptions { n_workers: 1, jitter: 0.0, seed: 0 }),
            damping: 1.0,
            local_sweep: LocalSweep::Jacobi,
        };
        let opts = SolveOptions::fixed_iterations(15);
        let r_async = solver.solve(&a, &rhs, &vec![0.0; n], &p, &opts).unwrap();
        let r_jacobi = jacobi(&a, &rhs, &vec![0.0; n], &opts).unwrap();
        for (x1, x2) in r_async.x.iter().zip(&r_jacobi.x) {
            assert!((x1 - x2).abs() < 1e-14, "{x1} vs {x2}");
        }
    }

    #[test]
    fn scalar_blocks_sequential_is_exactly_gauss_seidel() {
        // block size 1, one worker, no jitter, in-order dispatch: every
        // update immediately sees all earlier ones — Gauss-Seidel.
        let (a, rhs, _) = solve_setup(5);
        let n = a.n_rows();
        let p = RowPartition::uniform(n, 1).unwrap();
        let solver = AsyncBlockSolver {
            local_iters: 1,
            schedule: ScheduleKind::RoundRobin,
            executor: ExecutorKind::Sim(SimOptions { n_workers: 1, jitter: 0.0, seed: 0 }),
            damping: 1.0,
            local_sweep: LocalSweep::Jacobi,
        };
        let opts = SolveOptions::fixed_iterations(10);
        let r_async = solver.solve(&a, &rhs, &vec![0.0; n], &p, &opts).unwrap();
        let r_gs = gauss_seidel(&a, &rhs, &vec![0.0; n], &opts).unwrap();
        for (x1, x2) in r_async.x.iter().zip(&r_gs.x) {
            assert!((x1 - x2).abs() < 1e-13, "{x1} vs {x2}");
        }
    }

    #[test]
    fn async_5_converges_on_poisson() {
        let (a, rhs, x_true) = solve_setup(12);
        let n = a.n_rows();
        let p = RowPartition::uniform(n, 16).unwrap();
        let solver = AsyncBlockSolver::async_k(5);
        let r = solver
            .solve(&a, &rhs, &vec![0.0; n], &p, &SolveOptions::to_tolerance(1e-11, 4000))
            .unwrap();
        assert!(r.converged, "residual {}", r.final_residual);
        for (xi, ti) in r.x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-8);
        }
    }

    #[test]
    fn async_5_converges_faster_than_async_1_per_global_iteration() {
        // The paper's headline §4.3 result on diagonally-heavy systems.
        let (a, rhs, _) = solve_setup(14);
        let n = a.n_rows();
        let p = RowPartition::uniform(n, 28).unwrap();
        let opts = SolveOptions::fixed_iterations(200);
        let r1 = AsyncBlockSolver::async_k(1)
            .solve(&a, &rhs, &vec![0.0; n], &p, &opts)
            .unwrap();
        let r5 = AsyncBlockSolver::async_k(5)
            .solve(&a, &rhs, &vec![0.0; n], &p, &opts)
            .unwrap();
        assert!(
            r5.final_residual < r1.final_residual * 0.1,
            "async-5 {} vs async-1 {}",
            r5.final_residual,
            r1.final_residual
        );
    }

    #[test]
    fn local_iterations_are_useless_when_diagonal_blocks_are_diagonal() {
        // Paper §4.3 on Chem97ZtZ: "the local matrices for Chem97ZtZ are
        // diagonal and therefore it does not matter how many local
        // iterations would be performed." With a truly diagonal local
        // block, the first local sweep is a fixed point of the remaining
        // ones, so async-(5) produces *identical* iterates to async-(1).
        let a = abr_sparse::gen::chem_ztz(301, 0.7889).unwrap();
        let n = a.n_rows();
        let rhs = a.mul_vec(&vec![1.0; n]).unwrap();
        let p = RowPartition::uniform(n, 16).unwrap(); // 16 < coupling stride
        let opts = SolveOptions::fixed_iterations(30);
        let r1 = AsyncBlockSolver::async_k(1)
            .solve(&a, &rhs, &vec![0.0; n], &p, &opts)
            .unwrap();
        let r5 = AsyncBlockSolver::async_k(5)
            .solve(&a, &rhs, &vec![0.0; n], &p, &opts)
            .unwrap();
        assert!(
            (r5.final_residual - r1.final_residual).abs()
                <= 1e-12 * r1.final_residual.max(1e-300),
            "async-5 {} vs async-1 {}",
            r5.final_residual,
            r1.final_residual
        );
    }

    #[test]
    fn threaded_executor_reaches_same_accuracy() {
        let (a, rhs, _) = solve_setup(10);
        let n = a.n_rows();
        let p = RowPartition::uniform(n, 10).unwrap();
        let sim = AsyncBlockSolver::async_k(5);
        let thr = AsyncBlockSolver {
            executor: ExecutorKind::Threaded(ThreadedOptions::default()),
            ..AsyncBlockSolver::async_k(5)
        };
        let opts = SolveOptions::fixed_iterations(150);
        let r_sim = sim.solve(&a, &rhs, &vec![0.0; n], &p, &opts).unwrap();
        let r_thr = thr.solve(&a, &rhs, &vec![0.0; n], &p, &opts).unwrap();
        // Non-deterministic, but both must be deep in the convergent
        // regime after 150 global iterations.
        assert!(r_sim.final_residual < 1e-2, "sim residual {}", r_sim.final_residual);
        // The threaded run is at least as accurate in practice: real
        // threads on a tiny system serialise on memory and see fresher
        // values than the DES's deliberately pessimistic staleness, so we
        // only bound it from above.
        assert!(r_thr.final_residual < 1e-2, "threaded residual {}", r_thr.final_residual);
    }

    #[test]
    fn history_records_every_global_iteration() {
        let (a, rhs, _) = solve_setup(8);
        let n = a.n_rows();
        let p = RowPartition::uniform(n, 16).unwrap();
        let r = AsyncBlockSolver::async_k(2)
            .solve(&a, &rhs, &vec![0.0; n], &p, &SolveOptions::fixed_iterations(25))
            .unwrap();
        assert_eq!(r.history.len(), 25);
        assert!(r.history[24] < r.history[0]);
    }

    #[test]
    fn stopped_run_falls_back_to_the_confirmed_snapshot() {
        let (a, rhs, x_true) = solve_setup(4);
        let n = a.n_rows();
        let tol = 1e-6;
        let residual = |x: &[f64]| relative_residual_with(&mut Vec::new(), &a, &rhs, x);
        let mut rbuf = Vec::new();
        let far = vec![0.0; n];
        assert!(residual(&far) > tol);

        // Live iterate pushed past tol after the stop, snapshot within
        // tol: the snapshot is the answer, with its recomputed residual.
        let mut x = far.clone();
        let rr = settle_stopped(&a, &rhs, tol, &mut x, residual(&far), &x_true, &mut rbuf);
        assert_eq!(x, x_true);
        assert_eq!(rr, residual(&x_true));

        // Live iterate within tol: kept as is, snapshot never consulted.
        let mut x = x_true.clone();
        let rr = settle_stopped(&a, &rhs, tol, &mut x, residual(&x_true), &far, &mut rbuf);
        assert_eq!(x, x_true);
        assert_eq!(rr, residual(&x_true));

        // Neither within tol (a stop on a non-finite residual): the live
        // iterate stands; the snapshot cannot stop anything by itself.
        let doubled: Vec<f64> = x_true.iter().map(|v| 2.0 * v).collect();
        let mut x = far.clone();
        let rr = settle_stopped(&a, &rhs, tol, &mut x, residual(&far), &doubled, &mut rbuf);
        assert_eq!(x, far);
        assert_eq!(rr, residual(&far));
    }

    #[test]
    fn tolerance_early_stop() {
        let (a, rhs, _) = solve_setup(8);
        let n = a.n_rows();
        let p = RowPartition::uniform(n, 16).unwrap();
        let r = AsyncBlockSolver::async_k(5)
            .solve(&a, &rhs, &vec![0.0; n], &p, &SolveOptions::to_tolerance(1e-8, 100000))
            .unwrap();
        assert!(r.converged);
        assert!(r.iterations < 100000);
        assert!(r.iterations.is_multiple_of(10), "chunked driving stops on a chunk boundary");
    }

    #[test]
    fn random_diag_dominant_systems_converge_for_any_seedled_schedule() {
        for seed in 0..3 {
            let a = random_diag_dominant(80, 5, 1.3, seed);
            let rhs = a.mul_vec(&vec![1.0; 80]).unwrap();
            let p = RowPartition::uniform(80, 9).unwrap();
            let solver = AsyncBlockSolver {
                schedule: ScheduleKind::Random { seed: seed * 13 },
                ..AsyncBlockSolver::async_k(2)
            };
            let r = solver
                .solve(&a, &rhs, &vec![0.0; 80], &p, &SolveOptions::to_tolerance(1e-9, 2000))
                .unwrap();
            assert!(r.converged, "seed {seed}: {}", r.final_residual);
        }
    }

    #[test]
    fn local_gauss_seidel_sweeps_converge_faster_per_global_iteration() {
        let (a, rhs, _) = solve_setup(12);
        let n = a.n_rows();
        let p = RowPartition::uniform(n, 36).unwrap();
        let opts = SolveOptions::fixed_iterations(80);
        let jac = AsyncBlockSolver::async_k(5)
            .solve(&a, &rhs, &vec![0.0; n], &p, &opts)
            .unwrap();
        let gs = AsyncBlockSolver {
            local_sweep: LocalSweep::GaussSeidel,
            ..AsyncBlockSolver::async_k(5)
        }
        .solve(&a, &rhs, &vec![0.0; n], &p, &opts)
        .unwrap();
        assert!(
            gs.final_residual < jac.final_residual,
            "local GS {} vs local Jacobi {}",
            gs.final_residual,
            jac.final_residual
        );
    }

    #[test]
    fn local_gs_with_scalar_blocks_equals_local_jacobi() {
        // one row per block: the inner sweep degenerates either way
        let (a, rhs, _) = solve_setup(5);
        let n = a.n_rows();
        let p = RowPartition::uniform(n, 1).unwrap();
        let opts = SolveOptions::fixed_iterations(10);
        let jac = AsyncBlockSolver { local_iters: 1, ..Default::default() }
            .solve(&a, &rhs, &vec![0.0; n], &p, &opts)
            .unwrap();
        let gs = AsyncBlockSolver {
            local_iters: 1,
            local_sweep: LocalSweep::GaussSeidel,
            ..Default::default()
        }
        .solve(&a, &rhs, &vec![0.0; n], &p, &opts)
        .unwrap();
        for (x1, x2) in jac.x.iter().zip(&gs.x) {
            assert!((x1 - x2).abs() < 1e-14);
        }
    }

    #[test]
    fn staleness_is_bounded_and_mixed() {
        let (a, rhs, _) = solve_setup(12);
        let n = a.n_rows();
        let p = RowPartition::uniform(n, 12).unwrap();
        let trace = measure_staleness(
            &a,
            &rhs,
            &p,
            2,
            SimOptions { n_workers: 4, jitter: 0.3, seed: 5 },
            ScheduleKind::Random { seed: 2 },
            40,
        )
        .unwrap();
        let h = &trace.staleness;
        assert!(h.total() > 0, "neighbour reads must be recorded");
        // Admissibility: shifts bounded (the serialised per-block updates
        // keep the skew to a few rounds).
        assert!(h.max_shift().unwrap() <= 6, "max shift {:?}", h.max_shift());
        // Asynchrony: a real mix of fresh and stale reads.
        assert!(h.fraction_fresh() > 0.05, "fresh fraction {}", h.fraction_fresh());
        assert!(h.fraction_fresh() < 0.95, "fresh fraction {}", h.fraction_fresh());
    }

    #[test]
    fn kernel_neighbors_are_the_coupled_blocks() {
        // 4x4 grid, blocks = grid rows: each block couples only to the
        // adjacent grid rows.
        let a = laplacian_2d_5pt(4);
        let p = RowPartition::uniform(16, 4).unwrap();
        let rhs = vec![0.0; 16];
        let k = AsyncJacobiKernel::new(&a, &rhs, &p, 1, 1.0).unwrap();
        assert_eq!(k.neighbor_blocks(0).unwrap(), &[1]);
        assert_eq!(k.neighbor_blocks(1).unwrap(), &[0, 2]);
        assert_eq!(k.neighbor_blocks(3).unwrap(), &[2]);
    }

    #[test]
    fn plan_path_is_bit_identical_to_reference() {
        // both layouts (ELL for the short-row Laplacian blocks, CSR for
        // the single wide block), both sweeps, damped and undamped
        let a = random_diag_dominant(60, 5, 1.4, 7);
        let rhs = a.mul_vec(&vec![1.0; 60]).unwrap();
        let x: Vec<f64> = (0..60).map(|i| (i as f64 * 0.37).sin()).collect();
        for (block_size, sweep, damping) in [
            (7, LocalSweep::Jacobi, 1.0),
            (7, LocalSweep::Jacobi, 0.8),
            (60, LocalSweep::Jacobi, 1.0),
            (7, LocalSweep::GaussSeidel, 1.0),
            (7, LocalSweep::GaussSeidel, 0.9),
        ] {
            let p = RowPartition::uniform(60, block_size).unwrap();
            let k = AsyncJacobiKernel::with_sweep(&a, &rhs, &p, 3, damping, sweep).unwrap();
            let mut scratch = abr_gpu::BlockScratch::new();
            for b in 0..k.n_blocks() {
                let (s, e) = k.block_range(b);
                let mut plan_out = vec![0.0; e - s];
                let mut ref_out = vec![0.0; e - s];
                k.update_block_with(b, &XView::Plain(&x), &mut plan_out, &mut scratch);
                k.update_block_reference(b, &XView::Plain(&x), &mut ref_out);
                for (pv, rv) in plan_out.iter().zip(&ref_out) {
                    assert_eq!(pv.to_bits(), rv.to_bits(), "block {b} ({sweep:?}, tau={damping})");
                }
            }
        }
    }

    #[test]
    fn ell_pad_slot_is_inert_for_nonfinite_iterates() {
        // divergent-regime values (inf) must flow through the ELL path
        // exactly as through the reference path
        let a = laplacian_2d_5pt(4);
        let rhs = vec![1.0; 16];
        let p = RowPartition::uniform(16, 4).unwrap();
        let k = AsyncJacobiKernel::new(&a, &rhs, &p, 2, 1.0).unwrap();
        let mut x = vec![1.0e308; 16];
        x[3] = f64::INFINITY;
        x[7] = -0.0;
        let mut scratch = abr_gpu::BlockScratch::new();
        for b in 0..k.n_blocks() {
            assert!(k.plan().ell(b).is_some());
            let mut plan_out = vec![0.0; 4];
            let mut ref_out = vec![0.0; 4];
            k.update_block_with(b, &XView::Plain(&x), &mut plan_out, &mut scratch);
            k.update_block_reference(b, &XView::Plain(&x), &mut ref_out);
            for (pv, rv) in plan_out.iter().zip(&ref_out) {
                assert_eq!(pv.to_bits(), rv.to_bits(), "block {b}");
            }
        }
    }

    #[test]
    fn solve_with_kernel_reuses_a_compiled_kernel() {
        let (a, rhs, _) = solve_setup(8);
        let n = a.n_rows();
        let p = RowPartition::uniform(n, 16).unwrap();
        let solver = AsyncBlockSolver::async_k(5);
        let kernel =
            AsyncJacobiKernel::with_sweep(&a, &rhs, &p, 5, 1.0, LocalSweep::Jacobi).unwrap();
        let opts = SolveOptions::fixed_iterations(40);
        let via_kernel = solver
            .solve_with_kernel(&a, &rhs, &vec![0.0; n], &kernel, &opts, &AllowAll)
            .unwrap();
        let direct = solver.solve(&a, &rhs, &vec![0.0; n], &p, &opts).unwrap();
        assert_eq!(via_kernel.x, direct.x);
    }

    #[test]
    fn nnz_local_counts_block_entries() {
        let a = laplacian_2d_5pt(4); // 16 rows
        let p = RowPartition::uniform(16, 4).unwrap();
        let rhs = vec![0.0; 16];
        let k = AsyncJacobiKernel::new(&a, &rhs, &p, 1, 1.0).unwrap();
        // Row-major 4x4 grid, blocks = grid rows: inside a block are the
        // diagonal and the left/right couplings: 16 + 2*3*4 = 40.
        assert_eq!(k.nnz_local(), 40);
        assert!(k.nnz_local() < a.nnz());
    }

    #[test]
    fn forced_tiers_agree_bitwise_per_block() {
        // every Jacobi tier — CSR, scalar ELL, f64x4 ELL, matrix-free
        // stencil — on identical inputs, compared bit for bit; blocks of
        // 50 rows start mid-grid-row so the stencil runs get clipped taps
        let a = laplacian_2d_5pt(20);
        let n = 400;
        let rhs = a.mul_vec(&vec![1.0; n]).unwrap();
        let p = RowPartition::uniform(n, 50).unwrap();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 3.0 - 0.5).collect();
        for damping in [1.0, 0.85] {
            let mut k =
                AsyncJacobiKernel::with_sweep(&a, &rhs, &p, 4, damping, LocalSweep::Jacobi)
                    .unwrap();
            let mut base: Vec<Vec<f64>> = Vec::new();
            for tier in [
                None,
                Some(SweepTier::Csr),
                Some(SweepTier::Ell),
                Some(SweepTier::EllSimd),
                Some(SweepTier::Stencil),
            ] {
                k.force_tier(tier);
                let mut scratch = BlockScratch::new();
                let mut outs = Vec::new();
                for b in 0..k.n_blocks() {
                    if let Some(t) = tier {
                        assert_eq!(k.resolved_tier(b), t, "every tier has data on this system");
                    }
                    let (s, e) = k.block_range(b);
                    let mut out = vec![0.0; e - s];
                    k.update_block_with(b, &XView::Plain(&x), &mut out, &mut scratch);
                    outs.push(out);
                }
                if base.is_empty() {
                    base = outs;
                } else {
                    for (b, (o, r)) in outs.iter().zip(&base).enumerate() {
                        for (li, (v1, v2)) in o.iter().zip(r).enumerate() {
                            assert_eq!(
                                v1.to_bits(),
                                v2.to_bits(),
                                "tier {tier:?} block {b} row {li} tau {damping}: {v1} vs {v2}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn incompatible_tier_override_falls_back_to_compiled() {
        // random rows form no stencil runs: a Stencil override must
        // quietly resolve to each block's own tier instead of panicking
        let a = random_diag_dominant(40, 5, 1.4, 2);
        let rhs = vec![1.0; 40];
        let p = RowPartition::uniform(40, 8).unwrap();
        let mut k = AsyncJacobiKernel::new(&a, &rhs, &p, 2, 1.0).unwrap();
        k.force_tier(Some(SweepTier::Stencil));
        let x = vec![0.5; 40];
        let mut scratch = BlockScratch::new();
        let mut out = vec![0.0; 8];
        for b in 0..k.n_blocks() {
            assert_ne!(k.resolved_tier(b), SweepTier::Stencil);
            k.update_block_with(b, &XView::Plain(&x), &mut out, &mut scratch);
        }
    }

    #[test]
    fn stencil_solve_matches_csr_solve_bitwise() {
        // the deterministic Sim executor end to end: the matrix-free tier
        // `solve` selects must not change one bit of any iterate
        let (a, rhs, x_true) = solve_setup(16);
        let n = a.n_rows();
        let p = RowPartition::uniform(n, 32).unwrap();
        let solver = AsyncBlockSolver::async_k(5);
        let opts = SolveOptions::to_tolerance(1e-11, 4000);
        let mut csr = AsyncJacobiKernel::new(&a, &rhs, &p, 5, 1.0).unwrap();
        for b in 0..csr.n_blocks() {
            assert_eq!(csr.resolved_tier(b), SweepTier::Stencil, "block {b}");
        }
        csr.force_tier(Some(SweepTier::Csr));
        let x0 = vec![0.0; n];
        let sten = solver.solve(&a, &rhs, &x0, &p, &opts).unwrap();
        let plain = solver.solve_with_kernel(&a, &rhs, &x0, &csr, &opts, &AllowAll).unwrap();
        assert!(sten.converged, "residual {}", sten.final_residual);
        assert_eq!(plain.iterations, sten.iterations);
        for ((x1, x2), t) in plain.x.iter().zip(&sten.x).zip(&x_true) {
            assert_eq!(x1.to_bits(), x2.to_bits(), "{x1} vs {x2}");
            assert!((x2 - t).abs() < 1e-8);
        }
    }
}
