//! `lib_fv1m`: the library path at n = 1M, no daemon.
//!
//! Each operation is one `AsyncBlockSolver::solve` of the screened FV
//! Poisson system at m = 1024 (n = 1,048,576, nnz ≈ 9.4M) to 1e-8 with
//! the threaded executor at two workers, async-(5) and 256 blocks, on a
//! fresh right-hand side. No stencil descriptor is passed, so the sweeps
//! take the stored-matrix ELL/SIMD tiers that ingested and wire matrices
//! always take. Kernel sweeps, the persistent executor and the monitor
//! do nearly all the work.

use crate::context;
use crate::context::StealLog;
use crate::layers::{self, RunCounters};
use crate::report::{self, Metrics, Phase};
use crate::rng::Rng;
use crate::spans::{self, Tracer};
use crate::stats::{self, Completion};
use crate::verify::{judge, relative_residual, Tally};
use abr_core::async_block::AsyncJacobiKernel;
use abr_core::convergence::relative_residual_with;
use abr_core::{
    fingerprint_matrix, fingerprint_vec, AsyncBlockSolver, ExecutorKind, LocalSweep,
    ResidualMonitor, ScheduleKind, SolveOptions,
};
use abr_gpu::kernel::AllowAll;
use abr_gpu::{
    PersistentExecutor, PersistentOptions, PersistentWorkspace, RecurringPattern, ThreadedOptions,
};
use abr_sparse::{gen, CsrMatrix, RowPartition};
use std::hint::black_box;
use std::io;
use std::time::{Duration, Instant};

/// Grid edge: n = M².
const M: usize = 1024;
/// Diagonal shift of the FV operator (Jacobi spectral radius ≈ 0.73).
const SIGMA: f64 = 1.0;
const TOL: f64 = 1e-8;
const MAX_ITERS: usize = 50_000;
const LOCAL_ITERS: usize = 5;
const BLOCKS: usize = 256;
const WORKERS: usize = 2;
/// Distinct right-hand sides generated per run; solves cycle through
/// them. The library keeps no cache, so a repeat costs what a fresh one
/// does; the count bounds the run's memory.
const RHS_COUNT: usize = 8;
/// Solves per chunk when the summary keeps the least-stolen half of the
/// phase.
const CHUNK: usize = 1;
/// Times the system is generated per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// The generated system and right-hand sides.
pub struct Inputs {
    a: CsrMatrix,
    rhs: Vec<Vec<f64>>,
    partition: RowPartition,
    gen_s: Vec<f64>,
}

/// Generates A and the right-hand sides `SETUP_REPEATS` times; returns
/// the last set and the median seconds one generation took.
pub fn setup(seed: u64) -> (Inputs, f64) {
    let mut times = Vec::new();
    let mut gen_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        let a = gen::fv(M, SIGMA, 0.0).expect("fv generator");
        gen_s.push(t.elapsed().as_secs_f64());
        let mut rng = Rng::new(seed, 21);
        let rhs: Vec<Vec<f64>> = (0..RHS_COUNT).map(|_| rng.vector(a.n_rows())).collect();
        times.push(t.elapsed().as_secs_f64());
        last = Some((a, rhs));
    }
    let (a, rhs) = last.expect("at least one generation");
    let partition = RowPartition::uniform(a.n_rows(), a.n_rows() / BLOCKS).expect("partition");
    (
        Inputs {
            a,
            rhs,
            partition,
            gen_s,
        },
        stats::median(&times),
    )
}

fn solver(seed: u64) -> AsyncBlockSolver {
    AsyncBlockSolver {
        local_iters: LOCAL_ITERS,
        schedule: ScheduleKind::Recurring { seed },
        executor: ExecutorKind::Threaded(ThreadedOptions {
            n_workers: WORKERS,
            snapshot_rounds: false,
        }),
        damping: 1.0,
        local_sweep: LocalSweep::Jacobi,
    }
}

fn compile<'a>(inp: &'a Inputs, b: &'a [f64]) -> AsyncJacobiKernel<'a> {
    AsyncJacobiKernel::with_sweep(
        &inp.a,
        b,
        &inp.partition,
        LOCAL_ITERS,
        1.0,
        LocalSweep::Jacobi,
    )
    .expect("FV diagonal is nonzero")
}

/// Computed bytes of the compiled plan's stored operator: 12 B (u32
/// column + f64 value) per ELL slot or packed local entry, 16 B per halo
/// entry, 8 B per row of inverted diagonal.
fn plan_bytes(kernel: &AsyncJacobiKernel<'_>) -> u64 {
    let plan = kernel.plan();
    let local: usize = (0..plan.n_blocks())
        .map(|b| match plan.ell(b) {
            Some(ell) => ell.rows() * ell.width(),
            None => {
                let (s, e) = plan.block_rows(b);
                (s..e).map(|r| plan.local_row(r).0.len()).sum()
            }
        })
        .sum();
    (12 * local + 16 * plan.nnz_halo() + 8 * plan.n()) as u64
}

/// Context lines: sizes and computed working sets. Compiles the plan
/// once, which also warms the compile path before timing.
pub fn context_lines(inp: &Inputs) -> Vec<String> {
    let (n, nnz) = (inp.a.n_rows(), inp.a.nnz());
    let kernel = compile(inp, &inp.rhs[0]);
    let csr = (8 * (n + 1) + 16 * nnz) as u64;
    let vectors = (8 * 3 * n) as u64;
    vec![
        format!(
            "workload lib_fv1m: AsyncBlockSolver::solve, screened FV Poisson m={M} sigma={SIGMA}, \
             n={n} nnz={nnz}, {BLOCKS} blocks, async-({LOCAL_ITERS}), threaded executor at {WORKERS} workers, \
             tol {TOL:e}, {RHS_COUNT} distinct rhs"
        ),
        context::working_set_line("  sweeps (compiled plan + x + b + snapshot)", plan_bytes(&kernel) + vectors),
        context::working_set_line("  exact checks (CSR + x + b + residual)", csr + vectors),
    ]
}

/// Solves until `seconds` pass, starting at rhs `first`; returns the
/// phase and the next rhs index.
fn solve_loop(inp: &Inputs, seed: u64, seconds: f64, first: usize) -> io::Result<(Phase, usize)> {
    let solver = solver(seed);
    let opts = SolveOptions::to_tolerance(TOL, MAX_ITERS);
    let x0 = vec![0.0; inp.a.n_rows()];
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (mut done, mut tally) = (Vec::new(), Tally::default());
    let mut i = first;
    let (solved, steal) = StealLog::record(start, || -> io::Result<()> {
        while Instant::now() < deadline {
            let b = &inp.rhs[i % RHS_COUNT];
            i += 1;
            let t = Instant::now();
            let r = solver
                .solve(&inp.a, b, &x0, &inp.partition, &opts)
                .map_err(io::Error::other)?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let v = judge(r.converged, residual(&inp.a, b, &r.x), TOL);
            let at_s = start.elapsed().as_secs_f64();
            done.push(Completion {
                at_s,
                ms: if v.is_ok() { ms } else { f64::INFINITY },
            });
            tally.record(v);
        }
        Ok(())
    });
    solved?;
    let phase = Phase {
        completions: done,
        tally,
        seconds: start.elapsed().as_secs_f64(),
        steal,
    };
    Ok((phase, i))
}

/// The residual recomputed by the benchmark over the arrays it
/// generated (no copy of the 1M system is kept).
fn residual(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    relative_residual(a.row_ptr(), a.col_idx(), a.values(), b, x)
}

/// The untraced run: every end-to-end metric.
pub fn run(
    inp: &Inputs,
    setup_s: f64,
    seed: u64,
    seconds: f64,
    ctx: &mut Vec<String>,
) -> io::Result<(Tally, Metrics)> {
    let (phase, _) = solve_loop(inp, seed, seconds, 0)?;
    let m = report::end_to_end(setup_s, &phase, CHUNK, ctx);
    ctx.push("latency_p90_ms is reported so every workload carries every metric; make no claim on it for lib_fv1m".into());
    Ok((phase.tally, m))
}

/// Span names timed inside one traced solve; `<name>_ms` is the metric.
const SOLVE_SPANS: [&str; 3] = ["sparse.plan_compile", "gpu.run", "core.exact_check"];

/// The traced run: phase A solves untraced for half the time; phase B
/// splits each solve into compile, executor run and final exact check
/// for the other half; then the single-call layer timings.
pub fn run_traced(
    inp: &Inputs,
    seed: u64,
    seconds: f64,
    ctx: &mut Vec<String>,
) -> io::Result<(Tally, Metrics, Vec<spans::Span>)> {
    let (phase, mut i) = solve_loop(inp, seed, seconds / 2.0, 0)?;
    let client_p50 = phase.summary(CHUNK).p50_ms;
    let mut tally = phase.tally.clone();

    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds / 2.0);
    let mut tr = Tracer::new(epoch);
    let mut runs = RunCounters::default();
    let exec = PersistentExecutor::new(PersistentOptions {
        n_workers: WORKERS,
        ..PersistentOptions::default()
    });
    let x0 = vec![0.0; inp.a.n_rows()];
    while Instant::now() < deadline {
        let b = &inp.rhs[i % RHS_COUNT];
        i += 1;
        tr.set_op(i as u64);
        let root = tr.open("solve");
        let kernel = tr.span("sparse.plan_compile", || compile(inp, b));
        let mut schedule = RecurringPattern::new(seed);
        let mut monitor = ResidualMonitor::new(&inp.a, b, TOL, 10);
        let mut ws = PersistentWorkspace::new();
        let mut x = x0.clone();
        let (trace, report) = tr.span("gpu.run", || {
            exec.run(
                &kernel,
                &mut x,
                MAX_ITERS,
                &mut schedule,
                &AllowAll,
                &mut monitor,
                &mut ws,
            )
        });
        let mut rbuf = monitor.into_scratch();
        let rr = tr.span("core.exact_check", || {
            relative_residual_with(&mut rbuf, &inp.a, b, &x)
        });
        tr.close(root);
        runs.record(&trace, &report, TOL, rr);
        tally.record(judge(rr <= TOL, residual(&inp.a, b, &x), TOL));
    }
    let spans = tr.into_spans();
    let ops = spans::durations(&spans, "solve").len().max(1) as f64;
    let by_name = spans::self_time_by_name(&spans);

    let mut m = Metrics::default();
    let mut accounted = 0.0;
    for name in SOLVE_SPANS {
        let ms = by_name.get(name).copied().unwrap_or(0) as f64 / ops / 1e6;
        accounted += ms;
        m.push(&format!("{name}_ms"), "ms", ms);
    }
    // The service layer is not on this path: it renders, parses, leases
    // and caches nothing.
    for name in [
        "service.request_render_ms",
        "service.request_parse_ms",
        "service.cache_ms",
        "gpu.lease_wait_ms",
        "service.response_render_ms",
        "service.response_parse_ms",
        "service.request_bytes",
        "service.response_bytes",
        "service.cache_hit_ratio",
        "service.shed",
        "service.failed",
    ] {
        let unit = crate::PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .expect("declared per-layer metric");
        m.push(name, unit, 0.0);
    }
    m.push("service.unaccounted_ms", "ms", client_p50 - accounted);
    runs.push_metrics(&mut m);

    // Single-call timings of the layers outside the solve.
    m.push("sparse.gen_ms", "ms", stats::median(&inp.gen_s) * 1e3);
    let t = Instant::now();
    let rebuilt = CsrMatrix::from_raw(
        inp.a.n_rows(),
        inp.a.n_cols(),
        inp.a.row_ptr().to_vec(),
        inp.a.col_idx().to_vec(),
        inp.a.values().to_vec(),
    )
    .map_err(io::Error::other)?;
    m.push("sparse.from_raw_ms", "ms", t.elapsed().as_secs_f64() * 1e3);
    drop(black_box(rebuilt));
    let t = Instant::now();
    black_box((
        fingerprint_matrix(&inp.a),
        fingerprint_vec(&inp.rhs[0]),
        fingerprint_vec(&x0),
    ));
    m.push("core.fingerprint_ms", "ms", t.elapsed().as_secs_f64() * 1e3);

    let b = &inp.rhs[0];
    let kernel = compile(inp, b);
    m.push(
        "sparse.block_update_ns",
        "ns",
        layers::block_update_ns(&kernel, 3, 0.2),
    );
    m.push(
        "sparse.bytes_per_update",
        "bytes",
        layers::bytes_per_update(&kernel, LOCAL_ITERS),
    );
    m.push(
        "gpu.speedup_2w",
        "x",
        layers::speedup_2w(&inp.a, b, &kernel, TOL, MAX_ITERS, 2),
    );

    let traced_p50 = stats::median(
        &spans::durations(&spans, "solve")
            .iter()
            .map(|&d| d as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    m.push("trace.client_p50_ms", "ms", client_p50);
    m.push("trace.overhead_ms", "ms", traced_p50 - client_p50);
    ctx.push(format!(
        "phase A (untraced): {} solves; phase B (traced, split into compile/run/check): {} solves",
        phase.completions.len(),
        ops
    ));
    ctx.push(format!(
        "identity: sum of the {} solve-span *_ms metrics + service.unaccounted_ms = trace.client_p50_ms = {client_p50} ms",
        SOLVE_SPANS.len()
    ));
    ctx.push("sparse.gen_ms, sparse.from_raw_ms and core.fingerprint_ms are single calls on the 1M system, outside the solve".into());
    Ok((tally, m, spans))
}
