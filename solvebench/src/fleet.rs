//! The two solve-fleet workloads: a closed loop of two clients against an
//! in-process daemon with a two-worker pool.
//!
//! * `fleet_gen` — generated Laplacians named on the wire (`lap2d`), each
//!   request asking for the whole pool, about one in four requests a
//!   verbatim resend of an earlier one. The executor, the lease queue and
//!   the result cache do the work.
//! * `fleet_csr` — explicit CSR systems of a few thousand rows with a
//!   fresh right-hand side per request and one-worker leases. Solves are
//!   short, so the per-request path (frame render/parse, matrix ingest,
//!   fingerprinting, plan compile) dominates, and the cache never hits.
//!
//! The traced run replays the same request stream in-process, calling the
//! layers' public functions in the order the daemon's request handler
//! calls them, with a span around each call.

use crate::context;
use crate::context::StealLog;
use crate::layers::{self, RunCounters};
use crate::report::{self, Metrics, Phase};
use crate::rng::Rng;
use crate::spans::{self, Tracer};
use crate::stats::{self, Completion};
use crate::verify::{judge_response, System, Tally, Verdict};
use abr_core::async_block::AsyncJacobiKernel;
use abr_core::convergence::relative_residual_with;
use abr_core::{fingerprint_matrix, fingerprint_vec, LocalSweep, ResidualMonitor};
use abr_gpu::kernel::AllowAll;
use abr_gpu::{
    BlockKernel, CancelToken, PersistentExecutor, PersistentOptions, PersistentWorkspace,
    RecurringPattern, RunOutcome, RunSession, ShardPlan, WorkerPool,
};
use abr_service::{
    solve_key, Begin, CachedSolve, Client, Daemon, DaemonConfig, MatrixSpec, Mode, Request,
    Response, RetryPolicy, SolveCache, SolveSpec,
};
use abr_sparse::{gen, CsrMatrix, RowPartition};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client threads and connections (the host's 2 CPUs).
const CLIENTS: usize = 2;
/// The daemon's shared pool size.
const POOL_WORKERS: usize = 2;
/// Cold starts timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;
/// Completions per chunk when the summary keeps the least-stolen half of
/// the phase (about 0.3 s of requests, several steal samples).
const CHUNK: usize = 20;
/// Global-iteration budget per request.
const MAX_ITERS: usize = 50_000;
/// Request ids of warm-up requests start here, clear of stream ids.
const WARMUP_ID_BASE: u64 = 1 << 40;

/// One system a workload's requests may name.
struct FleetSystem {
    label: String,
    wire: MatrixSpec,
    own: System,
}

/// A fleet workload: its systems, solve parameters and the request
/// stream, all built from the seed before anything is timed.
pub struct Fleet {
    name: &'static str,
    systems: Vec<FleetSystem>,
    tol: f64,
    local_iters: usize,
    block: usize,
    lease: usize,
    /// Per stream entry: (system index, rhs index). A resend repeats an
    /// earlier entry's pair.
    stream: Vec<(usize, usize)>,
    rhs: Vec<Vec<f64>>,
    /// One cold-start request per system, with its own rhs.
    warmup: Vec<Vec<f64>>,
    resends: usize,
}

/// Builds `fleet_gen`: `lap2d` requests for g in {16, 24, 32, 40}, tol
/// 1e-6, async-(5), block 32, two-worker leases, ~1/4 verbatim resends.
/// `capacity` bounds the stream length (requests the run may send).
pub fn fleet_gen(seed: u64, capacity: usize) -> Fleet {
    let systems = [16usize, 24, 32, 40]
        .iter()
        .map(|&g| FleetSystem {
            label: format!("lap2d g={g}"),
            wire: MatrixSpec::Lap2d { g },
            own: System::lap2d(g),
        })
        .collect();
    build(seed, "fleet_gen", systems, 1e-6, 32, 2, 0.25, capacity)
}

/// Builds `fleet_csr`: explicit CSR requests over three screened FV
/// Poisson systems (n = 1600, 2704, 4096) and one irregular diagonally
/// dominant system (n = 3000), tol 1e-8, async-(5), block 256,
/// one-worker leases, a fresh rhs per request.
pub fn fleet_csr(seed: u64, capacity: usize) -> Fleet {
    let mut mats: Vec<(String, CsrMatrix)> = [40usize, 52, 64]
        .iter()
        .map(|&m| {
            (
                format!("fv m={m}"),
                gen::fv(m, 1.0, 0.0).expect("fv generator"),
            )
        })
        .collect();
    let rdd_seed = Rng::new(seed, 11).next_u64();
    mats.push((
        "random_diag_dominant n=3000".into(),
        gen::random_diag_dominant(3000, 8, 1.5, rdd_seed),
    ));
    let systems = mats
        .into_iter()
        .map(|(label, a)| {
            let own = System::from_csr(&a);
            let (row_ptr, col_idx, values) = own.raw();
            let wire = MatrixSpec::Csr {
                n_rows: own.n(),
                n_cols: own.n(),
                row_ptr: row_ptr.to_vec(),
                col_idx: col_idx.to_vec(),
                values: values.to_vec(),
            };
            FleetSystem { label, wire, own }
        })
        .collect();
    build(seed, "fleet_csr", systems, 1e-8, 256, 1, 0.0, capacity)
}

#[allow(clippy::too_many_arguments)]
fn build(
    seed: u64,
    name: &'static str,
    systems: Vec<FleetSystem>,
    tol: f64,
    block: usize,
    lease: usize,
    resend_share: f64,
    capacity: usize,
) -> Fleet {
    let mut pick = Rng::new(seed, 1);
    let mut values = Rng::new(seed, 2);
    let mut stream: Vec<(usize, usize)> = Vec::with_capacity(capacity);
    let mut rhs = Vec::new();
    let mut resends = 0;
    for i in 0..capacity {
        if i > 0 && pick.unit() < resend_share {
            stream.push(stream[pick.below(i)]);
            resends += 1;
        } else {
            let s = pick.below(systems.len());
            rhs.push(values.vector(systems[s].own.n()));
            stream.push((s, rhs.len() - 1));
        }
    }
    let mut warm = Rng::new(seed, 3);
    let warmup = systems.iter().map(|s| warm.vector(s.own.n())).collect();
    Fleet {
        name,
        systems,
        tol,
        local_iters: 5,
        block,
        lease,
        stream,
        rhs,
        warmup,
        resends,
    }
}

impl Fleet {
    /// A request template for system `s`; callers set `id` and `rhs`.
    fn template(&self, s: usize) -> SolveSpec {
        SolveSpec {
            id: 0,
            matrix: self.systems[s].wire.clone(),
            rhs: Some(Vec::new()),
            tol: self.tol,
            max_iters: MAX_ITERS,
            local_iters: self.local_iters,
            block: self.block,
            mode: Mode::Pooled,
            workers: self.lease,
            deadline_ms: None,
            seed: 0,
            cache: true,
        }
    }

    /// The workload's input description for the run context.
    pub fn context_lines(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "workload {}: closed loop, {CLIENTS} clients, daemon pool of {POOL_WORKERS} workers, \
             {}-worker leases, tol {:e}, async-({}), block {}, stream of {} requests ({} resends)",
            self.name,
            self.lease,
            self.tol,
            self.local_iters,
            self.block,
            self.stream.len(),
            self.resends
        )];
        for s in &self.systems {
            let n = s.own.n();
            lines.push(format!("  system {}: n={n} nnz={}", s.label, s.own.nnz()));
            lines.push(context::working_set_line(
                &format!("  system {} (CSR + x + b + scratch)", s.label),
                (s.own.csr_bytes() + 24 * n) as u64,
            ));
        }
        lines
    }

    fn largest(&self) -> usize {
        (0..self.systems.len())
            .max_by_key(|&s| self.systems[s].own.n())
            .expect("systems")
    }
}

/// The matrix a wire spec names, built the way the daemon builds it.
fn build_matrix(spec: &MatrixSpec) -> CsrMatrix {
    match spec {
        MatrixSpec::Lap2d { g } => gen::laplacian_2d_5pt(*g),
        MatrixSpec::Csr {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            values,
        } => CsrMatrix::from_raw(
            *n_rows,
            *n_cols,
            row_ptr.clone(),
            col_idx.clone(),
            values.clone(),
        )
        .expect("stream matrices are valid"),
    }
}

/// A cold start: starts the daemon, waits for its first `pong`, then has
/// it serve one request per system (each answer verified into `tally`);
/// returns the daemon and the seconds all of that took. The ping alone
/// takes ~0.15 ms, dominated by thread wake-up latency that moved its
/// median by a quarter between sets of runs on a shared 2-vCPU host; the
/// cold requests make it the set-up a client waits for before the daemon
/// serves every kind of request it will see.
fn cold_start(fleet: &Fleet, tally: &mut Tally) -> io::Result<(Daemon, f64)> {
    let t = Instant::now();
    let daemon = Daemon::start(DaemonConfig {
        workers: POOL_WORKERS,
        ..DaemonConfig::default()
    })?;
    match Client::new(daemon.addr()).ping()? {
        Response::Pong => {}
        other => {
            return Err(io::Error::other(format!(
                "daemon answered ping with {other:?}"
            )))
        }
    }
    let mut client = Client::new(daemon.addr());
    for (s, b) in fleet.warmup.iter().enumerate() {
        let mut spec = fleet.template(s);
        spec.id = WARMUP_ID_BASE + s as u64;
        spec.rhs = Some(b.clone());
        let resp = client.solve(&spec);
        tally.record(judge_response(&resp, &fleet.systems[s].own, b, fleet.tol));
    }
    Ok((daemon, t.elapsed().as_secs_f64()))
}

fn stop_daemon(daemon: Daemon) -> io::Result<()> {
    let report = daemon.shutdown(Duration::from_secs(10));
    if report.workers_joined != POOL_WORKERS {
        return Err(io::Error::other(format!(
            "daemon drain joined {} of {POOL_WORKERS} pool workers",
            report.workers_joined
        )));
    }
    Ok(())
}

/// Times `SETUP_REPEATS` cold starts and keeps the last daemon running.
fn setup(fleet: &Fleet, tally: &mut Tally) -> io::Result<(Daemon, f64)> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(d) = last.take() {
            stop_daemon(d)?;
        }
        let (d, s) = cold_start(fleet, tally)?;
        times.push(s);
        last = Some(d);
    }
    Ok((last.expect("at least one start"), stats::median(&times)))
}

/// Walks the request stream from its start with `CLIENTS` threads, each
/// taking the next entry as soon as its previous one is done, until
/// `seconds` have passed or the stream runs out. Thread `c` owns the
/// state `init(c)` and hands each request to `send` with its system index
/// and rhs; the states come back in thread order.
fn drive<S: Send>(
    fleet: &Fleet,
    seconds: f64,
    init: impl Fn(usize) -> S + Sync,
    send: impl Fn(&mut S, &SolveSpec, usize, &[f64]) + Sync,
) -> Vec<S> {
    let next = AtomicUsize::new(0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (next, init, send) = (&next, &init, &send);
                scope.spawn(move || {
                    let mut state = init(c);
                    let mut templates: Vec<SolveSpec> = (0..fleet.systems.len())
                        .map(|s| fleet.template(s))
                        .collect();
                    while Instant::now() < deadline {
                        // Relaxed: a ticket counter that publishes no other data.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(s, r)) = fleet.stream.get(i) else {
                            break;
                        };
                        let spec = &mut templates[s];
                        spec.id = i as u64 + 1;
                        spec.rhs
                            .as_mut()
                            .expect("explicit rhs")
                            .clone_from(&fleet.rhs[r]);
                        send(&mut state, spec, s, &fleet.rhs[r]);
                    }
                    state
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stream thread"))
            .collect()
    })
}

/// The closed loop against the daemon: client-observed latency of every
/// `Client::solve`, each answer verified.
fn closed_loop(fleet: &Fleet, addr: SocketAddr, seconds: f64, seed: u64) -> Phase {
    let start = Instant::now();
    let (per_client, steal) = StealLog::record(start, || {
        drive(
            fleet,
            seconds,
            |c| {
                let policy = RetryPolicy {
                    jitter_seed: seed ^ (c as u64 + 1),
                    ..RetryPolicy::default()
                };
                (
                    Client::with_policy(addr, policy),
                    Vec::new(),
                    Tally::default(),
                )
            },
            |(client, done, tally), spec, s, b| {
                let t = Instant::now();
                let resp = client.solve(spec);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let v = judge_response(&resp, &fleet.systems[s].own, b, fleet.tol);
                let at_s = start.elapsed().as_secs_f64();
                done.push(Completion {
                    at_s,
                    ms: if v.is_ok() { ms } else { f64::INFINITY },
                });
                tally.record(v);
            },
        )
    });
    let seconds = start.elapsed().as_secs_f64();
    let mut completions = Vec::new();
    let mut tally = Tally::default();
    for (_, c, t) in per_client {
        completions.extend(c);
        tally.merge(&t);
    }
    Phase {
        completions,
        tally,
        seconds,
        steal,
    }
}

/// The untraced run: every end-to-end metric.
pub fn run(
    fleet: &Fleet,
    seed: u64,
    seconds: f64,
    ctx: &mut Vec<String>,
) -> io::Result<(Tally, Metrics)> {
    let mut tally = Tally::default();
    let (daemon, setup_s) = setup(fleet, &mut tally)?;
    let phase = closed_loop(fleet, daemon.addr(), seconds, seed);
    stop_daemon(daemon)?;
    tally.merge(&phase.tally);
    let m = report::end_to_end(setup_s, &phase, CHUNK, ctx);
    Ok((tally, m))
}

/// What the replay counts besides spans.
#[derive(Default)]
struct ReplayCounts {
    request_bytes: f64,
    response_bytes: f64,
    runs: RunCounters,
}

/// The in-process replay of the daemon's request path.
struct Replay<'a> {
    fleet: &'a Fleet,
    pool: WorkerPool,
    cache: SolveCache,
    counts: Mutex<ReplayCounts>,
}

impl Replay<'_> {
    /// Replays one request in the order the daemon's handler makes its
    /// calls: client render → daemon parse → matrix build → fingerprints
    /// → cache → lease → plan compile → executor run → exact check →
    /// response render → client parse.
    fn request(&self, spec: &SolveSpec, s: usize, b: &[f64], tr: &mut Tracer) -> Verdict {
        let root = tr.open("request");
        let payload = tr.span("service.request_render", || {
            Request::Solve(spec.clone()).render()
        });
        let parsed = tr.span("service.request_parse", || Request::parse(&payload));
        let Ok(Request::Solve(spec)) = parsed else {
            panic!("replayed request must parse")
        };
        let name = match spec.matrix {
            MatrixSpec::Lap2d { .. } => "sparse.gen",
            MatrixSpec::Csr { .. } => "sparse.from_raw",
        };
        let a = tr.span(name, || build_matrix(&spec.matrix));
        let n = a.n_rows();
        let rhs = spec.rhs.clone().expect("explicit rhs");
        let token = CancelToken::new();
        let x0 = vec![0.0; n];
        let key = tr.span("core.fingerprint", || {
            solve_key(
                fingerprint_matrix(&a),
                fingerprint_vec(&rhs),
                fingerprint_vec(&x0),
                spec.tol,
                spec.local_iters.max(1),
                spec.block.max(1),
                spec.mode,
                spec.seed,
            )
        });
        let begin = tr.span("service.cache", || self.cache.begin(key, Some(&token)));
        let response = match begin {
            Begin::Ready(r, coalesced) => Response::Done {
                id: spec.id,
                x: r.x.clone(),
                iterations: r.iterations,
                converged: true,
                final_residual: r.final_residual,
                cached: !coalesced,
                coalesced,
                chaos: false,
            },
            Begin::Aborted(_) => Response::Cancelled {
                id: spec.id,
                iterations: 0,
            },
            Begin::Lead(guard) => self.solve(&spec, &a, &rhs, x0, &token, tr, guard),
        };
        let out = tr.span("service.response_render", || response.render());
        let back = tr.span("service.response_parse", || Response::parse(&out));
        tr.close(root);
        let mut c = self.counts.lock().expect("replay counters");
        c.request_bytes += payload.len() as f64;
        c.response_bytes += out.len() as f64;
        drop(c);
        let back = back.map_err(io::Error::other);
        judge_response(&back, &self.fleet.systems[s].own, b, self.fleet.tol)
    }

    /// The cache-miss path: lease, compile, run, exact check, publish.
    #[allow(clippy::too_many_arguments)]
    fn solve(
        &self,
        spec: &SolveSpec,
        a: &CsrMatrix,
        rhs: &[f64],
        mut x: Vec<f64>,
        token: &CancelToken,
        tr: &mut Tracer,
        guard: abr_service::cache::LeadGuard<'_>,
    ) -> Response {
        let id = spec.id;
        let admission =
            Instant::now() + Duration::from_millis(DaemonConfig::default().admission_timeout_ms);
        let lease = tr.span("gpu.lease_wait", || loop {
            if let Some(l) = self
                .pool
                .lease_timeout(spec.workers, Duration::from_millis(10))
            {
                break Some(l);
            }
            if Instant::now() >= admission {
                break None;
            }
        });
        let Some(lease) = lease else {
            return Response::Overloaded {
                id,
                retry_after_ms: 10,
            };
        };
        let n = a.n_rows();
        let partition = RowPartition::uniform(n, spec.block.clamp(1, n)).expect("partition");
        let kernel = tr.span("sparse.plan_compile", || {
            AsyncJacobiKernel::with_sweep(
                a,
                rhs,
                &partition,
                spec.local_iters.max(1),
                1.0,
                LocalSweep::Jacobi,
            )
            .expect("kernel")
        });
        let shards = ShardPlan::even(kernel.n_blocks(), lease.n());
        let exec = PersistentExecutor::new(PersistentOptions {
            n_workers: spec.workers,
            ..PersistentOptions::default()
        });
        let mut schedule = RecurringPattern::new(spec.seed);
        let mut monitor = ResidualMonitor::new(a, rhs, spec.tol, 10);
        let mut ws = PersistentWorkspace::new();
        let (trace, report) = tr.span("gpu.run", || {
            exec.run_session(
                &kernel,
                &mut x,
                spec.max_iters,
                &mut schedule,
                &AllowAll,
                &mut monitor,
                &mut ws,
                RunSession {
                    shards: Some(&shards),
                    cancel: Some(token),
                    pool: Some((&self.pool, lease)),
                    ..RunSession::default()
                },
            )
        });
        let iterations = match report.stopped_at {
            Some(at) => at,
            None if report.outcome == RunOutcome::Completed => spec.max_iters,
            None => report.global_iterations,
        };
        let mut rbuf = monitor.into_scratch();
        let final_residual = tr.span("core.exact_check", || {
            relative_residual_with(&mut rbuf, a, rhs, &x)
        });
        let converged = final_residual <= spec.tol;
        self.counts.lock().expect("replay counters").runs.record(
            &trace,
            &report,
            spec.tol,
            final_residual,
        );
        if converged {
            guard.publish(CachedSolve {
                x: x.clone(),
                iterations,
                final_residual,
            });
        }
        Response::Done {
            id,
            x,
            iterations,
            converged,
            final_residual,
            cached: false,
            coalesced: false,
            chaos: false,
        }
    }
}

/// Span names timed on the request path; `<name>_ms` is the metric.
pub const REQUEST_SPANS: [&str; 12] = [
    "service.request_render",
    "service.request_parse",
    "sparse.gen",
    "sparse.from_raw",
    "core.fingerprint",
    "service.cache",
    "gpu.lease_wait",
    "sparse.plan_compile",
    "gpu.run",
    "core.exact_check",
    "service.response_render",
    "service.response_parse",
];

/// The traced run: phase A drives the daemon untraced for half the time
/// (client latency, service counters); phase B replays the same stream
/// in-process with spans for the other half.
pub fn run_traced(
    fleet: &Fleet,
    seed: u64,
    seconds: f64,
    ctx: &mut Vec<String>,
) -> io::Result<(Tally, Metrics, Vec<spans::Span>)> {
    let mut tally = Tally::default();
    let (daemon, _) = setup(fleet, &mut tally)?;
    let before = daemon.counters();
    let phase = closed_loop(fleet, daemon.addr(), seconds / 2.0, seed);
    let after = daemon.counters();
    stop_daemon(daemon)?;
    tally.merge(&phase.tally);
    let client_p50 = phase.summary(CHUNK).p50_ms;
    let admitted = (after.admitted - before.admitted) as f64;
    let hits = (after.cache_hits - before.cache_hits + after.coalesced - before.coalesced) as f64;

    let replay = Replay {
        fleet,
        pool: WorkerPool::new(POOL_WORKERS),
        cache: SolveCache::new(),
        counts: Mutex::new(ReplayCounts::default()),
    };
    let epoch = Instant::now();
    let per_thread = drive(
        fleet,
        seconds / 2.0,
        |_| (Tracer::new(epoch), Tally::default()),
        |(tr, tally), spec, s, b| {
            tr.set_op(spec.id);
            tally.record(replay.request(spec, s, b, tr));
        },
    );
    let Replay { pool, counts, .. } = replay;
    let joined = pool.shutdown();
    if joined != POOL_WORKERS {
        return Err(io::Error::other(format!(
            "replay pool joined {joined} of {POOL_WORKERS} workers"
        )));
    }
    let counts = counts.into_inner().expect("replay counters");
    let mut lists = Vec::new();
    for (tr, t) in per_thread {
        lists.push(tr.into_spans());
        tally.merge(&t);
    }
    let spans = spans::merge(lists);
    let ops = spans::durations(&spans, "request").len().max(1) as f64;

    let mut m = Metrics::default();
    let by_name = spans::self_time_by_name(&spans);
    let mut accounted = 0.0;
    for name in REQUEST_SPANS {
        let ms = by_name.get(name).copied().unwrap_or(0) as f64 / ops / 1e6;
        accounted += ms;
        m.push(&format!("{name}_ms"), "ms", ms);
    }
    m.push("service.unaccounted_ms", "ms", client_p50 - accounted);
    m.push("service.request_bytes", "bytes", counts.request_bytes / ops);
    m.push(
        "service.response_bytes",
        "bytes",
        counts.response_bytes / ops,
    );
    m.push(
        "service.cache_hit_ratio",
        "ratio",
        if admitted > 0.0 { hits / admitted } else { 0.0 },
    );
    m.push("service.shed", "count", (after.shed - before.shed) as f64);
    m.push(
        "service.failed",
        "count",
        (after.failed - before.failed) as f64,
    );
    counts.runs.push_metrics(&mut m);

    let big = fleet.largest();
    let a = build_matrix(&fleet.systems[big].wire);
    let b = &fleet.warmup[big];
    let n = a.n_rows();
    let partition = RowPartition::uniform(n, fleet.block.min(n)).expect("partition");
    let kernel = AsyncJacobiKernel::with_sweep(
        &a,
        b,
        &partition,
        fleet.local_iters,
        1.0,
        LocalSweep::Jacobi,
    )
    .expect("kernel");
    m.push(
        "sparse.block_update_ns",
        "ns",
        layers::block_update_ns(&kernel, 50, 0.2),
    );
    m.push(
        "sparse.bytes_per_update",
        "bytes",
        layers::bytes_per_update(&kernel, fleet.local_iters),
    );
    m.push(
        "gpu.speedup_2w",
        "x",
        layers::speedup_2w(&a, b, &kernel, fleet.tol, MAX_ITERS, 5),
    );

    let traced_p50 = stats::median(
        &spans::durations(&spans, "request")
            .iter()
            .map(|&d| d as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    m.push("trace.client_p50_ms", "ms", client_p50);
    m.push("trace.overhead_ms", "ms", traced_p50 - client_p50);
    ctx.push(format!(
        "phase A (daemon, untraced): {} requests in {:.3} s; phase B (in-process replay, traced): {} requests, {} executor runs",
        phase.completions.len(),
        phase.seconds,
        ops,
        counts.runs.runs()
    ));
    ctx.push(format!(
        "identity: sum of the {} request-span *_ms metrics + service.unaccounted_ms = trace.client_p50_ms = {client_p50} ms",
        REQUEST_SPANS.len()
    ));
    ctx.push(format!(
        "largest system ({}) used for block_update_ns, bytes_per_update (computed) and speedup_2w",
        fleet.systems[big].label
    ));
    Ok((tally, m, spans))
}
