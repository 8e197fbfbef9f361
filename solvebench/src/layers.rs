//! Per-layer measurements shared by every workload: executor-run
//! counters, the computed bytes a block update moves, one block update
//! timed on its own, and the single-worker baseline.

use crate::report::Metrics;
use crate::stats;
use abr_core::async_block::AsyncJacobiKernel;
use abr_core::ResidualMonitor;
use abr_gpu::kernel::AllowAll;
use abr_gpu::{
    BlockKernel, BlockScratch, PersistentExecutor, PersistentOptions, PersistentReport,
    PersistentWorkspace, RecurringPattern, UpdateTrace, XView,
};
use abr_sparse::{CsrMatrix, SweepTier};
use std::hint::black_box;
use std::time::Instant;

/// Counters summed over the executor runs of a traced phase.
#[derive(Debug, Default)]
pub struct RunCounters {
    runs: u64,
    stop_rounds: f64,
    useful_updates: f64,
    updates: f64,
    exact_polls: f64,
    fused_polls: f64,
    stolen: f64,
    skew: f64,
    overshoot: Vec<f64>,
}

impl RunCounters {
    /// Adds one run of an executor over `n_blocks` blocks that ended at
    /// `final_residual` against tolerance `tol`.
    pub fn record(
        &mut self,
        trace: &UpdateTrace,
        report: &PersistentReport,
        tol: f64,
        final_residual: f64,
    ) {
        let stopped = report.stopped_at.unwrap_or(report.global_iterations) as f64;
        self.runs += 1;
        self.stop_rounds += stopped;
        self.useful_updates += stopped * trace.updates_per_block.len() as f64;
        self.updates += trace.total_updates() as f64;
        self.exact_polls += report.checks as f64;
        self.fused_polls += report.fused_checks as f64;
        self.stolen += report.stolen_updates as f64;
        self.skew += trace.max_skew as f64;
        if final_residual > 0.0 && final_residual.is_finite() {
            self.overshoot.push((tol / final_residual).log10());
        }
    }

    /// Executor runs recorded.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// The `core.*` and `gpu.*` counter metrics (per-run means and
    /// aggregate shares).
    pub fn push_metrics(&self, m: &mut Metrics) {
        let per_run = |v: f64| {
            if self.runs == 0 {
                0.0
            } else {
                v / self.runs as f64
            }
        };
        let share = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        m.push("core.iterations", "count", per_run(self.stop_rounds));
        m.push(
            "core.overshoot_decades",
            "decades",
            stats::mean(&self.overshoot),
        );
        m.push("gpu.block_updates", "count", per_run(self.updates));
        m.push(
            "gpu.useful_update_ratio",
            "ratio",
            share(self.useful_updates, self.updates),
        );
        m.push(
            "gpu.polls",
            "count",
            per_run(self.exact_polls + self.fused_polls),
        );
        m.push(
            "gpu.exact_check_share",
            "ratio",
            share(self.exact_polls, self.exact_polls + self.fused_polls),
        );
        m.push("gpu.steal_share", "ratio", share(self.stolen, self.updates));
        m.push("gpu.max_skew", "rounds", per_run(self.skew));
    }
}

/// Computed memory traffic of one component update at `k` local sweeps
/// under the kernel's resolved sweep tiers, in bytes. Per pass over the
/// blocks every tier pays the iterate snapshot, halo freeze, rhs read and
/// result copy-out; each sweep adds per-row overhead plus the tier's
/// per-entry traffic (CSR 20 B/entry, ELL 20 B/slot including padding,
/// stencil 8 B/tap). Cache reuse is ignored, so this is an upper bound
/// on traffic, not a measurement.
pub fn bytes_per_update(kernel: &AsyncJacobiKernel<'_>, k: usize) -> f64 {
    let plan = kernel.plan();
    let n = plan.n() as f64;
    let fixed = n * 16.0 + plan.nnz_halo() as f64 * 24.0 + n * 16.0 + n * 16.0;
    let mut entries = 0.0;
    for b in 0..plan.n_blocks() {
        let (s, e) = plan.block_rows(b);
        let local_offdiag: usize = (s..e).map(|r| plan.local_row(r).0.len()).sum();
        entries += match kernel.resolved_tier(b) {
            SweepTier::Csr => local_offdiag as f64 * 20.0,
            SweepTier::Ell | SweepTier::EllSimd => plan
                .ell(b)
                .map_or(0.0, |ell| (ell.rows() * ell.width()) as f64 * 20.0),
            SweepTier::Stencil => plan
                .stencil_block(b)
                .map_or(0.0, |sb| sb.nnz_local_offdiag() as f64 * 8.0),
        };
    }
    (fixed + k as f64 * (entries + n * 24.0)) / n
}

/// Time of one `update_block_with` call, in nanoseconds: the median
/// over batches of one pass through every block against a fixed
/// iterate, repeated for at least `min_passes` passes and `min_secs`
/// seconds.
pub fn block_update_ns(kernel: &AsyncJacobiKernel<'_>, min_passes: usize, min_secs: f64) -> f64 {
    let n = kernel.n();
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.1).collect();
    let nb = kernel.n_blocks();
    let widest = (0..nb)
        .map(|b| kernel.block_range(b))
        .map(|(s, e)| e - s)
        .max()
        .unwrap_or(0);
    let mut out = vec![0.0; widest];
    let mut scratch = BlockScratch::new();
    let mut per_call = Vec::new();
    let t0 = Instant::now();
    while per_call.len() < min_passes || t0.elapsed().as_secs_f64() < min_secs {
        let t = Instant::now();
        for b in 0..nb {
            let (s, e) = kernel.block_range(b);
            kernel.update_block_with(
                b,
                &XView::Plain(black_box(&x)),
                &mut out[..e - s],
                &mut scratch,
            );
            black_box(&out);
        }
        per_call.push(t.elapsed().as_nanos() as f64 / nb as f64);
    }
    stats::median(&per_call)
}

/// One scoped persistent-executor run to `tol` at `workers` workers,
/// returning its wall time in milliseconds.
fn run_ms(
    a: &CsrMatrix,
    rhs: &[f64],
    kernel: &AsyncJacobiKernel<'_>,
    workers: usize,
    tol: f64,
    max_iters: usize,
    seed: u64,
) -> f64 {
    let exec = PersistentExecutor::new(PersistentOptions {
        n_workers: workers,
        ..PersistentOptions::default()
    });
    let mut schedule = RecurringPattern::new(seed);
    let mut monitor = ResidualMonitor::new(a, rhs, tol, 10);
    let mut ws = PersistentWorkspace::new();
    let mut x = vec![0.0; a.n_rows()];
    let t = Instant::now();
    let (_, report) = exec.run(
        kernel,
        &mut x,
        max_iters,
        &mut schedule,
        &AllowAll,
        &mut monitor,
        &mut ws,
    );
    let ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(
        report.stopped_at.is_some(),
        "baseline run must reach the tolerance"
    );
    ms
}

/// `gpu.speedup_2w`: median single-worker run time over median
/// two-worker run time on the same compiled kernel, alternating the two
/// for `pairs` pairs.
pub fn speedup_2w(
    a: &CsrMatrix,
    rhs: &[f64],
    kernel: &AsyncJacobiKernel<'_>,
    tol: f64,
    max_iters: usize,
    pairs: usize,
) -> f64 {
    let (mut one, mut two) = (Vec::new(), Vec::new());
    for i in 0..pairs {
        one.push(run_ms(a, rhs, kernel, 1, tol, max_iters, i as u64));
        two.push(run_ms(a, rhs, kernel, 2, tol, max_iters, i as u64));
    }
    stats::median(&one) / stats::median(&two)
}
