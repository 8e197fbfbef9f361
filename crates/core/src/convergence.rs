//! Solver options, results, and residual bookkeeping shared by every
//! method in this crate, plus the one driver loop (`stationary`) every
//! stationary method runs on and the one result tail (`finish`) every
//! sequential solver and the simulator path of async-(k) end in. The
//! persistent `AsyncBlockSolver::solve_session` keeps its own tail (the
//! stopped-snapshot settle and the fault report).

use abr_sparse::par::ParContext;
use abr_sparse::{blas1, CsrMatrix, Result};

/// Options common to all iterative solvers.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Hard iteration limit (global iterations for block methods).
    pub max_iters: usize,
    /// Relative-residual stopping tolerance `||b - Ax|| / ||b||`.
    /// Set to `0.0` to always run `max_iters` iterations (the convention
    /// of the paper's convergence plots).
    pub tol: f64,
    /// Record the relative residual after every (global) iteration.
    /// Honoured by the sequential solvers and by async-(k) on the
    /// discrete-event simulator (`ExecutorKind::Sim`); real-thread
    /// async-(k) solves (`ExecutorKind::Threaded`) ignore it and return
    /// an empty history.
    pub record_history: bool,
    /// How many (global) iterations to run between convergence checks, for
    /// every stationary solver and for async-(k) (each check is a
    /// synchronisation point of the *driver*, not of the iteration
    /// itself). `0` means every iteration, like `1`. Ignored when
    /// `tol = 0`; `record_history` checks every iteration regardless.
    pub check_every: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions { max_iters: 1000, tol: 1e-12, record_history: false, check_every: 10 }
    }
}

impl SolveOptions {
    /// Convenience: run exactly `iters` iterations, recording the history
    /// (the configuration used by the paper's convergence figures).
    pub fn fixed_iterations(iters: usize) -> Self {
        SolveOptions { max_iters: iters, tol: 0.0, record_history: true, check_every: 10 }
    }

    /// Convenience: iterate to relative residual `tol` (at most
    /// `max_iters`).
    pub fn to_tolerance(tol: f64, max_iters: usize) -> Self {
        SolveOptions { max_iters, tol, record_history: false, check_every: 10 }
    }
}

/// Outcome of an iterative solve.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// Final solution approximation.
    pub x: Vec<f64>,
    /// Iterations performed (global iterations for block methods).
    pub iterations: usize,
    /// Whether the tolerance was reached within `max_iters`.
    pub converged: bool,
    /// Final relative residual `||b - Ax||_2 / ||b||_2`.
    pub final_residual: f64,
    /// Relative residual after each iteration (empty unless
    /// `record_history`). `history[k]` is the residual after iteration
    /// `k + 1`. Always empty for real-thread async-(k) solves: per-round
    /// history is a feature of the discrete-event simulator fabric and
    /// the sequential solvers.
    pub history: Vec<f64>,
    /// What the live fault runtime did during the solve, when it ran one
    /// (`None` for every fault-free solver path): detected worker deaths,
    /// recovery reassignments, per-block frozen spans, isolated panics.
    /// See [`abr_gpu::FaultReport`] and
    /// [`solve_session`](crate::AsyncBlockSolver::solve_session).
    pub fault: Option<abr_gpu::FaultReport>,
}

impl SolveResult {
    /// Residual after `iters` iterations, from the recorded history
    /// (`iters = 0` returns the implicit initial residual of 1.0 only if
    /// the caller started from `x0 = 0`; prefer indexing the history).
    pub fn residual_at(&self, iters: usize) -> Option<f64> {
        if iters == 0 {
            None
        } else {
            self.history.get(iters - 1).copied()
        }
    }
}

/// Relative residual `||b - Ax||_2 / ||b||_2` (`||r||` itself when
/// `b = 0`).
///
/// The SpMV runs through [`ParContext::paper_cpu`] — the paper's 4-core
/// host-side configuration (§3.2) — which parallelises row chunks above
/// its 256-row threshold and falls back to the sequential kernel below
/// it. The per-row accumulation order is identical either way, so the
/// residual is bit-identical to the sequential computation at every
/// size. The norms stay sequential: a chunked reduction would change
/// the summation order and with it the convergence histories.
pub fn relative_residual(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let mut r = vec![0.0; a.n_rows()];
    relative_residual_with(&mut r, a, b, x)
}

/// [`relative_residual`] with a caller-provided scratch buffer for the
/// residual vector, so repeated checks inside a solve loop (or a
/// concurrent convergence monitor) allocate nothing. `buf` is resized to
/// `a.n_rows()` on first use and reused afterwards; its contents on entry
/// are irrelevant, on exit it holds `b - Ax`. Bit-identical to
/// [`relative_residual`].
pub fn relative_residual_with(buf: &mut Vec<f64>, a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    buf.clear();
    buf.resize(a.n_rows(), 0.0);
    ParContext::paper_cpu()
        .spmv(a, x, buf)
        .expect("dimensions checked by solver entry");
    for (ri, &bi) in buf.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    let nb = blas1::norm2(b);
    if nb == 0.0 {
        blas1::norm2(buf)
    } else {
        blas1::norm2(buf) / nb
    }
}

/// Shared driver plumbing: checks inputs once at solver entry.
pub(crate) fn check_system(a: &CsrMatrix, b: &[f64], x0: &[f64]) {
    assert!(a.is_square(), "iterative solvers need a square matrix");
    assert_eq!(b.len(), a.n_rows(), "rhs length mismatch");
    assert_eq!(x0.len(), a.n_rows(), "initial guess length mismatch");
}

/// The driver loop of every stationary method: runs `sweep` on the
/// iterate (started at `x0`) until `opts.max_iters` iterations, checking
/// the relative residual every `opts.check_every` iterations (`0` counts
/// as `1`), or every iteration when recording history. Stops once a
/// check meets `opts.tol` or comes back non-finite (diverged to inf/nan:
/// stop burning cycles), and ends in [`finish`].
pub(crate) fn stationary(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    opts: &SolveOptions,
    mut sweep: impl FnMut(&mut Vec<f64>),
) -> SolveResult {
    let check_every = opts.check_every.max(1);
    let mut x = x0.to_vec();
    let mut rbuf = Vec::new();
    let mut history = Vec::new();
    let mut iterations = 0;
    let mut converged = false;
    while iterations < opts.max_iters {
        sweep(&mut x);
        iterations += 1;
        let due = opts.tol > 0.0 && iterations % check_every == 0;
        if opts.record_history || due {
            let rr = relative_residual_with(&mut rbuf, a, b, &x);
            if opts.record_history {
                history.push(rr);
            }
            if opts.tol > 0.0 && rr <= opts.tol {
                converged = true;
                break;
            }
            if !rr.is_finite() {
                break;
            }
        }
    }
    finish(a, b, x, iterations, converged, history, opts.tol)
}

/// The result tail of every sequential solver and of the simulator path
/// of async-(k): the exact final relative residual of `x`, and
/// `converged` also set when that residual meets `tol`.
pub(crate) fn finish(
    a: &CsrMatrix,
    b: &[f64],
    x: Vec<f64>,
    iterations: usize,
    converged: bool,
    history: Vec<f64>,
    tol: f64,
) -> SolveResult {
    let final_residual = relative_residual(a, b, &x);
    let converged = converged || (tol > 0.0 && final_residual <= tol);
    SolveResult { x, iterations, converged, final_residual, history, fault: None }
}

/// `1 / a_ii` per row; fails fast on a zero diagonal.
pub(crate) fn inverse_diagonal(a: &CsrMatrix) -> Result<Vec<f64>> {
    Ok(a.nonzero_diagonal()?.iter().map(|&d| 1.0 / d).collect())
}

/// The Gauss-Seidel value of row `i` against the iterate `x`:
/// `(b_i - sum_{j != i} a_ij x_j) / a_ii`, with `inv_diag` from
/// [`inverse_diagonal`].
#[inline]
pub(crate) fn relaxed_row(a: &CsrMatrix, b: &[f64], inv_diag: &[f64], x: &[f64], i: usize) -> f64 {
    let mut acc = b[i];
    for (j, v) in a.row_iter(i) {
        if j != i {
            acc -= v * x[j];
        }
    }
    acc * inv_diag[i]
}

/// One in-place Gauss-Seidel sweep over `rows`, in that order: each row
/// is replaced by its [`relaxed_row`] value, so later rows see it.
pub(crate) fn gs_sweep(
    a: &CsrMatrix,
    b: &[f64],
    inv_diag: &[f64],
    x: &mut [f64],
    rows: impl IntoIterator<Item = usize>,
) {
    for i in rows {
        x[i] = relaxed_row(a, b, inv_diag, x, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_sparse::gen::laplacian_1d;

    #[test]
    fn relative_residual_zero_at_solution() {
        let a = laplacian_1d(6);
        let x = vec![2.0; 6];
        let b = a.mul_vec(&x).unwrap();
        assert!(relative_residual(&a, &b, &x) < 1e-15);
    }

    #[test]
    fn relative_residual_one_at_zero_guess() {
        let a = laplacian_1d(6);
        let b = a.mul_vec(&[1.0; 6]).unwrap();
        let rr = relative_residual(&a, &b, &[0.0; 6]);
        assert!((rr - 1.0).abs() < 1e-14);
    }

    #[test]
    fn zero_rhs_uses_absolute_norm() {
        let a = laplacian_1d(4);
        let rr = relative_residual(&a, &[0.0; 4], &[0.0; 4]);
        assert_eq!(rr, 0.0);
    }

    #[test]
    fn parallel_residual_is_bit_identical_to_sequential() {
        // 400 rows > the 256-row ParContext threshold: the chunked SpMV
        // actually runs, and must not perturb a single bit
        let a = abr_sparse::gen::laplacian_2d_5pt(20);
        let x: Vec<f64> = (0..400).map(|i| (i as f64 * 0.013).cos()).collect();
        let b = a.mul_vec(&vec![1.0; 400]).unwrap();
        let rr = relative_residual(&a, &b, &x);
        let r = a.residual(&b, &x).unwrap();
        let expect = blas1::norm2(&r) / blas1::norm2(&b);
        assert_eq!(rr.to_bits(), expect.to_bits());
    }

    #[test]
    fn scratch_variant_matches_and_reuses_buffer() {
        let a = abr_sparse::gen::laplacian_2d_5pt(20);
        let x: Vec<f64> = (0..400).map(|i| (i as f64 * 0.013).cos()).collect();
        let b = a.mul_vec(&vec![1.0; 400]).unwrap();
        let mut buf = Vec::new();
        let rr = relative_residual_with(&mut buf, &a, &b, &x);
        assert_eq!(rr.to_bits(), relative_residual(&a, &b, &x).to_bits());
        let ptr = buf.as_ptr();
        let cap = buf.capacity();
        for _ in 0..3 {
            relative_residual_with(&mut buf, &a, &b, &x);
            assert_eq!(buf.as_ptr(), ptr, "scratch buffer must be reused");
            assert_eq!(buf.capacity(), cap);
        }
    }

    #[test]
    fn options_constructors() {
        let o = SolveOptions::fixed_iterations(50);
        assert_eq!(o.max_iters, 50);
        assert_eq!(o.tol, 0.0);
        assert!(o.record_history);
        let o = SolveOptions::to_tolerance(1e-9, 200);
        assert_eq!(o.tol, 1e-9);
        assert!(!o.record_history);
    }

    #[test]
    fn check_every_zero_means_every_iteration() {
        use crate::scaled::damped_jacobi;
        use crate::{block_jacobi, gauss_seidel, jacobi, sor};
        use abr_sparse::RowPartition;
        type Run = fn(&CsrMatrix, &[f64], &[f64], &SolveOptions) -> SolveResult;
        let runs: [(&str, Run); 5] = [
            ("jacobi", |a, b, x0, o| jacobi(a, b, x0, o).unwrap()),
            ("gauss_seidel", |a, b, x0, o| gauss_seidel(a, b, x0, o).unwrap()),
            ("sor", |a, b, x0, o| sor(a, b, x0, 1.3, o).unwrap()),
            ("damped_jacobi", |a, b, x0, o| damped_jacobi(a, b, x0, 0.8, o).unwrap()),
            ("block_jacobi", |a, b, x0, o| {
                let p = RowPartition::uniform(a.n_rows(), 4).unwrap();
                block_jacobi(a, b, x0, &p, 2, o).unwrap()
            }),
        ];
        let a = abr_sparse::gen::laplacian_2d_5pt(6);
        let b: Vec<f64> = (0..36).map(|i| 1.0 + (i as f64 * 0.3).sin()).collect();
        let x0 = vec![0.0; 36];
        let opts = |check_every| SolveOptions {
            max_iters: 2000,
            tol: 1e-8,
            record_history: false,
            check_every,
        };
        for (name, run) in runs {
            let zero = run(&a, &b, &x0, &opts(0));
            let one = run(&a, &b, &x0, &opts(1));
            assert!(zero.converged, "{name}");
            assert_eq!(zero.iterations, one.iterations, "{name}");
            assert_eq!(zero.final_residual.to_bits(), one.final_residual.to_bits(), "{name}");
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&zero.x), bits(&one.x), "{name}");
        }
    }

    #[test]
    fn residual_at_indexing() {
        let r = SolveResult {
            x: vec![],
            iterations: 3,
            converged: true,
            final_residual: 0.1,
            history: vec![0.5, 0.25, 0.1],
            fault: None,
        };
        assert_eq!(r.residual_at(1), Some(0.5));
        assert_eq!(r.residual_at(3), Some(0.1));
        assert_eq!(r.residual_at(4), None);
        assert_eq!(r.residual_at(0), None);
    }
}
