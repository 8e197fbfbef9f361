//! Solver options, results, and residual bookkeeping shared by every
//! method in this crate.

use abr_sparse::par::ParContext;
use abr_sparse::{blas1, CsrMatrix};

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
    /// For asynchronous methods: how many global iterations to run between
    /// convergence checks (each check is a synchronisation point of the
    /// *driver*, not of the iteration itself).
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
