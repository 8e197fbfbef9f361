//! Relaxation methods as multigrid smoothers — the application §5 of the
//! paper names as the natural future use of block-asynchronous iteration
//! ("the widespread use of component-wise relaxation methods as
//! preconditioner or smoother in multigrid").

use crate::async_block::AsyncBlockSolver;
use crate::convergence::{gs_sweep, inverse_diagonal, SolveOptions};
use crate::scaled::damped_jacobi_sweep;
use abr_sparse::{CsrMatrix, Result, RowPartition};

/// A smoother: damps the high-frequency error of an approximate solution.
pub trait Smoother {
    /// Applies `sweeps` smoothing steps to `x` in place.
    fn smooth(&self, a: &CsrMatrix, b: &[f64], x: &mut Vec<f64>, sweeps: usize) -> Result<()>;
}

/// Damped Jacobi smoothing (`tau = 2/3` is the classic choice for
/// Poisson-like problems).
#[derive(Debug, Clone, Copy)]
pub struct DampedJacobiSmoother {
    /// Damping weight.
    pub tau: f64,
}

impl Default for DampedJacobiSmoother {
    fn default() -> Self {
        DampedJacobiSmoother { tau: 2.0 / 3.0 }
    }
}

impl Smoother for DampedJacobiSmoother {
    fn smooth(&self, a: &CsrMatrix, b: &[f64], x: &mut Vec<f64>, sweeps: usize) -> Result<()> {
        let inv_diag = inverse_diagonal(a)?;
        let mut ax = vec![0.0; a.n_rows()];
        for _ in 0..sweeps {
            damped_jacobi_sweep(a, b, &inv_diag, self.tau, x, &mut ax)?;
        }
        Ok(())
    }
}

/// Forward Gauss-Seidel smoothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct GaussSeidelSmoother;

impl Smoother for GaussSeidelSmoother {
    fn smooth(&self, a: &CsrMatrix, b: &[f64], x: &mut Vec<f64>, sweeps: usize) -> Result<()> {
        let inv_diag = inverse_diagonal(a)?;
        for _ in 0..sweeps {
            gs_sweep(a, b, &inv_diag, x, 0..a.n_rows());
        }
        Ok(())
    }
}

/// Block-asynchronous smoothing: each "sweep" is one async-(k) global
/// iteration over the given block size — the smoother §5 of the paper
/// anticipates for exascale multigrid.
#[derive(Debug, Clone)]
pub struct AsyncSmoother {
    /// The async-(k) configuration used per sweep.
    pub solver: AsyncBlockSolver,
    /// Block (subdomain) size for the partition.
    pub block_size: usize,
}

impl Default for AsyncSmoother {
    fn default() -> Self {
        // Damping 2/3 inside the local sweeps: undamped Jacobi leaves the
        // highest-frequency mode essentially undamped (its iteration-
        // matrix eigenvalue is near -1), which disqualifies it as a
        // smoother; the damped update is the standard fix.
        let solver =
            AsyncBlockSolver { damping: 2.0 / 3.0, ..AsyncBlockSolver::async_k(2) };
        AsyncSmoother { solver, block_size: 64 }
    }
}

impl Smoother for AsyncSmoother {
    fn smooth(&self, a: &CsrMatrix, b: &[f64], x: &mut Vec<f64>, sweeps: usize) -> Result<()> {
        if sweeps == 0 {
            return Ok(());
        }
        let p = RowPartition::uniform(a.n_rows(), self.block_size.min(a.n_rows()))?;
        let opts = SolveOptions { max_iters: sweeps, tol: 0.0, record_history: false, check_every: 1 };
        let r = self.solver.solve(a, b, x, &p, &opts)?;
        *x = r.x;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_sparse::blas1;
    use abr_sparse::gen::laplacian_1d;

    /// Smoothers must damp a high-frequency error much faster than a
    /// smooth one — that is their defining property.
    fn damping_ratio<S: Smoother>(s: &S, freq_mode: usize) -> f64 {
        let n = 63;
        let a = laplacian_1d(n);
        let b = vec![0.0; n]; // solution is zero; x is pure error
        let pi = std::f64::consts::PI;
        let mut x: Vec<f64> = (0..n)
            .map(|i| ((i + 1) as f64 * freq_mode as f64 * pi / (n as f64 + 1.0)).sin())
            .collect();
        let before = blas1::norm2(&x);
        s.smooth(&a, &b, &mut x, 3).unwrap();
        blas1::norm2(&x) / before
    }

    #[test]
    fn damped_jacobi_smooths_high_frequencies() {
        let s = DampedJacobiSmoother::default();
        let high = damping_ratio(&s, 60);
        let low = damping_ratio(&s, 1);
        assert!(high < 0.1, "high-frequency mode barely damped: {high}");
        assert!(low > 0.9, "low-frequency mode should survive smoothing: {low}");
    }

    #[test]
    fn gauss_seidel_smooths_high_frequencies() {
        let s = GaussSeidelSmoother;
        assert!(damping_ratio(&s, 60) < 0.2);
        assert!(damping_ratio(&s, 1) > 0.9);
    }

    #[test]
    fn async_smoother_smooths_high_frequencies() {
        let s = AsyncSmoother { block_size: 8, ..Default::default() };
        assert!(damping_ratio(&s, 60) < 0.2);
        assert!(damping_ratio(&s, 1) > 0.85);
    }

    #[test]
    fn zero_sweeps_is_identity() {
        let a = laplacian_1d(10);
        let b = vec![1.0; 10];
        let mut x = vec![0.25; 10];
        let before = x.clone();
        AsyncSmoother::default().smooth(&a, &b, &mut x, 0).unwrap();
        assert_eq!(x, before);
    }
}
