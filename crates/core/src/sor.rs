//! Successive over-relaxation: Gauss-Seidel with relaxation weight
//! `omega`. `omega = 1` recovers Gauss-Seidel; the optimal weight for
//! consistently ordered SPD systems is
//! `omega* = 2 / (1 + sqrt(1 - rho_J^2))`.

use crate::convergence::{
    check_system, inverse_diagonal, relaxed_row, stationary, SolveOptions, SolveResult,
};
use abr_sparse::{CsrMatrix, Result, SparseError};

/// Solves `A x = b` with SOR sweeps of weight `omega` in `(0, 2)`.
pub fn sor(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    omega: f64,
    opts: &SolveOptions,
) -> Result<SolveResult> {
    check_system(a, b, x0);
    if !(0.0..2.0).contains(&omega) || omega == 0.0 {
        return Err(SparseError::Generator(format!(
            "SOR weight must lie in (0, 2), got {omega}"
        )));
    }
    let inv_diag = inverse_diagonal(a)?;
    Ok(stationary(a, b, x0, opts, |x| {
        for i in 0..x.len() {
            let gs = relaxed_row(a, b, &inv_diag, x, i);
            x[i] += omega * (gs - x[i]);
        }
    }))
}

/// The optimal SOR weight from the Jacobi spectral radius `rho_j`.
pub fn optimal_omega(rho_j: f64) -> f64 {
    2.0 / (1.0 + (1.0 - rho_j * rho_j).max(0.0).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gauss_seidel::gauss_seidel;
    use abr_sparse::gen::laplacian_2d_5pt;
    use abr_sparse::IterationMatrix;

    #[test]
    fn omega_one_equals_gauss_seidel() {
        let a = laplacian_2d_5pt(6);
        let b = a.mul_vec(&vec![1.0; 36]).unwrap();
        let opts = SolveOptions::fixed_iterations(20);
        let s = sor(&a, &b, &vec![0.0; 36], 1.0, &opts).unwrap();
        let g = gauss_seidel(&a, &b, &vec![0.0; 36], &opts).unwrap();
        for (xs, xg) in s.x.iter().zip(&g.x) {
            assert!((xs - xg).abs() < 1e-14);
        }
    }

    #[test]
    fn optimal_omega_beats_gauss_seidel() {
        let a = laplacian_2d_5pt(12);
        let n = 144;
        let rho_j = IterationMatrix::new(&a).unwrap().spectral_radius().unwrap();
        let w = optimal_omega(rho_j);
        assert!(w > 1.0 && w < 2.0);
        let b = a.mul_vec(&vec![1.0; n]).unwrap();
        let tol = SolveOptions::to_tolerance(1e-10, 100000);
        let s = sor(&a, &b, &vec![0.0; n], w, &tol).unwrap();
        let g = gauss_seidel(&a, &b, &vec![0.0; n], &tol).unwrap();
        assert!(s.converged && g.converged);
        assert!(
            s.iterations * 2 < g.iterations,
            "SOR {} vs GS {}",
            s.iterations,
            g.iterations
        );
    }

    #[test]
    fn invalid_omega_rejected() {
        let a = laplacian_2d_5pt(3);
        let b = vec![1.0; 9];
        for w in [0.0, -0.5, 2.0, 2.5] {
            assert!(sor(&a, &b, &[0.0; 9], w, &SolveOptions::default()).is_err());
        }
    }

    #[test]
    fn optimal_omega_limits() {
        assert!((optimal_omega(0.0) - 1.0).abs() < 1e-15);
        assert!(optimal_omega(0.999999) < 2.0);
        assert!(optimal_omega(0.9) > 1.3);
    }
}
