//! BiCGstab (van der Vorst): the Krylov baseline for *nonsymmetric*
//! systems — the convection-diffusion problems where CG does not apply
//! but the asynchronous relaxation methods still converge
//! (diagonal dominance gives `rho(|B|) < 1`).

use crate::convergence::{check_system, finish, SolveOptions, SolveResult};
use crate::pcg::Preconditioner;
use abr_sparse::{blas1, CsrMatrix, Result};

/// Solves a general square system `A x = b` with right-preconditioned
/// BiCGstab. Each iteration costs two SpMVs and two preconditioner
/// applications.
pub fn bicgstab<P: Preconditioner>(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    prec: &P,
    opts: &SolveOptions,
) -> Result<SolveResult> {
    check_system(a, b, x0);
    let n = a.n_rows();
    let mut x = x0.to_vec();
    let mut r = a.residual(b, &x)?;
    let r_hat = r.clone(); // shadow residual
    let mut rho = 1.0f64;
    let mut alpha = 1.0f64;
    let mut omega = 1.0f64;
    let mut v = vec![0.0; n];
    let mut p = vec![0.0; n];
    let mut y = vec![0.0; n];
    let mut z = vec![0.0; n];
    let mut t = vec![0.0; n];
    let nb = blas1::norm2(b).max(f64::MIN_POSITIVE);

    let mut history = Vec::new();
    let mut iterations = 0;
    let mut converged = opts.tol > 0.0 && blas1::norm2(&r) / nb <= opts.tol;

    while iterations < opts.max_iters && !converged {
        let rho_new = blas1::dot(&r_hat, &r);
        if rho_new.abs() < 1e-300 {
            break; // breakdown: shadow residual orthogonal to residual
        }
        let beta = (rho_new / rho) * (alpha / omega);
        rho = rho_new;
        // p = r + beta (p - omega v)
        for i in 0..n {
            p[i] = r[i] + beta * (p[i] - omega * v[i]);
        }
        prec.apply(&p, &mut y);
        a.spmv(&y, &mut v)?;
        let rhv = blas1::dot(&r_hat, &v);
        if rhv.abs() < 1e-300 {
            break;
        }
        alpha = rho / rhv;
        // s = r - alpha v  (reuse r)
        blas1::axpy(-alpha, &v, &mut r);
        if blas1::norm2(&r) / nb <= opts.tol && opts.tol > 0.0 {
            blas1::axpy(alpha, &y, &mut x);
            iterations += 1;
            if opts.record_history {
                history.push(blas1::norm2(&r) / nb);
            }
            converged = true;
            break;
        }
        prec.apply(&r, &mut z);
        a.spmv(&z, &mut t)?;
        let tt = blas1::dot(&t, &t);
        if tt < 1e-300 {
            break;
        }
        omega = blas1::dot(&t, &r) / tt;
        // x += alpha y + omega z
        for i in 0..n {
            x[i] += alpha * y[i] + omega * z[i];
        }
        // r -= omega t
        blas1::axpy(-omega, &t, &mut r);
        iterations += 1;
        let rr = blas1::norm2(&r) / nb;
        if opts.record_history {
            history.push(rr);
        }
        if opts.tol > 0.0 && rr <= opts.tol {
            converged = true;
        }
        if !rr.is_finite() || omega.abs() < 1e-300 {
            break;
        }
    }

    Ok(finish(a, b, x, iterations, converged, history, opts.tol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilu::Ilu0;
    use crate::jacobi::jacobi;
    use crate::pcg::{IdentityPreconditioner, JacobiPreconditioner};
    use abr_sparse::gen::{convection_diffusion_2d, laplacian_2d_5pt};

    fn wind_system(m: usize) -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let a = convection_diffusion_2d(m, 0.05, 1.0, 0.3);
        let n = m * m;
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + ((i % 7) as f64) * 0.1).collect();
        let b = a.mul_vec(&x_true).unwrap();
        (a, b, x_true)
    }

    #[test]
    fn solves_nonsymmetric_convection_diffusion() {
        let (a, b, x_true) = wind_system(12);
        let n = a.n_rows();
        let r = bicgstab(
            &a,
            &b,
            &vec![0.0; n],
            &IdentityPreconditioner,
            &SolveOptions::to_tolerance(1e-10, 2_000),
        )
        .unwrap();
        assert!(r.converged, "residual {}", r.final_residual);
        for (xi, ti) in r.x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-7);
        }
    }

    #[test]
    fn far_fewer_iterations_than_jacobi() {
        let (a, b, _) = wind_system(14);
        let n = a.n_rows();
        let opts = SolveOptions::to_tolerance(1e-9, 100_000);
        let kr = bicgstab(&a, &b, &vec![0.0; n], &IdentityPreconditioner, &opts).unwrap();
        let j = jacobi(&a, &b, &vec![0.0; n], &opts).unwrap();
        assert!(kr.converged && j.converged);
        assert!(
            kr.iterations * 3 < j.iterations,
            "BiCGstab {} vs Jacobi {}",
            kr.iterations,
            j.iterations
        );
    }

    #[test]
    fn ilu_preconditioning_cuts_iterations() {
        let (a, b, _) = wind_system(16);
        let n = a.n_rows();
        let opts = SolveOptions::to_tolerance(1e-10, 5_000);
        let plain =
            bicgstab(&a, &b, &vec![0.0; n], &IdentityPreconditioner, &opts).unwrap();
        let ilu = bicgstab(&a, &b, &vec![0.0; n], &Ilu0::new(&a).unwrap(), &opts).unwrap();
        assert!(plain.converged && ilu.converged);
        assert!(
            ilu.iterations * 2 < plain.iterations.max(1),
            "ILU {} vs plain {}",
            ilu.iterations,
            plain.iterations
        );
    }

    #[test]
    fn agrees_with_cg_on_spd_system() {
        let a = laplacian_2d_5pt(9);
        let n = 81;
        let b = a.mul_vec(&vec![1.0; n]).unwrap();
        let opts = SolveOptions::to_tolerance(1e-11, 1_000);
        let k = bicgstab(
            &a,
            &b,
            &vec![0.0; n],
            &JacobiPreconditioner::new(&a).unwrap(),
            &opts,
        )
        .unwrap();
        assert!(k.converged);
        let err = k.x.iter().map(|v| (v - 1.0).abs()).fold(0.0f64, f64::max);
        assert!(err < 1e-8, "max error {err}");
    }
}
