//! Restarted GMRES(m) with Givens rotations — the second Krylov method
//! the paper's introduction names ("methods like the Conjugate Gradient
//! or GMRES, the parallelism is usually limited … with synchronization
//! required"). Its per-iteration orthogonalisation against the whole
//! Krylov basis is exactly the synchronisation burden the asynchronous
//! programme avoids, which makes it the natural contrast baseline for
//! nonsymmetric systems.

use crate::convergence::{check_system, finish, SolveOptions, SolveResult};
use crate::pcg::Preconditioner;
use abr_sparse::{blas1, CsrMatrix, Result, SparseError};

/// Solves a general square system `A x = b` with right-preconditioned
/// restarted GMRES. `restart` is the Krylov dimension per cycle; each
/// inner iteration costs one SpMV + one preconditioner application +
/// orthogonalisation against the basis built so far.
///
/// `opts.max_iters` counts *inner* iterations, so runtimes are comparable
/// with the other solvers' iteration counts.
pub fn gmres<P: Preconditioner>(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    prec: &P,
    restart: usize,
    opts: &SolveOptions,
) -> Result<SolveResult> {
    check_system(a, b, x0);
    if restart == 0 {
        return Err(SparseError::Generator("gmres restart must be positive".into()));
    }
    let n = a.n_rows();
    let m = restart.min(n);
    let nb = blas1::norm2(b).max(f64::MIN_POSITIVE);

    let mut x = x0.to_vec();
    let mut history = Vec::new();
    let mut iterations = 0usize;
    let mut converged = false;

    // workspace reused across cycles
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
    // Hessenberg stored column-major: h[j] has j + 2 entries
    let mut h: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut cs = vec![0.0f64; m];
    let mut sn = vec![0.0f64; m];
    let mut g = vec![0.0f64; m + 1];
    let mut z = vec![0.0f64; n];
    let mut w = vec![0.0f64; n];

    'outer: while iterations < opts.max_iters && !converged {
        let r = a.residual(b, &x)?;
        let beta = blas1::norm2(&r);
        if opts.tol > 0.0 && beta / nb <= opts.tol {
            converged = true;
            break;
        }
        if beta < 1e-300 {
            // already at the exact solution (possible with tol == 0 in
            // fixed-iteration mode): normalising by beta would poison the
            // basis with NaN
            break;
        }
        basis.clear();
        h.clear();
        basis.push(r.iter().map(|&v| v / beta).collect());
        g.iter_mut().for_each(|v| *v = 0.0);
        g[0] = beta;

        let mut j = 0usize;
        while j < m && iterations < opts.max_iters {
            // w = A M^{-1} v_j
            prec.apply(&basis[j], &mut z);
            a.spmv(&z, &mut w)?;
            // modified Gram-Schmidt
            let mut hj = Vec::with_capacity(j + 2);
            for vi in basis.iter().take(j + 1) {
                let hij = blas1::dot(vi, &w);
                blas1::axpy(-hij, vi, &mut w);
                hj.push(hij);
            }
            let hlast = blas1::norm2(&w);
            hj.push(hlast);

            // apply existing Givens rotations to the new column
            for (i, (&c, &s)) in cs.iter().zip(&sn).enumerate().take(j) {
                let tmp = c * hj[i] + s * hj[i + 1];
                hj[i + 1] = -s * hj[i] + c * hj[i + 1];
                hj[i] = tmp;
            }
            // new rotation annihilating hj[j + 1]
            let denom = (hj[j] * hj[j] + hj[j + 1] * hj[j + 1]).sqrt();
            if denom < 1e-300 {
                // the whole new column vanished: the Krylov space is
                // exhausted. Solve with the j columns established so far
                // (including the degenerate column would divide by its
                // ~0 pivot).
                let rr = solve_and_update(a, prec, &mut x, &basis, &h, &g, j, b)?;
                if opts.record_history {
                    history.push(rr / nb);
                }
                converged = opts.tol > 0.0 && rr / nb <= opts.tol;
                break 'outer;
            }
            cs[j] = hj[j] / denom;
            sn[j] = hj[j + 1] / denom;
            hj[j] = denom;
            hj[j + 1] = 0.0;
            let tmp = cs[j] * g[j];
            g[j + 1] = -sn[j] * g[j];
            g[j] = tmp;
            h.push(hj);

            if hlast > 1e-300 {
                basis.push(w.iter().map(|&v| v / hlast).collect());
            }
            iterations += 1;
            let rr = g[j + 1].abs() / nb;
            if opts.record_history {
                history.push(rr);
            }
            j += 1;
            if opts.tol > 0.0 && rr <= opts.tol {
                solve_and_update(a, prec, &mut x, &basis, &h, &g, j, b)?;
                converged = true;
                break 'outer;
            }
            // Krylov space exhausted — or NaN from non-finite input,
            // which must not march on with a missing basis vector:
            // restart from a fresh residual. Written so NaN takes the
            // break path too.
            let exhausted = !hlast.is_finite() || hlast <= 1e-300;
            if exhausted {
                break;
            }
        }
        solve_and_update(a, prec, &mut x, &basis, &h, &g, j, b)?;
    }

    Ok(finish(a, b, x, iterations, converged, history, opts.tol))
}

/// Back-substitutes the triangularised Hessenberg system for the `k`
/// Krylov coefficients and applies the preconditioned correction to `x`.
/// Returns the true (unpreconditioned) residual norm afterwards.
#[allow(clippy::too_many_arguments)] // internal helper over the GMRES state
fn solve_and_update<P: Preconditioner>(
    a: &CsrMatrix,
    prec: &P,
    x: &mut [f64],
    basis: &[Vec<f64>],
    h: &[Vec<f64>],
    g: &[f64],
    k: usize,
    b: &[f64],
) -> Result<f64> {
    if k == 0 {
        let r = a.residual(b, x)?;
        return Ok(blas1::norm2(&r));
    }
    let mut y = vec![0.0f64; k];
    for i in (0..k).rev() {
        let mut acc = g[i];
        for (j, yj) in y.iter().enumerate().take(k).skip(i + 1) {
            acc -= h[j][i] * yj;
        }
        y[i] = acc / h[i][i];
    }
    let n = x.len();
    let mut update = vec![0.0f64; n];
    for (j, yj) in y.iter().enumerate() {
        blas1::axpy(*yj, &basis[j], &mut update);
    }
    let mut z = vec![0.0f64; n];
    prec.apply(&update, &mut z);
    for (xi, &zi) in x.iter_mut().zip(&z) {
        *xi += zi;
    }
    let r = a.residual(b, x)?;
    Ok(blas1::norm2(&r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilu::Ilu0;
    use crate::pcg::IdentityPreconditioner;
    use abr_sparse::gen::{convection_diffusion_2d, laplacian_2d_5pt};

    #[test]
    fn exact_in_n_inner_iterations() {
        // full GMRES (restart >= n) is a direct method
        let a = laplacian_2d_5pt(4);
        let n = 16;
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 8.0).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let r = gmres(
            &a,
            &b,
            &vec![0.0; n],
            &IdentityPreconditioner,
            n,
            &SolveOptions::to_tolerance(1e-11, n + 1),
        )
        .unwrap();
        assert!(r.converged, "residual {}", r.final_residual);
    }

    #[test]
    fn solves_nonsymmetric_system() {
        let a = convection_diffusion_2d(12, 0.05, 1.0, 0.4);
        let n = a.n_rows();
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + 0.01 * i as f64).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let r = gmres(
            &a,
            &b,
            &vec![0.0; n],
            &IdentityPreconditioner,
            30,
            &SolveOptions::to_tolerance(1e-10, 5_000),
        )
        .unwrap();
        assert!(r.converged, "residual {}", r.final_residual);
        for (xi, ti) in r.x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-7);
        }
    }

    #[test]
    fn restarting_still_converges_just_slower() {
        let a = laplacian_2d_5pt(12);
        let n = 144;
        let b = a.mul_vec(&vec![1.0; n]).unwrap();
        let opts = SolveOptions::to_tolerance(1e-9, 20_000);
        let full = gmres(&a, &b, &vec![0.0; n], &IdentityPreconditioner, 200, &opts).unwrap();
        let short = gmres(&a, &b, &vec![0.0; n], &IdentityPreconditioner, 10, &opts).unwrap();
        assert!(full.converged && short.converged);
        assert!(
            short.iterations >= full.iterations,
            "restarting cannot beat full GMRES: {} vs {}",
            short.iterations,
            full.iterations
        );
    }

    #[test]
    fn ilu_preconditioning_accelerates() {
        let a = convection_diffusion_2d(16, 0.05, 1.0, 0.3);
        let n = a.n_rows();
        let b = a.mul_vec(&vec![1.0; n]).unwrap();
        let opts = SolveOptions::to_tolerance(1e-10, 10_000);
        let plain =
            gmres(&a, &b, &vec![0.0; n], &IdentityPreconditioner, 30, &opts).unwrap();
        let ilu = gmres(&a, &b, &vec![0.0; n], &Ilu0::new(&a).unwrap(), 30, &opts).unwrap();
        assert!(plain.converged && ilu.converged);
        assert!(
            ilu.iterations * 2 < plain.iterations.max(1),
            "ILU {} vs plain {}",
            ilu.iterations,
            plain.iterations
        );
    }

    #[test]
    fn exact_initial_guess_with_fixed_iterations_stays_finite() {
        // regression: beta = 0 used to poison the basis with NaN when
        // tol == 0 (fixed-iteration mode) and x0 was already the solution
        let a = laplacian_2d_5pt(4);
        let x_true = vec![2.0; 16];
        let b = a.mul_vec(&x_true).unwrap();
        let r = gmres(
            &a,
            &b,
            &x_true,
            &IdentityPreconditioner,
            8,
            &SolveOptions::fixed_iterations(5),
        )
        .unwrap();
        assert!(r.final_residual.is_finite());
        assert!(r.final_residual < 1e-14, "{}", r.final_residual);
        for (xi, ti) in r.x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-14);
        }
    }

    #[test]
    fn nan_input_terminates_without_panic() {
        // regression: a NaN orthogonalisation norm used to skip the basis
        // push yet continue, indexing a missing basis vector
        let a = laplacian_2d_5pt(3);
        let b = vec![f64::NAN; 9];
        let r = gmres(
            &a,
            &b,
            &[0.0; 9],
            &IdentityPreconditioner,
            9,
            &SolveOptions::fixed_iterations(20),
        )
        .unwrap();
        assert!(!r.converged);
    }

    #[test]
    fn zero_restart_rejected() {
        let a = laplacian_2d_5pt(3);
        assert!(gmres(
            &a,
            &[1.0; 9],
            &[0.0; 9],
            &IdentityPreconditioner,
            0,
            &SolveOptions::default()
        )
        .is_err());
    }

    #[test]
    fn monotone_residual_within_a_cycle() {
        let a = laplacian_2d_5pt(8);
        let n = 64;
        let b = a.mul_vec(&vec![1.0; n]).unwrap();
        let r = gmres(
            &a,
            &b,
            &vec![0.0; n],
            &IdentityPreconditioner,
            64,
            &SolveOptions { max_iters: 40, tol: 0.0, record_history: true, check_every: 1 },
        )
        .unwrap();
        // GMRES minimises the residual over a growing space: monotone
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-12), "{} -> {}", w[0], w[1]);
        }
    }
}
