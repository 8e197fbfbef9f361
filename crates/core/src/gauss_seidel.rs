//! The Gauss-Seidel method: like Jacobi but each component update
//! immediately uses the freshly computed values of earlier components —
//! the synchronous CPU reference the paper compares against, plus a
//! red-black (two-colour) variant that parallelises on grids.

use crate::convergence::{
    check_system, gs_sweep, inverse_diagonal, stationary, SolveOptions, SolveResult,
};
use abr_sparse::{CsrMatrix, Result};

/// Solves `A x = b` with forward Gauss-Seidel sweeps.
pub fn gauss_seidel(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    opts: &SolveOptions,
) -> Result<SolveResult> {
    check_system(a, b, x0);
    let inv_diag = inverse_diagonal(a)?;
    let n = a.n_rows();
    Ok(stationary(a, b, x0, opts, |x| gs_sweep(a, b, &inv_diag, x, 0..n)))
}

/// Backward Gauss-Seidel sweeps (rows in descending order).
pub fn gauss_seidel_backward(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    opts: &SolveOptions,
) -> Result<SolveResult> {
    check_system(a, b, x0);
    let inv_diag = inverse_diagonal(a)?;
    let n = a.n_rows();
    Ok(stationary(a, b, x0, opts, |x| gs_sweep(a, b, &inv_diag, x, (0..n).rev())))
}

/// Symmetric Gauss-Seidel: one forward followed by one backward sweep per
/// iteration. The resulting iteration operator is symmetric in the
/// `A`-inner product, which makes SGS usable as an SPD preconditioner.
pub fn gauss_seidel_symmetric(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    opts: &SolveOptions,
) -> Result<SolveResult> {
    check_system(a, b, x0);
    let inv_diag = inverse_diagonal(a)?;
    let n = a.n_rows();
    Ok(stationary(a, b, x0, opts, |x| {
        gs_sweep(a, b, &inv_diag, x, 0..n);
        gs_sweep(a, b, &inv_diag, x, (0..n).rev());
    }))
}

/// Red-black Gauss-Seidel: rows are two-coloured by `colour[i]`, all rows
/// of colour 0 update first (in parallel, conceptually), then colour 1.
/// For 5-point-stencil grids with a checkerboard colouring this is an
/// exact Gauss-Seidel reordering; for general matrices it is a block
/// two-stage method. This is [`gauss_seidel_multicolor`] with two
/// colour classes (`false` before `true`).
pub fn gauss_seidel_red_black(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    colour: &[bool],
    opts: &SolveOptions,
) -> Result<SolveResult> {
    let colors: Vec<usize> = colour.iter().map(|&c| usize::from(c)).collect();
    gauss_seidel_multicolor(a, b, x0, &colors, opts)
}

/// Multi-colour Gauss-Seidel: rows update colour class by colour class
/// (classes from [`abr_sparse::coloring`]); within a class all updates
/// are independent and could run in parallel, across classes the freshest
/// values are used. With a valid colouring this is an exact Gauss-Seidel
/// reordering — the classical synchronous-parallel alternative to the
/// paper's asynchronous approach.
pub fn gauss_seidel_multicolor(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    colors: &[usize],
    opts: &SolveOptions,
) -> Result<SolveResult> {
    check_system(a, b, x0);
    assert_eq!(colors.len(), a.n_rows(), "one colour per row");
    // rows ordered by colour, preserving order within a class (stable sort)
    let mut order: Vec<usize> = (0..a.n_rows()).collect();
    order.sort_by_key(|&i| colors[i]);
    let inv_diag = inverse_diagonal(a)?;
    Ok(stationary(a, b, x0, opts, |x| gs_sweep(a, b, &inv_diag, x, order.iter().copied())))
}

/// Checkerboard colouring for an `m x m` grid ordered row-major.
pub fn checkerboard(m: usize) -> Vec<bool> {
    (0..m * m).map(|c| (c / m + c % m) % 2 == 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi::jacobi;
    use abr_sparse::gen::{laplacian_1d, laplacian_2d_5pt};

    #[test]
    fn solves_laplacian() {
        let a = laplacian_1d(30);
        let x_true: Vec<f64> = (0..30).map(|i| (i as f64 * 0.3).sin()).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let r =
            gauss_seidel(&a, &b, &vec![0.0; 30], &SolveOptions::to_tolerance(1e-12, 5000)).unwrap();
        assert!(r.converged);
        for (xi, ti) in r.x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
    }

    #[test]
    fn converges_about_twice_as_fast_as_jacobi() {
        // The classical result the paper invokes in §4.3: for consistently
        // ordered matrices rho(GS) = rho(Jacobi)^2.
        let a = laplacian_2d_5pt(10);
        let b = a.mul_vec(&vec![1.0; 100]).unwrap();
        let opts = SolveOptions::fixed_iterations(120);
        let j = jacobi(&a, &b, &vec![0.0; 100], &opts).unwrap();
        let g = gauss_seidel(&a, &b, &vec![0.0; 100], &opts).unwrap();
        let rate_j = (j.history[119] / j.history[79]).powf(1.0 / 40.0);
        let rate_g = (g.history[119] / g.history[79]).powf(1.0 / 40.0);
        assert!(
            (rate_g - rate_j * rate_j).abs() < 0.02,
            "GS rate {rate_g} vs Jacobi^2 {}",
            rate_j * rate_j
        );
    }

    #[test]
    fn red_black_equals_forward_rate_on_grid() {
        let m = 8;
        let a = laplacian_2d_5pt(m);
        let b = a.mul_vec(&vec![1.0; m * m]).unwrap();
        let opts = SolveOptions::fixed_iterations(80);
        let rb = gauss_seidel_red_black(&a, &b, &vec![0.0; m * m], &checkerboard(m), &opts)
            .unwrap();
        let fw = gauss_seidel(&a, &b, &vec![0.0; m * m], &opts).unwrap();
        // same asymptotic rate (not identical iterates)
        let rate_rb = (rb.history[79] / rb.history[39]).powf(1.0 / 40.0);
        let rate_fw = (fw.history[79] / fw.history[39]).powf(1.0 / 40.0);
        assert!((rate_rb - rate_fw).abs() < 0.03, "{rate_rb} vs {rate_fw}");
    }

    #[test]
    fn backward_converges_with_forward_rate() {
        let a = laplacian_2d_5pt(8);
        let b = a.mul_vec(&vec![1.0; 64]).unwrap();
        let opts = SolveOptions::to_tolerance(1e-10, 100_000);
        let fw = gauss_seidel(&a, &b, &vec![0.0; 64], &opts).unwrap();
        let bw = gauss_seidel_backward(&a, &b, &vec![0.0; 64], &opts).unwrap();
        assert!(fw.converged && bw.converged);
        // symmetric matrix: identical rate up to transient effects
        let ratio = bw.iterations as f64 / fw.iterations as f64;
        assert!((0.8..1.25).contains(&ratio), "{} vs {}", bw.iterations, fw.iterations);
    }

    #[test]
    fn symmetric_sweep_at_least_halves_iteration_count() {
        let a = laplacian_2d_5pt(8);
        let b = a.mul_vec(&vec![1.0; 64]).unwrap();
        let opts = SolveOptions::to_tolerance(1e-10, 100_000);
        let fw = gauss_seidel(&a, &b, &vec![0.0; 64], &opts).unwrap();
        let sym = gauss_seidel_symmetric(&a, &b, &vec![0.0; 64], &opts).unwrap();
        assert!(sym.converged);
        // each SGS iteration does two sweeps; the symmetrised operator is
        // not quite as fast as two forward sweeps, but close
        assert!(
            (sym.iterations as f64) <= 0.65 * fw.iterations as f64,
            "SGS {} vs GS {}",
            sym.iterations,
            fw.iterations
        );
    }

    #[test]
    fn multicolor_matches_forward_gs_rate_on_grid() {
        use abr_sparse::coloring::greedy_coloring;
        let m = 10;
        let a = laplacian_2d_5pt(m);
        let b = a.mul_vec(&vec![1.0; m * m]).unwrap();
        let colors = greedy_coloring(&a);
        let opts = SolveOptions::to_tolerance(1e-10, 100_000);
        let mc = gauss_seidel_multicolor(&a, &b, &vec![0.0; m * m], &colors, &opts).unwrap();
        let fw = gauss_seidel(&a, &b, &vec![0.0; m * m], &opts).unwrap();
        assert!(mc.converged && fw.converged);
        let ratio = mc.iterations as f64 / fw.iterations as f64;
        assert!((0.7..1.4).contains(&ratio), "MC {} vs FW {}", mc.iterations, fw.iterations);
    }

    #[test]
    fn multicolor_converges_on_many_color_matrix() {
        use abr_sparse::coloring::greedy_coloring;
        let a = abr_sparse::gen::trefethen(128).unwrap();
        let b = a.mul_vec(&vec![1.0; 128]).unwrap();
        let colors = greedy_coloring(&a);
        let r = gauss_seidel_multicolor(
            &a,
            &b,
            &vec![0.0; 128],
            &colors,
            &SolveOptions::to_tolerance(1e-10, 10_000),
        )
        .unwrap();
        assert!(r.converged, "residual {}", r.final_residual);
    }

    #[test]
    fn checkerboard_alternates() {
        let c = checkerboard(3);
        assert_eq!(c, vec![false, true, false, true, false, true, false, true, false]);
    }

    #[test]
    fn tolerance_stop_before_max() {
        let a = laplacian_1d(10);
        let b = a.mul_vec(&[1.0; 10]).unwrap();
        let r = gauss_seidel(&a, &b, &[0.0; 10], &SolveOptions::to_tolerance(1e-6, 100000))
            .unwrap();
        assert!(r.converged);
        assert!(r.iterations < 100000);
    }
}
