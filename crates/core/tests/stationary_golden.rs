//! Bit-identity pins for every solver result tail in abr-core.
//!
//! Each pinned value is an FNV-1a fingerprint of a whole
//! [`SolveResult`] — the iterate, the residual history, the iteration
//! count, the convergence flag and the final residual, all as raw bits —
//! on one non-trivial system (the 9x9 five-point Laplacian with a
//! non-constant right-hand side and a non-zero initial guess). A change
//! to a solver's numerics, its stopping rule or its residual bookkeeping
//! moves the fingerprint; a pure refactor of the driver loop must not.
//!
//! A failing check prints the moved entries and the whole table as
//! computed, ready to paste after an *intended* numerical change.

use abr_core::chebyshev::chebyshev;
use abr_core::gauss_seidel::checkerboard;
use abr_core::multigrid::Multigrid;
use abr_core::pcg::{IdentityPreconditioner, JacobiPreconditioner};
use abr_core::scaled::damped_jacobi;
use abr_core::smoother::{DampedJacobiSmoother, GaussSeidelSmoother, Smoother};
use abr_core::{
    bicgstab, block_jacobi, conjugate_gradient, gauss_seidel, gauss_seidel_backward,
    gauss_seidel_multicolor, gauss_seidel_red_black, gauss_seidel_symmetric, gmres, jacobi, pcg,
    sor, AsyncBlockSolver, Fnv1a, SolveOptions, SolveResult,
};
use abr_sparse::coloring::greedy_coloring;
use abr_sparse::gen::laplacian_2d_5pt;
use abr_sparse::{CsrMatrix, RowPartition};

const M: usize = 9;

fn system() -> (CsrMatrix, Vec<f64>, Vec<f64>) {
    let a = laplacian_2d_5pt(M);
    let n = a.n_rows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.37).sin()).collect();
    let x0: Vec<f64> = (0..n).map(|i| 0.1 * (i as f64 * 0.11).cos()).collect();
    (a, b, x0)
}

/// The three solver configurations every solver is pinned under: a
/// fixed-iteration history run, a tolerance run checked every 10
/// iterations, and a tolerance run that also records history and checks
/// every 3 iterations.
fn configs() -> [(&'static str, SolveOptions); 3] {
    [
        ("fixed37", SolveOptions::fixed_iterations(37)),
        ("tol1e-9", SolveOptions::to_tolerance(1e-9, 5000)),
        (
            "tol1e-7+hist/3",
            SolveOptions { max_iters: 5000, tol: 1e-7, record_history: true, check_every: 3 },
        ),
    ]
}

fn fingerprint(r: &SolveResult) -> u64 {
    let mut h = Fnv1a::new();
    h.write_usize(r.x.len());
    for &v in &r.x {
        h.write_f64(v);
    }
    h.write_usize(r.history.len());
    for &v in &r.history {
        h.write_f64(v);
    }
    h.write_usize(r.iterations);
    h.write_u64(u64::from(r.converged));
    h.write_f64(r.final_residual);
    h.finish()
}

type Solver = Box<dyn Fn(&CsrMatrix, &[f64], &[f64], &SolveOptions) -> SolveResult>;

fn stationary_solvers() -> Vec<(&'static str, Solver)> {
    vec![
        ("jacobi", Box::new(|a, b, x0, o| jacobi(a, b, x0, o).unwrap())),
        ("gauss_seidel", Box::new(|a, b, x0, o| gauss_seidel(a, b, x0, o).unwrap())),
        (
            "gauss_seidel_backward",
            Box::new(|a, b, x0, o| gauss_seidel_backward(a, b, x0, o).unwrap()),
        ),
        (
            "gauss_seidel_symmetric",
            Box::new(|a, b, x0, o| gauss_seidel_symmetric(a, b, x0, o).unwrap()),
        ),
        (
            "gauss_seidel_red_black",
            Box::new(|a, b, x0, o| gauss_seidel_red_black(a, b, x0, &checkerboard(M), o).unwrap()),
        ),
        (
            "gauss_seidel_multicolor",
            Box::new(|a, b, x0, o| {
                gauss_seidel_multicolor(a, b, x0, &greedy_coloring(a), o).unwrap()
            }),
        ),
        ("sor_w1.0", Box::new(|a, b, x0, o| sor(a, b, x0, 1.0, o).unwrap())),
        ("sor_w1.5", Box::new(|a, b, x0, o| sor(a, b, x0, 1.5, o).unwrap())),
        ("damped_jacobi", Box::new(|a, b, x0, o| damped_jacobi(a, b, x0, 0.8, o).unwrap())),
        (
            "block_jacobi",
            Box::new(|a, b, x0, o| {
                let p = RowPartition::uniform(a.n_rows(), M).unwrap();
                block_jacobi(a, b, x0, &p, 3, o).unwrap()
            }),
        ),
    ]
}

fn other_solvers() -> Vec<(&'static str, Solver)> {
    vec![
        ("cg", Box::new(|a, b, x0, o| conjugate_gradient(a, b, x0, o).unwrap())),
        (
            "pcg",
            Box::new(|a, b, x0, o| {
                pcg(a, b, x0, &JacobiPreconditioner::new(a).unwrap(), o).unwrap()
            }),
        ),
        (
            "bicgstab",
            Box::new(|a, b, x0, o| bicgstab(a, b, x0, &IdentityPreconditioner, o).unwrap()),
        ),
        (
            "gmres",
            Box::new(|a, b, x0, o| {
                gmres(a, b, x0, &JacobiPreconditioner::new(a).unwrap(), 10, o).unwrap()
            }),
        ),
        ("chebyshev", Box::new(|a, b, x0, o| chebyshev(a, b, x0, 0.04, 1.96, o).unwrap())),
        (
            "multigrid",
            Box::new(|a, b, x0, o| {
                Multigrid::new(a, GaussSeidelSmoother, 8).unwrap().solve(b, x0, o).unwrap()
            }),
        ),
        (
            "async_sim",
            Box::new(|a, b, x0, o| {
                let p = RowPartition::uniform(a.n_rows(), M).unwrap();
                AsyncBlockSolver::default().solve(a, b, x0, &p, o).unwrap()
            }),
        ),
    ]
}

/// Fingerprints every solver under every configuration, in table order.
fn fingerprints(solvers: &[(&'static str, Solver)]) -> Vec<(String, u64)> {
    let (a, b, x0) = system();
    let mut out = Vec::new();
    for (name, solve) in solvers {
        for (cfg, opts) in configs() {
            out.push((format!("{name}/{cfg}"), fingerprint(&solve(&a, &b, &x0, &opts))));
        }
    }
    out
}

fn assert_pinned(got: &[(String, u64)], pinned: &[(&str, u64)]) {
    let table: String =
        got.iter().map(|(name, fp)| format!("        (\"{name}\", {fp:#018x}),\n")).collect();
    assert_eq!(got.len(), pinned.len(), "pin table length; computed table:\n{table}");
    let moved: Vec<String> = got
        .iter()
        .zip(pinned)
        .filter(|((name, fp), (pname, pfp))| name != pname || fp != pfp)
        .map(|((name, fp), (_, pfp))| format!("{name}: got {fp:#018x}, pinned {pfp:#018x}"))
        .collect();
    assert!(moved.is_empty(), "results moved:\n{}\ncomputed table:\n{table}", moved.join("\n"));
}

#[test]
fn stationary_solvers_are_bit_identical() {
    const PINNED: &[(&str, u64)] = &[
        ("jacobi/fixed37", 0x0edbc7bc55abbcb4),
        ("jacobi/tol1e-9", 0x75db523f83825f69),
        ("jacobi/tol1e-7+hist/3", 0xd524a82d0376b09f),
        ("gauss_seidel/fixed37", 0xd64f7c3b694fa5dd),
        ("gauss_seidel/tol1e-9", 0x3920c2c8f93c90b0),
        ("gauss_seidel/tol1e-7+hist/3", 0x1647e16297576ff6),
        ("gauss_seidel_backward/fixed37", 0x536536456361f1d9),
        ("gauss_seidel_backward/tol1e-9", 0x055db66ba26c5adc),
        ("gauss_seidel_backward/tol1e-7+hist/3", 0x95d1d4841b32198e),
        ("gauss_seidel_symmetric/fixed37", 0xc49b7589666e2546),
        ("gauss_seidel_symmetric/tol1e-9", 0x20032691bc11f8d2),
        ("gauss_seidel_symmetric/tol1e-7+hist/3", 0x95b7b8e02de3a749),
        ("gauss_seidel_red_black/fixed37", 0x975495b73138d6f5),
        ("gauss_seidel_red_black/tol1e-9", 0x5056ba8c1229f24d),
        ("gauss_seidel_red_black/tol1e-7+hist/3", 0x5955838c1259db29),
        ("gauss_seidel_multicolor/fixed37", 0x975495b73138d6f5),
        ("gauss_seidel_multicolor/tol1e-9", 0x5056ba8c1229f24d),
        ("gauss_seidel_multicolor/tol1e-7+hist/3", 0x5955838c1259db29),
        ("sor_w1.0/fixed37", 0x24c0d5a17c479cb7),
        ("sor_w1.0/tol1e-9", 0x3920c2c8f93c90b0),
        ("sor_w1.0/tol1e-7+hist/3", 0x164148b1fde57148),
        ("sor_w1.5/fixed37", 0x24ec8eaddd2ec9b4),
        ("sor_w1.5/tol1e-9", 0xe32fc78a410008f0),
        ("sor_w1.5/tol1e-7+hist/3", 0xac2ec36f7175d02e),
        ("damped_jacobi/fixed37", 0xa9575d73754a62a4),
        ("damped_jacobi/tol1e-9", 0x606b5aab5a738cb9),
        ("damped_jacobi/tol1e-7+hist/3", 0x8753b32d2a3ed154),
        ("block_jacobi/fixed37", 0xe261dedb8094221c),
        ("block_jacobi/tol1e-9", 0x00bd6abb527a9c18),
        ("block_jacobi/tol1e-7+hist/3", 0xee0a0472f47e96b3),
    ];
    assert_pinned(&fingerprints(&stationary_solvers()), PINNED);
}

#[test]
fn krylov_multigrid_and_sim_async_are_bit_identical() {
    const PINNED: &[(&str, u64)] = &[
        ("cg/fixed37", 0xadd0bc38e1e72155),
        ("cg/tol1e-9", 0xe2a4ca2ca19010fa),
        ("cg/tol1e-7+hist/3", 0xc737c44e85b04774),
        ("pcg/fixed37", 0xadd0bc38e1e72155),
        ("pcg/tol1e-9", 0xe2a4ca2ca19010fa),
        ("pcg/tol1e-7+hist/3", 0xc737c44e85b04774),
        ("bicgstab/fixed37", 0x0280d71e5decd8f7),
        ("bicgstab/tol1e-9", 0x1c999240e25cabf9),
        ("bicgstab/tol1e-7+hist/3", 0x16ca2a1659e8c683),
        ("gmres/fixed37", 0xdfda9ddc17ed9e13),
        ("gmres/tol1e-9", 0x9928fbde5a0d6c61),
        ("gmres/tol1e-7+hist/3", 0x29d769939d428290),
        ("chebyshev/fixed37", 0x363c68b7388bd917),
        ("chebyshev/tol1e-9", 0xd5217f3da6e339be),
        ("chebyshev/tol1e-7+hist/3", 0x4f93b558e8bb3459),
        ("multigrid/fixed37", 0xe49ff3ed0aa33dfc),
        ("multigrid/tol1e-9", 0xe5ca7007e088a0fe),
        ("multigrid/tol1e-7+hist/3", 0xc80f0fbe0d671114),
        ("async_sim/fixed37", 0x30834fde03ec5dd4),
        ("async_sim/tol1e-9", 0x5099a48241e1a33a),
        ("async_sim/tol1e-7+hist/3", 0x83cf93d41cf324a3),
    ];
    assert_pinned(&fingerprints(&other_solvers()), PINNED);
}

#[test]
fn smoothers_are_bit_identical_after_five_sweeps() {
    let (a, b, x0) = system();
    let smoothers: [(&str, &dyn Smoother); 2] = [
        ("gauss_seidel_smoother", &GaussSeidelSmoother),
        ("damped_jacobi_smoother", &DampedJacobiSmoother::default()),
    ];
    let got: Vec<(String, u64)> = smoothers
        .iter()
        .map(|(name, s)| {
            let mut x = x0.clone();
            s.smooth(&a, &b, &mut x, 5).unwrap();
            let mut h = Fnv1a::new();
            for &v in &x {
                h.write_f64(v);
            }
            (name.to_string(), h.finish())
        })
        .collect();
    const PINNED: &[(&str, u64)] = &[
        ("gauss_seidel_smoother", 0xc85ea34ef9abf8ea),
        ("damped_jacobi_smoother", 0xba7e1597e30fb6aa),
    ];
    assert_pinned(&got, PINNED);
}
