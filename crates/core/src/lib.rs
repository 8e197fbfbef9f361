#![warn(missing_docs)]

//! # abr-core
//!
//! The paper's contribution: relaxation solvers for sparse linear systems
//! `A x = b`, synchronous and (block-)asynchronous.
//!
//! * Synchronous baselines: [`jacobi()`], [`gauss_seidel()`] (plus
//!   backward/symmetric/red-black/multi-colour variants), [`sor()`],
//!   barrier-synchronised [`block_jacobi()`], and the Krylov baselines
//!   [`cg`], [`pcg()`], [`gmres()`], [`bicgstab()`], [`chebyshev`].
//! * The abstract chaotic iteration of Chazan–Miranker with pluggable
//!   update and shift functions: [`chazan`] — used to property-test the
//!   `rho(|B|) < 1` convergence theorem the paper relies on.
//! * **async-(k)** — the block-asynchronous method of the paper
//!   (Algorithm 1 / Eq. 4): [`async_block`], running on either of the
//!   `abr-gpu` executors.
//! * The tau-damped variants for SPD systems with `rho(B) > 1`:
//!   [`scaled`] (paper §4.2's remedy for `s1rmt3m1`).
//! * Extensions the paper lists as future work (§5): relaxation methods
//!   as [`smoother`]s inside an aggregation-based [`multigrid`].
//!
//! Every stationary method runs on one crate-private driver loop in
//! [`convergence`], which owns the residual checks, the history, the
//! stopping rule and the result; a method is just its sweep over the
//! iterate. A new stationary method is therefore one sweep closure
//! (built from the shared Gauss-Seidel / damped-Jacobi row kernels where
//! they fit), not another copy of the loop.

pub mod async_block;
pub mod bicgstab;
pub mod block_jacobi;
pub mod cg;
pub mod chazan;
pub mod chebyshev;
pub mod convergence;
pub mod fingerprint;
pub mod gauss_seidel;
pub mod gmres;
pub mod jacobi;
pub mod ilu;
pub mod multigrid;
pub mod pcg;
pub mod scaled;
pub mod smoother;
pub mod sor;

pub use async_block::{
    AsyncBlockSolver, ExecutorKind, FaultedSolve, LocalSweep, ResidualMonitor,
    ScheduleKind, FUSED_FORCE_EXACT_EVERY, FUSED_GUARD_BAND, URGENT_BAND,
};
pub use fingerprint::{fingerprint_matrix, fingerprint_vec, Fnv1a};
pub use bicgstab::bicgstab;
pub use block_jacobi::block_jacobi;
pub use cg::conjugate_gradient;
pub use gmres::gmres;
pub use pcg::pcg;
pub use convergence::{SolveOptions, SolveResult};
pub use gauss_seidel::{
    gauss_seidel, gauss_seidel_backward, gauss_seidel_multicolor, gauss_seidel_red_black,
    gauss_seidel_symmetric,
};
pub use jacobi::jacobi;
pub use sor::sor;
