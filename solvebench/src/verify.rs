//! Answer verification and failure accounting.
//!
//! Every answer is checked against the benchmark's own copy of the system:
//! `‖b − A·x‖ / ‖b‖` is recomputed here, sequentially, from the returned
//! `x` — never taken from the program's `final_residual` or `converged`
//! flag. An operation counts as verified only when the program claims
//! convergence *and* the recomputed residual is within tolerance; every
//! other ending (shed, failed, cancelled, deadline, `converged: false`,
//! transport error) is a failure. A claimed-converged answer that misses
//! the tolerance is worse than a failure — it is a wrong answer, and it
//! makes the whole run incorrect.

use abr_service::Response;
use abr_sparse::CsrMatrix;
use std::io;

/// The benchmark's own copy of a system matrix, in CSR form.
#[derive(Debug, Clone, PartialEq)]
pub struct System {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl System {
    /// Copies a generated matrix's arrays.
    pub fn from_csr(a: &CsrMatrix) -> System {
        assert_eq!(a.n_rows(), a.n_cols(), "systems are square");
        System {
            n: a.n_rows(),
            row_ptr: a.row_ptr().to_vec(),
            col_idx: a.col_idx().to_vec(),
            values: a.values().to_vec(),
        }
    }

    /// The 2D 5-point Laplacian on a `g` x `g` grid with Dirichlet
    /// boundaries — the operator a `lap2d` wire request names, built here
    /// independently of the program's generator.
    pub fn lap2d(g: usize) -> System {
        let n = g * g;
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(5 * n);
        let mut values = Vec::with_capacity(5 * n);
        row_ptr.push(0);
        for i in 0..g {
            for j in 0..g {
                let mut push = |c: usize, v: f64| {
                    col_idx.push(c);
                    values.push(v);
                };
                if i > 0 {
                    push((i - 1) * g + j, -1.0);
                }
                if j > 0 {
                    push(i * g + j - 1, -1.0);
                }
                push(i * g + j, 4.0);
                if j + 1 < g {
                    push(i * g + j + 1, -1.0);
                }
                if i + 1 < g {
                    push((i + 1) * g + j, -1.0);
                }
                row_ptr.push(col_idx.len());
            }
        }
        System {
            n,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Rows (and columns).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Bytes of the CSR arrays (8-byte indices and values).
    pub fn csr_bytes(&self) -> usize {
        8 * (self.row_ptr.len() + self.col_idx.len() + self.values.len())
    }

    /// The CSR arrays, in the order a wire request carries them.
    pub fn raw(&self) -> (&[usize], &[usize], &[f64]) {
        (&self.row_ptr, &self.col_idx, &self.values)
    }

    /// `‖b − A·x‖₂ / ‖b‖₂`; see [`relative_residual`].
    pub fn relative_residual(&self, b: &[f64], x: &[f64]) -> f64 {
        relative_residual(&self.row_ptr, &self.col_idx, &self.values, b, x)
    }
}

/// `‖b − A·x‖₂ / ‖b‖₂` over CSR arrays, computed sequentially; `+∞` when
/// `x` has the wrong length or the residual is not finite.
pub fn relative_residual(
    row_ptr: &[usize],
    col_idx: &[usize],
    values: &[f64],
    b: &[f64],
    x: &[f64],
) -> f64 {
    let n = row_ptr.len() - 1;
    assert_eq!(b.len(), n, "rhs must match the system");
    if x.len() != n {
        return f64::INFINITY;
    }
    let mut rr = 0.0;
    for i in 0..n {
        let mut ax = 0.0;
        for k in row_ptr[i]..row_ptr[i + 1] {
            ax += values[k] * x[col_idx[k]];
        }
        let r = b[i] - ax;
        rr += r * r;
    }
    let bb: f64 = b.iter().map(|v| v * v).sum();
    let rel = if bb == 0.0 {
        rr.sqrt()
    } else {
        (rr / bb).sqrt()
    };
    if rel.is_finite() {
        rel
    } else {
        f64::INFINITY
    }
}

/// Why an operation did not end in a verified answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// Shed by admission control (after the client's retries).
    Shed,
    /// Answered `failed`, or any frame other than a solve outcome.
    Failed,
    /// Cancelled mid-solve.
    Cancelled,
    /// The request deadline expired.
    Deadline,
    /// Answered, but the program itself reports `converged: false`.
    NotConverged,
    /// The connection or frame exchange failed.
    Transport,
    /// Claimed converged, but the recomputed residual misses the
    /// tolerance: a wrong answer.
    Wrong,
}

/// How one operation ended.
pub type Verdict = Result<(), Failure>;

/// Judges an answer from the program's convergence claim and the
/// residual recomputed here.
pub fn judge(converged: bool, residual: f64, tol: f64) -> Verdict {
    if !converged {
        Err(Failure::NotConverged)
    } else if residual <= tol {
        Ok(())
    } else {
        Err(Failure::Wrong)
    }
}

/// Judges a solution the program returned with its convergence claim.
pub fn judge_solution(converged: bool, x: &[f64], sys: &System, b: &[f64], tol: f64) -> Verdict {
    judge(converged, sys.relative_residual(b, x), tol)
}

/// Judges a daemon reply. Cached and coalesced answers are checked
/// exactly like fresh ones.
pub fn judge_response(resp: &io::Result<Response>, sys: &System, b: &[f64], tol: f64) -> Verdict {
    match resp {
        Ok(Response::Done { x, converged, .. }) => judge_solution(*converged, x, sys, b, tol),
        Ok(Response::Overloaded { .. }) => Err(Failure::Shed),
        Ok(Response::Cancelled { .. }) => Err(Failure::Cancelled),
        Ok(Response::DeadlineExceeded { .. }) => Err(Failure::Deadline),
        Ok(_) => Err(Failure::Failed),
        Err(_) => Err(Failure::Transport),
    }
}

/// Counts of attempted, verified and failed operations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that ended in a verified answer.
    pub verified: u64,
    /// Failures by kind, in [`Failure`] declaration order.
    pub by_kind: [u64; 7],
}

impl Tally {
    /// Records one operation's verdict.
    pub fn record(&mut self, v: Verdict) {
        self.attempted += 1;
        match v {
            Ok(()) => self.verified += 1,
            Err(f) => self.by_kind[f as usize] += 1,
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.verified += other.verified;
        for (a, b) in self.by_kind.iter_mut().zip(other.by_kind) {
            *a += b;
        }
    }

    /// Operations that did not end in a verified answer.
    pub fn failed(&self) -> u64 {
        self.attempted - self.verified
    }

    /// Failures of one kind.
    pub fn count(&self, f: Failure) -> u64 {
        self.by_kind[f as usize]
    }

    /// Share of attempted operations that failed.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Whether no answer claimed convergence it did not reach.
    pub fn correct(&self) -> bool {
        self.count(Failure::Wrong) == 0
    }

    /// One line naming every non-zero failure kind.
    pub fn describe(&self) -> String {
        const NAMES: [&str; 7] = [
            "shed",
            "failed",
            "cancelled",
            "deadline",
            "not_converged",
            "transport",
            "wrong",
        ];
        let parts: Vec<String> = NAMES
            .iter()
            .zip(self.by_kind)
            .filter(|(_, c)| *c > 0)
            .map(|(n, c)| format!("{n}={c}"))
            .collect();
        if parts.is_empty() {
            "none".into()
        } else {
            parts.join(" ")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_sparse::gen;

    fn solved_lap2d(g: usize) -> (System, Vec<f64>, Vec<f64>) {
        // b = A·x_true, so x_true is an exact answer.
        let sys = System::lap2d(g);
        let x: Vec<f64> = (0..sys.n()).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
        let b: Vec<f64> = (0..sys.n())
            .map(|i| {
                (sys.row_ptr[i]..sys.row_ptr[i + 1])
                    .map(|k| sys.values[k] * x[sys.col_idx[k]])
                    .sum()
            })
            .collect();
        (sys, x, b)
    }

    #[test]
    fn own_laplacian_matches_the_wire_operator() {
        let own = System::lap2d(6);
        let program = gen::laplacian_2d_5pt(6);
        let (b, x) = (vec![1.0; 36], (0..36).map(f64::from).collect::<Vec<_>>());
        let ax = program.mul_vec(&x).unwrap();
        let direct: f64 = b
            .iter()
            .zip(&ax)
            .map(|(bi, ai)| (bi - ai).powi(2))
            .sum::<f64>()
            .sqrt()
            / 6.0;
        assert!((own.relative_residual(&b, &x) - direct).abs() < 1e-12);
        assert_eq!(own.nnz(), program.nnz());
    }

    #[test]
    fn exact_answer_verifies_and_perturbed_answer_is_rejected() {
        let (sys, x, b) = solved_lap2d(8);
        assert!(sys.relative_residual(&b, &x) < 1e-15);
        assert_eq!(judge_solution(true, &x, &sys, &b, 1e-8), Ok(()));

        let mut bad = x.clone();
        bad[17] += 1e-3;
        assert!(sys.relative_residual(&b, &bad) > 1e-8);
        assert_eq!(
            judge_solution(true, &bad, &sys, &b, 1e-8),
            Err(Failure::Wrong)
        );

        let mut nan = x.clone();
        nan[0] = f64::NAN;
        assert_eq!(
            judge_solution(true, &nan, &sys, &b, 1e-8),
            Err(Failure::Wrong)
        );
        assert_eq!(
            judge_solution(true, &x[1..], &sys, &b, 1e-8),
            Err(Failure::Wrong)
        );
    }

    #[test]
    fn cached_and_coalesced_answers_are_checked_like_fresh_ones() {
        let (sys, x, b) = solved_lap2d(5);
        let mut bad = x.clone();
        bad[3] *= 1.01;
        for (cached, coalesced) in [(false, false), (true, false), (false, true)] {
            let done = |x: &[f64]| -> io::Result<Response> {
                Ok(Response::Done {
                    id: 1,
                    x: x.to_vec(),
                    iterations: 10,
                    converged: true,
                    final_residual: 0.0,
                    cached,
                    coalesced,
                    chaos: false,
                })
            };
            assert_eq!(judge_response(&done(&x), &sys, &b, 1e-9), Ok(()));
            assert_eq!(
                judge_response(&done(&bad), &sys, &b, 1e-9),
                Err(Failure::Wrong)
            );
        }
    }

    #[test]
    fn every_non_verified_ending_counts_as_a_failure() {
        let (sys, x, b) = solved_lap2d(4);
        let replies: Vec<(io::Result<Response>, Failure)> = vec![
            (
                Ok(Response::Overloaded {
                    id: 1,
                    retry_after_ms: 5,
                }),
                Failure::Shed,
            ),
            (
                Ok(Response::Failed {
                    id: 1,
                    error: "x".into(),
                }),
                Failure::Failed,
            ),
            (
                Ok(Response::Cancelled {
                    id: 1,
                    iterations: 3,
                }),
                Failure::Cancelled,
            ),
            (
                Ok(Response::DeadlineExceeded {
                    id: 1,
                    iterations: 3,
                }),
                Failure::Deadline,
            ),
            (
                Ok(Response::Done {
                    id: 1,
                    x: x.clone(),
                    iterations: 3,
                    converged: false,
                    final_residual: 1.05e-6,
                    cached: false,
                    coalesced: false,
                    chaos: false,
                }),
                Failure::NotConverged,
            ),
            (Ok(Response::Pong), Failure::Failed),
            (Err(io::Error::other("reset")), Failure::Transport),
        ];
        let mut tally = Tally::default();
        for (reply, kind) in &replies {
            let v = judge_response(reply, &sys, &b, 1e-9);
            assert_eq!(v, Err(*kind));
            tally.record(v);
        }
        tally.record(Ok(()));
        assert_eq!(tally.attempted, 8);
        assert_eq!(tally.failed(), 7);
        assert_eq!(tally.count(Failure::Shed), 1);
        assert_eq!(tally.count(Failure::NotConverged), 1);
        assert!((tally.fail_ratio() - 7.0 / 8.0).abs() < 1e-15);
        assert!(
            tally.correct(),
            "honest failures do not make a run incorrect"
        );
        tally.record(Err(Failure::Wrong));
        assert!(!tally.correct(), "a wrong answer does");

        let mut sum = Tally::default();
        sum.merge(&tally);
        sum.merge(&tally);
        assert_eq!(sum.attempted, 18);
        assert_eq!(sum.count(Failure::Wrong), 2);
    }
}
