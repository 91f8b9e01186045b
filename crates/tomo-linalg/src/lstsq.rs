//! Least-squares solving for the (log-linear) tomography systems.
//!
//! The probability-computation algorithms assemble systems `A y = b` where
//! `A` is a binary path-set / correlation-subset incidence matrix and `b`
//! holds logarithms of empirical probabilities. The system may be square,
//! overdetermined, *or rank deficient* (on sparse topologies where
//! Identifiability++ fails). This module provides a single entry point,
//! [`least_squares`], that:
//!
//! 1. tries a Householder-QR solve when `A` has full column rank;
//! 2. otherwise falls back to ridge-regularized normal equations
//!    `(AᵀA + λI) y = Aᵀ b`, which always yields a well-defined (minimum-ish
//!    norm) solution and degrades gracefully on noisy, low-rank systems.
//!
//! The returned [`LstsqSolution`] records which route was taken and which
//! unknowns are *identifiable* (i.e. not free to move within the null space
//! of `A`), so callers can distinguish "estimated" from "unconstrained"
//! probabilities.

use crate::gauss::{rref_with_tol, solve_square};
use crate::matrix::Matrix;
use crate::nullspace::nullspace_with_tol;
use crate::qr::qr_least_squares;
use crate::vector::Vector;
use crate::DEFAULT_TOL;

/// A null-space (or reduced-row) entry above this magnitude makes an unknown
/// unidentifiable: it is the threshold both identifiability routes share.
pub(crate) const IDENTIFIABLE_TOL: f64 = 1e-7;

/// Options controlling the least-squares solver.
#[derive(Clone, Debug)]
pub struct LstsqOptions {
    /// Ridge regularization strength used by the fallback solver.
    pub ridge: f64,
    /// Zero tolerance used for rank decisions.
    pub tol: f64,
    /// When `true` (default), the solver computes the null space of `A` to
    /// report per-unknown identifiability. This costs an extra elimination
    /// pass over `A`; callers that track identifiability themselves (the
    /// Correlation-complete algorithm maintains it incrementally via
    /// Algorithm 2) can switch it off.
    pub compute_identifiability: bool,
}

impl Default for LstsqOptions {
    fn default() -> Self {
        Self {
            ridge: 1e-8,
            tol: DEFAULT_TOL,
            compute_identifiability: true,
        }
    }
}

impl LstsqOptions {
    /// Options that skip the identifiability analysis (cheaper on large
    /// systems).
    pub fn without_identifiability() -> Self {
        Self {
            compute_identifiability: false,
            ..Self::default()
        }
    }
}

/// A least-squares solution together with diagnostic information.
#[derive(Clone, Debug)]
pub struct LstsqSolution {
    /// The solution vector (length = number of columns of `A`).
    pub x: Vector,
    /// Squared L2 norm of the residual `A x − b`.
    pub residual_norm_sq: f64,
    /// Rank of `A` as determined during solving.
    pub rank: usize,
    /// `identifiable[i]` is `true` when unknown `i` does not participate in
    /// any null-space direction of `A` (its value is pinned by the data).
    pub identifiable: Vec<bool>,
    /// `true` when the rank-deficient fallback (ridge) path was used.
    pub used_ridge_fallback: bool,
    /// Iterations the iterative (conjugate-gradient) solver took; `0` for
    /// the direct dense solves.
    pub iterations: usize,
    /// `false` when the solver gave up rather than solving: the sparse CG
    /// hit its iteration cap or a non-positive or non-finite step, or the
    /// dense ridge elimination failed and `x` is all zeros.
    pub converged: bool,
}

impl LstsqSolution {
    /// Number of identifiable unknowns.
    pub fn identifiable_count(&self) -> usize {
        self.identifiable.iter().filter(|&&b| b).count()
    }
}

/// Solves `min_x ||A x − b||` and reports identifiability of each unknown.
///
/// # Panics
/// Panics if `b.len() != a.rows()`.
pub fn least_squares(a: &Matrix, b: &Vector, opts: &LstsqOptions) -> LstsqSolution {
    assert_eq!(a.rows(), b.len(), "rhs length must equal number of rows");
    let n = a.cols();
    if n == 0 {
        return LstsqSolution {
            x: Vector::zeros(0),
            residual_norm_sq: b.dot(b),
            rank: 0,
            identifiable: Vec::new(),
            used_ridge_fallback: false,
            iterations: 0,
            converged: true,
        };
    }

    // Identifiability: unknown i is identifiable iff every null-space basis
    // vector has a (numerically) zero i-th component.
    let (rank, identifiable) = if opts.compute_identifiability {
        let ns = nullspace_with_tol(a, opts.tol);
        let rank = n - ns.cols();
        let mut identifiable = vec![true; n];
        for i in 0..n {
            for j in 0..ns.cols() {
                if ns[(i, j)].abs() > IDENTIFIABLE_TOL {
                    identifiable[i] = false;
                    break;
                }
            }
        }
        (rank, identifiable)
    } else {
        // Unknown rank: assume the best case so the QR fast path can still be
        // attempted; it falls back to ridge if QR detects rank deficiency.
        (n.min(a.rows()), vec![true; n])
    };

    // Fast path: full column rank and at least as many rows as columns.
    if rank == n && a.rows() >= n {
        if let Some(x) = qr_least_squares(a, b, opts.tol) {
            let residual = &a.matvec(&x) - b;
            return LstsqSolution {
                residual_norm_sq: residual.dot(&residual),
                x,
                rank,
                identifiable,
                used_ridge_fallback: false,
                iterations: 0,
                converged: true,
            };
        }
    }

    // Fallback: ridge-regularized normal equations.
    let at = a.transpose();
    let mut ata = at.matmul(a);
    for i in 0..n {
        ata[(i, i)] += opts.ridge;
    }
    let atb = at.matvec(b);
    // With the ridge term the system should always be regular; if the
    // numerics still fail (pathological scaling) return zeros rather than
    // panicking deep inside an experiment sweep, and say so.
    let solved = solve_square(&ata, &atb);
    let converged = solved.is_some();
    let x = solved.unwrap_or_else(|| Vector::zeros(n));
    let residual = &a.matvec(&x) - b;
    LstsqSolution {
        residual_norm_sq: residual.dot(&residual),
        x,
        rank,
        identifiable,
        used_ridge_fallback: true,
        iterations: 0,
        converged,
    }
}

/// Convenience wrapper: solves the system with default options.
pub fn least_squares_default(a: &Matrix, b: &Vector) -> LstsqSolution {
    least_squares(a, b, &LstsqOptions::default())
}

/// Solves a *consistent* square or overdetermined binary system exactly when
/// possible, used by unit tests and the toy-topology worked examples.
/// Returns `None` when the system matrix is rank deficient.
pub fn solve_exact(a: &Matrix, b: &Vector) -> Option<Vector> {
    let opts = LstsqOptions::default();
    let r = rref_with_tol(a, opts.tol);
    if r.rank < a.cols() {
        return None;
    }
    qr_least_squares(a, b, opts.tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_rank_square_system() {
        let a = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 4.0]]);
        let b = Vector::from_slice(&[2.0, 8.0]);
        let sol = least_squares_default(&a, &b);
        assert!(sol.x.approx_eq(&Vector::from_slice(&[1.0, 2.0]), 1e-8));
        assert_eq!(sol.rank, 2);
        assert!(sol.identifiable.iter().all(|&b| b));
        assert!(!sol.used_ridge_fallback);
        assert!(sol.residual_norm_sq < 1e-16);
    }

    #[test]
    fn overdetermined_consistent_system() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        let b = Vector::from_slice(&[3.0, -1.0, 2.0]);
        let sol = least_squares_default(&a, &b);
        assert!(sol.x.approx_eq(&Vector::from_slice(&[3.0, -1.0]), 1e-8));
    }

    #[test]
    fn rank_deficient_system_reports_unidentifiable_unknowns() {
        // x0 + x1 is pinned to 2, x2 is pinned to 5, but x0 and x1 are
        // individually unidentifiable.
        let a = Matrix::from_rows(&[vec![1.0, 1.0, 0.0], vec![0.0, 0.0, 1.0]]);
        let b = Vector::from_slice(&[2.0, 5.0]);
        let sol = least_squares_default(&a, &b);
        assert_eq!(sol.rank, 2);
        assert!(sol.used_ridge_fallback);
        assert_eq!(sol.identifiable, vec![false, false, true]);
        // The identifiable unknown must still be recovered accurately.
        assert!((sol.x[2] - 5.0).abs() < 1e-3);
        // And the identifiable *combination* x0 + x1 must be ~2.
        assert!((sol.x[0] + sol.x[1] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn residual_is_orthogonal_to_column_space_on_full_rank() {
        let a = Matrix::from_rows(&[
            vec![1.0, 2.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![2.0, 1.0],
        ]);
        let b = Vector::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let sol = least_squares_default(&a, &b);
        let residual = &a.matvec(&sol.x) - &b;
        let grad = a.transpose().matvec(&residual);
        assert!(grad.norm_inf() < 1e-8);
    }

    #[test]
    fn empty_system_yields_empty_solution() {
        let a = Matrix::zeros(3, 0);
        let b = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let sol = least_squares_default(&a, &b);
        assert_eq!(sol.x.len(), 0);
        assert_eq!(sol.rank, 0);
    }

    #[test]
    fn solve_exact_requires_full_rank() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0]]);
        let b = Vector::from_slice(&[1.0, 2.0]);
        assert!(solve_exact(&a, &b).is_none());
    }
}
