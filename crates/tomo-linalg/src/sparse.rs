//! Compressed-sparse-row (CSR) representation for the 0/1 routing systems.
//!
//! The tomography systems are *extremely* sparse: a row is one path set (or
//! one path) and carries a handful of nonzero entries out of thousands of
//! columns (links / correlation subsets). The dense [`Matrix`] solvers pay
//! `O(rows · cols)` just to look at all those zeros; at `BriteConfig::large`
//! scale (≈12k rows × 5.5k columns) the dense matrix alone would be ~0.5 GB.
//!
//! [`SparseMatrix`] stores only the nonzeros, and [`sparse_least_squares`]
//! solves the same ridge-regularized normal equations the dense fallback
//! solves — `(AᵀA + λI) y = Aᵀ b` — but by conjugate gradients, whose only
//! contact with `A` is one mat-vec and one transposed mat-vec per iteration
//! (`O(nnz)` each). Starting CG from `x₀ = 0` keeps every iterate inside
//! `range(AᵀA)`, so on rank-deficient systems the unidentifiable null-space
//! components stay (numerically) zero — exactly the behaviour of the dense
//! ridge solve — and the effective condition number is governed by the
//! *nonzero* singular values only. The iteration works in buffers allocated
//! once per solve.
//!
//! Identifiability never leaves the sparse form either.
//! [`SparseMatrix::identifiability`] grows a fully reduced sparse echelon
//! basis of the row space one CSR row at a time: every basis row holds its
//! own pivot column and no other, so an incoming row is reduced by one pass
//! over the pivot columns it touches, and a new pivot is eliminated from the
//! earlier rows that hold it through a column → rows index. Unknown `i` is
//! identifiable iff `e_i` lies in the row space, i.e. iff `i` is a pivot whose
//! reduced row carries no other entry. The cost is `O(Σ row fill)` — the
//! entries the reduced rows actually hold — where the dense null-space
//! elimination costs `O(rows · cols · rank)` and materializes `A` twice.
//!
//! The dense path remains the reference oracle: property tests assert the
//! sparse solve and the echelon identifiability match
//! [`least_squares`](crate::lstsq::least_squares) and
//! [`nullspace_with_tol`](crate::nullspace::nullspace_with_tol) across
//! densities and at routing-system shapes.

use crate::lstsq::{LstsqOptions, LstsqSolution, IDENTIFIABLE_TOL};
use crate::matrix::Matrix;
use crate::vector::Vector;

/// A sparse matrix in compressed-sparse-row form.
///
/// Invariants: `row_ptr.len() == rows + 1`, `row_ptr[0] == 0`, column indices
/// within one row are strictly increasing and `< cols`.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// An empty matrix with `cols` columns and no rows yet. Grow it with
    /// [`SparseMatrix::push_row`].
    pub fn with_cols(cols: usize) -> Self {
        Self {
            rows: 0,
            cols,
            row_ptr: vec![0],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Appends one row given its nonzero entries as `(column, value)` pairs.
    /// Entries may arrive in any order; they are sorted into CSR order.
    /// Exact zeros are dropped.
    ///
    /// # Panics
    /// Panics if a column index is out of range or repeated.
    pub fn push_row(&mut self, entries: &[(usize, f64)]) {
        let mut row: Vec<(usize, f64)> =
            entries.iter().copied().filter(|&(_, v)| v != 0.0).collect();
        row.sort_unstable_by_key(|&(c, _)| c);
        for w in row.windows(2) {
            assert!(w[0].0 != w[1].0, "repeated column {} in sparse row", w[0].0);
        }
        for &(c, v) in &row {
            assert!(c < self.cols, "column {} out of range ({})", c, self.cols);
            self.col_idx.push(c);
            self.values.push(v);
        }
        self.rows += 1;
        self.row_ptr.push(self.col_idx.len());
    }

    /// Appends one 0/1 row given the sorted-or-not set of columns that are 1.
    pub fn push_binary_row(&mut self, cols_set: &[usize]) {
        let mut cols: Vec<usize> = cols_set.to_vec();
        cols.sort_unstable();
        for w in cols.windows(2) {
            assert!(w[0] != w[1], "repeated column {} in binary row", w[0]);
        }
        for &c in &cols {
            assert!(c < self.cols, "column {} out of range ({})", c, self.cols);
            self.col_idx.push(c);
            self.values.push(1.0);
        }
        self.rows += 1;
        self.row_ptr.push(self.col_idx.len());
    }

    /// Builds a CSR matrix from a dense one, keeping entries with
    /// `|a_ij| > 0`.
    pub fn from_dense(a: &Matrix) -> Self {
        let mut m = Self::with_cols(a.cols());
        let mut entries = Vec::new();
        for i in 0..a.rows() {
            entries.clear();
            for (j, &v) in a.row_slice(i).iter().enumerate() {
                if v != 0.0 {
                    entries.push((j, v));
                }
            }
            m.push_row(&entries);
        }
        m
    }

    /// Materializes the dense equivalent. Meant for tests and small systems;
    /// at large scale this is exactly the allocation the sparse path exists
    /// to avoid.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (c, v) in self.row_entries(i) {
                m[(i, c)] = v;
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries that are nonzero (`1.0` for an empty matrix so
    /// degenerate shapes route to the dense path).
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            return 1.0;
        }
        self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
    }

    /// The column indices of row `i` (sorted ascending).
    pub fn row_cols(&self, i: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// The nonzero values of row `i`, aligned with [`SparseMatrix::row_cols`].
    pub fn row_values(&self, i: usize) -> &[f64] {
        &self.values[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Iterates `(column, value)` over the nonzeros of row `i`.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.row_cols(i)
            .iter()
            .copied()
            .zip(self.row_values(i).iter().copied())
    }

    /// Scatters row `i` into a dense buffer of length `cols` (zeroing it
    /// first). Used when folding sparse rows through the dense null-space
    /// update.
    pub fn scatter_row_into(&self, i: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.cols, "scatter buffer length mismatch");
        out.fill(0.0);
        for (c, v) in self.row_entries(i) {
            out[c] = v;
        }
    }

    /// Sparse mat-vec `A x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &Vector) -> Vector {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let xs = x.as_slice();
        let mut out = vec![0.0; self.rows];
        for (i, slot) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (c, v) in self.row_entries(i) {
                acc += v * xs[c];
            }
            *slot = acc;
        }
        Vector::from_vec(out)
    }

    /// Transposed sparse mat-vec `Aᵀ y`.
    ///
    /// # Panics
    /// Panics if `y.len() != self.rows()`.
    pub fn at_matvec(&self, y: &Vector) -> Vector {
        assert_eq!(y.len(), self.rows, "at_matvec dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            let yi = y[i];
            if yi == 0.0 {
                continue;
            }
            for (c, v) in self.row_entries(i) {
                out[c] += v * yi;
            }
        }
        Vector::from_vec(out)
    }

    /// Writes the ridge-regularized normal operator `Aᵀ(A x) + λ x` into
    /// `out`, without ever forming `AᵀA` or the intermediate `A x`. This is
    /// the only operator CG needs.
    ///
    /// One pass over the rows: `(A x)ᵢ` is final once row `i` is read, and
    /// scattering it right away adds into `out` in the same order as
    /// `at_matvec(&matvec(x))` followed by `axpy(ridge, x)`, so the result is
    /// bit-identical to composing those.
    ///
    /// # Panics
    /// Panics if `x.len()` or `out.len()` differs from `self.cols()`.
    pub fn normal_matvec_into(&self, x: &Vector, ridge: f64, out: &mut Vector) {
        assert_eq!(x.len(), self.cols, "normal_matvec dimension mismatch");
        assert_eq!(out.len(), self.cols, "normal_matvec output length mismatch");
        let (xs, outs) = (x.as_slice(), out.as_mut_slice());
        outs.fill(0.0);
        for i in 0..self.rows {
            let (cols, vals) = (self.row_cols(i), self.row_values(i));
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * xs[c];
            }
            if acc == 0.0 {
                continue;
            }
            for (&c, &v) in cols.iter().zip(vals) {
                outs[c] += v * acc;
            }
        }
        if ridge != 0.0 {
            out.axpy(ridge, x);
        }
    }

    /// Assembles the dense normal matrix `AᵀA + λI` directly from the
    /// nonzeros: `O(Σ nnz(row)²)` instead of the dense `O(rows · cols²)`
    /// matmul. The *output* is dense `cols × cols`, so this is for systems
    /// whose column count is moderate (the LU-cached online solvers); CG
    /// never needs it.
    pub fn normal_matrix(&self, ridge: f64) -> Matrix {
        let n = self.cols;
        let mut ata = Matrix::zeros(n, n);
        for i in 0..self.rows {
            let cols = self.row_cols(i);
            let vals = self.row_values(i);
            for (a, &ca) in cols.iter().enumerate() {
                let va = vals[a];
                for (b, &cb) in cols.iter().enumerate() {
                    ata[(ca, cb)] += va * vals[b];
                }
            }
        }
        for d in 0..n {
            ata[(d, d)] += ridge;
        }
        ata
    }

    /// Rank and per-column identifiability, from a fully reduced sparse
    /// echelon basis of the row space built one row at a time.
    ///
    /// Each row is scattered into a dense work buffer and reduced by the
    /// basis row of every pivot column it touches (basis rows hold no other
    /// pivot column, so one pass suffices). Its largest remaining entry, if
    /// above `tol`, becomes a new pivot: the row is normalized by it and the
    /// pivot column is eliminated from the earlier basis rows that hold it.
    /// Entries at or below `tol` count as zero. Column `i` is identifiable
    /// iff it is a pivot and its reduced row has no other entry above
    /// `1e-7` — the test "`e_i` ∈ row space", which in exact arithmetic does
    /// not depend on the pivot order. Agrees with the dense
    /// [`nullspace_with_tol`](crate::nullspace::nullspace_with_tol) oracle.
    pub fn identifiability(&self, tol: f64) -> (usize, Vec<bool>) {
        let n = self.cols;
        // Basis row `k`: pivot column `pivot[k]` (implicit coefficient 1)
        // plus the off-pivot entries `off[k]`, sorted by column.
        let mut pivot: Vec<usize> = Vec::new();
        let mut off: Vec<Vec<(usize, f64)>> = Vec::new();
        let mut row_of_pivot: Vec<Option<usize>> = vec![None; n];
        // Basis rows that may hold column `j`; an entry goes stale when the
        // coefficient cancels, so readers check the row itself.
        let mut rows_holding: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut work = vec![0.0; n];
        let mut in_pattern = vec![false; n];
        let mut pattern: Vec<usize> = Vec::new();
        let mut merged: Vec<(usize, f64)> = Vec::new();

        for i in 0..self.rows {
            pattern.clear();
            for (c, v) in self.row_entries(i) {
                work[c] = v;
                in_pattern[c] = true;
                pattern.push(c);
            }
            for (c, _) in self.row_entries(i) {
                let Some(k) = row_of_pivot[c] else { continue };
                let f = work[c];
                work[c] = 0.0;
                for &(j, v) in &off[k] {
                    if !in_pattern[j] {
                        in_pattern[j] = true;
                        pattern.push(j);
                    }
                    work[j] -= f * v;
                }
            }
            pattern.sort_unstable();
            // The largest entry above `tol` pivots; ties go to the lowest
            // column, so the basis is deterministic.
            let (mut best, mut best_abs) = (None, tol);
            for &j in &pattern {
                if work[j].abs() > best_abs {
                    best = Some(j);
                    best_abs = work[j].abs();
                }
            }
            let new_off: Vec<(usize, f64)> = match best {
                Some(p) => {
                    let scale = work[p];
                    pattern
                        .iter()
                        .filter(|&&j| j != p)
                        .map(|&j| (j, work[j] / scale))
                        .filter(|&(_, v)| v.abs() > tol)
                        .collect()
                }
                None => Vec::new(),
            };
            for &j in &pattern {
                work[j] = 0.0;
                in_pattern[j] = false;
            }
            let Some(p) = best else { continue };

            // Eliminate the new pivot column from the earlier basis rows.
            for k in std::mem::take(&mut rows_holding[p]) {
                let Ok(at) = off[k].binary_search_by_key(&p, |&(j, _)| j) else {
                    continue;
                };
                let f = off[k].remove(at).1;
                merged.clear();
                let (mut a, mut b) = (0, 0);
                let old = &off[k];
                while a < old.len() || b < new_off.len() {
                    let (j, v) = if b == new_off.len() || (a < old.len() && old[a].0 < new_off[b].0)
                    {
                        a += 1;
                        old[a - 1]
                    } else if a == old.len() || new_off[b].0 < old[a].0 {
                        let (j, v) = new_off[b];
                        b += 1;
                        rows_holding[j].push(k);
                        (j, -f * v)
                    } else {
                        let e = (old[a].0, old[a].1 - f * new_off[b].1);
                        a += 1;
                        b += 1;
                        e
                    };
                    if v.abs() > tol {
                        merged.push((j, v));
                    }
                }
                std::mem::swap(&mut off[k], &mut merged);
            }
            let k = pivot.len();
            for &(j, _) in &new_off {
                rows_holding[j].push(k);
            }
            row_of_pivot[p] = Some(k);
            pivot.push(p);
            off.push(new_off);
        }

        let mut identifiable = vec![false; n];
        for (&p, entries) in pivot.iter().zip(&off) {
            identifiable[p] = entries.iter().all(|&(_, v)| v.abs() <= IDENTIFIABLE_TOL);
        }
        (pivot.len(), identifiable)
    }
}

/// Density threshold below which the CSR/CG path is worthwhile. Systems whose
/// incidence matrices carry ≥ 25 % nonzeros gain nothing from skipping zeros
/// and keep the dense elimination's exact numerics.
pub const SPARSE_MAX_DENSITY: f64 = 0.25;

/// Minimum number of columns (unknowns) before the sparse path activates.
/// Toy systems below this size keep the dense solvers byte-for-byte so their
/// worked examples and pinned tests never move.
pub const SPARSE_MIN_COLS: usize = 64;

/// Decides representation for a system of the given shape and nonzero count:
/// `true` routes to [`sparse_least_squares`], `false` keeps the dense oracle.
pub fn should_use_sparse(rows: usize, cols: usize, nnz: usize) -> bool {
    if cols < SPARSE_MIN_COLS || rows == 0 {
        return false;
    }
    (nnz as f64) < SPARSE_MAX_DENSITY * rows as f64 * cols as f64
}

/// Solves `min_x ||A x − b||` on a CSR system by conjugate gradients on the
/// ridge-regularized normal equations, reporting the same [`LstsqSolution`]
/// diagnostics as the dense [`least_squares`](crate::lstsq::least_squares).
///
/// Identifiability (when requested) comes from
/// [`SparseMatrix::identifiability`], the sparse echelon form: its cost is
/// `O(Σ row fill)`, a small fraction of the CG solve at routing-system
/// shapes, where the dense null-space elimination it replaces cost
/// `O(rows · cols · rank)` plus a dense copy of `A`. `iterations` and
/// `converged` report how CG ended.
///
/// # Panics
/// Panics if `b.len() != a.rows()`.
pub fn sparse_least_squares(a: &SparseMatrix, b: &Vector, opts: &LstsqOptions) -> LstsqSolution {
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

    let (rank, identifiable) = if opts.compute_identifiability {
        a.identifiability(opts.tol)
    } else {
        (n.min(a.rows()), vec![true; n])
    };

    let atb = a.at_matvec(b);
    let cg = conjugate_gradient_normal(a, &atb, opts.ridge);
    let residual = &a.matvec(&cg.x) - b;
    LstsqSolution {
        residual_norm_sq: residual.dot(&residual),
        x: cg.x,
        rank,
        identifiable,
        used_ridge_fallback: true,
        iterations: cg.iterations,
        converged: cg.converged,
    }
}

/// How a CG solve ended.
struct CgOutcome {
    x: Vector,
    iterations: usize,
    converged: bool,
}

/// CG on `(AᵀA + λI) x = atb` from `x₀ = 0`. Converges in at most
/// `distinct eigenvalues` steps in exact arithmetic; the iteration cap is a
/// safety net for pathological rounding, not the expected exit.
///
/// Every vector lives in a buffer allocated once per solve.
fn conjugate_gradient_normal(a: &SparseMatrix, atb: &Vector, ridge: f64) -> CgOutcome {
    let n = a.cols();
    let mut x = Vector::zeros(n);
    let mut r = atb.clone();
    let mut p = r.clone();
    let mut ap = Vector::zeros(n);
    let mut rs = r.dot(&r);
    if rs == 0.0 {
        return CgOutcome {
            x,
            iterations: 0,
            converged: true,
        };
    }
    // Converge well below the 1e-7 identifiability scale so the sparse
    // solution is indistinguishable from the dense ridge solve.
    let stop = rs * 1e-24;
    let max_iter = 4 * n + 40;
    // (iterations taken, converged); the cap is the fall-through.
    let mut ended = (max_iter, false);
    for iteration in 1..=max_iter {
        a.normal_matvec_into(&p, ridge, &mut ap);
        let p_ap = p.dot(&ap);
        if p_ap <= 0.0 || !p_ap.is_finite() {
            ended = (iteration - 1, false);
            break;
        }
        let alpha = rs / p_ap;
        x.axpy(alpha, &p);
        r.axpy(-alpha, &ap);
        let rs_next = r.dot(&r);
        if rs_next <= stop || !rs_next.is_finite() {
            ended = (iteration, rs_next <= stop);
            break;
        }
        let beta = rs_next / rs;
        rs = rs_next;
        for (pi, &ri) in p.as_mut_slice().iter_mut().zip(r.as_slice()) {
            *pi = ri + beta * *pi;
        }
    }
    CgOutcome {
        x,
        iterations: ended.0,
        converged: ended.1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstsq::least_squares;

    fn dense_fixture() -> Matrix {
        Matrix::from_rows(&[
            vec![1.0, 0.0, 1.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0],
            vec![1.0, 1.0, 0.0, 1.0],
            vec![0.0, 0.0, 1.0, 1.0],
            vec![1.0, 0.0, 0.0, 0.0],
        ])
    }

    #[test]
    fn csr_round_trips_through_dense() {
        let d = dense_fixture();
        let s = SparseMatrix::from_dense(&d);
        assert_eq!(s.rows(), 5);
        assert_eq!(s.cols(), 4);
        assert_eq!(s.nnz(), 9);
        assert!(s.to_dense().approx_eq(&d, 0.0));
        assert!((s.density() - 9.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn push_row_sorts_and_drops_zeros() {
        let mut s = SparseMatrix::with_cols(4);
        s.push_row(&[(3, 2.0), (0, 1.0), (2, 0.0)]);
        assert_eq!(s.row_cols(0), &[0, 3]);
        assert_eq!(s.row_values(0), &[1.0, 2.0]);
        s.push_binary_row(&[2, 1]);
        assert_eq!(s.row_cols(1), &[1, 2]);
        assert_eq!(s.row_values(1), &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "repeated column")]
    fn repeated_columns_are_rejected() {
        let mut s = SparseMatrix::with_cols(4);
        s.push_row(&[(1, 1.0), (1, 2.0)]);
    }

    #[test]
    fn matvec_agrees_with_dense() {
        let d = dense_fixture();
        let s = SparseMatrix::from_dense(&d);
        let x = Vector::from_slice(&[1.0, -2.0, 0.5, 3.0]);
        assert!(s.matvec(&x).approx_eq(&d.matvec(&x), 1e-12));
        let y = Vector::from_slice(&[1.0, 0.0, -1.0, 2.0, 0.5]);
        assert!(s.at_matvec(&y).approx_eq(&d.transpose().matvec(&y), 1e-12));
    }

    #[test]
    fn normal_matrix_matches_dense_assembly() {
        let d = dense_fixture();
        let s = SparseMatrix::from_dense(&d);
        let mut expected = d.transpose().matmul(&d);
        for i in 0..expected.rows() {
            expected[(i, i)] += 0.5;
        }
        assert!(s.normal_matrix(0.5).approx_eq(&expected, 1e-12));
    }

    #[test]
    fn scatter_row_reconstructs_dense_row() {
        let d = dense_fixture();
        let s = SparseMatrix::from_dense(&d);
        let mut buf = vec![7.0; 4];
        s.scatter_row_into(2, &mut buf);
        assert_eq!(buf, d.row_slice(2));
    }

    #[test]
    fn sparse_solve_matches_dense_on_full_rank() {
        let d = dense_fixture();
        let s = SparseMatrix::from_dense(&d);
        let b = Vector::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let opts = LstsqOptions::default();
        let dense = least_squares(&d, &b, &opts);
        let sparse = sparse_least_squares(&s, &b, &opts);
        assert!(
            sparse.x.approx_eq(&dense.x, 1e-6),
            "{sparse:?} vs {dense:?}"
        );
        assert_eq!(sparse.rank, dense.rank);
        assert_eq!(sparse.identifiable, dense.identifiable);
        assert!((sparse.residual_norm_sq - dense.residual_norm_sq).abs() < 1e-6);
        assert!(sparse.converged && sparse.iterations > 0);
        assert!(dense.converged && dense.iterations == 0);
    }

    #[test]
    fn non_finite_rhs_reports_an_unconverged_solve() {
        let s = SparseMatrix::from_dense(&dense_fixture());
        let b = Vector::from_slice(&[1.0, f64::NAN, 3.0, 4.0, 5.0]);
        let sol = sparse_least_squares(&s, &b, &LstsqOptions::default());
        assert!(!sol.converged);
        assert_eq!(sol.x.len(), 4);
    }

    #[test]
    fn sparse_solve_matches_dense_on_rank_deficient() {
        // x0 + x1 pinned to 2, x2 pinned to 5; x0/x1 unidentifiable.
        let d = Matrix::from_rows(&[vec![1.0, 1.0, 0.0], vec![0.0, 0.0, 1.0]]);
        let s = SparseMatrix::from_dense(&d);
        let b = Vector::from_slice(&[2.0, 5.0]);
        let opts = LstsqOptions::default();
        let dense = least_squares(&d, &b, &opts);
        let sparse = sparse_least_squares(&s, &b, &opts);
        assert_eq!(sparse.rank, 2);
        assert_eq!(sparse.identifiable, vec![false, false, true]);
        assert!(sparse.x.approx_eq(&dense.x, 1e-5));
        assert!((sparse.x[2] - 5.0).abs() < 1e-3);
        assert!((sparse.x[0] + sparse.x[1] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn empty_column_space_yields_empty_solution() {
        let s = SparseMatrix::with_cols(0);
        let b = Vector::zeros(0);
        let sol = sparse_least_squares(&s, &b, &LstsqOptions::default());
        assert_eq!(sol.x.len(), 0);
        assert_eq!(sol.rank, 0);
    }

    #[test]
    fn representation_choice_keeps_toy_systems_dense() {
        assert!(!should_use_sparse(100, SPARSE_MIN_COLS - 1, 10));
        assert!(should_use_sparse(100, 100, 400));
        // A dense-ish system stays on the dense path even when large.
        assert!(!should_use_sparse(100, 100, 5000));
        assert!(!should_use_sparse(0, 100, 0));
    }
}
