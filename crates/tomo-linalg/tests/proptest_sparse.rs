//! Property-based equivalence tests for the sparse fast path.
//!
//! `sparse_least_squares` must be a drop-in replacement for the dense
//! `least_squares` oracle on the 0/1 routing systems the tomography
//! algorithms assemble: identical rank and identifiability reporting,
//! residuals bracketed by the dense optimum, and solutions that agree with
//! the exact dense ridge solve wherever both sides minimize the same
//! objective. Densities span the sparse→dense range so both sides of the
//! `should_use_sparse` dispatch threshold are exercised, and tall, very
//! sparse systems at routing-system shapes check the sparse echelon
//! identifiability past `SPARSE_MIN_COLS`, where eliminating a new pivot
//! from earlier rows creates fill.

use proptest::prelude::*;
use tomo_linalg::nullspace::nullspace_with_tol;
use tomo_linalg::{
    gauss, least_squares, sparse_least_squares, LstsqOptions, Matrix, SparseMatrix, Vector,
    DEFAULT_TOL,
};

/// Strategy: a random 0/1 system `(A, b)` with `1..=max_rows` rows,
/// `1..=max_cols` columns and a fill density drawn from `[0.05, 0.95)`.
fn binary_system(max_rows: usize, max_cols: usize) -> impl Strategy<Value = (Matrix, Vector)> {
    (1..=max_rows, 1..=max_cols, 0.05f64..0.95).prop_flat_map(|(r, c, density)| {
        (
            proptest::collection::vec(0.0f64..1.0, r * c),
            proptest::collection::vec(-2.0f64..2.0, r),
        )
            .prop_map(move |(cells, rhs)| {
                let data: Vec<f64> = cells
                    .into_iter()
                    .map(|u| if u < density { 1.0 } else { 0.0 })
                    .collect();
                (Matrix::from_vec(r, c, data), Vector::from_slice(&rhs))
            })
    })
}

/// Strategy: a 0/1 system with strictly more columns than rows, so the
/// matrix is rank-deficient and the dense solver is forced onto its ridge
/// fallback — the regime where dense and sparse minimize the identical
/// objective.
fn wide_binary_system() -> impl Strategy<Value = (Matrix, Vector)> {
    (1..=6usize, 0.1f64..0.9).prop_flat_map(|(r, density)| {
        ((r + 1)..=(r + 8)).prop_flat_map(move |c| {
            (
                proptest::collection::vec(0.0f64..1.0, r * c),
                proptest::collection::vec(-2.0f64..2.0, r),
            )
                .prop_map(move |(cells, rhs)| {
                    let data: Vec<f64> = cells
                        .into_iter()
                        .map(|u| if u < density { 1.0 } else { 0.0 })
                        .collect();
                    (Matrix::from_vec(r, c, data), Vector::from_slice(&rhs))
                })
        })
    })
}

/// Strategy: a tall, very sparse 0/1 system shaped like a routing matrix:
/// 64–160 columns, 1–4 ones per fresh row, with planted duplicate rows, rows
/// that are the sum of two earlier rows with disjoint supports, and "series"
/// columns that occur exactly where another column does (links no path
/// separates, so neither is identifiable).
fn routing_system() -> impl Strategy<Value = Matrix> {
    (64..=160usize).prop_flat_map(|c| {
        (
            proptest::collection::vec(
                (
                    0..10u8,
                    0..usize::MAX,
                    0..usize::MAX,
                    proptest::collection::vec(0..c, 1..=4),
                ),
                c..=(3 * c / 2),
            ),
            proptest::collection::vec((0..c, 0..c), 0..=4),
        )
            .prop_map(move |(specs, series)| {
                let mut rows: Vec<Vec<usize>> = Vec::new();
                for (kind, i, j, fresh) in specs {
                    let row = match (kind, rows.len()) {
                        (0, len) if len > 0 => rows[i % len].clone(),
                        (1, len) if len > 0 => {
                            let (a, b) = (&rows[i % len], &rows[j % len]);
                            if a.iter().any(|x| b.contains(x)) {
                                a.clone()
                            } else {
                                a.iter().chain(b).copied().collect()
                            }
                        }
                        _ => fresh,
                    };
                    rows.push(row);
                }
                for (leader, follower) in series {
                    if leader == follower {
                        continue;
                    }
                    for row in &mut rows {
                        row.retain(|&x| x != follower);
                        if row.contains(&leader) {
                            row.push(follower);
                        }
                    }
                }
                let mut a = Matrix::zeros(rows.len(), c);
                for (r, row) in rows.iter().enumerate() {
                    for &x in row {
                        a[(r, x)] = 1.0;
                    }
                }
                a
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn echelon_identifiability_matches_the_nullspace_oracle_at_routing_shapes(
        a in routing_system(),
    ) {
        let ns = nullspace_with_tol(&a, DEFAULT_TOL);
        let expected: Vec<bool> = (0..a.cols())
            .map(|i| (0..ns.cols()).all(|j| ns[(i, j)].abs() <= 1e-7))
            .collect();
        let (rank, identifiable) = SparseMatrix::from_dense(&a).identifiability(DEFAULT_TOL);
        prop_assert_eq!(rank, a.cols() - ns.cols());
        prop_assert_eq!(identifiable, expected);
    }

    #[test]
    fn csr_roundtrip_preserves_the_dense_matrix(sys in binary_system(16, 12)) {
        let (a, _) = sys;
        let csr = SparseMatrix::from_dense(&a);
        prop_assert_eq!(csr.rows(), a.rows());
        prop_assert_eq!(csr.cols(), a.cols());
        let ones = (0..a.rows())
            .flat_map(|i| (0..a.cols()).map(move |j| (i, j)))
            .filter(|&(i, j)| a[(i, j)] != 0.0)
            .count();
        prop_assert_eq!(csr.nnz(), ones);
        prop_assert!(csr.to_dense().approx_eq(&a, 0.0));
    }

    #[test]
    fn csr_products_match_dense_arithmetic(
        sys in binary_system(14, 10),
        xdata in proptest::collection::vec(-3.0f64..3.0, 10),
        ydata in proptest::collection::vec(-3.0f64..3.0, 14),
    ) {
        let (a, _) = sys;
        let csr = SparseMatrix::from_dense(&a);
        let x = Vector::from_slice(&xdata[..a.cols()]);
        let y = Vector::from_slice(&ydata[..a.rows()]);
        prop_assert!(csr.matvec(&x).approx_eq(&a.matvec(&x), 1e-12));
        prop_assert!(csr.at_matvec(&y).approx_eq(&a.transpose().matvec(&y), 1e-12));
        let ridge = 1e-8;
        let mut ata = a.transpose().matmul(&a);
        for i in 0..a.cols() {
            ata[(i, i)] += ridge;
        }
        let mut normal = Vector::zeros(a.cols());
        csr.normal_matvec_into(&x, ridge, &mut normal);
        prop_assert!(normal.approx_eq(&ata.matvec(&x), 1e-10));
        // The fused single pass is bit-identical to the composed products.
        let mut composed = csr.at_matvec(&csr.matvec(&x));
        composed.axpy(ridge, &x);
        prop_assert_eq!(normal.as_slice(), composed.as_slice());
        prop_assert!(csr.normal_matrix(ridge).approx_eq(&ata, 1e-12));
    }

    #[test]
    fn sparse_rank_and_identifiability_match_dense(sys in binary_system(16, 12)) {
        let (a, b) = sys;
        let csr = SparseMatrix::from_dense(&a);
        let opts = LstsqOptions::default();
        let dense = least_squares(&a, &b, &opts);
        let sparse = sparse_least_squares(&csr, &b, &opts);
        prop_assert_eq!(sparse.rank, dense.rank);
        prop_assert_eq!(sparse.identifiable, dense.identifiable);
    }

    #[test]
    fn sparse_solution_solves_the_ridge_normal_equations(sys in binary_system(16, 12)) {
        // CG runs on (AᵀA + λI) x = Aᵀb; its exit criterion is far below the
        // identifiability scale, so the returned x must satisfy the system
        // to solver precision. The solution itself is compared to a direct
        // dense elimination of the identical matrix — on the fitted values
        // and the identifiable components only, because in unidentifiable
        // null directions the dense elimination amplifies rounding noise by
        // 1/λ while CG (starting from x₀ = 0) stays in range(AᵀA); both are
        // equally valid minimizers there and neither value is meaningful.
        let (a, b) = sys;
        let csr = SparseMatrix::from_dense(&a);
        let opts = LstsqOptions::default();
        let sparse = sparse_least_squares(&csr, &b, &opts);
        let normal = csr.normal_matrix(opts.ridge);
        let atb = csr.at_matvec(&b);
        let gap = &normal.matvec(&sparse.x) - &atb;
        prop_assert!(gap.norm_inf() <= 1e-10 * (1.0 + atb.norm_inf()));
        let exact = gauss::solve_square(&normal, &atb)
            .expect("ridge-regularized normal matrix is nonsingular");
        let fitted_gap = &a.matvec(&sparse.x) - &a.matvec(&exact);
        prop_assert!(fitted_gap.norm_inf() <= 1e-6 * (1.0 + b.norm_inf()));
        for i in 0..a.cols() {
            if sparse.identifiable[i] {
                prop_assert!(
                    (sparse.x[i] - exact[i]).abs() <= 1e-6 * (1.0 + exact[i].abs()),
                    "identifiable unknown {} diverges: {} vs {}",
                    i,
                    sparse.x[i],
                    exact[i],
                );
            }
        }
    }

    #[test]
    fn sparse_residual_brackets_the_dense_optimum(sys in binary_system(16, 12)) {
        // The ridge solution can never beat the unregularized least-squares
        // optimum, and can trail it by at most λ‖x*‖² (plus solver noise).
        let (a, b) = sys;
        let csr = SparseMatrix::from_dense(&a);
        let opts = LstsqOptions::default();
        let dense = least_squares(&a, &b, &opts);
        let sparse = sparse_least_squares(&csr, &b, &opts);
        let x_norm_sq = dense.x.dot(&dense.x);
        prop_assert!(sparse.residual_norm_sq + 1e-7 >= dense.residual_norm_sq);
        prop_assert!(
            sparse.residual_norm_sq <= dense.residual_norm_sq + opts.ridge * x_norm_sq + 1e-7,
            "sparse residual {} exceeds dense {} by more than the ridge slack",
            sparse.residual_norm_sq,
            dense.residual_norm_sq,
        );
    }

    #[test]
    fn rank_deficient_solutions_agree_where_determined(sys in wide_binary_system()) {
        // With cols > rows both solvers minimize the same ridge objective.
        // The minimizer is only pinned down where the data pins it: fitted
        // values and identifiable components must coincide (null-direction
        // content is 1/λ-amplified rounding noise on the dense side).
        let (a, b) = sys;
        let csr = SparseMatrix::from_dense(&a);
        let opts = LstsqOptions::default();
        let dense = least_squares(&a, &b, &opts);
        let sparse = sparse_least_squares(&csr, &b, &opts);
        prop_assert!(dense.used_ridge_fallback);
        prop_assert!(sparse.used_ridge_fallback);
        prop_assert_eq!(sparse.rank, dense.rank);
        prop_assert_eq!(sparse.identifiable.clone(), dense.identifiable.clone());
        let fitted_gap = &a.matvec(&sparse.x) - &a.matvec(&dense.x);
        prop_assert!(
            fitted_gap.norm_inf() <= 1e-6 * (1.0 + b.norm_inf()),
            "fitted values diverge: ‖AΔx‖∞ = {}",
            fitted_gap.norm_inf(),
        );
        for i in 0..a.cols() {
            if dense.identifiable[i] {
                prop_assert!(
                    (sparse.x[i] - dense.x[i]).abs() <= 1e-6 * (1.0 + dense.x[i].abs()),
                    "identifiable unknown {} diverges: {} vs {}",
                    i,
                    sparse.x[i],
                    dense.x[i],
                );
            }
        }
    }

    #[test]
    fn skipped_identifiability_reports_the_same_contract(sys in binary_system(16, 12)) {
        // Hot paths disable the identifiability pass; both solvers must then
        // report the identical placeholder diagnostics (this is what keeps
        // the online and batch estimators in agreement at scale).
        let (a, b) = sys;
        let csr = SparseMatrix::from_dense(&a);
        let opts = LstsqOptions::without_identifiability();
        let dense = least_squares(&a, &b, &opts);
        let sparse = sparse_least_squares(&csr, &b, &opts);
        prop_assert_eq!(sparse.rank, dense.rank);
        prop_assert_eq!(sparse.rank, a.cols().min(a.rows()));
        prop_assert_eq!(sparse.identifiable.clone(), dense.identifiable.clone());
        prop_assert!(sparse.identifiable.iter().all(|&f| f));
    }
}
