//! *Independence* — the Probability Computation step of CLINK
//! (Nguyen & Thiran, INFOCOM 2007), used as a baseline in §5.4 of the paper.
//!
//! Under the Independence assumption (Assumption 4), Eq. (1) factorizes over
//! individual links:
//!
//! ```text
//! ln P(∩_{p∈P} Y_p = 0) = Σ_{e ∈ Links(P)} ln P(X_e = 0)
//! ```
//!
//! so the unknowns are the per-link good-probabilities. The algorithm forms
//! one equation per path plus one per (capped) pair of intersecting paths —
//! mirroring Fig. 2(a) of the paper — and solves the system by least squares.
//! When links are in fact correlated the factorization is wrong, which is
//! exactly the inaccuracy the paper's "No Independence" scenario exposes.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};
use tomo_graph::{LinkId, Network, PathId};
use tomo_linalg::{
    least_squares, should_use_sparse, sparse_least_squares, LstsqOptions, Matrix, SparseMatrix,
    Vector,
};
use tomo_sim::PathObservations;

use crate::assumptions::AlgorithmAssumptions;
use crate::estimator::{EstimatorConfig, PathSetEstimator};
use crate::result::{EstimateDiagnostics, ProbabilityEstimate};
use crate::subsets::potentially_congested_links;
use crate::ProbabilityComputation;

/// Configuration of [`Independence`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IndependenceConfig {
    /// Maximum number of path-pair equations added on top of the per-path
    /// equations.
    pub max_pair_equations: usize,
    /// Empirical estimator configuration.
    pub estimator: EstimatorConfig,
    /// Ridge regularization for rank-deficient systems.
    pub ridge: f64,
    /// Whether to compute per-unknown identifiability (costs an extra
    /// elimination pass; disable for large sweeps).
    pub compute_identifiability: bool,
}

impl Default for IndependenceConfig {
    fn default() -> Self {
        Self {
            max_pair_equations: 4000,
            estimator: EstimatorConfig::default(),
            ridge: 1e-8,
            compute_identifiability: true,
        }
    }
}

/// The Independence Probability Computation algorithm (CLINK step 1).
#[derive(Clone, Debug, Default)]
pub struct Independence {
    config: IndependenceConfig,
}

impl Independence {
    /// Creates the algorithm with the given configuration.
    pub fn new(config: IndependenceConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &IndependenceConfig {
        &self.config
    }
}

/// Enumerates the path sets used by the Independence and
/// Correlation-heuristic baselines: every single path that is not always
/// good, plus up to `max_pairs` pairs of intersecting paths. The pairs are
/// chosen deterministically by scanning links and pairing consecutive paths
/// that share them, which spreads the pairs over the whole topology.
///
/// Public because the online (streaming) form of the Independence estimator
/// in `tomo-core` builds the same equation structure and keeps it cached
/// between observation batches.
pub fn baseline_path_sets(
    network: &Network,
    observations: &PathObservations,
    max_pairs: usize,
) -> Vec<Vec<PathId>> {
    let mut sets: Vec<Vec<PathId>> = Vec::new();
    // Include every observed path (always-good paths still contribute the
    // information that their links are good; their equation right-hand side
    // is ln 1 = 0).
    for p in network.path_ids() {
        sets.push(vec![p]);
    }
    let _ = observations;
    // Pairs of intersecting paths.
    let mut seen: BTreeSet<(PathId, PathId)> = BTreeSet::new();
    'outer: for l in network.link_ids() {
        let through = network.paths_through_link(l);
        for w in through.windows(2) {
            let key = (w[0].min(w[1]), w[0].max(w[1]));
            if key.0 == key.1 || !seen.insert(key) {
                continue;
            }
            sets.push(vec![key.0, key.1]);
            if seen.len() >= max_pairs {
                break 'outer;
            }
        }
    }
    sets
}

impl ProbabilityComputation for Independence {
    fn name(&self) -> &'static str {
        "Independence"
    }

    fn assumptions(&self) -> AlgorithmAssumptions {
        AlgorithmAssumptions::independence_step()
    }

    fn compute(&self, network: &Network, observations: &PathObservations) -> ProbabilityEstimate {
        let cfg = &self.config;
        let mut estimate = ProbabilityEstimate::new(self.name(), network.num_links());
        estimate.independence_fallback = true;

        let pc_links = potentially_congested_links(network, observations);
        let pc_set: BTreeSet<LinkId> = pc_links.iter().copied().collect();
        // Column index: one unknown per potentially congested link.
        let col_of = |l: LinkId| pc_links.binary_search(&l).ok();

        // Links that are observed but not potentially congested are known
        // good.
        for l in network.link_ids() {
            if !pc_set.contains(&l) && !network.paths_through_link(l).is_empty() {
                estimate.set_link(l, 0.0, true);
            }
        }
        if pc_links.is_empty() {
            estimate.diagnostics.total_targets = 0;
            return estimate;
        }

        let estimator = PathSetEstimator::new(observations, cfg.estimator.clone());
        let path_sets = baseline_path_sets(network, observations, cfg.max_pair_equations);

        // Assemble rows in sparse form (column lists): a path touches a
        // handful of links, so at brite-large scale the dense row matrix
        // would be hundreds of MB of zeros.
        let mut rows: Vec<Vec<usize>> = Vec::new();
        let mut rhs: Vec<f64> = Vec::new();
        let mut nnz = 0usize;
        for ps in &path_sets {
            let mut cols: Vec<usize> = network
                .links_covered(ps.iter())
                .into_iter()
                .filter_map(col_of)
                .collect();
            if cols.is_empty() {
                continue;
            }
            cols.sort_unstable();
            cols.dedup();
            nnz += cols.len();
            rows.push(cols);
            rhs.push(estimator.log_all_good_probability(ps));
        }

        let num_equations = rows.len();
        let b = Vector::from_vec(rhs);
        let opts = LstsqOptions {
            ridge: cfg.ridge,
            compute_identifiability: cfg.compute_identifiability,
            ..LstsqOptions::default()
        };
        let sol = if should_use_sparse(num_equations, pc_links.len(), nnz) {
            let mut a = SparseMatrix::with_cols(pc_links.len());
            for cols in &rows {
                a.push_binary_row(cols);
            }
            sparse_least_squares(&a, &b, &opts)
        } else {
            let mut a = Matrix::zeros(num_equations, pc_links.len());
            for (r, cols) in rows.iter().enumerate() {
                for &c in cols {
                    a[(r, c)] = 1.0;
                }
            }
            least_squares(&a, &b, &opts)
        };

        // A solve that gave up (e.g. a non-finite right-hand side from an
        // unclamped empirical zero) pins down no unknown, whatever the
        // matrix's rank says.
        let identifiable: Vec<bool> = if !sol.converged {
            vec![false; pc_links.len()]
        } else if cfg.compute_identifiability {
            sol.identifiable
        } else {
            vec![true; pc_links.len()]
        };
        for (c, &l) in pc_links.iter().enumerate() {
            let good = sol.x[c].exp().clamp(0.0, 1.0);
            estimate.set_link(l, 1.0 - good, identifiable[c]);
        }

        estimate.diagnostics = EstimateDiagnostics {
            num_equations,
            num_unknowns: pc_links.len(),
            rank: sol.rank,
            identifiable_targets: identifiable.iter().filter(|&&b| b).count(),
            total_targets: pc_links.len(),
        };
        estimate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tomo_graph::toy::{fig1_case1, E1, E2, E3, E4};

    /// Independent congestion: e1 bad 20% of intervals, e3 bad 25%
    /// (on a disjoint 1-in-4 schedule), e2 and e4 always good.
    fn independent_observations(t: usize) -> PathObservations {
        let mut obs = PathObservations::new(3, t);
        for ti in 0..t {
            let e1_bad = ti % 5 == 0;
            let e3_bad = ti % 4 == 1;
            obs.set_congested(PathId(0), ti, e1_bad); // p1 = {e1,e2}
            obs.set_congested(PathId(1), ti, e1_bad || e3_bad); // p2 = {e1,e3}
            obs.set_congested(PathId(2), ti, e3_bad); // p3 = {e4,e3}
        }
        obs
    }

    /// Perfectly correlated e2/e3 (violating the Independence assumption).
    fn correlated_observations(t: usize) -> PathObservations {
        let mut obs = PathObservations::new(3, t);
        for ti in 0..t {
            let e23_bad = ti % 2 == 0; // 50%
            obs.set_congested(PathId(0), ti, e23_bad);
            obs.set_congested(PathId(1), ti, e23_bad);
            obs.set_congested(PathId(2), ti, e23_bad);
        }
        obs
    }

    #[test]
    fn accurate_when_links_are_independent() {
        let net = fig1_case1();
        let obs = independent_observations(2000);
        let est = Independence::default().compute(&net, &obs);
        assert!((est.link_congestion_probability(E1) - 0.2).abs() < 0.05);
        assert!((est.link_congestion_probability(E3) - 0.25).abs() < 0.05);
        assert!(est.link_congestion_probability(E2) < 0.05);
        assert!(est.link_congestion_probability(E4) < 0.05);
    }

    #[test]
    fn inaccurate_when_links_are_correlated() {
        // §3.1: with e2 and e3 perfectly correlated, the Independence
        // equations are wrong. The sum of the absolute errors across links
        // must be noticeably larger than in the independent case.
        let net = fig1_case1();
        let obs = correlated_observations(2000);
        let est = Independence::default().compute(&net, &obs);
        // True marginals: e2 = e3 = 0.5, e1 = e4 = 0.
        let err = (est.link_congestion_probability(E1) - 0.0).abs()
            + (est.link_congestion_probability(E2) - 0.5).abs()
            + (est.link_congestion_probability(E3) - 0.5).abs()
            + (est.link_congestion_probability(E4) - 0.0).abs();
        assert!(
            err > 0.2,
            "independence should mis-estimate correlated links, total error {err}"
        );
    }

    #[test]
    fn independence_fallback_reconstructs_joints_as_products() {
        let net = fig1_case1();
        let obs = independent_observations(2000);
        let est = Independence::default().compute(&net, &obs);
        let p1 = est.link_congestion_probability(E1);
        let p3 = est.link_congestion_probability(E3);
        let joint = est.subset_congestion_probability(&[E1, E3]).unwrap();
        assert!((joint - p1 * p3).abs() < 1e-9);
    }

    #[test]
    fn baseline_path_sets_contain_singles_and_pairs() {
        let net = fig1_case1();
        let obs = independent_observations(10);
        let sets = baseline_path_sets(&net, &obs, 10);
        assert!(sets.iter().filter(|s| s.len() == 1).count() >= 3);
        assert!(sets.iter().any(|s| s.len() == 2));
        // Respect the cap.
        let capped = baseline_path_sets(&net, &obs, 1);
        assert_eq!(capped.iter().filter(|s| s.len() == 2).count(), 1);
    }

    #[test]
    fn assumptions_match_table2() {
        let a = Independence::default().assumptions();
        assert!(a.independence);
        assert!(!a.correlation_sets);
        assert!(!a.other_approximation);
    }
}
