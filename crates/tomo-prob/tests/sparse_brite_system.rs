//! The sparse solve on a real routing system: the Independence equations of
//! one fixed Brite instance, a few hundred unknowns and rank deficient. The
//! property tests cover random shapes; this pins the shape the fits
//! actually produce.

use tomo_graph::{LinkId, Network};
use tomo_linalg::nullspace::nullspace_with_tol;
use tomo_linalg::{
    should_use_sparse, sparse_least_squares, LstsqOptions, SparseMatrix, Vector, DEFAULT_TOL,
};
use tomo_prob::subsets::potentially_congested_links;
use tomo_prob::{
    baseline_path_sets, EstimatorConfig, Independence, IndependenceConfig, PathSetEstimator,
    ProbabilityComputation,
};
use tomo_sim::{
    LossModel, MeasurementMode, PathObservations, ScenarioConfig, SimulationConfig, Simulator,
};
use tomo_topology::BriteGenerator;

/// The Independence system `Independence::compute` assembles, as CSR rows
/// over the potentially congested links, with its right-hand side.
fn independence_system(network: &Network, obs: &PathObservations) -> (SparseMatrix, Vector) {
    let cfg = IndependenceConfig::default();
    let pc_links = potentially_congested_links(network, obs);
    let col_of = |l: LinkId| pc_links.binary_search(&l).ok();
    let estimator = PathSetEstimator::new(obs, cfg.estimator.clone());
    let mut a = SparseMatrix::with_cols(pc_links.len());
    let mut rhs = Vec::new();
    for ps in baseline_path_sets(network, obs, cfg.max_pair_equations) {
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
        a.push_binary_row(&cols);
        rhs.push(estimator.log_all_good_probability(&ps));
    }
    (a, Vector::from_vec(rhs))
}

/// The fixed instance: a Brite network with 100 ideal No-Independence
/// intervals.
fn instance() -> (Network, PathObservations) {
    let network = BriteGenerator::sized(1000, 1)
        .generate()
        .expect("Brite generation");
    let config = SimulationConfig {
        num_intervals: 100,
        scenario: ScenarioConfig::no_independence(),
        loss: LossModel::default(),
        measurement: MeasurementMode::Ideal,
        seed: 7,
    };
    let obs = Simulator::new(config).run(&network).observations;
    (network, obs)
}

#[test]
fn brite_independence_system_solves_sparse_like_the_dense_oracle() {
    let (network, obs) = instance();
    let (a, b) = independence_system(&network, &obs);
    let n = a.cols();
    assert!(should_use_sparse(a.rows(), n, a.nnz()));

    // Echelon identifiability against the dense null-space oracle.
    let ns = nullspace_with_tol(&a.to_dense(), DEFAULT_TOL);
    let expected: Vec<bool> = (0..n)
        .map(|i| (0..ns.cols()).all(|j| ns[(i, j)].abs() <= 1e-7))
        .collect();
    let (rank, identifiable) = a.identifiability(DEFAULT_TOL);
    assert_eq!(rank, n - ns.cols());
    assert_eq!(identifiable, expected);
    assert!(rank < n, "the instance must be rank deficient");
    assert!(identifiable.iter().any(|&f| f) && !identifiable.iter().all(|&f| f));

    // CG ends by meeting its tolerance, well inside its iteration cap.
    let sol = sparse_least_squares(&a, &b, &LstsqOptions::default());
    assert!(sol.converged);
    assert!(
        sol.iterations > 0 && sol.iterations < 4 * n + 40,
        "{} iterations",
        sol.iterations
    );
    assert_eq!((sol.rank, &sol.identifiable), (rank, &identifiable));

    // And the registry fit publishes exactly these diagnostics.
    let fit = Independence::default().compute(&network, &obs);
    assert_eq!(fit.diagnostics.rank, rank);
    assert_eq!(
        fit.diagnostics.identifiable_targets,
        identifiable.iter().filter(|&&f| f).count()
    );
}

#[test]
fn a_fit_whose_solve_gives_up_identifies_no_link() {
    let (network, mut obs) = instance();
    // One path congested in every interval. Unclamped, its equation's
    // right-hand side is ln 0 = −∞, and CG stops without converging.
    let pc_links = potentially_congested_links(&network, &obs);
    let path = network
        .path_ids()
        .find(|&p| {
            network
                .links_covered([p].iter())
                .iter()
                .any(|l| pc_links.binary_search(l).is_ok())
        })
        .expect("a path over a potentially congested link");
    for t in 0..obs.num_intervals() {
        obs.set_congested(path, t, true);
    }
    let pc_links = potentially_congested_links(&network, &obs);

    let clamped = Independence::default().compute(&network, &obs);
    assert!(clamped.diagnostics.identifiable_targets > 0);

    let unclamped = Independence::new(IndependenceConfig {
        estimator: EstimatorConfig {
            min_virtual_observations: 0.0,
        },
        ..IndependenceConfig::default()
    })
    .compute(&network, &obs);
    assert_eq!(unclamped.diagnostics.identifiable_targets, 0);
    assert_eq!(unclamped.diagnostics.rank, clamped.diagnostics.rank);
    assert!(pc_links.iter().all(|&l| !unclamped.link_is_identifiable(l)));
}
