//! Online (streaming) estimation: ingest observation batches, keep the
//! estimate fresh.
//!
//! The batch [`Estimator`] re-fits from the full observation matrix every
//! time. A long-running tomography daemon instead receives a few intervals
//! at a time and wants the cheapest correct update. [`OnlineEstimator`]
//! models that: `ingest(batch)` folds new intervals in and reports whether
//! the refit was [`Refit::Incremental`] or [`Refit::Full`].
//!
//! Two implementations ship:
//!
//! * [`OnlineIndependence`] — a genuinely incremental form of the
//!   linear-system Independence estimator. The equation *structure* (which
//!   path sets appear, which links are unknowns) changes only when a path
//!   is congested for the first time (or congestion ages out of a bounded
//!   window), while the right-hand side (empirical log-probabilities)
//!   changes on every interval. Steady state is therefore: update counters,
//!   re-apply a cached solver — no elimination, no factorization. When the
//!   structure does change, the estimator rebuilds, computing the new
//!   null-space basis incrementally row-by-row via
//!   [`tomo_linalg::nullspace_update`] (Algorithm 2 of the paper) with a
//!   from-scratch recomputation as fallback when the folded basis degrades
//!   numerically.
//! * [`BufferedOnline`] — the adapter that gives *every* registry algorithm
//!   an online form by buffering a rolling [`ObservationWindow`] and
//!   re-running the batch fit on each ingest (always [`Refit::Full`]).
//!
//! The invariant both uphold (and the integration tests assert): after any
//! sequence of ingests, the estimate equals — up to solver tolerance — a
//! single batch fit on the concatenation of the retained observations.

use serde::{Deserialize, Serialize};
use tomo_graph::{LinkId, Network, PathId};
use tomo_linalg::{
    least_squares, nullspace_update, should_use_sparse, sparse_least_squares, LstsqOptions,
    LuFactors, Matrix, SparseMatrix, Vector, DEFAULT_TOL,
};
use tomo_prob::result::EstimateDiagnostics;
use tomo_prob::subsets::potentially_congested_links;
use tomo_prob::AlgorithmAssumptions;
use tomo_prob::{
    baseline_path_sets, CorrelationComplete, CorrelationCompleteConfig, CorrelationSystem,
    IndependenceConfig, ProbabilityEstimate,
};
use tomo_sim::{ObservationWindow, PathObservations};

use crate::error::TomoError;
use crate::estimator::{Capabilities, Estimator};
use crate::registry::EstimatorOptions;

/// What kind of work one [`OnlineEstimator::ingest`] call had to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Refit {
    /// Only the right-hand side changed: the cached equation structure,
    /// solver and null-space basis were reused.
    Incremental,
    /// The equation structure changed (or the estimator has no incremental
    /// form): everything was rebuilt from the retained observations.
    Full,
}

/// Lifetime counters of an online estimator's refit behavior.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefitCounts {
    /// Ingests served by the incremental path.
    pub incremental: u64,
    /// Ingests that required a full structural rebuild.
    pub full: u64,
    /// Full rebuilds where the incrementally folded null-space basis
    /// degraded numerically and was recomputed from scratch.
    pub basis_rebuilds: u64,
}

/// A streaming estimator: a batch [`Estimator`] that can also fold in new
/// observation intervals without being re-fit from scratch by the caller.
pub trait OnlineEstimator: Estimator {
    /// Ingests a batch of new intervals (a [`PathObservations`] whose
    /// interval axis is the batch) and refreshes the estimate.
    fn ingest(&mut self, network: &Network, batch: &PathObservations) -> Result<Refit, TomoError>;

    /// The rolling window of retained observations, once at least one
    /// interval has been ingested.
    fn window(&self) -> Option<&ObservationWindow>;

    /// Lifetime refit counters.
    fn refit_counts(&self) -> RefitCounts;

    /// Restores the lifetime interval counter after a snapshot restore,
    /// where re-ingesting the retained window would otherwise reset it to
    /// the window length. No-op before the first ingest.
    fn restore_total_ingested(&mut self, total: u64);

    /// Total intervals ingested over the estimator's lifetime.
    fn intervals_ingested(&self) -> u64 {
        self.window().map_or(0, |w| w.total_ingested())
    }

    /// Per-path congestion presence inside the retained window:
    /// `flags[p]` = path `p` was congested in at least one retained
    /// interval. `None` before the first ingest. This is the bitmap the
    /// topology drift monitor diffs; the incremental estimators answer from
    /// the presence counters they already keep, the default folds the
    /// window.
    fn congested_paths(&self) -> Option<Vec<bool>> {
        self.window().map(|w| {
            let mut flags = vec![false; w.num_paths()];
            for i in 0..w.len() {
                for (p, &c) in w.interval(i).iter().enumerate() {
                    if c {
                        flags[p] = true;
                    }
                }
            }
            flags
        })
    }

    /// Forces a structural rebuild from the retained window — the same
    /// Algorithm-2 refold + solver refresh a structure change triggers,
    /// without waiting for one. Returns `true` if a rebuild was performed
    /// (`false` before the first ingest, or when the network's shape does
    /// not match the window). Drift-driven auto-rebuilds go through here.
    fn force_rebuild(&mut self, _network: &Network) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Cached system solver (shared by both incremental estimators)
// ---------------------------------------------------------------------------

/// The cached solver over an assembled 0/1 equation system.
///
/// Small or dense systems keep the dense matrix plus the LU factors of the
/// ridge normal matrix `(AᵀA + λI)`: factored once per structural rebuild,
/// each RHS-only refresh is then `Aᵀb` plus two `O(n²)` triangular sweeps
/// (the previous scheme materialized the full `n × rows` pseudo-inverse
/// `(AᵀA + λI)⁻¹Aᵀ` and re-applied it as a dense product). Large sparse
/// systems keep the CSR matrix and answer every refresh with a
/// conjugate-gradient solve that only touches the nonzeros — no dense
/// matrix, normal matrix or factorization ever exists at that scale.
#[derive(Clone, Debug)]
enum SystemSolver {
    /// Dense reference path; `lu` is `None` when even the ridge normal
    /// matrix was singular (each refresh then re-solves by least squares).
    Dense {
        matrix: Matrix,
        lu: Option<LuFactors>,
    },
    /// Sparse CG path over the CSR system matrix.
    Sparse(SparseMatrix),
}

impl SystemSolver {
    /// Assembles the solver from sparse rows (sorted, deduplicated column
    /// lists) over `cols` unknowns, picking the representation with the same
    /// density threshold the batch solvers use.
    fn build(rows: &[Vec<usize>], cols: usize, ridge: f64) -> Self {
        let nnz: usize = rows.iter().map(|r| r.len()).sum();
        if should_use_sparse(rows.len(), cols, nnz) {
            let mut csr = SparseMatrix::with_cols(cols);
            for r in rows {
                csr.push_binary_row(r);
            }
            return Self::Sparse(csr);
        }
        let mut matrix = Matrix::zeros(rows.len(), cols);
        for (i, r) in rows.iter().enumerate() {
            for &c in r {
                matrix[(i, c)] = 1.0;
            }
        }
        let lu = if cols == 0 {
            None
        } else {
            let mut ata = matrix.transpose().matmul(&matrix);
            for i in 0..cols {
                ata[(i, i)] += ridge;
            }
            LuFactors::factor(&ata)
        };
        Self::Dense { matrix, lu }
    }

    /// Number of assembled equations.
    fn rows(&self) -> usize {
        match self {
            Self::Dense { matrix, .. } => matrix.rows(),
            Self::Sparse(csr) => csr.rows(),
        }
    }

    /// The RHS-only refresh: reuse the cached LU factors (dense) or re-run
    /// CG over the cached CSR matrix (sparse).
    fn solve_cached(&self, b: &Vector, ridge: f64) -> Vector {
        match self {
            Self::Dense {
                matrix,
                lu: Some(lu),
            } => lu.solve(&matrix.vecmat(b)),
            _ => self.solve_batch(b, ridge),
        }
    }

    /// The solve a batch estimator performs at this system's scale — used at
    /// rebuild points so the online estimate matches the batch fit exactly.
    fn solve_batch(&self, b: &Vector, ridge: f64) -> Vector {
        let opts = LstsqOptions {
            ridge,
            compute_identifiability: false,
            ..LstsqOptions::default()
        };
        match self {
            Self::Dense { matrix, .. } => least_squares(matrix, b, &opts).x,
            Self::Sparse(csr) => sparse_least_squares(csr, b, &opts).x,
        }
    }
}

// ---------------------------------------------------------------------------
// OnlineIndependence
// ---------------------------------------------------------------------------

/// The cached equation structure of [`OnlineIndependence`]: everything that
/// only changes when the potentially-congested link set changes.
#[derive(Clone, Debug)]
struct Structure {
    /// The potentially congested links, sorted (the unknown columns).
    pc_links: Vec<LinkId>,
    /// Indices (into the path-set list) of the equations with at least one
    /// unknown.
    active_sets: Vec<usize>,
    /// The assembled system (one row per active set, one column per pc
    /// link) with its cached solver.
    solver: SystemSolver,
    /// Per-unknown identifiability: from the null-space basis on the dense
    /// path, from the sparse echelon form on the sparse one.
    identifiable: Vec<bool>,
    /// Rank of the system matrix.
    rank: usize,
}

/// Incremental, streaming form of the Independence linear-system estimator.
///
/// See the module docs for the design; the observable contract is that
/// [`Estimator::estimate`] always equals (within solver tolerance) what
/// [`tomo_prob::Independence`] computes on the retained window.
///
/// With a decay factor (see [`OnlineIndependence::with_decay`]) the
/// right-hand sides are estimated from exponentially reweighted counters
/// (`weight = λ^age`) instead of plain window fractions, so drifting loss
/// rates are tracked faster than truncation alone allows. The batch
/// equivalent is a fit on the window materialized *with* its `λ^age`
/// interval weights, which is exactly what
/// [`OnlineIndependence::deviation_from_batch`] compares against.
#[derive(Clone, Debug)]
pub struct OnlineIndependence {
    config: IndependenceConfig,
    capacity: Option<usize>,
    decay: Option<f64>,
    window: Option<ObservationWindow>,
    /// All candidate path sets (singles + capped pairs), fixed per network.
    path_sets: Vec<Vec<PathId>>,
    /// Per path set: (decay-weighted) intervals in the window where every
    /// member was good. Exact integer counts when decay is off.
    set_all_good: Vec<f64>,
    /// Per path: intervals in the window where the path was congested
    /// (unweighted presence counts — the equation structure depends only on
    /// *whether* a path has congested within the window).
    path_congested: Vec<u64>,
    structure: Option<Structure>,
    estimate: Option<ProbabilityEstimate>,
    counts: RefitCounts,
}

impl Default for OnlineIndependence {
    fn default() -> Self {
        Self::new(IndependenceConfig::default(), None)
    }
}

impl OnlineIndependence {
    /// Creates the estimator; `window_capacity` bounds the retained
    /// intervals (`None` keeps the full history).
    pub fn new(config: IndependenceConfig, window_capacity: Option<usize>) -> Self {
        Self::with_decay(config, window_capacity, None)
    }

    /// Creates the estimator with an exponential reweighting factor
    /// `decay ∈ (0, 1)` on top of (optional) truncation.
    pub fn with_decay(
        config: IndependenceConfig,
        window_capacity: Option<usize>,
        decay: Option<f64>,
    ) -> Self {
        Self {
            config,
            capacity: window_capacity,
            decay,
            window: None,
            path_sets: Vec::new(),
            set_all_good: Vec::new(),
            path_congested: Vec::new(),
            structure: None,
            estimate: None,
            counts: RefitCounts::default(),
        }
    }

    /// The decay factor as a multiplier (1 when reweighting is disabled).
    fn lambda(&self) -> f64 {
        self.decay.unwrap_or(1.0)
    }

    /// The refit counters (also available through the trait).
    pub fn counts(&self) -> RefitCounts {
        self.counts
    }

    /// Maximum absolute deviation of the current per-link probabilities from
    /// a from-scratch batch fit on the retained window — the correctness
    /// check the integration tests (and the daemon's self-check) use. Under
    /// decay the window materializes with its `λ^age` weights, which the
    /// batch estimator honors.
    pub fn deviation_from_batch(&self, network: &Network) -> Result<f64, TomoError> {
        let window = self.window.as_ref().ok_or_else(|| TomoError::NotFitted {
            estimator: self.name().to_string(),
        })?;
        let estimate = self.estimate.as_ref().ok_or_else(|| TomoError::NotFitted {
            estimator: self.name().to_string(),
        })?;
        use tomo_prob::ProbabilityComputation;
        let batch = tomo_prob::Independence::new(self.config.clone())
            .compute(network, &window.to_observations());
        let mut worst = 0.0f64;
        for l in network.link_ids() {
            let d = (batch.link_congestion_probability(l)
                - estimate.link_congestion_probability(l))
            .abs();
            worst = worst.max(d);
        }
        Ok(worst)
    }

    /// Resets all streaming state (window, caches; the lifetime refit
    /// counters are kept).
    pub fn reset(&mut self) {
        self.window = None;
        self.path_sets.clear();
        self.set_all_good.clear();
        self.path_congested.clear();
        self.structure = None;
        self.estimate = None;
    }

    /// Folds one freshly pushed interval into the counters. Under decay the
    /// previously accumulated weighted counts are scaled by `λ` first (every
    /// older interval just aged by one step); the new interval enters with
    /// weight 1.
    fn add_interval(&mut self, flags: &[bool]) {
        let lambda = self.lambda();
        if lambda < 1.0 {
            for c in &mut self.set_all_good {
                *c *= lambda;
            }
        }
        for (p, &congested) in flags.iter().enumerate() {
            if congested {
                self.path_congested[p] += 1;
            }
        }
        for (i, set) in self.path_sets.iter().enumerate() {
            if set.iter().all(|p| !flags[p.index()]) {
                self.set_all_good[i] += 1.0;
            }
        }
    }

    /// Removes an evicted interval from the counters. At eviction time the
    /// oldest interval carries weight `λ^capacity` (it has aged `capacity`
    /// steps since it was pushed); without decay that is exactly 1.
    fn evict_interval(&mut self, flags: &[bool]) {
        let capacity = self
            .window
            .as_ref()
            .and_then(|w| w.capacity())
            .expect("evictions only happen on bounded windows");
        let weight = self.lambda().powi(capacity as i32);
        for (p, &congested) in flags.iter().enumerate() {
            if congested {
                self.path_congested[p] -= 1;
            }
        }
        for (i, set) in self.path_sets.iter().enumerate() {
            if set.iter().all(|p| !flags[p.index()]) {
                self.set_all_good[i] = (self.set_all_good[i] - weight).max(0.0);
            }
        }
    }

    /// The effective (weighted) sample size the empirical fractions divide
    /// by: the window length without decay, `Σ λ^age` with it.
    fn effective_weight(&self) -> f64 {
        self.window.as_ref().map_or(0.0, |w| w.total_weight())
    }

    /// The clamped empirical `ln P(all paths of the set good)` — identical
    /// to [`tomo_prob::PathSetEstimator::log_all_good_probability`] on the
    /// materialized window when decay is off.
    fn log_all_good(&self, set_index: usize, weight: f64) -> f64 {
        let t = if weight > 0.0 { weight } else { 1.0 };
        let floor = (self.config.estimator.min_virtual_observations / t).min(0.5);
        let fraction = self.set_all_good[set_index] / t;
        fraction.clamp(floor, 1.0).ln()
    }

    /// The right-hand-side vector over the active equations.
    fn rhs(&self, structure: &Structure, weight: f64) -> Vector {
        Vector::from_iter(
            structure
                .active_sets
                .iter()
                .map(|&i| self.log_all_good(i, weight)),
        )
    }

    /// Rebuilds the equation structure after a potentially-congested-set
    /// change, folding the null-space basis row-by-row through Algorithm 2.
    fn rebuild_structure(&mut self, network: &Network) {
        let window = self.window.as_ref().expect("rebuild needs a window");
        let observations = window.to_observations();
        let pc_links = potentially_congested_links(network, &observations);
        if pc_links.is_empty() {
            self.structure = Some(Structure {
                pc_links,
                active_sets: Vec::new(),
                solver: SystemSolver::build(&[], 0, self.config.ridge),
                identifiable: Vec::new(),
                rank: 0,
            });
            return;
        }
        let col_of = |l: LinkId| pc_links.binary_search(&l).ok();

        // Assemble the equation rows in sparse form (sorted column lists —
        // each path set touches a handful of links).
        let mut active_sets = Vec::new();
        let mut rows: Vec<Vec<usize>> = Vec::new();
        for (i, set) in self.path_sets.iter().enumerate() {
            let cols: Vec<usize> = network
                .links_covered(set.iter())
                .into_iter()
                .filter_map(col_of)
                .collect();
            if cols.is_empty() {
                continue;
            }
            rows.push(cols);
            active_sets.push(i);
        }

        let n = pc_links.len();
        let solver = SystemSolver::build(&rows, n, self.config.ridge);
        let (identifiable, rank) = match &solver {
            SystemSolver::Dense { matrix, .. } => {
                // Start from the null space of the empty system (the
                // identity) and fold each sparse equation row in with the
                // incremental update of Algorithm 2, exactly as the paper's
                // path selection does.
                let mut basis = Matrix::identity(n);
                let mut scratch = vec![0.0; n];
                for cols in &rows {
                    for &c in cols {
                        scratch[c] = 1.0;
                    }
                    basis = nullspace_update(&basis, &scratch).into_basis();
                    for &c in cols {
                        scratch[c] = 0.0;
                    }
                }
                // Fallback when the incrementally folded basis degrades: it
                // must still annihilate the assembled matrix.
                if basis.cols() > 0 && matrix.matmul(&basis).max_abs() > 1e-6 {
                    basis = tomo_linalg::nullspace(matrix);
                    self.counts.basis_rebuilds += 1;
                }
                let identifiable: Vec<bool> = (0..n)
                    .map(|i| (0..basis.cols()).all(|j| basis[(i, j)].abs() <= 1e-7))
                    .collect();
                (identifiable, n - basis.cols())
            }
            // The batch fit's sparse route makes the same call, so both
            // report the same flags and rank; folding a dense n×n identity
            // basis here would be the cost wall the CSR path removes.
            SystemSolver::Sparse(csr) => {
                let (rank, identifiable) = csr.identifiability(DEFAULT_TOL);
                (identifiable, rank)
            }
        };

        self.structure = Some(Structure {
            pc_links,
            active_sets,
            solver,
            identifiable,
            rank,
        });
    }

    /// Recomputes the published estimate from the current structure and
    /// counters. `solved` carries the solution vector when the caller
    /// already has one; otherwise the cached solver (or a full least-squares
    /// solve) produces it.
    fn refresh_estimate(&mut self, network: &Network, solved: Option<Vector>) {
        let weight = self.effective_weight();
        let structure = self.structure.as_ref().expect("refresh needs a structure");
        let mut estimate = ProbabilityEstimate::new(self.name(), network.num_links());
        estimate.independence_fallback = true;

        // Links that are observed but not potentially congested are known
        // good (exactly as the batch algorithm reports them).
        let pc: std::collections::BTreeSet<LinkId> = structure.pc_links.iter().copied().collect();
        for l in network.link_ids() {
            if !pc.contains(&l) && !network.paths_through_link(l).is_empty() {
                estimate.set_link(l, 0.0, true);
            }
        }

        if structure.pc_links.is_empty() {
            estimate.diagnostics = EstimateDiagnostics {
                total_targets: 0,
                ..EstimateDiagnostics::default()
            };
            self.estimate = Some(estimate);
            return;
        }

        let b = self.rhs(structure, weight);
        let x = match solved {
            Some(x) => x,
            None => structure.solver.solve_cached(&b, self.config.ridge),
        };

        for (c, &l) in structure.pc_links.iter().enumerate() {
            let good = x[c].exp().clamp(0.0, 1.0);
            estimate.set_link(l, 1.0 - good, structure.identifiable[c]);
        }
        estimate.diagnostics = EstimateDiagnostics {
            num_equations: structure.solver.rows(),
            num_unknowns: structure.pc_links.len(),
            rank: structure.rank,
            identifiable_targets: structure.identifiable.iter().filter(|&&b| b).count(),
            total_targets: structure.pc_links.len(),
        };
        self.estimate = Some(estimate);
    }
}

impl Estimator for OnlineIndependence {
    fn name(&self) -> &'static str {
        "Online-Independence"
    }

    fn assumptions(&self) -> AlgorithmAssumptions {
        AlgorithmAssumptions::independence_step()
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::PROBABILITY
    }

    fn fit(&mut self, network: &Network, observations: &PathObservations) -> Result<(), TomoError> {
        self.reset();
        self.ingest(network, observations)?;
        Ok(())
    }

    fn estimate(&self) -> Option<&ProbabilityEstimate> {
        self.estimate.as_ref()
    }
}

impl OnlineEstimator for OnlineIndependence {
    fn ingest(&mut self, network: &Network, batch: &PathObservations) -> Result<Refit, TomoError> {
        if batch.num_paths() != network.num_paths() {
            return Err(TomoError::InvalidConfig(format!(
                "batch has {} paths but the network has {}",
                batch.num_paths(),
                network.num_paths()
            )));
        }
        if self.window.is_none() {
            self.window = Some(ObservationWindow::with_decay(
                network.num_paths(),
                self.capacity,
                self.decay,
            ));
            self.path_sets = baseline_path_sets(network, batch, self.config.max_pair_equations);
            self.set_all_good = vec![0.0; self.path_sets.len()];
            self.path_congested = vec![0; network.num_paths()];
        }
        if self
            .window
            .as_ref()
            .expect("window just ensured")
            .num_paths()
            != network.num_paths()
        {
            return Err(TomoError::InvalidConfig(
                "network changed shape between ingests; create a fresh estimator".into(),
            ));
        }

        // Fold the batch into the window and the counters, remembering which
        // paths were congested before so a structure change is detectable.
        let was_congested: Vec<bool> = self.path_congested.iter().map(|&c| c > 0).collect();
        for t in 0..batch.num_intervals() {
            let flags: Vec<bool> = (0..batch.num_paths())
                .map(|p| batch.is_congested(PathId(p), t))
                .collect();
            let evicted = self
                .window
                .as_mut()
                .expect("window exists")
                .push_flags(flags.clone());
            self.add_interval(&flags);
            if let Some(old) = evicted {
                self.evict_interval(&old);
            }
        }
        let now_congested: Vec<bool> = self.path_congested.iter().map(|&c| c > 0).collect();

        let structural_change = self.structure.is_none() || was_congested != now_congested;
        if structural_change {
            self.rebuild_structure(network);
            // Solve exactly as the batch algorithm does at rebuild points.
            let structure = self.structure.as_ref().expect("just rebuilt");
            let solved = if structure.pc_links.is_empty() {
                None
            } else {
                let b = self.rhs(structure, self.effective_weight());
                Some(structure.solver.solve_batch(&b, self.config.ridge))
            };
            self.refresh_estimate(network, solved);
            self.counts.full += 1;
            Ok(Refit::Full)
        } else {
            self.refresh_estimate(network, None);
            self.counts.incremental += 1;
            Ok(Refit::Incremental)
        }
    }

    fn window(&self) -> Option<&ObservationWindow> {
        self.window.as_ref()
    }

    fn refit_counts(&self) -> RefitCounts {
        self.counts
    }

    fn restore_total_ingested(&mut self, total: u64) {
        if let Some(window) = self.window.as_mut() {
            window.restore_total_ingested(total);
        }
    }

    fn congested_paths(&self) -> Option<Vec<bool>> {
        self.window
            .as_ref()
            .map(|_| self.path_congested.iter().map(|&c| c > 0).collect())
    }

    fn force_rebuild(&mut self, network: &Network) -> bool {
        match self.window.as_ref() {
            Some(w) if w.num_paths() == network.num_paths() => {}
            _ => return false,
        }
        self.rebuild_structure(network);
        let structure = self.structure.as_ref().expect("just rebuilt");
        let solved = if structure.pc_links.is_empty() {
            None
        } else {
            let b = self.rhs(structure, self.effective_weight());
            Some(structure.solver.solve_batch(&b, self.config.ridge))
        };
        self.refresh_estimate(network, solved);
        self.counts.full += 1;
        true
    }
}

// ---------------------------------------------------------------------------
// OnlineCorrelation
// ---------------------------------------------------------------------------

/// Cached state of [`OnlineCorrelation`] that only changes when the
/// potentially-congested path bitmap changes: the Algorithm-1 selection and
/// assembled system, the ridge pseudo-solver over its columns, and the
/// per-equation (weighted) all-good counters.
struct CorrStructure {
    /// Targets, selection and equation system from `tomo-prob`.
    sys: CorrelationSystem,
    /// The assembled system matrix (rows = equations, columns = subsets
    /// including auxiliaries) with its cached solver: dense + LU factors
    /// for small systems, CSR + CG for sparse ones.
    solver: SystemSolver,
    /// Per equation: (decay-weighted) count of intervals in the window where
    /// every path of the equation's path set was good.
    set_all_good: Vec<f64>,
}

/// Incremental, streaming form of the paper's Correlation-complete
/// Probability Computation algorithm.
///
/// Like [`OnlineIndependence`], it exploits that the expensive part of the
/// batch fit — target enumeration, Algorithm-1 path-set selection and the
/// equation-system assembly — depends on the observations only through
/// which paths have congested within the window. While that bitmap is
/// stable, an ingest only moves the per-equation all-good counters and
/// re-applies the cached solver ([`Refit::Incremental`]); when
/// it changes, targets and selection are rebuilt from the retained window
/// ([`Refit::Full`]). The observable contract is that the estimate always
/// equals — up to solver tolerance — a batch
/// [`tomo_prob::CorrelationComplete`] fit on the retained window (under
/// decay: the window materialized with its `λ^age` weights).
pub struct OnlineCorrelation {
    config: CorrelationCompleteConfig,
    capacity: Option<usize>,
    decay: Option<f64>,
    window: Option<ObservationWindow>,
    /// Per path: intervals in the window where the path was congested
    /// (unweighted presence counts; drives structure-change detection).
    path_congested: Vec<u64>,
    structure: Option<CorrStructure>,
    estimate: Option<ProbabilityEstimate>,
    counts: RefitCounts,
}

impl Default for OnlineCorrelation {
    fn default() -> Self {
        Self::new(CorrelationCompleteConfig::default(), None)
    }
}

impl OnlineCorrelation {
    /// Creates the estimator; `window_capacity` bounds the retained
    /// intervals (`None` keeps the full history).
    pub fn new(config: CorrelationCompleteConfig, window_capacity: Option<usize>) -> Self {
        Self::with_decay(config, window_capacity, None)
    }

    /// Creates the estimator with an exponential reweighting factor
    /// `decay ∈ (0, 1)` on top of (optional) truncation.
    pub fn with_decay(
        config: CorrelationCompleteConfig,
        window_capacity: Option<usize>,
        decay: Option<f64>,
    ) -> Self {
        Self {
            config,
            capacity: window_capacity,
            decay,
            window: None,
            path_congested: Vec::new(),
            structure: None,
            estimate: None,
            counts: RefitCounts::default(),
        }
    }

    fn lambda(&self) -> f64 {
        self.decay.unwrap_or(1.0)
    }

    /// The refit counters (also available through the trait).
    pub fn counts(&self) -> RefitCounts {
        self.counts
    }

    /// Maximum absolute deviation of the current per-link probabilities from
    /// a from-scratch batch fit on the retained window. Under decay the
    /// window materializes with its `λ^age` weights, which the batch
    /// estimator honors.
    pub fn deviation_from_batch(&self, network: &Network) -> Result<f64, TomoError> {
        let window = self.window.as_ref().ok_or_else(|| TomoError::NotFitted {
            estimator: self.name().to_string(),
        })?;
        let estimate = self.estimate.as_ref().ok_or_else(|| TomoError::NotFitted {
            estimator: self.name().to_string(),
        })?;
        use tomo_prob::ProbabilityComputation;
        let batch = CorrelationComplete::new(self.config.clone())
            .compute(network, &window.to_observations());
        let mut worst = 0.0f64;
        for l in network.link_ids() {
            let d = (batch.link_congestion_probability(l)
                - estimate.link_congestion_probability(l))
            .abs();
            worst = worst.max(d);
        }
        Ok(worst)
    }

    /// Resets all streaming state (the lifetime refit counters are kept).
    pub fn reset(&mut self) {
        self.window = None;
        self.path_congested.clear();
        self.structure = None;
        self.estimate = None;
    }

    /// Rebuilds targets, selection, system and counters from the retained
    /// window, and caches the ridge pseudo-solver for the incremental path.
    fn rebuild_structure(&mut self, network: &Network) {
        let window = self.window.as_ref().expect("rebuild needs a window");
        let observations = window.to_observations();
        let sys = CorrelationSystem::build(&self.config, network, &observations);
        // The equations already are the sparse rows (each stores only the
        // columns with coefficient 1); assemble the solver from them.
        let rows: Vec<Vec<usize>> = sys
            .system
            .equations()
            .iter()
            .map(|eq| {
                let mut cols = eq.columns.clone();
                cols.sort_unstable();
                cols.dedup();
                cols
            })
            .collect();
        let solver = SystemSolver::build(&rows, sys.system.index().len(), self.config.ridge);

        // Recompute the per-equation weighted all-good counters from the
        // retained intervals (the equation list just changed shape).
        let mut set_all_good = vec![0.0; sys.system.num_equations()];
        for i in 0..window.len() {
            let flags = window.interval(i);
            let weight = window.interval_weight(i);
            for (e, eq) in sys.system.equations().iter().enumerate() {
                if eq.path_set.iter().all(|p| !flags[p.index()]) {
                    set_all_good[e] += weight;
                }
            }
        }

        self.structure = Some(CorrStructure {
            sys,
            solver,
            set_all_good,
        });
    }

    /// Recomputes the published estimate from the cached structure and
    /// counters. `batch_solve` forces the same least-squares path the batch
    /// algorithm uses (rebuild points); otherwise the cached pseudo-solver
    /// answers.
    fn refresh_estimate(&mut self, network: &Network, batch_solve: bool) {
        let window = self.window.as_ref().expect("refresh needs a window");
        let weight = window.total_weight();
        let structure = self.structure.as_ref().expect("refresh needs a structure");
        if structure.sys.is_empty() {
            self.estimate = Some(
                structure
                    .sys
                    .estimate_from_solution(self.name(), network, &[]),
            );
            return;
        }

        // Weighted empirical right-hand sides, clamped exactly like
        // `PathSetEstimator::log_all_good_probability`.
        let t = if weight > 0.0 { weight } else { 1.0 };
        let floor = (self.config.estimator.min_virtual_observations / t).min(0.5);
        let b = Vector::from_iter(
            structure
                .set_all_good
                .iter()
                .map(|&c| (c / t).clamp(floor, 1.0).ln()),
        );

        let x = if batch_solve {
            structure.solver.solve_batch(&b, self.config.ridge)
        } else {
            structure.solver.solve_cached(&b, self.config.ridge)
        };
        let good: Vec<f64> = x
            .as_slice()
            .iter()
            .map(|&y| y.exp().clamp(0.0, 1.0))
            .collect();
        self.estimate = Some(
            structure
                .sys
                .estimate_from_solution(self.name(), network, &good),
        );
    }
}

impl Estimator for OnlineCorrelation {
    fn name(&self) -> &'static str {
        "Online-Correlation-complete"
    }

    fn assumptions(&self) -> AlgorithmAssumptions {
        AlgorithmAssumptions::correlation_complete()
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::PROBABILITY
    }

    fn fit(&mut self, network: &Network, observations: &PathObservations) -> Result<(), TomoError> {
        self.reset();
        self.ingest(network, observations)?;
        Ok(())
    }

    fn estimate(&self) -> Option<&ProbabilityEstimate> {
        self.estimate.as_ref()
    }
}

impl OnlineEstimator for OnlineCorrelation {
    fn ingest(&mut self, network: &Network, batch: &PathObservations) -> Result<Refit, TomoError> {
        if batch.num_paths() != network.num_paths() {
            return Err(TomoError::InvalidConfig(format!(
                "batch has {} paths but the network has {}",
                batch.num_paths(),
                network.num_paths()
            )));
        }
        if self.window.is_none() {
            self.window = Some(ObservationWindow::with_decay(
                network.num_paths(),
                self.capacity,
                self.decay,
            ));
            self.path_congested = vec![0; network.num_paths()];
        }
        if self
            .window
            .as_ref()
            .expect("window just ensured")
            .num_paths()
            != network.num_paths()
        {
            return Err(TomoError::InvalidConfig(
                "network changed shape between ingests; create a fresh estimator".into(),
            ));
        }

        let was_congested: Vec<bool> = self.path_congested.iter().map(|&c| c > 0).collect();
        let lambda = self.lambda();
        for t in 0..batch.num_intervals() {
            let flags: Vec<bool> = (0..batch.num_paths())
                .map(|p| batch.is_congested(PathId(p), t))
                .collect();
            let evicted = self
                .window
                .as_mut()
                .expect("window exists")
                .push_flags(flags.clone());
            // Fold the interval into the per-equation counters (when a
            // structure is cached — a rebuild recomputes them anyway).
            if let Some(structure) = self.structure.as_mut() {
                if lambda < 1.0 {
                    for c in &mut structure.set_all_good {
                        *c *= lambda;
                    }
                }
                for (e, eq) in structure.sys.system.equations().iter().enumerate() {
                    if eq.path_set.iter().all(|p| !flags[p.index()]) {
                        structure.set_all_good[e] += 1.0;
                    }
                }
            }
            for (p, &congested) in flags.iter().enumerate() {
                if congested {
                    self.path_congested[p] += 1;
                }
            }
            if let Some(old) = evicted {
                let capacity = self
                    .window
                    .as_ref()
                    .and_then(|w| w.capacity())
                    .expect("evictions only happen on bounded windows");
                let weight = lambda.powi(capacity as i32);
                if let Some(structure) = self.structure.as_mut() {
                    for (e, eq) in structure.sys.system.equations().iter().enumerate() {
                        if eq.path_set.iter().all(|p| !old[p.index()]) {
                            structure.set_all_good[e] =
                                (structure.set_all_good[e] - weight).max(0.0);
                        }
                    }
                }
                for (p, &congested) in old.iter().enumerate() {
                    if congested {
                        self.path_congested[p] -= 1;
                    }
                }
            }
        }
        let now_congested: Vec<bool> = self.path_congested.iter().map(|&c| c > 0).collect();

        let structural_change = self.structure.is_none() || was_congested != now_congested;
        if structural_change {
            self.rebuild_structure(network);
            self.refresh_estimate(network, true);
            self.counts.full += 1;
            Ok(Refit::Full)
        } else {
            self.refresh_estimate(network, false);
            self.counts.incremental += 1;
            Ok(Refit::Incremental)
        }
    }

    fn window(&self) -> Option<&ObservationWindow> {
        self.window.as_ref()
    }

    fn refit_counts(&self) -> RefitCounts {
        self.counts
    }

    fn restore_total_ingested(&mut self, total: u64) {
        if let Some(window) = self.window.as_mut() {
            window.restore_total_ingested(total);
        }
    }

    fn congested_paths(&self) -> Option<Vec<bool>> {
        self.window
            .as_ref()
            .map(|_| self.path_congested.iter().map(|&c| c > 0).collect())
    }

    fn force_rebuild(&mut self, network: &Network) -> bool {
        match self.window.as_ref() {
            Some(w) if w.num_paths() == network.num_paths() => {}
            _ => return false,
        }
        self.rebuild_structure(network);
        self.refresh_estimate(network, true);
        self.counts.full += 1;
        true
    }
}

// ---------------------------------------------------------------------------
// BufferedOnline
// ---------------------------------------------------------------------------

/// Gives any registry estimator an online form by buffering a rolling
/// window and re-running the batch fit on every ingest.
///
/// With a decay factor the materialized window carries `λ^age` interval
/// weights, so every estimator that consumes empirical frequencies (the
/// Bayesian and heuristic estimators included) tracks drifting loss rates
/// instead of averaging them away.
pub struct BufferedOnline {
    inner: Box<dyn Estimator + Send>,
    capacity: Option<usize>,
    decay: Option<f64>,
    window: Option<ObservationWindow>,
    counts: RefitCounts,
}

impl BufferedOnline {
    /// Wraps a batch estimator; `window_capacity` bounds the buffered
    /// intervals (`None` keeps everything).
    pub fn new(inner: Box<dyn Estimator + Send>, window_capacity: Option<usize>) -> Self {
        Self::with_decay(inner, window_capacity, None)
    }

    /// Wraps a batch estimator with an exponential reweighting factor
    /// `decay ∈ (0, 1)` on top of (optional) truncation.
    pub fn with_decay(
        inner: Box<dyn Estimator + Send>,
        window_capacity: Option<usize>,
        decay: Option<f64>,
    ) -> Self {
        Self {
            inner,
            capacity: window_capacity,
            decay,
            window: None,
            counts: RefitCounts::default(),
        }
    }
}

impl Estimator for BufferedOnline {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn assumptions(&self) -> AlgorithmAssumptions {
        self.inner.assumptions()
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn fit(&mut self, network: &Network, observations: &PathObservations) -> Result<(), TomoError> {
        self.window = None;
        self.ingest(network, observations)?;
        Ok(())
    }

    fn estimate(&self) -> Option<&ProbabilityEstimate> {
        self.inner.estimate()
    }

    fn infer_interval(
        &self,
        network: &Network,
        congested_paths: &[PathId],
    ) -> Result<Vec<LinkId>, TomoError> {
        self.inner.infer_interval(network, congested_paths)
    }
}

impl OnlineEstimator for BufferedOnline {
    fn ingest(&mut self, network: &Network, batch: &PathObservations) -> Result<Refit, TomoError> {
        if batch.num_paths() != network.num_paths() {
            return Err(TomoError::InvalidConfig(format!(
                "batch has {} paths but the network has {}",
                batch.num_paths(),
                network.num_paths()
            )));
        }
        let window = self.window.get_or_insert_with(|| {
            ObservationWindow::with_decay(network.num_paths(), self.capacity, self.decay)
        });
        for t in 0..batch.num_intervals() {
            let flags: Vec<bool> = (0..batch.num_paths())
                .map(|p| batch.is_congested(PathId(p), t))
                .collect();
            window.push_flags(flags);
        }
        let observations = window.to_observations();
        self.inner.fit(network, &observations)?;
        self.counts.full += 1;
        Ok(Refit::Full)
    }

    fn window(&self) -> Option<&ObservationWindow> {
        self.window.as_ref()
    }

    fn refit_counts(&self) -> RefitCounts {
        self.counts
    }

    fn restore_total_ingested(&mut self, total: u64) {
        if let Some(window) = self.window.as_mut() {
            window.restore_total_ingested(total);
        }
    }

    fn force_rebuild(&mut self, network: &Network) -> bool {
        let observations = match self.window.as_ref() {
            Some(w) if w.num_paths() == network.num_paths() => w.to_observations(),
            _ => return false,
        };
        if self.inner.fit(network, &observations).is_err() {
            return false;
        }
        self.counts.full += 1;
        true
    }
}

/// Constructs an online estimator by registry name.
///
/// `independence` resolves to the incremental [`OnlineIndependence`] and
/// `correlation-complete` to the incremental [`OnlineCorrelation`]; every
/// other registry name is wrapped in [`BufferedOnline`] (correct, but each
/// ingest is a full refit).
///
/// `decay` enables exponential reweighting (`λ ∈ (0, 1)`). The incremental
/// estimators maintain the reweighted counters directly; buffered
/// estimators re-fit from the window, which under decay materializes with
/// `λ^age` interval weights that every frequency-consuming batch algorithm
/// (Bayesian, heuristic, …) honors.
pub fn online_by_name(
    name: &str,
    options: &EstimatorOptions,
    window_capacity: Option<usize>,
    decay: Option<f64>,
) -> Result<Box<dyn OnlineEstimator + Send>, TomoError> {
    if let Some(lambda) = decay {
        if !(lambda > 0.0 && lambda < 1.0) {
            return Err(TomoError::InvalidConfig(format!(
                "decay must lie in (0, 1), got {lambda}"
            )));
        }
    }
    let canonical = crate::registry::canonical(name);
    if canonical == "independence" || canonical == "online-independence" {
        return Ok(Box::new(OnlineIndependence::with_decay(
            IndependenceConfig::default(),
            window_capacity,
            decay,
        )));
    }
    if canonical == "correlation-complete" || canonical == "online-correlation-complete" {
        return Ok(Box::new(OnlineCorrelation::with_decay(
            options.correlation_complete_config(),
            window_capacity,
            decay,
        )));
    }
    let inner = crate::registry::with_options(name, options)?;
    Ok(Box::new(BufferedOnline::with_decay(
        inner,
        window_capacity,
        decay,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tomo_graph::toy;
    use tomo_prob::{Independence, ProbabilityComputation};

    /// Splits observations into consecutive batches of `chunk` intervals.
    fn batches(obs: &PathObservations, chunk: usize) -> Vec<PathObservations> {
        let mut out = Vec::new();
        let mut t = 0;
        while t < obs.num_intervals() {
            let len = chunk.min(obs.num_intervals() - t);
            let mut b = PathObservations::new(obs.num_paths(), len);
            for dt in 0..len {
                for p in 0..obs.num_paths() {
                    b.set_congested(PathId(p), dt, obs.is_congested(PathId(p), t + dt));
                }
            }
            out.push(b);
            t += len;
        }
        out
    }

    /// Deterministic observations on the Fig. 1 toy topology: e1 congested
    /// 20% of the time, e3 25% on a disjoint schedule.
    fn toy_observations(t: usize) -> PathObservations {
        let mut obs = PathObservations::new(3, t);
        for ti in 0..t {
            let e1_bad = ti % 5 == 0;
            let e3_bad = ti % 4 == 1;
            obs.set_congested(PathId(0), ti, e1_bad);
            obs.set_congested(PathId(1), ti, e1_bad || e3_bad);
            obs.set_congested(PathId(2), ti, e3_bad);
        }
        obs
    }

    #[test]
    fn incremental_ingest_matches_batch_fit() {
        let net = toy::fig1_case1();
        let obs = toy_observations(200);
        let mut online = OnlineIndependence::default();
        for batch in batches(&obs, 7) {
            online.ingest(&net, &batch).unwrap();
        }
        let batch_est = Independence::default().compute(&net, &obs);
        let online_est = online.estimate().expect("fitted");
        for l in net.link_ids() {
            let (a, b) = (
                batch_est.link_congestion_probability(l),
                online_est.link_congestion_probability(l),
            );
            assert!((a - b).abs() < 1e-5, "link {l}: batch {a} vs online {b}");
            assert_eq!(
                batch_est.link_is_identifiable(l),
                online_est.link_is_identifiable(l),
                "identifiability of {l}"
            );
        }
        assert!(online.deviation_from_batch(&net).unwrap() < 1e-5);
    }

    #[test]
    fn sparse_scale_identifiability_matches_batch_fit() {
        use tomo_sim::{LossModel, MeasurementMode, ScenarioConfig, SimulationConfig, Simulator};
        use tomo_topology::BriteGenerator;

        let net = BriteGenerator::sized(300, 1)
            .generate()
            .expect("Brite generation");
        let config = SimulationConfig {
            num_intervals: 120,
            scenario: ScenarioConfig::no_independence(),
            loss: LossModel::default(),
            measurement: MeasurementMode::Ideal,
            seed: 5,
        };
        let obs = Simulator::new(config).run(&net).observations;
        let mut online = OnlineIndependence::default();
        for batch in batches(&obs, 40) {
            online.ingest(&net, &batch).unwrap();
        }
        let structure = online.structure.as_ref().expect("fitted");
        assert!(
            matches!(structure.solver, SystemSolver::Sparse(_)),
            "instance must take the sparse dispatch"
        );

        let batch_est = Independence::default().compute(&net, &obs);
        let online_est = online.estimate().expect("fitted");
        for l in net.link_ids() {
            assert_eq!(
                batch_est.link_is_identifiable(l),
                online_est.link_is_identifiable(l),
                "identifiability of {l}"
            );
        }
        assert_eq!(batch_est.diagnostics.rank, online_est.diagnostics.rank);
        assert_eq!(
            batch_est.diagnostics.identifiable_targets,
            online_est.diagnostics.identifiable_targets
        );
        assert!(
            online_est.diagnostics.identifiable_targets < online_est.diagnostics.total_targets,
            "no unidentifiable link: {:?}",
            online_est.diagnostics
        );
    }

    #[test]
    fn steady_state_ingests_are_incremental() {
        let net = toy::fig1_case1();
        let obs = toy_observations(300);
        let mut online = OnlineIndependence::default();
        let mut refits = Vec::new();
        for batch in batches(&obs, 20) {
            refits.push(online.ingest(&net, &batch).unwrap());
        }
        // Every path (and hence the pc set) has shown congestion within the
        // first batch, so everything after it rides the incremental path.
        assert_eq!(refits[0], Refit::Full);
        assert!(
            refits[1..].iter().all(|r| *r == Refit::Incremental),
            "{refits:?}"
        );
        let counts = online.refit_counts();
        assert_eq!(counts.full, 1);
        assert_eq!(counts.incremental, refits.len() as u64 - 1);
        assert_eq!(online.intervals_ingested(), 300);
    }

    #[test]
    fn first_congestion_of_a_path_forces_a_full_refit() {
        let net = toy::fig1_case1();
        let mut online = OnlineIndependence::default();
        // First batch: only p1 (= e1/e2) congested.
        let mut b1 = PathObservations::new(3, 10);
        b1.set_congested(PathId(0), 2, true);
        assert_eq!(online.ingest(&net, &b1).unwrap(), Refit::Full);
        // Second batch: same structure -> incremental.
        assert_eq!(online.ingest(&net, &b1).unwrap(), Refit::Incremental);
        // Third batch: p3 congests for the first time -> structure changes.
        let mut b3 = PathObservations::new(3, 10);
        b3.set_congested(PathId(2), 0, true);
        assert_eq!(online.ingest(&net, &b3).unwrap(), Refit::Full);
        assert!(online.deviation_from_batch(&net).unwrap() < 1e-5);
    }

    #[test]
    fn bounded_window_tracks_the_batch_fit_on_retained_intervals() {
        let net = toy::fig1_case1();
        let obs = toy_observations(240);
        let mut online = OnlineIndependence::new(IndependenceConfig::default(), Some(60));
        for batch in batches(&obs, 12) {
            online.ingest(&net, &batch).unwrap();
        }
        assert_eq!(online.window().unwrap().len(), 60);
        assert!(online.window().unwrap().evicted() > 0);
        assert!(online.deviation_from_batch(&net).unwrap() < 1e-5);
    }

    #[test]
    fn all_good_stream_reports_known_good_links() {
        let net = toy::fig1_case1();
        let mut online = OnlineIndependence::default();
        let refit = online.ingest(&net, &PathObservations::new(3, 25)).unwrap();
        assert_eq!(refit, Refit::Full);
        let est = online.estimate().unwrap();
        for l in net.link_ids() {
            assert_eq!(est.link_congestion_probability(l), 0.0);
            assert!(est.link_is_identifiable(l));
        }
    }

    #[test]
    fn fit_resets_and_matches_a_single_ingest() {
        let net = toy::fig1_case1();
        let obs = toy_observations(100);
        let mut online = OnlineIndependence::default();
        // Pollute with unrelated data first; fit must discard it.
        online.ingest(&net, &toy_observations(33)).unwrap();
        online.fit(&net, &obs).unwrap();
        assert_eq!(online.window().unwrap().len(), 100);
        assert!(online.deviation_from_batch(&net).unwrap() < 1e-5);
    }

    #[test]
    fn mismatched_batch_shape_is_rejected() {
        let net = toy::fig1_case1();
        let mut online = OnlineIndependence::default();
        let err = online
            .ingest(&net, &PathObservations::new(5, 4))
            .unwrap_err();
        assert!(matches!(err, TomoError::InvalidConfig(_)));
    }

    #[test]
    fn buffered_online_wraps_any_registry_estimator() {
        let net = toy::fig1_case1();
        let obs = toy_observations(80);
        let mut online = online_by_name(
            "bayesian-correlation",
            &EstimatorOptions::default(),
            None,
            None,
        )
        .unwrap();
        for batch in batches(&obs, 40) {
            assert_eq!(online.ingest(&net, &batch).unwrap(), Refit::Full);
        }
        assert_eq!(online.intervals_ingested(), 80);
        let est = online.estimate().expect("probability capability");
        // Must equal the straight batch fit on the concatenation.
        let mut batch_est = crate::registry::by_name("bayesian-correlation").unwrap();
        batch_est.fit(&net, &obs).unwrap();
        let batch_est = batch_est.estimate().unwrap();
        for l in net.link_ids() {
            assert!(
                (est.link_congestion_probability(l) - batch_est.link_congestion_probability(l))
                    .abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn online_registry_resolves_the_incremental_paths() {
        let online = online_by_name("independence", &EstimatorOptions::default(), Some(50), None);
        assert_eq!(online.unwrap().name(), "Online-Independence");
        let online = online_by_name(
            "correlation-complete",
            &EstimatorOptions::default(),
            None,
            None,
        );
        assert_eq!(online.unwrap().name(), "Online-Correlation-complete");
        assert!(online_by_name("no-such", &EstimatorOptions::default(), None, None).is_err());
        // Buffered estimators accept decay (the window materializes with
        // λ^age weights); factors outside (0, 1) are rejected for everyone.
        assert!(online_by_name("sparsity", &EstimatorOptions::default(), None, Some(0.9)).is_ok());
        assert!(online_by_name(
            "bayesian-independence",
            &EstimatorOptions::default(),
            None,
            Some(1.5)
        )
        .is_err());
        assert!(online_by_name(
            "independence",
            &EstimatorOptions::default(),
            None,
            Some(1.5)
        )
        .is_err());
        assert!(online_by_name(
            "independence",
            &EstimatorOptions::default(),
            None,
            Some(0.9)
        )
        .is_ok());
    }

    // -- OnlineCorrelation ---------------------------------------------------

    /// Observations exercising correlated links on the Fig. 1 topology:
    /// e1 congested 20% of the time, {e2,e3} perfectly correlated at 40%.
    fn correlated_observations(t: usize) -> PathObservations {
        let mut obs = PathObservations::new(3, t);
        for ti in 0..t {
            let e1_bad = ti % 25 < 5;
            let e23_bad = ti % 5 < 2;
            obs.set_congested(PathId(0), ti, e1_bad || e23_bad);
            obs.set_congested(PathId(1), ti, e1_bad || e23_bad);
            obs.set_congested(PathId(2), ti, e23_bad);
        }
        obs
    }

    #[test]
    fn online_correlation_matches_batch_fit() {
        use tomo_prob::ProbabilityComputation;
        let net = toy::fig1_case1();
        let obs = correlated_observations(200);
        let mut online = OnlineCorrelation::default();
        for batch in batches(&obs, 7) {
            online.ingest(&net, &batch).unwrap();
        }
        let batch_est = CorrelationComplete::default().compute(&net, &obs);
        let online_est = online.estimate().expect("fitted");
        for l in net.link_ids() {
            let (a, b) = (
                batch_est.link_congestion_probability(l),
                online_est.link_congestion_probability(l),
            );
            assert!((a - b).abs() < 1e-5, "link {l}: batch {a} vs online {b}");
            assert_eq!(
                batch_est.link_is_identifiable(l),
                online_est.link_is_identifiable(l),
                "identifiability of {l}"
            );
        }
        // Subset (pair) probabilities survive the incremental path too.
        for (subset, good) in batch_est.estimated_subsets() {
            let links: Vec<_> = subset.iter().copied().collect();
            let online_joint = online_est.subset_good_probability(&links);
            assert!(
                online_joint.is_some(),
                "subset {subset:?} missing from online estimate"
            );
            assert!((online_joint.unwrap() - good).abs() < 1e-5, "{subset:?}");
        }
        assert!(online.deviation_from_batch(&net).unwrap() < 1e-5);
    }

    #[test]
    fn online_correlation_steady_state_is_incremental() {
        let net = toy::fig1_case1();
        let obs = correlated_observations(300);
        let mut online = OnlineCorrelation::default();
        let mut refits = Vec::new();
        for batch in batches(&obs, 25) {
            refits.push(online.ingest(&net, &batch).unwrap());
        }
        assert_eq!(refits[0], Refit::Full);
        assert!(
            refits[1..].iter().all(|r| *r == Refit::Incremental),
            "{refits:?}"
        );
        let counts = online.refit_counts();
        assert_eq!(counts.full, 1);
        assert_eq!(counts.incremental, refits.len() as u64 - 1);
        assert_eq!(online.intervals_ingested(), 300);
        assert!(online.deviation_from_batch(&net).unwrap() < 1e-5);
    }

    #[test]
    fn online_correlation_bounded_window_tracks_batch() {
        let net = toy::fig1_case1();
        let obs = correlated_observations(240);
        let mut online = OnlineCorrelation::new(CorrelationCompleteConfig::default(), Some(75));
        for batch in batches(&obs, 12) {
            online.ingest(&net, &batch).unwrap();
        }
        assert_eq!(online.window().unwrap().len(), 75);
        assert!(online.window().unwrap().evicted() > 0);
        assert!(online.deviation_from_batch(&net).unwrap() < 1e-5);
    }

    #[test]
    fn online_correlation_structure_change_forces_full_refit() {
        let net = toy::fig1_case1();
        let mut online = OnlineCorrelation::default();
        let mut b1 = PathObservations::new(3, 10);
        b1.set_congested(PathId(0), 2, true);
        assert_eq!(online.ingest(&net, &b1).unwrap(), Refit::Full);
        assert_eq!(online.ingest(&net, &b1).unwrap(), Refit::Incremental);
        let mut b3 = PathObservations::new(3, 10);
        b3.set_congested(PathId(2), 0, true);
        assert_eq!(online.ingest(&net, &b3).unwrap(), Refit::Full);
        assert!(online.deviation_from_batch(&net).unwrap() < 1e-5);
    }

    // -- Decay ---------------------------------------------------------------

    /// A drifting stream: `path` congested at `before` rate for the first
    /// `t_drift` intervals, then at `after` rate.
    fn drifting_flags(t: usize, t_drift: usize, before: usize, after: usize) -> PathObservations {
        let mut obs = PathObservations::new(3, t);
        for ti in 0..t {
            let period = if ti < t_drift { before } else { after };
            let bad = ti % period == 0;
            obs.set_congested(PathId(0), ti, bad);
            obs.set_congested(PathId(1), ti, bad || ti % 4 == 1);
            obs.set_congested(PathId(2), ti, ti % 4 == 1);
        }
        obs
    }

    #[test]
    fn decayed_window_tracks_drift_faster_than_truncation() {
        let net = toy::fig1_case1();
        // e1's congestion rate jumps from 10% to 50% at t = 300; both
        // estimators then see 60 post-drift intervals.
        let obs = drifting_flags(360, 300, 10, 2);
        let mut truncating = OnlineIndependence::new(IndependenceConfig::default(), Some(200));
        let mut decayed =
            OnlineIndependence::with_decay(IndependenceConfig::default(), Some(200), Some(0.95));
        for batch in batches(&obs, 20) {
            truncating.ingest(&net, &batch).unwrap();
            decayed.ingest(&net, &batch).unwrap();
        }
        let post_drift_rate = 0.5;
        let e1 = tomo_graph::toy::E1;
        let trunc_err = (truncating
            .estimate()
            .unwrap()
            .link_congestion_probability(e1)
            - post_drift_rate)
            .abs();
        let decay_err =
            (decayed.estimate().unwrap().link_congestion_probability(e1) - post_drift_rate).abs();
        // The truncating window still averages 140 pre-drift intervals into
        // the rate; the decayed window has all but forgotten them.
        assert!(
            decay_err < trunc_err,
            "decayed {decay_err} should beat truncating {trunc_err}"
        );
        assert!(decay_err < 0.1, "decayed error too large: {decay_err}");
        // The incremental decayed estimate still matches a batch fit on the
        // weighted window (the window materializes its λ^age weights).
        assert!(decayed.deviation_from_batch(&net).unwrap() < 1e-5);
    }

    #[test]
    fn decayed_bayesian_fit_tracks_drift_faster_than_truncation() {
        // The --decay knob must reach the buffered (Bayesian/heuristic)
        // estimators through the weighted observation window: after e1's
        // congestion rate jumps from 10% to 50%, the decayed Bayesian fit
        // must sit closer to the post-drift rate than the truncating one.
        let net = toy::fig1_case1();
        let obs = drifting_flags(360, 300, 10, 2);
        let mut truncating = online_by_name(
            "bayesian-independence",
            &EstimatorOptions::default(),
            Some(200),
            None,
        )
        .unwrap();
        let mut decayed = online_by_name(
            "bayesian-independence",
            &EstimatorOptions::default(),
            Some(200),
            Some(0.95),
        )
        .unwrap();
        for batch in batches(&obs, 20) {
            truncating.ingest(&net, &batch).unwrap();
            decayed.ingest(&net, &batch).unwrap();
        }
        let post_drift_rate = 0.5;
        let e1 = tomo_graph::toy::E1;
        let trunc_err = (truncating
            .estimate()
            .expect("bayesian fits probabilities")
            .link_congestion_probability(e1)
            - post_drift_rate)
            .abs();
        let decay_err = (decayed
            .estimate()
            .expect("bayesian fits probabilities")
            .link_congestion_probability(e1)
            - post_drift_rate)
            .abs();
        assert!(
            decay_err < trunc_err,
            "decayed bayesian {decay_err} should beat truncating {trunc_err}"
        );
        assert!(
            decay_err < 0.1,
            "decayed bayesian error too large: {decay_err}"
        );
    }

    #[test]
    fn decay_without_drift_agrees_with_the_stationary_rate() {
        let net = toy::fig1_case1();
        let obs = toy_observations(400);
        let mut decayed =
            OnlineIndependence::with_decay(IndependenceConfig::default(), None, Some(0.99));
        for batch in batches(&obs, 20) {
            decayed.ingest(&net, &batch).unwrap();
        }
        // Stationary stream: the reweighted estimate still recovers the true
        // rate (e1 congested 20% of intervals), just with a shorter memory.
        let p = decayed
            .estimate()
            .unwrap()
            .link_congestion_probability(tomo_graph::toy::E1);
        assert!((p - 0.2).abs() < 0.1, "{p}");
    }
}
