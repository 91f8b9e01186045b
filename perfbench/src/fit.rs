//! The `fit-cc` and `fit-indep` workloads: registry fits at paper scale.
//!
//! A round fits every instance of the workload once through the string-keyed
//! registry (`tomo_core::estimators`), exactly as a user of the library
//! would. The traced run repeats the round phase by phase through the
//! public functions the registry estimator calls internally, with one span
//! per phase, and checks that the phased estimate equals the registry's bit
//! for bit.
//!
//! Set-up and rounds are timed in the process's CPU time, not by wall
//! clock: the fits run on the calling thread alone, and CPU time leaves out
//! the hypervisor's steal, which on a shared host adds bursts of tens of
//! milliseconds to a round. A fit that ran on several threads would be
//! charged their summed CPU time, not its latency.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use tomo_core::{estimators, score, Estimator, TomoError};
use tomo_graph::{LinkId, Network};
use tomo_linalg::{
    least_squares, should_use_sparse, sparse_least_squares, LstsqOptions, LstsqSolution, Matrix,
    SparseMatrix, Vector,
};
use tomo_prob::result::EstimateDiagnostics;
use tomo_prob::subsets::potentially_congested_links;
use tomo_prob::{
    baseline_path_sets, potentially_congested_subsets, select_path_sets, CorrelationCompleteConfig,
    CorrelationSystem, EquationSystem, IndependenceConfig, PathSetEstimator, ProbabilityEstimate,
};
use tomo_sim::{ScenarioConfig, SimulationOutput};
use tomo_topology::{BriteConfig, BriteGenerator};

use crate::calib::HostSpeed;
use crate::inputs::{derive_seed, simulate};
use crate::report::{LayerMetrics, Report};
use crate::stats::{median, process_cpu_ms, rss_peak_mb};
use crate::trace::Tracer;

/// Measurement intervals per fit (the paper's Fig. 4 uses a few hundred).
const INTERVALS: usize = 300;
/// Seed of the fixed Brite instances (1068 + 2114 links for `fit-cc`, 5411
/// links and 8250 paths for `fit-indep`).
const TOPOLOGY_SEED: u64 = 1;
/// Seed of the fixed placement of congestible links.
const PLACEMENT_SEED: u64 = 1;
/// Congestion processes drawn per instance; round `r` fits process
/// `r % STREAMS`, so accuracy is averaged over several draws.
const STREAMS: usize = 6;
/// Times the whole set-up runs; `setup_s` is the median.
const SETUPS: usize = 3;

/// Which registry estimator the workload fits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `fit-cc`: Correlation-complete (Algorithm 1 + solve).
    CorrelationComplete,
    /// `fit-indep`: Independence (baseline path sets + solve with
    /// identifiability).
    Independence,
}

impl Kind {
    fn registry_name(self) -> &'static str {
        match self {
            Kind::CorrelationComplete => "correlation-complete",
            Kind::Independence => "independence",
        }
    }

    fn generators(self) -> Vec<BriteGenerator> {
        match self {
            Kind::CorrelationComplete => vec![
                BriteGenerator::sized(1000, TOPOLOGY_SEED),
                BriteGenerator::sized(2000, TOPOLOGY_SEED),
            ],
            Kind::Independence => vec![BriteGenerator::new(BriteConfig::large(TOPOLOGY_SEED))],
        }
    }
}

/// Per congestion process, the registry estimates of its first fit (the
/// reference every later fit of that process must reproduce).
type References = Vec<Option<Vec<ProbabilityEstimate>>>;

/// An assembled Independence system: rows (column lists), columns, and
/// right-hand side.
type Rows = (Vec<Vec<usize>>, usize, Vector);

struct Instance {
    network: Network,
    streams: Vec<SimulationOutput>,
}

/// Generates the instances and their congestion processes, then runs one
/// registry round on the first process as warm-up. Its estimates are the
/// reference later fits of that process must reproduce.
fn setup(
    kind: Kind,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(Vec<Instance>, References), TomoError> {
    let scenario = ScenarioConfig::no_independence();
    let mut instances = Vec::new();
    for (i, generator) in kind.generators().into_iter().enumerate() {
        let network = tracer.span("topology.generate", 0, |_| generator.generate())?;
        let streams = (0..STREAMS)
            .map(|k| {
                let process = derive_seed(seed, (i * STREAMS + k) as u64);
                tracer.span("sim.simulate", 0, |_| {
                    simulate(&network, &scenario, INTERVALS, PLACEMENT_SEED, process)
                })
            })
            .collect();
        instances.push(Instance { network, streams });
    }
    let warm = estimates_of(&registry_round(kind, &instances, 0)?);
    let mut reference = vec![None; STREAMS];
    reference[0] = Some(warm);
    Ok((instances, reference))
}

fn estimates_of(fitted: &[Box<dyn Estimator + Send>]) -> Vec<ProbabilityEstimate> {
    fitted
        .iter()
        .map(|e| e.estimate().cloned().expect("checked in registry_round"))
        .collect()
}

/// One round through the registry: fit every instance on process `k`.
fn registry_round(
    kind: Kind,
    instances: &[Instance],
    k: usize,
) -> Result<Vec<Box<dyn Estimator + Send>>, TomoError> {
    instances
        .iter()
        .map(|inst| {
            let mut est = estimators::by_name(kind.registry_name())?;
            est.fit(&inst.network, &inst.streams[k].observations)?;
            if est.estimate().is_none() {
                return Err(TomoError::NotFitted {
                    estimator: est.name().to_string(),
                });
            }
            Ok(est)
        })
        .collect()
}

/// Counts the phased run reports per round.
#[derive(Default, Clone, Copy)]
struct PhaseCounts {
    path_sets: usize,
    targets: usize,
    final_nullity: usize,
    nnz: usize,
    rows: usize,
    cols: usize,
}

fn solve_rows(
    a_rows: &[Vec<usize>],
    cols: usize,
    b: &Vector,
    opts: &LstsqOptions,
) -> LstsqSolution {
    let nnz: usize = a_rows.iter().map(Vec::len).sum();
    if should_use_sparse(a_rows.len(), cols, nnz) {
        let mut a = SparseMatrix::with_cols(cols);
        for row in a_rows {
            a.push_binary_row(row);
        }
        sparse_least_squares(&a, b, opts)
    } else {
        let mut a = Matrix::zeros(a_rows.len(), cols);
        for (r, row) in a_rows.iter().enumerate() {
            for &c in row {
                a[(r, c)] = 1.0;
            }
        }
        least_squares(&a, b, opts)
    }
}

/// `CorrelationComplete::compute`, phase by phase.
fn phased_cc(
    tracer: &mut Tracer,
    req: u64,
    network: &Network,
    output: &SimulationOutput,
    counts: &mut PhaseCounts,
) -> ProbabilityEstimate {
    let cfg = CorrelationCompleteConfig::default();
    let obs = &output.observations;
    let (pc_links, targets) = tracer.span("prob.targets", req, |_| {
        let pc: BTreeSet<LinkId> = potentially_congested_links(network, obs)
            .into_iter()
            .collect();
        (
            pc,
            potentially_congested_subsets(network, obs, cfg.max_subset_size),
        )
    });
    if targets.is_empty() {
        let sys = CorrelationSystem {
            pc_links,
            targets,
            selection: tomo_prob::PathSelectionOutcome {
                path_sets: Vec::new(),
                initial_count: 0,
                augmented_count: 0,
                final_nullity: 0,
                identifiable: Vec::new(),
            },
            system: EquationSystem::new(Vec::new()),
        };
        return sys.estimate_from_solution("Correlation-complete", network, &[]);
    }
    let selection = tracer.span("prob.alg1", req, |_| {
        select_path_sets(network, obs, &targets, &pc_links, &cfg.selection)
    });
    let (system, rows, b) = tracer.span("prob.assemble", req, |_| {
        let estimator = PathSetEstimator::new(obs, cfg.estimator.clone());
        let mut system = EquationSystem::new(targets.clone());
        for ps in &selection.path_sets {
            system.add_path_set(network, &estimator, &pc_links, ps);
        }
        // The CSR rows `EquationSystem::sparse_matrix` builds.
        let rows: Vec<Vec<usize>> = system
            .equations()
            .iter()
            .map(|eq| {
                let mut cols = eq.columns.clone();
                cols.sort_unstable();
                cols.dedup();
                cols
            })
            .collect();
        let b = system.rhs();
        (system, rows, b)
    });
    let opts = LstsqOptions {
        ridge: cfg.ridge,
        compute_identifiability: false,
        ..LstsqOptions::default()
    };
    let cols = system.index().len();
    let good = tracer.span("linalg.solve", req, |_| {
        let sol = if system.prefers_sparse() {
            solve_rows(&rows, cols, &b, &opts)
        } else {
            least_squares(&system.matrix(), &b, &opts)
        };
        sol.x
            .as_slice()
            .iter()
            .map(|&y| y.exp().clamp(0.0, 1.0))
            .collect::<Vec<f64>>()
    });
    counts.path_sets += selection.path_sets.len();
    counts.targets += targets.len();
    counts.final_nullity += selection.final_nullity;
    counts.nnz += system.nnz();
    counts.rows += system.num_equations();
    counts.cols += cols;
    tracer.span("prob.estimate", req, |_| {
        let sys = CorrelationSystem {
            pc_links,
            targets,
            selection,
            system,
        };
        sys.estimate_from_solution("Correlation-complete", network, &good)
    })
}

/// `Independence::compute`, phase by phase. Also returns the assembled
/// rows, so the caller can time the same solve with identifiability off
/// outside the round's span.
fn phased_indep(
    tracer: &mut Tracer,
    req: u64,
    network: &Network,
    output: &SimulationOutput,
    counts: &mut PhaseCounts,
) -> (ProbabilityEstimate, Option<Rows>) {
    let cfg = IndependenceConfig::default();
    let obs = &output.observations;
    let mut estimate = ProbabilityEstimate::new("Independence", network.num_links());
    estimate.independence_fallback = true;
    let pc_links = tracer.span("prob.targets", req, |_| {
        potentially_congested_links(network, obs)
    });
    let pc_set: BTreeSet<LinkId> = pc_links.iter().copied().collect();
    for l in network.link_ids() {
        if !pc_set.contains(&l) && !network.paths_through_link(l).is_empty() {
            estimate.set_link(l, 0.0, true);
        }
    }
    if pc_links.is_empty() {
        estimate.diagnostics.total_targets = 0;
        return (estimate, None);
    }
    let (rows, b) = tracer.span("prob.assemble", req, |_| {
        let estimator = PathSetEstimator::new(obs, cfg.estimator.clone());
        let col_of = |l: LinkId| pc_links.binary_search(&l).ok();
        let mut rows: Vec<Vec<usize>> = Vec::new();
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
            rows.push(cols);
            rhs.push(estimator.log_all_good_probability(&ps));
        }
        (rows, Vector::from_vec(rhs))
    });
    let opts = LstsqOptions {
        ridge: cfg.ridge,
        compute_identifiability: cfg.compute_identifiability,
        ..LstsqOptions::default()
    };
    let sol = tracer.span("linalg.solve", req, |_| {
        solve_rows(&rows, pc_links.len(), &b, &opts)
    });
    counts.targets += pc_links.len();
    counts.nnz += rows.iter().map(Vec::len).sum::<usize>();
    counts.rows += rows.len();
    counts.cols += pc_links.len();
    tracer.span("prob.estimate", req, |_| {
        for (c, &l) in pc_links.iter().enumerate() {
            let good = sol.x[c].exp().clamp(0.0, 1.0);
            let identifiable = if cfg.compute_identifiability {
                sol.identifiable[c]
            } else {
                true
            };
            estimate.set_link(l, 1.0 - good, identifiable);
        }
        estimate.diagnostics = EstimateDiagnostics {
            num_equations: rows.len(),
            num_unknowns: pc_links.len(),
            rank: sol.rank,
            identifiable_targets: sol.identifiable.iter().filter(|&&b| b).count(),
            total_targets: pc_links.len(),
        };
    });
    let cols = pc_links.len();
    (estimate, Some((rows, cols, b)))
}

/// Whether two estimates are equal bit for bit: every link probability and
/// identifiability flag, every estimated subset, and the diagnostics.
pub fn same_estimate(network: &Network, a: &ProbabilityEstimate, b: &ProbabilityEstimate) -> bool {
    let links_equal = network.link_ids().all(|l| {
        a.link_congestion_probability(l).to_bits() == b.link_congestion_probability(l).to_bits()
            && a.link_is_identifiable(l) == b.link_is_identifiable(l)
    });
    let subsets_equal = a.num_estimated_subsets() == b.num_estimated_subsets()
        && a.estimated_subsets()
            .zip(b.estimated_subsets())
            .all(|((sa, ga), (sb, gb))| {
                let links: Vec<LinkId> = sa.iter().copied().collect();
                sa == sb
                    && ga.to_bits() == gb.to_bits()
                    && a.subset_is_identifiable(&links) == b.subset_is_identifiable(&links)
            });
    let (da, db) = (&a.diagnostics, &b.diagnostics);
    links_equal
        && subsets_equal
        && a.algorithm == b.algorithm
        && a.independence_fallback == b.independence_fallback
        && (
            da.num_equations,
            da.num_unknowns,
            da.rank,
            da.identifiable_targets,
            da.total_targets,
        ) == (
            db.num_equations,
            db.num_unknowns,
            db.rank,
            db.identifiable_targets,
            db.total_targets,
        )
}

/// Accuracy of one round's estimates: (sum of absolute link errors, links
/// scored, identifiable targets, total targets).
fn accuracy(
    instances: &[Instance],
    k: usize,
    estimates: &[ProbabilityEstimate],
) -> (f64, usize, usize, usize) {
    let mut out = (0.0, 0, 0, 0);
    for (inst, est) in instances.iter().zip(estimates) {
        let errors = score::link_error_stats(&inst.network, &inst.streams[k], est);
        out.0 += errors.mean() * errors.len() as f64;
        out.1 += errors.len();
        out.2 += est.diagnostics.identifiable_targets;
        out.3 += est.diagnostics.total_targets;
    }
    out
}

/// Runs the workload for `seconds` and reports its metrics.
pub fn run(kind: Kind, seed: u64, seconds: u64, trace: bool) -> Report {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(trace, epoch);
    let mut report = Report::default();

    // --- Set-up (inputs + warm-up), several times -------------------------
    let mut setup_s = Vec::new();
    let mut topology_ms = Vec::new();
    let mut sim_ms = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        let t0 = process_cpu_ms();
        let first = tracer.spans().len();
        match setup(kind, seed, &mut tracer) {
            Ok(s) => state = Some(s),
            Err(e) => {
                report.fail(format!("set-up failed: {e}"));
                return report;
            }
        }
        setup_s.push((process_cpu_ms() - t0) / 1e3);
        let sum_ms = |name: &str| {
            tracer.spans()[first..]
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e6)
                .sum::<f64>()
        };
        topology_ms.push(sum_ms("topology.generate"));
        sim_ms.push(sum_ms("sim.simulate"));
    }
    let (instances, mut reference) = state.expect("at least one set-up");

    // --- Timed rounds through the registry --------------------------------
    // The traced run spends half its time on untraced registry rounds and
    // half on traced phase-by-phase rounds; the ratio of their wall-clock
    // medians is the overhead.
    let budget = Duration::from_secs(seconds);
    let untraced_budget = if trace { budget / 2 } else { budget };
    let mut round_ms = Vec::new();
    let mut round_cpu_ms = Vec::new();
    let mut host = HostSpeed::default();
    let start = Instant::now();
    let mut round = 0usize;
    while round < STREAMS || start.elapsed() < untraced_budget {
        let k = round % STREAMS;
        let (t0, c0) = (Instant::now(), process_cpu_ms());
        let fitted = match registry_round(kind, &instances, k) {
            Ok(f) => f,
            Err(e) => {
                report.attempted += instances.len() as u64;
                report.failed += instances.len() as u64;
                report.fail(format!("fit failed: {e}"));
                round += 1;
                continue;
            }
        };
        round_cpu_ms.push(process_cpu_ms() - c0);
        round_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        host.sample(4);
        report.attempted += instances.len() as u64;
        let want = reference[k].get_or_insert_with(|| estimates_of(&fitted));
        for ((inst, est), want) in instances.iter().zip(&fitted).zip(want.iter()) {
            let estimate = est.estimate().expect("checked in registry_round");
            if !same_estimate(&inst.network, estimate, want) {
                report.fail("two registry fits of the same inputs differ".into());
            }
        }
        round += 1;
    }

    // Accuracy is a property of the registry estimates on each process.
    let Some(reference) = reference.into_iter().collect::<Option<Vec<_>>>() else {
        report.fail("no registry fit of some congestion process succeeded".into());
        return report;
    };
    let (mut err_sum, mut scored, mut ident, mut total) = (0.0, 0, 0, 0);
    for (k, estimates) in reference.iter().enumerate() {
        let (e, n, i, t) = accuracy(&instances, k, estimates);
        err_sum += e;
        scored += n;
        ident += i;
        total += t;
    }

    // --- Phase-by-phase rounds (traced run), or one untraced check round ---
    let mut traced_round_ms = Vec::new();
    let mut counts = PhaseCounts::default();
    let phased_start = Instant::now();
    let mut phased_round = 0usize;
    loop {
        let k = phased_round % STREAMS;
        let req = phased_round as u64 + 1;
        let mut round_counts = PhaseCounts::default();
        let mut extra_solves = Vec::new();
        let t0 = Instant::now();
        let estimates: Vec<ProbabilityEstimate> = tracer.span("bench.round", req, |tr| {
            instances
                .iter()
                .map(|inst| match kind {
                    Kind::CorrelationComplete => {
                        phased_cc(tr, req, &inst.network, &inst.streams[k], &mut round_counts)
                    }
                    Kind::Independence => {
                        let (est, system) = phased_indep(
                            tr,
                            req,
                            &inst.network,
                            &inst.streams[k],
                            &mut round_counts,
                        );
                        extra_solves.extend(system);
                        est
                    }
                })
                .collect()
        });
        traced_round_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        for (rows, cols, b) in &extra_solves {
            let opts = LstsqOptions {
                compute_identifiability: false,
                ..LstsqOptions::default()
            };
            tracer.span("linalg.solve_noident", req, |_| {
                solve_rows(rows, *cols, b, &opts)
            });
        }
        if phased_round == 0 {
            counts = round_counts;
        }
        for ((inst, est), want) in instances.iter().zip(&estimates).zip(&reference[k]) {
            if !same_estimate(&inst.network, est, want) {
                report.fail(format!(
                    "phase-by-phase {} estimate differs from the registry's on a {}-link instance",
                    kind.registry_name(),
                    inst.network.num_links()
                ));
            }
        }
        phased_round += 1;
        if !trace || (phased_round >= 3 && phased_start.elapsed() >= budget - untraced_budget) {
            break;
        }
    }

    // --- Metrics -----------------------------------------------------------
    if !trace {
        let rounds_s: f64 = round_cpu_ms.iter().sum::<f64>() / 1e3;
        let intervals_fitted = (INTERVALS * instances.len() * round_cpu_ms.len()) as f64;
        let (setup, update, rate) = (
            median(&setup_s),
            median(&round_cpu_ms),
            intervals_fitted / rounds_s,
        );
        report.metric("setup_s", host.time(setup), "s");
        report.metric("rss_peak_mb", rss_peak_mb(), "MB");
        report.metric("ok_frac", report.ok_frac(), "frac");
        report.metric("link_mae", err_sum / scored.max(1) as f64, "prob");
        report.metric(
            "identifiable_frac",
            ident as f64 / total.max(1) as f64,
            "frac",
        );
        report.metric("update_ms.p50", host.time(update), "ms");
        report.metric("intervals_per_s", host.rate(rate), "1/s");
        report.note(format!(
            "{} registry rounds; calibration kernel {:.4} ms; unscaled CPU time: setup \
             {setup:.4} s, round p50 {update:.3} ms, {rate:.2} intervals/s; wall-clock round \
             p50 {:.3} ms",
            round_ms.len(),
            host.kernel_ms(),
            median(&round_ms)
        ));
        return report;
    }

    // Traced run: per-layer metrics, as medians over the phased rounds.
    let per_round = |name: &str| -> f64 {
        let per: Vec<f64> = tracer
            .per_request_ns(name)
            .values()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        median(&per)
    };
    let untraced_p50 = median(&round_ms);
    let traced_p50 = median(&traced_round_ms);
    let alg1 = per_round("prob.alg1");
    let solve = per_round("linalg.solve");
    let mut m = LayerMetrics::zero();
    m.set("topology.generate_ms", median(&topology_ms));
    m.set("sim.simulate_ms", median(&sim_ms));
    m.set("prob.targets_ms", per_round("prob.targets"));
    m.set("prob.alg1_ms", alg1);
    m.set("prob.alg1_share", alg1 / traced_p50);
    m.set("prob.path_sets", counts.path_sets as f64);
    m.set("prob.targets", counts.targets as f64);
    m.set("prob.final_nullity", counts.final_nullity as f64);
    m.set("prob.assemble_ms", per_round("prob.assemble"));
    m.set("prob.estimate_ms", per_round("prob.estimate"));
    m.set("linalg.nnz", counts.nnz as f64);
    m.set("linalg.rows", counts.rows as f64);
    m.set("linalg.cols", counts.cols as f64);
    match kind {
        Kind::CorrelationComplete => m.set("linalg.solve_ms", solve),
        Kind::Independence => {
            let without = per_round("linalg.solve_noident");
            m.set("linalg.solve_ms", without);
            m.set("linalg.identifiability_ms", (solve - without).max(0.0));
        }
    }
    let self_ms = tracer.self_ms_by_layer(|s| s.req != 0 && s.name != "linalg.solve_noident");
    for (layer, values) in &self_ms {
        m.set_self(layer, median(values));
    }
    let phase_sum: f64 = self_ms.values().map(|v| median(v)).sum();
    m.set("tracing.overhead_frac", traced_p50 / untraced_p50 - 1.0);
    m.set("host.calib_ms", host.kernel_ms());
    report.layers = Some(m);
    let name = match kind {
        Kind::CorrelationComplete => "fit-cc",
        Kind::Independence => "fit-indep",
    };
    crate::report::write_spans(&mut report, &tracer, name, seed);
    report.note(format!(
        "untraced round p50 {untraced_p50:.2} ms ({} rounds); traced round p50 {traced_p50:.2} ms \
         ({} rounds); per-layer self times sum to {phase_sum:.2} ms; Algorithm 1 is {:.1}% of the \
         traced round",
        round_ms.len(),
        traced_round_ms.len(),
        100.0 * alg1 / traced_p50
    ));
    report
}
