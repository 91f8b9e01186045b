//! Property-based equivalence tests for the bitmap Algorithm-1 fast path.
//!
//! [`select_path_sets`] (bitmap representation, incremental Hamming-weight
//! tracking) must select the *identical* path sets in the *identical* order
//! as [`select_path_sets_reference`], the element-wise oracle — on generated
//! Brite and Sparse topologies under random congestion observations, not
//! just the hand-built Fig. 1 fixtures of the unit suite. The generated
//! cases are small and need few augmentation rounds, so two fixed instances
//! from `bench_path_selection` that need several also cover the resumed
//! candidate scans deterministically.

use std::collections::BTreeSet;

use proptest::prelude::*;
use tomo_graph::{LinkId, Network, PathId};
use tomo_prob::path_selection::{
    select_path_sets, select_path_sets_reference, PathSelectionConfig, PathSelectionOutcome,
};
use tomo_prob::potentially_congested_subsets;
use tomo_prob::subsets::potentially_congested_links;
use tomo_sim::{
    LossModel, MeasurementMode, PathObservations, ScenarioConfig, SimulationConfig, Simulator,
};
use tomo_topology::{BriteConfig, BriteGenerator, SparseConfig, SparseGenerator};

const INTERVALS: usize = 5;

/// Materializes random congestion flags into an observation matrix; flags
/// are consumed modulo their length so any generated network size fits.
fn observations_from_flags(network: &Network, flags: &[bool]) -> PathObservations {
    let num_paths = network.num_paths();
    let mut obs = PathObservations::new(num_paths, INTERVALS);
    for t in 0..INTERVALS {
        for p in 0..num_paths {
            let flag = flags[(t * num_paths + p) % flags.len()];
            obs.set_congested(PathId(p), t, flag);
        }
    }
    obs
}

/// Runs the fast path and the oracle on the same inputs.
fn both_outcomes(
    network: &Network,
    obs: &PathObservations,
    max_subset_size: usize,
) -> (PathSelectionOutcome, PathSelectionOutcome) {
    let targets = potentially_congested_subsets(network, obs, max_subset_size);
    let pc: BTreeSet<LinkId> = potentially_congested_links(network, obs)
        .into_iter()
        .collect();
    let cfg = PathSelectionConfig::default();
    (
        select_path_sets(network, obs, &targets, &pc, &cfg),
        select_path_sets_reference(network, obs, &targets, &pc, &cfg),
    )
}

/// Runs both implementations on the same inputs and fails the case on the
/// first field where they disagree.
fn check_equivalence(
    network: &Network,
    obs: &PathObservations,
    max_subset_size: usize,
) -> Result<(), TestCaseError> {
    let (fast, slow) = both_outcomes(network, obs, max_subset_size);
    prop_assert_eq!(fast.path_sets, slow.path_sets);
    prop_assert_eq!(fast.initial_count, slow.initial_count);
    prop_assert_eq!(fast.augmented_count, slow.augmented_count);
    prop_assert_eq!(fast.final_nullity, slow.final_nullity);
    prop_assert_eq!(fast.identifiable, slow.identifiable);
    Ok(())
}

/// Simulates the `bench_path_selection` inputs: 120 ideal intervals of the
/// No-Independence scenario.
fn bench_observations(network: &Network, seed: u64) -> PathObservations {
    let config = SimulationConfig {
        num_intervals: 120,
        scenario: ScenarioConfig::no_independence(),
        loss: LossModel::default(),
        measurement: MeasurementMode::Ideal,
        seed,
    };
    Simulator::new(config).run(network).observations
}

/// Equivalence on an instance that needs several augmentation rounds, so
/// the fast path resumes parked candidate scans and ends on a scan that
/// finds nothing.
fn assert_equivalent_across_rounds(network: &Network, obs: &PathObservations) {
    let (fast, slow) = both_outcomes(network, obs, 2);
    assert!(
        slow.augmented_count >= 2,
        "fixture needs several augmentation rounds, got {}",
        slow.augmented_count
    );
    assert!(slow.final_nullity > 0, "fixture must end on a failed scan");
    assert_eq!(fast.path_sets, slow.path_sets);
    assert_eq!(fast.initial_count, slow.initial_count);
    assert_eq!(fast.augmented_count, slow.augmented_count);
    assert_eq!(fast.final_nullity, slow.final_nullity);
    assert_eq!(fast.identifiable, slow.identifiable);
}

#[test]
fn bitmap_matches_reference_on_bench_brite_24ases() {
    let mut cfg = BriteConfig::tiny(1);
    cfg.num_ases = 24;
    cfg.routers_per_as = 6;
    cfg.num_paths = 24 * 20;
    let network = BriteGenerator::new(cfg).generate().unwrap();
    assert_equivalent_across_rounds(&network, &bench_observations(&network, 5));
}

#[test]
fn bitmap_matches_reference_on_bench_sparse_60ases() {
    let mut cfg = SparseConfig::tiny(1);
    cfg.num_ases = 60;
    cfg.num_traceroutes = 60 * 3;
    let network = SparseGenerator::new(cfg).generate().unwrap();
    assert_equivalent_across_rounds(&network, &bench_observations(&network, 7));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn bitmap_matches_reference_on_brite_topologies(
        seed in 0u64..1024,
        flags in proptest::collection::vec(any::<bool>(), 64..=384),
    ) {
        let network = BriteGenerator::new(BriteConfig::tiny(seed))
            .generate()
            .expect("tiny Brite generation is infallible for any seed");
        prop_assume!(network.num_paths() > 0);
        let obs = observations_from_flags(&network, &flags);
        check_equivalence(&network, &obs, 4)?;
    }

    #[test]
    fn bitmap_matches_reference_on_sparse_topologies(
        seed in 0u64..1024,
        flags in proptest::collection::vec(any::<bool>(), 64..=512),
    ) {
        let network = SparseGenerator::new(SparseConfig::tiny(seed))
            .generate()
            .expect("tiny Sparse generation is infallible for any seed");
        prop_assume!(network.num_paths() > 0);
        let obs = observations_from_flags(&network, &flags);
        check_equivalence(&network, &obs, 4)?;
    }

    #[test]
    fn bitmap_matches_reference_under_extreme_observations(
        seed in 0u64..1024,
        all_congested in any::<bool>(),
    ) {
        // Degenerate corners: every interval congested on every path (the
        // densest potentially congested set) and fully quiet observations
        // (empty target list — both must return the empty outcome).
        let network = BriteGenerator::new(BriteConfig::tiny(seed))
            .generate()
            .expect("tiny Brite generation is infallible for any seed");
        prop_assume!(network.num_paths() > 0);
        let mut obs = PathObservations::new(network.num_paths(), INTERVALS);
        if all_congested {
            for t in 0..INTERVALS {
                for p in 0..network.num_paths() {
                    obs.set_congested(PathId(p), t, true);
                }
            }
        }
        check_equivalence(&network, &obs, 4)?;
    }
}
