//! Input generation: topologies and simulated observation streams.
//!
//! Every input is a pure function of fixed instance constants and the run's
//! `--seed`. The topology and the placement of the congestible links are the
//! fixed instance; the seed draws the congestion process on it (which
//! intervals each link is congested in, and how drifting probabilities move).
//! Algorithm 1's cost depends on which links and subsets are targets, and
//! across placements it varies by two orders of magnitude on instances of the
//! same size, so a seed that re-drew the placement would make run-to-run
//! spread swamp any change under test. The congestion process alone
//! still changes every observation and every right-hand side.

use rand::{rngs::StdRng, SeedableRng};
use tomo_graph::Network;
use tomo_sim::{GroundTruth, PathObservations, ScenarioConfig, SimulationOutput};

/// Simulates `intervals` intervals of `scenario` under ideal end-to-end
/// measurement: a path is congested exactly when one of its links is.
///
/// This is `tomo_sim::Simulator::run` for `MeasurementMode::Ideal` with the
/// random stream split in two: `placement_seed` drives the congestion model
/// (which links are congestible and how they are correlated) and
/// `process_seed` drives the per-interval sampling and the epoch-to-epoch
/// evolution of non-stationary scenarios.
pub fn simulate(
    network: &Network,
    scenario: &ScenarioConfig,
    intervals: usize,
    placement_seed: u64,
    process_seed: u64,
) -> SimulationOutput {
    let mut placement_rng = StdRng::seed_from_u64(placement_seed);
    let mut model = scenario.build_model(network, &mut placement_rng);
    let initial_model = model.clone();
    let mut rng = StdRng::seed_from_u64(process_seed);

    let num_links = network.num_links();
    let mut ground_truth = GroundTruth::new(num_links, intervals);
    ground_truth.set_congestible(model.congestible_links());
    let mut observations = PathObservations::new(network.num_paths(), intervals);
    let epoch_len = if scenario.stationary {
        intervals
    } else {
        scenario.epoch_len.max(1)
    };

    let mut t = 0;
    let mut epoch = 0;
    let mut fault_events = Vec::new();
    while t < intervals {
        let this_epoch = epoch_len.min(intervals - t);
        let marginals: Vec<f64> = network.link_ids().map(|l| model.marginal(l)).collect();
        ground_truth.add_model_marginals(&marginals, this_epoch as f64 / intervals as f64);
        if !scenario.stationary {
            ground_truth.record_epoch_marginals(t, &marginals);
        }
        for _ in 0..this_epoch {
            let states = model.sample_interval(&mut rng, num_links);
            ground_truth.record_interval(t, &states);
            for path in network.paths() {
                let congested = path.links.iter().any(|l| states[l.index()]);
                observations.set_congested(path.id, t, congested);
            }
            t += 1;
        }
        if !scenario.stationary && t < intervals {
            epoch += 1;
            let (next, events) = scenario.evolve_model(&model, epoch, t, &mut rng);
            model = next;
            fault_events.extend(events);
        }
    }
    SimulationOutput {
        observations,
        ground_truth,
        initial_model,
        fault_events,
    }
}

/// Derives an independent seed for sub-stream `index` of a run seed
/// (SplitMix64 finalizer), so streams of one run never share a sequence.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
