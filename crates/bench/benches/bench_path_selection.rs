//! Benchmarks of Algorithm 1 (path-set selection) — experiment E9: the §5.3
//! complexity claim `O(n1^3 + n1^2 · 2^{n2} · n3)`. The parameter swept here
//! is the topology size, which drives `n1` (number of potentially congested
//! correlation subsets) and `n3` (nullity of the seed system).

use std::collections::BTreeSet;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tomo_graph::LinkId;
use tomo_prob::{
    path_selection::select_path_sets_reference, potentially_congested_subsets, select_path_sets,
    subsets::potentially_congested_links, PathSelectionConfig,
};
use tomo_sim::{LossModel, MeasurementMode, ScenarioConfig, SimulationConfig, Simulator};
use tomo_topology::{BriteConfig, BriteGenerator, SparseConfig, SparseGenerator};

fn prepare(
    network: &tomo_graph::Network,
    seed: u64,
    num_intervals: usize,
) -> (
    tomo_sim::PathObservations,
    Vec<tomo_graph::CorrelationSubset>,
    BTreeSet<LinkId>,
) {
    let config = SimulationConfig {
        num_intervals,
        scenario: ScenarioConfig::no_independence(),
        loss: LossModel::default(),
        measurement: MeasurementMode::Ideal,
        seed,
    };
    let output = Simulator::new(config).run(network);
    let targets = potentially_congested_subsets(network, &output.observations, 2);
    let pc: BTreeSet<LinkId> = potentially_congested_links(network, &output.observations)
        .into_iter()
        .collect();
    (output.observations, targets, pc)
}

fn bench_selection_brite(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm1_path_selection_brite");
    group.sample_size(10);
    for &ases in &[8usize, 16, 24] {
        let mut cfg = BriteConfig::tiny(1);
        cfg.num_ases = ases;
        cfg.routers_per_as = 6;
        cfg.num_paths = ases * 20;
        let network = BriteGenerator::new(cfg).generate().unwrap();
        let (obs, targets, pc) = prepare(&network, 5, 120);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{ases}ases_{}targets", targets.len())),
            &network,
            |b, net| {
                b.iter(|| {
                    select_path_sets(net, &obs, &targets, &pc, &PathSelectionConfig::default())
                })
            },
        );
    }
    group.finish();
}

fn bench_selection_paper_scale(c: &mut Criterion) {
    // The paper's Fig. 4 instance size: 1068 Brite links, 300 ideal
    // intervals, subsets up to size 2 (the `CorrelationCompleteConfig`
    // default). Congestion seed 7 needs 203 augmentation rounds over 1020
    // targets, most of whose candidate scans come up empty, so the entry
    // gates the resumed per-target scans: restarting them after every fold
    // takes about 16x longer here.
    let mut group = c.benchmark_group("algorithm1_path_selection_brite");
    group.sample_size(10);
    let network = BriteGenerator::sized(1000, 1).generate().unwrap();
    let (obs, targets, pc) = prepare(&network, 7, 300);
    group.bench_with_input(
        BenchmarkId::from_parameter(format!("paper_{}links", network.num_links())),
        &network,
        |b, net| {
            b.iter(|| select_path_sets(net, &obs, &targets, &pc, &PathSelectionConfig::default()))
        },
    );
    group.finish();
}

fn bench_selection_sparse(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm1_path_selection_sparse");
    group.sample_size(10);
    for &ases in &[30usize, 60] {
        let mut cfg = SparseConfig::tiny(1);
        cfg.num_ases = ases;
        cfg.num_traceroutes = ases * 3;
        let network = SparseGenerator::new(cfg).generate().unwrap();
        let (obs, targets, pc) = prepare(&network, 7, 120);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{ases}ases_{}targets", targets.len())),
            &network,
            |b, net| {
                b.iter(|| {
                    select_path_sets(net, &obs, &targets, &pc, &PathSelectionConfig::default())
                })
            },
        );
    }
    group.finish();
}

fn bench_selection_reference(c: &mut Criterion) {
    // The element-wise oracle on the largest fixtures of the two groups
    // above. `select_path_sets` (the bitmap fast path) and this entry solve
    // the identical instance, so the ratio between them is the measured
    // speedup of the bitmap representation — and the property suite pins
    // their outcomes to be identical.
    let mut group = c.benchmark_group("algorithm1_path_selection_reference");
    group.sample_size(10);

    let mut bcfg = BriteConfig::tiny(1);
    bcfg.num_ases = 24;
    bcfg.routers_per_as = 6;
    bcfg.num_paths = 24 * 20;
    let brite = BriteGenerator::new(bcfg).generate().unwrap();
    let (obs, targets, pc) = prepare(&brite, 5, 120);
    group.bench_with_input(
        BenchmarkId::from_parameter(format!("brite_24ases_{}targets", targets.len())),
        &brite,
        |b, net| {
            b.iter(|| {
                select_path_sets_reference(
                    net,
                    &obs,
                    &targets,
                    &pc,
                    &PathSelectionConfig::default(),
                )
            })
        },
    );

    let mut scfg = SparseConfig::tiny(1);
    scfg.num_ases = 60;
    scfg.num_traceroutes = 60 * 3;
    let sparse = SparseGenerator::new(scfg).generate().unwrap();
    let (obs, targets, pc) = prepare(&sparse, 7, 120);
    group.bench_with_input(
        BenchmarkId::from_parameter(format!("sparse_60ases_{}targets", targets.len())),
        &sparse,
        |b, net| {
            b.iter(|| {
                select_path_sets_reference(
                    net,
                    &obs,
                    &targets,
                    &pc,
                    &PathSelectionConfig::default(),
                )
            })
        },
    );

    group.finish();
}

criterion_group!(
    benches,
    bench_selection_brite,
    bench_selection_paper_scale,
    bench_selection_sparse,
    bench_selection_reference
);
criterion_main!(benches);
