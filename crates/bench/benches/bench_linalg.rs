//! Micro-benchmarks of the linear-algebra substrate at sizes representative
//! of the tomography systems (hundreds of unknowns).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tomo_linalg::{
    least_squares, nullspace, nullspace_update, sparse_least_squares, LstsqOptions, Matrix,
    SparseMatrix, Vector,
};
use tomo_prob::{Independence, ProbabilityComputation};
use tomo_sim::{LossModel, MeasurementMode, ScenarioConfig, SimulationConfig, Simulator};
use tomo_topology::{BriteConfig, BriteGenerator};

/// A random sparse binary matrix like the path-set / subset incidence
/// matrices (about 4 non-zeros per row).
fn binary_system(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.gen_bool((4.0 / cols as f64).min(1.0)) {
            1.0
        } else {
            0.0
        }
    })
}

fn bench_nullspace(c: &mut Criterion) {
    let mut group = c.benchmark_group("nullspace");
    group.sample_size(10);
    for &n in &[100usize, 200, 400] {
        let m = binary_system(n / 2, n, 1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &m, |b, m| {
            b.iter(|| nullspace(m))
        });
    }
    group.finish();
}

fn bench_nullspace_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("nullspace_update_alg2");
    group.sample_size(20);
    for &n in &[200usize, 400, 800] {
        let m = binary_system(n / 4, n, 2);
        let basis = nullspace(&m);
        let mut rng = StdRng::seed_from_u64(3);
        let row: Vec<f64> = (0..n)
            .map(|_| if rng.gen_bool(0.02) { 1.0 } else { 0.0 })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| nullspace_update(&basis, &row))
        });
    }
    group.finish();
}

fn bench_least_squares(c: &mut Criterion) {
    let mut group = c.benchmark_group("least_squares");
    group.sample_size(10);
    for &n in &[100usize, 200, 400] {
        let a = binary_system(n + n / 2, n, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let b_vec = Vector::from_iter((0..a.rows()).map(|_| -rng.gen_range(0.0f64..2.0)));
        let opts = LstsqOptions::without_identifiability();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| least_squares(&a, &b_vec, &opts))
        });
    }
    group.finish();
}

fn bench_sparse_least_squares(c: &mut Criterion) {
    // The same systems as `least_squares/{100,200,400}`, solved through the
    // CSR + conjugate-gradient fast path that `should_use_sparse` dispatches
    // to at these shapes — the speedup over the dense group above is the
    // contract the sparse representation exists for.
    let mut group = c.benchmark_group("sparse_least_squares");
    group.sample_size(10);
    for &n in &[100usize, 200, 400] {
        let a = binary_system(n + n / 2, n, 4);
        let csr = SparseMatrix::from_dense(&a);
        let mut rng = StdRng::seed_from_u64(5);
        let b_vec = Vector::from_iter((0..a.rows()).map(|_| -rng.gen_range(0.0f64..2.0)));
        let opts = LstsqOptions::without_identifiability();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| sparse_least_squares(&csr, &b_vec, &opts))
        });
    }
    group.finish();
}

fn bench_brite_large_fit(c: &mut Criterion) {
    // End-to-end acceptance bench: an Independence fit over the ≥5k-link
    // sweep topology must stay interactive (< 1 s) in release. This is the
    // workload the sparse path exists for — the dense solver's O(n³) on
    // ~5.5k unknowns is minutes.
    let network = BriteGenerator::new(BriteConfig::large(1))
        .generate()
        .expect("large Brite generation");
    let config = SimulationConfig {
        num_intervals: 60,
        scenario: ScenarioConfig::no_independence(),
        loss: LossModel::default(),
        measurement: MeasurementMode::Ideal,
        seed: 11,
    };
    let output = Simulator::new(config).run(&network);
    // The registry default, identifiability on: it comes from the sparse
    // echelon form, so it stays a small share of the fit rather than a dense
    // elimination over every unknown.
    let algo = Independence::default();
    let mut group = c.benchmark_group("brite_large_fit");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::from_parameter(format!("independence_{}links", network.num_links())),
        &network,
        |b, net| b.iter(|| algo.compute(net, &output.observations)),
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_nullspace,
    bench_nullspace_update,
    bench_least_squares,
    bench_sparse_least_squares,
    bench_brite_large_fit
);
criterion_main!(benches);
