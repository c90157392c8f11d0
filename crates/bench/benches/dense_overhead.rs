//! E3b — the intro's dense-circuit claim: the RDBMS pays a constant-factor
//! penalty against the dense state-vector kernel (the paper measured ~14%
//! on DuckDB's vectorized engine; this embedded engine, vectorized too, pays
//! more, same direction).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qymera_circuit::library;
use qymera_sim::{SimOptions, Simulator, StateVectorSim};
use qymera_translate::SqlSimulator;

fn bench_dense_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_overhead");
    group.sample_size(10);
    for n in [8usize, 10, 12] {
        let circuit = library::equal_superposition(n);
        group.bench_with_input(BenchmarkId::new("statevector", n), &circuit, |b, ci| {
            let sim = StateVectorSim;
            b.iter(|| std::hint::black_box(sim.simulate(ci, &SimOptions::default()).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("sql", n), &circuit, |b, ci| {
            let sim = SqlSimulator::paper_default();
            b.iter(|| std::hint::black_box(sim.simulate(ci, &SimOptions::default()).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dense_overhead);
criterion_main!(benches);
