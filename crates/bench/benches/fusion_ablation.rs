//! E7 — §3.2's query optimization: fusing consecutive gates shrinks the CTE
//! chain. Benchmarked on QFT (its CP ladders and swaps cannot interfere, so
//! they fuse once the Hadamards have widened the support).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qymera_circuit::library;
use qymera_translate::{SqlSimConfig, SqlSimulator};

fn bench_fusion(c: &mut Criterion) {
    let mut group = c.benchmark_group("fusion_ablation");
    group.sample_size(10);
    for n in [6usize, 8] {
        let circuit = library::qft(n);
        let settings = [("off", None), ("fuse2", Some(2)), ("fuse3", Some(3)), ("fuse6", Some(6))];
        for (label, fusion) in settings {
            let sim = SqlSimulator::new(SqlSimConfig { fusion, ..Default::default() });
            group.bench_with_input(
                BenchmarkId::new(label, n),
                &circuit,
                |b, ci| b.iter(|| std::hint::black_box(sim.run(ci).unwrap().support())),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fusion);
criterion_main!(benches);
