//! The paper's future-work experiment: Algorithm 3 (p-k-minimal
//! generalization search) with and without the two necessary conditions.
//!
//! The headline win is Condition 1 on unsatisfiable instances (`p > maxP`):
//! one comparison replaces a full lattice search. Condition 2 trims the
//! detailed scan on candidate nodes with too many QI-groups.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use psens_algorithms::{pk_minimal_generalization, Pruning, SearchRequest};
use psens_core::{ModelSpec, NoopObserver};
use psens_datasets::hierarchies::adult_qi_space;
use psens_datasets::paper_samples;
use std::hint::black_box;

fn bench_pruning(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm3");
    group.sample_size(10);
    let qi = adult_qi_space();
    let (s400, s4000) = paper_samples();

    for (label, table) in [("400", &s400), ("4000", &s4000)] {
        // Satisfiable: p = 2, k = 2.
        for (mode, pruning) in [
            ("unpruned", Pruning::None),
            ("pruned", Pruning::NecessaryConditions),
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("p2_k2_{mode}"), label),
                table,
                |b, table| {
                    let req = SearchRequest {
                        pruning,
                        ..SearchRequest::new(ModelSpec::PSensitiveK { p: 2 }, 2, 0)
                    };
                    b.iter(|| {
                        black_box(
                            pk_minimal_generalization(table, &qi, &req, &NoopObserver)
                                .expect("valid"),
                        )
                    });
                },
            );
        }
        // Unsatisfiable: Pay has 2 distinct values, so p = 3 violates
        // Condition 1 — the pruned search answers in O(1).
        for (mode, pruning) in [
            ("unpruned", Pruning::None),
            ("pruned", Pruning::NecessaryConditions),
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("p3_impossible_{mode}"), label),
                table,
                |b, table| {
                    let req = SearchRequest {
                        pruning,
                        ..SearchRequest::new(ModelSpec::PSensitiveK { p: 3 }, 3, 0)
                    };
                    b.iter(|| {
                        black_box(
                            pk_minimal_generalization(table, &qi, &req, &NoopObserver)
                                .expect("valid"),
                        )
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_pruning);
criterion_main!(benches);
