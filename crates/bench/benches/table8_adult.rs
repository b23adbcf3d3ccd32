//! Table 8: the Section 4 experiment end to end — Samarati binary search for
//! a k-minimal generalization of the synthetic Adult samples, plus the
//! attribute-disclosure count on the result.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use psens_algorithms::{pk_minimal_generalization, SearchRequest};
use psens_core::{attribute_disclosure_count, ModelSpec, NoopObserver};
use psens_datasets::hierarchies::adult_qi_space;
use psens_datasets::paper_samples;
use std::hint::black_box;

fn bench_table8(c: &mut Criterion) {
    let mut group = c.benchmark_group("table8");
    group.sample_size(10);
    let qi = adult_qi_space();
    let (s400, s4000) = paper_samples();
    for (label, table) in [("400", &s400), ("4000", &s4000)] {
        for k in [2u32, 3] {
            let req = SearchRequest::new(ModelSpec::PSensitiveK { p: 1 }, k, 0);
            group.bench_with_input(
                BenchmarkId::new("samarati_search", format!("{label}_k{k}")),
                &k,
                |b, _| {
                    b.iter(|| {
                        black_box(
                            pk_minimal_generalization(table, &qi, &req, &NoopObserver)
                                .expect("valid"),
                        )
                    });
                },
            );
            let outcome =
                pk_minimal_generalization(table, &qi, &req, &NoopObserver).expect("valid");
            let masked = outcome.masked.expect("satisfiable");
            let keys = masked.schema().key_indices();
            let conf = masked.schema().confidential_indices();
            group.bench_with_input(
                BenchmarkId::new("disclosure_count", format!("{label}_k{k}")),
                &k,
                |b, _| {
                    b.iter(|| {
                        black_box(attribute_disclosure_count(black_box(&masked), &keys, &conf))
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_table8);
criterion_main!(benches);
