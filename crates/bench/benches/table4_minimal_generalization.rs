//! Figure 3 / Table 4: finding 3-minimal generalizations with suppression —
//! the exhaustive scan that tabulates Table 4 and Samarati's binary search
//! on the same (and scaled) microdata.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use psens_algorithms::{exhaustive_scan, pk_minimal_generalization, SearchRequest};
use psens_bench::workloads;
use psens_core::{ModelSpec, NoopObserver};
use psens_datasets::hierarchies::figure2_qi_space;
use psens_datasets::paper::figure3_microdata;
use std::hint::black_box;

fn bench_table4(c: &mut Criterion) {
    let mut group = c.benchmark_group("table4");
    let im = figure3_microdata();
    let qi = figure2_qi_space();

    group.bench_function("exhaustive_ts_sweep", |b| {
        b.iter(|| {
            for ts in 0..=10usize {
                let req = SearchRequest::new(ModelSpec::PSensitiveK { p: 1 }, 3, ts);
                black_box(exhaustive_scan(&im, &qi, &req, &NoopObserver).expect("valid"));
            }
        });
    });
    group.bench_function("samarati_ts_sweep", |b| {
        b.iter(|| {
            for ts in 0..=10usize {
                let req = SearchRequest::new(ModelSpec::PSensitiveK { p: 1 }, 3, ts);
                black_box(pk_minimal_generalization(&im, &qi, &req, &NoopObserver).expect("valid"));
            }
        });
    });

    // The same search on tiled copies of the microdata (10 -> 10,000 rows).
    for &factor in &[10usize, 100, 1000] {
        let scaled = workloads::figure3_scaled(factor);
        group.bench_with_input(
            BenchmarkId::new("samarati_scaled", factor * 10),
            &factor,
            |b, _| {
                let req = SearchRequest::new(ModelSpec::PSensitiveK { p: 1 }, 3, factor);
                b.iter(|| {
                    black_box(
                        pk_minimal_generalization(&scaled, &qi, &req, &NoopObserver)
                            .expect("valid"),
                    )
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_table4);
criterion_main!(benches);
