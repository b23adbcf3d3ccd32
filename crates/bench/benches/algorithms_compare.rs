//! Head-to-head: the four ways of producing a (p-sensitive) k-anonymous
//! masking — Samarati binary search, Incognito-style level-wise, exhaustive
//! scan, and Mondrian local recoding — on the same synthetic Adult sample.

use criterion::{criterion_group, criterion_main, Criterion};
use psens_algorithms::{
    exhaustive_scan, greedy_pk_cluster, incognito_minimal, levelwise_minimal, mondrian_anonymize,
    pk_minimal_generalization, GreedyClusterConfig, MondrianConfig, SearchRequest, Tuning,
};
use psens_bench::workloads;
use psens_core::{ModelSpec, NoopObserver, SearchBudget};
use psens_datasets::hierarchies::adult_qi_space;
use std::hint::black_box;

fn bench_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithms");
    group.sample_size(10);
    let qi = adult_qi_space();
    let table = workloads::adult(1000);
    let (p, k, ts) = (2u32, 2u32, 10usize);
    let req = SearchRequest::new(ModelSpec::PSensitiveK { p }, k, ts);
    let parallel = SearchRequest {
        tuning: Tuning {
            threads: 4,
            ..Tuning::default()
        },
        ..req.clone()
    };
    let unlimited = SearchBudget::unlimited();
    let noop = NoopObserver;

    group.bench_function("samarati_binary_search", |b| {
        b.iter(|| black_box(pk_minimal_generalization(&table, &qi, &req, &noop).expect("valid")));
    });
    group.bench_function("levelwise_rollup", |b| {
        b.iter(|| black_box(levelwise_minimal(&table, &qi, &req, &noop).expect("valid")));
    });
    group.bench_function("incognito_subset_pruning", |b| {
        b.iter(|| black_box(incognito_minimal(&table, &qi, &req, &noop).expect("valid")));
    });
    group.bench_function("exhaustive_scan", |b| {
        b.iter(|| black_box(exhaustive_scan(&table, &qi, &req, &noop).expect("valid")));
    });
    group.bench_function("exhaustive_scan_parallel_4", |b| {
        b.iter(|| black_box(exhaustive_scan(&table, &qi, &parallel, &noop).expect("valid")));
    });
    group.bench_function("mondrian_local_recoding", |b| {
        let config = MondrianConfig { k, p };
        b.iter(|| black_box(mondrian_anonymize(&table, config, &unlimited, &noop).unwrap()));
    });
    group.bench_function("greedy_pk_clustering", |b| {
        let config = GreedyClusterConfig { k, p };
        b.iter(|| black_box(greedy_pk_cluster(&table, config, &unlimited, &noop).expect("valid")));
    });
    group.finish();
}

criterion_group!(benches, bench_algorithms);
criterion_main!(benches);
