//! The code-mapped node-evaluation kernel against the materializing
//! pipeline, per node and over the whole lattice.
//!
//! `materializing` generalizes the table, drops identifiers, suppresses and
//! re-groups for every candidate node; `code_mapped` answers the same check
//! on `u32` code vectors from the cached per-(attribute, level) maps. Same
//! verdict, no tables.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use psens_algorithms::{exhaustive_scan, SearchRequest, Tuning};
use psens_bench::workloads;
use psens_core::evaluator::EvalContext;
use psens_core::masking::MaskingContext;
use psens_core::{ModelSpec, NoopObserver};
use psens_datasets::hierarchies::adult_qi_space;
use std::hint::black_box;

fn bench_per_node(c: &mut Criterion) {
    let qi = adult_qi_space();
    let mut group = c.benchmark_group("node_eval");
    for &n in &[1_000usize, 10_000] {
        let table = workloads::adult(n);
        let ctx = MaskingContext {
            initial: &table,
            qi: &qi,
            k: 3,
            p: 2,
            ts: n / 20,
        };
        let stats = ctx.initial_stats();
        let ectx = EvalContext::build(&ctx).expect("context builds");
        let mut eval = ectx.evaluator();
        let nodes = qi.lattice().all_nodes();
        // Sanity: the two paths agree before we time them.
        for node in &nodes {
            let slow = ctx.evaluate(node, &stats).expect("evaluate");
            let fast = eval.check(node, &stats).expect("check");
            assert_eq!(slow.satisfied, fast.satisfied, "node {node}");
            assert_eq!(slow.stage, fast.stage, "node {node}");
        }

        group.throughput(Throughput::Elements(nodes.len() as u64));
        group.bench_with_input(BenchmarkId::new("materializing", n), &n, |b, _| {
            b.iter(|| {
                for node in &nodes {
                    black_box(ctx.evaluate(black_box(node), &stats).expect("evaluate"));
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("code_mapped", n), &n, |b, _| {
            b.iter(|| {
                for node in &nodes {
                    black_box(eval.check(black_box(node), &stats).expect("check"));
                }
            });
        });
    }
    group.finish();
}

fn bench_exhaustive(c: &mut Criterion) {
    let qi = adult_qi_space();
    let table = workloads::adult(10_000);
    let mut group = c.benchmark_group("exhaustive_scan");
    group.throughput(Throughput::Elements(qi.lattice().node_count() as u64));
    let serial = SearchRequest::new(ModelSpec::PSensitiveK { p: 2 }, 3, 500);
    group.bench_function("serial", |b| {
        b.iter(|| exhaustive_scan(black_box(&table), &qi, &serial, &NoopObserver).expect("scan"));
    });
    let parallel = SearchRequest {
        tuning: Tuning {
            threads: std::thread::available_parallelism().map_or(4, usize::from),
            ..Tuning::default()
        },
        ..serial.clone()
    };
    group.bench_function("parallel", |b| {
        b.iter(|| exhaustive_scan(black_box(&table), &qi, &parallel, &NoopObserver).expect("scan"));
    });
    group.finish();
}

criterion_group!(benches, bench_per_node, bench_exhaustive);
criterion_main!(benches);
